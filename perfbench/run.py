#!/usr/bin/env python3
"""Benchmark for satpow: time each workload as fresh `satpow` CLI processes.

Run from the root of a satpow checkout, which must hold ``src/satpow``:

    python3 perfbench/run.py --workload corpus-n20 --seed 0 --seconds 40 --trace 0

``--workload`` is one of corpus-n20, edge-symbolic, deep-hilbert, or ``all``
to run each in turn.  The seed makes the input file (see workloads.py); the
program sees only that file.

With ``--trace 0`` the run measures, all sequentially:

* ``wall_over_ref``: the median over repeated fresh CLI processes of each
  process's time from spawn to exit, divided by the mean time of the runs of
  ``calibrate.py`` (a fixed computation of satpow's kind) made right after
  it.  The machine's speed drifts by 20% or more over minutes, and the ratio
  cancels much of that drift; the plain median ``wall_s`` is printed beside it;
* ``setup_s``: the median time of fresh interpreters, also run after each
  workload process, that import ``satpow.cli`` and parse the input,
  computing nothing;
* ``peak_rss_mb``: the median over the CLI processes of each one's peak
  resident memory (``getrusage`` of that child alone, via ``wait4``).

Processes are repeated until about ``--seconds`` seconds have passed.  Each
run is its own process because satpow memoizes Hilbert numerators for the
life of a process.  With ``--trace 1`` the runs alternate between the CLI
under ``trace_child.py``, which records a span around each layer entry point,
and the plain CLI; the per-layer metrics are medians over the traced runs,
and ``trace.overhead_s`` is the traced median wall time minus the plain one.

Every output is checked (workloads.py).  A run whose exit code or output is
wrong counts in ``failed``; ``fail_ratio`` is failed over attempted.  Each run
also checks its first correct output against a deliberately wrong
expectation and reports ``correct: false`` if that check passes.  The last
line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans as span_metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "satpow" / "data" / "corpus.json"
WORK = HERE / "work"

# Children run without the site module: satpow needs only the standard
# library, and site start-up (.pth files of the installed packages) costs more
# than importing satpow on some machines, which would swamp setup_s.
PYTHON = [sys.executable, "-S"]
# The `satpow` console script, run from the checkout's sources.
CLI = "import sys; from satpow.cli import main; sys.exit(main())"
# Fresh interpreter to satpow imported and the input parsed.
SETUP = "import sys, satpow.cli, satpow.parsing; getattr(satpow.parsing, sys.argv[1])(sys.argv[2])"
CALIBRATE = [*PYTHON, str(HERE / "calibrate.py")]
# Shares of each workload run's time spent right after it on calibration
# runs and on set-up runs.
CALIBRATE_SHARE = 0.25
SETUP_SHARE = 0.05
# No single run may take longer than this, so that a run ends within 180 s.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_over_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv: list, workdir: Path, deadline: float) -> Child:
    """Run ``argv`` to completion and measure it; kill it at ``deadline``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def repeat(seconds: float, once) -> list:
    """Call ``once(i)`` until about ``seconds`` have passed, at least once.

    A new call starts only if, at the mean duration so far, it would end
    less than half a call past ``seconds``.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(once(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) / 2 >= seconds:
            return results


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    case = workloads.make_case(name, seed, CORPUS, workdir)
    plain = [*PYTHON, "-c", CLI, *case.cli_args]
    setup_argv = [*PYTHON, "-c", SETUP, case.loader, str(case.input_path)]
    warm = run_child(setup_argv, workdir, deadline)  # also writes satpow's bytecode cache
    if warm.code != 0:
        raise SystemExit(f"set-up failed:\n{warm.stderr.decode(errors='replace')}")

    metrics: dict = {}
    if trace:
        spans_path = workdir / "spans.json"
        splits: list = []

        def once(i: int) -> tuple:
            spans_path.unlink(missing_ok=True)
            traced = run_child(
                [*PYTHON, str(HERE / "trace_child.py"), str(spans_path), str(i), *case.cli_args],
                workdir,
                deadline,
            )
            # A failed traced run counts in `failed` below and adds no spans.
            spans = json.loads(spans_path.read_text()) if traced.code == 0 else []
            layers = span_metrics.layer_metrics(spans)
            splits.append(span_metrics.series_split(spans))
            return traced, layers, run_child(plain, workdir, deadline)

        pairs = repeat(seconds, once)
        runs = [child for traced, _, untraced in pairs for child in (traced, untraced)]
        for metric, unit in span_metrics.LAYER_METRICS.items():
            value = statistics.median(layers[metric] for _, layers, _ in pairs)
            metrics[metric] = {"value": value, "unit": unit}
        overhead = statistics.median(t.wall_s for t, _, _ in pairs) - statistics.median(
            u.wall_s for _, _, u in pairs
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for i, calls in enumerate(zip(*splits)):
            cells = ", ".join(
                f"{key} {statistics.median(c[key] for c in calls):.4g} s" for key in calls[0]
            )
            print(f"{name}: sample_series call {i}: {cells}")
    else:
        setups: list = []
        refs: list = []

        def after(run: Child, share: float, argv: list) -> list:
            """Runs of ``argv`` for ``share`` of ``run``'s time, at least one."""
            until = time.perf_counter() + share * run.wall_s
            done = [run_child(argv, workdir, deadline)]
            while time.perf_counter() < until:
                done.append(run_child(argv, workdir, deadline))
            return done

        def once(i: int) -> Child:
            # Calibration and set-up runs follow every workload run, so that
            # they see the same changes in machine speed as the workload.
            run = run_child(plain, workdir, deadline)
            refs.append(after(run, CALIBRATE_SHARE, CALIBRATE))
            setups.extend(after(run, SETUP_SHARE, setup_argv))
            return run

        runs = repeat(seconds, once)
        if any(c.code != 0 for c in setups + [c for cs in refs for c in cs]):
            raise SystemExit("set-up or calibration failed")
        values = {
            "wall_over_ref": statistics.median(
                r.wall_s / statistics.fmean(c.wall_s for c in cs) for r, cs in zip(runs, refs)
            ),
            "setup_s": statistics.median(s.wall_s for s in setups),
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(
            f"{name} seed {seed}: wall_s {statistics.median(r.wall_s for r in runs):.4g} s, "
            f"calibrate.py {statistics.median(c.wall_s for cs in refs for c in cs):.4g} s (medians)"
        )

    # Check each distinct output once; the oracles run here, outside every timed process.
    verdicts: dict = {}
    failed = 0
    for run in runs:
        if run.code != 0:
            problems = [f"exit code {run.code}: {run.stderr.decode(errors='replace')[-500:]}"]
        else:
            if run.stdout not in verdicts:
                verdicts[run.stdout] = case.check(run.stdout, case.expected)
            problems = verdicts[run.stdout]
        if problems:
            failed += 1
            print(f"{name}: wrong result: {'; '.join(problems)}", file=sys.stderr)

    passing = [out for out, problems in verdicts.items() if not problems]
    wrong_passes = bool(passing) and not case.check(passing[0], case.wrong_expected)
    if wrong_passes:
        print(f"{name}: self-check failed: a wrong expectation was accepted", file=sys.stderr)

    return {
        "correct": failed == 0 and bool(passing) and not wrong_passes,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


def summary(name: str, seed: int, result: dict) -> str:
    cells = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
    ratio = result["failed"] / result["attempted"]
    cells.append(f"fail_ratio {ratio:g} ({result['failed']}/{result['attempted']} runs)")
    return f"{name} seed {seed}: " + ", ".join(cells)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "satpow" / "cli.py").is_file():
        print(f"error: no satpow sources at {SRC}; run from a satpow checkout", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir)
        print(summary(name, args.seed, result))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
