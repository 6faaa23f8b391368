from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from satpow import MonomialIdeal, cli, fit, harness, hilbert, sample_series
from satpow.harness import (
    CSV_COLUMNS,
    VERDICT_CONSISTENT,
    VERDICT_HYPOTHESIS,
    VERDICT_INCONSISTENT,
    VERDICT_INSUFFICIENT,
    VerifyRecord,
    exit_code_for,
    render_series_table,
    render_verify_csv,
    render_verify_json,
    render_verify_table,
    run_verify,
)
from satpow.parsing import load_corpus, parse_corpus, parse_ideal_file

ROOT = Path(__file__).parents[1]
DATA = ROOT / "tests" / "data"
# (stored file, satpow arguments) per line of tests/references.txt, paths from ROOT
REFERENCES = [
    (stored, args)
    for stored, *args in (
        line.split()
        for line in (ROOT / "tests" / "references.txt").read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    )
]


def run_cli(argv, **env):
    """``satpow`` on ``argv`` in a new process, with ``env`` added to its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-m", "satpow.cli", *argv], env=env, capture_output=True, text=True)


TRIANGLE_FILE = "ring x y z\nI: x*y, y*z, z*x\nJ: x, y, z\n"

TRIANGLE_ENTRY = {
    "name": "triangle",
    "ring": ["x", "y", "z"],
    "I": ["x*y", "y*z", "z*x"],
    "J": ["x", "y", "z"],
}
MIXED_ENTRY = {
    "name": "mixed",
    "ring": ["x", "y"],
    "I": ["x", "y^2"],
    "J": ["x*y"],
}
UNIT_J_ENTRY = {
    "name": "unit-j",
    "ring": ["x", "y", "z"],
    "I": ["x*y", "y*z", "z*x"],
    "J": ["1"],
}


def small_corpus(*entries):
    return parse_corpus(json.dumps(list(entries)))


class TestRunners:
    def test_run_series_counts(self):
        pair = parse_ideal_file(TRIANGLE_FILE)
        samples = sample_series(pair.base, pair.saturator, 4)
        assert [s.f for s in samples] == [0, 1, 3, 7]

    def test_run_fit_triangle(self):
        pair = parse_ideal_file(TRIANGLE_FILE)
        samples = sample_series(pair.base, pair.saturator, 12)
        qp = fit([(s.n, s.f) for s in samples], min_tail=2)
        assert (qp.period, qp.degree) == (2, 3)
        assert qp.coeffs[3] == (Fraction(1, 12), Fraction(1, 12))
        assert qp.coeffs[2] == (Fraction(1, 8), Fraction(1, 8))

    def test_verify_triangle_consistent(self):
        records = run_verify(small_corpus(TRIANGLE_ENTRY), nmax=12, min_tail=2)
        (r,) = records
        assert r.verdict == VERDICT_CONSISTENT
        assert r.equigenerated and r.height == 2
        assert (r.dim_tail, r.dim_onset) == (0, 2)
        assert (r.period, r.degree) == (2, 3)
        assert r.a_c == Fraction(1, 12)
        assert r.a_c_const and r.a_c_positive and r.a_c1_const
        assert r.qp_grade == 0

    def test_verify_hypothesis_not_met_still_reports_observations(self):
        records = run_verify(small_corpus(MIXED_ENTRY), nmax=10, min_tail=2)
        (r,) = records
        assert r.verdict == VERDICT_HYPOTHESIS
        assert not r.equigenerated
        assert r.period is not None
        assert r.degree == 2 and r.a_c == 1

    def test_verify_zero_function_trivially_consistent(self):
        records = run_verify(small_corpus(UNIT_J_ENTRY), nmax=8, min_tail=2)
        (r,) = records
        assert r.verdict == VERDICT_CONSISTENT
        assert r.degree is None and r.period is not None
        assert r.dim_tail is None

    def test_verify_insufficient_data(self):
        records = run_verify(small_corpus(TRIANGLE_ENTRY), nmax=5, min_tail=3)
        (r,) = records
        assert r.verdict == VERDICT_INSUFFICIENT
        assert r.period is None

    def test_every_entry_gets_exactly_one_verdict(self):
        entries = load_corpus(cli.default_corpus_path())
        records = run_verify(entries, nmax=12, min_tail=2)
        assert [r.name for r in records] == [e.name for e in entries]


class TestExitCodes:
    def _record(self, verdict):
        fitted = verdict != VERDICT_INSUFFICIENT
        return VerifyRecord(
            name="r", equigenerated=True, height=2,
            dim_tail=0, dim_onset=1, period=1 if fitted else None, degree=0, a_c=Fraction(1),
            a_c_const=True, a_c_positive=True, a_c1_const=True, qp_grade=-1, verdict=verdict,
        )

    def test_record_is_keyword_only(self):
        with pytest.raises(TypeError):
            VerifyRecord("r", True, 2, VERDICT_INSUFFICIENT)

    def test_all_consistent_is_zero(self):
        assert exit_code_for([self._record(VERDICT_CONSISTENT)]) == 0

    def test_insufficient_is_two(self):
        records = [self._record(VERDICT_CONSISTENT), self._record(VERDICT_INSUFFICIENT)]
        assert exit_code_for(records) == 2

    def test_inconsistent_is_three_and_wins(self):
        records = [
            self._record(VERDICT_INSUFFICIENT),
            self._record(VERDICT_INCONSISTENT),
        ]
        assert exit_code_for(records) == 3


class TestRendering:
    @pytest.fixture
    def records(self):
        return run_verify(
            small_corpus(TRIANGLE_ENTRY, MIXED_ENTRY, UNIT_J_ENTRY), nmax=12, min_tail=2
        )

    def test_csv_columns_fixed(self, records):
        header = render_verify_csv(records).splitlines()[0]
        assert header.split(",") == CSV_COLUMNS

    def test_csv_cells(self, records):
        lines = render_verify_csv(records).splitlines()
        triangle = lines[1].split(",")
        assert triangle[:7] == ["triangle", "true", "2", "0", "2", "3", "1/12"]
        unit_j = lines[3].split(",")
        assert unit_j[3] == "empty" and unit_j[5] == "zero-function"

    def test_json_round_trips(self, records):
        rows = json.loads(render_verify_json(records))
        assert [row["name"] for row in rows] == ["triangle", "mixed", "unit-j"]
        assert all(list(row.keys()) == CSV_COLUMNS for row in rows)

    def test_outputs_deterministic(self, records):
        again = run_verify(
            small_corpus(TRIANGLE_ENTRY, MIXED_ENTRY, UNIT_J_ENTRY), nmax=12, min_tail=2
        )
        assert render_verify_csv(records) == render_verify_csv(again)
        assert render_verify_json(records) == render_verify_json(again)
        assert render_verify_table(records) == render_verify_table(again)

    def test_zero_function_renders_its_onset(self):
        zero = fit([(1, 7)] + [(n, 0) for n in range(2, 10)])
        assert harness.render_quasipolynomial(zero) == "zero function (period 1, onset n = 2)\n"

    def test_tables_without_rows_keep_the_header(self):
        assert render_verify_table([]).splitlines()[0].split() == CSV_COLUMNS
        assert render_series_table([]) == "n  f  dim  symbolic_gens\n-  -  ---  -------------\n"


class TestCli:
    @pytest.fixture
    def ideal_file(self, tmp_path):
        path = tmp_path / "triangle.ideal"
        path.write_text(TRIANGLE_FILE, encoding="utf-8")
        return str(path)

    def test_show_canonicalizes(self, ideal_file, capsys):
        assert cli.main(["show", ideal_file]) == 0
        assert capsys.readouterr().out == "ring x y z\nI: x*y, x*z, y*z\nJ: x, y, z\n"

    def test_power(self, ideal_file, capsys):
        assert cli.main(["power", ideal_file, "-n", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "x^2*y^2, x^2*y*z, x^2*z^2, x*y^2*z, x*y*z^2, y^2*z^2"

    def test_colon_and_saturate(self, tmp_path, capsys):
        path = tmp_path / "pair.ideal"
        path.write_text("ring x y\nI: x^2*y\nJ: y\n", encoding="utf-8")
        assert cli.main(["colon", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "x^2"
        assert cli.main(["saturate", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "x^2"

    def test_hilbert(self, ideal_file, capsys):
        assert cli.main(["hilbert", ideal_file]) == 0
        out = capsys.readouterr().out
        assert "dim = 1" in out and "e0 = 3" in out

    def test_symbolic(self, ideal_file, capsys):
        assert cli.main(["symbolic", ideal_file, "-n", "2"]) == 0
        assert capsys.readouterr().out.strip() == "x*y*z, x^2*y^2, x^2*z^2, y^2*z^2"

    def test_series_formats(self, ideal_file, capsys):
        assert cli.main(["series", ideal_file, "--nmax", "4", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,f,dim,symbolic_gens"
        assert lines[1] == "1,0,empty,3"
        assert cli.main(["series", ideal_file, "--nmax", "4", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[1]["f"] == "1"

    def test_fit_command(self, ideal_file, capsys):
        code = cli.main(
            ["fit", ideal_file, "--nmax", "12", "--min-tail", "2", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["period"] == 2 and payload["degree"] == 3
        assert payload["coeffs"][3] == ["1/12", "1/12"]

    def test_fit_insufficient_data_exits_two(self, ideal_file, capsys):
        assert cli.main(["fit", ideal_file, "--nmax", "6"]) == 2

    @pytest.mark.parametrize("nmax, min_tail", [("2", "3"), ("5", "2")])
    def test_insufficient_data_names_the_window(self, ideal_file, capsys, nmax, min_tail):
        assert cli.main(["fit", ideal_file, "--nmax", nmax, "--min-tail", min_tail]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"insufficient data: no quasi-polynomial fits the {nmax} samples with {min_tail} "
            "verification points per residue class; increase the sample window\n"
        )

    def test_fit_takes_no_period_cap(self, ideal_file, capsys):
        assert cli.main(["fit", ideal_file, "--gmax", "6"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_verify_default_corpus(self, capsys):
        assert cli.main(["verify", "--min-tail", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split(",") == CSV_COLUMNS
        assert "engine-inconsistent" not in out

    def test_verify_out_file_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["verify", "--min-tail", "2", "--format", "csv", "--out", str(out_a)]) == 0
        assert cli.main(["verify", "--min-tail", "2", "--format", "csv", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes() == (DATA / "verify-n12.csv").read_bytes()

    def test_verify_insufficient_exits_two(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([TRIANGLE_ENTRY]), encoding="utf-8")
        assert cli.main(["verify", str(corpus), "--nmax", "5"]) == 2

    def test_verify_engine_bug_exits_three(self, monkeypatch):
        broken = VerifyRecord(
            name="broken", equigenerated=True, height=2,
            dim_tail=0, dim_onset=1, period=2, degree=1, a_c=None,
            a_c_const=False, a_c_positive=False, a_c1_const=True, qp_grade=1,
            verdict=VERDICT_INCONSISTENT,
        )
        monkeypatch.setattr(harness, "run_verify", lambda *a, **k: [broken])
        assert cli.main(["verify"]) == 3

    def test_verify_fit_that_misses_its_samples_exits_three(self, monkeypatch, tmp_path, capsys):
        # a constant coefficient off by one keeps every coefficient check
        # passing, so only evaluating the fit at its samples finds it
        def shifted(samples, **kwargs):
            qp = fit(samples, **kwargs)
            return qp._replace(coeffs=(tuple(a + 1 for a in qp.coeffs[0]), *qp.coeffs[1:]))

        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([TRIANGLE_ENTRY]), encoding="utf-8")
        argv = ["verify", str(corpus), "--nmax", "12", "--min-tail", "2", "--format", "csv"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith("," + VERDICT_CONSISTENT)
        monkeypatch.setattr(harness, "fit", shifted)
        assert cli.main(argv) == 3
        assert capsys.readouterr().out.splitlines()[1].endswith("," + VERDICT_INCONSISTENT)

    @pytest.mark.parametrize(
        "exc, resource",
        [(MemoryError, "out of memory"), (RecursionError, "recursion depth"), (OverflowError, "size overflow")],
    )
    def test_exhausted_resource_exits_three(self, ideal_file, monkeypatch, capsys, exc, resource):
        def exhaust(gens, pk, memo):
            raise exc()

        monkeypatch.setattr(hilbert, "_numerator", exhaust)
        assert cli.main(["hilbert", ideal_file]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and resource in err

    def test_sizes_past_an_index_exit_three_end_to_end(self, tmp_path):
        # past 2^63 a list length overflows before anything is allocated
        huge = str(2**64)
        path = tmp_path / "huge.ideal"
        path.write_text(f"ring x y\nI: x^{huge}\nJ: x\n", encoding="utf-8")
        for argv in (["hilbert", str(path)], ["power", str(path), "-n", huge]):
            run = run_cli(argv)
            assert run.returncode == 3, (argv, run.stderr)
            assert run.stdout == ""  # the report is built whole before any of it is written
            assert "Traceback" not in run.stderr
            assert run.stderr.count("\n") == 1 and run.stderr.startswith("error: ")

    def test_unencodable_output_exits_one_and_writes_nothing(self, tmp_path):
        path = tmp_path / "greek.ideal"
        path.write_text("ring \u03b1 \u03b2\nI: \u03b1*\u03b2\nJ: \u03b1\n", encoding="utf-8")
        run = run_cli(["show", str(path)], PYTHONIOENCODING="ascii")
        assert run.returncode == 1, run.stderr
        assert run.stdout == ""
        assert run.stderr.count("\n") == 1 and run.stderr.startswith("error: ")

    def test_usage_error_exits_one(self, capsys):
        assert cli.main(["power"]) == 1
        assert cli.main(["no-such-command"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["power", "FILE", "-n", "-1"],
            ["power", "FILE", "-n", "two"],
            ["symbolic", "FILE", "-n", "-1"],
            ["series", "FILE", "--nmax", "0"],
            ["fit", "FILE", "--min-tail", "1"],
            ["verify", "--nmax", "0"],
            ["verify", "--min-tail", "1"],
        ],
    )
    def test_option_out_of_range_exits_one(self, ideal_file, argv, capsys):
        assert cli.main([ideal_file if a == "FILE" else a for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_internal_value_error_exits_three(self, ideal_file, monkeypatch, capsys):
        def broken(base, saturator, n=1):
            raise ValueError("a broken invariant")

        monkeypatch.setattr(MonomialIdeal, "packed_localizations", broken)
        assert cli.main(["series", ideal_file]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "engine bug" in err and "a broken invariant" in err

    def test_inconsistent_numerator_exits_three(self, ideal_file, monkeypatch, capsys):
        # K = 1 - 2z has the multiplicity -1, which no module has
        monkeypatch.setattr(hilbert, "_numerator", lambda gens, pk, memo: {0: 1, 1: -2})
        assert cli.main(["hilbert", ideal_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("internal inconsistency (engine bug): ")

    def test_non_utf8_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "latin1.ideal"
        bad.write_bytes("ring x\nI: x\nJ: x # \u00e9\n".encode("latin-1"))
        assert cli.main(["show", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_files_with_a_byte_order_mark_read_alike(self, tmp_path, capsys):
        # as Windows editors save UTF-8
        corpus = json.dumps([TRIANGLE_ENTRY, MIXED_ENTRY])
        outputs = []
        for bom in ("", "\ufeff"):
            ideal, entries = tmp_path / f"pair{len(bom)}.ideal", tmp_path / f"corpus{len(bom)}.json"
            ideal.write_text(bom + TRIANGLE_FILE, encoding="utf-8")
            entries.write_text(bom + corpus, encoding="utf-8")
            assert cli.main(["show", str(ideal)]) == 0
            assert cli.main(["verify", str(entries), "--min-tail", "2", "--format", "csv"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("ring x y z\n") and outputs[0].err == ""

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.ideal"
        bad.write_text("ring x\nI: q\nJ: x\n", encoding="utf-8")
        assert cli.main(["show", str(bad)]) == 1
        assert cli.main(["show", str(tmp_path / "missing.ideal")]) == 1


class TestReferences:
    @pytest.mark.parametrize("stored, args", REFERENCES, ids=[Path(stored).name for stored, _ in REFERENCES])
    def test_matches_stored_bytes(self, stored, args, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        assert cli.main(args) == 0
        assert capsys.readouterr().out.encode() == (ROOT / stored).read_bytes()

    def test_every_stored_output_has_one_line(self):
        # so a new stored output cannot miss the CI loop over the same file
        named = [stored for stored, _ in REFERENCES]
        assert all((ROOT / stored).is_file() for stored in named)
        on_disk = sorted(f"tests/data/{path.name}" for path in DATA.iterdir() if path.suffix != ".ideal")
        assert sorted(s for s in named if s.startswith("tests/data/")) == on_disk
