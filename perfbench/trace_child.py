"""Run the satpow CLI in this process, with a span around each layer entry point.

Usage: python3 trace_child.py SPANS_JSON RUN_ID CLI_ARG...

The spans are written to SPANS_JSON when the CLI returns, as a JSON list of
[name, start, end, parent, run_id, counts] rows: ``parent`` is the index of
the enclosing span (-1 for none) and ``counts`` holds sizes read from the
call's arguments and result.  Only public satpow names are wrapped, and each
is replaced wherever a satpow module holds it, so the trace does not depend
on how the modules import one another.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import satpow.cli
from satpow.core import MonomialIdeal

spans: list = []
stack: list = []
RUN_ID = int(sys.argv[2]) if len(sys.argv) > 2 else 0


def _traced(fn, name, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, RUN_ID, None]
        stack.append(len(spans))
        spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        if count is not None:
            span[5] = count(args, result)
        return result

    return wrapper


def _pair_sizes(args, result):
    return {"cands": len(args[0].gens) * len(args[1].gens), "kept": len(result.gens)}


METHODS = {
    "multiply": ("core.multiply", _pair_sizes),
    "intersect": ("core.intersect", _pair_sizes),
    "saturate_ideal": (
        "core.saturate",
        lambda args, result: {"in": len(args[0].gens), "out": len(result.gens)},
    ),
    "saturate_monomial": ("core.saturate_monomial", None),
}

FUNCTIONS = {
    "load_corpus": ("parsing.load", None),
    "load_ideal_file": ("parsing.load", None),
    "format_ideal": ("parsing.format", None),
    "numerator_of_quotient": (
        "hilbert.numerator",
        lambda args, result: {"len": len(result.coeffs)},
    ),
    "dim_and_mult": ("hilbert.dim_and_mult", None),
    "quotient_module_data": (
        "hilbert.quotient",
        lambda args, result: {"equal": args[0] == args[1]},
    ),
    "sample_series": ("filtration.sample_series", None),
    "fit": ("quasipoly.fit", None),
    "height": ("theory.height", None),
    "run_verify": ("harness.run_verify", None),
    "render_verify_csv": ("harness.render", None),
    "render_verify_json": ("harness.render", None),
    "render_verify_table": ("harness.render", None),
    "render_series_csv": ("harness.render", None),
    "render_series_json": ("harness.render", None),
    "render_series_table": ("harness.render", None),
    "render_quasipolynomial": ("harness.render", None),
    "render_quasipolynomial_json": ("harness.render", None),
}


def install() -> None:
    for attr, (name, count) in METHODS.items():
        setattr(MonomialIdeal, attr, _traced(getattr(MonomialIdeal, attr), name, count))
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "satpow"]
    for attr, (name, count) in FUNCTIONS.items():
        originals = {getattr(m, attr) for m in modules if hasattr(m, attr)}
        if len(originals) != 1:
            raise SystemExit(f"trace: expected one satpow function named {attr}, found {len(originals)}")
        original = originals.pop()
        wrapper = _traced(original, name, count)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)


def main() -> int:
    out_path, cli_args = sys.argv[1], sys.argv[3:]
    install()
    main_span = _traced(satpow.cli.main, "cli.main", None)
    try:
        return main_span(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump(spans, out)


if __name__ == "__main__":
    sys.exit(main())
