"""Command-line interface.

Subcommands operate on ideal files (show, power, colon, saturate, hilbert,
symbolic, series, fit) or on a corpus file (verify).  Each builds its whole
report before ``main`` writes it, so a command stopped by an error writes
no part of it.  Exit codes: 0 success, 1 usage, parse or I/O error (an
option out of range, an unreadable or malformed file, an output that
cannot be written or encoded), 2 insufficient data for a requested fit, 3
an engine bug (a proved stabilization check failed, or any other
``ValueError`` escaped the engine) or a computation too large for memory,
recursion depth or index sizes.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from . import harness
from .errors import InconsistencyError, InsufficientDataError, ParseError
from .filtration import sample_series, symbolic_power
from .hilbert import dim_and_mult, numerator_of_quotient
from .parsing import format_ideal, format_ideal_file, load_corpus, load_ideal_file
from .quasipoly import fit


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def default_corpus_path() -> str:
    """The path, as a ``str``, of the corpus shipped inside the package."""
    return os.path.join(os.path.dirname(__file__), "data", "corpus.json")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="satpow",
        description="Exact saturation-power engine for monomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="ideal file (ring/I/J format)")
        return p

    add_file_command("show", "parse an ideal file and print its canonical form")

    p = add_file_command("power", "n-th ordinary power of an ideal")
    p.add_argument("-n", type=_at_least(0), required=True, help="exponent (n >= 0)")
    p.add_argument("--ideal", choices=["I", "J"], default="I")

    add_file_command("colon", "the colon ideal (I : J)")
    add_file_command("saturate", "the saturation (I : J^inf)")

    p = add_file_command("hilbert", "dimension, multiplicity, and numerator of A/ideal")
    p.add_argument("--ideal", choices=["I", "J"], default="I")

    p = add_file_command("symbolic", "the saturation power (I^n : J^inf)")
    p.add_argument("-n", type=_at_least(0), required=True, help="exponent (n >= 0)")

    p = add_file_command("series", "per-n table of f(n) and quotient dimensions")
    p.add_argument("--nmax", type=_at_least(1), default=12)
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--out", help="write output to this path instead of stdout")

    p = add_file_command("fit", "series plus its fitted quasi-polynomial")
    p.add_argument("--nmax", type=_at_least(1), default=12)
    p.add_argument("--min-tail", type=_at_least(2), default=3)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("verify", help="run the theorem checklist over a corpus")
    p.add_argument(
        "corpus",
        nargs="?",
        default=None,
        help="corpus JSON file (defaults to the shipped corpus)",
    )
    p.add_argument("--nmax", type=_at_least(1), default=12)
    p.add_argument("--min-tail", type=_at_least(2), default=3)
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as file:
            file.write(text)
    else:
        sys.stdout.write(text)


def _dispatch(args: argparse.Namespace) -> tuple[str, int]:
    """The whole report of the command in ``args``, and its exit code."""
    if args.command == "verify":
        corpus_path = args.corpus if args.corpus else default_corpus_path()
        entries = load_corpus(corpus_path)
        records = harness.run_verify(entries, nmax=args.nmax, min_tail=args.min_tail)
        render = {
            "table": harness.render_verify_table,
            "csv": harness.render_verify_csv,
            "json": harness.render_verify_json,
        }[args.format]
        return render(records), harness.exit_code_for(records)

    pair = load_ideal_file(args.file)
    ideal = pair.saturator if getattr(args, "ideal", "I") == "J" else pair.base

    if args.command == "show":
        return format_ideal_file(pair), 0
    if args.command == "hilbert":
        numerator = numerator_of_quotient(ideal)
        module_dim, e0 = dim_and_mult(numerator, ideal.ring.var_count)
        dim_text = "empty" if module_dim is None else str(module_dim)
        dense = [0] * (numerator.degrees[-1] + 1 if numerator.degrees else 0)
        for t, c in zip(numerator.degrees, numerator.coeffs):
            dense[t] = c
        return f"dim = {dim_text}\ne0 = {e0}\nnumerator coefficients (z^0 first): {dense}\n", 0
    if args.command == "series":
        samples = sample_series(pair.base, pair.saturator, args.nmax)
        render = {
            "table": harness.render_series_table,
            "csv": harness.render_series_csv,
            "json": harness.render_series_json,
        }[args.format]
        return render(samples), 0
    if args.command == "fit":
        samples = sample_series(pair.base, pair.saturator, args.nmax)
        qp = fit([(s.n, s.f) for s in samples], min_tail=args.min_tail)
        if args.format == "json":
            return harness.render_quasipolynomial_json(qp), 0
        return harness.render_series_table(samples) + "\n" + harness.render_quasipolynomial(qp), 0

    if args.command == "power":
        result = ideal.power(args.n)
    elif args.command == "colon":
        result = pair.base.colon_ideal(pair.saturator)
    elif args.command == "saturate":
        result = pair.base.saturate_ideal(pair.saturator)
    else:  # symbolic; argparse rejects any other command
        result = symbolic_power(pair.base, pair.saturator, args.n)
    return format_ideal(result) + "\n", 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text, code = _dispatch(args)
        _emit(text, getattr(args, "out", None))
        return code
    except (_UsageError, ParseError, UnicodeError, OSError) as exc:  # UnicodeError: input or output text
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"internal error (engine bug): {exc}", file=sys.stderr)
        return 3
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"internal inconsistency (engine bug): {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory: the input is too large to compute", file=sys.stderr)
        return 3
    except OverflowError:
        print("error: size overflow: the input is too large to compute", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: recursion depth exceeded: the input is too deep to compute", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
