"""Corpus runner and the theorem-verification report.

For each corpus entry the report records the two theorem hypotheses
(equigenerated, height >= 2), the observed tail behaviour (stabilized
dimension, fitted period/degree, leading coefficients, grade), and a
verdict.  The stabilization facts checked are: the leading coefficient
a_c is a positive constant for every pair (no hypotheses), and a_{c-1}
is constant whenever both hypotheses hold.  A failure of either check on
exactly-fitted data indicates an engine bug, never a counterexample, and is
reported with the dedicated 'engine-inconsistent' verdict.

Entries are processed independently and the report preserves input order;
identical inputs produce byte-identical output.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InsufficientDataError
from .filtration import SeriesSample, dim_stabilization, sample_series
from .parsing import CorpusEntry, IdealPair
from .quasipoly import QuasiPolynomial, coeff_is_constant, fit, grade
from .theory import height

VERDICT_CONSISTENT = "consistent-with-theorem"
VERDICT_HYPOTHESIS = "hypothesis-not-met"
VERDICT_INSUFFICIENT = "insufficient-data"
VERDICT_INCONSISTENT = "engine-inconsistent"

CSV_COLUMNS = [
    "name",
    "equigenerated",
    "height",
    "dim_tail",
    "g",
    "c",
    "a_c",
    "a_c_const",
    "a_c1_const",
    "grade",
    "verdict",
]

SERIES_COLUMNS = ["n", "f", "dim", "symbolic_gens"]


@dataclass(frozen=True)
class VerifyRecord:
    """Per-entry report row; observation fields are None when the fit failed."""

    name: str
    equigenerated: bool
    height: int
    height_ok: bool
    dim_tail: Optional[int]          # None = empty module tail
    dim_onset: Optional[int]
    period: Optional[int]
    degree: Optional[int]            # None = zero function (when fitted)
    a_c: Optional[Fraction]
    a_c_const: Optional[bool]
    a_c_positive: Optional[bool]
    a_c1_const: Optional[bool]
    qp_grade: Optional[int]
    fitted: bool
    verdict: str


def run_series(pair: IdealPair, nmax: int) -> list[SeriesSample]:
    """The (n, f, dim) series for n = 1..nmax."""
    return sample_series(pair.base, pair.saturator, nmax)


def run_fit(
    pair: IdealPair, nmax: int, g_max: int = 6, min_tail: int = 3
) -> tuple[list[SeriesSample], QuasiPolynomial]:
    """Series plus its fitted quasi-polynomial."""
    samples = run_series(pair, nmax)
    qp = fit([(s.n, s.f) for s in samples], g_max=g_max, min_tail=min_tail)
    return samples, qp


def _verify_one(
    entry: CorpusEntry, nmax: int, g_max: int, min_tail: int
) -> VerifyRecord:
    base = entry.pair.base
    equi = base.is_equigenerated()
    h = height(base)
    height_ok = h >= 2
    hypotheses = equi and height_ok

    samples = run_series(entry.pair, nmax)
    try:
        dim_tail, dim_onset = dim_stabilization(samples)
        qp = fit([(s.n, s.f) for s in samples], g_max=g_max, min_tail=min_tail)
    except InsufficientDataError:
        return VerifyRecord(
            name=entry.name,
            equigenerated=equi,
            height=h,
            height_ok=height_ok,
            dim_tail=None,
            dim_onset=None,
            period=None,
            degree=None,
            a_c=None,
            a_c_const=None,
            a_c_positive=None,
            a_c1_const=None,
            qp_grade=None,
            fitted=False,
            verdict=VERDICT_INSUFFICIENT,
        )

    if qp.degree is None:
        a_c = None
        a_c_const = True
        a_c_positive = True
        a_c1_const = True
    else:
        c = qp.degree
        a_c_const = coeff_is_constant(qp, c)
        a_c = qp.coeffs[c][0] if a_c_const else None
        a_c_positive = all(v > 0 for v in qp.coeffs[c])
        a_c1_const = coeff_is_constant(qp, c - 1) if c >= 1 else True

    stabilization_ok = a_c_const and a_c_positive
    main_theorem_ok = a_c1_const if hypotheses else True
    if not (stabilization_ok and main_theorem_ok):
        verdict = VERDICT_INCONSISTENT
    elif not hypotheses:
        verdict = VERDICT_HYPOTHESIS
    else:
        verdict = VERDICT_CONSISTENT

    return VerifyRecord(
        name=entry.name,
        equigenerated=equi,
        height=h,
        height_ok=height_ok,
        dim_tail=dim_tail,
        dim_onset=dim_onset,
        period=qp.period,
        degree=qp.degree,
        a_c=a_c,
        a_c_const=a_c_const,
        a_c_positive=a_c_positive,
        a_c1_const=a_c1_const,
        qp_grade=grade(qp),
        fitted=True,
        verdict=verdict,
    )


def run_verify(
    entries: Sequence[CorpusEntry],
    nmax: int = 12,
    g_max: int = 6,
    min_tail: int = 3,
) -> list[VerifyRecord]:
    """One record per corpus entry, in input order; no entry is skipped."""
    return [_verify_one(e, nmax, g_max, min_tail) for e in entries]


def exit_code_for(records: Sequence[VerifyRecord]) -> int:
    """0 ok; 2 if any entry lacked data; 3 if any proved theorem failed."""
    if any(r.verdict == VERDICT_INCONSISTENT for r in records):
        return 3
    if any(r.verdict == VERDICT_INSUFFICIENT for r in records):
        return 2
    return 0


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _cell(value: object) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _record_cells(r: VerifyRecord) -> dict[str, str]:
    if not r.fitted:
        g = c = a_c = a_c_const = a_c1_const = qp_grade = None
        dim_tail = None
    else:
        g = r.period
        c = "zero-function" if r.degree is None else r.degree
        a_c = r.a_c
        a_c_const = r.a_c_const
        a_c1_const = r.a_c1_const
        qp_grade = r.qp_grade
        dim_tail = "empty" if r.dim_tail is None else r.dim_tail
    return {
        "name": r.name,
        "equigenerated": _cell(r.equigenerated),
        "height": _cell(r.height),
        "dim_tail": _cell(dim_tail),
        "g": _cell(g),
        "c": _cell(c),
        "a_c": _cell(a_c),
        "a_c_const": _cell(a_c_const),
        "a_c1_const": _cell(a_c1_const),
        "grade": _cell(qp_grade),
        "verdict": r.verdict,
    }


def _render_table(columns: Sequence[str], rows: Sequence[dict[str, str]]) -> str:
    """Left-aligned columns two spaces apart, under a header and a rule."""
    table = [[row[col] for col in columns] for row in rows]
    # the header alone sets the widths when there are no rows
    widths = [
        max([len(col)] + [len(cells[i]) for cells in table]) for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for cells in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(columns: Sequence[str], rows: Sequence[dict[str, str]]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _render_json(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render_verify_csv(records: Sequence[VerifyRecord]) -> str:
    return _render_csv(CSV_COLUMNS, [_record_cells(r) for r in records])


def render_verify_json(records: Sequence[VerifyRecord]) -> str:
    return _render_json([_record_cells(r) for r in records])


def render_verify_table(records: Sequence[VerifyRecord]) -> str:
    return _render_table(CSV_COLUMNS, [_record_cells(r) for r in records])


def render_series_rows(samples: Sequence[SeriesSample]) -> list[dict[str, str]]:
    return [
        {
            "n": str(s.n),
            "f": str(s.f),
            "dim": "empty" if s.module_dim is None else str(s.module_dim),
            "symbolic_gens": str(len(s.symbolic_ideal)),
        }
        for s in samples
    ]


def render_series_table(samples: Sequence[SeriesSample]) -> str:
    return _render_table(SERIES_COLUMNS, render_series_rows(samples))


def render_series_csv(samples: Sequence[SeriesSample]) -> str:
    return _render_csv(SERIES_COLUMNS, render_series_rows(samples))


def render_series_json(samples: Sequence[SeriesSample]) -> str:
    return _render_json(render_series_rows(samples))


def render_quasipolynomial(qp: QuasiPolynomial) -> str:
    """Human-readable fit summary."""
    if qp.degree is None:
        return f"zero function (period 1, onset n = {qp.onset})\n"
    lines = [
        f"period g = {qp.period}, degree c = {qp.degree}, onset n = {qp.onset}, "
        f"grade = {grade(qp)}"
    ]
    for i in range(qp.degree, -1, -1):
        row = qp.coeffs[i]
        if coeff_is_constant(qp, i):
            lines.append(f"  a_{i} = {row[0]}")
        else:
            by_residue = ", ".join(f"r={r}: {v}" for r, v in enumerate(row))
            lines.append(f"  a_{i}(r mod {qp.period}) = [{by_residue}]")
    return "\n".join(lines) + "\n"


def render_quasipolynomial_json(qp: QuasiPolynomial) -> str:
    payload = {
        "period": qp.period,
        "degree": "zero-function" if qp.degree is None else qp.degree,
        "onset": qp.onset,
        "grade": grade(qp),
        "coeffs": [[str(v) for v in row] for row in qp.coeffs],
    }
    return _render_json(payload)


