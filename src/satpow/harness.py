"""Corpus runner and the theorem-verification report.

For each corpus entry the report records the two theorem hypotheses
(equigenerated, height >= 2), the observed tail behaviour (stabilized
dimension, fitted period/degree, leading coefficients, grade), and a
verdict.  The stabilization facts checked are: the leading coefficient
a_c is a positive constant for every pair (no hypotheses), and a_{c-1}
is constant whenever both hypotheses hold.  The fit must also reproduce
every sample from its onset on.  A failure of any of these checks on
exactly-fitted data indicates an engine bug, never a counterexample, and is
reported with the dedicated 'engine-inconsistent' verdict.

Entries are processed independently and the report preserves input order;
identical inputs produce byte-identical output.  ``csv`` is imported in
``_render_csv`` and ``json`` in ``_render_json``, so only the reports in
those formats load them.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .errors import InsufficientDataError
from .filtration import SeriesSample, dim_stabilization, sample_series
from .hilbert import height
from .parsing import CorpusEntry
from .quasipoly import QuasiPolynomial, coeff_is_constant, evaluate, fit, grade

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


class VerifyRecord(
    namedtuple(
        "VerifyRecord",
        "name equigenerated height verdict"
        " dim_tail dim_onset period degree a_c a_c_const a_c_positive a_c1_const qp_grade",
        defaults=(None,) * 9,
    )
):
    """Per-entry report row; observation fields are None when the fit failed.

    Built by keyword only.  A record is fitted exactly when ``period`` is not
    None; the height hypothesis is ``height >= 2``.  ``dim_tail`` None is the
    empty module tail, and ``degree`` None, when fitted, the zero function.
    """

    __slots__ = ()

    def __new__(cls, **fields: object) -> VerifyRecord:
        return super().__new__(cls, **fields)

    def __getnewargs_ex__(self) -> tuple[tuple, dict[str, object]]:  # for copy and pickle
        return (), self._asdict()


def _verify_one(entry: CorpusEntry, nmax: int, min_tail: int) -> VerifyRecord:
    base = entry.pair.base
    equi = base.is_equigenerated()
    h = height(base)
    hypotheses = equi and h >= 2

    samples = sample_series(base, entry.pair.saturator, nmax)
    try:
        dim_tail, dim_onset = dim_stabilization(samples)
        qp = fit([(s.n, s.f) for s in samples], min_tail=min_tail)
    except InsufficientDataError:
        return VerifyRecord(
            name=entry.name,
            equigenerated=equi,
            height=h,
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
    fits_samples = all(evaluate(qp, s.n) == s.f for s in samples if s.n >= qp.onset)
    if not (stabilization_ok and main_theorem_ok and fits_samples):
        verdict = VERDICT_INCONSISTENT
    elif not hypotheses:
        verdict = VERDICT_HYPOTHESIS
    else:
        verdict = VERDICT_CONSISTENT

    return VerifyRecord(
        name=entry.name,
        equigenerated=equi,
        height=h,
        dim_tail=dim_tail,
        dim_onset=dim_onset,
        period=qp.period,
        degree=qp.degree,
        a_c=a_c,
        a_c_const=a_c_const,
        a_c_positive=a_c_positive,
        a_c1_const=a_c1_const,
        qp_grade=grade(qp),
        verdict=verdict,
    )


def run_verify(
    entries: Sequence[CorpusEntry],
    nmax: int = 12,
    *,
    min_tail: int = 3,
) -> list[VerifyRecord]:
    """One record per corpus entry, in input order; no entry is skipped.

    Each fit tries the periods 1 .. nmax // (min_tail + 1) that the window holds.
    """
    return [_verify_one(e, nmax, min_tail) for e in entries]


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
    return {
        "name": r.name,
        "equigenerated": _cell(r.equigenerated),
        "height": _cell(r.height),
        "dim_tail": _cell("empty" if r.period is not None and r.dim_tail is None else r.dim_tail),
        "g": _cell(r.period),
        "c": _cell("zero-function" if r.period is not None and r.degree is None else r.degree),
        "a_c": _cell(r.a_c),
        "a_c_const": _cell(r.a_c_const),
        "a_c1_const": _cell(r.a_c1_const),
        "grade": _cell(r.qp_grade),
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
    import csv
    import io

    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _render_json(payload: object) -> str:
    import json

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
            "symbolic_gens": str(s.symbolic_gens),
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


