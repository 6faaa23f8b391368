"""Detect and fit quasi-polynomials on eventually-quasi-polynomial sequences.

A quasi-polynomial of period g and degree c is f(n) = sum_i a_i(n) n^i with
each coefficient a_i periodic of period g and a_c not identically zero.  The
fitter works residue class by residue class with exact finite differences:
inside one class the sequence has stride g, so vanishing differences of
order k pin a polynomial of degree k-1 and every further vanishing entry is
a verification point.  No floating point anywhere; fits interpolate sample
tails exactly or fail loudly.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .errors import InsufficientDataError

ExactNumber = int | Fraction


class QuasiPolynomial(namedtuple("QuasiPolynomial", "period degree coeffs onset")):
    """Fitted quasi-polynomial: period, degree, per-residue coefficient table.

    ``coeffs[i][r]`` is the coefficient of n^i on the residue class
    n = r (mod period).  ``degree`` is None for the identically-zero tail
    (the paper-style convention a_c != 0 leaves the zero function without a
    well-defined degree), in which case the table is empty.  ``onset`` is the
    first sampled n from which evaluation reproduces the samples exactly.
    """

    __slots__ = ()


def evaluate(qp: QuasiPolynomial, n: int) -> Fraction:
    """Exact value sum_i a_i(n mod g) * n^i."""
    if n < 0:
        raise ValueError(f"evaluate wants n >= 0, got {n}")
    if qp.degree is None:
        return Fraction(0)
    r = n % qp.period
    total = Fraction(0)
    for i, row in enumerate(qp.coeffs):
        total += row[r] * n**i
    return total


def coeff_is_constant(qp: QuasiPolynomial, i: int) -> bool:
    """True iff a_i(r) is the same for every residue r."""
    if qp.degree is None:
        return True
    if not 0 <= i <= qp.degree:
        raise ValueError(f"coefficient index {i} outside 0..{qp.degree}")
    return len(set(qp.coeffs[i])) == 1

def grade(qp: QuasiPolynomial) -> int:
    """Smallest delta >= -1 with a_j constant across residues for all j > delta."""
    if qp.degree is None:
        return -1
    delta = -1
    for i in range(qp.degree + 1):
        if not coeff_is_constant(qp, i):
            delta = i
    return delta


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _interpolate(xs: Sequence[int], ys: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients (low degree first) of the polynomial through the points."""
    dd = [Fraction(y) for y in ys]
    newton = [dd[0]]
    for level in range(1, len(xs)):
        dd = [
            (dd[i + 1] - dd[i]) / (xs[i + level] - xs[i])
            for i in range(len(dd) - 1)
        ]
        newton.append(dd[0])
    poly = [Fraction(0)]
    basis = [Fraction(1)]
    for i, c in enumerate(newton):
        if len(basis) > len(poly):
            poly.extend([Fraction(0)] * (len(basis) - len(poly)))
        for t, b in enumerate(basis):
            poly[t] += c * b
        nxt = [Fraction(0)] * (len(basis) + 1)
        for t, b in enumerate(basis):
            nxt[t] -= b * xs[i]
            nxt[t + 1] += b
        basis = nxt
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _fit_class(
    class_ns: Sequence[int], vals: Sequence[Fraction], min_tail: int
) -> tuple[list[Fraction], int] | None:
    """Polynomial fit of the longest suffix of one residue class.

    Scans difference orders k = 1, 2, ...; order k with a trailing run of z
    zero entries pins a degree-(k-1) polynomial on the last z + k points,
    verified by the z vanishing entries.  Requires z >= min_tail; prefers the
    longest matched suffix, then the lowest degree.  Returns (coefficients in
    n, onset n) or None.
    """
    m = len(vals)
    best: tuple[int, int] | None = None  # (suffix start j0, order k)
    diffs = list(vals)
    for k in range(1, m):
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        z = 0
        for entry in reversed(diffs):
            if entry != 0:
                break
            z += 1
        if z >= min_tail:
            j0 = m - k - z
            if best is None or j0 < best[0]:
                best = (j0, k)
    if best is None:
        return None
    j0, k = best
    poly = _interpolate(class_ns[j0 : j0 + k], vals[j0 : j0 + k])
    return poly, class_ns[j0]


def _try_period(
    ns: Sequence[int], vs: Sequence[Fraction], g: int, min_tail: int
) -> QuasiPolynomial | None:
    rows: list[tuple[list[Fraction], int]] = []
    for r in range(g):
        pts = [(n, v) for n, v in zip(ns, vs) if n % g == r]
        if len(pts) < min_tail + 1:
            return None
        fit_r = _fit_class([n for n, _ in pts], [v for _, v in pts], min_tail)
        if fit_r is None:
            return None
        rows.append(fit_r)
    onset = max(o for _, o in rows)
    # c < 0 (every class a zero tail) happens only at g = 1: it leaves at least
    # g * min_tail + 1 trailing zero samples, which fit g = 1 first
    c = max(len(poly) - 1 for poly, _ in rows)
    table = tuple(
        tuple(
            rows[r][0][i] if i < len(rows[r][0]) else Fraction(0) for r in range(g)
        )
        for i in range(c + 1)
    )
    return QuasiPolynomial(period=g, degree=c if c >= 0 else None, coeffs=table, onset=onset)


def fit(
    samples: Sequence[tuple[int, ExactNumber]],
    *,
    min_tail: int = 3,
) -> QuasiPolynomial:
    """Minimal-period quasi-polynomial exactly interpolating the sample tail.

    ``samples`` are (n, value) pairs at consecutive n with exact values (int
    or Fraction; floats are rejected).  Periods g = 1 .. len(samples) //
    (min_tail + 1) are tried in ascending order and the first that fits is
    the minimal one.  Every residue class must be verified by at least
    ``min_tail`` vanishing difference entries beyond the points that pin its
    polynomial; when no period manages that, InsufficientDataError asks the
    caller for a longer sample window rather than extrapolating.
    """
    if min_tail < 2:
        raise ValueError(f"min_tail must be >= 2, got {min_tail}")
    if not samples:
        raise InsufficientDataError("no samples to fit")
    ns = [n for n, _ in samples]
    for a, b in zip(ns, ns[1:]):
        if b != a + 1:
            raise ValueError("samples must be at consecutive n")
    vs: list[Fraction] = []
    for _, v in samples:
        if isinstance(v, float):
            raise TypeError("samples must be exact (int or Fraction), not float")
        vs.append(Fraction(v))

    # A period above len(vs) // (min_tail + 1) leaves some residue class with
    # fewer than min_tail + 1 samples, which _try_period rejects.  A fit whose
    # columns repeat with a proper divisor g2 of g is never reached: each class
    # mod g2 then lies on one polynomial from its latest onset on, so g2 fit first.
    for g in range(1, len(vs) // (min_tail + 1) + 1):
        attempt = _try_period(ns, vs, g, min_tail)
        if attempt is not None:
            return attempt
    raise InsufficientDataError(
        f"no quasi-polynomial fits the {len(vs)} samples with {min_tail} "
        "verification points per residue class; increase the sample window"
    )
