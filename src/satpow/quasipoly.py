"""Detect and fit quasi-polynomials on eventually-quasi-polynomial sequences.

A quasi-polynomial of period g and degree c is f(n) = sum_i a_i(n) n^i with
each coefficient a_i periodic of period g and a_c not identically zero.  The
fitter works residue class by residue class with exact finite differences:
inside one class the sequence has stride g, so vanishing differences of
order k pin a polynomial of degree k-1 and every further vanishing entry is
a verification point.  The polynomial is read off the rows of that same
scan in Newton forward form.  Samples are differenced as given (an int
series stays int), and only the coefficients are Fractions.  No floating
point anywhere; fits interpolate sample tails exactly or fail loudly.

``Fraction`` is imported inside the functions that build one, so a command
that fits nothing never loads ``fractions`` (nor ``decimal`` and
``numbers``, which it imports); the annotations naming it are strings.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .errors import InsufficientDataError


QuasiPolynomial = namedtuple("QuasiPolynomial", "period degree coeffs onset")
QuasiPolynomial.__doc__ = """Fitted quasi-polynomial: period, degree, per-residue coefficient table.

``coeffs[i][r]`` is the coefficient of n^i on the residue class
n = r (mod period).  ``degree`` is None for the identically-zero tail
(the paper-style convention a_c != 0 leaves the zero function without a
well-defined degree), in which case the table is empty.  ``onset`` is the
first sampled n from which evaluation reproduces the samples exactly.
"""


def evaluate(qp: QuasiPolynomial, n: int) -> Fraction:
    """Exact value sum_i a_i(n mod g) * n^i."""
    from fractions import Fraction

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

def _fit_class(
    class_ns: Sequence[int], vals: Sequence[int | Fraction], min_tail: int
) -> tuple[list[Fraction], int] | None:
    """Polynomial fit of the longest suffix of one residue class.

    Scans difference orders k = 1, 2, ...; order k with a trailing run of z
    zero entries pins a degree-(k-1) polynomial on the last z + k points,
    verified by the z vanishing entries.  Requires z >= min_tail; prefers the
    longest matched suffix, then the lowest degree; a class of fewer than
    min_tail + 1 samples never fits.  The scan keeps its rows and the
    polynomial is read off them in Newton forward form: with stride g, the
    coefficient of order i at the suffix start j0 is Delta^i v[j0] / (i! g^i).
    The samples are differenced as given, so an int series stays int until
    that division.  Returns (coefficients in n, onset n) or None.
    """
    from fractions import Fraction

    m = len(vals)
    best: tuple[int, int] | None = None  # (suffix start j0, order k)
    rows = [list(vals)]
    for k in range(1, m):
        prev = rows[-1]
        diffs = [prev[i + 1] - prev[i] for i in range(len(prev) - 1)]
        rows.append(diffs)
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
    x0, g = class_ns[j0], class_ns[1] - class_ns[0]
    poly = [Fraction(0)] * k
    basis = [1]  # prod_{t < i} (n - x0 - g t), low degree first
    scale = 1  # i! g^i
    for i in range(k):
        c = Fraction(rows[i][j0], scale)
        for t, b in enumerate(basis):
            poly[t] += c * b
        basis = [a - (x0 + g * i) * b for a, b in zip([0] + basis, basis + [0])]
        scale *= (i + 1) * g
    while poly and poly[-1] == 0:
        poly.pop()
    return poly, x0


def _try_period(
    ns: Sequence[int], vs: Sequence[int | Fraction], g: int, min_tail: int
) -> QuasiPolynomial | None:
    from fractions import Fraction

    rows: list[tuple[list[Fraction], int]] = []
    for r in range(g):
        start = (r - ns[0]) % g
        fit_r = _fit_class(ns[start::g], vs[start::g], min_tail)
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
    samples: Sequence[tuple[int, int | Fraction]],
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
    from fractions import Fraction

    if min_tail < 2:
        raise ValueError(f"min_tail must be >= 2, got {min_tail}")
    if not samples:
        raise InsufficientDataError("no samples to fit")
    ns = [n for n, _ in samples]
    for a, b in zip(ns, ns[1:]):
        if b != a + 1:
            raise ValueError("samples must be at consecutive n")
    vs: list[int | Fraction] = []
    for _, v in samples:
        if isinstance(v, float):
            raise TypeError("samples must be exact (int or Fraction), not float")
        vs.append(v if isinstance(v, int) else Fraction(v))

    # A period above len(vs) // (min_tail + 1) leaves some residue class with
    # fewer than min_tail + 1 samples, which _fit_class never fits.  A fit
    # whose columns repeat with a proper divisor g2 of g is never reached: each
    # class mod g2 then lies on one polynomial from its latest onset on, so g2
    # fit first.
    for g in range(1, len(vs) // (min_tail + 1) + 1):
        attempt = _try_period(ns, vs, g, min_tail)
        if attempt is not None:
            return attempt
    raise InsufficientDataError(
        f"no quasi-polynomial fits the {len(vs)} samples with {min_tail} "
        "verification points per residue class; increase the sample window"
    )
