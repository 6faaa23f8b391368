"""Exact Hilbert-series numerators and multiplicity extraction.

For a monomial ideal I in d variables the Hilbert series of A/I is written
over the full ambient denominator, H(z) = K(z)/(1-z)^d with K an integer
polynomial.  A variable that no generator uses multiplies H by 1/(1-z),
which the denominator already holds, so K depends on the generators alone.
K is held as sparse terms, a map from degree to nonzero coefficient inside
the recursion and a ``Numerator`` of sorted degrees and their coefficients
outside it, so its size follows its number of terms and not its degree:
x^(10^12) has the two terms 1 and -z^(10^12).  Writing K = (1-z)^s h with
h(1) != 0, the module has dimension d - s and multiplicity e0 = h(1)
(Bruns and Herzog, Cohen-Macaulay Rings, 4.1), and ``dim_and_mult`` reads
both from the binomial moments of the terms, with no division by (1-z).
Only the CLI's ``hilbert`` report expands K to a dense list, to print it.

Every numerator is that of a quotient outer/inner, K(inner) - K(outer),
with the inner ideal inside the outer one.  A lone ideal I gives the
quotient (1)/I = A/I, and K((1)) = 0, so K(I) is its difference against
the unit ideal, whose one generator packs to 0 in every packing and
divides every monomial.  ``_quotient`` gives 0 for equal ideals, and
otherwise takes one of two ways:

* a pair whose generators use at most three variables, w, x and y, takes
  a sweep over the levels of w.  The monomials of w-degree c outside I are
  w^c times those of k[x, y] outside I_c, the ideal of the (x, y) parts of
  the generators with w exponent at most c.  So H is the sum over c of
  z^c K_c(z)/(1-z)^2, with K_c the numerator of k[x, y]/I_c, and as K_c
  changes only where c is the w exponent of a generator, the sum
  telescopes to K = 1 + sum over the generators g, taken by increasing w,
  of z^(w_g) times the change in K_c when g's (x, y) part joins I_c.  The
  minimal generators of I_c sorted by x form a staircase p_1 .. p_s with
  K_c = 1 - sum z^(deg p_i) + sum z^(deg lcm(p_i, p_i+1)), the alternating
  sum of its minimal free resolution, and lcm(p_i, p_i+1) has the x of
  p_i+1 and the y of p_i.  So a generator's change is local: the points its
  part divides leave (``core._stair_insert`` returns them), their terms and
  the corners between them and their neighbours go, and the new point and
  its two corners come in.  Each point enters and leaves the staircase at
  most once, so the sweep is a sort and r bisections with no recursion.
  The points of both ideals are merged, each side keeps its own
  staircase, and the outer side's terms are subtracted, so the two 1s
  cancel and one pass gives K(inner) - K(outer); against the unit ideal,
  the subtracted term -z^0 of its one point is the 1 of K(I).  Each inner
  point is tested with one bisection of the outer staircase on the way;
* any other pair walks the levels of the first active variable w of both
  ideals at once, with I_c the ideal of the generators with w exponent at
  most c, w zeroed, and the packed w^c that ``at`` gains below it, from
  ``Packing.levels``: K(inner) - K(outer) is the sum over the levels c
  where either side changes of z^c (D_c - D_b), D_c the difference at
  level c and D_b at the level before, or 0 before the first, each taken
  by ``_quotient`` in one active variable fewer.  So the recursion is at
  most max(1, a - 2) calls deep for a active variables.
  The inner ideal lies in the outer one iff each of its levels lies in the
  outer level, so the sweeps at the bottom of the walk check containment,
  and a level where both sides are equal computes nothing below it.

The recursion runs on generators packed by ``core.Packing``, in the
packing they come in: ``packed_quotient_data`` takes the two packed lists
of a quotient as the series of ``filtration`` holds them, and
``numerator_of_quotient`` and ``quotient_module_data`` pack their ideals
once per call.  One field width serves the whole recursion, because a
level only zeroes exponents.  The results of the walks of one call are
memoized for that call, keyed by the pair of canonical tuples of packed
generators, as distinct levels of w can meet the same pair of levels of
the next variable, and the 30-cycle's walk would take such pairs
exponentially often without it.  A memo hit holds only for a pair whose
containment was checked; ``_add`` writes only into a map its caller owns,
so a memo map never changes and a hit is safe to share.

The minimal primes of a monomial ideal I are generated by variables, the
inclusion-minimal sets that meet every generator's support, and ``height``
is the least size of one.  A polynomial ring is Cohen-Macaulay, so
ht I + dim A/I = d (Bruns and Herzog, Cohen-Macaulay Rings, 2.1.4), and
dim A/I = dim A/sqrt(I): the height is d - dim (1)/sqrt(I), one quotient.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter, namedtuple
from collections.abc import Iterable
from math import comb

from .core import MonomialIdeal, Packing, _stair_insert
from .errors import InconsistencyError

# A numerator inside the recursion: degree -> nonzero coefficient.  A map is
# never changed once built, as the memo hands the same map to every caller.
Terms = dict[int, int]


Numerator = namedtuple("Numerator", "degrees coeffs")
Numerator.__doc__ = """A Hilbert numerator K as sparse terms: increasing degrees and their nonzero coefficients.

The zero numerator, of the empty module, has no terms.
"""


HilbertData = namedtuple("HilbertData", "module_dim e0")
HilbertData.__doc__ = """Dimension and multiplicity of a graded quotient module.

``module_dim`` is None for the empty module, whose e0 is 0.
"""


def _add(out: Terms, b: Terms, k: int, sign: int) -> Terms:
    """Add sign * z^k * b into ``out``, a map the caller owns, and return it; ``b`` never changes."""
    for t, c in b.items():
        t += k
        c = out.pop(t, 0) + sign * c
        if c:
            out[t] = c
    return out


def _record(terms: Terms) -> Numerator:
    degrees = sorted(terms)
    return Numerator(tuple(degrees), tuple(map(terms.__getitem__, degrees)))


# ---------------------------------------------------------------------------
# Numerator recursion
# ---------------------------------------------------------------------------

def _sweep(pk: Packing, fields: tuple[int, int, int], inner: tuple[int, ...], outer: tuple[int, ...], at: int) -> Terms:
    """K of the ideal of ``inner`` less K of the ideal of ``outer``, by the level sweep.

    The generators use only the three ``fields`` (w, x, y) of
    ``Packing.sweep_fields``.  Their points go by increasing (w, x, y), an
    outer point before an equal inner one, each into its own side's
    staircase by ``core._stair_insert``, which skips a point that a
    staircase point divides, so any generating sets give the K of their
    ideals.  Inner points add their terms and outer points subtract theirs,
    in one pair of lists.  Every outer point that could divide an inner one
    comes before it, so one bisection of the outer staircase, before the
    inner point goes in, finds whether it lies in the outer ideal;
    ValueError names it if not, times ``at``, the packed monomial of the
    levels it was taken at by ``_quotient``.
    """
    sw, sx, sy = fields
    value = pk.value
    up: list[int] = []  # the degrees of the terms +z^t and -z^t; the two sides' 1s cancel
    down: list[int] = []
    outer_xs: list[int] = []
    outer_ys: list[int] = []
    sides = (outer_xs, outer_ys, down.append, up.append), ([], [], up.append, down.append)
    points = sorted(
        (g >> sw & value, g >> sx & value, g >> sy & value, side)
        for side, gens in enumerate((outer, inner)) for g in gens
    )
    for w, x, y, side in points:
        xs, ys, plus, minus = sides[side]
        if side and (not (hi := bisect_right(outer_xs, x)) or outer_ys[hi - 1] > y):
            g = at + (w << sw | x << sx | y << sy)  # every other field is 0 or in at
            raise ValueError(
                f"containment violated: generator with exponents {pk.unpack(g)} "
                "of the inner ideal is not in the outer ideal"
            )
        step = _stair_insert(xs, ys, x, y)
        if step is None:
            continue  # a staircase point divides (x, y)
        lo, gone_x, gone_y = step
        right = lo + 1 < len(xs)
        last = ys[lo - 1] if lo else None  # old chain: left neighbour, the points gone, right one
        for gx, gy in zip(gone_x, gone_y):
            plus(w + gx + gy)
            if last is not None:
                minus(w + gx + last)
            last = gy
        if right and last is not None:
            minus(w + xs[lo + 1] + last)
        minus(w + x + y)  # the new point and its corners come in
        if lo:
            plus(w + x + ys[lo - 1])
        if right:
            plus(w + xs[lo + 1] + y)
    count = Counter(up)
    count.subtract(Counter(down))  # counted first, so the loop runs once per degree
    return {t: c for t, c in count.items() if c}


def _quotient(
    pk: Packing, inner: tuple[int, ...], outer: tuple[int, ...], memo: dict[tuple[tuple[int, ...], ...], Terms],
    at: int = 0,
) -> Terms:
    """K(inner) - K(outer); ValueError names ``at`` times an inner generator outside the outer ideal.

    ``memo`` maps the pair of each walk of the call to its result.
    """
    if inner == outer:
        return {}
    if (fields := pk.sweep_fields(inner, outer)) is not None:
        return _sweep(pk, fields, inner, outer, at)
    key = inner, outer
    hit = memo.get(key)
    if hit is not None:
        return hit
    result: Terms = {}  # sum of z^c (D_c - D_b); the two 1s cancel
    before: Terms = {}
    for c, w_c, (inner_c, outer_c) in pk.levels([inner, outer]):
        now = _quotient(pk, inner_c, outer_c, memo, at + w_c)
        _add(_add(result, now, c, 1), before, c, -1)
        before = now
    memo[key] = result
    return result


def numerator_of_quotient(ideal: MonomialIdeal) -> Numerator:
    """Numerator K with H_{A/I}(z) = K(z)/(1-z)^d over the ambient d.

    K of the quotient (1)/I, the unit ideal packing to 0.  The generators
    are packed once, with one width for the whole recursion; the walks are
    memoized for the duration of this call only.
    """
    pk, gens = Packing.of(ideal)
    return _record(_quotient(pk, gens, (0,), {}))


def dim_and_mult(numerator: Numerator, ambient_d: int) -> HilbertData:
    """Factor K = (1-z)^s * h with h(1) != 0; return HilbertData(ambient_d - s, h(1)).

    The j-th binomial moment of K, the sum of c_t C(t, j) over its terms
    c_t z^t, is its j-th derivative at z = 1 over j!.  So s is the first j
    with a nonzero moment, and that moment is (-1)^s h(1).  The zero
    numerator denotes the empty module: HilbertData(None, 0).  An s above
    ambient_d, or a nonpositive h(1), cannot arise from a genuine module and
    raises InconsistencyError.
    """
    if not numerator.degrees:
        return HilbertData(None, 0)
    terms = list(zip(numerator.degrees, numerator.coeffs))
    for s in range(ambient_d + 1):
        moment = sum(c * comb(t, s) for t, c in terms)
        if moment:
            e0 = -moment if s & 1 else moment
            if e0 <= 0:
                raise InconsistencyError(f"nonzero module computed multiplicity {e0} <= 0")
            return HilbertData(ambient_d - s, e0)
    raise InconsistencyError(f"numerator vanishes at z=1 to an order above the ambient {ambient_d}")


def quotient_module_data(inner: MonomialIdeal, outer: MonomialIdeal) -> HilbertData:
    """Hilbert data of the quotient module outer/inner (inner must sit inside outer)."""
    return packed_quotient_data(*Packing.of(inner, outer))


def packed_quotient_data(pk: Packing, inner: Iterable[int], outer: Iterable[int]) -> HilbertData:
    """Hilbert data of outer/inner, for the canonical generators of both packed by ``pk``.

    Every generator of the inner ideal must lie in the outer one, else
    ValueError names one that does not and is a multiple of no other such.
    The numerator is that of the inner ideal less that of the outer one,
    from one ``_quotient``, which checks the generators on the way; equal
    ideals give the zero numerator, of the empty module.
    """
    k = _quotient(pk, tuple(inner), tuple(outer), {})
    return dim_and_mult(_record(k), len(pk.shifts))


def height(ideal: MonomialIdeal) -> int:
    """Minimum cardinality over the minimal primes (the codimension): d - dim (1)/sqrt(I).

    sqrt(I) is generated by the squarefree x_S that ``Packing.supports`` packs.
    """
    if ideal.is_zero():
        raise ValueError("the zero ideal has no variable-generated minimal primes")
    if ideal.is_unit():
        raise ValueError("the unit ideal has no minimal primes")
    pk = Packing(ideal.ring.var_count, 1)
    return len(pk.shifts) - packed_quotient_data(pk, pk.supports(ideal.gens), (0,)).module_dim
