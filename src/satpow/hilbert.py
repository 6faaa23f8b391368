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
K is computed in one of four ways, tried in this order:

* an ideal with at most ``_LEAF_GENS`` generators takes the inclusion-
  exclusion sum over subsets S of its generators, the sum of
  (-1)^|S| z^(deg lcm S), which is the alternating sum of the Taylor
  resolution.  Its 2^r terms for r generators are two flat lists, the
  lcms of the subsets of even and of odd size, that each generator
  doubles with one ``Packing.lcms`` loop per list.
  It beats the other ways only while r is small: against a pivot split,
  leaves of 4, 5 and 6 generators measured alike, and 8 slower;
* an ideal whose generators use at most three variables, w, x and y, takes
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
  The same sweep takes a quotient outer/inner in at most three fields in
  one pass, with no memo: the points of both ideals are merged, each side
  keeps its own staircase, and the outer side's terms are subtracted, so
  it gives K(inner) - K(outer), and it tests each inner point with one
  bisection of the outer staircase on the way;
* an ideal in which no variable lies in two generator supports is a
  complete intersection, K = prod(1 - z^deg g), with r factors in place of
  2^r terms;
* any other ideal walks the levels of its first active variable w in the
  same way, with I_c the ideal of the generators with w exponent at most c,
  w zeroed, from ``Packing.levels``: K = 1 + sum over the levels c where
  I_c changes of z^c (K_c - K_b), K_b the numerator of the level before c,
  or 1 before the first.  Each K_c is the numerator of an ideal in one
  active variable fewer, taken by these same four ways, so the recursion is
  at most max(1, a - 2) calls deep for a active variables.  Pure powers
  would take a walk per variable but for the product above.

On the shipped corpus ``verify --nmax 30`` takes every quotient by the
two-sided sweep, and every other numerator it computes, those of the
radicals that ``theory.height`` reads, by the first way.

The recursion runs on generators packed by ``core.Packing``, in the
packing they come in: ``packed_quotient_data`` takes the two packed lists
of a quotient as the series of ``filtration`` holds them, and
``numerator_of_quotient`` and ``quotient_module_data`` pack their ideals
once per call.  One field width serves the whole recursion, because a
level only zeroes exponents.  Numerators of intermediate ideals are
memoized per call, the two of a quotient past three fields in one memo,
keyed by the canonical tuple of packed generators; ``_add`` writes only
into a map its caller owns, so a memo map never changes and a hit is safe
to share.  Such a quotient's containment is checked on the levels of its
outer ideal, down to the staircase test (``_missing``).  A quotient of
equal ideals is the empty module and computes no numerator.
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


class Numerator(namedtuple("Numerator", "degrees coeffs")):
    """A Hilbert numerator K as sparse terms: increasing degrees and their nonzero coefficients.

    The zero numerator, of the empty module, has no terms.
    """

    __slots__ = ()


class HilbertData(namedtuple("HilbertData", "module_dim e0")):
    """Dimension and multiplicity of a graded quotient module.

    ``module_dim`` is None for the empty module, whose e0 is 0.
    """

    __slots__ = ()


def _terms(up: Iterable[int], down: Iterable[int]) -> Terms:
    """The terms of the sum of z^t over ``up`` less the sum of z^t over ``down``."""
    count = Counter(up)
    count.subtract(Counter(down))  # counted first, so the loop runs once per degree
    return {t: c for t, c in count.items() if c}


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

# Ideals with at most this many generators get their numerator from the
# 2^r-term inclusion-exclusion sum instead of a sweep, a product or a walk.
_LEAF_GENS = 5


def _inclusion_exclusion(gens: tuple[int, ...], pk: Packing) -> Terms:
    """K = sum over subsets S of ``gens`` of (-1)^|S| z^(deg lcm S).

    The alternating sum of the Taylor resolution, exact for any generating
    set; the empty ideal gives 1 and the unit ideal 0.
    """
    even, odd = [0], []  # the lcms of the subsets of even and of odd size
    for g in gens:
        even, odd = even + pk.lcms(odd, g), odd + pk.lcms(even, g)
    top = pk.top
    return _terms([t >> top for t in even], [t >> top for t in odd])


def _sweep(pk: Packing, fields: tuple[int, int, int], inner: tuple[int, ...], outer: tuple[int, ...] | None = None) -> Terms:
    """K of the ideal of ``inner``, less K of the ideal of ``outer`` if given, by the level sweep.

    The generators use only the three ``fields`` (w, x, y) of
    ``Packing.sweep_fields``.  Their points go by increasing (w, x, y), an
    outer point before an equal inner one, each into its own side's
    staircase by ``core._stair_insert``, which skips a point that a
    staircase point divides, so any generating sets give the K of their
    ideals.  Inner points add their terms and outer points subtract theirs,
    in one pair of lists.  Every outer point that could divide an inner one
    comes before it, so one bisection of the outer staircase, before the
    inner point goes in, finds whether it lies in the outer ideal;
    ValueError names it if not.
    """
    sw, sx, sy = fields
    value = pk.value
    check = outer is not None
    up, down = [] if check else [0], []  # the degrees of the terms +z^t and -z^t; a difference's 1s cancel
    outer_xs: list[int] = []
    outer_ys: list[int] = []
    sides = (outer_xs, outer_ys, down.append, up.append), ([], [], up.append, down.append)
    points = sorted(
        (g >> sw & value, g >> sx & value, g >> sy & value, side)
        for side, gens in enumerate((outer or (), inner)) for g in gens
    )
    for w, x, y, side in points:
        xs, ys, plus, minus = sides[side]
        if side and check and (not (hi := bisect_right(outer_xs, x)) or outer_ys[hi - 1] > y):
            raise _outside(pk, w << sw | x << sx | y << sy)  # every other field is 0
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
    return _terms(up, down)


def _missing(pk: Packing, inner: Iterable[int], outer: tuple[int, ...]) -> int | None:
    """A generator of ``inner`` outside the ideal of ``outer``, a multiple of no other such, or None.

    A generator of ``outer`` lies in it.  Whether another does depends only
    on the fields ``outer`` uses.  In at most three, (w, x, y), outer
    points go into a staircase by increasing (w, x, y), and an inner point
    is tested with one bisection after every outer point that could divide
    it.  In more, an inner generator g with w = c, w the first field
    ``outer`` uses, lies in it iff g with w zeroed lies in the
    ``Packing.levels`` set of ``outer`` at the largest level at most c,
    tested by this same function in one field fewer.  Either way a divisor
    of g is tested before g.
    """
    held = set(outer)
    inner = [g for g in inner if g not in held]
    if not inner:
        return None
    if (fields := pk.sweep_fields(outer)) is not None:
        sw, sx, sy = fields
        value = pk.value
        xs: list[int] = []
        ys: list[int] = []
        points = sorted(
            (g >> sw & value, g >> sx & value, g >> sy & value, side, g)
            for side, gens in enumerate((outer, inner)) for g in gens
        )
        for _, x, y, side, g in points:
            if not side:
                _stair_insert(xs, ys, x, y)
            elif not (hi := bisect_right(xs, x)) or ys[hi - 1] > y:
                return g
        return None
    sw = pk._active_fields([outer])[0]
    value, lift = pk.value, 1 << sw | 1 << pk.top  # c * lift is w^c, degree included
    by_w: dict[int, list[int]] = {}
    for g in inner:
        c = g >> sw & value
        by_w.setdefault(c, []).append(g - c * lift)
    steps = pk.levels([outer])
    step = next(steps, None)
    level: tuple[int, ...] = ()  # the zero ideal, until the first level of outer
    for c in sorted(by_w):
        while step is not None and step[0] <= c:
            level = step[1][0]
            step = next(steps, None)
        if (g := _missing(pk, by_w[c], level)) is not None:
            return g + c * lift
    return None


def _outside(pk: Packing, g: int) -> ValueError:
    """The error for a generator ``g`` of a quotient's inner ideal outside its outer one."""
    return ValueError(
        f"containment violated: generator with exponents {pk.unpack(g)} "
        "of the inner ideal is not in the outer ideal"
    )


def _disjoint(gens: tuple[int, ...], pk: Packing) -> bool:
    """True iff no variable lies in the supports of two of the ``gens``.

    With V the value bits of every exponent field, g + V sets the guard bit
    of exactly the fields where g is positive, and carries out of none, so
    (g + V) & G, G the guard bits, is the support of g.
    """
    values, guard = pk.low & ~pk.guard, pk.guard
    seen = 0
    for g in gens:
        support = (g + values) & guard
        if support & seen:
            return False
        seen |= support
    return True


def _numerator(gens: tuple[int, ...], pk: Packing, memo: dict[tuple[int, ...], Terms]) -> Terms:
    hit = memo.get(gens)
    if hit is not None:
        return hit

    if len(gens) <= _LEAF_GENS:
        result = _inclusion_exclusion(gens, pk)
    elif (fields := pk.sweep_fields(gens)) is not None:
        result = _sweep(pk, fields, gens)
    elif _disjoint(gens, pk):
        result = {0: 1}  # a complete intersection, K = prod(1 - z^deg g)
        for g in gens:
            result = _add(dict(result), result, g >> pk.top, -1)
    else:
        result = {0: 1}  # K = 1 + sum of z^c (K_c - K_b)
        before: Terms = {0: 1}
        for c, (level,) in pk.levels([gens]):
            now = _numerator(level, pk, memo)
            _add(_add(result, now, c, 1), before, c, -1)
            before = now

    memo[gens] = result
    return result


def numerator_of_quotient(ideal: MonomialIdeal) -> Numerator:
    """Numerator K with H_{A/I}(z) = K(z)/(1-z)^d over the ambient d.

    The generators are packed once, with one width for the whole recursion;
    intermediate numerators are memoized for the duration of this call only.
    """
    pk, gens = Packing.of(ideal)
    return _record(_numerator(gens, pk, {}))


def dim_and_mult(numerator: Numerator, ambient_d: int) -> tuple[int | None, int]:
    """Factor K = (1-z)^s * h with h(1) != 0; return (ambient_d - s, h(1)).

    The j-th binomial moment of K, the sum of c_t C(t, j) over its terms
    c_t z^t, is its j-th derivative at z = 1 over j!.  So s is the first j
    with a nonzero moment, and that moment is (-1)^s h(1).  The zero
    numerator denotes the empty module: (None, 0).  An s above ambient_d,
    or a nonpositive h(1), cannot arise from a genuine module and raises
    InconsistencyError.
    """
    if not numerator.degrees:
        return (None, 0)
    terms = list(zip(numerator.degrees, numerator.coeffs))
    for s in range(ambient_d + 1):
        moment = sum(c * comb(t, s) for t, c in terms)
        if moment:
            e0 = -moment if s & 1 else moment
            if e0 <= 0:
                raise InconsistencyError(f"nonzero module computed multiplicity {e0} <= 0")
            return (ambient_d - s, e0)
    raise InconsistencyError(f"numerator vanishes at z=1 to an order above the ambient {ambient_d}")


def quotient_module_data(inner: MonomialIdeal, outer: MonomialIdeal) -> HilbertData:
    """Hilbert data of the quotient module outer/inner (inner must sit inside outer)."""
    return packed_quotient_data(*Packing.of(inner, outer))


def packed_quotient_data(pk: Packing, inner: Iterable[int], outer: Iterable[int]) -> HilbertData:
    """Hilbert data of outer/inner, for the canonical generators of both packed by ``pk``.

    Equal ideals give the empty module.  Otherwise every generator of the
    inner ideal must lie in the outer one, else ValueError names one that
    does not and is a multiple of no other such, and the numerator is that
    of the inner ideal less that of the outer one.  In at most three fields
    one two-sided ``_sweep`` does both; in more, ``_missing`` checks the
    generators and both numerators come from one memo.
    """
    inner, outer = tuple(inner), tuple(outer)
    if inner == outer:
        return HilbertData(module_dim=None, e0=0)
    if (fields := pk.sweep_fields(inner, outer)) is not None:
        k = _sweep(pk, fields, inner, outer)
    else:
        if (g := _missing(pk, inner, outer)) is not None:
            raise _outside(pk, g)
        memo: dict[tuple[int, ...], Terms] = {}
        k = _add(dict(_numerator(inner, pk, memo)), _numerator(outer, pk, memo), 0, -1)
    return HilbertData(*dim_and_mult(_record(k), len(pk.shifts)))
