"""Exact arithmetic on monomials and monomial ideals.

Monomials are exponent vectors over a fixed ambient polynomial ring; no
coefficient field is ever materialized.  Ideals carry their canonical
minimal generating set (an antichain under divisibility, sorted in a fixed
total order), so ideal equality is generator-list equality.  A monomial is
an exponent tuple outside the kernels; ``gens`` returns the stored tuples.

Every kernel packs the exponent vectors it works on into Python ints (see
:class:`Packing`), with a field width taken from the largest exponent that
one call can produce, and unpacks only its result.  An operation on ideals
enters the kernel by ``Packing.of``, which checks that its operands share
one ring, sizes the packing and packs them all.  Monomials in at most
three fields (w, x, y) are a 2-variable staircase per level of w, grown by
``_stair_insert`` here and in ``hilbert``.  Other divisibility tests lay a
list of packed monomials side by side in one int (see :class:`Row`) and
test a monomial against the whole list in one expression; the antichain
filter adds the elements it keeps to its row one degree block at a time.
The lcms, and so the colons, of a list by one monomial are one loop with
no call per element.  A product is one ``Packing.product`` step, a sweep
in lex order if its sums span several degrees in at most three fields,
and a power a ladder of such steps, ``Packing.rungs``, in one packing wide
enough for its top rung.  An intersection, a colon and a saturation are one
``Packing.meet``, in one packing, of the operands, the colons (I : m) by
the generators m of J, or the colons (I : x_S^e) by the generators x_S of
J's radical, with e the largest exponent of I, both from
``Packing.colon_parts``, which drops the colons that add nothing to the
intersection.  In at most three fields a meet is a fold of level sweeps.
In more it is a fold of lcm pairs, minimalized once a step, unless its
parts hold ``_SPLIT_MEET_GENS`` generators or more: then it meets all the
parts at once on each level of its first active field, recursively, with
the level sets from ``Packing.levels``, which the Hilbert numerators past
three fields walk too.
``MonomialIdeal.packed_localizations`` hands those colons out still
packed, in a packing that also holds their n-th powers, so a whole series
of powers and saturations, and the Hilbert numerators of each, runs in the
one packing and unpacks only the ideals it returns.

Ideals are immutable after construction and safe to share across threads;
no operation mutates its inputs.  A ``Row`` or a staircase grows, and
lives within one kernel call.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from itertools import chain, groupby, repeat
from operator import itemgetter, or_

from .errors import RingMismatchError, ZeroIdealError

Exponents = tuple[int, ...]


class RingContext(namedtuple("RingContext", "var_names")):
    """Ambient polynomial ring: a count of variables and their names."""

    __slots__ = ()

    def __new__(cls, var_names: Iterable[str]) -> RingContext:
        names = tuple(var_names)
        if not names:
            raise ValueError("a ring needs at least one variable")
        for name in names:
            if not isinstance(name, str) or not name.isidentifier():
                raise ValueError(f"invalid variable name: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        return super().__new__(cls, names)

    @property
    def var_count(self) -> int:
        return len(self.var_names)


# ---------------------------------------------------------------------------
# The packed kernel
# ---------------------------------------------------------------------------

# Meets past three fields whose parts hold at least this many generators
# together split on the levels of a field (``Packing.meet``).  Measured in
# process on the meets alone, split against a fold that filters each step
# once, best of 3 rounds of 3 runs on a shared 2-vCPU VM: the 6-vertex edge
# graph of the benchmark at n = 4 (210 generators) 2.2 against 4.1 ms, at
# n = 6 (546) 14 against 65 ms, at n = 8 (1,155) 31 against 487 ms; the
# series of the 5-cycle to n = 12 0.10 against 0.37 s, of the 7-cycle to
# n = 6 0.09 against 0.46 s, of the 9-cycle to n = 6 1.9 against 19 s.  At
# 100 the 9-cycle to n = 5 took 0.96 against 0.56 s, and the 7-cycle to 6
# and the corpus at --nmax 30 lost too.  At 400 the 9-cycle gained (0.35 s),
# but the edge graph at n = 8 took 65 against 31 ms and the 5-cycle to 16
# 0.60 against 0.30 s, and at 800 the 5-cycle took 2.9 s.  The shipped
# corpus's largest such meet holds 84 generators at --nmax 20 and 124 at
# --nmax 30, so it keeps the fold.
_SPLIT_MEET_GENS = 200


def _max_exponent(exps: Iterable[Exponents]) -> int:
    return max(map(max, exps), default=0)


class Packing:
    """Exponent vectors in d variables packed into ints, for one computation.

    ``pack(e)`` lays out e_0 .. e_{d-1} in d fields of ``width`` bits, e_0
    highest, and the degree in one more field above them.  Each field is a
    guard bit over ``width - 1`` value bits, and the width is chosen so that
    d times ``max_exp`` fits the value bits.  So every exponent up to
    ``max_exp``, the degree, and any partial sum of fields stays below its
    guard bit, and with G the guard bits of all fields:

    * a divides b iff ``((b | G) - a) & G == G`` (no field borrows from the
      next, and b_i >= a_i iff field i keeps its guard bit); a :class:`Row`
      runs this test against a whole list at once, each element in a slot
      of ``slot`` bytes, room for all d + 1 fields and one spare bit;
    * the product of a and b is ``a + b``, degree included;
    * sorting by ``p ^ low`` gives the canonical order: degree first, then
      lex with the leading variable largest (x^2, x*y, y^2).

    ``max_exp`` must bound every exponent the computation produces.
    """

    __slots__ = ("width", "shifts", "top", "value", "low", "guard", "slot", "_exp_guard", "_ones", "_degree")

    def __init__(self, d: int, max_exp: int):
        w = (d * max_exp).bit_length() + 1
        self.width = w
        self.shifts = tuple(w * i for i in reversed(range(d)))
        self.top = w * d  # shift of the degree field
        self.value = (1 << (w - 1)) - 1
        self.low = (1 << self.top) - 1
        self._exp_guard = sum(1 << (s + w - 1) for s in self.shifts)
        self.guard = self._exp_guard | 1 << (self.top + w - 1)
        self.slot = (self.top + w) // 8 + 1  # bytes per element of a Row, with one spare bit
        # (p * _ones) & _degree is the sum of p's exponent fields, in the degree field
        self._ones = sum(1 << (w * i) for i in range(1, d + 1))
        self._degree = ((1 << w) - 1) << self.top

    @classmethod
    def of(cls, *ideals: "MonomialIdeal", max_exp: int = 0) -> tuple:
        """A packing for ``ideals``, then the generators of each packed, in canonical order.

        The door into the kernel for ideals: the ``ideals`` must share one
        ring (``_ring_of``), and the width holds ``max_exp`` and every
        exponent of every operand.  A product passes the sum of both largest
        exponents, and an n-th power, or a series of powers up to the n-th,
        n times the largest exponent; adding a pure power no higher than
        that, a colon and an lcm keep within it.
        """
        pk = cls(_ring_of(ideals).var_count, max(max_exp, *(_max_exponent(i._exps) for i in ideals)))
        return (pk, *(tuple(map(pk.pack, i._exps)) for i in ideals))

    # -- conversion -----------------------------------------------------------

    def pack(self, exps: Exponents) -> int:
        p = 0
        for e in exps:
            p = p << self.width | e
        return p | sum(exps) << self.top

    def unpack(self, p: int) -> Exponents:
        return tuple(p >> s & self.value for s in self.shifts)

    # -- the antichain filter -------------------------------------------------

    def minimal(self, cands: Iterable[int]) -> list[int]:
        """Antichain of divisibility-minimal elements, canonically sorted.

        In canonical order a divisor comes before its multiples, and a
        distinct element of equal degree never divides; duplicates are gone.
        So each candidate is tested against the row of those kept at lower
        degrees: the elements kept at one degree join the row as one block
        just before the first candidate of the next degree is tested.  The
        first degree has nothing below it, and is kept with no test.
        """
        kept: list[int] = []
        row = Row(self)
        top, degree, start = self.top, -1, 0  # kept[start:] is the block of ``degree``
        for t in sorted(set(cands), key=self.low.__xor__):
            if t >> top != degree:
                row.extend(kept[start:])
                degree, start = t >> top, len(kept)
            if not start or not row.has_divisor(t):  # start is 0 while the row is empty
                kept.append(t)
        return kept

    # -- products, powers and the fold ----------------------------------------

    def product(self, gens_a: Sequence[int], gens_b: Sequence[int]) -> list[int]:
        """Canonical generators of the product of two canonical ideals: every pairwise sum, minimalized.

        Sums of several degrees (an operand's first and last show it) in at
        most three fields (w, x, y) go in lex order, divisors first, and each
        is kept unless an (x, y) part before it divides its own.  ``minimal``
        filters the others, and tests sums of one degree against nothing.
        """
        cands = [c for a in gens_a for c in map(a.__add__, gens_b)]
        top = self.top
        mixed = cands and (gens_a[0] >> top != gens_a[-1] >> top or gens_b[0] >> top != gens_b[-1] >> top)
        fields = self.sweep_fields(gens_a, gens_b) if mixed else None
        if fields is None:
            return self.minimal(cands)
        _, sx, sy = fields
        value = self.value
        xs: list[int] = []
        ys: list[int] = []
        kept = [
            p for p in sorted(set(cands), key=self.low.__and__)
            if _stair_insert(xs, ys, p >> sx & value, p >> sy & value) is not None
        ]
        return sorted(kept, key=self.low.__xor__)

    def rungs(self, parts: Sequence[Sequence[int]], top: int) -> Iterator[list[Sequence[int]]]:
        """The ``n``-th powers of the canonical ``parts``, one list a rung, for n = 1 .. ``top``.

        Each rung after the first is one ``product`` per part from the rung
        before, minimalized, which keeps the rungs small; none is built past
        ``top``, which the packing must hold.  ``repeat`` counts the steps,
        so a ``top`` past an index overflows, where ``range`` would run on.
        """
        rung = list(parts)
        yield rung
        for _ in repeat(None, top - 1):
            rung = [self.product(power, part) for power, part in zip(rung, parts)]
            yield rung

    def meet(self, parts: Iterable[list[int]]) -> list[int]:
        """Canonical generators of the intersection of the canonical ``parts``.

        In at most three fields the parts are folded left to right by
        ``_sweep_meet``.  In more, one part, or parts holding fewer than
        ``_SPLIT_MEET_GENS`` generators together, are folded by
        ``intersection``, each step's lcm pairs minimalized once, and larger
        ones are met on the levels of their first active field, all parts
        at once, by ``_split_meet``.
        """
        parts = list(parts)
        if (fields := self.sweep_fields(*parts)) is not None:
            return reduce(lambda a, b: self._sweep_meet(a, b, fields), parts)
        if len(parts) == 1 or sum(map(len, parts)) < _SPLIT_MEET_GENS:
            return reduce(self.intersection, parts)
        return self._split_meet(parts)

    def _active_fields(self, lists: Iterable[Iterable[int]]) -> list[int]:
        """The shifts of the fields some element of the ``lists`` uses, highest first."""
        used = reduce(or_, chain.from_iterable(lists), 0)
        return [s for s in self.shifts if used >> s & self.value]

    def sweep_fields(self, *lists: Iterable[int]) -> tuple[int, int, int] | None:
        """The shifts (w, x, y) of the at most three fields the ``lists`` use, else None."""
        active = self._active_fields(lists)
        # missing fields come first, past the degree, where every monomial reads 0
        return None if len(active) > 3 else (self.top + self.width,) * (3 - len(active)) + tuple(active)

    def levels(self, parts: Sequence[Sequence[int]]) -> Iterator[tuple[int, int, tuple[tuple[int, ...], ...]]]:
        """The level sets of the canonical ``parts`` at each level of their first active field w.

        Level c of an ideal is the ideal of its generators with w <= c, w
        zeroed.  A part's level changes only at the w of its generators, so
        this yields (c, w_c, sets) at each c where some part has a generator,
        increasing, with w_c the packed w^c and sets[i] the canonical
        generators of level c of part i, empty while it has none with w <= c.

        Level c is generated by the level before and the generators new at
        c, those with w = c.  Its minimal generators are the new ones and
        the old ones that none of them divides: no old generator u divides
        a new one v, nor a new one v' another, as u + c' w (c' < c) or
        v' + c w dividing v + c w would make one generator of the antichain
        ``parts[i]`` divide another.  So each level tests the level before
        against one ``Row`` of its new generators, needs no ``minimal``,
        and merges the two lists in canonical order.
        """
        sw = self._active_fields(parts)[0]
        value, lift = self.value, 1 << sw | 1 << self.top  # c * lift is w^c, degree included
        new: list[dict[int, list[int]]] = []  # per part, the generators of each w, w zeroed
        for gens in parts:
            by_w: dict[int, list[int]] = {}
            for p in gens:
                c = p >> sw & value
                by_w.setdefault(c, []).append(p - c * lift)
            new.append(by_w)
        sets: list[tuple[int, ...]] = [()] * len(parts)
        for c in sorted(set().union(*new)):
            for i, by_w in enumerate(new):
                if c in by_w:
                    row = Row(self, by_w[c])
                    kept = [u for u in sets[i] if not row.has_divisor(u)]
                    sets[i] = tuple(sorted(kept + by_w[c], key=self.low.__xor__))
            yield c, c * lift, tuple(sets)

    def _split_meet(self, parts: list[list[int]]) -> list[int]:
        """``meet`` of the ``parts`` by the ``levels`` of their first active field w.

        Level c of the intersection K is the intersection of the parts'
        levels c, met here recursively in the remaining fields at each level
        where some part has generators, as K's level changes nowhere else;
        while some part's level is the zero ideal, so is K's.  The minimal
        generators of K with w = c are the u w^c, u + w_c packed with the w_c
        of ``levels``, over the minimal generators u of K's level c outside
        the level before.  Levels only grow, so a u in the level before is a
        minimal generator there too, as any divisor of u there lies in level
        c.  So, here and in ``_sweep_meet``, u w^c is new iff u is not a
        generator of the level before.
        """
        held: set[int] = set()  # the generators of K's level before
        out: list[int] = []
        for _, w_c, sets in self.levels(parts):
            if all(sets):
                level = self.meet(sets)
                out += [u + w_c for u in level if u not in held]
                held = set(level)
        return sorted(out, key=self.low.__xor__)

    def _sweep_meet(self, gens_a: Sequence[int], gens_b: Sequence[int], fields: tuple[int, int, int]) -> list[int]:
        """Canonical generators of the intersection of two ideals in the ``fields`` (w, x, y).

        Level c of an ideal is the ideal of the (x, y) parts of its generators
        with w at most c.  By increasing w, each side's points join its
        staircase, whose step function f(x) is the least y of a point at or
        left of x, and level c of the intersection lies above the larger f.
        Its corners, from one merge, that are not the level before's have
        w = c (``_split_meet``).  (-1, inf) and (inf, -1) end each side's
        staircase, and neither divide nor are divided by a point.
        """
        sw, sx, sy = fields
        value, top, inf = self.value, self.top, self.value + 1
        points = sorted(
            (p >> sw & value, p >> sx & value, p >> sy & value, side)
            for side, gens in enumerate((gens_a, gens_b)) for p in gens
        )
        (ax, ay), (bx, by) = stairs = ([-1, inf], [inf, -1]), ([-1, inf], [inf, -1])
        held: set[int] = set()  # the corners of the level before, as x << sx | y << sy
        out: list[int] = []
        for w, level in groupby(points, itemgetter(0)):
            for _, x, y, side in level:
                _stair_insert(*stairs[side], x, y)
            corners: set[int] = set()
            i = j = 1
            low = inf
            while (x := ax[i] if ax[i] < bx[j] else bx[j]) < inf:
                if ax[i] == x:
                    i += 1
                if bx[j] == x:
                    j += 1
                y = ay[i - 1] if ay[i - 1] > by[j - 1] else by[j - 1]
                if y < low:
                    low = y
                    u = x << sx | y << sy
                    corners.add(u)
                    if u not in held:
                        out.append(w << sw | u | (w + x + y) << top)
            held = corners
        return sorted(out, key=self.low.__xor__)

    def intersection(self, gens_a: Sequence[int], gens_b: Sequence[int]) -> list[int]:
        """Canonical generators of the intersection of two canonical ideals: one step of ``meet``'s fold.

        A generator of one ideal that lies in the other is a minimal generator
        of the intersection, and its lcm with anything is a multiple of it;
        the other candidates are the lcms of the remaining pairs, one ``lcms``
        loop per remaining generator of ``gens_b``.  ``minimal`` filters all
        the candidates once.
        """
        cands: list[int] = []
        out_a: list[int] = []
        out_b: list[int] = []
        sides = ((gens_a, Row(self, gens_b), out_a), (gens_b, Row(self, gens_a), out_b))
        for gens, others, out in sides:
            for g in gens:
                (cands if others.has_divisor(g) else out).append(g)
        for g in out_b:
            cands += self.lcms(out_a, g)
        return self.minimal(cands)

    # -- lcms and colons ------------------------------------------------------

    def lcms(self, gens: Iterable[int], g: int) -> list[int]:
        """lcm(a, g) for every a in ``gens``, in one loop with no call per element.

        Field i is g_i plus the excess max(a_i - g_i, 0), read off the guard
        bits of (a | G) - g, G the exponent guards; a product sums the degree.
        """
        exp_guard, shift, ones, degree = self._exp_guard, self.width - 1, self._ones, self._degree
        out: list[int] = []
        for a in gens:
            diff = (a | exp_guard) - g
            ge = diff & exp_guard  # guard bits of the fields with a_i >= g_i
            excess = diff & (ge - (ge >> shift))
            out.append(g + (excess | excess * ones & degree))
        return out

    def colon_parts(self, gens: Sequence[int], divisors: Iterable[int]) -> list[list[int]]:
        """The distinct, inclusion-minimal colons (I : m) over the ``divisors`` m, I generated by ``gens``.

        A colon is minimalized from the g / gcd(g, m) = lcm(g, m) / m over g in
        ``gens``.  A repeat, or a colon holding another, adds nothing to their
        intersection and is dropped; the rest keep the order of the divisors,
        which fixes the order of the fold.
        """
        parts: list[list[int]] = []
        for m in divisors:
            part = self.minimal(map((-m).__add__, self.lcms(gens, m)))
            if part not in parts:
                parts.append(part)
        return [
            p for p, row in zip(parts, [Row(self, p) for p in parts])
            if not any(q is not p and all(map(row.has_divisor, q)) for q in parts)
        ]


def _stair_insert(xs: list[int], ys: list[int], x: int, y: int) -> tuple[int, Sequence[int], Sequence[int]] | None:
    """Put (x, y) into the staircase of x exponents ``xs``, increasing, and y exponents ``ys``, decreasing.

    None if a staircase point divides (x, y).  Otherwise the points it
    divides leave, and the result is its position and their xs and ys.
    The xs are distinct, so one ``bisect_right`` finds both the point left
    of x, which divides (x, y) if its y is no larger, and a point at x,
    which (x, y) then divides.  The lists change in place, and slices are
    taken only of the points that leave.
    """
    hi = bisect_right(xs, x)
    if hi and ys[hi - 1] <= y:
        return None
    lo = hi - 1 if hi and xs[hi - 1] == x else hi
    while hi < len(xs) and ys[hi] >= y:
        hi += 1
    if lo == hi:
        xs.insert(lo, x)
        ys.insert(lo, y)
        return lo, (), ()
    gone = lo, xs[lo:hi], ys[lo:hi]
    xs[lo] = x
    ys[lo] = y
    del xs[lo + 1:hi], ys[lo + 1:hi]
    return gone


class Row:
    """Packed monomials side by side in one int, all tested against a monomial at once.

    Element j sits in slot j, the ``8 * pk.slot`` bits from bit
    ``8 * pk.slot * j`` up: the packed monomial a_j, then zero bits, and
    the slot's top bit, its spare bit, clear and above every field.  With G
    the packing's guard bits, ``rep`` a 1 at the bottom of every slot,
    ``guards = G * rep`` and ``spares`` the spare bit of every slot, some
    a_j divides a packed p iff

        ((((p | G) * rep - row) & guards) + spares - guards) & spares

    is nonzero.  In each field p | G has its guard bit set and a_j has not,
    so (p | G) - a_j borrows across no field, is non-negative and lies
    below the spare bit.  So no slot borrows from the next, and slot j of
    the difference is (p | G) - a_j.  Masked by ``guards``, slot j keeps
    K_j, the guard bits of the fields where p's exponent is at least a_j's,
    and K_j == G iff a_j divides p.  K_j + spare - G lies between
    spare - G > 0 and the spare bit, and reaches the spare bit iff
    K_j == G, so no slot carries into the next either, and a spare bit
    survives the last mask iff its slot's element divides p.

    Only ``extend`` fills a row, the constructor's elements being its first
    block.  It lays a block out as one byte string and rebuilds the masks
    once, so a row costs time linear in its length however it is split.
    """

    __slots__ = ("_guard", "_slot", "_end", "_row", "_rep", "_guards", "_spares", "_lift")

    def __init__(self, pk: Packing, gens: Sequence[int] = ()):
        self._guard = pk.guard
        self._slot = 8 * pk.slot
        self._end = self._row = self._rep = self._guards = self._spares = self._lift = 0  # _end: shift of the next slot
        self.extend(gens)

    def extend(self, block: Sequence[int]) -> None:
        """Put the elements of ``block`` in new slots after the others, and rebuild the masks once."""
        if not block:
            return
        size, end = self._slot // 8, self._end
        self._row |= int.from_bytes(b"".join(g.to_bytes(size, "little") for g in block), "little") << end
        self._rep |= int.from_bytes((b"\x01" + bytes(size - 1)) * len(block), "little") << end
        self._end = end + self._slot * len(block)
        self._guards = self._guard * self._rep
        self._spares = self._rep << (self._slot - 1)
        self._lift = self._spares - self._guards

    def has_divisor(self, p: int) -> bool:
        """True iff some element of the row divides ``p``."""
        return bool((((p | self._guard) * self._rep - self._row) & self._guards) + self._lift & self._spares)


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------

class MonomialIdeal:
    """A monomial ideal held by its canonical minimal generating set.

    The constructor takes that set as exponent tuples and trusts them to be
    canonical; :func:`minimalize` builds one from any monomials.  The zero
    ideal has no generators; the unit ideal has the single all-zero generator.
    """

    __slots__ = ("ring", "_exps")

    def __init__(self, ring: RingContext, exps: Iterable[Exponents]):
        self.ring = ring
        self._exps: tuple[Exponents, ...] = tuple(exps)

    @classmethod
    def _from_packed(cls, ring: RingContext, pk: Packing, gens: Iterable[int]) -> "MonomialIdeal":
        """The ideal with the canonical packed generators ``gens``."""
        return cls(ring, map(pk.unpack, gens))

    @classmethod
    def unit(cls, ring: RingContext) -> "MonomialIdeal":
        return cls(ring, [(0,) * ring.var_count])

    @property
    def gens(self) -> tuple[Exponents, ...]:
        """The minimal generators in canonical order, as the stored exponent tuples."""
        return self._exps

    def __len__(self) -> int:
        """The number of minimal generators."""
        return len(self._exps)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._exps

    def is_unit(self) -> bool:
        return len(self._exps) == 1 and not any(self._exps[0])

    def is_equigenerated(self) -> bool:
        """True iff all minimal generators share one total degree."""
        return len(set(map(sum, self._exps))) <= 1

    # -- equality and hashing -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self._exps == other._exps
        )

    def __hash__(self) -> int:
        return hash((self.ring, self._exps))

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.ring.var_names}, {len(self._exps)} gens)"

    # -- arithmetic -----------------------------------------------------------

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Product ideal, minimalized from all pairwise generator products."""
        pk, mine, theirs = Packing.of(self, other, max_exp=_max_exponent(self._exps) + _max_exponent(other._exps))
        return MonomialIdeal._from_packed(self.ring, pk, pk.product(mine, theirs))

    def power(self, n: int) -> "MonomialIdeal":
        """``n``-fold product, with I^0 the unit ideal: the last of the ``Packing.rungs`` of I alone."""
        if n < 0:
            raise ValueError(f"power wants n >= 0, got {n}")
        if n == 0:
            return MonomialIdeal.unit(self.ring)
        pk, gens = Packing.of(self, max_exp=n * _max_exponent(self._exps))
        return MonomialIdeal._from_packed(self.ring, pk, deque(pk.rungs([gens], n), maxlen=1).pop()[0])

    def intersect(self, other: "MonomialIdeal", *more: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection with every operand, folded left to right in one packing."""
        pk, *parts = Packing.of(self, other, *more)
        return self._meet(pk, parts)

    def colon_ideal(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """(I : J) as the intersection of the colons (I : m) over generators m of J."""
        pk, gens, divisors = Packing.of(self, other)
        if not divisors:
            raise ZeroIdealError("colon by the zero ideal")
        return self._meet(pk, pk.colon_parts(gens, divisors))

    def saturate_monomial(self, m: Exponents) -> "MonomialIdeal":
        """(I : m^inf): zero out generator exponents on the support of ``m``."""
        return self.saturate_ideal(minimalize([m], self.ring))

    def saturate_ideal(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """(I : J^inf) as the intersection of the localizations of I at J."""
        pk, _, parts = self.packed_localizations(other)
        return self._meet(pk, parts)

    def packed_localizations(
        self, other: "MonomialIdeal", n: int = 1
    ) -> tuple[Packing, list[int], list[list[int]]]:
        """A packing, the generators of I and the localizations of I at J, all packed.

        The packing holds the ``n``-th powers of I and of the localizations,
        and every intersection of those; J's exponents do not widen it.  Each
        localization is the colon (I : x_S^e), x_S over the generators of
        J's radical and e the largest exponent of I, and ``colon_parts``
        keeps the distinct, inclusion-minimal ones, in the canonical order
        of the x_S.  One equals I only if all the others contain I, so then
        it is the only one kept.
        """
        _ring_of((self, other))
        pk1, supports = _minimal_supports(other)
        if not supports:
            raise ZeroIdealError("saturation by the zero ideal")
        e = _max_exponent(self._exps)
        pk, gens = Packing.of(self, max_exp=n * e)
        divisors = [e * pk.pack(pk1.unpack(s)) for s in supports]  # x_S^e, as packing is linear
        return pk, list(gens), pk.colon_parts(gens, divisors)

    def _meet(self, pk: Packing, parts: Iterable[list[int]]) -> "MonomialIdeal":
        """The intersection of the ideals with the canonical generators ``parts``, packed by ``pk``."""
        return MonomialIdeal._from_packed(self.ring, pk, pk.meet(parts))


def _ring_of(ideals: Sequence[MonomialIdeal]) -> RingContext:
    """The ring of the ``ideals``; RingMismatchError unless they all share it."""
    ring = ideals[0].ring
    for other in ideals[1:]:
        if other.ring != ring:
            raise RingMismatchError(f"ideals live in different rings: {ring.var_names} vs {other.ring.var_names}")
    return ring


def minimalize(gens: Iterable[Sequence[int]], ring: RingContext) -> MonomialIdeal:
    """Canonical minimal generating set of the ideal generated by the exponent vectors ``gens``.

    Every input generator is divisible by some output generator, and no
    output generator divides another.  An empty input yields the zero ideal.
    """
    exps = list(map(tuple, gens))
    for t in exps:
        if len(t) != ring.var_count:
            raise RingMismatchError(
                f"monomial has {len(t)} exponents, ring has {ring.var_count} variables"
            )
        if not all(isinstance(e, int) and e >= 0 for e in t):
            raise ValueError(f"exponents must be non-negative integers, got {t!r}")
    pk = Packing(ring.var_count, _max_exponent(exps))
    return MonomialIdeal._from_packed(ring, pk, pk.minimal(map(pk.pack, exps)))


def _minimal_supports(ideal: MonomialIdeal) -> tuple[Packing, list[int]]:
    """A ``Packing(d, 1)`` and the minimal generators x_S of the radical of ``ideal`` packed by it, in canonical order.

    These are the squarefree x_S over the inclusion-minimal supports S of
    the generators: x_S divides x_T exactly when S lies in T.  The unit
    ideal gives the empty support, packed to 0, the zero ideal none at all.
    """
    pk = Packing(ideal.ring.var_count, 1)
    return pk, pk.minimal(pk.pack(tuple(min(e, 1) for e in t)) for t in ideal._exps)
