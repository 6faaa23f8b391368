"""Exact arithmetic on monomials and monomial ideals.

Monomials are exponent vectors over a fixed ambient polynomial ring; no
coefficient field is ever materialized.  Ideals carry their canonical
minimal generating set (an antichain under divisibility, sorted in a fixed
total order), so ideal equality is generator-list equality.  An ideal stores
that set as exponent tuples and nothing else; ``gens`` builds ``Monomial``
objects from them on each read.

Every kernel packs the exponent vectors it works on into Python ints (see
:class:`Packing`), with a field width taken from the largest exponent that
one call can produce, and unpacks only its result.  Every divisibility
test lays a list of packed monomials side by side in one int (see
:class:`Row`) and tests a monomial against the whole list in one
expression.  A colon or saturation by an ideal J is one fold in one
packing, over the generators of J for a colon and over those of its
radical for a saturation.  The Hilbert recursion packs once per numerator
and memoizes on tuples of these ints.

Monomials and ideals are immutable after construction and safe to share
across threads; no operation mutates its inputs.  A ``Row`` grows, and
lives within one kernel call.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import RingMismatchError, ZeroIdealError

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class RingContext:
    """Ambient polynomial ring: a count of variables and their names."""

    var_names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.var_names)
        object.__setattr__(self, "var_names", names)
        if not names:
            raise ValueError("a ring needs at least one variable")
        for name in names:
            if not isinstance(name, str) or not name.isidentifier():
                raise ValueError(f"invalid variable name: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")

    @property
    def var_count(self) -> int:
        return len(self.var_names)


class Monomial:
    """A monomial as a tuple of non-negative exponents, with cached degree."""

    __slots__ = ("exponents", "degree")

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(exponents)
        for e in exps:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {e!r}")
        self.exponents: Exponents = exps
        self.degree: int = sum(exps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"Monomial({list(self.exponents)})"

    @property
    def support(self) -> tuple[int, ...]:
        """Indices of variables with positive exponent."""
        return tuple(i for i, e in enumerate(self.exponents) if e > 0)


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff every exponent of ``a`` is at most the matching one of ``b``."""
    if len(a.exponents) != len(b.exponents):
        raise RingMismatchError(
            f"monomials live in different rings ({len(a.exponents)} vs {len(b.exponents)} variables)"
        )
    pk = Packing(len(a.exponents), _max_exponent((a.exponents, b.exponents)))
    return Row(pk, [pk.pack(a.exponents)]).has_divisor(pk.pack(b.exponents))


# ---------------------------------------------------------------------------
# The packed kernel
# ---------------------------------------------------------------------------

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
    def of(cls, ideal: "MonomialIdeal", max_exp: int = 0) -> tuple["Packing", tuple[int, ...]]:
        """A packing for ``ideal`` and its generators packed, in canonical order.

        The width holds ``max_exp`` and every exponent of ``ideal``.  Each
        ideal kernel passes the largest exponent of its other operand, or for
        a product the sum of both largest exponents; adding a pure power no
        higher than that, a colon, a support drop and an lcm keep within it.
        """
        pk = cls(ideal.ring.var_count, max(max_exp, _max_exponent(ideal._exps)))
        return pk, tuple(map(pk.pack, ideal._exps))

    # -- conversion -----------------------------------------------------------

    def pack(self, exps: Exponents) -> int:
        p = 0
        for e in exps:
            p = p << self.width | e
        return p | sum(exps) << self.top

    def unpack(self, p: int) -> Exponents:
        return tuple(p >> s & self.value for s in self.shifts)

    def degree(self, p: int) -> int:
        return p >> self.top

    def _with_degree(self, fields: int) -> int:
        """``fields`` (exponent fields only) with its degree field filled in."""
        return fields | fields * self._ones & self._degree

    def _excess(self, a: int, b: int) -> int:
        """Per exponent field, a_i - b_i where that is positive, else 0; no degree."""
        diff = (a | self._exp_guard) - b
        ge = diff & self._exp_guard  # guard bits of the fields with a_i >= b_i
        return diff & (ge - (ge >> (self.width - 1)))

    # -- the antichain filter -------------------------------------------------

    def minimal(self, cands: Iterable[int]) -> list[int]:
        """Antichain of divisibility-minimal elements, canonically sorted.

        In canonical order a divisor comes before its multiples, and a
        distinct element of equal degree never divides; duplicates are gone.
        So each candidate is tested against the row of those kept before it.
        """
        kept: list[int] = []
        row = Row(self)
        for t in sorted(set(cands), key=self.low.__xor__):
            if not row.has_divisor(t):
                row.append(t)
                kept.append(t)
        return kept

    # -- candidate generators --------------------------------------------------

    def intersection(self, gens_a: Sequence[int], gens_b: Sequence[int]) -> list[int]:
        """Candidate generators of the intersection of two canonical ideals.

        A generator of one ideal that lies in the other is a minimal generator
        of the intersection, and its lcm with anything is a multiple of it;
        the other candidates are the lcms of the remaining pairs.  Those are
        taken one generator g of the shorter remainder at a time, and the
        lcms of g are minimalized among themselves before they join the
        candidates, which drops most of them before the filter over all.
        """
        cands: list[int] = []
        out_a: list[int] = []
        out_b: list[int] = []
        sides = ((gens_a, Row(self, gens_b), out_a), (gens_b, Row(self, gens_a), out_b))
        for gens, others, out in sides:
            for g in gens:
                (cands if others.has_divisor(g) else out).append(g)
        if len(out_a) < len(out_b):
            out_a, out_b = out_b, out_a
        for g in out_b:
            cands += self.minimal([self.lcm(a, g) for a in out_a])
        return cands

    def lcm(self, a: int, b: int) -> int:
        """lcm(a, b), made per field as b_i plus the excess of a_i over b_i."""
        return b + self._with_degree(self._excess(a, b))

    def colons(self, gens: Iterable[int], m: int) -> Iterator[int]:
        """g / gcd(g, m) for every g in ``gens``."""
        return (self._with_degree(self._excess(g, m)) for g in gens)

    def drop_support(self, gens: Iterable[int], m: int) -> Iterator[int]:
        """Every g with the exponents on the support of ``m`` set to 0."""
        keep = 0
        for s in self.shifts:
            if m >> s & self.value == 0:
                keep |= self.value << s
        return map(self._with_degree, map(keep.__and__, gens))

    # -- helpers of the Hilbert recursion --------------------------------------

    def support_counts(self, gens: Sequence[int]) -> list[int]:
        """For each variable, the number of elements of ``gens`` with a positive exponent in it."""
        return [
            len(gens) - list(map((self.value << s).__and__, gens)).count(0)
            for s in self.shifts
        ]

    def exponents(self, gens: Iterable[int], i: int) -> list[int]:
        """The exponent of variable ``i`` in each element of ``gens``."""
        s = self.shifts[i]
        return [g >> s & self.value for g in gens]

    def split(self, gens: Sequence[int], i: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Canonical generators of I + (x_i^k) and I : x_i^k, for I generated by ``gens``.

        ``gens`` must be canonical and x_i^k must not lie in I, as the pivot
        rule of the Hilbert recursion guarantees.  One pass splits the
        generators by their x_i exponent:

        * g_i < k: g stays in I + (x_i^k), which x_i^k joins, as it is not in
          I and divides no such g.  Generators with g_i >= k are multiples of
          x_i^k and leave I + (x_i^k).
        * g_i <= k: the quotient of g by x_i^k is g with x_i zeroed.  These
          quotients are minimalized together.
        * g_i > k: the quotient is g - x_i^k, which still holds x_i.
          Subtracting one vector keeps divisibility and the canonical order,
          so these quotients are an antichain in order.  None of them divides
          a quotient free of x_i.  No quotient h free of x_i, from a
          generator f with f_i <= k, divides one either: h divides g - x_i^k
          would make f divide g, which the antichain ``gens`` rules out, as
          f_i < g_i makes f and g distinct.

        So the two groups of quotients are minimal together, share no
        element, and are merged in canonical order.
        """
        s = self.shifts[i]
        mask, bound = self.value << s, k << s
        power = bound | k << self.top
        plus: list[int] = []
        held: list[int] = []
        free: list[int] = []
        for g in gens:
            e = g & mask
            if e > bound:
                held.append(g - power)
            else:
                if e < bound:
                    plus.append(g)
                free.append(g - e - (e >> s << self.top))
        insort(plus, power, key=self.low.__xor__)
        return tuple(plus), tuple(sorted(held + self.minimal(free), key=self.low.__xor__))


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
    """

    __slots__ = ("_guard", "_slot", "_end", "_row", "_rep", "_guards", "_spares", "_lift")

    def __init__(self, pk: Packing, gens: Sequence[int] = ()):
        self._guard = pk.guard
        self._slot = 8 * pk.slot
        self._end = self._slot * len(gens)  # shift of the next element
        self._row = int.from_bytes(b"".join(g.to_bytes(pk.slot, "little") for g in gens), "little")
        self._rep = int.from_bytes((b"\x01" + bytes(pk.slot - 1)) * len(gens), "little")
        self._masks()

    def _masks(self) -> None:
        self._guards = self._guard * self._rep
        self._spares = self._rep << (self._slot - 1)
        self._lift = self._spares - self._guards

    def append(self, p: int) -> None:
        """Put ``p`` in a new slot after the others."""
        self._row |= p << self._end
        self._rep |= 1 << self._end
        self._end += self._slot
        self._masks()

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
    def _from_packed(cls, ring: RingContext, pk: Packing, cands: Iterable[int]) -> "MonomialIdeal":
        """The ideal generated by the packed ``cands``."""
        return cls(ring, map(pk.unpack, pk.minimal(cands)))

    @classmethod
    def zero(cls, ring: RingContext) -> "MonomialIdeal":
        return cls(ring, [])

    @classmethod
    def unit(cls, ring: RingContext) -> "MonomialIdeal":
        return cls(ring, [(0,) * ring.var_count])

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators in canonical order, built anew on each read."""
        return tuple(map(Monomial, self._exps))

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

    # -- membership ----------------------------------------------------------

    def contains(self, m: Monomial) -> bool:
        """True iff some minimal generator divides ``m``."""
        return self.contains_ideal(minimalize([m], self.ring))

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True iff every generator of ``other`` lies in this ideal."""
        self._check_ring(other)
        pk, mine = Packing.of(self, _max_exponent(other._exps))
        return all(map(Row(pk, mine).has_divisor, map(pk.pack, other._exps)))

    # -- arithmetic -----------------------------------------------------------

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Product ideal, minimalized from all pairwise generator products."""
        self._check_ring(other)
        pk, mine = Packing.of(self, _max_exponent(self._exps) + _max_exponent(other._exps))
        theirs = list(map(pk.pack, other._exps))
        cands = [c for a in mine for c in map(a.__add__, theirs)]
        return MonomialIdeal._from_packed(self.ring, pk, cands)

    def power(self, n: int) -> "MonomialIdeal":
        """``n``-fold product, with I^0 the unit ideal.

        Computed by iterated multiplication, minimalizing after each step to
        keep intermediate generator sets small.
        """
        if n < 0:
            raise ValueError(f"power wants n >= 0, got {n}")
        result = MonomialIdeal.unit(self.ring)
        for _ in range(n):
            result = result.multiply(self)
        return result

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection, minimalized from pairwise lcms of generators."""
        self._check_ring(other)
        pk, mine = Packing.of(self, _max_exponent(other._exps))
        cands = pk.intersection(mine, list(map(pk.pack, other._exps)))
        return MonomialIdeal._from_packed(self.ring, pk, cands)

    def colon_ideal(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """(I : J) as the intersection of (I : m) over generators m of J."""
        self._check_ring(other)
        return self._fold(other._exps, Packing.colons, "colon")

    def saturate_monomial(self, m: Monomial) -> "MonomialIdeal":
        """(I : m^inf): zero out generator exponents on the support of ``m``."""
        return self.saturate_ideal(minimalize([m], self.ring))

    def saturate_ideal(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """(I : J^inf) as the intersection of (I : x_S^inf) over the generators x_S of √J.

        (I : J^inf) = (I : √J^inf), so a generator of J whose support holds
        another's adds nothing and is skipped.
        """
        self._check_ring(other)
        return self._fold(_minimal_supports(other), Packing.drop_support, "saturation")

    def _fold(self, ms: Sequence[Exponents], part: Callable[..., Iterator[int]], what: str) -> "MonomialIdeal":
        """The intersection, over the exponent vectors m in ``ms``, of the ideals ``part(pk, gens, m)``.

        One packing serves the fold: a colon, a support drop and an lcm never
        exceed the largest exponent of this ideal.  Each part and each
        intermediate intersection is minimalized.
        """
        if not ms:
            raise ZeroIdealError(f"{what} by the zero ideal")
        pk, gens = Packing.of(self, _max_exponent(ms))
        first, *rest = map(pk.pack, ms)
        cands = part(pk, gens, first)
        for m in rest:
            cands = pk.intersection(pk.minimal(cands), pk.minimal(part(pk, gens, m)))
        return MonomialIdeal._from_packed(self.ring, pk, cands)

    # -- guards ---------------------------------------------------------------

    def _check_ring(self, other: "MonomialIdeal") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"ideals live in different rings: {self.ring.var_names} vs {other.ring.var_names}"
            )


def minimalize(gens: Sequence[Monomial], ring: RingContext) -> MonomialIdeal:
    """Canonical minimal generating set of the ideal generated by ``gens``.

    Every input generator is divisible by some output generator, and no
    output generator divides another.  An empty input yields the zero ideal.
    """
    for g in gens:
        if len(g.exponents) != ring.var_count:
            raise RingMismatchError(
                f"monomial has {len(g.exponents)} exponents, ring has {ring.var_count} variables"
            )
    exps = [g.exponents for g in gens]
    pk = Packing(ring.var_count, _max_exponent(exps))
    return MonomialIdeal._from_packed(ring, pk, map(pk.pack, exps))


def _minimal_supports(ideal: MonomialIdeal) -> list[Exponents]:
    """The minimal generators of the radical of ``ideal``, in canonical order.

    These are the squarefree x_S over the inclusion-minimal supports S of
    the generators: x_S divides x_T exactly when S lies in T.  The unit
    ideal gives the empty support, the zero ideal no support at all.
    """
    pk = Packing(ideal.ring.var_count, 1)
    return list(map(pk.unpack, pk.minimal(pk.pack(tuple(min(e, 1) for e in t)) for t in ideal._exps)))
