"""Exact Hilbert-series numerators and multiplicity extraction.

For a monomial ideal I in d variables the Hilbert series of A/I is written
over the full ambient denominator, H(z) = K(z)/(1-z)^d with K an integer
polynomial.  K is computed by Bigatti's pivot splitting: for a variable x
lying in at least two generator supports and a pivot x^k not in I,

    K(A/I) = K(A/(I + (x^k))) + z^k * K(A/(I : x^k)).

Taking k as the median exponent of x halves the generators that contain x on
each side, so the recursion depth depends on the number of generators, not
on the exponents.  There are two base cases:

* an ideal with at most ``_LEAF_GENS`` generators takes the inclusion-
  exclusion sum over subsets S of its generators, the sum of
  (-1)^|S| z^(deg lcm S), which is the alternating sum of the Taylor
  resolution.  It has 2^r terms for r generators, so it beats a split only
  while r is small: leaves of 4, 5 and 6 generators measured alike on the
  shipped corpus, and 8 slower;
* a larger ideal whose generators have pairwise disjoint supports is a
  complete intersection, K = prod(1 - z^deg g), with r factors in place of
  2^r terms.

The generators are packed once per ``numerator_of_quotient`` call by
``core.Packing``; one field width serves the whole recursion, because
neither I + (x^k) nor I : x^k raises the largest exponent.  Both branches
of a split come from one pass over the generators, ``Packing.split``.
Numerators of intermediate ideals are memoized in a dict local to that
call, keyed by the canonical tuple of packed generators.  A quotient of
equal ideals is the empty module and computes no numerator.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional

from .core import MonomialIdeal, Packing
from .errors import InconsistencyError


class IntPolynomial:
    """Dense univariate polynomial with exact integer coefficients.

    Trailing zero coefficients are trimmed; the zero polynomial has an empty
    coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] | list[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(
            [a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)]
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(
            [a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)]
        )

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by z^k."""
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def value_at_one(self) -> int:
        return sum(self.coeffs)

    def divide_one_minus_z(self) -> "IntPolynomial":
        """Exact synthetic division by (1 - z); requires a root at z = 1."""
        if self.value_at_one() != 0:
            raise ValueError("polynomial has no root at z = 1")
        quotient: list[int] = []
        partial = 0
        for c in self.coeffs[:-1]:
            partial += c
            quotient.append(partial)
        return IntPolynomial(quotient)


_ONE = IntPolynomial((1,))


@dataclass(frozen=True)
class HilbertData:
    """Numerator, dimension, and multiplicity of a graded quotient module.

    ``module_dim`` is None for the empty module (numerator 0, e0 = 0).
    """

    numerator: IntPolynomial
    ambient_d: int
    module_dim: Optional[int]
    e0: int


# ---------------------------------------------------------------------------
# Numerator recursion
# ---------------------------------------------------------------------------

# Ideals with at most this many generators get their numerator from the
# 2^r-term inclusion-exclusion sum instead of a split.
_LEAF_GENS = 5


def _pick_pivot(gens: tuple[int, ...], pk: Packing) -> tuple[int, int]:
    """Pivot x_i^k to split on, or (-1, 0) when supports are pairwise disjoint.

    x_i lies in the most generators (the first such variable on ties) and k
    is the lower median of its positive exponents.  A pure power x_i^j in I
    is the only generator with x_i exponent >= j, so k < j: x_i^k is never in
    I, and both branches of the split are strictly larger ideals.
    """
    counts = pk.support_counts(gens)
    best = max(range(len(counts)), key=counts.__getitem__)
    if counts[best] < 2:
        return (-1, 0)
    powers = sorted(e for e in pk.exponents(gens, best) if e > 0)
    return (best, powers[(len(powers) - 1) // 2])


def _inclusion_exclusion(gens: tuple[int, ...], pk: Packing) -> IntPolynomial:
    """K = sum over subsets S of ``gens`` of (-1)^|S| z^(deg lcm S).

    The alternating sum of the Taylor resolution, exact for any generating
    set; the empty ideal gives 1 and the unit ideal 0.
    """
    terms = [(0, 1)]  # (lcm of a subset, (-1)^|S|), from the empty subset, 1
    for g in gens:
        terms += [(pk.lcm(g, t), -sign) for t, sign in terms]
    coeffs = [0] * (pk.degree(terms[-1][0]) + 1)  # the last term is the lcm of all
    for t, sign in terms:
        coeffs[pk.degree(t)] += sign
    return IntPolynomial(coeffs)


def _numerator(
    gens: tuple[int, ...],
    pk: Packing,
    memo: dict[tuple[int, ...], IntPolynomial],
) -> IntPolynomial:
    hit = memo.get(gens)
    if hit is not None:
        return hit

    if len(gens) <= _LEAF_GENS:
        result = _inclusion_exclusion(gens, pk)
    else:
        pivot, k = _pick_pivot(gens, pk)
        if pivot < 0:
            # pairwise disjoint supports: complete intersection, K = prod(1 - z^deg)
            result = _ONE
            for deg in map(pk.degree, gens):
                result = result - result.shift(deg)
        else:
            plus_x, colon_x = pk.split(gens, pivot, k)
            result = _numerator(plus_x, pk, memo) + _numerator(colon_x, pk, memo).shift(k)

    memo[gens] = result
    return result


def numerator_of_quotient(ideal: MonomialIdeal) -> IntPolynomial:
    """Numerator K with H_{A/I}(z) = K(z)/(1-z)^d over the ambient d.

    The generators are packed once, with one width for the whole recursion;
    intermediate numerators are memoized for the duration of this call only.
    """
    pk, gens = Packing.of(ideal)
    return _numerator(gens, pk, {})


def dim_and_mult(numerator: IntPolynomial, ambient_d: int) -> tuple[Optional[int], int]:
    """Factor K = (1-z)^s * h with h(1) != 0; return (ambient_d - s, h(1)).

    The zero numerator denotes the empty module: (None, 0).  A nonpositive
    h(1) cannot arise from a genuine module and raises InconsistencyError.
    """
    if numerator.is_zero():
        return (None, 0)
    h = numerator
    s = 0
    while h.value_at_one() == 0:
        h = h.divide_one_minus_z()
        s += 1
    if s > ambient_d:
        raise InconsistencyError(
            f"numerator vanishes to order {s} at z=1, above the ambient {ambient_d}"
        )
    e0 = h.value_at_one()
    if e0 <= 0:
        raise InconsistencyError(f"nonzero module computed multiplicity {e0} <= 0")
    return (ambient_d - s, e0)


def quotient_module_data(inner: MonomialIdeal, outer: MonomialIdeal) -> HilbertData:
    """Hilbert data of the quotient module outer/inner (inner must sit inside outer)."""
    inner._check_ring(outer)
    d = inner.ring.var_count
    if inner == outer:
        return HilbertData(numerator=IntPolynomial(), ambient_d=d, module_dim=None, e0=0)
    if not outer.contains_ideal(inner):
        g = next(g for g in inner.gens if not outer.contains(g))
        raise ValueError(
            f"containment violated: generator {g!r} of the inner ideal "
            "is not in the outer ideal"
        )
    k = numerator_of_quotient(inner) - numerator_of_quotient(outer)
    module_dim, e0 = dim_and_mult(k, d)
    return HilbertData(numerator=k, ambient_d=d, module_dim=module_dim, e0=e0)
