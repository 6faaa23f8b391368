from __future__ import annotations

import itertools
import random
from math import comb

import pytest

from satpow import IntPolynomial, Monomial, MonomialIdeal, RingContext, minimalize


@pytest.fixture
def ring2() -> RingContext:
    return RingContext(("x", "y"))


@pytest.fixture
def ring3() -> RingContext:
    return RingContext(("x", "y", "z"))


def M(*exps: int) -> Monomial:
    return Monomial(exps)


def ideal(ring: RingContext, *gens: tuple[int, ...]) -> MonomialIdeal:
    return minimalize([Monomial(g) for g in gens], ring)


def monomials_up_to(d: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors in d variables of total degree <= degree."""
    out = []
    for exps in itertools.product(range(degree + 1), repeat=d):
        if sum(exps) <= degree:
            out.append(exps)
    return out


def member(gens: list[tuple[int, ...]], w: tuple[int, ...]) -> bool:
    """Test-local divisibility membership, independent of package internals."""
    for g in gens:
        if all(ge <= we for ge, we in zip(g, w)):
            return True
    return False


def reference_minimal(cands) -> list[tuple[int, ...]]:
    """Antichain of divisibility-minimal exponent tuples, canonically sorted.

    The tuple-by-tuple filter the library used before its packed kernel:
    candidates in (degree, lex with the leading variable largest) order, each
    tested against the kept ones of lower degree.
    """

    def divides(a, b) -> bool:
        for x, y in zip(a, b):
            if x > y:
                return False
        return True

    ordered = sorted(set(cands), key=lambda t: (sum(t), tuple(-e for e in t)))
    kept: list[tuple[int, ...]] = []
    kept_degs: list[int] = []
    for t in ordered:
        deg = sum(t)
        dominated = False
        for kd, k in zip(kept_degs, kept):
            if kd >= deg:
                # later candidates have degree >= kd; an equal-degree divisor
                # would be equal, and duplicates are already removed
                break
            if divides(k, t):
                dominated = True
                break
        if not dominated:
            kept.append(t)
            kept_degs.append(deg)
    return kept


def random_ideal(
    rng: random.Random, ring: RingContext, max_gens: int = 6, max_exp: int = 4
) -> MonomialIdeal:
    d = ring.var_count
    n_gens = rng.randint(1, max_gens)
    gens = [
        Monomial(tuple(rng.randint(0, max_exp) for _ in range(d)))
        for _ in range(n_gens)
    ]
    return minimalize(gens, ring)


def reference_numerator(ideal: MonomialIdeal) -> IntPolynomial:
    """Hilbert numerator K(A/I) by the degree-1 pivot recursion.

    Splits on the first variable x lying in two or more generator supports,
    K(A/I) = K(A/(I + (x))) + z * K(A/(I : x)), down to complete
    intersections.  Independent of the library's pivot and minimalization.
    """
    d = ideal.ring.var_count
    memo: dict[tuple[tuple[int, ...], ...], IntPolynomial] = {}

    def minimal(cands) -> tuple[tuple[int, ...], ...]:
        cands = set(cands)
        return tuple(
            sorted(g for g in cands if not member([h for h in cands if h != g], g))
        )

    def numerator(gens: tuple[tuple[int, ...], ...]) -> IntPolynomial:
        if gens in memo:
            return memo[gens]
        shared = [i for i in range(d) if sum(1 for g in gens if g[i] > 0) >= 2]
        if not shared:
            result = IntPolynomial([1])
            for g in gens:
                factor = [0] * (sum(g) + 1)
                factor[0] = 1
                factor[-1] -= 1
                result = result * IntPolynomial(factor)
        else:
            x = shared[0]
            unit = tuple(1 if i == x else 0 for i in range(d))
            plus = minimal([g for g in gens if g[x] == 0] + [unit])
            colon = minimal(g[:x] + (max(g[x] - 1, 0),) + g[x + 1 :] for g in gens)
            result = numerator(plus) + numerator(colon).shift(1)
        memo[gens] = result
        return result

    return numerator(minimal(g.exponents for g in ideal.gens))


def hilbert_function_oracle(ideal: MonomialIdeal, degree_bound: int) -> list[int]:
    """Count monomials of each degree <= degree_bound outside the ideal.

    Exhaustive enumeration on plain exponent tuples, sharing no code with
    the packed kernel or the numerator recursion it checks; not for large
    inputs.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    gens = [g.exponents for g in ideal.gens]
    d = ideal.ring.var_count
    return [
        sum(not member(gens, exps) for exps in compositions(t, d))
        for t in range(degree_bound + 1)
    ]


def compositions(total: int, parts: int):
    """Every exponent vector with ``parts`` entries summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def expand_numerator(numerator: IntPolynomial, ambient_d: int, degree_bound: int) -> list[int]:
    """Power-series coefficients of K(z)/(1-z)^d up to degree_bound."""
    out = []
    for t in range(degree_bound + 1):
        total = 0
        for j, c in enumerate(numerator.coeffs):
            if j > t:
                break
            total += c * comb(t - j + ambient_d - 1, ambient_d - 1)
        out.append(total)
    return out
