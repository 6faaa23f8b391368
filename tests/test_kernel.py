"""The packed monomial kernel against oracles on exponent tuples.

The packed field width grows with d times the largest exponent a call can
produce, so exponents are drawn both from small random values and from the
field boundaries 0, 1, 2^k - 1 and 2^k, and products are taken that carry
across a power of two.
"""
from __future__ import annotations

import random
from itertools import combinations

import pytest

from satpow import (
    IntPolynomial, Monomial, RingContext, divides, minimalize, numerator_of_quotient, symbolic_power,
)
from satpow.core import Packing, Row
from satpow.hilbert import _LEAF_GENS, _pick_pivot

from conftest import colon_monomial, reference_minimal, reference_numerator

NAMES = ("a", "b", "c", "d", "e", "f", "g")
BOUNDARY = sorted({0, 1} | {2**k - 1 for k in range(1, 15)} | {2**k for k in range(1, 15)})


def ring(d: int) -> RingContext:
    return RingContext(NAMES[:d])


def exps_of(ideal) -> list[tuple[int, ...]]:
    return [g.exponents for g in ideal.gens]


def pools(rng: random.Random) -> list[list[int]]:
    """Exponent pools: small values, all boundaries, and one k's neighbourhood."""
    k = rng.randint(1, 14)
    return [list(range(5)), BOUNDARY, [0, 1, 2**k - 1, 2**k]]


def random_gens(rng: random.Random, d: int, pool: list[int]) -> list[tuple[int, ...]]:
    return [tuple(rng.choice(pool) for _ in range(d)) for _ in range(rng.randint(1, 6))]


def instances(seed: int, per_shape: int):
    """(ring, gens of A, gens of B, exponents of a monomial) over 1..7 variables."""
    rng = random.Random(seed)
    for d in range(1, 8):
        for _ in range(per_shape):
            for pool in pools(rng):
                a, b = random_gens(rng, d, pool), random_gens(rng, d, pool)
                yield ring(d), a, b, tuple(rng.choice(pool) for _ in range(d))


def build(r: RingContext, gens: list[tuple[int, ...]]):
    return minimalize([Monomial(g) for g in gens], r)


def member(gens, w) -> bool:
    return any(all(x <= y for x, y in zip(g, w)) for g in gens)


def test_minimalize_matches_oracle():
    for r, a, b, _ in instances(101, 12):
        assert exps_of(build(r, a)) == reference_minimal(a)
        assert exps_of(build(r, a + b)) == reference_minimal(a + b)


def test_multiply_matches_oracle():
    for r, a, b, _ in instances(103, 12):
        ra, rb = reference_minimal(a), reference_minimal(b)
        expected = reference_minimal(
            tuple(x + y for x, y in zip(g, h)) for g in ra for h in rb
        )
        assert exps_of(build(r, a).multiply(build(r, b))) == expected


def test_intersect_matches_oracle():
    for r, a, b, _ in instances(107, 12):
        ra, rb = reference_minimal(a), reference_minimal(b)
        expected = reference_minimal(
            tuple(max(x, y) for x, y in zip(g, h)) for g in ra for h in rb
        )
        assert exps_of(build(r, a).intersect(build(r, b))) == expected


def test_colon_monomial_matches_oracle():
    for r, a, _, m in instances(109, 12):
        expected = reference_minimal(
            tuple(max(x - y, 0) for x, y in zip(g, m)) for g in reference_minimal(a)
        )
        assert exps_of(colon_monomial(build(r, a), Monomial(m))) == expected


def test_saturate_monomial_matches_oracle():
    for r, a, _, m in instances(113, 12):
        expected = reference_minimal(
            tuple(0 if y > 0 else x for x, y in zip(g, m)) for g in reference_minimal(a)
        )
        assert exps_of(build(r, a).saturate_monomial(Monomial(m))) == expected


def test_split_matches_oracle():
    for r, a, _, _ in instances(137, 12):
        i = build(r, a)
        pk, gens = Packing.of(i)
        exps = exps_of(i)
        for v in range(r.var_count):
            for k in {0, 1} | {g[v] for g in exps} | {max(g[v] - 1, 0) for g in exps}:
                power = tuple(k if j == v else 0 for j in range(r.var_count))
                if member(exps, power):
                    continue  # outside the precondition of split
                plus, colon = pk.split(gens, v, k)
                assert list(map(pk.unpack, plus)) == reference_minimal(exps + [power])
                expected = reference_minimal(
                    g[:v] + (max(g[v] - k, 0),) + g[v + 1 :] for g in exps
                )
                assert list(map(pk.unpack, colon)) == expected
    # the quotient y of x^2*y, from exponent exactly k = 2, divides y^2
    pk, gens = Packing.of(build(ring(2), [(2, 1), (0, 2)]))
    plus, colon = pk.split(gens, 0, 2)
    assert list(map(pk.unpack, plus)) == [(2, 0), (0, 2)]
    assert list(map(pk.unpack, colon)) == [(0, 1)]


def test_pivot_power_is_never_in_the_ideal():
    for r, a, b, _ in instances(149, 12):
        i = build(r, a + b)
        pk, gens = Packing.of(i)
        pivot, k = _pick_pivot(gens, pk)
        if pivot >= 0:
            power = tuple(k if j == pivot else 0 for j in range(r.var_count))
            assert k > 0 and not member(exps_of(i), power)


def folded(i_gens, j_gens, part) -> list[tuple[int, ...]]:
    """The intersection over m in J of the ideals generated by part(g, m), on tuples."""
    result = None
    for m in j_gens:
        gens = reference_minimal(tuple(map(part, g, m)) for g in i_gens)
        if result is not None:
            gens = reference_minimal(tuple(map(max, g, h)) for g in result for h in gens)
        result = gens
    return result


def test_colon_and_saturate_ideal_match_a_tuple_fold():
    rng = random.Random(151)
    for r, a, _, _ in instances(151, 6):
        d, top = r.var_count, max(map(max, a))
        if d == 1:
            continue  # one variable has no antichain of two generators
        k = top.bit_length() + rng.randint(0, 2)
        above = [0, 1, 2**k - 1, 2**k]  # J exponents at or past the next field boundary
        rj: list[tuple[int, ...]] = []
        while not 2 <= len(rj) <= 4:
            rj = reference_minimal(tuple(rng.choice(above) for _ in range(d)) for _ in range(4))
        i, j = build(r, a), build(r, rj)
        ri = reference_minimal(a)
        colon = folded(ri, rj, lambda x, y: max(x - y, 0))
        saturation = folded(ri, rj, lambda x, y: 0 if y else x)
        assert exps_of(i.colon_ideal(j)) == colon
        assert exps_of(i.saturate_ideal(j)) == saturation


def test_symbolic_power_matches_the_fold():
    # (I^n : J^inf) from the localized power ladders against saturating I^n;
    # the fixed saturators have nested supports, duplicate supports, the unit
    # ideal, and a support that localizes I to the unit ideal
    rng = random.Random(157)
    for _ in range(40):
        d = rng.randint(2, 4)
        r = ring(d)
        a = [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(rng.randint(1, 4))]
        g = rng.choice(a)
        x = [tuple(int(j == v) for j in range(d)) for v in range(d)]
        saturators = [
            [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(rng.randint(1, 3))],
            [x[0], tuple(map(max, x[0], x[1]))],
            [(2, 1) + (0,) * (d - 2), (1, 3) + (0,) * (d - 2)],
            [(0,) * d],
            [tuple(min(e, 1) for e in g), rng.choice(x)],
        ]
        i = build(r, a)
        for sj in saturators:
            j = build(r, sj)
            for n in range(5):
                assert symbolic_power(i, j, n) == i.power(n).saturate_ideal(j), (a, sj, n)


ROW_LENGTHS = (0, 1, 2, 63, 64, 65, 600)


def row_divisor(rng: random.Random, pool: list[int], p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(rng.choice([e for e in pool if e <= x]) for x in p)


def row_non_divisor(rng: random.Random, pool: list[int], p: tuple[int, ...]) -> tuple[int, ...]:
    """A vector over ``pool`` above ``p`` in one variable, by the least step the pool allows."""
    j = rng.choice([i for i, x in enumerate(p) if x < pool[-1]])
    g = [rng.choice(pool) for _ in p]
    g[j] = min(e for e in pool if e > p[j])
    return tuple(g)


def test_row_matches_a_tuple_oracle():
    # Packings whose degree field ends on a byte boundary (top + width a
    # multiple of 8) or one bit below it, where the spare bit of a slot sits
    # on the last bit of a byte, plus one at random; rows around 64 elements
    # and one of 600, with the only divisor first, in the middle or last.
    rng = random.Random(163)
    residues = set()
    for d in range(1, 8):
        aligned = [m for m in BOUNDARY[1:] if (Packing(d, m).top + Packing(d, m).width) % 8 in (0, 7)]
        for max_exp in {aligned[0], aligned[-1], rng.choice(aligned), rng.choice(BOUNDARY[1:])}:
            pk = Packing(d, max_exp)
            residues.add((pk.top + pk.width) % 8)
            pool = [e for e in BOUNDARY if e <= max_exp]
            for length in ROW_LENGTHS:
                p = [rng.choice(pool) for _ in range(d)]
                p[rng.randrange(d)] = rng.choice(pool[:-1])
                p = tuple(p)
                misses = [row_non_divisor(rng, pool, p) for _ in range(length)]
                anything = [tuple(rng.choice(pool) for _ in range(d)) for _ in range(length)]
                rows = [misses, anything] + [
                    misses[:at] + [row_divisor(rng, pool, p)] + misses[at:]
                    for at in {0, length // 2, length}
                ]
                for gens in rows:
                    packed = list(map(pk.pack, gens))
                    expected = member(gens, p)
                    assert Row(pk, packed).has_divisor(pk.pack(p)) == expected, (d, max_exp, len(gens))
                    half = len(packed) // 2
                    appended = Row(pk, packed[:half])
                    for g in packed[half:]:
                        appended.append(g)
                    assert appended.has_divisor(pk.pack(p)) == expected, (d, max_exp, len(gens))
    assert {0, 7} <= residues


def test_contains_matches_oracle():
    for r, a, b, m in instances(127, 12):
        i, ra = build(r, a), reference_minimal(a)
        for w in b + [m]:
            assert i.contains(Monomial(w)) == member(ra, w)
            assert divides(Monomial(w), Monomial(m)) == member([w], m)
        assert i.contains_ideal(build(r, b)) == all(member(ra, w) for w in b)


@pytest.mark.parametrize("low, high", [(127, 1), (255, 255), (2**14 - 1, 1), (2**14, 2**14)])
@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_products_that_carry_across_a_boundary(low, high, d):
    r = ring(d)
    x_low = build(r, [(low,) + (0,) * (d - 1)])
    x_high = build(r, [(high,) + (0,) * (d - 1)])
    assert exps_of(x_low.multiply(x_high)) == [(low + high,) + (0,) * (d - 1)]
    # every variable at the boundary, so the degree crosses one as well
    full_low = build(r, [(low,) * d, (low + 1,) + (0,) * (d - 1)])
    full_high = build(r, [(high,) * d])
    expected = reference_minimal(
        tuple(x + y for x, y in zip(g, h))
        for g in reference_minimal([(low,) * d, (low + 1,) + (0,) * (d - 1)])
        for h in [(high,) * d]
    )
    product = full_low.multiply(full_high)
    assert exps_of(product) == expected
    assert product.contains(Monomial((low + high,) * d))
    assert not product.contains(Monomial((low + high - 1,) + (low + high,) * (d - 1)))


def test_numerators_at_boundary_exponents_match_oracle():
    rng = random.Random(131)
    for d in (1, 2, 3):
        for k in range(1, 7):
            pool = [0, 1, 2**k - 1, 2**k]
            for _ in range(4):
                i = build(ring(d), random_gens(rng, d, pool)[:3])
                assert numerator_of_quotient(i) == reference_numerator(i)


def subset_sum_numerator(gens: list[tuple[int, ...]]) -> IntPolynomial:
    """K as the sum over subsets S of the generators of (-1)^|S| z^(deg lcm S)."""
    coeffs = [0] * (sum(map(max, zip(*gens))) + 1)
    for r in range(len(gens) + 1):
        for s in combinations(gens, r):
            coeffs[sum(map(max, zip(*s))) if s else 0] += (-1) ** r
    return IntPolynomial(coeffs)


def test_numerators_past_the_leaves_at_boundary_exponents():
    # The degree-1 oracle recurses about 2^k deep, past the default recursion
    # limit from k = 9 on; the subset sum, on tuples, serves every k.
    rng = random.Random(139)
    for d in (3, 4):
        for k in range(1, 15):
            pool = [0, 1, 2**k - 1, 2**k]
            for _ in range(2):
                while True:
                    gens = [tuple(rng.choice(pool) for _ in range(d)) for _ in range(16)]
                    i = build(ring(d), gens)
                    if _LEAF_GENS < len(i.gens) <= 9:
                        break
                num = numerator_of_quotient(i)
                assert num == subset_sum_numerator(exps_of(i))
                if k <= 8:
                    assert num == reference_numerator(i)
