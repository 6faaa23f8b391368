"""The packed monomial kernel against oracles on exponent tuples.

The packed field width grows with d times the largest exponent a call can
produce, so exponents are drawn both from small random values and from the
field boundaries 0, 1, 2^k - 1 and 2^k, and products are taken that carry
across a power of two.
"""
from __future__ import annotations

import random
from functools import reduce
from itertools import combinations, product
from operator import add
from pathlib import Path

import pytest

from satpow import (
    MonomialIdeal, Numerator, RingContext, minimalize, numerator_of_quotient, sample_series, symbolic_power,
)
from satpow import core
from satpow.cli import default_corpus_path
from satpow.core import Packing, Row
from satpow.harness import run_verify
from satpow.parsing import load_corpus, load_ideal_file

from conftest import (
    as_numerator, colon_monomial, contains, contains_ideal, member, reference_minimal, reference_numerator,
)

NAMES = ("a", "b", "c", "d", "e", "f", "g")
BOUNDARY = sorted({0, 1} | {2**k - 1 for k in range(1, 15)} | {2**k for k in range(1, 15)})


def ring(d: int) -> RingContext:
    return RingContext(NAMES[:d])


def exps_of(ideal) -> list[tuple[int, ...]]:
    return list(ideal.gens)


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
    return minimalize(gens, r)


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
        assert exps_of(colon_monomial(build(r, a), m)) == expected


def test_saturate_monomial_matches_oracle():
    for r, a, _, m in instances(113, 12):
        expected = reference_minimal(
            tuple(0 if y > 0 else x for x, y in zip(g, m)) for g in reference_minimal(a)
        )
        assert exps_of(build(r, a).saturate_monomial(m)) == expected


def folded(i_gens, j_gens, part) -> list[tuple[int, ...]]:
    """The intersection over m in J of the ideals generated by part(g, m), on tuples."""
    result = None
    for m in j_gens:
        gens = reference_minimal(tuple(map(part, g, m)) for g in i_gens)
        if result is not None:
            gens = reference_minimal(tuple(map(max, g, h)) for g in result for h in gens)
        result = gens
    return result


def meet(*ideals: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The intersection of ideals given by canonical generators, on tuples."""
    return reduce(
        lambda a, b: reference_minimal(tuple(map(max, g, h)) for g in a for h in b), ideals
    )


def check_colon_and_saturation(r: RingContext, ri: list, rj: list):
    """Colon, saturation and localizations of I by J against tuple folds.

    The localizations must be saturations of I by single generators of J's
    radical, pairwise not contained in one another (so distinct), with the
    saturation as their intersection.
    """
    i, j = build(r, ri), build(r, rj)
    saturation = folded(ri, rj, lambda x, y: 0 if y else x)
    assert exps_of(i.colon_ideal(j)) == folded(ri, rj, lambda x, y: max(x - y, 0))
    assert exps_of(i.saturate_ideal(j)) == saturation
    pk, _, parts = i.packed_localizations(j)
    locs = [list(map(pk.unpack, p)) for p in parts]
    singles = [folded(ri, [m], lambda x, y: 0 if y else x) for m in rj]
    assert all(loc in singles for loc in locs)
    for a, b in combinations(locs, 2):
        assert not all(member(a, g) for g in b) and not all(member(b, g) for g in a)
    assert meet(*locs) == saturation


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
        check_colon_and_saturation(r, reference_minimal(a), rj)
    # (I : x_S^e) with e the largest exponent of I puts |S| * e in the degree
    # field: saturate by one full-support generator (|S| = d) and by the
    # maximal ideal (|S| = 1), with I exponents at a field boundary
    for d in range(1, 8):
        for k in range(1, 15):
            pool = [0, 1, 2**k - 1, 2**k]
            ri: list[tuple[int, ...]] = []
            while not ri or d > 1 and len(ri) < 2:
                ri = reference_minimal(tuple(rng.choice(pool) for _ in range(d)) for _ in range(5))
            full = tuple(rng.choice([1, 2**k - 1, 2**k]) for _ in range(d))
            maximal = [tuple(int(v == u) for v in range(d)) for u in range(d)]
            check_colon_and_saturation(ring(d), ri, [full])
            check_colon_and_saturation(ring(d), ri, maximal)
    for entry in load_corpus(default_corpus_path()):
        pair = entry.pair
        check_colon_and_saturation(pair.base.ring, exps_of(pair.base), exps_of(pair.saturator))


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
    # The lcms of each row with p are checked in the same packings.
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
                    extended = Row(pk, packed[:half])
                    for block in (packed[half : half + 1], packed[half + 1 : half + 3], packed[half + 3 :]):
                        extended.extend(block)
                    assert extended.has_divisor(pk.pack(p)) == expected, (d, max_exp, len(gens))
                    for g, lcm in zip(gens, pk.lcms(packed, pk.pack(p))):
                        joined = tuple(map(max, g, p))
                        assert pk.unpack(lcm) == joined and lcm >> pk.top == sum(joined), (d, max_exp, g, p)
                        assert not lcm & pk.guard
    assert {0, 7} <= residues


def test_row_from_blocks_equals_the_row_from_one_call():
    # a row filled by blocks, empty ones among them, holds the same ints,
    # masks included, as one filled by its constructor in one call
    rng = random.Random(167)
    for d in (1, 3, 7):
        pk = Packing(d, 2**13)
        pool = [e for e in BOUNDARY if e <= 2**13]
        packed = [pk.pack(tuple(rng.choice(pool) for _ in range(d))) for _ in range(130)]
        whole = Row(pk, packed)
        pieces = Row(pk, [])
        for block in ([], packed[:1], packed[1:64], [], packed[64:65], packed[65:], []):
            pieces.extend(block)
        assert [getattr(pieces, name) for name in Row.__slots__] == [getattr(whole, name) for name in Row.__slots__]
        for p in packed[::13]:
            assert pieces.has_divisor(p) and whole.has_divisor(p)


def packed_minimal(d: int, cands: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    pk = Packing(d, max(map(max, cands)))
    return list(map(pk.unpack, pk.minimal(map(pk.pack, cands))))


def test_minimal_at_degree_block_boundaries():
    # Elements kept at one degree join the row as one block before the next
    # degree is tested. The first candidate of degree 2, y*z, has one
    # divisor, z, the last element kept at degree 1.
    assert packed_minimal(3, [(0, 0, 1), (0, 1, 1), (1, 0, 0), (0, 0, 2), (0, 3, 0)]) == [
        (1, 0, 0), (0, 0, 1), (0, 3, 0)
    ]
    # An equigenerated list keeps all its distinct elements, in canonical order.
    cubics = [t for t in product(range(4), repeat=3) if sum(t) == 3]
    shuffled = cubics * 2
    random.Random(167).shuffle(shuffled)
    assert packed_minimal(3, shuffled) == sorted(cubics, reverse=True)
    # Duplicates of kept and of dropped elements at several degrees.
    cands = [(2, 0), (0, 1), (2, 1), (0, 1), (3, 0), (2, 0), (1, 1), (2, 1), (0, 3), (1, 1), (3, 0)]
    assert packed_minimal(2, cands) == [(0, 1), (2, 0)] == reference_minimal(cands)
    rng = random.Random(173)
    for d in range(1, 5):
        for _ in range(50):
            cands = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(1, 30))]
            assert packed_minimal(d, cands + cands[::2]) == reference_minimal(cands)


def test_minimal_tests_no_candidate_against_an_empty_row(monkeypatch):
    # the first degree has no kept element below it, so a list of one degree,
    # like the sums of a product of equigenerated ideals, takes no test at all
    calls = []
    has_divisor = Row.has_divisor
    monkeypatch.setattr(Row, "has_divisor", lambda row, p: calls.append(p) or has_divisor(row, p))
    cubics = [t for t in product(range(4), repeat=4) if sum(t) == 3]
    assert packed_minimal(4, cubics) == sorted(cubics, reverse=True)
    assert calls == []
    r = ring(4)
    square = build(r, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)])
    assert len(square.multiply(square).gens) == 9
    assert calls == []
    # a second degree tests each of its candidates once
    assert packed_minimal(2, [(1, 0), (0, 1), (2, 0), (1, 1), (0, 3)]) == [(1, 0), (0, 1)]
    assert len(calls) == 3


def test_contains_matches_oracle():
    for r, a, b, m in instances(127, 12):
        i, ra = build(r, a), reference_minimal(a)
        for w in b + [m]:
            assert contains(i, w) == member(ra, w)
            assert contains(build(r, [w]), m) == member([w], m)
        assert contains_ideal(i, build(r, b)) == all(member(ra, w) for w in b)


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
    assert contains(product, (low + high,) * d)
    assert not contains(product, (low + high - 1,) + (low + high,) * (d - 1))


def test_numerators_at_boundary_exponents_match_oracle():
    rng = random.Random(131)
    for d in (1, 2, 3):
        for k in range(1, 7):
            pool = [0, 1, 2**k - 1, 2**k]
            for _ in range(4):
                i = build(ring(d), random_gens(rng, d, pool)[:3])
                assert numerator_of_quotient(i) == reference_numerator(i)
    # one generator on each block of a random partition of the variables,
    # positive there, so the supports are pairwise disjoint: a complete
    # intersection, pure powers among them, which the oracle takes as a product
    for d in range(1, 8):
        for k in range(1, 7):
            pool = [1, 2**k - 1, 2**k]
            for _ in range(2):
                owner = [rng.randrange(d) for _ in range(d)]
                gens = [tuple(rng.choice(pool) if owner[v] == b else 0 for v in range(d)) for b in set(owner)]
                i = build(ring(d), gens)
                assert numerator_of_quotient(i) == reference_numerator(i)


def subset_sum_numerator(gens: list[tuple[int, ...]]) -> Numerator:
    """K as the sum over subsets S of the generators of (-1)^|S| z^(deg lcm S)."""
    coeffs = [0] * (sum(map(max, zip(*gens))) + 1)
    for r in range(len(gens) + 1):
        for s in combinations(gens, r):
            coeffs[sum(map(max, zip(*s))) if s else 0] += (-1) ** r
    return as_numerator(coeffs)


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
                    if 5 < len(i.gens) <= 9:
                        break
                num = numerator_of_quotient(i)
                assert num == subset_sum_numerator(exps_of(i))
                if k <= 8:
                    assert num == reference_numerator(i)


# ---------------------------------------------------------------------------
# The level sweep: intersections and products in at most three fields
# ---------------------------------------------------------------------------

def in_active(rng: random.Random, d: int, active: list[int], pool: list[int], count: int) -> list[tuple[int, ...]]:
    """``count`` exponent vectors of ``d`` variables over ``pool``, zero outside ``active``."""
    out = []
    for _ in range(count):
        e = [0] * d
        for v in active:
            e[v] = rng.choice(pool)
        out.append(tuple(e))
    return out


def pure_power(d: int, v: int, e: int) -> tuple[int, ...]:
    return tuple(e if u == v else 0 for u in range(d))


def sweep_shapes(seed: int):
    """(ring, parts) with 1, 2 and 3 active variables in rings of 3 to 6 variables.

    Besides random parts, each shape gets the unit ideal, the zero ideal,
    pure powers of the active variables, parts that share the levels of
    their first active variable, and a part that contains another.
    """
    rng = random.Random(seed)
    for d in range(3, 7):
        for k in (1, 2, 3):
            for _ in range(6):
                active = sorted(rng.sample(range(d), k))
                if d == 4 and k == 3 and rng.random() < 0.5:
                    active = [0, 1, 2]  # as in c3-triangle-cylinder, the last variable unused
                pool = rng.choice([list(range(5)), [0, 1, 2, 3, 5, 8], [0, 1, 2**7 - 1, 2**7]])
                a = reference_minimal(in_active(rng, d, active, pool, rng.randint(1, 12)))
                b = reference_minimal(in_active(rng, d, active, pool, rng.randint(1, 12)))
                powers = reference_minimal(pure_power(d, v, rng.choice(pool[1:])) for v in active)
                levels = sorted({g[active[0]] for g in a})  # shared's points sit on a's levels
                shared = reference_minimal(
                    tuple(rng.choice(levels) if u == active[0] else x for u, x in enumerate(g))
                    for g in in_active(rng, d, active, pool, rng.randint(1, 12))
                )
                bigger = reference_minimal(a + in_active(rng, d, active, pool, 3))  # contains a
                yield ring(d), [a, b]
                yield ring(d), [a, shared, powers]
                yield ring(d), [bigger, a]
                yield ring(d), [a, [(0,) * d], b]
                yield ring(d), [a, [], b]
                yield ring(d), [powers, b, a]


def power_oracle(gens: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Canonical generators of the ``n``-th power, n >= 1, by pairwise sums on tuples."""
    result = gens
    for _ in range(n - 1):
        result = reference_minimal(tuple(map(add, g, h)) for g in result for h in gens)
    return result


def test_sweep_intersections_match_the_pair_oracle():
    for r, parts in sweep_shapes(181):
        ideals = [build(r, p) for p in parts]
        assert exps_of(ideals[0].intersect(*ideals[1:])) == meet(*parts), parts
        assert exps_of(ideals[1].intersect(ideals[0])) == meet(parts[1], parts[0]), parts


def test_sweep_colons_and_saturations_match_a_tuple_fold():
    for r, parts in sweep_shapes(191):
        ri, rj = parts[0], parts[-1]
        if rj:
            check_colon_and_saturation(r, ri, rj)


def test_sweep_symbolic_powers_match_the_fold():
    for r, parts in sweep_shapes(193):
        ri, rj = parts[0], parts[-1]
        if not ri or not rj or max(map(max, ri + rj)) > 8:
            continue  # the zero ideal has no symbolic powers; keep the tuple oracle small
        i, j = build(r, ri), build(r, rj)
        for n in (1, 2, 3):
            expected = folded(power_oracle(ri, n), rj, lambda x, y: 0 if y else x)
            assert exps_of(symbolic_power(i, j, n)) == expected, (ri, rj, n)


def test_sweep_products_and_powers_match_pairwise_sums():
    rng = random.Random(197)
    for r, parts in sweep_shapes(199):
        d = r.var_count
        a, b = parts[0], parts[1]
        expected = reference_minimal(tuple(map(add, g, h)) for g in a for h in b)
        assert exps_of(build(r, a).multiply(build(r, b))) == expected, (a, b)
        # operands of one degree each: sums of one degree, the filter that tests nothing
        active = [v for v in range(d) if any(g[v] for g in a + b)] or [0]
        equi = [[g for g in in_active(rng, d, active, list(range(6)), 10) if sum(g) == deg] for deg in (3, 4)]
        if all(equi):
            ea, eb = map(reference_minimal, equi)
            expected = reference_minimal(tuple(map(add, g, h)) for g in ea for h in eb)
            assert exps_of(build(r, ea).multiply(build(r, eb))) == expected, (ea, eb)
        if a and max(map(max, a)) <= 8:
            for n in (2, 3):
                assert exps_of(build(r, a).power(n)) == power_oracle(a, n), (a, n)


def edge_graph() -> MonomialIdeal:
    """The edge ideal of the 6-cycle 0-1-2-4-5-3-0 with the chords 0-2, 0-4 and 1-3."""
    edges = [(0, 1), (1, 2), (2, 4), (4, 5), (5, 3), (3, 0), (0, 2), (0, 4), (1, 3)]
    return build(ring(6), [tuple(int(v in e) for v in range(6)) for e in edges])


def test_sweep_meets_take_no_lcm_pairs(monkeypatch):
    def fail(*args):
        raise AssertionError("lcm pairs")

    def active(i: MonomialIdeal) -> int:
        return sum(any(g[v] for g in i.gens) for v in range(i.ring.var_count))

    swept = [e.pair for e in load_corpus(default_corpus_path()) if active(e.pair.base) <= 3]
    graph = edge_graph()
    maximal = build(ring(6), [pure_power(6, v, 1) for v in range(6)])
    monkeypatch.setattr(Packing, "intersection", fail)
    # nine entries, c3-triangle-cylinder among them with one of four variables unused
    assert len(swept) == 9 and {p.base.ring.var_count for p in swept} == {2, 3, 4}
    for p in swept:
        for n in (1, 2, 5):
            symbolic_power(p.base, p.saturator, n)
        p.base.colon_ideal(p.saturator)
        p.base.intersect(p.saturator, p.base.power(2))
    for r, parts in sweep_shapes(211):
        build(r, parts[0]).intersect(*(build(r, q) for q in parts[1:]))
    # six active variables still take the lcm pairs
    with pytest.raises(AssertionError, match="lcm pairs"):
        symbolic_power(graph, maximal, 2)


def test_each_fold_step_filters_its_candidates_once(monkeypatch):
    # each side keeps at least two generators outside the other, so every
    # step takes lcm pairs, and both operand orders run, so that remainders
    # of unequal length come in both orders
    rng = random.Random(251)
    outside = lambda x, y: sum(not member(y, g) for g in x)  # generators of x outside the ideal of y
    pairs = []
    while len(pairs) < 60:
        d = rng.randint(4, 6)
        pool = rng.choice([list(range(4)), [0, 1, 2, 3, 5, 8], [0, 1, 2**7 - 1, 2**7]])
        a, b = (reference_minimal(random_gens(rng, d, pool) + random_gens(rng, d, pool)) for _ in range(2))
        if outside(a, b) >= 2 and outside(b, a) >= 2:
            pairs.append((a, b, Packing.of(build(ring(d), a), build(ring(d), b))))
    assert sum(outside(a, b) != outside(b, a) for a, b, _ in pairs) > 20
    calls = []
    real = Packing.minimal

    def spy(pk, cands):
        calls.append(1)
        return real(pk, cands)

    monkeypatch.setattr(Packing, "minimal", spy)
    for a, b, (pk, packed_a, packed_b) in pairs:
        for x, y, packed_x, packed_y in ((a, b, packed_a, packed_b), (b, a, packed_b, packed_a)):
            calls.clear()
            assert list(map(pk.unpack, pk.intersection(packed_x, packed_y))) == meet(x, y), (x, y)
            assert len(calls) == 1, (x, y)


def split_shapes(seed: int):
    """(ring, generators of the parts) in 4 to 7 variables, for meets past three fields.

    Besides random parts, some shapes get the unit ideal, the zero ideal, a
    part whose generators share one level of the first variable, or a part
    containing another.
    """
    rng = random.Random(seed)
    for _ in range(100):
        d = rng.randint(4, 7)
        pool = rng.choice([list(range(4)), [0, 1, 2, 3, 5, 8], [0, 1, 2**7 - 1, 2**7]])
        gens = lambda: [g for _ in range(3) for g in random_gens(rng, d, pool)]  # up to 18 generators
        parts = [reference_minimal(gens()) for _ in range(rng.randint(2, 5))]
        extra = rng.choice([None, "unit", "zero", "level", "bigger"])
        if extra == "unit":
            parts.append([(0,) * d])
        elif extra == "zero":
            parts.append([])
        elif extra == "level":
            c = rng.choice(pool)
            parts.append(reference_minimal((c,) + g[1:] for g in gens()))
        elif extra == "bigger":
            parts.append(reference_minimal(parts[0] + gens()))
        rng.shuffle(parts)
        yield ring(d), parts


def test_levels_match_a_tuple_oracle():
    # levels come at exactly the w of the parts' generators, each with w^c
    # packed, and each part's set is its generators with w <= c, w zeroed,
    # minimalized
    shapes = [(r, [reference_minimal(a), reference_minimal(b)]) for r, a, b, _ in instances(239, 4)]
    shapes += list(split_shapes(241))
    checked = 0
    for r, parts in shapes:
        used = [v for v in range(r.var_count) if any(g[v] for p in parts for g in p)]
        if not used:
            continue  # no active field to walk
        w = used[0]
        pk, *packed = Packing.of(*(build(r, p) for p in parts))
        seen = []
        for c, w_c, sets in pk.levels(packed):
            seen.append(c)
            assert pk.unpack(w_c) == tuple(c if v == w else 0 for v in range(r.var_count))
            assert w_c >> pk.top == c  # the degree field
            assert len(sets) == len(parts)
            for p, got in zip(parts, sets):
                assert isinstance(got, tuple)
                expected = reference_minimal(g[:w] + (0,) + g[w + 1:] for g in p if g[w] <= c)
                assert list(map(pk.unpack, got)) == expected, (parts, c)
        assert seen == sorted({g[w] for p in parts for g in p})
        checked += 1
    assert checked > 150


@pytest.mark.parametrize("threshold", [0, 5, 30])
def test_split_meets_match_the_fold_and_membership(monkeypatch, threshold):
    # a low crossover splits meets of a few generators, and recursive meets
    # mix the split, the lcm-pair fold and the level sweep.  Every meet must
    # be handed canonical parts, the level sets of the split among them
    real = Packing.meet

    def canonical(pk, parts):
        parts = list(parts)
        assert all(list(p) == pk.minimal(p) for p in parts), "a part is not canonical"
        return real(pk, parts)

    monkeypatch.setattr(core, "_SPLIT_MEET_GENS", threshold)
    monkeypatch.setattr(Packing, "meet", canonical)
    rng = random.Random(223 + threshold)
    for r, parts in split_shapes(227 + threshold):
        d = r.var_count
        pk, *packed = Packing.of(*(build(r, p) for p in parts))
        met = list(map(pk.unpack, pk.meet(packed)))
        assert met == list(map(pk.unpack, reduce(pk.intersection, packed))), parts
        top = max(max(map(max, p), default=0) for p in parts)
        probes = [tuple(rng.randint(0, top) for _ in range(d)) for _ in range(40)]
        probes += [tuple(e - (u == v) for u, e in enumerate(g)) for g in met for v in range(d) if g[v]]
        for w in probes:
            assert member(met, w) == all(member(p, w) for p in parts), (parts, w)


def test_meets_split_past_three_fields_above_the_crossover(monkeypatch):
    # the edge graph's five localized ladders at n = 6 hold 546 generators
    # in six fields, and the corpus's largest meet past three fields at
    # --nmax 20 holds 84, so it keeps the lcm-pair fold
    split = []
    real = Packing._split_meet

    def spy(pk, parts):
        split.append((len(pk._active_fields(parts)), sum(map(len, parts))))
        return real(pk, parts)

    monkeypatch.setattr(Packing, "_split_meet", spy)
    maximal = build(ring(6), [pure_power(6, v, 1) for v in range(6)])
    symbolic_power(edge_graph(), maximal, 6)
    assert split[0] == (6, 546)
    assert all(fields > 3 and gens >= core._SPLIT_MEET_GENS for fields, gens in split)
    split.clear()
    run_verify(load_corpus(default_corpus_path()), nmax=20, min_tail=2)
    assert split == []


# ---------------------------------------------------------------------------
# The rungs of powers
# ---------------------------------------------------------------------------

def counted_products(monkeypatch) -> list[int]:
    """A list that grows by one at every later ``Packing.product`` call."""
    calls = []
    real = Packing.product

    def spy(pk, gens_a, gens_b):
        calls.append(1)
        return real(pk, gens_a, gens_b)

    monkeypatch.setattr(Packing, "product", spy)
    return calls


@pytest.mark.parametrize("d", [3, 5])
def test_rungs_match_the_power_oracle_part_by_part(d, monkeypatch):
    # the last rung is the costliest, so a generator that builds one rung
    # past top and drops it makes more products than (top - 1) per part
    rng = random.Random(223 + d)
    calls = counted_products(monkeypatch)
    for _ in range(12):
        pool = rng.choice([list(range(4)), [0, 1, 2**5 - 1, 2**5]])
        parts = [
            reference_minimal(tuple(rng.choice(pool) for _ in range(d)) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))
        ]
        top = rng.randint(2, 4)
        pk, *packed = Packing.of(*(build(ring(d), p) for p in parts), max_exp=top * max(pool))
        assert list(pk.rungs(packed, 1)) == [packed] and calls == []
        for n, rung in enumerate(pk.rungs(packed, top), 1):
            assert [list(map(pk.unpack, power)) for power in rung] == [power_oracle(p, n) for p in parts], (parts, n)
        assert n == top and len(calls) == (top - 1) * len(parts), parts
        calls.clear()


def test_symbolic_power_builds_the_localized_rungs_alone(monkeypatch):
    # the edge graph keeps 5 localizations, so n = 6 takes 5 x 5 products
    # and no ladder of I^n
    pair = load_ideal_file(Path(__file__).parent / "data" / "edge-graph.ideal")
    calls = counted_products(monkeypatch)
    symbolic_power(pair.base, pair.saturator, 6)
    assert len(calls) == 25


# ---------------------------------------------------------------------------
# One packing per saturation
# ---------------------------------------------------------------------------

def nested_pairs(seed: int):
    """(I, J) in 3 to 6 variables, J with two minimal generators whose supports nest.

    J's first generator lives on a support S, its second on a support T
    holding S, with a smaller exponent on S, so neither divides the other.
    """
    rng = random.Random(seed)
    count = 0
    while count < 16:
        d = rng.randint(3, 6)
        r = ring(d)
        s_size = rng.randint(1, d - 1)
        t_size = rng.randint(s_size + 1, d)
        order = rng.sample(range(d), d)
        inner = tuple(rng.randint(2, 3) if v in order[:s_size] else 0 for v in range(d))
        outer = tuple(1 if v in order[:s_size] else rng.randint(1, 3) if v in order[:t_size] else 0 for v in range(d))
        more = [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(rng.randint(0, 2))]
        j = reference_minimal([inner, outer] + more)
        i = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(2, 5))]
        if len(reference_minimal(map(support, j))) < len(j):  # a random generator may divide one of the nested two
            count += 1
            yield build(r, i), build(r, j)


def support(g: tuple[int, ...]) -> tuple[int, ...]:
    """The squarefree exponent tuple of g's support."""
    return tuple(min(a, 1) for a in g)


def test_each_saturation_builds_one_packing(monkeypatch):
    # a saturation reads J's supports in the packing its colons use, so it
    # builds one packing, and its colons are by the minimal x_S^e, e the
    # largest exponent of I: one 1 for a unit I
    pairs = list(nested_pairs(263))
    three = load_ideal_file(Path(__file__).parent / "data" / "three-vars.ideal")
    pairs.append((three.base, three.saturator))
    pairs.append((MonomialIdeal.unit(ring(4)), build(ring(4), [(2, 1, 0, 0), (0, 0, 3, 0), (4, 0, 0, 0)])))
    assert all(len(reference_minimal(map(support, j.gens))) < len(j) for _, j in pairs)
    assert max(map(max, three.base.gens)) == 12
    built = []
    divisors = []
    real_init, real_colon_parts = Packing.__init__, Packing.colon_parts

    def init(pk, d, max_exp):
        built.append(1)
        real_init(pk, d, max_exp)

    def colon_parts(pk, gens, divs):
        divisors.append(list(map(pk.unpack, divs)))
        return real_colon_parts(pk, gens, divs)

    monkeypatch.setattr(Packing, "__init__", init)
    monkeypatch.setattr(Packing, "colon_parts", colon_parts)
    for i, j in pairs:
        e = max(map(max, i.gens))
        expected = reference_minimal(tuple(e * a for a in support(g)) for g in j.gens)
        assert (e == 0) == (expected == [(0,) * i.ring.var_count])
        for saturate in (i.saturate_ideal, lambda j: symbolic_power(i, j, 3), lambda j: sample_series(i, j, 4)):
            built.clear()
            divisors.clear()
            saturate(j)
            assert len(built) == 1, (i, j)
            assert divisors == [expected], (i, j)
