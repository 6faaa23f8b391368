from __future__ import annotations

import ast
import itertools
import random
import re
import sys
from collections.abc import Sequence
from math import comb

import pytest

from satpow import (
    HilbertData,
    InconsistencyError,
    MonomialIdeal,
    Numerator,
    RingContext,
    RingMismatchError,
    dim_and_mult,
    filtration,
    minimalize,
    numerator_of_quotient,
    quotient_module_data,
    sample_series,
)
from satpow import hilbert
from satpow.core import Packing
from satpow.hilbert import packed_quotient_data

from conftest import (
    M, as_numerator, colon_monomial, compositions, cycle_pair, dense, dense_product, dense_sum, dim_quotient,
    expand_numerator, hilbert_function_oracle, ideal, member, monomials_up_to, random_ideal, reference_numerator,
    row_quotient,
)

# An exponent far past any dense coefficient list
HUGE = 10**12


class TestNumeratorRecord:
    def test_terms_are_sorted_and_nonzero(self, ring3):
        rng = random.Random(37)
        for _ in range(30):
            k = numerator_of_quotient(random_ideal(rng, ring3))
            assert list(k.degrees) == sorted(set(k.degrees))
            assert len(k.coeffs) == len(k.degrees) and all(k.coeffs)


class TestNumerator:
    def test_principal_ideal(self, ring2):
        k = numerator_of_quotient(ideal(ring2, (2, 0)))
        assert k == Numerator((0, 2), (1, -1))
        assert dim_and_mult(k, 2) == (1, 2)
        assert type(dim_and_mult(k, 2)) is HilbertData

    def test_unit_ideal_gives_zero(self):
        # the quotient (1)/(1) of equal ideals, in the sweep's fields and past them
        for d in (2, 6):
            k = numerator_of_quotient(MonomialIdeal.unit(RingContext(tuple(f"x{v}" for v in range(d)))))
            assert k == Numerator((), ())
            assert dim_and_mult(k, d) == (None, 0)
            assert type(dim_and_mult(k, d)) is HilbertData

    def test_zero_ideal_gives_one(self):
        # the quotient (1)/(0), whose one term is the unit ideal's generator
        for d in (2, 6):
            k = numerator_of_quotient(MonomialIdeal(RingContext(tuple(f"x{v}" for v in range(d))), ()))
            assert k == Numerator((0,), (1,))
            assert dim_and_mult(k, d) == (d, 1)

    @pytest.mark.parametrize("d", [1, 3])
    def test_pure_power_at_a_huge_exponent(self, d):
        # (x^E): K = 1 - z^E, one factor of (1 - z) with h(1) = E
        x_e = ideal(RingContext(("x", "y", "z")[:d]), (HUGE,) + (0,) * (d - 1))
        k = numerator_of_quotient(x_e)
        assert k == Numerator((0, HUGE), (1, -1))
        assert dim_and_mult(k, d) == (d - 1, HUGE)

    def test_triangle_at_a_huge_exponent(self, ring3):
        # (x^E y^E, y^E z^E, z^E x^E): K = 1 - 3 z^(2E) + 2 z^(3E), e0 = 3 E^2
        e = HUGE
        k = numerator_of_quotient(ideal(ring3, (e, e, 0), (0, e, e), (e, 0, e)))
        assert k == Numerator((0, 2 * e, 3 * e), (1, -3, 2))
        assert dim_and_mult(k, 3) == (1, 3 * e * e)

    def test_triangle_matches_enumeration(self, ring3):
        tri = ideal(ring3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        k = numerator_of_quotient(tri)
        assert expand_numerator(k, 3, 12) == hilbert_function_oracle(tri, 12)
        assert dim_and_mult(k, 3) == (1, 3)

    def test_random_ideals_match_enumeration(self, ring3):
        rng = random.Random(41)
        for _ in range(20):
            i = random_ideal(rng, ring3)
            k = numerator_of_quotient(i)
            assert expand_numerator(k, 3, 10) == hilbert_function_oracle(i, 10)

    def test_matches_degree_one_oracle(self):
        # the library's sweep and level walk against the test-local degree-1 recursion
        rng = random.Random(43)
        for d in (2, 3, 4):
            ring = RingContext(("x", "y", "z", "w")[:d])
            for max_exp in (4, 9):
                for _ in range(10):
                    i = random_ideal(rng, ring, max_exp=max_exp)
                    assert numerator_of_quotient(i) == reference_numerator(i)

    def test_splitting_identity_at_top_level(self, ring3):
        # K(A/I) = K(A/(I + (x^k))) + z^k K(A/(I : x^k)) for every variable x
        rng = random.Random(47)
        for _ in range(10):
            i = random_ideal(rng, ring3)
            num = numerator_of_quotient(i)
            for v in range(3):
                for k in (1, 2, 3):
                    x_k = M(*(k if j == v else 0 for j in range(3)))
                    plus = minimalize(list(i.gens) + [x_k], i.ring)
                    colon = colon_monomial(i, x_k)
                    shifted = [0] * k + dense(numerator_of_quotient(colon))
                    combined = dense_sum(dense(numerator_of_quotient(plus)), shifted)
                    assert as_numerator(combined) == num

    def test_dim_matches_minimal_primes(self, ring3):
        rng = random.Random(53)
        for _ in range(25):
            i = random_ideal(rng, ring3)
            if i.is_unit():
                continue
            k = numerator_of_quotient(i)
            module_dim, e0 = dim_and_mult(k, 3)
            assert module_dim == dim_quotient(i)
            assert e0 >= 1


class TestDimAndMult:
    def test_divide_one_minus_z(self):
        # 1 - z^3 = (1 - z)(1 + z + z^2): one factor of (1 - z), and h(1) = 3
        assert dim_and_mult(Numerator((0, 3), (1, -1)), 1) == (0, 3)

    def test_order_and_sign_of_the_first_nonzero_moment(self):
        # (1 - z)^s (1 + z)^2 in s + 2 variables: dim 2, h(1) = 4, for odd and even s
        for s in range(5):
            k = [1, 2, 1]
            for _ in range(s):
                k = dense_product(k, [1, -1])
            assert dim_and_mult(as_numerator(k), s + 2) == (2, 4)
            assert dim_and_mult(as_numerator(k), s) == (0, 4)

    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(InconsistencyError):
            dim_and_mult(Numerator((0,), (-1,)), 2)
        # -(1 - z) = z - 1: one factor of (1 - z) and h(1) = -1
        with pytest.raises(InconsistencyError):
            dim_and_mult(Numerator((0, 1), (-1, 1)), 2)

    def test_rejects_vanishing_beyond_ambient(self):
        # (1 - z)^3 on an ambient of 2 variables cannot come from a module
        cube = Numerator((0, 1, 2, 3), (1, -3, 3, -1))
        with pytest.raises(InconsistencyError):
            dim_and_mult(cube, 2)
        assert dim_and_mult(cube, 3) == (0, 1)


class TestQuotientModule:
    def test_rings_must_match(self, ring2):
        other = RingContext(("u", "v"))
        with pytest.raises(RingMismatchError):
            quotient_module_data(ideal(ring2, (1, 0)), ideal(other, (1, 0)))

    def test_equal_ideals_give_empty_module(self, ring2):
        i = ideal(ring2, (2, 0), (0, 2))
        data = quotient_module_data(i, i)
        assert data.module_dim is None
        assert data.e0 == 0
        assert data == (None, 0)

    def test_equal_ideals_compute_no_numerator(self, ring2, monkeypatch):
        real = hilbert._quotient

        def equal_only(pk, inner, outer, memo, at=0):
            assert inner == outer, "numerator computed for a quotient of equal ideals"
            return real(pk, inner, outer, memo, at)

        monkeypatch.setattr(hilbert, "_quotient", equal_only)
        i = ideal(ring2, (2, 0), (1, 1), (0, 2))
        data = quotient_module_data(i, minimalize(list(i.gens), ring2))
        assert (data.module_dim, data.e0) == (None, 0)
        assert data == (None, 0)

    def test_finite_length_two(self, ring2):
        # (x, y) / (x^2, xy, y^2) has the two monomials x and y
        inner = ideal(ring2, (2, 0), (1, 1), (0, 2))
        outer = ideal(ring2, (1, 0), (0, 1))
        expected_length = sum(
            a - b
            for a, b in zip(
                hilbert_function_oracle(inner, 8), hilbert_function_oracle(outer, 8)
            )
        )
        data = quotient_module_data(inner, outer)
        assert (data.module_dim, data.e0) == (0, expected_length) == (0, 2)

    def test_triangle_symbolic_square_gap(self, ring3):
        tri = ideal(ring3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        inner = tri.power(2)
        outer = inner.saturate_ideal(ideal(ring3, (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        expected_length = sum(
            a - b
            for a, b in zip(
                hilbert_function_oracle(inner, 12), hilbert_function_oracle(outer, 12)
            )
        )
        data = quotient_module_data(inner, outer)
        assert (data.module_dim, data.e0) == (0, expected_length) == (0, 1)

    def test_a_quotient_walks_each_pair_of_levels_once(self, monkeypatch):
        # past three fields each quotient of the 5-cycle's series is one walk
        # over the levels of both ideals at once: its first step is the pair
        # itself, not either ideal alone against the unit ideal, and no parts
        # have their levels taken twice
        walks: list[list[tuple]] = []  # per quotient, the parts of each levels call inside it
        pairs: list[tuple] = []  # per quotient, its pair, then the pair of the first step inside it
        inside = [False]
        real_levels, real_quotient, real_step = Packing.levels, filtration.packed_quotient_data, hilbert._quotient

        def step(pk, inner, outer, memo, at=0):
            if len(pairs[-1]) == 1:
                pairs[-1].append((inner, outer))
            return real_step(pk, inner, outer, memo, at)

        def levels(pk, parts):
            if inside[0]:
                walks[-1].append(tuple(map(tuple, parts)))
            return real_levels(pk, parts)

        def quotient(pk, inner, outer):
            walks.append([])
            pairs.append([(tuple(inner), tuple(outer))])
            inside[0] = True
            try:
                return real_quotient(pk, inner, outer)
            finally:
                inside[0] = False

        monkeypatch.setattr(hilbert, "_quotient", step)
        monkeypatch.setattr(Packing, "levels", levels)
        monkeypatch.setattr(filtration, "packed_quotient_data", quotient)
        i, m = cycle_pair(5)
        assert len(sample_series(i, m, 10)) == 10
        assert sum(map(bool, walks)) > 5
        for walk in walks:
            assert len(set(walk)) == len(walk)
        for pair in pairs:
            assert pair[0] == pair[1]

    def test_containment_violation_reported(self, ring2):
        inner = ideal(ring2, (1, 0))
        outer = ideal(ring2, (2, 0))
        with pytest.raises(ValueError, match=r"containment.*\(1, 0\)"):
            quotient_module_data(inner, outer)
        # the first generator of the inner ideal outside the outer one is named
        inner = ideal(ring2, (3, 0), (2, 2), (0, 3))
        outer = ideal(ring2, (1, 0), (0, 4))
        with pytest.raises(ValueError, match=r"containment.*\(0, 3\)"):
            quotient_module_data(inner, outer)


def named_exponents(error: pytest.ExceptionInfo) -> tuple[int, ...]:
    """The exponents that a containment error names."""
    return ast.literal_eval(re.search(r"exponents (\(.*?\))", str(error.value)).group(1))


def quotients_missing_one_generator() -> list:
    """Quotients outer/inner in 2, 3 and 5 variables, the outer ideal a saturation in 3 and 5.

    In two variables a saturation of I^n by the variables or by x is
    principal or equals I^n, and shares no generator with I^n otherwise,
    so that case is (x^4, xy, y^5) in (x^3, xy, y^4).
    """
    ring = RingContext(("x", "y"))
    cases = [pytest.param(ideal(ring, (4, 0), (1, 1), (0, 5)), ideal(ring, (3, 0), (1, 1), (0, 4)), id="2-variables")]
    ring = RingContext(("x", "y", "z"))
    tri = ideal(ring, (1, 1, 0), (0, 1, 1), (1, 0, 1))
    m = ideal(ring, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    cases += [pytest.param(tri.power(n), tri.power(n).saturate_ideal(m), id=f"triangle-n{n}") for n in (2, 3)]
    c5, m = cycle_pair(5)
    cases += [pytest.param(c5.power(n), c5.power(n).saturate_ideal(m), id=f"5-cycle-n{n}") for n in (3, 4)]
    return cases


class TestContainment:
    @pytest.mark.parametrize("inner, outer", quotients_missing_one_generator())
    def test_a_saturation_missing_a_generator_raises_naming_it(self, inner, outer):
        # a generator s of both ideals lies in no other generator of the
        # outer one, and every other inner generator outside the outer ideal
        # less s is a multiple of s, so s is the one named
        assert inner != outer
        shared = set(inner.gens) & set(outer.gens)
        assert shared
        for s in shared:
            less = MonomialIdeal(outer.ring, [g for g in outer.gens if g != s])
            with pytest.raises(ValueError, match="containment violated") as error:
                quotient_module_data(inner, less)
            assert named_exponents(error) == s

    @pytest.mark.parametrize("inner, outer", quotients_missing_one_generator())
    def test_each_generator_removed_gives_the_row_verdict(self, inner, outer):
        for s in outer.gens:
            less = MonomialIdeal(outer.ring, [g for g in outer.gens if g != s])
            pk, inner_p, outer_p = Packing.of(inner, less)
            missing, k = row_quotient(pk, inner_p, outer_p)
            if not missing:
                assert quotient_module_data(inner, less) == dim_and_mult(k, len(pk.shifts))
                continue
            with pytest.raises(ValueError, match="containment violated") as error:
                quotient_module_data(inner, less)
            named = named_exponents(error)
            assert named in inner.gens and not member(list(less.gens), named)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_random_pairs_match_the_row_check_and_two_numerators(self, d):
        # past three fields the quotient walks the levels of both ideals, in
        # at most three it takes one two-sided sweep; either way the named
        # generator is missing and a multiple of no other missing one
        rng = random.Random(83 + d)
        ring = RingContext(tuple(f"x{v}" for v in range(d)))
        raised = {"swept": 0, "walked": 0}
        kept = {"swept": 0, "walked": 0}
        for trial in range(80):
            outer = random_ideal(rng, ring, max_gens=rng.randint(2, 14), max_exp=rng.randint(2, 6))
            other = random_ideal(rng, ring, max_gens=4, max_exp=3)
            kind = trial % 4
            if kind == 0:
                inner = outer.intersect(other)  # contained, often sharing generators
            elif kind == 1:
                inner = outer.multiply(other)  # contained
            elif kind == 2:
                inner = other  # seldom contained
            else:  # outer less one generator, inside the inner one: not contained
                inner, outer = outer, MonomialIdeal(ring, [g for g in outer.gens if g != rng.choice(outer.gens)])
            pk, inner_p, outer_p = Packing.of(inner, outer)
            if inner_p == outer_p:
                continue
            missing, k = row_quotient(pk, inner_p, outer_p)
            path = "swept" if pk.sweep_fields(inner_p, outer_p) else "walked"
            if not missing:
                kept[path] += 1
                assert packed_quotient_data(pk, inner_p, outer_p) == dim_and_mult(k, d)
                assert hilbert._record(hilbert._quotient(pk, inner_p, outer_p, {})) == k
                continue
            raised[path] += 1
            with pytest.raises(ValueError, match="containment violated") as error:
                packed_quotient_data(pk, inner_p, outer_p)
            named = named_exponents(error)
            others = [pk.unpack(g) for g in missing]
            assert named in others
            others.remove(named)
            assert not member(others, named)
        if d <= 4:  # past four fields few random pairs use at most three
            assert raised["swept"] and kept["swept"]
        if d >= 4:
            assert raised["walked"] and kept["walked"]


class TestEnumerationOracle:
    def test_zero_ideal_counts_binomials(self, ring2):
        assert hilbert_function_oracle(MonomialIdeal(ring2, ()), 3) == [1, 2, 3, 4]

    def test_unit_ideal_counts_nothing(self, ring2):
        assert hilbert_function_oracle(MonomialIdeal.unit(ring2), 3) == [0, 0, 0, 0]

    def test_oracle_agrees_with_expansion(self, ring2):
        i = ideal(ring2, (3, 0), (1, 2))
        k = numerator_of_quotient(i)
        assert hilbert_function_oracle(i, 12) == expand_numerator(k, 2, 12)

    def test_degree_bound_edges(self, ring2):
        i = ideal(ring2, (1, 0))
        assert hilbert_function_oracle(i, 0) == [1]
        assert expand_numerator(numerator_of_quotient(i), 2, 0) == [1]
        with pytest.raises(ValueError):
            hilbert_function_oracle(i, -1)


def test_numerator_is_deterministic(ring3):
    # no state outlives a call, so an unrelated call in between changes nothing
    tri = ideal(ring3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
    first = numerator_of_quotient(tri.power(3))
    numerator_of_quotient(tri.power(2))
    assert numerator_of_quotient(tri.power(3)) == first == reference_numerator(tri.power(3))


def test_internal_recursion_matches_public(ring3):
    tri = ideal(ring3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
    pk, gens = Packing.of(tri)
    assert hilbert._record(hilbert._quotient(pk, gens, (0,), {})) == numerator_of_quotient(tri)


def assert_memo_holds_numerators(ring: RingContext, pk: Packing, memo: dict) -> None:
    for (inner, outer), terms in memo.items():
        inner_k, outer_k = (dense(reference_numerator(MonomialIdeal(ring, map(pk.unpack, g)))) for g in (inner, outer))
        assert hilbert._record(terms) == as_numerator(dense_sum(inner_k, [-c for c in outer_k]))


def test_memo_entries_stay_the_numerators_of_their_ideals():
    # the memo hands one term map to every caller, so no sum may change a
    # map it reads: after the call each entry is still its pair's difference
    rng = random.Random(79)
    ring = RingContext(("x", "y", "z", "w", "v"))
    entries = 0
    for _ in range(8):
        i = ideal_with_gens(rng, ring, 9, 3)
        pk, gens = Packing.of(i)
        memo: dict = {}
        hilbert._quotient(pk, gens, (0,), memo)
        entries += len(memo)
        assert_memo_holds_numerators(ring, pk, memo)
    assert entries > 8  # the walk recursed, so the memo holds intermediate pairs


def test_high_exponents_keep_the_recursion_limit(ring3):
    # a degree-1 pivot would recurse about e deep here; three variables take the sweep
    e = 12000
    limit = sys.getrecursionlimit()
    num = numerator_of_quotient(ideal(ring3, (e, e, 0), (0, e, e), (e, 0, e)))
    assert num == Numerator((0, 2 * e, 3 * e), (1, -3, 2))
    assert dim_and_mult(num, 3) == (1, 3 * e * e)
    assert sys.getrecursionlimit() == limit


def ideal_with_gens(rng: random.Random, ring: RingContext, count: int, max_exp: int) -> MonomialIdeal:
    """A random ideal with exactly ``count`` minimal generators."""
    d = ring.var_count
    while True:
        i = minimalize(
            [tuple(rng.randint(0, max_exp) for _ in range(d)) for _ in range(count)],
            ring,
        )
        if len(i.gens) == count:
            return i


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_leaf_size_boundary_matches_oracle(offset):
    # four to six generators, in four or five variables and as pure powers
    count = 5 + offset
    rng = random.Random(59 + offset)
    for d in (4, 5):
        ring = RingContext(("x", "y", "z", "w", "v")[:d])
        for max_exp in (2, 4):
            for _ in range(6):
                i = ideal_with_gens(rng, ring, count, max_exp)
                assert numerator_of_quotient(i) == reference_numerator(i)
    ring = RingContext(tuple(f"x{j}" for j in range(count)))
    powers = ideal(ring, *(tuple(j + 1 if v == j else 0 for v in range(count)) for j in range(count)))
    assert numerator_of_quotient(powers) == reference_numerator(powers)


def test_high_exponents_past_the_leaves_keep_the_recursion_limit():
    # scaling every exponent by e maps K(z) to K(z^e), so the degree-1
    # oracle runs on the unscaled ideal; 8 generators take the walk first
    e = 6000
    ring = RingContext(("x", "y", "z", "w"))
    base = [(2, 1, 0, 0), (1, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 1),
            (0, 0, 1, 2), (1, 0, 0, 1), (0, 2, 0, 2), (2, 0, 2, 0)]
    unscaled = ideal(ring, *base)
    assert len(unscaled.gens) == 8
    limit = sys.getrecursionlimit()
    num = numerator_of_quotient(ideal(ring, *(tuple(e * x for x in g) for g in base)))
    small = reference_numerator(unscaled)
    assert num == Numerator(tuple(e * j for j in small.degrees), small.coeffs)
    assert sys.getrecursionlimit() == limit


def test_the_walk_recurses_once_per_active_variable_past_three(monkeypatch):
    # each level of the walk has one active variable fewer, and three or
    # fewer take the sweep, so the recursion is max(1, a - 2) calls deep for
    # a active variables, pure powers included
    depth = [0, 0]  # the current and the deepest
    real = hilbert._quotient

    def spy(pk, inner, outer, memo, at=0):
        depth[0] += 1
        depth[1] = max(depth)
        try:
            return real(pk, inner, outer, memo, at)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(hilbert, "_quotient", spy)
    rng = random.Random(83)
    ideals = [cycle_pair(m)[0] for m in (4, 5, 8, 12)]
    for d in (4, 5, 6, 7):
        ring = RingContext(tuple(f"x{j}" for j in range(d)))
        ideals += [ideal_with_gens(rng, ring, count, 4) for count in (4, 7, 10)]
        powers = [tuple(3 if v == j else 0 for v in range(d)) for j in range(d)]
        ideals += [ideal(ring, *powers), ideal(ring, *powers, (1, 1) + (0,) * (d - 2))]
    walked = 0
    for i in ideals:
        depth[1] = 0
        assert numerator_of_quotient(i) == reference_numerator(i)
        active = sum(any(g[v] for g in i.gens) for v in range(i.ring.var_count))
        assert depth[1] <= max(1, active - 2), (i.gens, depth[1])
        walked += depth[1] > 1
    assert walked > 10


# ---------------------------------------------------------------------------
# The level sweep: ideals whose generators use at most three variables
# ---------------------------------------------------------------------------

def ideal_in_active(rng: random.Random, ring: RingContext, active: Sequence[int], count: int, max_exp: int):
    """A random ideal of ``ring`` with more than five generators, all in the ``active`` variables.

    Its generating set is a staircase of six points in the first two active
    variables, so that two active variables suffice, and ``count`` random
    points; ``max_exp`` must be at least five.
    """
    while True:
        xs = sorted(rng.sample(range(max_exp + 1), 6))
        ys = sorted(rng.sample(range(max_exp + 1), 6), reverse=True)
        points = [(x, y, rng.randint(0, max_exp)) for x, y in zip(xs, ys)]
        points += [tuple(rng.randint(0, max_exp) for _ in range(3)) for _ in range(count)]
        gens = []
        for p in points:
            g = [0] * ring.var_count
            for v, e in zip(active, p):
                g[v] = e
            gens.append(tuple(g))
        i = minimalize(gens, ring)
        if len(i.gens) > 5:
            return i


def in_every_order(ring: RingContext, gens: Sequence[tuple[int, ...]]) -> list[MonomialIdeal]:
    """The ideal of ``gens``, three-variable tuples, placed on each ordered triple of ``ring``'s variables."""
    out = []
    for slots in itertools.permutations(range(ring.var_count), 3):
        placed = []
        for g in gens:
            e = [0] * ring.var_count
            for v, x in zip(slots, g):
                e[v] = x
            placed.append(tuple(e))
        out.append(minimalize(placed, ring))
    return out


# equal exponents of one variable across levels of another, so that a point
# lands on the x of a staircase point and replaces it
EQUAL_X = [(0, 2, 5), (1, 2, 3), (2, 2, 1), (0, 4, 2), (3, 0, 6), (1, 5, 0), (4, 1, 1), (0, 6, 1)]
# pure powers beside mixed generators
PURE_POWERS = [(6, 0, 0), (0, 5, 0), (0, 0, 4), (2, 2, 0), (0, 3, 1), (1, 0, 2), (1, 1, 1)]


class TestSweep:
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("active_count", [2, 3])
    def test_random_ideals_match_both_oracles(self, d, active_count):
        rng = random.Random(61 + 10 * d + active_count)
        ring = RingContext(("x", "y", "z", "w")[:d])
        for _ in range(12):
            # in a ring of 3 variables with 3 active, none is unused; the
            # other shapes leave one or two variables out of every generator
            active = sorted(rng.sample(range(d), active_count))
            i = ideal_in_active(rng, ring, active, rng.randint(4, 14), rng.choice((8, 12)))
            k = numerator_of_quotient(i)
            assert k == reference_numerator(i)
            assert expand_numerator(k, d, 9) == hilbert_function_oracle(i, 9)

    @pytest.mark.parametrize("gens", [EQUAL_X, PURE_POWERS], ids=["equal-x", "pure-powers"])
    def test_shaped_ideals_match_both_oracles(self, gens):
        for d in (3, 4):
            ring = RingContext(("x", "y", "z", "w")[:d])
            for i in in_every_order(ring, gens):
                assert len(i.gens) > 5
                k = numerator_of_quotient(i)
                assert k == reference_numerator(i)
                assert expand_numerator(k, d, 10) == hilbert_function_oracle(i, 10)

    def test_any_generating_set_gives_the_numerator_of_its_ideal(self):
        # the sweep skips a point that a staircase point divides, so a
        # generating set that is not minimal, with generators dominated
        # within their own level or from a lower one, has the numerator of
        # the ideal it generates; one active variable occurs only this way,
        # as an ideal in one variable is principal
        ring = RingContext(("x", "y", "z", "w"))
        dominated = [(1, 0, 5), (1, 2, 1), (1, 2, 3), (2, 1, 2), (2, 2, 0), (3, 0, 4), (0, 4, 6)]
        cases = [[(0, 0, e) for e in (7, 3, 5, 9, 4, 6)]]
        cases += [[tuple(g[v] for v in order) for g in dominated] for order in itertools.permutations(range(3))]
        rng = random.Random(67)
        cases += [[tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(12)] for _ in range(40)]
        wider = random.Random(68)
        for gens in cases:
            tuples = [(0,) + tuple(g) for g in gens]
            pk = Packing(4, 9)
            packed = tuple(map(pk.pack, tuples))
            i = minimalize(tuples, ring)
            k = hilbert._record(hilbert._sweep(pk, pk.sweep_fields(packed), packed, (0,), 0))
            assert k == reference_numerator(i)
            assert expand_numerator(k, 4, 9) == hilbert_function_oracle(i, 9)
            # the same points with a few more generate an ideal holding i,
            # and the two-sided sweep gives the difference of the numerators
            more = tuples + [(0,) + tuple(wider.randint(0, 5) for _ in range(3)) for _ in range(3)]
            outer = tuple(map(pk.pack, more))
            k = hilbert._record(hilbert._sweep(pk, pk.sweep_fields(packed, outer), packed, outer, 0))
            big = reference_numerator(minimalize(more, ring))
            assert k == as_numerator(dense_sum(dense(reference_numerator(i)), [-c for c in dense(big)]))

    def test_takes_no_split(self, monkeypatch):
        # at most three active variables take the sweep and never walk the
        # levels; past three every ideal takes the walk, pairwise disjoint
        # supports too
        walked = []
        real = Packing.levels

        def spy(pk, parts):
            walked.append(len(parts[0]))
            return real(pk, parts)

        rng = random.Random(71)
        ring = RingContext(("x", "y", "z", "w"))
        tri = ideal(ring, (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0))
        cubes = [tri.power(6), ideal_in_active(rng, ring, (0, 2, 3), 20, 8)]
        square = ideal(ring, (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))
        ci_ring = RingContext(tuple(f"x{j}" for j in range(8)))
        powers = ideal(ci_ring, *(tuple(j + 2 if v == j else 0 for v in range(8)) for j in range(8)))
        monkeypatch.setattr(Packing, "levels", spy)
        for i in cubes:
            assert len(i.gens) > 5
            numerator_of_quotient(i)
        assert walked == []
        assert numerator_of_quotient(powers) == reference_numerator(powers)
        assert walked[0] == len(powers.gens)
        walked.clear()
        numerator_of_quotient(square.power(3))
        assert walked[0] == len(square.power(3).gens)

    @pytest.mark.parametrize("n, count", [(30, 496), (60, 1891)])
    def test_power_of_the_maximal_ideal(self, n, count):
        ring = RingContext(("x", "y", "z"))
        i = minimalize(compositions(n, 3), ring)
        assert len(i.gens) == count
        assert dim_and_mult(numerator_of_quotient(i), 3) == (0, comb(n + 2, 3))

    def test_unused_variables_leave_the_numerator(self):
        plane = minimalize(compositions(50, 2), RingContext(("x", "y")))
        k = numerator_of_quotient(plane)
        assert dim_and_mult(k, 2) == (0, 1275)
        for names in (("x", "y", "z"), ("x", "y", "z", "w")):
            ring = RingContext(names)
            pad = (0,) * (len(names) - 2)
            assert numerator_of_quotient(minimalize([g + pad for g in plane.gens], ring)) == k
        cube = minimalize(compositions(30, 3), RingContext(("x", "y", "z")))
        widened = minimalize([(0,) + g for g in cube.gens], RingContext(("w", "x", "y", "z")))
        assert numerator_of_quotient(widened) == numerator_of_quotient(cube)
