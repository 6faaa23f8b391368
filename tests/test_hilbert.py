from __future__ import annotations

import random
import sys

import pytest

from satpow import (
    InconsistencyError,
    IntPolynomial,
    Monomial,
    MonomialIdeal,
    RingContext,
    RingMismatchError,
    dim_and_mult,
    minimalize,
    numerator_of_quotient,
    quotient_module_data,
)
from satpow import hilbert
from satpow.core import Packing
from satpow.hilbert import _LEAF_GENS, _numerator

from conftest import (
    M, colon_monomial, dim_quotient, expand_numerator, hilbert_function_oracle, ideal,
    monomials_up_to, poly_product, random_ideal, reference_numerator,
)


class TestIntPolynomial:
    def test_trims_trailing_zeros(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([0, 0]).is_zero()

    def test_arithmetic(self):
        p = IntPolynomial([1, -1])
        q = IntPolynomial([1, 1])
        assert poly_product(p, q).coeffs == (1, 0, -1)
        assert (p + q).coeffs == (2,)
        assert (p - q).coeffs == (0, -2)
        assert p.shift(2).coeffs == (0, 0, 1, -1)

    def test_divide_one_minus_z(self):
        # 1 - z^3 = (1 - z)(1 + z + z^2)
        p = IntPolynomial([1, 0, 0, -1])
        assert p.divide_one_minus_z().coeffs == (1, 1, 1)
        with pytest.raises(ValueError):
            IntPolynomial([1, 1]).divide_one_minus_z()


class TestNumerator:
    def test_principal_ideal(self, ring2):
        k = numerator_of_quotient(ideal(ring2, (2, 0)))
        assert k == IntPolynomial([1, 0, -1])
        assert dim_and_mult(k, 2) == (1, 2)

    def test_unit_ideal_gives_zero(self, ring2):
        k = numerator_of_quotient(MonomialIdeal.unit(ring2))
        assert k.is_zero()
        assert dim_and_mult(k, 2) == (None, 0)

    def test_zero_ideal_gives_one(self, ring2):
        k = numerator_of_quotient(MonomialIdeal.zero(ring2))
        assert k == IntPolynomial([1])
        assert dim_and_mult(k, 2) == (2, 1)

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
        # the library's x^k pivot against the test-local degree-1 recursion
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
                    combined = numerator_of_quotient(plus) + numerator_of_quotient(colon).shift(k)
                    assert combined == num

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
    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(InconsistencyError):
            dim_and_mult(IntPolynomial([-1]), 2)

    def test_rejects_vanishing_beyond_ambient(self):
        # (1 - z)^3 on an ambient of 2 variables cannot come from a module
        cube = IntPolynomial([1, -3, 3, -1])
        with pytest.raises(InconsistencyError):
            dim_and_mult(cube, 2)


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
        assert data.numerator.is_zero()

    def test_equal_ideals_compute_no_numerator(self, ring2, monkeypatch):
        def fail(ideal):
            raise AssertionError("numerator computed for a quotient of equal ideals")

        monkeypatch.setattr(hilbert, "numerator_of_quotient", fail)
        i = ideal(ring2, (2, 0), (1, 1), (0, 2))
        data = quotient_module_data(i, minimalize(list(i.gens), ring2))
        assert (data.module_dim, data.e0) == (None, 0)
        assert data.numerator.is_zero()

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

    def test_containment_violation_reported(self, ring2):
        inner = ideal(ring2, (1, 0))
        outer = ideal(ring2, (2, 0))
        with pytest.raises(ValueError, match="containment"):
            quotient_module_data(inner, outer)


class TestEnumerationOracle:
    def test_zero_ideal_counts_binomials(self, ring2):
        assert hilbert_function_oracle(MonomialIdeal.zero(ring2), 3) == [1, 2, 3, 4]

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
    assert _numerator(gens, pk, {}) == numerator_of_quotient(tri)


def test_high_exponents_keep_the_recursion_limit(ring3):
    # a degree-1 pivot recurses about e deep here; the x^k pivot splits once
    e = 12000
    limit = sys.getrecursionlimit()
    num = numerator_of_quotient(ideal(ring3, (e, e, 0), (0, e, e), (e, 0, e)))
    expected = [0] * (3 * e + 1)
    expected[0], expected[2 * e], expected[3 * e] = 1, -3, 2
    assert num == IntPolynomial(expected)
    assert dim_and_mult(num, 3) == (1, 3 * e * e)
    assert sys.getrecursionlimit() == limit


def ideal_with_gens(rng: random.Random, ring: RingContext, count: int, max_exp: int) -> MonomialIdeal:
    """A random ideal with exactly ``count`` minimal generators."""
    d = ring.var_count
    while True:
        i = minimalize(
            [Monomial(tuple(rng.randint(0, max_exp) for _ in range(d))) for _ in range(count)],
            ring,
        )
        if len(i.gens) == count:
            return i


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_leaf_size_boundary_matches_oracle(offset):
    # the closed-form leaf up to _LEAF_GENS generators, a split or the
    # complete-intersection product past it
    count = _LEAF_GENS + offset
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
    # oracle runs on the unscaled ideal; 8 generators take the split first
    e = 6000
    ring = RingContext(("x", "y", "z", "w"))
    base = [(2, 1, 0, 0), (1, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 1),
            (0, 0, 1, 2), (1, 0, 0, 1), (0, 2, 0, 2), (2, 0, 2, 0)]
    unscaled = ideal(ring, *base)
    assert len(unscaled.gens) == 8 > _LEAF_GENS
    limit = sys.getrecursionlimit()
    num = numerator_of_quotient(ideal(ring, *(tuple(e * x for x in g) for g in base)))
    small = reference_numerator(unscaled)
    expected = [0] * (e * small.degree + 1)
    for j, c in enumerate(small.coeffs):
        expected[e * j] = c
    assert num == IntPolynomial(expected)
    assert sys.getrecursionlimit() == limit
