from __future__ import annotations

import itertools
import random

import pytest

from satpow import (
    Monomial,
    MonomialIdeal,
    RingContext,
    RingMismatchError,
    ZeroIdealError,
    divides,
    minimalize,
)

from conftest import M, colon_monomial, ideal, member, monomials_up_to, random_ideal


class TestMonomial:
    def test_degree_is_sum_of_exponents(self):
        assert M(2, 1, 0).degree == 3
        assert M(0, 0).degree == 0

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_support(self):
        assert M(2, 0, 3).support == (0, 2)

    def test_equality_and_hash(self):
        assert M(1, 2) == M(1, 2)
        assert hash(M(1, 2)) == hash(M(1, 2))
        assert M(1, 2) != M(2, 1)


class TestDivides:
    def test_basic(self):
        assert divides(M(1, 0), M(1, 2))
        assert not divides(M(2, 0), M(1, 2))

    def test_reflexive(self):
        assert divides(M(3, 1), M(3, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(RingMismatchError):
            divides(M(1, 0), M(1, 0, 0))


class TestMinimalize:
    def test_drops_dominated_generator(self, ring2):
        # {x^2, x^2 y, y} -> {x^2, y}
        result = ideal(ring2, (2, 0), (2, 1), (0, 1))
        assert {g.exponents for g in result.gens} == {(2, 0), (0, 1)}

    def test_empty_input_is_zero_ideal(self, ring2):
        assert minimalize([], ring2).is_zero()

    def test_unit_ideal_swallows_everything(self, ring2):
        result = ideal(ring2, (0, 0), (3, 1))
        assert result.is_unit()
        assert len(result.gens) == 1

    def test_ring_mismatch_rejected(self, ring2):
        with pytest.raises(RingMismatchError):
            minimalize([M(1, 0, 0)], ring2)

    def test_canonical_order_is_deterministic(self, ring2):
        a = ideal(ring2, (2, 0), (1, 1), (0, 2))
        b = ideal(ring2, (0, 2), (2, 0), (1, 1))
        assert a.gens == b.gens

    def test_random_output_divisibility_equivalent_to_input(self, ring3):
        # 50 random monomials, exponents <= 4; compare membership against the
        # raw input generators for every monomial of degree <= 12
        rng = random.Random(20260811)
        raw = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(50)]
        out = minimalize([Monomial(t) for t in raw], ring3)
        out_exps = [g.exponents for g in out.gens]
        for w in monomials_up_to(3, 12):
            assert member(raw, w) == member(out_exps, w)

    def test_output_is_antichain(self, ring3):
        rng = random.Random(7)
        for _ in range(25):
            result = random_ideal(rng, ring3)
            gens = result.gens
            for a, b in itertools.permutations(gens, 2):
                assert not divides(a, b)


class TestMultiplyAndPower:
    def test_principal_product(self, ring2):
        assert ideal(ring2, (1, 0)).multiply(ideal(ring2, (0, 1))) == ideal(
            ring2, (1, 1)
        )

    def test_unit_and_zero_absorb(self, ring2):
        i = ideal(ring2, (1, 0), (0, 2))
        assert i.multiply(MonomialIdeal.unit(ring2)) == i
        assert i.multiply(MonomialIdeal.zero(ring2)).is_zero()

    def test_square_of_maximal_ideal(self, ring2):
        sq = ideal(ring2, (1, 0), (0, 1)).power(2)
        assert {g.exponents for g in sq.gens} == {(2, 0), (1, 1), (0, 2)}

    def test_power_zero_is_unit(self, ring2):
        assert ideal(ring2, (1, 0)).power(0).is_unit()
        assert MonomialIdeal.zero(ring2).power(0).is_unit()

    def test_negative_power_rejected(self, ring2):
        with pytest.raises(ValueError):
            ideal(ring2, (1, 0)).power(-1)

    def test_triangle_square_against_expansion(self, ring3):
        # brute-force expansion of all 2-fold generator products, then
        # divisibility minimalization, done with test-local arithmetic
        tri = ideal(ring3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        raw = [
            tuple(a + b for a, b in zip(g1.exponents, g2.exponents))
            for g1, g2 in itertools.combinations_with_replacement(tri.gens, 2)
        ]
        expected = {
            t
            for t in raw
            if not any(
                other != t and all(o <= x for o, x in zip(other, t)) for other in raw
            )
        }
        assert {g.exponents for g in tri.power(2).gens} == expected
        assert expected == {
            (2, 2, 0), (0, 2, 2), (2, 0, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2),
        }

    def test_power_additivity(self, ring3):
        rng = random.Random(11)
        for _ in range(10):
            i = random_ideal(rng, ring3, max_gens=4, max_exp=3)
            for a in range(3):
                for b in range(3 - a + 1):
                    assert i.power(a).multiply(i.power(b)) == i.power(a + b)


class TestIntersect:
    def test_principal(self, ring2):
        assert ideal(ring2, (1, 0)).intersect(ideal(ring2, (0, 1))) == ideal(
            ring2, (1, 1)
        )

    def test_nested(self, ring2):
        assert ideal(ring2, (2, 0)).intersect(ideal(ring2, (1, 0))) == ideal(
            ring2, (2, 0)
        )

    def test_membership_oracle_random_pairs(self, ring3):
        rng = random.Random(13)
        window = monomials_up_to(3, 10)
        for _ in range(10):
            a = random_ideal(rng, ring3)
            b = random_ideal(rng, ring3)
            meet = a.intersect(b)
            ae = [g.exponents for g in a.gens]
            be = [g.exponents for g in b.gens]
            me = [g.exponents for g in meet.gens]
            for w in window:
                assert member(me, w) == (member(ae, w) and member(be, w))


class TestColon:
    def test_single_variable(self, ring2):
        assert colon_monomial(ideal(ring2, (2, 1)), M(0, 1)) == ideal(ring2, (2, 0))

    def test_colon_by_one_is_identity(self, ring2):
        i = ideal(ring2, (2, 0), (1, 1))
        assert colon_monomial(i, M(0, 0)) == i

    def test_colon_example_against_membership(self, ring2):
        # (x^3, x y^2, y^4) : x*y, checked by w * xy in I for all w of deg <= 8
        i = ideal(ring2, (3, 0), (1, 2), (0, 4))
        m = (1, 1)
        result = colon_monomial(i, M(*m))
        ie = [g.exponents for g in i.gens]
        re = [g.exponents for g in result.gens]
        for w in monomials_up_to(2, 8):
            shifted = tuple(a + b for a, b in zip(w, m))
            assert member(re, w) == member(ie, shifted)
        assert {g.exponents for g in result.gens} == {(2, 0), (0, 1)}

    def test_colon_ideal_against_membership(self, ring2):
        # ((x^2) : (x, y)) via the membership oracle w*J <= I over deg <= 8
        i = ideal(ring2, (2, 0))
        j = ideal(ring2, (1, 0), (0, 1))
        result = i.colon_ideal(j)
        ie = [g.exponents for g in i.gens]
        re = [g.exponents for g in result.gens]
        je = [g.exponents for g in j.gens]
        for w in monomials_up_to(2, 8):
            expected = all(
                member(ie, tuple(a + b for a, b in zip(w, m))) for m in je
            )
            assert member(re, w) == expected
        assert result == ideal(ring2, (2, 0))

    def test_colon_by_unit_ideal_is_identity(self, ring2):
        i = ideal(ring2, (2, 0), (1, 1))
        assert i.colon_ideal(MonomialIdeal.unit(ring2)) == i

    def test_one_in_colon_by_itself(self, ring2):
        i = ideal(ring2, (2, 0), (0, 3))
        assert i.colon_ideal(i).contains(M(0, 0))

    def test_colon_by_zero_rejected(self, ring2):
        with pytest.raises(ZeroIdealError):
            ideal(ring2, (1, 0)).colon_ideal(MonomialIdeal.zero(ring2))

    def test_colon_membership_equivalence_exhaustive(self, ring2):
        # contains(I : m, w) iff contains(I, w*m), over all small w and m
        rng = random.Random(17)
        for _ in range(10):
            i = random_ideal(rng, ring2, max_gens=4, max_exp=3)
            m = tuple(rng.randint(0, 2) for _ in range(2))
            colon = colon_monomial(i, M(*m))
            for w in monomials_up_to(2, 8):
                shifted = Monomial(tuple(a + b for a, b in zip(w, m)))
                assert colon.contains(Monomial(w)) == i.contains(shifted)


class TestSaturate:
    def test_saturation_reaching_unit(self, ring2):
        # (x^2 y, y^3) : y^inf = (x^2, 1) = (1)
        i = ideal(ring2, (2, 1), (0, 3))
        assert i.saturate_monomial(M(0, 1)).is_unit()

    def test_single_generator(self, ring2):
        assert ideal(ring2, (2, 1)).saturate_monomial(M(0, 1)) == ideal(ring2, (2, 0))

    def test_saturate_ideal_principal(self, ring2):
        i = ideal(ring2, (2, 1))
        assert i.saturate_ideal(ideal(ring2, (0, 1))) == ideal(ring2, (2, 0))

    def test_saturate_by_unit_ideal_is_identity(self, ring2):
        i = ideal(ring2, (2, 0), (1, 1))
        assert i.saturate_ideal(MonomialIdeal.unit(ring2)) == i

    def test_triangle_square_saturation_contains_xyz(self, ring3):
        tri = ideal(ring3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        sat = tri.power(2).saturate_ideal(ideal(ring3, (1, 1, 1)))
        assert sat.contains(M(1, 1, 1))

    def test_saturate_by_zero_rejected(self, ring2):
        with pytest.raises(ZeroIdealError):
            ideal(ring2, (1, 0)).saturate_ideal(MonomialIdeal.zero(ring2))

    def test_equals_colon_fixed_point(self, ring3):
        rng = random.Random(19)
        for _ in range(15):
            i = random_ideal(rng, ring3)
            m = Monomial(tuple(rng.randint(0, 2) for _ in range(3)))
            expected = i
            while True:
                nxt = colon_monomial(expected, m)
                if nxt == expected:
                    break
                expected = nxt
            assert i.saturate_monomial(m) == expected

    def test_idempotent_and_colon_stable(self, ring3):
        rng = random.Random(23)
        for _ in range(15):
            i = random_ideal(rng, ring3)
            j = random_ideal(rng, ring3, max_gens=3, max_exp=2)
            sat = i.saturate_ideal(j)
            assert sat.saturate_ideal(j) == sat
            assert sat.colon_ideal(j) == sat


class TestPredicates:
    def test_contains(self, ring2):
        i = ideal(ring2, (2, 0), (0, 1))
        assert i.contains(M(1, 3))
        assert not i.contains(M(1, 0))

    def test_equals_is_canonical_list_equality(self, ring3):
        a = ideal(ring3, (1, 1, 0), (0, 1, 1))
        b = ideal(ring3, (0, 1, 1), (1, 1, 0), (1, 2, 1))
        assert a == b
        assert hash(a) == hash(b)

    def test_equals_matches_mutual_containment(self, ring3):
        rng = random.Random(29)
        pairs = [
            (random_ideal(rng, ring3, max_gens=3, max_exp=2),
             random_ideal(rng, ring3, max_gens=3, max_exp=2))
            for _ in range(40)
        ]
        for a, b in pairs:
            mutual = a.contains_ideal(b) and b.contains_ideal(a)
            assert (a == b) == mutual

    def test_is_equigenerated(self, ring3):
        assert ideal(ring3, (1, 1, 0), (0, 1, 1), (1, 0, 1)).is_equigenerated()
        assert not ideal(RingContext(("x", "y")), (1, 0), (0, 2)).is_equigenerated()

    def test_zero_and_unit_representations(self, ring2):
        zero = MonomialIdeal.zero(ring2)
        unit = MonomialIdeal.unit(ring2)
        assert zero.is_zero() and not zero.is_unit()
        assert unit.is_unit() and not unit.is_zero()
        assert unit.contains(M(0, 0))
