from __future__ import annotations

import itertools
import random

import pytest

from satpow import MonomialIdeal, RingContext, height

from conftest import dim_quotient, ideal, minimal_primes, random_ideal, support


def brute_force_minimal_transversals(supports, d):
    """All inclusion-minimal variable subsets hitting every support."""
    hitting = [
        frozenset(s)
        for size in range(d + 1)
        for s in itertools.combinations(range(d), size)
        if all(set(s) & supp for supp in supports)
    ]
    return sorted(
        (h for h in hitting if not any(o < h for o in hitting)),
        key=lambda c: (len(c), sorted(c)),
    )


def test_triangle_primes_match_brute_force(ring3):
    tri = ideal(ring3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
    supports = [set(support(g)) for g in tri.gens]
    assert minimal_primes(tri) == brute_force_minimal_transversals(supports, 3)
    assert minimal_primes(tri) == [
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    ]


def test_principal_variable(ring3):
    assert minimal_primes(ideal(ring3, (1, 0, 0))) == [frozenset({0})]


def test_single_generator_support_splits(ring2):
    # (x^2 y^3): the minimal primes are the single variables of the support
    assert minimal_primes(ideal(ring2, (2, 3))) == [frozenset({0}), frozenset({1})]


def test_height_and_dim(ring3, ring2):
    tri = ideal(ring3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
    assert height(tri) == 2
    assert dim_quotient(tri) == 1
    assert height(ideal(ring2, (1, 0), (0, 1))) == 2
    assert height(ideal(ring2, (2, 3))) == 1


def test_zero_and_unit_rejected(ring2):
    with pytest.raises(ValueError):
        minimal_primes(MonomialIdeal(ring2, ()))
    with pytest.raises(ValueError):
        minimal_primes(MonomialIdeal.unit(ring2))
    for i in (MonomialIdeal(ring2, ()), MonomialIdeal.unit(ring2)):
        with pytest.raises(ValueError):
            height(i)


def test_random_against_brute_force(ring3):
    rng = random.Random(31)
    for _ in range(40):
        i = random_ideal(rng, ring3)
        if i.is_unit():
            continue
        supports = [set(support(g)) for g in i.gens]
        assert minimal_primes(i) == brute_force_minimal_transversals(supports, 3)


def test_outputs_are_irredundant_covers(ring3):
    rng = random.Random(37)
    for _ in range(30):
        i = random_ideal(rng, ring3)
        if i.is_unit():
            continue
        supports = [set(support(g)) for g in i.gens]
        for prime in minimal_primes(i):
            assert all(prime & s for s in supports)
            for v in prime:
                smaller = prime - {v}
                assert not all(smaller & s for s in supports)


def test_height_is_the_smallest_minimal_prime():
    rng = random.Random(41)
    for d in range(1, 7):
        ring = RingContext(tuple("uvwxyz"[:d]))
        for _ in range(25):
            i = random_ideal(rng, ring, max_gens=5, max_exp=2)
            if i.is_unit():
                continue
            assert height(i) == min(len(p) for p in minimal_primes(i))
