from __future__ import annotations

import itertools
import random

import pytest

from satpow import MonomialIdeal, RingContext, dim_and_mult, height, minimalize, numerator_of_quotient
from satpow.cli import default_corpus_path
from satpow.parsing import load_corpus

from conftest import cycle_pair, dim_quotient, ideal, minimal_primes, random_ideal, support


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


def radical_and_primes_cases() -> list[MonomialIdeal]:
    """The shipped corpus's ideals, the edge ideals of C3 .. C30, and 600 seeded ideals in 2 .. 10 variables."""
    cases = [e.pair.base for e in load_corpus(default_corpus_path())]
    cases += [cycle_pair(m)[0] for m in range(3, 31)]
    rng = random.Random(43)
    drawn = []
    while len(drawn) < 600:
        d = rng.randint(2, 10)
        i = random_ideal(rng, RingContext(tuple(f"x{v}" for v in range(d))), max_gens=rng.randint(1, 9), max_exp=3)
        if not i.is_unit():
            drawn.append(i)
    return cases + drawn


CASES = radical_and_primes_cases()


def test_height_is_the_least_size_of_the_oracle_primes():
    # height reads d - dim A/sqrt(I) off a Hilbert numerator; the oracle
    # enumerates the minimal primes from the generators' supports
    for i in CASES:
        assert height(i) == min(map(len, minimal_primes(i)))


def test_radical_multiplicity_counts_the_primes_of_least_height():
    # A/sqrt(I) is a Stanley-Reisner ring, and its e0 counts the facets of
    # largest dimension, the minimal primes of least height
    for i in CASES:
        primes = minimal_primes(i)
        least = min(map(len, primes))
        radical = minimalize([tuple(min(e, 1) for e in g) for g in i.gens], i.ring)
        d = i.ring.var_count
        assert dim_and_mult(numerator_of_quotient(radical), d) == (d - least, sum(len(p) == least for p in primes))


def test_cycles_give_their_known_heights_and_counts():
    # C_2k has the two covers of k alternate vertices; C_2k+1 needs k + 1
    # vertices, in 2k + 1 ways
    for m in (3, 4, 17, 30):
        i, _ = cycle_pair(m)
        primes = minimal_primes(i)
        least = (m + 1) // 2
        assert height(i) == least
        assert sum(len(p) == least for p in primes) == (2 if m % 2 == 0 else m)
