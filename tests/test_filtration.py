from __future__ import annotations

import pytest

from satpow import (
    InsufficientDataError,
    MonomialIdeal,
    RingContext,
    SeriesSample,
    ZeroIdealError,
    dim_stabilization,
    sample_series,
    symbolic_power,
)
from satpow.cli import default_corpus_path
from satpow.filtration import _localizations
from satpow.parsing import load_corpus

from conftest import M, check_filtration, ideal, symbolic_provider

# a 6-vertex graph: the 6-cycle 0-1-2-4-5-3-0 and the chords 0-2, 0-4, 1-3
EDGE_GRAPH = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5))


@pytest.fixture
def triangle(ring3):
    return ideal(ring3, (1, 1, 0), (0, 1, 1), (1, 0, 1))


@pytest.fixture
def variables(ring3):
    return ideal(ring3, (1, 0, 0), (0, 1, 0), (0, 0, 1))


class TestSymbolicPower:
    def test_saturation_doing_nothing(self, ring2):
        # I = (x), J = (y): y is regular mod x^n, so nothing changes
        assert symbolic_power(ideal(ring2, (1, 0)), ideal(ring2, (0, 1)), 3) == ideal(
            ring2, (3, 0)
        )

    def test_n_zero_is_unit(self, ring2):
        assert symbolic_power(ideal(ring2, (1, 0)), ideal(ring2, (0, 1)), 0).is_unit()

    def test_triangle_square(self, triangle, variables, ring3):
        sat = symbolic_power(triangle, variables, 2)
        assert {g.exponents for g in sat.gens} == {
            (1, 1, 1), (2, 2, 0), (2, 0, 2), (0, 2, 2),
        }
        assert sat.contains(M(1, 1, 1))
        assert not triangle.power(2).contains(M(1, 1, 1))

    def test_unit_saturator_gives_ordinary_powers(self, triangle, ring3):
        unit = MonomialIdeal.unit(ring3)
        for n in range(4):
            assert symbolic_power(triangle, unit, n) == triangle.power(n)

    def test_zero_inputs_rejected(self, ring2):
        zero = MonomialIdeal.zero(ring2)
        i = ideal(ring2, (1, 0))
        with pytest.raises(ZeroIdealError):
            symbolic_power(zero, i, 2)
        with pytest.raises(ZeroIdealError):
            symbolic_power(i, zero, 2)


class TestSampleSeries:
    def test_saturation_fixed_series_is_zero(self, ring2):
        # J regular mod every power: the quotient is empty at every n
        samples = sample_series(ideal(ring2, (1, 0)), ideal(ring2, (0, 1)), 6)
        assert [s.f for s in samples] == [0] * 6
        assert all(s.module_dim is None for s in samples)

    def test_maximal_ideal_saturated_by_own_generator(self, ring2):
        # I = (x, y), J = (x): x^n lies in I^n, so (I^n : x^inf) is the unit
        # ideal and f(n) is the length of A/(x,y)^n, the triangular numbers
        samples = sample_series(
            ideal(ring2, (1, 0), (0, 1)), ideal(ring2, (1, 0)), 6
        )
        assert all(s.symbolic_ideal.is_unit() for s in samples)
        assert [s.f for s in samples] == [n * (n + 1) // 2 for n in range(1, 7)]
        assert all(s.module_dim == 0 for s in samples)

    def test_triangle_f2_is_one(self, triangle, variables):
        samples = sample_series(triangle, variables, 3)
        assert samples[0].f == 0 and samples[0].module_dim is None
        assert samples[1].f == 1 and samples[1].module_dim == 0
        assert [s.n for s in samples] == [1, 2, 3]

    def test_series_starts_at_one(self, triangle, variables):
        samples = sample_series(triangle, variables, 2)
        assert samples[0].n == 1
        with pytest.raises(ValueError):
            sample_series(triangle, variables, 0)


class TestCheckFiltration:
    def test_symbolic_filtration_passes(self, triangle, variables):
        report = check_filtration(symbolic_provider(triangle, variables), triangle, 6)
        assert report.ok and report.violation is None

    def test_half_power_provider_passes(self, triangle):
        # J_n = I^ceil(n/2) satisfies every axiom despite not being symbolic
        provider = lambda n: triangle.power((n + 1) // 2)
        report = check_filtration(provider, triangle, 6)
        assert report.ok

    def test_broken_chain_reported(self, ring2):
        x, y = ideal(ring2, (1, 0)), ideal(ring2, (0, 1))
        levels = {
            0: MonomialIdeal.unit(ring2),
            1: ideal(ring2, (2, 0)),
            2: ideal(ring2, (1, 0)),
        }
        report = check_filtration(
            lambda n: levels.get(n, ideal(ring2, (5, 0))), x, 2
        )
        assert not report.ok
        assert "J_2" in report.violation and "J_1" in report.violation

    def test_missing_unit_reported(self, ring2):
        i = ideal(ring2, (1, 0))
        report = check_filtration(lambda n: i, i, 2)
        assert not report.ok
        assert "J_0" in report.violation

    def test_power_containment_violation_reported(self, ring2):
        i = ideal(ring2, (1, 0))
        def provider(n):
            return MonomialIdeal.unit(ring2) if n == 0 else ideal(ring2, (2 * n, 0))
        report = check_filtration(provider, i, 3)
        assert not report.ok
        assert "I^" in report.violation


class TestDimStabilization:
    def _samples(self, dims, ring):
        unit = MonomialIdeal.unit(ring)
        return [
            SeriesSample(n=i + 1, symbolic_ideal=unit, module_dim=d, f=0)
            for i, d in enumerate(dims)
        ]

    def test_constant_from_start(self, ring2):
        assert dim_stabilization(self._samples([0, 0, 0, 0], ring2)) == (0, 1)

    def test_empty_head(self, ring2):
        assert dim_stabilization(self._samples([None, 0, 0, 0], ring2)) == (0, 2)

    def test_empty_tail_is_a_value(self, ring2):
        assert dim_stabilization(self._samples([None, None, None], ring2)) == (None, 1)

    def test_triangle_stabilizes_at_two(self, triangle, variables):
        samples = sample_series(triangle, variables, 10)
        assert dim_stabilization(samples) == (0, 2)

    def test_too_few_samples(self, ring2):
        with pytest.raises(InsufficientDataError):
            dim_stabilization(self._samples([0, 0], ring2))

    def test_short_suffix(self, ring2):
        with pytest.raises(InsufficientDataError):
            dim_stabilization(self._samples([0, 1, 0, 1, 0], ring2))


class TestFiltrationInvariants:
    def test_symbolic_powers_contain_ordinary_and_descend(self, triangle, variables):
        samples = sample_series(triangle, variables, 8)
        power = triangle
        previous = None
        for s in samples:
            assert s.symbolic_ideal.contains_ideal(power)
            sat = s.symbolic_ideal.colon_ideal(variables)
            assert sat == s.symbolic_ideal
            if previous is not None:
                assert previous.contains_ideal(s.symbolic_ideal)
            previous = s.symbolic_ideal
            power = power.multiply(triangle)

    def test_multiplicativity(self, triangle, variables):
        levels = {
            n: symbolic_power(triangle, variables, n) for n in range(9)
        }
        for a in range(1, 8):
            for b in range(a, 9 - a):
                assert levels[a + b].contains_ideal(levels[a].multiply(levels[b]))


class TestLocalizedLadders:
    def test_series_matches_the_fold_on_the_corpus(self):
        for entry in load_corpus(default_corpus_path()):
            base, saturator = entry.pair.base, entry.pair.saturator
            for s in sample_series(base, saturator, 6):
                assert s.symbolic_ideal == base.power(s.n).saturate_ideal(saturator), entry.name

    def test_symbolic_power_matches_the_fold_on_the_edge_graph(self):
        # (I^7 : m^inf) has 870 generators, so the antichain filter of the
        # intersection tests candidates against rows of hundreds of slots
        ring = RingContext(tuple("abcdef"))
        graph = ideal(ring, *(tuple(int(v in e) for v in range(6)) for e in EDGE_GRAPH))
        maximal = ideal(ring, *(tuple(int(v == u) for v in range(6)) for u in range(6)))
        symbolic = symbolic_power(graph, maximal, 7)
        assert len(symbolic.gens) == 870
        assert symbolic == graph.power(7).saturate_ideal(maximal)

    def test_contained_localizations_are_pruned(self):
        # c4-square: the localizations at a and c are (b, d), at b and d (a, c)
        c4 = next(e for e in load_corpus(default_corpus_path()) if e.name == "c4-square")
        assert [len(loc.gens) for loc in _localizations(c4.pair.base, c4.pair.saturator)] == [2, 2]
        # a 6-vertex edge graph with J the maximal ideal: the localization at
        # vertex 0 is generated by its four neighbours and holds the one at 5
        ring = RingContext(tuple("abcdef"))
        graph = ideal(ring, *(tuple(int(v in e) for v in range(6)) for e in EDGE_GRAPH))
        maximal = ideal(ring, *(tuple(int(v == u) for v in range(6)) for u in range(6)))
        locs = _localizations(graph, maximal)
        assert len(locs) == 5
        assert not any(a is not b and a.contains_ideal(b) for a in locs for b in locs)
