from __future__ import annotations

import pytest

from satpow import (
    InsufficientDataError,
    MonomialIdeal,
    RingContext,
    SeriesSample,
    ZeroIdealError,
    dim_stabilization,
    quotient_module_data,
    sample_series,
    symbolic_power,
)
from satpow import hilbert
from satpow.cli import default_corpus_path
from satpow.harness import run_verify
from satpow.parsing import load_corpus

from conftest import (
    M, check_filtration, contains, contains_ideal, cycle_pair, graph_pair, ideal, odd_cycle_symbolic_power,
    sample_series_with_saturations, symbolic_provider,
)

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
        assert set(sat.gens) == {
            (1, 1, 1), (2, 2, 0), (2, 0, 2), (0, 2, 2),
        }
        assert contains(sat, M(1, 1, 1))
        assert not contains(triangle.power(2), M(1, 1, 1))

    def test_unit_saturator_gives_ordinary_powers(self, triangle, ring3):
        unit = MonomialIdeal.unit(ring3)
        for n in range(4):
            assert symbolic_power(triangle, unit, n) == triangle.power(n)

    def test_zero_inputs_rejected(self, ring2):
        zero = MonomialIdeal(ring2, ())
        i = ideal(ring2, (1, 0))
        with pytest.raises(ZeroIdealError):
            symbolic_power(zero, i, 2)
        with pytest.raises(ZeroIdealError):
            symbolic_power(i, zero, 2)

    def test_bad_n_is_rejected_before_any_work(self, ring2):
        # a zero saturator would raise ZeroIdealError, which is a ValueError too
        i = ideal(ring2, (1, 0))
        zero = MonomialIdeal(ring2, ())
        with pytest.raises(ValueError, match="^symbolic power wants n >= 0, got -1$"):
            symbolic_power(i, zero, -1)
        with pytest.raises(ValueError, match="^sample_series wants nmax >= 1, got 0$"):
            sample_series(i, zero, 0)


class TestSampleSeries:
    def test_saturation_fixed_series_is_zero(self, ring2):
        # J regular mod every power: the quotient is empty at every n
        samples = sample_series(ideal(ring2, (1, 0)), ideal(ring2, (0, 1)), 6)
        assert [s.f for s in samples] == [0] * 6
        assert all(s.module_dim is None for s in samples)

    def test_maximal_ideal_saturated_by_own_generator(self, ring2):
        # I = (x, y), J = (x): x^n lies in I^n, so (I^n : x^inf) is the unit
        # ideal and f(n) is the length of A/(x,y)^n, the triangular numbers
        pairs = sample_series_with_saturations(
            ideal(ring2, (1, 0), (0, 1)), ideal(ring2, (1, 0)), 6
        )
        samples = [s for s, _ in pairs]
        assert all(saturation.is_unit() for _, saturation in pairs)
        assert [s.f for s in samples] == [n * (n + 1) // 2 for n in range(1, 7)]
        assert all(s.module_dim == 0 for s in samples)

    def test_triangle_f2_is_one(self, triangle, variables):
        samples = sample_series(triangle, variables, 3)
        assert samples[0].f == 0 and samples[0].module_dim is None
        assert samples[1].f == 1 and samples[1].module_dim == 0
        assert [s.n for s in samples] == [1, 2, 3]

    @pytest.mark.parametrize("e", [100, 1000, 10**12])
    def test_one_huge_exponent_gives_f_linear_in_it(self, ring3, variables, e):
        # I = (x^E y, y^2 z, x z^3): f(n) = a_n E - b_n with a_n, b_n free
        # of E, as the numerators are sparse and never a list of length E
        samples = sample_series(ideal(ring3, (e, 1, 0), (0, 2, 1), (1, 0, 3)), variables, 5)
        assert [s.f for s in samples] == [a * e - b for a, b in zip([2, 9, 24, 49, 87], [2, 6, 13, 22, 35])]
        assert all(s.module_dim == 0 for s in samples)

    def test_series_starts_at_one(self, triangle, variables):
        samples = sample_series(triangle, variables, 2)
        assert samples[0].n == 1
        with pytest.raises(ValueError):
            sample_series(triangle, variables, 0)


class TestCycles:
    """Edge ideals of cycles with J the maximal ideal, on which theorems fix parts of the series.

    From five vertices on, their saturations are meets past three fields,
    and C7's from n = 3 on are large enough to split on the levels of a
    variable.
    """

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_odd_cycles_start_at_k_plus_one(self, k):
        # C_{2k+1}: the maximal ideal is not associated to I^n for n <= k
        # (Chen-Morey-Sung, Rocky Mountain J. Math. 32, 2002), so f(n) = 0
        # there.  The product of all variables times any x_i is a product of
        # k + 1 edges, so lies in (I^{k+1} : m^inf), while its degree 2k + 1
        # keeps it out of I^{k+1}: f(k + 1) >= 1, and it is 1
        base, maximal = cycle_pair(2 * k + 1)
        samples = sample_series(base, maximal, k + 1)
        assert [(s.f, s.module_dim) for s in samples] == [(0, None)] * k + [(1, 0)]
        product = (1,) * (2 * k + 1)
        assert contains(symbolic_power(base, maximal, k + 1), product)
        assert not contains(base.power(k + 1), product)

    @pytest.mark.parametrize(
        "count, edges, nmax",
        [
            (4, [(i, (i + 1) % 4) for i in range(4)], 6),
            (6, [(i, (i + 1) % 6) for i in range(6)], 6),
            (5, [(a, b) for a in (0, 1) for b in (2, 3, 4)], 6),
            (5, [(i, i + 1) for i in range(4)], 6),
            (8, [(i, (i + 1) % 8) for i in range(8)], 5),
            (8, [(i, i | 1 << b) for i in range(8) for b in range(3) if not i >> b & 1], 5),
            (8, [(i, i + 1) for i in range(7)], 5),
            (6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)], 6),
        ],
        ids=["4", "6", "K23", "P5", "8", "Q3", "P8", "K33"],
    )
    def test_even_cycles_have_no_torsion(self, count, edges, nmax):
        # the edge ideal of a bipartite graph is normally torsion-free
        # (Simis-Vasconcelos-Villarreal, J. Algebra 167, 1994), so
        # (I^n : m^inf) = I^n and f = 0: the 4-, 6- and 8-cycles, K_{2,3},
        # K_{3,3}, the paths on five and eight vertices and the 3-cube,
        # whose saturations past six fields split and fold lcm pairs
        base, maximal = graph_pair(count, edges)
        pairs = sample_series_with_saturations(base, maximal, nmax)
        assert [(s.f, s.module_dim) for s, _ in pairs] == [(0, None)] * nmax
        assert [saturation for _, saturation in pairs] == [base.power(n) for n in range(1, nmax + 1)]

    @pytest.mark.parametrize("k, nmax", [(1, 8), (2, 8), (3, 5), (4, 4)])
    def test_odd_cycles_match_their_closed_form(self, k, nmax):
        # each saturation of the series, and each symbolic power, against
        # the closed form, which shares no code with either
        base, maximal = cycle_pair(2 * k + 1)
        pairs = sample_series_with_saturations(base, maximal, nmax)
        for n, (_, saturation) in enumerate(pairs, 1):
            expected = odd_cycle_symbolic_power(k, n)
            assert list(saturation.gens) == expected, n
            assert list(symbolic_power(base, maximal, n).gens) == expected, n


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
        return [
            SeriesSample(n=i + 1, symbolic_gens=1, module_dim=d, f=0)
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
        power = triangle
        previous = None
        for _, saturation in sample_series_with_saturations(triangle, variables, 8):
            assert contains_ideal(saturation, power)
            sat = saturation.colon_ideal(variables)
            assert sat == saturation
            if previous is not None:
                assert contains_ideal(previous, saturation)
            previous = saturation
            power = power.multiply(triangle)

    def test_multiplicativity(self, triangle, variables):
        levels = {
            n: symbolic_power(triangle, variables, n) for n in range(9)
        }
        for a in range(1, 8):
            for b in range(a, 9 - a):
                assert contains_ideal(levels[a + b], levels[a].multiply(levels[b]))


class TestLocalizedLadders:
    def test_series_matches_the_fold_on_the_corpus(self):
        for entry in load_corpus(default_corpus_path()):
            base, saturator = entry.pair.base, entry.pair.saturator
            for s, sample_saturation in sample_series_with_saturations(base, saturator, 12):
                power = base.power(s.n)
                saturation = power.saturate_ideal(saturator)
                assert sample_saturation == saturation, entry.name
                data = quotient_module_data(power, saturation)
                assert (s.f, s.module_dim) == (data.e0, data.module_dim), (entry.name, s.n)

    def test_series_does_not_depend_on_its_length(self):
        # the packing of a series is sized from nmax, so its rungs are packed
        # with a different field width for each nmax
        for entry in load_corpus(default_corpus_path()):
            base, saturator = entry.pair.base, entry.pair.saturator
            assert sample_series(base, saturator, 12)[:6] == sample_series(base, saturator, 6), entry.name

    def test_verify_builds_no_ideal_past_loading(self, monkeypatch):
        # every ladder, saturation and numerator stays packed, and a sample
        # keeps only the generator count of its saturation
        entries = load_corpus(default_corpus_path())
        built = []
        real = MonomialIdeal.__init__

        def counting(self, ring, exps):
            built.append(ring)
            real(self, ring, exps)

        monkeypatch.setattr(MonomialIdeal, "__init__", counting)
        run_verify(entries, nmax=20, min_tail=2)
        assert len(built) == 0

    def test_unit_saturator_computes_no_numerator(self, monkeypatch):
        # every saturation equals I^n, so each quotient is the empty module
        real = hilbert._quotient

        def equal_only(pk, inner, outer, memo, at=0):
            assert inner == outer, "numerator computed for a quotient of equal ideals"
            return real(pk, inner, outer, memo, at)

        monkeypatch.setattr(hilbert, "_quotient", equal_only)
        entry = next(e for e in load_corpus(default_corpus_path()) if e.name == "unit-saturator")
        samples = sample_series(entry.pair.base, entry.pair.saturator, 8)
        assert [(s.f, s.module_dim) for s in samples] == [(0, None)] * 8

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
        _, _, parts = c4.pair.base.packed_localizations(c4.pair.saturator)
        assert [len(p) for p in parts] == [2, 2]
        # a 6-vertex edge graph with J the maximal ideal: the localization at
        # vertex 0 is generated by its four neighbours and holds the one at 5
        ring = RingContext(tuple("abcdef"))
        graph = ideal(ring, *(tuple(int(v in e) for v in range(6)) for e in EDGE_GRAPH))
        maximal = ideal(ring, *(tuple(int(v == u) for v in range(6)) for u in range(6)))
        pk, _, parts = graph.packed_localizations(maximal)
        locs = [MonomialIdeal(ring, map(pk.unpack, p)) for p in parts]
        assert len(locs) == 5
        assert not any(a is not b and contains_ideal(a, b) for a in locs for b in locs)
