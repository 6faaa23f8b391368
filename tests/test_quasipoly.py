from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from satpow import InsufficientDataError, coeff_is_constant, evaluate, fit, grade, quasipoly
from satpow.quasipoly import QuasiPolynomial


def series(fn, n_lo, n_hi):
    return [(n, fn(n)) for n in range(n_lo, n_hi + 1)]


class TestFitBasics:
    def test_constant_sequence(self):
        qp = fit([(n, 5) for n in range(1, 7)])
        assert (qp.period, qp.degree) == (1, 0)
        assert qp.coeffs == ((Fraction(5),),)

    def test_parity_staircase(self):
        # f(n) = n + (n mod 2): period 2, degree 1, a1 constant 1, a0 in {0, 1}
        qp = fit(series(lambda n: n + (n % 2), 1, 10))
        assert (qp.period, qp.degree) == (2, 1)
        assert qp.coeffs[1] == (Fraction(1), Fraction(1))
        assert qp.coeffs[0] == (Fraction(0), Fraction(1))

    def test_zero_function(self):
        qp = fit([(n, 0) for n in range(1, 9)])
        assert qp.degree is None
        assert qp.coeffs == ()
        assert qp.period == 1
        assert evaluate(qp, 100) == 0

    def test_eventually_zero(self):
        qp = fit([(1, 7)] + [(n, 0) for n in range(2, 10)])
        assert qp.degree is None
        assert qp.onset == 2

    def test_eventually_constant_fits_period_one(self):
        qp = fit([(1, 3)] + [(n, 5) for n in range(2, 9)])
        assert (qp.period, qp.degree) == (1, 0)
        assert qp.onset == 2
        assert evaluate(qp, 50) == 5

    def test_rational_valued_samples(self):
        qp = fit([(n, Fraction(n * (n + 1), 2)) for n in range(1, 9)])
        assert (qp.period, qp.degree) == (1, 2)
        assert qp.coeffs[2] == (Fraction(1, 2),)
        assert qp.coeffs[1] == (Fraction(1, 2),)

    def test_int_samples_are_differenced_as_ints(self, monkeypatch):
        seen = []
        fit_class = quasipoly._fit_class
        monkeypatch.setattr(
            quasipoly, "_fit_class", lambda ns, vals, t: seen.append(vals) or fit_class(ns, vals, t)
        )
        qp = fit(series(lambda n: n * n + n % 2, 1, 12), min_tail=2)
        assert (qp.period, qp.degree) == (2, 2)
        assert seen and all(type(v) is int for vals in seen for v in vals)
        assert all(type(a) is Fraction for row in qp.coeffs for a in row)

    def test_decimal_samples_fit_exactly(self):
        # 11/10 n^2 + n/2 + (n mod 3)/4, given as Decimals
        qp = fit(series(lambda n: Decimal("1.1") * n * n + Decimal("0.5") * n + Decimal("0.25") * (n % 3), 1, 15),
                 min_tail=2)
        assert qp == QuasiPolynomial(
            period=3,
            degree=2,
            coeffs=(
                (Fraction(0), Fraction(1, 4), Fraction(1, 2)),
                (Fraction(1, 2),) * 3,
                (Fraction(11, 10),) * 3,
            ),
            onset=3,
        )
        assert all(type(a) is Fraction for row in qp.coeffs for a in row)


class TestEvaluate:
    def test_constant(self):
        qp = fit([(n, 5) for n in range(1, 7)])
        assert evaluate(qp, 7) == 5

    def test_parity_staircase_values(self):
        qp = fit(series(lambda n: n + (n % 2), 1, 10))
        assert evaluate(qp, 6) == 6
        assert evaluate(qp, 7) == 8

    def test_negative_rejected(self):
        qp = fit([(n, 5) for n in range(1, 7)])
        with pytest.raises(ValueError):
            evaluate(qp, -1)


class TestGradeAndConstancy:
    def test_constant_grade(self):
        assert grade(fit([(n, 5) for n in range(1, 7)])) == -1

    def test_staircase_grade(self):
        qp = fit(series(lambda n: n + (n % 2), 1, 10))
        assert grade(qp) == 0
        assert coeff_is_constant(qp, 1)
        assert not coeff_is_constant(qp, 0)

    def test_zero_function_grade(self):
        assert grade(fit([(n, 0) for n in range(1, 8)])) == -1

    def test_zero_function_coefficients_are_constant(self):
        # the zero function has no coefficient rows, and every index reads as constant
        zero = fit([(n, 0) for n in range(1, 8)])
        assert all(coeff_is_constant(zero, i) for i in (0, 1, 5))

    def test_index_out_of_range(self):
        qp = fit([(n, 5) for n in range(1, 7)])
        with pytest.raises(ValueError):
            coeff_is_constant(qp, 1)


class TestValidation:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            fit([(1, 1.0), (2, 2.0), (3, 3.0)])

    def test_nonconsecutive_rejected(self):
        with pytest.raises(ValueError):
            fit([(1, 1), (3, 3), (4, 4)])

    def test_min_tail_floor(self):
        with pytest.raises(ValueError):
            fit([(n, 5) for n in range(1, 7)], min_tail=1)

    def test_period_beyond_the_window_fails_loudly(self):
        # 9 samples hold periods up to 9 // (3 + 1) = 2; one period more reaches 3
        with pytest.raises(InsufficientDataError):
            fit(series(lambda n: n % 3, 1, 9))
        qp = fit(series(lambda n: n % 3, 1, 12))
        assert qp.period == 3

    def test_the_window_alone_bounds_the_period(self):
        qp = fit(series(lambda n: (3, 0, 5, 1, 6, 2, 4)[n % 7], 1, 21), min_tail=2)
        assert (qp.period, qp.degree) == (7, 0)

    def test_min_tail_is_keyword_only_and_the_period_takes_no_cap(self):
        samples = [(n, 5) for n in range(1, 13)]
        with pytest.raises(TypeError):
            fit(samples, g_max=6)
        with pytest.raises(TypeError):
            fit(samples, 3)

    def test_periods_too_long_for_the_window_are_not_tried(self, monkeypatch):
        # 12 samples: above period 12 // (3 + 1) = 3 some class holds fewer than 4
        tried = []
        try_period = quasipoly._try_period
        monkeypatch.setattr(
            quasipoly, "_try_period", lambda ns, vs, g, t: tried.append(g) or try_period(ns, vs, g, t)
        )
        with pytest.raises(InsufficientDataError, match="the 12 samples with 3 verification"):
            fit(series(lambda n: n**3 * (n % 5), 1, 12), min_tail=3)
        assert tried == [1, 2, 3]

    def test_short_window_fails_loudly(self):
        with pytest.raises(InsufficientDataError):
            fit([(1, 1), (2, 4), (3, 9)])

    def test_no_samples_fail_loudly(self):
        with pytest.raises(InsufficientDataError, match="no samples"):
            fit([])


def random_quasipoly(rng: random.Random, g_max: int = 4, c_max: int = 3) -> QuasiPolynomial:
    """Random table with denominators <= 6 and a nonzero top row somewhere."""
    g = rng.randint(1, g_max)
    c = rng.randint(0, c_max)
    rows = []
    for i in range(c + 1):
        rows.append(
            tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(g)
            )
        )
    top = list(rows[c])
    if all(v == 0 for v in top):
        top[rng.randrange(g)] = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        rows[c] = tuple(top)
    # the table at its minimal period: the least divisor of g whose columns repeat
    d = min(
        d for d in range(1, g + 1)
        if g % d == 0 and all(row[r] == row[r % d] for row in rows for r in range(g))
    )
    return QuasiPolynomial(period=d, degree=c, coeffs=tuple(row[:d] for row in rows), onset=1)


def fit_as_ints_and_as_fractions(samples, **kwargs) -> QuasiPolynomial:
    """``fit`` of ``samples`` with integral values as ints, equal to the fit of all as Fractions."""
    as_ints = [(n, int(v) if Fraction(v).denominator == 1 else v) for n, v in samples]
    qp = fit(as_ints, **kwargs)
    assert fit([(n, Fraction(v)) for n, v in samples], **kwargs) == qp
    assert all(type(a) is Fraction for row in qp.coeffs for a in row)
    return qp


class TestRoundTrip:
    def test_regenerates_random_quasipolynomials(self):
        rng = random.Random(20260811)
        for _ in range(30):
            qp = random_quasipoly(rng)
            window = (qp.degree + 2) * qp.period + 5
            samples = [(n, evaluate(qp, n)) for n in range(1, window + 1)]
            refit = fit_as_ints_and_as_fractions(samples, min_tail=2)
            assert refit.period == qp.period
            assert refit.degree == qp.degree
            assert refit.coeffs == qp.coeffs

    def test_reproduces_samples_from_onset_despite_dirty_head(self):
        rng = random.Random(61)
        for _ in range(20):
            qp = random_quasipoly(rng)
            c = qp.degree
            window = (c + 2) * qp.period + 7
            samples = [(n, evaluate(qp, n)) for n in range(1, window + 1)]
            head = rng.randint(0, 2)
            noisy = [
                (n, v + (Fraction(rng.randint(1, 5)) if i < head else 0))
                for i, (n, v) in enumerate(samples)
            ]
            refit = fit_as_ints_and_as_fractions(noisy, min_tail=2)
            for n, v in noisy:
                if n >= refit.onset:
                    assert evaluate(refit, n) == v

    def test_minimality_of_fitted_period(self):
        # f(n) = n + (n mod 2) written with period 4: columns a, b, a, b fit at period 2
        long = QuasiPolynomial(period=4, degree=1, coeffs=((0, 1, 0, 1), (1, 1, 1, 1)), onset=1)
        qp = fit_as_ints_and_as_fractions([(n, evaluate(long, n)) for n in range(1, 25)], min_tail=2)
        assert (qp.period, qp.degree) == (2, 1)
        assert qp.coeffs == ((0, 1), (1, 1))
        assert [evaluate(qp, n) for n in range(1, 9)] == [n + n % 2 for n in range(1, 9)]
        # random tables repeated 2 or 3 times: the fit returns the short table
        rng = random.Random(59)
        for _ in range(30):
            short = random_quasipoly(rng, g_max=3)
            g = short.period * rng.randint(2, 3)
            coeffs = tuple(row * (g // short.period) for row in short.coeffs)
            long = QuasiPolynomial(period=g, degree=short.degree, coeffs=coeffs, onset=1)
            window = (long.degree + 2) * g + 5
            samples = [(n, evaluate(long, n)) for n in range(1, window + 1)]
            qp = fit_as_ints_and_as_fractions(samples, min_tail=2)
            assert (qp.period, qp.degree) == (short.period, short.degree)
            assert qp.coeffs == short.coeffs
