"""Unit tests for repro.audit.fit (log-log exponent fitting)."""

import random

import pytest

from repro.audit.fit import ExponentFit, fit_exponent
from repro.errors import ValidationError


class TestRecovery:
    def test_exact_power_law_recovers_exponent(self):
        xs = [100, 200, 400, 800]
        for exponent in (0.0, 0.5, 1.0, 2.0):
            ys = [x**exponent for x in xs]
            fit = fit_exponent(xs, ys, resamples=50, seed=1)
            assert fit.slope == pytest.approx(exponent, abs=1e-9)
            assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_noisy_power_law_recovers_within_ci(self):
        rng = random.Random(2)
        xs = [float(x) for x in (100, 200, 400, 800, 1600)]
        ys = [x**0.5 * rng.uniform(0.8, 1.2) for x in xs]
        fit = fit_exponent(xs, ys, resamples=200, seed=3)
        assert abs(fit.slope - 0.5) < 0.2
        assert fit.ci_low <= fit.slope <= fit.ci_high

    def test_nonpositive_values_clamped_not_fatal(self):
        fit = fit_exponent([10, 20, 40], [0, 0, 0], resamples=10, seed=0)
        assert fit.slope == pytest.approx(0.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            fit_exponent([10], [5], resamples=0, seed=0)

    def test_all_x_equal_rejected(self):
        with pytest.raises(ValidationError, match="all x values equal"):
            fit_exponent([10, 10, 10], [1, 2, 3], resamples=0, seed=0)


class TestDeterminism:
    def test_same_seed_same_fit(self):
        xs = [100, 200, 400, 800]
        rng = random.Random(5)
        ys = [x**0.4 * rng.uniform(0.9, 1.1) for x in xs]
        a = fit_exponent(xs, ys, resamples=100, seed=11)
        b = fit_exponent(xs, ys, resamples=100, seed=11)
        assert a == b

    def test_different_seed_same_point_estimate(self):
        xs = [100, 200, 400, 800]
        rng = random.Random(6)
        ys = [x**0.4 * rng.uniform(0.9, 1.1) for x in xs]
        a = fit_exponent(xs, ys, resamples=100, seed=1)
        b = fit_exponent(xs, ys, resamples=100, seed=2)
        assert a.slope == b.slope  # bootstrap only moves the CI


class TestSerialization:
    def test_round_trip(self):
        fit = fit_exponent([10, 20, 40], [3, 4, 6], resamples=25, seed=4)
        assert ExponentFit.from_dict(fit.to_dict()) == fit

    def test_ci_always_covers_point_estimate(self):
        fit = fit_exponent([10, 20, 40, 80], [1, 9, 2, 30], resamples=50, seed=9)
        assert fit.ci_low <= fit.slope <= fit.ci_high
        assert fit.covers(fit.slope)
