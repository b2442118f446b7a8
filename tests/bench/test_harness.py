"""Unit tests for the benchmark harness (``benchmarks/common.py``).

The benchmark scripts fit their log-log slopes through ``common.slope``,
which is the audit fitter (:func:`repro.audit.fit.fit_exponent`) without
the bootstrap.
"""

import importlib.util
import pathlib

import pytest

from repro.errors import ValidationError

_COMMON = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "common.py"
_spec = importlib.util.spec_from_file_location("benchmarks_common", _COMMON)
common = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(common)


class TestSlopeFitting:
    def test_exact_power_law(self):
        xs = [10, 100, 1000, 10000]
        ys = [x**0.5 for x in xs]
        assert common.slope(xs, ys) == pytest.approx(0.5, abs=1e-9)

    def test_linear(self):
        xs = [10, 100, 1000]
        assert common.slope(xs, [3 * x for x in xs]) == pytest.approx(1.0)

    def test_constant(self):
        assert common.slope([10, 100], [5, 5]) == pytest.approx(0.0)

    def test_zero_values_clamped(self):
        assert common.slope([10, 100], [0, 0]) == pytest.approx(0.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            common.slope([10], [10])

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValidationError):
            common.slope([10, 10], [1, 2])
