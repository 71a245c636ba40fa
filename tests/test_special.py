"""Special-function and quadrature tests."""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelab import (
    GuardViolation,
    QuadratureSpec,
    hermite,
    integrate,
    normalized_hermite,
    oscillator_eigenfunctions,
)

PI_QUARTER = math.pi ** -0.25


class TestHermite:
    def test_order_zero_is_one(self):
        for w in (0.0, 1.5, -3.0, 2.0 + 1.0j, -0.5j):
            assert hermite(0, w) == 1.0

    def test_order_one_at_origin(self):
        assert hermite(1, 0.0) == 0.0

    def test_h2_at_one(self):
        # oracle: H2(x) = 4x^2 - 2 from one step of the recurrence
        assert hermite(2, 1.0) == pytest.approx(4.0 * 1.0 - 2.0, abs=1e-14)

    def test_matches_explicit_low_orders(self):
        x = np.linspace(-3, 3, 31)
        assert np.allclose(hermite(1, x), 2 * x, rtol=1e-13)
        assert np.allclose(hermite(3, x), 8 * x**3 - 12 * x, rtol=1e-12, atol=1e-12)
        assert np.allclose(hermite(4, x), 16 * x**4 - 48 * x**2 + 12, rtol=1e-12, atol=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)

    @given(
        n=st.integers(min_value=1, max_value=64),
        re=st.floats(min_value=-10, max_value=10),
        im=st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_recurrence_consistency_complex(self, n, re, im):
        w = complex(re, im)
        lhs = hermite(n + 1, w) - 2 * w * hermite(n, w) + 2 * n * hermite(n - 1, w)
        scale = max(abs(hermite(n + 1, w)), abs(2 * w * hermite(n, w)), 1.0)
        assert abs(lhs) <= 1e-10 * scale

    @given(n=st.integers(min_value=1, max_value=64), x=st.floats(min_value=-10, max_value=10))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_consistency_real(self, n, x):
        lhs = hermite(n + 1, x) - 2 * x * hermite(n, x) + 2 * n * hermite(n - 1, x)
        scale = max(abs(hermite(n + 1, x)), abs(2 * x * hermite(n, x)), 1.0)
        assert abs(lhs) <= 1e-10 * scale

    def test_normalized_variant_matches(self):
        for n in (0, 1, 2, 5, 9):
            for w in (0.3, -1.2, 0.8 + 0.4j):
                expected = hermite(n, w) / math.sqrt(2.0**n * math.factorial(n))
                assert normalized_hermite(n, w) == pytest.approx(expected, rel=1e-12)

    def test_normalized_large_order_stays_finite(self):
        value = normalized_hermite(300, 12.0)
        assert np.isfinite(value)


class TestEigenfunctions:
    def test_ground_state_at_origin(self):
        assert oscillator_eigenfunctions(0, 0.0)[0, 0] == pytest.approx(PI_QUARTER, rel=1e-14)

    def test_first_excited_odd(self):
        assert oscillator_eigenfunctions(1, 0.0)[1, 0] == 0.0

    def test_second_excited_at_origin(self):
        # H2(0) = -2 gives psi_2(0) = -pi^{-1/4}/sqrt(2)
        assert oscillator_eigenfunctions(2, 0.0)[2, 0] == pytest.approx(-PI_QUARTER / math.sqrt(2), rel=1e-14)

    def test_matches_direct_formula_moderate_n(self):
        x = np.linspace(-4, 4, 41)
        for n in (0, 1, 3, 8, 15):
            direct = (
                np.exp(-0.5 * x * x)
                * hermite(n, x)
                / (math.pi**0.25 * math.sqrt(2.0**n * math.factorial(n)))
            )
            assert np.allclose(oscillator_eigenfunctions(n, x)[n], direct, rtol=1e-11, atol=1e-13)

    def test_large_n_no_overflow(self):
        values = oscillator_eigenfunctions(512, np.linspace(-20, 20, 101))[512]
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values)) < 1.0

    def test_large_n_normalization(self):
        spec = QuadratureSpec(-30.0, 30.0, 12001)
        norm = integrate(lambda x: oscillator_eigenfunctions(200, x)[200] ** 2, spec)
        assert norm == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("m", range(0, 21, 4))
    def test_orthonormality(self, m):
        spec = QuadratureSpec(-12.0, 12.0, 4001)
        for n in range(0, 21, 5):
            value = integrate(
                lambda x: oscillator_eigenfunctions(m, x)[m] * oscillator_eigenfunctions(n, x)[n], spec
            )
            assert value == pytest.approx(1.0 if m == n else 0.0, abs=1e-8)


class TestIntegrate:
    def test_gaussian_normalization(self):
        spec = QuadratureSpec(-12.0, 12.0, 4000)
        value = integrate(lambda x: np.exp(-x * x) / math.sqrt(math.pi), spec)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_odd_integrand_vanishes(self):
        spec = QuadratureSpec(-12.0, 12.0, 4000)
        assert integrate(lambda x: x * np.exp(-x * x), spec) == pytest.approx(0.0, abs=1e-12)

    def test_eigenfunction_normalization(self):
        spec = QuadratureSpec(-12.0, 12.0, 4000)
        value = integrate(lambda x: oscillator_eigenfunctions(3, x)[3] ** 2, spec)
        assert value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("points", [*range(2, 14), 4000, 4001])
    @pytest.mark.parametrize(
        "f",
        [np.exp, lambda x: np.exp(-((x - 0.3) ** 2)) * (1.0 + x), lambda x: np.cos(3.0 * x) + x ** 3 + 2.0],
        ids=["exp", "shifted-gaussian", "cubic-plus-cosine"],
    )
    def test_matches_numpy_trapezoid(self, points, f):
        spec = QuadratureSpec(-1.3, 2.1, points)
        xs = spec.grid()
        assert integrate(f, spec) == float(np.trapezoid(f(xs), xs))

    def test_integrand_called_once_and_guard_propagates(self):
        calls = []

        def guarded(x):
            calls.append(x.shape)
            raise GuardViolation("integrand refused the window")

        with pytest.raises(GuardViolation, match="refused the window"):
            integrate(guarded, QuadratureSpec(-1.0, 1.0, 101))
        assert calls == [(101,)]

    def test_scalar_valued_integrand_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            integrate(lambda x: 1.0, QuadratureSpec(-1.0, 1.0, 101))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(1.0, -1.0, 100)
        with pytest.raises(ValueError):
            QuadratureSpec(-1.0, 1.0, 1)

    @pytest.mark.parametrize("points, message", [
        (2.5, "^quadrature needs an integer points, got 2.5$"),
        (True, "^quadrature needs an integer points, got True$"),
        (1, "^quadrature needs points >= 2, got 1$"),
    ])
    def test_points_must_be_an_integer(self, points, message):
        with pytest.raises(ValueError, match=message):
            QuadratureSpec(0.0, 1.0, points)

    def test_numpy_integer_points(self):
        assert QuadratureSpec(0.0, 1.0, np.int64(3)).grid().tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize(
        "lower, upper", [(-math.inf, 40.0), (-40.0, math.nan), (-(10**400), 40)], ids=["-inf", "nan", "-10**400"]
    )
    def test_bound_that_is_not_finite_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="^quadrature window must be finite, got "):
            QuadratureSpec(lower, upper, 4001)

    def test_window_wider_than_the_largest_float_rejected(self):
        # numpy's linspace of such a window is [nan, inf, inf, inf, 1e308]
        with pytest.raises(ValueError, match=r"^quadrature window \[-1e\+308, 1e\+308\] is wider than the largest float$"):
            QuadratureSpec(-1e308, 1e308, 5)

    def test_widest_window_within_the_float_range_admitted(self):
        assert np.all(np.isfinite(QuadratureSpec(-8e307, 8e307, 5).grid()))

    def test_non_finite_integrand_rejected(self):
        spec = QuadratureSpec(-1.0, 1.0, 101)
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError):
                integrate(lambda x: 1.0 / x, spec)


@pytest.mark.parametrize("build", [normalized_hermite, oscillator_eigenfunctions, hermite])
def test_negative_order_rejected(build):
    with pytest.raises(ValueError, match="must be non-negative, got -1"):
        build(-1, 0.0)


@pytest.mark.parametrize("build", [normalized_hermite, oscillator_eigenfunctions])
def test_recurrence_cost_refused_before_the_table(build):
    # a (10**15 + 1) x 1 eigenfunction table would be 7.11 PiB
    message = f"Hermite recurrence to n = {10**15} on 1 samples: cost n (samples + 500) = 5.01e+17 exceeds 1e+08"
    with pytest.raises(GuardViolation, match=f"^{re.escape(message)}$"):
        build(10**15, [0.0])


@pytest.mark.parametrize("build", [normalized_hermite, oscillator_eigenfunctions, hermite])
def test_recurrence_cost_past_the_float_range_is_a_guard(build):
    # n (samples + 500) is an int that float() cannot hold
    with pytest.raises(GuardViolation, match=r"cost n \(samples \+ 500\) = 5.010e\+402 exceeds 1e\+08$"):
        build(10**400, [0.0])


def test_hermite_cost_refused_at_once():
    # the unguarded recurrence ran 2.7 s here and overflowed with warnings
    began = time.perf_counter()
    message = "Hermite recurrence to n = 1000000 on 2 samples: cost n (samples + 500) = 5.02e+08 exceeds 1e+08"
    with pytest.raises(GuardViolation, match=f"^{re.escape(message)}$"):
        hermite(10**6, np.zeros(2))
    assert time.perf_counter() - began < 0.1


@pytest.mark.parametrize("order", [2.5, True], ids=["2.5", "True"])
@pytest.mark.parametrize("build", [hermite, normalized_hermite, oscillator_eigenfunctions])
def test_order_that_is_not_an_integer_rejected(build, order):
    # a bool is refused too: numpy would read it as a mask, not as order 0 or 1
    with pytest.raises(ValueError, match=f"^quantum number n must be an integer, got {order!r}$"):
        build(order, np.array([0.0, 0.5]))
