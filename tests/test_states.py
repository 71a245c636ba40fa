"""Closed-form wavefunction and density tests."""

import math
import warnings

import numpy as np
import pytest

from squeezelab import (
    DEFAULT_GRID,
    GridSpec,
    GuardViolation,
    StateSpec,
    density,
    density_surface,
    make_displacement,
    make_squeeze,
    psi_displaced_number,
    psi_displaced_number_evolved,
    psi_squeezed,
    psi_squeezed_number,
    psi_squeezed_number_evolved,
)

LN2 = math.log(2.0)
PI_QUARTER = math.pi ** -0.25
XS = np.linspace(-12.0, 12.0, 481)


def spec(n=0, x0=0.0, p0=0.0, r=0.0, phi=0.0):
    return StateSpec(n=n, disp=make_displacement(x0, p0), sq=make_squeeze(r, phi))


PARAM_SWEEP = [
    dict(x0=0.0, p0=0.0, r=0.0, phi=0.0),
    dict(x0=1.0, p0=0.0, r=LN2, phi=0.0),
    dict(x0=0.0, p0=1.0, r=LN2, phi=math.pi / 2),
    dict(x0=1.5, p0=-0.7, r=0.4, phi=-math.pi / 4),
    dict(x0=8.0, p0=0.0, r=LN2, phi=math.pi),
    dict(x0=0.0, p0=8.0, r=LN2, phi=0.0),
]


class TestDisplacedNumber:
    def test_ground_state(self):
        values = psi_displaced_number(spec(), XS)
        expected = PI_QUARTER * np.exp(-0.5 * XS * XS)
        assert np.allclose(values, expected, atol=1e-15)

    def test_node_at_displaced_center(self):
        assert abs(psi_displaced_number(spec(n=1, x0=2.0), 2.0)) == 0.0

    def test_peak_value_at_center(self):
        assert psi_displaced_number(spec(n=0, x0=8.0), 8.0) == pytest.approx(PI_QUARTER, rel=1e-14)

    def test_squeeze_rejected(self):
        with pytest.raises(ValueError):
            psi_displaced_number(spec(r=LN2), 0.0)

    def test_momentum_phase(self):
        values = psi_displaced_number(spec(n=0, x0=1.0, p0=2.0), XS)
        expected = (
            PI_QUARTER
            * np.exp(-1j * 1.0 * 2.0 / 2.0 + 2j * XS)
            * np.exp(-0.5 * (XS - 1.0) ** 2)
        )
        assert np.max(np.abs(values - expected)) < 1e-14


class TestSqueezedGaussian:
    def test_reduces_to_ground_state(self):
        values = psi_squeezed(make_displacement(0, 0), make_squeeze(0, 0), XS)
        assert np.allclose(values, PI_QUARTER * np.exp(-0.5 * XS * XS), atol=1e-15)

    @pytest.mark.parametrize("r", [0.2, LN2, 1.0])
    def test_real_squeeze_is_width_s_gaussian(self, r):
        x0, p0 = 2.0, -1.5
        s = math.exp(r)
        values = psi_squeezed(make_displacement(x0, p0), make_squeeze(r, 0.0), XS)
        expected = (
            (math.sqrt(math.pi) * s) ** -0.5
            * np.exp(-1j * x0 * p0 / 2.0)
            * np.exp(-((XS - x0) ** 2) / (2.0 * s * s) + 1j * p0 * XS)
        )
        assert np.max(np.abs(values - expected)) < 1e-12

    def test_imaginary_squeeze_modulus_at_center(self):
        values = psi_squeezed(make_displacement(8.0, 0.0), make_squeeze(LN2, math.pi / 2), 8.0)
        f4 = math.sqrt(2.125)
        assert abs(values) == pytest.approx(PI_QUARTER / math.sqrt(f4), rel=1e-12)


class TestSqueezedNumber:
    @pytest.mark.parametrize("params", PARAM_SWEEP)
    def test_n0_matches_squeezed_gaussian(self, params):
        sp = spec(n=0, **params)
        a = psi_squeezed_number(sp, XS)
        b = psi_squeezed(sp.disp, sp.sq, XS)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_node_at_center(self):
        assert abs(psi_squeezed_number(spec(n=1, r=LN2), 0.0)) == 0.0

    def test_n2_frozen_value_at_origin(self):
        # direct substitution with F1 = F4 = 2, F2 = 1/4, F3 = 1, H2(0) = -2
        value = psi_squeezed_number(spec(n=2, r=LN2), 0.0)
        expected = PI_QUARTER / math.sqrt(2.0) * (-2.0) / math.sqrt(8.0)
        assert complex(value) == pytest.approx(expected, rel=1e-13)
        assert complex(value) == pytest.approx(-PI_QUARTER / 2.0, rel=1e-13)

    def test_unsqueezed_reduces_to_displaced_number(self):
        sp = spec(n=3, x0=1.2, p0=0.7)
        assert np.max(np.abs(psi_squeezed_number(sp, XS) - psi_displaced_number(sp, XS))) < 1e-13


class TestEvolved:
    @pytest.mark.parametrize("params", PARAM_SWEEP)
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_time_zero_collapse(self, params, n):
        sp = spec(n=n, **params)
        evolved = psi_squeezed_number_evolved(sp, XS, 0.0)
        static = psi_squeezed_number(sp, XS)
        assert np.max(np.abs(evolved - static)) < 1e-10

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("t", [0.0, math.pi / 4, math.pi / 2, 1.3, math.pi])
    def test_unsqueezed_matches_displaced_number_evolution(self, n, t):
        disp = make_displacement(2.0, -1.0)
        sp = StateSpec(n=n, disp=disp, sq=make_squeeze(0.0, 0.0))
        general = psi_squeezed_number_evolved(sp, XS, t)
        display = psi_displaced_number_evolved(n, disp, XS, t)
        assert np.max(np.abs(general - display)) < 1e-10

    def test_displaced_evolution_phase_factor(self):
        # at the classical center the only t-dependence is e^{-i(n+1/2)t} times
        # the momentum phase, for a packet launched with p0 = 0
        disp = make_displacement(3.0, 0.0)
        n, t = 2, 0.9
        c = 3.0 * math.cos(t)
        value = psi_displaced_number_evolved(n, disp, c, t)
        static = psi_displaced_number_evolved(n, disp, 3.0, 0.0)
        phase = np.exp(-1j * (n + 0.5) * t) * np.exp(1j * (c - c / 2.0) * (-3.0 * math.sin(t)))
        assert complex(value) == pytest.approx(complex(static * phase), rel=1e-12)

    @pytest.mark.parametrize("t", [0.4, 1.1, 2.7])
    def test_shape_preserved_without_squeeze(self, t):
        sp = spec(n=2, x0=2.0, p0=-1.0)
        c_t = 2.0 * math.cos(t) - 1.0 * math.sin(t)
        rho_t = density(sp, XS, t)
        rho_0 = density(sp, XS - c_t + 2.0, 0.0)
        assert np.max(np.abs(rho_t - rho_0)) < 1e-10


class TestDensity:
    @pytest.mark.parametrize("params", PARAM_SWEEP)
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("t", [0.0, math.pi / 4, math.pi])
    def test_matches_amplitude_squared(self, params, n, t):
        sp = spec(n=n, **params)
        explicit = density(sp, XS, t)
        amplitude = psi_squeezed_number_evolved(sp, XS, t)
        assert np.max(np.abs(explicit - np.abs(amplitude) ** 2)) < 1e-10

    def test_ground_is_single_gaussian(self):
        sp = spec(n=0, x0=1.0, r=LN2)
        t = 0.7
        rho = density(sp, XS, t)
        # n = 0 form: exp(-X^2/(F4^2 |B|^2)) / (sqrt(pi) |B| F4)
        from squeezelab import evolution_factors, structure_factors

        sf = structure_factors(sp.sq)
        ef = evolution_factors(sf, sp.disp, t)
        big_x = XS - ef.x_shift
        expected = np.exp(-big_x**2 / (sf.f4**2 * abs(ef.b_factor) ** 2)) / (
            math.sqrt(math.pi) * abs(ef.b_factor) * sf.f4
        )
        assert np.max(np.abs(rho - expected)) < 1e-13

    def test_n1_zero_at_moving_center(self):
        sp = spec(n=1, x0=8.0, r=LN2)
        for t in (0.0, 0.8, math.pi / 2):
            c = 8.0 * math.cos(t)
            assert density(sp, c, t) < 1e-28

    def test_n2_origin_value(self):
        assert density(spec(n=2), 0.0, 0.0) == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-13)

    def test_nonnegative(self):
        sp = spec(n=3, x0=1.0, p0=2.0, r=LN2, phi=math.pi / 2)
        assert np.all(density(sp, XS, 1.1) >= 0.0)


def count_strict_maxima(row, floor_ratio=1e-9):
    floor = row.max() * floor_ratio
    inner = (row[1:-1] > row[:-2]) & (row[1:-1] > row[2:]) & (row[1:-1] > floor)
    return int(np.count_nonzero(inner))


class TestDensitySurface:
    def test_stationary_ground_state(self):
        grid = GridSpec(-8.0, 8.0, 401, 0.0, 2.0 * math.pi, 9)
        surface = density_surface(spec(), grid)
        spread = np.max(np.abs(surface - surface[0]))
        assert spread < 1e-13
        assert np.allclose(np.trapezoid(surface, grid.x_values(), axis=1), 1.0, atol=1e-8)

    def test_rows_normalized_and_nonnegative(self):
        sp = spec(n=1, x0=8.0, r=LN2)
        surface = density_surface(sp, DEFAULT_GRID)
        assert np.all(surface >= 0.0)
        assert np.max(np.abs(np.trapezoid(surface, DEFAULT_GRID.x_values(), axis=1) - 1.0)) < 1e-6

    def test_two_humps_all_rows(self):
        sp = spec(n=1, x0=8.0, r=LN2)
        surface = density_surface(sp, DEFAULT_GRID)
        counts = {count_strict_maxima(row) for row in surface}
        assert counts == {2}

    def test_three_humps_n2(self):
        sp = spec(n=2, r=LN2)
        grid = GridSpec(-12.0, 12.0, 801, 0.0, 2.0 * math.pi, 17)
        surface = density_surface(sp, grid)
        counts = {count_strict_maxima(row) for row in surface}
        assert counts == {3}

    def test_window_too_small_rejected(self):
        sp = spec(n=1, x0=8.0, r=LN2)
        grid = GridSpec(-10.0, 10.0, 501, 0.0, 1.0, 3)
        with pytest.raises(GuardViolation):
            density_surface(sp, grid)

    def test_non_finite_density_rejected(self):
        # |A|^n, |H_n|^2 and the Gaussian overflow separately at n = 400
        sp = spec(n=400, r=0.5, phi=0.3)
        grid = GridSpec(-60.0, 60.0, 2001, 0.7, 0.7, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the guard names the overflow; numpy stays quiet
            with pytest.raises(GuardViolation, match="non-finite density.*n = 400"):
                density_surface(sp, grid)


class TestValidation:
    def test_negative_quantum_number(self):
        with pytest.raises(ValueError):
            spec(n=-1)

    def test_single_time_sample_is_t_min(self):
        grid = GridSpec(-1.0, 1.0, 10, 0.25, 2.0, 1)
        assert grid.t_values().tolist() == [0.25]

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, -1.0, 10, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 1, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 10, 1.0, 0.0, 2)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 10, 0.0, 1.0, 0)
