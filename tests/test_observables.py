"""Moments and uncertainty-product tests: closed form against the ladder algebra."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelab import (
    FIGURE_PRESETS,
    compare_formalisms,
    evolution_factors,
    FockState,
    GuardViolation,
    MomentSet,
    StateSpec,
    displaced_number_coeffs,
    figure_spec,
    ladder_matrices,
    make_displacement,
    make_squeeze,
    moments_closed,
    moments_numeric,
    number_state,
    psi_displaced_number_evolved,
    structure_factors,
    time_evolve,
    uncertainty_product,
    uncertainty_product_width_form,
)
from squeezelab.equivalence import operator_state

LN2 = math.log(2.0)


def spec(n=0, x0=0.0, p0=0.0, r=0.0, phi=0.0):
    return StateSpec(n=n, disp=make_displacement(x0, p0), sq=make_squeeze(r, phi))


def operator_coeffs(sp, truncation=256):
    # the column route; tests in test_equivalence hold it to the D @ S matrix product
    return operator_state(sp, truncation)


class TestClosedForm:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize("t", [0.0, 0.7, math.pi])
    def test_unsqueezed_variances(self, n, t):
        m = moments_closed(spec(n=n, x0=1.0, p0=-2.0), t)
        assert m.var_x == pytest.approx(n + 0.5, rel=1e-14)
        assert m.var_p == pytest.approx(n + 0.5, rel=1e-14)

    def test_ground_state_minimum_uncertainty(self):
        m = moments_closed(spec(), 0.3)
        assert m.product == pytest.approx(0.25, rel=1e-14)

    def test_mean_rotation(self):
        m = moments_closed(spec(n=1, x0=8.0), math.pi / 2)
        assert m.mean_x == pytest.approx(0.0, abs=1e-13)
        assert m.mean_p == pytest.approx(-8.0, rel=1e-14)

    def test_variances_displacement_independent(self):
        a = moments_closed(spec(n=2, x0=8.0, r=LN2, phi=0.5), 1.1)
        b = moments_closed(spec(n=2, x0=0.0, p0=3.0, r=LN2, phi=0.5), 1.1)
        assert a.var_x == b.var_x and a.var_p == b.var_p


    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 20),
        r=st.floats(0.0, 15.0),
        phi=st.floats(-math.pi, math.pi),
        t=st.floats(-50.0, 50.0),
    )
    def test_variances_stay_positive_at_large_squeeze(self, n, r, phi, t):
        # var_p = (n + 1/2)(cosh 2r - sinh 2r cos(2t - phi)) cancels to nothing at large r
        sp = spec(n=n, r=r, phi=phi)
        m = moments_closed(sp, t)
        assert m.var_x > 0.0 and m.var_p > 0.0
        assert m.var_x * m.var_p == pytest.approx(uncertainty_product(n, sp.sq, t), rel=1e-12, abs=0.0)


class TestUncertaintyProduct:
    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, -1.0])
    def test_minimum_at_phase_zeros(self, n, phi):
        sq = make_squeeze(0.9, phi)
        assert uncertainty_product(n, sq, phi / 2.0) == pytest.approx((n + 0.5) ** 2, abs=1e-10)

    @pytest.mark.parametrize("t", np.linspace(0.0, 2.0 * math.pi, 9))
    def test_ground_state_constant(self, t):
        assert uncertainty_product(0, make_squeeze(0.0, 0.0), t) == pytest.approx(0.25, rel=1e-14)

    def test_frozen_value(self):
        # s = 2: 2.25 * (1 + 4 * (1.25 * 0.75)^2) = 2.25 * 4.515625
        value = uncertainty_product(1, make_squeeze(LN2, 0.0), math.pi / 4)
        assert value == pytest.approx(10.16015625, rel=1e-13)

    @pytest.mark.parametrize("r", [0.0, 0.3, LN2, 1.2])
    @pytest.mark.parametrize("t", [0.0, 0.4, 1.9])
    def test_width_form_equivalent(self, r, t):
        phi = 0.7
        a = uncertainty_product(2, make_squeeze(r, phi), t)
        b = uncertainty_product_width_form(2, math.exp(r), phi, t)
        assert a == pytest.approx(b, rel=1e-13)

    @pytest.mark.parametrize("t", np.linspace(0.0, math.pi, 7))
    def test_pi_periodic(self, t):
        sq = make_squeeze(LN2, 1.3)
        assert uncertainty_product(2, sq, t) == pytest.approx(
            uncertainty_product(2, sq, t + math.pi), abs=1e-12
        )

    def test_width_form_rejects_bad_width(self):
        with pytest.raises(ValueError):
            uncertainty_product_width_form(0, -1.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "n, match",
        [(-1, "^quantum number must be non-negative, got -1$"), (1.5, "^quantum number n must be an integer, got 1.5$"),
         (True, "^quantum number n must be an integer, got True$")],
    )
    @pytest.mark.parametrize(
        "call",
        [lambda n: uncertainty_product(n, make_squeeze(0.3, 0.1), 0.3),
         lambda n: uncertainty_product_width_form(n, math.exp(0.3), 0.1, 0.3),
         lambda n: spec(n)],
        ids=["uncertainty_product", "width_form", "StateSpec"],
    )
    def test_quantum_number_refused_as_in_state_spec(self, call, n, match):
        with pytest.raises(ValueError, match=match):
            call(n)

    @pytest.mark.parametrize("s, phi", [(math.nan, 0.1), (2.0, math.inf), (10**400, 0.1)], ids=["nan", "inf", "10**400"])
    def test_width_form_refuses_non_finite_parameters(self, s, phi):
        with pytest.raises(ValueError, match="^width factor s and phase phi must be finite, got "):
            uncertainty_product_width_form(1, s, phi, 0.3)

    @pytest.mark.parametrize("n, s", [(10**400, 2.0), (1, 1e-200), (1, 1e200)], ids=["n=10**400", "s=1e-200", "s=1e200"])
    def test_width_form_overflow_is_a_guard_violation(self, n, s):
        # as uncertainty_product refuses it: not a bare OverflowError, a ZeroDivisionError or inf
        with pytest.raises(GuardViolation, match=f"^{re.escape(f'uncertainty product overflows at n = {n}, width factor s = {s:g}')}$"):
            uncertainty_product_width_form(n, s, 0.1, 0.3)


class TestMomentSetRefusals:
    def test_non_positive_variance(self):
        with pytest.raises(ValueError, match=r"^variances must be positive, got \(0.0, 1.0\)$"):
            MomentSet(0.0, 0.0, 0.0, 1.0)

    def test_below_the_quantum_bound(self):
        with pytest.raises(ValueError, match="below the quantum bound 1/4"):
            MomentSet(0.0, 0.0, 0.4, 0.5)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda t: evolution_factors(structure_factors(make_squeeze(0.3, 0.2)), make_displacement(1.0, 0.5), t),
    lambda t: time_evolve(number_state(1, 8), t),
    lambda t: moments_closed(spec(1, 1.0, 0.5, 0.3, 0.2), t),
    lambda t: uncertainty_product(1, make_squeeze(0.3, 0.2), t),
    lambda t: uncertainty_product_width_form(1, math.exp(0.3), 0.2, t),
    lambda t: compare_formalisms(spec(1, 1.0, 0.5, 0.3, 0.2), t),
    lambda t: psi_displaced_number_evolved(1, make_displacement(1.0, 0.5), np.linspace(-4.0, 4.0, 9), t),
], ids=["evolution_factors", "time_evolve", "moments_closed", "uncertainty_product", "width_form",
        "compare_formalisms", "psi_displaced_number_evolved"])
def test_non_finite_time_refused(call, t):
    with pytest.raises(ValueError, match=f"^time t must be finite, got {t}$"):
        call(t)


class TestNumericMoments:
    def test_ground_state(self):
        m = moments_numeric(number_state(0, 64), 0.0)
        assert m.mean_x == pytest.approx(0.0, abs=1e-14)
        assert m.mean_p == pytest.approx(0.0, abs=1e-14)
        assert m.var_x == pytest.approx(0.5, rel=1e-12)
        assert m.var_p == pytest.approx(0.5, rel=1e-12)

    def test_coherent_state(self):
        state = displaced_number_coeffs(0, 1.0, 128)
        m = moments_numeric(state, 0.0)
        assert m.mean_x == pytest.approx(math.sqrt(2.0), rel=1e-10)
        assert m.var_x == pytest.approx(0.5, abs=1e-10)
        assert m.var_p == pytest.approx(0.5, abs=1e-10)

    def test_squeezed_number_product_double_check(self):
        sp = spec(n=1, r=LN2)
        m = moments_numeric(operator_coeffs(sp), math.pi / 4)
        assert m.product == pytest.approx(10.16015625, abs=1e-7)

    def test_leakage_refusal(self):
        # alpha = 4 at N = 32 leaves visible weight above the cutoff
        state = displaced_number_coeffs(0, 4.0, 32)
        with pytest.raises(GuardViolation):
            moments_numeric(state, 0.0)

    def test_nan_coefficient_is_a_leakage_refusal(self):
        # its leakage is NaN, which a "> limit" test lets through to the variances
        state = FockState(np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(GuardViolation, match=r"^\|truncation leakage\| = nan exceeds 1e-10: too large"):
            moments_numeric(state, 0.0)


def dense_moments(state, t):
    """(mean_x, mean_p, var_x, var_p) from the (N+1)^2 ladder matrices: the reference algebra."""
    c = time_evolve(state, t).coeffs
    a, adag = (op.matrix for op in ladder_matrices(state.truncation))
    xc = (a + adag) @ c / math.sqrt(2.0)
    pc = (a - adag) @ c / (1j * math.sqrt(2.0))
    mean_x, mean_p = np.vdot(c, xc).real, np.vdot(c, pc).real
    return mean_x, mean_p, np.vdot(xc, xc).real - mean_x**2, np.vdot(pc, pc).real - mean_p**2


SHIFT_SPECS = {f"preset{k}": figure_spec(k) for k in sorted(FIGURE_PRESETS)}
SHIFT_SPECS["phi=1.1"] = spec(n=2, x0=1.5, p0=-0.7, r=0.4, phi=1.1)


class TestShiftsAgainstDenseAlgebra:
    @pytest.mark.parametrize("truncation", [64, 256])
    @pytest.mark.parametrize("name", sorted(SHIFT_SPECS))
    def test_matches_ladder_matrices(self, name, truncation):
        # normalized, so that the leakage guard admits the presets at N = 64,
        # whose weight reaches the edge where a_dag is cut off
        c = operator_coeffs(SHIFT_SPECS[name], truncation).coeffs
        state = FockState(c / np.linalg.norm(c))
        for t in (0.0, 0.9, math.pi):
            m = moments_numeric(state, t)
            reference = dense_moments(state, t)
            assert np.max(np.abs(np.subtract((m.mean_x, m.mean_p, m.var_x, m.var_p), reference))) <= 1e-12


DISPLACEMENTS = [(8.0, 0.0), (0.0, 8.0), (1.0, 0.0), (0.0, 1.0)]


class TestClosedVersusNumeric:
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("r", [0.0, LN2])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi])
    def test_sweep(self, n, r, phi):
        for x0, p0 in DISPLACEMENTS:
            sp = spec(n=n, x0=x0, p0=p0, r=r, phi=phi)
            state = operator_coeffs(sp)
            for t in (0.0, math.pi / 4, math.pi / 2, math.pi):
                closed = moments_closed(sp, t)
                numeric = moments_numeric(state, t)
                assert numeric.mean_x == pytest.approx(closed.mean_x, abs=1e-7)
                assert numeric.mean_p == pytest.approx(closed.mean_p, abs=1e-7)
                assert numeric.var_x == pytest.approx(closed.var_x, abs=1e-7)
                assert numeric.var_p == pytest.approx(closed.var_p, abs=1e-7)

    def test_product_relative_precision_on_criterion_4(self):
        # criterion 4's states and times (tests/test_acceptance.py), whose own check is 1e-7
        # absolute: the long-double D column reads 1.14e-13 relative; float64 D stages tried
        # in its place read 3.4e-13 (D(b) at |alpha|, no halving) to 4.1e-12 (D's matrix)
        worst = 0.0
        for (x0, p0), n, r, phi in itertools.product(DISPLACEMENTS[:2], (0, 1, 2), (0.0, LN2),
                                                     (0.0, math.pi / 2, math.pi)):
            sp = spec(n=n, x0=x0, p0=p0, r=r, phi=phi)
            state = operator_coeffs(sp)
            for t in (0.0, math.pi / 4, math.pi / 2, math.pi):
                closed = moments_closed(sp, t).product
                worst = max(worst, abs(moments_numeric(state, t).product - closed) / closed)
        assert worst <= 5e-13

    @pytest.mark.parametrize("x0,p0", DISPLACEMENTS)
    def test_product_displacement_independent(self, x0, p0):
        sq = make_squeeze(LN2, math.pi / 2)
        sp = StateSpec(n=1, disp=make_displacement(x0, p0), sq=sq)
        numeric = moments_numeric(operator_coeffs(sp), 0.9)
        assert numeric.product == pytest.approx(uncertainty_product(1, sq, 0.9), abs=1e-7)
