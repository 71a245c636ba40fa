"""Truncated Fock-space operator tests.

The matrix exponential serves as the oracle; the normal-ordered product
constructions and the coefficient expansions are held against it.
"""

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squeezelab
from squeezelab import (
    FockOperator,
    FockState,
    GuardViolation,
    displaced_number_coeffs,
    displacement_bch,
    ladder_matrices,
    make_squeeze,
    matrix_exponential,
    number_state,
    oscillator_eigenfunctions,
    psi_squeezed_number,
    squeeze_bch,
    squeezed_number_coeffs,
    synthesize,
    time_evolve,
)
from squeezelab.states import StateSpec
from squeezelab.parameters import make_displacement

LN2 = math.log(2.0)


def displacement_generator(alpha, truncation):
    a, adag = ladder_matrices(truncation)
    return alpha * adag.matrix - np.conjugate(alpha) * a.matrix


def squeeze_generator(sq, truncation):
    a, adag = ladder_matrices(truncation)
    z = sq.r * np.exp(1j * sq.phi)
    return 0.5 * z * (adag.matrix @ adag.matrix) - 0.5 * np.conjugate(z) * (a.matrix @ a.matrix)


def displacement_exact(alpha, truncation):
    return matrix_exponential(FockOperator(displacement_generator(alpha, truncation)))


def squeeze_exact(sq, truncation):
    return matrix_exponential(FockOperator(squeeze_generator(sq, truncation)))


class TestLadder:
    def test_two_level(self):
        a, adag = ladder_matrices(1)
        assert np.array_equal(a.matrix, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(adag.matrix, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_number_operator_diagonal(self):
        a, adag = ladder_matrices(12)
        n_op = adag.matrix @ a.matrix
        assert np.allclose(n_op, np.diag(np.arange(13.0)))

    def test_commutator_truncation_defect(self):
        N = 16
        a, adag = ladder_matrices(N)
        comm = a.matrix @ adag.matrix - adag.matrix @ a.matrix
        assert np.allclose(comm[:N, :N], np.eye(N))
        assert comm[N, N] == pytest.approx(-N)  # defect only at the edge

    def test_requires_positive_truncation(self):
        with pytest.raises(ValueError):
            ladder_matrices(0)


class TestFockStateType:
    def test_norm_and_leakage(self):
        state = FockState(np.array([0.6, 0.8j, 0.0]))
        assert state.norm_sq == pytest.approx(1.0, rel=1e-15)
        assert state.leakage == pytest.approx(0.0, abs=1e-15)
        assert state.truncation == 2

    def test_number_state(self):
        state = number_state(3, 8)
        assert state.coeffs[3] == 1.0
        assert state.norm_sq == 1.0
        with pytest.raises(ValueError):
            number_state(9, 8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            FockState(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            FockOperator(np.zeros(3))


class TestMatrixExponential:
    def test_exp_zero_is_identity(self):
        out = matrix_exponential(FockOperator(np.zeros((5, 5))))
        assert np.allclose(out.matrix, np.eye(5), atol=1e-15)

    def test_exp_diagonal_phases(self):
        theta = np.array([0.0, 0.3, -1.2, 2.5])
        out = matrix_exponential(FockOperator(np.diag(1j * theta)))
        assert np.allclose(out.matrix, np.diag(np.exp(1j * theta)), atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.5j, 2.0, -1.0 + 1.0j])
    def test_coherent_state_coefficients(self, alpha):
        N = 64
        column = displacement_exact(alpha, N).matrix[:, 0]
        k = np.arange(N + 1)
        log_mag = k * np.log(abs(alpha)) - 0.5 * np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, N + 1))]))
        expected = np.exp(-abs(alpha) ** 2 / 2.0) * np.exp(log_mag) * np.exp(1j * k * np.angle(alpha))
        assert np.max(np.abs(column - expected)) < 1e-10

    def test_non_finite_rejected(self):
        bad = np.zeros((3, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            matrix_exponential(FockOperator(bad))

    @pytest.mark.parametrize("build", [
        lambda N: displacement_generator(4.0 + 4.0j, N),
        lambda N: squeeze_generator(make_squeeze(LN2, 0.0), N),
        lambda N: squeeze_generator(make_squeeze(1.2, 1.0), N),
        lambda N: squeeze_generator(make_squeeze(3.0, 0.0), N),
    ], ids=["D(4+4i)", "S(ln2)", "S(1.2, phi=1)", "S(3)"])
    def test_matches_scipy_expm(self, build):
        from scipy.linalg import expm

        gen = build(256)
        out = matrix_exponential(FockOperator(gen))
        assert np.max(np.abs(out.matrix - expm(gen))) <= 1e-13
        assert out.unitarity_defect() <= 1e-14

    @pytest.mark.parametrize("gen", [
        np.diag([2000.0, 0.0, 0.0]),
        1j * displacement_generator(1.0 + 0.5j, 16),
        displacement_generator(4.0 + 4.0j, 256) + 1e-9 * np.eye(257),
        squeeze_generator(make_squeeze(LN2, 0.0), 256) + 1e-9 * np.eye(257),
    ], ids=["real_diagonal", "hermitian", "D_plus_1e-9_I", "S_plus_1e-9_I"])
    def test_rejects_generator_that_is_not_skew(self, gen):
        with pytest.raises(GuardViolation, match="not anti-Hermitian"):
            matrix_exponential(FockOperator(gen))

    def test_package_never_loads_scipy(self):
        # scipy costs ~0.5 s per process and is a test-only dependency
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import squeezelab\n"
            "theta = np.array([0.0, 0.3, -1.2])\n"
            "out = squeezelab.matrix_exponential(squeezelab.FockOperator(np.diag(1j * theta)))\n"
            "assert np.allclose(out.matrix, np.diag(np.exp(1j * theta)), atol=1e-14)\n"
            "squeezelab.displacement_bch(2.0 + 1.0j, 64)\n"
            "squeezelab.squeeze_bch(squeezelab.make_squeeze(0.5, 0.3), 64)\n"
            "assert squeezelab.compare_formalisms(squeezelab.figure_spec(1), t=0.0, truncation=128, tolerance=1.0).passed\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(squeezelab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_unitarity_defect_reported(self):
        op = displacement_exact(1.0, 32)
        assert op.unitarity_defect() < 1e-12
        raw = FockOperator(np.eye(3) * 2.0)
        assert raw.unitarity_defect() == pytest.approx(3.0)


class TestDisplacementBch:
    def test_zero_displacement_identity(self):
        out = displacement_bch(0.0, 16)
        assert np.allclose(out.matrix, np.eye(17), atol=1e-16)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 2.0j, 1.4 + 1.4j, -2.0])
    def test_matches_oracle_lower_half_block(self, alpha):
        N = 128
        bch = displacement_bch(alpha, N)
        exact = displacement_exact(alpha, N)
        half = N // 2
        dev = np.max(np.abs(bch.matrix[:half, :half] - exact.matrix[:half, :half]))
        assert dev < 1e-8

    def test_group_inverse(self):
        N = 128
        product = displacement_bch(2.0, N).matrix @ displacement_bch(-2.0, N).matrix
        half = N // 2
        dev = np.max(np.abs(product[:half, :half] - np.eye(N + 1)[:half, :half]))
        assert dev < 1e-8

    def test_guard(self):
        with pytest.raises(GuardViolation):
            displacement_bch(9.0, 64)

    def test_columns_unit_norm(self):
        op = displacement_bch(1.5 - 0.5j, 96)
        for n in (0, 2, 7):
            assert FockState(op.matrix[:, n]).norm_sq == pytest.approx(1.0, abs=1e-8)


def rotation(theta, truncation):
    """R(theta) = diag(e^{i m theta})."""
    return np.diag(np.exp(1j * theta * np.arange(truncation + 1)))


class TestPhaseRotation:
    """The gate phase enters only through R: the builds rest on
    D(|alpha| e^{i theta}) = R(theta) D(|alpha|) R(theta)^dag and
    S(r e^{i phi}) = R(phi/2) S(r) R(phi/2)^dag."""

    @pytest.mark.parametrize("alpha", [2.0j, -1.5, 1.4 + 1.4j, -0.3 - 3.1j])
    def test_displacement(self, alpha):
        N = 96
        rot = rotation(cmath.phase(alpha), N)
        for build in (displacement_bch, displacement_exact):
            rotated = rot @ build(abs(alpha), N).matrix @ rot.conj().T
            assert np.max(np.abs(build(alpha, N).matrix - rotated)) < 1e-13

    @pytest.mark.parametrize("phi", [math.pi, -math.pi / 4, math.pi / 2, 2.5])
    def test_squeeze(self, phi):
        N = 64
        rot = rotation(phi / 2.0, N)
        for build in (squeeze_bch, squeeze_exact):
            rotated = rot @ build(make_squeeze(LN2, 0.0), N).matrix @ rot.conj().T
            assert np.max(np.abs(build(make_squeeze(LN2, phi), N).matrix - rotated)) < 1e-13

    def test_cached_matrices_are_read_only(self):
        for op in (displacement_bch(1.0 - 2.0j, 64), squeeze_bch(make_squeeze(LN2, 0.5), 64)):
            with pytest.raises(ValueError):
                op.matrix[0, 0] = 1.0


class TestSqueezeBch:
    def test_zero_squeeze_identity(self):
        out = squeeze_bch(make_squeeze(0.0, 0.0), 16)
        assert np.allclose(out.matrix, np.eye(17), atol=1e-16)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi, -math.pi / 4])
    def test_matches_oracle_lower_quarter_block(self, phi):
        N = 128
        sq = make_squeeze(LN2, phi)
        bch = squeeze_bch(sq, N)
        exact = squeeze_exact(sq, N)
        q = N // 4
        assert np.max(np.abs(bch.matrix[:q, :q] - exact.matrix[:q, :q])) < 1e-8

    def test_column_parity_structural_zeros(self):
        op = squeeze_bch(make_squeeze(LN2, 0.7), 64)
        for n in (0, 1, 4, 7):
            column = op.matrix[:, n]
            opposite = column[(n + 1) % 2 :: 2]
            assert np.all(opposite == 0.0)

    def test_guard(self):
        with pytest.raises(GuardViolation):
            squeeze_bch(make_squeeze(3.5, 0.0), 256)

    def test_columns_unit_norm(self):
        op = squeeze_bch(make_squeeze(LN2, 1.1), 128)
        for n in (0, 1, 5):
            assert FockState(op.matrix[:, n]).norm_sq == pytest.approx(1.0, abs=1e-8)


class TestDisplacedNumberCoeffs:
    def test_vacuum_gives_coherent(self):
        alpha = 1.3 - 0.4j
        N = 96
        state = displaced_number_coeffs(0, alpha, N)
        oracle = displacement_exact(alpha, N).matrix[:, 0]
        assert np.max(np.abs(state.coeffs - oracle)) < 1e-10

    def test_zero_alpha_is_delta(self):
        state = displaced_number_coeffs(4, 0.0, 32)
        assert np.array_equal(state.coeffs, number_state(4, 32).coeffs)

    def test_hand_evaluated_first_coefficient(self):
        # j = 1, k = 0 term of the double sum at n = 1, alpha = 1
        state = displaced_number_coeffs(1, 1.0, 64)
        assert state.coeffs[0] == pytest.approx(-math.exp(-0.5), rel=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_matches_bch_column(self, n):
        alpha = 1.7 + 0.9j
        N = 128
        state = displaced_number_coeffs(n, alpha, N)
        column = displacement_bch(alpha, N).matrix[:, n]
        assert np.max(np.abs(state.coeffs - column)) < 1e-9

    def test_unit_norm_within_guards(self):
        state = displaced_number_coeffs(3, 2.0 - 1.0j, 128)
        assert state.norm_sq == pytest.approx(1.0, abs=1e-8)
        assert abs(state.leakage) < 1e-8

    def test_guards(self):
        with pytest.raises(GuardViolation):
            displaced_number_coeffs(40, 1.0, 64)
        with pytest.raises(GuardViolation):
            displaced_number_coeffs(0, 10.0, 64)

    # Sweep-pool states 49 and 335 (n = 8, |alpha| near 6): the pool's two
    # largest gaps between the series and the BCH column.
    @pytest.mark.parametrize("alpha", [4.9229948852517005 - 3.4293283557120082j,
                                       -5.741784956347293 + 1.3624477698370523j])
    def test_matches_bch_column_at_large_alpha(self, alpha):
        state = displaced_number_coeffs(8, alpha, 256)
        column = displacement_bch(alpha, 256).matrix[:, 8]
        assert np.max(np.abs(state.coeffs - column)) < 1e-11

    def test_matches_exact_rational_sum(self):
        # For real alpha the sum is rational: sum_j (-1)^j a^(k+j) / (j! k! (n-j)!),
        # summed exactly; only sqrt(m! n!) e^{-a^2/2} is applied in floating point.
        n, alpha, N = 8, 5.5, 256
        a = Fraction(alpha)
        exact = []
        for m in range(N + 1):
            total = sum((-1) ** j * a ** (m - n + 2 * j)
                        / (math.factorial(j) * math.factorial(m - n + j) * math.factorial(n - j))
                        for j in range(max(0, n - m), n + 1))
            scaled = math.sqrt(total * total * math.factorial(m) * math.factorial(n) * Fraction(math.exp(-alpha**2)))
            exact.append(math.copysign(scaled, total))
        state = displaced_number_coeffs(n, alpha, N)
        assert np.max(np.abs(state.coeffs - exact)) < 1e-11

    @pytest.mark.parametrize("n, alpha", [(32, 5 + 3j), (128, 2.0)])
    def test_cancelling_series_raises(self, n, alpha):
        with pytest.raises(GuardViolation, match=rf"\|alpha\| = {abs(alpha):.3g}, n = {n}, N = 512: .* bound"):
            displaced_number_coeffs(n, alpha, 512)


class TestSqueezedNumberCoeffs:
    def test_squeezed_vacuum_closed_form(self):
        sq = make_squeeze(LN2, 0.7)
        N = 64
        state = squeezed_number_coeffs(0, sq, N)
        d = 0.5 * np.exp(1j * sq.phi) * math.tanh(sq.r)
        m = np.arange(0, N + 1, 2)
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, N + 1)))])
        expected = np.zeros(N + 1, dtype=complex)
        expected[m] = (
            math.cosh(sq.r) ** -0.5
            * np.exp(0.5 * log_fact[m] - log_fact[m // 2])
            * d ** (m // 2)
        )
        assert np.max(np.abs(state.coeffs - expected)) < 1e-13

    def test_zero_squeeze_is_delta(self):
        state = squeezed_number_coeffs(3, make_squeeze(0.0, 0.0), 32)
        assert np.array_equal(state.coeffs, number_state(3, 32).coeffs)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_matches_bch_column(self, n):
        sq = make_squeeze(LN2, -2.1)
        N = 128
        state = squeezed_number_coeffs(n, sq, N)
        column = squeeze_bch(sq, N).matrix[:, n]
        assert np.max(np.abs(state.coeffs - column)) < 1e-9

    def test_parity_support(self):
        state = squeezed_number_coeffs(2, make_squeeze(LN2, 0.0), 64)
        assert np.all(state.coeffs[1::2] == 0.0)
        assert np.any(state.coeffs[0::2] != 0.0)

    def test_unit_norm_within_guards(self):
        state = squeezed_number_coeffs(2, make_squeeze(LN2, 2.0), 128)
        assert state.norm_sq == pytest.approx(1.0, abs=1e-8)

    def test_guards(self):
        with pytest.raises(GuardViolation):
            squeezed_number_coeffs(40, make_squeeze(0.5, 0.0), 128)
        with pytest.raises(GuardViolation):
            squeezed_number_coeffs(0, make_squeeze(3.5, 0.0), 128)

    def test_cancelling_series_raises(self):
        with pytest.raises(GuardViolation, match=r"r = 1, n = 96, N = 512: .* bound"):
            squeezed_number_coeffs(96, make_squeeze(1.0, 0.0), 512)


TRUNCATIONS = st.sampled_from([64, 128, 256, 512])


class TestSeriesContract:
    """Every admitted input either raises GuardViolation or gives finite
    coefficients with norm_sq <= 1 + 1e-6: the 1e-8 per-coefficient error
    bound summed over at most 513 coefficients."""

    @staticmethod
    def assert_within_contract(call):
        try:
            state = call()
        except GuardViolation:
            return
        assert np.all(np.isfinite(state.coeffs))
        assert state.norm_sq <= 1.0 + 1e-6

    @given(N=TRUNCATIONS, n_share=st.floats(0, 1), size_share=st.floats(0, 1), angle=st.floats(-math.pi, math.pi))
    @settings(max_examples=40, deadline=None)
    def test_displaced(self, N, n_share, size_share, angle):
        n = int(n_share * (N // 2))
        alpha = size_share * N / 8 * cmath.exp(1j * angle)
        self.assert_within_contract(lambda: displaced_number_coeffs(n, alpha, N))

    @given(N=TRUNCATIONS, n_share=st.floats(0, 1), r=st.floats(0, 3), phi=st.floats(-math.pi, math.pi))
    @settings(max_examples=40, deadline=None)
    def test_squeezed(self, N, n_share, r, phi):
        n = int(n_share * (N // 4))
        self.assert_within_contract(lambda: squeezed_number_coeffs(n, make_squeeze(r, phi), N))


class TestSynthesize:
    def test_number_state_gives_eigenfunction(self):
        xs = np.linspace(-6, 6, 61)
        for n in (0, 1, 5):
            values = synthesize(number_state(n, 32), xs)
            assert np.max(np.abs(values - oscillator_eigenfunctions(n, xs)[n])) < 1e-14

    def test_real_coherent_state_is_shifted_gaussian(self):
        x0 = 2.5
        alpha = x0 / math.sqrt(2.0)
        xs = np.linspace(-8, 10, 181)
        state = displaced_number_coeffs(0, alpha, 128)
        values = synthesize(state, xs)
        expected = math.pi**-0.25 * np.exp(-0.5 * (xs - x0) ** 2)
        assert np.max(np.abs(values - expected)) < 1e-9

    def test_squeezed_number_matches_closed_form(self):
        xs = np.linspace(-8, 8, 161)
        for n in (0, 1, 2):
            sq = make_squeeze(LN2, math.pi / 2)
            state = squeezed_number_coeffs(n, sq, 160)
            values = synthesize(state, xs)
            spec = StateSpec(n=n, disp=make_displacement(0.0, 0.0), sq=sq)
            expected = psi_squeezed_number(spec, xs)
            assert np.max(np.abs(values - expected)) < 1e-8

    def test_scalar_argument(self):
        value = synthesize(number_state(0, 8), 0.0)
        assert np.isscalar(value) or np.ndim(value) == 0
        assert value == pytest.approx(math.pi**-0.25, rel=1e-14)


class TestTimeEvolve:
    def test_time_zero_identity(self):
        state = displaced_number_coeffs(1, 0.5, 32)
        evolved = time_evolve(state, 0.0)
        assert np.array_equal(evolved.coeffs, state.coeffs)

    def test_full_period_global_sign(self):
        state = displaced_number_coeffs(2, 0.8j, 64)
        evolved = time_evolve(state, 2.0 * math.pi)
        assert np.max(np.abs(evolved.coeffs + state.coeffs)) < 1e-12

    @pytest.mark.parametrize("t", [0.3, 1.7, 5.0])
    def test_moduli_invariant(self, t):
        state = squeezed_number_coeffs(1, make_squeeze(0.4, 1.0), 64)
        evolved = time_evolve(state, t)
        assert np.allclose(np.abs(evolved.coeffs), np.abs(state.coeffs), atol=1e-15)


class TestAlgebraicProperties:
    def test_coherent_is_annihilation_eigenstate(self):
        alpha = 1.2 + 0.8j
        N = 128
        state = displaced_number_coeffs(0, alpha, N)
        a, _ = ladder_matrices(N)
        applied = a.matrix @ state.coeffs
        half = N // 2
        dev = np.max(np.abs(applied[:half] - alpha * state.coeffs[:half]))
        assert dev < 1e-8
