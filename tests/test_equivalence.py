"""Cross-formalism verification engine tests."""

import cmath
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import squeezelab.equivalence
from squeezelab import fock
from squeezelab import (
    DEFAULT_GRID,
    GuardViolation,
    QuadratureSpec,
    StateSpec,
    check_classical_motion,
    check_normalization,
    compare_formalisms,
    displacement_bch,
    evolved_amplitude,
    figure_spec,
    make_displacement,
    make_squeeze,
    moments_numeric,
    oscillator_eigenfunctions,
    psi_squeezed_number,
    squeeze_bch,
    structure_factors,
    synthesize,
    time_evolve,
)
from squeezelab.cli import EXIT_OK, main
from squeezelab.equivalence import operator_state

LN2 = math.log(2.0)
WIDE_QUAD = QuadratureSpec(-24.0, 24.0, 8001)


def spec(n=0, x0=0.0, p0=0.0, r=0.0, phi=0.0):
    return StateSpec(n=n, disp=make_displacement(x0, p0), sq=make_squeeze(r, phi))


class TestCompareFormalisms:
    def test_trivial_ground_state(self):
        report = compare_formalisms(spec(), t=0.0, truncation=64, tolerance=1e-12)
        assert report.passed
        assert report.max_abs_deviation <= 1e-12

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_figure_presets_static(self, index, n):
        base = figure_spec(index)
        report = compare_formalisms(replace(base, n=n), t=0.0, truncation=256, tolerance=1e-8)
        assert report.passed, report
        assert abs(report.leakage) < 1e-12

    def test_time_evolved_preset(self):
        report = compare_formalisms(figure_spec(1), t=math.pi / 2, truncation=256, tolerance=1e-7)
        assert report.passed, report

    def test_small_displacement_tight_tolerance(self):
        report = compare_formalisms(
            spec(n=2, x0=1.0, p0=1.0, r=LN2, phi=math.pi / 2),
            t=math.pi / 4,
            truncation=128,
            tolerance=1e-10,
        )
        assert report.passed, report

    def test_deviation_shrinks_as_truncation_doubles(self):
        base = figure_spec(1)
        devs = [
            compare_formalisms(base, t=0.0, truncation=N, tolerance=1.0).max_abs_deviation
            for N in (64, 128, 256)
        ]
        assert devs[1] <= devs[0] + 1e-12
        assert devs[2] <= devs[1] + 1e-12
        assert devs[0] > 1e-9  # N = 64 visibly truncates the x0 = 8 state

    def test_report_invariant(self):
        report = compare_formalisms(spec(n=1, x0=1.0), t=0.3, truncation=64, tolerance=1e-10)
        assert report.passed == (report.max_abs_deviation <= report.tolerance)
        assert report.truncation == 64

    def test_params_name_every_value_to_twelve_digits(self):
        report = compare_formalisms(spec(n=1, x0=1.23456789, p0=-0.987654321, r=0.1234567891, phi=0.5), t=0.3,
                                    truncation=64, tolerance=1.0)
        assert report.params == "n=1 x0=1.23456789 p0=-0.987654321 r=0.1234567891 phi=0.5 t=0.3"


def alpha_spec(n, alpha, r, phi):
    return StateSpec(n=n, disp=make_displacement(math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag),
                     sq=make_squeeze(r, phi))


def seeded_column_keys(count, seed=2024):
    """(n, alpha, r, phi, N) with |Re alpha|, |Im alpha| <= 4 and r <= 1.

    Past that range the matrix and column routes can stop agreeing to 1e-14
    without either being at fault: near b = |alpha| / 2^h = 1 at N ~ 256
    both carry ~2e-14 rounding against the matrix-exponential oracle, and at
    r > 1 with N >= 128 both carry the squeeze corruption of ROADMAP item 2,
    which differs between them by up to 1e-9."""
    rng = np.random.default_rng(seed)
    keys = []
    for _ in range(count):
        truncation = int(rng.choice([64, 128, 257]))
        alpha = complex(*rng.uniform(-1.0, 1.0, 2)) * min(4.0, truncation / 16.0)
        keys.append((int(rng.integers(0, 5)), alpha, float(rng.uniform(0.0, 1.0)),
                     float(rng.uniform(-math.pi, math.pi)), truncation))
    return keys


COLUMN_KEYS = [
    (0, 0j, 0.0, 0.0, 64),  # alpha = 0, r = 0: |n> itself
    (4, 0.7j, 0.0, math.pi / 2, 64),  # r = 0 at a nonzero phase
    (1, 0.5 + 0j, LN2, 0.0, 64),  # no halving
    (2, -1.5 + 0j, 0.3, math.pi, 128),  # negative real alpha, 1 halving
    (3, -3j, 0.5, -math.pi / 4, 128),  # imaginary alpha, 2 halvings
    (1, 5.0 - 2j, 0.7, math.pi / 2, 257),  # 3 halvings
    (2, 8.5 + 0.5j, 0.2, -math.pi / 4, 257),  # 4 halvings
    (2, 1.0 - 0.5j, 1.2, 0.3, 64),  # r > 1
    # the edge of the sweep pool: both fail when the factors contract in float64
    (3, 6.0 + 0j, 1.1, 0.0, 256),
    (3, 5.66j, 0.7, math.pi / 2, 256),
    *seeded_column_keys(6),
]


class TestOperatorState:
    @pytest.mark.parametrize("n, alpha, r, phi, truncation", COLUMN_KEYS)
    def test_matches_matrix_product(self, n, alpha, r, phi, truncation):
        sp = alpha_spec(n, alpha, r, phi)
        column = operator_state(sp, truncation).coeffs
        product = displacement_bch(sp.disp.alpha, truncation).matrix @ squeeze_bch(sp.sq, truncation).matrix
        assert np.max(np.abs(column - product[:, n])) <= 1e-14

    def test_cached_column_is_read_only(self):
        sp = alpha_spec(2, 1.0 + 0.5j, LN2, 0.4)
        state = operator_state(sp, 64)
        assert operator_state(sp, 64).coeffs is state.coeffs
        with pytest.raises(ValueError):
            state.coeffs[0] = 1.0

    @pytest.mark.parametrize(
        "sp, truncation, matrix_route",
        [
            (alpha_spec(1, 8.5 + 0j, LN2, 0.0), 64, lambda sp, N: displacement_bch(sp.disp.alpha, N)),
            (alpha_spec(1, 1.0 + 0j, 3.5, 0.0), 256, lambda sp, N: squeeze_bch(sp.sq, N)),
        ],
    )
    def test_guards_match_matrix_route(self, sp, truncation, matrix_route):
        # both routes reach the one guard in D's step or S's matrix
        with pytest.raises(GuardViolation) as column_error:
            operator_state(sp, truncation)
        with pytest.raises(GuardViolation) as matrix_error:
            matrix_route(sp, truncation)
        assert str(column_error.value) == str(matrix_error.value)

    def test_calls_no_referee_builder(self, monkeypatch):
        # the mirror of the oracle's test: the construction under test reads only the private
        # products, never the public builders the tests hold it to
        def refuse(*args):
            raise AssertionError("the construction route called a referee builder")

        for name in ("squeeze_bch", "displacement_bch", "matrix_exponential", "ladder_matrices", "_rotated"):
            monkeypatch.setattr(fock, name, refuse)
        fock.displaced_squeezed_number.cache_clear()
        for index in (1, 2, 3, 4):
            for n in range(4):
                sp = replace(figure_spec(index), n=n)
                for t in (0.0, math.pi / 4):
                    assert compare_formalisms(sp, t, truncation=256, tolerance=1e-7).passed
                    moments_numeric(operator_state(sp, 256), t)


SWEEP_POOL = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "sweep_pool.json")


def pool_spec(index):
    with open(SWEEP_POOL, encoding="utf-8") as fh:
        n, x0, p0, r, phi, _ = json.load(fh)["states"][index]["state"]
    return spec(n, x0, p0, r, phi)


class TestTruncationMonotone:
    # Pool states at r near 1.18, n = 5 and 8, where a squared half-r build
    # of S made N = 512 worse than N = 384 (state 59: 1.7e-9, then 5.0e-8).
    @pytest.mark.parametrize("index", [59, 82, 220, 266])
    def test_larger_truncation_is_no_worse(self, index):
        sp = pool_spec(index)
        deviations = [compare_formalisms(sp, 0.0, truncation=N).max_abs_deviation for N in (256, 384, 512)]
        for smaller, larger in zip(deviations, deviations[1:]):
            assert larger <= max(2 * smaller, 1e-13), deviations


def projected(sp, m_max):
    """c_m = integral of psi_m psi dx for m <= m_max: the closed form's own Fock
    coefficients, by the trapezoid rule on 8001 points over a window that
    holds the state and psi_0 .. psi_{m_max}."""
    h = 12.0 * math.exp(sp.sq.r) * math.sqrt(sp.n + 1.0) + math.sqrt(2.0 * m_max + 1.0) + 2.0
    xs = np.linspace(min(sp.disp.x0, 0.0) - h, max(sp.disp.x0, 0.0) + h, 8001)
    return np.trapezoid(oscillator_eigenfunctions(m_max, xs) * psi_squeezed_number(sp, xs), xs, axis=1)


class TestProjectionReferee:
    """The operator coefficients at N = 256 equal the closed form's projection
    up to the truncation tail read off the same column at N = 512, plus a
    rounding floor (largest gap minus tail over the pool: 5.6e-15)."""

    @pytest.mark.parametrize("sp", [
        *[pytest.param(replace(figure_spec(i), n=n), id=f"preset{i}-n{n}") for i in (1, 2, 3, 4) for n in (0, 3)],
        *[pytest.param(pool_spec(i), id=f"pool{i}") for i in range(0, 400, 40)],
    ])
    def test_coefficients_match_projection(self, sp):
        gap = np.max(np.abs(operator_state(sp, 256).coeffs - projected(sp, 256)))
        tail = np.linalg.norm(operator_state(sp, 512).coeffs[257:])
        assert gap <= tail + 1e-13, (gap, tail)


class TestCacheRule:
    """One entry per cache, kept only where a workload repeats its key."""

    def test_fock_caches_hold_one_entry(self):
        def caches(module):
            defined = [f for f in vars(module).values() if getattr(f, "__module__", None) == module.__name__]
            return [f for f in defined if hasattr(f, "cache_parameters")]

        assert sorted(f.__name__ for f in caches(fock)) == [
            "_displacement_factors", "_eigenfunction_table", "_position_basis", "_squeeze_basis", "_squeeze_matrix",
            "displaced_squeezed_number", "displacement_bch"]
        assert all(f.cache_parameters()["maxsize"] == 1 for f in caches(fock))
        assert caches(squeezelab.equivalence) == []

    def test_verify_states_form_one_squeeze_product(self):
        # S's matrix depends on r alone, and all four presets have r = ln 2; its basis on N alone
        for cache in (fock._squeeze_basis, fock._squeeze_matrix, fock.displaced_squeezed_number):
            cache.cache_clear()
        for index in (1, 2, 3, 4):
            for n in range(4):
                compare_formalisms(replace(figure_spec(index), n=n), 0.0, truncation=256, tolerance=1e-8)
        assert fock._squeeze_matrix.cache_info().misses == fock._squeeze_basis.cache_info().misses == 1

    def test_verify_builds_one_table_and_sixteen_columns(self, monkeypatch):
        tables = []
        syntheses = []

        def counted_table(*args):
            tables.append(args[0])
            return oscillator_eigenfunctions(*args)

        def counted_synthesize(*args):
            syntheses.append(args[0].truncation)
            return synthesize(*args)

        monkeypatch.setattr(fock, "oscillator_eigenfunctions", counted_table)
        monkeypatch.setattr(squeezelab.equivalence, "synthesize", counted_synthesize)
        fock._eigenfunction_table.cache_clear()
        fock.displaced_squeezed_number.cache_clear()
        fock._squeeze_matrix.cache_clear()
        fock._squeeze_basis.cache_clear()
        fock._displacement_factors.cache_clear()
        assert main(["verify", "--preset", "all", "--out", os.devnull]) == EXIT_OK
        assert syntheses == [256] * 48  # 4 presets x 4 orders x 3 times
        assert tables == [256]  # all 48 on one (N, grid)
        assert fock.displaced_squeezed_number.cache_info().misses == 16  # 4 presets x 4 orders
        # the 16 columns read one S matrix (r = ln 2), from one S basis, and one D series (|alpha| = 4 sqrt(2))
        assert fock._squeeze_matrix.cache_info().misses == fock._squeeze_basis.cache_info().misses == 1
        assert fock._displacement_factors.cache_info().misses == 1
        table = fock._eigenfunction_table(256, DEFAULT_GRID.x_values().tobytes())
        assert not table.flags.writeable


class TestMutationSensitivity:
    def test_global_phase_injection_detected(self, monkeypatch):
        injected = cmath.exp(1j * math.pi / 7.0)
        clean = compare_formalisms(figure_spec(1), t=math.pi / 4, truncation=256, tolerance=1e-7)
        closed_form = squeezelab.equivalence.psi_squeezed_number_evolved
        monkeypatch.setattr(
            squeezelab.equivalence,
            "psi_squeezed_number_evolved",
            lambda spec, x, t: closed_form(spec, x, t) * injected,
        )
        mutated = compare_formalisms(figure_spec(1), t=math.pi / 4, truncation=256, tolerance=1e-7)
        assert clean.passed
        assert not mutated.passed
        assert mutated.max_abs_deviation > 1e-2

    def test_f2_conjugation_detected(self):
        sp = figure_spec(3)
        t = math.pi / 4
        xs = DEFAULT_GRID.x_values()
        fock = synthesize(time_evolve(operator_state(sp, 256), t), xs)
        good = evolved_amplitude(sp.n, sp.disp, structure_factors(sp.sq), xs, t)
        corrupted_factors = replace(structure_factors(sp.sq), f2=structure_factors(sp.sq).f2.conjugate())
        bad = evolved_amplitude(sp.n, sp.disp, corrupted_factors, xs, t)
        assert np.max(np.abs(fock - good)) < 1e-7
        assert np.max(np.abs(fock - bad)) > 1e-2


class TestNormalization:
    def test_ground_state(self):
        value = check_normalization(spec(), 0.0, QuadratureSpec(-12.0, 12.0, 4001))
        assert value <= 1e-12

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [0.0, math.pi / 4, math.pi])
    def test_presets_n1(self, index, t):
        assert check_normalization(figure_spec(index), t, WIDE_QUAD) <= 1e-8

    @pytest.mark.parametrize("index", [1, 4])
    def test_presets_n2(self, index):
        sp = replace(figure_spec(index), n=2)
        for t in (0.0, math.pi / 4):
            assert check_normalization(sp, t, WIDE_QUAD) <= 1e-8

    def test_sweep_state_at_2001_points(self):
        # Pool state 269 on the sweep's window, centre +/- 12 e^r sqrt(n + 1),
        # at an eighth of the sweep's 16001 points: a geometrically convergent
        # rule is still at rounding level here; composite Simpson is 2.9e-6 off.
        sp = spec(n=6, x0=-6.369110111775445, p0=-2.733156401158021, r=1.1260586303618425, phi=-2.787828849361837)
        t = 0.14490132684491908
        centre = sp.disp.x0 * math.cos(t) + sp.disp.p0 * math.sin(t)
        half = 12.0 * math.exp(sp.sq.r) * math.sqrt(sp.n + 1.0)
        assert check_normalization(sp, t, QuadratureSpec(centre - half, centre + half, 2001)) <= 1e-13

    def test_window_too_small_detected(self):
        with pytest.raises(GuardViolation):
            check_normalization(figure_spec(1), 0.0, QuadratureSpec(-6.0, 6.0, 1001))

    def test_overflow_is_named_not_blamed_on_the_window(self):
        # the closed-form density overflows at n = 400; the window is not at fault
        with pytest.raises(GuardViolation, match="n = 400, t = 0.7: the closed form overflows at this n"):
            check_normalization(spec(n=400, r=0.5, phi=0.3), 0.7, QuadratureSpec(-60.0, 60.0, 2001))


class TestClassicalMotion:
    TIMES = np.linspace(0.0, 2.0 * math.pi, 17)

    def test_unsqueezed(self):
        assert check_classical_motion(spec(n=1, x0=2.0, p0=1.0), self.TIMES) <= 1e-8

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_squeezed_presets(self, index):
        assert check_classical_motion(figure_spec(index), self.TIMES) <= 1e-7

    def test_centered_state_stays_centered(self):
        assert check_classical_motion(spec(n=2, r=LN2, phi=1.0), self.TIMES) <= 1e-10

    def test_non_finite_density_is_a_guard(self):
        # at n = 150 the closed-form density overflows on 3224 of the 6001 samples at t = 0
        with np.errstate(all="ignore"), pytest.raises(GuardViolation, match=r"n = 150, t = 0: "):
            check_classical_motion(spec(n=150, x0=1.0, p0=0.5, r=0.3, phi=0.2), (0.0, 0.7))
