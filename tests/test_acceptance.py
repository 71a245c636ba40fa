"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them all).
"""

import cmath
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import squeezelab.equivalence
from squeezelab import (
    DEFAULT_GRID,
    QuadratureSpec,
    StateSpec,
    check_classical_motion,
    check_normalization,
    compare_formalisms,
    density,
    displacement_bch,
    evolved_amplitude,
    figure_spec,
    ladder_matrices,
    make_displacement,
    make_squeeze,
    matrix_exponential,
    moments_closed,
    moments_numeric,
    psi_displaced_number_evolved,
    psi_squeezed,
    psi_squeezed_number,
    psi_squeezed_number_evolved,
    squeeze_bch,
    structure_factors,
    synthesize,
    time_evolve,
    uncertainty_product,
)
from squeezelab.cli import main
from squeezelab.equivalence import operator_state
from squeezelab.fock import FockOperator

LN2 = math.log(2.0)
TIMES = (0.0, math.pi / 4.0, math.pi / 2.0)
ORDERS = (0, 1, 2, 3)
WIDE_QUAD = QuadratureSpec(-24.0, 24.0, 8001)

# the four figure presets plus two unit displacements (squeeze ln 2)
PARAMETER_SETS = [figure_spec(k) for k in (1, 2, 3, 4)] + [
    StateSpec(1, make_displacement(1.0, 0.0), make_squeeze(LN2, 0.0)),
    StateSpec(1, make_displacement(0.0, 1.0), make_squeeze(LN2, 0.0)),
]


def report(number, label, passed, detail):
    print(f"criterion {number} ({label}): {'PASS' if passed else 'FAIL'} [{detail}]")


def test_criterion_1_cross_formalism_identity():
    started = time.perf_counter()
    worst = 0.0
    for base in PARAMETER_SETS:
        for n in ORDERS:
            for t in TIMES:
                rep = compare_formalisms(replace(base, n=n), t=t, truncation=256, tolerance=1e-7)
                worst = max(worst, rep.max_abs_deviation)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-7 and elapsed <= 120.0
    report(1, "cross-formalism identity", ok, f"max_dev={worst:.3e} runtime={elapsed:.1f}s")
    assert worst <= 1e-7
    assert elapsed <= 120.0


def test_criterion_2_normalization():
    worst = 0.0
    for base in PARAMETER_SETS:
        for n in ORDERS:
            for t in TIMES:
                worst = max(worst, check_normalization(replace(base, n=n), t, WIDE_QUAD))
    ok = worst <= 1e-8
    report(2, "density normalization", ok, f"max_err={worst:.3e}")
    assert worst <= 1e-8


def test_criterion_3_limits():
    xs = np.linspace(-12.0, 12.0, 601)
    worst_t0 = 0.0
    for base in PARAMETER_SETS:
        for n in ORDERS:
            spec = replace(base, n=n)
            dev = np.max(np.abs(psi_squeezed_number_evolved(spec, xs, 0.0) - psi_squeezed_number(spec, xs)))
            worst_t0 = max(worst_t0, float(dev))

    worst_z0 = 0.0
    for x0, p0 in ((8.0, 0.0), (0.0, 8.0), (1.0, 0.0), (0.0, 1.0), (1.5, -0.7)):
        disp = make_displacement(x0, p0)
        free = StateSpec(0, disp, make_squeeze(0.0, 0.0))
        for n in ORDERS:
            for t in (0.0, math.pi / 4, math.pi / 2, 1.3, math.pi):
                general = psi_squeezed_number_evolved(replace(free, n=n), xs, t)
                display = psi_displaced_number_evolved(n, disp, xs, t)
                worst_z0 = max(worst_z0, float(np.max(np.abs(general - display))))

    worst_n0 = 0.0
    for base in PARAMETER_SETS:
        spec = replace(base, n=0)
        dev = np.max(np.abs(psi_squeezed_number(spec, xs) - psi_squeezed(spec.disp, spec.sq, xs)))
        worst_n0 = max(worst_n0, float(dev))
    # real squeeze reduces to the width-s Gaussian
    for x0, p0 in ((2.0, -1.5), (8.0, 0.0)):
        s = 2.0
        spec = StateSpec(0, make_displacement(x0, p0), make_squeeze(LN2, 0.0))
        gauss = (
            (math.sqrt(math.pi) * s) ** -0.5
            * np.exp(-1j * x0 * p0 / 2.0)
            * np.exp(-((xs - x0) ** 2) / (2.0 * s * s) + 1j * p0 * xs)
        )
        worst_n0 = max(worst_n0, float(np.max(np.abs(psi_squeezed_number(spec, xs) - gauss))))

    ok = worst_t0 <= 1e-10 and worst_z0 <= 1e-10 and worst_n0 <= 1e-12
    report(3, "limit collapses", ok, f"t0={worst_t0:.2e} z0={worst_z0:.2e} n0={worst_n0:.2e}")
    assert worst_t0 <= 1e-10
    assert worst_z0 <= 1e-10
    assert worst_n0 <= 1e-12


def test_criterion_4_uncertainty_product():
    worst_pair = 0.0
    for x0, p0 in ((8.0, 0.0), (0.0, 8.0)):
        for n in (0, 1, 2):
            for r in (0.0, LN2):
                for phi in (0.0, math.pi / 2, math.pi):
                    spec = StateSpec(n, make_displacement(x0, p0), make_squeeze(r, phi))
                    state = operator_state(spec, 256)
                    for t in (0.0, math.pi / 4, math.pi / 2, math.pi):
                        closed = moments_closed(spec, t)
                        numeric = moments_numeric(state, t)
                        worst_pair = max(
                            worst_pair,
                            abs(closed.var_x - numeric.var_x),
                            abs(closed.var_p - numeric.var_p),
                            abs(closed.product - numeric.product),
                        )

    worst_min = 0.0
    ts = np.linspace(0.0, math.pi, 721)
    for n in (0, 1, 2):
        for phi in (0.0, math.pi / 2, math.pi):
            sq = make_squeeze(LN2, phi)
            minimum = min(uncertainty_product(n, sq, t) for t in ts)
            worst_min = max(worst_min, abs(minimum - (n + 0.5) ** 2))

    worst_free = max(
        abs(uncertainty_product(0, make_squeeze(0.0, 0.0), t) - 0.25)
        for t in np.linspace(0.0, 2.0 * math.pi, 33)
    )
    ok = worst_pair <= 1e-7 and worst_min <= 1e-10 and worst_free <= 1e-12
    report(
        4,
        "uncertainty product",
        ok,
        f"closed_vs_numeric={worst_pair:.2e} min_gap={worst_min:.2e} free={worst_free:.2e}",
    )
    assert worst_pair <= 1e-7
    assert worst_min <= 1e-10
    assert worst_free <= 1e-12


def test_criterion_5_classical_motion():
    times = np.linspace(0.0, 2.0 * math.pi, 33)
    worst = 0.0
    for base in PARAMETER_SETS:
        worst = max(worst, check_classical_motion(base, times))
    ok = worst <= 1e-7
    report(5, "classical motion", ok, f"max_err={worst:.3e}")
    assert worst <= 1e-7


def test_criterion_6_bch_consistency():
    N = 128
    q = N // 4
    a, adag = ladder_matrices(N)
    worst = 0.0
    for alpha in (1.0, 2.0, 2.0j, -2.0, 1.4 + 1.4j, 0.5 - 0.5j):
        product = displacement_bch(alpha, N)
        exact = matrix_exponential(
            FockOperator(alpha * adag.matrix - np.conjugate(alpha) * a.matrix)
        )
        worst = max(worst, float(np.max(np.abs(product.matrix[:q, :q] - exact.matrix[:q, :q]))))
    for phi in (0.0, math.pi / 2, math.pi, -math.pi / 4):
        sq = make_squeeze(LN2, phi)
        product = squeeze_bch(sq, N)
        z = sq.r * cmath.exp(1j * sq.phi)
        gen = 0.5 * z * (adag.matrix @ adag.matrix) - 0.5 * np.conjugate(z) * (a.matrix @ a.matrix)
        exact = matrix_exponential(FockOperator(gen))
        worst = max(worst, float(np.max(np.abs(product.matrix[:q, :q] - exact.matrix[:q, :q]))))
    ok = worst <= 1e-8
    report(6, "BCH operator consistency", ok, f"max_dev={worst:.3e}")
    assert worst <= 1e-8


def _figure_rows(tmp_path, index):
    out = tmp_path / f"figure{index}.csv"
    started = time.perf_counter()
    code = main(["figure", str(index), "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,rho"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert data.shape == (129 * 801, 3)
    rho = data[:, 2].reshape(129, 801)
    xs = data[:801, 1]
    return rho, xs, elapsed


def _row_stats(rho, xs):
    norms = np.trapezoid(rho, xs, axis=1)
    means = np.trapezoid(rho * xs, xs, axis=1) / norms
    variances = np.trapezoid(rho * xs * xs, xs, axis=1) / norms - means**2
    return means, variances


def _count_maxima(row):
    floor = row.max() * 1e-9
    inner = (row[1:-1] > row[:-2]) & (row[1:-1] > row[2:]) & (row[1:-1] > floor)
    return int(np.count_nonzero(inner))


def test_criterion_7_figure_structure(tmp_path):
    # 129 samples over [0, 2pi]: indices 0/64/128 are t = 0, pi, 2pi and
    # 32/96 are pi/2, 3pi/2
    extremes, quarters = (0, 64, 128), (32, 96)
    results = {}
    elapsed_max = 0.0
    humps_ok = True
    for index in (1, 2, 3, 4):
        rho, xs, elapsed = _figure_rows(tmp_path, index)
        elapsed_max = max(elapsed_max, elapsed)
        means, variances = _row_stats(rho, xs)
        results[index] = (means, variances)
        humps_ok &= all(_count_maxima(row) == 2 for row in rho)

    tol = 1e-9
    _, var1 = results[1]
    fig1_ok = all(var1[i] >= var1.max() - tol for i in extremes) and all(
        var1[i] <= var1.min() + tol for i in quarters
    )
    _, var2 = results[2]
    fig2_ok = all(var2[i] <= var2.min() + tol for i in extremes) and all(
        var2[i] >= var2.max() - tol for i in quarters
    )
    means4, var4 = results[4]
    fig4_ok = all(var4[i] >= var4.max() - tol for i in extremes) and all(
        abs(means4[i]) <= 1e-9 for i in extremes
    )
    timing_ok = elapsed_max <= 30.0

    ok = fig1_ok and fig2_ok and fig4_ok and humps_ok and timing_ok
    report(
        7,
        "figure structure",
        ok,
        f"fig1={fig1_ok} fig2={fig2_ok} fig4={fig4_ok} humps={humps_ok} slowest={elapsed_max:.1f}s",
    )
    assert fig1_ok and fig2_ok and fig4_ok
    assert humps_ok
    assert timing_ok


def test_criterion_8_mutation_sensitivity(monkeypatch):
    spec = figure_spec(1)
    t = math.pi / 4

    clean = compare_formalisms(spec, t=t, truncation=256, tolerance=1e-7)
    # a pure global phase on one side must not pass
    closed_form = squeezelab.equivalence.psi_squeezed_number_evolved
    monkeypatch.setattr(
        squeezelab.equivalence,
        "psi_squeezed_number_evolved",
        lambda spec, x, t: closed_form(spec, x, t) * cmath.exp(1j * math.pi / 7),
    )
    phased = compare_formalisms(spec, t=t, truncation=256, tolerance=1e-7)

    # conjugating F2 corrupts the closed form; the operator route must disagree
    spec3 = figure_spec(3)
    xs = DEFAULT_GRID.x_values()
    fock = synthesize(time_evolve(operator_state(spec3, 256), t), xs)
    factors = structure_factors(spec3.sq)
    corrupted = replace(factors, f2=factors.f2.conjugate())
    bad = evolved_amplitude(spec3.n, spec3.disp, corrupted, xs, t)
    conj_dev = float(np.max(np.abs(fock - bad)))

    ok = clean.passed and (not phased.passed) and conj_dev > 1e-7
    report(
        8,
        "mutation sensitivity",
        ok,
        f"clean={clean.max_abs_deviation:.2e} phased={phased.max_abs_deviation:.2e} conj={conj_dev:.2e}",
    )
    assert clean.passed
    assert not phased.passed
    assert phased.max_abs_deviation > 1e-7
    assert conj_dev > 1e-7


def test_criterion_9_evolution_past_half_period():
    # B(t) = cos t + i F2 sin t winds around the origin once per period and
    # crosses the branch cut of the principal root; at r = 0, B(pi) = -1
    times = (math.pi, 3.3, 4.0, 6.0, 7.0, 4.0 * math.pi)
    states = PARAMETER_SETS + [
        StateSpec(1, make_displacement(1.0, 0.5), make_squeeze(0.0, 0.0)),
        StateSpec(0, make_displacement(0.0, 0.0), make_squeeze(0.0, 0.0)),
        StateSpec(2, make_displacement(1.0, -0.5), make_squeeze(LN2, 0.5)),
        StateSpec(3, make_displacement(-2.0, 1.0), make_squeeze(0.6, -2.0)),
    ]
    worst = max(
        compare_formalisms(spec, t, truncation=256, tolerance=1e-7).max_abs_deviation
        for spec in states
        for t in times
    )
    ok = worst <= 1e-7
    report(9, "evolution past half a period", ok, f"worst={worst:.2e}")
    assert ok
