"""Cross-formalism verification.

The operator route (normal-ordered displacement and squeeze factors
applied to a number basis vector, evolved by pure phases, synthesized
through the oscillator eigenfunctions by `fock.synthesize`, which owns
the eigenfunction table) and the closed-form wavefunction route must
produce the same complex amplitudes on the x samples of DEFAULT_GRID.
The comparison is done at amplitude level with no phase alignment: a
convention mismatch anywhere fails loudly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardViolation
from .parameters import evolution_factors, structure_factors
from .special import QuadratureSpec, integrate
from .states import DEFAULT_GRID, StateSpec, density, psi_squeezed_number_evolved
from .fock import displaced_squeezed_number, synthesize, time_evolve

__all__ = [
    "DEFAULT_TRUNCATION",
    "VerificationReport",
    "compare_formalisms",
    "check_normalization",
    "check_classical_motion",
]

# Fock-space truncation N of compare_formalisms and `squeezelab verify`.
DEFAULT_TRUNCATION = 256


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one amplitude-level comparison."""

    max_abs_deviation: float
    params: str
    truncation: int
    leakage: float
    tolerance: float
    passed: bool


def _describe(spec: StateSpec, t: float) -> str:
    return (
        f"n={spec.n} x0={spec.disp.x0:.12g} p0={spec.disp.p0:.12g} "
        f"r={spec.sq.r:.12g} phi={spec.sq.phi:.12g} t={t:.12g}"
    )


def operator_state(spec: StateSpec, truncation: int):
    """D(alpha) S(z) |n> as a truncated coefficient vector (read-only, cached)."""
    return displaced_squeezed_number(spec.n, spec.disp.alpha, spec.sq, truncation)


def compare_formalisms(
    spec: StateSpec,
    t: float = 0.0,
    truncation: int = DEFAULT_TRUNCATION,
    tolerance: float = 1e-8,
) -> VerificationReport:
    """Compare the operator and closed-form amplitudes on the DEFAULT_GRID x samples."""
    state = operator_state(spec, truncation)
    xs = DEFAULT_GRID.x_values()
    fock_values = synthesize(time_evolve(state, t), xs)
    closed_values = psi_squeezed_number_evolved(spec, xs, t)
    max_dev = float(np.max(np.abs(fock_values - closed_values)))
    return VerificationReport(
        max_abs_deviation=max_dev,
        params=_describe(spec, t),
        truncation=truncation,
        leakage=state.leakage,
        tolerance=tolerance,
        passed=max_dev <= tolerance,
    )


def check_normalization(spec: StateSpec, t: float, quad: QuadratureSpec) -> float:
    """|integral of rho(x, t) over the window - 1|.

    Refuses windows whose edge densities suggest more than ~1e-10 of
    probability lives outside ("window too small").
    """
    sf = structure_factors(spec.sq)
    ef = evolution_factors(sf, spec.disp, t)
    width = sf.f4 * max(1.0, abs(ef.b_factor)) * math.sqrt(spec.n + 0.5)
    edge_density = float(density(spec, quad.lower, t) + density(spec, quad.upper, t))
    tail_estimate = edge_density * 2.0 * width
    if tail_estimate > 1e-10:
        raise GuardViolation(
            f"quadrature window [{quad.lower}, {quad.upper}] too small: "
            f"estimated tail mass {tail_estimate:.2e}"
        )
    total = integrate(lambda xs: density(spec, xs, t), quad)
    return abs(total - 1.0)


def check_classical_motion(spec: StateSpec, times) -> float:
    """max over times of |<x>(t) - (x0 cos t + p0 sin t)|.

    The mean is computed by quadrature over the closed-form density, so
    this checks that the density is centered on the classical trajectory,
    independently of the operator-algebra moments.  Where the closed form
    overflows, at large n, density raises a GuardViolation naming n and t.
    """
    amplitude = math.hypot(spec.disp.x0, spec.disp.p0)
    sf = structure_factors(spec.sq)
    half_width = amplitude + 10.0 * max(1.0, sf.f4, 1.0 / sf.f4) * math.sqrt(spec.n + 1.0)
    quad = QuadratureSpec(-half_width, half_width, 6001)
    xs = quad.grid()
    worst = 0.0
    for t in np.asarray(times, dtype=float):
        rho = density(spec, xs, t)
        mean = np.trapezoid(xs * rho, xs) / np.trapezoid(rho, xs)
        classical = spec.disp.x0 * math.cos(t) + spec.disp.p0 * math.sin(t)
        worst = max(worst, abs(mean - classical))
    return worst
