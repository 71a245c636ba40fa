"""Cross-formalism verification.

The operator route (normal-ordered displacement and squeeze factors
applied to a number basis vector, evolved by pure phases, synthesized
through the oscillator eigenfunctions) and the closed-form wavefunction
route must produce the same complex amplitudes.  The comparison is done
at amplitude level with no phase alignment: a convention mismatch
anywhere fails loudly.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import GuardViolation
from .parameters import evolution_factors, structure_factors
from .special import QuadratureSpec, integrate
from .states import DEFAULT_GRID, GridSpec, StateSpec, density, psi_squeezed_number_evolved
from .fock import displaced_squeezed_number, synthesize, time_evolve

__all__ = [
    "VerificationReport",
    "compare_formalisms",
    "check_normalization",
    "check_classical_motion",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one amplitude-level comparison."""

    max_abs_deviation: float
    at_x: float
    params: str
    truncation: int
    leakage: float
    tolerance: float
    passed: bool

    def to_dict(self):
        return asdict(self)


def _describe(spec: StateSpec, t: float) -> str:
    return (
        f"n={spec.n} x0={spec.disp.x0:g} p0={spec.disp.p0:g} "
        f"r={spec.sq.r:.12g} phi={spec.sq.phi:.12g} t={t:.12g}"
    )


def operator_state(spec: StateSpec, truncation: int):
    """D(alpha) S(z) |n> as a truncated coefficient vector (read-only, cached)."""
    return displaced_squeezed_number(spec.n, spec.disp.alpha, spec.sq, truncation)


def compare_formalisms(
    spec: StateSpec,
    t: float = 0.0,
    truncation: int = 256,
    grid: GridSpec = DEFAULT_GRID,
    tolerance: float = 1e-8,
) -> VerificationReport:
    """Compare the operator and closed-form amplitudes on the x grid."""
    state = operator_state(spec, truncation)
    evolved = time_evolve(state, t)
    xs = grid.x_values()
    fock_values = synthesize(evolved, xs)
    closed_values = psi_squeezed_number_evolved(spec, xs, t)
    deviation = np.abs(fock_values - closed_values)
    worst = int(np.argmax(deviation))
    max_dev = float(deviation[worst])
    return VerificationReport(
        max_abs_deviation=max_dev,
        at_x=float(xs[worst]),
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
    independently of the operator-algebra moments.
    """
    amplitude = math.hypot(spec.disp.x0, spec.disp.p0)
    sf = structure_factors(spec.sq)
    half_width = amplitude + 10.0 * max(1.0, sf.f4, 1.0 / sf.f4) * math.sqrt(spec.n + 1.0)
    quad = QuadratureSpec(-half_width, half_width, 6001)
    xs = quad.grid()
    worst = 0.0
    for t in np.asarray(times, dtype=float):
        rho = density(spec, xs, t)
        norm = np.trapezoid(rho, xs)
        mean = np.trapezoid(xs * rho, xs) / norm
        classical = spec.disp.x0 * math.cos(t) + spec.disp.p0 * math.sin(t)
        worst = max(worst, abs(mean - classical))
    return worst
