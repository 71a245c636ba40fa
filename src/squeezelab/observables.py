"""Time-dependent moments and the uncertainty product.

The closed forms come from transforming the ladder operator through the
displacement, squeeze and evolution operators; the numeric route applies
position/momentum matrices to truncated coefficient vectors.  Both are
public and the test suite holds them against each other.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardViolation
from .fock import FockState, ladder_matrices, time_evolve
from .parameters import DisplacementParam, SqueezeParam
from .states import StateSpec

__all__ = [
    "MomentSet",
    "moments_closed",
    "uncertainty_product",
    "uncertainty_product_width_form",
    "displaced_energy",
    "moments_numeric",
]

MOMENT_LEAKAGE_LIMIT = 1e-10


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of x and p at one instant."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    t: float

    def __post_init__(self):
        if not (self.var_x > 0.0 and self.var_p > 0.0):
            raise ValueError(f"variances must be positive, got ({self.var_x}, {self.var_p})")
        if self.var_x * self.var_p < 0.25 - 1e-12:
            raise ValueError(
                f"uncertainty product {self.var_x * self.var_p} below the quantum bound 1/4"
            )

    @property
    def product(self) -> float:
        return self.var_x * self.var_p


def moments_closed(spec: StateSpec, t: float) -> MomentSet:
    """Closed-form moments of a displaced and squeezed number state.

    mean_x = x0 cos t + p0 sin t
    mean_p = p0 cos t - x0 sin t
    var_x  = (n + 1/2)[cosh 2r + sinh 2r cos(2t - phi)]
           = (n + 1/2)[e^{-2r} + 2 sinh 2r cos^2(theta/2)],  theta = 2t - phi
    var_p  = (n + 1/2)[e^{-2r} + 2 sinh 2r sin^2(theta/2)]

    The second forms add positive terms only; the first loses every digit
    at large r when cosh 2r and sinh 2r cos(theta) nearly cancel.  Halving
    the theta of uncertainty_product keeps var_x var_p equal to it to a
    few ulps.  At r = 0 both variances are exactly n + 1/2; the variances
    do not depend on the displacement.
    """
    x0, p0 = spec.disp.x0, spec.disp.p0
    floor = math.exp(-2.0 * spec.sq.r)
    swing = 2.0 * math.sinh(2.0 * spec.sq.r)
    half = 0.5 * (2.0 * t - spec.sq.phi)
    scale = spec.n + 0.5
    return MomentSet(
        mean_x=x0 * math.cos(t) + p0 * math.sin(t),
        mean_p=p0 * math.cos(t) - x0 * math.sin(t),
        var_x=scale * (floor + swing * math.cos(half) ** 2),
        var_p=scale * (floor + swing * math.sin(half) ** 2),
        t=t,
    )


def uncertainty_product(n: int, sq: SqueezeParam, t: float) -> float:
    """Delta x^2 Delta p^2 = (n + 1/2)^2 [1 + 4 cosh^2 r sinh^2 r sin^2(2t - phi)].

    Independent of the displacement; equals (n + 1/2)^2 exactly whenever
    sin(2t - phi) = 0 and is pi-periodic in t.
    """
    ch, sh = math.cosh(sq.r), math.sinh(sq.r)
    s = math.sin(2.0 * t - sq.phi)
    return (n + 0.5) ** 2 * (1.0 + 4.0 * ch * ch * sh * sh * s * s)


def uncertainty_product_width_form(n: int, s: float, phi: float, t: float) -> float:
    """Equivalent width-factor form with s = e^r:

    (n + 1/2)^2 [1 + (1/4)(s^2 - 1/s^2)^2 sin^2(2t - phi)]
    """
    if s <= 0.0:
        raise ValueError(f"width factor must be positive, got {s}")
    w = s * s - 1.0 / (s * s)
    sn = math.sin(2.0 * t - phi)
    return (n + 0.5) ** 2 * (1.0 + 0.25 * w * w * sn * sn)


def displaced_energy(n: int, disp: DisplacementParam) -> float:
    """<H> = (n + 1/2) + |alpha|^2 for a displaced number state."""
    return (n + 0.5) + abs(disp.alpha) ** 2


def moments_numeric(state: FockState, t: float) -> MomentSet:
    """Moments from matrix algebra on a truncated coefficient vector.

    Evolves the coefficients to time t and evaluates <A> = c^dag A c for
    A in {x, x^2, p, p^2} built from the ladder matrices.  Refuses states
    whose truncation leakage exceeds 1e-10, since the missing weight
    would silently bias the second moments.
    """
    leak = state.leakage
    if abs(leak) > MOMENT_LEAKAGE_LIMIT:
        raise GuardViolation(
            f"truncation leakage {leak:.3e} too large for trustworthy moments "
            f"(limit {MOMENT_LEAKAGE_LIMIT:g}); increase the truncation"
        )
    c = time_evolve(state, t).coeffs
    a_op, adag_op = ladder_matrices(state.truncation)
    a, adag = a_op.matrix, adag_op.matrix
    x = (a + adag) / math.sqrt(2.0)
    p = (a - adag) / (1j * math.sqrt(2.0))

    def expectation(m):
        return float(np.real(np.vdot(c, m @ c)))

    mean_x = expectation(x)
    mean_p = expectation(p)
    var_x = expectation(x @ x) - mean_x ** 2
    var_p = expectation(p @ p) - mean_p ** 2
    return MomentSet(mean_x, mean_p, var_x, var_p, t)
