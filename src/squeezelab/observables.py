"""Time-dependent moments and the uncertainty product.

The closed forms come from transforming the ladder operator through the
displacement, squeeze and evolution operators; the numeric route applies
a and a_dag to a truncated coefficient vector, each as a one-step shift.
Both are public and the test suite holds them against each other.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardViolation, guard
from .fock import FockState, time_evolve
from .parameters import SqueezeParam, _finite, check_quantum_number, cosh_sinh, finite_time
from .states import StateSpec

__all__ = [
    "MomentSet",
    "moments_closed",
    "uncertainty_product",
    "uncertainty_product_width_form",
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

    def __post_init__(self):
        if not (self.var_x > 0.0 and self.var_p > 0.0):
            raise ValueError(f"variances must be positive, got ({self.var_x}, {self.var_p})")
        if self.product < 0.25 - 1e-12:
            raise ValueError(f"uncertainty product {self.product} below the quantum bound 1/4")

    @property
    def product(self) -> float:
        return self.var_x * self.var_p


def _uncertainty_form(form, what, n, squeeze):
    """form(), one of the paper's uncertainty forms: the product itself, or a MomentSet that holds it.

    Where the product leaves the float range (or n + 1/2 does, for an int n
    beyond it, or 1/s^2 for a tiny width factor s), a GuardViolation names
    what overflows, n and the squeeze.
    """
    try:
        value = form()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(getattr(value, "product", value)):
        raise GuardViolation(f"{what} at n = {n}, {squeeze}")
    return value


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
    do not depend on the displacement.  A product beyond the float range
    is a guard violation naming n and r, and a non-finite t a ValueError.
    """
    t = finite_time(t)
    x0, p0 = spec.disp.x0, spec.disp.p0
    floor = math.exp(-2.0 * spec.sq.r)
    swing = 2.0 * cosh_sinh(2.0 * spec.sq.r, spec.sq.r)[1]
    half = 0.5 * (2.0 * t - spec.sq.phi)
    return _uncertainty_form(lambda: MomentSet(
        mean_x=x0 * math.cos(t) + p0 * math.sin(t),
        mean_p=p0 * math.cos(t) - x0 * math.sin(t),
        var_x=(spec.n + 0.5) * (floor + swing * math.cos(half) ** 2),
        var_p=(spec.n + 0.5) * (floor + swing * math.sin(half) ** 2),
    ), "moments overflow", spec.n, f"squeeze magnitude r = {spec.sq.r:g}")


def uncertainty_product(n: int, sq: SqueezeParam, t: float) -> float:
    """Delta x^2 Delta p^2 = (n + 1/2)^2 [1 + 4 cosh^2 r sinh^2 r sin^2(2t - phi)].

    Independent of the displacement; equals (n + 1/2)^2 exactly whenever
    sin(2t - phi) = 0 and is pi-periodic in t, which must be finite.  n
    must be a non-negative integer, as in StateSpec.
    """
    check_quantum_number(n)
    ch, sh = cosh_sinh(sq.r, sq.r)
    s = math.sin(2.0 * finite_time(t) - sq.phi)
    return _uncertainty_form(
        lambda: (n + 0.5) ** 2 * (1.0 + 4.0 * ch * ch * sh * sh * s * s),
        "uncertainty product overflows", n, f"squeeze magnitude r = {sq.r:g}",
    )


def uncertainty_product_width_form(n: int, s: float, phi: float, t: float) -> float:
    """Equivalent width-factor form with s = e^r:

    (n + 1/2)^2 [1 + (1/4)(s^2 - 1/s^2)^2 sin^2(2t - phi)], with n a
    non-negative integer and s, phi and t finite; a product beyond the
    float range is a guard violation naming n and s, as in uncertainty_product
    """
    check_quantum_number(n)
    s, phi = _finite("width factor s and phase phi", s, phi)
    if s <= 0.0:
        raise ValueError(f"width factor must be positive, got {s}")
    sn = math.sin(2.0 * finite_time(t) - phi)

    def product():
        w = s * s - 1.0 / (s * s)
        return (n + 0.5) ** 2 * (1.0 + 0.25 * w * w * sn * sn)

    return _uncertainty_form(product, "uncertainty product overflows", n, f"width factor s = {s:g}")


def moments_numeric(state: FockState, t: float) -> MomentSet:
    """Moments from the ladder algebra on a truncated coefficient vector.

    Evolves c to time t; a c and a_dag c are one-step shifts of c weighted
    by sqrt(m), cut at N as the truncated matrices are.  With x and p from
    them, <A> = c^dag A c and <A^2> = |A c|^2 (both are Hermitian).  Refuses
    states whose truncation leakage exceeds 1e-10, since the missing weight
    would silently bias the second moments.
    """
    guard("|truncation leakage|", abs(state.leakage), MOMENT_LEAKAGE_LIMIT,
          "too large for trustworthy moments; increase the truncation")
    c = time_evolve(state, t).coeffs
    root = np.sqrt(np.arange(1, c.size))
    ac = np.append(root * c[1:], 0)
    adag_c = np.insert(root * c[:-1], 0, 0)
    xc = (ac + adag_c) / math.sqrt(2.0)
    pc = (ac - adag_c) / (1j * math.sqrt(2.0))
    mean_x = float(np.real(np.vdot(c, xc)))
    mean_p = float(np.real(np.vdot(c, pc)))
    var_x = float(np.real(np.vdot(xc, xc))) - mean_x ** 2
    var_p = float(np.real(np.vdot(pc, pc))) - mean_p ** 2
    return MomentSet(mean_x, mean_p, var_x, var_p)
