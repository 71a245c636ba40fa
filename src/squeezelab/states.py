"""Closed-form wavefunctions and probability densities.

Covers number states displaced in phase space, squeezed Gaussians, the
general displaced-and-squeezed number states, and their exact evolution
under the oscillator Hamiltonian.  All amplitudes carry the global phase
factor exp(-i x0 p0 / 2) of the displacement convention, so they can be
compared against the Fock-operator construction at amplitude level, not
just in modulus.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardViolation
from .parameters import (
    DisplacementParam,
    SqueezeParam,
    StructureFactors,
    evolution_factors,
    structure_factors,
)
from .special import PI_FOURTH_ROOT_INV, normalized_hermite

__all__ = [
    "StateSpec",
    "GridSpec",
    "DEFAULT_GRID",
    "psi_displaced_number",
    "psi_squeezed",
    "psi_squeezed_number",
    "psi_squeezed_number_evolved",
    "psi_displaced_number_evolved",
    "evolved_amplitude",
    "density",
    "density_surface",
]

ROW_NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True)
class StateSpec:
    """A displaced and squeezed number state: quantum number, displacement, squeeze."""

    n: int
    disp: DisplacementParam
    sq: SqueezeParam

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"quantum number must be non-negative, got {self.n}")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (t, x) sampling grid."""

    x_min: float
    x_max: float
    nx: int
    t_min: float
    t_max: float
    nt: int

    def __post_init__(self):
        if not (self.x_min < self.x_max):
            raise ValueError(f"grid requires x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.nx < 2:
            raise ValueError(f"grid needs nx >= 2, got {self.nx}")
        if not (self.t_min <= self.t_max):
            raise ValueError(f"grid requires t_min <= t_max, got [{self.t_min}, {self.t_max}]")
        if self.nt < 1:
            raise ValueError(f"grid needs nt >= 1, got {self.nt}")

    def x_values(self):
        return np.linspace(self.x_min, self.x_max, self.nx)

    def t_values(self):
        return np.linspace(self.t_min, self.t_max, self.nt)


# Wide enough that the x0 = 8 presets keep their Gaussian tails below 1e-20
# at the window edge; 129 time samples hit t = 0, pi/2, pi, ... exactly.
DEFAULT_GRID = GridSpec(-16.0, 16.0, 801, 0.0, 2.0 * math.pi, 129)


def psi_displaced_number(spec: StateSpec, x):
    """Wavefunction of a displaced number state (no squeeze).

    psi(x) = e^{-i x0 p0 / 2} e^{i p0 x} e^{-(x-x0)^2/2}
             H_n(x - x0) / (pi^{1/4} sqrt(2^n n!))
    """
    if spec.sq.r != 0.0:
        raise ValueError("psi_displaced_number requires r = 0; use psi_squeezed_number")
    x0, p0 = spec.disp.x0, spec.disp.p0
    u = np.asarray(x, dtype=float) - x0
    phase = np.exp(1j * (p0 * np.asarray(x, dtype=float) - 0.5 * x0 * p0))
    return PI_FOURTH_ROOT_INV * phase * np.exp(-0.5 * u * u) * normalized_hermite(spec.n, u)


def psi_squeezed(disp: DisplacementParam, sq: SqueezeParam, x):
    """General squeezed (n = 0) wavefunction, written in terms of S and kappa.

    psi(x) = pi^{-1/4} e^{-i x0 p0/2} / sqrt(S (1 + 2i kappa))
             exp[-(x-x0)^2 (1/(2 S^2 (1 + 2i kappa)) - i kappa) + i p0 x]

    Kept deliberately separate from psi_squeezed_number so the n = 0
    agreement between the two expressions is a real cross-check.
    """
    sf = structure_factors(sq)
    s2 = sf.script_s * sf.script_s
    one_p = 1.0 + 2j * sf.kappa
    x = np.asarray(x, dtype=float)
    u = x - disp.x0
    expo = -u * u * (1.0 / (2.0 * s2 * one_p) - 1j * sf.kappa) + 1j * disp.p0 * x
    pref = PI_FOURTH_ROOT_INV * np.exp(-0.5j * disp.x0 * disp.p0) / np.sqrt(sf.script_s * one_p)
    return pref * np.exp(expo)


def psi_squeezed_number(spec: StateSpec, x):
    """Closed-form displaced and squeezed number state at t = 0.

    psi(x) = e^{-i x0 p0/2} / (pi^{1/4} sqrt(F1))
             exp[-(x-x0)^2 F2 / 2 + i p0 x]
             F3^{n/2} H_n((x-x0)/F4) / sqrt(2^n n!)

    The half-integer power of the phase F3 is taken as (principal sqrt)^n.
    """
    sf = structure_factors(spec.sq)
    x0, p0 = spec.disp.x0, spec.disp.p0
    x = np.asarray(x, dtype=float)
    u = x - x0
    pref = np.exp(-0.5j * x0 * p0) * PI_FOURTH_ROOT_INV / np.sqrt(sf.f1)
    body = np.exp(-0.5 * u * u * sf.f2 + 1j * p0 * x)
    poly = np.sqrt(sf.f3) ** spec.n * normalized_hermite(spec.n, u / sf.f4)
    return pref * body * poly


def evolved_amplitude(n: int, disp: DisplacementParam, sf: StructureFactors, x, t: float):
    """Time-evolved amplitude from explicitly supplied structure factors.

    This is the workhorse behind psi_squeezed_number_evolved; taking the
    factors as an argument lets verification code inject deliberately
    corrupted factors to prove the cross-formalism comparison catches them.

    With B, A and c(t) from evolution_factors and X = x - c(t):

        Psi(x, t) = pi^{-1/4} (B F1)^{-1/2}
                    (F3 A)^{n/2} H_n(X / (F4 B sqrt(A))) / sqrt(2^n n!)
                    exp[ -(x^2/2)(F2 cos t + i sin t)/B
                         + x (x0 F2 + i p0)/B
                         - (x0^2/2) F2 cos t / B
                         - i (p0^2/2) sin t / B
                         - i x0 p0 cos t / B + i x0 p0 / 2 ]

    The combination A^{n/2} H_n(. / sqrt(A)) only involves integer powers
    of A, so the principal square root is branch-safe there.  (B F1)^{1/2}
    is not: B traces an ellipse counter-clockwise around the origin, so
    its principal root flips sign each time B crosses the negative real
    axis.  Its argument equals t at every multiple of pi and stays within
    pi of t in between, so the continuous root has the direction of
    sqrt(F1) e^{i theta/2} with theta = t + arg(B e^{-it}).
    """
    ef = evolution_factors(sf, disp, t)
    a, b, c = ef.a_factor, ef.b_factor, ef.x_shift
    x0, p0 = disp.x0, disp.p0
    cos_t, sin_t = math.cos(t), math.sin(t)
    x = np.asarray(x, dtype=float)
    big_x = x - c

    sqrt_a = np.sqrt(a)
    poly = (np.sqrt(sf.f3) * sqrt_a) ** n * normalized_hermite(n, big_x / (sf.f4 * b * sqrt_a))
    root = np.sqrt(b * sf.f1)
    branch = np.sqrt(sf.f1) * cmath.exp(0.5j * (t + cmath.phase(b * cmath.exp(-1j * t))))
    if (root * branch.conjugate()).real < 0:
        root = -root
    pref = PI_FOURTH_ROOT_INV / root
    expo = (
        -(x * x / 2.0) * (sf.f2 * cos_t + 1j * sin_t) / b
        + x * (x0 * sf.f2 + 1j * p0) / b
        - (x0 * x0 / 2.0) * sf.f2 * cos_t / b
        - 1j * (p0 * p0 / 2.0) * sin_t / b
        - 1j * x0 * p0 * cos_t / b
        + 0.5j * x0 * p0
    )
    return pref * poly * np.exp(expo)


def psi_squeezed_number_evolved(spec: StateSpec, x, t: float):
    """Displaced and squeezed number state evolved to time t.

    Reduces to psi_squeezed_number at t = 0 and, for r = 0, to the
    displaced-number evolution with its e^{-i(n+1/2)t} phase.
    """
    return evolved_amplitude(spec.n, spec.disp, structure_factors(spec.sq), x, t)


def psi_displaced_number_evolved(n: int, disp: DisplacementParam, x, t: float):
    """Evolved displaced number state (r = 0), written independently.

    Psi(x, t) = e^{-i(n+1/2)t} pi^{-1/4} H_n(X) e^{-X^2/2} / sqrt(2^n n!)
                exp[i (x - c(t)/2)(p0 cos t - x0 sin t)]

    with X = x - c(t).  The packet keeps its shape and follows the
    classical trajectory c(t) = x0 cos t + p0 sin t.
    """
    x0, p0 = disp.x0, disp.p0
    cos_t, sin_t = math.cos(t), math.sin(t)
    c = x0 * cos_t + p0 * sin_t
    pbar = p0 * cos_t - x0 * sin_t
    x = np.asarray(x, dtype=float)
    big_x = x - c
    return (
        np.exp(-1j * (n + 0.5) * t)
        * PI_FOURTH_ROOT_INV
        * normalized_hermite(n, big_x)
        * np.exp(-0.5 * big_x * big_x)
        * np.exp(1j * (x - 0.5 * c) * pbar)
    )


def density(spec: StateSpec, x, t: float = 0.0):
    """Probability density rho(x, t) from the explicit conjugate-pair form.

    rho = |A|^n |H_n(w)|^2 / (2^n n!) * exp[-X^2/(F4^2 |B|^2)]
          / (sqrt(pi) |B| F4),   w = X / (F4 B sqrt(A))

    This is an independent code path from |psi_squeezed_number_evolved|^2;
    the two are required to agree and tests enforce it.
    """
    sf = structure_factors(spec.sq)
    ef = evolution_factors(sf, spec.disp, t)
    a, b, c = ef.a_factor, ef.b_factor, ef.x_shift
    x = np.asarray(x, dtype=float)
    big_x = x - c
    abs_b2 = (b * b.conjugate()).real
    w = big_x / (sf.f4 * b * np.sqrt(a))
    h = normalized_hermite(spec.n, w)
    return (
        abs(a) ** spec.n
        * (h * np.conjugate(h)).real
        * np.exp(-big_x * big_x / (sf.f4 ** 2 * abs_b2))
        / (math.sqrt(math.pi) * abs(b) * sf.f4)
    )


def density_surface(spec: StateSpec, grid: GridSpec = DEFAULT_GRID) -> np.ndarray:
    """rho sampled on the (t, x) grid as an (nt, nx) array, row-major in t.

    Each fixed-t row must integrate to 1 (trapezoid rule over the x
    window) within ROW_NORMALIZATION_TOL, and every value must be finite
    and non-negative.
    """
    xs = grid.x_values()
    # An overflow here shows up as a non-finite value, which the guard names.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.array([density(spec, xs, t) for t in grid.t_values()])
    if not np.all(np.isfinite(values)):
        raise GuardViolation(
            f"non-finite density values at quantum number n = {spec.n}: "
            "the closed form overflows at this n"
        )
    norms = np.trapezoid(values, xs, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if not worst <= ROW_NORMALIZATION_TOL:
        raise GuardViolation(
            f"density rows integrate to 1 +/- {worst:.2e} over [{grid.x_min}, {grid.x_max}]; "
            "widen the x window or refine nx"
        )
    if np.any(values < 0.0):
        raise GuardViolation("negative density encountered")
    return values
