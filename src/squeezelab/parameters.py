"""State parameters and the derived structure / evolution factors.

A displaced and squeezed number state is specified by a displacement
(x0, p0) with alpha = (x0 + i p0)/sqrt(2), a squeeze z = r e^{i phi},
and a quantum number n.  All the closed-form wavefunction machinery is
driven by a handful of derived quantities:

    S  = cosh r + cos(phi) sinh r
    kappa = sin(phi) sinh r / (2 S)
    F1 = S (1 + 2i kappa) = cosh r + e^{i phi} sinh r
    F2 = 1 / (S^2 (1 + 2i kappa)) - 2i kappa
    F3 = (1 - 2i kappa) / (1 + 2i kappa)        (a pure phase)
    F4 = S sqrt(1 + 4 kappa^2)                  (= |F1|)

and, for evolution to time t,

    B = cos t + i F2 sin t
    A = (B - 2i sin t / F4^2) / B
    c(t) = x0 cos t + p0 sin t                  (classical center)
"""

import math
import numbers
from dataclasses import dataclass

from .errors import DegenerateEvolutionError, GuardViolation

__all__ = [
    "DisplacementParam",
    "SqueezeParam",
    "StructureFactors",
    "EvolutionFactors",
    "make_displacement",
    "make_squeeze",
    "structure_factors",
    "evolution_factors",
]

_IDENTITY_TOL = 1e-12


def _finite(what, *values):
    """values as a tuple of floats; ValueError naming what if one is not finite or float() cannot hold it."""
    try:
        floats = tuple(map(float, values))
    except OverflowError:  # as float(10**400)
        raise ValueError(f"{what} must be finite, got a number beyond the float range") from None
    if not all(map(math.isfinite, floats)):
        shown = ", ".join(map(str, floats))
        raise ValueError(f"{what} must be finite, got {shown if len(floats) == 1 else f'({shown})'}")
    return floats


def check_quantum_number(n):
    """Refuse, with a ValueError, a level index n that is not a non-negative integer.

    The one check for a quantum number, a Hermite order and n_max.  A bool
    is refused: numpy reads it as a mask, not as level 0 or 1.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"quantum number n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"quantum number must be non-negative, got {n}")


def _sample_count(owner, field, value, minimum):
    """Refuse, with a ValueError naming field, a sample count that is not an integer of at least minimum.

    The one check for GridSpec's nx and nt and QuadratureSpec's points.  A
    bool is refused, as in check_quantum_number; a numpy integer passes.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{owner} needs an integer {field}, got {value!r}")
    if value < minimum:
        raise ValueError(f"{owner} needs {field} >= {minimum}, got {value}")


@dataclass(frozen=True)
class DisplacementParam:
    """Phase-space displacement by (x0, p0); an x0 or p0 that is not finite, or that float() cannot hold, is refused."""

    x0: float
    p0: float

    def __post_init__(self):
        _finite("displacement", self.x0, self.p0)

    @property
    def alpha(self) -> complex:
        return complex(self.x0, self.p0) / math.sqrt(2.0)


@dataclass(frozen=True)
class SqueezeParam:
    """Squeeze z = r e^{i phi} with r >= 0 and phi in (-pi, pi].

    An r or phi that is not finite, or that float() cannot hold, is refused.
    """

    r: float
    phi: float

    def __post_init__(self):
        _finite("squeeze parameters", self.r, self.phi)


def make_displacement(x0, p0):
    """Build a DisplacementParam from x0 and p0 as floats."""
    return DisplacementParam(*_finite("displacement", x0, p0))


def make_squeeze(r, phi=0.0):
    """Build a SqueezeParam from magnitude r >= 0 and phase phi.

    The phase is wrapped into (-pi, pi].  A negative real squeeze is
    expressed by the caller as (|z|, pi), not by a negative r.
    """
    r, phi = _finite("squeeze parameters", r, phi)
    if r < 0.0:
        raise ValueError(f"squeeze magnitude must be non-negative, got {r}")
    phi = math.remainder(phi, 2.0 * math.pi)  # lands in [-pi, pi]
    if phi <= -math.pi:
        phi += 2.0 * math.pi
    if r == 0.0:
        phi = 0.0
    return SqueezeParam(r, phi)


@dataclass(frozen=True)
class StructureFactors:
    """Derived factors parameterizing squeezed-number wavefunctions.

    The identities tying the fields together are checked on construction:
    |F3| = 1, conj(F1) F1 = F4^2, F2 + conj(F2) = 2 / F4^2 and
    F4 = S sqrt(1 + 4 kappa^2).
    """

    script_s: float
    kappa: float
    f1: complex
    f2: complex
    f3: complex
    f4: float

    def __post_init__(self):
        if not (self.script_s > 0.0 and self.f4 > 0.0):
            raise ValueError("structure factors require S > 0 and F4 > 0")
        scale = max(1.0, self.f4 ** 2)
        if abs(abs(self.f3) - 1.0) > _IDENTITY_TOL:
            raise ValueError(f"F3 is not a phase: |F3| = {abs(self.f3)!r}")
        if abs(self.f1.conjugate() * self.f1 - self.f4 ** 2) > _IDENTITY_TOL * scale:
            raise ValueError("conj(F1) F1 = F4^2 violated")
        twice_re_f2 = 2.0 / self.f4 ** 2
        if abs(self.f2 + self.f2.conjugate() - twice_re_f2) > _IDENTITY_TOL * max(1.0, twice_re_f2):
            raise ValueError("F2 + conj(F2) = 2/F4^2 violated")
        if abs(self.f4 - self.script_s * math.sqrt(1.0 + 4.0 * self.kappa ** 2)) > _IDENTITY_TOL * scale:
            raise ValueError("F4 = S sqrt(1 + 4 kappa^2) violated")


def finite_time(t) -> float:
    """t as a float; a non-finite time is refused."""
    return _finite("time t", t)[0]


def cosh_sinh(x: float, r: float):
    """(cosh x, sinh x) for an x scaled from the squeeze magnitude r.

    Raises a GuardViolation naming r where they overflow a double.
    """
    try:
        return math.cosh(x), math.sinh(x)
    except OverflowError:
        raise GuardViolation(f"cosh and sinh overflow at squeeze magnitude r = {r:g}") from None


def structure_factors(sq: SqueezeParam) -> StructureFactors:
    """Compute S, kappa and F1..F4 for a squeeze parameter.

    kappa is evaluated as sin(phi) sinh(r) / (2 S); the r in z2 = r sin(phi)
    cancels the 1/r analytically, so r = 0 gives kappa = 0 with no special
    casing.

    S = cosh r + cos(phi) sinh r cancels near phi = pi, and its relative
    error there grows like e^{2r} eps: against mpmath at phi = pi it is
    2.0e-8 at r = 9.5, 1.2e-4 at r = 15 and 0.14 at r = 17.75.  Only S <= 0
    is refused, so every closed form built on S, F2 and F4 carries that
    error unreported (state --r 17.75 --phi 3.141592653589793 exits 0).
    """
    ch, sh = cosh_sinh(sq.r, sq.r)
    script_s = ch + math.cos(sq.phi) * sh
    if not script_s > 0.0:
        # cosh r and sinh r cancel near phi = pi; past r ~ 18 nothing is left
        raise GuardViolation(
            f"S = cosh r + cos(phi) sinh r = {script_s:.3g} is not positive at r = {sq.r:g}, phi = {sq.phi:g}"
        )
    kappa = math.sin(sq.phi) * sh / (2.0 * script_s)
    one_p = 1.0 + 2j * kappa
    f1 = ch + complex(math.cos(sq.phi), math.sin(sq.phi)) * sh
    f2 = 1.0 / (script_s * script_s * one_p) - 2j * kappa
    f3 = (1.0 - 2j * kappa) / one_p
    f4 = script_s * math.sqrt(1.0 + 4.0 * kappa * kappa)
    if not math.isfinite(f4 * f4):
        raise GuardViolation(f"F4^2 = |F1|^2 overflows at squeeze magnitude r = {sq.r:g}")
    return StructureFactors(script_s, kappa, f1, f2, f3, f4)


@dataclass(frozen=True)
class EvolutionFactors:
    """Time-evolution factors A, B and the classical center c(t).

    x_shift holds c(t) = x0 cos t + p0 sin t rather than X(t) itself, so a
    single EvolutionFactors value serves a whole position grid through
    X(t) = x - c(t).
    """

    a_factor: complex
    b_factor: complex
    x_shift: float


def evolution_factors(sf: StructureFactors, disp: DisplacementParam, t: float) -> EvolutionFactors:
    """B = cos t + i F2 sin t, A = (B - 2i sin t / F4^2)/B and c(t); t must be finite."""
    t = finite_time(t)
    cos_t = math.cos(t)
    sin_t = math.sin(t)
    b = cos_t + 1j * sf.f2 * sin_t
    if abs(b) < 1e-14:
        raise DegenerateEvolutionError(
            f"|B| = {abs(b):.3g} at t = {t} is below 1e-14, within the rounding of cos t and sin t"
        )
    a = (b - 2j * sin_t / sf.f4 ** 2) / b
    center = disp.x0 * cos_t + disp.p0 * sin_t
    return EvolutionFactors(a, b, center)
