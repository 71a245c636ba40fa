"""Special functions and quadrature used throughout the package.

Everything here is oscillator-unit (hbar = m = omega = 1) and works on
scalars or numpy arrays; Hermite evaluation accepts complex arguments.
normalized_hermite and oscillator_eigenfunctions share one recurrence;
hermite keeps its own as the independent reference.  Quadrature is the
trapezoid rule on vectorized integrands, each called once on the whole grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import guard
from .parameters import _finite, _sample_count, check_quantum_number

__all__ = [
    "QuadratureSpec",
    "hermite",
    "normalized_hermite",
    "oscillator_eigenfunctions",
    "integrate",
]

PI_FOURTH_ROOT_INV = math.pi ** -0.25


def hermite(n, w):
    """Physicists' Hermite polynomial H_n(w).

    Evaluated by the upward three-term recurrence
    H_0 = 1, H_1 = 2w, H_{k+1} = 2w H_k - 2k H_{k-1},
    which is stable for the orders used here and accepts real or complex
    scalars and arrays.  It keeps its own recurrence, the independent
    reference for the normalized one, under the same cost guard.
    """
    _check_recurrence(n, w)
    h0 = 1.0 + 0.0 * w  # promotes to the dtype/shape of w
    if n == 0:
        return h0
    h1 = 2.0 * w
    for k in range(1, n):
        h0, h1 = h1, 2.0 * w * h1 - 2.0 * k * h0
    return h1


def _check_recurrence(n, w):
    """Refuse an order n that check_quantum_number refuses, or a recurrence to n on w's samples that costs too much.

    A step costs about as much as 500 samples (~5 us of numpy calls) plus
    ~10 ns per sample, so n (samples + 500) > 1e8, about a second of
    recurrence, raises GuardViolation.  The callers of
    _normalized_hermite_rows run it before they allocate anything of size n.
    """
    check_quantum_number(n)
    guard(f"Hermite recurrence to n = {n} on {np.size(w)} samples: cost n (samples + 500)", n * (np.size(w) + 500), 1e8)


def _normalized_hermite_rows(n, w, seed=None):
    """seed H_k(w) / sqrt(2^k k!) for k = 0 .. n, one row at a time, for an n that _check_recurrence admits.

    A seed of None stands for 1 and is never multiplied in: a complex
    multiply by 1 flips signed zeros and turns inf into nan.
    """
    prev = 1.0 + 0.0 * w if seed is None else seed  # promotes to the dtype/shape of w
    yield prev
    if n == 0:
        return
    row = math.sqrt(2.0) * w if seed is None else math.sqrt(2.0) * w * seed
    yield row
    for k in range(1, n):
        prev, row = row, math.sqrt(2.0 / (k + 1)) * w * row - math.sqrt(k / (k + 1)) * prev
        yield row


def normalized_hermite(n, w):
    """H_n(w) / sqrt(2^n n!), by a recurrence that never forms 2^n n!.

    The normalized combination is what wavefunction formulas need; keeping
    it in one piece avoids overflow of H_n and n! for large n.
    """
    _check_recurrence(n, w)
    for row in _normalized_hermite_rows(n, w):
        pass
    return row


def oscillator_eigenfunctions(n_max, x):
    """psi_n(x) = e^{-x^2/2} H_n(x) / (pi^{1/4} sqrt(2^n n!)) for n = 0 .. n_max, shape (n_max + 1, len(x)).

    The normalized_hermite recurrence seeded with psi_0 keeps every row of
    order one, so large n does not overflow.
    """
    _check_recurrence(n_max, x)
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1, x.size))
    for k, row in enumerate(_normalized_hermite_rows(n_max, x, PI_FOURTH_ROOT_INV * np.exp(-0.5 * x * x))):
        out[k] = row
    return out


@dataclass(frozen=True)
class QuadratureSpec:
    """Sampling window and resolution for composite quadrature.

    A bound that is not finite is refused, and so is a window wider than the
    largest float, as in GridSpec.
    """

    lower: float
    upper: float
    points: int

    def __post_init__(self):
        lower, upper = _finite("quadrature window", self.lower, self.upper)
        if not (self.lower < self.upper):
            raise ValueError(f"quadrature window requires lower < upper, got [{self.lower}, {self.upper}]")
        if not math.isfinite(upper - lower):
            raise ValueError(f"quadrature window [{lower}, {upper}] is wider than the largest float")
        _sample_count("quadrature", "points", self.points, 2)

    def grid(self):
        return np.linspace(self.lower, self.upper, self.points)


def integrate(f, spec):
    """Trapezoid rule for f over the window in spec.

    f must be vectorized: it is called once with the whole sampling grid
    and returns one value per point.  For smooth integrands that vanish at
    the window edges it converges geometrically (Trefethen & Weideman, SIAM
    Review 2014): over perfbench's 400-state pool, max |integral rho - 1| is
    4.2e-15 at 16001 points, 4.6e-15 at 2001 and 8.8e-6 at 1001.
    """
    xs = spec.grid()
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(f"integrand returned shape {ys.shape} for a grid of shape {xs.shape}")
    if not np.all(np.isfinite(ys)):
        raise ValueError("integrand produced non-finite values inside the window")
    return float(np.trapezoid(ys, xs))
