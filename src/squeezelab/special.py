"""Special functions and quadrature used throughout the package.

Everything here is oscillator-unit (hbar = m = omega = 1) and works on
scalars or numpy arrays; Hermite evaluation accepts complex arguments.
normalized_hermite and oscillator_eigenfunctions share one recurrence;
hermite keeps its own as the independent reference.  Quadrature takes
vectorized integrands only: each is called once on the whole grid.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "hermite",
    "normalized_hermite",
    "log_factorial",
    "oscillator_eigenfunctions",
    "integrate",
]

PI_FOURTH_ROOT_INV = math.pi ** -0.25


def hermite(n, w):
    """Physicists' Hermite polynomial H_n(w).

    Evaluated by the upward three-term recurrence
    H_0 = 1, H_1 = 2w, H_{k+1} = 2w H_k - 2k H_{k-1},
    which is stable for the orders used here and accepts real or complex
    scalars and arrays.
    """
    if n < 0:
        raise ValueError(f"Hermite order must be non-negative, got {n}")
    h0 = 1.0 + 0.0 * w  # promotes to the dtype/shape of w
    if n == 0:
        return h0
    h1 = 2.0 * w
    for k in range(1, n):
        h0, h1 = h1, 2.0 * w * h1 - 2.0 * k * h0
    return h1


def _normalized_hermite_rows(n, w, seed=None):
    """seed H_k(w) / sqrt(2^k k!) for k = 0 .. n, one row at a time.

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
    if n < 0:
        raise ValueError(f"Hermite order must be non-negative, got {n}")
    for row in _normalized_hermite_rows(n, w):
        pass
    return row


def log_factorial(n):
    """ln(n!) for non-negative integer n."""
    if n < 0:
        raise ValueError(f"factorial argument must be non-negative, got {n}")
    return math.lgamma(n + 1.0)


def oscillator_eigenfunctions(n_max, x):
    """psi_n(x) = e^{-x^2/2} H_n(x) / (pi^{1/4} sqrt(2^n n!)) for n = 0 .. n_max, shape (n_max + 1, len(x)).

    The normalized_hermite recurrence seeded with psi_0 keeps every row of
    order one, so large n does not overflow.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1, x.size))
    for k, row in enumerate(_normalized_hermite_rows(n_max, x, PI_FOURTH_ROOT_INV * np.exp(-0.5 * x * x))):
        out[k] = row
    return out


@dataclass(frozen=True)
class QuadratureSpec:
    """Sampling window and resolution for composite quadrature."""

    lower: float
    upper: float
    points: int

    def __post_init__(self):
        if not (self.lower < self.upper):
            raise ValueError(f"quadrature window requires lower < upper, got [{self.lower}, {self.upper}]")
        if self.points < 2:
            raise ValueError(f"quadrature needs at least 2 points, got {self.points}")

    def grid(self):
        return np.linspace(self.lower, self.upper, self.points)


def _simpson(ys, h):
    """Composite Simpson rule for samples ys spaced h apart.

    An even count adds Cartwright's rule on the last interval, as
    scipy.integrate.simpson does; two samples take the trapezoid rule.
    """
    n = ys.size
    if n == 2:
        return h / 2.0 * (ys[0] + ys[1])
    odd = ys[: n - 1 + n % 2]
    total = h / 3.0 * (odd[0] + 4.0 * odd[1::2].sum() + 2.0 * odd[2:-1:2].sum() + odd[-1])
    if n % 2 == 0:
        total += h / 12.0 * (5.0 * ys[-1] + 8.0 * ys[-2] - ys[-3])
    return total


def integrate(f, spec):
    """Composite Simpson integration of f over the window in spec.

    f must be vectorized: it is called once with the whole sampling grid
    and returns one value per point.  For smooth integrands with Gaussian
    decay inside the window this is accurate to ~1e-12 absolute at a few
    thousand points.
    """
    xs = spec.grid()
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(f"integrand returned shape {ys.shape} for a grid of shape {xs.shape}")
    if not np.all(np.isfinite(ys)):
        raise ValueError("integrand produced non-finite values inside the window")
    return float(_simpson(ys, (spec.upper - spec.lower) / (spec.points - 1)))
