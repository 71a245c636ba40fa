"""Truncated Fock-space operator algebra.

Displacement and squeeze operators are built two independent ways: as a
matrix exponential of the anti-Hermitian generator, from a Hermitian
eigendecomposition (the oracle), and as normal-ordered products of
exponential factors (the construction under test), plus
direct coefficient expansions of D(alpha)|n> and S(z)|n>, which share one
guarded long-double kernel.  The same factors also act on |n> directly,
for D(alpha) S(z)|n>.  States are mapped back to position space through
the oscillator eigenfunctions.

Truncation to the basis {|0>, ..., |N>} is never hidden: states report
their leakage 1 - sum |c_m|^2 and operators report a unitarity defect
instead of assuming unitarity.

Caching follows one rule: a cache holds one entry, exists only where a
workload asks for the same key again, and returns read-only arrays.
`verify` asks for each D(alpha) S(z)|n> column at three times in a row
and synthesizes every report through one eigenfunction table, and the
benchmark's sweep builds each D and S once per state; a second entry
would save no build on either and costs memory.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GuardViolation
from .parameters import SqueezeParam
from .special import oscillator_eigenfunctions

__all__ = [
    "FockState",
    "FockOperator",
    "number_state",
    "ladder_matrices",
    "matrix_exponential",
    "displacement_bch",
    "squeeze_bch",
    "displaced_squeezed_number",
    "displaced_number_coeffs",
    "squeezed_number_coeffs",
    "synthesize",
    "time_evolve",
]

@dataclass(frozen=True)
class FockState:
    """Complex coefficients on the truncated number basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("FockState needs a 1-d coefficient vector")
        object.__setattr__(self, "coeffs", c)

    @property
    def truncation(self) -> int:
        return self.coeffs.size - 1

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    @property
    def leakage(self) -> float:
        """Probability weight lost above the truncation, 1 - sum |c_m|^2."""
        return 1.0 - self.norm_sq


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on the truncated number basis; products and columns act on `matrix`."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("FockOperator needs a square matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def truncation(self) -> int:
        return self.matrix.shape[0] - 1

    def unitarity_defect(self) -> float:
        """max-entry norm of U^dag U - I; truncation makes this nonzero."""
        n = self.matrix.shape[0]
        return float(np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(n))))


def number_state(n: int, truncation: int) -> FockState:
    if not 0 <= n <= truncation:
        raise ValueError(f"need 0 <= n <= truncation, got n={n}, truncation={truncation}")
    c = np.zeros(truncation + 1, dtype=complex)
    c[n] = 1.0
    return FockState(c)


def ladder_matrices(truncation: int):
    """Annihilation and creation matrices (a, a_dag) with a|m> = sqrt(m)|m-1>."""
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    a = np.zeros((truncation + 1, truncation + 1), dtype=complex)
    m = np.arange(1, truncation + 1)
    a[m - 1, m] = np.sqrt(m)
    return FockOperator(a), FockOperator(a.conj().T)


def matrix_exponential(op: FockOperator) -> FockOperator:
    """exp(G) of an anti-Hermitian generator G as V e^{-i w} V^dag (the oracle route).

    iG is Hermitian with eigenpairs (w, V), so the result is unitary up to
    rounding.  G must be skew to rounding, ||G + G^dag||_max <= 1e-12 ||G||_max;
    its skew part (G - G^dag) / 2 is what gets exponentiated.
    """
    m = op.matrix
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix exponential of non-finite entries")
    scale = float(np.max(np.abs(m)))
    asymmetry = float(np.max(np.abs(m + m.conj().T)))
    if asymmetry > 1e-12 * scale:
        raise GuardViolation(
            f"generator is not anti-Hermitian: ||G + G^dag||_max / ||G||_max = {asymmetry / scale:.3g} exceeds 1e-12"
        )
    w, v = np.linalg.eigh(0.5j * (m - m.conj().T))
    return FockOperator((v * np.exp(-1j * w)) @ v.conj().T)


def _exp_ladder_series(c: float, step: int, truncation: int, scale) -> np.ndarray:
    """exp(c a_dag^step) @ diag(scale) for real c in extended precision, step 1 or 2.

    The series terminates exactly in the truncated space (a_dag is
    nilpotent), so entries are generated diagonal-by-diagonal from the
    recurrence entry(k + step j, k) = entry(k + step (j-1), k) * c / j
    * sqrt((k + step j)! / (k + step (j-1))!).  Pure multiplications keep
    the relative error near the longdouble epsilon; the later factor
    contraction is what needs the headroom.
    """
    n1 = truncation + 1
    out = np.zeros((n1, n1), dtype=np.longdouble)
    diag = np.full(n1, scale, dtype=np.longdouble)
    np.fill_diagonal(out, diag)
    cl = np.longdouble(c)
    for j in range(1, truncation // step + 1):
        k = np.arange(n1 - step * j)
        top = k + step * j
        ratio = top if step == 1 else top * (top - 1)
        diag = diag[: n1 - step * j] * (cl / j) * np.sqrt(ratio.astype(np.longdouble))
        out[top, k] = diag
    return out


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False  # cached and shared between callers
    return array


def _halved(magnitude: float):
    """(magnitude / 2^h, h) for the smallest h that brings it to <= 1."""
    halvings = 0
    while magnitude > 1.0:
        magnitude /= 2.0
        halvings += 1
    return magnitude, halvings


# The gate phase enters only through R(theta) = diag(e^{i m theta}):
# D(|alpha| e^{i theta}) = R(theta) D(|alpha|) R(theta)^dag and
# S(r e^{i phi}) = R(phi/2) S(r) R(phi/2)^dag.  So the factors below are
# real, and every product is a real matrix product.  The factors are
# shared by the matrices and the columns.


@lru_cache(maxsize=1)
def _displacement_factors(magnitude: float, truncation: int):
    """Real (left, right, h) with D(magnitude) = (left @ right)^(2^h).

    The raw two-factor product cancels catastrophically once |alpha|
    sqrt(N) is large, so the factors are built at b = |alpha| / 2^h <= 1
    and the exact group doubling D(alpha)^2 = D(2 alpha) restores |alpha|.
    """
    b, halvings = _halved(magnitude)
    scale = np.exp(np.longdouble(-b**2 / 4.0))
    left = _exp_ladder_series(b, 1, truncation, scale)
    right = _exp_ladder_series(-b, 1, truncation, scale).T
    return _read_only(left), _read_only(right), halvings


@lru_cache(maxsize=1)
def _squeeze_factors(r: float, truncation: int):
    """Real (left, right, h) with S(r) = (left @ right)^(2^h).

    Built at r / 2^h <= 1; squeezes of equal phase compose by adding
    magnitudes, S(r/2)^2 = S(r).
    """
    base_r, halvings = _halved(r)
    d = 0.5 * math.tanh(base_r)
    m = np.arange(truncation + 1, dtype=np.longdouble)
    mid = np.exp(-(m + 0.5) * np.log(np.longdouble(math.cosh(base_r))))
    left = _exp_ladder_series(d, 2, truncation, 1)
    right = _exp_ladder_series(-d, 2, truncation, mid).T
    return _read_only(left), _read_only(right), halvings


def _alpha_angle(alpha: complex):
    return np.arctan2(np.longdouble(alpha.imag), np.longdouble(alpha.real))


def _phases(theta, size: int) -> np.ndarray:
    """Diagonal of R(theta) = diag(e^{i m theta}), m < size, in extended precision."""
    return np.exp(1j * np.longdouble(theta) * np.arange(size))


def _rotated_power(factors, theta) -> np.ndarray:
    """R(theta) (left @ right)^(2^h) R(theta)^dag as a read-only complex matrix.

    Only left @ right cancels (at N = 256 the factor entries reach 6e5 for D
    and 1e11 for S), so only it is formed in long double; the squarings act
    on a nearly unitary matrix and run in float64.
    """
    left, right, halvings = factors
    mat = np.dot(left, right).astype(float)
    for _ in range(halvings):
        mat = mat @ mat
    phase = _phases(theta, mat.shape[0])
    return _read_only((phase[:, None] * mat * phase.conj()).astype(complex))


def _rotated_apply(factors, theta, coeffs: np.ndarray) -> np.ndarray:
    """R(theta) (left @ right)^(2^h) R(theta)^dag applied to a clongdouble vector."""
    left, right, halvings = factors
    phase = _phases(theta, coeffs.size)
    # (re, im) as two real columns, so the real factors apply to both at once
    pair = (coeffs * phase.conj()).view(np.longdouble).reshape(-1, 2)
    for _ in range(2**halvings):
        pair = np.dot(left, np.dot(right, pair))
    return pair.view(np.clongdouble)[:, 0] * phase


def _check_alpha_guard(alpha: complex, truncation: int) -> None:
    if abs(alpha) > truncation / 8.0:
        raise GuardViolation(
            f"|alpha| = {abs(alpha):.3g} exceeds truncation guard {truncation / 8.0:g} at N = {truncation}"
        )


def _check_squeeze_guard(sq: SqueezeParam) -> None:
    if sq.r > 3.0:
        raise GuardViolation(f"squeeze magnitude r = {sq.r:.3g} exceeds truncation guard 3")


@lru_cache(maxsize=1)
def displacement_bch(alpha: complex, truncation: int) -> FockOperator:
    """Displacement operator from its normal-ordered factorization.

    D(alpha) = e^{-|alpha|^2/2} exp(alpha a_dag) exp(-conj(alpha) a),
    each factor expanded as its (terminating) truncated series, built at
    the real |alpha| and rotated by the phase of alpha.  Requires
    |alpha| <= truncation/8 so the occupied block sits well below the
    truncation edge.  Cached: the matrix is read-only and shared.
    """
    alpha = complex(alpha)
    _check_alpha_guard(alpha, truncation)
    return FockOperator(_rotated_power(_displacement_factors(abs(alpha), truncation), _alpha_angle(alpha)))


@lru_cache(maxsize=1)
def squeeze_bch(sq: SqueezeParam, truncation: int) -> FockOperator:
    """Squeeze operator from its normal-ordered factorization.

    S(z) = exp(d a_dag a_dag) (1/cosh r)^{1/2 + a_dag a} exp(-conj(d) a a)
    with d = (1/2) e^{i phi} tanh r; the middle factor is the diagonal
    (cosh r)^{-(m + 1/2)}.  Built at the real r and rotated by phi/2.
    Cached: the matrix is read-only and shared.
    """
    _check_squeeze_guard(sq)
    return FockOperator(_rotated_power(_squeeze_factors(sq.r, truncation), np.longdouble(sq.phi) / 2))


@lru_cache(maxsize=1)
def displaced_squeezed_number(n: int, alpha: complex, sq: SqueezeParam, truncation: int) -> FockState:
    """D(alpha) S(z)|n> with the factors of squeeze_bch and displacement_bch
    applied to |n> in turn, never multiplied into matrices.

    Same guards and group doubling as the matrices, but each doubling is
    a pair of matrix-vector products: O(2^h N^2) instead of O(h N^3).
    Cached: the coefficients are read-only and shared.
    """
    alpha = complex(alpha)
    _check_alpha_guard(alpha, truncation)
    _check_squeeze_guard(sq)
    coeffs = number_state(n, truncation).coeffs.astype(np.clongdouble)
    coeffs = _rotated_apply(_squeeze_factors(sq.r, truncation), np.longdouble(sq.phi) / 2, coeffs)
    coeffs = _rotated_apply(_displacement_factors(abs(alpha), truncation), _alpha_angle(alpha), coeffs)
    return FockState(_read_only(coeffs.astype(complex)))


def _normal_ordered_series(n: int, u, v, step: int, log_prefactor, truncation: int, subject: str) -> FockState:
    """c_m = e^{log_prefactor} sqrt(m! n!) sum_j u^j v^k / (j! k! (n - step j)!), k = (m - n)/step + j,
    for m = 0 .. N: the expansion of D(alpha)|n> (step 1) and of S(z)|n> (step 2).

    All terms are formed at once on the (j, m) grid: each magnitude as the exp of a sum of
    long-double logs, each phase apart as e^{i j arg u} e^{i k arg v} from two tables.  A log
    or angle x costs eps |x| of relative accuracy, and ln 256! is 1167, so a sum of J terms,
    rounded to complex, carries the error bound
    sum_j (eps (sum |logs| + j |arg u| + k |arg v| + J + 4) + eps_64 / 2) |term_j|.
    Above 1e-8, the amplitude tolerance the series are checked against, it has cancelled too
    far and raises GuardViolation.
    """
    ms = np.arange(n % step, truncation + 1, step)
    j = np.arange(n // step + 1)[:, None]
    k = (ms - n) // step + j
    present = k >= 0
    k = np.where(present, k, 0)
    log_fact = np.concatenate(([0], np.cumsum(np.log(np.arange(1, truncation + 1, dtype=np.longdouble)))))
    logs = (j * np.log(abs(u)), k * np.log(abs(v)), -log_fact[j], -log_fact[k], -log_fact[n - step * j],
            0.5 * log_fact[ms], 0.5 * log_fact[n], log_prefactor)
    arg_u, arg_v = np.angle(u), np.angle(v)
    with np.errstate(over="ignore"):  # an overflowing term trips the guard
        magnitude = np.where(present, np.exp(sum(logs)), 0)
    weight = sum(np.abs(part) for part in logs) + j * abs(arg_u) + k * abs(arg_v) + j.size + 4
    error = (np.finfo(np.longdouble).eps * weight + np.finfo(float).eps / 2) * magnitude
    bound = float(np.max(np.sum(error, axis=0)))
    if not bound <= 1e-8:
        raise GuardViolation(
            f"{subject}, n = {n}, N = {truncation}: series rounding-error bound {bound:.3g} exceeds 1e-8"
        )
    coeffs = np.zeros(truncation + 1, dtype=complex)
    turns = _phases(arg_u, j.size)[j] * _phases(arg_v, truncation + 1)[k]
    coeffs[ms] = np.sum(magnitude * turns, axis=0)
    return FockState(coeffs)


def displaced_number_coeffs(n: int, alpha: complex, truncation: int) -> FockState:
    """Coefficients of D(alpha)|n> from the double-sum expansion.

    c_m = e^{-|alpha|^2/2} sum_j alpha^{m-n+j} (-conj(alpha))^j
          sqrt(m! n!) / ((m-n+j)! j! (n-j)!)

    with j running over max(0, n-m) .. n.
    """
    if n > truncation // 2:
        raise GuardViolation(f"need n <= truncation/2, got n = {n} at N = {truncation}")
    alpha = complex(alpha)
    _check_alpha_guard(alpha, truncation)
    if alpha == 0:
        return number_state(n, truncation)
    a = np.clongdouble(alpha)
    return _normal_ordered_series(n, -a.conjugate(), a, 1, -(a.real**2 + a.imag**2) / 2, truncation,
                                  f"D(alpha)|n> at |alpha| = {abs(alpha):.3g}")


def squeezed_number_coeffs(n: int, sq: SqueezeParam, truncation: int) -> FockState:
    """Coefficients of S(z)|n> from the finite-j, truncated-k expansion.

    c_m = (cosh r)^{-(n+1/2)} sqrt(n!)
          sum_j (-conj(d))^j (cosh r)^{2j} / ((n-2j)! j!)
                d^k sqrt(m!) / k!,     k = (m - n)/2 + j

    with d = tanh(r) e^{i phi} / 2, supported only on m with the parity of
    n; the k sum is truncated by the basis cutoff and the lost weight shows
    up as reported leakage.
    """
    if n > truncation // 4:
        raise GuardViolation(f"need n <= truncation/4, got n = {n} at N = {truncation}")
    _check_squeeze_guard(sq)
    if sq.r == 0.0:
        return number_state(n, truncation)
    r = np.longdouble(sq.r)
    d = np.tanh(r) / 2 * np.exp(1j * np.longdouble(sq.phi))
    return _normal_ordered_series(n, -d.conjugate() * np.cosh(r) ** 2, d, 2, -(n + 0.5) * np.log(np.cosh(r)),
                                  truncation, f"S(z)|n> at r = {sq.r:.3g}")


@lru_cache(maxsize=1)
def _eigenfunction_table(truncation: int, samples: bytes) -> np.ndarray:
    """psi_0 .. psi_N at the float64 x samples packed in `samples`, read-only."""
    return _read_only(oscillator_eigenfunctions(truncation, np.frombuffer(samples)))


def synthesize(state: FockState, x):
    """Position-space amplitude sum_m c_m psi_m(x).

    The eigenfunction table is cached for one (N, x samples) key: all 48
    `verify` reports synthesize on the same N and grid.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    values = state.coeffs @ _eigenfunction_table(state.truncation, xs.tobytes())
    return values[0] if np.isscalar(x) or np.asarray(x).ndim == 0 else values


def time_evolve(state: FockState, t: float) -> FockState:
    """Free-oscillator evolution: c_m -> e^{-i(m + 1/2)t} c_m."""
    m = np.arange(state.truncation + 1)
    return FockState(state.coeffs * np.exp(-1j * (m + 0.5) * t))
