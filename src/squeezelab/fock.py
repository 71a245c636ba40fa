"""Truncated Fock-space operator algebra.

Displacement and squeeze operators are built two independent ways: as a
matrix exponential of the anti-Hermitian generator, from a Hermitian
eigendecomposition (the oracle), and by the constructions under test,
plus direct coefficient expansions of D(alpha)|n> and S(z)|n>, which
share one long-double kernel guarded by its rounding-error bound alone.
The oracle takes a D or S generator one chain of levels at a time (one
chain for D, one per parity for S), made real and tridiagonal by a
diagonal phase change, and reuses the eigenbasis of the last chain of
each size while the new chain, scaled to unit size, is within 4 eps of it
(see matrix_exponential); its chain test and skewness guard read the
generator's nonzero pattern and its two bands, never a full-size complex
temporary.  Any other generator gets one dense eigh.

D and S share one normal-ordered factor form: for real c and step s,
exp(c a_dag^s) diag(q^2) exp(-c a^s) = X diag(sign) X^T diag(sign) with
one long-double series X = exp(c a_dag^s) diag(q) and sign_m =
(-1)^(m // s) (_exp_ladder_series), since diag(sign) a^s diag(sign) =
-a^s.  So neither operator stores a right factor.  S's matrix is that
form at s = 2; the product forms only the terms of its upper triangle
that can be nonzero, about N^3 / 24 multiply-adds, bit-identical to the
dense N^3 product.  D's matrix is D(b)^(2^h) with b = |alpha| / 2^h <= 1:
D(b)'s leading N + 1 block comes from one cached eigenbasis of the real
generator J_1 = a + a_dag on 2N + 17 levels, in float64, and is squared h
times in float64; at N = 256 a D build takes 1.1 to 3.3 ms.  S has one
product: the column D(alpha) S(z)|n> takes column n of S's matrix and
applies D's factor form (s = 1) to it, 2^h times at the same b, so its D
and the matrix are the same operator [P_N D(b) P_N]^(2^h), and a column
more than 1e-8 past norm 1 is refused.  The column keeps D's long-double
factors for two measured reasons.  Every float64 D stage tried moves
criterion 4's uncertainty product from 1.14e-13 to 3.4e-13 .. 4.1e-12
relative to the closed form, and D's matrix in its place drops 5 (state,
t) pairs 1.02e-12 below 1/4, past the moment guard.  And the benchmark's
traced `verify` has no span for interpreter start-up, so a faster column
shows there as unattributed time past that run's gate.  Long double
stays only where terms cancel; the phase rotation runs in double.
States are mapped back to position space through the oscillator
eigenfunctions.

Truncation to the basis {|0>, ..., |N>} is never hidden.  One rule owns
N: check_truncation admits an integer (not a bool) from 1 to
MAX_TRUNCATION = 4095, the largest N whose column build fits in 1 GiB
(see MAX_TRUNCATION), and number_state, ladder_matrices, D's step and
the D and S factor builders run it before they allocate, so every entry
point that takes N refuses the same values; the caches keyed by a
caller's N are typed, so 16.0 or True never hits an entry that 16
filled.  D's matrix and column share one guard, |alpha|^2 > N, and S's
factors refuse sinh^2 r > N: their columns' least mean photon number,
where a state on levels 0..N has mean at most N.  States report their
leakage 1 - sum |c_m|^2 (its float64 floor, 1e-16 of weight, is 1e-8 of
amplitude: pool state 307 reads 0.00e+00 and fails compare_t0 at
1.39e-8) and operators a unitarity defect.

Caching follows one rule: a cache holds one entry, exists only where a
workload asks for the same key again, and returns read-only arrays.
`verify` asks for each D(alpha) S(z)|n> column at three times in a row
and synthesizes every report through one eigenfunction table, and the
benchmark's sweep builds each D and S once per state, all at one N; a
second entry would save no build on either and costs memory.  S is
cached once, as its real product at (r, N) (_squeeze_matrix): phi enters
only through the 0.24 ms rotation R(phi/2), so `verify`'s four presets,
all at r = ln 2, form one product, and squeeze_bch and S's factors keep
nothing of their own.  The D basis keeps only the rows D's block reads.
The oracle's chain bases hold one entry per chain size, at most three:
the sweep asks for 257, 129 and 128 on every state.

The factor series refuse a long double narrower than x87 extended
precision (np.finfo(np.longdouble).nmant < 63): the products cancel past
what float64 holds.  D's matrix needs none.
"""

import cmath
import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GuardViolation, guard
from .parameters import SqueezeParam, _finite, check_quantum_number, cosh_sinh, finite_time
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
        """Weight lost above the truncation, 1 - sum |c_m|^2; blind below ~1e-16 of weight, 1e-8 of amplitude."""
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

    def unitarity_defect(self) -> float:
        """max-entry norm of U^dag U - I.

        Truncating an operator to N + 1 levels makes this nonzero.  For
        squeeze_bch it is rounding in the long-double factor product
        instead, and it is huge: at N = 256 it reads 3.2e8 at r = 0.3,
        9e34 at r = 0.7 and 2.6e36 at r = 1, from the trailing columns,
        while the leading columns hold.  So it is no health figure for S.
        """
        n = self.matrix.shape[0]
        return float(np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(n))))


# The largest N for which 64 (N+1)^2 bytes fit in 1 GiB.  A column build
# (displaced_squeezed_number) peaks at 40.3 (N+1)^2 bytes of arrays
# (tracemalloc, N = 1023): D's one long-double series (_displacement_factors,
# cached, 16), S's one long-double series (_squeeze_factors, 16, freed once
# S's float64 matrix is formed) and that matrix (8).  At this N, D's basis
# (_position_basis) takes 38 s on one core, 32 s of it the SVD of its dense
# 4104 x 4103 block, and keeps 134.5 MB of rows; the process peaks at
# 415 MB RSS while it is built.
MAX_TRUNCATION = math.isqrt(2**30 // 64) - 1


def check_truncation(N) -> None:
    """Refuse, with a ValueError, a truncation N that is not an integer from 1 to MAX_TRUNCATION.

    The one check for N, run before anything of size N is allocated.  A
    bool is refused, as in check_quantum_number; a numpy integer passes.
    """
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or not 1 <= N <= MAX_TRUNCATION:
        raise ValueError(f"truncation N must be an integer from 1 to {MAX_TRUNCATION}, the largest whose factor "
                         f"matrices fit in 1 GiB, got {N!r}")


def number_state(n: int, truncation: int) -> FockState:
    check_truncation(truncation)
    if isinstance(n, numbers.Real) and not 0 <= n <= truncation:  # anything else is check_quantum_number's to name
        raise ValueError(f"need 0 <= n <= truncation, got n={n}, truncation={truncation}")
    check_quantum_number(n)
    c = np.zeros(truncation + 1, dtype=complex)
    c[n] = 1.0
    return FockState(c)


def ladder_matrices(truncation: int):
    """Annihilation and creation matrices (a, a_dag) with a|m> = sqrt(m)|m-1>."""
    check_truncation(truncation)
    a = np.zeros((truncation + 1, truncation + 1), dtype=complex)
    m = np.arange(1, truncation + 1)
    a[m - 1, m] = np.sqrt(m)
    return FockOperator(a), FockOperator(a.conj().T)


def matrix_exponential(op: FockOperator) -> FockOperator:
    """exp(G) of an anti-Hermitian generator G as V e^{-i w} V^dag (the oracle route).

    H = iG is Hermitian with eigenpairs (w, V), so the result is unitary up
    to rounding.  G must be skew to rounding, ||G + G^dag||_max <= 1e-12
    ||G||_max; its skew part (G - G^dag) / 2 is what gets exponentiated.

    A chain generator, whose nonzeros all lie on the off-diagonals +-s
    (s = 1 for D, 2 for S), goes one chain at a time: each residue class
    mod s is a path, and a diagonal phase change makes it a real symmetric
    tridiagonal J (see _chain_exponential).  Entries between chains are
    exactly 0.  The chain test reads G's nonzero pattern once (a NaN counts
    as nonzero), taking s from its first entry, and a chain generator's
    guard reads its two bands alone: every other entry of G and of
    G + G^dag is exactly 0, so max |G| and max |G + G^dag| are the same
    floats as over the whole matrix.  Any other generator gets the guard
    over the whole matrix and one dense complex eigh.  At N = 256, with one
    BLAS thread and the chain bases cached, D costs about 1.3 ms and S
    about 0.7 ms (medians over the benchmark's sweep pool; 2.3 and 1.7 ms
    on the same machine with the guard over the whole matrix).

    Nothing of the construction under test is called: the oracle works on
    the N + 1 levels it is given, takes its vectors from LAPACK and does no
    squaring.
    """
    m = op.matrix
    nonzero = m != 0  # a NaN counts as nonzero
    first = int(np.argmax(nonzero))
    step = first % m.shape[0] - first // m.shape[0]
    lower, upper = np.diagonal(m, -step), np.diagonal(m, step)
    chain = step > 0 and np.count_nonzero(nonzero) == np.count_nonzero(lower) + np.count_nonzero(upper)
    if not chain:  # the guard reads the whole matrix: G and its transpose, whose conjugate is G^dag
        lower, upper = m, m.T
    scale = float(np.maximum(np.max(np.abs(lower)), np.max(np.abs(upper))))  # inf or NaN exactly when an entry is
    if not math.isfinite(scale):
        raise ValueError("matrix exponential of non-finite entries")
    asymmetry = float(np.max(np.abs(lower + upper.conj())))
    guard("||G + G^dag||_max", asymmetry, 1e-12 * scale, "the generator is not anti-Hermitian to 1e-12 ||G||_max")
    if chain:
        return FockOperator(_chain_exponential(m, step))
    w, v = np.linalg.eigh(0.5j * (m - m.conj().T))
    return FockOperator((v * np.exp(-1j * w)) @ v.conj().T)


# The last unit chain of each size, as its off-diagonal, with its read-only
# eigenvalues and the even and odd rows of its eigenvectors; at most three
# sizes, the sweep's 257 (D) and 129 and 128 (S) at N = 256.
_CHAIN_BASES = OrderedDict()
_CHAIN_BASES_SIZES = 3


def _chain_basis(unit: np.ndarray):
    """(x, V_even, V_odd) of the tridiagonal with zero diagonal and off-diagonal `unit`, from
    _CHAIN_BASES when the cached unit chain of its size is within 4 eps in the max row-sum norm."""
    size = unit.size + 1
    cached = _CHAIN_BASES.get(size)
    if cached is not None:
        gap = np.abs(unit - cached[0])  # row j sums gap[j - 1] + gap[j]; the last row's gap[-1] is no larger
        if np.max(gap + np.append(0.0, gap[:-1]), initial=0.0) <= 4 * np.finfo(float).eps:
            return cached[1:]
    x, v = np.linalg.eigh(np.diag(unit, 1) + np.diag(unit, -1))
    _CHAIN_BASES.pop(size, None)
    _CHAIN_BASES[size] = tuple(_read_only(a) for a in (unit, x, v[0::2].copy(), v[1::2].copy()))
    while len(_CHAIN_BASES) > _CHAIN_BASES_SIZES:
        _CHAIN_BASES.popitem(last=False)
    return _CHAIN_BASES[size][1:]


def _chain_exponential(m: np.ndarray, step: int) -> np.ndarray:
    """exp((m - m^dag) / 2) = exp(-i H) where H = (i/2)(m - m^dag) has all its nonzeros on its off-diagonals +-step.

    Chain c holds levels c, c + step, ...; its edges e_j = H[c + (j+1) step,
    c + j step].  The phases p_0 = 1, p_(j+1) = p_j e_j / |e_j|, renormalised
    to |p| = 1 against drift along the chain (6.8e-14 of unitarity at
    N = 256 without), make P^dag H P the real J with off-diagonal |e_j|.
    J is s U with s = max |e_j|, and the unit chain U reuses the cached
    eigenpairs (x, V) as (s x, V) (_chain_basis):
    ||e^{-iA} - e^{-iB}||_2 <= ||A - B||_2 for Hermitian A and B, and a
    symmetric matrix's row-sum norm bounds its 2-norm, so reuse moves the
    result by at most 4 eps s (8.5e-14 at s = 96).  J is bipartite (even
    against odd chain positions), so cos(J) links only one colour and
    sin(J) only both: e^{-iJ} is the three products (V_e cos w) V_e^T,
    (V_o cos w) V_o^T and (V_e sin w) V_o^T of V's colour rows.
    """
    out = np.zeros(m.shape, dtype=complex)
    phase = np.empty(m.shape[0], dtype=complex)
    edges = 0.5j * (np.diagonal(m, -step) - np.diagonal(m, step).conj())
    for c in range(step):
        chain = edges[c::step]
        weight = np.abs(chain)
        turns = np.divide(chain, weight, out=np.ones_like(chain), where=weight > 0)  # an absent edge splits J
        p = np.cumprod(np.concatenate(([1.0], turns)))
        phase[c::step] = p / np.abs(p)
        scale = float(np.max(weight, initial=0.0)) or 1.0
        x, even, odd = _chain_basis(weight / scale)
        cos, sin = np.cos(scale * x), np.sin(scale * x)
        out.real[c::2 * step, c::2 * step] = (even * cos) @ even.T
        out.real[c + step::2 * step, c + step::2 * step] = (odd * cos) @ odd.T
        cross = (even * -sin) @ odd.T
        out.imag[c::2 * step, c + step::2 * step] = cross
        out.imag[c + step::2 * step, c::2 * step] = cross.T
    out *= phase[:, None]
    out *= phase.conj()
    return out


# The platform's long double, which the factor series refuse when it is narrower than x87 extended precision.
_LONG_DOUBLE = np.finfo(np.longdouble)


def _exp_ladder_series(c: float, step: int, truncation: int, scale):
    """(X, sign): X = exp(c a_dag^step) @ diag(scale) for real c in extended precision, step 1 or 2,
    and sign_m = (-1)^(m // step), both read-only, so that
    exp(c a_dag^step) diag(scale^2) exp(-c a^step) = X diag(sign) X^T diag(sign).

    X^T is diag(scale) exp(c a^step), and each entry (k, k + step) of a^step
    joins levels whose m // step differ by one, so diag(sign) a^step
    diag(sign) = -a^step: the signs turn X^T into the right factor and
    commute with the diagonals.  The series terminates exactly in the
    truncated space (a_dag is nilpotent), so entries are generated
    diagonal-by-diagonal from the recurrence entry(k + step j, k) =
    entry(k + step (j-1), k) * c / j * sqrt((k + step j)! / (k + step (j-1))!).
    Pure multiplications keep the relative error near the longdouble
    epsilon; the later factor contraction is what needs the headroom: this
    refuses a long double narrower than x87 extended precision (a 63-bit
    stored mantissa), which numpy gives on x86-64 Linux and not under MSVC
    or on macOS arm64.
    """
    if _LONG_DOUBLE.nmant < 63:
        raise GuardViolation(f"np.finfo(np.longdouble).nmant = {_LONG_DOUBLE.nmant} is below 63, x87 extended "
                             "precision: the factor products cancel past what a narrower long double holds")
    n1 = truncation + 1
    out = np.zeros((n1, n1), dtype=np.longdouble)
    diag = np.full(n1, scale, dtype=np.longdouble)
    np.fill_diagonal(out, diag)
    cl = np.longdouble(c)
    top = np.arange(n1, dtype=np.longdouble)
    roots = np.sqrt(top if step == 1 else top * (top - 1))  # exact integers under the sqrt
    flat = out.reshape(-1)
    for j in range(1, truncation // step + 1):
        diag = diag[: n1 - step * j] * (cl / j) * roots[step * j :]
        flat[step * j * n1 :: n1 + 1] = diag  # the diagonal entry(k + step j, k)
    sign = np.ones(n1)  # not (-1.0) ** (m // step): a ufunc verify runs nowhere else adds 64 KB to its RSS
    for k in range(step):
        sign[step + k :: 2 * step] = -1.0
    return _read_only(out), _read_only(sign)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False  # cached and shared between callers
    return array


# The gate phase enters only through R(theta) = diag(e^{i m theta}):
# D(|alpha| e^{i theta}) = R(theta) D(|alpha|) R(theta)^dag and
# S(r e^{i phi}) = R(phi/2) S(r) R(phi/2)^dag.  So the factors and the
# spectral block below are real, and every product is a real matrix
# product.  S's factors make S's matrix, the one S product, whose column
# n the column takes; D's factors are applied by the column alone.


def _displacement_step(magnitude: float, truncation: int):
    """(b, h) with b = magnitude / 2^h <= 1, so D(magnitude) = D(b)^(2^h), once D's guard admits magnitude.

    The one source of D's guard and step, for the matrix and the column
    alike: |alpha|^2 <= N, which keeps 2^h < 2 sqrt(N).
    """
    check_truncation(truncation)
    guard("|alpha|^2", magnitude * magnitude, truncation,
          "every column k of D(alpha) has mean photon number |alpha|^2 + k, so none fits in the N + 1 levels")
    b, halvings = magnitude, 0
    while b > 1.0:
        b /= 2.0
        halvings += 1
    return b, halvings


@lru_cache(maxsize=1, typed=True)
def _displacement_factors(magnitude: float, truncation: int):
    """Real (left, sign, h) with D(magnitude) = (left diag(sign) left^T diag(sign))^(2^h), for the column.

    The raw two-factor product cancels catastrophically once |alpha| sqrt(N)
    is large, so the factors are built at b = |alpha| / 2^h <= 1 and the
    exact D(alpha)^2 = D(2 alpha) restores |alpha|.  left is exp(b a_dag)
    e^{-b^2/4} and sign_m = (-1)^m, so diag(sign) left^T diag(sign) is the
    right factor exp(-b a) e^{-b^2/4} (_exp_ladder_series), never stored.
    """
    b, halvings = _displacement_step(magnitude, truncation)
    return (*_exp_ladder_series(b, 1, truncation, np.exp(np.longdouble(-b**2 / 4.0))), halvings)


def _squeeze_factors(r: float, truncation: int):
    """Real (half, sign) with S(r) = half diag(sign) half^T diag(sign), formed by _squeeze_matrix alone.

    half is exp(d a_dag^2) (cosh r)^{-(a_dag a + 1/2) / 2} and sign_m = (-1)^(m // 2), the one
    series of _exp_ladder_series at step 2, with half of the middle diagonal on each side.
    Entry (i, k) sums the same terms at every N; at N = 300 it matches squeezed_number_coeffs to
    6.1e-17 on columns n <= 16, rows < 64, even at r = 3.5, so sinh^2 r <= N guards truncation only.
    Squaring S(r/2), as D doubles, would carry the far-from-unitary edge rows into that block (9e-8 at r = 2).
    """
    check_truncation(truncation)
    cosh_r, sinh_r = cosh_sinh(r, r)
    guard("sinh^2 r", sinh_r * sinh_r, truncation, f"at r = {r:g} every column of S(z) has mean photon number "
          "at least sinh^2 r, so none fits in the N + 1 levels")
    m = np.arange(truncation + 1, dtype=np.longdouble)
    root_mid = np.exp(-(m + 0.5) * np.log(np.longdouble(cosh_r)) / 2)
    return _exp_ladder_series(0.5 * math.tanh(r), 2, truncation, root_mid)


@lru_cache(maxsize=1, typed=True)
def _squeeze_matrix(r: float, truncation: int) -> np.ndarray:
    """S(r) as a real read-only float64 matrix: cached for `verify`, whose four presets all ask for r = ln 2.

    half links only levels of one parity and is lower-triangular on each parity sublattice, so
    P = half diag(sign) half^T is formed there one block of rows [s, e) at a time, against every
    column >= s, from the first e terms.  The terms it skips are exact zeros, and numpy's
    long-double dot sums the rest term by term in increasing k from +0, so an entry is the same
    at every N.  Term k of P[i, j] is sign_k half[i, k] half[j, k], the same bits as P[j, i]'s,
    so each block is exactly symmetric and its transpose fills the lower triangle: about N^3 / 24
    multiply-adds, and S[k, i] = (-1)^((i - k) / 2) S[i, k] exactly.  Each block is rounded to
    float64 as it is stored.  Blocks of 8 rows skip more zeros than 16 and cost fewer calls into
    numpy than 4: at N = 256, one BLAS thread, blocks of 4 / 8 / 16 / 32 rows took
    1.8 / 1.75 / 1.86 / 2.2 ms (medians of 25 builds).
    """
    half, sign = _squeeze_factors(r, truncation)
    mat = np.zeros(half.shape)
    for p in range(2):
        h, h_sign, out = half[p::2, p::2], sign[p::2], mat[p::2, p::2]
        for s in range(0, h.shape[0], 8):
            e = min(s + 8, h.shape[0])
            block = np.dot(h[s:e, :e] * h_sign[:e], h[s:, :e].T)
            out[s:e, s:] = block
            out[s:, s:e] = block.T
    mat *= sign
    return _read_only(mat)


# A column of the basis recurrence is scaled down by 2^-400 once an entry
# passes 2^400, so its sum of squares (at most 8207 terms) stays finite.
_RESCALE = 2.0**400


def _node_recurrence(x: np.ndarray, levels: int, keep: int):
    """(rows, norm_sq, last, beyond) of sqrt(m + 1) v_{m+1} = x v_m - sqrt(m) v_{m-1} from v_0 = 1, v_{-1} = 0,
    for each node in x: rows v_0 .. v_{keep-1}, norm_sq the sum of v_m^2 over m < levels, last v_{levels-1}
    and beyond v_levels, every column scaled alike."""
    roots = np.sqrt(np.arange(float(levels + 1)))
    rows = np.empty((keep, x.size))
    prev, row, norm_sq = np.zeros(x.size), np.ones(x.size), np.zeros(x.size)
    for m in range(levels):
        if m < keep:
            rows[m] = row
        norm_sq += row * row
        prev, row = row, (x * row - roots[m] * prev) / roots[m + 1]
        big = np.abs(row) > _RESCALE
        if big.any():  # earlier rows may underflow: they are below 2^-400 of this one
            rows[: m + 1, big] /= _RESCALE
            prev[big] /= _RESCALE
            row[big] /= _RESCALE
            norm_sq[big] /= _RESCALE**2
    return rows, norm_sq, prev, row


@lru_cache(maxsize=1, typed=True)
def _position_basis(truncation: int):
    """Rows 0 .. N of the eigenvectors of J_1 = a + a_dag on 2N + 17 levels, as read-only (x, even, odd).

    J_1 is sqrt(2) x truncated: tridiagonal, off-diagonal sqrt(m + 1), zero
    diagonal.  So it links even levels only to odd ones, and its eigenvalues
    are 0 and the pairs +-x_k, where x_k are the singular values of its
    even-to-odd block (sqrt(2) times the Gauss-Hermite nodes; Golub & Welsch,
    Math. Comp. 23 (1969) 221).  The eigenvector at a node x is the
    recurrence vector v of _node_recurrence normalized over all levels; it
    meets J_1 v = x v in every row but the last, which is off by
    sqrt(levels) v_levels.  So each node is first moved to its vector's
    Rayleigh quotient, x - sqrt(levels) v_levels v_{levels-1} / |v|^2.

    Measured at b <= 1: D(b)'s block is within 7.2e-16 of the factor
    product at N <= 32, and within 1.9e-15 of the exact sum at N = 256,
    where LAPACK's singular vectors give 7.6e-15 at both.  To come within
    2e-15 of a basis twice as large, the block needs 12 levels past N at
    N = 1, 16 at N = 16, 19 at N = 32, 27 at N = 128 and 34 at N = 256;
    the N + 16 past N here cover every N.

    `even` holds levels 0, 2, .. <= N and `odd` levels 1, 3, .. <= N, each
    level m signed (-1)^(m // 2) and each +-x_k pair weighted sqrt(2); x
    ends with the zero node, whose odd rows are exactly 0.  Only these rows
    are kept: (N + 1) (N + 9) floats, 0.55 MB at N = 256.
    """
    levels = 2 * truncation + 17
    roots = np.sqrt(np.arange(float(levels)))
    block = np.zeros(((levels + 1) // 2, levels // 2))
    odd = np.arange(levels // 2)
    block[odd, odd] = roots[1::2]  # J_1[2k, 2k + 1] = sqrt(2k + 1)
    block[odd + 1, odd] = roots[2::2]  # J_1[2k + 2, 2k + 1] = sqrt(2k + 2)
    x = np.append(np.linalg.svd(block, compute_uv=False), 0.0)
    _, norm_sq, last, beyond = _node_recurrence(x, levels, 0)
    x -= math.sqrt(levels) * beyond * last / norm_sq
    rows, norm_sq, _, _ = _node_recurrence(x, levels, truncation + 1)
    rows /= np.sqrt(norm_sq)
    rows[:, :-1] *= math.sqrt(2.0)
    rows *= ((-1.0) ** (np.arange(truncation + 1) // 2))[:, None]
    return _read_only(x), _read_only(rows[0::2].copy()), _read_only(rows[1::2].copy())


def _displacement_block(b: float, truncation: int) -> np.ndarray:
    """D(b)'s leading N + 1 block, real b, from _position_basis, as a float64 matrix.

    With P = diag(i^m), D(b) = P^dag exp(i b J_1) P, so entry (j, k) is
    i^(k - j) (cos(b J_1) + i sin(b J_1))[j, k]: cos(b J_1) links levels of
    one parity and sin(b J_1) levels of opposite parity.  So the block is
    three half-size products, one per parity pair; (odd, even) is minus the
    transpose of (even, odd).
    """
    x, even, odd = _position_basis(truncation)
    cos, sin = np.cos(b * x), np.sin(b * x)
    out = np.empty((truncation + 1, truncation + 1))
    out[0::2, 0::2] = (even * cos) @ even.T
    out[1::2, 1::2] = (odd * cos) @ odd.T
    cross = (even * sin) @ odd.T
    out[0::2, 1::2] = -cross
    out[1::2, 0::2] = cross.T
    return out


def _phases(theta, size: int) -> np.ndarray:
    """Diagonal of R(theta) = diag(e^{i m theta}), m < size, in the precision of theta:
    complex128 for the builders' float angles, long double for the series' angles."""
    return np.exp(1j * theta * np.arange(size))


def _rotated(mat: np.ndarray, theta) -> np.ndarray:
    """R(theta) mat R(theta)^dag for a real float64 mat, as a read-only complex128 matrix.

    The float theta gives complex128 phases: a rotation sums nothing.  The
    column phases go on in place, one complex temporary fewer: 0.24 ms at
    N = 256, with the bits of forming both products anew.
    """
    phase = _phases(theta, mat.shape[0])
    out = phase[:, None] * mat
    out *= phase.conj()
    return _read_only(out)


def _rotated_apply(factors, theta, coeffs: np.ndarray) -> np.ndarray:
    """R(theta) (left diag(sign) left^T diag(sign))^(2^h) R(theta)^dag applied to a clongdouble
    vector, for D's factors (left, sign, h) as _displacement_factors returns them: the column's
    D stage (S has no factor stage; its one product is squeeze_bch's).  A sign flip is exact, so
    each pass has the bits of applying the right factor diag(sign) left^T diag(sign) stored,
    then left.  The factors act in long double: in float64 they are 4.5e-9 off at the sweep pool's
    edge, and every float64 D stage tried moves criterion 4's uncertainty product (ROADMAP item 2)."""
    left, sign, halvings = factors
    phase = _phases(theta, coeffs.size)
    # (re, im) as two real columns, so the real factors apply to both at once
    pair = (coeffs * phase.conj()).view(np.longdouble).reshape(-1, 2)
    sign = sign[:, None]
    for _ in range(2**halvings):
        pair = np.dot(left, sign * np.dot(left.T, sign * pair))
    return pair.view(np.clongdouble)[:, 0] * phase


@lru_cache(maxsize=1, typed=True)
def displacement_bch(alpha: complex, truncation: int) -> FockOperator:
    """Displacement operator D(alpha) on the truncated basis, in float64.

    D(b)'s leading N + 1 block at b = |alpha| / 2^h <= 1 comes from the
    cached eigenbasis of the generator (_position_basis), is squared h times
    (D(b)^2 = D(2b)) and rotated by the phase of alpha.  That is
    [P_N D(b) P_N]^(2^h), the operator the column displaced_squeezed_number
    applies through the normal-ordered factors
    e^{-|b|^2/2} exp(b a_dag) exp(-b a), whose product is P_N D(b) P_N
    exactly.  It refuses an alpha with a part that is not finite
    (parameters._finite) and |alpha|^2 > N, as the column does, and
    alpha = 0 gives the exact identity.  Cached: the matrix is read-only
    and shared.
    """
    alpha = complex(*_finite("displacement alpha", alpha.real, alpha.imag))
    b, halvings = _displacement_step(abs(alpha), truncation)
    if b == 0.0:
        return FockOperator(_read_only(np.eye(truncation + 1, dtype=complex)))
    mat = _displacement_block(b, truncation)
    for _ in range(halvings):
        mat = mat @ mat
    return FockOperator(_rotated(mat, cmath.phase(alpha)))


def squeeze_bch(sq: SqueezeParam, truncation: int) -> FockOperator:
    """Squeeze operator from its normal-ordered factorization.

    S(z) = exp(d a_dag a_dag) (1/cosh r)^{1/2 + a_dag a} exp(-conj(d) a a)
    with d = (1/2) e^{i phi} tanh r; the middle factor is the diagonal
    (cosh r)^{-(m + 1/2)}.  One product, built at the real r and rotated
    by phi/2; its factors refuse sinh^2 r > N.  The right factor is the
    left one's signed transpose and the middle diagonal splits between
    them, so one series gives the whole product (_squeeze_factors).  Only
    that product cancels (the series' entries reach 1.6e11 at r = 0.3,
    6.4e17 at r = 1 and 6.9e16 at r = 1.2), so only it is formed in long
    double, its upper triangle from the terms that can be nonzero,
    bit-identical to the dense product, and cached at (r, N) alone by
    _squeeze_matrix; each call rotates it anew into a read-only matrix,
    whose column n displaced_squeezed_number takes.

    Only the leading columns hold.  Rounding in the long-double factor
    product grows down the columns until the matrix is far from unitary:
    at N = 256 the first column with an entry above 1.01 in modulus is
    200 at r = 0.3, 116 at r = 0.7 and 102 at r = 1, and
    unitarity_defect() reads 3.2e8, 9e34 and 2.6e36.  No entry depends on
    N, so the 64-block's 1.75e-6 gap to the N = 256 eigh oracle at r = 1.175
    is the oracle's truncation; an N / 4 block just reads more columns.
    """
    return FockOperator(_rotated(_squeeze_matrix(sq.r, truncation), sq.phi / 2))


@lru_cache(maxsize=1, typed=True)
def displaced_squeezed_number(n: int, alpha: complex, sq: SqueezeParam, truncation: int) -> FockState:
    """D(alpha) S(z)|n>: column n of squeeze_bch, with displacement_bch's
    normal-ordered factors applied to it, never multiplied into a matrix.

    alpha's finiteness check and D's guard run first, then S's through
    squeeze_bch, then n's checks, before n indexes the column; the
    column's mean photon number |alpha|^2 + (n + 1/2) cosh 2r - 1/2
    exceeds N under either guard.  S is squeeze_bch's own product,
    O(N^3 / 24) and formed once per (r, N) by _squeeze_matrix's cache; D
    is 2^h < 2 sqrt(N) pairs of matrix-vector products, O(2^h N^2) instead
    of O(h N^3).  Cached: the coefficients are read-only.

    The exact truncated column has norm <= 1, so ||c||_2 - 1 <= ||c - c_exact||_2
    and a column whose norm exceeds 1 by more than 1e-8 raises GuardViolation
    (at n = 500, alpha = 6+8i, r = 0.5, N = 1024 it is 3e51).
    """
    alpha = complex(*_finite("displacement alpha", alpha.real, alpha.imag))
    d_factors = _displacement_factors(abs(alpha), truncation)
    s_matrix = squeeze_bch(sq, truncation).matrix  # positional: the benchmark's tracer keys builds by (sq, N)
    number_state(n, truncation)  # n's checks, before n indexes a column
    coeffs = _rotated_apply(d_factors, cmath.phase(alpha), s_matrix[:, n].astype(np.clongdouble)).astype(complex)
    guard(f"D(alpha) S(z)|n> at n = {n}, N = {truncation}: ||c||_2 - 1", float(np.linalg.norm(coeffs)) - 1.0, 1e-8,
          "the exact truncated column has norm at most 1")
    return FockState(_read_only(coeffs))


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
    guard(f"{subject}, n = {n}, N = {truncation}: series rounding-error bound", float(np.max(np.sum(error, axis=0))),
          1e-8)
    coeffs = np.zeros(truncation + 1, dtype=complex)
    turns = _phases(arg_u, j.size)[j] * _phases(arg_v, truncation + 1)[k]  # long-double angles and turns
    coeffs[ms] = np.sum(magnitude * turns, axis=0)
    return FockState(coeffs)


def displaced_number_coeffs(n: int, alpha: complex, truncation: int) -> FockState:
    """Coefficients of D(alpha)|n> from the double-sum expansion.

    c_m = e^{-|alpha|^2/2} sum_j alpha^{m-n+j} (-conj(alpha))^j
          sqrt(m! n!) / ((m-n+j)! j! (n-j)!)

    with j running over max(0, n-m) .. n: a finite sum, so any 0 <= n <= N
    and finite alpha are admitted, and the rounding-error bound is the only
    guard.
    """
    state = number_state(n, truncation)
    alpha = complex(*_finite("displacement alpha", alpha.real, alpha.imag))
    if alpha == 0:
        return state
    a = np.clongdouble(alpha)
    return _normal_ordered_series(n, -a.conjugate(), a, 1, -(a.real**2 + a.imag**2) / 2, truncation,
                                  f"D(alpha)|n> at |alpha| = {abs(alpha):.3g}")


def squeezed_number_coeffs(n: int, sq: SqueezeParam, truncation: int) -> FockState:
    """Coefficients of S(z)|n> from the finite-j, truncated-k expansion.

    c_m = (cosh r)^{-(n+1/2)} sqrt(n!)
          sum_j (-conj(d))^j (cosh r)^{2j} / ((n-2j)! j!)
                d^k sqrt(m!) / k!,     k = (m - n)/2 + j

    with d = tanh(r) e^{i phi} / 2, supported only on m with the parity of
    n; the k sum is truncated by the basis cutoff.  The weight lost there
    is 1 - sum |c_m|^2, the state's leakage, which cannot see below ~1e-16
    of weight, 1e-8 of amplitude.  Each c_m is a finite sum, so any
    0 <= n <= N and r are admitted, and the rounding-error bound is the
    only guard.
    """
    state = number_state(n, truncation)
    if sq.r == 0.0:
        return state
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
    """Free-oscillator evolution: c_m -> e^{-i(m + 1/2)t} c_m; t must be finite."""
    m = np.arange(state.truncation + 1)
    return FockState(state.coeffs * np.exp(-1j * (m + 0.5) * finite_time(t)))
