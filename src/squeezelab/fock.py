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
temporary.  Any other generator gets one dense eigh, its vectors made
orthonormal by one Newton-Schulz step.

D and S are built from one float64 chain basis.  Each is exp(t K) of a
real generator K whose nonzeros join level m to m + s (D: s = 1, J_1 =
a + a_dag; S: s = 2, one chain per parity), and such a chain is the
tridiagonal J of _chain_rows in disguise: its eigenvectors come from the
three-term recurrence at nodes taken from one SVD of J's even-to-odd
block, and exp(t K) is three half-size products of their colour rows
(_parity_blocks).  D's matrix is D(b)^(2^h) with b = |alpha| / 2^h <= 1:
D(b)'s leading N + 1 block comes from the basis of J_1 on 2N + 17 levels
(_position_basis) as its three parity blocks, which are squared h times
and assembled once; at N = 256 a D build takes 0.86 to 2.2 ms (h = 0 to
3).  S's matrix is built at r itself from the bases of its two parity
chains on levels <= 2N + 2 (_squeeze_basis), each colour's rows
orthonormalized by one Newton-Schulz step; it takes about 0.5 ms at
N = 256 once the basis (about 8 ms, once per N) is cached.  squeeze_bch
rotates all of S(r) by phi/2, and the column D(alpha) S(z)|n> rotates
only its column n, to the same bits, then applies D's normal-ordered
factor form exp(b a_dag) exp(-b a) e^{-b^2/2} = X diag(sign) X^T
diag(sign), with one long-double series X = exp(b a_dag) e^{-b^2/4} and
sign_m = (-1)^m (_exp_ladder_series), 2^h times at the same b, so its D
and the matrix are the same operator [P_N D(b) P_N]^(2^h), and a column
more than 1e-8 past norm 1 is refused.  No library route calls the
public builders displacement_bch, squeeze_bch, matrix_exponential or
ladder_matrices: they are what the tests, the benchmark and users read
the constructions through.  The column keeps D's long-double factors for
two measured reasons.  Every float64 D stage tried moves criterion 4's
uncertainty product from 1.14e-13 to 3.4e-13 .. 4.1e-12 relative to the
closed form, and D's matrix in its place drops 5 (state, t) pairs
1.02e-12 below 1/4, past the moment guard.  And the benchmark's traced
`verify` has no span for interpreter start-up, so a faster column shows
there as unattributed time past that run's gate.  D's column passes are
the only long double on an operator route; the phase rotations run in
double.
States are mapped back to position space through the oscillator
eigenfunctions.

Truncation to the basis {|0>, ..., |N>} is never hidden.  One rule owns
N: check_truncation admits an integer (not a bool) from 1 to
MAX_TRUNCATION = 4095, the largest N whose column build fits in 1 GiB
(see MAX_TRUNCATION), and number_state, ladder_matrices, D's step and
D's factors and S's matrix run it before they allocate, so every entry
point that takes N refuses the same values; the caches keyed by a
caller's N are typed, so 16.0 or True never hits an entry that 16
filled.  D's matrix and column share one guard, |alpha|^2 > N, and S's
matrix refuses sinh^2 r > N: their columns' least mean photon number,
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
cached once, as its real matrix at (r, N) (_squeeze_matrix): phi enters
only through the rotation R(phi/2), of the whole matrix in squeeze_bch
(0.24 ms at N = 256) and of one column in the column, so `verify`'s four
presets, all at r = ln 2, form one S matrix and one D series between
them, and squeeze_bch keeps nothing of its own.  S's basis
(_squeeze_basis) depends on N alone and D's (_position_basis) keeps only
the rows D's block reads; both are their own caches, apart from the
oracle's, so the oracle never referees with the basis under test.  The
oracle's chain bases hold one entry per chain size, at most three: the
sweep asks for 257, 129 and 128 on every state.

D's factor series refuses a long double narrower than x87 extended
precision (np.finfo(np.longdouble).nmant < 63): the column's passes
cancel past what float64 holds.  D's and S's matrices need none.
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

        Truncating an operator to N + 1 levels makes this nonzero: the
        trailing columns lose weight past level N.  squeeze_bch at r = 0.3,
        N = 256 reads 0.59 (0.70 at r = 0.7), every column with norm at
        most 1 + 2.2e-16; so it measures the truncation, not S's rounding.
        """
        n = self.matrix.shape[0]
        return float(np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(n))))


# The largest N for which 64 (N+1)^2 bytes fit in 1 GiB.  A cold column
# build (displaced_squeezed_number) peaks at 35.2 (N+1)^2 bytes of arrays
# and takes 0.43 s (tracemalloc, one core, N = 1023; 40.2 and 0.29 s with
# S's long-double series product before it): D's one long-double series
# (_displacement_factors, cached, 16), S's float64 matrix (8) and S's chain
# bases (_squeeze_basis, cached, about 4) with their build's temporaries.
# At this N, S's build takes 10.1 s and peaks at 300 MB RSS (14.8 s and
# 414 MB before), and D's basis (_position_basis) takes 38 s, 32 s of it
# the SVD of its dense 4104 x 4103 block, and keeps 134.5 MB of rows; the
# process peaks at 415 MB RSS while it is built.
MAX_TRUNCATION = math.isqrt(2**30 // 64) - 1


def check_truncation(N) -> None:
    """Refuse, with a ValueError, a truncation N that is not an integer from 1 to MAX_TRUNCATION.

    The one check for N, run before anything of size N is allocated.  A
    bool is refused, as in check_quantum_number; a numpy integer passes.
    """
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or not 1 <= N <= MAX_TRUNCATION:
        raise ValueError(f"truncation N must be an integer from 1 to {MAX_TRUNCATION}, the largest whose column "
                         f"build fits in 1 GiB, got {N!r}")


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
    over the whole matrix and one dense complex eigh, whose vectors V take
    one Newton-Schulz step, V + V (I - V^dag V) / 2: eigh's V is
    orthonormal only to about n eps, and the step squares that distance.
    On a 44-level forest generator V^dag V was 5.6e-15 from I and the
    result's unitarity defect 1.1e-14; after the step, 2.2e-16 and
    5.6e-16.  At N = 256, with one BLAS thread and the chain bases
    cached, D costs about 0.9 ms and S about 0.7 ms (medians over the
    benchmark's sweep pool), against 1.1 to 1.2 and 0.74 to 0.80 ms with
    the whole eigenbasis of each chain.

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
    v += 0.5 * (v @ (np.eye(v.shape[0]) - v.conj().T @ v))
    return FockOperator((v * np.exp(-1j * w)) @ v.conj().T)


# The last unit chain of each size, as its off-diagonal, with the read-only
# eigenvalues it keeps (all x > 0 and those within _MIRROR_CUT of 0) and the
# even and odd rows of their weighted eigenvectors (_chain_basis); at most
# three sizes, the sweep's 257 (D) and 129 and 128 (S) at N = 256, which
# keep 145, 81 and 80 eigenpairs.
_CHAIN_BASES = OrderedDict()
_CHAIN_BASES_SIZES = 3
# The half-width of a +-x pair of a unit chain past which only x is kept (_chain_basis).  eigh's vectors
# solve a nearby chain that is not bipartite, and they mix x with -x by about its backward error over 2x.
# Over 60 random band generators of 8 to 200 levels the chain route's worst unitarity defect read 1.0e-14
# at 0.2 and 0.3, 1.8e-14 at 0.15 and 8.8e-10 at 0 (6.9e-15 with every pair kept whole).
_MIRROR_CUT = 0.2


def _chain_basis(unit: np.ndarray):
    """(x, V_even, V_odd) of the tridiagonal with zero diagonal and off-diagonal `unit`, from
    _CHAIN_BASES when the cached unit chain of its size is within 4 eps in the max row-sum norm.

    The chain is bipartite, so its spectrum is symmetric: (v_e, v_o) at x
    is (v_e, -v_o) at -x, and eigh's ascending x pair up as x_k and
    x_(size-1-k).  A pair whose half-width exceeds _MIRROR_CUT keeps only
    its upper vector, weighted sqrt(2) for its mirror.  Every other
    eigenpair is kept as it is, at weight 1 and its own x: below the cut
    eigh's vectors may mix x with -x, so the mirror of one of them is no
    eigenvector.  That covers the zero modes, one per odd-length path
    between absent edges, and the +-delta pairs a weak edge splits them
    into, which eigh returns mixed: folding those instead is 6e-8 off at an
    edge of 1e-9 and not unitary at 1e-30.
    """
    size = unit.size + 1
    cached = _CHAIN_BASES.get(size)
    if cached is not None:
        gap = np.abs(unit - cached[0])  # row j sums gap[j - 1] + gap[j]; the last row's gap[-1] is no larger
        if np.max(gap + np.append(0.0, gap[:-1]), initial=0.0) <= 4 * np.finfo(float).eps:
            return cached[1:]
    x, v = np.linalg.eigh(np.diag(unit, 1) + np.diag(unit, -1))
    far = np.count_nonzero(x[::-1][:size // 2] - x[:size // 2] > 2 * _MIRROR_CUT)  # the outermost pairs
    x, v = x[far:], v[:, far:]
    v[:, size - 2 * far:] *= math.sqrt(2.0)
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
    (V_o cos w) V_o^T and (V_e sin w) V_o^T of V's colour rows.  cos is
    even and sin odd, and V_o changes sign with w, so a +-w pair adds twice
    its w > 0 term to each product: the basis keeps that half of the
    spectrum, with the pairs near 0 whole, and each product's inner
    dimension is about half the chain's length instead of all of it.
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


def _exp_ladder_series(c: float, truncation: int, scale):
    """(X, sign): X = exp(c a_dag) @ diag(scale) for real c in extended precision and sign_m = (-1)^m,
    both read-only, so that exp(c a_dag) diag(scale^2) exp(-c a) = X diag(sign) X^T diag(sign).

    X^T is diag(scale) exp(c a), and diag(sign) a diag(sign) = -a: the
    signs turn X^T into the right factor and commute with the diagonals.
    The series terminates exactly in the truncated space (a_dag is
    nilpotent), so entries are generated diagonal-by-diagonal from the
    recurrence entry(k + j, k) = entry(k + j - 1, k) * c / j * sqrt(k + j).
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
    out.flat[:: n1 + 1] = diag
    roots = np.sqrt(np.arange(n1, dtype=np.longdouble))
    for j in range(1, n1):
        diag = diag[: n1 - j] * (np.longdouble(c) / j) * roots[j:]
        out.flat[j * n1 :: n1 + 1] = diag  # the diagonal entry(k + j, k)
    return _read_only(out), _read_only(np.resize([1.0, -1.0], n1))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False  # cached and shared between callers
    return array


# The gate phase enters only through R(theta) = diag(e^{i m theta}):
# D(|alpha| e^{i theta}) = R(theta) D(|alpha|) R(theta)^dag and
# S(r e^{i phi}) = R(phi/2) S(r) R(phi/2)^dag.  So D's factors and the
# chain blocks below are real, and every product is a real matrix product.
# The chain bases make D's and S's matrices; the column rotates S's column
# n and applies D's factors, which nothing else reads.


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
    return (*_exp_ladder_series(b, truncation, np.exp(np.longdouble(-b**2 / 4.0))), halvings)


# A column of the basis recurrence is scaled down by 2^-400 once an entry
# passes 2^400, so its sum of squares (at most 8207 terms) stays finite.
_RESCALE = 2.0**400


def _node_recurrence(x: np.ndarray, edges: np.ndarray, keep: int):
    """(rows, norm_sq, last, beyond) of e_m v_{m+1} = x v_m - e_{m-1} v_{m-1} from v_0 = 1, v_{-1} = 0, for
    each node in x, on a chain of levels = edges.size levels with off-diagonal e_0 .. e_{levels-2} and e_{levels-1}
    the edge past its end: rows v_0 .. v_{keep-1}, norm_sq the sum of v_m^2 over m < levels, last v_{levels-1}
    and beyond v_levels, every column scaled alike."""
    roots = np.concatenate(([0.0], edges))  # roots[m] = e_{m-1}
    rows = np.empty((keep, x.size))
    prev, row, norm_sq = np.zeros(x.size), np.ones(x.size), np.zeros(x.size)
    for m in range(edges.size):
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


def _chain_rows(edges: np.ndarray, keep: int, orthonormal: bool = False):
    """Rows 0 .. keep - 1 of the eigenvectors of the chain J with zero diagonal and off-diagonal
    edges[:-1], as read-only (x, even, odd); edges[-1] is the edge past the chain's end.

    J links even levels only to odd ones, so its eigenvalues are the pairs
    +-x_k, where x_k are the singular values of its even-to-odd bidiagonal
    block, and 0 when the chain has an odd number of levels (Golub & Welsch,
    Math. Comp. 23 (1969) 221).  The eigenvector at a node x is the
    recurrence vector v of _node_recurrence normalized over all levels; it
    meets J v = x v in every row but the last, which is off by
    edges[-1] v_levels.  So each node is first moved to its vector's
    Rayleigh quotient, x - edges[-1] v_levels v_{levels-1} / |v|^2.

    `even` holds levels 0, 2, .. < keep and `odd` levels 1, 3, .., each
    level m signed (-1)^(m // 2) and each +-x_k pair weighted sqrt(2); x
    ends with the zero node, if any, whose odd rows are exactly 0.  Entries
    below 2^-511 are set to 0, so no product of two entries is subnormal:
    those products send BLAS to its slow path (see _position_basis).

    Each colour's rows are orthonormal in exact arithmetic (they are rows of
    an orthogonal matrix, folded).  With `orthonormal`, a pair's weight is
    divided into |v|^2 before its one square root, since sqrt(2)^2 is
    2 (1 + 1.4e-16) in float64, and each colour R then takes one
    Newton-Schulz step, R + (I - R R^T) R / 2, which squares its distance
    from orthonormal rows.  D's basis does neither, so its bits stay.
    """
    levels = edges.size
    pairs = levels // 2
    block = np.zeros(((levels + 1) // 2, pairs))
    block.flat[:: pairs + 1] = edges[0 : levels - 1 : 2]  # J[2k, 2k + 1]
    block.flat[pairs :: pairs + 1] = edges[1 : levels - 1 : 2]  # J[2k + 2, 2k + 1]
    x = np.append(np.linalg.svd(block, compute_uv=False), [0.0] * (levels % 2))  # an odd chain's zero node
    _, norm_sq, last, beyond = _node_recurrence(x, edges, 0)
    x -= edges[-1] * beyond * last / norm_sq
    rows, norm_sq, _, _ = _node_recurrence(x, edges, keep)
    if orthonormal:
        norm_sq[:pairs] /= 2.0
    rows /= np.sqrt(norm_sq)
    if not orthonormal:
        rows[:, :pairs] *= math.sqrt(2.0)
    rows *= np.resize([1.0, 1.0, -1.0, -1.0], keep)[:, None]
    colours = [_flushed(rows[p::2].copy()) for p in (0, 1)]
    if orthonormal:
        colours = [_flushed(r + 0.5 * ((np.eye(r.shape[0]) - r @ r.T) @ r)) for r in colours]
    return _read_only(x), _read_only(colours[0]), _read_only(colours[1])


def _flushed(rows: np.ndarray) -> np.ndarray:
    """rows with entries below 2^-511 set to 0, so that no product of two entries is subnormal."""
    rows[np.abs(rows) < math.sqrt(np.finfo(float).tiny)] = 0.0
    return rows


@lru_cache(maxsize=1, typed=True)
def _position_basis(truncation: int):
    """Rows 0 .. N of the eigenvectors of J_1 = a + a_dag on 2N + 17 levels, as read-only (x, even, odd).

    J_1 is sqrt(2) x truncated: tridiagonal, off-diagonal sqrt(m + 1), zero
    diagonal, so _chain_rows applies, and its nodes are sqrt(2) times the
    Gauss-Hermite nodes.

    Measured at b <= 1: D(b)'s block is within 7.2e-16 of the factor
    product at N <= 32, and within 1.9e-15 of the exact sum at N = 256,
    where LAPACK's singular vectors give 7.6e-15 at both.  To come within
    2e-15 of a basis twice as large, the block needs 12 levels past N at
    N = 1, 16 at N = 16, 19 at N = 32, 27 at N = 128 and 34 at N = 256;
    the N + 16 past N here cover every N.

    Only rows 0 .. N are kept: (N + 1) (N + 9) floats, 0.55 MB at N = 256.
    Without the flush of entries below 2^-511, D's block took 0.92, 13.5
    and about 100 ms at N = 256, 512 and 1024, against 0.63, 4.1 and 29 ms
    with it (one BLAS thread).  The block kept its bits at every b of the
    sweep pool at N = 256, and its values at the b sampled at N = 512 and
    1024, where a few of its exact zeros changed sign.
    """
    return _chain_rows(np.sqrt(np.arange(1.0, 2 * truncation + 18)), truncation + 1)


@lru_cache(maxsize=1, typed=True)
def _squeeze_basis(truncation: int):
    """(even chain, odd chain): orthonormal _chain_rows of S's parity chains on levels 0 .. 2N + 2, rows <= N.

    S(r) = exp(r K) with K = (a_dag^2 - a^2) / 2 real, so each parity p is
    one chain of levels p, p + 2, .., whose edge from level m to m + 2 is
    (1/2) sqrt((m + 1) (m + 2)); in chain positions it has D's form, with
    J_1 replaced by that chain.  The basis is its own cache, not the
    oracle's: the oracle would referee itself, and its cache is keyed by
    chain size, where S's even chain on levels 0 .. 512 has 257 levels, as
    D's oracle chain at N = 256 does.  The orthonormal steps are what S's
    column norms need: without them criterion 4's uncertainty product reads
    9.1e-13 relative (its test's bound is 5e-13), with them 1.24e-13.
    """
    edges = 0.5 * np.sqrt(np.arange(1.0, 2 * truncation + 4) * np.arange(2.0, 2 * truncation + 5))  # m = 0 .. 2N + 2
    return tuple(_chain_rows(edges[p::2], (truncation - p) // 2 + 1, orthonormal=True) for p in (0, 1))


def _parity_blocks(basis, t: float):
    """(ee, oo, eo): the parity blocks of exp(t K) for the real chain generator K = P^dag (i J) P,
    P = diag(i^m), from J's basis (x, even, odd) of _chain_rows.

    Entry (j, k) of exp(t K) is i^(k - j) (cos(t J) + i sin(t J))[j, k]:
    cos(t J) links levels of one parity and sin(t J) levels of opposite
    parity.  So the block is three half-size products: (even, even),
    (odd, odd) and (even, odd); the (odd, even) block is -eo^T.
    """
    x, even, odd = basis
    cos, sin = np.cos(t * x), np.sin(t * x)
    return (even * cos) @ even.T, (odd * cos) @ odd.T, (even * -sin) @ odd.T


def _assembled(ee: np.ndarray, oo: np.ndarray, eo: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out, real or complex, with the parity blocks ee, oo, eo and -eo^T written into its real part."""
    real = out.real
    real[0::2, 0::2] = ee
    real[1::2, 1::2] = oo
    real[0::2, 1::2] = eo
    np.negative(eo.T, out=real[1::2, 0::2])
    return out


@lru_cache(maxsize=1, typed=True)
def _squeeze_matrix(r: float, truncation: int) -> np.ndarray:
    """S(r) as a real read-only float64 matrix: cached for `verify`, whose four presets all ask for r = ln 2.

    Each parity sublattice is exp(r K) of one chain, built from _squeeze_basis by
    _parity_blocks; each same-colour block keeps its upper triangle and mirrors it, so
    S[k, i] = (-1)^((i - k) / 2) S[i, k] holds exactly.  r = 0 gives the exact identity.
    """
    check_truncation(truncation)
    _, sinh_r = cosh_sinh(r, r)
    guard("sinh^2 r", sinh_r * sinh_r, truncation, f"at r = {r:g} every column of S(z) has mean photon number "
          "at least sinh^2 r, so none fits in the N + 1 levels")
    if r == 0.0:
        return _read_only(np.eye(truncation + 1))
    mat = np.zeros((truncation + 1, truncation + 1))
    for p, basis in enumerate(_squeeze_basis(truncation)):
        ee, oo, eo = _parity_blocks(basis, r)
        _assembled(*(np.triu(c) + np.triu(c, 1).T for c in (ee, oo)), eo, mat[p::2, p::2])
    return _read_only(mat)


def _phases(theta, size: int) -> np.ndarray:
    """Diagonal of R(theta) = diag(e^{i m theta}), m < size, in the precision of theta: complex128
    for the float angles of the builders and the column, long double for the series' angles."""
    return np.exp(1j * theta * np.arange(size))


def _rotated(out: np.ndarray, theta) -> np.ndarray:
    """R(theta) out R(theta)^dag, in place on a complex128 out whose imaginary part is 0, marked read-only.

    The float theta gives complex128 phases: a rotation sums nothing.  Both
    phase vectors multiply into out, so no complex temporary is formed, with
    the bits of phase[:, None] * out.real * phase.conj(): 0.24 ms at N = 256.
    """
    phase = _phases(theta, out.shape[0])
    out *= phase[:, None]
    out *= phase.conj()
    return _read_only(out)


@lru_cache(maxsize=1, typed=True)
def displacement_bch(alpha: complex, truncation: int) -> FockOperator:
    """Displacement operator D(alpha) on the truncated basis, in float64.

    D(b)'s leading N + 1 block at b = |alpha| / 2^h <= 1 comes from the
    cached eigenbasis of the generator (_position_basis) as its parity
    blocks ee, oo and eo (the fourth is -eo^T), is squared h times
    (D(b)^2 = D(2b)) and rotated by the phase of alpha.  Each squaring
    forms the three blocks alone, ee ee^T - eo eo^T, oo oo^T - eo^T eo and
    ee eo + eo oo, about half the flops of the full product; the blocks
    are assembled once, into the complex result the rotation fills.  That is
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
    ee, oo, eo = _parity_blocks(_position_basis(truncation), b)
    for _ in range(halvings):  # each X @ X.T and X.T @ X runs as one symmetric rank-k update
        ee, oo, eo = ee @ ee.T - eo @ eo.T, oo @ oo.T - eo.T @ eo, ee @ eo + eo @ oo
    out = np.zeros((truncation + 1, truncation + 1), dtype=complex)
    return FockOperator(_rotated(_assembled(ee, oo, eo, out), cmath.phase(alpha)))


def squeeze_bch(sq: SqueezeParam, truncation: int) -> FockOperator:
    """Squeeze operator S(z) = exp((z a_dag^2 - conj(z) a^2) / 2) on the truncated basis, in float64.

    S(r) is built at the real r, as exp(r K) of its two parity chains on
    levels <= 2N + 2 (_squeeze_matrix, from the chain bases of
    _squeeze_basis), cached at (r, N) alone and rotated by phi/2 anew on
    each call into a read-only matrix; it refuses sinh^2 r > N.
    displaced_squeezed_number reads the same matrix and rotates only its
    column n, which has the bits of this matrix's column n.  The name stays
    from the normal-ordered factorization exp(d a_dag^2) (cosh r)^{-(a_dag
    a + 1/2)} exp(-conj(d) a^2), d = e^{i phi} tanh(r) / 2, whose series
    squeezed_number_coeffs sums as the referee.

    Every column has norm at most 1 (1 + 2.2e-16 at N = 256, r = 0.3 to
    1); the weight a column's state puts past level N is its leakage, and
    unitarity_defect() reads that truncation.  Columns whose tail past N is
    below 1e-8 are within 1e-14 of the series (4.6e-16 at r <= 2,
    N = 256); the others are off by less than their tail.  The 64-block's
    1.75e-6 gap to the N = 256 eigh oracle at r = 1.175 is the oracle's
    truncation: the N = 512 oracle is within 5.9e-15 of it.
    """
    return FockOperator(_rotated(_squeeze_matrix(sq.r, truncation).astype(complex), sq.phi / 2))


@lru_cache(maxsize=1, typed=True)
def displaced_squeezed_number(n: int, alpha: complex, sq: SqueezeParam, truncation: int) -> FockState:
    """D(alpha) S(z)|n>: column n of S's product, rotated by phi/2, with D's
    factor form applied to it 2^h times, never multiplied into a matrix.

    alpha's finiteness check and D's guard run first (_displacement_factors),
    then S's (_squeeze_matrix), then n's checks, before n indexes the column;
    the column's mean photon number |alpha|^2 + (n + 1/2) cosh 2r - 1/2
    exceeds N under either guard.  S is the real matrix squeeze_bch
    rotates, formed once per (r, N) by _squeeze_matrix's cache; only its
    column n is rotated, with the bits of squeeze_bch's column n.  D is
    2^h < 2 sqrt(N) pairs of matrix-vector products,
    O(2^h N^2) instead of O(h N^3), each the right factor diag(sign) left^T
    diag(sign) then left, in long double: a sign flip is exact, and in
    float64 the factors are 4.5e-9 off at the sweep pool's edge.  Cached:
    the coefficients are read-only.

    The exact truncated column has norm <= 1, so ||c||_2 - 1 <= ||c - c_exact||_2
    and a column whose norm exceeds 1 by more than 1e-8 raises GuardViolation:
    at n = 0, alpha = 30, z = 0, N = 1024 D's passes take it to 8.6e6.  S's
    columns stay within 1 + 1e-15: n = 500, alpha = 6+8i, r = 0.5 at that N
    does not fit, and reads leakage 0.466.
    """
    alpha = complex(*_finite("displacement alpha", alpha.real, alpha.imag))
    left, sign, halvings = _displacement_factors(abs(alpha), truncation)
    s_matrix = _squeeze_matrix(sq.r, truncation)
    number_state(n, truncation)  # n's checks, before n indexes a column
    s_phase, d_phase = _phases(sq.phi / 2, truncation + 1), _phases(cmath.phase(alpha), truncation + 1)
    column = (s_phase * s_matrix[:, n]) * s_phase[n].conjugate()  # column n of R(phi/2) S(r) R(phi/2)^dag
    # (re, im) as two real columns, so the real factors apply to both at once
    pair = (column.astype(np.clongdouble) * d_phase.conj()).view(np.longdouble).reshape(-1, 2)
    sign = sign[:, None]
    for _ in range(2**halvings):
        pair = np.dot(left, sign * np.dot(left.T, sign * pair))
    coeffs = (pair.view(np.clongdouble)[:, 0] * d_phase).astype(complex)
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
