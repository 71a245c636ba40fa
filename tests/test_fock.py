"""Truncated Fock-space operator tests.

The matrix exponential serves as the oracle; the normal-ordered product
constructions and the coefficient expansions are held against it.
"""

import cmath
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import OrderedDict
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import squeezelab
from squeezelab import fock
from squeezelab import (
    FockOperator,
    FockState,
    GuardViolation,
    displaced_number_coeffs,
    displacement_bch,
    figure_spec,
    ladder_matrices,
    make_squeeze,
    matrix_exponential,
    number_state,
    oscillator_eigenfunctions,
    psi_squeezed_number,
    squeeze_bch,
    squeezed_number_coeffs,
    synthesize,
    time_evolve,
)
from squeezelab.states import StateSpec
from squeezelab.parameters import SqueezeParam, make_displacement

LN2 = math.log(2.0)


def displacement_generator(alpha, truncation):
    a, adag = ladder_matrices(truncation)
    return alpha * adag.matrix - np.conjugate(alpha) * a.matrix


def squeeze_generator(sq, truncation):
    a, adag = ladder_matrices(truncation)
    z = sq.r * np.exp(1j * sq.phi)
    return 0.5 * z * (adag.matrix @ adag.matrix) - 0.5 * np.conjugate(z) * (a.matrix @ a.matrix)


def displacement_exact(alpha, truncation):
    return matrix_exponential(FockOperator(displacement_generator(alpha, truncation)))


def squeeze_exact(sq, truncation):
    return matrix_exponential(FockOperator(squeeze_generator(sq, truncation)))


def dense_exponential(gen):
    """exp(G) from one complex eigh of the whole matrix: the reference for the chain route."""
    w, v = np.linalg.eigh(0.5j * (gen - gen.conj().T))
    return (v * np.exp(-1j * w)) @ v.conj().T


def random_tree_generator(rng, size):
    """Anti-Hermitian generator whose graph is a random spanning tree on `size` levels, with complex weights."""
    gen = np.zeros((size, size), dtype=complex)
    for k in range(1, size):
        i = int(rng.integers(k))
        weight = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        gen[k, i] = weight
        gen[i, k] = -np.conj(weight)
    return gen


def band_generator(rng, size, step):
    """Anti-Hermitian generator with complex weights on the off-diagonals +-step and nowhere else."""
    weights = rng.uniform(0.1, 3, size - step) * np.exp(1j * rng.uniform(-np.pi, np.pi, size - step))
    gen = np.diag(weights, -step)
    return gen - gen.conj().T


def absent_edge_generator(truncation=16, weight=0.0):
    """D's generator with the edge between levels 8 and 9 scaled by `weight`, by default removed: paths of 9 and
    truncation - 8 levels."""
    gen = displacement_generator(2.0 - 1.0j, truncation)
    gen[9, 8] *= weight
    gen[8, 9] *= weight
    return gen


# (build, step) of generators that take the chain route: bands of steps 1 to 5, D with an absent edge (paths of
# 9 + 8 levels, and of 9 + 7, both odd), D with that edge scaled by 1e-9 instead, which splits the two zero
# modes of 9 + 7 into a pair near 0, and D and S at N = 256
CHAIN_GENERATORS = [
    *((lambda step=step: band_generator(np.random.default_rng(40 + step), 41, step), step) for step in range(1, 6)),
    (absent_edge_generator, 1),
    (lambda: absent_edge_generator(15), 1),
    (lambda: absent_edge_generator(15, 1e-9), 1),
    (lambda: displacement_generator(4.0 + 4.0j, 256), 1),
    (lambda: squeeze_generator(make_squeeze(1.2, 1.0), 256), 2),
]
CHAIN_IDS = [*(f"band{step}" for step in range(1, 6)), "absent_edge", "two_odd_paths", "weak_edge", "D(4+4i)",
             "S(1.2, phi=1)"]


def with_hermitian_band_noise(gen, step, size):
    """gen plus a Hermitian matrix with entries of modulus `size` where gen's off-diagonals +-step are nonzero."""
    lower = np.diagonal(gen, -step)
    noise = np.diag(size * np.exp(1j * np.random.default_rng(step).uniform(-np.pi, np.pi, lower.size)) * (lower != 0),
                    -step)
    return gen + noise + noise.conj().T


@st.composite
def sparse_generators(draw):
    """(kind, G): an anti-Hermitian G whose off-diagonal graph is of the drawn kind (graph_generator)."""
    kind = draw(st.sampled_from(["path", "tree", "forest", "diagonal", "cycle"]))
    size = draw(st.integers(3 if kind == "cycle" else 1, 60))
    return kind, graph_generator(kind, size, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def graph_generator(kind, size, rng):
    """An anti-Hermitian G on `size` levels whose off-diagonal graph is a path, tree, forest, cycle or
    nothing (diagonal), on shuffled labels.

    Edge weights are complex with |weight| in [0.1, 3], so a cycle carries
    nonzero flux: no diagonal phase change makes its edges real.
    """
    if kind == "path":
        edges = [(k - 1, k) for k in range(1, size)]
    elif kind == "diagonal":
        edges = []
    else:
        edges = [(int(rng.integers(k)), k) for k in range(1, size)]
        if kind == "forest":
            edges = [e for e in edges if rng.random() < 0.6]
        if kind == "cycle":
            edges += [(0, 1), (1, 2), (0, 2)]  # a triangle on top of the tree
    gen = np.diag(1j * rng.uniform(-3, 3, size) * (rng.random(size) < 0.7))
    label = rng.permutation(size)
    for i, j in set(edges):
        weight = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        gen[label[j], label[i]] = weight
        gen[label[i], label[j]] = -np.conj(weight)
    return gen


@pytest.fixture
def routes(monkeypatch):
    """The steps of _chain_exponential's calls, the sizes of eigh's and the guard's (value, limit) pairs."""
    calls = {"chain": [], "eigh": [], "guard": []}
    chain_exponential, eigh, guard = fock._chain_exponential, np.linalg.eigh, fock.guard

    def chained(m, step):
        calls["chain"].append(step)
        return chain_exponential(m, step)

    def decomposed(block):
        calls["eigh"].append(block.shape[0])
        return eigh(block)

    def guarded(what, value, limit, cause=""):
        calls["guard"].append((value, limit))
        return guard(what, value, limit, cause)

    monkeypatch.setattr(fock, "_chain_exponential", chained)
    monkeypatch.setattr(np.linalg, "eigh", decomposed)
    monkeypatch.setattr(fock, "guard", guarded)
    return calls


class TestLadder:
    def test_two_level(self):
        a, adag = ladder_matrices(1)
        assert np.array_equal(a.matrix, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(adag.matrix, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_number_operator_diagonal(self):
        a, adag = ladder_matrices(12)
        n_op = adag.matrix @ a.matrix
        assert np.allclose(n_op, np.diag(np.arange(13.0)))

    def test_commutator_truncation_defect(self):
        N = 16
        a, adag = ladder_matrices(N)
        comm = a.matrix @ adag.matrix - adag.matrix @ a.matrix
        assert np.allclose(comm[:N, :N], np.eye(N))
        assert comm[N, N] == pytest.approx(-N)  # defect only at the edge

    def test_requires_positive_truncation(self):
        with pytest.raises(ValueError):
            ladder_matrices(0)


class TestFockStateType:
    def test_norm_and_leakage(self):
        state = FockState(np.array([0.6, 0.8j, 0.0]))
        assert state.norm_sq == pytest.approx(1.0, rel=1e-15)
        assert state.leakage == pytest.approx(0.0, abs=1e-15)
        assert state.truncation == 2

    def test_number_state(self):
        state = number_state(3, 8)
        assert state.coeffs[3] == 1.0
        assert state.norm_sq == 1.0
        with pytest.raises(ValueError):
            number_state(9, 8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            FockState(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            FockOperator(np.zeros(3))


class TestMatrixExponential:
    def test_exp_zero_is_identity(self):
        # ||G + G^dag||_max = 0 against 1e-12 ||G||_max = 0: the skewness guard admits it
        out = matrix_exponential(FockOperator(np.zeros((5, 5))))
        assert np.array_equal(out.matrix, np.eye(5))

    def test_exp_diagonal_phases(self):
        theta = np.array([0.0, 0.3, -1.2, 2.5])
        out = matrix_exponential(FockOperator(np.diag(1j * theta)))
        assert np.allclose(out.matrix, np.diag(np.exp(1j * theta)), atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.5j, 2.0, -1.0 + 1.0j])
    def test_coherent_state_coefficients(self, alpha):
        N = 64
        column = displacement_exact(alpha, N).matrix[:, 0]
        k = np.arange(N + 1)
        log_mag = k * np.log(abs(alpha)) - 0.5 * np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, N + 1))]))
        expected = np.exp(-abs(alpha) ** 2 / 2.0) * np.exp(log_mag) * np.exp(1j * k * np.angle(alpha))
        assert np.max(np.abs(column - expected)) < 1e-10

    def test_non_finite_rejected(self):
        bad = np.zeros((3, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            matrix_exponential(FockOperator(bad))

    @pytest.mark.parametrize("build", [
        lambda N: displacement_generator(4.0 + 4.0j, N),
        lambda N: squeeze_generator(make_squeeze(LN2, 0.0), N),
        lambda N: squeeze_generator(make_squeeze(1.2, 1.0), N),
        lambda N: squeeze_generator(make_squeeze(3.0, 0.0), N),
    ], ids=["D(4+4i)", "S(ln2)", "S(1.2, phi=1)", "S(3)"])
    def test_matches_scipy_expm(self, build):
        expm = pytest.importorskip("scipy.linalg").expm

        gen = build(256)
        out = matrix_exponential(FockOperator(gen))
        assert np.max(np.abs(out.matrix - expm(gen))) <= 1e-13
        assert out.unitarity_defect() <= 1e-14

    @given(drawn=sparse_generators())
    @settings(max_examples=150, deadline=None)
    def test_sparse_generators_match_dense_routes(self, drawn):
        expm = pytest.importorskip("scipy.linalg").expm

        _, gen = drawn
        out = matrix_exponential(FockOperator(gen))
        assert np.max(np.abs(out.matrix - dense_exponential(gen))) <= 1e-13
        assert np.max(np.abs(out.matrix - expm(gen))) <= 1e-13
        assert out.unitarity_defect() <= 1e-14

    def test_dense_route_vectors_are_made_orthonormal(self):
        # eigh's vectors of this 44-level forest are about 5e-15 from orthonormal, and the
        # result read a unitarity defect of 1.02e-14 before its Newton-Schulz step (4.4e-16 after)
        out = matrix_exponential(FockOperator(graph_generator("forest", 44, np.random.default_rng(1001))))
        assert out.unitarity_defect() <= 5e-15

    @pytest.mark.parametrize("N", [1, 2, 16, 256, 512])
    @pytest.mark.parametrize("build", [
        lambda N: displacement_generator(0.5, N),
        lambda N: displacement_generator(4.0 + 4.0j, N),
        lambda N: displacement_generator(cmath.rect(5.66, 0.4), N),
        lambda N: squeeze_generator(make_squeeze(LN2, 0.0), N),
        lambda N: squeeze_generator(make_squeeze(1.2, 1.0), N),
        lambda N: squeeze_generator(make_squeeze(3.0, 0.0), N),
    ], ids=["D(0.5)", "D(4+4i)", "D(5.66e^0.4i)", "S(ln2)", "S(1.2, phi=1)", "S(3)"])
    def test_operator_generators_match_dense_route(self, build, N):
        # eigh's rounding grows with ||G||: at S(3), N = 512 (||G||_max = 767) the dense
        # route itself is 2.0e-13 from scipy's expm
        gen = build(N)
        out = matrix_exponential(FockOperator(gen))
        bound = 1e-13 * max(1.0, np.max(np.abs(gen)) / 256)
        assert np.max(np.abs(out.matrix - dense_exponential(gen))) <= bound
        assert out.unitarity_defect() <= 1e-14

    @pytest.mark.parametrize("gen", [
        np.diag([2000.0, 0.0, 0.0]),
        1j * displacement_generator(1.0 + 0.5j, 16),
        displacement_generator(4.0 + 4.0j, 256) + 1e-9 * np.eye(257),
        squeeze_generator(make_squeeze(LN2, 0.0), 256) + 1e-9 * np.eye(257),
    ], ids=["real_diagonal", "hermitian", "D_plus_1e-9_I", "S_plus_1e-9_I"])
    def test_rejects_generator_that_is_not_skew(self, gen):
        with pytest.raises(GuardViolation, match="not anti-Hermitian"):
            matrix_exponential(FockOperator(gen))

    @pytest.mark.parametrize("noise", [0.0, 1e-14])
    @pytest.mark.parametrize("build, step", CHAIN_GENERATORS, ids=CHAIN_IDS)
    def test_chain_guard_reads_the_two_bands(self, routes, build, step, noise):
        # every entry off the bands is exactly 0 in G and in G + G^dag, so the band maxima are the same floats
        gen = with_hermitian_band_noise(build(), step, noise)
        matrix_exponential(FockOperator(gen))
        assert routes["chain"] == [step]
        assert routes["guard"] == [(np.max(np.abs(gen + gen.conj().T)), 1e-12 * np.max(np.abs(gen)))]
        assert (routes["guard"][0][0] > 0) == (noise > 0)

    @pytest.mark.parametrize("build, step", CHAIN_GENERATORS, ids=CHAIN_IDS)
    def test_chain_guard_refuses_hermitian_band_noise(self, build, step):
        gen = with_hermitian_band_noise(build(), step, 1e-9)
        value, limit = np.max(np.abs(gen + gen.conj().T)), 1e-12 * np.max(np.abs(gen))
        with pytest.raises(GuardViolation) as refused:
            matrix_exponential(FockOperator(gen))
        assert str(refused.value) == (f"||G + G^dag||_max = {value:.4g} exceeds {limit:g}: "
                                      "the generator is not anti-Hermitian to 1e-12 ||G||_max")

    @pytest.mark.parametrize("where", ["diagonal", "corner", "lower band", "upper band"])
    @pytest.mark.parametrize("build, step", CHAIN_GENERATORS, ids=CHAIN_IDS)
    def test_nan_is_refused_on_either_route(self, routes, build, step, where):
        gen = build()
        gen[{"diagonal": (1, 1), "corner": (-1, 0), "lower band": (step, 0), "upper band": (0, step)}[where]] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            matrix_exponential(FockOperator(gen))
        assert routes["guard"] == []

    @pytest.mark.parametrize("extra", ["imaginary diagonal entry", "hermitian pair"])
    @pytest.mark.parametrize("build, step", CHAIN_GENERATORS, ids=CHAIN_IDS)
    def test_entry_off_the_bands_takes_the_dense_route(self, routes, monkeypatch, build, step, extra):
        monkeypatch.setattr(fock, "_CHAIN_BASES", OrderedDict())
        gen = build()
        matrix_exponential(FockOperator(gen))  # fills the chain cache
        before = dict(fock._CHAIN_BASES)
        del routes["chain"][:], routes["eigh"][:]
        if extra == "hermitian pair":  # 2e-14 of asymmetry, which the guard admits
            gen[0, step + 1] = gen[step + 1, 0] = 1e-14
        else:
            gen[1, 1] = 0.25j
        out = matrix_exponential(FockOperator(gen))
        assert routes["chain"] == []
        assert routes["eigh"] == [gen.shape[0]]
        assert list(fock._CHAIN_BASES) == list(before)
        assert all(fock._CHAIN_BASES[size] is entry for size, entry in before.items())
        assert np.max(np.abs(out.matrix - dense_exponential(gen))) <= 1e-13

    @pytest.mark.parametrize("step", [1, 2, 3, 4, 5])
    def test_upper_band_alone_is_refused(self, routes, step):
        gen = np.triu(band_generator(np.random.default_rng(step), 41, step))
        with pytest.raises(GuardViolation, match="not anti-Hermitian"):
            matrix_exponential(FockOperator(gen))
        assert routes["guard"] == [(np.max(np.abs(gen)), 1e-12 * np.max(np.abs(gen)))]

    @pytest.mark.parametrize("build", [
        lambda: displacement_generator(4.0 + 4.0j, 256),
        lambda: squeeze_generator(make_squeeze(1.2, 1.0), 256),
    ], ids=["D(4+4i)", "S(1.2, phi=1)"])
    def test_chain_route_memory_peak(self, build):
        # with the chain bases cached, one call peaks at 1.35 (D) and 1.24 (S) times the result's bytes;
        # the full-matrix guard it replaces peaked at 2.5 times
        op = FockOperator(build())
        matrix_exponential(op)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = matrix_exponential(op)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * out.matrix.nbytes

    def test_package_never_loads_scipy(self):
        # scipy costs ~0.5 s per process and is a test-only dependency
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import squeezelab\n"
            "theta = np.array([0.0, 0.3, -1.2])\n"
            "out = squeezelab.matrix_exponential(squeezelab.FockOperator(np.diag(1j * theta)))\n"
            "assert np.allclose(out.matrix, np.diag(np.exp(1j * theta)), atol=1e-14)\n"
            "squeezelab.displacement_bch(2.0 + 1.0j, 64)\n"
            "squeezelab.squeeze_bch(squeezelab.make_squeeze(0.5, 0.3), 64)\n"
            "assert squeezelab.compare_formalisms(squeezelab.figure_spec(1), t=0.0, truncation=128, tolerance=1.0).passed\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(squeezelab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_unitarity_defect_reported(self):
        op = displacement_exact(1.0, 32)
        assert op.unitarity_defect() < 1e-12
        raw = FockOperator(np.eye(3) * 2.0)
        assert raw.unitarity_defect() == pytest.approx(3.0)


def three_cycle_generator():
    """Anti-Hermitian 3 x 3 generator on a triangle with complex weights: a cycle no phase change makes real."""
    gen = np.zeros((3, 3), dtype=complex)
    for (i, j), weight in zip([(1, 0), (2, 1), (2, 0)], [1.0 + 0.5j, -0.3 + 2.0j, 0.7j]):
        gen[i, j] = weight
        gen[j, i] = -np.conj(weight)
    return gen


class TestChainBasisReuse:
    """matrix_exponential takes a D or S generator one chain at a time,
    reuses the eigenpairs of the last unit chain of each size when the new
    unit chain is within 4 eps of it, decomposes any other chain afresh,
    keeps at most three sizes, and sends every other generator to one dense
    eigh that leaves the chain cache alone."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(fock, "_CHAIN_BASES", OrderedDict())

    def test_alternating_generators_match_dense_route(self, routes):
        N, rng = 256, np.random.default_rng(11)
        nudged = displacement_generator(1.0 - 2.0j, N)
        nudged[100, 99] *= 1 + 1e-12
        nudged[99, 100] *= 1 + 1e-12
        sequence = [  # (generator, the sizes that need a fresh eigh, whether it takes the dense route)
            (displacement_generator(3.0 - 1.0j, N), [257], False),
            (squeeze_generator(make_squeeze(0.9, 0.4), N), [129, 128], False),
            (displacement_generator(cmath.rect(5.9, -2.0), N), [], False),
            (squeeze_generator(make_squeeze(0.05, -3.0), N), [], False),
            (random_tree_generator(rng, N + 1), [257], True),
            (three_cycle_generator(), [3], True),
            (displacement_generator(0.3j, N), [], False),
            (nudged, [257], False),  # one edge 1e-12 off D's unit chain: past the 4 eps reuse rule
            (displacement_generator(2.0, N), [257], False),
            (squeeze_generator(make_squeeze(1.18, 1.0), N), [], False),
            (random_tree_generator(rng, N + 1), [257], True),
            (displacement_generator(-2.5, N), [], False),
            (displacement_generator(1e-3, N), [], False),
        ]
        for step, (gen, fresh, dense) in enumerate(sequence):
            del routes["eigh"][:]
            before = dict(fock._CHAIN_BASES)
            out = matrix_exponential(FockOperator(gen))
            assert routes["eigh"] == fresh
            if dense:
                assert list(fock._CHAIN_BASES) == list(before)
                assert all(fock._CHAIN_BASES[size] is entry for size, entry in before.items())
            bound = 1e-13 * max(1.0, np.max(np.abs(gen)) / 256)
            assert np.max(np.abs(out.matrix - dense_exponential(gen))) <= bound
            assert out.unitarity_defect() <= 1e-14
            assert sorted(fock._CHAIN_BASES) == ([257] if step == 0 else [128, 129, 257])

    @pytest.mark.parametrize("size, step", [(2, 1), (7, 3), (9, 8), (40, 2), (61, 5)])
    def test_band_generators_match_dense_route(self, size, step):
        gen = band_generator(np.random.default_rng(size), size, step)
        out = matrix_exponential(FockOperator(gen))
        assert np.max(np.abs(out.matrix - dense_exponential(gen))) <= 1e-13
        assert out.unitarity_defect() <= 1e-14
        assert sorted(fock._CHAIN_BASES) == sorted({len(range(c, size, step)) for c in range(step)})

    def test_absent_edge_splits_the_chain(self):
        gen = absent_edge_generator()
        out = matrix_exponential(FockOperator(gen))
        assert np.max(np.abs(out.matrix - dense_exponential(gen))) <= 1e-13
        assert np.max(np.abs(out.matrix[:9, 9:])) == 0.0

    @pytest.mark.parametrize("build, step", CHAIN_GENERATORS, ids=CHAIN_IDS)
    def test_chain_generators_match_dense_route(self, routes, build, step):
        gen = build()
        out = matrix_exponential(FockOperator(gen))
        assert routes["chain"] == [step]
        assert np.max(np.abs(out.matrix - dense_exponential(gen))) <= 1e-13
        assert out.unitarity_defect() <= 1e-14

    @pytest.mark.parametrize("truncation, weight, zeros", [(16, 0.0, 1), (15, 0.0, 2), (15, 1e-9, 2), (15, 1e-30, 2)],
                             ids=["9+8", "9+7", "9+7 joined by 1e-9", "9+7 joined by 1e-30"])
    def test_pairs_near_zero_are_kept_whole(self, truncation, weight, zeros):
        # Paths of 9 + 8 levels have one zero mode, 9 + 7 two.  Keeping size // 2 + size % 2
        # eigenpairs drops one of the two, and the result is 0.41 off.  An edge of 1e-9 or 1e-30
        # between the paths splits the two into +-delta, and eigh returns mixtures of them:
        # keeping one mixture at weight 2 is 6e-8 off at 1e-9, and 0.41 off at 1e-30.
        gen = absent_edge_generator(truncation, weight)
        out = matrix_exponential(FockOperator(gen))
        assert np.max(np.abs(out.matrix - dense_exponential(gen))) <= 1e-13
        assert out.unitarity_defect() <= 1e-14
        size = truncation + 1
        x, even, odd = fock._CHAIN_BASES[size][1:]
        assert x.shape == ((size + zeros) // 2,) and even.shape[1] == odd.shape[1] == x.size
        assert np.count_nonzero(np.abs(x) < 1e-6) == zeros and np.all(x > -1e-6)

    def test_at_most_three_sizes(self):
        for N in range(1, 9):
            gen = displacement_generator(1.0 + 0.5j * N, N)
            assert np.max(np.abs(matrix_exponential(FockOperator(gen)).matrix - dense_exponential(gen))) <= 1e-13
            assert list(fock._CHAIN_BASES) == list(range(max(2, N - 1), N + 2))

    def test_cached_arrays_are_read_only(self):
        matrix_exponential(FockOperator(squeeze_generator(make_squeeze(0.5, 0.2), 16)))
        assert list(fock._CHAIN_BASES) == [9, 8]
        for entry in fock._CHAIN_BASES.values():
            assert not any(array.flags.writeable for array in entry)

    def test_calls_nothing_of_the_construction_under_test(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle called the construction it referees")

        for name in ("_chain_rows", "_position_basis", "_squeeze_basis", "_parity_blocks", "_squeeze_matrix"):
            monkeypatch.setattr(fock, name, refuse)
        for gen in (displacement_generator(4.0 + 4.0j, 64), squeeze_generator(make_squeeze(1.2, 1.0), 64)):
            out = matrix_exponential(FockOperator(gen))
            assert np.max(np.abs(out.matrix - dense_exponential(gen))) <= 1e-13


class TestDisplacementBch:
    def test_zero_displacement_identity(self):
        out = displacement_bch(0.0, 16)
        assert np.allclose(out.matrix, np.eye(17), atol=1e-16)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 2.0j, 1.4 + 1.4j, -2.0])
    def test_matches_oracle_lower_half_block(self, alpha):
        N = 128
        bch = displacement_bch(alpha, N)
        exact = displacement_exact(alpha, N)
        half = N // 2
        dev = np.max(np.abs(bch.matrix[:half, :half] - exact.matrix[:half, :half]))
        assert dev < 1e-8

    def test_group_inverse(self):
        N = 128
        product = displacement_bch(2.0, N).matrix @ displacement_bch(-2.0, N).matrix
        half = N // 2
        dev = np.max(np.abs(product[:half, :half] - np.eye(N + 1)[:half, :half]))
        assert dev < 1e-8

    def test_guard(self):
        with pytest.raises(GuardViolation, match=r"\|alpha\|\^2 = 81 exceeds 64: every column k of D\(alpha\) "
                                                 r"has mean photon number \|alpha\|\^2 \+ k"):
            displacement_bch(9.0, 64)

    def test_columns_unit_norm(self):
        op = displacement_bch(1.5 - 0.5j, 96)
        for n in (0, 2, 7):
            assert FockState(op.matrix[:, n]).norm_sq == pytest.approx(1.0, abs=1e-8)


class TestDisplacementBasis:
    """D(b)'s leading block from the eigenbasis of J_1 on 2N + 17 levels."""

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 16, 32])
    @pytest.mark.parametrize("b", [0.25, 0.5, 1.0])
    def test_small_truncation_matches_factor_product(self, b, N):
        # the whole block; a basis of N + 1 + 12 levels at N = 8 is 1.8e-12 off here
        left, right, _ = displacement_factor_pair(b, N)
        want = np.dot(left, right).astype(float)
        assert np.max(np.abs(displacement_bch(b, N).matrix - want)) <= 2e-15

    def test_guard_edge_matches_series(self):
        # |alpha|^2 = N: the leading 64 rows of the columns the series admits
        # (n <= 6), measured 9.1e-15 off, against 4.4e-12 from the factor product
        matrix = displacement_bch(16.0, 256).matrix
        for n in range(7):
            series = displaced_number_coeffs(n, 16.0, 256).coeffs
            assert np.max(np.abs(matrix[:64, n] - series[:64])) <= 2e-14, n

    @pytest.mark.parametrize("alpha", [0.0, 0j, -0.0])
    @pytest.mark.parametrize("N", [1, 16])
    def test_zero_is_the_exact_identity(self, alpha, N):
        assert_same_bits(displacement_bch(alpha, N).matrix, np.eye(N + 1, dtype=complex))

    @pytest.mark.parametrize("N", [1, 2, 255, 256])
    def test_cache_holds_only_the_rows_the_block_reads(self, N):
        x, even, odd = fock._position_basis(N)
        assert x.shape == (N + 9,) and even.shape == (N // 2 + 1, N + 9) and odd.shape == ((N + 1) // 2, N + 9)
        assert not (x.flags.writeable or even.flags.writeable or odd.flags.writeable)
        assert x[-1] == 0.0 and np.all(odd[:, -1] == 0.0)

    @pytest.mark.parametrize("N", [256, 512])
    def test_basis_holds_no_subnormal_products(self, N):
        # the product of two entries below 2^-511 is subnormal and sends BLAS to its slow path
        for rows in fock._position_basis(N)[1:]:
            assert np.min(np.abs(rows[rows != 0])) >= 2.0**-511

    def test_large_truncation_gives_the_coherent_column(self):
        # the recurrence rescales its columns past 2^400 here
        N, b = 1024, 0.8
        k = np.arange(N + 1)
        coherent = np.exp(-b * b / 2 + k * math.log(b) - 0.5 * np.cumsum(np.log(np.maximum(k, 1))))
        assert np.max(np.abs(displacement_bch(b, N).matrix[:, 0] - coherent)) <= 1e-15


def rotation(theta, truncation):
    """R(theta) = diag(e^{i m theta})."""
    return np.diag(np.exp(1j * theta * np.arange(truncation + 1)))


class TestPhaseRotation:
    """The gate phase enters only through R: the builds rest on
    D(|alpha| e^{i theta}) = R(theta) D(|alpha|) R(theta)^dag and
    S(r e^{i phi}) = R(phi/2) S(r) R(phi/2)^dag."""

    @pytest.mark.parametrize("alpha", [2.0j, -1.5, 1.4 + 1.4j, -0.3 - 3.1j])
    def test_displacement(self, alpha):
        N = 96
        rot = rotation(cmath.phase(alpha), N)
        for build in (displacement_bch, displacement_exact):
            rotated = rot @ build(abs(alpha), N).matrix @ rot.conj().T
            assert np.max(np.abs(build(alpha, N).matrix - rotated)) < 1e-13

    @pytest.mark.parametrize("phi", [math.pi, -math.pi / 4, math.pi / 2, 2.5])
    def test_squeeze(self, phi):
        N = 64
        rot = rotation(phi / 2.0, N)
        for build in (squeeze_bch, squeeze_exact):
            rotated = rot @ build(make_squeeze(LN2, 0.0), N).matrix @ rot.conj().T
            assert np.max(np.abs(build(make_squeeze(LN2, phi), N).matrix - rotated)) < 1e-13

    def test_cached_matrices_are_read_only(self):
        for op in (displacement_bch(1.0 - 2.0j, 64), squeeze_bch(make_squeeze(LN2, 0.5), 64)):
            with pytest.raises(ValueError):
                op.matrix[0, 0] = 1.0


class TestSqueezeBch:
    def test_zero_squeeze_identity(self):
        out = squeeze_bch(make_squeeze(0.0, 0.0), 16)
        assert np.allclose(out.matrix, np.eye(17), atol=1e-16)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi, -math.pi / 4])
    def test_matches_oracle_lower_quarter_block(self, phi):
        N = 128
        sq = make_squeeze(LN2, phi)
        bch = squeeze_bch(sq, N)
        exact = squeeze_exact(sq, N)
        q = N // 4
        assert np.max(np.abs(bch.matrix[:q, :q] - exact.matrix[:q, :q])) < 1e-8

    def test_column_parity_structural_zeros(self):
        op = squeeze_bch(make_squeeze(LN2, 0.7), 64)
        for n in (0, 1, 4, 7):
            column = op.matrix[:, n]
            opposite = column[(n + 1) % 2 :: 2]
            assert np.all(opposite == 0.0)

    def test_guard(self):
        with pytest.raises(GuardViolation, match=r"sinh\^2 r = 273.7 exceeds 256: at r = 3.5 every column of "
                                                 r"S\(z\) has mean photon number at least sinh\^2 r"):
            squeeze_bch(make_squeeze(3.5, 0.0), 256)

    def test_r_past_the_float_range_is_a_guard(self):
        # math.cosh overflows past r = 710.5
        with pytest.raises(GuardViolation, match="r = 711"):
            fock._squeeze_matrix(711.0, 16)

    @pytest.mark.parametrize("r, phi", [(0.3, 0.0), (0.7, 0.4), (1.18, -2.0), (3.0, 1.0)])
    def test_leading_block_does_not_depend_on_truncation(self, r, phi):
        # S is built on levels <= 2N + 2, so its leading block depends on N only through the
        # columns' tails: at N = 128, 256 and 512 it holds the series to the tail rule
        assert_columns_within_tail(make_squeeze(r, phi), (128, 256, 512), range(17))

    def test_oracle_truncation_is_what_is_off(self):
        # sweep-pool state 13 (r = 1.175) fails oracle_S at N = 256: the
        # block above is the same at N = 512, where the oracle agrees with it
        sq = make_squeeze(1.1754330603737877, -2.5478452257426722)
        gaps = [np.max(np.abs(squeeze_bch(sq, N).matrix[:64, :64] - squeeze_exact(sq, N).matrix[:64, :64]))
                for N in (256, 512)]
        assert 1e-6 < gaps[0] < 2e-6 and gaps[1] <= 1e-10, gaps

    @pytest.mark.parametrize("phi", [0.0, 1.0])
    @pytest.mark.parametrize("r", [1.5, 2.0, 2.5, 3.0])
    def test_leading_columns_match_series_up_to_the_guard(self, r, phi):
        # at N = 256 every column's tail is above 1e-8 here (8.8e-7 .. 0.9), yet the gap is at
        # most 4.6e-16 at r <= 2; at r = 2.5 and 3 it is 3.2e-4 and 0.24, at most 0.41 of the tail
        assert_columns_within_tail(make_squeeze(r, phi), (256,), range(17))

    @given(N=st.integers(1, 300), reach=st.floats(0.0, 1.0), phi=st.floats(-10.0, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_chain_build_properties(self, N, reach, phi):
        # r anywhere up to the sinh^2 r <= N guard: the signed-transpose identity holds
        # exactly, and the leading columns hold the series to the tail rule (a scan of
        # N = 1 .. 300 read a gap of at most 0.82 of the tail)
        r = reach * math.asinh(math.sqrt(N))
        assume(math.sinh(r) ** 2 <= N)
        mat = fock._squeeze_matrix(r, N)
        assert np.array_equal(mat.T, mat * transpose_signs(N))
        assert_columns_within_tail(make_squeeze(r, phi), (N,), range(min(N, 16) + 1))

    @pytest.mark.parametrize("n", [100, 200])
    def test_large_n_column_matches_the_decimal_series(self, n):
        # the paper's large-n regime, S(0.5)|n> at N = 700, against the series in 60 digits (at
        # 40 the n = 200 sum is itself 2.65e-13 off): 2.5e-16 and 3.4e-16; the long-double
        # series product before this build was 1.07e-6 off at n = 100 and refused n = 200
        # (||c||_2 - 1 = 2.85e8)
        column = fock.displaced_squeezed_number(n, 0.0, make_squeeze(0.5, 0.0), 700).coeffs
        assert np.max(np.abs(column - decimal_squeeze_column(0.5, n, 700, 60))) <= 1e-13

    @pytest.mark.parametrize("N", [1, 2, 3, 16])
    def test_zero_r_is_the_exact_identity(self, N):
        assert_same_bits(fock._squeeze_matrix(0.0, N), np.eye(N + 1))

    def test_columns_unit_norm(self):
        op = squeeze_bch(make_squeeze(LN2, 1.1), 128)
        for n in (0, 1, 5):
            assert FockState(op.matrix[:, n]).norm_sq == pytest.approx(1.0, abs=1e-8)


def assert_columns_within_tail(sq, truncations, columns):
    """Rows 0 .. 63 of squeeze_bch's columns at each N against the series, which does not depend on N:
    within 1e-14 where the column's tail beyond N (from the series at N = 3000) is below 1e-8, and
    below that tail elsewhere."""
    wide = {n: squeezed_number_coeffs(n, sq, 3000).coeffs for n in columns}
    for N in truncations:
        matrix = squeeze_bch(sq, N).matrix
        for n, series in wide.items():
            tail = np.linalg.norm(series[N + 1 :])
            gap = np.max(np.abs(matrix[:64, n] - series[: min(N + 1, 64)]))
            assert gap <= 1e-14 if tail < 1e-8 else gap < tail, (n, N, gap, tail)


def displacement_factor_pair(magnitude, N):
    """D's (left, right, h), right built as diag(sign) left^T diag(sign) from the builder's (left, sign, h)."""
    left, sign, halvings = fock._displacement_factors(magnitude, N)
    return left, sign[:, None] * left.T * sign, halvings


def dense_rotated_power(factors, theta):
    """The dense factor route for D's (left, right, h): np.dot of the long-double
    factors, the float64 squarings, then the complex128 phases of the float theta."""
    left, right, halvings = factors
    mat = np.dot(left, right).astype(float)
    for _ in range(halvings):
        mat = mat @ mat
    phase = np.exp(1j * theta * np.arange(mat.shape[0]))
    return phase[:, None] * mat * phase.conj()


def assert_same_bits(got, want):
    # values and sign bits; tobytes() would also compare long-double padding
    assert got.dtype == want.dtype and got.shape == want.shape
    for part in (np.real, np.imag):
        assert np.array_equal(part(got), part(want))
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def exp_ladder_series_loop(c, truncation, scale):
    """_exp_ladder_series as one fancy-indexed diagonal per pass."""
    n1 = truncation + 1
    out = np.zeros((n1, n1), dtype=np.longdouble)
    diag = np.full(n1, scale, dtype=np.longdouble)
    np.fill_diagonal(out, diag)
    cl = np.longdouble(c)
    for j in range(1, n1):
        k = np.arange(n1 - j)
        diag = diag[: n1 - j] * (cl / j) * np.sqrt((k + j).astype(np.longdouble))
        out[k + j, k] = diag
    return out


BIT_TRUNCATIONS = (1, 2, 3, 16, 63, 64, 256)
# 2^h halvings: h = 0, 0, 0, 1, 2, 3, 3
BIT_ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.7, 5.66 * cmath.exp(0.4j), 6.0)


def decimal_squeeze_column(r, n, truncation, digits):
    """S(r)[m, n] for m <= N: the normal-ordered series of squeezed_number_coeffs at phi = 0,
    summed in decimal arithmetic of `digits` digits and rounded once to float64."""
    out = np.zeros(truncation + 1)
    with localcontext() as context:
        context.prec = digits
        grow = Decimal(r).exp()
        cosh, d = (grow + 1 / grow) / 2, (grow - 1 / grow) / (grow + 1 / grow) / 2
        fact = [Decimal(math.factorial(i)) for i in range(truncation + 1)]
        for m in range(n % 2, truncation + 1, 2):
            total = Decimal(0)
            for j in range(max(0, (n - m) // 2), n // 2 + 1):
                k = (m - n) // 2 + j
                total += (-d) ** j * cosh ** (2 * j) / (fact[n - 2 * j] * fact[j]) * d**k * fact[m].sqrt() / fact[k]
            out[m] = float(fact[n].sqrt() / cosh**n / cosh.sqrt() * total)
    return out


def decimal_squeeze_block(r, size):
    """S(r)[m, n] for m, n < size, from the series in 40 digits."""
    return np.column_stack([decimal_squeeze_column(r, n, size - 1, 40) for n in range(size)])


def transpose_signs(truncation):
    """(-1)^(i // 2 + k // 2) at (i, k): (-1)^((i - k) / 2) wherever i - k is even."""
    sign = (-1.0) ** (np.arange(truncation + 1) // 2)
    return np.outer(sign, sign)


class TestTriangularProduct:
    """S's matrix is exp(r K) of its generator on levels <= 2N + 2, built from
    the chains' recurrence bases, and is held to one dense eigh of that
    generator.  D's matrix is built from the eigenbasis too, and is held to
    the dense product of the factors the column applies; the factors'
    diagonals are written through a strided view, bit for bit."""

    @pytest.mark.parametrize("alpha, N", [(a, N) for N in BIT_TRUNCATIONS for a in BIT_ALPHAS if abs(a) ** 2 <= N])
    def test_displacement_matches_dense_product(self, alpha, N):
        # the leading N/4 block: measured worst 1.36e-14, at alpha = 1, N = 256, where the
        # long-double factor product is itself 1.33e-14 off the exact sum and the basis 6e-16
        want = dense_rotated_power(displacement_factor_pair(abs(alpha), N), cmath.phase(alpha))
        q = max(1, N // 4)
        assert np.max(np.abs(displacement_bch(alpha, N).matrix[:q, :q] - want[:q, :q])) <= 2e-14

    @pytest.mark.parametrize("N", BIT_TRUNCATIONS)
    @pytest.mark.parametrize("phi", [0.0, 2.0])
    @pytest.mark.parametrize("r", [0.0, 0.3, LN2, 1.2, 3.0])
    def test_squeeze_matches_dense_product(self, r, phi, N):
        # the dense exponential of the same generator, its leading N + 1 block: measured worst
        # 4.2e-14, at r = 3, N = 256, about eps ||r K|| of the dense eigh's own rounding
        sq = make_squeeze(r, phi)  # r = 0 drops phi
        if math.sinh(r) ** 2 > N:  # r = 1.2 at N <= 2, r = 3 at N <= 64: no column fits
            with pytest.raises(GuardViolation, match="sinh"):
                squeeze_bch(sq, N)
            return
        want = dense_exponential(squeeze_generator(sq, 2 * N + 2))[: N + 1, : N + 1]
        assert np.max(np.abs(squeeze_bch(sq, N).matrix - want)) <= 1e-13

    @pytest.mark.parametrize("r", [0.3, LN2, 1.0, 1.2])
    def test_leading_block_matches_decimal_sum(self, r):
        # the 64-block at N = 256 against the series in 40 digits: the long-double series
        # products this build replaced were 1.5e-14 .. 1.54e-11 off at these r (two factors)
        # and 6.8e-15, 1.4e-12, 7.7e-12 and 5.7e-12 (one); this one reads 3.8e-16, 6.8e-16,
        # 4.6e-16 and 9.3e-16
        block = fock._squeeze_matrix(r, 256)[:64, :64]
        assert np.max(np.abs(block - decimal_squeeze_block(r, 64))) <= 2e-15

    @pytest.mark.parametrize("N", BIT_TRUNCATIONS + (700,))
    @pytest.mark.parametrize("r", [0.0, 0.3, LN2, 1.2, 3.0])
    def test_transpose_is_the_signed_matrix(self, r, N):
        # S(r)^T = S(-r) = R(pi/2) S(r) R(pi/2)^dag: S[k, i] = (-1)^((i - k) / 2) S[i, k], exactly
        if math.sinh(r) ** 2 <= N:
            mat = fock._squeeze_matrix(r, N)
            assert np.array_equal(mat.T, mat * transpose_signs(N))

    @pytest.mark.parametrize("magnitude, N", [(a, N) for N in (1, 2, 17, 512) for a in (0.0, 0.3, 1.0, 2.5, 5.9)
                                              if a * a <= N])
    def test_reflection_matches_dense_product(self, magnitude, N):
        # The column's factor pair, right the reflection of left, multiplies out to
        # D(b), the block the matrix squares: within 8.9e-16 on the leading 33 levels
        # (past them the long-double product cancels: 2.1e-11 on the 128-block at
        # b = 1, N = 512).
        b, _ = fock._displacement_step(magnitude, N)
        left, right, _ = displacement_factor_pair(magnitude, N)
        q = min(N, 32) + 1
        block = fock._assembled(*fock._parity_blocks(fock._position_basis(N), b), np.zeros((N + 1, N + 1)))
        assert np.max(np.abs(block[:q, :q] - np.dot(left, right)[:q, :q])) <= 2e-15

    @given(truncation=st.integers(1, 80), c=st.floats(-2.0, 2.0), per_column=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_ladder_series_matches_loop(self, truncation, c, per_column, seed):
        rng = np.random.default_rng(seed)
        scale = rng.random(truncation + 1).astype(np.longdouble) if per_column else np.longdouble(rng.random())
        assert_same_bits(fock._exp_ladder_series(c, truncation, scale)[0],
                         exp_ladder_series_loop(c, truncation, scale))

    def test_ladder_series_matches_loop_at_full_size(self):
        mid = np.exp(-(np.arange(257, dtype=np.longdouble) + 0.5) * np.log(np.longdouble(math.cosh(1.2))))
        for scale in (np.longdouble(0.8), mid):
            assert_same_bits(fock._exp_ladder_series(-0.45, 256, scale)[0],
                             exp_ladder_series_loop(-0.45, 256, scale))


def two_series_displacement_factors(magnitude, N):
    """D's factors as two ladder series, at b and at -b, the reference for the
    right factor diag(sign) left^T diag(sign); h is the builder's."""
    b = magnitude
    while b > 1.0:
        b /= 2.0
    scale = np.exp(np.longdouble(-b**2 / 4.0))
    left = fock._exp_ladder_series(b, N, scale)[0]
    right = fock._exp_ladder_series(-b, N, scale)[0].T
    return left, right, fock._displacement_factors(magnitude, N)[2]


def two_series_apply(factors, theta, coeffs):
    """R(theta) (left @ right)^(2^h) R(theta)^dag on a clongdouble vector, with right stored:
    the reference that the column's signed passes left @ (sign (left^T @ (sign pair))) must match."""
    left, right, halvings = factors
    phase = np.exp(1j * theta * np.arange(coeffs.size))
    pair = (coeffs * phase.conj()).view(np.longdouble).reshape(-1, 2)
    for _ in range(2**halvings):
        pair = np.dot(left, np.dot(right, pair))
    return pair.view(np.clongdouble)[:, 0] * phase


# D(alpha) S(z)|n> keys: the four presets at n <= 3 (verify's columns), and BIT_ALPHAS keys
COLUMN_KEYS = [(n, figure_spec(i).disp.alpha, figure_spec(i).sq, 256) for i in (1, 2, 3, 4) for n in range(4)] + [
    (0, 0.5, make_squeeze(0.3, 0.5), 1), (2, 1.5, make_squeeze(LN2, 0.0), 3), (5, 2.7, make_squeeze(1.2, 2.0), 16),
    (7, BIT_ALPHAS[5], make_squeeze(0.3, -1.0), 63), (40, 6.0, make_squeeze(0.7, 1.0), 256)]


class TestFactorPairs:
    """D's factor builder returns (left, sign, h) from one series; its right
    factor diag(sign) left^T diag(sign) equals a second series at -b."""

    def test_shape_fields(self):
        assert fock._displacement_factors(0.5, 8)[2] == 0
        assert fock._displacement_factors(2.7, 16)[2] == 2
        assert len(fock._displacement_factors(2.7, 16)) == 3

    @pytest.mark.parametrize("N", [1, 2, 3, 17, 256])
    def test_signs_are_minus_one_to_the_level_over_step(self, N):
        _, sign, _ = fock._displacement_factors(0.7, N)
        assert sign.dtype == np.float64 and not sign.flags.writeable
        assert_same_bits(sign, (-1.0) ** np.arange(N + 1))

    @pytest.mark.parametrize("N", [1, 2, 17, 256])
    @pytest.mark.parametrize("b", [0.0, 0.3, 0.7, 1.0])
    def test_reflected_right_factor_is_the_minus_b_series(self, b, N):
        # bit for bit on the upper triangle the series fills; below it both are zeros, signed
        # zeros here (a sign flip of +0), which np.dot's sums from +0 never pass on
        left, sign, _ = fock._displacement_factors(b, N)
        right, want = sign[:, None] * left.T * sign, two_series_displacement_factors(b, N)[1]
        assert np.array_equal(right, want)
        assert_same_bits(np.triu(right), np.triu(want))
        assert not left.flags.writeable and left.flags.c_contiguous  # np.dot reads left.T in the series' order

    def test_one_series_per_displacement_build(self, monkeypatch):
        calls = []
        series = fock._exp_ladder_series
        monkeypatch.setattr(fock, "_exp_ladder_series", lambda *args: calls.append(args) or series(*args))
        fock._displacement_factors.cache_clear()
        fock._displacement_factors(2.5, 64)
        fock._displacement_factors.cache_clear()
        assert len(calls) == 1

    @pytest.mark.parametrize("n, alpha, sq, N", COLUMN_KEYS)
    def test_column_matches_two_series_factors(self, n, alpha, sq, N):
        # S's stage is column n of S's matrix, rotated with squeeze_bch's bits; D's is
        # left @ (right @ pair) with the -b series stored
        coeffs = squeeze_bch(sq, N).matrix[:, n].astype(np.clongdouble)
        coeffs = two_series_apply(two_series_displacement_factors(abs(alpha), N), cmath.phase(alpha), coeffs)
        assert_same_bits(fock.displaced_squeezed_number(n, alpha, sq, N).coeffs, coeffs.astype(complex))

    def test_column_leaves_its_squeeze_build_cached(self):
        # the column reads S's matrix from _squeeze_matrix, which keeps it at (r, N) for squeeze_bch too
        sq = make_squeeze(0.45, -0.8)
        for cache in (fock._squeeze_basis, fock._squeeze_matrix, fock.displaced_squeezed_number):
            cache.cache_clear()
        fock.displaced_squeezed_number(3, 1.0 - 0.5j, sq, 64)
        squeeze_bch(sq, 64)
        squeeze_bch(make_squeeze(0.45, 0.3), 64)
        assert fock._squeeze_matrix.cache_info().misses == 1 and fock._squeeze_matrix.cache_info().hits == 2
        assert fock._squeeze_basis.cache_info().misses == 1

    def test_squeeze_builds_are_read_only_and_equal(self):
        sq = make_squeeze(0.45, -0.8)
        first, second = squeeze_bch(sq, 64).matrix, squeeze_bch(sq, 64).matrix
        assert not first.flags.writeable and not second.flags.writeable
        assert_same_bits(first, second)


class TestDisplacedNumberCoeffs:
    def test_vacuum_gives_coherent(self):
        alpha = 1.3 - 0.4j
        N = 96
        state = displaced_number_coeffs(0, alpha, N)
        oracle = displacement_exact(alpha, N).matrix[:, 0]
        assert np.max(np.abs(state.coeffs - oracle)) < 1e-10

    def test_zero_alpha_is_delta(self):
        state = displaced_number_coeffs(4, 0.0, 32)
        assert np.array_equal(state.coeffs, number_state(4, 32).coeffs)

    def test_hand_evaluated_first_coefficient(self):
        # j = 1, k = 0 term of the double sum at n = 1, alpha = 1
        state = displaced_number_coeffs(1, 1.0, 64)
        assert state.coeffs[0] == pytest.approx(-math.exp(-0.5), rel=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_matches_bch_column(self, n):
        alpha = 1.7 + 0.9j
        N = 128
        state = displaced_number_coeffs(n, alpha, N)
        column = displacement_bch(alpha, N).matrix[:, n]
        assert np.max(np.abs(state.coeffs - column)) < 1e-9

    def test_unit_norm_within_guards(self):
        state = displaced_number_coeffs(3, 2.0 - 1.0j, 128)
        assert state.norm_sq == pytest.approx(1.0, abs=1e-8)
        assert abs(state.leakage) < 1e-8

    # Each c_m is a finite sum, so n and |alpha| large against N need no
    # guard: N picks only which m are returned.
    @pytest.mark.parametrize("n, alpha, bound", [(40, 1.0, 1e-13), (0, 10.0, 1e-14)])
    def test_large_n_and_alpha_match_wide_oracle(self, n, alpha, bound):
        state = displaced_number_coeffs(n, alpha, 64)
        oracle = displacement_exact(alpha, 512).matrix[:65, n]
        assert np.max(np.abs(state.coeffs - oracle)) <= bound

    # Sweep-pool states 49 and 335 (n = 8, |alpha| near 6): the pool's two
    # largest gaps between the series and the BCH column.
    @pytest.mark.parametrize("alpha", [4.9229948852517005 - 3.4293283557120082j,
                                       -5.741784956347293 + 1.3624477698370523j])
    def test_matches_bch_column_at_large_alpha(self, alpha):
        state = displaced_number_coeffs(8, alpha, 256)
        column = displacement_bch(alpha, 256).matrix[:, 8]
        assert np.max(np.abs(state.coeffs - column)) < 1e-11

    def test_matches_exact_rational_sum(self):
        # For real alpha the sum is rational: sum_j (-1)^j a^(k+j) / (j! k! (n-j)!),
        # summed exactly; only sqrt(m! n!) e^{-a^2/2} is applied in floating point.
        n, alpha, N = 8, 5.5, 256
        a = Fraction(alpha)
        exact = []
        for m in range(N + 1):
            total = sum((-1) ** j * a ** (m - n + 2 * j)
                        / (math.factorial(j) * math.factorial(m - n + j) * math.factorial(n - j))
                        for j in range(max(0, n - m), n + 1))
            scaled = math.sqrt(total * total * math.factorial(m) * math.factorial(n) * Fraction(math.exp(-alpha**2)))
            exact.append(math.copysign(scaled, total))
        state = displaced_number_coeffs(n, alpha, N)
        assert np.max(np.abs(state.coeffs - exact)) < 1e-11

    @pytest.mark.parametrize("n, alpha", [(32, 5 + 3j), (128, 2.0)])
    def test_cancelling_series_raises(self, n, alpha):
        with pytest.raises(GuardViolation, match=rf"\|alpha\| = {abs(alpha):.3g}, n = {n}, N = 512: .* bound"):
            displaced_number_coeffs(n, alpha, 512)


def squeezed_vacuum(sq, N):
    """c_{2k} = (cosh r)^{-1/2} sqrt((2k)!) / k! d^k, d = e^{i phi} tanh(r) / 2."""
    d = 0.5 * np.exp(1j * sq.phi) * math.tanh(sq.r)
    m = np.arange(0, N + 1, 2)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, N + 1)))])
    expected = np.zeros(N + 1, dtype=complex)
    expected[m] = (
        math.cosh(sq.r) ** -0.5
        * np.exp(0.5 * log_fact[m] - log_fact[m // 2])
        * d ** (m // 2)
    )
    return expected


class TestSqueezedNumberCoeffs:
    def test_squeezed_vacuum_closed_form(self):
        sq = make_squeeze(LN2, 0.7)
        state = squeezed_number_coeffs(0, sq, 64)
        assert np.max(np.abs(state.coeffs - squeezed_vacuum(sq, 64))) < 1e-13

    def test_zero_squeeze_is_delta(self):
        state = squeezed_number_coeffs(3, make_squeeze(0.0, 0.0), 32)
        assert np.array_equal(state.coeffs, number_state(3, 32).coeffs)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_matches_bch_column(self, n):
        sq = make_squeeze(LN2, -2.1)
        N = 128
        state = squeezed_number_coeffs(n, sq, N)
        column = squeeze_bch(sq, N).matrix[:, n]
        assert np.max(np.abs(state.coeffs - column)) < 1e-9

    def test_parity_support(self):
        state = squeezed_number_coeffs(2, make_squeeze(LN2, 0.0), 64)
        assert np.all(state.coeffs[1::2] == 0.0)
        assert np.any(state.coeffs[0::2] != 0.0)

    def test_unit_norm_within_guards(self):
        state = squeezed_number_coeffs(2, make_squeeze(LN2, 2.0), 128)
        assert state.norm_sq == pytest.approx(1.0, abs=1e-8)

    def test_large_n_matches_wide_oracle(self):
        sq = make_squeeze(0.5, 0.4)
        state = squeezed_number_coeffs(40, sq, 128)
        oracle = squeeze_exact(sq, 512).matrix[:129, 40]
        assert np.max(np.abs(state.coeffs - oracle)) <= 1e-12

    def test_large_r_matches_closed_form(self):
        # The N = 512 oracle is 2e-2 off here: the state is wider than its truncation.
        sq = make_squeeze(3.5, 0.4)
        assert np.max(np.abs(squeezed_number_coeffs(0, sq, 128).coeffs - squeezed_vacuum(sq, 128))) <= 1e-14

    def test_cancelling_series_raises(self):
        with pytest.raises(GuardViolation, match=r"r = 1, n = 96, N = 512: .* bound"):
            squeezed_number_coeffs(96, make_squeeze(1.0, 0.0), 512)


TRUNCATIONS = st.sampled_from([64, 128, 256, 512])


class TestSeriesContract:
    """Every input with 0 <= n <= N either raises GuardViolation or gives
    finite coefficients with norm_sq <= 1 + 1e-6: the 1e-8 per-coefficient
    error bound summed over at most 513 coefficients."""

    @staticmethod
    def assert_within_contract(call):
        try:
            state = call()
        except GuardViolation:
            return
        assert np.all(np.isfinite(state.coeffs))
        assert state.norm_sq <= 1.0 + 1e-6

    @given(N=TRUNCATIONS, n_share=st.floats(0, 1), size_share=st.floats(0, 1), angle=st.floats(-math.pi, math.pi))
    @settings(max_examples=40, deadline=None)
    def test_displaced(self, N, n_share, size_share, angle):
        n = int(n_share * N)
        alpha = size_share * N / 2 * cmath.exp(1j * angle)
        self.assert_within_contract(lambda: displaced_number_coeffs(n, alpha, N))

    @given(N=TRUNCATIONS, n_share=st.floats(0, 1), r=st.floats(0, 8), phi=st.floats(-math.pi, math.pi))
    @settings(max_examples=40, deadline=None)
    def test_squeezed(self, N, n_share, r, phi):
        n = int(n_share * N)
        self.assert_within_contract(lambda: squeezed_number_coeffs(n, make_squeeze(r, phi), N))

    @pytest.mark.parametrize("call", [
        lambda n, N: displaced_number_coeffs(n, 1.0 - 0.5j, N),
        lambda n, N: displaced_number_coeffs(n, 0.0, N),
        lambda n, N: squeezed_number_coeffs(n, make_squeeze(0.5, 0.4), N),
        lambda n, N: squeezed_number_coeffs(n, make_squeeze(0.0), N),
    ], ids=["D", "D_alpha_0", "S", "S_r_0"])
    @pytest.mark.parametrize("n", [-1, 65])
    def test_n_outside_basis_is_value_error(self, call, n):
        with pytest.raises(ValueError, match="need 0 <= n <= truncation"):
            call(n, 64)

    @pytest.mark.parametrize("call", [
        number_state,
        lambda n, N: displaced_number_coeffs(n, 1.0 - 0.5j, N),
        lambda n, N: squeezed_number_coeffs(n, make_squeeze(0.5, 0.4), N),
        lambda n, N: squeezelab.displaced_squeezed_number(n, 1.0 - 0.5j, make_squeeze(0.5, 0.4), N),
    ], ids=["number_state", "D", "S", "DS"])
    @pytest.mark.parametrize("n", [1.5, True, "1", None], ids=["1.5", "True", "str", "None"])
    def test_n_that_is_not_an_integer_is_value_error(self, call, n):
        # numpy would read True as a mask and set every coefficient to 1; a str or None
        # met the range test's comparison first, a bare TypeError
        with pytest.raises(ValueError, match=f"^quantum number n must be an integer, got {n!r}$"):
            call(n, 64)


# Every public entry point that takes the truncation N, called with N; the
# column and compare_formalisms' state has |alpha|^2 = 0.5 and sinh^2 r = 0.09.
TRUNCATION_ENTRY_POINTS = {
    "number_state": lambda N: number_state(0, N),
    "ladder_matrices": lambda N: ladder_matrices(N),
    "displacement_bch": lambda N: displacement_bch(0.5 - 0.5j, N),
    "squeeze_bch": lambda N: squeeze_bch(make_squeeze(0.3, 0.2), N),
    "displaced_squeezed_number": lambda N: fock.displaced_squeezed_number(1, 0.5 - 0.5j, make_squeeze(0.3, 0.2), N),
    "displaced_number_coeffs": lambda N: displaced_number_coeffs(1, 0.5 - 0.5j, N),
    "squeezed_number_coeffs": lambda N: squeezed_number_coeffs(1, make_squeeze(0.3, 0.2), N),
    "compare_formalisms": lambda N: squeezelab.compare_formalisms(
        StateSpec(1, make_displacement(1.0, 0.0), make_squeeze(0.3, 0.2)), truncation=N),
}


class TestTruncationOwner:
    """fock.check_truncation is the one rule for N, and every entry point runs it
    before it allocates, whatever the one-entry caches hold."""

    @pytest.mark.parametrize("after_int", [False, True], ids=["cold", "after_N_16"])
    @pytest.mark.parametrize("N", [2.5, 16.0, True, 0, -1, 4096, 10**12],
                             ids=["2.5", "16.0", "True", "0", "-1", "4096", "1e12"])
    @pytest.mark.parametrize("entry", TRUNCATION_ENTRY_POINTS)
    def test_refused_by_the_owner(self, entry, N, after_int):
        call = TRUNCATION_ENTRY_POINTS[entry]
        if after_int:
            call(16)  # a cache keyed by N == 16 or True == 1 must not answer for a refused N
        message = ("truncation N must be an integer from 1 to 4095, the largest whose column build fits in 1 GiB, "
                   f"got {N!r}")
        began = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(N)
        assert time.perf_counter() - began < 1.0

    @pytest.mark.parametrize("N", [np.int64(16), 1], ids=["int64", "1"])
    @pytest.mark.parametrize("entry", TRUNCATION_ENTRY_POINTS)
    def test_admitted(self, entry, N):
        TRUNCATION_ENTRY_POINTS[entry](N)


class TestTruncationGuards:
    """The operator route refuses exactly the inputs under which every column
    has mean photon number above N, |alpha|^2 > N for D and sinh^2 r > N for
    S, and every build it admits is finite."""

    @given(N=st.integers(1, 128), n_share=st.floats(0, 1), size_share=st.floats(0, 1.5),
           angle=st.floats(-math.pi, math.pi), r_share=st.floats(0, 1), phi=st.floats(-math.pi, math.pi))
    @settings(max_examples=60, deadline=None)
    def test_refused_exactly_past_the_mean_photon_bound(self, N, n_share, size_share, angle, r_share, phi):
        n = int(n_share * N)
        alpha = size_share * math.sqrt(N) * cmath.exp(1j * angle)
        sq = make_squeeze(r_share * math.asinh(1.5 * math.sqrt(N)), phi)
        d_refused, s_refused = abs(alpha) ** 2 > N, math.sinh(sq.r) ** 2 > N
        builds = [
            (lambda: displacement_bch(alpha, N).matrix, d_refused),
            (lambda: squeeze_bch(sq, N).matrix, s_refused),
            (lambda: fock.displaced_squeezed_number(n, alpha, sq, N).coeffs, d_refused or s_refused),
        ]
        for build, refused in builds:
            if refused:
                with pytest.raises(GuardViolation, match="mean photon number"):
                    build()
            else:
                assert np.all(np.isfinite(build()))

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: displacement_bch(complex("nan"), 16), r"alpha must be finite, got \(nan, 0.0\)"),
            (lambda: displacement_bch(complex(1.0, float("nan")), 16), r"alpha must be finite, got \(1.0, nan\)"),
            (lambda: squeeze_bch(SqueezeParam(float("nan"), 0.0), 16), r"must be finite, got \(nan, 0.0\)"),
            (lambda: squeeze_bch(SqueezeParam(0.5, float("nan")), 16), r"must be finite, got \(0.5, nan\)"),
            (lambda: fock.displaced_squeezed_number(0, complex("nan"), make_squeeze(0.1, 0.0), 16),
             r"alpha must be finite, got \(nan, 0.0\)"),
            (lambda: fock.displaced_squeezed_number(0, 0.5, SqueezeParam(0.3, float("nan")), 16),
             r"must be finite, got \(0.3, nan\)"),
            # no SqueezeParam carries a NaN r to the S bound, but the bound refuses one
            (lambda: fock._squeeze_matrix(float("nan"), 16), r"sinh\^2 r = nan exceeds 16: at r = nan"),
            (lambda: displacement_bch(complex(0.0, -math.inf), 16), r"alpha must be finite, got \(0.0, -inf\)"),
            (lambda: fock.displaced_squeezed_number(0, math.inf, make_squeeze(0.1, 0.0), 16),
             r"alpha must be finite, got \(inf, 0.0\)"),
            (lambda: displaced_number_coeffs(1, complex("nan"), 16), r"alpha must be finite, got \(nan, 0.0\)"),
            (lambda: displaced_number_coeffs(1, complex(math.inf, 1.0), 16), r"alpha must be finite, got \(inf, 1.0\)"),
            (lambda: displaced_number_coeffs(1, 10**400, 16), r"alpha must be finite, got a number beyond the float"),
        ],
        ids=["D_nan", "D_nan_imag", "S_nan_r", "S_nan_phi", "column_nan_alpha", "column_nan_phi", "S_factors_nan_r",
             "D_inf_imag", "column_inf_alpha", "series_nan_alpha", "series_inf_alpha", "series_alpha_past_float"],
    )
    def test_nan_is_refused(self, build, match):
        """A non-finite alpha part is refused by parameters._finite before any arithmetic, a SqueezeParam
        refuses a non-finite r or phi, and NaN fails S's bound."""
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize("build", [
        lambda: displacement_bch(1e200, 16),
        lambda: fock.displaced_squeezed_number(0, complex(1e200, 1e200), make_squeeze(0.1, 0.0), 16),
    ], ids=["D", "column"])
    def test_finite_alpha_whose_square_overflows_is_a_mean_photon_guard(self, build):
        with pytest.raises(GuardViolation, match=r"\|alpha\|\^2 = inf exceeds 16: every column k of D\(alpha\)"):
            build()


class TestColumnNormGuard:
    """The exact truncated column D S|n> has norm at most 1, so
    ||c||_2 - 1 <= ||c - c_exact||_2, and a column more than 1e-8 past norm 1 is refused."""

    def test_wide_displacement_column_is_refused(self):
        # |alpha|^2 = 900 <= N admits it, and D's long-double passes read ||c||_2 - 1 = 8.6e6
        spec = StateSpec(0, make_displacement(30 * math.sqrt(2), 0.0), make_squeeze(0.0, 0.0))
        with pytest.raises(GuardViolation, match=r"n = 0, N = 1024: \|\|c\|\|_2 - 1 = \S+ exceeds 1e-08"):
            squeezelab.compare_formalisms(spec, 0.0, truncation=1024)

    def test_large_n_column_reports_its_leakage(self):
        # the long-double S product was 3e51 past norm 1 here and refused; the state does not fit
        # in N = 1024, and the column says so: leakage 0.466, and the report fails
        spec = StateSpec(500, make_displacement(6 * math.sqrt(2), 8 * math.sqrt(2)), make_squeeze(0.5, 0.0))
        state = fock.displaced_squeezed_number(500, spec.disp.alpha, spec.sq, 1024)
        assert np.linalg.norm(state.coeffs) <= 1.0 + 1e-15 and 0.46 < state.leakage < 0.47
        assert not squeezelab.compare_formalisms(spec, 0.0, truncation=1024).passed

    @pytest.mark.parametrize("n, r", [(100, 1.0), (110, 1.0), (150, 0.7), (210, 0.3)])
    def test_trailing_squeeze_columns_report_their_leakage(self, n, r):
        # the long-double S product was far past norm 1 here and refused the columns; they do not
        # fit in N = 256, and read leakage 0.50 to 0.64
        state = fock.displaced_squeezed_number(n, 0.5, make_squeeze(r, 0.0), 256)
        assert np.linalg.norm(state.coeffs) <= 1.0 + 1e-15 and 0.45 < state.leakage < 0.7

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_presets_keep_their_margin(self, index):
        spec = squeezelab.figure_spec(index)
        for n in range(4):
            coeffs = fock.displaced_squeezed_number(n, spec.disp.alpha, spec.sq, 256).coeffs
            assert np.linalg.norm(coeffs) - 1.0 <= 1e-15


class TestLongDoubleWidth:
    def test_narrow_long_double_is_refused(self, monkeypatch):
        # what numpy's long double is under MSVC and on macOS arm64
        monkeypatch.setattr(fock, "_LONG_DOUBLE", np.finfo(np.float64))
        match = r"np\.finfo\(np\.longdouble\)\.nmant = 52 is below 63"
        for build in (lambda: fock._exp_ladder_series(0.5, 8, 1),
                      lambda: fock.displaced_squeezed_number(1, 0.0, make_squeeze(0.0), 9)):
            with pytest.raises(GuardViolation, match=match):
                build()

    def test_displacement_matrix_needs_no_long_double(self, monkeypatch):
        # nor does S's matrix: only D's column passes are formed in long double
        monkeypatch.setattr(fock, "_LONG_DOUBLE", np.finfo(np.float64))
        displacement_bch.cache_clear()
        fock._squeeze_matrix.cache_clear()
        assert np.all(np.isfinite(displacement_bch(0.123, 9).matrix))
        assert np.all(np.isfinite(squeeze_bch(make_squeeze(0.123, 0.0), 9).matrix))


class TestSynthesize:
    def test_number_state_gives_eigenfunction(self):
        xs = np.linspace(-6, 6, 61)
        for n in (0, 1, 5):
            values = synthesize(number_state(n, 32), xs)
            assert np.max(np.abs(values - oscillator_eigenfunctions(n, xs)[n])) < 1e-14

    def test_real_coherent_state_is_shifted_gaussian(self):
        x0 = 2.5
        alpha = x0 / math.sqrt(2.0)
        xs = np.linspace(-8, 10, 181)
        state = displaced_number_coeffs(0, alpha, 128)
        values = synthesize(state, xs)
        expected = math.pi**-0.25 * np.exp(-0.5 * (xs - x0) ** 2)
        assert np.max(np.abs(values - expected)) < 1e-9

    def test_squeezed_number_matches_closed_form(self):
        xs = np.linspace(-8, 8, 161)
        for n in (0, 1, 2):
            sq = make_squeeze(LN2, math.pi / 2)
            state = squeezed_number_coeffs(n, sq, 160)
            values = synthesize(state, xs)
            spec = StateSpec(n=n, disp=make_displacement(0.0, 0.0), sq=sq)
            expected = psi_squeezed_number(spec, xs)
            assert np.max(np.abs(values - expected)) < 1e-8

    def test_scalar_argument(self):
        value = synthesize(number_state(0, 8), 0.0)
        assert np.isscalar(value) or np.ndim(value) == 0
        assert value == pytest.approx(math.pi**-0.25, rel=1e-14)


class TestTimeEvolve:
    def test_time_zero_identity(self):
        state = displaced_number_coeffs(1, 0.5, 32)
        evolved = time_evolve(state, 0.0)
        assert np.array_equal(evolved.coeffs, state.coeffs)

    def test_full_period_global_sign(self):
        state = displaced_number_coeffs(2, 0.8j, 64)
        evolved = time_evolve(state, 2.0 * math.pi)
        assert np.max(np.abs(evolved.coeffs + state.coeffs)) < 1e-12

    @pytest.mark.parametrize("t", [0.3, 1.7, 5.0])
    def test_moduli_invariant(self, t):
        state = squeezed_number_coeffs(1, make_squeeze(0.4, 1.0), 64)
        evolved = time_evolve(state, t)
        assert np.allclose(np.abs(evolved.coeffs), np.abs(state.coeffs), atol=1e-15)


class TestAlgebraicProperties:
    def test_coherent_is_annihilation_eigenstate(self):
        alpha = 1.2 + 0.8j
        N = 128
        state = displaced_number_coeffs(0, alpha, N)
        a, _ = ladder_matrices(N)
        applied = a.matrix @ state.coeffs
        half = N // 2
        dev = np.max(np.abs(applied[:half] - alpha * state.coeffs[:half]))
        assert dev < 1e-8
