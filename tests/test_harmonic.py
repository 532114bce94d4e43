import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from scipy.sparse.linalg import cg

from graphssl import (DegenerateGraphError, GraphConfig, InputError, PointSet,
                      SimilarityGraph, SoftConfig, SolverError, build_graph,
                      hard_harmonic, laplacian, soft_harmonic, solve_spd)
from graphssl import harmonic
from graphssl.harmonic import DENSE_MAX_N

from _synth import random_graph, random_labels


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.5])
        assert np.allclose(solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0, 8.0])
        b = np.array([2.0, 2.0, 2.0])
        assert np.allclose(solve_spd(a, b), [1.0, 0.5, 0.25])

    def test_random_spd_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            m = rng.normal(size=(40, 40))
            a = m @ m.T + 40 * np.eye(40)
            b = rng.normal(size=40)
            x = solve_spd(a, b)
            assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)

    def test_zero_rhs(self):
        assert np.array_equal(solve_spd(np.eye(4), np.zeros(4)), np.zeros(4))

    def test_residual_contract(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(25, 25))
        a = m @ m.T + 25 * np.eye(25)
        b = rng.normal(size=25)
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b) * 1.001

    @pytest.mark.parametrize("b", [[1e200, 1e200], [1.0, np.nan], [np.inf, 0.0]])
    def test_right_hand_side_past_the_float_range_rejected(self, b):
        # a ||b|| of inf would pass any residual test: it is refused first,
        # without numpy's overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (np.eye(2), sp.identity(2, format="csr")):
                with pytest.raises(InputError, match="right-hand side"):
                    solve_spd(a, b)

    def test_residual_past_the_float_range_raises_solver_error(self):
        # x[1] = 1e10 / 1e-300 overflows, and so does the residual
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="residual"):
                solve_spd(np.diag([1.0, 1e-300]), [1.0, 1e10])


# system sizes on both sides of the dense-Cholesky / Jacobi-PCG cutoff
SIDES = st.sampled_from(["dense", "pcg"])


def _size(side, extra):
    return 2 + extra if side == "dense" else DENSE_MAX_N + 1 + extra


class TestSolveSpdPaths:
    """solve_spd against np.linalg.solve on both sides of DENSE_MAX_N."""

    @given(SIDES, st.integers(0, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-3, 1.0, 10.0]))
    @settings(max_examples=30, deadline=None)
    def test_random_spd_matches_dense_solve(self, side, extra, seed, shift):
        n = _size(side, extra)
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        a = m @ m.T / n + shift * np.eye(n)
        b = rng.normal(size=n)
        want = np.linalg.solve(a, b)
        for system in (a, sp.csr_matrix(a)):
            x = solve_spd(system, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
            assert np.allclose(x, want, rtol=1e-6, atol=1e-8 * np.abs(want).max())

    @given(SIDES, st.integers(0, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1e-8, 1e-4, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_laplacian_systems_match_dense_solve(self, side, extra, seed, gamma):
        n_labeled = 6
        n = _size(side, extra) + n_labeled
        g = random_graph(n, seed, density=min(1.0, 8.0 / n))
        labels = random_labels(n, n_labeled, seed)
        u, l = np.flatnonzero(labels == 0), np.flatnonzero(labels != 0)
        assert (u.size <= DENSE_MAX_N) == (side == "dense")
        a = (laplacian(g)[np.ix_(u, u)] + gamma * sp.identity(u.size)).tocsr()
        b = np.asarray(g.weights[np.ix_(u, l)] @ labels[l]).ravel()
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
        want = np.linalg.solve(a.toarray(), b)
        assert np.allclose(x, want, rtol=1e-6, atol=1e-8)
        # the dense ndarray of the same system goes through Cholesky
        assert np.allclose(solve_spd(a.toarray(), b), want, rtol=1e-6, atol=1e-8)

    @given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.sampled_from([1e-6, 1.0]),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    # cond_1 1.5e7: the relative residual 1.09e-10 misses 1e-10, the
    # backward error meets it
    @example(n=53, seed=8388607, shift=1e-6, fortran=False)
    def test_dense_path_bit_identical_to_cho_solve(self, n, seed, shift, fortran):
        # LAPACK's potrf/potrs called directly give cho_factor/cho_solve's bits
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        a = m @ m.T / n + shift * np.eye(n)
        a = np.asfortranarray(a) if fortran else a
        b = rng.normal(size=n)
        a_before, b_before = a.copy(), b.copy()
        want = cho_solve(cho_factor(a, check_finite=False), b, check_finite=False)
        assert np.array_equal(solve_spd(a, b), want)
        assert np.array_equal(solve_spd(sp.csr_matrix(a), b), want)
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)

    @pytest.mark.parametrize("n", [3, DENSE_MAX_N + 10])
    def test_indefinite_raises_solver_error(self, n):
        d = np.ones(n)
        d[1] = -1.0
        b = np.ones(n)
        with pytest.raises(SolverError):
            solve_spd(np.diag(d), b)
        with pytest.raises(SolverError):
            solve_spd(sp.diags(d).tocsr(), b)

    def test_indefinite_with_positive_diagonal_raises_solver_error(self):
        # eigenvalues 3 and -1: only the factorization can tell, since CG
        # may still converge on such a system
        block = np.array([[1.0, 2.0], [2.0, 1.0]])
        for a in (block, sp.csr_matrix(block), sp.block_diag([block] * 3, format="csr")):
            with pytest.raises(SolverError) as err:
                solve_spd(a, np.ones(a.shape[0]))
            assert err.value.residual == 1.0

    def test_singular_raises_solver_error(self):
        lap = laplacian(random_graph(8, 1)).toarray()
        with pytest.raises(SolverError):
            solve_spd(lap, np.arange(8.0))

    def test_near_singular_raises_despite_a_small_backward_error(self):
        # exactly representable and positive definite, with eigenvalues near
        # 2 and eps/2: Cholesky's last pivot is sqrt(eps) > 0.  The residual
        # misses 1e-10 ||b||, but is within 1e-10 (||A||_1 ||x|| + ||b||)
        # of x ~ 1e16, so only the condition guard rejects it
        eps = np.finfo(np.float64).eps
        a = np.array([[1.0, 1.0], [1.0, 1.0 + eps]])
        b = np.array([1.0, -1.0])
        x = cho_solve(cho_factor(a), b)
        residual = np.linalg.norm(a @ x - b)
        assert residual > harmonic.DEFAULT_TOL * np.linalg.norm(b)
        assert residual <= harmonic.DEFAULT_TOL * (np.linalg.norm(a, 1) * np.linalg.norm(x)
                                                   + np.linalg.norm(b))
        for system in (a, sp.csr_matrix(a)):
            with pytest.raises(SolverError, match="residual"):
                solve_spd(system, b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            solve_spd(np.eye(3), np.ones(4))



def _scipy_cg(a, b, tol):
    """The sparse path's reference: scipy's cg with the arguments solve_spd
    once passed it, and its exit code (the iteration count at the cap)."""
    a = a.tocsr()
    return cg(a, b, rtol=0.5 * tol, atol=0.0, maxiter=10 * b.size,
              M=sp.diags(1.0 / a.diagonal()))


def _knn_system(seed, n, k, gamma_g, soft):
    """A hard (unlabeled block) or soft harmonic system of a random k-NN
    graph on n points, with 10 labels."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 2)) * rng.uniform(0.5, 2.0, 2)
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, 10, replace=False)] = rng.choice([-1, 1], 10)
    g = build_graph(PointSet(points, labels), GraphConfig(mode="knn", k_neighbors=k))
    lap = laplacian(g)
    if soft:
        fit = np.where(labels != 0, 10.0, 0.1)
        return (lap + sp.diags(gamma_g + fit)).tocsr(), fit * labels
    u, l = np.flatnonzero(labels == 0), np.flatnonzero(labels != 0)
    return ((lap[np.ix_(u, u)] + gamma_g * sp.identity(u.size)).tocsr(),
            -lap[np.ix_(u, l)] @ labels[l])


class TestSparsePcgMatchesScipyCg:
    """The sparse path's own Jacobi-PCG loop gives scipy cg's bits."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(3, 12),
           st.sampled_from([1e-8, 1e-6, 1e-4, 1e-2]), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_knn_laplacian_systems_bit_identical(self, seed, extra, k, gamma_g, soft):
        a, b = _knn_system(seed, DENSE_MAX_N + 10 + extra, k, gamma_g, soft)
        assert b.size > DENSE_MAX_N
        want, _ = _scipy_cg(a, b, harmonic.DEFAULT_TOL)
        try:
            got = solve_spd(a, b)
        except SolverError:
            # only where scipy's answer misses the residual check as well
            assert np.linalg.norm(a @ want - b) > harmonic.DEFAULT_TOL * np.linalg.norm(b)
        else:
            assert np.array_equal(got, want)

    def test_iteration_cap_bit_identical_and_raises(self):
        # a chain whose edge weights span six decades, clamped at one end
        # with a 1e-12 sink: both loops run their 10n steps and stop far
        # from the tolerance
        n = DENSE_MAX_N + 10
        w = 10.0 ** np.random.default_rng(0).uniform(-3.0, 3.0, n)
        chain = SimilarityGraph(sp.diags(w[1:], 1) + sp.diags(w[1:], -1))
        lap = laplacian(chain)
        a = (lap[1:, 1:] + 1e-12 * sp.identity(n - 1)).tocsr()
        b = -lap[1:, 0].toarray().ravel()
        want, steps = _scipy_cg(a, b, harmonic.DEFAULT_TOL)
        assert steps == 10 * b.size
        stop = 0.5 * harmonic.DEFAULT_TOL * np.linalg.norm(b)
        assert np.array_equal(harmonic._jacobi_pcg(a, b, 1.0 / a.diagonal(), stop), want)
        with pytest.raises(SolverError, match="residual"):
            solve_spd(a, b)

class TestHardHarmonic:
    def test_balanced_neighbors_give_zero(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0
        g = SimilarityGraph(sp.csr_matrix(w))
        sol = hard_harmonic(g, np.array([1, 0, -1]), 0.0)
        assert sol.values[1] == pytest.approx(0.0, abs=1e-12)

    def test_weighted_average_single_node(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 2.0
        w[1, 2] = w[2, 1] = 1.0
        g = SimilarityGraph(sp.csr_matrix(w))
        sol = hard_harmonic(g, np.array([1, 0, -1]), 0.0)
        assert sol.values[1] == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_large_regularizer_drives_confidence_to_zero(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 2.0
        w[1, 2] = w[2, 1] = 1.0
        g = SimilarityGraph(sp.csr_matrix(w))
        prev = np.inf
        for gamma in (0.0, 1.0, 10.0, 1e3, 1e6):
            val = abs(hard_harmonic(g, np.array([1, 0, -1]), gamma).values[1])
            assert val <= prev + 1e-15
            prev = val
        assert prev < 1e-5

    def test_labeled_entries_clamped(self):
        g = random_graph(20, 3)
        labels = random_labels(20, 6, 3)
        sol = hard_harmonic(g, labels, 0.5)
        lab = labels != 0
        assert np.array_equal(sol.values[lab], labels[lab].astype(float))

    def test_harmonic_property_residual(self):
        for seed in range(10):
            g = random_graph(25, seed)
            labels = random_labels(25, 5, seed)
            sol = hard_harmonic(g, labels, 0.0)
            w = g.dense()
            for i in np.flatnonzero(labels == 0):
                avg = w[i] @ sol.values / g.degrees[i]
                assert abs(sol.values[i] - avg) < 1e-8

    def test_maximum_principle(self):
        for seed in range(10):
            g = random_graph(30, seed + 40)
            labels = random_labels(30, 8, seed)
            for gamma in (0.0, 0.3, 2.0):
                sol = hard_harmonic(g, labels, gamma)
                assert sol.values.max() <= 1 + 1e-9
                assert sol.values.min() >= -1 - 1e-9

    def test_unlabeled_component_without_label_fails(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        g = SimilarityGraph(sp.csr_matrix(w))
        with pytest.raises(DegenerateGraphError):
            hard_harmonic(g, np.array([1, 0, 0, 0]), 0.0)
        # a positive sink makes the same system solvable
        sol = hard_harmonic(g, np.array([1, 0, 0, 0]), 0.1)
        assert abs(sol.values[2]) < 1e-12 and abs(sol.values[3]) < 1e-12

    def test_no_labels_rejected(self):
        g = random_graph(5, 0)
        with pytest.raises(InputError):
            hard_harmonic(g, np.zeros(5), 0.0)

    def test_random_walk_decomposition_monte_carlo(self):
        # value at an unlabeled node = P(absorbed at +1) - P(absorbed at -1)
        g = random_graph(12, 77)
        labels = np.zeros(12, dtype=np.int64)
        labels[0], labels[1], labels[11] = 1, -1, 1
        sol = hard_harmonic(g, labels, 0.0)
        w = g.dense()
        p = w / w.sum(axis=1, keepdims=True)
        rng = np.random.default_rng(123)
        n_walks = 100_000
        for start in (4, 7):
            pos = np.full(n_walks, start)
            absorbed = np.zeros(n_walks)
            alive = np.ones(n_walks, dtype=bool)
            for _ in range(10_000):
                if not alive.any():
                    break
                current = pos[alive]
                u = rng.random(current.size)
                cdf = np.cumsum(p[current], axis=1)
                nxt = (u[:, None] < cdf).argmax(axis=1)
                pos[alive] = nxt
                hit = labels[nxt] != 0
                idx_alive = np.flatnonzero(alive)
                absorbed[idx_alive[hit]] = labels[nxt[hit]]
                alive[idx_alive[hit]] = False
            estimate = absorbed.mean()
            se = absorbed.std(ddof=1) / np.sqrt(n_walks)
            assert abs(estimate - sol.values[start]) < 3 * se + 1e-12


class TestHardSolveKept:
    """A graph keeps its last hard solve: a repeated (labels, gamma_g) call
    returns a fresh copy of it without solving again."""

    def _counted(self):
        return mock.patch.object(harmonic, "solve_harmonic", wraps=harmonic.solve_harmonic)

    def test_repeated_call_returns_equal_values_in_a_fresh_array(self):
        g = random_graph(30, 5)
        labels = random_labels(30, 6, 5)
        with self._counted() as solve:
            first = hard_harmonic(g, labels, 0.1).values
            want = first.copy()
            first[:] = 7.0              # the caller's array is its own
            second = hard_harmonic(g, labels, 0.1).values
            assert solve.call_count == 1
        assert np.array_equal(second, want) and second is not first
        second[:] = -7.0
        assert np.array_equal(hard_harmonic(g, labels, 0.1).values, want)

    def test_other_labels_dtype_or_gamma_g_misses(self):
        g = random_graph(30, 6)
        labels = random_labels(30, 6, 6)
        other = labels.copy()
        other[np.flatnonzero(labels == 0)[0]] = 1
        calls = [(labels, 0.1), (other, 0.1), (labels, 0.1), (labels.astype(np.float64), 0.1),
                 (labels, 0.2), (labels, 0.2)]
        with self._counted() as solve:
            got = [hard_harmonic(g, y, gamma).values for y, gamma in calls]
            assert solve.call_count == 5
        for (y, gamma), values in zip(calls, got):
            assert np.array_equal(values, harmonic.solve_harmonic(g.weights, y, gamma))

    def test_graphs_keep_their_own_solves(self):
        labels = random_labels(30, 6, 7)
        a, b = random_graph(30, 7), random_graph(30, 8)
        with self._counted() as solve:
            hard_harmonic(a, labels, 0.1)
            hard_harmonic(b, labels, 0.1)
            assert np.array_equal(hard_harmonic(a, labels, 0.1).values,
                                  harmonic.solve_harmonic(a.weights, labels, 0.1))
            assert solve.call_count == 3

    def test_label_free_component_raises_on_every_call(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        g = SimilarityGraph(sp.csr_matrix(w))
        for _ in range(3):
            with pytest.raises(DegenerateGraphError):
                hard_harmonic(g, np.array([1, 0, 0, 0]), 0.0)


class TestSoftHarmonic:
    @pytest.mark.parametrize("c_l, c_u, match", [
        (0.0, 0.1, "positive"), (1.0, -0.1, "positive"), (1.0, np.nan, "positive"),
        (1.0, 2.0, "c_u must not exceed c_l"), (np.inf, 0.1, "c_l must be finite"),
        (np.inf, np.inf, "c_l must be finite"), (1.0, np.inf, "c_u must be finite")])
    def test_bad_fit_weights_rejected(self, c_l, c_u, match):
        with pytest.raises(InputError, match=match):
            SoftConfig(1e-6, c_l, c_u)

    def test_isolated_labeled_node_scalar_system(self):
        g = SimilarityGraph(sp.csr_matrix(np.zeros((1, 1))))
        for gamma in (0.0, 1.0, 4.0):
            sol = soft_harmonic(g, np.array([1.0]), SoftConfig(gamma, 1.0, 1.0))
            assert sol.values[0] == pytest.approx(1.0 / (1.0 + gamma), abs=1e-12)

    def test_zero_targets_give_zero(self):
        g = random_graph(10, 2)
        sol = soft_harmonic(g, np.zeros(10), SoftConfig(0.5, 2.0, 0.5))
        assert np.array_equal(sol.values, np.zeros(10))

    def test_matches_dense_inverse_oracle(self):
        for seed in range(5):
            g = random_graph(30, seed + 10)
            labels = random_labels(30, 7, seed)
            y = labels.astype(float)
            cfg = SoftConfig(gamma_g=0.7, c_l=5.0, c_u=0.2)
            sol = soft_harmonic(g, y, cfg)
            c = np.diag(np.where(y != 0, cfg.c_l, cfg.c_u))
            k = laplacian(g).toarray() + cfg.gamma_g * np.eye(30)
            want = np.linalg.inv(np.linalg.inv(c) @ k + np.eye(30)) @ y
            assert np.allclose(sol.values, want, atol=1e-8)

    def test_first_order_condition_residual(self):
        g = random_graph(20, 9)
        y = random_labels(20, 6, 9).astype(float)
        cfg = SoftConfig(gamma_g=0.3, c_l=4.0, c_u=0.4)
        sol = soft_harmonic(g, y, cfg)
        c = np.where(y != 0, cfg.c_l, cfg.c_u)
        k = laplacian(g).toarray() + cfg.gamma_g * np.eye(20)
        resid = c * (sol.values - y) + k @ sol.values
        assert np.linalg.norm(resid) < 1e-8

    def test_norm_bound_for_small_fit_weights(self):
        # ||l||_2 <= sqrt(n_l) / (gamma_g + 1) for c_l <= 1 with a uniform
        # fit matrix (the bound's symmetric setting; with c_u < c_l the
        # non-symmetric system can exceed it)
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = int(rng.integers(8, 30))
            g = random_graph(n, 1000 + trial)
            n_l = int(rng.integers(1, n))
            labels = random_labels(n, n_l, trial)
            n_l_actual = int((labels != 0).sum())
            gamma = float(rng.choice([0.1, 1.0, 10.0]))
            c_val = float(rng.uniform(0.01, 1.0))
            cfg = SoftConfig(gamma_g=gamma, c_l=c_val, c_u=c_val)
            sol = soft_harmonic(g, labels.astype(float), cfg)
            assert np.linalg.norm(sol.values) <= np.sqrt(n_l_actual) / (gamma + 1) + 1e-9

    def test_monotone_shrinkage_in_gamma(self):
        g = random_graph(18, 21)
        y = random_labels(18, 5, 21).astype(float)
        norms = []
        for gamma in (0.0, 0.1, 0.5, 2.0, 10.0, 100.0):
            sol = soft_harmonic(g, y, SoftConfig(gamma, 3.0, 0.3))
            norms.append(np.linalg.norm(sol.values))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
