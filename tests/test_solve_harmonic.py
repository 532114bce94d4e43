"""The one harmonic core against test-only copies of the four systems it
replaced: hard_harmonic and soft_harmonic on sparse graphs,
online.compact_harmonic on dense centroid weights and the backbone form of
cad.softhad_score (the former cad.backbone_cad).

The hard, soft and compact outputs must be bit-identical to the copies.
The backbone form used to add its diagonal as (gamma_g + c_l) v on dense
weights; the core adds gamma_g v and then c_l v on the graph's sparse
weights, so its scores may differ in the last bits, and above
DENSE_MAX_N nodes by what the conjugate-gradient solve leaves.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphssl import (CompactGraph, DegenerateGraphError, GraphConfig, InputError, PointSet,
                      SimilarityGraph, SoftConfig, build_graph, compact_harmonic,
                      hard_harmonic, laplacian, soft_harmonic, softhad_score,
                      solve_harmonic, solve_spd)
from graphssl import harmonic
from graphssl.harmonic import DENSE_MAX_N, solve_clamped

from _synth import random_graph, random_labels

GAMMAS = st.sampled_from([0.0, 1e-8, 1e-4, 0.3, 2.0])


def reference_hard(g, labels, gamma_g):
    """The sparse hard system as hard_harmonic assembled it before the core."""
    labels = np.asarray(labels, dtype=np.float64)
    values = labels.copy()
    u, l = np.flatnonzero(labels == 0), np.flatnonzero(labels != 0)
    if not u.size:
        return values
    a = laplacian(g)[np.ix_(u, u)] + gamma_g * sp.identity(u.size, format="csr")
    b = np.asarray(g.weights[np.ix_(u, l)] @ labels[l]).ravel()
    values[u] = solve_spd(a.tocsr(), b)
    return values


def reference_soft(g, y, cfg):
    """The sparse soft system as soft_harmonic assembled it before the core."""
    y = np.asarray(y, dtype=np.float64)
    c_diag = np.where(y != 0, cfg.c_l, cfg.c_u)
    k = laplacian(g) + cfg.gamma_g * sp.identity(g.n, format="csr")
    return solve_spd((k + sp.diags(c_diag)).tocsr(), c_diag * y)


def reference_mass_laplacian(w, v):
    """Dense D - W of W = V w V, diagonal of w ignored."""
    lap = -(v[:, None] * np.asarray(w, dtype=np.float64) * v[None, :])
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def reference_compact(w, v, labels, gamma_g):
    """The dense compact system as compact_harmonic assembled it before the core."""
    labels = np.asarray(labels, dtype=np.float64)
    values = labels.copy()
    u, l = np.flatnonzero(labels == 0), np.flatnonzero(labels != 0)
    if not u.size:
        return values
    lap = reference_mass_laplacian(w, v)
    a = lap[np.ix_(u, u)]
    a[np.diag_indices_from(a)] += gamma_g * v[u]
    values[u] = solve_spd(a, -lap[np.ix_(u, l)] @ labels[l])
    return values


def reference_backbone(g, v, y, cfg):
    """The dense backbone system as backbone_cad assembled it before the core."""
    a = reference_mass_laplacian(g.dense(), v)
    a[np.diag_indices_from(a)] += (cfg.gamma_g + cfg.c_l) * v
    return np.abs(solve_spd(a, cfg.c_l * v * y) - y)


def reference_weights(weights, v):
    """W = V weights V (W = weights when v is None), CSR for sparse
    weights, else dense, and its row sums d: the assembly that hard and soft
    systems were built from before one routine formed them."""
    if sp.issparse(weights):
        w = (weights if v is None else sp.diags(v) @ weights @ sp.diags(v)).tocsr()
        return w, np.asarray(w.sum(axis=1)).ravel()
    w = np.asarray(weights, dtype=np.float64)
    if v is not None:
        w = v[:, None] * w * v[None, :]
    return w, w.sum(axis=1)


def reference_solve(weights, y, gamma_g, fit=None, v=None):
    """solve_harmonic's systems formed from reference_weights: soft
    ``diag(d + gamma_g v + fit v) - W``, hard ``diag(d_u + gamma_g v_u) -
    W_uu`` with ``W_ul y_l``; dense blocks C-ordered, as np.ix_ gives them."""
    w, d = reference_weights(weights, v)
    ones = np.ones(y.shape[0]) if v is None else v
    diag = sp.diags if sp.issparse(w) else np.diag
    if fit is not None:
        return solve_spd(diag(d + gamma_g * ones + fit * ones) - w, fit * ones * y)
    u, l = np.flatnonzero(y == 0), np.flatnonzero(y)
    values = y.copy()
    if u.size:
        rows = w[u]
        uu, ul = (rows[:, u], rows[:, l]) if sp.issparse(w) else (w[np.ix_(u, u)],
                                                                    w[np.ix_(u, l)])
        values[u] = solve_spd(diag(d[u] + gamma_g * ones[u]) - uu, ul @ y[l])
    return values


def _size(side, extra):
    """Node counts on both sides of the dense-Cholesky / Jacobi-PCG cutoff."""
    return 2 + extra if side == "dense" else DENSE_MAX_N + 1 + extra


def _graph(n, seed):
    # sparse enough above the cutoff that PCG works on a k-NN-like system
    return random_graph(n, seed, density=0.4 if n <= DENSE_MAX_N else 8.0 / n)


@st.composite
def _csr_systems(draw):
    """Sparse weights with self-loops and repeated entries, stored as
    float64, float32 or int, with or without multiplicities, and the nodes
    u of a system: every node (soft), or up to DENSE_MAX_N of them (hard),
    also on graphs of more than DENSE_MAX_N nodes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    soft = draw(st.booleans())
    n = draw(st.integers(1, DENSE_MAX_N + 20) if soft else st.integers(2, 2 * DENSE_MAX_N))
    nnz = draw(st.integers(0, 6 * n))
    rows = np.sort(rng.integers(0, n, nnz))
    # unsorted columns, repeated (row, column) pairs and diagonal entries
    cols = np.where(rng.random(nnz) < 0.2, rows, rng.integers(0, min(n, 1 + nnz // 3), nnz))
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
    data = (rng.integers(0, 10, nnz) if dtype is np.int64 else 10 * rng.random(nnz)).astype(dtype)
    weights = sp.csr_matrix((data, cols, np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))
    v = draw(st.sampled_from([None, "whole", "real"]))
    v = None if v is None else (rng.integers(1, 8, n).astype(float) if v == "whole"
                                else rng.uniform(1.0, 8.0, n))
    if soft:
        u, extra = slice(None), rng.uniform(0.1, 10.0, n) * (1.0 if v is None else v)
    else:
        u = np.sort(rng.choice(n, draw(st.integers(1, min(n - 1, DENSE_MAX_N))), replace=False))
        extra = 0.0
    return weights, v, u, draw(st.sampled_from([0.0, 1e-8, 1e-2])), extra


def reference_csr_system(weights, v, u, gamma_g, extra):
    """``diag(d_u + gamma_g v_u + extra) - W_uu`` formed as CSR, as
    solve_harmonic's sparse systems were before a small one was formed
    dense, with W = V weights V scaled on the data."""
    w = weights.tocsr()
    if v is not None:
        w = w.astype(np.float64)
        w.data = w.data * np.repeat(v, np.diff(w.indptr)) * v[w.indices]
        w.eliminate_zeros()
    rows = w[u]
    d = np.asarray(rows.sum(axis=1)).ravel()
    return sp.diags(d + gamma_g * (1.0 if v is None else v[u]) + extra,
                    format="csr") - rows[:, u]


class TestCoreMatchesOldAssemblies:
    @given(st.sampled_from(["dense", "pcg"]), st.integers(0, 40), st.integers(0, 2**32 - 1),
           GAMMAS, st.booleans(), st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_one_assembly_bit_identical(self, side, extra, seed, gamma_g, sparse, soft,
                                        multiplicities, loops):
        # every system of solve_harmonic, hard and soft, on dense and sparse
        # weights, against the blocks of reference_weights
        n = _size(side, extra)
        rng = np.random.default_rng(seed)
        w = _graph(n, seed).dense()
        if loops:
            w += np.diag(rng.random(n))
        v = rng.integers(1, 8, n).astype(float) if multiplicities else None
        y = random_labels(n, 1 + seed % max(1, n // 4), seed).astype(float)
        fit = np.where(y != 0, 10.0, 0.1) if soft else None
        weights = sp.csr_matrix(w) if sparse else w
        got = solve_harmonic(weights, y, gamma_g, fit, v)
        assert np.array_equal(got, reference_solve(weights, y, gamma_g, fit, v))
        if not soft:
            # online prediction's call, without solve_harmonic's checks
            assert np.array_equal(solve_clamped(weights, y, gamma_g, v), got)

    @given(st.sampled_from(["dense", "pcg"]), st.integers(0, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-8, 1e-4, 0.3, 2.0]), st.booleans(), st.booleans(),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_multiplicities_on_built_graphs_bit_identical(self, side, extra, seed, gamma_g,
                                                          soft, whole, zeros):
        # V W V scaled on W's data has the bits of reference_weights' two
        # sparse products, on the k-NN graphs the library builds (gamma_g > 0:
        # such a graph may hold a label-free component), and on such a graph
        # with stored zeros, which the products drop
        n = _size(side, extra)
        rng = np.random.default_rng(seed)
        ps = PointSet(rng.normal(size=(n, 2)), np.zeros(n, dtype=int))
        w = build_graph(ps, GraphConfig(k_neighbors=min(5, n - 1), sigma=0.3)).weights
        if zeros:
            cut = np.triu(rng.random((n, n)) < 0.2, 1)
            r, c = w.nonzero()
            w = sp.csr_matrix((np.where((cut | cut.T)[r, c], 0.0, w.data), (r, c)), shape=(n, n))
        v = rng.integers(1, 8, n).astype(float) if whole else rng.uniform(1.0, 8.0, n)
        y = random_labels(n, 1 + seed % max(1, n // 4), seed).astype(float)
        fit = np.where(y != 0, 10.0, 0.1) if soft else None
        got = solve_harmonic(w, y, gamma_g, fit, v)
        assert np.array_equal(got, reference_solve(w, y, gamma_g, fit, v))

    @given(_csr_systems())
    @settings(max_examples=150, deadline=None)
    def test_small_system_is_the_csr_form_dense(self, case):
        # every system of at most DENSE_MAX_N rows is one dense C-ordered
        # block, whatever the weights' format: the bits of the CSR form's
        # toarray(); a larger one stays CSR
        a, _ = harmonic._system(*case)
        want = reference_csr_system(*case)
        if want.shape[0] > DENSE_MAX_N:
            a = a.toarray()
        else:
            assert isinstance(a, np.ndarray) and a.flags.c_contiguous
        want = want.toarray()
        assert a.dtype == want.dtype and a.tobytes() == want.tobytes()

    @given(st.sampled_from(["dense", "pcg"]), st.integers(0, 40),
           st.integers(0, 2**32 - 1), GAMMAS)
    @settings(max_examples=30, deadline=None)
    def test_hard_bit_identical(self, side, extra, seed, gamma_g):
        n = _size(side, extra)
        g = _graph(n, seed)
        labels = random_labels(n, 1 + seed % max(1, n // 4), seed)
        got = hard_harmonic(g, labels, gamma_g).values
        assert np.array_equal(got, reference_hard(g, labels, gamma_g))

    @given(st.sampled_from(["dense", "pcg"]), st.integers(0, 40),
           st.integers(0, 2**32 - 1), GAMMAS, st.sampled_from([(10.0, 0.1), (1.0, 1.0)]))
    @settings(max_examples=30, deadline=None)
    def test_soft_bit_identical(self, side, extra, seed, gamma_g, fits):
        n = _size(side, extra)
        g = _graph(n, seed)
        y = random_labels(n, 1 + seed % n, seed).astype(float)
        cfg = SoftConfig(gamma_g, *fits)
        assert np.array_equal(soft_harmonic(g, y, cfg).values, reference_soft(g, y, cfg))

    @given(st.integers(2, 60), st.integers(0, 2**32 - 1), GAMMAS)
    @settings(max_examples=60, deadline=None)
    def test_compact_bit_identical(self, n, seed, gamma_g):
        rng = np.random.default_rng(seed)
        w = random_graph(n, seed).dense()
        v = rng.integers(1, 8, n).astype(float)
        labels = random_labels(n, 1 + seed % n, seed)
        got = compact_harmonic(CompactGraph(w, v), labels, gamma_g).values
        want = reference_compact(w, v, labels, gamma_g)
        assert np.array_equal(got, want)
        # online prediction's call, without solve_harmonic's checks
        assert np.array_equal(solve_clamped(w, labels.astype(float), gamma_g, v), want)

    @given(st.integers(2, 60), st.integers(0, 2**32 - 1), GAMMAS,
           st.sampled_from([0.5, 1.0, 10.0]))
    @settings(max_examples=60, deadline=None)
    def test_backbone_within_1e12(self, n, seed, gamma_g, c_l):
        # scores are |l - y| with |y| = 1, so the tolerance is relative to
        # the solution l, whose scale is that of the labels
        rng = np.random.default_rng(seed)
        g = random_graph(n, seed)
        v = rng.integers(1, 8, n).astype(float)
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        cfg = SoftConfig(gamma_g, c_l, c_l)
        got = softhad_score(g, y, cfg, v)
        assert np.max(np.abs(got - reference_backbone(g, v, y, cfg))) <= 1e-12

    def test_backbone_forms_no_dense_weights(self):
        # above DENSE_MAX_N the sparse system is solved by Jacobi-PCG to
        # a relative residual of DEFAULT_TOL, not to the last bits
        n = DENSE_MAX_N + 50
        rng = np.random.default_rng(3)
        g = random_graph(n, 3, density=8 / n)
        v = rng.integers(1, 8, n).astype(float)
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        cfg = SoftConfig(1e-2, 1.0, 1.0)
        want = reference_backbone(g, v, y, cfg)
        with mock.patch.object(SimilarityGraph, "dense", side_effect=AssertionError("dense")):
            got = softhad_score(g, y, cfg, v)
        assert np.max(np.abs(got - want)) <= 1e-9


class TestCore:
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.1, 1.0]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_dense_and_sparse_weights_agree(self, n, seed, gamma_g, soft):
        # both go through dense Cholesky at this size; they differ only in
        # the order the degrees are summed, so 1e-12 relative holds on these
        # well-conditioned systems
        rng = np.random.default_rng(seed)
        w = random_graph(n, seed).dense()
        v = rng.integers(1, 8, n).astype(float)
        y = random_labels(n, 1 + seed % n, seed).astype(float)
        fit = np.where(y != 0, 3.0, 0.2) if soft else None
        dense = solve_harmonic(w, y, gamma_g, fit, v)
        sparse = solve_harmonic(sp.csr_matrix(w), y, gamma_g, fit, v)
        assert np.max(np.abs(dense - sparse)) <= 1e-12 * np.max(np.abs(sparse))

    def test_self_loops_do_not_change_the_solution(self):
        # hard and soft, with and without multiplicities, on dense and
        # sparse weights: the loop enters the degree and leaves the diagonal
        w = random_graph(12, 3).dense()
        y = random_labels(12, 3, 3).astype(float)
        looped = w + np.diag(np.arange(12.0))
        for fit, v in [(None, None), (np.where(y != 0, 3.0, 0.2), None),
                       (None, np.arange(1.0, 13.0)), (np.full(12, 0.5), np.arange(1.0, 13.0))]:
            for weights in (w, sp.csr_matrix(w)):
                base = solve_harmonic(weights, y, 0.1, fit, v)
                for loops in (looped, sp.csr_matrix(looped)):
                    got = solve_harmonic(loops, y, 0.1, fit, v)
                    assert np.allclose(got, base, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("gamma_g", [-0.01, np.nan, np.inf, -np.inf])
    def test_gamma_rejected_on_every_system(self, gamma_g):
        w = random_graph(6, 1).dense()
        y = np.array([1.0, 0, 0, 0, 0, -1.0])
        for weights in (w, sp.csr_matrix(w)):
            with pytest.raises(InputError, match="gamma_g"):
                solve_harmonic(weights, y, gamma_g)
            with pytest.raises(InputError, match="gamma_g"):
                solve_harmonic(weights, y, gamma_g, fit=np.ones(6))
        # the all-labeled shortcut does not skip the check
        with pytest.raises(InputError, match="gamma_g"):
            solve_harmonic(w, np.ones(6), gamma_g)

    def test_input_validation(self):
        w = random_graph(5, 2).dense()
        y = np.array([1.0, 0, 0, 0, -1.0])
        bad = [
            dict(weights=w[:4, :4]),
            dict(y=y[:4]),
            dict(y=np.array([1.0, np.nan, 0, 0, -1.0])),
            dict(y=np.zeros(5)),
            dict(multiplicities=np.array([1.0, 0.5, 1, 1, 1])),
            dict(multiplicities=np.array([1.0, np.nan, 1, 1, 1])),
            dict(multiplicities=np.ones(4)),
            dict(fit=np.array([1.0, 0.0, 1, 1, 1])),
            dict(fit=np.array([1.0, np.inf, 1, 1, 1])),
            dict(fit=np.ones(4)),
        ]
        for override in bad:
            kw = dict(weights=w, y=y, gamma_g=0.1) | override
            with pytest.raises(InputError):
                solve_harmonic(**kw)

    def test_all_labeled_hard_returns_labels(self):
        w = random_graph(4, 0).dense()
        y = np.array([1.0, -1.0, 2.0, -0.5])
        got = solve_harmonic(w, y, 0.0)
        assert np.array_equal(got, y) and got is not y

    def test_label_free_component_at_zero_gamma(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 1.0
        y = np.array([1.0, 0, 0, 0])
        for weights in (w, sp.csr_matrix(w)):
            with pytest.raises(DegenerateGraphError):
                solve_harmonic(weights, y, 0.0)
            assert solve_harmonic(weights, y, 0.1)[2:].tolist() == [0.0, 0.0]
            # a soft solve has a fit on every node and needs no label there
            assert np.all(np.isfinite(solve_harmonic(weights, y, 0.0, fit=np.ones(4))))
