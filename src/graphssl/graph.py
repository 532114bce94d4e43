"""Similarity graphs over point sets: construction, Laplacians, random-walk
stationary distribution, and connected components.

Edge weights are Gaussian in the feature-weighted squared Euclidean
distance.  The same metric drives neighbor selection, so a k-NN graph and
its weights are always mutually consistent.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cc
from scipy.spatial import cKDTree

from . import _kernels
from .errors import DegenerateGraphError, InputError

LABEL_VALUES = (-1, 0, 1)
CLASSES = (1, -1)      # the two classes, in the order of every per-class pair
_TINY = float(np.finfo(np.float64).tiny)      # the smallest normal float


@dataclass(frozen=True)
class PointSet:
    """Points with partial {-1, 0, +1} labels (0 = unlabeled) and
    per-feature nonnegative weights used by the distance metric."""

    points: np.ndarray
    labels: np.ndarray
    feature_weights: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InputError("points must be a nonempty n x p matrix")
        if not np.all(np.isfinite(pts)):
            raise InputError("points must be finite")
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (pts.shape[0],):
            raise InputError("labels must be a length-n vector")
        if not np.all(np.isin(labels, LABEL_VALUES)):
            raise InputError("labels must be in {-1, 0, +1}")
        if self.feature_weights is None:
            fw = np.ones(pts.shape[1])
        else:
            fw = np.asarray(self.feature_weights, dtype=np.float64)
            if fw.shape != (pts.shape[1],):
                raise InputError("feature_weights must be a length-p vector")
            if not np.all(np.isfinite(fw)) or np.any(fw < 0):
                raise InputError("feature_weights must be finite and >= 0")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_weights", fw)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class GraphConfig:
    """How to sparsify and weight a similarity graph.

    mode "knn" keeps an edge when either endpoint ranks the other among
    its k_neighbors nearest (union rule); neighbours are ranked by
    (distance, index), so ties and duplicate points go to the lowest
    index, and the graph is built in O(n * k_neighbors) memory.  mode
    "epsilon" keeps every pairwise weight >= eps_cut, found by an exact
    scan of all pairs in row blocks without an n x n matrix.  sigma == None
    applies the heuristic 0.1 * mean of the per-feature standard deviations.
    """

    mode: str = "knn"
    k_neighbors: int = 5
    eps_cut: float = 0.0
    sigma: float | None = None
    normalize_by_p: bool = True

    def __post_init__(self):
        if self.mode not in ("knn", "epsilon"):
            raise InputError(f"unknown graph mode {self.mode!r}")
        try:
            object.__setattr__(self, "k_neighbors", operator.index(self.k_neighbors))
        except TypeError:
            raise InputError("k_neighbors must be an integer") from None
        if self.mode == "knn" and self.k_neighbors < 1:
            raise InputError("k_neighbors must be >= 1")
        if not math.isfinite(self.eps_cut):
            raise InputError("eps_cut must be finite")
        if self.mode == "epsilon" and self.eps_cut < 0:
            raise InputError("eps_cut must be >= 0")
        if self.sigma is not None:
            check_sigma(self.sigma)

    @classmethod
    def parse(cls, text: str, sigma: float | None = None) -> "GraphConfig":
        """Parse the CLI syntax ``knn:K`` or ``eps:E``."""
        kind, _, value = text.partition(":")
        if kind not in ("knn", "eps"):
            raise InputError(f"unknown graph spec {text!r}")
        try:
            number = (int(value or cls.k_neighbors) if kind == "knn"
                      else float(value or cls.eps_cut))
        except ValueError:
            raise InputError(f"bad number in graph spec {text!r}") from None
        if kind == "knn":
            return cls(mode="knn", k_neighbors=number, sigma=sigma)
        return cls(mode="epsilon", eps_cut=number, sigma=sigma)


class SimilarityGraph:
    """Symmetric nonnegative sparse weight matrix with zero diagonal, in the
    library's one canonical form: a float64 CSR copy of the input, in its
    entry order, without diagonal entries or stored zeros.

    The weights are not modified after construction: ``degrees`` and
    ``volume`` are computed once from them, and ``harmonic.hard_harmonic``
    keeps the graph's last hard solve in a private slot."""

    def __init__(self, weights: sp.spmatrix):
        # a copy, as zeroing writes in place; a repeated diagonal entry first
        # sums every repeated entry, as scipy's setdiag does
        w = sp.csr_matrix(weights, dtype=np.float64, copy=True)
        n = w.shape[0]
        if w.shape[1] != n:
            raise InputError("weight matrix must be square")
        row = np.repeat(np.arange(n), np.diff(w.indptr))
        if np.any(np.diff(row[w.indices == row]) == 0):
            w.sum_duplicates()
            row = np.repeat(np.arange(n), np.diff(w.indptr))
        w.data[w.indices == row] = 0.0
        w.eliminate_zeros()
        self.weights = w
        self.degrees = np.asarray(w.sum(axis=1)).ravel()
        self.volume = float(self.degrees.sum())
        self._hard_solve = None     # (key, values) of the last hard_harmonic

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def dense(self) -> np.ndarray:
        return self.weights.toarray()


def sigma_from_points(points: np.ndarray) -> float:
    """Kernel width heuristic: 10% of the mean per-feature standard
    deviation, which check_sigma must accept (InputError where the spread
    overflows or its square underflows)."""
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = 0.1 * float(np.mean(np.std(np.asarray(points, dtype=np.float64), axis=0)))
    if sigma == 0:
        raise DegenerateGraphError("degenerate point set: zero spread in every feature")
    check_sigma(sigma)
    return sigma


def check_sigma(sigma: float) -> None:
    """Raise unless the kernel width sigma is finite and > 0 with sigma^2 a
    normal float, so that no kernel divisor p sigma^2 underflows."""
    if not (math.isfinite(sigma) and sigma > 0 and _TINY <= sigma * sigma < math.inf):
        raise InputError(f"sigma={sigma!r} must be finite and > 0 with sigma^2 a normal float")


def resolve_sigma(sigma: float | None, points: np.ndarray) -> float:
    """The given kernel width, checked, or sigma_from_points when None."""
    if sigma is None:
        return sigma_from_points(points)
    check_sigma(sigma)
    return sigma


def gaussian_in_place(d2: np.ndarray, p: int, sigma: float, normalize_by_p: bool):
    """The library's only Gaussian form: exp(-d2 / (p sigma^2)), or
    exp(-d2 / sigma^2) without normalize_by_p, written over the float64 d2
    (d2 / -denom has the bits of -d2 / denom); InputError if denom is 0 or
    not finite.  A quotient past the float range, possible only for
    denom < 1, is a weight of exactly 0."""
    denom = p * sigma * sigma if normalize_by_p else sigma * sigma
    if not 0 < denom < math.inf:
        raise InputError(f"sigma={sigma!r} makes the kernel divisor {denom!r}, not a "
                         "positive finite float")
    if denom >= 1.0:
        np.divide(d2, -denom, out=d2)
    else:
        with np.errstate(over="ignore"):
            np.divide(d2, -denom, out=d2)
    return np.exp(d2, out=d2)


# entries of one block of an n x width product (32 MB of float64)
_EXACT_BLOCK = 1 << 22

# most entries an epsilon graph may keep: 2 GiB at 24 bytes an entry, 12 in
# the row blocks' CSR parts and 12 in their stacked copy
_EPS_MAX_ENTRIES = (2 << 30) // 24


def row_blocks(n: int, width: int):
    """Slices covering range(n) in order, each of at least one row and at
    most _EXACT_BLOCK entries of rows ``width`` wide: the library's one
    block rule for the n x width distance and kernel products."""
    step = max(1, _EXACT_BLOCK // max(1, width))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def sq_dist_blocks(a: np.ndarray, b: np.ndarray, psi: np.ndarray):
    """Feature-weighted squared distances between the rows of a and b as
    (rows, d2) pairs: d2 is ``cross_sq_dists(a[rows], b, psi)`` for each
    slice rows of ``row_blocks(len(a), len(b))``.  The caller may overwrite
    each d2 and must drop it before the next is formed, so memory stays at
    one block."""
    for rows in row_blocks(len(a), len(b)):
        yield rows, _kernels.cross_sq_dists(a[rows], b, psi)


def _ranked_exactly(x: np.ndarray, psi: np.ndarray, k: int,
                    idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows idx of the k-NN lists by a stable argsort of each exact distance
    row, one sq_dist_blocks block at a time.  A row's own column ranks after
    every other column, also where their distances are infinite."""
    nbrs, nd = np.empty((idx.size, k), dtype=np.intp), np.empty((idx.size, k))
    for rows, d2 in sq_dist_blocks(x[idx], x, psi):
        own = idx[rows]
        d2[np.arange(d2.shape[0]), own] = np.inf
        # the own column, if ranked among the first k + 1, is dropped from
        # them; else the (k+1)-th is
        head = np.argsort(d2, axis=1, kind="stable")[:, :k + 1]
        keep = head != own[:, None]
        keep[keep.all(axis=1), k] = False
        nbrs[rows] = head[keep].reshape(len(own), k)
        nd[rows] = np.take_along_axis(d2, nbrs[rows], axis=1)
        del d2                  # before the next block is formed
    return nbrs, nd


def _knn_lists(x: np.ndarray, psi: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's k nearest other points, ranked by (squared distance,
    index), and those squared distances: two n x k arrays.

    A KD-tree on the centred, sqrt(psi)-scaled points proposes 2k + 1
    candidates per row (the point itself usually among them); their exact
    distances are ranked.  A row stands only if every point outside its
    candidates is provably farther than its k-th neighbour, with a slack
    bounding the rounding of the scaled coordinates and of the tree's own
    distances.  Other rows (ties at the candidate boundary, many duplicate
    points) are ranked exactly against all n points.  The lists equal a
    stable argsort of the dense distance rows.
    """
    n, p = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        z = (x - x.mean(axis=0)) * np.sqrt(psi)
        z_max = float(np.sqrt(np.max(np.einsum("ij,ij->i", z, z))))
    if not z_max < 1e153:       # the tree's squared distances could overflow (or did)
        return _ranked_exactly(x, psi, k, np.arange(n))
    m = min(n, 2 * k + 1)
    kd_dist, cand = cKDTree(z).query(z, k=m)
    d = _kernels.pair_sq_dists(x, np.repeat(np.arange(n), m), cand.ravel(), psi).reshape(n, m)
    d[cand == np.arange(n)[:, None]] = np.inf
    order = np.lexsort((cand, d))[:, :k]
    nbrs = np.take_along_axis(cand, order, axis=1)
    nd = np.take_along_axis(d, order, axis=1)
    if m == n:
        return nbrs, nd
    # Scaling moves a coordinate by a few u * |z|, and the tree's distances
    # are off by a few u * (p + 2) * r: both bounded by the slack, in the
    # norm domain.  The last term covers subnormal rounding.
    u = np.finfo(np.float64).eps
    r = kd_dist[:, -1]
    slack = 8 * u * (p + 2) * (z_max + r) + np.sqrt((p + 2) * np.finfo(np.float64).tiny)
    redo = np.flatnonzero(~(np.sqrt(nd[:, -1]) < r - slack))
    nbrs[redo], nd[redo] = _ranked_exactly(x, psi, k, redo)
    return nbrs, nd


def _knn_weights(ps: PointSet, k: int, sigma: float, normalize_by_p: bool) -> sp.csr_matrix:
    """Union-rule k-NN weight matrix in sorted CSR, underflowed weights stored as 0."""
    n = ps.n
    nbrs, nd = _knn_lists(ps.points, ps.feature_weights, k)
    rows = np.repeat(np.arange(n), k)
    key = np.concatenate([rows * n + nbrs.ravel(), nbrs.ravel() * n + rows])
    # both directions of an edge carry the same distance bit for bit
    key, first = np.unique(key, return_index=True)
    w = gaussian_in_place(nd.ravel()[first % rows.size], ps.p, sigma, normalize_by_p)
    indptr = np.searchsorted(key, np.arange(n + 1) * n)
    return sp.csr_matrix((w, key % n, indptr), shape=(n, n))


def _epsilon_weights(ps: PointSet, eps_cut: float, sigma: float,
                     normalize_by_p: bool) -> tuple[sp.csr_matrix, bool]:
    """Every off-diagonal weight >= eps_cut, in canonical CSR, and whether
    every off-diagonal weight underflows to 0 before the cut.  Each row
    block's Gaussian is formed in its distance block and kept as CSR, so
    memory is one block plus O(n + nnz).  InputError once the kept entries
    pass _EPS_MAX_ENTRIES, counted before each block's CSR is formed."""
    parts, underflow, kept = [], True, 0
    for rows, w in sq_dist_blocks(ps.points, ps.points, ps.feature_weights):
        gaussian_in_place(w, ps.p, sigma, normalize_by_p)
        w[np.arange(w.shape[0]), np.arange(rows.start, rows.stop)] = 0.0
        underflow = underflow and not w.any()
        w[w < eps_cut] = 0.0
        kept += np.count_nonzero(w)
        if kept > _EPS_MAX_ENTRIES:
            raise InputError(
                f"the epsilon graph on {ps.n} points keeps {kept} entries by row "
                f"{rows.stop} at eps_cut={eps_cut!r}, sigma={sigma!r}, more than the "
                f"{_EPS_MAX_ENTRIES} it may hold: raise eps_cut or use a knn graph")
        parts.append(sp.csr_matrix(w))
        del w                   # before the next block is formed
    return sp.vstack(parts, format="csr"), underflow


def build_graph(ps: PointSet, cfg: GraphConfig) -> SimilarityGraph:
    """Gaussian-weighted similarity graph, sparsified per ``cfg``.

    k-NN mode ranks each point's neighbours by (squared distance, index):
    ties, duplicate points included, go to the lowest index.  It needs
    O(n*k) memory and never forms an n x n matrix.  Epsilon mode scans all
    pairs exactly, one row block of distances at a time, in memory of one
    block plus O(n + nnz); eps_cut = 0 gives the complete graph, and more
    than _EPS_MAX_ENTRIES kept entries raise ``InputError``.  Raises
    ``DegenerateGraphError`` when every weight the graph would keep
    underflows to 0 (sigma too small for the data).
    """
    n = ps.n
    if n < 2:
        raise InputError("graph construction needs at least 2 points")
    if cfg.mode == "knn" and cfg.k_neighbors >= n:
        raise InputError("k_neighbors must be smaller than the number of points")
    sigma = resolve_sigma(cfg.sigma, ps.points)
    if cfg.mode == "knn":
        w = _knn_weights(ps, cfg.k_neighbors, sigma, cfg.normalize_by_p)
        underflow = not w.data.any()
    else:
        w, underflow = _epsilon_weights(ps, cfg.eps_cut, sigma, cfg.normalize_by_p)
    if underflow:
        raise DegenerateGraphError(
            f"every {cfg.mode} edge weight underflows to 0 at sigma={sigma!r}")
    return SimilarityGraph(w)


def laplacian(g: SimilarityGraph, normalized: bool = False) -> sp.csr_matrix:
    """The graph Laplacian D - W as CSR, or I - D^{-1/2} W D^{-1/2} in
    normalized mode, which needs positive degrees; a self-loop cancels in
    D - W.  This is the library's one D - W.  The harmonic solves never
    form it: they assemble their systems from W's blocks and the degrees."""
    d = g.degrees
    if not normalized:
        return (sp.diags(d) - g.weights).tocsr()
    if np.any(d <= 0):
        raise DegenerateGraphError("normalized Laplacian needs positive degrees")
    inv_sqrt = sp.diags(1.0 / np.sqrt(d))
    return (sp.identity(g.n, format="csr") - inv_sqrt @ g.weights @ inv_sqrt).tocsr()


def stationary_distribution(g: SimilarityGraph) -> np.ndarray:
    """Stationary distribution of the degree-proportional random walk,
    d / vol; fixed point of the transition matrix D^{-1} W."""
    if g.volume <= 0:
        raise DegenerateGraphError("graph volume is zero")
    return g.degrees / g.volume


def dense_component(adj: np.ndarray, idx: int) -> np.ndarray:
    """Mask of the nodes joined to node idx by paths of True entries of the
    boolean matrix adj, found breadth-first: on 75 nodes a sixth of
    csgraph's time, most of which goes to building a CSR copy."""
    reach = np.zeros(adj.shape[0], dtype=bool)
    reach[idx] = True
    frontier = reach.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~reach
        reach |= frontier
    return reach


def component_labels(weights) -> np.ndarray:
    """Component index of each node of a dense or sparse weight matrix;
    nonzero entries are undirected edges, and components are numbered in
    the order of their smallest node, as csgraph numbers them."""
    if sp.issparse(weights):
        return _cc(weights, directed=False)[1]
    adj = np.asarray(weights) != 0
    adj |= adj.T
    labels = np.full(adj.shape[0], -1, dtype=np.int32)
    while (todo := np.flatnonzero(labels < 0)).size:
        labels[dense_component(adj, todo[0])] = labels.max() + 1
    return labels


def connected_components(g: SimilarityGraph) -> list[np.ndarray]:
    """Components over nonzero-weight edges, ordered by smallest member."""
    labels = component_labels(g.weights)
    if labels.size == 0:
        return []
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
