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
    "epsilon" keeps every pairwise weight >= eps_cut from the dense n x n
    weights.  sigma == None applies the heuristic 0.1 * mean of the
    per-feature standard deviations.
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
        if self.sigma is not None and not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise InputError("sigma must be positive and finite when given")

    @classmethod
    def parse(cls, text: str, sigma: float | None = None) -> "GraphConfig":
        """Parse the CLI syntax ``knn:K`` or ``eps:E``."""
        kind, _, value = text.partition(":")
        if kind not in ("knn", "eps"):
            raise InputError(f"unknown graph spec {text!r}")
        try:
            number = int(value or 5) if kind == "knn" else float(value or 0.0)
        except ValueError:
            raise InputError(f"bad number in graph spec {text!r}") from None
        if kind == "knn":
            return cls(mode="knn", k_neighbors=number, sigma=sigma)
        return cls(mode="epsilon", eps_cut=number, sigma=sigma)


class SimilarityGraph:
    """Symmetric nonnegative sparse weight matrix with zero diagonal."""

    def __init__(self, weights: sp.spmatrix):
        w = sp.csr_matrix(weights, dtype=np.float64)
        if w.shape[0] != w.shape[1]:
            raise InputError("weight matrix must be square")
        w.setdiag(0.0)
        w.eliminate_zeros()
        self.weights = w
        self.degrees = np.asarray(w.sum(axis=1)).ravel()
        self.volume = float(self.degrees.sum())

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def validate(self) -> None:
        w = self.weights
        if (w != w.T).nnz != 0:
            raise InputError("weights must be exactly symmetric")
        if w.nnz and w.data.min() < 0:
            raise InputError("weights must be nonnegative")
        if np.any(w.diagonal() != 0):
            raise InputError("diagonal must be zero")
        row_sums = np.asarray(w.sum(axis=1)).ravel()
        scale = np.maximum(np.abs(row_sums), 1.0)
        if np.max(np.abs(row_sums - self.degrees) / scale) > 1e-12:
            raise InputError("stored degrees disagree with row sums")

    def subgraph(self, idx: np.ndarray) -> "SimilarityGraph":
        idx = np.asarray(idx, dtype=np.int64)
        return SimilarityGraph(self.weights[np.ix_(idx, idx)])

    def dense(self) -> np.ndarray:
        return self.weights.toarray()


def sigma_from_points(points: np.ndarray) -> float:
    """Kernel width heuristic: 10% of the mean per-feature standard deviation."""
    sigma = 0.1 * float(np.mean(np.std(np.asarray(points, dtype=np.float64), axis=0)))
    if not sigma > 0:
        raise DegenerateGraphError("degenerate point set: zero spread in every feature")
    return sigma


def resolve_sigma(cfg: GraphConfig, points: np.ndarray) -> float:
    return cfg.sigma if cfg.sigma is not None else sigma_from_points(points)


def gaussian_weight(xi, xj, sigma: float, psi=None, normalize_by_p: bool = True) -> float:
    """exp(-sum_k psi_k (xi_k - xj_k)^2 / (p sigma^2)); divisor sigma^2 when
    normalize_by_p is off.  Symmetric in its arguments, 1.0 at xi == xj."""
    xi = np.asarray(xi, dtype=np.float64)
    xj = np.asarray(xj, dtype=np.float64)
    if xi.shape != xj.shape or xi.ndim != 1:
        raise InputError("xi and xj must be vectors of equal length")
    if not sigma > 0:
        raise InputError("sigma must be positive")
    psi = np.ones(xi.size) if psi is None else np.asarray(psi, dtype=np.float64)
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(xj)) and np.all(np.isfinite(psi))):
        raise InputError("non-finite input")
    sq = float(np.sum(psi * (xi - xj) ** 2))
    return float(gaussian_of_sq_dists(sq, xi.size, sigma, normalize_by_p))


def _gaussian_in_place(d2: np.ndarray, p: int, sigma: float, normalize_by_p: bool):
    """exp(-d2 / (p sigma^2)), or exp(-d2 / sigma^2) when normalize_by_p is
    off, written over the float64 array d2; the one place the divisor is
    formed, as (p * sigma) * sigma.  d2 / -denom has the bits of -d2 / denom."""
    denom = p * sigma * sigma if normalize_by_p else sigma * sigma
    np.divide(d2, -denom, out=d2)
    return np.exp(d2, out=d2)


def gaussian_of_sq_dists(d2, p: int, sigma: float, normalize_by_p: bool):
    """exp(-d2 / (p sigma^2)), or exp(-d2 / sigma^2) when normalize_by_p is
    off, as a new array; d2 is left as it is."""
    return _gaussian_in_place(np.array(d2, dtype=np.float64), p, sigma, normalize_by_p)


def gaussian_weights_matrix(a: np.ndarray, b: np.ndarray, sigma: float, psi: np.ndarray,
                            normalize_by_p: bool = True) -> np.ndarray:
    """Dense kernel block between rows of a and rows of b, formed in place."""
    return _gaussian_in_place(_kernels.cross_sq_dists(a, b, psi), a.shape[1], sigma,
                              normalize_by_p)


# entries of one block of exact distances in _ranked_exactly (32 MB of float64)
_EXACT_BLOCK = 1 << 22


def _ranked_exactly(x: np.ndarray, psi: np.ndarray, k: int,
                    idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows idx of the k-NN lists by a stable argsort of each exact distance
    row, computed in blocks of at most _EXACT_BLOCK entries."""
    nbrs, nd = np.empty((idx.size, k), dtype=np.intp), np.empty((idx.size, k))
    step = max(1, _EXACT_BLOCK // len(x))
    for start in range(0, idx.size, step):
        part = idx[start:start + step]
        block = _kernels.cross_sq_dists(x[part], x, psi)
        block[np.arange(part.size), part] = np.inf
        rows = slice(start, start + part.size)
        nbrs[rows] = np.argsort(block, axis=1, kind="stable")[:, :k]
        nd[rows] = np.take_along_axis(block, nbrs[rows], axis=1)
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
    z = (x - x.mean(axis=0)) * np.sqrt(psi)
    z_max = float(np.sqrt(np.max(np.einsum("ij,ij->i", z, z))))
    if not z_max < 1e153:       # the tree's squared distances could overflow
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
    """Union-rule k-NN weight matrix in canonical CSR, zeros dropped."""
    n = ps.n
    nbrs, nd = _knn_lists(ps.points, ps.feature_weights, k)
    rows = np.repeat(np.arange(n), k)
    key = np.concatenate([rows * n + nbrs.ravel(), nbrs.ravel() * n + rows])
    # both directions of an edge carry the same distance bit for bit
    key, first = np.unique(key, return_index=True)
    w = gaussian_of_sq_dists(nd.ravel()[first % rows.size], ps.p, sigma, normalize_by_p)
    keep = w != 0.0
    key, w = key[keep], w[keep]
    indptr = np.searchsorted(key, np.arange(n + 1) * n)
    return sp.csr_matrix((w, key % n, indptr), shape=(n, n))


def build_graph(ps: PointSet, cfg: GraphConfig) -> SimilarityGraph:
    """Gaussian-weighted similarity graph, sparsified per ``cfg``.

    k-NN mode ranks each point's neighbours by (squared distance, index):
    ties, duplicate points included, go to the lowest index.  It needs
    O(n*k) memory and never forms an n x n matrix.  Epsilon mode forms the
    dense n x n weights.  Raises ``DegenerateGraphError`` when every weight
    the graph would keep underflows to 0 (sigma too small for the data).
    """
    n = ps.n
    if n < 2:
        raise InputError("graph construction needs at least 2 points")
    if cfg.mode == "knn" and cfg.k_neighbors >= n:
        raise InputError("k_neighbors must be smaller than the number of points")
    sigma = resolve_sigma(cfg, ps.points)
    if cfg.mode == "knn":
        w = _knn_weights(ps, cfg.k_neighbors, sigma, cfg.normalize_by_p)
        underflow = w.nnz == 0
    else:
        dists = _kernels.pairwise_sq_dists(ps.points, ps.feature_weights)
        w = gaussian_of_sq_dists(dists, ps.p, sigma, cfg.normalize_by_p)
        np.fill_diagonal(w, 0.0)
        underflow = not w.any()
        w[w < cfg.eps_cut] = 0.0
        w = sp.csr_matrix(w)
    if underflow:
        raise DegenerateGraphError(
            f"every {cfg.mode} edge weight underflows to 0 at sigma={sigma:.17g}")
    return SimilarityGraph(w)


def laplacian(g: SimilarityGraph, normalized: bool = False) -> sp.csr_matrix:
    """D - W, or I - D^{-1/2} W D^{-1/2} in normalized mode."""
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
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    groups.sort(key=lambda a: int(a[0]))
    return groups
