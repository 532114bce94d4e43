"""Similarity graphs over point sets: construction, Laplacians, random-walk
stationary distribution, and connected components.

Edge weights are Gaussian in the feature-weighted squared Euclidean
distance.  The same metric drives neighbor selection, so a k-NN graph and
its weights are always mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cc

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

    @property
    def labeled_mask(self) -> np.ndarray:
        return self.labels != 0


@dataclass(frozen=True)
class GraphConfig:
    """How to sparsify and weight a similarity graph.

    mode "knn" keeps an edge when either endpoint ranks the other among
    its k_neighbors nearest (union rule); mode "epsilon" keeps every
    pairwise weight >= eps_cut.  sigma == None applies the heuristic
    0.1 * mean of the per-feature standard deviations.
    """

    mode: str = "knn"
    k_neighbors: int = 5
    eps_cut: float = 0.0
    sigma: float | None = None
    normalize_by_p: bool = True

    def __post_init__(self):
        if self.mode not in ("knn", "epsilon"):
            raise InputError(f"unknown graph mode {self.mode!r}")
        if self.mode == "knn" and self.k_neighbors < 1:
            raise InputError("k_neighbors must be >= 1")
        if self.mode == "epsilon" and self.eps_cut < 0:
            raise InputError("eps_cut must be >= 0")
        if self.sigma is not None and not self.sigma > 0:
            raise InputError("sigma must be positive when given")

    @classmethod
    def parse(cls, text: str, sigma: float | None = None,
              normalize_by_p: bool = True) -> "GraphConfig":
        """Parse the CLI syntax ``knn:K`` or ``eps:E``."""
        kind, _, value = text.partition(":")
        if kind == "knn":
            return cls(mode="knn", k_neighbors=int(value or 5), sigma=sigma,
                       normalize_by_p=normalize_by_p)
        if kind == "eps":
            return cls(mode="epsilon", eps_cut=float(value or 0.0), sigma=sigma,
                       normalize_by_p=normalize_by_p)
        raise InputError(f"unknown graph spec {text!r}")


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
    denom = xi.size * sigma * sigma if normalize_by_p else sigma * sigma
    return float(np.exp(-sq / denom))


def gaussian_weights_matrix(a: np.ndarray, b: np.ndarray, sigma: float, psi: np.ndarray,
                            normalize_by_p: bool = True) -> np.ndarray:
    """Dense kernel block between two point arrays (rows of a vs rows of b)."""
    d = _kernels.cross_sq_dists(a, b, psi)
    denom = a.shape[1] * sigma * sigma if normalize_by_p else sigma * sigma
    return np.exp(-d / denom)


def _knn_mask(dists: np.ndarray, k: int) -> np.ndarray:
    n = dists.shape[0]
    d = dists.copy()
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")
    mask = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), k)
    mask[rows, order[:, :k].ravel()] = True
    return mask | mask.T


def build_graph(ps: PointSet, cfg: GraphConfig) -> SimilarityGraph:
    """Gaussian-weighted similarity graph, sparsified per ``cfg``."""
    n = ps.n
    if n < 2:
        raise InputError("graph construction needs at least 2 points")
    if cfg.mode == "knn" and cfg.k_neighbors >= n:
        raise InputError("k_neighbors must be smaller than the number of points")
    sigma = resolve_sigma(cfg, ps.points)
    dists = _kernels.pairwise_sq_dists(ps.points, ps.feature_weights)
    denom = ps.p * sigma * sigma if cfg.normalize_by_p else sigma * sigma
    w = np.exp(-dists / denom)
    np.fill_diagonal(w, 0.0)
    if cfg.mode == "knn":
        w[~_knn_mask(dists, cfg.k_neighbors)] = 0.0
    else:
        w[w < cfg.eps_cut] = 0.0
    return SimilarityGraph(sp.csr_matrix(w))


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


def component_labels(weights) -> np.ndarray:
    """Component index of each node of a dense or sparse weight matrix;
    nonzero entries are edges."""
    # csgraph's own conversion of a dense matrix is slower than CSR's
    return _cc(weights if sp.issparse(weights) else sp.csr_matrix(weights),
               directed=False)[1]


def connected_components(g: SimilarityGraph) -> list[np.ndarray]:
    """Components over nonzero-weight edges, ordered by smallest member."""
    labels = component_labels(g.weights)
    if labels.size == 0:
        return []
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    groups.sort(key=lambda a: int(a[0]))
    return groups
