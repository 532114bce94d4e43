"""Streaming quantization with a bounded centroid budget, plus the compact
harmonic solve over centroid multiplicities.

The quantizer is an incremental k-centers scheme: a point within the
current radius of a centroid merges into it, anything else becomes a new
centroid, and when the budget overflows the radius is multiplied by a
factor > 1 and the centroid set is greedily thinned so survivors stay at
least one radius apart.  Any point ever observed is then within
radius * growth / (growth - 1) of its (possibly re-merged) centroid.

A graph whose nodes carry multiplicities v behaves exactly like the graph
where node i is replicated v_i times: edge conductances add, so the full
harmonic solution is recovered from the small system
``(L_uu + gamma_g V_uu) l_u = W_ul l_l`` with W = V W~ V, which
``harmonic.solve_harmonic`` solves.  The centroid graph has at most
``capacity`` nodes, so it is kept as dense arrays and the system is
factored densely.

The sketch owns the centroids' squared-distance matrix and their cut
Gaussian graph, at O(k^2) memory for k centroids: the distances grow by
doubling with the centroid rows, and the graph is rebuilt from them only
when a centroid is added or the set is repartitioned, or when the kernel
width or cut changes.  A point that merges into an existing centroid moves
no centroid, so its prediction reuses the graph and costs one solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError
from .graph import GraphConfig, dense_component, gaussian_of_sq_dists
from .harmonic import SoftLabels, check_gamma_g, solve_harmonic

ABSTAIN = 0

# An edge is also cut when it is below this fraction of the strongest edge
# at either end.  Weaker edges leave the harmonic system too ill-conditioned
# for the solver's 1e-10 residual check.  Gaussian weights are at most 1, so
# this cut moves no weight once eps_cut = 0.1 gamma_g is at least 1e-4.
RELATIVE_CUT = 1e-4


class QuantizerState:
    """Sequential centroid sketch of a stream.

    Exactly one writer: observe() calls are strictly ordered.  After each
    call the centroid count is at most ``capacity``, pairwise centroid
    distances are at least ``radius``, and multiplicities sum to the
    number of points observed.  The centroids are the first ``size`` rows
    of one array that grows by doubling up to ``capacity + 1`` rows; their
    squared distances are kept in a square array that grows with it, and
    the cut Gaussian graph that ``graph()`` builds from them is kept until
    a centroid is added or the set is repartitioned.  Both cost O(k^2)
    memory for k centroids; nothing of size ``capacity`` is allocated up
    front.
    """

    def __init__(self, capacity: int, growth: float = 1.5):
        if capacity < 2:
            raise InputError("capacity must be at least 2")
        if not growth > 1:
            raise InputError("growth factor must exceed 1")
        self.capacity = capacity
        self.growth = growth
        self.radius: float | None = None
        self._rows: np.ndarray | None = None
        self._sq_dists: np.ndarray | None = None
        self._graph: CentroidGraph | None = None
        self.multiplicities: list[int] = []
        self.centroid_labels: list[int] = []
        self.label_conflicts = 0
        self.observed = 0
        # old index -> new index mapping of the most recent observe(),
        # None when that call did not repartition
        self.last_repartition: list[int] | None = None

    @property
    def size(self) -> int:
        return len(self.multiplicities)

    @property
    def centroids(self) -> np.ndarray:
        """The centroids as the rows of a read-only view; the next
        observe() may change it."""
        if self._rows is None:
            return np.empty((0, 0))
        view = self._rows[:self.size]
        view.flags.writeable = False
        return view

    @property
    def sq_dists(self) -> np.ndarray:
        """Squared distances between the centroids, as a read-only view
        equal to ``pairwise_sq_dists(centroids)``; the next observe() may
        change it."""
        if self._sq_dists is None:
            return np.empty((0, 0))
        view = self._sq_dists[:self.size, :self.size]
        view.flags.writeable = False
        return view

    def graph(self, sigma: float, normalize_by_p: bool, eps_cut: float) -> CentroidGraph:
        """The centroids' cut Gaussian graph, cached until a centroid is
        added, the set is repartitioned or the arguments change."""
        if self._rows is None:
            raise InputError("the sketch has no centroids yet")
        key = (sigma, normalize_by_p, eps_cut)
        if self._graph is None or self._graph.key != key:
            self._graph = CentroidGraph.build(self.sq_dists, self._rows.shape[1], *key)
        return self._graph

    def centroid_matrix(self) -> np.ndarray:
        """A copy of the centroids, one per row."""
        return self.centroids.copy()

    def max_distortion(self) -> float:
        """Upper bound on any observed point's distance to its centroid:
        the geometric series radius * (1 + 1/m + 1/m^2 + ...)."""
        if self.radius is None:
            return 0.0
        return self.radius * self.growth / (self.growth - 1.0)

    def observe(self, x: np.ndarray, label: int = 0) -> int:
        """Fold one point into the sketch; returns its centroid index
        (valid in post-call indexing)."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if self._rows is not None and x.shape != self._rows.shape[1:]:
            raise InputError("point dimension does not match existing centroids")
        if label not in (-1, 0, 1):
            raise InputError("label must be in {-1, 0, +1}")
        self.last_repartition = None
        self.observed += 1
        idx = self._place(x, label)
        if self.size > self.capacity:
            mapping = self._repartition()
            self.last_repartition = mapping
            idx = mapping[idx]
        return idx

    def _place(self, x: np.ndarray, label: int) -> int:
        if self._rows is None:
            return self._append(x, label, np.empty(0))
        d2 = _kernels.cross_sq_dists(self.centroids, x[None, :],
                                     np.ones(x.size)).ravel()
        nearest = int(np.argmin(d2))
        if self.radius is None:
            if d2[nearest] == 0.0:
                return self._absorb(nearest, label)
            # first two distinct points set the initial radius
            self.radius = float(np.sqrt(d2[nearest]))
            return self._append(x, label, d2)
        if d2[nearest] < self.radius * self.radius:
            return self._absorb(nearest, label)
        return self._append(x, label, d2)

    def _append(self, x: np.ndarray, label: int, d2: np.ndarray) -> int:
        """Add x as a centroid; d2 holds its squared distances to the
        current centroids (cdist and pdist give equal bits per pair)."""
        k = self.size
        if self._rows is None or k == self._rows.shape[0]:
            rows = min(max(16, 2 * k), self.capacity + 1)
            grown, grown_d2 = np.empty((rows, x.size)), np.empty((rows, rows))
            if k:
                grown[:k] = self._rows[:k]
                grown_d2[:k, :k] = self._sq_dists[:k, :k]
            self._rows, self._sq_dists = grown, grown_d2
        self._rows[k] = x
        self._sq_dists[k, :k] = d2
        self._sq_dists[:k, k] = d2
        self._sq_dists[k, k] = 0.0
        self._graph = None
        self.multiplicities.append(1)
        self.centroid_labels.append(label)
        return self.size - 1

    def _absorb(self, idx: int, label: int) -> int:
        self.multiplicities[idx] += 1
        self._merge_label(self.centroid_labels, idx, label)
        return idx

    def _merge_label(self, labels: list[int], idx: int, label: int) -> None:
        """An unlabeled labels[idx] takes label; another nonzero one conflicts."""
        if label != 0:
            if labels[idx] == 0:
                labels[idx] = label
            elif labels[idx] != label:
                self.label_conflicts += 1

    def _repartition(self) -> list[int]:
        """Grow the radius until a greedy scan keeps at most ``capacity``
        centroids, then merge each dropped centroid into its nearest
        survivor.  Returns the old->new index mapping."""
        n = self.size
        d2 = self._sq_dists[:n, :n]
        while True:
            self.radius *= self.growth
            r2 = self.radius * self.radius
            # scan in index order: keep a centroid unless a kept one lies
            # closer than the radius (d2 is exactly symmetric)
            keep: list[int] = []
            near_kept = np.zeros(n, dtype=bool)
            for i in range(n):
                if not near_kept[i]:
                    keep.append(i)
                    near_kept |= d2[i] < r2
            if len(keep) <= self.capacity:
                break
        mapping = [-1] * n
        for new, old in enumerate(keep):
            mapping[old] = new
        mult = [self.multiplicities[i] for i in keep]
        labels = [self.centroid_labels[i] for i in keep]
        for i in range(n):
            if mapping[i] >= 0:
                continue
            target = int(np.argmin(d2[i, keep]))
            mapping[i] = target
            mult[target] += self.multiplicities[i]
            self._merge_label(labels, target, self.centroid_labels[i])
        self._rows[:len(keep)] = self._rows[keep]
        self._sq_dists[:len(keep), :len(keep)] = d2[np.ix_(keep, keep)]
        self._graph = None
        self.multiplicities = mult
        self.centroid_labels = labels
        return mapping


def observe(state: QuantizerState, x: np.ndarray, label: int = 0) -> tuple[QuantizerState, int]:
    idx = state.observe(x, label)
    return state, idx


def max_distortion(state: QuantizerState) -> float:
    return state.max_distortion()


@dataclass(frozen=True)
class CompactGraph:
    """Centroid similarity W~ plus multiplicities; the working weights are
    W = V W~ V."""

    centroid_weights: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.centroid_weights, dtype=np.float64)
        v = np.asarray(self.multiplicities, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InputError("centroid weights must be square")
        if v.shape != (w.shape[0],) or np.any(v < 1):
            raise InputError("multiplicities must be a length-k vector of values >= 1")
        object.__setattr__(self, "centroid_weights", w)
        object.__setattr__(self, "multiplicities", v)


def compact_harmonic(cg: CompactGraph, centroid_labels: np.ndarray,
                     gamma_g: float = 0.0) -> SoftLabels:
    """Harmonic solution over centroids that equals the full solve on the
    graph where centroid i is replicated multiplicities[i] times."""
    return SoftLabels(solve_harmonic(cg.centroid_weights, centroid_labels, gamma_g,
                                     multiplicities=cg.multiplicities))


@dataclass(frozen=True)
class OnlineStep:
    prediction: int
    abstained: bool
    centroid: int


class CentroidGraph:
    """Cut Gaussian similarities of the centroids, with their connected
    components found on demand.

    An edge survives only if its weight is at least eps_cut and at least
    ``RELATIVE_CUT`` times the strongest edge at either end; the diagonal is
    0.  ``weights`` is read-only.
    """

    def __init__(self, key: tuple, weights: np.ndarray):
        self.key = key
        self.weights = weights
        self.weights.flags.writeable = False
        self._component = np.full(weights.shape[0], -1)

    @classmethod
    def build(cls, sq_dists: np.ndarray, p: int, sigma: float, normalize_by_p: bool,
              eps_cut: float) -> CentroidGraph:
        w = gaussian_of_sq_dists(sq_dists, p, sigma, normalize_by_p)
        np.fill_diagonal(w, 0.0)
        strongest = w.max(axis=1)
        w[w < np.maximum(eps_cut, RELATIVE_CUT * np.maximum.outer(strongest, strongest))] = 0.0
        return cls((sigma, normalize_by_p, eps_cut), w)

    def component(self, idx: int) -> np.ndarray:
        """Sorted indices of the nodes joined to node idx by nonzero edges,
        found the first time a node of the component is asked for."""
        if self._component[idx] < 0:
            self._component[dense_component(self.weights != 0, idx)] = idx
        return np.flatnonzero(self._component == self._component[idx])


def predict_online(state: QuantizerState, x: np.ndarray, label: int, gamma_g: float,
                   graph_cfg: GraphConfig) -> OnlineStep:
    """Fold x into the sketch, then predict its label from the compact
    harmonic solution on the centroid graph.

    Centroid similarities are cut at eps = 0.1 * gamma_g and relative to
    the strongest edge at each end (``CentroidGraph``); a point whose
    centroid sits in a component with no labeled centroid is treated as
    an outlier and the step abstains.  The graph is the sketch's cached
    one, so a step that moves no centroid only solves.  An invalid gamma_g
    raises before the sketch changes.
    """
    check_gamma_g(gamma_g)
    idx = state.observe(x, label)
    labels = np.asarray(state.centroid_labels, dtype=np.float64)
    if not np.any(labels != 0):
        return OnlineStep(ABSTAIN, True, idx)
    if graph_cfg.sigma is None:
        raise InputError("online prediction needs an explicit sigma")
    graph = state.graph(graph_cfg.sigma, graph_cfg.normalize_by_p, 0.1 * gamma_g)
    comp = graph.component(idx)
    if not np.any(labels[comp] != 0):
        return OnlineStep(ABSTAIN, True, idx)
    cg = CompactGraph(graph.weights[np.ix_(comp, comp)], np.asarray(state.multiplicities)[comp])
    sol = compact_harmonic(cg, labels[comp], gamma_g)
    value = sol.values[int(np.searchsorted(comp, idx))]
    if value == 0.0:
        return OnlineStep(ABSTAIN, True, idx)
    return OnlineStep(int(np.sign(value)), False, idx)
