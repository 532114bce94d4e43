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
``harmonic.solve_clamped`` solves.  The centroid graph has at most
``capacity`` nodes, so it is kept as dense arrays and the system is
factored densely.

The sketch owns the centroids' cut Gaussian graph, its one O(k^2) array
for k centroids.  An added centroid updates the graph in place from the
distances its placement computed: one new row and column of weights, and
the cut redone only in the rows whose strongest edge it raised.  The graph
is rebuilt from the centroids' pairwise distances only when the set is
repartitioned or the kernel width or cut changes; a repartition computes
those distances once for its scan.  A prediction assembles its system
from the weight block of its centroid's component alone, which the graph
keeps until that component changes; a point that merges into an existing
centroid moves no centroid, so its prediction costs one solve.

The sketch's per-centroid state is arrays: the centroid rows, their
multiplicities and labels as float64 (the solve's own dtype, exact for
counts below 2**53), and a count of labeled centroids, so a step builds
no array from Python lists.  The graph keeps each node's component in an
array grown with its weights; an added node takes its own index as a
fresh component's label or joins its neighbours' components under the
smallest of their labels, and the components are numbered afresh only
when an older edge is cut.  On the online-stream benchmark (capacity 100,
solves of about 65 rows) a step took about 100-150 us on a shared 2-core
VM with one BLAS thread, of which the Cholesky factor and solve took
about 25 us; the rest is numpy call overhead on small arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError
from .graph import GraphConfig, check_sigma, component_labels, gaussian_in_place
from .harmonic import SoftLabels, check_gamma_g, solve_clamped, solve_harmonic

ABSTAIN = 0

# An edge is also cut when it is below this fraction of the strongest edge
# at either end.  A component that hangs on far weaker edges (1e-86 to 1e-11
# beside weights near 1) makes a small-gamma_g system numerically singular.
# The cut does not keep every system within the 1e-10 relative residual: an
# edge just above it can leave a tiny right-hand side beside a condition
# number near 1e8, a system that ``solve_spd`` accepts by its backward
# error.  Gaussian weights are at most 1, so this cut moves no weight once
# eps_cut = 0.1 gamma_g is at least 1e-4.
RELATIVE_CUT = 1e-4


class QuantizerState:
    """Sequential centroid sketch of a stream.

    Exactly one writer: observe() calls are strictly ordered.  After each
    call the centroid count is at most ``capacity``, pairwise centroid
    distances are at least ``radius``, and multiplicities sum to the
    number of points observed.  The centroids, their multiplicities and
    their labels are the first ``size`` rows of three arrays that grow
    together by doubling up to ``capacity + 1`` rows.  The
    cut Gaussian graph that ``graph()`` builds from them grows with each
    added centroid and is dropped when the set is repartitioned; it is the
    sketch's one O(k^2) array for k centroids.  Nothing of size
    ``capacity`` is allocated up front.
    """

    def __init__(self, capacity: int, growth: float = 1.5):
        if not (isinstance(capacity, numbers.Integral) and capacity >= 2):
            raise InputError(f"capacity must be an integer of at least 2, got {capacity!r}")
        if not (np.isfinite(growth) and growth > 1):
            raise InputError(f"growth factor must be finite and exceed 1, got {growth!r}")
        self.capacity = capacity
        self.growth = growth
        self.radius: float | None = None
        # rows [0, size) of the centroids, their multiplicities and their
        # labels in {-1, 0, +1}, all grown together
        self._size = 0
        self._rows: np.ndarray | None = None
        self._mult = np.empty(0)
        self._labels = np.empty(0)
        self._labeled = 0               # centroids with a nonzero label
        self._graph: CentroidGraph | None = None
        self.label_conflicts = 0
        self.observed = 0
        # old index -> new index mapping of the most recent observe(),
        # None when that call did not repartition
        self.last_repartition: list[int] | None = None

    @property
    def size(self) -> int:
        return self._size

    @property
    def multiplicities(self) -> list[int]:
        """Each centroid's multiplicity, as a new list."""
        return self._mult[:self._size].astype(np.int64).tolist()

    @property
    def centroid_labels(self) -> list[int]:
        """Each centroid's label in {-1, 0, +1}, as a new list."""
        return self._labels[:self._size].astype(np.int64).tolist()

    @property
    def centroids(self) -> np.ndarray:
        """The centroids as the rows of a read-only view; the next
        observe() may change it."""
        if self._rows is None:
            return np.empty((0, 0))
        view = self._rows[:self._size]
        view.flags.writeable = False
        return view

    def graph(self, sigma: float, normalize_by_p: bool, eps_cut: float) -> CentroidGraph:
        """The centroids' cut Gaussian graph, cached and grown with each
        added centroid until the set is repartitioned or the arguments
        change, which rebuild it."""
        if self._rows is None:
            raise InputError("the sketch has no centroids yet")
        if self._graph is None or self._graph.key != (sigma, normalize_by_p, eps_cut):
            self._graph = CentroidGraph(self.centroids, sigma, normalize_by_p, eps_cut)
        return self._graph

    def centroid_matrix(self) -> np.ndarray:
        """A copy of the centroids, one per row."""
        return self.centroids.copy()

    def observe(self, x: np.ndarray, label: int = 0) -> int:
        """Fold one point into the sketch; returns its centroid index
        (valid in post-call indexing).  A point that is empty, of another
        dimension than the centroids, not finite, or so far from a centroid
        that their squared distance overflows raises InputError before the
        sketch changes."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if not x.size:
            raise InputError("a point needs at least one feature")
        if self._rows is not None and x.shape != self._rows.shape[1:]:
            raise InputError("point dimension does not match existing centroids")
        if not np.isfinite(x).all():
            raise InputError("point coordinates must be finite")
        if label not in (-1, 0, 1):
            raise InputError("label must be in {-1, 0, +1}")
        idx = self._place(x, label)
        self.last_repartition = None
        self.observed += 1
        if self._size > self.capacity:
            mapping = self._repartition()
            self.last_repartition = mapping
            idx = mapping[idx]
        return idx

    def _place(self, x: np.ndarray, label: int) -> int:
        if self._rows is None:
            return self._append(x, label, np.empty(0))
        d2 = _kernels.cross_sq_dists(self._rows[:self._size], x[None, :], None).ravel()
        nearest = int(d2.argmin())
        if (d2[nearest] == 0.0 if self.radius is None
                else d2[nearest] < self.radius * self.radius):
            return self._absorb(nearest, label)
        if not np.isfinite(d2).all():
            # no radius could ever merge it with those centroids
            raise InputError("a point's squared distance to a centroid overflows")
        if self.radius is None:
            # first two distinct points set the initial radius
            self.radius = float(np.sqrt(d2[nearest]))
        return self._append(x, label, d2)

    def _append(self, x: np.ndarray, label: int, d2: np.ndarray) -> int:
        """Add x as a centroid; d2 holds its squared distances to the
        current centroids (cdist and pdist give equal bits per pair), which
        the graph may overwrite."""
        k = self._size
        if self._rows is None or k == self._rows.shape[0]:
            rows = min(max(16, 2 * k), self.capacity + 1)
            self._rows = np.resize(x if self._rows is None else self._rows, (rows, x.size))
            self._mult = np.resize(self._mult, rows)
            self._labels = np.resize(self._labels, rows)
        self._rows[k] = x
        self._mult[k] = 1.0
        self._labels[k] = label
        self._labeled += label != 0
        self._size = k + 1
        if k == self.capacity:
            self._graph = None          # observe() repartitions next
        elif self._graph is not None:
            self._graph.append(d2)
        return k

    def _absorb(self, idx: int, label: int) -> int:
        self._mult[idx] += 1.0
        self._labeled += self._merge_label(self._labels, idx, label)
        return idx

    def _merge_label(self, labels: np.ndarray, idx: int, label: float) -> bool:
        """An unlabeled labels[idx] takes label; another nonzero one
        conflicts.  Returns whether labels[idx] became labeled."""
        if label != 0:
            if labels[idx] == 0:
                labels[idx] = label
                return True
            if labels[idx] != label:
                self.label_conflicts += 1
        return False

    def _repartition(self) -> list[int]:
        """Grow the radius until a greedy scan keeps at most ``capacity``
        centroids, then merge each dropped centroid into its nearest
        survivor.  Returns the old->new index mapping."""
        n = self._size
        d2 = _kernels.pairwise_sq_dists(self.centroids, None)
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
        mult, labels = self._mult[keep], self._labels[keep]
        for i in range(n):
            if mapping[i] >= 0:
                continue
            target = int(np.argmin(d2[i, keep]))
            mapping[i] = target
            mult[target] += self._mult[i]
            self._merge_label(labels, target, self._labels[i])
        k = len(keep)
        self._rows[:k] = self._rows[keep]
        self._mult[:k], self._labels[:k] = mult, labels
        self._size, self._labeled = k, int(np.count_nonzero(labels))
        self._graph = None
        return mapping


def max_distortion(state: QuantizerState) -> float:
    """Upper bound on any observed point's distance to its centroid:
    the geometric series radius * (1 + 1/m + 1/m^2 + ...)."""
    if state.radius is None:
        return 0.0
    return state.radius * state.growth / (state.growth - 1.0)


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
    """Cut Gaussian similarities of the centroids, grown one centroid at a
    time, with every node's connected component kept current and each
    component's weight block cut out when it is first asked for and kept
    until a node joins that component.

    An edge survives only if its weight is at least eps_cut and at least
    ``RELATIVE_CUT`` times the strongest edge at either end; the diagonal is
    0.  The graph keeps only the cut weights and each node's strongest edge.
    Strongest edges only grow, so cut levels only rise: a cut entry stays
    cut and a kept one still holds its Gaussian weight.  ``append`` thus
    redoes the cut from the cut weights, in the new node's row and in the
    rows whose strongest edge it raised, with the bits of a graph
    constructed from the grown centroid set.  The weights grow by
    doubling.  ``weights`` is a read-only view.
    """

    def __init__(self, centroids: np.ndarray, sigma: float, normalize_by_p: bool,
                 eps_cut: float):
        """The graph of the centroids, one per row."""
        check_sigma(sigma)
        if not (np.isfinite(eps_cut) and eps_cut >= 0):
            raise InputError(f"eps_cut={eps_cut!r} (sigma={sigma!r}) must be finite and >= 0")
        self.key = (sigma, normalize_by_p, eps_cut)
        self._p = centroids.shape[1]
        gauss = gaussian_in_place(_kernels.pairwise_sq_dists(centroids, None), self._p, sigma,
                                  normalize_by_p)
        np.fill_diagonal(gauss, 0.0)
        self._size = gauss.shape[0]
        self._strongest = gauss.max(axis=1)
        gauss[gauss < self._threshold(slice(None))] = 0.0
        self._cut = gauss
        self._label_components()

    @property
    def weights(self) -> np.ndarray:
        view = self._cut[:self._size, :self._size]
        view.flags.writeable = False
        return view

    def _threshold(self, rows) -> np.ndarray:
        """Cut level of the edges in the given rows: eps_cut, or RELATIVE_CUT
        times the stronger of the two ends' strongest edges."""
        s = self._strongest[:self._size]
        return np.maximum(self.key[2], RELATIVE_CUT * np.maximum.outer(s[rows], s))

    def append(self, d2: np.ndarray) -> None:
        """Add a node whose squared distances to the current nodes are d2,
        which becomes its Gaussian weights in place."""
        n = self._size
        if n == self._cut.shape[0]:
            grown = np.empty((max(16, 2 * n),) * 2)
            grown[:n, :n] = self._cut[:n, :n]
            self._cut = grown
            self._strongest = np.resize(self._strongest, grown.shape[0])
            self._component = np.resize(self._component, grown.shape[0])
        sigma, normalize_by_p, _ = self.key
        row = gaussian_in_place(d2, self._p, sigma, normalize_by_p)
        self._cut[n, :n] = row
        self._cut[:n, n] = row
        self._cut[n, n] = 0.0
        raised = (row > self._strongest[:n]).nonzero()[0]
        self._strongest[raised] = row[raised]
        self._strongest[n] = row.max()
        self._size = n + 1
        # no other entry's cut level moves
        redo = np.append(raised, n)
        before = self._cut[redo, :n + 1]
        cut = np.where(before < self._threshold(redo), 0.0, before)
        self._cut[redo, :n + 1] = cut
        self._cut[:n + 1, redo] = cut.T
        if raised.size and ((before[:-1, :n] != 0) & (cut[:-1, :n] == 0)).any():
            self._label_components()    # an older edge was cut
            return
        # the new node joins its neighbours' components into the one with
        # the smallest label, and their cached blocks are dropped
        component = self._component[:n + 1]
        joined = component[:n][cut[-1, :n] != 0]
        if not joined.size:
            # a label is at most the smallest index in its component, which
            # is below n, so no live label equals n
            component[n] = n
            return
        component[n] = label = int(joined.min())
        if (joined != label).any():
            component[np.isin(component, joined)] = label
        for old in set(joined.tolist()):
            self._blocks.pop(old, None)

    def _label_components(self) -> None:
        """Number each node's component afresh and drop the cached blocks."""
        labels = component_labels(self.weights)
        self._component = np.empty(self._cut.shape[0], dtype=labels.dtype)
        self._component[:self._size] = labels
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def block(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted indices of the nodes joined to node idx by nonzero edges,
        and their contiguous weight block, kept from the first time a node
        of the component is asked for until the component changes."""
        label = int(self._component[idx])
        if label not in self._blocks:
            comp = (self._component[:self._size] == label).nonzero()[0]
            # C-ordered, as np.ix_ gives it (the solve's bits depend on the
            # layout), in about half of np.ix_'s time
            self._blocks[label] = comp, self._cut.take(comp, axis=0).take(comp, axis=1)
        return self._blocks[label]


def predict_online(state: QuantizerState, x: np.ndarray, label: int, gamma_g: float,
                   graph_cfg: GraphConfig) -> OnlineStep:
    """Fold x into the sketch, then predict its label from the compact
    harmonic solution on the centroid graph.

    Centroid similarities are cut at eps = 0.1 * gamma_g and relative to
    the strongest edge at each end (``CentroidGraph``); a point whose
    centroid sits in a component with no labeled centroid is treated as
    an outlier and the step abstains.  The graph and the component's
    weight block are the sketch's cached ones, so a step that moves no
    centroid only solves.  A labeled centroid's value is clamped to its
    label, so its step predicts that sign without a solve.  An invalid
    gamma_g or a missing or invalid sigma raises before the sketch
    changes.  Of graph_cfg only sigma and normalize_by_p are read.
    """
    check_gamma_g(gamma_g)
    if graph_cfg.sigma is None:
        raise InputError("online prediction needs an explicit sigma")
    check_sigma(graph_cfg.sigma)
    idx = state.observe(x, label)
    if not state._labeled:
        return OnlineStep(ABSTAIN, True, idx)
    graph = state.graph(graph_cfg.sigma, graph_cfg.normalize_by_p, 0.1 * gamma_g)
    labels = state._labels
    if labels[idx] != 0:
        return OnlineStep(int(labels[idx]), False, idx)
    comp, weights = graph.block(idx)
    y = labels[comp]
    if not np.count_nonzero(y):
        return OnlineStep(ABSTAIN, True, idx)
    value = solve_clamped(weights, y, gamma_g, state._mult[comp])[int(comp.searchsorted(idx))]
    if value == 0.0:
        return OnlineStep(ABSTAIN, True, idx)
    return OnlineStep(1 if value > 0 else -1, False, idx)
