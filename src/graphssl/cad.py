"""Conditional anomaly scoring: how unusual is the label given the point.

Three scorers:

* random-walk CAD — per-class kernel mass feeds a class-conditional
  density proxy ``mass / (vol + 2 mass)``; the Bayes posterior of the
  opposite label gets an additive ``lam`` in the denominator that acts as
  an "everything else" class and suppresses isolated/fringe points;
* weighted k-NN — the plain Parzen posterior of the opposite label;
* soft harmonic scoring — propagate all (fully labeled) targets softly
  and score each example by |propagated - actual|, optionally on a
  multiplicity-weighted backbone graph.

rwcad and k-NN share one kernel-mass routine: the row sums of the Gaussian
kernel between query rows and a class's training points, formed in place,
one row block of at most ``graph._EXACT_BLOCK`` entries at a time, so memory
is O(block + n).  Leave-one-out (LOO) masses zero the point's own column,
and a class volume is the sum of its points' LOO masses; both sum in another
order than one dense kernel, within a relative 1e-14, while test-row masses
are bit-identical to it.  Both scorers fit the model, so a training set
with one class raises ``DegenerateGraphError`` in every path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels, graph
from .errors import DegenerateGraphError, InputError
from .graph import PointSet, SimilarityGraph, gaussian_weights_matrix, sigma_from_points
from .harmonic import SoftConfig, soft_harmonic, solve_harmonic
from .rng import PortableRng

LAMBDA_GRID = tuple(10.0 ** e for e in range(-5, 6))


def _kernel_mass(x: np.ndarray, points: np.ndarray, sigma: float, psi: np.ndarray,
                 normalize_by_p: bool, own: np.ndarray | None = None) -> np.ndarray:
    """Row sums of the Gaussian kernel between the rows of x and points,
    formed in row blocks of at most graph._EXACT_BLOCK entries; own[i],
    when given, is a column zeroed in row i before the sum."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != points.shape[1]:
        raise InputError(f"query rows have {x.shape[1]} features, training {points.shape[1]}")
    out = np.empty(x.shape[0])
    step = max(1, graph._EXACT_BLOCK // max(1, points.shape[0]))
    for start in range(0, x.shape[0], step):
        w = gaussian_weights_matrix(x[start:start + step], points, sigma, psi, normalize_by_p)
        if own is not None:
            w[np.arange(w.shape[0]), own[start:start + step]] = 0.0
        out[start:start + step] = w.sum(axis=1)
        del w                   # before the next block is formed
    return out


@dataclass(frozen=True)
class CadModel:
    """Per-class training points with precomputed graph volumes, class
    priors, and the regularizer lam."""

    points_pos: np.ndarray
    points_neg: np.ndarray
    vol_pos: float
    vol_neg: float
    prior_pos: float
    prior_neg: float
    lam: float
    sigma: float
    psi: np.ndarray
    normalize_by_p: bool = True
    # each class's LOO masses of its own points, set by fit_cad_model
    _own_masses: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def masses(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kernel mass of each query row against each class."""
        return self._mass(x, self.points_pos), self._mass(x, self.points_neg)

    def _mass(self, x, points) -> np.ndarray:
        return _kernel_mass(x, points, self.sigma, self.psi, self.normalize_by_p)


def check_cad_params(lam, priors: str = "empirical") -> np.ndarray:
    """Raise unless priors is "empirical" or "uniform" and lam a scalar or
    1-D array of values >= 0; returns lam as an array."""
    if priors not in ("empirical", "uniform"):
        raise InputError("priors must be 'empirical' or 'uniform'")
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim > 1:
        raise InputError("lam must be a scalar or a 1-D sequence")
    if not np.all(lam >= 0):
        raise InputError("lam must be >= 0 (and not NaN)")
    return lam


def fit_cad_model(train: PointSet, lam: float = 0.0, sigma: float | None = None,
                  normalize_by_p: bool = True, priors: str = "empirical") -> CadModel:
    """Split the training set by class and precompute volumes and priors.

    priors: "empirical" uses training class frequencies; "uniform" weighs
    the classes equally (the stationary-mass density proxy is normalized
    per class, so empirical priors cancel class-size information, which on
    strongly imbalanced data leaves the posterior uninformative).
    """
    check_cad_params(lam, priors)
    pos = train.points[train.labels == 1]
    neg = train.points[train.labels == -1]
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise DegenerateGraphError("both classes need at least one training point")
    if sigma is None:
        sigma = sigma_from_points(train.points)
    elif not (np.isfinite(sigma) and sigma > 0):
        raise InputError("sigma must be finite and positive when given")
    own = tuple(_kernel_mass(pts, pts, sigma, train.feature_weights, normalize_by_p,
                             np.arange(pts.shape[0])) for pts in (pos, neg))
    n_lab = pos.shape[0] + neg.shape[0]
    prior_pos = pos.shape[0] / n_lab if priors == "empirical" else 0.5
    model = CadModel(
        points_pos=pos, points_neg=neg,
        vol_pos=float(own[0].sum()), vol_neg=float(own[1].sum()),
        prior_pos=prior_pos, prior_neg=1.0 - prior_pos,
        lam=lam, sigma=sigma, psi=train.feature_weights, normalize_by_p=normalize_by_p,
    )
    object.__setattr__(model, "_own_masses", own)
    return model


def _score_rows(method: str, model: CadModel, x: np.ndarray, y: np.ndarray,
                lam: float | np.ndarray | None = None, n_loo: int = 0) -> np.ndarray:
    """rwcad or knn scores of the query rows x labeled y.  The first n_loo
    rows are the model's training set, in order, scored LOO: their mass
    against their own class is the one fit_cad_model kept, and their class
    volume drops by twice that mass.  knn is 1 - the Parzen posterior of the
    observed label; rwcad the posterior of the opposite label with lam
    (default: the model's; a 1-D lam gives one row per value) added to its
    denominator.

    A class likelihood m / (vol + 2m) with denominator 0 is 0: a one-point
    class's LOO row leaves it no points, so the row is scored from the other
    class alone, opposite / (lam + opposite) (1 at lam = 0, as knn)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y))
    if y.shape != (x.shape[0],):
        raise InputError(f"{y.size} labels for {x.shape[0]} query rows")
    loo = np.arange(y.size) < n_loo
    masses = []
    for k, (label, points) in enumerate(((1, model.points_pos), (-1, model.points_neg))):
        m, kept = np.empty(y.size), loo & (y == label)
        if n_loo:
            m[kept] = model._own_masses[k]
        m[~kept] = model._mass(x[~kept], points)
        masses.append(m)
    m_pos, m_neg = masses
    is_pos = y == 1
    if method == "knn":
        total = m_pos + m_neg
        if np.any(total <= 0):
            raise DegenerateGraphError("zero kernel mass at a query point")
        return 1.0 - np.where(is_pos, m_pos, m_neg) / total
    lam = model.lam if lam is None else check_cad_params(lam)
    vol_pos = np.where(loo & is_pos, model.vol_pos - 2.0 * m_pos, model.vol_pos)
    vol_neg = np.where(loo & (y == -1), model.vol_neg - 2.0 * m_neg, model.vol_neg)
    den_pos, den_neg = vol_pos + 2.0 * m_pos, vol_neg + 2.0 * m_neg
    like_pos = np.divide(m_pos, den_pos, out=np.zeros(y.size), where=den_pos > 0)
    like_neg = np.divide(m_neg, den_neg, out=np.zeros(y.size), where=den_neg > 0)
    total = like_pos * model.prior_pos + like_neg * model.prior_neg
    opposite = np.where(is_pos, like_neg * model.prior_neg, like_pos * model.prior_pos)
    denom = np.asarray(lam)[..., None] + total
    return np.divide(opposite, denom, out=np.zeros(denom.shape), where=denom > 0)


def rwcad_scores(model: CadModel, x: np.ndarray, y: np.ndarray,
                 lam: float | np.ndarray | None = None) -> np.ndarray:
    """Posterior of the opposite label with the lam-padded denominator,
    one score in [0, 1) per query row; a 1-D lam (default: the model's)
    gives one row of scores per value."""
    return _score_rows("rwcad", model, x, y, lam)


def rwcad_score(model: CadModel, x_e: np.ndarray, y_e: int) -> float:
    return float(rwcad_scores(model, np.atleast_2d(x_e), np.array([y_e]))[0])


def weighted_knn_scores(model: CadModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """1 - Parzen posterior of the observed label."""
    return _score_rows("knn", model, x, y)


def weighted_knn_score(train: PointSet, x_e: np.ndarray, y_e: int,
                       sigma: float | None = None, normalize_by_p: bool = True) -> float:
    model = fit_cad_model(train, 0.0, sigma, normalize_by_p)
    return float(weighted_knn_scores(model, np.atleast_2d(x_e), np.array([y_e]))[0])


def rwcad_scores_loo(ps: PointSet, lam: float | np.ndarray, sigma: float | None = None,
                     normalize_by_p: bool = True, priors: str = "empirical") -> np.ndarray:
    """Score every example of a fully labeled set against the rest of the
    set (its own node left out of its class graph).  A 1-D lam gives one
    row of scores per value from a single kernel-mass computation."""
    model = fit_cad_model(ps, lam, sigma, normalize_by_p, priors)
    return _score_rows("rwcad", model, ps.points, ps.labels, n_loo=ps.n)


def weighted_knn_scores_loo(ps: PointSet, sigma: float | None = None,
                            normalize_by_p: bool = True) -> np.ndarray:
    model = fit_cad_model(ps, 0.0, sigma, normalize_by_p)
    return _score_rows("knn", model, ps.points, ps.labels, n_loo=ps.n)


def _pm1_labels(y: np.ndarray, method: str) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InputError(f"{method} needs a fully labeled +-1 vector")
    return y


def softhad_score(g: SimilarityGraph, y: np.ndarray, cfg: SoftConfig) -> np.ndarray:
    """|soft harmonic solution - actual label| over a fully labeled graph;
    scores live in [0, 2], higher is more anomalous."""
    y = _pm1_labels(y, "softhad")
    return np.abs(soft_harmonic(g, y, cfg).values - y)


def backbone_cad(centroid_graph: SimilarityGraph, multiplicities: np.ndarray,
                 y: np.ndarray, cfg: SoftConfig) -> np.ndarray:
    """Soft harmonic scoring on a backbone whose node i stands for
    multiplicities[i] collapsed examples.

    Minimizes (l - y)' c_l V (l - y) + l' (L(VWV) + gamma_g V) l, which
    reproduces the expanded-graph score exactly when the backbone comes
    from collapsing duplicate rows.
    """
    y = _pm1_labels(y, "backbone CAD")
    values = solve_harmonic(centroid_graph.dense(), y, cfg.gamma_g, np.full(y.shape, cfg.c_l),
                            multiplicities)
    return np.abs(values - y)


def backbone_from_sample(ps: PointSet, k: int, seed: int) -> tuple[PointSet, np.ndarray]:
    """Uniformly sample k training points as backbone nodes; each node's
    multiplicity is the number of training points nearest to it."""
    if k > ps.n:
        raise InputError("cannot sample more centroids than points")
    rng = PortableRng(seed)
    idx = np.sort(rng.choice(ps.n, k))
    centroids = ps.points[idx]
    d2 = _kernels.cross_sq_dists(ps.points, centroids, ps.feature_weights)
    assign = np.argmin(d2, axis=1)
    mult = np.bincount(assign, minlength=k).astype(np.float64)
    mult = np.maximum(mult, 1.0)
    return PointSet(centroids, ps.labels[idx], ps.feature_weights), mult


@dataclass(frozen=True)
class TaskScaling:
    """Per-task linear score normalization fitted on training scores."""

    min_score: float
    max_score: float

    def __post_init__(self):
        if self.min_score > self.max_score:
            raise InputError("min_score must not exceed max_score")

    @classmethod
    def fit(cls, train_scores: np.ndarray) -> "TaskScaling":
        s = np.asarray(train_scores, dtype=np.float64)
        return cls(float(s.min()), float(s.max()))


def scale_scores(scaling: TaskScaling, raw: np.ndarray) -> np.ndarray:
    """(s - min) / (max - min) clamped to [0, 1]; a degenerate fitted
    range maps everything to 0.5."""
    raw = np.asarray(raw, dtype=np.float64)
    span = scaling.max_score - scaling.min_score
    if span == 0:
        return np.full(raw.shape, 0.5)
    return np.clip((raw - scaling.min_score) / span, 0.0, 1.0)
