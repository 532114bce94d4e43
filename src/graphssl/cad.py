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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegenerateGraphError, InputError
from .graph import (PointSet, SimilarityGraph, gaussian_of_sq_dists,
                    gaussian_weights_matrix, sigma_from_points)
from .harmonic import DEFAULT_TOL, SoftConfig, soft_harmonic, solve_harmonic
from .rng import PortableRng

LAMBDA_GRID = tuple(10.0 ** e for e in range(-5, 6))


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

    def masses(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kernel mass of each query row against each class."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        kw = dict(sigma=self.sigma, psi=self.psi, normalize_by_p=self.normalize_by_p)
        m_pos = gaussian_weights_matrix(x, self.points_pos, **kw).sum(axis=1)
        m_neg = gaussian_weights_matrix(x, self.points_neg, **kw).sum(axis=1)
        return m_pos, m_neg


def _check_lam(lam) -> np.ndarray:
    """lam as a scalar or 1-D array, every value >= 0."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim > 1:
        raise InputError("lam must be a scalar or a 1-D sequence")
    if not np.all(lam >= 0):
        raise InputError("lam must be >= 0 (and not NaN)")
    return lam


def check_cad_params(lam, priors: str) -> np.ndarray:
    """Raise unless priors is "empirical" or "uniform" and lam a scalar or
    1-D array of values >= 0; returns lam as an array."""
    if priors not in ("empirical", "uniform"):
        raise InputError("priors must be 'empirical' or 'uniform'")
    return _check_lam(lam)


def _resolve_sigma(sigma: float | None, points: np.ndarray) -> float:
    """The given kernel width, which must be finite and > 0, or else the
    width heuristic of the points."""
    if sigma is None:
        return sigma_from_points(points)
    if not (np.isfinite(sigma) and sigma > 0):
        raise InputError("sigma must be finite and positive when given")
    return sigma


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
    sigma = _resolve_sigma(sigma, train.points)
    psi = train.feature_weights

    def class_vol(pts):
        if pts.shape[0] < 2:
            return 0.0
        w = gaussian_of_sq_dists(_kernels.pairwise_sq_dists(pts, psi), pts.shape[1], sigma,
                                 normalize_by_p)
        np.fill_diagonal(w, 0.0)
        return float(w.sum())

    n_lab = pos.shape[0] + neg.shape[0]
    prior_pos = pos.shape[0] / n_lab if priors == "empirical" else 0.5
    return CadModel(
        points_pos=pos, points_neg=neg,
        vol_pos=class_vol(pos), vol_neg=class_vol(neg),
        prior_pos=prior_pos, prior_neg=1.0 - prior_pos,
        lam=lam, sigma=sigma, psi=psi, normalize_by_p=normalize_by_p,
    )


def _rwcad_posterior(model: CadModel, m_pos, m_neg, own_is_pos, lam,
                     vol_pos, vol_neg) -> np.ndarray:
    """Posterior of the opposite label with the lam-padded denominator.

    lam only enters the final division, so a 1-D lam scores every value
    from the same masses: the result has one row per lam, and the shape of
    the masses for a scalar lam.
    """
    like_pos = m_pos / (vol_pos + 2.0 * m_pos)
    like_neg = m_neg / (vol_neg + 2.0 * m_neg)
    total = like_pos * model.prior_pos + like_neg * model.prior_neg
    opposite = np.where(own_is_pos, like_neg * model.prior_neg, like_pos * model.prior_pos)
    denom = np.asarray(lam)[..., None] + total
    return np.divide(opposite, denom, out=np.zeros(denom.shape), where=denom > 0)


def rwcad_scores(model: CadModel, x: np.ndarray, y: np.ndarray,
                 lam: float | np.ndarray | None = None) -> np.ndarray:
    """Posterior of the opposite label with the lam-padded denominator,
    one score in [0, 1) per query row; a 1-D lam (default: the model's)
    gives one row of scores per value."""
    y = np.atleast_1d(np.asarray(y))
    lam = model.lam if lam is None else _check_lam(lam)
    m_pos, m_neg = model.masses(x)
    return _rwcad_posterior(model, m_pos, m_neg, y == 1, lam, model.vol_pos, model.vol_neg)


def rwcad_score(model: CadModel, x_e: np.ndarray, y_e: int) -> float:
    return float(rwcad_scores(model, np.atleast_2d(x_e), np.array([y_e]))[0])


def weighted_knn_scores(model: CadModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """1 - Parzen posterior of the observed label."""
    y = np.atleast_1d(np.asarray(y))
    m_pos, m_neg = model.masses(x)
    total = m_pos + m_neg
    if np.any(total <= 0):
        raise DegenerateGraphError("zero kernel mass at a query point")
    own = np.where(y == 1, m_pos, m_neg)
    return 1.0 - own / total


def weighted_knn_score(train: PointSet, x_e: np.ndarray, y_e: int,
                       sigma: float | None = None, normalize_by_p: bool = True) -> float:
    model = fit_cad_model(train, 0.0, sigma, normalize_by_p)
    return float(weighted_knn_scores(model, np.atleast_2d(x_e), np.array([y_e]))[0])


def _loo_masses(ps: PointSet, sigma: float, normalize_by_p: bool):
    """Per-example own/other-class kernel masses with the example's own
    contribution removed from its class."""
    k = gaussian_of_sq_dists(_kernels.pairwise_sq_dists(ps.points, ps.feature_weights),
                             ps.p, sigma, normalize_by_p)
    np.fill_diagonal(k, 0.0)
    m_pos = k[:, ps.labels == 1].sum(axis=1)
    m_neg = k[:, ps.labels == -1].sum(axis=1)
    return m_pos, m_neg


def rwcad_scores_loo(ps: PointSet, lam: float | np.ndarray, sigma: float | None = None,
                     normalize_by_p: bool = True, priors: str = "empirical") -> np.ndarray:
    """Score every example of a fully labeled set against the rest of the
    set (its own node left out of its class graph).  A 1-D lam gives one
    row of scores per value from a single kernel-mass computation."""
    lam = _check_lam(lam)
    return rwcad_scores_loo_fitted(ps, fit_cad_model(ps, 0.0, sigma, normalize_by_p, priors),
                                   lam)


def rwcad_scores_loo_fitted(ps: PointSet, model: CadModel,
                            lam: float | np.ndarray) -> np.ndarray:
    """``rwcad_scores_loo`` with the model already fitted on ps: its sigma,
    class volumes and priors are reused, and lam replaces its own."""
    lam = _check_lam(lam)
    m_pos, m_neg = _loo_masses(ps, model.sigma, model.normalize_by_p)
    own_is_pos = ps.labels == 1
    vol_pos = np.where(own_is_pos, model.vol_pos - 2.0 * m_pos, model.vol_pos)
    vol_neg = np.where(own_is_pos, model.vol_neg, model.vol_neg - 2.0 * m_neg)
    return _rwcad_posterior(model, m_pos, m_neg, own_is_pos, lam, vol_pos, vol_neg)


def weighted_knn_scores_loo(ps: PointSet, sigma: float | None = None,
                            normalize_by_p: bool = True) -> np.ndarray:
    m_pos, m_neg = _loo_masses(ps, _resolve_sigma(sigma, ps.points), normalize_by_p)
    total = m_pos + m_neg
    if np.any(total <= 0):
        raise DegenerateGraphError("zero leave-one-out kernel mass")
    own = np.where(ps.labels == 1, m_pos, m_neg)
    return 1.0 - own / total


def _pm1_labels(y: np.ndarray, method: str) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InputError(f"{method} needs a fully labeled +-1 vector")
    return y


def softhad_score(g: SimilarityGraph, y: np.ndarray, cfg: SoftConfig,
                  tol: float = DEFAULT_TOL) -> np.ndarray:
    """|soft harmonic solution - actual label| over a fully labeled graph;
    scores live in [0, 2], higher is more anomalous."""
    y = _pm1_labels(y, "softhad")
    return np.abs(soft_harmonic(g, y, cfg, tol).values - y)


def backbone_cad(centroid_graph: SimilarityGraph, multiplicities: np.ndarray,
                 y: np.ndarray, cfg: SoftConfig, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Soft harmonic scoring on a backbone whose node i stands for
    multiplicities[i] collapsed examples.

    Minimizes (l - y)' c_l V (l - y) + l' (L(VWV) + gamma_g V) l, which
    reproduces the expanded-graph score exactly when the backbone comes
    from collapsing duplicate rows.
    """
    y = _pm1_labels(y, "backbone CAD")
    values = solve_harmonic(centroid_graph.dense(), y, cfg.gamma_g, np.full(y.shape, cfg.c_l),
                            multiplicities, tol)
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
