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

rwcad and k-NN reach every class mass through ``_kernel_mass``: the row
sums of the Gaussian kernel exp(-d^2 / (p sigma^2)) between query rows and
a class's training points, formed in place on each distance block of
``graph.sq_dist_blocks``, so memory is O(block + n).
Leave-one-out (LOO) masses zero the point's own column, and a class volume
is the sum of its points' LOO masses; both sum in another order than one
dense kernel, within a relative 1e-14, while test-row masses are
bit-identical to it.  Both scorers fit the model, so a training set
with one class raises ``DegenerateGraphError`` in every path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGraphError, InputError
from .graph import (CLASSES, PointSet, SimilarityGraph, gaussian_in_place, resolve_sigma,
                    sq_dist_blocks)
from .harmonic import SoftConfig, solve_harmonic

LAMBDA_GRID = tuple(10.0 ** e for e in range(-5, 6))
PRIORS = ("empirical", "uniform")


def _kernel_mass(x: np.ndarray, points: np.ndarray, sigma: float, psi: np.ndarray,
                 own: np.ndarray | None = None) -> np.ndarray:
    """Row sums of the Gaussian kernel between the rows of x and points,
    formed in place on each graph.sq_dist_blocks block; own[i], when given,
    is a column zeroed in row i before the sum."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != points.shape[1]:
        raise InputError(f"query rows have {x.shape[1]} features, training {points.shape[1]}")
    out = np.empty(x.shape[0])
    for rows, w in sq_dist_blocks(x, points, psi):
        gaussian_in_place(w, x.shape[1], sigma, True)
        if own is not None:
            w[np.arange(w.shape[0]), own[rows]] = 0.0
        out[rows] = w.sum(axis=1)
        del w                   # before the next block is formed
    return out


@dataclass(frozen=True)
class CadModel:
    """Per-class pairs in ``graph.CLASSES`` order (+1, then -1): the
    training points, their graph volumes and the class priors; then the
    regularizer lam, sigma, psi, and each class's leave-one-out masses of
    its own points (a pair too)."""

    points: tuple
    vol: tuple
    prior: tuple
    lam: float
    sigma: float
    psi: np.ndarray
    own_masses: tuple = field(repr=False, compare=False)


def check_cad_params(lam, priors: str = "empirical") -> np.ndarray:
    """Raise unless priors is "empirical" or "uniform" and lam a scalar or
    1-D array of values >= 0; returns lam as an array."""
    if priors not in PRIORS:
        raise InputError(f"priors must be {' or '.join(map(repr, PRIORS))}")
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim > 1:
        raise InputError("lam must be a scalar or a 1-D sequence")
    if not np.all(lam >= 0):
        raise InputError("lam must be >= 0 (and not NaN)")
    return lam


def fit_cad_model(train: PointSet, lam: float = 0.0, sigma: float | None = None,
                  priors: str = "empirical") -> CadModel:
    """Split the training set by class and precompute volumes and priors.

    priors: "empirical" uses training class frequencies; "uniform" weighs
    the classes equally (the stationary-mass density proxy is normalized
    per class, so empirical priors cancel class-size information, which on
    strongly imbalanced data leaves the posterior uninformative).
    """
    check_cad_params(lam, priors)
    points = tuple(train.points[train.labels == label] for label in CLASSES)
    if min(len(pts) for pts in points) == 0:
        raise DegenerateGraphError("both classes need at least one training point")
    sigma = resolve_sigma(sigma, train.points)
    own = tuple(_kernel_mass(pts, pts, sigma, train.feature_weights, np.arange(len(pts)))
                for pts in points)
    prior_pos = len(points[0]) / (len(points[0]) + len(points[1])) if priors == "empirical" else 0.5
    return CadModel(points, tuple(float(m.sum()) for m in own), (prior_pos, 1.0 - prior_pos),
                    lam, sigma, train.feature_weights, own)


def _score_rows(method: str, model: CadModel, x: np.ndarray, y: np.ndarray,
                lam: float | np.ndarray | None = None, n_loo: int = 0) -> np.ndarray:
    """rwcad or knn scores of the query rows x labeled y; a non-finite row
    or a label other than +-1 raises InputError.  The first n_loo rows are
    the model's training set, in order, scored LOO: their mass
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
    bad = ~np.isfinite(x).all(axis=1) | ~np.isin(y, CLASSES)
    if bad.any():
        row = int(np.argmax(bad))
        raise InputError(f"{method} scores finite rows labeled +-1 only; query row {row} "
                         f"is {x[row].tolist()} labeled {y[row]}")
    loo = np.arange(y.size) < n_loo
    own_row, cols = np.where(y == CLASSES[0], 0, 1), np.arange(y.size)
    own = np.arange(2)[:, None] == own_row      # row k marks the queries of class k
    m = np.empty((2, y.size))
    for k in range(2):
        kept = loo & own[k]
        if n_loo:
            m[k, kept] = model.own_masses[k]
        m[k, ~kept] = _kernel_mass(x[~kept], model.points[k], model.sigma, model.psi)
    if method == "knn":
        total = m[0] + m[1]
        if np.any(total <= 0):
            raise DegenerateGraphError("zero kernel mass at a query point")
        return 1.0 - m[own_row, cols] / total
    lam = model.lam if lam is None else check_cad_params(lam)
    vol = np.array(model.vol)[:, None]
    den = np.where(loo & own, vol - 2.0 * m, vol) + 2.0 * m
    like = np.divide(m, den, out=np.zeros(m.shape), where=den > 0) * np.array(model.prior)[:, None]
    denom = np.asarray(lam)[..., None] + (like[0] + like[1])
    return np.divide(like[1 - own_row, cols], denom, out=np.zeros(denom.shape), where=denom > 0)


def rwcad_scores(model: CadModel, x: np.ndarray, y: np.ndarray,
                 lam: float | np.ndarray | None = None) -> np.ndarray:
    """Posterior of the opposite label with the lam-padded denominator,
    one score in [0, 1) per query row; a 1-D lam (default: the model's)
    gives one row of scores per value."""
    return _score_rows("rwcad", model, x, y, lam)


def weighted_knn_scores(model: CadModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """1 - Parzen posterior of the observed label."""
    return _score_rows("knn", model, x, y)


def rwcad_scores_loo(ps: PointSet, lam: float | np.ndarray, sigma: float | None = None,
                     priors: str = "empirical") -> np.ndarray:
    """Score every example of a fully labeled set against the rest of the
    set (its own node left out of its class graph).  A 1-D lam gives one
    row of scores per value from a single kernel-mass computation."""
    model = fit_cad_model(ps, lam, sigma, priors)
    return _score_rows("rwcad", model, ps.points, ps.labels, n_loo=ps.n)


def weighted_knn_scores_loo(ps: PointSet, sigma: float | None = None) -> np.ndarray:
    model = fit_cad_model(ps, 0.0, sigma)
    return _score_rows("knn", model, ps.points, ps.labels, n_loo=ps.n)


def softhad_score(g: SimilarityGraph, y: np.ndarray, cfg: SoftConfig,
                  multiplicities: np.ndarray | None = None) -> np.ndarray:
    """|soft harmonic solution - actual label| over a fully labeled +-1
    graph, every node fitted with weight c_l; scores live in [0, 2], higher
    is more anomalous.

    With multiplicities, node i stands for multiplicities[i] collapsed
    examples (a backbone): the solve minimizes
    (l - y)' c_l V (l - y) + l' (L(VWV) + gamma_g V) l, which reproduces the
    expanded-graph score exactly when the backbone comes from collapsing
    duplicate rows.
    """
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InputError("softhad needs a fully labeled +-1 vector")
    values = solve_harmonic(g.weights, y, cfg.gamma_g, np.full(y.shape, cfg.c_l), multiplicities)
    return np.abs(values - y)


def scale_scores(train_scores: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """(s - min) / (max - min) over the range of train_scores, clamped to
    [0, 1]; a degenerate range maps everything to 0.5.  A non-finite
    training score or a NaN raw score raises InputError."""
    train_scores = np.asarray(train_scores, dtype=np.float64)
    raw = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(train_scores).all():
        raise InputError("training scores must be finite")
    if np.isnan(raw).any():
        raise InputError("scores to scale must not be NaN")
    low, high = float(train_scores.min()), float(train_scores.max())
    span = high - low
    if span == 0:
        return np.full(raw.shape, 0.5)
    return np.clip((raw - low) / span, 0.0, 1.0)
