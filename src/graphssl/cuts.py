"""Two-stage max-margin graph cuts.

Stage one propagates the few true labels over the similarity graph and
keeps every example whose propagated confidence clears a threshold; stage
two trains a kernel hinge-loss classifier on the retained signs.  As the
propagation regularizer grows, confidences shrink and the retained set
collapses to the originally labeled examples, so the method interpolates
between semi-supervised and purely supervised training.

The trainer solves the dual of   min_f  sum_i hinge(f, x_i, y_i) + gamma ||f||_K^2
by maximal-violating-pair coordinate updates with a duality-gap stopping
rule, so any exact convex-QP solver would produce the same classifier.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverError
from .graph import SimilarityGraph
from .harmonic import hard_harmonic

GAP_TOL = 1e-6      # duality gap, relative to the objective, at which training stops


@dataclass(frozen=True)
class KernelSpec:
    """Mercer kernel: 'linear', 'cubic' ((1 + x.z)^3), or 'rbf' with
    exp(-||x - z||^2 / (2 width^2))."""

    kind: str = "linear"
    rbf_width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "cubic", "rbf"):
            raise InputError(f"unknown kernel {self.kind!r}")
        if self.kind == "rbf" and not self.rbf_width > 0:
            raise InputError("rbf width must be positive")

    @classmethod
    def parse(cls, text: str) -> "KernelSpec":
        if text == "linear":
            return cls("linear")
        if text == "cubic":
            return cls("cubic")
        if text.startswith("rbf"):
            _, _, width = text.partition(":")
            try:
                value = float(width or 1.0)
            except ValueError:
                raise InputError(f"bad rbf width in kernel spec {text!r}") from None
            return cls("rbf", value)
        raise InputError(f"unknown kernel spec {text!r}")


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if spec.kind == "linear":
        return a @ b.T
    if spec.kind == "cubic":
        return (1.0 + a @ b.T) ** 3
    d2 = (np.einsum("ij,ij->i", a, a)[:, None]
          + np.einsum("ij,ij->i", b, b)[None, :] - 2.0 * (a @ b.T))
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-d2 / (2.0 * spec.rbf_width ** 2))


@dataclass(frozen=True)
class CutClassifier:
    """Representer-form decision function over the retained examples:
    f(x) = sum_i coef_i k(x_i, x) + bias."""

    support_points: np.ndarray
    coefficients: np.ndarray
    bias: float
    kernel: KernelSpec
    retained_indices: np.ndarray

    def decision_values(self, x: np.ndarray) -> np.ndarray:
        k = kernel_matrix(self.kernel, np.atleast_2d(x), self.support_points)
        return k @ self.coefficients + self.bias


def predict(classifier: CutClassifier, x: np.ndarray) -> tuple[float, int]:
    """Decision value and its sign for a single point."""
    value = float(classifier.decision_values(np.atleast_2d(x))[0])
    return value, int(np.sign(value)) if value != 0 else 0


def induce_labels(g: SimilarityGraph, labels: np.ndarray, gamma_g: float,
                  epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Propagate and keep (index, sign) pairs with confidence >= epsilon;
    originally labeled examples are always retained with their labels."""
    if epsilon < 0:
        raise InputError("epsilon must be >= 0")
    labels = np.asarray(labels, dtype=np.int64)
    sol = hard_harmonic(g, labels, gamma_g)
    confident = np.abs(sol.values) >= epsilon
    keep = confident | (labels != 0)
    idx = np.flatnonzero(keep)
    signs = np.where(labels[idx] != 0, labels[idx],
                     np.sign(sol.values[idx]).astype(np.int64))
    return idx, signs


def _working_sets(alpha, y, c_box):
    """Masks of the dual variables that may move up / down within [0, c_box]."""
    up = ((alpha < c_box) & (y > 0)) | ((alpha > 0) & (y < 0))
    low = ((alpha < c_box) & (y < 0)) | ((alpha > 0) & (y > 0))
    return up, low


def _duality_gap(alpha, grad, q, y, gamma, c_box):
    """Primal-minus-dual gap of the hinge objective at the current dual
    point, using the midpoint bias estimate."""
    g_vals = (q @ alpha) * y          # sum_j alpha_j y_j K_ij
    quad = float(alpha @ (q @ alpha))
    y_grad = -y * grad
    up, low = _working_sets(alpha, y, c_box)
    m_up = y_grad[up].max() if up.any() else -np.inf
    m_low = y_grad[low].min() if low.any() else np.inf
    bias = 0.5 * (m_up + m_low) if np.isfinite(m_up) and np.isfinite(m_low) else 0.0
    hinge = np.maximum(0.0, 1.0 - y * (g_vals + bias)).sum()
    primal = gamma * quad + float(hinge)
    dual = 2.0 * gamma * (float(alpha.sum()) - 0.5 * quad)
    return primal - dual, primal, bias


def train_maxmargin(points: np.ndarray, y: np.ndarray, kernel: KernelSpec,
                    gamma: float, init_alpha: np.ndarray | None = None) -> CutClassifier:
    """Hinge-loss kernel classifier on (points, y) at regularizer gamma.

    Stops when the duality gap falls below GAP_TOL relative to the objective.
    The bias is unregularized and recovered from the free support vectors.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = points.shape[0]
    if y.shape != (n,) or not np.all(np.isin(y, (-1.0, 1.0))):
        raise InputError("labels must be +-1, one per training point")
    if len(np.unique(y)) < 2:
        raise InputError("training set must contain both classes")
    if not gamma > 0:
        raise InputError("gamma must be positive")
    c_box = 1.0 / (2.0 * gamma)
    k = kernel_matrix(kernel, points, points)
    q = (y[:, None] * k) * y[None, :]

    if init_alpha is None:
        alpha = np.zeros(n)
        grad = -np.ones(n)
    else:
        alpha = np.asarray(init_alpha, dtype=np.float64).copy()
        if alpha.shape != (n,) or np.any(alpha < 0) or np.any(alpha > c_box) \
                or abs(float(alpha @ y)) > 1e-9 * max(1.0, float(np.abs(alpha).sum())):
            raise InputError("init_alpha must be feasible for the dual")
        grad = q @ alpha - 1.0

    max_iter = max(100_000, 500 * n)
    check_every = max(10, n)
    gap = np.inf
    for it in range(max_iter):
        y_grad = -y * grad
        up, low = _working_sets(alpha, y, c_box)
        if not up.any() or not low.any():
            break
        masked_up = np.where(up, y_grad, -np.inf)
        masked_low = np.where(low, y_grad, np.inf)
        i = int(np.argmax(masked_up))
        j = int(np.argmin(masked_low))
        violation = masked_up[i] - masked_low[j]
        if violation <= 1e-12:
            break
        if it % check_every == 0:
            gap, primal, _ = _duality_gap(alpha, grad, q, y, gamma, c_box)
            if gap <= GAP_TOL * max(1.0, abs(primal)):
                break
        a = q[i, i] + q[j, j] - 2.0 * y[i] * y[j] * q[i, j]
        a = max(a, 1e-12)
        delta = violation / a
        delta = min(delta, c_box - alpha[i] if y[i] > 0 else alpha[i])
        delta = min(delta, alpha[j] if y[j] > 0 else c_box - alpha[j])
        if delta <= 0:
            break
        d_i = y[i] * delta
        d_j = -y[j] * delta
        alpha[i] += d_i
        alpha[j] += d_j
        grad += q[:, i] * d_i + q[:, j] * d_j

    gap, primal, bias = _duality_gap(alpha, grad, q, y, gamma, c_box)
    if gap > GAP_TOL * max(1.0, abs(primal)) * 10.0:
        raise SolverError("max-margin trainer did not reach its gap tolerance",
                          gap / max(1.0, abs(primal)))
    free = (alpha > 1e-12 * c_box) & (alpha < c_box * (1 - 1e-12))
    if free.any():
        g_vals = (q @ alpha) * y
        bias = float(np.mean(y[free] - g_vals[free]))
    return CutClassifier(
        support_points=points,
        coefficients=alpha * y,
        bias=float(bias),
        kernel=kernel,
        retained_indices=np.arange(n),
    )


def train_on_induced(ps_points: np.ndarray, g: SimilarityGraph, labels: np.ndarray,
                     gamma: float, gamma_g: float, epsilon: float,
                     kernel: KernelSpec) -> CutClassifier:
    """Full pipeline: induce confident labels, then train on them."""
    idx, signs = induce_labels(g, labels, gamma_g, epsilon)
    if len(np.unique(signs)) < 2:
        raise InputError("induced training set must contain both classes")
    clf = train_maxmargin(ps_points[idx], signs.astype(np.float64), kernel, gamma)
    return dataclasses.replace(clf, retained_indices=idx)
