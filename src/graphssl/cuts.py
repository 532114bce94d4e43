"""Two-stage max-margin graph cuts.

Stage one propagates the few true labels over the similarity graph and
keeps every example whose propagated confidence clears a threshold; stage
two trains a kernel hinge-loss classifier on the retained signs.  As the
propagation regularizer grows, confidences shrink and the retained set
collapses to the originally labeled examples, so the method interpolates
between semi-supervised and purely supervised training.

The trainer solves the dual of   min_f  sum_i hinge(f, x_i, y_i) + gamma ||f||_K^2
by two-variable coordinate updates (SMO) whose pair is the maximal violator
and the partner of largest second-order decrease (Fan, Chen & Lin, JMLR
2005), with a duality-gap stopping rule, so any exact convex-QP solver
would produce the same classifier.  The gap is computed in O(r) from the
gradient the updates keep; the accepted solution's is recomputed exactly.
SMO reads the kernel by rows alone, so the trainer never forms the r x r
kernel: a row is formed on its first read and kept in a least-recently-read
cache (the kernel-row cache of LIBSVM).  A kernel's product with the
coefficients is formed one ``graph.row_blocks`` block at a time.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels, graph
from .errors import InputError, SolverError
from .graph import SimilarityGraph, gaussian_in_place
from .harmonic import hard_harmonic

GAP_TOL = 1e-6      # duality gap, relative to the objective, at which training stops
# Bytes of float64 kernel rows the trainer keeps (always at least two rows):
# 1 GiB, all r rows up to r = 11 585 retained points.
KERNEL_CACHE_BYTES = 2 ** 30


@dataclass(frozen=True)
class KernelSpec:
    """Mercer kernel: 'linear', 'cubic' ((1 + x.z)^3), or 'rbf' with
    exp(-||x - z||^2 / (2 width^2)), whose divisor must be a normal float."""

    kind: str = "linear"
    rbf_width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "cubic", "rbf"):
            raise InputError(f"unknown kernel {self.kind!r}")
        w = self.rbf_width
        if self.kind == "rbf" and not (w > 0 and np.finfo(np.float64).tiny <= 2.0 * w * w < np.inf):
            raise InputError(f"rbf width {w!r} must be positive with 2 width^2 a normal float")

    @classmethod
    def parse(cls, text: str) -> "KernelSpec":
        """Parse the CLI syntax ``linear``, ``cubic`` or ``rbf[:WIDTH]``."""
        kind, sep, width = text.partition(":")
        if kind not in ("linear", "cubic", "rbf") or sep and kind != "rbf":
            raise InputError(f"unknown kernel spec {text!r}")
        try:
            value = float(width or cls.rbf_width)
        except ValueError:
            raise InputError(f"bad rbf width in kernel spec {text!r}") from None
        return cls(kind, value)


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if spec.kind == "linear":
        return a @ b.T
    if spec.kind == "cubic":
        return (1.0 + a @ b.T) ** 3
    return gaussian_in_place(_kernels.cross_sq_dists(a, b, None), 2, spec.rbf_width, True)


def _kernel_rows(spec: KernelSpec, points: np.ndarray):
    """Rows of the kernel of points with themselves, read as ``rows(i)``:
    row i is ``kernel_matrix(spec, points[i:i+1], points)[0]``, formed on its
    first read and kept, with the most recently read rows, while they fit
    KERNEL_CACHE_BYTES (at least two; one more while a row is formed)."""
    capacity = max(2, KERNEL_CACHE_BYTES // (8 * len(points)))
    return functools.lru_cache(maxsize=capacity)(
        lambda i: kernel_matrix(spec, points[i:i + 1], points)[0])


def _kernel_times(spec: KernelSpec, x: np.ndarray, support: np.ndarray,
                  coef: np.ndarray) -> np.ndarray:
    """K(x, support) @ coef, one ``graph.row_blocks`` block of the kernel
    at a time."""
    out = np.empty(len(x))
    for rows in graph.row_blocks(len(x), len(support)):
        out[rows] = kernel_matrix(spec, x[rows], support) @ coef
    return out


def _kernel_diagonal(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """k(x, x) of each row x: 1 for rbf (cdist gives each point exactly 0
    to itself), |x|^2 for linear and (1 + |x|^2)^3 for cubic."""
    if spec.kind == "rbf":
        return np.ones(len(points))
    sq_norms = np.einsum("ij,ij->i", points, points)
    return sq_norms if spec.kind == "linear" else (1.0 + sq_norms) ** 3


@dataclass(frozen=True)
class CutClassifier:
    """Representer-form decision function f(x) = sum_i coef_i k(x_i, x) + bias
    over the support points, the retained examples whose dual variable is
    nonzero; ``retained_indices`` lists every retained example."""

    support_points: np.ndarray
    coefficients: np.ndarray
    bias: float
    kernel: KernelSpec
    retained_indices: np.ndarray

    def decision_values(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        width = self.support_points.shape[1]
        if x.shape[1] != width:
            raise InputError(f"points have {x.shape[1]} features, the model's support "
                             f"points {width}")
        if not np.isfinite(x).all():
            raise InputError("query points must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            values = _kernel_times(self.kernel, x, self.support_points, self.coefficients)
        if not np.isfinite(values).all():
            raise InputError(f"the {self.kernel.kind} kernel overflows on these query points")
        return values + self.bias


def induce_labels(g: SimilarityGraph, labels: np.ndarray, gamma_g: float,
                  epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Propagate and keep (index, sign) pairs with confidence >= epsilon;
    originally labeled examples are always retained with their labels."""
    if not epsilon >= 0:
        raise InputError(f"epsilon must be >= 0, got {epsilon!r}")
    labels = np.asarray(labels, dtype=np.int64)
    sol = hard_harmonic(g, labels, gamma_g)
    confident = np.abs(sol.values) >= epsilon
    keep = confident | (labels != 0)
    idx = np.flatnonzero(keep)
    signs = np.where(labels[idx] != 0, labels[idx],
                     np.sign(sol.values[idx]).astype(np.int64))
    return idx, signs


def _working_sets(alpha, y, c_box):
    """Masks of the dual variables that may move up / down within [0, c_box]
    (arrays, or one variable's scalars)."""
    up = ((alpha < c_box) & (y > 0)) | ((alpha > 0) & (y < 0))
    low = ((alpha < c_box) & (y < 0)) | ((alpha > 0) & (y > 0))
    return up, low


def _duality_gap(alpha, y, y_grad, gamma, m_up, m_low):
    """Primal-minus-dual gap of the hinge objective at the dual point alpha,
    with the midpoint bias estimate of the extremes m_up and m_low of
    y_grad.  y_grad = -y (Q alpha - 1) gives Q alpha = 1 - y y_grad and
    the bias-free decision values K (alpha y) = y - y_grad, so the gap
    costs O(r) with no product by Q."""
    bias = 0.5 * (m_up + m_low) if np.isfinite(m_up) and np.isfinite(m_low) else 0.0
    total = float(alpha.sum())
    quad = total - float((alpha * y) @ y_grad)          # alpha' Q alpha
    hinge = float(np.maximum(0.0, y * (y_grad - bias)).sum())
    primal = gamma * quad + hinge
    dual = 2.0 * gamma * (total - 0.5 * quad)
    return primal - dual, primal, bias


def _smo(k, k_diag, y, c_box, gamma, alpha, y_grad) -> None:
    """Sequential minimal optimization of the dual from alpha, where
    y_grad = -y (Q alpha - 1) and Q = (y y') * K; both are updated in
    place.  Each step moves the maximal violator i and the j of the second
    order rule, so K is read only as rows k(i) and k(j), from a
    _kernel_rows cache of at least two rows, beside its diagonal k_diag.
    Stops at a maximal violation of 1e-12, at a duality gap below GAP_TOL
    relative to the objective, checked every 10 steps, or after
    max(100 000, 500 r) steps."""
    n = y.size
    up, low = _working_sets(alpha, y, c_box)
    # y_grad on the up set and -inf off it, on the down set and +inf off
    # it; each step adds to all three, so their finite entries stay equal
    top, bottom = np.where(up, y_grad, -np.inf), np.where(low, y_grad, np.inf)
    gain, curv, step, step_i = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for it in range(max(100_000, 500 * n)):
        i = int(np.argmax(top))
        m_up, m_low = top[i], bottom.min()
        if m_up - m_low <= 1e-12:
            break
        if it % 10 == 0:
            gap, primal, _ = _duality_gap(alpha, y, y_grad, gamma, m_up, m_low)
            if gap <= GAP_TOL * max(1.0, abs(primal)):
                break
        # second-order working set (Fan, Chen & Lin, JMLR 2005): over the
        # down set below m_up, j maximizes b^2 / a, the decrease of the
        # unclipped step, with a = K_ii + K_jj - 2 K_ij floored at 1e-12
        np.subtract(m_up, bottom, out=gain)
        np.maximum(gain, 0.0, out=gain)
        np.multiply(k(i), -2.0, out=curv)
        curv += k_diag
        curv += k_diag[i]
        np.maximum(curv, 1e-12, out=curv)
        gain *= gain
        gain /= curv
        j = int(np.argmax(gain))
        delta = min((m_up - bottom[j]) / curv[j],
                    c_box - alpha[i] if y[i] > 0 else alpha[i],
                    alpha[j] if y[j] > 0 else c_box - alpha[j])
        if delta <= 0:
            break
        alpha[i] += y[i] * delta
        alpha[j] -= y[j] * delta
        # grad += Q_i y_i delta - Q_j y_j delta, and Q_ti = y_t y_i K_ti, so
        # y_grad += K_j delta - K_i delta with the same roundings
        np.multiply(k(j), delta, out=step)
        step -= np.multiply(k(i), delta, out=step_i)
        y_grad += step
        top += step
        bottom += step
        for t in (i, j):
            up, low = _working_sets(alpha[t], y[t], c_box)
            top[t] = y_grad[t] if up else -np.inf
            bottom[t] = y_grad[t] if low else np.inf


def train_maxmargin(points: np.ndarray, y: np.ndarray, kernel: KernelSpec,
                    gamma: float) -> CutClassifier:
    """Hinge-loss kernel classifier on (points, y) at regularizer gamma.

    Stops when the duality gap falls below GAP_TOL relative to the objective.
    The bias is unregularized and recovered from the free support vectors.
    Only the points with a nonzero dual variable are kept as support points;
    ``retained_indices`` still lists all n.
    The r x r kernel is never formed: SMO reads the rows it needs from a
    _kernel_rows cache of at most KERNEL_CACHE_BYTES (plus the row being
    formed), and the accepted solution's exact gradient takes the kernel
    with the s support points one ``graph.row_blocks`` block at a time, so
    memory is O(cache + r p) at any r.  Points on which 4 max k(x, x), a
    bound of every curvature SMO forms, overflows are an ``InputError``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = points.shape[0]
    if y.shape != (n,) or not np.all(np.isin(y, (-1.0, 1.0))):
        raise InputError("labels must be +-1, one per training point")
    if not np.isfinite(points).all():
        raise InputError("training points must be finite")
    if len(np.unique(y)) < 2:
        raise InputError("training set must contain both classes")
    if not 0 < gamma < np.inf:
        raise InputError(f"gamma must be finite and positive, got {gamma!r}")
    # |K_ij| <= sqrt(K_ii K_jj), so 4 max k(x, x) bounds every curvature
    # K_ii + K_jj - 2 K_ij that SMO forms
    with np.errstate(over="ignore"):
        k_diag = _kernel_diagonal(kernel, points)
        bound = 4.0 * k_diag.max()
    if not np.isfinite(bound):
        raise InputError(f"the {kernel.kind} kernel overflows on these training points: "
                         "4 max k(x, x) is not finite")
    c_box = 1.0 / (2.0 * gamma)
    alpha = np.zeros(n)
    y_grad = y.copy()                   # y - K(alpha y) at alpha = 0
    _smo(_kernel_rows(kernel, points), k_diag, y, c_box, gamma, alpha, y_grad)

    # the steps' updates of y_grad drift; accept on the exact values,
    # y - K(alpha y) over the support columns
    support = np.flatnonzero(alpha)
    coef = alpha[support] * y[support]
    y_grad = y - _kernel_times(kernel, points, points[support], coef)
    up, low = _working_sets(alpha, y, c_box)
    gap, primal, bias = _duality_gap(alpha, y, y_grad, gamma,
                                     np.max(y_grad, where=up, initial=-np.inf),
                                     np.min(y_grad, where=low, initial=np.inf))
    if gap > GAP_TOL * max(1.0, abs(primal)) * 10.0:
        raise SolverError("max-margin trainer did not reach its gap tolerance",
                          gap / max(1.0, abs(primal)))
    free = (alpha > 1e-12 * c_box) & (alpha < c_box * (1 - 1e-12))
    if free.any():
        bias = float(np.mean(y_grad[free]))
    return CutClassifier(
        support_points=points[support],
        coefficients=coef,
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
