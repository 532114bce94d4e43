"""Label propagation on similarity graphs: one harmonic system.

``solve_harmonic`` gives the (regularized) harmonic solution on the graph
W = V W~ V, whose node i stands for v_i replicas (v = 1 by default), with
row sums d = W 1 and D = diag(d), in one of two forms:

* hard: labeled values are clamped and the unlabeled block is solved as
  ``(D_uu + gamma_g V_uu - W_uu) l_u = W_ul y_l``.  With gamma_g == 0 every
  unlabeled value is the degree-weighted average of its neighbors; with
  gamma_g > 0 a zero-labeled sink shrinks values toward 0 with distance
  from the labels.
* soft: the fit to pseudo-targets y is a penalty, not a constraint;
  minimizing ``(l - y)' F V (l - y) + l' (D - W + gamma_g V) l`` gives the
  SPD system ``(D + gamma_g V + F V - W) l = F V y``.

One assembly, ``_system``, forms both: ``diag(d_u + gamma_g v_u + extra) -
W_uu`` and W's rows u, for the unlabeled nodes u (hard) or every node
(soft, extra = F V).  The diagonal is d plus the shifts, minus W's
diagonal, so a self-loop cancels; no solve forms the Laplacian D - W.
Sparse weights give the sparse form: W in CSR, its rows u, their columns
u.  Dense weights give the lean form that online prediction needs, where
``solve_clamped`` runs once per stream point on tens of nodes without
``solve_harmonic``'s checks: only W's rows u, copied and scaled in place,
and A cut from them C-ordered and shifted in place.  ``hard_harmonic``,
``soft_harmonic``, ``online.compact_harmonic`` and ``cad.softhad_score``
wrap ``solve_harmonic``, and the joint fit calls it on its backbone's
weights, made dense when small.  ``hard_harmonic`` keeps each graph's
last solve, so a repeated (graph, labels, gamma_g) solve is made once.

Every solve meets the relative residual ``DEFAULT_TOL``, or, when
factored, the normwise backward error ``DEFAULT_TOL`` on a system that is
not numerically singular.  ``solve_spd`` factors a dense system (dense
weights) or a sparse one (sparse weights) of at most ``DENSE_MAX_N`` rows
by Cholesky, and a larger sparse one by Jacobi-preconditioned conjugate
gradients, which the badly conditioned hard systems of a small sink
gamma_g need.  Its conjugate-gradient loop is its own, with scipy ``cg``'s
arithmetic and bits but without its per-step operator dispatch.  Residual
norms are ``math.sqrt(r.dot(r))``, the bits of ``np.linalg.norm`` on a real
vector without its per-call checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

from .errors import DegenerateGraphError, InputError, SolverError
from .graph import SimilarityGraph, component_labels

DEFAULT_TOL = 1e-10

# Largest sparse system solved by dense Cholesky.  On k-NN (k=10) Laplacian
# systems, one thread, Cholesky of the densified matrix and Jacobi-PCG cost
# the same at about 400 rows (2.5-2.8 ms); Cholesky is 10x faster at 100
# rows, PCG 5x faster at 2000.
DENSE_MAX_N = 400


def check_gamma_g(gamma_g: float) -> None:
    """Raise unless the sink weight gamma_g is finite and >= 0."""
    if not (math.isfinite(gamma_g) and gamma_g >= 0):
        raise InputError("gamma_g must be finite and >= 0")


@dataclass(frozen=True)
class SoftConfig:
    """Weights of the soft solve: sink regularizer gamma_g, labeled fit
    weight c_l, unlabeled fit weight c_u (0 < c_u <= c_l)."""

    gamma_g: float = 1e-6
    c_l: float = 10.0
    c_u: float = 0.1

    def __post_init__(self):
        check_gamma_g(self.gamma_g)
        if not (self.c_l > 0 and self.c_u > 0):
            raise InputError("fit weights must be positive")
        if self.c_u > self.c_l:
            raise InputError("c_u must not exceed c_l")


@dataclass(frozen=True)
class SoftLabels:
    """Propagated label values; |values[i]| is the labeling confidence."""

    values: np.ndarray


def solve_spd(a, b: np.ndarray) -> np.ndarray:
    """Solve the symmetric positive-definite system Ax = b.

    A dense ``ndarray`` or a system of at most ``DENSE_MAX_N`` rows is
    solved by dense Cholesky; a larger sparse one by conjugate gradients
    preconditioned with 1/diag(A), capped at 10n iterations.  Either way
    ||Ax - b|| <= DEFAULT_TOL * ||b|| must hold, or, for Cholesky, the
    backward-error test of ``_backward_stable``; otherwise, and for a
    matrix that is not positive definite, ``SolverError`` is raised.
    """
    b = np.asarray(b, dtype=np.float64)
    if not sp.issparse(a):
        a = np.asarray(a, dtype=np.float64)
    n = b.shape[0] if b.ndim == 1 else -1
    if a.shape != (n, n):
        raise InputError("system matrix must be n x n for a length-n right-hand side")
    # math.sqrt of the dot product has np.linalg.norm's bits on a real vector
    b_norm = math.sqrt(b.dot(b))
    if b_norm == 0.0:
        return np.zeros(n)
    if isinstance(a, np.ndarray) or n <= DENSE_MAX_N:
        # LAPACK's Cholesky called directly, as cho_factor/cho_solve call it
        # (upper factor, no cleaning), without their per-call batching layer
        dense = a if isinstance(a, np.ndarray) else a.toarray()
        factor, info = dpotrf(dense, clean=0)
        if info == 0:
            x, info = dpotrs(factor, b)
        if info != 0:
            raise SolverError("matrix is not positive definite", 1.0)
    else:
        factor = None
        a = a.tocsr()
        diag = a.diagonal()
        if not np.all(diag > 0):
            raise SolverError("matrix has a non-positive diagonal entry", 1.0)
        # a margin below the tolerance: the final check uses the true
        # residual, not the recurrence CG stops on
        x = _jacobi_pcg(a, b, 1.0 / diag, 0.5 * DEFAULT_TOL * b_norm)
    r = a @ x - b
    residual = math.sqrt(r.dot(r))
    if not (residual <= DEFAULT_TOL * b_norm or factor is not None
            and _backward_stable(dense, factor, x, b_norm, residual)):
        raise SolverError("solution misses the residual tolerance", residual / b_norm)
    return x


def _backward_stable(a: np.ndarray, factor: np.ndarray, x: np.ndarray, b_norm: float,
                     residual: float) -> bool:
    """Whether x, solved with the upper Cholesky factor of a, stands although
    its residual misses DEFAULT_TOL * ||b||.  Cholesky is backward stable
    (Higham, Accuracy and Stability of Numerical Algorithms, sections 7.1
    and 10.1): a small b beside a large x can leave a residual small only
    next to ||A|| ||x||.  So accept a normwise backward error (Rigal and
    Gaches) within DEFAULT_TOL, ||Ax - b|| <= DEFAULT_TOL (||A||_1 ||x|| +
    ||b||), unless LAPACK's estimate of 1 / cond_1(a) is at most 10 n eps,
    where x need have no correct digit."""
    a_norm = float(np.linalg.norm(a, 1))
    rcond, info = dpocon(factor, a_norm)
    return (info == 0 and rcond > 10 * a.shape[0] * np.finfo(np.float64).eps
            and residual <= DEFAULT_TOL * (a_norm * float(np.linalg.norm(x)) + b_norm))


def _jacobi_pcg(a, b: np.ndarray, inv_diag: np.ndarray, stop: float) -> np.ndarray:
    """Conjugate gradients from x = 0, preconditioned by inv_diag, until
    ||r|| < stop or 10n steps: step for step the arithmetic of scipy's
    ``cg(a, b, rtol, atol=0, M=diags(inv_diag), maxiter=10n)`` with stop =
    rtol ||b||, so x has its bits, without its per-step operator dispatch."""
    x = np.zeros(b.shape[0])
    r = b.copy()
    p = rho_prev = None
    for _ in range(10 * b.shape[0]):
        if math.sqrt(r.dot(r)) < stop:
            break
        z = inv_diag * r
        rho = np.dot(r, z)
        if p is None:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        q = a @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x


def _system(weights, v, u, gamma_g: float, extra=0.0):
    """``A = diag(d_u + gamma_g v_u + extra) - W_uu`` and W's rows u, where
    W = V weights V (W = weights when v is None) and d = W 1; u is an index
    array or ``slice(None)`` for every node.  Sparse weights give a sparse
    A and CSR rows, dense weights dense ones."""
    v_u = 1.0 if v is None else v[u]
    if sp.issparse(weights):
        w = weights.tocsr()
        if v is not None:
            # (v_i w_ij) v_j on a copy, stored zeros dropped: the bits of
            # diags(v) @ W @ diags(v) on W without repeated entries, in a
            # quarter of its time
            w = w.astype(np.float64)
            w.data *= np.repeat(v, np.diff(w.indptr))
            w.data *= v[w.indices]
            w.eliminate_zeros()
        rows = w[u]
        d = np.asarray(rows.sum(axis=1)).ravel()
        # the diagonal formed as CSR directly: sp.diags and its conversion
        # took 0.09 ms of a 0.25 ms subtraction at 2 000 nodes
        k = np.arange(d.size + 1)
        return sp.csr_matrix((d + gamma_g * v_u + extra, k[:-1], k)) - rows[:, u], rows
    # W's rows u alone, copied, each entry (v_i w_ij) v_j
    w = np.asarray(weights, dtype=np.float64)
    u = np.arange(w.shape[0]) if isinstance(u, slice) else u
    rows = w[u]
    if v is not None:
        rows *= v_u[:, None]
        rows *= v
    shift = rows.sum(axis=1) + gamma_g * v_u + extra
    # C-ordered blocks, as np.ix_ gives them (the Cholesky and the
    # product read the layout), in 40% of np.ix_'s time on 75 nodes.
    # A in place: 0 - w as diag(shift) - W_uu forms it off the diagonal,
    # and (0 - w) + s == s - w on it
    a = rows.take(u, axis=1)
    np.subtract(0.0, a, out=a)
    a.reshape(-1)[::u.size + 1] += shift
    return a, rows


def solve_clamped(weights, y: np.ndarray, gamma_g: float,
                  v: np.ndarray | None = None) -> np.ndarray:
    """Hard harmonic values on W = V weights V (W = weights when v is None):
    the nonzero entries of y stay clamped and the rest solve
    ``(D_uu + gamma_g V_uu - W_uu) l_u = W_ul y_l``.  The inputs are not
    checked: ``solve_harmonic`` checks its own, and online prediction
    passes one labeled component of its sketch's graph."""
    u, l = (y == 0).nonzero()[0], y.nonzero()[0]
    values = y.copy()
    if not u.size:
        return values
    a, rows = _system(weights, v, u, gamma_g)
    # a dense W_ul C-ordered, as np.ix_ gives it: the product reads the layout
    w_ul = rows.take(l, axis=1) if isinstance(rows, np.ndarray) else rows[:, l]
    values[u] = solve_spd(a, w_ul @ y[l])
    return values


def solve_harmonic(weights, y: np.ndarray, gamma_g: float, fit: np.ndarray | None = None,
                   multiplicities: np.ndarray | None = None) -> np.ndarray:
    """Harmonic solution on W = V weights V, node i standing for
    multiplicities[i] (default 1) replicas; sparse weights give a sparse
    system, dense weights a dense one.  With fit None the nonzero entries
    of y are clamped (hard, ``solve_clamped``), else every node is fitted
    with weight fit (soft).  A hard solve at gamma_g == 0 raises
    ``DegenerateGraphError`` for a component without a label, whose system
    would be singular."""
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0] if y.ndim == 1 else -1
    if np.shape(weights) != (n, n) or not np.all(np.isfinite(y)):
        raise InputError("weights must be n x n and y a finite length-n vector")
    check_gamma_g(gamma_g)
    v = np.ones(n) if multiplicities is None else np.asarray(multiplicities, dtype=np.float64)
    if v.shape != (n,) or not np.all(np.isfinite(v) & (v >= 1)):
        raise InputError("multiplicities must be finite and >= 1, one per node")
    mult = None if multiplicities is None else v
    if fit is None:
        labeled = y != 0
        if not labeled.any():
            raise InputError("at least one labeled node required")
        if gamma_g == 0.0 and not labeled.all():
            comp_of = component_labels(weights)
            if np.unique(comp_of[labeled]).size <= comp_of.max():
                raise DegenerateGraphError(
                    "gamma_g = 0 with a label-free component makes the system singular")
        return solve_clamped(weights, y, gamma_g, mult)
    fit = np.asarray(fit, dtype=np.float64)
    if fit.shape != (n,) or not np.all(np.isfinite(fit) & (fit > 0)):
        raise InputError("fit weights must be finite and > 0, one per node")
    # every node as a slice: index-array gathers double a sparse assembly's time
    a, _ = _system(weights, mult, slice(None), gamma_g, fit * v)
    return solve_spd(a, fit * v * y)


def hard_harmonic(g: SimilarityGraph, labels: np.ndarray, gamma_g: float = 0.0) -> SoftLabels:
    """Propagate clamped labels; the unlabeled block is solved against the
    (optionally sink-regularized) Laplacian's unlabeled block.

    The graph keeps its last hard solve, keyed by float(gamma_g) and the
    labels' dtype, shape and float64 bytes: a repeated call returns a copy
    of the kept values without solving again (so a max-margin cut at a
    gamma_g already solved on its graph induces its labels for free).  This
    holds because a SimilarityGraph's weights are not modified after
    construction.  A solve that raises is not kept, so it raises on every
    call."""
    labels = np.asarray(labels)
    y = np.asarray(labels, dtype=np.float64)
    key = (float(gamma_g), labels.dtype.str, y.shape, y.tobytes())
    kept = g._hard_solve
    if kept is None or kept[0] != key:
        kept = g._hard_solve = (key, solve_harmonic(g.weights, y, gamma_g))
    return SoftLabels(kept[1].copy())


def soft_harmonic(g: SimilarityGraph, y: np.ndarray, cfg: SoftConfig) -> SoftLabels:
    """Minimize (l - y)' C (l - y) + l' (D - W + gamma_g I) l.

    Entries of y equal to 0 count as unlabeled and get fit weight c_u;
    nonzero entries get c_l.
    """
    fit = np.where(np.asarray(y) != 0, cfg.c_l, cfg.c_u)
    return SoftLabels(solve_harmonic(g.weights, y, cfg.gamma_g, fit))
