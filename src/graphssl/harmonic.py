"""Label propagation on similarity graphs: one harmonic system.

``solve_harmonic`` gives the (regularized) harmonic solution on the graph
W = V W~ V, whose node i stands for v_i replicas (v = 1 by default), with
L = D - W, in one of two forms:

* hard: labeled values are clamped and the unlabeled block is solved as
  ``(L_uu + gamma_g V_uu) l_u = -L_ul y_l``.  With gamma_g == 0 every
  unlabeled value is the degree-weighted average of its neighbors; with
  gamma_g > 0 a zero-labeled sink shrinks values toward 0 with distance
  from the labels.
* soft: the fit to pseudo-targets y is a penalty, not a constraint;
  minimizing ``(l - y)' F V (l - y) + l' (L + gamma_g V) l`` gives the SPD
  system ``(L + gamma_g V + F V) l = F V y``.

``hard_harmonic``, ``soft_harmonic``, ``online.compact_harmonic`` and
``cad.backbone_cad`` wrap it, and every solve meets the relative residual
``DEFAULT_TOL``.  ``solve_spd`` factors a dense system (dense weights) or a
sparse one (sparse weights) of at most ``DENSE_MAX_N`` rows by Cholesky, and
a larger sparse one by Jacobi-preconditioned conjugate gradients, which the
badly conditioned hard systems of a small sink gamma_g need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.sparse.linalg import cg

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
    if not (np.isfinite(gamma_g) and gamma_g >= 0):
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


def solve_spd(a, b: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve the symmetric positive-definite system Ax = b.

    A dense ``ndarray`` or a system of at most ``DENSE_MAX_N`` rows is
    solved by dense Cholesky; a larger sparse one by conjugate gradients
    preconditioned with 1/diag(A), capped at 10n iterations.  Either way
    the result must satisfy ||Ax - b|| <= tol * ||b||; otherwise, and for a
    matrix that is not positive definite, ``SolverError`` is raised.
    """
    b = np.asarray(b, dtype=np.float64)
    if not tol > 0:
        raise InputError("tol must be positive")
    if not sp.issparse(a):
        a = np.asarray(a, dtype=np.float64)
    n = b.shape[0]
    if a.shape != (n, n):
        raise InputError("system matrix must be n x n for a length-n right-hand side")
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n)
    if isinstance(a, np.ndarray) or n <= DENSE_MAX_N:
        # LAPACK's Cholesky called directly, as cho_factor/cho_solve call it
        # (upper factor, no cleaning), without their per-call batching layer
        factor, info = dpotrf(a if isinstance(a, np.ndarray) else a.toarray(), clean=0)
        if info == 0:
            x, info = dpotrs(factor, b)
        if info != 0:
            raise SolverError("matrix is not positive definite", 1.0)
    else:
        a = a.tocsr()
        diag = a.diagonal()
        if not np.all(diag > 0):
            raise SolverError("matrix has a non-positive diagonal entry", 1.0)
        # a margin below tol: the final check uses the true residual, not
        # the recurrence CG stops on
        x, _ = cg(a, b, rtol=0.5 * tol, atol=0.0, maxiter=10 * n, M=sp.diags(1.0 / diag))
    residual = float(np.linalg.norm(a @ x - b))
    if not residual <= tol * b_norm:
        raise SolverError("solution misses the residual tolerance", residual / b_norm)
    return x


def _laplacian(weights, v):
    """D - W of W = V weights V (W = weights when v is None): sparse for
    sparse weights, else dense.  A self-loop cancels in D - W."""
    if sp.issparse(weights):
        w = weights if v is None else sp.diags(v) @ weights @ sp.diags(v)
        return (sp.diags(np.asarray(w.sum(axis=1)).ravel()) - w).tocsr()
    w = np.asarray(weights, dtype=np.float64)
    lap = -(w if v is None else v[:, None] * w * v[None, :])
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def solve_harmonic(weights, y: np.ndarray, gamma_g: float, fit: np.ndarray | None = None,
                   multiplicities: np.ndarray | None = None) -> np.ndarray:
    """Harmonic solution on W = V weights V, node i standing for
    multiplicities[i] (default 1) replicas; sparse weights give a sparse
    system, dense weights a dense one.  With fit None the nonzero entries
    of y are clamped (hard), else every node is fitted with weight fit
    (soft).  A hard solve at gamma_g == 0 raises ``DegenerateGraphError``
    for a component without a label, whose system would be singular."""
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0] if y.ndim == 1 else -1
    if np.shape(weights) != (n, n) or not np.all(np.isfinite(y)):
        raise InputError("weights must be n x n and y a finite length-n vector")
    check_gamma_g(gamma_g)
    v = np.ones(n) if multiplicities is None else np.asarray(multiplicities, dtype=np.float64)
    if v.shape != (n,) or not np.all(np.isfinite(v) & (v >= 1)):
        raise InputError("multiplicities must be finite and >= 1, one per node")
    lap = _laplacian(weights, None if multiplicities is None else v)
    diag = sp.diags if sp.issparse(lap) else np.diag
    values = y.copy()
    if fit is None:
        labeled = y != 0
        if not labeled.any():
            raise InputError("at least one labeled node required")
        if labeled.all():
            return values
        if gamma_g == 0.0:
            comp_of = component_labels(weights)
            if np.unique(comp_of[labeled]).size <= comp_of.max():
                raise DegenerateGraphError(
                    "gamma_g = 0 with a label-free component makes the system singular")
        u, l = np.flatnonzero(~labeled), np.flatnonzero(labeled)
        a, b = lap[np.ix_(u, u)] + diag(gamma_g * v[u]), -lap[np.ix_(u, l)] @ y[l]
    else:
        fit = np.asarray(fit, dtype=np.float64)
        if fit.shape != (n,) or not np.all(np.isfinite(fit) & (fit > 0)):
            raise InputError("fit weights must be finite and > 0, one per node")
        u = slice(None)
        a, b = lap + diag(gamma_g * v) + diag(fit * v), fit * v * y
    values[u] = solve_spd(a, b)
    return values


def hard_harmonic(g: SimilarityGraph, labels: np.ndarray, gamma_g: float = 0.0) -> SoftLabels:
    """Propagate clamped labels; unlabeled block solved against the
    (optionally sink-regularized) Laplacian."""
    return SoftLabels(solve_harmonic(g.weights, labels, gamma_g))


def soft_harmonic(g: SimilarityGraph, y: np.ndarray, cfg: SoftConfig) -> SoftLabels:
    """Minimize (l - y)' C (l - y) + l' (L + gamma_g I) l.

    Entries of y equal to 0 count as unlabeled and get fit weight c_u;
    nonzero entries get c_l.
    """
    fit = np.where(np.asarray(y) != 0, cfg.c_l, cfg.c_u)
    return SoftLabels(solve_harmonic(g.weights, y, cfg.gamma_g, fit))


def blockwise_harmonic(g: SimilarityGraph, y: np.ndarray, cfg: SoftConfig,
                       partition: list[np.ndarray]) -> SoftLabels:
    """Soft solve run independently per block (cross-block edges dropped),
    results concatenated in node order.

    With partition == connected_components(g) this equals the whole-graph
    solve: the system is block-diagonal.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (g.n,):
        raise InputError("y must be a length-n vector")
    seen = np.zeros(g.n, dtype=bool)
    for block in partition:
        block = np.asarray(block, dtype=np.int64)
        if block.size and (block.min() < 0 or block.max() >= g.n):
            raise InputError("partition indices out of range")
        if seen[block].any():
            raise InputError("partition blocks overlap")
        seen[block] = True
    if not seen.all():
        raise InputError("partition does not cover all nodes")
    values = np.empty(g.n)
    for block in partition:
        block = np.asarray(block, dtype=np.int64)
        if block.size == 0:
            continue
        sub = g.subgraph(block)
        values[block] = soft_harmonic(sub, y[block], cfg).values
    return SoftLabels(values)
