"""Label propagation on similarity graphs.

Two flavors:

* hard: labeled values are clamped and the unlabeled block is solved as
  ``(L_uu + gamma_g I) l_u = W_ul l_l``.  With gamma_g == 0 every
  unlabeled value is the degree-weighted average of its neighbors; with
  gamma_g > 0 a zero-labeled sink shrinks values toward 0 with distance
  from the labels.
* soft: the fit to pseudo-targets y is a penalty, not a constraint.  The
  quadratic ``(l - y)' C (l - y) + l' (L + gamma_g I) l`` is minimized by
  solving the SPD system ``(K + C) l = C y`` (algebraically the same as
  the textbook non-symmetric form ``(C^{-1} K + I) l = y``).

Every system goes through ``solve_spd``.  A dense ``ndarray`` or a system of
at most ``DENSE_MAX_N`` rows is factored by dense Cholesky; a larger sparse
system is solved by conjugate gradients with a Jacobi (diagonal)
preconditioner.  The preconditioner is needed: with a small sink gamma_g
the hard systems are badly conditioned, and plain CG took most of the
solve time on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.sparse.linalg import cg

from .errors import DegenerateGraphError, InputError, SolverError
from .graph import SimilarityGraph, component_labels, laplacian

DEFAULT_TOL = 1e-10

# Largest sparse system solved by dense Cholesky.  On k-NN (k=10) Laplacian
# systems, one thread, Cholesky of the densified matrix and Jacobi-PCG cost
# the same at about 400 rows (2.5-2.8 ms); Cholesky is 10x faster at 100
# rows, PCG 5x faster at 2000.
DENSE_MAX_N = 400


@dataclass(frozen=True)
class SoftConfig:
    """Weights of the soft solve: sink regularizer gamma_g, labeled fit
    weight c_l, unlabeled fit weight c_u (0 < c_u <= c_l)."""

    gamma_g: float = 1e-6
    c_l: float = 10.0
    c_u: float = 0.1

    def __post_init__(self):
        if not (np.isfinite(self.gamma_g) and self.gamma_g >= 0):
            raise InputError("gamma_g must be finite and >= 0")
        if not (self.c_l > 0 and self.c_u > 0):
            raise InputError("fit weights must be positive")
        if self.c_u > self.c_l:
            raise InputError("c_u must not exceed c_l")


@dataclass(frozen=True)
class SoftLabels:
    """Propagated label values; |values[i]| is the labeling confidence."""

    values: np.ndarray
    origin: str

    def signs(self) -> np.ndarray:
        return np.sign(self.values).astype(np.int64)


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
        dense = a if isinstance(a, np.ndarray) else a.toarray()
        try:
            x = cho_solve(cho_factor(dense, check_finite=False), b, check_finite=False)
        except LinAlgError:
            raise SolverError("matrix is not positive definite", 1.0) from None
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


def check_labeled_components(weights, labeled_mask: np.ndarray) -> None:
    """Raise unless every component of the weight matrix (dense or sparse)
    holds a labeled node: without a sink, a label-free component makes the
    hard system singular."""
    comp_of = component_labels(weights)
    if comp_of.size and np.unique(comp_of[labeled_mask]).size <= comp_of.max():
        raise DegenerateGraphError(
            "gamma_g = 0 with a label-free component makes the system singular")


def hard_harmonic(g: SimilarityGraph, labels: np.ndarray, gamma_g: float = 0.0,
                  tol: float = DEFAULT_TOL) -> SoftLabels:
    """Propagate clamped labels; unlabeled block solved against the
    (optionally sink-regularized) Laplacian."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (g.n,):
        raise InputError("labels must be a length-n vector")
    labeled = labels != 0
    if not labeled.any():
        raise InputError("at least one labeled node required")
    if not (np.isfinite(gamma_g) and gamma_g >= 0):
        raise InputError("gamma_g must be finite and >= 0")
    values = labels.copy()
    unlabeled = ~labeled
    if not unlabeled.any():
        return SoftLabels(values, "hard_hs")
    if gamma_g == 0.0:
        check_labeled_components(g.weights, labeled)
    u_idx = np.flatnonzero(unlabeled)
    l_idx = np.flatnonzero(labeled)
    lap = laplacian(g)
    a = lap[np.ix_(u_idx, u_idx)] + gamma_g * sp.identity(u_idx.size, format="csr")
    b = np.asarray(g.weights[np.ix_(u_idx, l_idx)] @ labels[l_idx]).ravel()
    values[u_idx] = solve_spd(a.tocsr(), b, tol)
    return SoftLabels(values, "hard_hs")


def soft_harmonic(g: SimilarityGraph, y: np.ndarray, cfg: SoftConfig,
                  tol: float = DEFAULT_TOL) -> SoftLabels:
    """Minimize (l - y)' C (l - y) + l' (L + gamma_g I) l.

    Entries of y equal to 0 count as unlabeled and get fit weight c_u;
    nonzero entries get c_l.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (g.n,):
        raise InputError("y must be a length-n vector")
    c_diag = np.where(y != 0, cfg.c_l, cfg.c_u)
    k = laplacian(g) + cfg.gamma_g * sp.identity(g.n, format="csr")
    a = (k + sp.diags(c_diag)).tocsr()
    values = solve_spd(a, c_diag * y, tol)
    return SoftLabels(values, "soft_hs")


def blockwise_harmonic(g: SimilarityGraph, y: np.ndarray, cfg: SoftConfig,
                       partition: list[np.ndarray], tol: float = DEFAULT_TOL) -> SoftLabels:
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
        values[block] = soft_harmonic(sub, y[block], cfg, tol).values
    return SoftLabels(values, "soft_hs")
