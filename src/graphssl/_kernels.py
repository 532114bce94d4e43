"""Feature-weighted squared Euclidean distances, computed by scipy.spatial.

``pdist`` evaluates each unordered pair once, so ``pairwise_sq_dists`` is
bit-exact symmetric with a zero diagonal.  ``pair_sq_dists`` evaluates the
same sum for chosen index pairs, term for term in feature order, so its
values equal the matching ``pdist``/``cdist`` entries bit for bit.

Feature weights ``psi`` of None or all ones take scipy's unweighted kernel,
which sums the same terms in the same order (1.0 * diff is diff) and runs
about 1.6 times faster at p = 2.  Callers whose weights are always ones
pass None and skip the check.
"""

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

# There is one backend; the constant stays for tools that stamp which ran.
USING_NUMBA = False


def _weights(psi) -> np.ndarray | None:
    """psi as float64, or None for no weights or all-ones weights."""
    if psi is None:
        return None
    psi = np.asarray(psi, dtype=np.float64)
    return None if np.all(psi == 1.0) else psi


def pairwise_sq_dists(x: np.ndarray, psi: np.ndarray | None) -> np.ndarray:
    """n x n matrix of feature-weighted squared Euclidean distances."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] == 0:
        return np.zeros((0, 0))
    return squareform(pdist(x, "sqeuclidean", w=_weights(psi)))


def cross_sq_dists(a: np.ndarray, b: np.ndarray, psi: np.ndarray | None) -> np.ndarray:
    """len(a) x len(b) matrix of feature-weighted squared distances."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    return cdist(a, b, "sqeuclidean", w=_weights(psi))


def pair_sq_dists(x: np.ndarray, i: np.ndarray, j: np.ndarray,
                  psi: np.ndarray | None) -> np.ndarray:
    """Squared distances between rows i[t] and j[t] of x, in O(len(i)) memory.

    Accumulates (psi_f * diff_f) * diff_f, or diff_f * diff_f without
    weights, over the features in order from 0, the sum scipy's
    sqeuclidean computes."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    psi = _weights(psi)
    out = np.zeros(len(i))
    for f in range(x.shape[1]):
        col = x[:, f]
        diff = col[i] - col[j]
        out += diff * diff if psi is None else psi[f] * diff * diff
    return out
