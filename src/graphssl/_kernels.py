"""Feature-weighted squared Euclidean distances, computed by scipy.spatial.

``pdist`` evaluates each unordered pair once, so ``pairwise_sq_dists`` is
bit-exact symmetric with a zero diagonal.  ``pair_sq_dists`` evaluates the
same sum for chosen index pairs, term for term in feature order, so its
values equal the matching ``pdist``/``cdist`` entries bit for bit.
"""

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

# There is one backend; the constant stays for tools that stamp which ran.
USING_NUMBA = False


def pairwise_sq_dists(x: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """n x n matrix of feature-weighted squared Euclidean distances."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] == 0:
        return np.zeros((0, 0))
    return squareform(pdist(x, "sqeuclidean", w=np.asarray(psi, dtype=np.float64)))


def cross_sq_dists(a: np.ndarray, b: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """len(a) x len(b) matrix of feature-weighted squared distances."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    return cdist(a, b, "sqeuclidean", w=np.asarray(psi, dtype=np.float64))


def pair_sq_dists(x: np.ndarray, i: np.ndarray, j: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Squared distances between rows i[t] and j[t] of x, in O(len(i)) memory.

    Accumulates (psi_f * diff_f) * diff_f over the features in order from
    0, the sum scipy's weighted sqeuclidean computes."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    psi = np.asarray(psi, dtype=np.float64)
    out = np.zeros(len(i))
    for f in range(x.shape[1]):
        col = x[:, f]
        diff = col[i] - col[j]
        out += psi[f] * diff * diff
    return out
