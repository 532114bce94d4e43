"""Ranking evaluation."""

from __future__ import annotations

import numpy as np

from .errors import InputError


def auroc(scores: np.ndarray, truth: np.ndarray) -> float:
    """Area under the ROC curve by the rank-sum formulation:
    P(score of a random positive > random negative) + 0.5 P(tie).
    truth is bool or 0/1, 1 the positive class; any other value raises
    ``InputError``, as a NaN score does, which has no rank; infinities rank."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    if scores.shape != truth.shape or scores.ndim != 1:
        raise InputError("scores and truth must be equal-length vectors")
    if truth.dtype != bool:
        bad = np.flatnonzero((truth != 0) & (truth != 1))
        if bad.size:
            raise InputError(f"truth {bad[0]} is {truth[bad[0]].item()!r} ({bad.size} in all); "
                             "truth must be bool or 0/1")
        truth = truth == 1
    nan = np.flatnonzero(np.isnan(scores))
    if nan.size:
        raise InputError(f"score {nan[0]} is NaN ({nan.size} in all); a NaN has no rank")
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise InputError("truth must contain both classes")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    midranks = ends - (counts - 1) / 2.0      # 1-based average rank per distinct value
    ranks = midranks[inverse]
    rank_sum = float(ranks[truth].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
