"""Synthetic datasets with computable ground truth.

Two families: per-class Gaussian mixtures (exact Bayes posteriors) and
the planar "core" layout of nested uniform squares plus two far-out tiny
clusters, which stresses anomaly detectors with fringe and isolated
points.  Everything is generated by the package's counter-based RNG, so a
(spec, seed) pair pins the dataset byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InputError
from .graph import PointSet
from .rng import PortableRng


@dataclass(frozen=True)
class ClassMixture:
    """Weights, means, and covariances of one class's Gaussian mixture."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        cov = np.asarray(self.covs, dtype=np.float64)
        if cov.ndim == 2:
            cov = cov[None, :, :]
        if w.ndim != 1 or w.size != mu.shape[0] or cov.shape[0] != w.size:
            raise InputError("weights, means, covs must agree in component count")
        if np.any(w < 0) or not np.isclose(w.sum(), 1.0):
            raise InputError("component weights must be nonnegative and sum to 1")
        chols = []
        for c in cov:
            if c.shape != (mu.shape[1], mu.shape[1]):
                raise InputError("covariance shape mismatch")
            try:
                chols.append(np.linalg.cholesky(c))
            except np.linalg.LinAlgError as exc:
                raise InputError("covariances must be symmetric positive-definite") from exc
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covs", cov)
        object.__setattr__(self, "_chols", np.stack(chols))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def density(self, x: np.ndarray) -> np.ndarray:
        """Mixture pdf at each row of x."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.zeros(x.shape[0])
        p = self.dim
        for w, mu, chol in zip(self.weights, self.means, self._chols):
            diff = x - mu
            sol = np.linalg.solve(chol, diff.T).T
            quad = np.einsum("ij,ij->i", sol, sol)
            log_det = np.sum(np.log(np.diag(chol)))
            out += w * np.exp(-0.5 * quad - log_det - 0.5 * p * np.log(2 * np.pi))
        return out


@dataclass(frozen=True)
class MixtureSpec:
    """Two-class generative model: one mixture per class plus priors."""

    pos: ClassMixture
    neg: ClassMixture
    prior_pos: float = 0.5

    def __post_init__(self):
        if not (0 < self.prior_pos < 1):
            raise InputError("prior_pos must lie strictly between 0 and 1")
        if self.pos.dim != self.neg.dim:
            raise InputError("class mixtures must share the feature dimension")

    @property
    def dim(self) -> int:
        return self.pos.dim


def _sample_mixture(cm: ClassMixture, n: int, rng: PortableRng) -> np.ndarray:
    comp_edges = np.cumsum(cm.weights)
    comp = np.searchsorted(comp_edges, rng.random(n), side="right")
    comp = np.minimum(comp, cm.weights.size - 1)
    z = rng.normal(n * cm.dim).reshape(n, cm.dim)
    out = np.empty((n, cm.dim))
    for j in range(cm.weights.size):
        rows = comp == j
        if rows.any():
            out[rows] = cm.means[j] + z[rows] @ cm._chols[j].T
    return out


def gen_gauss_mixture(spec: MixtureSpec, n: int, seed: int) -> PointSet:
    """n labeled draws: class by prior, component by weight, point by its
    Gaussian.  Fully labeled output (labels are the true classes)."""
    rng = PortableRng(seed)
    is_pos = rng.random(n) < spec.prior_pos
    points = np.empty((n, spec.dim))
    n_pos = int(is_pos.sum())
    pos_pts = _sample_mixture(spec.pos, n_pos, rng.derive(1)) if n_pos else np.empty((0, spec.dim))
    neg_pts = _sample_mixture(spec.neg, n - n_pos, rng.derive(2)) if n - n_pos else np.empty((0, spec.dim))
    points[is_pos] = pos_pts
    points[~is_pos] = neg_pts
    labels = np.where(is_pos, 1, -1).astype(np.int64)
    return PointSet(points, labels)


def _opposite_posterior(d_pos: np.ndarray, d_neg: np.ndarray, y: np.ndarray,
                        fallback) -> np.ndarray:
    """Opposite-class posterior from prior-weighted densities; fallback at 0/0."""
    total = d_pos + d_neg
    opposite = np.where(y == 1, d_neg, d_pos)
    return np.where(total > 0, np.divide(opposite, total, out=np.zeros_like(total),
                                         where=total > 0), fallback)


def true_anomaly_scores(spec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact Bayes posterior of the opposite class at each (x, y) under a
    ``MixtureSpec`` (its prior where both densities are 0) or a ``CoreSpec``."""
    if isinstance(spec, CoreSpec):
        return core_true_scores(spec, x, y)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y))
    d_pos = spec.pos.density(x) * spec.prior_pos
    d_neg = spec.neg.density(x) * (1.0 - spec.prior_pos)
    return _opposite_posterior(d_pos, d_neg, y,
                               np.where(y == 1, 1.0 - spec.prior_pos, spec.prior_pos))


def true_anomaly_score(spec: MixtureSpec, x: np.ndarray, y: int) -> float:
    return float(true_anomaly_scores(spec, np.atleast_2d(x), np.array([y]))[0])


def flip_labels(ps: PointSet, fraction: float, seed: int) -> tuple[PointSet, np.ndarray]:
    """Negate the labels of floor(fraction * n) distinct uniformly chosen
    examples; returns the corrupted set and the flip mask."""
    if not 0 <= fraction <= 1:
        raise InputError("fraction must be in [0, 1]")
    n_flip = int(np.floor(fraction * ps.n))
    rng = PortableRng(seed)
    idx = rng.choice(ps.n, n_flip)
    mask = np.zeros(ps.n, dtype=bool)
    mask[idx] = True
    labels = ps.labels.copy()
    labels[mask] = -labels[mask]
    return PointSet(ps.points, labels, ps.feature_weights), mask


Rect = tuple[float, float, float, float]     # (x_lo, x_hi, y_lo, y_hi)


def _rect_contains(outer: Rect, inner: Rect) -> bool:
    return (outer[0] <= inner[0] and inner[1] <= outer[1]
            and outer[2] <= inner[2] and inner[3] <= outer[3])


def _rect_disjoint(a: Rect, b: Rect) -> bool:
    return a[1] <= b[0] or b[1] <= a[0] or a[3] <= b[2] or b[3] <= a[2]


def _rect_area(r: Rect) -> float:
    return (r[1] - r[0]) * (r[3] - r[2])


def _in_rect(x: np.ndarray, r: Rect) -> np.ndarray:
    return ((x[:, 0] >= r[0]) & (x[:, 0] <= r[1])
            & (x[:, 1] >= r[2]) & (x[:, 1] <= r[3]))


@dataclass(frozen=True)
class CoreSpec:
    """Planar layout: a big uniform square (class -1) containing a denser
    inner square (class +1), plus two small one-class clusters away from
    both.  Test sets double every count and add ``anomaly_count`` points
    uniform in the inner square carrying the -1 label — the conditional
    anomalies."""

    big: Rect = (0.0, 10.0, 0.0, 10.0)
    big_count: int = 100
    inner: Rect = (4.0, 6.0, 4.0, 6.0)
    inner_count: int = 50
    tiny1: Rect = (11.0, 13.5, 11.0, 13.5)
    tiny1_count: int = 3
    tiny1_label: int = 1
    tiny2: Rect = (11.8, 14.3, 11.8, 14.3)
    tiny2_count: int = 3
    tiny2_label: int = -1
    anomaly_count: int = 12

    def __post_init__(self):
        if not _rect_contains(self.big, self.inner):
            raise InputError("inner square must lie inside the big square")
        for tiny in (self.tiny1, self.tiny2):
            if not (_rect_disjoint(tiny, self.big) and _rect_disjoint(tiny, self.inner)):
                raise InputError("tiny squares must be disjoint from both squares")
        if self.tiny1_label not in (-1, 1) or self.tiny2_label not in (-1, 1):
            raise InputError("tiny square labels must be +-1")

    def in_tiny(self, x: np.ndarray) -> np.ndarray:
        return _in_rect(x, self.tiny1) | _in_rect(x, self.tiny2)


def _uniform_rect(rng: PortableRng, r: Rect, n: int, hole: Rect | None = None) -> np.ndarray:
    """n uniform points in r; those in hole, if given, are drawn again from
    the same stream until none is left."""
    out = np.empty((n, 2))
    have = 0
    while have < n:
        cand = np.column_stack([rng.uniform(r[0], r[1], n - have),
                                rng.uniform(r[2], r[3], n - have)])
        good = cand if hole is None else cand[~_in_rect(cand, hole)]
        out[have:have + good.shape[0]] = good
        have += good.shape[0]
    return out


@dataclass(frozen=True)
class CoreTruth:
    anomaly_mask: np.ndarray
    true_scores: np.ndarray


def _core_layout(spec: CoreSpec) -> list[tuple[Rect, int, int]]:
    """(square, training count, label) of each square, in drawing order."""
    return [(spec.big, spec.big_count, -1), (spec.inner, spec.inner_count, 1),
            (spec.tiny1, spec.tiny1_count, spec.tiny1_label),
            (spec.tiny2, spec.tiny2_count, spec.tiny2_label)]


def core_true_scores(spec: CoreSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bayes posterior of the opposite class under the piecewise-uniform
    generative model implied by the training counts (0.5 outside every
    square)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y))
    layout = _core_layout(spec)
    total_count = sum(count for _, count, _ in layout)
    dens = {1: np.zeros(x.shape[0]), -1: np.zeros(x.shape[0])}
    for rect, count, label in layout:
        dens[label] += (count / total_count) / _rect_area(rect) * _in_rect(x, rect)
    return _opposite_posterior(dens[1], dens[-1], y, 0.5)


def _draw_squares(rng: PortableRng, first_tag: int, parts: list[tuple[Rect, int, int]],
                  hole: Rect | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points and labels of (square, count, label) parts, part t from
    stream rng.derive(first_tag + t); the first part avoids hole if given."""
    points = [_uniform_rect(rng.derive(first_tag + t), rect, count, None if t else hole)
              for t, (rect, count, _) in enumerate(parts)]
    labels = np.concatenate([np.full(count, label) for _, count, label in parts])
    return np.vstack(points), labels.astype(np.int64)


def gen_core_dataset(spec: CoreSpec, seed: int) -> tuple[PointSet, PointSet, CoreTruth]:
    """Training set with the spec's counts, a test set with doubled counts
    (big-square test points avoid the inner square so the anomaly mask is
    exact), and the ``anomaly_count`` injected -1 points in the inner
    square marked as ground truth."""
    rng = PortableRng(seed)
    layout = _core_layout(spec)
    train = PointSet(*_draw_squares(rng, 1, layout))
    te_pts, te_labels = _draw_squares(
        rng, 1 + len(layout), [(rect, 2 * count, label) for rect, count, label in layout]
        + [(spec.inner, spec.anomaly_count, -1)], hole=spec.inner)
    mask = np.zeros(te_labels.size, dtype=bool)
    mask[-spec.anomaly_count:] = True
    test = PointSet(te_pts, te_labels)
    truth = CoreTruth(mask, core_true_scores(spec, te_pts, te_labels))
    return train, test, truth


def draw_dataset(spec, n: int, seed: int,
                 flip: float) -> tuple[PointSet, PointSet | None, np.ndarray, np.ndarray]:
    """One seeded draw: (train, test, true labels, anomaly mask).  A mixture
    draws n points and flips a fraction flip of their labels (flip seed
    seed + 1_000_003): test is None, and the labels and mask are the clean
    labels and flips of the training rows.  A core split ignores n and flip:
    the labels and mask are the test rows' labels and injected anomalies."""
    if isinstance(spec, MixtureSpec):
        clean = gen_gauss_mixture(spec, n, seed)
        train, mask = flip_labels(clean, flip, seed + 1_000_003)
        return train, None, clean.labels, mask
    if isinstance(spec, CoreSpec):
        train, test, truth = gen_core_dataset(spec, seed)
        return train, test, test.labels, truth.anomaly_mask
    raise InputError(f"unsupported dataset spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# key = value config files (JSON-encoded values)

def parse_config_text(text: str) -> dict:
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        value = value.strip()
        try:
            cfg[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            cfg[key.strip()] = value          # bare-word string
    return cfg


def _mixture_from_config(cfg: dict) -> MixtureSpec:
    def side(prefix):
        return ClassMixture(
            weights=np.asarray(cfg[f"{prefix}.weights"], dtype=np.float64),
            means=np.asarray(cfg[f"{prefix}.means"], dtype=np.float64),
            covs=np.asarray(cfg[f"{prefix}.covs"], dtype=np.float64),
        )
    return MixtureSpec(pos=side("pos"), neg=side("neg"),
                       prior_pos=float(cfg.get("prior_pos", 0.5)))


def _core_from_config(cfg: dict) -> CoreSpec:
    kwargs = {}
    for key in ("big", "inner", "tiny1", "tiny2"):
        if key in cfg:
            kwargs[key] = tuple(float(v) for v in cfg[key])
    for key in ("big_count", "inner_count", "tiny1_count", "tiny2_count",
                "tiny1_label", "tiny2_label", "anomaly_count"):
        if key in cfg:
            kwargs[key] = int(cfg[key])
    return CoreSpec(**kwargs)


def _spec_from_text(text: str):
    cfg = parse_config_text(text)
    kind = cfg.get("type")
    if kind == "mixture":
        return _mixture_from_config(cfg)
    if kind == "core":
        return _core_from_config(cfg)
    raise InputError(f"config type must be 'mixture' or 'core', got {kind!r}")


def load_dataset_spec(path: str | Path):
    """Read a dataset config file; its ``type`` key picks the family."""
    return _spec_from_text(Path(path).read_text())


def _load_packaged(name: str):
    return _spec_from_text(resources.files("graphssl").joinpath(f"configs/{name}").read_text())


def default_mixtures() -> dict[str, MixtureSpec]:
    """The three shipped two-class mixture layouts."""
    return {name: _load_packaged(f"{name}.cfg") for name in ("d1", "d2", "d3")}


def default_core() -> CoreSpec:
    return _load_packaged("core.cfg")
