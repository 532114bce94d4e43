"""Synthetic datasets with computable ground truth.

Two families: per-class Gaussian mixtures (exact Bayes posteriors) and
the planar "core" layout of nested uniform squares plus two far-out tiny
clusters, which stresses anomaly detectors with fringe and isolated
points.  Everything is generated by the package's counter-based RNG, so a
(spec, seed) pair pins the dataset byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InputError
from .graph import CLASSES, PointSet
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
        if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
            raise InputError("means and covariances must be finite")
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
        with np.errstate(over="ignore"):
            if not np.isfinite(self.density(self.means)).all():
                raise InputError("a covariance so small that its density overflows")

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def density(self, x: np.ndarray) -> np.ndarray:
        """Mixture pdf at each row of x; 0 where a row is too far from a
        mean for its distance to be formed."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.zeros(x.shape[0])
        p = self.dim
        for w, mu, chol in zip(self.weights, self.means, self._chols):
            with np.errstate(over="ignore", invalid="ignore"):
                sol = np.linalg.solve(chol, (x - mu).T).T
                quad = np.einsum("ij,ij->i", sol, sol)
            quad[np.isnan(quad)] = np.inf      # inf - inf of an overflowed distance
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
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    rng = PortableRng(seed)
    labels = np.where(rng.random(n) < spec.prior_pos, 1, -1).astype(np.int64)
    points = np.empty((n, spec.dim))
    for tag, (label, cm) in enumerate(zip(CLASSES, (spec.pos, spec.neg)), 1):
        rows = labels == label
        if rows.any():
            points[rows] = _sample_mixture(cm, int(rows.sum()), rng.derive(tag))
    return PointSet(points, labels)


def _opposite_posterior(d: np.ndarray, y: np.ndarray, priors) -> np.ndarray:
    """Posterior of the class opposite to y from d, the prior-weighted
    densities of the classes as rows in ``CLASSES`` order; the opposite
    class's prior where both densities are 0."""
    opposite = (y == CLASSES[0]).astype(np.intp)        # its row in d
    total = d[0] + d[1]
    return np.where(total > 0, np.divide(np.choose(opposite, d), total, out=np.zeros_like(total),
                                         where=total > 0), np.choose(opposite, priors))


def true_anomaly_scores(spec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact Bayes posterior of the opposite class at each (x, y) under a
    ``MixtureSpec`` (its prior where both densities are 0) or a ``CoreSpec``."""
    if isinstance(spec, CoreSpec):
        return core_true_scores(spec, x, y)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y))
    priors = (spec.prior_pos, 1.0 - spec.prior_pos)
    d = np.array([cm.density(x) * prior for cm, prior in zip((spec.pos, spec.neg), priors)])
    return _opposite_posterior(d, y, priors)


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


def _rect(value) -> Rect:
    """value as a square of floats; ValueError unless it holds four numbers."""
    rect = tuple(float(x) for x in value)
    if len(rect) != 4:
        raise ValueError(f"a square takes four numbers, got {len(rect)}")
    return rect


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
        for f in dataclasses.fields(self):
            if isinstance(f.default, tuple):        # a square
                try:
                    _rect(getattr(self, f.name))
                except (TypeError, ValueError):
                    raise InputError(f"{f.name} must be four numbers "
                                     "(x_lo, x_hi, y_lo, y_hi)") from None
        if not _rect_contains(self.big, self.inner):
            raise InputError("inner square must lie inside the big square")
        for tiny in (self.tiny1, self.tiny2):
            if not (_rect_disjoint(tiny, self.big) and _rect_disjoint(tiny, self.inner)):
                raise InputError("tiny squares must be disjoint from both squares")
        if self.tiny1_label not in (-1, 1) or self.tiny2_label not in (-1, 1):
            raise InputError("tiny square labels must be +-1")
        for name in ("big_count", "inner_count", "tiny1_count", "tiny2_count",
                     "anomaly_count"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be >= 0, got {getattr(self, name)}")

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
    dens = np.zeros((2, x.shape[0]))
    for rect, count, label in layout:
        dens[CLASSES.index(label)] += (count / total_count) / _rect_area(rect) * _in_rect(x, rect)
    return _opposite_posterior(dens, y, (0.5, 0.5))


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
    mask[mask.size - spec.anomaly_count:] = True     # the last rows drawn
    test = PointSet(te_pts, te_labels)
    truth = CoreTruth(mask)
    return train, test, truth


def draw_dataset(spec, n: int, seed: int,
                 flip: float) -> tuple[PointSet, PointSet | None, np.ndarray, np.ndarray]:
    """One seeded draw: (train, test, true labels, anomaly mask).  A mixture
    draws n points and flips a fraction flip of their labels (flip seed
    seed + 1_000_003): test is None, and the labels and mask are the clean
    labels and flips of the training rows.  A core split ignores n and flip:
    the labels and mask are the test rows' labels and injected anomalies.
    Either kind rejects an n below 1 or a flip outside [0, 1]."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if not 0 <= flip <= 1:
        raise InputError(f"flip must be in [0, 1], got {flip!r}")
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


def _config_value(cfg: dict, key: str, convert, what: str):
    """convert(cfg[key]); a missing key or a value convert rejects raises
    ``InputError`` naming the key."""
    if key not in cfg:
        raise InputError(f"dataset config needs a {key!r} key")
    try:
        return convert(cfg[key])
    except (TypeError, ValueError):
        raise InputError(f"dataset config {key!r} must be {what}") from None


def _mixture_from_config(cfg: dict) -> MixtureSpec:
    def side(prefix):
        return ClassMixture(*(_config_value(cfg, f"{prefix}.{field.name}",
                                            lambda v: np.asarray(v, dtype=np.float64),
                                            "numbers")
                              for field in dataclasses.fields(ClassMixture)))
    prior_pos = _config_value(cfg, "prior_pos", float, "a number") if "prior_pos" in cfg else 0.5
    return MixtureSpec(pos=side("pos"), neg=side("neg"), prior_pos=prior_pos)


def _core_from_config(cfg: dict) -> CoreSpec:
    def read(field):        # a tuple default is a square of floats, any other an integer
        if isinstance(field.default, tuple):
            return _config_value(cfg, field.name, _rect, "a list of four numbers")
        return _config_value(cfg, field.name, operator.index, "an integer")
    return CoreSpec(**{f.name: read(f) for f in dataclasses.fields(CoreSpec) if f.name in cfg})


# the keys each config type takes beside ``type``
_CONFIG_KEYS = {
    "mixture": ["prior_pos"] + [f"{side}.{field.name}" for side in ("pos", "neg")
                                for field in dataclasses.fields(ClassMixture)],
    "core": [field.name for field in dataclasses.fields(CoreSpec)],
}


def _spec_from_text(text: str):
    cfg = parse_config_text(text)
    kind = cfg.get("type")
    if kind not in _CONFIG_KEYS:
        raise InputError(f"config type must be 'mixture' or 'core', got {kind!r}")
    for key in cfg:
        if key != "type" and key not in _CONFIG_KEYS[kind]:
            raise InputError(f"{key} is not a {kind} setting; settings: "
                             f"{', '.join(_CONFIG_KEYS[kind])}")
    return _mixture_from_config(cfg) if kind == "mixture" else _core_from_config(cfg)


def load_dataset_spec(path: str | Path):
    """Read a dataset config file; its ``type`` key picks the family.  An
    ``InputError`` names the file."""
    text = Path(path).read_text()
    try:
        return _spec_from_text(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_packaged(name: str):
    return _spec_from_text(resources.files("graphssl").joinpath(f"configs/{name}").read_text())


def default_mixtures() -> dict[str, MixtureSpec]:
    """The three shipped two-class mixture layouts."""
    return {name: _load_packaged(f"{name}.cfg") for name in ("d1", "d2", "d3")}


def default_core() -> CoreSpec:
    return _load_packaged("core.cfg")
