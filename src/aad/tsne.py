"""Exact t-SNE for feature and latent-code visualization.

O(n^2) reference-style implementation: per-row Gaussian bandwidths found
by bisection to hit the target perplexity, Student-t low-dimensional
kernel, gradient descent with momentum, gain adaptation, and early
exaggeration. The descent schedule is the fixed one of van der Maaten and
Hinton (2008). Intended for desk-scale inputs (n <= ~5000).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio_io import ANOMALY, NORMAL, UNLABELED
from .errors import ConfigError, ContractError, NumericError

_JITTER_SEED = 0x5EED
_MIN_GAIN = 0.01
# the descent schedule
_LEARNING_RATE = 200.0
_EARLY_EXAGGERATION = 12.0
_EXAGGERATION_ITERS = 250
_MOMENTUM_START = 0.5
_MOMENTUM_FINAL = 0.8
_MOMENTUM_SWITCH_ITER = 250
# the bandwidth bisection
_BISECTION_TOL = 1e-5
_BISECTION_STEPS = 200

POINT_COLORS = {NORMAL: "#1f77b4", ANOMALY: "#ff7f0e"}  # blue / orange
_OTHER_COLOR = "#7f7f7f"


@dataclass
class EmbedConfig:
    output_dims: int = 2
    perplexity: float = 30.0
    iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.output_dims not in (2, 3):
            raise ConfigError(f"output_dims must be 2 or 3, got {self.output_dims}")
        if not 1 < self.perplexity < float("inf"):
            raise ConfigError(f"perplexity must be a finite number > 1, got {self.perplexity!r}")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")


@dataclass
class Embedding:
    points: np.ndarray            # (n, output_dims)
    labels: list[str]
    kl_history: list[float] = field(default_factory=list)


def _squared_distances(x: np.ndarray) -> np.ndarray:
    # fast Gram form; adequate for the embedding coordinates, which the
    # descent recenters every iteration
    x = x - x.mean(axis=0)
    sq = np.sum(x * x, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def _squared_distances_exact(x: np.ndarray) -> np.ndarray:
    # row-by-row differences: unlike the Gram identity this resolves
    # jitter-scale offsets between points that sit O(1) apart
    n = x.shape[0]
    d = np.empty((n, n))
    for i in range(n):
        diff = x - x[i]
        d[i] = np.einsum("nd,nd->n", diff, diff)
    np.fill_diagonal(d, 0.0)
    return d


def _duplicate_rows(x: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows equal to an earlier row.

    A stable lexicographic sort puts equal rows next to each other in their
    original order, so every row of a run but its first is a duplicate.
    """
    order = np.lexsort(x.T[::-1])
    same = (x[order[1:]] == x[order[:-1]]).all(axis=1)
    return np.sort(order[1:][same])


def _row_entropy(dist_row: np.ndarray, beta: float) -> tuple[float, np.ndarray]:
    """Shannon entropy (nats) and conditional distribution at bandwidth beta.

    The row's smallest distance is taken off first: the distribution is
    unchanged, the largest term is exp(0) = 1, so the total is >= 1 and no
    term that matters underflows however far apart the points are.
    """
    shifted = dist_row - dist_row.min()
    p = np.exp(-shifted * beta)
    total = p.sum()
    h = np.log(total) + beta * float((shifted * p).sum()) / total
    return h, p / total


def conditional_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-stochastic conditional affinities with calibrated bandwidths.

    Each row's Gaussian bandwidth is bisected until the row entropy is
    within ``_BISECTION_TOL`` of log(perplexity). Duplicate rows are
    jittered by 1e-10 first; an input whose points all coincide (within
    jitter scale) degenerates to the uniform distribution instead of
    chasing an unreachable entropy.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 4:
        raise ContractError("need at least 4 points")
    if perplexity <= 1.0:
        raise ConfigError("perplexity must be > 1")

    # deterministic jitter for exact duplicates
    dupes = _duplicate_rows(x)
    if dupes.size:
        jig = np.random.default_rng(_JITTER_SEED)
        x = x.copy()
        x[dupes] += 1e-10 * jig.standard_normal((dupes.size, x.shape[1]))

    d = _squared_distances_exact(x)
    cond = np.zeros((n, n))
    if dupes.size == n - 1:  # every point identical: max-entropy fallback
        cond[:] = 1.0 / (n - 1)
        np.fill_diagonal(cond, 0.0)
        return cond
    target = np.log(perplexity)
    mask = ~np.eye(n, dtype=bool)
    for i in range(n):
        row = d[i][mask[i]]
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        h, p = _row_entropy(row, beta)
        steps = 0
        while abs(h - target) > _BISECTION_TOL:
            steps += 1
            if steps > _BISECTION_STEPS:
                raise NumericError(
                    f"perplexity bisection for row {i} did not converge "
                    f"in {_BISECTION_STEPS} steps"
                )
            if h > target:
                beta_min = beta
                beta = beta * 2.0 if np.isinf(beta_max) else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if np.isinf(beta_min) else (beta + beta_min) / 2.0
            h, p = _row_entropy(row, beta)
        cond[i][mask[i]] = p
    return cond


def pairwise_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized affinities P = (P_cond + P_cond^T) / 2n; sums to 1."""
    cond = conditional_affinities(x, perplexity)
    return (cond + cond.T) / (2.0 * cond.shape[0])


def _student_t_q(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    num = 1.0 / (1.0 + _squared_distances(y))
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    return np.maximum(q, 1e-12), num


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    p_safe = np.maximum(p, 1e-12)
    return float(np.sum(p * np.log(p_safe / q)))


def _default_init(n: int, dims: int, seed: int) -> np.ndarray:
    # one noise stream per point index, so reruns and per-point reasoning
    # are stable regardless of n
    y0 = np.empty((n, dims))
    for i in range(n):
        y0[i] = np.random.default_rng([seed, i]).standard_normal(dims)
    return 1e-4 * y0


def tsne_embed(x: np.ndarray, cfg: EmbedConfig,
               labels: Sequence[str] | None = None,
               init: np.ndarray | None = None) -> Embedding:
    """Gradient descent on KL(P || Q) with the fixed schedule.

    ``init`` overrides the seeded default initial coordinates (used e.g.
    to check permutation equivariance of the dynamics).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if labels is not None and len(labels) != n:
        raise ContractError("labels length must match number of points")
    if not cfg.perplexity < (n - 1) / 3:
        raise ConfigError(f"perplexity {cfg.perplexity} too large for n={n}")
    p = pairwise_affinities(x, cfg.perplexity)
    # a fully degenerate cloud has uniform affinities and nothing to
    # exaggerate; amplifying them only destabilizes the descent
    degenerate = bool((x == x[0]).all())
    exaggeration = 1.0 if degenerate else _EARLY_EXAGGERATION
    y = np.array(init, dtype=np.float64) if init is not None \
        else _default_init(n, cfg.output_dims, cfg.seed)
    if y.shape != (n, cfg.output_dims):
        raise ContractError(f"init shape {y.shape} != {(n, cfg.output_dims)}")

    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    kl_history: list[float] = []
    q, num = _student_t_q(y)  # of the current y: the next gradient and the last KL share it
    for it in range(cfg.iterations):
        exaggerate = it < _EXAGGERATION_ITERS
        p_eff = p * exaggeration if exaggerate else p
        w = (p_eff - q) * num
        grad = 4.0 * (w.sum(axis=1)[:, None] * y - w @ y)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite t-SNE gradient at iteration {it}")
        momentum = _MOMENTUM_START if it < _MOMENTUM_SWITCH_ITER else _MOMENTUM_FINAL
        flipped = np.sign(grad) != np.sign(velocity)
        gains = np.where(flipped, gains + 0.2, gains * 0.8)
        gains = np.maximum(gains, _MIN_GAIN)
        velocity = momentum * velocity - _LEARNING_RATE * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
        q, num = _student_t_q(y)
        kl_history.append(_kl(p, q))
    label_list = list(labels) if labels is not None else [UNLABELED] * n
    return Embedding(points=y, labels=label_list, kl_history=kl_history)


def _svg_scatter(points2d: np.ndarray, labels: Sequence[str],
                 axis_names: tuple[str, str]) -> str:
    size, margin, radius = 480, 30, 3.0
    lo = points2d.min(axis=0)
    hi = points2d.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)

    def sx(v):
        return margin + (v - lo[0]) / span[0] * (size - 2 * margin)

    def sy(v):
        return size - margin - (v - lo[1]) / span[1] * (size - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{size // 2}" y="{size - 8}" font-size="12" '
        f'text-anchor="middle">{axis_names[0]}</text>',
        f'<text x="12" y="{size // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 12 {size // 2})">{axis_names[1]}</text>',
    ]
    for (px, py), label in zip(points2d, labels):
        color = POINT_COLORS.get(label, _OTHER_COLOR)
        parts.append(f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" '
                     f'r="{radius}" fill="{color}" fill-opacity="0.7"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(embedding: Embedding, base_path: str | Path) -> list[Path]:
    """Write coordinates CSV plus SVG scatter(s); returns written paths.

    2-D embeddings produce one scatter; 3-D embeddings produce the three
    axis-pair projections (x-y, y-z, x-z). Normal points render blue,
    anomalies orange.
    """
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    dims = embedding.points.shape[1]
    axis = "xyz"[:dims]
    written = []

    csv_path = base.with_suffix(".csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(axis) + ["label"])
        for point, label in zip(embedding.points, embedding.labels):
            writer.writerow([repr(float(v)) for v in point] + [label])
    written.append(csv_path)

    for a, b in [(0, 1)] if dims == 2 else [(0, 1), (1, 2), (0, 2)]:
        svg_path = base.parent / f"{base.stem}_{axis[a]}{axis[b]}.svg"
        svg_path.write_text(_svg_scatter(
            embedding.points[:, (a, b)], embedding.labels, (axis[a], axis[b])))
        written.append(svg_path)
    return written
