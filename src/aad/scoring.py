"""Reconstruction anomaly scores, FPR-quantile thresholds, decisions.

The score of a clip is the mean over its feature rows of the squared
Euclidean distance between observed and reconstructed vectors. A clip is
flagged anomalous iff its score strictly exceeds the threshold; the
threshold is the normal-score quantile that bounds the false positive
rate by the configured maximum.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .audio_io import ANOMALY, NORMAL
from .errors import ContractError, ShapeError
from .features import ClipFeatures, FeatureMatrix, clip_named
from .models import Model


@dataclass
class ScoreRecord:
    clip_path: str
    score: float
    label: str
    machine_type: str
    machine_id: int


def anomaly_score(xa: np.ndarray, xr: np.ndarray) -> float:
    """Mean squared frame reconstruction error between observed and rebuilt
    (frames, dims) rows."""
    a, r = np.asarray(xa), np.asarray(xr)
    if a.shape != r.shape or a.ndim != 2:
        raise ShapeError(f"anomaly_score: shapes {a.shape} and {r.shape} are not "
                         "one (frames, dims) shape")
    d = a.astype(np.float64) - r.astype(np.float64)
    return float(np.mean(np.sum(d * d, axis=1)))


def score_clip(model: Model, fm: FeatureMatrix) -> float:
    """Anomaly score of one clip under a trained model."""
    xa, xr = model.reconstruct_features(fm)
    return anomaly_score(xa, xr)


def score_dataset(model: Model, clips: Iterable[ClipFeatures]) -> list[ScoreRecord]:
    """One score record per clip, in order; each clip may be dropped once it is scored."""
    records = []
    for c in clips:
        with clip_named(c.path):
            score = score_clip(model, c.features)
        records.append(ScoreRecord(clip_path=c.path, score=score, label=c.label,
                                   machine_type=c.machine_type, machine_id=c.machine_id))
        del c  # not held while the next clip is extracted
    return records


def select_threshold(normal_scores: Sequence[float], max_fpr: float = 0.10) -> float:
    """Nearest-rank quantile so that P(normal score > tau) <= max_fpr.

    tau is the value at ascending rank ceil((1 - p) * N). Every score must
    be finite: NaN sorts last and could itself become tau.
    """
    scores = np.asarray(normal_scores, dtype=np.float64)
    if scores.size == 0:
        raise ContractError("select_threshold needs at least one normal score")
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise ContractError(f"select_threshold: {bad} of {scores.size} normal scores "
                            "are not finite")
    if not 0.0 < max_fpr < 1.0:
        raise ContractError("max_fpr must be in (0, 1)")
    # tiny backoff keeps integer products like 0.9 * 10 from ceiling to 10
    rank = max(1, math.ceil((1.0 - max_fpr) * scores.size - 1e-9))
    return float(np.sort(scores)[rank - 1])


def decide(score: float, tau: float) -> str:
    """Normal iff the score is at most the threshold; ties are normal.

    A NaN score (or threshold) compares false, so it reads anomaly.
    """
    return NORMAL if score <= tau else ANOMALY


def write_scores_csv(records: Sequence[ScoreRecord], path: str | Path,
                     tau: float) -> None:
    """Score table: clip_path, machine_type, machine_id, label, score, decision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_path", "machine_type", "machine_id",
                         "label", "score", "decision"])
        for r in records:
            writer.writerow([r.clip_path, r.machine_type, r.machine_id,
                             r.label, repr(r.score), decide(r.score, tau)])
