"""Semi-supervised training: normal-only batches, Adam, checkpoints.

The guard is strict: any clip not labeled normal is rejected before a
single gradient step. Shuffling is reseeded per epoch from the master
seed, so (seed, data, config) fixes the final parameters bit for bit.

Training writes the clips' frames once, into one float32 matrix sized up
front, and keeps the start row of every model input. Each batch gathers and
normalizes only its own inputs, and the normalization statistics are float64
sums over the frames, so the inputs (P-frame context rows, overlapping
windows) are never all held at once.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .audio_io import NORMAL
from .errors import ConfigError, ContractError, DivergenceError, SemiSupervisionError
from .features import ClipFeatures, clip_named
from .heap import keep_freed_memory
from .models import Model, checkpoint_load, checkpoint_save, vae_loss
from .tensor import Tensor, adam_step, backward, init_adam, zero_grads

__all__ = [
    "TrainConfig", "EpochStats", "TrainLog", "train",
    "checkpoint_save", "checkpoint_load", "write_trainlog_csv",
]

@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    validation_split: float = 0.1

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite number > 0, got {self.lr!r}")
        if not 0.0 <= self.validation_split < 1.0:
            raise ConfigError("validation_split must be in [0, 1)")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float  # nan when no validation split
    seconds: float


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)

    def train_losses(self) -> list[float]:
        return [e.train_loss for e in self.epochs]


def _batch_loss(model: Model, batch: np.ndarray, rng: np.random.Generator | None):
    """The VAE loss; a model that is not variational has no latent, so no KL term."""
    x = Tensor(batch)
    out = model.forward(x, rng=rng)
    return vae_loss(x, out.recon, out.latent).total


def _eval_loss(model: Model, frames: np.ndarray, starts: np.ndarray,
               batch_size: int) -> float:
    inputs = model.input_view(frames)
    total = 0.0
    for i in range(0, len(starts), batch_size):
        batch = model._norm(inputs[starts[i:i + batch_size]])
        total += float(_batch_loss(model, batch, rng=None).data) * len(batch)
    return total / len(starts)


def train(model: Model, clips: Iterable[ClipFeatures], cfg: TrainConfig,
          checkpoint_dir: str | Path | None = None,
          frame_counts: Sequence[int] | None = None) -> tuple[Model, TrainLog]:
    """Train a model on normal-only clip features.

    ``clips`` may be a one-pass iterator, such as ``dataset_features``, when
    ``frame_counts`` gives each clip's frame count up front (as
    ``dataset_frame_counts`` reads it from the WAV headers): the frame
    matrices are then sized first and each clip is written into its rows as
    it arrives, so no clip's features are held beside them. Without
    ``frame_counts`` the clips are listed first.

    Returns the trained model and a per-epoch log. When ``checkpoint_dir``
    is given, ``last.aadm`` is written at the end and ``best.aadm`` at each
    new best validation loss, each time as a new file (``checkpoint_save``).
    Under glibc, malloc's trim and mmap thresholds are fixed for the process
    (``heap.keep_freed_memory``), as every ``aad`` command already does, so
    that library callers reuse freed memory too.
    """
    keep_freed_memory()
    if frame_counts is None:
        clips = list(clips)
        frame_counts = [c.features.frames for c in clips]
    if not frame_counts:
        raise ContractError("empty training set")

    # split by clip so no clip leaks between train and validation
    n_clips = len(frame_counts)
    n_val = int(round(cfg.validation_split * n_clips))
    order = np.random.default_rng([cfg.seed, 1]).permutation(n_clips)
    val_order, fit_order = order[:n_val], order[n_val:]
    if not len(fit_order):
        raise ContractError("validation split left no training clips")

    # the fit and validation frame matrices hold their clips in permutation
    # order; each batch is gathered from them: the inputs are never all held
    counts = np.asarray(frame_counts, dtype=np.int64)
    part = np.zeros(n_clips, dtype=np.intp)
    part[val_order] = 1
    first_row = np.empty(n_clips, dtype=np.int64)
    matrices = []
    for members in (fit_order, val_order):
        first_row[members] = np.cumsum(counts[members]) - counts[members]
        matrices.append(np.empty((counts[members].sum(), model.spec.n_mels),
                                 dtype=np.float32))
    clip_starts: list[np.ndarray] = []
    bad = []
    for i, c in enumerate(clips):
        if i == n_clips:
            raise ContractError(f"more clips than the {n_clips} frame counts given")
        if c.label != NORMAL:
            bad.append(c.path)
            continue
        model.check_dims(c.features)
        n, row = c.features.frames, first_row[i]
        if n != counts[i]:
            raise ContractError(f"{c.path}: {n} frames where {counts[i]} were counted")
        with clip_named(c.path):
            clip_starts.append(row + model.input_starts(n))
        matrices[part[i]][row:row + n] = c.features.data
        del c  # not held while the next clip is extracted
    if bad:
        raise SemiSupervisionError(
            f"{len(bad)} non-normal clip(s) in the training set, e.g. {bad[0]}"
        )
    if len(clip_starts) != n_clips:
        raise ContractError(f"{len(clip_starts)} clips for {n_clips} frame counts")
    frames, val_frames = matrices
    starts = np.concatenate([clip_starts[i] for i in fit_order])
    if model.spec.normalize:
        model.fit_normalization(frames, starts)
    inputs = model.input_view(frames)
    val = ((val_frames, np.concatenate([clip_starts[i] for i in val_order]))
           if n_val else None)

    state = init_adam(model.params, lr=cfg.lr)
    log = TrainLog()
    best_val = math.inf
    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if checkpoint_dir is not None:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        rng = np.random.default_rng([cfg.seed, 2, epoch])
        perm = rng.permutation(len(starts))
        total = 0.0
        for b, start in enumerate(range(0, len(starts), cfg.batch_size)):
            batch = model._norm(inputs[starts[perm[start:start + cfg.batch_size]]])
            loss = _batch_loss(model, batch, rng=rng)
            value = float(loss.data)
            if not math.isfinite(value):
                raise DivergenceError(epoch=epoch, batch=b)
            backward(loss)
            del loss  # the tape holds every activation of the batch
            adam_step(model.params, state)
            zero_grads(model.params)
            total += value * len(batch)
        train_loss = total / len(starts)
        val_loss = (_eval_loss(model, *val, cfg.batch_size)
                    if val is not None else math.nan)
        log.epochs.append(EpochStats(epoch=epoch, train_loss=train_loss,
                                     val_loss=val_loss,
                                     seconds=time.perf_counter() - t0))
        if checkpoint_dir is not None and val_loss < best_val:
            best_val = val_loss
            checkpoint_save(model, checkpoint_dir / "best.aadm")
    if checkpoint_dir is not None:
        checkpoint_save(model, checkpoint_dir / "last.aadm")
    return model, log


def write_trainlog_csv(log: TrainLog, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "seconds"])
        for e in log.epochs:
            writer.writerow([e.epoch, repr(e.train_loss),
                             "" if math.isnan(e.val_loss) else repr(e.val_loss),
                             f"{e.seconds:.3f}"])
