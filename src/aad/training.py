"""Semi-supervised training: normal-only batches, Adam, checkpoints.

The guard is strict: any clip not labeled normal is rejected before a
single gradient step. Shuffling is reseeded per epoch from the master
seed, so (seed, data, config) fixes the final parameters bit for bit.

Training copies the clips' frames once, into one float32 matrix, and keeps
the start row of every model input. Each batch gathers and normalizes only
its own inputs, and the normalization statistics are float64 sums over the
frames, so the inputs (P-frame context rows, overlapping windows) are never
all held at once.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio_io import NORMAL
from .errors import ConfigError, ContractError, DivergenceError, SemiSupervisionError
from .features import ClipFeatures
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
    loss: str | None = None  # "mse" | "vae" | None = infer from model kind

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite number > 0, got {self.lr!r}")
        if not 0.0 <= self.validation_split < 1.0:
            raise ConfigError("validation_split must be in [0, 1)")
        if self.loss not in (None, "mse", "vae"):
            raise ConfigError(f"unknown loss kind {self.loss!r}")


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


def _batch_loss(model: Model, batch: np.ndarray, use_vae: bool,
                rng: np.random.Generator | None):
    x = Tensor(batch)
    out = model.forward(x, rng=rng if use_vae else None)
    return vae_loss(x, out.recon, out.latent if use_vae else None).total


def _frame_matrix(model: Model,
                  clips: Sequence[ClipFeatures]) -> tuple[np.ndarray, np.ndarray]:
    """The clips' frames as one float32 matrix, and the row where each input starts.

    Inputs never cross a clip boundary, since each clip's starts leave room
    for a whole input inside it.
    """
    starts, offset = [], 0
    for c in clips:
        starts.append(offset + model.input_starts(c.features))
        offset += c.features.frames
    return (np.concatenate([c.features.data for c in clips], dtype=np.float32),
            np.concatenate(starts))


def _eval_loss(model: Model, frames: np.ndarray, starts: np.ndarray, use_vae: bool,
               batch_size: int) -> float:
    inputs = model.input_view(frames)
    total = 0.0
    for i in range(0, len(starts), batch_size):
        batch = model._norm(inputs[starts[i:i + batch_size]])
        total += float(_batch_loss(model, batch, use_vae, rng=None).data) * len(batch)
    return total / len(starts)


def train(model: Model, clips: Sequence[ClipFeatures], cfg: TrainConfig,
          checkpoint_dir: str | Path | None = None) -> tuple[Model, TrainLog]:
    """Train a model on normal-only clip features.

    Returns the trained model and a per-epoch log. When ``checkpoint_dir``
    is given, ``last.aadm`` is written at the end and ``best.aadm`` at the
    best validation loss. Under glibc, malloc's trim and mmap thresholds are
    fixed for the process (``heap.keep_freed_memory``), as every ``aad``
    command already does, so that library callers reuse freed memory too.
    """
    keep_freed_memory()
    if not clips:
        raise ContractError("empty training set")
    bad = [c.path for c in clips if c.label != NORMAL]
    if bad:
        raise SemiSupervisionError(
            f"{len(bad)} non-normal clip(s) in the training set, e.g. {bad[0]}"
        )
    use_vae = cfg.loss == "vae" or (cfg.loss is None and model.spec.variational)
    if use_vae and not model.spec.variational:
        raise ContractError(f"vae loss needs a variational model, got {model.spec.kind}")

    # split by clip so no clip leaks between train and validation
    n_val = int(round(cfg.validation_split * len(clips)))
    order = np.random.default_rng([cfg.seed, 1]).permutation(len(clips))
    val_clips = [clips[i] for i in order[:n_val]]
    fit_clips = [clips[i] for i in order[n_val:]]
    if not fit_clips:
        raise ContractError("validation split left no training clips")

    # each batch is gathered from the frame matrix: the inputs are never all held
    frames, starts = _frame_matrix(model, fit_clips)
    if model.spec.normalize:
        model.fit_normalization(frames, starts)
    inputs = model.input_view(frames)
    val = _frame_matrix(model, val_clips) if val_clips else None

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
            loss = _batch_loss(model, batch, use_vae, rng=rng)
            value = float(loss.data)
            if not math.isfinite(value):
                raise DivergenceError(epoch=epoch, batch=b)
            backward(loss)
            del loss  # the tape holds every activation of the batch
            adam_step(model.params, state)
            zero_grads(model.params)
            total += value * len(batch)
        train_loss = total / len(starts)
        val_loss = (_eval_loss(model, *val, use_vae, cfg.batch_size)
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
