"""Command-line pipeline: synth, features, train, score, eval, embed, stream.

Every command resolves its settings in one step, ``resolve``: built-in
defaults, then a JSON config file (--config, or the AAD_CONFIG environment
variable), then explicit flags; a later layer wins. The file holds the
top-level keys of ``RunConfig`` and the sections ``features``, ``model``,
``train`` and ``embed``, whose keys are the fields of FeatureConfig,
ModelSpec, TrainConfig and EmbedConfig. Each fact has one home: ``seed`` is
top-level, and ``n_mels`` and ``context_frames`` live in ``features``; the
resolver copies them into the model spec and the train and embed configs,
and rejects them inside any other section. A value must fit its field's
annotation, by the one rule of ``aad.annotations`` that checkpoint headers
also follow: an int field takes an integer that is not a bool, a float field
an integer or a float, an ``X | None`` field also null, a tuple field a
JSON list. Every command honours ``sample_rate``: the dataset commands
resample each clip to it (unset: native rates), and synth writes and
stream reads at it (unset: ``DEFAULT_RATE``). Before it dispatches, ``main``
fixes glibc malloc's thresholds for the process (``heap.keep_freed_memory``).
Exit codes: 0 success, 1 pipeline error (one ``aad <cmd>: ...`` line on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Iterator

import numpy as np

from .annotations import conform, field_hints, required_type
from .audio_io import (NORMAL, DatasetIndex, SynthConfig, scan_dataset, split_index,
                       synth_generate)
from .errors import AadError, ConfigError, ContractError, FormatError
from .evaluation import emit_report, evaluate_dataset
from .features import (FeatureConfig, clip_named, dataset_features, dataset_frame_counts,
                       frame_count, save_features, stream_windows)
from .heap import keep_freed_memory
from .models import MODEL_KINDS, ModelSpec, build, checkpoint_load, default_spec
from .scoring import (
    anomaly_score,
    decide,
    score_dataset,
    select_threshold,
    write_scores_csv,
)
from .training import TrainConfig, train, write_trainlog_csv
from .tsne import EmbedConfig, tsne_embed, emit_plot

CONFIG_ENV = "AAD_CONFIG"
DEFAULT_RATE = 16000  # Hz, of synth output and stream input when sample_rate is unset

_STREAM_CHUNK = 8192  # most samples taken from the input per read
INVALID = "invalid"  # the stream decision of a window whose score is not finite


@dataclass
class RunConfig:
    """Every setting a command reads, resolved from defaults, config file and flags."""

    seed: int = 0
    sample_rate: int | None = None  # None: native rates (synth, stream: DEFAULT_RATE)
    dataset_root: Path | None = None
    output_dir: Path | None = None
    test_normal_fraction: float = 0.1
    features: FeatureConfig = field(init=False)
    model: ModelSpec = field(init=False)
    train: TrainConfig = field(init=False)
    embed: EmbedConfig = field(init=False)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.sample_rate is not None and self.sample_rate < 1:
            raise ConfigError(f"sample_rate must be >= 1, got {self.sample_rate}")


CONFIG_KEYS = {f.name for f in fields(RunConfig)}
# the one home of each fact more than one config type holds
_HOMES = {"seed": "seed", "n_mels": "features.n_mels",
          "context_frames": "features.context_frames"}
_REQUIRED = {"dataset_root": "--root", "output_dir": "--out"}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if path is None:
        return {}
    with open(path, "rb") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    return data


def _flag_layer(args) -> dict:
    """The flags given, as a config tree: dest ``a.b`` is key ``b`` of section ``a``."""
    layer: dict = {}
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if value is None or not (section or dest in CONFIG_KEYS):
            continue
        (layer.setdefault(section, {}) if section else layer)[key] = value
    return layer


def _merge(layers: list[dict], hints: dict, prefix: str = "") -> dict:
    """Checked values of every layer, later layers winning, sections kept nested."""
    merged: dict = {}
    for layer in layers:
        for key, value in layer.items():
            name = prefix + key
            if _HOMES.get(key, name) != name:
                raise ConfigError(f"config key {name!r} is set only as {_HOMES[key]!r}")
            if key not in hints:
                raise ConfigError(f"unknown config key {name!r}")
            if is_dataclass(hints[key]):
                if not isinstance(value, dict):
                    raise ConfigError(f"config section {key!r} must be a JSON object")
                merged.setdefault(key, []).append(value)
            else:
                try:
                    merged[key] = conform(value, hints[key])
                except TypeError as exc:
                    raise ConfigError(f"config key {name!r}: {exc}") from None
    return merged


def resolve(args) -> RunConfig:
    """One command's settings: defaults < config file < flags, each value type-checked."""
    hints = field_hints(RunConfig)
    merged = _merge([_load_config_file(args.config), _flag_layer(args)], hints)
    section = {f.name: _merge(merged.pop(f.name, []), field_hints(hints[f.name]), f"{f.name}.")
               for f in fields(RunConfig) if not f.init}
    run = RunConfig(**merged)
    run.features = FeatureConfig(**section["features"])
    seed = {"seed": run.seed}
    run.model = default_spec(**{"kind": "dense_ae", **section["model"], **seed,
                                "n_mels": run.features.n_mels,
                                "context_frames": run.features.context_frames})
    run.train = TrainConfig(**section["train"], **seed)
    run.embed = EmbedConfig(**section["embed"], **seed)
    for key, flag in _REQUIRED.items():
        if key in vars(args) and getattr(run, key) is None:
            raise ContractError(f"no {key}: pass {flag} or set {key!r} in the config file")
    if "output_dir" in vars(args):
        run.output_dir.mkdir(parents=True, exist_ok=True)
    return run


# -- subcommands --


def cmd_synth(args) -> int:
    run = resolve(args)
    cfg = SynthConfig(n_normal=args.n_normal, n_anomaly=args.n_anomaly,
                      duration_s=args.duration_s,
                      sample_rate=run.sample_rate or DEFAULT_RATE, seed=run.seed)
    index = synth_generate(run.output_dir, cfg)
    print(f"wrote {len(index)} clips under {run.output_dir}")
    return 0


def cmd_features(args) -> int:
    run = resolve(args)
    index = scan_dataset(run.dataset_root)
    for clip in dataset_features(index, run.features, target_rate=run.sample_rate):
        dest = run.output_dir / Path(clip.path).with_suffix(".aadf")
        dest.parent.mkdir(parents=True, exist_ok=True)
        save_features(clip.features, dest, run.features)
        del clip  # not held while the next clip is extracted
    print(f"cached {len(index)} feature files under {run.output_dir}")
    return 0


def cmd_train(args) -> int:
    run = resolve(args)
    index = scan_dataset(run.dataset_root)
    train_index, _ = split_index(index, run.test_normal_fraction, run.seed)
    model = build(run.model)
    counts = dataset_frame_counts(train_index, run.features, target_rate=run.sample_rate)
    clips = dataset_features(train_index, run.features, target_rate=run.sample_rate)
    model, log = train(model, clips, run.train, checkpoint_dir=run.output_dir,
                       frame_counts=counts)
    write_trainlog_csv(log, run.output_dir / "trainlog.csv")
    final = log.train_losses()[-1] if log.epochs else float("nan")
    print(f"trained {run.model.kind} for {len(log.epochs)} epochs, "
          f"final train loss {final:.6g}; checkpoints under {run.output_dir}")
    return 0


def _require_finite(flag: str, value: float | None) -> None:
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{flag} must be a finite number, got {value!r}")


def cmd_score(args) -> int:
    run = resolve(args)
    _require_finite("--tau", args.tau)
    model = checkpoint_load(args.checkpoint)
    index = scan_dataset(run.dataset_root)
    if args.partition != "all":
        train_index, test_index = split_index(index, run.test_normal_fraction, run.seed)
        index = test_index if args.partition == "test" else train_index
    clips = dataset_features(index, run.features, target_rate=run.sample_rate)
    records = score_dataset(model, clips)
    if args.tau is not None:
        tau = args.tau
    else:
        normal_scores = [r.score for r in records if r.label == NORMAL]
        tau = select_threshold(normal_scores, args.max_fpr)
    path = run.output_dir / "scores.csv"
    write_scores_csv(records, path, tau)
    print(f"scored {len(records)} clips (tau={tau!r}) -> {path}")
    return 0


def cmd_eval(args) -> int:
    run = resolve(args)
    model = checkpoint_load(args.checkpoint)
    index = scan_dataset(run.dataset_root)
    _, test_index = split_index(index, run.test_normal_fraction, run.seed)
    report = evaluate_dataset(model, test_index, run.features, args.p, run.sample_rate)
    for machine in report.machines:
        for result in machine.ids:
            if result.auc is not None and result.pauc is None:  # p selects no normal
                n = sum(e.label == NORMAL for e in test_index.entries
                        if (e.machine_type, e.machine_id) == (machine.machine_type,
                                                              result.machine_id))
                print(f"aad eval: {machine.machine_type} id {result.machine_id}: "
                      f"pauc is null: p={args.p} selects none of {n} normal clips; "
                      f"p >= 1/{n} = {1 / n:.6g} selects one", file=sys.stderr)
    suffix = {"json": ".json", "csv": ".csv", "markdown": ".md"}[args.format]
    path = run.output_dir / f"report{suffix}"
    emit_report(report, args.format, path)
    print(f"evaluated {model.spec.kind} at p={args.p} -> {path}")
    return 0


def cmd_embed(args) -> int:
    run = resolve(args)
    if args.max_clips is not None and args.max_clips < 1:
        raise ConfigError(f"--max-clips must be >= 1, got {args.max_clips}")
    if args.space == "latent" and args.checkpoint is None:
        raise ContractError("--space latent needs --model")
    index = scan_dataset(run.dataset_root)
    if args.max_clips is not None and len(index) > args.max_clips:
        keep = np.random.default_rng([run.seed, 3]).permutation(len(index))[:args.max_clips]
        index = DatasetIndex(root=index.root, entries=[index.entries[i] for i in sorted(keep)])
    model = checkpoint_load(args.checkpoint) if args.space == "latent" else None
    labels, vectors = [], []
    for c in dataset_features(index, run.features, target_rate=run.sample_rate):
        labels.append(c.label)
        if model is None:
            vectors.append(c.features.data.mean(axis=0))
        else:
            with clip_named(c.path):
                vectors.append(model.encode(c.features))
        del c  # not held while the next clip is extracted
    base = run.output_dir / f"embed_{args.space}"
    embedding = tsne_embed(np.stack(vectors), run.embed, labels=labels)
    paths = emit_plot(embedding, base)
    print(f"embedded {len(labels)} clips -> " + ", ".join(str(p) for p in paths))
    return 0


def _raw_chunk_reader(fh, n_samples: list[int]) -> Iterator[np.ndarray]:
    """Raw float32 LE mono samples, as many as each read finds waiting.

    ``read1`` makes at most one raw read, so a chunk is handed on as soon as
    any bytes arrive. Bytes of a sample split across two reads are carried
    to the next read. ``n_samples[0]`` counts the samples yielded.
    """
    carry = b""
    while raw := fh.read1(_STREAM_CHUNK * 4):
        raw = carry + raw
        whole = len(raw) - len(raw) % 4
        carry = raw[whole:]
        if whole:
            n_samples[0] += whole // 4
            yield np.frombuffer(raw, dtype="<f4", count=whole // 4)
    if carry:
        raise FormatError(f"input ends with {len(carry)} stray bytes; "
                          "expected whole float32 samples")


def _stamp_reads(chunks: Iterator[np.ndarray], read_at: list[float]) -> Iterator[np.ndarray]:
    """The chunks unchanged; ``read_at[0]`` is when the latest one arrived."""
    for chunk in chunks:
        read_at[0] = time.perf_counter()
        yield chunk


def cmd_stream(args) -> int:
    run = resolve(args)
    sample_rate = run.sample_rate or DEFAULT_RATE
    for flag, value in (("--tau", args.tau), ("--window-s", args.window_s),
                        ("--hop-s", args.hop_s)):
        _require_finite(flag, value)
    model = checkpoint_load(args.checkpoint)
    frames = frame_count(int(round(args.window_s * sample_rate)), run.features)
    if frames < model.input_frames:
        raise ConfigError(f"a {args.window_s} s window gives {frames} frames at hop "
                          f"{run.features.hop}; the model takes {model.input_frames}")
    tau = args.tau

    fh = open(args.input, "rb") if args.input else sys.stdin.buffer
    n_samples = [0]
    t0 = time.perf_counter()
    # a window's compute runs from its last read, or from the previous
    # window's decision if that came later, to its own decision
    read_at, done = [t0], t0
    compute_ms = []
    n_invalid = 0
    try:
        chunks = _stamp_reads(_raw_chunk_reader(fh, n_samples), read_at)
        for window in stream_windows(chunks, sample_rate, run.features,
                                     window_s=args.window_s, hop_s=args.hop_s):
            score = anomaly_score(*model.reconstruct_features(window.features))
            if math.isfinite(score):
                decision = decide(score, tau)
            else:
                decision, n_invalid = INVALID, n_invalid + 1
            print(f"{window.end_s:.3f}, {score!r}, {decision}", flush=True)
            start, done = max(read_at[0], done), time.perf_counter()
            compute_ms.append(1e3 * (done - start))
    finally:
        if args.input:
            fh.close()
    elapsed = time.perf_counter() - t0
    audio_s = n_samples[0] / sample_rate
    rtf = elapsed / audio_s if audio_s > 0 else float("inf")
    summary = (f"real-time factor: {rtf:.4f} ({len(compute_ms)} windows, {n_invalid} invalid, "
               f"{audio_s:.1f} s audio in {elapsed:.2f} s)")
    if compute_ms:
        # nearest-rank percentiles: np.percentile would page in about 1 MB more
        ms = sorted(compute_ms)
        p50, p99 = (ms[math.ceil(q * len(ms)) - 1] for q in (0.50, 0.99))
        summary += f"; window compute p50 {p50:.2f} ms, p99 {p99:.2f} ms, max {ms[-1]:.2f} ms"
    print(summary, file=sys.stderr)
    return 0


_FEATURE_FLAGS = {"--n-fft": "features.n_fft", "--hop": "features.hop",
                  "--n-mels": "features.n_mels", "--context-frames": "features.context_frames"}
_DATASET_FLAGS = {"--root": "dataset_root", "--out": "output_dir", **_FEATURE_FLAGS}
_SPLIT_FLAGS = {**_DATASET_FLAGS, "--seed": "seed", "--test-fraction": "test_normal_fraction"}
# the flags that set config values, per command, each naming its key
# (top-level, or section.field); every command also takes --sample-rate.
# features and stream read no seed, so they have no --seed
CONFIG_FLAGS = {
    "synth": {"--seed": "seed", "--out": "output_dir"},
    "features": _DATASET_FLAGS,
    "train": {**_SPLIT_FLAGS, "--model": "model.kind", "--window-frames": "model.window_frames",
              "--latent-dim": "model.latent_dim", "--tcn-layers": "model.tcn_layers",
              "--tcn-channels": "model.tcn_channels", "--epochs": "train.epochs",
              "--batch-size": "train.batch_size", "--lr": "train.lr",
              "--validation-split": "train.validation_split"},
    "score": _SPLIT_FLAGS,
    "eval": _SPLIT_FLAGS,
    "embed": {**_DATASET_FLAGS, "--seed": "seed", "--dims": "embed.output_dims",
              "--perplexity": "embed.perplexity", "--iterations": "embed.iterations"},
    "stream": _FEATURE_FLAGS,
}
_CHOICES = {"model.kind": MODEL_KINDS, "embed.output_dims": (2, 3)}


def _flag_type(dest: str):
    """What argparse makes of a config flag: its field's type, paths as text."""
    section, _, key = dest.rpartition(".")
    hints = field_hints(RunConfig)
    hint = required_type(field_hints(hints[section])[key] if section else hints[key])
    return str if hint is Path else hint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aad",
        description="Acoustic anomaly detection pipeline for machine sounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"synth": "generate a synthetic dataset",
             "features": "cache log-mel features as AADF files",
             "train": "train a model on the normal partition",
             "score": "write the anomaly score table",
             "eval": "AUC/pAUC report over the test partition",
             "embed": "t-SNE embedding of features or latents",
             "stream": "sliding-window scoring of raw samples"}
    cmd = {}
    for name, flags in CONFIG_FLAGS.items():
        cmd[name] = p = sub.add_parser(name, help=helps[name])
        p.set_defaults(func=globals()[f"cmd_{name}"])
        p.add_argument("--config", help=f"JSON config file (or set ${CONFIG_ENV})")
        for flag, dest in {"--sample-rate": "sample_rate", **flags}.items():
            p.add_argument(flag, dest=dest, metavar=dest, type=_flag_type(dest),
                           choices=_CHOICES.get(dest))

    p = cmd["synth"]
    p.add_argument("--n-normal", type=int, required=True, dest="n_normal")
    p.add_argument("--n-anomaly", type=int, required=True, dest="n_anomaly")
    p.add_argument("--duration-s", type=float, default=2.0, dest="duration_s")

    p = cmd["score"]
    p.add_argument("--model", required=True, dest="checkpoint", help="model checkpoint (.aadm)")
    p.add_argument("--partition", choices=["all", "train", "test"], default="all")
    p.add_argument("--tau", type=float, help="fixed decision threshold")
    p.add_argument("--max-fpr", type=float, default=0.10, dest="max_fpr",
                   help="FPR bound used to fit tau from normal scores")

    p = cmd["eval"]
    p.add_argument("--model", required=True, dest="checkpoint")
    p.add_argument("--p", type=float, default=0.05)
    p.add_argument("--format", choices=["json", "csv", "markdown"], default="json")

    p = cmd["embed"]
    p.add_argument("--model", dest="checkpoint", help="checkpoint; required for --space latent")
    p.add_argument("--space", choices=["features", "latent"], default="features")
    p.add_argument("--max-clips", type=int, dest="max_clips")

    p = cmd["stream"]
    p.add_argument("--input", help="raw float32 LE mono file (default: stdin)")
    p.add_argument("--model", required=True, dest="checkpoint")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--window-s", type=float, default=2.0, dest="window_s")
    p.add_argument("--hop-s", type=float, default=1.0, dest="hop_s")
    return parser


@cache
def _freeze_objects_at_exit() -> None:
    """Move every tracked object out of the collector's reach when the process exits.

    CPython's shutdown collections walk every object tracked since import
    (about 23k after a command), which cost 25-35 ms of each command's exit.
    Frozen objects are still freed by reference counting, and every writer
    closes its file before its command returns.
    """
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_objects_at_exit()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    keep_freed_memory()
    try:
        return args.func(args)
    except (AadError, OSError) as exc:
        print(f"aad {args.command}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the allocation it refused
        print(f"aad {args.command}: out of memory: {exc or 'allocation failed'}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
