"""Command-line pipeline: synth, features, train, score, eval, embed, stream.

Configuration merges three layers: built-in defaults, then a JSON config
file (--config or the AAD_CONFIG environment variable), then explicit
flags. Exit codes: 0 success, 1 pipeline error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Iterator

import numpy as np

from .audio_io import NORMAL, SynthConfig, scan_dataset, split_index, synth_generate
from .errors import AadError, ConfigError, ContractError, FormatError
from .evaluation import EvalConfig, emit_report, evaluate_dataset
from .features import FeatureConfig, dataset_features, save_features, stream_windows
from .models import ModelSpec, build, checkpoint_load, default_spec
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
CONFIG_KEYS = {"seed", "sample_rate", "dataset_root", "output_dir", "test_normal_fraction",
               "features", "model", "train", "embed"}

_STREAM_CHUNK = 8192  # most samples taken from the input per read


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
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    return data


def _section(file_cfg: dict, section: str, cls) -> dict:
    """One config-file section, checked to be an object with only ``cls``'s keys."""
    values = file_cfg.get(section, {})
    if not isinstance(values, dict):
        raise ConfigError(f"config section {section!r} must be a JSON object")
    unknown = set(values) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"config section {section!r}: unknown keys {sorted(unknown)}")
    return dict(values)


def _merge_section(cls, file_cfg: dict, section: str, flags: dict):
    """defaults < config-file section < explicit flags, as one dataclass."""
    values = _section(file_cfg, section, cls)
    values.update({k: v for k, v in flags.items() if v is not None})
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:  # a value of the wrong type
        raise ConfigError(f"config section {section!r}: {exc}") from None


def _setting(file_cfg: dict, key: str, cast, default):
    """A top-level config-file value, converted by ``cast``."""
    try:
        return cast(file_cfg.get(key, default))
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r}: bad value {file_cfg[key]!r}") from None


def _feature_flags(args) -> dict:
    return {"n_fft": args.n_fft, "hop": args.hop, "n_mels": args.n_mels,
            "context_frames": args.context_frames}


def _add_feature_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-fft", type=int, dest="n_fft")
    p.add_argument("--hop", type=int)
    p.add_argument("--n-mels", type=int, dest="n_mels")
    p.add_argument("--context-frames", type=int, dest="context_frames")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (or set $AAD_CONFIG)")
    p.add_argument("--seed", type=int)
    p.add_argument("--sample-rate", type=int, dest="sample_rate")


def _seed(args, file_cfg) -> int:
    if args.seed is not None:
        return args.seed
    return _setting(file_cfg, "seed", int, 0)


def _sample_rate(args, file_cfg, default=22050) -> int:
    if args.sample_rate is not None:
        return args.sample_rate
    return _setting(file_cfg, "sample_rate", int, default)


def _out_dir(args, file_cfg) -> Path:
    out = args.out or file_cfg.get("output_dir")
    if out is None:
        raise ContractError("no output directory: pass --out or set output_dir")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _root(args, file_cfg) -> Path:
    root = args.root or file_cfg.get("dataset_root")
    if root is None:
        raise ContractError("no dataset root: pass --root or set dataset_root")
    return Path(root)


def _test_split(index, args, file_cfg, seed):
    fraction = args.test_fraction
    if fraction is None:
        fraction = _setting(file_cfg, "test_normal_fraction", float, 0.1)
    return split_index(index, test_normal_fraction=fraction, seed=seed)


def _load_model(args):
    return checkpoint_load(args.model)


# -- subcommands --


def cmd_synth(args) -> int:
    file_cfg = _load_config_file(args.config)
    out = _out_dir(args, file_cfg)
    cfg = SynthConfig(
        n_normal=args.n_normal,
        n_anomaly=args.n_anomaly,
        duration_s=args.duration_s,
        sample_rate=_sample_rate(args, file_cfg, default=16000),
        seed=_seed(args, file_cfg),
    )
    index = synth_generate(out, cfg)
    print(f"wrote {len(index)} clips under {out}")
    return 0


def cmd_features(args) -> int:
    file_cfg = _load_config_file(args.config)
    features = _merge_section(FeatureConfig, file_cfg, "features", _feature_flags(args))
    root = _root(args, file_cfg)
    out = _out_dir(args, file_cfg)
    index = scan_dataset(root)
    clips = dataset_features(index, features, target_rate=args.sample_rate)
    for clip in clips:
        dest = out / Path(clip.path).with_suffix(".aadf")
        dest.parent.mkdir(parents=True, exist_ok=True)
        save_features(clip.features, dest, features)
    print(f"cached {len(clips)} feature files under {out}")
    return 0


def _model_flags(args) -> dict:
    return {"kind": args.model, "window_frames": args.window_frames,
            "latent_dim": args.latent_dim, "tcn_layers": args.tcn_layers,
            "tcn_channels": args.tcn_channels}


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _seed(args, file_cfg)
    features = _merge_section(FeatureConfig, file_cfg, "features", _feature_flags(args))
    root = _root(args, file_cfg)
    out = _out_dir(args, file_cfg)
    index = scan_dataset(root)
    train_index, _ = _test_split(index, args, file_cfg, seed)

    model_section = _section(file_cfg, "model", ModelSpec)
    model_section.setdefault("kind", "dense_ae")
    model_section.setdefault("n_mels", features.n_mels)
    model_section.setdefault("context_frames", features.context_frames)
    model_section.setdefault("seed", seed)
    flag_values = {k: v for k, v in _model_flags(args).items() if v is not None}
    model_section.update(flag_values)
    kind = model_section.pop("kind")
    try:
        spec = default_spec(kind, **model_section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section 'model': {exc}") from None
    model = build(spec)

    train_cfg = _merge_section(TrainConfig, file_cfg, "train", {
        "epochs": args.epochs, "batch_size": args.batch_size,
        "lr": args.lr, "seed": seed,
        "validation_split": args.validation_split,
    })
    clips = dataset_features(train_index, features, target_rate=args.sample_rate)
    model, log = train(model, clips, train_cfg, checkpoint_dir=out)
    write_trainlog_csv(log, out / "trainlog.csv")
    final = log.train_losses()[-1] if log.epochs else float("nan")
    print(f"trained {spec.kind} for {len(log.epochs)} epochs, "
          f"final train loss {final:.6g}; checkpoints under {out}")
    return 0


def cmd_score(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _seed(args, file_cfg)
    features = _merge_section(FeatureConfig, file_cfg, "features", _feature_flags(args))
    root = _root(args, file_cfg)
    out = _out_dir(args, file_cfg)
    model = _load_model(args)
    index = scan_dataset(root)
    if args.partition == "test":
        _, index = _test_split(index, args, file_cfg, seed)
    elif args.partition == "train":
        index, _ = _test_split(index, args, file_cfg, seed)
    clips = dataset_features(index, features, target_rate=args.sample_rate)
    records = score_dataset(model, clips)
    if args.tau is not None:
        tau = args.tau
    else:
        normal_scores = [r.score for r in records if r.label == NORMAL]
        tau = select_threshold(normal_scores, args.max_fpr)
    path = out / "scores.csv"
    write_scores_csv(records, path, tau)
    print(f"scored {len(records)} clips (tau={tau!r}) -> {path}")
    return 0


def cmd_eval(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _seed(args, file_cfg)
    features = _merge_section(FeatureConfig, file_cfg, "features", _feature_flags(args))
    root = _root(args, file_cfg)
    out = _out_dir(args, file_cfg)
    model = _load_model(args)
    index = scan_dataset(root)
    _, test_index = _test_split(index, args, file_cfg, seed)
    cfg = EvalConfig(features=features, p=args.p, pauc_ceil=args.pauc_ceil,
                     sample_rate=args.sample_rate)
    report = evaluate_dataset(model, test_index, cfg)
    suffix = {"json": ".json", "csv": ".csv", "markdown": ".md"}[args.format]
    path = out / f"report{suffix}"
    emit_report(report, args.format, path)
    print(f"evaluated {model.spec.kind} at p={args.p} -> {path}")
    return 0


def cmd_embed(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _seed(args, file_cfg)
    features = _merge_section(FeatureConfig, file_cfg, "features", _feature_flags(args))
    root = _root(args, file_cfg)
    out = _out_dir(args, file_cfg)
    index = scan_dataset(root)
    clips = dataset_features(index, features, target_rate=args.sample_rate)
    if args.max_clips is not None and len(clips) > args.max_clips:
        keep = np.random.default_rng([seed, 3]).permutation(len(clips))[:args.max_clips]
        clips = [clips[i] for i in sorted(keep)]
    labels = [c.label for c in clips]
    if args.space == "latent":
        if args.model is None:
            raise ContractError("--space latent needs --model")
        model = _load_model(args)
        vectors = np.stack([model.encode(c.features) for c in clips])
        base = out / "embed_latent"
    else:
        vectors = np.stack([c.features.data.mean(axis=0) for c in clips])
        base = out / "embed_features"
    embed_cfg = _merge_section(EmbedConfig, file_cfg, "embed", {
        "output_dims": args.dims, "perplexity": args.perplexity,
        "iterations": args.iterations, "seed": seed,
    })
    embedding = tsne_embed(vectors, embed_cfg, labels=labels)
    paths = emit_plot(embedding, base)
    print(f"embedded {len(clips)} clips -> " + ", ".join(str(p) for p in paths))
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


def cmd_stream(args) -> int:
    file_cfg = _load_config_file(args.config)
    features = _merge_section(FeatureConfig, file_cfg, "features", _feature_flags(args))
    sample_rate = _sample_rate(args, file_cfg, default=16000)
    model = _load_model(args)
    tau = args.tau

    fh = open(args.input, "rb") if args.input else sys.stdin.buffer
    n_samples = [0]
    t0 = time.perf_counter()
    n_windows = 0
    try:
        for window in stream_windows(_raw_chunk_reader(fh, n_samples), sample_rate,
                                     features, window_s=args.window_s,
                                     hop_s=args.hop_s):
            score = anomaly_score(*model.reconstruct_features(window.features))
            print(f"{window.end_s:.3f}, {score!r}, {decide(score, tau)}", flush=True)
            n_windows += 1
    finally:
        if args.input:
            fh.close()
    elapsed = time.perf_counter() - t0
    audio_s = n_samples[0] / sample_rate
    rtf = elapsed / audio_s if audio_s > 0 else float("inf")
    print(f"real-time factor: {rtf:.4f} ({n_windows} windows, "
          f"{audio_s:.1f} s audio in {elapsed:.2f} s)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aad",
        description="Acoustic anomaly detection pipeline for machine sounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common_args(p)
    p.add_argument("--out", help="dataset root to create")
    p.add_argument("--n-normal", type=int, required=True, dest="n_normal")
    p.add_argument("--n-anomaly", type=int, required=True, dest="n_anomaly")
    p.add_argument("--duration-s", type=float, default=2.0, dest="duration_s")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="cache log-mel features as AADF files")
    _add_common_args(p)
    _add_feature_args(p)
    p.add_argument("--root", help="dataset root")
    p.add_argument("--out", help="cache output directory")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a model on the normal partition")
    _add_common_args(p)
    _add_feature_args(p)
    p.add_argument("--root")
    p.add_argument("--out")
    p.add_argument("--model", choices=["dense_ae", "cae", "cvae", "tcn_cvae"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--validation-split", type=float, dest="validation_split")
    p.add_argument("--test-fraction", type=float, dest="test_fraction")
    p.add_argument("--window-frames", type=int, dest="window_frames")
    p.add_argument("--latent-dim", type=int, dest="latent_dim")
    p.add_argument("--tcn-layers", type=int, dest="tcn_layers")
    p.add_argument("--tcn-channels", type=int, dest="tcn_channels")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="write the anomaly score table")
    _add_common_args(p)
    _add_feature_args(p)
    p.add_argument("--root")
    p.add_argument("--out")
    p.add_argument("--model", required=True, help="model checkpoint (.aadm)")
    p.add_argument("--partition", choices=["all", "train", "test"], default="all")
    p.add_argument("--test-fraction", type=float, dest="test_fraction")
    p.add_argument("--tau", type=float, help="fixed decision threshold")
    p.add_argument("--max-fpr", type=float, default=0.10, dest="max_fpr",
                   help="FPR bound used to fit tau from normal scores")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="AUC/pAUC report over the test partition")
    _add_common_args(p)
    _add_feature_args(p)
    p.add_argument("--root")
    p.add_argument("--out")
    p.add_argument("--model", required=True)
    p.add_argument("--p", type=float, default=0.05)
    p.add_argument("--pauc-ceil", action="store_true", dest="pauc_ceil")
    p.add_argument("--format", choices=["json", "csv", "markdown"], default="json")
    p.add_argument("--test-fraction", type=float, dest="test_fraction")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("embed", help="t-SNE embedding of features or latents")
    _add_common_args(p)
    _add_feature_args(p)
    p.add_argument("--root")
    p.add_argument("--out")
    p.add_argument("--model", help="checkpoint; required for --space latent")
    p.add_argument("--space", choices=["features", "latent"], default="features")
    p.add_argument("--dims", type=int, choices=[2, 3])
    p.add_argument("--perplexity", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--max-clips", type=int, dest="max_clips")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("stream", help="sliding-window scoring of raw samples")
    _add_common_args(p)
    _add_feature_args(p)
    p.add_argument("--input", help="raw float32 LE mono file (default: stdin)")
    p.add_argument("--model", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--window-s", type=float, default=2.0, dest="window_s")
    p.add_argument("--hop-s", type=float, default=1.0, dest="hop_s")
    p.set_defaults(func=cmd_stream)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (AadError, OSError) as exc:
        print(f"aad {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
