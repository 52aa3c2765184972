"""Span tracing around the public functions of each `aad` module.

Run as a launcher, it installs timing wrappers and then calls
``aad.cli.main`` with its own arguments:

    AAD_BENCH_SPANS=spans.json python3 bench/tracing.py train --root data ...

Each wrapped call records one span (id, parent id, name, start, end) in
memory; the spans are written to ``$AAD_BENCH_SPANS`` when the command
ends. Times are ``time.monotonic()``, which on Linux is the system-wide
CLOCK_MONOTONIC, so spans can be lined up with events the benchmark
process records. Wrappers rebind each name where the program looks it up
(``aad.models.conv1d_causal``, ``aad.training.adam_step``,
``aad.cli.dataset_features`` and so on) plus the model classes'
``forward``, ``reconstruct_features`` and ``encode``; tiny elementwise
Tensor ops are not wrapped. Nothing under ``src/`` is modified.

Imported as a module, it turns span files into per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

SPANS_ENV = "AAD_BENCH_SPANS"
RUN_ID_ENV = "AAD_BENCH_RUN_ID"
KINDS = ("dense_ae", "cae", "cvae", "tcn_cvae")
CLI_COMMANDS = ("synth", "train", "score", "eval", "embed", "stream")


class Tracer:
    """In-memory span recorder; the parent is the innermost open span of the thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name):
        """Wrap ``fn``; ``name`` is a span name or a function of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            label = name(*args) if callable(name) else name
            stack.append(span_id)
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.monotonic()
                stack.pop()
                tracer.spans.append((span_id, parent, label, t0, t1))
        return traced


def install(tracer: Tracer) -> None:
    """Rebind the program's public functions to traced wrappers."""
    import aad.audio_io
    import aad.cli
    import aad.evaluation
    import aad.features
    import aad.models
    import aad.training
    import aad.tsne

    cli, ev, feat, models, training, tsne = (aad.cli, aad.evaluation, aad.features,
                                             aad.models, aad.training, aad.tsne)
    bindings = [
        ("audio_io.read_wav", [(aad.audio_io, "read_wav")]),
        ("audio_io.synth_generate", [(cli, "synth_generate")]),
        ("features.stft_power", [(feat, "stft_power")]),
        ("features.mel_filterbank", [(feat, "mel_filterbank")]),
        ("features.log_mel", [(feat, "log_mel")]),
        ("features.dataset_features", [(cli, "dataset_features"),
                                       (ev, "dataset_features")]),
        ("tensor.conv1d", [(models, "conv1d_causal")]),
        ("tensor.dense", [(models, "dense")]),
        ("tensor.backward", [(training, "backward")]),
        ("tensor.adam_step", [(training, "adam_step")]),
        ("models.checkpoint_load", [(cli, "checkpoint_load")]),
        ("models.checkpoint_save", [(training, "checkpoint_save")]),
        (lambda model, *_: f"training.{model.spec.kind}", [(cli, "train")]),
        ("scoring.score_dataset", [(cli, "score_dataset"), (ev, "score_dataset")]),
        ("scoring.select_threshold", [(cli, "select_threshold")]),
        ("scoring.anomaly_score", [(cli, "anomaly_score")]),
        ("evaluation.evaluate_dataset", [(cli, "evaluate_dataset")]),
        ("evaluation.roc_auc", [(ev, "roc_auc")]),
        ("evaluation.pauc", [(ev, "pauc")]),
        ("evaluation.emit_report", [(cli, "emit_report")]),
        ("tsne.tsne_embed", [(cli, "tsne_embed")]),
        ("tsne.pairwise_affinities", [(tsne, "pairwise_affinities")]),
        ("tsne.emit_plot", [(cli, "emit_plot")]),
        ("cli.stream.reader", [(cli, "_raw_chunk_reader")]),
    ]
    bindings += [(f"cli.{c}", [(cli, f"cmd_{c}")]) for c in CLI_COMMANDS]
    for name, places in bindings:
        module, attr = places[0]
        wrapper = tracer.wrap(getattr(module, attr), name)
        for module, attr in places:
            setattr(module, attr, wrapper)

    def by_kind(model, *_):
        return f"models.{model.spec.kind}.forward"
    for cls in (models.DenseAutoencoder, models.ConvAutoencoder, models.TcnVae):
        cls.forward = tracer.wrap(cls.forward, by_kind)
    models.Model.reconstruct_features = tracer.wrap(
        models.Model.reconstruct_features, "models.reconstruct_features")
    models.Model.encode = tracer.wrap(models.Model.encode, "models.encode")


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    import aad.cli
    try:
        return aad.cli.main(argv)
    finally:
        path = os.environ.get(SPANS_ENV)
        if path:
            with open(path, "w") as fh:
                json.dump({"run_id": os.environ.get(RUN_ID_ENV, ""), "argv": argv,
                           "spans": tracer.spans}, fh)


# -- span files to per-layer metrics --


class SpanFile:
    """The spans of one traced command, indexed by parent."""

    def __init__(self, path):
        with open(path) as fh:
            blob = json.load(fh)
        self.spans = [tuple(s) for s in blob["spans"]]
        self.children = defaultdict(list)
        for s in self.spans:
            self.children[s[1]].append(s)
        for kids in self.children.values():
            kids.sort(key=lambda s: s[3])

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[2] == name]

    def self_time(self, span) -> float:
        return (span[4] - span[3]) - sum(c[4] - c[3] for c in self.children[span[0]])


def _dur(s) -> float:
    return s[4] - s[3]


def batch_times(sf: SpanFile, train_span) -> list[float]:
    """Per training batch: from the batch's forward start to its Adam step's end.

    Within a train span the children run forward (batch), backward, Adam
    step for every batch; validation forwards have no backward after them.
    """
    out, last_forward, batch_start = [], None, None
    for c in sf.children[train_span[0]]:
        if c[2].startswith("models.") and c[2].endswith(".forward"):
            last_forward = c[3]
        elif c[2] == "tensor.backward":
            batch_start = last_forward
        elif c[2] == "tensor.adam_step" and batch_start is not None:
            out.append(c[4] - batch_start)
            batch_start = None
    return out


def layer_metrics(files: list[SpanFile], embed_iterations: int) -> dict:
    """Per-layer metrics over every traced command of one round.

    Returns {name: (value, unit)}. Totals are summed over the round's
    commands; per-call figures are means over all calls, and read 0 when
    nothing made the call (the program failed; the run reports it).
    """
    spans = defaultdict(list)
    for sf in files:
        for s in sf.spans:
            spans[s[2]].append((sf, s))

    def total(name):
        return sum(_dur(s) for _, s in spans[name])

    def mean_ms(name):
        calls = spans[name]
        return 1e3 * total(name) / len(calls) if calls else 0.0

    m = {
        "tensor.conv1d.fwd_s": (total("tensor.conv1d"), "s"),
        "tensor.conv1d.calls": (len(spans["tensor.conv1d"]), "count"),
        "tensor.backward.s": (total("tensor.backward"), "s"),
        "tensor.adam_step.ms_per_call": (mean_ms("tensor.adam_step"), "ms"),
        "tensor.dense.fwd_s": (total("tensor.dense"), "s"),
        "features.log_mel.ms_per_call": (mean_ms("features.log_mel"), "ms"),
        "features.dataset_features.calls": (len(spans["features.dataset_features"]), "count"),
        "features.mel_filterbank.calls": (len(spans["features.mel_filterbank"]), "count"),
        "audio_io.read_wav.ms_per_call": (mean_ms("audio_io.read_wav"), "ms"),
        "audio_io.synth_generate.s": (total("audio_io.synth_generate"), "s"),
        "models.checkpoint_load.ms": (mean_ms("models.checkpoint_load"), "ms"),
        "models.reconstruct_features.ms_per_call": (mean_ms("models.reconstruct_features"), "ms"),
        "models.encode.ms_per_call": (mean_ms("models.encode"), "ms"),
        "models.checkpoint_save.ms": (mean_ms("models.checkpoint_save"), "ms"),
        "models.checkpoint_save.calls": (len(spans["models.checkpoint_save"]), "count"),
        "scoring.select_threshold.ms": (mean_ms("scoring.select_threshold"), "ms"),
        "evaluation.evaluate_dataset.s": (total("evaluation.evaluate_dataset"), "s"),
        "evaluation.roc_auc.ms": (mean_ms("evaluation.roc_auc"), "ms"),
        "tsne.pairwise_affinities.s": (total("tsne.pairwise_affinities"), "s"),
    }
    for kind in KINDS:
        m[f"models.{kind}.forward_ms"] = (mean_ms(f"models.{kind}.forward"), "ms")
        batches = [b for sf, s in spans[f"training.{kind}"] for b in batch_times(sf, s)]
        m[f"training.{kind}.batch_ms"] = (
            1e3 * statistics.median(batches) if batches else 0.0, "ms")

    clips = sum(1 for sf, s in spans["scoring.score_dataset"]
                for c in sf.children[s[0]] if c[2] == "models.reconstruct_features")
    m["scoring.score_dataset.ms_per_clip"] = (
        1e3 * total("scoring.score_dataset") / clips if clips else 0.0, "ms")

    embeds = spans["tsne.tsne_embed"]
    descent = total("tsne.tsne_embed") - total("tsne.pairwise_affinities")
    m["tsne.iteration_ms"] = (
        1e3 * descent / (len(embeds) * embed_iterations) if embeds else 0.0, "ms")

    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = (sum(sf.self_time(s) for sf, s in spans[f"cli.{cmd}"]), "s")
    return m


def stream_window_times(sf: SpanFile, due: list[float]) -> tuple[list[float], list[float]]:
    """Per stream window: wait (due -> feature work starts), compute (-> model done).

    Window k's feature work is the k-th ``log_mel`` call under the stream
    command, and its model work the k-th ``reconstruct_features`` call.
    """
    (cmd,) = sf.named("cli.stream")
    kids = sf.children[cmd[0]]
    mels = [c for c in kids if c[2] == "features.log_mel"]
    recons = [c for c in kids if c[2] == "models.reconstruct_features"]
    n = min(len(mels), len(recons), len(due))
    wait = [mels[k][3] - due[k] for k in range(n)]
    compute = [recons[k][4] - mels[k][3] for k in range(n)]
    return wait, compute


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
