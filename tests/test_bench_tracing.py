"""The benchmark's span tracer still sees every layer it names.

``bench/tracing.py`` rebinds names of the program with ``setattr``, which
does not fail when a refactor stops a call from going through the binding:
the span is then silently missing. These tests run the tracer on a tiny
dataset, one ``train --epochs 1`` per model kind and one ``score``, and
check that each span appears. ``bench/tracing.py`` is only imported here.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aad
from aad.models import MODEL_KINDS

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
SRC = Path(aad.__file__).resolve().parents[1]
FEATURES = ["--n-fft", "512", "--hop", "256", "--n-mels", "16", "--context-frames", "3"]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The tracing module and the span file of each traced command."""
    ws = tmp_path_factory.mktemp("traced")
    tracing = load_tracing()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def run(name, *argv):
        env[tracing.SPANS_ENV] = str(ws / f"{name}.json")
        done = subprocess.run([sys.executable, str(TRACING), *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return tracing.SpanFile(ws / f"{name}.json")

    run("synth", "synth", "--out", ws / "data", "--n-normal", "12", "--n-anomaly", "4",
        "--duration-s", "1.2", "--seed", "7")
    files = {kind: run(kind, "train", "--root", ws / "data", "--out", ws / kind,
                       "--model", kind, "--epochs", "1", "--window-frames", "8",
                       "--seed", "7", *FEATURES)
             for kind in MODEL_KINDS}
    files["score"] = run("score", "score", "--root", ws / "data", "--out", ws / "score",
                         "--model", ws / "tcn_cvae" / "last.aadm")
    return tracing, files


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_train_records_every_layer(traced, kind):
    tracing, files = traced
    spans = files[kind]
    layer = "tensor.dense" if kind == "dense_ae" else "tensor.conv1d"
    for name in (f"models.{kind}.forward", f"training.{kind}", layer, "tensor.backward",
                 "tensor.adam_step", "models.checkpoint_save"):
        assert spans.named(name), name
    (train,) = spans.named(f"training.{kind}")
    assert tracing.batch_times(spans, train)


def test_score_records_load_reconstruction_and_scoring(traced):
    _, files = traced
    for name in ("models.checkpoint_load", "models.reconstruct_features",
                 "models.tcn_cvae.forward", "scoring.score_dataset"):
        assert files["score"].named(name), name
