"""Sliding-window streaming inference over a sample stream.

Feeds one minute of synthetic machine audio (with an injected anomaly
burst halfway through) chunk by chunk into the streaming extractor, the
same code path the `aad stream` subcommand drives, and scores each
window against a normal-only model.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from aad import (
    FeatureConfig,
    NORMAL,
    SynthConfig,
    TrainConfig,
    dataset_features,
    decide,
    score_dataset,
    select_threshold,
    stream_windows,
    synth_generate,
    train,
)
from aad.models import build, default_spec
from aad.scoring import anomaly_score

sr = 16000
features = FeatureConfig(n_fft=1024, hop=512, n_mels=64, context_frames=5)

with tempfile.TemporaryDirectory() as tmp:
    index = synth_generate(Path(tmp), SynthConfig(
        n_normal=40, n_anomaly=0, duration_s=2.0, sample_rate=sr, seed=2))
    clips = list(dataset_features(index, features))
    model = build(default_spec("tcn_cvae", n_mels=64, seed=2))
    model, _ = train(model, clips, TrainConfig(epochs=8, batch_size=64, seed=2))
    tau = select_threshold([r.score for r in score_dataset(model, clips)],
                           max_fpr=0.10)
print(f"model ready; threshold tau = {tau:.2f}")

# one minute of normal hum with a broadband burst at the 30 s mark
rng = np.random.default_rng(8)
t = np.arange(60 * sr) / sr
audio = sum(a * np.sin(2 * np.pi * f * t)
            for f, a in ((120, 0.4), (240, 0.25), (360, 0.15)))
audio += rng.normal(0, 0.01, len(t))
audio[30 * sr:int(30.4 * sr)] += rng.normal(0, 0.6, int(0.4 * sr))
audio = audio.astype(np.float32)

def chunks(x, size=4096):
    for i in range(0, len(x), size):
        yield x[i:i + size]

t0 = time.perf_counter()
flagged = []
for window in stream_windows(chunks(audio), sr, features,
                             window_s=2.0, hop_s=1.0):
    score = anomaly_score(*model.reconstruct_features(window.features))
    verdict = decide(score, tau)
    if verdict != NORMAL:
        flagged.append((window.start_s, window.end_s, score))
elapsed = time.perf_counter() - t0

print(f"processed 60 s of audio in {elapsed:.2f} s "
      f"(real-time factor {elapsed / 60:.4f})")
print(f"windows flagged anomalous: {len(flagged)}")
for start, end, score in flagged:
    print(f"  [{start:5.1f} .. {end:5.1f}] s  score {score:9.2f}  (tau {tau:.2f})")
