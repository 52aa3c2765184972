"""Log-mel feature extraction, step by step.

Synthesizes a short harmonic clip, walks it through STFT power, the mel
filterbank, and dB conversion, then round-trips the result through the
AADF feature cache format. The frames become model inputs as a dense
autoencoder stacks them into context vectors.
"""

import tempfile
from pathlib import Path

import numpy as np

from aad import (
    AudioClip,
    FeatureConfig,
    build,
    default_spec,
    hz_to_mel,
    load_features,
    log_mel,
    mel_filterbank,
    save_features,
    stft_power,
)

sr = 16000
t = np.arange(2 * sr) / sr
wave = sum(a * np.sin(2 * np.pi * f * t)
           for f, a in ((120, 0.5), (240, 0.3), (360, 0.2)))
clip = AudioClip(samples=wave.astype(np.float32), sample_rate=sr)
print(f"clip: {clip.duration_s:.1f} s at {sr} Hz")

cfg = FeatureConfig(n_fft=1024, hop=512, n_mels=64, context_frames=5)
print(f"mel scale: 700 Hz -> {hz_to_mel(700):.1f} mel, 1 kHz -> {hz_to_mel(1000):.1f} mel")

power = stft_power(clip, cfg)
print(f"power spectrogram: {power.shape[0]} frames x {power.shape[1]} bins")

fb = mel_filterbank(cfg, sr)
print(f"filterbank: {fb.shape[0]} triangular filters over {fb.shape[1]} bins, "
      f"all rows supported: {bool(np.all(fb.sum(axis=1) > 0))}")

fm = log_mel(clip, cfg)
print(f"log-mel features: {fm.frames} frames x {fm.dims} mels, "
      f"range [{fm.data.min():.1f}, {fm.data.max():.1f}] dB")

# a dense autoencoder reads P consecutive frames as one context vector
model = build(default_spec("dense_ae", n_mels=cfg.n_mels, context_frames=cfg.context_frames))
rows = model.inputs_from_features(fm)
print(f"context vectors (P={cfg.context_frames}): {rows.shape[0]} rows x {rows.shape[1]} dims")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "clip.aadf"
    save_features(fm, path, cfg)
    back = load_features(path)
    print(f"AADF cache round trip exact: {bool(np.array_equal(back.data, fm.data))} "
          f"({path.stat().st_size} bytes)")
