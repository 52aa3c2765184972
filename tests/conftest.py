import json
import struct
import zlib

import numpy as np
import pytest

from aad.audio_io import AudioClip
from aad.errors import ContractError, TooShortError
from aad.features import FeatureConfig, FeatureMatrix


@pytest.fixture
def sine_clip():
    """1 kHz sine, 1 s at 22050 Hz."""
    sr = 22050
    t = np.arange(sr) / sr
    x = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    return AudioClip(samples=x.astype(np.float32), sample_rate=sr)


def with_contract(model, sample_rate=16000):
    """The model, given the feature contract a checkpoint records: default
    features at the spec's ``n_mels`` and ``context_frames``."""
    model.features = FeatureConfig(n_mels=model.spec.n_mels,
                                   context_frames=model.spec.context_frames)
    model.sample_rate = sample_rate
    return model


def write_version_1(path):
    """Rewrite a checkpoint in the version 1 layout: the spec alone in the
    header, and no CRC32 trailer."""
    raw = path.read_bytes()
    hlen, = struct.unpack_from("<I", raw, 8)
    header = {"spec": json.loads(raw[12:12 + hlen])["spec"]}
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(b"AADM" + struct.pack("<2I", 1, len(blob)) + blob + raw[12 + hlen:-4])


def reseal(path, change):
    """Rewrite a version 2 checkpoint with ``change`` applied to its header dict,
    under a fresh CRC32."""
    raw = path.read_bytes()
    hlen, = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + hlen])
    change(header)
    blob = json.dumps(header, sort_keys=True).encode()
    body = raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


# the feature fields a version 2 header held before they were fixed, at the
# values every file written then holds
RETIRED_FEATURES = {"fmin": 0.0, "fmax": None, "log_floor": 1e-10, "mel_break_hz": 700.0,
                    "slaney_norm": False}


def write_with_retired_features(path, **values):
    """Rewrite a version 2 checkpoint as one written when its header held the
    retired feature fields: at their values then, or at ``values``."""
    reseal(path, lambda header: header["features"].update(RETIRED_FEATURES, **values))


def dominant_freq_hz(samples, sample_rate):
    """FFT-peak oracle: frequency of the largest rfft magnitude bin."""
    spec = np.abs(np.fft.rfft(samples))
    return np.argmax(spec) * sample_rate / len(samples)


def stack_frames(fm, context_frames):
    """Context-row oracle: sliding groups of P consecutive frames, concatenated.

    Row t is frames [t, t+P-1], frame-major; frames - P + 1 rows. A dense_ae
    model's ``inputs_from_features`` must equal this.
    """
    p = context_frames
    if p < 1:
        raise ContractError("context_frames must be >= 1")
    if fm.frames < p:
        raise TooShortError(f"{fm.frames} frames < context_frames {p}")
    rows = [fm.data[t:t + p].ravel() for t in range(fm.frames - p + 1)]
    return FeatureMatrix(data=np.stack(rows), frame_rate=fm.frame_rate)


def finite_diff_grad(f, arrays, h=1e-6):
    """Central-difference gradient oracle for a scalar function.

    ``f`` is a zero-argument callable returning a float; it must read the
    (float64) arrays in ``arrays``, which are perturbed in place one entry
    at a time.
    """
    grads = []
    for a in arrays:
        assert a.dtype == np.float64, "finite differences need 64-bit mode"
        g = np.zeros_like(a)
        flat, gf = a.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = f()
            flat[i] = orig - h
            lm = f()
            flat[i] = orig
            gf[i] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, oracle, rtol=1e-5):
    """Check gradients against the oracle within relative tolerance."""
    for a, o in zip(analytic, oracle):
        np.testing.assert_allclose(a, o, rtol=rtol, atol=1e-7)


def silhouette(points, labels):
    """Mean silhouette coefficient for a two-class labeling."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    dists = np.sqrt(np.maximum(
        np.sum(points ** 2, axis=1)[:, None]
        + np.sum(points ** 2, axis=1)[None, :]
        - 2.0 * points @ points.T, 0.0))
    values = []
    for i in range(len(points)):
        same = labels == labels[i]
        same[i] = False
        other = labels != labels[i]
        if not same.any() or not other.any():
            continue
        a = dists[i][same].mean()
        b = dists[i][other].mean()
        values.append((b - a) / max(a, b))
    return float(np.mean(values))
