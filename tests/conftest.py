import numpy as np
import pytest

from aad.audio_io import AudioClip
from aad.errors import ContractError, TooShortError
from aad.features import FeatureMatrix


@pytest.fixture
def sine_clip():
    """1 kHz sine, 1 s at 22050 Hz."""
    sr = 22050
    t = np.arange(sr) / sr
    x = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    return AudioClip(samples=x.astype(np.float32), sample_rate=sr)


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
