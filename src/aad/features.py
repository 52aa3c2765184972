"""Log-mel spectrogram features, context-frame stacking, and sliding windows.

The pipeline is: frame the waveform (no center padding), Hann-window each
frame, take the one-sided power spectrum, project through a triangular
mel filterbank, and express the result in power dB with a floor clamp.

Filter weights are the average of the continuous triangle over each FFT
bin cell rather than point samples at bin centers; this keeps every
filter supported even when the mel grid is finer than the FFT resolution
(e.g. 512 mels against a 1024-point FFT).
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .audio_io import (AudioClip, DatasetEntry, DatasetIndex, read_wav_header, resample,
                       resampled_length)
from .errors import ConfigError, ContractError, FormatError, TooShortError

FEATURE_MAGIC = b"AADF"
FEATURE_VERSION = 1


@dataclass
class FeatureConfig:
    """Feature extraction parameters.

    ``mel_break_hz`` is the knee of the mel map m = 2595*log10(1 + f/break);
    700 is the conventional constant. ``context_frames`` is the stacking
    depth P used to build context vectors (n_mels * P dims per row).
    """

    n_fft: int = 1024
    hop: int = 512
    n_mels: int = 512
    context_frames: int = 11
    fmin: float = 0.0
    fmax: float | None = None  # defaults to sample_rate / 2
    log_floor: float = 1e-10
    mel_break_hz: float = 700.0
    slaney_norm: bool = False

    def __post_init__(self):
        if self.n_fft < 1:
            raise ConfigError(f"n_fft must be >= 1, got {self.n_fft}")
        if self.hop < 1 or self.hop > self.n_fft:
            raise ConfigError(f"hop must be in [1, n_fft], got {self.hop}")
        if self.n_mels < 1:
            raise ConfigError("n_mels must be >= 1")
        p = self.context_frames
        if p < 1 or (p > 1 and p % 2 == 0):
            raise ConfigError("context_frames must be odd or 1")
        for name in ("log_floor", "mel_break_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")

    def effective_fmax(self, sample_rate: int) -> float:
        fmax = self.fmax if self.fmax is not None else sample_rate / 2.0
        if not self.fmin < fmax <= sample_rate / 2.0:
            raise ConfigError(
                f"need fmin < fmax <= sample_rate/2, got fmin={self.fmin}, "
                f"fmax={fmax}, sample_rate={sample_rate}"
            )
        return fmax


@dataclass
class FeatureMatrix:
    """Frames-by-dims feature rows (float32), plus the frame rate in Hz."""

    data: np.ndarray
    frame_rate: float

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> int:
        return self.data.shape[1]


def hz_to_mel(f, break_hz: float = 700.0):
    """Map frequency in Hz to mel: m = 2595 * log10(1 + f / break_hz)."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise ContractError("frequency must be non-negative")
    out = 2595.0 * np.log10(1.0 + f / break_hz)
    return float(out) if out.ndim == 0 else out


def mel_to_hz(m, break_hz: float = 700.0):
    """Inverse of hz_to_mel."""
    m = np.asarray(m, dtype=np.float64)
    out = break_hz * (np.power(10.0, m / 2595.0) - 1.0)
    return float(out) if out.ndim == 0 else out


def _ramp_integral(lo, hi, a, b, rising):
    """Integral over [lo, hi] of the linear ramp on [a, b] (0->1 or 1->0)."""
    if b <= a:
        return np.zeros_like(lo)
    x0 = np.clip(lo, a, b)
    x1 = np.clip(hi, a, b)
    if rising:
        return ((x1 - a) ** 2 - (x0 - a) ** 2) / (2.0 * (b - a))
    return ((b - x0) ** 2 - (b - x1) ** 2) / (2.0 * (b - a))


def mel_filterbank(config: FeatureConfig, sample_rate: int) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft//2 + 1).

    Filter centers are equally spaced in mel between fmin and fmax. Each
    weight is the bin-cell average of the unit-peak triangle, so rows are
    non-negative and unimodal. Raises ConfigError naming the first filter
    whose support collapses to zero.
    """
    fmax = config.effective_fmax(sample_rate)
    n_bins = config.n_fft // 2 + 1
    grid_mel = np.linspace(hz_to_mel(config.fmin, config.mel_break_hz),
                           hz_to_mel(fmax, config.mel_break_hz),
                           config.n_mels + 2)
    grid_hz = mel_to_hz(grid_mel, config.mel_break_hz)

    delta = sample_rate / config.n_fft
    bin_lo = np.arange(n_bins) * delta - delta / 2.0
    bin_hi = bin_lo + delta

    fb = np.zeros((config.n_mels, n_bins), dtype=np.float64)
    for i in range(config.n_mels):
        left, center, right = grid_hz[i], grid_hz[i + 1], grid_hz[i + 2]
        area = (_ramp_integral(bin_lo, bin_hi, left, center, rising=True)
                + _ramp_integral(bin_lo, bin_hi, center, right, rising=False))
        row = area / delta
        if not np.any(row > 0):
            raise ConfigError(
                f"mel filter {i} has zero support: the mel grid is finer than "
                f"the resolution of n_fft={config.n_fft} at {sample_rate} Hz"
            )
        if config.slaney_norm:
            row = row * (2.0 / (right - left))
        fb[i] = row
    return fb


def _hann(n: int) -> np.ndarray:
    # periodic Hann, the standard STFT analysis window
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_count(n_samples: int, config: FeatureConfig) -> int:
    """Frames valid-mode framing makes of n samples: 1 + floor((n - n_fft) / hop)."""
    return max(1 + (n_samples - config.n_fft) // config.hop, 0)


def stft_power(clip: AudioClip, config: FeatureConfig) -> np.ndarray:
    """One-sided power spectrogram, shape (frames, n_fft//2 + 1).

    Valid-mode framing: frames = 1 + floor((len - n_fft) / hop), no
    center padding, so streaming and offline extraction agree exactly.
    """
    x = np.asarray(clip.samples, dtype=np.float64)
    if x.ndim != 1:
        raise ContractError("clip samples must be 1-D mono")
    n_fft, hop = config.n_fft, config.hop
    if len(x) < n_fft:
        raise TooShortError(f"clip has {len(x)} samples, need >= {n_fft}")
    n_frames = frame_count(len(x), config)
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop][:n_frames]
    spec = np.fft.rfft(frames * _hann(n_fft), axis=1)
    return np.abs(spec) ** 2


def log_mel(clip: AudioClip, config: FeatureConfig,
            filterbank: np.ndarray | None = None) -> FeatureMatrix:
    """Log-mel feature matrix: 10*log10(max(filterbank @ power, log_floor)).

    Pass a precomputed ``filterbank`` to amortize construction across clips.
    """
    with np.errstate(invalid="ignore"):  # a non-finite sample gives NaN features, quietly
        power = stft_power(clip, config)
        if filterbank is None:
            filterbank = mel_filterbank(config, clip.sample_rate)
        mel_power = power @ filterbank.T
    db = 10.0 * np.log10(np.maximum(mel_power, config.log_floor))
    return FeatureMatrix(data=db.astype(np.float32),
                         frame_rate=clip.sample_rate / config.hop)


@dataclass
class StreamWindow:
    """One sliding window of features with its position in the stream."""

    start_s: float
    end_s: float
    features: FeatureMatrix


def stream_windows(chunks: Iterable[np.ndarray], sample_rate: int,
                   config: FeatureConfig, window_s: float,
                   hop_s: float) -> Iterator[StreamWindow]:
    """Sliding-window log-mel extraction over a stream of sample chunks.

    Each emitted window equals log_mel applied to the same offline slice,
    bit for bit. A hop longer than the window skips the samples between
    windows. A final partial window is dropped.
    """
    win = int(round(window_s * sample_rate))
    hop = int(round(hop_s * sample_rate))
    if win < config.n_fft:
        raise ConfigError("window_s * sample_rate must be >= n_fft")
    if hop < 1:
        raise ConfigError("hop_s must be positive")
    fb = mel_filterbank(config, sample_rate)
    buf = np.empty(0, dtype=np.float32)
    consumed = 0  # samples dropped off the front of buf
    skip = 0  # samples of a hop longer than buf still to drop from the input
    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=np.float32)
        drop = min(skip, len(chunk))
        skip -= drop
        buf = np.concatenate([buf, chunk[drop:]])
        while len(buf) >= win:
            start = consumed
            clip = AudioClip(samples=buf[:win], sample_rate=sample_rate)
            yield StreamWindow(
                start_s=start / sample_rate,
                end_s=(start + win) / sample_rate,
                features=log_mel(clip, config, filterbank=fb),
            )
            skip = max(hop - len(buf), 0)
            buf = buf[hop:]
            consumed += hop


def save_features(fm: FeatureMatrix, path: str | Path,
                  config: FeatureConfig | None = None) -> None:
    """Write a feature cache file: AADF magic, version, JSON header, f32 data."""
    header = {
        "dims": fm.dims,
        "frames": fm.frames,
        "frame_rate": fm.frame_rate,
        "config": asdict(config) if config is not None else None,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<I", FEATURE_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(fm.data, dtype="<f4").tobytes())


def load_features(path: str | Path) -> FeatureMatrix:
    """Read an AADF feature cache file; exact float32 round trip."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: not a feature cache file")
    version, = struct.unpack_from("<I", raw, 4)
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    hlen, = struct.unpack_from("<I", raw, 8)
    if len(raw) < 12 + hlen:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    frames, dims, rate = (header.get(k) for k in ("frames", "dims", "frame_rate"))
    if not all(type(n) is int and n >= 0 for n in (frames, dims)) \
            or type(rate) not in (int, float):
        raise FormatError(f"{path}: header needs integer frames and dims "
                          "and a numeric frame_rate")
    body = raw[12 + hlen:]
    if len(body) != frames * dims * 4:
        raise FormatError(f"{path}: truncated data section")
    data = np.frombuffer(body, dtype="<f4").reshape(frames, dims)
    return FeatureMatrix(data=data.copy(), frame_rate=float(rate))


@dataclass
class ClipFeatures:
    """Features of one clip together with its dataset identity."""

    features: FeatureMatrix
    label: str
    machine_type: str
    machine_id: int
    path: str


@contextmanager
def clip_named(path: str) -> Iterator[None]:
    """Name the clip in a TooShortError raised inside the block."""
    try:
        yield
    except TooShortError as exc:
        raise TooShortError(f"{path}: {exc}") from None


def _clip_features(index: DatasetIndex, entry: DatasetEntry, config: FeatureConfig,
                   target_rate: int | None, filterbanks: dict[int, np.ndarray]) -> ClipFeatures:
    clip = index.read(entry)
    if target_rate is not None and clip.sample_rate != target_rate:
        clip = resample(clip, target_rate)
    if clip.sample_rate not in filterbanks:
        filterbanks[clip.sample_rate] = mel_filterbank(config, clip.sample_rate)
    with clip_named(entry.path):
        fm = log_mel(clip, config, filterbank=filterbanks[clip.sample_rate])
    return ClipFeatures(features=fm, label=entry.label, machine_type=entry.machine_type,
                        machine_id=entry.machine_id, path=entry.path)


def dataset_features(index: DatasetIndex, config: FeatureConfig,
                     target_rate: int | None = None) -> Iterator[ClipFeatures]:
    """Log-mel features of every entry of an index, one clip at a time, in index order.

    Only the clip last yielded is held, not its samples: ``list()`` the
    result to keep every clip.
    """
    filterbanks: dict[int, np.ndarray] = {}
    for entry in index.entries:
        yield _clip_features(index, entry, config, target_rate, filterbanks)


def dataset_frame_counts(index: DatasetIndex, config: FeatureConfig,
                         target_rate: int | None = None) -> tuple[list[int], int | None]:
    """The frames ``dataset_features`` makes of each entry, from the WAV headers alone,
    and the rate it extracts them at: ``target_rate``, or else the one rate every
    clip must share. ConfigError names two clips at different rates, TooShortError
    the first clip shorter than one FFT frame.
    """
    counts, rate, first = [], target_rate, None
    for entry in index.entries:
        header = read_wav_header(index.full_path(entry))
        if rate is None:
            rate, first = header.sample_rate, entry.path
        elif target_rate is None and header.sample_rate != rate:
            raise ConfigError(f"{first} is at {rate} Hz and {entry.path} at "
                              f"{header.sample_rate} Hz: set one sample_rate")
        n = header.n_samples
        if header.sample_rate != rate:
            n = resampled_length(n, header.sample_rate, rate)
        if n < config.n_fft:
            raise TooShortError(f"{entry.path}: clip has {n} samples, need >= {config.n_fft}")
        counts.append(frame_count(n, config))
    return counts, rate
