"""Read, write, resample and synthesize audio clips; scan MIMII-layout datasets.

A dataset root is expected to look like::

    <root>/<machine_type>/id_<NN>/<normal|abnormal>/*.wav

with ``abnormal`` directories holding the anomaly-labeled recordings.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ContractError,
    DatasetEmptyError,
    FormatError,
    UnsupportedFormatError,
)

NORMAL = "normal"
ANOMALY = "anomaly"
UNLABELED = "unlabeled"

# Harmonic stack used by the synthetic generator (fundamental + 2 overtones).
_SYNTH_HARMONICS = ((120.0, 0.45), (240.0, 0.27), (360.0, 0.18))
_SYNTH_NOISE = 0.01
_ANOMALY_KINDS = ("burst", "detune", "dropout")

# WAVE format tags and the sample types read_wav accepts under them.
_WAVE_PCM = 1
_WAVE_FLOAT = 3
_WAVE_EXTENSIBLE = 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_SAMPLE_TYPES = {(_WAVE_PCM, 16): np.dtype("<i2"), (_WAVE_FLOAT, 32): np.dtype("<f4")}


@dataclass
class AudioClip:
    """Mono waveform. Samples are float32 in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class DatasetEntry:
    machine_type: str
    machine_id: int
    label: str
    path: str  # relative to the index root


@dataclass
class DatasetIndex:
    root: str
    entries: list[DatasetEntry] = field(default_factory=list)

    def full_path(self, entry: DatasetEntry) -> str:
        return str(Path(self.root) / entry.path)

    def read(self, entry: DatasetEntry) -> AudioClip:
        return read_wav(self.full_path(entry))

    def machines(self) -> list[tuple[str, int]]:
        """Distinct (machine_type, machine_id) pairs, sorted."""
        return sorted({(e.machine_type, e.machine_id) for e in self.entries})

    def __len__(self) -> int:
        return len(self.entries)


def _read_fmt(body: bytes, path: Path) -> tuple[int, int, np.dtype]:
    """Parse a fmt chunk into (channels, sample rate, sample dtype)."""
    if len(body) < 16:
        raise FormatError(f"{path}: fmt chunk is {len(body)} bytes; expected at least 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if tag == _WAVE_EXTENSIBLE:
        if len(body) < 40:
            raise FormatError(f"{path}: extensible fmt chunk is {len(body)} bytes; "
                              "expected at least 40")
        if body[28:40] == _GUID_TAIL:
            tag = struct.unpack_from("<I", body, 24)[0]
    if channels < 1:
        raise FormatError(f"{path}: fmt chunk declares {channels} channels")
    if tag == _WAVE_PCM and byte_rate != rate * block_align:
        raise FormatError(f"{path}: byte rate {byte_rate} != sample rate {rate} "
                          f"* block align {block_align}")
    dtype = _SAMPLE_TYPES.get((tag, bits))
    if dtype is None or block_align != channels * dtype.itemsize:
        raise UnsupportedFormatError(
            f"{path}: unsupported sample encoding (format tag {tag:#x}, "
            f"{bits}-bit, block align {block_align}); "
            "expected PCM 16-bit or IEEE float 32-bit"
        )
    return channels, rate, dtype


@dataclass(frozen=True)
class WavHeader:
    """What a WAV file's header says of its audio: mono sample count and rate."""

    n_samples: int
    sample_rate: int


def _seek_data(fh, path: Path) -> tuple[int, int, np.dtype, int]:
    """Parse the header up to the data chunk: (channels, rate, dtype, whole frames).

    Leaves ``fh`` at the first data byte. Chunks other than fmt and data are
    skipped; a data chunk cut short counts the whole frames present.
    """
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    while True:
        chunk = fh.read(8)
        if len(chunk) < 8:
            raise FormatError(f"{path}: no data chunk")
        chunk_id, size = struct.unpack("<4sI", chunk)
        if chunk_id == b"data":
            break
        skip = size + (size & 1)  # odd chunks carry a pad byte
        if chunk_id == b"fmt ":
            body = fh.read(min(size, 40))
            if len(body) < min(size, 40):
                raise FormatError(f"{path}: fmt chunk cut short")
            fmt = _read_fmt(body, path)
            skip -= len(body)
        fh.seek(skip, 1)
    if fmt is None:
        raise FormatError(f"{path}: no fmt chunk before data")
    channels, rate, dtype = fmt
    present = os.fstat(fh.fileno()).st_size - fh.tell()
    return channels, rate, dtype, min(size, present) // (channels * dtype.itemsize)


def read_wav_header(path: str | Path) -> WavHeader:
    """The sample count and rate ``read_wav`` would give, without reading the samples."""
    path = Path(path)
    with open(path, "rb") as fh:
        _, rate, _, frames = _seek_data(fh, path)
    return WavHeader(n_samples=frames, sample_rate=int(rate))


def read_wav(path: str | Path) -> AudioClip:
    """Read a RIFF/WAVE file (PCM16 or float32) as a mono clip in [-1, 1].

    Multi-channel audio is averaged down to mono. PCM16 samples are scaled
    by 2**15. Chunks other than fmt and data are skipped; a data chunk cut
    short yields the whole frames present.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        channels, rate, dtype, frames = _seek_data(fh, path)
        data = np.fromfile(fh, dtype=dtype, count=frames * channels)

    samples = data.astype(np.float32) / 32768.0 if dtype == np.int16 else data
    if channels > 1:
        samples = samples.reshape(frames, channels)
        samples = samples.mean(axis=1, dtype=np.float64).astype(np.float32)
    return AudioClip(samples=samples, sample_rate=int(rate))


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int,
              encoding: str = "float32") -> None:
    """Write mono samples as a WAV file, float32 (default) or pcm16.

    Float files carry the 18-byte fmt chunk and the fact chunk that
    non-PCM WAVE requires; the bytes match ``scipy.io.wavfile.write``.
    """
    samples = np.asarray(samples)
    if encoding == "float32":
        data, tag, fmt_tail = samples.astype("<f4"), _WAVE_FLOAT, b"\x00\x00"
    elif encoding == "pcm16":
        q = np.clip(np.round(samples.astype(np.float64) * 32768.0), -32768, 32767)
        data, tag, fmt_tail = q.astype("<i2"), _WAVE_PCM, b""
    else:
        raise ContractError(f"unknown encoding {encoding!r}")
    channels = 1 if data.ndim == 1 else data.shape[1]
    block_align = channels * data.itemsize
    fmt = struct.pack("<HHIIHH", tag, channels, sample_rate, sample_rate * block_align,
                      block_align, 8 * data.itemsize) + fmt_tail
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if tag == _WAVE_FLOAT:
        chunks += b"fact" + struct.pack("<II", 4, data.shape[0])
    chunks += b"data" + struct.pack("<I", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(chunks) + data.nbytes) + b"WAVE")
        fh.write(chunks)
        fh.write(data.tobytes())


def resampled_length(n_samples: int, sample_rate: int, target_rate: int) -> int:
    """Samples ``resample`` makes of n samples at one rate when it moves them to another."""
    return int(round(n_samples * target_rate / sample_rate))


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Resample a clip by linear interpolation onto the target-rate grid.

    Output duration matches the input duration within one sample period.
    """
    if target_rate <= 0:
        raise ContractError("target_rate must be positive")
    if target_rate == clip.sample_rate or not len(clip.samples):
        out = clip.samples
    else:
        n_in = len(clip.samples)
        n_out = resampled_length(n_in, clip.sample_rate, target_rate)
        t_out = np.arange(n_out, dtype=np.float64) / target_rate
        t_in = np.arange(n_in, dtype=np.float64) / clip.sample_rate
        out = np.interp(t_out, t_in, clip.samples.astype(np.float64))
        out = out.astype(np.float32)
    return AudioClip(samples=out, sample_rate=int(target_rate))


def scan_dataset(root: str | Path) -> DatasetIndex:
    """Scan a MIMII-layout tree into a deterministic, lexicographic index. An ID
    directory is ``id_`` and ASCII digits; others, such as ``id_1_0``, are skipped.
    Two that name one ID, such as ``id_0`` and ``id_00``, are a ContractError."""
    root = Path(root)
    entries, id_dirs = [], {}  # id_dirs: (machine type, ID) -> its first directory
    for wav in sorted(root.glob("*/id_*/*/*.wav")):
        label_dir = wav.parent.name
        if label_dir == "normal":
            label = NORMAL
        elif label_dir == "abnormal":
            label = ANOMALY
        else:
            continue
        digits = wav.parent.parent.name[len("id_"):]
        if not (digits.isascii() and digits.isdigit()):
            continue
        machine_id = int(digits)
        machine_type = wav.parent.parent.parent.name
        id_path = wav.relative_to(root).parent.parent
        first = id_dirs.setdefault((machine_type, machine_id), id_path)
        if first != id_path:
            raise ContractError(f"{first} and {id_path} both name {machine_type} id {machine_id}")
        entries.append(DatasetEntry(
            machine_type=machine_type,
            machine_id=machine_id,
            label=label,
            path=str(wav.relative_to(root)),
        ))
    if not entries:
        raise DatasetEmptyError(f"no dataset entries under {root}")
    return DatasetIndex(root=str(root), entries=entries)


def split_index(index: DatasetIndex, test_normal_fraction: float = 0.1,
                seed: int = 0) -> tuple[DatasetIndex, DatasetIndex]:
    """Split an index into (train, test) partitions, per machine ID.

    Train receives a deterministic random subset of the normals; test
    receives the held-out normals plus every anomaly.
    """
    if not 0.0 < test_normal_fraction < 1.0:
        raise ContractError("test_normal_fraction must be in (0, 1)")
    train_entries: list[DatasetEntry] = []
    test_entries: list[DatasetEntry] = []
    for mtype, mid in index.machines():
        group = [e for e in index.entries
                 if e.machine_type == mtype and e.machine_id == mid]
        normals = [e for e in group if e.label == NORMAL]
        rng = np.random.default_rng([seed, zlib.crc32(f"{mtype}/{mid}".encode())])
        order = rng.permutation(len(normals))
        n_test = max(1, int(round(test_normal_fraction * len(normals))))
        held = {int(i) for i in order[:n_test]}
        train_entries.extend(e for i, e in enumerate(normals) if i not in held)
        test_entries.extend(e for i, e in enumerate(normals) if i in held)
        test_entries.extend(e for e in group if e.label == ANOMALY)
    key = lambda e: (e.machine_type, e.machine_id, e.path)
    return (
        DatasetIndex(root=index.root, entries=sorted(train_entries, key=key)),
        DatasetIndex(root=index.root, entries=sorted(test_entries, key=key)),
    )


@dataclass
class SynthConfig:
    """Configuration for the synthetic stand-in dataset."""

    n_normal: int
    n_anomaly: int
    duration_s: float = 2.0
    sample_rate: int = 16000
    seed: int = 0


def _normal_waveform(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    t = np.arange(n, dtype=np.float64) / sr
    level = 0.8 + 0.2 * rng.uniform()
    x = np.zeros(n, dtype=np.float64)
    for freq, amp in _SYNTH_HARMONICS:
        x += level * amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    x += rng.normal(0.0, _SYNTH_NOISE, n)
    return x


def _anomaly_waveform(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    kind = _ANOMALY_KINDS[rng.integers(len(_ANOMALY_KINDS))]
    t = np.arange(n, dtype=np.float64) / sr
    level = 0.8 + 0.2 * rng.uniform()
    harmonics = list(_SYNTH_HARMONICS)
    detuned = rng.integers(len(harmonics))
    x = np.zeros(n, dtype=np.float64)
    for h, (freq, amp) in enumerate(harmonics):
        if kind == "detune" and h == detuned:
            freq *= rng.uniform(1.25, 1.5)
        x += level * amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    x += rng.normal(0.0, _SYNTH_NOISE, n)
    if kind == "burst":
        span = max(1, int(0.15 * n))
        start = int(rng.integers(0, max(n - span, 1)))
        x[start:start + span] += rng.normal(0.0, 0.5, span)
    elif kind == "dropout":
        span = max(1, int(0.25 * n))
        start = int(rng.integers(0, max(n - span, 1)))
        x[start:start + span] *= 0.05
    return x


def synth_generate(root: str | Path, config: SynthConfig) -> DatasetIndex:
    """Write a deterministic synthetic dataset under ``root`` and index it.

    Normal clips are a fixed harmonic stack (120/240/360 Hz) over a low
    noise floor; anomalies add one of a broadband burst, a detuned
    harmonic, or an amplitude dropout, chosen per clip from the seed.
    """
    if config.n_normal < 0 or config.n_anomaly < 0:
        raise ContractError("clip counts must be non-negative")
    if config.sample_rate < 1:
        raise ContractError(f"sample_rate must be >= 1, got {config.sample_rate}")
    samples = config.duration_s * config.sample_rate
    if not (math.isfinite(samples) and round(samples) >= 1):
        raise ContractError(f"duration_s must be finite and give at least one sample at "
                            f"{config.sample_rate} Hz, got {config.duration_s!r}")
    root = Path(root)
    n = round(samples)
    normal_dir = root / "synthetic" / "id_00" / "normal"
    abnormal_dir = root / "synthetic" / "id_00" / "abnormal"
    normal_dir.mkdir(parents=True, exist_ok=True)
    if config.n_anomaly > 0:
        abnormal_dir.mkdir(parents=True, exist_ok=True)
    for i in range(config.n_normal):
        rng = np.random.default_rng([config.seed, i])
        x = np.clip(_normal_waveform(rng, n, config.sample_rate), -1.0, 1.0)
        write_wav(normal_dir / f"{i:04d}.wav", x.astype(np.float32),
                  config.sample_rate)
    for i in range(config.n_anomaly):
        rng = np.random.default_rng([config.seed, 10_000 + i])
        x = np.clip(_anomaly_waveform(rng, n, config.sample_rate), -1.0, 1.0)
        write_wav(abnormal_dir / f"{i:04d}.wav", x.astype(np.float32),
                  config.sample_rate)
    return scan_dataset(root)
