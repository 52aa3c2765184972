import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from aad import audio_io
from aad.audio_io import (
    AudioClip,
    SynthConfig,
    read_wav,
    read_wav_header,
    resample,
    scan_dataset,
    split_index,
    synth_generate,
    write_wav,
)
from aad.errors import (
    ContractError,
    DatasetEmptyError,
    FormatError,
    UnsupportedFormatError,
)
from conftest import dominant_freq_hz


class TestReadWav:
    def test_pcm16_fixed_point_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        wavfile.write(str(path), 22050, np.array([0, 16384, -16384], dtype=np.int16))
        clip = read_wav(path)
        assert clip.sample_rate == 22050
        np.testing.assert_array_equal(clip.samples, [0.0, 0.5, -0.5])

    def test_one_second_sample_count(self, tmp_path):
        path = tmp_path / "a.wav"
        wavfile.write(str(path), 22050, np.zeros(22050, dtype=np.int16))
        assert len(read_wav(path).samples) == 22050

    def test_ten_seconds_at_22050(self, tmp_path):
        path = tmp_path / "a.wav"
        wavfile.write(str(path), 22050, np.zeros(220500, dtype=np.float32))
        clip = read_wav(path)
        assert len(clip.samples) == 220500
        assert clip.duration_s == pytest.approx(10.0)

    def test_multichannel_averages_to_mono(self, tmp_path):
        path = tmp_path / "a.wav"
        data = np.stack([np.full(100, 0.2, np.float32),
                         np.full(100, 0.6, np.float32)], axis=1)
        wavfile.write(str(path), 16000, data)
        clip = read_wav(path)
        assert clip.samples.ndim == 1
        np.testing.assert_allclose(clip.samples, 0.4, rtol=1e-6)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"this is not a wav file at all")
        with pytest.raises(FormatError):
            read_wav(path)

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "f64.wav"
        wavfile.write(str(path), 16000, np.zeros(10, dtype=np.float64))
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_float32_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 1000).astype(np.float32)
        path = tmp_path / "f32.wav"
        write_wav(path, x, 16000, encoding="float32")
        np.testing.assert_array_equal(read_wav(path).samples, x)

    def test_pcm16_roundtrip_within_one_lsb(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 1000).astype(np.float32)
        x[0], x[1] = 1.0, -1.0
        path = tmp_path / "p16.wav"
        write_wav(path, x, 16000, encoding="pcm16")
        back = read_wav(path).samples
        assert np.max(np.abs(back - x)) <= 1.0 / 32768 + 1e-9


def riff(*chunks):
    """A RIFF/WAVE file from (id, body) chunks, odd bodies padded."""
    body = b"".join(cid + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) % 2)
                    for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def fmt_body(tag, channels, rate, bits, extra=b""):
    block = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits) + extra


GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


class TestWavFormat:
    @pytest.mark.parametrize("encoding,dtype", [("float32", "<f4"), ("pcm16", "<i2")])
    def test_bytes_match_scipy_writer(self, tmp_path, encoding, dtype):
        rng = np.random.default_rng(5)
        q = rng.integers(-32768, 32768, 777).astype("<i2")
        x = (q / 32768.0).astype(np.float32)  # exact in both encodings
        ours, ref = tmp_path / "ours.wav", tmp_path / "ref.wav"
        write_wav(ours, x, 16000, encoding=encoding)
        wavfile.write(str(ref), 16000, x.astype(dtype) if dtype == "<f4" else q)
        assert ours.read_bytes() == ref.read_bytes()

    def test_odd_sized_chunk_and_its_pad_byte_are_skipped(self, tmp_path):
        q = np.array([1, -2, 3, 16384], dtype="<i2")
        path = tmp_path / "a.wav"
        path.write_bytes(riff((b"fmt ", fmt_body(1, 1, 8000, 16)),
                              (b"LIST", b"abc"), (b"data", q.tobytes())))
        clip = read_wav(path)
        assert clip.sample_rate == 8000
        np.testing.assert_array_equal(clip.samples, q / 32768.0)

    def test_extensible_float_reads(self, tmp_path):
        x = np.linspace(-1, 1, 50, dtype="<f4")
        ext = struct.pack("<HHI", 22, 32, 4) + struct.pack("<I", 3) + GUID_TAIL
        path = tmp_path / "ext.wav"
        path.write_bytes(riff((b"fmt ", fmt_body(0xFFFE, 1, 16000, 32, ext)),
                              (b"fact", struct.pack("<I", 50)), (b"data", x.tobytes())))
        clip = read_wav(path)
        assert clip.sample_rate == 16000
        np.testing.assert_array_equal(clip.samples, x)

    def test_pcm24_unsupported(self, tmp_path):
        path = tmp_path / "p24.wav"
        path.write_bytes(riff((b"fmt ", fmt_body(1, 1, 16000, 24)),
                              (b"data", b"\x00" * 30)))
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_float64_unsupported(self, tmp_path):
        path = tmp_path / "f64.wav"
        path.write_bytes(riff((b"fmt ", fmt_body(3, 1, 16000, 64, b"\x00\x00")),
                              (b"data", np.zeros(4).tobytes())))
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    @pytest.mark.parametrize("encoding", ["float32", "pcm16"])
    def test_every_cut_inside_the_header_is_a_format_error(self, tmp_path, encoding):
        full = tmp_path / "full.wav"
        write_wav(full, np.zeros(8, np.float32), 16000, encoding=encoding)
        blob = full.read_bytes()
        header = len(blob) - 8 * (4 if encoding == "float32" else 2)
        cut = tmp_path / "cut.wav"
        for n in range(header):
            cut.write_bytes(blob[:n])
            with pytest.raises(FormatError):
                read_wav(cut)

    @pytest.mark.parametrize("encoding,width", [("float32", 4), ("pcm16", 2)])
    def test_short_data_chunk_reads_whole_samples_present(self, tmp_path,
                                                          encoding, width):
        x = np.linspace(-0.5, 0.5, 100, dtype=np.float32)
        path = tmp_path / "a.wav"
        write_wav(path, x, 16000, encoding=encoding)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 5 * width - 1])
        samples = read_wav(path).samples
        np.testing.assert_allclose(samples, x[:94], atol=1.0 / 32768)
        assert samples.flags.writeable
        samples[0] = 0.0

    def test_short_stereo_data_keeps_whole_frames(self, tmp_path):
        frames = np.stack([np.full(10, 0.25, np.float32),
                           np.full(10, 0.75, np.float32)], axis=1)
        path = tmp_path / "st.wav"
        wavfile.write(str(path), 16000, frames)
        path.write_bytes(path.read_bytes()[:-12])  # 8.5 frames remain
        np.testing.assert_allclose(read_wav(path).samples, np.full(8, 0.5))


N_PROPERTY_SAMPLES = 24


def wav_bytes(encoding):
    """A small mono file of the encoding, and the length of its header."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.wav"
        write_wav(path, np.linspace(-0.5, 0.5, N_PROPERTY_SAMPLES), 16000, encoding=encoding)
        blob = path.read_bytes()
    width = 4 if encoding == "float32" else 2
    return blob, len(blob) - N_PROPERTY_SAMPLES * width


WAV_FILES = {encoding: wav_bytes(encoding) for encoding in ("float32", "pcm16")}


def damaged_wav(draw_from):
    """A file of either encoding, cut at any byte or with one header byte changed."""
    encoding = draw_from(st.sampled_from(sorted(WAV_FILES)))
    blob, header = WAV_FILES[encoding]
    if draw_from(st.booleans()):
        return blob[:draw_from(st.integers(0, len(blob)))]
    at = draw_from(st.integers(0, header - 1))
    return blob[:at] + bytes([blob[at] ^ draw_from(st.integers(1, 255))]) + blob[at + 1:]


class TestDamagedWavProperty:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_loads_or_raises_format_error(self, data):
        """A damaged file loads, and its header read agrees, or it is a FormatError
        (UnsupportedFormatError included): never another exception."""
        blob = damaged_wav(data.draw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.wav"
            path.write_bytes(blob)
            try:
                clip = read_wav(path)
            except FormatError:
                return
            header = read_wav_header(path)
        assert clip.samples.dtype == np.float32 and clip.samples.ndim == 1
        assert (header.n_samples, header.sample_rate) == (len(clip.samples),
                                                          clip.sample_rate)


class TestResample:
    def test_empty_clip_stays_empty(self):
        out = resample(AudioClip(np.zeros(0, np.float32), 16000), 8000)
        assert out.samples.size == 0 and out.sample_rate == 8000

    def test_identity_rate(self, sine_clip):
        out = resample(sine_clip, sine_clip.sample_rate)
        np.testing.assert_array_equal(out.samples, sine_clip.samples)

    def test_downsample_keeps_sine_peak(self):
        # 1 kHz sine at 44.1k resampled to 22.05k: dominant bin stays 1 kHz
        src = AudioClip(
            samples=(0.5 * np.sin(2 * np.pi * 1000.0 * np.arange(44100) / 44100)
                     ).astype(np.float32),
            sample_rate=44100,
        )
        out = resample(src, 22050)
        assert dominant_freq_hz(out.samples, out.sample_rate) == pytest.approx(1000.0, abs=2.0)

    def test_constant_signal_stays_constant(self):
        clip = AudioClip(np.full(8000, 0.25, np.float32), 8000)
        out = resample(clip, 16000)
        np.testing.assert_allclose(out.samples, 0.25, rtol=1e-6)

    def test_duration_within_one_sample_period(self, sine_clip):
        out = resample(sine_clip, 16000)
        assert abs(out.duration_s - sine_clip.duration_s) <= 1.0 / 16000

    def test_bad_target_rate(self, sine_clip):
        with pytest.raises(ContractError):
            resample(sine_clip, 0)


def n_labeled(index, label):
    return sum(e.label == label for e in index.entries)


def _make_tree(root, spec):
    """spec: list of (machine_type, id, label_dir, filename)."""
    for mtype, mid, label_dir, name in spec:
        d = root / mtype / f"id_{mid:02d}" / label_dir
        d.mkdir(parents=True, exist_ok=True)
        wavfile.write(str(d / name), 16000, np.zeros(16, dtype=np.int16))


class TestScanDataset:
    def test_single_entry(self, tmp_path):
        _make_tree(tmp_path, [("fan", 0, "normal", "a.wav")])
        idx = scan_dataset(tmp_path)
        assert len(idx) == 1
        e = idx.entries[0]
        assert (e.machine_type, e.machine_id, e.label) == ("fan", 0, "normal")

    def test_counts_over_two_ids(self, tmp_path):
        spec = []
        for mid in (0, 2):
            spec += [("fan", mid, "normal", f"n{i}.wav") for i in range(3)]
            spec += [("fan", mid, "abnormal", "x0.wav")]
        _make_tree(tmp_path, spec)
        idx = scan_dataset(tmp_path)
        assert len(idx) == 8
        assert n_labeled(idx, audio_io.ANOMALY) == 2

    def test_abnormal_maps_to_anomaly(self, tmp_path):
        _make_tree(tmp_path, [("pump", 4, "abnormal", "a.wav")])
        idx = scan_dataset(tmp_path)
        assert idx.entries[0].label == audio_io.ANOMALY

    def test_empty_tree_raises(self, tmp_path):
        with pytest.raises(DatasetEmptyError):
            scan_dataset(tmp_path)

    @pytest.mark.parametrize("other", ["id_0", "id_000"])
    def test_two_directories_naming_one_id_are_rejected(self, tmp_path, other):
        # both folders' clips were merged into one row for id 0
        _make_tree(tmp_path, [("fan", 0, "normal", "a.wav")])
        d = tmp_path / "fan" / other / "normal"
        d.mkdir(parents=True)
        wavfile.write(str(d / "b.wav"), 16000, np.zeros(16, dtype=np.int16))
        with pytest.raises(ContractError) as info:
            scan_dataset(tmp_path)
        assert str(info.value) in (f"fan/id_00 and fan/{other} both name fan id 0",
                                   f"fan/{other} and fan/id_00 both name fan id 0")

    @pytest.mark.parametrize("other", ["id_+0", "id_0_0", "id_1_0", "id_ 0", "id_\u0660",
                                       "id_x", "id_"])
    def test_other_id_spellings_are_skipped(self, tmp_path, other):
        # int() read id_+0, id_ 0 and id_<Arabic-Indic zero> as 0, and id_1_0 as 10
        _make_tree(tmp_path, [("fan", 0, "normal", "a.wav")])
        d = tmp_path / "fan" / other / "normal"
        d.mkdir(parents=True)
        wavfile.write(str(d / "b.wav"), 16000, np.zeros(16, dtype=np.int16))
        idx = scan_dataset(tmp_path)
        assert [(e.machine_id, e.path) for e in idx.entries] == [(0, "fan/id_00/normal/a.wav")]

    def test_scan_is_pure(self, tmp_path):
        _make_tree(tmp_path, [("fan", 0, "normal", "b.wav"),
                              ("fan", 0, "normal", "a.wav"),
                              ("valve", 6, "abnormal", "z.wav")])
        a = scan_dataset(tmp_path)
        b = scan_dataset(tmp_path)
        assert a.entries == b.entries


class TestSynthGenerate:
    def test_deterministic_byte_identical(self, tmp_path):
        cfg = SynthConfig(n_normal=3, n_anomaly=2, duration_s=0.5, seed=7)
        idx1 = synth_generate(tmp_path / "a", cfg)
        idx2 = synth_generate(tmp_path / "b", cfg)
        for e1, e2 in zip(idx1.entries, idx2.entries):
            b1 = open(idx1.full_path(e1), "rb").read()
            b2 = open(idx2.full_path(e2), "rb").read()
            assert b1 == b2

    def test_label_counts_exact(self, tmp_path):
        cfg = SynthConfig(n_normal=5, n_anomaly=3, duration_s=0.2, seed=1)
        idx = synth_generate(tmp_path, cfg)
        assert n_labeled(idx, audio_io.NORMAL) == 5
        assert n_labeled(idx, audio_io.ANOMALY) == 3

    def test_no_anomalies_requested(self, tmp_path):
        cfg = SynthConfig(n_normal=2, n_anomaly=0, duration_s=0.2, seed=1)
        idx = synth_generate(tmp_path, cfg)
        assert n_labeled(idx, audio_io.ANOMALY) == 0

    def test_normal_clip_harmonic_peaks(self, tmp_path):
        cfg = SynthConfig(n_normal=1, n_anomaly=0, duration_s=2.0, seed=5)
        idx = synth_generate(tmp_path, cfg)
        clip = idx.read(idx.entries[0])
        spec = np.abs(np.fft.rfft(clip.samples.astype(np.float64)))
        freqs = np.fft.rfftfreq(len(clip.samples), 1 / clip.sample_rate)
        # the three largest spectral peaks sit at the harmonic stack
        top = freqs[np.argsort(spec)[-3:]]
        assert sorted(np.round(top).astype(int)) == [120, 240, 360]

    def test_roundtrip_lossless(self, tmp_path):
        cfg = SynthConfig(n_normal=1, n_anomaly=1, duration_s=0.3, seed=9)
        idx = synth_generate(tmp_path, cfg)
        for e in idx.entries:
            clip = idx.read(e)
            assert clip.samples.dtype == np.float32
            assert np.all(np.isfinite(clip.samples))
            assert np.max(np.abs(clip.samples)) <= 1.0


class TestSplitIndex:
    def test_partition_disjoint_and_complete(self, tmp_path):
        cfg = SynthConfig(n_normal=20, n_anomaly=5, duration_s=0.2, seed=2)
        idx = synth_generate(tmp_path, cfg)
        train, test = split_index(idx, test_normal_fraction=0.2, seed=3)
        train_paths = {e.path for e in train.entries}
        test_paths = {e.path for e in test.entries}
        assert not train_paths & test_paths
        assert train_paths | test_paths == {e.path for e in idx.entries}
        assert all(e.label == audio_io.NORMAL for e in train.entries)
        assert n_labeled(test, audio_io.ANOMALY) == 5
        assert n_labeled(test, audio_io.NORMAL) == 4

    def test_deterministic(self, tmp_path):
        cfg = SynthConfig(n_normal=10, n_anomaly=2, duration_s=0.2, seed=2)
        idx = synth_generate(tmp_path, cfg)
        a = split_index(idx, 0.1, seed=5)
        b = split_index(idx, 0.1, seed=5)
        assert a[0].entries == b[0].entries
        assert a[1].entries == b[1].entries
