import json
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aad.audio_io import NORMAL, AudioClip, DatasetEntry, DatasetIndex
from aad.errors import ConfigError, ContractError, FormatError, TooShortError
from aad.features import (
    FeatureConfig,
    FeatureMatrix,
    dataset_features,
    dataset_frame_counts,
    hz_to_mel,
    load_features,
    log_mel,
    mel_filterbank,
    mel_to_hz,
    save_features,
    stft_power,
    stream_windows,
)

from conftest import stack_frames
from test_audio_io import GUID_TAIL, fmt_body, riff

SMALL = dict(n_fft=1024, hop=512, n_mels=64, context_frames=5)


class TestMelScale:
    def test_zero_maps_to_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_break_frequency(self):
        # direct evaluation of the closed form: 2595 * log10(2)
        assert hz_to_mel(700.0) == pytest.approx(2595 * math.log10(2), rel=1e-12)

    def test_1khz_near_1000_mel(self):
        m = hz_to_mel(1000.0)
        assert abs(m - 1000.0) / 1000.0 < 1e-3

    def test_negative_frequency_rejected(self):
        with pytest.raises(ContractError):
            hz_to_mel(-1.0)

    def test_inverse_within_1e9_relative(self):
        m = np.linspace(0.0, 4000.0, 257)
        back = hz_to_mel(mel_to_hz(m))
        np.testing.assert_allclose(back[1:], m[1:], rtol=1e-9)
        assert abs(back[0]) < 1e-9

    def test_strictly_monotone(self):
        f = np.linspace(0.0, 11025.0, 1001)
        assert np.all(np.diff(hz_to_mel(f)) > 0)


class TestMelFilterbank:
    def test_single_filter_spans_range_and_peaks_mid(self):
        cfg = FeatureConfig(n_fft=1024, hop=512, n_mels=1, context_frames=1)
        fb = mel_filterbank(cfg, 22050)
        assert fb.shape == (1, 513)
        peak_bin = np.argmax(fb[0])
        mid_hz = mel_to_hz(hz_to_mel(11025.0) / 2.0)
        assert abs(peak_bin * 22050 / 1024 - mid_hz) < 2 * 22050 / 1024

    def test_rows_nonnegative_with_positive_sums(self):
        cfg = FeatureConfig(n_fft=1024, hop=512, n_mels=64, context_frames=1)
        fb = mel_filterbank(cfg, 22050)
        assert np.all(fb >= 0)
        assert np.all(fb.sum(axis=1) > 0)

    def test_centers_strictly_increasing_in_hz(self):
        centers = mel_to_hz(np.linspace(0.0, hz_to_mel(22050 / 2), 64 + 2)[1:-1])
        assert np.all(np.diff(centers) > 0)

    def test_rows_unimodal(self):
        cfg = FeatureConfig(n_fft=1024, hop=512, n_mels=32, context_frames=1)
        fb = mel_filterbank(cfg, 22050)
        for row in fb:
            peak = np.argmax(row)
            assert np.all(np.diff(row[:peak + 1]) >= 0)
            assert np.all(np.diff(row[peak:]) <= 0)

    def test_default_512_mels_fully_supported(self):
        fb = mel_filterbank(FeatureConfig(), 22050)
        assert fb.shape == (512, 513)
        assert np.all(fb.sum(axis=1) > 0)

    @pytest.mark.parametrize("rate,n_fft,n_mels", [(1, 1, 3000), (1, 1024, 3000),
                                                   (192000, 1, 3000), (192000, 1024, 3000),
                                                   (8000, 16, 2000)])
    def test_every_filter_has_support_where_mel_grid_outruns_the_fft(self, rate, n_fft,
                                                                      n_mels):
        # the band is 0 Hz to rate/2, which the bin cells tile, so no filter
        # collapses however fine the mel grid is against the FFT resolution
        fb = mel_filterbank(FeatureConfig(n_fft=n_fft, hop=1, n_mels=n_mels), rate)
        assert fb.shape == (n_mels, n_fft // 2 + 1)
        assert np.all(fb.max(axis=1) > 0)


class TestStftPower:
    def test_silence_gives_zero_matrix(self):
        clip = AudioClip(np.zeros(22050, np.float32), 22050)
        p = stft_power(clip, FeatureConfig(**SMALL))
        assert p.shape == (1 + (22050 - 1024) // 512, 513)
        assert np.all(p == 0)

    def test_ten_second_frame_count(self):
        clip = AudioClip(np.zeros(220500, np.float32), 22050)
        p = stft_power(clip, FeatureConfig(**SMALL))
        assert p.shape[0] == 429  # 1 + (220500 - 1024) // 512

    def test_bin_centered_sine_mainlobe_energy(self):
        # Hann mainlobe is 3 bins wide; sidelobe leakage is < 1%
        sr, n_fft = 22050, 1024
        bin_idx = 64
        freq = bin_idx * sr / n_fft
        t = np.arange(sr) / sr
        clip = AudioClip(np.sin(2 * np.pi * freq * t).astype(np.float32), sr)
        p = stft_power(clip, FeatureConfig(**SMALL))
        for frame in p:
            peak = np.argmax(frame)
            assert peak == bin_idx
            mainlobe = frame[peak - 1:peak + 2].sum()
            assert mainlobe / frame.sum() > 0.99

    def test_parseval_energy_match(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 0.3, 1024)
        clip = AudioClip(x.astype(np.float64), 22050)
        cfg = FeatureConfig(**SMALL)
        p = stft_power(clip, cfg)[0]
        hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(1024) / 1024)
        time_energy = np.sum((x * hann) ** 2)
        freq_energy = (p[0] + p[-1] + 2 * p[1:-1].sum()) / 1024
        assert freq_energy == pytest.approx(time_energy, rel=1e-6)

    def test_clip_shorter_than_nfft(self):
        clip = AudioClip(np.zeros(512, np.float32), 22050)
        with pytest.raises(TooShortError):
            stft_power(clip, FeatureConfig(**SMALL))


class TestLogMel:
    def test_silence_hits_floor(self):
        clip = AudioClip(np.zeros(4096, np.float32), 22050)
        fm = log_mel(clip, FeatureConfig(**SMALL))
        np.testing.assert_allclose(fm.data, -100.0)

    def test_gain_shifts_level_by_20db(self, sine_clip):
        # 64-bit samples so input quantization noise cannot pollute the
        # leakage floor; the shift is then exact up to the f32 feature cast
        cfg = FeatureConfig(**SMALL)
        x = sine_clip.samples.astype(np.float64)
        base = log_mel(AudioClip(x, sine_clip.sample_rate), cfg)
        loud = log_mel(AudioClip(x * 10.0, sine_clip.sample_rate), cfg)
        mask = base.data > -99.9  # stay above the floor clamp
        diff = loud.data[mask].astype(np.float64) - base.data[mask]
        np.testing.assert_allclose(diff, 20.0, atol=1e-4)

    def test_default_dims_512(self):
        clip = AudioClip(np.random.default_rng(0).normal(0, 0.1, 22050)
                         .astype(np.float32), 22050)
        fm = log_mel(clip, FeatureConfig())
        assert fm.dims == 512

    def test_frame_rate(self, sine_clip):
        fm = log_mel(sine_clip, FeatureConfig(**SMALL))
        assert fm.frame_rate == pytest.approx(22050 / 512)


class TestStackFrames:
    """The context-row oracle that the dense_ae inputs are checked against."""

    def test_p1_identity(self):
        fm = FeatureMatrix(np.arange(12, dtype=np.float32).reshape(4, 3), 43.0)
        out = stack_frames(fm, 1)
        np.testing.assert_array_equal(out.data, fm.data)

    def test_429_frames_p11_gives_419x5632(self):
        fm = FeatureMatrix(np.zeros((429, 512), np.float32), 43.0)
        out = stack_frames(fm, 11)
        assert out.data.shape == (419, 5632)

    def test_rows_are_consecutive_frames(self):
        data = np.arange(20, dtype=np.float32).reshape(5, 4)
        out = stack_frames(FeatureMatrix(data, 1.0), 3)
        assert out.data.shape == (3, 12)
        np.testing.assert_array_equal(out.data[1], data[1:4].ravel())

    def test_constant_input_constant_output(self):
        fm = FeatureMatrix(np.full((10, 4), 2.5, np.float32), 1.0)
        out = stack_frames(fm, 5)
        np.testing.assert_array_equal(out.data, np.full((6, 20), 2.5, np.float32))

    def test_too_few_frames(self):
        fm = FeatureMatrix(np.zeros((4, 2), np.float32), 1.0)
        with pytest.raises(TooShortError):
            stack_frames(fm, 5)


class TestStreamWindows:
    def _chunks(self, samples, chunk=1000):
        for i in range(0, len(samples), chunk):
            yield samples[i:i + chunk]

    def test_ten_seconds_window2_hop2(self):
        sr = 16000
        x = np.random.default_rng(1).normal(0, 0.1, 10 * sr).astype(np.float32)
        wins = list(stream_windows(self._chunks(x), sr, FeatureConfig(**SMALL),
                                   window_s=2.0, hop_s=2.0))
        assert len(wins) == 5

    def test_four_seconds_window2_hop1(self):
        sr = 16000
        x = np.zeros(4 * sr, np.float32)
        wins = list(stream_windows(self._chunks(x), sr, FeatureConfig(**SMALL),
                                   window_s=2.0, hop_s=1.0))
        assert len(wins) == 3

    def test_matches_offline_bit_for_bit(self):
        sr = 16000
        cfg = FeatureConfig(**SMALL)
        x = np.random.default_rng(2).normal(0, 0.2, 5 * sr).astype(np.float32)
        for w in stream_windows(self._chunks(x, 700), sr, cfg, 2.0, 1.0):
            start = int(round(w.start_s * sr))
            offline = log_mel(AudioClip(x[start:start + 2 * sr], sr), cfg)
            np.testing.assert_array_equal(w.features.data, offline.data)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 20000), sizes=st.lists(st.integers(1, 9000), min_size=1,
                                                   max_size=8),
           hop=st.integers(1000, 12000))
    @example(n=9000, sizes=[1], hop=3000)
    @example(n=20000, sizes=[9000], hop=3000)
    @example(n=20000, sizes=[9000], hop=11000)  # a hop longer than the window
    def test_any_chunking_matches_offline_bit_for_bit(self, n, sizes, hop):
        sr, win = 16000, 8000
        cfg = FeatureConfig(n_fft=512, hop=256, n_mels=16, context_frames=3)
        x = np.random.default_rng(n).normal(0, 0.2, n).astype(np.float32)

        def chunks():
            start, i = 0, 0
            while start < n:
                yield x[start:start + sizes[i % len(sizes)]]
                start += sizes[i % len(sizes)]
                i += 1

        wins = list(stream_windows(chunks(), sr, cfg, win / sr, hop / sr))
        assert len(wins) == ((n - win) // hop + 1 if n >= win else 0)
        for k, w in enumerate(wins):
            assert (w.start_s, w.end_s) == (k * hop / sr, (k * hop + win) / sr)
            offline = log_mel(AudioClip(x[k * hop:k * hop + win], sr), cfg)
            np.testing.assert_array_equal(w.features.data, offline.data)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 12000),
           sizes=st.lists(st.sampled_from([1, 1024, 4001, 9001]) | st.integers(1, 9001),
                          min_size=1, max_size=4),
           hop=st.integers(97, 9000), nan_at=st.none() | st.integers(0, 11999))
    @example(n=12000, sizes=[1], hop=1000, nan_at=None)
    @example(n=12000, sizes=[1024], hop=4500, nan_at=3000)  # a hop longer than the window
    @example(n=12000, sizes=[9001], hop=300, nan_at=5000)  # chunks longer than a window
    def test_rows_computed_ahead_match_offline_and_stay_put(self, n, sizes, hop, nan_at):
        # a 4000-sample window is no whole number of 256-sample frame hops,
        # and most hops are none either, so no window's frames line up with
        # the previous window's
        sr, win = 16000, 4000
        cfg = FeatureConfig(n_fft=512, hop=256, n_mels=16, context_frames=3)
        x = np.random.default_rng(n).normal(0, 0.2, n).astype(np.float32)
        if nan_at is not None and nan_at < n:
            x[nan_at] = np.nan

        def chunks():
            start, i = 0, 0
            while start < n:
                yield x[start:start + sizes[i % len(sizes)]]
                start += sizes[i % len(sizes)]
                i += 1

        # each window's features as yielded, before the generator runs on
        seen = [(w, w.features.data.copy()) for w in
                stream_windows(chunks(), sr, cfg, win / sr, hop / sr)]
        assert len(seen) == ((n - win) // hop + 1 if n >= win else 0)
        for k, (w, at_yield) in enumerate(seen):
            offline = log_mel(AudioClip(x[k * hop:k * hop + win], sr), cfg)
            assert w.features.data.tobytes() == at_yield.tobytes() == offline.data.tobytes()

    def test_window_far_longer_than_the_input_holds_only_the_rows_read(self):
        # a whole 10^4 s window of power rows would be 1.3 GB
        sr, cfg = 16000, FeatureConfig(**SMALL)
        x = np.random.default_rng(3).normal(0, 0.1, 3 * sr).astype(np.float32)
        tracemalloc.start()
        try:
            wins = list(stream_windows(self._chunks(x, 1024), sr, cfg, 1e4, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert wins == []
        assert peak < 8e6, f"{peak / 1e6:.1f} MB at peak"

    def test_window_smaller_than_nfft_rejected(self):
        with pytest.raises(ConfigError):
            list(stream_windows(iter([np.zeros(100, np.float32)]), 16000,
                                FeatureConfig(**SMALL), window_s=0.01, hop_s=1.0))


class TestFeatureCache:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        fm = FeatureMatrix(rng.normal(0, 30, (17, 9)).astype(np.float32), 31.25)
        path = tmp_path / "f.aadf"
        save_features(fm, path, FeatureConfig(**SMALL))
        back = load_features(path)
        np.testing.assert_array_equal(back.data, fm.data)
        assert back.frame_rate == fm.frame_rate

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.aadf"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError):
            load_features(path)

    def test_truncated_data(self, tmp_path):
        fm = FeatureMatrix(np.zeros((4, 4), np.float32), 1.0)
        path = tmp_path / "f.aadf"
        save_features(fm, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            load_features(path)

    @staticmethod
    def _with_header(tmp_path, header):
        blob = json.dumps(header).encode()
        path = tmp_path / "h.aadf"
        path.write_bytes(b"AADF" + struct.pack("<II", 1, len(blob)) + blob)
        return path

    @pytest.mark.parametrize("header", [
        {"dims": 0, "frame_rate": 1.0},
        {"frames": 0, "frame_rate": 1.0},
        {"frames": 0, "dims": 0},
        {"frames": "0", "dims": 0, "frame_rate": 1.0},
        {"frames": 0, "dims": 0.0, "frame_rate": 1.0},
        {"frames": -1, "dims": -1, "frame_rate": 1.0},
        {"frames": True, "dims": 0, "frame_rate": 1.0},
        {"frames": 0, "dims": 0, "frame_rate": None},
        [0, 0, 1.0],
        # each was returned as the frame rate
        *({"frames": 0, "dims": 0, "frame_rate": rate}
          for rate in (float("nan"), float("inf"), -float("inf"), 0, -5, 10 ** 400)),
    ])
    def test_missing_or_mistyped_header_field_is_format_error(self, tmp_path, header):
        with pytest.raises(FormatError):
            load_features(self._with_header(tmp_path, header))

    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(0, 10_000), flip_at=st.integers(0, 10_000),
           flip=st.integers(1, 255), truncate=st.booleans())
    def test_damaged_file_loads_or_raises_format_error(self, tmp_path_factory, cut,
                                                       flip_at, flip, truncate):
        fm = FeatureMatrix(np.arange(12, dtype=np.float32).reshape(3, 4), 31.25)
        path = tmp_path_factory.mktemp("aadf") / "f.aadf"
        save_features(fm, path, FeatureConfig(**SMALL))
        raw = bytearray(path.read_bytes())
        header_end = 12 + struct.unpack_from("<I", raw, 8)[0]
        if truncate:
            raw = raw[:cut % len(raw)]
        else:
            raw[flip_at % header_end] ^= flip
        path.write_bytes(bytes(raw))
        try:
            back = load_features(path)
        except FormatError:
            return
        assert back.data.shape == (back.frames, back.dims)


class TestFeatureConfigValidation:
    def test_hop_exceeds_nfft(self):
        with pytest.raises(ConfigError):
            FeatureConfig(n_fft=256, hop=512)

    @pytest.mark.parametrize("n_fft,hop", [(0, 512), (-5, 1), (-1, -1)])
    def test_n_fft_is_checked_before_hop(self, n_fft, hop):
        # n_fft 0 was reported as "hop must be in [1, n_fft], got 512"
        with pytest.raises(ConfigError, match=f"n_fft must be >= 1, got {n_fft}"):
            FeatureConfig(n_fft=n_fft, hop=hop)

    def test_even_context_frames(self):
        with pytest.raises(ConfigError):
            FeatureConfig(context_frames=4)



class TestFrameCountsFromHeaders:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 3000), channels=st.integers(1, 2),
           encoding=st.sampled_from(["pcm16", "float32", "extensible"]),
           odd_chunk=st.booleans(), cut=st.integers(0, 7),
           rates=st.sampled_from([(16000, None), (16000, 16000), (16000, 8000),
                                  (22050, 16000), (11025, 16000), (8000, 44100)]))
    def test_header_count_is_the_log_mel_frame_count(self, n, channels, encoding, odd_chunk,
                                                     cut, rates):
        """Header-only frame counts equal what extraction makes of the same file:
        PCM16, float32 and WAVE_FORMAT_EXTENSIBLE; odd chunks before the data;
        a data chunk cut short of its declared size; with and without resampling."""
        rate, target = rates
        cfg = FeatureConfig(n_fft=256, hop=64, n_mels=8)
        rng = np.random.default_rng(n)
        if encoding == "pcm16":
            data = rng.integers(-32768, 32768, (n, channels)).astype("<i2")
            fmt = fmt_body(1, channels, rate, 16)
        else:
            data = rng.uniform(-1, 1, (n, channels)).astype("<f4")
            fmt = (fmt_body(3, channels, rate, 32, b"\x00\x00") if encoding == "float32"
                   else fmt_body(0xFFFE, channels, rate, 32,
                                 struct.pack("<HHII", 22, 32, 0, 3) + GUID_TAIL))
        extra = [(b"LIST", b"odd")] if odd_chunk else []
        blob = riff((b"fmt ", fmt), *extra, (b"data", data.tobytes()))
        blob = blob[:len(blob) - cut]  # cut bytes leave the declared size longer than the data
        with tempfile.TemporaryDirectory() as root:
            Path(root, "a.wav").write_bytes(blob)
            index = DatasetIndex(root, [DatasetEntry("synthetic", 0, NORMAL, "a.wav")])
            counted = outcome(lambda: dataset_frame_counts(index, cfg, target_rate=target)[0])
            made = outcome(lambda: [c.features.frames
                                    for c in dataset_features(index, cfg, target_rate=target)])
        assert counted == made


def outcome(fn):
    """What fn returns, or the type and message of the AadError it raises."""
    try:
        return fn()
    except (FormatError, TooShortError) as exc:
        return type(exc), str(exc)
