import math
import tracemalloc

import numpy as np
import pytest

from aad.audio_io import ANOMALY, NORMAL, SynthConfig, synth_generate
from aad.errors import ConfigError, ContractError, DivergenceError, SemiSupervisionError
from aad.features import (ClipFeatures, FeatureConfig, FeatureMatrix, dataset_features,
                          dataset_frame_counts, log_mel)
from aad.models import _STATS_ROWS, build, default_spec, vae_loss
from aad.tensor import Tensor, adam_step, backward, init_adam, zero_grads
from aad.training import (
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    train,
    write_trainlog_csv,
)
from conftest import stack_frames, with_contract


def synthetic_clip_features(n_clips, frames=14, dims=16, label=NORMAL, seed=0):
    """Rank-limited random features: reconstructable structure plus noise."""
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(3, dims))
    clips = []
    for i in range(n_clips):
        coeff = rng.normal(size=(frames, 3))
        data = coeff @ basis + 0.05 * rng.normal(size=(frames, dims))
        fm = FeatureMatrix(data.astype(np.float32), 31.25)
        clips.append(ClipFeatures(features=fm, label=label, machine_type="synthetic",
                                  machine_id=0, path=f"clip_{i:03d}.wav"))
    return clips


def small_dense_spec(dims=16, seed=0):
    return default_spec("dense_ae", n_mels=dims, context_frames=1,
                        hidden=(16,), bottleneck=4, seed=seed)


class TestTrainGuards:
    def test_anomaly_in_training_set_rejected(self):
        clips = synthetic_clip_features(3)
        clips[1] = ClipFeatures(features=clips[1].features, label=ANOMALY,
                                machine_type="synthetic", machine_id=0,
                                path=clips[1].path)
        with pytest.raises(SemiSupervisionError):
            train(build(small_dense_spec()), clips, TrainConfig(epochs=1))

    def test_unlabeled_clip_rejected(self):
        clips = synthetic_clip_features(2, label="unlabeled")
        with pytest.raises(SemiSupervisionError):
            train(build(small_dense_spec()), clips, TrainConfig(epochs=1))

    def test_empty_training_set(self):
        with pytest.raises(ContractError):
            train(build(small_dense_spec()), [], TrainConfig(epochs=1))

    @pytest.mark.parametrize("lr", [-1.0, 0.0, math.nan, math.inf])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ConfigError, match="lr"):
            TrainConfig(lr=lr)


class TestTrainBehavior:
    def test_zero_epochs_leaves_parameters(self):
        clips = synthetic_clip_features(4)
        model = build(small_dense_spec())
        before = [p.data.copy() for p in model.params]
        _, log = train(model, clips, TrainConfig(epochs=0))
        assert log.epochs == []
        for b, p in zip(before, model.params):
            np.testing.assert_array_equal(b, p.data)

    def test_same_seed_identical_log_and_parameters(self):
        clips = synthetic_clip_features(6)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=42)
        m1, log1 = train(build(small_dense_spec(seed=1)), clips, cfg)
        m2, log2 = train(build(small_dense_spec(seed=1)), clips, cfg)
        assert log1.train_losses() == log2.train_losses()
        assert [e.val_loss for e in log1.epochs] == [e.val_loss for e in log2.epochs]
        for p1, p2 in zip(m1.params, m2.params):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_loss_decreases_on_structured_data(self):
        clips = synthetic_clip_features(12, seed=5)
        cfg = TrainConfig(epochs=15, batch_size=32, seed=0, validation_split=0.2)
        _, log = train(build(small_dense_spec(seed=3)), clips, cfg)
        losses = log.train_losses()
        assert losses[-1] < 0.5 * losses[0]
        assert not math.isnan(log.epochs[-1].val_loss)

    def test_rolling_median_loss_non_increasing(self):
        clips = synthetic_clip_features(12, seed=6)
        cfg = TrainConfig(epochs=25, batch_size=32, seed=0)
        _, log = train(build(small_dense_spec(seed=3)), clips, cfg)
        losses = log.train_losses()
        medians = [float(np.median(losses[i:i + 10]))
                   for i in range(len(losses) - 9)]
        for a, b in zip(medians[:-1], medians[1:]):
            assert b <= a * (1 + 1e-6)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch_and_batch(self):
        clips = synthetic_clip_features(4)
        cfg = TrainConfig(epochs=5, batch_size=8, lr=1e18)
        with pytest.raises(DivergenceError):
            train(build(small_dense_spec()), clips, cfg)

    def test_variational_model_trains(self):
        clips = synthetic_clip_features(6, frames=20, dims=8, seed=7)
        spec = default_spec("tcn_cvae", n_mels=8, tcn_layers=2, tcn_channels=8,
                            latent_dim=4, window_frames=16, window_hop=16)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=0)
        _, log = train(build(spec), clips, cfg)
        assert len(log.epochs) == 3
        assert all(math.isfinite(l) for l in log.train_losses())


class TestCheckpointing:
    def test_best_and_last_written(self, tmp_path):
        clips = synthetic_clip_features(6)
        cfg = TrainConfig(epochs=2, batch_size=16, validation_split=0.2)
        model, _ = train(with_contract(build(small_dense_spec())), clips, cfg,
                         checkpoint_dir=tmp_path)
        assert (tmp_path / "best.aadm").exists()
        assert (tmp_path / "last.aadm").exists()
        back = checkpoint_load(tmp_path / "last.aadm")
        for p1, p2 in zip(model.params, back.params):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_checkpoint_reexports(self, tmp_path):
        model = with_contract(build(small_dense_spec()))
        checkpoint_save(model, tmp_path / "m.aadm")
        assert checkpoint_load(tmp_path / "m.aadm").spec == model.spec


class TestTrainLogCsv:
    def test_csv_columns_and_rows(self, tmp_path):
        clips = synthetic_clip_features(4)
        _, log = train(build(small_dense_spec()), clips,
                       TrainConfig(epochs=3, validation_split=0.0))
        path = tmp_path / "log.csv"
        write_trainlog_csv(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,seconds"
        assert len(lines) == 4


def direct_inputs(model, fm):
    """A clip's model inputs the direct way: stacked context rows, or window slices
    every window_hop frames plus one ending at the last frame."""
    spec = model.spec
    if spec.kind == "dense_ae":
        return stack_frames(fm, spec.context_frames).data
    t, hop = spec.window_frames, spec.window_hop
    starts = list(range(0, fm.frames - t + 1, hop))
    if starts[-1] != fm.frames - t:
        starts.append(fm.frames - t)
    return np.stack([fm.data[s:s + t].T for s in starts])


class TestFrameMatrix:
    @pytest.mark.parametrize("kind", ["dense_ae", "cvae", "tcn_cvae"])
    def test_gathered_inputs_and_stats_match_the_direct_inputs(self, kind):
        clips = synthetic_clip_features(4, frames=37, dims=8, seed=2)
        model = build(default_spec(kind, n_mels=8, context_frames=3, hidden=(16,),
                                   window_frames=16, window_hop=8, conv_channels=(8, 16),
                                   tcn_layers=2, tcn_channels=8, latent_dim=4))
        inputs = np.concatenate([direct_inputs(model, c.features) for c in clips])
        for c in clips:
            np.testing.assert_array_equal(model.inputs_from_features(c.features),
                                          direct_inputs(model, c.features))
        frames = np.concatenate([c.features.data for c in clips])
        offsets = np.cumsum([0] + [c.features.frames for c in clips])
        starts = np.concatenate([o + model.input_starts(c.features.frames)
                                 for o, c in zip(offsets, clips)])
        np.testing.assert_array_equal(model.input_view(frames)[starts], inputs)
        model.fit_normalization(frames, starts)
        axes = (0,) if inputs.ndim == 2 else (0, 2)
        exact = inputs.astype(np.float64)
        np.testing.assert_allclose(model.feature_mean, exact.mean(axis=axes), rtol=1e-6)
        np.testing.assert_allclose(model.feature_std, exact.std(axis=axes), rtol=1e-6)


class TestMemory:
    def test_normalization_fit_holds_one_float64_chunk(self):
        """``fit_normalization`` over 512-mel frames peaks at one float64 chunk of
        them plus small slack: it squares each chunk in place and drops it before
        reading the next. Holding two chunks and a squared copy peaked at twice that."""
        n_mels = FeatureConfig().n_mels
        model = build(default_spec("dense_ae", n_mels=n_mels, context_frames=1,
                                   hidden=(8,), bottleneck=2))
        frames = np.random.default_rng(0).normal(size=(3456, n_mels)).astype(np.float32)
        starts = model.input_starts(len(frames))
        chunk = _STATS_ROWS * n_mels * 8
        tracemalloc.start()
        try:
            model.fit_normalization(frames, starts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= chunk + chunk // 8

    def test_peak_allocation_is_frames_batch_and_optimizer_state(self):
        """At the default features (512 mels, P=11), ``train`` allocates at most
        twice the sum of the frames, one batch and four copies of the parameters
        (values, grads, Adam m and v): never a copy of all 11-frame context rows."""
        cfg = FeatureConfig()
        spec = default_spec("dense_ae", n_mels=cfg.n_mels, context_frames=cfg.context_frames)
        clips = synthetic_clip_features(16, frames=156, dims=cfg.n_mels)  # 5 s at 16 kHz
        model = build(spec)
        tc = TrainConfig(epochs=1, batch_size=64)
        frame_bytes = sum(c.features.data.nbytes for c in clips)
        batch_bytes = tc.batch_size * spec.n_mels * spec.context_frames * 4
        param_bytes = model.param_count() * 4
        tracemalloc.start()
        try:
            train(model, clips, tc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (frame_bytes + batch_bytes + 4 * param_bytes)

    def test_frames_are_written_once_as_each_clip_arrives(self, tmp_path):
        """Given the frame counts up front, ``train`` holds its frame matrix and one
        clip's extraction at a time: with no epochs it peaks under the frame bytes
        plus two clips' log-mel peaks (filterbank included). Listing the clips
        first, then copying them, would hold the frames twice."""
        index = synth_generate(tmp_path, SynthConfig(n_normal=128, n_anomaly=0,
                                                     duration_s=1.0, seed=2))
        cfg = FeatureConfig()  # 512 mels
        model = build(default_spec("dense_ae", n_mels=cfg.n_mels, context_frames=1,
                                   hidden=(8,), bottleneck=2))
        counts, _ = dataset_frame_counts(index, cfg)
        frame_bytes = sum(counts) * cfg.n_mels * 4
        clip = index.read(index.entries[0])
        log_mel(clip, cfg)  # FFT plans exist from here on
        tracemalloc.start()
        try:
            log_mel(clip, cfg)
            clip_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            train(model, dataset_features(index, cfg), TrainConfig(epochs=0),
                  frame_counts=counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < frame_bytes + 2 * clip_peak
        assert 2 * clip_peak < frame_bytes

    def test_tcn_training_step_keeps_one_array_per_activated_layer(self):
        """One ``tcn_cvae`` step at batch 64, 64 mels and T=32 peaks below 16
        activation arrays of (64, 64, 32) float32: a layer followed by a ReLU
        keeps only its activated output on the tape, and the VAE objective
        keeps no array of its own beyond the noise. Keeping the
        pre-activations peaks at about 29 such arrays, and the objective
        composed of elementwise ops at about 17.7; now about 14.7."""
        spec = default_spec("tcn_cvae", n_mels=64, window_frames=32, seed=1)
        model = build(spec)
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((64, 64, 32)).astype(np.float32)
        state = init_adam(model.params)

        def step():
            x = Tensor(batch)
            out = model.forward(x, rng=rng)
            loss = vae_loss(x, out.recon, out.latent).total
            del out
            backward(loss)
            del loss
            adam_step(model.params, state)
            zero_grads(model.params)

        step()  # Adam moments exist from here on
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16 * batch.nbytes
