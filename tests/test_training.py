import math

import numpy as np
import pytest

from aad.audio_io import ANOMALY, NORMAL
from aad.errors import ContractError, DivergenceError, SemiSupervisionError
from aad.features import ClipFeatures, FeatureMatrix
from aad.models import build, default_spec
from aad.training import (
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    train,
    write_trainlog_csv,
)


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

    def test_vae_loss_on_plain_model_rejected(self):
        clips = synthetic_clip_features(2)
        with pytest.raises(ContractError):
            train(build(small_dense_spec()), clips,
                  TrainConfig(epochs=1, loss="vae"))


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
        model, _ = train(build(small_dense_spec()), clips, cfg,
                         checkpoint_dir=tmp_path)
        assert (tmp_path / "best.aadm").exists()
        assert (tmp_path / "last.aadm").exists()
        back = checkpoint_load(tmp_path / "last.aadm")
        for p1, p2 in zip(model.params, back.params):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_checkpoint_reexports(self, tmp_path):
        model = build(small_dense_spec())
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
