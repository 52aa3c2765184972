import tracemalloc

import numpy as np
import pytest

from aad.audio_io import ANOMALY, NORMAL, DatasetIndex, SynthConfig, synth_generate
from aad.errors import ContractError, ShapeError
from aad.features import FeatureConfig, dataset_features
from aad.models import build, default_spec
from aad.scoring import (
    ScoreRecord,
    anomaly_score,
    decide,
    score_dataset,
    select_threshold,
    write_scores_csv,
)


class TestAnomalyScore:
    def test_identical_inputs_score_zero(self):
        x = np.random.default_rng(0).normal(size=(7, 5))
        assert anomaly_score(x, x) == 0.0

    def test_single_frame_hand_case(self):
        assert anomaly_score(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]])) == 5.0

    def test_two_frame_average(self):
        xa = np.array([[1.0, 1.0], [2.0, 0.0]])
        xr = np.zeros((2, 2))
        assert anomaly_score(xa, xr) == 3.0  # frame errors 2 and 4, averaged

    @pytest.mark.parametrize("shape", [(2,), (2, 3, 4), ()])
    def test_rows_that_are_not_two_dimensional_are_shape_error(self, shape):
        # (2, 3, 4) ones against zeros scored 3.0
        with pytest.raises(ShapeError, match="not one \\(frames, dims\\) shape"):
            anomaly_score(np.ones(shape), np.zeros(shape))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            anomaly_score(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_nonnegative_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(4, 3))
            assert anomaly_score(a, b) >= 0.0


class TestSelectThreshold:
    def test_rank_quantile_1_to_10(self):
        scores = list(range(1, 11))
        tau = select_threshold(scores, max_fpr=0.10)
        assert tau == 9.0
        assert sum(s > tau for s in scores) / 10 == 0.10

    def test_all_equal_scores(self):
        tau = select_threshold([3.3] * 8, max_fpr=0.10)
        assert tau == 3.3
        assert sum(s > tau for s in [3.3] * 8) == 0

    def test_half_fpr_on_four(self):
        tau = select_threshold([1.0, 2.0, 3.0, 4.0], max_fpr=0.5)
        assert tau == 2.0

    def test_empty_scores_rejected(self):
        with pytest.raises(ContractError):
            select_threshold([], 0.1)

    @pytest.mark.parametrize("max_fpr", [0.0, 1.0, 1.5, -0.1])
    def test_max_fpr_outside_open_unit_interval_rejected(self, max_fpr):
        with pytest.raises(ContractError, match="max_fpr"):
            select_threshold([1.0, 2.0], max_fpr)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_rejected(self, bad):
        # NaN sorts last, so it would land on the selected rank and become tau
        with pytest.raises(ContractError, match="1 of 4 normal scores"):
            select_threshold([1.0, bad, 2.0, 3.0], 0.1)

    def test_fpr_guarantee_random_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(5, 400))
            p = float(rng.uniform(0.01, 0.5))
            scores = rng.normal(size=n)
            tau = select_threshold(scores, p)
            assert np.mean(scores > tau) <= p + 1e-12


class TestDecide:
    def test_tie_is_normal(self):
        assert decide(5.0, 5.0) == NORMAL

    def test_above_threshold_is_anomaly(self):
        assert decide(5.0 + 1e-12, 5.0) == ANOMALY

    @pytest.mark.parametrize("score", [float("nan"), float("inf")])
    def test_non_finite_score_is_anomaly(self, score):
        assert decide(score, 5.0) == ANOMALY

    def test_composition_with_threshold(self):
        tau = select_threshold(list(range(1, 11)), 0.10)
        assert decide(9.5, tau) == ANOMALY

    def test_monotone_recalibration_invariance(self):
        rng = np.random.default_rng(3)
        for transform in (np.exp, lambda s: s ** 3, lambda s: 2 * s + 7):
            normals = rng.normal(size=50)
            queries = rng.normal(size=20)
            tau = select_threshold(normals, 0.1)
            tau_t = select_threshold(transform(normals), 0.1)
            for q in queries:
                assert decide(q, tau) == decide(float(transform(q)), tau_t)


class TestScoreCsv:
    def test_columns_and_decisions(self, tmp_path):
        records = [
            ScoreRecord("a.wav", 1.0, NORMAL, "fan", 0),
            ScoreRecord("b.wav", 9.0, ANOMALY, "fan", 0),
        ]
        path = tmp_path / "scores.csv"
        write_scores_csv(records, path, tau=5.0)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "clip_path,machine_type,machine_id,label,score,decision"
        assert lines[1].endswith("normal")
        assert lines[2].endswith("anomaly")


class TestScoreDatasetMemory:
    def test_peak_does_not_grow_with_the_clip_count(self, tmp_path):
        """Scoring 32 clips peaks less than two clips' features above scoring 4:
        each clip's features are dropped once it is scored."""
        index = synth_generate(tmp_path, SynthConfig(n_normal=32, n_anomaly=0,
                                                     duration_s=4.0, seed=1))
        cfg = FeatureConfig(n_mels=64, context_frames=1)
        model = build(default_spec("dense_ae", n_mels=64, context_frames=1, hidden=(16,),
                                   bottleneck=4))

        def peak(n):
            tracemalloc.start()
            try:
                clips = dataset_features(DatasetIndex(index.root, index.entries[:n]), cfg)
                assert len(score_dataset(model, clips)) == n
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # FFT plans and the filterbank exist from here on
        clip_bytes = 124 * 64 * 4  # 4 s at hop 512: 124 frames of 64 float32 mels
        assert peak(32) - peak(4) < 2 * clip_bytes
