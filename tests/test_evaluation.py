import json
import math
from fractions import Fraction

import numpy as np
import pytest

from aad.audio_io import (ANOMALY, NORMAL, DatasetEntry, DatasetIndex, SynthConfig,
                          synth_generate)
from aad.errors import ConfigError, ContractError, DegenerateEvalError
from aad.evaluation import (
    EvalReport,
    IdResult,
    MachineResult,
    emit_report,
    evaluate_dataset,
    markdown_table,
    pauc,
    report_to_dict,
    report_to_json,
    roc_auc,
)
from aad.features import FeatureConfig, dataset_features
from aad.models import build, default_spec
from aad.scoring import ScoreRecord, score_dataset


def records_from(normals, anomalies):
    recs = [ScoreRecord(f"n{i}.wav", float(s), NORMAL, "fan", 0)
            for i, s in enumerate(normals)]
    recs += [ScoreRecord(f"a{i}.wav", float(s), ANOMALY, "fan", 0)
             for i, s in enumerate(anomalies)]
    return recs


def labeled(index, label):
    return [e for e in index.entries if e.label == label]


def brute_force_pauc(normals, anomalies, p):
    """Independent pairwise oracle: hardest floor(p*N-) negatives, H(0)=0.5."""
    def h(x):
        return 1.0 if x > 0 else (0.5 if x == 0 else 0.0)

    m = int(Fraction(str(p)) * len(normals))  # exact floor of the product
    neg = sorted(normals, reverse=True)[:m]
    total = sum(h(a - n) for n in neg for a in anomalies)
    return total / (m * len(anomalies))


def brute_force_auc(normals, anomalies):
    return brute_force_pauc(normals, anomalies, 1)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc(records_from([0.1, 0.2], [0.8, 0.9])) == 1.0

    def test_all_scores_equal(self):
        assert roc_auc(records_from([1.0, 1.0], [1.0, 1.0, 1.0])) == 0.5

    def test_interleaved_hand_case(self):
        assert roc_auc(records_from([1, 3], [2, 4])) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateEvalError):
            roc_auc(records_from([1.0, 2.0], []))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ContractError, match="not finite"):
            roc_auc(records_from([1.0, bad], [2.0, 3.0]))
        with pytest.raises(ContractError, match="not finite"):
            roc_auc(records_from([1.0, 2.0], [bad, 3.0]))

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_pos = int(rng.integers(1, 51))
            n_neg = int(rng.integers(1, 51))
            pos = rng.integers(0, 8, n_pos).astype(float)
            neg = rng.integers(0, 8, n_neg).astype(float)
            got = roc_auc(records_from(neg, pos))
            want = brute_force_auc(list(neg), list(pos))
            assert abs(got - want) < 1e-12

    def test_equals_the_pair_matrix_mean_bit_for_bit(self):
        # the rank counts give the same float as the mean of the P x N matrix
        # of H values, so reports do not change by a bit
        rng = np.random.default_rng(7)
        for _ in range(200):
            pos = rng.integers(0, 4, int(rng.integers(1, 300))) * 0.1
            neg = rng.integers(0, 4, int(rng.integers(1, 300))) * 0.1
            h = (pos[None, :] > neg[:, None]) + 0.5 * (pos[None, :] == neg[:, None])
            assert roc_auc(records_from(neg, pos)) == float(h.mean())

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        neg = rng.normal(size=30)
        pos = rng.normal(size=20) + 0.5
        base = roc_auc(records_from(neg, pos))
        warped = roc_auc(records_from(np.exp(neg), np.exp(pos)))
        assert base == pytest.approx(warped, abs=1e-12)


class TestPauc:
    def test_perfect_separation_smallest_slice(self):
        normals = list(np.linspace(0.0, 0.5, 20))
        anomalies = [0.9, 0.95]
        assert pauc(records_from(normals, anomalies), p=0.05) == 1.0

    def test_anomalies_below_all_normals(self):
        assert pauc(records_from([5, 6, 7, 8], [1, 2]), p=0.5) == 0.0

    def test_hand_case_with_tie(self):
        # normals 1..10, anomalies {7, 11}, p=0.5: hardest 5 = {10,9,8,7,6};
        # brute-force double sum with H(0)=0.5 gives 6.5/10
        normals = list(range(1, 11))
        anomalies = [7, 11]
        want = brute_force_pauc(normals, anomalies, 0.5)
        assert want == 0.65
        assert pauc(records_from(normals, anomalies), p=0.5) == pytest.approx(want, abs=1e-12)

    def test_p_too_small(self):
        with pytest.raises(ContractError):
            pauc(records_from([1, 2, 3], [4]), p=0.05)  # floor(0.15) = 0

    @pytest.mark.parametrize("bad", [float("nan"), -float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ContractError, match="not finite"):
            pauc(records_from([1.0, 2.0, bad], [4.0]), p=1.0)
        with pytest.raises(ContractError, match="not finite"):
            pauc(records_from([1.0, 2.0, 3.0], [bad]), p=1.0)

    def test_p_one_equals_roc_auc_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pos = rng.integers(0, 5, int(rng.integers(1, 40))).astype(float)
            neg = rng.integers(0, 5, int(rng.integers(1, 40))).astype(float)
            recs = records_from(neg, pos)
            assert pauc(recs, p=1.0) == roc_auc(recs)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n_pos = int(rng.integers(1, 51))
            n_neg = int(rng.integers(4, 51))
            pos = rng.integers(0, 8, n_pos).astype(float)
            neg = rng.integers(0, 8, n_neg).astype(float)
            p = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            got = pauc(records_from(neg, pos), p=p)
            want = brute_force_pauc(list(neg), list(pos), p)
            assert abs(got - want) < 1e-12

    def test_bounded_between_zero_and_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pos = rng.normal(size=10)
            neg = rng.normal(size=20)
            value = pauc(records_from(neg, pos), p=0.25)
            assert 0.0 <= value <= 1.0


@pytest.fixture(scope="module")
def synth_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthds")
    return synth_generate(root, SynthConfig(n_normal=60, n_anomaly=40,
                                            duration_s=0.2, seed=12))


FEATURES = FeatureConfig(n_fft=1024, hop=512, n_mels=16, context_frames=1)


class TestEvaluateDataset:

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.01, math.nan])
    def test_p_outside_unit_interval_rejected(self, p):
        # checked before a clip is read: this index names no file that exists
        missing = DatasetIndex(root="/nonexistent", entries=[
            DatasetEntry(machine_type="fan", machine_id=0, label=NORMAL, path="x.wav")])
        with pytest.raises(ConfigError, match="p must be in"):
            evaluate_dataset(None, missing, FeatureConfig(), p=p)

    def test_report_structure_and_averages(self, synth_index):
        model = build(default_spec("dense_ae", n_mels=16, context_frames=1,
                                   hidden=(8,), bottleneck=2))
        report = evaluate_dataset(model, synth_index, FEATURES, p=0.25)
        assert report.model == "dense_ae"
        assert report.p == 0.25
        machine = report.machines[0]
        assert machine.machine_type == "synthetic"
        valid = [i for i in machine.ids if i.auc is not None]
        assert machine.avg_auc == pytest.approx(np.mean([i.auc for i in valid]))
        assert machine.avg_pauc == pytest.approx(np.mean([i.pauc for i in valid]))

    def test_permutation_null_auc_near_half(self, synth_index):
        # scores from an untrained model, labels randomly permuted: the
        # null distribution of the AUC concentrates at 0.5
        model = build(default_spec("dense_ae", n_mels=16, context_frames=1,
                                   hidden=(8,), bottleneck=2))
        clips = dataset_features(synth_index, FEATURES)
        records = score_dataset(model, clips)
        rng = np.random.default_rng(99)
        labels = [r.label for r in records]
        for r, lab in zip(records, rng.permutation(labels)):
            r.label = str(lab)
        value = roc_auc(records)
        assert 0.4 <= value <= 0.6

    def test_pauc_degrades_independently_of_auc(self, synth_index):
        # 6 normals at p=0.05 select no hardest negatives: pauc becomes
        # None while auc still computes
        entries = (labeled(synth_index, NORMAL)[:6] + labeled(synth_index, ANOMALY)[:8])
        index = DatasetIndex(root=synth_index.root, entries=entries)
        model = build(default_spec("dense_ae", n_mels=16, context_frames=1,
                                   hidden=(8,), bottleneck=2))
        report = evaluate_dataset(model, index, FEATURES, p=0.05)
        row = report.machines[0].ids[0]
        assert row.auc is not None
        assert row.pauc is None
        assert report.machines[0].avg_auc is not None
        assert report.machines[0].avg_pauc is None

    def test_degenerate_id_reported_not_fatal(self, synth_index):
        entries = [e for e in synth_index.entries]
        # forge a second machine id holding only normal clips
        extra = [type(e)(machine_type=e.machine_type, machine_id=1,
                         label=e.label, path=e.path)
                 for e in labeled(synth_index, NORMAL)[:5]]
        index = DatasetIndex(root=synth_index.root, entries=entries + extra)
        model = build(default_spec("dense_ae", n_mels=16, context_frames=1,
                                   hidden=(8,), bottleneck=2))
        report = evaluate_dataset(model, index, FEATURES, p=0.25)
        by_id = {i.machine_id: i for i in report.machines[0].ids}
        assert by_id[1].auc is None
        assert by_id[0].auc is not None


class TestEmitReport:
    def _report(self, model="dense_ae", bump=0.0):
        return EvalReport(model=model, p=0.05, machines=[
            MachineResult(machine_type="fan",
                          ids=[IdResult(0, 60.0 + bump, 52.0 + bump),
                               IdResult(2, 70.0 + bump, 55.0 - bump)],
                          avg_auc=65.0 + bump, avg_pauc=53.5),
        ])

    def test_json_roundtrip_byte_stable(self, tmp_path):
        report = self._report()
        assert json.loads(report_to_json(report)) == report_to_dict(report)

    def test_csv_row_count(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report(self._report(), "csv", path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 + 1  # header + two ids + avg row

    def test_markdown_bolds_row_maxima_when_merged(self, tmp_path):
        a = self._report("dense_ae", bump=0.0)
        b = self._report("tcn_cvae", bump=5.0)
        text = markdown_table([a, b])
        lines = text.splitlines()
        row0 = next(l for l in lines if l.startswith("| fan | 0 "))
        assert "**65.00**" in row0  # tcn auc 65 beats dense 60
        assert "**57.00**" in row0  # tcn pauc 57 beats dense 52
        assert "**60.00**" not in row0

    def test_markdown_single_report_has_no_bold(self):
        text = markdown_table([self._report()])
        assert "**" not in text

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ContractError):
            emit_report(self._report(), "xml", tmp_path / "r.xml")
