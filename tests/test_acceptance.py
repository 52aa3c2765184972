"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The synthetic end-to-end fixture (200 normal + 50 anomaly clips,
TCN variational model) is shared by criteria 7, 8, 9, and 10.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from aad.audio_io import ANOMALY, NORMAL, AudioClip, SynthConfig, split_index, synth_generate
from aad.cli import main as cli_main
from aad.evaluation import markdown_table, pauc, roc_auc, evaluate_dataset
from aad.features import FeatureConfig, dataset_features, log_mel, stream_windows
from aad.models import (
    LatentDistribution,
    build,
    checkpoint_save,
    default_spec,
    empirical_receptive_field,
    receptive_field,
    reparameterize,
    vae_loss,
)
from aad.scoring import ScoreRecord, score_dataset, select_threshold
from aad.tensor import Tensor, backward, conv1d_causal, dense, zero_grads
from aad.training import TrainConfig, train
from aad.tsne import EmbedConfig, conditional_affinities, tsne_embed
from conftest import finite_diff_grad, silhouette

SMALL_FEATURES = FeatureConfig(n_fft=1024, hop=512, n_mels=64, context_frames=5)


def report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {num:>2}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """Synthetic end-to-end run: synth, features, train TCN model, score."""
    root = tmp_path_factory.mktemp("e2e_data")
    t0 = time.perf_counter()
    index = synth_generate(root, SynthConfig(n_normal=200, n_anomaly=50,
                                             duration_s=2.0, sample_rate=16000,
                                             seed=7))
    train_index, test_index = split_index(index, test_normal_fraction=0.15, seed=7)
    train_clips = list(dataset_features(train_index, SMALL_FEATURES))
    test_clips = list(dataset_features(test_index, SMALL_FEATURES))
    model = build(default_spec("tcn_cvae", n_mels=64, seed=7))
    model, log = train(model, train_clips,
                       TrainConfig(epochs=20, batch_size=64, seed=7,
                                   validation_split=0.1))
    records = score_dataset(model, test_clips)
    elapsed = time.perf_counter() - t0
    return {
        "index": index, "test_index": test_index,
        "train_clips": train_clips, "test_clips": test_clips,
        "model": model, "log": log, "records": records, "elapsed": elapsed,
    }


def test_criterion_1_gradient_oracle():
    """Every autodiff op matches central finite differences (64-bit mode)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0

    def check(build_loss, arrays):
        nonlocal checked
        params = [Tensor(a, requires_grad=True) for a in arrays]
        loss = build_loss(params)
        backward(loss)
        analytic = [p.grad for p in params]
        oracle = finite_diff_grad(lambda: float(build_loss(
            [Tensor(a) for a in arrays]).data), arrays)
        for a, o in zip(analytic, oracle):
            np.testing.assert_allclose(a, o, rtol=1e-5, atol=1e-7)
        checked += 1

    for _ in range(20):  # dense
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        check(lambda ps: (lambda y: (y * y).sum())(dense(*ps).tanh()), [x, w, b])

    for dilation in (1, 2, 4):  # causal convolution
        for _ in range(20):
            x = rng.normal(size=(2, 3, 9))
            w = rng.normal(size=(2, 3, 3))
            b = rng.normal(size=2)
            check(lambda ps, d=dilation: (lambda y: (y * y).sum())(
                conv1d_causal(ps[0], ps[1], dilation=d, bias=ps[2]).sigmoid()),
                [x, w, b])

    for act in ("relu", "sigmoid", "tanh"):  # activations
        for _ in range(20):
            x = rng.normal(size=(4, 5))
            x = np.where(np.abs(x) < 0.05, x + 0.2, x)  # stay off the relu kink
            check(lambda ps, a=act: (lambda y: (y * y).sum())(
                getattr(ps[0], a)()), [x])

    for _ in range(20):  # vae_loss
        x = rng.normal(size=(2, 6))
        xh = rng.normal(size=(2, 6))
        mu = rng.normal(size=(2, 3))
        lv = rng.normal(size=(2, 3))
        check(lambda ps: vae_loss(ps[0], ps[1],
                                  LatentDistribution(ps[2], ps[3])).total,
              [x, xh, mu, lv])

    for _ in range(20):  # reparameterize
        mu = rng.normal(size=5)
        lv = rng.normal(size=5)
        noise = rng.standard_normal(5)
        check(lambda ps, n=noise: (lambda z: (z * z).sum())(
            reparameterize(LatentDistribution(ps[0], ps[1]), n)), [mu, lv])

    def off_the_kink(draw, pre):
        # redraw until no pre-activation is within 0.05 of the relu kink
        while True:
            arrays = draw()
            if np.abs(pre(*arrays)).min() > 0.05:
                return arrays

    for _ in range(20):  # dense with fused relu
        arrays = off_the_kink(
            lambda: [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)],
            lambda x, w, b: x @ w + b)
        check(lambda ps: (lambda y: (y * y).sum())(dense(*ps, relu=True)), arrays)

    for dilation, causal in ((1, True), (2, True), (4, True), (2, False)):  # conv + relu
        for _ in range(20):
            arrays = off_the_kink(
                lambda: [rng.normal(size=(2, 3, 9)), rng.normal(size=(2, 3, 3)),
                         rng.normal(size=2)],
                lambda x, w, b, d=dilation, c=causal: conv1d_causal(
                    Tensor(x), Tensor(w), dilation=d, bias=Tensor(b), causal=c).data)
            check(lambda ps, d=dilation, c=causal: (lambda y: (y * y).sum())(
                conv1d_causal(ps[0], ps[1], dilation=d, bias=ps[2], causal=c, relu=True)),
                arrays)

    elapsed = time.perf_counter() - t0
    report_line(1, "gradient oracle", elapsed < 60.0,
                f"{checked} instances, all within 1e-5 rel, {elapsed:.1f}s")


def test_criterion_2_causality_and_receptive_field():
    """TCN encoder (l=4, k=3): no future leakage; empirical RF = 31."""
    spec = default_spec("tcn_cvae", n_mels=8, tcn_layers=4, tcn_channels=8,
                        window_frames=48, seed=3)
    model = build(spec)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 8, 48)).astype(np.float32)
    base = model.forward(Tensor(x)).latent.mu.data.copy()
    leaks = 0
    for t in range(8, 40):
        bumped = x.copy()
        bumped[:, :, t + 1] += 10.0  # perturb frame t+1 only
        out = model.forward(Tensor(bumped)).latent.mu.data
        if not np.array_equal(out[:, :, :t + 1], base[:, :, :t + 1]):
            leaks += 1
    rf = receptive_field(4, 3)
    measured = empirical_receptive_field(4, 3)
    ok = leaks == 0 and measured == 31 and rf.exact == 31 and rf.estimate == 32
    report_line(2, "causality + receptive field", ok,
                f"leaks={leaks}, empirical RF={measured}, exact formula={rf.exact}, "
                f"2^l(k-1) estimate={rf.estimate}")


def test_criterion_3_vae_loss():
    """Closed-form KL vs Monte-Carlo within 2% at 1e5 samples; hand cases."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 9))
        mu = rng.uniform(-1.5, 1.5, d)
        lv = rng.uniform(-1.0, 1.0, d)
        sigma = np.exp(0.5 * lv)
        z = mu + sigma * rng.standard_normal((100_000, d))
        log_q = -0.5 * (((z - mu) / sigma) ** 2 + np.log(2 * np.pi) + lv).sum(axis=1)
        log_p = -0.5 * (z ** 2 + np.log(2 * np.pi)).sum(axis=1)
        mc = float(np.mean(log_q - log_p))
        ld = LatentDistribution(Tensor(mu), Tensor(lv))
        closed = float(vae_loss(Tensor(np.zeros(1)), Tensor(np.zeros(1)), ld).kl.data)
        worst = max(worst, abs(closed - mc) / abs(mc))
    zero = LatentDistribution(Tensor(np.zeros(4)), Tensor(np.zeros(4)))
    kl_zero = float(vae_loss(Tensor(np.zeros(2)), Tensor(np.zeros(2)), zero).kl.data)
    hand1 = vae_loss(Tensor(np.array([3.0])), Tensor(np.array([3.0])),
                     LatentDistribution(Tensor(np.array([1.0])),
                                        Tensor(np.array([0.0]))))
    hand2 = vae_loss(Tensor(np.array([0.0])), Tensor(np.array([2.0])),
                     LatentDistribution(Tensor(np.zeros(1)), Tensor(np.zeros(1))))
    ok = (worst < 0.02 and kl_zero == 0.0
          and float(hand1.total.data) == 0.5 and float(hand2.total.data) == 2.0)
    report_line(3, "vae loss", ok,
                f"worst MC deviation {100 * worst:.2f}%, KL(0,0)={kl_zero + 0.0}")


def test_criterion_4_metric_oracle():
    """roc_auc/pauc vs brute-force Eq-style pairwise sums, 1000 multisets."""
    def h(x):
        return 1.0 if x > 0 else (0.5 if x == 0 else 0.0)

    def brute(neg, pos, p):
        m = int(Fraction(str(p)) * len(neg))
        hard = sorted(neg, reverse=True)[:m]
        return sum(h(a - n) for n in hard for a in pos) / (m * len(pos))

    rng = np.random.default_rng(41)
    worst = 0.0
    exact_p1 = True
    for _ in range(1000):
        n_pos = int(rng.integers(1, 51))
        n_neg = int(rng.integers(4, 51))
        pos = rng.integers(0, 8, n_pos).astype(float)
        neg = rng.integers(0, 8, n_neg).astype(float)
        p = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        recs = ([ScoreRecord(f"n{i}", s, NORMAL, "m", 0) for i, s in enumerate(neg)]
                + [ScoreRecord(f"a{i}", s, ANOMALY, "m", 0) for i, s in enumerate(pos)])
        worst = max(worst, abs(pauc(recs, p) - brute(list(neg), list(pos), p)))
        worst = max(worst, abs(roc_auc(recs) - brute(list(neg), list(pos), 1)))
        exact_p1 &= pauc(recs, p=1.0) == roc_auc(recs)
    ok = worst < 1e-12 and exact_p1
    report_line(4, "metric oracle", ok,
                f"worst |impl - brute force| = {worst:.2e}, pauc(1)==auc: {exact_p1}")


def test_criterion_5_threshold_guarantee():
    """Empirical FPR <= p and > p - 2/N over 1000 random normal-score sets."""
    rng = np.random.default_rng(51)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(20, 501))
        scores = rng.normal(size=n)
        for p in (0.01, 0.05, 0.1):
            tau = select_threshold(scores, p)
            fpr = float(np.mean(scores > tau))
            if not (fpr <= p and fpr > p - 2.0 / n):
                ok = False
    report_line(5, "threshold FPR guarantee", ok,
                "FPR in (p - 2/N, p] for p in {0.01, 0.05, 0.1}")


def test_criterion_6_feature_pipeline():
    """Frame count, stacked dims, dB shift, stream/offline equality."""
    sr = 22050
    rng = np.random.default_rng(61)
    x64 = rng.normal(0, 0.1, 10 * sr)
    clip = AudioClip(x64.astype(np.float32), sr)
    cfg = FeatureConfig()  # defaults: 1024 fft, 512 hop, 512 mels, P=11
    fm = log_mel(clip, cfg)
    frames_ok = fm.frames == 429
    dense = build(default_spec("dense_ae", n_mels=cfg.n_mels,
                               context_frames=cfg.context_frames))
    stacked = dense.inputs_from_features(fm)
    dims_ok = stacked.shape == (419, 5632)

    base = log_mel(AudioClip(x64, sr), cfg)
    loud = log_mel(AudioClip(x64 * 10.0, sr), cfg)
    mask = base.data > -99.9
    shift = loud.data[mask].astype(np.float64) - base.data[mask]
    shift_ok = bool(np.all(np.abs(shift - 20.0) < 1e-4))

    small = FeatureConfig(n_fft=1024, hop=512, n_mels=64, context_frames=1)
    stream_ok = True
    samples = clip.samples[:5 * sr]
    chunks = [samples[i:i + 999] for i in range(0, len(samples), 999)]
    for w in stream_windows(iter(chunks), sr, small, window_s=2.0, hop_s=1.0):
        start = int(round(w.start_s * sr))
        offline = log_mel(AudioClip(samples[start:start + 2 * sr], sr), small)
        if not np.array_equal(w.features.data, offline.data):
            stream_ok = False
    ok = frames_ok and dims_ok and shift_ok and stream_ok
    report_line(6, "feature pipeline", ok,
                f"frames={fm.frames}, stacked dims={stacked.shape[1]}, "
                f"max |shift-20dB|={np.max(np.abs(shift - 20.0)):.2e}, "
                f"stream==offline: {stream_ok}")


def test_criterion_7_synthetic_end_to_end(e2e):
    """TCN model on the synthetic set: AUC >= 0.90, pAUC(0.05) >= 0.60."""
    auc = roc_auc(e2e["records"])
    p_auc = pauc(e2e["records"], p=0.05)
    ok = auc >= 0.90 and p_auc >= 0.60 and e2e["elapsed"] <= 600.0
    report_line(7, "synthetic end-to-end", ok,
                f"AUC={auc:.4f} (gate 0.90), pAUC={p_auc:.4f} (gate 0.60), "
                f"pipeline {e2e['elapsed']:.0f}s (budget 600s)")


def test_criterion_8_model_ladder_comparison(e2e):
    """Four-model merged report renders per-row bold maxima."""
    reports = []
    for kind in ("dense_ae", "cae", "cvae"):
        model = build(default_spec(kind, n_mels=64, seed=7))
        model, _ = train(model, e2e["train_clips"],
                         TrainConfig(epochs=5, batch_size=64, seed=7))
        reports.append(evaluate_dataset(model, e2e["test_index"], SMALL_FEATURES, p=0.05))
    reports.append(evaluate_dataset(e2e["model"], e2e["test_index"], SMALL_FEATURES, p=0.05))
    table = markdown_table(reports)
    lines = [l for l in table.splitlines() if l.startswith("| synthetic |")]
    headers = table.splitlines()[0]
    ok = len(reports) == 4 and len(lines) >= 2 and "**" in table
    for line in lines:  # every row bolds its own maxima
        cells = [c.strip() for c in line.strip("|").split("|")][2:]
        values = [float(c.strip("*")) for c in cells if c != "-"]
        bolded = [float(c.strip("*")) for c in cells if c.startswith("**")]
        if values and bolded:
            ok = ok and max(values) == max(bolded)
    report_line(8, "model ladder comparison", ok,
                f"4 models x {len(lines)} rows, bold maxima rendered; "
                f"columns: {headers.count('AUC')} AUC")


def test_criterion_9_real_time_factor(e2e, tmp_path):
    """stream processes 60 s of audio with real-time factor < 0.5."""
    ckpt = tmp_path / "model.aadm"
    checkpoint_save(e2e["model"], ckpt)
    sr = 16000
    rng = np.random.default_rng(91)
    t = np.arange(60 * sr) / sr
    audio = sum(a * np.sin(2 * np.pi * f * t)
                for f, a in ((120.0, 0.4), (240.0, 0.25), (360.0, 0.15)))
    audio = (audio + rng.normal(0, 0.01, len(t))).astype("<f4")
    raw = tmp_path / "audio60.f32"
    raw.write_bytes(audio.tobytes())

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli_main(["stream", "--input", str(raw), "--model", str(ckpt),
                       "--tau", "1e9", "--sample-rate", str(sr),
                       "--window-s", "2", "--hop-s", "1",
                       "--n-fft", "1024", "--hop", "512", "--n-mels", "64",
                       "--context-frames", "5"])
    rtf_line = next(l for l in err.getvalue().splitlines()
                    if l.startswith("real-time factor"))
    rtf = float(rtf_line.split(":")[1].split("(")[0])
    windows = len(out.getvalue().strip().splitlines())
    ok = rc == 0 and windows == 59 and rtf < 0.5
    report_line(9, "real-time factor", ok,
                f"rtf={rtf:.4f} (gate 0.5), {windows} windows over 60 s")


def test_criterion_10_tsne(e2e):
    """Perplexity calibration, KL descent, cluster separation, latent gain."""
    rng = np.random.default_rng(102)
    x = rng.normal(size=(40, 8))
    perplexity = 10.0
    cond = conditional_affinities(x, perplexity)
    worst = 0.0
    for row in cond:
        q = row[row > 0]
        worst = max(worst, abs(float(-np.sum(q * np.log(q))) - np.log(perplexity)))
    calib_ok = worst < 1e-5

    a = rng.normal(size=(20, 64))
    b = rng.normal(size=(20, 64))
    b[:, 0] += 50.0
    labels = [NORMAL] * 20 + [ANOMALY] * 20
    emb = tsne_embed(np.vstack([a, b]),
                     EmbedConfig(output_dims=2, perplexity=10.0,
                                 iterations=1000, seed=5), labels=labels)
    cluster_sil = silhouette(emb.points, labels)
    kl_ok = emb.kl_history[-1] < emb.kl_history[0]

    test_clips = e2e["test_clips"]
    clip_labels = [c.label for c in test_clips]
    raw = np.stack([c.features.data.mean(axis=0) for c in test_clips])
    lat = np.stack([e2e["model"].encode(c.features) for c in test_clips])
    cfg = EmbedConfig(output_dims=2, perplexity=10.0, iterations=500, seed=3)
    sil_raw = silhouette(tsne_embed(raw, cfg, labels=clip_labels).points, clip_labels)
    sil_lat = silhouette(tsne_embed(lat, cfg, labels=clip_labels).points, clip_labels)

    ok = calib_ok and kl_ok and cluster_sil > 0.5 and sil_lat > sil_raw
    report_line(10, "t-SNE representation analysis", ok,
                f"calibration err {worst:.1e}, cluster silhouette {cluster_sil:.3f}, "
                f"latent {sil_lat:.3f} > raw {sil_raw:.3f}")


def test_criterion_11_reproducibility(tmp_path):
    """Full pipeline twice with one seed: byte-identical checkpoints/reports."""
    flags = ["--n-fft", "1024", "--hop", "512", "--n-mels", "16",
             "--context-frames", "1"]

    def run(tag):
        data = tmp_path / tag / "data"
        run_dir = tmp_path / tag / "run"
        cache = tmp_path / tag / "cache"
        assert cli_main(["synth", "--out", str(data), "--n-normal", "30",
                         "--n-anomaly", "10", "--duration-s", "0.5",
                         "--sample-rate", "16000", "--seed", "11"]) == 0
        assert cli_main(["features", "--root", str(data), "--out", str(cache),
                         *flags]) == 0
        assert cli_main(["train", "--root", str(data), "--out", str(run_dir),
                         "--model", "dense_ae", "--epochs", "4",
                         "--batch-size", "32", "--seed", "11", *flags]) == 0
        assert cli_main(["eval", "--root", str(data), "--out", str(run_dir),
                         "--model", str(run_dir / "last.aadm"), "--seed", "11",
                         "--p", "0.25", *flags]) == 0
        return run_dir, cache

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        run_a, cache_a = run("a")
        run_b, cache_b = run("b")

    same_last = (run_a / "last.aadm").read_bytes() == (run_b / "last.aadm").read_bytes()
    same_best = (run_a / "best.aadm").read_bytes() == (run_b / "best.aadm").read_bytes()
    same_report = (run_a / "report.json").read_bytes() == (run_b / "report.json").read_bytes()
    caches_a = sorted(p.relative_to(cache_a) for p in cache_a.rglob("*.aadf"))
    same_cache = all(
        (cache_a / rel).read_bytes() == (cache_b / rel).read_bytes()
        for rel in caches_a
    )
    ok = same_last and same_best and same_report and same_cache
    report_line(11, "reproducibility", ok,
                f"checkpoints identical: {same_last and same_best}, "
                f"report identical: {same_report}, caches identical: {same_cache}")
