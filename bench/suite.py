"""Layer suite: the program's kernels timed alone, at the shapes the models use.

Each kernel reports the median of several timed calls, plus an operation
count and bytes moved that are *computed* from the shapes (labelled
``computed_flop`` / ``computed_bytes``), not measured. A kernel change
moves these times without touching the pipeline; a pipeline change moves
the traced spans without moving these.

Imported by run.py in ``--trace 1`` runs; ``python3 bench/suite.py``
prints the suite alone.
"""

from __future__ import annotations

import math
import os
import statistics
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as run.py, before numpy loads
import numpy as np  # noqa: E402

REPS = 7
F32 = 4

TCN = dict(batch=64, channels=64, frames=32, kernel=3, dilations=(1, 2, 4, 8, 16, 32))
STREAM_BATCH = 3  # windows per 2 s stream window at 32-frame model windows
# (in, out, frames) of the centred k=3 convolutions of cae/cvae at 64 mels
CAE_CONVS = ((64, 32, 32), (32, 64, 16), (64, 128, 8), (128, 64, 8), (64, 32, 16), (32, 64, 32))
DENSE = dict(batch=64, fan_in=320, fan_out=128)  # dense_ae first layer: 64 mels x P=5
ROC_PER_CLASS = 3000
TSNE_N, TSNE_DIMS = 1000, 16
RATE, CLIP_S = 16000, 10.0


def median_ms(fn, reps: int = REPS) -> float:
    fn()  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _conv_case(rng, batch, cin, cout, frames, kernel, dilation, causal):
    """(forward, backward) callables for one conv1d_causal at these shapes."""
    from aad.tensor import Tensor, conv1d_causal
    x = Tensor(rng.standard_normal((batch, cin, frames)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((cout, cin, kernel)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(cout, np.float32), requires_grad=True)
    g = np.ones((batch, cout, frames), np.float32)

    def fwd():
        return conv1d_causal(x, w, dilation=dilation, bias=b, causal=causal)
    y = fwd()

    def bwd():
        for t in (x, w, b):
            t.grad = None
        y._backward(g)
    return fwd, bwd


def conv_flop(batch, cin, cout, frames, kernel) -> int:
    return 2 * batch * cout * cin * kernel * frames


def conv_bytes(batch, cin, cout, frames, kernel) -> int:
    return F32 * (batch * cin * frames + cout * cin * kernel + cout + batch * cout * frames)


def conv_suite(rng) -> dict:
    m = {}
    c, t, k = TCN["channels"], TCN["frames"], TCN["kernel"]
    for label, batch in (("tcn", TCN["batch"]), ("stream", STREAM_BATCH)):
        fwd_ms = bwd_ms = 0.0
        for d in TCN["dilations"]:
            fwd, bwd = _conv_case(rng, batch, c, c, t, k, d, causal=True)
            fwd_ms += median_ms(fwd)
            if label == "tcn":
                bwd_ms += median_ms(bwd)
        flop = len(TCN["dilations"]) * conv_flop(batch, c, c, t, k)
        m[f"tensor.conv1d.{label}.fwd_ms"] = (fwd_ms, "ms")
        m[f"tensor.conv1d.{label}.computed_flop"] = (flop, "flop")
        if label == "tcn":
            m["tensor.conv1d.tcn.bwd_ms"] = (bwd_ms, "ms")
            m["tensor.conv1d.tcn.gflops"] = (flop / fwd_ms / 1e6, "GFLOP/s")
            m["tensor.conv1d.tcn.computed_bytes"] = (
                len(TCN["dilations"]) * conv_bytes(batch, c, c, t, k), "bytes")
    fwd_ms = bwd_ms = 0.0
    for cin, cout, frames in CAE_CONVS:
        fwd, bwd = _conv_case(rng, TCN["batch"], cin, cout, frames, 3, 1, causal=False)
        fwd_ms += median_ms(fwd)
        bwd_ms += median_ms(bwd)
    m["tensor.conv1d.cae.fwd_ms"] = (fwd_ms, "ms")
    m["tensor.conv1d.cae.bwd_ms"] = (bwd_ms, "ms")
    m["tensor.conv1d.cae.computed_flop"] = (
        sum(conv_flop(TCN["batch"], i, o, f, 3) for i, o, f in CAE_CONVS), "flop")
    m["tensor.conv1d.cae.computed_bytes"] = (
        sum(conv_bytes(TCN["batch"], i, o, f, 3) for i, o, f in CAE_CONVS), "bytes")
    return m


def dense_suite(rng) -> dict:
    from aad.tensor import Tensor, dense
    bsz, fin, fout = DENSE["batch"], DENSE["fan_in"], DENSE["fan_out"]
    x = Tensor(rng.standard_normal((bsz, fin)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((fin, fout)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(fout, np.float32), requires_grad=True)
    y = dense(x, w, b)
    g = np.ones((bsz, fout), np.float32)

    def bwd():
        for t in (x, w, b):
            t.grad = None
        y._backward(g)
    return {
        "tensor.dense.fwd_ms": (median_ms(lambda: dense(x, w, b)), "ms"),
        "tensor.dense.bwd_ms": (median_ms(bwd), "ms"),
        "tensor.dense.computed_flop": (2 * bsz * fin * fout, "flop"),
        "tensor.dense.computed_bytes": (F32 * (bsz * fin + fin * fout + fout + bsz * fout),
                                        "bytes"),
    }


def adam_suite(rng) -> dict:
    """One Adam step over every parameter of each model kind (64 mels, P=5)."""
    from aad.models import build, default_spec
    from aad.tensor import adam_step, init_adam
    m = {}
    for kind in ("dense_ae", "cae", "cvae", "tcn_cvae"):
        model = build(default_spec(kind, n_mels=64, context_frames=5))
        for p in model.params:
            p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
        state = init_adam(model.params)
        m[f"tensor.adam_step.{kind}.ms"] = (median_ms(lambda: adam_step(model.params, state)),
                                            "ms")
        # read p, g, m, v and write p, m, v: seven float32 passes per parameter
        m[f"tensor.adam_step.{kind}.computed_bytes"] = (7 * F32 * model.param_count(), "bytes")
    return m


def feature_suite(rng) -> dict:
    """STFT power and log-mel of one 10 s clip at n_fft 1024, hop 512, 64 mels."""
    from aad.audio_io import AudioClip
    from aad.features import FeatureConfig, log_mel, mel_filterbank, stft_power
    cfg = FeatureConfig(n_fft=1024, hop=512, n_mels=64, context_frames=5)
    clip = AudioClip(samples=rng.uniform(-0.5, 0.5, int(RATE * CLIP_S)).astype(np.float32),
                     sample_rate=RATE)
    fb = mel_filterbank(cfg, RATE)
    frames = 1 + (len(clip.samples) - cfg.n_fft) // cfg.hop
    bins = cfg.n_fft // 2 + 1
    fft_flop = frames * (5 * cfg.n_fft * math.log2(cfg.n_fft) + 4 * cfg.n_fft)
    stft_bytes = frames * (cfg.n_fft * 8 * 2 + bins * 16 + bins * 8)
    mel_flop = 2 * frames * bins * cfg.n_mels
    return {
        "features.stft_power.ms": (median_ms(lambda: stft_power(clip, cfg)), "ms"),
        "features.stft_power.computed_flop": (fft_flop, "flop"),
        "features.stft_power.computed_bytes": (stft_bytes, "bytes"),
        "features.log_mel.ms": (median_ms(lambda: log_mel(clip, cfg, filterbank=fb)), "ms"),
        "features.log_mel.computed_flop": (fft_flop + mel_flop, "flop"),
        "features.log_mel.computed_bytes": (
            stft_bytes + 8 * (bins * cfg.n_mels + frames * cfg.n_mels), "bytes"),
    }


def roc_suite(rng) -> dict:
    """roc_auc over ROC_PER_CLASS scores per class; the pair matrix is P x N."""
    from aad.evaluation import roc_auc
    from aad.scoring import ScoreRecord
    n = ROC_PER_CLASS
    scores = np.concatenate([rng.normal(0, 1, n), rng.normal(1, 1, n)])
    records = [ScoreRecord(clip_path=str(i), score=float(s),
                           label="normal" if i < n else "anomaly",
                           machine_type="synthetic", machine_id=0)
               for i, s in enumerate(scores)]
    return {
        "evaluation.roc_auc.suite_ms": (median_ms(lambda: roc_auc(records)), "ms"),
        # float64 H plus two boolean comparison matrices, each P x N
        "evaluation.roc_auc.suite_computed_bytes": (n * n * (8 + 1 + 1), "bytes"),
    }


def tsne_suite(rng) -> dict:
    """One exact t-SNE iteration at n=1000: (t(25 iters) - t(5 iters)) / 20."""
    from aad.tsne import EmbedConfig, tsne_embed
    x = rng.standard_normal((TSNE_N, TSNE_DIMS))
    t = {}
    for iters in (5, 25):
        t0 = time.perf_counter()
        tsne_embed(x, EmbedConfig(iterations=iters))
        t[iters] = time.perf_counter() - t0
    return {
        "tsne.iteration.suite_ms": (1e3 * (t[25] - t[5]) / 20, "ms"),
        # about eight float64 n x n arrays are made per iteration
        "tsne.iteration.suite_computed_bytes": (8 * 8 * TSNE_N * TSNE_N, "bytes"),
    }


def run_suite(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    m = {}
    for part in (conv_suite, dense_suite, adam_suite, feature_suite, roc_suite, tsne_suite):
        m.update(part(rng))
    return m


if __name__ == "__main__":
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    for name, (value, unit) in run_suite().items():
        print(f"{name:44s} {value:>14.6g} {unit}")
