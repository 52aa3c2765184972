#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `aad` command-line pipeline.

    python3 bench/run.py --workload fit --seed 1 --seconds 56 --trace 0

Run from anywhere inside a checkout that holds ``src/aad``. Each run makes
its inputs from ``--seed`` through the program's own ``aad synth``, sets
up three times (``setup_s`` is the median), then runs whole rounds of CLI
operations for at most ``--seconds`` (at least one round). Every
round of every workload trains the four models, scores, evaluates and
embeds with them, and streams raw samples through ``aad stream``; the
workload sets the sizes, so that its own part dominates (see README.md).
Every output is checked against a computation made by the benchmark.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one round
untraced and one traced (``tracing.py`` wrappers around each module's
public functions), plus the layer suite, and prints the per-layer
metrics. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # fixed for this process and every child, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import io
import json
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

RATE = 16000
N_FFT, HOP, N_MELS, CONTEXT = 1024, 512, 64, 5
WINDOW_FRAMES, WINDOW_HOP = 32, 16  # ModelSpec defaults of the conv kinds
FEATURE_FLAGS = ["--n-fft", str(N_FFT), "--hop", str(HOP), "--n-mels", str(N_MELS),
                 "--context-frames", str(CONTEXT), "--sample-rate", str(RATE)]
KINDS = ("dense_ae", "cae", "cvae", "tcn_cvae")
PROGRAM_SEED = 7          # the walkthrough's --seed; data seeds come from --seed
VALIDATION_SPLIT = 0.1    # TrainConfig default
TRAIN_TEST_FRACTION = 0.1  # test_normal_fraction default, used by train
DETECT_TEST_FRACTION = 0.5  # eval on the detect set: 10 of 20 normals held out
MAX_FPR = 0.1
EVAL_P = 0.1              # floor(0.1 * 10 held-out normals) = 1 hardest normal
EMBED_ITERATIONS = 250
EMBED_PERPLEXITY = 5.0    # must stay below (n - 1) / 3 at n = 30 clips
STREAM_WIN, STREAM_HOP = 2 * RATE, RATE // 4   # 2 s window, 0.25 s hop
# open-loop rate, in multiples of real time: about a quarter of today's capacity
# (about 31x). At 16x the machine's slow phases took the program near capacity,
# queueing set the tail, and p99 jumped between runs (README, stream session).
PACE_X = 8.0
# samples per write in the paced phase, a common audio device period. Writing
# one hop at a time put every window's wait for the program's 8192-sample read
# at 31 or 62 ms, with p50 on the edge between the two (README, stream session).
PERIOD = 1024
START_MARGIN_S = 0.3      # input starts this long after the measured start-up
EOF_DEADLINE_S = 1.0      # a stream session must exit this soon after end of input
FIRST_LINE_S = 1.0        # a decision line must arrive this soon after input starts
CMD_TIMEOUT_S = 60.0
RSS_POLL_S = 0.02         # how often a child's peak resident set is read
SETUP_REPS = 3
OWN_LOAD = 1.0            # the benchmark runs one busy process at a time
FAULT_SEED = 20240924     # fault-session inputs do not depend on --seed
NAN_INDEX = 40_000        # sample set to NaN in the fault session


@dataclass(frozen=True)
class Dataset:
    n_normal: int
    n_anomaly: int
    duration_s: float


@dataclass(frozen=True)
class Profile:
    """Input sizes of one workload; every workload runs every operation."""

    train_set: Dataset
    epochs: dict
    detect_set: Dataset
    score_kinds: tuple      # `aad score --partition all` on the detect set
    report_kinds: tuple     # `aad eval` and `aad embed` on the detect set
    paced_s: float          # seconds of audio written paced (phase a) ...
    fast_s: float           # ... then its first fast_s seconds as fast as read (phase b)
    faults: bool            # run the three fault sessions
    rss_ops: tuple          # operation kinds whose peak RSS is peak_rss_mb


DETECT_SET = Dataset(20, 10, 2.0)
PROFILES = {
    "fit": Profile(
        train_set=Dataset(26, 0, 2.0),
        epochs={"dense_ae": 4, "cae": 2, "cvae": 2, "tcn_cvae": 2},
        detect_set=DETECT_SET, score_kinds=("dense_ae", "tcn_cvae"),
        report_kinds=("tcn_cvae",), paced_s=12.0, fast_s=32.0,  # 41 paced windows
        faults=False, rss_ops=("train",)),
    "stream": Profile(
        train_set=Dataset(12, 0, 2.0),
        epochs={"dense_ae": 8, "cae": 2, "cvae": 2, "tcn_cvae": 2},
        detect_set=DETECT_SET, score_kinds=("tcn_cvae",), report_kinds=("tcn_cvae",),
        paced_s=16.0, fast_s=32.0, faults=True, rss_ops=("stream",)),  # 57 paced windows
}


# -- inputs the benchmark derives from the method, not from the program --


def frames(duration_s: float) -> int:
    return 1 + (int(round(duration_s * RATE)) - N_FFT) // HOP


def samples_per_clip(kind: str, duration_s: float) -> int:
    """Training samples per clip: context rows (dense_ae) or mel windows."""
    f = frames(duration_s)
    if kind == "dense_ae":
        return f - CONTEXT + 1
    starts = list(range(0, f - WINDOW_FRAMES + 1, WINDOW_HOP))
    return len(starts) + (starts[-1] != f - WINDOW_FRAMES)


def fit_clips(ds: Dataset) -> int:
    """Normal clips left for gradient steps after the test and validation splits."""
    n_train = ds.n_normal - max(1, int(round(TRAIN_TEST_FRACTION * ds.n_normal)))
    return n_train - int(round(VALIDATION_SPLIT * n_train))


def fault_signal(seconds: float) -> "np.ndarray":
    """A fixed machine-like tone (harmonics plus noise) for the fault sessions."""
    import numpy as np
    rng = np.random.default_rng(FAULT_SEED)
    t = np.arange(int(seconds * RATE)) / RATE
    x = sum(a * np.sin(2 * np.pi * f * t) for f, a in ((120, .45), (240, .27), (360, .18)))
    return (x + rng.normal(0, 0.01, t.size)).astype("<f4")


# -- running the program --


@dataclass
class Op:
    """One CLI command or one stream session."""

    name: str
    kind: str
    wall: float
    ok: bool = True
    fault: bool = False     # a known program fault; expected to fail
    rss_mb: float = 0.0
    error: str = ""


@dataclass
class Proc:
    rc: int
    wall: float
    stdout: str
    stderr: str
    rss_mb: float
    killed: bool


class PeakRss(threading.Thread):
    """Samples a child's VmHWM, the peak resident set of its own memory.

    wait4's ``ru_maxrss`` would not do: on Linux a child's figure starts at
    the spawning process's peak when the child calls exec, so it reports the
    benchmark's own memory whenever that is the larger.
    """

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.path = f"/proc/{pid}/status"
        self.peak_kb = 0
        self.done = threading.Event()
        self.start()

    def run(self):
        while not self.done.is_set():
            try:
                with open(self.path) as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            self.peak_kb = max(self.peak_kb, int(line.split()[1]))
                            break
            except (OSError, ValueError):
                pass
            self.done.wait(RSS_POLL_S)

    def stop(self) -> float:
        self.done.set()
        self.join()
        return self.peak_kb / 1024.0


def _wait(proc: subprocess.Popen, rss: PeakRss, timeout: float) -> tuple[int, float, bool]:
    """Reap ``proc`` (killing it after ``timeout``); returns (rc, peak RSS MB, killed)."""
    killed = threading.Event()

    def kill():
        killed.set()
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status = os.waitpid(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rss.stop(), killed.is_set()


class Runner:
    """Starts `aad` commands, traced or not, one at a time."""

    def __init__(self, work: Path, run_id: str):
        self.work = work
        self.run_id = run_id
        self.span_files: list[Path] = []
        self._n = 0

    def argv(self, args: list[str], traced: bool,
             unbuffered: bool = False) -> tuple[list[str], dict]:
        """The command line and environment of one `aad` command.

        ``unbuffered`` adds ``python -u``; the program's own stdout is
        block-buffered on a pipe, so it is set only where the arrival time
        of each output line is measured.
        """
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONUNBUFFERED", None)
        python = [sys.executable, "-u"] if unbuffered else [sys.executable]
        if not traced:
            return [*python, "-m", "aad.cli", *args], env
        self._n += 1
        spans = self.work / "spans" / f"{self._n:03d}-{args[0]}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        self.span_files.append(spans)
        env[tracing.SPANS_ENV] = str(spans)
        env[tracing.RUN_ID_ENV] = self.run_id
        return [*python, str(BENCH / "tracing.py"), *args], env

    def cli(self, args: list[str], traced: bool) -> Proc:
        argv, env = self.argv(args, traced)
        out, err = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo,
                                    stderr=fe, env=env)
            rc, rss, killed = _wait(proc, PeakRss(proc.pid), CMD_TIMEOUT_S)
            wall = time.monotonic() - t0
        return Proc(rc, wall, out.read_text(), err.read_text(), rss, killed)


@dataclass
class Session:
    """What one `aad stream` session printed, and when."""

    rc: int
    killed: bool
    rss_mb: float
    wall: float
    lines: list[str]
    times: list[float]
    late: list[float]       # generator lateness per paced block, s
    t0: float               # when input started (the paced schedule's origin)
    t_eof: float            # when input ended
    stderr: str


def _write_all(fh, data: bytes) -> None:
    """Write every byte to an unbuffered pipe, which may take part of a write."""
    view = memoryview(data)
    while view:
        view = view[fh.write(view):]


def stream_session(runner: Runner, model: Path, tau: float, data: bytes,
                   fast: bytes = b"", *, traced: bool = False, unbuffered: bool = True,
                   pace_x: float | None = None, delay_s: float = 0.0,
                   hold_s: float = 0.0, name: str = "stream") -> Session:
    """Feed raw float32 bytes to `aad stream` and time each decision line.

    Input starts ``delay_s`` after spawn. With ``pace_x``, ``data`` is
    written one PERIOD at a time, each block when its last sample is due at
    ``pace_x`` times real time (open loop), otherwise at once; then
    ``fast`` as fast as the pipe takes it. With ``hold_s``, input ends when
    the first decision line has arrived or ``hold_s`` after input started,
    whichever is first. The process must exit within EOF_DEADLINE_S of end
    of input, or it is killed.
    """
    args = ["stream", "--model", str(model), "--tau", repr(tau),
            "--window-s", str(STREAM_WIN / RATE), "--hop-s", str(STREAM_HOP / RATE),
            *FEATURE_FLAGS]
    argv, env = runner.argv(args, traced, unbuffered)
    err_path = runner.work / f"{name}-stderr.txt"
    lines: list[tuple[float, bytes]] = []
    late: list[float] = []
    first_line = threading.Event()
    with open(err_path, "wb") as fe:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=fe, env=env, bufsize=0)
        peak = PeakRss(proc.pid)

        def read():
            for line in io.BufferedReader(proc.stdout):
                lines.append((time.monotonic(), line))
                first_line.set()
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        guard = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        guard.start()
        t0 = t_spawn + delay_s
        try:
            time.sleep(max(0.0, t0 - time.monotonic()))
            if pace_x is None:
                _write_all(proc.stdin, data)
            else:
                block = PERIOD * 4
                for j in range(-(-len(data) // block)):
                    due = t0 + min((j + 1) * block, len(data)) / 4 / (RATE * pace_x)
                    time.sleep(max(0.0, due - time.monotonic()))
                    _write_all(proc.stdin, data[j * block:(j + 1) * block])
                    late.append(time.monotonic() - due)
            _write_all(proc.stdin, fast)
            if hold_s:
                first_line.wait(max(0.0, t0 + hold_s - time.monotonic()))
            proc.stdin.close()
        except BrokenPipeError:
            pass
        finally:
            guard.cancel()
        t_eof = time.monotonic()
        rc, rss, killed = _wait(proc, peak, EOF_DEADLINE_S)
        wall = time.monotonic() - t_spawn
        reader.join(timeout=5.0)
        proc.stdout.close()
    return Session(rc=rc, killed=killed, rss_mb=rss, wall=wall,
                   lines=[ln.decode().rstrip("\n") for _, ln in lines],
                   times=[t for t, _ in lines], late=late, t0=t0, t_eof=t_eof,
                   stderr=err_path.read_text())


# -- set-up and rounds --


@dataclass
class Inputs:
    train_root: Path
    detect_root: Path
    stream_samples: "np.ndarray"


def setup(runner: Runner, prof: Profile, seed: int, where: Path, traced: bool,
          init: Path | None = None) -> tuple[Inputs, float, float, Path]:
    """Synthesize the inputs and time `aad stream` start-up on empty input.

    Start-up loads ``init``, an untrained `tcn_cvae` checkpoint; when it is
    None, one is made first with `aad train --epochs 0`, outside the timing.
    Returns the inputs, the set-up time, the start-up time and ``init``.
    """
    from scipy.io import wavfile
    t0 = time.monotonic()
    sets = (("train", prof.train_set, 1), ("detect", prof.detect_set, 2),
            ("stream", Dataset(1, 0, prof.paced_s), 3))
    for name, ds, salt in sets:
        _must(runner.cli(["synth", "--out", str(where / name),
                          "--n-normal", str(ds.n_normal), "--n-anomaly", str(ds.n_anomaly),
                          "--duration-s", str(ds.duration_s), "--sample-rate", str(RATE),
                          "--seed", str(abs(seed) * 10 + salt)], traced), "synth")
    synth_s = time.monotonic() - t0
    if init is None:
        init = where / "init" / "last.aadm"
        _must(runner.cli(["train", "--root", str(where / "train"), "--out", str(init.parent),
                          "--model", "tcn_cvae", "--epochs", "0", "--seed", str(PROGRAM_SEED),
                          *FEATURE_FLAGS], traced), "train --epochs 0")
    t_start = time.monotonic()
    argv, env = runner.argv(["stream", "--model", str(init), "--tau", "0",
                             *FEATURE_FLAGS], traced)
    rc = subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL, env=env, timeout=CMD_TIMEOUT_S).returncode
    startup = time.monotonic() - t_start
    if rc != 0:
        raise SetupError(f"aad stream on empty input exited {rc}")
    _, samples = wavfile.read(where / "stream" / "synthetic" / "id_00" / "normal" / "0000.wav")
    inputs = Inputs(where / "train", where / "detect", samples.astype("<f4"))
    return inputs, synth_s + startup, startup, init


class SetupError(Exception):
    pass


def _must(p: Proc, what: str) -> None:
    if p.rc != 0:
        raise SetupError(f"set-up step {what} exited {p.rc}: {p.stderr.strip()[-500:]}")


def _pctl(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, int(-(-q * len(s) // 1)) - 1))]


class Round:
    """One round of operations; collects ops, end-to-end values and extras."""

    def __init__(self, runner: Runner, prof: Profile, inputs: Inputs, out: Path,
                 traced: bool, seed: int, startup_s: float):
        self.runner, self.prof, self.inputs, self.out = runner, prof, inputs, out
        self.traced, self.seed, self.startup_s = traced, seed, startup_s
        self.ops: list[Op] = []
        # metric -> (work, seconds): what the round did and how long it took
        self.totals: dict[str, tuple[float, float]] = {}
        self.extra: dict[str, float] = {}
        self.paced_due: list[float] = []      # due times of the paced windows
        self.latency: list[float] = []

    def op(self, name: str, kind: str, proc_or_session, check, fault: bool = False) -> Op:
        """Record an operation; it fails on non-zero exit, a kill or a failed check."""
        p = proc_or_session
        op = Op(name=name, kind=kind, wall=p.wall, rss_mb=p.rss_mb, fault=fault)
        if p.killed:
            op.ok, op.error = False, "missed its deadline and was killed"
        elif p.rc != 0:
            op.ok, op.error = False, f"exit {p.rc}: {p.stderr.strip()[-300:]}"
        else:
            try:
                check()
            except Exception as exc:  # any failure to verify an output fails the operation
                op.ok, op.error = False, f"{type(exc).__name__}: {exc}"
        self.ops.append(op)
        return op

    def run(self) -> None:
        t0 = time.monotonic()
        ckpt = self.train()
        taus = self.detect(ckpt)
        self.stream(ckpt["tcn_cvae"], taus.get("tcn_cvae", 0.0))
        self.wall = time.monotonic() - t0

    def train(self) -> dict[str, Path]:
        import checks
        prof, ds = self.prof, self.prof.train_set
        ckpt = {}
        for kind in KINDS:
            out = self.out / f"train-{kind}"
            epochs = prof.epochs[kind]
            p = self.runner.cli(["train", "--root", str(self.inputs.train_root),
                                 "--out", str(out), "--model", kind, "--epochs", str(epochs),
                                 "--seed", str(PROGRAM_SEED), *FEATURE_FLAGS], self.traced)
            self.op(f"train {kind}", "train", p, lambda: checks.check_trainlog(
                checks.read_trainlog_csv(out / "trainlog.csv"), epochs))
            samples = fit_clips(ds) * samples_per_clip(kind, ds.duration_s) * epochs
            self.totals[f"train_{kind}_samples_per_s"] = (samples, p.wall)
            ckpt[kind] = out / "last.aadm"
        return ckpt

    def detect(self, ckpt: dict[str, Path]) -> dict[str, float]:
        import checks
        from aad.audio_io import scan_dataset, split_index
        prof, root = self.prof, self.inputs.detect_root
        index = scan_dataset(root)
        all_paths = [e.path for e in index.entries]
        _, test = split_index(index, DETECT_TEST_FRACTION, seed=PROGRAM_SEED)
        test_paths = [e.path for e in test.entries]
        ds = prof.detect_set
        taus, rows = {}, {}
        score_wall = eval_wall = 0.0
        embed_walls = []
        for kind in prof.score_kinds:
            out = self.out / f"detect-{kind}"
            p = self.runner.cli(["score", "--root", str(root), "--out", str(out),
                                 "--model", str(ckpt[kind]), "--partition", "all",
                                 "--max-fpr", str(MAX_FPR), "--seed", str(PROGRAM_SEED),
                                 *FEATURE_FLAGS], self.traced)

            def check_score(kind=kind, out=out, p=p):
                tau = float(p.stdout.split("tau=", 1)[1].split(")", 1)[0])
                rows[kind] = checks.read_scores_csv(out / "scores.csv")
                checks.check_scores(rows[kind], all_paths, tau, MAX_FPR)
                checks.check_auc(rows[kind])
                taus[kind] = tau
            self.op(f"score {kind}", "score", p, check_score)
            score_wall += p.wall
        for kind in prof.report_kinds:
            out = self.out / f"detect-{kind}"
            p = self.runner.cli(["eval", "--root", str(root), "--out", str(out),
                                 "--model", str(ckpt[kind]), "--p", str(EVAL_P),
                                 "--format", "json", "--test-fraction", str(DETECT_TEST_FRACTION),
                                 "--seed", str(PROGRAM_SEED), *FEATURE_FLAGS], self.traced)
            self.op(f"eval {kind}", "eval", p, lambda out=out, kind=kind: checks.check_report(
                json.loads((out / "report.json").read_text()), rows[kind], test_paths, EVAL_P))
            eval_wall += p.wall
            p = self.runner.cli(["embed", "--root", str(root), "--out", str(out),
                                 "--model", str(ckpt[kind]), "--space", "latent", "--dims", "2",
                                 "--perplexity", str(EMBED_PERPLEXITY),
                                 "--iterations", str(EMBED_ITERATIONS),
                                 "--seed", str(PROGRAM_SEED), *FEATURE_FLAGS], self.traced)
            self.op(f"embed {kind}", "embed", p, lambda out=out: checks.check_embedding(
                checks.read_embedding_csv(out / "embed_latent.csv"),
                ds.n_normal, ds.n_anomaly, 2))
            embed_walls.append(p.wall)
        self.totals["score_clips_per_s"] = (len(prof.score_kinds) * len(all_paths), score_wall)
        self.totals["eval_clips_per_s"] = (len(prof.report_kinds) * len(test_paths), eval_wall)
        self.totals["embed_s"] = (len(embed_walls), sum(embed_walls))
        return taus

    def stream(self, model: Path, tau: float) -> None:
        import checks
        import numpy as np
        from aad.audio_io import AudioClip
        from aad.features import FeatureConfig, log_mel
        from aad.models import checkpoint_load
        from aad.scoring import anomaly_score
        clip = self.inputs.stream_samples
        fast = clip[:int(self.prof.fast_s * RATE)]
        samples = np.concatenate([clip, fast])
        cfg = FeatureConfig(n_fft=N_FFT, hop=HOP, n_mels=N_MELS, context_frames=CONTEXT)

        def offline(k):
            seg = samples[k * STREAM_HOP:k * STREAM_HOP + STREAM_WIN]
            fm = log_mel(AudioClip(samples=seg, sample_rate=RATE), cfg)
            return anomaly_score(*checkpoint_load(model).reconstruct_features(fm))

        n_win = checks.expected_window_count(len(samples), STREAM_WIN, STREAM_HOP)
        pick = random.Random(self.seed).sample(range(1, n_win - 1), 2)
        sample = sorted({0, n_win - 1, *pick})
        delay = self.startup_s + START_MARGIN_S

        # phase (a) paced, then phase (b) as fast as read, in one session
        s = stream_session(self.runner, model, tau, clip.tobytes(), fast.tobytes(),
                           traced=self.traced, pace_x=PACE_X, delay_s=delay)
        self.op("stream", "stream", s, lambda: checks.check_stream(
            checks.parse_stream_lines("\n".join(s.lines)), len(samples),
            STREAM_WIN, STREAM_HOP, RATE, tau, offline, sample))
        n_paced = checks.expected_window_count(len(clip), STREAM_WIN, STREAM_HOP)
        # a window is due when the block that carries its last sample is due
        ends = (min(-(-(STREAM_WIN + k * STREAM_HOP) // PERIOD) * PERIOD, len(clip))
                for k in range(n_paced))
        self.paced_due = [s.t0 + end / (RATE * PACE_X) for end in ends]
        self.latency = [1e3 * (t - d) for t, d in zip(s.times, self.paced_due)]
        late = s.late or [0.0]
        self.extra["generator_late_ms_p50"] = 1e3 * _pctl(late, 0.50)
        self.extra["generator_late_ms_p99"] = 1e3 * _pctl(late, 0.99)
        fast_times = s.times[n_paced:]
        if len(fast_times) > 1:
            self.totals["stream_speed_x"] = ((len(fast_times) - 1) * STREAM_HOP / RATE,
                                             fast_times[-1] - fast_times[0])
        if self.prof.faults:
            self.faults(model, tau, delay)

    def faults(self, model: Path, tau: float, delay: float) -> None:
        """Three sessions that fail on known program faults, run side by side.

        Their inputs do not depend on the seed, and they measure nothing, so
        they share the machine with each other but not with a timed operation.
        """
        import checks
        import numpy as np
        tone = fault_signal(6.0)
        tone[NAN_INDEX] = np.nan
        sessions = {
            # (a) a byte count that is not a multiple of 4: aad stream must still exit
            "stream odd-length input": dict(data=fault_signal(1.0).tobytes()[:1001]),
            # (b) one NaN sample: the windows that cover it must not read normal
            "stream NaN sample": dict(data=tone.tobytes()),
            # (c) the program's own output mode on a pipe: a decision line must
            # reach the reader while the input is still open
            "stream output held back": dict(data=fault_signal(3.0).tobytes(),
                                            unbuffered=False, hold_s=FIRST_LINE_S),
        }
        done: dict[str, Session] = {}

        def one(name, kw):
            done[name] = stream_session(self.runner, model, tau, delay_s=delay,
                                        name=name.replace(" ", "-"), **kw)
        threads = [threading.Thread(target=one, args=item) for item in sessions.items()]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        def parsed(name):
            return checks.parse_stream_lines("\n".join(done[name].lines))
        for name, check in (
                ("stream odd-length input", lambda: None),
                ("stream NaN sample", lambda: checks.check_stream_nan(
                    parsed("stream NaN sample"), NAN_INDEX, STREAM_WIN, STREAM_HOP)),
                ("stream output held back", lambda: checks.check_stream_live(
                    done["stream output held back"].times,
                    done["stream output held back"].t_eof))):
            self.op(name, "fault", done[name], check, fault=True)


# -- the run --


def _openblas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": _openblas_threads(),
        "loadavg_start": os.getloadavg(),
    }


def _metric_table(metrics: dict) -> str:
    return "\n".join(f"  {name:44s} {m['value']:>14.6g} {m['unit']}"
                     for name, m in metrics.items())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PROFILES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full run record (JSON) here")
    args = ap.parse_args(argv)

    if not (SRC / "aad" / "cli.py").is_file():
        print(f"bench: no program sources at {SRC}/aad; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    prof = PROFILES[args.workload]
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = WORK / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    started = time.time()
    try:
        record = _run(args, prof, work, run_id)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    # the benchmark keeps one process busy, which adds about 1 to the 1-minute
    # load average of a run and of the run after it; the rest is other load
    load = max(env["loadavg_start"][0], env["loadavg_end"][0]) - OWN_LOAD
    env["noisy"] = load > env["cores_usable"] / 2
    result = record.pop("result")

    print(f"aad benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(env))
    if env["noisy"]:
        print(f"NOISY: load average beyond the benchmark's own, {load:.2f}, is above "
              f"half of {env['cores_usable']} cores")
    for op in record["ops"]:
        if not op["ok"]:
            tag = "known fault" if op["fault"] else "FAILED"
            print(f"{tag}: {op['name']}: {op['error']}")
    for key, value in record["extra"].items():
        print(f"  {key:44s} {value:>14.6g}")
    print(_metric_table(result["metrics"]))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "started_at": started, "env": env, **record,
             "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def _run(args, prof: Profile, work: Path, run_id: str) -> dict:
    runner = Runner(work, run_id)
    reps = 1 if args.trace else SETUP_REPS
    setups, init = [], None
    for i in range(reps):
        where = work / f"setup{i}"
        setups.append(setup(runner, prof, args.seed, where, bool(args.trace), init))
        init = setups[-1][3]
        if i:
            shutil.rmtree(work / f"setup{i - 1}" / "train", ignore_errors=True)
            shutil.rmtree(work / f"setup{i - 1}" / "detect", ignore_errors=True)
    inputs = setups[-1][0]
    setup_s = statistics.median(s[1] for s in setups)
    startup_s = statistics.median(s[2] for s in setups)

    rounds: list[Round] = []
    t_start = time.monotonic()
    if args.trace:
        for traced in (False, True):
            rnd = Round(runner, prof, inputs, work / f"round{len(rounds)}", traced,
                        args.seed, startup_s)
            rnd.run()
            rounds.append(rnd)
    else:
        # whole rounds only, so that known faults are the same share of every run;
        # another round starts only if a round of typical length still fits
        while True:
            rnd = Round(runner, prof, inputs, work / f"round{len(rounds)}", False,
                        args.seed, startup_s)
            rnd.run()
            rounds.append(rnd)
            shutil.rmtree(rnd.out, ignore_errors=True)
            elapsed = time.monotonic() - t_start
            if elapsed + statistics.median(r.wall for r in rounds) > args.seconds:
                break

    ops = [op for r in rounds for op in r.ops]
    failed = [op for op in ops if not op.ok]
    correct = all(op.fault for op in failed)
    if args.trace:
        metrics = _layer_metrics(runner, rounds, startup_s)
    else:
        metrics = _end_to_end(prof, rounds, setup_s)
    extra = {k: statistics.median(r.extra[k] for r in rounds) for k in rounds[0].extra}
    extra["stream_windows_paced"] = sum(len(r.latency) for r in rounds)
    return {"rounds": len(rounds), "round_walls": [r.wall for r in rounds],
            "round_totals": [r.totals for r in rounds],
            "ops": [asdict(op) for op in ops], "extra": extra,
            "result": {"correct": correct, "attempted": len(ops), "failed": len(failed),
                       "metrics": metrics}}


E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    **{f"train_{k}_samples_per_s": "samples/s" for k in KINDS},
    "score_clips_per_s": "clips/s", "eval_clips_per_s": "clips/s", "embed_s": "s",
    "stream_speed_x": "x", "stream_latency_p50_ms": "ms", "stream_latency_p99_ms": "ms",
}


def _end_to_end(prof: Profile, rounds: list[Round], setup_s: float) -> dict:
    # Latency percentiles pool the paced windows of all rounds. The other
    # metrics pool the run too: work over time, summed over rounds (embed_s is
    # seconds over commands). One command's time is bimodal on a machine that
    # runs in fast and slow phases, and the median of a few rounds jumps
    # between the modes; the total does not. A metric no round could measure
    # reads 0: its operations failed, so `correct` is already false.
    latency = [ms for r in rounds for ms in r.latency] or [0.0]
    values = {"setup_s": setup_s,
              "peak_rss_mb": max(op.rss_mb for r in rounds for op in r.ops
                                 if op.kind in prof.rss_ops),
              "stream_latency_p50_ms": _pctl(latency, 0.50),
              "stream_latency_p99_ms": _pctl(latency, 0.99)}
    for name in E2E_UNITS:
        if name not in values:
            pairs = [r.totals[name] for r in rounds if name in r.totals]
            work, seconds = sum(w for w, _ in pairs), sum(t for _, t in pairs)
            if not (work and seconds):
                values[name] = 0.0
            else:
                values[name] = seconds / work if name == "embed_s" else work / seconds
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def _layer_metrics(runner: Runner, rounds: list[Round], startup_s: float) -> dict:
    import suite
    untraced, traced = rounds
    files = [tracing.SpanFile(p) for p in runner.span_files if p.exists()]
    m = tracing.layer_metrics(files, EMBED_ITERATIONS)
    # the traced round's first stream session with windows is the paced one
    paced = next((f for f in files if f.named("cli.stream") and f.named("features.log_mel")),
                 None)
    wait, compute = (tracing.stream_window_times(paced, traced.paced_due) if paced
                     else ([0.0], [0.0]))
    m["cli.stream.window_wait_ms_p50"] = (1e3 * statistics.median(wait), "ms")
    m["cli.stream.window_compute_ms_p50"] = (1e3 * statistics.median(compute), "ms")
    m["cli.stream.startup_s"] = (startup_s, "s")
    base = sum(op.wall for op in untraced.ops if not op.fault)
    m["trace.overhead_ratio"] = (sum(op.wall for op in traced.ops if not op.fault) / base,
                                 "ratio")
    m.update(suite.run_suite())
    return {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}


if __name__ == "__main__":
    sys.exit(main())
