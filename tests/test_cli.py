import csv
import io
import json
import math
import os
import platform
import re
import resource
import select
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path
from typing import get_origin

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aad
from aad.annotations import field_hints, required_type
from aad.cli import _HOMES, RunConfig, _raw_chunk_reader, main
from aad.features import FeatureConfig, load_features, log_mel
from aad.audio_io import AudioClip, read_wav, write_wav
from aad.errors import FormatError
from aad.models import MODEL_KINDS, checkpoint_load
from aad.scoring import anomaly_score
from conftest import write_version_1

SMALL_FLAGS = ["--n-fft", "1024", "--hop", "512", "--n-mels", "16",
               "--context-frames", "1"]


SRC = Path(aad.__file__).resolve().parents[1]


def cli_command(*args):
    """Argv and environment that run ``aad`` in a fresh, block-buffered interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    return [sys.executable, "-m", "aad.cli", *map(str, args)], env


def stream_args(workspace, tau="1e9"):
    return ["stream", "--model", workspace / "run" / "last.aadm", "--tau", tau,
            "--sample-rate", "16000", "--window-s", "2", "--hop-s", "1", *SMALL_FLAGS]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synth a small dataset and train a tiny dense model once."""
    ws = tmp_path_factory.mktemp("cliws")
    data = ws / "data"
    run = ws / "run"
    rc = main(["synth", "--out", str(data), "--n-normal", "24",
               "--n-anomaly", "8", "--duration-s", "0.5",
               "--sample-rate", "16000", "--seed", "7"])
    assert rc == 0
    rc = main(["train", "--root", str(data), "--out", str(run),
               "--model", "dense_ae", "--epochs", "3", "--batch-size", "32",
               "--seed", "7", *SMALL_FLAGS])
    assert rc == 0
    return ws


class TestPipelineSmoke:
    def test_train_wrote_checkpoint_and_log(self, workspace):
        assert (workspace / "run" / "last.aadm").exists()
        assert (workspace / "run" / "trainlog.csv").exists()

    def test_eval_report_has_auc(self, workspace):
        rc = main(["eval", "--root", str(workspace / "data"),
                   "--out", str(workspace / "run"),
                   "--model", str(workspace / "run" / "last.aadm"),
                   "--seed", "7", "--p", "0.25", *SMALL_FLAGS])
        assert rc == 0
        report = json.loads((workspace / "run" / "report.json").read_text())
        assert report["p"] == 0.25
        assert "auc" in report["machines"][0]["ids"][0]

    def test_eval_echoes_p(self, workspace):
        rc = main(["eval", "--root", str(workspace / "data"),
                   "--out", str(workspace / "run"),
                   "--model", str(workspace / "run" / "last.aadm"),
                   "--seed", "7", "--p", "0.05", *SMALL_FLAGS])
        assert rc == 0
        report = json.loads((workspace / "run" / "report.json").read_text())
        assert report["p"] == 0.05

    def test_score_writes_csv(self, workspace):
        rc = main(["score", "--root", str(workspace / "data"),
                   "--out", str(workspace / "run"),
                   "--model", str(workspace / "run" / "last.aadm"),
                   "--seed", "7", *SMALL_FLAGS])
        assert rc == 0
        lines = (workspace / "run" / "scores.csv").read_text().strip().splitlines()
        assert lines[0].startswith("clip_path,")
        assert len(lines) == 33  # header + 32 clips

    def test_features_cache_roundtrip(self, workspace):
        out = workspace / "cache"
        rc = main(["features", "--root", str(workspace / "data"),
                   "--out", str(out), *SMALL_FLAGS])
        assert rc == 0
        cached = sorted(out.rglob("*.aadf"))
        assert len(cached) == 32
        fm = load_features(cached[0])
        assert fm.dims == 16

    def test_embed_writes_csv_and_svg(self, workspace):
        rc = main(["embed", "--root", str(workspace / "data"),
                   "--out", str(workspace / "run"), "--dims", "2",
                   "--perplexity", "5", "--iterations", "50",
                   "--seed", "7", *SMALL_FLAGS])
        assert rc == 0
        assert (workspace / "run" / "embed_features.csv").exists()
        assert (workspace / "run" / "embed_features_xy.svg").exists()


class TestStream:
    def test_window_count_and_offline_equality(self, workspace, tmp_path):
        sr = 16000
        rng = np.random.default_rng(3)
        samples = rng.normal(0, 0.1, 10 * sr).astype("<f4")
        raw = tmp_path / "audio.f32"
        raw.write_bytes(samples.tobytes())
        ckpt = workspace / "run" / "last.aadm"

        capsys_lines = []
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["stream", "--input", str(raw), "--model", str(ckpt),
                       "--tau", "1e9", "--sample-rate", str(sr),
                       "--window-s", "2", "--hop-s", "1", *SMALL_FLAGS])
        assert rc == 0
        lines = [l for l in buf.getvalue().strip().splitlines() if l]
        assert len(lines) == 9

        # stream scores equal offline scoring of the same windows, bit for bit
        model = checkpoint_load(ckpt)
        cfg = FeatureConfig(n_fft=1024, hop=512, n_mels=16, context_frames=1)
        for w, line in enumerate(lines):
            t, score_text, decision = [part.strip() for part in line.split(",")]
            window = samples[w * sr:(w + 2) * sr]
            fm = log_mel(AudioClip(window, sr), cfg)
            offline = anomaly_score(*model.reconstruct_features(fm))
            assert float(score_text) == offline
            assert decision == "normal"  # tau 1e9 never trips


    def test_nan_sample_reads_invalid(self, workspace, tmp_path):
        samples = np.random.default_rng(4).normal(0, 0.1, 6 * 16000).astype("<f4")
        samples[40000] = np.nan  # 2.5 s: inside the windows ending at 3 s and 4 s
        raw = tmp_path / "audio.f32"
        raw.write_bytes(samples.tobytes())
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([*map(str, stream_args(workspace)), "--input", str(raw)])
        assert rc == 0
        rows = [line.split(", ") for line in out.getvalue().splitlines()]
        assert [r[0] for r in rows] == ["2.000", "3.000", "4.000", "5.000", "6.000"]
        assert [r[2] for r in rows] == ["normal", "invalid", "invalid", "normal", "normal"]
        assert rows[1][1] == rows[2][1] == "nan"
        assert "(5 windows, 2 invalid, 6.0 s audio in " in err.getvalue()

    def test_infinite_sample_writes_only_the_summary_to_stderr(self, workspace, tmp_path):
        # numpy's "invalid value" warnings came between the decision lines
        samples = np.random.default_rng(4).normal(0, 0.1, 4 * 16000).astype("<f4")
        samples[20000] = np.inf
        raw = tmp_path / "audio.f32"
        raw.write_bytes(samples.tobytes())
        argv, env = cli_command(*stream_args(workspace), "--input", raw)
        done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert done.returncode == 0
        (summary,) = done.stderr.decode().splitlines()
        assert summary.startswith("real-time factor: ") and "(3 windows, 2 invalid, " in summary
        decisions = [line.split(", ")[2] for line in done.stdout.decode().splitlines()]
        assert decisions == ["invalid", "invalid", "normal"]

    def test_summary_reports_window_compute_percentiles(self, workspace, tmp_path):
        raw = tmp_path / "audio.f32"
        raw.write_bytes(np.random.default_rng(6).normal(0, 0.1, 5 * 16000)
                        .astype("<f4").tobytes())
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main([*map(str, stream_args(workspace)), "--input", str(raw)])
        assert rc == 0
        (summary,) = err.getvalue().splitlines()
        match = re.fullmatch(
            r"real-time factor: [0-9.]+ \(4 windows, 0 invalid, 5\.0 s audio in [0-9.]+ s\); "
            r"window compute p50 ([0-9.]+) ms, p99 ([0-9.]+) ms, max ([0-9.]+) ms", summary)
        assert match, summary
        p50, p99, most = map(float, match.groups())
        assert 0 < p50 <= p99 <= most < 10_000

    def test_no_windows_reports_no_compute_percentiles(self, workspace, tmp_path):
        raw = tmp_path / "audio.f32"
        raw.write_bytes(np.zeros(16000, "<f4").tobytes())  # 1 s: shorter than a window
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([*map(str, stream_args(workspace)), "--input", str(raw)])
        assert rc == 0 and out.getvalue() == ""
        (summary,) = err.getvalue().splitlines()
        assert "(0 windows, 0 invalid, 1.0 s audio in " in summary
        assert summary.endswith(" s)")

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="malloc thresholds are a glibc setting")
    def test_extra_windows_fault_in_no_fresh_memory(self, workspace, tmp_path):
        # under glibc's dynamic thresholds every window hands its STFT
        # temporaries back to the OS and faults them in again: ~300 faults each
        faults, windows = [], []
        for seconds in (8, 32):
            raw = tmp_path / f"audio{seconds}.f32"
            raw.write_bytes(np.random.default_rng(5).normal(0, 0.1, seconds * 16000)
                            .astype("<f4").tobytes())
            argv, env = cli_command(*stream_args(workspace), "--input", raw)
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
            faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
            assert done.returncode == 0, done.stderr
            windows.append(len(done.stdout.splitlines()))
        assert windows == [7, 31]
        per_window = (faults[1] - faults[0]) / (windows[1] - windows[0])
        assert per_window <= 10, f"{per_window:.0f} minor faults per extra window"

    def test_stray_trailing_bytes_end_with_one_line_error(self, workspace):
        samples = np.zeros(3 * 16000, dtype="<f4").tobytes()
        argv, env = cli_command(*stream_args(workspace))
        done = subprocess.run(argv, env=env, input=samples + b"\x00\x01\x02",
                              capture_output=True, timeout=60)
        assert done.returncode == 1
        err = done.stderr.decode().strip().splitlines()
        assert len(err) == 1 and err[0].startswith("aad stream: ")
        assert "3 stray bytes" in err[0]
        assert done.stdout.decode().splitlines()[0].endswith("normal")

    def test_decision_lines_reach_a_pipe_before_end_of_input(self, workspace):
        argv, env = cli_command(*stream_args(workspace))
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            proc.stdin.write(np.zeros(3 * 16000, dtype="<f4").tobytes())
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            assert ready, "no decision line before end of input"
            assert proc.stdout.readline().decode().startswith("2.000, ")
        finally:
            proc.stdin.close()
            proc.wait(timeout=30)
        assert proc.returncode == 0

    def test_window_is_scored_once_its_last_sample_is_written(self, workspace):
        # exactly one 2 s window, input held open: the decision must not wait
        # for a larger read to fill or for end of input
        argv, env = cli_command(*stream_args(workspace))
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            proc.stdin.write(np.zeros(2 * 16000, dtype="<f4").tobytes())
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, "no decision line for a complete window within 10 s"
            assert proc.stdout.readline().decode().startswith("2.000, ")
        finally:
            proc.stdin.close()
            proc.wait(timeout=30)
        assert proc.returncode == 0
        assert proc.stdout.read() == b""


class _SplitReads:
    """A pipe-like file whose reads return at most the next of the given sizes."""

    def __init__(self, data, sizes):
        self.data, self.sizes = data, list(sizes)

    def read1(self, n):
        size = min(n, self.sizes.pop(0) if self.sizes else n)
        out, self.data = self.data[:size], self.data[size:]
        return out


class TestRawChunkReader:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 3000), sizes=st.lists(st.integers(1, 9000), max_size=12))
    def test_samples_split_across_reads_are_reassembled(self, n, sizes):
        x = np.random.default_rng(n).normal(size=n).astype("<f4")
        count = [0]
        chunks = list(_raw_chunk_reader(_SplitReads(x.tobytes(), sizes), count))
        assert all(len(c) > 0 for c in chunks)
        got = np.concatenate(chunks) if chunks else np.zeros(0, "<f4")
        np.testing.assert_array_equal(got, x)
        assert count == [n]

    @pytest.mark.parametrize("stray", [1, 2, 3])
    def test_stray_bytes_end_with_format_error(self, stray):
        chunks = _raw_chunk_reader(io.BytesIO(b"\x00" * (8 + stray)), [0])
        assert len(next(chunks)) == 2
        with pytest.raises(FormatError, match=f"{stray} stray bytes"):
            next(chunks)

    def test_read_error_propagates(self):
        class Broken:
            def read1(self, n):
                raise OSError("device gone")
        with pytest.raises(OSError, match="device gone"):
            next(_raw_chunk_reader(Broken(), [0]))


class TestTcnDeterminism:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_rerun_writes_byte_identical_checkpoints(self, tmp_path_factory, threads):
        data = tmp_path_factory.getbasetemp() / "tcn_data"
        if not data.exists():
            assert main(["synth", "--out", str(data), "--n-normal", "10",
                         "--n-anomaly", "0", "--sample-rate", "16000",
                         "--seed", "3"]) == 0
        blobs = []
        for run in ("a", "b"):
            out = tmp_path_factory.mktemp(f"tcn{threads}{run}")
            argv, env = cli_command("train", "--root", data, "--out", out,
                                    "--model", "tcn_cvae", "--epochs", "2",
                                    "--seed", "5", *SMALL_FLAGS)
            env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run(argv, env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            blobs.append([(out / name).read_bytes() for name in ("best.aadm", "last.aadm")])
        assert blobs[0] == blobs[1]


class TestStartup:
    def test_import_leaves_scipy_unloaded(self):
        _, env = cli_command()
        code = "import sys, aad.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("cmd", ["stream", "score"])
    def test_checkpoint_commands_leave_numpy_random_unloaded(self, workspace, tmp_path, cmd):
        # loading a checkpoint draws no random init, so numpy.random is never imported
        raw = tmp_path / "audio.f32"
        raw.write_bytes(np.zeros(3 * 16000, "<f4").tobytes())
        args = {"stream": [*stream_args(workspace), "--input", raw],
                "score": ["score", "--root", workspace / "data", "--out", tmp_path / "out",
                          "--model", workspace / "run" / "last.aadm", "--partition", "all",
                          *SMALL_FLAGS]}[cmd]
        _, env = cli_command()
        code = ("import sys, aad.cli; rc = aad.cli.main(sys.argv[1:]); "
                "print('numpy.random' in sys.modules, file=sys.stderr); sys.exit(rc)")
        done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stderr.strip().splitlines()[-1] == "False"


class TestScoreErrors:
    def test_non_finite_normal_score_is_one_line_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        clip = sorted(data.rglob("normal/*.wav"))[0]
        write_wav(clip, np.full(8000, np.nan, np.float32), 16000)
        rc = main(["score", "--root", str(data), "--out", str(tmp_path / "out"),
                   "--model", str(workspace / "run" / "last.aadm"),
                   "--seed", "7", *SMALL_FLAGS])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("aad score: ")
        assert "not finite" in err[0]

    def test_infinite_sample_writes_no_warning(self, workspace, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        clip = sorted(data.rglob("abnormal/*.wav"))[0]
        samples = np.random.default_rng(8).normal(0, 0.1, 8000).astype(np.float32)
        samples[4000] = np.inf
        write_wav(clip, samples, 16000)
        argv, env = cli_command("score", "--root", data, "--out", tmp_path / "out", "--model",
                                workspace / "run" / "last.aadm", "--seed", "7", *SMALL_FLAGS)
        done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert done.returncode == 0 and done.stderr == b"", done.stderr.decode()
        rows = list(csv.DictReader((tmp_path / "out" / "scores.csv").open()))
        (row,) = [r for r in rows if r["clip_path"] == str(clip.relative_to(data))]
        assert (row["score"], row["decision"]) == ("nan", "anomaly")


class TestConfigPrecedence:
    def test_config_file_overridden_by_flags(self, workspace, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 7,
            "features": {"n_fft": 1024, "hop": 512, "n_mels": 8,
                         "context_frames": 1},
        }))
        out = tmp_path / "cache"
        rc = main(["features", "--root", str(workspace / "data"),
                   "--out", str(out), "--config", str(cfg_path),
                   "--n-mels", "4"])
        assert rc == 0
        fm = load_features(sorted(out.rglob("*.aadf"))[0])
        assert fm.dims == 4  # flag beat the config file

    def test_config_env_var(self, workspace, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "features": {"n_fft": 1024, "hop": 512, "n_mels": 8,
                         "context_frames": 1},
        }))
        monkeypatch.setenv("AAD_CONFIG", str(cfg_path))
        out = tmp_path / "cache"
        rc = main(["features", "--root", str(workspace / "data"),
                   "--out", str(out)])
        assert rc == 0
        fm = load_features(sorted(out.rglob("*.aadf"))[0])
        assert fm.dims == 8

    @pytest.mark.parametrize("cmd", ["stream", "features"])
    def test_seed_flag_of_a_command_that_reads_no_seed_is_usage_error(self, workspace,
                                                                        tmp_path, cmd):
        args = {"stream": stream_args(workspace),
                "features": ["features", "--root", workspace / "data",
                             "--out", tmp_path / "cache", *SMALL_FLAGS]}[cmd]
        assert main([*map(str, args), "--seed", "1"]) == 2
        assert not (tmp_path / "cache").exists()

    def test_unknown_config_key_rejected(self, workspace, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"features": {"bogus": 1}}))
        rc = main(["features", "--root", str(workspace / "data"),
                   "--out", str(tmp_path / "cache"), "--config", str(cfg_path)])
        assert rc == 1

    @pytest.mark.parametrize("text", ['{"seed": 7,', '{"features": [1]}',
                                      '{"model": {"bogus": 1}}', '{"seed": "x"}',
                                      '{"features": {"log_floor": "x"}}',
                                      '{"model": {"hidden": 3}}', '{"sed": 7}', '[1, 2]',
                                      '{"features": {"window": "hann"}}', '{"sample_rate": 0}'])
    def test_bad_config_file_is_one_line_error(self, workspace, tmp_path, text, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        rc = main(["train", "--root", str(workspace / "data"), "--out", str(tmp_path / "run"),
                   "--config", str(cfg_path), "--epochs", "1", *SMALL_FLAGS])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("aad train: ")

    def test_bad_json_in_env_config_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"{\xff")
        monkeypatch.setenv("AAD_CONFIG", str(cfg_path))
        rc = main(["synth", "--out", str(tmp_path / "d"), "--n-normal", "1",
                   "--n-anomaly", "0"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("aad synth: ")
        assert "not valid JSON" in err[0]


CONTRACT_FLAGS = ["--n-fft", "1024", "--hop", "512", "--n-mels", "32",
                  "--context-frames", "1"]


def run_cli(argv):
    """(exit code, stdout, stderr lines) of one in-process ``aad`` run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue().splitlines()


class TestCheckpointContract:
    """A version 2 checkpoint holds the features and sample rate it was trained
    with; every command that loads it takes them from it."""

    @pytest.fixture(scope="class")
    def trained(self, workspace, tmp_path_factory):
        """A 32-mel tcn_cvae at hop 512, and 3 s of raw stream input."""
        run = tmp_path_factory.mktemp("contract")
        assert main(["train", "--root", str(workspace / "data"), "--out", str(run),
                     "--model", "tcn_cvae", "--window-frames", "8", "--tcn-layers", "2",
                     "--tcn-channels", "4", "--epochs", "1", "--seed", "7",
                     *CONTRACT_FLAGS]) == 0
        (run / "in.f32").write_bytes(np.random.default_rng(8).normal(0, 0.1, 3 * 16000)
                                     .astype("<f4").tobytes())
        return run

    def argv(self, workspace, trained, cmd, out):
        model = ["--model", trained / "last.aadm"]
        return {"score": ["score", "--root", workspace / "data", "--out", out, *model],
                "eval": ["eval", "--root", workspace / "data", "--out", out, "--p", "0.5",
                         *model],
                "embed": ["embed", "--root", workspace / "data", "--out", out, *model,
                          "--space", "latent", "--perplexity", "5", "--iterations", "20"],
                "stream": ["stream", *model, "--input", trained / "in.f32", "--tau", "1e9",
                           "--window-s", "1", "--hop-s", "0.5"]}[cmd]

    def test_checkpoint_holds_its_features_and_rate(self, trained):
        model = checkpoint_load(trained / "last.aadm")
        assert model.sample_rate == 16000
        assert (model.features == FeatureConfig(n_fft=1024, hop=512, n_mels=32,
                                                context_frames=1))

    @pytest.mark.parametrize("cmd", ["score", "eval", "embed", "stream"])
    def test_outputs_need_no_feature_flags(self, workspace, trained, tmp_path, cmd):
        runs = []
        for name, extra in (("bare", []), ("flags", [*CONTRACT_FLAGS, "--sample-rate", "16000"])):
            out = tmp_path / name
            rc, stdout, err = run_cli([*self.argv(workspace, trained, cmd, out), *extra])
            assert rc == 0, err
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
            runs.append((stdout if cmd == "stream" else "", files))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("cmd,flag,key,value", [
        ("score", "--hop", "features.hop", 512), ("score", "--context-frames",
                                                  "features.context_frames", 1),
        ("score", "--sample-rate", "sample_rate", 16000),
        ("stream", "--sample-rate", "sample_rate", 16000),
        ("eval", "--n-fft", "features.n_fft", 1024),
    ])
    def test_setting_unlike_the_checkpoint_is_one_line(self, workspace, trained, tmp_path,
                                                       cmd, flag, key, value):
        given = {"--hop": 256, "--context-frames": 9, "--sample-rate": 8000,
                 "--n-fft": 2048}[flag]
        rc, stdout, err = run_cli([*self.argv(workspace, trained, cmd, tmp_path / "out"),
                                   flag, given])
        assert (rc, stdout) == (1, "")
        assert err == [f"aad {cmd}: {trained / 'last.aadm'} was trained with "
                       f"{key}={value!r}; given {given!r}"]

    def test_flipped_payload_byte_is_one_line(self, workspace, trained, tmp_path):
        raw = bytearray((trained / "last.aadm").read_bytes())
        raw[-100] ^= 0x10
        (tmp_path / "bad.aadm").write_bytes(bytes(raw))
        rc, _, err = run_cli(["score", "--root", workspace / "data", "--out", tmp_path,
                              "--model", tmp_path / "bad.aadm"])
        assert rc == 1
        assert err == [f"aad score: {tmp_path / 'bad.aadm'}: CRC32 mismatch: "
                       "the file is damaged"]

    def test_version_1_file_takes_features_from_flags(self, workspace, trained, tmp_path):
        v1 = tmp_path / "v1.aadm"
        shutil.copy(trained / "last.aadm", v1)
        write_version_1(v1)
        scores = []
        for name, model in (("v1", v1), ("v2", trained / "last.aadm")):
            rc, _, err = run_cli(["score", "--root", workspace / "data", "--out",
                                  tmp_path / name, "--model", model, *CONTRACT_FLAGS])
            assert rc == 0, err
            scores.append((tmp_path / name / "scores.csv").read_bytes())
        assert scores[0] == scores[1]
        # without the flags a version 1 file is scored at the default features
        rc, _, err = run_cli(["score", "--root", workspace / "data", "--out",
                              tmp_path / "bare", "--model", v1])
        assert rc == 1
        assert err == ["aad score: features have 512 mel bands, the model takes 32"]

    def test_train_on_clips_at_two_rates_needs_one_rate(self, workspace, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        odd = data / "synthetic" / "id_00" / "normal" / "zz.wav"
        write_wav(odd, np.zeros(4000, np.float32), 8000)
        rc, _, err = run_cli(["train", "--root", data, "--out", tmp_path / "run",
                              "--epochs", "0", "--test-fraction", "0.04", *SMALL_FLAGS])
        assert rc == 1
        assert len(err) == 1 and err[0].endswith(
            "synthetic/id_00/normal/zz.wav at 8000 Hz: set one sample_rate")
        assert not (tmp_path / "run" / "last.aadm").exists()
        rc, _, err = run_cli(["train", "--root", data, "--out", tmp_path / "run",
                              "--epochs", "0", "--test-fraction", "0.04",
                              "--sample-rate", "16000", *SMALL_FLAGS])
        assert rc == 0, err
        assert checkpoint_load(tmp_path / "run" / "last.aadm").sample_rate == 16000


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["synth", "--wat", "1"]) == 2
        capsys.readouterr()

    def test_missing_checkpoint_is_pipeline_error(self, workspace, capsys):
        rc = main(["eval", "--root", str(workspace / "data"),
                   "--out", str(workspace / "run"),
                   "--model", "/nonexistent.aadm", *SMALL_FLAGS])
        assert rc == 1
        assert "aad eval" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["score", "stream"])
    def test_features_the_model_does_not_take_are_one_line_error(self, workspace, cmd,
                                                                 tmp_path, capsys):
        raw = tmp_path / "audio.f32"
        raw.write_bytes(np.zeros(3 * 16000, dtype="<f4").tobytes())
        args = {"score": ["--root", workspace / "data", "--out", tmp_path / "out"],
                "stream": ["--input", raw, "--tau", "1"]}[cmd]
        rc = main([cmd, *map(str, args), "--model", str(workspace / "run" / "last.aadm"),
                   "--n-mels", "8", "--context-frames", "1"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"aad {cmd}: ")
        assert err[0].endswith("was trained with features.n_mels=16; given 8")

    def test_empty_dataset_is_pipeline_error(self, tmp_path, capsys):
        rc = main(["features", "--root", str(tmp_path),
                   "--out", str(tmp_path / "out"), *SMALL_FLAGS])
        assert rc == 1
        capsys.readouterr()


def one_line_error(capsys, cmd):
    """The single stderr line of a failed command."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"aad {cmd}: "), err
    return err[0]


class TestRejectedValues:
    """Values that used to end in a silent wrong answer or a traceback."""

    @pytest.fixture(scope="class")
    def tcn_checkpoint(self, workspace, tmp_path_factory):
        run = tmp_path_factory.mktemp("tcn")
        assert main(["train", "--root", str(workspace / "data"), "--out", str(run),
                     "--model", "tcn_cvae", "--window-frames", "8", "--tcn-layers", "2",
                     "--tcn-channels", "4", "--epochs", "0", "--seed", "7",
                     *SMALL_FLAGS]) == 0
        return run / "last.aadm"

    def stream(self, checkpoint, tmp_path, *flags):
        raw = tmp_path / "audio.f32"
        raw.write_bytes(np.zeros(16000, dtype="<f4").tobytes())
        return main(["stream", "--input", str(raw), "--model", str(checkpoint),
                     "--sample-rate", "16000", *SMALL_FLAGS, *flags])

    def test_stream_window_shorter_than_the_model_input(self, tcn_checkpoint, tmp_path,
                                                        capsys):
        # 8 frames of hop 512 after a 1024-point frame: 4608 samples, 0.288 s
        assert self.stream(tcn_checkpoint, tmp_path, "--tau", "1e9",
                           "--window-s", "0.288", "--hop-s", "0.1") == 0
        capsys.readouterr()
        rc = self.stream(tcn_checkpoint, tmp_path, "--tau", "1e9",
                         "--window-s", "0.287", "--hop-s", "0.1")
        assert rc == 1
        assert "gives 7 frames" in one_line_error(capsys, "stream")

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_stream_non_finite_tau(self, workspace, tmp_path, capsys, tau):
        rc = self.stream(workspace / "run" / "last.aadm", tmp_path, f"--tau={tau}",
                         "--window-s", "0.5", "--hop-s", "0.25")
        assert rc == 1
        assert "--tau" in one_line_error(capsys, "stream")

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_score_non_finite_tau(self, workspace, tmp_path, capsys, tau):
        rc = main(["score", "--root", str(workspace / "data"), "--out", str(tmp_path),
                   "--model", str(workspace / "run" / "last.aadm"), f"--tau={tau}",
                   *SMALL_FLAGS])
        assert rc == 1
        assert "--tau" in one_line_error(capsys, "score")
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.parametrize("lr", ["-1", "0"])
    def test_train_lr_not_positive(self, workspace, tmp_path, capsys, lr):
        rc = main(["train", "--root", str(workspace / "data"), "--out", str(tmp_path),
                   "--epochs", "1", "--lr", lr, *SMALL_FLAGS])
        assert rc == 1
        assert "lr" in one_line_error(capsys, "train")

    @pytest.mark.parametrize("p", ["0", "-0.1", "1.5", "nan"])
    def test_eval_p_outside_unit_interval(self, workspace, tmp_path, capsys, p):
        rc = main(["eval", "--root", str(workspace / "data"), "--out", str(tmp_path),
                   "--model", str(workspace / "run" / "last.aadm"), "--p", p,
                   *SMALL_FLAGS])
        assert rc == 1
        assert "p must be in (0, 1]" in one_line_error(capsys, "eval")

    @pytest.mark.parametrize("cmd", ["train", "score", "eval", "embed"])
    def test_negative_seed(self, workspace, tmp_path, capsys, cmd):
        model = [] if cmd in ("train", "embed") else ["--model", str(workspace / "run" / "last.aadm")]
        rc = main([cmd, "--root", str(workspace / "data"), "--out", str(tmp_path),
                   "--seed", "-1", *model, *SMALL_FLAGS])
        assert rc == 1
        assert "seed must be >= 0, got -1" in one_line_error(capsys, cmd)

    @pytest.mark.parametrize("flag,value", [("--window-frames", "0"), ("--window-frames", "-1"),
                                            ("--tcn-channels", "0"), ("--tcn-channels", "-1")])
    def test_tcn_size_below_one(self, workspace, tmp_path, capsys, flag, value):
        # window_frames 0 trained to a checkpoint of NaN; the others were tracebacks
        rc = main(["train", "--root", str(workspace / "data"), "--out", str(tmp_path),
                   "--model", "tcn_cvae", "--epochs", "1", flag, value, *SMALL_FLAGS])
        assert rc == 1
        field = flag[2:].replace("-", "_")
        assert f"{field} must be >= 1, got {value}" in one_line_error(capsys, "train")
        assert not (tmp_path / "last.aadm").exists()

    @pytest.mark.parametrize("argv,message", [
        (["features", "--n-fft", "0"], "n_fft must be >= 1, got 0"),
        (["features", "--n-fft", "-5", "--hop", "1"], "n_fft must be >= 1, got -5"),
        (["embed", "--perplexity", "nan"], "perplexity must be a finite number > 1, got nan"),
    ])
    def test_value_named_before_any_clip_is_read(self, workspace, tmp_path, capsys,
                                                 monkeypatch, argv, message):
        # these named the wrong key, or read every clip before failing
        import aad.audio_io
        monkeypatch.setattr(aad.audio_io, "read_wav", lambda path: pytest.fail(path))
        rc = main([*argv, "--root", str(workspace / "data"), "--out", str(tmp_path)])
        assert rc == 1
        assert one_line_error(capsys, argv[0]) == f"aad {argv[0]}: {message}"

    def test_embed_max_clips_zero(self, workspace, tmp_path, capsys):
        rc = main(["embed", "--root", str(workspace / "data"), "--out", str(tmp_path),
                   "--max-clips", "0", *SMALL_FLAGS])
        assert rc == 1
        assert "--max-clips" in one_line_error(capsys, "embed")

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf", "0.00001", "0"])
    def test_synth_duration_without_a_sample(self, tmp_path, capsys, duration):
        # nan and inf were a ValueError/OverflowError traceback; 0.00001 s wrote
        # 0-sample WAVs that every later command rejected
        rc = main(["synth", "--out", str(tmp_path), "--n-normal", "1", "--n-anomaly", "1",
                   f"--duration-s={duration}"])
        assert rc == 1
        assert "duration_s must be finite and give at least one sample" in one_line_error(
            capsys, "synth")
        assert not list(tmp_path.rglob("*.wav"))

    @pytest.mark.parametrize("text", ['{"features": {"log_floor": NaN}}',
                                      '{"features": {"log_floor": Infinity}}',
                                      '{"features": {"mel_break_hz": NaN}}',
                                      '{"features": {"mel_break_hz": -700}}'])
    def test_features_floor_and_mel_break_not_finite_positive(self, workspace, tmp_path,
                                                             capsys, text):
        # a NaN log_floor exited 0 with every AADF value NaN
        (tmp_path / "cfg.json").write_text(text)
        rc = main(["features", "--config", str(tmp_path / "cfg.json"),
                   "--root", str(workspace / "data"), "--out", str(tmp_path / "out"),
                   *SMALL_FLAGS])
        assert rc == 1
        assert "must be a finite number > 0" in one_line_error(capsys, "features")
        assert not list(tmp_path.rglob("*.aadf"))

    def test_embed_leaves_numpy_ma_unloaded(self, workspace, tmp_path):
        # duplicate rows are found without np.unique(axis=0), which imports numpy.ma
        args = ["embed", "--root", workspace / "data", "--out", tmp_path,
                "--perplexity", "5", "--iterations", "10", *SMALL_FLAGS]
        _, env = cli_command()
        code = ("import sys, aad.cli; rc = aad.cli.main(sys.argv[1:]); "
                "print('numpy.ma' in sys.modules, file=sys.stderr); sys.exit(rc)")
        done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stderr.strip().splitlines()[-1] == "False"


class TestOneClipAtATime:
    """Commands that read a dataset hold one clip's features at a time."""

    @pytest.fixture(scope="class")
    def short_clips(self, tmp_path_factory):
        """1 s clips (30 frames) and a tcn_cvae trained on 2 s clips with 32-frame windows."""
        ws = tmp_path_factory.mktemp("short")
        for name, seconds in (("long", "2"), ("short", "1")):
            assert main(["synth", "--out", str(ws / name), "--n-normal", "4",
                         "--n-anomaly", "2", "--duration-s", seconds,
                         "--sample-rate", "16000", "--seed", "3"]) == 0
        assert main(["train", "--root", str(ws / "long"), "--out", str(ws / "run"),
                     "--model", "tcn_cvae", "--window-frames", "32", "--tcn-layers", "2",
                     "--tcn-channels", "4", "--epochs", "0", *SMALL_FLAGS]) == 0
        return ws

    @pytest.mark.parametrize("cmd,extra", [("score", []), ("eval", []),
                                           ("embed", ["--space", "latent"])])
    def test_clips_shorter_than_the_model_window(self, short_clips, cmd, extra, tmp_path,
                                                 capsys):
        capsys.readouterr()
        rc = main([cmd, "--root", str(short_clips / "short"), "--out", str(tmp_path),
                   "--model", str(short_clips / "run" / "last.aadm"), *extra, *SMALL_FLAGS])
        assert rc == 1
        line = one_line_error(capsys, cmd)
        assert re.search(r"synthetic/id_00/\w+/000\d\.wav: 30 frames < window_frames 32", line)

    def test_train_clip_shorter_than_one_fft_frame(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        short = data / "synthetic" / "id_00" / "normal" / "short.wav"
        write_wav(short, np.zeros(1000, np.float32), 16000)
        rc = main(["train", "--root", str(data), "--out", str(tmp_path / "run"),
                   "--epochs", "1", "--test-fraction", "0.04", *SMALL_FLAGS])
        assert rc == 1
        line = one_line_error(capsys, "train")
        assert line.endswith("synthetic/id_00/normal/short.wav: clip has 1000 samples, "
                             "need >= 1024")
        assert not (tmp_path / "run" / "last.aadm").exists()

    def test_embed_max_clips_reads_only_the_drawn_clips(self, workspace, tmp_path,
                                                        monkeypatch):
        import aad.audio_io
        read = aad.audio_io.read_wav
        paths = []
        monkeypatch.setattr(aad.audio_io, "read_wav",
                            lambda path: paths.append(path) or read(path))
        rc = main(["embed", "--root", str(workspace / "data"), "--out", str(tmp_path),
                   "--max-clips", "5", "--perplexity", "1.2", "--iterations", "10",
                   "--seed", "7", *SMALL_FLAGS])
        assert rc == 0
        assert len(paths) == len(set(paths)) == 5
        rows = (tmp_path / "embed_features.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 5

    def test_eval_names_each_id_whose_pauc_selects_no_normal(self, workspace, tmp_path,
                                                             capsys):
        # the test partition holds 2 of the 24 normals: p=0.05 selects none of them
        rc = main(["eval", "--root", str(workspace / "data"), "--out", str(tmp_path),
                   "--model", str(workspace / "run" / "last.aadm"), "--seed", "7",
                   "--p", "0.05", *SMALL_FLAGS])
        assert rc == 0
        ids = json.loads((tmp_path / "report.json").read_text())["machines"][0]["ids"]
        assert ids[0]["pauc"] is None and ids[0]["auc"] is not None
        assert capsys.readouterr().err.splitlines() == [
            "aad eval: synthetic id 0: pauc is null: p=0.05 selects none of 2 normal "
            "clips; p >= 1/2 = 0.5 selects one"]
        rc = main(["eval", "--root", str(workspace / "data"), "--out", str(tmp_path),
                   "--model", str(workspace / "run" / "last.aadm"), "--seed", "7",
                   "--p", "0.5", *SMALL_FLAGS])
        assert rc == 0
        assert capsys.readouterr().err == ""


class TestProcessLevel:
    def test_allocation_numpy_refuses_is_one_line_error(self, tmp_path, capsys):
        # 1e12 s at 16 kHz asks for 114 PiB, which numpy refuses before allocating
        rc = main(["synth", "--out", str(tmp_path), "--n-normal", "1", "--n-anomaly", "0",
                   "--duration-s", "1e12"])
        assert rc == 1
        assert "out of memory: Unable to allocate" in one_line_error(capsys, "synth")

    def test_gc_freeze_at_exit_is_registered_once(self, monkeypatch, capsys):
        import atexit
        import gc
        import aad.cli
        registered = []
        monkeypatch.setattr(atexit, "register", registered.append)
        aad.cli._freeze_objects_at_exit.cache_clear()
        for argv in (["synth", "--help"], ["nonsense"], ["stream", "--help"]):
            main(argv)
        assert registered == [gc.freeze]


# each numeric flag a command takes, with a typical value; the drawn values
# are small, since a large size (say --duration-s 1e4) really allocates
FEATURE_VALUES = {"--sample-rate": "16000", "--n-fft": "1024", "--hop": "512",
                  "--n-mels": "16", "--context-frames": "1"}
NUMERIC_FLAGS = {
    "features": FEATURE_VALUES,
    "train": {**FEATURE_VALUES, "--seed": "7", "--test-fraction": "0.25",
              "--window-frames": "8", "--latent-dim": "4", "--tcn-layers": "2",
              "--tcn-channels": "4", "--epochs": "1", "--batch-size": "32",
              "--lr": "0.001", "--validation-split": "0.25"},
    "score": {**FEATURE_VALUES, "--seed": "7", "--test-fraction": "0.25", "--tau": None,
              "--max-fpr": "0.1"},  # tau unset by default, so that max_fpr is read
    "eval": {**FEATURE_VALUES, "--seed": "7", "--test-fraction": "0.5", "--p": "0.5"},
    "embed": {**FEATURE_VALUES, "--seed": "7", "--dims": "2", "--perplexity": "3",
              "--iterations": "20", "--max-clips": "12"},
    "stream": {**FEATURE_VALUES, "--tau": "1.0", "--window-s": "0.5", "--hop-s": "0.25"},
}
EDGE_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e-12"]


def finite_numbers(values):
    return all(math.isfinite(float(v)) for v in values)


def outputs_are_finite(cmd, out, stdout):
    """Every number a command that exited 0 wrote is finite."""
    if cmd == "synth":  # and every clip has a sample
        clips = [read_wav(p) for p in out.rglob("*.wav")]
        return all(len(c.samples) and np.isfinite(c.samples).all() for c in clips)
    if cmd == "features":
        cached = list(out.rglob("*.aadf"))
        return cached and all(np.isfinite(load_features(p).data).all() for p in cached)
    if cmd == "train":
        checkpoint_load(out / "last.aadm")  # a non-finite tensor is a FormatError
        rows = list(csv.DictReader((out / "trainlog.csv").read_text().splitlines()))
        return finite_numbers(v for r in rows for v in (r["train_loss"], r["val_loss"]) if v)
    if cmd == "score":
        rows = list(csv.DictReader((out / "scores.csv").read_text().splitlines()))
        return rows and finite_numbers(r["score"] for r in rows)
    if cmd == "eval":
        report = json.loads((out / "report.json").read_text())
        cells = [c for m in report["machines"] for c in [*m["ids"], m["avg"]]]
        return finite_numbers(c[k] for c in cells for k in ("auc", "pauc") if c[k] is not None)
    if cmd == "embed":
        rows = list(csv.reader((out / "embed_features.csv").read_text().splitlines()))[1:]
        return rows and finite_numbers(v for r in rows for v in r[:-1])
    lines = [line.split(", ") for line in stdout.splitlines()]
    return finite_numbers(line[1] for line in lines) and all(
        line[2] in ("normal", "anomaly") for line in lines)


def answer_or_one_line(cmd, argv, out, config=None):
    """Run ``aad`` in-process and require exit 0 with finite outputs under
    ``out``, exit 1 with one stderr line, or a usage error (exit 2). The
    ``config`` file's contents, if any, are named on failure."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        rc = main(argv)
    err = stderr.getvalue().splitlines()
    assert rc in (0, 1, 2), (argv, config, rc)
    if rc == 1:
        assert len(err) == 1 and err[0].startswith(f"aad {cmd}: "), (argv, config, err)
    if rc == 0:
        assert outputs_are_finite(cmd, out, stdout.getvalue()), (argv, config)
    return rc


class TestNumericFlagProperty:
    """Every numeric flag of the dataset and model commands, drawn from edge values:
    a right answer with finite outputs, a one-line error (exit 1) or a usage error
    (exit 2), and nothing else."""

    @pytest.fixture(scope="class")
    def stream_input(self, tmp_path_factory):
        raw = tmp_path_factory.mktemp("prop") / "in.f32"
        raw.write_bytes(np.random.default_rng(3).normal(0, 0.1, 16000).astype("<f4").tobytes())
        return raw

    @pytest.mark.parametrize("cmd", list(NUMERIC_FLAGS))
    def test_flags_end_in_an_answer_or_one_line(self, workspace, stream_input, cmd):
        flags = NUMERIC_FLAGS[cmd]
        # up to two flags take edge values at once and the rest their typical
        # values, so that answers (exit 0) are drawn too, not only errors
        edges = st.dictionaries(st.sampled_from(list(flags)), st.sampled_from(EDGE_VALUES),
                                max_size=2)

        @settings(max_examples=60, deadline=None, database=None)
        @given(edges)
        @example({})
        def check(edge):
            drawn = {**flags, **edge}
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "out"
                argv = [cmd, *(f"{flag}={value}" for flag, value in drawn.items()
                               if value is not None)]
                if cmd == "stream":
                    argv += ["--input", str(stream_input)]
                else:
                    argv += ["--root", str(workspace / "data"), "--out", str(out)]
                if cmd == "train":
                    argv += ["--model", "tcn_cvae"]
                elif cmd == "score":
                    argv += ["--partition", "test"]
                if cmd in ("score", "eval", "stream"):
                    argv += ["--model", str(workspace / "run" / "last.aadm")]
                answer_or_one_line(cmd, argv, out)

        check()


class TestSynthProperty:
    """``aad synth`` over edge clip counts, rates and durations, drawn so that no
    draw allocates for real: every clip asked for, each of at least one finite
    sample, a one-line error (exit 1) or a usage error (exit 2)."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(n_normal=st.sampled_from([-1, 0, 1, 2]), n_anomaly=st.sampled_from([-1, 0, 1, 2]),
           rate=st.sampled_from([-1, 0, 1, 8000]),
           duration=st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e-12", "0.25"]))
    @example(n_normal=1, n_anomaly=1, rate=8000, duration="nan")
    @example(n_normal=1, n_anomaly=1, rate=8000, duration="1e-12")
    @example(n_normal=2, n_anomaly=2, rate=8000, duration="0.25")
    @example(n_normal=1, n_anomaly=2, rate=8000, duration="0.000125")  # one sample
    def test_clips_with_samples_or_one_line(self, n_normal, n_anomaly, rate, duration):
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["synth", "--out", tmp, f"--n-normal={n_normal}",
                    f"--n-anomaly={n_anomaly}", f"--sample-rate={rate}",
                    f"--duration-s={duration}"]
            if answer_or_one_line("synth", argv, Path(tmp)) == 0:
                assert len(list(Path(tmp).rglob("*.wav"))) == n_normal + n_anomaly, argv


# each numeric config key with a typical value, by the command that draws it
# through a config file; every command also gets the feature keys' values
FEATURE_KEYS = {"sample_rate": 16000, "features.n_fft": 1024, "features.hop": 512,
                "features.n_mels": 16, "features.context_frames": 1, "features.fmin": 0.0,
                "features.fmax": 8000.0, "features.log_floor": 1e-10,
                "features.mel_break_hz": 700.0}
NUMERIC_KEYS = {
    "features": FEATURE_KEYS,
    "train": {"seed": 7, "test_normal_fraction": 0.25, "model.window_frames": 8,
              "model.window_hop": 4, "model.hidden": [8], "model.bottleneck": 2,
              "model.conv_channels": [4, 8], "model.latent_dim": 4, "model.tcn_layers": 2,
              "model.kernel": 3, "model.tcn_channels": 4, "train.epochs": 1,
              "train.batch_size": 32, "train.lr": 0.001, "train.validation_split": 0.25},
    "embed": {"embed.output_dims": 2, "embed.perplexity": 3.0, "embed.iterations": 20},
}
CONFIG_EDGES = [0, -1, math.nan, math.inf, -math.inf, 1e-12]


def numeric_config_keys():
    """Every config key settable in a file whose field holds a number or numbers."""
    keys = set()
    for f in fields(RunConfig):
        hint = field_hints(RunConfig)[f.name]
        named = ({f.name: hint} if f.init else
                 {f"{f.name}.{k}": v for k, v in field_hints(hint).items()})
        for key, hint in named.items():
            hint = required_type(hint)
            if ((hint in (int, float) or get_origin(hint) is tuple)
                    and _HOMES.get(key.rpartition(".")[2], key) == key):
                keys.add(key)
    return keys


class TestNumericConfigKeyProperty:
    """Every numeric key of a config file, drawn from edge values: a right answer
    with finite outputs, a one-line error (exit 1) or a usage error (exit 2)."""

    def test_every_numeric_key_is_drawn(self):
        assert {k for keys in NUMERIC_KEYS.values() for k in keys} == numeric_config_keys()

    @pytest.mark.parametrize("cmd", list(NUMERIC_KEYS))
    def test_keys_end_in_an_answer_or_one_line(self, workspace, cmd):
        typical = {**FEATURE_KEYS, **NUMERIC_KEYS[cmd]}
        kinds = MODEL_KINDS if cmd == "train" else ("dense_ae",)

        def run(edge, kind):
            # the keys not in ``edge`` take their typical values; a tuple key
            # takes its edge value as its one entry
            drawn = {**typical, **{k: [v] if isinstance(typical[k], list) else v
                                   for k, v in edge.items()}}
            tree = {"model": {"kind": kind}} if cmd == "train" else {}
            for key, value in drawn.items():
                section, _, name = key.rpartition(".")
                (tree.setdefault(section, {}) if section else tree)[name] = value
            with tempfile.TemporaryDirectory() as tmp:
                config, out = Path(tmp) / "config.json", Path(tmp) / "out"
                config.write_text(json.dumps(tree))
                answer_or_one_line(cmd, [cmd, "--config", str(config), "--root",
                                         str(workspace / "data"), "--out", str(out)], out,
                                   config=config.read_text())

        # every key alone at every edge value, the model kinds taken in turn ...
        singles = [(key, value) for key in NUMERIC_KEYS[cmd] for value in CONFIG_EDGES]
        for i, (key, value) in enumerate(singles):
            run({key: value}, kinds[i % len(kinds)])

        # ... then pairs of keys at edge values
        @settings(max_examples=20, deadline=None, database=None)
        @given(st.dictionaries(st.sampled_from(list(NUMERIC_KEYS[cmd])),
                               st.sampled_from(CONFIG_EDGES), min_size=2, max_size=2),
               st.sampled_from(kinds))
        def pairs(edge, kind):
            run(edge, kind)

        run({}, kinds[-1])
        pairs()


class TestStreamBytesProperty:
    """Raw stream input of any byte length, with NaN, infinite and huge samples:
    exit 0 with one line per whole window, every non-finite score reading
    ``invalid``, or exit 1 with the one stray-bytes line."""

    WINDOW, HOP = 2000, 1000  # samples: --window-s 0.125 --hop-s 0.0625 at 16 kHz

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(0, 6000), stray=st.sampled_from([0, 0, 1, 2, 3]),
           specials=st.lists(st.tuples(st.integers(0, 5999), st.sampled_from(
               [math.nan, math.inf, -math.inf, 3e38, -3e38])), max_size=3))
    @example(n=4000, stray=0, specials=[(2500, math.nan)])
    @example(n=4000, stray=2, specials=[])
    def test_windows_or_the_stray_bytes_line(self, workspace, n, stray, specials):
        samples = np.random.default_rng(n).normal(0, 0.1, n).astype("<f4")
        for at, value in specials:
            if n:
                samples[at % n] = value
        with tempfile.TemporaryDirectory() as tmp:
            raw = Path(tmp) / "in.f32"
            raw.write_bytes(samples.tobytes() + b"\x7f" * stray)
            rc, stdout, err = run_cli(["stream", "--model", workspace / "run" / "last.aadm",
                                       "--input", raw, "--tau", "1e9", "--window-s", "0.125",
                                       "--hop-s", "0.0625"])
        if stray:
            assert rc == 1
            assert err == [f"aad stream: input ends with {stray} stray bytes; "
                           "expected whole float32 samples"]
            return
        assert rc == 0 and len(err) == 1 and err[0].startswith("real-time factor: "), err
        rows = [line.split(", ") for line in stdout.splitlines()]
        assert len(rows) == (1 + (n - self.WINDOW) // self.HOP if n >= self.WINDOW else 0)
        for _, score, decision in rows:
            assert decision == ("normal" if math.isfinite(float(score)) else "invalid")


def oracle_index(root):
    """(machine type, ID, label, path) of each labeled .wav under root, found
    without ``scan_dataset``, and the first two ID directories that name one
    ID (or None)."""
    entries, homes = [], {}
    for wav in sorted(root.glob("*/*/*/*.wav")):
        label_dir, id_dir, mtype = wav.parent.name, wav.parent.parent.name, wav.parents[2].name
        digits = id_dir[3:]
        if (not id_dir.startswith("id_") or label_dir not in ("normal", "abnormal")
                or not re.fullmatch("[0-9]+", digits)):
            continue
        mid = int(digits)
        home = homes.setdefault((mtype, mid), id_dir)
        if home != id_dir:
            return entries, (f"{mtype}/{home}", f"{mtype}/{id_dir}", mid)
        label = "normal" if label_dir == "normal" else "anomaly"
        entries.append((mtype, mid, label, str(wav.relative_to(root))))
    return entries, None


class TestDatasetTreeProperty:
    """Small dataset trees (ID spellings, label folders, a .wav that is a
    directory, a dangling .wav link): ``aad features`` caches the clips of the
    right index, or ends in one ``aad features:`` line."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(dirs=st.lists(st.tuples(
        st.sampled_from(["id_00", "id_0", "id_+0", "id_01", "id_1", "id_1_0", "id_10",
                         "id_ 1", "id_\u0661", "id_x", "id_", "ID_00"]),
        st.sampled_from(["normal", "abnormal", "other"]),
        st.sampled_from(["clip", "clip", "directory", "dangling"])), min_size=1, max_size=4))
    @example(dirs=[("id_00", "normal", "clip"), ("id_0", "normal", "clip")])
    @example(dirs=[("id_00", "normal", "clip"), ("id_00", "abnormal", "directory")])
    @example(dirs=[("id_1_0", "normal", "clip"), ("id_10", "abnormal", "clip")])
    def test_right_index_or_one_line(self, dirs):
        with tempfile.TemporaryDirectory() as tmp:
            root, out = Path(tmp) / "data", Path(tmp) / "out"
            for i, (id_dir, label, kind) in enumerate(dirs):
                wav = root / "fan" / id_dir / label / f"{i}.wav"
                wav.parent.mkdir(parents=True, exist_ok=True)
                if kind == "clip":
                    write_wav(wav, np.zeros(1024, np.float32), 16000)
                elif kind == "directory":
                    wav.mkdir()
                else:
                    wav.symlink_to(root / "missing.wav")
            expected, clash = oracle_index(root)
            rc, _, err = run_cli(["features", "--root", root, "--out", out, *SMALL_FLAGS])
            if rc == 0:
                found = aad.audio_io.scan_dataset(root).entries
                assert clash is None
                assert expected == [(e.machine_type, e.machine_id, e.label, e.path) for e in found]
                cached = sorted(str(p.relative_to(out).with_suffix(".wav"))
                                for p in out.rglob("*.aadf"))
                assert cached == sorted(e[3] for e in expected)
                return
        assert rc == 1 and len(err) == 1 and err[0].startswith("aad features: "), err
        if clash:
            assert err == ["aad features: {} and {} both name fan id {}".format(*clash)]
