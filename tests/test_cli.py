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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aad
from aad.cli import _raw_chunk_reader, main
from aad.features import FeatureConfig, load_features, log_mel
from aad.audio_io import AudioClip, write_wav
from aad.errors import FormatError
from aad.models import checkpoint_load
from aad.scoring import anomaly_score

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
        assert "8 mel bands" in err[0]

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

    def test_embed_max_clips_zero(self, workspace, tmp_path, capsys):
        rc = main(["embed", "--root", str(workspace / "data"), "--out", str(tmp_path),
                   "--max-clips", "0", *SMALL_FLAGS])
        assert rc == 1
        assert "--max-clips" in one_line_error(capsys, "embed")

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
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    rc = main(argv)
                err = stderr.getvalue().splitlines()
                assert rc in (0, 1, 2), (argv, rc)
                if rc == 1:
                    assert len(err) == 1 and err[0].startswith(f"aad {cmd}: "), (argv, err)
                if rc == 0:
                    assert outputs_are_finite(cmd, out, stdout.getvalue()), argv

        check()
