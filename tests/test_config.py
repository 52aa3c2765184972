"""Config resolution of every `aad` command: defaults < config file < flags.

The table below names every config key and every command that reads it.
For each pair, the value set in a config file and the value set by flag
(where the key has one) must give byte-identical outputs, and both must
differ from the default's. The commands that load a checkpoint take the
features and sample rate from it: for them a value unlike the checkpoint's
must be the same one-line error, from a file or a flag.
"""

import io
import json
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

from aad.cli import CONFIG_FLAGS, RunConfig, main
from aad.models import _RETIRED_FEATURES, _RETIRED_SPEC, checkpoint_load

DATASET_CMDS = ("features", "train", "score", "eval", "embed")
FEATURE_CMDS = (*DATASET_CMDS, "stream")
LOADERS = ("score", "eval", "stream")  # check the features against the checkpoint

# key -> (a valid non-default value, the commands that read it)
READERS = {
    "seed": (3, ("synth", "train", "score", "eval", "embed")),
    "sample_rate": (8000, ("synth", *FEATURE_CMDS)),
    "dataset_root": (None, DATASET_CMDS),  # the test dataset
    "output_dir": (None, ("synth", *DATASET_CMDS)),  # a fresh directory
    "test_normal_fraction": (0.3, ("train", "score", "eval")),
    "features.n_fft": (2048, FEATURE_CMDS),
    "features.hop": (256, FEATURE_CMDS),
    "features.n_mels": (8, FEATURE_CMDS),
    "features.context_frames": (3, ("features", "train", *LOADERS)),
    "model.kind": ("tcn_cvae", ("train",)),
    "model.window_frames": (16, ("train",)),
    "model.window_hop": (8, ("train",)),
    "model.hidden": ([32, 32], ("train",)),
    "model.bottleneck": (4, ("train",)),
    "model.conv_channels": ([8, 16], ("train",)),
    "model.latent_dim": (12, ("train",)),
    "model.tcn_layers": (3, ("train",)),
    "model.kernel": (2, ("train",)),
    "model.tcn_channels": (16, ("train",)),
    "train.epochs": (2, ("train",)),
    "train.batch_size": (4, ("train",)),
    "train.lr": (0.01, ("train",)),
    "train.validation_split": (0.25, ("train",)),
    "embed.output_dims": (3, ("embed",)),
    "embed.perplexity": (2.5, ("embed",)),
    "embed.iterations": (20, ("embed",)),
}
# keys that no longer exist (the loss follows the model kind; the t-SNE
# schedule, the mel band, its knee, the power floor and input normalization are
# fixed) -> (a value they once took, the type they had, the commands that read
# them); a feature or model key's value is the one checkpoints may still hold it at
REMOVED = {
    "train.loss": ("vae", str, ("train",)),
    "embed.learning_rate": (100.0, float, ("embed",)),
    "embed.early_exaggeration": (4.0, float, ("embed",)),
    "embed.exaggeration_iters": (5, int, ("embed",)),
    "embed.momentum_start": (0.3, float, ("embed",)),
    "embed.momentum_final": (0.9, float, ("embed",)),
    "embed.momentum_switch_iter": (3, int, ("embed",)),
    "features.fmin": (0.0, float, FEATURE_CMDS),
    "features.fmax": (None, float | None, FEATURE_CMDS),
    "features.log_floor": (1e-10, float, FEATURE_CMDS),
    "features.mel_break_hz": (700.0, float, FEATURE_CMDS),
    "features.slaney_norm": (False, bool, FEATURE_CMDS),
    "model.normalize": (True, bool, ("train",)),
}
# facts held by more than one config type, settable only at their home
SHARED = {"model.seed", "model.n_mels", "model.context_frames", "train.seed", "embed.seed"}

# settings every run of a command starts from, by config key; the key under
# test is taken out and set by file or by flag instead
BASE = {
    "features.n_fft": 1024, "features.hop": 512, "features.n_mels": 16,
    "features.context_frames": 1,
}
BASE_BY_CMD = {
    "synth": {},
    "features": BASE,
    "train": {**BASE, "train.epochs": 1},
    "score": BASE,
    "eval": {**BASE, "test_normal_fraction": 0.5},
    "embed": {**BASE, "embed.perplexity": 3.0, "embed.iterations": 10},
    "stream": BASE,
}
EXTRA_ARGS = {
    "synth": ["--n-normal", "2", "--n-anomaly", "1", "--duration-s", "0.5"],
    "score": ["--partition", "test"],
    "eval": ["--p", "0.5"],
    "stream": ["--tau", "1e9"],
}


def hint_of(key):
    """The annotation of a config key: a RunConfig field or section.field."""
    hints = get_type_hints(RunConfig)
    section, _, name = key.rpartition(".")
    return get_type_hints(hints[section])[name] if section else hints[key]


def all_config_keys():
    keys = set()
    for f in fields(RunConfig):
        section = get_type_hints(RunConfig)[f.name]
        keys.update([f.name] if f.init else (f"{f.name}.{g.name}" for g in fields(section)))
    return keys - SHARED


def test_table_covers_every_config_key():
    assert set(READERS) == all_config_keys()


def nested(settings: dict) -> dict:
    tree: dict = {}
    for key, value in settings.items():
        section, _, name = key.rpartition(".")
        (tree.setdefault(section, {}) if section else tree)[name] = value
    return tree


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A small dataset, a checkpoint at the base features, and raw stream input."""
    ws = tmp_path_factory.mktemp("config_ws")
    assert main(["synth", "--out", str(ws / "data"), "--n-normal", "10", "--n-anomaly", "2",
                 "--duration-s", "2", "--seed", "1"]) == 0
    # normal sound filed as anomalies, so AUC and pAUC depend on the held-out normals
    for i, clip in enumerate(sorted((ws / "data").rglob("normal/*.wav"))[:3]):
        shutil.copy(clip, clip.parent.parent / "abnormal" / f"copy{i}.wav")
    assert main(["train", "--root", str(ws / "data"), "--out", str(ws / "run"),
                 "--epochs", "1", "--n-mels", "16", "--context-frames", "1"]) == 0
    samples = np.random.default_rng(2).normal(0, 0.1, 3 * 16000).astype("<f4")
    (ws / "in.f32").write_bytes(samples.tobytes())
    return ws


def flag_of(cmd, key):
    flags = {"--sample-rate": "sample_rate", **CONFIG_FLAGS[cmd]}
    return next((flag for flag, dest in flags.items() if dest == key), None)


def split_base(cmd, key):
    """The command's base settings without ``key``: (set by flag, set in the file)."""
    base = {k: v for k, v in BASE_BY_CMD[cmd].items() if k != key}
    for dest in ("dataset_root", "output_dir"):
        if dest != key and flag_of(cmd, dest):
            base[dest] = None
    by_flag = {k: v for k, v in base.items() if flag_of(cmd, k)}
    return by_flag, {k: v for k, v in base.items() if k not in by_flag}


def run(world, tmp, cmd, by_flag, in_file):
    """(exit code, what the command produced): files under its output
    directory, plus stdout for stream; stderr when it failed. A value of
    None for dataset_root or output_dir stands for the test dataset and a
    fresh directory."""
    tmp.mkdir()
    out = tmp / "out"
    paths = {"dataset_root": str(world / "data"), "output_dir": str(out)}
    by_flag = {k: paths[k] if v is None else v for k, v in by_flag.items()}
    in_file = {k: paths.get(k) if v is None else v for k, v in in_file.items()}
    argv = [cmd, *EXTRA_ARGS.get(cmd, [])]
    if cmd in ("score", "eval", "stream"):
        argv += ["--model", str(world / "run" / "last.aadm")]
    if cmd == "stream":
        argv += ["--input", str(world / "in.f32")]
    for key, value in by_flag.items():
        argv += [flag_of(cmd, key), str(value)]
    if in_file:
        (tmp / "cfg.json").write_text(json.dumps(nested(in_file)))
        argv += ["--config", str(tmp / "cfg.json")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        rc = main(argv)
    if rc != 0:
        return rc, stderr.getvalue()
    produced = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "trainlog.csv"} if out.exists() else {}
    if cmd == "stream":
        produced["stdout"] = stdout.getvalue()
    return rc, produced


def unknown_key(cmd, key):
    return f"aad {cmd}: unknown config key {key!r}"


CASES = [(cmd, key) for key, (_, cmds) in READERS.items() for cmd in cmds]
CASES += [(cmd, key) for key, (_, _, cmds) in REMOVED.items() for cmd in cmds]


@pytest.mark.parametrize("cmd,key", CASES, ids=[f"{c}-{k}" for c, k in CASES])
def test_file_and_flag_set_the_same_value(world, tmp_path, cmd, key):
    flags, in_file = split_base(cmd, key)
    if key in REMOVED:  # sets nothing: no flag, and the file is refused
        assert flag_of(cmd, key) is None
        rc, err = run(world, tmp_path / "file", cmd, flags, {**in_file, key: REMOVED[key][0]})
        assert (rc, err.strip().splitlines()) == (1, [unknown_key(cmd, key)])
        return
    value = READERS[key][0]
    default = run(world, tmp_path / "default", cmd, flags, in_file)
    by_file = run(world, tmp_path / "file", cmd, flags, {**in_file, key: value})
    assert by_file != default, f"{cmd} does not read {key}"
    if cmd in LOADERS and (key == "sample_rate" or key.startswith("features.")):
        ckpt = world / "run" / "last.aadm"
        model = checkpoint_load(ckpt)
        held = {"sample_rate": model.sample_rate,
                **{f"features.{k}": v for k, v in asdict(model.features).items()}}
        assert by_file == (1, f"aad {cmd}: {ckpt} was trained with {key}={held[key]!r}; "
                              f"given {value!r}\n")
    if flag_of(cmd, key):
        by_flag = run(world, tmp_path / "flag", cmd, {**flags, key: value}, in_file)
        assert by_flag == by_file


def wrong_values(hint):
    """JSON values of the wrong type for an annotation."""
    if get_origin(hint) is UnionType:
        hint = next(a for a in get_args(hint) if a is not type(None))
    if get_origin(hint) is tuple:
        return [3, [1.5], [True]]
    return {int: [2.5, True, "2"], float: ["0.5", True], bool: [1, "true"],
            str: [5, ["a"]], Path: [5, ["a"]]}[hint]


WRONG = [(key, bad) for key in sorted(READERS) for bad in wrong_values(hint_of(key))]
WRONG += [(key, bad) for key in sorted(REMOVED) for bad in wrong_values(REMOVED[key][1])]


@pytest.mark.parametrize("key,bad", WRONG, ids=[f"{k}={json.dumps(b)}" for k, b in WRONG])
def test_wrong_type_is_one_line_error(world, tmp_path, key, bad):
    cmd = (READERS[key][1] if key in READERS else REMOVED[key][2])[0]
    flags, in_file = split_base(cmd, key)
    rc, err = run(world, tmp_path / "run", cmd, flags, {**in_file, key: bad})
    assert rc == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"aad {cmd}: ")
    assert repr(key) in lines[0]
    if key in REMOVED:  # refused for the key, not for the value's type
        assert lines == [unknown_key(cmd, key)]


def test_removed_feature_keys_are_the_fields_checkpoints_may_hold():
    assert {key.partition(".")[2]: value for key, (value, _, _) in REMOVED.items()
            if key.startswith("features.")} == _RETIRED_FEATURES


def test_removed_model_keys_are_the_fields_checkpoints_may_hold():
    assert {key.partition(".")[2]: value for key, (value, _, _) in REMOVED.items()
            if key.startswith("model.")} == _RETIRED_SPEC


def test_removed_pauc_ceil_flag_is_usage_error(world, tmp_path, capsys):
    rc = main(["eval", "--root", str(world / "data"), "--out", str(tmp_path / "out"),
               "--model", str(world / "run" / "last.aadm"), "--pauc-ceil"])
    assert rc == 2
    assert "unrecognized arguments: --pauc-ceil" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,home", [
    ("train.seed", "seed"), ("embed.seed", "seed"), ("model.seed", "seed"),
    ("model.n_mels", "features.n_mels"), ("model.context_frames", "features.context_frames"),
    ("features.seed", "seed"), ("n_mels", "features.n_mels"),
])
@pytest.mark.parametrize("cmd", ["train", "embed"])
def test_key_outside_its_home_names_the_home(world, tmp_path, key, home, cmd):
    flags, in_file = split_base(cmd, key)
    rc, err = run(world, tmp_path / "run", cmd, flags, {**in_file, key: 5})
    assert rc == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"aad {cmd}: ")
    assert repr(key) in lines[0] and repr(home) in lines[0]


@pytest.mark.parametrize("cmd,text", [
    ("train", '{"train": {"epochs": 2.5}}'), ("features", '{"features": {"n_mels": 16.0}}'),
    ("embed", '{"embed": {"iterations": 2.5}}'), ("train", '{"dataset_root": 5}'),
    ("train", '{"seed": 7.9}'), ("train", '{"test_normal_fraction": "0.5"}'),
    ("train", '{"model": {"n_mels": 32}}'), ("train", '{"train": {"seed": 5}}'),
    ("embed", '{"embed": {"seed": 4}}'), ("train", '{"model": {"seed": 3}}'),
    ("embed", '{"embed": {"output_dims": 1}}'),  # exited 0 with a CSV and no scatter
])
def test_config_that_was_ignored_or_crashed_is_one_line_error(world, tmp_path, cmd, text,
                                                              capsys):
    (tmp_path / "cfg.json").write_text(text)
    rc = main([cmd, "--config", str(tmp_path / "cfg.json"), "--root", str(world / "data"),
               "--out", str(tmp_path / "out"), "--n-mels", "16",
               *([] if cmd == "features" else ["--seed", "9"])])  # features takes no --seed
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"aad {cmd}: ")


def test_readme_config_example_trains(world, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Configuration"):]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = tmp_path / "readme.json"
    cfg.write_text(example)
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        rc = main(["train", "--config", str(cfg), "--root", str(world / "data"),
                   "--out", str(tmp_path / "run"), "--epochs", "0"])
    assert rc == 0, stderr.getvalue()
    assert (tmp_path / "run" / "last.aadm").exists()
