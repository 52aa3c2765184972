#!/usr/bin/env python3
"""Show that each output check passes real output and rejects broken output.

    python3 bench/selftest.py

Runs a small pipeline through the CLI (synth, train, score, eval,
stream), checks every output as run.py does, then breaks each output in
one place and requires the check to reject it:

- a report with one AUC cell changed
- a stream with one window dropped
- a threshold one rank too low
- a training loss that rises
- a stream whose decision lines all arrive after end of input

Exits 1 if a check rejects good output or accepts a broken one.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads

import checks  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("PASS" if ok else "FAIL") + ": " + what)
    if not ok:
        FAILURES.append(what)


def accepts(check, what: str) -> None:
    try:
        check()
    except checks.CheckError as exc:
        expect(False, f"{what} (rejected: {exc})")
        return
    expect(True, what)


def rejects(check, what: str) -> None:
    try:
        check()
    except checks.CheckError as exc:
        expect(True, f"{what} ({exc})")
        return
    expect(False, f"{what} (accepted)")


def main() -> int:
    if not (run.SRC / "aad" / "cli.py").is_file():
        print(f"selftest: no program sources at {run.SRC}/aad", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from aad.audio_io import scan_dataset, split_index

    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run.Runner(work, "selftest")
    try:
        prof = run.Profile(train_set=run.Dataset(30, 0, 2.0), epochs={},
                           detect_set=run.Dataset(40, 20, 2.0), score_kinds=(),
                           report_kinds=(), paced_s=12.0, fast_s=0.0, faults=False,
                           rss_ops=())
        inputs = run.setup(runner, prof, seed=5, where=work / "data", traced=False)[0]

        def cli(*args):
            p = runner.cli([*args, "--seed", str(run.PROGRAM_SEED), *run.FEATURE_FLAGS], False)
            if p.rc != 0:
                raise SystemExit(f"selftest: aad {args[0]} exited {p.rc}: {p.stderr}")
            return p

        out = work / "out"
        epochs = 3
        cli("train", "--root", str(inputs.train_root), "--out", str(out),
            "--model", "dense_ae", "--epochs", str(epochs))
        losses = checks.read_trainlog_csv(out / "trainlog.csv")
        accepts(lambda: checks.check_trainlog(losses, epochs), "training log accepted")
        rising = losses[:-1] + [losses[0] * 1.01]
        rejects(lambda: checks.check_trainlog(rising, epochs), "rising training loss rejected")

        root = inputs.detect_root
        p = cli("score", "--root", str(root), "--out", str(out), "--model",
                str(out / "last.aadm"), "--partition", "all", "--max-fpr", str(run.MAX_FPR))
        tau = float(p.stdout.split("tau=", 1)[1].split(")", 1)[0])
        rows = checks.read_scores_csv(out / "scores.csv")
        index = scan_dataset(root)
        paths = [e.path for e in index.entries]
        accepts(lambda: checks.check_scores(rows, paths, tau, run.MAX_FPR), "score table accepted")
        normals = sorted(r["score"] for r in rows if r["label"] == "normal")
        low_tau = normals[normals.index(tau) - 1]
        low_rows = [dict(r, decision="anomaly" if r["score"] > low_tau else "normal")
                    for r in rows]
        rejects(lambda: checks.check_scores(low_rows, paths, low_tau, run.MAX_FPR),
                "threshold one rank too low rejected")

        cli("eval", "--root", str(root), "--out", str(out), "--model", str(out / "last.aadm"),
            "--p", str(run.EVAL_P), "--format", "json",
            "--test-fraction", str(run.DETECT_TEST_FRACTION))
        report = json.loads((out / "report.json").read_text())
        _, test = split_index(index, run.DETECT_TEST_FRACTION, seed=run.PROGRAM_SEED)
        test_paths = [e.path for e in test.entries]
        accepts(lambda: checks.check_report(report, rows, test_paths, run.EVAL_P),
                "report accepted")
        changed = copy.deepcopy(report)
        changed["machines"][0]["ids"][0]["auc"] -= 0.01
        rejects(lambda: checks.check_report(changed, rows, test_paths, run.EVAL_P),
                "report with one AUC cell changed rejected")

        samples = inputs.stream_samples
        session = run.stream_session(runner, out / "last.aadm", tau, samples.tobytes())
        lines = checks.parse_stream_lines("\n".join(session.lines))
        n = len(samples)

        def check(ls):
            return lambda: checks.check_stream(ls, n, run.STREAM_WIN, run.STREAM_HOP,
                                               run.RATE, tau)
        accepts(check(lines), "stream accepted")
        rejects(check(lines[:5] + lines[6:]), "stream with one window dropped rejected")
        accepts(lambda: checks.check_stream_live(session.times, session.times[0] + 1e-3),
                "decision line before end of input accepted")
        rejects(lambda: checks.check_stream_live(session.times, session.times[0]),
                "no decision line before end of input rejected")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} selftest failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
