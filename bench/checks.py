"""Output checks for the benchmark, computed apart from the program.

Each check takes what a CLI command wrote (parsed into plain Python
values) and raises CheckError when the output is wrong. The expected
values come from brute-force recomputation (pairwise AUC over the score
table) or from properties the method must have (the threshold's FPR
bound, the stream's window arithmetic, a falling training loss). None of
them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

AUC_TOL = 1e-9  # percent; report values are float64 means of 0/0.5/1 pairs
MIN_AUC_PCT = 90.0


class CheckError(Exception):
    """An output failed a correctness check."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# -- file readers --


def read_scores_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        r["score"] = float(r["score"])
        r["machine_id"] = int(r["machine_id"])
    return rows


def read_trainlog_csv(path) -> list[float]:
    with open(path, newline="") as fh:
        return [float(r["train_loss"]) for r in csv.DictReader(fh)]


def read_embedding_csv(path) -> list[tuple[list[float], str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return [([float(v) for v in row[:-1]], row[-1]) for row in reader
                if len(row) == len(header)]


def parse_stream_lines(text: str) -> list[tuple[str, float, str]]:
    """``end_s, score, decision`` lines as (end text, score, decision)."""
    out = []
    for line in text.splitlines():
        parts = [p.strip() for p in line.split(",")]
        _require(len(parts) == 3, f"malformed stream line {line!r}")
        out.append((parts[0], float(parts[1]), parts[2]))
    return out


# -- brute-force metrics --


def brute_auc(pos, neg) -> float:
    """Mean over all (anomaly, normal) pairs of H(a - n), ties one half."""
    total = 0.0
    for a in pos:
        for n in neg:
            total += 1.0 if a > n else 0.5 if a == n else 0.0
    return total / (len(pos) * len(neg))


def brute_pauc(pos, neg, p: float) -> float:
    """AUC against the floor(p * N-) highest normal scores."""
    m = math.floor(Fraction(str(p)) * len(neg))
    _require(m >= 1, f"p={p} selects no normals out of {len(neg)}")
    return brute_auc(pos, sorted(neg, reverse=True)[:m])


# -- per-command checks --


def check_scores(rows: list[dict], expected_paths, tau: float,
                 max_fpr: float) -> None:
    """One finite score per clip; decisions follow tau; FPR in (p - 2/N, p]."""
    paths = [r["clip_path"] for r in rows]
    _require(len(paths) == len(set(paths)), "duplicate rows in scores.csv")
    _require(set(paths) == set(expected_paths),
             f"scores.csv has {len(paths)} rows for {len(expected_paths)} clips")
    for r in rows:
        _require(math.isfinite(r["score"]), f"non-finite score for {r['clip_path']}")
        want = "anomaly" if r["score"] > tau else "normal"
        _require(r["decision"] == want,
                 f"{r['clip_path']}: decision {r['decision']} at score "
                 f"{r['score']!r}, tau {tau!r}")
    normals = [r["score"] for r in rows if r["label"] == "normal"]
    _require(len(normals) > 0, "no normal scores")
    fpr = sum(s > tau for s in normals) / len(normals)
    lo = max_fpr - 2.0 / len(normals)
    _require(lo < fpr <= max_fpr,
             f"threshold FPR {fpr:.4f} outside ({lo:.4f}, {max_fpr}]")


def check_auc(rows: list[dict], min_pct: float = MIN_AUC_PCT) -> float:
    """Brute-force AUC (percent) of a score table, at least ``min_pct``."""
    pos = [r["score"] for r in rows if r["label"] == "anomaly"]
    neg = [r["score"] for r in rows if r["label"] == "normal"]
    _require(pos and neg, "AUC needs both labels")
    auc = 100.0 * brute_auc(pos, neg)
    _require(auc >= min_pct, f"AUC {auc:.2f}% below {min_pct}%")
    return auc


def check_report(report: dict, rows: list[dict], test_paths, p: float) -> None:
    """report.json AUC/pAUC cells equal brute force over the test rows."""
    test_paths = set(test_paths)
    test_rows = [r for r in rows if r["clip_path"] in test_paths]
    _require(len(test_rows) == len(test_paths),
             "scores.csv lacks rows for the test partition")
    _require(report.get("p") == p, f"report p {report.get('p')} != {p}")
    n_ids = 0
    for machine in report["machines"]:
        aucs, paucs = [], []
        for cell in machine["ids"]:
            group = [r for r in test_rows
                     if r["machine_type"] == machine["type"]
                     and r["machine_id"] == cell["id"]]
            pos = [r["score"] for r in group if r["label"] == "anomaly"]
            neg = [r["score"] for r in group if r["label"] == "normal"]
            want_auc = 100.0 * brute_auc(pos, neg)
            want_pauc = 100.0 * brute_pauc(pos, neg, p)
            for name, got, want in (("auc", cell["auc"], want_auc),
                                    ("pauc", cell["pauc"], want_pauc)):
                _require(got is not None and abs(got - want) <= AUC_TOL,
                         f"{machine['type']}/{cell['id']} {name} {got} != "
                         f"brute force {want}")
            _require(want_auc >= MIN_AUC_PCT,
                     f"AUC {want_auc:.2f}% below {MIN_AUC_PCT}%")
            aucs.append(want_auc)
            paucs.append(want_pauc)
            n_ids += 1
        for name, vals in (("auc", aucs), ("pauc", paucs)):
            got = machine["avg"][name]
            want = sum(vals) / len(vals)
            _require(got is not None and abs(got - want) <= AUC_TOL,
                     f"{machine['type']} avg {name} {got} != {want}")
    _require(n_ids > 0, "report has no machine IDs")


def check_trainlog(losses: list[float], epochs: int) -> None:
    """One finite loss per epoch, and the last below the first."""
    _require(len(losses) == epochs, f"{len(losses)} epochs logged, want {epochs}")
    _require(all(math.isfinite(v) for v in losses), "non-finite training loss")
    _require(epochs < 2 or losses[-1] < losses[0],
             f"training loss rose: first {losses[0]!r}, last {losses[-1]!r}")


def check_embedding(points, n_normal: int, n_anomaly: int, dims: int) -> None:
    """One finite row per clip, labels matching the dataset's counts."""
    _require(len(points) == n_normal + n_anomaly,
             f"{len(points)} embedding rows for {n_normal + n_anomaly} clips")
    for coords, _ in points:
        _require(len(coords) == dims and all(math.isfinite(v) for v in coords),
                 "non-finite or short embedding row")
    labels = [lab for _, lab in points]
    _require(labels.count("normal") == n_normal
             and labels.count("anomaly") == n_anomaly,
             "embedding labels do not match the dataset")


def expected_window_count(n_samples: int, win: int, hop: int) -> int:
    return 0 if n_samples < win else (n_samples - win) // hop + 1


def check_stream(lines, n_samples: int, win: int, hop: int, rate: int,
                 tau: float, offline_score=None, sample=()) -> None:
    """Window count and timestamps, decisions, and sampled offline scores.

    ``offline_score(k)`` recomputes window k's score from the raw slice;
    it is called for each k in ``sample``.
    """
    want = expected_window_count(n_samples, win, hop)
    _require(len(lines) == want, f"{len(lines)} stream windows, want {want}")
    for k, (end, score, decision) in enumerate(lines):
        want_end = f"{(win + k * hop) / rate:.3f}"
        _require(end == want_end, f"window {k} ends at {end}, want {want_end}")
        _require(math.isfinite(score), f"window {k}: non-finite score")
        want_dec = "anomaly" if score > tau else "normal"
        _require(decision == want_dec, f"window {k}: decision {decision}, want {want_dec}")
    for k in sample:
        want_score = offline_score(k)
        _require(lines[k][1] == want_score,
                 f"window {k}: stream score {lines[k][1]!r} != offline {want_score!r}")


def check_stream_live(times: list[float], t_eof: float) -> None:
    """At least one decision line arrived before the input ended."""
    _require(any(t < t_eof for t in times),
             f"no decision line before end of input ({len(times)} lines after it)")


def check_stream_nan(lines, nan_index: int, win: int, hop: int) -> None:
    """No window that covers a NaN sample may be decided normal."""
    covering = [k for k in range(len(lines)) if k * hop <= nan_index < k * hop + win]
    _require(covering, "no window covers the NaN sample")
    for k in covering:
        _require(lines[k][2] != "normal",
                 f"window {k} covers a NaN sample but reads "
                 f"{lines[k][1]!r}, {lines[k][2]}")
