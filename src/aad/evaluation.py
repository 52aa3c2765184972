"""AUC and partial AUC over anomaly scores, aggregated into reports.

Both metrics are pairwise comparisons of anomaly scores against normal
scores with ties counted half: H(x) = 1 for x > 0, 0.5 at 0, else 0.
pAUC restricts the comparison to the floor(p * N-) highest-scoring
normals (the hardest negatives), so pauc(p=1) is exactly roc_auc. The
pairs are counted by ranks, in O((P + N) log N) time and linear memory.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio_io import ANOMALY, NORMAL, DatasetIndex
from .errors import ConfigError, ContractError, DegenerateEvalError
from .features import FeatureConfig, dataset_features
from .models import Model
from .scoring import ScoreRecord, score_dataset


def _split_scores(records: Sequence[ScoreRecord]) -> tuple[np.ndarray, np.ndarray]:
    pos = np.asarray([r.score for r in records if r.label == ANOMALY], dtype=np.float64)
    neg = np.asarray([r.score for r in records if r.label == NORMAL], dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise DegenerateEvalError(
            f"need both labels, got {pos.size} anomalies and {neg.size} normals"
        )
    bad = np.count_nonzero(~np.isfinite(pos)) + np.count_nonzero(~np.isfinite(neg))
    if bad:
        raise ContractError(f"{bad} of {pos.size + neg.size} scores are not finite")
    return pos, neg


def _h_mean(pos: np.ndarray, neg_sorted: np.ndarray) -> float:
    """Mean of H over all (anomaly, normal) pairs, from the ascending normals.

    For each anomaly, ``below`` counts the normals under it and ``upto`` those
    under or tied with it, so below + upto is twice its H sum.
    """
    below = np.searchsorted(neg_sorted, pos, side="left")
    upto = np.searchsorted(neg_sorted, pos, side="right")
    return float((below + upto).sum() / (2 * pos.size * neg_sorted.size))


def roc_auc(records: Sequence[ScoreRecord]) -> float:
    """Mann-Whitney AUC: mean of H(anomaly score - normal score) over pairs."""
    pos, neg = _split_scores(records)
    return _h_mean(pos, np.sort(neg))


def pauc(records: Sequence[ScoreRecord], p: float = 0.05) -> float:
    """Partial AUC over the FPR range [0, p].

    Compares anomalies against the floor(p * N-) highest normal scores.
    """
    if not 0.0 < p <= 1.0:
        raise ContractError("p must be in (0, 1]")
    pos, neg = _split_scores(records)
    # back the float product off by an epsilon so e.g. 0.05 * 20 counts as 1
    m = int(np.floor(p * neg.size + 1e-9))
    if m < 1:
        raise ContractError(
            f"p={p} selects no negatives out of {neg.size}; increase p"
        )
    return _h_mean(pos, np.sort(neg)[neg.size - m:])


@dataclass
class IdResult:
    machine_id: int
    auc: float | None   # percent; None when the ID had only one label
    pauc: float | None


@dataclass
class MachineResult:
    machine_type: str
    ids: list[IdResult] = field(default_factory=list)
    avg_auc: float | None = None
    avg_pauc: float | None = None


@dataclass
class EvalReport:
    model: str
    p: float
    machines: list[MachineResult] = field(default_factory=list)


def evaluate_dataset(model: Model, index: DatasetIndex, features: FeatureConfig,
                     p: float = 0.05, sample_rate: int | None = None) -> EvalReport:
    """Score every clip of the (test) index and aggregate AUC/pAUC per ID.

    ``sample_rate`` is the resample target (None: native rates). A ``p``
    outside (0, 1] is a ConfigError before any clip is read.
    """
    if not 0.0 < p <= 1.0:
        raise ConfigError(f"p must be in (0, 1], got {p!r}")
    clips = dataset_features(index, features, target_rate=sample_rate)
    records = score_dataset(model, clips)
    report = EvalReport(model=model.spec.kind, p=p)
    by_type: dict[str, MachineResult] = {}
    for mtype, mid in index.machines():
        group = [r for r in records
                 if r.machine_type == mtype and r.machine_id == mid]
        try:
            auc_pct = 100.0 * roc_auc(group)
        except DegenerateEvalError:
            auc_pct = None
        try:
            pauc_pct = 100.0 * pauc(group, p)
        except (DegenerateEvalError, ContractError):
            pauc_pct = None
        machine = by_type.setdefault(mtype, MachineResult(machine_type=mtype))
        machine.ids.append(IdResult(machine_id=mid, auc=auc_pct, pauc=pauc_pct))
    for machine in by_type.values():
        aucs = [i.auc for i in machine.ids if i.auc is not None]
        paucs = [i.pauc for i in machine.ids if i.pauc is not None]
        machine.avg_auc = float(np.mean(aucs)) if aucs else None
        machine.avg_pauc = float(np.mean(paucs)) if paucs else None
        report.machines.append(machine)
    return report


# -- report emission --


def report_to_dict(report: EvalReport) -> dict:
    return {
        "model": report.model,
        "p": report.p,
        "machines": [
            {
                "type": m.machine_type,
                "ids": [{"id": i.machine_id, "auc": i.auc, "pauc": i.pauc}
                        for i in m.ids],
                "avg": {"auc": m.avg_auc, "pauc": m.avg_pauc},
            }
            for m in report.machines
        ],
    }


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def _fmt(value: float | None, bold: bool = False) -> str:
    if value is None:
        return "-"
    text = f"{value:.2f}"
    return f"**{text}**" if bold else text


def markdown_table(reports: Sequence[EvalReport]) -> str:
    """Per-ID AUC/pAUC table with one column pair per model.

    When several reports are merged, the per-row maximum of each metric
    is bolded.
    """
    if not reports:
        raise ContractError("no reports to render")
    models = [r.model for r in reports]
    bold = len(reports) > 1
    header = ["Machine", "ID"]
    for m in models:
        header += [f"{m} AUC(%)", f"{m} pAUC(%)"]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]

    # cells[(type, id_label)][model] = (auc, pauc)
    row_keys: list[tuple[str, str]] = []
    cells: dict[tuple[str, str], dict[str, tuple]] = {}
    for report in reports:
        for machine in report.machines:
            for i in machine.ids:
                key = (machine.machine_type, str(i.machine_id))
                if key not in cells:
                    cells[key] = {}
                    row_keys.append(key)
            avg_key = (machine.machine_type, "Avg")
            if avg_key not in cells:
                cells[avg_key] = {}
                row_keys.append(avg_key)
            for i in machine.ids:
                cells[(machine.machine_type, str(i.machine_id))][report.model] = (i.auc, i.pauc)
            cells[avg_key][report.model] = (machine.avg_auc, machine.avg_pauc)

    def sort_key(key):
        mtype, id_label = key
        return (mtype, id_label == "Avg", id_label.zfill(8))

    for key in sorted(row_keys, key=sort_key):
        row_cells = cells[key]
        aucs = [row_cells.get(m, (None, None))[0] for m in models]
        paucs = [row_cells.get(m, (None, None))[1] for m in models]
        max_auc = max((v for v in aucs if v is not None), default=None)
        max_pauc = max((v for v in paucs if v is not None), default=None)
        row = [key[0], key[1]]
        for a, pa in zip(aucs, paucs):
            row.append(_fmt(a, bold and a is not None and a == max_auc))
            row.append(_fmt(pa, bold and pa is not None and pa == max_pauc))
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def emit_report(report: EvalReport | Sequence[EvalReport], fmt: str,
                path: str | Path) -> None:
    """Write a report as json, csv, or markdown (markdown accepts merged lists)."""
    reports = [report] if isinstance(report, EvalReport) else list(report)
    path = Path(path)
    if fmt == "json":
        if len(reports) != 1:
            raise ContractError("json format takes a single report")
        path.write_text(report_to_json(reports[0]))
    elif fmt == "csv":
        if len(reports) != 1:
            raise ContractError("csv format takes a single report")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["machine_type", "machine_id", "auc", "pauc"])
            for m in reports[0].machines:
                for i in m.ids:
                    writer.writerow([m.machine_type, i.machine_id,
                                     _fmt(i.auc), _fmt(i.pauc)])
                writer.writerow([m.machine_type, "avg",
                                 _fmt(m.avg_auc), _fmt(m.avg_pauc)])
    elif fmt == "markdown":
        path.write_text(markdown_table(reports))
    else:
        raise ContractError(f"unknown report format {fmt!r}")
