"""Convergence metrics and run-history export.

Two quantities are tracked over a run: the total probability mass on the
near-optimal set, and the average Hamming distance from each of the top-k
most probable bitstrings to its closest near-optimal member.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .dispatch import NearOptimalSet
from .errors import ValidationError

HISTORY_FIELDS = ("iter", "objective", "near_opt_prob", "avg_hamming_top50",
                  "best_bitstring", "elapsed_ms")


def _check_dim(probs: np.ndarray, nos: NearOptimalSet) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size != 1 << nos.n:
        raise ValidationError(
            f"distribution has {probs.size} entries, expected {1 << nos.n}"
        )
    return probs


def near_opt_probability(probs: np.ndarray, nos: NearOptimalSet) -> float:
    """Total probability mass on the near-optimal commitments."""
    probs = _check_dim(probs, nos)
    return float(probs[nos.members].sum())


def top_k(probs: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k most probable basis states, descending probability,
    ties broken by ascending index.  Returns all indices when 2^N < k."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return np.argsort(-np.asarray(probs, dtype=float), kind="stable")[:k]


def avg_hamming_top_k(probs: np.ndarray, nos: NearOptimalSet, k: int = 50) -> float:
    """Mean over the top-k bitstrings of the distance to the closest member."""
    probs = _check_dim(probs, nos)
    members = nos.members
    if members.size == 0:
        raise ValidationError("near-optimal set is empty")
    ranked = top_k(probs, k)
    dists = np.bitwise_count(ranked[:, None] ^ members[None, :]).min(axis=1)
    return float(dists.mean())


@dataclass(frozen=True)
class MetricSnapshot:
    near_opt_prob: float
    avg_hamming_top50: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.near_opt_prob <= 1.0 + 1e-12:
            raise ValidationError(f"near_opt_prob out of [0, 1]: {self.near_opt_prob}")
        if self.avg_hamming_top50 < 0.0:
            raise ValidationError(f"negative Hamming average: {self.avg_hamming_top50}")


def compute_snapshot(probs: np.ndarray, nos: NearOptimalSet, k: int = 50) -> MetricSnapshot:
    return MetricSnapshot(
        near_opt_prob=near_opt_probability(probs, nos),
        avg_hamming_top50=avg_hamming_top_k(probs, nos, k),
    )


def export_history(history, format: str, path: str) -> None:
    """Write a RunHistory, or a sequence of HistoryRecord, as CSV or JSON;
    values round-trip exactly."""
    rows = [asdict(r) for r in getattr(history, "records", history)]
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HISTORY_FIELDS)
            for row in rows:
                writer.writerow([
                    row["iter"],
                    repr(float(row["objective"])),
                    repr(float(row["near_opt_prob"])),
                    repr(float(row["avg_hamming_top50"])),
                    row["best_bitstring"],
                    repr(float(row["elapsed_ms"])),
                ])
    elif format == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    else:
        raise ValidationError(f"unknown history format: {format!r}")


def load_history(path: str) -> tuple[dict, ...]:
    """Read a history file written by export_history (format by extension)."""
    if path.endswith(".json"):
        with open(path) as fh:
            rows = json.load(fh)
    elif path.endswith(".csv"):
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    else:
        raise ValidationError(f"cannot infer history format from path: {path!r}")
    out = []
    for row in rows:
        out.append({
            "iter": int(row["iter"]),
            "objective": float(row["objective"]),
            "near_opt_prob": float(row["near_opt_prob"]),
            "avg_hamming_top50": float(row["avg_hamming_top50"]),
            "best_bitstring": str(row["best_bitstring"]),
            "elapsed_ms": float(row["elapsed_ms"]),
        })
    return tuple(out)
