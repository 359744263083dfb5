"""Convergence metrics and run-history export.

Two quantities are tracked over a run: the total probability mass on the
near-optimal set, and the average Hamming distance from each of the top-k
most probable bitstrings to its closest near-optimal member.
`compute_snapshot` computes both and checks its distribution once, ranking
through `_ranked`, the unchecked kernel of the public `top_k`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .dispatch import NearOptimalSet
from .errors import ValidationError
from .instance import _count, _finite_vector

HISTORY_FIELDS = ("iter", "objective", "near_opt_prob", "avg_hamming_top50",
                  "best_bitstring", "elapsed_ms")


def top_k(probs: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k most probable basis states, descending probability,
    ties broken by ascending index.  Returns all indices when 2^N < k."""
    k = _count(k, "k", 1)
    return _ranked(_finite_vector(probs, "probs", least=0), k)


def _ranked(probs: np.ndarray, k: int) -> np.ndarray:
    """`top_k` on checked arguments."""
    return np.argsort(-probs, kind="stable")[:k]


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
    """Both metrics of one distribution over nos's 2^N commitments."""
    probs = _finite_vector(probs, "probs", 1 << nos.n, 0)
    members = nos.members
    if members.size == 0:
        raise ValidationError("near-optimal set is empty")
    ranked = _ranked(probs, _count(k, "k", 1))
    dists = np.bitwise_count(ranked[:, None] ^ members[None, :]).min(axis=1)
    return MetricSnapshot(near_opt_prob=float(probs[members].sum()),
                          avg_hamming_top50=float(dists.mean()))


def export_history(history, format: str, path: str) -> None:
    """Write a RunHistory, or a sequence of HistoryRecord, as CSV or JSON;
    values round-trip exactly."""
    rows = [asdict(r) for r in getattr(history, "records", history)]
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, HISTORY_FIELDS)
            writer.writeheader()
            writer.writerows(rows)  # csv writes a float as its repr: exact
    elif format == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    else:
        raise ValidationError(f"unknown history format: {format!r}")
