"""The benchmark's workloads (``perfbench/workloads.py``) against the package.

The benchmark calls the public API directly; a solve that raises or fails
an output check counts as a failure there.  Running each workload's
solves and checks here, on tiny inputs, catches an API change that would
turn benchmark solves into failures.
"""

import importlib.util
from pathlib import Path

import numpy as np

from ucqaoa.baseline import random_instance
from ucqaoa.hybrid import HybridConfig
from ucqaoa.instance import builtin_ten_unit

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checks(work):
    results = [thunk() for _, thunk in work.solves()]
    return work.check(results) + work.check_once(results)


def test_hybrid_batch_solves_pass_their_checks():
    cfg = HybridConfig(depth=1, max_iterations=3, metric_cadence=1)
    work = _workloads().HybridBatch(builtin_ten_unit(), [cfg])
    assert _checks(work) == [None, None]


def test_bnb_batch_solves_pass_their_checks():
    rng = np.random.default_rng(0)
    work = _workloads().BnbBatch([random_instance(5, rng) for _ in range(2)])
    assert _checks(work) == [None] * 8
