"""The benchmark's workloads (``perfbench/workloads.py``) against the package.

The benchmark calls the public API directly; a solve that raises or fails
an output check counts as a failure there.  Running each workload's
solves and checks here, on tiny inputs, catches an API change that would
turn benchmark solves into failures.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from ucqaoa.baseline import random_instance
from ucqaoa.hybrid import HybridConfig
from ucqaoa.instance import builtin_ten_unit

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
# traced layers whose every target has left the package; the tracer skips them
DEAD_LAYERS = {"qubo.build_qubo", "qubo.qubo_diagonal", "dispatch.dispatch_within_boxes",
               "baseline.node_lower_bound"}


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


def test_tracer_finds_every_live_layer():
    # installed in a child process, so no wrapper stays on the package here
    code = ("import json, sys; sys.path[:0] = sys.argv[1:]; from tracing import Tracer; "
            "t = Tracer(); t.install(); print(json.dumps(t.absent))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert set(json.loads(out)) == DEAD_LAYERS
