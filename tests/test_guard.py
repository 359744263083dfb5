"""The simulator's size rule has one owner: `qaoa._check_qubits` raises the
one message, and every entry that takes 2**n memory for the circuit
refuses an oversized instance before it allocates any."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import serialize_instance
from ucqaoa.baseline import random_instance
from ucqaoa.cli import main
from ucqaoa.errors import SizeGuardError
from ucqaoa.hybrid import HybridConfig, ThetaVector, objective, run_hybrid
from ucqaoa.qubo import PenaltyWeights

SRC = Path(__file__).resolve().parents[1] / "src" / "ucqaoa"


def _objective(inst, tmp_path):
    w = PenaltyWeights(1.0, 1.0, 1.0)
    zeros = np.zeros(inst.n)
    theta = ThetaVector([0.1], [0.2], zeros, zeros, zeros)
    return lambda: objective(inst, w, theta)


def _run_hybrid(inst, tmp_path):
    cfg = HybridConfig(max_iterations=1)
    return lambda: run_hybrid(inst, cfg)


def _cli(*argv):
    def entry(inst, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(serialize_instance(inst))
        dist = tmp_path / "dist.csv"
        dist.write_text(f"bitstring,probability\n{'0' * inst.n},1.0\n")
        args = [a.format(instance=path, distribution=dist) for a in argv]
        return lambda: main(args)
    return entry


ENTRIES = {
    "objective": _objective,
    "run_hybrid": _run_hybrid,
    "cli-simulate": _cli("simulate", "--instance", "{instance}", "--gamma", "0.2", "--beta", "0.1"),
    "cli-run-hybrid": _cli("run-hybrid", "--instance", "{instance}", "--iterations", "5"),
    "cli-metrics": _cli("metrics", "--instance", "{instance}", "--distribution", "{distribution}"),
}


@pytest.mark.parametrize("n", [21, 40])
@pytest.mark.parametrize("entry", ENTRIES)
def test_simulator_guard_refuses_before_allocating(entry, n, tmp_path, capsys):
    # objective built its 2**n workspace before any check: 134 MB at 21
    # units, and numpy's MemoryError in place of the guard at 40
    call = ENTRIES[entry](random_instance(n, rng=0), tmp_path)
    message = f"simulator guard is n <= 20, got {n}"
    tracemalloc.start()
    try:
        if entry.startswith("cli-"):
            assert call() == 4
        else:
            with pytest.raises(SizeGuardError) as exc:
                call()
            assert str(exc.value) == message
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if entry.startswith("cli-"):
        assert capsys.readouterr().err == f"error: {message}\n"
    assert peak < 1 << 20


def test_only_the_simulator_reads_its_guard():
    readers, comparisons = [], 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            named = ((isinstance(node, ast.Name) and node.id == "QUBIT_GUARD")
                     or (isinstance(node, ast.Attribute) and node.attr == "QUBIT_GUARD")
                     or (isinstance(node, ast.ImportFrom)
                         and any(alias.name == "QUBIT_GUARD" for alias in node.names)))
            if named and path.name != "qaoa.py":
                readers.append(path.name)
            if isinstance(node, ast.Compare) and "QUBIT_GUARD" in ast.dump(node):
                comparisons += 1
    assert readers == []
    assert comparisons == 1
