import contextlib
import csv
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ContinuousAssignment,
    build_qubo,
    circuit_angles,
    qubo_diagonal,
    serialize_instance,
)
from ucqaoa.baseline import random_instance, scaling_benchmark
from ucqaoa.cli import main
from ucqaoa.dispatch import enumerate_all, near_optimal_set
from ucqaoa.hybrid import HybridConfig, initial_theta
from ucqaoa.instance import (
    UcInstance,
    UnitSpec,
    bits_to_index,
    builtin_ten_unit,
    index_to_string,
    string_to_bits,
)
from ucqaoa.qaoa import qaoa_distribution
from ucqaoa.qubo import PenaltyWeights

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def small_instance_path(tmp_path):
    inst = random_instance(4, rng=3)
    path = tmp_path / "inst4.json"
    path.write_text(serialize_instance(inst))
    return str(path)


def _assert_one_error(capsys, message):
    # an error is one stderr line, and nothing reaches stdout
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# oracle


def test_oracle_stdout_ranking(small_instance_path, capsys):
    assert main(["oracle", "--instance", small_instance_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "bitstring,cost,feasible"
    assert len(lines) == 1 + 16
    inst = random_instance(4, rng=3)
    best_bits, best_sol = enumerate_all(inst)[0]
    first = lines[1].split(",")
    assert first[0] == "".join(str(b) for b in best_bits)
    assert float(first[1]) == pytest.approx(best_sol.cost)
    assert first[2] == "true"
    # infeasible rows keep an empty cost column and sort last
    infeasible = [ln for ln in lines[1:] if ln.endswith("false")]
    assert all(ln.split(",")[1] == "" for ln in infeasible)
    assert lines[-len(infeasible):] == infeasible if infeasible else True


def test_oracle_builtin_has_1024_rows(tmp_path):
    out = str(tmp_path / "oracle.csv")
    assert main(["oracle", "--out", out]) == 0
    rows = _read_csv(out)
    assert len(rows) == 1 + 1024
    costs = [float(r[1]) for r in rows[1:] if r[2] == "true"]
    assert costs == sorted(costs)
    assert costs[0] == pytest.approx(13683.129729243481)


def test_oracle_byte_identical_reruns(tmp_path, small_instance_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    main(["oracle", "--instance", small_instance_path, "--out", a])
    main(["oracle", "--instance", small_instance_path, "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_angles_uniform(small_instance_path, tmp_path, capsys):
    out = str(tmp_path / "dist.csv")
    rc = main(["simulate", "--instance", small_instance_path,
               "--gamma", "0", "--beta", "0", "--top", "3", "--out", out])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "bitstring,probability"
    assert len(lines) == 4
    for ln in lines[1:]:
        assert float(ln.split(",")[1]) == pytest.approx(1 / 16, rel=1e-12)
    rows = _read_csv(out)
    assert len(rows) == 1 + 16
    total = sum(float(r[1]) for r in rows[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_simulate_shots_deterministic(small_instance_path, capsys):
    argv = ["--seed", "11", "simulate", "--instance", small_instance_path,
            "--gamma", "0.3", "--beta", "0.4", "--shots", "256", "--top", "16"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_simulate_rejects_bad_angle_list(small_instance_path, capsys):
    rc = main(["simulate", "--instance", small_instance_path,
               "--gamma", "0.3,y", "--beta", "0.1"])
    assert rc == 2
    _assert_one_error(capsys, "expected comma-separated numbers, got '0.3,y'")


def test_simulate_rejects_angle_lists_of_unequal_length(capsys):
    # simulate's angles are checked by ThetaVector, as a run's are
    assert main(["simulate", "--gamma", "0.1,0.2", "--beta", "0.3"]) == 2
    _assert_one_error(capsys, "gamma and beta must have equal length P >= 1")


def test_simulate_explicit_continuous_part(small_instance_path, capsys):
    inst = random_instance(4, rng=3)
    p = ",".join(str(u.p_min) for u in inst.units)
    zeros = ",".join("0" for _ in range(4))
    rc = main(["simulate", "--instance", small_instance_path,
               "--gamma", "0.2", "--beta", "0.1",
               "--p", p, "--s1", zeros, "--s2", zeros, "--top", "1"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("bitstring,probability")


def test_simulate_rejects_wrong_length_continuous_part(capsys):
    rc = main(["simulate", "--gamma", "0.2", "--beta", "0.1",
               "--p", "1,2", "--s1", "0,0", "--s2", "0,0"])
    assert rc == 2
    assert "expected length 10" in capsys.readouterr().err


def test_simulate_rejects_negative_shots(capsys):
    rc = main(["simulate", "--gamma", "0.2", "--beta", "0.1", "--shots", "-5"])
    assert rc == 2
    assert "shots" in capsys.readouterr().err


def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the mixer's matrix products run in BLAS, whose thread count the
    # environment sets; the written distribution must not depend on it
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"dist-{threads}.csv"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ucqaoa.cli", "simulate", "--gamma", "0.3,0.1",
             "--beta", "0.2,0.4", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# run-hybrid


def test_run_hybrid_stdout_and_history(small_instance_path, tmp_path, capsys):
    out = str(tmp_path / "hist.csv")
    rc = main(["run-hybrid", "--instance", small_instance_path,
               "--iterations", "20", "--cadence", "10", "--out", out])
    assert rc == 0
    printed = dict(line.split("=", 1) for line in
                   capsys.readouterr().out.strip().splitlines())
    assert printed["iterations"] == "20"
    assert 0.0 <= float(printed["near_opt_prob"]) <= 1.0
    assert set(printed["best_bitstring"]) <= {"0", "1"}
    rows = _read_csv(out)
    assert rows[0] == ["iter", "objective", "near_opt_prob",
                       "avg_hamming_top50", "best_bitstring", "elapsed_ms"]
    assert [r[0] for r in rows[1:]] == ["0", "10", "20"]
    assert all(r[5] == "0.0" for r in rows[1:])  # timings zeroed by default


def test_run_hybrid_byte_identical_reruns(small_instance_path, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["run-hybrid", "--instance", small_instance_path,
            "--iterations", "15", "--cadence", "5"]
    main(argv + ["--out", a])
    main(argv + ["--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_run_hybrid_wall_times_flag(small_instance_path, tmp_path):
    out = str(tmp_path / "hist.json")
    main(["run-hybrid", "--instance", small_instance_path,
          "--iterations", "10", "--cadence", "5", "--wall-times", "--out", out])
    records = json.loads(open(out).read())
    assert records[-1]["elapsed_ms"] > 0.0


def test_run_hybrid_gnuplot_companions(small_instance_path, tmp_path):
    out = str(tmp_path / "hist.json")
    main(["run-hybrid", "--instance", small_instance_path,
          "--iterations", "10", "--cadence", "5", "--out", out, "--gnuplot"])
    csv_path = tmp_path / "hist.csv"
    assert csv_path.exists()
    assert (tmp_path / "hist.gp").read_text() == (
        "set datafile separator ','\n"
        "set xlabel 'iteration'\n"
        "set ylabel 'near-optimal probability'\n"
        "set y2label 'avg Hamming distance (top 50)'\n"
        "set y2tics\n"
        f"plot '{csv_path}' using 1:3 with lines title 'near-opt prob', \\\n"
        f"     '{csv_path}' using 1:4 axes x1y2 with lines title 'avg Hamming top-50'\n"
    )
    # a path with neither suffix is the CSV itself, and the script sits beside it
    bare = tmp_path / "bare" / "hist"
    bare.parent.mkdir()
    main(["run-hybrid", "--instance", small_instance_path,
          "--iterations", "10", "--cadence", "5", "--out", str(bare), "--gnuplot"])
    assert sorted(p.name for p in bare.parent.iterdir()) == ["hist", "hist.gp"]
    assert bare.read_text() == csv_path.read_text()
    assert f"plot '{bare}' using 1:3" in (bare.parent / "hist.gp").read_text()


@pytest.mark.parametrize("argv", [
    ["run-hybrid", "--iterations", "5"],
    ["bench-classical", "--sizes", "4", "--trials", "1"],
], ids=lambda argv: argv[0])
def test_gnuplot_without_out_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # it once exited 0 having written no script, run-hybrid after its full run
    def no_work(*args, **kwargs):
        raise AssertionError("worked before the flags were checked")

    monkeypatch.setattr("ucqaoa.hybrid.run_hybrid", no_work)
    monkeypatch.setattr("ucqaoa.baseline.scaling_benchmark", no_work)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--gnuplot"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --gnuplot needs --out" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_run_hybrid_depth_flag_changes_history(small_instance_path, tmp_path):
    outs = []
    for depth in ("1", "2"):
        out = str(tmp_path / f"h{depth}.csv")
        main(["run-hybrid", "--instance", small_instance_path, "--depth", depth,
              "--iterations", "10", "--cadence", "5", "--out", out])
        outs.append(open(out).read())
    assert outs[0] != outs[1]


# ---------------------------------------------------------------------------
# solve-classical


def test_solve_classical_builtin(capsys):
    assert main(["solve-classical"]) == 0
    printed = dict(line.split("=", 1) for line in
                   capsys.readouterr().out.strip().splitlines())
    assert printed["commitment"] == "1100000000"
    assert float(printed["cost"]) == pytest.approx(13683.129729243481)
    assert printed["proven_gap"] == "0.0"
    assert printed["wall_time_s"] == "0.0"
    assert int(printed["nodes_expanded"]) == 10
    powers = [float(tok) for tok in printed["powers"].split(",")]
    assert len(powers) == 10
    assert sum(powers) == pytest.approx(700.0, rel=1e-6)


def test_solve_classical_gap_flag(capsys):
    assert main(["solve-classical", "--gap", "0.08"]) == 0
    printed = dict(line.split("=", 1) for line in
                   capsys.readouterr().out.strip().splitlines())
    assert float(printed["proven_gap"]) <= 0.08 + 1e-12
    assert float(printed["cost"]) <= 1.08 * 13683.129729243481


def test_solve_classical_stdout_stable(capsys):
    main(["solve-classical"])
    first = capsys.readouterr().out
    main(["solve-classical"])
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# bench-classical


def test_bench_classical_csv(tmp_path):
    out = str(tmp_path / "scaling.csv")
    rc = main(["bench-classical", "--sizes", "3,4", "--trials", "2",
               "--no-wall-times", "--out", out, "--gnuplot"])
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0] == ["n", "mode", "median_ms", "cost", "nodes_expanded"]
    assert [(r[0], r[1]) for r in rows[1:]] == [
        ("3", "exact"), ("3", "approx"), ("4", "exact"), ("4", "approx")]
    assert all(r[2] == "0.0" for r in rows[1:])
    expected = scaling_benchmark([3, 4], trials=2)
    assert [(float(r[3]), float(r[4])) for r in rows[1:]] == [
        (cost, nodes) for _, _, _, cost, nodes in expected]
    assert (tmp_path / "scaling.gp").read_text() == (
        "set datafile separator ','\n"
        "set xlabel 'units'\n"
        "set ylabel 'median wall time (ms)'\n"
        "set logscale y\n"
        f"plot '{out}' using 1:(strcol(2) eq 'exact' ? $3 : 1/0) with linespoints title 'exact', \\\n"
        f"     '{out}' using 1:(strcol(2) eq 'approx' ? $3 : 1/0) with linespoints title 'approx'\n"
    )
    out2 = str(tmp_path / "scaling2.csv")
    main(["bench-classical", "--sizes", "3,4", "--trials", "2",
          "--no-wall-times", "--out", out2])
    assert open(out).read().splitlines()[:5] == open(out2).read().splitlines()[:5]


def test_bench_classical_bad_sizes(capsys):
    assert main(["bench-classical", "--sizes", "3,x"]) == 2
    _assert_one_error(capsys, "expected comma-separated integers, got '3,x'")


@pytest.mark.parametrize("sizes", [",", " , "])
def test_bench_classical_no_sizes(sizes, tmp_path, capsys):
    # empty items are skipped, so these name no size; exit 0 with only
    # the CSV header once
    out = tmp_path / "scaling.csv"
    assert main(["bench-classical", "--sizes", sizes, "--trials", "1", "--out", str(out)]) == 2
    _assert_one_error(capsys, "sizes must name at least one size, got none")
    assert not out.exists()


# ---------------------------------------------------------------------------
# metrics


def test_simulate_then_metrics_pipeline(small_instance_path, tmp_path, capsys):
    dist = str(tmp_path / "dist.csv")
    main(["simulate", "--instance", small_instance_path,
          "--gamma", "0", "--beta", "0", "--out", dist])
    capsys.readouterr()
    rc = main(["metrics", "--instance", small_instance_path,
               "--distribution", dist, "--fraction", "0.05", "--k", "4"])
    assert rc == 0
    rows = dict(ln.split(",", 1) for ln in
                capsys.readouterr().out.strip().splitlines()[1:])
    members = int(rows["members"])
    assert members >= 1
    # uniform distribution puts exactly members/2^N mass on the set
    assert float(rows["near_opt_prob"]) == pytest.approx(members / 16, rel=1e-12)
    assert "avg_hamming_top4" in rows
    assert float(rows["cutoff"]) >= float(rows["optimal_cost"])


def test_metrics_rejects_malformed_distribution(small_instance_path, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n00,0.5\n")
    assert main(["metrics", "--instance", small_instance_path,
                 "--distribution", str(bad)]) == 2
    short = tmp_path / "short.csv"
    short.write_text("bitstring,probability\n0000,1.0\n")
    assert main(["metrics", "--instance", small_instance_path,
                 "--distribution", str(short)]) == 2
    capsys.readouterr()
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("bitstring,probability\n000,1.0\n")
    assert main(["metrics", "--instance", small_instance_path,
                 "--distribution", str(narrow)]) == 2
    _assert_one_error(capsys, f"{narrow}: bitstring '000' is not length 4")


def _uniform_rows(n):
    return [[index_to_string(k, n), repr(1.0 / (1 << n))] for k in range(1 << n)]


def _corrupt_duplicate(rows, spare):
    rows[spare[0]][0] = rows[spare[1]][0]  # one bitstring twice, another missing


def _corrupt_sum(rows, spare):
    for row in rows:
        row[1] = repr(0.4 / len(rows))


def _corrupt_nan(rows, spare):
    rows[spare[0]][1] = "nan"


def _corrupt_negative(rows, spare):
    rows[spare[0]][1] = repr(-1.0 / len(rows))
    rows[spare[1]][1] = repr(3.0 / len(rows))  # the sum stays 1


def _corrupt_non_numeric(rows, spare):
    rows[spare[0]][1] = "abc"


@pytest.mark.parametrize("corrupt", [
    _corrupt_duplicate, _corrupt_sum, _corrupt_nan, _corrupt_negative, _corrupt_non_numeric,
], ids=["duplicate", "sum", "nan", "negative", "non-numeric"])
def test_metrics_rejects_invalid_distribution(small_instance_path, tmp_path, capsys, corrupt):
    # spoil rows outside the near-optimal set, where the metrics alone would not notice
    members = near_optimal_set(random_instance(4, rng=3), 0.05).members
    spare = [k for k in range(16) if k not in members]
    rows = _uniform_rows(4)
    corrupt(rows, spare)
    path = tmp_path / "dist.csv"
    path.write_text("bitstring,probability\n" + "".join(f"{b},{p}\n" for b, p in rows))
    rc = main(["metrics", "--instance", small_instance_path, "--distribution", str(path)])
    assert rc == 2
    assert str(path) in capsys.readouterr().err


def test_metrics_rejects_missing_probability_column(small_instance_path, tmp_path, capsys):
    path = tmp_path / "dist.csv"
    path.write_text("bitstring,prob\n" + "".join(f"{b},{p}\n" for b, p in _uniform_rows(4)))
    rc = main(["metrics", "--instance", small_instance_path, "--distribution", str(path)])
    assert rc == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("simulate_args,expected", [
    pytest.param(["--gamma", "0.3,0.5", "--beta", "0.2,0.4"],
                 "near_opt_prob,0.00547708547794123\navg_hamming_top50,3.32\n", id="exact"),
    pytest.param(["--gamma", "0.3", "--beta", "0.2", "--shots", "1000"],
                 "near_opt_prob,0.002\navg_hamming_top50,3.42\n", id="shots"),
])
def test_simulate_output_passes_metrics(tmp_path, capsys, simulate_args, expected):
    dist = str(tmp_path / "dist.csv")
    assert main(["simulate", *simulate_args, "--out", dist]) == 0
    capsys.readouterr()
    assert main(["metrics", "--distribution", dist]) == 0
    assert capsys.readouterr().out.replace("\r\n", "\n") == (
        "metric,value\n" + expected
        + "members,8\noptimal_cost,13683.12975\ncutoff,14367.2862375\n"
    )


@pytest.mark.parametrize("case", ["builtin-exact", "four-unit-explicit"])
def test_simulate_distribution_matches_matrix_qubo_oracle(tmp_path, small_instance_path, case):
    # simulate builds its table from the rank-1 coupling; the distribution it
    # writes must equal, to rounding, the one the matrix QUBO's table drives
    if case == "builtin-exact":
        inst = builtin_ten_unit()
        argv = ["--gamma", "0.3,0.5", "--beta", "0.2,0.4"]
        gamma, beta = [0.3, 0.5], [0.2, 0.4]
        theta = initial_theta(inst, HybridConfig(depth=2))
        ca = ContinuousAssignment(p=theta.p, s1=theta.s1, s2=theta.s2)
    else:
        inst = random_instance(4, rng=3)
        _, _, _, lo, hi = inst.coeff_arrays
        ca = ContinuousAssignment(p=0.5 * (lo + hi), s1=[0.0, 5.0, 12.5, 1.0],
                                  s2=[3.0, 0.0, 7.25, 20.0])
        argv = ["--instance", small_instance_path, "--gamma", "0.7", "--beta", "1.1"]
        for name, v in (("--p", ca.p), ("--s1", ca.s1), ("--s2", ca.s2)):
            argv += [name, ",".join(map(repr, v.tolist()))]
        gamma, beta = [0.7], [1.1]
    out = tmp_path / "dist.csv"
    assert main(["simulate", *argv, "--out", str(out)]) == 0
    rows = _read_csv(out)[1:]
    written = np.zeros(1 << inst.n)
    for bits, prob in rows:
        written[bits_to_index(string_to_bits(bits))] = float(prob)
    diag = qubo_diagonal(build_qubo(inst, PenaltyWeights.default_for(inst), ca))
    want = qaoa_distribution(diag, circuit_angles(gamma, beta))
    assert len(rows) == 1 << inst.n
    assert np.max(np.abs(written - want)) <= 1e-12


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("argv,message", [
    (["solve-classical", "--gap", "nan"], "gap must be finite and >= 0, got nan"),
    (["bench-classical", "--sizes", "4", "--trials", "1", "--gap", "nan"],
     "gap must be finite and >= 0, got nan"),
    (["metrics", "--fraction", "nan"], "fraction must be finite and >= 0, got nan"),
    (["run-hybrid", "--fraction", "nan"], "fraction must be finite and >= 0, got nan"),
    (["solve-classical", "--gap", "inf"], "gap must be finite and >= 0, got inf"),
    (["bench-classical", "--sizes", "4", "--trials", "1", "--gap", "inf"],
     "gap must be finite and >= 0, got inf"),
    (["metrics", "--fraction", "inf"], "fraction must be finite and >= 0, got inf"),
    (["run-hybrid", "--fraction", "inf"], "fraction must be finite and >= 0, got inf"),
], ids=["solve-classical", "bench-classical", "metrics", "run-hybrid",
        "solve-classical-inf", "bench-classical-inf", "metrics-inf", "run-hybrid-inf"])
def test_exit_code_nan_gap_or_fraction(argv, message, small_instance_path, tmp_path, capsys):
    if argv[0] in ("metrics", "run-hybrid"):
        argv = [argv[0], "--instance", small_instance_path, *argv[1:]]
    if argv[0] == "metrics":
        dist = tmp_path / "dist.csv"
        dist.write_text("bitstring,probability\n"
                        + "".join(f"{b},{p}\n" for b, p in _uniform_rows(4)))
        argv += ["--distribution", str(dist)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["bench-classical", "--sizes", "4", "--trials", "0"], "trials must be >= 1, got 0"),
    (["bench-classical", "--sizes", "0", "--trials", "1"], "sizes[0] must be >= 1, got 0"),
    (["simulate", "--gamma", "0.2", "--beta", "0.1", "--top", "0"], "k must be >= 1, got 0"),
    (["metrics", "--k", "0"], "k must be >= 1, got 0"),
], ids=["bench-classical-trials", "bench-classical-sizes", "simulate-top", "metrics-k"])
def test_exit_code_count_below_one(argv, message, small_instance_path, tmp_path, capsys):
    if argv[0] in ("simulate", "metrics"):
        argv = [argv[0], "--instance", small_instance_path, *argv[1:]]
    if argv[0] == "metrics":
        dist = tmp_path / "dist.csv"
        dist.write_text("bitstring,probability\n"
                        + "".join(f"{b},{p}\n" for b, p in _uniform_rows(4)))
        argv += ["--distribution", str(dist)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_exit_code_success(capsys):
    assert main(["solve-classical"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("commitment=") and captured.err == ""


@pytest.mark.parametrize("flags,message", [
    (["--gamma", "0.3", "--beta", "0.2", "--lambda1", "1e308", "--lambda2", "1", "--lambda3", "1"],
     "cost table is not finite at PenaltyWeights(lambda1=1e+308, lambda2=1.0, lambda3=1.0) "
     "and the given p, s1, s2"),
    (["--gamma", "1e308", "--beta", "1e308"],
     "phase gamma * cost is not finite: max |gamma| 1e+308 times max |cost| "),
], ids=["weights", "gamma"])
@pytest.mark.parametrize("shots", ["0", "300"], ids=["exact", "shots"])
def test_exit_code_non_finite_table_or_phase(flags, message, shots, capsys):
    # refused before the circuit runs: no RuntimeWarning (the suite fails on
    # one) and no complaint about a nan distribution the user never passed
    assert main(["simulate", *flags, "--shots", shots]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("weights,message", [
    ("1e308", "cost table is not finite at PenaltyWeights(lambda1=1e+308, lambda2=1e+308, "
              "lambda3=1e+308) and the optimizer's p, s1, s2"),
    ("1e160", "standard deviation of the cost table overflows at PenaltyWeights("
              "lambda1=1e+160, lambda2=1e+160, lambda3=1e+160) and the optimizer's p, s1, s2"),
], ids=["table", "spread"])
@pytest.mark.parametrize("shots", ["0", "64"], ids=["exact", "shots"])
def test_exit_code_run_hybrid_at_extreme_weights(weights, message, shots, capsys):
    # at 1e308 the table overflowed with four RuntimeWarnings before the run
    # failed; at 1e160 the table was finite but its spread was not, so every
    # phase angle was 0 and the run exited 0 reporting the uniform distribution
    weight_flags = [f"--lambda{i}={weights}" for i in (1, 2, 3)]
    assert main(["run-hybrid", "--iterations", "3", "--shots", shots, *weight_flags]) == 1
    _assert_one_error(capsys, message)


def test_exit_code_missing_file(capsys):
    assert main(["oracle", "--instance", "/nonexistent/x.json"]) == 2
    _assert_one_error(capsys, "[Errno 2] No such file or directory: '/nonexistent/x.json'")


def test_exit_code_unwritable_out(small_instance_path, tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "oracle.csv"
    assert main(["oracle", "--instance", small_instance_path, "--out", str(out)]) == 2
    _assert_one_error(capsys, f"[Errno 2] No such file or directory: '{out}'")


@pytest.mark.parametrize("argv", [
    ["solve-classical"], ["solve-classical", "--gap", "0.08"], ["oracle"],
], ids=["solve-classical", "solve-classical-gap", "oracle"])
def test_exit_code_overflowing_unit_cost(argv, tmp_path, capsys):
    # the commitment covers the load, but its cost overflows: this was exit 3,
    # "no feasible commitment covers load 1e+200", or an oracle row 1,inf,true
    path = tmp_path / "over.json"
    path.write_text(json.dumps(
        {"load": 1e200, "units": [{"p_min": 0, "p_max": 1e200, "a": 1, "b": 1, "c": 1}]}))
    assert main([*argv, "--instance", str(path)]) == 2
    _assert_one_error(capsys, "units[0]: cost a + b*p_max + c*p_max**2 at p_max 1e+200 is not finite")


def test_exit_code_infeasible(capsys):
    assert main(["solve-classical", "--load", "5000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("warning: load 5000.0 MW exceeds total capacity 1662.0 MW; no feasible "
                            "commitment exists\nerror: no feasible commitment covers load 5000.0 "
                            "(total capacity 1662.0)\n")


@pytest.mark.parametrize("command,code", [("solve-classical", 3), ("oracle", 0)])
def test_package_warning_is_one_stderr_line(command, code, tmp_path, capsys):
    # this printed "<string>:6: UserWarning: ...", pointing into the
    # dataclass's generated __init__
    path = tmp_path / "no_capacity.json"
    path.write_text(json.dumps(_doc(1, (0, 0, 1, 1, 1))))
    assert main([command, "--instance", str(path)]) == code
    err = capsys.readouterr().err.splitlines()
    assert err[0] == ("warning: load 1.0 MW exceeds total capacity 0.0 MW; "
                      "no feasible commitment exists")
    assert err[1:] == (["error: no feasible commitment covers load 1.0 (total capacity 0.0)"]
                       if code else [])


_OVER_CAPACITY = {"load": 1000, "units": [{"p_min": 0, "p_max": 100, "a": 1, "b": 1, "c": 1}]}


@pytest.mark.parametrize("load, code, used", [(None, 3, "1000.0"), ("50", 0, None),
                                              ("5000", 3, "5000.0")])
def test_capacity_warning_names_the_load_solved_at(load, code, used, tmp_path, capsys):
    # --load 50 warned about the document's 1000 MW, which it never solves at
    path = tmp_path / "over.json"
    path.write_text(json.dumps(_OVER_CAPACITY))
    flag = [] if load is None else ["--load", load]
    assert main(["solve-classical", "--instance", str(path), *flag]) == code
    err = capsys.readouterr().err.splitlines()
    assert err == ([] if used is None else [
        f"warning: load {used} MW exceeds total capacity 100.0 MW; no feasible commitment exists",
        f"error: no feasible commitment covers load {used} (total capacity 100.0)"])


def test_exit_code_size_guard(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(serialize_instance(random_instance(21, rng=0)))
    for argv in (["run-hybrid", "--instance", str(big), "--iterations", "5"],
                 ["simulate", "--instance", str(big), "--gamma", "0.2", "--beta", "0.1"]):
        assert main(argv) == 4, argv[0]
        _assert_one_error(capsys, "simulator guard is n <= 20, got 21")


@pytest.mark.parametrize("n", [21, 40])
def test_exit_code_metrics_size_guard(n, tmp_path, capsys):
    # the guard must hold before the 2**n distribution is allocated: at 40
    # units that allocation raised MemoryError, which main does not catch
    big = tmp_path / "big.json"
    big.write_text(serialize_instance(random_instance(n, rng=1)))
    dist = tmp_path / "dist.csv"
    dist.write_text(f"bitstring,probability\n{'0' * n},1.0\n")
    assert main(["metrics", "--instance", str(big), "--distribution", str(dist)]) == 4
    assert capsys.readouterr().err == f"error: simulator guard is n <= 20, got {n}\n"


def test_exit_code_number_past_float_range(tmp_path, capsys):
    # a 400-digit integer overflows float(): a validation error, not a traceback
    big = tmp_path / "big.json"
    doc = json.loads(serialize_instance(random_instance(3, rng=0)))
    doc["units"][0]["p_max"] = int("1" * 400)
    big.write_text(json.dumps(doc))
    assert main(["solve-classical", "--instance", str(big)]) == 2
    assert "units[0]: p_max is too large" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run-hybrid", "--iterations", "5"],
    ["simulate", "--gamma", "0.2", "--beta", "0.1"],
    ["bench-classical", "--sizes", "4", "--trials", "1"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_a_usage_error(argv, capsys):
    for seed in ("-1", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", seed, *argv])
        assert exc.value.code == 2
        assert f"--seed: expected an integer >= 0, got '{seed}'" in capsys.readouterr().err


@pytest.fixture
def zero_fixed_cost_path(tmp_path):
    inst = random_instance(3, rng=5)
    inst = UcInstance(units=tuple(dataclasses.replace(u, a=0.0) for u in inst.units),
                      load=inst.load)
    path = tmp_path / "zero_a.json"
    path.write_text(serialize_instance(inst))
    return str(path)


def test_exit_code_zero_default_weights(zero_fixed_cost_path, capsys):
    rc = main(["run-hybrid", "--instance", zero_fixed_cost_path, "--iterations", "5",
               "--lambda1", "1.0"])
    assert rc == 2
    assert "explicit weights" in capsys.readouterr().err


def test_explicit_weights_run_without_default(zero_fixed_cost_path, capsys):
    rc = main(["run-hybrid", "--instance", zero_fixed_cost_path, "--iterations", "5",
               "--lambda1", "1.0", "--lambda2", "1.0", "--lambda3", "1.0"])
    assert rc == 0
    assert "iterations=5" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["simulate", "--gamma", "0.2", "--beta", "0.1"],
    ["run-hybrid", "--iterations", "5"],
], ids=["simulate", "run-hybrid"])
def test_default_weights_at_overflowing_load_exit_two(tmp_path, capsys, argv):
    # L**2 is past the largest float, so the default weights are 0
    path = tmp_path / "huge_load.json"
    path.write_text(serialize_instance(
        UcInstance(units=(UnitSpec(0.0, 1e200, 1.0, 1.0, 0.0),), load=1e200)))
    assert main(argv + ["--instance", str(path)]) == 2
    assert "error: default penalty weights" in capsys.readouterr().err


def test_builtin_token_matches_library(capsys):
    main(["oracle", "--load", "700"])
    out_seeded = capsys.readouterr().out
    inst = builtin_ten_unit(700.0)
    best_bits, best_sol = enumerate_all(inst)[0]
    first = out_seeded.splitlines()[1].split(",")
    assert first[0] == "".join(str(b) for b in best_bits)
    assert float(first[1]) == pytest.approx(best_sol.cost)


# ---------------------------------------------------------------------------
# flags drawn across float range

# 0, or a magnitude log-uniform over [1e-300, 1e300] of either sign
_EXTREMES = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)))


@pytest.fixture(scope="module")
def four_unit_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "inst4.json"
    path.write_text(serialize_instance(random_instance(4, rng=3)))
    return str(path)


def _values(values):
    return ",".join(repr(v) for v in values)


@given(data=st.data())
@settings(max_examples=120)
def test_circuit_commands_at_extreme_flags(four_unit_path, data):
    command = data.draw(st.sampled_from(["simulate", "run-hybrid"]), label="command")
    builtin = data.draw(st.booleans(), label="builtin")
    n = 10 if builtin else 4
    argv = [command, "--shots=" + data.draw(st.sampled_from(["0", "64"]), label="shots")]
    if not builtin:
        argv.append(f"--instance={four_unit_path}")
    for name in ("lambda1", "lambda2", "lambda3"):
        value = data.draw(st.none() | _EXTREMES, label=name)
        if value is not None:
            argv.append(f"--{name}={value!r}")
    if command == "run-hybrid":
        argv.append("--iterations=3")
    else:
        for name in ("gamma", "beta"):
            argv.append(f"--{name}=" + _values(
                data.draw(st.lists(_EXTREMES, min_size=1, max_size=2), label=name)))
        for name in ("p", "s1", "s2"):
            values = data.draw(st.none() | st.lists(_EXTREMES, min_size=n, max_size=n), label=name)
            if values is not None:
                argv.append(f"--{name}=" + _values(values))
    _run_cleanly(argv)


def _run_cleanly(argv):
    """main(argv)'s exit code, once it is known to have raised no
    RuntimeWarning and to have printed either a result free of inf and nan
    or one error line and nothing on stdout, after at most the one warning
    line of a load above capacity."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code in (0, 1, 2, 3, 4)
    lines = err.getvalue().splitlines(keepends=True)
    if lines and lines[0].startswith("warning: load "):
        assert "exceeds total capacity" in lines.pop(0)
    errors = "".join(lines)
    if code == 0:
        assert errors == ""
        assert "inf" not in out.getvalue() and "nan" not in out.getvalue()
    else:
        assert out.getvalue() == ""
        assert errors.startswith("error: ") and errors.count("\n") == 1
    return code


# ---------------------------------------------------------------------------
# instance documents drawn across float range

_FIELDS = ("p_min", "p_max", "a", "b", "c")

_DOCUMENTS = st.fixed_dictionaries({
    "load": _EXTREMES.map(abs),
    "units": st.lists(st.fixed_dictionaries({k: _EXTREMES.map(abs) for k in _FIELDS}),
                      min_size=1, max_size=4),
})


def _doc(load, *units):
    return {"load": load, "units": [dict(zip(_FIELDS, unit)) for unit in units]}


def _some_commitment_covers(doc):
    """Whether some set of units has sum(p_min) <= load <= sum(p_max)."""
    units, load = doc["units"], doc["load"]
    return any(sum(u["p_min"] for u in on) <= load <= sum(u["p_max"] for u in on)
               for size in range(1, len(units) + 1)
               for on in itertools.combinations(units, size))


@given(doc=_DOCUMENTS, weights=st.booleans())
@example(doc=_doc(1e-170, (0, 1, 1, 1, 1)), weights=False)  # L**2 rounds to 0
@example(doc=_doc(1e-100, (0, 1, 1e300, 1, 1)), weights=False)  # 10*max(a)/L**2 overflows
@example(doc=_doc(1e200, (0, 1e200, 1, 1, 0), (0, 1e200, 1, 1, 0)), weights=True)  # load*p_max
@example(doc=_doc(1, (0, 0, 1, 1, 1)), weights=False)  # no capacity: p = 0 is the one point
@example(doc=_doc(1, (0, 1e308, 1, 0, 0), (0, 1e308, 1, 0, 0)), weights=False)  # sum(p_max)
@settings(max_examples=200)
def test_every_command_on_extreme_documents(tmp_path_factory, doc, weights):
    path = tmp_path_factory.getbasetemp() / "extreme_document.json"
    path.write_text(json.dumps(doc))
    explicit = ["--lambda1=1", "--lambda2=1", "--lambda3=1"] if weights else []
    for argv in (["oracle"], ["solve-classical"], ["solve-classical", "--gap=0.08"],
                 ["simulate", "--gamma=0.3", "--beta=0.2", *explicit],
                 ["run-hybrid", "--iterations=2", *explicit]):
        code = _run_cleanly([*argv, f"--instance={path}"])
        # infeasible means no set of units can carry the load, not sum(p_max) < load
        assert code != 3 or not _some_commitment_covers(doc), argv
