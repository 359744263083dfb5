"""Command-line surface.

Subcommands: oracle, simulate, run-hybrid, solve-classical,
bench-classical, metrics.  Exit codes: 0 success, 2 validation/file
error, 3 infeasible instance, 4 size guard exceeded, 1 non-finite
objective.

Timing fields are zeroed by default in run-hybrid and solve-classical
output (pass --wall-times for real clocks) and real by default in
bench-classical (pass --no-wall-times to zero them), so that every
artifact a regression test pins is byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import logging
import math
import sys
import warnings
from typing import Optional, Sequence

import numpy as np

from . import baseline, dispatch, hybrid, metrics, qaoa
from .errors import (
    InfeasibleError,
    NonFiniteObjectiveError,
    SizeGuardError,
    ValidationError,
)
from .instance import (
    UcInstance,
    _finite_float,
    _finite_vector,
    bits_to_index,
    bits_to_string,
    builtin_ten_unit,
    index_to_string,
    load_instance_file,
    string_to_bits,
)
from .qubo import PenaltyWeights, _cost_table

log = logging.getLogger("ucqaoa")

BUILTIN_TOKEN = "builtin:ten-unit"

# the exit code of each error main reports, looked up in this order by
# isinstance, so a subclass (FileNotFoundError of OSError) takes its base's code
_EXIT_CODES = {SizeGuardError: 4, InfeasibleError: 3, ValidationError: 2, OSError: 2,
               NonFiniteObjectiveError: 1}


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_instance(args) -> UcInstance:
    """The named instance, at --load when it is given.  Only the load the
    command solves at is checked against capacity."""
    load = getattr(args, "load", None)
    with warnings.catch_warnings():
        if load is not None:
            warnings.filterwarnings("ignore", "load .* MW exceeds total capacity")
        inst = (builtin_ten_unit() if args.instance == BUILTIN_TOKEN
                else load_instance_file(args.instance))
    return inst if load is None else inst.with_load(load)


def _weights(args, inst: UcInstance) -> PenaltyWeights:
    given = (args.lambda1, args.lambda2, args.lambda3)
    if None in given:  # default_for raises when max(a) is 0, so ask only when needed
        default = PenaltyWeights.default_for(inst).lambda1  # all three are equal
        given = tuple(default if v is None else v for v in given)
    return PenaltyWeights(*given)


def _numbers(text: str, kind: type) -> list:
    """A comma-separated list of `kind` (float or int); empty items are skipped."""
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise ValidationError(f"expected comma-separated {noun}, got {text!r}") from exc


def _seed(text: str) -> int:
    """--seed: numpy's generators accept only non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return seed


def _write_rows(path: Optional[str], header: Sequence[str], rows) -> None:
    """A CSV file at `path`, or on stdout when `path` is None or '-'."""
    to_stdout = path is None or path == "-"
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def cmd_oracle(args) -> None:
    inst = _load_instance(args)
    entries = dispatch.enumerate_all(inst)
    log.info("enumerated %d commitments for %s", len(entries), inst.name)
    rows = []
    for bits, sol in entries:
        cost = _fmt(sol.cost) if sol.feasible else ""
        rows.append([bits_to_string(bits), cost, "true" if sol.feasible else "false"])
    _write_rows(args.out, ["bitstring", "cost", "feasible"], rows)


def _distribution_rows(probs: np.ndarray, n: int, k: Optional[int]):
    if k is None:
        idx = np.arange(probs.size)
    else:
        idx = metrics.top_k(probs, k)
    return [[index_to_string(int(i), n), _fmt(probs[int(i)])] for i in idx]


def cmd_simulate(args) -> None:
    inst = _load_instance(args)
    w = _weights(args, inst)
    gamma = _numbers(args.gamma, float)
    beta = _numbers(args.beta, float)
    # HybridConfig validates the shot count as run-hybrid does
    cfg = hybrid.HybridConfig(depth=max(1, len(gamma)), seed=args.seed, shots=args.shots)
    theta0 = hybrid.initial_theta(inst, cfg)
    p, s1, s2 = (
        _finite_vector(_numbers(text, float) if text else getattr(theta0, name), name, inst.n, 0)
        for name, text in (("p", args.p), ("s1", args.s1), ("s2", args.s2))
    )
    theta = hybrid.ThetaVector(gamma, beta, p, s1, s2)
    qaoa._check_qubits(inst.n)
    diag = _cost_table(inst, w, p, s1, s2)  # refuses a table that is not finite
    top_gamma, top_cost = float(np.abs(theta.gamma).max()), float(np.abs(diag).max())
    if not math.isfinite(top_gamma * top_cost):  # bounds every phase angle gamma * diag[k]
        raise NonFiniteObjectiveError(f"phase gamma * cost is not finite: max |gamma| "
                                      f"{top_gamma!r} times max |cost| {top_cost!r}")
    probs = qaoa.qaoa_distribution(diag, theta)
    if args.shots > 0:
        rng = np.random.default_rng(args.seed)
        probs = qaoa.sample(probs, args.shots, rng) / args.shots
    _write_rows(None, ["bitstring", "probability"],
                _distribution_rows(probs, inst.n, args.top))
    if args.out is not None:
        _write_rows(args.out, ["bitstring", "probability"],
                    _distribution_rows(probs, inst.n, None))


def _gnuplot(gp_path: str, settings: Sequence[str], plots: Sequence[str]) -> None:
    """A gnuplot script: a `set` line per setting, then one plot command
    drawing each of `plots` (a file, its columns and its style)."""
    lines = ["datafile separator ','", *settings]
    with open(gp_path, "w") as fh:
        fh.write("".join(f"set {line}\n" for line in lines)
                 + "plot " + ", \\\n     ".join(plots) + "\n")


def _stem(path: str) -> str:
    for suffix in (".json", ".csv"):
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


def cmd_run_hybrid(args) -> None:
    inst = _load_instance(args)
    cfg = hybrid.HybridConfig(
        depth=args.depth,
        weights=_weights(args, inst),
        max_iterations=args.iterations,
        seed=args.seed,
        shots=args.shots,
        metric_cadence=args.cadence,
        near_opt_fraction=args.fraction,
    )
    history = hybrid.run_hybrid(inst, cfg)
    records = history.records
    if not args.wall_times:
        records = tuple(dataclasses.replace(r, elapsed_ms=0.0) for r in records)
    if args.out is not None:
        fmt = "json" if args.out.endswith(".json") else "csv"
        metrics.export_history(records, fmt, args.out)
        if args.gnuplot:
            csv_path = args.out
            if fmt == "json":
                csv_path = _stem(args.out) + ".csv"
                metrics.export_history(records, "csv", csv_path)
            _gnuplot(_stem(args.out) + ".gp",
                     ["xlabel 'iteration'", "ylabel 'near-optimal probability'",
                      "y2label 'avg Hamming distance (top 50)'", "y2tics"],
                     [f"'{csv_path}' using 1:3 with lines title 'near-opt prob'",
                      f"'{csv_path}' using 1:4 axes x1y2 with lines title 'avg Hamming top-50'"])
    final = records[-1]
    print(f"iterations={final.iter}")
    print(f"objective={_fmt(final.objective)}")
    print(f"near_opt_prob={_fmt(final.near_opt_prob)}")
    print(f"avg_hamming_top50={_fmt(final.avg_hamming_top50)}")
    print(f"best_bitstring={final.best_bitstring}")


def cmd_solve_classical(args) -> None:
    inst = _load_instance(args)
    report = baseline.solve_exact(inst) if args.gap is None else baseline.solve_approx(inst, args.gap)
    wall = report.wall_time_s if args.wall_times else 0.0
    print(f"commitment={bits_to_string(report.commitment)}")
    print(f"cost={_fmt(report.dispatch.cost)}")
    print(f"powers={','.join(_fmt(p) for p in report.dispatch.powers)}")
    print(f"proven_gap={_fmt(report.proven_gap)}")
    print(f"nodes_expanded={report.nodes_expanded}")
    print(f"wall_time_s={_fmt(wall)}")


def cmd_bench_classical(args) -> None:
    sizes = _numbers(args.sizes, int)
    rows = baseline.scaling_benchmark(sizes, trials=args.trials, gap=args.gap, seed=args.seed)
    out_rows = [[n, mode, _fmt(ms if args.wall_times else 0.0), _fmt(cost), _fmt(nodes)]
                for n, mode, ms, cost, nodes in rows]
    _write_rows(args.out, ["n", "mode", "median_ms", "cost", "nodes_expanded"], out_rows)
    if args.gnuplot:
        _gnuplot(_stem(args.out) + ".gp",
                 ["xlabel 'units'", "ylabel 'median wall time (ms)'", "logscale y"],
                 [f"'{args.out}' using 1:(strcol(2) eq '{mode}' ? $3 : 1/0) "
                  f"with linespoints title '{mode}'" for mode in ("exact", "approx")])


def _load_distribution(path: str, n: int) -> np.ndarray:
    """The full distribution written by ``simulate --out``: one row per
    bitstring, each probability finite and >= 0, summing to 1 within 1e-9.
    Only ``simulate`` writes one, so its size guard holds here too."""
    qaoa._check_qubits(n)
    probs = np.zeros(1 << n)
    seen = np.zeros(1 << n, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"bitstring", "probability"} <= set(reader.fieldnames):
            raise ValidationError(f"{path}: expected a bitstring,probability CSV header")
        for row in reader:
            bits = string_to_bits(row["bitstring"])
            if len(bits) != n:
                raise ValidationError(
                    f"{path}: bitstring {row['bitstring']!r} is not length {n}"
                )
            k = bits_to_index(bits)
            if seen[k]:
                raise ValidationError(f"{path}: bitstring {row['bitstring']!r} repeats")
            try:  # float() refuses a missing or non-numeric cell
                probs[k] = _finite_float(float(row["probability"]), "probability", 0)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{path}: probability {row['probability']!r} of {row['bitstring']!r} "
                    "is not a finite number >= 0"
                ) from None
            seen[k] = True
    if not seen.all():
        raise ValidationError(f"{path}: has {int(seen.sum())} rows, expected {1 << n}")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"{path}: probabilities sum to {total!r}, not 1")
    return probs


def cmd_metrics(args) -> None:
    inst = _load_instance(args)
    probs = _load_distribution(args.distribution, inst.n)
    nos = dispatch.near_optimal_set(inst, args.fraction)
    snap = metrics.compute_snapshot(probs, nos, k=args.k)
    rows = [
        ["near_opt_prob", _fmt(snap.near_opt_prob)],
        [f"avg_hamming_top{args.k}", _fmt(snap.avg_hamming_top50)],
        ["members", str(len(nos.members))],
        ["optimal_cost", _fmt(nos.optimal_cost)],
        ["cutoff", _fmt(nos.cutoff)],
    ]
    _write_rows(args.out, ["metric", "value"], rows)


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", default=BUILTIN_TOKEN,
                   help=f"instance JSON path, or {BUILTIN_TOKEN!r} (default)")
    p.add_argument("--load", type=float, default=None,
                   help="override the instance's target load (MW)")


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    for name in ("lambda1", "lambda2", "lambda3"):
        p.add_argument(f"--{name}", type=float, default=None,
                       help=f"penalty weight {name} (default: 10*max(a)/L^2; "
                            "required when every a is 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucqaoa",
        description="Hybrid QAOA / simplex solver for single-period unit commitment.",
    )
    parser.add_argument("--seed", type=_seed, default=0, help="RNG seed >= 0 (default 0)")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="brute-force ranked enumeration as CSV")
    _add_instance_flags(p)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="QAOA distribution at fixed parameters")
    _add_instance_flags(p)
    _add_weight_flags(p)
    p.add_argument("--gamma", required=True, help="comma-separated cost angles")
    p.add_argument("--beta", required=True, help="comma-separated mixer angles")
    p.add_argument("--p", default=None, help="comma-separated powers (default: proportional split)")
    p.add_argument("--s1", default=None, help="comma-separated lower slacks")
    p.add_argument("--s2", default=None, help="comma-separated upper slacks")
    p.add_argument("--shots", type=int, default=0, help="sample instead of exact (0 = exact)")
    p.add_argument("--top", type=int, default=10, help="how many entries to print")
    p.add_argument("--out", default=None, help="also write the full distribution CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run-hybrid", help="full hybrid optimization run")
    _add_instance_flags(p)
    _add_weight_flags(p)
    p.add_argument("--depth", type=int, default=1, help="QAOA depth P")
    p.add_argument("--iterations", type=int, default=1500, help="simplex iteration budget")
    p.add_argument("--shots", type=int, default=0, help="sampled expectation (0 = exact)")
    p.add_argument("--cadence", type=int, default=10, help="iterations between metric snapshots")
    p.add_argument("--fraction", type=float, default=0.05, help="near-optimal cutoff fraction")
    p.add_argument("--out", default=None, help="history path (.json or .csv)")
    p.add_argument("--wall-times", action="store_true",
                   help="record real elapsed_ms instead of 0.0")
    p.add_argument("--gnuplot", action="store_true", help="write a companion .gp plot script")
    p.set_defaults(func=cmd_run_hybrid)

    p = sub.add_parser("solve-classical", help="branch-and-bound reference solve")
    _add_instance_flags(p)
    p.add_argument("--gap", type=float, default=None,
                   help="termination gap (default: exact solve)")
    p.add_argument("--wall-times", action="store_true",
                   help="print real wall_time_s instead of 0.0")
    p.set_defaults(func=cmd_solve_classical)

    p = sub.add_parser("bench-classical", help="runtime scaling benchmark CSV")
    p.add_argument("--sizes", required=True, help="comma-separated unit counts")
    p.add_argument("--trials", type=int, default=5, help="instances per size")
    p.add_argument("--gap", type=float, default=0.08, help="approximate-mode gap")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--no-wall-times", dest="wall_times", action="store_false",
                   help="write 0.0 timings for reproducible output")
    p.add_argument("--gnuplot", action="store_true", help="write a companion .gp plot script")
    p.set_defaults(func=cmd_bench_classical, wall_times=True)

    p = sub.add_parser("metrics", help="recompute metrics from a saved distribution")
    _add_instance_flags(p)
    p.add_argument("--distribution", required=True,
                   help="full distribution CSV from `simulate --out`")
    p.add_argument("--fraction", type=float, default=0.05, help="near-optimal cutoff fraction")
    p.add_argument("--k", type=int, default=50, help="top-k size for the Hamming metric")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_metrics)

    return parser


def _warning_lines(show):
    """A `warnings.showwarning` that prints each UserWarning, the kind the
    package raises, as one ``warning: <message>`` stderr line, and hands
    any other warning to ``show``."""
    def hook(message, category, filename, lineno, file=None, line=None):
        if issubclass(category, UserWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, filename, lineno, file, line)
    return hook


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "gnuplot", False) and args.out is None:
        parser.error("--gnuplot needs --out: the script plots the written CSV")
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_lines(warnings.showwarning)
            args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
