"""Benchmark of ucqaoa: one workload per invocation, run from the checkout root.

    python3 perfbench/run.py --workload hybrid-ten-unit --seed 0 --seconds 25 --trace 0

Each workload runs in fresh child processes (``perfbench/workloads.py``)
with the OpenBLAS pool pinned to one thread.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the workload
once plain and once with the layer wrappers of ``perfbench/tracing.py``
and reports the per-layer metrics.  The full record, with machine facts
and provenance, goes to ``perfbench/out/``; the last line of stdout is
the result as one JSON object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7  # process starts per run whose median is setup_s
DEADLINE_S = 170.0  # every child is killed once the run has taken this long
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def spawn(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run one child to completion and return its report; setup_s is the
    time from just before the process starts until its inputs are ready."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "workloads.py"),
           workload, str(seed), repr(seconds), mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env={**os.environ, **CHILD_ENV}, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{mode} child of {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child of {workload} exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - started
    return report


def quartiles(values: list) -> tuple[float, float]:
    """Median and third quartile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


def end_to_end(setups: list, plain: dict) -> dict:
    solve_s = [s for p in plain["passes"] for s in p["solve_s"]]
    p50, p75 = quartiles(solve_s)
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p["pass_s"] for p in plain["passes"]),
        "solve_s.p50": p50,
        "solve_s.p75": p75,
        "peak_rss_mb": plain["peak_rss_mb"],
    }


def per_layer(plain: dict, traced: dict) -> tuple[dict, list]:
    """Per-pass layer figures: counts from the first traced pass (the check
    below requires every pass to repeat them), self times as medians."""
    passes = traced["passes"]
    stats = [p["layers"] for p in passes]
    out = {}
    for name, (calls, _, _, work) in stats[0].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = statistics.median(s[name][2] for s in stats)
        if work is not None:
            out[f"{name}.{traced['work_names'][name]}"] = work
    problems = [f"pass {k} counted {name} differently"
                for k, s in enumerate(stats) for name in s
                if (s[name][0], s[name][3]) != (stats[0][name][0], stats[0][name][3])]
    summary = traced["summary"]
    nodes = summary.get("nodes_expanded", {})
    out["baseline.nodes_expanded.exact"] = nodes.get("exact", 0)
    out["baseline.nodes_expanded.approx"] = nodes.get("approx", 0)
    out["hybrid.near_opt_prob"] = summary.get("near_opt_prob", 0.0)
    out["hybrid.final_objective"] = summary.get("final_objective", 0.0)
    if "qaoa.qaoa_distribution.calls" in out and "hybrid.objective.calls" in out:
        out["hybrid.snapshot_resims"] = (out["qaoa.qaoa_distribution.calls"]
                                         - out["hybrid.objective.calls"])
    traced_run_s = statistics.median(p["pass_s"] for p in passes)
    out["trace.run_s"] = traced_run_s
    out["trace.overhead_s"] = traced_run_s - statistics.median(p["pass_s"] for p in plain["passes"])
    out["trace.coverage"] = statistics.median(
        sum(v[2] for v in s.values()) / p["pass_s"] for s, p in zip(stats, passes))
    out["trace.layers_absent"] = len(traced["absent"])
    return out, problems


def git_revision() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ucqaoa" / "__init__.py").is_file():
        print(f"no ucqaoa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run = (args.workload, args.seed)
    problems = []
    try:
        if args.trace:
            plain = spawn("plain", *run, args.seconds / 2, deadline)
            traced = spawn("traced", *run, args.seconds / 2, deadline)
            values, problems = per_layer(plain, traced)
            wanted, children = spec["per_layer"], [plain, traced]
        else:
            setups = [spawn("setup", *run, 0.0, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            plain = spawn("plain", *run, args.seconds, deadline)
            values = end_to_end(setups + [plain["setup_s"]], plain)
            wanted, children = spec["end_to_end"], [plain]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if children[0]["wrappers_loaded"]:
        problems.append("the plain run imported the tracing wrappers")

    absent = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "machine": plain["machine"],
        "metrics": metrics,
        "absent": absent,
        "problems": problems,
        "counters": {
            "passes": [len(c["passes"]) for c in children],
            "solves_per_pass": len(plain["labels"]),
            "attempted": attempted,
            "failed": failed,
            **plain["summary"],
        },
        "children": children,
    }
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {record['counters']['passes']}  solves/pass {len(plain['labels'])}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  counters {json.dumps(plain['summary'])}")
    print(f"  failed_ratio {failed / attempted:.4g}  ({failed} of {attempted} solves)")
    for name in record["absent"]:
        print(f"  absent: {name}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(f"  provenance {json.dumps({'git': record['git_revision'], 'seed': args.seed, **plain['machine']})}")
    print(f"  record {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
