"""Self-test of the benchmark, run from the checkout root:

    python3 perfbench/selftest.py [--workload NAME] [--seed 0] [--other-seed 1]

For every workload (or the one named) it checks that
  * two traced runs with the same seed report identical counters: every
    per-layer metric whose unit is ``count``, plus the deterministic
    trajectory fingerprints ``hybrid.near_opt_prob`` and
    ``hybrid.final_objective``;
  * a plain run with another seed is correct with no failed solve (a
    plain run that imported the tracing wrappers is reported incorrect).
Each run does one pass per child.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINTS = ("hybrid.near_opt_prob", "hybrid.final_objective")


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--other-seed", type=int, default=1)
    args = ap.parse_args()
    counters = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    counters += FINGERPRINTS
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]

    failures = []
    for workload in workloads:
        first, second = (bench(workload, args.seed, 1)["metrics"] for _ in range(2))
        differ = [name for name in counters if first[name]["value"] != second[name]["value"]]
        if differ:
            failures.append(f"{workload}: counters differ between traced runs: {differ}")
        other = bench(workload, args.other_seed, 0)
        if not other["correct"] or other["failed"] != 0:
            failures.append(f"{workload}: seed {args.other_seed} ran with {other['failed']} "
                            f"failed of {other['attempted']}, correct={other['correct']}")
        print(f"{workload}: {len(counters)} counters compared, "
              f"seed {args.other_seed} failed_ratio {other['failed'] / other['attempted']:.3g}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
