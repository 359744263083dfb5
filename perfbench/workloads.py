"""One benchmark workload in one process (started by ``perfbench/run.py``).

    python3 perfbench/workloads.py WORKLOAD SEED SECONDS MODE

MODE ``setup`` imports ``ucqaoa`` from the checkout's ``src/``, builds
the workload's inputs from SEED and stops.  ``plain`` then runs timed passes for about
SECONDS; ``traced`` does the same with the layer wrappers of
``tracing.py`` installed.  A pass is the workload's fixed list of solves,
run back to back by one client (a closed loop).  The outputs are checked
after the timed phase, and one JSON object is printed on stdout.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import ucqaoa  # noqa: E402
from ucqaoa import baseline, dispatch, hybrid  # noqa: E402

LOAD_MW = 700.0
FRACTION = 0.05
GAP = 0.08
WIDE_UNITS = 16
WIDE_ITERATIONS = 40
# n=10 keeps B&B per-node dispatch the dominant cost (as at n=16) while a
# pass holds enough draws for its time to vary little from seed to seed;
# node counts per draw spread with a coefficient of variation of ~0.6-0.8.
BNB_UNITS = 10
BNB_DRAWS = 300


class Failure:
    """A solve that raised; kept in place of its result."""

    def __init__(self, text: str):
        self.text = text


class HybridBatch:
    """``run_hybrid`` once per config on one instance; the near-optimal
    set is built inside each call, as ``ucqaoa run-hybrid`` does."""

    def __init__(self, inst, configs):
        self.inst = inst
        self.configs = configs
        self.weights = ucqaoa.PenaltyWeights.default_for(inst)

    def solves(self):
        return [(f"p{cfg.depth}", lambda cfg=cfg: hybrid.run_hybrid(self.inst, cfg))
                for cfg in self.configs]

    @staticmethod
    def fingerprint(hist):
        records = tuple((r.iter, r.objective, r.near_opt_prob, r.avg_hamming_top50,
                         r.best_bitstring) for r in hist.records)
        return records, hist.final_theta.pack().tobytes()

    def check(self, results):
        return [self._check_one(cfg, hist) for cfg, hist in zip(self.configs, results)]

    def _check_one(self, cfg, hist):
        records = hist.records
        expected = cfg.max_iterations // cfg.metric_cadence + 1
        if len(records) != expected:
            return f"{len(records)} history records, expected {expected}"
        for r in records:
            values = (r.objective, r.near_opt_prob, r.avg_hamming_top50, r.elapsed_ms)
            if not all(math.isfinite(v) for v in values):
                return f"non-finite history record at iteration {r.iter}"
            if not 0.0 <= r.near_opt_prob <= 1.0:
                return f"near_opt_prob {r.near_opt_prob} outside [0, 1]"
        probs = hist.final_distribution
        if np.any(probs < 0.0) or abs(float(probs.sum()) - 1.0) > 1e-9:
            return f"final distribution is not a distribution (sum {float(probs.sum())!r})"
        again = hybrid.objective(self.inst, self.weights, hist.final_theta)
        last = records[-1].objective
        if abs(again - last) > 1e-9 * abs(last):
            return f"objective at final_theta is {again!r}, last record says {last!r}"
        return None

    def check_once(self, results):
        return [None] * len(results)

    def summary(self, results):
        """Counters and trajectory fingerprints of one pass."""
        lasts = [hist.records[-1] for hist in results if not isinstance(hist, Failure)]
        return {
            "records": [len(h.records) for h in results if not isinstance(h, Failure)],
            "near_opt_prob": statistics.fmean(r.near_opt_prob for r in lasts) if lasts else 0.0,
            "final_objective": statistics.fmean(r.objective for r in lasts) if lasts else 0.0,
        }


class BnbBatch:
    """Every draw solved by ``solve_exact`` and then ``solve_approx``."""

    def __init__(self, instances):
        self.instances = instances

    def solves(self):
        out = []
        for i, inst in enumerate(self.instances):
            out.append((f"exact-{i}", lambda inst=inst: baseline.solve_exact(inst)))
            out.append((f"approx-{i}", lambda inst=inst: baseline.solve_approx(inst, GAP)))
        return out

    @staticmethod
    def fingerprint(report):
        return report.commitment, report.dispatch.cost, report.nodes_expanded

    def check(self, results):
        problems = []
        for inst, exact, approx in zip(self.instances, results[0::2], results[1::2]):
            exact_problem = None if isinstance(exact, Failure) else self._check_exact(inst, exact)
            approx_problem = None
            if not isinstance(exact, Failure) and not isinstance(approx, Failure):
                e, a = exact.dispatch.cost, approx.dispatch.cost
                if not e <= a * (1 + 1e-12) or not a <= (1.0 + GAP) * e * (1 + 1e-12):
                    approx_problem = f"approx cost {a!r} not within [exact, 1.08 exact], exact {e!r}"
            problems += [exact_problem, approx_problem]
        return problems

    @staticmethod
    def _check_exact(inst, report):
        _, _, _, lo, hi = inst.coeff_arrays
        on = np.asarray(report.commitment) == 1
        p = report.dispatch.powers
        if abs(float(p.sum()) - inst.load) > 1e-6 * inst.load:
            return f"dispatch sums to {float(p.sum())!r}, load is {inst.load!r}"
        slack = 1e-9 * hi
        if np.any(p[on] < lo[on] - slack[on]) or np.any(p[on] > hi[on] + slack[on]) or np.any(p[~on] != 0.0):
            return "dispatch leaves its boxes"
        again = dispatch.economic_dispatch(inst, report.commitment).cost
        if abs(again - report.dispatch.cost) > 1e-9 * abs(again):
            return f"cost {report.dispatch.cost!r}, economic_dispatch gives {again!r}"
        return None

    def check_once(self, results):
        """The first draw's exact cost against full enumeration."""
        problems = [None] * len(results)
        exact = results[0]
        if not isinstance(exact, Failure):
            best = dispatch.enumerate_all(self.instances[0])[0][1].cost
            if abs(best - exact.dispatch.cost) > 1e-9 * abs(best):
                problems[0] = f"exact cost {exact.dispatch.cost!r}, enumeration optimum {best!r}"
        return problems

    def summary(self, results):
        nodes = {"exact": 0, "approx": 0}
        for (label, _), report in zip(self.solves(), results):
            if not isinstance(report, Failure):
                nodes[label.split("-")[0]] += report.nodes_expanded
        return {"nodes_expanded": nodes}


def build(workload: str, seed: int):
    if workload == "hybrid-ten-unit":
        configs = [ucqaoa.HybridConfig(depth=depth, max_iterations=1500, metric_cadence=10,
                                       near_opt_fraction=FRACTION, seed=seed)
                   for depth in (1, 2)]
        return HybridBatch(ucqaoa.builtin_ten_unit(LOAD_MW), configs)
    if workload == "hybrid-wide":
        rng = np.random.default_rng(seed)
        inst = ucqaoa.random_instance(WIDE_UNITS, rng)
        cfg = ucqaoa.HybridConfig(depth=2, max_iterations=WIDE_ITERATIONS, metric_cadence=10,
                                  near_opt_fraction=FRACTION, seed=seed)
        return HybridBatch(inst, [cfg])
    if workload == "classical-bnb":
        rng = np.random.default_rng(seed)
        return BnbBatch([ucqaoa.random_instance(BNB_UNITS, rng) for _ in range(BNB_DRAWS)])
    raise SystemExit(f"unknown workload {workload!r}")


def run_passes(work, seconds: float, tracer):
    """Closed loop: whole passes until another one would overrun SECONDS."""
    solves = work.solves()
    passes = []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        results, solve_s = [], []
        pass_start = perf_counter()
        for _, thunk in solves:
            if tracer is not None:
                tracer.trace_id += 1
            t0 = perf_counter()
            try:
                out = thunk()
            except Exception:  # one failed solve must not end the run
                out = Failure(traceback.format_exc(limit=4))
            solve_s.append(perf_counter() - t0)
            results.append(out)
        entry = {"pass_s": perf_counter() - pass_start, "solve_s": solve_s, "results": results}
        if tracer is not None:
            entry["layers"] = {name: list(v) for name, v in tracer.stats.items()}
        passes.append(entry)
        typical = statistics.median(p["pass_s"] for p in passes)
        if perf_counter() - start + typical > seconds:
            return passes


def check_passes(work, passes):
    """Per-solve problems: raised, failed an output check, or differed
    from the first pass (every pass solves the same inputs)."""
    first = passes[0]["results"]
    once = work.check_once(first)
    problems = []
    for k, p in enumerate(passes):
        checked = work.check(p["results"])
        for i, out in enumerate(p["results"]):
            if isinstance(out, Failure):
                problem = "raised: " + out.text
            elif checked[i] is not None:
                problem = checked[i]
            elif k == 0:
                problem = once[i]
            elif isinstance(first[i], Failure) or work.fingerprint(out) != work.fingerprint(first[i]):
                problem = f"pass {k} differs from pass 0"
            else:
                problem = None
            problems.append(problem)
    return problems


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> None:
    workload, seed, seconds, mode = sys.argv[1:5]
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(ucqaoa.__file__).startswith(src + os.sep):
        raise SystemExit(f"ucqaoa was imported from {ucqaoa.__file__}, not from {src}")
    work = build(workload, int(seed))
    report = {"ready": time.monotonic()}
    if mode == "setup":
        print(json.dumps(report))
        return
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    passes = run_passes(work, float(seconds), tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_passes(work, passes)
    for problem in dict.fromkeys(p for p in problems if p is not None):
        print(f"check failed: {problem}", file=sys.stderr)
    report.update(
        peak_rss_mb=peak_rss_mb,
        attempted=len(problems),
        failed=sum(p is not None for p in problems),
        labels=[label for label, _ in work.solves()],
        passes=[{k: v for k, v in p.items() if k != "results"} for p in passes],
        summary=work.summary(passes[0]["results"]),
        machine=machine(),
        wrappers_loaded="tracing" in sys.modules,
    )
    if tracer is not None:
        report.update(absent=tracer.absent, spans=tracer.spans, work_names={
            layer.name: layer.work[0] for layer in tracing.LAYERS if layer.work})
    print(json.dumps(report))


if __name__ == "__main__":
    main()
