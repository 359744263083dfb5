"""Convergence-trend study on small random systems.

For each generator seed, draws an n-unit instance, runs the hybrid loop
over several optimizer seeds, and tabulates the final near-optimal
probability against the uniform baseline m/2^n together with the move in
the top-50 Hamming metric.  Useful for picking demonstration instances
and for eyeballing how robust the trend is across draws.
"""

import argparse

import numpy as np

import ucqaoa as u


def _seed_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--units", type=int, default=6)
    ap.add_argument("--depth", type=int, default=2)
    ap.add_argument("--iterations", type=int, default=1500)
    ap.add_argument("--gen-seeds", type=_seed_list, default=[17, 21, 25, 27, 37],
                    help="comma-separated instance-generator seeds")
    ap.add_argument("--run-seeds", type=_seed_list, default=[0, 1, 2, 3, 4],
                    help="comma-separated optimizer seeds")
    ap.add_argument("--fraction", type=float, default=0.05)
    args = ap.parse_args()

    for gen_seed in args.gen_seeds:
        inst = u.random_instance(args.units, rng=np.random.default_rng(gen_seed))
        try:
            nos = u.near_optimal_set(inst, args.fraction)
        except u.InfeasibleError:
            print(f"gen_seed={gen_seed}: infeasible draw, skipped")
            continue
        base = len(nos.members) / 2 ** inst.n
        hits = 0
        cells = []
        for seed in args.run_seeds:
            cfg = u.HybridConfig(depth=args.depth, max_iterations=args.iterations,
                                 seed=seed, near_opt_fraction=args.fraction)
            hist = u.run_hybrid(inst, cfg)
            first, last = hist.records[0], hist.records[-1]
            improved = (last.near_opt_prob >= 2.0 * base
                        and last.avg_hamming_top50 <= first.avg_hamming_top50)
            hits += improved
            cells.append(f"{last.near_opt_prob / base:5.1f}x{'+' if improved else '-'}")
        print(f"gen_seed={gen_seed} m={len(nos.members)} base={base:.4f}: "
              f"{' '.join(cells)}  [{hits}/{len(args.run_seeds)} at 2x]")


if __name__ == "__main__":
    main()
