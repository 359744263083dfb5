"""Best-effort benchmark on the builtin 10-unit system.

Runs the hybrid loop at P=1 and P=2 for several seeds and reports how the
near-optimal probability and the top-50 Hamming metric move over 1500
iterations.  The published curves for this system depend on choices (load,
penalty weights, initialization, near-optimal cutoff) that are not public,
so this is a trend report, not a regression gate.
"""

import argparse

import numpy as np

import ucqaoa as u


def _seed_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--load", type=float, default=700.0)
    ap.add_argument("--iterations", type=int, default=1500)
    ap.add_argument("--seeds", type=_seed_list, default=[0, 1, 2],
                    help="comma-separated optimizer seeds, e.g. 0,1,2")
    ap.add_argument("--fraction", type=float, default=0.05)
    ap.add_argument("--out-prefix", default=None,
                    help="write one history CSV per run as PREFIX_pP_sS.csv")
    args = ap.parse_args()

    inst = u.builtin_ten_unit(args.load)
    nos = u.near_optimal_set(inst, args.fraction)
    base = len(nos.members) / 2 ** inst.n
    print(f"instance={inst.name} load={inst.load} members={len(nos.members)} "
          f"uniform={base:.5f}")
    print(f"{'P':>2} {'seed':>4} {'p_first':>8} {'p_last':>8} {'h_first':>8} {'h_last':>8}")

    for depth in (1, 2):
        finals = []
        for seed in args.seeds:
            cfg = u.HybridConfig(depth=depth, max_iterations=args.iterations,
                                 seed=seed, near_opt_fraction=args.fraction)
            hist = u.run_hybrid(inst, cfg)
            first, last = hist.records[0], hist.records[-1]
            finals.append(last.near_opt_prob)
            print(f"{depth:>2} {seed:>4} {first.near_opt_prob:8.4f} {last.near_opt_prob:8.4f} "
                  f"{first.avg_hamming_top50:8.3f} {last.avg_hamming_top50:8.3f}")
            if args.out_prefix:
                u.export_history(hist, "csv", f"{args.out_prefix}_p{depth}_s{seed}.csv")
        print(f"   P={depth} median final near-opt prob: {float(np.median(finals)):.4f}")


if __name__ == "__main__":
    main()
