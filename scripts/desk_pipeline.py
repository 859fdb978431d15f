#!/usr/bin/env python3
"""Run the desk-scale pipeline end to end and summarize the two estimates.

Equivalent to `gasdiff reproduce --scale desk` plus a printed comparison of
the least-squares fit against the mean-squared-displacement estimate for
each seed.  One seed of `reproduce --scale desk` takes 1.17 s, the median in
BENCH_27.json (one core of a 2-vCPU Linux machine).
"""

import argparse
import json
from pathlib import Path

from gasdiff.pipeline import DESK, run_reproduce


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--out", default="desk_out")
    args = ap.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    report = run_reproduce(DESK, seeds, out_dir=Path(args.out))

    print(f"{'seed':>5} {'MSD D [cm2/s]':>14} " +
          " ".join(f"{'fit D(N=%d)' % n:>14}" for n in report["n_values"]))
    for run in report["runs"]:
        fits = " ".join(f"{run['fits'][str(n)]['d_opt_cm2_s']:>14.4f}"
                        for n in report["n_values"])
        print(f"{run['seed']:>5} {run['msd_d_cm2_s']:>14.4f} {fits}")
    print("\nper-N means (also in table.csv):")
    print(json.dumps(report["summary"], indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
