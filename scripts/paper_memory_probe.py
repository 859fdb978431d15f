#!/usr/bin/env python3
"""Peak memory of one paper-density seed through the `reproduce` path.

Runs `pipeline.run_reproduce` with the paper preset's particles, box and
binning resolutions (30k He + 30k Ar in a 5e4 A box, N = 20, 50, 100), cut
to --steps MD steps sampled every --stride steps.  Each MD frame streams to
the trajectory writer, the MSD and the three binners, so the peak should
grow with n + F N^2, not with F n.  Prints the process's peak RSS after
every stage; the trajectory is written in this process.  The trajectory
alone is 48 bytes per particle per frame on disk (2.9 GB for 1001
frames).  The peak is the process's own VmHWM, read from
/proc/self/status: ru_maxrss keeps across exec the larger peak of the
process that started this one, so it is read only where there is no /proc.

    PYTHONPATH=src python3 scripts/paper_memory_probe.py --out probe
"""

import argparse
import re
import resource
import time
from dataclasses import replace
from pathlib import Path

from gasdiff.pipeline import PAPER, run_reproduce


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return int(re.search(r"VmHWM:\s*(\d+) kB", fh.read())[1]) / 1024.0
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--stride", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    preset = replace(PAPER, n_steps=args.steps, sample_stride=args.stride)
    started = time.perf_counter()

    def stage(command, directory, config, outputs, wall_time_s):
        print(f"{command:7s} {config}: {wall_time_s:8.1f} s, "
              f"peak RSS {peak_rss_mb():7.1f} MB", flush=True)

    print(f"frames: {args.steps // args.stride + 1}, "
          f"peak RSS before the run {peak_rss_mb():.1f} MB", flush=True)
    run_reproduce(preset, [args.seed], out_dir=Path(args.out), manifest_writer=stage)
    print(f"total {time.perf_counter() - started:.1f} s, "
          f"peak RSS {peak_rss_mb():.1f} MB")


if __name__ == "__main__":
    main()
