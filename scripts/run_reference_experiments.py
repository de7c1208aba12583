#!/usr/bin/env python3
"""Run every reference configuration and summarize the verdicts.

Usage:
    python scripts/run_reference_experiments.py [--out OUTDIR] [--only NAME ...]

Each run writes its artifacts under OUTDIR/<name>/ (field dumps,
report.json, summary.txt).  On a 2-core Xeon VM, each run in a fresh
interpreter with one BLAS thread (scripts/bench.py, BENCH_28.json), the
Barenblatt study and the collapse study take about 4 s each;
everything else finishes in under 2 s each.
"""

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

RUNS = [
    ("solve-pme", "pme.cfg"),
    ("solve-curl", "curl.cfg"),
    ("solve-obstacle", "obstacle.cfg"),
    ("mesa-profile", "mesa.cfg"),
    ("sweep-p", "sweep_p.cfg"),
    ("sweep-p", "sweep_p_relaxation.cfg"),
    ("sweep-m", "sweep_m.cfg"),
    ("small-data", "small_data.cfg"),
    ("equivalence", "equivalence.cfg"),
    ("contraction", "contraction.cfg"),
    ("collapse", "collapse.cfg"),
    ("barenblatt-convergence", "barenblatt.cfg"),
]
STEMS = [Path(cfg).stem for _, cfg in RUNS]  # the names --only accepts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output root (default: out/)")
    parser.add_argument("--only", nargs="*", default=None, choices=STEMS, metavar="NAME",
                        help="run only the configs of these stems: " + ", ".join(STEMS))
    args = parser.parse_args()
    from bean_limit.cli import run  # here, so scripts/bench.py can read RUNS without numpy

    failures = []
    for command, cfg in RUNS:
        stem = Path(cfg).stem
        if args.only and stem not in args.only:
            continue
        out_dir = Path(args.out) / stem
        t0 = time.time()
        code = run([command, "--config", str(REPO / "configs" / cfg), "--out", str(out_dir)])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{stem:24s} {command:22s} {status:8s} {time.time() - t0:6.1f}s")
        if code != 0:
            failures.append(stem)
    if failures:
        print("failed:", ", ".join(failures))
        sys.exit(1)


if __name__ == "__main__":
    main()
