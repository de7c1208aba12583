#!/usr/bin/env python3
"""Wall time and peak memory of one run of each reference configuration,
and the wall time of the Tier-1 test suite.

Usage:
    python scripts/bench.py --out BENCH_<label>.json [--only NAME ...]

Each configuration of scripts/run_reference_experiments.py runs once as
`python -m bean_limit.cli` in a fresh interpreter, with one BLAS/OpenMP
thread, into a temporary directory.  The JSON records, per run, the exit
code, whether every verdict passed, the wall time and the peak resident
memory, plus the host, the numpy version, whether src/ held compiled
bytecode and the line count of src/.  A full run (no --only) then runs
the Tier-1 suite once, `python -m pytest -q` from the repository root in
the same environment, and records its exit code, wall time and summary
line under "tier1" (null with --only).

This script never imports numpy.  On Linux, wait4's ru_maxrss counts the
resident set a child inherits from its parent before it execs, so a parent
that holds numpy would report its own memory for every run.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

from run_reference_experiments import REPO, RUNS, STEMS

SRC = REPO / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def launch(command: str, cfg: Path, out: Path, env: dict) -> dict:
    """Run one configuration; its wall time, exit code, verdicts and peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bean_limit.cli", command, "--config", str(cfg), "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    report = out / "report.json"
    verdicts = json.loads(report.read_text())["verdicts"] if report.is_file() else []
    return {
        "config": cfg.name,
        "command": command,
        "exit": os.waitstatus_to_exitcode(status),
        "passed": bool(verdicts) and all(v["passed"] for v in verdicts),
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 2),
    }


def run_tier1(env: dict) -> dict:
    """Run the Tier-1 suite once; its exit code, wall time and summary line."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"exit": proc.returncode, "wall_s": round(wall, 2), "summary": lines[-1] if lines else ""}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--only", nargs="*", default=None, choices=STEMS, metavar="NAME",
                        help="run only the configs of these stems: " + ", ".join(STEMS))
    args = parser.parse_args()
    if "numpy" in sys.modules:
        raise RuntimeError("bench.py must not import numpy: every child would inherit its memory")

    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"), "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for command, name in RUNS:
            stem = Path(name).stem
            if args.only and stem not in args.only:
                continue
            run = launch(command, REPO / "configs" / name, Path(tmp) / stem, env)
            print(f"{stem:24s} exit {run['exit']}  {run['wall_s']:7.2f} s  {run['peak_rss_mb']:6.1f} MB")
            runs.append(run)
    # read before Tier-1 runs, which compiles src/ unless the environment forbids it
    bytecode_cache = (SRC / "bean_limit" / "__pycache__").is_dir()
    tier1 = None if args.only else run_tier1(env)
    if tier1:
        print(f"{'tier-1':24s} exit {tier1['exit']}  {tier1['wall_s']:7.2f} s  {tier1['summary']}")
    result = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": version("numpy")},
        # compiled modules from an earlier run skip the compile in every child
        "bytecode_cache": bytecode_cache,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "runs": runs,
        "tier1": tier1,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    failed = [r["config"] for r in runs if r["exit"] != 0 or not r["passed"]]
    if tier1 and tier1["exit"] != 0:
        failed.append("tier-1")
    if failed:
        print("failed:", ", ".join(failed))
        sys.exit(1)


if __name__ == "__main__":
    main()
