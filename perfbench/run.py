"""Time-to-verdict benchmark of the bean-limit CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 28

Run from the root of a checkout.  One run writes the workload's config
for the seed, checks its preconditions, then for S seconds alternates two
set-up measurements (fresh interpreter: import bean_limit.cli, parse the
config) with a full CLI run (fresh interpreter: bean_limit.cli.main,
field dumps, report.json).  It is a closed loop with one client: one
process at a time, each limited to one BLAS/OpenMP thread, all on one
core.  speed.probe is timed on that core before the first cycle and
after each one; a cycle's times are rescaled to the reference host speed
by REFERENCE_S / (mean of the probes around it).

Every CLI run passes the correctness gate or counts as failed: exit code
0, a report.json written after the output directory was cleared, every
verdict PASS, the same report bytes as every other run of this config,
and on seed 0 the pinned physical metrics within rel 1e-6.

With --trace 0 the last line reports the end-to-end metrics: medians of
the rescaled wall_s and of peak_rss_mb over the untraced runs, and of the
rescaled setup_s over the set-up measurements.  With --trace 1 the CLI
runs alternate untraced and traced (tracer.py) and the last line reports
the per-layer metrics, medians over the traced runs, times rescaled.
The environment, every sample (raw and rescaled), the probe times and
the layer metrics are written to .bench_out/<run>/result.json.
`--workload all` runs every workload with tracing off and on and prints
one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import REFERENCE_S, pin_to_one_cpu, probe  # noqa: E402
from tracer import LAYER_METRICS, counters, summarize  # noqa: E402
from workloads import WORKLOADS, grids_of, parse_cfg  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_RUNS = 3  # CLI runs per benchmark run, even when they overrun --seconds
SETUPS_PER_RUN = 2  # set-up measurements before each CLI run
PIN_RTOL = 1e-6  # the mesa regression baseline's tolerance in the acceptance tests
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Bench:
    """One workload's config at one seed and scale; its files live in `out`."""

    def __init__(self, root: Path, workload, seed: int, scale: str, out: Path):
        self.root, self.workload, self.seed, self.scale, self.out = root, workload, seed, scale, out
        self.cfg = out / "run.cfg"
        self.run_dir = out / "cli_out"
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        self.reports: set[bytes] = set()

    def launch(self, args: list[str]) -> tuple[float, int, int]:
        """Run child.py; return (wall seconds, exit code, peak RSS in KiB)."""
        with open(self.out / "child_stderr.txt", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), *args],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def setup(self) -> tuple[float, int]:
        wall, code, _ = self.launch(["setup", str(self.cfg)])
        return wall, code

    def cli(self, trace_path: Path | None) -> dict:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        traced = ["--trace", str(trace_path)] if trace_path else []
        wall, code, rss_kib = self.launch([
            "run", *traced, "--", self.workload.command,
            "--config", str(self.cfg), "--out", str(self.run_dir),
        ])
        sample = {"traced": trace_path is not None, "wall_s": wall, "exit": code,
                  "peak_rss_mb": rss_kib / 1024.0, "problems": self.gate(code)}
        if trace_path is not None and trace_path.is_file():
            spans = json.loads(trace_path.read_text())["spans"]
            sample["layers"] = summarize(spans)
            sample["counters"] = counters(spans)
        return sample

    def gate(self, code: int) -> list[str]:
        """Problems with the CLI run just made; its output directory was cleared before it."""
        report_path = self.run_dir / "report.json"
        if code != 0:
            return [f"exit code {code}"]
        if not report_path.is_file():
            return ["no report.json"]
        raw = report_path.read_bytes()
        report = json.loads(raw)
        problems = [f"verdict {v['name']} FAIL" for v in report["verdicts"] if not v["passed"]]
        if not any(self.run_dir.glob("*.csv")):
            problems.append("no field dumps")
        self.reports.add(raw)
        if len(self.reports) > 1:
            problems.append("report.json differs from an earlier run")
        if self.seed == 0:
            for key, want in self.workload.pins.get(self.scale, {}).items():
                got = report["metrics"].get(key)
                if got is None or abs(got - want) > PIN_RTOL * abs(want):
                    problems.append(f"{key} = {got!r}, pinned {want!r}")
        return problems


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload, scale = WORKLOADS[name], "bench"
    out = root / ".bench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    bench = Bench(root, workload, seed, scale, out)
    text = workload.config_text(root, seed, scale, out / "candidate.cfg")
    bench.cfg.write_text(text)
    workload.check_text(text, out / "candidate.cfg")  # raises before any timing

    cpu = pin_to_one_cpu()
    bench.setup()  # untimed: compiles bytecode caches, warms the page cache
    probes = [probe()]
    setups, runs = [], []
    start = time.perf_counter()
    while True:
        cycle = [bench.setup() for _ in range(SETUPS_PER_RUN)]
        trace_path = out / f"spans_{len(runs):03d}.json" if trace and len(runs) % 2 else None
        run = bench.cli(trace_path)
        probes.append(probe())
        # rescale the cycle to the reference host speed, as probed around it
        scale = REFERENCE_S / statistics.mean(probes[-2:])
        run["scale"] = scale
        run["wall_ref_s"] = run["wall_s"] * scale
        if "layers" in run:
            run["layers"] = {m: v * scale if LAYER_METRICS[m] in ("s", "ns") else v
                             for m, v in run["layers"].items()}
        setups.extend((wall * scale, wall, code) for wall, code in cycle)
        runs.append(run)
        elapsed = time.perf_counter() - start
        # start another cycle only if at least half of it fits in the window
        if len(runs) >= MIN_RUNS and elapsed * (len(runs) + 0.5) / len(runs) > seconds:
            break

    failed = [r for r in runs if r["problems"]]
    failed_setups = [code for _, _, code in setups if code != 0]
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    if trace:
        spanned = [r for r in traced if "layers" in r]
        layers = [r["layers"] for r in spanned] or [summarize([])]
        metrics = {m: statistics.median(layer[m] for layer in layers)
                   for m in LAYER_METRICS if m != "trace.overhead_s"}
        metrics.update(spanned[0]["counters"] if spanned else {})
        metrics["trace.overhead_s"] = (statistics.median(r["wall_ref_s"] for r in traced)
                                       - statistics.median(r["wall_ref_s"] for r in plain))
        units = LAYER_METRICS
        consistent = len({json.dumps(r.get("counters"), sort_keys=True) for r in traced}) == 1
    else:
        ok = [r for r in plain if not r["problems"]] or plain
        metrics = {
            "wall_s": statistics.median(r["wall_ref_s"] for r in ok),
            "setup_s": statistics.median(ref for ref, _, _ in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        }
        units = END_TO_END_UNITS
        consistent = True

    result = {
        "correct": not failed and not failed_setups and consistent,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    detail = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "config": text, "environment": environment(parse_cfg(text), bench.env),
        "samples": {"cli": runs, "setup_ref_s": [ref for ref, _, _ in setups],
                    "setup_s": [wall for _, wall, _ in setups],
                    "untraced_runs": len(plain), "traced_runs": len(traced),
                    "probe_s": probes, "cpu": cpu},
        "failures": [r["problems"] for r in failed],
        "result": result,
    }
    (out / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    return result


def environment(entries: dict, child_env: dict) -> dict:
    import numpy

    caches = cache_sizes()
    l2 = caches.get("L2", 0)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cache_bytes": caches,
        "arrays": {
            str(n): {"bytes": 8 * n * n, "share_of_l2": 8 * n * n / l2 if l2 else None}
            for n in grids_of(entries)
        },
        "child_threads": {var: child_env[var] for var in THREAD_VARS},
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, int]:
    """Per-core data/unified cache sizes of cpu0 in bytes, by level."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            out[f"L{level}"] = int(size.rstrip("KM")) * scale
    return out


def print_result(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:18s} {metric:36s} {entry['value']:14.6g} {entry['unit']}")
    print(f"{name:18s} gate: {result['attempted'] - result['failed']}/{result['attempted']} "
          f"CLI runs passed, correct={result['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the child clean-up

    root = Path.cwd()
    if not (root / "src" / "bean_limit" / "cli.py").is_file() or not (root / "configs").is_dir():
        print(f"{root} is not a bean-limit checkout (no src/bean_limit or configs/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    if args.workload != "all":
        result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(args.workload, result)
        print(json.dumps(result))
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(root, name, args.seed, args.seconds, trace)
            print_result(name, result)
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}/{m}": e for m, e in result["metrics"].items()})
    (root / ".bench_out" / "all.json").write_text(json.dumps(total, indent=2) + "\n")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
