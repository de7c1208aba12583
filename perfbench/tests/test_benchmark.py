"""Self-checks of the benchmark: seeded configs, span arithmetic, tracer fidelity.

    python3 -m pytest perfbench/tests -q

The traced runs launch the CLI in fresh interpreters, as the benchmark
does; the reference-scale test runs the four reference configs traced
and takes a few minutes.
"""

import json
from pathlib import Path

import pytest

from run import END_TO_END_UNITS, Bench
from tracer import LAYER_METRICS, self_times
from workloads import SCALES, WORKLOADS, parse_cfg

ROOT = Path(__file__).resolve().parents[2]


def _bench(tmp_path, name, scale="bench", seed=0):
    workload = WORKLOADS[name]
    bench = Bench(ROOT, workload, seed, scale, tmp_path)
    bench.cfg.write_text(workload.config_text(ROOT, seed, scale, tmp_path / "candidate.cfg"))
    return bench


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS


# -- seeded inputs -----------------------------------------------------------------


def test_seed_zero_reference_scale_is_the_reference_config(tmp_path):
    for workload in WORKLOADS.values():
        text = workload.config_text(ROOT, 0, "reference", tmp_path / "c.cfg")
        expected = parse_cfg((ROOT / "configs" / workload.config_file).read_text())
        expected.update(workload.overrides.get("reference", {}))
        assert parse_cfg(text) == expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("scale", SCALES)
def test_seeds_are_reproducible_distinct_and_admissible(tmp_path, name, scale):
    workload = WORKLOADS[name]
    texts = set()
    for seed in range(12):
        text = workload.config_text(ROOT, seed, scale, tmp_path / "c.cfg")
        assert text == workload.config_text(ROOT, seed, scale, tmp_path / "c.cfg")
        workload.check_text(text, tmp_path / "c.cfg")
        texts.add(text)
    assert len(texts) == 12


# -- span arithmetic ---------------------------------------------------------------


def test_self_time_excludes_children_and_their_postchecks():
    spans = [
        {"name": "outer", "parent": None, "start": 0.0, "end": 10.0, "post_s": 0.0},
        {"name": "inner", "parent": 0, "start": 1.0, "end": 4.0, "post_s": 0.5},
        {"name": "inner", "parent": 0, "start": 5.0, "end": 6.0, "post_s": 0.0},
    ]
    assert self_times(spans) == {"outer": 5.5, "inner": 4.0}


# -- tracer fidelity ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["mesa-sweep", "saturation-sweep"])
def test_tracing_changes_no_output_and_counters_repeat(tmp_path, name):
    bench = _bench(tmp_path, name)
    plain = bench.cli(None)
    first = bench.cli(tmp_path / "spans_a.json")
    second = bench.cli(tmp_path / "spans_b.json")
    # the gate flags any report.json that differs from an earlier run's
    assert plain["problems"] == first["problems"] == second["problems"] == []
    assert len(bench.reports) == 1
    assert first["counters"] == second["counters"]


# Work counts of the reference configs (seed 0, reference scale) measured
# by profiling the solvers from the inside before this benchmark existed;
# the outside-in counters must reproduce them on the same code.
PROFILE_COUNTS = {
    "mesa-sweep": {
        "pme.pointwise.calls": 711,
        "pme.pointwise.cap_exits": 559,
        "pme.pcg.calls": 511,
        "pme.pcg.iters": 12536,
        "obstacle.psor.sweeps": 347,
        "curl2d.curl_solve.steps": 0,
    },
    "barenblatt-refine": {
        "pme.pointwise.calls": 288,
        "pme.pointwise.cap_exits": 246,
        "pme.pcg.calls": 192,
        "pme.pcg.iters": 9839,
        "obstacle.psor.sweeps": 0,
        "curl2d.curl_solve.steps": 0,
    },
    "collapse": {
        "pme.pointwise.calls": 462,
        "pme.pointwise.cap_exits": 462,
        "pme.pcg.calls": 382,
        "pme.pcg.iters": 43971,
        "pme.pcg.stagnation_exits": 1,
        "obstacle.psor.sweeps": 1489,
        "curl2d.curl_solve.steps": 0,
    },
    "saturation-sweep": {
        "pme.pointwise.calls": 0,
        "pme.pcg.calls": 0,
        "obstacle.psor.sweeps": 0,
        "curl2d.curl_solve.steps": 18807,
    },
}


@pytest.mark.parametrize("name", sorted(PROFILE_COUNTS))
def test_reference_counters_match_the_solver_profile(tmp_path, name):
    bench = _bench(tmp_path, name, scale="reference")
    sample = bench.cli(tmp_path / "spans.json")
    assert sample["problems"] == []
    got = {key: sample["counters"][key] for key in PROFILE_COUNTS[name]}
    assert got == PROFILE_COUNTS[name]
