import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bean_limit
from bean_limit import experiments, obstacle
from bean_limit.cli import COMMANDS, run
from bean_limit.config import ConfigError, RunConfig
from bean_limit.datagen import disk_field
from bean_limit.fields import GridSpec, ScalarField
from bean_limit.io_formats import FieldFormatError, read_field, write_field

from oracles import strided_psor_solve


def src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(bean_limit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- config parsing ---------------------------------------------------------


def test_unknown_key_is_named(tmp_path):
    path = write_cfg(tmp_path, "grdi.n = 64\n")
    with pytest.raises(ConfigError, match="grdi.n"):
        RunConfig.parse(path)


def test_unknown_key_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, "grdi.n = 64\n")
    code = run(["solve-pme", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "grdi.n" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, line", [
    ("solve-pme", "pme.cfg", "pme.newton_tol = 1e-6"),
    ("sweep-m", "sweep_m.cfg", "psor.tol = 1e-4"),
    ("solve-obstacle", "obstacle.cfg", "psor.relaxation = 1.9"),
])
def test_solver_tolerance_keys_are_unknown(tmp_path, capsys, command, name, line):
    # the Newton and PSOR tolerances are the constants pme.NEWTON_TOL and
    # obstacle.UPDATE_TOL, which the report verdicts' thresholds assume;
    # the PSOR factor is worked out from the datum (obstacle._relaxation)
    assert_unknown_key(tmp_path, capsys, command, name, line)


def assert_unknown_key(tmp_path, capsys, command, name, line):
    """Running `command` on configs/`name` plus `line` is exit 2 naming the key."""
    text = (Path(__file__).resolve().parents[1] / "configs" / name).read_text()
    path = write_cfg(tmp_path, text + line + "\n")
    out = tmp_path / "out"
    assert run([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown configuration key" in err and repr(line.split(" = ")[0]) in err
    assert not out.exists()


# data block -> a reference run that reads it
BLOCK_RUNS = {
    "f": ("contraction", "contraction.cfg"),
    "f2": ("contraction", "contraction.cfg"),
    "g": ("contraction", "contraction.cfg"),
    "h0": ("solve-curl", "curl.cfg"),
    "force": ("solve-curl", "curl.cfg"),
    "q": ("solve-obstacle", "obstacle.cfg"),
}


@pytest.mark.parametrize("line", [
    *(f"{block}.center_{axis} = 0.5" for block in ("f", "f2", "g", "h0", "force") for axis in "xy"),
    "h0.kind = gaussian",
    "force.kind = bump",
    "q.kind = disk",
    "q.height = 1.0",
    "q.offset = 0.1",
])
def test_data_shape_keys_are_unknown(tmp_path, capsys, line):
    # bumps and streams sit at the origin, every stream is the compact
    # (1 - r^2/w^2)^4 profile and the obstacle datum is a disk
    assert_unknown_key(tmp_path, capsys, *BLOCK_RUNS[line.split(".")[0]], line)


@pytest.mark.parametrize("command, name", [
    ("sweep-p", "sweep_p.cfg"),
    ("sweep-m", "sweep_m.cfg"),
    ("small-data", "small_data.cfg"),
    ("collapse", "collapse.cfg"),
])
def test_schedule_of_one_exponent_is_a_config_error(tmp_path, capsys, command, name):
    # every subcommand with a schedule judges trends across it, which one
    # point cannot show
    text = (Path(__file__).resolve().parents[1] / "configs" / name).read_text()
    lines = [line for line in text.splitlines() if not line.startswith("schedule")]
    path = write_cfg(tmp_path, "\n".join(lines) + "\nschedule = 8\n")
    out = tmp_path / "out"
    assert run([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'schedule'" in err
    assert not out.exists()


def test_module_entry_point_runs_the_cli(tmp_path):
    # `python -m bean_limit.cli` must reach main(), not import and exit 0
    path = write_cfg(tmp_path, "grdi.n = 64\n")
    proc = subprocess.run(
        [sys.executable, "-m", "bean_limit.cli", "solve-pme", "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 2
    assert "grdi.n" in proc.stderr


def test_sweep_p_does_not_import_numpy_random(tmp_path):
    # its test fields draw from datagen.Pcg64; numpy.random costs about 6 MB
    cfg = Path(__file__).resolve().parents[1] / "configs" / "sweep_p_relaxation.cfg"
    script = ("import sys\nfrom bean_limit.cli import run\n"
              f"code = run(['sweep-p', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_bench_script_records_each_run_from_a_numpy_free_parent(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(script), "--only", "mesa", "sweep_p_relaxation", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["src_lines"] > 0
    assert [(r["config"], r["exit"], r["passed"]) for r in result["runs"]] == [
        ("mesa.cfg", 0, True), ("sweep_p_relaxation.cfg", 0, True)]
    assert all(r["wall_s"] > 0 and r["peak_rss_mb"] > 0 for r in result["runs"])
    assert result["tier1"] is None  # only a full run times the suite


@pytest.mark.parametrize("script", ["bench.py", "run_reference_experiments.py"])
def test_reference_scripts_reject_a_name_no_config_has(tmp_path, script):
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(path), "--only", "mesa", "bogus", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "invalid choice: 'bogus'" in proc.stderr and "'barenblatt'" in proc.stderr
    assert not out.exists()


def test_a_failing_hypothesis_example_is_reported_under_the_repo_ini(tmp_path):
    # hypothesis imports libcst only to report a failing example, and libcst
    # warns DeprecationWarning as it is imported; the ini's error filter must
    # not turn that report into an internal error (exit 3) that ends the run
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ini), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_fails.py::test_fails" in proc.stdout
    assert "Falsifying example" in proc.stdout


def test_exponent_above_the_cap_is_a_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, """
grid.L = 4.0
grid.n = 32
exponent = 100
horizon = 0.1
f.height = 0.5
f.radius = 1.0
f2.height = 0.6
f2.radius = 1.0
""")
    code = run(["contraction", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'exponent'" in err


def test_benchmark_tracer_wraps_the_solver_layers(tmp_path):
    # perfbench/tracer.py replaces solver functions by module and name; a
    # rename leaves its spans empty.  A traced run must still record work in
    # each layer and write the report an untraced run writes.  The tracer
    # counts a solve's accepted steps as len(diagnostics.times) - 1.
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    configs = {
        "solve-pme": "grid.L = 4.0\ngrid.n = 24\nexponent = 3.0\nhorizon = 0.05\n"
                     "f.height = 0.5\nf.radius = 1.0\n",
        "sweep-p": "grid.L = 4.0\ngrid.n = 24\nschedule = 4, 8\nhorizon = 0.05\n"
                   "snapshot_times = 0.025\nh0.width = 2.0\nh0.curl_max = 0.8\n"
                   "n_test_fields = 4\nseed = 0\n",
        "solve-obstacle": "grid.L = 4.0\ngrid.n = 24\nq.inside = 0.5\nq.outside = -1.0\n"
                          "q.radius = 1.0\n",
    }
    work = {"pme.pcg": "iters", "pme.pointwise": "cells", "pme.step": "newton_iters",
            "pme.pme_solve": "accepted_steps", "curl2d.curl_solve": "steps",
            "obstacle.psor": "sweeps"}
    done = dict.fromkeys(work, 0)
    for command, text in configs.items():
        path = write_cfg(tmp_path, text, name=f"{command}.cfg")
        spans, traced, plain = (tmp_path / f"{command}-{k}" for k in ("spans", "traced", "plain"))
        proc = subprocess.run(
            [sys.executable, str(child), "run", "--trace", str(spans), "--",
             command, "--config", str(path), "--out", str(traced)],
            capture_output=True, text=True, env={**os.environ, "OMP_NUM_THREADS": "1"},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        for rec in json.loads(spans.read_text())["spans"]:
            if rec["name"] in work:
                done[rec["name"]] += rec.get(work[rec["name"]], 0)
        assert run([command, "--config", str(path), "--out", str(plain)]) == 0
        assert (traced / "report.json").read_bytes() == (plain / "report.json").read_bytes()
    assert all(v > 0 for v in done.values()), done


def test_quick_demo_script_runs(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "scripts" / "quick_demo.py"
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=src_env(), timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    distances = [float(line.rsplit("=", 1)[1]) for line in proc.stdout.splitlines()
                 if "distance of u(1/m)" in line]
    assert len(distances) == 4
    assert all(b < a for a, b in zip(distances, distances[1:]))


def test_duplicate_and_malformed_keys(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        RunConfig.parse(write_cfg(tmp_path, "grid.n = 64\ngrid.n = 32\n"))
    with pytest.raises(ConfigError, match="key = value"):
        RunConfig.parse(write_cfg(tmp_path, "grid.n 64\n", name="b.cfg"))
    with pytest.raises(ConfigError, match="out of range"):
        RunConfig.parse(write_cfg(tmp_path, "grid.n = 4\n", name="c.cfg"))


@pytest.mark.parametrize("line", [
    "horizon = inf",
    "pme.dt_init = inf",
    "grid.L = inf",
    "f.height = nan",
    "grid.n = 1e400",
    "seed = inf",
    "snapshot_times = 0.01, nan",
])
def test_non_finite_value_is_a_config_error(tmp_path, capsys, line):
    entries = {"grid.L": "4.0", "grid.n": "24", "exponent": "3.0", "horizon": "0.05",
               "f.height": "0.5", "f.radius": "1.0"}
    key, value = (part.strip() for part in line.split("="))
    entries[key] = value
    path = write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in entries.items()))
    out = tmp_path / "out"
    assert run(["solve-pme", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line {list(entries).index(key) + 1}: " in err and repr(key) in err
    assert not (out / "report.json").exists()


def test_comments_and_values(tmp_path):
    cfg = RunConfig.parse(write_cfg(tmp_path, """
# a comment
grid.L = 2.0   # inline comment
grid.n = 64
schedule = 4, 8, 16
snapshot_times =
"""))
    assert cfg.get("grid.L") == 2.0
    assert cfg.get("schedule") == (4.0, 8.0, 16.0)
    assert cfg.get("snapshot_times") == ()
    assert cfg.get("horizon") is None


# -- field dumps --------------------------------------------------------------


def test_field_dump_text_of_signed_zero_subnormal_and_huge_values(tmp_path):
    values = np.zeros((8, 8))
    values[0, :2] = -0.0, 5e-324
    values[1, 7], values[7, 0] = 1e300, 0.1
    path = tmp_path / "f.csv"
    write_field(path, ScalarField(GridSpec(1.0, 8), values), 0.5, "u")
    zeros = "0,0,0,0,0,0,0,0"
    assert path.read_text().splitlines() == [
        "# bean-limit field v1 L=1 n=8 t=0.5 name=u",
        "-0,4.9406564584124654e-324,0,0,0,0,0,0",
        "0,0,0,0,0,0,0,1.0000000000000001e+300",
        *[zeros] * 5,
        "0.10000000000000001,0,0,0,0,0,0,0",
    ]


def test_field_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    g = GridSpec(1.7, 24)
    f = ScalarField(g, rng.standard_normal((24, 24)) * 1e3)
    path = tmp_path / "f.csv"
    t = 0.12345678901234567
    write_field(path, f, t, "u")
    f2, t2, name = read_field(path)
    assert name == "u"
    assert t2 == t
    assert f2.grid == g
    assert np.array_equal(f.values, f2.values)


def test_field_read_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not a header\n")
    with pytest.raises(FieldFormatError, match="line 1"):
        read_field(path)
    g = GridSpec(1.0, 8)
    write_field(path, ScalarField.zeros(g), 0.0, "u")
    lines = path.read_text().splitlines()
    lines[3] = "1,2,3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError, match="line 4"):
        read_field(path)
    # header values a grid or a time cannot take, and a non-finite value
    write_field(path, ScalarField.zeros(g), 0.0, "u")
    header, *rows = path.read_text().splitlines()
    for old, new in [("L=1 ", "L=inf "), ("t=0 ", "t=nan "), ("L=1 ", "L=abc "),
                     ("L=1 ", "L=-1 "), ("n=8 ", "n=3 ")]:
        path.write_text("\n".join([header.replace(old, new), *rows]) + "\n")
        with pytest.raises(FieldFormatError, match="line 1"):
            read_field(path)
    path.write_text("\n".join([header, rows[0], "nan" + rows[1][1:], *rows[2:]]) + "\n")
    with pytest.raises(FieldFormatError, match="line 3"):
        read_field(path)


def test_field_read_rejects_rows_after_the_data(tmp_path):
    path = tmp_path / "long.csv"
    g = GridSpec(1.0, 8)
    write_field(path, ScalarField.zeros(g), 0.0, "u")
    text = path.read_text()
    path.write_text(text + "\n  \n")  # trailing blank lines are fine
    read_field(path)
    path.write_text(text + "\n" + ",".join(["0"] * 8) + "\n")
    with pytest.raises(FieldFormatError, match="line 11"):
        read_field(path)


def test_field_name_validation(tmp_path):
    g = GridSpec(1.0, 8)
    with pytest.raises(ValueError):
        write_field(tmp_path / "x.csv", ScalarField.zeros(g), 0.0, "bad name")


# -- subcommands -----------------------------------------------------------------


def test_solve_pme_zero_data(tmp_path, capsys):
    path = write_cfg(tmp_path, """
experiment = zero-run
grid.L = 2.0
grid.n = 32
exponent = 3.0
horizon = 0.5
snapshot_times = 0.25
""")
    out = tmp_path / "out"
    code = run(["solve-pme", "--config", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    masses = [v for k, v in report["metrics"].items() if k.startswith("mass@")]
    assert masses and all(m == 0.0 for m in masses)
    assert (out / "summary.txt").exists()
    assert (out / "u_000.csv").exists()


def test_solve_pme_report_is_reproducible(tmp_path):
    path = write_cfg(tmp_path, """
grid.L = 4.0
grid.n = 32
exponent = 4.0
horizon = 0.25
f.height = 0.5
f.radius = 1.5
pme.dt_init = 0.025
""")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(["solve-pme", "--config", str(path), "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]
    field_a = (tmp_path / "a" / "u_001.csv").read_bytes()
    field_b = (tmp_path / "b" / "u_001.csv").read_bytes()
    assert field_a == field_b


def test_solve_obstacle_subcommand(tmp_path):
    path = write_cfg(tmp_path, """
grid.L = 4.0
grid.n = 48
q.inside = 0.5
q.outside = -1.0
q.radius = 1.0
""")
    out = tmp_path / "out"
    code = run(["solve-obstacle", "--config", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["w_min"] >= 0.0
    assert all(v["passed"] for v in report["verdicts"])


def test_solve_obstacle_relaxes_at_the_optimal_sor_factor_by_default(tmp_path):
    path = write_cfg(tmp_path, """
grid.L = 4.0
grid.n = 48
q.inside = 0.5
q.outside = -1.0
q.radius = 1.0
""")
    out = tmp_path / "out"
    assert run(["solve-obstacle", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    q = disk_field(GridSpec(4.0, 48), inside=0.5, outside=-1.0, radius=1.0)
    data = obstacle.ObstacleData(q)
    vi = strided_psor_solve(data, obstacle._relaxation(q.values))
    assert report["metrics"]["sweeps"] == vi.iterations


def test_mesa_profile_subcommand(tmp_path):
    path = write_cfg(tmp_path, """
grid.L = 4.0
grid.n = 48
horizon = 1.0
f.height = 0.55
f.radius = 1.5
g.height = 0.7
g.radius = 1.7
""")
    out = tmp_path / "out"
    code = run(["mesa-profile", "--config", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["u_max"] <= 1.0 + 1e-12
    assert (out / "u_limit_000.csv").exists()
    assert (out / "mask_000.csv").exists()


def test_solve_curl_subcommand(tmp_path):
    path = write_cfg(tmp_path, """
grid.L = 4.0
grid.n = 32
exponent = 4.0
horizon = 0.1
h0.width = 2.0
h0.curl_max = 0.8
""")
    out = tmp_path / "out"
    code = run(["solve-curl", "--config", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["div_drift_max"] <= 1e-10
    assert (out / "omega_000.csv").exists()
    # |J| = |omega| cell for cell, so it is not dumped
    assert {f.name.rsplit("_", 1)[0] for f in out.glob("*.csv")} == {"h1", "h2", "omega"}


def test_solver_error_exit_code(tmp_path, capsys):
    # super-critical start with large p trips the explicit-scheme guard
    path = write_cfg(tmp_path, """
grid.L = 4.0
grid.n = 32
exponent = 16.0
horizon = 0.1
h0.width = 2.0
h0.curl_max = 1.5
""")
    code = run(["solve-curl", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "solver error" in capsys.readouterr().err
    # data that fail a solver's input check are a solver error too
    path = write_cfg(tmp_path, """
grid.L = 4.0
grid.n = 32
exponent = 3.0
horizon = 0.1
f.height = 0.5
f.radius = 3.9
""", name="wide.cfg")
    code = run(["solve-pme", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "vanish within L/4" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [("solve-curl", "curl.cfg"), ("sweep-p", "sweep_p.cfg")])
@pytest.mark.parametrize("stream", ["h0", "force"])
def test_curl_data_inside_the_margin_are_checked_before_a_solve(tmp_path, capsys, monkeypatch,
                                                                command, cfg, stream):
    # a stream of width 3.5 on L = 4 reaches past 3L/4: exit 3, as solve-pme
    # gives for such data, before any curl step and without a report
    import bean_limit.experiments as experiments

    def no_solve(*args):
        raise AssertionError("curl_solve called")

    monkeypatch.setattr(experiments, "curl_solve", no_solve)
    text = (Path(__file__).resolve().parents[1] / "configs" / cfg).read_text()
    assert f"{stream}.width = 2.0" in text
    path = write_cfg(tmp_path, text.replace(f"{stream}.width = 2.0", f"{stream}.width = 3.5"))
    out = tmp_path / "out"
    assert run([command, "--config", str(path), "--out", str(out)]) == 3
    assert "vanish within L/4" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_bug_in_a_driver_is_not_a_solver_error(tmp_path, monkeypatch):
    import bean_limit.cli as cli

    def broken(spec, sink=None):
        raise ValueError("a bug, not a solver failure")

    monkeypatch.setattr(cli, "sweep_p", broken)
    path = write_cfg(tmp_path, """
grid.L = 4.0
grid.n = 24
schedule = 4, 8
horizon = 0.05
h0.width = 2.0
h0.curl_max = 0.8
""")
    with pytest.raises(ValueError, match="a bug"):
        run(["sweep-p", "--config", str(path), "--out", str(tmp_path / "out")])


def test_missing_required_key(tmp_path, capsys):
    path = write_cfg(tmp_path, "grid.L = 4.0\ngrid.n = 32\n")
    code = run(["solve-pme", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2


def test_barenblatt_convergence_subcommand(tmp_path):
    path = write_cfg(tmp_path, """
experiment = bb-cli
grid.L = 2.0
grid.n = 32
exponent = 3.0
horizon = 0.5
grids = 32, 64
pme.dt_init = 0.04
barenblatt.t0 = 1.0
barenblatt.mass = 1.0
""")
    out = tmp_path / "out"
    code = run(["barenblatt-convergence", "--config", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    errs = [report["metrics"][f"l1_error@{n}"] for n in (32, 64)]
    assert errs[1] < errs[0]


def test_sweep_p_subcommand(tmp_path):
    path = write_cfg(tmp_path, """
grid.L = 4.0
grid.n = 24
schedule = 4, 8
horizon = 0.05
snapshot_times = 0.025
h0.width = 2.0
h0.curl_max = 0.8
n_test_fields = 4
seed = 0
""")
    out = tmp_path / "out"
    code = run(["sweep-p", "--config", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "mu[0.1]@4" in report["metrics"]
    assert report["config"]["schedule"] == [4.0, 8.0]


# -- one path from config to run ---------------------------------------------------

SCALAR_BASE = """
grid.L = 4.0
grid.n = 24
horizon = 0.05
"""
F_BLOCK = "f.height = 0.5\nf.radius = 1.0\n"


@pytest.mark.parametrize("command, prefix", [
    ("sweep-p", "h0"),
    ("equivalence", "h0"),
    ("sweep-m", "f"),
    ("collapse", "f"),
    ("small-data", "f"),
    ("contraction", "f2"),
])
def test_missing_data_block_is_a_config_error(tmp_path, capsys, command, prefix):
    single = command in ("equivalence", "contraction")
    body = "exponent = 4\n" + F_BLOCK if single else "schedule = 4, 8\n"
    path = write_cfg(tmp_path, SCALAR_BASE + body)
    code = run([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{prefix}.*" in err


def test_snapshot_time_past_the_horizon_is_a_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, """
grid.L = 2.0
grid.n = 32
exponent = 3.0
horizon = 0.5
snapshot_times = 0.25, 2.0
""")
    out = tmp_path / "out"
    assert run(["solve-pme", "--config", str(path), "--out", str(out)]) == 2
    assert "snapshot_times" in capsys.readouterr().err
    assert not out.exists()
    # the horizon itself is a valid snapshot time and adds no snapshot
    path.write_text(path.read_text().replace("2.0", "0.5"))
    assert run(["solve-pme", "--config", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("u_*.csv")) == ["u_000.csv", "u_001.csv", "u_002.csv"]


def test_key_the_subcommand_never_reads_is_a_config_error(tmp_path, capsys):
    mesa = """
grid.L = 4.0
grid.n = 32
horizon = 1.0
f.height = 0.55
f.radius = 1.5
output_dir = unused-under-out
"""
    out = tmp_path / "out"
    path = write_cfg(tmp_path, mesa + "schedule = 4, 8\n")
    assert run(["mesa-profile", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "mesa-profile" in err and "'schedule'" in err
    assert not out.exists()  # rejected before any solver ran
    path = write_cfg(tmp_path, "grid.L = 4.0\ngrid.n = 32\nq.inside = 0.5\nq.outside = -1.0\n"
                     "q.radius = 1.0\nhorizon = 1.0\n", name="obstacle.cfg")
    assert run(["solve-obstacle", "--config", str(path), "--out", str(out)]) == 2
    assert "solve-obstacle" in capsys.readouterr().err
    # mesa-profile solves the obstacle problem and takes no PME step
    path = write_cfg(tmp_path, mesa + "pme.dt_init = 0.1\n")
    assert run(["mesa-profile", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "mesa-profile does not use" in err and "'pme.dt_init'" in err
    assert not out.exists()


def reference_runs():
    """RUNS of scripts/run_reference_experiments.py and the repository root."""
    import importlib.util

    root = Path(__file__).resolve().parents[1]
    script = root / "scripts" / "run_reference_experiments.py"
    module_spec = importlib.util.spec_from_file_location("run_reference_experiments", script)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.RUNS, root


def test_reference_runs_cover_every_config_and_subcommand():
    from bean_limit.cli import COMMANDS

    runs, root = reference_runs()
    configs = [cfg for _, cfg in runs]
    assert sorted(configs) == sorted(p.name for p in (root / "configs").glob("*.cfg"))
    assert {command for command, _ in runs} == set(COMMANDS)


def test_reference_configs_set_only_keys_their_subcommand_reads():
    from bean_limit.cli import _unused_keys

    runs, root = reference_runs()
    unused = {name: _unused_keys(command, RunConfig.parse(root / "configs" / name).entries)
              for command, name in runs}
    assert unused == {name: [] for _, name in runs}


def test_key_tables_agree():
    # a knob removed from one table and not the others leaves a key that
    # parses and feeds nothing, or a spec field no key can set
    from bean_limit.config import KEY_TABLE, SPEC_FIELDS

    spec_fields = {f.name for f in dataclasses.fields(experiments.ExperimentSpec)}
    assert set(SPEC_FIELDS) <= set(KEY_TABLE)
    assert set(SPEC_FIELDS.values()) <= spec_fields
    # a name in COMMANDS is a key, or a prefix without a dot that some key starts with
    for command, (_, key, blocks, others) in COMMANDS.items():
        for name in filter(None, (key, *blocks, *others)):
            assert name in KEY_TABLE or (
                "." not in name and any(k.startswith(name + ".") for k in KEY_TABLE)
            ), (command, name)


# keys no reference config sets, and why each stays a key
UNSET_BY_REFERENCE = {
    "output_dir": "a deployment path; the reference script passes --out",
    "curl.cfl_safety": "p = 60 and 64 runs need 0.5 to stay stable",
    "h0.amplitude": "tests run zero data through solve-curl, sweep-p and equivalence",
    "force.amplitude": "one _stream rule reads h0.* and force.* alike",
}


def test_every_key_is_set_by_a_reference_config():
    # a key no reference run sets is a knob nothing exercises: make it a
    # constant, or give the reason it stays above
    from bean_limit.config import KEY_TABLE

    root = Path(__file__).resolve().parents[1]
    used = set().union(*(RunConfig.parse(p).entries for p in (root / "configs").glob("*.cfg")))
    assert set(UNSET_BY_REFERENCE) <= set(KEY_TABLE)
    unset = sorted(set(KEY_TABLE) - used - set(UNSET_BY_REFERENCE))
    assert not unset, f"keys no configs/*.cfg sets: {', '.join(unset)}"


# names kept public without a caller in src/: the reader of the field dumps
UNCALLED_BY_DESIGN = {"read_field"}


def test_every_public_name_has_a_caller_in_src():
    # a reference is a Name, an Attribute's attr or a string constant equal
    # to the name (the driver names in cli.COMMANDS), outside the name's own
    # definition; docstrings and the re-exports of __init__.py do not count
    trees = [ast.parse(p.read_text()) for p in sorted(Path(bean_limit.__file__).parent.glob("*.py"))
             if p.name != "__init__.py"]
    public, inside, refs = set(), {}, []
    for tree in trees:
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and ast.get_docstring(node) is not None}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add(node.name)
                inside.setdefault(node.name, set()).update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, id(node)))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, id(node)))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                refs.append((node.value, id(node)))
    called = {name for name, node in refs if node not in inside.get(name, ())}
    uncalled = sorted(public - called - UNCALLED_BY_DESIGN)
    assert not uncalled, f"public names no code in src/ calls: {', '.join(uncalled)}"


SWEEP_BASE = SCALAR_BASE + "schedule = 4, 8\n"
H0_BLOCK = "h0.width = 1.5\nh0.curl_max = 0.5\n"


# a value each key takes; "1" for the others
KEY_VALUES = {"exponent": "4", "schedule": "4, 8", "grids": "16, 24"}

# keys some drivers ignore, pinned apart from COMMANDS so a row that gains
# one of them fails here
DRIVER_IGNORES = {
    "sweep-p": ["barenblatt.t0", "f.height", "f.radius", "q.radius"],
    "collapse": ["pme.dt_init", "seed", "snapshot_times"],
    "sweep-m": ["curl.cfl_safety", "h0.curl_max", "h0.width", "n_test_fields"],
    "barenblatt-convergence": ["f.height", "f.radius", "q.inside"],
    "small-data": ["f2.height", "f2.radius", "grids"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_key_the_driver_ignores_is_a_config_error(tmp_path, capsys, command):
    # every key outside the subcommand's keys, added alone and then all at
    # once to a config the subcommand runs
    from bean_limit.cli import _unused_keys
    from bean_limit.config import KEY_TABLE

    ignored = _unused_keys(command, KEY_TABLE)
    assert set(DRIVER_IGNORES.get(command, ())) <= set(ignored)
    lines = [f"{key} = {KEY_VALUES.get(key, '1')}\n" for key in ignored]
    out = tmp_path / "out"
    cases = [([key], line) for key, line in zip(ignored, lines)] + [(ignored, "".join(lines))]
    for keys, extra in cases:
        path = write_cfg(tmp_path, ECHO_CONFIGS[command] + extra)
        assert run([command, "--config", str(path), "--out", str(out)]) == 2, keys
        err = capsys.readouterr().err
        assert err == f"config error: {command} does not use {', '.join(map(repr, keys))}\n"
        assert not out.exists()


def test_sweep_m_and_mesa_profile_compute_the_same_limit(tmp_path):
    shared = """
grid.L = 4.0
grid.n = 32
horizon = 1.0
f.height = 0.55
f.radius = 1.5
g.height = 0.7
g.radius = 1.7
"""
    mesa_cfg = write_cfg(tmp_path, shared, name="mesa.cfg")
    sweep_cfg = write_cfg(tmp_path, shared + "schedule = 8, 64\npme.dt_init = 0.1\n", name="sweep.cfg")
    assert run(["mesa-profile", "--config", str(mesa_cfg), "--out", str(tmp_path / "mesa")]) == 0
    assert run(["sweep-m", "--config", str(sweep_cfg), "--out", str(tmp_path / "sweep")]) == 0
    u_limit, _, _ = read_field(tmp_path / "mesa" / "u_limit_000.csv")
    mesa, _, _ = read_field(tmp_path / "sweep" / "mesa_000.csv")
    assert u_limit.values.tobytes() == mesa.values.tobytes()


def test_sweep_m_checks_the_growth_hypothesis_at_every_exponent(tmp_path, capsys):
    # m h^m peaks at m = -1/ln h, so the defect of lap(psi_m(f)) + g >= 0 is
    # 0 at m = 4, the smallest exponent, and 2.45 at m = 8 and m = 16
    path = write_cfg(tmp_path, "grid.L = 4.0\ngrid.n = 48\nschedule = 4, 8, 16\nhorizon = 0.05\n"
                     "f.height = 0.95\nf.radius = 1.5\ng.height = 12.0\ng.radius = 1.7\n")
    out = tmp_path / "out"
    assert run(["sweep-m", "--config", str(path), "--out", str(out)]) == 3
    assert "discrete growth hypothesis fails by 2.451e+00 at m=8" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_small_data_precondition_bounds_signed_data_by_their_magnitude(tmp_path, capsys):
    # sup |u| is bounded by max |f| + T max |g|, about 1.24 here, which the check
    # must reject before any solve; max f + T max g is 0.25 and would pass
    text = (Path(__file__).resolve().parents[1] / "configs" / "small_data.cfg").read_text()
    path = write_cfg(tmp_path, text.replace("f.height = 0.55", "f.height = -1.0"))
    out = tmp_path / "out"
    assert run(["small-data", "--config", str(path), "--out", str(out)]) == 3
    assert "max |f| + T max |g| < 1, got 1.24172" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def _at(name, labels):
    return [f"{name}@{x}" for x in labels]


# the verdicts of the fast reference runs, each passing: name and cited metrics, in order
REFERENCE_VERDICTS = {
    "pme": [("mass_balance_ok", ["mass_residual_max"]), ("truncation_ok", ["boundary_max"])],
    "curl": [("div_drift_ok", ["div_drift_max"]), ("energy_budget_ok", ["energy_ratio"]),
             ("truncation_ok", ["boundary_max"])],
    "obstacle": [("w_nonnegative", ["w_min"]), ("complementarity_ok", ["complementarity_max"]),
                 ("feasibility_ok", ["feasibility_min"]),
                 ("inactive_residual_ok", ["inactive_residual_max"])],
    "mesa": [("bounds_ok", ["u_min", "u_max"]), ("complementarity_ok", ["complementarity_max"])],
    "sweep_p_relaxation": [
        ("mu[0.05]_non_increasing", _at("mu[0.05]", (4, 8, 16, 32))),
        ("mu[0.1]_non_increasing", _at("mu[0.1]", (4, 8, 16, 32))),
        ("mu[0.2]_non_increasing", _at("mu[0.2]", (4, 8, 16, 32))),
        ("mu[0.1]_halved", _at("mu[0.1]", (4, 8, 16, 32)) + ["grid_h2"]),
        ("vi_abs_max_decreasing", _at("vi_abs_max", (4, 8, 16, 32))),
        ("vi_onesided_ok", _at("vi_bound_defect", (4, 8, 16, 32))),
        ("div_drift_ok", _at("div_drift", (4, 8, 16, 32))),
        ("energy_budget_ok", _at("energy_ratio", (4, 8, 16, 32))),
        ("truncation_ok", ["boundary_max"]),
    ],
    "small_data": [("d_strictly_decreasing", _at("d", (8, 16, 32, 64))),
                   ("d_final_third", _at("d", (8, 16, 32, 64))),
                   ("sup_bounded", _at("sup_bound_defect", (8, 16, 32, 64)))],
    "contraction": [("l1_contraction", ["worst_contraction_ratio", "initial_l1_distance"]),
                    ("comparison_ordering", ["order_defect"])],
}


@pytest.mark.parametrize("stem", REFERENCE_VERDICTS)
def test_fast_reference_runs_keep_their_verdicts_and_rerun_byte_identically(tmp_path, stem):
    runs, root = reference_runs()
    (command,) = [c for c, name in runs if name == f"{stem}.cfg"]
    path = root / "configs" / f"{stem}.cfg"
    reports = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run([command, "--config", str(path), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    verdicts = [(v["name"], v["passed"], v["metrics"]) for v in json.loads(reports[0])["verdicts"]]
    assert verdicts == [(name, True, keys) for name, keys in REFERENCE_VERDICTS[stem]]


# subcommand -> a small config it runs to a report
ECHO_CONFIGS = {
    "solve-pme": SCALAR_BASE + "exponent = 3.0\n" + F_BLOCK,
    "solve-curl": SCALAR_BASE + "exponent = 4.0\n" + H0_BLOCK,
    "solve-obstacle": "grid.L = 4.0\ngrid.n = 24\nq.inside = 0.5\nq.outside = -1.0\n"
                      "q.radius = 1.0\n",
    "mesa-profile": "grid.L = 4.0\ngrid.n = 24\nhorizon = 1.0\nf.height = 0.55\nf.radius = 1.5\n",
    "sweep-p": SWEEP_BASE + H0_BLOCK + "snapshot_times = 0.025\nn_test_fields = 4\nseed = 0\n",
    "sweep-m": SWEEP_BASE + F_BLOCK + "g.height = 0.7\ng.radius = 1.7\n",
    "collapse": SWEEP_BASE + "f.height = 1.2\nf.radius = 1.0\n",
    "small-data": SWEEP_BASE + F_BLOCK,
    "equivalence": SCALAR_BASE + "exponent = 4\n" + H0_BLOCK,
    "contraction": SCALAR_BASE + "exponent = 4\n" + F_BLOCK + "f2.height = 0.6\nf2.radius = 1.0\n",
    "barenblatt-convergence": SCALAR_BASE + "exponent = 3\npme.dt_init = 0.005\ngrids = 16, 24\n",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_report_config_echoes_the_file(tmp_path, command):
    path = write_cfg(tmp_path, "experiment = echo\n" + ECHO_CONFIGS[command])
    out = tmp_path / "out"
    assert run([command, "--config", str(path), "--out", str(out)]) in (0, 1)
    report = json.loads((out / "report.json").read_text())
    assert report["config"] == json.loads(json.dumps(RunConfig.parse(path).echo()))


def test_solve_curl_from_a_zero_field_passes_the_energy_check(tmp_path):
    path = write_cfg(tmp_path, SCALAR_BASE + "exponent = 4.0\nh0.width = 1.5\nh0.amplitude = 0.0\n")
    out = tmp_path / "out"
    assert run(["solve-curl", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["energy_ratio"] == 0.0
    assert all(v["passed"] for v in report["verdicts"])


def test_sweep_p_from_a_zero_field_passes_every_verdict(tmp_path):
    # unforced H0 = 0 stays 0, the exact solution: every VI residual is 0
    path = write_cfg(tmp_path, SWEEP_BASE + "h0.width = 1.5\nh0.amplitude = 0.0\n"
                     "snapshot_times = 0.025\nn_test_fields = 4\nseed = 0\n")
    out = tmp_path / "out"
    assert run(["sweep-p", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["vi_abs_max@4"] == report["metrics"]["vi_abs_max@8"] == 0.0
    assert all(v["passed"] for v in report["verdicts"])


@pytest.mark.parametrize("command, text, metric", [
    ("small-data", SWEEP_BASE + "f.height = 0.0\nf.radius = 1.0\n", "d"),
    ("sweep-m", SWEEP_BASE + "f.height = 0.0\nf.radius = 1.0\n", "e"),
    ("equivalence", SCALAR_BASE + "exponent = 4\ngrids = 16, 24\n"
     "h0.width = 1.5\nh0.amplitude = 0.0\n", "rel_l2_max"),
])
def test_exact_zero_data_pass_every_verdict(tmp_path, command, text, metric):
    # u = 0 (H = 0 for equivalence) is the exact answer at every exponent and
    # grid: each distance is exactly 0, and a pair of zeros counts as decreasing
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run([command, "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    series = [v for k, v in report["metrics"].items() if k.startswith(f"{metric}@")]
    assert series == [0.0, 0.0]
    assert all(v["passed"] for v in report["verdicts"])


def test_equivalence_against_a_zero_scalar_run_fails_its_verdict(tmp_path, monkeypatch):
    # a nonzero curl against a zero scalar field is no match: relative
    # distance inf and a failed verdict, not a division by zero
    pme_solve = experiments.pme_solve

    def zeroed(problem, config):
        sol = pme_solve(problem, config)
        zero = ScalarField.zeros(problem.grid)
        return dataclasses.replace(sol, snapshots=[(t, zero) for t, _ in sol.snapshots])

    monkeypatch.setattr(experiments, "pme_solve", zeroed)
    path = write_cfg(tmp_path, SCALAR_BASE + "exponent = 4\n" + H0_BLOCK)
    out = tmp_path / "out"
    assert run(["equivalence", "--config", str(path), "--out", str(out)]) == 1

    def reject(name):
        raise ValueError(f"report.json holds the non-JSON constant {name}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["metrics"]["rel_l2_max@24"] is None
    assert "rel_l2_max@24 = inf" in (out / "summary.txt").read_text()
    assert not any(v["passed"] for v in report["verdicts"] if v["name"] == "rel_l2_below_5h")


@pytest.mark.parametrize("command, body, line", [
    ("small-data", SCALAR_BASE + F_BLOCK, "schedule = 4,,8"),
    ("collapse", SWEEP_BASE + "f.height = 1.2\nf.radius = 1.0\n", "grids = 24, 32,"),
    ("solve-pme", ECHO_CONFIGS["solve-pme"], "snapshot_times = , 0.025"),
], ids=["schedule", "grids", "snapshot_times"])
def test_empty_list_item_is_a_config_error(tmp_path, capsys, command, body, line):
    # dropping the empty item would run a shorter list than the file names
    out = tmp_path / "out"
    path = write_cfg(tmp_path, body + line + "\n")
    assert run([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line {len(body.splitlines()) + 1}: bad value for {line.split(' = ')[0]!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("command, text, field", [
    ("contraction", ECHO_CONFIGS["contraction"] + "snapshot_times = 0.02500001, 0.02500002\n",
     "snapshot_times"),
    # labelled as the horizon, 0.05
    ("contraction", ECHO_CONFIGS["contraction"] + "snapshot_times = 0.04999999\n",
     "snapshot_times"),
    ("small-data", SCALAR_BASE + F_BLOCK + "schedule = 4.0000001, 4.0000002\n", "schedule"),
    ("barenblatt-convergence", SCALAR_BASE + "exponent = 3\npme.dt_init = 0.005\ngrids = 24, 24\n",
     "grids"),
])
def test_entries_that_label_metrics_alike_are_a_config_error(tmp_path, capsys, command, text,
                                                              field):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, text)
    assert run([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}: " in err
    assert not out.exists()


def test_a_failed_run_removes_the_report_of_an_earlier_run(tmp_path, capsys):
    # a run that passes, then one into the same directory that fails after
    # its config checks: neither the old report.json, summary.txt nor field
    # dumps stay, while a CSV file without a dump's header does
    configs = Path(__file__).resolve().parents[1] / "configs"
    out = tmp_path / "out"
    assert run(["sweep-p", "--config", str(configs / "sweep_p_relaxation.cfg"),
                "--out", str(out)]) == 0
    assert (out / "report.json").is_file() and (out / "summary.txt").is_file()
    assert len(list(out.glob("omega_p*.csv"))) == 4
    (out / "notes.csv").write_text("p,comment\n4,first run\n")
    text = (configs / "sweep_p.cfg").read_text()
    assert "schedule = 4, 8, 16, 32" in text
    failing = write_cfg(tmp_path, text.replace("schedule = 4, 8, 16, 32", "schedule = 60, 64"))
    assert run(["sweep-p", "--config", str(failing), "--out", str(out)]) == 3
    assert "below minimum" in capsys.readouterr().err
    assert not (out / "report.json").exists() and not (out / "summary.txt").exists()
    assert sorted(p.name for p in out.iterdir()) == ["notes.csv"]


@pytest.mark.parametrize("command, name", [
    ("solve-obstacle", "obstacle.cfg"),
    ("solve-pme", "pme.cfg"),
])
def test_an_unusable_output_directory_is_a_config_error(tmp_path, capsys, command, name):
    # a regular file where the output directory should be, or above it:
    # exit 2 with a config error, and the file is left as it was
    configs = Path(__file__).resolve().parents[1] / "configs"
    afile = tmp_path / "afile"
    afile.write_bytes(b"not a directory\n")
    for out in (afile, afile / "sub"):
        assert run([command, "--config", str(configs / name), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot use output directory")
        assert afile.read_bytes() == b"not a directory\n"
