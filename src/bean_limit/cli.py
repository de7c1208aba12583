"""Command-line front end.

Subcommands mirror the solver and experiment layer; every run writes
field dumps for its snapshots, a machine-readable report.json with the
full configuration echo, and a human-readable summary.txt.  Exit code 0
means every verdict passed, 1 that a verdict failed, 2 flags a
configuration problem, 3 a solver failure or a failed data check; any
other exception is a bug and ends with its traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import curl2d, obstacle, pme
from .config import ConfigError, RunConfig
from .datagen import (
    BumpSpec,
    StreamSpec,
    bump_field,
    constant_in_time,
    disk_field,
    field_from_stream,
)
from .errors import DomainError, PreconditionFailed, StepTooSmall
from .experiments import (
    ExperimentSpec,
    Report,
    barenblatt_convergence,
    collapse_experiment,
    equivalence_check,
    l1_contraction_check,
    small_data_check,
    sweep_m_vs_mesa,
    sweep_p,
)
from .fields import GridSpec, PowerLaw, ScalarField, boundary_ring_max
from .io_formats import write_field, write_report

SOLVER_ERRORS = (
    pme.NewtonDiverged,
    StepTooSmall,
    curl2d.BlowUp,
    obstacle.NotConverged,
    DomainError,
    PreconditionFailed,
)

SUBCOMMANDS = (
    "solve-pme",
    "solve-curl",
    "solve-obstacle",
    "mesa-profile",
    "sweep-p",
    "sweep-m",
    "collapse",
    "small-data",
    "equivalence",
    "contraction",
    "barenblatt-convergence",
)


def _grid(cfg: RunConfig) -> GridSpec:
    return GridSpec(cfg.require("grid.L"), cfg.require("grid.n"))


def _bump(cfg: RunConfig, prefix: str) -> BumpSpec | None:
    if not cfg.has(f"{prefix}.height"):
        return None
    return BumpSpec(
        height=cfg.require(f"{prefix}.height"),
        radius=cfg.require(f"{prefix}.radius"),
        center=(cfg.get(f"{prefix}.center_x", 0.0), cfg.get(f"{prefix}.center_y", 0.0)),
    )


def _stream(cfg: RunConfig, prefix: str) -> StreamSpec | None:
    if not (cfg.has(f"{prefix}.amplitude") or cfg.has(f"{prefix}.curl_max")):
        return None
    return StreamSpec(
        kind=cfg.get(f"{prefix}.kind", "bump"),
        amplitude=cfg.get(f"{prefix}.amplitude", 1.0),
        width=cfg.require(f"{prefix}.width"),
        center=(cfg.get(f"{prefix}.center_x", 0.0), cfg.get(f"{prefix}.center_y", 0.0)),
        curl_max=cfg.get(f"{prefix}.curl_max"),
    )


def _experiment_spec(cfg: RunConfig, name: str, schedule=None) -> ExperimentSpec:
    if schedule is None:
        schedule = cfg.require("schedule")
    return ExperimentSpec(
        name=cfg.get("experiment", name),
        grid=_grid(cfg),
        schedule=tuple(schedule),
        horizon=cfg.require("horizon"),
        f=_bump(cfg, "f"),
        g=_bump(cfg, "g"),
        f2=_bump(cfg, "f2"),
        h0_stream=_stream(cfg, "h0"),
        forcing_stream=_stream(cfg, "force"),
        snapshot_times=cfg.get("snapshot_times", ()),
        dt_init=cfg.get("pme.dt_init"),
        newton_tol=cfg.get("pme.newton_tol", 1e-10),
        cfl_safety=cfg.get("curl.cfl_safety", 0.9),
        psor_tol=cfg.get("psor.tol", 1e-12),
        seed=cfg.get("seed", 0),
        n_test_fields=cfg.get("n_test_fields", 20),
        grids=cfg.get("grids", ()),
        barenblatt_t0=cfg.get("barenblatt.t0", 1.0),
        barenblatt_mass=cfg.get("barenblatt.mass", 1.0),
    )


def _field_writer(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    counter = {}

    def sink(name: str, field: ScalarField, t: float):
        idx = counter.get(name, 0)
        counter[name] = idx + 1
        write_field(out_dir / f"{name}_{idx:03d}.csv", field, t, name)

    return sink


def _cmd_solve_pme(cfg: RunConfig, out_dir: Path) -> Report:
    grid = _grid(cfg)
    m = cfg.require("exponent")
    horizon = cfg.require("horizon")
    f_spec = _bump(cfg, "f")
    u0 = bump_field(grid, f_spec) if f_spec else ScalarField.zeros(grid)
    g_spec = _bump(cfg, "g")
    forcing = constant_in_time(bump_field(grid, g_spec)) if g_spec else None
    problem = pme.PmeProblem(grid=grid, law=PowerLaw(m), u0=u0, forcing=forcing, horizon=horizon)
    config = pme.PmeConfig(
        dt_init=cfg.get("pme.dt_init", horizon / 50.0),
        dt_min=cfg.get("pme.dt_min", 0.0),
        newton_tol=cfg.get("pme.newton_tol", 1e-10),
        max_newton_iters=cfg.get("pme.max_newton_iters", 50),
        max_halvings=cfg.get("pme.max_halvings", 20),
        snapshot_times=tuple(t for t in cfg.get("snapshot_times", ()) if 0 < t < horizon),
    )
    sol = pme.pme_solve(problem, config)

    echo = cfg.echo()
    echo.update({
        "resolved.dt_init": config.dt_init,
        "resolved.newton_tol": config.newton_tol,
        "resolved.max_newton_iters": config.max_newton_iters,
        "resolved.max_halvings": config.max_halvings,
    })
    report = Report(name=cfg.get("experiment", "solve-pme"), config=echo)
    sink = _field_writer(out_dir)
    trunc = 0.0
    for t, u in sol.snapshots:
        sink("u", u, t)
        report.add_metric("mass", float(grid.spacing ** 2 * np.sum(u.values)), t)
        report.add_metric("sup", float(np.max(np.abs(u.values))), t)
        trunc = max(trunc, boundary_ring_max(u))
    residual = max(r for _, r in pme.mass_balance_residual(sol, problem))
    report.add_metric("mass_residual_max", residual)
    report.add_metric("boundary_max", trunc)
    report.add_verdict("mass_balance_ok", residual <= 1e-8, ["mass_residual_max"])
    report.add_verdict("truncation_ok", trunc <= 1e-8, ["boundary_max"])
    return report


def _cmd_solve_curl(cfg: RunConfig, out_dir: Path) -> Report:
    grid = _grid(cfg)
    p = cfg.require("exponent")
    horizon = cfg.require("horizon")
    h0_spec = _stream(cfg, "h0")
    if h0_spec is None:
        raise ConfigError("solve-curl requires an initial stream (h0.* keys)")
    H0 = field_from_stream(grid, h0_spec)
    force_spec = _stream(cfg, "force")
    forcing = constant_in_time(field_from_stream(grid, force_spec)) if force_spec else None
    problem = curl2d.CurlProblem(grid=grid, p=p, H0=H0, forcing=forcing, horizon=horizon)
    config = curl2d.CurlConfig(
        snapshot_times=tuple(t for t in cfg.get("snapshot_times", ()) if 0 < t < horizon),
        cfl_safety=cfg.get("curl.cfl_safety", 0.9),
    )
    sol = curl2d.curl_solve(problem, config)

    echo = cfg.echo()
    echo["resolved.cfl_safety"] = config.cfl_safety
    report = Report(name=cfg.get("experiment", "solve-curl"), config=echo)
    sink = _field_writer(out_dir)
    trunc = 0.0
    for t, H, omega, J in sol.snapshots:
        sink("h1", H.comp1, t)
        sink("h2", H.comp2, t)
        sink("omega", omega, t)
        sink("J", J, t)
        report.add_metric("l2_H", float(np.sqrt(grid.spacing ** 2 * np.sum(
            H.comp1.values ** 2 + H.comp2.values ** 2))), t)
        trunc = max(trunc, boundary_ring_max(H.comp1), boundary_ring_max(H.comp2))
    drift = max(sol.diagnostics.div_drift)
    report.add_metric("div_drift_max", drift)
    budget = curl2d.energy_budget(sol)
    ratio = max(lhs / bound for _, lhs, bound in budget if bound > 0)
    report.add_metric("energy_ratio", ratio)
    report.add_metric("boundary_max", trunc)
    report.add_verdict("div_drift_ok", drift <= 1e-10, ["div_drift_max"])
    report.add_verdict("energy_budget_ok", ratio <= 1.05, ["energy_ratio"])
    report.add_verdict("truncation_ok", trunc <= 1e-8, ["boundary_max"])
    return report


def _obstacle_datum(cfg: RunConfig, grid: GridSpec) -> ScalarField:
    kind = cfg.get("q.kind", "disk")
    if kind == "disk":
        return disk_field(
            grid,
            inside=cfg.require("q.inside"),
            outside=cfg.require("q.outside"),
            radius=cfg.require("q.radius"),
        )
    bump = bump_field(grid, BumpSpec(height=cfg.require("q.height"), radius=cfg.require("q.radius")))
    return ScalarField(grid, bump.values - cfg.get("q.offset", 0.0))


def _cmd_solve_obstacle(cfg: RunConfig, out_dir: Path) -> Report:
    grid = _grid(cfg)
    q = _obstacle_datum(cfg, grid)
    vi = obstacle.psor_solve(
        obstacle.ObstacleData(q),
        relaxation=cfg.get("psor.relaxation", 1.5),
        tol=cfg.get("psor.tol", 1e-12),
        max_sweeps=cfg.get("psor.max_sweeps"),
    )
    echo = cfg.echo()
    echo.update({
        "resolved.relaxation": cfg.get("psor.relaxation", 1.5),
        "resolved.tol": cfg.get("psor.tol", 1e-12),
    })
    report = Report(name=cfg.get("experiment", "solve-obstacle"), config=echo)
    sink = _field_writer(out_dir)
    sink("q", q, 0.0)
    sink("w", vi.w, 0.0)
    sink("mask", ScalarField(grid, vi.noncoincidence_mask.astype(float)), 0.0)
    report.add_metric("w_min", float(np.min(vi.w.values)))
    report.add_metric("w_max", float(np.max(vi.w.values)))
    report.add_metric("complementarity_max", vi.residuals.complementarity_max)
    report.add_metric("feasibility_min", vi.residuals.feasibility_min)
    report.add_metric("inactive_residual_max", vi.residuals.inactive_residual_max)
    report.add_metric("sweeps", float(vi.iterations))
    report.add_verdict("w_nonnegative", report.metrics["w_min"] >= 0.0, ["w_min"])
    report.add_verdict(
        "complementarity_ok", vi.residuals.complementarity_max <= 1e-10, ["complementarity_max"]
    )
    report.add_verdict(
        "feasibility_ok", vi.residuals.feasibility_min >= -1e-10, ["feasibility_min"]
    )
    report.add_verdict(
        "inactive_residual_ok",
        vi.residuals.inactive_residual_max <= 1e-9,
        ["inactive_residual_max"],
    )
    return report


def _cmd_mesa_profile(cfg: RunConfig, out_dir: Path) -> Report:
    grid = _grid(cfg)
    t = cfg.require("horizon")
    f_spec = _bump(cfg, "f")
    if f_spec is None:
        raise ConfigError("mesa-profile requires f.* keys")
    f = bump_field(grid, f_spec)
    g_spec = _bump(cfg, "g")
    if g_spec is not None:
        G = ScalarField(grid, t * bump_field(grid, g_spec).values)
    else:
        G = ScalarField.zeros(grid)
    u_limit, mask, vi = obstacle.mesa_profile(f, G, tol=cfg.get("psor.tol", 1e-12))
    report = Report(name=cfg.get("experiment", "mesa-profile"), config=cfg.echo())
    sink = _field_writer(out_dir)
    sink("u_limit", u_limit, t)
    sink("w", vi.w, t)
    sink("mask", ScalarField(grid, mask.astype(float)), t)
    report.add_metric("u_min", float(np.min(u_limit.values)))
    report.add_metric("u_max", float(np.max(u_limit.values)))
    report.add_metric("plateau_area", float(grid.spacing ** 2 * np.count_nonzero(mask)))
    report.add_metric("complementarity_max", vi.residuals.complementarity_max)
    report.add_verdict(
        "bounds_ok",
        report.metrics["u_min"] >= 0.0 and report.metrics["u_max"] <= 1.0 + 1e-12,
        ["u_min", "u_max"],
    )
    report.add_verdict(
        "complementarity_ok", vi.residuals.complementarity_max <= 1e-10, ["complementarity_max"]
    )
    return report


def _dispatch(command: str, cfg: RunConfig, out_dir: Path) -> Report:
    if command == "solve-pme":
        return _cmd_solve_pme(cfg, out_dir)
    if command == "solve-curl":
        return _cmd_solve_curl(cfg, out_dir)
    if command == "solve-obstacle":
        return _cmd_solve_obstacle(cfg, out_dir)
    if command == "mesa-profile":
        return _cmd_mesa_profile(cfg, out_dir)
    sink = _field_writer(out_dir)
    if command == "sweep-p":
        return sweep_p(_experiment_spec(cfg, command), sink=sink)
    if command == "sweep-m":
        return sweep_m_vs_mesa(_experiment_spec(cfg, command), sink=sink)
    if command == "collapse":
        return collapse_experiment(_experiment_spec(cfg, command), sink=sink)
    if command == "small-data":
        return small_data_check(_experiment_spec(cfg, command), sink=sink)
    if command == "equivalence":
        spec = _experiment_spec(cfg, command, schedule=[cfg.require("exponent")])
        return equivalence_check(spec, sink=sink)
    if command == "contraction":
        spec = _experiment_spec(cfg, command, schedule=[cfg.require("exponent")])
        return l1_contraction_check(spec, sink=sink)
    if command == "barenblatt-convergence":
        spec = _experiment_spec(cfg, command, schedule=[cfg.require("exponent")])
        return barenblatt_convergence(spec, sink=sink)
    raise ConfigError(f"unknown subcommand {command!r}")


def run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="bean-limit",
        description="Numerical experiments for the plane-wave curl system, "
        "its nonlinear-diffusion reduction, and the critical-state limit.",
    )
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", default=None, help="output directory (overrides output_dir)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = RunConfig.parse(args.config)
        out_dir = Path(args.out or cfg.get("output_dir", f"out/{args.command}"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = _dispatch(args.command, cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3

    write_report(out_dir, report)
    print(f"wrote {out_dir}/report.json ({'PASS' if report.passed() else 'FAIL'})")
    return 0 if report.passed() else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
