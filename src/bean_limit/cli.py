"""Command-line front end.

Nine subcommands run an experiments driver on an ExperimentSpec; the two
without an exponent, solve-obstacle and mesa-profile, read the config
themselves.  Every run writes field dumps, a report.json whose `config`
echoes the keys the file set, as parsed, and a summary.txt.  Exit code 0
means every verdict passed, 1 that a verdict failed, 2 flags a
configuration problem, 3 a solver failure or a failed data check; any
other exception is a bug and ends with its traceback.  Among the
configuration problems, caught before any solver runs: a data block the
subcommand needs and the file does not set, a snapshot time outside
[0, horizon], repeated metric labels, and a key the subcommand never reads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import curl2d, obstacle, pme
from .config import SPEC_FIELDS, ConfigError, RunConfig
from .datagen import BumpSpec, StreamSpec, accumulated_source, bump_field, disk_field
from .errors import DomainError, PreconditionFailed, StepTooSmall
from .experiments import (
    ExperimentSpec,
    Report,
    barenblatt_convergence,
    collapse_experiment,
    constant_source,
    equivalence_check,
    l1_contraction_check,
    small_data_check,
    solve_curl,
    solve_pme,
    sweep_m_vs_mesa,
    sweep_p,
)
from .fields import GridSpec, ScalarField
from .io_formats import write_field, write_report

SOLVER_ERRORS = (
    pme.NewtonDiverged,
    StepTooSmall,
    curl2d.BlowUp,
    obstacle.NotConverged,
    DomainError,
    PreconditionFailed,
)

# the keys experiments.pme_config and curl_config read
_PME = ("pme", "snapshot_times")
_CURL = ("curl", "snapshot_times")

# subcommand -> (driver, the key its exponents come from, data blocks it needs,
# the other blocks and keys of its ExperimentSpec it reads); a name without a
# dot is a prefix, so "pme" stands for every `pme.*` key.  Drivers are looked
# up by name when called, so wrappers installed on this module take effect.
# A subcommand with an exponent key gets an ExperimentSpec; the two without
# one, the `_cmd_*` handlers, read the config themselves.
COMMANDS = {
    "solve-pme": ("solve_pme", "exponent", (), ("f", "g", *_PME)),
    "solve-curl": ("solve_curl", "exponent", ("h0",), ("force", *_CURL)),
    "solve-obstacle": ("_cmd_solve_obstacle", None, (), ()),
    "mesa-profile": ("_cmd_mesa_profile", None, ("f",), ()),
    "sweep-p": ("sweep_p", "schedule", ("h0",), ("force", "seed", "n_test_fields", *_CURL)),
    "sweep-m": ("sweep_m_vs_mesa", "schedule", ("f",), ("g", *_PME)),
    # the runs to 1/m set their own first step and record only their final state
    "collapse": ("collapse_experiment", "schedule", ("f",), ("g", "grids")),
    "small-data": ("small_data_check", "schedule", ("f",), ("g", *_PME)),
    "equivalence": ("equivalence_check", "exponent", ("h0",), ("force", "grids", *_CURL, *_PME)),
    "contraction": ("l1_contraction_check", "exponent", ("f", "f2"), ("g", *_PME)),
    "barenblatt-convergence": (
        "barenblatt_convergence", "exponent", (), ("barenblatt", "grids", *_PME),
    ),
}

def _grid(cfg: RunConfig) -> GridSpec:
    return GridSpec(cfg.require("grid.L"), cfg.require("grid.n"))


def _bump(cfg: RunConfig, prefix: str) -> BumpSpec | None:
    if not cfg.has_block(prefix):
        return None
    return BumpSpec(
        height=cfg.require(f"{prefix}.height"),
        radius=cfg.require(f"{prefix}.radius"),
        center=tuple(cfg.get(f"{prefix}.center_{a}", c) for a, c in zip("xy", BumpSpec.center)),
    )


def _stream(cfg: RunConfig, prefix: str) -> StreamSpec | None:
    if not cfg.has_block(prefix):
        return None
    return StreamSpec(
        width=cfg.require(f"{prefix}.width"),
        center=tuple(cfg.get(f"{prefix}.center_{a}", c) for a, c in zip("xy", StreamSpec.center)),
        **cfg.pick({f"{prefix}.{name}": name for name in ("kind", "amplitude", "curl_max")}),
    )


def _experiment_spec(cfg: RunConfig, command: str) -> ExperimentSpec:
    """The spec of `command` from the keys it reads and the file sets; the
    others keep their defaults, and a set key it does not read stays unread."""
    _, key, blocks, others = COMMANDS[command]
    reads = {"experiment", *blocks, *others}

    def block(prefix, build):
        return build(cfg, prefix) if prefix in reads else None

    fields = dict(
        name=command,
        schedule=cfg.require(key) if key == "schedule" else (cfg.require(key),),
        grid=_grid(cfg),
        horizon=cfg.require("horizon"),
        f=block("f", _bump),
        g=block("g", _bump),
        f2=block("f2", _bump),
        h0_stream=block("h0", _stream),
        forcing_stream=block("force", _stream),
    )
    fields.update(cfg.pick({
        k: name for k, name in SPEC_FIELDS.items() if k in reads or k.split(".")[0] in reads
    }))
    try:
        return ExperimentSpec(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _field_writer(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    counter = {}

    def sink(name: str, field: ScalarField, t: float):
        idx = counter.get(name, 0)
        counter[name] = idx + 1
        write_field(out_dir / f"{name}_{idx:03d}.csv", field, t, name)

    return sink


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
    relaxation = cfg.get("psor.relaxation")
    name = cfg.get("experiment", "solve-obstacle")
    cfg.check_all_read("solve-obstacle")
    vi = obstacle.psor_solve(obstacle.ObstacleData(q), relaxation)
    report = Report(name=name)
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
    f = bump_field(grid, _bump(cfg, "f"))
    G = accumulated_source(constant_source(grid, bump_field, _bump(cfg, "g")), t, grid)
    name = cfg.get("experiment", "mesa-profile")
    cfg.check_all_read("mesa-profile")
    u_limit, mask, vi = obstacle.mesa_profile(f, G)
    report = Report(name=name)
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
    driver, key, blocks, _ = COMMANDS[command]
    for prefix in blocks:
        if not cfg.has_block(prefix):
            raise ConfigError(f"{command} needs the data block {prefix}.*, which is not set")
    if key is None:
        return globals()[driver](cfg, out_dir)
    spec = _experiment_spec(cfg, command)
    cfg.check_all_read(command)
    return globals()[driver](spec, sink=_field_writer(out_dir))


def run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="bean-limit",
        description="Numerical experiments for the plane-wave curl system, "
        "its nonlinear-diffusion reduction, and the critical-state limit.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", default=None, help="output directory (overrides output_dir)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = RunConfig.parse(args.config)
        default_dir = cfg.get("output_dir", f"out/{args.command}")  # read even under --out
        out_dir = Path(args.out or default_dir)
        report = _dispatch(args.command, cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3

    write_report(out_dir, report, cfg.echo())
    print(f"wrote {out_dir}/report.json ({'PASS' if report.passed() else 'FAIL'})")
    return 0 if report.passed() else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
