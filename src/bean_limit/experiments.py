"""Experiment drivers: single solver runs and the large-exponent limit studies.

Every driver consumes an ExperimentSpec, runs the relevant solvers, and
returns a Report whose verdicts are computed from the recorded metrics
only.  Reruns with the same spec reproduce metrics bitwise: all
randomness flows through a seeded generator and the solvers are
deterministic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .curl2d import CurlConfig, CurlProblem, curl_solve, vi_residual
from .datagen import (
    BumpSpec,
    StreamSpec,
    accumulated_source,
    bump_field,
    field_from_stream,
    random_admissible_field,
)
from .errors import PreconditionFailed
from .fields import (
    EXPONENT_CAP,
    GridSpec,
    PowerLaw,
    ScalarField,
    boundary_ring_max,
    curl_z,
    lap5_values,
    psi,
    snapshot_targets,
)
from .obstacle import collapse_profile, mesa_profile
from .pme import (
    PmeConfig,
    PmeProblem,
    PmeSolution,
    barenblatt_field,
    pme_solve,
)

# -- report plumbing ---------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    metrics: tuple[str, ...]


@dataclass
class Report:
    name: str
    metrics: dict[str, float] = field(default_factory=dict)
    verdicts: list[Verdict] = field(default_factory=list)

    def add_metric(self, name: str, value: float, exponent: float | None = None) -> str:
        key = f"{name}@{exponent:g}" if exponent is not None else name
        if key in self.metrics:
            raise ValueError(f"metric {key!r} is already recorded")
        self.metrics[key] = float(value)
        return key

    def add_verdict(self, name: str, passed: bool, metric_keys: list[str]):
        missing = [k for k in metric_keys if k not in self.metrics]
        if missing:
            raise ValueError(f"verdict {name!r} references unknown metrics {missing}")
        self.verdicts.append(Verdict(name, bool(passed), tuple(metric_keys)))

    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict(self, name: str) -> bool:
        for v in self.verdicts:
            if v.name == name:
                return v.passed
        raise KeyError(name)


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    grid: GridSpec
    schedule: tuple[float, ...]
    horizon: float
    f: BumpSpec | None = None
    g: BumpSpec | None = None
    f2: BumpSpec | None = None
    h0_stream: StreamSpec | None = None
    forcing_stream: StreamSpec | None = None
    snapshot_times: tuple[float, ...] = ()
    dt_init: float | None = None
    cfl_safety: float = 0.9
    seed: int = 0
    n_test_fields: int = 20
    grids: tuple[int, ...] = ()
    barenblatt_t0: float = 1.0
    barenblatt_mass: float = 1.0

    def __post_init__(self):
        if not self.schedule:
            raise ValueError("exponent schedule must be non-empty")
        if any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise ValueError("exponent schedule must be strictly increasing")
        if max(self.schedule) > EXPONENT_CAP:
            raise ValueError(f"exponents are capped at {EXPONENT_CAP}")
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        if self.dt_init is not None and not (self.dt_init > 0):
            raise ValueError("dt_init must be positive")
        if self.n_test_fields < 1:
            raise ValueError("n_test_fields must be at least 1")
        try:
            targets, _ = snapshot_targets(self.snapshot_times, self.horizon)
        except ValueError as exc:
            raise ValueError(f"snapshot_times: {exc}") from None
        # the drivers label metrics by exponent, snapshot time and grid size
        for name, values in (("schedule", self.schedule), ("snapshot_times", targets),
                             ("grids", self.grids)):
            labels = [f"{x:g}" for x in values]
            repeated = sorted({s for s in labels if labels.count(s) > 1})
            if repeated:
                raise ValueError(f"{name}: more than one entry is labelled {', '.join(repeated)}")


def _l1_distance(a: ScalarField, b: ScalarField) -> float:
    h2 = a.grid.spacing ** 2
    return float(h2 * np.sum(np.abs(a.values - b.values)))


def _decreasing(xs) -> bool:
    """Each value below the one before; a pair of exact zeros also passes,
    since u = 0 (or H = 0) is then the exact answer at every exponent."""
    return all(b < a or a == b == 0.0 for a, b in zip(xs, xs[1:]))


def _non_increasing(xs) -> bool:
    return all(b <= a for a, b in zip(xs, xs[1:]))


# -- data hypothesis checks --------------------------------------------------


def d4_symmetry_defect(u: ScalarField) -> float:
    """Deviation of a field from square-dihedral symmetry about the center."""
    v = u.values
    worst = 0.0
    for cand in (v[::-1, :], v[:, ::-1], v.T, np.rot90(v)):
        worst = max(worst, float(np.max(np.abs(v - cand))))
    return worst


def outward_monotone_defect(u: ScalarField) -> float:
    """Largest increase moving away from the center along rows, columns
    and the two main diagonals; zero for radially non-increasing data."""
    v = u.values
    n = u.grid.n
    mid = n // 2

    def ray_defect(line: np.ndarray) -> float:
        right = line[..., mid:]
        left = line[..., :mid]
        d = 0.0
        if right.shape[-1] > 1:
            d = max(d, float(np.max(right[..., 1:] - right[..., :-1], initial=0.0)))
        if left.shape[-1] > 1:
            d = max(d, float(np.max(left[..., :-1] - left[..., 1:], initial=0.0)))
        return d

    worst = max(ray_defect(v), ray_defect(v.T))
    worst = max(worst, ray_defect(np.diagonal(v)), ray_defect(np.diagonal(v[::-1, :])))
    return worst


def h43_defect(f: ScalarField, g: ScalarField | None, m: float) -> float:
    """Worst violation of the monotone-growth hypothesis lap(psi_m(f)) + g >= 0."""
    h = f.grid.spacing
    lhs = lap5_values(psi(f.values, PowerLaw(m)), h)
    if g is not None:
        lhs = lhs + g.values
    return float(max(0.0, -np.min(lhs)))


def require_radial_monotone_data(f: ScalarField, g: ScalarField | None, m: float):
    """Raise PreconditionFailed unless f and g are square-symmetric and
    radially non-increasing to 1e-12 relative, and the growth hypothesis
    holds at m to 1e-8."""
    for what, u in (("initial datum", f), ("source", g)):
        if u is None:
            continue
        scale = max(1.0, float(np.max(np.abs(u.values))))
        if d4_symmetry_defect(u) > 1e-12 * scale:
            raise PreconditionFailed(f"{what} is not radially symmetric on the grid")
        if outward_monotone_defect(u) > 1e-12 * scale:
            raise PreconditionFailed(f"{what} is not radially non-increasing")
    defect = h43_defect(f, g, m)
    if defect > 1e-8:
        raise PreconditionFailed(
            f"discrete growth hypothesis fails by {defect:.3e} at m={m:g}"
        )


# -- experiment drivers ------------------------------------------------------


# the thresholds delta of the saturation measures mu[delta] = |{|curl H| >= 1 + delta}|
MU_DELTAS = (0.05, 0.1, 0.2)


def _no_dumps(name: str, field: ScalarField, t: float):
    """The sink of a driver run that writes no field dumps."""


def constant_source(grid: GridSpec, make, data):
    """make(grid, data) as a source, constant in time, or None without data."""
    return make(grid, data) if data is not None else None


def pme_config(spec: ExperimentSpec, steps: int = 50) -> PmeConfig:
    """The spec's PME settings; without dt_init the first step is horizon / steps."""
    return PmeConfig(
        dt_init=spec.horizon / steps if spec.dt_init is None else spec.dt_init,
        snapshot_times=spec.snapshot_times,
    )


def curl_config(spec: ExperimentSpec) -> CurlConfig:
    return CurlConfig(snapshot_times=spec.snapshot_times, cfl_safety=spec.cfl_safety)


def _run_pme(
    spec: ExperimentSpec, m: float, f: ScalarField, forcing, sink, name: str
) -> PmeSolution:
    """pme_solve from f under the spec's settings; `sink` gets the final state as `name`."""
    problem = PmeProblem(
        grid=spec.grid, law=PowerLaw(m), u0=f, forcing=forcing, horizon=spec.horizon
    )
    sol = pme_solve(problem, pme_config(spec))
    sink(name, sol.snapshots[-1][1], spec.horizon)
    return sol


def solve_pme(spec: ExperimentSpec, sink=_no_dumps) -> Report:
    """One PME run from f (zero without it) under the source g: mass and sup
    at every snapshot, the mass-balance residual and the boundary values."""
    grid = spec.grid
    u0 = bump_field(grid, spec.f) if spec.f else ScalarField.zeros(grid)
    forcing = constant_source(grid, bump_field, spec.g)
    problem = PmeProblem(
        grid=grid, law=PowerLaw(spec.schedule[0]), u0=u0, forcing=forcing, horizon=spec.horizon
    )
    sol = pme_solve(problem, pme_config(spec))
    report = Report(name=spec.name)
    trunc = 0.0
    for t, u in sol.snapshots:
        sink("u", u, t)
        report.add_metric("mass", float(grid.spacing ** 2 * np.sum(u.values)), t)
        report.add_metric("sup", float(np.max(np.abs(u.values))), t)
        trunc = max(trunc, boundary_ring_max(u))
    residual = sol.diagnostics.mass_residual_max
    report.add_metric("mass_residual_max", residual)
    report.add_metric("boundary_max", trunc)
    report.add_verdict("mass_balance_ok", residual <= 1e-8, ["mass_residual_max"])
    report.add_verdict("truncation_ok", trunc <= 1e-8, ["boundary_max"])
    return report


def solve_curl(spec: ExperimentSpec, sink=_no_dumps) -> Report:
    """One curl run from the h0 stream under the force stream: the field
    norm at every snapshot, divergence drift, energy budget and boundary values."""
    grid = spec.grid
    H0 = field_from_stream(grid, spec.h0_stream)
    forcing = constant_source(grid, field_from_stream, spec.forcing_stream)
    problem = CurlProblem(
        grid=grid, p=spec.schedule[0], H0=H0, forcing=forcing, horizon=spec.horizon
    )
    sol = curl_solve(problem, curl_config(spec))
    report = Report(name=spec.name)
    trunc = 0.0
    for t, H, omega, J in sol.snapshots:
        sink("h1", H.comp1, t)
        sink("h2", H.comp2, t)
        sink("omega", omega, t)
        sink("J", J, t)
        report.add_metric("l2_H", float(np.sqrt(grid.spacing ** 2 * np.sum(
            H.comp1.values ** 2 + H.comp2.values ** 2))), t)
        trunc = max(trunc, boundary_ring_max(H.comp1), boundary_ring_max(H.comp2))
    drift = sol.diagnostics.div_drift_max
    ratio = sol.diagnostics.energy_ratio
    report.add_metric("div_drift_max", drift)
    report.add_metric("energy_ratio", ratio)
    report.add_metric("boundary_max", trunc)
    report.add_verdict("div_drift_ok", drift <= 1e-10, ["div_drift_max"])
    report.add_verdict("energy_budget_ok", ratio <= 1.05, ["energy_ratio"])
    report.add_verdict("truncation_ok", trunc <= 1e-8, ["boundary_max"])
    return report


def sweep_p(spec: ExperimentSpec, sink=_no_dumps) -> Report:
    """Curl runs over the exponent schedule: saturation measures and
    variational-inequality residuals against random admissible test fields."""
    report = Report(name=spec.name)
    grid = spec.grid
    h = grid.spacing
    H0 = field_from_stream(grid, spec.h0_stream)
    forcing = constant_source(grid, field_from_stream, spec.forcing_stream)

    fl2 = 0.0 if forcing is None else math.sqrt(h * h * float(np.sum(
        forcing.comp1.values ** 2 + forcing.comp2.values ** 2)))  # ||F||_L2
    rng = np.random.default_rng(spec.seed)
    test_fields = [
        random_admissible_field(grid, rng) for _ in range(spec.n_test_fields)
    ]

    mu_keys: dict[float, list[str]] = {d: [] for d in MU_DELTAS}
    vi_keys: list[str] = []
    bound_keys: list[str] = []
    div_keys: list[str] = []
    energy_ok = True
    trunc_worst = 0.0
    for p in spec.schedule:
        problem = CurlProblem(grid=grid, p=p, H0=H0, forcing=forcing, horizon=spec.horizon)
        sol = curl_solve(problem, curl_config(spec))
        _, H_final, omega_final, _ = sol.snapshots[-1]
        sink(f"omega_p{p:g}", omega_final, spec.horizon)
        wabs = np.abs(omega_final.values)
        for d in MU_DELTAS:
            mu = float(h * h * np.count_nonzero(wabs >= 1.0 + d))
            mu_keys[d].append(report.add_metric(f"mu[{d:g}]", mu, p))
        report.add_metric("sup_omega", float(np.max(wabs)), p)
        vi_max = -np.inf
        vi_abs = 0.0
        vi_bound_defect = -np.inf
        for V in test_fields:
            series = vi_residual(sol, V)
            vi_max = max(vi_max, max(r for _, r in series))
            vi_abs = max(vi_abs, max(abs(r) for _, r in series))
            for (_, r), (_, H_snap, _, _) in zip(series, sol.snapshots[1:]):
                dv1 = V.comp1.values - H_snap.comp1.values
                dv2 = V.comp2.values - H_snap.comp2.values
                vh = math.sqrt(h * h * float(np.sum(dv1 * dv1 + dv2 * dv2)))
                vi_bound_defect = max(vi_bound_defect, r - 0.05 * fl2 * vh)
        report.add_metric("vi_max", vi_max, p)
        vi_keys.append(report.add_metric("vi_abs_max", vi_abs, p))
        bound_keys.append(report.add_metric("vi_bound_defect", vi_bound_defect, p))
        div_keys.append(report.add_metric("div_drift", sol.diagnostics.div_drift_max, p))
        worst_ratio = sol.diagnostics.energy_ratio
        report.add_metric("energy_ratio", worst_ratio, p)
        energy_ok = energy_ok and worst_ratio <= 1.05
        trunc_worst = max(
            trunc_worst,
            boundary_ring_max(H_final.comp1),
            boundary_ring_max(H_final.comp2),
            boundary_ring_max(omega_final),
        )
    report.add_metric("boundary_max", trunc_worst)
    report.add_metric("grid_h2", h * h)

    for d in MU_DELTAS:
        series = [report.metrics[k] for k in mu_keys[d]]
        report.add_verdict(f"mu[{d:g}]_non_increasing", _non_increasing(series), mu_keys[d])
    mu01 = [report.metrics[k] for k in mu_keys[0.1]]
    report.add_verdict(
        "mu[0.1]_halved", mu01[-1] <= 0.5 * mu01[0] + h * h, mu_keys[0.1] + ["grid_h2"]
    )
    vi_series = [report.metrics[k] for k in vi_keys]
    report.add_verdict("vi_abs_max_decreasing", _decreasing(vi_series), vi_keys)
    report.add_verdict(
        "vi_onesided_ok",
        all(report.metrics[k] <= 1e-9 for k in bound_keys),
        bound_keys,
    )
    report.add_verdict(
        "div_drift_ok",
        all(report.metrics[k] <= 1e-10 for k in div_keys),
        div_keys,
    )
    report.add_verdict(
        "energy_budget_ok",
        energy_ok,
        [f"energy_ratio@{p:g}" for p in spec.schedule],
    )
    report.add_verdict("truncation_ok", trunc_worst <= 1e-8, ["boundary_max"])
    return report


def sweep_m_vs_mesa(spec: ExperimentSpec, sink=_no_dumps) -> Report:
    """Scalar runs over the exponent schedule against the obstacle-problem
    limit profile; also records the pressure bound."""
    report = Report(name=spec.name)
    grid = spec.grid
    f = bump_field(grid, spec.f)
    g = constant_source(grid, bump_field, spec.g)
    if float(np.max(f.values)) > 1.0 + 1e-12:
        raise PreconditionFailed("mesa sweep requires max f <= 1")
    require_radial_monotone_data(f, g, min(spec.schedule))

    G_T = accumulated_source(g, spec.horizon, grid)
    mesa, mask, vi = mesa_profile(f, G_T)
    sink("mesa", mesa, spec.horizon)
    report.add_metric("mesa_min", float(np.min(mesa.values)))
    report.add_metric("mesa_max", float(np.max(mesa.values)))
    report.add_metric("mesa_complementarity", vi.residuals.complementarity_max)
    report.add_metric("plateau_area", float(grid.spacing ** 2 * np.count_nonzero(mask)))

    e_keys, p_keys = [], []
    trunc_worst = 0.0
    for m in spec.schedule:
        sol = _run_pme(spec, m, f, g, sink, f"u_m{m:g}")
        u_final = sol.snapshots[-1][1]
        e_keys.append(report.add_metric("e", _l1_distance(u_final, mesa), m))
        p_keys.append(report.add_metric("pressure_max", sol.diagnostics.pressure_max, m))
        report.add_metric("sup_u", sol.diagnostics.sup_max, m)
        report.add_metric("mass_residual_max", sol.diagnostics.mass_residual_max, m)
        trunc_worst = max(trunc_worst, boundary_ring_max(u_final))
    report.add_metric("boundary_max", trunc_worst)

    e_series = [report.metrics[k] for k in e_keys]
    report.add_verdict("e_strictly_decreasing", _decreasing(e_series), e_keys)
    report.add_verdict("e_final_third", e_series[-1] <= e_series[0] / 3.0, e_keys)
    report.add_verdict(
        "mesa_bounds",
        report.metrics["mesa_min"] >= 0.0 and report.metrics["mesa_max"] <= 1.0 + 1e-12,
        ["mesa_min", "mesa_max"],
    )
    report.add_verdict(
        "mesa_complementarity_ok",
        report.metrics["mesa_complementarity"] <= 1e-10,
        ["mesa_complementarity"],
    )
    report.add_verdict(
        "pressure_bound",
        all(report.metrics[k] <= 2.1 for k in p_keys),
        p_keys,
    )
    report.add_verdict("truncation_ok", trunc_worst <= 1e-8, ["boundary_max"])
    return report


def collapse_experiment(spec: ExperimentSpec, sink=_no_dumps) -> Report:
    """Super-critical data: distance of short-horizon runs (with and without
    forcing) to the instantaneous-collapse projection, per exponent."""
    report = Report(name=spec.name)
    grid = spec.grid
    f = bump_field(grid, spec.f)
    if float(np.max(f.values)) <= 1.0:
        raise PreconditionFailed("collapse experiment expects max f > 1")
    forcing = constant_source(grid, bump_field, spec.g)

    v_limit, mask, vi = collapse_profile(f)
    sink("v_limit", v_limit, 0.0)
    h2 = grid.spacing ** 2
    mass_f = float(h2 * np.sum(f.values))
    mass_v = float(h2 * np.sum(v_limit.values))
    report.add_metric("mass_f", mass_f)
    report.add_metric("mass_v_limit", mass_v)
    report.add_metric("mass_rel_defect", abs(mass_v - mass_f) / abs(mass_f))

    # the projection loses O(h) mass across the discrete free boundary, so
    # the conservation verdict is measured on the finest configured grid
    mass_n = max((grid.n, *spec.grids))
    if mass_n != grid.n:
        fine_grid = GridSpec(grid.half_width, mass_n)
        f_fine = bump_field(fine_grid, spec.f)
        v_fine, _, _ = collapse_profile(f_fine)
        hf2 = fine_grid.spacing ** 2
        mass_defect_fine = abs(
            float(hf2 * np.sum(v_fine.values)) - float(hf2 * np.sum(f_fine.values))
        ) / float(hf2 * np.sum(f_fine.values))
    else:
        mass_defect_fine = report.metrics["mass_rel_defect"]
    report.add_metric("mass_check_n", float(mass_n))
    report.add_metric("mass_rel_defect_fine", mass_defect_fine)
    plateau = v_limit.values[mask]
    report.add_metric("plateau_value_min", float(np.min(plateau)) if plateau.size else 1.0)
    report.add_metric("plateau_value_max", float(np.max(plateau)) if plateau.size else 1.0)
    report.add_metric("v_limit_max", float(np.max(v_limit.values)))
    report.add_metric("collapse_complementarity", vi.residuals.complementarity_max)

    fk, gk, mk = [], [], []
    for m in spec.schedule:
        t_m = 1.0 / m
        # the runs to 1/m start from dt = t_m / 10 and record only their final state
        run_m = dataclasses.replace(spec, horizon=t_m, dt_init=t_m / 10.0, snapshot_times=())
        u_forced = _run_pme(run_m, m, f, forcing, sink, f"u_forced_m{m:g}").snapshots[-1][1]
        u_free = _run_pme(run_m, m, f, None, sink, f"u_free_m{m:g}").snapshots[-1][1]
        fk.append(report.add_metric("d_forced", _l1_distance(u_forced, v_limit), m))
        gk.append(report.add_metric("d_free", _l1_distance(u_free, v_limit), m))
        mk.append(report.add_metric("d_mutual", _l1_distance(u_forced, u_free), m))

    forced = [report.metrics[k] for k in fk]
    free = [report.metrics[k] for k in gk]
    mutual = [report.metrics[k] for k in mk]
    report.add_verdict("d_forced_decreasing", _decreasing(forced), fk)
    report.add_verdict("d_free_decreasing", _decreasing(free), gk)
    report.add_verdict("d_mutual_decreasing", _decreasing(mutual), mk)
    report.add_verdict(
        "mass_conserved",
        report.metrics["mass_rel_defect_fine"] <= 5e-3,
        ["mass_rel_defect_fine", "mass_check_n"],
    )
    report.add_verdict(
        "plateau_at_one",
        report.metrics["plateau_value_min"] == 1.0
        and report.metrics["plateau_value_max"] == 1.0
        and report.metrics["v_limit_max"] <= 1.0 + 1e-12,
        ["plateau_value_min", "plateau_value_max", "v_limit_max"],
    )
    return report


def small_data_check(spec: ExperimentSpec, sink=_no_dumps) -> Report:
    """Sub-critical data: the final state approaches datum plus accumulated
    source as the exponent grows."""
    report = Report(name=spec.name)
    grid = spec.grid
    f = bump_field(grid, spec.f)
    g = constant_source(grid, bump_field, spec.g)
    g_sup = float(np.max(g.values)) if g is not None else 0.0
    M = float(np.max(f.values)) + spec.horizon * g_sup
    report.add_metric("M", M)
    if M >= 1.0:
        raise PreconditionFailed(f"small-data check needs max f + T max g < 1, got {M:g}")

    G_T = accumulated_source(g, spec.horizon, grid)
    target = ScalarField(grid, f.values + G_T.values)
    sink("target", target, spec.horizon)

    d_keys = []
    for m in spec.schedule:
        sol = _run_pme(spec, m, f, g, sink, f"u_m{m:g}")
        u_final = sol.snapshots[-1][1]
        d_keys.append(report.add_metric("d", _l1_distance(u_final, target), m))
        report.add_metric(
            "sup_bound_defect",
            max(0.0, sol.diagnostics.sup_max - M),
            m,
        )
    d_series = [report.metrics[k] for k in d_keys]
    report.add_verdict("d_strictly_decreasing", _decreasing(d_series), d_keys)
    report.add_verdict("d_final_third", d_series[-1] <= d_series[0] / 3.0, d_keys)
    report.add_verdict(
        "sup_bounded",
        all(report.metrics[f"sup_bound_defect@{m:g}"] <= 1e-6 for m in spec.schedule),
        [f"sup_bound_defect@{m:g}" for m in spec.schedule],
    )
    return report


def equivalence_check(spec: ExperimentSpec, sink=_no_dumps) -> Report:
    """Cross-validation of the vector solver against the scalar reduction:
    the curl of the vector run must match the scalar run driven by the
    discrete curl of the data, with discrepancy vanishing under refinement."""
    report = Report(name=spec.name)
    p = spec.schedule[0]
    if p > 16:
        raise PreconditionFailed("equivalence check is limited to p <= 16")
    grids = spec.grids or (spec.grid.n,)
    L = spec.grid.half_width

    rel_keys = []
    limit_keys = []
    for n in grids:
        grid = GridSpec(L, n)
        H0 = field_from_stream(grid, spec.h0_stream)
        forcing = constant_source(grid, field_from_stream, spec.forcing_stream)
        pme_forcing = curl_z(forcing) if forcing is not None else None
        problem = CurlProblem(grid=grid, p=p, H0=H0, forcing=forcing, horizon=spec.horizon)
        curl_sol = curl_solve(problem, curl_config(spec))

        u0 = curl_z(H0)
        pme_problem = PmeProblem(
            grid=grid, law=PowerLaw(p - 1.0), u0=u0, forcing=pme_forcing,
            horizon=spec.horizon,
        )
        pme_sol = pme_solve(pme_problem, pme_config(spec, steps=100))

        sink(f"omega_n{n}", curl_sol.snapshots[-1][2], spec.horizon)
        sink(f"u_n{n}", pme_sol.snapshots[-1][1], spec.horizon)
        # both solvers snapshot at the same requested times; a mismatch is a
        # bug in a solver's snapshot logic, not a solver failure
        if len(curl_sol.snapshots) != len(pme_sol.snapshots):
            raise RuntimeError(
                f"curl run has {len(curl_sol.snapshots)} snapshots, "
                f"scalar run {len(pme_sol.snapshots)}"
            )
        worst = 0.0
        for (tc, _, omega, _), (tp, u) in zip(curl_sol.snapshots[1:], pme_sol.snapshots[1:]):
            if abs(tc - tp) > 1e-12 * max(1.0, spec.horizon):
                raise RuntimeError(f"curl snapshot at t={tc!r} paired with scalar one at t={tp!r}")
            num = float(np.sqrt(np.sum((omega.values - u.values) ** 2)))
            den = float(np.sqrt(np.sum(u.values ** 2)))
            # zero against zero is an exact match; a nonzero curl against zero is none
            worst = max(worst, num / den if den else (math.inf if num else 0.0))
        rel_keys.append(report.add_metric("rel_l2_max", worst, n))
        limit_keys.append(report.add_metric("five_h", 5.0 * grid.spacing, n))

    rels = [report.metrics[k] for k in rel_keys]
    limits = [report.metrics[k] for k in limit_keys]
    report.add_verdict(
        "rel_l2_below_5h",
        all(r <= lim for r, lim in zip(rels, limits)),
        rel_keys + limit_keys,
    )
    if len(rels) > 1:
        report.add_verdict("rel_l2_decreasing", _decreasing(rels), rel_keys)
    return report


def l1_contraction_check(spec: ExperimentSpec, sink=_no_dumps) -> Report:
    """Two runs with shared source: distances contract in L1 and ordered
    data stay ordered."""
    report = Report(name=spec.name)
    grid = spec.grid
    m = spec.schedule[0]
    f1 = bump_field(grid, spec.f)
    f2 = bump_field(grid, spec.f2)
    forcing = constant_source(grid, bump_field, spec.g)

    sol1 = _run_pme(spec, m, f1, forcing, sink, "u1_final")
    sol2 = _run_pme(spec, m, f2, forcing, sink, "u2_final")
    d0 = _l1_distance(f1, f2)
    report.add_metric("initial_l1_distance", d0)

    worst_ratio = 0.0
    ordered_input = bool(np.all(f1.values <= f2.values))
    order_defect = 0.0
    for (t1, u1), (t2, u2) in zip(sol1.snapshots[1:], sol2.snapshots[1:]):
        d = _l1_distance(u1, u2)
        report.add_metric("l1_distance", d, t1)
        worst_ratio = max(worst_ratio, d / d0 if d0 > 0 else 0.0)
        if ordered_input:
            order_defect = max(order_defect, float(np.max(u1.values - u2.values)))
    report.add_metric("worst_contraction_ratio", worst_ratio)
    report.add_verdict(
        "l1_contraction",
        worst_ratio <= 1.0 + 1e-6,
        ["worst_contraction_ratio", "initial_l1_distance"],
    )
    if ordered_input:
        report.add_metric("order_defect", order_defect)
        report.add_verdict("comparison_ordering", order_defect <= 1e-8, ["order_defect"])
    return report


def barenblatt_convergence(spec: ExperimentSpec, sink=_no_dumps) -> Report:
    """Exact-solution study: L1 error against the self-similar profile under
    simultaneous grid and step refinement, plus the mass-balance residual."""
    report = Report(name=spec.name)
    m = spec.schedule[0]
    law = PowerLaw(m)
    grids = spec.grids or (spec.grid.n,)
    L = spec.grid.half_width
    t0 = spec.barenblatt_t0
    mass = spec.barenblatt_mass
    base = pme_config(spec, steps=40)

    err_keys = []
    mass_keys = []
    for n in grids:
        grid = GridSpec(L, n)
        u0 = barenblatt_field(grid, t0, law, mass)
        problem = PmeProblem(grid=grid, law=law, u0=u0, forcing=None, horizon=spec.horizon)
        sol = pme_solve(problem, dataclasses.replace(base, dt_init=base.dt_init * grids[0] / n))
        exact = barenblatt_field(grid, t0 + spec.horizon, law, mass)
        sink(f"u_n{n}", sol.snapshots[-1][1], spec.horizon)
        sink(f"exact_n{n}", exact, spec.horizon)
        err_keys.append(report.add_metric("l1_error", _l1_distance(sol.snapshots[-1][1], exact), n))
        mass_keys.append(
            report.add_metric("mass_residual_max", sol.diagnostics.mass_residual_max, n)
        )
    errs = [report.metrics[k] for k in err_keys]
    orders = [
        float(np.log(a / b) / np.log(n2 / n1))
        for (a, b), (n1, n2) in zip(zip(errs, errs[1:]), zip(grids, grids[1:]))
    ]
    for (n1, n2), order in zip(zip(grids, grids[1:]), orders):
        report.add_metric(f"order[{n1}->{n2}]", order)
    if orders:
        report.add_metric("order_min", min(orders))
    report.add_verdict("errors_decreasing", _decreasing(errs), err_keys)
    if orders:
        report.add_verdict(
            "order_at_least_0.8",
            min(orders) >= 0.8,
            ["order_min"],
        )
    report.add_verdict(
        "mass_balance_ok",
        all(report.metrics[k] <= 1e-8 for k in mass_keys),
        mass_keys,
    )
    return report
