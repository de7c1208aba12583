import math

import numpy as np
import pytest

from bean_limit import experiments
from bean_limit.datagen import (
    BumpSpec,
    StreamSpec,
    accumulated_source,
    bump_field,
)
from bean_limit.errors import PreconditionFailed
from bean_limit.experiments import (
    ExperimentSpec,
    Report,
    barenblatt_convergence,
    collapse_experiment,
    d4_symmetry_defect,
    equivalence_check,
    h43_defect,
    l1_contraction_check,
    outward_monotone_defect,
    small_data_check,
    solve_pme,
    sweep_m_vs_mesa,
    sweep_p,
)
from bean_limit.fields import GridSpec, PowerLaw, ScalarField
from bean_limit.pme import PmeConfig, PmeProblem, pme_solve

from oracles import flat_top_field, monotonicity_check


def test_spec_validation():
    g = GridSpec(4.0, 16)
    with pytest.raises(ValueError):
        ExperimentSpec(name="x", grid=g, schedule=(), horizon=1.0)
    with pytest.raises(ValueError):
        ExperimentSpec(name="x", grid=g, schedule=(8.0, 4.0), horizon=1.0)
    with pytest.raises(ValueError):
        ExperimentSpec(name="x", grid=g, schedule=(8.0, 128.0), horizon=1.0)
    with pytest.raises(ValueError):
        ExperimentSpec(name="x", grid=g, schedule=(8.0,), horizon=-1.0)


def test_spec_rejects_a_run_without_test_fields():
    # sweep_p's variational-inequality verdicts need at least one test
    # field; without one they would pass on no evidence
    with pytest.raises(ValueError, match="n_test_fields"):
        ExperimentSpec(name="x", grid=GridSpec(4.0, 16), schedule=(4.0, 8.0), horizon=0.05,
                       n_test_fields=0)


def test_spec_rejects_a_first_step_that_is_not_positive():
    # dt_init = 0.0 once read as unset and ran with horizon / steps
    for dt_init in (0.0, -0.01):
        with pytest.raises(ValueError, match="dt_init"):
            ExperimentSpec(name="x", grid=GridSpec(4.0, 16), schedule=(4.0,), horizon=0.5,
                           dt_init=dt_init)


def test_report_verdicts_reference_metrics():
    r = Report(name="t")
    for name, value in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
        r.add_metric(name, value)
    seen = []

    def rule(xs):
        seen.append(xs)
        return np.True_

    # the rule sees the cited values in the cited order
    r.judge("ok", ["c", "a", "b"], rule)
    assert seen == [[3.0, 1.0, 2.0]]
    assert r.verdicts == [experiments.Verdict("ok", True, ("c", "a", "b"))]
    assert r.verdicts[0].passed is True
    with pytest.raises(ValueError, match="missing"):
        r.judge("bad", ["a", "missing"], rule)
    assert len(seen) == 1 and len(r.verdicts) == 1
    # a NaN fails an upper bound wherever it sits among the cited values
    assert experiments.at_most(1.0)([0.5, 1.0])
    for xs in ([math.nan, 0.5, 0.5], [0.5, math.nan, 0.5], [0.5, 0.5, math.nan]):
        assert not experiments.at_most(1.0)(xs)


def test_report_refuses_to_overwrite_a_metric():
    r = Report(name="t")
    r.add_metric("d", 1.0, 0.02500001)
    with pytest.raises(ValueError, match="already recorded"):
        r.add_metric("d", 2.0, 0.02500002)
    assert r.metrics == {"d@0.025": 1.0}


def test_spec_rejects_entries_that_label_metrics_alike():
    g = GridSpec(4.0, 32)
    for fields, name in [
        (dict(schedule=(4.0000001, 4.0000002)), "schedule"),
        (dict(snapshot_times=(0.02500001, 0.02500002)), "snapshot_times"),
        (dict(snapshot_times=(0.09999999,)), "snapshot_times"),
        (dict(grids=(32, 32)), "grids"),
    ]:
        spec = dict(name="x", grid=g, schedule=(4.0,), horizon=0.1) | fields
        with pytest.raises(ValueError, match=f"^{name}: "):
            ExperimentSpec(**spec)


def test_data_hypothesis_helpers():
    g = GridSpec(4.0, 32)
    f = bump_field(g, BumpSpec(height=0.3, radius=1.5))
    assert d4_symmetry_defect(f) <= 1e-13
    assert outward_monotone_defect(f) == 0.0
    shifted = bump_field(g, BumpSpec(height=0.3, radius=1.5, center=(0.4, 0.0)))
    assert d4_symmetry_defect(shifted) > 1e-6
    gb = ScalarField(g, 0.1 * f.values)
    assert h43_defect(f, gb, 8.0) == 0.0
    assert h43_defect(f, None, 8.0) > 0.0  # diffusion alone shrinks the peak


def small_sweep_spec(**over):
    base = dict(
        name="tiny-sweep",
        grid=GridSpec(4.0, 24),
        schedule=(4.0, 8.0),
        horizon=0.05,
        snapshot_times=(0.025,),
        h0_stream=StreamSpec(width=2.0, curl_max=0.8),
        n_test_fields=4,
        seed=0,
    )
    base.update(over)
    return ExperimentSpec(**base)


def test_sweep_p_smoke_and_determinism():
    spec = small_sweep_spec()
    a = sweep_p(spec)
    b = sweep_p(spec)
    assert a.metrics == b.metrics  # bitwise reproducibility
    assert a.verdict("div_drift_ok")
    assert a.verdict("truncation_ok")
    assert "sup_omega@4" in a.metrics


def test_sweep_p_subcritical_data_has_zero_excess():
    spec = small_sweep_spec(
        name="subcritical-sweep",
        h0_stream=StreamSpec(width=2.0, curl_max=0.5),
        schedule=(4.0, 8.0, 16.0),
        horizon=0.1,
        snapshot_times=(0.05,),
    )
    rep = sweep_p(spec)
    for key, value in rep.metrics.items():
        if key.startswith("mu["):
            assert value == 0.0, key


def test_sweep_m_vs_mesa_smoke():
    spec = ExperimentSpec(
        name="tiny-mesa",
        grid=GridSpec(4.0, 32),
        schedule=(8.0, 16.0),
        horizon=0.5,
        f=BumpSpec(height=0.55, radius=1.5),
        g=BumpSpec(height=0.7, radius=1.7),
        dt_init=0.025,
    )
    rep = sweep_m_vs_mesa(spec)
    assert rep.verdict("e_strictly_decreasing")
    assert rep.verdict("mesa_bounds")
    assert rep.verdict("pressure_bound")
    assert rep.metrics["e@16"] < rep.metrics["e@8"]


def test_sweep_m_rejects_supercritical_f():
    spec = ExperimentSpec(
        name="bad",
        grid=GridSpec(4.0, 32),
        schedule=(8.0,),
        horizon=0.5,
        f=BumpSpec(height=1.2, radius=1.5),
        g=BumpSpec(height=0.7, radius=1.7),
    )
    with pytest.raises(PreconditionFailed):
        sweep_m_vs_mesa(spec)


def test_collapse_experiment_smoke():
    # a grids list coarser than grid.n leaves the mass check on grid.n
    for grids in ((), (32,)):
        spec = ExperimentSpec(
            name="tiny-collapse",
            grid=GridSpec(2.0, 48),
            schedule=(8.0, 16.0),
            horizon=1.0,
            f=BumpSpec(height=1.5, radius=1.4),
            g=BumpSpec(height=0.3, radius=1.2),
            grids=grids,
        )
        rep = collapse_experiment(spec)
        assert rep.verdict("d_forced_decreasing")
        assert rep.verdict("d_free_decreasing")
        assert rep.verdict("plateau_at_one")
        assert rep.metrics["mass_rel_defect"] < 0.05
        assert rep.metrics["mass_check_n"] == 48
        assert rep.metrics["mass_rel_defect_fine"] == rep.metrics["mass_rel_defect"]


def test_collapse_rejects_subcritical_f():
    spec = ExperimentSpec(
        name="bad",
        grid=GridSpec(2.0, 48),
        schedule=(8.0,),
        horizon=1.0,
        f=BumpSpec(height=0.9, radius=1.4),
    )
    with pytest.raises(PreconditionFailed):
        collapse_experiment(spec)


def test_small_data_check_smoke_and_guard():
    spec = ExperimentSpec(
        name="tiny-small-data",
        grid=GridSpec(4.0, 32),
        schedule=(8.0, 16.0),
        horizon=0.5,
        f=BumpSpec(height=0.5, radius=1.5),
        g=BumpSpec(height=0.4, radius=1.7),
        dt_init=0.025,
    )
    rep = small_data_check(spec)
    assert rep.verdict("d_strictly_decreasing")
    assert rep.verdict("sup_bounded")
    bad = ExperimentSpec(
        name="bad",
        grid=GridSpec(4.0, 32),
        schedule=(8.0,),
        horizon=1.0,
        f=BumpSpec(height=0.9, radius=1.5),
        g=BumpSpec(height=0.4, radius=1.7),
    )
    with pytest.raises(PreconditionFailed):
        small_data_check(bad)


def test_equivalence_check_smoke():
    spec = ExperimentSpec(
        name="tiny-equivalence",
        grid=GridSpec(2.0, 32),
        schedule=(4.0,),
        horizon=0.25,
        snapshot_times=(0.125,),
        h0_stream=StreamSpec(width=1.0, curl_max=0.8),
        forcing_stream=StreamSpec(width=1.2, curl_max=0.5),
        grids=(32, 48),
        dt_init=0.005,
    )
    rep = equivalence_check(spec)
    assert rep.verdict("rel_l2_below_5h")
    assert rep.verdict("rel_l2_decreasing")


def _drop_last_snapshot(sol):
    sol.snapshots.pop()


def _shift_snapshot_time(sol):
    t, u = sol.snapshots[1]
    sol.snapshots[1] = (t + 0.01, u)


@pytest.mark.parametrize("corrupt", [_drop_last_snapshot, _shift_snapshot_time])
def test_equivalence_check_raises_on_unpaired_snapshots(monkeypatch, corrupt):
    # a snapshot mismatch between the two solvers is a bug, not a solver
    # failure: RuntimeError is outside the CLI's exit-3 error set
    import bean_limit.experiments as experiments

    def corrupted_pme_solve(problem, config):
        sol = pme_solve(problem, config)
        corrupt(sol)
        return sol

    monkeypatch.setattr(experiments, "pme_solve", corrupted_pme_solve)
    spec = ExperimentSpec(
        name="tiny-equivalence",
        grid=GridSpec(2.0, 32),
        schedule=(4.0,),
        horizon=0.25,
        snapshot_times=(0.125,),
        h0_stream=StreamSpec(width=1.0, curl_max=0.8),
        grids=(32,),
        dt_init=0.005,
    )
    with pytest.raises(RuntimeError, match="snapshot") as info:
        equivalence_check(spec)
    assert type(info.value) is RuntimeError


def test_equivalence_rejects_large_p():
    spec = ExperimentSpec(
        name="bad",
        grid=GridSpec(2.0, 32),
        schedule=(32.0,),
        horizon=0.25,
        h0_stream=StreamSpec(width=1.0, curl_max=0.8),
    )
    with pytest.raises(PreconditionFailed):
        equivalence_check(spec)


def test_forcing_reduction_two_path_agreement():
    # the scalar source used by the reduction is the discrete curl of the
    # forcing; it must agree with the analytic Laplacian of the stream to
    # second order
    from bean_limit.fields import curl_z, lap5_values
    from bean_limit.datagen import field_from_stream, stream_field

    errs = []
    for n in (48, 96):
        g = GridSpec(4.0, n)
        spec = StreamSpec(amplitude=0.5, width=2.0)
        chi = stream_field(g, spec)
        F = field_from_stream(g, spec)
        g_discrete = curl_z(F).values
        g_analytic = -lap5_values(chi.values, g.spacing)
        errs.append(np.max(np.abs((g_discrete - g_analytic)[2:-2, 2:-2])))
    assert errs[1] <= errs[0] / 3.0


def test_contraction_check_smoke():
    spec = ExperimentSpec(
        name="tiny-contraction",
        grid=GridSpec(4.0, 32),
        schedule=(8.0,),
        horizon=0.25,
        snapshot_times=(0.125,),
        f=BumpSpec(height=0.5, radius=1.4),
        f2=BumpSpec(height=0.7, radius=1.4),
        g=BumpSpec(height=0.2, radius=1.2),
        dt_init=0.0125,
    )
    rep = l1_contraction_check(spec)
    assert rep.verdict("l1_contraction")
    assert rep.verdict("comparison_ordering")


def test_monotonicity_check_pass_and_flat_top():
    g = GridSpec(4.0, 48)
    f = bump_field(g, BumpSpec(height=0.3, radius=1.4))
    gb = ScalarField(g, 0.1 * f.values)
    prob = PmeProblem(grid=g, law=PowerLaw(8.0), u0=f, forcing=gb, horizon=0.5)
    sol = pme_solve(prob, PmeConfig(dt_init=0.01, snapshot_times=(0.25,)))
    rep = monotonicity_check(sol)
    assert rep.passed()

    ft = flat_top_field(g, BumpSpec(height=0.45, radius=1.4), cap=0.3)
    gb2 = bump_field(g, BumpSpec(height=0.1, radius=1.6))
    prob2 = PmeProblem(grid=g, law=PowerLaw(8.0), u0=ft, forcing=gb2, horizon=0.25)
    sol2 = pme_solve(prob2, PmeConfig(dt_init=0.01))
    assert monotonicity_check(sol2).passed()


def test_monotonicity_check_refuses_non_radial():
    g = GridSpec(4.0, 32)
    f = bump_field(g, BumpSpec(height=0.3, radius=1.2, center=(0.4, 0.0)))
    prob = PmeProblem(grid=g, law=PowerLaw(8.0), u0=f, forcing=None, horizon=0.1)
    sol = pme_solve(prob, PmeConfig(dt_init=0.01))
    with pytest.raises(PreconditionFailed):
        monotonicity_check(sol)


def test_barenblatt_convergence_driver():
    spec = ExperimentSpec(
        name="tiny-bb",
        grid=GridSpec(2.0, 32),
        schedule=(3.0,),
        horizon=0.5,
        grids=(32, 64),
        dt_init=0.04,
    )
    rep = barenblatt_convergence(spec)
    assert rep.verdict("errors_decreasing")
    assert rep.verdict("mass_balance_ok")
    assert rep.metrics["l1_error@64"] < rep.metrics["l1_error@32"]


@pytest.mark.parametrize("grids", [(), (32,)])
def test_barenblatt_convergence_needs_two_grids(monkeypatch, grids):
    # errors_decreasing and the convergence order are trends, which one
    # grid cannot show; the study refuses before any solve
    def no_solve(problem, config):
        raise AssertionError("solved before the grid check")

    monkeypatch.setattr(experiments, "pme_solve", no_solve)
    spec = ExperimentSpec(name="one-grid-bb", grid=GridSpec(2.0, 32), schedule=(3.0,),
                          horizon=0.5, grids=grids)
    with pytest.raises(PreconditionFailed, match="at least two grids"):
        barenblatt_convergence(spec)


def record_pme_configs(monkeypatch) -> list[tuple[int, PmeConfig]]:
    """(grid size, config) of every pme_solve call a driver makes; the real solver runs."""
    seen = []

    def recording(problem, config):
        seen.append((problem.grid.n, config))
        return pme_solve(problem, config)

    monkeypatch.setattr(experiments, "pme_solve", recording)
    return seen


SMALL_PME = dict(grid=GridSpec(4.0, 24), horizon=0.1, snapshot_times=(0.05,),
                 f=BumpSpec(height=0.5, radius=1.5), g=BumpSpec(height=0.4, radius=1.7))


@pytest.mark.parametrize("driver, schedule, extra", [
    (solve_pme, (4.0,), {}),
    (sweep_m_vs_mesa, (8.0, 16.0), {}),
    (small_data_check, (8.0, 16.0), {}),
    (l1_contraction_check, (8.0,), {"f2": BumpSpec(height=0.6, radius=1.5)}),
])
def test_a_driver_without_dt_init_starts_at_a_fiftieth_of_the_horizon(
        monkeypatch, driver, schedule, extra):
    # every reference config sets pme.dt_init, so only this pins the default
    seen = record_pme_configs(monkeypatch)
    spec = ExperimentSpec(name="default-step", schedule=schedule, **SMALL_PME, **extra)
    driver(spec)
    assert len(seen) >= len(schedule)
    assert all(c == PmeConfig(dt_init=0.1 / 50, snapshot_times=(0.05,)) for _, c in seen), seen


def test_equivalence_without_dt_init_starts_at_a_hundredth_of_the_horizon(monkeypatch):
    seen = record_pme_configs(monkeypatch)
    equivalence_check(ExperimentSpec(
        name="default-step", grid=GridSpec(2.0, 24), schedule=(4.0,), horizon=0.05,
        snapshot_times=(0.025,), h0_stream=StreamSpec(width=1.0, curl_max=0.8), grids=(24, 32),
    ))
    assert seen == [(n, PmeConfig(dt_init=0.05 / 100, snapshot_times=(0.025,))) for n in (24, 32)]


@pytest.mark.parametrize("dt_init", [None, 0.02])
def test_barenblatt_scales_its_first_step_by_the_coarsest_grid(monkeypatch, dt_init):
    # horizon / 40 without dt_init, then times grids[0] / n on grid n
    seen = record_pme_configs(monkeypatch)
    barenblatt_convergence(ExperimentSpec(name="bb-step", grid=GridSpec(2.0, 16), schedule=(3.0,),
                                          horizon=0.2, grids=(16, 24), dt_init=dt_init))
    dt0 = 0.2 / 40 if dt_init is None else dt_init
    assert seen == [(n, PmeConfig(dt_init=dt0 * 16 / n)) for n in (16, 24)]


def test_collapse_runs_start_at_a_tenth_of_their_horizon(monkeypatch):
    # the runs to 1/m ignore dt_init and the snapshot times of the spec
    seen = record_pme_configs(monkeypatch)
    collapse_experiment(ExperimentSpec(
        name="collapse-step", grid=GridSpec(2.0, 32), schedule=(8.0, 16.0), horizon=1.0,
        snapshot_times=(0.5,), f=BumpSpec(height=1.5, radius=1.4),
        g=BumpSpec(height=0.3, radius=1.2),
    ))
    # a forced and a free run per exponent
    assert seen == [(32, PmeConfig(dt_init=(1.0 / m) / 10.0)) for m in (8.0, 8.0, 16.0, 16.0)]


def test_accumulated_source_is_t_times_g():
    g = GridSpec(4.0, 24)
    f = bump_field(g, BumpSpec(height=0.4, radius=1.5))
    acc = accumulated_source(f, 0.8, g)
    assert np.array_equal(acc.values, 0.8 * f.values)
    zero = accumulated_source(None, 0.8, g)
    assert np.all(zero.values == 0.0)
