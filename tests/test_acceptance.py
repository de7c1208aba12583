"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy solver runs
are shared through module-scoped fixtures; every tolerance below is the
criterion's own.
"""

import numpy as np
import pytest

from bean_limit.datagen import BumpSpec, StreamSpec, bump_field, disk_field
from bean_limit.experiments import (
    ExperimentSpec,
    barenblatt_convergence,
    collapse_experiment,
    equivalence_check,
    l1_contraction_check,
    small_data_check,
    sweep_m_vs_mesa,
    sweep_p,
)
from bean_limit.fields import GridSpec, ScalarField
from bean_limit.obstacle import ObstacleData, psor_solve

from oracles import radial_obstacle_oracle


def announce(num, name, ok):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {name}")
    return ok


# -- shared runs ---------------------------------------------------------------


@pytest.fixture(scope="module")
def barenblatt_report():
    spec = ExperimentSpec(
        name="acceptance-barenblatt",
        grid=GridSpec(2.0, 64),
        schedule=(3.0,),
        horizon=1.0,
        grids=(64, 128, 256),
        dt_init=0.03125,  # half the coarsest spacing; scaled with the grid
        barenblatt_t0=1.0,
        barenblatt_mass=1.0,
    )
    return barenblatt_convergence(spec)


@pytest.fixture(scope="module")
def smalldata_report():
    spec = ExperimentSpec(
        name="acceptance-small-data",
        grid=GridSpec(4.0, 64),
        schedule=(8.0, 16.0, 32.0, 64.0),
        horizon=0.5,
        f=BumpSpec(height=0.55, radius=1.5),
        g=BumpSpec(height=0.5, radius=1.7),
        dt_init=0.01,
    )
    return small_data_check(spec)


@pytest.fixture(scope="module")
def mesa_report():
    spec = ExperimentSpec(
        name="acceptance-mesa",
        grid=GridSpec(4.0, 96),
        schedule=(8.0, 16.0, 32.0, 64.0),
        horizon=1.0,
        f=BumpSpec(height=0.55, radius=1.5),
        g=BumpSpec(height=0.7, radius=1.7),
        dt_init=0.02,
    )
    return sweep_m_vs_mesa(spec)


@pytest.fixture(scope="module")
def collapse_report():
    spec = ExperimentSpec(
        name="acceptance-collapse",
        grid=GridSpec(2.0, 128),
        schedule=(8.0, 16.0, 32.0, 64.0),
        horizon=1.0,
        f=BumpSpec(height=1.5, radius=1.4),
        g=BumpSpec(height=0.3, radius=1.2),
        grids=(256,),  # conservation clause measured on the fine grid
    )
    return collapse_experiment(spec)


@pytest.fixture(scope="module")
def saturation_forced():
    spec = ExperimentSpec(
        name="acceptance-saturation",
        grid=GridSpec(4.0, 48),
        schedule=(4.0, 8.0, 16.0, 32.0),
        horizon=0.3,
        snapshot_times=tuple(0.03 * k for k in range(1, 10)),
        h0_stream=StreamSpec(width=2.0, curl_max=0.9),
        forcing_stream=StreamSpec(width=2.0, curl_max=20.0),
        seed=0,
    )
    return sweep_p(spec)


@pytest.fixture(scope="module")
def saturation_relax():
    spec = ExperimentSpec(
        name="acceptance-relaxation",
        grid=GridSpec(4.0, 48),
        schedule=(4.0, 8.0, 16.0, 32.0),
        horizon=0.3,
        snapshot_times=tuple(0.03 * k for k in range(1, 10)),
        h0_stream=StreamSpec(width=2.0, curl_max=1.0),
        seed=0,
    )
    return sweep_p(spec)


@pytest.fixture(scope="module")
def equivalence_report():
    spec = ExperimentSpec(
        name="acceptance-equivalence",
        grid=GridSpec(2.0, 64),
        schedule=(4.0,),
        horizon=0.5,
        snapshot_times=(0.125, 0.25, 0.375),
        h0_stream=StreamSpec(width=1.0, curl_max=0.8),
        forcing_stream=StreamSpec(width=1.2, curl_max=0.5),
        grids=(64, 128),
        dt_init=0.005,
    )
    return equivalence_check(spec)


# -- criteria --------------------------------------------------------------------


def test_criterion_1_barenblatt_exactness(barenblatt_report):
    r = barenblatt_report
    errs = [r.metrics[f"l1_error@{n}"] for n in (64, 128, 256)]
    ok = (
        r.verdict("errors_decreasing")
        and r.verdict("order_at_least_0.8")
        and r.verdict("mass_balance_ok")
    )
    assert announce(1, f"Barenblatt L1 errors {errs} order_min={r.metrics['order_min']:.2f}", ok)


def test_criterion_2_small_data_limit(smalldata_report):
    r = smalldata_report
    d = [r.metrics[f"d@{m:g}"] for m in (8, 16, 32, 64)]
    ok = r.verdict("d_strictly_decreasing") and d[-1] <= d[0] / 3.0
    assert announce(2, f"small-data d(m)={['%.3g' % x for x in d]}", ok)


def test_criterion_3_pressure_bound(mesa_report):
    r = mesa_report
    pressures = [r.metrics[f"pressure_max@{m:g}"] for m in (8, 16, 32, 64)]
    ok = all(p <= 2.1 for p in pressures)
    assert announce(3, f"pressure maxima {['%.3f' % p for p in pressures]} <= 2.1", ok)


def test_criterion_4_mesa_convergence(mesa_report):
    r = mesa_report
    e = [r.metrics[f"e@{m:g}"] for m in (8, 16, 32, 64)]
    ok = (
        r.verdict("e_strictly_decreasing")
        and e[-1] <= e[0] / 3.0
        and r.verdict("mesa_bounds")
        and r.verdict("mesa_complementarity_ok")
    )
    assert announce(4, f"mesa e(m)={['%.3g' % x for x in e]}", ok)


def test_criterion_5_collapse(collapse_report):
    r = collapse_report
    ok = (
        r.verdict("d_forced_decreasing")
        and r.verdict("d_free_decreasing")
        and r.metrics["mass_rel_defect_fine"] <= 5e-3
    )
    assert announce(
        5,
        "collapse d_free={} mass defect={:.3%} (n={:g})".format(
            ["%.3g" % r.metrics[f"d_free@{m:g}"] for m in (8, 16, 32, 64)],
            r.metrics["mass_rel_defect_fine"],
            r.metrics["mass_check_n"],
        ),
        ok,
    )


def test_criterion_6_saturation(saturation_forced):
    r = saturation_forced
    mus = [r.metrics[f"mu[0.1]@{p:g}"] for p in (4, 8, 16, 32)]
    ok = r.verdict("mu[0.1]_non_increasing") and mus[-1] <= mus[0] / 2.0 + r.metrics["grid_h2"]
    assert announce(6, f"saturation mu_0.1(p)={mus}", ok)


def test_criterion_7_reduction_equivalence(equivalence_report):
    r = equivalence_report
    rels = [r.metrics[f"rel_l2_max@{n}"] for n in (64, 128)]
    ok = r.verdict("rel_l2_below_5h") and r.verdict("rel_l2_decreasing")
    assert announce(7, f"equivalence rel L2 {['%.4f' % x for x in rels]} (caps 5h)", ok)


def test_criterion_8_conservation_and_contraction(saturation_forced, saturation_relax):
    drift_ok = saturation_forced.verdict("div_drift_ok") and saturation_relax.verdict("div_drift_ok")
    pairs = [
        (BumpSpec(height=0.5, radius=1.4), BumpSpec(height=0.7, radius=1.4)),
        (BumpSpec(height=0.6, radius=1.2), BumpSpec(height=0.4, radius=1.8)),
        (BumpSpec(height=0.3, radius=1.0, center=(0.5, 0.0)),
         BumpSpec(height=0.5, radius=1.5, center=(-0.3, 0.2))),
    ]
    contraction_ok = True
    for f1, f2 in pairs:
        spec = ExperimentSpec(
            name="acceptance-contraction",
            grid=GridSpec(4.0, 64),
            schedule=(8.0,),
            horizon=0.5,
            snapshot_times=(0.25,),
            f=f1,
            f2=f2,
            g=BumpSpec(height=0.2, radius=1.2),
            dt_init=0.0125,
        )
        rep = l1_contraction_check(spec)
        contraction_ok = contraction_ok and rep.verdict("l1_contraction")
        if any(v.name == "comparison_ordering" for v in rep.verdicts):
            contraction_ok = contraction_ok and rep.verdict("comparison_ordering")
    ok = drift_ok and contraction_ok
    assert announce(8, "divergence drift <= 1e-10 and L1 contraction on 3 pairs", ok)


def test_criterion_9_obstacle_correctness():
    ok = True
    details = []
    for q_field, label in (
        (disk_field(GridSpec(4.0, 64), inside=0.5, outside=-1.0, radius=1.0), "disk"),
        (None, "smooth"),
    ):
        n = 64
        g = GridSpec(4.0, n)
        if q_field is None:
            bump = bump_field(g, BumpSpec(height=0.8, radius=2.0))
            q_field = ScalarField(g, bump.values - 0.5)

            def q_prof(r):
                return 0.8 * max(0.0, 1.0 - (r / 2.0) ** 2) ** 2 - 0.5
        else:

            def q_prof(r):
                return 0.5 if r < 1.0 else -1.0

        vi = psor_solve(ObstacleData(q_field))
        prof = radial_obstacle_oracle(q_prof, 4.0, 2000)
        x, y = g.meshgrid()
        err = float(np.max(np.abs(vi.w.values - prof(np.sqrt(x * x + y * y)))))
        details.append(f"{label}:{err:.4f}")
        ok = ok and err <= 5 * g.spacing

    g = GridSpec(4.0, 64)
    vi0 = psor_solve(ObstacleData(ScalarField(g, -np.ones((64, 64)))))
    ok = ok and bool(np.all(vi0.w.values == 0.0))

    # unconstrained-region linearity against a plain Poisson solve
    from bean_limit.fields import neighbor_sum
    from bean_limit.pme import pcg

    h = g.spacing
    q = bump_field(g, BumpSpec(height=0.4, radius=2.0))
    vi = psor_solve(ObstacleData(q))
    rhs = q.values.copy()
    rhs[0, :] = rhs[-1, :] = rhs[:, 0] = rhs[:, -1] = 0.0
    interior = np.zeros((64, 64), dtype=bool)
    interior[1:-1, 1:-1] = True

    def apply_A(w):
        out = neighbor_sum(w)
        out -= 4.0 * w
        out *= -1.0 / (h * h)
        out[~interior] = w[~interior]
        return out

    diag = np.full((64, 64), 4.0 / (h * h))
    diag[~interior] = 1.0
    w_cg = pcg(apply_A, rhs, lambda r: r / diag, 1e-13, 100000)
    lin_err = float(np.max(np.abs(vi.w.values - w_cg)))
    ok = ok and lin_err <= 1e-9
    assert announce(9, f"obstacle vs oracle {details}, linearity {lin_err:.2e}", ok)


def test_criterion_10_vi_residual_trend(saturation_relax):
    r = saturation_relax
    vi = [r.metrics[f"vi_abs_max@{p:g}"] for p in (4, 8, 16, 32)]
    ok = r.verdict("vi_abs_max_decreasing") and r.verdict("vi_onesided_ok")
    assert announce(10, f"vi residual maxima {['%.4g' % v for v in vi]}", ok)


MESA_BASELINE = {
    # first validated run of the reference radial datum, pinned as the
    # regression fixture for the mesa sweep
    8.0: 0.8331702200864524,
    16.0: 0.4954062582194985,
    32.0: 0.294027553038127,
    64.0: 0.17353952751430057,
}


def test_mesa_regression_baseline(mesa_report):
    for m, expected in MESA_BASELINE.items():
        assert mesa_report.metrics[f"e@{m:g}"] == pytest.approx(expected, rel=1e-6)


SATURATION_BASELINE = {
    # sup |curl H| at the horizon of the forced saturation sweep
    # (configs/sweep_p.cfg), the values the saturation-sweep benchmark pins
    4.0: 1.6385064778683898,
    8.0: 1.246233639094743,
    16.0: 1.1094463972197932,
    32.0: 1.0518668916544085,
}


def test_saturation_regression_baseline(saturation_forced):
    for p, expected in SATURATION_BASELINE.items():
        assert saturation_forced.metrics[f"sup_omega@{p:g}"] == pytest.approx(expected, rel=1e-6)


def test_mesa_sweep_boundary_ring_is_exactly_zero(mesa_report):
    # the data vanish far inside the box, so every exponent's final state
    # holds +0 on the outer ring, not a subnormal residue of Newton's rounding
    assert mesa_report.metrics["boundary_max"] == 0.0
