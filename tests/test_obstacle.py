from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bean_limit.datagen import BumpSpec, bump_field, bump_values, disk_field
from bean_limit.errors import DomainError
from bean_limit import obstacle
from bean_limit.config import RunConfig
from bean_limit.fields import GridSpec, ScalarField, lap5_values
from bean_limit.obstacle import (
    COMPLEMENTARITY_TOL,
    FEASIBILITY_TOL,
    INACTIVE_RESIDUAL_TOL,
    NotConverged,
    ObstacleData,
    collapse_profile,
    mesa_profile,
    psor_solve,
)

from oracles import flat_top_field, radial_obstacle_oracle, strided_psor_solve


def auto_omega(n):
    return 2.0 / (1.0 + np.sin(np.pi / n))


def fix_relaxation(monkeypatch, omega):
    """psor_solve relaxes at `omega` in place of the factor its rule picks."""
    monkeypatch.setattr(obstacle, "_relaxation", lambda q: omega)


def test_nonpositive_datum_gives_exact_zero():
    g = GridSpec(4.0, 32)
    q = -np.ones((32, 32))
    q[8:16, 8:16] = 0.0
    vi = psor_solve(ObstacleData(ScalarField(g, q)))
    assert vi.w.values.tobytes() == np.zeros((32, 32)).tobytes()
    assert vi.iterations == 1
    assert not vi.noncoincidence_mask.any()


def test_not_converged_signalled(monkeypatch):
    # this datum takes 74 sweeps; a budget of 1 * n = 48 runs out first
    g = GridSpec(4.0, 48)
    q = disk_field(g, inside=0.5, outside=-1.0, radius=1.0)
    monkeypatch.setattr(obstacle, "SWEEPS_PER_SIDE", 1)
    with pytest.raises(NotConverged, match="48 sweeps"):
        psor_solve(ObstacleData(q))


def test_psor_invariants_on_disk_datum():
    g = GridSpec(4.0, 64)
    q = disk_field(g, inside=0.5, outside=-1.0, radius=1.0)
    vi = psor_solve(ObstacleData(q))
    assert np.min(vi.w.values) >= 0.0
    assert vi.residuals.complementarity_max <= 1e-10
    assert vi.residuals.feasibility_min >= -1e-10
    assert vi.residuals.inactive_residual_max <= 1e-9
    mask = vi.noncoincidence_mask
    assert np.array_equal(mask, vi.w.values > vi.mask_tol)


def test_psor_matches_radial_oracle():
    for n, q_core in ((64, 0.5), (96, 0.3)):
        g = GridSpec(4.0, n)
        q = disk_field(g, inside=q_core, outside=-1.0, radius=1.0)
        vi = psor_solve(ObstacleData(q))
        prof = radial_obstacle_oracle(
            lambda r, c=q_core: c if r < 1.0 else -1.0, 4.0, 2000
        )
        x, y = g.meshgrid()
        w_ref = prof(np.sqrt(x * x + y * y))
        assert np.max(np.abs(vi.w.values - w_ref)) <= 5 * g.spacing


def test_unconstrained_region_linearity():
    # nonnegative datum keeps the constraint inactive, so projected SOR
    # must return the plain Poisson solution (computed here by CG on the
    # same five-point kernel)
    from bean_limit.fields import neighbor_sum
    from bean_limit.pme import pcg

    g = GridSpec(4.0, 64)
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
    assert np.min(w_cg) >= 0.0
    assert np.max(np.abs(vi.w.values - w_cg)) <= 1e-9


def test_lcp_solution_monotone_in_datum():
    g = GridSpec(4.0, 48)
    q1 = bump_field(g, BumpSpec(height=0.4, radius=1.5))
    q2 = ScalarField(g, q1.values + 0.2 * bump_field(g, BumpSpec(height=1.0, radius=1.0)).values)
    w1 = psor_solve(ObstacleData(ScalarField(g, q1.values - 1.0)))
    w2 = psor_solve(ObstacleData(ScalarField(g, q2.values - 1.0)))
    assert np.max(w1.w.values - w2.w.values) <= 1e-9


def red_black_reference(q, h, omega, sweeps):
    """Projected SOR written per cell: the red cells (i + j even), then the black."""
    n = q.shape[0]
    h2 = h * h
    w = np.zeros((n, n))
    for _ in range(sweeps):
        for colour in (0, 1):
            for j in range(1, n - 1):
                for i in range(1, n - 1):
                    if (i + j) % 2 == colour:
                        nb = w[j, i - 1] + w[j, i + 1] + w[j - 1, i] + w[j + 1, i]
                        target = 0.25 * (nb + h2 * q[j, i])
                        w[j, i] = max(0.0, w[j, i] + omega * (target - w[j, i]))
    return w


@pytest.mark.parametrize("n", [10, 13])
@pytest.mark.parametrize("omega", [1.0, 1.7])
def test_psor_is_a_per_cell_red_black_loop_bit_for_bit(monkeypatch, n, omega):
    fix_relaxation(monkeypatch, omega)
    g = GridSpec(1.0, n)
    q = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
    vi = psor_solve(ObstacleData(ScalarField(g, q)))
    assert vi.noncoincidence_mask.any() and not vi.noncoincidence_mask.all()
    want = red_black_reference(q, g.spacing, omega, vi.iterations)
    assert vi.w.values.tobytes() == want.tobytes()


def assert_same_solution(q):
    """psor_solve and the strided-slice oracle at psor_solve's factor agree
    bit for bit."""
    data = ObstacleData(q)
    vi, want = psor_solve(data), strided_psor_solve(data, obstacle._relaxation(q.values))
    assert vi.w.values.tobytes() == want.w.values.tobytes()
    assert vi.iterations == want.iterations
    assert vi.noncoincidence_mask.tobytes() == want.noncoincidence_mask.tobytes()
    assert (vi.residuals, vi.mask_tol) == (want.residuals, want.mask_tol)
    return vi


@pytest.mark.parametrize("n", [32, 33, 48, 97])
@pytest.mark.parametrize("omega", [None, 1.0, 1.9])
def test_psor_planes_match_the_strided_sweep_bit_for_bit(monkeypatch, n, omega):
    # the collapse shape: a bump of height 1.15 minus 1, a plateau where
    # w > 0 surrounded by coincidence cells; odd n has off-grid plane slots
    if omega is not None:
        fix_relaxation(monkeypatch, omega)
    g = GridSpec(2.0, n)
    q = ScalarField(g, bump_values(g, BumpSpec(height=1.15, radius=1.0)) - 1.0)
    vi = assert_same_solution(q)
    assert vi.noncoincidence_mask.any() and not vi.noncoincidence_mask.all()


def test_psor_planes_keep_a_zero_datum_at_plus_zero():
    g = GridSpec(1.0, 16)
    vi = assert_same_solution(ScalarField.zeros(g))
    assert vi.w.values.tobytes() == np.zeros((16, 16)).tobytes()


@pytest.mark.parametrize("n", [16, 17])
def test_psor_planes_match_on_a_datum_positive_next_to_the_ring(n):
    # every interior cell is noncoincident, so the cells next to the ring
    # read the pinned ring in every sweep
    g = GridSpec(1.0, n)
    q = ScalarField(g, 1.0 + np.random.default_rng(n).uniform(0.0, 1.0, (n, n)))
    vi = assert_same_solution(q)
    w = vi.w.values
    assert np.all(w[1:-1, 1:-1] > 0.0)
    ring = np.concatenate([w[0], w[-1], w[:, 0], w[:, -1]])
    assert ring.tobytes() == np.zeros(4 * n).tobytes()


def test_psor_planes_and_strided_sweep_share_the_sweep_budget(monkeypatch):
    # at the whole-box factor this datum needs more than 1 * n sweeps
    monkeypatch.setattr(obstacle, "SWEEPS_PER_SIDE", 1)
    fix_relaxation(monkeypatch, auto_omega(33))
    g = GridSpec(2.0, 33)
    data = ObstacleData(ScalarField(g, bump_values(g, BumpSpec(height=1.15, radius=1.0)) - 1.0))
    for solve in (psor_solve, strided_psor_solve):
        with pytest.raises(NotConverged, match="in 33 sweeps"):
            solve(data)


# -- relaxation rule -------------------------------------------------------------


def one_positive_cell(n):
    """q = -0.01 but for a single cell of 5 at the center: {q > 0} is one
    cell, while the mass balance allows a plateau of about 500."""
    q = np.full((n, n), -0.01)
    q[n // 2, n // 2] = 5.0
    return ScalarField(GridSpec(4.0, n), q)


def test_relaxation_rule_beats_the_retired_factor_on_the_obstacle_config():
    # configs/obstacle.cfg took 227 sweeps at the fixed factor 1.9 it set
    cfg = RunConfig.parse(Path(__file__).resolve().parents[1] / "configs" / "obstacle.cfg").entries
    g = GridSpec(cfg["grid.L"], cfg["grid.n"])
    q = disk_field(g, inside=cfg["q.inside"], outside=cfg["q.outside"], radius=cfg["q.radius"])
    assert psor_solve(ObstacleData(q)).iterations < 227


@pytest.mark.parametrize("n", [64, 96])
def test_relaxation_rule_is_no_slower_than_the_whole_box_factor_on_one_positive_cell(n):
    data = ObstacleData(one_positive_cell(n))
    vi, whole_box = psor_solve(data), strided_psor_solve(data)
    assert vi.iterations <= whole_box.iterations
    assert np.array_equal(vi.noncoincidence_mask, whole_box.noncoincidence_mask)


def test_relaxation_factor_is_invariant_under_scaling_the_datum():
    g = GridSpec(4.0, 48)
    for q in (
        disk_field(g, inside=0.5, outside=-1.0, radius=1.0).values,
        bump_values(g, BumpSpec(height=1.15, radius=1.0)) - 1.0,
        one_positive_cell(48).values,
        np.random.default_rng(3).uniform(-1.0, 1.0, (48, 48)),
    ):
        assert obstacle._relaxation(3.0 * q) == obstacle._relaxation(q)


BENCH_DATA = {
    # the sweep-m limit of the mesa-sweep bench run: f + T g - 1 at n = 48
    "mesa-sweep": (GridSpec(4.0, 48), lambda g: bump_values(g, BumpSpec(0.55, 1.5))
                   + 1.0 * bump_values(g, BumpSpec(0.7, 1.7)) - 1.0),
    # the collapse limit of the collapse bench run and its mass-check grid
    "collapse": (GridSpec(2.0, 32), lambda g: bump_values(g, BumpSpec(1.15, 1.4)) - 1.0),
    "collapse-mass": (GridSpec(2.0, 96), lambda g: bump_values(g, BumpSpec(1.15, 1.4)) - 1.0),
}


@pytest.mark.parametrize("name", BENCH_DATA)
def test_relaxation_rule_keeps_the_whole_box_factor_solution_on_the_bench_data(name):
    g, datum = BENCH_DATA[name]
    data = ObstacleData(ScalarField(g, datum(g)))
    vi, whole_box = psor_solve(data), strided_psor_solve(data)
    assert vi.noncoincidence_mask.any()
    assert np.array_equal(vi.noncoincidence_mask, whole_box.noncoincidence_mask)
    assert np.max(np.abs(vi.w.values - whole_box.w.values)) <= 1e-9


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(16, 32),
    height=st.floats(0.2, 2.0),
    radius=st.floats(0.5, 1.5),
    extra=st.floats(0.0, 1.0),
    center=st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
)
def test_psor_properties_on_random_bump_data(n, height, radius, extra, center):
    g = GridSpec(2.0, n)
    q1 = bump_values(g, BumpSpec(height, radius)) - 1.0
    q2 = q1 + bump_values(g, BumpSpec(extra, radius, center))
    sols = [psor_solve(ObstacleData(ScalarField(g, q))) for q in (q1, q2)]
    for vi, q in zip(sols, (q1, q2)):
        w = vi.w.values
        assert np.min(w) >= 0.0
        r = (-lap5_values(w, g.spacing) - q)[1:-1, 1:-1]
        wi = w[1:-1, 1:-1]
        assert np.min(r) >= -FEASIBILITY_TOL
        assert np.max(np.abs(wi * r)) <= COMPLEMENTARITY_TOL
        inactive = wi > vi.mask_tol
        assert not inactive.any() or np.max(np.abs(r[inactive])) <= INACTIVE_RESIDUAL_TOL
        mask = vi.noncoincidence_mask
        assert not (mask[0].any() or mask[-1].any() or mask[:, 0].any() or mask[:, -1].any())
        assert np.array_equal(mask[1:-1, 1:-1], inactive)
    assert np.max(sols[0].w.values - sols[1].w.values) <= 1e-9


# -- radial oracle ---------------------------------------------------------------


def test_oracle_trivial_and_positive_cases():
    prof = radial_obstacle_oracle(lambda r: -1.0, 3.0, 1000)
    assert np.all(prof.w == 0.0)
    prof2 = radial_obstacle_oracle(lambda r: 0.4 if r < 0.8 else -1.0, 4.0, 1500)
    assert prof2.w[0] > 0.0
    assert prof2.w[-1] == 0.0
    # coincidence where the datum is strongly negative
    far = prof2.r > 3.0
    assert np.all(prof2.w[far] == 0.0)


def test_oracle_requires_fine_mesh():
    with pytest.raises(ValueError):
        radial_obstacle_oracle(lambda r: -1.0, 1.0, 100)


def test_oracle_self_convergence():
    def q(r):
        return 0.5 if r < 1.0 else -1.0

    a = radial_obstacle_oracle(q, 4.0, 1500)
    b = radial_obstacle_oracle(q, 4.0, 3000)
    sample = np.linspace(0.0, 4.0, 200)
    assert np.max(np.abs(a(sample) - b(sample))) <= 5.0 / 1500


# -- limit profiles ----------------------------------------------------------------


def test_mesa_small_data_is_identity():
    g = GridSpec(4.0, 48)
    f = bump_field(g, BumpSpec(height=0.4, radius=1.5))
    G = ScalarField(g, 0.3 * f.values)
    u, mask, _ = mesa_profile(f, G)
    assert not mask.any()
    assert np.allclose(u.values, f.values + G.values)


def test_mesa_plateau_contains_saturated_ball():
    g = GridSpec(4.0, 64)
    f = flat_top_field(g, BumpSpec(height=1.4, radius=1.5), cap=1.0)
    gsrc = bump_field(g, BumpSpec(height=0.3, radius=1.5))
    G = ScalarField(g, 0.5 * gsrc.values)
    u, mask, _ = mesa_profile(f, G)
    ball = f.values >= 1.0 - 1e-12
    assert np.all(u.values[ball] == pytest.approx(1.0, abs=1e-12))
    assert np.max(u.values) <= 1.0 + 1e-12
    assert np.min(u.values) >= 0.0


def test_mesa_rejects_supercritical_datum():
    g = GridSpec(4.0, 48)
    f = bump_field(g, BumpSpec(height=1.5, radius=1.5))
    with pytest.raises(DomainError):
        mesa_profile(f, ScalarField.zeros(g))


def test_mesa_mask_monotone_in_time():
    g = GridSpec(4.0, 64)
    f = bump_field(g, BumpSpec(height=0.55, radius=1.5))
    gsrc = bump_field(g, BumpSpec(height=0.7, radius=1.7))
    masks = []
    for t in (0.6, 1.0):
        G = ScalarField(g, t * gsrc.values)
        _, mask, _ = mesa_profile(f, G)
        masks.append(mask)
    grown = masks[1].copy()
    # one-cell dilation allowance
    grown[1:, :] |= masks[1][:-1, :]
    grown[:-1, :] |= masks[1][1:, :]
    grown[:, 1:] |= masks[1][:, :-1]
    grown[:, :-1] |= masks[1][:, 1:]
    assert not (masks[0] & ~grown).any()


def test_collapse_subcritical_is_identity():
    g = GridSpec(4.0, 48)
    f = bump_field(g, BumpSpec(height=0.8, radius=1.5))
    v, mask, _ = collapse_profile(f)
    assert not mask.any()
    assert np.allclose(v.values, f.values)


def test_collapse_supercritical_profile():
    g = GridSpec(2.0, 96)
    f = bump_field(g, BumpSpec(height=1.5, radius=1.4))
    v, mask, _ = collapse_profile(f)
    assert np.max(v.values) <= 1.0 + 1e-12
    saturated = f.values >= 1.0
    assert np.all(mask[saturated])
    assert np.all(v.values[mask] == 1.0)


def test_collapse_mass_defect_shrinks_under_refinement():
    defects = []
    for n in (64, 128):
        g = GridSpec(2.0, n)
        f = bump_field(g, BumpSpec(height=1.5, radius=1.4))
        v, _, _ = collapse_profile(f)
        h2 = g.spacing ** 2
        mf = h2 * np.sum(f.values)
        defects.append(abs(h2 * np.sum(v.values) - mf) / mf)
    assert defects[1] < defects[0] / 1.4
