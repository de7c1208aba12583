import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bean_limit import cli, experiments, pme
from bean_limit.curl2d import (
    BLOWUP_LIMIT,
    BlowUp,
    CurlConfig,
    CurlProblem,
    StepTooSmall,
    curl_solve,
    vi_residual,
    _cfl_dt,
    _StepKernel,
    _window,
)
from bean_limit.datagen import (
    BumpSpec,
    Pcg64,
    StreamSpec,
    bump_field,
    field_from_stream,
    random_admissible_field,
)
from bean_limit.errors import DomainError
from bean_limit.fields import (
    GhostRows,
    GridSpec,
    PowerLaw,
    ScalarField,
    VectorField2,
    abs_pow,
    curl_z,
    ddx_values,
    ddy_values,
    divergence,
    from_stream,
)


def default_h0(g, curl_max=0.8):
    return field_from_stream(g, StreamSpec(width=0.5 * g.half_width, curl_max=curl_max))


def psi_prime(w, m):
    """m |w|^(m-1) in numpy-scalar arithmetic, the reference for _cfl_dt."""
    return float(m * np.abs(np.float64(w)) ** (m - 1.0))


def cfl_dt(H, p, cfl_safety):
    """cfl_safety * h^2 / (8 max psi'_{p-1}(w)), the explicit step bound at H."""
    wmax = float(np.max(np.abs(curl_z(H).values)))
    return cfl_safety * H.grid.spacing ** 2 / (8.0 * psi_prime(wmax, p - 1.0) + 1e-30)


def one_step(prob):
    """The state after curl_solve's single step to the problem's horizon."""
    sol = curl_solve(prob, CurlConfig())
    assert sol.diagnostics.times == [0.0, prob.horizon]
    return sol.snapshots[-1][1]


def test_zero_data_static():
    g = GridSpec(4.0, 32)
    H0 = VectorField2(ScalarField.zeros(g), ScalarField.zeros(g))
    prob = CurlProblem(grid=g, p=4.0, H0=H0, forcing=None, horizon=0.2)
    sol = curl_solve(prob, CurlConfig())
    _, H, omega = sol.snapshots[-1]
    assert np.all(H.comp1.values == 0.0)
    assert np.all(omega.values == 0.0)


def test_problem_validation():
    g = GridSpec(4.0, 32)
    x, _ = g.meshgrid()
    bad = VectorField2(ScalarField(g, x), ScalarField.zeros(g))  # div = 1
    with pytest.raises(ValueError):
        CurlProblem(grid=g, p=4.0, H0=bad, forcing=None, horizon=0.2)
    with pytest.raises(ValueError):
        CurlProblem(grid=g, p=1.5, H0=default_h0(g), forcing=None, horizon=0.2)


def test_guard_for_large_p_supercritical_start():
    g = GridSpec(4.0, 32)
    H0 = default_h0(g, curl_max=1.2)
    prob = CurlProblem(grid=g, p=16.0, H0=H0, forcing=None, horizon=0.1)
    with pytest.raises(DomainError):
        curl_solve(prob, CurlConfig())


def test_blowup_guard():
    g = GridSpec(4.0, 32)
    H0 = default_h0(g, curl_max=11.0)
    prob = CurlProblem(grid=g, p=3.0, H0=H0, forcing=None, horizon=0.1)
    with pytest.raises(BlowUp) as info:
        curl_solve(prob, CurlConfig())
    assert info.value.t == 0.0


def test_single_step_divergence_exact():
    g = GridSpec(4.0, 48)
    H0 = default_h0(g)
    dt = 0.5 * cfl_dt(H0, 4.0, 1.0)
    H1 = one_step(CurlProblem(grid=g, p=4.0, H0=H0, forcing=None, horizon=dt))
    assert np.max(np.abs(divergence(H1).values)) <= 1e-12


def test_energy_identity_per_step():
    g = GridSpec(4.0, 48)
    H0 = default_h0(g)
    p = 4.0
    omega = curl_z(H0).values
    dt = 0.25 * cfl_dt(H0, p, 1.0)
    H1 = one_step(CurlProblem(grid=g, p=p, H0=H0, forcing=None, horizon=dt))
    h2 = g.spacing ** 2
    e0 = h2 * np.sum(H0.comp1.values ** 2 + H0.comp2.values ** 2)
    e1 = h2 * np.sum(H1.comp1.values ** 2 + H1.comp2.values ** 2)
    lhs = (e1 - e0) / (2 * dt)
    rhs = -h2 * np.sum(np.abs(omega) ** p)
    assert abs(lhs - rhs) <= 20.0 * dt  # forward-Euler injection is O(dt)


def test_divergence_drift_over_run():
    g = GridSpec(4.0, 48)
    H0 = default_h0(g)
    F = field_from_stream(g, StreamSpec(width=1.8, curl_max=2.0))
    prob = CurlProblem(grid=g, p=6.0, H0=H0, forcing=F, horizon=0.2)
    sol = curl_solve(prob, CurlConfig(snapshot_times=(0.1,)))
    assert sol.diagnostics.div_drift_max <= 1e-10


def test_odd_symmetry_exact():
    g = GridSpec(4.0, 32)
    x, y = g.meshgrid()
    phi = ScalarField(g, 0.4 * np.clip(1 - (x ** 2 + y ** 2) / 4.0, 0, None) ** 4)
    H0 = from_stream(phi)
    Hm = from_stream(ScalarField(g, -phi.values))
    for H, sgn in ((H0, 1.0), (Hm, -1.0)):
        prob = CurlProblem(grid=g, p=4.0, H0=H, forcing=None, horizon=0.05)
        sol = curl_solve(prob, CurlConfig())
        if sgn > 0:
            ref = sol.snapshots[-1][1]
        else:
            neg = sol.snapshots[-1][1]
    assert np.array_equal(ref.comp1.values, -neg.comp1.values)
    assert np.array_equal(ref.comp2.values, -neg.comp2.values)


def test_energy_budget_holds():
    g = GridSpec(4.0, 48)
    H0 = default_h0(g)
    F = field_from_stream(g, StreamSpec(width=2.0, curl_max=3.0))
    prob = CurlProblem(grid=g, p=4.0, H0=H0, forcing=F, horizon=0.3)
    sol = curl_solve(prob, CurlConfig())
    assert 0.0 < sol.diagnostics.energy_ratio <= 1.05


def test_vi_residual_trivial_cases():
    g = GridSpec(4.0, 48)
    H0 = default_h0(g)
    prob = CurlProblem(grid=g, p=4.0, H0=H0, forcing=None, horizon=0.2)
    sol = curl_solve(prob, CurlConfig(snapshot_times=(0.1,)))
    H_final = sol.snapshots[-1][1]
    series = vi_residual(sol, H_final)
    assert series[-1][1] == pytest.approx(0.0, abs=1e-15)
    assert series[-1][2] == 0.0

    V0 = VectorField2(ScalarField.zeros(g), ScalarField.zeros(g))
    series0 = vi_residual(sol, V0)
    # direct unwinding: r = -h^2 sum (F - H_t) . H
    h2 = g.spacing ** 2
    snaps = sol.snapshots
    for (t, r, vh), ((tp, Hp, _), (tn, Hn, _)) in zip(series0, zip(snaps, snaps[1:])):
        dt = tn - tp
        ht1 = (Hn.comp1.values - Hp.comp1.values) / dt
        ht2 = (Hn.comp2.values - Hp.comp2.values) / dt
        expect = h2 * np.sum(ht1 * Hn.comp1.values + ht2 * Hn.comp2.values)
        assert r == pytest.approx(expect, rel=1e-12, abs=1e-15)
        norm = np.sqrt(h2 * np.sum(Hn.comp1.values ** 2 + Hn.comp2.values ** 2))
        assert vh == pytest.approx(norm, rel=1e-12)


def test_vi_residual_rejects_inadmissible_fields():
    g = GridSpec(4.0, 48)
    H0 = default_h0(g)
    prob = CurlProblem(grid=g, p=4.0, H0=H0, forcing=None, horizon=0.1)
    sol = curl_solve(prob, CurlConfig())
    V_bad = field_from_stream(g, StreamSpec(width=2.0, curl_max=1.5))
    with pytest.raises(DomainError):
        vi_residual(sol, V_bad)
    x, _ = g.meshgrid()
    V_div = VectorField2(ScalarField(g, 0.01 * x), ScalarField.zeros(g))
    with pytest.raises(DomainError):
        vi_residual(sol, V_div)


def test_random_admissible_fields_are_admissible():
    g = GridSpec(4.0, 48)
    rng = np.random.default_rng(42)
    for _ in range(5):
        V = random_admissible_field(g, rng)
        assert np.max(np.abs(curl_z(V).values)) <= 1.0 + 1e-9
        assert np.max(np.abs(divergence(V).values)) <= 1e-10


@pytest.mark.parametrize("seeds", [range(300), [2**32, 2**32 + 7, 2**64 + 3, 2**130 + 11]])
def test_pcg64_stream_is_default_rng_bit_for_bit(seeds):
    # seeds above 2**32 hash several 32-bit words, above 2**128 more than the pool's four
    for seed in seeds:
        ours, numpys = Pcg64(seed), np.random.default_rng(seed)
        for low, high in [(-1.6, 1.6), (1.0, 2.0), (-1.0, 1.0), (0.0, 1e-300)] * 3:
            a, b = ours.uniform(low, high), numpys.uniform(low, high)
            assert type(a) is type(b) is float and a.hex() == b.hex(), (seed, low, high)


def test_pcg64_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        Pcg64(-1)


def test_random_admissible_field_is_the_same_from_either_stream():
    g = GridSpec(4.0, 32)
    for seed in (0, 7, 2**40):
        ours, numpys = Pcg64(seed), np.random.default_rng(seed)
        for _ in range(4):
            V, W = random_admissible_field(g, ours), random_admissible_field(g, numpys)
            assert np.array_equal(V.comp1.values, W.comp1.values)
            assert np.array_equal(V.comp2.values, W.comp2.values)


# -- one step kernel: curl_solve against a stepped reference ---------------------


def reference_step(H, dt, prob):
    """H + (F - (d(Phi)/dy, -d(Phi)/dx)) dt, Phi = psi_{p-1}(curl_z(H)), in the
    order of operations of curl2d._StepKernel.step; F = 0 without forcing."""
    h = H.grid.spacing
    omega = curl_z(H).values
    phi = np.copysign(abs_pow(omega, prob.p - 1.0), omega)
    F = prob.forcing
    f1, f2 = (F.comp1.values, F.comp2.values) if F is not None else (0.0, 0.0)
    h1 = H.comp1.values + (f1 - ddy_values(phi, h)) * dt
    h2 = H.comp2.values + (f2 + ddx_values(phi, h)) * dt
    return VectorField2(ScalarField(H.grid, h1), ScalarField(H.grid, h2))


def stepped_reference(prob, config):
    """curl_solve's time loop written with field operations and reference_step."""
    g = prob.grid
    h2 = g.spacing ** 2
    eps_t = 1e-12 * max(1.0, prob.horizon)
    targets = sorted({0.0, prob.horizon, *config.snapshot_times})
    H, t = prob.H0, 0.0
    series = {k: [] for k in ("times", "l2_H", "div_drift", "dissipation_cum", "forcing_l2_cum")}
    diss = fl2 = 0.0

    def record(t_now):
        series["times"].append(t_now)
        series["l2_H"].append(float(np.sqrt(h2 * np.sum(H.comp1.values ** 2 + H.comp2.values ** 2))))
        series["div_drift"].append(float(np.max(np.abs(divergence(H).values))))
        series["dissipation_cum"].append(diss)
        series["forcing_l2_cum"].append(fl2)

    F = prob.forcing
    f_sq = 0.0 if F is None else float(h2 * np.sum(F.comp1.values ** 2 + F.comp2.values ** 2))
    record(0.0)
    snaps = [H]
    for target in targets[1:]:
        while t < target - eps_t:
            omega = curl_z(H).values
            dt = min(cfl_dt(H, prob.p, config.cfl_safety), target - t)
            H = reference_step(H, dt, prob)
            diss += dt * (h2 * float(np.sum(np.abs(omega) ** prob.p)))
            fl2 += dt * f_sq
            t = target if target - (t + dt) <= eps_t else t + dt
            record(t)
        snaps.append(H)
    return snaps, series


def test_window_is_the_padded_square_around_the_live_cells():
    live = np.zeros((40, 40), dtype=bool)
    whole = (slice(0, 40), slice(0, 40))
    assert _window(live) == whole  # nothing live
    live[20, 12] = True  # one cell, 5 of pad on each side
    assert _window(live) == (slice(15, 26), slice(7, 18))
    live[20, 12:30] = True  # the rows widen about their middle to the 28 columns
    assert _window(live) == (slice(7, 35), slice(7, 35))
    live[:] = False
    live[5, [10, 30]] = True  # widened rows reach past row 0, so they shift down
    assert _window(live) == (slice(0, 31), slice(5, 36))
    live[4, 30] = True  # the padded rows reach past the grid
    assert _window(live) == whole
    live[:] = False
    live[5:35, 20] = True  # the padded box is as tall as the grid
    assert _window(live) == whole


def windowed_solve(prob, config):
    """curl_solve's solution, the windows its kernel placed, in order, and
    the window it held at each time it made a snapshot."""
    places, at = [], {}
    place, snapshot = _StepKernel.place, _StepKernel.snapshot

    def recording_place(self, H):
        place(self, H)
        places.append(self.win)

    def recording_snapshot(self):
        at[self.diag.times[-1]] = self.win  # a regrow's snapshot comes first
        return snapshot(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_StepKernel, "place", recording_place)
        mp.setattr(_StepKernel, "snapshot", recording_snapshot)
        sol = curl_solve(prob, config)
    return sol, places, at


def assert_matches_stepped_reference(prob, config):
    """curl_solve gives the stepped reference's snapshots, times and
    div_drift_max bit for bit, and its energy_ratio to rel 1e-13; every
    snapshot holds +0 outside the window.  Returns the solution, the
    windows placed and the reference's series."""
    sol, places, at = windowed_solve(prob, config)
    snaps, series = stepped_reference(prob, config)
    n = prob.grid.n
    for (t, H, omega), ref in zip(sol.snapshots, snaps, strict=True):
        for got, want in ((H.comp1, ref.comp1), (H.comp2, ref.comp2), (omega, curl_z(ref))):
            assert got.values.tobytes() == want.values.tobytes(), t
        outside = np.ones((n, n), dtype=bool)
        outside[at[t]] = False
        for got in (omega,) if t == 0.0 else (H.comp1, H.comp2, omega):  # H0 keeps its -0
            assert not np.any(got.values.view(np.uint64)[outside]), t
    d = sol.diagnostics
    assert d.times == series["times"]
    assert d.div_drift_max == max(series["div_drift"])
    # the kernel forms the dissipation's |w|^p as |w|^(p-1) * |w|, one
    # rounding away from pow, and sums |w|^p and |H|^2 over the padded runs
    # of its window, in another pairwise grouping than a sum over the grid
    e0 = series["l2_H"][0] ** 2
    ratio = max((l2h ** 2 + 2.0 * diss) / ((e0 + fl2) * math.exp(t))
                for t, l2h, diss, fl2 in zip(series["times"], series["l2_H"],
                                             series["dissipation_cum"], series["forcing_l2_cum"]))
    assert d.energy_ratio == pytest.approx(ratio, rel=1e-13, abs=0.0)
    return sol, places, series


def test_curl_solve_matches_the_stepped_reference_bit_for_bit():
    g = GridSpec(4.0, 24)
    H0 = default_h0(g, curl_max=0.9)
    F = field_from_stream(g, StreamSpec(width=2.0, curl_max=20.0))
    prob = CurlProblem(grid=g, p=8.0, H0=H0, forcing=F, horizon=0.05)
    config = CurlConfig(snapshot_times=(0.02,))
    sol, _, series = assert_matches_stepped_reference(prob, config)
    assert len(series["times"]) > 20
    assert [t for t, *_ in sol.snapshots] == [0.0, 0.02, 0.05]


def test_a_window_that_must_regrow_matches_the_stepped_reference():
    # sweep_p.cfg's data at p = 4 on a coarser grid: the curl spreads to the
    # window's frame, and the window grows to the whole grid
    g = GridSpec(4.0, 32)
    H0 = default_h0(g, curl_max=0.9)
    F = field_from_stream(g, StreamSpec(width=2.0, curl_max=20.0))
    prob = CurlProblem(grid=g, p=4.0, H0=H0, forcing=F, horizon=0.3)
    _, places, _ = assert_matches_stepped_reference(prob, CurlConfig(snapshot_times=(0.1, 0.2)))
    sides = [w[0].stop - w[0].start for w in places]
    assert len(places) >= 2 and sides[0] < g.n and sides[-1] == g.n, places


@pytest.mark.parametrize("turns", range(4))
def test_a_window_regrows_from_each_side_of_its_frame(turns):
    # a stream bump beside one 1e40 times weaker, whose curl underflows
    # pow_into's floor before it reaches the frame: the strong one's curl
    # reaches one side of the frame first, the top, bottom, left or right
    # one as the data turn, and a frame test that missed it would lose the
    # flux that leaves the window
    g = GridSpec(4.0, 40)
    x, y = g.meshgrid()
    phi = sum(a * np.clip(1.0 - ((x - cx) ** 2 + y ** 2), 0.0, None) ** 4
              for a, cx in ((1.0, 1.2), (1e-40, -1.2)))
    phi = np.rot90(phi, turns)
    peak = float(np.max(np.abs(curl_z(from_stream(ScalarField(g, phi))).values)))
    H0 = from_stream(ScalarField(g, phi * (0.9 / peak)))
    prob = CurlProblem(grid=g, p=4.0, H0=H0, forcing=None, horizon=0.05)
    _, places, _ = assert_matches_stepped_reference(prob, CurlConfig(snapshot_times=(0.01,)))
    assert places[0] == (slice(3, 37), slice(3, 37)) and len(places) == 2


def test_data_on_the_edge_ring_make_the_window_the_whole_grid():
    # a subnormal in each corner of H0, inside every tolerance of CurlProblem
    g = GridSpec(4.0, 24)
    H0 = default_h0(g, curl_max=0.9)
    h1 = H0.comp1.values.copy()
    h1[[0, 0, -1, -1], [0, -1, 0, -1]] = 5e-324
    H0 = VectorField2(ScalarField(g, h1), H0.comp2)
    F = field_from_stream(g, StreamSpec(width=2.0, curl_max=20.0))
    prob = CurlProblem(grid=g, p=8.0, H0=H0, forcing=F, horizon=0.02)
    _, places, _ = assert_matches_stepped_reference(prob, CurlConfig(snapshot_times=(0.01,)))
    assert places == [(slice(0, g.n), slice(0, g.n))]


def test_curl_solve_raises_blowup_mid_run():
    g = GridSpec(4.0, 24)
    F = field_from_stream(g, StreamSpec(width=2.0, curl_max=400.0))
    prob = CurlProblem(grid=g, p=3.0, H0=default_h0(g), forcing=F, horizon=1.0)
    with pytest.raises(BlowUp) as info:
        curl_solve(prob, CurlConfig())
    assert 0.0 < info.value.t < 1.0


def test_curl_solve_raises_blowup_on_the_final_state():
    # the run above, stopped at the time it blew up: its last step lifts
    # max |curl| past the guard, and there is no next step to see it
    g = GridSpec(4.0, 24)
    F = field_from_stream(g, StreamSpec(width=2.0, curl_max=400.0))

    def solve(horizon):
        prob = CurlProblem(grid=g, p=3.0, H0=default_h0(g), forcing=F, horizon=horizon)
        return curl_solve(prob, CurlConfig())

    with pytest.raises(BlowUp) as info:
        solve(1.0)
    t_blow = info.value.t
    with pytest.raises(BlowUp) as info:
        solve(t_blow)
    assert info.value.t == t_blow


def test_a_nan_curl_raises_blowup():
    g = GridSpec(4.0, 16)
    H = np.zeros((2, 16, 16))
    H[0, 8, 8] = np.nan
    kernel = _StepKernel(g.n, g.spacing, 4.0, H, None)
    assert math.isnan(kernel.differentiate())
    with pytest.raises(BlowUp):
        kernel.check_blowup(0.0)

    H0 = default_h0(g)
    H = np.stack((H0.comp1.values, H0.comp2.values))
    kernel = _StepKernel(g.n, g.spacing, 4.0, H, None)
    assert kernel.differentiate() <= BLOWUP_LIMIT
    with pytest.raises(BlowUp) as info:
        kernel.step(math.nan, 0.5)  # a NaN dt makes every cell NaN
    assert info.value.t == 0.5


def test_problem_rejects_data_near_the_boundary():
    # the L/4 margin PmeProblem asks of u0 and g, here of curl H0 and of F
    g = GridSpec(4.0, 32)
    wide = field_from_stream(g, StreamSpec(width=3.5, curl_max=0.5))
    with pytest.raises(DomainError, match="curl of the initial field"):
        CurlProblem(grid=g, p=4.0, H0=wide, forcing=None, horizon=0.05)
    with pytest.raises(DomainError, match="forcing must vanish"):
        CurlProblem(grid=g, p=4.0, H0=default_h0(g), forcing=wide, horizon=0.05)
    CurlProblem(grid=g, p=4.0, H0=default_h0(g), forcing=default_h0(g), horizon=0.05)


def test_forcing_is_checked_when_the_problem_is_built():
    g = GridSpec(4.0, 24)
    bad = VectorField2(bump_field(g, BumpSpec(height=0.1, radius=1.0)), ScalarField.zeros(g))
    with pytest.raises(DomainError, match="not divergence free"):
        CurlProblem(grid=g, p=4.0, H0=default_h0(g), forcing=bad, horizon=0.05)
    other = GridSpec(4.0, 32)
    F = field_from_stream(other, StreamSpec(width=1.5, curl_max=0.5))
    with pytest.raises(ValueError, match="grid"):
        CurlProblem(grid=g, p=4.0, H0=default_h0(g), forcing=F, horizon=0.05)


def test_both_solvers_land_on_the_same_snapshot_times():
    g = GridSpec(4.0, 16)
    horizon = 0.3

    def curl_times(times):
        sol = curl_solve(
            CurlProblem(grid=g, p=4.0, H0=default_h0(g), forcing=None, horizon=horizon),
            CurlConfig(snapshot_times=times),
        )
        return [t for t, *_ in sol.snapshots]

    def pme_times(times):
        sol = pme.pme_solve(
            pme.PmeProblem(grid=g, law=PowerLaw(3.0), u0=ScalarField.zeros(g),
                           forcing=None, horizon=horizon),
            pme.PmeConfig(dt_init=0.05, snapshot_times=times),
        )
        return [t for t, _ in sol.snapshots]

    # 0.1 + 0.2 is not 0.3 in floating point, and a time just past the
    # horizon is the horizon
    awkward = (0.1, 0.2, horizon * (1 + 1e-13))
    assert curl_times(awkward) == pme_times(awkward) == [0.0, 0.1, 0.2, 0.3]
    for bad in (-0.1, 1.1 * horizon):
        for solve in (curl_times, pme_times):
            with pytest.raises(ValueError, match="outside"):
                solve((bad,))
    assert pme.StepTooSmall is StepTooSmall


def random_data_field(g, rng):
    """Random divergence-free data with max |curl| 0.9 whose curl and
    components vanish within L/4 of the boundary, as CurlProblem asks:
    three stream bumps of random sign, centred within 0.2 L, of width up
    to 0.3 L (random_admissible_field's bumps reach 0.9 L)."""
    L = g.half_width
    x, y = g.meshgrid()
    phi = np.zeros((g.n, g.n))
    for _ in range(3):
        cx, cy = rng.uniform(-0.2 * L, 0.2 * L, 2)
        r2 = ((x - cx) ** 2 + (y - cy) ** 2) / rng.uniform(0.15 * L, 0.3 * L) ** 2
        phi += rng.uniform(-1.0, 1.0) * np.clip(1.0 - r2, 0.0, None) ** 4
    peak = float(np.max(np.abs(curl_z(from_stream(ScalarField(g, phi))).values)))
    return from_stream(ScalarField(g, phi * (0.9 / peak)))


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(16, 32),
    p=st.sampled_from([3.0, 4.0, 8.0]),
    seed=st.integers(0, 2 ** 32 - 1),
    force=st.floats(0.0, 5.0),
)
def test_divergence_stays_at_roundoff_on_every_step(n, p, seed, force):
    g = GridSpec(4.0, n)
    rng = np.random.default_rng(seed)
    H0 = random_data_field(g, rng)
    V = random_data_field(g, rng)
    F = VectorField2(ScalarField(g, force * V.comp1.values), ScalarField(g, force * V.comp2.values))
    prob = CurlProblem(grid=g, p=p, H0=H0, forcing=F, horizon=0.02)
    sol = curl_solve(prob, CurlConfig(snapshot_times=(0.01,)))
    assert len(sol.diagnostics.times) >= 3
    assert sol.diagnostics.div_drift_max <= 1e-10


def off_centre_data_field(g, rng, origin):
    """random_data_field on an (n // 2)-cell grid of g's spacing, its cell
    (0, 0) placed at the cell `origin` of g: data off the middle of g."""
    m = g.n // 2
    small = random_data_field(GridSpec(g.half_width * m / g.n, m), rng)
    r, c = origin
    comps = []
    for part in (small.comp1, small.comp2):
        values = np.zeros((g.n, g.n))
        values[r:r + m, c:c + m] = part.values
        comps.append(ScalarField(g, values))
    return VectorField2(*comps)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(24, 33),
    p=st.sampled_from([3.0, 4.0, 8.0]),
    seed=st.integers(0, 2 ** 32 - 1),
    force=st.floats(0.0, 5.0),
    corner=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_curl_solve_on_off_centre_data_matches_the_stepped_reference(n, p, seed, force, corner):
    g = GridSpec(4.0, n)
    rng = np.random.default_rng(seed)
    # the small grid's data lie within its middle half and 2 cells, so
    # they keep g's L/4 margin for each origin from 4 to n - n // 2 - 4
    origin = tuple(4 + round((n - n // 2 - 8) * x) for x in corner)
    H0 = off_centre_data_field(g, rng, origin)
    V = off_centre_data_field(g, rng, origin)
    F = VectorField2(ScalarField(g, force * V.comp1.values), ScalarField(g, force * V.comp2.values))
    prob = CurlProblem(grid=g, p=p, H0=H0, forcing=F, horizon=0.05)
    _, places, series = assert_matches_stepped_reference(prob, CurlConfig(snapshot_times=(0.02,)))
    assert len(series["times"]) >= 3
    assert places[0][0].stop - places[0][0].start < n


def test_kernel_curl_and_divergence_match_curl_z_and_divergence_bit_for_bit():
    # the kernel differentiates on its own layout; after each step its
    # curl and its div_drift are those of curl_z and divergence
    g = GridSpec(4.0, 24)
    F = field_from_stream(g, StreamSpec(width=2.0, curl_max=20.0))
    H0 = default_h0(g, curl_max=0.9)
    H = np.stack((H0.comp1.values, H0.comp2.values))
    H[:, :2, :] = -0.0
    H[:, -3:, :4] = [5e-324, -5e-324, 0.0, -0.0]
    kernel = _StepKernel(g.n, g.spacing, 8.0, H, F)
    wmax = kernel.differentiate()
    kernel.record(0.0)
    drift = 0.0
    for k in range(6):
        field = VectorField2(ScalarField(g, kernel.H[0]), ScalarField(g, kernel.H[1]))
        want_w = curl_z(field).values
        assert np.array_equal(kernel.omega.view(np.uint64), want_w.view(np.uint64)), k
        assert wmax == np.max(np.abs(want_w))
        drift = max(drift, float(np.max(np.abs(divergence(field).values))))
        assert kernel.diag.div_drift_max == drift, k
        dt = _cfl_dt(wmax, 7.0, g.spacing ** 2, 0.9)
        wmax = kernel.step(dt, (k + 1) * dt)


@pytest.mark.parametrize("n, window", [
    pytest.param(24, False, id="24"), pytest.param(25, False, id="25"),
    pytest.param(24, True, id="window-24"), pytest.param(25, True, id="window-25"),
])
def test_kernel_padding_stays_plus_zero_and_steps_allocate_nothing(n, window):
    # the kernel's differences read ghosts and zero rows as +0 cells, so
    # after every step each of them must be +0 by bit pattern: in the
    # buffers of H, the increment, the forcing and the flux, and in the
    # ghosts of the curl, |curl| and the divergence
    g = GridSpec(4.0, n)
    F = field_from_stream(g, StreamSpec(width=2.0, curl_max=20.0))
    H0 = default_h0(g, curl_max=0.9)
    prob = CurlProblem(grid=g, p=8.0, H0=H0, forcing=F, horizon=0.01)
    assert np.any(np.signbit(H0.comp2.values) & (H0.comp2.values == 0.0))
    first = curl_solve(prob, CurlConfig()).snapshots[0][1]
    for got, want in ((first.comp1, H0.comp1), (first.comp2, H0.comp2)):
        assert got.values.tobytes() == want.values.tobytes()

    # random data, whose differences at the edges put junk in the ghosts;
    # for a window kernel, random data in a block off the middle of the grid
    rng = np.random.default_rng(n)
    H = 0.05 * rng.standard_normal((2, n, n))
    H[rng.random(H.shape) < 0.2] = -0.0
    F = 0.1 * rng.standard_normal((2, n, n))
    if window:
        block = np.zeros((n, n), dtype=bool)
        block[6:14, 9:15] = True
        H[:, ~block] = F[:, ~block] = 0.0
        H *= 0.2  # a curl small enough that the flux stays off the window's frame
    kernel = _StepKernel(n, g.spacing, 8.0, H, VectorField2(*(ScalarField(g, f) for f in F)))
    win = kernel.win
    s = win[0].stop - win[0].start
    assert (s < n and win[0].start > 0 and win[1].start > 0) == window, win
    pair, one = GhostRows(s, 2), GhostRows(s, 1)

    def pad_bits(view, layout):
        pad = np.ones(layout.size, dtype=bool)
        layout.fields(pad)[...] = False
        return view.base.view(np.uint64)[pad]

    kernel.differentiate()
    kernel.record(0.0)
    dt = 1e-3  # stable while max |curl| < 1
    for k in range(20):
        assert kernel.step(dt, (k + 1) * dt) < 1.0
        assert kernel.win == win, k
        for view, layout in ((kernel.H, pair), (kernel.incr, pair), (kernel.f1, pair),
                             (kernel.flux, one)):
            assert not np.any(pad_bits(view, layout)), k
        for run in (kernel.curl, kernel.wabs, kernel.div):
            assert not np.any(run[s::s + 1].view(np.uint64)), k
        outside = np.ones((n, n), dtype=bool)
        outside[win] = False
        assert not np.any(kernel.snapshot()[:, outside].view(np.uint64)), k

    tracemalloc.start()
    try:
        for k in range(20, 70):
            kernel.step(dt, (k + 1) * dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel.win == win
    assert peak < 8 * n * n


def test_cfl_dt_is_psi_primes_formula_bit_for_bit():
    # _cfl_dt works on Python floats; the dt it gives is the one the
    # numpy-scalar formula m |w|^(m-1) gives
    rng = np.random.default_rng(5)
    wmax = np.concatenate((
        [0.0, 5e-324, 2.2e-308, 1e-300, 1e-8, 0.5, 1.0, np.nextafter(1.0, 2.0), BLOWUP_LIMIT],
        rng.uniform(0.0, BLOWUP_LIMIT, 2000),
        10.0 ** rng.uniform(-30.0, 1.0, 2000),
    ))
    h2 = (8.0 / 48) ** 2
    for p in (2.5, 3.0, 4.0, 6.5, 8.0, 16.0, 32.0, 47.0, 64.0, 96.0):
        got = np.array([_cfl_dt(float(w), p - 1.0, h2, 0.9) for w in wmax])
        want = np.array([0.9 * h2 / (8.0 * psi_prime(w, p - 1.0) + 1e-30) for w in wmax])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), p


def test_cfl_dt_is_zero_where_the_power_overflows():
    # p is capped at 96 only by the config reader; past about p = 310 a
    # max |curl| under the guard can overflow wmax^(p-2), and the dt is 0,
    # as with the numpy-scalar formula, so a march stops with StepTooSmall
    h2 = (8.0 / 48) ** 2
    assert _cfl_dt(9.0, 399.0, h2, 0.9) == 0.0
    with np.errstate(over="ignore"):
        assert 0.9 * h2 / (8.0 * psi_prime(9.0, 399.0) + 1e-30) == 0.0

    # the first step lands on t = 0.1 with max |curl| near 8, and 8^398
    # overflows
    g = GridSpec(4.0, 24)
    F = field_from_stream(g, StreamSpec(width=2.0, curl_max=80.0))
    prob = CurlProblem(grid=g, p=400.0, H0=default_h0(g), forcing=F, horizon=0.2)
    with pytest.raises(StepTooSmall) as info:
        curl_solve(prob, CurlConfig(snapshot_times=(0.1,)))
    assert info.value.t == 0.1


def test_bench_saturation_step_count(tmp_path, monkeypatch):
    # the saturation-sweep bench run (sweep_p.cfg as written) takes a fixed
    # number of explicit steps at each p; a faster step must not come from
    # fewer steps
    steps = {}
    inner = experiments.curl_solve

    def counting_solve(problem, config):
        sol = inner(problem, config)
        steps[problem.p] = len(sol.diagnostics.times) - 1
        return sol

    monkeypatch.setattr(experiments, "curl_solve", counting_solve)
    cfg = Path(__file__).parents[1] / "configs" / "sweep_p.cfg"
    assert cli.run(["sweep-p", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert steps == {4.0: 633, 8.0: 2045, 16.0: 5036, 32.0: 11093}
