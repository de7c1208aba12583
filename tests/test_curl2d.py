import math
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
    f_sq = float(h2 * np.sum(F.comp1.values ** 2 + F.comp2.values ** 2))
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


def test_curl_solve_matches_the_stepped_reference_bit_for_bit():
    g = GridSpec(4.0, 24)
    H0 = default_h0(g, curl_max=0.9)
    F = field_from_stream(g, StreamSpec(width=2.0, curl_max=20.0))
    prob = CurlProblem(grid=g, p=8.0, H0=H0, forcing=F, horizon=0.05)
    config = CurlConfig(snapshot_times=(0.02,))
    sol = curl_solve(prob, config)
    snaps, series = stepped_reference(prob, config)

    assert len(series["times"]) > 20
    assert [t for t, *_ in sol.snapshots] == [0.0, 0.02, 0.05]
    for (_, H, omega), ref in zip(sol.snapshots, snaps, strict=True):
        for got, want in ((H.comp1, ref.comp1), (H.comp2, ref.comp2), (omega, curl_z(ref))):
            assert got.values.tobytes() == want.values.tobytes()
    d = sol.diagnostics
    assert d.times == series["times"]
    assert d.div_drift_max == max(series["div_drift"])
    # the kernel forms the dissipation's |w|^p as |w|^(p-1) * |w|, one
    # rounding away from pow
    e0 = series["l2_H"][0] ** 2
    ratio = max((l2h ** 2 + 2.0 * diss) / ((e0 + fl2) * math.exp(t))
                for t, l2h, diss, fl2 in zip(series["times"], series["l2_H"],
                                             series["dissipation_cum"], series["forcing_l2_cum"]))
    assert d.energy_ratio == pytest.approx(ratio, rel=1e-13, abs=0.0)


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
    kernel = _StepKernel(g, 4.0, H, None)
    assert math.isnan(kernel.differentiate())
    with pytest.raises(BlowUp):
        kernel.check_blowup(0.0)

    H0 = default_h0(g)
    H = np.stack((H0.comp1.values, H0.comp2.values))
    kernel = _StepKernel(g, 4.0, H, None)
    assert kernel.differentiate() <= BLOWUP_LIMIT
    with pytest.raises(BlowUp) as info:
        kernel.step(math.nan, 0.5)  # a NaN dt makes every cell NaN
    assert info.value.t == 0.5


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
    H0 = random_admissible_field(g, rng)
    V = random_admissible_field(g, rng)
    F = VectorField2(ScalarField(g, force * V.comp1.values), ScalarField(g, force * V.comp2.values))
    prob = CurlProblem(grid=g, p=p, H0=H0, forcing=F, horizon=0.02)
    sol = curl_solve(prob, CurlConfig(snapshot_times=(0.01,)))
    assert len(sol.diagnostics.times) >= 3
    assert sol.diagnostics.div_drift_max <= 1e-10


def test_kernel_curl_and_divergence_match_curl_z_and_divergence_bit_for_bit():
    # the kernel differentiates through plans bound once; after each step
    # its curl and its div_drift are those of curl_z and divergence
    g = GridSpec(4.0, 24)
    F = field_from_stream(g, StreamSpec(width=2.0, curl_max=20.0))
    H0 = default_h0(g, curl_max=0.9)
    H = np.stack((H0.comp1.values, H0.comp2.values))
    H[:, :2, :] = -0.0
    H[:, -3:, :4] = [5e-324, -5e-324, 0.0, -0.0]
    kernel = _StepKernel(g, 8.0, H, F)
    wmax = kernel.differentiate()
    kernel.record(0.0)
    drift = 0.0
    for k in range(6):
        field = VectorField2(ScalarField(g, H[0]), ScalarField(g, H[1]))
        want_w = curl_z(field).values
        assert np.array_equal(kernel.omega.view(np.uint64), want_w.view(np.uint64)), k
        assert wmax == np.max(np.abs(want_w))
        drift = max(drift, float(np.max(np.abs(divergence(field).values))))
        assert kernel.diag.div_drift_max == drift, k
        dt = _cfl_dt(wmax, 7.0, g.spacing ** 2, 0.9)
        wmax = kernel.step(dt, (k + 1) * dt)


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
