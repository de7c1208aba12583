import math
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bean_limit.datagen import BumpSpec, bump_field
from bean_limit.errors import DomainError
from bean_limit import cli, obstacle, pme
from bean_limit.fields import (
    GridSpec,
    PowerLaw,
    ScalarField,
    boundary_ring_max,
    lap5_values,
    neighbor_sum,
    psi,
)
from bean_limit.pme import (
    CG_FORCING_CAP,
    CG_MAX_ITERS,
    CG_QUADRATIC_FORCING,
    CG_TOL,
    MAX_HALVINGS,
    NEWTON_TOL,
    NewtonDiverged,
    PmeConfig,
    PmeProblem,
    StepTooSmall,
    _newton_direction,
    _pointwise_exact,
    _pressure,
    _step_values,
    barenblatt_eval,
    barenblatt_field,
    pcg,
    pme_solve,
)
from bean_limit.redblack import red_black_system

from oracles import allocating_pointwise_exact, flat_top_field, jacobi_newton_system

LAW3 = PowerLaw(3.0)


# -- exact solution --------------------------------------------------------------


def test_barenblatt_outside_support_is_zero():
    val = barenblatt_eval(np.array([50.0, 0.0]), 1.0, LAW3, 1.0)
    assert val == 0.0


def test_barenblatt_mass_constant_in_time():
    # the cell sum is the midpoint rule: O(h^2) inside the support, and the
    # error sits in the cells the support edge cuts.  At large m the profile
    # tends to a disk's indicator, whose cell count misses pi R^2 / h^2 by
    # O((R/h)^(2/3)) cells, a relative (h/R)^(4/3) of about 3e-3 at
    # m = 33.7 (R/h about 80); smaller m put less mass at the edge.  5e-3
    # still catches a shape integral off by 0.5%.  The box at m = 1.5 is
    # wider because its support is.
    for m, L in ((1.5, 6.0), (3.0, 2.0), (8.0, 2.0), (33.7, 2.0)):
        g = GridSpec(L, 512)
        for t in (1.0, 2.0, 4.0):
            f = barenblatt_field(g, t, PowerLaw(m), 1.0)
            assert boundary_ring_max(f) == 0.0  # the support fits in the box
            mass = g.spacing ** 2 * np.sum(f.values)
            assert abs(mass - 1.0) <= 5e-3, (m, t)


def test_barenblatt_self_similarity_identity():
    rng = np.random.default_rng(0)
    k = 2 * (3 - 1) + 2
    for _ in range(100):
        x = rng.uniform(-2, 2, 2)
        t = rng.uniform(0.5, 3.0)
        lam = rng.uniform(0.5, 3.0)
        lhs = barenblatt_eval(x, lam * t, LAW3, 1.0)
        rhs = lam ** (-2.0 / k) * barenblatt_eval(x * lam ** (-1.0 / k), t, LAW3, 1.0)
        assert abs(lhs - rhs) <= 1e-10


def test_barenblatt_profile_solves_the_equation():
    # centered time difference against the discrete diffusion term, away
    # from the support edge where the profile has a gradient kink
    g = GridSpec(2.0, 256)
    t, dt = 1.0, 1e-5
    up = barenblatt_field(g, t + dt, LAW3, 1.0).values
    um = barenblatt_field(g, t - dt, LAW3, 1.0).values
    u = barenblatt_field(g, t, LAW3, 1.0).values
    ut = (up - um) / (2 * dt)
    lap_psi = lap5_values(np.sign(u) * np.abs(u) ** 3, g.spacing)
    x, y = g.meshgrid()
    interior = np.sqrt(x ** 2 + y ** 2) < 0.6
    assert np.max(np.abs((ut - lap_psi)[interior])) <= 5e-3


# -- linear kernel ----------------------------------------------------------------


def jacobian_problem(n=12, seed=0):
    """Allocating callbacks of a step's Newton system, diag*w - c*N(w), and a right side."""
    rng = np.random.default_rng(seed)
    c = 3.0
    diag = 4.0 * c + rng.uniform(0.01, 1.0, (n, n))
    b = rng.standard_normal((n, n))
    return (lambda w: diag * w - c * neighbor_sum(w)), (lambda r: r / diag), b


def ill_conditioned_problem(decades):
    """A diagonal operator spanning `decades` decades, unpreconditioned.

    CG's residual norm is not monotone here, so the best iterate can lie
    behind the last one; the identity preconditioner returns its argument.
    """
    n = 12
    diag = np.logspace(0.0, decades, n * n).reshape(n, n)
    b = np.random.default_rng(0).standard_normal((n, n))
    return (lambda w: diag * w), (lambda r: r), b


def reusing(fn, shape):
    """fn, returning its value in one buffer that every call overwrites."""
    buf = np.empty(shape)

    def wrapped(a):
        np.copyto(buf, fn(a))
        return buf

    return wrapped


def textbook_pcg(apply_op, b, apply_minv, rtol, max_iters):
    """Jacobi-PCG with fresh arrays every iteration, the stopping rules of pme.pcg."""
    bnorm = float(np.sqrt(np.sum(b * b)))
    x = np.zeros_like(b)
    r = b.copy()
    z = apply_minv(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    best_x, best_norm, since_best = x.copy(), bnorm, 0
    for _ in range(max_iters):
        ap = apply_op(p)
        alpha = rz / float(np.sum(p * ap))
        x = x + alpha * p
        r = r - alpha * ap
        rnorm = float(np.sqrt(np.sum(r * r)))
        if rnorm <= rtol * bnorm:
            return x
        if rnorm < best_norm:
            best_x, best_norm, since_best = x.copy(), rnorm, 0
        else:
            since_best += 1
            if since_best >= 50:
                return best_x
        z = apply_minv(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return best_x


PCG_CASES = [
    ("converged", jacobian_problem, CG_MAX_ITERS),
    ("capped", jacobian_problem, 7),
    ("capped-behind-best", lambda: ill_conditioned_problem(4.0), 30),  # best iterate: the 26th
    ("stagnated", lambda: ill_conditioned_problem(6.0), CG_MAX_ITERS),  # stagnates at the start
]


# the Newton solves ask for targets from CG_TOL up to 0.1, so loose ones run too
@pytest.mark.parametrize(
    "problem, max_iters, rtol",
    [
        pytest.param(problem, max_iters, rtol, id=name if rtol == CG_TOL else f"{name}-rtol{rtol:g}")
        for name, problem, max_iters in PCG_CASES
        for rtol in (CG_TOL, 1e-6, 1e-2)
    ],
)
def test_pcg_with_reused_buffers_matches_allocating_callbacks(problem, max_iters, rtol):
    apply_op, apply_minv, b = problem()
    b_copy = b.copy()
    expected = textbook_pcg(apply_op, b, apply_minv, rtol, max_iters)
    x_alloc = pcg(apply_op, b, apply_minv, rtol, max_iters)
    x_reused = pcg(reusing(apply_op, b.shape), b, reusing(apply_minv, b.shape), rtol, max_iters)
    assert x_alloc.tobytes() == expected.tobytes()
    assert x_reused.tobytes() == expected.tobytes()
    assert b.tobytes() == b_copy.tobytes()


def test_pcg_counting_wrapper_counts_the_iterations():
    # the one-argument wrapper perfbench/tracer.py puts around apply_op
    apply_op, apply_minv, b = jacobian_problem(seed=1)
    iters = 0

    def counted_op(p):
        nonlocal iters
        iters += 1
        return apply_op(p)

    x = pcg(counted_op, b, apply_minv, CG_TOL, CG_MAX_ITERS)
    assert x.tobytes() == pcg(apply_op, b, apply_minv, CG_TOL, CG_MAX_ITERS).tobytes()
    # converged at iteration `iters`: one fewer stops at the cap with another x
    assert pcg(apply_op, b, apply_minv, CG_TOL, iters).tobytes() == x.tobytes()
    assert pcg(apply_op, b, apply_minv, CG_TOL, iters - 1).tobytes() != x.tobytes()


def test_pcg_raises_on_an_indefinite_operator():
    n = 12
    diag = np.where(np.arange(n * n).reshape(n, n) % 3 == 0, -2.0, 1.0)
    with pytest.raises(NewtonDiverged):
        pcg(lambda w: diag * w, np.ones((n, n)), lambda r: r, CG_TOL, CG_MAX_ITERS)


def test_pcg_of_a_zero_right_side_is_zero():
    def never(_):
        raise AssertionError("callback called for b = 0")

    x = pcg(never, np.zeros((9, 9)), never, CG_TOL, CG_MAX_ITERS)
    assert x.shape == (9, 9) and np.all(x == 0.0)


def bench_config(tmp_path, name, overrides):
    """configs/<name> with the bench-scale overrides, written to tmp_path."""
    overrides = dict(overrides)
    lines = (Path(__file__).parents[1] / "configs" / name).read_text().splitlines()
    for i, line in enumerate(lines):
        key = line.split("=")[0].strip()
        if key in overrides:
            lines[i] = f"{key} = {overrides.pop(key)}"
    assert not overrides
    cfg = tmp_path / name
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


def count_solver_work(monkeypatch):
    """Counts of pointwise passes, CG solves and iterations, and PSOR sweeps,
    filled in as the solvers run."""
    counts = {"pointwise": 0, "pcg": 0, "iters": 0, "psor_sweeps": 0}
    pointwise, inner, psor = pme._pointwise_exact, pme.pcg, obstacle.psor_solve

    def counting_pointwise(*args):
        counts["pointwise"] += 1
        return pointwise(*args)

    def counting_pcg(apply_op, b, apply_minv, rtol, max_iters):
        counts["pcg"] += 1

        def counted_op(p):
            counts["iters"] += 1
            return apply_op(p)

        return inner(counted_op, b, apply_minv, rtol, max_iters)

    def counting_psor(*args, **kwargs):
        vi = psor(*args, **kwargs)
        counts["psor_sweeps"] += vi.iterations
        return vi

    monkeypatch.setattr(pme, "_pointwise_exact", counting_pointwise)
    monkeypatch.setattr(pme, "pcg", counting_pcg)
    monkeypatch.setattr(obstacle, "psor_solve", counting_psor)
    return counts


def test_bench_barenblatt_work_count(monkeypatch):
    # the barenblatt-refine bench problem at n = 40 does a fixed amount of
    # pointwise and CG work: every Newton step is full, so the 20 pointwise
    # passes are the steps' initial guesses, the 40 solves are the Newton
    # work, and the iterations pin the CG target rule of _newton_direction
    counts = count_solver_work(monkeypatch)
    g = GridSpec(2.0, 40)
    u0 = barenblatt_field(g, 1.0, LAW3, 1.0)
    prob = PmeProblem(grid=g, law=LAW3, u0=u0, forcing=None, horizon=1.0)
    pme_solve(prob, PmeConfig(dt_init=0.05))
    assert counts == {"pointwise": 20, "pcg": 40, "iters": 312, "psor_sweeps": 0}


def test_bench_mesa_work_count(tmp_path, monkeypatch):
    # the mesa-sweep bench run (sweep_m.cfg at n = 48, m = 8 and 64) does a
    # fixed amount of pointwise, CG and PSOR work; a cheaper power must not
    # come from fewer passes, solves or sweeps, and the iterations pin the
    # CG target rule of _newton_direction
    cfg = bench_config(tmp_path, "sweep_m.cfg",
                       {"grid.n": "48", "schedule": "8, 64", "pme.dt_init": "0.04"})
    counts = count_solver_work(monkeypatch)
    assert cli.run(["sweep-m", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert counts == {"pointwise": 50, "pcg": 142, "iters": 764, "psor_sweeps": 44}


def test_bench_collapse_work_count(tmp_path, monkeypatch):
    # the collapse bench run (collapse.cfg at n = 32, m = 8 and 64, mass grid
    # 96, f.height 1.15) does a fixed amount of pointwise, CG and PSOR work;
    # the iterations pin the CG target rule of _newton_direction
    cfg = bench_config(tmp_path, "collapse.cfg",
                       {"grid.n": "32", "schedule": "8, 64", "grids": "96", "f.height": "1.15"})
    counts = count_solver_work(monkeypatch)
    assert cli.run(["collapse", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert counts == {"pointwise": 42, "pcg": 154, "iters": 1054, "psor_sweeps": 164}


Solve = namedtuple("Solve", "linf res_norm early rtol rule passes")


def step_with_cg_targets(monkeypatch, u0, forcing, dt, law, floor_only):
    """One pme_solve step of dt, its CG solves at the targets _newton_direction
    asks for, or all at CG_TOL.  Checks the final residual against
    NEWTON_TOL; returns the Newton iterations and, per solve, a Solve: max
    |res|, |res|_2, whether the direction was early, the target it asked
    for, the target of the accuracy rule alone (early=False) and the
    pointwise passes run before it (1 until the first damped step)."""
    solves, newton_iters, asked, passes = [], [], [], [0]

    class RecordingSystem:
        probe = False  # record the target only

        def __init__(self, n):
            self.system = red_black_system(n)

        def solve(self, res, res_norm, diag, c, rtol, cg, max_iters):
            asked.append(rtol)
            if RecordingSystem.probe:
                return None
            return self.system.solve(res, res_norm, diag, c, CG_TOL if floor_only else rtol,
                                     cg, max_iters)

    def recording_direction(res, res_norm, v, inv_m, dt, h2, newton_tol, early):
        RecordingSystem.probe = True
        _newton_direction(res, res_norm, v, inv_m, dt, h2, newton_tol, False)
        RecordingSystem.probe = False
        dv = _newton_direction(res, res_norm, v, inv_m, dt, h2, newton_tol, early)
        rule, rtol = asked[-2:]
        solves.append(Solve(float(np.max(np.abs(res))), res_norm, early, rtol, rule, passes[0]))
        return dv

    def counting_pointwise(*args):
        passes[0] += 1
        return _pointwise_exact(*args)

    def recording_step_values(*args):
        u, iters = _step_values(*args)
        newton_iters.append(iters)
        return u, iters

    monkeypatch.setattr(pme, "red_black_system", RecordingSystem)
    monkeypatch.setattr(pme, "_newton_direction", recording_direction)
    monkeypatch.setattr(pme, "_pointwise_exact", counting_pointwise)
    monkeypatch.setattr(pme, "_step_values", recording_step_values)
    prob = PmeProblem(grid=u0.grid, law=law, u0=u0, forcing=forcing, horizon=dt)
    sol = pme_solve(prob, PmeConfig(dt_init=dt))
    assert sol.diagnostics.times == [0.0, dt]  # one step, no halving
    assert len(newton_iters) == 1
    u1 = sol.snapshots[-1][1].values
    rhs = u0.values + dt * (0.0 if forcing is None else forcing.values)
    res = u1 - dt * lap5_values(psi(u1, law), u0.grid.spacing) - rhs
    assert float(np.max(np.abs(res))) <= NEWTON_TOL
    return newton_iters[0], solves


def barenblatt_step():
    """The barenblatt-refine bench data at n = 40 and its dt: (u0, forcing, dt, law)."""
    return barenblatt_field(GridSpec(2.0, 40), 1.0, LAW3, 1.0), None, 0.05, LAW3


def collapse_step():
    """collapse.cfg data at n = 32 and the m = 64 run's first dt = 1/(10 m)."""
    g = GridSpec(2.0, 32)
    f = bump_field(g, BumpSpec(height=1.5, radius=1.4))
    src = bump_field(g, BumpSpec(height=0.3, radius=1.2))
    return f, src, 1.0 / 640.0, PowerLaw(64.0)


def test_cg_target_rule_keeps_the_newton_iterations(monkeypatch):
    # Barenblatt m = 3: every solve stops above CG_TOL, and Newton takes as
    # many iterations as with every solve at CG_TOL
    iters, solves = step_with_cg_targets(monkeypatch, *barenblatt_step(), False)
    assert iters == step_with_cg_targets(monkeypatch, *barenblatt_step(), True)[0] == 2
    assert all(s.rtol > CG_TOL for s in solves)

    # super-critical m = 64 collapse step: the early first direction (at
    # CG_FORCING_CAP) is damped, which costs one Newton iteration against
    # every solve at CG_TOL (27, was 26).  After it, psi' is huge until the
    # collapse is done, so every solve above a Newton residual of 1e-2
    # stays at CG_TOL; only the last ones loosen (the first loose target
    # comes at max |res| = 4.3e-4, the last floor solve at 0.059).
    iters, solves = step_with_cg_targets(monkeypatch, *collapse_step(), False)
    assert iters == 27
    assert step_with_cg_targets(monkeypatch, *collapse_step(), True)[0] == 26
    assert solves[0].early and solves[0].rtol == CG_FORCING_CAP
    later = solves[1:]
    assert all(s.rtol == CG_TOL for s in later if s.linf > 1e-2)
    at_floor = [s.rtol == CG_TOL for s in later]
    assert at_floor == sorted(at_floor, reverse=True)
    assert sum(s.rtol > CG_TOL for s in later) <= 2 < len(later)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("step", [barenblatt_step, collapse_step])
def test_directions_are_early_until_the_first_damped_step(monkeypatch, step):
    # the directions before the step's first damped or failed Newton step
    # (before its second pointwise pass) ask for min(CG_FORCING_CAP,
    # C |res|_2) or the accuracy rule, whichever is looser; every later one
    # for the accuracy rule alone.  Barenblatt m = 3 takes two full Newton
    # steps, both loose; the m = 64 collapse step damps its first direction and
    # still meets NEWTON_TOL without a dt halving.  Its trial steps overflow
    # |u|^64, and the line search rejects them without a RuntimeWarning.
    _, solves = step_with_cg_targets(monkeypatch, *step(), False)
    assert [s.early for s in solves] == [s.passes == 1 for s in solves]
    for s in solves:
        loose = min(CG_FORCING_CAP, CG_QUADRATIC_FORCING * s.res_norm)
        assert s.rtol == (max(s.rule, loose) if s.early else s.rule)
    if step is barenblatt_step:
        assert all(s.early and s.rtol > s.rule for s in solves)
    else:
        assert solves[0].early and not any(s.early for s in solves[1:])
        assert solves[0].rtol > solves[0].rule


# -- red-black reduced Newton solves ------------------------------------------------

REDUCED_NS = [8, 17, 33, 40, 80]


def ring_system(n, seed=0):
    """(v, res, dt, h2, the oracle's Newton system) of Barenblatt m = 3 data
    on L = 2, lifted by noise so that every cell of the outer ring is live,
    with a random Newton residual that is nonzero on the ring too."""
    g = GridSpec(2.0, n)
    rng = np.random.default_rng(seed)
    u = barenblatt_field(g, 1.0, LAW3, 1.0).values + 0.01 * rng.uniform(0.0, 1.0, (n, n))
    v = psi(u, LAW3)
    res = rng.standard_normal((n, n))
    h2 = g.spacing ** 2
    return v, res, 0.05, h2, jacobi_newton_system(v, 1.0 / 3.0, 0.05, h2)


def counting(cg):
    """(cg with the same signature, a list whose length counts the
    operator applications of its solves)."""
    applied = []

    def counted_cg(apply_op, b, apply_minv, rtol, max_iters):
        def counted_op(p):
            applied.append(None)
            return apply_op(p)

        return cg(counted_op, b, apply_minv, rtol, max_iters)

    return counted_cg, applied


def reduced_solve(n, res, bnorm, diag_jac, c, rtol, cg=pcg):
    return red_black_system(n).solve(res, bnorm, diag_jac, c, rtol, cg, CG_MAX_ITERS)


@pytest.mark.parametrize("n", REDUCED_NS)
def test_reduced_solve_meets_the_full_system_target(n):
    # the back-substituted dv has a full-grid residual within the target, as
    # the Jacobi solve has; a layout error shows on the ring cells first
    v, res, dt, h2, (diag_jac, apply_jac, apply_minv) = ring_system(n)
    bnorm = math.sqrt(float(np.sum(res * res)))

    def tracing_pcg(apply_op, b, apply_minv, rtol, max_iters):
        # perfbench/tracer.py applies the operator once more after pcg returns
        x = pcg(apply_op, b, apply_minv, rtol, max_iters)
        apply_op(x)
        return x

    for rtol in (1e-2, 1e-5, 1e-9):
        dv = reduced_solve(n, res, bnorm, diag_jac, dt / h2, rtol)
        x = pcg(apply_jac, -res, apply_minv, rtol, CG_MAX_ITERS)
        for sol in (dv, x):
            r = -res - apply_jac(sol)
            assert math.sqrt(float(np.sum(r * r))) <= rtol * bnorm * (1.0 + 1e-6), (n, rtol)
        traced = reduced_solve(n, res, bnorm, diag_jac, dt / h2, rtol, tracing_pcg)
        assert traced.tobytes() == dv.tobytes()


@pytest.mark.parametrize("n", REDUCED_NS)
def test_reduced_solve_takes_half_the_jacobi_iterations(n):
    # Reid: CG on the red-black reduced system runs about every other
    # iterate of Jacobi-PCG on the whole grid
    v, res, dt, h2, (diag_jac, apply_jac, apply_minv) = ring_system(n, seed=1)
    bnorm = math.sqrt(float(np.sum(res * res)))
    for rtol in (1e-3, 1e-6, 1e-9):
        counted_pcg, reduced = counting(pcg)
        dv = reduced_solve(n, res, bnorm, diag_jac, dt / h2, rtol, counted_pcg)
        counted_pcg, jacobi = counting(pcg)
        counted_pcg(apply_jac, -res, apply_minv, rtol, CG_MAX_ITERS)
        assert len(reduced) <= math.ceil(len(jacobi) / 2) + 1, (n, rtol, len(reduced), len(jacobi))
        r = -res - apply_jac(dv)
        assert math.sqrt(float(np.sum(r * r))) <= rtol * bnorm * (1.0 + 1e-6), (n, rtol)


@pytest.mark.parametrize("n", range(8, 14))
def test_scatter_of_the_gathered_colours_is_the_grid_bit_for_bit(n):
    # the parity-plane layout that the reduced solve and projected SOR share
    system = red_black_system(n)
    x = np.random.default_rng(n).standard_normal((n, n))
    x[0, 0], x[-1, -1] = -0.0, 5e-324
    red, black = np.zeros(system.shape), np.zeros(system.shape)
    system.gather(x, red, 0)
    system.gather(x, black, 1)
    assert system.scatter(red, black).tobytes() == x.tobytes()


@pytest.mark.parametrize("n", [16, 17])
def test_reduced_solve_of_zero_and_red_right_sides(n):
    v, res, dt, h2, (diag_jac, apply_jac, _) = ring_system(n)
    c = dt / h2
    dv = reduced_solve(n, np.zeros((n, n)), 0.0, diag_jac, c, 1e-6)
    assert dv.shape == (n, n) and np.all(dv == 0.0)

    # a right side on red cells only: with a zero black solution, the red
    # cells get D_r^-1 b_r and pcg gets the right side c N_br(D_r^-1 b_r)
    i, j = np.indices((n, n))
    red = (i + j) % 2 == 0
    b = np.where(red, -res, 0.0)
    handed = []

    def zero_pcg(apply_op, rhs, apply_minv, rtol, max_iters):
        handed.append(rhs.copy())
        return np.zeros_like(rhs)

    bnorm = math.sqrt(float(np.sum(b * b)))
    dv = reduced_solve(n, -b, bnorm, diag_jac, c, 1e-6, zero_pcg)
    expected = np.where(red, b / diag_jac, 0.0)
    assert np.all(np.abs(dv - expected) <= 2.0 * EPS * np.abs(expected))
    # the black cells of a grid array that is zero on red: the right side
    # maps back through the grid, and every slot of the black planes that is
    # no black cell holds zero
    (rhs,) = handed
    system = red_black_system(n)
    on_grid = system.scatter(np.zeros(system.shape), rhs)
    assert np.count_nonzero(on_grid) == np.count_nonzero(rhs)
    expected_rhs = np.where(red, 0.0, c * neighbor_sum(np.where(red, b / diag_jac, 0.0)))
    assert np.max(np.abs(on_grid - expected_rhs)) <= 1e-14 * np.max(np.abs(expected_rhs))


@pytest.mark.parametrize("newton_tol, early", [
    pytest.param(1e-30, False, id="1e-30"),
    pytest.param(1e-2, False, id="0.01"),
    pytest.param(1e-30, True, id="early"),
])
def test_newton_direction_solves_the_reduced_system(monkeypatch, newton_tol, early):
    # every Newton direction is a reduced solve, one whose rule target is the
    # CG_TOL floor too: pcg gets the padded black buffer, and the direction
    # meets the rule's target on the whole-grid system; an early direction
    # asks for C |res|_2 in place of the floor
    n = 24
    v, res, dt, h2, (_, apply_jac, _) = ring_system(n)
    asked = []  # per pcg call: the size of its right side and its target
    inner = pme.pcg

    def asking_pcg(apply_op, b, apply_minv, rtol, max_iters):
        asked.append((b.size, rtol * math.sqrt(float(np.sum(b * b)))))
        return inner(apply_op, b, apply_minv, rtol, max_iters)

    monkeypatch.setattr(pme, "pcg", asking_pcg)
    bnorm = math.sqrt(float(np.sum(res * res)))
    dv = _newton_direction(res, bnorm, v, 1.0 / 3.0, dt, h2, newton_tol, early)
    ((size, target),) = asked
    assert size == math.prod(red_black_system(n).shape) != n * n
    if early:
        rtol = min(CG_FORCING_CAP, CG_QUADRATIC_FORCING * bnorm)
        assert CG_TOL < rtol < CG_FORCING_CAP
        assert target == pytest.approx(rtol * bnorm, rel=1e-12)
    elif newton_tol == 1e-30:
        assert target == pytest.approx(CG_TOL * bnorm, rel=1e-12)
    else:
        assert CG_TOL * bnorm < target < CG_FORCING_CAP * bnorm
    r = -res - apply_jac(dv)
    assert math.sqrt(float(np.sum(r * r))) <= target * (1.0 + 1e-6)


# -- pointwise scalar kernel ---------------------------------------------------

EPS = np.finfo(float).eps
KERNEL_MS = [1.5, 3.0, 8.0, 64.0, 96.0]


def signed_decade(rng, exponent):
    """8x8 right side with |b| in [10^e, 10^(e+1)), random signs, three zeros."""
    babs = 10.0 ** exponent * rng.uniform(1.0, 10.0, (8, 8))
    babs[0, :3] = 0.0
    return np.where(rng.random((8, 8)) < 0.5, -babs, babs)


@pytest.mark.parametrize("m", KERNEL_MS)
def test_pointwise_exact_is_odd_and_zero_at_zero(m):
    # v = 0 freezes the neighbors at zero, so b = rhs
    rng = np.random.default_rng(1)
    rhs = signed_decade(rng, 0)
    rhs[1, :] = [1e-300, -1e-300, 1e-100, 1e-8, 1e2, -1e4, 1e6, -1e6]
    z = np.zeros_like(rhs)
    for dt in (1e-6, 0.25, 1e4):
        u = _pointwise_exact(z, rhs, dt, m, 1.0)
        assert np.array_equal(_pointwise_exact(z, -rhs, dt, m, 1.0), -u)
        assert np.all(u[rhs == 0.0] == 0.0)
        assert np.all(np.sign(u[rhs != 0.0]) == np.sign(rhs[rhs != 0.0]))


@pytest.mark.parametrize("m", KERNEL_MS)
def test_pointwise_exact_solves_the_cell_equation_to_rounding(m):
    # the nearest double to the root can leave f' s eps / 2 <= m |b| eps / 2
    # in s + a s^m - |b|, so the bound grows with m: (m + 4) ulps
    rng = np.random.default_rng(2)
    for dt in (1e-6, 1e-3, 0.25, 10.0, 1e4):
        a = 4.0 * dt
        for exponent in range(-300, 7, 6):
            rhs = signed_decade(rng, exponent)
            s = np.abs(_pointwise_exact(np.zeros_like(rhs), rhs, dt, m, 1.0))
            babs = np.abs(rhs)
            f = s + a * s ** m - babs
            assert np.all(np.abs(f) <= (m + 4.0) * EPS * np.maximum(1.0, babs))


def test_pointwise_exact_stops_per_cell_on_a_wide_spread_of_data():
    # one call with |b| over 306 decades: a stop scaled by the largest |b|
    # would release the small cells far from their roots
    m, dt = 1.5, 1e4
    a = 4.0 * dt
    babs = np.concatenate([10.0 ** np.linspace(-300, 6, 61), [3e-9, 3e-9, 1.0]])
    rhs = np.where(np.arange(64) % 2 == 0, babs, -babs).reshape(8, 8)
    rhs[0, 0] = -3e-9
    babs = np.abs(rhs)
    s = np.abs(_pointwise_exact(np.zeros_like(rhs), rhs, dt, m, 1.0))
    f = s + a * s ** m - babs
    assert np.all(np.abs(f) <= (m + 4.0) * EPS * np.maximum(1.0, babs))


@pytest.mark.parametrize("m", KERNEL_MS)
def test_pointwise_exact_raises_on_non_finite_data(m):
    # a NaN never satisfies a stop rule, so the iteration cap is reached
    rhs = np.full((8, 8), 0.5)
    for bad in (math.nan, math.inf):
        rhs[3, 4] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NewtonDiverged):
            _pointwise_exact(np.zeros_like(rhs), rhs, 0.25, m, 1.0)


@pytest.mark.parametrize("m", KERNEL_MS)
def test_pointwise_exact_matches_the_allocating_kernel_bit_for_bit(m):
    rng = np.random.default_rng(3)
    for dt in (1e-6, 1e-3, 0.25, 10.0, 1e4):
        for exponent in range(-300, 7, 6):
            rhs = signed_decade(rng, exponent)
            for v in (np.zeros_like(rhs), signed_decade(rng, exponent)):
                u = _pointwise_exact(v, rhs, dt, m, 1.0)
                assert u.tobytes() == allocating_pointwise_exact(v, rhs, dt, m, 1.0).tobytes()


def test_pointwise_exact_and_the_allocating_kernel_both_raise_on_nan():
    rhs = np.full((8, 8), 0.5)
    rhs[3, 4] = math.nan
    for kernel in (_pointwise_exact, allocating_pointwise_exact):
        with np.errstate(invalid="ignore"), pytest.raises(NewtonDiverged):
            kernel(np.zeros_like(rhs), rhs, 0.25, 8.0, 1.0)


# -- single step ----------------------------------------------------------------


def zero_problem(g, law=LAW3, horizon=1.0):
    return PmeProblem(grid=g, law=law, u0=ScalarField.zeros(g), forcing=None, horizon=horizon)


def one_step(u0, dt, law=LAW3):
    """The state after one backward-Euler step of dt: pme_solve with horizon dt."""
    prob = PmeProblem(grid=u0.grid, law=law, u0=u0, forcing=None, horizon=dt)
    sol = pme_solve(prob, PmeConfig(dt_init=dt))
    assert sol.diagnostics.times == [0.0, dt]  # one step, no halving
    return sol.snapshots[-1][1]


def test_zero_is_a_fixed_point():
    g = GridSpec(2.0, 32)
    u1 = one_step(ScalarField.zeros(g), 0.1)
    assert np.all(u1.values == 0.0)


def test_constant_plateau_unchanged_in_one_step():
    # the implicit step couples globally with penetration depth about
    # sqrt(dt * psi'), so "unchanged" needs cells several depths inside
    g = GridSpec(4.0, 64)
    f = flat_top_field(g, BumpSpec(height=0.9, radius=2.0), cap=0.5)
    u1 = one_step(f, 2e-4)
    x, y = g.meshgrid()
    deep = np.sqrt(x ** 2 + y ** 2) < 0.5  # well inside the flat region
    assert np.max(np.abs(u1.values - f.values)[deep]) <= 10 * NEWTON_TOL


def test_single_step_barenblatt_local_error():
    # interior deviation obeys the dt^2 + h^2 dt truncation scaling; the
    # moving support edge itself carries O(dt) in max norm, so it is
    # excluded here and covered by the global L1 convergence test
    g = GridSpec(2.0, 128)
    u0 = barenblatt_field(g, 1.0, LAW3, 1.0)
    interior = u0.values >= 0.1
    h2 = g.spacing ** 2
    for dt in (8e-3, 2e-3):
        u1 = one_step(u0, dt)
        exact = barenblatt_field(g, 1.0 + dt, LAW3, 1.0)
        linf_int = np.max(np.abs(u1.values - exact.values)[interior])
        assert linf_int <= 1.0 * (dt * dt + h2 * dt)
        l1 = h2 * np.sum(np.abs(u1.values - exact.values))
        assert l1 <= 0.2 * dt


def test_step_too_small_guard(monkeypatch):
    # a step that never converges is halved MAX_HALVINGS times, and the
    # next failure ends the run at the time it could not leave
    calls = []

    def diverging(*args):
        calls.append(args[2])
        raise NewtonDiverged("always")

    monkeypatch.setattr(pme, "_step_values", diverging)
    with pytest.raises(StepTooSmall) as info:
        pme_solve(zero_problem(GridSpec(2.0, 16)), PmeConfig(dt_init=0.1))
    assert info.value.t == 0.0
    assert calls == [0.1 * 0.5 ** k for k in range(MAX_HALVINGS + 1)]
    for dt_init in (0.0, -0.1):
        with pytest.raises(ValueError, match="dt_init"):
            PmeConfig(dt_init=dt_init)


# -- full solves -----------------------------------------------------------------


def test_zero_run_stays_zero():
    g = GridSpec(2.0, 32)
    sol = pme_solve(zero_problem(g), PmeConfig(dt_init=0.25, snapshot_times=(0.5,)))
    assert [t for t, _ in sol.snapshots] == [0.0, 0.5, 1.0]
    for _, f in sol.snapshots:
        assert np.all(f.values == 0.0)
    d = sol.diagnostics
    assert d.mass_residual_max == d.sup_max == d.pressure_max == 0.0


def test_snapshot_validation():
    g = GridSpec(2.0, 32)
    with pytest.raises(ValueError):
        pme_solve(zero_problem(g), PmeConfig(dt_init=0.1, snapshot_times=(2.0,)))


def test_barenblatt_run_error_decreases_with_resolution():
    errs = []
    for n in (48, 96):
        g = GridSpec(2.0, n)
        u0 = barenblatt_field(g, 1.0, LAW3, 1.0)
        prob = PmeProblem(grid=g, law=LAW3, u0=u0, forcing=None, horizon=0.5)
        sol = pme_solve(prob, PmeConfig(dt_init=0.5 * g.spacing))
        exact = barenblatt_field(g, 1.5, LAW3, 1.0)
        errs.append(g.spacing ** 2 * np.sum(np.abs(sol.snapshots[-1][1].values - exact.values)))
    assert errs[1] < errs[0] / 1.6


def snapshot_mass_defect(sol):
    """max over the snapshots of |mass(t) - mass(0) - t h^2 sum g|, relative
    to |mass(0)| + |t h^2 sum g| + 1e-30."""
    h2 = sol.problem.grid.spacing ** 2
    g_mass = 0.0 if sol.problem.forcing is None else h2 * np.sum(sol.problem.forcing.values)
    m0 = h2 * np.sum(sol.snapshots[0][1].values)
    return max(abs(h2 * np.sum(u.values) - m0 - t * g_mass) / (abs(m0) + abs(t * g_mass) + 1e-30)
               for t, u in sol.snapshots)


def test_mass_balance_zero_source():
    g = GridSpec(2.0, 64)
    u0 = barenblatt_field(g, 1.0, LAW3, 1.0)
    prob = PmeProblem(grid=g, law=LAW3, u0=u0, forcing=None, horizon=0.5)
    sol = pme_solve(prob, PmeConfig(dt_init=0.02, snapshot_times=(0.1, 0.25)))
    assert snapshot_mass_defect(sol) <= sol.diagnostics.mass_residual_max <= 1e-8


def test_mass_balance_with_patch_source():
    g = GridSpec(2.0, 64)
    c = 0.3
    vals = np.zeros((64, 64))
    vals[30:34, 28:35] = c  # 28 cells
    src = ScalarField(g, vals)
    prob = PmeProblem(
        grid=g, law=PowerLaw(2.0), u0=ScalarField.zeros(g),
        forcing=src, horizon=0.5,
    )
    sol = pme_solve(prob, PmeConfig(dt_init=0.02))
    assert sol.diagnostics.mass_residual_max <= 1e-8
    assert snapshot_mass_defect(sol) <= 1e-8
    expected_final = c * 28 * g.spacing ** 2 * 0.5
    final_mass = g.spacing ** 2 * np.sum(sol.snapshots[-1][1].values)
    assert final_mass == pytest.approx(expected_final, rel=1e-6)


def test_nonnegativity_preserved():
    g = GridSpec(4.0, 48)
    f = bump_field(g, BumpSpec(height=0.8, radius=1.5))
    gb = bump_field(g, BumpSpec(height=0.2, radius=1.2))
    prob = PmeProblem(grid=g, law=PowerLaw(6.0), u0=f, forcing=gb, horizon=0.5)
    sol = pme_solve(prob, PmeConfig(dt_init=0.01))
    assert min(np.min(f.values) for _, f in sol.snapshots) >= -1e-10


@pytest.mark.parametrize("n", [40, 64, 96])
def test_nonnegative_data_stay_nonnegative(n):
    # the discrete comparison principle: with rhs >= 0 the step's solution
    # is >= 0, so no cell of any step dips below +0, by a subnormal or a -0
    g = GridSpec(4.0, n)
    f = bump_field(g, BumpSpec(height=0.5, radius=1.0))
    every_step = tuple(0.0125 * k for k in range(1, 8))
    for m in (2.0, 3.0, 8.0, 64.0):
        prob = PmeProblem(grid=g, law=PowerLaw(m), u0=f, forcing=None, horizon=0.1)
        sol = pme_solve(prob, PmeConfig(dt_init=0.0125, snapshot_times=every_step))
        assert len(sol.snapshots) == len(sol.diagnostics.times) == 9
        for t, u in sol.snapshots:
            u = u.values
            assert np.all(u >= 0.0) and not np.signbit(u).any(), (m, t, float(np.min(u)))


def test_steps_hold_exact_zeros_where_the_cell_equation_is_zero(monkeypatch):
    # pme.cfg's run: where rhs, v and the neighbour sum of v are all +0, the
    # cell's solution is +0, and after a full Newton step (no pointwise
    # pass) the row identity leaves rounding residue there unless cleared
    g = GridSpec(4.0, 64)
    law = PowerLaw(8.0)
    f = bump_field(g, BumpSpec(height=0.55, radius=1.5))
    src = bump_field(g, BumpSpec(height=0.5, radius=1.7))
    counts = count_solver_work(monkeypatch)
    steps = []

    def checking_step_values(u_prev, g_end, dt, *args):
        u, iters = _step_values(u_prev, g_end, dt, *args)
        v = psi(u, law)
        zero = (u_prev + dt * g_end == 0.0) & (v == 0.0) & (neighbor_sum(v) == 0.0)
        assert zero.any() and u[zero].tobytes() == bytes(8 * np.count_nonzero(zero))
        steps.append(iters)
        return u, iters

    monkeypatch.setattr(pme, "_step_values", checking_step_values)
    prob = PmeProblem(grid=g, law=law, u0=f, forcing=src, horizon=0.5)
    sol = pme_solve(prob, PmeConfig(dt_init=0.01, snapshot_times=(0.125, 0.25, 0.375)))
    assert counts["pointwise"] < len(steps) + sum(steps)  # some steps skip the pass
    assert max(boundary_ring_max(u) for _, u in sol.snapshots) == 0.0


def test_sup_norm_comparison_bound():
    g = GridSpec(4.0, 48)
    f = bump_field(g, BumpSpec(height=0.7, radius=1.5))
    gb = bump_field(g, BumpSpec(height=0.4, radius=1.2))
    T = 0.5
    prob = PmeProblem(grid=g, law=PowerLaw(8.0), u0=f, forcing=gb, horizon=T)
    sol = pme_solve(prob, PmeConfig(dt_init=0.01))
    M = 0.7 + T * 0.4
    assert sol.diagnostics.sup_max <= M + 1e-6


def test_l1_contraction_and_ordering():
    g = GridSpec(4.0, 48)
    f1 = bump_field(g, BumpSpec(height=0.5, radius=1.4))
    extra = bump_field(g, BumpSpec(height=0.2, radius=0.8))
    f2 = ScalarField(g, f1.values + extra.values)
    gb = bump_field(g, BumpSpec(height=0.2, radius=1.2))
    h2 = g.spacing ** 2
    sols = []
    for f in (f1, f2):
        prob = PmeProblem(grid=g, law=PowerLaw(8.0), u0=f, forcing=gb, horizon=0.5)
        sols.append(pme_solve(prob, PmeConfig(dt_init=0.0125, snapshot_times=(0.25,))))
    d0 = h2 * np.sum(np.abs(f1.values - f2.values))
    for (t1, u1), (t2, u2) in zip(sols[0].snapshots[1:], sols[1].snapshots[1:]):
        d = h2 * np.sum(np.abs(u1.values - u2.values))
        assert d <= d0 * (1 + 1e-6)
        assert np.max(u1.values - u2.values) <= 1e-8  # f1 <= f2 stays ordered


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(16, 32),
    m=st.sampled_from([2.0, 3.0, 5.0, 8.0]),
    heights=st.tuples(st.floats(0.1, 1.5), st.floats(0.0, 0.8), st.floats(0.0, 0.6)),
    radii=st.tuples(st.floats(0.4, 1.0), st.floats(0.3, 1.0), st.floats(0.3, 1.0)),
    center=st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
)
# second bumps far below the Newton tolerance, which the relative bound
# d0 (1 + 1e-6) alone rejected
@example(16, 2.0, (1.4375, 2.220446049250313e-16, 0.0), (1.0, 1.0, 1.0), (0.0, 0.0))
@example(16, 2.0, (1.0, 7.55e-15, 0.0), (1.0, 1.0, 1.0), (0.0, 0.0))
@example(16, 2.0, (1.0, 1e-12, 0.0), (1.0, 1.0, 1.0), (0.0, 0.0))
def test_pme_invariants_on_random_bump_data(n, m, heights, radii, center):
    # every bump vanishes beyond radius 1.0 + 0.4 * sqrt(2) < 1.5, inside
    # the L/4 margin.  Each step is an L1 contraction, and each computed
    # step leaves a residual of at most NEWTON_TOL per cell, which moves u
    # by at most (2L)^2 NEWTON_TOL in L1; over two runs that adds
    # 2 steps (2L)^2 NEWTON_TOL to the relative bound of
    # experiments.l1_contraction_check
    L = 2.0
    g = GridSpec(L, n)
    f1 = bump_field(g, BumpSpec(heights[0], radii[0]))
    f2 = ScalarField(g, f1.values + bump_field(g, BumpSpec(heights[1], radii[1], center)).values)
    source = bump_field(g, BumpSpec(heights[2], radii[2], center[::-1]))
    config = PmeConfig(dt_init=0.025, snapshot_times=(0.1,))
    sols = []
    for f in (f1, f2):
        prob = PmeProblem(grid=g, law=PowerLaw(m), u0=f, forcing=source, horizon=0.2)
        sol = pme_solve(prob, config)
        assert sol.diagnostics.mass_residual_max <= 1e-8
        sols.append(sol)
    h2 = g.spacing ** 2
    d0 = h2 * np.sum(np.abs(f1.values - f2.values))
    steps = max(len(sol.diagnostics.times) - 1 for sol in sols)
    bound = d0 * (1 + 1e-6) + 2 * steps * (2 * L) ** 2 * NEWTON_TOL
    for (_, u1), (_, u2) in zip(sols[0].snapshots[1:], sols[1].snapshots[1:]):
        assert h2 * np.sum(np.abs(u1.values - u2.values)) <= bound
        assert np.max(u1.values - u2.values) <= 1e-8  # f1 <= f2 stays ordered


def test_identical_data_give_identical_runs():
    g = GridSpec(4.0, 32)
    f = bump_field(g, BumpSpec(height=0.5, radius=1.4))
    prob = PmeProblem(grid=g, law=PowerLaw(4.0), u0=f, forcing=None, horizon=0.25)
    a = pme_solve(prob, PmeConfig(dt_init=0.01))
    b = pme_solve(prob, PmeConfig(dt_init=0.01))
    assert np.array_equal(a.snapshots[-1][1].values, b.snapshots[-1][1].values)


def test_small_data_limit_m64_example():
    g = GridSpec(4.0, 64)
    f = bump_field(g, BumpSpec(height=0.5, radius=1.5))
    prob = PmeProblem(grid=g, law=PowerLaw(64.0), u0=f, forcing=None, horizon=0.5)
    sol = pme_solve(prob, PmeConfig(dt_init=0.01))
    h2 = g.spacing ** 2
    d = h2 * np.sum(np.abs(sol.snapshots[-1][1].values - f.values))
    assert d <= 0.02 * h2 * np.sum(np.abs(f.values))


def test_zero_datum_accumulates_the_source():
    g = GridSpec(4.0, 48)
    gb = bump_field(g, BumpSpec(height=1.0, radius=1.5))
    T = 0.5  # max accumulated source stays sub-critical
    prob = PmeProblem(
        grid=g, law=PowerLaw(32.0), u0=ScalarField.zeros(g),
        forcing=gb, horizon=T,
    )
    sol = pme_solve(prob, PmeConfig(dt_init=0.01))
    target = T * gb.values
    h2 = g.spacing ** 2
    d = h2 * np.sum(np.abs(sol.snapshots[-1][1].values - target))
    assert d <= 0.02 * h2 * np.sum(target)


def test_pressure_field_values():
    assert np.all(_pressure(np.zeros((16, 16)), 5.0) == 0.0)
    assert np.allclose(_pressure(np.ones((16, 16)), 2.0), 2.0)


def test_pressure_bounded_on_subcritical_run():
    g = GridSpec(4.0, 48)
    f = bump_field(g, BumpSpec(height=0.9, radius=1.5))
    prob = PmeProblem(grid=g, law=PowerLaw(8.0), u0=f, forcing=None, horizon=0.5)
    sol = pme_solve(prob, PmeConfig(dt_init=0.01))
    assert sol.diagnostics.pressure_max <= 2.1


def test_time_derivative_diagnostic_is_bounded():
    g = GridSpec(4.0, 48)
    f = bump_field(g, BumpSpec(height=0.8, radius=1.5))
    # a snapshot after every step of dt_init, so that the difference of
    # consecutive snapshots is the step's u_t
    prob = PmeProblem(grid=g, law=LAW3, u0=f, forcing=None, horizon=0.5)
    every_step = tuple(k / 100 for k in range(1, 50))
    sol = pme_solve(prob, PmeConfig(dt_init=0.01, snapshot_times=every_step))
    assert len(sol.diagnostics.times) == len(sol.snapshots) == 51
    h2 = g.spacing ** 2
    series = [t * h2 * np.sum(np.abs(u.values - u_prev.values)) / (t - t_prev)
              for (t_prev, u_prev), (t, u) in zip(sol.snapshots, sol.snapshots[1:])]
    assert all(np.isfinite(series))
    assert max(series) <= 100.0 * h2 * np.sum(f.values)


def test_problem_checks_the_source_when_built():
    g = GridSpec(2.0, 32)
    near_edge = np.zeros((32, 32))
    near_edge[2, 2] = 1.0
    f = bump_field(g, BumpSpec(height=0.5, radius=0.8))
    with pytest.raises(DomainError, match="forcing"):
        PmeProblem(grid=g, law=LAW3, u0=f, forcing=ScalarField(g, near_edge), horizon=1.0)
    other = bump_field(GridSpec(2.0, 24), BumpSpec(height=0.5, radius=0.8))
    with pytest.raises(ValueError, match="grid"):
        PmeProblem(grid=g, law=LAW3, u0=f, forcing=other, horizon=1.0)


def test_problem_rejects_data_near_boundary():
    g = GridSpec(2.0, 32)
    vals = np.zeros((32, 32))
    vals[2, 2] = 1.0
    with pytest.raises(ValueError):
        PmeProblem(grid=g, law=LAW3, u0=ScalarField(g, vals), forcing=None, horizon=1.0)
