"""Implicit solver for the degenerate diffusion law u_t - lap psi_m(u) = g.

Each backward-Euler step is solved in the transformed variable
v = psi_m(u), where the linear part is symmetric positive definite and
the inverse map psi_m^-1(v) = sign(v) |v|^(1/m) is mild.  The per-cell system

    psi_m^-1(v) - dt * lap5(v) = u_prev + dt * g

is driven to a small max-norm residual by damped Newton from a
pointwise exact guess.  The pointwise pass (nonlinear Jacobi) runs again
only after a damped or failed Newton step.  Cells where v, the right side
and the neighbour sum of v are all 0 hold +0, and a right side >= 0 gives
a solution >= 0.  Each Newton direction is one conjugate-gradient solve,
matrix free, and a CG iteration allocates nothing.  The solve stops at
the accuracy the outer max-norm test can see (inexact Newton), never
tighter than CG_TOL.  The
five-point Jacobian couples only cells of opposite colour (red i + j even,
black i + j odd), so every solve runs CG on the red-black reduced system,
the Schur complement on the black cells, in the four parity planes of the
redblack module, and recovers the red cells by back-substitution: half
the iterations of Jacobi-PCG on the whole grid, on half-size vectors.
The powers of u go through fields.abs_pow and fields.pow_into, which
skip the cells where the power rounds to +0; at large m those are most
of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, StepTooSmall
from .fields import (
    GridSpec,
    PowerLaw,
    ScalarField,
    abs_pow,
    lap5_values,
    neighbor_sum,
    pow_into,
    psi,
    snapshot_targets,
    support_margin_ok,
)
from .redblack import red_black_system

NEWTON_TOL = 1e-10  # max-norm residual target of each backward-Euler step
JACOBIAN_FLOOR = 1e-12  # |v| floor inside the derivative of psi_m^-1, caps the diagonal
POINTWISE_MAX_ITERS = 80  # scalar Newton cap in _pointwise_exact; reaching it raises
MAX_NEWTON_ITERS = 50  # damped Newton cap per step; reaching it raises NewtonDiverged
MAX_HALVINGS = 20  # dt halvings per step in pme_solve before StepTooSmall
DT_FLOOR = 2.0 ** -30  # a halved dt below DT_FLOOR * dt_init raises StepTooSmall
CG_TOL = 1e-12  # floor of the inner CG solves' relative residual target
CG_FORCING_CAP = 0.1  # loosest relative residual target of an inner CG solve
CG_NEWTON_SHARE = 0.1  # share of NEWTON_TOL a CG residual may add to the next residual
CG_MAX_ITERS = 20000  # inner CG iteration cap


class NewtonDiverged(RuntimeError):
    """Newton failed to reach the residual target; the caller should halve dt."""


@dataclass(frozen=True)
class PmeProblem:
    grid: GridSpec
    law: PowerLaw
    u0: ScalarField
    forcing: ScalarField | None  # the source g, constant in time
    horizon: float

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.u0.grid != self.grid:
            raise ValueError("initial data grid does not match problem grid")
        if not support_margin_ok(self.u0):
            raise DomainError("initial data must vanish within L/4 of the boundary")
        if self.forcing is not None:
            if self.forcing.grid != self.grid:
                raise ValueError("forcing grid does not match problem grid")
            if not support_margin_ok(self.forcing):
                raise DomainError("forcing must vanish within L/4 of the boundary")


@dataclass(frozen=True)
class PmeConfig:
    dt_init: float
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not (self.dt_init > 0):
            raise ValueError("dt_init must be positive")


@dataclass
class PmeDiagnostics:
    """The times of the accepted steps, index 0 the initial state, and
    maxima over the states at those times.

    mass_residual_max is the largest relative conservation defect
    |mass(t) - mass(0) - source| / (|mass(0)| + |source| + 1e-30); the
    source term in the scale keeps the ratio meaningful for runs started
    from zero data.  The source integral sums dt * h^2 sum(g) over the
    accepted steps, the scheme's own quadrature, so for interior-supported
    data the defect measures only the Newton convergence defect.
    sup_max is the largest max |u|, pressure_max the largest max of the
    pressure m/(m-1) |u|^(m-1).
    """

    times: list[float] = field(default_factory=list)
    mass_residual_max: float = 0.0
    sup_max: float = 0.0
    pressure_max: float = 0.0


@dataclass
class PmeSolution:
    problem: PmeProblem
    snapshots: list[tuple[float, ScalarField]]
    diagnostics: PmeDiagnostics

    def __post_init__(self):
        times = [t for t, _ in self.snapshots]
        if not times or times[0] != 0.0 or times[-1] != self.problem.horizon:
            raise ValueError("snapshots must start at 0 and end at the horizon")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")


# -- linear kernel -----------------------------------------------------------


def pcg(
    apply_op: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    apply_minv: Callable[[np.ndarray], np.ndarray],
    rtol: float,
    max_iters: int,
) -> np.ndarray:
    """Preconditioned conjugate gradients, matrix free.

    The one CG loop of the package: _newton_direction hands it the
    red-black reduced system of the redblack module.

    Aims for a relative residual of rtol.  When rounding noise makes that
    unattainable (tiny right sides in the Newton endgame), the method
    stagnates; the best iterate so far is still a valid inexact-Newton
    direction and is returned, with the outer line search as safeguard.
    Raises NewtonDiverged only when the operator loses positive
    definiteness.

    apply_op and apply_minv may return the same buffer on every call.  x,
    r and p are updated in place through one scratch vector, and the best
    iterate is kept by swapping x with a spare buffer, not by copying it.
    Inner products are multiply-then-sum, not np.dot: BLAS dot sums
    vectors above about 10,000 elements in an order that depends on the
    BLAS thread count (128^2 and 256^2 vectors differ between
    OPENBLAS_NUM_THREADS=1 and 2), so outputs would depend on the thread
    setting.  The m = 64 collapse step at dt = 1/640 converges in 26
    Newton iterations without a dt halving with these inner products and
    with np.vdot alike.
    """
    s = np.empty_like(b)

    def dot(a1, a2):
        return float(np.multiply(a1, a2, out=s).sum())

    bnorm = math.sqrt(dot(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b)
    spare = np.empty_like(b)
    r = b.copy()
    p = apply_minv(r).copy()
    rz = dot(r, p)
    target = rtol * bnorm
    best_x = x
    best_norm = bnorm
    since_best = 0
    for _ in range(max_iters):
        ap = apply_op(p)
        denom = dot(p, ap)
        if denom <= 0.0 or not math.isfinite(denom):
            raise NewtonDiverged("linear operator lost positive definiteness")
        alpha = rz / denom
        np.multiply(p, alpha, out=s)
        if x is best_x:  # x += alpha p, leaving best_x intact
            x, spare = np.add(x, s, out=spare), x
        else:
            x += s
        np.multiply(ap, alpha, out=s)
        r -= s
        rnorm = math.sqrt(dot(r, r))
        if rnorm <= target:
            return x
        if rnorm < best_norm:
            best_norm = rnorm
            best_x = x
            since_best = 0
        else:
            since_best += 1
            if since_best >= 50:
                return best_x
        z = apply_minv(r)
        rz_new = dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    return best_x


# -- single implicit step ----------------------------------------------------


def _pointwise_exact(v: np.ndarray, rhs: np.ndarray, dt: float, m: float, h2: float) -> np.ndarray:
    """Solve every cell's scalar equation exactly, neighbors frozen; returns u.

    Given b = rhs + dt/h^2 * (neighbor sum of v), the cell equation
    u + 4 dt/h^2 * psi(u) = b becomes, in s = |u|,

        s + a s^m = |b|,   a = 4 dt / h^2,

    whose left side has slope >= 1: scalar Newton from s = |b| converges
    monotonically.  Working in s rather than v = s^m matters twice over:
    no vertical tangent at the origin, and no underflow for large m
    (s^m vanishes in double precision already at moderate s).

    Newton stops at the first of: every cell passing the residual test
    |f| <= 1e-16 (1 + |b|); every cell's step at ulp level, |ds| <= 4e-16
    max(1, s); or a largest step that stops shrinking.  The first two are
    scaled per cell, so a large |b| elsewhere cannot stop a small cell
    early.  Monotone convergence makes every cell's step shrink in exact
    arithmetic, so the last rule only fires on a last-ulp oscillation.
    Reaching POINTWISE_MAX_ITERS without a stop (a NaN or inf in the data
    does) raises NewtonDiverged.
    """
    a = 4.0 * dt / h2
    b = rhs + (dt / h2) * neighbor_sum(v)
    babs = np.abs(b)
    # the root obeys s <= min(|b|, (|b|/a)^(1/m)); starting at that bound
    # keeps Newton monotone (f convex, f(s0) >= 0) and avoids overflow in
    # s^m for the huge right sides of the super-critical collapse regime
    s = np.minimum(babs, abs_pow(babs / a, 1.0 / m))
    ftol = 1e-16 * (1.0 + babs)
    # work buffers: s^(m-1), then the slope; f, then the step ds; |f|, then
    # the ulp bound; live holds pow's mask, then each stop test
    sm1, f, work = np.empty_like(s), np.empty_like(s), np.empty_like(s)
    live = np.empty(s.shape, dtype=bool)
    am, one, ulp = a * m, np.array(1.0), np.array(4e-16)
    last_step = math.inf
    for _ in range(POINTWISE_MAX_ITERS):
        # one pow per iteration: s^(m-1) serves both s^m and the slope
        pow_into(s, m - 1.0, sm1, live)
        # f = s + a (s s^(m-1)) - |b|
        np.multiply(s, sm1, out=f)
        np.multiply(a, f, out=f)
        np.add(s, f, out=f)
        f -= babs
        np.less_equal(np.absolute(f, out=work), ftol, out=live)
        if live.all():
            return np.sign(b) * s
        # ds = f / (1 + a m s^(m-1))
        np.multiply(am, sm1, out=sm1)
        sm1 += one
        ds = np.divide(f, sm1, out=f)
        s -= ds
        np.clip(s, 0.0, None, out=s)
        np.abs(ds, out=ds)
        step = float(np.maximum.reduce(ds, axis=None))
        if step >= last_step:
            return np.sign(b) * s
        np.maximum(one, s, out=work)
        np.multiply(ulp, work, out=work)
        if np.less_equal(ds, work, out=live).all():
            return np.sign(b) * s
        last_step = step
    raise NewtonDiverged(
        f"pointwise Newton made no stop in {POINTWISE_MAX_ITERS} iterations "
        f"(last step {last_step:.3e})"
    )


def _newton_direction(
    res: np.ndarray,
    res_norm: float,
    v: np.ndarray,
    inv_m: float,
    dt: float,
    h2: float,
    newton_tol: float,
) -> np.ndarray | None:
    """Newton increment dv from (diag_phi + dt A) dv = -res by CG; None
    when CG finds the Jacobian indefinite.

    CG stops at the accuracy the outer test can see.  Through the row
    identity du = -res + dt lap5(dv), a CG residual r reaches the next
    Newton residual as -dt A diag(1/diag_phi) r to first order, a map of
    max-norm gain at most K = (8 dt/h^2) / min(diag_phi).  The target
    rtol = CG_NEWTON_SHARE newton_tol / (K |res|_2) keeps that part below
    CG_NEWTON_SHARE newton_tol; it is clipped to [CG_TOL, CG_FORCING_CAP].
    While psi' is huge (super-critical m, before the collapse is done) K
    is too, and rtol is CG_TOL.

    CG runs on the red-black reduced system of the redblack module, with
    the relative target rtol |res|_2 / |rhs_S|_2 on its right side rhs_S:
    half the iterations of Jacobi-PCG on the whole grid, on half-size
    vectors.
    """
    diag_phi = inv_m * np.maximum(np.abs(v), JACOBIAN_FLOOR) ** (inv_m - 1.0)
    gain = 8.0 * dt / h2 / float(np.min(diag_phi))
    rtol = max(CG_TOL, min(CG_FORCING_CAP, CG_NEWTON_SHARE * newton_tol / (gain * res_norm)))
    # diag_phi becomes diag_jac in place: the reduced system needs no diag_phi
    diag_jac = np.add(diag_phi, dt * 4.0 / h2, out=diag_phi)
    try:
        return red_black_system(v.shape[0]).solve(res, res_norm, diag_jac, dt / h2, rtol,
                                                  pcg, CG_MAX_ITERS)
    except NewtonDiverged:
        return None


def _step_values(
    u_prev: np.ndarray,
    g_end: np.ndarray,
    dt: float,
    law: PowerLaw,
    h: float,
    newton_tol: float,
) -> tuple[np.ndarray, int]:
    """One backward-Euler step on raw arrays, to a max-norm residual of
    newton_tol; returns (u_new, newton_iters).  pme_solve passes
    NEWTON_TOL and keeps only u_new; the count is for wrappers that
    measure work, such as perfbench/tracer.py.

    The Newton linearization is formed in the transformed increment
    dv = psi'(u) du, whose system matrix diag((1/m)|v|^(1/m-1)) + dt * A
    is symmetric positive definite (A is the negative five-point
    Laplacian); the computed dv is then turned back into the primal update
    through the exact row identity du = -F + dt * lap5(dv), which stays
    meaningful at cells where v = psi(u) underflows for large m.

    The pointwise exact pass gives the first guess, and runs again after a
    Newton step only when the line search damped it (alpha < 1) or found
    no step (no descent, or CG found the Jacobian indefinite).  After an
    accepted Newton step, cells where v, rhs and the neighbour sum of v
    are all 0 are set to +0 with a zero residual: that is their exact
    solution, where the row identity leaves rounding residue (such as
    4e-204 at m = 8).  When rhs >= 0 everywhere, the solution is >= 0 (the
    discrete comparison principle), so the line search puts negative trial
    values on 0 as it does sign-crossing ones.
    """
    m = law.exponent
    inv_m = 1.0 / m
    h2 = h * h
    rhs = u_prev + dt * g_end

    def residual_of(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return u - dt * lap5_values(v, h) - rhs

    u = _pointwise_exact(psi(rhs, law), rhs, dt, m, h2)
    v = psi(u, law)
    res = residual_of(u, v)
    merit = float(np.sum(res * res))
    nonneg = bool(np.all(rhs >= 0.0))
    best_linf = math.inf
    stalled = 0

    for it in range(MAX_NEWTON_ITERS):
        linf = float(np.max(np.abs(res)))
        if linf <= newton_tol:
            return u, it
        if linf < 0.9 * best_linf:
            best_linf = linf
            stalled = 0
        else:
            stalled += 1
            if stalled > 10:
                raise NewtonDiverged(f"stalled at residual {linf:.3e}")

        # Damped Newton on the sum-of-squares merit.  Sign-crossing cells
        # land exactly on the kink at u = 0 (the degeneracy makes crossings
        # expensive), and so do negative cells when rhs >= 0, whose exact
        # solution is >= 0.
        newton_ok = False
        delta_v = _newton_direction(res, math.sqrt(merit), v, inv_m, dt, h2, newton_tol)
        if delta_v is not None:
            delta_u = dt * lap5_values(delta_v, h) - res
            alpha = 1.0
            while alpha >= 2.0 ** -24:
                u_try = u + alpha * delta_u
                crossed = (np.sign(u_try) != np.sign(u)) & (u != 0.0)
                if nonneg:
                    crossed |= u_try < 0.0
                if crossed.any():
                    u_try = np.where(crossed, 0.0, u_try)
                v_try = psi(u_try, law)
                res_try = residual_of(u_try, v_try)
                merit_try = float(np.sum(res_try * res_try))
                if math.isfinite(merit_try) and merit_try <= (1.0 - 1e-4 * alpha) * merit:
                    # exact zeros: the cells whose solution is +0, residual u
                    zero = (v_try == 0.0) & (rhs == 0.0) & (neighbor_sum(v_try) == 0.0)
                    np.copyto(u_try, 0.0, where=zero)
                    np.copyto(res_try, 0.0, where=zero)
                    u, v, res, merit = u_try, v_try, res_try, float(np.sum(res_try * res_try))
                    newton_ok = True
                    break
                alpha *= 0.5
            if newton_ok and alpha == 1.0:
                continue  # a full step: no pointwise pass

        # Pointwise exact pass: solves each cell's scalar equation with
        # neighbors frozen (nonlinear Jacobi).  It contracts in the weighted
        # max norm exactly where the linearization cannot move, so it runs
        # after a damped step and is taken unconditionally when the Newton
        # step found no descent.
        u_pol = _pointwise_exact(v, rhs, dt, m, h2)
        v_pol = psi(u_pol, law)
        res_pol = residual_of(u_pol, v_pol)
        merit_pol = float(np.sum(res_pol * res_pol))
        if math.isfinite(merit_pol) and (not newton_ok or merit_pol < merit):
            u, v, res, merit = u_pol, v_pol, res_pol, merit_pol

    if float(np.max(np.abs(res))) <= newton_tol:
        return u, MAX_NEWTON_ITERS
    raise NewtonDiverged(f"no convergence in {MAX_NEWTON_ITERS} iterations")


# -- adaptive driver ---------------------------------------------------------


def pme_solve(problem: PmeProblem, config: PmeConfig) -> PmeSolution:
    """Adaptive backward-Euler integration over [0, horizon].

    dt halves on Newton failure, grows by 1.2x after three consecutive
    accepted steps (never beyond dt_init), and is clipped to land exactly
    on every requested snapshot time.  A step that still fails after
    MAX_HALVINGS halvings, or below DT_FLOOR * dt_init, raises StepTooSmall.
    """
    grid = problem.grid
    law = problem.law
    h = grid.spacing
    h2 = h * h
    m = law.exponent
    targets, eps_t = snapshot_targets(config.snapshot_times, problem.horizon)

    u = problem.u0.values.copy()
    g = problem.forcing.values if problem.forcing is not None else np.zeros_like(u)
    g_mass = float(h2 * np.sum(g))
    t = 0.0
    dt = config.dt_init
    streak = 0
    source_mass = 0.0

    diag = PmeDiagnostics()
    m0 = float(h2 * np.sum(u))

    def record(t_now, u_now):
        src = source_mass
        defect = abs(float(h2 * np.sum(u_now)) - m0 - src) / (abs(m0) + abs(src) + 1e-30)
        diag.times.append(t_now)
        diag.mass_residual_max = max(diag.mass_residual_max, defect)
        diag.sup_max = max(diag.sup_max, float(np.max(np.abs(u_now))))
        diag.pressure_max = max(diag.pressure_max, float(np.max(_pressure(u_now, m))))

    record(0.0, u)
    snapshots: list[tuple[float, ScalarField]] = [(0.0, ScalarField(grid, u))]

    for target in targets:
        while t < target - eps_t:
            dt_eff = min(dt, target - t)
            halvings = 0
            while True:
                try:
                    u, _ = _step_values(u, g, dt_eff, law, h, NEWTON_TOL)
                    break
                except NewtonDiverged:
                    halvings += 1
                    dt_eff *= 0.5
                    dt = min(dt, dt_eff)
                    streak = 0
                    if halvings > MAX_HALVINGS or dt_eff < config.dt_init * DT_FLOOR:
                        raise StepTooSmall(t, dt_eff)
            source_mass += dt_eff * g_mass
            t = target if target - (t + dt_eff) <= eps_t else t + dt_eff
            streak += 1
            if streak >= 3:
                dt = min(dt * 1.2, config.dt_init)
                streak = 0
            record(t, u)
        snapshots.append((target, ScalarField(grid, u)))

    return PmeSolution(problem, snapshots, diag)


# -- diagnostics -------------------------------------------------------------


def _pressure(u: np.ndarray, m: float) -> np.ndarray:
    return m / (m - 1.0) * abs_pow(u, m - 1.0)


# -- exact self-similar solution --------------------------------------------


def barenblatt_eval(x, t: float, law: PowerLaw, mass: float):
    """Self-similar compactly supported exact solution in 2-d with total mass `mass`.

    `x` is an (..., 2) stack or pair of coordinate arrays.  The profile
    normalization uses the shape integral
    int_0^1 (1 - y^2)^(1/(m-1)) y dy = (m-1)/(2m), so that the spatial
    integral equals `mass` for every t > 0.
    """
    if t <= 0:
        raise ValueError("Barenblatt profile needs t > 0")
    if not (mass > 0):
        raise ValueError("mass must be positive")
    m = law.exponent
    denom = 2.0 * (m - 1.0) + 2.0
    alpha = 2.0 / denom
    beta = 1.0 / denom
    # profile curvature constant; the extra 1/m is required for the profile
    # to satisfy u_t = lap(u^m) (checked by the PDE-residual test)
    kcoef = (m - 1.0) / (2.0 * m * denom)
    shape = (m - 1.0) / (2.0 * m)
    xi0 = (mass * kcoef / (2.0 * np.pi * shape)) ** ((m - 1.0) / denom)

    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValueError("evaluation expects points with a trailing axis of size 2")
    r2 = np.sum(x * x, axis=-1)
    bracket = xi0 ** 2 - kcoef * r2 * t ** (-2.0 * beta)
    out = t ** (-alpha) * np.clip(bracket, 0.0, None) ** (1.0 / (m - 1.0))
    return out if out.ndim else float(out)


def barenblatt_field(grid: GridSpec, t: float, law: PowerLaw, mass: float) -> ScalarField:
    x, y = grid.meshgrid()
    pts = np.stack([x, y], axis=-1)
    return ScalarField(grid, barenblatt_eval(pts, t, law, mass))
