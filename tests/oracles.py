"""Independent reference checks that only the tests use.

`radial_obstacle_oracle` solves the radial complementarity problem on a
fine 1-d mesh, as a reference for the 2-d obstacle solver;
`monotonicity_check` audits a radial PME run for radial and temporal
monotonicity; `flat_top_field` is test data with a plateau.
`strided_psor_solve` and `allocating_pointwise_exact` are the earlier
forms of the obstacle sweep and the pointwise PME kernel, kept as
bit-for-bit references for the production kernels.
`jacobi_newton_system` is the whole-grid Newton system with the Jacobi
preconditioner, the reference for pme's red-black reduced solves.
"""

import math
from dataclasses import dataclass

import numpy as np

from bean_limit.datagen import BumpSpec, bump_values
from bean_limit.experiments import (
    Report,
    at_most,
    outward_monotone_defect,
    require_radial_monotone_data,
)
from bean_limit import obstacle
from bean_limit.fields import GridSpec, ScalarField, abs_pow, neighbor_sum, pow_into
from bean_limit.obstacle import NotConverged, ObstacleData, ViSolution
from bean_limit.pme import JACOBIAN_FLOOR, POINTWISE_MAX_ITERS, NewtonDiverged, PmeSolution


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise-linear radial function from the 1-d oracle."""

    r: np.ndarray
    w: np.ndarray

    def __call__(self, radii) -> np.ndarray:
        return np.interp(np.asarray(radii, dtype=float), self.r, self.w)


def radial_obstacle_oracle(
    q_profile,
    r_max: float,
    n1d: int,
    tol: float = 1e-12,
    max_sweeps: int | None = None,
) -> RadialProfile:
    """Reference solve of the radial complementarity problem.

    Discretizes -(1/r)(r w')' >= q, w >= 0 with w'(0) = 0, w(r_max) = 0 on
    a fine 1-d mesh (finite volumes in the symmetric weighted form) and
    runs projected SOR with odd-even ordering, which vectorizes cleanly.
    Used only to generate reference values for the 2-d solver tests.
    """
    if n1d < 1000:
        raise ValueError("oracle needs n1d >= 1000 for reference quality")
    dr = r_max / n1d
    r = dr * np.arange(n1d + 1)
    q = np.asarray([float(q_profile(rk)) for rk in r])

    # symmetric weighted rows: volume weight dr^2/8 at the center cell,
    # r_k * dr elsewhere; Dirichlet w = 0 at the outer node
    r_half_up = r + 0.5 * dr
    r_half_dn = np.maximum(r - 0.5 * dr, 0.0)
    upper = r_half_up / dr          # coupling k -> k+1
    lower = r_half_dn / dr          # coupling k -> k-1
    diag = upper + lower
    diag[0] = upper[0]
    vol = r * dr
    vol[0] = dr * dr / 8.0
    b = q * vol

    if max_sweeps is None:
        max_sweeps = 50 * n1d
    # reference-quality targets in operator units; the row scaling by the
    # cell volume amplifies roundoff near r_max, so the 2-d targets do not
    # transfer (the oracle's own discretization error is O(1/n1d) anyway)
    residual_tol = 1e-8
    omega = 2.0 / (1.0 + math.sin(math.pi / n1d))
    w = np.zeros(n1d + 1)

    idx = np.arange(n1d + 1)
    colors = [idx[(idx % 2 == 0) & (idx < n1d)], idx[(idx % 2 == 1) & (idx < n1d)]]

    def color_update(ks):
        wc = w[ks]
        nb = np.zeros_like(wc)
        has_left = ks >= 1
        nb[has_left] += lower[ks[has_left]] * w[ks[has_left] - 1]
        nb += upper[ks] * w[ks + 1]
        target = (nb + b[ks]) / diag[ks]
        new = np.maximum(0.0, wc + omega * (target - wc))
        w[ks] = new
        return float(np.max(np.abs(new - wc)))

    for sweep in range(1, max_sweeps + 1):
        max_update = max(color_update(colors[0]), color_update(colors[1]))
        if max_update < tol:
            resid = diag * w - b
            resid[:-1] -= upper[:-1] * w[1:]
            resid[1:] -= lower[1:] * w[:-1]
            resid = resid / vol          # back to operator units
            inactive = w > 1e-9 * max(1.0, float(np.max(w)))
            ok = (
                float(np.min(resid[:-1])) >= -residual_tol
                and float(np.max(np.abs((w * resid)[:-1]))) <= residual_tol
                and (
                    not inactive[:-1].any()
                    or float(np.max(np.abs(resid[:-1][inactive[:-1]]))) <= residual_tol
                )
            )
            if ok:
                return RadialProfile(r=r, w=w)
    raise NotConverged(f"radial oracle did not converge in {max_sweeps} sweeps")


def monotonicity_check(solution: PmeSolution) -> Report:
    """Radial and temporal monotonicity of a run under the monotone-growth
    hypothesis, verified discretely on the supplied data first."""
    problem = solution.problem
    f = solution.snapshots[0][1]
    require_radial_monotone_data(f, problem.forcing, problem.law.exponent)

    report = Report(name="monotonicity-check")
    radial_defect = max(outward_monotone_defect(u) for _, u in solution.snapshots)
    time_defect = 0.0
    for (_, u_a), (_, u_b) in zip(solution.snapshots, solution.snapshots[1:]):
        time_defect = max(time_defect, float(np.max(u_a.values - u_b.values)))
    report.add_metric("radial_defect_max", radial_defect)
    report.add_metric("time_defect_max", time_defect)
    report.judge("radially_non_increasing", ["radial_defect_max"], at_most(1e-8))
    report.judge("time_monotone", ["time_defect_max"], at_most(1e-8))
    return report


def flat_top_field(grid: GridSpec, spec: BumpSpec, cap: float) -> ScalarField:
    """Bump clipped at `cap`, flat near the center."""
    return ScalarField(grid, np.minimum(bump_values(grid, spec), cap))


def strided_psor_solve(data: ObstacleData, relaxation: float | None = None) -> ViSolution:
    """`obstacle.psor_solve` with each parity class updated through
    strided views of one (n, n) array: four strided-slice updates per
    sweep, the neighbours read as shifted strided slices, the ring never
    written."""
    grid = data.q.grid
    n = grid.n
    if relaxation is None:
        relaxation = 2.0 / (1.0 + math.sin(math.pi / n))
    h = grid.spacing
    h2 = h * h
    q = data.q.values
    max_sweeps = obstacle.SWEEPS_PER_SIDE * n

    w = np.zeros((n, n))
    omega = relaxation
    classes = []
    for r, c in ((1, 1), (2, 2), (1, 2), (2, 1)):
        views = [w[r + dr:n - 1 + dr:2, c + dc:n - 1 + dc:2]
                 for dr, dc in ((0, 0), (0, -1), (0, 1), (-1, 0), (1, 0))]
        classes.append((*views, h2 * q[r:n - 1:2, c:n - 1:2]))

    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        max_update = 0.0
        for wc, left, right, up, down, hq in classes:
            target = 0.25 * (left + right + up + down + hq)
            new = np.maximum(0.0, wc + omega * (target - wc))
            max_update = max(max_update, float(np.max(np.abs(new - wc))))
            wc[...] = new
        if max_update < obstacle.UPDATE_TOL:
            mask_tol = 1e-9 * max(1.0, float(np.max(w)))
            res = obstacle._vi_residuals(w, q, h, mask_tol)
            if (
                res.feasibility_min >= -obstacle.FEASIBILITY_TOL
                and res.complementarity_max <= obstacle.COMPLEMENTARITY_TOL
                and res.inactive_residual_max <= obstacle.INACTIVE_RESIDUAL_TOL
            ):
                return ViSolution(
                    w=ScalarField(grid, w),
                    noncoincidence_mask=w > mask_tol,
                    residuals=res,
                    iterations=sweeps,
                    mask_tol=mask_tol,
                )
    raise NotConverged(f"projected SOR did not converge in {max_sweeps} sweeps")


def allocating_pointwise_exact(v: np.ndarray, rhs: np.ndarray, dt: float, m: float, h2: float) -> np.ndarray:
    """`pme._pointwise_exact` with fresh temporaries for f, the slope, the
    step and both stop tests in every Newton iteration."""
    a = 4.0 * dt / h2
    b = rhs + (dt / h2) * neighbor_sum(v)
    babs = np.abs(b)
    s = np.minimum(babs, abs_pow(babs / a, 1.0 / m))
    ftol = 1e-16 * (1.0 + babs)
    sm1, live = np.empty_like(s), np.empty(s.shape, dtype=bool)
    last_step = math.inf
    for _ in range(POINTWISE_MAX_ITERS):
        pow_into(s, m - 1.0, sm1, live)
        f = s + a * (s * sm1) - babs
        if np.all(np.abs(f) <= ftol):
            return np.sign(b) * s
        ds = f / (1.0 + a * m * sm1)
        s -= ds
        np.clip(s, 0.0, None, out=s)
        np.abs(ds, out=ds)
        step = float(np.max(ds))
        if step >= last_step or np.all(ds <= 4e-16 * np.maximum(1.0, s)):
            return np.sign(b) * s
        last_step = step
    raise NewtonDiverged(f"pointwise Newton made no stop in {POINTWISE_MAX_ITERS} iterations")


def jacobi_newton_system(v: np.ndarray, inv_m: float, dt: float, h2: float):
    """(diag_jac, apply_jac, apply_minv) of the Newton system (diag_phi + dt A) dv = -res
    on the whole grid, allocating: the system that pme._newton_direction solves on
    the red-black reduced cells, and Jacobi-PCG's preconditioner for it."""
    diag_phi = inv_m * np.maximum(np.abs(v), JACOBIAN_FLOOR) ** (inv_m - 1.0)
    diag_jac = diag_phi + dt * 4.0 / h2

    def apply_jac(w):
        return (neighbor_sum(w) - w * 4.0) * (-dt / h2) + diag_phi * w

    def apply_minv(r):
        return r / diag_jac

    return diag_jac, apply_jac, apply_minv
