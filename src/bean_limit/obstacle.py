"""Obstacle-problem solver and the large-exponent limit (mesa) profiles.

The discrete complementarity system on the grid reads, per interior cell,

    w >= 0,    -lap5(w) - q >= 0,    w * (-lap5(w) - q) = 0,

with w pinned to zero on the outermost cell ring.  It is solved by
projected SOR in red-black order: a sweep updates the red cells (i + j
even) and then the black ones (i + j odd).  The five-point stencil only
couples cells of opposite colour, so each colour is two strided-slice
updates (its two row parities), reading the neighbours as shifted
strided slices of the same array.  Sweeps stop once the largest cell
update falls below `tol` and the complementarity residuals meet their
targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import GridSpec, ScalarField, lap5_values

FEASIBILITY_TOL = 1e-10    # allowed negativity of -lap5(w) - q
COMPLEMENTARITY_TOL = 1e-10
INACTIVE_RESIDUAL_TOL = 1e-10  # |−lap5(w) − q| target on cells with w > mask_tol


class NotConverged(RuntimeError):
    """Projected SOR did not meet its targets within the sweep budget."""


@dataclass(frozen=True)
class ObstacleData:
    """Right-hand side q of the complementarity system at one fixed time."""

    q: ScalarField


@dataclass(frozen=True)
class ViResiduals:
    complementarity_max: float   # max |w * (-lap5 w - q)|
    feasibility_min: float       # min (-lap5 w - q), should be >= -tol
    inactive_residual_max: float  # max |-lap5 w - q| where w > mask_tol


@dataclass(frozen=True)
class ViSolution:
    w: ScalarField
    noncoincidence_mask: np.ndarray
    residuals: ViResiduals
    iterations: int
    mask_tol: float

    def __post_init__(self):
        mask = np.asarray(self.noncoincidence_mask, dtype=bool)
        mask.setflags(write=False)
        object.__setattr__(self, "noncoincidence_mask", mask)


def _auto_relaxation(n: int) -> float:
    return 2.0 / (1.0 + math.sin(math.pi / n))


def _vi_residuals(w: np.ndarray, q: np.ndarray, h: float, mask_tol: float) -> ViResiduals:
    interior = np.zeros(w.shape, dtype=bool)
    interior[1:-1, 1:-1] = True
    r = -lap5_values(w, h) - q
    ri = r[interior]
    wi = w[interior]
    inactive = wi > mask_tol
    return ViResiduals(
        complementarity_max=float(np.max(np.abs(wi * ri))) if wi.size else 0.0,
        feasibility_min=float(np.min(ri)) if ri.size else 0.0,
        inactive_residual_max=float(np.max(np.abs(ri[inactive]))) if inactive.any() else 0.0,
    )


def psor_solve(
    data: ObstacleData,
    relaxation: float = 1.5,
    tol: float = 1e-12,
    max_sweeps: int | None = None,
) -> ViSolution:
    """Projected SOR for the obstacle problem against the zero obstacle.

    Sweeps stop once the largest cell update falls below `tol` and the
    complementarity residuals meet their targets; NotConverged signals
    ill-scaled data or an exhausted sweep budget (default 200 * n).
    """
    if not (0.0 < relaxation < 2.0):
        raise ValueError(f"relaxation must lie in (0, 2), got {relaxation}")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    grid = data.q.grid
    n = grid.n
    h = grid.spacing
    h2 = h * h
    q = data.q.values
    if max_sweeps is None:
        max_sweeps = 200 * n

    w = np.zeros((n, n))
    omega = relaxation
    # per interior parity class, red (i + j even) before black: the cell
    # view, its left, right, upper and lower neighbour views, and h^2 q
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
        if max_update < tol:
            mask_tol = 1e-9 * max(1.0, float(np.max(w)))
            res = _vi_residuals(w, q, h, mask_tol)
            if (
                res.feasibility_min >= -FEASIBILITY_TOL
                and res.complementarity_max <= COMPLEMENTARITY_TOL
                and res.inactive_residual_max <= INACTIVE_RESIDUAL_TOL
            ):
                mask = w > mask_tol
                mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = False
                return ViSolution(
                    w=ScalarField(grid, w),
                    noncoincidence_mask=mask,
                    residuals=res,
                    iterations=sweeps,
                    mask_tol=mask_tol,
                )
    raise NotConverged(f"projected SOR did not converge in {max_sweeps} sweeps")


# -- independent radial reference -------------------------------------------


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


# -- limit profiles ----------------------------------------------------------


def _check_nonnegative(field: ScalarField, name: str):
    if float(np.min(field.values)) < -1e-12:
        raise DomainError(f"{name} must be nonnegative")


def _limit_profile(
    datum: np.ndarray, grid: GridSpec, relaxation: float | None, tol: float
) -> tuple[ScalarField, np.ndarray, ViSolution]:
    """Obstacle solve with q = datum - 1; the limit is 1 on the
    noncoincidence set and the datum elsewhere."""
    q = ScalarField(grid, datum - 1.0)
    omega = relaxation if relaxation is not None else _auto_relaxation(grid.n)
    vi = psor_solve(ObstacleData(q), relaxation=omega, tol=tol)
    mask = vi.noncoincidence_mask
    return ScalarField(grid, np.where(mask, 1.0, datum)), mask, vi


def mesa_profile(
    f: ScalarField,
    G: ScalarField,
    relaxation: float | None = None,
    tol: float = 1e-12,
) -> tuple[ScalarField, np.ndarray, ViSolution]:
    """Large-exponent limit profile from datum f and accumulated source G.

    Solves the obstacle problem with q = f + G - 1 and returns the limit
    field (1 on the noncoincidence set, f + G elsewhere), the
    noncoincidence mask and the obstacle solution.  Requires max f <= 1;
    super-critical data go through collapse_profile first.
    """
    if f.grid != G.grid:
        raise ValueError("f and G must share one grid")
    if float(np.max(np.abs(f.values))) > 1.0 + 1e-9:
        raise DomainError("mesa profile requires max |f| <= 1")
    _check_nonnegative(f, "f")
    _check_nonnegative(G, "G")
    return _limit_profile(f.values + G.values, f.grid, relaxation, tol)


def collapse_profile(
    f: ScalarField,
    relaxation: float | None = None,
    tol: float = 1e-12,
) -> tuple[ScalarField, np.ndarray, ViSolution]:
    """Instantaneous-collapse projection of possibly super-critical data.

    Solves the t = 0 obstacle problem with q = f - 1; the result equals 1
    on the noncoincidence set and f elsewhere, which is the unique
    profile the evolution collapses onto as the exponent grows.  Returns
    it with the noncoincidence mask and the obstacle solution.
    """
    _check_nonnegative(f, "f")
    return _limit_profile(f.values, f.grid, relaxation, tol)
