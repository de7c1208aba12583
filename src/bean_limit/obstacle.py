"""Obstacle-problem solver and the large-exponent limit (mesa) profiles.

The discrete complementarity system on the grid reads, per interior cell,

    w >= 0,    -lap5(w) - q >= 0,    w * (-lap5(w) - q) = 0,

with w pinned to zero on the outermost cell ring.  It is solved by
projected SOR in red-black order: a sweep updates the red cells (i + j
even) and then the black ones (i + j odd).  The five-point stencil only
couples cells of opposite colour, so each colour is one Jacobi update
from the other.  During the sweeps w lives in the parity planes of
redblack.RedBlackSystem.  Every slot that holds no interior cell carries
h^2 q = -inf, which the projection turns into +0, so the ring stays
pinned without a mask.  Each solve relaxes at the factor `_relaxation`
takes from the datum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import GridSpec, ScalarField, lap5_values
from .redblack import add_neighbors, red_black_system

FEASIBILITY_TOL = 1e-10    # allowed negativity of -lap5(w) - q
COMPLEMENTARITY_TOL = 1e-10
INACTIVE_RESIDUAL_TOL = 1e-10  # |−lap5(w) − q| target on cells with w > mask_tol
UPDATE_TOL = 1e-12  # largest cell update of a sweep before the residuals are tested
SWEEPS_PER_SIDE = 200  # sweep budget: SWEEPS_PER_SIDE * n sweeps on n cells per side


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


def _vi_residuals(w: np.ndarray, q: np.ndarray, h: float, mask_tol: float) -> ViResiduals:
    ri = (-lap5_values(w, h) - q)[1:-1, 1:-1]
    wi = w[1:-1, 1:-1]
    inactive = wi > mask_tol
    return ViResiduals(
        complementarity_max=float(np.max(np.abs(wi * ri))),
        feasibility_min=float(np.min(ri)),
        inactive_residual_max=float(np.max(np.abs(ri[inactive]))) if inactive.any() else 0.0,
    )


def _relaxation(q: np.ndarray) -> float:
    """Young's SOR factor 2 / (1 + sin(pi/k)) for the plateau {w > 0}: its outflux,
    sum q over it, is positive, so it holds at most the A cells that keep the running
    sum of decreasing q positive, and k errs wide, the side that costs SOR less."""
    area = np.count_nonzero(np.cumsum(np.sort(q[1:-1, 1:-1], axis=None)[::-1]) > 0.0)
    k = min(q.shape[0], max(2.0, 1.5 * math.sqrt(area)))
    return 2.0 / (1.0 + math.sin(math.pi / k))


def psor_solve(data: ObstacleData) -> ViSolution:
    """Projected SOR for the obstacle problem against the zero obstacle.

    Sweeps stop once the largest cell update falls below UPDATE_TOL and
    the complementarity residuals meet their targets; NotConverged signals
    ill-scaled data or an exhausted sweep budget of SWEEPS_PER_SIDE * n.
    """
    grid = data.q.grid
    n = grid.n
    h = grid.spacing
    h2 = h * h
    q = data.q.values
    max_sweeps = SWEEPS_PER_SIDE * n

    system = red_black_system(n)
    hq_grid = np.full((n, n), -np.inf)
    hq_grid[1:n - 1, 1:n - 1] = h2 * q[1:n - 1, 1:n - 1]
    planes, t = (np.zeros(system.shape), np.zeros(system.shape)), np.zeros(system.shape)
    # per colour, red before black: the plan of its neighbour sum into t, and
    # the cell runs of w and h^2 q, which each operation updates in one call
    classes = []
    for colour in (0, 1):
        hq = np.full(system.shape, -np.inf)
        system.gather(hq_grid, hq, colour)
        classes.append((system.neighbor_plan(planes[1 - colour], t, colour),
                        system.cell_run(planes[colour]), system.cell_run(hq)))
    t = system.cell_run(t)
    d = np.empty((2, t.size))
    zero, quarter, omega = np.array(0.0), np.array(0.25), np.array(_relaxation(q))

    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        for (plan, wc, hqc), dc in zip(classes, d):
            # wc + omega (0.25 (left + right + up + down + hq) - wc), projected
            add_neighbors(plan)
            t += hqc
            np.multiply(quarter, t, out=t)
            t -= wc
            np.multiply(omega, t, out=t)
            np.add(wc, t, out=t)
            np.maximum(zero, t, out=t)
            np.subtract(t, wc, out=dc)
            wc[...] = t
        max_update = float(np.maximum.reduce(np.absolute(d, out=d), axis=None))
        if max_update < UPDATE_TOL:
            w = system.scatter(*planes)
            mask_tol = 1e-9 * max(1.0, float(np.max(w)))
            res = _vi_residuals(w, q, h, mask_tol)
            if (
                res.feasibility_min >= -FEASIBILITY_TOL
                and res.complementarity_max <= COMPLEMENTARITY_TOL
                and res.inactive_residual_max <= INACTIVE_RESIDUAL_TOL
            ):
                return ViSolution(
                    w=ScalarField(grid, w),
                    noncoincidence_mask=w > mask_tol,
                    residuals=res,
                    iterations=sweeps,
                    mask_tol=mask_tol,
                )
    raise NotConverged(f"projected SOR did not converge in {max_sweeps} sweeps")


# -- limit profiles ----------------------------------------------------------


def _check_nonnegative(field: ScalarField, name: str):
    if float(np.min(field.values)) < -1e-12:
        raise DomainError(f"{name} must be nonnegative")


def _limit_profile(datum: np.ndarray, grid: GridSpec) -> tuple[ScalarField, np.ndarray, ViSolution]:
    """Obstacle solve with q = datum - 1; the limit is 1 on the
    noncoincidence set and the datum elsewhere."""
    q = ScalarField(grid, datum - 1.0)
    vi = psor_solve(ObstacleData(q))
    mask = vi.noncoincidence_mask
    return ScalarField(grid, np.where(mask, 1.0, datum)), mask, vi


def mesa_profile(f: ScalarField, G: ScalarField) -> tuple[ScalarField, np.ndarray, ViSolution]:
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
    return _limit_profile(f.values + G.values, f.grid)


def collapse_profile(f: ScalarField) -> tuple[ScalarField, np.ndarray, ViSolution]:
    """Instantaneous-collapse projection of possibly super-critical data.

    Solves the t = 0 obstacle problem with q = f - 1; the result equals 1
    on the noncoincidence set and f elsewhere, which is the unique
    profile the evolution collapses onto as the exponent grows.  Returns
    it with the noncoincidence mask and the obstacle solution.
    """
    _check_nonnegative(f, "f")
    return _limit_profile(f.values, f.grid)
