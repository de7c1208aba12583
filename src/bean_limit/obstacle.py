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
    f: ScalarField, tol: float = 1e-12
) -> tuple[ScalarField, np.ndarray, ViSolution]:
    """Instantaneous-collapse projection of possibly super-critical data.

    Solves the t = 0 obstacle problem with q = f - 1; the result equals 1
    on the noncoincidence set and f elsewhere, which is the unique
    profile the evolution collapses onto as the exponent grows.  Returns
    it with the noncoincidence mask and the obstacle solution.
    """
    _check_nonnegative(f, "f")
    return _limit_profile(f.values, f.grid, None, tol)
