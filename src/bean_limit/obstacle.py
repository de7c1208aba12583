"""Obstacle-problem solver and the large-exponent limit (mesa) profiles.

The discrete complementarity system on the grid reads, per interior cell,

    w >= 0,    -lap5(w) - q >= 0,    w * (-lap5(w) - q) = 0,

with w pinned to zero on the outermost cell ring.  It is solved by
projected SOR in red-black order: a sweep updates the red cells (i + j
even) and then the black ones (i + j odd).  The five-point stencil only
couples cells of opposite colour, so each of the four parity classes
w[pr::2, pc::2] is one Jacobi update from the other colour.  During the
sweeps w lives in four parity planes, each stored flat in R x C slots
(R = C = ceil(n/2)) with C + 1 zero slots before and after, so every
neighbour of a class is a contiguous slice of an opposite-colour plane
at a fixed offset: left and right at -1/0 or 0/+1, up and down at -C/0
or 0/+C.  Ring and off-grid slots carry h^2 q = -inf, which the
projection turns into +0, so the ring stays pinned without a mask.
Sweeps stop once the largest cell update falls below UPDATE_TOL and the
complementarity residuals meet their targets.
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


def psor_solve(data: ObstacleData, relaxation: float | None = None) -> ViSolution:
    """Projected SOR for the obstacle problem against the zero obstacle.

    Sweeps stop once the largest cell update falls below UPDATE_TOL and
    the complementarity residuals meet their targets; NotConverged signals
    ill-scaled data or an exhausted sweep budget of SWEEPS_PER_SIDE * n.
    The relaxation defaults to 2 / (1 + sin(pi/n)), optimal SOR for the
    five-point Laplacian on n cells per side.
    """
    grid = data.q.grid
    n = grid.n
    if relaxation is None:
        relaxation = 2.0 / (1.0 + math.sin(math.pi / n))
    if not (0.0 < relaxation < 2.0):
        raise ValueError(f"relaxation must lie in (0, 2), got {relaxation}")
    h = grid.spacing
    h2 = h * h
    q = data.q.values
    max_sweeps = SWEEPS_PER_SIDE * n

    # the parity planes w[pr::2, pc::2] in one flat buffer, rows x rows
    # slots each, with rows + 1 zero slots before, between and after them
    rows = (n + 1) // 2
    size, pad = rows * rows, rows + 1
    buf = np.zeros(4 * (size + pad) + pad)

    def plane(pr: int, pc: int, offset: int = 0) -> np.ndarray:
        start = pad + (2 * pr + pc) * (size + pad) + offset
        return buf[start:start + size]

    def assemble() -> np.ndarray:
        full = np.empty((2 * rows, 2 * rows))
        for pr in (0, 1):
            for pc in (0, 1):
                full[pr::2, pc::2] = plane(pr, pc).reshape(rows, rows)
        return np.ascontiguousarray(full[:n, :n])

    hq_full = np.full((2 * rows, 2 * rows), -np.inf)
    hq_full[1:n - 1, 1:n - 1] = h2 * q[1:n - 1, 1:n - 1]
    # per parity class, red (i + j even) before black: the cell plane, its
    # left, right, upper and lower neighbour slices, and h^2 q
    classes = [
        (plane(pr, pc), plane(pr, 1 - pc, pc - 1), plane(pr, 1 - pc, pc),
         plane(1 - pr, pc, (pr - 1) * rows), plane(1 - pr, pc, pr * rows),
         hq_full[pr::2, pc::2].ravel())
        for pr, pc in ((1, 1), (0, 0), (1, 0), (0, 1))
    ]
    t, d = np.empty(size), np.empty(size)
    zero, quarter, omega = np.array(0.0), np.array(0.25), np.array(relaxation)

    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        max_update = 0.0
        for wc, left, right, up, down, hq in classes:
            # wc + omega (0.25 (left + right + up + down + hq) - wc), projected
            np.add(left, right, out=t)
            t += up
            t += down
            t += hq
            np.multiply(quarter, t, out=t)
            t -= wc
            np.multiply(omega, t, out=t)
            np.add(wc, t, out=t)
            np.maximum(zero, t, out=t)
            np.subtract(t, wc, out=d)
            np.absolute(d, out=d)
            max_update = max(max_update, float(np.maximum.reduce(d)))
            wc[...] = t
        if max_update < UPDATE_TOL:
            w = assemble()
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
