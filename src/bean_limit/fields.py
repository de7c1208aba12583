"""Grids, scalar/vector fields, discrete operators and the power nonlinearity.

All fields live on a uniform cell-centered grid over the square
[-L, L]^2.  Values are stored row-major with y as the outer index, so
``values[j, i]`` is the cell centered at ``(x_i, y_j)``.  Every stencil
uses homogeneous Dirichlet ghost cells: values outside the box count
as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform square grid on [-L, L]^2 with n cells per side."""

    half_width: float
    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid needs n >= 8 cells per side, got {self.n}")
        if not (0 < self.half_width < np.inf):
            raise ValueError(f"grid half-width must be positive and finite, got {self.half_width}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n

    def cell_centers(self) -> np.ndarray:
        """1-d array of cell-center coordinates (same for both axes)."""
        h = self.spacing
        return -self.half_width + h * (np.arange(self.n) + 0.5)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays with X[j, i] = x_i, Y[j, i] = y_j."""
        c = self.cell_centers()
        return np.meshgrid(c, c, indexing="xy")


@dataclass(frozen=True)
class ScalarField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"field shape {vals.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite entries")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def zeros(grid: GridSpec) -> "ScalarField":
        return ScalarField(grid, np.zeros((grid.n, grid.n)))


@dataclass(frozen=True)
class VectorField2:
    """In-plane pair (h1, h2); the out-of-plane component is identically zero."""

    comp1: ScalarField
    comp2: ScalarField

    def __post_init__(self):
        if self.comp1.grid != self.comp2.grid:
            raise ValueError("vector components must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.comp1.grid


EXPONENT_CAP = 96  # double precision loses psi accuracy near |u| = 1 beyond this


@dataclass(frozen=True)
class PowerLaw:
    """Odd power nonlinearity psi(s) = sign(s) |s|^m with m > 1."""

    exponent: float

    def __post_init__(self):
        if not (self.exponent > 1):
            raise ValueError(f"power-law exponent must exceed 1, got {self.exponent}")


# -- raw-array stencils (zero ghost cells) ----------------------------------


def neighbor_sum(a: np.ndarray) -> np.ndarray:
    """Sum of the four axis neighbors, zero ghosts outside.

    Each cell gets 0 + left + right + below + above, the neighbors outside
    the box skipped, so the sum is never -0.  a may be a stack of fields.
    The x-neighbors run over the flattened arrays and the edge columns are
    then redone, as in DiffPlan.
    """
    a = np.ascontiguousarray(a)
    out = np.empty_like(a)
    af, of = a.reshape(-1), out.reshape(-1)
    np.add(af[:-1], 0.0, out=of[1:])
    of[1:-1] += af[2:]
    np.add(a[..., 1], 0.0, out=out[..., 0])
    np.add(a[..., -2], 0.0, out=out[..., -1])
    out[..., 1:, :] += a[..., :-1, :]
    out[..., :-1, :] += a[..., 1:, :]
    return out


def lap5_values(a: np.ndarray, h: float) -> np.ndarray:
    """Five-point Laplacian with zero ghost cells; exact on quadratics."""
    out = neighbor_sum(a)
    out -= 4.0 * a
    out *= 1.0 / (h * h)
    return out


class DiffPlan:
    """Central difference of a along x (axis -1) or y (axis -2) into out,
    with every shifted view bound once; calling the plan refills out from
    a's current values and returns out.

    Each cell gets ((a[i+1] + 0.0) - a[i-1]) * (1/(2h)), the neighbors
    outside the box zero.  Adding 0.0 maps -0 to +0: a difference of
    equal neighbors is always +0.  a may be a stack of fields; a and out
    must be C-contiguous and must not overlap.  The x-differences run over
    the flattened arrays, whose shifts wrap across row ends, and the two
    edge columns are then redone.  The constants are bound as 0-d arrays,
    which a ufunc takes faster than Python floats.
    """

    def __init__(self, a: np.ndarray, h: float, out: np.ndarray, axis: int):
        if not (a.flags.c_contiguous and out.flags.c_contiguous):
            raise ValueError("central differences need C-contiguous arrays")
        if np.may_share_memory(a, out):
            raise ValueError("central differences need an out that does not overlap a")
        zero = np.array(0.0)
        if axis == -1:
            af, of = a.reshape(-1), out.reshape(-1)
            self.ops = [
                (np.add, af[1:], zero, of[:-1]),
                (np.subtract, of[1:-1], af[:-2], of[1:-1]),
                (np.add, a[..., 1], zero, out[..., 0]),
                (np.subtract, zero, a[..., -2], out[..., -1]),
            ]
        elif axis == -2:
            self.ops = [
                (np.add, a[..., 1:, :], zero, out[..., :-1, :]),
                (np.subtract, out[..., 1:-1, :], a[..., :-2, :], out[..., 1:-1, :]),
                (np.subtract, zero, a[..., -2, :], out[..., -1, :]),
            ]
        else:
            raise ValueError(f"central differences run along axis -1 or -2, got {axis}")
        self.ops.append((np.multiply, out, np.array(1.0 / (2.0 * h)), out))
        self.out = out

    def __call__(self) -> np.ndarray:
        for op, x, y, out in self.ops:
            op(x, y, out)
        return self.out


def ddx_values(a: np.ndarray, h: float) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return DiffPlan(a, h, np.empty_like(a), -1)()


def ddy_values(a: np.ndarray, h: float) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return DiffPlan(a, h, np.empty_like(a), -2)()


# -- field-level operators ---------------------------------------------------


def curl_z(H: VectorField2) -> ScalarField:
    """Out-of-plane curl d(h2)/dx - d(h1)/dy by central differences."""
    h = H.grid.spacing
    w = ddx_values(H.comp2.values, h) - ddy_values(H.comp1.values, h)
    return ScalarField(H.grid, w)


def divergence(H: VectorField2) -> ScalarField:
    h = H.grid.spacing
    d = ddx_values(H.comp1.values, h) + ddy_values(H.comp2.values, h)
    return ScalarField(H.grid, d)


def from_stream(phi: ScalarField) -> VectorField2:
    """Divergence-free field (d(phi)/dy, -d(phi)/dx) from a stream potential.

    With the central-difference pairing used here the discrete divergence
    of the result vanishes identically, including next to the boundary.
    """
    h = phi.grid.spacing
    h1 = ScalarField(phi.grid, ddy_values(phi.values, h))
    h2 = ScalarField(phi.grid, -ddx_values(phi.values, h))
    return VectorField2(h1, h2)


# -- time marching -----------------------------------------------------------


def snapshot_targets(times, horizon: float) -> tuple[list[float], float]:
    """The times after 0 that a march over [0, horizon] must land on, and eps_t.

    The targets are the requested times and the horizon, sorted, without
    repeats; a time up to 1e-12 * horizon past the horizon counts as the
    horizon.  A march has reached a target once it is within eps_t of it,
    and a step that ends within eps_t short of a target lands on it.
    """
    targets = {0.0, horizon}
    for t in times:
        if t < 0 or t > horizon + 1e-12 * horizon:
            raise ValueError(f"snapshot time {t!r} outside [0, horizon]")
        targets.add(min(t, horizon))
    return sorted(targets)[1:], 1e-12 * max(1.0, horizon)


# -- power nonlinearity ------------------------------------------------------


def pow_into(base: np.ndarray, e: float, out: np.ndarray, live: np.ndarray) -> np.ndarray:
    """base^e written into out, for e > 0 and base +0 or above; returns out.

    pow runs only where ~(base <= floor), floor = 2^(-1100/e), and the
    other cells get +0.  Below the floor base^e <= 2^-1100, far under half
    the smallest subnormal, so pow would round it to +0 as well, and zeros
    and underflows are pow's slowest inputs.  For e <= 1 the floor itself
    rounds to 0, so only zeros are skipped there.  NaN and inf reach pow,
    so the result is bit-identical to base ** e.  live is a boolean work
    array of base's shape; out must not overlap base.
    """
    if not (e > 0):
        raise ValueError(f"pow_into needs a positive exponent, got {e}")
    np.less_equal(base, 2.0 ** (-1100.0 / e), out=live)
    np.logical_not(live, out=live)
    out.fill(0.0)
    return np.power(base, e, out=out, where=live)


def abs_pow(x, e: float) -> np.ndarray:
    """|x|^e for e > 0, bit-identical to np.abs(x) ** e; see pow_into.

    A scalar x takes numpy's scalar pow, as np.abs(x) ** e does: the array
    pow differs from it in the last bit on a few percent of inputs.
    """
    base = np.abs(np.asarray(x, dtype=float))
    if base.ndim == 0:
        return base ** e
    return pow_into(base, e, np.empty_like(base), np.empty(base.shape, dtype=bool))


def psi(s, law: PowerLaw):
    """Odd power map sign(s) |s|^m; accepts scalars or arrays."""
    s = np.asarray(s, dtype=float)
    out = np.sign(s) * abs_pow(s, law.exponent)
    return out if out.ndim else float(out)


def boundary_ring_max(u: ScalarField) -> float:
    """Max |u| over the outermost cell ring, the truncation-quality diagnostic."""
    v = np.abs(u.values)
    return float(max(v[0, :].max(), v[-1, :].max(), v[:, 0].max(), v[:, -1].max()))


def support_margin_ok(u: ScalarField) -> bool:
    """True when u vanishes, to 1e-12 relative, within L/4 of the boundary."""
    grid = u.grid
    c = np.abs(grid.cell_centers())
    limit = 0.75 * grid.half_width
    outside = (c[None, :] > limit) | (c[:, None] > limit)
    scale = max(1.0, float(np.max(np.abs(u.values))))
    return float(np.max(np.abs(u.values[outside]))) <= 1e-12 * scale
