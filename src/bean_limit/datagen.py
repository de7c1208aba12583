"""Analytic data generators: radial bumps and stream potentials.

Scalar data use the compactly supported profile h * (1 - (r/R)^2)^2,
which is C1, radially strictly decreasing inside its support, and exactly
zero outside.  Stream potentials use the C3 profile (1 - (r/R)^2)^4,
optionally rescaled so the resulting discrete curl has a prescribed max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import GridSpec, ScalarField, VectorField2, curl_z, from_stream


@dataclass(frozen=True)
class BumpSpec:
    height: float
    radius: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError("bump radius must be positive")


@dataclass(frozen=True)
class StreamSpec:
    amplitude: float = 1.0
    width: float = 1.0
    curl_max: float | None = None  # rescale so max |curl_z(from_stream)| equals this

    def __post_init__(self):
        if not (self.width > 0):
            raise ValueError("stream width must be positive")


def bump_values(grid: GridSpec, spec: BumpSpec) -> np.ndarray:
    x, y = grid.meshgrid()
    s2 = ((x - spec.center[0]) ** 2 + (y - spec.center[1]) ** 2) / spec.radius ** 2
    return spec.height * np.clip(1.0 - s2, 0.0, None) ** 2


def bump_field(grid: GridSpec, spec: BumpSpec) -> ScalarField:
    return ScalarField(grid, bump_values(grid, spec))


def disk_field(grid: GridSpec, inside: float, outside: float, radius: float) -> ScalarField:
    x, y = grid.meshgrid()
    r2 = x ** 2 + y ** 2
    return ScalarField(grid, np.where(r2 < radius ** 2, inside, outside))


def stream_field(grid: GridSpec, spec: StreamSpec) -> ScalarField:
    x, y = grid.meshgrid()
    r2 = x ** 2 + y ** 2
    vals = spec.amplitude * np.clip(1.0 - r2 / spec.width ** 2, 0.0, None) ** 4
    phi = ScalarField(grid, vals)
    if spec.curl_max is not None:
        peak = float(np.max(np.abs(curl_z(from_stream(phi)).values)))
        if peak == 0.0:
            raise DomainError("cannot normalize a stream with zero curl")
        phi = ScalarField(grid, vals * (spec.curl_max / peak))
    return phi


def field_from_stream(grid: GridSpec, spec: StreamSpec) -> VectorField2:
    return from_stream(stream_field(grid, spec))


def accumulated_source(g: ScalarField | None, t: float, grid: GridSpec) -> ScalarField:
    """t * g, the source a constant g accumulates over [0, t]; zeros without one."""
    if g is None:
        return ScalarField.zeros(grid)
    return ScalarField(grid, t * g.values)


def random_admissible_field(grid: GridSpec, rng: np.random.Generator) -> VectorField2:
    """Random divergence-free field with max |curl| rescaled to 0.9.

    Built from a random combination of three compact stream bumps placed well
    inside the domain, so admissibility is exact by construction.
    """
    L = grid.half_width
    x, y = grid.meshgrid()
    vals = np.zeros((grid.n, grid.n))
    for _ in range(3):
        cx, cy = rng.uniform(-0.4 * L, 0.4 * L, size=2)
        width = rng.uniform(0.25 * L, 0.5 * L)
        amp = rng.uniform(-1.0, 1.0)
        r2 = (x - cx) ** 2 + (y - cy) ** 2
        vals += amp * np.clip(1.0 - r2 / width ** 2, 0.0, None) ** 4
    phi = ScalarField(grid, vals)
    H = from_stream(phi)
    peak = float(np.max(np.abs(curl_z(H).values)))
    if peak == 0.0:
        return H
    scale = 0.9 / peak
    return from_stream(ScalarField(grid, vals * scale))
