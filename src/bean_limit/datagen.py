"""Analytic data generators: radial bumps and stream potentials.

Scalar data use the compactly supported profile h * (1 - (r/R)^2)^2,
which is C1, radially strictly decreasing inside its support, and exactly
zero outside.  Stream potentials use the C3 profile (1 - (r/R)^2)^4,
optionally rescaled so the resulting discrete curl has a prescribed max.
Random test fields draw from Pcg64, numpy's default_rng stream rebuilt in
pure Python, so a run never imports numpy.random.
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


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


class Pcg64:
    """The uniform draws of np.random.default_rng(seed), bit for bit.

    numpy seeds PCG64 through SeedSequence, which hashes the seed's 32-bit
    words (least significant first) into a pool of four words and expands
    the pool into the 128-bit LCG state and increment; each draw steps the
    LCG and outputs its XSL-RR permutation.  Importing numpy.random for
    these draws costs a CLI run about 6 MB of resident memory.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        words = [seed & _M32]
        while seed >> 32:
            seed >>= 32
            words.append(seed & _M32)
        hash_a = 0x43B0D7E5  # this and the hex literals below are SeedSequence's constants

        def hashmix(value: int) -> int:
            nonlocal hash_a
            value ^= hash_a
            hash_a = hash_a * 0x931E8875 & _M32
            value = value * hash_a & _M32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        hash_b = 0x8B51F9DD
        state = []
        for i in range(8):
            value = pool[i % 4] ^ hash_b
            hash_b = hash_b * 0x58F38DED & _M32
            value = value * hash_b & _M32
            state.append(value ^ value >> 16)
        s64 = [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]
        self._inc = (s64[2] << 64 | s64[3]) << 1 & _M128 | 1
        # PCG's seeding: step from 0, add the initial state, step again
        self._state = ((self._inc + (s64[0] << 64 | s64[1])) * _PCG_MULT + self._inc) & _M128

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def uniform(self, low: float, high: float) -> float:
        """numpy's uniform: low + (high - low) times a 53-bit double in [0, 1)."""
        return low + (high - low) * ((self._next64() >> 11) * 2.0 ** -53)


def random_admissible_field(grid: GridSpec, rng: Pcg64 | np.random.Generator) -> VectorField2:
    """Random divergence-free field with max |curl| rescaled to 0.9.

    Built from a random combination of three compact stream bumps placed well
    inside the domain, so admissibility is exact by construction.
    """
    L = grid.half_width
    x, y = grid.meshgrid()
    vals = np.zeros((grid.n, grid.n))
    for _ in range(3):
        cx = rng.uniform(-0.4 * L, 0.4 * L)
        cy = rng.uniform(-0.4 * L, 0.4 * L)
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
