"""Explicit solver for the plane-wave curl evolution system.

State is the in-plane pair H = (h1, h2); with w = curl_z(H) and the
power flux Phi = psi_{p-1}(w) the update reads

    h1 <- h1 + dt * (f1 - d(Phi)/dy),
    h2 <- h2 + dt * (f2 + d(Phi)/dx),

all derivatives central with zero ghosts, the layout of fields.GhostRows.
The mixed differences cancel exactly in the discrete divergence, so div
H is conserved to roundoff.  The march runs on a window around the
supports of H and F (_StepKernel) and gives the whole grid's outputs.
Explicit stepping is only appropriate while the effective diffusivity
psi'_{p-1}(w) stays moderate; super-critical data belong to the scalar
reduction's implicit solver instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StepTooSmall
from .fields import (
    GhostRows,
    GridSpec,
    ScalarField,
    VectorField2,
    central_difference,
    curl_z,
    divergence,
    pow_floor,
    pow_into,
    snapshot_targets,
    support_margin_ok,
)

BLOWUP_LIMIT = 10.0
DT_MIN = 1e-12  # a CFL step below this raises StepTooSmall
WINDOW_PAD = 5  # the stencil's reach of 3 cells (see _StepKernel), plus 2 of slack


class BlowUp(RuntimeError):
    """Curl magnitude exceeded the explicit-scheme guard."""

    def __init__(self, t: float, value: float):
        super().__init__(f"max |curl| = {value:.3g} exceeded {BLOWUP_LIMIT:g} at t={t:.6g}")
        self.t = t


@dataclass(frozen=True)
class CurlProblem:
    grid: GridSpec
    p: float
    H0: VectorField2
    forcing: VectorField2 | None  # the source F, constant in time
    horizon: float

    def __post_init__(self):
        if not (self.p > 2):
            raise DomainError(f"exponent p must exceed 2, got {self.p}")
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        if self.H0.grid != self.grid:
            raise ValueError("initial field grid does not match problem grid")
        div0 = float(np.max(np.abs(divergence(self.H0).values)))
        if div0 > 1e-10:
            raise ValueError(f"initial field is not divergence free (max div {div0:.2e})")
        if not support_margin_ok(curl_z(self.H0)):
            raise DomainError("curl of the initial field must vanish within L/4 of the boundary")
        if self.forcing is not None:
            if self.forcing.grid != self.grid:
                raise ValueError("forcing grid does not match problem grid")
            if float(np.max(np.abs(divergence(self.forcing).values))) > 1e-10:
                raise DomainError("forcing is not divergence free")
            if not all(map(support_margin_ok, (self.forcing.comp1, self.forcing.comp2))):
                raise DomainError("forcing must vanish within L/4 of the boundary")


@dataclass(frozen=True)
class CurlConfig:
    snapshot_times: tuple[float, ...] = ()
    cfl_safety: float = 0.9

    def __post_init__(self):
        if not (0 < self.cfl_safety <= 1):
            raise ValueError("cfl_safety must lie in (0, 1]")


@dataclass
class CurlDiagnostics:
    """The times of the steps, index 0 the initial state, and two maxima
    over the states at those times.

    div_drift_max is the largest max |div H|.  energy_ratio is the largest
    lhs / bound of the discrete energy inequality over the times with
    bound > 0.  The scheme satisfies E(t) + 2 * integral of dissipation =
    E(0) + 2 * integral of <F, H> up to the explicit-Euler injection, with
    E = h^2 sum |H|^2 and dissipation h^2 sum |w|^p, so with Cauchy-Schwarz
    and Gronwall

        lhs(t) = E(t) + 2 * diss(t) <= (E(0) + integral |F|^2) * e^t = bound(t).

    The integrals sum dt times the value at the start of each step.
    energy_ratio <= 1.05 also caps the energy-plus-dissipation budget
    sup_t E + diss by 1.05 max_t bound.  It is 0 without a time with
    bound > 0: then E(0) = 0 and there is no forcing, so H stays 0.
    """

    times: list[float] = field(default_factory=list)
    div_drift_max: float = 0.0
    energy_ratio: float = 0.0


@dataclass
class CurlSolution:
    problem: CurlProblem
    snapshots: list[tuple[float, VectorField2, ScalarField]]
    diagnostics: CurlDiagnostics

    def __post_init__(self):
        times = [t for t, *_ in self.snapshots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")


def _forcing_arrays(F: VectorField2 | None):
    """(f1, f2) of a forcing; (0.0, 0.0) without one."""
    return (F.comp1.values, F.comp2.values) if F is not None else (0.0, 0.0)


def _cfl_dt(wmax: float, m: float, h2: float, cfl_safety: float) -> float:
    """cfl_safety * h^2 / (8 psi'_m(wmax)) on Python floats, for a finite wmax >= 0;
    0 where the power overflows, so that the march stops with StepTooSmall."""
    try:
        return cfl_safety * h2 / (8.0 * (m * wmax ** (m - 1.0)) + 1e-30)
    except OverflowError:
        return 0.0


def _window(live: np.ndarray) -> tuple[slice, slice]:
    """Rows and columns of the box around the True cells of `live` padded by
    WINDOW_PAD, its shorter side widened about its middle and shifted into
    the grid; the whole grid where the box reaches past it or is empty."""
    n = live.shape[0]
    spans = [np.flatnonzero(live.any(axis=axis)) for axis in (1, 0)]
    spans = [(int(c[0]) - WINDOW_PAD, int(c[-1]) + WINDOW_PAD + 1) for c in spans if c.size]
    s = max((hi - lo for lo, hi in spans), default=n)
    if s >= n or any(lo < 0 or hi > n for lo, hi in spans):
        return slice(0, n), slice(0, n)
    return tuple(slice(o, o + s) for o in (min(max(lo - (s - hi + lo) // 2, 0), n - s)
                                           for lo, hi in spans))


class _StepKernel:
    """The forward-Euler march of one state H on the n x n grid of spacing
    h, run on a square window `win` of side s laid out as GhostRows(s, k),
    every array and view bound once per window: a step is ufunc calls only.

    Invariant: H and F are +0 on the window's edge ring and outside, and no
    cell of its 2-wide frame is live by pow_into's test |w| > pow_floor(p - 1).
    Then the zero ghosts read the true neighbours and every cell outside
    gets a +0 increment, so the march is the whole grid's, bit for bit.  The
    curl is nonzero only within one cell of H's support, so the supports of
    H and F padded by 3 cells put the invariant in place; WINDOW_PAD adds 2
    of slack.  `step` tests the frame with three max reductions (the top two
    rows, the bottom two, and the side columns with the ghost between them
    as one (s - 3, 5) view); a live cell puts the window into the whole
    grid and chooses it again.  A whole-grid window has no frame to test.

    H holds no -0, so plain differences give the bytes of curl_z and
    divergence.  The curl, |curl| and the divergence overwrite the
    differences they are made of, and three strided fills clear the ghosts
    an x-difference leaves.  The sums of |H|^2 and |w|^p run over the
    window's runs, h^2 sum |F|^2 over the grid.  A step's one pow,
    |w|^(p-1), gives the flux and, times |w|, the dissipation sum |w|^p.
    """

    def __init__(self, n: int, h: float, p: float, H, forcing: VectorField2 | None):
        self.n, self.h2, self.e = n, h * h, p - 1.0
        self.floor = pow_floor(self.e)
        # 0-d arrays, which a ufunc takes faster than Python floats
        self.dt, self.scale = np.array(0.0), np.array(1.0 / (2.0 * h))
        self.forcing = forcing
        f1, f2 = _forcing_arrays(forcing)
        self.forcing_sq = float(self.h2 * np.sum(f1 * f1 + f2 * f2))
        self.f_live = (f1 != 0) | (f2 != 0)
        self.diag = CurlDiagnostics()
        self.dissipation = self.forcing_l2 = self.e0 = 0.0
        self.full = np.zeros((3, n, n))
        self.place(H)

    def place(self, H) -> None:
        """Choose the window around H and F, load H into it and bind its views."""
        self.win = win = _window(self.f_live | (H[0] != 0) | (H[1] != 0))
        s = win[0].stop - win[0].start
        pair, one = GhostRows(s, 2), GhostRows(s, 1)
        H_buf, flux = pair.load([h[win] for h in H]), np.zeros(one.size)
        dx, dy, incr = (np.zeros(pair.size) for _ in range(3))
        self.H, self.H_run, self.incr = pair.fields(H_buf), pair.run(H_buf), pair.run(incr)
        (self.div, self.curl), (self.wabs, self.dy1) = pair.runs(dx), pair.runs(dy)
        self.incr0, self.incr1 = pair.runs(incr)
        self.omega, (self.flux,) = pair.fields(dx)[1], one.runs(flux)
        self.ddx_H = (*pair.neighbours(H_buf, -1), pair.run(dx), self.scale)
        self.ddy_H = (*pair.neighbours(H_buf, -2), pair.run(dy), self.scale)
        self.ddy_flux = (*one.neighbours(flux, -2), self.incr0, self.scale)
        self.ddx_flux = (*one.neighbours(flux, -1), self.incr1, self.scale)
        self.live = np.empty(self.curl.shape, dtype=bool)
        self.ghosts = [run[s::s + 1] for run in (self.curl, self.div, self.incr1)]
        F = self.forcing
        self.f1, self.f2 = (0.0, 0.0) if F is None else pair.runs(
            pair.load([F.comp1.values[win], F.comp2.values[win]]))
        w, wabs = s + 1, self.wabs
        self.frame = [] if s == self.n else [
            wabs[:2 * w], wabs[(s - 2) * w:], wabs[2 * s - 1:s * s - 4].reshape(s - 3, w)[:, :5],
        ]

    def snapshot(self) -> np.ndarray:
        """(h1, h2, curl) on the grid in one (3, n, n) array that is +0
        outside the window, as a regrow keeps the supports inside it."""
        out = self.full
        out[(slice(0, 2), *self.win)] = self.H
        out[(2, *self.win)] = self.omega
        return out

    def differentiate(self) -> float:
        """Differences and curl of H; returns max |curl|."""
        central_difference(*self.ddx_H)
        central_difference(*self.ddy_H)
        np.subtract(self.curl, self.wabs, self.curl)
        self.ghosts[0].fill(0.0)
        np.absolute(self.curl, self.wabs)
        self.wmax = float(np.maximum.reduce(self.wabs, None))
        return self.wmax

    def check_blowup(self, t: float) -> float:
        """max |curl| of the last differentiated state; raises BlowUp past the
        guard or on NaN."""
        if not (self.wmax <= BLOWUP_LIMIT):
            raise BlowUp(t, self.wmax)
        return self.wmax

    def record(self, t: float) -> None:
        """Fold H at t, which has just been differentiated, into the
        diagnostics; the first state recorded is the initial one."""
        d, div = self.diag, self.div
        np.add(div, self.dy1, div)
        self.ghosts[1].fill(0.0)
        np.absolute(div, div)
        np.multiply(self.H_run, self.H_run, self.incr)
        l2h = math.sqrt(self.h2 * float(np.add.reduce(self.incr, None)))
        if not d.times:
            self.e0 = l2h ** 2
        d.times.append(t)
        d.div_drift_max = max(d.div_drift_max, float(np.maximum.reduce(div, None)))
        bound = (self.e0 + self.forcing_l2) * math.exp(t)
        if bound > 0:
            d.energy_ratio = max(d.energy_ratio, (l2h ** 2 + 2.0 * self.dissipation) / bound)

    def step(self, dt: float, t: float) -> float:
        """H += dt * (F - (d(Phi)/dy, -d(Phi)/dx)), Phi = psi_{p-1}(w) of the
        last differentiated state, to time t; then differentiate, check and
        record the new state, and choose the window again if its frame is
        live.  Returns its max |curl|."""
        pow_into(self.wabs, self.e, self.flux, self.live)
        np.multiply(self.flux, self.wabs, self.incr0)
        lp = self.h2 * float(np.add.reduce(self.incr0, None))  # h^2 sum |w|^p
        np.copysign(self.flux, self.curl, self.flux)
        central_difference(*self.ddy_flux)
        central_difference(*self.ddx_flux)
        self.ghosts[2].fill(0.0)
        np.subtract(self.f1, self.incr0, self.incr0)
        np.add(self.f2, self.incr1, self.incr1)
        self.dt[()] = dt
        np.multiply(self.incr, self.dt, self.incr)
        np.add(self.H_run, self.incr, self.H_run)
        self.dissipation += dt * lp
        self.forcing_l2 += dt * self.forcing_sq
        self.differentiate()
        self.check_blowup(t)
        self.record(t)
        if any(not (np.maximum.reduce(edge, None) <= self.floor) for edge in self.frame):
            self.place(self.snapshot()[:2])
            self.differentiate()
        return self.wmax


def curl_solve(problem: CurlProblem, config: CurlConfig) -> CurlSolution:
    """Adaptive explicit integration with snapshots and energy diagnostics,
    on the window of the grid that _StepKernel keeps."""
    grid, H0 = problem.grid, problem.H0
    kernel = _StepKernel(grid.n, grid.spacing, problem.p, (H0.comp1.values, H0.comp2.values),
                         problem.forcing)

    if kernel.differentiate() > 1.0 + 1e-9 and problem.p > 8:
        raise DomainError(
            "explicit stepping with p > 8 requires max |curl H0| <= 1"
        )
    wmax = kernel.check_blowup(0.0)
    targets, eps_t = snapshot_targets(config.snapshot_times, problem.horizon)

    kernel.record(0.0)
    snapshots = [(0.0, H0, ScalarField(grid, kernel.snapshot()[2]))]  # H0 keeps its -0
    t = 0.0
    for target in targets:
        while t < target - eps_t:
            dt = min(_cfl_dt(wmax, kernel.e, kernel.h2, config.cfl_safety), target - t)
            if dt < DT_MIN:
                raise StepTooSmall(t, dt)
            t = target if target - (t + dt) <= eps_t else t + dt
            wmax = kernel.step(dt, t)
        h1, h2, omega = (ScalarField(grid, a) for a in kernel.snapshot())
        snapshots.append((target, VectorField2(h1, h2), omega))

    return CurlSolution(problem, snapshots, kernel.diag)


# -- diagnostics on solutions -----------------------------------------------


def vi_residual(solution: CurlSolution, V: VectorField2) -> list[tuple[float, float, float]]:
    """Residual series h^2 sum (F - H_t) . (V - H) over snapshot times, F
    the problem's forcing, each as (t, residual, |V - H|_L2).

    H_t is the backward difference of consecutive snapshots, so the series
    starts at the second snapshot.  V must be admissible: max |curl V| at
    most 1 and discretely divergence free.
    """
    grid = solution.problem.grid
    if V.grid != grid:
        raise DomainError("test field grid does not match the solution grid")
    if float(np.max(np.abs(curl_z(V).values))) > 1.0 + 1e-9:
        raise DomainError("test field exceeds the unit curl constraint")
    if float(np.max(np.abs(divergence(V).values))) > 1e-10:
        raise DomainError("test field is not divergence free")
    h2 = grid.spacing ** 2
    f1, f2 = _forcing_arrays(solution.problem.forcing)
    snaps = solution.snapshots
    out: list[tuple[float, float, float]] = []
    for (t_prev, H_prev, _), (t_now, H_now, _) in zip(snaps, snaps[1:]):
        dt = t_now - t_prev
        ht1 = (H_now.comp1.values - H_prev.comp1.values) / dt
        ht2 = (H_now.comp2.values - H_prev.comp2.values) / dt
        d1 = V.comp1.values - H_now.comp1.values
        d2 = V.comp2.values - H_now.comp2.values
        r = h2 * float(np.sum((f1 - ht1) * d1 + (f2 - ht2) * d2))
        out.append((t_now, r, math.sqrt(h2 * float(np.sum(d1 * d1 + d2 * d2)))))
    return out
