"""Explicit solver for the plane-wave curl evolution system.

State is the in-plane pair H = (h1, h2); with w = curl_z(H) and the
power flux Phi = psi_{p-1}(w) the update reads

    h1 <- h1 + dt * (f1 - d(Phi)/dy),
    h2 <- h2 + dt * (f2 + d(Phi)/dx),

all derivatives central with zero ghosts.  The mixed differences cancel
exactly in the discrete divergence, so div H is conserved to roundoff.
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
    DiffPlan,
    GridSpec,
    ScalarField,
    VectorField2,
    curl_z,
    divergence,
    pow_into,
    snapshot_targets,
    support_margin_ok,
)

BLOWUP_LIMIT = 10.0
DT_MIN = 1e-12  # a CFL step below this raises StepTooSmall


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


class _StepKernel:
    """The forward-Euler march of one state array H, every work array and
    every view bound once, so that a step is ufunc calls only.

    H is a (2, n, n) array with H[0] = h1 and H[1] = h2, updated in place.
    `differentiate` fills the x- and y-differences of both components;
    they give the curl that drives the next step and the divergence of H.
    `step` is one whole step, and folds the new state into `diag`; it
    evaluates one pow, |w|^(p-1) by pow_into, which serves the flux and,
    times |w|, the dissipation sum |w|^p.
    """

    def __init__(self, grid: GridSpec, p: float, H: np.ndarray, forcing: VectorField2 | None):
        n, h = grid.n, grid.spacing
        self.h2 = h * h
        self.e = p - 1.0
        self.dt = np.array(0.0)  # a 0-d array, as in DiffPlan
        self.H = H
        dx, dy, self.incr = (np.empty((2, n, n)) for _ in range(3))
        self.omega, self.wabs, self.flux, self.work = (np.empty((n, n)) for _ in range(4))
        self.live = np.empty((n, n), dtype=bool)
        self.dx0, self.dx1, self.dy0, self.dy1 = dx[0], dx[1], dy[0], dy[1]
        self.incr0, self.incr1 = self.incr
        self.diff_H = (DiffPlan(H, h, dx, -1), DiffPlan(H, h, dy, -2))
        self.diff_flux = (DiffPlan(self.flux, h, self.incr0, -2),
                          DiffPlan(self.flux, h, self.incr1, -1))
        self.f1, self.f2 = _forcing_arrays(forcing)
        self.forcing_sq = float(self.h2 * np.sum(self.f1 * self.f1 + self.f2 * self.f2))
        self.diag = CurlDiagnostics()
        self.dissipation = self.forcing_l2 = self.e0 = 0.0

    def differentiate(self) -> float:
        """Differences and curl of H; returns max |curl|."""
        for plan in self.diff_H:
            plan()
        np.subtract(self.dx1, self.dy0, self.omega)
        np.absolute(self.omega, self.wabs)
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
        d, work = self.diag, self.work
        np.multiply(self.H, self.H, self.incr)
        np.add(self.incr0, self.incr1, self.incr0)
        np.add(self.dx0, self.dy1, work)
        np.absolute(work, work)
        l2h = math.sqrt(self.h2 * float(np.add.reduce(self.incr0, None)))
        if not d.times:
            self.e0 = l2h ** 2
        d.times.append(t)
        d.div_drift_max = max(d.div_drift_max, float(np.maximum.reduce(work, None)))
        bound = (self.e0 + self.forcing_l2) * math.exp(t)
        if bound > 0:
            d.energy_ratio = max(d.energy_ratio, (l2h ** 2 + 2.0 * self.dissipation) / bound)

    def step(self, dt: float, t: float) -> float:
        """H += dt * (F - (d(Phi)/dy, -d(Phi)/dx)), Phi = psi_{p-1}(w) of the
        last differentiated state, to time t; then differentiate, check and
        record the new state.  Returns its max |curl|."""
        pow_into(self.wabs, self.e, self.flux, self.live)
        np.multiply(self.flux, self.wabs, self.work)
        lp = self.h2 * float(np.add.reduce(self.work, None))  # h^2 sum |w|^p
        np.copysign(self.flux, self.omega, self.flux)
        for plan in self.diff_flux:
            plan()
        np.subtract(self.f1, self.incr0, self.incr0)
        np.add(self.f2, self.incr1, self.incr1)
        self.dt[()] = dt
        np.multiply(self.incr, self.dt, self.incr)
        np.add(self.H, self.incr, self.H)
        self.dissipation += dt * lp
        self.forcing_l2 += dt * self.forcing_sq
        self.differentiate()
        self.check_blowup(t)
        self.record(t)
        return self.wmax


def curl_solve(problem: CurlProblem, config: CurlConfig) -> CurlSolution:
    """Adaptive explicit integration with snapshots and energy diagnostics."""
    grid = problem.grid
    H = np.stack((problem.H0.comp1.values, problem.H0.comp2.values))
    kernel = _StepKernel(grid, problem.p, H, problem.forcing)

    if kernel.differentiate() > 1.0 + 1e-9 and problem.p > 8:
        raise DomainError(
            "explicit stepping with p > 8 requires max |curl H0| <= 1"
        )
    wmax = kernel.check_blowup(0.0)
    targets, eps_t = snapshot_targets(config.snapshot_times, problem.horizon)

    def snap(t_now) -> tuple[float, VectorField2, ScalarField]:
        """Copy out H, which `kernel` has just differentiated, with its curl."""
        Hf = VectorField2(ScalarField(grid, H[0]), ScalarField(grid, H[1]))
        return (t_now, Hf, ScalarField(grid, kernel.omega))

    kernel.record(0.0)
    snapshots = [snap(0.0)]
    t = 0.0
    for target in targets:
        while t < target - eps_t:
            dt = min(_cfl_dt(wmax, kernel.e, kernel.h2, config.cfl_safety), target - t)
            if dt < DT_MIN:
                raise StepTooSmall(t, dt)
            t = target if target - (t + dt) <= eps_t else t + dt
            wmax = kernel.step(dt, t)
        snapshots.append(snap(target))

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
