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
    GridSpec,
    PowerLaw,
    ScalarField,
    VectorField2,
    abs_pow,
    curl_z,
    ddx_into,
    ddy_into,
    divergence,
    pow_into,
    psi_prime,
    snapshot_targets,
)

BLOWUP_LIMIT = 10.0


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
        if self.forcing is not None:
            if self.forcing.grid != self.grid:
                raise ValueError("forcing grid does not match problem grid")
            if float(np.max(np.abs(divergence(self.forcing).values))) > 1e-10:
                raise DomainError("forcing is not divergence free")

    @property
    def law(self) -> PowerLaw:
        return PowerLaw(self.p - 1.0)


@dataclass(frozen=True)
class CurlConfig:
    snapshot_times: tuple[float, ...] = ()
    cfl_safety: float = 0.9
    dt_min: float = 1e-12

    def __post_init__(self):
        if not (0 < self.cfl_safety <= 1):
            raise ValueError("cfl_safety must lie in (0, 1]")


@dataclass
class CurlDiagnostics:
    times: list[float] = field(default_factory=list)
    l2_H: list[float] = field(default_factory=list)
    curl_lp: list[float] = field(default_factory=list)   # h^2 sum |w|^p
    div_drift: list[float] = field(default_factory=list)
    dt: list[float] = field(default_factory=list)
    dissipation_cum: list[float] = field(default_factory=list)  # sum dt * h^2 sum |w|^p
    forcing_l2_cum: list[float] = field(default_factory=list)   # sum dt * h^2 sum |F|^2


@dataclass
class CurlSolution:
    problem: CurlProblem
    snapshots: list[tuple[float, VectorField2, ScalarField, ScalarField]]
    diagnostics: CurlDiagnostics

    def __post_init__(self):
        times = [t for t, *_ in self.snapshots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")


def _forcing_arrays(problem: CurlProblem):
    """(f1, f2) of the problem's forcing; (0.0, 0.0) without one."""
    F = problem.forcing
    return (F.comp1.values, F.comp2.values) if F is not None else (0.0, 0.0)


def _cfl_dt(wmax: float, law: PowerLaw, h2: float, cfl_safety: float) -> float:
    return cfl_safety * h2 / (8.0 * psi_prime(wmax, law) + 1e-30)


def dt_stability(omega_vals: np.ndarray, p: float, h: float, cfl_safety: float = 1.0) -> float:
    """CFL bound cfl_safety * h^2 / (8 max psi'_{p-1}(w)) for the explicit update."""
    wmax = float(np.max(np.abs(omega_vals)))
    return _cfl_dt(wmax, PowerLaw(p - 1.0), h * h, cfl_safety)


class _StepKernel:
    """The forward-Euler step on raw arrays, with every work array allocated once.

    The state is one (2, n, n) array H with H[0] = h1 and H[1] = h2.
    `differentiate(H)` fills the x- and y-differences of both components;
    they give the curl that drives the next step and the divergence of H.
    `advance` evaluates one pow per step, |w|^(p-1), which serves the flux
    and, times |w|, the dissipation sum |w|^p.  It is `pow_into`, which
    skips the cells where the power rounds to +0: they are most of the
    grid early in a run.
    """

    def __init__(self, grid: GridSpec, p: float):
        n = grid.n
        self.h = grid.spacing
        self.p = p
        self.live = np.empty((n, n), dtype=bool)
        self.dx = np.empty((2, n, n))
        self.dy = np.empty((2, n, n))
        self.incr = np.empty((2, n, n))
        self.omega = np.empty((n, n))
        self.wabs = np.empty((n, n))
        self.flux = np.empty((n, n))
        self.work = np.empty((n, n))

    def differentiate(self, H: np.ndarray) -> float:
        """Differences and curl of H; returns max |curl|."""
        ddx_into(H, self.h, self.dx)
        ddy_into(H, self.h, self.dy)
        np.subtract(self.dx[1], self.dy[0], out=self.omega)
        np.abs(self.omega, out=self.wabs)
        self.wmax = float(self.wabs.max())
        return self.wmax

    def check_blowup(self, t: float) -> float:
        """max |curl| of the last differentiated state; raises BlowUp past the guard."""
        if self.wmax > BLOWUP_LIMIT:
            raise BlowUp(t, self.wmax)
        return self.wmax

    def div_max(self) -> float:
        """max |div| of the last differentiated state."""
        np.add(self.dx[0], self.dy[1], out=self.work)
        np.abs(self.work, out=self.work)
        return float(self.work.max())

    def sum_sq(self, H: np.ndarray) -> float:
        """sum of h1^2 + h2^2 over the cells."""
        np.multiply(H, H, out=self.incr)
        self.incr[0] += self.incr[1]
        return float(self.incr[0].sum())

    def curl_power_sum(self) -> float:
        """sum |w|^p of the last differentiated state; leaves |w|^(p-1) in flux."""
        pow_into(self.wabs, self.p - 1.0, self.flux, self.live)
        np.multiply(self.flux, self.wabs, out=self.work)
        return float(self.work.sum())

    def advance(self, H: np.ndarray, f1, f2, dt: float) -> float:
        """H += dt * (F - (d(Phi)/dy, -d(Phi)/dx)) in place, Phi = psi_{p-1}(w)
        of the last differentiated state; returns that state's sum |w|^p.
        f1 and f2 are arrays, or 0.0 without forcing."""
        lp = self.curl_power_sum()
        phi = np.copysign(self.flux, self.omega, out=self.flux)
        incr = self.incr
        ddy_into(phi, self.h, incr[0])
        ddx_into(phi, self.h, incr[1])
        np.subtract(f1, incr[0], out=incr[0])
        np.add(f2, incr[1], out=incr[1])
        incr *= dt
        H += incr
        return lp


def curl_step(
    state: VectorField2,
    t: float,
    dt: float,
    problem: CurlProblem,
) -> VectorField2:
    """One forward-Euler step; the caller is responsible for dt <= dt_stability."""
    grid = problem.grid
    kernel = _StepKernel(grid, problem.p)
    H = np.stack((state.comp1.values, state.comp2.values))
    kernel.differentiate(H)
    kernel.check_blowup(t)
    f1, f2 = _forcing_arrays(problem)
    kernel.advance(H, f1, f2, dt)
    return VectorField2(ScalarField(grid, H[0]), ScalarField(grid, H[1]))


def curl_solve(problem: CurlProblem, config: CurlConfig) -> CurlSolution:
    """Adaptive explicit integration with snapshots and energy diagnostics."""
    grid = problem.grid
    h = grid.spacing
    h2 = h * h
    law = problem.law
    kernel = _StepKernel(grid, problem.p)
    H = np.stack((problem.H0.comp1.values, problem.H0.comp2.values))

    if kernel.differentiate(H) > 1.0 + 1e-9 and problem.p > 8:
        raise DomainError(
            "explicit stepping with p > 8 requires max |curl H0| <= 1"
        )

    targets, eps_t = snapshot_targets(config.snapshot_times, problem.horizon)
    t = 0.0
    diag = CurlDiagnostics()
    dissipation = 0.0
    forcing_l2 = 0.0
    f1, f2 = _forcing_arrays(problem)
    forcing_sq = float(h2 * np.sum(f1 * f1 + f2 * f2))  # h^2 sum |F|^2

    def record(t_now, dt_used):
        """Append the diagnostics of H, which `kernel` has just differentiated;
        its curl_lp is appended by the next `advance`, or after the loop."""
        diag.times.append(t_now)
        diag.l2_H.append(math.sqrt(h2 * kernel.sum_sq(H)))
        diag.div_drift.append(kernel.div_max())
        diag.dt.append(dt_used)
        diag.dissipation_cum.append(dissipation)
        diag.forcing_l2_cum.append(forcing_l2)

    def snap(t_now) -> tuple[float, VectorField2, ScalarField, ScalarField]:
        """Copy out H, which `kernel` has just differentiated, with its curl."""
        Hf = VectorField2(ScalarField(grid, H[0]), ScalarField(grid, H[1]))
        return (t_now, Hf, ScalarField(grid, kernel.omega), ScalarField(grid, kernel.wabs))

    record(0.0, 0.0)
    snapshots = [snap(0.0)]

    for target in targets:
        while t < target - eps_t:
            wmax = kernel.check_blowup(t)
            dt = min(_cfl_dt(wmax, law, h2, config.cfl_safety), target - t)
            if dt < config.dt_min:
                raise StepTooSmall(t, dt)
            curl_lp = h2 * kernel.advance(H, f1, f2, dt)
            diag.curl_lp.append(curl_lp)
            dissipation += dt * curl_lp
            forcing_l2 += dt * forcing_sq
            t = target if target - (t + dt) <= eps_t else t + dt
            kernel.differentiate(H)
            record(t, dt)
        snapshots.append(snap(target))
    diag.curl_lp.append(h2 * kernel.curl_power_sum())

    return CurlSolution(problem, snapshots, diag)


# -- diagnostics on solutions -----------------------------------------------


def current_density(H: VectorField2) -> ScalarField:
    """Magnitude of the out-of-plane curl."""
    w = curl_z(H)
    return ScalarField(H.grid, np.abs(w.values))


def resistivity_coeff(omega: ScalarField, p: float) -> ScalarField:
    """Effective resistivity |w|^(p-2); localizes onto the saturated set."""
    if not (p > 2):
        raise ValueError("p must exceed 2")
    return ScalarField(omega.grid, abs_pow(omega.values, p - 2.0))


def vi_residual(solution: CurlSolution, V: VectorField2) -> list[tuple[float, float]]:
    """Residual series h^2 sum (F - H_t) . (V - H) over snapshot times, F
    the problem's forcing.

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
    f1, f2 = _forcing_arrays(solution.problem)
    snaps = solution.snapshots
    out: list[tuple[float, float]] = []
    for (t_prev, H_prev, _, _), (t_now, H_now, _, _) in zip(snaps, snaps[1:]):
        dt = t_now - t_prev
        ht1 = (H_now.comp1.values - H_prev.comp1.values) / dt
        ht2 = (H_now.comp2.values - H_prev.comp2.values) / dt
        d1 = V.comp1.values - H_now.comp1.values
        d2 = V.comp2.values - H_now.comp2.values
        r = h2 * float(np.sum((f1 - ht1) * d1 + (f2 - ht2) * d2))
        out.append((t_now, r))
    return out


def energy_budget(solution: CurlSolution) -> list[tuple[float, float, float]]:
    """Series (t, lhs, bound) for the discrete energy inequality.

    The scheme satisfies E(t) + 2 * integral of dissipation = E(0) +
    2 * integral of <F, H> up to the explicit-Euler injection, so with
    Cauchy-Schwarz and Gronwall

        E(t) + 2 * diss(t) <= (E(0) + integral |F|^2) * e^t =: bound(t).

    lhs <= 1.05 * bound at every time also caps the energy-plus-dissipation
    budget sup_t E + diss by max_t bound.
    """
    d = solution.diagnostics
    e0 = d.l2_H[0] ** 2
    out = []
    for t, l2h, diss, fl2 in zip(d.times, d.l2_H, d.dissipation_cum, d.forcing_l2_cum):
        lhs = l2h ** 2 + 2.0 * diss
        bound = (e0 + fl2) * math.exp(t)
        out.append((t, lhs, bound))
    return out
