"""Shared exception types."""


class DomainError(ValueError):
    """Input violates a documented admissibility precondition."""


class PreconditionFailed(ValueError):
    """Numerically verified hypothesis check failed on the supplied data."""


class StepTooSmall(RuntimeError):
    """A time march needed a step below its minimum."""

    def __init__(self, t: float, dt: float):
        super().__init__(f"time step {dt:.3e} below minimum at t={t:.6g}")
        self.t = t
        self.dt = dt
