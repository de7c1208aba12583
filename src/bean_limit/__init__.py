"""Numerical laboratory: plane-wave curl evolution, nonlinear diffusion
reduction, and the critical-state (obstacle) limit."""

from .fields import (
    GridSpec,
    Norms,
    PowerLaw,
    ScalarField,
    VectorField2,
    curl_z,
    divergence,
    from_stream,
    laplacian5,
    norms,
    psi,
    psi_inv,
    psi_prime,
)
from .pme import (
    NewtonDiverged,
    PmeConfig,
    PmeProblem,
    PmeSolution,
    barenblatt_eval,
    barenblatt_field,
    mass_balance_residual,
    pme_solve,
    pressure_field,
)
from .obstacle import (
    NotConverged,
    ObstacleData,
    ViSolution,
    collapse_profile,
    mesa_profile,
    psor_solve,
)
from .curl2d import (
    BlowUp,
    CurlConfig,
    CurlProblem,
    CurlSolution,
    curl_solve,
    current_density,
    resistivity_coeff,
    vi_residual,
)
from .errors import DomainError, PreconditionFailed, StepTooSmall

__all__ = [name for name in dir() if not name.startswith("_")]
