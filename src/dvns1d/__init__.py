"""1D compressible Navier-Stokes with density-degenerate viscosity.

The viscosity law mu(rho) = mu0 * rho^alpha couples the momentum diffusion to
the density, and the change of unknown v = u + d/dx phi(rho) (with
phi'(rho) = mu(rho)/rho^2) moves that diffusion into the mass equation.  The
package integrates both formulations side by side and monitors the full
entropy/moment/bound structure of the underlying estimates at runtime.
"""

from .constitutive import Params, TheoremReport, dphi, phi, validate_params
from .errors import ConfigurationError, DomainError, VacuumBreach
from .mesh import (
    BackgroundProfile,
    Mesh,
    background_profile,
    build_mesh,
    integrate,
    mollify,
)
from .solver import (
    FlowState,
    StepReport,
    Trajectory,
    U_FORM,
    V_FORM,
    cfl_dt,
    effective_velocity,
    make_state,
    run,
    step_u,
    step_v,
)
from .diagnostics import (
    DiagnosticsRecord,
    RunAccumulators,
    collect,
    reciprocal_residual,
)
from .harness import (
    Scenario,
    build_initial,
    load_config,
    refinement_study,
    regularization_study,
    run_scenario,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Params", "TheoremReport", "phi", "dphi", "validate_params",
    "ConfigurationError", "DomainError", "VacuumBreach",
    "Mesh", "BackgroundProfile", "build_mesh", "background_profile", "mollify",
    "integrate",
    "FlowState", "StepReport", "Trajectory", "U_FORM", "V_FORM", "make_state",
    "effective_velocity", "cfl_dt", "step_u", "step_v", "run",
    "DiagnosticsRecord", "RunAccumulators", "reciprocal_residual", "collect",
    "Scenario", "load_config", "build_initial", "run_scenario", "sweep",
    "refinement_study", "regularization_study",
    "__version__",
]
