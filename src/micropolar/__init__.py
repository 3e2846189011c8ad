"""Pseudospectral mild-solution machinery for heat-conductive micropolar flow
on the periodic torus, with a verification harness for its quantitative
estimates."""

from .fields import GridSpec, SpectralField, random_field, to_physical, to_spectral
from .operators import (
    OperatorKind,
    OperatorSymbol,
    apply_operator,
    gamma_operator,
    lambda1,
    laplace_operator,
    leray_project,
    rot,
    semigroup_apply,
    stokes_operator,
)
from .nonlinear import (
    CouplingParams,
    ForcingSpec,
    advect,
    assemble_rhs,
    dissipation_phi,
    generators,
)
from .exponents import ExponentConfig, check_config, select_intermediate
from .solver import (
    PicardConfig,
    TrajectoryState,
    beta_function,
    global_solve,
    initial_trajectory,
    picard_solve,
    picard_step,
    start_state,
)
from .kmbounds import (
    KmTracker,
    LemmaConstants,
    k0_curves,
    km_recursion,
    local_horizon,
    semigroup_constant,
)
from .gronwall import gronwall_bound, gronwall_oracle
from .analysis import (
    EstimateReport,
    energy_report,
    fit_decay,
    fit_lemma_constants,
    pde_residual,
    verify_bilinear,
    verify_embeddings,
    verify_smoothing,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
