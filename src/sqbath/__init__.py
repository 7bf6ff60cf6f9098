"""Exact evolution of a single cavity mode in a squeezed thermal
reservoir, with nonclassical-depth analysis and an independent
Fock-space oracle.

The analytic route works entirely in phase space: each catalogue state
carries a diagonal-weight descriptor (delta/Gaussian kernels with
optional polynomial prefactors) that the reservoir maps to a broader
Gaussian in closed form.  The oracle route integrates the master
equation in a truncated number basis.  The two never share code; the
test suite holds them to ≤ 1e-6 relative agreement.
"""

from .errors import (
    ConfigError,
    DegenerateDenominator,
    ImmediateTransition,
    SeriesDiverges,
    SingularSmoothing,
    SqbathError,
    TraceDriftExceeded,
    TruncationTooSmall,
    UnsupportedDescriptor,
)
from .reservoir import PhysicalReservoirSpec, ReservoirParams, from_physical, mt, nt
from .states import (
    Cat,
    Coherent,
    MomentTable,
    PDescriptor,
    PhotonAddedCoherent,
    PhotonAddedThermal,
    SqueezedCoherent,
    StateSpec,
    Thermal,
    initial_moments,
    initial_p_descriptor,
)
from .evolution import (
    GaussianSmoothing,
    evolve_moments,
    evolved_descriptor,
    evolved_means,
    evolved_state_moments,
    mandel_q,
    quadrature_variances,
)
from .nonclassicality import (
    classicality_onset_by_scan,
    closed_form_transition_time,
    gaussian_tau_from_covariance,
    min_r_on_grid,
    r_function,
    r_function_grid,
    steady_tau,
    tau_m,
    tau_m_by_negativity_scan,
    tau_profile,
    tau_raw,
    transition_time,
)

__version__ = "0.1.0"

__all__ = [
    "Cat",
    "Coherent",
    "ConfigError",
    "DegenerateDenominator",
    "GaussianSmoothing",
    "ImmediateTransition",
    "MomentTable",
    "PDescriptor",
    "PhotonAddedCoherent",
    "PhotonAddedThermal",
    "PhysicalReservoirSpec",
    "ReservoirParams",
    "SeriesDiverges",
    "SingularSmoothing",
    "SqbathError",
    "SqueezedCoherent",
    "StateSpec",
    "Thermal",
    "TraceDriftExceeded",
    "TruncationTooSmall",
    "UnsupportedDescriptor",
    "classicality_onset_by_scan",
    "closed_form_transition_time",
    "evolve_moments",
    "evolved_descriptor",
    "evolved_means",
    "evolved_state_moments",
    "from_physical",
    "gaussian_tau_from_covariance",
    "initial_moments",
    "initial_p_descriptor",
    "mandel_q",
    "min_r_on_grid",
    "mt",
    "nt",
    "quadrature_variances",
    "r_function",
    "r_function_grid",
    "steady_tau",
    "tau_m",
    "tau_m_by_negativity_scan",
    "tau_profile",
    "tau_raw",
    "transition_time",
]
