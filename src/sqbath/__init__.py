"""Exact evolution of a single cavity mode in a squeezed thermal
reservoir, with nonclassical-depth analysis and an independent
Fock-space oracle.

The analytic route works entirely in phase space: each catalogue state
carries a diagonal-weight descriptor (Gaussian-smoothed deltas with
first- and second-order differential prefactors) that the reservoir maps to a broader
Gaussian in closed form.  The oracle route integrates the master
equation in a truncated number basis.  The two never share code; the
test suite holds them to ≤ 1e-6 relative agreement.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    DegenerateDenominator,
    ImmediateTransition,
    NonFiniteResult,
    SeriesDiverges,
    SingularSmoothing,
    SqbathError,
    TraceDriftExceeded,
    TruncationTooSmall,
    UnresolvedDensity,
)
from .reservoir import (
    NoiseEnvelope,
    PhysicalReservoirSpec,
    ReservoirParams,
    from_physical,
    noise_envelope,
)
from .states import (
    Cat,
    Coherent,
    MomentTable,
    PhotonAddedCoherent,
    PhotonAddedThermal,
    SqueezedCoherent,
    StateSpec,
    Thermal,
    initial_moments,
)
from .evolution import (
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
    r_function_grid,
    steady_tau,
    tau_m,
    tau_m_by_negativity_scan,
    tau_profile,
    tau_raw,
    transition_time,
)

__version__ = "0.1.0"

# every public name imported above, the submodules aside
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
