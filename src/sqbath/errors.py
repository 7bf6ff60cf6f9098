"""Typed errors raised by the analytic and Fock-basis layers.

Every failure mode a caller can act on gets its own class so the CLI can
map them to distinct exit codes and tests can assert on the exact cause.
"""


class SqbathError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SqbathError):
    """Run configuration is malformed or violates a parameter domain."""


class DegenerateDenominator(SqbathError):
    """Mandel Q is undefined: the mean photon number vanishes."""


class NonFiniteResult(SqbathError):
    """An observable overflowed or is not a number at finite inputs: the
    parameters lie beyond what double precision can evaluate."""


class SingularSmoothing(SqbathError):
    """A smoothed-descriptor evaluation was requested where a total
    Gaussian coefficient is not strictly positive, so the density is
    still distributional and has no pointwise value, or where the value
    overflows (a large cat's coherences under little smoothing)."""


class UnresolvedDensity(SqbathError):
    """A term of a smoothed density lies wholly below double precision's
    normal range on the scan grid (a large cat's coherences, whose weight
    underflows), so a scan cannot see the negativity it would cause."""


class SeriesDiverges(SqbathError):
    """The displaced-number series only converges for tau in [1/2, 1]."""


class TruncationTooSmall(SqbathError):
    """The Fock-space dimension cannot hold the requested state within
    the leakage budget.  Carries a remediation hint."""


class TraceDriftExceeded(SqbathError):
    """The integrator's trace error grew past the acceptance bound,
    signalling truncation or step-size trouble."""


class ImmediateTransition(SqbathError):
    """The state acquires nonclassicality at t = 0+ with no later
    sign change, so there is no finite transition time to report."""
