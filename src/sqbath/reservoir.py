"""Squeezed thermal reservoir parameters and their time-dependent noise.

The reservoir is specified either directly by the effective photon number
``N`` and squeezing correlation ``M`` (kept real by restricting the
squeezing phase to {0, pi}), or by physical parameters (thermal occupation
``nbar0``, squeeze modulus ``r``, phase ``theta``).  The physicality bound
M^2 <= N(N+1) is enforced at construction.

The dissipative coupling only ever enters observables through the damped
noise pair N_t = N(1 - e^{-2 Gamma t}), M_t = M(1 - e^{-2 Gamma t}).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .elementwise import FloatOrArray, emap
from .errors import ConfigError

# Slack for the M^2 <= N(N+1) check so that exactly saturating inputs
# (pure squeezed vacuum) survive floating-point rounding.
_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class ReservoirParams:
    """Effective reservoir seen by the cavity mode.

    N : effective photon number, >= 0
    M : squeezing correlation, real; M^2 <= N(N+1)
    gamma : damping rate Gamma > 0 (scales time; defaults to 1)
    """

    N: float
    M: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not (self.N >= 0.0):
            raise ConfigError(f"reservoir N must be >= 0, got {self.N}")
        if not (self.gamma > 0.0):
            raise ConfigError(f"reservoir gamma must be > 0, got {self.gamma}")
        bound = self.N * (self.N + 1.0)
        if not (self.M * self.M <= bound + _BOUND_TOL):
            raise ConfigError(
                f"unphysical reservoir: M^2 = {self.M * self.M:.6g} exceeds "
                f"N(N+1) = {bound:.6g}"
            )


@dataclass(frozen=True)
class PhysicalReservoirSpec:
    """Physical squeezed thermal bath: occupation, squeeze modulus, phase,
    and the damping rate of the effective reservoir it maps to.

    theta is restricted to {0, pi} so that M stays real (theta = pi gives
    M < 0, theta = 0 gives M > 0).
    """

    nbar0: float
    r: float
    theta: float = math.pi
    gamma: float = ReservoirParams.gamma

    def __post_init__(self) -> None:
        if not (self.nbar0 >= 0.0):
            raise ConfigError(f"nbar0 must be >= 0, got {self.nbar0}")
        if not (self.r >= 0.0):
            raise ConfigError(f"squeeze modulus r must be >= 0, got {self.r}")
        if not (
            math.isclose(self.theta, 0.0, abs_tol=1e-12)
            or math.isclose(self.theta, math.pi, rel_tol=0.0, abs_tol=1e-12)
        ):
            raise ConfigError(
                f"theta must be 0 or pi (real M), got {self.theta}"
            )


def from_physical(spec: PhysicalReservoirSpec) -> ReservoirParams:
    """Map physical bath parameters to the effective (N, M) pair.

    N = nbar0 cosh(2r) + sinh^2(r)
    M = (2 nbar0 + 1) cos(theta) sinh(r) cosh(r)

    For nbar0 = 0 this saturates M^2 = N(N+1) exactly (pure squeezed
    vacuum), which is what makes the maximally squeezed reservoir case
    N = 1, M = -sqrt(2) reachable.
    """
    n = spec.nbar0 * math.cosh(2.0 * spec.r) + math.sinh(spec.r) ** 2
    m = (
        (2.0 * spec.nbar0 + 1.0)
        * math.cos(spec.theta)
        * math.sinh(spec.r)
        * math.cosh(spec.r)
    )
    return ReservoirParams(N=n, M=m, gamma=spec.gamma)


def _check_time(t: FloatOrArray) -> None:
    earliest = t.min() if isinstance(t, np.ndarray) else t
    if earliest < 0.0:
        raise ConfigError(f"time must be >= 0, got {earliest}")


class NoiseEnvelope:
    """The reservoir's time dependence at a time t, or over an array of
    times, each factor evaluated once:

    u = e^{-2 Gamma t}, and N_t = N (1 - u), M_t = M (1 - u) from one
    expm1 pass; k = e^{-Gamma t} and k2 = k ** 2 (Python's pow) only once
    read, since the depth profile never needs them.

    The observables accept one in place of t, so that a render evaluates
    each factor once for all of its columns.
    """

    def __init__(self, res: ReservoirParams, t: FloatOrArray) -> None:
        _check_time(t)
        self.res, self.t = res, t
        self.u = emap(math.exp, -2.0 * res.gamma * t)
        one_minus_u = -emap(math.expm1, -2.0 * res.gamma * t)
        self.n_t = res.N * one_minus_u
        self.m_t = res.M * one_minus_u

    @cached_property
    def k(self) -> FloatOrArray:
        return emap(math.exp, -self.res.gamma * self.t)

    @cached_property
    def k2(self) -> FloatOrArray:
        return emap(pow, self.k, 2)  # as the moment table takes it; not k * k


# a time, a time grid, or the envelope of one
Times = Union[float, np.ndarray, NoiseEnvelope]


def noise_envelope(res: ReservoirParams, t: Times) -> NoiseEnvelope:
    """The envelope of res at t; t itself if it already is one (of res)."""
    return t if isinstance(t, NoiseEnvelope) else NoiseEnvelope(res, t)
