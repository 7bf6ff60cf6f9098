"""Exact evolution of descriptors, moments, and derived observables.

Damped evolution under the squeezed reservoir acts on the diagonal
phase-space weight as a contraction of the field amplitude by e^{-Gamma t}
followed by an anisotropic Gaussian smoothing whose axis coefficients are
(N_t + M_t)/4 and (N_t - M_t)/4.  Equivalently, the evolved amplitude is
the random variable

    beta e^{-Gamma t} + xi,

with xi an independent zero-mean noise of formal variances
Var(xi_r) = (N_t + M_t)/2, Var(xi_i) = (N_t - M_t)/2 and zero covariance.
Both pictures are implemented: descriptor transport for pointwise
evaluation, and for observables the moment table of that sum, one
``binomial_convolution`` of the scaled initial table with the noise table.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .elementwise import FloatOrArray
from .errors import DegenerateDenominator, NonFiniteResult
from .reservoir import ReservoirParams, Times, noise_envelope
from .states import (
    MAX_ORDER,
    DescriptorTerm,
    MomentTable,
    StateSpec,
    binomial_convolution,
    complex_noise_moments,
    gaussian_moment_table,
    initial_moments,
)


def evolved_descriptor(
    state: StateSpec, res: ReservoirParams, t: float
) -> tuple[DescriptorTerm, ...]:
    """Transport the t = 0 descriptor to time t.

    Both centres contract by e^{-Gamma t}; the initial Gaussian
    coefficients damp by e^{-2 Gamma t} and the reservoir coefficients
    (N_t + M_t)/4 and (N_t - M_t)/4 add on top; the prefactor's second-
    and first-order coefficients pick up the contraction's chain-rule
    factors e^{-2 Gamma t} and e^{-Gamma t}.
    """
    env = noise_envelope(res, t)
    k, k2 = env.k, env.k * env.k
    add_r = (env.n_t + env.m_t) / 4.0
    add_i = (env.n_t - env.m_t) / 4.0
    return tuple(
        replace(
            term,
            center=term.center * k,
            center_bar=term.center_bar * k,
            c_r=term.c_r * k2 + add_r,
            c_i=term.c_i * k2 + add_i,
            lap=term.lap * k2,
            grad=term.grad * k,
        )
        for term in state.descriptor()
    )


def evolve_moments(m0: MomentTable, res: ReservoirParams, t: float) -> MomentTable:
    """Moment table at time t from the table at t = 0.

    <a^dag^j a^k>(t) = sum_{p,q} C(j,p) C(k,q) e^{-Gamma t (j-p+k-q)}
                       <a^dag^{j-p} a^{k-q}>(0) E[xi*^p xi^q]:
    m0 scaled by e^{-Gamma t (j+k)} (Python's pow), convolved with the noise table.
    """
    env = noise_envelope(res, t)
    n_t, m_t = env.n_t, env.m_t
    j, k = np.indices(m0.array.shape)
    powers = np.array([env.k**n for n in range(2 * MAX_ORDER + 1)])
    # twice the descriptor's (N_t +- M_t)/4, not (N_t +- M_t)/2: the two
    # round differently where N_t is subnormal
    noise = complex_noise_moments(2.0 * ((n_t + m_t) / 4.0), 2.0 * ((n_t - m_t) / 4.0))
    return MomentTable(binomial_convolution(powers[j + k] * m0.array, noise))


def evolved_means(
    m0: MomentTable, res: ReservoirParams, t: Times
) -> tuple[complex | np.ndarray, FloatOrArray]:
    """(<a>, <n>) at time t, or as arrays over an array of times: the
    (0, 1) and (1, 1) entries of ``evolve_moments`` with their zero terms
    dropped, which leaves the same floats,

        <a>(t) = e^{-Gamma t} <a>(0),
        <n>(t) = e^{-2 Gamma t} <n>(0) + m00 (Var xi_i + Var xi_r).

    m00 stays in: for photon-added coherent and cat tables it is 1 only to
    rounding.
    """
    env = noise_envelope(res, t)
    n_t, m_t = env.n_t, env.m_t
    var_r, var_i = 2.0 * ((n_t + m_t) / 4.0), 2.0 * ((n_t - m_t) / 4.0)  # as evolve_moments
    mean_a = env.k * m0.mean_a
    # k ** 2 as the table computes it: Python's pow, not k * k
    mean_n = env.k2 * m0.mean_n + m0[0, 0].real * (var_i + var_r)
    return mean_a, mean_n


def evolved_state_moments(state: StateSpec, res: ReservoirParams, t: float) -> MomentTable:
    """Convenience: exact moment table of a catalogue state at time t."""
    return evolve_moments(initial_moments(state), res, t)


def mandel_q(m0: MomentTable, res: ReservoirParams, t: Times) -> FloatOrArray:
    """Mandel Q at time t from the initial moment table.

    Q(t) = { [<adag2 a2>(0) - <n>(0)^2] e^{-4 Gamma t}
             + [2 N_t <n>(0) + M_t (<a^2>(0) + <adag^2>(0))] e^{-2 Gamma t}
             + N_t^2 + M_t^2 } / { <n>(0) e^{-2 Gamma t} + N_t }

    Raises DegenerateDenominator when the mean photon number vanishes.
    Over an array of times it returns an array instead, with NaN at the
    times where the mean photon number is zero, and only there: a NaN
    from overflow raises NonFiniteResult.
    """
    env = noise_envelope(res, t)
    n_t, m_t, u = env.n_t, env.m_t, env.u
    n0 = m0.mean_n
    denom = n0 * u + n_t
    numer = (
        (m0.mean_n2_ordered - n0 * n0) * u * u
        + (2.0 * n_t * n0 + 2.0 * m_t * m0.mean_a2.real) * u
        + n_t * n_t
        + m_t * m_t
    )
    if isinstance(denom, np.ndarray):
        zero = denom == 0.0
        q = numer / np.where(zero, np.nan, denom)
        undefined = np.flatnonzero(np.isnan(q) & ~zero)
        t_bad = env.t[undefined[0]] if len(undefined) else None
    else:
        if denom == 0.0:
            raise DegenerateDenominator(
                "Mandel Q undefined: mean photon number is zero"
            )
        q = numer / denom
        t_bad = env.t if q != q else None
    if t_bad is not None:
        raise NonFiniteResult(
            f"mandel_q is not a number at gamma_t = {float(res.gamma * t_bad)!r}"
        )
    return q


def quadrature_variances(
    m0: MomentTable, res: ReservoirParams, t: Times
) -> tuple[FloatOrArray, FloatOrArray]:
    """(Var X, Var Y)(t) for X = (a + a^dag)/2, Y = (a - a^dag)/(2i); a
    pair of arrays over an array of times.

    V_X(t) = [2 (N_t + M_t) + 1]/4 + [V_X(0) - 1/4] e^{-2 Gamma t},
    and with M_t -> -M_t for V_Y.
    """
    env = noise_envelope(res, t)
    n_t, m_t, u = env.n_t, env.m_t, env.u
    vx = (2.0 * (n_t + m_t) + 1.0) / 4.0 + (m0.var_x() - 0.25) * u
    vy = (2.0 * (n_t - m_t) + 1.0) / 4.0 + (m0.var_y() - 0.25) * u
    return vx, vy


def descriptor_moments(desc: tuple[DescriptorTerm, ...]) -> MomentTable:
    """Integrate a descriptor against amplitude monomials.

    Each term's smoothed delta gives a Gaussian moment table; its
    prefactor moves onto the monomial by parts.  With d/dz_r = d + d* and
    d/dz_i = i (d - d*) (d = d/dz), the Laplacian of z*^j z^k is
    4 j k z*^{j-1} z^{k-1} and Re(g) d/dz_r + Im(g) d/dz_i is
    g d + g* d*, so

        m[j, k] += 4 lap j k m[j-1, k-1] - j g* m[j-1, k] - k g m[j, k-1].
    """
    j, k = np.indices((MAX_ORDER + 1, MAX_ORDER + 1))
    acc = np.zeros((MAX_ORDER + 1, MAX_ORDER + 1), dtype=complex)
    for term in desc:
        base = gaussian_moment_table(
            term.center, term.center_bar, 2.0 * term.c_r, 2.0 * term.c_i
        ).array
        part = base.copy()
        part[1:, 1:] += 4.0 * term.lap * (j * k)[1:, 1:] * base[:-1, :-1]
        part[1:] -= np.conj(term.grad) * j[1:] * base[:-1]
        part[:, 1:] -= term.grad * k[:, 1:] * base[:, :-1]
        acc += term.weight * part
    return MomentTable(acc)
