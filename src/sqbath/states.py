"""Initial-state catalogue, normally ordered moments, phase-space descriptors.

Six families are supported: coherent, thermal, squeezed coherent,
single-photon-added coherent, single-photon-added thermal, and coherent
superposition (cat) states.

Two exact representations are produced for each:

* a ``MomentTable`` of normally ordered moments <a^dag^j a^k> up to total
  order 4: a Gaussian family's is its centre's point table convolved with
  the noise table (``binomial_convolution``, the table of an independent
  sum), a photon-added state's one fixed shift of its base state's, and a
  cat's a point table times a parity weight;
* a descriptor: the state's diagonal-coherent-state weight written as
  a sum of ``DescriptorTerm``s, each a weight times a first- and
  second-order differential prefactor times a Gaussian-smoothed delta.
  Every family uses the same term shape.  A cat's coherences
  |gamma><-gamma| and |-gamma><gamma| are terms too: their normally
  ordered characteristic function is that of a delta whose z and z*
  centres are not complex conjugates, so once smoothed they are Gaussians
  with complex axis centres and complex weights.

The noise table accepts *signed* axis variances (a squeezed axis has a
negative formal variance; every moment identity is polynomial in the
variance, so the analytic continuation is exact).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import ClassVar, Union

import numpy as np

from .elementwise import FloatOrArray, emap
from .errors import ConfigError

MAX_ORDER = 4

# ---------------------------------------------------------------------------
# state catalogue
#
# Each family is one frozen dataclass that carries all of its analytic
# pieces; the module functions below and ``nonclassicality`` only call them.
#
#   kind                 config key of the family
#   moments()            exact moment table at t = 0
#   descriptor()         exact diagonal-weight descriptor at t = 0
#   depth(u, n_t, m_t)   raw depth profile in u = e^{-2 Gamma t}, with
#                        N_t = N (1 - u), M_t = M (1 - u); floats, or
#                        arrays over a time grid
#   crossing_roots(N, M) candidate roots u of depth = 0, each paired with
#                        the sign condition lost when squaring


@dataclass(frozen=True)
class Coherent:
    kind: ClassVar[str] = "coherent"

    gamma: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", complex(self.gamma))

    def moments(self) -> MomentTable:
        return gaussian_moment_table(self.gamma, np.conj(self.gamma), 0.0, 0.0)

    def descriptor(self) -> tuple[DescriptorTerm, ...]:
        term = DescriptorTerm(1.0, self.gamma, np.conj(self.gamma), 0.0, 0.0)
        return (term,)

    def depth(self, u: FloatOrArray, n_t: FloatOrArray, m_t: FloatOrArray) -> FloatOrArray:
        """|M_t| - N_t."""
        return abs(m_t) - n_t

    def crossing_roots(self, N: float, M: float) -> list[tuple[float, bool]]:
        # (|M| - N)(1 - u) keeps one sign for all t > 0
        return []


@dataclass(frozen=True)
class Thermal:
    kind: ClassVar[str] = "thermal"

    nbar: float

    def __post_init__(self) -> None:
        if not (self.nbar >= 0.0):
            raise ConfigError(f"thermal nbar must be >= 0, got {self.nbar}")

    def moments(self) -> MomentTable:
        return gaussian_moment_table(0.0, 0.0, self.nbar / 2.0, self.nbar / 2.0)

    def descriptor(self) -> tuple[DescriptorTerm, ...]:
        c = self.nbar / 4.0
        return (DescriptorTerm(1.0, 0.0, 0.0, c, c),)

    def depth(self, u: FloatOrArray, n_t: FloatOrArray, m_t: FloatOrArray) -> FloatOrArray:
        """|M_t| - (N_t + nbar u)."""
        return abs(m_t) - (n_t + self.nbar * u)

    def crossing_roots(self, N: float, M: float) -> list[tuple[float, bool]]:
        m_abs = abs(M)
        if m_abs <= N or self.nbar == 0.0:
            return []
        return [((m_abs - N) / (m_abs - N + self.nbar), True)]


@dataclass(frozen=True)
class SqueezedCoherent:
    """Displaced squeezed vacuum with real squeeze parameter mu.

    The convenience scale s = e^{2 mu} is the factor by which the two
    quadrature variances split: var_x = 1/(4s), var_y = s/4 at t = 0.
    """

    kind: ClassVar[str] = "squeezed_coherent"

    gamma: complex
    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", complex(self.gamma))

    @property
    def s(self) -> float:
        return math.exp(2.0 * self.mu)

    def moments(self) -> MomentTable:
        s = self.s
        return gaussian_moment_table(
            self.gamma, np.conj(self.gamma), (1.0 - s) / (4.0 * s), (s - 1.0) / 4.0
        )

    def descriptor(self) -> tuple[DescriptorTerm, ...]:
        s = self.s
        c_r, c_i = (1.0 - s) / (8.0 * s), -(1.0 - s) / 8.0
        term = DescriptorTerm(1.0, self.gamma, np.conj(self.gamma), c_r, c_i)
        return (term,)

    def depth(self, u: FloatOrArray, n_t: FloatOrArray, m_t: FloatOrArray) -> FloatOrArray:
        """Max of the two quadrature branches
        -(N_t + M_t - (s-1)/(2s) u) and -(N_t - M_t + (s-1)/2 u)."""
        s = self.s
        branch_x = -(n_t + m_t - (s - 1.0) / (2.0 * s) * u)
        branch_y = -(n_t - m_t + (s - 1.0) / 2.0 * u)
        return np.maximum(branch_x, branch_y)

    def crossing_roots(self, N: float, M: float) -> list[tuple[float, bool]]:
        # each branch is slope*u - intercept; its root is a root of their
        # max only where the other branch is not above zero
        s = self.s
        branches = (
            (N + M + (s - 1.0) / (2.0 * s), N + M),
            (N - M - (s - 1.0) / 2.0, N - M),
        )
        roots = []
        for (slope, intercept), (other_slope, other_intercept) in zip(
            branches, branches[::-1]
        ):
            if slope != 0.0:
                u = intercept / slope
                roots.append((u, other_slope * u - other_intercept <= 1e-12))
        return roots


@dataclass(frozen=True)
class PhotonAddedCoherent:
    """Normalized a^dag |gamma> / sqrt(|gamma|^2 + 1)."""

    kind: ClassVar[str] = "photon_added_coherent"

    gamma: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", complex(self.gamma))

    def moments(self) -> MomentTable:
        g = self.gamma
        return _added_photon(_point_table(g, np.conj(g), MAX_ORDER + 2, MAX_ORDER + 2))

    def descriptor(self) -> tuple[DescriptorTerm, ...]:
        norm = abs(self.gamma) ** 2 + 1.0
        term = DescriptorTerm(
            1.0, self.gamma, np.conj(self.gamma), 0.0, 0.0,
            lap=1.0 / (4.0 * norm), grad=-self.gamma / norm,
        )
        return (term,)

    def depth(self, u: FloatOrArray, n_t: FloatOrArray, m_t: FloatOrArray) -> FloatOrArray:
        """u/2 + sqrt(u^2/4 + M_t^2) - N_t, free of the amplitude."""
        return u / 2.0 + emap(math.hypot, u / 2.0, m_t) - n_t

    def crossing_roots(self, N: float, M: float) -> list[tuple[float, bool]]:
        m2 = M * M
        denom = N + N * N - m2
        if denom <= 0.0 or N * N <= m2:
            return []
        u = (N * N - m2) / denom
        return [(u, N * (1.0 - u) - u / 2.0 >= 0.0)]


@dataclass(frozen=True)
class PhotonAddedThermal:
    """Normalized a^dag rho_thermal a / (nbar + 1); requires nbar > 0
    (the phase-space prefactor is singular at nbar = 0)."""

    kind: ClassVar[str] = "photon_added_thermal"

    nbar: float

    def __post_init__(self) -> None:
        if not (self.nbar > 0.0):
            raise ConfigError(
                f"photon-added thermal requires nbar > 0, got {self.nbar}"
            )

    def moments(self) -> MomentTable:
        # <a^dag^j a^j> = j! nbar^j, to total order 6
        diagonal = [factorial(j) * self.nbar**j for j in range(MAX_ORDER // 2 + 2)]
        return _added_photon(np.diag(diagonal + [0.0, 0.0]))

    def descriptor(self) -> tuple[DescriptorTerm, ...]:
        c = self.nbar / 4.0
        term = DescriptorTerm(1.0, 0.0, 0.0, c, c, lap=(self.nbar + 1.0) / 4.0)
        return (term,)

    def depth(self, u: FloatOrArray, n_t: FloatOrArray, m_t: FloatOrArray) -> FloatOrArray:
        """(nbar+1)u/2 + sqrt(((nbar+1)u/2)^2 + M_t^2) - (N_t + nbar u)."""
        half = (self.nbar + 1.0) * u / 2.0
        return half + emap(math.hypot, half, m_t) - (n_t + self.nbar * u)

    def crossing_roots(self, N: float, M: float) -> list[tuple[float, bool]]:
        nb, m2 = self.nbar, M * M
        # (m2 - N^2)(1-u)^2 - N(nb-1) u (1-u) + nb u^2 = 0
        a = (m2 - N * N) + N * (nb - 1.0) + nb
        b = -2.0 * (m2 - N * N) - N * (nb - 1.0)
        c = m2 - N * N
        if abs(a) < 1e-300:
            roots = [-c / b] if b != 0.0 else []
        else:
            disc = b * b - 4.0 * a * c
            if disc < 0.0:
                return []
            sq = math.sqrt(disc)
            roots = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]
        return [(u, N * (1.0 - u) + u * (nb - 1.0) / 2.0 >= 0.0) for u in roots]


@dataclass(frozen=True)
class Cat:
    """(|gamma> + e^{i phi} |-gamma>) / sqrt(2 (1 + e^{-2|gamma|^2} cos phi))."""

    kind: ClassVar[str] = "cat"

    gamma: complex
    phi: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", complex(self.gamma))
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise ConfigError(f"cat phase must lie in [0, 2*pi), got {self.phi}")
        if self.norm_factor <= 1e-12:
            raise ConfigError(
                "degenerate cat: 1 + e^{-2|gamma|^2} cos(phi) vanishes"
            )

    @property
    def norm_factor(self) -> float:
        return 1.0 + math.exp(-2.0 * abs(self.gamma) ** 2) * math.cos(self.phi)

    def moments(self) -> MomentTable:
        g, olap = self.gamma, math.exp(-2.0 * abs(self.gamma) ** 2)
        eip = complex(math.cos(self.phi), math.sin(self.phi))
        # the point table times the lobes' and coherences' weight, which
        # depends on j and k only through their parities
        w = [[1.0 + (-1.0) ** (j + k) + olap * (eip * (-1.0) ** k + eip.conjugate() * (-1.0) ** j)
              for k in (0, 1)] for j in (0, 1)]
        point = _point_table(g, np.conj(g), MAX_ORDER + 1, MAX_ORDER).tolist()
        m = [[p * w[j % 2][k % 2] for k, p in enumerate(row)] for j, row in enumerate(point)]
        return MomentTable(np.array(m) / (2.0 * self.norm_factor))

    def descriptor(self) -> tuple[DescriptorTerm, ...]:
        """The two lobes, and the coherences e^{-i phi} |g><-g| and
        e^{i phi} |-g><g|, weighted by their overlap <-g|g> = e^{-2|g|^2}."""
        g, gc = self.gamma, np.conj(self.gamma)
        w = 1.0 / (2.0 * self.norm_factor)
        cross = w * math.exp(-2.0 * abs(g) ** 2)
        eip = complex(math.cos(self.phi), math.sin(self.phi))
        return (
            DescriptorTerm(w, g, gc, 0.0, 0.0),
            DescriptorTerm(w, -g, -gc, 0.0, 0.0),
            DescriptorTerm(cross * eip.conjugate(), g, -gc, 0.0, 0.0),
            DescriptorTerm(cross * eip, -g, gc, 0.0, 0.0),
        )

    # the depth profile is the photon-added coherent one, term for term
    depth = PhotonAddedCoherent.depth
    crossing_roots = PhotonAddedCoherent.crossing_roots


StateSpec = Union[
    Coherent, Thermal, SqueezedCoherent, PhotonAddedCoherent, PhotonAddedThermal, Cat
]


# ---------------------------------------------------------------------------
# moment tables
#
# The evolve CSV bytes depend on each table having the floats of the plain
# scalar sum.  Two rules keep them: a complex x complex product is taken one
# scalar at a time (NumPy's array complex multiply fuses multiply-adds), and
# the second table of a convolution is real, so each array product is exact.

_J, _K = np.indices((MAX_ORDER + 1, MAX_ORDER + 1))  # (j, k) of each entry
_UNUSED = _J + _K > MAX_ORDER
_ADDED_WEIGHTS = 1.0 + _J + _K, (_J * _K)[1:, 1:]  # (1 + j + k, j k) of _added_photon


class MomentTable:
    """Normally ordered moments <a^dag^j a^k> for 0 <= j + k <= 4.

    Entries with j + k > 4 of the backing (5, 5) array are unused and set
    to zero.  Hermiticity means m[j, k] = conj(m[k, j]); diagonal entries
    are real.
    """

    __slots__ = ("_m",)

    def __init__(self, entries: np.ndarray):
        m = np.array(entries, dtype=complex)
        if m.shape != (MAX_ORDER + 1, MAX_ORDER + 1):
            raise ValueError(f"expected a (5, 5) array, got shape {m.shape}")
        m[_UNUSED] = 0.0
        self._m = m
        self._m.setflags(write=False)

    def __getitem__(self, jk: tuple[int, int]) -> complex:
        j, k = jk
        if not (0 <= j and 0 <= k and j + k <= MAX_ORDER):
            raise KeyError(f"moment ({j}, {k}) outside the tracked order")
        return complex(self._m[j, k])

    @property
    def array(self) -> np.ndarray:
        return self._m

    # convenience accessors used all over the observable layer
    @property
    def mean_a(self) -> complex:
        return complex(self._m[0, 1])

    @property
    def mean_a2(self) -> complex:
        return complex(self._m[0, 2])

    @property
    def mean_n(self) -> float:
        return float(self._m[1, 1].real)

    @property
    def mean_n2_ordered(self) -> float:
        """<a^dag^2 a^2>."""
        return float(self._m[2, 2].real)

    def var_x(self) -> float:
        """Variance of X = (a + a^dag)/2."""
        mean = self._m[0, 1].real
        second = (self._m[0, 2] + self._m[2, 0] + 2.0 * self._m[1, 1] + 1.0).real / 4.0
        return float(second - mean * mean)

    def var_y(self) -> float:
        """Variance of Y = (a - a^dag)/(2i)."""
        mean = self._m[0, 1].imag
        second = (2.0 * self._m[1, 1] + 1.0 - self._m[0, 2] - self._m[2, 0]).real / 4.0
        return float(second - mean * mean)

    def check(self, tol: float = 1e-10) -> None:
        """Raise if normalization/hermiticity/positivity are violated."""
        m = self._m
        if abs(m[0, 0] - 1.0) > tol:
            raise ConfigError(f"moment table not normalized: m00 = {m[0, 0]}")
        bad = np.argwhere(np.abs(m - m.conj().T) > tol)  # row by row
        if len(bad):
            raise ConfigError(f"hermiticity violated at ({bad[0, 0]}, {bad[0, 1]})")
        for j in (1, 2):
            if m[j, j].real < -tol or abs(m[j, j].imag) > tol:
                raise ConfigError(f"m{j}{j} must be real nonnegative: {m[j, j]}")


@lru_cache(maxsize=None)
def _convolution_terms(n: int) -> np.ndarray:
    """The terms of ``binomial_convolution`` on (n, n) tables in the order
    they are summed, entry (j, k) row by row, then p, then q: rows of the
    flat indices of (j, k), a[j-p, k-q] and b[p, q], and C(j, p) C(k, q)."""
    terms = np.array([
        (j * n + k, (j - p) * n + k - q, p * n + q, comb(j, p) * comb(k, q))
        for j in range(n) for k in range(n - j) for p in range(j + 1) for q in range(k + 1)
    ]).T
    terms.setflags(write=False)
    return terms


def binomial_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """m[j, k] = sum_{p <= j, q <= k} C(j, p) C(k, q) a[j-p, k-q] b[p, q]
    for j + k < n on (n, n) tables, zero elsewhere: the table <z*^j z^k> of
    z_a + z_b from those of independent z_a and z_b.  b must be real (its
    real part is read).  Each term is (C(j, p) C(k, q) a[j-p, k-q]) b[p, q],
    summed in (p, q) order: the floats of the scalar double loop, and like
    it silent on overflow."""
    n = a.shape[0]
    entry, at_a, at_b, weight = _convolution_terms(n)
    b_terms = np.real(b).ravel()[at_b]
    m = np.zeros(n * n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        m.real = np.bincount(entry, weight * a.real.ravel()[at_a] * b_terms, n * n)
        if np.iscomplexobj(a):
            m.imag = np.bincount(entry, weight * a.imag.ravel()[at_a] * b_terms, n * n)
    return m.reshape(n, n)


def _pow(base: complex, k: int) -> complex:
    """Python's base**k, with NaN for an overflow: complex pow raises
    OverflowError for some phases and returns NaN for the others."""
    try:
        return base**k
    except OverflowError:
        return complex(math.nan, math.nan)


def _point_table(center: complex, center_bar: complex, n: int, order: int) -> np.ndarray:
    """(n, n) table of center_bar^j center^k for j + k <= order, zero
    elsewhere: the moments of the point (z, z*) = (center, center_bar)."""
    powers = [_pow(center, k) for k in range(n)]
    bars = [_pow(center_bar, j) for j in range(n)]
    table = np.zeros((n, n), dtype=complex)
    for j, bar in enumerate(bars[: order + 1]):
        table[j, : order + 1 - j] = [bar * p for p in powers[: order + 1 - j]]
    return table


def _axis_moments(var: float, kmax: int) -> list[float]:
    """E[x^k] for a centered 1-D Gaussian with (possibly negative)
    formal variance: odd moments vanish, E[x^{2m}] = (2m-1)!! var^m."""
    out = [0.0] * (kmax + 1)
    out[0] = 1.0
    for k in range(2, kmax + 1, 2):
        out[k] = out[k - 2] * (k - 1) * var
    return out


def complex_noise_moments(var_r: float, var_i: float, order: int = MAX_ORDER) -> np.ndarray:
    """E[xi*^p xi^q] for xi = xi_r + i xi_i with independent zero-mean
    axes of formal variance var_r, var_i; p + q <= order.  It is the table
    of i xi_i, (-1)^((q-p)/2) E[xi_i^(p+q)], convolved with the table
    E[xi_r^(p+q)] of xi_r."""
    p, q = np.indices((order + 1, order + 1))
    pad = [0.0] * order
    real_axis = np.array(_axis_moments(var_r, order) + pad)[p + q]
    imag_axis = np.array(_axis_moments(var_i, order) + pad)[p + q]
    imag_axis[(q - p) % 4 == 2] *= -1.0
    return binomial_convolution(imag_axis, real_axis)


def gaussian_moment_table(
    center: complex, center_bar: complex, var_r: float, var_i: float
) -> MomentTable:
    """Moment table of beta = center + xi, beta* = center_bar + xi*, for
    the formal Gaussian noise described by ``complex_noise_moments``.
    A density has center_bar = conj(center); a coherence does not."""
    point = _point_table(center, center_bar, MAX_ORDER + 1, MAX_ORDER)
    return MomentTable(binomial_convolution(point, complex_noise_moments(var_r, var_i)))


def _added_photon(base: np.ndarray) -> MomentTable:
    """<a^dag^j a^k> on the normalized state a^dag rho a / tr(a^dag rho a),
    from normal-ordering a a^dag^j a^k a^dag against the base state:
    a a^dag^j a^k a^dag = a^dag^{j+1} a^{k+1} + (1+j+k) a^dag^j a^k
                          + j k a^dag^{j-1} a^{k-1};
    ``base`` is the base state's (6, 6) table, to total order 6.
    """
    diagonal, inner = _ADDED_WEIGHTS
    num = base[1:, 1:] + diagonal * base[:-1, :-1]
    num[1:, 1:] += inner * base[:-2, :-2]
    return MomentTable(num / (base[1, 1] + 1.0))


def initial_moments(state: StateSpec) -> MomentTable:
    """Exact normally ordered moments of the catalogue state at t = 0."""
    return state.moments()


# ---------------------------------------------------------------------------
# phase-space descriptors


@dataclass(frozen=True)
class DescriptorTerm:
    """weight x (1 + lap (d²/dz_r² + d²/dz_i²) + Re(grad) d/dz_r + Im(grad) d/dz_i)
    x exp(c_r d²/dz_r² + c_i d²/dz_i²) delta²(z - center).

    ``center`` and ``center_bar`` are the centres of z and of z*.  A term
    of the density itself has center_bar = conj(center) and a real weight.
    A coherence c |a><b| has center = a, center_bar = conj(b) and the
    complex weight c <b|a>; its axis centres (center + center_bar)/2 and
    (center - center_bar)/2i are complex, and once smoothed it is the
    analytic continuation of a Gaussian.

    A strictly positive pair (c_r, c_i) makes the term a genuine
    (polynomial x Gaussian) kernel; a negative coefficient marks an axis
    squeezed below the delta scale, which only ever appears inside
    further-smoothed evaluations.
    """

    weight: complex
    center: complex
    center_bar: complex
    c_r: float
    c_i: float
    lap: float = 0.0
    grad: complex = 0.0

    @property
    def in_density(self) -> bool:
        """True for a term of the diagonal weight, False for a coherence."""
        return self.center_bar == np.conj(self.center)
