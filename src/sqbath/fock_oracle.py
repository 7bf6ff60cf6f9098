"""Truncated-Fock-space master-equation oracle.

This is the package's independent validation route: operators built from
sparse ladder matrices in a photon-number basis, exact catalogue-state
preparation, a fixed-step RK4 integration of the damped-mode master
equation

    drho/dt = Gamma (N+1) (2 a rho adag - adag a rho - rho adag a)
            + Gamma  N    (2 adag rho a - a adag rho - rho a adag)
            - Gamma  M    (2 adag rho adag - adag adag rho - rho adag adag)
            - Gamma  M*   (2 a rho a - a a rho - rho a a),

as one sparse superoperator acting on the flattened density matrix, and a
displaced-number series for the smoothed phase-space densities.
Nothing here calls the analytic layer; agreement between the two routes
is what the test suite certifies.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .errors import (
    ConfigError,
    SeriesDiverges,
    TraceDriftExceeded,
    TruncationTooSmall,
)
from .reservoir import ReservoirParams
from .states import (
    MAX_ORDER,
    Cat,
    Coherent,
    MomentTable,
    PhotonAddedCoherent,
    PhotonAddedThermal,
    SqueezedCoherent,
    StateSpec,
    Thermal,
)

DEFAULT_DIM = 64
TRACE_TOL = 1e-6
LEAKAGE_BOUND = 1e-12
SERIES_TOL = 1e-10


@lru_cache(maxsize=None)
def _ladder(dim: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Truncated (a, adag) as sparse matrices; shared, never mutated."""
    a = sp.diags(np.sqrt(np.arange(1.0, dim)).astype(complex), 1, format="csr")
    return a, a.T.tocsr()


def _displacement_generator(z: complex, dim: int) -> sp.csr_matrix:
    a, ad = _ladder(dim)
    return z * ad - np.conj(z) * a


def _squeeze_generator(xi: complex, dim: int) -> sp.csr_matrix:
    a, ad = _ladder(dim)
    return 0.5 * (np.conj(xi) * (a @ a) - xi * (ad @ ad))


def displacement(z: complex, dim: int) -> np.ndarray:
    """D(z) = exp(z adag - z* a) on the truncated space."""
    return expm(_displacement_generator(z, dim).toarray())


def squeeze(xi: complex, dim: int) -> np.ndarray:
    """S(xi) = exp((xi* a^2 - xi adag^2)/2) on the truncated space."""
    return expm(_squeeze_generator(xi, dim).toarray())


def coherent_vector(gamma: complex, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[0] = math.exp(-0.5 * abs(gamma) ** 2)
    for n in range(1, dim):
        v[n] = v[n - 1] * gamma / math.sqrt(n)
    return v


def _leakage(diag: np.ndarray) -> tuple[float, int]:
    dim = diag.shape[0]
    top = max(1, math.ceil(dim / 10))
    return float(np.real(diag[dim - top :]).sum()), top


def _check_leakage(rho: np.ndarray, what: str) -> None:
    leak, top = _leakage(np.diag(rho))
    if not (leak < LEAKAGE_BOUND):
        dim = rho.shape[0]
        raise TruncationTooSmall(
            f"{what}: population {leak:.3e} in the top {top} of {dim} levels "
            f"exceeds {LEAKAGE_BOUND:g}; retry with dim >= {2 * dim}"
        )


def prepare(state: StateSpec, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Density matrix of a catalogue state on dim levels.

    The exact state is projected onto the truncated space; if the top
    tenth of the ladder holds more than the leakage budget the dimension
    is rejected, otherwise the projection is renormalized to unit trace.
    """
    if dim < 2:
        raise ConfigError(f"dim must be >= 2, got {dim}")

    if isinstance(state, Coherent):
        v = coherent_vector(state.gamma, dim)
        rho = np.outer(v, v.conj())

    elif isinstance(state, Thermal):
        x = state.nbar / (state.nbar + 1.0)
        w = x ** np.arange(dim) / (state.nbar + 1.0)
        rho = np.diag(w.astype(complex))

    elif isinstance(state, SqueezedCoherent):
        # build in a larger space and project so the vector below dim is
        # the exact state's amplitudes, not truncated-exponential ones
        big = 2 * dim
        v = np.zeros(big, dtype=complex)
        v[0] = 1.0
        v = expm_multiply(_squeeze_generator(state.mu, big), v)
        v = expm_multiply(_displacement_generator(state.gamma, big), v)[:dim]
        rho = np.outer(v, v.conj())

    elif isinstance(state, PhotonAddedCoherent):
        _, ad = _ladder(dim)
        v = ad @ coherent_vector(state.gamma, dim)
        v = v / np.linalg.norm(v)
        rho = np.outer(v, v.conj())

    elif isinstance(state, PhotonAddedThermal):
        x = state.nbar / (state.nbar + 1.0)
        w = np.zeros(dim)
        m = np.arange(dim - 1)
        w[1:] = (m + 1.0) * x**m / (state.nbar + 1.0) ** 2
        rho = np.diag(w.astype(complex))

    elif isinstance(state, Cat):
        eip = complex(math.cos(state.phi), math.sin(state.phi))
        v = coherent_vector(state.gamma, dim) + eip * coherent_vector(-state.gamma, dim)
        v = v / np.linalg.norm(v)
        rho = np.outer(v, v.conj())

    else:
        raise ConfigError(f"unknown state kind: {type(state).__name__}")

    _check_leakage(rho, type(state).__name__)
    return rho / np.trace(rho).real


@lru_cache(maxsize=None)
def _dissipator_parts(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The module docstring's dissipators as superoperators on row-major
    vec(rho), stored on one shared sparsity pattern as (indptr, indices,
    values); rows 0, 1 and 2 of values are the parts multiplied by N+1, N
    and -M.

    Each dissipator is 2 x rho y - y x rho - rho y x, and
    vec(X rho Y) = (X kron Y^T) vec(rho); M being real, the -M part sums
    the (adag, adag) and (a, a) terms. The pattern is the union of the
    three (about nine entries per row) and does not depend on the
    reservoir: where N or M is zero the zeros stay stored, so one RK4 step
    costs the same for every reservoir of a given dim.
    """
    a, ad = _ladder(dim)
    eye = sp.identity(dim, dtype=complex, format="csr")

    def dissipator(x: sp.csr_matrix, y: sp.csr_matrix) -> sp.csr_matrix:
        yx = y @ x
        return 2.0 * sp.kron(x, y.T) - sp.kron(yx, eye) - sp.kron(eye, yx.T)

    parts = [dissipator(a, ad), dissipator(ad, a), dissipator(ad, ad) + dissipator(a, a)]
    parts = [p.tocoo() for p in parts]  # canonical sums: no duplicate entries
    size = dim * dim
    keys = [p.row.astype(np.int64) * size + p.col for p in parts]
    pattern, where = np.unique(np.concatenate(keys), return_inverse=True)
    values = np.zeros((len(parts), pattern.size))
    split = np.cumsum([k.size for k in keys])[:-1]
    for row, p, at in zip(values, parts, np.split(where, split)):
        row[at] = p.data.real
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(pattern // size, minlength=size), out=indptr[1:])
    indices = (pattern % size).astype(np.int32)
    for arr in (indptr, indices, values):
        arr.setflags(write=False)
    return indptr, indices, values


def _liouvillian(dim: int, res: ReservoirParams) -> sp.csr_matrix:
    """The master equation as one superoperator on row-major vec(rho),
    Gamma [(N+1) L_1 + N L_2 - M L_M] on _dissipator_parts' pattern."""
    indptr, indices, values = _dissipator_parts(dim)
    coef = res.gamma * np.array([res.N + 1.0, res.N, -res.M])
    size = dim * dim
    return sp.csr_matrix(((coef @ values).astype(complex), indices, indptr), shape=(size, size))


def lindblad_rhs(rho: np.ndarray, res: ReservoirParams) -> np.ndarray:
    """Right-hand side of the master equation (truncated)."""
    dim = rho.shape[0]
    return (_liouvillian(dim, res) @ rho.reshape(-1)).reshape(dim, dim)


def _rk4_step(lv: sp.csr_matrix, rho: np.ndarray, h: float) -> np.ndarray:
    v = rho.reshape(-1)
    k1 = lv @ v
    k2 = lv @ (v + (0.5 * h) * k1)
    k3 = lv @ (v + (0.5 * h) * k2)
    k4 = lv @ (v + h * k3)
    rho = (v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).reshape(rho.shape)
    # roundoff accumulates asymmetry; fold it back every step
    return 0.5 * (rho + rho.conj().T)


def _check_trace(rho: np.ndarray) -> None:
    drift = abs(np.trace(rho).real - 1.0)
    if drift > TRACE_TOL:
        raise TraceDriftExceeded(
            f"trace drift {drift:.3e} exceeds {TRACE_TOL:g}; reduce dt "
            "(the stability limit shrinks as dim grows)"
        )


def integrate(
    rho0: np.ndarray, res: ReservoirParams, t: float, dt: float | None = None
) -> np.ndarray:
    """Propagate rho0 to time t with fixed-step RK4 (default dt 1e-3/Gamma).

    The state is re-hermitized every step and the trace is only monitored
    — never renormalized — so drift stays an honest diagnostic.
    """
    return evolve_recording(rho0, res, [t], dt)[0]


def evolve_recording(
    rho0: np.ndarray,
    res: ReservoirParams,
    times: "list[float] | np.ndarray",
    dt: float | None = None,
) -> list[np.ndarray]:
    """Propagate once through a nondecreasing list of times, returning a
    density-matrix snapshot at each."""
    if dt is None:
        dt = 1e-3 / res.gamma
    if not (dt > 0.0):
        raise ConfigError(f"dt must be > 0, got {dt}")
    rho = np.array(rho0, dtype=complex)
    _check_trace(rho)
    lv = _liouvillian(rho.shape[0], res)
    out: list[np.ndarray] = []
    t_now = 0.0
    for target in times:
        if target < t_now - 1e-12:
            raise ConfigError("snapshot times must be nondecreasing")
        span = target - t_now
        if span > 0.0:
            n_steps = max(1, round(span / dt))
            h = span / n_steps
            for _ in range(n_steps):
                rho = _rk4_step(lv, rho, h)
                _check_trace(rho)
        t_now = target
        out.append(rho.copy())
    return out


@lru_cache(maxsize=None)
def _moment_bands(dim: int) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For each (j, k), the band of rho that tr(rho adag^j a^k) reads.

    a^k |n> = sqrt(n!/(n-k)!) |n-k> for n >= k, and adag^j then reaches
    |n-k+j> with sqrt((n-k+j)!/(n-k)!) as long as n-k+j < dim (the
    truncated adag empties the top level), so the trace is
    sum_n rho[n, n-k+j] times those two factors: (rows, cols, weights).
    """
    bands = {}
    for j in range(MAX_ORDER + 1):
        for k in range(MAX_ORDER + 1 - j):
            n = np.arange(k, min(dim, dim + k - j))
            low = n - k
            factor = np.ones(n.size)
            for i in range(k):
                factor *= n - i
            for i in range(1, j + 1):
                factor *= low + i
            band = (n, low + j, np.sqrt(factor))
            for arr in band:
                arr.setflags(write=False)
            bands[(j, k)] = band
    return bands


def moments_from_rho(rho: np.ndarray) -> MomentTable:
    """Normally ordered moment table tr(rho adag^j a^k), j + k <= 4."""
    m = np.zeros((MAX_ORDER + 1, MAX_ORDER + 1), dtype=complex)
    for (j, k), (rows, cols, weights) in _moment_bands(rho.shape[0]).items():
        m[j, k] = rho[rows, cols] @ weights
    return MomentTable(m)


def _series_weights(tau: float, dim: int) -> np.ndarray:
    ratio = -(1.0 - tau) / tau
    return ratio ** np.arange(dim) / (math.pi * tau)


def quasiprob_from_rho(rho: np.ndarray, z: complex, tau: float) -> float:
    """Smoothed density at z from the displaced-number series

        R(z, tau) = 1/(pi tau) sum_n [-(1-tau)/tau]^n <n| D†(z) rho D(z) |n>,

    convergent for tau in (1/2, 1]; terms are summed until the residual
    bound drops below 1e-10.
    """
    if not (0.5 < tau <= 1.0):
        raise SeriesDiverges(f"series requires tau in (1/2, 1], got {tau}")
    dim = rho.shape[0]
    d = displacement(z, dim)
    diag = np.real(np.einsum("in,ij,jn->n", d.conj(), rho, d))
    ratio = abs((1.0 - tau) / tau)
    # suffix maxima let us stop as soon as the rest of the series is dust
    suffix = np.maximum.accumulate(np.abs(diag)[::-1])[::-1]
    acc = 0.0
    sign = 1.0
    r_pow = 1.0
    for n in range(dim):
        if r_pow * suffix[n] < SERIES_TOL:
            break
        acc += sign * r_pow * diag[n]
        sign = -sign
        r_pow *= ratio
    return acc / (math.pi * tau)


@lru_cache(maxsize=None)
def _position_basis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (mu, W) of the real symmetric adag + a."""
    a, ad = _ladder(dim)
    mu, w = np.linalg.eigh((a + ad).toarray().real)
    mu.setflags(write=False)
    w.setflags(write=False)
    return mu, w


def _position_exp(dim: int, y: float) -> np.ndarray:
    """exp(i y (adag + a)) = W e^{i y mu} W^T."""
    mu, w = _position_basis(dim)
    return (w * np.exp(1j * y * mu)) @ w.T


@lru_cache(maxsize=None)
def _disp_imag(dim: int, y: float) -> np.ndarray:
    d = _position_exp(dim, y)
    d.setflags(write=False)
    return d


@lru_cache(maxsize=None)
def _disp_real(dim: int, x: float) -> np.ndarray:
    """exp(x (adag - a)) = R exp(i x (adag + a)) R^dag with R = diag((-i)^n),
    since R (adag + a) R^dag = -i (adag - a); the result is real."""
    r = np.array([1.0, -1j, -1.0, 1j])[np.arange(dim) % 4]
    d = np.ascontiguousarray((r[:, None] * _position_exp(dim, x) * r.conj()).real)
    d.setflags(write=False)
    return d


def quasiprob_grid(
    rho: np.ndarray, xs: np.ndarray, ys: np.ndarray, tau: float
) -> np.ndarray:
    """Same series as quasiprob_from_rho on a separable grid, shape
    (len(ys), len(xs)).

    Uses D(x + iy) = e^{-i x y} D(iy) D(x); the phase cancels under
    conjugation, and the two one-parameter displacement families are
    cached, so each grid point costs one matrix product.
    """
    if not (0.5 < tau <= 1.0):
        raise SeriesDiverges(f"series requires tau in (1/2, 1], got {tau}")
    dim = rho.shape[0]
    w = _series_weights(tau, dim)
    out = np.empty((len(ys), len(xs)), dtype=float)
    dxs = [_disp_real(dim, float(x)) for x in xs]
    for iy, y in enumerate(ys):
        dy = _disp_imag(dim, float(y))
        rho_y = dy.conj().T @ rho @ dy
        for ix, dx in enumerate(dxs):
            b = rho_y @ dx
            diag = np.real(np.einsum("in,in->n", dx.conj(), b))
            out[iy, ix] = diag @ w
    return out


def steady_state(res: ReservoirParams, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Fixed point of the master equation: a squeezed thermal state with
    <adag a> = N and <a^2> = M.

    Inverting N + 1/2 = (nbar0 + 1/2) cosh(2r), |M| = (nbar0 + 1/2) sinh(2r)
    gives the occupation and squeeze modulus; the squeeze phase is chosen
    so that the constructed state actually reproduces the sign of M
    (<a^2> on S(xi) rho_th S(xi)† is -e^{i arg xi} (2 nbar0 + 1) sh ch).
    """
    half = res.N + 0.5
    rad = half * half - res.M * res.M
    if rad <= 0.0:  # pragma: no cover - excluded by the M^2 bound
        raise ConfigError("reservoir violates the squeezing bound")
    c = 2.0 * math.sqrt(rad)
    nbar0 = (c - 1.0) / 2.0
    r = 0.5 * math.atanh(abs(res.M) / half)
    xi = r if res.M <= 0.0 else -r

    big = 2 * dim
    x = nbar0 / (nbar0 + 1.0) if nbar0 > 0.0 else 0.0
    w = x ** np.arange(big) / (nbar0 + 1.0)
    s = squeeze(xi, big)
    rho = (s @ np.diag(w.astype(complex)) @ s.conj().T)[:dim, :dim]
    return rho / np.trace(rho).real
