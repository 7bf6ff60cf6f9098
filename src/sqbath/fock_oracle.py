"""Truncated-Fock-space master-equation oracle.

This is the package's independent validation route: operators built from
sparse ladder matrices in a photon-number basis, exact catalogue-state
preparation, a fixed-step RK4 integration of the damped-mode master
equation

    drho/dt = Gamma (N+1) (2 a rho adag - adag a rho - rho adag a)
            + Gamma  N    (2 adag rho a - a adag rho - rho a adag)
            - Gamma  M    (2 adag rho adag - adag adag rho - rho adag adag)
            - Gamma  M*   (2 a rho a - a a rho - rho a a),

as one sparse superoperator, its steady state, and a displaced-number
series for the smoothed phase-space densities, evaluated on separable
grids (a single point is a 1 x 1 grid). The superoperator is a sum of
Kronecker products of ladder matrices, vec(X rho Y) = (X kron Y^T) vec(rho).
With M real it is real, and rho = S + iA (S real symmetric, A real
antisymmetric) evolves as dim^2 real Hermitian coordinates, S's upper
triangle and A's strict upper one: one real sparse product per RK4 stage,
and snapshots that are Hermitian by construction. The default step is
taken from the superoperator itself, inside RK4's stability region at
every dim (see RK4_STABLE_RADIUS). The trace is only monitored, never
renormalized. The steady state is the null vector of the same
superoperator, normalized by its trace. prepare and steady_state reject a
dim whose top tenth of the ladder holds LEAKAGE_BOUND or more, and
evolve_truncated picks a trajectory's dim itself (see TRAJECTORY_BUDGET).
Nothing here calls the analytic layer; agreement between the two routes
is what the test suite certifies.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, spsolve

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

# RK4's stability region contains the left half-disc of radius 2.61
# (|R(z)| <= 1 checked on a fine polar grid), and every eigenvalue of the
# dissipative L lies in the left half-plane within G, its largest absolute
# row sum (Gershgorin), so the step RK4_STABLE_RADIUS / G is stable at every
# dim and reservoir. A fixed fraction, not an option: stability is all the
# step must give, as its error on the moments stays far below the 1e-6
# agreement gate.
RK4_STABLE_RADIUS = 2.5
TRACE_TOL = 1e-6
LEAKAGE_BOUND = 1e-12
HERMITIAN_TOL = 1e-12
# On the criterion-3 rows the worst relative moment error ran 100 to 350
# times the largest top-tenth population: at most 3.5e-7 under this budget.
TRAJECTORY_BUDGET = 1e-9
# evolve_truncated's dims, each 16 ceil(1.2 d / 16) after the one before, d
TRUNCATION_DIMS = (64, 80, 96, 128, 160, 192, 240, 288, 352, 432, 528)


@lru_cache(maxsize=None)
def _ladder(dim: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Truncated (a, adag) as sparse matrices; shared, never mutated."""
    a = sp.diags(np.sqrt(np.arange(1.0, dim)).astype(complex), 1, format="csr")
    return a, a.T.tocsr()


def coherent_vector(gamma: complex, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[0] = math.exp(-0.5 * abs(gamma) ** 2)
    for n in range(1, dim):
        v[n] = v[n - 1] * gamma / math.sqrt(n)
    return v


def top_tenth_population(rho: np.ndarray) -> float:
    """Population of the top tenth of rho's ladder, where truncation shows first."""
    dim = rho.shape[0]
    return float(np.diag(rho).real[dim - math.ceil(dim / 10) :].sum())


def _too_small(what: str, leak: float, dim: int, bound=LEAKAGE_BOUND, hint=None):
    return TruncationTooSmall(
        f"{what}: population {leak:.3e} in the top {math.ceil(dim / 10)} of {dim} "
        f"levels exceeds {bound:g}; {hint or f'retry with dim >= {2 * dim}'}"
    )


def prepare(state: StateSpec, dim: int) -> np.ndarray:
    """Density matrix of a catalogue state on dim levels.

    The exact state is projected onto the truncated space; if the top
    tenth of the ladder holds more than the leakage budget the dimension
    is rejected, otherwise the projection is renormalized to unit trace
    and made exactly Hermitian (v v^dag is so only to rounding).
    """
    rho, leak = _projected(state, dim)
    if not (leak < LEAKAGE_BOUND):
        raise _too_small(type(state).__name__, leak, dim)
    return rho


def _projected(state: StateSpec, dim: int) -> tuple[np.ndarray, float]:
    """prepare's density matrix before its leakage check, and the
    top-tenth population of the projection before it is renormalized."""
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
        a, ad = _ladder(2 * dim)
        mu, gamma = state.mu, state.gamma
        v = np.zeros(2 * dim, dtype=complex)
        v[0] = 1.0
        v = expm_multiply(0.5 * (np.conj(mu) * (a @ a) - mu * (ad @ ad)), v)  # S(mu)
        v = expm_multiply(gamma * ad - np.conj(gamma) * a, v)[:dim]  # D(gamma)
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

    return (rho + rho.conj().T) / (2.0 * np.trace(rho).real), top_tenth_population(rho)


@lru_cache(maxsize=None)
def _triangles(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols) of rho's upper triangle with its diagonal, then without
    it, in row-major order: where the coordinates of S and of A sit."""
    out = (*np.triu_indices(dim), *np.triu_indices(dim, 1))
    for arr in out:
        arr.setflags(write=False)
    return out


def _pack(rho: np.ndarray) -> np.ndarray:
    """Hermitian coordinates of rho = S + iA: S's upper triangle, diagonal
    included, then A's strict upper triangle; dim^2 real numbers in all."""
    s_rows, s_cols, a_rows, a_cols = _triangles(rho.shape[0])
    return np.concatenate((rho.real[s_rows, s_cols], rho.imag[a_rows, a_cols]))


def _unpack(x: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian matrix whose coordinates are x; exactly Hermitian."""
    s_rows, s_cols, a_rows, a_cols = _triangles(dim)
    n_s = s_rows.size
    rho = np.zeros((dim, dim), dtype=complex)
    rho.real[s_rows, s_cols] = x[:n_s]
    rho.real[s_cols, s_rows] = x[:n_s]
    rho.imag[a_rows, a_cols] = x[n_s:]
    rho.imag[a_cols, a_rows] = -x[n_s:]
    return rho


def _folded_dissipators(dim: int) -> list[sp.csr_matrix]:
    """The three parts of the module docstring's master equation, the
    dissipators that N+1, N and -M multiply, as real superoperators on the
    Hermitian coordinates x of rho (see _pack).

    Each dissipator is 2 x rho y - y x rho - rho y x, and
    vec(X rho Y) = (X kron Y^T) vec(rho) on row-major vec(rho), so each part
    D is a sum of weighted Kronecker products. The ladder matrices are
    real, so D is real and commutes with transposition: it maps S to a
    symmetric and A to an antisymmetric matrix, and is block diagonal in x.
    Each block is folded as R D E: E writes the block's coordinates into
    vec(rho) (S on both triangles, A with -1 on the lower one), and R reads
    the upper triangle back.

    A complex M would add a fourth part, -i Im(M) [D(adag, adag) - D(a, a)],
    which fills the S <-> A cross blocks of the same coordinates.
    """
    a, ad = (m.real for m in _ladder(dim))
    eye = sp.identity(dim, format="csr")

    def dissipator(x: sp.csr_matrix, y: sp.csr_matrix) -> sp.csr_matrix:
        yx = y @ x
        return 2.0 * sp.kron(x, y.T) - sp.kron(yx, eye) - sp.kron(eye, yx.T)

    parts = [dissipator(a, ad), dissipator(ad, a), dissipator(ad, ad) + dissipator(a, a)]
    s_rows, s_cols, a_rows, a_cols = _triangles(dim)
    blocks = []
    for rows, cols, sign in ((s_rows, s_cols, 1.0), (a_rows, a_cols, -1.0)):
        coord = np.arange(rows.size)
        upper, lower = rows * dim + cols, cols * dim + rows
        # on S's diagonal, lower is upper and its weight 0 adds nothing
        weights = np.r_[np.ones(rows.size), sign * (rows != cols)]
        at = (np.r_[upper, lower], np.r_[coord, coord])
        e = sp.csr_matrix((weights, at), shape=(dim * dim, rows.size))
        blocks.append([d[upper] @ e for d in parts])  # R D E; R takes rows
    return [sp.block_diag(pair, format="csr") for pair in zip(*blocks)]


@lru_cache(maxsize=None)
def _dissipator_parts(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_folded_dissipators on one shared sparsity pattern, as
    (indptr, indices, values); row p of values is part p.

    The pattern is the union of the parts' nonzeros (about nine entries
    per row) and does not depend on the reservoir: where N or M is zero
    the zeros stay stored, so one RK4 step costs the same for every
    reservoir of a given dim.
    """
    size = dim * dim
    # the Kronecker temporaries are freed on return, before the union
    parts = [f.tocoo() for f in _folded_dissipators(dim)]
    union = sp.csr_matrix(sum(abs(f) for f in parts))
    union.sort_indices()
    # each part's entries, placed by row-major position in the union
    where = np.repeat(np.arange(size, dtype=np.int64), np.diff(union.indptr)) * size
    where += union.indices
    values = np.zeros((len(parts), union.nnz))
    for p, f in enumerate(parts):
        values[p, np.searchsorted(where, f.row.astype(np.int64) * size + f.col)] = f.data
    for arr in (union.indptr, union.indices, values):
        arr.setflags(write=False)
    return union.indptr, union.indices, values


def _liouvillian(dim: int, res: ReservoirParams) -> sp.csr_matrix:
    """The master equation as one real superoperator on the Hermitian
    coordinates of rho, Gamma [(N+1) L_1 + N L_2 - M L_M] on
    _dissipator_parts' pattern."""
    indptr, indices, values = _dissipator_parts(dim)
    coef = res.gamma * np.array([res.N + 1.0, res.N, -res.M])
    size = dim * dim
    return sp.csr_matrix((coef @ values, indices, indptr), shape=(size, size))


def lindblad_rhs(rho: np.ndarray, res: ReservoirParams) -> np.ndarray:
    """Right-hand side of the master equation (truncated), for any square
    rho: by linearity, L(H1 + i H2) = L(H1) + i L(H2) with the Hermitian
    H1 = (rho + rho^dag)/2 and H2 = (rho - rho^dag)/(2i)."""
    dim = rho.shape[0]
    lv = _liouvillian(dim, res)
    rho_dag = rho.conj().T
    h1 = _unpack(lv @ _pack(0.5 * (rho + rho_dag)), dim)
    h2 = _unpack(lv @ _pack(-0.5j * (rho - rho_dag)), dim)
    return h1 + 1j * h2


def _rk4_step(
    lv: sp.csr_matrix, x: np.ndarray, h: float, acc: np.ndarray, stage: np.ndarray
) -> None:
    """x += h/6 (k1 + 2 k2 + 2 k3 + k4), in place; acc and stage are
    scratch vectors of x's size."""
    k = lv @ x
    np.copyto(acc, k)
    np.multiply(k, 0.5 * h, out=stage)
    stage += x
    for c in (0.5 * h, h):
        k = lv @ stage
        np.multiply(k, c, out=stage)
        stage += x
        k *= 2.0
        acc += k
    acc += lv @ stage
    acc *= h / 6.0
    x += acc


def _stable_step(lv: sp.csr_matrix) -> float:
    """RK4_STABLE_RADIUS over lv's largest absolute row sum."""
    return RK4_STABLE_RADIUS / float(abs(lv).sum(axis=1).max())


def _check_trace(trace: float) -> None:
    drift = abs(trace - 1.0)
    if drift > TRACE_TOL:
        raise TraceDriftExceeded(
            f"trace drift {drift:.3e} exceeds {TRACE_TOL:g}; reduce dt "
            "(the stability limit shrinks as dim grows)"
        )


def _check_hermitian(rho: np.ndarray) -> None:
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ConfigError(f"rho0 must be a square matrix, got shape {rho.shape}")
    gap = np.abs(rho - rho.conj().T).max()
    if not (gap <= HERMITIAN_TOL * np.abs(rho).max()):
        raise ConfigError(
            f"rho0 is not Hermitian: |rho - rho^dag| reaches {gap:.3e}"
        )


def integrate(
    rho0: np.ndarray, res: ReservoirParams, t: float, dt: float | None = None
) -> np.ndarray:
    """Propagate rho0 to time t with fixed-step RK4 (the step as in
    evolve_recording).

    The state evolves as its dim^2 real Hermitian coordinates, so the
    result is Hermitian by construction. The trace is only monitored —
    never renormalized — so drift stays an honest diagnostic.
    """
    return evolve_recording(rho0, res, [t], dt)[0]


def evolve_recording(
    rho0: np.ndarray,
    res: ReservoirParams,
    times: "list[float] | np.ndarray",
    dt: float | None = None,
) -> list[np.ndarray]:
    """Propagate once through a nondecreasing list of times, returning a
    density-matrix snapshot at each.

    dt is the largest step; by default RK4_STABLE_RADIUS over the largest
    absolute row sum of the Liouvillian. Each span between snapshot times
    is cut into the fewest equal steps no longer than dt.

    rho0 must be Hermitian to HERMITIAN_TOL of its largest entry; it is
    read from its upper triangle into Hermitian coordinates once, and a
    complex snapshot is written back from them at each time.
    """
    if dt is not None and not (dt > 0.0):
        raise ConfigError(f"dt must be > 0, got {dt}")
    rho0 = np.asarray(rho0)
    _check_hermitian(rho0)
    dim = rho0.shape[0]
    return [_unpack(x, dim) for x in _trajectory(rho0, res, times, dt)]


def _trajectory(rho0: np.ndarray, res: ReservoirParams, times, dt) -> Iterator[np.ndarray]:
    """evolve_recording's integration, yielding the Hermitian coordinates
    at each time (one array, advanced in place) so that a caller may stop."""
    dim = rho0.shape[0]
    x = _pack(rho0)
    s_rows, s_cols, _, _ = _triangles(dim)
    diagonal = np.flatnonzero(s_rows == s_cols)
    _check_trace(x[diagonal].sum())
    lv = _liouvillian(dim, res)
    if dt is None:
        dt = _stable_step(lv)
    acc, stage = np.empty_like(x), np.empty_like(x)
    t_now = 0.0
    for target in times:
        if target < t_now - 1e-12:
            raise ConfigError("snapshot times must be nondecreasing")
        span = target - t_now
        if span > 0.0:
            # the 1e-9 keeps a ratio that rounding lifts past an integer
            n_steps = max(1, math.ceil(span / dt - 1e-9))
            h = span / n_steps
            for _ in range(n_steps):
                _rk4_step(lv, x, h, acc, stage)
                _check_trace(x[diagonal].sum())
        t_now = target
        yield x


def evolve_truncated(state: StateSpec, res: ReservoirParams, times) -> tuple[int, list[np.ndarray]]:
    """(dim, evolve_recording(prepare(state, dim), res, times)) at the first
    dim of TRUNCATION_DIMS where prepare passes and every snapshot keeps its
    top-tenth population below TRAJECTORY_BUDGET, checked as it is taken.
    Past the last dim raises TruncationTooSmall with what that dim measured.
    """
    for dim in TRUNCATION_DIMS:
        rho0, leak = _projected(state, dim)
        bound = LEAKAGE_BOUND
        if leak < bound:
            bound, snaps = TRAJECTORY_BUDGET, []
            for x in _trajectory(rho0, res, times, None):
                snaps.append(_unpack(x, dim))
                leak = top_tenth_population(snaps[-1])
                if not (leak < bound):
                    break
            else:
                return dim, snaps
    raise _too_small(
        type(state).__name__, leak, dim, bound, f"no dim up to {dim} is tall enough; "
        "shorten the time grid or lower the state's or the reservoir's photon numbers",
    )


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


@lru_cache(maxsize=None)
def _position_basis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (mu, W) of the real symmetric adag + a."""
    a, ad = _ladder(dim)
    mu, w = np.linalg.eigh((a + ad).toarray().real)
    mu.setflags(write=False)
    w.setflags(write=False)
    return mu, w


def _disp_imag(dim: int, y: float) -> np.ndarray:
    """D(iy) = exp(i y (adag + a)) = W e^{i y mu} W^T."""
    mu, w = _position_basis(dim)
    return (w * np.exp(1j * y * mu)) @ w.T


def _disp_real(dim: int, x: float) -> np.ndarray:
    """D(x) = exp(x (adag - a)) = R exp(i x (adag + a)) R^dag with
    R = diag((-i)^n), since R (adag + a) R^dag = -i (adag - a); the result
    is real."""
    r = np.array([1.0, -1j, -1.0, 1j])[np.arange(dim) % 4]
    return np.ascontiguousarray((r[:, None] * _disp_imag(dim, x) * r.conj()).real)


def displaced_populations(rho: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """<n| D†(z) rho D(z) |n> for every level n on a separable grid
    z = x + iy, shape (len(ys), len(xs), dim).

    Uses D(x + iy) = e^{-i x y} D(iy) D(x); the phase cancels under
    conjugation.  Each D(x) and D(iy) is built once per call from the
    cached eigenbasis of adag + a, so each grid point costs one matrix
    product.
    """
    dim = rho.shape[0]
    out = np.empty((len(ys), len(xs), dim))
    dxs = [_disp_real(dim, float(x)) for x in xs]
    for iy, y in enumerate(ys):
        dy = _disp_imag(dim, float(y))
        rho_y = dy.conj().T @ rho @ dy
        for ix, dx in enumerate(dxs):
            b = rho_y @ dx
            out[iy, ix] = np.real(np.einsum("in,in->n", dx.conj(), b))
    return out


def quasiprob_grid(
    rho: np.ndarray, xs: np.ndarray, ys: np.ndarray, tau: float
) -> np.ndarray:
    """Smoothed density from the displaced-number series

        R(z, tau) = 1/(pi tau) sum_n [-(1-tau)/tau]^n <n| D†(z) rho D(z) |n>,

    convergent for tau in [1/2, 1] and summed over all dim levels, on a
    separable grid z = x + iy, shape (len(ys), len(xs)); the populations
    come from displaced_populations (at tau = 1/2 the parity series of the
    Wigner function).  One dot product per point, so that a point's value
    does not depend on the grid around it.
    """
    if not (0.5 <= tau <= 1.0):
        raise SeriesDiverges(f"series requires tau in [1/2, 1], got {tau}")
    pops = displaced_populations(rho, xs, ys)
    w = _series_weights(tau, rho.shape[0])
    return np.array([p @ w for p in pops.reshape(-1, w.size)]).reshape(pops.shape[:2])


def steady_state(res: ReservoirParams, dim: int) -> np.ndarray:
    """Fixed point of the truncated master equation: the solution of
    L x = 0 on the Hermitian coordinates, with L's first row replaced by
    tr rho = 1.

    Each dissipator is traceless (cyclicity holds for the truncated ladder
    matrices too), so the rows of L that give rho's diagonal sum to zero,
    and the replaced row, d rho[0, 0]/dt, is implied by the others. The
    solution is the truncated dynamics' fixed point at any dim, so the
    leakage budget decides whether dim is tall enough.
    """
    s_rows, s_cols, _, _ = _triangles(dim)
    trace = np.zeros(dim * dim)
    trace[: s_rows.size] = s_rows == s_cols
    system = sp.vstack((sp.csr_matrix(trace), _liouvillian(dim, res)[1:]), format="csc")
    rho = _unpack(spsolve(system, np.eye(1, dim * dim)[0]), dim)
    leak = top_tenth_population(rho)
    if not (leak < LEAKAGE_BOUND):
        raise _too_small("steady state", leak, dim)
    return rho
