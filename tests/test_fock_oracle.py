import ast
import inspect
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import eigs

from sqbath import (
    Cat,
    Coherent,
    ConfigError,
    PhotonAddedCoherent,
    PhotonAddedThermal,
    ReservoirParams,
    SeriesDiverges,
    SqueezedCoherent,
    Thermal,
    TraceDriftExceeded,
    TruncationTooSmall,
    fock_oracle,
    gaussian_tau_from_covariance,
    steady_tau,
)
from sqbath.fock_oracle import (
    RK4_STABLE_RADIUS,
    TRAJECTORY_BUDGET,
    TRUNCATION_DIMS,
    _disp_imag,
    _disp_real,
    _dissipator_parts,
    _liouvillian,
    _pack,
    _rk4_step,
    _stable_step,
    _triangles,
    _unpack,
    coherent_vector,
    displaced_populations,
    evolve_recording,
    evolve_truncated,
    integrate,
    lindblad_rhs,
    moments_from_rho,
    prepare,
    quasiprob_grid,
    steady_state,
    top_tenth_population,
)

SQRT2 = math.sqrt(2.0)
R_SAT = ReservoirParams(N=1.0, M=-SQRT2)
R_MIX = ReservoirParams(N=2.0, M=1.0)
R_TH = ReservoirParams(N=1.0, M=0.0)


def _dense_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    return a, a.conj().T


# ---------------------------------------------------------------------------
# preparation


def test_prepare_vacuum():
    rho = prepare(Coherent(0.0), 8)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_prepare_thermal_geometric_weights():
    rho = prepare(Thermal(1.0), 64)
    m = np.arange(64)
    np.testing.assert_allclose(np.diag(rho).real, 0.5**(m + 1), atol=1e-15)
    assert np.trace(rho).real >= 1.0 - 1e-15
    assert np.abs(rho - np.diag(np.diag(rho))).max() == 0.0


def test_prepare_added_thermal_weights():
    # level m+1 carries weight prop. to (m+1) (1/2)^m; the vacuum is empty
    rho = prepare(PhotonAddedThermal(1.0), 64)
    diag = np.diag(rho).real
    assert diag[0] == 0.0
    m = np.arange(63)
    np.testing.assert_allclose(diag[1:], (m + 1) * 0.5**m / 4.0, atol=1e-15)


def test_prepare_coherent_moments_are_monomials():
    g = 0.7 - 0.4j
    table = moments_from_rho(prepare(Coherent(g), 64))
    for j in range(5):
        for k in range(5 - j):
            assert abs(table[j, k] - np.conj(g) ** j * g**k) < 1e-12


@pytest.mark.parametrize("dim", [16, 64, 256])
def test_banded_moments_match_dense_operators(dim):
    # tr(rho adag^j a^k) from rho's band against the dense operator product
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x + x.conj().T
    a, ad = _dense_ladder(dim)
    got = moments_from_rho(rho)
    for j in range(5):
        for k in range(5 - j):
            op = np.linalg.matrix_power(ad, j) @ np.linalg.matrix_power(a, k)
            ref = np.einsum("ij,ji->", rho, op)
            assert abs(got[j, k] - ref) <= 1e-13 * abs(ref)


def test_prepare_cat_interference_sign():
    # odd cat (phi = pi) has no even-photon population
    rho = prepare(Cat(1.0, math.pi), 64)
    diag = np.diag(rho).real
    assert diag[0] == pytest.approx(0.0, abs=1e-15)
    assert diag[2] == pytest.approx(0.0, abs=1e-15)
    assert diag[1] > 0.1


@pytest.mark.parametrize("dim", [64, 128, 256])
@pytest.mark.parametrize(
    "state",
    [
        Coherent(0.7 - 0.4j),
        Thermal(1.3),
        SqueezedCoherent(0.3 + 0.2j, 0.4),
        PhotonAddedCoherent(0.8 + 0.3j),
        PhotonAddedThermal(0.9),
        Cat(1.1 + 0.4j, 0.7),
    ],
)
def test_prepared_states_are_exactly_hermitian(state, dim):
    # v v^dag is Hermitian only to rounding for a complex v; prepare
    # returns a Hermitian part, which the Hermitian coordinates carry
    # unchanged into the t = 0 snapshot
    rho = prepare(state, dim)
    assert np.array_equal(rho, rho.conj().T)
    (snap,) = evolve_recording(rho, R_MIX, [0.0])
    assert np.array_equal(snap, rho)


def test_truncation_guard_carries_hint():
    with pytest.raises(TruncationTooSmall, match="dim >= 16"):
        prepare(Thermal(4.0), 8)
    # the squeezed tail is long: dim 64 is not enough for mu = 1 + drive
    with pytest.raises(TruncationTooSmall):
        prepare(SqueezedCoherent(1.0, 1.0), 64)
    prepare(SqueezedCoherent(1.0, 1.0), 128)  # passes the budget


def test_prepare_rejects_tiny_dim():
    with pytest.raises(ConfigError):
        prepare(Coherent(0.0), 1)


@pytest.mark.parametrize(
    "gamma,mu,dim",
    [(0.7 - 0.4j, 0.5, 48), (-0.3 + 0.8j, 0.3 + 0.4j, 48), (1.0, 1.0, 128)],
)
def test_prepare_squeezed_matches_dense_exponentials(gamma, mu, dim):
    # the sparse exponential actions must land on D(gamma) S(mu) e_0 built
    # from dense matrix exponentials in the same doubled space
    a, ad = _dense_ladder(2 * dim)
    d = expm(gamma * ad - np.conj(gamma) * a)
    s = expm(0.5 * (np.conj(mu) * a @ a - mu * ad @ ad))
    v = (d @ s[:, 0])[:dim]
    ref = np.outer(v, v.conj())
    ref /= np.trace(ref).real
    np.testing.assert_allclose(prepare(SqueezedCoherent(gamma, mu), dim), ref, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the master-equation right-hand side


def _dissipator(x, y, rho):
    """2 x rho y - y x rho - rho y x."""
    return 2.0 * x @ rho @ y - y @ x @ rho - rho @ y @ x


@pytest.mark.parametrize("dim", [12, 40])
@pytest.mark.parametrize(
    "res",
    [
        ReservoirParams(N=1.0, M=-0.5),
        ReservoirParams(N=0.7, M=0.0),
        ReservoirParams(N=2.0, M=1.0, gamma=0.6),
        R_SAT,
    ],
)
def test_rhs_matches_dense_master_equation(dim, res):
    # the module docstring's four dissipators, written out with dense
    # ladder matrices, on a full (non-Hermitian) complex matrix so that
    # every transposition in the superoperator shows
    a, ad = _dense_ladder(dim)
    rng = np.random.default_rng(dim)
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    ref = res.gamma * (
        (res.N + 1.0) * _dissipator(a, ad, rho)
        + res.N * _dissipator(ad, a, rho)
        - res.M * _dissipator(ad, ad, rho)
        - np.conj(res.M) * _dissipator(a, a, rho)
    )
    got = lindblad_rhs(rho, res)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_liouvillian_pattern_does_not_depend_on_the_reservoir():
    # the RK4 cost per step is set by the stored entries; a reservoir whose
    # M or N is zero keeps the same pattern, with zeros stored
    dim = 12
    ref = _liouvillian(dim, R_SAT)
    for res in (ReservoirParams(N=0.0, M=0.0), ReservoirParams(N=0.7, M=0.0, gamma=2.0), R_MIX):
        lv = _liouvillian(dim, res)
        assert lv.nnz == ref.nnz
        assert np.array_equal(lv.indptr, ref.indptr)
        assert np.array_equal(lv.indices, ref.indices)


def test_rhs_preserves_trace():
    rng = np.random.default_rng(7)
    block = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    block = block @ block.conj().T
    rho = np.zeros((64, 64), dtype=complex)
    rho[:24, :24] = block / np.trace(block)
    assert abs(np.trace(lindblad_rhs(rho, R_MIX))) < 1e-12


def test_rhs_thermal_fixed_point():
    res = ReservoirParams(N=1.3, M=0.0)
    rho = prepare(Thermal(1.3), 64)
    assert np.linalg.norm(lindblad_rhs(rho, res)) < 1e-12


@pytest.mark.parametrize(
    "res,dim",
    [
        (ReservoirParams(N=1.0, M=0.5), 64),
        (R_MIX, 128),
        (R_SAT, 160),
    ],
)
def test_rhs_vanishes_on_steady_state(res, dim):
    # steady_state solves L x = 0, so this residual checks the sparse solve
    # and lindblad_rhs, not the fixed point itself; the squeezed-vacuum,
    # moment and depth tests below check that
    rho = steady_state(res, dim)
    assert np.linalg.norm(lindblad_rhs(rho, res)) < 1e-8


def test_saturated_steady_state_is_the_squeezed_vacuum():
    # N = sinh^2 r and M = -sinh r cosh r make the fixed point the pure
    # squeezed vacuum S(r) e_0 with sinh r = 1, prepared from the ladder
    # exponential; squeezing the other axis (mu = -asinh 1) misses by 0.71
    rho = steady_state(R_SAT, 128)
    ref = prepare(SqueezedCoherent(0.0, math.asinh(1.0)), 128)
    assert np.abs(rho - ref).max() <= 1e-10


def test_steady_state_rejects_a_short_ladder():
    # the solve is exact for the truncated dynamics at any dim; at dim 32
    # the saturated fixed point holds 4.7e-6 in its top levels
    with pytest.raises(TruncationTooSmall, match="steady state.*dim >= 64"):
        steady_state(R_SAT, 32)


def test_steady_state_moments():
    for res in (ReservoirParams(N=1.0, M=0.5), R_MIX):
        table = moments_from_rho(steady_state(res, 128))
        assert table.mean_n == pytest.approx(res.N, abs=1e-9)
        assert table.mean_a2 == pytest.approx(res.M, abs=1e-9)
        assert abs(table.mean_a) < 1e-12


@pytest.mark.parametrize(
    "res,dim",
    [
        (R_SAT, 128),
        (ReservoirParams(N=1.0, M=SQRT2), 128),
        (ReservoirParams(N=0.5, M=-0.7), 64),
        (R_MIX, 128),
    ],
)
def test_steady_state_depth(res, dim):
    # the solved fixed point is Gaussian; its depth from the smaller
    # quadrature variance is the analytic t -> infinity limit
    table = moments_from_rho(steady_state(res, dim))
    depth = gaussian_tau_from_covariance(min(table.var_x(), table.var_y()))
    assert abs(depth - steady_tau(res)) <= 1e-12


def test_oracle_does_not_read_the_analytic_layer():
    # the oracle is the independent route: it may read a state's
    # parameters but not its analytic members, nor import the layers
    # it is compared against
    tree = ast.parse(inspect.getsource(fock_oracle))
    banned_modules = {"evolution", "nonclassicality"}
    banned_members = {"moments", "descriptor", "depth", "crossing_roots", "norm_factor"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = []
        for name in names:
            assert not banned_modules & set(name.split(".")), ast.unparse(node)
        if isinstance(node, ast.Attribute):
            assert node.attr not in banned_members, ast.unparse(node)


# ---------------------------------------------------------------------------
# integration


def test_integrate_time_zero_returns_state():
    rho0 = prepare(Coherent(1.0), 32)
    np.testing.assert_array_equal(integrate(rho0, R_SAT, 0.0), rho0)


def test_integrate_mean_amplitude_decay():
    rho = integrate(prepare(Coherent(1.0), 64), R_SAT, 0.5)
    mean_a = moments_from_rho(rho).mean_a
    assert abs(mean_a - math.exp(-0.5)) < 1e-8


def test_integrate_keeps_state_physical():
    rho = integrate(prepare(Thermal(1.0), 64), R_MIX, 0.5)
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-6


@pytest.mark.parametrize("dim", [64, 128])
@pytest.mark.parametrize("res", [R_SAT, R_MIX, R_TH, ReservoirParams(N=0.0, M=0.0)])
def test_derived_step_is_inside_the_rk4_stability_region(dim, res):
    # G, the largest absolute row sum, bounds |lambda| for every eigenvalue
    # of L (Gershgorin), and RK4 is stable on the left half-disc of radius
    # 2.61; the step RK4_STABLE_RADIUS / G puts the spectrum inside it
    lv = _liouvillian(dim, res)
    h = _stable_step(lv)
    assert h * np.abs(lv).sum(axis=1).max() <= RK4_STABLE_RADIUS
    if sp.tril(lv, -1).count_nonzero() == 0:
        # pure damping only lowers both indices of rho, so L is triangular
        # in the coordinates' order and its diagonal is its spectrum; ARPACK
        # is slow and inaccurate on this strongly non-normal matrix
        lam = lv.diagonal()[np.argmax(np.abs(lv.diagonal()))]
    else:
        (lam,) = eigs(lv, k=1, which="LM", return_eigenvectors=False)
    z = h * lam
    assert abs(z) <= 2.61 and z.real <= 1e-9 * abs(z)
    assert abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0) <= 1.0


def test_default_step_is_the_derived_step():
    rho0 = prepare(Coherent(1.0), 64)
    h = _stable_step(_liouvillian(64, R_MIX))
    times = [0.0, 0.1, 0.25]
    derived = evolve_recording(rho0, R_MIX, times)
    for got, ref in zip(derived, evolve_recording(rho0, R_MIX, times, h)):
        assert np.array_equal(got, ref)


def test_spans_take_the_fewest_steps_no_longer_than_dt():
    # a span of 3.4 steps takes four equal steps, never three longer ones
    rho0 = prepare(Coherent(0.5), 16)
    t = 0.01
    (four,) = evolve_recording(rho0, R_MIX, [t], t / 4.0)
    assert np.array_equal(evolve_recording(rho0, R_MIX, [t], t / 3.4)[0], four)
    (three,) = evolve_recording(rho0, R_MIX, [t], t / 3.0)
    assert not np.array_equal(three, four)


def test_step_halving_converges():
    rho0 = prepare(Thermal(1.0), 64)
    coarse = moments_from_rho(integrate(rho0, R_MIX, 1.0, dt=1e-3))
    fine = moments_from_rho(integrate(rho0, R_MIX, 1.0, dt=5e-4))
    worst = max(
        abs(coarse[j, k] - fine[j, k]) for j in range(5) for k in range(5 - j)
    )
    assert worst <= 1e-9


def test_oversized_step_trips_trace_monitor():
    rho0 = prepare(Thermal(1.0), 64)
    with pytest.raises(TraceDriftExceeded, match="reduce dt"):
        integrate(rho0, R_MIX, 1.0, dt=5e-3)


def _reference_recording(rho0, res, times, dt):
    """Full-space complex RK4 on the module docstring's master equation,
    written with dense ladder matrices and re-hermitized every step."""
    a, ad = _dense_ladder(rho0.shape[0])

    def rhs(rho):
        return res.gamma * (
            (res.N + 1.0) * _dissipator(a, ad, rho)
            + res.N * _dissipator(ad, a, rho)
            - res.M * (_dissipator(ad, ad, rho) + _dissipator(a, a, rho))
        )

    rho, t_now, out = rho0.astype(complex), 0.0, []
    for target in times:
        span = target - t_now
        if span > 0.0:
            n_steps = max(1, math.ceil(span / dt - 1e-9))
            h = span / n_steps
            for _ in range(n_steps):
                k1 = rhs(rho)
                k2 = rhs(rho + (0.5 * h) * k1)
                k3 = rhs(rho + (0.5 * h) * k2)
                k4 = rhs(rho + h * k3)
                rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                rho = 0.5 * (rho + rho.conj().T)
        t_now = target
        out.append(rho.copy())
    return out


@pytest.mark.parametrize("dim", [12, 40])
@pytest.mark.parametrize(
    "res",
    [R_SAT, R_MIX, ReservoirParams(N=0.7, M=0.0), ReservoirParams(N=1.0, M=-0.5, gamma=0.6)],
)
@pytest.mark.parametrize(
    "state", [Coherent(0.7 - 0.4j), SqueezedCoherent(0.3 - 0.2j, 0.15 + 0.1j)]
)
def test_hermitian_coordinates_match_full_space_rk4(dim, res, state):
    # the squeezed tail is too long for dim 12's leakage budget, so both
    # dims start from the dim-40 state cut down and renormalized
    rho0 = prepare(state, 40)[:dim, :dim]
    rho0 = rho0 / np.trace(rho0).real
    times = [0.0, 0.05, 0.15]
    snaps = evolve_recording(rho0, res, times, 1e-3)
    for got, ref in zip(snaps, _reference_recording(rho0, res, times, 1e-3)):
        assert np.abs(got - ref).max() <= 1e-13
        # Hermitian by construction: the lower triangle mirrors the upper
        assert np.array_equal(got.real, got.real.T)
        assert np.array_equal(got.imag, -got.imag.T)


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(11)
    for dim in (2, 7, 64):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = x + x.conj().T
        packed = _pack(h)
        assert packed.shape == (dim * dim,) and packed.dtype == float
        assert np.array_equal(_unpack(packed, dim), h)
        assert np.array_equal(_pack(_unpack(packed, dim)), packed)


def test_non_hermitian_start_is_rejected():
    rho0 = prepare(Coherent(1.0), 32)
    skewed = rho0.copy()
    skewed[0, 1] += 1e-6
    with pytest.raises(ConfigError, match="not Hermitian"):
        evolve_recording(skewed, R_SAT, [0.1])
    with pytest.raises(ConfigError, match="not Hermitian"):
        integrate(rho0 + 1e-6j * np.eye(32), R_SAT, 0.1)
    with pytest.raises(ConfigError, match="square"):
        integrate(rho0[:, :16], R_SAT, 0.1)


def test_evolve_recording_snapshots():
    rho0 = prepare(Coherent(1.0), 48)
    snaps = evolve_recording(rho0, R_SAT, [0.0, 0.2, 0.2, 0.5])
    assert len(snaps) == 4
    np.testing.assert_array_equal(snaps[1], snaps[2])
    np.testing.assert_array_equal(snaps[0], rho0)
    with pytest.raises(ConfigError):
        evolve_recording(rho0, R_SAT, [0.5, 0.2])
    with pytest.raises(ConfigError):
        evolve_recording(rho0, R_SAT, [0.5], dt=0.0)


# ---------------------------------------------------------------------------
# invariant blocks


def _occupied_blocks(rho: np.ndarray) -> np.ndarray:
    blocks = _dissipator_parts(rho.shape[0])[3]
    return np.unique(blocks[_pack(rho) != 0.0])


@pytest.mark.parametrize("dim", [16, 64])
def test_blocks_are_s_and_a_times_the_parity_of_m_plus_n(dim):
    blocks = _dissipator_parts(dim)[3]
    s_rows, s_cols, a_rows, a_cols = _triangles(dim)
    # 0, 1: S with m + n even, odd; 2, 3: A with m + n even, odd
    expected = np.r_[(s_rows + s_cols) % 2, 2 + (a_rows + a_cols) % 2]
    assert np.unique(blocks).size == 4
    # the two labellings make the same partition
    pairs = np.unique(np.c_[blocks, expected], axis=0)
    assert len(pairs) == 4 and np.unique(pairs[:, 1]).size == 4
    if dim == 16:
        assert sorted(np.bincount(blocks)) == [56, 64, 64, 72]


@pytest.mark.parametrize("dim", [16, 64])
def test_rows_of_l_reach_only_their_own_block(dim):
    indptr, indices, _, blocks = _dissipator_parts(dim)
    assert np.array_equal(np.repeat(blocks, np.diff(indptr)), blocks[indices])


@pytest.mark.parametrize("res", [R_MIX, R_TH], ids=["mixed", "M0"])
@pytest.mark.parametrize(
    "state, n_blocks",
    [
        (Coherent(0.7 - 0.4j), 4),
        (Thermal(1.0), 1),
        (PhotonAddedCoherent(1.0), 2),
        (Cat(1j, 0.0), 1),
    ],
    ids=["coherent", "thermal", "added_coherent", "cat"],
)
def test_invariant_blocks_step_to_the_bits_of_the_whole(res, state, n_blocks):
    dim, times = 48, [0.05, 0.05, 0.15]
    rho0 = prepare(state, dim)
    assert _occupied_blocks(rho0).size == n_blocks
    # every coordinate stepped with the whole L, as evolve_recording did
    # before it kept only the occupied blocks
    lv = _liouvillian(dim, res)
    h_max = _stable_step(lv)
    x, t_now, ref = _pack(rho0), 0.0, []
    acc, stage = np.empty_like(x), np.empty_like(x)
    for target in times:
        if target > t_now:
            n_steps = max(1, math.ceil((target - t_now) / h_max - 1e-9))
            for _ in range(n_steps):
                _rk4_step(lv, x, (target - t_now) / n_steps, acc, stage)
        t_now = target
        ref.append(_unpack(x, dim))
    for got, want in zip(evolve_recording(rho0, res, times), ref, strict=True):
        assert got.tobytes() == want.tobytes()


def test_blocks_are_chosen_from_exact_zeros():
    # an odd cat occupies S's even block alone, but complex(cos pi, sin pi)
    # leaves 1.2e-16j in its phase, so the prepared state reaches all four
    # blocks, and all four are stepped: there is no threshold
    assert _occupied_blocks(prepare(Cat(1.0, math.pi), 64)).size == 4
    assert _occupied_blocks(prepare(Cat(1.0, 0.0), 64)).size == 1


# ---------------------------------------------------------------------------
# the oracle's own truncation

GT_0_2 = np.round(0.1 * np.arange(21), 10)  # Γt 0, 0.1, ..., 2 (gamma = 1)


def test_truncation_dims_grow_by_a_fifth_in_steps_of_16():
    assert TRUNCATION_DIMS[:7] == (64, 80, 96, 128, 160, 192, 240)
    for low, high in zip(TRUNCATION_DIMS, TRUNCATION_DIMS[1:]):
        assert high == 16 * math.ceil(1.2 * low / 16)


def test_truncation_takes_the_first_dim_that_holds_the_trajectory():
    # dim 64 passes prepare, but under N = 2, M = 1 its top tenth fills
    # past the budget before Γt = 2; dim 80 holds the whole trajectory
    state = Thermal(1.0)
    low = evolve_recording(prepare(state, 64), R_MIX, GT_0_2)
    assert max(map(top_tenth_population, low)) >= TRAJECTORY_BUDGET
    dim, snaps = evolve_truncated(state, R_MIX, GT_0_2)
    assert dim == 80
    assert max(map(top_tenth_population, snaps)) < TRAJECTORY_BUDGET
    # the snapshots are evolve_recording's at that dim, to the bit
    for got, ref in zip(snaps, evolve_recording(prepare(state, 80), R_MIX, GT_0_2), strict=True):
        assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# smoothed quasiprobability series


def _q_direct(rho: np.ndarray, z: complex) -> float:
    """Husimi value <z|rho|z>/pi straight from coherent amplitudes —
    independent of the displaced-number series under test."""
    v = coherent_vector(z, rho.shape[0])
    return float(np.real(v.conj() @ rho @ v)) / math.pi


def test_series_at_full_smoothing_is_husimi():
    rho = prepare(PhotonAddedCoherent(1.0), 64)
    for z in (0.0j, 0.6 + 0.2j, -1.0j, 1.5 + 0.0j):
        point = quasiprob_grid(rho, np.array([z.real]), np.array([z.imag]), 1.0)
        assert point[0, 0] == pytest.approx(_q_direct(rho, z), abs=1e-12)


def test_series_convolution_identity():
    # widths add under Gaussian convolution, so smoothing the tau = 3/4
    # series with a width-1/4 kernel must land exactly on the Husimi
    # values; this certifies the series before any test leans on it
    rho = prepare(PhotonAddedCoherent(1.0), 64)
    h = 0.1
    xs = np.arange(-5.0, 7.0 + h / 2, h)
    ys = np.arange(-6.0, 6.0 + h / 2, h)
    r_grid = quasiprob_grid(rho, xs, ys, 0.75)
    gx, gy = np.meshgrid(xs, ys)
    for z0 in (0.3 + 0.2j, 1.0, -0.5j):
        kernel = np.exp(-((gx - z0.real) ** 2 + (gy - z0.imag) ** 2) / 0.25) / (
            math.pi * 0.25
        )
        conv = float((r_grid * kernel).sum()) * h * h
        assert conv == pytest.approx(_q_direct(rho, z0), abs=1e-8)


def test_series_positive_for_classical_state():
    rho = prepare(Thermal(1.0), 64)
    for tau in (0.6, 0.8, 1.0):
        vals = quasiprob_grid(rho, np.linspace(-3, 3, 13), np.linspace(-3, 3, 13), tau)
        assert vals.min() >= 0.0


def test_series_divergence_guard():
    rho = prepare(Thermal(1.0), 64)
    for tau in (0.49, 0.3, 1.2):
        with pytest.raises(SeriesDiverges):
            quasiprob_grid(rho, np.zeros(1), np.zeros(1), tau)


def test_displaced_populations_match_the_complex_formula():
    # the real-part shortcut against <n| D(x)^dag D(iy)^dag rho D(iy) D(x) |n>
    # in complex arithmetic, on a Hermitian rho that is not real
    dim = 40
    rng = np.random.default_rng(5)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    xs, ys = np.array([-1.3, 0.0, 0.4]), np.array([-0.9, 0.6])
    got = displaced_populations(rho, xs, ys)
    for iy, y in enumerate(ys):
        dy = _disp_imag(dim, y)
        for ix, x in enumerate(xs):
            dx = _disp_real(dim, x).astype(complex)
            want = np.real(np.einsum("in,in->n", dx.conj(), dy.conj().T @ rho @ dy @ dx))
            assert np.abs(got[iy, ix] - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("dim", [16, 64, 128])
def test_cached_displacements_match_expm(dim):
    # D(x) and D(iy) from the cached eigenbasis of adag + a
    a, ad = _dense_ladder(dim)
    for v in (-2.3, -0.5, 0.7, 3.1):
        np.testing.assert_allclose(_disp_real(dim, v), expm(v * (ad - a)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(_disp_imag(dim, v), expm(1j * v * (ad + a)), rtol=0, atol=1e-12)


def test_grid_series_matches_scalar_series():
    # the separable grid against the series written out with a dense
    # D(z) = expm(z adag - z* a) at each point; a single point is the
    # 1 x 1 grid
    dim, tau = 64, 0.8
    rho = prepare(PhotonAddedThermal(1.0), dim)
    a, ad = _dense_ladder(dim)
    weights = (-(1.0 - tau) / tau) ** np.arange(dim) / (math.pi * tau)
    xs = np.array([-0.8, 0.0, 1.1])
    ys = np.array([-0.4, 0.7])
    grid = quasiprob_grid(rho, xs, ys, tau)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            z = complex(x, y)
            d = expm(z * ad - np.conj(z) * a)
            scalar = float(np.real(np.einsum("in,ij,jn->n", d.conj(), rho, d)) @ weights)
            assert grid[iy, ix] == pytest.approx(scalar, abs=1e-9)
            point = quasiprob_grid(rho, xs[ix : ix + 1], ys[iy : iy + 1], tau)
            assert point[0, 0] == grid[iy, ix]
