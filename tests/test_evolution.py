import math
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbath import (
    Cat,
    Coherent,
    ConfigError,
    DegenerateDenominator,
    PhotonAddedCoherent,
    PhotonAddedThermal,
    ReservoirParams,
    SqueezedCoherent,
    Thermal,
    evolve_moments,
    evolved_descriptor,
    evolved_means,
    evolved_state_moments,
    initial_moments,
    mandel_q,
    noise_envelope,
    quadrature_variances,
)
from sqbath import fock_oracle
from sqbath.evolution import descriptor_moments

SQRT2 = math.sqrt(2.0)
R_SAT = ReservoirParams(N=1.0, M=-SQRT2)
R_MIX = ReservoirParams(N=2.0, M=1.0)
R_TH = ReservoirParams(N=1.0, M=0.0)

# large enough that e^{-2 Gamma t} underflows to exactly 0: the closed
# formulas evaluated there coincide with their algebraic limits
T_INF = 400.0


def test_time_zero_is_identity():
    m0 = initial_moments(PhotonAddedCoherent(1.0))
    m = evolve_moments(m0, R_SAT, 0.0)
    np.testing.assert_allclose(m.array, m0.array, atol=0.0)
    assert evolved_descriptor(Thermal(1.0), R_SAT, 0.0) == Thermal(1.0).descriptor()


def test_negative_time_rejected():
    m0 = initial_moments(Coherent(1.0))
    with pytest.raises(ConfigError):
        evolve_moments(m0, R_SAT, -0.01)
    with pytest.raises(ConfigError):
        evolved_descriptor(Coherent(1.0), R_SAT, -0.01)


def test_smoothing_fields():
    # a bare delta shows the reservoir's action alone: the contraction
    # e^{-Gamma t} and the added coefficients (N_t +- M_t)/4
    (term,) = evolved_descriptor(Coherent(1.0), R_SAT, 0.4)
    env = noise_envelope(R_SAT, 0.4)
    n_t, m_t = env.n_t, env.m_t
    assert term.center == pytest.approx(math.exp(-0.4), abs=1e-15)
    assert term.c_r == pytest.approx((n_t + m_t) / 4.0, abs=1e-15)
    assert term.c_i == pytest.approx((n_t - m_t) / 4.0, abs=1e-15)
    # c_r + c_i = N_t / 2 is nonnegative for every reservoir
    assert term.c_r + term.c_i == pytest.approx(n_t / 2.0, abs=1e-15)


@pytest.mark.parametrize("res", [R_SAT, R_MIX, R_TH])
@pytest.mark.parametrize("gt", [0.1, 0.5, 1.7])
def test_first_and_second_moment_laws(res, gt):
    state = SqueezedCoherent(0.8 + 0.3j, 0.6)
    m0 = initial_moments(state)
    t = gt / res.gamma
    m = evolve_moments(m0, res, t)
    k = math.exp(-res.gamma * t)
    env = noise_envelope(res, t)
    assert m.mean_a == pytest.approx(m0.mean_a * k, abs=1e-13)
    assert m.mean_a2 == pytest.approx(m0.mean_a2 * k * k + env.m_t, abs=1e-13)
    assert m.mean_n == pytest.approx(m0.mean_n * k * k + env.n_t, abs=1e-13)


@pytest.mark.parametrize(
    "state",
    [
        Coherent(0.9 - 0.4j),
        Thermal(1.3),
        SqueezedCoherent(0.3 + 1.1j, -0.45),
        PhotonAddedCoherent(-0.6 + 0.8j),
        PhotonAddedThermal(0.7),
        Cat(1.2 + 0.5j, 2.1),
    ],
)
@pytest.mark.parametrize(
    "res", [R_SAT, R_MIX, R_TH, ReservoirParams(N=0.3, M=-0.2, gamma=2.5)]
)
def test_evolved_means_equal_the_moment_table(state, res):
    # the (0, 1) and (1, 1) entries of the full binomial map, float for
    # float, at single times and over an array of times
    m0 = initial_moments(state)
    ts = np.linspace(0.0, 3.0, 61) / res.gamma
    mean_a, mean_n = evolved_means(m0, res, ts)
    for i, t in enumerate(ts):
        table = evolve_moments(m0, res, t)
        assert evolved_means(m0, res, t) == (table.mean_a, table.mean_n)
        assert (mean_a[i], mean_n[i]) == (table.mean_a, table.mean_n)


def test_observables_over_an_array_of_times():
    # the array form of each observable is its scalar form at every time;
    # a zero mean photon number gives NaN in the array and raises alone
    ts = np.array([0.0, 0.2, 1.5])
    m0 = initial_moments(PhotonAddedCoherent(0.8 + 0.2j))
    q = mandel_q(m0, R_MIX, ts)
    vx, vy = quadrature_variances(m0, R_MIX, ts)
    for i, t in enumerate(ts):
        assert q[i] == mandel_q(m0, R_MIX, t)
        assert (vx[i], vy[i]) == quadrature_variances(m0, R_MIX, t)
    vacuum = initial_moments(Coherent(0.0))
    q = mandel_q(vacuum, ReservoirParams(N=1.0, M=0.0), ts)
    assert math.isnan(q[0]) and not np.isnan(q[1:]).any()
    with pytest.raises(DegenerateDenominator):
        mandel_q(vacuum, ReservoirParams(N=1.0, M=0.0), 0.0)
    with pytest.raises(ConfigError):
        mandel_q(m0, R_MIX, np.array([0.1, -0.1]))


def test_moment_laws_with_scaled_rate():
    # physical time carries Gamma; scaled time Gamma*t is what matters
    res4 = ReservoirParams(N=1.5, M=0.5, gamma=4.0)
    res1 = ReservoirParams(N=1.5, M=0.5, gamma=1.0)
    m0 = initial_moments(Coherent(1.0 - 0.5j))
    np.testing.assert_allclose(
        evolve_moments(m0, res4, 0.25).array,
        evolve_moments(m0, res1, 1.0).array,
        atol=1e-14,
    )


def test_thermal_descriptor_evolution():
    nb, gt = 1.0, 0.7
    desc = evolved_descriptor(Thermal(nb), R_MIX, gt)
    (term,) = desc
    u = math.exp(-2.0 * gt)
    env = noise_envelope(R_MIX, gt)
    assert term.center == 0.0
    assert term.c_r == pytest.approx((nb * u + env.n_t + env.m_t) / 4.0, abs=1e-15)
    assert term.c_i == pytest.approx((nb * u + env.n_t - env.m_t) / 4.0, abs=1e-15)


def test_squeezed_descriptor_evolution():
    state = SqueezedCoherent(1.0, 1.0)
    s, gt = state.s, 0.4
    (term,) = evolved_descriptor(state, R_MIX, gt)
    u = math.exp(-2.0 * gt)
    assert term.center == pytest.approx(math.exp(-gt) * 1.0, abs=1e-15)
    env = noise_envelope(R_MIX, gt)
    assert term.c_r == pytest.approx(
        (env.n_t + env.m_t) / 4.0 + u * (1.0 - s) / (8.0 * s), abs=1e-15
    )


@pytest.mark.parametrize(
    "state",
    [
        Coherent(0.9 - 0.4j),
        Thermal(1.3),
        SqueezedCoherent(0.5, 0.7),
        PhotonAddedThermal(1.0),
        PhotonAddedCoherent(1.0 + 0.5j),
        Cat(1.0 + 0.3j, 0.7),
    ],
)
@pytest.mark.parametrize("gt", [0.15, 0.8, 2.0])
def test_descriptor_and_moment_routes_agree(state, gt):
    # the same physics two ways: binomial noise expansion of the moment
    # table vs direct integration of the transported descriptor, its
    # prefactors moved onto the monomials by parts and a cat's coherences
    # integrated about their complex centres
    direct = evolve_moments(initial_moments(state), R_SAT, gt)
    via_descriptor = descriptor_moments(evolved_descriptor(state, R_SAT, gt))
    np.testing.assert_allclose(direct.array, via_descriptor.array, atol=1e-12)


@settings(max_examples=60)
@given(
    nbar=st.floats(0.0, 3.0),
    m_frac=st.floats(-1.0, 1.0),
    n=st.floats(0.0, 2.0),
    t=st.floats(0.0, 5.0),
)
def test_evolved_tables_stay_well_formed(nbar, m_frac, n, t):
    res = ReservoirParams(N=n, M=m_frac * math.sqrt(n * (n + 1.0)))
    m = evolve_moments(initial_moments(PhotonAddedThermal(nbar + 0.1)), res, t)
    m.check(tol=1e-9)


# ---------------------------------------------------------------------------
# observables


def test_mandel_q_reference_points():
    assert mandel_q(initial_moments(Coherent(1.3)), R_TH, 0.0) == pytest.approx(
        0.0, abs=1e-13
    )
    assert mandel_q(initial_moments(Thermal(1.0)), R_TH, 0.0) == pytest.approx(
        1.0, abs=1e-13
    )
    assert mandel_q(initial_moments(Thermal(2.0)), R_MIX, 0.0) == pytest.approx(
        2.0, abs=1e-13
    )


def test_mandel_q_degenerate_denominator():
    vacuum = initial_moments(Coherent(0.0))
    with pytest.raises(DegenerateDenominator):
        mandel_q(vacuum, R_TH, 0.0)
    # any nonzero t heats the mode and the parameter is defined again
    assert mandel_q(vacuum, R_TH, 0.1) > 0.0


@pytest.mark.parametrize("res", [R_SAT, R_MIX])
@pytest.mark.parametrize("state", [Coherent(1.0), Thermal(1.0), Cat(1.0, 0.0)])
def test_mandel_q_long_time_limit(state, res):
    q = mandel_q(initial_moments(state), res, T_INF)
    expected = (res.N * res.N + res.M * res.M) / res.N
    assert q == pytest.approx(expected, abs=1e-12)


def test_variances_reference_points():
    assert quadrature_variances(initial_moments(Coherent(0.7j)), R_SAT, 0.0) == (
        pytest.approx(0.25, abs=1e-14),
        pytest.approx(0.25, abs=1e-14),
    )
    s = math.exp(2.0 * 0.9)
    vx, vy = quadrature_variances(
        initial_moments(SqueezedCoherent(0.4, 0.9)), R_SAT, 0.0
    )
    assert vx == pytest.approx(1.0 / (4.0 * s), abs=1e-13)
    assert vy == pytest.approx(s / 4.0, abs=1e-13)


@pytest.mark.parametrize("res", [R_SAT, R_MIX])
def test_variances_long_time_limit(res):
    vx, vy = quadrature_variances(initial_moments(PhotonAddedCoherent(1.0)), res, T_INF)
    assert vx == pytest.approx((2.0 * (res.N + res.M) + 1.0) / 4.0, abs=1e-13)
    assert vy == pytest.approx((2.0 * (res.N - res.M) + 1.0) / 4.0, abs=1e-13)


@pytest.mark.parametrize("gt", [0.0, 0.3, 1.1, 2.5])
def test_variance_ties_to_descriptor_coefficient(gt):
    # V_X(t) = 1/4 + 2 c_r(t) for single-Gaussian descriptors
    for state in (Thermal(1.0), SqueezedCoherent(0.6, 0.8)):
        (term,) = evolved_descriptor(state, R_MIX, gt)
        vx, vy = quadrature_variances(initial_moments(state), R_MIX, gt)
        assert vx == pytest.approx(0.25 + 2.0 * term.c_r, abs=1e-13)
        assert vy == pytest.approx(0.25 + 2.0 * term.c_i, abs=1e-13)


@pytest.mark.parametrize("state", [Coherent(1.0), Thermal(1.0), PhotonAddedThermal(1.0)])
def test_thermal_bath_keeps_quadratures_symmetric(state):
    # M = 0 with V_X(0) = V_Y(0) gives V_X(t) = V_Y(t) for all t
    m0 = initial_moments(state)
    assert m0.var_x() == pytest.approx(m0.var_y(), abs=1e-14)
    for gt in (0.2, 0.9, 3.0):
        vx, vy = quadrature_variances(m0, R_TH, gt)
        assert vx == pytest.approx(vy, abs=1e-14)


# ---------------------------------------------------------------------------
# the delta-smoothing identity behind every Gaussian evaluation


def _series_moment(k: int, a: float, y: float) -> float:
    """int x^k exp((a/4) d^2/dx^2) delta(x - y) dx by expanding the
    exponential: the 2j-th delta derivative picks out k!/(k-2j)! y^{k-2j}."""
    total = 0.0
    for j in range(k // 2 + 1):
        total += (
            (a / 4.0) ** j / factorial(j) * math.perm(k, 2 * j) * y ** (k - 2 * j)
        )
    return total


def _gauss_moment(k: int, a: float, y: float) -> float:
    """Same moment against the explicit Gaussian (pi a)^{-1/2}
    exp(-(x-y)^2/a), by Gauss-Hermite quadrature (exact for monomials)."""
    nodes, weights = np.polynomial.hermite.hermgauss(60)
    return float(weights @ (y + math.sqrt(a) * nodes) ** k) / math.sqrt(math.pi)


@pytest.mark.parametrize("a", [0.1, 1.0, 4.0])
def test_smoothing_operator_equals_gaussian(a):
    for k in range(7):
        for y in (0.0, 0.7, -1.3):
            assert _series_moment(k, a, y) == pytest.approx(
                _gauss_moment(k, a, y), abs=1e-10
            )


# ---------------------------------------------------------------------------
# cross-check against the independent integrator


def test_full_table_matches_fock_integration():
    state, gt = Coherent(1.0), 0.3
    rho = fock_oracle.integrate(fock_oracle.prepare(state, 64), R_SAT, gt)
    oracle = fock_oracle.moments_from_rho(rho)
    analytic = evolved_state_moments(state, R_SAT, gt)
    for j in range(5):
        for k in range(5 - j):
            assert abs(analytic[j, k] - oracle[j, k]) < 1e-8
