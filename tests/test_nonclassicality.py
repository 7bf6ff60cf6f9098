import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbath import (
    Cat,
    Coherent,
    ConfigError,
    ImmediateTransition,
    PhotonAddedCoherent,
    PhotonAddedThermal,
    ReservoirParams,
    SingularSmoothing,
    SqueezedCoherent,
    Thermal,
    classicality_onset_by_scan,
    closed_form_transition_time,
    gaussian_tau_from_covariance,
    initial_moments,
    min_r_on_grid,
    quadrature_variances,
    r_function,
    r_function_grid,
    steady_tau,
    tau_m,
    tau_m_by_negativity_scan,
    tau_profile,
    tau_raw,
    transition_time,
)
from sqbath import fock_oracle
from sqbath.nonclassicality import NEGATIVITY_THRESHOLD

SQRT2 = math.sqrt(2.0)
R_SAT = ReservoirParams(N=1.0, M=-SQRT2)
R_MIX = ReservoirParams(N=2.0, M=1.0)
R_TH = ReservoirParams(N=1.0, M=0.0)
T_INF = 400.0

ALL_STATES = [
    Coherent(1.0),
    Thermal(1.0),
    SqueezedCoherent(1.0, 1.0),
    PhotonAddedCoherent(1.0),
    PhotonAddedThermal(1.0),
    Cat(1.0, 0.0),
]


def test_reference_depths_at_time_zero():
    assert tau_m(Coherent(2.0), R_SAT, 0.0) == 0.0
    assert tau_m(PhotonAddedCoherent(1.0), R_SAT, 0.0) == 1.0
    assert tau_m(Cat(1.0, 0.0), R_MIX, 0.0) == 1.0
    # added thermal also starts maximally nonclassical
    assert tau_m(PhotonAddedThermal(1.0), R_MIX, 0.0) == 1.0


def test_thermal_profile_closed_form():
    # under the saturated reservoir the thermal depth is
    # sqrt(2)(1 - e^{-2 Gamma t}) - 1, clamped at zero
    for gt in np.linspace(0.0, 2.0, 41):
        expected = max(0.0, SQRT2 * (1.0 - math.exp(-2.0 * gt)) - 1.0)
        assert tau_m(Thermal(1.0), R_SAT, gt) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("state", ALL_STATES)
@pytest.mark.parametrize("res", [R_SAT, R_MIX, R_TH])
def test_long_time_depth_is_reservoir_depth(state, res):
    assert tau_m(state, res, T_INF) == pytest.approx(
        max(0.0, abs(res.M) - res.N), abs=1e-14
    )
    assert steady_tau(res) == max(0.0, abs(res.M) - res.N)


@pytest.mark.parametrize("state", ALL_STATES)
def test_profile_clamping_and_range(state):
    for res in (R_SAT, R_MIX, R_TH):
        for gt in np.linspace(0.0, 6.0, 61):
            prof = tau_profile(state, res, gt)
            assert prof.clamped == max(0.0, prof.raw)
            assert 0.0 <= prof.clamped <= 1.0 + 1e-12


def test_negative_time_rejected():
    with pytest.raises(ConfigError):
        tau_raw(Thermal(1.0), R_SAT, -0.1)


gaussian_states = st.one_of(
    st.builds(Coherent, gamma=st.complex_numbers(max_magnitude=2.0, allow_nan=False)),
    st.builds(Thermal, nbar=st.floats(0.0, 3.0)),
    st.builds(
        SqueezedCoherent,
        gamma=st.complex_numbers(max_magnitude=1.5, allow_nan=False),
        mu=st.floats(-1.2, 1.2),
    ),
)

reservoirs = st.builds(
    lambda n, f: ReservoirParams(N=n, M=f * math.sqrt(n * (n + 1.0))),
    st.floats(0.0, 2.5),
    st.floats(-1.0, 1.0),
)


@settings(max_examples=150)
@given(state=gaussian_states, res=reservoirs, gt=st.floats(0.0, 4.0))
def test_gaussian_depth_equals_covariance_depth(state, res, gt):
    # for Gaussian states the closed-form row is exactly the variance
    # criterion: tau_m = max(0, 1/2 - 2 min(V_X, V_Y))
    vx, vy = quadrature_variances(initial_moments(state), res, gt)
    assert tau_m(state, res, gt) == pytest.approx(
        gaussian_tau_from_covariance(min(vx, vy)), abs=1e-12
    )


@settings(max_examples=100)
@given(
    g1=st.floats(0.2, 2.0),
    g2=st.complex_numbers(max_magnitude=2.0, allow_nan=False),
    phi=st.floats(0.0, 6.28),
    res=reservoirs,
    gt=st.floats(0.0, 4.0),
)
def test_cat_depth_equals_added_coherent_depth(g1, g2, phi, res, gt):
    # both rows are amplitude-free and identical
    assert tau_raw(Cat(g1, phi), res, gt) == tau_raw(
        PhotonAddedCoherent(g2), res, gt
    )


def test_gaussian_tau_reference_values():
    assert gaussian_tau_from_covariance(0.25) == 0.0
    s = math.exp(2.0)
    assert gaussian_tau_from_covariance(1.0 / (4.0 * s)) == pytest.approx(
        0.5 - 1.0 / (2.0 * s), abs=1e-15
    )


# ---------------------------------------------------------------------------
# transition times


REFERENCE_CROSSINGS = [
    (Thermal(1.0), R_SAT, 0.5 * math.log(SQRT2 / (SQRT2 - 1.0))),
    (SqueezedCoherent(1.0, 1.0), R_MIX, 0.5 * math.log((7.0 - math.exp(-2.0)) / 6.0)),
    (PhotonAddedCoherent(1.0), R_MIX, 0.5 * math.log(5.0 / 3.0)),
    (PhotonAddedThermal(1.0), R_MIX, 0.5 * math.log(2.0 / (3.0 - math.sqrt(3.0)))),
]


@pytest.mark.parametrize("state,res,expected", REFERENCE_CROSSINGS)
def test_reference_crossings(state, res, expected):
    numeric = transition_time(state, res)
    assert numeric is not None
    assert abs(res.gamma * numeric - expected) <= 1e-9
    closed = closed_form_transition_time(state, res)
    assert closed is not None
    assert abs(res.gamma * closed - expected) <= 1e-12


@pytest.mark.parametrize("mu", [1e-9, 1e-11])
def test_crossing_before_first_scan_point(mu):
    # a barely squeezed vacuum under a thermal bath crosses at Gamma t ~ mu,
    # before the geometric scan's first point at 1e-8
    state = SqueezedCoherent(0.0, mu)
    closed = closed_form_transition_time(state, R_TH)
    assert closed is not None and closed < 1e-8
    numeric = transition_time(state, R_TH)
    assert numeric is not None
    assert abs(numeric - closed) <= 1e-8


def test_coherent_turns_nonclassical_immediately():
    with pytest.raises(ImmediateTransition):
        transition_time(Coherent(1.0), R_SAT)
    assert closed_form_transition_time(Coherent(1.0), R_SAT) is None


def test_no_crossing_under_thermal_bath():
    assert transition_time(Thermal(1.0), R_TH) is None
    assert closed_form_transition_time(Thermal(1.0), R_TH) is None
    # an added-photon state relaxing into a thermal bath does cross
    assert transition_time(PhotonAddedThermal(1.0), R_TH) is not None


class _StepProfile:
    """Stand-in state whose raw profile is piecewise constant in u; like
    every family's depth, it takes a float or an array."""

    def __init__(self, early, middle, late):
        self.levels = (early, middle, late)

    def depth(self, u, n_t, m_t):
        early, middle, late = self.levels
        return np.where(u > 0.5, early, np.where(u > 0.25, middle, late))


@pytest.mark.parametrize(
    "levels,crosses",
    [((1.0, 0.0, -1.0), True), ((1.0, 0.0, 1.0), False), ((-1.0, 0.0, -1.0), False)],
)
def test_exact_zero_crosses_only_between_opposite_signs(levels, crosses):
    got = transition_time(_StepProfile(*levels), R_TH)
    if crosses:
        # the first scan point past u = 1/2, at most one geometric step late
        assert 0.5 * math.log(2.0) <= got < 1.04 * 0.5 * math.log(2.0)
    else:
        assert got is None


@settings(max_examples=60, deadline=None)
@given(nbar=st.floats(0.05, 3.0), r=st.floats(0.3, 1.2), nbar0=st.floats(0.0, 0.5))
def test_bisection_agrees_with_algebra(nbar, r, nbar0):
    n = nbar0 * math.cosh(2 * r) + math.sinh(r) ** 2
    m = -(2 * nbar0 + 1) * math.sinh(r) * math.cosh(r)
    res = ReservoirParams(N=n, M=m)
    state = Thermal(nbar)
    closed = closed_form_transition_time(state, res)
    if closed is None or closed > 45.0:
        return  # no crossing, or outside the bracketing window
    numeric = transition_time(state, res)
    assert numeric is not None
    assert abs(numeric - closed) <= 1e-9


def test_transition_scales_with_gamma():
    slow = transition_time(Thermal(1.0), R_SAT)
    fast = transition_time(Thermal(1.0), ReservoirParams(1.0, -SQRT2, gamma=5.0))
    assert fast == pytest.approx(slow / 5.0, rel=1e-8)


# ---------------------------------------------------------------------------
# smoothed densities


def test_thermal_smoothing_closed_form():
    nb = 1.0
    for tau in (0.0, 0.4, 1.0):
        for z in (0.0, 0.5 + 0.5j, -1.2j):
            expected = math.exp(-abs(z) ** 2 / (nb + tau)) / (math.pi * (nb + tau))
            assert r_function(Thermal(nb), R_TH, 0.0, tau, z) == pytest.approx(
                expected, abs=1e-14
            )


def test_full_smoothing_recovers_husimi_for_coherent():
    g = 0.8 - 0.3j
    for z in (0.0, g, 1.0 + 1.0j):
        expected = math.exp(-abs(z - g) ** 2) / math.pi
        assert r_function(Coherent(g), R_TH, 0.0, 1.0, z) == pytest.approx(
            expected, abs=1e-14
        )


@pytest.mark.parametrize(
    "state,dim,dt",
    [
        (Thermal(1.0), 64, None),
        (PhotonAddedCoherent(1.0), 64, None),
        # the squeezed tail needs the taller ladder, and RK4's stability
        # limit shrinks with dim, hence the smaller step
        (SqueezedCoherent(1.0, 1.0), 128, 5e-4),
        # the coherences' complex-centred Gaussians against the oracle
        (Cat(1.0 + 0.3j, 0.7), 64, None),
        (Cat(1.0, math.pi), 64, None),
    ],
)
def test_full_smoothing_matches_fock_husimi(state, dim, dt):
    # tau = 1 from the closed form vs <z|rho|z>/pi from the integrator
    res, gt = R_MIX, 0.4
    rho = fock_oracle.integrate(fock_oracle.prepare(state, dim), res, gt, dt)
    for z in (0.2 + 0.1j, -0.7j, 1.1):
        assert r_function(state, res, gt, 1.0, z) == pytest.approx(
            fock_oracle.quasiprob_from_rho(rho, z, 1.0), abs=1e-8
        )


def test_singular_smoothing_below_threshold():
    # a bare delta has no pointwise value at tau = 0
    with pytest.raises(SingularSmoothing):
        r_function(PhotonAddedCoherent(1.0), R_MIX, 0.0, 0.0, 0.0)
    # a squeezed axis needs tau above its negative coefficient
    state = SqueezedCoherent(1.0, 1.0)
    with pytest.raises(SingularSmoothing):
        r_function(state, R_MIX, 0.0, 0.1, 0.0)
    assert np.isfinite(r_function(state, R_MIX, 0.0, 0.9, 0.0))


@pytest.mark.parametrize("state", [Cat(1.0, 0.0), Cat(0.8 - 0.6j, 2.0)])
def test_cat_husimi_closed_form(state):
    # Q(z) = |<z|g> + e^{i phi} <z|-g>|^2 / (2 pi norm) at t = 0, with
    # <z|b> = exp(-|z|^2/2 - |b|^2/2 + z* b)
    g = state.gamma

    def overlap(z, b):
        return cmath.exp(-abs(z) ** 2 / 2.0 - abs(b) ** 2 / 2.0 + z.conjugate() * b)

    for z in (0.0j, 0.3 + 0.4j, -1.1 + 0.2j, 0.5j):
        amp = overlap(z, g) + cmath.exp(1j * state.phi) * overlap(z, -g)
        expected = abs(amp) ** 2 / (2.0 * math.pi * state.norm_factor)
        assert r_function(state, R_MIX, 0.0, 1.0, z) == pytest.approx(
            expected, abs=1e-14
        )


def test_overflowing_coherences_are_reported():
    # at small smoothing a large cat's coherences, Gaussians about complex
    # axis centres, overflow at 3 631 of these 58 081 points; a NaN would
    # pass the scans' negativity test as nonnegative
    state, gt = Cat(4.0, 0.0), 0.01
    xs = np.linspace(-6.0, 6.0, 241)
    z = xs[None, :] + 1j * xs[:, None]
    with pytest.raises(SingularSmoothing, match="3631 of 58081.*increase tau or t"):
        r_function_grid(state, R_MIX, gt, 0.0, z)
    with pytest.raises(SingularSmoothing, match="increase tau or t"):
        min_r_on_grid(state, R_MIX, gt, 0.0)
    # the Husimi density of the same state is finite and nonnegative
    assert min_r_on_grid(state, R_MIX, gt, 1.0) >= NEGATIVITY_THRESHOLD


def test_negative_tau_rejected():
    with pytest.raises(ConfigError):
        r_function(Thermal(1.0), R_TH, 0.0, -0.2, 0.0)


@pytest.mark.parametrize(
    "state,gt,tau",
    [
        (Thermal(1.0), 0.0, 0.3),
        (PhotonAddedCoherent(1.0), 0.1, 0.6),
        (SqueezedCoherent(0.5, 0.8), 0.5, 1.0),
        (PhotonAddedThermal(1.0), 0.2, 0.5),
        (Cat(1.0 + 0.3j, 0.7), 0.1, 0.6),
    ],
)
def test_smoothed_density_normalization(state, gt, tau):
    # trapezoid quadrature over a window that holds all the mass
    step = 0.05
    xs = np.arange(-7.0, 7.0 + step / 2, step)
    z = xs[None, :] + 1j * xs[:, None]
    vals = r_function_grid(state, R_MIX, gt, tau, z)
    assert vals.sum() * step * step == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "state",
    [
        PhotonAddedCoherent(1.0),
        Cat(1.0, 0.0),
        Cat(2.0, 0.0),
        Cat(1.0, math.pi),
        # its coherences overflow at the smallest probes
        Cat(4.0, 0.0),
    ],
)
@pytest.mark.parametrize("res", [R_MIX, R_TH])
@pytest.mark.parametrize("gt", [0.01, 0.1])
def test_depth_scan_matches_closed_form(state, res, gt):
    # a cat's closed-form row is the photon-added coherent one (criterion
    # 8); the scan checks it on the cat's own density, coherences included
    scanned = tau_m_by_negativity_scan(state, res, gt)
    assert abs(scanned - tau_m(state, res, gt)) <= 5e-3


def test_onset_scan_matches_crossing():
    state = PhotonAddedCoherent(1.0)
    crossing = 0.5 * math.log(5.0 / 3.0)
    onset = classicality_onset_by_scan(state, R_MIX, 0.15, 0.35)
    assert abs(onset - crossing) <= 5e-3


def test_min_r_sign_tracks_depth():
    # the evolved weight itself is negative before the crossing and
    # nonnegative after it
    state = PhotonAddedCoherent(1.0)
    assert min_r_on_grid(state, R_MIX, 0.2, 0.0) < -1e-6
    assert min_r_on_grid(state, R_MIX, 0.3, 0.0) > -1e-12
