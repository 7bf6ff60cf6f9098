import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqbath import (
    ConfigError,
    PhysicalReservoirSpec,
    ReservoirParams,
    from_physical,
    noise_envelope,
)

SQRT2 = math.sqrt(2.0)


def test_bound_rejects_unphysical_m():
    with pytest.raises(ConfigError):
        ReservoirParams(N=1.0, M=1.5)  # M^2 = 2.25 > N(N+1) = 2
    with pytest.raises(ConfigError):
        ReservoirParams(N=1.0, M=math.nan)  # fails every comparison


def test_bound_allows_exact_saturation():
    res = ReservoirParams(N=1.0, M=-SQRT2)
    assert res.M == -SQRT2


def test_negative_n_rejected():
    with pytest.raises(ConfigError):
        ReservoirParams(N=-0.1, M=0.0)


def test_nonpositive_gamma_rejected():
    with pytest.raises(ConfigError):
        ReservoirParams(N=1.0, M=0.0, gamma=0.0)


def test_from_physical_map():
    spec = PhysicalReservoirSpec(nbar0=0.5, r=0.7, theta=math.pi)
    res = from_physical(spec)
    assert res.N == pytest.approx(
        0.5 * math.cosh(1.4) + math.sinh(0.7) ** 2, abs=1e-15
    )
    assert res.M == pytest.approx(
        -2.0 * math.sinh(0.7) * math.cosh(0.7), abs=1e-15
    )
    # theta = 0 flips the squeezing correlation sign
    assert from_physical(PhysicalReservoirSpec(0.5, 0.7, 0.0)).M == -res.M


def test_from_physical_pure_squeezing_saturates_bound():
    # zero-occupation squeezed vacuum input sits exactly on M^2 = N(N+1);
    # this is how the (N=1, M=-sqrt(2)) reservoir is reached
    r = math.asinh(1.0)  # sinh^2(r) = 1 -> N = 1
    res = from_physical(PhysicalReservoirSpec(nbar0=0.0, r=r))
    assert res.N == pytest.approx(1.0, abs=1e-14)
    assert res.M == pytest.approx(-SQRT2, abs=1e-14)


def test_zero_squeezing_reduces_to_thermal_bath():
    res = from_physical(PhysicalReservoirSpec(nbar0=1.3, r=0.0))
    assert res.N == 1.3
    assert res.M == 0.0


def test_theta_restricted_to_axis():
    with pytest.raises(ConfigError):
        PhysicalReservoirSpec(nbar0=0.0, r=0.5, theta=math.pi / 3)


def test_nt_closed_values():
    res = ReservoirParams(N=1.0, M=0.0)
    assert noise_envelope(res, 0.0).n_t == 0.0
    assert noise_envelope(res, 0.5).n_t == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert noise_envelope(res, 400.0).n_t == pytest.approx(1.0, abs=1e-15)


def test_mt_sign_and_envelope():
    res = ReservoirParams(N=1.0, M=-SQRT2)
    assert noise_envelope(res, 0.0).m_t == 0.0
    assert noise_envelope(res, 300.0).m_t == pytest.approx(-SQRT2, abs=1e-14)
    for t in (0.01, 0.3, 1.0, 5.0):
        assert abs(noise_envelope(res, t).m_t) <= SQRT2


def test_negative_time_rejected():
    res = ReservoirParams(N=1.0, M=0.0)
    with pytest.raises(ConfigError):
        noise_envelope(res, -0.1)


def test_gamma_scales_time():
    fast = ReservoirParams(N=1.0, M=0.5, gamma=4.0)
    slow = ReservoirParams(N=1.0, M=0.5, gamma=1.0)
    assert noise_envelope(fast, 0.25).n_t == pytest.approx(
        noise_envelope(slow, 1.0).n_t, abs=1e-15
    )


physical_specs = st.builds(
    PhysicalReservoirSpec,
    nbar0=st.floats(0.0, 3.0),
    r=st.floats(0.0, 1.5),
    theta=st.sampled_from([0.0, math.pi]),
    gamma=st.floats(0.1, 4.0),
)


@given(spec=physical_specs)
def test_physical_map_is_always_physical(spec):
    res = from_physical(spec)
    assert res.gamma == spec.gamma
    assert res.M * res.M <= res.N * (res.N + 1.0) + 1e-9


@given(
    n=st.floats(0.0, 3.0),
    m_frac=st.floats(-1.0, 1.0),
    t=st.floats(0.0, 20.0),
)
def test_noise_pair_shares_one_envelope(n, m_frac, t):
    # N_t +/- M_t = (N +/- M) (1 - e^{-2 Gamma t}), so the combinations
    # carry the sign of N +/- M at every t, and the ratio is constant
    m = m_frac * math.sqrt(n * (n + 1.0))
    res = ReservoirParams(N=n, M=m)
    env = -math.expm1(-2.0 * t)
    pair = noise_envelope(res, t)
    assert pair.n_t + pair.m_t == pytest.approx((n + m) * env, abs=1e-12)
    assert pair.n_t - pair.m_t == pytest.approx((n - m) * env, abs=1e-12)
    if n > 1e-9 and t > 1e-9:
        assert pair.m_t / pair.n_t == pytest.approx(m / n, rel=1e-9)
