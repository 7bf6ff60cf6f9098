import cmath
import math
import random
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqbath import (
    Cat,
    Coherent,
    ConfigError,
    MomentTable,
    PhotonAddedCoherent,
    PhotonAddedThermal,
    SqueezedCoherent,
    Thermal,
    initial_moments,
)
from sqbath import fock_oracle

# Moment-table entries frozen from the independent Fock-basis
# construction (prepare + moments_from_rho; dim 64, squeezed dim 128).
# Keys are (j, k) for <adag^j a^k>.
FROZEN_MOMENTS = {
    "added_coherent": (
        PhotonAddedCoherent(1.0),
        {
            (0, 1): 1.49999999999999978e00,
            (0, 2): 1.99999999999999978e00,
            (1, 1): 2.49999999999999956e00,
            (1, 2): 3.49999999999999956e00,
            (2, 2): 5.00000000000000178e00,
            (1, 3): 4.50000000000000178e00,
        },
    ),
    "added_thermal": (
        PhotonAddedThermal(1.0),
        {
            (0, 1): 0.0,
            (0, 2): 0.0,
            (1, 1): 3.00000000000000000e00,
            (1, 2): 0.0,
            (2, 2): 9.99999999999998579e00,
            (1, 3): 0.0,
        },
    ),
    "cat": (
        Cat(1.0, 0.0),
        {
            (0, 1): 0.0,
            (0, 2): 1.00000000000000000e00,
            (1, 1): 7.61594155955764962e-01,
            (1, 2): 0.0,
            (2, 2): 1.00000000000000000e00,
            (1, 3): 7.61594155955765073e-01,
        },
    ),
    "squeezed": (
        SqueezedCoherent(1.0, 1.0),
        {
            (0, 1): 1.00000000000000067e00,
            (0, 2): -8.13430203923484973e-01,
            (1, 1): 2.38109784554179527e00,
            (1, 2): 1.94876548716012077e00,
            (2, 2): 1.00009225967411908e01,
            (1, 3): -7.81057071818065118e00,
        },
    ),
}


@given(gr=st.floats(-2.0, 2.0), gi=st.floats(-2.0, 2.0))
def test_coherent_moments_are_monomials(gr, gi):
    g = complex(gr, gi)
    m = initial_moments(Coherent(g))
    for j in range(5):
        for k in range(5 - j):
            assert m[j, k] == pytest.approx(np.conj(g) ** j * g**k, abs=1e-12)


def test_thermal_moments():
    m = initial_moments(Thermal(1.0))
    assert m.mean_n == pytest.approx(1.0, abs=1e-14)
    assert m.mean_n2_ordered == pytest.approx(2.0, abs=1e-14)
    assert m.mean_a == 0.0
    assert m.mean_a2 == 0.0
    # general n̄: m11 = n̄, m22 = 2 n̄^2
    m = initial_moments(Thermal(2.5))
    assert m.mean_n == pytest.approx(2.5, abs=1e-13)
    assert m.mean_n2_ordered == pytest.approx(12.5, abs=1e-13)


@pytest.mark.parametrize("key", sorted(FROZEN_MOMENTS))
def test_moments_match_frozen_fock_fixtures(key):
    state, entries = FROZEN_MOMENTS[key]
    m = initial_moments(state)
    for (j, k), ref in entries.items():
        assert m[j, k].real == pytest.approx(ref, abs=1e-10)
        assert abs(m[j, k].imag) < 1e-12


@pytest.mark.parametrize(
    "state,dim",
    [
        (Coherent(1.0), 64),
        (Thermal(1.0), 64),
        (SqueezedCoherent(1.0, 1.0), 128),
        (PhotonAddedCoherent(1.0), 64),
        (PhotonAddedThermal(1.0), 64),
        (Cat(1.0, 0.0), 64),
    ],
)
def test_moment_consistency_with_fock_construction(state, dim):
    analytic = initial_moments(state)
    oracle = fock_oracle.moments_from_rho(fock_oracle.prepare(state, dim))
    for j in range(5):
        for k in range(5 - j):
            assert abs(analytic[j, k] - oracle[j, k]) < 1e-10


@given(gr=st.floats(-1.5, 1.5), gi=st.floats(-1.5, 1.5))
def test_added_coherent_mean_photon_closed_form(gr, gi):
    g = complex(gr, gi)
    m = initial_moments(PhotonAddedCoherent(g))
    a2 = abs(g) ** 2
    assert m.mean_n == pytest.approx((a2 * a2 + 3 * a2 + 1) / (a2 + 1), rel=1e-12)


def test_added_thermal_mean_photon_closed_form():
    for nb in (0.5, 1.0, 2.0):
        m = initial_moments(PhotonAddedThermal(nb))
        assert m.mean_n == pytest.approx(2 * nb + 1, abs=1e-13)
        assert m.mean_n2_ordered == pytest.approx(2 * nb * (3 * nb + 2), abs=1e-12)


def test_cat_mean_photon():
    # even superposition: <n> = |g|^2 tanh(|g|^2) for phi = 0
    m = initial_moments(Cat(1.0, 0.0))
    assert m.mean_n == pytest.approx(math.tanh(1.0), abs=1e-14)
    assert m.mean_a == 0.0


state_pool = st.one_of(
    st.builds(Coherent, gamma=st.complex_numbers(max_magnitude=1.8, allow_nan=False)),
    st.builds(Thermal, nbar=st.floats(0.0, 3.0)),
    st.builds(
        SqueezedCoherent,
        gamma=st.complex_numbers(max_magnitude=1.5, allow_nan=False),
        mu=st.floats(-1.0, 1.0),
    ),
    st.builds(
        PhotonAddedCoherent,
        gamma=st.complex_numbers(max_magnitude=1.8, allow_nan=False),
    ),
    st.builds(PhotonAddedThermal, nbar=st.floats(0.1, 3.0)),
    st.builds(Cat, gamma=st.floats(0.3, 1.8), phi=st.floats(0.0, 6.28)),
)


@given(state=state_pool)
def test_moment_tables_are_well_formed(state):
    initial_moments(state).check(tol=1e-9)


def test_moment_table_check_catches_violations():
    bad = np.zeros((5, 5), dtype=complex)
    bad[0, 0] = 1.0
    bad[0, 1], bad[1, 0] = 1.0, 2.0  # hermiticity broken
    with pytest.raises(ConfigError):
        MomentTable(bad).check()
    bad2 = np.zeros((5, 5), dtype=complex)
    bad2[0, 0] = 0.9  # not normalized
    with pytest.raises(ConfigError):
        MomentTable(bad2).check()


def test_moment_table_bounds():
    m = initial_moments(Thermal(1.0))
    with pytest.raises(KeyError):
        m[3, 2]


# ---------------------------------------------------------------------------
# the entries the evolve CSV reads, against scalar Python loops
#
# The CSV reads m[0, 0], m[0, 1], m[0, 2], m[2, 0], m[1, 1] and m[2, 2].
# Its bytes are pinned on the floats of the loops below: one scalar
# complex product at a time (NumPy's array complex multiply fuses
# multiply-adds), powers from scalar pow, terms added in (p, q) order, and
# NumPy's scalar complex division.  An array shortcut that rounds
# differently fails here.

CSV_ENTRIES = ((0, 0), (0, 1), (0, 2), (2, 0), (1, 1), (2, 2))


def _axis_moment(var, n):
    out = 1.0
    for m in range(2, n + 1, 2):
        out = out * (m - 1) * var
    return 0.0 if n % 2 else out


def _noise_moment(var_r, var_i, p, q):
    acc = 0j
    for u in range(p + 1):
        for v in range(q + 1):
            nr, ni = u + v, p - u + q - v
            if nr % 2 == 0 and ni % 2 == 0:
                acc += (
                    comb(p, u) * comb(q, v) * (-1j) ** (p - u) * (1j) ** (q - v)
                    * _axis_moment(var_r, nr) * _axis_moment(var_i, ni)
                )
    return acc


def _gaussian_moment(center, var_r, var_i, j, k):
    cc = np.conj(center)
    acc = 0j
    for p in range(j + 1):
        for q in range(k + 1):
            acc += (
                comb(j, p) * comb(k, q) * cc ** (j - p) * center ** (k - q)
                * _noise_moment(var_r, var_i, p, q)
            )
    return acc


def _added_photon_moment(base, j, k):
    num = base(j + 1, k + 1) + (1 + j + k) * base(j, k)
    if j and k:
        num += j * k * base(j - 1, k - 1)
    return num / (base(1, 1) + 1.0)


def _reference_moment(state, j, k):
    if isinstance(state, Coherent):
        return _gaussian_moment(state.gamma, 0.0, 0.0, j, k)
    if isinstance(state, Thermal):
        return _gaussian_moment(0.0, state.nbar / 2.0, state.nbar / 2.0, j, k)
    if isinstance(state, SqueezedCoherent):
        s = state.s
        return _gaussian_moment(state.gamma, (1.0 - s) / (4.0 * s), (s - 1.0) / 4.0, j, k)
    if isinstance(state, PhotonAddedCoherent):
        g = state.gamma
        return _added_photon_moment(lambda a, b: np.conj(g) ** a * g**b, j, k)
    if isinstance(state, PhotonAddedThermal):
        nb = state.nbar
        return _added_photon_moment(
            lambda a, b: factorial(a) * nb**a if a == b else 0.0, j, k
        )
    g, gc = state.gamma, np.conj(state.gamma)
    eip = complex(math.cos(state.phi), math.sin(state.phi))
    branch = 1.0 + (-1.0) ** (j + k)
    cross = math.exp(-2.0 * abs(g) ** 2) * (eip * (-1.0) ** k + np.conj(eip) * (-1.0) ** j)
    return gc**j * g**k * (branch + cross) / (2.0 * state.norm_factor)


def _seeded_states(per_family):
    rng = random.Random(20261019)

    def amplitude():
        return cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0.0, 2.0 * math.pi))

    for _ in range(per_family):
        yield Coherent(amplitude())
        yield Thermal(rng.uniform(0.05, 3.0))
        yield SqueezedCoherent(amplitude(), rng.uniform(-1.0, 1.0))
        yield PhotonAddedCoherent(amplitude())
        yield PhotonAddedThermal(rng.uniform(0.05, 3.0))
        yield Cat(amplitude(), rng.uniform(0.0, 2.0 * math.pi - 1e-3))


def test_csv_entries_equal_the_scalar_loops():
    for state in _seeded_states(300):
        table = initial_moments(state).array
        for j, k in CSV_ENTRIES:
            assert table[j, k] == _reference_moment(state, j, k), (state, j, k)


# ---------------------------------------------------------------------------
# descriptors


def test_thermal_descriptor():
    (term,) = Thermal(1.0).descriptor()
    assert term.center == 0.0
    assert term.c_r == 0.25
    assert term.c_i == 0.25
    assert term.center_bar == 0.0
    assert term.lap == 0.0 and term.grad == 0.0


def test_coherent_descriptor_is_bare_delta():
    (term,) = Coherent(0.5 + 0.2j).descriptor()
    assert term.center == 0.5 + 0.2j
    assert term.c_r == 0.0 and term.c_i == 0.0


def test_squeezed_descriptor_coefficients():
    state = SqueezedCoherent(1.0, 1.0)
    s = math.exp(2.0)
    (term,) = state.descriptor()
    assert term.c_r == pytest.approx((1.0 - s) / (8.0 * s), abs=1e-15)
    assert term.c_i == pytest.approx(-(1.0 - s) / 8.0, abs=1e-15)
    # the squeezed axis sits below the delta scale: a signed coefficient
    assert term.c_r < 0.0 < term.c_i


def test_zero_squeezing_reduces_to_coherent():
    assert SqueezedCoherent(0.7, 0.0).descriptor() == Coherent(0.7).descriptor()
    np.testing.assert_allclose(
        initial_moments(SqueezedCoherent(0.7, 0.0)).array,
        initial_moments(Coherent(0.7)).array,
        atol=1e-14,
    )


def test_squeezed_variance_split():
    state = SqueezedCoherent(0.3 + 0.1j, 0.8)
    s = state.s
    m = initial_moments(state)
    assert m.var_x() == pytest.approx(1.0 / (4.0 * s), abs=1e-13)
    assert m.var_y() == pytest.approx(s / 4.0, abs=1e-13)
    # variances tie back to the descriptor coefficients: V = 1/4 + 2c
    (term,) = state.descriptor()
    assert m.var_x() == pytest.approx(0.25 + 2.0 * term.c_r, abs=1e-13)
    assert m.var_y() == pytest.approx(0.25 + 2.0 * term.c_i, abs=1e-13)


def test_cat_descriptor_structure():
    state = Cat(1.0 + 0.5j, 0.5)
    g, gc = state.gamma, state.gamma.conjugate()
    terms = state.descriptor()
    # two lobes, then the coherences |g><-g| and |-g><g|: the centres of
    # z and z* are (g, -g*) and (-g, g*)
    assert [(t.center, t.center_bar) for t in terms] == [
        (g, gc), (-g, -gc), (g, -gc), (-g, gc)
    ]
    assert [t.in_density for t in terms] == [True, True, False, False]
    assert all(
        t.c_r == 0.0 and t.c_i == 0.0 and t.lap == 0.0 and t.grad == 0.0
        for t in terms
    )
    w = 1.0 / (2.0 * state.norm_factor)
    assert terms[0].weight == terms[1].weight == pytest.approx(w, abs=1e-15)
    # <-g|g> = e^{-2|g|^2}, with the phases e^{-i phi} and e^{+i phi}
    cross = w * math.exp(-2.0 * abs(g) ** 2)
    assert terms[2].weight == pytest.approx(cross * cmath.exp(-0.5j), abs=1e-15)
    assert terms[3].weight == pytest.approx(cross * cmath.exp(0.5j), abs=1e-15)
    # the weights integrate to tr(rho) = 1
    assert sum(t.weight for t in terms) == pytest.approx(1.0, abs=1e-14)


def test_added_thermal_descriptor_prefactor():
    (term,) = PhotonAddedThermal(2.0).descriptor()
    assert term.c_r == 0.5
    assert term.lap == pytest.approx(0.75, abs=1e-15)
    assert term.grad == 0.0


def test_added_coherent_descriptor_prefactor():
    g = 1.0 - 0.5j
    (term,) = PhotonAddedCoherent(g).descriptor()
    assert (term.center, term.center_bar) == (g, g.conjugate())
    assert term.c_r == 0.0 and term.c_i == 0.0
    assert term.lap == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert term.grad == pytest.approx(-g / 2.25, abs=1e-15)


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigError):
        Thermal(-0.5)
    with pytest.raises(ConfigError):
        PhotonAddedThermal(0.0)
    with pytest.raises(ConfigError):
        Cat(1.0, -0.1)
    with pytest.raises(ConfigError):
        Cat(0.0, math.pi)  # norm 1 + cos(pi) vanishes
