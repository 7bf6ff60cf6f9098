"""Nonclassical depth: closed-form profiles, transition times, and the
one-parameter family of smoothed phase-space densities.

The depth tau_m(t) is the smallest Gaussian smoothing width (in the
convention where 1 recovers the Husimi density from the diagonal weight)
that renders the evolved weight pointwise nonnegative.  For the catalogue
states it has closed forms in u = e^{-2 Gamma t}; the per-family rows are
defined on the state classes in ``states`` (``depth``, with the candidate
zero crossings in ``crossing_roots``), and this module clamps them below
at zero.  The raw (unclamped) profile is what crosses zero at the
classicality transition.

The smoothed density R(z, tau) is evaluated term by term on an array of
points (``r_function_grid``).  The grid scans that check the closed forms
numerically share one sign test: a point is negative where R falls below
RELATIVE_NEGATIVITY_THRESHOLD times the sum of its terms' moduli, so a
large cat's fringes count however small they are.  The depth scan bisects
tau at fixed t, the onset scan t at tau = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .elementwise import FloatOrArray
from .errors import (
    ConfigError,
    ImmediateTransition,
    NonFiniteResult,
    SingularSmoothing,
    UnresolvedDensity,
)
from .evolution import evolved_descriptor
from .reservoir import ReservoirParams, Times, noise_envelope
from .states import DescriptorTerm, StateSpec

# Profiles are bracketed for sign changes on the scaled window (0, T_MAX].
T_MAX_SCALED = 50.0
_SCAN_GTS = np.concatenate(([0.0], np.geomspace(1e-8, T_MAX_SCALED, 700)))
_BISECT_TOL = 1e-10
# A scan point counts as a dip towards zero only where both neighbours
# exceed it by more than this share of its size.
_DIP_REL = 1e-9
# The scans' threshold on R(z) over the sum of its terms' moduli at z, and
# the smallest such sum that still carries full double precision.
RELATIVE_NEGATIVITY_THRESHOLD = -1e-12
_RESOLVED = np.finfo(float).tiny / np.finfo(float).eps
# Scan grid spacing, and the width at which a scan's bisection stops.
SCAN_STEP = 0.05
SCAN_TOL = 1e-3
# A raw profile this close to zero at t = 0 starts on the boundary: it
# counts as zero in the crossing scan, and leaving it into the
# nonclassical side is an immediate transition.
IMMEDIATE_TOL = 1e-14


@dataclass(frozen=True)
class TauProfile:
    """Raw (signed) and clamped nonclassical depth at one instant, or as
    arrays over an array of times."""

    raw: FloatOrArray
    clamped: FloatOrArray


def tau_raw(state: StateSpec, res: ReservoirParams, t: Times) -> FloatOrArray:
    """Unclamped depth profile at a time or over an array of times;
    negative values mean a classical state."""
    env = noise_envelope(res, t)
    return state.depth(env.u, env.n_t, env.m_t)


def tau_m(state: StateSpec, res: ReservoirParams, t: Times) -> FloatOrArray:
    """Clamped nonclassical depth, in [0, 1] for the catalogue states."""
    return tau_profile(state, res, t).clamped


def tau_profile(state: StateSpec, res: ReservoirParams, t: Times) -> TauProfile:
    raw = tau_raw(state, res, t)
    return TauProfile(raw=raw, clamped=np.maximum(0.0, raw))


def steady_tau(res: ReservoirParams) -> float:
    """t -> infinity limit of the clamped depth: max(0, |M| - N)."""
    return max(0.0, abs(res.M) - res.N)


def gaussian_tau_from_covariance(min_variance: float) -> float:
    """Depth of a Gaussian state from its smallest quadrature variance:
    max(0, 1/2 - 2 v_min)."""
    return max(0.0, 0.5 - 2.0 * min_variance)


# ---------------------------------------------------------------------------
# transition times


def transition_time(state: StateSpec, res: ReservoirParams) -> float | None:
    """Smallest t > 0 where the raw profile crosses zero.

    The scan starts at t = 0, followed by a geometric grid from Gamma t =
    1e-8 to 50, so crossings earlier than the first grid point are
    bracketed too; a value at t = 0 within IMMEDIATE_TOL of zero counts
    as zero. Returns None when no sign change exists on [0, 50/Gamma]; a
    value of exactly zero is a crossing only where the nearest nonzero
    values on its two sides have opposite signs, so a profile that is
    identically zero (or underflows to zero) has no crossing. Two
    crossings closer together than the scan's spacing show up only as a
    scan point nearer zero than both of its neighbours; before the first
    sign change, the profile is minimised towards zero between the
    neighbours of each such point, and a minimum of the opposite sign
    brackets the crossing. Raises ImmediateTransition when the profile
    leaves zero into the nonclassical side at t = 0+ and never crosses
    back (a coherent state under a squeezing-dominated reservoir), and
    NonFiniteResult when a scanned value is NaN (parameters beyond double
    precision).  Bisection is carried to 1e-10 in Gamma t.
    """
    gamma = res.gamma

    def raw_scaled(gt: float) -> float:
        return tau_raw(state, res, gt / gamma)

    gts = _SCAN_GTS
    with np.errstate(over="ignore", invalid="ignore"):  # NaN reported below
        vals = tau_raw(state, res, gts / gamma)
    undefined = np.flatnonzero(np.isnan(vals))
    if len(undefined):
        raise NonFiniteResult(
            f"raw depth is not a number at gamma_t = {float(gts[undefined[0]])!r}"
        )
    if abs(vals[0]) <= IMMEDIATE_TOL:
        vals[0] = 0.0

    bracket = zero_run = None
    end = len(vals) - 1  # the scan points before the first sign change
    nonzero = np.flatnonzero(vals)
    flips = np.flatnonzero(np.diff(np.sign(vals[nonzero])))
    if len(flips):
        end, i = nonzero[flips[0]], nonzero[flips[0] + 1]
        if i > end + 1:  # exact zeros between the two signs
            zero_run = gts[end + 1]
        else:
            bracket = (gts[end], gts[i])
    dip = _dip_bracket(raw_scaled, gts, vals[: end + 1])
    if dip is not None:
        bracket = dip
    elif zero_run is not None:
        return zero_run / gamma

    if bracket is None:
        if vals[0] == 0.0 and vals[1] > 0.0:
            raise ImmediateTransition(
                "profile is nonclassical immediately after t = 0 "
                "with no later crossing"
            )
        return None

    lo, hi = bracket
    flo = raw_scaled(lo)
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        fmid = raw_scaled(mid)
        if fmid == 0.0:
            return mid / gamma
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi) / gamma


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _dip_bracket(f, gts: np.ndarray, vals: np.ndarray) -> tuple[float, float] | None:
    """The first (gt, gt') with f(gt) and f(gt') of opposite signs inside a
    dip of the scanned values vals = f(gts[:len(vals)]) towards zero, or
    None.  A dip is a scan point nearer zero than both of its neighbours
    by more than _DIP_REL of its size (closer than that is rounding
    noise, as where u has shrunk below the epsilon of N_t).  Each dip is
    a golden-section minimisation of |f| between the two neighbours; it
    stops at the first value of the other sign."""
    sign, mag = np.sign(vals), np.abs(vals)
    mid = slice(1, -1)
    floor = mag[mid] * (1.0 + _DIP_REL)
    dips = (
        (sign[mid] != 0.0)
        & (sign[:-2] == sign[mid])
        & (sign[2:] == sign[mid])
        & (floor < mag[:-2])
        & (floor < mag[2:])
    )
    for j in np.flatnonzero(dips) + 1:
        s = sign[j]
        a, b = gts[j - 1], gts[j + 1]
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        fc, fd = s * f(c), s * f(d)
        while b - a > _BISECT_TOL:
            if fc < 0.0:
                return gts[j - 1], c
            if fd < 0.0:
                return gts[j - 1], d
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = s * f(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = s * f(d)
    return None


def _root_from_u(u: float, gamma: float) -> float:
    return -0.5 * math.log(u) / gamma


def closed_form_transition_time(
    state: StateSpec, res: ReservoirParams
) -> float | None:
    """Algebraic transition time, where one exists.

    Setting the raw profile to zero gives linear or quadratic equations
    in u = e^{-2 Gamma t}; roots are filtered for u in (0, 1), for the
    sign condition lost when squaring, and against the profile itself.
    Returns None when no valid root exists (including the immediate-
    transition situation, which has no finite crossing).
    """
    valid = [
        u
        for u, sign_ok in state.crossing_roots(res.N, res.M)
        if 0.0 < u < 1.0
        and sign_ok
        and abs(tau_raw(state, res, _root_from_u(u, res.gamma))) < 1e-9
    ]
    return _root_from_u(max(valid), res.gamma) if valid else None


# ---------------------------------------------------------------------------
# smoothed densities


def _smoothed_term(term: DescriptorTerm, tau: float, z: np.ndarray) -> np.ndarray:
    """One descriptor term smoothed by tau, on a flat array of points."""
    big_r = term.c_r + tau / 4.0
    big_i = term.c_i + tau / 4.0
    if big_r <= 0.0 or big_i <= 0.0:
        raise SingularSmoothing(
            f"total smoothing coefficients must be positive, got "
            f"({big_r:.3g}, {big_i:.3g}); increase tau or t"
        )
    ar, ai = 4.0 * big_r, 4.0 * big_i
    x0 = 0.5 * (term.center + term.center_bar)
    y0 = 0.5j * (term.center_bar - term.center)
    if term.in_density:  # real axis centres: keep the arithmetic real
        x0, y0 = x0.real, y0.real
    # On a scan grid a fresh array costs more than the arithmetic, so four
    # buffers are reused in place.  The exponent keeps the order
    # -u^2/a_r - v^2/a_i, and a prefactor of exactly 1 leaves a plain
    # Gaussian term's bytes alone.
    u = z.real - x0
    v = z.imag - y0
    eu, ev = u / ar, v / ai
    u *= u
    u /= ar
    v *= v
    v /= ai
    np.negative(u, out=u)
    u -= v
    gauss = np.exp(u, out=u)
    gauss /= math.pi * math.sqrt(ar * ai)
    # (1 + lap (d_x^2 + d_y^2) + Re(grad) d_x + Im(grad) d_y) gauss
    #   = gauss [(4 lap e_u - 2 Re(grad)) e_u + (4 lap e_v - 2 Im(grad)) e_v
    #            + 1 - 2 lap (1/a_r + 1/a_i)],  e_u = u/a_r, e_v = v/a_i
    pre = np.multiply(eu, 4.0 * term.lap, out=v)
    pre -= 2.0 * term.grad.real
    pre *= eu
    pre_i = np.multiply(ev, 4.0 * term.lap, out=eu)
    pre_i -= 2.0 * term.grad.imag
    pre_i *= ev
    pre += pre_i
    pre += 1.0 - 2.0 * term.lap * (1.0 / ar + 1.0 / ai)
    gauss *= pre
    gauss *= term.weight
    return gauss


def _smoothed_terms(
    state: StateSpec, res: ReservoirParams, t: float, tau: float, z: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """The evolved descriptor's terms smoothed by tau on a flat array of
    points, and their sum R (complex where a cat's coherences enter).

    Raises SingularSmoothing where a coefficient is not positive, or where
    a term overflows: a coherence with complex axis centres (x0, y0) grows
    like e^{(Im x0)^2 / a_r + (Im y0)^2 / a_i}.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        terms = [_smoothed_term(term, tau, z) for term in evolved_descriptor(state, res, t)]
        total = reduce(np.add, terms)
    # a term that is not finite leaves its component of the sum not finite
    finite = np.isfinite(total)
    if not finite.all():
        raise SingularSmoothing(
            f"smoothed density overflows at {finite.size - finite.sum()} of "
            f"{finite.size} points; increase tau or t"
        )
    return terms, total


def r_function_grid(
    state: StateSpec,
    res: ReservoirParams,
    t: float,
    tau: float,
    z: np.ndarray,
) -> np.ndarray:
    """Evaluate the tau-smoothed evolved weight on an array of points.

    tau = 0 gives the evolved diagonal weight itself (legal once the
    reservoir smoothing has made every coefficient strictly positive);
    tau = 1 gives the Husimi density.  Each term is a Gaussian of axis
    widths a = 4 (c + tau/4) times its prefactor.  A cat's coherences have
    complex axis centres and come in conjugate pairs, so the sum is real
    up to rounding, and its real part is returned.  Raises
    SingularSmoothing as _smoothed_terms does.
    """
    if tau < 0.0:
        raise ConfigError(f"tau must be >= 0, got {tau}")
    z = np.asarray(z, dtype=complex)
    _, total = _smoothed_terms(state, res, t, tau, z.reshape(-1))
    return np.real(total).reshape(z.shape)


# ---------------------------------------------------------------------------
# grid scans (numeric validation of the closed-form profiles)


def _scan_points(desc_center: complex, half_width: float) -> np.ndarray:
    n = int(round(2.0 * half_width / SCAN_STEP))
    xs = desc_center.real + (np.arange(n + 1) - n / 2.0) * SCAN_STEP
    ys = desc_center.imag + (np.arange(n + 1) - n / 2.0) * SCAN_STEP
    return xs[None, :] + 1j * ys[:, None]


def _scan_window(
    state: StateSpec, res: ReservoirParams, t: float
) -> tuple[complex, float]:
    """Centre and half-width of the standard scan window."""
    density = [term for term in evolved_descriptor(state, res, t) if term.in_density]
    w = sum(term.weight for term in density)
    center = sum(term.weight * term.center for term in density) / w
    return center, 5.0 + max(abs(term.center) for term in density)


def _relative_min_on_grid(
    state: StateSpec, res: ReservoirParams, t: float, tau: float
) -> float:
    """Smallest R(z) / sum_k |R_k(z)| over the standard scan window, R_k
    being the smoothed descriptor terms that sum to R.  The window is
    centred on the weighted mean centre of the density terms (a cat's
    coherences left out), with half-width 5 + their largest |center| and
    points SCAN_STEP apart.

    Each point's negativity is measured against the terms that cancel to
    give it, so a large cat's fringes count however far they lie below the
    grid's largest value. Points where that sum is below _RESOLVED, where
    underflow has cost the terms their precision, read 0; a term below
    _RESOLVED on the whole grid raises UnresolvedDensity, and an
    overflowing one SingularSmoothing.
    """
    center, half_width = _scan_window(state, res, t)
    z = _scan_points(center, half_width).reshape(-1)
    terms, total = _smoothed_terms(state, res, t, tau, z)
    scale = np.zeros(z.size)
    for r in terms:
        size = np.abs(r)
        if size.max() < _RESOLVED:
            raise UnresolvedDensity(
                f"a smoothed term stays below {_RESOLVED:.1e} on the scan "
                f"grid at tau = {tau:.6g}; its negativity cannot be "
                "resolved in double precision"
            )
        scale += size
    ratio = np.divide(total.real, scale, out=np.zeros(z.size), where=scale >= _RESOLVED)
    return float(ratio.min())


def _negative_on_grid(
    state: StateSpec, res: ReservoirParams, t: float, tau: float
) -> bool:
    """The scans' one negativity test: _relative_min_on_grid below
    RELATIVE_NEGATIVITY_THRESHOLD."""
    return _relative_min_on_grid(state, res, t, tau) < RELATIVE_NEGATIVITY_THRESHOLD


def _bisect_to_scan_tol(negative, lo: float, hi: float) -> tuple[float, float]:
    """Halve [lo, hi], negative at lo and not at hi, to SCAN_TOL wide."""
    while hi - lo > SCAN_TOL:
        mid = 0.5 * (lo + hi)
        if negative(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def tau_m_by_negativity_scan(state: StateSpec, res: ReservoirParams, t: float) -> float:
    """Numeric depth: bisect, to SCAN_TOL, the smallest tau whose grid
    passes _negative_on_grid.  Validates the closed-form rows."""
    min_c = min(min(term.c_r, term.c_i) for term in evolved_descriptor(state, res, t))
    lo = 0.0 if min_c > 0.0 else -4.0 * min_c + 1e-9

    def negative(tau: float) -> bool:
        try:
            return _negative_on_grid(state, res, t, tau)
        except SingularSmoothing:
            # every coefficient is positive from lo on, so the density
            # overflowed: a large cat's coherences under little smoothing
            return True

    if not negative(lo):
        return lo
    hi = 1.0
    while negative(hi):
        hi += 0.5  # depth beyond 1 never happens for catalogue states
        if hi > 4.0:
            raise ConfigError("no nonnegative smoothing found below tau = 4")
    return _bisect_to_scan_tol(negative, lo, hi)[1]


def classicality_onset_by_scan(
    state: StateSpec,
    res: ReservoirParams,
    gt_lo: float,
    gt_hi: float,
) -> float:
    """Scaled time at which the evolved weight itself (tau = 0) stops
    being negative on the scan grid (_negative_on_grid), located by
    bisection to SCAN_TOL.

    The bracket [gt_lo, gt_hi] must straddle the onset.
    """
    gamma = res.gamma

    def negative(gt: float) -> bool:
        return _negative_on_grid(state, res, gt / gamma, 0.0)

    if not negative(gt_lo):
        raise ConfigError(f"no negativity at the lower bracket Gamma*t = {gt_lo}")
    if negative(gt_hi):
        raise ConfigError(f"still negative at the upper bracket Gamma*t = {gt_hi}")
    lo, hi = _bisect_to_scan_tol(negative, gt_lo, gt_hi)
    return 0.5 * (lo + hi)
