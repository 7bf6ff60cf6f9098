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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .elementwise import FloatOrArray, emap
from .errors import ConfigError, ImmediateTransition, SingularSmoothing
from .evolution import evolved_descriptor
from .reservoir import ReservoirParams, mt, nt
from .states import DescriptorTerm, StateSpec

# Profiles are bracketed for sign changes on the scaled window (0, T_MAX].
T_MAX_SCALED = 50.0
_BISECT_TOL = 1e-10
# A grid minimum above this threshold counts as "nonnegative" in scans.
NEGATIVITY_THRESHOLD = -1e-12
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


def tau_raw(state: StateSpec, res: ReservoirParams, t: FloatOrArray) -> FloatOrArray:
    """Unclamped depth profile at a time or over an array of times;
    negative values mean a classical state."""
    n_t, m_t = nt(res, t), mt(res, t)
    u = emap(math.exp, -2.0 * res.gamma * t)
    return state.depth(u, n_t, m_t)


def tau_m(state: StateSpec, res: ReservoirParams, t: FloatOrArray) -> FloatOrArray:
    """Clamped nonclassical depth, in [0, 1] for the catalogue states."""
    return tau_profile(state, res, t).clamped


def tau_profile(state: StateSpec, res: ReservoirParams, t: FloatOrArray) -> TauProfile:
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
    identically zero (or underflows to zero) has no crossing. Raises
    ImmediateTransition when the profile leaves zero into the
    nonclassical side at t = 0+ and never crosses back (a coherent state
    under a squeezing-dominated reservoir).  Bisection is carried to
    1e-10 in Gamma t.
    """
    gamma = res.gamma

    def raw_scaled(gt: float) -> float:
        return tau_raw(state, res, gt / gamma)

    gts = np.concatenate(([0.0], np.geomspace(1e-8, T_MAX_SCALED, 700)))
    vals = tau_raw(state, res, gts / gamma).tolist()
    if abs(vals[0]) <= IMMEDIATE_TOL:
        vals[0] = 0.0

    bracket = None
    last = None  # index of the latest nonzero value
    for i, val in enumerate(vals):
        if val == 0.0:
            continue
        if last is not None and vals[last] * val < 0.0:
            if i > last + 1:  # exact zeros between the two signs
                return gts[last + 1] / gamma
            bracket = (gts[last], gts[i])
            break
        last = i

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
    SingularSmoothing where a coefficient is not positive, or where the
    sum overflows: a coherence with complex axis centres (x0, y0) grows
    like e^{(Im x0)^2 / a_r + (Im y0)^2 / a_i}.
    """
    if tau < 0.0:
        raise ConfigError(f"tau must be >= 0, got {tau}")
    desc = evolved_descriptor(state, res, t)
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        terms = (_smoothed_term(term, tau, flat) for term in desc.terms)
        out = np.real(reduce(np.add, terms))
    finite = np.isfinite(out)
    if not finite.all():
        raise SingularSmoothing(
            f"smoothed density overflows at {finite.size - finite.sum()} of "
            f"{finite.size} points; increase tau or t"
        )
    return out.reshape(z.shape)


def r_function(
    state: StateSpec, res: ReservoirParams, t: float, tau: float, z: complex
) -> float:
    """Pointwise value of the tau-smoothed evolved weight at z."""
    return float(r_function_grid(state, res, t, tau, np.asarray(z, dtype=complex)))


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
    density = [
        term for term in evolved_descriptor(state, res, t).terms if term.in_density
    ]
    w = sum(term.weight for term in density)
    center = sum(term.weight * term.center for term in density) / w
    return center, 5.0 + max(abs(term.center) for term in density)


def min_r_on_grid(state: StateSpec, res: ReservoirParams, t: float, tau: float) -> float:
    """Minimum of the smoothed weight over the standard scan window:
    centred on the weighted mean centre of the density terms (a cat's
    coherences left out), half-width 5 + their largest |center|, with
    points SCAN_STEP apart."""
    center, half_width = _scan_window(state, res, t)
    z = _scan_points(center, half_width)
    return float(r_function_grid(state, res, t, tau, z).min())


def tau_m_by_negativity_scan(state: StateSpec, res: ReservoirParams, t: float) -> float:
    """Numeric depth: bisect, to SCAN_TOL, the smallest tau whose grid
    minimum clears the negativity threshold.  Validates the closed-form
    rows."""
    desc = evolved_descriptor(state, res, t)
    min_c = min(min(term.c_r, term.c_i) for term in desc.terms)
    lo = 0.0 if min_c > 0.0 else -4.0 * min_c + 1e-9

    def negative(tau: float) -> bool:
        try:
            return min_r_on_grid(state, res, t, tau) < NEGATIVITY_THRESHOLD
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
    while hi - lo > SCAN_TOL:
        mid = 0.5 * (lo + hi)
        if negative(mid):
            lo = mid
        else:
            hi = mid
    return hi


def classicality_onset_by_scan(
    state: StateSpec,
    res: ReservoirParams,
    gt_lo: float,
    gt_hi: float,
) -> float:
    """Scaled time at which the evolved weight itself (tau = 0) stops
    being negative on the scan grid, located by bisection to SCAN_TOL.

    The bracket [gt_lo, gt_hi] must straddle the onset.
    """
    gamma = res.gamma

    def negative(gt: float) -> bool:
        return min_r_on_grid(state, res, gt / gamma, 0.0) < NEGATIVITY_THRESHOLD

    if not negative(gt_lo):
        raise ConfigError(f"no negativity at the lower bracket Gamma*t = {gt_lo}")
    if negative(gt_hi):
        raise ConfigError(f"still negative at the upper bracket Gamma*t = {gt_hi}")
    lo, hi = gt_lo, gt_hi
    while hi - lo > SCAN_TOL:
        mid = 0.5 * (lo + hi)
        if negative(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
