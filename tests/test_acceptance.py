"""Release gate: one test per numbered acceptance criterion.

Every test finishes by recording a single PASS/FAIL line (echoed in the
terminal summary), so a full run ends with eight verdict lines.  The
per-module suites probe the same machinery in more detail; this file
pins the headline numbers and tolerances.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from math import comb, factorial, perm

import numpy as np
import pytest

import conftest
from conftest import GAUSSIAN_KEYS, GT_GRID, RESERVOIRS, STATES
from sqbath import (
    Cat,
    Coherent,
    PhotonAddedCoherent,
    PhotonAddedThermal,
    SqueezedCoherent,
    Thermal,
    classicality_onset_by_scan,
    closed_form_transition_time,
    evolve_moments,
    fock_oracle,
    gaussian_tau_from_covariance,
    initial_moments,
    mandel_q,
    quadrature_variances,
    steady_tau,
    tau_m,
    tau_raw,
    transition_time,
)
from sqbath.cli import RunConfig, TimeGrid, csv_blocks
from sqbath.plotting import figure_curve, figure_specs, render_figure
from sqbath.states import complex_noise_moments

SQRT2 = math.sqrt(2.0)
R_SAT = RESERVOIRS["saturated"]
R_MIX = RESERVOIRS["mixed"]
R_TH = RESERVOIRS["thermal"]

# Large enough that exp(-2*T_INF) underflows to exactly 0.0, so closed
# formulas evaluated there coincide with their long-time limits.
T_INF = 400.0


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. closed-form transition times


CROSSINGS = [
    ("thermal", Thermal(1.0), R_SAT, 0.5 * math.log(SQRT2 / (SQRT2 - 1.0))),
    (
        "squeezed",
        SqueezedCoherent(1.0, 1.0),
        R_MIX,
        0.5 * math.log((7.0 - math.exp(-2.0)) / 6.0),
    ),
    ("added_coherent", PhotonAddedCoherent(1.0), R_MIX, 0.5 * math.log(5.0 / 3.0)),
    (
        "added_thermal",
        PhotonAddedThermal(1.0),
        R_MIX,
        0.5 * math.log(2.0 / (3.0 - math.sqrt(3.0))),
    ),
]


def test_criterion_1_transition_times():
    t0 = time.perf_counter()
    worst_num = worst_closed = 0.0
    for _, state, res, ref in CROSSINGS:
        numeric = transition_time(state, res)
        closed = closed_form_transition_time(state, res)
        assert numeric is not None and closed is not None
        worst_num = max(worst_num, abs(res.gamma * numeric - ref))
        worst_closed = max(worst_closed, abs(res.gamma * closed - ref))
    elapsed = time.perf_counter() - t0
    ok = worst_num <= 1e-9 and worst_closed <= 1e-12 and elapsed < 1.0
    _report(
        1,
        "transition times",
        ok,
        f"4 crossings: numeric dev {worst_num:.2e} (<=1e-9), "
        f"closed-form dev {worst_closed:.2e} (<=1e-12), {elapsed * 1e3:.0f} ms",
    )


# ---------------------------------------------------------------------------
# 2. figure reproduction


def test_criterion_2_figures():
    specs = figure_specs()

    gts1, vals1 = figure_curve(specs["figure1"])
    ref1 = np.maximum(0.0, SQRT2 * (1.0 - np.exp(-2.0 * gts1)) - 1.0)
    dev1 = float(np.abs(vals1 - ref1).max())

    gts2, vals2 = figure_curve(specs["figure2"])
    u = np.exp(-2.0 * gts2)
    ref2 = np.maximum(0.0, np.sqrt(1.0 - 2.0 * u + 2.0 * u * u) - 2.0 * (1.0 - u))
    dev2 = float(np.abs(vals2 - ref2).max())

    cross1 = transition_time(specs["figure1"].state, specs["figure1"].reservoir)
    cross2 = transition_time(specs["figure2"].state, specs["figure2"].reservoir)
    dev_c1 = abs(cross1 - 0.5 * math.log(SQRT2 / (SQRT2 - 1.0)))
    dev_c2 = abs(cross2 - 0.5 * math.log(2.0 / (3.0 - math.sqrt(3.0))))

    svg1 = render_figure(specs["figure1"])
    svg2 = render_figure(specs["figure2"])
    markers = "Γt ≈ 0.6140" in svg1 and "Γt ≈ 0.2279" in svg2

    ok = (
        dev1 <= 1e-12
        and dev2 <= 1e-12
        and vals1[0] == 0.0
        and vals2[0] == pytest.approx(1.0, abs=1e-12)
        and dev_c1 <= 1e-9
        and dev_c2 <= 1e-9
        and markers
    )
    _report(
        2,
        "figure reproduction",
        ok,
        f"curve dev {max(dev1, dev2):.2e} (<=1e-12) on {len(gts1)}+{len(gts2)} "
        f"points, marker dev {max(dev_c1, dev_c2):.2e} (<=1e-9), labels "
        f"{'present' if markers else 'MISSING'}",
    )


# ---------------------------------------------------------------------------
# 3. oracle equivalence for all catalogue states x reservoirs


def test_criterion_3_oracle_equivalence(oracle_snapshots):
    worst = 0.0
    where = ""
    checked = 0

    def check(tag: str, skey: str, rkey: str, gt: float, got, ref) -> None:
        nonlocal worst, where, checked
        checked += 1
        ratio = abs(got - ref) / max(1e-6 * abs(ref), 1e-9)
        if ratio > worst:
            worst, where = ratio, f"{tag} {skey}@{rkey} Γt={gt:g}"

    for (skey, rkey), tables in oracle_snapshots.tables.items():
        state, res = STATES[skey], RESERVOIRS[rkey]
        m0 = initial_moments(state)
        for gt, oracle in zip(GT_GRID, tables):
            t = gt / res.gamma
            mt_a = evolve_moments(m0, res, t)
            check("mean_a", skey, rkey, gt, mt_a.mean_a, oracle.mean_a)
            check("mean_a2", skey, rkey, gt, mt_a.mean_a2, oracle.mean_a2)
            check("mean_n", skey, rkey, gt, mt_a.mean_n, oracle.mean_n)
            check(
                "n2_ordered",
                skey,
                rkey,
                gt,
                mt_a.mean_n2_ordered,
                oracle.mean_n2_ordered,
            )
            o_n = oracle.mean_n
            q_oracle = (oracle.mean_n2_ordered - o_n * o_n) / o_n
            check("mandel_q", skey, rkey, gt, mandel_q(m0, res, t), q_oracle)
            vx, vy = quadrature_variances(m0, res, t)
            check("var_x", skey, rkey, gt, vx, oracle.var_x())
            check("var_y", skey, rkey, gt, vy, oracle.var_y())

    ok = worst <= 1.0 and oracle_snapshots.elapsed < 120.0
    _report(
        3,
        "oracle equivalence",
        ok,
        f"{checked} comparisons over 18 scenarios x 21 times: worst "
        f"|Δ|/tol {worst:.3f} at {where} (tol max(1e-6 rel, 1e-9 abs)); "
        f"oracle wall {oracle_snapshots.elapsed:.1f} s (<120 s), dims "
        + " ".join(f"{d}x{n}" for d, n in sorted(Counter(oracle_snapshots.dims.values()).items())),
    )


# ---------------------------------------------------------------------------
# 4. Gaussian depth from oracle covariances


def test_criterion_4_gaussian_depth_consistency(oracle_snapshots):
    worst = 0.0
    where = ""
    for skey in GAUSSIAN_KEYS:
        state = STATES[skey]
        for rkey, res in RESERVOIRS.items():
            tables = oracle_snapshots.tables[(skey, rkey)]
            for gt, oracle in zip(GT_GRID, tables):
                got = gaussian_tau_from_covariance(
                    min(oracle.var_x(), oracle.var_y())
                )
                ref = tau_m(state, res, gt / res.gamma)
                dev = abs(got - ref)
                if dev > worst:
                    worst, where = dev, f"{skey}@{rkey} Γt={gt:g}"
    ok = worst <= 1e-6
    _report(
        4,
        "Gaussian depth from covariance",
        ok,
        f"3 Gaussian states x 3 reservoirs x 21 times: worst |Δ| "
        f"{worst:.2e} (<=1e-6) at {where}",
    )


# ---------------------------------------------------------------------------
# 5. steady state


def test_criterion_5_steady_state():
    worst_oracle = 0.0
    for state, res in ((Coherent(1.0), R_MIX), (Thermal(1.0), R_SAT)):
        rho = fock_oracle.integrate(
            fock_oracle.prepare(state, 64), res, 10.0 / res.gamma
        )
        table = fock_oracle.moments_from_rho(rho)
        worst_oracle = max(
            worst_oracle,
            abs(table.mean_n - res.N),
            abs(table.mean_a2 - res.M),
        )

    worst_tau = 0.0
    for state in STATES.values():
        for res in (R_SAT, R_MIX):
            limit = max(0.0, abs(res.M) - res.N)
            worst_tau = max(
                worst_tau,
                abs(tau_m(state, res, T_INF / res.gamma) - limit),
                abs(steady_tau(res) - limit),
            )

    ok = worst_oracle <= 1e-4 and worst_tau <= 1e-12
    _report(
        5,
        "steady state",
        ok,
        f"oracle moments at Γt=10 within {worst_oracle:.2e} of (N, M) "
        f"(<=1e-4); depth limit dev {worst_tau:.2e} (<=1e-12)",
    )


# ---------------------------------------------------------------------------
# 6. smoothing-kernel moment identity


def _series_moment(k: int, a: float, y: float) -> float:
    return sum(
        (a / 4.0) ** j / factorial(j) * perm(k, 2 * j) * y ** (k - 2 * j)
        for j in range(k // 2 + 1)
    )


_HG_NODES, _HG_WEIGHTS = np.polynomial.hermite.hermgauss(60)


def _quadrature_moment(k: int, a: float, y: float) -> float:
    xs = y + math.sqrt(a) * _HG_NODES
    return float(_HG_WEIGHTS @ xs**k / math.sqrt(math.pi))


def _library_moment(k: int, a: float, y: float) -> float:
    # the noise-moment table is the library's closed-form route
    x = complex_noise_moments(a / 2.0, 0.0, order=6)
    return sum(comb(k, q) * y ** (k - q) * x[0, q].real for q in range(k + 1))


def test_criterion_6_kernel_moment_identity():
    worst = 0.0
    for a in (0.1, 1.0, 4.0):
        for k in range(7):
            for y in (0.0, 0.7, -1.3):
                series = _series_moment(k, a, y)
                quad = _quadrature_moment(k, a, y)
                lib = _library_moment(k, a, y)
                worst = max(
                    worst,
                    abs(series - quad),
                    abs(lib - quad),
                    abs(series - lib),
                )
    ok = worst <= 1e-10
    _report(
        6,
        "kernel moment identity",
        ok,
        f"orders k=0..6, widths a in {{0.1, 1, 4}}, three centers: worst "
        f"route-to-route dev {worst:.2e} (<=1e-10)",
    )


# ---------------------------------------------------------------------------
# 7. non-Gaussian depth spot checks


def _oracle_depth(state, res, gt: float, dim: int = 64) -> float:
    """Depth located by bisecting the smoothing width on oracle grids."""
    rho = fock_oracle.integrate(fock_oracle.prepare(state, dim), res, gt / res.gamma)
    center = fock_oracle.moments_from_rho(rho).mean_a
    xs = np.round(np.arange(center.real - 3.5, center.real + 3.501, 0.1), 6)
    ys = np.round(np.arange(center.imag - 3.5, center.imag + 3.501, 0.1), 6)
    # the populations do not depend on tau; each step reweights them
    pops = fock_oracle.displaced_populations(rho, xs, ys)

    def negative(tau: float) -> bool:
        return float((pops @ fock_oracle._series_weights(tau, dim)).min()) < -1e-12

    lo, hi = 0.553, 1.0  # series converges only above tau = 1/2
    if not negative(lo):
        return lo
    if negative(hi):
        return hi
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if negative(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_7_non_gaussian_spot_checks():
    worst_depth = 0.0
    for state, gt in (
        (PhotonAddedCoherent(1.0), 0.05),
        (PhotonAddedThermal(1.0), 0.02),
        (Cat(1.0, 0.0), 0.05),
    ):
        ref = tau_m(state, R_MIX, gt / R_MIX.gamma)
        assert ref > 0.55  # the bisection window only reaches tau > 1/2
        worst_depth = max(worst_depth, abs(_oracle_depth(state, R_MIX, gt) - ref))

    onset_pac = classicality_onset_by_scan(PhotonAddedCoherent(1.0), R_MIX, 0.15, 0.35)
    onset_pat = classicality_onset_by_scan(PhotonAddedThermal(1.0), R_MIX, 0.15, 0.30)
    # a cat's crossing is the photon-added coherent one (criterion 8)
    onset_cat = classicality_onset_by_scan(Cat(1.0, 0.0), R_MIX, 0.15, 0.35)
    dev_onset = max(
        abs(onset_pac - 0.5 * math.log(5.0 / 3.0)),
        abs(onset_pat - 0.5 * math.log(2.0 / (3.0 - math.sqrt(3.0)))),
        abs(onset_cat - 0.5 * math.log(5.0 / 3.0)),
    )

    ok = worst_depth <= 0.02 and dev_onset <= 5e-3
    _report(
        7,
        "non-Gaussian depth spot checks",
        ok,
        f"oracle-grid depth dev {worst_depth:.3f} (<=0.02) and sign-scan "
        f"onset dev {dev_onset:.2e} (<=5e-3) for two photon-added states "
        f"and Cat(1, 0)",
    )


# ---------------------------------------------------------------------------
# 8. structural identities


def test_criterion_8_identities(oracle_snapshots):
    # cat and added-coherent depth profiles coincide exactly
    cat_dev = 0.0
    for res in RESERVOIRS.values():
        for gt in GT_GRID:
            t = gt / res.gamma
            cat_dev = max(
                cat_dev,
                abs(
                    tau_raw(Cat(1.0, 0.0), res, t)
                    - tau_raw(PhotonAddedCoherent(1.0), res, t)
                ),
            )

    # an unsqueezed squeezed-coherent state is a coherent state in every
    # CSV column (moments, Mandel Q, variances, raw and clamped depth)
    gamma = 0.8 - 0.3j
    rows_equal = True
    grid = TimeGrid(0.0, 2.0, 0.1)
    for res in (R_SAT, R_MIX):
        cfg_sq = RunConfig(SqueezedCoherent(gamma, 0.0), res, grid)
        cfg_co = RunConfig(Coherent(gamma), res, grid)
        if "".join(csv_blocks(cfg_sq)) != "".join(csv_blocks(cfg_co)):
            rows_equal = False

    # M = 0 keeps phase symmetry: V_X = V_Y for symmetric initial states
    sym_analytic = 0.0
    for skey in ("coherent", "thermal", "added_thermal"):
        m0 = initial_moments(STATES[skey])
        for gt in GT_GRID:
            vx, vy = quadrature_variances(m0, R_TH, gt / R_TH.gamma)
            sym_analytic = max(sym_analytic, abs(vx - vy))
    sym_oracle = 0.0
    for skey in ("coherent", "thermal", "added_thermal"):
        for oracle in oracle_snapshots.tables[(skey, "thermal")]:
            sym_oracle = max(sym_oracle, abs(oracle.var_x() - oracle.var_y()))

    ok = (
        cat_dev == 0.0
        and rows_equal
        and sym_analytic <= 1e-14
        and sym_oracle <= 1e-9
    )
    _report(
        8,
        "structural identities",
        ok,
        f"cat/added-coherent depth dev {cat_dev:.1e} (exact); unsqueezed "
        f"rows {'byte-identical' if rows_equal else 'DIFFER'} over 2x21 CSV "
        f"rows; M=0 variance asymmetry {sym_analytic:.1e} analytic / "
        f"{sym_oracle:.1e} oracle",
    )
