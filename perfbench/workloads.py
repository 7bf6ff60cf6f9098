"""Seeded inputs, timed operations and output checks for the three workloads.

A workload is a list of passes; a pass is a list of inputs, and each input is
one timed operation ("op"). Inputs for pass ``p`` of seed ``s`` come from
their own ``random.Random`` stream, so the same seed always gives the same
inputs and every pass brings inputs no earlier pass has used: caches that the
program keys per input are paid inside the timed ops, as a CLI user pays
them.

Timed ops call only the public functions of ``cli``, ``states``,
``evolution``, ``nonclassicality`` and ``fock_oracle``, always through the
module object, so that a tracer can wrap them. The checks that follow an op
use the references captured in ``_REF`` below and are never timed or traced.
The exception is ``oracle_check``: comparing the oracle with the analytic
layer is the product there (it is what ``sqbath validate`` does), so that
comparison is part of the timed trajectory.
"""
from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from sqbath import cli, evolution, fock_oracle, nonclassicality, states
from sqbath.errors import DegenerateDenominator, ImmediateTransition

# Untraced references for the checks, bound before any tracer wraps a name.
_REF = SimpleNamespace(
    evolve_moments=evolution.evolve_moments,
    mandel_q=evolution.mandel_q,
    quadrature_variances=evolution.quadrature_variances,
    tau_profile=nonclassicality.tau_profile,
    initial_moments=states.initial_moments,
)

ORACLE_REL, ORACLE_ABS = 1e-6, 1e-9  # criterion 3's rule, also used for the grids
CSV_REL = 1e-12  # CSV cells against direct calls; the floor is CSV_REL * 1.0
TT_ABS = 1e-8  # numeric against closed-form transition time, in units of Γt
QP_TAU = 0.75
CSV_COLUMNS = cli.CSV_HEADER.split(",")


@dataclass
class OpResult:
    """What one timed op produced, and what its check found wrong."""

    rows: int
    problems: list[str] = field(default_factory=list)


def _ratio(got: complex, ref: complex) -> float:
    """|got - ref| over criterion 3's tolerance; NaN counts as infinitely off."""
    r = abs(got - ref) / max(ORACLE_REL * abs(ref), ORACLE_ABS)
    return r if r == r else math.inf


def _rnd(x: float) -> float:
    return round(x, 6)


# ---------------------------------------------------------------------------
# oracle_check: trajectories drawn from the rows of the oracle test fixture

# A copy of tests/conftest.py's STATES and RESERVOIRS, so that the inputs
# stay the same when the test fixture changes.
FIXTURE_STATES = {
    "coherent": {"kind": "coherent", "gamma": 1.0},
    "thermal": {"kind": "thermal", "nbar": 1.0},
    "squeezed": {"kind": "squeezed_coherent", "gamma": 1.0, "mu": 1.0},
    "added_coherent": {"kind": "photon_added_coherent", "gamma": 1.0},
    "added_thermal": {"kind": "photon_added_thermal", "nbar": 1.0},
    "cat": {"kind": "cat", "gamma": 1.0, "phi": 0.0},
}
FIXTURE_RESERVOIRS = {
    "saturated": {"N": 1.0, "M": -math.sqrt(2.0)},
    "mixed": {"N": 2.0, "M": 1.0},
    "thermal": {"N": 1.0, "M": 0.0},
}
_PLAIN = [k for k in FIXTURE_STATES if k != "squeezed"]
_RES = list(FIXTURE_RESERVOIRS)


@dataclass(frozen=True)
class TruncationClass:
    """One (dim, dt) pair of the fixture, and how far the benchmark runs it."""

    dim: int
    dt: float
    gt_step: float
    gt_end: float
    rows: tuple  # (state key, reservoir key) pairs of the fixture in this class


# Rows and (dim, dt) follow tests/conftest.py's snapshot_params. Each pass
# draws one row per class; the squeezed rows are cut short because one RK4
# step costs ~7.6 ms at dim 128 and ~43 ms at dim 256 on a 2-core machine.
ORACLE_CLASSES = (
    TruncationClass(64, 1e-3, 0.1, 2.0,
                    tuple((s, r) for s in _PLAIN for r in ("saturated", "thermal"))),
    TruncationClass(80, 1e-3, 0.1, 2.0, tuple((s, "mixed") for s in _PLAIN)),
    TruncationClass(128, 5e-4, 0.1, 1.0, tuple(("squeezed", r) for r in _RES)),
    TruncationClass(256, 5e-4, 0.01, 0.02, tuple(("squeezed", r) for r in _RES)),
)


@dataclass(frozen=True)
class Trajectory:
    """One oracle_check op: a fixture row integrated on one truncation class."""

    label: str
    state: object
    res: object
    dim: int
    dt: float
    gts: tuple  # snapshot grid in Γt
    xs: tuple  # quasiprobability grid, real axis
    ys: tuple  # quasiprobability grid, imaginary axis

    @property
    def gt_end(self) -> float:
        return self.gts[-1]


def _parse(state_doc: dict, res_doc: dict):
    cfg = cli.parse_config({"state": state_doc, "reservoir": res_doc}, need_grid=False)
    return cfg.state, cfg.reservoir


def _qp_axis(center: float, rng: random.Random) -> tuple:
    # 7 points 0.5 apart around the mean amplitude; the jitter keeps every
    # pass off the displacement matrices an earlier pass cached
    c = center + rng.uniform(-0.05, 0.05)
    return tuple(_rnd(c + 0.5 * (i - 3)) for i in range(7))


def make_trajectory(skey: str, rkey: str, cls: TruncationClass, rng: random.Random) -> Trajectory:
    state, res = _parse(FIXTURE_STATES[skey], FIXTURE_RESERVOIRS[rkey])
    n = round(cls.gt_end / cls.gt_step)
    gts = tuple(round(cls.gt_step * i, 10) for i in range(n + 1))
    # centre the grid on the analytic mean amplitude at the last snapshot
    mean = _REF.evolve_moments(_REF.initial_moments(state), res, gts[-1] / res.gamma).mean_a
    return Trajectory(
        label=f"{skey}@{rkey} dim={cls.dim} dt={cls.dt:g} Γt<={cls.gt_end:g}",
        state=state, res=res, dim=cls.dim, dt=cls.dt, gts=gts,
        xs=_qp_axis(mean.real, rng), ys=_qp_axis(mean.imag, rng),
    )


def oracle_pass(rng: random.Random) -> list[Trajectory]:
    return [make_trajectory(*rng.choice(cls.rows), cls, rng) for cls in ORACLE_CLASSES]


def run_trajectory(tr: Trajectory) -> OpResult:
    """prepare, evolve onto the snapshot grid, compare every snapshot's
    moments with the analytic layer, and compare one smoothed density grid."""
    state, res = tr.state, tr.res
    times = [gt / res.gamma for gt in tr.gts]
    rho0 = fock_oracle.prepare(state, tr.dim)
    snaps = fock_oracle.evolve_recording(rho0, res, times, tr.dt)
    m0 = states.initial_moments(state)
    out = OpResult(rows=len(snaps))
    worst, where = 0.0, ""
    for gt, t, rho in zip(tr.gts, times, snaps):
        o = fock_oracle.moments_from_rho(rho)
        a = evolution.evolve_moments(m0, res, t)
        vx, vy = evolution.quadrature_variances(m0, res, t)
        o_n = o.mean_n
        pairs = {
            "mean_a": (o.mean_a, a.mean_a),
            "mean_a2": (o.mean_a2, a.mean_a2),
            "mean_n": (o_n, a.mean_n),
            "n2_ordered": (o.mean_n2_ordered, a.mean_n2_ordered),
            "mandel_q": ((o.mean_n2_ordered - o_n * o_n) / o_n, evolution.mandel_q(m0, res, t)),
            "var_x": (o.var_x(), vx),
            "var_y": (o.var_y(), vy),
        }
        for name, (got, ref) in pairs.items():
            r = _ratio(got, ref)
            if r > worst:
                worst, where = r, f"{name} at Γt={gt:g}"
    if not worst <= 1.0:
        out.problems.append(f"oracle moments off by {worst:.3g} x tolerance at {where}")

    if not isinstance(state, states.Cat):  # cat densities have no analytic grid
        xs, ys = np.array(tr.xs), np.array(tr.ys)
        got = fock_oracle.quasiprob_grid(snaps[-1], xs, ys, QP_TAU)
        ref = nonclassicality.r_function_grid(
            state, res, times[-1], QP_TAU, xs[None, :] + 1j * ys[:, None]
        )
        worst = float(np.max(np.abs(got - ref) / np.maximum(ORACLE_REL * np.abs(ref), ORACLE_ABS)))
        if not worst <= 1.0:
            out.problems.append(f"quasiprob_grid off by {worst:.3g} x tolerance")
    return out


def oracle_warmup() -> None:
    """Touch every truncation class with a state, reservoir and grid point that
    no pass uses, so that per-dimension set-up is paid before timing."""
    state, res = _parse({"kind": "coherent", "gamma": [0.3, -0.2]}, {"N": 0.5, "M": 0.25})
    for cls in ORACLE_CLASSES:
        rho = fock_oracle.evolve_recording(
            fock_oracle.prepare(state, cls.dim), res, [3 * cls.dt], cls.dt
        )[-1]
        fock_oracle.moments_from_rho(rho)
        fock_oracle.quasiprob_grid(rho, np.array([9.87654]), np.array([-9.87654]), QP_TAU)
    m0 = states.initial_moments(state)
    evolution.evolve_moments(m0, res, 0.1)
    evolution.mandel_q(m0, res, 0.1)
    evolution.quadrature_variances(m0, res, 0.1)
    nonclassicality.r_function_grid(state, res, 0.1, QP_TAU, np.array([0.1 + 0.1j]))


# ---------------------------------------------------------------------------
# config generation shared by evolve_grid and param_sweep


def _amplitude(rng: random.Random, lo: float) -> list[float]:
    r, ph = rng.uniform(lo, 2.0), rng.uniform(0.0, 2.0 * math.pi)
    return [_rnd(r * math.cos(ph)), _rnd(r * math.sin(ph))]


STATE_KINDS = (
    "coherent", "thermal", "squeezed_coherent",
    "photon_added_coherent", "photon_added_thermal", "cat",
)


def random_state(kind: str, rng: random.Random) -> dict:
    """A legal state whose mean photon number is never zero, so that no
    Mandel Q cell degenerates to NA."""
    if kind in ("thermal", "photon_added_thermal"):
        return {"kind": kind, "nbar": _rnd(rng.uniform(0.05, 3.0))}
    doc = {"kind": kind, "gamma": _amplitude(rng, 0.3)}
    if kind == "squeezed_coherent":
        doc["mu"] = _rnd(rng.uniform(-1.0, 1.0))
    elif kind == "cat":
        doc["phi"] = _rnd(rng.uniform(0.0, 2.0 * math.pi - 1e-3))
    return doc


RESERVOIR_KINDS = ("saturated", "mixed", "thermal", "physical")


def random_reservoir(kind: str, rng: random.Random) -> dict:
    """saturated: M^2 = N(N+1); mixed: 0 < |M| < sqrt(N(N+1));
    thermal: M = 0; physical: the (nbar0, r, theta) triple."""
    if kind == "physical":
        return {
            "nbar0": _rnd(rng.uniform(0.0, 1.5)),
            "r": _rnd(rng.uniform(0.0, 1.0)),
            "theta": rng.choice((0.0, math.pi)),
            "gamma": _rnd(rng.uniform(0.5, 2.0)),
        }
    n = _rnd(rng.uniform(0.05, 3.0))
    edge = math.sqrt(n * (n + 1.0))
    sign = rng.choice((-1.0, 1.0))
    if kind == "saturated":
        # rounded towards zero so that M*M never exceeds N(N+1)
        m = sign * math.floor(edge * 1e12) / 1e12
    elif kind == "mixed":
        m = sign * _rnd(edge * rng.uniform(0.05, 0.95))
    else:
        m = 0.0
    return {"N": n, "M": m}


# ---------------------------------------------------------------------------
# evolve_grid and param_sweep: render configs, check sampled CSV cells


@dataclass(frozen=True)
class Render:
    """One config rendered by cmd_evolve; param_sweep adds transition times."""

    doc: dict
    sample: tuple  # CSV row indices whose cells are checked
    transition: bool = False  # also run transition_time and its closed form
    same_as: int | None = None  # re-render of this op index in the pass


def _grid_size(doc: dict) -> int:
    tg = doc["time_grid"]
    return round((tg["stop"] - tg["start"]) / tg["step"]) + 1


EVOLVE_GRID = {"start": 0.0, "stop": 10.0, "step": 1e-3}  # 10 001 rows


def evolve_grid_pass(rng: random.Random) -> list[Render]:
    """Every state family once; reservoirs cover every kind, then repeat."""
    kinds = list(STATE_KINDS)
    rng.shuffle(kinds)
    res_kinds = list(RESERVOIR_KINDS) + rng.sample(RESERVOIR_KINDS, 2)
    rng.shuffle(res_kinds)
    n = _grid_size({"time_grid": EVOLVE_GRID})
    ops = []
    for kind, rkind in zip(kinds, res_kinds):
        doc = {
            "state": random_state(kind, rng),
            "reservoir": random_reservoir(rkind, rng),
            "time_grid": dict(EVOLVE_GRID),
        }
        sample = (0, n - 1) + tuple(sorted(rng.sample(range(1, n - 1), 30)))
        ops.append(Render(doc, sample))
    ops.append(Render(ops[0].doc, ops[0].sample, same_as=0))  # byte determinism
    return ops


SWEEP_CHUNK = 500  # configs per pass


def param_sweep_pass(rng: random.Random) -> list[Render]:
    ops = []
    for _ in range(SWEEP_CHUNK):
        stop = _rnd(rng.uniform(0.5, 5.0))
        doc = {
            "state": random_state(rng.choice(STATE_KINDS), rng),
            "reservoir": random_reservoir(rng.choice(RESERVOIR_KINDS), rng),
            "time_grid": {"start": 0.0, "stop": stop, "step": stop / 20.0},
        }
        ops.append(Render(doc, tuple(sorted(rng.sample(range(21), 2))), transition=True))
    return ops


def render(op: Render):
    """The timed part: parse, render into memory, and for param_sweep the two
    transition-time routes. Returns (config, csv text, numeric, closed form)."""
    cfg = cli.parse_config(op.doc)
    buf = io.StringIO()
    cli.cmd_evolve(cfg, buf)
    numeric = closed = None
    if op.transition:
        try:
            numeric = nonclassicality.transition_time(cfg.state, cfg.reservoir)
        except ImmediateTransition:
            numeric = "immediate"
        closed = nonclassicality.closed_form_transition_time(cfg.state, cfg.reservoir)
    return cfg, buf.getvalue(), numeric, closed


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= CSV_REL * max(abs(ref), 1.0)


def expected_cells(cfg, m0, gt: float) -> list[float | None]:
    """The eight numeric CSV columns at one grid point, from direct calls."""
    res = cfg.reservoir
    t = gt / res.gamma
    mt = _REF.evolve_moments(m0, res, t)
    try:
        q = _REF.mandel_q(m0, res, t)
    except DegenerateDenominator:
        q = None
    vx, vy = _REF.quadrature_variances(m0, res, t)
    prof = _REF.tau_profile(cfg.state, res, t)
    return [mt.mean_a.real, mt.mean_a.imag, mt.mean_n, q, vx, vy, prof.raw, prof.clamped]


def check_csv(cfg, doc: dict, text: str, sample) -> list[str]:
    lines = text.split("\n")
    n = _grid_size(doc)
    if lines[0] != cli.CSV_HEADER or len(lines) != n + 2 or lines[-1] != "":
        return [f"CSV shape: header ok={lines[0] == cli.CSV_HEADER}, {len(lines) - 2} rows, want {n}"]
    tg = doc["time_grid"]
    m0 = _REF.initial_moments(cfg.state)
    problems = []
    for i in sample:
        cells = lines[i + 1].split(",")
        gt = tg["start"] + tg["step"] * i
        want = [gt] + expected_cells(cfg, m0, gt)
        if len(cells) != len(want):
            problems.append(f"row {i}: {len(cells)} cells")
            continue
        for col, cell, ref in zip(CSV_COLUMNS, cells, want):
            ok = cell == cli.NA if ref is None else cell != cli.NA and _close(float(cell), ref)
            if not ok:
                problems.append(f"row {i} {col}: {cell} != {ref!r}")
    return problems


def check_transition(numeric, closed, gamma: float) -> str | None:
    """numeric is a time, None or "immediate"; closed is a time or None."""
    numeric_none = numeric is None or numeric == "immediate"
    if numeric_none and closed is None:
        return None
    if numeric_none or closed is None:
        return f"transition_time {numeric!r} vs closed form {closed!r}"
    if abs(gamma * (numeric - closed)) > TT_ABS:
        return f"transition_time Γt {gamma * numeric!r} vs closed form {gamma * closed!r}"
    return None


def check_render(op: Render, result, texts: list[str]) -> OpResult:
    cfg, text, numeric, closed = result
    out = OpResult(rows=_grid_size(op.doc), problems=check_csv(cfg, op.doc, text, op.sample))
    if op.same_as is not None and text != texts[op.same_as]:
        out.problems.append(f"re-render of op {op.same_as} gave different bytes")
    if op.transition:
        bad = check_transition(numeric, closed, cfg.reservoir.gamma)
        if bad:
            out.problems.append(bad)
    texts.append(text)
    return out


def render_warmup(n_rows: int) -> None:
    """Every family and the transition routes on inputs no pass draws."""
    for kind in STATE_KINDS:
        state = random_state(kind, random.Random(f"warm-up:{kind}"))
        op = Render(
            {"state": state, "reservoir": {"N": 0.7, "M": -0.4},
             "time_grid": {"start": 0.0, "stop": 0.5, "step": 0.5 / (n_rows - 1)}},
            (0,), transition=True,
        )
        check_render(op, render(op), [])
