"""Command-line interface.

Subcommands
-----------
evolve           time-series CSV of means, Mandel Q, variances, and depth
transition-time  zero crossing of the raw depth profile
figures          the two reference SVG charts
validate         analytic layer vs Fock-space oracle on a time grid

Configs are JSON documents; every numeric column in the CSV is rendered
with 17 significant digits so identical configs give identical bytes.
Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from . import fock_oracle
from .errors import (
    ConfigError,
    DegenerateDenominator,
    ImmediateTransition,
    SeriesDiverges,
    SingularSmoothing,
    TraceDriftExceeded,
    TruncationTooSmall,
)
from .evolution import evolve_moments, evolved_means, mandel_q, quadrature_variances
from .nonclassicality import closed_form_transition_time, tau_profile, transition_time
from .plotting import write_figures
from .reservoir import PhysicalReservoirSpec, ReservoirParams, from_physical
from .states import StateSpec, initial_moments

CSV_HEADER = (
    "gamma_t,re_mean_a,im_mean_a,n_mean,mandel_q,var_x,var_y,tau_m_raw,tau_m"
)
NA = "NA"
ALL_OUTPUTS = frozenset({"moments", "mandel_q", "variances", "tau_m"})

# validate tolerances: relative with an absolute floor
VAL_REL = 1e-6
VAL_ABS = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Evaluation grid in scaled time Γt."""

    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        if self.start < 0.0:
            raise ConfigError(f"time_grid.start must be >= 0, got {self.start}")
        if self.step <= 0.0:
            raise ConfigError(f"time_grid.step must be > 0, got {self.step}")
        if self.stop <= self.start:
            raise ConfigError("time_grid.stop must exceed time_grid.start")

    def points(self) -> np.ndarray:
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9))
        return self.start + self.step * np.arange(n + 1)


@dataclass(frozen=True)
class OracleConfig:
    enabled: bool = False
    dim: int = fock_oracle.DEFAULT_DIM
    dt: float | None = None


@dataclass(frozen=True)
class RunConfig:
    state: StateSpec
    reservoir: ReservoirParams
    time_grid: TimeGrid
    outputs: frozenset = ALL_OUTPUTS
    oracle: OracleConfig = field(default_factory=OracleConfig)


# ---------------------------------------------------------------------------
# config parsing


def _num(obj: dict, key: str, where: str, default=None) -> float:
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"{where}: missing required field '{key}'")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


def _complex_field(obj: dict, key: str, where: str) -> complex:
    if key not in obj:
        raise ConfigError(f"{where}: missing required field '{key}'")
    v = obj[key]
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v, 0.0)
    if (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in v)
    ):
        return complex(v[0], v[1])
    raise ConfigError(f"{where}.{key}: expected a number or [re, im], got {v!r}")


# config kind -> (class, fields, field types): a family's config keys are
# the fields of its dataclass
_STATE_KINDS = {
    cls.kind: (cls, fields(cls), get_type_hints(cls)) for cls in get_args(StateSpec)
}


def parse_state(obj) -> StateSpec:
    if not isinstance(obj, dict):
        raise ConfigError("state: expected an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _STATE_KINDS:
        raise ConfigError(f"state.kind: unknown kind {kind!r}")
    cls, cls_fields, types = _STATE_KINDS[kind]
    args = {}
    for f in cls_fields:
        if f.name in obj or f.default is MISSING:
            read = _complex_field if types[f.name] is complex else _num
            args[f.name] = read(obj, f.name, "state")
    return cls(**args)


def parse_reservoir(obj) -> ReservoirParams:
    if not isinstance(obj, dict):
        raise ConfigError("reservoir: expected an object")
    gamma = _num(obj, "gamma", "reservoir", default=1.0)
    if "N" in obj or "M" in obj:
        return ReservoirParams(
            N=_num(obj, "N", "reservoir"),
            M=_num(obj, "M", "reservoir"),
            gamma=gamma,
        )
    spec = PhysicalReservoirSpec(
        nbar0=_num(obj, "nbar0", "reservoir"),
        r=_num(obj, "r", "reservoir"),
        theta=_num(obj, "theta", "reservoir", default=math.pi),
    )
    return from_physical(spec, gamma=gamma)


def parse_config(doc, *, need_grid: bool = True) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    if "state" not in doc:
        raise ConfigError("config: missing required field 'state'")
    if "reservoir" not in doc:
        raise ConfigError("config: missing required field 'reservoir'")
    state = parse_state(doc["state"])
    reservoir = parse_reservoir(doc["reservoir"])

    if "time_grid" in doc:
        tg_obj = doc["time_grid"]
        if not isinstance(tg_obj, dict):
            raise ConfigError("time_grid: expected an object")
        grid = TimeGrid(
            start=_num(tg_obj, "start", "time_grid"),
            stop=_num(tg_obj, "stop", "time_grid"),
            step=_num(tg_obj, "step", "time_grid"),
        )
    elif need_grid:
        raise ConfigError("config: missing required field 'time_grid'")
    else:
        grid = TimeGrid(0.0, 1.0, 1.0)

    outputs = ALL_OUTPUTS
    if "outputs" in doc:
        raw = doc["outputs"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("outputs: expected a nonempty list")
        bad = set(raw) - ALL_OUTPUTS
        if bad:
            raise ConfigError(f"outputs: unknown entries {sorted(bad)}")
        outputs = frozenset(raw)

    oracle = OracleConfig()
    if "oracle" in doc:
        ob = doc["oracle"]
        if not isinstance(ob, dict):
            raise ConfigError("oracle: expected an object")
        enabled = ob.get("enabled", False)
        if not isinstance(enabled, bool):
            raise ConfigError("oracle.enabled: expected true/false")
        dim = ob.get("dim", fock_oracle.DEFAULT_DIM)
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
            raise ConfigError(f"oracle.dim: expected an integer >= 2, got {dim!r}")
        dt = None
        if ob.get("dt") is not None:
            dt = _num(ob, "dt", "oracle")
            if dt <= 0.0:
                raise ConfigError(f"oracle.dt: must be > 0, got {dt}")
        oracle = OracleConfig(enabled=enabled, dim=dim, dt=dt)

    return RunConfig(
        state=state,
        reservoir=reservoir,
        time_grid=grid,
        outputs=outputs,
        oracle=oracle,
    )


def load_config(path: str, *, need_grid: bool = True) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return parse_config(doc, need_grid=need_grid)


# ---------------------------------------------------------------------------
# evolve


def _f(x: float) -> str:
    # + 0.0 folds negative zero into positive zero so equal values always
    # render to equal bytes
    return f"{x + 0.0:.16e}"


_CELL = "%.16e"  # the bytes of _f for a value that already had + 0.0


def csv_lines(cfg: RunConfig) -> Iterator[str]:
    """The CSV's data lines, each ending in a newline.

    Each observable is evaluated once, on the whole time grid; a line is
    one % template filled from the columns, with NA in the cells that
    ``outputs`` switches off and in the Mandel Q cells where the mean
    photon number is zero.
    """
    state, res, outputs = cfg.state, cfg.reservoir, cfg.outputs
    m0 = initial_moments(state)
    gts = cfg.time_grid.points()
    t = gts / res.gamma
    cells: list[str] = []
    columns: list[list] = []

    def numeric(*arrays) -> None:
        cells.extend([_CELL] * len(arrays))
        columns.extend((a + 0.0).tolist() for a in arrays)  # + 0.0 as in _f

    def absent(n: int) -> None:
        cells.extend([NA] * n)

    numeric(gts)

    if "moments" in outputs:
        mean_a, mean_n = evolved_means(m0, res, t)
        numeric(mean_a.real, mean_a.imag, mean_n)
    else:
        absent(3)

    if "mandel_q" in outputs:
        # NaN marks the times where the mean photon number is zero
        q = mandel_q(m0, res, t).tolist()
        cells.append("%s")
        columns.append([NA if x != x else _f(x) for x in q])
    else:
        absent(1)

    if "variances" in outputs:
        numeric(*quadrature_variances(m0, res, t))
    else:
        absent(2)

    if "tau_m" in outputs:
        prof = tau_profile(state, res, t)
        numeric(prof.raw, prof.clamped)
    else:
        absent(2)

    template = ",".join(cells) + "\n"
    return (template % row for row in zip(*columns))


def cmd_evolve(cfg: RunConfig, out) -> int:
    out.write(CSV_HEADER + "\n")
    out.writelines(csv_lines(cfg))
    return 0


# ---------------------------------------------------------------------------
# transition-time


def cmd_transition_time(cfg: RunConfig, out) -> int:
    try:
        t_cross = transition_time(cfg.state, cfg.reservoir)
    except ImmediateTransition:
        out.write("immediate\n")
        return 0
    if t_cross is None:
        out.write("none\n")
        return 0
    gt = cfg.reservoir.gamma * t_cross
    line = f"transition gamma_t = {gt:.10g}"
    t_closed = closed_form_transition_time(cfg.state, cfg.reservoir)
    if t_closed is not None:
        gtc = cfg.reservoir.gamma * t_closed
        line += f" (closed form {gtc:.10g}, |delta| = {abs(gt - gtc):.3g})"
    out.write(line + "\n")
    return 0


# ---------------------------------------------------------------------------
# validate


def _validate_targets(cfg: RunConfig) -> list[tuple[str, float, float]]:
    """Per-quantity (name, max_abs, max_rel) deviations over the grid."""
    state, res, oracle = cfg.state, cfg.reservoir, cfg.oracle
    gts = cfg.time_grid.points()
    times = [gt / res.gamma for gt in gts]
    m0 = initial_moments(state)

    rho0 = fock_oracle.prepare(state, oracle.dim)
    snaps = fock_oracle.evolve_recording(rho0, res, times, oracle.dt)

    worst: dict[str, tuple[float, float]] = {}

    def record(name: str, got: complex, ref: complex) -> None:
        err = abs(got - ref)
        rel = err / max(abs(ref), VAL_ABS / VAL_REL)
        prev = worst.get(name, (0.0, 0.0))
        worst[name] = (max(prev[0], err), max(prev[1], rel))

    for t, rho in zip(times, snaps):
        a_mt = evolve_moments(m0, res, t)
        o_mt = fock_oracle.moments_from_rho(rho)
        record("mean_a", o_mt.mean_a, a_mt.mean_a)
        record("mean_a2", o_mt.mean_a2, a_mt.mean_a2)
        record("mean_n", o_mt.mean_n, a_mt.mean_n)
        record("n2_ordered", o_mt.mean_n2_ordered, a_mt.mean_n2_ordered)
        try:
            q_ref = mandel_q(m0, res, t)
        except DegenerateDenominator:
            q_ref = None
        if q_ref is not None:
            o_n = o_mt.mean_n
            q_got = (o_mt.mean_n2_ordered - o_n * o_n) / o_n if o_n > 0 else None
            if q_got is not None:
                record("mandel_q", q_got, q_ref)
        vx, vy = quadrature_variances(m0, res, t)
        record("var_x", o_mt.var_x(), vx)
        record("var_y", o_mt.var_y(), vy)

    return [(name, w[0], w[1]) for name, w in sorted(worst.items())]


def cmd_validate(cfg: RunConfig, out) -> int:
    if not cfg.oracle.enabled:
        raise ConfigError("validate requires the oracle (enable it in the "
                          "config or pass --oracle)")
    rows = _validate_targets(cfg)
    failed = False
    for name, max_abs, max_rel in rows:
        ok = max_abs <= VAL_ABS or max_rel <= VAL_REL
        failed = failed or not ok
        verdict = "PASS" if ok else "FAIL"
        out.write(
            f"{name:<12} max_abs={max_abs:.3e} max_rel={max_rel:.3e} {verdict}\n"
        )
    out.write(("FAIL" if failed else "PASS") + "\n")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sqbath",
        description="cavity mode in a squeezed thermal reservoir: exact "
        "evolution, nonclassical depth, and oracle validation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("evolve", help="write a time-series CSV")
    pe.add_argument("--config", required=True, help="JSON config path")
    pe.add_argument("--out", help="output CSV path (default stdout)")

    pt = sub.add_parser("transition-time", help="report the depth zero crossing")
    pt.add_argument("--config", required=True, help="JSON config path")

    pf = sub.add_parser("figures", help="write the two reference SVG charts")
    pf.add_argument("--out", required=True, help="output directory")

    pv = sub.add_parser("validate", help="compare analytics against the oracle")
    pv.add_argument("--config", required=True, help="JSON config path")
    pv.add_argument("--oracle", action="store_true",
                    help="force-enable the oracle")
    pv.add_argument("--dim", type=int, help="override truncation dimension")
    pv.add_argument("--dt", type=float, help="override integrator step")
    return p


def _run(args) -> int:
    if args.command == "evolve":
        cfg = load_config(args.config)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                return cmd_evolve(cfg, fh)
        return cmd_evolve(cfg, sys.stdout)

    if args.command == "transition-time":
        cfg = load_config(args.config, need_grid=False)
        return cmd_transition_time(cfg, sys.stdout)

    if args.command == "figures":
        for path in write_figures(args.out):
            sys.stdout.write(path + "\n")
        return 0

    if args.command == "validate":
        cfg = load_config(args.config)
        oracle = cfg.oracle
        if args.oracle:
            oracle = replace(oracle, enabled=True)
        if args.dim is not None:
            if args.dim < 2:
                raise ConfigError(f"--dim must be >= 2, got {args.dim}")
            oracle = replace(oracle, dim=args.dim)
        if args.dt is not None:
            if args.dt <= 0.0:
                raise ConfigError(f"--dt must be > 0, got {args.dt}")
            oracle = replace(oracle, dt=args.dt)
        return cmd_validate(replace(cfg, oracle=oracle), sys.stdout)

    raise ConfigError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        DegenerateDenominator,
        SingularSmoothing,
        SeriesDiverges,
        TruncationTooSmall,
        TraceDriftExceeded,
    ) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
