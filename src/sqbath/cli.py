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
from dataclasses import MISSING, dataclass, fields
from functools import cache
from typing import get_args, get_type_hints

import numpy as np

from . import fock_oracle
from .elementwise import E16_WIDTH, format_e16
from .errors import (
    ConfigError,
    DegenerateDenominator,
    ImmediateTransition,
    NonFiniteResult,
    SqbathError,
)
from .evolution import evolve_moments, evolved_means, mandel_q, quadrature_variances
from .nonclassicality import closed_form_transition_time, tau_profile, transition_time
from .plotting import write_figures
from .reservoir import (
    PhysicalReservoirSpec,
    ReservoirParams,
    from_physical,
    noise_envelope,
)
from .states import StateSpec, initial_moments

CSV_HEADER = (
    "gamma_t,re_mean_a,im_mean_a,n_mean,mandel_q,var_x,var_y,tau_m_raw,tau_m"
)
CSV_COLUMNS = CSV_HEADER.split(",")
NA = "NA"
_NA_SLOT = np.frombuffer(NA.encode().ljust(E16_WIDTH, b"\0"), dtype=np.uint8)
_BLOCK_ROWS = 1024  # CSV lines per block of text
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
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ConfigError("time_grid: the number of rows is not finite")

    def points(self) -> np.ndarray:
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9))
        return self.start + self.step * np.arange(n + 1)


@dataclass(frozen=True)
class RunConfig:
    state: StateSpec
    reservoir: ReservoirParams
    time_grid: TimeGrid
    outputs: frozenset[str] = ALL_OUTPUTS

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ConfigError("outputs: expected a nonempty list")
        bad = self.outputs - ALL_OUTPUTS
        if bad:
            raise ConfigError(f"outputs: unknown entries {sorted(bad)}")


# ---------------------------------------------------------------------------
# config parsing
#
# A section is read into its dataclass: the fields are the section's keys,
# a field default makes a key optional, the field type picks the reader
# below, and the class's __post_init__ checks the ranges.  ``where`` is the
# dotted path of the value in the document, for the error messages.


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer literal past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {v!r}")
    return x


def _complex(v, where: str) -> complex:
    if isinstance(v, list) and len(v) == 2:
        return complex(_number(v[0], f"{where}[0]"), _number(v[1], f"{where}[1]"))
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(_number(v, where), 0.0)
    raise ConfigError(f"{where}: expected a number or [re, im], got {v!r}")


def _names(v, where: str) -> frozenset[str]:
    if not isinstance(v, list) or not all(isinstance(s, str) for s in v):
        raise ConfigError(f"{where}: expected a list of strings, got {v!r}")
    return frozenset(v)


def _object(v, where: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{where or 'config root'}: expected an object")
    return v


@cache
def _section(cls):
    """Reader of one dataclass section; type hints are resolved once."""
    hints = get_type_hints(cls)
    keys = [(f.name, f.default is MISSING, _reader(hints[f.name])) for f in fields(cls)]

    def read(obj, where: str):
        obj = _object(obj, where)
        args = {}
        for name, required, read_value in keys:
            if name in obj:
                args[name] = read_value(obj[name], f"{where}.{name}" if where else name)
            elif required:
                raise ConfigError(f"{where or 'config'}: missing required field '{name}'")
        return cls(**args)

    return read


def _kinds(classes):
    """Reader of a section that names its dataclass by a ``kind`` key."""
    by_kind = {cls.kind: _section(cls) for cls in classes}

    def read(obj, where: str):
        kind = _object(obj, where).get("kind")
        if not isinstance(kind, str) or kind not in by_kind:
            raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
        return by_kind[kind](obj, where)

    return read


def _reservoir(obj, where: str) -> ReservoirParams:
    # (N, M) keys give the effective reservoir, otherwise the physical one
    if "N" in _object(obj, where) or "M" in obj:
        return _section(ReservoirParams)(obj, where)
    return from_physical(_section(PhysicalReservoirSpec)(obj, where))


# the field types whose reader is not derived from the type itself
_READERS = {
    float: _number,
    complex: _complex,
    frozenset[str]: _names,
    ReservoirParams: _reservoir,
}


@cache
def _reader(tp):
    if tp in _READERS:
        return _READERS[tp]
    args = get_args(tp)
    if args:
        return _kinds(args)
    return _section(tp)


def parse_state(obj) -> StateSpec:
    return _reader(StateSpec)(obj, "state")


def parse_reservoir(obj) -> ReservoirParams:
    return _reservoir(obj, "reservoir")


# stands in for the grid of a config that needs none (transition-time)
_NO_GRID = {"start": 0.0, "stop": 1.0, "step": 1.0}


def parse_config(doc, *, need_grid: bool = True) -> RunConfig:
    if not need_grid and isinstance(doc, dict) and "time_grid" not in doc:
        doc = {**doc, "time_grid": _NO_GRID}
    return _section(RunConfig)(doc, "")


def load_config(path: str, *, need_grid: bool = True) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer literal past Python's digit limit, or
        # nesting deeper than the decoder's recursion limit
        raise ConfigError(f"{path}: unreadable JSON: {exc}")
    return parse_config(doc, need_grid=need_grid)


# ---------------------------------------------------------------------------
# evolve


def csv_blocks(cfg: RunConfig) -> Iterator[str]:
    """The CSV's data lines, each ending in a newline, in blocks of up to
    _BLOCK_ROWS lines.

    Each observable is evaluated once, on the whole time grid, from one
    noise envelope. Every numeric cell has the bytes of
    "%.16e" % (x + 0.0), written by ``format_e16`` into a fixed slot of
    one byte buffer; a block is a run of its rows with the NUL padding of
    the slots stripped. NA fills the cells that ``outputs`` switches off
    and the Mandel Q cells where the mean photon number is zero. Raises
    NonFiniteResult, naming the column and the first Gamma t, where any
    other cell is not finite; it does so before returning, so that
    nothing is written for a failed render.
    """
    state, res, outputs = cfg.state, cfg.reservoir, cfg.outputs
    gts = cfg.time_grid.points()
    values = np.zeros((len(gts), len(CSV_COLUMNS)))
    na = np.zeros(values.shape, dtype=bool)
    values[:, 0] = gts
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        m0 = initial_moments(state)
        env = noise_envelope(res, gts / res.gamma)
        if "moments" in outputs:
            mean_a, values[:, 3] = evolved_means(m0, res, env)
            values[:, 1], values[:, 2] = mean_a.real, mean_a.imag
        else:
            na[:, 1:4] = True
        if "mandel_q" in outputs:
            # NaN marks the times where the mean photon number is zero
            values[:, 4] = mandel_q(m0, res, env)
            na[:, 4] = np.isnan(values[:, 4])
        else:
            na[:, 4] = True
        if "variances" in outputs:
            values[:, 5], values[:, 6] = quadrature_variances(m0, res, env)
        else:
            na[:, 5:7] = True
        if "tau_m" in outputs:
            prof = tau_profile(state, res, env)
            values[:, 7], values[:, 8] = prof.raw, prof.clamped
        else:
            na[:, 7:9] = True

    bad = np.flatnonzero(~(np.isfinite(values) | na))
    if len(bad):
        row, col = divmod(int(bad[0]), values.shape[1])
        raise NonFiniteResult(
            f"{CSV_COLUMNS[col]} is {values[row, col]} at gamma_t = {float(gts[row])!r}"
        )
    values[na] = 0.0

    # one slot per cell, then its separator
    buf = np.zeros(values.shape + (E16_WIDTH + 1,), dtype=np.uint8)
    buf[:, :, -1] = ord(",")
    buf[:, -1, -1] = ord("\n")
    slots = buf.reshape(-1, E16_WIDTH + 1)[:, :E16_WIDTH]
    format_e16(values.ravel(), slots)
    slots[na.ravel()] = _NA_SLOT
    # blocks rather than one string: a whole 10 001-row text would be
    # copied twice more on its way to the output
    return (
        str(buf[i:i + _BLOCK_ROWS].data, "ascii").replace("\0", "")
        for i in range(0, len(buf), _BLOCK_ROWS)
    )


def cmd_evolve(cfg: RunConfig, out) -> int:
    blocks = csv_blocks(cfg)
    out.write(CSV_HEADER + "\n")
    out.writelines(blocks)
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


def cmd_validate(cfg: RunConfig, out) -> int:
    """Worst deviation of each oracle moment from the analytic layer's."""
    res = cfg.reservoir
    times = [gt / res.gamma for gt in cfg.time_grid.points()]
    dim, snaps = fock_oracle.evolve_truncated(cfg.state, res, times)
    m0 = initial_moments(cfg.state)

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
        o_n = o_mt.mean_n
        if o_n > 0:
            try:
                record("mandel_q", (o_mt.mean_n2_ordered - o_n * o_n) / o_n, mandel_q(m0, res, t))
            except DegenerateDenominator:  # the analytic mean photon number is 0
                pass
        vx, vy = quadrature_variances(m0, res, t)
        record("var_x", o_mt.var_x(), vx)
        record("var_y", o_mt.var_y(), vy)

    top = max(map(fock_oracle.top_tenth_population, snaps))
    out.write(f"oracle dim={dim} top_tenth_max={top:.1e}\n")
    failed = False
    for name, (max_abs, max_rel) in sorted(worst.items()):
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
        return cmd_validate(load_config(args.config), sys.stdout)

    raise ConfigError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SqbathError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # overflow inside the analytic layer
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
