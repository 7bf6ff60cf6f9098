"""In-memory span tracer for the traced run, and the per-layer metrics
derived from its spans.

The tracer wraps names as the calling module binds them (``cli`` binds
``evolve_moments`` itself, so ``cli.evolve_moments`` is wrapped, not only
``evolution.evolve_moments``). Each call becomes a span ``[name, start, end,
parent, op, error]``; spans of one op share the op's index. A span's self
time is its duration minus the durations of its direct children, which
cover disjoint parts of it because everything runs on one thread.
"""
from __future__ import annotations

import gzip
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

from sqbath import cli, evolution, fock_oracle, nonclassicality, states
from sqbath.errors import ImmediateTransition

LAYERS = ("cli", "states", "evolution", "nonclassicality", "fock_oracle")
# (module, attribute, span name). The span is named after the layer that
# defines the function, whichever module binds it.
WRAPPED = (
    (cli, "parse_config", "cli.parse_config"),
    (cli, "cmd_evolve", "cli.cmd_evolve"),
    (cli, "initial_moments", "states.initial_moments"),
    (cli, "evolve_moments", "evolution.evolve_moments"),
    (cli, "mandel_q", "evolution.mandel_q"),
    (cli, "quadrature_variances", "evolution.quadrature_variances"),
    (cli, "tau_profile", "nonclassicality.tau_profile"),
    (states, "initial_moments", "states.initial_moments"),
    (evolution, "evolve_moments", "evolution.evolve_moments"),
    (evolution, "mandel_q", "evolution.mandel_q"),
    (evolution, "quadrature_variances", "evolution.quadrature_variances"),
    (nonclassicality, "transition_time", "nonclassicality.transition_time"),
    (nonclassicality, "closed_form_transition_time",
     "nonclassicality.closed_form_transition_time"),
    (nonclassicality, "r_function_grid", "nonclassicality.r_function_grid"),
    (fock_oracle, "prepare", "fock_oracle.prepare"),
    (fock_oracle, "evolve_recording", "fock_oracle.evolve_recording"),
    (fock_oracle, "moments_from_rho", "fock_oracle.moments_from_rho"),
    (fock_oracle, "quasiprob_grid", "fock_oracle.quasiprob_grid"),
)
# Exceptions that report a result rather than a failure: the CLI prints
# "immediate" for this one.
OUTCOMES = (ImmediateTransition,)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _traced(self, fn, name: str):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            except OUTCOMES:
                raise
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                self._close(span)

        return traced

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._traced(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextmanager
    def op_span(self, name: str, op: int):
        """Root span of one timed op; the spans inside it carry its index."""
        self.op = op
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self.op = -1

    def write(self, path: str, t0: float) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op, error in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, op, error]) + "\n")


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


DIMS = (64, 80, 128, 256)  # the oracle_check truncation classes
SELF_TIMED = (
    "evolution.evolve_moments",
    "evolution.mandel_q",
    "evolution.quadrature_variances",
    "nonclassicality.tau_profile",
    "cli.cmd_evolve",
)
_ORACLE = (
    ("evolve_recording.s_per_gt", "s"),
    ("prepare.ms", "ms"),
    ("moments_from_rho.us", "us"),
    ("quasiprob_grid.ms", "ms"),
)
# Every per-layer metric of a traced run, with its unit, in print order.
PER_LAYER = (
    [(f"fock_oracle.{m}.dim{d}", u) for m, u in _ORACLE for d in DIMS]
    + [("nonclassicality.r_function_grid.ms", "ms"),
       ("evolution.evolve_moments.calls", "count")]
    + [(f"{n}.self_s", "s") for n in SELF_TIMED]
    + [("nonclassicality.transition_time.calls", "count"),
       ("nonclassicality.transition_time.ms_p50", "ms"),
       ("nonclassicality.closed_form_transition_time.us_p50", "us"),
       ("cli.parse_config.us_p50", "us"),
       ("states.initial_moments.us_p50", "us")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace_overhead_s", "s"),
       ("fock_oracle.criterion3_fixture_s.computed", "s")]
)


def per_layer(spans: list[list], op_dim: dict[int, int], op_gt: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without the last two of
    PER_LAYER, which need the untraced run).

    op_dim and op_gt give each oracle trajectory's truncation dimension and
    the Γt it integrates over. Self times and calls are totals over the
    pass. A layer the pass never calls reads 0.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op, _error in spans:
        if parent >= 0:
            child[parent] += end - start
    durs: dict[str, list[tuple[float, int]]] = {}
    self_s: dict[str, float] = {}
    errors = dict.fromkeys(LAYERS, 0)
    for i, (name, start, end, _parent, op, error) in enumerate(spans):
        durs.setdefault(name, []).append((end - start, op))
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        if error is not None and name.split(".")[0] in errors:
            errors[name.split(".")[0]] += 1

    def med(name: str, scale: float, dim: int | None = None) -> float:
        return _median([d * scale for d, op in durs.get(name, [])
                        if dim is None or op_dim.get(op) == dim])

    m: dict[str, float] = {}
    for dim in DIMS:
        m[f"fock_oracle.evolve_recording.s_per_gt.dim{dim}"] = _median(
            [d / op_gt[op] for d, op in durs.get("fock_oracle.evolve_recording", [])
             if op_dim.get(op) == dim]
        )
        m[f"fock_oracle.prepare.ms.dim{dim}"] = med("fock_oracle.prepare", 1e3, dim)
        m[f"fock_oracle.moments_from_rho.us.dim{dim}"] = med("fock_oracle.moments_from_rho", 1e6, dim)
        m[f"fock_oracle.quasiprob_grid.ms.dim{dim}"] = med("fock_oracle.quasiprob_grid", 1e3, dim)
    m["nonclassicality.r_function_grid.ms"] = med("nonclassicality.r_function_grid", 1e3)
    m["evolution.evolve_moments.calls"] = len(durs.get("evolution.evolve_moments", []))
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["nonclassicality.transition_time.calls"] = len(durs.get("nonclassicality.transition_time", []))
    m["nonclassicality.transition_time.ms_p50"] = med("nonclassicality.transition_time", 1e3)
    m["nonclassicality.closed_form_transition_time.us_p50"] = med(
        "nonclassicality.closed_form_transition_time", 1e6)
    m["cli.parse_config.us_p50"] = med("cli.parse_config", 1e6)
    m["states.initial_moments.us_p50"] = med("states.initial_moments", 1e6)
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
    return m
