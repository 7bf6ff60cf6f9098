"""sqbath benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory. Workloads (see RATIONALE.md for why each was chosen):

  oracle_check  Fock-space oracle trajectories cross-checked against the
                analytic layer, one row of each truncation class of the
                oracle test fixture
  evolve_grid   ``cmd_evolve`` on a 10 001-row grid, every state family
  param_sweep   a stream of random legal configs, each parsed, rendered on
                21 points and put through both transition-time routes

One caller runs one op at a time (closed loop, one client). A run measures
whole passes of fresh seeded inputs until the next would end after
``--seconds`` (at least one). oracle_check always runs exactly one pass: the
oracle caches displacement matrices per grid point, so more passes would
grow memory with the speed of the code.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of one further, traced pass with
``--trace 1``. A full report, with the environment stamp and any failing
inputs, goes to ``perfbench/out/``.
"""
from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3  # this process plus two fresh interpreters that only set up


sys.path.insert(0, SRC)
try:
    import sqbath
    import spans
    import workloads as w
except ImportError as exc:  # main() reports it and exits with code 2
    MISSING = str(exc)
else:
    MISSING = None if os.path.abspath(sqbath.__file__).startswith(SRC + os.sep) else (
        f"sqbath imported from {sqbath.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    make_pass: Callable  # random.Random -> list of inputs
    timed: Callable  # input -> result; the only timed part of an op
    check: Callable  # (input, result, earlier texts) -> OpResult
    warmup: Callable
    op_name: str
    max_passes: int | None


def workload_table() -> dict[str, Workload]:
    def own(_inp, result, _texts):
        return result

    return {
        "oracle_check": Workload(w.oracle_pass, w.run_trajectory, own,
                                 w.oracle_warmup, "bench.trajectory", 1),
        "evolve_grid": Workload(w.evolve_grid_pass, w.render, w.check_render,
                                lambda: w.render_warmup(101), "bench.render", None),
        "param_sweep": Workload(w.param_sweep_pass, w.render, w.check_render,
                                lambda: w.render_warmup(21), "bench.config", None),
    }


def pass_rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


@dataclass
class Op:
    seconds: float
    rows: int
    failed: bool


def run_pass(wl: Workload, inputs, failures: list, where: str, tracer=None, op_base: int = 0) -> list[Op]:
    ops, texts = [], []
    for i, inp in enumerate(inputs):
        t0 = perf_counter()
        try:
            if tracer is None:
                result = wl.timed(inp)
            else:
                with tracer.op_span(wl.op_name, op_base + i):
                    result = wl.timed(inp)
            seconds = perf_counter() - t0
            out = wl.check(inp, result, texts)
        except Exception as exc:  # an op that raises is a failed op; keep going
            seconds = perf_counter() - t0
            out = w.OpResult(rows=0, problems=[f"raised {type(exc).__name__}: {exc}"])
            texts.append(None)
        if out.problems:
            label = getattr(inp, "label", None) or getattr(inp, "doc", None)
            failures.append({"where": f"{where} op {i}", "input": label, "problems": out.problems[:5]})
        ops.append(Op(seconds, out.rows, bool(out.problems)))
    return ops


def measure(name: str, wl: Workload, seed: int, seconds: float, first, failures: list):
    """Untraced passes of fresh inputs; returns per-pass op lists."""
    passes, inputs, t0 = [], first, perf_counter()
    while True:
        passes.append(run_pass(wl, inputs, failures, f"pass {len(passes)}"))
        elapsed = perf_counter() - t0
        if wl.max_passes is not None and len(passes) >= wl.max_passes:
            return passes
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes
        inputs = wl.make_pass(pass_rng(name, seed, len(passes)))


def _pct(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


# Every end-to-end metric of an untraced run, with its unit, in print order.
# An op is one trajectory (oracle_check), one config render (evolve_grid) or
# one config (param_sweep); a row is a CSV row or, for oracle_check, a
# checked snapshot.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rows_per_s", "1/s"),
    ("configs_per_s", "1/s"),
    ("config_ms_p50", "ms"),
    ("config_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
)


def end_to_end(passes: list[list[Op]]) -> tuple[dict, dict]:
    """Timing metrics over the measured passes, and report-only extras."""
    ops = [op for p in passes for op in p]
    busy = sum(op.seconds for op in ops)
    times = sorted(op.seconds for op in ops)
    metrics = {
        "wall_s": statistics.median(sum(op.seconds for op in p) for p in passes),
        "rows_per_s": sum(op.rows for op in ops) / busy,
        "configs_per_s": len(ops) / busy,
        "config_ms_p50": statistics.median(times) * 1e3,
        "config_ms_p99": _pct(times, 0.99) * 1e3,
    }
    extra = {
        "ops": len(ops),
        "passes": len(passes),
        "failed_frac": sum(op.failed for op in ops) / len(ops),
        "config_ms_p99_samples_beyond": len(ops) - math.ceil(0.99 * len(ops)),
        "traj_s_max": times[-1],
    }
    return metrics, extra


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup_in_fresh_interpreter(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# environment stamp


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads() -> dict:
    """Threads in effect for each loaded OpenBLAS, asked through ctypes;
    threadpoolctl does the same when it is installed."""
    import ctypes

    libs = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        pass
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sqbath")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(),
    }


# ---------------------------------------------------------------------------


def projected_fixture_s(m: dict) -> float:
    """Criterion 3's oracle fixture time, computed (not measured) from the
    per-dimension rates: each fixture row integrates 2.0 Γt, is prepared
    once and has its moments read at 21 snapshots."""
    total = 0.0
    for cls in w.ORACLE_CLASSES[:3]:  # the dim-256 probe is not a fixture row
        per_row = (2.0 * m[f"fock_oracle.evolve_recording.s_per_gt.dim{cls.dim}"]
                   + m[f"fock_oracle.prepare.ms.dim{cls.dim}"] / 1e3
                   + 21 * m[f"fock_oracle.moments_from_rho.us.dim{cls.dim}"] / 1e6)
        total += len(cls.rows) * per_row
    return total


def traced_pass(name: str, wl: Workload, seed: int, index: int, failures: list):
    inputs = wl.make_pass(pass_rng(name, seed, index))
    tracer = spans.Tracer()
    tracer.install()
    t0 = perf_counter()
    try:
        ops = run_pass(wl, inputs, failures, "traced pass", tracer)
    finally:
        tracer.uninstall()
    dims = {i: inp.dim for i, inp in enumerate(inputs) if isinstance(inp, w.Trajectory)}
    gts = {i: inp.gt_end for i, inp in enumerate(inputs) if isinstance(inp, w.Trajectory)}
    metrics = spans.per_layer(tracer.spans, dims, gts)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl.gz"), t0)
    return ops, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if MISSING is not None:
        print(f"error: cannot import the program: {MISSING}", file=sys.stderr)
        return 2
    table = workload_table()
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]
    first = wl.make_pass(pass_rng(args.workload, args.seed, 0))
    wl.warmup()
    setup_s = perf_counter() - T_START
    if args.setup_only:
        print(setup_s)
        return 0

    failures: list = []
    passes = measure(args.workload, wl, args.seed, args.seconds, first, failures)
    metrics, extra = end_to_end(passes)
    ops = [op for p in passes for op in p]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}

    if args.trace:
        traced_ops, layer = traced_pass(args.workload, wl, args.seed, len(passes), failures)
        ops += traced_ops
        layer["trace_overhead_s"] = sum(op.seconds for op in traced_ops) - metrics["wall_s"]
        layer["fock_oracle.criterion3_fixture_s.computed"] = (
            projected_fixture_s(layer) if args.workload == "oracle_check" else 0.0
        )
        out = {k: (layer[k], unit) for k, unit in spans.PER_LAYER}
        report["untraced"] = metrics
    else:
        samples = [setup_s] + [setup_in_fresh_interpreter(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics["setup_s"] = statistics.median(samples)
        metrics["peak_rss_mb"] = peak_rss_mb()
        out = {k: (metrics[k], unit) for k, unit in END_TO_END}
        report["setup_s_samples"] = samples

    failed = sum(op.failed for op in ops)
    report.update(extra)
    report["op_seconds"] = [[op.seconds for op in p] for p in passes]
    report["failures"] = failures
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for f in failures:
        print(f"FAILED {f['where']}: {f['input']}: {'; '.join(f['problems'])}")
    print(f"{args.workload} seed={args.seed}: {len(ops)} ops, {extra['passes']} untraced "
          f"pass(es); failed_frac={failed / len(ops):g}; traj_s_max={extra['traj_s_max']:.6g} s; "
          f"config_ms_p99 has {extra['config_ms_p99_samples_beyond']} of {extra['ops']} "
          f"untraced samples beyond it")
    for k, (v, u) in out.items():
        print(f"  {k:<58} {v:>14.6g} {u}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
