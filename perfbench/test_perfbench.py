"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""
from __future__ import annotations

import json
import math
import os

import run

assert run.MISSING is None, run.MISSING

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from sqbath import cli, fock_oracle, nonclassicality  # noqa: E402
from sqbath.states import MomentTable  # noqa: E402

import spans  # noqa: E402
import workloads as w  # noqa: E402

WORKLOADS = run.workload_table()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    make = WORKLOADS[name].make_pass
    first = make(run.pass_rng(name, 7, 0))
    assert make(run.pass_rng(name, 7, 0)) == first
    assert make(run.pass_rng(name, 8, 0)) != first
    assert make(run.pass_rng(name, 7, 1)) != first


def test_generated_reservoirs_are_legal():
    docs = [
        op.doc["reservoir"]
        for name in ("evolve_grid", "param_sweep")
        for seed in range(3)
        for op in WORKLOADS[name].make_pass(run.pass_rng(name, seed, 0))
    ]
    assert any("nbar0" in d for d in docs)
    assert any(d.get("M") == 0.0 for d in docs) and any(d.get("M") for d in docs)
    for doc in docs:
        if "N" in doc:
            assert doc["M"] ** 2 <= doc["N"] * (doc["N"] + 1.0), doc
        else:
            assert doc["nbar0"] >= 0.0 and doc["r"] >= 0.0 and doc["theta"] in (0.0, math.pi)
        cli.parse_reservoir(doc)


def test_oracle_rows_pass_the_leakage_budget():
    # prepare raises TruncationTooSmall when the top tenth of the ladder
    # holds more than fock_oracle.LEAKAGE_BOUND
    for cls in w.ORACLE_CLASSES:
        for skey, rkey in cls.rows:
            state, _ = w._parse(w.FIXTURE_STATES[skey], w.FIXTURE_RESERVOIRS[rkey])
            fock_oracle.prepare(state, cls.dim)


def _small_trajectory(skey="added_thermal"):
    cls = w.TruncationClass(64, 1e-3, 0.05, 0.1, ((skey, "mixed"),))
    return w.make_trajectory(skey, "mixed", cls, run.pass_rng("test", 0, 0))


def _small_render(transition=True):
    doc = {"state": {"kind": "cat", "gamma": [0.7, 0.2], "phi": 1.0},
           "reservoir": {"N": 1.0, "M": -1.2},
           "time_grid": {"start": 0.0, "stop": 1.0, "step": 0.05}}
    return w.Render(doc, tuple(range(21)), transition=transition)


def _failed(workload: str, inp) -> bool:
    failures = []
    (op,) = run.run_pass(WORKLOADS[workload], [inp], failures, "test")
    assert op.failed == bool(failures)
    return op.failed


def test_unperturbed_outputs_pass():
    assert not _failed("oracle_check", _small_trajectory())
    assert not _failed("param_sweep", _small_render())


def test_perturbed_oracle_moments_fail(monkeypatch):
    real = fock_oracle.moments_from_rho
    monkeypatch.setattr(fock_oracle, "moments_from_rho",
                        lambda rho: MomentTable(real(rho).array * (1 + 3e-6)))
    assert _failed("oracle_check", _small_trajectory())


def test_perturbed_quasiprob_grid_fails(monkeypatch):
    real = fock_oracle.quasiprob_grid
    monkeypatch.setattr(fock_oracle, "quasiprob_grid", lambda *a: real(*a) * (1 + 3e-6))
    assert _failed("oracle_check", _small_trajectory())


def test_perturbed_csv_cell_fails(monkeypatch):
    real = cli.quadrature_variances
    monkeypatch.setattr(cli, "quadrature_variances",
                        lambda *a: (real(*a)[0] * (1 + 1e-11), real(*a)[1]))
    assert _failed("evolve_grid", _small_render(transition=False))


@pytest.mark.parametrize("shift", [1e-7, None])
def test_perturbed_transition_time_fails(monkeypatch, shift):
    real = nonclassicality.transition_time
    monkeypatch.setattr(
        nonclassicality, "transition_time",
        lambda *a: None if shift is None else real(*a) + shift,
    )
    doc = {"state": {"kind": "thermal", "nbar": 1.0},
           "reservoir": {"N": 1.0, "M": -math.sqrt(2.0) + 1e-12},
           "time_grid": {"start": 0.0, "stop": 1.0, "step": 0.05}}
    assert _failed("param_sweep", w.Render(doc, (0,), transition=True))


def test_changed_bytes_on_re_render_fail():
    op = _small_render(transition=False)
    result = w.render(op)
    assert not w.check_render(w.Render(op.doc, op.sample, same_as=0), result, [result[1]]).problems
    assert w.check_render(w.Render(op.doc, op.sample, same_as=0), result, [result[1] + " "]).problems


def test_self_time_subtracts_direct_children():
    trace = [
        ["bench.render", 0.0, 12.0, -1, 0, None],
        ["cli.cmd_evolve", 1.0, 11.0, 0, 0, None],
        ["evolution.evolve_moments", 2.0, 5.0, 1, 0, None],
        ["evolution.evolve_moments", 6.0, 7.0, 1, 0, "ValueError"],
    ]
    m = spans.per_layer(trace, {}, {})
    assert m["cli.cmd_evolve.self_s"] == 6.0
    assert m["evolution.evolve_moments.self_s"] == 4.0
    assert m["evolution.evolve_moments.calls"] == 2
    assert m["evolution.errors"] == 1 and m["cli.errors"] == 0


def test_tracer_restores_every_name():
    before = [getattr(mod, attr) for mod, attr, _ in spans.WRAPPED]
    tracer = spans.Tracer()
    tracer.install()
    with tracer.op_span("bench.trajectory", 0):
        fock_oracle.moments_from_rho(np.eye(4, dtype=complex) / 4)
    tracer.uninstall()
    assert [getattr(mod, attr) for mod, attr, _ in spans.WRAPPED] == before
    assert [s[0] for s in tracer.spans] == ["bench.trajectory", "fock_oracle.moments_from_rho"]
    assert tracer.spans[1][3:5] == [0, 0]


def test_benchmark_json_lists_what_the_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(x["name"] for x in spec["workloads"]) == sorted(WORKLOADS)
    assert [(x["name"], x["unit"]) for x in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [(x["name"], x["unit"]) for x in spec["end_to_end"]] == list(run.END_TO_END)
