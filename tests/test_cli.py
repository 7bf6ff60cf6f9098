import json
import math
import subprocess
import sys
import warnings

import pytest

from sqbath import (
    Cat,
    Coherent,
    DegenerateDenominator,
    PhotonAddedCoherent,
    PhotonAddedThermal,
    SqueezedCoherent,
    Thermal,
    closed_form_transition_time,
    evolve_moments,
    initial_moments,
    mandel_q,
    quadrature_variances,
    tau_profile,
    transition_time,
)
from sqbath.cli import CSV_HEADER, csv_blocks, main, parse_config, parse_state

SQRT2 = math.sqrt(2.0)

THERMAL_SCENARIO = {
    "state": {"kind": "thermal", "nbar": 1.0},
    "reservoir": {"N": 1.0, "M": -SQRT2},
    "time_grid": {"start": 0.0, "stop": 2.0, "step": 0.01},
}

ADDED_THERMAL_SCENARIO = {
    "state": {"kind": "photon_added_thermal", "nbar": 1.0},
    "reservoir": {"N": 2.0, "M": 1.0},
    "time_grid": {"start": 0.0, "stop": 1.0, "step": 0.01},
}


# write_config writes this string as the literal 1e400, which JSON reads as inf
OVERFLOW = "<1e400>"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    text = json.dumps(doc).replace(json.dumps(OVERFLOW), "1e400")
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_evolve(tmp_path, doc):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.csv"
    code = main(["evolve", "--config", cfg, "--out", str(out)])
    assert code == 0
    return out.read_bytes()


def parse_csv(data: bytes):
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_header_is_stable(tmp_path):
    rows = parse_csv(run_evolve(tmp_path, THERMAL_SCENARIO))
    assert len(rows) == 201
    assert rows[0][0] == "0.0000000000000000e+00"


def test_thermal_depth_column(tmp_path):
    # the depth column must follow sqrt(2)(1 - e^{-2 Gamma t}) - 1 clamped
    for row in parse_csv(run_evolve(tmp_path, THERMAL_SCENARIO)):
        gt = float(row[0])
        expected = max(0.0, SQRT2 * (1.0 - math.exp(-2.0 * gt)) - 1.0)
        assert float(row[8]) == pytest.approx(expected, abs=1e-12)


def test_added_thermal_crossing_location(tmp_path):
    rows = parse_csv(run_evolve(tmp_path, ADDED_THERMAL_SCENARIO))
    by_gt = {round(float(r[0]), 3): r for r in rows}
    assert float(by_gt[0.0][8]) == pytest.approx(1.0, abs=1e-12)
    assert float(by_gt[0.22][8]) > 0.0  # still nonclassical
    assert float(by_gt[0.23][8]) == 0.0  # clamped past the crossing
    assert float(by_gt[0.23][7]) < 0.0  # raw value keeps the sign


def test_byte_determinism(tmp_path):
    a = run_evolve(tmp_path, THERMAL_SCENARIO)
    b = run_evolve(tmp_path, THERMAL_SCENARIO)
    assert a == b


# One state of every family, and one reservoir of every kind: saturated
# (M^2 = N(N+1)), mixed, thermal (M = 0), and physical keys with gamma != 1.
ROW_STATES = [
    {"kind": "coherent", "gamma": [0.9, -0.4]},
    {"kind": "thermal", "nbar": 0.7},
    {"kind": "squeezed_coherent", "gamma": [0.3, 1.1], "mu": -0.45},
    {"kind": "photon_added_coherent", "gamma": [-0.6, 0.8]},
    {"kind": "photon_added_thermal", "nbar": 1.3},
    {"kind": "cat", "gamma": [1.2, 0.5], "phi": 2.1},
]
ROW_RESERVOIRS = [
    {"N": 1.0, "M": -SQRT2},
    {"N": 2.0, "M": 1.0},
    {"N": 0.4, "M": 0.0},
    {"nbar0": 0.3, "r": 0.6, "theta": 0.0, "gamma": 1.7},
]
# 2 001 rows that start past t = 0
ROW_GRID = {"start": 0.37, "stop": 4.37, "step": 0.002}


def _f(x: float) -> str:
    # + 0.0 folds negative zero into positive zero, as the CSV does
    return "%.16e" % (x + 0.0)


def scalar_row(cfg, gt):
    """One CSV row from scalar calls of the analytic layer at one Γt."""
    state, res = cfg.state, cfg.reservoir
    m0 = initial_moments(state)
    t = gt / res.gamma
    mt = evolve_moments(m0, res, t)
    try:
        q = _f(mandel_q(m0, res, t))
    except DegenerateDenominator:
        q = "NA"
    vx, vy = quadrature_variances(m0, res, t)
    prof = tau_profile(state, res, t)
    cells = [gt, mt.mean_a.real, mt.mean_a.imag, mt.mean_n, q, vx, vy, prof.raw, prof.clamped]
    return ",".join(c if isinstance(c, str) else _f(c) for c in cells)


@pytest.mark.parametrize("reservoir", ROW_RESERVOIRS)
@pytest.mark.parametrize("state", ROW_STATES)
def test_rows_match_scalar_calls(state, reservoir):
    # every cell is computed on the whole grid at once; it must give the
    # bytes of the scalar functions at that grid point
    cfg = parse_config({"state": state, "reservoir": reservoir, "time_grid": ROW_GRID})
    gts = cfg.time_grid.points()
    assert len(gts) == 2001
    lines = "".join(csv_blocks(cfg)).splitlines(keepends=True)
    assert lines == [scalar_row(cfg, gt) + "\n" for gt in gts]


def test_vacuum_rows_match_scalar_calls():
    # Mandel Q is NA exactly where the mean photon number is zero: on every
    # row of a vacuum in a zero-temperature bath, and only at t = 0 under a
    # warm one
    for reservoir, na_rows in (({"N": 0.0, "M": 0.0}, 21), ({"N": 0.5, "M": 0.3}, 1)):
        doc = {
            "state": {"kind": "coherent", "gamma": 0.0},
            "reservoir": reservoir,
            "time_grid": {"start": 0.0, "stop": 2.0, "step": 0.1},
        }
        cfg = parse_config(doc)
        lines = "".join(csv_blocks(cfg)).splitlines(keepends=True)
        assert lines == [scalar_row(cfg, gt) + "\n" for gt in cfg.time_grid.points()]
        assert sum(line.split(",")[4] == "NA" for line in lines) == na_rows


def test_vacuum_rows_constant(tmp_path):
    doc = {
        "state": {"kind": "coherent", "gamma": 0.0},
        "reservoir": {"N": 0.0, "M": 0.0},
        "time_grid": {"start": 0.0, "stop": 0.5, "step": 0.1},
    }
    for row in parse_csv(run_evolve(tmp_path, doc)):
        assert float(row[1]) == 0.0 and float(row[3]) == 0.0
        assert row[4] == "NA"  # Mandel Q undefined for the vacuum
        assert float(row[5]) == 0.25 and float(row[6]) == 0.25
        assert float(row[8]) == 0.0


def test_output_selection(tmp_path):
    doc = dict(THERMAL_SCENARIO, outputs=["variances"])
    for row in parse_csv(run_evolve(tmp_path, doc)):
        assert row[1] == row[2] == row[3] == row[4] == "NA"
        assert row[7] == row[8] == "NA"
        float(row[5]), float(row[6])


def test_complex_gamma_field(tmp_path):
    doc = {
        "state": {"kind": "coherent", "gamma": [1.0, -0.5]},
        "reservoir": {"N": 1.0, "M": 0.0},
        "time_grid": {"start": 0.0, "stop": 0.2, "step": 0.1},
    }
    rows = parse_csv(run_evolve(tmp_path, doc))
    assert float(rows[0][1]) == 1.0
    assert float(rows[0][2]) == -0.5


@pytest.mark.parametrize(
    "doc,expected",
    [
        ({"kind": "coherent", "gamma": [1.0, -0.5]}, Coherent(1.0 - 0.5j)),
        ({"kind": "thermal", "nbar": 2}, Thermal(2.0)),
        (
            {"kind": "squeezed_coherent", "gamma": [0.5, 0.25], "mu": -0.3},
            SqueezedCoherent(0.5 + 0.25j, -0.3),
        ),
        ({"kind": "photon_added_coherent", "gamma": [0.0, 1.5]}, PhotonAddedCoherent(1.5j)),
        ({"kind": "photon_added_thermal", "nbar": 0.7}, PhotonAddedThermal(0.7)),
        ({"kind": "cat", "gamma": [1.0, 1.0], "phi": 1.25}, Cat(1.0 + 1.0j, 1.25)),
        ({"kind": "cat", "gamma": [1.0, 1.0]}, Cat(1.0 + 1.0j, 0.0)),  # phi defaults to 0
    ],
)
def test_parse_state_every_kind(doc, expected):
    assert parse_state(doc) == expected


def test_physical_reservoir_keys(tmp_path, capsys):
    r = math.asinh(1.0)
    doc = {
        "state": {"kind": "thermal", "nbar": 1.0},
        "reservoir": {"nbar0": 0.0, "r": r},  # theta defaults to pi
    }
    cfg = write_config(tmp_path, doc)
    assert main(["transition-time", "--config", cfg]) == 0
    line = capsys.readouterr().out
    # the bisection is only pinned to 1e-10, so compare 9 significant digits
    assert line.startswith("transition gamma_t = 0.613973588")


def test_transition_time_closed_form_comparison(tmp_path, capsys):
    cfg = write_config(tmp_path, THERMAL_SCENARIO)
    assert main(["transition-time", "--config", cfg]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("transition gamma_t = 0.613973588")
    assert "closed form 0.6139735886" in line


def test_transition_time_immediate(tmp_path, capsys):
    doc = {
        "state": {"kind": "coherent", "gamma": 1.0},
        "reservoir": {"N": 1.0, "M": -SQRT2},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["transition-time", "--config", cfg]) == 0
    assert capsys.readouterr().out == "immediate\n"


def test_transition_time_none(tmp_path, capsys):
    doc = {
        "state": {"kind": "thermal", "nbar": 1.0},
        "reservoir": {"N": 1.0, "M": 0.0},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["transition-time", "--config", cfg]) == 0
    assert capsys.readouterr().out == "none\n"


@pytest.mark.parametrize(
    "state,reservoir",
    [
        ({"kind": "coherent", "gamma": 1.0}, {"N": 0.0, "M": 0.0}),
        ({"kind": "coherent", "gamma": 1.0}, {"N": 1.0, "M": 1.0}),
        ({"kind": "coherent", "gamma": [0.3, 1.0]}, {"N": 0.5, "M": -0.5}),
        ({"kind": "thermal", "nbar": 0.0}, {"N": 1.0, "M": 1.0}),
        ({"kind": "squeezed_coherent", "gamma": 1.0, "mu": 0.0}, {"N": 0.0, "M": 0.0}),
        # the profile -1e-300 u underflows to exactly zero at late times
        ({"kind": "thermal", "nbar": 1e-300}, {"N": 0.0, "M": 0.0}),
    ],
)
def test_zero_profile_has_no_crossing(tmp_path, capsys, state, reservoir):
    doc = {"state": state, "reservoir": reservoir}
    cfg = parse_config(doc, need_grid=False)
    assert transition_time(cfg.state, cfg.reservoir) is None
    assert closed_form_transition_time(cfg.state, cfg.reservoir) is None
    assert main(["transition-time", "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == "none\n"


def test_figures_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    assert main(["figures", "--out", str(out1)]) == 0
    assert main(["figures", "--out", str(out2)]) == 0
    capsys.readouterr()
    svg1 = (out1 / "figure1.svg").read_bytes()
    svg2 = (out1 / "figure2.svg").read_bytes()
    assert svg1 == (out2 / "figure1.svg").read_bytes()
    assert svg2 == (out2 / "figure2.svg").read_bytes()
    # crossing markers are labelled with the transition abscissae
    assert "Γt ≈ 0.6140".encode() in svg1
    assert "Γt ≈ 0.2279".encode() in svg2


def test_validate_passes_on_reference_scenario(tmp_path, capsys):
    doc = {
        "state": {"kind": "coherent", "gamma": 1.0},
        "reservoir": {"N": 1.0, "M": -SQRT2},
        "time_grid": {"start": 0.0, "stop": 0.3, "step": 0.1},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("oracle dim=64 top_tenth_max=")
    assert out.strip().endswith("PASS")
    assert "mean_a" in out and "var_y" in out
    assert "FAIL" not in out


def test_validate_picks_a_dim_that_passes(tmp_path, capsys):
    # at dim 64 the heated tail misses the 1e-6 gate by up to 1.7x on
    # mean_a, mean_a2, mandel_q and var_y; the oracle's rule takes dim 80
    doc = {
        "state": {"kind": "photon_added_coherent", "gamma": 1.0},
        "reservoir": {"N": 2.0, "M": 1.0},
        "time_grid": {"start": 0.0, "stop": 2.0, "step": 0.1},
    }
    assert main(["validate", "--config", write_config(tmp_path, doc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("oracle dim=80 top_tenth_max=")
    assert float(lines[0].rpartition("=")[2]) < 1e-9
    assert lines[-1] == "PASS"


def test_validate_derives_a_stable_step_on_a_tall_ladder(tmp_path, capsys):
    # the squeezed tail needs 128 levels, where RK4's stability limit is
    # tighter; the step derived from the Liouvillian keeps the trace
    # monitor quiet there
    doc = {
        "state": {"kind": "squeezed_coherent", "gamma": 1.0, "mu": 1.0},
        "reservoir": {"N": 1.0, "M": 0.0},
        "time_grid": {"start": 0.0, "stop": 1.0, "step": 0.1},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("oracle dim=128 "), captured.err
    assert lines[-1] == "PASS", captured.err


def test_validate_surfaces_truncation_hint(tmp_path, capsys):
    # too hot for every dim the oracle tries: prepare rejects each one
    doc = {
        "state": {"kind": "thermal", "nbar": 50.0},
        "reservoir": {"N": 1.0, "M": 0.0},
        "time_grid": {"start": 0.0, "stop": 0.2, "step": 0.1},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "top 53 of 528 levels" in captured.err
    assert "no dim up to 528 is tall enough; shorten the time grid" in captured.err


VALID = {
    "state": {"kind": "coherent", "gamma": 1.0},
    "reservoir": {"N": 1.0, "M": 0.0},
    "time_grid": {"start": 0, "stop": 1, "step": 0.1},
}


def test_oracle_section_is_ignored():
    # the oracle picks its own truncation, so an "oracle" section is an
    # unknown key like any other
    doc = {**VALID, "oracle": {"enabled": True, "dim": 1}}
    assert parse_config(doc) == parse_config(VALID)
# json.dumps writes these as the literals NaN, Infinity and -Infinity,
# which json.load reads back
NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "doc",
    [
        {},  # missing everything
        {"state": {"kind": "coherent", "gamma": 1.0}},  # missing reservoir
        {
            "state": {"kind": "warp"},
            "reservoir": {"N": 1.0, "M": 0.0},
            "time_grid": {"start": 0, "stop": 1, "step": 0.1},
        },
        {
            "state": {"kind": "coherent", "gamma": 1.0},
            "reservoir": {"N": 1.0, "M": 2.0},  # violates M^2 <= N(N+1)
            "time_grid": {"start": 0, "stop": 1, "step": 0.1},
        },
        {
            "state": {"kind": "coherent", "gamma": 1.0},
            "reservoir": {"N": 1.0, "M": 0.0},
            "time_grid": {"start": 1, "stop": 0.5, "step": 0.1},
        },
        {
            "state": {"kind": "coherent", "gamma": 1.0},
            "reservoir": {"N": 1.0, "M": 0.0},
            "time_grid": {"start": 0, "stop": 1, "step": 0.1},
            "outputs": ["moments", "entropy"],
        },
    ]
    + [
        {
            "state": state,  # one required field missing, or an unhashable kind
            "reservoir": {"N": 1.0, "M": 0.0},
            "time_grid": {"start": 0, "stop": 1, "step": 0.1},
        }
        for state in (
            {"kind": "coherent"},
            {"kind": "thermal"},
            {"kind": "squeezed_coherent", "gamma": 1.0},
            {"kind": "photon_added_coherent"},
            {"kind": "photon_added_thermal"},
            {"kind": "cat", "phi": 1.0},
            {"kind": ["coherent"]},
        )
    ]
    + [
        # NaN passes no range check by comparison alone, and infinities and
        # overflowing literals are no values: every numeric field rejects them
        {**VALID, section: {**VALID[section], key: value}}
        for section, key in (
            ("state", "gamma"),
            ("reservoir", "N"),
            ("reservoir", "M"),
            ("reservoir", "gamma"),
            ("time_grid", "start"),
            ("time_grid", "stop"),
            ("time_grid", "step"),
        )
        for value in (NAN, INF, -INF, OVERFLOW)
    ]
    + [
        {**VALID, "reservoir": {"nbar0": 0.5, "r": 0.5, "theta": value}}
        for value in (NAN, INF, -INF, OVERFLOW)
    ]
    + [
        {**VALID, "state": {"kind": "coherent", "gamma": [re, im]}}
        for re, im in ((NAN, 0.0), (0.0, INF), (OVERFLOW, 0.0), (0.0, 10**400))
    ]
    + [
        {**VALID, "reservoir": {"nbar0": NAN, "r": 0.5}},
        {**VALID, "reservoir": {"nbar0": 0.5, "r": INF}},
        {**VALID, "reservoir": {"nbar0": 0.5, "r": 0.5, "gamma": NAN}},
        {**VALID, "state": {"kind": "cat", "gamma": 1.0, "phi": NAN}},
        {**VALID, "state": {"kind": "squeezed_coherent", "gamma": 1.0, "mu": INF}},
        # a grid whose row count is not finite
        {**VALID, "time_grid": {"start": 0, "stop": 1e300, "step": 1e-300}},
        # outputs must be a list of strings
        {**VALID, "outputs": [["moments"]]},
        {**VALID, "outputs": "moments"},
        {**VALID, "outputs": []},
        # a section that is no object, a bool or a string where a number
        # goes, and a complex number of three parts
        {**VALID, "time_grid": []},
        {**VALID, "reservoir": {"N": True, "M": 0.0}},
        {**VALID, "time_grid": {"start": 0, "stop": "1", "step": 0.1}},
        {**VALID, "state": {"kind": "coherent", "gamma": [1.0, 0.0, 0.0]}},
        [VALID],
    ],
)
def test_config_errors_exit_two(tmp_path, capsys, doc):
    cfg = write_config(tmp_path, doc)
    assert main(["evolve", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_non_finite_cells_exit_three(tmp_path, capsys):
    # N_t^2 overflows in Mandel Q's numerator from the first step on
    doc = {
        "state": {"kind": "coherent", "gamma": 1.0},
        "reservoir": {"N": 1e300, "M": 0.0},
        "time_grid": {"start": 0.0, "stop": 1.0, "step": 0.25},
    }
    out = tmp_path / "out.csv"
    assert main(["evolve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
    assert "numerical error: mandel_q is inf at gamma_t = 0.25" in capsys.readouterr().err
    assert out.read_bytes() == b""
    # without that column every cell is finite
    doc["outputs"] = ["moments", "variances", "tau_m"]
    assert run_evolve(tmp_path, doc).count(b"inf") == 0


def test_overflowing_state_exits_three(tmp_path, capsys):
    # gamma^4 overflows while the moment table is built; Python's complex
    # pow raises for a real gamma and returns NaN for a complex one, and
    # both are reported as the same non-finite cell
    for gamma in (1e150, 1e80, [1e80, 3e79]):
        doc = dict(THERMAL_SCENARIO, state={"kind": "coherent", "gamma": gamma})
        assert main(["evolve", "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err == "numerical error: mandel_q is not a number at gamma_t = 0.0\n"


@pytest.mark.parametrize(
    "state",
    [
        {"kind": "photon_added_coherent", "gamma": 1e52},
        {"kind": "coherent", "gamma": [1e80, 3e79]},
        {"kind": "thermal", "nbar": 1e200},
    ],
)
def test_overflowing_moment_table_prints_only_the_error(tmp_path, capsys, state):
    # the moment table holds inf or NaN; evolve reports the first
    # non-finite cell, with no NumPy RuntimeWarning before that line
    doc = dict(THERMAL_SCENARIO, state=state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", write_config(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["evolve", "transition-time"])
@pytest.mark.parametrize(
    "state", [{"kind": "coherent", "gamma": 1.0}, {"kind": "thermal", "nbar": 1.0}]
)
def test_float_range_reservoir_prints_only_the_error(tmp_path, capsys, command, state):
    # nbar0 = 1.7e308 makes N infinite, so N (1 - u) is inf * 0 at t = 0;
    # NumPy's RuntimeWarning about it must not precede the error line
    doc = {
        "state": state,
        "reservoir": {"nbar0": 1.7e308, "r": 0.1, "theta": 0.0},
        "time_grid": {"start": 0.0, "stop": 1.0, "step": 0.25},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", write_config(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"state": \n oops', encoding="utf-8")
    assert main(["evolve", "--config", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [
        b"\xff\xfe{}",  # not UTF-8
        b'{"state": {"kind": "thermal", "nbar": ' + b"1" * 5000 + b"}}",  # past the digit limit
        b"[" * 100000 + b"]" * 100000,  # deeper than the decoder's recursion limit
    ],
)
def test_unreadable_json_exits_two(tmp_path, capsys, data):
    path = tmp_path / "unreadable.json"
    path.write_bytes(data)
    assert main(["evolve", "--config", str(path)]) == 2
    assert "unreadable JSON" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path / "nope.json")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_unwritable_output_is_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path, THERMAL_SCENARIO)
    missing = tmp_path / "no_such_dir" / "out.csv"
    assert main(["evolve", "--config", cfg, "--out", str(missing)]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    doc = dict(THERMAL_SCENARIO, time_grid={"start": 0.0, "stop": 0.2, "step": 0.1})
    cfg = write_config(tmp_path, doc)
    proc = subprocess.run(
        [sys.executable, "-m", "sqbath", "evolve", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == CSV_HEADER
    assert len(proc.stdout.splitlines()) == 4


def test_cli_rejects_bad_flag_values(tmp_path, capsys):
    # validate takes no truncation flags: the oracle picks its own dim
    cfg = write_config(tmp_path, dict(THERMAL_SCENARIO))
    for flags in (["--dim", "64"], ["--oracle"]):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", cfg, *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
