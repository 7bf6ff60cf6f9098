import json
import math
import subprocess
import sys

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
from sqbath.cli import CSV_HEADER, _f, csv_lines, main, parse_config, parse_state

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
    lines = list(csv_lines(cfg))
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
        lines = list(csv_lines(cfg))
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
    assert main(["validate", "--config", cfg, "--oracle", "--dim", "32"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")
    assert "mean_a" in out and "var_y" in out
    assert "FAIL" not in out


def test_validate_requires_oracle(tmp_path, capsys):
    doc = dict(THERMAL_SCENARIO)
    cfg = write_config(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == 2
    assert "oracle" in capsys.readouterr().err


def test_validate_surfaces_truncation_hint(tmp_path, capsys):
    doc = {
        "state": {"kind": "thermal", "nbar": 4.0},
        "reservoir": {"N": 1.0, "M": 0.0},
        "time_grid": {"start": 0.0, "stop": 0.2, "step": 0.1},
        "oracle": {"enabled": True, "dim": 8},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == 3
    assert "dim >= 16" in capsys.readouterr().err


VALID = {
    "state": {"kind": "coherent", "gamma": 1.0},
    "reservoir": {"N": 1.0, "M": 0.0},
    "time_grid": {"start": 0, "stop": 1, "step": 0.1},
    "oracle": {"dt": 0.001},
}
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
            ("oracle", "dt"),
        )
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
        {**VALID, "oracle": {"dim": 1}},
        {**VALID, "oracle": {"dim": 64.0}},
        {**VALID, "oracle": {"dt": 0}},
        {**VALID, "oracle": {"enabled": 1}},
        {**VALID, "oracle": []},
        [VALID],
    ],
)
def test_config_errors_exit_two(tmp_path, capsys, doc):
    cfg = write_config(tmp_path, doc)
    assert main(["evolve", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


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
    cfg = write_config(tmp_path, dict(THERMAL_SCENARIO))
    assert main(["validate", "--config", cfg, "--oracle", "--dim", "1"]) == 2
    assert main(["validate", "--config", cfg, "--oracle", "--dt", "-0.1"]) == 2
    assert main(["validate", "--config", cfg, "--oracle", "--dt", "nan"]) == 2
    capsys.readouterr()
