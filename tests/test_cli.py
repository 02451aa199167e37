import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tridephase.reservoir
from tridephase import analysis, cli
from tridephase.analysis import ROOT_REL_TOL, preservation_time_zero_t
from tridephase.cli import (
    PARAM_FIELDS, _csv_texts, _emit, _float_texts, _fmt, _parse_run, load_config, main,
)
from tridephase.exceptions import ShapeError
from tridephase.states import ghz_state, werner

from golden import GOLDEN_DIR, GOLDEN_RUNS


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.DictReader(text.splitlines()))
    assert rows, f"no rows in output: {text[:200]!r}"
    return rows


def test_evolve_t0_equals_initial_werner(capsys):
    code, out, _ = run(capsys, [
        "evolve", "--set", "x=0.8", "--set", "t_start=0", "--set", "t_stop=1",
        "--set", "t_count=2",
    ])
    assert code == 0
    rows = read_csv(out)
    rho0 = werner(ghz_state(), 0.8)
    first = rows[0]
    assert float(first["t"]) == 0.0
    for i in range(8):
        for j in range(8):
            assert float(first[f"re_{i}{j}"]) == pytest.approx(rho0[i, j].real, abs=1e-15)
            assert float(first[f"im_{i}{j}"]) == pytest.approx(rho0[i, j].imag, abs=1e-15)


def test_evolve_diagonal_state_constant_rows(capsys):
    code, out, _ = run(capsys, [
        "evolve", "--set", "x=0", "--set", "t_count=4", "--set", "t_stop=2",
    ])
    assert code == 0
    rows = read_csv(out)
    for key in rows[0]:
        if key == "t":
            continue
        values = {row[key] for row in rows}
        assert len(values) == 1


def test_evolve_coherence_magnitude_column(capsys):
    code, out, _ = run(capsys, [
        "evolve", "--set", "x=0.8", "--set", "eta=0.2",
        "--set", 'omega_sq_a=4', "--set", 'omega_sq_b=4', "--set", 'omega_sq_c=4',
        "--set", "t_start=0", "--set", "t_stop=1", "--set", "t_count=2",
    ])
    assert code == 0
    row = read_csv(out)[1]
    magnitude = math.hypot(float(row["re_07"]), float(row["im_07"]))
    assert magnitude == pytest.approx(0.01435872943746294, abs=1e-12)


def test_evolve_rejects_list_parameters(capsys):
    code, _, err = run(capsys, ["evolve", "--set", "x=[0.1,0.2]"])
    assert code == 1
    assert "x" in err


UNDERFLOW = "k1 * beta_a = 1e-200 * 1e-200 rounds to 0.0, not a positive finite inverse temperature"


@pytest.mark.parametrize("settings, message", [
    (["x=1.5"], "mixing parameter must lie in [0, 1], got 1.5"),
    (["eta=-1"], "coupling constant eta must be >= 0, got -1.0"),
    pytest.param(["k1=0", "beta_a=1", "method=low_t"], "k1 must be positive, got 0.0",
                 id="k1_zero"),
    pytest.param(["k2=0", "beta_a=1", "method=low_t"], "k2 must be positive, got 0.0",
                 id="k2_zero"),
    (["k1=1e-200", "beta_a=1e-200", "method=low_t"], UNDERFLOW),
    # at the default zero temperature k1 and k2 scale no beta, but must still be positive
    pytest.param(["k2=0"], "k2 must be positive, got 0.0", id="k2_zero_at_zero_t"),
    pytest.param(["k1=-3"], "k1 must be positive, got -3.0", id="k1_negative_at_zero_t"),
])
def test_evolve_bad_physical_input_is_a_config_error(capsys, settings, message):
    argv = ["evolve"]
    for setting in settings:
        argv += ["--set", setting]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    key = settings[0].partition("=")[0]  # the first setting is the bad one
    assert err == f"error: config key {key!r}: {message}\n"


def test_grid_rows_carry_the_underflowed_gradient_error(capsys):
    # a grid command rejects the run under the factor that underflows, as evolve does
    code, out, err = run(capsys, [
        "measure", "--set", "beta_a=1e-200", "--set", "k1=1e-200", "--set", "method=low_t",
        "--set", "t_count=3",
    ])
    assert code == 1
    assert out == ""
    assert err == f"error: config key 'k1': {UNDERFLOW}\n"


PHASE_OVERFLOW_RUN = ["--set", "t_stop=1e300", "--set", "omega_sq_a=1e300", "--set", "t_count=3"]
PHASE_OVERFLOW = "phase 2 (Omega_A + Omega_B + Omega_C) t overflows at t_stop / omega_c = 1e+300"


def test_evolve_rejects_an_overflowing_phase(capsys):
    code, out, err = run(capsys, ["evolve", *PHASE_OVERFLOW_RUN])
    assert (code, out) == (1, "")
    assert err == f"error: config key 't_stop': {PHASE_OVERFLOW}\n"


def test_measure_rows_carry_an_overflowing_phase(capsys):
    # the grid rejects the run under t_stop, as evolve does: no row carries
    # the channel's error, not even the row at t = 0
    code, out, err = run(capsys, ["measure", *PHASE_OVERFLOW_RUN])
    assert (code, out) == (1, "")
    assert err == f"error: config key 't_stop': {PHASE_OVERFLOW}\n"
    code, out, err = run(capsys, ["measure", "--set", "t_count=2", "--set", "t_stop=1e308"])
    assert (code, out) == (1, "")
    assert err.startswith("error: config key 't_stop': phase 2 (Omega_A + Omega_B + Omega_C)")


def test_exact_gamma_past_the_overflow_of_its_squares_gives_rows(capsys):
    # ln(1 + (t / beta)^2) once overflowed at t / beta = 1e160: a NaN Gamma on every row
    code, out, err = run(capsys, [
        "measure", "--set", "method=exact", "--set", "beta_a=1", "--set", "t_stop=1e160",
        "--set", "t_count=2", "--set", "x=0.9",
    ])
    assert (code, err) == (0, "")
    rows = read_csv(out)
    assert [(row["t"], row["value"], row["error"]) for row in rows] == [
        ("0", "0.82499999999999984", ""), ("1e+160", "0", ""),
    ]


BAD_RUN_VALUES = {
    "x": (["x=[0.5,1.5]"], "mixing parameter must lie in [0, 1], got 1.5"),
    "eta": (["eta=[-1,0.2]"], "coupling constant eta must be >= 0, got -1.0"),
    "k2": (["k1=[1,2]", "k2=[0]", "beta_a=1", "method=low_t"], "k2 must be positive, got 0.0"),
    "beta_a": (["beta_a=[1,-1]", "method=exact"], "beta_a must be positive, got -1.0"),
    "method": (["beta_a=1"], "method zero_t requires ZERO_TEMPERATURE (beta = inf)"),
    "k1": (["beta_a=1e-200", "k1=1e-200", "method=low_t"], UNDERFLOW),
}


@pytest.mark.parametrize("command", ["measure", "timescales", "sweep"])
@pytest.mark.parametrize("key", sorted(BAD_RUN_VALUES))
def test_grid_commands_reject_a_bad_run_value_under_its_key(capsys, command, key):
    settings, message = BAD_RUN_VALUES[key]
    argv = [command, "--set", "t_count=3"]
    for setting in settings:
        argv += ["--set", setting]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: config key {key!r}: {message}\n"


@pytest.mark.parametrize("command", ["measure", "timescales"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("beta_as", [
    [0.9, 3.1],  # (0.9 / 3) * 3 is 0.8999999999999999, not 0.9
    [1.6355707617477253, 1.6355707617477255],  # one ulp apart, the same beta_a / 3
], ids=["round_trip", "shared_quotient"])
def test_beta_a_column_echoes_the_configured_value(capsys, command, fmt, beta_as):
    code, out, _ = run(capsys, [
        command, "--format", fmt, "--set", "omega_c=3", "--set", f"beta_a={beta_as!r}",
        "--set", "method=low_t", "--set", "t_count=2",
    ])
    assert code == 0
    rows = read_csv(out) if fmt == "csv" else json.loads(out)
    per_curve = 2 if command == "measure" else 1
    assert [float(row["beta_a"]) for row in rows] == [b for b in beta_as for _ in range(per_curve)]


def test_evolve_and_measure_print_the_same_times(capsys):
    settings = ["--set", "omega_c=3", "--set", "t_start=0.5", "--set", "t_stop=3.7"]
    times = []
    for command in ("evolve", "measure"):
        code, out, _ = run(capsys, [command, *settings])
        assert code == 0
        times.append([row["t"] for row in read_csv(out)])
    assert len(times[0]) == 121
    assert times[0] == times[1]


@pytest.mark.parametrize("command", ["evolve", "measure"])
@pytest.mark.parametrize("omega_c, t_start, t_stop, t_count", [
    (0.1, 0.7, 3.3, 3),
    (3.0, 0.5, 3.7, 5),
])
def test_t_column_echoes_the_configured_grid(capsys, command, omega_c, t_start, t_stop, t_count):
    # omega_c * (t / omega_c) is not t: 3.3 came back as 3.2999999999999994
    code, out, _ = run(capsys, [
        command, "--set", f"omega_c={omega_c}", "--set", f"t_start={t_start}",
        "--set", f"t_stop={t_stop}", "--set", f"t_count={t_count}",
    ])
    assert code == 0
    printed = [float(row["t"]) for row in read_csv(out)]
    assert printed == np.linspace(t_start, t_stop, t_count).tolist()
    assert printed[-1] == t_stop


@pytest.mark.parametrize("omega_c", [0.1, 3.0])
def test_freezing_intervals_lie_on_the_configured_grid(capsys, omega_c):
    # hot A kills two of the W state's three coherences; cold B, C freeze the third
    code, out, _ = run(capsys, [
        "timescales", "--set", f"omega_c={omega_c}", "--set", "state=w", "--set", "x=1",
        "--set", "eta=0.001", "--set", "beta_a=0.001", "--set", "k1=1e5", "--set", "k2=1e5",
        "--set", "method=low_t", "--set", "t_start=0.1", "--set", "t_stop=3.3",
        "--set", "t_count=41", "--set", 'measures=["l1_coherence"]',
    ])
    assert code == 0
    (row,) = read_csv(out)
    assert row["freezing_count"] == "1"
    start, stop = map(float, row["freezing_intervals"].split(":"))
    grid = np.linspace(0.1, 3.3, 41).tolist()
    assert (start, stop) == (grid[1], grid[10])


@pytest.mark.parametrize("omega_c", [0.1, 3.0])
def test_unreached_t_c_is_the_configured_t_stop(capsys, omega_c):
    # eta = 1e-9 keeps every curve far above epsilon up to t_stop
    code, out, _ = run(capsys, [
        "timescales", "--set", f"omega_c={omega_c}", "--set", "t_stop=3.3", "--set", "eta=1e-9",
        "--set", "x=0.9", "--set", "t_count=5",
    ])
    assert code == 0
    (row,) = read_csv(out)
    assert row["t_c_reached"] == "false"
    assert float(row["t_c"]) == 3.3


def test_exact_method_runs_at_any_beta_a(capsys):
    grid = ["--set", "t_count=7", "--set", 'measures=["gmc","l1_coherence"]']
    _, exact_cold, _ = run(capsys, ["measure", "--set", "method=exact", *grid])
    _, zero_t, _ = run(capsys, ["measure", "--set", "method=zero_t", *grid])
    assert exact_cold.replace(",exact,", ",zero_t,") == zero_t
    code, exact_hot, _ = run(capsys, ["measure", "--set", "method=exact", "--set", "beta_a=0.5", *grid])
    assert code == 0
    _, quad_hot, _ = run(capsys, ["measure", "--set", "method=quadrature", "--set", "beta_a=0.5", *grid])
    for exact_row, quad_row in zip(read_csv(exact_hot), read_csv(quad_hot), strict=True):
        assert exact_row["method"] == "exact" and exact_row["error"] == ""
        assert float(exact_row["value"]) == pytest.approx(float(quad_row["value"]), rel=1e-7, abs=1e-12)


@pytest.mark.parametrize("setting, key", [
    ("timescales=False", "timescales"),
    ('timescales="off"', "timescales"),
    ("timescales=1", "timescales"),
    ('state=["ghz"]', "state"),
    ('method=["zero_t"]', "method"),
    ('measures=[["gmc"]]', "measures"),
])
def test_config_value_of_the_wrong_type_names_its_key(capsys, setting, key):
    code, out, err = run(capsys, ["sweep", "--set", setting, "--set", "t_count=3"])
    assert code == 1
    assert out == ""
    # SweepGrid checks a state or measure name, and its message follows the key
    follows = ": unknown " if key in ("state", "measures") else " must be "
    assert err.startswith(f"error: config key {key!r}{follows}")


def test_measure_gmc_below_threshold_all_zero(capsys):
    code, out, _ = run(capsys, [
        "measure", "--set", "x=0.4", "--set", "t_count=5", "--set", "t_stop=2",
    ])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 5
    assert all(float(r["value"]) == 0.0 for r in rows)


def test_measure_w_werner_coherence_at_t0(capsys):
    code, out, _ = run(capsys, [
        "measure", "--set", "state=w", "--set", "x=0.6",
        "--set", 'measures=["l1_coherence"]', "--set", "t_count=2", "--set", "t_stop=1",
    ])
    assert code == 0
    rows = read_csv(out)
    assert float(rows[0]["value"]) == pytest.approx(1.2, abs=1e-12)


def test_measure_gmc_at_t0(capsys):
    code, out, _ = run(capsys, [
        "measure", "--set", "x=0.8", "--set", "t_count=2", "--set", "t_stop=1",
    ])
    assert code == 0
    assert float(read_csv(out)[0]["value"]) == pytest.approx(0.65, abs=1e-12)


def test_timescales_x1_reports_inf(capsys):
    code, out, _ = run(capsys, [
        "timescales", "--set", "x=1.0", "--set", "t_count=4", "--set", "t_stop=2",
    ])
    assert code == 0
    assert read_csv(out)[0]["t_p"] == "inf"


def test_timescales_gradient_increases_preservation_time(capsys):
    base = [
        "timescales", "--set", "x=0.8", "--set", "eta=0.2",
        "--set", "omega_sq_a=12", "--set", "omega_sq_b=12", "--set", "omega_sq_c=12",
        "--set", "beta_a=0.01", "--set", "method=low_t",
        "--set", "t_count=6", "--set", "t_stop=5",
    ]
    code, out, _ = run(capsys, base + ["--set", "k1=1", "--set", "k2=1"])
    assert code == 0
    tp_equal = float(read_csv(out)[0]["t_p"])
    code, out, _ = run(capsys, base + ["--set", "k1=4", "--set", "k2=16"])
    assert code == 0
    tp_gradient = float(read_csv(out)[0]["t_p"])
    assert tp_gradient > tp_equal


def test_timescales_zero_t_matches_closed_form(capsys):
    code, out, _ = run(capsys, [
        "timescales", "--set", "x=0.8", "--set", "eta=0.2",
        "--set", "omega_sq_a=4", "--set", "omega_sq_b=4", "--set", "omega_sq_c=4",
        "--set", "t_count=4", "--set", "t_stop=3",
    ])
    assert code == 0
    t_p = float(read_csv(out)[0]["t_p"])
    assert t_p == pytest.approx(preservation_time_zero_t(0.8, 0.2, 12.0, 1.0), rel=1e-8)
    assert t_p == pytest.approx(0.6459782224702452, rel=1e-6)


def test_sweep_deterministic_output_files(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "x": [0.5, 0.8], "eta": [0.2, 0.4], "t_count": 7, "t_stop": 2.0,
        "measures": ["gmc", "l1_coherence"], "timescales": True,
    }))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(["sweep", "--config", str(config), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1.read_text())
    assert len(rows) == 2 * 2 * 7 * 2
    assert "t_p" in rows[0]


def test_json_output_with_infinity_flag(tmp_path, capsys):
    out = tmp_path / "rows.json"
    code = main([
        "timescales", "--set", "x=1.0", "--set", "t_count=3", "--set", "t_stop=1",
        "--format", "json", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["t_p"] is None
    assert rows[0]["t_p_infinite"] is True


def test_config_file_and_override_precedence(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"x": 0.5, "t_count": 3, "t_stop": 1.0}))
    code, out, _ = run(capsys, [
        "measure", "--config", str(config), "--set", "x=0.8",
    ])
    assert code == 0
    assert float(read_csv(out)[0]["x"]) == 0.8


def test_unknown_config_key_named_in_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cutoff": 3}))
    code, _, err = run(capsys, ["measure", "--config", str(config)])
    assert code == 1
    assert "cutoff" in err


def test_bad_method_temperature_pairing(capsys):
    code, _, err = run(capsys, ["measure", "--set", "method=low_t"])
    assert code == 1
    assert "method" in err


def test_unknown_measure_rejected(capsys):
    code, _, err = run(capsys, ["measure", "--set", 'measures=["entropy"]'])
    assert code == 1
    assert "entropy" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, ["selfcheck"])
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)
    labels = [
        "max relative error", "max relative deviation", "max absolute difference",
        "max relative error", "max |lhs/rhs - 1|", "max absolute difference",
    ]
    for line, label in zip(lines, labels):
        assert line.split(": ", 1)[1].startswith(f"{label} ")


def test_selfcheck_detects_corrupted_gamma(capsys, monkeypatch):
    true_gamma = tridephase.reservoir.gamma

    def negated(res, t, method):
        return -true_gamma(res, t, method)

    monkeypatch.setattr(tridephase.reservoir, "gamma", negated)
    code, out, _ = run(capsys, ["selfcheck"])
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("setting, key", [
    ("eta=NaN", "eta"),
    ("x=NaN", "x"),
    ("t_stop=Infinity", "t_stop"),
    ("beta_a=-Infinity", "beta_a"),
    # integers that no float holds: float() overflows
    pytest.param("x=1" + "0" * 400, "x", id="x=10**400-x"),
    pytest.param("eta=-1" + "0" * 400, "eta", id="eta=-10**400-eta"),
    pytest.param("beta_a=1" + "0" * 400, "beta_a", id="beta_a=10**400-beta_a"),
])
def test_non_finite_config_number_names_its_key(capsys, setting, key):
    code, out, err = run(capsys, ["measure", "--set", setting, "--set", "t_count=3"])
    assert code == 1
    assert out == ""
    assert f"config key {key!r} must be finite" in err


def test_beta_a_infinity_still_means_zero_temperature(capsys):
    code, out, _ = run(capsys, ["measure", "--set", "beta_a=Infinity", "--set", "t_count=3"])
    assert code == 0
    _, quoted, _ = run(capsys, ["measure", "--set", "beta_a=inf", "--set", "t_count=3"])
    assert out == quoted
    assert all(row["beta_a"] == "inf" and row["error"] == "" for row in read_csv(out))


def test_sweep_timescale_columns_follow_their_curves(capsys):
    # duplicate x values and per-row errors (GMC of the W state) included
    settings = [
        "--set", "state=w", "--set", "x=[0.6, 0.6, 0.9]", "--set", "eta=[0.1, 0.3]",
        "--set", "method=low_t", "--set", "beta_a=100", "--set", "t_count=5",
        "--set", "t_stop=3", "--set", 'measures=["gmc", "negativity_a_bc"]',
    ]
    code, out, _ = run(capsys, ["sweep", "--set", "timescales=true"] + settings)
    assert code == 0
    code, ts_out, _ = run(capsys, ["timescales"] + settings)
    assert code == 0
    sweep_rows, ts_rows = read_csv(out), read_csv(ts_out)
    assert len(ts_rows) == 12 and len(sweep_rows) == 5 * len(ts_rows)
    assert any(row["error"] for row in ts_rows) and not all(row["error"] for row in ts_rows)
    columns = list(PARAM_FIELDS) + ["measure", "t_p", "t_c", "t_c_reached", "freezing_count"]
    for k, ts in enumerate(ts_rows):
        for row in sweep_rows[5 * k : 5 * k + 5]:
            assert [row[c] for c in columns] == [ts[c] for c in columns]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_rows_carry_their_curves_timescale_error(capsys, fmt):
    # gmc of x = 0.3 is 0 from the start: no row fails, the time scales do
    settings = ["--set", "x=0.3", "--set", "t_count=2", "--format", fmt]
    code, out, _ = run(capsys, ["sweep", "--set", "timescales=true", *settings])
    assert code == 0
    code, ts_out, _ = run(capsys, ["timescales", *settings])
    assert code == 0
    rows, ts_rows = (read_csv(text) if fmt == "csv" else json.loads(text) for text in (out, ts_out))
    (ts_row,) = ts_rows
    assert ts_row["error"] == "NoCorrelationError: measure starts at 0.0; no preservation time exists"
    assert len(rows) == 2 and all(row["error"] == ts_row["error"] for row in rows)


@pytest.mark.parametrize("command", ["evolve", "measure", "timescales", "sweep"])
def test_time_grid_errors_name_their_keys(capsys, command):
    code, _, err = run(capsys, [command, "--set", "t_start=2", "--set", "t_stop=1"])
    assert code == 1
    assert err == "error: config key 't_stop': need t_stop > t_start >= 0, got 2.0, 1.0\n"
    code, _, err = run(capsys, [command, "--set", "t_count=1"])
    assert code == 1
    assert err == "error: config key 't_count': t_count must be an integer >= 2 and <= 100000, got 1\n"


@pytest.mark.parametrize("t_count", [analysis.MAX_T_COUNT, analysis.MAX_T_COUNT + 1, 10**400])
def test_t_count_has_an_upper_bound(capsys, t_count):
    settings = ["--set", f"t_count={t_count}"]
    if t_count <= analysis.MAX_T_COUNT:
        # the grid is built and checked; running it would hold 100 MB per stack
        assert _parse_run(load_config(None, settings[1:])).t_count == t_count
        return
    # beyond it, the grid is rejected before any time array is made
    code, out, err = run(capsys, ["measure", *settings])
    assert (code, out) == (1, "")
    assert err == (
        "error: config key 't_count': t_count must be an integer >= 2 and <= 100000, "
        f"got {t_count}\n"
    )


def test_float_texts_write_17_digits_and_every_zero_as_0():
    values = [0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1e-300, -1e-300, 0.1]
    assert _float_texts(values) == [f"{value + 0.0:.17g}" for value in values]
    assert _float_texts(values)[:2] == ["0", "0"]
    assert _float_texts(np.array(values)) == _float_texts(values)  # numpy floats too


@pytest.mark.parametrize("setting, message", [
    ("t_count=abc", "t_count must be an integer >= 2 and <= 100000, got 'abc'"),
    ("t_count=[3]", "t_count must be an integer >= 2 and <= 100000, got [3]"),
    ("epsilon=1.5", "epsilon must lie in (0, 1), got 1.5"),
    ("omega_sq_b=-1", "omega_sq_b must be positive, got -1.0"),
], ids=["t_count_str", "t_count_list", "epsilon", "omega_sq_b"])
def test_grid_rule_errors_name_their_keys(capsys, setting, message):
    code, out, err = run(capsys, ["timescales", "--set", setting])
    assert code == 1
    assert out == ""
    key = setting.partition("=")[0]
    assert err == f"error: config key {key!r}: {message}\n"


@pytest.mark.parametrize("settings, key, message", [
    (["omega_c=1e-10", "beta_a=1e308", "method=quadrature"], "beta_a",
     "beta_a / omega_c = 1e+308 / 1e-10 rounds to inf"),
    (["omega_c=1e-10", "t_stop=1e308"], "t_stop",
     "t_stop / omega_c = 1e+308 / 1e-10 rounds to inf"),
    (["omega_c=1e10", "t_stop=1e-320"], "t_stop",
     "t_stop / omega_c = 1e-320 / 10000000000.0 rounds to 0.0"),
    (["omega_c=1e10", "beta_a=1e-320", "method=quadrature"], "beta_a",
     "beta_a / omega_c = 1e-320 / 10000000000.0 rounds to 0.0"),
], ids=["beta_a_inf", "t_stop_inf", "t_stop_zero", "beta_a_zero"])
def test_unit_conversion_that_rounds_away_names_its_key(capsys, settings, key, message):
    argv = ["measure", "--set", "t_count=3"]
    for setting in settings:
        argv += ["--set", setting]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: config key {key!r}: {message}\n"


@pytest.mark.parametrize("omega_c", ["1e153", "1e200", "1e308"])
def test_quadrature_cutoff_whose_square_overflows_names_omega_c(capsys, omega_c):
    # 60 omega_c squared is inf: quadrature gave gmc 0.65 at t > 0 at 1e200
    # and a math domain error at 1e308 instead of refusing the run
    argv = ["measure", "--set", f"omega_c={omega_c}", "--set", "beta_a=1", "--set", "t_count=3"]
    code, out, err = run(capsys, [*argv, "--set", "method=quadrature"])
    assert (code, out) == (1, "")
    cutoff = 60.0 * float(omega_c)
    assert err == (
        f"error: config key 'omega_c': quadrature needs a support cutoff whose square is finite, "
        f"got {cutoff!r} (60 omega_c for an Ohmic density)\n"
    )
    code, out, _ = run(capsys, [*argv, "--set", "method=exact"])
    assert code == 0
    assert [row["value"] for row in read_csv(out)] == ["0.64999999999999991", "0", "0"]


def test_quadrature_cutoff_whose_continuation_point_underflows_names_omega_c(capsys):
    # omega_eps = 1e-168 squared to 0: every row printed nan and a
    # ZeroDivisionError, and the command exited 0
    argv = ["measure", "--set", "omega_c=1e-160", "--set", "beta_a=1", "--set", "t_count=3"]
    code, out, err = run(capsys, [*argv, "--set", "method=quadrature"])
    assert (code, out) == (1, "")
    assert err == (
        "error: config key 'omega_c': quadrature needs a support cutoff whose flat-continuation"
        " point squares to a normal float (a cutoff above about 8.95e-145), got 6e-159"
        " (60 omega_c for an Ohmic density)\n"
    )
    code, out, _ = run(capsys, [*argv, "--set", "method=exact"])
    assert code == 0
    assert [row["value"] for row in read_csv(out)] == ["0.64999999999999991", "0", "0"]


@pytest.mark.parametrize("command", ["evolve", "measure"])
@pytest.mark.parametrize("settings, key, message", [
    (["omega_c=2", "beta_a=-1", "method=exact"], "beta_a", "beta_a must be positive, got -1.0"),
    (["omega_c=4", "beta_a=1e-300", "k1=1e-30", "method=low_t"], "k1",
     "k1 * beta_a = 1e-30 * 1e-300 rounds to 0.0, not a positive finite inverse temperature"),
], ids=["beta_a_negative", "k1_underflow"])
def test_rejected_run_value_is_quoted_as_configured(capsys, command, settings, key, message):
    # at omega_c != 1 the message quotes beta_a as written, not beta_a / omega_c
    argv = [command, "--set", "t_count=3"]
    for setting in settings:
        argv += ["--set", setting]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: config key {key!r}: {message}\n"


def test_evolve_reports_a_failed_gamma_as_an_error(capsys):
    code, out, err = run(capsys, [
        "evolve", "--set", "method=quadrature", "--set", "beta_a=1e-3", "--set", "eta=50",
        "--set", "t_stop=1e5", "--set", "t_count=3",
    ])
    assert code == 1
    assert out == ""
    assert err.startswith("error: decoherence integral did not converge")


def test_grid_rows_carry_a_nan_gamma_under_its_method(capsys):
    # 1 / beta_a overflows while t / beta_a stays finite: the thermal term of
    # `exact` is NaN there
    code, out, err = run(capsys, [
        "measure", "--set", "method=exact", "--set", "beta_a=1e-310", "--set", "t_stop=0.01",
        "--set", "t_count=3",
    ])
    assert code == 0 and err == ""
    rows = read_csv(out)
    assert len(rows) == 3  # default measure gmc, one row per time
    for row in rows:
        assert row["value"] == "nan"
        assert row["error"].startswith("MethodError: method exact gives Gamma = nan at t = ")


@pytest.mark.parametrize("settings", [
    ["--set", "beta_a=1e-308"],
    ["--set", "beta_a=1e-310", "--set", "omega_c=1e-10"],
])
def test_exact_gamma_is_full_damping_where_t_over_beta_overflows(capsys, settings):
    argv = ["measure", "--set", "method=exact", *settings, "--set", "t_count=3"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    rows = read_csv(out)
    assert [row["error"] for row in rows] == [""] * 3
    assert [row["value"] for row in rows[1:]] == ["0", "0"]


@pytest.mark.parametrize("settings", [
    ["--set", "t_stop=1e160", "--set", "t_count=2"],
    ["--set", "method=low_t", "--set", "beta_a=1e-300", "--set", "t_stop=1e10", "--set", "t_count=3"],
])
def test_uncoupled_bath_rows_carry_no_error(capsys, settings):
    # the log terms overflow to inf here; eta = 0 must not turn them into a NaN Gamma
    code, out, err = run(capsys, ["measure", "--set", "eta=0", *settings])
    assert code == 0 and err == ""
    rows = read_csv(out)
    assert len(rows) == int(settings[-1].split("=")[1])
    for row in rows:
        assert row["error"] == ""
        assert float(row["value"]) == pytest.approx(0.65, rel=1e-14)  # x - 3(1 - x)/4 at x = 0.8


def test_unwritable_output_file_is_an_error(capsys, tmp_path):
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, ["measure", "--set", "t_count=3", "--out", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write output file: ")
    assert not path.exists()



def test_reader_that_closes_the_pipe_ends_the_run_without_a_traceback():
    # about 2 MB of rows, far more than a pipe buffers, so a write meets the closed pipe
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "tridephase.cli", "measure", "--set", "t_count=20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline().startswith(b"state,x,eta,")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err, err

def test_timescales_kept_for_a_curve_dead_at_its_first_sample(capsys):
    # the GMC dies before t_start = 2, so every grid sample is 0
    code, out, _ = run(capsys, [
        "timescales", "--set", "x=[0.6,0.9]", "--set", "eta=0.4", "--set", "t_start=2",
        "--set", "t_stop=5", "--set", "t_count=5",
    ])
    assert code == 0
    rows = read_csv(out)
    assert [float(row["x"]) for row in rows] == [0.6, 0.9]
    for row in rows:
        closed = preservation_time_zero_t(float(row["x"]), 0.4, 12.0, 1.0)
        assert float(row["t_p"]) == pytest.approx(closed, rel=ROOT_REL_TOL)
        assert row["t_c_reached"] == "true"
        assert row["freezing_count"] == "0" and row["error"] == ""


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_bytes_match_golden_file(capsys, name):
    code, out, err = run(capsys, GOLDEN_RUNS[name])
    assert code == 0, err
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


CELLS = st.one_of(
    st.text(alphabet=st.sampled_from('ab ,"\r\n;\'|:'), max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.integers(),
)


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324]),
)
ERROR_TEXTS = st.text(alphabet=st.sampled_from('ab ,"\r\n:'), min_size=1, max_size=6)


@st.composite
def error_columns(draw, n):
    """A curve's error column: empty cells with an error text on one row."""
    errors = [""] * n
    errors[draw(st.integers(0, n - 1))] = draw(ERROR_TEXTS)
    return errors


@st.composite
def tables(draw):
    """Field names and curves of random cells, as (heads, floats, columns, tail).

    A float column holds floats only; one float column object may serve
    several curves, as the time grid does, or an equal copy of it, as equal
    measures do, and one head may serve several, as a stack's parameters
    do.  Another column is drawn cell by cell, as one object on every row,
    or as an error column with an error in mid-curve.
    """
    n = draw(st.integers(1, 4))
    floats = st.lists(FLOATS, min_size=n, max_size=n)
    column = st.one_of(
        st.lists(CELLS, min_size=n, max_size=n), CELLS.map(lambda cell: [cell] * n), error_columns(n),
    )
    shared = draw(floats)
    head = st.lists(CELLS, max_size=3).map(tuple)
    shared_head = draw(head)
    curves = []
    for _ in range(draw(st.integers(1, 3))):
        heads = draw(st.lists(st.one_of(head, st.just(shared_head)), max_size=2))
        # the shared column itself, or an equal copy whose zeros may change sign
        copies = st.sampled_from([list, lambda c: [0.0 if v == 0.0 else v for v in c]])
        shared_or_equal = st.one_of(st.just(shared), copies.map(lambda copy: copy(shared)))
        float_columns = draw(st.lists(st.one_of(floats, shared_or_equal), max_size=3))
        columns = draw(st.lists(column, min_size=0 if float_columns else 1, max_size=3))
        tail = tuple(draw(st.lists(CELLS, max_size=3)))
        cells = sum(map(len, heads)) + len(float_columns) + len(columns) + len(tail)
        if cells < 2:  # two cells or more
            columns.append(draw(column))
        curves.append((heads, float_columns, columns, tail))
    fieldnames = draw(st.lists(st.text(alphabet=st.sampled_from('ab ,"\r\n'), max_size=4), min_size=2))
    return fieldnames, curves


def csv_writer_line(cells) -> str:
    """One row as csv.writer writes it, ended by a line feed.  It is written
    with a CR LF terminator, with which csv.writer quotes a lone CR on every
    Python (with an LF terminator, only from 3.13), and that is stripped."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\r\n").writerow(cells)
    return line.getvalue()[:-2] + "\n"


@settings(max_examples=400, deadline=None)
@given(tables())
def test_csv_output_equals_csv_writer(table):
    fieldnames, curves = table
    expected = [csv_writer_line(fieldnames)]
    for heads, floats, columns, tail in curves:
        for row in zip(*floats, *columns):
            cells = (*itertools.chain(*heads), *row, *tail)
            expected.append(csv_writer_line([_fmt(cell) for cell in cells]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(fieldnames, curves, SimpleNamespace(format="csv", out=None))
    assert out.getvalue() == "".join(expected)


def test_csv_quoting_is_the_same_on_every_python():
    # literal texts, so each Python checks the same bytes: a \r is quoted
    # (csv.writer leaves it bare before 3.13), and a NUL in a text that needs
    # quotes is quoted (csv.writer raises on 3.10)
    texts = ["a\rb", 'q"', "", "a\x00b,", "plain"]
    assert _csv_texts(texts) == ['"a\rb"', '"q"""', "", '"a\x00b,"', "plain"]
    assert _csv_texts(["a\rb", "x"]) == ['"a\rb"', "x"]
    # a row of such cells reads back whole; csv.reader rejects a NUL on 3.10
    cells = ["a\rb", 'q"', "", "a\nb,", "plain"]
    out, args = io.StringIO(), SimpleNamespace(format="csv", out=None)
    with contextlib.redirect_stdout(out):
        _emit(["h"] * 5, [((), [], [[cell] for cell in cells], ())], args)
    assert list(csv.reader(io.StringIO(out.getvalue(), newline=""))) == [["h"] * 5, cells]


def test_an_error_text_that_needs_quotes_reads_back(capsys, monkeypatch):
    message = 'bad cell, "quoted"\nsecond line'

    def raising(rho):
        raise ShapeError(message)

    monkeypatch.setitem(analysis.MEASURES, "gmc", raising)
    code, out, err = run(capsys, ["measure", "--set", "x=[0.5,0.9]", "--set", "t_count=3"])
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out, newline="")))
    assert len(rows) == 6
    assert all(row["error"] == f"ShapeError: {message}" for row in rows)
    assert all(row["value"] == "nan" and row["measure"] == "gmc" for row in rows)


class CountingStdout:
    """A stdout stand-in that counts its write calls."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("command, fmt, writes", [
    ("measure", "csv", 1 + 4),  # the header, then one write per curve
    ("sweep", "csv", 1 + 4),
    ("timescales", "csv", 1 + 4),
    ("measure", "json", 1),  # one document
    ("evolve", "csv", 1 + 1),  # evolve prints one curve
    ("evolve", "json", 1),
])
def test_output_is_written_one_curve_at_a_time(monkeypatch, command, fmt, writes):
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    grid = [] if command == "evolve" else [
        "--set", "x=[0.5,0.9]", "--set", 'measures=["gmc","l1_coherence"]',
    ]
    assert main([command, "--format", fmt, "--set", "t_count=5", *grid]) == 0
    assert len(stdout.writes) == writes


def test_equal_value_columns_are_formatted_once(monkeypatch, capsys):
    # on GHZ-Werner states the tripartite negativity and the three cut
    # negativities are equal columns, so of a stack's six value columns three
    # are formatted, and the time grid once for the whole table
    real_float_texts = cli._float_texts
    columns = []

    def counting(values):
        if len(values) == 5:
            columns.append(values)
        return real_float_texts(values)

    monkeypatch.setattr(cli, "_float_texts", counting)
    measures = ["gmc", "tripartite_negativity", "negativity_a_bc", "negativity_b_ac",
                "negativity_c_ab", "l1_coherence"]
    argv = ["measure", "--set", "x=[0.5,0.9]", "--set", "t_count=5", "--set", "eta=0.3",
            "--set", f"measures={json.dumps(measures)}"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 6 * 5
    assert len(columns) == 1 + 2 * 3


@pytest.mark.parametrize("command", ["measure", "timescales", "sweep"])
def test_a_stacks_parameter_cells_are_formatted_once(monkeypatch, capsys, command):
    # 2 x times 2 eta make 4 stacks, each of three measures: one head text per stack
    real_csv_texts = cli._csv_texts
    heads = []

    def counting(column):
        if len(column) == len(PARAM_FIELDS):
            heads.append(tuple(column))
        return real_csv_texts(column)

    monkeypatch.setattr(cli, "_csv_texts", counting)
    argv = [command, "--set", "x=[0.5,0.9]", "--set", "eta=[0.1,0.2]", "--set", "t_count=5",
            "--set", 'measures=["gmc","l1_coherence","tripartite_negativity"]']
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) > 12
    assert len(heads) == len(set(heads)) == 4
