"""Command-line front-end: evolve | measure | timescales | sweep | selfcheck.

Configuration is a single JSON document; every key can also be overridden
on the command line with --set key=value.  Times and inverse temperatures
are interpreted in units of 1/omega_c (with the default omega_c = 1 they
are absolute).  Output is CSV (17 significant digits, '.') or a JSON array
of row objects, written to --out or standard output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import analysis, oracles
from .evolution import QubitTriple, dephasing_factors, evolve
from .reservoir import GammaMethod
from .states import werner

DEFAULT_CONFIG = {
    "state": "ghz",
    "x": 0.8,
    "eta": 0.2,
    "omega_c": 1.0,
    "omega_sq_a": 4.0,
    "omega_sq_b": 4.0,
    "omega_sq_c": 4.0,
    "beta_a": "inf",
    "k1": 1.0,
    "k2": 1.0,
    "t_start": 0.0,
    "t_stop": 3.0,
    "t_count": 121,
    "measures": ["gmc"],
    "method": "zero_t",
    "timescales": False,
    "epsilon": 0.01,
}

_METHODS = {m.value: m for m in GammaMethod}

PARAM_FIELDS = (
    "state", "x", "eta", "beta_a", "k1", "k2",
    "omega_sq_a", "omega_sq_b", "omega_sq_c", "omega_c", "method",
)
# the PARAM_FIELDS a sweep result records; the qubit splittings come from the config
_RESULT_PARAM_FIELDS = tuple(name for name in PARAM_FIELDS if not name.startswith("omega_sq_"))


class ConfigError(Exception):
    """Raised with a message naming the offending configuration key."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0  # canonicalize -0.0
        return f"{value:.17g}"
    if isinstance(value, (int, np.integer)):
        return str(value)
    return str(value)


def load_config(path: str | None, overrides: list[str]) -> dict:
    config = dict(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config document must be a JSON object")
        for key in loaded:
            if key not in DEFAULT_CONFIG:
                raise ConfigError(f"unknown config key {key!r}")
        config.update(loaded)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            config[key] = json.loads(raw)
        except json.JSONDecodeError:
            config[key] = raw  # bare strings like inf or ghz
    return config


def _as_list(value, key: str) -> list[float]:
    values = value if isinstance(value, (list, tuple)) else [value]
    out = []
    for v in values:
        out.append(_as_beta(v, key) if key == "beta_a" else _as_float(v, key))
    if not out:
        raise ConfigError(f"config key {key!r} must not be an empty list")
    return out


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return float(value)


def _as_beta(value, key: str) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity", "zero_temperature"):
            return math.inf
        raise ConfigError(f"config key {key!r} must be a number or \"inf\", got {value!r}")
    if value == math.inf:  # JSON Infinity, like "inf", means zero temperature
        return math.inf
    return _as_float(value, key)


def _parse_common(config: dict):
    omega_c = _as_float(config["omega_c"], "omega_c")
    if omega_c <= 0:
        raise ConfigError("config key 'omega_c' must be positive")
    omega_sqs = tuple(
        _as_float(config[k], k) for k in ("omega_sq_a", "omega_sq_b", "omega_sq_c")
    )
    if any(v <= 0 for v in omega_sqs):
        raise ConfigError("config keys 'omega_sq_*' must be positive")
    method_name = config["method"]
    if method_name not in _METHODS:
        raise ConfigError(
            f"config key 'method' must be one of {sorted(_METHODS)}, got {method_name!r}"
        )
    qubits = QubitTriple(*(math.sqrt(v) for v in omega_sqs))
    return omega_c, omega_sqs, _METHODS[method_name], qubits


def _time_range(config: dict) -> tuple[float, float, int]:
    """Validated (t_start, t_stop, t_count); times in config units of 1/omega_c."""
    t_start = _as_float(config["t_start"], "t_start")
    t_stop = _as_float(config["t_stop"], "t_stop")
    t_count = config["t_count"]
    if not isinstance(t_count, int) or t_count < 2:
        raise ConfigError("config key 't_count' must be an integer >= 2")
    if not t_stop > t_start >= 0:
        raise ConfigError("config keys 't_start'/'t_stop' must satisfy t_stop > t_start >= 0")
    return t_start, t_stop, t_count


def _check_method_temperature(method: GammaMethod, beta_values: list[float]) -> None:
    if method is GammaMethod.ZERO_T_CLOSED_FORM and any(math.isfinite(b) for b in beta_values):
        raise ConfigError("config key 'method': zero_t requires beta_a = \"inf\"")
    if method is GammaMethod.LOW_T_CLOSED_FORM and any(math.isinf(b) for b in beta_values):
        raise ConfigError("config key 'method': low_t requires a finite beta_a")


def _write_rows(rows: list[dict], fieldnames: list[str], out, fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name, "")) for name in fieldnames])
    else:
        payload = []
        for row in rows:
            item = {}
            for name in fieldnames:
                value = row.get(name)
                if isinstance(value, float) and math.isinf(value):
                    item[name] = None
                    item[name + "_infinite"] = True
                elif isinstance(value, float) and math.isnan(value):
                    item[name] = None
                else:
                    item[name] = value
            payload.append(item)
        json.dump(payload, out, indent=2)
        out.write("\n")


def _emit(rows: list[dict], fieldnames: list[str], args) -> None:
    if args.out is None:
        _write_rows(rows, fieldnames, sys.stdout, args.format)
        return
    buffer = io.StringIO()
    _write_rows(rows, fieldnames, buffer, args.format)
    with open(args.out, "w", newline="") as fh:
        fh.write(buffer.getvalue())


def _config_units(value: float, omega_c: float) -> float:
    """A time or inverse temperature in units of 1/omega_c; inf and nan pass through."""
    return value * omega_c if math.isfinite(value) else value


def _param_row(params: dict, omega_sqs: tuple[float, float, float]) -> dict:
    """The PARAM_FIELDS columns of one result row; the omega_sq columns echo the config."""
    row = {name: params[name] for name in _RESULT_PARAM_FIELDS}
    row["beta_a"] = _config_units(params["beta_a"], params["omega_c"])
    row["omega_sq_a"], row["omega_sq_b"], row["omega_sq_c"] = omega_sqs
    return row


def _timescale_columns(item: analysis.TimescaleResult, omega_c: float) -> dict:
    return {
        "t_p": _config_units(item.t_p, omega_c),
        "t_c": _config_units(item.t_c, omega_c),
        "t_c_reached": item.t_c_reached,
        "freezing_count": len(item.freezing),
    }


def cmd_evolve(config: dict, args) -> int:
    omega_c, omega_sqs, method, qubits = _parse_common(config)
    for key in ("x", "eta", "beta_a", "k1", "k2"):
        if isinstance(config[key], (list, tuple)):
            raise ConfigError(f"config key {key!r} must be a scalar for the evolve command")
    x = _as_float(config["x"], "x")
    eta = _as_float(config["eta"], "eta")
    beta_a = _as_beta(config["beta_a"], "beta_a") / omega_c
    k1 = _as_float(config["k1"], "k1")
    k2 = _as_float(config["k2"], "k2")
    state = config["state"]
    if state not in analysis.STATES:
        raise ConfigError(f"config key 'state' must be one of {sorted(analysis.STATES)}")
    _check_method_temperature(method, [beta_a])
    t_start, t_stop, t_count = _time_range(config)
    times = np.linspace(t_start, t_stop, t_count) / omega_c

    omegas = (qubits.omega_a, qubits.omega_b, qubits.omega_c)
    reservoirs = analysis.make_reservoirs(eta, omega_c, beta_a, k1, k2, omegas)
    rho0 = werner(analysis.STATES[state](), x)

    element_fields = []
    for i in range(8):
        for j in range(8):
            element_fields.extend([f"re_{i}{j}", f"im_{i}{j}"])
    evolved = evolve(rho0, dephasing_factors(qubits, reservoirs, times, method))
    rows = []
    for t, rho in zip(times.tolist(), evolved):
        row = {"t": t * omega_c}
        for i in range(8):
            for j in range(8):
                row[f"re_{i}{j}"] = float(rho[i, j].real)
                row[f"im_{i}{j}"] = float(rho[i, j].imag)
        rows.append(row)
    _emit(rows, ["t"] + element_fields, args)
    return 0


def _build_grid(config: dict, omega_c: float, method: GammaMethod, include_timescales: bool):
    xs = _as_list(config["x"], "x")
    etas = _as_list(config["eta"], "eta")
    beta_as = [b / omega_c if math.isfinite(b) else b for b in _as_list(config["beta_a"], "beta_a")]
    k1s = _as_list(config["k1"], "k1")
    k2s = _as_list(config["k2"], "k2")
    _check_method_temperature(method, beta_as)
    measures = config["measures"]
    if not isinstance(measures, list) or not measures:
        raise ConfigError("config key 'measures' must be a nonempty list")
    for name in measures:
        if name not in analysis.MEASURES:
            raise ConfigError(
                f"config key 'measures': unknown measure {name!r}; "
                f"choose from {sorted(analysis.MEASURES)}"
            )
    state = config["state"]
    if state not in analysis.STATES:
        raise ConfigError(f"config key 'state' must be one of {sorted(analysis.STATES)}")
    t_start, t_stop, t_count = _time_range(config)
    epsilon = _as_float(config["epsilon"], "epsilon")
    if not 0 < epsilon < 1:
        raise ConfigError("config key 'epsilon' must lie in (0, 1)")
    try:
        return analysis.SweepGrid(
            xs=xs,
            etas=etas,
            beta_as=beta_as,
            k1s=k1s,
            k2s=k2s,
            t_start=t_start / omega_c,
            t_stop=t_stop / omega_c,
            t_count=t_count,
            measures=tuple(measures),
            method=method,
            state=state,
            omega_c=omega_c,
            include_timescales=include_timescales,
            epsilon=epsilon,
        )
    except Exception as exc:
        raise ConfigError(str(exc)) from exc


def _measure_rows(result, omega_sqs, omega_c) -> list[dict]:
    rows = []
    for item in result.measures:
        row = _param_row(item.parameters, omega_sqs)
        row.update({
            "measure": item.name,
            "t": item.t * omega_c,
            "value": item.value,
            "error": item.error or "",
        })
        rows.append(row)
    return rows


def _timescale_rows(result, omega_sqs, omega_c) -> list[dict]:
    rows = []
    for item in result.timescales:
        row = _param_row(item.parameters, omega_sqs)
        intervals = "|".join(f"{a * omega_c:.17g}:{b * omega_c:.17g}" for a, b in item.freezing)
        row.update(_timescale_columns(item, omega_c))
        row.update({
            "measure": item.name,
            "freezing_intervals": intervals,
            "error": item.error or "",
        })
        rows.append(row)
    return rows


def cmd_measure(config: dict, args) -> int:
    omega_c, omega_sqs, method, qubits = _parse_common(config)
    grid = _build_grid(config, omega_c, method, include_timescales=False)
    result = analysis.run_sweep(grid, qubits)
    fields = list(PARAM_FIELDS) + ["measure", "t", "value", "error"]
    _emit(_measure_rows(result, omega_sqs, omega_c), fields, args)
    return 0


def cmd_timescales(config: dict, args) -> int:
    omega_c, omega_sqs, method, qubits = _parse_common(config)
    grid = _build_grid(config, omega_c, method, include_timescales=True)
    result = analysis.run_sweep(grid, qubits)
    fields = list(PARAM_FIELDS) + [
        "measure", "t_p", "t_c", "t_c_reached", "freezing_count", "freezing_intervals", "error",
    ]
    _emit(_timescale_rows(result, omega_sqs, omega_c), fields, args)
    return 0


def cmd_sweep(config: dict, args) -> int:
    omega_c, omega_sqs, method, qubits = _parse_common(config)
    include_timescales = bool(config["timescales"])
    grid = _build_grid(config, omega_c, method, include_timescales=include_timescales)
    result = analysis.run_sweep(grid, qubits)
    rows = _measure_rows(result, omega_sqs, omega_c)
    fields = list(PARAM_FIELDS) + ["measure", "t", "value", "error"]
    if include_timescales:
        # run_sweep appends the k-th curve's t_count measure rows and its
        # timescale result in the same order, error curves included
        for k, ts in enumerate(result.timescales):
            columns = _timescale_columns(ts, omega_c)
            for row in rows[k * grid.t_count : (k + 1) * grid.t_count]:
                row.update(columns)
        fields = fields[:-1] + ["t_p", "t_c", "t_c_reached", "freezing_count", "error"]
    _emit(rows, fields, args)
    return 0


def cmd_selfcheck(args) -> int:
    failures = 0
    for name, check, tolerance in oracles.SELFCHECKS:
        try:
            achieved = check()
            ok = achieved < tolerance
        except Exception as exc:
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: max relative error {achieved:.3e} (tolerance {tolerance:.1e})")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tridephase",
        description="Dephasing dynamics and multipartite correlations for three qubits "
        "in independent thermal reservoirs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("evolve", "write the evolved 8x8 density matrix at each requested time"),
        ("measure", "write (t, measure, parameters) rows over the parameter grid"),
        ("timescales", "write preservation/characteristic times and freezing intervals"),
        ("sweep", "full batch run; optionally append timescale columns"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            dest="overrides",
            help="override a config key (repeatable)",
        )
    sub.add_parser("selfcheck", help="run the embedded oracle suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selfcheck":
        return cmd_selfcheck(args)
    try:
        config = load_config(args.config, args.overrides)
        if args.command == "evolve":
            return cmd_evolve(config, args)
        if args.command == "measure":
            return cmd_measure(config, args)
        if args.command == "timescales":
            return cmd_timescales(config, args)
        return cmd_sweep(config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
