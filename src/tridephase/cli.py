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
import os
import sys

import numpy as np

from . import analysis, oracles
from .evolution import dephasing_factors, evolve
from .exceptions import MethodError, ParameterError, TridephaseError
from .reservoir import GammaMethod

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


class ConfigError(Exception):
    """A configuration the run cannot use; the message names the key where it can."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0  # canonicalize -0.0
        return f"{value:.17g}"
    return str(value)


def load_config(path: str | None, overrides: list[str]) -> dict:
    """DEFAULT_CONFIG updated by the config file, then by each --set key=value."""
    items = []
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
        items += loaded.items()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings like inf or ghz
        items.append((key.strip(), value))
    config = dict(DEFAULT_CONFIG)
    for key, value in items:
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"unknown config key {key!r}")
        config[key] = value
    return config


def _as_list(value, key: str, parse) -> list[float]:
    values = value if isinstance(value, (list, tuple)) else [value]
    out = [parse(v, key) for v in values]
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


def _as_choice(value, key: str, choices) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"config key {key!r} must be one of {sorted(choices)}, got {value!r}")
    return value


def _as_bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
    return value


def _parse_run(config: dict, **grid_options) -> analysis.SweepGrid:
    """The SweepGrid of the keys every command reads plus `grid_options`.

    The CLI parses JSON types and passes the values on in config units,
    which are the grid's; SweepGrid checks every run value, reported by
    _keyed under its key.
    """
    method = _METHODS[_as_choice(config["method"], "method", _METHODS)]
    omega_keys = ("omega_sq_a", "omega_sq_b", "omega_sq_c")
    return _keyed(
        ("x", "eta", "beta_a", "k1", "k2", "method", "t_count", "epsilon", "t_start", "t_stop",
         *omega_keys, "omega_c"),
        analysis.SweepGrid,
        xs=_as_list(config["x"], "x", _as_float),
        etas=_as_list(config["eta"], "eta", _as_float),
        beta_as=_as_list(config["beta_a"], "beta_a", _as_beta),
        k1s=_as_list(config["k1"], "k1", _as_float),
        k2s=_as_list(config["k2"], "k2", _as_float),
        t_start=_as_float(config["t_start"], "t_start"),
        t_stop=_as_float(config["t_stop"], "t_stop"),
        t_count=config["t_count"],
        omega_sqs=tuple(_as_float(config[key], key) for key in omega_keys),
        method=method,
        state=_as_choice(config["state"], "state", analysis.STATES),
        omega_c=_as_float(config["omega_c"], "omega_c"),
        **grid_options,
    )


def _csv_cells(values) -> str:
    """The CSV text of `values`, each cell followed by a comma; '' for none."""
    if not values:
        return ""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=",").writerow([_fmt(value) for value in values])
    return buffer.getvalue()


def _write_rows(rows, fieldnames: list[str], out, fmt: str) -> None:
    """Write (prefix, rest) rows; a curve's rows share one prefix object.

    In CSV the prefix is formatted once per curve and written before each
    of its rows; a string cell is written as it is.
    """
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fieldnames)
        prefix, text = None, ""
        for head, rest in rows:
            if head is not prefix:
                prefix, text = head, _csv_cells(head)
            out.write(text)
            writer.writerow([_fmt(value) for value in rest])
    else:
        payload = []
        for head, rest in rows:
            item = {}
            for name, value in zip(fieldnames, head + rest):
                if isinstance(value, float) and not math.isfinite(value):
                    item[name] = None
                    if math.isinf(value):
                        item[name + "_infinite"] = True
                else:
                    item[name] = value
            payload.append(item)
        json.dump(payload, out, indent=2)
        out.write("\n")


def _emit(rows, fieldnames: list[str], args) -> None:
    if args.out is None:
        _write_rows(rows, fieldnames, sys.stdout, args.format)
        return
    buffer = io.StringIO()
    _write_rows(rows, fieldnames, buffer, args.format)
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(buffer.getvalue())
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


def _keyed(keys: tuple[str, ...], build, *args, **kwargs):
    """build(*args, **kwargs), with a bad value reported as a ConfigError naming a key.

    A ParameterError or MethodError is put on the first of `keys` that its
    message names, in the message's order, else on keys[0].
    """
    try:
        return build(*args, **kwargs)
    except (ParameterError, MethodError) as exc:
        named = [word for word in str(exc).replace(",", " ").split() if word in keys]
        key = (named or keys)[0]
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def cmd_evolve(config: dict, args) -> int:
    for key in ("x", "eta", "beta_a", "k1", "k2"):
        if isinstance(config[key], (list, tuple)):
            raise ConfigError(f"config key {key!r} must be a scalar for the evolve command")
    grid = _parse_run(config)
    (rho0,), (reservoirs,) = grid.initial_states, grid.reservoir_sets
    evolved = evolve(rho0, dephasing_factors(reservoirs, grid.channel_times(), grid.method))
    # re_ij and im_ij side by side, row-major over (i, j)
    elements = np.stack([evolved.real, evolved.imag], axis=-1).reshape(grid.t_count, 128)
    fields = ["t"] + [f"{part}_{i}{j}" for i in range(8) for j in range(8) for part in ("re", "im")]
    rows = [((), (t, *row)) for t, row in zip(grid.times().tolist(), elements.tolist())]
    _emit(rows, fields, args)
    return 0


def _curve_table(config: dict, args, per_time: bool, timescales: bool) -> int:
    """Write one row per curve, or per curve and time, from one run_sweep call.

    A row is (prefix, rest): the prefix holds the parameter columns and the
    measure name and is shared by every row of its curve.
    """
    measures = config["measures"]
    if not isinstance(measures, list) or not measures:
        raise ConfigError("config key 'measures' must be a nonempty list")
    for name in measures:
        _as_choice(name, "measures", analysis.MEASURES)
    epsilon = _as_float(config["epsilon"], "epsilon")
    grid = _parse_run(
        config, measures=tuple(measures), include_timescales=timescales, epsilon=epsilon
    )
    curves = analysis.run_sweep(grid)
    times = grid.times().tolist()
    if args.format == "csv":  # each time's text serves every curve
        times = [_fmt(t) for t in times]
    fields = [*PARAM_FIELDS, "measure"] + (["t", "value"] if per_time else [])
    if timescales:
        fields += ["t_p", "t_c", "t_c_reached", "freezing_count"]
    fields += ["error"] if per_time else ["freezing_intervals", "error"]

    def rows():
        for curve in curves:
            p = curve.parameters
            prefix = (
                p["state"], p["x"], p["eta"], p["beta_a"],
                p["k1"], p["k2"], *grid.omega_sqs, p["omega_c"], p["method"], curve.name,
            )
            columns = ()
            if timescales:
                ts = curve.timescales
                columns = (ts.t_p, ts.t_c, ts.t_c_reached, len(ts.freezing))
            if per_time:
                for t, value, error in zip(times, curve.values, curve.errors):
                    yield prefix, (t, value, *columns, error or "")
            else:
                intervals = "|".join(f"{a:.17g}:{b:.17g}" for a, b in ts.freezing)
                yield prefix, (*columns, intervals, ts.error or "")

    _emit(rows(), fields, args)
    return 0


def cmd_measure(config: dict, args) -> int:
    return _curve_table(config, args, per_time=True, timescales=False)


def cmd_timescales(config: dict, args) -> int:
    return _curve_table(config, args, per_time=False, timescales=True)


def cmd_sweep(config: dict, args) -> int:
    timescales = _as_bool(config["timescales"], "timescales")
    return _curve_table(config, args, per_time=True, timescales=timescales)


def cmd_selfcheck(args) -> int:
    failures = 0
    for name, check, label, tolerance in oracles.SELFCHECKS:
        try:
            achieved = check()
            ok = achieved < tolerance
        except Exception as exc:
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {label} {achieved:.3e} (tolerance {tolerance:.1e})")
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


def _run(args) -> int:
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
    except (ConfigError, TridephaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a reader that has gone raises here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull, so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
