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
from .evolution import dephasing_factors, evolve
from .exceptions import ParameterError, TridephaseError
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

    The CLI parses JSON types and converts config units; SweepGrid owns
    every range rule, reported by _keyed under its key.  Two checks stay
    here: omega_c > 0 must hold before the unit division, and
    t_stop > t_start >= 0 is stated in config units.
    """
    omega_c = _as_float(config["omega_c"], "omega_c")
    if omega_c <= 0:
        raise ConfigError("config key 'omega_c' must be positive")
    method = _METHODS[_as_choice(config["method"], "method", _METHODS)]
    beta_as = [_natural_units(b, "beta_a", omega_c) for b in _as_list(config["beta_a"], "beta_a")]
    _check_method_temperature(method, beta_as)
    t_start = _as_float(config["t_start"], "t_start")
    t_stop = _as_float(config["t_stop"], "t_stop")
    if not t_stop > t_start >= 0:
        raise ConfigError("config keys 't_start'/'t_stop' must satisfy t_stop > t_start >= 0")
    omega_keys = ("omega_sq_a", "omega_sq_b", "omega_sq_c")
    return _keyed(
        {k: config[k] for k in ("t_count", "epsilon", "t_start", "t_stop", *omega_keys)},
        analysis.SweepGrid,
        xs=_as_list(config["x"], "x"),
        etas=_as_list(config["eta"], "eta"),
        beta_as=beta_as,
        k1s=_as_list(config["k1"], "k1"),
        k2s=_as_list(config["k2"], "k2"),
        t_start=_natural_units(t_start, "t_start", omega_c),
        t_stop=_natural_units(t_stop, "t_stop", omega_c),
        t_count=config["t_count"],
        omega_sqs=tuple(_as_float(config[key], key) for key in omega_keys),
        method=method,
        state=_as_choice(config["state"], "state", analysis.STATES),
        omega_c=omega_c,
        **grid_options,
    )


def _natural_units(value: float, key: str, omega_c: float) -> float:
    """value / omega_c; a finite nonzero value that rounds to 0 or inf is rejected."""
    quotient = value / omega_c
    if value != 0 and math.isfinite(value) and not 0 < abs(quotient) < math.inf:
        message = f"{key} / omega_c = {value!r} / {omega_c!r} rounds to {quotient!r}"
        raise ConfigError(f"config key {key!r}: {message}")
    return quotient


def _check_method_temperature(method: GammaMethod, beta_values: list[float]) -> None:
    if method is GammaMethod.ZERO_T_CLOSED_FORM and any(math.isfinite(b) for b in beta_values):
        raise ConfigError("config key 'method': zero_t requires beta_a = \"inf\"")
    if method is GammaMethod.LOW_T_CLOSED_FORM and any(math.isinf(b) for b in beta_values):
        raise ConfigError("config key 'method': low_t requires a finite beta_a")


def _write_rows(rows, fieldnames: list[str], out, fmt: str) -> None:
    """Write (prefix, rest) rows; a curve's rows share one prefix object."""
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fieldnames)
        prefix, cells = None, []
        for head, rest in rows:
            if head is not prefix:
                prefix, cells = head, [_fmt(value) for value in head]
            writer.writerow(cells + [_fmt(value) for value in rest])
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


def _config_units(value: float, omega_c: float) -> float:
    """A time or inverse temperature in units of 1/omega_c; inf and nan pass through."""
    return value * omega_c if math.isfinite(value) else value


def _config_times(config: dict, grid: analysis.SweepGrid) -> list[float]:
    """The t column: linspace(t_start, t_stop, t_count) in config units.

    grid.times() * omega_c would not give back the configured end points
    when omega_c is not a power of two.
    """
    t_start, t_stop = (float(config[key]) for key in ("t_start", "t_stop"))
    return np.linspace(t_start, t_stop, grid.t_count).tolist()


def _keyed(values: dict, build, *args, **kwargs):
    """build(*args, **kwargs), with a ParameterError reported as a ConfigError naming a key.

    `values` maps the config keys that the arguments came from to their
    values.  Of the keys the message names, in its order, the first one
    whose value is not a positive number is named, else the first one
    named; a message that names none is put on the first key of `values`.
    """
    try:
        return build(*args, **kwargs)
    except ParameterError as exc:
        named = [word for word in str(exc).replace(",", " ").split() if word in values]
        named = named or list(values)
        # False sorts first: the first named key that is not a positive number
        key = min(named, key=lambda k: isinstance(values[k], (int, float)) and values[k] > 0)
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def cmd_evolve(config: dict, args) -> int:
    for key in ("x", "eta", "beta_a", "k1", "k2"):
        if isinstance(config[key], (list, tuple)):
            raise ConfigError(f"config key {key!r} must be a scalar for the evolve command")
    grid = _parse_run(config)
    (x,), (eta,), (beta_a,), (k1,), (k2,) = grid.xs, grid.etas, grid.beta_as, grid.k1s, grid.k2s
    omega_c = grid.omega_c
    times = grid.times()

    rho0 = _keyed({"x": x}, werner, analysis.STATES[grid.state](), x)
    omegas = tuple(math.sqrt(v) for v in grid.omega_sqs)
    reservoirs = _keyed(
        {"eta": eta, "beta_a": beta_a, "k1": k1, "k2": k2},
        analysis.make_reservoirs, eta, omega_c, beta_a, k1, k2, omegas,
    )
    evolved = evolve(rho0, dephasing_factors(reservoirs, times, grid.method))
    # re_ij and im_ij side by side, row-major over (i, j)
    elements = np.stack([evolved.real, evolved.imag], axis=-1).reshape(len(times), 128)
    fields = ["t"] + [f"{part}_{i}{j}" for i in range(8) for j in range(8) for part in ("re", "im")]
    rows = [((), (t, *row)) for t, row in zip(_config_times(config, grid), elements.tolist())]
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
    omega_c = grid.omega_c
    curves = analysis.run_sweep(grid)
    times = _config_times(config, grid)
    # freezing intervals run between grid times, printed as configured
    config_time = dict(zip(grid.times().tolist(), times))
    fields = [*PARAM_FIELDS, "measure"] + (["t", "value"] if per_time else [])
    if timescales:
        fields += ["t_p", "t_c", "t_c_reached", "freezing_count"]
    fields += ["error"] if per_time else ["freezing_intervals", "error"]

    def rows():
        for curve in curves:
            p = curve.parameters
            prefix = (
                p["state"], p["x"], p["eta"], _config_units(p["beta_a"], omega_c),
                p["k1"], p["k2"], *grid.omega_sqs, p["omega_c"], p["method"], curve.name,
            )
            columns = ()
            if timescales:
                ts = curve.timescales
                columns = (
                    _config_units(ts.t_p, omega_c), _config_units(ts.t_c, omega_c),
                    ts.t_c_reached, len(ts.freezing),
                )
            if per_time:
                for t, value, error in zip(times, curve.values, curve.errors):
                    yield prefix, (t, value, *columns, error or "")
            else:
                intervals = "|".join(
                    f"{config_time[a]:.17g}:{config_time[b]:.17g}" for a, b in ts.freezing
                )
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
    except (ConfigError, TridephaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
