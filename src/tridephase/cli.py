"""Command-line front-end: evolve | measure | timescales | sweep | selfcheck.

Configuration is a single JSON document; every key can also be overridden
on the command line with --set key=value.  Times and inverse temperatures
are interpreted in units of 1/omega_c (with the default omega_c = 1 they
are absolute).  Output is CSV (17 significant digits, '.') or a JSON array
of row objects, written to --out or standard output.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import re
import sys
from functools import partial

import numpy as np

from . import analysis, oracles
from .analysis import PARAM_FIELDS, SweepGrid
from .evolution import dephasing_factors, evolve
from .exceptions import MethodError, ParameterError, TridephaseError
from .reservoir import GammaMethod

_METHODS = {m.value: m for m in GammaMethod}

# a CSV text that holds any of these is quoted (RFC 4180)
_MAY_NEED_QUOTES = re.compile('[,"\r\n]').search


class ConfigError(Exception):
    """A configuration the run cannot use; the message names the key where it can."""


def _float_texts(values) -> list[str]:
    """Each float to 17 significant digits, 0.0 and -0.0 written as 0."""
    return ["0" if value == 0.0 else f"{value:.17g}" for value in values]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _float_texts((value,))[0]
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
    return [parse(v, key) for v in values]


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the largest float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return number


def _as_beta(value, key: str) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity", "zero_temperature"):
            return math.inf
        raise ConfigError(f"config key {key!r} must be a number or \"inf\", got {value!r}")
    if value == math.inf:  # JSON Infinity, like "inf", means zero temperature
        return math.inf
    return _as_float(value, key)


def _as_bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
    return value


def _as_method(value, key: str) -> GammaMethod:
    if not isinstance(value, str) or value not in _METHODS:
        raise ConfigError(f"config key {key!r} must be one of {sorted(_METHODS)}, got {value!r}")
    return _METHODS[value]


def _as_is(value, key: str):
    """The value as given: SweepGrid checks it."""
    return value


_floats = partial(_as_list, parse=_as_float)

# each config key: its default, its parser and the SweepGrid field it fills;
# a key the library also has takes its SweepGrid default
_CONFIG_KEYS = {
    "state": (SweepGrid.state, _as_is, "state"),
    "x": (0.8, _floats, "xs"),
    "eta": (0.2, _floats, "etas"),
    "omega_c": (SweepGrid.omega_c, _as_float, "omega_c"),
    "omega_sq_a": (4.0, _as_float, "omega_sqs"),
    "omega_sq_b": (4.0, _as_float, "omega_sqs"),
    "omega_sq_c": (4.0, _as_float, "omega_sqs"),
    "beta_a": ("inf", partial(_as_list, parse=_as_beta), "beta_as"),
    "k1": (1.0, _floats, "k1s"),
    "k2": (1.0, _floats, "k2s"),
    "t_start": (0.0, _as_float, "t_start"),
    "t_stop": (3.0, _as_float, "t_stop"),
    "t_count": (121, _as_is, "t_count"),
    "measures": (list(SweepGrid.measures), _as_is, "measures"),
    "method": (SweepGrid.method.value, _as_method, "method"),
    "timescales": (SweepGrid.include_timescales, _as_bool, "include_timescales"),
    "epsilon": (SweepGrid.epsilon, _as_float, "epsilon"),
}

DEFAULT_CONFIG = {key: default for key, (default, _, _) in _CONFIG_KEYS.items()}

# the key that each config key and each SweepGrid field it fills stands for in a message
_KEY_OF = {name: key for key, (_, _, field) in _CONFIG_KEYS.items() for name in (field, key)}


def _parse_run(config: dict, timescales: bool | None = None) -> SweepGrid:
    """The SweepGrid of every config key, with time scales as `timescales` says
    (None: as the `timescales` key says).

    Each key is parsed in table order, and its JSON type checked; the values
    go on in config units, which are the grid's.  SweepGrid checks every run
    value, and a ParameterError or MethodError is reported under the first
    key or grid field its message names, in the message's order (a field
    under the key that fills it), else under `x`.
    """
    fields = {"omega_sqs": ()}  # the one field three keys fill, in key order
    for key, (_, parse, field) in _CONFIG_KEYS.items():
        value = parse(config[key], key)
        fields[field] = fields[field] + (value,) if field == "omega_sqs" else value
    if timescales is not None:
        fields["include_timescales"] = timescales
    try:
        return SweepGrid(**fields)
    except (ParameterError, MethodError) as exc:
        named = [_KEY_OF[word] for word in str(exc).replace(",", " ").split() if word in _KEY_OF]
        raise ConfigError(f"config key {(named or ['x'])[0]!r}: {exc}") from exc


def _csv_texts(column) -> list[str]:
    """The CSV text of each cell of a column.

    A cell's text is its _fmt text, quoted when it holds a comma, a quote,
    \r or \n, with each quote doubled (RFC 4180), on every Python.  A column
    known to hold floats goes to _float_texts instead, as a float's text is
    never quoted.
    """
    texts = [cell if type(cell) is str else _fmt(cell) for cell in column]
    if not _MAY_NEED_QUOTES("".join(texts)):
        return texts
    return ['"' + text.replace('"', '""') + '"' if _MAY_NEED_QUOTES(text) else text for text in texts]


def _json_item(fieldnames: list[str], row) -> dict:
    """One JSON row object: a non-finite float is null, an infinite one also flagged."""
    item = {}
    for name, value in zip(fieldnames, row):
        if isinstance(value, float) and not math.isfinite(value):
            item[name] = None
            if math.isinf(value):
                item[name + "_infinite"] = True
        else:
            item[name] = value
    return item


def _emit(fieldnames: list[str], curves, args) -> None:
    """Write a table to --out or standard output, one curve at a time.

    `curves` yields (heads, floats, columns, tail) per curve: row i of a
    curve is the cells of each of its `heads`, cell i of each column of
    `floats` (columns of Python floats only) and then of each of `columns`,
    and its tail cells, two cells or more in all.  A curve has one column or
    more, and one row or more.  Tail cells are formatted once per curve; a
    head that the last curve had too (the same object) keeps its texts, and
    so does a float column equal (==) to one of the last curve's, as equal
    floats have one text.  CSV is the header line, then one string per curve,
    each written with one write; JSON is one document, written with one write.
    """
    out = sys.stdout if args.out is None else io.StringIO()
    if args.format == "csv":
        out.write(",".join(_csv_texts(fieldnames)) + "\n")
        last_heads = {}  # id(head) -> (head, its texts), over the last curve's heads
        last_floats = []  # (column, its texts) of each of the last curve's float columns
        for heads, floats, columns, tail in curves:
            # a stack's parameters keep their texts by identity, since equal
            # heads may print otherwise ((1,) == (True,)); holding a head keeps
            # its id from being reused.  The time grid, or a measure whose
            # values equal the last measure's, keeps its texts by equality
            last_heads = {id(h): last_heads.get(id(h)) or (h, _csv_texts(h)) for h in heads}
            last_floats = [
                (c, next((texts for kept, texts in last_floats if kept == c), None)
                 or _float_texts(c))
                for c in floats
            ]
            texts = [texts for _, texts in last_floats] + [_csv_texts(c) for c in columns]
            lead = "".join(text + "," for h in heads for text in last_heads[id(h)][1])
            end = "".join("," + text for text in _csv_texts(tail))
            # one join per curve: each cell, then what follows it, a comma or
            # the end of its row and the head of the next
            k, n = len(texts), len(texts[0])
            cells = [","] * (2 * k * n)
            for j, column in enumerate(texts):
                cells[2 * j :: 2 * k] = column
            cells[2 * k - 1 :: 2 * k] = [end + "\n" + lead] * n
            cells[-1] = end + "\n"
            out.write(lead + "".join(cells))
    else:
        payload = [
            _json_item(fieldnames, (*itertools.chain(*heads), *row, *tail))
            for heads, floats, columns, tail in curves
            for row in zip(*floats, *columns)
        ]
        out.write(json.dumps(payload, indent=2) + "\n")
    if args.out is None:
        return
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(out.getvalue())
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


def cmd_evolve(config: dict, args) -> int:
    for key in ("x", "eta", "beta_a", "k1", "k2"):
        if isinstance(config[key], (list, tuple)):
            raise ConfigError(f"config key {key!r} must be a scalar for the evolve command")
    grid = _parse_run(config)
    (rho0,), ((_, reservoirs),) = grid.initial_states, grid.reservoir_sets
    evolved = evolve(rho0, dephasing_factors(reservoirs, grid.channel_times(), grid.method))
    # re_ij and im_ij side by side, row-major over (i, j)
    elements = np.stack([evolved.real, evolved.imag], axis=-1).reshape(grid.t_count, 128)
    fields = ["t"] + [f"{part}_{i}{j}" for i in range(8) for j in range(8) for part in ("re", "im")]
    _emit(fields, [((), [grid.times().tolist(), *elements.T.tolist()], [], ())], args)
    return 0


def _curve_table(config: dict, args, per_time: bool, timescales: bool | None) -> int:
    """Write one row per curve, or per curve and time, from one run_sweep call;
    `timescales` as _parse_run takes it.

    Every curve shares one time column, and the curves of one stack share
    one parameters dict and so one head of its cells, so the texts of each
    are formatted once.
    """
    grid = _parse_run(config, timescales)
    timescales = grid.include_timescales
    curves = analysis.run_sweep(grid)
    times = grid.times().tolist()
    fields = [*PARAM_FIELDS, "measure"] + (["t", "value"] if per_time else [])
    if timescales:
        fields += ["t_p", "t_c", "t_c_reached", "freezing_count"]
    fields += ["error"] if per_time else ["freezing_intervals", "error"]

    stack_heads = {}  # id(parameters) -> its cells; `curves` holds every dict, so no id is reused

    def table(curve):
        parameters = curve.parameters
        heads = (stack_heads.setdefault(id(parameters), tuple(parameters.values())), (curve.name,))
        cells, curve_error = (), ""
        if timescales:
            ts = curve.timescales
            cells = (ts.t_p, ts.t_c, ts.t_c_reached, len(ts.freezing))
            curve_error = ts.error or ""
        if not per_time:
            intervals = "|".join(":".join(_float_texts(interval)) for interval in ts.freezing)
            return heads, [], [[cell] for cell in (*cells, intervals, curve_error)], ()
        # a row with no error of its own carries its curve's time-scale error
        if any(curve.errors):  # an error is a nonempty text; its column follows the cells
            errors = [error or curve_error for error in curve.errors]
            repeated = [[cell] * len(times) for cell in cells]
            return heads, [times, curve.values], [*repeated, errors], ()
        return heads, [times, curve.values], [], (*cells, curve_error)

    _emit(fields, map(table, curves), args)
    return 0


def cmd_measure(config: dict, args) -> int:
    return _curve_table(config, args, per_time=True, timescales=False)


def cmd_timescales(config: dict, args) -> int:
    return _curve_table(config, args, per_time=False, timescales=True)


def cmd_sweep(config: dict, args) -> int:
    return _curve_table(config, args, per_time=True, timescales=None)


def cmd_selfcheck(args) -> int:
    failures = 0
    for name, check, label, tolerance in oracles.SELFCHECKS:
        try:
            achieved = check()
            ok = achieved < tolerance
        except Exception as exc:
            print(f"FAIL {name}: {analysis._error_text(exc)}")
            failures += 1
            continue
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {label} {achieved:.3e} (tolerance {tolerance:.1e})")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


# the commands that read a config, with their help; `_run` looks up cmd_<name>
# when it runs, so a replaced cli.cmd_<name> is the one called
_COMMANDS = {
    "evolve": "write the evolved 8x8 density matrix at each requested time",
    "measure": "write (t, measure, parameters) rows over the parameter grid",
    "timescales": "write preservation/characteristic times and freezing intervals",
    "sweep": "full batch run; optionally append timescale columns",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tridephase",
        description="Dephasing dynamics and multipartite correlations for three qubits "
        "in independent thermal reservoirs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
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
        return globals()[f"cmd_{args.command}"](config, args)
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
