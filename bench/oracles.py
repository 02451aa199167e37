"""Reference values for every row the benchmark workloads print.

Nothing here imports the package under test.  The decoherence exponent is
evaluated from its closed forms, the GHZ-Werner measures from their scalar
formulas, the W-Werner negativity from a dense density matrix and
numpy.linalg.eigvalsh, and the time scales by brentq on those curves.

Two tolerances apply to each value.  A row *misses its oracle* when it is
off by more than the tight tolerance, which is the accuracy the package
claims (quadrature epsrel 1e-8, root bracketing 1e-9, eigenvalues near
machine precision); such rows are counted as failed.  The output is *not
correct* when a value is off by more than the gross tolerance, which only a
wrong formula, a wrong row or a wrong order can produce.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import loggamma

DEAD_THRESHOLD = 1e-12
EPSILON = 0.01
VALUE_ATOL = 1e-11
VALUE_RTOL = 1e-10
TIME_RTOL = 1e-8
GROSS_ATOL = 1e-9
GROSS_RTOL = 1e-4

PARAM_FIELDS = [
    "state", "x", "eta", "beta_a", "k1", "k2",
    "omega_sq_a", "omega_sq_b", "omega_sq_c", "omega_c", "method",
]
HEADERS = {
    "measure": PARAM_FIELDS + ["measure", "t", "value", "error"],
    "timescales": PARAM_FIELDS + [
        "measure", "t_p", "t_c", "t_c_reached", "freezing_count", "freezing_intervals", "error",
    ],
    "sweep_timescales": PARAM_FIELDS + [
        "measure", "t", "value", "t_p", "t_c", "t_c_reached", "freezing_count", "error",
    ],
}

# Basis index 4m + 2n + l; bit (2 - q) of the index is qubit q's label.
_BITS = np.array([[(u >> (2 - q)) & 1 for q in range(3)] for u in range(8)])
_FLIPS = (_BITS[:, None, :] != _BITS[None, :, :]).astype(float)  # (8, 8, 3)


# --- decoherence exponent -------------------------------------------------

def gamma_zero_t(eta, omega_sq, omega_c, t):
    return 2.0 * eta * omega_sq * np.log1p((omega_c * np.asarray(t, dtype=float)) ** 2)


def gamma_low_t(eta, omega_sq, omega_c, beta, t):
    """2 eta Omega^2 [ln(1 + (w_c t)^2) + 2 ln(sinh(z)/z)], z = pi t / beta."""
    t = np.asarray(t, dtype=float)
    z = np.pi * t / beta
    safe = np.where(z > 0, z, 1.0)
    log_sinhc = np.where(
        z > 1e-4,
        safe + np.log(-np.expm1(-2.0 * safe)) - np.log(2.0 * safe),
        z * z / 6.0 - z**4 / 180.0,
    )
    return gamma_zero_t(eta, omega_sq, omega_c, t) + 4.0 * eta * omega_sq * log_sinhc


def gamma_exact(eta, omega_sq, omega_c, beta, t):
    """Exact Ohmic exponent at any temperature (coth expansion, DLMF 5.8).

    2 eta Omega^2 ln(1 + (w_c t)^2)
      + 8 eta Omega^2 [Re lnGamma(1 + a) - Re lnGamma(1 + a + i t / beta)],
    with a = 1 / (beta w_c).
    """
    t = np.asarray(t, dtype=float)
    base = gamma_zero_t(eta, omega_sq, omega_c, t)
    if math.isinf(beta):
        return base
    a = 1.0 / (beta * omega_c)
    thermal = loggamma(1.0 + a).real - loggamma(1.0 + a + 1j * t / beta).real
    return base + 8.0 * eta * omega_sq * thermal


def gammas(method, eta, omega_sqs, omega_c, betas, t):
    """(Gamma_A, Gamma_B, Gamma_C) for the method the program was asked to use."""
    out = []
    for omega_sq, beta in zip(omega_sqs, betas):
        if method == "zero_t":
            out.append(gamma_zero_t(eta, omega_sq, omega_c, t))
        elif method == "low_t":
            out.append(gamma_low_t(eta, omega_sq, omega_c, beta, t))
        else:
            out.append(gamma_exact(eta, omega_sq, omega_c, beta, t))
    return out


# --- measures ---------------------------------------------------------------

def ghz_measures(x, gamma_total):
    """Closed forms for the dephased GHZ-Werner state."""
    coherence = x * np.exp(-gamma_total)
    neg = np.maximum(0.0, coherence - (1.0 - x) / 4.0)
    return {
        "gmc": np.maximum(0.0, coherence - 0.75 * (1.0 - x)),
        "tripartite_negativity": neg,
        "negativity_a_bc": neg,
        "negativity_b_ac": neg,
        "negativity_c_ab": neg,
        "l1_coherence": coherence,
    }


def _w_werner_stack(x, g):
    """Dense rho(t) for the W-Werner state with phases dropped, shape (T, 8, 8)."""
    psi = np.zeros(8)
    psi[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
    rho0 = x * np.outer(psi, psi) + (1.0 - x) / 8.0 * np.eye(8)
    exponent = np.einsum("uvq,qt->tuv", _FLIPS, np.asarray(g, dtype=float).reshape(3, -1))
    return rho0[None] * np.exp(-exponent)


def _partial_transpose(stack, qubit):
    t = stack.reshape((-1,) + (2,) * 6)
    t = np.swapaxes(t, 1 + qubit, 4 + qubit)
    return t.reshape(-1, 8, 8)


def w_measures(x, g):
    """W-Werner negativity (A|BC) and l1 coherence; g = (Gamma_A, Gamma_B, Gamma_C).

    The local phases of the channel change neither measure, so the dense
    matrix omits them.
    """
    ga, gb, gc = (np.asarray(v, dtype=float) for v in g)
    l1 = (2.0 * x / 3.0) * (np.exp(-(gb + gc)) + np.exp(-(ga + gc)) + np.exp(-(ga + gb)))
    eigs = np.linalg.eigvalsh(_partial_transpose(_w_werner_stack(x, (ga, gb, gc)), 0))
    neg = -2.0 * np.minimum(eigs, 0.0).sum(axis=-1)
    return {"negativity_a_bc": neg, "l1_coherence": l1}


# --- time scales ------------------------------------------------------------

def timescales(curve, t_max):
    """(t_p, t_c, t_c_reached) of a nonincreasing curve, as the package defines them.

    t_p is where the curve falls to the dead threshold (inf if it is still
    above it at t_max); t_c is where it first falls below (1 - epsilon) of its
    start ((t_max, False) if it never does).
    """
    v0 = float(curve(0.0))
    end = float(curve(t_max))
    if end > DEAD_THRESHOLD:
        t_p = math.inf
    else:
        t_p = brentq(lambda t: curve(t) - DEAD_THRESHOLD, 0.0, t_max, xtol=1e-300, rtol=1e-15)
    target = (1.0 - EPSILON) * v0
    if end >= target:
        return t_p, t_max, False
    t_c = brentq(lambda t: curve(t) - target, 0.0, t_max, xtol=1e-300, rtol=1e-15)
    return t_p, t_c, True


# --- row checking -----------------------------------------------------------

@dataclass
class Check:
    """Outcome of checking one CLI output against the oracle."""

    rows: int = 0
    misses: list = field(default_factory=list)   # (row number, column, got, expected)
    errors: list = field(default_factory=list)   # (row number, error text)
    gross: list = field(default_factory=list)    # reasons the output is not correct
    failed_rows: set = field(default_factory=set)

    def value(self, row_no, column, got, expected, atol, rtol):
        if got == expected or (math.isnan(expected) and math.isnan(got)):
            return
        diff = abs(got - expected)
        scale = abs(expected) if math.isfinite(expected) else 0.0
        if not diff <= atol + rtol * scale:
            self.misses.append((row_no, column, got, expected))
            self.failed_rows.add(row_no)
        if not diff <= GROSS_ATOL + GROSS_RTOL * scale:
            self.gross.append(f"row {row_no} {column}: got {got!r}, oracle {expected!r}")


def _parse(text, header):
    reader = csv.reader(text.splitlines())
    got_header = next(reader, None)
    if got_header != header:
        raise ValueError(f"unexpected header {got_header!r}")
    rows = list(reader)
    for row_no, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {row_no} has {len(row)} columns, expected {len(header)}")
    return rows


def _param_key(config, x, eta, beta_a, k1, k2):
    return [
        config["state"], x, eta, beta_a, k1, k2,
        config["omega_sq_a"], config["omega_sq_b"], config["omega_sq_c"],
        config["omega_c"], config["method"],
    ]


def _grid(config):
    """Parameter tuples in the order the program prints them, with their exponents."""
    times = np.linspace(config["t_start"], config["t_stop"], config["t_count"])
    omega_sqs = (config["omega_sq_a"], config["omega_sq_b"], config["omega_sq_c"])
    for x in config["x"]:
        for eta in config["eta"]:
            for beta_a in config["beta_a"]:
                for k1 in config["k1"]:
                    for k2 in config["k2"]:
                        betas = (beta_a, k1 * beta_a, k2 * beta_a)

                        def exponents(t, eta=eta, betas=betas):
                            return gammas(config["method"], eta, omega_sqs, config["omega_c"], betas, t)

                        yield (x, eta, beta_a, k1, k2), times, exponents


def _curves(config, x, exponents, t):
    """Every requested measure of one parameter tuple, evaluated at times t."""
    g = exponents(t)
    if config["state"] == "ghz":
        return ghz_measures(x, g[0] + g[1] + g[2])
    return w_measures(x, g)


def _scalar_curve(config, x, exponents, name):
    return lambda t: float(_curves(config, x, exponents, np.array([t]))[name][0])


def _check_params(check, row_no, row, expected):
    for column, (got, want) in enumerate(zip(row, expected)):
        if isinstance(want, str):
            ok = got == want
        else:
            try:
                ok = float(got) == float(want)
            except ValueError:
                ok = False
        if not ok:
            check.gross.append(f"row {row_no} {PARAM_FIELDS[column]}: got {got!r}, expected {want!r}")


def _row_ok(check, row_no, row, col, key, name):
    """Check a row's parameters and measure; False if the program marked it failed."""
    _check_params(check, row_no, row, key)
    if row[col["measure"]] != name:
        check.gross.append(f"row {row_no}: measure {row[col['measure']]!r}, expected {name!r}")
    text = row[col["error"]]
    if text:  # a failed row's values are NaN
        check.errors.append((row_no, text))
        check.failed_rows.add(row_no)
    return not text


def _number(check, row_no, column, text):
    try:
        return float(text)
    except ValueError:
        check.gross.append(f"row {row_no} {column}: {text!r} is not a number")
        return math.nan


def _check_timescale_columns(check, row_no, row, col, expected):
    t_p, t_c, reached = expected
    for column, want in (("t_p", t_p), ("t_c", t_c)):
        check.value(row_no, column, _number(check, row_no, column, row[col[column]]), want, 0.0, TIME_RTOL)
    if row[col["t_c_reached"]] != ("true" if reached else "false"):
        check.gross.append(f"row {row_no} t_c_reached: got {row[col['t_c_reached']]!r}")


def check_output(command, config, text) -> Check:
    """Check a CLI output row by row against the oracle for its config."""
    check = Check()
    timescale_cols = command == "timescales" or config.get("timescales", False)
    header = HEADERS["sweep_timescales" if command == "sweep" and timescale_cols else command]
    try:
        rows = _parse(text, header)
    except (ValueError, csv.Error) as exc:
        check.gross.append(str(exc))
        return check
    col = {name: i for i, name in enumerate(header)}
    check.rows = len(rows)
    row_no = 0
    t_max = config["t_stop"]
    for params, times, exponents in _grid(config):
        x = params[0]
        key = _param_key(config, *params)
        curves = _curves(config, x, exponents, times)
        for name in config["measures"]:
            scales = None
            if timescale_cols:
                scales = timescales(_scalar_curve(config, x, exponents, name), t_max)
            if command == "timescales":
                if row_no < len(rows) and _row_ok(check, row_no, rows[row_no], col, key, name):
                    _check_timescale_columns(check, row_no, rows[row_no], col, scales)
                row_no += 1
                continue
            for i, t in enumerate(times):
                if row_no < len(rows):
                    row = rows[row_no]
                    check.value(row_no, "t", _number(check, row_no, "t", row[col["t"]]), float(t), 1e-15, 0.0)
                    if _row_ok(check, row_no, row, col, key, name):
                        got = _number(check, row_no, "value", row[col["value"]])
                        check.value(row_no, "value", got, float(curves[name][i]), VALUE_ATOL, VALUE_RTOL)
                        if scales is not None:
                            _check_timescale_columns(check, row_no, row, col, scales)
                row_no += 1
    if len(rows) != row_no:
        check.gross.append(f"{len(rows)} rows, expected {row_no}")
    return check
