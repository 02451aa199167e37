"""Exact cross-checks of the numerical paths, and the paper-only closed forms.

Each oracle returns its worst error over its acceptance criterion's grid;
`tridephase selfcheck` compares it with SELFCHECKS.  Gamma is looked up as
`reservoir.gamma` at call time, so a replaced Gamma fails the checks.  The
closed forms below the oracles are cross-checks only, not pipeline results.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, reservoir
from .analysis import (
    KERNELS,
    MEASURES,
    STATES,
    make_reservoirs,
    preservation_time_numeric,
    preservation_time_zero_t,
)
from .evolution import dephasing_factors, evolve
from .exceptions import ParameterError
from .measures import PureSpectra, gmc_ghz_werner, gmc_x_state
from .reservoir import ZERO_TEMPERATURE, GammaMethod, OhmicSpectralDensity, ReservoirSpec
from .states import check_mixing, ghz_state, projector, werner


def quadrature_vs_zero_t() -> float:
    """Quadrature Gamma vs the zero-T closed form: worst relative error (criterion 01)."""
    worst = 0.0
    for wct in (0.01, 0.1, 1.0, 5.0, 20.0):
        for eta in (0.1, 0.4):
            for omega in (1.0, 2.0):
                res = ReservoirSpec(OhmicSpectralDensity(eta, 1.0), ZERO_TEMPERATURE, omega)
                quad = reservoir.gamma(res, wct, GammaMethod.NUMERIC_QUADRATURE)
                closed = reservoir.gamma_zero_t(res, wct)
                worst = max(worst, abs(quad - closed) / abs(closed))
    return worst


def quadrature_vs_low_t() -> float:
    """Low-T closed form vs quadrature Gamma: worst relative deviation (criterion 02)."""
    worst = 0.0
    for beta in (100.0, 1000.0):
        res = ReservoirSpec(OhmicSpectralDensity(0.2, 1.0), beta, 2.0)
        for t in np.geomspace(0.01, 5.0, 15).tolist():
            quad = reservoir.gamma(res, t, GammaMethod.NUMERIC_QUADRATURE)
            closed = reservoir.gamma_low_t(res, t)
            worst = max(worst, abs(quad - closed) / abs(quad))
    return worst


def pipeline_vs_scalar() -> float:
    """Low-T GHZ-Werner matrix GMC vs the scalar GMC: worst |difference| (criterion 03)."""
    rng = np.random.default_rng(1234)
    omega = 2.0
    worst = 0.0
    for _ in range(1000):
        x = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 3.0))
        eta = float(rng.uniform(0.05, 0.5))
        beta_a = float(rng.uniform(1e-3, 10.0))
        k1 = float(rng.uniform(0.5, 64.0))
        k2 = float(rng.uniform(0.5, 64.0))
        reservoirs = make_reservoirs(eta, 1.0, beta_a, k1, k2, (omega, omega, omega))
        factors = dephasing_factors(reservoirs, t, GammaMethod.LOW_T_CLOSED_FORM)
        matrix = gmc_x_state(evolve(werner(ghz_state(), x), factors))
        total = sum(reservoir.gamma(r, t, GammaMethod.LOW_T_CLOSED_FORM) for r in reservoirs)
        worst = max(worst, abs(matrix - gmc_ghz_werner(x, total)))
    return worst


def preservation_time_vs_closed_form() -> float:
    """Numeric zero-T GHZ-Werner t_p vs its closed form: worst relative error (criterion 05)."""
    worst = 0.0
    for x in (0.5, 0.6, 0.7, 0.8, 0.9):
        for eta in (0.1, 0.2, 0.4):
            for omega in (1.0, 2.0, math.sqrt(12.0)):
                # one reservoir carries the total Omega^2 of the three qubits
                res = ReservoirSpec(OhmicSpectralDensity(eta, 1.0), ZERO_TEMPERATURE, omega)
                closed = preservation_time_zero_t(x, eta, omega**2, 1.0)

                def curve(t, x=x, res=res, method=GammaMethod.ZERO_T_CLOSED_FORM):
                    return gmc_ghz_werner(x, reservoir.gamma(res, t, method))

                numeric = preservation_time_numeric(curve, 1e4)
                worst = max(worst, abs(numeric - closed) / closed)
    return worst


def sinh_residual() -> float:
    """Sinh-product relation at the numeric root of gmc_ghz_werner_low_t: worst |lhs/rhs - 1|.

    Four equal-temperature points (criterion 06).
    """
    worst = 0.0
    for x, eta, omega_sq, beta in (
        (0.8, 0.2, 36.0, 0.004),
        (0.7, 0.4, 36.0, 0.002),
        (0.8, 0.2, 36.0, 0.002),
        (0.6, 0.3, 36.0, 0.004),
    ):
        betas = (beta, beta, beta)

        def curve(t, x=x, eta=eta, omega_sq=omega_sq, betas=betas):
            return gmc_ghz_werner_low_t(x, t, eta, omega_sq, 1.0, betas)

        t_p = preservation_time_numeric(curve, 10.0)
        log_lhs, log_rhs = preservation_time_sinh_residual(t_p, x, eta, omega_sq, 1.0, betas)
        worst = max(worst, abs(math.expm1(log_lhs - log_rhs)))  # |lhs/rhs - 1|
    return worst


def kernels_vs_pipeline() -> float:
    """Gamma-space kernels vs the matrix pipeline: worst |difference| over every
    (state, measure); inf where one raises and the other does not, or raises
    another text.

    40 random exact-Gamma reservoir sets and x, each over 61 times, both
    Werner families and all six measures.  Both sides are the sweep's own:
    each stack is built by `analysis._sweep_stack` on its set's
    `PureSpectra`, so its negativities read the shifted spectra the sweep
    prints, and each measure runs through `analysis._measure_curve`, which
    replays a stack that raises row by row; each kernel is the root
    finders' curve, `analysis._gamma_curve`, replayed time by time.
    """
    rng = np.random.default_rng(2021)
    times, method = np.linspace(0.0, 3.0, 61), GammaMethod.EXACT
    worst = 0.0
    for _ in range(40):
        x = float(rng.uniform(0.0, 1.0))
        eta, beta_a, k1, k2 = rng.uniform((0.05, 0.1, 0.5, 0.5), (0.5, 100.0, 16.0, 16.0)).tolist()
        reservoirs = make_reservoirs(eta, 1.0, beta_a, k1, k2, (1.5, 2.0, 2.5))
        factors = dephasing_factors(reservoirs, times, method)
        for state, psi in STATES.items():
            channel = PureSpectra(projector(psi()), factors)
            stack = analysis._sweep_stack(werner(psi(), x), x, channel)
            for name, measure in MEASURES.items():
                kernel = analysis._gamma_curve(KERNELS[state, name], x, reservoirs, method)
                matrix = zip(*analysis._measure_curve(measure, stack))
                closed = zip(*analysis._measure_curve(kernel, times.tolist()))
                for (a, error_a), (b, error_b) in zip(matrix, closed, strict=True):
                    if error_a or error_b:
                        worst = worst if error_a == error_b else math.inf
                    else:
                        worst = max(worst, abs(a - b))
    return worst


# (name, oracle, what the oracle returns, tolerance)
SELFCHECKS = (
    ("quadrature vs zero-T closed form", quadrature_vs_zero_t, "max relative error", 1e-6),
    ("quadrature vs low-T closed form", quadrature_vs_low_t, "max relative deviation", 1e-2),
    ("matrix pipeline vs scalar GMC", pipeline_vs_scalar, "max absolute difference", 1e-12),
    (
        "numeric vs closed-form preservation time",
        preservation_time_vs_closed_form,
        "max relative error",
        1e-8,
    ),
    ("implicit preservation-time residual", sinh_residual, "max |lhs/rhs - 1|", 1e-6),
    (
        "Gamma-space kernels vs matrix pipeline",
        kernels_vs_pipeline,
        "max absolute difference",
        1e-14,
    ),
)


def gmc_ghz_werner_low_t(
    x: float,
    t: float,
    eta: float,
    omega_sq: float,
    omega_c: float,
    betas: tuple[float, float, float],
) -> float:
    """Aggregate-bracket low-temperature GMC curve for the GHZ-Werner family.

    max{0, x [(1 + (w_c t)^2) (b_A b_B b_C)^2 sinh^2(pi t/b_A)
    sinh^2(pi t/b_B) sinh^2(pi t/b_C) / (pi^2 t^2)]^(-2 eta Omega^2)
    - 3(1-x)/4}, evaluated in log space to avoid sinh overflow.

    The bracket applies the total Omega^2 to every thermal factor, so this
    curve is NOT the per-reservoir pipeline result at finite temperature;
    it is kept because its vanishing time satisfies the implicit relation
    checked by preservation_time_sinh_residual.  Cross-check only.
    """
    check_mixing(x)
    t = reservoir._check_time(t)
    if t == 0.0:
        return math.inf if x > 0 else 0.0
    log_bracket = reservoir._log1p_square(omega_c * t) - math.log(math.pi**2 * t * t)
    for beta in betas:
        log_bracket += 2.0 * _log_beta_sinh(beta, t)
    exponent = -2.0 * eta * omega_sq * log_bracket
    if exponent > 700.0:  # bracket -> 0 as t -> 0; the curve diverges there
        return math.inf
    return max(0.0, x * math.exp(exponent) - 0.75 * (1.0 - x))


def _log_beta_sinh(beta: float, t: float) -> float:
    """ln(beta sinh(pi t / beta)) for pi t / beta > 0, via ln sinh z = ln(sinh z / z) + ln z."""
    z = math.pi * t / beta
    if not z > 0.0:  # NaN included
        raise ParameterError(f"need z > 0, got {z!r}")
    return math.log(beta) + reservoir._log_sinhc(z) + math.log(z)


def preservation_time_sinh_residual(
    t_p: float,
    x: float,
    eta: float,
    omega_sq: float,
    omega_c: float,
    betas: tuple[float, float, float],
) -> tuple[float, float]:
    """The natural logs of both sides of the implicit sinh-product preservation-time relation.

    lhs = (b_A b_B b_C sinh(pi t_p/b_A) sinh(pi t_p/b_B) sinh(pi t_p/b_C))^2
    rhs = pi^2 t_p^2 / (1 + (w_c t_p)^2) * (4x / 3(1-x))^(1 / (2 eta Omega^2))

    The vanishing time of gmc_ghz_werner_low_t solves lhs = rhs exactly.
    Either side can pass the float range where its log does not (lhs at
    t_p = 300 with b = 1, rhs at eta Omega^2 = 1e-3), so both are logs.
    """
    if not 0.0 < x < 1.0:
        raise ParameterError(f"mixing parameter must lie in (0, 1), got {x!r}")
    if t_p <= 0:
        raise ParameterError(f"t_p must be positive, got {t_p!r}")
    log_lhs = 0.0
    for beta in betas:
        log_lhs += 2.0 * _log_beta_sinh(beta, t_p)
    ratio = 4.0 * x / (3.0 * (1.0 - x))
    log_rhs = (
        2.0 * math.log(math.pi * t_p)
        - reservoir._log1p_square(omega_c * t_p)
        + math.log(ratio) / (2.0 * eta * omega_sq)
    )
    return log_lhs, log_rhs
