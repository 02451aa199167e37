"""Spectral densities and the decoherence exponent Gamma_X(t).

Each qubit X couples to its own bosonic bath.  The off-diagonal damping is
governed by

    Gamma_X(t) = 8 Omega_X^2 int_0^inf dw  J(w)/w^2 coth(beta_X w / 2)
                                          sin^2(w t / 2),

with coth -> 1 at zero temperature, beta_X = inf (ZERO_TEMPERATURE).
Natural units hbar = k_B = 1: all frequencies and inverse temperatures share
one inverse-time unit.

For the Ohmic density J(w) = eta w exp(-w/w_c) two closed forms exist:

    zero temperature:  2 eta Omega_X^2 ln(1 + (w_c t)^2)
    low temperature:   2 eta Omega_X^2 ln[(1 + (w_c t)^2)
                          (beta_X / (pi t))^2 sinh^2(pi t / beta_X)]

The general integral is evaluated with adaptive quadrature; the integrand
has a removable singularity at w = 0 which is replaced by its analytic
limit below w = 1e-8 w_c, and the exponential cutoff makes truncation at
w = 60 w_c exact to below 1e-26.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

from scipy import integrate

from .exceptions import MethodError, ParameterError, QuadratureError

QUAD_EPSABS = 1e-10
QUAD_EPSREL = 1e-8
_QUAD_LIMIT = 800
_CUTOFF_MULTIPLE = 60.0
_OMEGA_EPS_FACTOR = 1e-8


ZERO_TEMPERATURE = math.inf  # the inverse temperature of a reservoir at T = 0


@dataclass(frozen=True)
class OhmicSpectralDensity:
    """J(w) = eta w exp(-w / omega_c)."""

    eta: float
    omega_c: float

    def __post_init__(self):
        if not self.eta >= 0:
            raise ParameterError(f"coupling constant eta must be >= 0, got {self.eta!r}")
        if not self.omega_c > 0:
            raise ParameterError(f"cutoff frequency must be positive, got {self.omega_c!r}")

    def __call__(self, omega: float) -> float:
        return self.eta * omega * math.exp(-omega / self.omega_c)

    @property
    def support_cutoff(self) -> float:
        return _CUTOFF_MULTIPLE * self.omega_c


@dataclass(frozen=True)
class CustomSpectralDensity:
    """A positive spectral-density handle with a declared support cutoff.

    Enters only through the numeric-quadrature path; j(w)/w must stay
    bounded as w -> 0 for the integral to converge at finite temperature.
    """

    j: Callable[[float], float]
    support_cutoff: float

    def __post_init__(self):
        if not self.support_cutoff > 0:
            raise ParameterError(f"support cutoff must be positive, got {self.support_cutoff!r}")

    def __call__(self, omega: float) -> float:
        return self.j(omega)


SpectralDensity = Union[OhmicSpectralDensity, CustomSpectralDensity]


@dataclass(frozen=True)
class ReservoirSpec:
    """One reservoir: spectral density, inverse temperature, qubit splitting."""

    spectral: SpectralDensity
    beta: float
    omega_qubit: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ParameterError(
                f"inverse temperature must be positive or ZERO_TEMPERATURE, got {self.beta!r}"
            )
        if not self.omega_qubit > 0:
            raise ParameterError(f"qubit splitting must be positive, got {self.omega_qubit!r}")


class GammaMethod(Enum):
    ZERO_T_CLOSED_FORM = "zero_t"
    LOW_T_CLOSED_FORM = "low_t"
    NUMERIC_QUADRATURE = "quadrature"


def _log_sinhc(z: float) -> float:
    """ln(sinh(z)/z), overflow-safe for large z; 0 at z = 0."""
    if z == 0.0:
        return 0.0
    if z < 1e-8:
        return z * z / 6.0
    # ln sinh z = z - ln 2 + ln(1 - exp(-2z))
    return z + math.log(-math.expm1(-2.0 * z)) - math.log(2.0 * z)


def _check_time(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise ParameterError(f"time must be finite and >= 0, got {t!r}")


def _require_ohmic(res: ReservoirSpec, method: GammaMethod) -> OhmicSpectralDensity:
    if not isinstance(res.spectral, OhmicSpectralDensity):
        raise MethodError(f"{method.value} closed form is only available for Ohmic densities")
    return res.spectral


def gamma_zero_t(res: ReservoirSpec, t: float) -> float:
    """Zero-temperature Ohmic closed form 2 eta Omega^2 ln(1 + (w_c t)^2)."""
    spectral = _require_ohmic(res, GammaMethod.ZERO_T_CLOSED_FORM)
    if res.beta != ZERO_TEMPERATURE:
        raise MethodError("zero-temperature closed form requires ZERO_TEMPERATURE")
    _check_time(t)
    if t == 0.0:
        return 0.0
    wct = spectral.omega_c * t
    return 2.0 * spectral.eta * res.omega_qubit**2 * math.log1p(wct * wct)


def gamma_low_t(res: ReservoirSpec, t: float) -> float:
    """Low-temperature Ohmic closed form.

    2 eta Omega^2 [ln(1 + (w_c t)^2) + 2 ln(sinh(pi t / beta) / (pi t / beta))];
    the t -> 0 limit of the thermal factor is taken analytically.
    """
    spectral = _require_ohmic(res, GammaMethod.LOW_T_CLOSED_FORM)
    if res.beta == ZERO_TEMPERATURE:
        raise MethodError("low-temperature closed form requires a finite inverse temperature")
    _check_time(t)
    if t == 0.0:
        return 0.0
    wct = spectral.omega_c * t
    z = math.pi * t / res.beta
    return 2.0 * spectral.eta * res.omega_qubit**2 * (math.log1p(wct * wct) + 2.0 * _log_sinhc(z))


def _gamma_quadrature(res: ReservoirSpec, t: float) -> float:
    spectral = res.spectral
    omega_sq = res.omega_qubit**2
    beta = res.beta

    if isinstance(spectral, OhmicSpectralDensity):
        upper = spectral.support_cutoff
        omega_eps = _OMEGA_EPS_FACTOR * spectral.omega_c
        # J(w)/w^2 coth(beta w/2) sin^2(wt/2) -> eta t^2 / (2 beta) as w -> 0,
        # exactly 0.0 at beta = inf
        limit = 8.0 * omega_sq * spectral.eta * t * t / (2.0 * beta)
    else:
        upper = spectral.support_cutoff
        omega_eps = _OMEGA_EPS_FACTOR * upper / _CUTOFF_MULTIPLE
        # General handle: continue the integrand flat below omega_eps.
        limit = None

    def integrand(w: float) -> float:
        if w < omega_eps:
            if limit is not None:
                return limit
            w = omega_eps
        s = math.sin(0.5 * w * t)
        value = 8.0 * omega_sq * spectral(w) / (w * w) * (s * s)
        return value / math.tanh(0.5 * beta * w)  # tanh(inf) is exactly 1.0

    result = integrate.quad(
        integrand,
        0.0,
        upper,
        epsabs=QUAD_EPSABS,
        epsrel=QUAD_EPSREL,
        limit=_QUAD_LIMIT,
        full_output=1,
    )
    value, abserr = result[0], result[1]
    converged = len(result) == 3 and abserr <= 10.0 * max(QUAD_EPSABS, QUAD_EPSREL * abs(value))
    if not converged:
        raise QuadratureError(
            f"decoherence integral did not converge (error estimate {abserr:.3e})",
            error_estimate=float(abserr),
        )
    return max(0.0, float(value))


def gamma(res: ReservoirSpec, t: float, method: GammaMethod) -> float:
    """Gamma_X(t) >= 0 via the requested method; Gamma_X(0) = 0 exactly."""
    _check_time(t)
    if method is GammaMethod.ZERO_T_CLOSED_FORM:
        return gamma_zero_t(res, t)
    if method is GammaMethod.LOW_T_CLOSED_FORM:
        return gamma_low_t(res, t)
    if method is GammaMethod.NUMERIC_QUADRATURE:
        if t == 0.0:
            return 0.0
        return _gamma_quadrature(res, t)
    raise MethodError(f"unknown evaluation method {method!r}")
