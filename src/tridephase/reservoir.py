"""Spectral densities and the decoherence exponent Gamma_X(t).

Each qubit X couples to its own bosonic bath.  The off-diagonal damping is
governed by

    Gamma_X(t) = 8 Omega_X^2 int_0^inf dw  J(w)/w^2 coth(beta_X w / 2)
                                          sin^2(w t / 2),

with coth -> 1 at zero temperature, beta_X = inf (ZERO_TEMPERATURE).
Natural units hbar = k_B = 1: all frequencies and inverse temperatures share
one inverse-time unit.

For the Ohmic density J(w) = eta w exp(-w/w_c) the integral has a closed
form at every temperature (method `exact`, cf. Palma, Suominen & Ekert,
Proc. R. Soc. A 452, 567 (1996)):

    2 eta Omega_X^2 ln(1 + (w_c t)^2) + 8 eta Omega_X^2 D(1 + a, t / beta_X),
    D(x, y) = Re ln Gamma(x) - Re ln Gamma(x + i y),  a = 1 / (beta_X w_c),

evaluated with `math` alone and without cancellation; it is the
reference for Ohmic baths.  Its two limits have closed forms of their own:

    zero temperature:  2 eta Omega_X^2 ln(1 + (w_c t)^2)
    low temperature:   2 eta Omega_X^2 ln[(1 + (w_c t)^2)
                          (beta_X / (pi t))^2 sinh^2(pi t / beta_X)]

The general integral is evaluated with adaptive quadrature up to the
density's support cutoff (60 w_c for Ohmic, where the exponential makes
truncation exact to below 1e-26).  The integrand, whose singularity at
w = 0 is removable, is continued flat below 1e-8 cutoff / 60 (1e-8 w_c for
Ohmic), and is one for every density: each reservoir keeps a table of the
t-independent factors of a node w, filled on its first visit, and a call on
a seen node costs a lookup, one sin and a * (s * s) / b, the float
operations of the written-out form in its order.  On the
timescales_quadrature benchmark 98.5% of a run's 236,355 calls hit its 12
tables (3,612 nodes), at about 0.09 us a hit against 0.16 us for the full
form (2-vCPU Xeon VM, Python 3.11).  The integrand divides by w^2, so a
support cutoff whose square overflows (w_c above about 2.23e152 for Ohmic)
raises MethodError at every time, t = 0 included, and so does one whose
flat-continuation point squares below the smallest normal float (w_c below
about 1.49e-146 for Ohmic, where `exact` still serves).  On Ohmic baths
quadrature agrees with `exact` to QUAD_EPSREL |Gamma| + QUAD_EPSABS for
w_c beta_X <= 100; on 60 times in [0.05, 3] / w_c (eta = 0.326,
Omega_X^2 = 4) it misses by up to 2.0e-5, 2.5e-5, 8.2e-6 and 2.1e-6
relative at w_c beta_X = 500, 624, 1000 and 2497.

scipy is imported on the first quadrature, not with this module: the
module attribute `integrate` (PEP 562 `__getattr__`) loads and returns
`scipy.integrate`, and every quadrature calls `quad` through it.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .exceptions import MethodError, ParameterError, QuadratureError

QUAD_EPSABS = 1e-10
QUAD_EPSREL = 1e-8
_QUAD_LIMIT = 800
_CUTOFF_MULTIPLE = 60.0
_OMEGA_EPS_FACTOR = 1e-8


_STIRLING_SHIFT = 8
# B_2j / (2j (2j - 1)) for j = 1 ... 6, the Stirling series of ln Gamma
_STIRLING_COEFFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)

_SINHC_SERIES_BELOW = 0.5
# 2^2j B_2j / (2j (2j)!) for j = 1 ... 9, the series of ln(sinh z / z) in z^2;
# the first term left out is below 3e-16 relative at z = 0.5
_SINHC_COEFFS = (
    1 / 6, -1 / 180, 1 / 2835, -1 / 37800, 1 / 467775, -691 / 3831077250,
    2 / 127702575, -3617 / 2605132530000, 43867 / 350813659321125,
)


ZERO_TEMPERATURE = math.inf  # the inverse temperature of a reservoir at T = 0


def __getattr__(name: str):
    """`integrate` is scipy.integrate, imported on first use."""
    if name == "integrate":
        from scipy import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    @cached_property
    def _quadrature_plan(self) -> tuple[float, float, dict, Callable]:
        """(cutoff, epsabs, node table, factors) of every quadrature of this reservoir.

        factors(w) are the t-independent (h, a, b) of the integrand at node w
        (_integrand).  A cutoff that quadrature cannot take raises MethodError
        here, which caches nothing, so it raises again at every t, 0 included.
        """
        omega_eps, cutoff = _quadrature_domain(self.spectral)
        j, scale, half_beta = self.spectral, 8.0 * self.omega_qubit**2, 0.5 * self.beta
        # QUAD_EPSABS is an error budget for an integrand of order one; a weaker
        # one, 8 Omega^2 J(w)/w below 1 at the flat continuation (8 Omega^2 eta
        # for Ohmic), gets a budget that scales with it
        epsabs = QUAD_EPSABS * min(1.0, scale * j(omega_eps) / omega_eps)

        def factors(w: float) -> tuple[float, float, float]:
            w = max(w, omega_eps)  # flat below omega_eps; tanh(inf) is exactly 1.0
            return 0.5 * w, scale * j(w) / (w * w), math.tanh(half_beta * w)

        return cutoff, epsabs, {}, factors

    @cached_property
    def _gamma_tables(self) -> defaultdict[GammaMethod, dict[float, float]]:
        """method -> this reservoir's time -> Gamma table, as `evolution.gammas` fills it."""
        return defaultdict(dict)

    def __getstate__(self) -> dict:
        """The fields alone: a pickled or copied reservoir starts without the
        tables above (whose `factors` is a closure pickle cannot take) and
        builds its own on first use."""
        return {field.name: getattr(self, field.name) for field in fields(self)}


class GammaMethod(Enum):
    ZERO_T_CLOSED_FORM = "zero_t"
    LOW_T_CLOSED_FORM = "low_t"
    NUMERIC_QUADRATURE = "quadrature"
    EXACT = "exact"


def _log_sinhc(z: float) -> float:
    """ln(sinh(z)/z) for z >= 0: 0 at z = 0, inf at z = inf, nondecreasing.

    Below _SINHC_SERIES_BELOW a Taylor series in z^2, which no cancellation
    touches; above it ln sinh z = z - ln 2 + ln(1 - exp(-2z)), with ln 2z
    split so that neither overflows.  Within 3e-15 relative of the exact
    value for 1e-12 <= z <= 700.
    """
    if z < _SINHC_SERIES_BELOW:
        w = z * z
        total = 0.0
        for coeff in reversed(_SINHC_COEFFS):
            total = total * w + coeff
        return total * w
    if z == math.inf:
        return math.inf
    return z + math.log(-math.expm1(-2.0 * z)) - math.log(2.0) - math.log(z)


def _check_time(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise ParameterError(f"time must be finite and >= 0, got {t!r}")


def _time_array(t) -> np.ndarray:
    """t, one time or a 1-d time array, as a float array."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ParameterError(f"times must be a float or a 1-d array, got shape {ts.shape}")
    return ts


def _require_ohmic(res: ReservoirSpec, method: GammaMethod) -> OhmicSpectralDensity:
    if not isinstance(res.spectral, OhmicSpectralDensity):
        raise MethodError(f"{method.value} closed form is only available for Ohmic densities")
    return res.spectral


def gamma_zero_t(res: ReservoirSpec, t: float) -> float:
    """Zero-temperature Ohmic closed form 2 eta Omega^2 ln(1 + (w_c t)^2), as gamma_exact."""
    _require_ohmic(res, GammaMethod.ZERO_T_CLOSED_FORM)
    if res.beta != ZERO_TEMPERATURE:
        raise MethodError("method zero_t requires ZERO_TEMPERATURE (beta = inf)")
    return _ohmic_gamma(res, t)


def gamma_low_t(res: ReservoirSpec, t: float) -> float:
    """Low-temperature Ohmic closed form.

    2 eta Omega^2 [ln(1 + (w_c t)^2) + 2 ln(sinh(pi t / beta) / (pi t / beta))];
    the t -> 0 limit of the thermal factor is taken analytically, and eta = 0
    gives 0.0 even where the log terms overflow.
    """
    spectral = _require_ohmic(res, GammaMethod.LOW_T_CLOSED_FORM)
    if res.beta == ZERO_TEMPERATURE:
        raise MethodError("method low_t requires a finite inverse temperature")
    _check_time(t)
    if t == 0.0 or spectral.eta == 0.0:
        return 0.0
    wct = spectral.omega_c * t
    z = math.pi * t / res.beta
    return 2.0 * spectral.eta * res.omega_qubit**2 * (math.log1p(wct * wct) + 2.0 * _log_sinhc(z))


def _log_gamma_ratio(x: float, y: float) -> float:
    """D(x, y) = Re ln Gamma(x) - Re ln Gamma(x + iy) for x >= 1 and y >= 0.

    D = sum_k 1/2 ln(1 + y^2 / (x + k)^2) over k >= 0 (DLMF 5.8.3).  The
    terms k < _STIRLING_SHIFT are summed as they stand; the rest is the
    Stirling series at u = x + _STIRLING_SHIFT, written in s = y / u so
    that no term is a difference of nearly equal numbers.  D(x, 0) = 0, and
    D(x, inf) = inf, since D grows without bound in y.
    """
    if y == math.inf:
        return math.inf
    total = 0.0
    for k in range(_STIRLING_SHIFT):
        q = y / (x + k)
        total += 0.5 * math.log1p(q * q)
    u = x + _STIRLING_SHIFT
    s = y / u
    log_r = math.log1p(s * s)  # ln |u + iy|^2 - ln u^2
    theta = math.atan(s)  # arg(u + iy)
    # Re[(u - 1/2) ln u - u] - Re[(w - 1/2) ln w - w] at w = u + iy
    total += u * (s * theta - 0.5 * log_r) + 0.25 * log_r
    for j, coeff in enumerate(_STIRLING_COEFFS):
        p = 2 * j + 1
        # u^-p - Re w^-p = u^-p [1 - r cos(p theta)] with r = (1 + s^2)^(-p/2),
        # and 1 - r cos(p theta) = (1 - r) + 2 r sin^2(p theta / 2)
        half_sin = math.sin(0.5 * p * theta)
        one_minus_r = -math.expm1(-0.5 * p * log_r)
        total += coeff * u**-p * (one_minus_r + 2.0 * (1.0 - one_minus_r) * half_sin * half_sin)
    return total


def gamma_exact(res: ReservoirSpec, t):
    """Ohmic Gamma_X(t) at any temperature, for a float or a 1-d time array.

    2 eta Omega^2 ln(1 + (w_c t)^2) + 8 eta Omega^2 D(1 + 1 / (beta w_c), t / beta),
    with D from _log_gamma_ratio; at beta = inf, D = 0 is not evaluated and
    the first term is the zero-temperature Gamma.  Each time is evaluated on
    its own with `math`, so an array call equals the scalar calls element
    for element.
    """
    _require_ohmic(res, GammaMethod.EXACT)
    if type(t) is float or np.ndim(t) == 0:  # a Python float skips the array check
        return _ohmic_gamma(res, float(t))
    return np.array([_ohmic_gamma(res, tv) for tv in _time_array(t).tolist()])


def _ohmic_gamma(res: ReservoirSpec, t: float) -> float:
    """gamma_exact at one time; 0.0 at t = 0 even where 2 eta Omega^2 overflows,
    and 0.0 at eta = 0 even where the log terms overflow."""
    _check_time(t)
    spectral = res.spectral
    if t == 0.0 or spectral.eta == 0.0:
        return 0.0
    wct = spectral.omega_c * t
    value = 2.0 * spectral.eta * res.omega_qubit**2 * math.log1p(wct * wct)
    if res.beta == ZERO_TEMPERATURE:
        return value
    x = 1.0 + 1.0 / (res.beta * spectral.omega_c)
    return value + 8.0 * spectral.eta * res.omega_qubit**2 * _log_gamma_ratio(x, t / res.beta)


def _quadrature_domain(spectral: SpectralDensity) -> tuple[float, float]:
    """(omega_eps, cutoff), the least and the largest w whose square quadrature takes."""
    cutoff = spectral.support_cutoff
    omega_eps = _OMEGA_EPS_FACTOR * cutoff / _CUTOFF_MULTIPLE
    if cutoff * cutoff == math.inf:
        rule = "whose square is finite"
    elif omega_eps * omega_eps < sys.float_info.min:  # 0 or subnormal: w^2 loses its digits
        least = math.sqrt(sys.float_info.min) / _OMEGA_EPS_FACTOR * _CUTOFF_MULTIPLE
        rule = (
            "whose flat-continuation point squares to a normal float"
            f" (a cutoff above about {least:.3g})"
        )
    else:
        return omega_eps, cutoff
    raise MethodError(
        f"quadrature needs a support cutoff {rule}, got {cutoff!r}"
        f" ({_CUTOFF_MULTIPLE:g} omega_c for an Ohmic density)"
    )


def _integrand(table: dict, factors: Callable, t: float) -> Callable[[float], float]:
    """w -> a sin^2(h t) / b, with (h, a, b) = factors(w) kept in table on the
    first visit of w: quad's fixed Gauss-Kronrod rule on bisections of
    [0, cutoff] puts the quadratures of one reservoir on mostly the same nodes."""
    sin = math.sin

    def integrand(w: float) -> float:
        try:
            h, a, b = table[w]
        except KeyError:
            h, a, b = table[w] = factors(w)
        s = sin(h * t)
        return a * (s * s) / b

    return integrand


def _gamma_quadrature(t: float, plan: tuple[float, float, dict, Callable]) -> float:
    cutoff, epsabs, table, factors = plan
    result = __getattr__("integrate").quad(
        _integrand(table, factors, t), 0.0, cutoff,
        epsabs=epsabs, epsrel=QUAD_EPSREL, limit=_QUAD_LIMIT, full_output=1,
    )
    value, abserr = result[0], result[1]
    converged = len(result) == 3 and abserr <= 10.0 * max(epsabs, QUAD_EPSREL * abs(value))
    if not converged:
        raise QuadratureError(
            f"decoherence integral did not converge (error estimate {abserr:.3e})",
            error_estimate=float(abserr),
        )
    return max(0.0, float(value))


def gamma(res: ReservoirSpec, t: float, method: GammaMethod) -> float:
    """Gamma_X(t) >= 0 via the requested method; Gamma_X(0) = 0 exactly.

    +inf is a valid Gamma (full damping).  A NaN or negative value means the
    method cannot evaluate this reservoir at this time, and raises
    MethodError naming the method, the time and the value.
    """
    if method is GammaMethod.ZERO_T_CLOSED_FORM:
        value = gamma_zero_t(res, t)
    elif method is GammaMethod.LOW_T_CLOSED_FORM:
        value = gamma_low_t(res, t)
    elif method is GammaMethod.NUMERIC_QUADRATURE:
        _check_time(t)  # each closed form checks t itself, after its method's rules
        plan = res._quadrature_plan  # MethodError on a cutoff quadrature cannot take
        value = 0.0 if t == 0.0 else _gamma_quadrature(t, plan)
    elif method is GammaMethod.EXACT:
        value = gamma_exact(res, t)
    else:
        raise MethodError(f"unknown evaluation method {method!r}")
    if not value >= 0.0:  # NaN included
        raise MethodError(f"method {method.value} gives Gamma = {value!r} at t = {t!r}, not >= 0")
    return value
