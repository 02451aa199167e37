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

The general integral is evaluated by a fixed composite Gauss-Kronrod rule
(`integrate`) up to the density's support cutoff (60 w_c for Ohmic, where
the exponential makes truncation exact to below 1e-26).  The integrand,
whose singularity at w = 0 is removable, is continued flat below
1e-8 cutoff / 60 (1e-8 w_c for Ohmic), which makes [0, omega_eps] one node.
Above it the panels run 4 per decade, and 2 per decade below a piece
width of two periods of sin^2(w t / 2) at the top of t's binade
[2^(e-1), 2^e), where the integrand is smooth on the scale of a panel; each
panel is split into the fewest equal pieces no wider than that width.  So
a Gamma bit depends on t alone, never on the grid.  The nodes and weights of
a binade depend only on the quadrature domain (omega_eps, cutoff), so
every live reservoir on one domain shares one `integrate.NodeSet` per
binade, built once, and with it the sin^2 over the nodes at the last time
asked; the store goes with the last reservoir that holds it.  Each
reservoir keeps one rule per binade it has used, the node set's weights
multiplied by its own t-independent 8 Omega^2 J(w) / w^2 / tanh(beta w / 2),
evaluated once on the node array (node by node for a custom density).
Gamma(t) is then that sin^2 and one matrix product, which also gives the
10-point Gauss value whose difference is the error estimate.  Asked for
many times at once, the times of one domain and binade share one sin^2
block and each rule one broadcast product, with the same bits.  Past
_PANEL_LIMIT pieces the pieces widen instead, and the estimate decides: at
long enough times a QuadratureError, never a silent miss.  At eta = 0.2,
Omega^2 = 4 and w_c = 1 the first one is near w_c t = 2,590 at w_c beta_X
= 624 and at zero temperature, while w_c beta_X = 0.5 converges up to 3,000.

On Ohmic baths, at 6,000 random points with w_c beta_X from 1e-2 to 1e5 or
infinite and w_c t from 1e-6 to 100, quadrature was within 6e-14 relative
of `exact` (4e-13 up to w_c t = 300; the largest misses are at zero
temperature).  The integrand divides by w^2, so a support cutoff whose
square overflows (w_c above about 2.23e152 for Ohmic) raises MethodError at
every time, t = 0 included, and so does one whose flat-continuation point
squares below the smallest normal float (w_c below about 1.49e-146 for
Ohmic, where `exact` still serves).
"""

from __future__ import annotations

import math
import sys
import weakref
from collections import defaultdict
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from . import integrate
from .exceptions import MethodError, ParameterError, QuadratureError

QUAD_EPSABS = 1e-10
QUAD_EPSREL = 1e-8
_PANELS_PER_DECADE = 4
_PANEL_LIMIT = 8192
_CUTOFF_MULTIPLE = 60.0
_OMEGA_EPS_FACTOR = 1e-8
_BLOCK_BYTES = 1 << 18  # the largest sin^2 block of _fill_quadrature_tables, which bounds its memory


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

    def __call__(self, omega):
        """J at a frequency, or at each frequency of an array."""
        return self.eta * omega * np.exp(-omega / self.omega_c)

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
    def _quadrature_plan(self) -> _QuadraturePlan:
        """What every quadrature of this reservoir shares, and its rules so far.

        A cutoff that quadrature cannot take raises MethodError here, which
        caches nothing, so it raises again at every t, 0 included.
        """
        domain = _quadrature_domain(self.spectral)
        # QUAD_EPSABS is an error budget for an integrand of order one; a weaker
        # one, 8 Omega^2 J(w)/w below 1 at the flat continuation (8 Omega^2 eta
        # for Ohmic), gets a budget that scales with it
        weak = 8.0 * self.omega_qubit**2 * self.spectral(domain.omega_eps) / domain.omega_eps
        return _QuadraturePlan(domain, float(QUAD_EPSABS * min(1.0, weak)), {})

    @cached_property
    def _gamma_tables(self) -> defaultdict[GammaMethod, dict[float, float]]:
        """method -> this reservoir's time -> Gamma table, as `evolution.gammas` fills it."""
        return defaultdict(dict)

    def __getstate__(self) -> dict:
        """The fields alone: a pickled or copied reservoir starts without the
        rules and tables above and builds its own on first use."""
        return {field.name: getattr(self, field.name) for field in fields(self)}


class _QuadratureDomain:
    """What every reservoir on one (omega_eps, cutoff) shares: those two ends,
    the geometric panel edges between them, the binades whose rules differ,
    and node_sets: binade -> integrate.NodeSet, filled by _node_set on first use."""

    def __init__(self, omega_eps: float, cutoff: float):
        self.omega_eps, self.cutoff = omega_eps, cutoff
        decades = math.log10(cutoff / omega_eps)
        self.edges = np.geomspace(omega_eps, cutoff, math.ceil(_PANELS_PER_DECADE * decades) + 1)
        # below the first binade two periods at its top are wider than the
        # cutoff, above the last the panel limit sets the width: all share its rule
        self.first_binade = math.frexp(4.0 * math.pi / cutoff)[1] - 1
        self.last_binade = math.frexp(4.0 * math.pi * _PANEL_LIMIT / cutoff)[1]
        self.node_sets: dict[int, integrate.NodeSet] = {}


# (omega_eps, cutoff) -> the _QuadratureDomain of the live reservoirs on it;
# an entry goes when the last reservoir plan that holds it does
_DOMAINS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _QuadraturePlan(NamedTuple):
    """domain: the shared _QuadratureDomain; rules: binade -> this reservoir's
    (2, n) weight array on the domain's node set of the binade, the Kronrod
    and Gauss weights times its factor, filled by _quadrature_rule on first use."""

    domain: _QuadratureDomain
    epsabs: float
    rules: dict[int, np.ndarray]


class GammaMethod(Enum):
    ZERO_T_CLOSED_FORM = "zero_t"
    LOW_T_CLOSED_FORM = "low_t"
    NUMERIC_QUADRATURE = "quadrature"
    EXACT = "exact"

    # a member is one object that equals only itself, so it hashes as one; Enum's
    # hash(name) is a Python call on every read of a Gamma table
    __hash__ = object.__hash__


# the members under module names: up to Python 3.11 a class attribute read of
# an Enum member costs about 130 ns, a global read about 20 (2-vCPU VM)
_ZERO_T, _LOW_T, _QUADRATURE, _EXACT = GammaMethod


def _log_sinhc(z: float) -> float:
    """ln(sinh(z)/z) for z >= 0: 0 at z = 0, inf at z = inf, nondecreasing.

    Below _SINHC_SERIES_BELOW a Taylor series in z^2, which no cancellation
    touches; above it ln sinh z = z - ln 2 + ln(1 - exp(-2z)), with ln 2z
    split so that neither overflows.  Within 3e-15 relative of the exact
    value for 1e-12 <= z <= 700.
    """
    if z < _SINHC_SERIES_BELOW:
        w = z * z
        c1, c2, c3, c4, c5, c6, c7, c8, c9 = _SINHC_COEFFS  # Horner's rule, from c9
        inner = c5 + (c6 + (c7 + (c8 + c9 * w) * w) * w) * w
        return (c1 + (c2 + (c3 + (c4 + inner * w) * w) * w) * w) * w
    if z == math.inf:
        return math.inf
    return z + math.log(-math.expm1(-2.0 * z)) - math.log(2.0) - math.log(z)


def _log1p_square(x: float) -> float:
    """ln(1 + x^2) for x >= 0, finite wherever ln x is: log1p(x x) while x x is
    finite, and past that 2 ln x + log1p(x^-2), where x^-2 < 1e-308 adds nothing."""
    square = x * x
    return math.log1p(square) if square < math.inf else 2.0 * math.log(x)


def _check_time(t) -> float:
    """t as a float, if it is a number (not a string) that is finite and >= 0.
    A float is read as it is, anything else through float(); one range check
    then serves both."""
    time = t
    if type(t) is not float:
        try:
            time = math.nan if isinstance(t, (str, bytes, bytearray)) else float(t)
        except (TypeError, ValueError):  # not a number
            time = math.nan
    if not 0.0 <= time < math.inf:
        raise ParameterError(f"time must be finite and >= 0, got {t!r}")
    return time


def _time_array(t) -> np.ndarray:
    """t, one time or a nonempty 1-d time array of numbers, as a float array."""
    ts = np.asarray(t)
    if ts.dtype.kind in "SU":  # numpy would read "1" as 1.0
        if ts.ndim == 0:
            _check_time(t)  # one time: the text of its own rule
        raise ParameterError(f"times must be numbers, not strings, got {t!r}")
    ts = ts.astype(float, copy=False)
    if ts.ndim > 1:
        raise ParameterError(f"times must be a float or a 1-d array, got shape {ts.shape}")
    if ts.size == 0:
        raise ParameterError("times must hold at least one time, got an empty array")
    return ts


def _require_ohmic(res: ReservoirSpec, method: GammaMethod) -> OhmicSpectralDensity:
    if not isinstance(res.spectral, OhmicSpectralDensity):
        raise MethodError(f"{method.value} closed form is only available for Ohmic densities")
    return res.spectral


def gamma_zero_t(res: ReservoirSpec, t: float) -> float:
    """Zero-temperature Ohmic closed form 2 eta Omega^2 ln(1 + (w_c t)^2), as gamma_exact."""
    _require_ohmic(res, _ZERO_T)
    if res.beta != ZERO_TEMPERATURE:
        raise MethodError("method zero_t requires ZERO_TEMPERATURE (beta = inf)")
    return _ohmic_gamma(res, t)


def gamma_low_t(res: ReservoirSpec, t: float) -> float:
    """Low-temperature Ohmic closed form.

    2 eta Omega^2 [ln(1 + (w_c t)^2) + 2 ln(sinh(pi t / beta) / (pi t / beta))];
    the t -> 0 limit of the thermal factor is taken analytically, and eta = 0
    gives 0.0 even where the log terms overflow.
    """
    spectral = _require_ohmic(res, _LOW_T)
    if res.beta == ZERO_TEMPERATURE:
        raise MethodError("method low_t requires a finite inverse temperature")
    t = _check_time(t)
    if t == 0.0 or spectral.eta == 0.0:
        return 0.0
    wct = spectral.omega_c * t
    z = math.pi * t / res.beta
    return 2.0 * spectral.eta * res.omega_qubit**2 * (_log1p_square(wct) + 2.0 * _log_sinhc(z))


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
        total += 0.5 * _log1p_square(y / (x + k))
    u = x + _STIRLING_SHIFT
    s = y / u
    log_r = _log1p_square(s)  # ln |u + iy|^2 - ln u^2
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
    _require_ohmic(res, _EXACT)
    if type(t) is float or np.ndim(t) == 0:  # a Python float skips the array check
        return _ohmic_gamma(res, t)
    return np.array([_ohmic_gamma(res, tv) for tv in _time_array(t).tolist()])


def _ohmic_gamma(res: ReservoirSpec, t: float) -> float:
    """gamma_exact at one time; 0.0 at t = 0 even where 2 eta Omega^2 overflows,
    and 0.0 at eta = 0 even where the log terms overflow."""
    t = _check_time(t)
    spectral = res.spectral
    if t == 0.0 or spectral.eta == 0.0:
        return 0.0
    wct = spectral.omega_c * t
    value = 2.0 * spectral.eta * res.omega_qubit**2 * _log1p_square(wct)
    if res.beta == ZERO_TEMPERATURE:
        return value
    x = 1.0 + 1.0 / (res.beta * spectral.omega_c)
    return value + 8.0 * spectral.eta * res.omega_qubit**2 * _log_gamma_ratio(x, t / res.beta)


def _quadrature_domain(spectral: SpectralDensity) -> _QuadratureDomain:
    """The shared domain of (omega_eps, cutoff), the least and the largest w
    whose square quadrature takes; built if no live reservoir holds it."""
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
        key = (omega_eps, cutoff)
        return _DOMAINS.get(key) or _DOMAINS.setdefault(key, _QuadratureDomain(*key))
    raise MethodError(
        f"quadrature needs a support cutoff {rule}, got {cutoff!r}"
        f" ({_CUTOFF_MULTIPLE:g} omega_c for an Ohmic density)"
    )


def _node_set(domain: _QuadratureDomain, binade: int) -> integrate.NodeSet:
    """The nodes and weights of every t in [2^(binade - 1), 2^binade).

    Below the binade's piece width, two periods of sin^2(w t / 2) at its top
    or cutoff / _PANEL_LIMIT, whichever is wider, every other panel edge is
    kept, so the panels run 2 per decade there and 4 above.  Each panel is
    split into equal pieces no wider than that width.  Below omega_eps the
    integrand is continued flat, so [0, omega_eps] is one node at omega_eps
    that both rules weigh by omega_eps.
    """
    edges, omega_eps = domain.edges, domain.omega_eps
    width = max(math.ldexp(4.0 * math.pi, -binade), domain.cutoff / _PANEL_LIMIT)
    keep = edges >= width
    keep[::2] = True
    keep[-1] = True
    nodes, weights = integrate.composite(edges[keep], width)
    return integrate.NodeSet(
        np.concatenate([[omega_eps], nodes]),
        np.concatenate([[[omega_eps], [omega_eps]], weights], axis=1),
    )


def _binade(domain: _QuadratureDomain, t: float) -> int:
    """The binade whose rule serves t > 0: t's own, clamped to the domain's range."""
    binade = math.frexp(t)[1]
    if binade <= domain.first_binade:
        return domain.first_binade
    return binade if binade < domain.last_binade else domain.last_binade


def _quadrature_rule(res: ReservoirSpec, plan: _QuadraturePlan, binade: int) -> np.ndarray:
    """The (2, n) weight array of every t in [2^(binade - 1), 2^binade), built
    on first use: the weights of the domain's node set of the binade, which
    this also builds on first use, times this reservoir's factor."""
    weights = plan.rules.get(binade)
    if weights is not None:
        return weights
    node_sets = plan.domain.node_sets
    node_set = node_sets.get(binade) or node_sets.setdefault(binade, _node_set(plan.domain, binade))
    w = node_set.nodes
    spectral = res.spectral
    # a factor that overflows (or a tanh that underflows to 0) makes a weight
    # inf or NaN, and the error estimate NaN: a QuadratureError at every t
    with np.errstate(all="ignore"):
        if isinstance(spectral, OhmicSpectralDensity):
            j = spectral(w)
        else:
            j = np.array([spectral(v) for v in w.tolist()], dtype=float)
        factor = 8.0 * res.omega_qubit**2 * j / (w * w) / np.tanh(0.5 * res.beta * w)
        weights = plan.rules[binade] = node_set.weights * factor
    return weights


def _converged(plan: _QuadraturePlan, value: float, abserr: float) -> float:
    """Gamma from a rule's Kronrod value and |Kronrod - Gauss|, or QuadratureError."""
    # a subnormal eta underflows epsabs to 0, where a one-ulp estimate would fail
    if not abserr <= 10.0 * max(plan.epsabs, QUAD_EPSREL * abs(value), sys.float_info.min):
        raise QuadratureError(
            f"decoherence integral did not converge (error estimate {abserr:.3e})",
            error_estimate=abserr,
        )
    return max(0.0, value)


def _gamma_quadrature(res: ReservoirSpec, plan: _QuadraturePlan, t: float) -> float:
    binade = _binade(plan.domain, t)
    weights = _quadrature_rule(res, plan, binade)  # builds the binade's node set on first use
    value, abserr, _ = integrate.quad(weights, plan.domain.node_sets[binade], t)
    return _converged(plan, value, abserr)


def _fill_quadrature_tables(reservoirs: Sequence[ReservoirSpec], times: Sequence[float]) -> None:
    """Store in each reservoir's quadrature table its Gamma at every time it lacks.

    The missing times of one domain and binade share one sin^2 block over
    the binade's node set, built at most _BLOCK_BYTES at a time, and each
    reservoir's weight array of the binade weighs it: `integrate.sin_squared`
    and `integrate.weigh`, the one rule `integrate.quad` runs at one time,
    so every stored Gamma has the bits of `gamma` by construction.  What
    does not reach a weight array is left to `gamma`, to evaluate or to
    raise in its turn: a time that is not positive and finite, and a
    reservoir whose plan or weights raise.  A Gamma that fails the
    convergence test of `gamma` is not stored, and the blocks still to come
    skip its reservoir.  The blocks of one group run in the order of `times`.
    """
    groups = defaultdict(list)  # (domain, binade) -> [(plan, weights, table)] of the reservoirs there
    wanted = defaultdict(dict)  # (domain, binade) -> the times any of them lacks, in order
    for res in {id(res): res for res in reservoirs}.values():
        table = res._gamma_tables[_QUADRATURE]
        try:
            missing = [t for t in times if t not in table and 0.0 < t < math.inf]
            if not missing:
                continue
            plan = res._quadrature_plan
            keys = [(plan.domain, _binade(plan.domain, t)) for t in missing]
            for key in dict.fromkeys(keys):
                groups[key].append((plan, _quadrature_rule(res, plan, key[1]), table))
        except Exception:  # gamma raises it where the time-major order reaches it
            continue
        for key, t in zip(keys, missing):
            wanted[key][t] = None
    # the id of each table that met a failure: a call through `gammas` raises
    # there or before, so what follows it in `times` would be evaluated for nothing
    failed = set()
    for (domain, binade), members in groups.items():
        half_nodes = domain.node_sets[binade].half_nodes
        ts = list(wanted[domain, binade])
        rows = max(1, _BLOCK_BYTES // (8 * half_nodes.size))
        for start in range(0, len(ts), rows):
            members = [member for member in members if id(member[2]) not in failed]
            if not members:
                break
            block = ts[start : start + rows]
            sines = integrate.sin_squared(half_nodes, np.array(block)[:, None])
            for plan, weights, table in members:
                pairs = integrate.weigh(weights, sines).tolist()
                for t, (kronrod, gauss) in zip(block, pairs):
                    if t in table:
                        continue
                    try:
                        table[t] = _converged(plan, kronrod, abs(kronrod - gauss))
                    except QuadratureError:  # not stored: gamma raises it in its turn
                        failed.add(id(table))
                        break


def gamma(res: ReservoirSpec, t: float, method: GammaMethod) -> float:
    """Gamma_X(t) >= 0 via the requested method; Gamma_X(0) = 0 exactly.

    +inf is a valid Gamma (full damping).  A NaN or negative value means the
    method cannot evaluate this reservoir at this time, and raises
    MethodError naming the method, the time and the value.
    """
    if method is _ZERO_T:
        value = gamma_zero_t(res, t)
    elif method is _LOW_T:
        value = gamma_low_t(res, t)
    elif method is _QUADRATURE:
        time = _check_time(t)  # each closed form checks t itself, after its method's rules
        plan = res._quadrature_plan  # MethodError on a cutoff quadrature cannot take
        value = 0.0 if time == 0.0 else _gamma_quadrature(res, plan, time)
    elif method is _EXACT:
        value = gamma_exact(res, t)
    else:
        raise MethodError(f"unknown evaluation method {method!r}")
    if not value >= 0.0:  # NaN included
        raise MethodError(f"method {method.value} gives Gamma = {value!r} at t = {t!r}, not >= 0")
    return value
