"""Derived time scales and batch parameter sweeps.

Preservation time t_p is the last time a correlation measure stays above
the dead threshold (1e-12); characteristic time T_c is the end of the
initial plateau (first drop of a fraction epsilon below the starting
value).  Sweeps evaluate the matrix pipeline over a Cartesian parameter
grid, find the time scales on the measures' Gamma-space closed forms, and
are bitwise deterministic.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import NoCorrelationError, ParameterError
from .evolution import check_phase, dephasing_factors, evolve, gammas
from .measures import (
    BIPARTITIONS,
    GHZ_WERNER_FORMS,
    W_WERNER_FORMS,
    ZERO_EIGENVALUE_TOL,
    DensityStack,
    Form,
    PureSpectra,
    gmc_x_state,
    l1_coherence,
    negativity,
    tripartite_negativity,
)
from .reservoir import ZERO_TEMPERATURE, GammaMethod, OhmicSpectralDensity, ReservoirSpec, gamma
from .states import check_mixing, ghz_state, projector, w_state, werner

DEAD_THRESHOLD = ZERO_EIGENVALUE_TOL  # the measures' zero: a MARGINS entry dies with its measure
ROOT_REL_TOL = 1e-9
DEFAULT_EPSILON = 0.01
FREEZE_VALUE_TOL = 0.01
FREEZE_VALUE_FLOOR = 0.05
FREEZE_MIN_POINTS = 6
FREEZE_SPAN_RATIO = 2.0
# a grid of T times holds T x 8 x 8 complex matrices (1 KiB each) per reservoir set
MAX_T_COUNT = 100_000

MEASURES: dict[str, Callable[[np.ndarray], float]] = {
    "gmc": gmc_x_state,
    "tripartite_negativity": tripartite_negativity,
    # each reads `negativity` from this module when called
    **{f"negativity_{c}": lambda rho, q=q: negativity(rho, q) for q, c in enumerate(BIPARTITIONS)},
    "l1_coherence": l1_coherence,
}

STATES: dict[str, Callable[[], np.ndarray]] = {
    "ghz": ghz_state,
    "w": w_state,
}


# (state, measure) -> (kernel, margin), each f(x, d) with d_X = exp(-Gamma_X):
# the MEASURES of the evolved STATES in closed form, where the root finders
# evaluate them, and the same before its clip at 0 (`measures.werner_forms`)
_FORMS = {**GHZ_WERNER_FORMS, **W_WERNER_FORMS}
KERNELS: dict[tuple[str, str], Form] = {key: kernel for key, (kernel, _) in _FORMS.items()}
MARGINS: dict[tuple[str, str], Form] = {key: margin for key, (_, margin) in _FORMS.items()}

PARAM_FIELDS = (
    "state", "x", "eta", "beta_a", "k1", "k2",
    "omega_sq_a", "omega_sq_b", "omega_sq_c", "omega_c", "method",
)


def preservation_time_zero_t(x: float, eta: float, omega_sq: float, omega_c: float) -> float:
    """Closed-form vanishing time of the zero-temperature GHZ-Werner GMC.

    (1/w_c) sqrt((4x / 3(1-x))^(1 / (2 eta Omega^2)) - 1); returns 0 for
    x <= 3/7, and +inf for x = 1 or where t_p is past the float range.
    """
    for name, value in (("x", x), ("eta", eta), ("omega_sq", omega_sq), ("omega_c", omega_c)):
        _check_real(name, value)
    check_mixing(x)
    if not (eta > 0 and omega_sq > 0 and omega_c > 0):
        raise ParameterError("eta, omega_sq and omega_c must be positive")
    if x == 1.0:
        return math.inf
    ratio = 4.0 * x / (3.0 * (1.0 - x))
    if ratio <= 1.0:  # x <= 3/7
        return 0.0
    p = 1.0 / (2.0 * eta * omega_sq)
    try:
        return math.sqrt(ratio**p - 1.0) / omega_c
    except OverflowError:  # so ratio^-p < 1e-308: t_p = ratio^(p/2) sqrt(1 - ratio^-p) / w_c
        log_t = 0.5 * p * math.log(ratio) - math.log(omega_c)
    return math.exp(log_t) if log_t <= math.log(sys.float_info.max) else math.inf


def _itp(
    curve: Callable[[float], float],
    alive: Callable[[float], bool],
    level: float,
    lo: tuple[float, float],
    hi: tuple[float, float],
) -> float:
    """Midpoint of [lo, hi] after shrinking it until hi - lo <= ROOT_REL_TOL * hi,
    or until no float lies between them, as below about 5e-315, where
    ROOT_REL_TOL * hi is less than the spacing of the subnormal floats and the
    first rule is never met.

    `lo` and `hi` are (t, curve(t)) pairs; the curve is alive at lo and not
    alive at hi, and each step keeps the part where that still holds.  A
    step is one of ITP (Oliveira & Takahashi, ACM TOMS 47(1), 5, 2021) on
    curve(t) - level, with kappa1 = 0.2 / width, kappa2 = 2 and n0 = 1: the
    regula falsi point, moved towards the midpoint by
    delta = max(kappa1 (hi - lo)^2, ROOT_REL_TOL hi / 4), and kept within
    r_j = 0.99 width 2^-j - (hi - lo) / 2 of the midpoint.  The floor on
    delta steps over a root that the falsi point has found to round-off.
    r_j stands for eps 2^n_1/2 = 0.99 width / 2: after j + 1 steps the
    bracket is at most 0.99 times bisection's after j, so on a monotone
    curve the search ends by one step after bisection would.
    """
    (a, fa), (b, fb) = lo, hi
    fa, fb = fa - level, fb - level
    width = b - a
    # 0.99 width and kappa1 once, and 0.5^j by halving from 1, which is exact:
    # each step computes r_j and delta with the same operations as written out
    reach, kappa1, shrink = 0.99 * width, 0.2 / width, 1.0
    while b - a > ROOT_REL_TOL * b:
        gap = b - a
        mid = 0.5 * (a + b)
        if not a < mid < b:  # a and b are neighbouring subnormal floats
            break
        radius = reach * shrink - 0.5 * gap
        # fa >= 0 >= fb and fa > fb put falsi in [a, b]; a NaN value gives the midpoint
        falsi = a + gap * (fa / (fa - fb))
        sigma = math.copysign(1.0, mid - falsi)
        delta = max(kappa1 * gap**2, 0.25 * ROOT_REL_TOL * b)
        t = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
        if not abs(t - mid) <= radius:
            t = mid - sigma * radius
        v = curve(t)
        if alive(v):
            a, fa = t, v - level
        else:
            b, fb = t, v - level
        shrink *= 0.5
    return 0.5 * (a + b)


def _check_samples(ts: list[float], vs: list[float], quantity: str) -> None:
    """Reject times that go backwards (equal neighbours pass: linspace can repeat
    a time on a tiny range), a curve that does not start above 0, NaN included,
    and a NaN value after the start, which no crossing search can place.

    Each list is scanned element by element only when a screen fails: times
    in order with no NaN sort to themselves and sum to a number (inf, where
    the sum overflows), and values sum to NaN only where one is NaN or
    infinities of both signs meet.
    """
    total = sum(ts)
    if total != total or sorted(ts) != ts:  # a NaN, or a time that goes backwards
        i = next(i for i in range(len(ts) - 1) if not ts[i] <= ts[i + 1])
        raise ParameterError(f"sample times must not decrease, got {ts[i + 1]!r} after {ts[i]!r}")
    if not vs[0] > 0.0:  # NaN included
        raise NoCorrelationError(f"measure starts at {vs[0]!r}; no {quantity} exists")
    total = sum(vs)
    if total != total:
        nan_at = next(itertools.compress(ts, map(math.isnan, vs)), None)
        if nan_at is not None:
            raise ParameterError(f"sample value at t = {nan_at!r} is NaN")


def _sample_lists(ts: Sequence, vs: Sequence) -> tuple[list, list]:
    """ts and vs as Python float lists, by the input rule of every sampled curve:
    1-d (read as `ndim`, so an array costs no numpy call) sequences of real
    numbers, not strings, of one nonzero length, with finite times from
    t >= 0; `_check_samples` checks the rest.  Each is read through a typed
    array('d'), which rejects an entry that is not a real number; bytes,
    which it would read as raw doubles, are no sequence of numbers."""
    flat = getattr(ts, "ndim", 1) == getattr(vs, "ndim", 1) == 1
    raw = isinstance(ts, (bytes, bytearray)) or isinstance(vs, (bytes, bytearray))
    try:
        ts, vs = ([], []) if raw or not flat else (array("d", ts).tolist(), array("d", vs).tolist())
    except TypeError:  # a nested list, an entry that is not a real number, or not a sequence
        ts, vs = [], []
    if not ts or len(ts) != len(vs):
        raise ParameterError("samples must be matching nonempty 1-d time and value sequences")
    if not (0.0 <= ts[0] and ts[-1] < math.inf):  # NaN included
        raise ParameterError(
            f"sample times must be finite from t >= 0, got {ts[0]!r} to {ts[-1]!r}"
        )
    return ts, vs


def _sampled_curve(
    curve: Callable[[float], float],
    t_max: float,
    samples: tuple[Sequence, Sequence] | None,
    quantity: str,
) -> tuple[list, list]:
    """The sampled curve, checked, from t = 0 to t_max: t = 0 and curve(0) go in
    front of samples that start later, to bracket a crossing before the first;
    without samples, the curve at 0 and at t_max 2^-k for k = 48 ... 0."""
    _check_real("t_max", t_max)
    if not 0.0 < t_max < math.inf:
        raise ParameterError(f"t_max must be positive and finite, got {t_max!r}")
    if samples is None:
        grid = [0.0] + [t_max * 2.0**-k for k in range(48, -1, -1)]
        samples = (grid, [curve(t) for t in grid])
    ts, vs = _sample_lists(*samples)
    if ts[-1] != t_max:
        raise ParameterError(f"samples must end at t_max = {t_max!r}, got {ts[-1]!r}")
    if ts[0] > 0.0:
        ts, vs = [0.0, *ts], [curve(0.0), *vs]
    _check_samples(ts, vs, quantity)
    return ts, vs


def preservation_time_numeric(
    measure_curve: Callable[[float], float],
    t_max: float,
    *,
    samples: tuple[Sequence, Sequence] | None = None,
) -> float:
    """Last time the curve stays above DEAD_THRESHOLD; +inf if alive at t_max.

    The curve is sampled as `samples=(times, values)`, two 1-d sequences
    of one length whose finite times start at t >= 0, never decrease and
    end at t_max, or by default at 0 and t_max 2^-k for k = 48 ... 0.  The
    bracket [t_i, t_i+1] around the last sample above the threshold is
    searched by `_itp` to relative width ROOT_REL_TOL, so a curve that dies,
    revives and dies again gives its last crossing to grid resolution.
    `measure_curve` may be the measure or a margin for it (MARGINS): a curve
    that exceeds DEAD_THRESHOLD exactly where the measure does, whose values
    below the threshold guide the search where the clipped measure is flat.  A margin
    should come with samples from t = 0 whose first value is the measure's,
    as `run_sweep` passes them: the value at 0 decides a dead start (an
    error for 0, t_p = 0 up to DEAD_THRESHOLD), and a grid that starts later
    gets the margin's own value at 0, which is not the measure's.
    """
    ts, vs = _sampled_curve(measure_curve, t_max, samples, "preservation time")
    if vs[0] <= DEAD_THRESHOLD:
        return 0.0
    if vs[-1] > DEAD_THRESHOLD:
        return math.inf

    def alive(v: float) -> bool:
        return v > DEAD_THRESHOLD

    i = len(vs) - 2  # the last sample alive, from the end: vs[0] is alive
    while not vs[i] > DEAD_THRESHOLD:
        i -= 1
    return _itp(measure_curve, alive, DEAD_THRESHOLD, (ts[i], vs[i]), (ts[i + 1], vs[i + 1]))


def _check_epsilon(epsilon: float) -> None:
    _check_real("epsilon", epsilon)
    if not 0.0 < epsilon < 1.0:  # NaN included
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon!r}")


class CharacteristicTime(NamedTuple):
    time: float
    reached: bool


def characteristic_time(
    measure_curve: Callable[[float], float],
    t_max: float,
    epsilon: float = DEFAULT_EPSILON,
    *,
    samples: tuple[Sequence, Sequence] | None = None,
) -> CharacteristicTime:
    """Smallest time where the curve falls below (1 - epsilon) of its start.

    Returns (t_max, reached=False) when the curve never crosses.  The curve
    is sampled as in `preservation_time_numeric`, and the bracket
    [t_i-1, t_i] around the first sample below the target is searched by
    `_itp` to relative width ROOT_REL_TOL.
    """
    _check_epsilon(epsilon)
    ts, vs = _sampled_curve(measure_curve, t_max, samples, "characteristic time")
    target = (1.0 - epsilon) * vs[0]

    def alive(v: float) -> bool:
        return v >= target

    if alive(vs[-1]):
        return CharacteristicTime(t_max, False)
    i = 0  # the first sample below the target: vs[-1] is
    while vs[i] >= target:
        i += 1
    t_c = _itp(measure_curve, alive, target, (ts[i - 1], vs[i - 1]), (ts[i], vs[i]))
    return CharacteristicTime(t_c, True)


def freezing_intervals(ts: Sequence[float], values: Sequence[float]) -> list[tuple[float, float]]:
    """Maximal intervals where the sampled curve holds its value.

    Convention: the grid is split into runs that stay within
    FREEZE_VALUE_TOL * values[0] of the run's entry value.  A run counts as
    frozen when it (a) spans at least FREEZE_MIN_POINTS samples, (b) never
    dips below FREEZE_VALUE_FLOOR * values[0] (a near-dead curve cannot
    freeze), and (c) lasts at least FREEZE_SPAN_RATIO times longer than
    some neighbouring run that still starts above the floor -- a plateau
    must stand out against an adjacent transit, which is what separates a
    staircase step from steady decay.  Adjacent qualifying runs merge into
    one reported interval.  Resolving an early plateau requires a grid that
    samples it (log-spaced times).  The samples are read as
    `preservation_time_numeric` reads them, with any last time and at least
    2 samples; a repeated time is allowed.
    """
    ts, vs = _sample_lists(ts, values)
    if len(ts) < 2:
        raise ParameterError(f"freezing detection needs at least 2 samples, got {len(ts)}")
    _check_samples(ts, vs, "freezing interval")
    tol = FREEZE_VALUE_TOL * vs[0]
    floor = FREEZE_VALUE_FLOOR * vs[0]

    # a run ends before the first value off its entry value by more than tol
    starts, entry = [0], vs[0]
    for i, v in enumerate(vs[1:], 1):
        if not -tol <= v - entry <= tol:  # abs(v - entry) <= tol, without a call
            starts.append(i)
            entry = v
    ends = [*starts[1:], len(vs)]  # run k holds the samples from starts[k] up to ends[k], excluded

    def span(k: int) -> float:
        return ts[ends[k] - 1] - ts[starts[k]]

    def stands_out(k: int) -> bool:
        bordered = False  # by a run that starts above the floor
        for j in (k - 1, k + 1):
            if 0 <= j < len(starts) and vs[starts[j]] >= floor:
                if span(k) >= FREEZE_SPAN_RATIO * span(j):
                    return True
                bordered = True
        return not bordered

    qualifying = [
        (starts[k], ends[k] - 1)
        for k, length in enumerate(map(operator.sub, ends, starts))
        if length >= FREEZE_MIN_POINTS
        and min(vs[starts[k] : ends[k]]) >= floor
        and stands_out(k)
    ]
    merged: list[list[int]] = []
    for a, b in qualifying:
        if merged and a == merged[-1][1] + 1:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return [(ts[a], ts[b]) for a, b in merged]


def _check_real(name: str, value) -> None:
    """Reject, under `name`, a value that is not a numbers.Real, or is a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")


def _per_omega_c(name: str, value: float, omega_c: float) -> float:
    """value / omega_c, rejected under `name` if nonzero and it rounds to 0 or inf."""
    quotient = value / omega_c
    if value != 0 and not 0 < quotient < math.inf:
        raise ParameterError(f"{name} / omega_c = {value!r} / {omega_c!r} rounds to {quotient!r}")
    return quotient


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian parameter grid driving batch evaluation.

    A run is stated as the paper states it: `t_start`, `t_stop` and
    `beta_as` are in units of 1/omega_c, and the conversion to the natural
    units of the reservoir module happens inside this module, in
    `channel_times` and `make_reservoirs`.  `beta_as` may contain math.inf
    entries meaning zero temperature (only valid with the exact, zero-t or
    quadrature methods).
    `omega_sqs` holds the squared splittings (Omega_A^2, Omega_B^2,
    Omega_C^2) of every run.

    Construction checks that each number is a real number and not a bool,
    the shape of each list field, each name (as a str before it is
    hashed), every field's range and the channel's largest
    phase (`evolution.check_phase`), then builds and keeps the run's
    `initial_states` and `reservoir_sets`, evaluating Gamma(0) with
    `method`, so a value the run cannot build raises here, with its owner's
    message.  The Werner states are validated once, as one (len(xs), 8, 8)
    DensityStack, and `initial_states` are its rows, which share that
    validation, so `evolve` solves nothing for them.
    """

    xs: Sequence[float]
    etas: Sequence[float]
    beta_as: Sequence[float]
    k1s: Sequence[float]
    k2s: Sequence[float]
    t_start: float
    t_stop: float
    t_count: int
    omega_sqs: tuple[float, float, float]
    measures: Sequence[str] = ("gmc",)
    method: GammaMethod = GammaMethod.ZERO_T_CLOSED_FORM
    state: str = "ghz"
    omega_c: float = 1.0
    include_timescales: bool = False
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        values = [(name, getattr(self, name)) for name in ("omega_c", "t_start", "t_stop", "epsilon")]
        for name in ("xs", "etas", "beta_as", "k1s", "k2s", "omega_sqs"):
            entries = getattr(self, name)  # one that is not a list or tuple is rejected below
            if isinstance(entries, (list, tuple)):
                values += [(f"{name} entry", value) for value in entries]
        for name, value in values:
            _check_real(name, value)
        if not self.omega_c > 0:
            raise ParameterError(f"omega_c must be positive, got {self.omega_c!r}")
        if self.omega_c == math.inf:
            raise ParameterError("omega_c must be finite, got inf")
        for name in ("xs", "etas", "beta_as", "k1s", "k2s", "measures"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not value:
                raise ParameterError(f"{name} must be a nonempty list or tuple, got {value!r}")
        if not (isinstance(self.state, str) and self.state in STATES):
            raise ParameterError(f"unknown state {self.state!r}; choose from {sorted(STATES)}")
        unknown = [m for m in self.measures if not (isinstance(m, str) and m in MEASURES)]
        if unknown:
            raise ParameterError(f"unknown measures {unknown!r}; choose from {sorted(MEASURES)}")
        if not isinstance(self.t_count, numbers.Integral) or not 2 <= self.t_count <= MAX_T_COUNT:
            raise ParameterError(
                f"t_count must be an integer >= 2 and <= {MAX_T_COUNT}, got {self.t_count!r}"
            )
        if not self.t_start >= 0.0:  # NaN included
            raise ParameterError(f"t_start must be >= 0, got {self.t_start!r}")
        if not math.inf > self.t_stop > self.t_start:
            raise ParameterError(
                f"need t_stop > t_start >= 0, got {self.t_start!r}, {self.t_stop!r}"
            )
        for name, value in (("t_start", self.t_start), ("t_stop", self.t_stop)):
            _per_omega_c(name, value, self.omega_c)
        if not (isinstance(self.omega_sqs, (list, tuple)) and len(self.omega_sqs) == 3):
            raise ParameterError(f"omega_sqs must hold three values, got {self.omega_sqs!r}")
        for name, value in zip(("omega_sq_a", "omega_sq_b", "omega_sq_c"), self.omega_sqs):
            if not value > 0:  # NaN included
                raise ParameterError(f"{name} must be positive, got {value!r}")
        # the largest channel time, linspace's endpoint
        check_phase(self.omegas(), self.t_stop / self.omega_c, "t_stop / omega_c")
        if not isinstance(self.method, GammaMethod):
            raise ParameterError(f"method must be a GammaMethod, got {self.method!r}")
        _check_epsilon(self.epsilon)
        self.initial_states, self.reservoir_sets  # every x is built before any reservoir

    @cached_property
    def initial_states(self) -> tuple[DensityStack, ...]:
        """The Werner state of each x, in xs order: the rows of one DensityStack."""
        psi = STATES[self.state]()
        return tuple(DensityStack(np.stack([werner(psi, x) for x in self.xs])).rows())

    @cached_property
    def reservoir_sets(self) -> tuple[tuple[tuple, tuple[ReservoirSpec, ...]], ...]:
        """Each (eta, beta_a, k1, k2) with its reservoirs, in itertools.product order;
        equal reservoirs are one object, so the sets share its quadrature rules
        and Gamma tables."""
        sets, shared = [], {}
        for eta, beta_a, k1, k2 in itertools.product(self.etas, self.beta_as, self.k1s, self.k2s):
            made = make_reservoirs(eta, self.omega_c, beta_a, k1, k2, self.omegas())
            reservoirs = tuple(shared.setdefault(res, res) for res in made)
            for res in reservoirs:
                gamma(res, 0.0, self.method)  # 0.0, or MethodError on a mismatch
            sets.append(((eta, beta_a, k1, k2), reservoirs))
        return tuple(sets)

    def times(self) -> np.ndarray:
        """The time grid in units of 1/omega_c, as configured."""
        return np.linspace(self.t_start, self.t_stop, self.t_count)

    def channel_times(self) -> np.ndarray:
        """The time grid in natural units, where the channel is evaluated."""
        return np.linspace(self.t_start / self.omega_c, self.t_stop / self.omega_c, self.t_count)

    def omegas(self) -> tuple[float, float, float]:
        """The splittings (Omega_A, Omega_B, Omega_C), square roots of omega_sqs."""
        return tuple(math.sqrt(v) for v in self.omega_sqs)


@dataclass(frozen=True)
class TimescaleResult:
    t_p: float
    t_c: float
    t_c_reached: bool
    freezing: list[tuple[float, float]]
    error: str | None = None


@dataclass(frozen=True)
class CurveResult:
    """One measure over the time grid at one parameter tuple.

    parameters maps PARAM_FIELDS, in order, to the curve's run values;
    values[i] and errors[i] (None when fine) belong to grid.times()[i];
    timescales is None unless the grid includes them.
    """

    name: str
    parameters: dict
    values: list[float]
    errors: list[str | None]
    timescales: TimescaleResult | None


def make_reservoirs(
    eta: float,
    omega_c: float,
    beta_a: float,
    k1: float,
    k2: float,
    omegas: tuple[float, float, float],
) -> tuple[ReservoirSpec, ReservoirSpec, ReservoirSpec]:
    """Three Ohmic reservoirs with beta_B = k1 beta_A, beta_C = k2 beta_A.

    beta_a is in units of 1/omega_c: beta_A = beta_a / omega_c.
    k1 and k2 must be positive at every temperature.  beta_a =
    ZERO_TEMPERATURE (inf) puts all three at zero temperature, where k1 and
    k2 scale nothing.  Otherwise beta_a must be positive, and so must
    beta_A, k1 beta_A and k2 beta_A after rounding: one that underflows to 0
    or overflows to inf is rejected by the name of its factor, with beta_a
    quoted as given.  omegas must be a 1-d sequence of three splittings.
    eta, omega_c, beta_a, k1, k2 and each splitting must be a real number
    and not a bool; all of this is checked before anything is built.
    """
    if getattr(omegas, "ndim", 1) != 1 or not hasattr(omegas, "__len__") or len(omegas) != 3:
        raise ParameterError(f"make_reservoirs takes three splittings, got {omegas!r}")
    named = (("eta", eta), ("omega_c", omega_c), ("beta_a", beta_a), ("k1", k1), ("k2", k2))
    for name, value in (*named, *(("omegas entry", omega) for omega in omegas)):
        _check_real(name, value)
    spectral = OhmicSpectralDensity(eta, omega_c)
    betas = (beta_a, beta_a, beta_a)
    if beta_a != ZERO_TEMPERATURE:
        if not beta_a > 0:
            raise ParameterError(f"beta_a must be positive, got {beta_a!r}")
        beta = _per_omega_c("beta_a", beta_a, omega_c)
        betas = (beta, k1 * beta, k2 * beta)
    for key, k, product in (("k1", k1, betas[1]), ("k2", k2, betas[2])):
        if not k > 0:  # NaN included, at every temperature
            raise ParameterError(f"{key} must be positive, got {k!r}")
        if beta_a != ZERO_TEMPERATURE and not 0.0 < product < math.inf:
            raise ParameterError(
                f"{key} * beta_a = {k!r} * {beta_a!r} rounds to {product!r}, "
                "not a positive finite inverse temperature"
            )
    return tuple(
        ReservoirSpec(spectral, beta, omega) for beta, omega in zip(betas, omegas)
    )


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sweep_stack(rho0, x: float, channel: PureSpectra) -> DensityStack | np.ndarray:
    """The stack of rho0, the Werner state of x, evolved through the channel of
    `channel.factors`: validated once, as a DensityStack that reads each
    partial-transpose spectrum from `channel`, or the raw array where
    validation raises."""
    evolved = evolve(rho0, channel.factors)
    try:
        return DensityStack(evolved, (x, channel))
    except Exception:  # each measure replays the raw array, matrix by matrix
        return evolved


def _measure_curve(fn: Callable, stack: DensityStack | Sequence) -> tuple[list, list]:
    """Values and per-row errors (None when fine) of one measure over a stack.

    A DensityStack is measured whole; when that call raises, the measure is
    replayed on each of its `rows()`, which share its validation.  Any other
    sequence is evaluated entry by entry: the raw array of a stack that
    failed validation, each matrix validated on its own, or the times of a
    kernel's curve.  Each row carries its own value or error.
    """
    if isinstance(stack, DensityStack):
        try:
            values = fn(stack).tolist()
            return values, [None] * len(values)
        except Exception:  # replayed below, one row at a time
            stack = stack.rows()
    values, errors = [], []
    for rho in stack:
        try:
            values.append(fn(rho))
            errors.append(None)
        except Exception as exc:  # recorded on its row
            values.append(math.nan)
            errors.append(_error_text(exc))
    return values, errors


def _timescales(
    margin: Callable[[float], float],
    kernel: Callable[[float], float],
    grid: SweepGrid,
    times: list[float],
    grid_time: dict[float, float],
    values: list,
    errors: list,
) -> TimescaleResult:
    """t_p, T_c and freezing of one curve sampled at `times`, in units of 1/omega_c.

    `times` are the grid's channel times, and `grid_time` maps each to its
    grid.times() value.  Each reader converts its samples whole where they
    come as array('d') (`_sample_lists`), and entry by entry otherwise, so
    `run_sweep` passes its times as one and the values are made one here.

    The root finders and the freezing detection run on the channel times, as
    plain lists: t_p on the curve's margin and T_c on its kernel, with t = 0
    and the kernel's value in front of a grid that starts later, so a dead
    start is the measure's and not the margin's.  t_p and a
    reached T_c are then multiplied by omega_c, while an unreached T_c (the
    last sample) and each end of a freezing interval are reported at the
    grid.times() of their samples.  A failed channel, a failed row or a
    failed root search all end here, as the error of the curve's time scales
    (the first row error wins).
    """
    error = next(filter(None, errors), None)  # an error is a nonempty text
    if error is None:
        try:
            values = array("d", values)
            samples = (times, values)
            if times[0] > 0.0:
                samples = ([0.0, *times], [kernel(0.0), *values])
            t_p = preservation_time_numeric(margin, times[-1], samples=samples)
            t_c, reached = characteristic_time(kernel, times[-1], grid.epsilon, samples=samples)
            # a curve already dead at its first sample has nothing to freeze
            freezing = [] if values[0] <= 0.0 else freezing_intervals(times, values)
            return TimescaleResult(
                t_p * grid.omega_c,
                t_c * grid.omega_c if reached else grid_time[t_c],
                reached,
                [(grid_time[a], grid_time[b]) for a, b in freezing],
            )
        except Exception as exc:  # recorded, not raised
            error = _error_text(exc)
    return TimescaleResult(math.nan, math.nan, False, [], error)


def _gamma_curve(
    form: Callable[[float, Sequence[float]], float],
    x: float,
    reservoirs: tuple[ReservoirSpec, ...],
    method: GammaMethod,
) -> Callable[[float], float]:
    """t -> form(x, d), d_X = exp(-Gamma_X(t)) with each Gamma from `gammas`."""
    exp = math.exp  # read from the closure at each step, not looked up in math

    def curve(t: float) -> float:
        return form(x, [exp(-g) for g in gammas(reservoirs, (t,), method)])

    return curve


def run_sweep(grid: SweepGrid) -> list[CurveResult]:
    """Every measure's curve at every parameter tuple, in lexicographic order.

    Each curve is one (T, 8, 8) stack, built by `_sweep_stack` from the
    grid's Werner state, a row of its validated stack that `evolve` does
    not validate again, and its reservoir set's channel.  The channel of
    each distinct set is computed once, before the curves, and kept as the
    set's one `PureSpectra` table, which holds its factors, or as the text
    of its error.  Each stack is validated once, as a DensityStack that
    every measure shares.  F has a unit diagonal, so each stack is
    x E + (1 - x) I/8, E the pure state evolved through its set's channel,
    and its DensityStack reads each partial-transpose spectrum from the
    set's table, as x lam + (1 - x)/8, within round-off of solving its
    own.  The table solves a cut of E the first time a measure reads it;
    a solve that raises makes the measure replay the stack row by row,
    each row on its own spectra.  Results are in the grid's units:
    `parameters` as configured, and t_p, T_c and the freezing intervals in
    units of 1/omega_c.  The time lists of the grid
    are built once per call, for every curve.  The grid and every
    root-finder evaluation read each Gamma from its reservoir's own
    time -> Gamma table, which lasts as long as the grid.  A
    root-finder step evaluates the curve in closed form at the three
    Gamma of its time: the search for t_p its margin, MARGINS[state,
    measure], passed to `preservation_time_numeric` as its curve, and the
    search for T_c its kernel, KERNELS[state, measure]; the grid's matrices
    are the values printed.  Before the channels, one `gammas` call fills the
    table of every distinct reservoir over the grid: under quadrature each
    reservoir's up to its own first failure, and otherwise time after time
    until a Gamma raises.  Each channel then raises its own set's first
    failure.  A recorded error is an evaluation failure (channel,
    measure or root finder); it never aborts the sweep.
    """
    times = grid.channel_times()
    ts = times.tolist()
    grid_time = dict(zip(ts, grid.times().tolist()))
    sample_times = array("d", ts)
    curves: list[CurveResult] = []
    sets = dict.fromkeys(reservoirs for _, reservoirs in grid.reservoir_sets)
    try:  # every reservoir at once, so those on one quadrature domain share each sin^2 block
        gammas(list(dict.fromkeys(itertools.chain(*sets))), ts, grid.method)
    except Exception:  # not stored: the channels below raise each set's own first failure
        pass
    pure = projector(STATES[grid.state]())
    channels: dict[tuple, PureSpectra | str] = {}  # reservoir set -> its table, or its error
    for reservoirs in sets:
        try:
            factors = dephasing_factors(reservoirs, times, grid.method)
            channels[reservoirs] = PureSpectra(pure, factors)
        except Exception as exc:  # every curve of this reservoir set carries it
            channels[reservoirs] = _error_text(exc)
    for (x, rho0), (point, reservoirs) in itertools.product(
        zip(grid.xs, grid.initial_states), grid.reservoir_sets
    ):
        label = (grid.state, x, *point, *grid.omega_sqs, grid.omega_c, grid.method.value)
        params = dict(zip(PARAM_FIELDS, label))
        channel = channels[reservoirs]
        stack = None if isinstance(channel, str) else _sweep_stack(rho0, x, channel)
        for name in grid.measures:
            if stack is None:
                values, errors = [math.nan] * times.size, [channel] * times.size
            else:
                values, errors = _measure_curve(MEASURES[name], stack)
            timescales = None
            if grid.include_timescales:
                margin, kernel = (
                    _gamma_curve(forms[grid.state, name], x, reservoirs, grid.method)
                    for forms in (MARGINS, KERNELS)
                )
                timescales = _timescales(
                    margin, kernel, grid, sample_times, grid_time, values, errors
                )
            curves.append(CurveResult(name, params, values, errors, timescales))
    return curves
