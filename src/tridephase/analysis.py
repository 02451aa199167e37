"""Derived time scales and batch parameter sweeps.

Preservation time t_p is the last time a correlation measure stays above
the dead threshold (1e-12); characteristic time T_c is the end of the
initial plateau (first drop of a fraction epsilon below the starting
value).  Sweeps evaluate the matrix pipeline over a Cartesian parameter
grid, find the time scales on the measures' Gamma-space kernels, and are
bitwise deterministic.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import NoCorrelationError, ParameterError
from .evolution import dephasing_factors, evolve, gammas
from .measures import (
    DensityStack,
    GHZWernerKernel,
    WernerKernel,
    WWernerKernel,
    gmc_x_state,
    l1_coherence,
    negativity,
    tripartite_negativity,
)
from .reservoir import ZERO_TEMPERATURE, GammaMethod, OhmicSpectralDensity, ReservoirSpec, gamma
from .states import check_mixing, ghz_state, w_state, werner

DEAD_THRESHOLD = 1e-12
ROOT_REL_TOL = 1e-9
DEFAULT_EPSILON = 0.01
FREEZE_VALUE_TOL = 0.01
FREEZE_VALUE_FLOOR = 0.05
FREEZE_MIN_POINTS = 6
FREEZE_SPAN_RATIO = 2.0

MEASURES: dict[str, Callable[[np.ndarray], float]] = {
    "gmc": gmc_x_state,
    "tripartite_negativity": tripartite_negativity,
    "negativity_a_bc": lambda rho: negativity(rho, 0),
    "negativity_b_ac": lambda rho: negativity(rho, 1),
    "negativity_c_ab": lambda rho: negativity(rho, 2),
    "l1_coherence": l1_coherence,
}

STATES: dict[str, Callable[[], np.ndarray]] = {
    "ghz": ghz_state,
    "w": w_state,
}


def _kernels(state: str, family: WernerKernel) -> dict:
    return {
        (state, "gmc"): family.gmc,
        (state, "tripartite_negativity"): family.tripartite_negativity,
        (state, "negativity_a_bc"): lambda x, d: family.negativity(x, d, 0),
        (state, "negativity_b_ac"): lambda x, d: family.negativity(x, d, 1),
        (state, "negativity_c_ab"): lambda x, d: family.negativity(x, d, 2),
        (state, "l1_coherence"): family.l1_coherence,
    }


# (state, measure) -> the measure of the dephased Werner state as f(x, d),
# d = (exp(-Gamma_A), exp(-Gamma_B), exp(-Gamma_C)): the MEASURES of the
# evolved STATES in closed form, where the root finders evaluate them
KERNELS: dict[tuple[str, str], Callable[[float, Sequence[float]], float]] = {
    **_kernels("ghz", GHZWernerKernel()),
    **_kernels("w", WWernerKernel()),
}

PARAM_FIELDS = (
    "state", "x", "eta", "beta_a", "k1", "k2",
    "omega_sq_a", "omega_sq_b", "omega_sq_c", "omega_c", "method",
)


def preservation_time_zero_t(x: float, eta: float, omega_sq: float, omega_c: float) -> float:
    """Closed-form vanishing time of the zero-temperature GHZ-Werner GMC.

    (1/w_c) sqrt((4x / 3(1-x))^(1 / (2 eta Omega^2)) - 1); returns 0 for
    x <= 3/7 and +inf for x = 1.
    """
    check_mixing(x)
    if not (eta > 0 and omega_sq > 0 and omega_c > 0):
        raise ParameterError("eta, omega_sq and omega_c must be positive")
    if x == 1.0:
        return math.inf
    ratio = 4.0 * x / (3.0 * (1.0 - x))
    if ratio <= 1.0:  # x <= 3/7
        return 0.0
    return math.sqrt(ratio ** (1.0 / (2.0 * eta * omega_sq)) - 1.0) / omega_c


def _bisect(
    curve: Callable[[float], float],
    alive: Callable[[float], bool],
    lo: float,
    hi: float,
) -> float:
    """Midpoint of [lo, hi] after halving it until hi - lo <= ROOT_REL_TOL * hi.

    The curve is alive at lo and not alive at hi; each step keeps the half
    where that still holds.
    """
    while hi - lo > ROOT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if alive(curve(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sampled_curve(
    curve: Callable[[float], float],
    t_max: float,
    samples: tuple[Sequence, Sequence] | None,
    quantity: str,
) -> tuple[list[float], list[float]]:
    """The sampled curve as lists from t = 0 to t_max, checked to start positive.

    Without samples the curve is evaluated at 0 and at t_max 2^-k for
    k = 48 ... 0.  A grid that starts after 0 gets t = 0 and its evaluated
    value in front, so a crossing before the first sample is still
    bracketed.
    """
    if not 0.0 < t_max < math.inf:
        raise ParameterError(f"t_max must be positive and finite, got {t_max!r}")
    if samples is None:
        grid = [0.0] + [t_max * 2.0**-k for k in range(48, -1, -1)]
        samples = (grid, [curve(t) for t in grid])
    ts, vs = (list(map(float, seq)) for seq in samples)
    if len(ts) != len(vs) or not ts or ts[0] < 0.0 or ts[-1] != t_max:
        raise ParameterError("samples must be matching time and value lists from t >= 0 to t_max")
    if ts[0] > 0.0:
        ts.insert(0, 0.0)
        vs.insert(0, curve(0.0))
    if not vs[0] > 0.0:  # NaN included
        raise NoCorrelationError(f"measure starts at {vs[0]!r}; no {quantity} exists")
    return ts, vs


def preservation_time_numeric(
    measure_curve: Callable[[float], float],
    t_max: float,
    *,
    samples: tuple[Sequence, Sequence] | None = None,
) -> float:
    """Last time the curve stays above DEAD_THRESHOLD; +inf if alive at t_max.

    The curve is sampled as `samples=(times, values)`, a grid ending at
    t_max, or by default at 0 and t_max 2^-k for k = 48 ... 0.  The bracket
    [t_i, t_i+1] around the last sample above the threshold is bisected to
    relative width ROOT_REL_TOL, so a curve that dies, revives and dies again
    gives its last crossing to grid resolution.
    """
    ts, vs = _sampled_curve(measure_curve, t_max, samples, "preservation time")
    if vs[0] <= DEAD_THRESHOLD:
        return 0.0
    if vs[-1] > DEAD_THRESHOLD:
        return math.inf

    def alive(v: float) -> bool:
        return v > DEAD_THRESHOLD

    i = max(k for k, v in enumerate(vs) if alive(v))
    return _bisect(measure_curve, alive, ts[i], ts[i + 1])


def _check_epsilon(epsilon: float) -> None:
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
    [t_i-1, t_i] around the first sample below the target is bisected to
    relative width ROOT_REL_TOL.
    """
    _check_epsilon(epsilon)
    ts, vs = _sampled_curve(measure_curve, t_max, samples, "characteristic time")
    target = (1.0 - epsilon) * vs[0]

    def alive(v: float) -> bool:
        return v >= target

    if alive(vs[-1]):
        return CharacteristicTime(t_max, False)
    i = next(k for k, v in enumerate(vs) if not alive(v))
    return CharacteristicTime(_bisect(measure_curve, alive, ts[i - 1], ts[i]), True)


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
    samples it (log-spaced times).
    """
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.shape != vs.shape or ts.ndim != 1 or ts.size < 2:
        raise ParameterError("need matching 1-d time and value arrays with >= 2 samples")
    v0 = vs[0]
    if v0 <= 0.0:
        raise NoCorrelationError("freezing detection needs a positive initial value")
    tol = FREEZE_VALUE_TOL * v0
    floor = FREEZE_VALUE_FLOOR * v0

    runs: list[tuple[int, int]] = []  # [start, end] inclusive indices
    start = 0
    anchor = vs[0]
    for i in range(1, ts.size):
        if abs(vs[i] - anchor) <= tol:
            continue
        runs.append((start, i - 1))
        start = i
        anchor = vs[i]
    runs.append((start, ts.size - 1))

    def span(run: tuple[int, int]) -> float:
        return float(ts[run[1]] - ts[run[0]])

    def stands_out(pos: int) -> bool:
        neighbours = [
            runs[j]
            for j in (pos - 1, pos + 1)
            if 0 <= j < len(runs) and vs[runs[j][0]] >= floor
        ]
        if not neighbours:
            return True
        return any(span(runs[pos]) >= FREEZE_SPAN_RATIO * span(nb) for nb in neighbours)

    qualifying = [
        (a, b)
        for pos, (a, b) in enumerate(runs)
        if b - a + 1 >= FREEZE_MIN_POINTS
        and vs[a : b + 1].min() >= floor
        and stands_out(pos)
    ]
    merged: list[list[int]] = []
    for a, b in qualifying:
        if merged and a == merged[-1][1] + 1:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return [(float(ts[a]), float(ts[b])) for a, b in merged]


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

    Construction checks every field's range, then builds and keeps the run's
    `initial_states` and `reservoir_sets`, evaluating Gamma(0) with `method`,
    so a value the run cannot build raises here, with its owner's message.
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
        if not self.omega_c > 0:
            raise ParameterError(f"omega_c must be positive, got {self.omega_c!r}")
        for name, seq in (
            ("xs", self.xs),
            ("etas", self.etas),
            ("beta_as", self.beta_as),
            ("k1s", self.k1s),
            ("k2s", self.k2s),
            ("measures", self.measures),
        ):
            if len(seq) == 0:
                raise ParameterError(f"{name} must be nonempty")
        if not isinstance(self.t_count, numbers.Integral) or self.t_count < 2:
            raise ParameterError(f"t_count must be an integer >= 2, got {self.t_count!r}")
        if not self.t_start >= 0.0:  # NaN included
            raise ParameterError(f"t_start must be >= 0, got {self.t_start!r}")
        if not math.inf > self.t_stop > self.t_start:
            raise ParameterError(
                f"need t_stop > t_start >= 0, got {self.t_start!r}, {self.t_stop!r}"
            )
        for name, value in (("t_start", self.t_start), ("t_stop", self.t_stop)):
            quotient = value / self.omega_c
            if value != 0 and not 0 < quotient < math.inf:
                raise ParameterError(
                    f"{name} / omega_c = {value!r} / {self.omega_c!r} rounds to {quotient!r}"
                )
        if len(self.omega_sqs) != 3:
            raise ParameterError(f"omega_sqs must hold three values, got {self.omega_sqs!r}")
        for name, value in zip(("omega_sq_a", "omega_sq_b", "omega_sq_c"), self.omega_sqs):
            if not value > 0:  # NaN included
                raise ParameterError(f"{name} must be positive, got {value!r}")
        if not isinstance(self.method, GammaMethod):
            raise ParameterError(f"method must be a GammaMethod, got {self.method!r}")
        _check_epsilon(self.epsilon)
        unknown = set(self.measures) - set(MEASURES)
        if unknown:
            raise ParameterError(f"unknown measures: {sorted(unknown)}")
        if self.state not in STATES:
            raise ParameterError(f"unknown state {self.state!r}; choose from {sorted(STATES)}")
        self.initial_states, self.reservoir_sets  # every x is built before any reservoir

    @cached_property
    def initial_states(self) -> tuple[np.ndarray, ...]:
        """The Werner state of each x, in xs order."""
        psi = STATES[self.state]()
        return tuple(werner(psi, x) for x in self.xs)

    @cached_property
    def reservoir_sets(self) -> tuple[tuple[tuple, tuple[ReservoirSpec, ...]], ...]:
        """Each (eta, beta_a, k1, k2) with its reservoirs, in itertools.product order."""
        sets = []
        for eta, beta_a, k1, k2 in itertools.product(self.etas, self.beta_as, self.k1s, self.k2s):
            reservoirs = make_reservoirs(eta, self.omega_c, beta_a, k1, k2, self.omegas())
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
    beta_a = ZERO_TEMPERATURE (inf) puts all three at zero temperature and
    leaves k1 and k2 unused.  Otherwise beta_a, k1 and k2 must be positive,
    and so must beta_A, k1 beta_A and k2 beta_A after rounding: one that
    underflows to 0 or overflows to inf is rejected by the name of its
    factor, with beta_a quoted as given.
    """
    spectral = OhmicSpectralDensity(eta, omega_c)
    if beta_a == ZERO_TEMPERATURE:
        betas = (beta_a, beta_a, beta_a)
    else:
        if not beta_a > 0:
            raise ParameterError(f"beta_a must be positive, got {beta_a!r}")
        beta = beta_a / omega_c
        if not 0.0 < beta < math.inf:
            raise ParameterError(f"beta_a / omega_c = {beta_a!r} / {omega_c!r} rounds to {beta!r}")
        betas = (beta, k1 * beta, k2 * beta)
        for key, k, product in (("k1", k1, betas[1]), ("k2", k2, betas[2])):
            if not k > 0:
                raise ParameterError(f"{key} must be positive, got {k!r}")
            if not 0.0 < product < math.inf:
                raise ParameterError(
                    f"{key} * beta_a = {k!r} * {beta_a!r} rounds to {product!r}, "
                    "not a positive finite inverse temperature"
                )
    return tuple(
        ReservoirSpec(spectral, beta, omega) for beta, omega in zip(betas, omegas)
    )


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _measure_curve(
    fn: Callable, stack: np.ndarray, checked: DensityStack | None
) -> tuple[list, list]:
    """Values and per-row errors (None when fine) of one measure over a stack.

    The measure is called on `checked`, the stack's DensityStack.  When
    that call raises, the measure is replayed on each of its rows, which
    share its validation; when there is none (the stack failed validation),
    on each raw matrix, validated on its own.  Every row carries the value
    or the error of its own matrix.
    """
    if checked is not None:
        try:
            values = fn(checked).tolist()
            return values, [None] * len(values)
        except Exception:  # replayed below, one row at a time
            pass
    values, errors = [], []
    for rho in stack if checked is None else checked.rows():
        try:
            values.append(fn(rho))
            errors.append(None)
        except Exception as exc:  # recorded on its row
            values.append(math.nan)
            errors.append(_error_text(exc))
    return values, errors


def _timescales(
    curve: Callable[[float], float],
    grid: SweepGrid,
    times: np.ndarray,
    values: list,
    errors: list,
) -> TimescaleResult:
    """t_p, T_c and freezing of one curve sampled at `times`, in units of 1/omega_c.

    The root finders and the freezing detection run on the channel times;
    t_p and a reached T_c are then multiplied by omega_c, while an unreached
    T_c (the last sample) and each end of a freezing interval are reported
    at the grid.times() of their samples.  A failed channel,
    a failed row or a failed root search all end here, as the error of the
    curve's time scales (the first row error wins).
    """
    error = next((e for e in errors if e is not None), None)
    if error is None:
        try:
            samples = (times, values)
            t_max = float(times[-1])
            t_p = preservation_time_numeric(curve, t_max, samples=samples)
            t_c, reached = characteristic_time(curve, t_max, grid.epsilon, samples=samples)
            # a curve already dead at its first sample has nothing to freeze
            freezing = [] if values[0] <= 0.0 else freezing_intervals(times, np.asarray(values))
            grid_time = dict(zip(times.tolist(), grid.times().tolist()))
            return TimescaleResult(
                t_p * grid.omega_c,
                t_c * grid.omega_c if reached else grid_time[t_c],
                reached,
                [(grid_time[a], grid_time[b]) for a, b in freezing],
            )
        except Exception as exc:  # recorded, not raised
            error = _error_text(exc)
    return TimescaleResult(math.nan, math.nan, False, [], error)


def run_sweep(grid: SweepGrid) -> list[CurveResult]:
    """Every measure's curve at every parameter tuple, in lexicographic order.

    Each curve is one (T, 8, 8) stack, evolved from the grid's Werner state
    through the channel of its reservoir set; the channel of each distinct
    set is computed once, before the curves.  Each stack is validated once,
    as a DensityStack that every measure shares.  Results are in the grid's
    units: `parameters` as configured, and t_p, T_c and the
    freezing intervals in units of 1/omega_c.  One Gamma memo per call
    serves the grid and every root-finder evaluation.  A root-finder step
    evaluates the curve in closed form, as KERNELS[state, measure] at the
    three Gamma of its time; the grid's matrices are the values printed.  A
    recorded error is an evaluation failure (channel, measure or root
    finder); it never aborts the sweep.
    """
    times = grid.channel_times()
    curves: list[CurveResult] = []
    channels: dict[tuple, object] = {}  # reservoir set -> factors or the text of their error
    memo: dict[tuple, float] = {}  # (reservoir, t, method) -> Gamma, this call only
    for reservoirs in dict.fromkeys(reservoirs for _, reservoirs in grid.reservoir_sets):
        try:
            channels[reservoirs] = dephasing_factors(reservoirs, times, grid.method, memo=memo)
        except Exception as exc:  # every curve of this reservoir set carries it
            channels[reservoirs] = _error_text(exc)
    for (x, rho0), (point, reservoirs) in itertools.product(
        zip(grid.xs, grid.initial_states), grid.reservoir_sets
    ):
        label = (grid.state, x, *point, *grid.omega_sqs, grid.omega_c, grid.method.value)
        params = dict(zip(PARAM_FIELDS, label))
        factors = channels[reservoirs]
        evolved = None if isinstance(factors, str) else evolve(rho0, factors)
        checked = None
        if evolved is not None:
            try:  # once for every measure of this stack
                checked = DensityStack(evolved)
            except Exception:  # each measure replays the stack row by row
                pass

        for name in grid.measures:
            fn = MEASURES[name]
            if evolved is None:
                values, errors = [math.nan] * times.size, [factors] * times.size
            else:
                values, errors = _measure_curve(fn, evolved, checked)
            timescales = None
            if grid.include_timescales:
                kernel = KERNELS[grid.state, name]

                def curve(t: float) -> float:
                    damps = [math.exp(-g) for g in gammas(reservoirs, (t,), grid.method, memo)]
                    return kernel(x, damps)

                timescales = _timescales(curve, grid, times, values, errors)
            curves.append(CurveResult(name, params, values, errors, timescales))
    return curves
