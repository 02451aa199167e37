import math
from collections import Counter

import numpy as np
import pytest

from tridephase import evolution
from tridephase.analysis import (
    DEFAULT_EPSILON,
    ROOT_REL_TOL,
    SweepGrid,
    characteristic_time,
    freezing_intervals,
    make_reservoirs,
    preservation_time_numeric,
    preservation_time_zero_t,
    run_sweep,
)
from tridephase.evolution import energies
from tridephase.exceptions import MethodError, NoCorrelationError, ParameterError
from tridephase.measures import gmc_ghz_werner
from tridephase.oracles import gmc_ghz_werner_low_t
from tridephase.reservoir import (
    ZERO_TEMPERATURE,
    GammaMethod,
    OhmicSpectralDensity,
    ReservoirSpec,
)


def zero_t_curve(x, eta, omega_sq):
    return lambda t: gmc_ghz_werner(x, 2.0 * eta * omega_sq * math.log1p(t * t))


def bisect_zero_t_root(x, eta, omega_sq):
    """Independent oracle: plain bisection on the raw curve expression."""

    def f(t):
        return x * (1.0 + t * t) ** (-2.0 * eta * omega_sq) - 0.75 * (1.0 - x)

    lo, hi = 0.0, 1.0
    while f(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_preservation_time_zero_t_boundaries():
    assert preservation_time_zero_t(1.0, 0.2, 12.0, 1.0) == math.inf
    assert preservation_time_zero_t(3 / 7, 0.2, 12.0, 1.0) == 0.0
    assert preservation_time_zero_t(0.2, 0.2, 12.0, 1.0) == 0.0
    with pytest.raises(ParameterError):
        preservation_time_zero_t(1.5, 0.2, 12.0, 1.0)


def test_preservation_time_zero_t_against_bisection_oracle():
    value = preservation_time_zero_t(0.8, 0.2, 12.0, 1.0)
    assert value == pytest.approx(0.6459782224702452, rel=1e-12)
    assert value == pytest.approx(bisect_zero_t_root(0.8, 0.2, 12.0), rel=1e-10)


def test_preservation_time_numeric_constant_curve():
    assert preservation_time_numeric(lambda t: 0.5, 10.0) == math.inf


def test_preservation_time_numeric_dead_start():
    with pytest.raises(NoCorrelationError):
        preservation_time_numeric(lambda t: 0.0, 10.0)
    with pytest.raises(NoCorrelationError):
        preservation_time_numeric(lambda t: -1.0, 10.0)


def test_preservation_time_scales_with_coupling_and_splitting():
    # stronger coupling or larger splitting -> earlier death
    tps_eta = [preservation_time_zero_t(0.8, eta, 12.0, 1.0) for eta in (0.1, 0.2, 0.4)]
    assert tps_eta[0] > tps_eta[1] > tps_eta[2]
    tps_om = [preservation_time_zero_t(0.8, 0.2, om, 1.0) for om in (4.0, 12.0, 36.0)]
    assert tps_om[0] > tps_om[1] > tps_om[2]


def test_equal_temperature_preservation_time_drops_with_temperature():
    omega = math.sqrt(12.0)
    curve_for = lambda beta: (
        lambda t: gmc_ghz_werner(
            0.8,
            sum(
                2.0 * 0.2 * 12.0 / 3.0 * (math.log1p(t * t) + 2.0 * _log_sinhc(math.pi * t / b))
                for b in (beta, beta, beta)
            ),
        )
    )
    from tridephase.reservoir import _log_sinhc

    tps = [preservation_time_numeric(curve_for(beta), 50.0) for beta in (0.05, 0.02, 0.01)]
    assert tps[0] > tps[1] > tps[2]  # hotter (smaller beta) dies sooner


def test_characteristic_time_algebraic_crossing():
    x, eta, omega_sq, epsilon = 0.8, 0.2, 12.0, 0.01
    curve = zero_t_curve(x, eta, omega_sq)
    t_c, reached = characteristic_time(curve, 10.0, epsilon)
    assert reached
    # invert x(1+t^2)^-p - c = (1-eps)(x - c) by hand
    p = 2.0 * eta * omega_sq
    c = 0.75 * (1.0 - x)
    target = (1.0 - epsilon) * (x - c) + c
    expected = math.sqrt((x / target) ** (1.0 / p) - 1.0)
    assert t_c == pytest.approx(expected, rel=1e-8)


def test_characteristic_time_step_curve_limit():
    step = lambda t: 0.65 if t < 3.0 else 0.0
    t_c, reached = characteristic_time(step, 10.0, epsilon=0.999)
    t_p = preservation_time_numeric(step, 10.0)
    assert reached
    assert t_c == pytest.approx(t_p, rel=1e-8)


def test_characteristic_time_not_reached():
    t_c, reached = characteristic_time(lambda t: 1.0, 7.0)
    assert (t_c, reached) == (7.0, False)


def test_characteristic_time_precedes_preservation_time():
    for x in (0.6, 0.8, 0.95):
        curve = zero_t_curve(x, 0.2, 12.0)
        t_c, reached = characteristic_time(curve, 1e3)
        t_p = preservation_time_numeric(curve, 1e3)
        assert reached and 0.0 <= t_c <= t_p


def test_characteristic_time_validation():
    with pytest.raises(ParameterError):
        characteristic_time(lambda t: 1.0, 10.0, epsilon=1.5)
    with pytest.raises(NoCorrelationError):
        characteristic_time(lambda t: 0.0, 10.0)


def test_sinh_curve_monotone_and_rootable():
    betas = (0.004, 0.004, 0.004)
    curve = lambda t: gmc_ghz_werner_low_t(0.8, t, 0.2, 36.0, 1.0, betas)
    assert curve(0.0) == math.inf
    ts = np.linspace(1e-5, 0.05, 200)
    vals = [curve(float(t)) for t in ts]
    finite = [v for v in vals if math.isfinite(v)]
    assert all(b <= a for a, b in zip(finite, finite[1:]))


def test_freezing_synthetic_staircase():
    ts = np.linspace(0.0, 10.0, 1001)
    values = np.where(ts < 3.0, 1.0, np.where(ts < 3.2, 1.0 - (ts - 3.0) / 0.2 * 0.6, 0.4))
    intervals = freezing_intervals(ts, values)
    assert len(intervals) == 2
    assert intervals[0][0] == 0.0
    assert intervals[1][1] == 10.0


def test_freezing_monotone_decay_single_interval():
    ts = np.linspace(0.0, 5.0, 800)
    values = np.exp(-((ts / 0.5) ** 2))
    intervals = freezing_intervals(ts, values)
    assert len(intervals) == 1
    assert intervals[0][0] == 0.0


def test_freezing_floor_excludes_dead_tail():
    ts = np.linspace(0.0, 5.0, 500)
    values = np.where(ts < 1.0, 1.0, 1e-6)
    intervals = freezing_intervals(ts, values)
    assert len(intervals) == 1
    assert intervals[0][1] < 1.5


def test_freezing_validation():
    with pytest.raises(ParameterError):
        freezing_intervals([0.0], [1.0])
    with pytest.raises(NoCorrelationError):
        freezing_intervals([0.0, 1.0], [0.0, 0.0])


def gradient(beta_a, k1, k2):
    """The three reservoirs of make_reservoirs at eta = 0.2, omega_c = 1, Omega = 2."""
    return make_reservoirs(0.2, 1.0, beta_a, k1, k2, (2.0, 2.0, 2.0))


def test_gradient_spec():
    assert tuple(r.beta for r in gradient(0.01, 2.0, 8.0)) == (0.01, 0.02, 0.08)
    with pytest.raises(ParameterError, match="beta_a must be positive"):
        gradient(-1.0, 1.0, 1.0)
    with pytest.raises(ParameterError, match="k1 must be positive, got 0.0"):
        gradient(1.0, 0.0, 1.0)
    with pytest.raises(ParameterError, match="k2 must be positive, got 0.0"):
        gradient(1.0, 1.0, 0.0)


@pytest.mark.parametrize("beta_a, k1, k2, key", [
    (1e-200, 1e-200, 1.0, "k1"),
    (1e-200, 1.0, 1e-200, "k2"),
    (1e200, 1e200, 1.0, "k1"),
    (1e200, 1.0, 1e200, "k2"),
])
def test_gradient_product_that_rounds_out_of_range_names_its_factor(beta_a, k1, k2, key):
    with pytest.raises(ParameterError, match=rf"^{key} \* beta_a = .* not a positive finite"):
        gradient(beta_a, k1, k2)


OMEGA_SQS = (4.0, 4.0, 4.0)  # Omega_A = Omega_B = Omega_C = 2


def test_sweep_single_point_x0_is_zero():
    grid = SweepGrid(
        xs=[0.0], etas=[0.2], beta_as=[math.inf], k1s=[1.0], k2s=[1.0],
        t_start=0.0, t_stop=2.0, t_count=5, omega_sqs=OMEGA_SQS,
        measures=("gmc",), method=GammaMethod.ZERO_T_CLOSED_FORM,
    )
    [curve] = run_sweep(grid)
    assert len(curve.values) == len(curve.errors) == 5
    assert all(value == 0.0 and error is None for value, error in zip(curve.values, curve.errors))


def test_sweep_is_deterministic_and_ordered():
    grid = SweepGrid(
        xs=[0.5, 0.8], etas=[0.2], beta_as=[0.01, 0.02], k1s=[1.0], k2s=[1.0, 4.0],
        t_start=0.0, t_stop=1.0, t_count=3, omega_sqs=OMEGA_SQS,
        measures=("gmc", "l1_coherence"), method=GammaMethod.LOW_T_CLOSED_FORM,
    )
    first = run_sweep(grid)
    second = run_sweep(grid)
    assert first == second
    keys = [
        (curve.parameters["x"], curve.parameters["beta_a"], curve.parameters["k2"])
        for curve in first
    ]
    assert keys == sorted(keys)


def test_sweep_records_no_squared_splitting():
    # sqrt(12)**2 == 11.999999999999998: a sweep must not record it as Omega^2
    grid = SweepGrid(xs=[0.8], etas=[0.2], beta_as=[0.01], k1s=[1.0], k2s=[1.0], t_start=0.0,
                     t_stop=1.0, t_count=3, omega_sqs=(12.0,) * 3,
                     method=GammaMethod.LOW_T_CLOSED_FORM, include_timescales=True)
    curves = run_sweep(grid)
    assert curves and all(curve.timescales is not None for curve in curves)
    for curve in curves:
        assert all(v == 12.0 for v in curve.parameters.values() if v == pytest.approx(12.0))


def test_sweep_records_row_errors_without_aborting():
    # GMC needs an X-shaped state; the W-Werner family is not X-shaped.
    grid = SweepGrid(
        xs=[0.6], etas=[0.2], beta_as=[math.inf], k1s=[1.0], k2s=[1.0],
        t_start=0.0, t_stop=1.0, t_count=3, omega_sqs=OMEGA_SQS,
        measures=("gmc", "l1_coherence"), method=GammaMethod.ZERO_T_CLOSED_FORM,
        state="w",
    )
    gmc, coh = run_sweep(grid)
    assert (gmc.name, coh.name) == ("gmc", "l1_coherence")
    assert all(e is not None and "ShapeError" in e for e in gmc.errors)
    assert all(e is None for e in coh.errors)
    assert coh.values[0] == pytest.approx(1.2, abs=1e-12)


def test_sweep_timescales_gradient_monotonicity():
    # k1 = k2 = k runs the product k1 k2 over {1, 4, 16, 64}
    tps = []
    for k in (1.0, 2.0, 4.0, 8.0):
        g = SweepGrid(
            xs=[0.8], etas=[0.2], beta_as=[0.01], k1s=[k], k2s=[k],
            t_start=0.0, t_stop=5.0, t_count=11, omega_sqs=(12.0,) * 3,
            measures=("gmc",), method=GammaMethod.LOW_T_CLOSED_FORM,
            include_timescales=True,
        )
        curves = run_sweep(g)
        assert len(curves) == 1
        row = curves[0].timescales
        assert row.error is None
        assert row.t_c <= row.t_p
        tps.append(row.t_p)
    assert tps == sorted(tps)
    increments = [b - a for a, b in zip(tps, tps[1:])]
    assert all(b < a for a, b in zip(increments, increments[1:]))


def test_sweep_grid_validation():
    with pytest.raises(ParameterError):
        SweepGrid(xs=[], etas=[0.1], beta_as=[1.0], k1s=[1.0], k2s=[1.0],
                  t_start=0.0, t_stop=1.0, t_count=5, omega_sqs=OMEGA_SQS)
    with pytest.raises(ParameterError):
        SweepGrid(xs=[0.5], etas=[0.1], beta_as=[1.0], k1s=[1.0], k2s=[1.0],
                  t_start=0.0, t_stop=1.0, t_count=1, omega_sqs=OMEGA_SQS)
    with pytest.raises(ParameterError):
        SweepGrid(xs=[0.5], etas=[0.1], beta_as=[1.0], k1s=[1.0], k2s=[1.0],
                  t_start=2.0, t_stop=1.0, t_count=5, omega_sqs=OMEGA_SQS)
    with pytest.raises(ParameterError):
        SweepGrid(xs=[0.5], etas=[0.1], beta_as=[1.0], k1s=[1.0], k2s=[1.0],
                  t_start=0.0, t_stop=1.0, t_count=5, omega_sqs=OMEGA_SQS,
                  measures=("bogus",))
    with pytest.raises(ParameterError):
        SweepGrid(xs=[0.5], etas=[0.1], beta_as=[1.0], k1s=[1.0], k2s=[1.0],
                  t_start=0.0, t_stop=1.0, t_count=5, omega_sqs=OMEGA_SQS,
                  state="ghz5")


@pytest.mark.parametrize("changes, error, message", [
    (dict(xs=[0.9, 1.5]), ParameterError, r"mixing parameter must lie in \[0, 1\], got 1.5"),
    (dict(etas=[0.2, -1.0]), ParameterError, "coupling constant eta must be >= 0, got -1.0"),
    (dict(beta_as=[1.0, -1.0], method=GammaMethod.EXACT), ParameterError,
     "beta_a must be positive, got -1.0"),
    (dict(beta_as=[1.0], k1s=[1.0, 2.0], k2s=[0.0], method=GammaMethod.LOW_T_CLOSED_FORM),
     ParameterError, "k2 must be positive, got 0.0"),
    (dict(beta_as=[2.0]), MethodError, "method zero_t requires ZERO_TEMPERATURE"),
    (dict(beta_as=[2.0, math.inf], method=GammaMethod.LOW_T_CLOSED_FORM), MethodError,
     "method low_t requires a finite inverse temperature"),
], ids=["x", "eta", "beta_a", "k2", "zero_t_hot", "low_t_cold"])
def test_sweep_grid_rejects_every_value_the_run_cannot_build(changes, error, message):
    with pytest.raises(error, match=message):
        one_point_grid(**changes)


def test_make_reservoirs_zero_temperature():
    assert all(r.beta == ZERO_TEMPERATURE for r in gradient(math.inf, 1.0, 1.0))
    # zero temperature leaves k1 and k2 unused
    assert gradient(math.inf, 0.0, math.nan) == gradient(math.inf, 1.0, 1.0)


def sampled(curve, ts):
    ts = [float(t) for t in ts]
    return ts, [curve(t) for t in ts]


def test_sampled_bracket_finds_crossing_before_first_sample():
    # the curve dies near t = 0.646, before the grid starts at t = 1
    curve = zero_t_curve(0.8, 0.2, 12.0)
    closed = preservation_time_zero_t(0.8, 0.2, 12.0, 1.0)
    samples = sampled(curve, np.linspace(1.0, 3.0, 5))
    assert all(v == 0.0 for v in samples[1])
    t_p = preservation_time_numeric(curve, 3.0, samples=samples)
    assert t_p == pytest.approx(closed, rel=1e-8)
    # the 1% drop happens before t = 0.5, the first sample
    t_c, reached = characteristic_time(curve, 3.0, samples=sampled(curve, np.linspace(0.5, 3.0, 6)))
    assert reached
    assert t_c == pytest.approx(characteristic_time(curve, 3.0).time, rel=ROOT_REL_TOL)
    assert t_c < 0.5


def revival_curve(t):
    """Alive on [0, 2) and [4, 6), dead elsewhere."""
    return 0.5 if t < 2.0 or 4.0 <= t < 6.0 else 0.0


def test_sampled_bracket_returns_last_crossing_of_a_revival():
    samples = sampled(revival_curve, np.linspace(0.0, 10.0, 11))
    assert preservation_time_numeric(revival_curve, 10.0, samples=samples) == pytest.approx(
        6.0, rel=ROOT_REL_TOL
    )
    # T_c is the first drop, with or without samples
    t_c, reached = characteristic_time(revival_curve, 10.0, samples=samples)
    assert reached and t_c == pytest.approx(2.0, rel=ROOT_REL_TOL)
    # the default grid without samples has t = 5 alive, so it finds the last crossing too
    assert preservation_time_numeric(revival_curve, 10.0) == pytest.approx(6.0, rel=ROOT_REL_TOL)


@pytest.mark.parametrize("curve, t_max, epsilon", [
    (zero_t_curve(0.8, 0.2, 12.0), 3.0, DEFAULT_EPSILON),
    (zero_t_curve(0.95, 0.1, 4.0), 3.0, 0.2),
    (lambda t: 0.65 if t < 3.0 else 0.0, 10.0, 0.999),
], ids=["zero_t", "zero_t_slow", "step"])
@pytest.mark.parametrize("t_start, t_count", [(0.0, 31), (0.0, 2), (0.1, 7)])
def test_sampled_and_doubling_brackets_agree(curve, t_max, epsilon, t_start, t_count):
    samples = sampled(curve, np.linspace(t_start, t_max, t_count))
    t_p = preservation_time_numeric(curve, t_max, samples=samples)
    assert t_p == pytest.approx(preservation_time_numeric(curve, t_max), rel=ROOT_REL_TOL)
    t_c, reached = characteristic_time(curve, t_max, epsilon, samples=samples)
    expected = characteristic_time(curve, t_max, epsilon)
    assert reached == expected.reached
    assert t_c == pytest.approx(expected.time, rel=ROOT_REL_TOL)


def test_sampled_bracket_reads_end_values_from_samples():
    curve = zero_t_curve(0.8, 0.2, 12.0)
    samples = sampled(curve, np.linspace(0.0, 3.0, 31))
    asked = []

    def watched(t):
        asked.append(t)
        return curve(t)

    preservation_time_numeric(watched, 3.0, samples=samples)
    characteristic_time(watched, 3.0, samples=samples)
    assert asked and 0.0 not in asked and 3.0 not in asked
    # a constant curve is settled by its samples alone
    assert preservation_time_numeric(watched, 2.0, samples=([0.0, 2.0], [0.5, 0.5])) == math.inf
    assert characteristic_time(watched, 2.0, samples=([0.0, 2.0], [0.5, 0.5])) == (2.0, False)
    assert 2.0 not in asked


def test_sampled_bracket_validation():
    curve = zero_t_curve(0.8, 0.2, 12.0)
    for samples in (([0.0, 1.0], [1.0]), ([0.0, 2.0], [1.0, 0.0]), ([-1.0, 1.0], [1.0, 0.0])):
        with pytest.raises(ParameterError):
            preservation_time_numeric(curve, 1.0, samples=samples)
        with pytest.raises(ParameterError):
            characteristic_time(curve, 1.0, samples=samples)
    with pytest.raises(NoCorrelationError):
        preservation_time_numeric(curve, 1.0, samples=([0.0, 1.0], [0.0, 0.0]))
    with pytest.raises(NoCorrelationError):
        characteristic_time(curve, 1.0, samples=([0.0, 1.0], [math.nan, 0.0]))


def memo_grid(**overrides):
    settings = dict(
        xs=[0.6, 0.9], etas=[0.2], beta_as=[0.5], k1s=[1.0, 4.0], k2s=[1.0, 16.0],
        t_start=0.0, t_stop=3.0, t_count=5, omega_sqs=OMEGA_SQS,
        measures=("gmc", "l1_coherence"), method=GammaMethod.LOW_T_CLOSED_FORM,
        include_timescales=True,
    )
    settings.update(overrides)
    return SweepGrid(**settings)


def test_sweep_calls_gamma_once_per_distinct_key(monkeypatch):
    grid = memo_grid()
    expected = run_sweep(grid)
    assert all(curve.timescales.error is None for curve in expected)
    real_gamma = evolution.gamma
    calls = Counter()

    def counting_gamma(res, t, method):
        calls[(res, t, method)] += 1
        return real_gamma(res, t, method)

    monkeypatch.setattr(evolution, "gamma", counting_gamma)
    assert run_sweep(grid) == expected
    first = sum(calls.values())
    assert first > 0 and max(calls.values()) == 1
    # three distinct inverse temperatures on the grid: 0.5, 2 and 8
    assert len({key for key in calls if key[1] == 3.0}) == 3
    calls.clear()
    assert run_sweep(grid) == expected
    assert sum(calls.values()) == first and max(calls.values()) == 1


def test_sweep_failing_gamma_is_not_cached_and_marks_its_rows(monkeypatch):
    grid = memo_grid()
    real_gamma = evolution.gamma
    failures = Counter()

    def failing_gamma(res, t, method):
        if res.beta in (2.0, 8.0):
            failures[(res, t, method)] += 1
            raise RuntimeError(f"no Gamma at beta={res.beta}")
        return real_gamma(res, t, method)

    monkeypatch.setattr(evolution, "gamma", failing_gamma)
    result = run_sweep(grid)
    # reservoirs in A, B, C order; the first failing one names the row error
    expected = {
        (1.0, 1.0): None,
        (1.0, 16.0): "RuntimeError: no Gamma at beta=8.0",
        (4.0, 1.0): "RuntimeError: no Gamma at beta=2.0",
        (4.0, 16.0): "RuntimeError: no Gamma at beta=2.0",
    }
    for curve in result:
        for error in curve.errors + [curve.timescales.error]:
            assert error == expected[(curve.parameters["k1"], curve.parameters["k2"])]
    # a failure is not stored: sets (4, 1) and (4, 16) both ask for beta = 2
    res_b = make_reservoirs(0.2, 1.0, 0.5, 4.0, 1.0, (2.0,) * 3)[1]
    res_c = make_reservoirs(0.2, 1.0, 0.5, 1.0, 16.0, (2.0,) * 3)[2]
    method = GammaMethod.LOW_T_CLOSED_FORM
    assert failures == Counter({(res_b, 0.0, method): 2, (res_c, 0.0, method): 1})


def one_point_grid(**changes):
    fields = dict(
        xs=[0.9], etas=[0.2], beta_as=[math.inf], k1s=[1.0], k2s=[1.0],
        t_start=0.0, t_stop=3.0, t_count=5, omega_sqs=OMEGA_SQS,
    )
    return SweepGrid(**{**fields, **changes})


@pytest.mark.parametrize("build, message", [
    (lambda: energies((math.nan, 1.0, 1.0)), "need three positive splittings"),
    (lambda: OhmicSpectralDensity(math.nan, 1.0), "coupling constant eta must be >= 0"),
    (lambda: OhmicSpectralDensity(0.2, math.nan), "cutoff frequency must be positive"),
    (lambda: ReservoirSpec(OhmicSpectralDensity(0.2, 1.0), ZERO_TEMPERATURE, math.nan),
     "qubit splitting must be positive"),
    (lambda: ReservoirSpec(OhmicSpectralDensity(0.2, 1.0), math.nan, 2.0),
     "inverse temperature must be positive or ZERO_TEMPERATURE"),
    (lambda: gradient(math.nan, 1.0, 1.0), "beta_a must be positive"),
    (lambda: gradient(1.0, math.nan, 1.0), "k1 must be positive"),
    (lambda: one_point_grid(omega_c=math.nan), "omega_c must be positive"),
    (lambda: one_point_grid(omega_sqs=(4.0, math.nan, 4.0)), "omega_sq_b must be positive"),
    (lambda: one_point_grid(t_stop=math.inf), "need t_stop > t_start >= 0"),
    (lambda: one_point_grid(t_count=5.0), "t_count must be an integer >= 2"),
    (lambda: one_point_grid(method="zero_t"), "method must be a GammaMethod"),
    (lambda: one_point_grid(epsilon=1.5), r"epsilon must lie in \(0, 1\)"),
    (lambda: one_point_grid(epsilon=math.nan), r"epsilon must lie in \(0, 1\)"),
    (lambda: preservation_time_zero_t(0.9, math.nan, 4.0, 1.0), "must be positive"),
], ids=[
    "energies", "ohmic_eta", "ohmic_omega_c", "reservoir_omega_qubit", "reservoir_beta",
    "gradient_beta_a", "gradient_k1", "grid_omega_c", "grid_omega_sq", "grid_t_stop_inf",
    "grid_t_count_float", "grid_method_str", "grid_epsilon_big", "grid_epsilon_nan", "zero_t_eta",
])
def test_library_boundary_rejects_nan_and_infinite_t_stop(build, message):
    with pytest.raises(ParameterError, match=message):
        build()


@pytest.mark.parametrize("t_max", [math.inf, math.nan])
def test_timescales_reject_non_finite_t_max(t_max):
    def curve(t):
        return max(0.0, 1.0 - t)  # dies at t = 1

    with pytest.raises(ParameterError, match="t_max must be positive and finite"):
        preservation_time_numeric(curve, t_max)
    with pytest.raises(ParameterError, match="t_max must be positive and finite"):
        characteristic_time(curve, t_max)
