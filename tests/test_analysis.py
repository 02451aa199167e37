import itertools
import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tridephase import analysis, evolution
from tridephase.analysis import (
    DEAD_THRESHOLD,
    DEFAULT_EPSILON,
    KERNELS,
    MARGINS,
    MEASURES,
    PARAM_FIELDS,
    ROOT_REL_TOL,
    SweepGrid,
    TimescaleResult,
    characteristic_time,
    freezing_intervals,
    make_reservoirs,
    preservation_time_numeric,
    preservation_time_zero_t,
    run_sweep,
)
from tridephase.exceptions import MethodError, NoCorrelationError, ParameterError
from tridephase.measures import gmc_ghz_werner
from tridephase.oracles import gmc_ghz_werner_low_t, preservation_time_sinh_residual
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


def mpmath_zero_t_preservation_time(x, eta, omega_sq, omega_c):
    with mpmath.workdps(50):
        x, eta, omega_sq, omega_c = map(mpmath.mpf, (x, eta, omega_sq, omega_c))
        ratio = 4 * x / (3 * (1 - x))
        return mpmath.sqrt(ratio ** (1 / (2 * eta * omega_sq)) - 1) / omega_c


@pytest.mark.parametrize("x, eta, omega_sq, omega_c", [
    (0.9, 1e-3, 1.0, 1.0),
    (0.9, 1e-3, 1.0, 1e10),
    (0.6, 1e-4, 4.0, 1.0),
    (0.99, 1e-3, 2.0, 0.5),
])
def test_preservation_time_zero_t_where_the_direct_power_overflows(x, eta, omega_sq, omega_c):
    ratio = 4.0 * x / (3.0 * (1.0 - x))
    with pytest.raises(OverflowError):
        ratio ** (1.0 / (2.0 * eta * omega_sq))
    reference = mpmath_zero_t_preservation_time(x, eta, omega_sq, omega_c)
    assert abs(preservation_time_zero_t(x, eta, omega_sq, omega_c) - reference) <= 1e-13 * reference


def test_preservation_time_zero_t_is_inf_only_past_the_float_range():
    assert preservation_time_zero_t(0.9, 1e-3, 1.0, 1.0) == pytest.approx(
        6.2418239016399417e269, rel=1e-13
    )
    assert preservation_time_zero_t(0.9, 1e-3, 1.0, 1e-38) < math.inf
    assert preservation_time_zero_t(0.9, 1e-3, 1.0, 1e-40) == math.inf
    assert preservation_time_zero_t(0.9, 1e-4, 1.0, 1.0) == math.inf


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


@pytest.mark.parametrize("t_p, eta", [(1.0, 1e-3), (300.0, 0.2)])
def test_sinh_relation_sides_are_logs_where_the_sides_overflow(t_p, eta):
    # at eta Omega^2 = 1e-3 rhs passes the float range, at t_p = 300 lhs does:
    # both raised OverflowError when the sides were compared as values
    x, omega_sq, omega_c, betas = 0.9, 1.0, 1.0, (1.0, 1.0, 1.0)
    log_lhs, log_rhs = preservation_time_sinh_residual(t_p, x, eta, omega_sq, omega_c, betas)
    with mpmath.workdps(40):
        t = mpmath.mpf(t_p)
        lhs = mpmath.fprod(b * mpmath.sinh(mpmath.pi * t / b) for b in betas) ** 2
        ratio = 4 * mpmath.mpf(x) / (3 * (1 - mpmath.mpf(x)))
        rhs = (mpmath.pi * t) ** 2 / (1 + (omega_c * t) ** 2) * ratio ** (1 / (2 * eta * omega_sq))
        assert max(lhs, rhs) > mpmath.mpf(2.0) ** 1024  # past the largest float
        assert abs(log_lhs - float(mpmath.log(lhs))) <= 1e-14 * abs(log_lhs)
        assert abs(log_rhs - float(mpmath.log(rhs))) <= 1e-14 * abs(log_rhs)


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
    # times that go backwards gave a negative span
    with pytest.raises(ParameterError, match=r"^sample times must not decrease, got 1.0 after 2.0$"):
        freezing_intervals([0.0, 2.0, 1.0, 3.0], [1.0] * 4)
    assert freezing_intervals([0.0, 0.0, 1.0], [1.0] * 3) == []  # a repeated time passes
    with pytest.raises(NoCorrelationError):
        freezing_intervals([0.0, 1.0], [0.0, 0.0])
    # a NaN start is not above 0 either
    with pytest.raises(NoCorrelationError, match=r"^measure starts at nan; no freezing interval exists$"):
        freezing_intervals(list(range(8)), [math.nan] * 8)
    # the values are required: times alone are no curve
    with pytest.raises(TypeError):
        freezing_intervals([0.0, 1.0])
    # the times start at t >= 0, as for t_p and T_c
    with pytest.raises(ParameterError, match=r"^sample times must be finite from t >= 0, got -1.0 to 1.0$"):
        freezing_intervals([-1.0, 0.0, 1.0], [1.0] * 3)
    with pytest.raises(ParameterError, match=r"^sample times must be finite from t >= 0, got 0.0 to inf$"):
        freezing_intervals([0.0, 1.0, math.inf], [1.0] * 3)


SAMPLED_ENTRY_POINTS = {
    "preservation_time_numeric": lambda ts, vs: preservation_time_numeric(
        lambda t: 1.0, 2.0, samples=(ts, vs)
    ),
    "characteristic_time": lambda ts, vs: characteristic_time(lambda t: 1.0, 2.0, samples=(ts, vs)),
    "freezing_intervals": freezing_intervals,
}


@pytest.mark.parametrize("ts, vs", [
    (np.array([[0.0, 1.0, 2.0]]), np.array([[1.0, 1.0, 1.0]])),
    (np.array([[0.0], [1.0], [2.0]]), [1.0, 1.0, 1.0]),
    ([[0.0], [1.0], [2.0]], [1.0, 1.0, 1.0]),
    ([0.0, 1.0, 2.0], [[1.0], [1.0], [1.0]]),
    ([0.0, 1.0, 2.0], [1.0, 1.0]),
    ([], []),
], ids=["2d_arrays", "column_times", "nested_times", "nested_values", "lengths", "empty"])
@pytest.mark.parametrize("entry", sorted(SAMPLED_ENTRY_POINTS))
def test_malformed_samples_text_at_every_entry_point(entry, ts, vs):
    with pytest.raises(ParameterError) as info:
        SAMPLED_ENTRY_POINTS[entry](ts, vs)
    assert str(info.value) == "samples must be matching nonempty 1-d time and value sequences"


@pytest.mark.xfail(strict=True, reason=(
    "a run exactly FREEZE_SPAN_RATIO times as long as its neighbour qualifies or not by "
    "each grid's rounding (ROADMAP item 4)"
))
def test_freezing_intervals_at_a_span_tie_do_not_depend_on_the_grid_rounding():
    # runs (48, 54) and (55, 67) are 6 and 12 steps long: on the channel times
    # the second spans just over twice the first, on grid.times() just under
    grid = SweepGrid(
        xs=[0.8655019962377106], etas=[1e-3], beta_as=[0.003], k1s=[1e5], k2s=[2500.0],
        t_start=0.0, t_stop=0.9841123650320234, t_count=241, omega_sqs=(4.0, 4.0, 12.0),
        measures=("l1_coherence",), method=GammaMethod.LOW_T_CLOSED_FORM, state="w",
        omega_c=2.5,
    )
    (curve,) = run_sweep(grid)

    def sample_indices(ts):
        index = {t: i for i, t in enumerate(ts.tolist())}
        return [(index[a], index[b]) for a, b in freezing_intervals(ts, curve.values)]

    assert sample_indices(grid.channel_times()) == sample_indices(grid.times())


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


def test_every_curve_is_labelled_by_every_param_field_in_order():
    grid = SweepGrid(
        xs=[0.5, 0.8], etas=[0.2], beta_as=[0.01, 0.02], k1s=[1.0], k2s=[1.0, 4.0],
        t_start=0.0, t_stop=1.0, t_count=3, omega_sqs=(3.0, 5.0, 12.0),
        measures=("gmc", "l1_coherence"), method=GammaMethod.LOW_T_CLOSED_FORM,
    )
    curves = run_sweep(grid)
    assert len(curves) == 2 * 4 * 2
    for curve in curves:
        assert list(curve.parameters) == list(PARAM_FIELDS)
        assert [curve.parameters[key] for key in ("state", "omega_c", "method")] == [
            "ghz", 1.0, "low_t"
        ]
        # the configured squares, never a re-squared splitting
        assert [curve.parameters[key] for key in PARAM_FIELDS[6:9]] == [3.0, 5.0, 12.0]
    points = [tuple(c.parameters[key] for key in PARAM_FIELDS[1:6]) for c in curves[::2]]
    assert points == list(itertools.product(grid.xs, grid.etas, grid.beta_as, grid.k1s, grid.k2s))


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


def test_sweep_grid_rejects_a_largest_time_whose_phase_overflows():
    # the grid rejects what dephasing_factors would reject at its largest
    # channel time t_stop / omega_c, before any Gamma is evaluated
    def grid(t_stop, omega_c=1.0):
        return SweepGrid(xs=[0.5], etas=[0.1], beta_as=[math.inf], k1s=[1.0], k2s=[1.0],
                         t_start=0.0, t_stop=t_stop, t_count=2, omega_sqs=(1e300, 1.0, 1.0),
                         omega_c=omega_c)

    phase = "phase 2 (Omega_A + Omega_B + Omega_C) t overflows at t_stop / omega_c = {}"
    with pytest.raises(ParameterError) as info:
        grid(1e300)
    assert str(info.value) == phase.format("1e+300")
    with pytest.raises(ParameterError) as info:
        grid(1e300, omega_c=2.0)
    assert str(info.value) == phase.format("5e+299")
    # a largest phase of about 2e290 is still finite, and so is the channel
    ok = grid(1e300, omega_c=1e160)
    ((_, reservoirs),) = ok.reservoir_sets
    factors = evolution.dephasing_factors(reservoirs, ok.channel_times(), ok.method)
    assert np.isfinite(factors).all()


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
    (dict(omega_sqs=(4.0, 4.0)), ParameterError,
     r"^omega_sqs must hold three values, got \(4.0, 4.0\)$"),
], ids=["x", "eta", "beta_a", "k2", "zero_t_hot", "low_t_cold", "omega_sqs"])
def test_sweep_grid_rejects_every_value_the_run_cannot_build(changes, error, message):
    with pytest.raises(error, match=message):
        one_point_grid(**changes)


def test_make_reservoirs_zero_temperature():
    assert all(r.beta == ZERO_TEMPERATURE for r in gradient(math.inf, 1.0, 1.0))
    # zero temperature scales no beta by k1 or k2, but still rejects one that is not positive
    assert gradient(math.inf, 4.0, 16.0) == gradient(math.inf, 1.0, 1.0)
    for k1, k2, message in ((0.0, 1.0, "k1 must be positive, got 0.0"),
                            (1.0, math.nan, "k2 must be positive, got nan"),
                            (-3.0, 0.0, "k1 must be positive, got -3.0")):
        with pytest.raises(ParameterError) as info:
            gradient(math.inf, k1, k2)
        assert str(info.value) == message


@pytest.mark.parametrize("omegas", [(), (2.0,), (2.0, 2.0), (2.0, 2.0, 2.0, 2.0)])
def test_make_reservoirs_takes_three_splittings(omegas):
    # zip would build as many reservoirs as the shorter of betas and omegas
    with pytest.raises(ParameterError, match=r"^make_reservoirs takes three splittings, got \("):
        make_reservoirs(0.2, 1.0, 1.0, 1.0, 1.0, omegas)


@pytest.mark.parametrize("args, message", [
    ((0.2, 1, 1.0, "a", 1, (1, 1, 1)), "k1 must be a real number, got 'a'"),
    ((0.2, 1, 1.0, 1, None, (1, 1, 1)), "k2 must be a real number, got None"),
    ((0.2, 1, "1", 1, 1, (1, 1, 1)), "beta_a must be a real number, got '1'"),
    (("0.2", 1, 1.0, 1, 1, (1, 1, 1)), "eta must be a real number, got '0.2'"),
    ((0.2, "1", 1.0, 1, 1, (1, 1, 1)), "omega_c must be a real number, got '1'"),
    ((0.2, 1, math.inf, True, 1, (1, 1, 1)), "k1 must be a real number, got True"),
])
def test_make_reservoirs_names_an_argument_that_is_not_a_number(args, message):
    # the grid's own rule, so a direct call raises what SweepGrid raises, not a TypeError
    with pytest.raises(ParameterError) as info:
        make_reservoirs(*args)
    assert str(info.value) == message


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

    def revived(t):  # alive on [0, 1) and on [1.5, 1.8)
        return 1.0 if t < 1.0 or 1.5 <= t < 1.8 else 0.0

    # times that go backwards gave a reversed bracket and t_p = 1.4, its midpoint
    backwards = ([0.0, 1.6, 1.2, 2.0], [1.0, 1.0, 0.0, 0.0])
    message = r"^sample times must not decrease, got 1.2 after 1.6$"
    with pytest.raises(ParameterError, match=message):
        preservation_time_numeric(revived, 2.0, samples=backwards)
    with pytest.raises(ParameterError, match=message):
        characteristic_time(revived, 2.0, samples=backwards)
    forwards = ([0.0, 1.2, 1.6, 1.6, 2.0], [1.0, 0.0, 1.0, 1.0, 0.0])  # a repeated time passes
    assert preservation_time_numeric(revived, 2.0, samples=forwards) == pytest.approx(1.8)


def test_a_start_alive_but_within_the_dead_threshold_has_t_p_zero():
    assert preservation_time_numeric(lambda t: 5e-13 * math.exp(-t), 1.0) == 0.0
    # GHZ gmc starts at 1.75 (x - 3/7) = 7e-13, and keeps falling
    grid = one_point_grid(xs=[3.0 / 7.0 + 4e-13], include_timescales=True)
    [curve] = run_sweep(grid)
    assert 0.0 < curve.values[0] <= DEAD_THRESHOLD
    assert curve.values[0] == pytest.approx(7e-13, rel=1e-3)
    row = curve.timescales
    assert (row.t_p, row.t_c_reached, row.error) == (0.0, True, None)


def bisection(alive, lo, hi):
    """The search the root finders made before ITP: the midpoint of [lo, hi]
    after halving it until hi - lo <= ROOT_REL_TOL * hi, and its step count."""
    steps = 0
    while hi - lo > ROOT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if alive(mid) else (lo, mid)
        steps += 1
    return 0.5 * (lo + hi), steps


def power_curve(level, root, power, scale):
    """A decreasing curve that falls through `level` at `root` like (root - t)^power."""
    return lambda t: level + math.copysign(scale * abs(root - t) ** power, root - t)


def searched(finder, curve, bracket, sampled_as, *args):
    """`finder`'s result with samples of `sampled_as` at 0 and the bracket ends,
    and the times at which it evaluated `curve`."""
    asked = []

    def watched(t):
        asked.append(t)
        return curve(t)

    ts = sorted({0.0, *bracket})
    result = finder(watched, bracket[1], *args, samples=(ts, [sampled_as(t) for t in ts]))
    return result, asked


@given(
    lo=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    width=st.floats(1e-3, 10.0),
    where=st.floats(0.0, 1.0, exclude_min=True),
    power=st.floats(0.2, 5.0),
    scale=st.floats(1e-6, 10.0),
)
@example(lo=0.0, width=1.0, where=1.0, power=1.0, scale=1.0)  # the root at hi
@example(lo=0.15, width=0.05, where=0.05, power=2.0, scale=1.0)
@example(lo=2.0, width=0.001, where=0.5, power=0.2, scale=1e-6)
@settings(max_examples=200, deadline=None)
def test_root_search_takes_at_most_one_step_more_than_bisection(lo, width, where, power, scale):
    hi = lo + width
    root = lo + where * width
    margin = power_curve(DEAD_THRESHOLD, root, power, scale)

    def alive(t):
        return margin(t) > DEAD_THRESHOLD

    assume(alive(lo) and not alive(hi))
    expected, steps = bisection(alive, lo, hi)

    def clipped(t):
        return max(0.0, margin(t))

    # t_p on the margin, on the clipped curve (a flat dead side), and on the
    # margin with the clipped curve's end values, as run_sweep searches it
    for curve, sampled_as in ((margin, margin), (clipped, clipped), (margin, clipped)):
        t_p, asked = searched(preservation_time_numeric, curve, (lo, hi), sampled_as)
        assert len(asked) <= steps + 1
        assert abs(t_p - expected) <= ROOT_REL_TOL * max(t_p, expected)

    # T_c on a curve that falls through (1 - epsilon) of its start at the root
    curve = power_curve(0.5, root, power, scale)
    epsilon = 1.0 - 0.5 / curve(0.0)
    target = (1.0 - epsilon) * curve(0.0)

    def alive_c(t):
        return curve(t) >= target

    assume(0.0 < epsilon < 1.0 and alive_c(lo) and not alive_c(hi))
    expected, steps = bisection(alive_c, lo, hi)
    (t_c, reached), asked = searched(characteristic_time, curve, (lo, hi), curve, epsilon)
    assert reached and len(asked) <= steps + 1
    assert abs(t_c - expected) <= ROOT_REL_TOL * max(t_c, expected)


def test_a_grid_after_t0_reads_a_dead_start_from_the_measure():
    # negativity_a_bc is dead at x = 0.1, where its margin -lambda is -0.0875;
    # t = 0 comes from the kernel, so the error quotes the measure, as sampled
    grid = SweepGrid(
        xs=[0.1], etas=[0.2], beta_as=[math.inf], k1s=[1.0], k2s=[1.0], t_start=0.5,
        t_stop=3.0, t_count=6, omega_sqs=(4.0, 4.0, 4.0), measures=("negativity_a_bc",),
        include_timescales=True,
    )
    (curve,) = run_sweep(grid)
    assert curve.timescales.error == (
        "NoCorrelationError: measure starts at 0.0; no preservation time exists"
    )


def low_t_grid(**overrides):
    settings = dict(
        xs=[0.6, 0.9], etas=[0.2], beta_as=[0.5], k1s=[1.0, 4.0], k2s=[1.0, 16.0],
        t_start=0.0, t_stop=3.0, t_count=5, omega_sqs=OMEGA_SQS,
        measures=("gmc", "l1_coherence"), method=GammaMethod.LOW_T_CLOSED_FORM,
        include_timescales=True,
    )
    settings.update(overrides)
    return SweepGrid(**settings)


def test_sweep_calls_gamma_once_per_distinct_key(monkeypatch):
    expected = run_sweep(low_t_grid())
    assert all(curve.timescales.error is None for curve in expected)
    grid = low_t_grid()
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
    # the tables live on the grid's reservoirs: a second run reads them, and
    # an equal grid of new reservoirs evaluates every Gamma again
    calls.clear()
    assert run_sweep(grid) == expected
    assert not calls
    assert run_sweep(low_t_grid()) == expected
    assert sum(calls.values()) == first and max(calls.values()) == 1


def test_sweep_failing_gamma_is_not_cached_and_marks_its_rows(monkeypatch):
    grid = low_t_grid()
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
    # a failure is not stored: sets (4, 1) and (4, 16) both ask for beta = 2,
    # and the fill of every table before the channels stops at its first
    # failure, beta = 8 at t = 0, which set (1, 16) then asks for again
    res_b = make_reservoirs(0.2, 1.0, 0.5, 4.0, 1.0, (2.0,) * 3)[1]
    res_c = make_reservoirs(0.2, 1.0, 0.5, 1.0, 16.0, (2.0,) * 3)[2]
    method = GammaMethod.LOW_T_CLOSED_FORM
    assert failures == Counter({(res_b, 0.0, method): 2, (res_c, 0.0, method): 2})


def test_sweep_hashes_reservoirs_as_often_at_any_t_count(monkeypatch):
    # the Gamma of a time is a lookup by the time alone: no hash of a reservoir per time
    real_hash = ReservoirSpec.__hash__
    hashes = Counter()

    def counting_hash(res):
        hashes["ReservoirSpec"] += 1
        return real_hash(res)

    monkeypatch.setattr(ReservoirSpec, "__hash__", counting_hash)
    counts = []
    for t_count in (11, 101):
        grid = low_t_grid(t_count=t_count)
        hashes.clear()
        curves = run_sweep(grid)
        assert all(curve.timescales.error is None for curve in curves)
        counts.append(hashes["ReservoirSpec"])
    assert counts[0] == counts[1] > 0


def one_point_grid(**changes):
    fields = dict(
        xs=[0.9], etas=[0.2], beta_as=[math.inf], k1s=[1.0], k2s=[1.0],
        t_start=0.0, t_stop=3.0, t_count=5, omega_sqs=OMEGA_SQS,
    )
    return SweepGrid(**{**fields, **changes})


@pytest.mark.parametrize("build, message", [
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
    (lambda: gmc_ghz_werner(0.8, math.nan), "total decoherence exponent must be >= 0"),
    # a NaN sample after the start: no crossing search can place it
    (lambda: preservation_time_numeric(
        lambda t: max(0.0, 1.0 - t), 2.0, samples=([0, 0.5, 1, 1.5, 2], [1, math.nan, 0, 0, 0])
    ), r"^sample value at t = 0\.5 is NaN$"),
    (lambda: characteristic_time(
        lambda t: max(0.0, 1.0 - t), 2.0, samples=([0, 0.5, 1, 1.5, 2], [1, math.nan, 0, 0, 0])
    ), r"^sample value at t = 0\.5 is NaN$"),
    (lambda: freezing_intervals(range(8), [1, 1, 1, math.nan, 1, 1, 1, 1]),
     r"^sample value at t = 3\.0 is NaN$"),
], ids=[
    "ohmic_eta", "ohmic_omega_c", "reservoir_omega_qubit", "reservoir_beta",
    "gradient_beta_a", "gradient_k1", "grid_omega_c", "grid_omega_sq", "grid_t_stop_inf",
    "grid_t_count_float", "grid_method_str", "grid_epsilon_big", "grid_epsilon_nan", "zero_t_eta",
    "gmc_ghz_werner_gamma_total", "preservation_nan_sample", "characteristic_nan_sample",
    "freezing_nan_sample",
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


INVARIANT_RUNS = {
    "exact": dict(
        beta_as=[0.5, 20.0, math.inf], method=GammaMethod.EXACT, t_start=0.1, t_stop=4.0, t_count=41,
    ),
    "low_t": dict(
        beta_as=[0.9, 300.0], method=GammaMethod.LOW_T_CLOSED_FORM,
        t_start=0.5, t_stop=3.7, t_count=33,
    ),
    "zero_t": dict(
        beta_as=[math.inf], method=GammaMethod.ZERO_T_CLOSED_FORM, t_start=0.0, t_stop=3.0, t_count=31,
    ),
    # hot A kills two of the W state's three coherences; cold B, C freeze the third
    "low_t_freezing": dict(
        state="w", xs=[1.0], beta_as=[0.001], k1s=[1e5], k2s=[1e5], etas=[0.001],
        method=GammaMethod.LOW_T_CLOSED_FORM, measures=("l1_coherence",),
        t_start=0.1, t_stop=3.3, t_count=41,
    ),
}


@pytest.mark.parametrize("omega_c", [0.1, 3.0])
@pytest.mark.parametrize("run", sorted(INVARIANT_RUNS))
def test_run_in_units_of_one_over_omega_c_does_not_depend_on_omega_c(run, omega_c):
    # Gamma depends on omega_c t and omega_c beta only, and the splittings'
    # phases do not change these measures, so a run stated in units of
    # 1/omega_c gives the same curves and time scales at every omega_c
    fields = dict(
        xs=[0.6, 0.9], etas=[0.2], k1s=[4.0], k2s=[16.0], omega_sqs=OMEGA_SQS,
        measures=("gmc", "l1_coherence", "tripartite_negativity"), include_timescales=True,
    )
    fields.update(INVARIANT_RUNS[run])
    reference = run_sweep(SweepGrid(**fields))
    scaled = run_sweep(SweepGrid(**fields, omega_c=omega_c))
    if run == "low_t_freezing":
        assert len(reference[0].timescales.freezing) == 1
    for ref, curve in zip(reference, scaled, strict=True):
        assert curve.parameters == {**ref.parameters, "omega_c": omega_c}
        assert curve.errors == ref.errors
        np.testing.assert_allclose(curve.values, ref.values, rtol=0, atol=1e-12)
        ts, ref_ts = curve.timescales, ref.timescales
        assert ts.error == ref_ts.error
        for value, ref_value in ((ts.t_p, ref_ts.t_p), (ts.t_c, ref_ts.t_c)):
            assert value == pytest.approx(ref_value, rel=ROOT_REL_TOL, abs=0)
        assert ts.t_c_reached == ref_ts.t_c_reached
        assert len(ts.freezing) == len(ref_ts.freezing)


def timescale_grid(**changes):
    fields = dict(
        state="w", xs=[0.6, 0.9], etas=[0.2], beta_as=[2.0], k1s=[4.0], k2s=[16.0],
        t_start=0.0, t_stop=3.0, t_count=9, omega_sqs=OMEGA_SQS,
        measures=("tripartite_negativity", "negativity_a_bc", "l1_coherence"),
        method=GammaMethod.LOW_T_CLOSED_FORM, include_timescales=True,
    )
    return SweepGrid(**{**fields, **changes})


def curve_forms(grid, curve):
    """The margin and kernel that `run_sweep` searches for this curve's t_p and T_c."""
    reservoirs = next(
        res for point, res in grid.reservoir_sets
        if point == tuple(curve.parameters[key] for key in ("eta", "beta_a", "k1", "k2"))
    )
    return tuple(
        analysis._gamma_curve(forms[grid.state, curve.name], curve.parameters["x"],
                              reservoirs, grid.method)
        for forms in (MARGINS, KERNELS)
    )


def raw_timescales(grid, curve):
    """What `run_sweep` reports for a curve, from the public time-scale functions
    on plain lists: t = 0 and the kernel's value go in front of a later grid."""
    margin, kernel = curve_forms(grid, curve)
    times = grid.channel_times().tolist()
    grid_time = dict(zip(times, grid.times().tolist()))
    try:
        ts, vs = times, curve.values
        if ts[0] > 0.0:
            ts, vs = [0.0, *ts], [kernel(0.0), *vs]
        t_p = preservation_time_numeric(margin, times[-1], samples=(ts, vs))
        t_c, reached = characteristic_time(kernel, times[-1], grid.epsilon, samples=(ts, vs))
        freezing = [] if curve.values[0] <= 0.0 else freezing_intervals(times, curve.values)
        return TimescaleResult(
            t_p * grid.omega_c,
            t_c * grid.omega_c if reached else grid_time[t_c],
            reached,
            [(grid_time[a], grid_time[b]) for a, b in freezing],
        )
    except Exception as exc:
        return TimescaleResult(math.nan, math.nan, False, [], f"{type(exc).__name__}: {exc}")


@settings(max_examples=40, deadline=None)
@given(
    state=st.sampled_from(["ghz", "w"]),
    method=st.sampled_from([GammaMethod.LOW_T_CLOSED_FORM, GammaMethod.EXACT]),
    x=st.floats(0.3, 1.0),
    eta=st.floats(0.01, 0.5),
    beta_a=st.floats(0.2, 50.0),
    k1=st.floats(1.0, 16.0),
    t_start=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    span=st.floats(0.5, 5.0),
    t_count=st.integers(5, 25),
)
# GMC dead at its first grid sample: t_p and T_c from the bracket [0, t_start], no freezing
@example(state="ghz", method=GammaMethod.EXACT, x=0.6, eta=0.4, beta_a=50.0, k1=1.0,
         t_start=2.0, span=3.0, t_count=5)
# GMC dead at t = 0 (x <= 3/7): the dead-start error
@example(state="ghz", method=GammaMethod.LOW_T_CLOSED_FORM, x=0.4, eta=0.2, beta_a=2.0, k1=4.0,
         t_start=0.5, span=2.5, t_count=6)
# a frozen W coherence on a grid that starts after 0
@example(state="w", method=GammaMethod.LOW_T_CLOSED_FORM, x=1.0, eta=0.001, beta_a=0.001,
         k1=1e5, t_start=0.1, span=3.2, t_count=41)
# W GMC whose kernel raises at the prepended t = 0: the curve's error, as a row's would be
@example(state="w", method=GammaMethod.LOW_T_CLOSED_FORM, x=1.0, eta=0.5, beta_a=0.5, k1=1.0,
         t_start=1.0, span=1.0, t_count=5)
def test_sweep_timescales_equal_the_public_functions_on_plain_lists(
    state, method, x, eta, beta_a, k1, t_start, span, t_count
):
    grid = SweepGrid(
        state=state, xs=[x], etas=[eta], beta_as=[beta_a], k1s=[k1], k2s=[k1],
        t_start=t_start, t_stop=t_start + span, t_count=t_count, omega_sqs=OMEGA_SQS,
        measures=tuple(MEASURES), method=method, include_timescales=True,
    )
    for curve in run_sweep(grid):
        if any(curve.errors):  # a row error is reported before any sample is read
            continue
        assert repr(curve.timescales) == repr(raw_timescales(grid, curve)), curve.name


class NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used")


@pytest.mark.parametrize("t_start", [0.0, 0.1])
def test_timescales_make_no_numpy_call(monkeypatch, t_start):
    # hot A kills two of the W state's three coherences; cold B, C freeze the third
    grid = timescale_grid(
        xs=[1.0], etas=[0.001], beta_as=[0.001], k1s=[1e5], k2s=[1e5],
        measures=("l1_coherence",), t_start=t_start, t_stop=3.3, t_count=41,
    )
    (curve,) = run_sweep(grid)
    assert curve.timescales.error is None and len(curve.timescales.freezing) == 1
    margin, kernel = curve_forms(grid, curve)
    times = grid.channel_times().tolist()
    grid_time = dict(zip(times, grid.times().tolist()))
    monkeypatch.setattr(analysis, "np", NoNumpy())
    result = analysis._timescales(
        margin, kernel, grid, times, grid_time, curve.values, curve.errors
    )
    assert result.error is None
    assert repr(result) == repr(curve.timescales)


@pytest.mark.parametrize("as_array", [False, True], ids=["lists", "array"])
def test_freezing_intervals_make_no_numpy_call(monkeypatch, as_array):
    ts = np.linspace(0.0, 10.0, 1001)
    values = np.where(ts < 3.0, 1.0, np.where(ts < 3.2, 1.0 - (ts - 3.0) / 0.2 * 0.6, 0.4))
    expected = freezing_intervals(ts, values)
    samples = (ts, values) if as_array else (ts.tolist(), values.tolist())
    monkeypatch.setattr(analysis, "np", NoNumpy())
    assert freezing_intervals(*samples) == expected and len(expected) == 2
