"""The Gamma-space kernels equal the matrix pipeline they replace in the root finders."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tridephase.analysis import (
    DEAD_THRESHOLD,
    KERNELS,
    MARGINS,
    MEASURES,
    ROOT_REL_TOL,
    STATES,
    SweepGrid,
    preservation_time_numeric,
    run_sweep,
)
from tridephase.exceptions import NoCorrelationError, ShapeError
from tridephase.measures import ZERO_EIGENVALUE_TOL, DensityStack, _geometric_mean, gmc_x_state
from tridephase.reservoir import GammaMethod, gamma
from tridephase.states import w_state, werner

_BITS = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1
_FLIPS = _BITS[:, None, :] != _BITS[None, :, :]  # [u, v, X]: qubit X differs
_SIGNS = 1.0 - 2.0 * _BITS  # [u, X]: (-1)^bit of qubit X in basis state u


def dephased(state, x, damps, omegas, t):
    """The Werner state of `state` through the channel with damping factors
    `damps` and the phases of the splittings `omegas` at time t."""
    damping = np.ones((8, 8))
    for qubit, d in enumerate(damps):
        damping = damping * np.where(_FLIPS[..., qubit], d, 1.0)
    # E_mnl = (-1)^m Omega_A + (-1)^n Omega_B + (-1)^l Omega_C
    e = _SIGNS[:, 0] * omegas[0] + _SIGNS[:, 1] * omegas[1] + _SIGNS[:, 2] * omegas[2]
    phase = -(e[:, None] - e[None, :]) * t
    return werner(STATES[state](), x) * damping * np.exp(1j * phase)


def test_kernel_table_covers_every_state_and_measure():
    assert set(KERNELS) == set(MARGINS) == set(itertools.product(STATES, MEASURES))


@given(
    x=st.floats(0.0, 1.0),
    gammas=st.lists(st.floats(0.0, 40.0), min_size=3, max_size=3),
    omegas=st.lists(st.floats(0.5, 3.0), min_size=3, max_size=3),
    t=st.floats(0.0, 10.0),
)
@example(x=0.6, gammas=[0.0, 0.0, 0.0], omegas=[2.0, 2.0, 2.0], t=0.0)
@example(x=3.0 / 7.0, gammas=[0.0, 0.0, 0.0], omegas=[2.0, 2.0, 2.0], t=0.0)  # GHZ GMC dies here
@example(x=0.9, gammas=[0.3, 0.3, 0.7], omegas=[1.0, 2.0, 3.0], t=1.5)
# one small W negativity factor: the matrix tripartite value is 2.3e-15 off
@example(x=0.9999999999999999, gammas=[0.0, 0.0, 7.0], omegas=[1.0, 1.0, 1.0], t=0.0)
@settings(max_examples=150, deadline=None)
def test_kernels_equal_the_matrix_pipeline(x, gammas, omegas, t):
    damps = [math.exp(-g) for g in gammas]
    for state in STATES:
        stack = DensityStack(dephased(state, x, damps, omegas, t))
        for name, measure in MEASURES.items():
            kernel = KERNELS[state, name]
            try:
                matrix = measure(stack)
            except ShapeError:
                with pytest.raises(ShapeError):
                    kernel(x, damps)
                continue
            if name == "tripartite_negativity":
                # the geometric mean of the three negativities, which this loop
                # holds to 2e-15, on both sides: a small factor's round-off
                # grows by T / N_i in the mean, so the means themselves are
                # compared with their factors bit for bit
                cuts = [f"negativity_{cut}" for cut in ("a_bc", "b_ac", "c_ab")]
                kernel_mean = _geometric_mean(*(KERNELS[state, cut](x, damps) for cut in cuts))
                matrix_mean = _geometric_mean(*(MEASURES[cut](stack) for cut in cuts))
                assert kernel(x, damps) == kernel_mean and matrix == matrix_mean, state
                continue
            assert abs(kernel(x, damps) - matrix) <= 2e-15, (state, name)


@given(x=st.floats(0.0, 1.0), gammas=st.lists(st.floats(0.0, 40.0), min_size=3, max_size=3))
@example(x=1e-12, gammas=[0.0, 0.0, 0.0])  # GHZ l1 is DEAD_THRESHOLD itself
@example(x=0.2000000000016, gammas=[0.0, 0.0, 0.0])  # GHZ negativities 5.6e-18 from it
@example(x=0.428571428572, gammas=[0.0, 0.0, 0.0])  # GHZ gmc 7.8e-17 from it
@example(x=1.0, gammas=[27.631021115928547, 0.0, 0.0])  # GHZ l1 at the threshold
@settings(max_examples=300, deadline=None)
def test_margins_are_alive_exactly_where_the_kernels_are(x, gammas):
    damps = [math.exp(-g) for g in gammas]
    for key, kernel in KERNELS.items():
        try:
            value = kernel(x, damps)
        except ShapeError:
            with pytest.raises(ShapeError):
                MARGINS[key](x, damps)
            continue
        assert (MARGINS[key](x, damps) > DEAD_THRESHOLD) == (value > DEAD_THRESHOLD), key


def ghz_gmc_curves(x):
    """The GHZ-Werner GMC and its margin under damping exp(-0.3 t) on each qubit."""
    def curve(forms):
        return lambda t: forms["ghz", "gmc"](x, [math.exp(-0.3 * t)] * 3)
    return curve(KERNELS), curve(MARGINS)


@pytest.mark.parametrize("t_start", [0.0, 2.0])
def test_a_margin_gives_the_preservation_time_of_its_measure(t_start):
    # the margin is negative after t_p = ln(16/3) / 0.9 = 1.86, where the
    # kernel is flat at 0; a grid from t = 2 brackets it with t = 0
    kernel, margin = ghz_gmc_curves(0.8)
    ts = np.linspace(t_start, 3.0, 6)
    samples = (ts, [kernel(t) for t in ts])
    t_p = preservation_time_numeric(kernel, 3.0, samples=samples)
    assert t_p == pytest.approx(math.log(16.0 / 3.0) / 0.9, rel=1e-8)
    assert preservation_time_numeric(margin, 3.0, samples=samples) == pytest.approx(
        t_p, rel=ROOT_REL_TOL
    )


@pytest.mark.parametrize("t_start", [0.0, 0.5])
def test_a_margin_of_a_dead_start_raises_as_its_measure_does(t_start):
    # x < 3/7: GHZ GMC is 0 from t = 0, its margin negative; from t = 0 the
    # samples name the measure's value, and after it the margin's own
    kernel, margin = ghz_gmc_curves(0.3)
    ts = np.linspace(t_start, 3.0, 6)
    samples = (ts, [kernel(t) for t in ts])
    for curve in (kernel, margin):
        with pytest.raises(NoCorrelationError):
            preservation_time_numeric(curve, 3.0, samples=samples)


def test_the_dead_threshold_is_the_zero_eigenvalue_rule():
    # a negativity margin -lambda is alive exactly where `negativity` counts lambda
    assert DEAD_THRESHOLD == ZERO_EIGENVALUE_TOL


@pytest.mark.parametrize("x", [1e-11, 0.2, 0.6, 1.0])
def test_w_gmc_raises_the_matrix_paths_shape_error_at_t0(x):
    with pytest.raises(ShapeError) as matrix:
        gmc_x_state(werner(w_state(), x))
    with pytest.raises(ShapeError) as kernel:
        KERNELS["w", "gmc"](x, [1.0, 1.0, 1.0])
    assert str(kernel.value) == str(matrix.value)


@pytest.mark.parametrize("damps", [[0.2, 0.5, 0.9], [0.9, 0.2, 0.5], [0.5, 0.9, 0.2]])
def test_w_gmc_names_the_largest_off_x_element(damps):
    with pytest.raises(ShapeError) as matrix:
        gmc_x_state(dephased("w", 0.8, damps, (2.0, 2.0, 2.0), 0.0))
    with pytest.raises(ShapeError) as kernel:
        KERNELS["w", "gmc"](0.8, damps)
    assert str(kernel.value) == str(matrix.value)


def test_w_gmc_of_an_x_shaped_w_werner_state_is_zero():
    # every off-X modulus (x/3) c_XY is below ZERO_EIGENVALUE_TOL
    assert gmc_x_state(werner(w_state(), 1e-13)) == 0.0
    assert KERNELS["w", "gmc"](1e-13, [1.0, 1.0, 1.0]) == 0.0


def test_l1_preservation_time_solves_the_closed_form_at_the_threshold():
    # on a hot bath l1 falls through 1e-12 within the grid, and the search
    # for t_p solves x exp(-S) = 1e-12 there
    grid = SweepGrid(
        xs=[0.45], etas=[0.1], beta_as=[0.5], k1s=[1.0], k2s=[1.0], t_start=0.0, t_stop=3.0,
        t_count=41, omega_sqs=(4.0, 3.0, 6.0), measures=("l1_coherence",),
        method=GammaMethod.EXACT, include_timescales=True,
    )
    (curve,) = run_sweep(grid)
    t_p = curve.timescales.t_p
    (reservoirs,) = (reservoirs for _, reservoirs in grid.reservoir_sets)
    total = sum(gamma(res, t_p, GammaMethod.EXACT) for res in reservoirs)
    assert 0.45 * math.exp(-total) == pytest.approx(DEAD_THRESHOLD, rel=1e-6)
