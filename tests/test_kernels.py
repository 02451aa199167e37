"""The Gamma-space kernels equal the matrix pipeline they replace in the root finders."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tridephase.analysis import DEAD_THRESHOLD, KERNELS, MEASURES, STATES, SweepGrid, run_sweep
from tridephase.evolution import energies
from tridephase.exceptions import ShapeError
from tridephase.measures import DensityStack, gmc_x_state
from tridephase.reservoir import GammaMethod, gamma
from tridephase.states import w_state, werner

_BITS = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1
_FLIPS = _BITS[:, None, :] != _BITS[None, :, :]  # [u, v, X]: qubit X differs


def dephased(state, x, damps, omegas, t):
    """The Werner state of `state` through the channel with damping factors
    `damps` and the phases of the splittings `omegas` at time t."""
    damping = np.ones((8, 8))
    for qubit, d in enumerate(damps):
        damping = damping * np.where(_FLIPS[..., qubit], d, 1.0)
    e = energies(omegas)
    phase = -(e[:, None] - e[None, :]) * t
    return werner(STATES[state](), x) * damping * np.exp(1j * phase)


def test_kernel_table_covers_every_state_and_measure():
    assert set(KERNELS) == set(itertools.product(STATES, MEASURES))


@given(
    x=st.floats(0.0, 1.0),
    gammas=st.lists(st.floats(0.0, 40.0), min_size=3, max_size=3),
    omegas=st.lists(st.floats(0.5, 3.0), min_size=3, max_size=3),
    t=st.floats(0.0, 10.0),
)
@example(x=0.6, gammas=[0.0, 0.0, 0.0], omegas=[2.0, 2.0, 2.0], t=0.0)
@example(x=3.0 / 7.0, gammas=[0.0, 0.0, 0.0], omegas=[2.0, 2.0, 2.0], t=0.0)  # GHZ GMC dies here
@example(x=0.9, gammas=[0.3, 0.3, 0.7], omegas=[1.0, 2.0, 3.0], t=1.5)
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
            assert abs(kernel(x, damps) - matrix) <= 2e-15, (state, name)


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
    # every off-X modulus (x/3) c_XY is below X_SHAPE_TOL
    assert gmc_x_state(werner(w_state(), 1e-13)) == 0.0
    assert KERNELS["w", "gmc"](1e-13, [1.0, 1.0, 1.0]) == 0.0


def test_l1_preservation_time_solves_the_closed_form_at_the_threshold():
    # on a hot bath l1 falls through 1e-12 within the grid; there the matrix
    # l1 (all moduli minus the trace) carries ~2e-16 of round-off, 2e-4 of
    # the value, while the kernel x exp(-S) is exact to relative round-off
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
