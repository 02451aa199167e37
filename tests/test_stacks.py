"""Stacked (T, 8, 8) evaluation equals stacking T single-matrix calls, bit for bit."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from tridephase import analysis, measures
from tridephase.analysis import MEASURES, STATES, SweepGrid, make_reservoirs, run_sweep
from tridephase.evolution import dephasing_factors, evolve
from tridephase.exceptions import HermiticityViolation, MethodError, ParameterError, ShapeError
from tridephase.linalg import hermitian_eigenvalues, hermiticity_defect, partial_transpose
from tridephase.measures import (
    DensityStack,
    gmc_x_state,
    l1_coherence,
    negativity,
    tripartite_negativity,
)
from tridephase.reservoir import GammaMethod
from tridephase.states import assert_density_matrix, ghz_state, w_state, werner

OMEGA = 2.0
OMEGA_SQS = (OMEGA**2,) * 3
# eta = 40 drives Gamma past ~745 before t = 30, where exp(-Gamma) underflows to 0
CURVES = {
    "ghz_zero_t": ("ghz", 0.8, 0.2, math.inf, GammaMethod.ZERO_T_CLOSED_FORM),
    "ghz_underflow": ("ghz", 0.9, 40.0, math.inf, GammaMethod.ZERO_T_CLOSED_FORM),
    "w_low_t": ("w", 0.7, 0.3, 150.0, GammaMethod.LOW_T_CLOSED_FORM),
    "w_underflow": ("w", 0.95, 40.0, 200.0, GammaMethod.LOW_T_CLOSED_FORM),
}
TIMES = np.linspace(0.0, 30.0, 61)


def stacked_and_singles(key):
    state, x, eta, beta_a, method = CURVES[key]
    reservoirs = make_reservoirs(eta, 1.0, beta_a, 4.0, 16.0, (OMEGA, OMEGA, OMEGA))
    rho0 = werner(STATES[state](), x)
    factors = dephasing_factors(reservoirs, TIMES, method)
    singles = [dephasing_factors(reservoirs, t, method) for t in TIMES.tolist()]
    return rho0, factors, singles


@pytest.mark.parametrize("key", sorted(CURVES))
def test_channel_stack_equals_single_times(key):
    rho0, factors, singles = stacked_and_singles(key)
    assert factors.damping.shape == (TIMES.size, 8, 8)
    assert np.array_equal(factors.damping, np.stack([f.damping for f in singles]))
    assert np.array_equal(factors.phase, np.stack([f.phase for f in singles]))
    assert np.array_equal(evolve(rho0, factors), np.stack([evolve(rho0, f) for f in singles]))
    if key.endswith("underflow"):
        assert np.any(factors.damping == 0.0)


def single_measures(state):
    fns = {
        "tripartite_negativity": tripartite_negativity,
        "l1_coherence": l1_coherence,
        **{f"negativity_{s}": (lambda rho, s=s: negativity(rho, s)) for s in range(3)},
    }
    if state == "ghz":
        fns["gmc"] = gmc_x_state
    return fns


@pytest.mark.parametrize("key", sorted(CURVES))
def test_measure_stack_equals_single_matrices(key):
    rho0, factors, _ = stacked_and_singles(key)
    stack = evolve(rho0, factors)
    for name, fn in single_measures(CURVES[key][0]).items():
        stacked = fn(stack)
        singles = [fn(rho) for rho in stack]
        assert isinstance(stacked, np.ndarray) and stacked.shape == (TIMES.size,), name
        assert all(type(v) is float for v in singles), name
        assert same_bits(stacked, singles), name
        # a DensityStack, validated once, gives what the raw array gives
        assert same_bits(fn(DensityStack(stack)), stacked), name
        assert [fn(DensityStack(rho)) for rho in stack] == singles, name


def same_bits(a, b) -> bool:
    """Equal values, and no -0.0 where the other has 0.0."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_density_stack_keeps_the_subsystem_check():
    rho = werner(ghz_state(), 0.8)
    for arg in (rho, DensityStack(rho)):
        with pytest.raises(ShapeError, match="subsystem index 3 out of range for 3 subsystems"):
            negativity(arg, 3)


@pytest.mark.parametrize("key", sorted(CURVES))
def test_linalg_and_validation_stack_equals_single_matrices(key):
    rho0, factors, _ = stacked_and_singles(key)
    stack = evolve(rho0, factors)
    assert np.array_equal(hermiticity_defect(stack), [hermiticity_defect(r) for r in stack])
    assert np.array_equal(
        hermitian_eigenvalues(stack), np.stack([hermitian_eigenvalues(r) for r in stack])
    )
    for subsystem in range(3):
        assert np.array_equal(
            partial_transpose(stack, [2, 2, 2], subsystem),
            np.stack([partial_transpose(r, [2, 2, 2], subsystem) for r in stack]),
        )
    assert np.array_equal(assert_density_matrix(stack), stack)


def test_one_bad_matrix_rejects_the_stack():
    stack = np.stack([werner(ghz_state(), 0.8)] * 4)
    skewed = stack.copy()
    skewed[2, 0, 7] += 1e-6
    with pytest.raises(ParameterError, match="not Hermitian"):
        assert_density_matrix(skewed)
    with pytest.raises(HermiticityViolation):
        hermitian_eigenvalues(skewed)
    scaled = stack.copy()
    scaled[1] *= 1.001
    with pytest.raises(ParameterError, match="trace"):
        assert_density_matrix(scaled)
    negative = stack.copy()
    negative[3, 0, 7] = negative[3, 7, 0] = 0.6
    with pytest.raises(ParameterError, match="negative eigenvalue"):
        assert_density_matrix(negative)
    not_x = np.stack([werner(ghz_state(), 0.8), werner(w_state(), 0.8)])
    with pytest.raises(ShapeError, match="not X-shaped"):
        gmc_x_state(not_x)


def reference_rows(grid):
    """The sweep's measure rows, evaluated one matrix at a time with the 2-d functions."""
    omegas = tuple(math.sqrt(v) for v in grid.omega_sqs)
    rows = []
    for x, eta, beta_a, k1, k2 in itertools.product(
        grid.xs, grid.etas, grid.beta_as, grid.k1s, grid.k2s
    ):
        reservoirs = make_reservoirs(eta, grid.omega_c, beta_a, k1, k2, omegas)
        rho0 = werner(STATES[grid.state](), x)
        for name in grid.measures:
            for t in grid.times().tolist():
                value, error = math.nan, None
                try:
                    factors = dephasing_factors(reservoirs, t, grid.method)
                    value = MEASURES[name](evolve(rho0, factors))
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                rows.append((name, t, x, eta, beta_a, k1, k2, repr(value), error))
    return rows


@pytest.mark.parametrize(
    "state, xs, beta_as, method",
    [
        ("ghz", [0.3, 0.8, 1.0], [math.inf], GammaMethod.ZERO_T_CLOSED_FORM),
        ("w", [0.6, 0.95], [100.0, 300.0], GammaMethod.LOW_T_CLOSED_FORM),
    ],
)
def test_run_sweep_rows_equal_per_point_evaluation(state, xs, beta_as, method):
    grid = SweepGrid(
        xs=xs, etas=[0.2, 40.0], beta_as=beta_as, k1s=[1.0, 4.0], k2s=[16.0],
        t_start=0.0, t_stop=30.0, t_count=13, omega_sqs=OMEGA_SQS, measures=tuple(MEASURES),
        method=method, state=state,
    )
    curves = run_sweep(grid)
    got = [
        (c.name, t, c.parameters["x"], c.parameters["eta"], c.parameters["beta_a"],
         c.parameters["k1"], c.parameters["k2"], repr(value), error)
        for c in curves
        for t, value, error in zip(grid.times().tolist(), c.values, c.errors, strict=True)
    ]
    assert got == reference_rows(grid)


def test_sweep_grid_rejects_the_run_it_cannot_build():
    # run_sweep never sees an x outside [0, 1] or a zero_t channel at finite beta
    fields = dict(
        etas=[0.2, 40.0], beta_as=[2.0], k1s=[1.0, 4.0], k2s=[16.0], t_start=0.0,
        t_stop=30.0, t_count=13, omega_sqs=OMEGA_SQS, measures=tuple(MEASURES),
        method=GammaMethod.ZERO_T_CLOSED_FORM, state="ghz",
    )
    with pytest.raises(ParameterError, match="mixing parameter must lie in"):
        SweepGrid(xs=[0.5, 1.5], **fields)
    with pytest.raises(MethodError, match="method zero_t requires ZERO_TEMPERATURE"):
        SweepGrid(xs=[0.5], **fields)


def test_w_state_gmc_rows_keep_their_own_shape_errors():
    grid = SweepGrid(
        xs=[0.6], etas=[0.2], beta_as=[math.inf], k1s=[1.0], k2s=[1.0],
        t_start=0.0, t_stop=3.0, t_count=7, omega_sqs=OMEGA_SQS, measures=("gmc",),
        method=GammaMethod.ZERO_T_CLOSED_FORM, state="w", include_timescales=True,
    )
    [curve] = run_sweep(grid)
    rho0 = werner(w_state(), 0.6)
    reservoirs = make_reservoirs(0.2, 1.0, math.inf, 1.0, 1.0, (OMEGA, OMEGA, OMEGA))
    expected = []
    for t in grid.times().tolist():
        with pytest.raises(ShapeError) as excinfo:
            gmc_x_state(evolve(rho0, dephasing_factors(reservoirs, t, grid.method)))
        expected.append(f"ShapeError: {excinfo.value}")
    assert curve.errors == expected
    assert len(set(expected)) == len(expected)
    assert len(curve.values) == len(expected) and all(math.isnan(v) for v in curve.values)
    assert curve.timescales.error == expected[0]


def gmc_x_state_loop(rho):
    """The X-state GMC formula element by element, with Python scalars."""
    worst, worst_idx = 0.0, None
    for i in range(8):
        for j in range(8):
            if i != j and i + j != 7 and abs(rho[i, j]) > worst:
                worst, worst_idx = abs(rho[i, j]), (i, j)
    if worst >= 1e-12:
        return f"matrix is not X-shaped: element {worst_idx} has modulus {worst:.3e}"
    diag = np.real(np.diag(rho))
    best = 0.0
    for j in range(4):
        cross = sum(math.sqrt(max(0.0, diag[k] * diag[7 - k])) for k in range(4) if k != j)
        best = max(best, abs(rho[j, 7 - j]) - cross)
    return 2.0 * max(0.0, best)


@pytest.mark.parametrize("key", sorted(CURVES))
def test_gmc_equals_element_by_element_formula(key):
    rho0, factors, _ = stacked_and_singles(key)
    for rho in evolve(rho0, factors):
        expected = gmc_x_state_loop(rho)
        if isinstance(expected, str):
            with pytest.raises(ShapeError) as excinfo:
                gmc_x_state(rho)
            assert str(excinfo.value) == expected
        else:
            assert gmc_x_state(rho) == expected


def w1_like_grid() -> SweepGrid:
    """GHZ, 2 x, one zero-temperature reservoir set, every measure, 11 times."""
    return SweepGrid(
        xs=[0.6, 0.9], etas=[0.2], beta_as=[math.inf], k1s=[1.0], k2s=[1.0],
        t_start=0.0, t_stop=3.0, t_count=11, omega_sqs=OMEGA_SQS, measures=tuple(MEASURES),
        method=GammaMethod.ZERO_T_CLOSED_FORM,
    )


def test_run_sweep_validates_each_stack_once_and_takes_each_spectrum_once(monkeypatch):
    grid = w1_like_grid()
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("assert_density_matrix", "partial_transpose", "hermitian_eigenvalues"):
        monkeypatch.setattr(measures, name, counting(name, getattr(measures, name)))
    curves = run_sweep(grid)
    assert all(error is None for curve in curves for error in curve.errors)
    stacks = len(grid.xs)  # one per (x, reservoir set)
    assert counts == {
        "assert_density_matrix": stacks,
        "partial_transpose": 3 * stacks,
        "hermitian_eigenvalues": 3 * stacks,
    }


def test_run_sweep_values_equal_the_public_measures_on_the_evolved_stack():
    # the sweep's measures share one DensityStack and its spectra; each
    # public measure on the raw stack must give the same bits
    public = {
        "gmc": gmc_x_state,
        "tripartite_negativity": tripartite_negativity,
        "negativity_a_bc": lambda rho: negativity(rho, 0),
        "negativity_b_ac": lambda rho: negativity(rho, 1),
        "negativity_c_ab": lambda rho: negativity(rho, 2),
        "l1_coherence": l1_coherence,
    }
    grid = w1_like_grid()
    reservoirs = make_reservoirs(0.2, 1.0, math.inf, 1.0, 1.0, grid.omegas())
    factors = dephasing_factors(reservoirs, grid.channel_times(), grid.method)
    curves = run_sweep(grid)
    assert len(curves) == len(grid.xs) * len(public)
    for curve in curves:
        stack = evolve(werner(ghz_state(), curve.parameters["x"]), factors)
        assert same_bits(curve.values, public[curve.name](stack)), curve.name
        assert curve.errors == [None] * grid.t_count


def test_a_stack_that_fails_validation_is_replayed_row_by_row(monkeypatch):
    grid = w1_like_grid()
    reference = run_sweep(grid)
    bad_row = 4
    # Hermitian, unit trace and X-shaped, with eigenvalue -0.1
    bad = np.diag([1.1, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)

    def evolve_with_a_bad_row(rho0, factors):
        stack = evolve(rho0, factors)
        stack[bad_row] = bad
        return stack

    monkeypatch.setattr(analysis, "evolve", evolve_with_a_bad_row)
    curves = run_sweep(grid)
    text = "ParameterError: density matrix has negative eigenvalue -1.000e-01"
    for ref, curve in zip(reference, curves, strict=True):
        assert curve.errors == [text if i == bad_row else None for i in range(grid.t_count)]
        assert math.isnan(curve.values[bad_row])
        kept = [i for i in range(grid.t_count) if i != bad_row]
        assert same_bits([curve.values[i] for i in kept], [ref.values[i] for i in kept])
