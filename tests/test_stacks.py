"""Stacked (T, 8, 8) evaluation equals stacking T single-matrix calls, bit for bit."""

import itertools
import math

import numpy as np
import pytest

from tridephase.analysis import MEASURES, STATES, SweepGrid, make_reservoirs, run_sweep
from tridephase.evolution import DephasingFactors, QubitTriple, dephasing_factors, evolve
from tridephase.exceptions import HermiticityViolation, ParameterError, ShapeError
from tridephase.linalg import hermitian_eigenvalues, hermiticity_defect, partial_transpose
from tridephase.measures import gmc_x_state, l1_coherence, negativity, tripartite_negativity
from tridephase.reservoir import GammaMethod
from tridephase.states import assert_density_matrix, ghz_state, w_state, werner

OMEGA = 2.0
QUBITS = QubitTriple(OMEGA, OMEGA, OMEGA)
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
        assert np.array_equal(stacked, np.array(singles)), name
        # no -0.0 where the single-matrix call returns 0.0
        assert np.array_equal(np.signbit(stacked), np.signbit(singles)), name


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


def test_stacked_factor_invariants_keep_their_messages():
    _, factors, _ = stacked_and_singles("ghz_zero_t")
    damping, phase = factors.damping, factors.phase
    cases = []
    bad = damping.copy()
    bad[5, 3, 3] = 0.5
    cases.append((bad, phase, "diagonal"))
    bad = damping.copy()
    bad[5, 0, 7] = bad[5, 7, 0] = 1.5
    cases.append((bad, phase, r"\[0, 1\]"))
    bad = damping.copy()
    bad[5, 0, 7] = 0.25
    cases.append((bad, phase, "symmetric"))
    bad = phase.copy()
    bad[5, 0, 7] = 1.0
    cases.append((damping, bad, "antisymmetric"))
    cases.append((damping, phase[:3], "8x8"))
    for d, p, message in cases:
        with pytest.raises(ParameterError, match=message):
            DephasingFactors(damping=d, phase=p)


def reference_rows(grid, qubits):
    """The sweep's measure rows, evaluated one matrix at a time with the 2-d functions."""
    omegas = (qubits.omega_a, qubits.omega_b, qubits.omega_c)
    rows = []
    for x, eta, beta_a, k1, k2 in itertools.product(
        grid.xs, grid.etas, grid.beta_as, grid.k1s, grid.k2s
    ):
        try:
            reservoirs = make_reservoirs(eta, grid.omega_c, beta_a, k1, k2, omegas)
            rho0 = werner(STATES[grid.state](), x)
        except Exception as exc:
            reservoirs, setup_error = None, f"{type(exc).__name__}: {exc}"
        for name in grid.measures:
            for t in grid.times().tolist():
                value, error = math.nan, None
                try:
                    if reservoirs is None:
                        error = setup_error
                    else:
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
        ("ghz", [0.5, 1.5], [2.0], GammaMethod.ZERO_T_CLOSED_FORM),  # werner and channel errors
    ],
)
def test_run_sweep_rows_equal_per_point_evaluation(state, xs, beta_as, method):
    grid = SweepGrid(
        xs=xs, etas=[0.2, 40.0], beta_as=beta_as, k1s=[1.0, 4.0], k2s=[16.0],
        t_start=0.0, t_stop=30.0, t_count=13, measures=tuple(MEASURES),
        method=method, state=state,
    )
    curves = run_sweep(grid, QUBITS)
    got = [
        (c.name, t, c.parameters["x"], c.parameters["eta"], c.parameters["beta_a"],
         c.parameters["k1"], c.parameters["k2"], repr(value), error)
        for c in curves
        for t, value, error in zip(grid.times().tolist(), c.values, c.errors, strict=True)
    ]
    assert got == reference_rows(grid, QUBITS)


def test_w_state_gmc_rows_keep_their_own_shape_errors():
    grid = SweepGrid(
        xs=[0.6], etas=[0.2], beta_as=[math.inf], k1s=[1.0], k2s=[1.0],
        t_start=0.0, t_stop=3.0, t_count=7, measures=("gmc",),
        method=GammaMethod.ZERO_T_CLOSED_FORM, state="w", include_timescales=True,
    )
    [curve] = run_sweep(grid, QUBITS)
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
