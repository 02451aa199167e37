"""Stacked (T, 8, 8) evaluation equals stacking T single-matrix calls, bit for bit."""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tridephase import analysis, linalg, measures, oracles, states
from tridephase.analysis import (
    MEASURES,
    STATES,
    SweepGrid,
    make_reservoirs,
    run_sweep,
)
from tridephase.evolution import dephasing_factors, evolve
from tridephase.exceptions import HermiticityViolation, MethodError, ParameterError, ShapeError
from tridephase.linalg import hermitian_eigenvalues, hermiticity_defect, partial_transpose
from tridephase.measures import (
    BIPARTITIONS,
    DensityStack,
    PureSpectra,
    gmc_x_state,
    l1_coherence,
    negativity,
    tripartite_negativity,
)
from tridephase.reservoir import GammaMethod
from tridephase.states import assert_density_matrix, ghz_state, projector, w_state, werner

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
    assert factors.shape == (TIMES.size, 8, 8)
    assert np.array_equal(factors, np.stack(singles))
    assert np.array_equal(evolve(rho0, factors), np.stack([evolve(rho0, f) for f in singles]))
    if key.endswith("underflow"):
        assert np.any(factors == 0.0)


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


# A sweep reads each negativity from its reservoir set's shifted spectra,
# x lam(PT(E)) + (1 - x)/8, which agree with the spectra of the mixture's own
# matrices to round-off
SPECTRAL_TOL = 2e-15
SPECTRAL = (*(f"negativity_{c}" for c in BIPARTITIONS), "tripartite_negativity")


def sweep_agrees(name, got, want) -> bool:
    """NaN where the other is NaN; elsewhere the same bits for gmc and
    l1_coherence, and within SPECTRAL_TOL for a measure that reads
    partial-transpose spectra."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.array_equal(np.isnan(got), np.isnan(want)):
        return False
    got, want = got[~np.isnan(got)], want[~np.isnan(want)]
    if name not in SPECTRAL:
        return same_bits(got, want)
    return bool(np.all(abs(got - want) <= SPECTRAL_TOL))


@pytest.mark.parametrize("key", sorted(CURVES))
def test_a_stack_in_any_layout_measures_as_its_matrices_one_by_one(key):
    rho0, factors, _ = stacked_and_singles(key)
    stack = evolve(rho0, factors)
    assert DensityStack(stack).array is stack  # C order already: no copy
    # T the fastest axis: a reduction over the last two axes would sum in another order
    transposed = np.asfortranarray(stack)
    for name, fn in single_measures(CURVES[key][0]).items():
        singles = [fn(rho) for rho in transposed]
        assert same_bits(fn(DensityStack(transposed)), singles), name
        assert same_bits(fn(transposed), singles), name


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


@pytest.mark.parametrize("key", ["ghz_underflow", "w_underflow"])
def test_underflow_stack_spectra_solve_once_per_run(monkeypatch, key):
    # the entry that underflows to 0 cuts each stack into two runs of one
    # pattern, and each spectrum solves each run in one block pass
    rho0, factors, _ = stacked_and_singles(key)
    stack = evolve(rho0, factors)
    rows = []
    block_eigenvalues = linalg._block_eigenvalues

    def counting(a, blocks):
        rows.append(len(a))
        return block_eigenvalues(a, blocks)

    monkeypatch.setattr(linalg, "_block_eigenvalues", counting)
    checked = DensityStack(stack)
    spectra = [rows[:]]
    for subsystem in range(3):
        rows.clear()
        checked.pt_eigenvalues(subsystem)
        spectra.append(rows[:])
    assert [len(runs) for runs in spectra] == [2] * 4
    assert all(sum(runs) == TIMES.size for runs in spectra)


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
                rows.append((name, t, x, eta, beta_a, k1, k2, value, error))
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
         c.parameters["k1"], c.parameters["k2"], value, error)
        for c in curves
        for t, value, error in zip(grid.times().tolist(), c.values, c.errors, strict=True)
    ]
    want = reference_rows(grid)
    assert len(got) == len(want)
    for row, expected in zip(got, want):
        assert row[:-2] == expected[:-2] and row[-1] == expected[-1], row
        assert sweep_agrees(row[0], [row[-2]], [expected[-2]]), (row, expected)


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


def test_a_grid_validates_its_initial_states_once_as_one_stack(monkeypatch):
    two_x = w1_like_grid()
    solved = []
    solve = states.hermitian_eigenvalues

    def counting(a):
        solved.append(np.shape(a))
        return solve(a)

    monkeypatch.setattr(states, "hermitian_eigenvalues", counting)
    xs = [0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0]  # 8 x, as W1
    grid = dataclasses.replace(two_x, xs=xs)
    assert solved == [(8, 8, 8)]
    for x, row in zip(xs, grid.initial_states, strict=True):
        assert type(row) is DensityStack
        assert row.array.tobytes() == werner(ghz_state(), x).tobytes()
    # evolve solves nothing for a row: each (x, set) stack is validated once, on its own
    solved.clear()
    run_sweep(grid)
    assert solved == [(grid.t_count, 8, 8)] * len(xs)


def test_assert_density_matrix_returns_a_stacks_array_and_solves_nothing(monkeypatch):
    stack = DensityStack(np.stack([werner(ghz_state(), x) for x in (0.2, 0.8)]))

    def unreachable(a):
        raise AssertionError("a DensityStack was validated again")

    monkeypatch.setattr(states, "hermitian_eigenvalues", unreachable)
    assert assert_density_matrix(stack) is stack.array
    for row in stack.rows():
        assert assert_density_matrix(row) is row.array


@pytest.mark.parametrize("key", sorted(CURVES))
def test_evolve_of_a_row_is_evolve_of_its_array(key):
    rho0, factors, _ = stacked_and_singles(key)
    (row,) = DensityStack(rho0[None]).rows()
    assert evolve(row, factors).tobytes() == evolve(row.array, factors).tobytes()
    assert evolve(row, factors).tobytes() == evolve(rho0, factors).tobytes()


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
    sets = len(grid.reservoir_sets)  # each spectrum once, of the set's evolved pure state
    assert counts == {
        "assert_density_matrix": stacks,
        "partial_transpose": 3 * sets,
        "hermitian_eigenvalues": 3 * sets,
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
        assert sweep_agrees(curve.name, curve.values, public[curve.name](stack)), curve.name
        assert curve.errors == [None] * grid.t_count


PUBLIC_MEASURES = {
    "gmc": gmc_x_state,
    "tripartite_negativity": tripartite_negativity,
    **{
        f"negativity_{c}": (lambda rho, q=q: negativity(rho, q))
        for q, c in enumerate(measures.BIPARTITIONS)
    },
    "l1_coherence": l1_coherence,
}


def measure_outcome(fn, rho):
    """fn(rho), or the text of the ShapeError it raises (gmc on a W-Werner state)."""
    try:
        return fn(rho)
    except ShapeError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(
    state=st.sampled_from(sorted(STATES)),
    x=st.floats(0.0, 1.0),
    eta=st.floats(0.0, 2.0),
    beta_a=st.sampled_from([math.inf, 0.5, 150.0]),
    order=st.permutations(sorted(PUBLIC_MEASURES)),
)
def test_measures_in_any_order_on_one_stack_equal_fresh_stacks(state, x, eta, beta_a, order):
    # each cut's negativity is kept on the stack: whichever measure asks
    # first, every measure gives the bits it gives on a stack of its own
    reservoirs = make_reservoirs(eta, 1.0, beta_a, 4.0, 16.0, (OMEGA, OMEGA, OMEGA))
    factors = dephasing_factors(reservoirs, np.linspace(0.0, 3.0, 13), GammaMethod.EXACT)
    stack = evolve(werner(STATES[state](), x), factors)
    for rho in (stack, stack[7]):
        shared = DensityStack(rho)
        for name in order + order[::-1]:  # each measure again, once the others have run
            got = measure_outcome(PUBLIC_MEASURES[name], shared)
            want = measure_outcome(PUBLIC_MEASURES[name], DensityStack(rho))
            assert got == want if isinstance(want, str) else same_bits(got, want), name
    shared = DensityStack(stack)
    for subsystem in range(3):
        values = negativity(shared, subsystem)
        assert values is shared.negativities(subsystem) and not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def zero_rule(eigs: np.ndarray) -> list[float]:
    """`negativity` of each row of ascending spectra, one eigenvalue at a time:
    -2 times the running sum of those below -ZERO_EIGENVALUE_TOL, else 0.0."""
    values = []
    for row in eigs.tolist():
        negative = [v for v in row if v < -measures.ZERO_EIGENVALUE_TOL]
        total = 0.0
        for v in negative:  # not sum(), which compensates from Python 3.12
            total += v
        values.append(-2.0 * total if negative else 0.0)
    return values


@pytest.mark.parametrize("state", sorted(STATES))
def test_sweep_negativities_are_the_zero_rule_on_the_shifted_pure_spectra(state):
    grid = SweepGrid(
        xs=[0.0, 0.3, 0.7, 1.0], etas=[0.2, 40.0], beta_as=[100.0], k1s=[1.0], k2s=[16.0],
        t_start=0.0, t_stop=30.0, t_count=13, omega_sqs=OMEGA_SQS,
        measures=SPECTRAL, method=GammaMethod.LOW_T_CLOSED_FORM, state=state,
    )
    curves = iter(run_sweep(grid))
    pure0 = projector(STATES[state]())
    for x, (_, reservoirs) in itertools.product(grid.xs, grid.reservoir_sets):
        pure = evolve(pure0, dephasing_factors(reservoirs, grid.channel_times(), grid.method))
        cuts = [
            zero_rule(x * hermitian_eigenvalues(partial_transpose(pure, [2, 2, 2], q)) + (1 - x) / 8)
            for q in range(3)
        ]
        f0, f1, f2 = np.array(cuts)
        geometric = np.where((f0 == 0.0) | (f1 == 0.0) | (f2 == 0.0), 0.0, np.cbrt(f0 * f1 * f2))
        wanted = dict(zip(SPECTRAL, [*cuts, geometric]))
        for name in grid.measures:
            curve = next(curves)
            assert curve.parameters["x"] == x and curve.name == name
            assert curve.errors == [None] * grid.t_count
            assert same_bits(curve.values, wanted[name]), name
            if x == 0.0:
                assert curve.values == [0.0] * grid.t_count


@settings(max_examples=60, deadline=None)
@given(
    state=st.sampled_from(sorted(STATES)),
    x=st.floats(0.0, 1.0),
    eta=st.floats(0.0, 2.0),
    beta_a=st.sampled_from([math.inf, 0.5, 150.0]),
    omega_sqs=st.tuples(*[st.floats(0.25, 16.0)] * 3),
)
def test_shifted_pure_spectra_agree_with_the_public_measures(state, x, eta, beta_a, omega_sqs):
    omegas = tuple(math.sqrt(v) for v in omega_sqs)
    reservoirs = make_reservoirs(eta, 1.0, beta_a, 4.0, 16.0, omegas)
    factors = dephasing_factors(reservoirs, np.linspace(0.0, 3.0, 13), GammaMethod.EXACT)
    spectra = PureSpectra(projector(STATES[state]()), factors)
    for mix in (x, 1.0, 0.0):
        stack = evolve(werner(STATES[state](), mix), factors)
        shifted, direct = DensityStack(stack, (mix, spectra)), DensityStack(stack)
        for q in range(3):
            gap = abs(shifted.pt_eigenvalues(q) - direct.pt_eigenvalues(q))
            assert gap.max() <= SPECTRAL_TOL, (mix, q)
        for name in SPECTRAL:
            got, want = PUBLIC_MEASURES[name](shifted), PUBLIC_MEASURES[name](stack)
            if mix == 1.0:  # x lam + 0.0 is lam: the direct path's bits
                assert same_bits(got, want), name
            elif mix == 0.0:  # 0 lam + 1/8 is positive: no negativity
                assert same_bits(got, np.zeros(stack.shape[0])), name
            else:
                assert abs(got - want).max() <= SPECTRAL_TOL, (mix, name)


@pytest.mark.parametrize(
    "measured, cuts",
    [
        (("gmc", "l1_coherence"), ()),
        (("gmc", "negativity_b_ac", "l1_coherence"), (1,)),
        (("negativity_c_ab", "tripartite_negativity"), (0, 1, 2)),
    ],
)
def test_each_reservoir_set_solves_each_cut_its_measures_read_once(monkeypatch, measured, cuts):
    # the two x of each reservoir set share its table, which solves only the
    # cuts the grid's measures read: none for gmc and l1_coherence
    grid = SweepGrid(
        xs=[0.3, 0.8], etas=[0.2], beta_as=[0.5, 1000.0], k1s=[1.0, 4.0], k2s=[16.0],
        t_start=0.0, t_stop=3.0, t_count=7, omega_sqs=OMEGA_SQS, measures=measured,
        method=GammaMethod.NUMERIC_QUADRATURE, include_timescales=True,
    )
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "partial_transpose":
                counts[name, args[2]] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, names in (
        (analysis, ("evolve", "projector")),
        (measures, ("assert_density_matrix", "partial_transpose", "hermitian_eigenvalues")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    curves = run_sweep(grid)
    assert all(error is None for curve in curves for error in curve.errors)
    sets = len(grid.reservoir_sets)
    stacks = len(grid.xs) * sets
    expected = {"evolve": stacks, "assert_density_matrix": stacks, "projector": 1}
    if cuts:
        solves = len(cuts) * sets
        expected |= {"partial_transpose": solves, "hermitian_eigenvalues": solves}
        expected |= {("partial_transpose", q): sets for q in cuts}
    assert counts == expected


def test_a_pure_state_solve_that_raises_replays_each_stack_on_its_own_spectra(monkeypatch):
    # each row of the replay solves its own matrix's spectra, which are
    # the bits of the public measures on the stack
    grid = w1_like_grid()
    reservoirs = make_reservoirs(0.2, 1.0, math.inf, 1.0, 1.0, grid.omegas())
    factors = dephasing_factors(reservoirs, grid.channel_times(), grid.method)
    solves = Counter()

    def failing(table, subsystem):
        solves[subsystem] += 1
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(PureSpectra, "__missing__", failing)
    curves = run_sweep(grid)
    assert set(solves) == {0, 1, 2}
    for curve in curves:
        stack = evolve(werner(ghz_state(), curve.parameters["x"]), factors)
        assert same_bits(curve.values, PUBLIC_MEASURES[curve.name](stack)), curve.name
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
    ((_, reservoirs),) = grid.reservoir_sets
    factors = dephasing_factors(reservoirs, grid.channel_times(), grid.method)
    channel = PureSpectra(projector(ghz_state()), factors)
    for x, rho0 in zip(grid.xs, grid.initial_states):
        # the raw array, which no measure reads through the set's spectra
        raw = analysis._sweep_stack(rho0, x, channel)
        assert type(raw) is np.ndarray
        assert np.array_equal(raw, evolve_with_a_bad_row(rho0, factors))
    assert channel == {}
    curves = run_sweep(grid)
    text = "ParameterError: density matrix has negative eigenvalue -1.000e-01"
    for ref, curve in zip(reference, curves, strict=True):
        assert curve.errors == [text if i == bad_row else None for i in range(grid.t_count)]
        assert math.isnan(curve.values[bad_row])
        kept = [i for i in range(grid.t_count) if i != bad_row]
        got, want = ([c.values[i] for i in kept] for c in (curve, ref))
        assert sweep_agrees(curve.name, got, want), curve.name
        # each kept row is its own matrix's measure, validated on its own
        raw = evolve_with_a_bad_row(werner(ghz_state(), curve.parameters["x"]), factors)
        alone = [PUBLIC_MEASURES[curve.name](raw[i]) for i in kept]
        assert same_bits(got, alone), curve.name


def test_the_kernels_oracle_measures_the_sweeps_shifted_spectra(monkeypatch):
    # a Werner shift that drops (1 - x)/8 moves every negativity the sweep
    # prints; the oracle builds its stacks as the sweep does, so it sees that
    pt_eigenvalues = DensityStack.pt_eigenvalues

    def unshifted(stack, subsystem):
        if stack._werner is None:
            return pt_eigenvalues(stack, subsystem)
        x, spectra = stack._werner
        return x * spectra[subsystem]

    monkeypatch.setattr(DensityStack, "pt_eigenvalues", unshifted)
    assert oracles.kernels_vs_pipeline() >= 1e-14


def w_grid(t_count: int) -> SweepGrid:
    return SweepGrid(
        xs=[0.6], etas=[0.2], beta_as=[math.inf], k1s=[1.0], k2s=[1.0],
        t_start=0.0, t_stop=3.0, t_count=t_count, omega_sqs=OMEGA_SQS,
        measures=("gmc", "l1_coherence"), method=GammaMethod.ZERO_T_CLOSED_FORM, state="w",
    )


def test_a_measure_that_raises_on_a_valid_stack_replays_without_revalidating(monkeypatch):
    # gmc raises ShapeError on the W stack; its rows share the stack's one validation
    grid = w_grid(241)
    calls = Counter()
    validate = measures.assert_density_matrix

    def counting(rho):
        calls["assert_density_matrix"] += 1
        return validate(rho)

    monkeypatch.setattr(measures, "assert_density_matrix", counting)
    gmc, l1 = run_sweep(grid)
    assert calls == {"assert_density_matrix": 1}
    assert all(error.startswith("ShapeError: matrix is not X-shaped") for error in gmc.errors)
    assert l1.errors == [None] * grid.t_count


def test_replayed_rows_equal_the_public_measure_on_each_matrix(monkeypatch):
    # one X-shaped row in a W stack: gmc fails on the stack, and the replay
    # gives that row its value and every other row its own error text
    grid = w_grid(9)
    x_row = 3
    x_shaped = werner(ghz_state(), 0.8)

    def evolve_with_an_x_row(rho0, factors):
        stack = evolve(rho0, factors)
        stack[x_row] = x_shaped
        return stack

    monkeypatch.setattr(analysis, "evolve", evolve_with_an_x_row)
    gmc, _ = run_sweep(grid)
    reservoirs = make_reservoirs(0.2, 1.0, math.inf, 1.0, 1.0, grid.omegas())
    stack = evolve_with_an_x_row(
        werner(w_state(), 0.6), dephasing_factors(reservoirs, grid.channel_times(), grid.method)
    )
    for i, rho in enumerate(stack):
        if i == x_row:
            assert gmc.errors[i] is None and same_bits([gmc.values[i]], [gmc_x_state(rho)])
            continue
        with pytest.raises(ShapeError) as excinfo:
            gmc_x_state(rho)
        assert gmc.errors[i] == f"ShapeError: {excinfo.value}"
        assert math.isnan(gmc.values[i])
