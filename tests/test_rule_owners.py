"""Each validity rule has one owner, and every entry point reports it in its words.

A rule that several functions share is checked through each of them with
its exact text, so moving the rule to its owner cannot change a message.
"""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import tridephase.linalg
from tridephase import oracles
from tridephase.analysis import SweepGrid, characteristic_time, preservation_time_zero_t
from tridephase.cli import main
from tridephase.evolution import dephasing_factors, evolve
from tridephase.exceptions import HermiticityViolation, ParameterError, ShapeError
from tridephase.linalg import (
    hermitian_eigenvalues,
    hermiticity_defect,
    partial_trace,
    partial_transpose,
    purity,
)
from tridephase.measures import (
    DensityStack,
    gmc_ghz_werner,
    gmc_x_state,
    l1_coherence,
    negativity,
    tripartite_negativity,
)
from tridephase.reservoir import (
    ZERO_TEMPERATURE,
    GammaMethod,
    OhmicSpectralDensity,
    ReservoirSpec,
    gamma,
    gamma_exact,
    gamma_low_t,
    gamma_zero_t,
)
from tridephase.states import assert_density_matrix, ghz_state, werner

OMEGA_SQS = (4.0, 4.0, 4.0)


def grid(**changes):
    fields = dict(
        xs=[0.9], etas=[0.2], beta_as=[math.inf], k1s=[1.0], k2s=[1.0],
        t_start=0.0, t_stop=3.0, t_count=5, omega_sqs=OMEGA_SQS,
    )
    return SweepGrid(**{**fields, **changes})


MIXING_ENTRY_POINTS = {
    "werner": lambda x: werner(ghz_state(), x),
    "gmc_ghz_werner": lambda x: gmc_ghz_werner(x, 0.0),
    "preservation_time_zero_t": lambda x: preservation_time_zero_t(x, 0.2, 4.0, 1.0),
    "gmc_ghz_werner_low_t": lambda x: oracles.gmc_ghz_werner_low_t(
        x, 1.0, 0.2, 4.0, 1.0, (1.0, 1.0, 1.0)
    ),
    "sweep_grid": lambda x: grid(xs=[0.5, x]),
}


@pytest.mark.parametrize("x, shown", [(-0.1, "-0.1"), (1.5, "1.5"), (math.nan, "nan")])
@pytest.mark.parametrize("entry", sorted(MIXING_ENTRY_POINTS))
def test_mixing_parameter_text_at_every_entry_point(entry, x, shown):
    with pytest.raises(ParameterError) as info:
        MIXING_ENTRY_POINTS[entry](x)
    assert str(info.value) == f"mixing parameter must lie in [0, 1], got {shown}"


WARM = ReservoirSpec(OhmicSpectralDensity(0.2, 1.0), 1.0, 2.0)

TIME_ENTRY_POINTS = {
    "gamma": lambda t: gamma(WARM, t, GammaMethod.EXACT),
    "dephasing_factors": lambda t: dephasing_factors((WARM,) * 3, [0.0, t], GammaMethod.EXACT),
    "gmc_ghz_werner_low_t": lambda t: oracles.gmc_ghz_werner_low_t(
        0.8, t, 0.2, 4.0, 1.0, (0.2, 1.0, 1.0)
    ),
}


@pytest.mark.parametrize("t, shown", [(-1.0, "-1.0"), (math.nan, "nan"), (math.inf, "inf")])
@pytest.mark.parametrize("entry", sorted(TIME_ENTRY_POINTS))
def test_time_text_at_every_entry_point(entry, t, shown):
    with pytest.raises(ParameterError) as info:
        TIME_ENTRY_POINTS[entry](t)
    assert str(info.value) == f"time must be finite and >= 0, got {shown}"


TIME_ARRAY_ENTRY_POINTS = {
    "gamma_exact": lambda ts: gamma_exact(WARM, ts),
    "dephasing_factors": lambda ts: dephasing_factors((WARM,) * 3, ts, GammaMethod.EXACT),
}


@pytest.mark.parametrize("entry", sorted(TIME_ARRAY_ENTRY_POINTS))
def test_time_array_text_at_every_entry_point(entry):
    with pytest.raises(ParameterError) as info:
        TIME_ARRAY_ENTRY_POINTS[entry](np.ones((2, 3)))
    assert str(info.value) == "times must be a float or a 1-d array, got shape (2, 3)"


COLD = ReservoirSpec(OhmicSpectralDensity(0.2, 1.0), ZERO_TEMPERATURE, 2.0)

EMPTY_TIME_ENTRY_POINTS = {
    "gamma_exact": lambda ts: gamma_exact(WARM, ts),
    "dephasing_factors": lambda ts: dephasing_factors((WARM,) * 3, ts, GammaMethod.EXACT),
    "evolve": lambda ts: evolve(
        werner(ghz_state(), 0.9), dephasing_factors((COLD,) * 3, ts, GammaMethod.ZERO_T_CLOSED_FORM)
    ),
}


@pytest.mark.parametrize("times", [np.array([]), []], ids=["array", "list"])
@pytest.mark.parametrize("entry", sorted(EMPTY_TIME_ENTRY_POINTS))
def test_empty_time_array_text_at_every_entry_point(entry, times):
    # rejected where the times enter, not as a ShapeError in the first measure
    with pytest.raises(ParameterError) as info:
        EMPTY_TIME_ENTRY_POINTS[entry](times)
    assert str(info.value) == "times must hold at least one time, got an empty array"


EPSILON_ENTRY_POINTS = {
    "sweep_grid": lambda epsilon: grid(epsilon=epsilon),
    "characteristic_time": lambda epsilon: characteristic_time(lambda t: 1.0, 1.0, epsilon),
}


@pytest.mark.parametrize(
    "epsilon, shown", [(0.0, "0.0"), (1.0, "1.0"), (1.5, "1.5"), (math.nan, "nan")]
)
@pytest.mark.parametrize("entry", sorted(EPSILON_ENTRY_POINTS))
def test_epsilon_text_at_every_entry_point(entry, epsilon, shown):
    with pytest.raises(ParameterError) as info:
        EPSILON_ENTRY_POINTS[entry](epsilon)
    assert str(info.value) == f"epsilon must lie in (0, 1), got {shown}"


@pytest.mark.parametrize("dims", [[2, 2], [2, 3, 2], [8, 2]])
@pytest.mark.parametrize("entry", [
    lambda rho, dims: partial_transpose(rho, dims, 0),
    lambda rho, dims: partial_trace(rho, dims, [0]),
], ids=["partial_transpose", "partial_trace"])
def test_subsystem_dimension_text_at_every_entry_point(entry, dims):
    with pytest.raises(ShapeError) as info:
        entry(np.eye(8) / 8, dims)
    assert str(info.value) == f"subsystem dimensions {dims} do not factor a 8-dimensional matrix"


RHO = werner(ghz_state(), 0.8)


@pytest.mark.parametrize("dims, shown", [
    ([2.5, 2, 2], "[2.5, 2, 2]"), (["2", 2, 2], "['2', 2, 2]"), ([-2, -4], "[-2, -4]"), (8, "8"),
])
@pytest.mark.parametrize("entry", [
    lambda dims: partial_transpose(RHO, dims, 0),
    lambda dims: partial_trace(RHO, dims, [0]),
], ids=["partial_transpose", "partial_trace"])
def test_subsystem_dimensions_are_positive_integers_at_every_entry_point(entry, dims, shown):
    with pytest.raises(ShapeError) as info:
        entry(dims)
    assert str(info.value) == f"subsystem dimensions must be positive integers, got {shown}"


def stack_with_every_cut():
    stack = DensityStack(RHO)
    for subsystem in range(3):
        negativity(stack, subsystem)
    return stack


SUBSYSTEM_INDEX_ENTRY_POINTS = {
    "partial_transpose": lambda k: partial_transpose(RHO, [2, 2, 2], k),
    "partial_trace": lambda k: partial_trace(RHO, [2, 2, 2], [0, k]),
    "negativity": lambda k: negativity(RHO, k),
    # a cut already computed is no excuse: 1.0 is not cut 1
    "negativity_of_a_stack_with_every_cut": lambda k: negativity(stack_with_every_cut(), k),
}


@pytest.mark.parametrize("k, shown", [(1.0, "1.0"), (1.5, "1.5"), ("1", "'1'"), (None, "None")])
@pytest.mark.parametrize("entry", sorted(SUBSYSTEM_INDEX_ENTRY_POINTS))
def test_subsystem_index_is_an_integer_at_every_entry_point(entry, k, shown):
    with pytest.raises(ShapeError) as info:
        SUBSYSTEM_INDEX_ENTRY_POINTS[entry](k)
    assert str(info.value) == f"subsystem index must be an integer, got {shown}"


@pytest.mark.parametrize("k", [3, -1])
@pytest.mark.parametrize("entry", sorted(SUBSYSTEM_INDEX_ENTRY_POINTS))
def test_subsystem_index_range_text_at_every_entry_point(entry, k):
    with pytest.raises(ShapeError) as info:
        SUBSYSTEM_INDEX_ENTRY_POINTS[entry](k)
    assert str(info.value) == f"subsystem index {k} out of range for 3 subsystems"


@pytest.mark.parametrize("keep, shown", [(1, "1"), (1.5, "1.5"), (None, "None")])
def test_kept_subsystems_that_are_not_an_iterable_raise_one_shape_error(keep, shown):
    # an index on its own is not a collection of them: it used to raise a TypeError
    with pytest.raises(ShapeError) as info:
        partial_trace(RHO, [2, 2, 2], keep)
    assert str(info.value) == f"keep must be an iterable of subsystem indices, got {shown}"


def test_integer_dimensions_and_indices_of_any_type_keep_the_bits():
    for dims, k in (((np.int64(2),) * 3, np.int64(1)), (np.array([2, 2, 2]), np.int32(1))):
        assert partial_transpose(RHO, dims, k).tobytes() == partial_transpose(RHO, [2, 2, 2], 1).tobytes()
        assert partial_trace(RHO, dims, [k]).tobytes() == partial_trace(RHO, [2, 2, 2], [1]).tobytes()
        assert negativity(RHO, k) == negativity(RHO, 1)


SCALAR_TIME_ENTRY_POINTS = {
    **{f"gamma_{m.value}": lambda t, m=m: gamma(
        COLD if m is GammaMethod.ZERO_T_CLOSED_FORM else WARM, t, m
    ) for m in GammaMethod},
    "gamma_zero_t": lambda t: gamma_zero_t(COLD, t),
    "gamma_low_t": lambda t: gamma_low_t(WARM, t),
    "gamma_exact": lambda t: gamma_exact(WARM, t),
    "gmc_ghz_werner_low_t": TIME_ENTRY_POINTS["gmc_ghz_werner_low_t"],
}


@pytest.mark.parametrize("t, shown", [("1", "'1'"), (b"1", "b'1'"), (None, "None"), (1j, "1j")])
@pytest.mark.parametrize("entry", sorted(SCALAR_TIME_ENTRY_POINTS))
def test_a_time_that_is_not_a_number_has_one_text_at_every_entry_point(entry, t, shown):
    # gamma_exact once read "1" as 1.0 where the other methods raised TypeError
    with pytest.raises(ParameterError) as info:
        SCALAR_TIME_ENTRY_POINTS[entry](t)
    assert str(info.value) == f"time must be finite and >= 0, got {shown}"


@pytest.mark.parametrize("entry", sorted(SCALAR_TIME_ENTRY_POINTS))
def test_a_time_of_any_number_type_keeps_the_bits(entry):
    want = SCALAR_TIME_ENTRY_POINTS[entry](2.0)
    for t in (2, np.int64(2), np.float64(2.0), np.array(2.0), Fraction(2)):
        assert SCALAR_TIME_ENTRY_POINTS[entry](t) == want, type(t)


@pytest.mark.parametrize("times", [["0", "1"], [0.5, "1"], np.array(["0.5"])])
@pytest.mark.parametrize("entry", sorted(TIME_ARRAY_ENTRY_POINTS))
def test_a_time_array_of_strings_has_one_text_at_every_entry_point(entry, times):
    with pytest.raises(ParameterError) as info:
        TIME_ARRAY_ENTRY_POINTS[entry](times)
    assert str(info.value) == f"times must be numbers, not strings, got {times!r}"
    # one time that is a string is a time, with that rule's text
    with pytest.raises(ParameterError) as info:
        TIME_ARRAY_ENTRY_POINTS[entry]("1")
    assert str(info.value) == "time must be finite and >= 0, got '1'"


EMPTY_SHAPE_ENTRY_POINTS = {
    "hermitian_eigenvalues": hermitian_eigenvalues,
    "hermiticity_defect": hermiticity_defect,
    "partial_transpose": lambda rho: partial_transpose(rho, [2, 2, 2], 0),
    "assert_density_matrix": assert_density_matrix,
    "DensityStack": DensityStack,
    "negativity": lambda rho: negativity(rho, 0),
    "tripartite_negativity": tripartite_negativity,
    "gmc_x_state": gmc_x_state,
    "l1_coherence": l1_coherence,
}


@pytest.mark.parametrize("entry", sorted(EMPTY_SHAPE_ENTRY_POINTS))
def test_empty_stack_text_at_every_entry_point(entry):
    with pytest.raises(ShapeError) as info:
        EMPTY_SHAPE_ENTRY_POINTS[entry](np.zeros((0, 8, 8)))
    assert str(info.value) == "expected a nonempty matrix or stack, got shape (0, 8, 8)"


def test_empty_matrix_text():
    with pytest.raises(ShapeError) as info:
        purity(np.zeros((0, 0)))
    assert str(info.value) == "expected a nonempty matrix or stack, got shape (0, 0)"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", ["evolve", "measure"])
def test_unknown_config_key_text_from_file_and_from_set(capsys, tmp_path, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"x": 0.8, "bogus": 1}))
    for argv in (["--config", str(path)], ["--set", "bogus=1"]):
        assert run(capsys, [command, *argv]) == (1, "", "error: unknown config key 'bogus'\n")


@pytest.mark.parametrize("command", ["evolve", "measure"])
@pytest.mark.parametrize("setting, message", [
    ("t_start=-1", "config key 't_start': t_start must be >= 0, got -1.0"),
    ("t_start=-1e-300", "config key 't_start': t_start must be >= 0, got -1e-300"),
])
def test_negative_t_start_is_reported_under_t_start(capsys, command, setting, message):
    assert run(capsys, [command, "--set", setting]) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("t_start, t_stop, message", [
    (-1.0, 3.0, "t_start must be >= 0, got -1.0"),
    (math.nan, 3.0, "t_start must be >= 0, got nan"),
    (2.0, 1.0, "need t_stop > t_start >= 0, got 2.0, 1.0"),
    (0.0, math.inf, "need t_stop > t_start >= 0, got 0.0, inf"),
    (0.0, math.nan, "need t_stop > t_start >= 0, got 0.0, nan"),
    (math.inf, 3.0, "need t_stop > t_start >= 0, got inf, 3.0"),
])
def test_grid_t_range_rules(t_start, t_stop, message):
    with pytest.raises(ParameterError) as info:
        grid(t_start=t_start, t_stop=t_stop)
    assert str(info.value) == message


MEASURE_NAMES = "['gmc', 'l1_coherence', 'negativity_a_bc', 'negativity_b_ac', " \
    "'negativity_c_ab', 'tripartite_negativity']"


# SweepGrid owns the shape of each list field and each name; every input here
# names the field it fills
@pytest.mark.parametrize("changes, message", [
    (dict(xs=0.9), "xs must be a nonempty list or tuple, got 0.9"),
    (dict(etas="0.2"), "etas must be a nonempty list or tuple, got '0.2'"),
    (dict(k1s=[]), "k1s must be a nonempty list or tuple, got []"),
    (dict(measures=7), "measures must be a nonempty list or tuple, got 7"),
    # a string is not split into its letters
    (dict(measures="gmc"), "measures must be a nonempty list or tuple, got 'gmc'"),
    (dict(measures=[["gmc"]]), f"unknown measures [['gmc']]; choose from {MEASURE_NAMES}"),
    (dict(measures=("gmc", "bogus")), f"unknown measures ['bogus']; choose from {MEASURE_NAMES}"),
    (dict(state=["ghz"]), "unknown state ['ghz']; choose from ['ghz', 'w']"),
    (dict(omega_c=math.inf), "omega_c must be finite, got inf"),
    # a number of the wrong type, a bool included, is named by its field
    (dict(etas=["0.2"]), "etas entry must be a real number, got '0.2'"),
    (dict(etas=[True]), "etas entry must be a real number, got True"),
    (dict(k1s=["a"]), "k1s entry must be a real number, got 'a'"),
    (dict(omega_sqs=("4", 4, 4)), "omega_sqs entry must be a real number, got '4'"),
    (dict(t_stop="1"), "t_stop must be a real number, got '1'"),
    (dict(omega_c=True), "omega_c must be a real number, got True"),
    (dict(epsilon=None), "epsilon must be a real number, got None"),
    (dict(omega_sqs=4.0), "omega_sqs must hold three values, got 4.0"),
])
def test_grid_lists_and_names_are_checked_by_the_grid(changes, message):
    with pytest.raises(ParameterError) as info:
        grid(**changes)
    assert str(info.value) == message


@pytest.mark.parametrize("shape", [(8, 8), (3, 8, 8)])
def test_one_validation_computes_the_hermiticity_defect_once(monkeypatch, shape):
    original = tridephase.linalg.hermiticity_defect
    calls = []

    def counted(m):
        calls.append(np.shape(m))
        return original(m)

    # every binding of the function in the package, wherever it was imported
    for name, module in list(sys.modules.items()):
        if name == "tridephase" or name.startswith("tridephase."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    rho = np.broadcast_to(werner(ghz_state(), 0.8), shape)
    assert np.array_equal(assert_density_matrix(rho), rho)
    assert calls == [shape]


@pytest.mark.parametrize("shape", [(8, 8), (3, 8, 8)])
def test_non_hermitian_density_matrix_fails_hermiticity_before_trace(shape):
    rho = 2.0 * np.broadcast_to(werner(ghz_state(), 0.8), shape)  # trace 2 as well
    rho[..., 0, 7] += 1e-6
    with pytest.raises(HermiticityViolation) as info:
        assert_density_matrix(rho)
    assert isinstance(info.value, ParameterError)
    assert str(info.value) == "matrix is not Hermitian: max |M - M^dagger| = 1.000e-06 > 1.0e-10"


@pytest.mark.parametrize("eta", [0.2, 1e308])
@pytest.mark.parametrize("t", [0.0, 1e-9, 0.5, 3.0, 40.0])
def test_zero_t_is_exact_at_zero_temperature(eta, t):
    res = ReservoirSpec(OhmicSpectralDensity(eta, 1.0), ZERO_TEMPERATURE, 2.0)
    expected = gamma_exact(res, t)
    assert gamma_zero_t(res, t) == expected
    assert gamma(res, t, GammaMethod.ZERO_T_CLOSED_FORM) == expected
    if t == 0.0:
        assert expected == 0.0
