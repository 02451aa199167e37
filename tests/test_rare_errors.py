"""The exact text of each error that a valid run never reaches.

Every raise site here is reached by one bad input: a CLI one through
`main([...])`, which exits 1 with `error: ...` on standard error, and a
library one through the public function that owns it.
"""

import numpy as np
import pytest

from tridephase import evolution, oracles
from tridephase.cli import main
from tridephase.evolution import dephasing_factors
from tridephase.exceptions import MethodError, ParameterError, ShapeError
from tridephase.linalg import hermiticity_defect, partial_trace, purity
from tridephase.oracles import gmc_ghz_werner_low_t, preservation_time_sinh_residual
from tridephase.reservoir import (
    ZERO_TEMPERATURE,
    CustomSpectralDensity,
    GammaMethod,
    OhmicSpectralDensity,
    ReservoirSpec,
    gamma,
)
from tridephase.states import assert_density_matrix, werner

COLD = ReservoirSpec(OhmicSpectralDensity(0.2, 1.0), ZERO_TEMPERATURE, 2.0)
BETAS = (1.0, 1.0, 1.0)


def error_of(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def config_file(tmp_path, text: str) -> str:
    path = tmp_path / "config.json"
    path.write_text(text)
    return str(path)


def test_unreadable_config_file(capsys, tmp_path):
    path = str(tmp_path / "missing.json")
    assert error_of(capsys, ["measure", "--config", path]) == (
        1, "", f"error: cannot read config file: [Errno 2] No such file or directory: {path!r}\n"
    )


@pytest.mark.parametrize("text, message", [
    ("not json", "config file is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1, 2]", "config document must be a JSON object"),
])
def test_config_file_that_is_not_a_json_object(capsys, tmp_path, text, message):
    path = config_file(tmp_path, text)
    assert error_of(capsys, ["measure", "--config", path]) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command, setting, message", [
    ("measure", "x", "--set expects key=value, got 'x'"),
    ("measure", "x=[]", "config key 'x' must not be an empty list"),
    ("measure", "eta=abc", "config key 'eta' must be a number, got 'abc'"),
    ("measure", "eta=true", "config key 'eta' must be a number, got True"),
    ("measure", "beta_a=hot", "config key 'beta_a' must be a number or \"inf\", got 'hot'"),
    ("measure", "measures=gmc", "config key 'measures' must be a nonempty list"),
    ("timescales", "measures=[]", "config key 'measures' must be a nonempty list"),
    # every command checks every key, also one it does not read
    *[
        (command, setting, message)
        for command in ("evolve", "measure", "timescales", "sweep")
        for setting, message in (
            ("measures=7", "config key 'measures' must be a nonempty list"),
            ("epsilon=5", "config key 'epsilon': epsilon must lie in (0, 1), got 5.0"),
            ("timescales=5", "config key 'timescales' must be true or false, got 5"),
        )
    ],
])
def test_config_value_of_the_wrong_kind(capsys, command, setting, message):
    assert error_of(capsys, [command, "--set", setting]) == (1, "", f"error: {message}\n")


def raised(kind, call) -> str:
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    return str(info.value)


def test_channel_needs_three_reservoirs():
    assert raised(ParameterError, lambda: dephasing_factors((COLD, COLD), 1.0, GammaMethod.EXACT)) == (
        "expected three reservoirs, got 2"
    )


def test_matrix_shapes():
    assert raised(ShapeError, lambda: purity(np.ones((2, 4)))) == (
        "expected a square matrix, got shape (2, 4)"
    )
    assert raised(ShapeError, lambda: hermiticity_defect(np.ones(3))) == (
        "expected a square matrix or a stack of them, got shape (3,)"
    )
    assert raised(ShapeError, lambda: partial_trace(np.eye(8) / 8, [2, 2, 2], [0, 3])) == (
        "keep indices [0, 3] out of range for 3 subsystems"
    )


def test_state_shapes():
    assert raised(ParameterError, lambda: werner(np.array([1.0, 0.0, 0.0, 0.0]), 0.5)) == (
        "expected an 8-amplitude pure state, got dimension 4"
    )
    assert raised(ParameterError, lambda: assert_density_matrix(np.eye(4) / 4)) == (
        "expected an 8x8 density matrix, got shape (4, 4)"
    )


def test_reservoir_inputs():
    assert raised(ParameterError, lambda: CustomSpectralDensity(lambda w: w, 0.0)) == (
        "support cutoff must be positive, got 0.0"
    )
    # a method given by its config text instead of as a GammaMethod
    assert raised(MethodError, lambda: gamma(COLD, 1.0, "exact")) == (
        "unknown evaluation method 'exact'"
    )


def test_oracle_inputs():
    # a zero-temperature reservoir has no thermal factor ln(beta sinh(pi t / beta))
    cold = (ZERO_TEMPERATURE, 1.0, 1.0)
    assert raised(ParameterError, lambda: gmc_ghz_werner_low_t(0.8, 1.0, 0.2, 4.0, 1.0, cold)) == (
        "need z > 0, got 0.0"
    )
    # pi t / beta is NaN for a NaN beta
    nan_beta = (float("nan"), 1.0, 1.0)
    assert raised(ParameterError, lambda: gmc_ghz_werner_low_t(0.8, 1.0, 0.2, 4.0, 1.0, nan_beta)) == (
        "need z > 0, got nan"
    )
    assert raised(
        ParameterError, lambda: preservation_time_sinh_residual(0.5, 1.0, 0.2, 4.0, 1.0, BETAS)
    ) == "mixing parameter must lie in (0, 1), got 1.0"
    assert raised(
        ParameterError, lambda: preservation_time_sinh_residual(0.0, 0.8, 0.2, 4.0, 1.0, BETAS)
    ) == "t_p must be positive, got 0.0"


def test_kernels_vs_pipeline_evaluates_each_gamma_once(monkeypatch):
    original = evolution.gamma
    keys = []

    def counted(res, t, method):
        keys.append((res, t, method))
        return original(res, t, method)

    monkeypatch.setattr(evolution, "gamma", counted)
    assert oracles.kernels_vs_pipeline() < 1e-14
    assert len(keys) == len(set(keys)) == 40 * 61 * 3
