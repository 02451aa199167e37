import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tridephase.exceptions import ParameterError
from tridephase.linalg import hermitian_eigenvalues, purity
from tridephase.measures import gmc_pure
from tridephase.states import (
    assert_density_matrix,
    ghz_state,
    maximally_mixed,
    projector,
    w_state,
    werner,
)


def test_ghz_amplitudes():
    psi = ghz_state()
    assert psi[0] == pytest.approx(0.7071067811865475, abs=1e-15)
    assert psi[7] == pytest.approx(0.7071067811865475, abs=1e-15)
    assert np.abs(psi[1:7]).max() == 0.0


def test_ghz_norm_and_purity():
    psi = ghz_state()
    assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-15)
    assert purity(projector(psi)) == pytest.approx(1.0, abs=1e-12)


def test_w_amplitudes():
    psi = w_state()
    expected = 0.5773502691896258
    for idx in (1, 2, 4):
        assert psi[idx] == pytest.approx(expected, abs=1e-15)
    for idx in (0, 3, 5, 6, 7):
        assert psi[idx] == 0.0
    assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-15)


def test_w_projector_off_diagonal():
    rho = projector(w_state())
    assert rho[1, 2] == pytest.approx(1 / 3, abs=1e-15)
    assert rho[1, 4] == pytest.approx(1 / 3, abs=1e-15)
    assert rho[2, 4] == pytest.approx(1 / 3, abs=1e-15)


def test_werner_x0_is_maximally_mixed():
    assert np.abs(werner(ghz_state(), 0.0) - maximally_mixed()).max() == 0.0


def test_werner_x1_is_projector():
    assert np.abs(werner(ghz_state(), 1.0) - projector(ghz_state())).max() < 1e-15


def test_werner_ghz_08_entries():
    rho = werner(ghz_state(), 0.8)
    assert rho[0, 7] == pytest.approx(0.4, abs=1e-15)
    diag = np.real(np.diag(rho))
    assert diag[0] == pytest.approx(0.425, abs=1e-15)
    assert diag[7] == pytest.approx(0.425, abs=1e-15)
    assert np.abs(diag[1:7] - 0.025).max() < 1e-15


def test_werner_rejects_bad_x():
    with pytest.raises(ParameterError):
        werner(ghz_state(), -0.1)
    with pytest.raises(ParameterError):
        werner(ghz_state(), 1.1)


def test_werner_rejects_unnormalized_state():
    with pytest.raises(ParameterError):
        werner(2.0 * ghz_state(), 0.5)


@pytest.mark.parametrize("psi", [np.full(8, np.nan), np.full(8, np.inf), [0, 0, 0, np.inf, 0, 0, 0, 0]],
                         ids=["all_nan", "all_inf", "one_inf"])
@pytest.mark.parametrize("build", [projector, lambda psi: werner(psi, 0.5), gmc_pure],
                         ids=["projector", "werner", "gmc_pure"])
def test_a_nan_or_infinite_pure_state_is_not_normalized(psi, build):
    # |psi|^2 is NaN, which the norm check rejects before any warning (the
    # suite makes a RuntimeWarning an error)
    with pytest.raises(ParameterError, match=r"^pure state is not normalized: \|psi\|\^2 = nan$"):
        build(psi)


@given(seed=st.integers(0, 2**32 - 1), x=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_werner_diagonal_and_positivity(seed, x):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    rho = werner(amps, x)
    expected_diag = x * np.abs(amps) ** 2 + (1 - x) / 8
    assert np.abs(np.real(np.diag(rho)) - expected_diag).max() < 1e-14
    assert hermitian_eigenvalues(rho)[0] >= -1e-12


def test_density_matrix_validation():
    assert_density_matrix(werner(w_state(), 0.3))
    assert_density_matrix(maximally_mixed())
    with pytest.raises(ParameterError):
        assert_density_matrix(np.eye(8))
    bad = maximally_mixed()
    bad[0, 1] = 0.5  # breaks positivity and hermiticity
    with pytest.raises(ParameterError):
        assert_density_matrix(bad)


@pytest.mark.parametrize("shape", [(8, 8), (3, 8, 8)], ids=["matrix", "stack"])
def test_nan_matrix_is_rejected_as_not_hermitian(shape):
    with pytest.raises(ParameterError, match="not Hermitian"):
        assert_density_matrix(np.full(shape, np.nan, dtype=complex))
