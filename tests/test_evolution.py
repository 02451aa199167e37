import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tridephase.evolution import (
    DephasingFactors,
    QubitTriple,
    dephasing_factors,
    energies,
    energy,
    evolve,
)
from tridephase.exceptions import ParameterError
from tridephase.linalg import hermitian_eigenvalues, hermiticity_defect
from tridephase.reservoir import (
    ZERO_TEMPERATURE,
    GammaMethod,
    OhmicSpectralDensity,
    ReservoirSpec,
    gamma_zero_t,
)
from tridephase.states import ghz_state, werner

OMEGA = 2.0  # Omega_A = Omega_B = Omega_C = 2 -> Omega^2 = 12
QUBITS = QubitTriple(OMEGA, OMEGA, OMEGA)


def reservoirs(eta=0.2, beta=ZERO_TEMPERATURE):
    spectral = OhmicSpectralDensity(eta, 1.0)
    return tuple(ReservoirSpec(spectral, beta, OMEGA) for _ in range(3))


def random_density(rng):
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_energy_examples():
    q = QubitTriple(1.0, 2.0, 3.0)
    assert energy(0, 0, 0, q) == 6.0
    assert energy(1, 1, 1, q) == -6.0
    assert energy(0, 0, 0, q) - energy(1, 1, 1, q) == 2.0 * (1.0 + 2.0 + 3.0)
    assert energy(0, 1, 0, QUBITS) == 2.0


def test_energy_rejects_non_bits():
    with pytest.raises(ParameterError):
        energy(0, 2, 0, QUBITS)


def test_energies_ordering():
    e = energies(QubitTriple(4.0, 2.0, 1.0))
    # index 4m + 2n + l
    assert e[0] == 7.0  # |000>
    assert e[5] == -4.0 + 2.0 - 1.0  # |101>
    assert e[7] == -7.0


@pytest.mark.parametrize("omegas", [(1.0, 2.0, 3.0), (0.1, 0.2, 0.3), (2**0.5, 3**0.5, 12**0.5)])
def test_energies_equal_the_scalar_sign_sum_bit_for_bit(omegas):
    q = QubitTriple(*omegas)
    expected = [
        (-1.0) ** m * q.omega_a + (-1.0) ** n * q.omega_b + (-1.0) ** l * q.omega_c
        for m in (0, 1) for n in (0, 1) for l in (0, 1)
    ]
    assert energies(q).tolist() == expected
    assert [energy(m, n, l, q) for m in (0, 1) for n in (0, 1) for l in (0, 1)] == expected
    # the channel takes each splitting from its own reservoir
    spectral = OhmicSpectralDensity(0.2, 1.0)
    res = tuple(ReservoirSpec(spectral, ZERO_TEMPERATURE, omega) for omega in omegas)
    e = energies(q)
    phase = dephasing_factors(res, 1.0, GammaMethod.ZERO_T_CLOSED_FORM).phase
    assert np.array_equal(phase, -(e[:, None] - e[None, :]))


def test_factors_at_t0_are_identity():
    f = dephasing_factors(reservoirs(), 0.0, GammaMethod.ZERO_T_CLOSED_FORM)
    assert np.array_equal(f.damping, np.ones((8, 8)))
    assert np.array_equal(f.phase, np.zeros((8, 8)))


def test_factor_entries_combine_per_qubit_exponents():
    res = reservoirs()
    t = 1.3
    g = gamma_zero_t(res[0], t)  # identical reservoirs
    f = dephasing_factors(res, t, GammaMethod.ZERO_T_CLOSED_FORM)
    # (000)-(111): all three qubits flip
    assert f.damping[0, 7] == pytest.approx(math.exp(-3 * g), rel=1e-14)
    # (001)-(010): B and C flip
    assert f.damping[1, 2] == pytest.approx(math.exp(-2 * g), rel=1e-14)
    # (000)-(100): only A flips
    assert f.damping[0, 4] == pytest.approx(math.exp(-g), rel=1e-14)
    assert f.phase[0, 7] == pytest.approx(-2 * (OMEGA * 3) * t, rel=1e-14)


def test_dephasing_factors_invariants():
    f = dephasing_factors(reservoirs(eta=0.4), 2.0, GammaMethod.ZERO_T_CLOSED_FORM)
    assert np.array_equal(np.diag(f.damping), np.ones(8))
    assert np.array_equal(f.damping, f.damping.T)
    assert np.array_equal(f.phase, -f.phase.T)
    assert np.all(f.damping > 0) and np.all(f.damping <= 1)


def test_factor_constructor_rejects_garbage():
    bad = np.ones((8, 8))
    bad[0, 0] = 0.5
    with pytest.raises(ParameterError):
        DephasingFactors(damping=bad, phase=np.zeros((8, 8)))


def test_diagonal_state_is_fixed():
    rho = np.diag(np.linspace(0.0, 1.0, 8) / np.linspace(0.0, 1.0, 8).sum()).astype(complex)
    f = dephasing_factors(reservoirs(), 2.5, GammaMethod.ZERO_T_CLOSED_FORM)
    assert np.array_equal(evolve(rho, f), rho)


def test_evolved_ghz_werner_coherence_magnitude():
    # x = 0.8, eta = 0.2, Omega^2 = 12, w_c t = 1:
    # Gamma_total = 4.8 ln 2, |rho_07| = 0.4 * 2^-4.8
    rho0 = werner(ghz_state(), 0.8)
    f = dephasing_factors(reservoirs(eta=0.2), 1.0, GammaMethod.ZERO_T_CLOSED_FORM)
    rho = evolve(rho0, f)
    assert abs(rho[0, 7]) == pytest.approx(0.01435872943746294, abs=1e-12)
    assert abs(rho[0, 7]) == pytest.approx(0.4 * math.exp(-4.8 * math.log(2.0)), abs=1e-15)


def test_evolve_preserves_diagonal_exactly():
    rng = np.random.default_rng(21)
    rho = random_density(rng)
    f = dephasing_factors(reservoirs(eta=0.3), 1.7, GammaMethod.ZERO_T_CLOSED_FORM)
    out = evolve(rho, f)
    assert np.array_equal(np.diag(out), np.diag(rho))
    assert np.trace(out) == np.trace(rho)


@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 20.0))
@settings(max_examples=60, deadline=None)
def test_evolve_channel_sanity(seed, t):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    f = dephasing_factors(reservoirs(eta=0.25), t, GammaMethod.ZERO_T_CLOSED_FORM)
    out = evolve(rho, f)
    assert hermiticity_defect(out) <= 1e-14
    assert hermitian_eigenvalues(out)[0] >= -1e-10


def test_monotone_damping_of_coherences():
    rho0 = werner(ghz_state(), 0.9)
    res = reservoirs(eta=0.3)
    previous = None
    for t in np.linspace(0.0, 5.0, 40):
        rho = evolve(rho0, dephasing_factors(res, float(t), GammaMethod.ZERO_T_CLOSED_FORM))
        off = np.abs(rho - np.diag(np.diag(rho)))
        if previous is not None:
            assert np.all(off <= previous + 1e-15)
        previous = off


def test_damping_composition_law():
    # Two consecutive applications multiply damping magnitudes exactly.
    res = reservoirs(eta=0.2)
    f1 = dephasing_factors(res, 0.7, GammaMethod.ZERO_T_CLOSED_FORM)
    f2 = dephasing_factors(res, 1.9, GammaMethod.ZERO_T_CLOSED_FORM)
    rng = np.random.default_rng(22)
    rho = random_density(rng)
    combined = np.abs(rho) * f1.damping * f2.damping
    sequential = np.abs(evolve(evolve(rho, f1), f2))
    assert np.abs(sequential - combined).max() < 1e-15


@pytest.mark.parametrize("t", [math.nan, math.inf, [0.0, 1.0, math.inf]], ids=["nan", "inf", "array"])
def test_factors_reject_non_finite_time_by_name(t):
    with pytest.raises(ParameterError, match="time must be finite and >= 0"):
        dephasing_factors(reservoirs(), t, GammaMethod.ZERO_T_CLOSED_FORM)
