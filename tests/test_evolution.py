import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tridephase.evolution import dephasing_factors, energies, energy, evolve
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
OMEGAS = (OMEGA, OMEGA, OMEGA)


def reservoirs(eta=0.2, beta=ZERO_TEMPERATURE):
    spectral = OhmicSpectralDensity(eta, 1.0)
    return tuple(ReservoirSpec(spectral, beta, OMEGA) for _ in range(3))


def random_density(rng):
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_energy_examples():
    omegas = (1.0, 2.0, 3.0)
    assert energy(0, 0, 0, omegas) == 6.0
    assert energy(1, 1, 1, omegas) == -6.0
    assert energy(0, 0, 0, omegas) - energy(1, 1, 1, omegas) == 2.0 * (1.0 + 2.0 + 3.0)
    assert energy(0, 1, 0, OMEGAS) == 2.0


def test_energy_rejects_non_bits():
    with pytest.raises(ParameterError):
        energy(0, 2, 0, OMEGAS)


def test_energies_ordering():
    e = energies((4.0, 2.0, 1.0))
    # index 4m + 2n + l
    assert e[0] == 7.0  # |000>
    assert e[5] == -4.0 + 2.0 - 1.0  # |101>
    assert e[7] == -7.0


@pytest.mark.parametrize("omegas", [(1.0, 2.0, 3.0), (0.1, 0.2, 0.3), (2**0.5, 3**0.5, 12**0.5)])
def test_energies_equal_the_scalar_sign_sum_bit_for_bit(omegas):
    omega_a, omega_b, omega_c = omegas
    expected = [
        (-1.0) ** m * omega_a + (-1.0) ** n * omega_b + (-1.0) ** l * omega_c
        for m in (0, 1) for n in (0, 1) for l in (0, 1)
    ]
    assert energies(omegas).tolist() == expected
    assert [energy(m, n, l, omegas) for m in (0, 1) for n in (0, 1) for l in (0, 1)] == expected
    # the channel takes each splitting from its own reservoir
    spectral = OhmicSpectralDensity(0.2, 1.0)
    res = tuple(ReservoirSpec(spectral, ZERO_TEMPERATURE, omega) for omega in omegas)
    e = energies(omegas)
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


@st.composite
def channels(draw):
    """(reservoirs, t, method): t a time or a list of times, over all four methods.

    Low-T draws include hot reservoirs with pi t / beta_A in [1e-9, 1e-3], where
    the thermal term is a tiny difference; eta up to 50 drives Gamma past ~745,
    where exp(-Gamma) underflows to 0.0.
    """
    method = draw(st.sampled_from(tuple(GammaMethod)))
    spectral = OhmicSpectralDensity(draw(st.floats(0.0, 50.0)), draw(st.floats(0.1, 10.0)))
    if method is GammaMethod.ZERO_T_CLOSED_FORM:
        betas = [ZERO_TEMPERATURE] * 3
    elif method is GammaMethod.NUMERIC_QUADRATURE:
        betas = draw(st.lists(st.floats(0.1, 100.0), min_size=3, max_size=3))
    else:
        betas = draw(st.lists(st.floats(1e-6, 1e3), min_size=3, max_size=3))
    res = tuple(ReservoirSpec(spectral, beta, draw(st.floats(0.5, 3.0))) for beta in betas)
    time = st.floats(0.0, 5.0 if method is GammaMethod.NUMERIC_QUADRATURE else 30.0)
    if method is GammaMethod.LOW_T_CLOSED_FORM:
        hot = st.floats(-9.0, -3.0).map(lambda e: 10.0**e * betas[0] / math.pi)
        time = st.one_of(time, hot)
    return res, draw(st.one_of(time, st.lists(time, min_size=1, max_size=4))), method


HOT = tuple(ReservoirSpec(OhmicSpectralDensity(0.3, 1.0), 1e-4, OMEGA) for _ in range(3))
# Gamma ~ 1.4e-10: a weak bath the quadrature must resolve below its absolute tolerance
WEAK = tuple(ReservoirSpec(OhmicSpectralDensity(1e-12, 6.5), 1.0, OMEGA) for _ in range(3))


@given(channel=channels())
# Gamma = 320 ln 901 ~ 2177 at t = 30: every off-diagonal damping entry is 0.0
@example(channel=(reservoirs(eta=40.0), 30.0, GammaMethod.ZERO_T_CLOSED_FORM))
@example(channel=(reservoirs(eta=40.0), [0.0, 1.0, 30.0], GammaMethod.EXACT))
@example(channel=(HOT, [1e-9 * 1e-4 / math.pi, 1e-3 * 1e-4 / math.pi], GammaMethod.LOW_T_CLOSED_FORM))
@example(channel=(WEAK, 3.0, GammaMethod.NUMERIC_QUADRATURE))
@settings(max_examples=80, deadline=None)
def test_dephasing_factors_invariants(channel):
    """The invariants that follow from Gamma >= 0 hold bit for bit."""
    res, t, method = channel
    f = dephasing_factors(res, t, method)
    shape = (8, 8) if np.ndim(t) == 0 else (len(t), 8, 8)
    assert f.damping.shape == f.phase.shape == shape
    assert np.all(np.diagonal(f.damping, axis1=-2, axis2=-1) == 1.0)
    assert np.all(f.damping >= 0.0) and np.all(f.damping <= 1.0)
    assert np.array_equal(f.damping, f.damping.swapaxes(-1, -2))
    assert np.array_equal(f.phase, -f.phase.swapaxes(-1, -2))


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


PHASE_OVERFLOW = "phase 2 (Omega_A + Omega_B + Omega_C) t overflows at t = 1e+300"


@pytest.mark.parametrize("t", [1e300, [0.0, 1.0, 1e300]], ids=["scalar", "array"])
def test_factors_reject_an_overflowing_phase_by_its_time(t):
    # Gamma = +inf is a valid full damping there; the phase 2 * 3e10 * 1e300 is not finite
    spectral = OhmicSpectralDensity(0.2, 1.0)
    fast = tuple(ReservoirSpec(spectral, ZERO_TEMPERATURE, 1e10) for _ in range(3))
    with pytest.raises(ParameterError) as info:
        dephasing_factors(fast, t, GammaMethod.ZERO_T_CLOSED_FORM)
    assert str(info.value) == PHASE_OVERFLOW
    # a largest phase of 6e300 is still finite
    factors = dephasing_factors(fast, [0.0, 1e290], GammaMethod.ZERO_T_CLOSED_FORM)
    assert np.abs(factors.phase).max() == 6e300
