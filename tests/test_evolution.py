import cmath
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tridephase import evolution
from tridephase.evolution import dephasing_factors, evolve, gammas
from tridephase.exceptions import MethodError, ParameterError, QuadratureError
from tridephase.linalg import hermitian_eigenvalues, hermiticity_defect
from tridephase.measures import DensityStack
from tridephase.reservoir import (
    ZERO_TEMPERATURE,
    GammaMethod,
    OhmicSpectralDensity,
    ReservoirSpec,
    gamma,
    gamma_zero_t,
)
from tridephase.states import ghz_state, w_state, werner

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
    # the phase of F[u, v] is -(E_u - E_v) t, E_mnl = (-1)^m Omega_A + (-1)^n Omega_B + (-1)^l Omega_C
    spectral = OhmicSpectralDensity(0.0, 1.0)  # no damping: F is the phase alone
    res = tuple(ReservoirSpec(spectral, ZERO_TEMPERATURE, omega) for omega in (1.0, 2.0, 3.0))
    t = 0.125
    f = dephasing_factors(res, t, GammaMethod.ZERO_T_CLOSED_FORM)
    assert f[0, 7] == pytest.approx(cmath.exp(-1j * (6.0 - -6.0) * t), abs=1e-15)  # E_000 - E_111
    assert f[2, 5] == pytest.approx(cmath.exp(-1j * (2.0 - -2.0) * t), abs=1e-15)  # E_010 - E_101
    assert f[7, 0] == f[0, 7].conjugate()


def test_factors_at_t0_are_identity():
    f = dephasing_factors(reservoirs(), 0.0, GammaMethod.ZERO_T_CLOSED_FORM)
    assert np.array_equal(f, np.ones((8, 8)))


def test_factor_entries_combine_per_qubit_exponents():
    res = reservoirs()
    t = 1.3
    g = gamma_zero_t(res[0], t)  # identical reservoirs
    f = dephasing_factors(res, t, GammaMethod.ZERO_T_CLOSED_FORM)
    # (000)-(111): all three qubits flip, each with the phase -2 Omega t
    assert f[0, 7] == pytest.approx(math.exp(-3 * g) * cmath.exp(-2j * (OMEGA * 3) * t), rel=1e-14)
    # (001)-(010): B and C flip the opposite ways, so their phases cancel
    assert f[1, 2] == pytest.approx(math.exp(-2 * g), rel=1e-14)
    # (000)-(100): only A flips
    assert abs(f[0, 4]) == pytest.approx(math.exp(-g), rel=1e-14)


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
# a subnormal eta: the quadrature's absolute tolerance underflows to 0
@example(channel=(reservoirs(eta=5e-324, beta=1.0), [0.0, 1.5], GammaMethod.NUMERIC_QUADRATURE))
@settings(max_examples=80, deadline=None)
def test_dephasing_factors_invariants(channel):
    """The invariants that follow from Gamma >= 0: the diagonal and Hermiticity
    hold bit for bit, |F| <= 1 to round-off."""
    res, t, method = channel
    f = dephasing_factors(res, t, method)
    assert f.shape == ((8, 8) if np.ndim(t) == 0 else (len(t), 8, 8))
    assert_unit_diagonal_and_hermitian(f)
    assert np.all(np.abs(f) <= 1.0 + 1e-15)  # |exp(-i phi)| rounds to 1 +- 1 ulp


@st.composite
def gamma_runs(draw):
    """(reservoirs, times, method): three Ohmic reservoirs, each at zero or finite
    temperature, so a method that does not fit one raises, and times with 0.0 and -0.0."""
    method = draw(st.sampled_from(tuple(GammaMethod)))
    spectral = OhmicSpectralDensity(draw(st.floats(0.0, 5.0)), draw(st.floats(0.1, 10.0)))
    beta = st.one_of(st.just(ZERO_TEMPERATURE), st.floats(0.1, 100.0))
    res = tuple(ReservoirSpec(spectral, draw(beta), draw(st.floats(0.5, 3.0))) for _ in range(3))
    time = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 5.0))
    return res, draw(st.lists(time, min_size=1, max_size=5)), method


@given(run=gamma_runs())
@example(run=(reservoirs(beta=1.0), [-0.0, 0.0, 1.0, -0.0], GammaMethod.ZERO_T_CLOSED_FORM))
@example(run=(reservoirs(beta=2.0), [0.0, -0.0, 3.0, 3.0], GammaMethod.LOW_T_CLOSED_FORM))
@settings(max_examples=60, deadline=None)
def test_gamma_tables_hold_what_gamma_returns(run):
    """Time-major, the first failing Gamma raises; every Gamma a reservoir's own
    table stores equals its direct `gamma` call bit for bit, a raising one is
    not stored, and a second call reads the tables alone."""
    res, times, method = run
    res = tuple(dataclasses.replace(r) for r in res)  # new instances, empty tables
    expected, evaluated, failure = [], set(), None
    for t in times:
        for r in res:
            try:
                expected.append(gamma(r, t, method))
            except (MethodError, QuadratureError) as exc:
                failure = exc
                break
            evaluated.add((r, t))
        if failure is not None:
            break
    if failure is None:
        assert [g.hex() for g in gammas(res, times, method)] == [g.hex() for g in expected]
    else:
        with pytest.raises(type(failure)) as raised:
            gammas(res, times, method)
        assert str(raised.value) == str(failure)
    assert all(set(r._gamma_tables) <= {method} for r in res)
    assert {(r, t) for r in res for t in r._gamma_tables[method]} == evaluated
    for r in res:
        for t, g in r._gamma_tables[method].items():
            assert g.hex() == gamma(r, t, method).hex()
    if failure is None:
        with mock.patch.object(evolution, "gamma", side_effect=AssertionError("Gamma again")):
            assert gammas(res, times, method) == expected


def test_one_reservoir_keeps_one_gamma_table_per_method():
    # at a finite temperature exact and low_t differ, so a table keyed by the
    # time alone would hand the Gamma of one method to the other
    times = [0.0, 0.5, 1.0, 3.0]
    methods = (GammaMethod.EXACT, GammaMethod.LOW_T_CLOSED_FORM)
    res = reservoirs(beta=2.0)
    direct = {m: [gamma(r, t, m).hex() for t in times for r in res] for m in methods}
    assert direct[methods[0]] != direct[methods[1]]
    for _ in range(2):  # the second round reads the tables
        for m in methods:
            assert [g.hex() for g in gammas(res, times, m)] == direct[m]
            fresh = dephasing_factors(reservoirs(beta=2.0), times, m)
            assert np.array_equal(dephasing_factors(res, times, m), fresh)
    assert all(set(r._gamma_tables) == set(methods) for r in res)


def assert_unit_diagonal_and_hermitian(f):
    assert np.all(np.diagonal(f, axis1=-2, axis2=-1) == 1.0)
    assert np.array_equal(f, f.conj().swapaxes(-1, -2))


@given(
    state=st.sampled_from(["ghz", "w"]),
    x=st.floats(0.0, 1.0),
    eta=st.floats(0.0, 1e-6),
    omega_sqs=st.lists(st.floats(0.5, 20.0), min_size=3, max_size=3),
    t=st.floats(0.0, 1e15),
)
# the rows of the large-phase command: W-Werner at x = 1, Omega^2 = (3, 5, 7)
@example(state="w", x=1.0, eta=1e-9, omega_sqs=[3.0, 5.0, 7.0], t=1e10)
@example(state="w", x=1.0, eta=1e-9, omega_sqs=[3.0, 5.0, 7.0], t=7.50025e13)
@example(state="w", x=1.0, eta=1e-9, omega_sqs=[3.0, 5.0, 7.0], t=1e14)
@settings(max_examples=80, deadline=None)
def test_large_phases_keep_evolved_werner_states_positive(state, x, eta, omega_sqs, t):
    """Each qubit's phase is applied as one factor, so the phases compose at any t."""
    spectral = OhmicSpectralDensity(eta, 1.0)
    res = tuple(ReservoirSpec(spectral, ZERO_TEMPERATURE, math.sqrt(v)) for v in omega_sqs)
    f = dephasing_factors(res, t, GammaMethod.ZERO_T_CLOSED_FORM)
    assert_unit_diagonal_and_hermitian(f)
    psi = ghz_state() if state == "ghz" else w_state()
    assert hermitian_eigenvalues(evolve(werner(psi, x), f))[0] >= -1e-15


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
    combined = np.abs(rho) * np.abs(f1) * np.abs(f2)
    sequential = np.abs(evolve(evolve(rho, f1), f2))
    assert np.abs(sequential - combined).max() < 1e-15


def test_large_phases_keep_an_evolved_state_positive():
    # W-Werner at x = 1, Omega^2 = (3, 5, 7): phases -(E_u - E_v) t from a
    # table of rounded energies gave smallest eigenvalues of -6.7e-8 at
    # t = 1e10, -1.5e-3 at 7.5e13 and -3.0e-3 at 1e14
    spectral = OhmicSpectralDensity(1e-9, 1.0)
    slow = tuple(ReservoirSpec(spectral, ZERO_TEMPERATURE, math.sqrt(v)) for v in (3.0, 5.0, 7.0))
    factors = dephasing_factors(slow, np.linspace(1e10, 1e14, 5), GammaMethod.ZERO_T_CLOSED_FORM)
    DensityStack(evolve(werner(w_state(), 1.0), factors))


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
    assert np.all(np.isfinite(factors))
