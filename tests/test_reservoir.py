import math

import mpmath
import numpy as np
import pytest

from tridephase import reservoir
from tridephase.exceptions import MethodError, ParameterError, QuadratureError
from tridephase.reservoir import (
    ZERO_TEMPERATURE,
    CustomSpectralDensity,
    GammaMethod,
    OhmicSpectralDensity,
    ReservoirSpec,
    QUAD_EPSABS,
    QUAD_EPSREL,
    gamma,
    gamma_exact,
    gamma_low_t,
    gamma_zero_t,
)


def ohmic(eta=0.2, omega_c=1.0, beta=ZERO_TEMPERATURE, omega=2.0):
    return ReservoirSpec(OhmicSpectralDensity(eta, omega_c), beta, omega)


def test_gamma_zero_at_t0_all_methods():
    cold = ohmic()
    warm = ohmic(beta=10.0)
    assert gamma(cold, 0.0, GammaMethod.ZERO_T_CLOSED_FORM) == 0.0
    assert gamma(warm, 0.0, GammaMethod.LOW_T_CLOSED_FORM) == 0.0
    assert gamma(cold, 0.0, GammaMethod.NUMERIC_QUADRATURE) == 0.0
    assert gamma(warm, 0.0, GammaMethod.NUMERIC_QUADRATURE) == 0.0


@pytest.mark.parametrize("method", list(GammaMethod), ids=lambda m: m.value)
def test_uncoupled_bath_gives_zero_gamma_at_every_time(method):
    # 2 eta Omega^2 = 0 times a log term that overflows to inf would be NaN
    betas = [ZERO_TEMPERATURE] if method is GammaMethod.ZERO_T_CLOSED_FORM else [1e-300, 1.0, 1e300]
    if method in (GammaMethod.EXACT, GammaMethod.NUMERIC_QUADRATURE):
        betas.append(ZERO_TEMPERATURE)
    for beta in betas:
        res = ohmic(eta=0.0, beta=beta)
        for t in (0.0, 1e-300, 1.0, 1e10, 1e160, 1e300):
            value = gamma(res, t, method)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, (beta, t)


def test_zero_t_closed_form_value():
    # 2 * Omega^2 * eta * ln 2 at w_c t = 1
    value = gamma_zero_t(ohmic(eta=0.2, omega=2.0), 1.0)
    assert value == pytest.approx(2.0 * 4.0 * 0.2 * math.log(2.0), rel=1e-15)
    assert value == pytest.approx(1.1090354888959124, rel=1e-12)


def test_quadrature_matches_zero_t_closed_form():
    res = ohmic(eta=0.2, omega=2.0)
    for t in np.geomspace(0.01, 20.0, 12):
        quad = gamma(res, float(t), GammaMethod.NUMERIC_QUADRATURE)
        closed = gamma_zero_t(res, float(t))
        assert abs(quad - closed) / closed < 1e-6


def test_low_t_zero_at_t0():
    assert gamma_low_t(ohmic(beta=5.0), 0.0) == 0.0


def test_low_t_converges_to_zero_t_at_huge_beta():
    cold = ohmic()
    nearly_cold = ohmic(beta=1e6)
    for t in np.geomspace(0.01, 10.0, 12):
        a = gamma_low_t(nearly_cold, float(t))
        b = gamma_zero_t(cold, float(t))
        assert abs(a - b) / b < 1e-6


def test_low_t_matches_quadrature_in_validity_domain():
    # omega_c * beta >= 100 is the domain where the approximation is trusted
    for beta in (100.0, 1000.0):
        res = ohmic(eta=0.4, beta=beta, omega=math.sqrt(12.0))
        for t in np.geomspace(0.01, 5.0, 9):
            quad = gamma(res, float(t), GammaMethod.NUMERIC_QUADRATURE)
            closed = gamma_low_t(res, float(t))
            assert abs(quad - closed) / quad < 1e-2


def test_log_sinhc_matches_mpmath_and_is_nondecreasing():
    zs = np.geomspace(1e-12, 700.0, 4000).tolist()
    values = [reservoir._log_sinhc(z) for z in zs]
    with mpmath.workdps(40):
        for z, value in zip(zs, values):
            exact = mpmath.log(mpmath.sinh(mpmath.mpf(z)) / z)
            assert abs(value - exact) <= 5e-15 * exact, z
    assert all(value >= 0.0 for value in values)
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_log_sinhc_limits():
    assert reservoir._log_sinhc(0.0) == 0.0
    assert reservoir._log_sinhc(math.inf) == math.inf
    assert reservoir._log_sinhc(1e308) == pytest.approx(1e308, rel=1e-15)


def test_low_t_is_nonnegative_on_hot_reservoirs():
    # pi t / beta from 1e-9 to 1e-3, where ln(sinh z / z) ~ z^2 / 6 is tiny
    res = ohmic(beta=1e-6)
    for z in np.geomspace(1e-9, 1e-3, 200).tolist():
        assert gamma(res, z * 1e-6 / math.pi, GammaMethod.LOW_T_CLOSED_FORM) >= 0.0


def test_low_t_breaks_down_on_hot_reservoirs():
    # At omega_c * beta = 0.01 the approximation premise fails outright;
    # the quadrature value stays authoritative there (~0.048 vs ~7.3).
    res = ohmic(eta=0.4, beta=0.01, omega=math.sqrt(12.0))
    quad = gamma(res, 0.005, GammaMethod.NUMERIC_QUADRATURE)
    closed = gamma_low_t(res, 0.005)
    assert abs(quad - closed) / quad > 1.0


def test_closed_forms_monotone_nondecreasing():
    cold = ohmic()
    warm = ohmic(eta=0.3, beta=50.0, omega=1.5)
    ts = np.linspace(0.0, 20.0, 1000)
    cold_vals = np.array([gamma_zero_t(cold, float(t)) for t in ts])
    warm_vals = np.array([gamma_low_t(warm, float(t)) for t in ts])
    assert np.all(np.diff(cold_vals) >= 0)
    assert np.all(np.diff(warm_vals) >= 0)


def test_gamma_scales_quadratically_with_omega():
    base = ohmic(omega=1.3)
    doubled = ohmic(omega=2.6)
    for t in (0.1, 1.0, 7.0):
        assert gamma_zero_t(doubled, t) == 4.0 * gamma_zero_t(base, t)
    base_w = ohmic(beta=20.0, omega=1.3)
    doubled_w = ohmic(beta=20.0, omega=2.6)
    for t in (0.1, 1.0, 7.0):
        assert gamma_low_t(doubled_w, t) == 4.0 * gamma_low_t(base_w, t)
    quad_base = gamma(base, 1.0, GammaMethod.NUMERIC_QUADRATURE)
    quad_doubled = gamma(doubled, 1.0, GammaMethod.NUMERIC_QUADRATURE)
    assert abs(quad_doubled - 4.0 * quad_base) / quad_doubled < 1e-8


def test_gamma_linear_in_eta():
    for beta, method in (
        (ZERO_TEMPERATURE, GammaMethod.ZERO_T_CLOSED_FORM),
        (30.0, GammaMethod.LOW_T_CLOSED_FORM),
        (30.0, GammaMethod.NUMERIC_QUADRATURE),
    ):
        single = gamma(ohmic(eta=0.15, beta=beta), 2.0, method)
        double = gamma(ohmic(eta=0.30, beta=beta), 2.0, method)
        assert abs(double - 2.0 * single) / double < 1e-8


def test_method_temperature_pairing_errors():
    with pytest.raises(MethodError):
        gamma(ohmic(beta=1.0), 1.0, GammaMethod.ZERO_T_CLOSED_FORM)
    with pytest.raises(MethodError):
        gamma(ohmic(), 1.0, GammaMethod.LOW_T_CLOSED_FORM)


def test_closed_forms_require_ohmic():
    custom = ReservoirSpec(
        CustomSpectralDensity(lambda w: w * math.exp(-w), support_cutoff=60.0),
        ZERO_TEMPERATURE,
        1.0,
    )
    with pytest.raises(MethodError):
        gamma(custom, 1.0, GammaMethod.ZERO_T_CLOSED_FORM)


def test_custom_spectral_density_quadrature():
    # A custom handle matching the Ohmic shape must reproduce the closed form.
    eta, omega_c = 0.2, 1.0
    custom = ReservoirSpec(
        CustomSpectralDensity(lambda w: eta * w * math.exp(-w / omega_c), support_cutoff=60.0),
        ZERO_TEMPERATURE,
        2.0,
    )
    closed = gamma_zero_t(ohmic(eta=eta, omega_c=omega_c, omega=2.0), 1.0)
    quad = gamma(custom, 1.0, GammaMethod.NUMERIC_QUADRATURE)
    assert abs(quad - closed) / closed < 1e-6


def test_quadrature_failure_reports_estimate():
    nasty = ReservoirSpec(
        CustomSpectralDensity(lambda w: w * (1.0 + math.sin(3e6 * w) ** 2), support_cutoff=60.0),
        5.0,
        1.0,
    )
    with pytest.raises(QuadratureError) as excinfo:
        gamma(nasty, 1.0, GammaMethod.NUMERIC_QUADRATURE)
    assert excinfo.value.error_estimate > 0


def test_negative_time_rejected():
    with pytest.raises(ParameterError):
        gamma(ohmic(), -1.0, GammaMethod.ZERO_T_CLOSED_FORM)


def test_beta_inf_is_the_one_zero_temperature():
    assert ZERO_TEMPERATURE is math.inf
    cold = ohmic(beta=float("inf"))
    assert cold == ohmic(beta=ZERO_TEMPERATURE)
    assert hash(cold) == hash(ohmic(beta=ZERO_TEMPERATURE))
    assert gamma_zero_t(cold, 1.0) == 2.0 * 0.2 * 4.0 * math.log1p(1.0)
    with pytest.raises(MethodError, match="requires a finite inverse temperature"):
        gamma_low_t(cold, 1.0)
    with pytest.raises(MethodError, match="requires ZERO_TEMPERATURE"):
        gamma_zero_t(ohmic(beta=1e300), 1.0)


def test_spec_validation():
    with pytest.raises(ParameterError):
        OhmicSpectralDensity(-0.1, 1.0)
    with pytest.raises(ParameterError):
        OhmicSpectralDensity(0.1, 0.0)
    with pytest.raises(ParameterError):
        ReservoirSpec(OhmicSpectralDensity(0.1, 1.0), -2.0, 1.0)
    with pytest.raises(ParameterError):
        ReservoirSpec(OhmicSpectralDensity(0.1, 1.0), 1.0, 0.0)


def test_gamma_rejects_a_nan_gamma_by_method_time_and_value():
    # 1 / (beta w_c) overflows to inf for a subnormal beta w_c, and the
    # thermal term of `exact` is then NaN
    res = ohmic(omega_c=1e-10, beta=1e-300)
    with pytest.raises(MethodError, match=r"^method exact gives Gamma = nan at t = 1.5, not >= 0$"):
        gamma(res, 1.5, GammaMethod.EXACT)
    assert gamma(res, 0.0, GammaMethod.EXACT) == 0.0


@pytest.mark.parametrize("x", [1.0, 1.5, 1e300])
def test_log_gamma_ratio_is_infinite_at_infinite_y(x):
    assert reservoir._log_gamma_ratio(x, math.inf) == math.inf


def test_exact_gamma_is_infinite_where_t_over_beta_overflows():
    # 1 / (beta w_c) = 1e308 is finite, t / beta = 3e308 is not
    assert gamma(ohmic(beta=1e-308), 3.0, GammaMethod.EXACT) == math.inf


@pytest.mark.parametrize("eta", [1e-14, 1e-12, 1e-11, 1e-9])
@pytest.mark.parametrize("omega_c", [1.0, 6.5])
def test_quadrature_holds_its_relative_tolerance_on_weak_coupling(eta, omega_c):
    # a fixed absolute tolerance of 1e-10 is as large as Gamma itself here
    res = ohmic(eta=eta, omega_c=omega_c, beta=1.0, omega=2.0)
    for t in (0.1, 3.0):
        exact = gamma_exact(res, t)
        assert abs(gamma(res, t, GammaMethod.NUMERIC_QUADRATURE) - exact) <= 1e-8 * exact


@pytest.mark.parametrize("value", [-1e-300, -math.inf, math.nan])
def test_gamma_rejects_a_negative_or_nan_value_of_any_method(monkeypatch, value):
    monkeypatch.setattr(reservoir, "gamma_low_t", lambda res, t: value)
    with pytest.raises(MethodError, match=rf"^method low_t gives Gamma = {value!r} at t = 2.0, not >= 0$"):
        gamma(ohmic(beta=10.0), 2.0, GammaMethod.LOW_T_CLOSED_FORM)


def test_gamma_passes_an_infinite_gamma(monkeypatch):
    monkeypatch.setattr(reservoir, "gamma_low_t", lambda res, t: math.inf)
    assert gamma(ohmic(beta=10.0), 2.0, GammaMethod.LOW_T_CLOSED_FORM) == math.inf


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("method", list(GammaMethod), ids=lambda m: m.value)
def test_gamma_rejects_non_finite_time(method, t):
    res = ohmic() if method is GammaMethod.ZERO_T_CLOSED_FORM else ohmic(beta=10.0)
    direct = {
        GammaMethod.ZERO_T_CLOSED_FORM: gamma_zero_t,
        GammaMethod.LOW_T_CLOSED_FORM: gamma_low_t,
    }.get(method)
    with pytest.raises(ParameterError, match="time must be finite and >= 0"):
        gamma(res, t, method)
    if direct is not None:
        with pytest.raises(ParameterError, match="time must be finite and >= 0"):
            direct(res, t)


def mpmath_exact(res, t, digits=40):
    """The Ohmic Gamma of `exact` from mpmath's complex log-gamma at `digits` digits."""
    with mpmath.workdps(digits):
        eta, omega_c, beta, omega, t = map(
            mpmath.mpf, (res.spectral.eta, res.spectral.omega_c, res.beta, res.omega_qubit, t)
        )
        x = 1 + 1 / (beta * omega_c)
        d = mpmath.re(mpmath.loggamma(x)) - mpmath.re(mpmath.loggamma(x + 1j * t / beta))
        return 2 * eta * omega**2 * mpmath.log1p((omega_c * t) ** 2) + 8 * eta * omega**2 * d


@pytest.mark.parametrize("beta", [0.01, 0.1, 1.0, 10.0, 100.0, 1e3, 1e5])
def test_exact_matches_mpmath(beta):
    # t / beta down to 1e-13: the direct loggamma difference in double
    # precision loses every digit there, the cancellation-free form none
    res = ohmic(eta=0.2, beta=beta, omega=2.0)
    for t in (1e-8, 1e-4, 0.01, 1.0, 30.0, 300.0):
        reference = mpmath_exact(res, t)
        assert abs(gamma_exact(res, t) - reference) <= 1e-13 * abs(reference), t


def test_exact_at_zero_temperature_is_zero_t_bit_for_bit():
    for res in (ohmic(), ohmic(eta=0.37, omega_c=3.0, omega=math.sqrt(12.0))):
        for t in [0.0, 1e-300, *np.geomspace(1e-8, 1e4, 60).tolist()]:
            assert gamma_exact(res, t) == gamma_zero_t(res, t)
            assert gamma(res, t, GammaMethod.EXACT) == gamma_zero_t(res, t)


@pytest.mark.parametrize("omega_c_beta", [1e2, 1e3, 1e4, 1e5])
def test_exact_approaches_low_t_on_cold_baths(omega_c_beta):
    # low_t drops the k >= 1 terms' offset a = 1 / (omega_c beta)
    res = ohmic(eta=0.2, omega_c=2.0, beta=omega_c_beta / 2.0, omega=2.0)
    for t in np.geomspace(1e-3, 1e3, 13).tolist():
        exact = gamma_exact(res, t)
        assert abs(exact - gamma_low_t(res, t)) <= abs(exact) / omega_c_beta


@pytest.mark.parametrize("omega_c_beta", [0.01, 0.1, 1.0, 10.0, 30.0, 100.0])
@pytest.mark.parametrize("omega_c", [1.0, 2.5])
def test_exact_matches_quadrature_where_it_converges(omega_c_beta, omega_c):
    # quadrature holds its tolerance up to omega_c beta = 100; colder baths
    # are where it misses (by 1e-10 absolute at omega_c beta = 250 already)
    res = ohmic(eta=0.3, omega_c=omega_c, beta=omega_c_beta / omega_c, omega=1.5)
    for t in np.geomspace(1e-4, 30.0, 9).tolist():
        exact = gamma_exact(res, t)
        quad = gamma(res, t, GammaMethod.NUMERIC_QUADRATURE)
        assert abs(exact - quad) <= QUAD_EPSREL * abs(exact) + QUAD_EPSABS, t


@pytest.mark.parametrize("beta", [1e-3, 0.5, 40.0, 1e6, ZERO_TEMPERATURE])
def test_exact_array_equals_scalar_calls(beta):
    res = ohmic(eta=0.25, beta=beta, omega=2.0)
    ts = np.concatenate([[0.0], np.geomspace(1e-9, 1e3, 241)])
    values = gamma_exact(res, ts)
    assert isinstance(values, np.ndarray) and values.shape == ts.shape
    assert values.tolist() == [gamma_exact(res, t) for t in ts.tolist()]
    assert values.tolist() == [gamma(res, t, GammaMethod.EXACT) for t in ts.tolist()]
    assert isinstance(gamma_exact(res, 1.0), float)


def test_exact_nondecreasing_and_hotter_is_larger():
    ts = np.linspace(0.0, 20.0, 400)
    curves = [gamma_exact(ohmic(beta=beta), ts) for beta in (ZERO_TEMPERATURE, 10.0, 1.0, 0.1)]
    for values in curves:
        assert np.all(np.diff(values) >= 0)
    for colder, hotter in zip(curves, curves[1:]):
        assert np.all(hotter[1:] > colder[1:])


def test_exact_requires_ohmic_and_valid_times():
    custom = ReservoirSpec(
        CustomSpectralDensity(lambda w: w * math.exp(-w), support_cutoff=60.0), 2.0, 1.0
    )
    with pytest.raises(MethodError, match="exact closed form is only available for Ohmic"):
        gamma(custom, 1.0, GammaMethod.EXACT)
    with pytest.raises(ParameterError, match="time must be finite and >= 0"):
        gamma_exact(ohmic(beta=2.0), np.array([0.5, -1.0]))
    with pytest.raises(ParameterError, match="1-d array"):
        gamma_exact(ohmic(beta=2.0), np.ones((2, 2)))
