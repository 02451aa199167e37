import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tridephase import measures
from tridephase.analysis import KERNELS, MARGINS
from tridephase.evolution import dephasing_factors, evolve
from tridephase.exceptions import ParameterError, ShapeError
from tridephase.measures import (
    W_WERNER_FORMS,
    gmc_ghz_werner,
    gmc_pure,
    gmc_x_state,
    l1_coherence,
    negativity,
    tripartite_negativity,
)
from tridephase.reservoir import GammaMethod, OhmicSpectralDensity, ReservoirSpec
from tridephase.states import ghz_state, maximally_mixed, w_state, werner

TWO_SQRT2_OVER_3 = 0.9428090415820634


def test_gmc_pure_product_state():
    psi = np.zeros(8, complex)
    psi[0] = 1.0
    assert gmc_pure(psi) == 0.0


def test_gmc_pure_ghz():
    assert gmc_pure(ghz_state()) == pytest.approx(1.0, abs=1e-12)


def test_gmc_pure_w():
    # single-qubit marginal of W has purity 5/9 -> sqrt(2 * 4/9)
    assert gmc_pure(w_state()) == pytest.approx(TWO_SQRT2_OVER_3, abs=1e-12)


def test_gmc_pure_biseparable_states_vanish():
    rng = np.random.default_rng(31)
    for _ in range(100):
        pair = rng.normal(size=4) + 1j * rng.normal(size=4)
        pair /= np.linalg.norm(pair)
        single = rng.normal(size=2) + 1j * rng.normal(size=2)
        single /= np.linalg.norm(single)
        cut = rng.integers(0, 3)
        if cut == 0:
            psi = np.kron(single, pair)
        elif cut == 2:
            psi = np.kron(pair, single)
        else:  # B|AC: embed via index arithmetic
            psi = np.zeros(8, complex)
            for a in range(2):
                for b in range(2):
                    for c in range(2):
                        psi[4 * a + 2 * b + c] = pair[2 * a + c] * single[b]
        assert gmc_pure(psi) < 1e-7


def test_gmc_x_state_ghz_projector():
    assert gmc_x_state(werner(ghz_state(), 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_gmc_x_state_ghz_werner():
    assert gmc_x_state(werner(ghz_state(), 0.8)) == pytest.approx(0.65, abs=1e-12)


def test_gmc_x_state_maximally_mixed():
    assert gmc_x_state(maximally_mixed()) == 0.0


def test_gmc_x_state_rejects_non_x_and_names_offender():
    rho = werner(w_state(), 0.5)
    with pytest.raises(ShapeError, match=r"\(1, 2\)"):
        gmc_x_state(rho)


def x_shape_outcome(check, rho):
    """The message `check(rho)` raises a ShapeError with, else None."""
    try:
        check(rho)
    except ShapeError as exc:
        return str(exc)
    return None


def whole_matrix_x_shape_check(rho):
    """The X-shape rule on every entry: the first largest off-X modulus of
    the stack (hypot, as Python's abs), with its element, must stay below
    ZERO_EIGENVALUE_TOL; a NaN modulus is the largest, and a violation."""
    off_x = ~(np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1])
    mags = np.where(off_x, np.hypot(rho.real, rho.imag), 0.0)
    first = int(np.argmax(mags))
    worst = float(mags.flat[first])
    where = tuple(int(i) for i in np.unravel_index(first, mags.shape)[-2:])
    if math.isnan(worst):
        raise ShapeError(f"matrix is not X-shaped: element {where} has a NaN modulus")
    if worst >= measures.ZERO_EIGENVALUE_TOL:
        raise ShapeError(f"matrix is not X-shaped: element {where} has modulus {worst:.3e}")


def with_entry(rho, i, j, z):
    rho = rho.copy()
    rho[i, j], rho[j, i] = z, np.conj(z)
    return rho


def test_x_shape_check_keeps_the_whole_matrix_verdict_and_message():
    tol = measures.ZERO_EIGENVALUE_TOL
    base = werner(ghz_state(), 0.8)
    above = with_entry(base, 1, 2, np.nextafter(tol, 1.0))
    nan = with_entry(base, 3, 5, complex(np.nan, 0.0))
    # a NaN is the largest modulus and a violation, wherever it is in the stack
    stacks = [[above], [nan], [above, nan], [nan, above], [base, above, base], [base]]
    # moduli at the tolerance and at the half where the screen stops, in every
    # direction, where np.abs and hypot can round apart
    for radius in (tol, tol / 2):
        for scale in (1 - 4e-16, 1.0, 1 + 4e-16):
            stacks += [[with_entry(base, 2, 6, radius * scale * np.exp(1j * phase)) for phase in
                        np.linspace(0.0, 2 * np.pi, 97)]]
    outcomes = []  # per stack: the stack's, then each matrix's
    for stack in stacks:
        outcomes.append([])
        for rho in [np.stack(stack), *stack]:
            outcome = x_shape_outcome(measures._assert_x_shaped, rho)
            assert outcome == x_shape_outcome(whole_matrix_x_shape_check, rho)
            outcomes[-1].append(outcome)
    message = "matrix is not X-shaped: element (1, 2) has modulus 1.000e-12"
    nan_message = "matrix is not X-shaped: element (3, 5) has a NaN modulus"
    assert [stack[0] for stack in outcomes[:6]] == [
        message, nan_message, nan_message, nan_message, message, None,
    ]
    assert outcomes[2][1:] == outcomes[3][2:0:-1] == [message, nan_message]  # each matrix its own
    near_tol = {outcome for stack in outcomes[6:9] for outcome in stack[1:]}
    assert None in near_tol and len(near_tol) > 1  # the rule's edge is crossed


def test_gmc_ghz_werner_threshold():
    assert gmc_ghz_werner(3 / 7, 0.0) == 0.0
    assert gmc_ghz_werner(np.nextafter(3 / 7, 1.0), 0.0) > 0.0
    assert gmc_ghz_werner(0.3, 0.0) == 0.0
    assert gmc_ghz_werner(0.8, 0.0) == pytest.approx(0.65, abs=1e-15)


def test_gmc_ghz_werner_sudden_death_example():
    # x e^-Gamma = 0.8 * 2^-4.8 = 0.0287 < 0.15 -> dead before w_c t = 1
    assert gmc_ghz_werner(0.8, 4.8 * math.log(2.0)) == 0.0


def test_gmc_ghz_werner_never_dies_at_x1():
    for g in (0.0, 1.0, 50.0, 700.0):
        assert gmc_ghz_werner(1.0, g) == math.exp(-g)
        assert gmc_ghz_werner(1.0, g) > 0.0


def test_gmc_ghz_werner_validation():
    with pytest.raises(ParameterError):
        gmc_ghz_werner(1.2, 0.0)
    with pytest.raises(ParameterError):
        gmc_ghz_werner(0.5, -1.0)


@given(x=st.floats(0.0, 1.0), g=st.floats(0.0, 800.0), position=st.integers(0, 2))
@example(x=3.0 / 7.0, g=0.0, position=0)
@example(x=1.0, g=740.0, position=2)  # exp(-g) is subnormal
@settings(max_examples=300, deadline=None)
def test_ghz_gmc_kernel_and_the_scalar_form_share_one_rule(x, g, position):
    # exp(-g) in one damping factor and 1.0 in the other two is exp(-S) exactly
    damps = [1.0, 1.0, 1.0]
    damps[position] = math.exp(-g)
    assert KERNELS["ghz", "gmc"](x, damps).hex() == gmc_ghz_werner(x, g).hex()
    assert MARGINS["ghz", "gmc"](x, damps).hex() == (x * math.exp(-g) - 0.75 * (1 - x)).hex()


def test_negativity_maximally_mixed():
    for subsystem in range(3):
        assert negativity(maximally_mixed(), subsystem) == 0.0


def test_negativity_ghz_projector():
    for subsystem in range(3):
        assert negativity(werner(ghz_state(), 1.0), subsystem) == pytest.approx(1.0, abs=1e-10)


def test_negativity_w_projector_cut_c():
    assert negativity(werner(w_state(), 1.0), 2) == pytest.approx(TWO_SQRT2_OVER_3, abs=1e-10)


def test_tripartite_negativity_examples():
    assert tripartite_negativity(werner(ghz_state(), 1.0)) == pytest.approx(1.0, abs=1e-10)
    assert tripartite_negativity(maximally_mixed()) == 0.0


def test_tripartite_negativity_biseparable():
    bell = np.zeros(4, complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    psi = np.kron(np.array([1.0, 0.0], dtype=complex), bell)
    rho = np.outer(psi, psi.conj())
    assert tripartite_negativity(rho) == 0.0
    assert negativity(rho, 0) == 0.0


def test_l1_coherence_initial_states():
    assert l1_coherence(werner(ghz_state(), 0.8)) == pytest.approx(0.8, abs=1e-12)
    assert l1_coherence(werner(w_state(), 0.6)) == pytest.approx(1.2, abs=1e-12)
    assert l1_coherence(maximally_mixed()) == 0.0


def test_l1_coherence_evolved_w_werner():
    omega = 2.0
    spectral = OhmicSpectralDensity(0.3, 1.0)
    betas = (0.5, 1.0, 2.0)
    reservoirs = tuple(ReservoirSpec(spectral, b, omega) for b in betas)
    from tridephase.reservoir import gamma_low_t

    x, t = 0.7, 0.8
    rho = evolve(
        werner(w_state(), x),
        dephasing_factors(reservoirs, t, GammaMethod.LOW_T_CLOSED_FORM),
    )
    g = [gamma_low_t(r, t) for r in reservoirs]
    expected = (2 * x / 3) * (
        math.exp(-(g[1] + g[2])) + math.exp(-(g[0] + g[2])) + math.exp(-(g[0] + g[1]))
    )
    assert l1_coherence(rho) == pytest.approx(expected, abs=1e-12)


def w_werner_negativity(x, gammas, subsystem):
    """The W-Werner kernel's N_X|YZ: -2 lam below -1e-12, with
    lam = (1-x)/8 - (x/3) sqrt(c_XY^2 + c_XZ^2)."""
    cut = ("negativity_a_bc", "negativity_b_ac", "negativity_c_ab")[subsystem]
    kernel, _ = W_WERNER_FORMS["w", cut]
    return kernel(x, [math.exp(-g) for g in gammas])


def test_w_werner_negativity_closed_form_on_every_bipartition():
    # the paper prints another B|AC line, which gives 0 at (x = 0.6, Gamma = 0)
    bits = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1
    flips = (bits[:, None, :] != bits[None, :, :]).astype(float)  # [u, v, X]
    rng = np.random.default_rng(2021)
    points = [(0.6, [0.0] * 3), (1.0, [0.0] * 3), (0.0, [1.0, 2.0, 0.5])] + [
        (float(rng.uniform(0.0, 1.0)), rng.uniform(0.0, 3.0, size=3).tolist()) for _ in range(300)
    ]
    for x, gammas in points:
        # the channel's damping alone: its phases are local and change no negativity
        rho = werner(w_state(), x) * np.exp(-(flips @ np.array(gammas)))
        for subsystem in range(3):
            want = w_werner_negativity(x, gammas, subsystem)
            assert abs(negativity(rho, subsystem) - want) <= 2e-12, (x, gammas, subsystem)
    # the special points the paper's form was pinned at: the true B|AC value, and C|AB at x = 1
    assert w_werner_negativity(0.6, [0.0] * 3, 1) == pytest.approx(0.4656854249492381, abs=1e-12)
    assert w_werner_negativity(1.0, [0.0] * 3, 2) == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_tripartite_negativity_bounded_by_factors(seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    rho = werner(amps, float(rng.uniform(0.0, 1.0)))
    factors = [negativity(rho, s) for s in range(3)]
    tri = tripartite_negativity(rho)
    assert all(f >= 0.0 for f in factors)
    assert 0.0 <= tri <= max(factors) + 1e-12


def test_l1_coherence_nonincreasing_under_dephasing():
    omega = 2.0
    spectral = OhmicSpectralDensity(0.3, 1.0)
    from tridephase.reservoir import ZERO_TEMPERATURE

    reservoirs = tuple(ReservoirSpec(spectral, ZERO_TEMPERATURE, omega) for _ in range(3))
    rho0 = werner(w_state(), 0.9)
    values = [
        l1_coherence(
            evolve(rho0, dephasing_factors(reservoirs, float(t), GammaMethod.ZERO_T_CLOSED_FORM))
        )
        for t in np.linspace(0.0, 5.0, 60)
    ]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_all_measures_vanish_on_maximally_mixed():
    mixed = maximally_mixed()
    assert gmc_x_state(mixed) <= 1e-12
    assert tripartite_negativity(mixed) <= 1e-12
    assert l1_coherence(mixed) <= 1e-12
    for subsystem in range(3):
        assert negativity(mixed, subsystem) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_measures_invariant_under_diagonal_phases(seed):
    rng = np.random.default_rng(seed)
    x = float(rng.uniform(0.45, 1.0))
    rho = werner(ghz_state() if rng.integers(2) else w_state(), x)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=8))
    rotated = rho * np.outer(phases, phases.conj())
    for subsystem in range(3):
        assert abs(negativity(rotated, subsystem) - negativity(rho, subsystem)) < 1e-10
    assert abs(tripartite_negativity(rotated) - tripartite_negativity(rho)) < 1e-10
    assert abs(l1_coherence(rotated) - l1_coherence(rho)) < 1e-10


def test_gmc_x_state_matches_scalar_form_on_random_tuples():
    rng = np.random.default_rng(33)
    omega = math.sqrt(3.0)
    spectral_cache = {}
    from tridephase.reservoir import gamma_low_t

    for _ in range(200):
        x = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 3.0))
        eta = float(rng.uniform(0.05, 0.5))
        beta_a = float(rng.uniform(1e-3, 10.0))
        k1 = float(rng.uniform(0.5, 64.0))
        k2 = float(rng.uniform(0.5, 64.0))
        spectral = spectral_cache.setdefault(eta, OhmicSpectralDensity(eta, 1.0))
        reservoirs = tuple(
            ReservoirSpec(spectral, b, omega) for b in (beta_a, k1 * beta_a, k2 * beta_a)
        )
        factors = dephasing_factors(reservoirs, t, GammaMethod.LOW_T_CLOSED_FORM)
        matrix_value = gmc_x_state(evolve(werner(ghz_state(), x), factors))
        total = sum(gamma_low_t(r, t) for r in reservoirs)
        assert abs(matrix_value - gmc_ghz_werner(x, total)) < 1e-12
