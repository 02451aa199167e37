"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
achieved errors.
"""

import math
import time

import numpy as np

from tridephase import oracles
from tridephase.analysis import (
    freezing_intervals,
    make_reservoirs,
    preservation_time_numeric,
    preservation_time_zero_t,
)
from tridephase.cli import main
from tridephase.evolution import dephasing_factors, evolve
from tridephase.linalg import hermitian_eigenvalues, hermiticity_defect
from tridephase.measures import (
    gmc_ghz_werner,
    gmc_pure,
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
    gamma_low_t,
    gamma_zero_t,
)
from tridephase.states import ghz_state, maximally_mixed, w_state, werner


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_zero_t_quadrature_oracle():
    start = time.perf_counter()
    worst = oracles.quadrature_vs_zero_t()
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 1.0
    report(1, ok, f"quadrature vs zero-T closed form, max rel err {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_low_t_consistency():
    start = time.perf_counter()
    worst = oracles.quadrature_vs_low_t()
    cold = ReservoirSpec(OhmicSpectralDensity(0.2, 1.0), ZERO_TEMPERATURE, 2.0)
    nearly_cold = ReservoirSpec(OhmicSpectralDensity(0.2, 1.0), 1e6, 2.0)
    worst_limit = 0.0
    for t in np.geomspace(0.01, 5.0, 15):
        a = gamma_low_t(nearly_cold, float(t))
        b = gamma_zero_t(cold, float(t))
        worst_limit = max(worst_limit, abs(a - b) / abs(b))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-2 and worst_limit < 1e-6 and elapsed < 5.0
    report(
        2, ok,
        f"low-T vs quadrature {worst:.3e} (tol 1e-2), zero-T limit {worst_limit:.3e} "
        f"(tol 1e-6), {elapsed:.2f}s",
    )


def test_criterion_03_gmc_pipeline_equivalence():
    start = time.perf_counter()
    worst = oracles.pipeline_vs_scalar()
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10.0
    report(3, ok, f"matrix vs scalar GMC over 10^3 tuples, max |diff| {worst:.3e}, {elapsed:.2f}s")


def test_criterion_04_sudden_death_threshold():
    threshold = 3.0 / 7.0
    xs = np.linspace(0.0, 1.0, 10_000)
    psi = ghz_state()
    scalar_ok = all((gmc_ghz_werner(float(x), 0.0) > 0.0) == (x > threshold) for x in xs)
    matrix_ok = all((gmc_x_state(werner(psi, float(x))) > 0.0) == (x > threshold) for x in xs)
    # Threshold location: the scalar route flips sign exactly one ulp above
    # 3/7; the matrix route within three ulps (the projector entry
    # (1/sqrt(2))^2 rounds one bit below 1/2 and the off-minus-cross
    # difference quantizes in 2.8e-17 steps).
    up = np.nextafter(threshold, 1.0)
    scalar_edge = (
        gmc_ghz_werner(np.nextafter(threshold, 0.0), 0.0) == 0.0
        and gmc_ghz_werner(threshold, 0.0) == 0.0
        and gmc_ghz_werner(up, 0.0) > 0.0
    )
    three_up = np.nextafter(np.nextafter(up, 1.0), 1.0)
    matrix_edge = (
        gmc_x_state(werner(psi, threshold)) == 0.0
        and gmc_x_state(werner(psi, three_up)) > 0.0
    )
    ok = scalar_ok and matrix_ok and scalar_edge and matrix_edge
    report(4, ok, "GMC(t=0) > 0 iff x > 3/7 on 10^4-point grid, "
                  f"scalar {scalar_ok} (edge exact {scalar_edge}), "
                  f"matrix {matrix_ok} (edge within 3 ulps {matrix_edge})")


def test_criterion_05_preservation_time_closed_form():
    start = time.perf_counter()
    worst = oracles.preservation_time_vs_closed_form()
    boundary_ok = (
        preservation_time_zero_t(1.0, 0.2, 12.0, 1.0) == math.inf
        and preservation_time_zero_t(3.0 / 7.0, 0.2, 12.0, 1.0) == 0.0
        and preservation_time_zero_t(0.2, 0.2, 12.0, 1.0) == 0.0
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and boundary_ok and elapsed < 5.0
    report(5, ok, f"numeric root vs closed form, max rel err {worst:.3e}, "
                  f"boundaries {boundary_ok}, {elapsed:.2f}s")


def test_criterion_06_implicit_relation_residual():
    worst = oracles.sinh_residual()
    ok = worst < 1e-6
    report(6, ok, f"equal-temperature implicit-relation residual, max {worst:.3e} (tol 1e-6)")


def test_criterion_07_gradient_monotonicity_and_saturation():
    start = time.perf_counter()
    omega = math.sqrt(12.0)
    rho0 = werner(ghz_state(), 0.8)
    tps = []
    for k in (1.0, 2.0, 4.0, 8.0):  # k1 k2 in {1, 4, 16, 64}
        reservoirs = make_reservoirs(0.2, 1.0, 0.01, k, k, (omega, omega, omega))

        def curve(t, reservoirs=reservoirs):
            factors = dephasing_factors(reservoirs, t, GammaMethod.LOW_T_CLOSED_FORM)
            return gmc_x_state(evolve(rho0, factors))

        tps.append(preservation_time_numeric(curve, 5.0))
    increasing = all(b > a for a, b in zip(tps, tps[1:]))
    increments = [b - a for a, b in zip(tps, tps[1:])]
    saturating = all(b < a for a, b in zip(increments, increments[1:]))
    elapsed = time.perf_counter() - start
    ok = increasing and saturating and elapsed < 10.0
    report(7, ok, f"t_p over k1k2 in {{1,4,16,64}}: {[f'{v:.5g}' for v in tps]}, "
                  f"increasing {increasing}, increments shrink {saturating}, {elapsed:.2f}s")


def test_criterion_08_channel_sanity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    omega = 2.0
    spectral = OhmicSpectralDensity(0.25, 1.0)
    reservoirs = tuple(ReservoirSpec(spectral, ZERO_TEMPERATURE, omega) for _ in range(3))
    worst_herm, worst_eig = 0.0, 0.0
    exact_trace = exact_diag = True
    for _ in range(1000):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        t = float(rng.uniform(0.0, 20.0))
        out = evolve(rho, dephasing_factors(reservoirs, t, GammaMethod.ZERO_T_CLOSED_FORM))
        exact_trace &= np.trace(out) == np.trace(rho)
        exact_diag &= np.array_equal(np.diag(out), np.diag(rho))
        worst_herm = max(worst_herm, hermiticity_defect(out))
        worst_eig = min(worst_eig, float(hermitian_eigenvalues(out)[0]))
    elapsed = time.perf_counter() - start
    ok = exact_trace and exact_diag and worst_herm <= 1e-14 and worst_eig >= -1e-10
    report(8, ok, f"10^3 random channels: trace exact {exact_trace}, diag exact {exact_diag}, "
                  f"herm defect {worst_herm:.2e}, min eig {worst_eig:.2e}, {elapsed:.2f}s")


def test_criterion_09_measure_sanity():
    ghz_gmc = gmc_pure(ghz_state())
    w_neg = negativity(werner(w_state(), 1.0), 2)
    mixed = maximally_mixed()
    mixed_values = [
        gmc_x_state(mixed),
        tripartite_negativity(mixed),
        l1_coherence(mixed),
        negativity(mixed, 0),
        negativity(mixed, 1),
        negativity(mixed, 2),
    ]
    rng = np.random.default_rng(99)
    worst_shift = 0.0
    for psi_fn, x in ((ghz_state, 0.8), (w_state, 0.7), (w_state, 1.0)):
        rho = werner(psi_fn(), x)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=8))
        rotated = rho * np.outer(phases, phases.conj())
        for subsystem in range(3):
            worst_shift = max(
                worst_shift, abs(negativity(rotated, subsystem) - negativity(rho, subsystem))
            )
        worst_shift = max(worst_shift, abs(tripartite_negativity(rotated) - tripartite_negativity(rho)))
        worst_shift = max(worst_shift, abs(l1_coherence(rotated) - l1_coherence(rho)))
    ok = (
        abs(ghz_gmc - 1.0) < 1e-10
        and abs(w_neg - 2.0 * math.sqrt(2.0) / 3.0) < 1e-10
        and max(mixed_values) <= 1e-12
        and worst_shift <= 1e-10
    )
    report(9, ok, f"GHZ GMC {ghz_gmc:.12f}, W N_C|AB err {abs(w_neg - 2*math.sqrt(2)/3):.2e}, "
                  f"mixed max {max(mixed_values):.2e}, phase shift {worst_shift:.2e}")


def test_criterion_10_w_werner_dynamics():
    omega = math.sqrt(12.0)
    x = 0.6
    rho0 = werner(w_state(), x)
    reservoirs = make_reservoirs(0.4, 1.0, 0.002, 1.0, 1.0, (omega, omega, omega))

    worst_l1 = 0.0
    for t in np.linspace(0.0, 1e-3, 21):
        rho = evolve(rho0, dephasing_factors(reservoirs, float(t), GammaMethod.LOW_T_CLOSED_FORM))
        g = [gamma_low_t(r, float(t)) for r in reservoirs]
        expected = (2.0 * x / 3.0) * (
            math.exp(-(g[1] + g[2])) + math.exp(-(g[0] + g[2])) + math.exp(-(g[0] + g[1]))
        )
        worst_l1 = max(worst_l1, abs(l1_coherence(rho) - expected))

    death_time = None
    coherence_at_death = None
    for t in np.linspace(0.0, 2e-3, 81):
        rho = evolve(rho0, dephasing_factors(reservoirs, float(t), GammaMethod.LOW_T_CLOSED_FORM))
        if tripartite_negativity(rho) == 0.0:
            death_time = float(t)
            coherence_at_death = l1_coherence(rho)
            break
    ok = (
        worst_l1 < 1e-12
        and death_time is not None
        and death_time > 0.0
        and coherence_at_death is not None
        and coherence_at_death > 0.0
    )
    report(10, ok, f"l1 closed-form err {worst_l1:.2e}, negativity sudden death at "
                   f"t={death_time}, coherence there {coherence_at_death}")


def test_criterion_11_freezing_detection():
    omega = math.sqrt(12.0)
    rho0 = werner(w_state(), 0.6)
    ts = np.concatenate([[0.0], np.geomspace(1e-6, 0.5, 599)])

    def coherence_samples(k1, k2):
        reservoirs = make_reservoirs(0.4, 1.0, 0.003, k1, k2, (omega, omega, omega))
        return np.array([
            l1_coherence(
                evolve(rho0, dephasing_factors(reservoirs, float(t), GammaMethod.LOW_T_CLOSED_FORM))
            )
            for t in ts
        ])

    gradient_counts = {
        (k1, k2): len(freezing_intervals(ts, coherence_samples(k1, k2)))
        for k1, k2 in ((50.0, 2500.0), (100.0, 10000.0))
    }
    equal_count = len(freezing_intervals(ts, coherence_samples(1.0, 1.0)))
    ok = all(count >= 2 for count in gradient_counts.values()) and equal_count == 1
    report(11, ok, f"freezing intervals: gradients {gradient_counts} (need >= 2), "
                   f"equal temperatures {equal_count} (need exactly 1)")


def test_criterion_12_sweep_determinism(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        '{"x": [0.5, 0.8], "eta": [0.2, 0.4], "beta_a": [0.01], "k1": [1.0, 4.0],'
        ' "k2": [1.0], "method": "low_t", "t_count": 9, "t_stop": 2.0,'
        ' "measures": ["gmc", "l1_coherence"], "timescales": true}'
    )
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = main(["sweep", "--config", str(config), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    with capsys.disabled():
        report(12, ok, f"two sweep runs byte-identical ({len(outputs[0])} bytes)")
