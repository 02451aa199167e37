"""A SweepGrid builds each Werner state and reservoir set of its run once, and
run_sweep computes one channel per distinct reservoir set."""

import math
import statistics
from collections import Counter

import numpy as np

from tridephase import analysis, cli, reservoir
from tridephase.analysis import MEASURES, SweepGrid, run_sweep
from tridephase.cli import main
from tridephase.reservoir import GammaMethod, OhmicSpectralDensity

OMEGA_SQS = (4.0, 4.0, 4.0)


def count_calls(monkeypatch, module, names) -> Counter:
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


def zero_t_grid(**changes) -> SweepGrid:
    fields = dict(
        xs=[0.6, 0.9], etas=[0.2], beta_as=[math.inf], k1s=[1.0], k2s=[1.0],
        t_start=0.0, t_stop=3.0, t_count=11, omega_sqs=OMEGA_SQS,
        measures=("gmc", "l1_coherence"), method=GammaMethod.ZERO_T_CLOSED_FORM,
        include_timescales=True,
    )
    return SweepGrid(**{**fields, **changes})


def test_grid_and_sweep_build_each_state_and_reservoir_set_once(monkeypatch):
    counts = count_calls(monkeypatch, analysis, ("werner", "make_reservoirs"))
    # the shape of the measure_zero_t workload: 8 x, 3 eta, one zero-temperature beta_a
    grid = zero_t_grid(
        xs=[0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], etas=[0.05, 0.2, 0.4],
        measures=tuple(MEASURES), include_timescales=False,
    )
    curves = run_sweep(grid)
    assert len(curves) == 8 * 3 * len(MEASURES)
    assert counts == {"werner": 8, "make_reservoirs": 3}
    assert len(grid.initial_states) == 8 and len(grid.reservoir_sets) == 3


def test_evolve_command_builds_one_state_and_one_reservoir_set(monkeypatch, capsys):
    counts = count_calls(monkeypatch, analysis, ("werner", "make_reservoirs"))
    assert main(["evolve", "--set", "t_count=3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert counts == {"werner": 1, "make_reservoirs": 1}
    assert not hasattr(cli, "werner")


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_one_channel_per_distinct_reservoir_set(monkeypatch):
    # at zero temperature k1 and k2 are unused, so all four tuples build one set
    grid = zero_t_grid(k1s=[1.0, 4.0], k2s=[1.0, 16.0])
    calls = Counter()
    factors = analysis.dephasing_factors

    def counting(reservoirs, t, method):
        calls["array" if np.ndim(t) == 1 else "scalar"] += 1
        return factors(reservoirs, t, method)

    monkeypatch.setattr(analysis, "dephasing_factors", counting)
    curves = run_sweep(grid)
    assert calls["array"] == 1
    monkeypatch.undo()

    # each tuple on a grid of its own takes the per-tuple path: the same bits
    expected = [
        curve
        for x in grid.xs
        for k1 in grid.k1s
        for k2 in grid.k2s
        for curve in run_sweep(zero_t_grid(xs=[x], k1s=[k1], k2s=[k2]))
    ]
    assert len(curves) == len(expected) == 16
    for got, want in zip(curves, expected, strict=True):
        assert got.parameters == want.parameters and got.name == want.name
        assert hexes(got.values) == hexes(want.values) and got.errors == want.errors
        assert got.timescales == want.timescales

    # a repeated value still gives its curves twice, in product order
    repeated = run_sweep(zero_t_grid(k1s=[1.0, 1.0]))
    single = run_sweep(zero_t_grid())
    assert [(c.parameters["x"], c.parameters["k1"], c.name) for c in repeated] == [
        (x, 1.0, name) for x in (0.6, 0.9) for _ in range(2) for name in ("gmc", "l1_coherence")
    ]
    for i, curve in enumerate(repeated):
        twin = single[(i // 4) * 2 + i % 2]
        assert hexes(curve.values) == hexes(twin.values)
        assert curve.timescales == twin.timescales


def test_repeated_cli_value_prints_its_rows_twice(capsys):
    base = ["measure", "--set", "t_count=3", "--set", "x=[0.6,0.9]"]
    assert main(base) == 0
    once = capsys.readouterr().out.splitlines()
    assert main(base + ["--set", "k1=[1,1]"]) == 0
    twice = capsys.readouterr().out.splitlines()
    assert twice[0] == once[0]
    rows = once[1:]
    assert twice[1:] == [row for i in (0, 3) for row in (rows[i : i + 3] * 2)]


def test_root_finders_evaluate_no_matrices(monkeypatch):
    counts = count_calls(monkeypatch, analysis, ("dephasing_factors", "evolve", "gammas"))
    lookups = []  # (whether a search ran, Gamma lookups) of each root finder call
    for name, searching in (
        ("preservation_time_numeric", lambda t_p: 0.0 < t_p < math.inf),
        ("characteristic_time", lambda t_c: t_c.reached),
    ):
        def counted(*args, finder=getattr(analysis, name), searching=searching, **kwargs):
            before = counts["gammas"]
            result = finder(*args, **kwargs)
            lookups.append((searching(result), counts["gammas"] - before))
            return result
        monkeypatch.setattr(analysis, name, counted)
    # at zero temperature k1 is unused: 2 distinct reservoir sets (one per eta),
    # and 2 x times 4 (eta, k1) tuples make 8 stacks
    grid = zero_t_grid(etas=[0.1, 0.2], k1s=[1.0, 4.0])
    curves = run_sweep(grid)
    assert len(curves) == 16
    assert all(curve.timescales.error is None for curve in curves)
    assert counts["dephasing_factors"] == 2 and counts["evolve"] == 8
    # every search step takes its three Gamma from the shared table, in a handful of steps
    searches = [n for ran, n in lookups if ran]
    assert len(lookups) == 2 * len(curves) and searches
    assert min(searches) >= 1
    assert statistics.median(searches) <= 10


def test_quadrature_tables_live_for_one_run_and_equal_reservoirs_share_one(monkeypatch, capsys):
    # J is evaluated once per node of each rule a reservoir builds, and each
    # rule serves every time of its binade, so two runs of one config
    # evaluate it equally often: no rule outlives its run
    counts = Counter()
    real_j = OhmicSpectralDensity.__call__
    real_rule = reservoir._quadrature_rule
    rules = {}

    def counting_j(spectral, omega):
        if np.ndim(omega):  # a rule's nodes; a scalar call sets its error budget
            counts["j"] += np.size(omega)
        return real_j(spectral, omega)

    def recording_rule(res, plan, binade):
        weights = real_rule(res, plan, binade)
        rules[id(weights)] = weights
        return weights

    monkeypatch.setattr(OhmicSpectralDensity, "__call__", counting_j)
    monkeypatch.setattr(reservoir, "_quadrature_rule", recording_rule)
    argv = ["timescales", "--set", "method=quadrature", "--set", "t_count=5",
            "--set", "beta_a=[0.5,1000]", "--set", "k1=[1,4]"]
    runs = []
    for _ in range(2):
        counts.clear()
        rules.clear()
        assert main(argv) == 0
        runs.append(dict(counts, rules=len(rules)))
        assert counts["j"] == sum(weights.shape[1] for weights in rules.values())
    assert runs[0] == runs[1]
    assert runs[0]["rules"] > 0
    capsys.readouterr()

    # k1 = 1 and 4 give equal A and C reservoirs: one object each
    grid = zero_t_grid(beta_as=[0.5], k1s=[1.0, 4.0], method=GammaMethod.NUMERIC_QUADRATURE)
    (_, first), (_, second) = grid.reservoir_sets
    assert first[0] == second[0] and first[2] == second[2] and first[1] != second[1]
    assert first[0] is second[0] and first[2] is second[2]
