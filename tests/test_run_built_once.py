"""A SweepGrid builds each Werner state and reservoir set of its run once, and
run_sweep computes one channel per distinct reservoir set."""

import math
from collections import Counter

import numpy as np

from tridephase import analysis, cli
from tridephase.analysis import MEASURES, SweepGrid, run_sweep
from tridephase.cli import main
from tridephase.reservoir import GammaMethod

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

    def counting(reservoirs, t, method, memo=None):
        calls["array" if np.ndim(t) == 1 else "scalar"] += 1
        return factors(reservoirs, t, method, memo=memo)

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
    # at zero temperature k1 is unused: 2 distinct reservoir sets (one per eta),
    # and 2 x times 4 (eta, k1) tuples make 8 stacks
    grid = zero_t_grid(etas=[0.1, 0.2], k1s=[1.0, 4.0])
    curves = run_sweep(grid)
    assert len(curves) == 16
    assert all(curve.timescales.error is None for curve in curves)
    assert counts["dephasing_factors"] == 2 and counts["evolve"] == 8
    # every root-finder step takes its three Gamma from the shared table
    assert counts["gammas"] > 20 * len(curves)
