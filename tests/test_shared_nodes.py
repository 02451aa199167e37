"""Reservoirs on one quadrature domain share its node sets and their sin^2,
and every Gamma keeps the bits of a reservoir evaluated alone."""

import gc
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tridephase import integrate, reservoir
from tridephase.analysis import SweepGrid, _error_text, run_sweep
from tridephase.cli import main
from tridephase.evolution import dephasing_factors, gammas
from tridephase.exceptions import QuadratureError
from tridephase.reservoir import (
    ZERO_TEMPERATURE,
    CustomSpectralDensity,
    GammaMethod,
    OhmicSpectralDensity,
    ReservoirSpec,
    gamma,
)

QUADRATURE = GammaMethod.NUMERIC_QUADRATURE


def specs():
    """Three reservoirs on the domain of omega_c = 1, one on another omega_c,
    and a custom density whose cutoff gives a third domain."""
    unit = OhmicSpectralDensity(0.3, 1.0)
    return [
        ReservoirSpec(unit, 0.5, 2.0),
        ReservoirSpec(OhmicSpectralDensity(0.1, 1.0), 1000.0, 1.5),
        ReservoirSpec(unit, ZERO_TEMPERATURE, 2.0),
        ReservoirSpec(OhmicSpectralDensity(0.2, 2.5), 0.7, 1.0),
        ReservoirSpec(CustomSpectralDensity(unit, 30.0), 2.0, 2.0),
    ]


def alone(res: ReservoirSpec, t: float) -> str:
    """Gamma's hex, or its error text, from a fresh copy of res with a store of its own."""
    with mock.patch.object(reservoir, "_DOMAINS", weakref.WeakValueDictionary()):
        fresh = ReservoirSpec(res.spectral, res.beta, res.omega_qubit)
        return outcome(fresh, t)


def outcome(res: ReservoirSpec, t: float) -> str:
    try:
        return gamma(res, t, QUADRATURE).hex()
    except Exception as exc:
        return _error_text(exc)


TIMES = st.one_of(st.sampled_from([0.0, 0.3, 1.7, 2.0, 9.0]), st.floats(1e-3, 60.0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), TIMES), min_size=1, max_size=14))
def test_any_interleaving_gives_each_reservoirs_own_bits(order):
    shared = specs()
    want = [alone(shared[i], t) for i, t in order]
    assert [outcome(shared[i], t) for i, t in order] == want
    # the Ohmic reservoirs of omega_c = 1 hold one domain; the others their own
    domains = [res._quadrature_plan.domain for res in shared]
    assert domains[0] is domains[1] is domains[2]
    assert len({id(domain) for domain in domains}) == 3


def test_threads_give_each_reservoirs_own_bits():
    rng = random.Random(39)
    shared = specs()
    order = [(rng.randrange(5), rng.choice([0.3, 1.7, 2.0, 9.0, rng.uniform(0.01, 40.0)]))
             for _ in range(400)]
    want = [alone(shared[i], t) for i, t in order]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the rule builds and the memo
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            evaluations = pool.map(lambda item: outcome(shared[item[0]], item[1]), order, timeout=120)
            got = list(evaluations)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=4),
    st.lists(st.one_of(TIMES, st.sampled_from([2600.0, 4000.0, 6000.0])), min_size=2, max_size=12),
)
# the first failure, time-major, is the second reservoir's at 2600, while
# the first reservoir's own first failure is at 4000 on another domain
@example(indices=[0, 3], times=[2600.0, 4000.0])
@example(indices=[4, 2, 4], times=[0.0, 9.0, 0.3, 9.0, 2600.0])
def test_a_multi_time_call_stores_each_reservoirs_own_bits_and_raises_the_first_failure(
    indices, times
):
    # past its reach a rule raises QuadratureError: the Gamma that fails is not
    # stored, and the first (time, reservoir) that fails, time-major, raises
    times = times + times[:2]  # repeated times
    shared = specs()
    chosen = [shared[i] for i in indices]
    with mock.patch.object(reservoir, "_DOMAINS", weakref.WeakValueDictionary()):
        fresh = [ReservoirSpec(r.spectral, r.beta, r.omega_qubit) for r in shared]
        want = {(i, t): outcome(fresh[i], t) for i in set(indices) for t in times}
    first_failure = next(
        (want[i, t] for t in times for i in indices if not want[i, t].startswith(("0x", "-0x"))),
        None,
    )
    try:
        got = [g.hex() for g in gammas(chosen, times, QUADRATURE)]
    except Exception as exc:
        assert _error_text(exc) == first_failure
    else:
        assert first_failure is None
        assert got == [want[i, t] for t in times for i in indices]
    for i in set(indices):
        for t, value in shared[i]._gamma_tables[QUADRATURE].items():
            assert value.hex() == want[i, t]


def test_a_multi_time_call_stops_each_reservoir_at_its_first_failure():
    # the cold reservoir fails at 2600, so its 60 is left for gamma, which the
    # call never reaches; the hot one converges at every time and stores them all
    hot, _, cold = specs()[:3]
    with pytest.raises(QuadratureError):
        gammas([hot, cold], [9.0, 2600.0, 60.0], QUADRATURE)
    assert set(hot._gamma_tables[QUADRATURE]) == {9.0, 2600.0, 60.0}
    assert set(cold._gamma_tables[QUADRATURE]) == {9.0}


def w2_grid(**changes) -> SweepGrid:
    """The shape of the timescales_quadrature workload: 3 hot and 1 cold beta_a,
    k1 in {1, 4}, k2 in {1, 16}, one x, 61 times."""
    fields = dict(
        xs=[0.8], etas=[0.326], beta_as=[0.07, 0.9, 1.6, 1200.0], k1s=[1.0, 4.0],
        k2s=[1.0, 16.0], t_start=0.0, t_stop=3.0, t_count=61, omega_sqs=(4.0, 4.0, 4.0),
        method=QUADRATURE, include_timescales=True,
    )
    return SweepGrid(**{**fields, **changes})


def test_every_gamma_of_a_w2_shaped_run_equals_a_lone_reservoirs():
    grid = w2_grid()
    curves = run_sweep(grid)
    assert all(curve.timescales.error is None for curve in curves)
    distinct = {id(res): res for _, reservoirs in grid.reservoir_sets for res in reservoirs}
    assert len(distinct) == 12
    entries = 0
    for res in distinct.values():
        table = res._gamma_tables[QUADRATURE]
        assert len(table) > grid.t_count  # the grid, then the root searches
        for t, value in table.items():
            assert value.hex() == alone(res, t)
        entries += len(table)
    assert entries > 12 * grid.t_count


def test_one_composite_per_domain_and_binade_in_each_run(monkeypatch, capsys):
    real_composite = integrate.composite
    built = []

    def counting(edges, width):
        built.append((float(edges[0]), float(edges[-1]), width))
        return real_composite(edges, width)

    monkeypatch.setattr(integrate, "composite", counting)
    # a store of its own: a live reservoir elsewhere in the process may hold this domain
    monkeypatch.setattr(reservoir, "_DOMAINS", weakref.WeakValueDictionary())
    argv = ["timescales", "--set", "method=quadrature", "--set", "beta_a=[0.5,1000]",
            "--set", "k1=[1,4]", "--set", "k2=[1,16]", "--set", "t_count=9"]
    runs = []
    for _ in range(2):
        built.clear()
        assert main(argv) == 0
        runs.append(list(built))
    capsys.readouterr()
    # 6 distinct reservoirs on one domain, over several binades: one build per binade
    assert len(runs[0]) == len(set(runs[0])) == len({width for *_, width in runs[0]}) > 1
    assert runs[0] == runs[1]


def test_the_store_lets_go_of_a_domain_with_its_last_reservoir():
    grid = w2_grid(omega_c=1.37, t_count=7, include_timescales=False)
    run_sweep(grid)
    domain = reservoir._quadrature_domain(OhmicSpectralDensity(0.326, 1.37))
    key = (domain.omega_eps, domain.cutoff)
    assert reservoir._DOMAINS[key] is domain
    node_sets = list(domain.node_sets.values())
    assert node_sets and all(
        res._quadrature_plan.domain is domain
        for _, reservoirs in grid.reservoir_sets for res in reservoirs
    )
    gone = [weakref.ref(domain)] + [weakref.ref(node_set) for node_set in node_sets]
    del grid, domain, node_sets
    gc.collect()
    assert key not in reservoir._DOMAINS
    assert [ref() for ref in gone] == [None] * len(gone)


def test_sets_that_fail_past_the_rules_reach_raise_their_own_first_error():
    # past omega_c t of about 3,000 (cold) and 3,800 (hot) the rule raises
    # QuadratureError; eta = 0 never does
    grid = w2_grid(
        etas=[0.0, 0.3], beta_as=[0.5, 1000.0], t_start=0.0, t_stop=5000.0, t_count=11,
        include_timescales=False,
    )
    times = grid.channel_times()
    curves = run_sweep(grid)
    failures = []
    for (_, reservoirs), curve in zip(grid.reservoir_sets, curves):
        with mock.patch.object(reservoir, "_DOMAINS", weakref.WeakValueDictionary()):
            fresh = tuple(ReservoirSpec(r.spectral, r.beta, r.omega_qubit) for r in reservoirs)
            try:
                dephasing_factors(fresh, times, QUADRATURE)
                want = None
            except Exception as exc:
                want = _error_text(exc)
                failures.append(want)
        assert set(curve.errors) == {want}
    # the 8 sets of eta = 0.3 fail
    assert len(failures) == 8
    assert all(error.startswith("QuadratureError: decoherence integral") for error in failures)
