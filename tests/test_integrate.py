import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tridephase import integrate


@pytest.mark.parametrize("weights, degree", [
    (integrate.KRONROD_WEIGHTS, 31),
    (integrate.GAUSS_WEIGHTS, 19),
], ids=["kronrod_21", "gauss_10"])
def test_rule_is_exact_on_polynomials_up_to_its_degree(weights, degree):
    # the n-point Gauss rule is exact to degree 2n - 1, its Kronrod extension
    # to 3n + 1, and no higher; x^k integrates to 2 / (k + 1) over [-1, 1]
    # for even k, to 0 for odd k
    def moment_error(k):
        return abs(weights @ integrate.NODES**k - (2.0 / (k + 1) if k % 2 == 0 else 0.0))

    assert max(moment_error(k) for k in range(degree + 1)) <= 2e-16
    assert moment_error(degree + 1) > 1e-12


def test_composite_splits_each_interval_into_equal_pieces_no_wider_than_width():
    # [0, 1], [1, 1.5] and [1.5, 4] split into 2, 1 and 5 pieces of width 0.5
    nodes, weights = integrate.composite(np.array([0.0, 1.0, 1.5, 4.0]), 0.6)
    assert nodes.shape == (8 * 21,) and weights.shape == (2, 8 * 21)
    centres = nodes.reshape(8, 21)[:, 10]
    assert centres.tolist() == pytest.approx([0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.25, 3.75])
    assert weights.sum(axis=1).tolist() == pytest.approx([4.0, 4.0], rel=1e-15)


def test_quad_returns_the_kronrod_value_the_two_rules_difference_and_the_node_count():
    # f(w) = 1 on [0, 2]: int sin^2(w t / 2) dw = 1 - sin(2 t) / (2 t)
    nodes, weights = integrate.composite(np.array([0.0, 2.0]), 1.0)
    value, estimate, info = integrate.quad(weights, integrate.NodeSet(nodes, weights), 1.5)
    assert value == pytest.approx(1.0 - np.sin(3.0) / 3.0, rel=1e-15)
    assert 0.0 <= estimate <= 1e-12
    assert info == {"neval": 42}


def test_rules_on_one_node_set_share_its_last_sin_squared_and_keep_their_own_bits(monkeypatch):
    # two factors f(w) on one node set: one sin^2 per change of time, and
    # each value and estimate bit for bit those of the rule written out here
    nodes, weights = integrate.composite(np.array([0.0, 1.0, 3.0]), 0.4)
    node_set = integrate.NodeSet(nodes, weights)
    factors = [np.exp(-nodes), 1.0 + nodes**2]
    shared = [weights * f for f in factors]
    times = (1.5, 1.5, 0.7, 1.5)

    def reference(f, t):
        kronrod, gauss = ((weights * f) @ np.sin(0.5 * nodes * t) ** 2).tolist()
        return kronrod, abs(kronrod - gauss), {"neval": nodes.size}

    want = [[reference(f, t) for f in factors] for t in times]
    real_sin_squared = integrate.sin_squared
    calls = []

    def counting(half_nodes, t):
        calls.append(t)
        return real_sin_squared(half_nodes, t)

    monkeypatch.setattr(integrate, "sin_squared", counting)
    got = [[integrate.quad(rule, node_set, t) for rule in shared] for t in times]
    assert calls == [1.5, 0.7, 1.5]
    assert [[(v.hex(), e.hex(), info) for v, e, info in row] for row in got] == [
        [(v.hex(), e.hex(), info) for v, e, info in row] for row in want
    ]
    assert not node_set.sin_squared(1.5).flags.writeable


@st.composite
def blocks(draw):
    """A composite rule's node set, 1-3 factors f(w) and a block of 1-40
    times, drawn from a few so that some repeat, with a time of 0."""
    lengths = draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=4))
    start = draw(st.floats(0.0, 1.0))
    edges = np.cumsum([start, *lengths])
    nodes, weights = integrate.composite(edges, draw(st.floats(0.1, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = [10.0 ** rng.uniform(-3.0, 3.0, nodes.size) for _ in range(draw(st.integers(1, 3)))]
    pool = draw(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=20))
    times = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=39))
    times.insert(draw(st.integers(0, len(times))), 0.0)
    return integrate.NodeSet(nodes, weights), factors, times


@settings(max_examples=100, deadline=None)
@given(blocks())
def test_a_block_gives_each_times_bits(drawn):
    # each row of a block is the (2, n) by (n,) product of its time alone;
    # a plain matrix product of the weights and the block sums in another order
    node_set, factors, times = drawn
    column = np.array(times)[:, None]
    sines = integrate.sin_squared(node_set.half_nodes, column)
    for f in factors:
        rule = node_set.weights * f
        rows = integrate.weigh(rule, sines).tolist()
        assert len(rows) == len(times)
        for t, (kronrod, gauss) in zip(times, rows):
            value, estimate, _ = integrate.quad(rule, node_set, t)
            assert (kronrod.hex(), abs(kronrod - gauss).hex()) == (value.hex(), estimate.hex())
