"""A fixed composite Gauss-Kronrod rule for integrals of f(w) sin^2(w t / 2).

Each panel carries the Kronrod 21-point rule and the Gauss 10-point rule
whose nodes it shares (QUADPACK's qk21; Piessens, de Doncker-Kapenga,
Ueberhuber & Kahaner, QUADPACK, Springer 1983), so the error estimate
costs no extra node.  A `NodeSet` holds the nodes of every panel, halved,
both rules' weights before any factor, and the sin^2 over the nodes at the
last time asked.  A rule for one f(w) is its (2, n) weight array, both
rules' weights times the t-independent factor f(w).  `sin_squared` and
`weigh` are the one rule, at one time or at each row of a block of times,
so a block gives each time's bits by construction.  `quad` runs them at
one time on the node set's last sin^2, which the weight arrays of several
f(w) on one node set share.
"""

from __future__ import annotations

import numpy as np

# the Kronrod nodes on [0, 1] (the rule is symmetric about 0): the odd
# entries are the 10-point Gauss nodes, the even ones the Kronrod extension
_KRONROD_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_KRONROD_WEIGHTS = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980373890, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GAUSS_WEIGHTS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _on_the_interval():
    """(nodes, Kronrod weights, Gauss weights) of the 21 nodes on [-1, 1]."""
    half = np.array(_KRONROD_NODES)
    gauss = np.zeros(11)
    gauss[1::2] = _GAUSS_WEIGHTS
    nodes = np.concatenate([-half, half[-2::-1]])
    kronrod = np.array(_KRONROD_WEIGHTS)
    return (
        nodes,
        np.concatenate([kronrod, kronrod[-2::-1]]),
        np.concatenate([gauss, gauss[-2::-1]]),
    )


NODES, KRONROD_WEIGHTS, GAUSS_WEIGHTS = _on_the_interval()


class NodeSet:
    """nodes: w at every node; half_nodes: w / 2; weights: a (2, n) array
    whose rows are the Kronrod and the Gauss weight of each node (0 where the
    Gauss rule has no node).  `sin_squared` keeps the sin^2 of the last time
    it was asked, as one (t, values) tuple swapped whole, so a reader in any
    thread sees a time with its own values."""

    def __init__(self, nodes: np.ndarray, weights: np.ndarray):
        self.nodes = nodes
        self.half_nodes = 0.5 * nodes
        self.weights = weights
        self._last = (None, None)

    def sin_squared(self, t: float) -> np.ndarray:
        """sin^2(w t / 2) at every node, read-only."""
        last_t, values = self._last
        if last_t != t:
            values = sin_squared(self.half_nodes, t)
            values.setflags(write=False)
            self._last = (t, values)
        return values


def composite(edges: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, (2, n) Kronrod and Gauss weights) of the 21-point rule on the
    panels that split each interval between consecutive edges into the
    fewest equal pieces no wider than width."""
    lengths = np.diff(edges)
    counts = np.ceil(lengths / width).astype(np.int64)
    piece = np.repeat(lengths / counts, counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    lows = np.repeat(edges[:-1], counts) + (np.arange(counts.sum()) - first) * piece
    half = 0.5 * piece[:, None]
    nodes = (lows[:, None] + half + half * NODES).ravel()
    return nodes, np.stack([(half * KRONROD_WEIGHTS).ravel(), (half * GAUSS_WEIGHTS).ravel()])


def sin_squared(half_nodes: np.ndarray, times) -> np.ndarray:
    """sin^2(w t / 2) at every node: an (n,) array at one time, a (k, n) block
    at a (k, 1) column of k times."""
    sines = np.sin(half_nodes * times)
    sines *= sines
    return sines


def weigh(weights: np.ndarray, sines: np.ndarray) -> np.ndarray:
    """The (Kronrod, Gauss) pair of (2, n) weights on an (n,) sin^2, or a (k, 2)
    pair per row of a (k, n) block, each row one (2, n) by (n,) product."""
    return (weights @ sines[..., None])[..., 0]


def quad(weights: np.ndarray, node_set: NodeSet, t: float) -> tuple[float, float, dict]:
    """(Kronrod value, |Kronrod - Gauss|, {"neval": nodes}) of the integral at
    t, by the (2, n) weights times f(w) on the node set's sin^2."""
    kronrod, gauss = weigh(weights, node_set.sin_squared(t)).tolist()
    return kronrod, abs(kronrod - gauss), {"neval": weights.shape[1]}
