"""The three benchmark workloads and their seeded input generators.

Counts and ranges are fixed; the seed only picks values inside them.  The
program under test sees nothing but the resulting `--set` arguments.  Why
each workload was chosen is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

ALL_MEASURES = [
    "gmc", "tripartite_negativity", "negativity_a_bc",
    "negativity_b_ac", "negativity_c_ab", "l1_coherence",
]
_BASE = {
    "omega_c": 1.0, "omega_sq_a": 4.0, "omega_sq_b": 4.0, "omega_sq_c": 4.0,
    "t_start": 0.0, "t_stop": 3.0,
}

# Placements hit by every workload: the channel, validation and the sweep.
_COMMON_HITS = (
    "evolution.gamma", "analysis.dephasing_factors", "analysis.evolve",
    "evolution.assert_density_matrix", "measures.assert_density_matrix",
    "states.hermitian_eigenvalues", "analysis.run_sweep",
)
_TIMESCALE_HITS = (
    "analysis.preservation_time_numeric", "analysis.characteristic_time",
    "analysis.freezing_intervals",
)
_NEGATIVITY_HITS = (
    "analysis.negativity", "measures.hermitian_eigenvalues", "measures.partial_transpose",
)


def _draw(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """`count` values, one from each equal slice of [lo, hi], in ascending order."""
    width = (hi - lo) / count
    return [round(lo + width * (i + rng.random()), 6) for i in range(count)]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    curves_per_call: int
    generate: Callable[[random.Random], dict]
    expected_hits: tuple[str, ...]   # wrapped placements the traced run must see called

    def config(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        return dict(_BASE, **self.generate(rng))

    def argv(self, config: dict) -> list[str]:
        argv = [self.command]
        for key, value in config.items():
            if key == "beta_a":
                value = ["inf" if math.isinf(b) else b for b in value]
            argv += ["--set", f"{key}={json.dumps(value)}"]
        return argv


def _measure_zero_t(rng):
    return {
        "state": "ghz", "method": "zero_t", "beta_a": [math.inf],
        "x": _draw(rng, 8, 0.3, 1.0), "eta": _draw(rng, 3, 0.05, 0.4),
        "k1": [1.0], "k2": [1.0], "t_count": 241, "measures": ALL_MEASURES,
    }


def _timescales_quadrature(rng):
    return {
        "state": "ghz", "method": "quadrature",
        "beta_a": _draw(rng, 3, 0.05, 2.0) + _draw(rng, 1, 500.0, 2000.0),
        "x": _draw(rng, 1, 0.6, 0.95), "eta": _draw(rng, 1, 0.05, 0.4),
        "k1": [1.0, 4.0], "k2": [1.0, 16.0], "t_count": 61, "measures": ["gmc"],
    }


def _sweep_w_low_t(rng):
    return {
        "state": "w", "method": "low_t", "timescales": True,
        "beta_a": _draw(rng, 1, 100.0, 400.0),
        # eta >= 0.1 makes every negativity curve die before t_stop, so each
        # seed runs the same number of root-finder searches.
        "x": _draw(rng, 4, 0.5, 0.95), "eta": _draw(rng, 2, 0.1, 0.4),
        "k1": [1.0, 4.0], "k2": [1.0, 16.0], "t_count": 121,
        "measures": ["negativity_a_bc", "l1_coherence"],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "measure_zero_t", "measure", 144, _measure_zero_t,
            _COMMON_HITS + _NEGATIVITY_HITS + (
                "measures.negativity", "MEASURES.gmc", "MEASURES.tripartite_negativity",
                "MEASURES.l1_coherence", "cli.cmd_measure",
            ),
        ),
        Workload(
            "timescales_quadrature", "timescales", 16, _timescales_quadrature,
            _COMMON_HITS + _TIMESCALE_HITS + (
                "reservoir.integrate.quad", "MEASURES.gmc", "cli.cmd_timescales",
            ),
        ),
        Workload(
            "sweep_w_low_t", "sweep", 64, _sweep_w_low_t,
            _COMMON_HITS + _TIMESCALE_HITS + _NEGATIVITY_HITS + (
                "MEASURES.l1_coherence", "cli.cmd_sweep",
            ),
        ),
    )
}
