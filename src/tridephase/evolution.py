"""Exact elementwise dephasing map for three qubits in independent baths.

The interaction commutes with the free Hamiltonian, so populations never
move; every coherence picks up a damping factor and a deterministic phase:

    rho[u, v](t) = rho[u, v](0) * F[u, v](t) * exp(-i (E_u - E_v) t)

with F[u, v] = exp(-(1 - delta_mm') Gamma_A - (1 - delta_nn') Gamma_B
               - (1 - delta_ll') Gamma_C) for u = (m n l), v = (m' n' l').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import ParameterError
from .reservoir import GammaMethod, ReservoirSpec, gamma
from .states import assert_density_matrix

DIM = 8


@dataclass(frozen=True)
class QubitTriple:
    """Level splittings Omega_A, Omega_B, Omega_C (inverse time)."""

    omega_a: float
    omega_b: float
    omega_c: float

    def __post_init__(self):
        for name, value in (("omega_a", self.omega_a), ("omega_b", self.omega_b), ("omega_c", self.omega_c)):
            if not value > 0:
                raise ParameterError(f"{name} must be positive, got {value!r}")


# _BITS[u] = (m, n, l) of basis index u = 4m + 2n + l; _FLIPS[X, u, v]:
# qubit X differs between basis states u and v
_BITS = (np.arange(DIM)[:, None] >> np.array([2, 1, 0])) & 1
_FLIPS = np.moveaxis(_BITS[:, None, :] != _BITS[None, :, :], -1, 0)
_SIGNS = 1.0 - 2.0 * _BITS  # (-1)^bit


def _levels(omega_a: float, omega_b: float, omega_c: float) -> np.ndarray:
    """All eight E_mnl by basis index, each summed A, then B, then C."""
    return _SIGNS[:, 0] * omega_a + _SIGNS[:, 1] * omega_b + _SIGNS[:, 2] * omega_c


def energy(m: int, n: int, l: int, q: QubitTriple) -> float:
    """E_mnl = (-1)^m Omega_A + (-1)^n Omega_B + (-1)^l Omega_C."""
    for bit in (m, n, l):
        if bit not in (0, 1):
            raise ParameterError(f"basis labels must be bits, got ({m}, {n}, {l})")
    return float(energies(q)[4 * m + 2 * n + l])


def energies(q: QubitTriple) -> np.ndarray:
    """All eight E_mnl ordered by basis index 4m + 2n + l."""
    return _levels(q.omega_a, q.omega_b, q.omega_c)


@dataclass(frozen=True)
class DephasingFactors:
    """Elementwise damping magnitudes and phase angles.

    Shape (8, 8) at one fixed time, or (T, 8, 8) for a time array with one
    matrix per time.
    """

    damping: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        if self.damping.shape[-2:] != (DIM, DIM) or self.phase.shape != self.damping.shape:
            raise ParameterError("damping and phase must be 8x8")
        if not np.all(np.diagonal(self.damping, axis1=-2, axis2=-1) == 1.0):
            raise ParameterError("damping diagonal must be exactly 1")
        # exp(-Gamma) underflows to 0.0 for Gamma > ~745, so 0 is admissible
        if np.any(self.damping < 0) or np.any(self.damping > 1):
            raise ParameterError("damping entries must lie in [0, 1]")
        if not np.array_equal(self.damping, self.damping.swapaxes(-1, -2)):
            raise ParameterError("damping must be symmetric")
        if not np.array_equal(self.phase, -self.phase.swapaxes(-1, -2)):
            raise ParameterError("phase must be antisymmetric")


def dephasing_factors(
    reservoirs: Sequence[ReservoirSpec],
    t,
    method: GammaMethod,
    memo: dict | None = None,
) -> DephasingFactors:
    """Damping and phase matrices for qubits A, B, C in three independent reservoirs.

    Each reservoir carries its qubit's splitting Omega_X, which sets both
    Gamma_X and the energies E_mnl.  `t` is one time (8x8 factors) or a
    1-d time array ((T, 8, 8) factors, matrix i at t[i]); a negative or
    non-finite time is rejected.  Gamma is evaluated per reservoir and
    time, in time order, so the first failing time raises.  A `memo` dict,
    keyed by (reservoir, t, method), is read before and filled after each
    Gamma call, so callers that pass the same dict share Gamma values; a
    Gamma that raises is not stored.
    """
    if len(reservoirs) != 3:
        raise ParameterError(f"expected three reservoirs, got {len(reservoirs)}")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ParameterError(f"t must be a scalar or a 1-d time array, got shape {ts.shape}")
    if memo is None:
        memo = {}
    keys = [(res, tv, method) for tv in ts.reshape(-1).tolist() for res in reservoirs]
    for key in keys:
        if key not in memo:
            memo[key] = gamma(*key)
    damps = np.array([math.exp(-memo[key]) for key in keys]).reshape(-1, 3)
    # per-qubit factor exp(-Gamma_X) where qubit X flips, 1 elsewhere; the
    # product order matches np.kron(np.kron(A, B), C)
    a, b, c = (np.where(_FLIPS[x], damps[:, x, None, None], 1.0) for x in range(3))
    damping = (a * b) * c
    e = _levels(*(res.omega_qubit for res in reservoirs))
    phase = -(e[:, None] - e[None, :]) * ts.reshape(-1, 1, 1)
    if ts.ndim == 0:
        damping, phase = damping[0], phase[0]
    return DephasingFactors(damping=damping, phase=phase)


def evolve(rho0: np.ndarray, factors: DephasingFactors) -> np.ndarray:
    """Apply the dephasing map; the diagonal is returned bit-for-bit unchanged.

    With (T, 8, 8) factors the result is the (T, 8, 8) stack of evolved
    matrices.
    """
    rho = assert_density_matrix(rho0)
    return rho * factors.damping * np.exp(1j * factors.phase)
