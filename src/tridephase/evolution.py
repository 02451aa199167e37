"""Exact elementwise dephasing map for three qubits in independent baths.

The interaction commutes with the free Hamiltonian, so populations never
move; every coherence picks up a damping factor and a deterministic phase:

    rho[u, v](t) = rho[u, v](0) * F[u, v](t) * exp(-i (E_u - E_v) t)

with F[u, v] = exp(-(1 - delta_mm') Gamma_A - (1 - delta_nn') Gamma_B
               - (1 - delta_ll') Gamma_C) for u = (m n l), v = (m' n' l').
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .exceptions import ParameterError
from .reservoir import GammaMethod, ReservoirSpec, _time_array, gamma
from .states import DIM, assert_density_matrix


# _BITS[u] = (m, n, l) of basis index u = 4m + 2n + l; _FLIPS[X, u, v]:
# qubit X differs between basis states u and v
_BITS = (np.arange(DIM)[:, None] >> np.array([2, 1, 0])) & 1
_FLIPS = np.moveaxis(_BITS[:, None, :] != _BITS[None, :, :], -1, 0)
_SIGNS = 1.0 - 2.0 * _BITS  # (-1)^bit


def energy(m: int, n: int, l: int, omegas: Sequence[float]) -> float:
    """E_mnl = (-1)^m Omega_A + (-1)^n Omega_B + (-1)^l Omega_C."""
    for bit in (m, n, l):
        if bit not in (0, 1):
            raise ParameterError(f"basis labels must be bits, got ({m}, {n}, {l})")
    return float(energies(omegas)[4 * m + 2 * n + l])


def energies(omegas: Sequence[float]) -> np.ndarray:
    """All eight E_mnl of the splittings (Omega_A, Omega_B, Omega_C), ordered
    by basis index 4m + 2n + l and each summed A, then B, then C."""
    if len(omegas) != 3 or not all(omega > 0 for omega in omegas):  # NaN included
        raise ParameterError(f"need three positive splittings, got {omegas!r}")
    omega_a, omega_b, omega_c = omegas
    return _SIGNS[:, 0] * omega_a + _SIGNS[:, 1] * omega_b + _SIGNS[:, 2] * omega_c


class DephasingFactors(NamedTuple):
    """Elementwise damping magnitudes and phase angles.

    Shape (8, 8) at one fixed time, or (T, 8, 8) for a time array with one
    matrix per time.  Built only by `dephasing_factors`, where every Gamma
    is >= 0 (checked by `gamma`), so by construction each damping matrix
    has a unit diagonal, is symmetric with entries in [0, 1] (exp(-Gamma)
    underflows to 0.0 for Gamma > ~745), and each phase is antisymmetric.
    """

    damping: np.ndarray
    phase: np.ndarray


def gammas(
    reservoirs: Sequence[ReservoirSpec],
    times: Sequence[float],
    method: GammaMethod,
    memo: dict | None = None,
) -> list[float]:
    """Gamma of each reservoir at each time, time-major: [Gamma_A(t0), Gamma_B(t0), ...].

    Evaluated in that order, so the first failing time raises.  A `memo`
    dict, keyed by (reservoir, t, method), is read before and filled after
    each Gamma call, so callers that pass the same dict share Gamma values;
    a Gamma that raises is not stored.
    """
    if memo is None:
        memo = {}
    keys = [(res, t, method) for t in times for res in reservoirs]
    for key in keys:
        if key not in memo:
            memo[key] = gamma(*key)
    return [memo[key] for key in keys]


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
    non-finite time is rejected, and so is a largest time t whose largest
    phase, 2 (Omega_A + Omega_B + Omega_C) t, overflows.  Gamma comes from
    `gammas`, which shares values through `memo`.
    """
    if len(reservoirs) != 3:
        raise ParameterError(f"expected three reservoirs, got {len(reservoirs)}")
    ts = _time_array(t)
    times = ts.reshape(-1).tolist()
    damps = np.array([math.exp(-g) for g in gammas(reservoirs, times, method, memo)]).reshape(-1, 3)
    # per-qubit factor exp(-Gamma_X) where qubit X flips, 1 elsewhere; the
    # product order matches np.kron(np.kron(A, B), C)
    a, b, c = (np.where(_FLIPS[x], damps[:, x, None, None], 1.0) for x in range(3))
    damping = (a * b) * c
    omegas = tuple(res.omega_qubit for res in reservoirs)
    t_max = max(times, default=0.0)
    if not 2.0 * (omegas[0] + omegas[1] + omegas[2]) * t_max < math.inf:  # NaN included
        raise ParameterError(f"phase 2 (Omega_A + Omega_B + Omega_C) t overflows at t = {t_max!r}")
    e = energies(omegas)
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
