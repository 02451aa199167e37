"""Exact elementwise dephasing map for three qubits in independent baths.

The channel is a product of three one-qubit dephasing channels (Palma,
Suominen & Ekert, Proc. R. Soc. A 452, 567 (1996)).  Qubit X multiplies
rho[u, v] by c_X = exp(-Gamma_X) exp(-2i Omega_X t) where it is 0 in u and
1 in v, by conj(c_X) the other way round, and by 1 where it does not flip:

    rho[u, v](t) = rho[u, v](0) * F[u, v](t),   F = F_A * F_B * F_C,

so the phase -(E_u - E_v) t composes from one-qubit phases at any t.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exceptions import ParameterError
from .reservoir import GammaMethod, ReservoirSpec, _fill_quadrature_tables, _time_array, gamma
from .states import DIM, assert_density_matrix


# _BITS[u] = (m, n, l) of basis index u = 4m + 2n + l; _ENTRIES[X, u, v] =
# 2 (X's bit in u) + (X's bit in v), the entry of X's channel [[1, c], [conj(c), 1]]
_BITS = (np.arange(DIM)[:, None] >> np.array([2, 1, 0])) & 1
_ENTRIES = 2 * _BITS.T[:, :, None] + _BITS.T[:, None, :]


def gammas(
    reservoirs: Sequence[ReservoirSpec], times: Sequence[float], method: GammaMethod
) -> list[float]:
    """Gamma of each reservoir at each time, time-major: [Gamma_A(t0), Gamma_B(t0), ...].

    Evaluated in that order, so the first failing time raises.  Each Gamma
    is read from, or after its `gamma` call stored in, its reservoir's own
    time -> Gamma table for `method`, which lives as long as the reservoir.
    A Gamma that raises is not stored.  Asked for several times under
    quadrature, `_fill_quadrature_tables` first stores the missing Gamma
    that converge, each reservoir's up to its first failure and others past
    it, through `integrate.sin_squared` and `integrate.weigh`, the one rule
    of `gamma` too, so with its bits by construction; `gamma` then evaluates
    what is still missing, and the first failure in time-major order
    raises, as it would alone.
    """
    if len(times) > 1 and method is GammaMethod.NUMERIC_QUADRATURE:  # a root-finder step asks for one
        _fill_quadrature_tables(reservoirs, times)
    values = []
    for t in times:
        for res in reservoirs:
            table = res._gamma_tables[method]
            value = table.get(t)
            if value is None:
                value = table[t] = gamma(res, t, method)
            values.append(value)
    return values


def check_phase(omegas: Sequence[float], t_max: float, shown: str = "t") -> None:
    """Reject a largest time t_max, shown as `shown`, whose largest phase
    2 (Omega_A + Omega_B + Omega_C) t_max overflows."""
    if not 2.0 * (omegas[0] + omegas[1] + omegas[2]) * t_max < math.inf:  # NaN included
        raise ParameterError(f"phase 2 (Omega_A + Omega_B + Omega_C) t overflows at {shown} = {t_max!r}")


def dephasing_factors(reservoirs: Sequence[ReservoirSpec], t, method: GammaMethod) -> np.ndarray:
    """The complex factor F of the channel on qubits A, B, C, each in its reservoir.

    Each reservoir carries its qubit's splitting Omega_X.  `t` is one time
    (an 8x8 F) or a nonempty 1-d time array (a (T, 8, 8) F, matrix i at t[i]);
    a negative or non-finite time is rejected, and so is a largest time whose
    largest phase overflows (`check_phase`).  Gamma comes from `gammas`.
    As Gamma >= 0, F has a unit diagonal, equals its conjugate transpose
    bit for bit and has |F| <= 1 up to round-off.
    """
    if len(reservoirs) != 3:
        raise ParameterError(f"expected three reservoirs, got {len(reservoirs)}")
    ts = _time_array(t)
    times = ts.reshape(-1).tolist()
    damps = np.array([math.exp(-g) for g in gammas(reservoirs, times, method)]).reshape(-1, 3)
    omegas = [res.omega_qubit for res in reservoirs]
    check_phase(omegas, max(times))
    c = damps * np.exp(-2j * np.array(omegas) * ts.reshape(-1, 1))
    one = np.ones_like(c)
    channels = np.stack([one, c, c.conj(), one], axis=-1)  # [t, X]: X's 2x2 channel, flattened
    # np.take keeps F C-contiguous; with t the fastest axis, as a mixed
    # slice/array index gives, stacked measures sum in another order than
    # the same matrices one by one
    f_a, f_b, f_c = (np.take(channels[:, x], _ENTRIES[x], axis=1) for x in range(3))
    factors = (f_a * f_b) * f_c
    return factors[0] if ts.ndim == 0 else factors


def evolve(rho0: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Apply the dephasing map; the diagonal is returned bit-for-bit unchanged.

    With (T, 8, 8) factors the result is the (T, 8, 8) stack of evolved
    matrices.  `rho0` is validated by `assert_density_matrix`, unless it
    is a `DensityStack` (such as a row of `SweepGrid.initial_states`),
    which was validated when it was built; the result is not validated.
    """
    return assert_density_matrix(rho0) * factors
