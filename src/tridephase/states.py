"""Initial three-qubit states: GHZ, W, and their Werner mixtures.

Basis order is |mnl> -> 4m + 2n + l with qubit A most significant.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ParameterError
from .linalg import hermitian_eigenvalues, per_matrix

DIM = 8

NORM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def ghz_state() -> np.ndarray:
    """(|000> + |111>)/sqrt(2)."""
    psi = np.zeros(DIM, dtype=complex)
    psi[0] = psi[7] = 1.0 / np.sqrt(2.0)
    return psi


def w_state() -> np.ndarray:
    """(|001> + |010> + |100>)/sqrt(3)."""
    psi = np.zeros(DIM, dtype=complex)
    psi[1] = psi[2] = psi[4] = 1.0 / np.sqrt(3.0)
    return psi


def projector(psi) -> np.ndarray:
    """|psi><psi| for a normalized pure state."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    norm_sq = float(np.vdot(v, v).real)
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN included
        raise ParameterError(f"pure state is not normalized: |psi|^2 = {norm_sq!r}")
    return np.outer(v, v.conj())


def maximally_mixed(dim: int = DIM) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def check_mixing(x: float) -> None:
    """Reject a Werner mixing parameter x outside [0, 1], NaN included."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"mixing parameter must lie in [0, 1], got {x!r}")


def werner(psi, x: float) -> np.ndarray:
    """x |psi><psi| + (1 - x) I/8, with mixing parameter x in [0, 1]."""
    check_mixing(x)
    p = projector(psi)
    if p.shape != (DIM, DIM):
        raise ParameterError(f"expected an 8-amplitude pure state, got dimension {p.shape[0]}")
    return x * p + (1.0 - x) / DIM * np.eye(DIM, dtype=complex)


def assert_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; returns the array.

    Accepts one 8x8 matrix or a stack of shape (..., 8, 8).  Every matrix
    of a stack is checked, and the message reports the worst one.  A
    non-Hermitian matrix fails first, in hermitian_eigenvalues, with its
    HermiticityViolation (a ParameterError).  A `measures.DensityStack`
    was validated when it was built: its array is returned as it is, and
    nothing is solved.
    """
    from .measures import DensityStack  # measures imports this module

    if isinstance(rho, DensityStack):
        return rho.array
    a = np.asarray(rho, dtype=complex)
    if a.shape[-2:] != (DIM, DIM):
        raise ParameterError(f"expected an {DIM}x{DIM} density matrix, got shape {a.shape}")
    min_eig = per_matrix(hermitian_eigenvalues(a)[..., 0], a, np.min)
    tr = np.diagonal(a, axis1=-2, axis2=-1).sum(axis=-1)
    off = abs(tr - 1.0)
    if not per_matrix(off, a, np.max) <= TRACE_TOL:
        tr = complex(tr.flat[np.argmax(off)])  # the worst matrix's
        raise ParameterError(f"density matrix trace is {tr!r}, expected 1")
    if not min_eig >= -PSD_TOL:
        raise ParameterError(f"density matrix has negative eigenvalue {min_eig:.3e}")
    return a
