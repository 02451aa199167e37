"""Dense complex-matrix primitives for small multi-qubit systems."""

from __future__ import annotations

import math

import numpy as np

from .exceptions import HermiticityViolation, ParameterError, ShapeError

HERMITICITY_TOL = 1e-10


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_square_stack(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ShapeError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def per_matrix(values, a: np.ndarray, worst=None):
    """`values`, one per matrix of `a`: a float for one matrix; for a stack the
    (...) array, or with `worst` (np.max, np.min) the float of its worst entry."""
    if a.ndim == 2:
        return float(values)
    return values if worst is None else float(worst(values))


def hermiticity_defect(m):
    """max |M[i,j] - conj(M[j,i])| over all entries.

    A float for one matrix; for a stack of shape (..., n, n), an array of
    shape (...) with one defect per matrix.
    """
    a = _as_square_stack(m)
    return per_matrix(np.abs(a - _dagger(a)).max(axis=(-2, -1)), a)


def _check_hermitian(a: np.ndarray) -> None:
    defect = per_matrix(hermiticity_defect(a), a, np.max)
    if not defect <= HERMITICITY_TOL:  # NaN included
        raise HermiticityViolation(
            f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e} > {HERMITICITY_TOL:.1e}"
        )


def hermitian_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending and real.

    The input is symmetrized ((M + M^dagger)/2) before solving so that
    ~1e-16 asymmetries from upstream arithmetic cannot leak into the
    spectrum; anything beyond HERMITICITY_TOL from Hermitian is rejected.
    A stack of shape (..., n, n) gives eigenvalues of shape (..., n), each
    row equal to the single-matrix result; one matrix beyond the tolerance
    rejects the stack.
    """
    a = _as_square_stack(m)
    _check_hermitian(a)
    return np.linalg.eigvalsh((a + _dagger(a)) / 2.0)


def _subsystem_dims(dims, n: int) -> list[int]:
    dims = [int(d) for d in dims]
    if math.prod(dims) != n:
        raise ShapeError(f"subsystem dimensions {dims} do not factor a {n}-dimensional matrix")
    return dims


def partial_transpose(rho, dims, subsystem: int) -> np.ndarray:
    """Transpose the indices of one subsystem of a composite-system matrix.

    `dims` lists the subsystem dimensions in tensor order (most significant
    first); their product must equal the matrix dimension.  A stack of
    shape (..., n, n) is transposed matrix by matrix.
    """
    a = _as_square_stack(rho)
    dims = _subsystem_dims(dims, a.shape[-1])
    if not 0 <= subsystem < len(dims):
        raise ShapeError(f"subsystem index {subsystem} out of range for {len(dims)} subsystems")
    lead = a.shape[:-2]
    n = len(dims)
    t = a.reshape(lead + tuple(dims + dims))
    t = t.swapaxes(len(lead) + subsystem, len(lead) + n + subsystem)
    return np.ascontiguousarray(t.reshape(a.shape))


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in `keep`.

    The reduced matrix keeps the surviving subsystems in their original
    tensor order.
    """
    a = _as_square(rho)
    dims = _subsystem_dims(dims, a.shape[0])
    keep_set = set(int(k) for k in keep)
    if not keep_set:
        raise ShapeError("must keep at least one subsystem")
    if not keep_set <= set(range(len(dims))):
        raise ShapeError(f"keep indices {sorted(keep_set)} out of range for {len(dims)} subsystems")

    t = a.reshape(dims + dims)
    n_left = len(dims)
    # Trace from the highest index down so the positions of the remaining
    # lower-index subsystems stay put.
    for idx in range(len(dims) - 1, -1, -1):
        if idx in keep_set:
            continue
        t = np.trace(t, axis1=idx, axis2=n_left + idx)
        n_left -= 1
    d_red = math.prod(dims[i] for i in sorted(keep_set))
    return np.ascontiguousarray(t.reshape(d_red, d_red))


def purity(rho) -> float:
    """trace(rho^2) for a Hermitian, unit-trace matrix (both to HERMITICITY_TOL)."""
    a = _as_square(rho)
    _check_hermitian(a)
    tr = complex(np.trace(a))
    if not abs(tr - 1.0) <= HERMITICITY_TOL:
        raise ParameterError(f"expected unit trace, got {tr!r}")
    return float(np.real(np.trace(a @ a)))
