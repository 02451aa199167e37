"""Complex-matrix primitives for small multi-qubit systems."""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (row, column) indices of the n(n+1)/2 entries i <= j of an n x n matrix."""
    rows, cols = np.triu_indices(n)
    rows.setflags(write=False)  # shared by every call with this n
    cols.setflags(write=False)
    return rows, cols


def hermiticity_defect(m):
    """max |M[i,j] - conj(M[j,i])| over all entries.

    A float for one matrix; for a stack of shape (..., n, n), an array of
    shape (...) with one defect per matrix.

    Only the pairs i <= j are computed: entry (j, i) of M - M^dagger is minus
    the conjugate of entry (i, j), exactly, and its modulus has the same bits,
    so the maximum, NaN included, is that of every entry.
    """
    a = _as_square_stack(m)
    rows, cols = _pairs(a.shape[-1])
    upper, lower = a[..., rows, cols], a[..., cols, rows]  # fancy indexing: fresh copies
    difference = np.subtract(upper, np.conjugate(lower, out=lower), out=upper)
    return per_matrix(np.abs(difference).max(axis=-1), a)


def _check_hermitian(a: np.ndarray) -> None:
    defect = per_matrix(hermiticity_defect(a), a, np.max)
    if not defect <= HERMITICITY_TOL:  # NaN included
        raise HermiticityViolation(
            f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e} > {HERMITICITY_TOL:.1e}"
        )


@functools.lru_cache(maxsize=64)
def _blocks(pattern: bytes, n: int) -> tuple | None:
    """The blocks of a symmetric n x n boolean nonzero pattern (its bytes,
    row-major), or None when it is one block: the indices of every 1x1
    block, the two indices of each 2x2 block as two arrays, and the
    ascending indices of each larger block, as a column."""
    reach = np.frombuffer(pattern, bool).reshape(n, n) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):  # after k squarings: every path of <= 2^k links
        reach = reach @ reach
    blocks = sorted({tuple(np.flatnonzero(row)) for row in reach})
    if len(blocks) == 1:
        return None
    ones = np.array([b for b in blocks if len(b) == 1], dtype=np.intp).reshape(-1)
    pairs = np.array([b for b in blocks if len(b) == 2], dtype=np.intp).reshape(-1, 2)
    larger = tuple(np.array(b)[:, None] for b in blocks if len(b) > 2)
    plan = (ones, pairs[:, 0], pairs[:, 1], larger)
    for index in (*plan[:3], *larger):
        index.setflags(write=False)  # shared by every call with this pattern
    return plan


def _symmetrized(a: np.ndarray) -> np.ndarray:
    return (a + _dagger(a)) / 2.0


def _block_eigenvalues(a: np.ndarray, blocks) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized matrices of a (k, n, n)
    stack whose matrices all have the blocks `blocks` (see `_blocks`)."""
    if blocks is None:
        return np.linalg.eigvalsh(_symmetrized(a))
    ones, first, second, larger = blocks
    p, q = a[:, first, first].real, a[:, second, second].real
    b = 0.5 * a[:, second, first] + 0.5 * a[:, first, second].conj()
    mid = 0.5 * p + 0.5 * q
    half = np.hypot(0.5 * p - 0.5 * q, np.abs(b))
    parts = [a[:, ones, ones].real, mid - half, mid + half]
    parts += [np.linalg.eigvalsh(_symmetrized(a[:, i, i.T])) for i in larger]
    return np.sort(np.concatenate(parts, axis=-1), axis=-1)


def hermitian_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending and real.

    The input is symmetrized (S = (M + M^dagger)/2) before solving so that
    ~1e-16 asymmetries from upstream arithmetic cannot leak into the
    spectrum; a matrix whose hermiticity_defect (taken over the pairs
    i <= j) exceeds HERMITICITY_TOL is rejected.

    S is solved block by block.  The connected components of the nonzero
    pattern of M | M^T are independent blocks of S, and the spectrum is
    theirs, joined and sorted.  A 1x1 block is its real diagonal entry.  A
    2x2 block with diagonal p, q and off-diagonal b is mid +- hypot(p/2 -
    q/2, |b|) with mid = p/2 + q/2, which does not overflow.  A larger
    block goes to numpy.linalg.eigvalsh.  A matrix whose pattern is one
    block is solved whole, as numpy.linalg.eigvalsh(S), so a dense matrix
    keeps those exact bits.  Dephasing keeps the initial state's pattern,
    bar entries that underflow to 0: a dephased GHZ-Werner matrix and each
    of its partial transposes are one 2x2 and six 1x1 blocks, and a W-Werner
    matrix one 3x3 and five 1x1 blocks, or finer where an entry underflowed.

    A stack of shape (..., n, n) gives eigenvalues of shape (..., n), each
    row equal to the single-matrix result bit for bit: each matrix is
    solved by the rule of its own pattern.  A stack whose matrices all have
    the nonzero entries of its first, as a dephased stack has unless an
    entry underflows to 0 at some of its times only, is solved whole, in
    one pass.  Any other stack takes one pass per distinct pattern, each
    over the copied matrices of that pattern, so a stack of many different
    patterns is slower than one dense solve.  One matrix beyond the
    tolerance rejects the stack.
    """
    a = _as_square_stack(m)
    _check_hermitian(a)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    nonzero = flat != 0
    if (nonzero == nonzero[0]).all():  # then M | M^T has one pattern too
        pattern = nonzero[0] | nonzero[0].T
        return _block_eigenvalues(flat, _blocks(pattern.tobytes(), n)).reshape(a.shape[:-1])
    linked = (nonzero | nonzero.swapaxes(-1, -2)).reshape(len(flat), -1)
    out = np.empty(flat.shape[:-1])
    todo = np.arange(len(flat))
    while todo.size:
        pattern = linked[todo[0]]
        same = (linked[todo] == pattern).all(axis=-1)
        rows, todo = todo[same], todo[~same]
        out[rows] = _block_eigenvalues(flat[rows], _blocks(pattern.tobytes(), n))
    return out.reshape(a.shape[:-1])


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
