"""Complex-matrix primitives for small multi-qubit systems."""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .exceptions import HermiticityViolation, ParameterError, ShapeError

HERMITICITY_TOL = 1e-10


def _as_square(m, stack: bool = False) -> np.ndarray:
    """`m` as a complex square matrix, or with `stack` a (..., n, n) stack; not empty."""
    a = np.asarray(m, dtype=complex)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-2] != a.shape[-1]:
        what = "a square matrix or a stack of them" if stack else "a square matrix"
        raise ShapeError(f"expected {what}, got shape {a.shape}")
    if a.size == 0:
        raise ShapeError(f"expected a nonempty matrix or stack, got shape {a.shape}")
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
    a = _as_square(m, stack=True)
    rows, cols = _pairs(a.shape[-1])
    upper, lower = a[..., rows, cols], a[..., cols, rows]  # fancy indexing: fresh copies
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN defect, which the check rejects
        difference = np.subtract(upper, np.conjugate(lower, out=lower), out=upper)
    return per_matrix(np.abs(difference).max(axis=-1), a)


def _check_hermitian(a: np.ndarray) -> None:
    defect = per_matrix(hermiticity_defect(a), a, np.max)
    if not defect <= HERMITICITY_TOL:  # NaN included
        raise HermiticityViolation(
            f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e} > {HERMITICITY_TOL:.1e}"
        )


@functools.lru_cache(maxsize=64)
def _blocks(pattern: bytes, n: int) -> tuple:
    """The blocks of a symmetric n x n boolean nonzero pattern (its bytes,
    row-major): the indices of every 1x1 block, the two indices of each 2x2
    block as two arrays, and the ascending indices of each larger block, as
    a column.  A pattern that is one block is one larger block, whatever n."""
    reach = np.frombuffer(pattern, bool).reshape(n, n) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):  # after k squarings: every path of <= 2^k links
        reach = reach @ reach
    blocks = sorted({tuple(np.flatnonzero(row)) for row in reach})
    small = blocks if len(blocks) > 1 else []
    ones = np.array([b for b in small if len(b) == 1], dtype=np.intp).reshape(-1)
    pairs = np.array([b for b in small if len(b) == 2], dtype=np.intp).reshape(-1, 2)
    larger = tuple(np.array(b)[:, None] for b in blocks if len(b) > 2 or not small)
    plan = (ones, pairs[:, 0], pairs[:, 1], larger)
    for index in (*plan[:3], *larger):
        index.setflags(write=False)  # shared by every call with this pattern
    return plan


def _symmetrized(a: np.ndarray) -> np.ndarray:
    return (a + _dagger(a)) / 2.0


def _block_eigenvalues(a: np.ndarray, blocks) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized matrices of a (k, n, n)
    stack whose matrices all have the blocks `blocks` (see `_blocks`)."""
    ones, first, second, larger = blocks
    p, q = a[:, first, first].real, a[:, second, second].real
    b = 0.5 * a[:, second, first] + 0.5 * a[:, first, second].conj()
    mid = 0.5 * p + 0.5 * q
    half = np.hypot(0.5 * p - 0.5 * q, np.abs(b))
    parts = [a[:, ones, ones].real, mid - half, mid + half]
    parts += [np.linalg.eigvalsh(_symmetrized(a[:, i, i.T])) for i in larger]
    # stable: a one-block spectrum keeps eigvalsh's bits, -0.0 and 0.0 included
    return np.sort(np.concatenate(parts, axis=-1), axis=-1, kind="stable")


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
    block is one larger block, so a dense matrix keeps the exact bits of
    numpy.linalg.eigvalsh(S).  Dephasing keeps the initial state's pattern,
    bar entries that underflow to 0: a dephased GHZ-Werner matrix and each
    of its partial transposes are one 2x2 and six 1x1 blocks, and a W-Werner
    matrix one 3x3 and five 1x1 blocks, or finer where an entry underflowed.

    A stack of shape (..., n, n) gives eigenvalues of shape (..., n), each
    row equal to the single-matrix result bit for bit: each matrix is
    solved by the rule of its own pattern.  The stack is cut into runs of
    consecutive matrices with the same nonzero entries, and each run is
    solved in one pass over its slice, with no copy.  A dephased stack is
    one run, plus one per time at which another entry underflows to 0; a
    stack whose neighbours all differ in pattern pays one pass per matrix,
    several times a dense solve.  One matrix beyond the tolerance rejects
    the stack.
    """
    a = _as_square(m, stack=True)
    _check_hermitian(a)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    nonzero = flat != 0
    changed = nonzero[1:] != nonzero[:-1]
    # the guard spares a one-run stack the per-matrix reduction
    starts = (np.flatnonzero(changed.any(axis=(1, 2))) + 1).tolist() if changed.any() else []
    bounds = [0, *starts, len(flat)]
    spectra = [
        _block_eigenvalues(flat[i:j], _blocks((nonzero[i] | nonzero[i].T).tobytes(), n))
        for i, j in zip(bounds, bounds[1:])
    ]
    out = spectra[0] if len(spectra) == 1 else np.concatenate(spectra)
    return out.reshape(a.shape[:-1])


def _subsystem_dims(dims, n: int) -> list[int]:
    """dims, positive integers (`operator.index`) whose product is n, as a list of ints."""
    try:
        sizes = [operator.index(d) for d in dims]
    except TypeError:
        sizes = []
    if not (sizes and min(sizes) > 0):
        raise ShapeError(f"subsystem dimensions must be positive integers, got {dims!r}")
    if math.prod(sizes) != n:
        raise ShapeError(f"subsystem dimensions {sizes} do not factor a {n}-dimensional matrix")
    return sizes


def subsystem_index(k, count: int) -> int:
    """k, an integer (`operator.index`), as the index of one of `count` subsystems."""
    try:
        index = operator.index(k)
    except TypeError:
        raise ShapeError(f"subsystem index must be an integer, got {k!r}") from None
    if not 0 <= index < count:
        raise ShapeError(f"subsystem index {index} out of range for {count} subsystems")
    return index


def partial_transpose(rho, dims, subsystem: int) -> np.ndarray:
    """Transpose the indices of one subsystem of a composite-system matrix.

    `dims` lists the subsystem dimensions in tensor order (most significant
    first); their product must equal the matrix dimension.  A stack of
    shape (..., n, n) is transposed matrix by matrix.
    """
    a = _as_square(rho, stack=True)
    dims = _subsystem_dims(dims, a.shape[-1])
    subsystem = subsystem_index(subsystem, len(dims))
    lead = a.shape[:-2]
    n = len(dims)
    t = a.reshape(lead + tuple(dims + dims))
    t = t.swapaxes(len(lead) + subsystem, len(lead) + n + subsystem)
    return np.ascontiguousarray(t.reshape(a.shape))


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in `keep`.

    The reduced matrix keeps the surviving subsystems in their original
    tensor order.  `keep` is an iterable of subsystem indices.
    """
    a = _as_square(rho)
    dims = _subsystem_dims(dims, a.shape[0])
    try:
        kept = list(keep)
    except TypeError:  # one index, or not indices at all
        raise ShapeError(f"keep must be an iterable of subsystem indices, got {keep!r}") from None
    keep_set = {subsystem_index(k, len(dims)) for k in kept}
    if not keep_set:
        raise ShapeError("must keep at least one subsystem")

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
