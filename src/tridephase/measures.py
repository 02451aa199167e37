"""Correlation quantifiers for three-qubit density matrices.

Implemented measures: genuine multipartite concurrence (pure-state and
X-state forms plus the GHZ-Werner scalar form), bipartition and tripartite
negativity, and l1-norm coherence.  All of them are insensitive to the
deterministic phases the dephasing map attaches to coherences.  Each
measure validates its input, unless it is given a `DensityStack`, which
was validated when it was built.  For the dephased GHZ- and W-Werner
states every measure also has a Gamma-space kernel, a closed form in x and
the three damping factors exp(-Gamma_X) (`GHZWernerKernel`,
`WWernerKernel`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exceptions import ParameterError, ShapeError
from .linalg import hermitian_eigenvalues, partial_trace, partial_transpose, per_matrix, purity
from .states import assert_density_matrix, check_mixing, projector

DIM = 8
QUBIT_DIMS = [2, 2, 2]

# Eigenvalues and matrix entries below this magnitude count as zero.
ZERO_EIGENVALUE_TOL = 1e-12
X_SHAPE_TOL = 1e-12


class DensityStack:
    """A density matrix or (..., 8, 8) stack, validated once on construction.

    Each partial-transpose spectrum is taken on first use and kept, so the
    measures called on one DensityStack share its validation and spectra.
    """

    def __init__(self, rho):
        self._hold(assert_density_matrix(rho))

    def _hold(self, array: np.ndarray) -> None:
        """Set every field over `array`, which has passed validation."""
        self.array = array
        self._pt_spectra: dict[int, np.ndarray] = {}

    def rows(self) -> list[DensityStack]:
        """Each matrix of a stack as a DensityStack that shares this validation."""
        rows = []
        for matrix in self.array:
            row = object.__new__(DensityStack)  # skips __init__: validated as part of this stack
            row._hold(matrix)
            rows.append(row)
        return rows

    def pt_eigenvalues(self, subsystem: int) -> np.ndarray:
        """Ascending eigenvalues of the partial transpose on one qubit."""
        if subsystem not in self._pt_spectra:
            transposed = partial_transpose(self.array, QUBIT_DIMS, subsystem)
            self._pt_spectra[subsystem] = hermitian_eigenvalues(transposed)
        return self._pt_spectra[subsystem]


def _checked(rho) -> DensityStack:
    """`rho` if it is a DensityStack already, else one built (and validated) from it."""
    return rho if isinstance(rho, DensityStack) else DensityStack(rho)


def gmc_pure(psi) -> float:
    """Genuine multipartite concurrence of a pure three-qubit state.

    min over the single-qubit cuts of sqrt(2 (1 - purity of the reduced
    one-qubit state)); zero exactly when the state is product across some
    cut.
    """
    rho = projector(psi)
    best = None
    for cut in range(3):
        reduced = partial_trace(rho, QUBIT_DIMS, keep={cut})
        value = math.sqrt(max(0.0, 2.0 * (1.0 - purity(reduced))))
        best = value if best is None else min(best, value)
    return best


# entries that must vanish in an X-shaped matrix: off both diagonals
_OFF_X = ~(np.eye(DIM, dtype=bool) | np.eye(DIM, dtype=bool)[::-1])


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| via hypot, bit-for-bit equal to Python's scalar abs()."""
    return np.hypot(z.real, z.imag)


def _check_x_shape(worst: float, where: tuple[int, int]) -> None:
    """The X-shape rule: `worst`, the largest off-X modulus (first, in row-major
    order, at element `where`), must stay below X_SHAPE_TOL."""
    if worst >= X_SHAPE_TOL:
        raise ShapeError(f"matrix is not X-shaped: element {where} has modulus {worst:.3e}")


def _assert_x_shaped(rho: np.ndarray) -> None:
    mags = np.where(_OFF_X, _modulus(rho), 0.0)
    first = int(np.argmax(mags))  # the worst matrix's first largest entry
    where = tuple(int(i) for i in np.unravel_index(first, mags.shape)[-2:])
    _check_x_shape(float(mags.flat[first]), where)


def gmc_x_state(rho):
    """Closed-form genuine multipartite concurrence for an X-shaped state.

    2 max_j max{0, |rho[j, 7-j]| - sum_{k != j} sqrt(rho[k, k] rho[7-k, 7-k])}
    over the four anti-diagonal pairs.  A stack of shape (..., 8, 8) gives
    an array of shape (...); a single matrix gives a float.
    """
    a = _checked(rho).array
    _assert_x_shaped(a)
    diag = np.real(np.diagonal(a, axis1=-2, axis2=-1))
    # fmax, like Python's max(), ignores a NaN second argument
    roots = np.sqrt(np.fmax(0.0, diag[..., :4] * diag[..., :3:-1]))
    best = 0.0
    for j in range(4):
        off = _modulus(a[..., j, DIM - 1 - j])
        others = [k for k in range(4) if k != j]
        cross = (roots[..., others[0]] + roots[..., others[1]]) + roots[..., others[2]]
        best = np.fmax(best, off - cross)
    return per_matrix(2.0 * np.fmax(0.0, best), a)


def gmc_ghz_werner(x: float, gamma_total: float) -> float:
    """Scalar GMC for the dephased GHZ-Werner family.

    max{0, x exp(-(Gamma_A + Gamma_B + Gamma_C)) - 3(1 - x)/4}; positive at
    t = 0 exactly when x > 3/7.
    """
    check_mixing(x)
    if gamma_total < 0.0:
        raise ParameterError(f"total decoherence exponent must be >= 0, got {gamma_total!r}")
    return _ghz_gmc(x, math.exp(-gamma_total))


def _ghz_gmc(x: float, damping: float) -> float:
    """GHZ-Werner GMC from the damping exp(-(Gamma_A + Gamma_B + Gamma_C)) of its coherence."""
    return max(0.0, x * damping - 0.75 * (1.0 - x))


def negativity(rho, subsystem: int):
    """-2 times the sum of negative partial-transpose eigenvalues.

    Eigenvalues with magnitude below 1e-12 are treated as zero, so a PPT
    state returns exactly 0.0.  A stack of shape (..., 8, 8) gives an array
    of shape (...); a single matrix gives a float.
    """
    stack = _checked(rho)
    eigs = stack.pt_eigenvalues(subsystem)
    # Eigenvalues ascend, so the negative ones lead each row, and there are
    # at most 7 of them (the trace is 1).  A running sum adds them in that
    # order; the zeros after them add nothing.
    negative = eigs < -ZERO_EIGENVALUE_TOL
    total = np.where(negative, eigs, 0.0).cumsum(axis=-1)[..., -1]
    return per_matrix(np.where(negative.any(axis=-1), -2.0 * total, 0.0), stack.array)


def tripartite_negativity(rho):
    """Geometric mean of the three bipartition negativities.

    A stack of shape (..., 8, 8) gives an array of shape (...); a single
    matrix gives a float.
    """
    stack = _checked(rho)
    factors = (negativity(stack, subsystem) for subsystem in range(3))
    return per_matrix(_geometric_mean(*factors), stack.array)


def _geometric_mean(f0, f1, f2):
    """cbrt(f0 f1 f2), exactly 0.0 where a factor is 0; floats give a 0-d array."""
    dead = (f0 == 0.0) | (f1 == 0.0) | (f2 == 0.0)
    return np.where(dead, 0.0, np.cbrt(f0 * f1 * f2))


def l1_coherence(rho):
    """Sum of the moduli of all off-diagonal elements.

    A stack of shape (..., 8, 8) gives an array of shape (...); a single
    matrix gives a float.
    """
    a = _checked(rho).array
    mags = np.abs(a)
    total = mags.reshape(a.shape[:-2] + (DIM * DIM,)).sum(axis=-1)
    return per_matrix(total - np.trace(mags, axis1=-2, axis2=-1), a)


# Gamma-space kernels: each measure of a dephased Werner state in closed form
# in x and the damping factors d = (d_A, d_B, d_C), d_X = exp(-Gamma_X), with
# c_XY = d_X d_Y damping a coherence where X and Y flip.  Each equals the
# matrix measure on the evolved state up to round-off, with the same zero
# rules (`_negativity_from`, `_check_x_shape`).


def _negativity_from(lam: float) -> float:
    """`negativity` of a partial transpose whose only eigenvalue that can be
    negative is lam: -2 lam below -ZERO_EIGENVALUE_TOL, else 0.0."""
    return -2.0 * lam if lam < -ZERO_EIGENVALUE_TOL else 0.0


class WernerKernel:
    """The six measures of one dephased Werner family, each as f(x, d)."""

    def negativity(self, x: float, d: Sequence[float], subsystem: int) -> float:
        raise NotImplementedError

    def tripartite_negativity(self, x: float, d: Sequence[float]) -> float:
        return float(_geometric_mean(*(self.negativity(x, d, s) for s in range(3))))


class GHZWernerKernel(WernerKernel):
    """The coherence |000><111| is damped by exp(-S) = d_A d_B d_C; every
    partial transpose moves it onto a 2x2 block with eigenvalues
    (1-x)/8 +- (x/2) exp(-S)."""

    @staticmethod
    def _damping(d: Sequence[float]) -> float:
        return (d[0] * d[1]) * d[2]

    def gmc(self, x: float, d: Sequence[float]) -> float:
        return _ghz_gmc(x, self._damping(d))

    def negativity(self, x: float, d: Sequence[float], subsystem: int) -> float:
        return _negativity_from((1.0 - x) / 8.0 - 0.5 * x * self._damping(d))

    def l1_coherence(self, x: float, d: Sequence[float]) -> float:
        return x * self._damping(d)


class WWernerKernel(WernerKernel):
    """The coherences of |001>, |010>, |100> are (x/3) c_BC, (x/3) c_AC and
    (x/3) c_AB.  The partial transpose on X moves the two that involve X onto a
    3x3 arrow block with diagonal (1-x)/8, whose smallest eigenvalue is
    (1-x)/8 - (x/3) sqrt(c_XY^2 + c_XZ^2); the other block is positive."""

    def gmc(self, x: float, d: Sequence[float]) -> float:
        # the off-X entries (1, 2), (1, 4), (2, 4) in row-major order; the
        # anti-diagonal is empty, so an X-shaped W-Werner state has GMC 0
        moduli = (x / 3.0 * (d[1] * d[2]), x / 3.0 * (d[0] * d[2]), x / 3.0 * (d[0] * d[1]))
        first = max(range(3), key=moduli.__getitem__)
        _check_x_shape(moduli[first], ((1, 2), (1, 4), (2, 4))[first])
        return 0.0

    def negativity(self, x: float, d: Sequence[float], subsystem: int) -> float:
        y, z = (q for q in range(3) if q != subsystem)
        radius = math.hypot(d[subsystem] * d[y], d[subsystem] * d[z])
        return _negativity_from((1.0 - x) / 8.0 - x / 3.0 * radius)

    def l1_coherence(self, x: float, d: Sequence[float]) -> float:
        return 2.0 * x / 3.0 * ((d[0] * d[1] + d[0] * d[2]) + d[1] * d[2])
