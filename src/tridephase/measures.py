"""Correlation quantifiers for three-qubit density matrices.

Implemented measures: genuine multipartite concurrence (pure-state and
X-state forms plus the GHZ-Werner scalar form), bipartition and tripartite
negativity, and l1-norm coherence.  All of them are insensitive to the
deterministic phases the dephasing map attaches to coherences.  Each
measure validates its input, unless it is given a `DensityStack`, which
was validated when it was built.  For the dephased GHZ- and W-Werner
states every measure also has a Gamma-space kernel, a closed form in x and
the three damping factors exp(-Gamma_X), with its margin before the clip at
0: `werner_forms` derives them from three closed forms of the family
(`GHZ_WERNER_FORMS`, `W_WERNER_FORMS`).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .exceptions import ParameterError, ShapeError
from .linalg import (
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    per_matrix,
    purity,
    subsystem_index,
)
from .states import DIM, assert_density_matrix, check_mixing, projector

QUBIT_DIMS = [2, 2, 2]
BIPARTITIONS = ("a_bc", "b_ac", "c_ab")  # the cut X|YZ of the partial transpose on qubit X

# Eigenvalues and matrix entries below this magnitude count as zero.
ZERO_EIGENVALUE_TOL = 1e-12


class DensityStack:
    """A density matrix or (..., 8, 8) stack, validated once on construction.

    Each cut's negativity is computed on first use and kept, read-only, so
    the measures called on one DensityStack share its validation and each
    partial-transpose spectrum is taken once.

    A stack of Werner states x E + (1 - x) I/8 may be given
    `werner=(x, spectra)`, where `spectra` is the `PureSpectra` of E.  The
    partial transpose is linear and leaves I fixed, so each cut's spectrum
    is read as x spectra[cut] + (1 - x)/8, still ascending, instead of being
    solved from the array (Vidal & Werner, PRA 65, 032314 (2002)); it
    agrees with the solved spectrum to round-off.  The measures alone
    decide which cuts are read, and so solved.  Validation, every other
    measure and `rows` read the array itself.
    """

    def __init__(self, rho, werner: tuple[float, PureSpectra] | None = None):
        # C order makes a stacked reduction sum each matrix as a single one
        # is summed, whatever the layout it came in (no copy when it is C already)
        self._hold(np.ascontiguousarray(assert_density_matrix(rho)), werner)

    def _hold(self, array: np.ndarray, werner=None) -> None:
        """Set every field over `array`, which has passed validation."""
        self.array = array
        self._werner = werner
        self._negativities: dict[int, np.ndarray] = {}

    @classmethod
    def _trusted(cls, array: np.ndarray) -> DensityStack:
        """A DensityStack over `array` that skips validation: the caller vouches for it."""
        stack = object.__new__(cls)
        stack._hold(array)
        return stack

    def rows(self) -> list[DensityStack]:
        """Each matrix of a stack as a DensityStack that shares this validation."""
        return [DensityStack._trusted(matrix) for matrix in self.array]

    def pt_eigenvalues(self, subsystem: int) -> np.ndarray:
        """Ascending eigenvalues of the partial transpose on one qubit."""
        if self._werner is not None:
            x, spectra = self._werner
            return x * spectra[subsystem_index(subsystem, len(QUBIT_DIMS))] + (1.0 - x) / DIM
        return hermitian_eigenvalues(partial_transpose(self.array, QUBIT_DIMS, subsystem))

    def negativities(self, subsystem: int) -> np.ndarray:
        """The (...) array of `negativity` on one cut, shared by every caller."""
        # checked before the cache, where a key of 1.0 would find cut 1
        subsystem = subsystem_index(subsystem, len(QUBIT_DIMS))
        if subsystem not in self._negativities:
            eigs = self.pt_eigenvalues(subsystem)
            # Eigenvalues ascend, so the negative ones lead each row, and there
            # are at most 7 of them (the trace is 1).  A running sum adds them
            # in that order; the zeros after them add nothing.
            negative = eigs < -ZERO_EIGENVALUE_TOL
            total = np.where(negative, eigs, 0.0).cumsum(axis=-1)[..., -1]
            values = np.where(negative.any(axis=-1), -2.0 * total, 0.0)
            values.setflags(write=False)  # returned to every measure of this stack
            self._negativities[subsystem] = values
        return self._negativities[subsystem]


class PureSpectra(dict):
    """Cut -> ascending partial-transpose spectrum of the evolved pure state
    E = pure * factors, the product `evolve` computes, each cut solved the
    first time it is read.  E is formed for that solve, not validated and
    not kept: one table serves every Werner mixture of E through
    `DensityStack(rho, werner=(x, table))`, each of them validated."""

    def __init__(self, pure: np.ndarray, factors: np.ndarray):
        super().__init__()
        self._pure, self._factors = pure, factors

    def __missing__(self, subsystem: int) -> np.ndarray:
        pt = partial_transpose(self._pure * self._factors, QUBIT_DIMS, subsystem)
        spectrum = self[subsystem] = hermitian_eigenvalues(pt)
        return spectrum


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
    order, at element `where`; a NaN counts as the largest), must stay below
    ZERO_EIGENVALUE_TOL."""
    if worst >= ZERO_EIGENVALUE_TOL:
        raise ShapeError(f"matrix is not X-shaped: element {where} has modulus {worst:.3e}")
    if worst != worst:
        raise ShapeError(f"matrix is not X-shaped: element {where} has a NaN modulus")


def _assert_x_shaped(rho: np.ndarray) -> None:
    # np.abs may differ from _modulus in the last bit, so it only screens:
    # below ZERO_EIGENVALUE_TOL / 2 it passes every matrix, anything else (NaN
    # included) is judged, and reported, by the moduli of _modulus
    if (np.abs(rho[..., _OFF_X]) < ZERO_EIGENVALUE_TOL / 2).all():
        return
    mags = np.where(_OFF_X, _modulus(rho), 0.0)
    first = int(np.argmax(mags))  # the first NaN, else the worst matrix's first largest entry
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
    if not gamma_total >= 0.0:  # NaN included
        raise ParameterError(f"total decoherence exponent must be >= 0, got {gamma_total!r}")
    return max(0.0, _ghz_gmc_margin(x, math.exp(-gamma_total)))


def _ghz_gmc_margin(x: float, damping: float) -> float:
    """x exp(-S) - 3(1 - x)/4, the GHZ-Werner GMC before its clip at 0."""
    return x * damping - 0.75 * (1.0 - x)


def negativity(rho, subsystem: int):
    """-2 times the sum of negative partial-transpose eigenvalues.

    Eigenvalues with magnitude below 1e-12 are treated as zero, so a PPT
    state returns exactly 0.0.  A stack of shape (..., 8, 8) gives an array
    of shape (...); a single matrix gives a float.
    """
    stack = _checked(rho)
    return per_matrix(stack.negativities(subsystem), stack.array)


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


_OFF_DIAGONAL = ~np.eye(DIM, dtype=bool)


def l1_coherence(rho):
    """Sum of the moduli of all off-diagonal elements.

    A stack of shape (..., 8, 8) gives an array of shape (...); a single
    matrix gives a float.
    """
    a = _checked(rho).array
    moduli = np.where(_OFF_DIAGONAL, np.abs(a), 0.0)
    return per_matrix(moduli.reshape(a.shape[:-2] + (DIM * DIM,)).sum(axis=-1), a)


# Gamma-space kernels: each measure of a dephased Werner state in closed form
# in x and the damping factors d = (d_A, d_B, d_C), d_X = exp(-Gamma_X), with
# c_XY = d_X d_Y damping a coherence where X and Y flip.  Each equals the
# matrix measure on the evolved state up to round-off, with the same zero
# rules (`_negativity_from`, `_check_x_shape`).  Each also has a margin, the
# form before its clip at 0, which exceeds ZERO_EIGENVALUE_TOL exactly where
# the measure does and goes on falling after the measure is dead.

Form = Callable[[float, Sequence[float]], float]


def _negativity_from(lam: float) -> float:
    """`negativity` of a partial transpose whose only eigenvalue that can be
    negative is lam: -2 lam below -ZERO_EIGENVALUE_TOL, else 0.0."""
    return -2.0 * lam if lam < -ZERO_EIGENVALUE_TOL else 0.0


def werner_forms(state: str, pt_eigenvalue, gmc_margin: Form, l1: Form) -> dict:
    """(state, measure) -> (kernel, margin) of one Werner family, from three
    closed forms: `pt_eigenvalue(x, d, subsystem)`, the one eigenvalue of that
    partial transpose that can be negative; `gmc_margin(x, d)`, the GMC before
    its clip at 0; and `l1(x, d)`, which has no clip and is its own margin."""
    def cut(subsystem: int) -> tuple[Form, Form]:
        return (
            lambda x, d: _negativity_from(pt_eigenvalue(x, d, subsystem)),
            lambda x, d: -pt_eigenvalue(x, d, subsystem),
        )

    cuts = [cut(subsystem) for subsystem in range(3)]
    return {
        (state, "gmc"): (lambda x, d: max(0.0, gmc_margin(x, d)), gmc_margin),
        (state, "tripartite_negativity"): (
            lambda x, d: float(_geometric_mean(*(kernel(x, d) for kernel, _ in cuts))),
            # the geometric mean is alive exactly where all three factors are
            lambda x, d: min(margin(x, d) for _, margin in cuts),
        ),
        **{(state, "negativity_" + c): pair for c, pair in zip(BIPARTITIONS, cuts)},
        (state, "l1_coherence"): (l1, l1),
    }


def _ghz_damping(d: Sequence[float]) -> float:
    return (d[0] * d[1]) * d[2]


# The coherence |000><111| is damped by exp(-S) = d_A d_B d_C; every partial
# transpose moves it onto a 2x2 block with eigenvalues (1-x)/8 +- (x/2) exp(-S).
GHZ_WERNER_FORMS = werner_forms(
    "ghz",
    lambda x, d, subsystem: (1.0 - x) / 8.0 - 0.5 * x * _ghz_damping(d),
    lambda x, d: _ghz_gmc_margin(x, _ghz_damping(d)),
    lambda x, d: x * _ghz_damping(d),
)


def _w_gmc(x: float, d: Sequence[float]) -> float:
    # the off-X entries (1, 2), (1, 4), (2, 4) in row-major order; the
    # anti-diagonal is empty, so an X-shaped W-Werner state has GMC 0
    moduli = (x / 3.0 * (d[1] * d[2]), x / 3.0 * (d[0] * d[2]), x / 3.0 * (d[0] * d[1]))
    first = max(range(3), key=moduli.__getitem__)
    _check_x_shape(moduli[first], ((1, 2), (1, 4), (2, 4))[first])
    return 0.0


def _w_pt_eigenvalue(x: float, d: Sequence[float], subsystem: int) -> float:
    y, z = (q for q in range(3) if q != subsystem)
    radius = math.hypot(d[subsystem] * d[y], d[subsystem] * d[z])
    return (1.0 - x) / 8.0 - x / 3.0 * radius


# The coherences of |001>, |010>, |100> are (x/3) c_BC, (x/3) c_AC and
# (x/3) c_AB.  The partial transpose on X moves the two that involve X onto a
# 3x3 arrow block with diagonal (1-x)/8, whose smallest eigenvalue is
# (1-x)/8 - (x/3) sqrt(c_XY^2 + c_XZ^2); the other block is positive.
W_WERNER_FORMS = werner_forms(
    "w",
    _w_pt_eigenvalue,
    _w_gmc,
    lambda x, d: 2.0 * x / 3.0 * ((d[0] * d[1] + d[0] * d[2]) + d[1] * d[2]),
)
