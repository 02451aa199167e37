import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tridephase import linalg
from tridephase.analysis import STATES, make_reservoirs
from tridephase.evolution import dephasing_factors, evolve
from tridephase.exceptions import HermiticityViolation, ParameterError, ShapeError
from tridephase.linalg import (
    hermitian_eigenvalues,
    hermiticity_defect,
    partial_trace,
    partial_transpose,
    purity,
)
from tridephase.measures import DensityStack
from tridephase.reservoir import GammaMethod
from tridephase.states import werner


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def bell_projector():
    psi = np.zeros(4, complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def ghz_projector():
    psi = np.zeros(8, complex)
    psi[0] = psi[7] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def test_eigenvalues_identity():
    assert np.allclose(hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])


def test_eigenvalues_diagonal():
    assert np.allclose(hermitian_eigenvalues(np.diag([0.25, 0.75])), [0.25, 0.75])


def test_eigenvalues_bell_partial_transpose():
    # Oracle: the partially transposed Bell projector decomposes into the
    # fixed diagonal entries {1/2, 1/2} and a 2x2 flip block with roots +-1/2.
    pt = partial_transpose(bell_projector(), [2, 2], 0)
    assert np.abs(hermitian_eigenvalues(pt) - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-12


def test_eigenvalues_ascending_and_real():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = random_hermitian(rng, 8)
        eigs = hermitian_eigenvalues(m)
        assert np.all(np.diff(eigs) >= 0)
        assert eigs.dtype.kind == "f"


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(8)
    for dim in (2, 4, 8):
        m = random_hermitian(rng, dim)
        assert abs(hermitian_eigenvalues(m).sum() - np.trace(m).real) < 1e-9


def test_eigenvalues_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(HermiticityViolation):
        hermitian_eigenvalues(m)


def test_eigenvalues_deterministic():
    rng = np.random.default_rng(9)
    m = random_hermitian(rng, 8)
    first = hermitian_eigenvalues(m)
    for _ in range(5):
        assert np.array_equal(first, hermitian_eigenvalues(m))


def block_hermitian_stack(rng, dim, rows, sizes=None, cut_share=0.5):
    """`rows` matrices with one block pattern, scaled by up to 1e+-3, each
    Hermitian but for an antisymmetric part of at most 1e-11 per entry.

    The blocks have random sizes (or `sizes`) on randomly permuted indices,
    and some entries inside a block are exactly 0, but a random path keeps
    each block connected.  Then one coherence is set to exactly 0.0 in
    about `cut_share` of the rows, so the rows of a stack can differ in
    pattern.
    """
    if sizes is None:
        cuts = rng.choice(np.arange(1, dim), size=rng.integers(0, dim), replace=False)
        sizes = np.diff([0, *np.sort(cuts), dim])
    perm = rng.permutation(dim)
    linked = np.zeros((dim, dim), bool)
    start = 0
    for size in sizes:
        block = perm[start:start + size]
        linked[np.ix_(block, block)] = rng.random((size, size)) < 0.6
        linked[block[:-1], block[1:]] = True  # a path through the block
        start += size
    linked |= linked.T
    stack = np.stack([random_hermitian(rng, dim) for _ in range(rows)]) * linked
    stack *= 10.0 ** rng.uniform(-3, 3)
    skew = rng.uniform(-1e-11, 1e-11, size=stack.shape) * linked
    stack += (skew - skew.swapaxes(-1, -2)) / 2
    i, j = np.nonzero(np.triu(linked, 1))
    if i.size:
        k = rng.integers(i.size)
        cut = rng.random(rows) < cut_share
        stack[cut, i[k], j[k]] = stack[cut, j[k], i[k]] = 0.0
    return stack


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8]))
@settings(max_examples=200, deadline=None)
def test_block_spectra_match_eigvalsh(seed, dim):
    rng = np.random.default_rng(seed)
    stack = block_hermitian_stack(rng, dim, rows=6)
    eigs = hermitian_eigenvalues(stack)
    assert eigs.shape == (6, dim)
    assert np.all(np.diff(eigs, axis=-1) >= 0)
    bound = 16 * dim * np.finfo(float).eps * np.abs(stack).max(axis=(-2, -1))
    dense = np.linalg.eigvalsh((stack + stack.conj().swapaxes(-1, -2)) / 2)
    assert np.all(np.abs(eigs - dense).max(axis=-1) <= bound)
    singles = np.stack([hermitian_eigenvalues(m) for m in stack])
    assert eigs.tobytes() == singles.tobytes()  # bit for bit, signs of zeros included


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8]))
@settings(max_examples=100, deadline=None)
def test_one_block_matrix_keeps_the_bits_of_eigvalsh(seed, dim):
    rng = np.random.default_rng(seed)
    m = block_hermitian_stack(rng, dim, rows=1, sizes=[dim], cut_share=0.0)[0]
    m[0, -1] += 1e-12  # asymmetric by less than HERMITICITY_TOL, so symmetrized first
    assert hermitian_eigenvalues(m).tobytes() == np.linalg.eigvalsh((m + m.conj().T) / 2).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_a_one_block_pattern_is_one_larger_block(n):
    # a path links every index, so the pattern is one block, whatever n
    path = np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    ones, first, second, larger = linalg._blocks(path.tobytes(), n)
    assert ones.size == first.size == second.size == 0
    (whole,) = larger
    assert whole.tolist() == [[i] for i in range(n)]


def test_a_one_block_spectrum_keeps_its_zero_signs_through_the_sort(monkeypatch):
    # an ascending row with -0.0 and 0.0 mixed, as eigvalsh may return it; on
    # a row this long numpy's default sort reorders such zeros
    row = np.array([-2.0, *[-0.0, 0.0, 0.0, -0.0] * 4, 3.0])
    monkeypatch.setattr(linalg.np.linalg, "eigvalsh", lambda a: np.tile(row, (len(a), 1)))
    n = row.size
    spectra = hermitian_eigenvalues(np.ones((2, n, n), complex))
    assert spectra.tobytes() == np.tile(row, (2, 1)).tobytes()


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8]))
@settings(max_examples=50, deadline=None)
def test_block_matrix_beyond_the_tolerance_is_not_hermitian(seed, dim):
    rng = np.random.default_rng(seed)
    stack = block_hermitian_stack(rng, dim, rows=3)
    i, j = rng.choice(dim, size=2, replace=False)
    stack[1, i, j] += 1e-6 * max(1.0, np.abs(stack).max())
    with pytest.raises(
        HermiticityViolation, match=r"^matrix is not Hermitian: max \|M - M\^dagger\| = \S+ > 1\.0e-10$"
    ):
        hermitian_eigenvalues(stack)


def same_bits(x, y) -> bool:
    """Equal arrays, bit for bit, except that any NaN matches any NaN."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    nan = np.isnan(x)
    return bool(np.array_equal(nan, np.isnan(y)) and x[~nan].tobytes() == y[~nan].tobytes())


@st.composite
def defect_inputs(draw):
    """A matrix or stack with any complex entries, NaN and +-inf included;
    half of them Hermitian but for a few entries, half in Fortran order."""
    n = draw(st.integers(1, 8))
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    entries = st.complex_numbers(allow_nan=True, allow_infinity=True)
    a = draw(arrays(complex, lead + (n, n), elements=entries))
    if draw(st.booleans()):
        lower = np.tril_indices(n, -1)
        a[..., lower[0], lower[1]] = a[..., lower[1], lower[0]].conj()
        flips = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
        for i, j in flips:
            step = draw(st.sampled_from([1e-300, 1e-11, 1e-6, np.inf, np.nan]))
            with np.errstate(invalid="ignore"):  # -inf + inf is a NaN entry, also an input
                a[..., i, j] += step
    if draw(st.booleans()):
        a = np.asfortranarray(a)
    return a


@given(a=defect_inputs())
@settings(max_examples=300, deadline=None)
def test_hermiticity_defect_equals_the_whole_matrix_rule(a):
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, huge - -huge
        expected = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        defect = hermiticity_defect(a)
    assert type(defect) is (float if a.ndim == 2 else np.ndarray)
    assert np.shape(defect) == a.shape[:-2]
    assert same_bits(defect, expected)


@pytest.mark.parametrize("cut_share", [0.0, 1.0, 0.5], ids=["one_pattern", "one_cut_pattern", "mixed"])
@pytest.mark.parametrize("seed", range(20))
def test_stack_spectra_equal_their_matrices_one_by_one(seed, cut_share):
    rng = np.random.default_rng(seed)
    stack = block_hermitian_stack(rng, 8, rows=12, cut_share=cut_share)
    if cut_share == 0.5:
        # another pattern for the first matrix: an entry stays where its mirror
        # stays too, so the matrix stays Hermitian
        stack[0] *= rng.random((8, 8)) < 0.5
        stack[0] = stack[0] * (stack[0].T != 0)
    singles = np.stack([hermitian_eigenvalues(m) for m in stack])
    assert hermitian_eigenvalues(stack).tobytes() == singles.tobytes()
    # the same matrices in a (3, 4, 8, 8) stack that is not in C order
    strided = np.asfortranarray(stack.reshape(3, 4, 8, 8))
    assert hermitian_eigenvalues(strided).tobytes() == singles.reshape(3, 4, 8).tobytes()


@pytest.mark.parametrize("state", ["ghz", "w"])
def test_dephased_werner_spectra_call_lapack_only_on_3x3_blocks(monkeypatch, state):
    # Pure dephasing keeps the Werner pattern, so a validated, evolved stack
    # and its three partial-transpose spectra need LAPACK only for the W
    # state's 3x3 block, once per spectrum; GHZ-Werner (an X state) is all
    # 1x1 and 2x2 blocks.
    reservoirs = make_reservoirs(0.3, 1.0, 150.0, 4.0, 16.0, (2.0, 2.0, 2.0))
    factors = dephasing_factors(reservoirs, np.linspace(0.0, 3.0, 31), GammaMethod.LOW_T_CLOSED_FORM)
    stack = evolve(werner(STATES[state](), 0.8), factors)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape[-2:])
        return eigvalsh(a)

    monkeypatch.setattr(linalg.np.linalg, "eigvalsh", counting)
    checked = DensityStack(stack)
    spectra = [checked.pt_eigenvalues(subsystem) for subsystem in range(3)]
    assert all(np.all(np.diff(s, axis=-1) >= 0) for s in spectra)
    assert calls == ([] if state == "ghz" else [(3, 3)] * 4)


def test_partial_transpose_diagonal_invariant():
    d = np.diag(np.linspace(0.0, 1.0, 8)).astype(complex)
    for subsystem in range(3):
        assert np.array_equal(partial_transpose(d, [2, 2, 2], subsystem), d)


def test_partial_transpose_maximally_mixed_invariant():
    mixed = np.eye(8, dtype=complex) / 8
    for subsystem in range(3):
        assert np.array_equal(partial_transpose(mixed, [2, 2, 2], subsystem), mixed)


def test_partial_transpose_ghz_min_eigenvalue():
    pt = partial_transpose(ghz_projector(), [2, 2, 2], 0)
    assert abs(hermitian_eigenvalues(pt)[0] - (-0.5)) < 1e-12


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 8)
    for subsystem in range(3):
        pt = partial_transpose(rho, [2, 2, 2], subsystem)
        assert np.trace(pt) == pytest.approx(np.trace(rho), abs=0)
        assert hermiticity_defect(pt) < 1e-14


def test_partial_transpose_shape_error():
    with pytest.raises(ShapeError):
        partial_transpose(np.eye(8), [2, 2], 0)
    with pytest.raises(ShapeError):
        partial_transpose(np.eye(8), [2, 2, 2], 3)


@given(seed=st.integers(0, 2**32 - 1), subsystem=st.integers(0, 2))
@settings(max_examples=50, deadline=None)
def test_partial_transpose_involution(seed, subsystem):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 8)
    twice = partial_transpose(partial_transpose(rho, [2, 2, 2], subsystem), [2, 2, 2], subsystem)
    assert np.array_equal(twice, rho)


def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    sigma = random_density(rng, 2)
    rho = np.kron(np.diag([1.0, 0.0]).astype(complex), sigma)
    assert np.abs(partial_trace(rho, [2, 2], keep={1}) - sigma).max() < 1e-14


def test_partial_trace_ghz_single_qubit():
    reduced = partial_trace(ghz_projector(), [2, 2, 2], keep={0})
    assert np.abs(reduced - np.diag([0.5, 0.5])).max() < 1e-14


def test_partial_trace_maximally_mixed_marginal():
    mixed = np.eye(8, dtype=complex) / 8
    reduced = partial_trace(mixed, [2, 2, 2], keep={0, 1})
    assert np.abs(reduced - np.eye(4) / 4).max() < 1e-14


def test_partial_trace_shape_error():
    with pytest.raises(ShapeError):
        partial_trace(np.eye(8), [2, 2], keep={0})
    with pytest.raises(ShapeError):
        partial_trace(np.eye(8), [2, 2, 2], keep=set())


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_partial_trace_grouping_order(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 8)
    direct = partial_trace(rho, [2, 2, 2], keep={2})
    via_pair = partial_trace(partial_trace(rho, [2, 2, 2], keep={1, 2}), [2, 2], keep={1})
    assert np.abs(direct - via_pair).max() < 1e-12
    assert abs(np.trace(direct).real - 1.0) < 1e-12


def test_purity_examples():
    proj = np.diag([1.0, 0.0]).astype(complex)
    assert purity(proj) == pytest.approx(1.0, abs=1e-12)
    assert purity(np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)
    assert purity(np.diag([0.25, 0.75])) == pytest.approx(0.625, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8]))
@settings(max_examples=50, deadline=None)
def test_purity_range_random_density(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    p = purity(rho)
    assert 1.0 / dim - 1e-9 <= p <= 1.0 + 1e-9


def test_purity_rejects_bad_input():
    with pytest.raises(HermiticityViolation):
        purity(np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(ParameterError):
        purity(np.eye(2))  # trace 2


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 7), (3, 3)], ids=["off_diagonal", "diagonal"])
def test_an_infinite_entry_is_not_hermitian_and_warns_nothing(value, where):
    # inf - conj(inf) is NaN; the suite turns a RuntimeWarning into an error
    rho = werner(STATES["ghz"](), 0.8)
    rho[where] = rho[where[::-1]] = value
    for m in (rho, np.stack([rho, rho])):
        with pytest.raises(HermiticityViolation, match=r"= nan > 1\.0e-10$"):
            hermitian_eigenvalues(m)
        with pytest.raises(HermiticityViolation, match=r"= nan > 1\.0e-10$"):
            DensityStack(m)


@pytest.mark.parametrize("shape", [(8, 8), (3, 8, 8)], ids=["matrix", "stack"])
def test_nan_matrix_is_not_hermitian(shape):
    nan = np.full(shape, np.nan, dtype=complex)
    with pytest.raises(HermiticityViolation):
        hermitian_eigenvalues(nan)
    if len(shape) == 2:
        with pytest.raises(HermiticityViolation):
            purity(nan)
