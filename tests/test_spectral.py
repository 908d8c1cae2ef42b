"""Spectral measures, atom tables, and the cyclic model."""

import tracemalloc

import numpy as np
import pytest

from moilab.linalg import INF, haar_unitaries, random_complex, schatten_norm
from moilab.spectral import (
    MEASURE_TOL,
    FiniteSpectralMeasure,
    cyclic_model,
    from_hermitian,
    integrate_scalar,
    matrix_sup,
    scalar_sup,
    vector_sup,
)

from helpers import trivial_measure


def assert_valid_measure(e):
    """A unitary basis within MEASURE_TOL, each projection the product of
    its labelled basis columns with their adjoint, and distinct points."""
    u, labels = e.basis, e.labels
    assert schatten_norm(u.conj().T @ u - np.eye(e.dim), INF) <= MEASURE_TOL
    for i, p in enumerate(e.projections):
        cols = u[:, labels == i]
        assert schatten_norm(p - cols @ cols.conj().T, INF) <= MEASURE_TOL
    assert len(set(e.points)) == e.n_atoms


def test_validate_trivial_measure():
    assert_valid_measure(trivial_measure(3))


def test_validate_fourier_projections():
    fourier, position, _ = cyclic_model(5)
    assert_valid_measure(fourier)
    assert_valid_measure(position)


def test_validate_catches_repeated_projection():
    # a family that repeats one projection is refused when it is built, and
    # the reported defect exceeds MEASURE_TOL
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    with pytest.raises(ValueError, match="defect") as info:
        FiniteSpectralMeasure(2, (0.0, 1.0), (p, p))
    defect = float(str(info.value).split("defect ")[1].split(" >")[0])
    assert defect > MEASURE_TOL


def test_integrate_constant_is_identity():
    e = from_hermitian(np.diag([1.0, 2.0, 3.0]))
    assert schatten_norm(integrate_scalar(np.ones(3), e) - np.eye(3), INF) < 1e-12


def test_integrate_indicator_picks_projection():
    e = from_hermitian(np.diag([1.0, 2.0, 3.0]))
    phi = np.zeros(3)
    phi[1] = 1.0
    assert schatten_norm(integrate_scalar(phi, e) - e.projections[1], INF) < 1e-12


def test_integrate_square_function():
    e = from_hermitian(np.diag([1.0, 2.0, 3.0]))
    phi = np.array([x**2 for x in e.points])
    assert schatten_norm(integrate_scalar(phi, e) - np.diag([1.0, 4.0, 9.0]), INF) < 1e-12


def test_integrate_rejects_wrong_length():
    e = trivial_measure(2)
    with pytest.raises(ValueError):
        integrate_scalar(np.ones(3), e)


def test_integrate_vector_table_stacks_scalar_integrals():
    rng = np.random.default_rng(31)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    e = from_hermitian(h + h.conj().T)
    table = rng.standard_normal((e.n_atoms, 3)) + 1j * rng.standard_normal((e.n_atoms, 3))
    ops = integrate_scalar(table, e)
    assert ops.shape == (3, 5, 5)
    for k in range(3):
        assert schatten_norm(ops[k] - integrate_scalar(table[:, k], e), INF) < 1e-12
    with pytest.raises(ValueError):
        integrate_scalar(np.ones((e.n_atoms + 1, 3)), e)
    with pytest.raises(ValueError):
        integrate_scalar(1.0, e)


def test_integrate_linear_and_multiplicative():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    e = from_hermitian(h + h.conj().T)
    phi = rng.standard_normal(e.n_atoms) + 1j * rng.standard_normal(e.n_atoms)
    psi = rng.standard_normal(e.n_atoms) + 1j * rng.standard_normal(e.n_atoms)
    lin = integrate_scalar(2.0 * phi + psi, e)
    gap = lin - 2.0 * integrate_scalar(phi, e) - integrate_scalar(psi, e)
    assert schatten_norm(gap, INF) < 1e-10
    prod = integrate_scalar(phi * psi, e)
    assert schatten_norm(prod - integrate_scalar(phi, e) @ integrate_scalar(psi, e), INF) < 1e-10


def test_from_hermitian_merges_clusters():
    e = from_hermitian(np.diag([1.0, 1.0, 2.0]), merge_tol=1e-8)
    assert e.n_atoms == 2
    ranks = sorted(int(round(np.trace(p).real)) for p in e.projections)
    assert ranks == [1, 2]


def test_from_hermitian_merges_tiny_gap():
    e = from_hermitian(np.diag([1.0, 1.0 + 1e-12]), merge_tol=1e-8)
    assert e.n_atoms == 1
    assert int(round(np.trace(e.projections[0]).real)) == 2


def test_from_hermitian_reconstructs():
    rng = np.random.default_rng(9)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = h + h.conj().T
    e = from_hermitian(h, merge_tol=1e-8)
    assert_valid_measure(e)
    rebuilt = sum(x * p for x, p in zip(e.points, e.projections))
    assert schatten_norm(rebuilt - h, INF) <= 1e-9 * schatten_norm(h, INF)


def test_from_hermitian_round_trip_projections():
    # measure -> matrix -> measure recovers the projections when gaps exceed
    # the merge tolerance (up to atom order, compared projection-wise)
    rng = np.random.default_rng(13)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    e = from_hermitian(h + h.conj().T)
    rebuilt = sum(x * p for x, p in zip(e.points, e.projections))
    e2 = from_hermitian(rebuilt)
    assert e2.n_atoms == e.n_atoms
    for x, p in zip(e.points, e.projections):
        match = min(range(e2.n_atoms), key=lambda i: abs(e2.points[i] - x))
        assert schatten_norm(e2.projections[match] - p, INF) < 1e-8


def test_from_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        from_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_cyclic_model_trivial():
    fourier, position, characters = cyclic_model(1)
    assert fourier.n_atoms == position.n_atoms == 1
    assert np.allclose(characters[0], [1.0])
    b0 = integrate_scalar(characters[0], position)
    assert schatten_norm(b0 - np.eye(1), INF) < 1e-12


@pytest.mark.parametrize("n", [1, 5, 64, 1024])
def test_cyclic_model_reads_every_entry_from_the_roots(n):
    # zeta_m^j = zeta_{jm mod n}: each character value is a root of unity as
    # computed, bit for bit, and the position basis is unitary within 1e-15
    # (7.6e-14 at n = 1024 when the basis was exp of n^2 growing arguments)
    _, position, characters = cyclic_model(n)
    grid = np.arange(n)
    roots = np.exp(2j * np.pi * grid / n)
    assert np.array_equal(characters, roots[np.outer(grid, grid) % n])
    assert np.array_equal(characters, characters.T)
    assert np.array_equal(position.points, roots)
    u = position.basis
    assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-15


def test_cyclic_model_rejects_zero():
    with pytest.raises(ValueError):
        cyclic_model(0)


def test_cyclic_shift_moves_basis():
    n = 4
    _, position, characters = cyclic_model(n)
    b1 = integrate_scalar(characters[1], position)
    e0 = np.zeros(n)
    e0[0] = 1.0
    e1 = np.zeros(n)
    e1[1] = 1.0
    assert np.linalg.norm(b1 @ e0 - e1) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_cyclic_shift_group_law(n):
    _, position, characters = cyclic_model(n)
    shifts = [integrate_scalar(characters[j], position) for j in range(n)]
    eye = np.eye(n)
    for j in range(n):
        # unitary with operator norm exactly 1
        assert schatten_norm(shifts[j] @ shifts[j].conj().T - eye, INF) < 1e-12
        assert abs(schatten_norm(shifts[j], INF) - 1.0) < 1e-12
        for k in range(n):
            assert schatten_norm(shifts[j] @ shifts[k] - shifts[(j + k) % n], INF) < 1e-12
        # B_j e_k = e_{(j+k) mod n}
        for k in range(n):
            expected = eye[:, (j + k) % n]
            assert np.linalg.norm(shifts[j] @ eye[:, k] - expected) < 1e-12


def test_unimodular_diagonal_middle_has_unit_sup():
    n = 6
    _, _, characters = cyclic_model(n)
    table = np.zeros((n, n, n), dtype=complex)
    for j in range(n):
        table[:, j, j] = characters[j]
    assert abs(matrix_sup(table) - 1.0) < 1e-12


def test_sup_norm_accessors():
    assert scalar_sup(np.array([1.0, -2.0, 1j])) == 2.0
    assert abs(vector_sup(np.array([[3.0, 4.0], [1.0, 0.0]])) - 5.0) < 1e-12
    table = np.stack([np.eye(2), 2.0 * np.eye(2)])
    assert abs(matrix_sup(table) - 2.0) < 1e-12
    assert vector_sup(np.zeros((3, 0))) == 0.0


def _random_projections(seed, dim, sizes):
    u = haar_unitaries(random_complex(np.random.default_rng(seed), (dim, dim)))
    out, start = [], 0
    for size in sizes:
        cols = u[:, start : start + size]
        out.append(cols @ cols.conj().T)
        start += size
    return out


def test_from_basis_projections_are_column_blocks():
    u = haar_unitaries(random_complex(np.random.default_rng(21), (5, 5)))
    labels = np.array([1, 0, 1, 2, 0])
    e = FiniteSpectralMeasure.from_basis(u, labels, (0.0, 1.0, 2.0))
    assert e.dim == 5 and e.n_atoms == 3
    for i in range(3):
        cols = u[:, labels == i]
        assert schatten_norm(e.projections[i] - cols @ cols.conj().T, INF) < 1e-14
    assert_valid_measure(e)


def test_from_basis_rejects_bad_labels():
    with pytest.raises(ValueError):
        FiniteSpectralMeasure.from_basis(np.eye(2), np.array([0, 2]), (0.0, 1.0))
    with pytest.raises(ValueError):
        FiniteSpectralMeasure.from_basis(np.eye(2), np.array([0]), (0.0,))


def test_projection_views_are_cached_and_read_only():
    e = from_hermitian(np.diag([1.0, 1.0, 2.0]))
    stack = e.projection_stack()
    assert e.projection_stack() is stack
    # projections are views of the one cached stack, not a second cache
    assert all(np.shares_memory(p, stack) for p in e.projections)
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 5.0


def test_from_basis_leaves_the_caller_basis_writeable():
    u = np.eye(3, dtype=complex)
    FiniteSpectralMeasure.from_basis(u, np.zeros(3, dtype=int), (0.0,)).basis
    u[0, 0] = 1.0


def test_projection_measure_factors_into_its_eigenbasis():
    projs = _random_projections(22, 6, (2, 1, 3))
    e = FiniteSpectralMeasure(6, (0.0, 1.0, 2.0), tuple(projs))
    u, labels = e.basis, e.labels
    assert schatten_norm(u.conj().T @ u - np.eye(6), INF) < 1e-12
    assert sorted(np.bincount(labels, minlength=3)) == [1, 2, 3]
    for i, p in enumerate(projs):
        cols = u[:, labels == i]
        assert schatten_norm(cols @ cols.conj().T - p, INF) < 1e-12


def test_factoring_accepts_zero_rank_atom():
    projs = _random_projections(23, 4, (3, 1))
    zero = np.zeros((4, 4), dtype=complex)
    e = FiniteSpectralMeasure(4, (0.0, 1.0, 2.0), (projs[0], zero, projs[1]))
    assert list(np.bincount(e.labels, minlength=3)) == [3, 0, 1]


def test_factoring_rejects_scaled_all_ones():
    with pytest.raises(ValueError, match="projection"):
        FiniteSpectralMeasure(3, (0.0,), (np.full((3, 3), 0.5),))


def test_factoring_rejects_repeated_projection():
    # P_0 = P_1 are projections but not orthogonal to each other; the first
    # atom whose factored projection differs is named
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    with pytest.raises(ValueError, match="atom 0 is not an orthogonal projection"):
        FiniteSpectralMeasure(2, (0.0, 1.0), (p, p))


def test_factoring_rejects_incomplete_family():
    # orthogonal projections that do not sum to the identity
    projs = _random_projections(24, 4, (1, 2))
    with pytest.raises(ValueError):
        FiniteSpectralMeasure(4, (0.0, 1.0), tuple(projs))


def test_explicit_measure_checks_one_atom_at_a_time():
    # each projection is checked against its atom's factored projector in
    # turn, not against a second stack: about 1.40 stack sizes, where the
    # second stack took 2.26
    projs = _random_projections(27, 64, (8,) * 8)
    points = tuple(float(i) for i in range(8))
    tracemalloc.start()
    try:
        FiniteSpectralMeasure(64, points, projs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * np.stack(projs).nbytes
    # scaling P_3 and P_5 keeps every eigenvector of sum_i i P_i and every
    # label: only their own checks fail, and the first is named
    bad = list(projs)
    bad[3], bad[5] = (1 + 1e-6) * projs[3], (1 + 1e-3) * projs[5]
    with pytest.raises(ValueError) as refusal:
        FiniteSpectralMeasure(64, points, bad)
    message = str(refusal.value)
    assert message.startswith("atom 3 is not an orthogonal projection of a family resolving")
    assert 1e-6 * np.sqrt(8) / 2 < float(message.split("defect ")[1].split(" >")[0]) < 1e-5


def test_explicit_measure_keeps_the_given_projections():
    projs = _random_projections(25, 5, (2, 3))
    e = FiniteSpectralMeasure(5, (0.0, 1.0), tuple(projs))
    assert_valid_measure(e)
    for p, q in zip(projs, e.projections):
        assert np.array_equal(p, q)
    assert not e.basis.flags.writeable and not e.labels.flags.writeable


def test_from_basis_atom_without_columns_is_zero():
    e = FiniteSpectralMeasure.from_basis(np.eye(2), np.array([0, 0]), (0.0, 1.0))
    assert schatten_norm(e.projections[0] - np.eye(2), INF) == 0.0
    assert not np.any(e.projections[1])


def test_from_bases_equals_from_basis_one_at_a_time():
    rng = np.random.default_rng(26)
    bases = np.stack([haar_unitaries(random_complex(rng, (4, 4))) for _ in range(3)])
    labels = [np.array([0, 0, 1, 2]), np.array([1, 0, 1, 0]), np.zeros(4, dtype=int)]
    points = [(0.0, 1.0, 2.0), (5.0, 6.0), (7.0,)]
    measures = FiniteSpectralMeasure.from_bases(bases, labels, points)
    for e, u, lab, pts in zip(measures, bases, labels, points):
        one = FiniteSpectralMeasure.from_basis(u, lab, pts)
        assert e.basis.tobytes() == one.basis.tobytes() == u.tobytes()
        assert np.array_equal(e.labels, one.labels) and e.points == one.points
        assert not e.basis.flags.writeable and not e.labels.flags.writeable
        assert_valid_measure(e)
    assert bases.flags.writeable


@pytest.mark.parametrize(
    "bases, labels, points, message",
    [
        (np.full((2, 2, 2), np.nan), [[0, 0], [0, 0]], [(0.0,), (0.0,)], "non-finite"),
        (np.ones((2, 2, 3)), [[0, 0], [0, 0]], [(0.0,), (0.0,)], "square basis"),
        (np.ones((2, 2, 2)), [[0, 0, 0], [0, 0, 0]], [(0.0,), (0.0,)], "one label per column"),
        (np.ones((2, 2, 2)), [[0, 0], [0, 0]], [(0.0,)], "one point sequence per basis"),
        (np.ones((2, 2, 2)), [[0, 0], [0, 0]], [(0.0,), ()], "at least one atom"),
        (np.ones((2, 2, 2)), [[0, 0], [0, 2]], [(0.0,), (0.0, 1.0)], r"\[0, 2\)"),
        (np.ones((2, 2, 2)), [[-1, 0], [0, 0]], [(0.0,), (0.0,)], r"\[0, 1\)"),
    ],
)
def test_from_bases_checks_every_measure_of_the_stack(bases, labels, points, message):
    with pytest.raises(ValueError, match=message):
        FiniteSpectralMeasure.from_bases(bases, labels, points)


def test_from_basis_keeps_its_messages():
    with pytest.raises(ValueError, match="expected a 2-d matrix, got ndim=3"):
        FiniteSpectralMeasure.from_basis(np.ones((1, 2, 2)), [0, 0], (0.0,))
    with pytest.raises(ValueError, match=r"got basis \(2, 3\) and labels \(2,\)"):
        FiniteSpectralMeasure.from_basis(np.ones((2, 3)), [0, 0], (0.0,))
    with pytest.raises(ValueError, match=r"got basis \(2, 2\) and labels \(1,\)"):
        FiniteSpectralMeasure.from_basis(np.eye(2), [0], (0.0,))
    with pytest.raises(ValueError, match="need at least one atom"):
        FiniteSpectralMeasure.from_basis(np.eye(2), [0, 0], ())
    with pytest.raises(ValueError, match=r"column labels must lie in \[0, 2\)"):
        FiniteSpectralMeasure.from_basis(np.eye(2), [0, 2], (0.0, 1.0))
