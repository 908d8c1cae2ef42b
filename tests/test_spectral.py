"""Spectral measures, atom tables, and the cyclic model."""

import numpy as np
import pytest

from moilab.linalg import operator_norm, random_unitary
from moilab.spectral import (
    FiniteSpectralMeasure,
    cyclic_model,
    from_hermitian,
    integrate_scalar,
    matrix_sup,
    scalar_sup,
    validate_spectral_measure,
    vector_sup,
)


def test_validate_trivial_measure():
    report = validate_spectral_measure(FiniteSpectralMeasure.trivial(3))
    assert report.ok


def test_validate_fourier_projections():
    fourier, position, _ = cyclic_model(5)
    assert validate_spectral_measure(fourier).ok
    assert validate_spectral_measure(position).ok


def test_validate_catches_repeated_projection():
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    measure = FiniteSpectralMeasure(2, (0.0, 1.0), (p, p))
    report = validate_spectral_measure(measure)
    assert not report.ok
    assert report.worst_orthogonality > 1e-10


def test_integrate_constant_is_identity():
    e = from_hermitian(np.diag([1.0, 2.0, 3.0]))
    assert operator_norm(integrate_scalar(np.ones(3), e) - np.eye(3)) < 1e-12


def test_integrate_indicator_picks_projection():
    e = from_hermitian(np.diag([1.0, 2.0, 3.0]))
    phi = np.zeros(3)
    phi[1] = 1.0
    assert operator_norm(integrate_scalar(phi, e) - e.projections[1]) < 1e-12


def test_integrate_square_function():
    e = from_hermitian(np.diag([1.0, 2.0, 3.0]))
    phi = np.array([x**2 for x in e.points])
    assert operator_norm(integrate_scalar(phi, e) - np.diag([1.0, 4.0, 9.0])) < 1e-12


def test_integrate_rejects_wrong_length():
    e = FiniteSpectralMeasure.trivial(2)
    with pytest.raises(ValueError):
        integrate_scalar(np.ones(3), e)


def test_integrate_linear_and_multiplicative():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    e = from_hermitian(h + h.conj().T)
    phi = rng.standard_normal(e.n_atoms) + 1j * rng.standard_normal(e.n_atoms)
    psi = rng.standard_normal(e.n_atoms) + 1j * rng.standard_normal(e.n_atoms)
    lin = integrate_scalar(2.0 * phi + psi, e)
    assert operator_norm(lin - 2.0 * integrate_scalar(phi, e) - integrate_scalar(psi, e)) < 1e-10
    prod = integrate_scalar(phi * psi, e)
    assert operator_norm(prod - integrate_scalar(phi, e) @ integrate_scalar(psi, e)) < 1e-10


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
    assert validate_spectral_measure(e).ok
    rebuilt = sum(x * p for x, p in zip(e.points, e.projections))
    assert operator_norm(rebuilt - h) <= 1e-9 * operator_norm(h)


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
        assert operator_norm(e2.projections[match] - p) < 1e-8


def test_from_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        from_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_cyclic_model_trivial():
    fourier, position, characters = cyclic_model(1)
    assert fourier.n_atoms == position.n_atoms == 1
    assert np.allclose(characters[0], [1.0])
    b0 = integrate_scalar(characters[0], position)
    assert operator_norm(b0 - np.eye(1)) < 1e-12


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
        assert operator_norm(shifts[j] @ shifts[j].conj().T - eye) < 1e-12
        assert abs(operator_norm(shifts[j]) - 1.0) < 1e-12
        for k in range(n):
            assert operator_norm(shifts[j] @ shifts[k] - shifts[(j + k) % n]) < 1e-12
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
    u = random_unitary(np.random.default_rng(seed), dim)
    out, start = [], 0
    for size in sizes:
        cols = u[:, start : start + size]
        out.append(cols @ cols.conj().T)
        start += size
    return out


def test_from_basis_projections_are_column_blocks():
    u = random_unitary(np.random.default_rng(21), 5)
    labels = np.array([1, 0, 1, 2, 0])
    e = FiniteSpectralMeasure.from_basis(u, labels, (0.0, 1.0, 2.0))
    assert e.dim == 5 and e.n_atoms == 3
    for i in range(3):
        cols = u[:, labels == i]
        assert operator_norm(e.projections[i] - cols @ cols.conj().T) < 1e-14
    assert validate_spectral_measure(e).ok


def test_from_basis_rejects_bad_labels():
    with pytest.raises(ValueError):
        FiniteSpectralMeasure.from_basis(np.eye(2), np.array([0, 2]), (0.0, 1.0))
    with pytest.raises(ValueError):
        FiniteSpectralMeasure.from_basis(np.eye(2), np.array([0]), (0.0,))


def test_projection_views_are_cached_and_read_only():
    e = from_hermitian(np.diag([1.0, 1.0, 2.0]))
    stack = e.projection_stack()
    assert e.projection_stack() is stack
    assert e.projections is e.projections
    assert np.shares_memory(e.projections[0], stack)
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
    assert operator_norm(u.conj().T @ u - np.eye(6)) < 1e-12
    assert sorted(np.bincount(labels, minlength=3)) == [1, 2, 3]
    for i, p in enumerate(projs):
        cols = u[:, labels == i]
        assert operator_norm(cols @ cols.conj().T - p) < 1e-12


def test_factoring_accepts_zero_rank_atom():
    projs = _random_projections(23, 4, (3, 1))
    zero = np.zeros((4, 4), dtype=complex)
    e = FiniteSpectralMeasure(4, (0.0, 1.0, 2.0), (projs[0], zero, projs[1]))
    assert list(np.bincount(e.labels, minlength=3)) == [3, 0, 1]


def test_factoring_rejects_scaled_all_ones():
    e = FiniteSpectralMeasure(3, (0.0,), (np.full((3, 3), 0.5),))
    with pytest.raises(ValueError, match="projection"):
        e.basis


def test_factoring_rejects_repeated_projection():
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    e = FiniteSpectralMeasure(2, (0.0, 1.0), (p, p))
    with pytest.raises(ValueError):
        e.labels


def test_factoring_rejects_incomplete_family():
    # orthogonal projections that do not sum to the identity
    projs = _random_projections(24, 4, (1, 2))
    e = FiniteSpectralMeasure(4, (0.0, 1.0), tuple(projs))
    with pytest.raises(ValueError):
        e.basis


def test_from_basis_atom_without_columns_is_zero():
    e = FiniteSpectralMeasure.from_basis(np.eye(2), np.array([0, 0]), (0.0, 1.0))
    assert operator_norm(e.projections[0] - np.eye(2)) == 0.0
    assert not np.any(e.projections[1])
