"""Schatten norms, exponents and Hermitian eigensystems."""

import math

import numpy as np
import pytest

from moilab.linalg import (
    INF,
    harmonic_exponent,
    hermitian_eig,
    operator_norm,
    random_unitary,
    schatten_norm,
    sharp,
    singular_values,
)

EXPONENTS = [1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, INF]


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_singular_values_diagonal():
    s = singular_values(np.diag([3.0, 0.0, 4.0]))
    assert np.allclose(s, [4.0, 3.0, 0.0])


def test_singular_values_rank_one():
    rng = np.random.default_rng(7)
    u = random_matrix(rng, 4, 1)[:, 0]
    v = random_matrix(rng, 4, 1)[:, 0]
    u *= 2.0 / np.linalg.norm(u)
    v *= 3.0 / np.linalg.norm(v)
    s = singular_values(np.outer(u, v.conj()))
    assert abs(s[0] - 6.0) < 1e-12
    assert np.all(s[1:] < 1e-12)


def test_singular_values_match_gram_eigenvalues():
    # independent oracle: eigenvalues of the Hermitian product M*M
    rng = np.random.default_rng(11)
    m = random_matrix(rng, 4)
    expected = np.sqrt(np.maximum(np.linalg.eigvalsh(m.conj().T @ m), 0.0))[::-1]
    assert np.max(np.abs(singular_values(m) - expected)) <= 1e-10 * operator_norm(m)


def test_singular_values_reject_nonfinite():
    with pytest.raises(ValueError):
        singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        singular_values(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_schatten_norm_values():
    m = np.diag([3.0, 4.0])
    assert abs(schatten_norm(m, 1) - 7.0) < 1e-12
    assert abs(schatten_norm(m, INF) - 4.0) < 1e-12
    # (3^(1/2) + 4^(1/2))^2 = 7 + 4 sqrt(3)
    assert abs(schatten_norm(m, 0.5) - (7.0 + 4.0 * np.sqrt(3.0))) < 1e-10


def test_schatten_norm_rejects_bad_exponent():
    m = np.eye(2)
    for p in [0.0, -1.0, math.nan]:
        with pytest.raises(ValueError):
            schatten_norm(m, p)


def test_schatten_unitary_invariance():
    rng = np.random.default_rng(23)
    m = random_matrix(rng, 5)
    u = random_unitary(rng, 5)
    w = random_unitary(rng, 5)
    for p in EXPONENTS:
        a = schatten_norm(m, p)
        b = schatten_norm(u @ m @ w, p)
        assert abs(a - b) <= 1e-10 * a


def test_schatten_monotone_in_p():
    rng = np.random.default_rng(29)
    m = random_matrix(rng, 5)
    norms = [schatten_norm(m, p) for p in EXPONENTS]
    for lo, hi in zip(norms, norms[1:]):
        assert hi <= lo * (1.0 + 1e-12)


def test_schatten_hoelder():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = random_matrix(rng, 4)
        b = random_matrix(rng, 4)
        for p in EXPONENTS:
            for q in EXPONENTS:
                r = harmonic_exponent([p, q])
                lhs = schatten_norm(a @ b, r)
                rhs = schatten_norm(a, p) * schatten_norm(b, q)
                assert lhs <= rhs * (1.0 + 1e-9)


def test_hermitian_eig_identity_and_pauli():
    w, _ = hermitian_eig(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    w, _ = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(37)
    m = random_matrix(rng, 5)
    m = m + m.conj().T
    w, v = hermitian_eig(m)
    scale = operator_norm(m)
    assert operator_norm(m - (v * w) @ v.conj().T) <= 1e-10 * scale
    assert operator_norm(v.conj().T @ v - np.eye(5)) <= 1e-10
    assert np.all(np.diff(w) >= 0.0)


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sharp():
    assert sharp(3.0) == 3.0
    assert sharp(2.0) == 2.0
    assert sharp(1.5) == 2.0
    assert sharp(INF) == INF
    for p in [0.5, 2.0, 5.0, INF]:
        assert sharp(sharp(p)) == sharp(p)


def test_harmonic_exponent():
    assert harmonic_exponent([2, 2]) == 1.0
    assert harmonic_exponent([4, 4]) == 2.0
    assert harmonic_exponent([INF, INF]) == INF
    assert harmonic_exponent([INF, 3]) == 3.0
