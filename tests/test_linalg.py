"""Schatten norms, exponents and Hermitian eigensystems."""

import math

import numpy as np
import pytest

from moilab.linalg import (
    INF,
    SV_CLAMP_RTOL,
    harmonic_exponent,
    haar_unitaries,
    hermitian_eig,
    random_complex,
    schatten_norm,
    schatten_norms,
    sequence_norm,
    sharp,
)

EXPONENTS = [1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, INF]


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


# the singular values, as the Schatten norms read them: p = inf, 1 and 2 give
# the largest, their sum and their root sum of squares


def test_singular_values_diagonal():
    assert np.allclose(schatten_norms(np.diag([3.0, 0.0, 4.0])[None], [INF, 1, 2]), [4.0, 7.0, 5.0])


def test_singular_values_rank_one():
    rng = np.random.default_rng(7)
    u = random_matrix(rng, 4, 1)[:, 0]
    v = random_matrix(rng, 4, 1)[:, 0]
    u *= 2.0 / np.linalg.norm(u)
    v *= 3.0 / np.linalg.norm(v)
    s_inf, s_1 = schatten_norms(np.outer(u, v.conj())[None], [INF, 1])
    assert abs(s_inf - 6.0) < 1e-12
    assert abs(s_1 - 6.0) < 1e-12  # the other three vanish


def test_singular_values_match_gram_eigenvalues():
    # independent oracle: eigenvalues of the Hermitian product M*M
    rng = np.random.default_rng(11)
    m = random_matrix(rng, 4)
    s = np.sqrt(np.maximum(np.linalg.eigvalsh(m.conj().T @ m), 0.0))
    expected = [s.max(), s.sum(), np.sqrt(np.sum(s**2))]
    got = schatten_norms(m[None], [INF, 1, 2])
    assert np.max(np.abs(np.subtract(got, expected))) <= 1e-10 * s.max()


def test_singular_values_reject_nonfinite():
    with pytest.raises(ValueError):
        schatten_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]), INF)
    with pytest.raises(ValueError):
        schatten_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]), INF)


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
    u = haar_unitaries(random_complex(rng, (5, 5)))
    w = haar_unitaries(random_complex(rng, (5, 5)))
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
    scale = schatten_norm(m, INF)
    assert schatten_norm(m - (v * w) @ v.conj().T, INF) <= 1e-10 * scale
    assert schatten_norm(v.conj().T @ v - np.eye(5), INF) <= 1e-10
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


def _reference_norm(m, p):
    """The Schatten norm of one matrix as its own SVD, clamp and sum."""
    s = np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)
    if s[0] > 0.0:
        s = np.where(s < SV_CLAMP_RTOL * s[0], 0.0, s)
    return float(s[0]) if p == INF else float(np.sum(s**p) ** (1.0 / p))


STACK_EXPONENTS = [0.5, 0.8, 1.0, 4.0 / 3.0, 2.0, 3.0, INF]


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 2), (2, 6), (8, 8)])
def test_stacked_schatten_norms_match_one_svd_per_matrix(shape):
    rng = np.random.default_rng(41)
    for k in (1, 2, 7):
        ms = [random_matrix(rng, *shape) for _ in range(k)]
        ms[0] = ms[0] * 0.0  # a zero matrix
        if k > 1:  # a singular value below the clamp
            u, s, vh = np.linalg.svd(ms[1], full_matrices=False)
            s[-1] = s[0] * 1e-15
            ms[1] = (u * s) @ vh
        ps = [STACK_EXPONENTS[(i * 3 + k) % len(STACK_EXPONENTS)] for i in range(k)]
        norms = schatten_norms(np.stack(ms), ps)
        assert norms == schatten_norms(ms, ps)
        assert norms == [_reference_norm(m, p) for m, p in zip(ms, ps)]
        assert norms == [schatten_norm(m, p) for m, p in zip(ms, ps)]


def test_stacked_schatten_norms_clamp_each_row_by_its_own_largest():
    small = np.diag([1.0, 1e-15])
    big = np.diag([1e20, 1.0])
    p = 0.5
    norms = schatten_norms([small, big], [p, p])
    assert norms == [1.0, 1e20]  # both second singular values fall under the clamp
    assert norms == [_reference_norm(small, p), _reference_norm(big, p)]


def test_one_matrix_gives_every_exponent():
    m = random_matrix(np.random.default_rng(42), 6)
    ps = STACK_EXPONENTS
    assert schatten_norms(m[None], ps) == [_reference_norm(m, p) for p in ps]


def test_stacked_schatten_norms_refuse_bad_stacks():
    good = np.eye(2)
    for bad in ([good, np.array([[np.nan, 0.0], [0.0, 1.0]])], [good, np.full((2, 2), np.inf)]):
        with pytest.raises(ValueError, match="non-finite"):
            schatten_norms(bad, [1.0, 1.0])
    for bad in (np.zeros((0, 2, 2)), np.zeros((1, 0, 2))):
        with pytest.raises(ValueError, match="at least 1x1"):
            schatten_norms(bad, [1.0])
    with pytest.raises(ValueError, match="stack of matrices"):
        schatten_norms(good, [1.0])
    with pytest.raises(ValueError, match="exponent"):
        schatten_norms([good], [0.0])
    with pytest.raises(ValueError):  # three matrices, two exponents
        schatten_norms([good] * 3, [1.0, 2.0])


@pytest.mark.parametrize("p", [0.5, 1, 1.5, 2, 3, math.inf])
def test_real_sequence_norm_equals_its_complex_cast_bit_for_bit(p):
    # a real sequence's moduli are taken directly; |x + 0j| is exactly |x|
    rng = np.random.default_rng(109)
    for n in (1, 7, 64, 1000):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        x[rng.random(n) < 0.2] = 0.0
        x[rng.random(n) < 0.1] = -0.0
        real, cast = sequence_norm(x, p), sequence_norm(x.astype(np.complex128), p)
        assert np.float64(real).tobytes() == np.float64(cast).tobytes()
    assert sequence_norm([-3, 0, 4], 2) == sequence_norm(np.array([-3, 0, 4], complex), 2) == 5.0


@pytest.mark.parametrize("shape", [(), (1,), (3,), (5, 5), (2, 3, 4), (0,), (4, 0, 2)])
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
def test_random_complex_is_the_two_draw_form_bit_for_bit(seed, shape):
    # one draw of real parts then imaginary parts gives the values of the
    # form it replaced, two draws and a + 1j * b, and leaves the generator
    # where the two draws left it
    two, one = np.random.default_rng(seed), np.random.default_rng(seed)
    want = np.asarray(two.standard_normal(shape) + 1j * two.standard_normal(shape))
    got = random_complex(one, shape)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert one.bit_generator.state == two.bit_generator.state
