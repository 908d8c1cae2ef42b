"""Dense complex matrix core: Schatten (quasi)norms and Hermitian eigensystems.

Exponents live in (0, inf]. Infinity is IEEE ``math.inf`` (exact arithmetic:
``1/inf == 0``, ``max(inf, 2) == inf``), never a finite sentinel value.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

INF = math.inf

# Gate on ||M - M*|| relative to ||M|| for Hermitian-only operations.
HERM_RTOL = 1e-10
# Singular values below this fraction of s_max are treated as exact zeros
# before fractional powers are taken (keeps 0^0 and p < 1 noise out).
SV_CLAMP_RTOL = 1e-13


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting empty or non-finite input."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def check_exponent(p) -> float:
    """Validate a Schatten exponent: a real in (0, inf]."""
    p = float(p)
    if math.isnan(p) or p <= 0.0:
        raise ValueError(f"Schatten exponent must lie in (0, inf], got {p}")
    return p


def sharp(p) -> float:
    """max(p, 2): the effective exponent for the sharp Schatten class."""
    return max(check_exponent(p), 2.0)


def harmonic_exponent(ps: Iterable[float]) -> float:
    """r with 1/r = sum(1/p_i); inf contributes 0, all-inf gives r = inf."""
    total = 0.0
    for p in ps:
        p = check_exponent(p)
        if p != INF:
            total += 1.0 / p
    return INF if total == 0.0 else 1.0 / total


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(m, -1, -2))


def singular_values(m) -> np.ndarray:
    """Singular values in descending order (length min(rows, cols))."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def _clamped_singular_values(m) -> np.ndarray:
    s = singular_values(m)
    if s.size and s[0] > 0.0:
        s = np.where(s < SV_CLAMP_RTOL * s[0], 0.0, s)
    return s


def schatten_norm(m, p) -> float:
    """(sum s_i^p)^(1/p); the largest singular value for p = inf.

    For p < 1 this is only a quasinorm (no triangle inequality).
    """
    p = check_exponent(p)
    s = _clamped_singular_values(m)
    if p == INF:
        return float(s[0]) if s.size else 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def operator_norm(m) -> float:
    return schatten_norm(m, INF)


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a Hermitian matrix: ascending eigenvalues, orthonormal columns.

    Rejects non-square input and matrices failing ||M - M*|| <= HERM_RTOL * ||M||.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Hermitian eigensystem needs a square matrix, got {m.shape}")
    scale = operator_norm(m)
    defect = operator_norm(m - adjoint(m))
    if defect > HERM_RTOL * max(scale, 1e-300):
        raise ValueError(
            f"matrix is not Hermitian: ||M - M*|| = {defect:.3e} > {HERM_RTOL:.0e} * ||M||"
        )
    w, v = np.linalg.eigh((m + adjoint(m)) / 2.0)
    return w, v


def sequence_norm(x, p) -> float:
    """l^p (quasi)norm of a 1-d sequence; max(|x|) for p = inf."""
    p = check_exponent(p)
    ax = np.abs(np.asarray(x, dtype=np.complex128))
    if ax.size == 0:
        return 0.0
    if p == INF:
        return float(ax.max())
    return float(np.sum(ax**p) ** (1.0 / p))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_complex(rng: np.random.Generator, shape: Sequence[int]) -> np.ndarray:
    return rng.standard_normal(tuple(shape)) + 1j * rng.standard_normal(tuple(shape))
