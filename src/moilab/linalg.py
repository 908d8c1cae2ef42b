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


def as_matrix(a, stacked: bool = False) -> np.ndarray:
    """Coerce to a 2-d complex128 array, or with `stacked` to a (k, rows, cols)
    stack of k >= 1 of them, rejecting empty or non-finite input."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 + stacked:
        what = "stack of matrices" if stacked else "2-d matrix"
        raise ValueError(f"expected a {what}, got ndim={m.ndim}")
    if 0 in m.shape:
        raise ValueError(f"matrix must be at least 1x1, got shape {m.shape}")
    if not np.isfinite(m).all():
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


def schatten_norms(ms, ps) -> list[float]:
    """The Schatten (quasi)norm of each matrix of a stack in its own exponent:
    ms holds k matrices of one shape, ps k exponents, or ms one matrix and
    ps every exponent wanted of it. One SVD call covers the stack; each row of
    singular values is clamped (SV_CLAMP_RTOL) and summed by itself, so every
    norm equals the one-matrix `schatten_norm` bit for bit."""
    ps = [check_exponent(p) for p in ps]
    s = np.linalg.svd(as_matrix(ms, stacked=True), compute_uv=False)
    s = np.where(s < SV_CLAMP_RTOL * s[:, :1], 0.0, s)  # a zero row stays as it is
    if len(s) != len(ps):  # one matrix to every exponent
        s = np.broadcast_to(s, (len(ps), s.shape[1]))
    return [
        float(row[0]) if p == INF else float(np.sum(row**p) ** (1.0 / p))
        for row, p in zip(s, ps)
    ]


def schatten_norm(m, p) -> float:
    """(sum s_i^p)^(1/p); the largest singular value for p = inf.

    For p < 1 this is only a quasinorm (no triangle inequality).
    """
    return schatten_norms(as_matrix(m)[None], [p])[0]


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a Hermitian matrix: ascending eigenvalues, orthonormal columns.

    Rejects non-square input and matrices failing ||M - M*|| <= HERM_RTOL * ||M||.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Hermitian eigensystem needs a square matrix, got {m.shape}")
    scale, defect = schatten_norms([m, m - adjoint(m)], [INF, INF])
    if defect > HERM_RTOL * max(scale, 1e-300):
        raise ValueError(
            f"matrix is not Hermitian: ||M - M*|| = {defect:.3e} > {HERM_RTOL:.0e} * ||M||"
        )
    w, v = np.linalg.eigh((m + adjoint(m)) / 2.0)
    return w, v


def sequence_norm(x, p) -> float:
    """l^p (quasi)norm of a 1-d sequence; max(|x|) for p = inf. A real
    sequence's moduli are taken as they are: |x + 0j| is exactly |x|. A norm
    beyond float range is inf, without a warning."""
    p = check_exponent(p)
    x = np.asarray(x)
    ax = np.abs(x.astype(float if x.dtype.kind in "biuf" else np.complex128, copy=False))
    if ax.size == 0:
        return 0.0
    if p == INF:
        return float(ax.max())
    with np.errstate(over="ignore"):
        return float(np.sum(ax**p) ** (1.0 / p))


def haar_unitaries(z: np.ndarray) -> np.ndarray:
    """The Q of the QR of each (..., d, d) matrix of z, with its columns'
    phases fixed by R's diagonal; one QR call for the whole stack."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_complex(rng: np.random.Generator, shape: Sequence[int]) -> np.ndarray:
    """One draw of the real parts, then the imaginary parts: `a + 1j * b` of two draws."""
    z = np.empty(tuple(shape), dtype=np.complex128)
    z.real, z.imag = rng.standard_normal((2, *z.shape))
    return z
