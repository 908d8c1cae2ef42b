"""Finite spectral measures: orthogonal projection families resolving the
identity, held in their eigenbasis, tables of functions on their atoms, and
integration sum_i f(x_i) P_i.

Every measure is valid once built: explicit projections are factored and
checked at construction, and a basis with column labels is valid by form.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import adjoint, as_matrix, hermitian_eig

MEASURE_TOL = 1e-10
DEFAULT_MERGE_TOL = 1e-8


class FiniteSpectralMeasure:
    """Atoms (point label, projection) with mutually orthogonal projections
    summing to the identity. Points are labels for reporting; evaluation only
    ever indexes tables by atom position.

    The measure is held in its eigenbasis: read-only attributes `basis`, a
    unitary (dim x dim), and `labels`, the atom index of each basis column,
    so that P_i is the product of the columns labelled i with their adjoint.

    `FiniteSpectralMeasure(dim, points, projections)` factors explicit
    projections at construction, through the eigenbasis of sum_i i P_i, and
    raises ValueError, naming the first atom that fails, unless they are
    orthogonal projections resolving the identity within MEASURE_TOL (in the
    Frobenius norm, an upper bound for the operator norm). It keeps the
    caller's projections as its stack. `from_basis` builds a measure from its
    eigenbasis directly and derives the projections on first use.
    `projections` and `projection_stack()` are cached read-only views.
    """

    def __init__(self, dim: int, points, projections):
        if dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        points = tuple(points)
        projections = tuple(projections)
        if len(points) != len(projections) or not points:
            raise ValueError("need one point per projection and at least one atom")
        projs = tuple(as_matrix(p) for p in projections)
        for p in projs:
            if p.shape != (dim, dim):
                raise ValueError(f"projection shape {p.shape} != ({dim}, {dim})")
        n = len(points)
        stack = np.stack(projs)
        # eigenvalue i marks the range of P_i; each column takes its rounded one
        w, u = np.linalg.eigh(np.tensordot(np.arange(n), stack, axes=1))
        labels = np.rint(w).astype(np.intp)
        if labels.min() < 0 or labels.max() >= n:
            raise ValueError(
                "projections do not resolve the identity: sum_i i P_i has "
                f"eigenvalues outside [0, {n - 1}]"
            )
        for i, p in enumerate(_projectors(u, labels, n)):
            defect = float(np.linalg.norm(stack[i] - p))
            if not defect <= MEASURE_TOL:
                raise ValueError(
                    f"atom {i} is not an orthogonal projection of a family resolving "
                    f"the identity: defect {defect:.3e} > {MEASURE_TOL:g}"
                )
        self.dim = dim
        self.points = points
        self.basis = _read_only(u)
        self.labels = _read_only(labels)
        self._stack = _read_only(stack)
        self._projections = None

    @classmethod
    def from_basis(cls, basis, labels, points) -> "FiniteSpectralMeasure":
        """Measure with P_i = U[:, labels == i] U[:, labels == i]^* for a
        unitary U; an atom whose label no column carries has P_i = 0."""
        u = as_matrix(basis)
        labels = np.asarray(labels, dtype=np.intp)
        points = tuple(points)
        dim = u.shape[0]
        if u.shape != (dim, dim) or labels.shape != (dim,):
            raise ValueError(
                f"need a square basis and one label per column, got basis "
                f"{u.shape} and labels {labels.shape}"
            )
        if not points:
            raise ValueError("need at least one atom")
        if labels.min() < 0 or labels.max() >= len(points):
            raise ValueError(f"column labels must lie in [0, {len(points)})")
        measure = cls.__new__(cls)
        measure.dim = dim
        measure.points = points
        measure.basis = _read_only(u)
        measure.labels = _read_only(labels)
        measure._stack = measure._projections = None
        return measure

    @property
    def n_atoms(self) -> int:
        return len(self.points)

    @property
    def projections(self) -> tuple:
        if self._projections is None:
            self._projections = tuple(self.projection_stack())
        return self._projections

    def projection_stack(self) -> np.ndarray:
        """All projections as one (n_atoms, dim, dim) array."""
        if self._stack is None:
            self._stack = _read_only(_projectors(self.basis, self.labels, self.n_atoms))
        return self._stack

    @classmethod
    def trivial(cls, dim: int, point=0.0) -> "FiniteSpectralMeasure":
        return cls.from_basis(
            np.eye(dim, dtype=np.complex128), np.zeros(dim, dtype=np.intp), (point,)
        )


def _projectors(u: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """(n, dim, dim) stack of P_i = U[:, labels == i] U[:, labels == i]^*."""
    stack = np.empty((n,) + u.shape, dtype=np.complex128)
    for i in range(n):
        cols = u[:, labels == i]
        np.matmul(cols, adjoint(cols), out=stack[i])
    return stack


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view, leaving the caller's array writeable."""
    view = a.view()
    view.flags.writeable = False
    return view


def integrate_scalar(table, measure: FiniteSpectralMeasure) -> np.ndarray:
    """sum_i table[i] P_i for a table with its atom axis first: one operator
    (dim, dim) for a scalar table (n_atoms,), a stack of operators
    (L, dim, dim) for a vector table (n_atoms, L)."""
    t = np.asarray(table, dtype=np.complex128)
    if t.ndim == 0 or t.shape[0] != measure.n_atoms:
        raise ValueError(
            f"table has shape {t.shape} for a measure with {measure.n_atoms} atoms"
        )
    return np.tensordot(t, measure.projection_stack(), axes=([0], [0]))


def from_hermitian(
    m, merge_tol: float = DEFAULT_MERGE_TOL
) -> FiniteSpectralMeasure:
    """Spectral measure of a Hermitian matrix, clustering eigenvalues whose
    consecutive gaps are <= merge_tol into single atoms. merge_tol must be
    finite and >= 0: a NaN would merge every eigenvalue into one atom."""
    if not 0.0 <= merge_tol < math.inf:
        raise ValueError(f"merge_tol must be a finite number >= 0, got {merge_tol!r}")
    w, v = hermitian_eig(m)
    dim = v.shape[0]
    points = []
    labels = np.empty(dim, dtype=np.intp)
    start = 0
    for i in range(1, dim + 1):
        if i == dim or w[i] - w[i - 1] > merge_tol:
            labels[start:i] = len(points)
            points.append(float(np.mean(w[start:i])))
            start = i
    return FiniteSpectralMeasure.from_basis(v, labels, points)


def cyclic_model(n: int):
    """Finite cyclic model of dimension n in frequency coordinates.

    Returns (fourier_measure, position_measure, characters):
      - fourier_measure: rank-one projections onto the standard (frequency)
        basis e_0..e_{n-1}, atom labels 0..n-1;
      - position_measure: rank-one projections onto the position basis
        u_m[j] = exp(-2 pi i j m / n) / sqrt(n), atom labels the n-th roots
        of unity zeta_m = exp(2 pi i m / n);
      - characters: dict j -> per-atom values zeta^j on the position measure.
        Integrating characters[j] against position_measure gives the cyclic
        shift B_j with B_j e_k = e_{(j+k) mod n}.
    """
    if n < 1:
        raise ValueError("cyclic model needs n >= 1")
    grid = np.arange(n)
    fourier = FiniteSpectralMeasure.from_basis(
        np.eye(n, dtype=np.complex128), grid, range(n)
    )
    # u[:, m] is the position vector for the root of unity zeta_m
    u = np.exp(-2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n)
    roots = np.exp(2j * np.pi * grid / n)
    position = FiniteSpectralMeasure.from_basis(u, grid, roots)
    characters = {j: roots**j for j in range(n)}
    return fourier, position, characters


def scalar_sup(values) -> float:
    """sup-norm of a per-atom scalar table."""
    v = np.asarray(values, dtype=np.complex128)
    return float(np.abs(v).max()) if v.size else 0.0


def vector_sup(table) -> float:
    """max over atoms of the Euclidean norm; table shape (n_atoms, width)."""
    t = np.asarray(table, dtype=np.complex128)
    if t.size == 0:
        return 0.0
    return float(np.linalg.norm(t, axis=1).max())


def matrix_sup(table) -> float:
    """max over atoms of the largest singular value; table (n_atoms, L, L')."""
    t = np.asarray(table, dtype=np.complex128)
    if t.size == 0:
        return 0.0
    return float(np.linalg.svd(t, compute_uv=False)[:, 0].max())
