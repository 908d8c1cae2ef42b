"""Finite spectral measures: orthogonal projection families resolving the
identity, held in their eigenbasis, tables of functions on their atoms, and
integration sum_i f(x_i) P_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import adjoint, as_matrix, hermitian_eig, operator_norm

MEASURE_TOL = 1e-10
DEFAULT_MERGE_TOL = 1e-8


class FiniteSpectralMeasure:
    """Atoms (point label, projection) with mutually orthogonal projections
    summing to the identity. Points are labels for reporting; evaluation only
    ever indexes tables by atom position.

    The measure is held in its eigenbasis: a unitary `basis` (dim x dim) and
    `labels`, the atom index of each basis column, so that P_i is the product
    of the columns labelled i with their adjoint. `projections` and
    `projection_stack()` are views derived from that form, built at most once
    and then cached (read-only).

    `FiniteSpectralMeasure(dim, points, projections)` builds a measure from
    explicit projections and accepts any square matrices; such a measure
    factors itself on first access to `basis` or `labels`, which raises
    ValueError unless the projections are orthogonal and resolve the
    identity within MEASURE_TOL. `from_basis` builds a measure from its
    eigenbasis directly.
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
        self.dim = dim
        self.points = points
        self._basis = self._labels = None
        self._stack = _read_only(np.stack(projs))
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
        measure._basis = _read_only(u)
        measure._labels = _read_only(labels)
        measure._stack = measure._projections = None
        return measure

    @property
    def n_atoms(self) -> int:
        return len(self.points)

    @property
    def basis(self) -> np.ndarray:
        """The unitary whose columns span the atoms' ranges."""
        if self._basis is None:
            self._factor()
        return self._basis

    @property
    def labels(self) -> np.ndarray:
        """Atom index of each column of `basis`."""
        if self._labels is None:
            self._factor()
        return self._labels

    @property
    def projections(self) -> tuple:
        if self._projections is None:
            self._projections = tuple(self.projection_stack())
        return self._projections

    def projection_stack(self) -> np.ndarray:
        """All projections as one (n_atoms, dim, dim) array."""
        if self._stack is None:
            u, labels = self._basis, self._labels
            stack = np.empty((self.n_atoms, self.dim, self.dim), dtype=np.complex128)
            for i in range(self.n_atoms):
                cols = u[:, labels == i]
                np.matmul(cols, adjoint(cols), out=stack[i])
            self._stack = _read_only(stack)
        return self._stack

    def _factor(self) -> None:
        """Eigenbasis of sum_i i P_i: eigenvalue i marks the range of P_i.

        Each column is labelled with its rounded eigenvalue, and every atom is
        checked against the columns labelled with it, in the Frobenius norm
        (an upper bound for the operator norm)."""
        stack = self._stack
        w, u = np.linalg.eigh(np.tensordot(np.arange(self.n_atoms), stack, axes=1))
        labels = np.rint(w).astype(np.intp)
        if labels.min() < 0 or labels.max() >= self.n_atoms:
            raise ValueError(
                "projections do not resolve the identity: sum_i i P_i has "
                f"eigenvalues outside [0, {self.n_atoms - 1}]"
            )
        for i in range(self.n_atoms):
            cols = u[:, labels == i]
            defect = float(np.linalg.norm(stack[i] - cols @ adjoint(cols)))
            if not defect <= MEASURE_TOL:
                raise ValueError(
                    f"atom {i} is not an orthogonal projection of a family resolving "
                    f"the identity: defect {defect:.3e} > {MEASURE_TOL:g}"
                )
        self._basis = _read_only(u)
        self._labels = _read_only(labels)

    @classmethod
    def trivial(cls, dim: int, point=0.0) -> "FiniteSpectralMeasure":
        return cls.from_basis(
            np.eye(dim, dtype=np.complex128), np.zeros(dim, dtype=np.intp), (point,)
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view, leaving the caller's array writeable."""
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class MeasureValidation:
    ok: bool
    worst_hermiticity: float
    worst_idempotency: float
    worst_orthogonality: float
    completeness: float
    points_distinct: bool


def validate_spectral_measure(
    measure: FiniteSpectralMeasure, tol: float = MEASURE_TOL
) -> MeasureValidation:
    """Report-style check of P = P*, P^2 = P, P_i P_j = 0 (i != j),
    sum P_i = I, and pairwise distinct points."""
    projs = measure.projections
    herm = max(operator_norm(p - adjoint(p)) for p in projs)
    idem = max(operator_norm(p @ p - p) for p in projs)
    orth = 0.0
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            orth = max(orth, operator_norm(projs[i] @ projs[j]))
    total = sum(projs)
    comp = operator_norm(total - np.eye(measure.dim))
    distinct = len(set(measure.points)) == len(measure.points)
    ok = herm <= tol and idem <= tol and orth <= tol and comp <= tol and distinct
    return MeasureValidation(ok, herm, idem, orth, comp, distinct)


def integrate_scalar(values, measure: FiniteSpectralMeasure) -> np.ndarray:
    """sum_i values[i] * P_i for one complex value per atom."""
    v = np.asarray(values, dtype=np.complex128)
    if v.shape != (measure.n_atoms,):
        raise ValueError(
            f"table has {v.shape} values for a measure with {measure.n_atoms} atoms"
        )
    return np.einsum("i,iab->ab", v, measure.projection_stack())


def from_hermitian(
    m, merge_tol: float = DEFAULT_MERGE_TOL
) -> FiniteSpectralMeasure:
    """Spectral measure of a Hermitian matrix, clustering eigenvalues whose
    consecutive gaps are <= merge_tol into single atoms."""
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
