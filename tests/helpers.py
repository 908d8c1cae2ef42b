"""Helpers that several test modules share."""

import numpy as np

from moilab import evaluate
from moilab.linalg import adjoint
from moilab.spectral import FiniteSpectralMeasure

MOVE = evaluate._move  # the production move, for stand-ins that patch it


def trivial_measure(dim: int) -> FiniteSpectralMeasure:
    """The one-atom measure on C^dim, whose projection is the identity."""
    return FiniteSpectralMeasure.from_basis(
        np.eye(dim, dtype=np.complex128), np.zeros(dim, np.intp), (0.0,)
    )


def dense_move(t, u, v, eye):
    """evaluate._move as one dense product, never a pair or a scaled
    diagonal: _product of U^*, T and V, skipping an identity basis."""
    return (evaluate._product(None if eye[0] else adjoint(u), t, None if eye[1] else v),)

