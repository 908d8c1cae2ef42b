"""Helpers that several test modules share."""

import numpy as np

from moilab.spectral import FiniteSpectralMeasure


def trivial_measure(dim: int) -> FiniteSpectralMeasure:
    """The one-atom measure on C^dim, whose projection is the identity."""
    return FiniteSpectralMeasure.from_basis(
        np.eye(dim, dtype=np.complex128), np.zeros(dim, np.intp), (0.0,)
    )
