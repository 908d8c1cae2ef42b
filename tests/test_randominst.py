"""Seeded random instances: the stacked QR of `random_measures` draws and
factors exactly as one measure at a time, with one QR per matrix, did."""

import numpy as np
import pytest

from moilab.randominst import random_instance, random_measure, random_measures, rng_for


def _reference_measure(rng, dim, n_atoms=None):
    """(basis, labels, points) drawn in the per-measure order: atom count,
    block sizes, Gaussian matrix, then its own QR and phase fix."""
    n = int(rng.integers(1, dim + 1)) if n_atoms is None else n_atoms
    sizes = rng.multinomial(dim - n, [1.0 / n] * n) + 1
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    basis = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return basis, np.repeat(np.arange(n), sizes), tuple(float(i) for i in range(n))


def _assert_same(measure, reference):
    basis, labels, points = reference
    assert measure.basis.tobytes() == basis.tobytes()
    assert np.array_equal(measure.labels, labels) and measure.points == points


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
@pytest.mark.parametrize("count", [1, 2, 6])
@pytest.mark.parametrize("n_atoms", [None, 1])
def test_random_measures_match_one_qr_per_matrix(dim, count, n_atoms):
    rng, ref = rng_for(31, dim, count), rng_for(31, dim, count)
    measures = random_measures(rng, dim, count, n_atoms)
    assert len(measures) == count
    for measure in measures:
        _assert_same(measure, _reference_measure(ref, dim, n_atoms))
    assert rng.standard_normal() == ref.standard_normal()


def test_random_measure_is_the_one_measure_case():
    rng, ref = rng_for(32), rng_for(32)
    for dim in (3, 7):
        _assert_same(random_measure(rng, dim), _reference_measure(ref, dim))
        _assert_same(random_measure(rng, dim, 2), _reference_measure(ref, dim, 2))
    assert rng.standard_normal() == ref.standard_normal()


@pytest.mark.parametrize("cls", ["projective", "chain", "like-first", "like-second"])
def test_random_instance_measures_match_one_qr_per_matrix(cls):
    """The measures, and the operators drawn right after them."""
    for seed in range(20):
        inst = random_instance(rng_for(33, seed), cls, (2, 8), (1, 4))
        ref = rng_for(33, seed)
        dim = int(ref.integers(2, 9))
        arity = int(ref.integers(3, 5)) if cls.startswith("like") else int(ref.integers(2, 5))
        assert (inst.dim, inst.arity) == (dim, arity)
        for measure in inst.measures:
            _assert_same(measure, _reference_measure(ref, dim))
        for t in inst.operators:
            z = ref.standard_normal((dim, dim)) + 1j * ref.standard_normal((dim, dim))
            assert t.tobytes() == (z / np.sqrt(dim)).tobytes()


def test_random_measures_refuse_a_bad_atom_count():
    with pytest.raises(ValueError, match="n_atoms"):
        random_measures(rng_for(34), 3, 2, 4)
