"""Seeded random instances for verification campaigns.

Every generator takes a numpy Generator; campaigns derive one per trial from
(seed, suite, trial) so runs are reproducible and trials independent.
"""

from __future__ import annotations

import numpy as np

from .evaluate import MoiInstance
from .integrands import _LINKS, HaagerupChainRep, HaagerupLikeRep, ProjectiveRep, _like_bonds
from .linalg import haar_unitaries, random_complex
from .spectral import FiniteSpectralMeasure


def rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *[int(p) for p in path]])


def random_measure(
    rng: np.random.Generator, dim: int, n_atoms: int | None = None
) -> FiniteSpectralMeasure:
    """The one-measure case of `random_measures`."""
    return random_measures(rng, dim, 1, n_atoms)[0]


def random_measures(rng: np.random.Generator, dim: int, count: int, n_atoms=None) -> tuple:
    """`count` random projection families, from the column blocks of random
    unitaries. Each measure draws in turn its atom count (unless given), its
    block sizes and its complex Gaussian matrix; then one stacked QR makes
    the unitaries, bit for bit as one QR per matrix would, and `from_bases`
    validates them as one stack."""
    draws = []
    for _ in range(count):
        n = int(rng.integers(1, dim + 1)) if n_atoms is None else n_atoms
        if not 1 <= n <= dim:
            raise ValueError(f"need 1 <= n_atoms <= dim = {dim}, got {n}")
        sizes = rng.multinomial(dim - n, [1.0 / n] * n) + 1
        draws.append((n, sizes, random_complex(rng, (dim, dim))))
    return FiniteSpectralMeasure.from_bases(
        haar_unitaries(np.stack([z for _, _, z in draws])),
        [np.repeat(np.arange(n), sizes) for n, sizes, _ in draws],
        [map(float, range(n)) for n, _, _ in draws],
    )


def random_operator(rng: np.random.Generator, dim: int) -> np.ndarray:
    return random_complex(rng, (dim, dim)) / np.sqrt(dim)


def random_chain_rep(
    rng: np.random.Generator, atom_counts, widths
) -> HaagerupChainRep:
    widths = list(widths)
    if len(widths) != len(atom_counts) - 1:
        raise ValueError("need one width per chain link")
    head = random_complex(rng, (atom_counts[0], widths[0]))
    middles = tuple(
        random_complex(rng, (atom_counts[i + 1], widths[i], widths[i + 1]))
        for i in range(len(widths) - 1)
    )
    tail = random_complex(rng, (atom_counts[-1], widths[-1]))
    return HaagerupChainRep(head, middles, tail)


def random_projective_rep(
    rng: np.random.Generator, atom_counts, n_terms: int
) -> ProjectiveRep:
    terms = tuple(
        tuple(random_complex(rng, (n,)) for n in atom_counts)
        for _ in range(n_terms)
    )
    return ProjectiveRep(len(atom_counts), terms)


def random_like_rep(
    rng: np.random.Generator, kind: str, atom_counts, widths
) -> HaagerupLikeRep:
    """widths: one per chain link, in order (A, B, C, ...), one fewer than
    the factors; _like_bonds(kind, arity) places the links on the tables."""
    labels = _like_bonds(kind, len(atom_counts))
    if len(widths) != len(atom_counts) - 1:
        raise ValueError("need one width per bond letter")
    width = dict(zip(_LINKS, widths))
    shapes = [(n, *(width[b] for b in bonds)) for n, bonds in zip(atom_counts, labels)]
    return HaagerupLikeRep(kind, tuple(random_complex(rng, s) for s in shapes))


def random_instance(
    rng: np.random.Generator,
    rep_class: str,
    dim_range=(2, 6),
    width_range=(1, 3),
    arity: int | None = None,
) -> MoiInstance:
    """One random instance of the requested representation class.

    rep_class: 'projective', 'chain', 'like-first', or 'like-second'.
    """
    dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
    if arity is None:
        arity = int(rng.integers(3, 5)) if rep_class.startswith("like") else int(
            rng.integers(2, 5)
        )
    measures = random_measures(rng, dim, arity)
    operators = tuple(random_operator(rng, dim) for _ in range(arity - 1))
    counts = [e.n_atoms for e in measures]
    lo, hi = width_range
    if rep_class == "projective":
        rep = random_projective_rep(rng, counts, int(rng.integers(lo, hi + 1)))
    elif rep_class == "chain":
        widths = [int(w) for w in rng.integers(lo, hi + 1, size=arity - 1)]
        rep = random_chain_rep(rng, counts, widths)
    elif rep_class in ("like-first", "like-second"):
        kind = rep_class.split("-")[1]
        widths = [int(w) for w in rng.integers(lo, hi + 1, size=arity - 1)]
        rep = random_like_rep(rng, kind, counts, widths)
    else:
        raise ValueError(f"unknown representation class {rep_class!r}")
    return MoiInstance(measures, operators, rep)

