"""Seeded random instances for verification campaigns.

Every generator takes a numpy Generator; campaigns derive one per trial from
(seed, suite, trial) so runs are reproducible and trials independent.
"""

from __future__ import annotations

import numpy as np

from .evaluate import MoiInstance
from .integrands import HaagerupChainRep, HaagerupLikeRep, ProjectiveRep, _like_bonds
from .linalg import random_complex, random_unitary
from .spectral import FiniteSpectralMeasure


def rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *[int(p) for p in path]])


def random_measure(
    rng: np.random.Generator, dim: int, n_atoms: int | None = None
) -> FiniteSpectralMeasure:
    """Random projection family from the column blocks of a random unitary."""
    if n_atoms is None:
        n_atoms = int(rng.integers(1, dim + 1))
    if not 1 <= n_atoms <= dim:
        raise ValueError(f"need 1 <= n_atoms <= dim, got {n_atoms} > {dim}")
    sizes = rng.multinomial(dim - n_atoms, [1.0 / n_atoms] * n_atoms) + 1
    u = random_unitary(rng, dim)
    labels = np.repeat(np.arange(n_atoms), sizes)
    return FiniteSpectralMeasure.from_basis(
        u, labels, tuple(float(i) for i in range(n_atoms))
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
    """widths: one per bond letter of _like_bonds(kind, arity), in
    alphabetical order (J, K, L, ...), one fewer than the factors."""
    labels = _like_bonds(kind, len(atom_counts))
    if len(widths) != len(atom_counts) - 1:
        raise ValueError("need one width per bond letter")
    width = dict(zip(sorted(set("".join(labels))), widths))
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
    measures = tuple(random_measure(rng, dim) for _ in range(arity))
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


def random_row_blocks(
    rng: np.random.Generator, dim: int, count: int
) -> list[np.ndarray]:
    """Random blocks normalized so that ||sum A_j* A_j|| = 1."""
    blocks = [random_complex(rng, (dim, dim)) for _ in range(count)]
    gram = sum(b.conj().T @ b for b in blocks)
    scale = np.sqrt(np.linalg.norm(gram, 2))
    return [b / scale for b in blocks]
