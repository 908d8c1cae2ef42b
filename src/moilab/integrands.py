"""Integrand representations for multiple operator integrals.

Three classes, all with finite index families:
  - ProjectiveRep: sum of elementary products, one scalar table per factor.
  - HaagerupChainRep: row-vector x matrix x ... x column-vector chain of
    tables (widths L_1, ..., L_{m-1} linking the factors); a middle may be
    diagonal, stored as its (n, L) diagonal, which passes its width through.
  - HaagerupLikeRep: a chain with one factor rotated to the other end, its
    last factor moved to the front (first kind) or its first to the end
    (second kind); see _like_bonds.

Tables are numpy arrays with the atom axis first: scalar (n,), vector (n, L),
matrix (n, L, L'), and a diagonal chain middle (n, L) whose per-atom matrix
is diag(table[x]). A width-0 chain denotes the zero integrand.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .spectral import matrix_sup, scalar_sup, vector_sup


def _table(a, ndim: int, what: str) -> np.ndarray:
    t = np.asarray(a, dtype=np.complex128)
    if t.ndim != ndim:
        raise ValueError(f"{what} table must have {ndim} axes, got shape {t.shape}")
    if t.shape[0] < 1:
        raise ValueError(f"{what} table has no atoms")
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{what} table has non-finite entries")
    return t


def _width_clash(labels, tables) -> str | None:
    """The first bond letter to which two tables give different widths, as
    a message, or None: a bond has one width."""
    widths = {}
    for bonds, t in zip(labels, tables):
        for b, w in zip(bonds, t.shape[1:]):
            if widths.setdefault(b, w) != w:
                return f"bond {b} has widths {widths[b]} and {w}"
    return None


@dataclass(frozen=True)
class ProjectiveRep:
    """Psi(x_1..x_m) = sum_n prod_i phi_{n,i}(x_i); terms[n][i] is the scalar
    table of phi_{n,i}. An empty term list is the zero integrand."""

    arity: int
    terms: tuple = field(default=())

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("projective representation needs arity >= 2")
        fixed = []
        for term in self.terms:
            if len(term) != self.arity:
                raise ValueError(
                    f"term has {len(term)} factors, expected {self.arity}"
                )
            fixed.append(tuple(_table(f, 1, "factor") for f in term))
        for term in fixed[1:]:
            for i in range(self.arity):
                if term[i].shape != fixed[0][i].shape:
                    raise ValueError("terms disagree on atom counts")
        object.__setattr__(self, "terms", tuple(fixed))

    def atom_counts(self):
        if not self.terms:
            return None
        return tuple(t.shape[0] for t in self.terms[0])


@dataclass(frozen=True)
class HaagerupChainRep:
    """Psi = sum over chain indices of head_j(x_1) middle_{jk}(x_2) ... tail(x_m).

    head: (n_1, L_1); middles[i]: (n_{i+2}, L_{i+1}, L_{i+2}), or the diagonal
    (n_{i+2}, L_{i+1}) with per-atom matrix diag(middles[i][x]) and
    L_{i+2} = L_{i+1}; tail: (n_m, L_{m-1}). The array's rank selects the form.
    """

    head: np.ndarray
    middles: tuple = field(default=())
    tail: np.ndarray = None

    def __post_init__(self):
        head = np.asarray(self.head, dtype=np.complex128)
        tail = np.asarray(self.tail, dtype=np.complex128)
        if head.ndim != 2 or tail.ndim != 2:
            raise ValueError("head and tail must be (n_atoms, width) tables")
        if head.shape[0] < 1 or tail.shape[0] < 1:
            raise ValueError("head/tail tables need at least one atom")
        middles = tuple(
            np.asarray(m, dtype=np.complex128) for m in self.middles
        )
        if any(m.ndim not in (2, 3) or m.shape[0] < 1 for m in middles):
            raise ValueError(
                "middle tables must be (n_atoms, L, L') or diagonal (n_atoms, L)"
            )
        for t in (head, *middles, tail):
            if not np.all(np.isfinite(t)):
                raise ValueError("chain table has non-finite entries")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "middles", middles)
        object.__setattr__(self, "tail", tail)
        clash = _width_clash(*_bonds(self, None))
        if clash:
            raise ValueError(f"chain width mismatch: {clash}")

    @property
    def arity(self) -> int:
        return 2 + len(self.middles)

    def atom_counts(self):
        return (self.head.shape[0],) + tuple(m.shape[0] for m in self.middles) + (
            self.tail.shape[0],
        )


# chain bond letters: one per link, an einsum letter each
_LINKS = string.ascii_uppercase + string.ascii_lowercase

# the links of the chain-like classes' chain, one bond letter per gap
_LIKE_LINKS = string.ascii_uppercase[9:]  # J, K, ..., Z


def _like_bonds(kind: str, arity: int) -> tuple:
    """The bond letters of each factor's table of a chain-like class. With
    links J, K, L, ... (one per gap), take the chain (J, JK, KL, ..., L) of
    `arity` factors; the first kind moves its last factor to the front, the
    second kind its first factor to the end. At arity 3 the chain is written
    (K, JK, J), so that the matrix table stays indexed (j, k). An unknown
    kind, or an arity below 3 or beyond the links, is refused here, before
    any table is read."""
    if kind not in ("first", "second"):
        raise ValueError(f"unknown chain-like kind {kind!r}; kinds are 'first' and 'second'")
    if not 3 <= arity <= len(_LIKE_LINKS) + 1:
        top = len(_LIKE_LINKS) + 1
        raise ValueError(f"chain-like arity {arity} is outside [3, {top}], one bond letter per gap")
    links = _LIKE_LINKS[: arity - 1]
    chain = [links[0], *map(str.__add__, links, links[1:]), links[-1]]
    if arity == 3:
        chain.reverse()
    return tuple(chain[-1:] + chain[:-1] if kind == "first" else chain[1:] + chain[:1])


@dataclass(frozen=True)
class HaagerupLikeRep:
    """A chain-like integrand, whose integral is defined by trace duality:
    Psi(x_1..x_m) sums the product of tables[i][x_i] over the bond letters of
    _like_bonds(kind, m). For example

    kind "first", arity 4:  Psi = sum_{jkl} a_l(x1) b_j(x2) g_{jk}(x3) d_{kl}(x4)
    kind "second", arity 4: Psi = sum_{jkl} a_{jk}(x1) b_{kl}(x2) g_l(x3) d_j(x4)
    """

    kind: str
    tables: tuple

    def __post_init__(self):
        labels = _like_bonds(self.kind, len(self.tables))
        tabs = tuple(
            _table(t, 1 + len(bonds), f"factor {i + 1}")
            for i, (t, bonds) in enumerate(zip(self.tables, labels))
        )
        if _width_clash(labels, tabs):
            raise ValueError(
                "matrix table must be indexed (j, k) matching the vectors"
                if len(labels) == 3
                else "index widths must chain as "
                + ", ".join(f"({','.join(b.lower())})" for b in labels)
            )
        object.__setattr__(self, "tables", tabs)

    @property
    def arity(self) -> int:
        return len(self.tables)

    def atom_counts(self):
        return tuple(t.shape[0] for t in self.tables)


Integrand = ProjectiveRep | HaagerupChainRep | HaagerupLikeRep


def _bonds(rep: Integrand, counts: Sequence[int]) -> tuple[tuple, list]:
    """The integrand as one index pattern: (labels, tables), one table per
    factor with its atom axis first and labels[i] the bond letters of its
    other axes, so that Psi(x_1..x_m) sums the product of tables[i][x_i] over
    every bond letter. A chain links its factors by A, AB, BC, ..., with a
    diagonal middle reusing its incoming letter; the projective terms are one
    bond Z, stacked as (n, terms) tables of width 0 for no terms (`counts`
    gives their atom counts); a chain-like class uses _like_bonds."""
    if isinstance(rep, ProjectiveRep):
        tables = [
            np.array([term[i] for term in rep.terms]).T
            if rep.terms
            else np.zeros((n, 0), dtype=np.complex128)
            for i, n in enumerate(counts)
        ]
        return ("Z",) * rep.arity, tables
    if isinstance(rep, HaagerupChainRep):
        if rep.arity > len(_LINKS) - 1:  # two einsum letters stay free for the sweep
            raise ValueError(f"chain arity {rep.arity} exceeds {len(_LINKS) - 1}")
        labels, link = ["A"], 0
        for mid in rep.middles:
            if mid.ndim == 3:
                labels.append(_LINKS[link : link + 2])
                link += 1
            else:
                labels.append(_LINKS[link])
        labels.append(_LINKS[link])
        return tuple(labels), [rep.head, *rep.middles, rep.tail]
    if isinstance(rep, HaagerupLikeRep):
        return _like_bonds(rep.kind, rep.arity), list(rep.tables)
    raise TypeError(f"not an integrand representation: {type(rep)!r}")


def rep_norm_bound(rep: Integrand) -> float:
    """Norm of the given representation, an upper bound for the tensor norm.

    Projective: sum over terms of the product of factor sup-norms.
    Chain and chain-like: product of the component norms, l2-sup for a table
    with one bond and operator-norm-sup for one with two, except that a
    diagonal chain middle, whose bond passes through, gives its largest entry
    modulus.
    """
    if isinstance(rep, ProjectiveRep):
        return float(
            sum(np.prod([scalar_sup(f) for f in term]) for term in rep.terms)
        )
    labels, tables = _bonds(rep, None)
    sups = []
    for i, (bonds, t) in enumerate(zip(labels, tables)):
        through = 0 < i < len(labels) - 1 and bonds in labels[i - 1] and bonds in labels[i + 1]
        sups.append(
            matrix_sup(t) if len(bonds) == 2 else scalar_sup(t) if through else vector_sup(t)
        )
    if isinstance(rep, HaagerupChainRep):  # head and tail first: this order fixes the rounding
        sups[1:] = sups[-1:] + sups[1:-1]
    return float(math.prod(sups))


def eval_pointwise(rep: Integrand, atoms: Sequence[int]) -> complex:
    """Value of Psi at one atom index per factor (the defining finite sum)."""
    atoms = tuple(atoms)
    counts = rep.atom_counts()
    if counts is None:  # a projective integrand without terms
        return 0j
    if len(atoms) != len(counts):
        raise ValueError(f"expected {len(counts)} atom indices, got {len(atoms)}")
    for a, n in zip(atoms, counts):
        if not 0 <= a < n:
            raise IndexError(f"atom index {a} out of range [0, {n})")
    labels, tables = _bonds(rep, counts)
    spec = ",".join(labels) + "->"
    return complex(np.einsum(spec, *(t[a] for t, a in zip(tables, atoms))))


def embed_projective_in_haagerup(
    rep: ProjectiveRep, atom_counts: Sequence[int] | None = None
) -> HaagerupChainRep:
    """Rewrite a projective sum as a chain with diagonal (n, terms) middles,
    one chain index per term.

    Each term's factors are sup-normalized; the term weight (the product of
    the sup-norms) is split as sqrt(w) on the head and tail columns, leaving
    the middles unimodular-bounded. This keeps the chain representation norm
    at most the projective one. Identically-zero terms become zero columns.
    """
    counts = rep.atom_counts() or (tuple(atom_counts) if atom_counts else None)
    if counts is None:
        raise ValueError("atom_counts required to embed a zero integrand")
    if len(counts) != rep.arity:
        raise ValueError(f"need {rep.arity} atom counts, got {len(counts)}")
    width = len(rep.terms)
    head = np.zeros((counts[0], width), dtype=np.complex128)
    middles = [
        np.zeros((counts[i], width), dtype=np.complex128)
        for i in range(1, rep.arity - 1)
    ]
    tail = np.zeros((counts[-1], width), dtype=np.complex128)
    for n, term in enumerate(rep.terms):
        sups = [scalar_sup(f) for f in term]
        weight = float(np.prod(sups))
        if weight == 0.0:
            continue
        root = np.sqrt(weight)
        head[:, n] = term[0] / sups[0] * root
        for i, mid in enumerate(middles):
            mid[:, n] = term[i + 1] / sups[i + 1]
        tail[:, n] = term[-1] / sups[-1] * root
    return HaagerupChainRep(head, tuple(middles), tail)
