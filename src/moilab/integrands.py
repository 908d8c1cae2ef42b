"""Integrand representations for multiple operator integrals.

Three classes, all with finite index families:
  - ProjectiveRep: sum of elementary products, one scalar table per factor.
  - HaagerupChainRep: row-vector x matrix x ... x column-vector chain of
    tables (widths L_1, ..., L_{m-1} linking the factors); a middle may be
    diagonal, stored as its (n, L) diagonal, which passes its width through.
  - HaagerupLikeRep: double/triple-indexed variants where the matrix-indexed
    table sits on the last factor (first kind) or the first (second kind).

Tables are numpy arrays with the atom axis first: scalar (n,), vector (n, L),
matrix (n, L, L'), and a diagonal chain middle (n, L) whose per-atom matrix
is diag(table[x]). A width-0 chain denotes the zero integrand.
"""

from __future__ import annotations

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
        width = head.shape[1]
        for m in middles:
            if m.ndim not in (2, 3) or m.shape[0] < 1:
                raise ValueError(
                    "middle tables must be (n_atoms, L, L') or diagonal (n_atoms, L)"
                )
            if m.shape[1] != width:
                raise ValueError(
                    f"chain width mismatch: incoming {width}, middle rows {m.shape[1]}"
                )
            width = m.shape[-1]
        if tail.shape[1] != width:
            raise ValueError(
                f"chain width mismatch: incoming {width}, tail width {tail.shape[1]}"
            )
        for t in (head, *middles, tail):
            if not np.all(np.isfinite(t)):
                raise ValueError("chain table has non-finite entries")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "middles", middles)
        object.__setattr__(self, "tail", tail)

    @property
    def arity(self) -> int:
        return 2 + len(self.middles)

    def atom_counts(self):
        return (self.head.shape[0],) + tuple(m.shape[0] for m in self.middles) + (
            self.tail.shape[0],
        )


# (kind, arity) -> einsum of Psi over the per-atom tables, atom axis first.
_LIKE_SPECS = {
    ("first", 3): "aJ,bK,cJK->abc",
    ("second", 3): "aJK,bJ,cK->abc",
    ("first", 4): "aL,bJ,cJK,dKL->abcd",
    ("second", 4): "aJK,bKL,cL,dJ->abcd",
}

# (kind, arity) -> number of table axes beyond the atom axis, per factor.
_LIKE_SHAPES = {
    key: tuple(len(op) - 1 for op in spec.split("->")[0].split(","))
    for key, spec in _LIKE_SPECS.items()
}


@dataclass(frozen=True)
class HaagerupLikeRep:
    """Double/triple-indexed integrands defined by trace duality.

    kind "first", arity 3:  Psi = sum_{jk} a_j(x1) b_k(x2) g_{jk}(x3)
    kind "second", arity 3: Psi = sum_{jk} a_{jk}(x1) b_j(x2) g_k(x3)
    kind "first", arity 4:  Psi = sum_{jkl} a_l(x1) b_j(x2) g_{jk}(x3) d_{kl}(x4)
    kind "second", arity 4: Psi = sum_{jkl} a_{jk}(x1) b_{kl}(x2) g_l(x3) d_j(x4)
    """

    kind: str
    tables: tuple

    def __post_init__(self):
        key = (self.kind, len(self.tables))
        if key not in _LIKE_SHAPES:
            raise ValueError(
                f"unsupported kind/arity {key}; kinds are 'first'/'second', arity 3 or 4"
            )
        ranks = _LIKE_SHAPES[key]
        tabs = tuple(
            _table(t, 1 + r, f"factor {i + 1}")
            for i, (t, r) in enumerate(zip(self.tables, ranks))
        )
        a = tabs
        if key == ("first", 3):
            jj, kk = a[0].shape[1], a[1].shape[1]
            if a[2].shape[1:] != (jj, kk):
                raise ValueError("matrix table must be indexed (j, k) matching the vectors")
        elif key == ("second", 3):
            jj, kk = a[1].shape[1], a[2].shape[1]
            if a[0].shape[1:] != (jj, kk):
                raise ValueError("matrix table must be indexed (j, k) matching the vectors")
        elif key == ("first", 4):
            ll, jj = a[0].shape[1], a[1].shape[1]
            kk = a[2].shape[2]
            if a[2].shape[1] != jj or a[3].shape[1:] != (kk, ll):
                raise ValueError("index widths must chain as (l), (j), (j,k), (k,l)")
        else:  # ("second", 4)
            ll, jj = a[2].shape[1], a[3].shape[1]
            kk = a[0].shape[2]
            if a[0].shape[1] != jj or a[1].shape[1:] != (kk, ll):
                raise ValueError("index widths must chain as (j,k), (k,l), (l), (j)")
        object.__setattr__(self, "tables", tabs)

    @property
    def arity(self) -> int:
        return len(self.tables)

    def atom_counts(self):
        return tuple(t.shape[0] for t in self.tables)


Integrand = ProjectiveRep | HaagerupChainRep | HaagerupLikeRep


def rep_norm_bound(rep: Integrand) -> float:
    """Norm of the given representation, an upper bound for the tensor norm.

    Projective: sum over terms of the product of factor sup-norms.
    Chain and chain-like: product of the component norms, l2-sup for vector
    tables and operator-norm-sup for matrix tables, which for a diagonal
    chain middle is its largest entry modulus.
    """
    if isinstance(rep, ProjectiveRep):
        return float(
            sum(np.prod([scalar_sup(f) for f in term]) for term in rep.terms)
        )
    if isinstance(rep, HaagerupChainRep):
        bound = vector_sup(rep.head) * vector_sup(rep.tail)
        for m in rep.middles:
            bound *= matrix_sup(m) if m.ndim == 3 else scalar_sup(m)
        return float(bound)
    if isinstance(rep, HaagerupLikeRep):
        ranks = _LIKE_SHAPES[(rep.kind, rep.arity)]
        bound = 1.0
        for t, r in zip(rep.tables, ranks):
            bound *= vector_sup(t) if r == 1 else matrix_sup(t)
        return float(bound)
    raise TypeError(f"not an integrand representation: {type(rep)!r}")


def eval_pointwise(rep: Integrand, atoms: Sequence[int]) -> complex:
    """Value of Psi at one atom index per factor (the defining finite sum)."""
    atoms = tuple(atoms)
    counts = rep.atom_counts()
    if counts is not None:
        if len(atoms) != len(counts):
            raise ValueError(f"expected {len(counts)} atom indices, got {len(atoms)}")
        for a, n in zip(atoms, counts):
            if not 0 <= a < n:
                raise IndexError(f"atom index {a} out of range [0, {n})")
    if isinstance(rep, ProjectiveRep):
        total = 0.0 + 0.0j
        for term in rep.terms:
            prod = 1.0 + 0.0j
            for factor, a in zip(term, atoms):
                prod *= factor[a]
            total += prod
        return complex(total)
    if isinstance(rep, HaagerupChainRep):
        v = rep.head[atoms[0]]
        for mid, a in zip(rep.middles, atoms[1:-1]):
            v = v @ mid[a] if mid.ndim == 3 else v * mid[a]
        return complex(v @ rep.tail[atoms[-1]])
    if isinstance(rep, HaagerupLikeRep):
        t = [tab[a] for tab, a in zip(rep.tables, atoms)]
        key = (rep.kind, rep.arity)
        if key == ("first", 3):
            return complex(np.einsum("j,k,jk->", t[0], t[1], t[2]))
        if key == ("second", 3):
            return complex(np.einsum("jk,j,k->", t[0], t[1], t[2]))
        if key == ("first", 4):
            return complex(np.einsum("l,j,jk,kl->", t[0], t[1], t[2], t[3]))
        return complex(np.einsum("jk,kl,l,j->", t[0], t[1], t[2], t[3]))
    raise TypeError(f"not an integrand representation: {type(rep)!r}")


def _psi_einsum(rep: Integrand, counts: Sequence[int]) -> tuple[str, list]:
    """Psi over all atom tuples as one einsum: (subscripts, tables), one table
    per factor with its atom axis first; the output axes are the atoms in
    factor order. Projective terms are stacked as (n, terms) tables, so a
    zero integrand has width-0 tables; a diagonal chain middle reuses its
    incoming link letter. Atom axes are lowercase letters, so the arity is
    at most 26."""
    m = rep.arity
    atoms, links = string.ascii_lowercase[:m], string.ascii_uppercase
    if isinstance(rep, ProjectiveRep):
        tables = [
            np.stack([term[i] for term in rep.terms], axis=1)
            if rep.terms
            else np.zeros((n, 0), dtype=np.complex128)
            for i, n in enumerate(counts)
        ]
        return ",".join(f"{a}Z" for a in atoms) + "->" + atoms, tables
    if isinstance(rep, HaagerupChainRep):
        ops, link = [atoms[0] + links[0]], 0
        for a, mid in zip(atoms[1:-1], rep.middles):
            if mid.ndim == 3:
                ops.append(a + links[link : link + 2])
                link += 1
            else:
                ops.append(a + links[link])
        ops.append(atoms[-1] + links[link])
        return ",".join(ops) + "->" + atoms, [rep.head, *rep.middles, rep.tail]
    if isinstance(rep, HaagerupLikeRep):
        return _LIKE_SPECS[(rep.kind, rep.arity)], list(rep.tables)
    raise TypeError(f"not an integrand representation: {type(rep)!r}")


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
