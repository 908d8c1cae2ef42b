"""Integrand representations for multiple operator integrals.

Three classes, all with finite index families:
  - ProjectiveRep: sum of elementary products, one scalar table per factor.
  - HaagerupChainRep: row-vector x matrix x ... x column-vector chain of
    tables (widths L_1, ..., L_{m-1} linking the factors); a middle may be
    diagonal, stored as its (n, L) diagonal, which passes its width through.
  - HaagerupLikeRep: a chain on the same links, rotated so that its head
    is factor `cut`: its last factor moved to the front (first kind, cut 1)
    or its first to the end (second kind, cut m - 1); see _like_bonds.

Tables are numpy arrays with the atom axis first: scalar (n,), vector (n, L),
matrix (n, L, L'), and a diagonal chain middle (n, L) whose per-atom matrix
is diag(table[x]). A width-0 chain denotes the zero integrand.

Each class builds and checks its bond network once and keeps it as `labels`
(the bond letters of each factor's table) and `tables` (one per factor, atom
axis first): Psi(x_1..x_m) sums the product of tables[i][x_i] over every
bond letter. The norm bound, Psi at a point, the projective embedding and
every evaluation read them.
"""

from __future__ import annotations

import math
import reprlib
import string
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .spectral import matrix_sup, scalar_sup, vector_sup


def _table(a, ndim, what: str) -> np.ndarray:
    """`a` as a complex table with `ndim` axes (one of them, for a tuple),
    at least one atom and finite entries; `what` names it in a refusal."""
    t = np.asarray(a, dtype=np.complex128)
    ranks = ndim if isinstance(ndim, tuple) else (ndim,)
    if t.ndim not in ranks:
        axes = " or ".join(map(str, ranks))
        raise ValueError(f"{what} table must have {axes} axes, got shape {t.shape}")
    if t.shape[0] < 1:
        raise ValueError(f"{what} table has no atoms")
    if not np.isfinite(t).all():
        raise ValueError(f"{what} table has non-finite entries")
    return t


def _width_clash(labels, tables) -> None:
    """Refuse two tables that give one bond letter different widths: a bond
    has one width. The refusal names the later table by its factor."""
    widths = {}
    for i, (bonds, t) in enumerate(zip(labels, tables)):
        for b, w in zip(bonds, t.shape[1:]):
            if widths.setdefault(b, w) != w:
                raise ValueError(
                    f"factor {i + 1} table gives bond {b} width {w}, an earlier table {widths[b]}"
                )


# chain bond letters: one per link, an einsum letter each
_LINKS = string.ascii_uppercase + string.ascii_lowercase


class _Network:
    """What the three classes share: the bond network (labels, tables), set
    and checked once. They hold arrays, so they compare and hash by identity
    (eq=False)."""

    def _set_network(self, labels, tables) -> None:
        labels, tables = tuple(labels), tuple(tables)
        _width_clash(labels, tables)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tables", tables)


@dataclass(frozen=True, eq=False)
class ProjectiveRep(_Network):
    """Psi(x_1..x_m) = sum_n prod_i phi_{n,i}(x_i); terms[n][i] is the scalar
    table of phi_{n,i}. Its network is one bond Z through every factor, over
    the terms stacked as (n_i, terms) tables. The tables are the one copy of
    the factors, which the integrand owns: terms[n][i] is a view of column n
    of tables[i], never an array of the caller's. An empty term list, which
    has no tables, is the zero integrand: {"projective": {"arity": m,
    "terms": []}} in a file."""

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
            fixed.append([_table(f, 1, "factor") for f in term])
        for term in fixed[1:]:
            for i in range(self.arity):
                if term[i].shape != fixed[0][i].shape:
                    raise ValueError("terms disagree on atom counts")
        tables = [np.array(f).T for f in zip(*fixed)]
        object.__setattr__(self, "terms", tuple(zip(*(t.T for t in tables))))
        self._set_network(("Z",) * self.arity, tables)


@dataclass(frozen=True, eq=False)
class HaagerupChainRep(_Network):
    """Psi = sum over chain indices of head_j(x_1) middle_{jk}(x_2) ... tail(x_m).

    head: (n_1, L_1); middles[i]: (n_{i+2}, L_{i+1}, L_{i+2}), or the diagonal
    (n_{i+2}, L_{i+1}) with per-atom matrix diag(middles[i][x]) and
    L_{i+2} = L_{i+1}; tail: (n_m, L_{m-1}). The array's rank selects the form.
    Every table is checked as the chain-like ones are: its rank, at least one
    atom and finite entries (_table), and one width per bond (_width_clash);
    a refusal names the table by its factor, 1 to m. Its labels link the
    tables (head, *middles, tail) by A, AB, BC, ..., a diagonal middle reusing
    its incoming letter. A width-0 bond, the zero integrand, has no file form
    as a chain: instance_to_json refuses it.
    """

    head: np.ndarray
    middles: tuple = field(default=())
    tail: np.ndarray = None

    def __post_init__(self):
        head, tail = _table(self.head, 2, "factor 1"), _table(self.tail, 2, f"factor {self.arity}")
        middles = tuple(
            _table(t, (2, 3), f"factor {i + 2}") for i, t in enumerate(self.middles)
        )
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "middles", middles)
        object.__setattr__(self, "tail", tail)
        if self.arity > len(_LINKS) - 1:  # two einsum letters stay free for the sweep
            raise ValueError(f"chain arity {self.arity} exceeds {len(_LINKS) - 1}")
        labels, link = ["A"], 0
        for mid in middles:  # a dense middle opens the next link, a diagonal one passes it on
            labels.append(_LINKS[link : link + mid.ndim - 1])
            link += mid.ndim - 2
        labels.append(_LINKS[link])
        self._set_network(labels, (head, *middles, tail))

    @property
    def arity(self) -> int:
        return 2 + len(self.middles)


def _like_cut(kind: str, arity: int) -> int:
    """The cut of a chain-like integrand: the factor that holds its chain's head."""
    return 1 if kind == "first" else arity - 1


def _like_bonds(kind: str, arity: int) -> tuple:
    """The bond letters of each factor's table of a chain-like class: the
    chain (A, AB, BC, ..., last link) of `arity` factors on the chain's own
    links, rotated so that its head is factor _like_cut(kind, arity). At
    arity 3 the chain is written (B, AB, A), so that the matrix table stays
    indexed (A, B). An unknown kind, or an arity outside the chain's, is
    refused here, before any table is read."""
    if kind not in ("first", "second"):
        raise ValueError(
            f"unknown chain-like kind {reprlib.repr(kind)}; kinds are 'first' and 'second'"
        )
    if not 3 <= arity <= len(_LINKS) - 1:
        top = len(_LINKS) - 1  # as the chain's, two einsum letters stay free
        raise ValueError(f"chain-like arity {arity} is outside [3, {top}], one bond letter per gap")
    links = _LINKS[: arity - 1]
    chain = [links[0], *map(str.__add__, links, links[1:]), links[-1]]
    chain = chain[::-1] if arity == 3 else chain
    cut = _like_cut(kind, arity)
    return tuple(chain[-cut:] + chain[:-cut])


@dataclass(frozen=True, eq=False)
class HaagerupLikeRep(_Network):
    """A chain-like integrand, whose integral is defined by trace duality:
    Psi(x_1..x_m) sums the product of tables[i][x_i] over the bond letters of
    _like_bonds(kind, m), its labels, the chain's links rotated by its cut.
    For example, with a, b, c indexing bonds A, B, C,

    kind "first", arity 4:  Psi = sum_{abc} p_c(x1) q_a(x2) r_{ab}(x3) s_{bc}(x4)
    kind "second", arity 4: Psi = sum_{abc} p_{ab}(x1) q_{bc}(x2) r_c(x3) s_a(x4)

    A width-0 axis, the zero integrand, has no file form as a chain-like
    one: instance_to_json refuses it.
    """

    kind: str
    tables: tuple

    def __post_init__(self):
        labels = _like_bonds(self.kind, len(self.tables))
        pairs = zip(self.tables, labels)
        tables = (_table(t, 1 + len(b), f"factor {i + 1}") for i, (t, b) in enumerate(pairs))
        self._set_network(labels, tables)

    @property
    def arity(self) -> int:
        return len(self.tables)

    @property
    def cut(self) -> int:
        return _like_cut(self.kind, self.arity)


Integrand = ProjectiveRep | HaagerupChainRep | HaagerupLikeRep


def _term_weights(rep: ProjectiveRep) -> tuple:
    """Each factor's column sups, one per term, and each term's weight, their product."""
    sups = [np.abs(t).max(axis=0) for t in rep.tables]
    return sups, np.prod(sups, axis=0)


def rep_norm_bound(rep: Integrand) -> float:
    """Norm of the given representation, an upper bound for the tensor norm.

    Projective: sum over terms of the product of factor sup-norms.
    Chain and chain-like: product of the component norms, in factor order,
    l2-sup for a table with one bond and operator-norm-sup for one with two,
    except that a diagonal chain middle, whose bond passes through, gives its
    largest entry modulus.
    """
    labels, tables = rep.labels, rep.tables
    if isinstance(rep, ProjectiveRep):  # the sum over the one bond, a term per column
        return float(sum(_term_weights(rep)[1])) if tables else 0.0
    sups = []
    for i, (bonds, t) in enumerate(zip(labels, tables)):
        through = 0 < i < len(labels) - 1 and bonds in labels[i - 1] and bonds in labels[i + 1]
        sups.append(
            matrix_sup(t) if len(bonds) == 2 else scalar_sup(t) if through else vector_sup(t)
        )
    return float(math.prod(sups))


def eval_pointwise(rep: Integrand, atoms: Sequence[int]) -> complex:
    """Value of Psi at one atom index per factor (the defining finite sum)."""
    atoms = tuple(atoms)
    if len(atoms) != rep.arity:
        raise ValueError(f"expected {rep.arity} atom indices, got {len(atoms)}")
    if not rep.tables:  # a projective integrand without terms
        return 0j
    for a, t in zip(atoms, rep.tables):
        if not 0 <= a < len(t):
            raise IndexError(f"atom index {a} out of range [0, {len(t)})")
    spec = ",".join(rep.labels) + "->"
    return complex(np.einsum(spec, *(t[a] for t, a in zip(rep.tables, atoms))))


def embed_projective_in_haagerup(rep: ProjectiveRep) -> HaagerupChainRep:
    """Rewrite a projective sum as a chain with diagonal (n, terms) middles,
    one chain index per term, read from the integrand's stacked tables.

    Each term's factors are sup-normalized, column by column; the term weight
    (the product of the sup-norms) is split as sqrt(w) on the head and tail
    columns, leaving the middles unimodular-bounded. This keeps the chain
    representation norm at most the projective one. A term of weight 0 (a
    zero factor, or a product that underflows) becomes a zero column. A
    projective integrand without terms has no tables, and is refused.
    """
    if not rep.tables:
        raise ValueError("cannot embed a projective integrand without terms: it has no atom counts")
    sups, weights = _term_weights(rep)
    live = weights != 0
    head, *middles, tail = (
        np.divide(t, s, out=np.zeros(t.shape, dtype=np.complex128), where=live)
        for t, s in zip(rep.tables, sups)
    )
    root = np.sqrt(weights)
    return HaagerupChainRep(head * root, tuple(middles), tail * root)
