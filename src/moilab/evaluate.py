"""Evaluation of multiple operator integrals
sum over atoms of Psi(x_1..x_m) P_1 T_1 P_2 T_2 ... T_{m-1} P_m
by several independent computational paths.

The production paths (eval_projective, eval_haagerup, eval_haagerup_like,
eval_double_schur) work in the measures' eigenbases. Integrating a table
against a measure with basis U is U diag(table[labels]) U^*, so each value is
U_1 C U_m^*, with C the same finite sum over the tables expanded to basis
columns and the moved operators T_i' = U_i^* T_i U_{i+1}, contracted pairwise
by batched matmuls and two-operand einsums; no projection is ever formed.

Deliberately independent witnesses: eval_oracle, the exhaustive atomwise sum
over the projections (capped), with Psi formed densely from the per-atom
tables one block of atom tuples at a time and contracted right to left with
the projection stacks, one matmul per factor; eval_haagerup_block, the
row/block/column operator matrices materialized from the projections and
multiplied in the enlarged space; duality_functional, the defining
functional of a chain-like integral cycled into an ordinary chain and traced.

All paths compute the same finite sum; agreement is relative to
scale = rep_norm_bound * prod of operator norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .integrands import (
    HaagerupChainRep,
    HaagerupLikeRep,
    Integrand,
    ProjectiveRep,
    _psi_einsum,
    rep_norm_bound,
)
from .linalg import adjoint, as_matrix, operator_norm
from .spectral import FiniteSpectralMeasure

DEFAULT_TUPLE_CAP = 10**6
DEFAULT_BLOCK_CAP = 4096
ORACLE_BLOCK = 16  # dim x dim matrices in the oracle's accumulator
SCALE_FLOOR = 1e-12


class CapExceededError(RuntimeError):
    """The requested evaluation would exceed a configured resource cap."""


@dataclass(frozen=True)
class MoiInstance:
    """One operator integral: m spectral measures on a common space,
    m-1 operators, and an integrand bound to the measures in order."""

    measures: tuple
    operators: tuple
    integrand: Integrand

    def __post_init__(self):
        measures = tuple(self.measures)
        if not measures:
            raise ValueError("need at least two spectral measures")
        dim = measures[0].dim
        for e in measures:
            if not isinstance(e, FiniteSpectralMeasure):
                raise TypeError("measures must be FiniteSpectralMeasure instances")
            if e.dim != dim:
                raise ValueError("all measures must share the ambient dimension")
        operators = tuple(as_matrix(t) for t in self.operators)
        if len(operators) != len(measures) - 1:
            raise ValueError(
                f"{len(measures)} measures need {len(measures) - 1} operators, "
                f"got {len(operators)}"
            )
        for t in operators:
            if t.shape != (dim, dim):
                raise ValueError(f"operator shape {t.shape} != ({dim}, {dim})")
        if self.integrand.arity != len(measures):
            raise ValueError(
                f"integrand arity {self.integrand.arity} != {len(measures)} measures"
            )
        counts = self.integrand.atom_counts()
        if counts is not None:
            for i, (c, e) in enumerate(zip(counts, measures)):
                if c != e.n_atoms:
                    raise ValueError(
                        f"factor {i + 1} table has {c} atoms, measure has {e.n_atoms}"
                    )
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "operators", operators)

    @property
    def dim(self) -> int:
        return self.measures[0].dim

    @property
    def arity(self) -> int:
        return len(self.measures)


def moi_scale(inst: MoiInstance) -> float:
    """rep_norm_bound * prod of operator norms, floored away from zero."""
    return _scale(rep_norm_bound(inst.integrand), inst.operators)


def _scale(bound: float, operators) -> float:
    """moi_scale from an already computed rep_norm_bound."""
    scale = bound
    for t in operators:
        scale *= operator_norm(t)
    return max(scale, SCALE_FLOOR)


def eval_oracle(inst: MoiInstance, cap: int = DEFAULT_TUPLE_CAP) -> np.ndarray:
    """Exhaustive sum over all atom tuples of Psi(x_1..x_m) P_1 T_1 ... P_m.

    Psi is formed densely from the per-atom tables, one block of atom tuples
    at a time, and contracted right to left with the projection stacks:
    acc = Psi ._last P_m, then acc = sum_{x_k} P_k[x_k] T_k acc[.., x_k]
    for k = m-1, ..., 1, each one matmul with the products P_k[x] T_k laid
    out as a dim x (n_k * dim) row. A Python loop runs only over the fewest
    leading atom axes that keep the accumulator at ORACLE_BLOCK matrices or
    fewer.

    Independent of the representation class and of the eigenbasis paths;
    refuses, before allocating anything, instances whose atom tuple count
    exceeds the cap or whose arity exceeds 26 (one einsum letter per atom
    axis).
    """
    counts = [e.n_atoms for e in inst.measures]
    n_tuples = prod(counts)
    if n_tuples > cap:
        raise CapExceededError(
            f"{n_tuples} atom tuples exceed the cap of {cap}; shrink the instance"
        )
    m, dim = inst.arity, inst.dim
    if m > 26:
        raise CapExceededError(f"arity {m} exceeds the oracle's 26 atom axes")
    spec, tables = _psi_einsum(inst.integrand, counts)
    last = inst.measures[-1].projection_stack().reshape(counts[-1], dim * dim)
    rows = [
        np.matmul(e.projection_stack(), t).transpose(1, 0, 2).reshape(dim, -1)
        for e, t in zip(inst.measures, inst.operators)
    ]
    looped = next(k for k in range(m) if prod(counts[k:-1]) <= ORACLE_BLOCK)
    return _oracle_fold(spec, tables, rows, last, looped, ())


def _oracle_fold(spec: str, tables, rows, last, looped: int, prefix: tuple) -> np.ndarray:
    """The sum over the atoms after `prefix` of Psi[prefix, ..] P_k T_k ... P_m,
    with P_k the factor right after the prefix: the looped atoms one at a
    time, then one block of Psi contracted with `last` and the rows."""
    k, dim = len(prefix), rows[0].shape[0]
    if k < looped:
        out = np.zeros((dim, dim), dtype=np.complex128)
        for x in range(tables[k].shape[0]):
            inner = _oracle_fold(spec, tables, rows, last, looped, prefix + (x,))
            out += rows[k][:, x * dim : (x + 1) * dim] @ inner
        return out
    acc = _psi_block(spec, tables, prefix).reshape(-1, last.shape[0]) @ last
    for row in reversed(rows[k:]):
        acc = row @ acc.reshape(-1, row.shape[1], dim)
    return acc.reshape(dim, dim)


def _psi_block(spec: str, tables, prefix: tuple) -> np.ndarray:
    """Psi at the atom tuples that start with `prefix`, shaped by the
    remaining atom counts: the einsum over tables sliced on the prefix."""
    k = len(prefix)
    sliced = [t[x : x + 1] for t, x in zip(tables, prefix)] + list(tables[k:])
    return np.einsum(spec, *sliced)[(0,) * k]


def eval_projective(inst: MoiInstance) -> np.ndarray:
    """sum_n (int phi_n dE_1) T_1 (int psi_n dE_2) ... for a projective rep.

    In the eigenbases, C sums diag(phi_0) T_1' diag(phi_1) ... diag(phi_{m-1})
    over the terms, each built by broadcasting and m-2 matmuls.
    """
    rep = inst.integrand
    if not isinstance(rep, ProjectiveRep):
        raise TypeError("instance does not carry a projective representation")
    bases, moved = _eigen_frame(inst.measures, inst.operators)
    core = np.zeros((inst.dim, inst.dim), dtype=np.complex128)
    for term in rep.terms:
        cols = [_columns(f, e.labels) for f, e in zip(term, inst.measures)]
        block = cols[0][:, None] * moved[0] * cols[1]
        for op, col in zip(moved[1:], cols[2:]):
            block = (block @ op) * col
        core += block
    return bases[0] @ core @ adjoint(bases[-1])


def _integrate_vector_table(table: np.ndarray, e: FiniteSpectralMeasure) -> np.ndarray:
    """Stack of integrated operators, one per chain index: (L, dim, dim)."""
    return np.tensordot(table, e.projection_stack(), axes=([0], [0]))


def _columns(table: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """A per-atom table expanded to one entry per basis column: table[labels]."""
    if labels.shape[0] == table.shape[0] and np.array_equal(
        labels, np.arange(labels.shape[0])
    ):
        return table
    return table[labels]


def _eigen_frame(measures, operators) -> tuple[list, list]:
    """The measures' bases U_i and the operators moved into them,
    T_i' = U_i^* T_i U_{i+1}."""
    bases = [e.basis for e in measures]
    moved = [adjoint(u) @ t @ v for u, t, v in zip(bases, operators, bases[1:])]
    return bases, moved


def _sandwich(left: np.ndarray, table: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The (width, dim, dim) stack of left diag(table[:, j]) right."""
    return np.matmul(left * table.T[:, None, :], right)


def eval_haagerup(inst: MoiInstance) -> np.ndarray:
    """Chain contraction sum_{j..} A_j T_1 B_{jk} T_2 ... over all chain indices.

    Computed in the measures' eigenbases as U_1 C U_m^* (see the module
    docstring). C is swept left to right as a stack S[c, a, j] (column c of
    the current basis, row a of the first, chain index j): each middle is one
    batched matmul over c and each operator one tensordot over c.
    """
    rep = inst.integrand
    if not isinstance(rep, HaagerupChainRep):
        raise TypeError("instance does not carry a chain representation")
    measures = inst.measures
    bases, moved = _eigen_frame(measures, inst.operators)
    head = _columns(rep.head, measures[0].labels)
    # S[c, a, j] = head[a, j] T_1'[a, c]
    stack = moved[0].T[:, :, None] * head[None, :, :]
    for mid, e, op in zip(rep.middles, measures[1:], moved[1:]):
        stack = np.matmul(stack, _columns(mid, e.labels))
        stack = np.tensordot(op, stack, axes=([0], [0]))
    tail = _columns(rep.tail, measures[-1].labels)
    core = np.einsum("cak,ck->ac", stack, tail)
    return bases[0] @ core @ adjoint(bases[-1])


def row_block(blocks, t: np.ndarray) -> np.ndarray:
    """The row matrix (A_0 T  A_1 T  ...) as a dim x (k * dim) array."""
    t = as_matrix(t)
    return np.hstack([as_matrix(a) @ t for a in blocks])


def eval_haagerup_block(
    inst: MoiInstance, block_cap: int = DEFAULT_BLOCK_CAP
) -> np.ndarray:
    """Chain value via materialized block matrices:
    row(A_j T_1) x {B_jk} x diag(T_2) x ... x col(T_{m-1} Delta_l).

    Requires arity >= 3; block sides are capped at block_cap rows/columns.
    """
    rep = inst.integrand
    if not isinstance(rep, HaagerupChainRep):
        raise TypeError("instance does not carry a chain representation")
    if rep.arity < 3:
        raise ValueError("block evaluation needs arity >= 3")
    dim = inst.dim
    widths = [rep.head.shape[1]] + [m.shape[2] for m in rep.middles]
    if widths and max(widths) * dim > block_cap:
        raise CapExceededError(
            f"block side {max(widths) * dim} exceeds the cap of {block_cap}"
        )
    if min(widths) == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    head_ops = _integrate_vector_table(rep.head, inst.measures[0])
    product = row_block(head_ops, inst.operators[0])
    for t, mid in enumerate(rep.middles):
        projs = inst.measures[t + 1].projection_stack()
        big = sum(np.kron(mid[i], projs[i]) for i in range(mid.shape[0]))
        product = product @ big
        if t < len(rep.middles) - 1:
            product = product @ np.kron(
                np.eye(mid.shape[2]), inst.operators[t + 1]
            )
    tail_ops = _integrate_vector_table(rep.tail, inst.measures[-1])
    column = np.vstack([inst.operators[-1] @ g for g in tail_ops])
    return product @ column


def eval_double_schur(
    psi_table, e1: FiniteSpectralMeasure, e2: FiniteSpectralMeasure, t
) -> np.ndarray:
    """Two-factor integral for a dense atomwise table:
    sum_{i,j} psi[i, j] P_i T Q_j.

    The Schur multiplier U_1 (psi[L_1][:, L_2] o T') U_2^*, T' = U_1^* T U_2.
    """
    psi = np.asarray(psi_table, dtype=np.complex128)
    if psi.shape != (e1.n_atoms, e2.n_atoms):
        raise ValueError(
            f"table shape {psi.shape} != ({e1.n_atoms}, {e2.n_atoms}) atoms"
        )
    (u1, u2), (moved,) = _eigen_frame((e1, e2), (as_matrix(t),))
    return u1 @ (_columns(psi, e1.labels)[:, e2.labels] * moved) @ adjoint(u2)


def eval_haagerup_like(inst: MoiInstance) -> np.ndarray:
    """Closed-form value of the duality-defined integral.

    first, m=3:  W = sum_{jk}  A_j T B_k R G_jk
    second, m=3: W = sum_{jk}  A_jk T B_j R G_k
    first, m=4:  W = sum_{jkl} A_l T_1 B_j T_2 G_jk T_3 D_kl
    second, m=4: W = sum_{jkl} A_jk T_1 B_kl T_2 G_l T_3 D_j

    where each letter is the corresponding table integrated against its
    measure. Matches trace duality: trace(W Q) equals the defining
    functional at Q for every Q.

    In the eigenbases (a[x, l]: table a at column x), each case is a stack
    T' diag(b_j) T'' of batched matmuls, two-operand einsums coupling the
    other tables in, and a final diagonal sum.
    """
    rep = inst.integrand
    if not isinstance(rep, HaagerupLikeRep):
        raise TypeError("instance does not carry a chain-like representation")
    bases, moved = _eigen_frame(inst.measures, inst.operators)
    tables = [_columns(t, e.labels) for t, e in zip(rep.tables, inst.measures)]
    key = (rep.kind, rep.arity)
    if key == ("first", 3):
        a, b, g = tables
        s = _sandwich(moved[0], b, moved[1])  # s[k, x, z]
        s = np.einsum("kxz,zjk->jxz", s, g)
        core = np.einsum("xj,jxz->xz", a, s)
    elif key == ("second", 3):
        a, b, g = tables
        s = _sandwich(moved[0], b, moved[1])  # s[j, x, z]
        s = np.einsum("jxz,xjk->kxz", s, a)
        core = np.einsum("zk,kxz->xz", g, s)
    elif key == ("first", 4):
        a, b, g, d = tables
        s = _sandwich(moved[0], b, moved[1])  # s[j, x, z]
        s = np.einsum("jxz,zjk->kxz", s, g) @ moved[2]  # s[k, x, w]
        s = np.einsum("kxw,wkl->lxw", s, d)
        core = np.einsum("xl,lxw->xw", a, s)
    else:  # ("second", 4)
        a, b, g, d = tables
        s = _sandwich(moved[1], g, moved[2])  # s[l, y, w]
        s = moved[0] @ np.einsum("lyw,ykl->kyw", s, b)  # s[k, x, w]
        s = np.einsum("kxw,xjk->jxw", s, a)
        core = np.einsum("wj,jxw->xw", d, s)
    return bases[0] @ core @ adjoint(bases[-1])


def _cycled_chain_instance(inst: MoiInstance, q: np.ndarray) -> tuple[MoiInstance, int, np.ndarray]:
    """The chain instance computing the duality functional's inner integral.

    Returns (chain instance, trace side, trace partner): the functional value
    is trace(partner @ M) for side 0 or trace(M @ partner) for side 1.
    """
    rep = inst.integrand
    e = inst.measures
    ops = inst.operators
    key = (rep.kind, rep.arity)
    if key == ("first", 3):
        alpha, beta, gamma = rep.tables
        chain = HaagerupChainRep(beta, (gamma.transpose(0, 2, 1),), alpha)
        inner = MoiInstance((e[1], e[2], e[0]), (ops[1], q), chain)
        return inner, 1, ops[0]
    if key == ("second", 3):
        alpha, beta, gamma = rep.tables
        chain = HaagerupChainRep(gamma, (alpha.transpose(0, 2, 1),), beta)
        inner = MoiInstance((e[2], e[0], e[1]), (q, ops[0]), chain)
        return inner, 1, ops[1]
    if key == ("first", 4):
        alpha, beta, gamma, delta = rep.tables
        chain = HaagerupChainRep(beta, (gamma, delta), alpha)
        inner = MoiInstance((e[1], e[2], e[3], e[0]), (ops[1], ops[2], q), chain)
        return inner, 1, ops[0]
    alpha, beta, gamma, delta = rep.tables
    chain = HaagerupChainRep(delta, (alpha, beta), gamma)
    inner = MoiInstance((e[3], e[0], e[1], e[2]), (q, ops[0], ops[1]), chain)
    return inner, 0, ops[2]


def duality_functional(inst: MoiInstance, q) -> complex:
    """The defining linear functional of a chain-like integral, evaluated at Q
    by cycling the integrand into an ordinary chain and tracing."""
    rep = inst.integrand
    if not isinstance(rep, HaagerupLikeRep):
        raise TypeError("instance does not carry a chain-like representation")
    q = as_matrix(q)
    if q.shape != (inst.dim, inst.dim):
        raise ValueError(f"Q shape {q.shape} != ({inst.dim}, {inst.dim})")
    inner, side, partner = _cycled_chain_instance(inst, q)
    m = eval_haagerup(inner)
    if side == 0:
        return complex(np.trace(partner @ m))
    return complex(np.trace(m @ partner))


def eval_moi(inst: MoiInstance) -> np.ndarray:
    """Production evaluation dispatched on the representation class."""
    if isinstance(inst.integrand, ProjectiveRep):
        return eval_projective(inst)
    if isinstance(inst.integrand, HaagerupChainRep):
        return eval_haagerup(inst)
    return eval_haagerup_like(inst)
