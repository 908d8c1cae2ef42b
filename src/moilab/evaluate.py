"""Evaluation of multiple operator integrals
sum over atoms of Psi(x_1..x_m) P_1 T_1 P_2 T_2 ... T_{m-1} P_m
by several independent computational paths.

Production: one sweep engine evaluates every class from its bond labels
(integrands._bonds) in the measures' eigenbases. Integrating a table
against a measure with basis U is U diag(table[labels]) U^*, so each value is
U_1 C U_m^*, with C the same finite sum over the tables expanded to basis
columns and the moved operators T_i' = U_i^* T_i U_{i+1}; no projection is
ever formed. The sweep's state S[c, r, open bonds] holds column c of the
current basis, row r of the first, and the bonds a later table still closes.
A table that closes one bond and opens one is a batched matmul over c, a
table whose bonds all pass through multiplies S in place, any other table is
a two-operand einsum, and a moved operator multiplies S in place, MOVE_BLOCK
columns at a time, so that S is held once. The plan, made once per signature
of labels, is the sweep (left to right, or right to left on the transpose,
with the first table, diagonal in r, applied after 0..m-1 of the others) that
holds the fewest bonds at once: one, for every class. No step mixes two rows
r of the first basis, so C is contracted a slice of rows at a time, with as
many rows as keep every state, 16 d w bytes per row for the widest table axis
w, within STATE_BUDGET. The column tables, expanded to basis columns, are
not bounded by STATE_BUDGET. The two-factor Schur multiplier of a dense
table psi is the chain with head psi and tail the identity.

Deliberately independent witnesses: eval_oracle, the exhaustive atomwise sum
over the projections (capped), with Psi formed densely from the per-atom
tables one block of atom tuples at a time and contracted right to left with
the projection stacks, one matmul per factor; eval_haagerup_block, the
row/block/column operator matrices materialized from the projections and
multiplied in the enlarged space; duality_functional, the defining
functional of a chain-like integral: the chain that the class rotates
(integrands._like_bonds), taken in its own factor order, with Q in the gap
between factors m and 1, traced against the operator in the gap where that
chain closes.

All paths compute the same finite sum; agreement is relative to
scale = rep_norm_bound * prod of operator norms.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .integrands import (
    HaagerupChainRep,
    HaagerupLikeRep,
    Integrand,
    ProjectiveRep,
    _bonds,
    rep_norm_bound,
)
from .linalg import adjoint, as_matrix, operator_norm
from .spectral import FiniteSpectralMeasure, integrate_scalar

DEFAULT_TUPLE_CAP = 10**6
DEFAULT_BLOCK_CAP = 4096
ORACLE_BLOCK = 16  # dim x dim matrices in the oracle's accumulator
SCALE_FLOOR = 1e-12
STATE_BUDGET = 32 * 2**20  # bytes of a sweep state, which sets the rows per slice
MOVE_BLOCK = 512  # state columns per matmul of an in-place move


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
    labels, tables = _bonds(inst.integrand, counts)
    atoms = string.ascii_lowercase[:m]  # Psi's axes, one per factor
    spec = ",".join(a + b for a, b in zip(atoms, labels)) + "->" + atoms
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
    """sum_n (int phi_n dE_1) T_1 (int psi_n dE_2) ... for a projective rep,
    swept with the terms as one bond."""
    if not isinstance(inst.integrand, ProjectiveRep):
        raise TypeError("instance does not carry a projective representation")
    return _sweep(inst)


def eval_haagerup(inst: MoiInstance) -> np.ndarray:
    """Chain contraction sum_{j..} A_j T_1 B_{jk} T_2 ... over all chain indices."""
    if not isinstance(inst.integrand, HaagerupChainRep):
        raise TypeError("instance does not carry a chain representation")
    return _sweep(inst)


def _sweep(inst: MoiInstance) -> np.ndarray:
    """U_1 C U_m^*, with C contracted by the plan for the integrand's bonds.

    No step mixes two rows r of the first basis (columns of C, for a reversed
    plan, which sweeps from the last basis), so C is contracted a slice of
    rows at a time, and the slices are joined: each slice cuts the starting
    operator and the table diagonal in r to its rows. A state S[c, r, open
    bond] holds one bond at a time (see _plan), so with w the widest axis of
    any table it takes at most 16 d w bytes per row; a slice takes as many
    rows as fit STATE_BUDGET, at least one, or all d when w is 0. The basis
    change is applied once, to the whole C. Each slice starts from a
    C-ordered copy of its rows of the starting operator, so that every state
    is C-ordered and a move's flat view of S is S itself."""
    measures, dim = inst.measures, inst.dim
    labels, tables = _bonds(inst.integrand, [e.n_atoms for e in measures])
    reverse, steps, _ = _plan(labels)
    bases = [e.basis for e in measures]
    moved = [adjoint(u) @ t @ v for u, t, v in zip(bases, inst.operators, bases[1:])]
    cols = [t.take(e.labels, axis=0) for t, e in zip(tables, measures)]  # one per basis column
    if reverse:  # the same sweep on the transpose, C^T = ... T_2'^T T_1'^T
        cols.reverse()
        moved.reverse()
    else:  # S[c, r] = T_1'[r, c], and each move multiplies S by T_k'^T from the left
        moved = [t.T for t in moved]
    width = max(max(t.shape[1:]) for t in tables)
    rows = max(1, STATE_BUDGET // (16 * dim * width)) if width else dim
    start, diagonal, parts = np.ascontiguousarray(moved[0]), cols[0], []
    for j in range(0, dim, rows):
        r = slice(j, j + rows)
        moved[0], cols[0] = np.ascontiguousarray(start[:, r]), diagonal[r]
        parts.append(_contract(steps, moved, cols))
    return bases[0] @ np.concatenate(parts, axis=int(reverse)) @ adjoint(bases[-1])


def _contract(steps: tuple, moved: list, cols: list) -> np.ndarray:
    """The rows of C that moved[0] holds (its columns, for a reversed plan),
    from the plan's steps. A move multiplies the state in place, MOVE_BLOCK
    columns of its flattened (c, r bonds) form at a time, so that the old
    state and a moved copy of it never coexist. Every other step writes a
    new C-ordered state or multiplies the state in place. The first step
    always writes a new state, so moved[0] and the column tables are read,
    never written."""
    state = moved[0]
    for kind, k, arg in steps:
        if kind == "move":
            flat = state.reshape(len(state), -1)
            for j in range(0, flat.shape[1], MOVE_BLOCK):
                block = flat[:, j : j + MOVE_BLOCK]
                block[...] = moved[k] @ block
            state = flat.reshape(state.shape)
        elif kind == "mul":
            state *= cols[k][arg]
        elif kind == "matmul":
            state = np.matmul(state, cols[k].swapaxes(1, 2) if arg else cols[k])
        else:
            state = np.einsum(arg, state, cols[k])
    return state


@lru_cache(maxsize=64)
def _plan(labels: tuple) -> tuple:
    """(reverse, steps, states) for one signature of bond labels:
    of the sweeps left to right and then right to left, each with the end
    table applied after 0..m-1 of the others, the first whose states hold the
    fewest bonds at once. Each class has a sweep that holds one bond at a
    time; its peak, the widest bond, is the least any sweep can reach,
    whatever the widths, so the plan depends on the labels alone."""
    candidates = (
        _candidate(labels[::-1] if reverse else labels, place, reverse)
        for reverse in (False, True)
        for place in range(len(labels))
    )
    return min(candidates, key=lambda plan: max(map(len, plan[2])))


def _candidate(order: tuple, place: int, reverse: bool) -> tuple:
    """(reverse, steps, states) of one sweep over the tables in `order`,
    whose state S[c, r, open bonds] holds column c of the current basis and
    row r of the first. Table 0 is diagonal in r, so it may wait for `place`
    of the others. Steps are (kind, index in sweep order, argument); states
    are the open bonds after each table."""
    c, r = [a for a in "cx" + string.ascii_letters if a not in "".join(order)][:2]
    events = [(k, c) for k in range(1, len(order))]
    events.insert(place, (0, r))
    remaining = Counter("".join(order))  # appearances in tables not yet applied
    open_, steps, states = [], [], []
    for k, axis in events:
        bonds = order[k]
        remaining.subtract(bonds)
        close = [b for b in bonds if b in open_ and not remaining[b]]
        opening = [b for b in bonds if b not in open_ and remaining[b]]
        after = [b for b in open_ if b not in close] + opening
        if list(bonds) == open_ and not close:  # every bond passes through
            steps.append(("mul", k, (slice(None), None) if axis == c else None))
        elif axis == c and len(bonds) == 2 and close == open_ and len(opening) == 1:
            steps.append(("matmul", k, bonds[0] != close[0]))
        else:
            out = c + r + "".join(after) if after else (c + r if reverse else r + c)
            steps.append(("einsum", k, f"{c}{r}{''.join(open_)},{axis}{bonds}->{out}"))
        if axis == c and k < len(order) - 1:
            steps.append(("move", k, None))
        open_ = after
        states.append("".join(open_))
    return reverse, tuple(steps), tuple(states)


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
    widths = [rep.head.shape[1]] + [m.shape[-1] for m in rep.middles]
    if widths and max(widths) * dim > block_cap:
        raise CapExceededError(
            f"block side {max(widths) * dim} exceeds the cap of {block_cap}"
        )
    if min(widths) == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    head_ops = integrate_scalar(rep.head, inst.measures[0])
    product = row_block(head_ops, inst.operators[0])
    for t, mid in enumerate(rep.middles):
        projs = inst.measures[t + 1].projection_stack()
        big = sum(
            np.kron(mid[i] if mid.ndim == 3 else np.diag(mid[i]), projs[i])
            for i in range(mid.shape[0])
        )
        product = product @ big
        if t < len(rep.middles) - 1:
            product = product @ np.kron(
                np.eye(mid.shape[-1]), inst.operators[t + 1]
            )
    tail_ops = integrate_scalar(rep.tail, inst.measures[-1])
    column = np.vstack([inst.operators[-1] @ g for g in tail_ops])
    return product @ column


def eval_haagerup_like(inst: MoiInstance) -> np.ndarray:
    """Value of the duality-defined integral: the sum over the bond letters of
    integrands._like_bonds of the tables integrated against their measures,
    in factor order with T_1, ..., T_{m-1} between them, e.g.

    first, m=4:  W = sum_{jkl} A_l T_1 B_j T_2 G_jk T_3 D_kl

    Matches trace duality: trace(W Q) equals the defining functional at Q
    for every Q.
    """
    if not isinstance(inst.integrand, HaagerupLikeRep):
        raise TypeError("instance does not carry a chain-like representation")
    return _sweep(inst)


def duality_functional(inst: MoiInstance, q) -> complex:
    """The defining linear functional of a chain-like integral, evaluated at Q:
    the ordinary chain over the factors along _cyclic_path, with Q in the gap
    between factors m and 1, traced against the operator in the gap where the
    path closes. A middle whose first letter is not in the previous factor's
    label runs against the path and is transposed."""
    rep = inst.integrand
    if not isinstance(rep, HaagerupLikeRep):
        raise TypeError("instance does not carry a chain-like representation")
    q = as_matrix(q)
    if q.shape != (inst.dim, inst.dim):
        raise ValueError(f"Q shape {q.shape} != ({inst.dim}, {inst.dim})")
    labels, tables = _bonds(rep, None)
    path = _cyclic_path(rep.kind, rep.arity)
    gaps = [*inst.operators, q]  # gaps[k] sits between factors k and k + 1, cyclically
    middles = [
        tables[k] if labels[k][0] in labels[prev] else tables[k].transpose(0, 2, 1)
        for prev, k in zip(path, path[1:-1])
    ]
    chain = HaagerupChainRep(tables[path[0]], tuple(middles), tables[path[-1]])
    measures = tuple(inst.measures[k] for k in path)
    w = eval_haagerup(MoiInstance(measures, tuple(gaps[k] for k in path[:-1]), chain))
    partner = gaps[path[0] - 1]
    # The second kind at arity 4 keeps its old trace order, so that its values
    # stay bit-identical: trace(w @ partner) agrees only up to rounding (a few
    # 1e-15 relative) and changes the last bits of many of them, among them
    # the worst duality error that `moilab verify --seed 42` prints.
    if (rep.kind, rep.arity) == ("second", 4):
        return complex(np.trace(partner @ w))
    return complex(np.trace(w @ partner))


def _cyclic_path(kind: str, arity: int) -> list:
    """The factors of a chain-like class in the order of its cycled chain,
    s, ..., m-1, 0, ..., s-1: the chain that _like_bonds rotates starts at
    s = 1 for the first kind and at s = m - 1 for the second."""
    s = 1 if kind == "first" else arity - 1
    return [*range(s, arity), *range(s)]


def eval_moi(inst: MoiInstance) -> np.ndarray:
    """Production evaluation: the sweep, which every representation class shares."""
    return _sweep(inst)
