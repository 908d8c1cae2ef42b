"""Evaluation of multiple operator integrals
sum over atoms of Psi(x_1..x_m) P_1 T_1 P_2 T_2 ... T_{m-1} P_m
by several independent computational paths.

Production, eval_moi: one sweep engine, _sweep, evaluates every class from
the bond network that its integrand stores (labels and tables, see
integrands) in the measures' eigenbases. Integrating a table against a
measure with basis U is U diag(table[labels]) U^*, so each value is
U_1 C U_m^*, with C the same finite sum over the tables expanded to basis
columns and the moved operators T_i' = U_i^* T_i U_{i+1}; no projection is
ever formed. _plan orders the tables (_candidate), _pin finds an end table
that fixes its bond at each basis column, _move makes each moved operator as
the tuple of factors that a move applies, and _contract runs the plan on one
slice of rows of C. The two-factor Schur multiplier of a dense table psi is
the chain with head psi and tail the identity.

Deliberately independent witnesses: eval_oracle, the exhaustive atomwise sum
over the projections (capped); eval_haagerup_block, the row/block/column
operator matrices materialized from the projections and multiplied in the
enlarged space; duality_functionals, the defining functional of a chain-like
integral, which shares the sweep but cuts the chain open at another factor.

All paths compute the same finite sum; agreement is relative to
moi_scale = rep_norm_bound * prod of operator norms.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from math import prod

import numpy as np

from .integrands import HaagerupChainRep, HaagerupLikeRep, Integrand, rep_norm_bound
from .linalg import INF, adjoint, as_matrix, schatten_norms
from .spectral import FiniteSpectralMeasure, integrate_scalar

DEFAULT_TUPLE_CAP = 10**6
DEFAULT_BLOCK_CAP = 4096
ORACLE_BLOCK = 16  # dim x dim matrices in the oracle's accumulator
SCALE_FLOOR = 1e-12
# Bytes of a sweep state, which set the rows per slice. Arity-4 both-large
# construction, whose pinned sweep holds 16 n bytes per row, tracemalloc peak
# and time of eval_haagerup, one BLAS thread, 2-vCPU OpenBLAS machine:
#   n <= 256: one slice of every row (1 MiB at n = 256), peak 0.33, 1.26 and
#             5.02 MiB at n = 64, 128 and 256 at a 1, 2 or 32 MiB budget;
#             n = 256 takes 16-24 ms with numpy's huge-page advice or without
#   n = 1024: eight slices of 128 rows, peak 64.1 MiB and 0.55-0.62 s; one
#             16 MiB slice (a 32 MiB budget) peaks at 80.1 MiB in 0.53 s,
#             sixteen 1 MiB slices at 64.1 MiB in 0.6 s
STATE_BUDGET = 2 * 2**20
MOVE_BLOCK = 512  # state columns per matmul of an in-place move
# Rows per slice are a multiple of ROW_ALIGN, and at least ROW_ALIGN. A BLAS
# matmul rounds the last few rows and columns of a call (N mod 4, M mod 4 on
# OpenBLAS's zgemm) in its edge kernel, differently from the rest; aligned
# slices leave the same rows and columns to the edge kernels as one slice
# does, so C is bit-identical however it is sliced (unaligned, 53 of 98 sliced
# random instances differed in their last bits). The floor binds only a wide
# unpinned network, whose row takes more than STATE_BUDGET / ROW_ALIGN: the
# d = 128 chain of widths (160, 150) gets 8 rows for the budget's 6 (2.5 MiB
# states), the d = 64 projective integrand of 512 terms 8 for 4 (4 MiB).
ROW_ALIGN = 8


class CapExceededError(RuntimeError):
    """The requested evaluation would exceed a configured resource cap."""


@dataclass(frozen=True, eq=False)
class MoiInstance:
    """One operator integral: m spectral measures on a common space,
    m-1 operators, and an integrand bound to the measures in order."""

    measures: tuple
    operators: tuple
    integrand: Integrand

    def __post_init__(self):
        measures = tuple(self.measures)
        if len(measures) < 2:
            raise ValueError("need at least two spectral measures")
        for e in measures:  # the type first, so a non-measure's dim is never read
            if not isinstance(e, FiniteSpectralMeasure):
                raise TypeError("measures must be FiniteSpectralMeasure instances")
            if e.dim != measures[0].dim:
                raise ValueError("all measures must share the ambient dimension")
        dim = measures[0].dim
        operators = tuple(as_matrix(t) for t in self.operators)
        if len(operators) != len(measures) - 1:
            raise ValueError(
                f"{len(measures)} measures need {len(measures) - 1} operators, "
                f"got {len(operators)}"
            )
        for t in operators:
            if t.shape != (dim, dim):
                raise ValueError(f"operator shape {t.shape} != ({dim}, {dim})")
        if not isinstance(self.integrand, Integrand):  # before its arity is read
            raise TypeError(
                "integrand must be a ProjectiveRep, HaagerupChainRep or HaagerupLikeRep"
            )
        if self.integrand.arity != len(measures):
            raise ValueError(
                f"integrand arity {self.integrand.arity} != {len(measures)} measures"
            )
        for k, (t, e) in enumerate(zip(self.integrand.tables, measures), 1):
            if len(t) != e.n_atoms:
                raise ValueError(f"factor {k} table has {len(t)} atoms, measure has {e.n_atoms}")
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "operators", operators)

    def network(self) -> tuple:
        """The integrand's (labels, tables), with width-0 tables sized by the
        measures for a projective integrand without terms, which has none."""
        zeros = (np.zeros((e.n_atoms, 0), dtype=np.complex128) for e in self.measures)
        return self.integrand.labels, self.integrand.tables or tuple(zeros)

    @property
    def dim(self) -> int:
        return self.measures[0].dim

    @property
    def arity(self) -> int:
        return len(self.measures)


def moi_scale(inst: MoiInstance) -> float:
    """rep_norm_bound * prod of operator norms, floored away from zero.

    It multiplies every factor's sup-norm, so it outgrows a long chain-like
    value: from about arity 20, |W| can be 1e-7 to 1e-20 of it, and a gate at
    1e-10 * moi_scale does not resolve W there. verify draws arities of at
    most 4, where the scale still binds."""
    norms = schatten_norms(inst.operators, [INF] * len(inst.operators))
    return max(prod([rep_norm_bound(inst.integrand), *norms]), SCALE_FLOOR)


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
    labels, tables = inst.network()
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


def eval_haagerup(inst: MoiInstance) -> np.ndarray:
    """Chain contraction sum_{j..} A_j T_1 B_{jk} T_2 ... over all chain indices."""
    if not isinstance(inst.integrand, HaagerupChainRep):
        raise TypeError("instance does not carry a chain representation")
    return eval_moi(inst)


def _sweep(inst: MoiInstance, start: int = 0, probes=(None,)):
    """U_1 C U_m^* of the instance's bond network cut open before factor
    `start`, once per probe: the factors start, ..., m-1, 0, ..., start-1 in
    that order, each integrating its table against its measure, with the
    instance's operators in the gaps between them and each probe in turn in
    the gap between factor m and factor 1. The frame (bases, plan, tables
    expanded to basis columns, the pinned bond and its values, rows per
    slice, moved operators) is made once; a table on the pinned bond is
    gathered at the step that reads it (see _contract), one at a time.
    Each operator, and each probe, moves as the factors that _move makes,
    transposed and in reverse order for a forward plan; the starting
    operator, cut to each slice's rows, is their product, multiplied out once.

    No step mixes two rows r of the first basis (columns of C, for a reversed
    plan, which sweeps from the last basis), so C is contracted a slice of
    rows at a time, and the slices are joined: each slice cuts the starting
    operator and the table diagonal in r to its rows. A state S[c, r, open
    bond] holds one bond at a time (see _plan), so with w the widest axis of
    any table, a pinned bond aside (1 if there is no other), it takes at
    most 16 d w bytes per row, as does a table read at the pinned bond; a
    slice takes as many rows as fit STATE_BUDGET, or all d when w is 0,
    rounded down to a multiple of ROW_ALIGN and at least ROW_ALIGN; the
    column tables are not bounded by STATE_BUDGET. The basis change is
    applied once, to the whole C. Neither a move nor the
    basis change multiplies by a basis that is exactly the identity
    (_is_identity), which changes no nonzero bit (see _product). Each slice
    starts from a C-ordered copy of its rows of the C-ordered starting
    operator, so that every state is C-ordered and a move's flat view of S
    is S itself."""
    # each factor, and the gap after it, in the order start, ..., m-1, 0, ..., start-1
    measures, labels, tables, gaps = (
        x[start:] + x[:start] for x in (inst.measures, *inst.network(), (*inst.operators, None))
    )
    operators = gaps[:-1]  # the gap between factors m and 1 holds None, the probes' slot
    dim = inst.dim
    pins = (_pin(labels[0], tables[0]), _pin(labels[-1], tables[-1]))
    reverse, steps, _ = _plan(labels, pins)
    pin = pins[reverse]  # the bond that the first table of the sweep pins, or ""
    eye = [_is_identity(e.basis) for e in measures]

    def move(k, t):  # the factors of T_k' = U_k^* T_k U_{k+1}, as the sweep reads them
        # a reversed plan sweeps C^T = ... T_2'^T T_1'^T; else S[c, r] = T_1'[r, c],
        # and each move multiplies S by T_k'^T = ... B^T A^T from the left
        op = _move(t, measures[k].basis, measures[k + 1].basis, eye[k : k + 2])
        return op if reverse else tuple(f.T for f in reversed(op))

    moved = [t if t is None else move(k, t) for k, t in enumerate(operators)]
    slots = [k for k, t in enumerate(operators) if t is None]  # the probes' gap, if cut
    factors = list(zip(tables, measures, labels))
    factors = factors[::-1] if reverse else factors
    # one column table per basis column, but none for a table on the pinned bond
    cols = [None if pin and pin in b else t.take(e.labels, axis=0) for t, e, b in factors]
    if pin:  # the first table's nonzero column, and its value, at each basis column
        t, e, _ = factors[0]
        bond = np.argmax(t != 0, axis=1)[e.labels]
        cols[0] = t[e.labels, bond]
    widths = [w for t, _, b in factors for a, w in zip(b, t.shape[1:]) if a != pin]
    width = max(widths, default=1)
    rows = STATE_BUDGET // (16 * dim * width) if width else dim
    rows = max(rows - rows % ROW_ALIGN, ROW_ALIGN)

    def column(r, k):  # table k for rows r, read by the step that uses it (see _contract)
        if k == 0:
            return cols[0][r]
        if cols[k] is not None:
            return cols[k]
        t, e, b = factors[k]  # on the pinned bond: read at c and at the b of each row
        return t[(e.labels[:, None], *(bond[r][None, :] if a == pin else slice(None) for a in b))]

    for probe in probes:
        for k in slots:
            moved[k] = move(k, probe)
        head, *rest = moved[::-1] if reverse else moved
        head = np.ascontiguousarray(reduce(np.matmul, head))
        moved[-1 if reverse else 0] = (head,)  # multiplied out once for every probe
        parts = [
            _contract(steps, [np.ascontiguousarray(head[:, r]), *rest], partial(column, r))
            for r in (slice(j, j + rows) for j in range(0, dim, rows))
        ]
        c = np.concatenate(parts, axis=int(reverse))
        u, v = measures[0].basis, measures[-1].basis
        yield _product(None if eye[0] else u, c, None if eye[-1] else adjoint(v))


def _is_identity(u: np.ndarray) -> bool:
    """Whether a basis is exactly the identity, so that a basis change skips
    it. A corner entry other than 1, as almost every unitary has, refuses it
    at once."""
    return u[0, 0] == 1 and bool((u.diagonal() == 1).all()) and np.count_nonzero(u) == len(u)


def _product(a, t: np.ndarray, b) -> np.ndarray:
    """a @ t @ b, where a factor of None is an identity basis, skipped. The
    identity product returns t's entries bit for bit, but for the sign of an
    exact zero, which it sets as the BLAS kernel sums it; so a value's nonzero
    entries keep their bits, and an exact zero may change its sign."""
    t = t if a is None else a @ t
    return t if b is None else t @ b


def _move(t: np.ndarray, u: np.ndarray, v: np.ndarray, eye) -> tuple:
    """U^* T V as the factors of a product, applied right to left: T's nonzero
    entries lie in rows R and columns C, and if at most d/8 columns hold them,
    the pair (U^*[:, R] T[R, C], V[C, :]); else if at most d/8 rows do,
    (U^*[:, R], T[R, C] V[C, :]). U^*[:, R] is the adjoint of U's rows R,
    read from the measure's own basis even when it is the identity. Else one
    matrix: where eye, a pair of bools, marks exactly one of U and V as the
    identity (see _is_identity) and T is diagonal, the other basis scaled by
    T's diagonal (D V or U^* D: n^2 work, not n^3, and a real diagonal gives
    the product's bits), or else _product of U^*, T and V, skipping an
    identity. The first count, which any pair or diagonal passes, refuses a
    dense T at once."""
    d, count = len(t), np.count_nonzero(t)
    if count * 8 <= d * d:
        rows, cols = np.flatnonzero(t.any(axis=1)), np.flatnonzero(t.any(axis=0))
        if min(len(rows), len(cols)) * 8 <= d:
            left, right = adjoint(u[rows]), v[cols]
            core = t[np.ix_(rows, cols)]
            return (left @ core, right) if len(cols) <= len(rows) else (left, core @ right)
        diagonal = t.diagonal()
        if eye[0] != eye[1] and np.count_nonzero(diagonal) == count:
            return (diagonal[:, None] * v if eye[0] else adjoint(u) * diagonal,)
    return (_product(None if eye[0] else adjoint(u), t, None if eye[1] else v),)


def _pin(bonds: str, t: np.ndarray) -> str:
    """The bond that a table pins, or "": its one bond, if of width 2 or more
    and the table has at most one nonzero entry in each atom row, so that
    each basis column of its measure fixes the bond. The first count rejects
    a dense table at once. So the extremal chains, all of whose tables are on
    the bond that their delta head or tail pins, cost a few d x d matmuls,
    d^3 rather than d^4."""
    if len(bonds) == 1 and t.shape[1] >= 2 and np.count_nonzero(t) <= len(t):
        return bonds if (np.count_nonzero(t, axis=1) <= 1).all() else ""
    return ""


def _contract(steps: tuple, moved: list, cols) -> np.ndarray:
    """The rows of C that moved[0] holds (its columns, for a reversed plan),
    from the plan's steps. A move multiplies the state in place, MOVE_BLOCK
    columns of its flattened (c, r bonds) form at a time, so that the old
    state and a moved copy of it never coexist; each of the move's factors
    (see _move) multiplies the block in turn, the last first, so a pair
    (A, B) applies as A (B block), through its inner side. Every other step
    writes a new C-ordered state or multiplies the state in place. The first
    step always writes a new state, so moved[0], a matrix, and the tables
    are read, never written. cols(k) is table k's
    column table for the slice's rows, and gathers a table on the pinned
    bond at c and r when its step calls it, to drop it after (see _sweep)."""
    state = moved[0]
    for kind, k, arg in steps:
        if kind == "move":
            flat = state.reshape(len(state), -1)
            for j in range(0, flat.shape[1], MOVE_BLOCK):
                block = flat[:, j : j + MOVE_BLOCK]
                block[...] = reduce(lambda s, f: f @ s, reversed(moved[k]), block)
            state = flat.reshape(state.shape)
        elif kind == "mul":
            state *= cols(k)[arg]
        elif kind == "matmul":
            state = np.matmul(state, cols(k).swapaxes(1, 2) if arg else cols(k))
        else:
            state = np.einsum(arg, state, cols(k))
    return state


@lru_cache(maxsize=64)
def _plan(labels: tuple, pins: tuple = ("", "")) -> tuple:
    """(reverse, steps, states) for one signature of bond labels and of
    the bonds that the end tables pin (see _pin): of the sweeps left to right
    and then right to left, each with the end table applied after 0..m-1 of
    the others, the first whose states hold the fewest bonds at once. Each
    class has a sweep that holds one bond at a time; its peak, the widest
    bond, is the least any sweep can reach, whatever the widths, so the plan
    depends on the labels alone. If an end table pins, the sweep starts from
    it instead, in that sweep's direction (the planned one, if both ends
    pin), and no state holds the pinned bond."""
    candidates = (
        _candidate(labels[::-1] if reverse else labels, place, reverse)
        for reverse in (False, True)
        for place in range(len(labels))
    )
    plan = min(candidates, key=lambda plan: max(map(len, plan[2])))
    if not any(pins):
        return plan
    reverse = plan[0] if all(pins) else bool(pins[1])
    return _candidate(labels[::-1] if reverse else labels, 0, reverse, pins[reverse])


def _candidate(order: tuple, place: int, reverse: bool, pin: str = "") -> tuple:
    """(reverse, steps, states) of one sweep over the tables in `order`,
    whose state S[c, r, open bonds] holds column c of the current basis and
    row r of the first. Table 0 is diagonal in r, so it may wait for `place`
    of the others. Steps are (kind, index in sweep order, argument); states
    are the open bonds after each table.

    A table 0 that pins its bond `pin` (at place 0) fixes it at each row r,
    as b[r] with value v[r]: it scales the start by v, the bond never opens,
    and a later table on it is read at c and at the b of each row, as a
    (c, r, other bonds) table."""
    c, r = [a for a in "cx" + string.ascii_letters if a not in "".join(order)][:2]
    events = [(k, c) for k in range(1, len(order))]
    events.insert(place, (0, r))
    remaining = Counter("".join(order))  # appearances in tables not yet applied
    open_, steps, states = [], [], []
    for i, (k, axis) in enumerate(events):
        bonds = order[k]
        remaining.subtract(bonds)
        on_pin = bool(pin) and pin in bonds  # read at each row's pinned bond
        bonds = bonds.replace(pin, "") if on_pin else bonds
        final = i == len(events) - 1
        close = [b for b in bonds if b in open_ and not remaining[b]]
        opening = [b for b in bonds if b not in open_ and remaining[b]]
        after = [b for b in open_ if b not in close] + opening
        # every bond passes through; the first step writes a new state, and the
        # last one, even of no bonds, orders C
        if list(bonds) == open_ and not close and 0 < i and not final:
            steps.append(("mul", k, () if on_pin else (slice(None), None) if axis == c else None))
        elif axis == c and len(bonds) == 2 and close == open_ and len(opening) == 1:
            steps.append(("matmul", k, bonds[0] != close[0]))
        else:
            out = c + r + "".join(after) if not final else (c + r if reverse else r + c)
            operand = (c + r if on_pin and k else axis) + bonds
            steps.append(("einsum", k, f"{c}{r}{''.join(open_)},{operand}->{out}"))
        if axis == c and k < len(order) - 1:
            steps.append(("move", k, None))
        open_ = after
        states.append("".join(open_))
    return reverse, tuple(steps), tuple(states)


def row_block(blocks, t: np.ndarray) -> np.ndarray:
    """The row matrix (A_0 T  A_1 T  ...) as a dim x (k * dim) array."""
    t = as_matrix(t)
    return np.hstack([as_matrix(a) @ t for a in blocks])


def eval_haagerup_block(inst: MoiInstance) -> np.ndarray:
    """Chain value via materialized block matrices:
    row(A_j T_1) x {B_jk} x diag(T_2) x ... x col(T_{m-1} Delta_l).

    Requires arity >= 3; block sides are capped at DEFAULT_BLOCK_CAP
    rows/columns, and a larger one raises CapExceededError.
    """
    rep = inst.integrand
    if not isinstance(rep, HaagerupChainRep):
        raise TypeError("instance does not carry a chain representation")
    if rep.arity < 3:
        raise ValueError("block evaluation needs arity >= 3")
    dim = inst.dim
    widths = [rep.head.shape[1]] + [m.shape[-1] for m in rep.middles]
    if max(widths) * dim > DEFAULT_BLOCK_CAP:
        raise CapExceededError(
            f"block side {max(widths) * dim} exceeds the cap of {DEFAULT_BLOCK_CAP}"
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
    integrands._like_bonds, the chain's links rotated by the integrand's cut,
    of the tables integrated against their measures, in factor order with
    T_1, ..., T_{m-1} between them, e.g.

    first, m=4:  W = sum_{abc} P_c T_1 Q_a T_2 R_ab T_3 S_bc

    Matches trace duality: trace(W Q) equals the defining functional at Q
    for every Q.
    """
    if not isinstance(inst.integrand, HaagerupLikeRep):
        raise TypeError("instance does not carry a chain-like representation")
    return eval_moi(inst)


def duality_functional(inst: MoiInstance, q) -> complex:
    """The defining linear functional of a chain-like integral at Q: the
    one-probe case of `duality_functionals`."""
    [value] = duality_functionals(inst, [q])
    return value


def duality_functionals(inst: MoiInstance, qs) -> list:
    """The defining linear functional of a chain-like integral at each Q of
    qs: the ordinary chain cut open before the integrand's cut, the factor
    that holds the chain's head, with Q in the gap between factors m and 1,
    traced against the operator in the gap where the cut chain closes. One
    frame of the sweep serves all of qs (see _sweep)."""
    if not isinstance(inst.integrand, HaagerupLikeRep):
        raise TypeError("instance does not carry a chain-like representation")
    qs = [as_matrix(q) for q in qs]
    for q in qs:
        if q.shape != (inst.dim, inst.dim):
            raise ValueError(f"Q shape {q.shape} != ({inst.dim}, {inst.dim})")
    cut = inst.integrand.cut
    return [complex(np.trace(w @ inst.operators[cut - 1])) for w in _sweep(inst, cut, qs)]


def eval_moi(inst: MoiInstance) -> np.ndarray:
    """Production evaluation: the sweep, which every representation class shares."""
    [value] = _sweep(inst)
    return value
