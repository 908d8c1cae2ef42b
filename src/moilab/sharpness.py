"""Extremal construction families on the cyclic model, exhibiting that the
Schatten exponent r with 1/r = 1/max(p1,2) + 1/max(pm1,2) cannot be improved.

Each family at truncation n yields a chain instance of representation norm 1
whose value is exactly diagonal in the frequency basis, with closed-form
diagonal entries c_j d_j (or d_j^2 in the rank-one-only regime). Sweeping n
shows the ratio ||W||_s / (norms of the operators) bounded at s = r and
unbounded for s < r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluate import MoiInstance, _scale, eval_haagerup
from .integrands import HaagerupChainRep, rep_norm_bound
from .linalg import check_exponent, harmonic_exponent, sequence_norm, sharp
from .spectral import cyclic_model

REGIMES = ("both-large", "both-small", "mixed-large-small", "mixed-small-large")

# Largest n for which full matrices are materialized; sweeps beyond this use
# the diagonal closed form only. The cap is set by the chain sweep's
# (n, n, n) complex state in eval_haagerup (256 MiB at n = 256), not by the
# middle tables, which are diagonal (n, n).
BUILD_CAP = 128
SWEEP_CAP = 8192


class ConstructionCheckError(RuntimeError):
    """A materialized construction disagrees with its closed form."""


def sharp_r(p_first, p_last) -> float:
    """The critical exponent: 1/r = 1/max(p_first, 2) + 1/max(p_last, 2)."""
    return harmonic_exponent([sharp(p_first), sharp(p_last)])


@dataclass(frozen=True)
class ConstructionCase:
    """Parameters of one extremal family: arity 3 or 4, exponent regime for
    the first and last operators, truncation n, and the two real sequences."""

    arity: int
    regime: str
    p_first: float
    p_last: float
    n: int
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        if self.arity not in (3, 4):
            raise ValueError(f"arity must be 3 or 4, got {self.arity}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; one of {REGIMES}")
        p1 = check_exponent(self.p_first)
        pm = check_exponent(self.p_last)
        first_large = self.regime in ("both-large", "mixed-large-small")
        last_large = self.regime in ("both-large", "mixed-small-large")
        bad_first = p1 < 2.0 if first_large else p1 > 2.0
        bad_last = pm < 2.0 if last_large else pm > 2.0
        if bad_first:
            raise ValueError(f"regime {self.regime} is inconsistent with p_first = {p1}")
        if bad_last:
            raise ValueError(f"regime {self.regime} is inconsistent with p_last = {pm}")
        if self.n < 1:
            raise ValueError("truncation n must be >= 1")
        c = np.asarray(self.c, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if c.shape != (self.n,) or d.shape != (self.n,):
            raise ValueError("sequences must be real vectors of length n")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(d))):
            raise ValueError("sequences must be finite")
        object.__setattr__(self, "p_first", p1)
        object.__setattr__(self, "p_last", pm)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def r(self) -> float:
        return sharp_r(self.p_first, self.p_last)


def default_sequences(regime: str, p_first, p_last, n: int):
    """Explicit boundary witnesses: power-log sequences whose l^p budgets stay
    bounded in n while sum (c_j d_j)^s diverges for every s below the critical
    exponent.

    c_j = (j+1)^(-1/a) log(j+2)^(-2/a) with a the effective (>= 2 when the
    operator is rank one) exponent of the first operator, d_j likewise for the
    last; the rank-one-only regime uses c identically 1, with d alone carrying
    the decay.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    j = np.arange(n, dtype=float)

    def witness(a: float) -> np.ndarray:
        return (j + 1.0) ** (-1.0 / a) * np.log(j + 2.0) ** (-2.0 / a)

    d = witness(sharp(p_last))
    c = np.ones(n) if regime == "both-small" else witness(sharp(p_first))
    return c, d


def default_case(arity: int, regime: str, p_first, p_last, n: int) -> ConstructionCase:
    c, d = default_sequences(regime, p_first, p_last, n)
    return ConstructionCase(arity, regime, p_first, p_last, n, c, d)


def expected_diag(case: ConstructionCase) -> np.ndarray:
    """Closed-form diagonal of the construction's value in the frequency
    basis: c_j d_j, or d_j^2 in the rank-one-only regime."""
    if case.regime == "both-small":
        return case.d**2
    return case.c * case.d


def expected_output(case: ConstructionCase) -> np.ndarray:
    """The value as a full matrix (diagonal in the frequency basis)."""
    return np.diag(expected_diag(case).astype(np.complex128))


@dataclass(frozen=True)
class SharpnessInstance:
    instance: MoiInstance
    expected: np.ndarray
    case: ConstructionCase


def _delta_system(n: int) -> np.ndarray:
    """Head/tail table alpha_j(m) = 1 if j = m else 0 on the frequency atoms."""
    return np.eye(n, dtype=np.complex128)


def build_construction(case: ConstructionCase) -> SharpnessInstance:
    """Materialize the extremal family at truncation n = ambient dimension.

    The integrand is a chain of representation norm exactly 1: delta-system
    head and tail on the frequency measure, unimodular diagonal (n, n)
    middles on the position measure. The cyclic shifts keep every identity
    exact, and the compressions P_j . P_j make the value exactly diagonal.
    """
    n = case.n
    if n > BUILD_CAP:
        raise ValueError(
            f"n = {n} exceeds the materialization cap {BUILD_CAP}; "
            "use the diagonal closed form for large n"
        )
    fourier, position, characters = cyclic_model(n)
    # char_values[i, j] = value of the j-th character at position atom i
    char_values = np.stack([characters[j] for j in range(n)], axis=1)
    ones = np.ones((n, n), dtype=np.complex128)

    def rank_one_first(v):
        t = np.zeros((n, n), dtype=np.complex128)
        t[:, 0] = v
        return t

    def rank_one_last(v):
        t = np.zeros((n, n), dtype=np.complex128)
        t[0, :] = np.conj(v)
        return t

    diag_c = np.diag(case.c.astype(np.complex128))
    diag_d = np.diag(case.d.astype(np.complex128))
    p0 = np.zeros((n, n), dtype=np.complex128)
    p0[0, 0] = 1.0

    if case.arity == 3 and case.regime == "both-large":
        # single constant term; the value is the plain product of the
        # diagonal operators
        chain = HaagerupChainRep(
            np.ones((n, 1)), (np.ones((n, 1)),), np.ones((n, 1))
        )
        inst = MoiInstance((fourier, position, fourier), (diag_c, diag_d), chain)
        return SharpnessInstance(inst, expected_output(case), case)

    head = _delta_system(n)
    tail = _delta_system(n)
    if case.arity == 3:
        if case.regime == "both-small":
            mid_vals = (ones,)
            ops = (rank_one_first(case.d), rank_one_last(case.d))
        elif case.regime == "mixed-large-small":
            mid_vals = (char_values,)
            ops = (diag_c, rank_one_last(case.d))
        else:  # mixed-small-large
            mid_vals = (np.conj(char_values),)
            ops = (rank_one_first(case.c), diag_d)
        measures = (fourier, position, fourier)
    else:
        if case.regime == "both-large":
            mid_vals = (char_values, np.conj(char_values))
            ops = (diag_c, p0, diag_d)
        elif case.regime == "mixed-large-small":
            mid_vals = (char_values, ones)
            ops = (diag_c, p0, rank_one_last(case.d))
        elif case.regime == "mixed-small-large":
            mid_vals = (ones, np.conj(char_values))
            ops = (rank_one_first(case.c), p0, diag_d)
        else:  # both-small
            mid_vals = (ones, ones)
            ops = (rank_one_first(case.d), p0, rank_one_last(case.d))
        measures = (fourier, position, position, fourier)
    chain = HaagerupChainRep(head, mid_vals, tail)
    inst = MoiInstance(measures, ops, chain)
    return SharpnessInstance(inst, expected_output(case), case)


def _rhs_norms(case: ConstructionCase) -> float:
    """Product of the operator norms entering the bound: the Schatten norms
    of the first and last operators (interior rank-one projections have
    operator norm 1)."""
    if case.regime == "both-large":
        return sequence_norm(case.c, case.p_first) * sequence_norm(case.d, case.p_last)
    if case.regime == "mixed-large-small":
        return sequence_norm(case.c, case.p_first) * sequence_norm(case.d, 2)
    if case.regime == "mixed-small-large":
        return sequence_norm(case.c, 2) * sequence_norm(case.d, case.p_last)
    return sequence_norm(case.d, 2) ** 2


@dataclass(frozen=True)
class SweepRow:
    n: int
    s: float
    p_first: float
    p_last: float
    lhs: float
    rhs: float
    ratio: float


def growth_sweep(
    arity: int,
    regime: str,
    p_first,
    p_last,
    dims,
    s,
    cross_check: bool = True,
) -> list[SweepRow]:
    """One row per truncation n: lhs = ||W||_s from the diagonal closed form,
    rhs = the product of operator norms, ratio = lhs / rhs.

    The smallest materializable n is cross-checked against the full chain
    evaluation; a mismatch raises ConstructionCheckError. The cross-check
    depends only on (arity, regime, p_first, p_last, dims[0]), not on s, so a
    caller sweeping several s values passes cross_check=True to one call
    only. Deterministic; dims must be ascending.
    """
    s = check_exponent(s)
    dims = [int(n) for n in dims]
    if not dims:
        raise ValueError("need at least one truncation dimension")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("truncation dimensions must be strictly ascending")
    if dims[-1] > SWEEP_CAP:
        raise ValueError(f"n = {dims[-1]} exceeds the sweep cap {SWEEP_CAP}")
    rows = []
    for n in dims:
        case = default_case(arity, regime, p_first, p_last, n)
        lhs = sequence_norm(expected_diag(case), s)
        rhs = _rhs_norms(case)
        rows.append(
            SweepRow(n, s, case.p_first, case.p_last, lhs, rhs, lhs / rhs)
        )
    if cross_check and dims[0] <= BUILD_CAP:
        built = build_construction(default_case(arity, regime, p_first, p_last, dims[0]))
        bound = rep_norm_bound(built.instance.integrand)
        if not abs(bound - 1.0) <= 1e-12:
            raise ConstructionCheckError(f"construction norm {bound} != 1")
        w = eval_haagerup(built.instance)
        err = np.abs(w - built.expected).max()
        if not err <= 1e-10 * _scale(bound, built.instance.operators):  # a NaN fails too
            raise ConstructionCheckError(
                f"construction cross-check failed at n = {dims[0]}: error {err:.3e}"
            )
    return rows


def sweep_csv(rows) -> str:
    """CSV with header n,s,p1,pm1,lhs,rhs,ratio and 12 significant digits."""

    def fmt(x) -> str:
        if x == np.inf:
            return "inf"
        return f"{x:.12g}"

    lines = ["n,s,p1,pm1,lhs,rhs,ratio"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.n),
                    fmt(row.s),
                    fmt(row.p_first),
                    fmt(row.p_last),
                    fmt(row.lhs),
                    fmt(row.rhs),
                    fmt(row.ratio),
                ]
            )
        )
    return "\n".join(lines) + "\n"
