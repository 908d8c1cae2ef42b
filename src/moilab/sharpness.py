"""Extremal construction families on the cyclic model, exhibiting that the
Schatten exponent r with 1/r = 1/max(p1,2) + 1/max(pm1,2) cannot be improved.

Each family at truncation n yields a chain instance of representation norm 1
whose value is exactly diagonal in the frequency basis, with closed-form
diagonal entries c_j d_j (or d_j^2 in the rank-one-only regime). Sweeping n
shows the ratio ||W||_s / (norms of the operators) bounded at s = r and
unbounded for s < r.

One rule builds the family of every arity m from 3 to MAX_ARITY: the measures
are (Fourier, m - 2 position measures, Fourier), the operators (first, m - 3
rank-one projections p0, last), and the diagonal middles (first middle,
m - 4 tables of ones, last middle), the one middle at m = 3 being the product
of the two. A table of ones integrates to the identity and p0 has operator
norm 1, so the closed form does not depend on m.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .evaluate import MoiInstance, eval_haagerup
from .integrands import HaagerupChainRep, rep_norm_bound
from .linalg import INF, check_exponent, harmonic_exponent, sequence_norm, sharp
from .spectral import cyclic_model

REGIMES = ("both-large", "both-small", "mixed-large-small", "mixed-small-large")

# Largest n for which full matrices are materialized; sweeps beyond this use
# the diagonal closed form only. The cap is set by time and memory: the delta
# head and tail pin the chain's bond in the sweep (see evaluate), so the
# cross-check is a few n x n matmuls, n^3 work, and its scale is a closed form
# (_rhs_norms), not SVDs. At n = 1024, arity 4, one BLAS thread: 0.08 s to
# build, 0.6 s to contract; `moilab sweep` peaks at 192 MiB (tracemalloc),
# some twelve n x n matrices. n = 2048 would take about 8 times as long and
# 0.8 GiB. Each factor beyond 4 adds a rank-one p0, which moves as a pair of
# n-vectors (see evaluate._thin), and a middle of ones, one table shared by
# them all, which saves the instance's memory only: the sweep gathers each
# table on the pinned bond at the step that reads it, one at a time, shared
# or not. Arity 5 peaks at 208 MiB, and MAX_ARITY = 10 at 208.4 MiB.
# The 384 MiB that tests allow at arity 4 and at MAX_ARITY would hold every
# arity up to 51, the most a chain's bond letters name, which peaks at
# 210 MiB; MAX_ARITY stays 10, the arity that CI runs at n = 1024.
BUILD_CAP = 1024
SWEEP_CAP = 8192
MAX_ARITY = 10


class ConstructionCheckError(RuntimeError):
    """A materialized construction disagrees with its closed form."""


def sharp_r(p_first, p_last) -> float:
    """The critical exponent: 1/r = 1/max(p_first, 2) + 1/max(p_last, 2)."""
    return harmonic_exponent([sharp(p_first), sharp(p_last)])


def _integer(what: str, value, low: int, high=None) -> int:
    """value as an int in [low, high]; a bool or a non-integral number is refused."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integral and low <= value and (high is None or value <= high):
        return int(value)
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ValueError(f"{what} must be an integer {bounds}, got {value!r}")


@dataclass(frozen=True, eq=False)
class ConstructionCase:
    """Parameters of one extremal family: an integer arity m in [3, MAX_ARITY]
    (the number of spectral measures, as in the module's rule), exponent
    regime for the first and last operators, an integer truncation n >= 1,
    and the two real sequences."""

    arity: int
    regime: str
    p_first: float
    p_last: float
    n: int
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "arity", _integer("arity", self.arity, 3, MAX_ARITY))
        object.__setattr__(self, "n", _integer("truncation n", self.n, 1))
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; one of {REGIMES}")
        p1 = check_exponent(self.p_first)
        pm = check_exponent(self.p_last)
        first_large, last_large = self.large_ends
        bad_first = p1 < 2.0 if first_large else p1 > 2.0
        bad_last = pm < 2.0 if last_large else pm > 2.0
        if bad_first:
            raise ValueError(f"regime {self.regime} is inconsistent with p_first = {p1}")
        if bad_last:
            raise ValueError(f"regime {self.regime} is inconsistent with p_last = {pm}")
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
    def large_ends(self) -> tuple[bool, bool]:
        """Whether the first and the last operator are large (diagonal)."""
        return (
            self.regime in ("both-large", "mixed-large-small"),
            self.regime in ("both-large", "mixed-small-large"),
        )

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
        raise ValueError(f"unknown regime {regime!r}; one of {REGIMES}")
    j = np.arange(_integer("truncation n", n, 1), dtype=float)

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


def build_construction(case: ConstructionCase) -> MoiInstance:
    """Materialize the extremal family at truncation n = ambient dimension.

    The integrand is a chain of representation norm 1: delta-system
    head and tail on the frequency measure, unimodular diagonal (n, n)
    middles on the position measure. The cyclic shifts keep every identity
    exact, and the compressions P_j . P_j make the value exactly diagonal,
    with diagonal expected_diag(case).
    Every arity m follows the module's rule: the middles are ones, but the
    first is the characters when the first operator is large, and the last is
    multiplied by their conjugates when the last operator is. That product is
    by exact ones, but for the arity-3 both-large family, whose one middle
    becomes chars . conj(chars), 1 up to rounding.
    """
    n, m = case.n, case.arity
    if n > BUILD_CAP:
        raise ValueError(
            f"n = {n} exceeds the materialization cap {BUILD_CAP}; "
            "use the diagonal closed form for large n"
        )
    # characters[i, j] = value of the j-th character at position atom i
    fourier, position, characters = cyclic_model(n)
    first_large, last_large = case.large_ends
    first = np.diag(case.c.astype(np.complex128))
    last = np.diag(case.d.astype(np.complex128))
    if not first_large:  # rank one; in the rank-one-only regime d carries both ends
        first = np.zeros((n, n), dtype=np.complex128)
        first[:, 0] = case.c if last_large else case.d
    if not last_large:
        last = np.zeros((n, n), dtype=np.complex128)
        last[0, :] = case.d  # real, so this row is its own conjugate
    p0 = np.zeros((n, n), dtype=np.complex128)
    p0[0, 0] = 1.0
    middles = [np.ones((n, n), dtype=np.complex128)] * (m - 2)
    if first_large:
        middles[0] = characters
    if last_large:  # at m = 3 the one middle takes both: chars . conj(chars)
        middles[-1] = middles[-1] * np.conj(characters)
    delta = np.eye(n, dtype=np.complex128)  # alpha_j(x) = 1 if j = x else 0
    chain = HaagerupChainRep(delta, tuple(middles), delta)
    measures = (fourier, *[position] * (m - 2), fourier)
    return MoiInstance(measures, (first, *[p0] * (m - 3), last), chain)


def _rhs_norms(case: ConstructionCase, large=None) -> float:
    """Product of the operator norms entering the bound: the Schatten norms
    of the first and last operators (interior rank-one projections have
    operator norm 1): a diagonal end in its own exponent, or in `large` if
    given, a rank-one end, whose Schatten norms all equal its l^2 norm, in 2.
    With large = INF it is the product of operator norms, max|c| for a
    diagonal end, which scales the cross-check's tolerance."""
    first_large, last_large = case.large_ends
    first = case.c if first_large or last_large else case.d
    p_first = (case.p_first if large is None else large) if first_large else 2
    p_last = (case.p_last if large is None else large) if last_large else 2
    return sequence_norm(first, p_first) * sequence_norm(case.d, p_last)


@dataclass(frozen=True)
class SweepRow:
    n: int
    s: float
    p_first: float
    p_last: float
    lhs: float
    rhs: float
    ratio: float


def growth_sweep(arity: int, regime: str, p_first, p_last, dims, s_values) -> list[SweepRow]:
    """One row per s value and truncation n, s-major: lhs = ||W||_s from the
    diagonal closed form, rhs = the product of operator norms, ratio = lhs / rhs.

    The smallest materializable n is cross-checked once against the full
    chain evaluation, which does not depend on s; an error above 1e-10 times
    the representation norm times the operator norms, read from the case
    (_rhs_norms at INF) rather than from SVDs, raises ConstructionCheckError.
    Deterministic; dims must be ascending.
    """
    s_values = [check_exponent(s) for s in s_values]
    dims = list(dims)  # each n an integer, which ConstructionCase checks
    if not dims:
        raise ValueError("need at least one truncation dimension")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("truncation dimensions must be strictly ascending")
    if dims[-1] > SWEEP_CAP:
        raise ValueError(f"n = {dims[-1]} exceeds the sweep cap {SWEEP_CAP}")
    if dims[0] <= BUILD_CAP:  # before the closed forms, which its peak need not hold
        case = default_case(arity, regime, p_first, p_last, dims[0])
        inst = build_construction(case)
        bound = rep_norm_bound(inst.integrand)
        if not abs(bound - 1.0) <= 1e-12:
            raise ConstructionCheckError(f"construction norm {bound} != 1")
        w = eval_haagerup(inst)
        w[np.diag_indices_from(w)] -= expected_diag(case)  # the closed form, in place
        err = np.abs(w).max()
        if not err <= 1e-10 * bound * _rhs_norms(case, INF):  # a NaN fails too
            raise ConstructionCheckError(
                f"construction cross-check failed at n = {dims[0]}: error {err:.3e}"
            )
    cases = [default_case(arity, regime, p_first, p_last, n) for n in dims]
    closed = [(case, expected_diag(case), _rhs_norms(case)) for case in cases]
    rows = []
    for s in s_values:
        for case, diag, rhs in closed:
            lhs = sequence_norm(diag, s)
            rows.append(SweepRow(case.n, s, case.p_first, case.p_last, lhs, rhs, lhs / rhs))
    return rows


def sweep_csv(rows) -> str:
    """CSV with header n,s,p1,pm1,lhs,rhs,ratio and 12 significant digits."""

    def fmt(x) -> str:
        if x == np.inf:
            return "inf"
        return f"{x:.12g}"

    lines = ["n,s,p1,pm1,lhs,rhs,ratio"]
    for row in rows:
        values = (row.s, row.p_first, row.p_last, row.lhs, row.rhs, row.ratio)
        lines.append(",".join([str(row.n), *map(fmt, values)]))
    return "\n".join(lines) + "\n"
