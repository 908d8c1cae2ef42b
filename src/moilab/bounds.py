"""Schatten-norm inequality checks: compute both sides of each bound on a
concrete instance and report lhs, rhs, ratio, and a pass flag.

The rhs always uses the norm of the given representation, an upper bound for
the (non-computable) infimum tensor norm; a passing report is therefore a
sound witness of the underlying inequality. Out-of-range exponents raise
RangeError instead of producing reports, so a violated hypothesis can never
masquerade as a falsified bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evaluate import (
    MoiInstance,
    eval_haagerup,
    eval_haagerup_like,
    eval_moi,
    row_block,
)
from .integrands import HaagerupChainRep, HaagerupLikeRep, ProjectiveRep, rep_norm_bound
from .linalg import (
    INF,
    adjoint,
    as_matrix,
    check_exponent,
    harmonic_exponent,
    schatten_norm,
    schatten_norms,
)
from .serialize import exponent_to_json

DEFAULT_TOL = 1e-9
# Slack for float accumulation in harmonic-sum interval gates only; the
# individual exponent gates (p >= 2 etc.) are exact.
HARMONIC_GATE_SLACK = 1e-12
ROW_NORMALIZATION_SLACK = 1e-10

# report tags of the chain-like bound at arity 3 and 4; any other arity m is
# tagged "hlike-m<m>-1" (first kind) or "hlike-m<m>-2" (second kind)
LIKE_TAGS = {
    ("first", 3): "hlike-first",
    ("second", 3): "hlike-second",
    ("first", 4): "hlike-quad-1",
    ("second", 4): "hlike-quad-2",
}


class RangeError(ValueError):
    """An exponent hypothesis of the checked inequality is violated."""


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality instance. The rhs norm of the integrand is the
    norm of the representation at hand, not the infimum over representations;
    every serialized report carries that caveat."""

    tag: str
    exponents: dict
    lhs: float
    rhs: float
    ratio: float
    holds: bool
    tol: float

    def to_json(self) -> dict:
        out = {"tag": self.tag}
        out.update({k: exponent_to_json(v) for k, v in self.exponents.items()})
        out.update(
            {
                "lhs": self.lhs,
                "rhs": self.rhs,
                "ratio": self.ratio,
                "holds": self.holds,
                "tol": self.tol,
                "rhs_integrand_norm": "given-representation upper bound",
            }
        )
        return out


def _report(tag: str, exponents: dict, lhs: float, rhs: float, tol: float) -> BoundReport:
    if rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    return BoundReport(tag, exponents, lhs, rhs, ratio, ratio <= 1.0 + tol, tol)


def _bound_report(
    tag: str, exponents: dict, inst: MoiInstance, value, operator_exps, tol: float
) -> BoundReport:
    """The report of ||W||_r <= rep_norm * prod ||T_i||_{p_i}, with W the
    value, r = exponents["r"] and p_i the operators' exponents, all in factor
    order: one SVD call for all the norms, the product taken left to right."""
    lhs, *norms = schatten_norms([value, *inst.operators], [exponents["r"], *operator_exps])
    rhs = math.prod([rep_norm_bound(inst.integrand), *norms])
    return _report(tag, exponents, lhs, rhs, tol)


def check_projective(
    inst: MoiInstance, exponents: Sequence[float], tol: float = DEFAULT_TOL
) -> BoundReport:
    """Schatten bound for projective integrands: with T_i in S_{p_i} and
    1/r = sum 1/p_i <= 1, the integral lies in S_r with
    ||W||_r <= rep_norm * prod ||T_i||_{p_i}."""
    rep = inst.integrand
    if not isinstance(rep, ProjectiveRep):
        raise TypeError("check_projective needs a projective representation")
    exps = [check_exponent(p) for p in exponents]
    if len(exps) != inst.arity - 1:
        raise ValueError(f"need {inst.arity - 1} exponents, got {len(exps)}")
    r = harmonic_exponent(exps)
    if r != INF and 1.0 / r > 1.0 + HARMONIC_GATE_SLACK:
        raise RangeError(
            f"sum of reciprocal exponents {1.0 / r:.6g} exceeds 1; the bound requires"
            " 1/r = sum 1/p_i <= 1"
        )
    finite = sum(1 for p in exps if p != INF)
    tag = "proj-op-norm" if finite == 0 else ("proj-sp" if finite == 1 else "proj-pq")
    expd = {f"p{i + 1}": p for i, p in enumerate(exps)}
    expd["r"] = r
    return _bound_report(tag, expd, inst, eval_moi(inst), exps, tol)


def check_haagerup_main(
    inst: MoiInstance, p, q, tol: float = DEFAULT_TOL
) -> BoundReport:
    """Main chain bound: for p, q in [2, inf] and interior operators measured
    in operator norm, ||W||_r <= rep_norm * ||T_1||_p * prod ||T_i|| * ||T_{m-1}||_q
    with 1/r = 1/p + 1/q."""
    rep = inst.integrand
    if not isinstance(rep, HaagerupChainRep):
        raise TypeError("check_haagerup_main needs a chain representation")
    if inst.arity < 3:
        raise ValueError("the chain bound concerns arity >= 3")
    p = check_exponent(p)
    q = check_exponent(q)
    if p < 2.0:
        raise RangeError(f"p = {p} < 2; the bound requires p, q in [2, inf]")
    if q < 2.0:
        raise RangeError(f"q = {q} < 2; the bound requires p, q in [2, inf]")
    expd = {"p": p, "q": q, "r": harmonic_exponent([p, q])}
    inner = [INF] * (inst.arity - 3)  # the interior operators in operator norm
    return _bound_report("haagerup-main", expd, inst, eval_haagerup(inst), [p, *inner, q], tol)


def check_lemma_row(
    blocks: Sequence[np.ndarray], t, p, tol: float = DEFAULT_TOL
) -> BoundReport:
    """Row-matrix bound: with ||sum A_j* A_j|| <= 1 and p in [2, inf],
    ||(A_0 T  A_1 T  ...)||_p <= ||T||_p, for T of the shape of sum A_j* A_j."""
    p = check_exponent(p)
    if p < 2.0:
        raise RangeError(f"p = {p} < 2; the row bound requires p in [2, inf]")
    blocks = [as_matrix(a) for a in blocks]
    if not blocks:
        raise ValueError("need at least one block")
    t = as_matrix(t)
    gram = sum(adjoint(a) @ a for a in blocks)
    if t.shape != gram.shape:
        raise ValueError(f"T shape {t.shape} != {gram.shape}, the shape of sum A_j* A_j")
    gram_norm, rhs = schatten_norms([gram, t], [INF, p])  # one SVD call
    if gram_norm > 1.0 + ROW_NORMALIZATION_SLACK:
        raise ValueError(
            f"blocks are not normalized: ||sum A_j* A_j|| = {gram_norm:.12g} > 1"
        )
    lhs = schatten_norm(row_block(blocks, t), p)
    return _report("lemma-row", {"p": p}, lhs, rhs, tol)


def check_haagerup_like(
    inst: MoiInstance, p, q, tol: float = DEFAULT_TOL
) -> BoundReport:
    """Chain-like bound: ||W||_r <= rep_norm * ||T||_p * ||R||_q for the two
    Schatten-classed operators, with 1/r = 1/p + 1/q in [1/2, 1].

    First kind requires q >= 2, second kind p >= 2. The operators enter the
    rhs in factor order: T_1 in p, T_2 (first kind) or T_{m-1} (second kind)
    in q, and every other operator in operator norm.
    """
    rep = inst.integrand
    if not isinstance(rep, HaagerupLikeRep):
        raise TypeError("check_haagerup_like needs a chain-like representation")
    p = check_exponent(p)
    q = check_exponent(q)
    if rep.kind == "first" and q < 2.0:
        raise RangeError(f"q = {q} < 2; the first-kind bound requires q >= 2")
    if rep.kind == "second" and p < 2.0:
        raise RangeError(f"p = {p} < 2; the second-kind bound requires p >= 2")
    r = harmonic_exponent([p, q])
    inv = 0.0 if r == INF else 1.0 / r
    if not (0.5 - HARMONIC_GATE_SLACK <= inv <= 1.0 + HARMONIC_GATE_SLACK):
        raise RangeError(
            f"1/p + 1/q = {inv:.6g} outside [1/2, 1]; r must lie in [1, 2]"
        )
    exps = [p, *[INF] * (rep.arity - 2)]
    exps[1 if rep.kind == "first" else rep.arity - 2] = q
    derived = f"hlike-m{rep.arity}-{1 if rep.kind == 'first' else 2}"
    tag = LIKE_TAGS.get((rep.kind, rep.arity), derived)
    expd = {"p": p, "q": q, "r": r}
    return _bound_report(tag, expd, inst, eval_haagerup_like(inst), exps, tol)
