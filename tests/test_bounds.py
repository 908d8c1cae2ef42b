"""Inequality reports: equality cases, exponent gates, randomized campaigns."""

import numpy as np
import pytest

from moilab.bounds import (
    RangeError,
    check_haagerup_like,
    check_haagerup_main,
    check_lemma_row,
    check_projective,
)
from moilab.evaluate import MoiInstance
from moilab.integrands import HaagerupChainRep, ProjectiveRep, rep_norm_bound
from moilab.linalg import INF, adjoint, operator_norm, schatten_norm
from moilab.randominst import (
    random_instance,
    random_measure,
    random_row_blocks,
    rng_for,
)
from moilab.spectral import FiniteSpectralMeasure


def crandom(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def constant_chain_instance(dim, t, r):
    e = FiniteSpectralMeasure.trivial(dim)
    rep = HaagerupChainRep(np.ones((1, 1)), (np.ones((1, 1, 1)),), np.ones((1, 1)))
    return MoiInstance((e, e, e), (t, r), rep)


def test_projective_equality_case():
    e = FiniteSpectralMeasure.trivial(2)
    rep = ProjectiveRep(3, ((np.ones(1), np.ones(1), np.ones(1)),))
    inst = MoiInstance((e, e, e), (np.eye(2), np.eye(2)), rep)
    report = check_projective(inst, (2, 2))
    assert abs(report.lhs - 2.0) < 1e-12
    assert abs(report.rhs - 2.0) < 1e-12
    assert abs(report.ratio - 1.0) < 1e-12
    assert report.holds
    assert report.tag == "proj-pq"


def test_projective_tags():
    inst = random_instance(rng_for(31), "projective", dim_range=(3, 3), arity=3)
    assert check_projective(inst, (INF, INF)).tag == "proj-op-norm"
    assert check_projective(inst, (INF, 2)).tag == "proj-sp"
    assert check_projective(inst, (4, 4)).tag == "proj-pq"


def test_projective_range_gate():
    inst = random_instance(rng_for(32), "projective", dim_range=(3, 3), arity=3)
    with pytest.raises(RangeError, match="sum of reciprocal"):
        check_projective(inst, (1, 2))
    with pytest.raises(ValueError):
        check_projective(inst, (2,))


@pytest.mark.parametrize("exps", [(2, 2), (4, 4), (2, INF), (INF, INF), (1, INF)])
def test_projective_campaign_arity_three(exps):
    for seed in range(100):
        inst = random_instance(rng_for(33, seed), "projective", dim_range=(2, 6), arity=3)
        assert check_projective(inst, exps).holds


@pytest.mark.parametrize("exps", [(3, 3, 3), (4, 4, 4), (2, INF, INF), (6, 6, 6)])
def test_projective_campaign_arity_four(exps):
    for seed in range(100):
        inst = random_instance(rng_for(34, seed), "projective", dim_range=(2, 5), arity=4)
        assert check_projective(inst, exps).holds


def test_haagerup_main_equality_case():
    t = np.diag([1.0, 2.0, 3.0]).astype(complex)
    report = check_haagerup_main(constant_chain_instance(3, t, t), 2, 2)
    assert abs(report.ratio - 1.0) <= 1e-10
    assert report.holds


def test_haagerup_main_exact_gate():
    inst = random_instance(rng_for(35), "chain", dim_range=(3, 3), arity=3)
    assert check_haagerup_main(inst, 2.0, 2.0).holds
    with pytest.raises(RangeError, match="p = "):
        check_haagerup_main(inst, 2.0 - 1e-9, 2.0)
    with pytest.raises(RangeError, match="q = "):
        check_haagerup_main(inst, 2.0, 1.9)


def test_haagerup_main_rejects_arity_two():
    inst = random_instance(rng_for(36), "chain", dim_range=(3, 3), arity=2)
    with pytest.raises(ValueError):
        check_haagerup_main(inst, 2, 2)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, INF])
@pytest.mark.parametrize("q", [2.0, 3.0, 4.0, INF])
def test_haagerup_main_campaign(p, q):
    for seed in range(40):
        arity = 3 if seed % 2 else 4
        inst = random_instance(rng_for(37, seed), "chain", dim_range=(2, 6), arity=arity)
        report = check_haagerup_main(inst, p, q)
        assert report.holds, f"seed={seed} ratio={report.ratio}"


def test_haagerup_main_bounds_under_any_representation():
    # rewriting the integrand with a non-unitary link change keeps the value
    # but changes the representation norm; the bound must hold for both
    rng = rng_for(38)
    inst = random_instance(rng, "chain", dim_range=(3, 4), arity=3)
    rep = inst.integrand
    width = rep.head.shape[1]
    g = np.eye(width) + 0.4 * crandom(rng, (width, width))
    g_inv = np.linalg.inv(g)
    other = MoiInstance(
        inst.measures,
        inst.operators,
        HaagerupChainRep(
            rep.head @ g,
            (np.einsum("ab,ibc->iac", g_inv, rep.middles[0]),),
            rep.tail,
        ),
    )
    r1 = check_haagerup_main(inst, 2, 4)
    r2 = check_haagerup_main(other, 2, 4)
    assert abs(r1.lhs - r2.lhs) <= 1e-9 * max(r1.lhs, 1e-12)
    assert r1.holds and r2.holds


def test_haagerup_main_report_deterministic():
    inst = random_instance(rng_for(39), "chain", dim_range=(3, 3), arity=3)
    assert check_haagerup_main(inst, 2, 2) == check_haagerup_main(inst, 2, 2)


def test_lemma_row_identity_block():
    rng = rng_for(40)
    t = crandom(rng, (3, 3))
    report = check_lemma_row([np.eye(3)], t, 2)
    assert abs(report.ratio - 1.0) <= 1e-12
    assert report.holds


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, INF])
def test_lemma_row_campaign(p):
    for seed in range(50):
        rng = rng_for(41, seed)
        dim = int(rng.integers(2, 6))
        blocks = random_row_blocks(rng, dim, int(rng.integers(1, 4)))
        t = crandom(rng, (dim, dim))
        report = check_lemma_row(blocks, t, p)
        assert report.holds, f"seed={seed} ratio={report.ratio}"


def test_lemma_row_trace_identity_at_two():
    rng = rng_for(42)
    blocks = random_row_blocks(rng, 4, 3)
    t = crandom(rng, (4, 4))
    report = check_lemma_row(blocks, t, 2)
    gram = sum(adjoint(a) @ a for a in blocks)
    expected_sq = float(np.trace(adjoint(t) @ gram @ t).real)
    assert abs(report.lhs**2 - expected_sq) <= 1e-10 * max(expected_sq, 1.0)


def test_lemma_row_normalization_gate():
    rng = rng_for(43)
    blocks = [2.0 * np.eye(3)]
    with pytest.raises(ValueError, match="not normalized"):
        check_lemma_row(blocks, crandom(rng, (3, 3)), 2)
    with pytest.raises(RangeError):
        check_lemma_row([np.eye(3)], crandom(rng, (3, 3)), 1.5)


def test_like_equality_case():
    rng = rng_for(44)
    dim = 3
    measures = tuple(random_measure(rng, dim) for _ in range(3))
    counts = [e.n_atoms for e in measures]
    from moilab.integrands import HaagerupLikeRep

    rep = HaagerupLikeRep(
        "first",
        (np.ones((counts[0], 1)), np.ones((counts[1], 1)), np.ones((counts[2], 1, 1))),
    )
    t = np.diag([1.0, 2.0, 3.0]).astype(complex)
    inst = MoiInstance(measures, (t, t), rep)
    report = check_haagerup_like(inst, 2, 2)
    assert abs(report.ratio - 1.0) <= 1e-10
    assert report.tag == "hlike-first"


def test_like_gates():
    inst_first = random_instance(rng_for(45), "like-first", dim_range=(3, 3), arity=3)
    inst_second = random_instance(rng_for(46), "like-second", dim_range=(3, 3), arity=3)
    with pytest.raises(RangeError, match="first-kind"):
        check_haagerup_like(inst_first, 2, 1.9)
    with pytest.raises(RangeError, match="second-kind"):
        check_haagerup_like(inst_second, 1.9, 2)
    with pytest.raises(RangeError, match="outside"):
        check_haagerup_like(inst_first, INF, INF)
    with pytest.raises(RangeError, match="outside"):
        check_haagerup_like(inst_first, 1, 2)


FIRST_PAIRS = [(2, 2), (2, 4), (4, 4), (2, INF), (1, INF), (4 / 3, 4)]
SECOND_PAIRS = [(2, 2), (4, 2), (4, 4), (INF, 2), (INF, 1), (4, 4 / 3)]


@pytest.mark.parametrize("arity", [3, 4])
def test_like_campaign(arity):
    for seed in range(60):
        kind = "first" if seed % 2 == 0 else "second"
        pairs = FIRST_PAIRS if kind == "first" else SECOND_PAIRS
        rng = rng_for(47, seed, arity)
        inst = random_instance(rng, f"like-{kind}", dim_range=(2, 5), arity=arity)
        p, q = pairs[seed % len(pairs)]
        report = check_haagerup_like(inst, p, q)
        assert report.holds, f"seed={seed} kind={kind} ratio={report.ratio}"
        expected_tag = {
            ("first", 3): "hlike-first",
            ("second", 3): "hlike-second",
            ("first", 4): "hlike-quad-1",
            ("second", 4): "hlike-quad-2",
        }[(kind, arity)]
        assert report.tag == expected_tag


@pytest.mark.parametrize("kind, arity", [(k, m) for k in ("first", "second") for m in range(3, 7)])
def test_like_operator_roles(kind, arity):
    """T_a takes p and T_b takes q, with (a, b) = (0, 1) for the first kind
    and (0, m-2) for the second; every other operator is in operator norm."""
    inst = random_instance(rng_for(49, arity), f"like-{kind}", dim_range=(4, 4), arity=arity)
    p, q = (2, 4) if kind == "first" else (4, 2)
    a, b = 0, 1 if kind == "first" else arity - 2
    ops = inst.operators
    rhs = rep_norm_bound(inst.integrand) * schatten_norm(ops[a], p) * schatten_norm(ops[b], q)
    for k, op in enumerate(ops):
        if k not in (a, b):
            rhs *= operator_norm(op)
    assert check_haagerup_like(inst, p, q).rhs == rhs


def test_like_tags_beyond_arity_four_are_derived():
    for kind, arity, tag in [("first", 5, "hlike-m5-1"), ("second", 6, "hlike-m6-2")]:
        inst = random_instance(rng_for(50, arity), f"like-{kind}", dim_range=(3, 3), arity=arity)
        assert check_haagerup_like(inst, 2, 2).tag == tag


def test_report_json_round_trip_fields():
    inst = random_instance(rng_for(48), "chain", dim_range=(3, 3), arity=3)
    report = check_haagerup_main(inst, 2, INF)
    payload = report.to_json()
    assert payload["tag"] == "haagerup-main"
    assert payload["q"] == "inf"
    assert payload["r"] == 2.0
    assert set(payload) >= {"tag", "p", "q", "r", "lhs", "rhs", "ratio", "holds"}


def test_zero_instance_ratio_convention():
    e = FiniteSpectralMeasure.trivial(2)
    rep = ProjectiveRep(3)
    inst = MoiInstance((e, e, e), (np.eye(2), np.eye(2)), rep)
    report = check_projective(inst, (2, 2))
    assert report.lhs == 0.0 and report.rhs == 0.0
    assert report.ratio == 0.0
    assert report.holds
