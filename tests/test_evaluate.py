"""Evaluator paths against the exhaustive atomwise oracle, and trace duality."""

import gc
import itertools
import json
import tracemalloc
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moilab import evaluate
from moilab.evaluate import (
    CapExceededError,
    MoiInstance,
    _scale,
    duality_functional,
    eval_haagerup,
    eval_haagerup_block,
    eval_haagerup_like,
    eval_moi,
    eval_oracle,
    eval_projective,
    moi_scale,
)
from moilab.integrands import (
    HaagerupChainRep,
    HaagerupLikeRep,
    ProjectiveRep,
    embed_projective_in_haagerup,
    eval_pointwise,
    rep_norm_bound,
)
from moilab.linalg import INF, operator_norm, random_unitary, schatten_norm
from moilab.randominst import (
    random_chain_rep,
    random_instance,
    random_like_rep,
    random_measure,
    random_operator,
    random_projective_rep,
    rng_for,
)
from moilab.serialize import measure_from_json, measure_to_json
from moilab.sharpness import build_construction, default_case
from moilab.spectral import FiniteSpectralMeasure, from_hermitian, integrate_scalar

TOL = 1e-10


def crandom(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def double_schur(psi, e1, e2, t):
    """sum_{i,j} psi[i, j] P_i T Q_j for a dense table psi, through eval_moi:
    the chain psi[i, l] delta[l, j] takes the value psi[i, j] at atoms (i, j)."""
    chain = HaagerupChainRep(psi, (), np.eye(e2.n_atoms))
    return eval_moi(MoiInstance((e1, e2), (t,), chain))


def constant_projective(arity, counts):
    return ProjectiveRep(arity, (tuple(np.ones(n) for n in counts),))


def test_oracle_constant_integrand_collapses_to_product():
    rng = rng_for(1)
    dim = 4
    measures = tuple(random_measure(rng, dim) for _ in range(3))
    t1, t2 = crandom(rng, (dim, dim)), crandom(rng, (dim, dim))
    rep = constant_projective(3, [e.n_atoms for e in measures])
    inst = MoiInstance(measures, (t1, t2), rep)
    assert operator_norm(eval_oracle(inst) - t1 @ t2) <= TOL * moi_scale(inst)


def test_oracle_single_atom_measures():
    rng = rng_for(2)
    dim = 3
    e = FiniteSpectralMeasure.trivial(dim)
    t = crandom(rng, (dim, dim))
    value = 0.7 - 0.2j
    rep = ProjectiveRep(2, ((np.array([value]), np.array([1.0])),))
    inst = MoiInstance((e, e), (t,), rep)
    assert operator_norm(eval_oracle(inst) - value * t) <= TOL


def test_overlapping_family_never_reaches_the_oracle():
    # the oracle sums projections as given, so a family with P_0 = P_1 must
    # be refused when the measure is built, before any instance holds it
    p = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="atom 0"):
        FiniteSpectralMeasure(2, (0.0, 1.0), (p, p))
    e = FiniteSpectralMeasure(2, (0.0, 1.0), (p, np.eye(2) - p))
    rep = ProjectiveRep(2, ((np.ones(2), np.ones(2)),))
    inst = MoiInstance((e, e), (np.eye(2),), rep)
    assert operator_norm(eval_oracle(inst) - np.eye(2)) <= TOL


def test_oracle_cap():
    rng = rng_for(3)
    inst = random_instance(rng, "chain", dim_range=(4, 4), arity=3)
    with pytest.raises(CapExceededError):
        eval_oracle(inst, cap=1)


def test_projective_single_term_is_integral_product():
    rng = rng_for(4)
    dim = 4
    measures = tuple(random_measure(rng, dim) for _ in range(3))
    tables = tuple(crandom(rng, (e.n_atoms,)) for e in measures)
    t, r = crandom(rng, (dim, dim)), crandom(rng, (dim, dim))
    inst = MoiInstance(measures, (t, r), ProjectiveRep(3, (tables,)))
    direct = (
        integrate_scalar(tables[0], measures[0])
        @ t
        @ integrate_scalar(tables[1], measures[1])
        @ r
        @ integrate_scalar(tables[2], measures[2])
    )
    assert operator_norm(eval_projective(inst) - direct) <= TOL * moi_scale(inst)


def test_projective_constant_arity_four():
    rng = rng_for(5)
    dim = 3
    measures = tuple(random_measure(rng, dim) for _ in range(4))
    ops = tuple(crandom(rng, (dim, dim)) for _ in range(3))
    rep = constant_projective(4, [e.n_atoms for e in measures])
    inst = MoiInstance(measures, ops, rep)
    assert operator_norm(eval_projective(inst) - ops[0] @ ops[1] @ ops[2]) <= TOL * moi_scale(inst)


@pytest.mark.parametrize("seed", range(8))
def test_projective_matches_oracle(seed):
    inst = random_instance(rng_for(6, seed), "projective", dim_range=(2, 4))
    gap = operator_norm(eval_projective(inst) - eval_oracle(inst))
    assert gap <= TOL * moi_scale(inst)


def test_haagerup_width_one_chain():
    rng = rng_for(7)
    dim = 4
    measures = tuple(random_measure(rng, dim) for _ in range(3))
    a = crandom(rng, (measures[0].n_atoms, 1))
    b = crandom(rng, (measures[1].n_atoms, 1, 1))
    c = crandom(rng, (measures[2].n_atoms, 1))
    t, r = crandom(rng, (dim, dim)), crandom(rng, (dim, dim))
    inst = MoiInstance(measures, (t, r), HaagerupChainRep(a, (b,), c))
    direct = (
        integrate_scalar(a[:, 0], measures[0])
        @ t
        @ integrate_scalar(b[:, 0, 0], measures[1])
        @ r
        @ integrate_scalar(c[:, 0], measures[2])
    )
    assert operator_norm(eval_haagerup(inst) - direct) <= TOL * moi_scale(inst)


@pytest.mark.parametrize("arity", [2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_haagerup_matches_oracle(arity, seed):
    inst = random_instance(rng_for(8, seed, arity), "chain", dim_range=(2, 5), arity=arity)
    gap = operator_norm(eval_haagerup(inst) - eval_oracle(inst))
    assert gap <= TOL * moi_scale(inst)


def test_haagerup_zero_width_chain():
    dim = 3
    e = FiniteSpectralMeasure.trivial(dim)
    rep = HaagerupChainRep(np.zeros((1, 0)), (np.zeros((1, 0, 0)),), np.zeros((1, 0)))
    inst = MoiInstance((e, e, e), (np.eye(dim), np.eye(dim)), rep)
    assert operator_norm(eval_haagerup(inst)) == 0.0
    assert operator_norm(eval_haagerup_block(inst)) == 0.0


@pytest.mark.parametrize("arity", [3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_block_path_matches_direct(arity, seed):
    inst = random_instance(rng_for(9, seed, arity), "chain", dim_range=(2, 4), arity=arity)
    gap = operator_norm(eval_haagerup_block(inst) - eval_haagerup(inst))
    assert gap <= TOL * moi_scale(inst)


def test_block_cap():
    inst = random_instance(rng_for(10), "chain", dim_range=(4, 4), arity=3)
    with pytest.raises(CapExceededError):
        eval_haagerup_block(inst, block_cap=1)


def test_double_schur_constant_is_identity_map():
    rng = rng_for(11)
    dim = 4
    e1 = random_measure(rng, dim)
    e2 = random_measure(rng, dim)
    t = crandom(rng, (dim, dim))
    psi = np.ones((e1.n_atoms, e2.n_atoms))
    assert operator_norm(double_schur(psi, e1, e2, t) - t) <= TOL * operator_norm(t)


def test_double_schur_sum_function_gives_anticommutator():
    rng = rng_for(12)
    h = crandom(rng, (4, 4))
    a = h + h.conj().T
    e = from_hermitian(a)
    t = crandom(rng, (4, 4))
    pts = np.array(e.points, dtype=float)
    psi = pts[:, None] + pts[None, :]
    got = double_schur(psi, e, e, t)
    want = a @ t + t @ a
    assert operator_norm(got - want) <= 1e-9 * operator_norm(want)


def test_double_schur_divided_difference_of_square():
    # (x^2 - y^2)/(x - y) off the diagonal, derivative 2x on it: same table
    # as x + y, hence the same value
    rng = rng_for(13)
    h = crandom(rng, (4, 4))
    a = h + h.conj().T
    e = from_hermitian(a)
    t = crandom(rng, (4, 4))
    pts = np.array(e.points, dtype=float)
    psi = np.empty((len(pts), len(pts)))
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            psi[i, j] = 2.0 * x if i == j else (x**2 - y**2) / (x - y)
    want = a @ t + t @ a
    assert operator_norm(double_schur(psi, e, e, t) - want) <= 1e-9 * operator_norm(want)


def test_double_schur_hadamard_identity_for_eigenbasis_measures():
    # with rank-one projections from a common construction, the value is the
    # entrywise product of the table with T moved into the eigenbases
    rng = rng_for(14)
    dim = 4
    u = random_unitary(rng, dim)
    w = random_unitary(rng, dim)
    e1 = FiniteSpectralMeasure(
        dim, tuple(range(dim)), tuple(np.outer(u[:, i], u[:, i].conj()) for i in range(dim))
    )
    e2 = FiniteSpectralMeasure(
        dim, tuple(range(dim)), tuple(np.outer(w[:, i], w[:, i].conj()) for i in range(dim))
    )
    t = crandom(rng, (dim, dim))
    psi = crandom(rng, (dim, dim))
    got = double_schur(psi, e1, e2, t)
    want = u @ (psi * (u.conj().T @ t @ w)) @ w.conj().T
    assert operator_norm(got - want) <= 1e-10 * max(operator_norm(want), 1.0)


def test_like_all_widths_one_matches_projective():
    rng = rng_for(15)
    dim = 3
    measures = tuple(random_measure(rng, dim) for _ in range(3))
    counts = [e.n_atoms for e in measures]
    a, b, g = (crandom(rng, (n,)) for n in counts)
    ops = tuple(crandom(rng, (dim, dim)) for _ in range(2))
    like = HaagerupLikeRep(
        "first", (a[:, None], b[:, None], g[:, None, None])
    )
    proj = ProjectiveRep(3, ((a, b, g),))
    w_like = eval_haagerup_like(MoiInstance(measures, ops, like))
    w_proj = eval_projective(MoiInstance(measures, ops, proj))
    assert operator_norm(w_like - w_proj) <= TOL * max(operator_norm(w_proj), 1.0)


def test_like_constant_first_kind_is_plain_product():
    rng = rng_for(16)
    dim = 3
    measures = tuple(random_measure(rng, dim) for _ in range(3))
    counts = [e.n_atoms for e in measures]
    rep = HaagerupLikeRep(
        "first",
        (np.ones((counts[0], 1)), np.ones((counts[1], 1)), np.ones((counts[2], 1, 1))),
    )
    t, r = crandom(rng, (dim, dim)), crandom(rng, (dim, dim))
    inst = MoiInstance(measures, (t, r), rep)
    assert operator_norm(eval_haagerup_like(inst) - t @ r) <= TOL * moi_scale(inst)


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("arity", [3, 4, 5, 6])
@pytest.mark.parametrize("seed", range(4))
def test_like_matches_oracle(kind, arity, seed):
    inst = random_instance(
        rng_for(17, seed, arity, hash(kind) % 1000), f"like-{kind}", dim_range=(2, 4), arity=arity
    )
    gap = operator_norm(eval_haagerup_like(inst) - eval_oracle(inst))
    assert gap <= TOL * moi_scale(inst)


def test_duality_zero_probe():
    inst = random_instance(rng_for(18), "like-first", dim_range=(3, 3), arity=3)
    assert duality_functional(inst, np.zeros((3, 3))) == 0.0


def test_duality_identity_probe_constant_integrand():
    rng = rng_for(19)
    dim = 3
    measures = tuple(random_measure(rng, dim) for _ in range(3))
    counts = [e.n_atoms for e in measures]
    rep = HaagerupLikeRep(
        "first",
        (np.ones((counts[0], 1)), np.ones((counts[1], 1)), np.ones((counts[2], 1, 1))),
    )
    t, r = crandom(rng, (dim, dim)), crandom(rng, (dim, dim))
    inst = MoiInstance(measures, (t, r), rep)
    value = duality_functional(inst, np.eye(dim))
    assert abs(value - np.trace(t @ r)) <= 1e-9 * max(abs(np.trace(t @ r)), 1.0)


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("arity", [3, 4, 5, 6])
def test_duality_matches_trace_pairing(kind, arity):
    rng = rng_for(20, arity, hash(kind) % 1000)
    inst = random_instance(rng, f"like-{kind}", dim_range=(4, 4), arity=arity)
    w = eval_haagerup_like(inst)
    scale = moi_scale(inst)
    for _ in range(50):
        q = crandom(rng, (4, 4))
        expected = complex(np.trace(w @ q))
        got = duality_functional(inst, q)
        assert abs(got - expected) <= 1e-9 * max(scale * schatten_norm(q, 1), 1e-12)


def test_moi_instance_validation_errors():
    rng = rng_for(21)
    e3 = random_measure(rng, 3)
    e4 = random_measure(rng, 4)
    rep = constant_projective(2, [e3.n_atoms, e3.n_atoms])
    with pytest.raises(ValueError):
        MoiInstance((e3, e4), (np.eye(3),), rep)
    with pytest.raises(ValueError):
        MoiInstance((e3, e3), (np.eye(3), np.eye(3)), rep)
    with pytest.raises(ValueError):
        MoiInstance((e3, e3), (np.eye(4),), rep)
    bad_rep = constant_projective(2, [e3.n_atoms + 1, e3.n_atoms])
    with pytest.raises(ValueError):
        MoiInstance((e3, e3), (np.eye(3),), bad_rep)


def test_representation_independence_under_link_rotation():
    # inserting G, G^{-1} across a chain link changes the tables but not the
    # integrand, so the value must be unchanged
    rng = rng_for(22)
    inst = random_instance(rng, "chain", dim_range=(3, 4), arity=3)
    rep = inst.integrand
    g = random_unitary(rng, rep.head.shape[1])
    rotated = HaagerupChainRep(
        rep.head @ g,
        (np.einsum("ab,ibc->iac", g.conj().T, rep.middles[0]),),
        rep.tail,
    )
    other = MoiInstance(inst.measures, inst.operators, rotated)
    scale = max(moi_scale(inst), moi_scale(other))
    assert operator_norm(eval_haagerup(inst) - eval_haagerup(other)) <= 1e-9 * scale


def test_multilinearity_in_each_operator():
    rng = rng_for(23)
    inst = random_instance(rng, "chain", dim_range=(3, 3), arity=3)
    a, b = 0.8 - 0.1j, -1.3
    for slot in range(2):
        x, y = crandom(rng, (3, 3)), crandom(rng, (3, 3))
        ops_x = list(inst.operators)
        ops_y = list(inst.operators)
        ops_c = list(inst.operators)
        ops_x[slot], ops_y[slot], ops_c[slot] = x, y, a * x + b * y
        w_x = eval_haagerup(MoiInstance(inst.measures, tuple(ops_x), inst.integrand))
        w_y = eval_haagerup(MoiInstance(inst.measures, tuple(ops_y), inst.integrand))
        w_c = eval_haagerup(MoiInstance(inst.measures, tuple(ops_c), inst.integrand))
        scale = max(operator_norm(w_x), operator_norm(w_y), 1e-12)
        assert operator_norm(w_c - a * w_x - b * w_y) <= 1e-10 * scale


@pytest.mark.parametrize("seed", range(5))
def test_path_equivalence_projective_chain_block_oracle(seed):
    inst = random_instance(rng_for(24, seed), "projective", dim_range=(2, 4), arity=3)
    scale = moi_scale(inst)
    w_proj = eval_projective(inst)
    w_oracle = eval_oracle(inst)
    embedded = MoiInstance(
        inst.measures, inst.operators, embed_projective_in_haagerup(inst.integrand)
    )
    w_chain = eval_haagerup(embedded)
    w_block = eval_haagerup_block(embedded)
    for w in (w_chain, w_block, w_oracle):
        assert operator_norm(w_proj - w) <= 1e-9 * scale


@pytest.mark.parametrize("cls", ["projective", "chain"])
def test_operator_norm_bound(cls):
    for seed in range(10):
        inst = random_instance(rng_for(25, seed), cls, dim_range=(2, 4))
        w = eval_moi(inst)
        assert schatten_norm(w, INF) <= moi_scale(inst) * (1.0 + 1e-9)


def test_adjoint_symmetry_between_kinds():
    # the second-kind value on index-reversed, conjugated tables over the
    # reversed measures equals the adjoint of the first-kind value
    rng = rng_for(26)
    inst = random_instance(rng, "like-first", dim_range=(3, 4), arity=3)
    alpha, beta, gamma = inst.integrand.tables
    reversed_rep = HaagerupLikeRep(
        "second",
        (np.conj(gamma).transpose(0, 2, 1), np.conj(beta), np.conj(alpha)),
    )
    t, r = inst.operators
    mirrored = MoiInstance(
        (inst.measures[2], inst.measures[1], inst.measures[0]),
        (r.conj().T, t.conj().T),
        reversed_rep,
    )
    w = eval_haagerup_like(inst)
    w_mirror = eval_haagerup_like(mirrored)
    assert operator_norm(w_mirror - w.conj().T) <= 1e-10 * max(operator_norm(w), 1.0)


def test_eval_moi_dispatch():
    inst = random_instance(rng_for(27), "projective", dim_range=(2, 3), arity=3)
    assert operator_norm(eval_moi(inst) - eval_projective(inst)) == 0.0


# --- the eigenbasis chain path ----------------------------------------------


def _measure_built(how, measure):
    """The same measure from its basis, from its projections, or read back
    from explicit-atom JSON."""
    if how == "basis":
        return measure
    if how == "projections":
        return FiniteSpectralMeasure(measure.dim, measure.points, measure.projections)
    return measure_from_json(json.loads(json.dumps(measure_to_json(measure))))


def _chain_instance(rng, measures, widths):
    counts = [e.n_atoms for e in measures]
    dim = measures[0].dim
    head = crandom(rng, (counts[0], widths[0]))
    middles = tuple(
        crandom(rng, (counts[i + 1], widths[i], widths[i + 1]))
        for i in range(len(widths) - 1)
    )
    tail = crandom(rng, (counts[-1], widths[-1]))
    ops = tuple(crandom(rng, (dim, dim)) for _ in range(len(measures) - 1))
    return MoiInstance(measures, ops, HaagerupChainRep(head, middles, tail))


@pytest.mark.parametrize("how", ["basis", "projections", "json"])
@pytest.mark.parametrize("arity", [3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_eigenbasis_chain_matches_witnesses(how, arity, seed):
    # atoms of rank > 1: fewer atoms than dimensions
    rng = rng_for(40, seed, arity)
    measures = tuple(
        _measure_built(how, random_measure(rng, 5, int(rng.integers(1, 4))))
        for _ in range(arity)
    )
    inst = _chain_instance(rng, measures, [int(w) for w in rng.integers(1, 4, arity - 1)])
    w = eval_haagerup(inst)
    tol = TOL * moi_scale(inst)
    assert np.abs(w - eval_oracle(inst)).max() <= tol
    assert np.abs(w - eval_haagerup_block(inst)).max() <= tol


@pytest.mark.parametrize("how", ["projections", "json"])
def test_eigenbasis_chain_zero_rank_atom(how):
    rng = rng_for(41)
    u = random_unitary(rng, 4)
    zero = np.zeros((4, 4), dtype=complex)
    projs = (u[:, :3] @ u[:, :3].conj().T, zero, np.outer(u[:, 3], u[:, 3].conj()))
    holed = _measure_built(how, FiniteSpectralMeasure(4, (0.0, 1.0, 2.0), projs))
    measures = (holed, random_measure(rng, 4), holed)
    inst = _chain_instance(rng, measures, [2, 3])
    w = eval_haagerup(inst)
    tol = TOL * moi_scale(inst)
    assert np.abs(w - eval_oracle(inst)).max() <= tol
    assert np.abs(w - eval_haagerup_block(inst)).max() <= tol


@pytest.mark.parametrize("how", ["basis", "projections", "json"])
def test_eigenbasis_chain_arity_two(how):
    rng = rng_for(42)
    measures = tuple(_measure_built(how, random_measure(rng, 5, 3)) for _ in range(2))
    inst = _chain_instance(rng, measures, [3])
    rep = inst.integrand
    w = eval_haagerup(inst)
    tol = TOL * moi_scale(inst)
    assert np.abs(w - eval_oracle(inst)).max() <= tol
    table = rep.head @ rep.tail.T
    schur = double_schur(table, measures[0], measures[1], inst.operators[0])
    assert np.abs(w - schur).max() <= tol


@pytest.mark.parametrize("widths", [[0], [0, 2], [2, 0], [2, 0, 3]])
def test_eigenbasis_chain_width_zero(widths):
    rng = rng_for(43, len(widths))
    measures = tuple(random_measure(rng, 4) for _ in range(len(widths) + 1))
    inst = _chain_instance(rng, measures, widths)
    w = eval_haagerup(inst)
    assert w.shape == (4, 4) and not np.any(w)
    assert not np.any(eval_oracle(inst))


def test_chain_path_never_forms_projections(monkeypatch):
    built = build_construction(default_case(4, "both-large", 4.0, 4.0, 64))

    def refuse(self):
        raise AssertionError("the chain path formed a projection stack")

    monkeypatch.setattr(FiniteSpectralMeasure, "projection_stack", refuse)
    tracemalloc.start()
    try:
        w = eval_haagerup(built.instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert np.abs(w - built.expected).max() <= TOL * moi_scale(built.instance)


# --- the eigenbasis projective, chain-like and double-Schur paths ----------


def _zoo_measures(rng, dim, count, shift):
    """`count` measures drawn in turn, from `shift` on, from: rank > 1 atoms;
    from_hermitian with repeated eigenvalues; from_basis with unsorted labels
    and a label no column carries (a zero-rank atom); explicit projections."""
    u = random_unitary(rng, dim)
    repeated = u @ np.diag(rng.integers(0, 3, dim).astype(float)) @ u.conj().T
    explicit = random_measure(rng, dim, 3)
    zoo = (
        random_measure(rng, dim, 2),
        from_hermitian(repeated),
        FiniteSpectralMeasure.from_basis(
            random_unitary(rng, dim), rng.permutation(np.arange(dim) % 2) * 2, (0.0, 1.0, 2.0)
        ),
        FiniteSpectralMeasure(dim, explicit.points, explicit.projections),
    )
    return tuple(zoo[(shift + i) % len(zoo)] for i in range(count))


def _operators(rng, dim, count):
    return tuple(random_operator(rng, dim) for _ in range(count))


def _assert_trace_duality(inst, w, rng, probes=3):
    scale = moi_scale(inst)
    for _ in range(probes):
        q = crandom(rng, (inst.dim, inst.dim))
        gap = abs(complex(np.trace(w @ q)) - duality_functional(inst, q))
        assert gap <= TOL * scale * schatten_norm(q, 1)


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("arity", [3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_eigenbasis_like_matches_oracle_and_duality(kind, arity, seed):
    rng = rng_for(50, seed, arity, kind == "first")
    measures = _zoo_measures(rng, 5, arity, seed)
    widths = [int(w) for w in rng.integers(1, 4, arity - 1)]
    rep = random_like_rep(rng, kind, [e.n_atoms for e in measures], widths)
    inst = MoiInstance(measures, _operators(rng, 5, arity - 1), rep)
    w = eval_haagerup_like(inst)
    assert np.abs(w - eval_oracle(inst)).max() <= TOL * moi_scale(inst)
    _assert_trace_duality(inst, w, rng)


def test_eigenbasis_like_first_eval_file_size():
    # d = 64, arity 4, 8 atoms per measure, widths 4
    rng = rng_for(51)
    measures = tuple(random_measure(rng, 64, 8) for _ in range(4))
    rep = random_like_rep(rng, "first", [8] * 4, [4, 4, 4])
    inst = MoiInstance(measures, _operators(rng, 64, 3), rep)
    w = eval_moi(inst)
    assert np.abs(w - eval_oracle(inst)).max() <= TOL * moi_scale(inst)
    _assert_trace_duality(inst, w, rng, probes=2)


@pytest.mark.parametrize("arity", [2, 3, 4])
@pytest.mark.parametrize("n_terms", [1, 3])
def test_eigenbasis_projective_matches_oracle(arity, n_terms):
    rng = rng_for(52, arity, n_terms)
    measures = _zoo_measures(rng, 5, arity, arity + n_terms)
    rep = random_projective_rep(rng, [e.n_atoms for e in measures], n_terms)
    inst = MoiInstance(measures, _operators(rng, 5, arity - 1), rep)
    gap = np.abs(eval_projective(inst) - eval_oracle(inst)).max()
    assert gap <= TOL * moi_scale(inst)


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_eigenbasis_projective_zero_terms(arity):
    rng = rng_for(53, arity)
    measures = _zoo_measures(rng, 4, arity, arity)
    inst = MoiInstance(measures, _operators(rng, 4, arity - 1), ProjectiveRep(arity, ()))
    w = eval_projective(inst)
    assert w.shape == (4, 4) and not np.any(w)
    assert not np.any(eval_oracle(inst))


@pytest.mark.parametrize("seed", range(4))
def test_eigenbasis_double_schur_matches_oracle(seed):
    rng = rng_for(54, seed)
    e1, e2 = _zoo_measures(rng, 5, 2, seed)
    psi = crandom(rng, (e1.n_atoms, e2.n_atoms))
    t = crandom(rng, (5, 5))
    # the chain psi[i, l] delta[l, j] takes the value psi[i, j] at atoms (i, j)
    inst = MoiInstance((e1, e2), (t,), HaagerupChainRep(psi, (), np.eye(e2.n_atoms)))
    gap = np.abs(eval_moi(inst) - eval_oracle(inst)).max()
    assert gap <= TOL * moi_scale(inst)


def test_production_paths_never_form_projections(monkeypatch):
    rng = rng_for(55)
    instances = []
    for i, cls in enumerate(["projective", "chain", "like-first", "like-second"]):
        for arity in (3, 4):
            measures = _zoo_measures(rng, 4, arity, i)
            counts = [e.n_atoms for e in measures]
            if cls == "projective":
                rep = random_projective_rep(rng, counts, 2)
            elif cls == "chain":
                rep = _chain_instance(rng, measures, [2] * (arity - 1)).integrand
            else:
                rep = random_like_rep(rng, cls.split("-")[1], counts, [2] * (arity - 1))
            instances.append(MoiInstance(measures, _operators(rng, 4, arity - 1), rep))
    # the two-factor Schur multiplier of a dense table psi, as the chain (psi, I)
    e1, e2 = _zoo_measures(rng, 4, 2, 1)
    psi = crandom(rng, (e1.n_atoms, e2.n_atoms))
    t = crandom(rng, (4, 4))
    instances.append(MoiInstance((e1, e2), (t,), HaagerupChainRep(psi, (), np.eye(e2.n_atoms))))
    references = [eval_oracle(inst) for inst in instances]

    def refuse(self):
        raise AssertionError("a production path formed a projection stack")

    monkeypatch.setattr(FiniteSpectralMeasure, "projection_stack", refuse)
    for inst, ref in zip(instances, references):
        assert np.abs(eval_moi(inst) - ref).max() <= TOL * moi_scale(inst)


@pytest.mark.parametrize("cls", ["projective", "chain", "like-first", "like-second"])
def test_scale_from_bound_equals_moi_scale(cls):
    # the sweep cross-check forms its tolerance from a bound it already has
    for k in range(5):
        inst = random_instance(rng_for(21, k), cls, dim_range=(2, 5))
        assert _scale(rep_norm_bound(inst.integrand), inst.operators) == moi_scale(inst)


# --- the blocked atomwise oracle ---------------------------------------------


def _per_tuple_oracle(inst):
    """The atomwise sum one atom tuple at a time: one pointwise Psi value and
    m - 1 matmuls per tuple."""
    counts = [e.n_atoms for e in inst.measures]
    out = np.zeros((inst.dim, inst.dim), dtype=np.complex128)
    for atoms in itertools.product(*(range(n) for n in counts)):
        coeff = eval_pointwise(inst.integrand, atoms)
        if coeff == 0:
            continue
        block = inst.measures[0].projections[atoms[0]]
        for op, e, a in zip(inst.operators, inst.measures[1:], atoms[1:]):
            block = block @ op @ e.projections[a]
        out += coeff * block
    return out


def _oracle_measure(rng, how, dim):
    """A random measure from its basis, from a basis with a label no column
    carries (a zero-rank atom), or from explicit projections."""
    if how == "basis":
        return random_measure(rng, dim)
    if how == "unused-label":
        used = int(rng.integers(1, dim + 1))
        labels = rng.permutation(np.arange(dim) % used)
        skip = int(rng.integers(0, used + 1))
        labels = labels + (labels >= skip)
        points = tuple(float(i) for i in range(used + 1))
        return FiniteSpectralMeasure.from_basis(random_unitary(rng, dim), labels, points)
    e = random_measure(rng, dim)
    return FiniteSpectralMeasure(dim, e.points, e.projections)


@st.composite
def oracle_instances(draw, cls, arity):
    dim = draw(st.integers(1, 8))
    widths = draw(st.lists(st.integers(1, 4), min_size=arity - 1, max_size=arity - 1))
    hows = draw(
        st.lists(
            st.sampled_from(["basis", "unused-label", "projections"]),
            min_size=arity,
            max_size=arity,
        )
    )
    n_terms = draw(st.integers(0, 4))
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    measures = tuple(_oracle_measure(rng, how, dim) for how in hows)
    counts = [e.n_atoms for e in measures]
    if cls == "projective":
        rep = random_projective_rep(rng, counts, n_terms)
    elif cls == "chain":
        rep = random_chain_rep(rng, counts, widths)
    else:
        rep = random_like_rep(rng, cls.split("-")[1], counts, widths)
    return MoiInstance(measures, _operators(rng, dim, arity - 1), rep)


ORACLE_CASES = [
    ("projective", 2), ("projective", 3), ("projective", 4),
    ("chain", 2), ("chain", 3), ("chain", 4),
    ("like-first", 3), ("like-first", 4), ("like-second", 3), ("like-second", 4),
]


@pytest.mark.parametrize("cls, arity", ORACLE_CASES)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_blocked_oracle_matches_per_tuple_loop(cls, arity, data):
    inst = data.draw(oracle_instances(cls, arity))
    blocks = []

    def recording(spec, tables, prefix):
        block = original(spec, tables, prefix)
        blocks.append((prefix, block))
        return block

    original = evaluate._psi_block
    with mock.patch.object(evaluate, "_psi_block", recording):
        value = eval_oracle(inst)
    scale = moi_scale(inst)
    assert np.abs(value - _per_tuple_oracle(inst)).max() <= 1e-12 * scale
    # every atom tuple lies in exactly one block, where Psi is its pointwise value
    rep = inst.integrand
    assert sum(b.size for _, b in blocks) == prod(e.n_atoms for e in inst.measures)
    assert len({prefix for prefix, _ in blocks}) == len(blocks)
    bound = rep_norm_bound(rep)
    for prefix, block in blocks:
        assert block.shape == tuple(e.n_atoms for e in inst.measures[len(prefix):])
        for rest in np.ndindex(block.shape):
            assert abs(block[rest] - eval_pointwise(rep, prefix + rest)) <= 1e-12 * bound


def _eval_file_instance(cls, seed=0):
    """d = 64, arity 4, 8 atoms per measure, widths (and terms) 4."""
    rng = rng_for(56, seed, ["projective", "chain", "like-first", "like-second"].index(cls))
    measures = tuple(random_measure(rng, 64, 8) for _ in range(4))
    counts = [8] * 4
    if cls == "projective":
        rep = random_projective_rep(rng, counts, 4)
    elif cls == "chain":
        rep = random_chain_rep(rng, counts, [4, 4, 4])
    else:
        rep = random_like_rep(rng, cls.split("-")[1], counts, [4, 4, 4])
    return MoiInstance(measures, _operators(rng, 64, 3), rep)


def _oracle_peak(inst):
    """tracemalloc peak of eval_oracle, the projection stacks built beforehand."""
    for e in inst.measures:
        e.projection_stack()
    tracemalloc.start()
    try:
        eval_oracle(inst)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cls", ["projective", "chain", "like-first", "like-second"])
def test_oracle_matches_production_at_eval_file_size(cls):
    inst = _eval_file_instance(cls)
    assert np.abs(eval_oracle(inst) - eval_moi(inst)).max() <= TOL * moi_scale(inst)


@pytest.mark.parametrize("cls", ["projective", "chain", "like-first", "like-second"])
def test_oracle_peak_memory_at_eval_file_size(cls):
    # measured 2.3 MiB: the three dim x (8 * dim) rows of P_k T_k (1.5 MiB)
    # and one block's accumulator of 8 matrices
    peak = _oracle_peak(_eval_file_instance(cls))
    assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_oracle_peak_memory_small():
    # measured at most 47 KiB over these verify-sized instances with d = 8
    worst = 0
    for k in range(40):
        cls = ["projective", "chain", "like-first", "like-second"][k % 4]
        inst = random_instance(rng_for(57, k), cls, (8, 8), (1, 4), arity=3 + k % 2)
        worst = max(worst, _oracle_peak(inst))
    assert worst < 96 * 2**10, f"peak {worst / 2**10:.0f} KiB"


def test_oracle_refuses_arity_beyond_its_einsum_letters():
    e = FiniteSpectralMeasure.trivial(1)
    rep = constant_projective(27, [1] * 27)
    inst = MoiInstance((e,) * 27, (np.eye(1),) * 26, rep)
    with pytest.raises(CapExceededError, match="arity 27"):
        eval_oracle(inst)


def test_oracle_leaves_no_reference_cycles():
    # its arrays are freed on return, not at the next cyclic collection, which
    # would raise the peak memory of a campaign of many small instances
    inst = random_instance(rng_for(59), "chain", (6, 6), (2, 2), arity=4)
    gc.collect()
    gc.disable()
    try:
        eval_oracle(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- diagonal chain middles ---------------------------------------------------


def _expand_diagonal(rep):
    """The same chain with every diagonal (n, L) middle written densely."""
    middles = tuple(
        m if m.ndim == 3 else np.einsum("xj,jk->xjk", m, np.eye(m.shape[1]))
        for m in rep.middles
    )
    return HaagerupChainRep(rep.head, middles, rep.tail)


def _mixed_chain_instance(rng, arity, seed):
    """A chain whose middles mix the diagonal and dense forms: at least one
    diagonal middle, and from arity 4 on at least one dense one."""
    dim = int(rng.integers(2, 6))
    measures = tuple(
        random_measure(rng, dim, int(rng.integers(1, min(dim, 4) + 1)))
        for _ in range(arity)
    )
    counts = [e.n_atoms for e in measures]
    diagonal = rng.integers(2, size=arity - 2).astype(bool)
    diagonal[seed % (arity - 2)] = True
    if arity > 3:
        diagonal[(seed + 1) % (arity - 2)] = False
    width = int(rng.integers(1, 4))
    head, middles = crandom(rng, (counts[0], width)), []
    for n, diag in zip(counts[1:-1], diagonal):
        if diag:
            middles.append(crandom(rng, (n, width)))
        else:
            nxt = int(rng.integers(1, 4))
            middles.append(crandom(rng, (n, width, nxt)))
            width = nxt
    tail = crandom(rng, (counts[-1], width))
    ops = tuple(random_operator(rng, dim) for _ in range(arity - 1))
    return MoiInstance(measures, ops, HaagerupChainRep(head, tuple(middles), tail))


@pytest.mark.parametrize("arity", [3, 4, 5])
@pytest.mark.parametrize("seed", range(4))
def test_diagonal_middles_match_their_dense_expansion(arity, seed):
    inst = _mixed_chain_instance(rng_for(46, seed, arity), arity, seed)
    rep = inst.integrand
    assert {m.ndim for m in rep.middles} == ({2} if arity == 3 else {2, 3})
    before = [m.copy() for m in rep.middles]
    dense = MoiInstance(inst.measures, inst.operators, _expand_diagonal(rep))
    reference = eval_haagerup(dense)
    tol = TOL * moi_scale(dense)
    for path in (eval_haagerup, eval_haagerup_block, eval_oracle):
        assert np.abs(path(inst) - reference).max() <= tol, path.__name__
    psi_tol = TOL * max(rep_norm_bound(dense.integrand), evaluate.SCALE_FLOOR)
    for atoms in itertools.product(*(range(n) for n in rep.atom_counts())):
        gap = abs(eval_pointwise(rep, atoms) - eval_pointwise(dense.integrand, atoms))
        assert gap <= psi_tol
    bound, dense_bound = rep_norm_bound(rep), rep_norm_bound(dense.integrand)
    assert abs(bound - dense_bound) <= 1e-12 * dense_bound
    # the in-place product of the sweep never writes into the caller's tables
    assert all(np.array_equal(a, b) for a, b in zip(rep.middles, before))


def test_diagonal_middle_of_wrong_width_is_refused():
    head, tail = np.ones((2, 3)), np.ones((2, 3))
    with pytest.raises(ValueError, match="chain width mismatch"):
        HaagerupChainRep(head, (np.ones((2, 2)),), tail)
    # a diagonal middle passes its incoming width through to the next table
    with pytest.raises(ValueError, match="chain width mismatch"):
        HaagerupChainRep(head, (np.ones((2, 3)),), np.ones((2, 2)))
    with pytest.raises(ValueError, match="chain width mismatch"):
        HaagerupChainRep(head, (np.ones((2, 3)), np.ones((2, 2, 4))), tail)
    with pytest.raises(ValueError, match="middle tables must be"):
        HaagerupChainRep(head, (np.ones(2),), tail)


# --- the in-place sweep and its state budget ----------------------------------


def _diagonal_chain(rng, measures, width):
    """A chain whose middles are all diagonal (n, width) tables."""
    counts = [e.n_atoms for e in measures]
    head, tail = crandom(rng, (counts[0], width)), crandom(rng, (counts[-1], width))
    middles = tuple(crandom(rng, (n, width)) for n in counts[1:-1])
    return HaagerupChainRep(head, middles, tail)


# every class at arity 3 and 4, with widths of 5 to 7, so that a budget of
# 2 d^2 entries slices the d = 5 rows into at least three slices
SWEEP_CLASSES = ("projective", "chain", "diagonal", "like-first", "like-second")
SWEEP_CASES = list(itertools.product(SWEEP_CLASSES, (3, 4)))


def _sweep_instance(cls, arity):
    rng = rng_for(91, SWEEP_CLASSES.index(cls), arity)
    dim = 5
    measures = tuple(random_measure(rng, dim, int(rng.integers(2, 4))) for _ in range(arity))
    counts = [e.n_atoms for e in measures]
    widths = [int(w) for w in rng.integers(5, 8, size=arity - 1)]
    if cls == "projective":
        rep = random_projective_rep(rng, counts, widths[0])
    elif cls == "chain":
        rep = random_chain_rep(rng, counts, widths)
    elif cls == "diagonal":
        rep = _diagonal_chain(rng, measures, widths[0])
    else:
        rep = random_like_rep(rng, cls.split("-")[1], counts, widths)
    return MoiInstance(measures, _operators(rng, dim, arity - 1), rep)


def _integrand_arrays(rep):
    if isinstance(rep, ProjectiveRep):
        return [f for term in rep.terms for f in term]
    if isinstance(rep, HaagerupChainRep):
        return [rep.head, *rep.middles, rep.tail]
    return list(rep.tables)


def _chunk_budget(inst):
    """A state budget of 2 d^2 complex entries: one or two rows per slice
    for the widest table axis of 5 to 7."""
    return 2 * 16 * inst.dim**2


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("cls, arity", SWEEP_CASES)
def test_sweep_writes_into_nothing_it_is_given(monkeypatch, cls, arity, chunked):
    inst = _sweep_instance(cls, arity)
    if chunked:
        monkeypatch.setattr(evaluate, "STATE_BUDGET", _chunk_budget(inst))
    given_arrays = [
        *inst.operators,
        *_integrand_arrays(inst.integrand),
        *(e.basis for e in inst.measures),
        *(e.labels for e in inst.measures),
    ]
    before = [a.copy() for a in given_arrays]
    first = eval_moi(inst)
    assert all(np.array_equal(a, b) for a, b in zip(given_arrays, before))
    second = eval_moi(inst)
    assert first.shape == (inst.dim, inst.dim)
    assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize("cls, arity", SWEEP_CASES)
def test_chunked_sweep_matches_one_chunk_and_oracle(monkeypatch, cls, arity):
    inst = _sweep_instance(cls, arity)
    whole = eval_moi(inst)
    monkeypatch.setattr(evaluate, "STATE_BUDGET", _chunk_budget(inst))
    with mock.patch.object(evaluate, "_contract", wraps=evaluate._contract) as contract:
        chunked = eval_moi(inst)
    assert contract.call_count >= 3
    tol = 1e-12 * moi_scale(inst)
    assert np.abs(chunked - whole).max() <= tol
    assert np.abs(chunked - eval_oracle(inst)).max() <= tol


def test_chunked_sweep_of_zero_terms_is_the_zero_matrix(monkeypatch):
    rng = rng_for(92)
    measures = tuple(random_measure(rng, 4, 3) for _ in range(3))
    inst = MoiInstance(measures, _operators(rng, 4, 2), ProjectiveRep(3, ()))
    monkeypatch.setattr(evaluate, "STATE_BUDGET", 1)
    w = eval_moi(inst)
    assert w.shape == (4, 4) and not np.any(w)


def _sweep_peak(inst):
    """tracemalloc peak of eval_haagerup."""
    tracemalloc.start()
    try:
        w = eval_haagerup(inst)
        return w, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_peak_at_n128_stays_near_its_state():
    # the (128, 128, 128) state is 32 MiB and fits the budget in one slice;
    # moved in place, it is no longer held three times (97.8 MiB before)
    built = build_construction(default_case(4, "both-large", 4.0, 4.0, 128))
    w, peak = _sweep_peak(built.instance)
    assert peak <= 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert np.abs(w - built.expected).max() <= TOL * moi_scale(built.instance)


def test_sweep_peak_at_n256_stays_under_the_state_budget():
    # the (256, 256, 256) state would be 256 MiB; sliced to 32 rows of the
    # first basis, each (256, 32, 256) state fits STATE_BUDGET, and the
    # operators, tables and temporaries around it stay within half the budget
    # more (42 MiB measured)
    built = build_construction(default_case(4, "both-large", 4.0, 4.0, 256))
    w, peak = _sweep_peak(built.instance)
    assert peak <= 1.5 * evaluate.STATE_BUDGET, f"peak {peak / 2**20:.1f} MiB"
    assert np.abs(w - built.expected).max() <= TOL * moi_scale(built.instance)


def test_sweep_slices_bound_a_second_wide_bond(monkeypatch):
    # a dense chain of widths (64, 48) at d = 32 holds a 1 MiB A-state and a
    # 768 KiB B-state in one slice; sliced by rows, each state fits the
    # 256 KiB budget, and only the expanded dense middle, 16 d 64 48 bytes,
    # is larger (558 KiB above it measured; 1131 KiB when only the widest
    # bond was cut)
    rng = rng_for(93)
    dim = 32
    measures = tuple(random_measure(rng, dim, 3) for _ in range(3))
    inst = MoiInstance(
        measures, _operators(rng, dim, 2), random_chain_rep(rng, [3, 3, 3], (64, 48))
    )
    whole = eval_haagerup(inst)
    monkeypatch.setattr(evaluate, "STATE_BUDGET", 256 * 2**10)
    w, peak = _sweep_peak(inst)
    middle = 16 * dim * 64 * 48
    assert peak - middle <= 3 * evaluate.STATE_BUDGET, f"peak {peak / 2**10:.0f} KiB"
    tol = 1e-12 * moi_scale(inst)
    assert np.abs(w - whole).max() <= tol
    assert np.abs(w - eval_oracle(inst)).max() <= tol
