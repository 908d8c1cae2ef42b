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
    duality_functional,
    duality_functionals,
    eval_haagerup,
    eval_haagerup_block,
    eval_haagerup_like,
    eval_moi,
    eval_oracle,
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
from moilab.linalg import INF, adjoint, haar_unitaries, random_complex, schatten_norm
from moilab.randominst import (
    random_chain_rep,
    random_instance,
    random_like_rep,
    random_measure,
    random_measures,
    random_operator,
    random_projective_rep,
    rng_for,
)
from moilab.serialize import measure_from_json, measure_to_json
from moilab.sharpness import build_construction, default_case, expected_diag
from moilab.spectral import FiniteSpectralMeasure, from_hermitian, integrate_scalar

from helpers import MOVE, dense_move, trivial_measure

TOL = 1e-10
# a state budget that holds every state below d = 128 in one slice (the
# default before 2 MiB)
ONE_SLICE_BUDGET = 32 * 2**20


def crandom(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def double_schur(psi, e1, e2, t):
    """sum_{i,j} psi[i, j] P_i T Q_j for a dense table psi, through eval_moi:
    the chain psi[i, l] delta[l, j] takes the value psi[i, j] at atoms (i, j)."""
    chain = HaagerupChainRep(psi, (), np.eye(e2.n_atoms))
    return eval_moi(MoiInstance((e1, e2), (t,), chain))


def constant_projective(arity, counts):
    return ProjectiveRep(arity, (tuple(np.ones(n) for n in counts),))


def test_instance_needs_two_measures():
    # one measure is refused as too few, not by the integrand's arity
    e = trivial_measure(2)
    for measures in ((), (e,)):
        with pytest.raises(ValueError, match="^need at least two spectral measures$"):
            MoiInstance(measures, (), ProjectiveRep(2))


def test_instance_refuses_a_first_measure_of_another_type():
    # the type is checked before any measure's dimension is read
    e = trivial_measure(2)
    for first in (np.eye(2), "measure", None):
        with pytest.raises(TypeError, match="FiniteSpectralMeasure"):
            MoiInstance((first, e), (np.eye(2),), ProjectiveRep(2))


def test_instance_refuses_an_integrand_of_another_type():
    # the type is checked before the integrand's arity is read
    e = trivial_measure(2)
    for integrand in ("x", None, np.ones((2, 2))):
        with pytest.raises(TypeError, match="integrand must be"):
            MoiInstance((e, e), (np.eye(2),), integrand)


def test_oracle_constant_integrand_collapses_to_product():
    rng = rng_for(1)
    dim = 4
    measures = tuple(random_measure(rng, dim) for _ in range(3))
    t1, t2 = crandom(rng, (dim, dim)), crandom(rng, (dim, dim))
    rep = constant_projective(3, [e.n_atoms for e in measures])
    inst = MoiInstance(measures, (t1, t2), rep)
    assert schatten_norm(eval_oracle(inst) - t1 @ t2, INF) <= TOL * moi_scale(inst)


def test_oracle_single_atom_measures():
    rng = rng_for(2)
    dim = 3
    e = trivial_measure(dim)
    t = crandom(rng, (dim, dim))
    value = 0.7 - 0.2j
    rep = ProjectiveRep(2, ((np.array([value]), np.array([1.0])),))
    inst = MoiInstance((e, e), (t,), rep)
    assert schatten_norm(eval_oracle(inst) - value * t, INF) <= TOL


def test_overlapping_family_never_reaches_the_oracle():
    # the oracle sums projections as given, so a family with P_0 = P_1 must
    # be refused when the measure is built, before any instance holds it
    p = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="atom 0"):
        FiniteSpectralMeasure(2, (0.0, 1.0), (p, p))
    e = FiniteSpectralMeasure(2, (0.0, 1.0), (p, np.eye(2) - p))
    rep = ProjectiveRep(2, ((np.ones(2), np.ones(2)),))
    inst = MoiInstance((e, e), (np.eye(2),), rep)
    assert schatten_norm(eval_oracle(inst) - np.eye(2), INF) <= TOL


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
    assert schatten_norm(eval_moi(inst) - direct, INF) <= TOL * moi_scale(inst)


def test_projective_constant_arity_four():
    rng = rng_for(5)
    dim = 3
    measures = tuple(random_measure(rng, dim) for _ in range(4))
    ops = tuple(crandom(rng, (dim, dim)) for _ in range(3))
    rep = constant_projective(4, [e.n_atoms for e in measures])
    inst = MoiInstance(measures, ops, rep)
    assert schatten_norm(eval_moi(inst) - ops[0] @ ops[1] @ ops[2], INF) <= TOL * moi_scale(inst)


@pytest.mark.parametrize("seed", range(8))
def test_projective_matches_oracle(seed):
    inst = random_instance(rng_for(6, seed), "projective", dim_range=(2, 4))
    gap = schatten_norm(eval_moi(inst) - eval_oracle(inst), INF)
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
    assert schatten_norm(eval_haagerup(inst) - direct, INF) <= TOL * moi_scale(inst)


@pytest.mark.parametrize("arity", [2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_haagerup_matches_oracle(arity, seed):
    inst = random_instance(rng_for(8, seed, arity), "chain", dim_range=(2, 5), arity=arity)
    gap = schatten_norm(eval_haagerup(inst) - eval_oracle(inst), INF)
    assert gap <= TOL * moi_scale(inst)


def test_haagerup_zero_width_chain():
    dim = 3
    e = trivial_measure(dim)
    rep = HaagerupChainRep(np.zeros((1, 0)), (np.zeros((1, 0, 0)),), np.zeros((1, 0)))
    inst = MoiInstance((e, e, e), (np.eye(dim), np.eye(dim)), rep)
    assert schatten_norm(eval_haagerup(inst), INF) == 0.0
    assert schatten_norm(eval_haagerup_block(inst), INF) == 0.0


@pytest.mark.parametrize("arity", [3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_block_path_matches_direct(arity, seed):
    inst = random_instance(rng_for(9, seed, arity), "chain", dim_range=(2, 4), arity=arity)
    gap = schatten_norm(eval_haagerup_block(inst) - eval_haagerup(inst), INF)
    assert gap <= TOL * moi_scale(inst)


def test_block_cap(monkeypatch):
    monkeypatch.setattr(evaluate, "DEFAULT_BLOCK_CAP", 1)
    inst = random_instance(rng_for(10), "chain", dim_range=(4, 4), arity=3)
    with pytest.raises(CapExceededError):
        eval_haagerup_block(inst)


def test_double_schur_constant_is_identity_map():
    rng = rng_for(11)
    dim = 4
    e1 = random_measure(rng, dim)
    e2 = random_measure(rng, dim)
    t = crandom(rng, (dim, dim))
    psi = np.ones((e1.n_atoms, e2.n_atoms))
    assert schatten_norm(double_schur(psi, e1, e2, t) - t, INF) <= TOL * schatten_norm(t, INF)


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
    assert schatten_norm(got - want, INF) <= 1e-9 * schatten_norm(want, INF)


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
    assert schatten_norm(double_schur(psi, e, e, t) - want, INF) <= 1e-9 * schatten_norm(want, INF)


def test_double_schur_hadamard_identity_for_eigenbasis_measures():
    # with rank-one projections from a common construction, the value is the
    # entrywise product of the table with T moved into the eigenbases
    rng = rng_for(14)
    dim = 4
    u = haar_unitaries(random_complex(rng, (dim, dim)))
    w = haar_unitaries(random_complex(rng, (dim, dim)))
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
    assert schatten_norm(got - want, INF) <= 1e-10 * max(schatten_norm(want, INF), 1.0)


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
    w_proj = eval_moi(MoiInstance(measures, ops, proj))
    assert schatten_norm(w_like - w_proj, INF) <= TOL * max(schatten_norm(w_proj, INF), 1.0)


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
    assert schatten_norm(eval_haagerup_like(inst) - t @ r, INF) <= TOL * moi_scale(inst)


KINDS = ("first", "second")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("arity", [3, 4, 5, 6])
@pytest.mark.parametrize("seed", range(4))
def test_like_matches_oracle(kind, arity, seed):
    inst = random_instance(
        rng_for(17, seed, arity, KINDS.index(kind)), f"like-{kind}", dim_range=(2, 4), arity=arity
    )
    gap = schatten_norm(eval_haagerup_like(inst) - eval_oracle(inst), INF)
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("arity", [3, 4, 5, 6])
def test_duality_matches_trace_pairing(kind, arity):
    rng = rng_for(20, arity, KINDS.index(kind))
    inst = random_instance(rng, f"like-{kind}", dim_range=(4, 4), arity=arity)
    w = eval_haagerup_like(inst)
    scale = moi_scale(inst)
    for _ in range(50):
        q = crandom(rng, (4, 4))
        expected = complex(np.trace(w @ q))
        got = duality_functional(inst, q)
        assert abs(got - expected) <= 1e-9 * max(scale * schatten_norm(q, 1), 1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("arity", [3, 4, 5, 6])
@pytest.mark.parametrize("budget", [ONE_SLICE_BUDGET, 1])
def test_duality_functionals_equal_one_probe_calls(monkeypatch, kind, arity, budget):
    """One frame for several probes gives each probe's one-probe value bit for
    bit, also when every row of the sweep is a slice of its own."""
    _force_slices(monkeypatch, budget)
    for seed in range(6):
        rng = rng_for(22, seed, arity, KINDS.index(kind))
        inst = random_instance(rng, f"like-{kind}", (2, 7), (1, 4), arity=arity)
        probes = [crandom(rng, (inst.dim, inst.dim)) for _ in range(1 + seed % 5)]
        values = duality_functionals(inst, probes)
        assert values == [duality_functional(inst, q) for q in probes]
    assert duality_functionals(inst, []) == []
    with pytest.raises(ValueError, match="Q shape"):
        duality_functionals(inst, [probes[0], np.eye(inst.dim + 1)])


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
    g = haar_unitaries(random_complex(rng, (rep.head.shape[1], rep.head.shape[1])))
    rotated = HaagerupChainRep(
        rep.head @ g,
        (np.einsum("ab,ibc->iac", g.conj().T, rep.middles[0]),),
        rep.tail,
    )
    other = MoiInstance(inst.measures, inst.operators, rotated)
    scale = max(moi_scale(inst), moi_scale(other))
    assert schatten_norm(eval_haagerup(inst) - eval_haagerup(other), INF) <= 1e-9 * scale


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
        scale = max(schatten_norm(w_x, INF), schatten_norm(w_y, INF), 1e-12)
        assert schatten_norm(w_c - a * w_x - b * w_y, INF) <= 1e-10 * scale


@pytest.mark.parametrize("seed", range(5))
def test_path_equivalence_projective_chain_block_oracle(seed):
    inst = random_instance(rng_for(24, seed), "projective", dim_range=(2, 4), arity=3)
    scale = moi_scale(inst)
    w_proj = eval_moi(inst)
    w_oracle = eval_oracle(inst)
    embedded = MoiInstance(
        inst.measures, inst.operators, embed_projective_in_haagerup(inst.integrand)
    )
    w_chain = eval_haagerup(embedded)
    w_block = eval_haagerup_block(embedded)
    for w in (w_chain, w_block, w_oracle):
        assert schatten_norm(w_proj - w, INF) <= 1e-9 * scale


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
    assert schatten_norm(w_mirror - w.conj().T, INF) <= 1e-10 * max(schatten_norm(w, INF), 1.0)


def test_eval_moi_dispatch():
    inst = random_instance(rng_for(27), "projective", dim_range=(2, 3), arity=3)
    assert schatten_norm(eval_moi(inst) - eval_moi(inst), INF) == 0.0


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
    u = haar_unitaries(random_complex(rng, (4, 4)))
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
    case = default_case(4, "both-large", 4.0, 4.0, 64)
    inst = build_construction(case)

    def refuse(self):
        raise AssertionError("the chain path formed a projection stack")

    monkeypatch.setattr(FiniteSpectralMeasure, "projection_stack", refuse)
    tracemalloc.start()
    try:
        w = eval_haagerup(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert np.abs(w - np.diag(expected_diag(case))).max() <= TOL * moi_scale(inst)


# --- the eigenbasis projective, chain-like and double-Schur paths ----------


def _zoo_measures(rng, dim, count, shift):
    """`count` measures drawn in turn, from `shift` on, from: rank > 1 atoms;
    from_hermitian with repeated eigenvalues; from_basis with unsorted labels
    and a label no column carries (a zero-rank atom); explicit projections."""
    u = haar_unitaries(random_complex(rng, (dim, dim)))
    repeated = u @ np.diag(rng.integers(0, 3, dim).astype(float)) @ u.conj().T
    explicit = random_measure(rng, dim, 3)
    zoo = (
        random_measure(rng, dim, 2),
        from_hermitian(repeated),
        FiniteSpectralMeasure.from_basis(
            haar_unitaries(random_complex(rng, (dim, dim))),
            rng.permutation(np.arange(dim) % 2) * 2,
            (0.0, 1.0, 2.0),
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
    gap = np.abs(eval_moi(inst) - eval_oracle(inst)).max()
    assert gap <= TOL * moi_scale(inst)


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_eigenbasis_projective_zero_terms(arity):
    rng = rng_for(53, arity)
    measures = _zoo_measures(rng, 4, arity, arity)
    inst = MoiInstance(measures, _operators(rng, 4, arity - 1), ProjectiveRep(arity, ()))
    w = eval_moi(inst)
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
        basis = haar_unitaries(random_complex(rng, (dim, dim)))
        return FiniteSpectralMeasure.from_basis(basis, labels, points)
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
    e = trivial_measure(1)
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
    for atoms in itertools.product(*(range(len(t)) for t in rep.tables)):
        gap = abs(eval_pointwise(rep, atoms) - eval_pointwise(dense.integrand, atoms))
        assert gap <= psi_tol
    bound, dense_bound = rep_norm_bound(rep), rep_norm_bound(dense.integrand)
    assert abs(bound - dense_bound) <= 1e-12 * dense_bound
    # the in-place product of the sweep never writes into the caller's tables
    assert all(np.array_equal(a, b) for a, b in zip(rep.middles, before))


def test_diagonal_middle_of_wrong_width_is_refused():
    """A chain's tables are checked as the chain-like ones are, each refusal
    one line that names the table by its factor."""
    head, tail = np.ones((2, 3)), np.ones((2, 3))
    with pytest.raises(ValueError, match="^factor 2 table gives bond A width 2, an earlier table 3$"):
        HaagerupChainRep(head, (np.ones((2, 2)),), tail)
    # a diagonal middle passes its incoming width through to the next table
    with pytest.raises(ValueError, match="^factor 3 table gives bond A width 2, an earlier table 3$"):
        HaagerupChainRep(head, (np.ones((2, 3)),), np.ones((2, 2)))
    with pytest.raises(ValueError, match="^factor 3 table gives bond A width 2, an earlier table 3$"):
        HaagerupChainRep(head, (np.ones((2, 3)), np.ones((2, 2, 4))), tail)
    with pytest.raises(ValueError, match=r"^factor 2 table must have 2 or 3 axes, got shape \(2,\)$"):
        HaagerupChainRep(head, (np.ones(2),), tail)
    with pytest.raises(ValueError, match=r"^factor 1 table must have 2 axes, got shape \(2, 3, 1\)$"):
        HaagerupChainRep(np.ones((2, 3, 1)), (), tail)
    with pytest.raises(ValueError, match="^factor 2 table has no atoms$"):
        HaagerupChainRep(head, (np.ones((0, 3)),), tail)
    with pytest.raises(ValueError, match="^factor 3 table has non-finite entries$"):
        HaagerupChainRep(head, (np.ones((2, 3)),), np.full((2, 3), np.nan))


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


def _sweep_instance(cls, arity, dim=5, widths=(5, 8), atoms=(2, 4)):
    """A seeded instance whose atom counts and widths are drawn from the
    half-open ranges `atoms` and `widths`."""
    rng = rng_for(91, SWEEP_CLASSES.index(cls), arity)
    measures = tuple(random_measure(rng, dim, int(rng.integers(*atoms))) for _ in range(arity))
    counts = [e.n_atoms for e in measures]
    widths = [int(w) for w in rng.integers(*widths, size=arity - 1)]
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
    for the widest table axis of 5 to 7, once _force_slices lifts ROW_ALIGN."""
    return 2 * 16 * inst.dim**2


def _force_slices(monkeypatch, budget):
    """A state budget of `budget` bytes, with slices of any number of rows, so
    that instances of a few rows are cut as well."""
    monkeypatch.setattr(evaluate, "STATE_BUDGET", budget)
    monkeypatch.setattr(evaluate, "ROW_ALIGN", 1)


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("cls, arity", SWEEP_CASES)
def test_sweep_writes_into_nothing_it_is_given(monkeypatch, cls, arity, chunked):
    inst = _sweep_instance(cls, arity)
    if chunked:
        _force_slices(monkeypatch, _chunk_budget(inst))
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
    _force_slices(monkeypatch, _chunk_budget(inst))
    with mock.patch.object(evaluate, "_contract", wraps=evaluate._contract) as contract:
        chunked = eval_moi(inst)
    assert contract.call_count >= 3
    tol = 1e-12 * moi_scale(inst)
    assert np.abs(chunked - whole).max() <= tol
    assert np.abs(chunked - eval_oracle(inst)).max() <= tol


@pytest.mark.parametrize("cls, arity", SWEEP_CASES)
def test_default_budget_slices_bit_for_bit_as_one_slice(cls, arity):
    """At d = 96 with widths of 40 to 60, the default budget cuts C into 3 to
    6 slices of a multiple of ROW_ALIGN rows; every bit is as in one slice."""
    inst = _sweep_instance(cls, arity, dim=96, widths=(40, 61), atoms=(3, 6))
    with mock.patch.object(evaluate, "_contract", wraps=evaluate._contract) as contract:
        sliced = eval_moi(inst)
    assert contract.call_count >= 3
    with mock.patch.object(evaluate, "STATE_BUDGET", ONE_SLICE_BUDGET):
        assert eval_moi(inst).tobytes() == sliced.tobytes()


@pytest.mark.parametrize(
    "arity, regime, p1, pm1", [(4, "both-large", 4.0, 4.0), (3, "mixed-large-small", 3.0, 1.0)]
)
def test_default_budget_sweeps_constructions_bit_for_bit_as_one_slice(arity, regime, p1, pm1):
    inst = build_construction(default_case(arity, regime, p1, pm1, 128))
    sliced = eval_moi(inst)
    with mock.patch.object(evaluate, "STATE_BUDGET", ONE_SLICE_BUDGET):
        assert eval_moi(inst).tobytes() == sliced.tobytes()


@pytest.mark.parametrize(
    "arity, regime, p1, pm1",
    [
        (4, "both-large", 4.0, 4.0),
        (10, "both-large", 4.0, 4.0),
        (10, "both-small", 1.0, 1.5),
        (3, "mixed-large-small", 3.0, 1.0),
    ],
)
def test_pinned_constructions_in_sixteen_slices_are_bit_for_bit_one_slice(
    arity, regime, p1, pm1
):
    """At n = 128, a budget of 8 rows cuts C into 16 slices, and each slice
    gathers its tables on the pinned bond again, at the steps that read them;
    every bit is as in one slice."""
    n = 128
    inst = build_construction(default_case(arity, regime, p1, pm1, n))
    eight_rows = mock.patch.object(evaluate, "STATE_BUDGET", 16 * n * 8)
    with eight_rows, mock.patch.object(evaluate, "_contract", wraps=evaluate._contract) as contract:
        sliced = eval_moi(inst)
    assert contract.call_count == 16
    with mock.patch.object(evaluate, "STATE_BUDGET", ONE_SLICE_BUDGET):
        assert eval_moi(inst).tobytes() == sliced.tobytes()


def test_chunked_sweep_of_zero_terms_is_the_zero_matrix(monkeypatch):
    rng = rng_for(92)
    measures = tuple(random_measure(rng, 4, 3) for _ in range(3))
    inst = MoiInstance(measures, _operators(rng, 4, 2), ProjectiveRep(3, ()))
    _force_slices(monkeypatch, 1)
    w = eval_moi(inst)
    assert w.shape == (4, 4) and not np.any(w)


def _sweep_peak(inst):
    """tracemalloc peak of the sweep."""
    tracemalloc.start()
    try:
        w = eval_moi(inst)
        return w, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peak of the arity-4 both-large construction at the 2 MiB
# STATE_BUDGET. Its delta head and tail pin its one bond, so no state holds a
# bond and every row fits one slice: the peak is about five n x n matrices,
# the moved operators, the state, C and its basis change, with one table on
# the pinned bond gathered at a time (0.45, 1.76 and 7.02 MiB when a slice
# gathered all three at once; 3.01, 5.01 and 18.0 MiB before the pin, when
# each state held the width-n bond)
SWEEP_PEAKS = {64: (0.33, 0.40), 128: (1.26, 1.5), 256: (5.02, 6.0)}  # MiB: measured, bound


@pytest.mark.parametrize("n", sorted(SWEEP_PEAKS))
def test_sweep_peak_stays_near_its_slices(n):
    case = default_case(4, "both-large", 4.0, 4.0, n)
    inst = build_construction(case)
    w, peak = _sweep_peak(inst)
    assert peak <= SWEEP_PEAKS[n][1] * 2**20, f"peak {peak / 2**20:.2f} MiB"
    assert np.abs(w - np.diag(expected_diag(case))).max() <= TOL * moi_scale(inst)


def test_copied_tables_peak_as_shared_ones():
    """The arity-10 both-large construction at n = 256 shares one table of
    ones among its interior middles; given each middle as its own copy, the
    sweep gives the same bytes at a peak within 0.5 MiB (both 5.07 MiB; 8.08
    and 13.07 MiB when a slice's tables on the pinned bond were gathered at
    once, one gather per distinct table)."""
    inst = build_construction(default_case(10, "both-large", 4.0, 4.0, 256))
    rep = inst.integrand
    copies = HaagerupChainRep(rep.head, tuple(m.copy() for m in rep.middles), rep.tail)
    shared, shared_peak = _sweep_peak(inst)
    copied, copied_peak = _sweep_peak(MoiInstance(inst.measures, inst.operators, copies))
    assert copied.tobytes() == shared.tobytes()
    assert abs(copied_peak - shared_peak) <= 2**19, f"{shared_peak}, {copied_peak} bytes"


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


def test_move_holds_the_state_once():
    # a d = 64 arity-4 projective instance of 512 terms, swept in 8-row slices
    # (the ROW_ALIGN floor): each state is 64 x 8 x 512 complex entries, 4 MiB,
    # and a move spans eight MOVE_BLOCK-column blocks of it. Multiplied in
    # place a block at a time, the peak is 6.76 MiB; a move that wrote a moved
    # copy of the whole state would reach 10.26 MiB
    rng = rng_for(5)
    measures = random_measures(rng, 64, 4, n_atoms=8)
    operators = _operators(rng, 64, 3)
    inst = MoiInstance(measures, operators, random_projective_rep(rng, [8] * 4, 512))
    w, peak = _sweep_peak(inst)
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"
    assert np.abs(w - eval_oracle(inst)).max() <= TOL * moi_scale(inst)


# --- pinned bonds --------------------------------------------------------------


def _selection(rng, n_atoms, width):
    """A scaled selection: each atom row holds at most one nonzero entry. Row
    0 is zero and rows 1 and 2 select the same column."""
    targets = rng.integers(0, width, n_atoms)
    targets[2] = targets[1]
    values = crandom(rng, n_atoms)
    values[0] = 0
    t = np.zeros((n_atoms, width), dtype=np.complex128)
    t[np.arange(n_atoms), targets] = values
    return t


# (class, which ends are selections): a pinned head, tail or both, diagonal
# middles (a one-bond table on the pinned bond), a bond of width 0 after the
# pinned one, and the chain-like ends, whose other end has two bonds
PIN_CASES = [
    ("chain", "head"),
    ("chain", "tail"),
    ("chain", "both"),
    ("diagonal", "both"),
    ("zero-width", "head"),
    ("like-first", "head"),
    ("like-second", "tail"),
]


def _pinned_instance(cls, ends, arity, dim=6, atoms=4, width=3):
    """A seeded instance on measures of `atoms` atoms in dimension `dim` (so
    some atoms have rank 2 or more) whose end tables named by `ends` are
    scaled selections of `width` columns."""
    rng = rng_for(94, PIN_CASES.index((cls, ends)), arity)
    measures = tuple(random_measure(rng, dim, atoms) for _ in range(arity))
    counts = [atoms] * arity
    if cls == "zero-width":  # head A of width 3, middles A -> B of width 0, tail B
        middles = (np.zeros((atoms, width, 0)),) + (np.zeros((atoms, 0)),) * (arity - 3)
        rep = HaagerupChainRep(_selection(rng, atoms, width), middles, np.zeros((atoms, 0)))
    elif cls == "diagonal":
        rep = _diagonal_chain(rng, measures, width)
    elif cls == "chain":
        rep = random_chain_rep(rng, counts, [width] + [2] * (arity - 3) + [width])
    else:
        rep = random_like_rep(rng, cls.split("-")[1], counts, [width] * (arity - 1))
    if cls in ("chain", "diagonal"):
        head, tail = (_selection(rng, atoms, width) for _ in range(2))
        rep = HaagerupChainRep(
            head if ends != "tail" else rep.head,
            rep.middles,
            tail if ends != "head" else rep.tail,
        )
    elif cls.startswith("like"):
        k = 0 if ends == "head" else arity - 1
        tables = list(rep.tables)
        tables[k] = _selection(rng, atoms, width)
        rep = HaagerupLikeRep(rep.kind, tuple(tables))
    return MoiInstance(measures, _operators(rng, dim, arity - 1), rep)


def _planned(run):
    """run() under a watch on _plan: its value, and the (labels, pins) of the
    one plan it asked for."""
    with mock.patch.object(evaluate, "_plan", wraps=evaluate._plan) as plan:
        value = run()
    [(args, _)] = plan.call_args_list
    return value, args


@pytest.mark.parametrize("arity", [3, 4])
@pytest.mark.parametrize("cls, ends", PIN_CASES)
def test_pinned_sweep_matches_oracle_and_unpinned_sweep(monkeypatch, cls, ends, arity):
    inst = _pinned_instance(cls, ends, arity)
    w, (labels, pins) = _planned(lambda: eval_moi(inst))
    assert tuple(map(bool, pins)) == (ends != "tail", ends != "head")
    reverse, _, states = evaluate._plan(labels, pins)
    assert reverse == (ends == "tail")  # both ends: the unpinned plan's direction
    pin = labels[-1 if reverse else 0]
    assert len(pin) == 1 and not any(pin in state for state in states)
    with mock.patch.object(evaluate, "_pin", return_value=""):
        unpinned, (_, unpinned_pins) = _planned(lambda: eval_moi(inst))
    assert unpinned_pins == ("", "")
    tol = 1e-12 * moi_scale(inst)
    assert np.abs(w - unpinned).max() <= tol
    assert np.abs(w - eval_oracle(inst)).max() <= TOL * moi_scale(inst)
    _force_slices(monkeypatch, 16 * inst.dim)  # one row per slice, each gathered alone
    with mock.patch.object(evaluate, "_contract", wraps=evaluate._contract) as contract:
        sliced = eval_moi(inst)
    # states of a bond of width 0 hold nothing, so they take every row at once
    assert contract.call_count == (1 if cls == "zero-width" else inst.dim)
    assert np.abs(sliced - w).max() <= tol


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("arity", [3, 4])
def test_pinned_duality_matches_unpinned_duality(kind, arity):
    """The duality functional sweeps the chain-like network along its cyclic
    path, whose end table the selection pins."""
    inst = _pinned_instance(f"like-{kind}", "head" if kind == "first" else "tail", arity)
    rng = rng_for(95, arity)
    qs = [crandom(rng, (inst.dim, inst.dim)) for _ in range(3)]
    values, (_, pins) = _planned(lambda: duality_functionals(inst, qs))
    assert any(pins)
    with mock.patch.object(evaluate, "_pin", return_value=""):
        unpinned = duality_functionals(inst, qs)
    w = eval_haagerup_like(inst)
    for q, value, other in zip(qs, values, unpinned):
        bound = TOL * moi_scale(inst) * schatten_norm(q, 1)
        assert abs(value - other) <= bound
        assert abs(complex(np.trace(w @ q)) - value) <= bound


def test_only_a_selection_of_width_two_or_more_pins():
    rng = rng_for(96)
    selection = _selection(rng, 5, 3)
    assert evaluate._pin("A", selection) == "A"
    assert evaluate._pin("A", np.zeros((5, 2))) == "A"  # every row zero
    assert not evaluate._pin("AB", selection[:, :, None])  # two bonds
    assert not evaluate._pin("A", np.zeros((5, 0)))  # width 0: no argmax
    assert not evaluate._pin("A", crandom(rng, (5, 1)))  # width 1: nothing to save
    assert not evaluate._pin("A", np.ones((5, 1)))
    assert not evaluate._pin("A", crandom(rng, (5, 3)))  # dense
    one_more = selection.copy()
    one_more[3, (np.flatnonzero(one_more[3])[0] + 1) % 3] = 1e-300  # a second nonzero entry
    assert not evaluate._pin("A", one_more)


RANDOM_CLASSES = ("chain", "like-first", "like-second", "projective")


@pytest.mark.parametrize("cls", RANDOM_CLASSES)
@pytest.mark.parametrize("width_range", [(1, 1), (2, 3)])
def test_dense_and_width_one_tables_never_pin(cls, width_range):
    """Random dense tables, and the width-1 chains and one-term projective
    tables of verify, keep the unpinned plan."""
    rng = rng_for(97, RANDOM_CLASSES.index(cls), width_range[0])
    for _ in range(4):
        inst = random_instance(rng, cls, dim_range=(4, 6), width_range=width_range)
        _, (_, pins) = _planned(lambda: eval_moi(inst))
        assert pins == ("", "")


def test_construction_plan_holds_no_bond():
    """The extremal chains' delta head and tail pin: no state holds a bond,
    and the table that closes the bond multiplies it away."""
    inst = build_construction(default_case(4, "both-large", 4.0, 4.0, 16))
    _, (labels, pins) = _planned(lambda: eval_moi(inst))
    assert (labels, pins) == (("A",) * 4, ("A", "A"))
    reverse, steps, states = evaluate._plan(labels, pins)
    assert not reverse and states == ("",) * 4
    assert [kind for kind, _, _ in steps] == ["einsum", "mul", "move", "mul", "move", "einsum"]


# --- bases that are exactly the identity ---------------------------------------

FAMILY_EXPONENTS = {
    "both-large": (4.0, 4.0),
    "both-small": (1.5, 2.0),
    "mixed-large-small": (4.0, 1.5),
    "mixed-small-large": (2.0, 3.0),
}


def test_is_identity_takes_only_the_exact_identity():
    rng = rng_for(103)
    assert evaluate._is_identity(np.eye(1, dtype=np.complex128))
    assert evaluate._is_identity(np.eye(5, dtype=np.complex128))
    assert not evaluate._is_identity(haar_unitaries(random_complex(rng, (5, 5))))
    phases = np.diag(np.exp(1j * np.arange(5)))  # diagonal, but not the identity
    assert not evaluate._is_identity(phases)
    swap = np.eye(5, dtype=np.complex128)[:, [0, 2, 1, 3, 4]]  # its corner is 1
    assert not evaluate._is_identity(swap)
    nearly = np.eye(5, dtype=np.complex128)
    nearly[4, 3] = 1e-300
    assert not evaluate._is_identity(nearly)


def test_identity_skip_keeps_the_families_bits(monkeypatch):
    """The extremal families' Fourier measure has the identity basis, which the
    sweep skips: their values are the bits of the full basis change."""
    instances = [
        build_construction(default_case(m, regime, *FAMILY_EXPONENTS[regime], 64))
        for m in (3, 4)
        for regime in FAMILY_EXPONENTS
    ]
    assert all(evaluate._is_identity(inst.measures[0].basis) for inst in instances)
    skipped = [eval_moi(inst).tobytes() for inst in instances]
    monkeypatch.setattr(evaluate, "_is_identity", lambda u: False)
    assert [eval_moi(inst).tobytes() for inst in instances] == skipped


def _identity_measure(rng, dim):
    """A measure whose basis is exactly the identity: the trivial measure, or
    one of drawn atoms."""
    n = int(rng.integers(1, dim + 1))
    if n == 1:
        return trivial_measure(dim)
    labels = np.repeat(np.arange(n), rng.multinomial(dim - n, [1.0 / n] * n) + 1)
    return FiniteSpectralMeasure.from_basis(np.eye(dim), labels, range(n))


def _instance_with_identity_bases(rng, cls, arity, zeros=False):
    """A random instance of a class, some of whose measures (at least one)
    have the identity basis; with `zeros`, its operators hold -0 and +0
    entries, among them a zero row and a zero column."""
    dim = int(rng.integers(2, 7))
    measures = list(random_measures(rng, dim, arity))
    for k in rng.choice(arity, size=int(rng.integers(1, arity + 1)), replace=False):
        measures[k] = _identity_measure(rng, dim)
    operators = [random_operator(rng, dim) for _ in range(arity - 1)]
    for t in operators if zeros else ():
        t[rng.random(t.shape) < 0.3] = complex(-0.0, -0.0)
        t[int(rng.integers(dim))] = t[:, int(rng.integers(dim))] = 0.0
    counts = [e.n_atoms for e in measures]
    widths = [int(w) for w in rng.integers(1, 4, size=arity - 1)]
    if cls == "projective":
        rep = random_projective_rep(rng, counts, int(rng.integers(1, 4)))
    elif cls == "chain":
        rep = random_chain_rep(rng, counts, widths)
    else:
        rep = random_like_rep(rng, cls.split("-")[1], counts, widths)
    return MoiInstance(measures, operators, rep)


def _identity_skip_outputs(cls, instances, probes):
    """Each sweep's value, and each duality probe's of a chain-like class."""
    values = [eval_moi(inst) for inst in instances]
    if cls.startswith("like"):
        values += [np.array(duality_functionals(i, qs)) for i, qs in zip(instances, probes)]
    return values


@pytest.mark.parametrize("cls", RANDOM_CLASSES)
@pytest.mark.parametrize("zeros", [False, True])
def test_identity_skip_keeps_every_bit(monkeypatch, cls, zeros):
    """With the identity skip forced off, every sweep, and each duality probe
    of a chain-like class, gives the same bytes. Where the operators hold
    exact zeros, an exact zero of a value may change its sign (see
    evaluate._product), and every value is still equal."""
    rng = rng_for(107, RANDOM_CLASSES.index(cls), zeros)
    arities = [3, 4, 5] if cls.startswith("like") else [2, 3, 4, 5]
    instances = [
        _instance_with_identity_bases(rng, cls, m, zeros) for m in arities for _ in range(6)
    ]
    # a transposed probe is F-ordered, and a skipped product leaves it so
    probes = [[random_operator(rng, i.dim), random_operator(rng, i.dim).T] for i in instances]
    skipped = _identity_skip_outputs(cls, instances, probes)
    monkeypatch.setattr(evaluate, "_is_identity", lambda u: False)
    full = _identity_skip_outputs(cls, instances, probes)
    if zeros:
        assert all(np.array_equal(a, b) for a, b in zip(skipped, full))
    else:
        assert [a.tobytes() for a in skipped] == [b.tobytes() for b in full]


# --- thin factor pairs ---------------------------------------------------------

THIN_DIM = 16  # d / 8 = 2 rows or columns
THIN_SUPPORTS = ("rows", "cols", "both", "zero")
# (class, pinned end) of arity 4: forward and reversed plans, unpinned and pinned
THIN_PLANS = [("chain", None), ("like-second", None), ("chain", "head"), ("chain", "tail")]
# H a Haar basis, I the identity, for the four measures: each operator meets
# every pair of sides in one pattern or another
THIN_BASES = ("HHHH", "IHIH", "HIHI", "IIII")


def _thin_operator(rng, support, dim=THIN_DIM):
    """A random operator whose nonzero entries lie in d/8 rows ("rows"), in
    d/8 columns ("cols"), in d/8 of each ("both"), or nowhere ("zero")."""
    t = np.zeros((dim, dim), dtype=np.complex128)
    if support == "zero":
        return t
    every = np.arange(dim)
    rows = rng.choice(dim, dim // 8, replace=False) if support != "cols" else every
    cols = rng.choice(dim, dim // 8, replace=False) if support != "rows" else every
    t[np.ix_(rows, cols)] = crandom(rng, (len(rows), len(cols)))
    return t


def _thin_measure(rng, basis):
    if basis == "H":
        return random_measure(rng, THIN_DIM, 3)
    return FiniteSpectralMeasure.from_basis(
        np.eye(THIN_DIM), rng.permutation(np.arange(THIN_DIM) % 3), range(3)
    )


def _thin_instance(plan, support, pattern):
    """An arity-4 instance of the plan's class whose three operators all
    have the given support, on measures of 3 atoms with the pattern's bases."""
    cls, end = plan
    rng = rng_for(
        108, THIN_PLANS.index(plan), THIN_SUPPORTS.index(support), THIN_BASES.index(pattern)
    )
    measures = [_thin_measure(rng, basis) for basis in pattern]
    if cls == "chain":
        rep = random_chain_rep(rng, [3] * 4, [3, 2, 3])
        if end:
            ends = {"head": rep.head, "tail": rep.tail, end: _selection(rng, 3, 3)}
            rep = HaagerupChainRep(ends["head"], rep.middles, ends["tail"])
    else:
        rep = random_like_rep(rng, "second", [3] * 4, [2, 2, 2])
    return MoiInstance(measures, [_thin_operator(rng, support) for _ in range(3)], rep)


def _move_calls(run):
    """run()'s value, and the factors that each of its calls to
    evaluate._move returned."""
    results = []

    def spy(*args):
        results.append(MOVE(*args))
        return results[-1]

    with mock.patch.object(evaluate, "_move", spy):
        value = run()
    return value, results


@pytest.mark.parametrize("pattern", THIN_BASES)
@pytest.mark.parametrize("support", THIN_SUPPORTS)
@pytest.mark.parametrize("plan", THIN_PLANS)
def test_thin_pairs_match_oracle(plan, support, pattern):
    """Each operator moves as a pair through its smaller side, whether it
    starts the sweep or is moved, on either plan, pinned or not, and the
    value matches the oracle and the dense moves. The zero operator's pair
    is empty, and its value has the dense path's bytes, signs of zero too."""
    inst = _thin_instance(plan, support, pattern)
    (w, results), (labels, pins) = _planned(lambda: _move_calls(lambda: eval_moi(inst)))
    assert evaluate._plan(labels, pins)[0] == (plan in (("like-second", None), ("chain", "tail")))
    assert any(pins) == bool(plan[1])
    inner = 0 if support == "zero" else THIN_DIM // 8
    assert [(a.shape, b.shape) for a, b in results] == [((16, inner), (inner, 16))] * 3
    assert np.abs(w - eval_oracle(inst)).max() <= TOL * moi_scale(inst)
    with mock.patch.object(evaluate, "_move", dense_move):
        dense = eval_moi(inst)
    assert np.abs(w - dense).max() <= 1e-12 * moi_scale(inst)
    if support == "zero":
        assert w.tobytes() == dense.tobytes()


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("arity", [3, 4])
def test_sparse_probe_moves_as_a_pair(kind, arity):
    """A probe in the duality functional's gap goes through the same move:
    each sparse probe, and no dense operator or probe, moves as a pair."""
    rng = rng_for(109, kind == "first", arity)
    measures = [_thin_measure(rng, "IH"[k % 2]) for k in range(arity)]
    rep = random_like_rep(rng, kind, [3] * arity, [2] * (arity - 1))
    inst = MoiInstance(measures, _operators(rng, THIN_DIM, arity - 1), rep)
    qs = [_thin_operator(rng, support) for support in THIN_SUPPORTS]
    qs.append(crandom(rng, (THIN_DIM, THIN_DIM)))
    values, results = _move_calls(lambda: duality_functionals(inst, qs))
    assert [len(r) == 2 for r in results] == [False] * (arity - 2) + [True] * 4 + [False]
    w = eval_haagerup_like(inst)
    for q, value in zip(qs, values):
        bound = TOL * moi_scale(inst) * schatten_norm(q, 1)
        assert abs(complex(np.trace(w @ q)) - value) <= bound


def test_a_dense_operator_is_refused_by_one_count():
    rng = rng_for(110)
    u = haar_unitaries(random_complex(rng, (THIN_DIM, THIN_DIM)))
    eye = np.eye(THIN_DIM, dtype=np.complex128)
    dense = random_operator(rng, THIN_DIM)
    with mock.patch.object(np, "count_nonzero", wraps=np.count_nonzero) as count, mock.patch.object(
        np, "flatnonzero", side_effect=AssertionError("the support was taken")
    ):
        [moved] = evaluate._move(dense, u, eye, (False, True))
    assert count.call_count == 1
    assert moved.tobytes() == (adjoint(u) @ dense).tobytes()
    # a diagonal passes the count, d of d^2 entries, and its d rows and columns
    # refuse it as a pair: it comes back as the other basis scaled by its diagonal
    diagonal = crandom(rng, THIN_DIM)
    with mock.patch.object(evaluate, "_product", wraps=evaluate._product) as product:
        [moved] = evaluate._move(np.diag(diagonal), u, eye, (False, True))
    assert moved.tobytes() == (adjoint(u) * diagonal).tobytes() and not product.called
    # random instances, up to the d = 16 where a pair could take 2 rows, keep
    # the dense path: one _product per move, and one for the basis change
    for cls in RANDOM_CLASSES:
        for _ in range(3):
            inst = random_instance(rng, cls, dim_range=(2, 16), width_range=(1, 3))
            with mock.patch.object(evaluate, "_product", wraps=evaluate._product) as product:
                _, results = _move_calls(lambda: eval_moi(inst))
            assert [len(r) for r in results] == [1] * (inst.arity - 1)
            assert product.call_count == inst.arity


# --- a diagonal operator beside an identity basis ----------------------------

def _move_without_diagonals(*args):
    """evaluate._move with no diagonal scaled: a pair, or else the dense
    move, as before diagonals scaled a basis."""
    op = MOVE(*args)
    return op if len(op) == 2 else dense_move(*args)


def _diagonal_instance(seed, real):
    """A seeded random instance, d >= 8, whose measures alternate between the
    identity basis and their own, and whose operators are diagonals, a fifth
    of their entries zero, real or complex."""
    rng = rng_for(111, seed, real)
    inst = random_instance(rng, RANDOM_CLASSES[seed % 4], dim_range=(8, 40), width_range=(1, 3))
    d = inst.dim
    measures = list(inst.measures)
    for k in range(seed % 2, len(measures), 2):
        labels = rng.permutation(np.arange(d) % measures[k].n_atoms)
        measures[k] = FiniteSpectralMeasure.from_basis(np.eye(d), labels, measures[k].points)
    operators = []
    for _ in inst.operators:
        diagonal = rng.standard_normal(d) if real else crandom(rng, d)
        diagonal[rng.random(d) < 0.2] = 0
        operators.append(np.diag(diagonal))
    return MoiInstance(measures, operators, inst.integrand)


@pytest.mark.parametrize("real", [True, False])
def test_a_diagonal_beside_an_identity_basis_scales_the_other(real):
    """Each diagonal operator between an identity basis and another moves as
    that basis scaled by its diagonal: a real diagonal gives the dense
    move's bits; a complex one, whose product the BLAS kernel rounds
    otherwise, comes within 1e-15 of it (up to 7.4e-16 of the value's
    largest entry, on 300 seeded instances)."""
    for seed in range(40):
        inst = _diagonal_instance(seed, real)
        with mock.patch.object(evaluate, "_product", wraps=evaluate._product) as product:
            w, results = _move_calls(lambda: eval_moi(inst))
        # no _product call but the basis change: each move scales a basis
        assert [len(r) for r in results] == [1] * (inst.arity - 1)
        assert product.call_count == 1
        with mock.patch.object(evaluate, "_move", _move_without_diagonals):
            dense = eval_moi(inst)
        if real:
            assert w.tobytes() == dense.tobytes(), seed
        else:
            assert np.abs(w - dense).max() <= 1e-15 * np.abs(dense).max(), seed


def test_a_dense_operator_never_reaches_the_diagonal_rule():
    """Between an identity basis and another, a dense operator is refused by
    _move's count and moves through _product, as does the basis change."""
    rng = rng_for(112)
    measures = [_thin_measure(rng, basis) for basis in "IHIH"]
    rep = random_chain_rep(rng, [3] * 4, [3, 2, 3])
    inst = MoiInstance(measures, _operators(rng, THIN_DIM, 3), rep)
    with mock.patch.object(evaluate, "_product", wraps=evaluate._product) as product:
        _, results = _move_calls(lambda: eval_moi(inst))
    assert [len(r) for r in results] == [1] * 3
    assert product.call_count == 4


def test_a_zero_operator_beside_an_identity_basis_moves_as_a_pair():
    """All-zero is diagonal too, but the thin-pair rule comes first: the
    zero operator moves as an empty pair, with the dense path's bytes."""
    rng = rng_for(113)
    measures = [_thin_measure(rng, basis) for basis in "IHIH"]
    rep = random_chain_rep(rng, [3] * 4, [3, 2, 3])
    operators = [_thin_operator(rng, "zero"), *_operators(rng, THIN_DIM, 2)]
    inst = MoiInstance(measures, operators, rep)
    w, results = _move_calls(lambda: eval_moi(inst))
    assert [(a.shape, b.shape) for a, b in results[:1]] == [((16, 0), (0, 16))]
    with mock.patch.object(evaluate, "_move", dense_move):
        assert w.tobytes() == eval_moi(inst).tobytes()


def test_pairs_and_scaled_diagonals_keep_their_bits_across_move_blocks(monkeypatch):
    """The d = 64 arity-4 projective instance of 512 terms, with an identity
    third basis: its dense first operator starts the sweep, a rank-one
    operator of one row moves as a pair and a real diagonal as the identity's
    neighbour scaled, each over eight MOVE_BLOCK-column blocks of the state,
    or many, or one. The value has the same bytes at every block size."""
    rng = rng_for(114)
    measures = list(random_measures(rng, 64, 4, n_atoms=8))
    labels = rng.permutation(np.arange(64) % 8)
    measures[2] = FiniteSpectralMeasure.from_basis(np.eye(64), labels, measures[2].points)
    rank_one = np.zeros((64, 64), dtype=np.complex128)
    rank_one[int(rng.integers(64))] = crandom(rng, 64)
    operators = [random_operator(rng, 64), rank_one, np.diag(rng.standard_normal(64))]
    inst = MoiInstance(measures, operators, random_projective_rep(rng, [8] * 4, 512))
    w, results = _move_calls(lambda: eval_moi(inst))
    assert [len(r) for r in results] == [1, 2, 1]
    assert np.abs(w - eval_oracle(inst)).max() <= TOL * moi_scale(inst)
    for block in (512, 4, 10**9):
        monkeypatch.setattr(evaluate, "MOVE_BLOCK", block)
        with mock.patch.object(evaluate, "_product", wraps=evaluate._product) as product:
            assert eval_moi(inst).tobytes() == w.tobytes(), block
        assert product.call_count == 2  # the dense move and the basis change
