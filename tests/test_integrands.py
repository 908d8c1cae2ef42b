"""Representation norms, pointwise evaluation, and the projective embedding."""

import itertools

import numpy as np
import pytest

from moilab.integrands import (
    HaagerupChainRep,
    HaagerupLikeRep,
    ProjectiveRep,
    embed_projective_in_haagerup,
    eval_pointwise,
    rep_norm_bound,
)
from moilab.evaluate import MoiInstance, eval_moi
from moilab.randominst import random_measure, random_operator, rng_for
from moilab.serialize import integrand_to_json
from moilab.sharpness import ConstructionCase, build_construction, default_case

from helpers import trivial_measure


def crandom(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def chain_value_by_index_loop(rep, atoms, reverse=False):
    """Independent re-summation over explicit chain index tuples."""
    widths = [rep.head.shape[1]] + [m.shape[2] for m in rep.middles]
    tuples = list(itertools.product(*(range(w) for w in widths)))
    if reverse:
        tuples = tuples[::-1]
    total = 0.0 + 0.0j
    for idx in tuples:
        value = rep.head[atoms[0], idx[0]]
        for t, mid in enumerate(rep.middles):
            value *= mid[atoms[t + 1], idx[t], idx[t + 1]]
        value *= rep.tail[atoms[-1], idx[-1]]
        total += value
    return total


def test_rep_norm_single_projective_term():
    term = (
        np.array([2.0, -1.0]),
        np.array([3.0, 1.0]),
        np.array([0.0, 5.0]),
    )
    rep = ProjectiveRep(3, (term,))
    assert abs(rep_norm_bound(rep) - 30.0) < 1e-12


def test_rep_norm_empty_projective_is_zero():
    rep = ProjectiveRep(3)
    assert rep_norm_bound(rep) == 0.0
    assert eval_pointwise(rep, (0, 0, 0)) == 0.0


def test_rep_norm_delta_system_chain_is_one():
    n = 4
    head = np.eye(n, dtype=complex)
    phases = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    mid = np.zeros((n, n, n), dtype=complex)
    mid[:, np.arange(n), np.arange(n)] = phases
    rep = HaagerupChainRep(head, (mid,), head)
    assert abs(rep_norm_bound(rep) - 1.0) < 1e-12


def test_rep_norm_homogeneous():
    rng = np.random.default_rng(3)
    head = crandom(rng, (3, 2))
    mid = crandom(rng, (4, 2, 2))
    tail = crandom(rng, (2, 2))
    base = rep_norm_bound(HaagerupChainRep(head, (mid,), tail))
    for t in [0.0, 0.5, 2.0]:
        scaled = rep_norm_bound(HaagerupChainRep(head, (t * mid,), tail))
        assert abs(scaled - t * base) <= 1e-12 * max(base, 1.0)


def test_eval_pointwise_constant_projective():
    rep = ProjectiveRep(3, ((np.ones(2), np.ones(3), np.ones(2)),))
    for atoms in itertools.product(range(2), range(3), range(2)):
        assert abs(eval_pointwise(rep, atoms) - 1.0) < 1e-15


def test_eval_pointwise_width_one_chain():
    rng = np.random.default_rng(5)
    a = crandom(rng, (3, 1))
    b = crandom(rng, (2, 1, 1))
    c = crandom(rng, (4, 1))
    rep = HaagerupChainRep(a, (b,), c)
    value = eval_pointwise(rep, (1, 0, 2))
    assert abs(value - a[1, 0] * b[0, 0, 0] * c[2, 0]) < 1e-14


def test_eval_pointwise_reversed_summation_oracle():
    rng = np.random.default_rng(7)
    rep = HaagerupChainRep(
        crandom(rng, (3, 2)), (crandom(rng, (2, 2, 3)), crandom(rng, (2, 3, 2))), crandom(rng, (3, 2))
    )
    for atoms in itertools.product(range(3), range(2), range(2), range(3)):
        fast = eval_pointwise(rep, atoms)
        fwd = chain_value_by_index_loop(rep, atoms)
        rev = chain_value_by_index_loop(rep, atoms, reverse=True)
        assert abs(fast - fwd) < 1e-12
        assert abs(fwd - rev) < 1e-12


@pytest.mark.parametrize(
    "kind,arity", [("first", 3), ("second", 3), ("first", 4), ("second", 4)]
)
def test_eval_pointwise_like_matches_manual_sum(kind, arity):
    rng = np.random.default_rng(11)
    counts = [2, 3, 2, 3][:arity]
    j, k, l = 2, 3, 2
    if (kind, arity) == ("first", 3):
        tables = (crandom(rng, (counts[0], j)), crandom(rng, (counts[1], k)), crandom(rng, (counts[2], j, k)))
    elif (kind, arity) == ("second", 3):
        tables = (crandom(rng, (counts[0], j, k)), crandom(rng, (counts[1], j)), crandom(rng, (counts[2], k)))
    elif (kind, arity) == ("first", 4):
        tables = (
            crandom(rng, (counts[0], l)),
            crandom(rng, (counts[1], j)),
            crandom(rng, (counts[2], j, k)),
            crandom(rng, (counts[3], k, l)),
        )
    else:
        tables = (
            crandom(rng, (counts[0], j, k)),
            crandom(rng, (counts[1], k, l)),
            crandom(rng, (counts[2], l)),
            crandom(rng, (counts[3], j)),
        )
    rep = HaagerupLikeRep(kind, tables)
    atoms = tuple(rng.integers(0, c) for c in counts)
    t = [tab[a] for tab, a in zip(rep.tables, atoms)]
    manual = 0.0 + 0.0j
    if arity == 3:
        for jj in range(j):
            for kk in range(k):
                if kind == "first":
                    manual += t[0][jj] * t[1][kk] * t[2][jj, kk]
                else:
                    manual += t[0][jj, kk] * t[1][jj] * t[2][kk]
    else:
        for jj in range(j):
            for kk in range(k):
                for ll in range(l):
                    if kind == "first":
                        manual += t[0][ll] * t[1][jj] * t[2][jj, kk] * t[3][kk, ll]
                    else:
                        manual += t[0][jj, kk] * t[1][kk, ll] * t[2][ll] * t[3][jj]
    assert abs(eval_pointwise(rep, atoms) - manual) < 1e-12


def test_eval_pointwise_bounded_by_rep_norm():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rep = HaagerupChainRep(
            crandom(rng, (3, 2)), (crandom(rng, (2, 2, 2)),), crandom(rng, (2, 2))
        )
        bound = rep_norm_bound(rep)
        for atoms in itertools.product(range(3), range(2), range(2)):
            assert abs(eval_pointwise(rep, atoms)) <= bound * (1.0 + 1e-10)


def test_eval_pointwise_multilinear_in_tables():
    rng = np.random.default_rng(17)
    head1, head2 = crandom(rng, (2, 2)), crandom(rng, (2, 2))
    mid = crandom(rng, (2, 2, 2))
    tail = crandom(rng, (2, 2))
    a, b = 1.7, -0.4 + 0.2j
    combo = HaagerupChainRep(a * head1 + b * head2, (mid,), tail)
    r1 = HaagerupChainRep(head1, (mid,), tail)
    r2 = HaagerupChainRep(head2, (mid,), tail)
    for atoms in itertools.product(range(2), repeat=3):
        lhs = eval_pointwise(combo, atoms)
        rhs = a * eval_pointwise(r1, atoms) + b * eval_pointwise(r2, atoms)
        assert abs(lhs - rhs) < 1e-12


def test_eval_pointwise_index_errors():
    rep = ProjectiveRep(2, ((np.ones(2), np.ones(2)),))
    with pytest.raises(IndexError):
        eval_pointwise(rep, (0, 5))
    with pytest.raises(ValueError):
        eval_pointwise(rep, (0, 0, 0))


def test_eval_pointwise_checks_the_atom_count_without_terms():
    # the term-less projective integrand is zero, but a tuple of the wrong length is refused
    rep = ProjectiveRep(3)
    with pytest.raises(ValueError, match="^expected 3 atom indices, got 1$"):
        eval_pointwise(rep, [99])
    assert eval_pointwise(rep, (0, 1, 2)) == 0j


def test_chain_width_mismatch_rejected():
    with pytest.raises(ValueError):
        HaagerupChainRep(np.ones((2, 2)), (np.ones((2, 3, 2)),), np.ones((2, 2)))
    with pytest.raises(ValueError):
        HaagerupChainRep(np.ones((2, 2)), (), np.ones((2, 3)))


def test_like_rep_rejects_bad_kind_and_widths():
    with pytest.raises(ValueError):
        HaagerupLikeRep("third", (np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1, 1))))
    with pytest.raises(ValueError, match="^factor 3 table gives bond A width 1, an earlier table 2$"):
        HaagerupLikeRep("first", (np.ones((2, 2)), np.ones((2, 1)), np.ones((2, 1, 1))))
    with pytest.raises(ValueError, match=r"^factor 3 table must have 3 axes, got shape \(2, 1\)$"):
        HaagerupLikeRep("first", (np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1))))
    with pytest.raises(ValueError, match="^factor 2 table has no atoms$"):
        HaagerupLikeRep("first", (np.ones((2, 1)), np.ones((0, 1)), np.ones((2, 1, 1))))
    with pytest.raises(ValueError, match="^factor 1 table has non-finite entries$"):
        HaagerupLikeRep("second", (np.full((2, 1, 1), np.inf), np.ones((2, 1)), np.ones((2, 1))))
    with pytest.raises(ValueError, match="chain-like arity 2 is outside"):
        HaagerupLikeRep("first", (np.ones((2, 1)), np.ones((2, 1))))
    with pytest.raises(ValueError, match="chain-like arity 52 is outside"):
        HaagerupLikeRep("second", (np.ones((2, 1)),) * 52)


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("arity", [5, 6])
def test_like_pointwise_is_the_rotated_chain_product(kind, arity):
    """A chain-like integrand is a chain (vector, matrices, vector) with its
    last factor moved to the front (first kind) or its first factor moved to
    the end (second kind): Psi is the chain's product in chain order."""
    rng = np.random.default_rng(arity + 10 * (kind == "second"))
    counts, widths = [2, 3, 1, 2, 3, 2][:arity], [1, 2, 3, 2, 1][: arity - 1]
    chain = [crandom(rng, (counts[0], widths[0]))]
    chain += [crandom(rng, (n, a, b)) for n, a, b in zip(counts[1:-1], widths, widths[1:])]
    chain.append(crandom(rng, (counts[-1], widths[-1])))
    s = arity - 1 if kind == "first" else 1  # the rep's factor i is the chain's (i + s) mod m
    rep = HaagerupLikeRep(kind, tuple(chain[(i + s) % arity] for i in range(arity)))
    for atoms in itertools.product(*(range(len(t)) for t in rep.tables)):
        y = [atoms[(k - s) % arity] for k in range(arity)]  # the atoms in chain order
        v = chain[0][y[0]]
        for t, x in zip(chain[1:], y[1:]):
            v = v @ t[x]
        assert abs(eval_pointwise(rep, atoms) - complex(v)) <= 1e-12 * max(1.0, abs(v))


def test_embed_single_term():
    rng = np.random.default_rng(19)
    term = (crandom(rng, (2,)), crandom(rng, (3,)), crandom(rng, (2,)))
    rep = ProjectiveRep(3, (term,))
    chain = embed_projective_in_haagerup(rep)
    assert chain.head.shape == (2, 1)
    for atoms in itertools.product(range(2), range(3), range(2)):
        assert abs(eval_pointwise(chain, atoms) - eval_pointwise(rep, atoms)) < 1e-12


def test_embed_exhaustive_pointwise_equality():
    rng = np.random.default_rng(23)
    counts = (4, 6, 3, 5)
    terms = tuple(
        tuple(crandom(rng, (n,)) for n in counts) for _ in range(3)
    )
    rep = ProjectiveRep(4, terms)
    chain = embed_projective_in_haagerup(rep)
    assert chain.arity == 4
    for atoms in itertools.product(*(range(n) for n in counts)):
        gap = abs(eval_pointwise(chain, atoms) - eval_pointwise(rep, atoms))
        assert gap <= 1e-12 * max(1.0, abs(eval_pointwise(rep, atoms)))


def test_embed_zero_integrand():
    # the zero integrand's chain is any chain with a width-0 bond, built directly
    chain = HaagerupChainRep(np.zeros((2, 0)), (np.zeros((2, 0)),), np.zeros((2, 0)))
    assert chain.head.shape == (2, 0)
    assert eval_pointwise(chain, (0, 0, 0)) == 0.0
    assert rep_norm_bound(chain) == 0.0
    # a projective integrand without terms has no atom counts to embed with
    with pytest.raises(ValueError, match="^cannot embed a projective integrand without terms"):
        embed_projective_in_haagerup(ProjectiveRep(3))


def test_embed_norm_does_not_exceed_projective_norm():
    # includes strongly skewed term weights, where naive per-factor balancing
    # would overshoot the projective norm
    rng = np.random.default_rng(29)
    terms = []
    for weight in [1.0, 1e-6, 3.0]:
        factors = []
        for n in (3, 2, 3):
            f = crandom(rng, (n,))
            f *= weight ** (1 / 3) / np.abs(f).max()
            factors.append(f)
        terms.append(tuple(factors))
    rep = ProjectiveRep(3, tuple(terms))
    chain = embed_projective_in_haagerup(rep)
    assert rep_norm_bound(chain) <= rep_norm_bound(rep) * (1.0 + 1e-12)


def test_embed_drops_zero_terms_without_changing_values():
    rng = np.random.default_rng(31)
    live = tuple(crandom(rng, (2,)) for _ in range(3))
    dead = (np.zeros(2), crandom(rng, (2,)), crandom(rng, (2,)))
    rep = ProjectiveRep(3, (live, dead))
    chain = embed_projective_in_haagerup(rep)
    assert chain.head.shape[1] == 2
    for atoms in itertools.product(range(2), repeat=3):
        assert abs(eval_pointwise(chain, atoms) - eval_pointwise(rep, atoms)) < 1e-12


def test_projective_integrand_keeps_its_own_copy_of_the_factors():
    # a caller who changes a factor after construction changes nothing the
    # integrand reads or writes: its terms are views of its own tables
    rng = rng_for(111)
    a, b = crandom(rng, (3,)), crandom(rng, (2,))
    rep = ProjectiveRep(2, ((a, b),))
    inst = MoiInstance((random_measure(rng, 4, 3), random_measure(rng, 4, 2)),
                       (random_operator(rng, 4),), rep)
    terms = [[f.copy() for f in term] for term in rep.terms]
    tables = [t.copy() for t in rep.tables]
    written, bound, value = integrand_to_json(rep), rep_norm_bound(rep), eval_moi(inst)
    a[:], b[:] = 100, -7j
    assert all(np.array_equal(f, g) for term, old in zip(rep.terms, terms) for f, g in zip(term, old))
    assert all(np.array_equal(t, old) for t, old in zip(rep.tables, tables))
    assert integrand_to_json(rep) == written
    assert rep_norm_bound(rep) == bound
    assert eval_moi(inst).tobytes() == value.tobytes()
    assert all(np.shares_memory(f, t) for f, t in zip(rep.terms[0], rep.tables))
    assert not any(np.shares_memory(f, g) for f in rep.terms[0] for g in (a, b))


def _embed_by_terms(rep):
    """The embedding one term at a time, the reference for the stacked one:
    each live term's factors over their sups, sqrt(weight) on head and tail."""
    counts = [len(t) for t in rep.tables]
    width = len(rep.terms)
    head = np.zeros((counts[0], width), dtype=np.complex128)
    middles = [np.zeros((n, width), dtype=np.complex128) for n in counts[1:-1]]
    tail = np.zeros((counts[-1], width), dtype=np.complex128)
    for n, term in enumerate(rep.terms):
        sups = [float(np.abs(f).max()) for f in term]
        weight = float(np.prod(sups))
        if weight == 0.0:
            continue
        root = np.sqrt(weight)
        head[:, n] = term[0] / sups[0] * root
        for i, mid in enumerate(middles):
            mid[:, n] = term[i + 1] / sups[i + 1]
        tail[:, n] = term[-1] / sups[-1] * root
    return (head, *middles, tail)


def _skewed_projective(rng, n_terms):
    """A projective integrand of arity 2 to 5 whose terms cycle through plain
    factors, a zero factor, factors whose weight underflows to 0 and factors
    spread over 120 decades."""
    arity = int(rng.integers(2, 6))
    counts = [int(n) for n in rng.integers(1, 6, size=arity)]
    terms = []
    for k in range(n_terms):
        term = [crandom(rng, (n,)) for n in counts]
        if k % 4 == 1:
            i = int(rng.integers(arity))
            term[i] = np.zeros(counts[i])
        elif k % 4 == 2:
            term = [f * 1e-170 for f in term]
        elif k % 4 == 3:
            term = [f * 10.0 ** int(rng.integers(-60, 61)) for f in term]
        terms.append(term)
    return ProjectiveRep(arity, terms)


@pytest.mark.parametrize("seed", range(8))
def test_embedding_equals_the_per_term_reference_bit_for_bit(seed):
    rng = rng_for(112, seed)
    rep = _skewed_projective(rng, 30 + 3 * seed)
    sups = [[float(np.abs(f).max()) for f in term] for term in rep.terms]
    weights = [float(np.prod(s)) for s in sups]
    assert any(w == 0.0 and min(s) > 0.0 for w, s in zip(weights, sups))  # an underflow
    assert any(min(s) == 0.0 for s in sups)  # a zero factor
    chain = embed_projective_in_haagerup(rep)
    for got, want in zip(chain.tables, _embed_by_terms(rep), strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the bound sums the same weights, term by term
    assert rep_norm_bound(rep) == float(sum(np.prod(s) for s in sups))


def _trivial_instance():
    trivial = trivial_measure(2)
    return MoiInstance((trivial, trivial), (np.eye(2),), ProjectiveRep(2, ((np.ones(1),) * 2,)))


# each array-holding class, built twice from equal contents
ARRAY_HOLDERS = {
    "projective": lambda: ProjectiveRep(3, ((np.ones(2),) * 3,)),
    "chain": lambda: HaagerupChainRep(np.ones((2, 2)), (), np.ones((2, 2))),
    "like": lambda: HaagerupLikeRep("first", (np.ones((2, 1)),) * 2 + (np.ones((2, 1, 1)),)),
    "instance": _trivial_instance,
    "case": lambda: ConstructionCase(3, "both-large", 4, 4, 2, np.ones(2), np.ones(2)),
    "construction": lambda: build_construction(default_case(3, "both-large", 4, 4, 2)),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(make):
    # the generated == would compare arrays, which raises, and hash fails
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2
