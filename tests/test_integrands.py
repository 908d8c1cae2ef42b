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


def test_chain_width_mismatch_rejected():
    with pytest.raises(ValueError):
        HaagerupChainRep(np.ones((2, 2)), (np.ones((2, 3, 2)),), np.ones((2, 2)))
    with pytest.raises(ValueError):
        HaagerupChainRep(np.ones((2, 2)), (), np.ones((2, 3)))


def test_like_rep_rejects_bad_kind_and_widths():
    with pytest.raises(ValueError):
        HaagerupLikeRep("third", (np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1, 1))))
    with pytest.raises(ValueError):
        HaagerupLikeRep("first", (np.ones((2, 2)), np.ones((2, 1)), np.ones((2, 1, 1))))
    with pytest.raises(ValueError, match="chain-like arity 2 is outside"):
        HaagerupLikeRep("first", (np.ones((2, 1)), np.ones((2, 1))))
    with pytest.raises(ValueError, match="chain-like arity 19 is outside"):
        HaagerupLikeRep("second", (np.ones((2, 1)),) * 19)


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
    for atoms in itertools.product(*(range(n) for n in rep.atom_counts())):
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
    rep = ProjectiveRep(3)
    chain = embed_projective_in_haagerup(rep, atom_counts=(2, 2, 2))
    assert chain.head.shape == (2, 0)
    assert eval_pointwise(chain, (0, 0, 0)) == 0.0
    assert rep_norm_bound(chain) == 0.0


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
