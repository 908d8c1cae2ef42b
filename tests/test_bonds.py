"""The bond-label description of the integrands and the sweep engine built on it.

Psi, its norm bound and its integral are all derived from integrands._bonds;
these tests pin them to the per-class code they replaced and to the
atomwise oracle.
"""

import itertools
from math import prod
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from moilab import evaluate
from moilab.evaluate import MoiInstance, _cyclic_path, _plan, eval_moi, eval_oracle, moi_scale
from moilab.integrands import (
    HaagerupChainRep,
    ProjectiveRep,
    _bonds,
    _like_bonds,
    eval_pointwise,
    rep_norm_bound,
)
from moilab.randominst import (
    random_like_rep,
    random_measure,
    random_operator,
    random_projective_rep,
    rng_for,
)
from moilab.spectral import matrix_sup, scalar_sup, vector_sup

TOL = 1e-10


def crandom(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- the per-class code the bond labels replaced -----------------------------


def _ladder_pointwise(rep, atoms):
    """Psi at one atom tuple, one branch per class."""
    if isinstance(rep, ProjectiveRep):
        total = 0.0 + 0.0j
        for term in rep.terms:
            prod = 1.0 + 0.0j
            for factor, a in zip(term, atoms):
                prod *= factor[a]
            total += prod
        return complex(total)
    if isinstance(rep, HaagerupChainRep):
        v = rep.head[atoms[0]]
        for mid, a in zip(rep.middles, atoms[1:-1]):
            v = v @ mid[a] if mid.ndim == 3 else v * mid[a]
        return complex(v @ rep.tail[atoms[-1]])
    t = [tab[a] for tab, a in zip(rep.tables, atoms)]
    key = (rep.kind, rep.arity)
    if key == ("first", 3):
        return complex(np.einsum("j,k,jk->", t[0], t[1], t[2]))
    if key == ("second", 3):
        return complex(np.einsum("jk,j,k->", t[0], t[1], t[2]))
    if key == ("first", 4):
        return complex(np.einsum("l,j,jk,kl->", t[0], t[1], t[2], t[3]))
    return complex(np.einsum("jk,kl,l,j->", t[0], t[1], t[2], t[3]))


_LADDER_RANKS = {
    ("first", 3): (1, 1, 2),
    ("second", 3): (2, 1, 1),
    ("first", 4): (1, 1, 2, 2),
    ("second", 4): (2, 2, 1, 1),
}


def _ladder_bound(rep):
    """rep_norm_bound, one branch per class."""
    if isinstance(rep, ProjectiveRep):
        return float(sum(np.prod([scalar_sup(f) for f in term]) for term in rep.terms))
    if isinstance(rep, HaagerupChainRep):
        bound = vector_sup(rep.head) * vector_sup(rep.tail)
        for m in rep.middles:
            bound *= matrix_sup(m) if m.ndim == 3 else scalar_sup(m)
        return float(bound)
    bound = 1.0
    for t, r in zip(rep.tables, _LADDER_RANKS[(rep.kind, rep.arity)]):
        bound *= vector_sup(t) if r == 1 else matrix_sup(t)
    return float(bound)


# --- draws of every class ------------------------------------------------------


def _mixed_chain(draw, rng, counts):
    """A chain whose middles are diagonal or dense at random, widths 0-3."""
    width = draw(st.integers(0, 3))
    head, middles = crandom(rng, (counts[0], width)), []
    for n in counts[1:-1]:
        if draw(st.booleans()):
            middles.append(crandom(rng, (n, width)))
        else:
            nxt = draw(st.integers(0, 3))
            middles.append(crandom(rng, (n, width, nxt)))
            width = nxt
    return HaagerupChainRep(head, tuple(middles), crandom(rng, (counts[-1], width)))


@st.composite
def instances(draw):
    """Chains of arity 2-5 with mixed middles, projective sums of 0-4 terms
    and both chain-like kinds at arity 3 and 4, on measures of dim 1-6."""
    cls = draw(st.sampled_from(["projective", "chain", "like-first", "like-second"]))
    arity = draw(st.integers(3, 4) if cls.startswith("like") else st.integers(2, 5))
    dim = draw(st.integers(1, 6))
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    measures = tuple(
        random_measure(rng, dim, draw(st.integers(1, dim))) for _ in range(arity)
    )
    counts = [e.n_atoms for e in measures]
    if cls == "projective":
        rep = random_projective_rep(rng, counts, draw(st.integers(0, 4)))
    elif cls == "chain":
        rep = _mixed_chain(draw, rng, counts)
    else:
        widths = draw(st.lists(st.integers(0, 3), min_size=arity - 1, max_size=arity - 1))
        rep = random_like_rep(rng, cls.split("-")[1], counts, widths)
    operators = tuple(random_operator(rng, dim) for _ in range(arity - 1))
    return MoiInstance(measures, operators, rep)


_DRAWS = settings(derandomize=True, max_examples=200, deadline=None)


@_DRAWS
@given(instances())
def test_psi_from_the_labels_matches_the_class_ladder(inst):
    rep = inst.integrand
    for atoms in itertools.product(*(range(e.n_atoms) for e in inst.measures)):
        assert abs(eval_pointwise(rep, atoms) - _ladder_pointwise(rep, atoms)) <= 1e-12


@_DRAWS
@given(instances())
def test_bound_from_the_labels_is_the_class_ladder_bound(inst):
    assert rep_norm_bound(inst.integrand) == _ladder_bound(inst.integrand)


@_DRAWS
@given(instances())
def test_engine_matches_the_oracle(inst):
    gap = np.abs(eval_moi(inst) - eval_oracle(inst)).max()
    assert gap <= TOL * moi_scale(inst)


# --- the plan ----------------------------------------------------------------


def _peak(inst):
    """The largest open-bond size of the planned sweep's states."""
    labels, tables = _bonds(inst.integrand, [e.n_atoms for e in inst.measures])
    width = {b: w for bonds, t in zip(labels, tables) for b, w in zip(bonds, t.shape[1:])}
    return max(prod(width[b] for b in state) for state in _plan(labels)[2])


def _hand_peak(rep):
    """The largest open-bond size of the per-class code the engine replaced:
    one link of eval_haagerup's S[c, a, j] (which the projective terms, as
    the chain of embed_projective_in_haagerup, also fill) and one index of
    the (width, dim, dim) chain-like stacks."""
    if isinstance(rep, ProjectiveRep):
        return len(rep.terms)
    if isinstance(rep, HaagerupChainRep):
        return max(t.shape[-1] for t in (rep.head, *rep.middles))
    return max(max(t.shape[1:]) for t in rep.tables)


@_DRAWS
@given(instances())
def test_plan_peak_equals_the_hand_paths(inst):
    # a bond of width 0 makes the integrand zero and the states holding it empty
    if all(t.size for t in _bonds(inst.integrand, [e.n_atoms for e in inst.measures])[1]):
        assert _peak(inst) == _hand_peak(inst.integrand)


# the chain-like classes at arities 3-6, which the rule derives alike
_LIKE_KEYS = [(kind, arity) for arity in range(3, 7) for kind in ("first", "second")]


def test_like_bonds_keep_the_four_old_patterns():
    assert _like_bonds("first", 3) == ("J", "K", "JK")
    assert _like_bonds("second", 3) == ("JK", "J", "K")
    assert _like_bonds("first", 4) == ("L", "J", "JK", "KL")
    assert _like_bonds("second", 4) == ("JK", "KL", "L", "J")


def test_only_like_second_from_arity_four_sweeps_right_to_left():
    for kind, arity in _LIKE_KEYS:
        labels = _like_bonds(kind, arity)
        assert _plan(labels)[0] == (kind == "second" and arity >= 4)
        assert max(map(len, _plan(labels)[2])) == 1  # one bond at a time
    assert not _plan(("A", "AB", "B", "B"))[0] and not _plan(("Z",) * 4)[0]


def test_like_labels_give_one_cyclic_path():
    """duality_functional's chain starts at the one factor whose label and
    whose cyclic predecessor's label each hold one letter, visits every
    factor once in cyclic order, and links consecutive tables by a letter."""
    for kind, arity in _LIKE_KEYS:
        labels = _like_bonds(kind, arity)
        m = len(labels)
        starts = [k for k in range(m) if len(labels[k]) == len(labels[k - 1]) == 1]
        path = _cyclic_path(kind, arity)
        assert len(starts) == 1 and path[0] == starts[0]
        assert sorted(path) == list(range(m))
        assert all(b == (a + 1) % m for a, b in zip(path, path[1:]))
        assert all(set(labels[a]) & set(labels[b]) for a, b in zip(path, path[1:]))


def test_repeated_signature_does_not_plan_again():
    rng = rng_for(81)
    measures = tuple(random_measure(rng, 5, 3) for _ in range(4))
    ops = tuple(random_operator(rng, 5) for _ in range(3))
    first = random_like_rep(rng, "second", [3] * 4, [2, 3, 2])
    again = random_like_rep(rng, "second", [3] * 4, [4, 1, 3])
    _plan.cache_clear()
    with mock.patch.object(evaluate, "_candidate", wraps=evaluate._candidate) as candidate:
        eval_moi(MoiInstance(measures, ops, first))
        assert candidate.call_count == 2 * 4
        eval_moi(MoiInstance(measures, ops, again))
        assert candidate.call_count == 2 * 4
