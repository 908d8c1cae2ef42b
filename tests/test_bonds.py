"""The bond network of the integrands and the sweep engine built on it.

Each integrand stores its network, built and checked once: `labels` (the
bond letters of each factor's table) and `tables` (one per factor, atom axis
first); a projective integrand without terms stores none, and
MoiInstance.network gives it width-0 tables sized by the measures. Psi, its
norm bound and its integral are all read from that network; these tests pin
the network to each class's literal pattern and inputs, and Psi, the bound
and the integral to the per-class code they replaced and to the atomwise
oracle.
"""

import itertools
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moilab import evaluate, integrands
from moilab.evaluate import (
    MoiInstance,
    _plan,
    duality_functionals,
    eval_moi,
    eval_oracle,
    moi_scale,
)
from moilab.integrands import (
    _LINKS,
    HaagerupChainRep,
    HaagerupLikeRep,
    ProjectiveRep,
    _like_bonds,
    eval_pointwise,
    rep_norm_bound,
)
from moilab.linalg import schatten_norm
from moilab.randominst import (
    random_instance,
    random_like_rep,
    random_measure,
    random_measures,
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
    if isinstance(rep, HaagerupChainRep):  # in factor order: head, middles, tail
        bound = vector_sup(rep.head)
        for m in rep.middles:
            bound *= matrix_sup(m) if m.ndim == 3 else scalar_sup(m)
        return float(bound * vector_sup(rep.tail))
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


# --- the stored network ---------------------------------------------------------

# Each class's bond letters, written out. Projective: the one bond Z through
# every factor. Chain, keyed by its middles (D dense, d diagonal): the links
# A, AB, BC, ..., a diagonal middle reusing its incoming letter. Chain-like:
# the same chain A, AB, BC, ..., with its last factor moved to the front
# (first kind) or its first moved to the end (second kind); at arity 3 the
# chain is written (B, AB, A).
_PROJECTIVE_LABELS = {
    2: ("Z", "Z"),
    3: ("Z", "Z", "Z"),
    4: ("Z", "Z", "Z", "Z"),
    5: ("Z", "Z", "Z", "Z", "Z"),
    6: ("Z", "Z", "Z", "Z", "Z", "Z"),
}
_CHAIN_LABELS = {
    "": ("A", "A"),
    "D": ("A", "AB", "B"),
    "d": ("A", "A", "A"),
    "DD": ("A", "AB", "BC", "C"),
    "dD": ("A", "A", "AB", "B"),
    "Dd": ("A", "AB", "B", "B"),
    "DDD": ("A", "AB", "BC", "CD", "D"),
    "dDd": ("A", "A", "AB", "B", "B"),
    "DDDD": ("A", "AB", "BC", "CD", "DE", "E"),
    "dDdD": ("A", "A", "AB", "B", "BC", "C"),
    "dddd": ("A", "A", "A", "A", "A", "A"),
}
_LIKE_LABELS = {
    ("first", 3): ("A", "B", "AB"),
    ("second", 3): ("AB", "A", "B"),
    ("first", 4): ("C", "A", "AB", "BC"),
    ("second", 4): ("AB", "BC", "C", "A"),
    ("first", 5): ("D", "A", "AB", "BC", "CD"),
    ("second", 5): ("AB", "BC", "CD", "D", "A"),
    ("first", 6): ("E", "A", "AB", "BC", "CD", "DE"),
    ("second", 6): ("AB", "BC", "CD", "DE", "E", "A"),
}


@pytest.mark.parametrize("arity", sorted(_PROJECTIVE_LABELS))
def test_projective_network_stacks_the_terms_on_one_bond(arity):
    rng = rng_for(85, arity)
    counts = [int(n) for n in rng.integers(1, 5, size=arity)]
    terms = [[crandom(rng, (n,)) for n in counts] for _ in range(3)]
    rep = ProjectiveRep(arity, terms)
    assert rep.labels == _PROJECTIVE_LABELS[arity]
    assert len(rep.tables) == arity and [len(t) for t in rep.tables] == counts
    for i, table in enumerate(rep.tables):
        assert table.shape == (counts[i], len(terms))
        for n, term in enumerate(terms):
            assert np.array_equal(table[:, n], term[i])
    zero = ProjectiveRep(arity)
    assert zero.labels == _PROJECTIVE_LABELS[arity]
    assert zero.tables == () and zero.terms == ()


def test_instance_gives_the_zero_integrand_width_zero_tables():
    rng = rng_for(86)
    measures = tuple(random_measure(rng, 4) for _ in range(3))
    ops = tuple(random_operator(rng, 4) for _ in range(2))
    inst = MoiInstance(measures, ops, ProjectiveRep(3))
    labels, tables = inst.network()
    assert labels == ("Z", "Z", "Z")
    assert [t.shape for t in tables] == [(e.n_atoms, 0) for e in measures]
    assert not eval_moi(inst).any() and not eval_oracle(inst).any()


@pytest.mark.parametrize("forms", sorted(_CHAIN_LABELS))
def test_chain_network_links_head_middles_and_tail(forms):
    rng = rng_for(87, sorted(_CHAIN_LABELS).index(forms))
    width, inputs = 2, []
    for n, form in zip(rng.integers(1, 4, size=len(forms) + 2), " " + forms + " "):
        if form == "D":  # a dense middle opens a wider bond
            inputs.append(crandom(rng, (n, width, width + 1)))
            width += 1
        else:
            inputs.append(crandom(rng, (n, width)))
    rep = HaagerupChainRep(inputs[0], tuple(inputs[1:-1]), inputs[-1])
    assert rep.labels == _CHAIN_LABELS[forms]
    assert rep.tables == (rep.head, *rep.middles, rep.tail)
    assert all(np.array_equal(t, a) for t, a in zip(rep.tables, inputs, strict=True))
    assert [len(t) for t in rep.tables] == [len(a) for a in inputs]


@pytest.mark.parametrize("kind, arity", sorted(_LIKE_LABELS))
def test_like_network_is_the_rotated_chain(kind, arity):
    rng = rng_for(88, arity, kind == "second")
    width = dict(zip("ABCDE", (2, 3, 1, 2, 3)))
    labels = _LIKE_LABELS[(kind, arity)]
    inputs = [crandom(rng, (2 + i % 2, *(width[b] for b in bonds))) for i, bonds in enumerate(labels)]
    rep = HaagerupLikeRep(kind, tuple(inputs))
    assert rep.labels == labels
    assert all(np.array_equal(t, a) for t, a in zip(rep.tables, inputs, strict=True))
    assert [len(t) for t in rep.tables] == [len(a) for a in inputs]


@pytest.mark.parametrize("cls", ["projective", "chain", "like-first", "like-second"])
def test_readers_take_the_stored_network(cls):
    """Evaluating an integrand neither derives nor checks its network again:
    the sweep gets the instance itself and reads the very tables, with their
    labels, that the integrand stores."""
    inst = random_instance(rng_for(89, len(cls)), cls, dim_range=(2, 4))
    rep = inst.integrand
    with mock.patch.object(integrands, "_like_bonds", side_effect=AssertionError), \
            mock.patch.object(integrands, "_width_clash", side_effect=AssertionError), \
            mock.patch.object(evaluate, "_sweep", wraps=evaluate._sweep) as sweep, \
            mock.patch.object(evaluate, "_pin", wraps=evaluate._pin) as pin:
        eval_moi(inst)
        eval_oracle(inst)
        rep_norm_bound(rep)
        eval_pointwise(rep, (0,) * inst.arity)
        if cls.startswith("like"):
            duality_functionals(inst, [np.eye(inst.dim)])
    assert sweep.call_count == 1 + cls.startswith("like")
    assert all(call.args[0] is inst for call in sweep.call_args_list)
    # the sweep asks _pin of its two end tables
    stored = {(bonds, id(t)) for bonds, t in zip(rep.labels, rep.tables, strict=True)}
    assert pin.call_count == 2 * sweep.call_count
    assert all((bonds, id(t)) in stored for bonds, t in (call.args for call in pin.call_args_list))


# --- the plan ----------------------------------------------------------------


def _peak(inst):
    """The largest open-bond size of the planned sweep's states."""
    labels, tables = inst.network()
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
    if all(t.size for t in inst.network()[1]):
        assert _peak(inst) == _hand_peak(inst.integrand)


# the chain-like classes at arities 3-6, which the rule derives alike
_LIKE_KEYS = [(kind, arity) for arity in range(3, 7) for kind in ("first", "second")]


def test_like_bonds_keep_the_four_old_patterns():
    assert _like_bonds("first", 3) == ("A", "B", "AB")
    assert _like_bonds("second", 3) == ("AB", "A", "B")
    assert _like_bonds("first", 4) == ("C", "A", "AB", "BC")
    assert _like_bonds("second", 4) == ("AB", "BC", "C", "A")


def test_only_like_second_from_arity_four_sweeps_right_to_left():
    for kind, arity in _LIKE_KEYS:
        labels = _like_bonds(kind, arity)
        assert _plan(labels)[0] == (kind == "second" and arity >= 4)
        assert max(map(len, _plan(labels)[2])) == 1  # one bond at a time
    assert not _plan(("A", "AB", "B", "B"))[0] and not _plan(("Z",) * 4)[0]


def test_like_labels_give_one_cyclic_path():
    """The one factor whose label and whose cyclic predecessor's label each
    hold one letter is factor 1 for the first kind and factor m - 1 for the
    second, where the chain that _like_bonds rotates starts. From there the
    factors in cyclic order link consecutive tables by a letter."""
    for kind, arity in _LIKE_KEYS:
        labels = _like_bonds(kind, arity)
        m = len(labels)
        starts = [k for k in range(m) if len(labels[k]) == len(labels[k - 1]) == 1]
        assert starts == [1 if kind == "first" else m - 1]
        path = [*range(starts[0], m), *range(starts[0])]
        assert all(set(labels[a]) & set(labels[b]) for a, b in zip(path, path[1:]))


def _label_search(labels) -> int:
    """The cut as duality_functionals once found it from the labels alone:
    the one factor whose label, and whose cyclic predecessor's, each hold
    one letter."""
    [start] = [k for k in range(len(labels)) if len(labels[k]) == len(labels[k - 1]) == 1]
    return start


@pytest.mark.parametrize("kind", ["first", "second"])
def test_the_stated_cut_is_the_factor_the_label_search_finds(kind):
    """At every arity the chain takes, the cut that the integrand states is
    the factor that the label search finds, and the labels read from it are
    the chain's own (reversed at arity 3, to keep the matrix indexed (A, B))."""
    for arity in range(3, len(_LINKS)):
        labels = _like_bonds(kind, arity)
        rep = HaagerupLikeRep(kind, tuple(np.ones((1,) + (1,) * len(b)) for b in labels))
        assert rep.labels == labels
        assert rep.cut == _label_search(labels) == (1 if kind == "first" else arity - 1)
        ones = tuple(np.ones((1, 1, 1)) for _ in range(arity - 2))
        chain = HaagerupChainRep(np.ones((1, 1)), ones, np.ones((1, 1))).labels
        assert labels[rep.cut :] + labels[: rep.cut] == (chain[::-1] if arity == 3 else chain)


def test_like_arity_cap_is_the_chains():
    assert len(_LINKS) - 1 == 51
    for kind in ("first", "second"):
        for arity in (2, 52):
            with pytest.raises(ValueError) as refusal:
                _like_bonds(kind, arity)
            assert str(refusal.value) == (
                f"chain-like arity {arity} is outside [3, 51], one bond letter per gap"
            )
    with pytest.raises(ValueError, match="^chain arity 52 exceeds 51$"):
        HaagerupChainRep(np.ones((1, 1)), (np.ones((1, 1, 1)),) * 50, np.ones((1, 1)))


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("arity", [20, 51])
def test_a_long_like_chain_evaluates_and_keeps_duality(kind, arity):
    """One atom per measure and width-2 bonds. W is the chain's product, read
    in cyclic order from the cut, times T_1 ... T_{m-1}; at arity 20 it agrees
    with the oracle (which refuses arity 51: 26 atom axes), and trace(W Q)
    equals the defining functional at a random Q. |W| is some 1e-19 of
    moi_scale at arity 51, so the closed form and the functional are held to
    |W| itself."""
    rng = rng_for(92, arity, kind == "second")
    measures = random_measures(rng, 3, arity, n_atoms=1)
    ops = tuple(random_operator(rng, 3) for _ in range(arity - 1))
    rep = random_like_rep(rng, kind, [1] * arity, [2] * (arity - 1))
    inst = MoiInstance(measures, ops, rep)
    w = eval_moi(inst)
    psi = np.linalg.multi_dot([rep.tables[(rep.cut + i) % arity][0] for i in range(arity)])
    size = np.abs(w).max()
    assert np.abs(w - psi * np.linalg.multi_dot(ops)).max() <= TOL * size
    if arity <= 26:
        assert np.abs(w - eval_oracle(inst)).max() <= TOL * moi_scale(inst)
    q = random_operator(rng, 3)
    [value] = duality_functionals(inst, [q])
    assert abs(value - np.trace(w @ q)) <= TOL * size * schatten_norm(q, 1)


def test_duality_sweeps_the_like_network_in_path_order():
    """duality_functional hands the sweep the instance itself, cut open at
    the integrand's cut, with Q as the one probe of the gap left
    open, builds no instance, and traces each value against the operator in
    the gap where the cut chain closes."""
    seen = []

    def sweep(inst, start, probes):
        seen.append((inst, start, probes))
        return [np.eye(inst.dim, dtype=np.complex128) for _ in probes]

    for kind, arity in _LIKE_KEYS:
        rng = rng_for(84, arity, kind == "second")
        measures = tuple(random_measure(rng, 3) for _ in range(arity))
        ops = tuple(random_operator(rng, 3) for _ in range(arity - 1))
        rep = random_like_rep(rng, kind, [e.n_atoms for e in measures], [2] * (arity - 1))
        inst, q = MoiInstance(measures, ops, rep), random_operator(rng, 3)
        seen.clear()
        with mock.patch.object(evaluate, "MoiInstance", side_effect=AssertionError), \
                mock.patch.object(evaluate, "_sweep", sweep):
            value = evaluate.duality_functional(inst, q)
        [(got, start, [got_q])] = seen
        assert got is inst and start == (1 if kind == "first" else arity - 1)
        assert np.array_equal(got_q, q)
        assert value == complex(np.trace(inst.operators[start - 1]))  # the trace of I T


# every class at arities 2-5, the chain-like ones from 3, where they start
_CUT_CASES = [
    (cls, arity)
    for cls in ("projective", "chain", "like-first", "like-second")
    for arity in range(3 if cls.startswith("like") else 2, 6)
]


@pytest.mark.parametrize("cls, arity", _CUT_CASES)
def test_a_cut_at_any_start_gives_the_functional(cls, arity):
    """The sweep cut open before any factor s >= 1, with Q in the gap between
    factors m and 1, traced against the operator in gap s - 1 where the cut
    chain closes, gives trace(W Q), by the cyclicity of the trace."""
    rng = rng_for(90, arity, len(cls))
    for _ in range(3):
        inst = random_instance(rng, cls, dim_range=(2, 5), arity=arity)
        w, scale = eval_moi(inst), moi_scale(inst)
        for s in range(1, arity):
            q = random_operator(rng, inst.dim)
            [cut] = evaluate._sweep(inst, s, [q])
            got = complex(np.trace(cut @ inst.operators[s - 1]))
            assert abs(got - complex(np.trace(w @ q))) <= TOL * scale * schatten_norm(q, 1)


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
