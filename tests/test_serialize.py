"""JSON round trips for matrices, measures, integrands, and instances."""

import gc
import io
import json
import math
import mmap
import random
import re
import reprlib
import sys
import tempfile
import tracemalloc
import weakref
from itertools import chain
from operator import getitem
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from moilab import serialize
from moilab.evaluate import MoiInstance, eval_moi, moi_scale
from moilab.integrands import HaagerupChainRep, HaagerupLikeRep, ProjectiveRep
from moilab.linalg import INF, schatten_norm
from moilab.randominst import random_instance, random_measure, rng_for
from moilab.serialize import (
    array_from_json,
    array_to_json,
    array_to_json_text,
    complex_from_json,
    exponent_from_json,
    exponent_to_json,
    instance_from_json,
    instance_to_json,
    integrand_from_json,
    integrand_to_json,
    load_instance,
    measure_from_json,
    measure_to_json,
)
from moilab.spectral import MEASURE_TOL, FiniteSpectralMeasure, from_hermitian


def test_complex_pair_round_trip():
    assert complex_from_json([1.0, -2.0]) == 1 - 2j
    assert complex_from_json(3) == 3 + 0j
    with pytest.raises(ValueError):
        complex_from_json("nope")
    with pytest.raises(ValueError):
        complex_from_json([1.0, 2.0, 3.0])


def test_array_round_trip():
    rng = rng_for(60)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    back = array_from_json(array_to_json(a), 2)
    assert np.allclose(a, back)
    with pytest.raises(ValueError):
        array_from_json([[1.0, 2.0], [[1.0, 0.0]]], 2)


def test_exponent_round_trip():
    assert exponent_to_json(math.inf) == "inf"
    assert exponent_from_json("inf") == math.inf
    assert exponent_from_json(2.5) == 2.5
    with pytest.raises(ValueError):
        exponent_from_json("two")


def test_measure_round_trip_explicit():
    rng = rng_for(61)
    h = rng.standard_normal((4, 4))
    e = from_hermitian(h + h.T)
    back = measure_from_json(measure_to_json(e))
    assert back.dim == e.dim and back.n_atoms == e.n_atoms
    for p, q in zip(e.projections, back.projections):
        assert schatten_norm(p - q, INF) < 1e-12
    u, labels = back.basis, back.labels
    assert schatten_norm(u.conj().T @ u - np.eye(back.dim), INF) <= MEASURE_TOL
    for i, q in enumerate(back.projections):
        cols = u[:, labels == i]
        assert schatten_norm(q - cols @ cols.conj().T, INF) <= MEASURE_TOL
    assert len(set(back.points)) == back.n_atoms


def test_measure_from_hermitian_form():
    payload = {"hermitian": [[1.0, 0.0], [0.0, 2.0]], "merge_tol": 1e-8}
    e = measure_from_json(payload)
    assert e.n_atoms == 2
    with pytest.raises(ValueError):
        measure_from_json({"dim": 2})


_CLASSES = ("projective", "chain", "like-first", "like-second")


@pytest.mark.parametrize("cls", _CLASSES)
def test_instance_round_trip_preserves_value(cls):
    inst = random_instance(rng_for(62, _CLASSES.index(cls)), cls, dim_range=(2, 4))
    back, exponents = instance_from_json(instance_to_json(inst, {"p": 2.0, "q": math.inf}))
    assert exponents == {"p": 2.0, "q": math.inf}
    gap = schatten_norm(eval_moi(inst) - eval_moi(back), INF)
    assert gap <= 1e-12 * moi_scale(inst)


def test_integrand_round_trip_empty_projective():
    from moilab.integrands import ProjectiveRep

    rep = ProjectiveRep(3)
    back = integrand_from_json(integrand_to_json(rep))
    assert isinstance(back, ProjectiveRep)
    assert back.arity == 3 and back.terms == ()


def test_integrand_rejects_unknown_class():
    with pytest.raises(ValueError):
        integrand_from_json({"mystery": {}})
    with pytest.raises(ValueError):
        integrand_from_json({"projective": {"terms": []}})
    with pytest.raises(ValueError, match="arity is out of range"):
        integrand_from_json({"projective": {"terms": [], "arity": math.inf}})


def test_instance_missing_fields():
    with pytest.raises(ValueError):
        instance_from_json({"measures": []})
    with pytest.raises(ValueError):
        instance_from_json([1, 2, 3])


def test_array_to_json_zero_dim_and_empty():
    assert array_to_json(np.asarray(1 - 2j)) == [1.0, -2.0]
    assert array_to_json(np.zeros((0, 2))) == []


# --- the array parser against the leaf-by-leaf parser it replaced -------------


def _is_number(obj):
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _reference_shown(obj):
    """A refused value as the loader shows it: a list or an object by kind
    and length, anything else by a repr cut short."""
    if isinstance(obj, list):
        return f"a list of {len(obj)}"
    if isinstance(obj, dict):
        return f"an object of {len(obj)} keys"
    return reprlib.repr(obj)


def _reference_complex(obj):
    if _is_number(obj):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(_is_number(x) for x in obj):
        return complex(obj[0], obj[1])
    raise ValueError(f"not a complex scalar (number or [re, im]): {_reference_shown(obj)}")


def _reference_extra_axes(obj):
    """Axes below a leaf position: a list that is not a pair of non-lists."""
    if not isinstance(obj, list) or (len(obj) == 2 and not any(isinstance(x, list) for x in obj)):
        return 0
    return 1 + (_reference_extra_axes(obj[0]) if obj else 0)


def _reference_parse(obj, ndim, above=0):
    if ndim == 0:
        if _reference_extra_axes(obj):
            raise ValueError(f"expected depth {above}, got {above + _reference_extra_axes(obj)}")
        return np.asarray(_reference_complex(obj))
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"expected a non-empty array of depth {ndim}: {_reference_shown(obj)}")
    parts = [_reference_parse(sub, ndim - 1, above + 1) for sub in obj]
    shapes = {p.shape for p in parts}
    if len(shapes) != 1:
        raise ValueError("ragged array")
    return np.stack(parts)


def _reference_to_json(a):
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 0:
        return [a.real.item(), a.imag.item()]
    return [_reference_to_json(sub) for sub in a]


def _outcome(parse, obj, ndim):
    try:
        a = parse(obj, ndim)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    assert a.dtype == np.complex128
    return a.shape, np.ascontiguousarray(a).tobytes()


def _assert_same_outcome(obj, ndim):
    expected = _outcome(_reference_parse, obj, ndim)
    if expected[0] is OverflowError:  # an integer beyond float range
        expected = (ValueError, "complex scalar is out of range")
    assert _outcome(array_from_json, obj, ndim) == expected


_INT64 = 2**63
_plain = st.one_of(st.floats(), st.integers(-1000, 1000))  # NaN and +-inf included
_wide = st.one_of(
    st.integers(-_INT64 - 4, -_INT64 + 4),
    st.integers(_INT64 - 4, 2 * _INT64 + 4),  # the int64 edge and uint64
    st.integers(2**53 - 4, 2**53 + 4),  # the first ints a float cannot hold
    st.integers(10**30, 10**30 + 10),  # beyond int64 but in float range
    st.integers(10**308, 10**309),  # around the largest float, 1.8e308
    st.integers(-(10**309), -(10**308)),
)
_numbers = st.one_of(_plain, _wide)


def _pairs(numbers):
    return st.lists(numbers, min_size=2, max_size=2)


_bools = st.booleans()
_LEAVES = {
    "real": _plain,
    "pair": _pairs(_plain),
    "mixed": st.one_of(_plain, _pairs(_plain)),
    "wide": st.one_of(_numbers, _pairs(_numbers)),
}
_bad_leaves = st.one_of(
    # JSON true and false, which numpy reads as 1 and 0 among numbers
    _bools,
    _pairs(_bools),
    st.tuples(_bools, _plain).map(list),
    st.tuples(_plain, _bools).map(list),
    st.sampled_from(["", "1", "1.5", "nan", "x"]),  # strings numpy could read as numbers
    st.none(),
    st.dictionaries(st.sampled_from(["re", "im"]), _numbers, max_size=1),
    st.lists(_numbers, min_size=3, max_size=3),
    st.lists(_numbers, min_size=0, max_size=1),
    st.just([[1.0, 2.0], [3.0, 4.0]]),
)


@st.composite
def _well_formed(draw, leaves=_LEAVES):
    """(nested list, ndim) of a full array: ndim 1-3, axes 1-3 long."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    leaf = leaves[draw(st.sampled_from(sorted(leaves)))]

    def build(axes):
        if not axes:
            return draw(leaf)
        return [build(axes[1:]) for _ in range(axes[0])]

    return build(shape), len(shape)


def _positions(obj):
    """Every (parent list, index) position in a nested list."""
    if isinstance(obj, list):
        for i, sub in enumerate(obj):
            yield obj, i
            yield from _positions(sub)


@st.composite
def _malformed(draw):
    """A well-formed array broken at one place, read at the wrong depth, or
    built from boolean leaves."""
    obj, ndim = draw(_well_formed())
    how = draw(st.sampled_from(["empty", "ragged", "leaf", "depth", "top", "bool"]))
    if how == "bool":
        return draw(_well_formed({"bool": st.one_of(_bools, _pairs(_bools))}))
    if how == "depth":
        return obj, ndim + draw(st.sampled_from([-1, 1, 2]))
    if how == "top":
        return draw(st.one_of(st.just([]), _bad_leaves, _numbers)), ndim
    parent, i = draw(st.sampled_from(list(_positions(obj))))
    if how == "empty":
        parent[i] = []
    elif how == "ragged":  # one sub-list longer than its siblings, or a leaf one deeper
        sub = parent[i]
        parent[i] = sub + sub[:1] if isinstance(sub, list) else [sub]
    else:
        parent[i] = draw(_bad_leaves)
    return obj, ndim


_PROPERTY = settings(max_examples=250, deadline=None, derandomize=True)


@st.composite
def _one_bool_leaf(draw):
    """A real or [re, im] array with one number turned into a boolean, which
    one np.asarray reads as 0 or 1 among the numbers."""
    kind = draw(st.sampled_from(["real", "pair"]))
    obj, ndim = draw(_well_formed({kind: _LEAVES[kind]}))
    row = obj
    for _ in range(ndim - 1):
        row = row[draw(st.integers(0, len(row) - 1))]
    i = draw(st.integers(0, len(row) - 1))
    if kind == "real":
        row[i] = draw(_bools)
    else:
        row[i][draw(st.integers(0, 1))] = draw(_bools)
    return obj, ndim


@_PROPERTY
@given(_well_formed())
def test_array_parser_matches_reference_on_arrays(case):
    obj, ndim = case
    _assert_same_outcome(obj, ndim)


@_PROPERTY
@given(_malformed())
def test_array_parser_matches_reference_on_malformed_input(case):
    obj, ndim = case
    _assert_same_outcome(obj, ndim)


@_PROPERTY
@given(_one_bool_leaf())
def test_array_parser_refuses_a_boolean_among_numbers(case):
    obj, ndim = case
    _assert_same_outcome(obj, ndim)


@_PROPERTY
@given(arrays(np.complex128, array_shapes(min_dims=0, max_dims=3, max_side=3)))
def test_array_json_round_trip_is_exact(a):
    payload = array_to_json(a)
    assert json.dumps(payload) == json.dumps(_reference_to_json(a))
    back = array_from_json(json.loads(json.dumps(payload)), a.ndim)
    assert back.shape == a.shape
    assert _bits(back) == _bits(a)


def _bits(a):
    """The bytes of the real and imaginary parts, any NaN made the standard
    one (JSON's NaN keeps neither payload nor sign)."""
    parts = np.stack([a.real, a.imag])
    return np.where(np.isnan(parts), np.nan, parts).tobytes()


@pytest.mark.parametrize("cls", ["projective", "chain", "like-first", "like-second"])
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16))
def test_instance_json_text_round_trip(cls, seed):
    inst = random_instance(rng_for(63, seed), cls, dim_range=(2, 4))
    payload = instance_to_json(inst)
    back, _ = instance_from_json(json.loads(json.dumps(payload)))
    # operators and tables come back bit for bit; measures are factored anew
    again = instance_to_json(back)
    assert again["operators"] == payload["operators"]
    assert again["integrand"] == payload["integrand"]
    gap = schatten_norm(eval_moi(inst) - eval_moi(back), INF)
    assert gap <= 1e-12 * moi_scale(inst)


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("arity", [5, 6])
def test_like_instance_round_trip_beyond_arity_four(kind, arity):
    inst = random_instance(rng_for(65, arity), f"like-{kind}", dim_range=(2, 4), arity=arity)
    payload = instance_to_json(inst)
    back, _ = load_instance(io.StringIO(json.dumps(payload)))
    again = instance_to_json(back)
    assert again["operators"] == payload["operators"]
    assert again["integrand"] == payload["integrand"]
    gap = schatten_norm(eval_moi(inst) - eval_moi(back), INF)
    assert gap <= 1e-12 * moi_scale(inst)


# a width-0 bond makes the zero integrand, whose chain and chain-like tables
# have (n, 0, ...) shapes that no JSON list holds: the writer refuses them
_WIDTH_ZERO = [
    (HaagerupChainRep(np.zeros((1, 0)), (np.zeros((1, 0, 3)),), np.zeros((1, 3))), 1, (1, 0)),
    (HaagerupChainRep(np.ones((2, 2)), (np.ones((2, 2, 0)),), np.ones((2, 0))), 2, (2, 2, 0)),
    (HaagerupLikeRep("first", (np.ones((2, 1)), np.ones((2, 0)), np.ones((2, 1, 0)))), 2, (2, 0)),
]


@pytest.mark.parametrize("rep, factor, shape", _WIDTH_ZERO)
def test_writer_refuses_a_width_zero_table(rep, factor, shape):
    rng = rng_for(67, factor)
    measures = tuple(random_measure(rng, 3, len(t)) for t in rep.tables)
    inst = MoiInstance(measures, tuple(np.eye(3) for _ in measures[1:]), rep)
    assert not eval_moi(inst).any()
    message = (
        f"factor {factor} table has shape {shape}, a width-0 axis that a JSON list cannot hold;"
        f' write the zero integrand as {{"projective": {{"arity": {rep.arity}, "terms": []}}}}'
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        instance_to_json(inst)


@pytest.mark.parametrize("cls", _CLASSES)
@pytest.mark.parametrize("seed", range(6))
def test_written_instance_loads_back(cls, seed):
    """A seeded instance of widths 0 to 3 either loads back from the file
    instance_to_json writes, with the same integrand and value, or, when a
    chain or chain-like table has a width-0 axis, is refused by the writer."""
    inst = random_instance(rng_for(68, seed), cls, dim_range=(2, 5), width_range=(0, 3))
    rep = inst.integrand
    if not all(t.size for t in rep.tables):  # a projective integrand has none of width 0
        with pytest.raises(ValueError, match="width-0 axis"):
            instance_to_json(inst)
        return
    payload = instance_to_json(inst)
    back, _ = load_instance(io.StringIO(json.dumps(payload)))
    assert instance_to_json(back)["integrand"] == payload["integrand"]
    assert back.integrand.labels == rep.labels
    gap = schatten_norm(eval_moi(inst) - eval_moi(back), INF)
    assert gap <= 1e-12 * moi_scale(inst)


# --- diagonal chain middles and field checks ----------------------------------


def _mixed_chain(seed):
    """A chain mixing diagonal (n, L) and dense (n, L, L') middles."""
    rng = rng_for(64, seed)

    def crandom(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    middles = (crandom((4, 2)), crandom((2, 2, 3)), crandom((3, 3)), crandom((2, 3, 1)))
    return HaagerupChainRep(crandom((3, 2)), middles, crandom((2, 1)))


@pytest.mark.parametrize("seed", range(3))
def test_chain_with_diagonal_middles_round_trips_bit_exact(seed):
    rep = _mixed_chain(seed)
    payload = integrand_to_json(rep)
    middles = payload["haagerup"]["middles"]
    assert [isinstance(m, dict) for m in middles] == [True, False, True, False]
    assert middles[0] == {"diagonal": array_to_json(rep.middles[0])}
    back = integrand_from_json(json.loads(json.dumps(payload)))
    for a, b in zip((rep.head, *rep.middles, rep.tail), (back.head, *back.middles, back.tail)):
        assert a.shape == b.shape
        assert _bits(a) == _bits(b)


@pytest.mark.parametrize("value", [2, 2.0])
def test_integral_dim_is_accepted(value):
    e = measure_from_json({"dim": value, "atoms": [{"point": 0, "projection": np.eye(2).tolist()}]})
    assert e.dim == 2 and isinstance(e.dim, int)


@pytest.mark.parametrize("value", [2.7, "2", True, None, [2], math.nan])
def test_non_integral_dim_is_refused(value):
    atoms = [{"point": 0, "projection": np.eye(2).tolist()}]
    with pytest.raises(ValueError, match="dim must be"):
        measure_from_json({"dim": value, "atoms": atoms})


@pytest.mark.parametrize("value", [2.5, "2", True, [3], math.nan])
def test_non_integral_projective_arity_is_refused(value):
    for terms in ([], [[[1.0], [1.0], [1.0]]]):
        with pytest.raises(ValueError, match="arity must be"):
            integrand_from_json({"projective": {"terms": terms, "arity": value}})


def test_integral_projective_arity_is_accepted():
    assert integrand_from_json({"projective": {"terms": [], "arity": 3.0}}).arity == 3
    assert integrand_from_json({"projective": {"terms": [], "arity": 3}}).arity == 3


@pytest.mark.parametrize("value", [math.nan, -1e-8, math.inf, "1e-8", True])
def test_bad_merge_tol_is_refused(value):
    with pytest.raises(ValueError, match="merge_tol must be"):
        measure_from_json({"hermitian": np.diag([1.0, 2.0]).tolist(), "merge_tol": value})


@pytest.mark.parametrize("value", [-1, 0, -0.5, math.nan, True, None, [2]])
def test_bad_numeric_exponent_is_refused(value):
    with pytest.raises(ValueError):
        exponent_from_json(value)


# --- the loader that converts measure arrays while decoding ------------------

# small integers, and int64's ends with a few just past them
_EDGE_INTS = st.one_of(
    st.integers(-3, 3),
    st.integers(-_INT64 - 2, -_INT64 + 2),
    st.integers(_INT64 - 2, _INT64 + 2),
)
# Hermitian eigenvalues at int64's ends that stay distinct as floats
_EDGE_POINTS = [-_INT64, -1, 0, 2**53 + 1, _INT64 - 1]


def _leaf(draw, re, im, style):
    """An [re, im] leaf, or the plain number where im is 0 and the style
    allows it; an integral float may be written as an int."""
    if isinstance(re, float) and re.is_integer() and abs(re) < 2**53 and draw(st.booleans()):
        re = int(re)
    if im == 0 and (style == "real" or style == "mixed" and draw(st.booleans())):
        return re
    return [re, im]


def _restyle(draw, obj, style):
    """`obj` with every [re, im] leaf that array_to_json wrote rewritten by
    `_leaf`: only such a leaf is a list of two floats."""
    if isinstance(obj, dict):
        return {k: _restyle(draw, v, style) for k, v in obj.items()}
    if isinstance(obj, list):
        if len(obj) == 2 and all(type(x) is float for x in obj):
            return _leaf(draw, *obj, style)
        return [_restyle(draw, x, style) for x in obj]
    return obj


def _edge_measure(draw, dim, n, style):
    """A measure with n atoms on dim coordinates, the projections diagonal
    0/1 matrices, written explicitly or as a diagonal Hermitian matrix whose
    entries are integers at int64's ends."""
    labels = [min(j, n - 1) for j in range(dim)]
    if draw(st.booleans()):
        masks = [np.diag([float(lab == i) for lab in labels]) for i in range(n)]
        atoms = [
            {"point": float(i), "projection": _restyle(draw, array_to_json(m), style)}
            for i, m in enumerate(masks)
        ]
        return {"dim": dim, "atoms": atoms}
    distinct = st.lists(st.sampled_from(_EDGE_POINTS), min_size=n, max_size=n, unique=True)
    points = sorted(draw(distinct))
    rows = [[points[labels[j]] if j == k else 0 for k in range(dim)] for j in range(dim)]
    return {"hermitian": [[_leaf(draw, x, 0, style) for x in row] for row in rows]}


@st.composite
def _instance_payload(draw):
    """A valid instance file of any class. Its measures are written
    explicitly, as Hermitian matrices, or as 0/1 and int64-edge matrices;
    its operators are random or integers at int64's ends; its leaves are
    all pairs, all plain where real, or mixed."""
    cls = draw(st.sampled_from(_CLASSES))
    inst = random_instance(rng_for(67, draw(st.integers(0, 2**16))), cls, dim_range=(2, 3))
    style = draw(st.sampled_from(["pair", "real", "mixed"]))
    payload = _restyle(draw, instance_to_json(inst, {"p": 2.0, "q": math.inf}), style)
    for k, e in enumerate(inst.measures):
        form = draw(st.sampled_from(["explicit", "hermitian", "edge"]))
        if form == "hermitian":
            h = sum((i + 1) * p for i, p in enumerate(e.projections))
            payload["measures"][k] = {"hermitian": _restyle(draw, array_to_json(h), style)}
        elif form == "edge":
            payload["measures"][k] = _edge_measure(draw, e.dim, e.n_atoms, style)
    for k, t in enumerate(inst.operators):
        if draw(st.booleans()):
            payload["operators"][k] = [
                [_leaf(draw, draw(_EDGE_INTS), draw(st.one_of(st.just(0), _EDGE_INTS)), style)
                 for _ in row] for row in t
            ]
    return payload


def _plain_load(fh):
    return instance_from_json(json.load(fh))


def _load_outcome(load, payload):
    """What `load` makes of the file: every measure's points, basis and
    labels, the operators and the integrand's tables, bit for bit; or the
    class and message of its refusal."""
    return _handle_outcome(load, io.StringIO(json.dumps(payload)))


def _mapped_outcome(load, text, window):
    """`_handle_outcome` of `load` reading `text` from a file, which
    `load_instance` maps and walks with a first window of `window`
    characters."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "instance.json")
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(serialize, "WINDOW", window), open(path, encoding="utf-8") as fh:
            return _handle_outcome(load, fh)


def _walked_outcome(text, window):
    """`_mapped_outcome` of `load_instance` on `text`, and whether the walker
    took it, with no whole-text reading."""
    with mock.patch.object(serialize.json, "loads", wraps=json.loads) as whole:
        outcome = _mapped_outcome(load_instance, text, window)
    return outcome, not whole.called


def _handle_outcome(load, fh):
    """`_load_outcome` of what `load` reads from the handle `fh`."""
    try:
        inst, exponents = load(fh)
    except Exception as exc:
        return type(exc), str(exc)
    rep = inst.integrand
    if isinstance(rep, ProjectiveRep):
        tables = [rep.arity, *(f for term in rep.terms for f in term)]
    elif isinstance(rep, HaagerupChainRep):
        tables = [rep.head, *rep.middles, rep.tail]
    else:
        assert isinstance(rep, HaagerupLikeRep)
        tables = [rep.kind, *rep.tables]
    arrays = [
        *(x for e in inst.measures for x in (e.dim, e.points, e.basis, e.labels)),
        *inst.operators,
        *tables,
    ]
    bits = [(x.dtype, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x for x in arrays]
    return type(rep), bits, exponents


@_PROPERTY
@given(_instance_payload(), st.integers(1, 8))
def test_loader_matches_the_plain_reading_on_valid_files(payload, window):
    # read from a StringIO, and from a mapped file in windows that cut every
    # value but the shortest, which the walker takes all the same
    outcome = _load_outcome(load_instance, payload)
    assert outcome == _load_outcome(_plain_load, payload)
    assert not issubclass(outcome[0], Exception)
    assert _walked_outcome(json.dumps(payload), window) == (outcome, True)


def _measure_arrays(payload):
    """(object, key) of every "hermitian" and "projection" array."""
    for e in payload["measures"]:
        if "hermitian" in e:
            yield e, "hermitian"
        else:
            yield from ((atom, "projection") for atom in e["atoms"])


@st.composite
def _broken_payload(draw):
    """A valid file broken inside one measure array: a boolean, a string
    leaf, a ragged row, an empty axis or a wrong depth; or a valid array
    under a "projection" or "hermitian" key of an object that is not an
    atom or a measure."""
    payload = draw(_instance_payload())
    owner, key = draw(st.sampled_from(list(_measure_arrays(payload))))
    array = owner[key]
    how = draw(st.sampled_from(["bool", "string", "ragged", "empty", "depth", "elsewhere"]))
    if how == "depth":
        owner[key] = draw(st.sampled_from([[array], array[0], array[0][0]]))
    elif how == "elsewhere":
        elsewhere = {draw(st.sampled_from(["projection", "hermitian"])): array}
        places = ["exponents", "integrand", "point", "dim", "extra", "operators"]
        where = draw(st.sampled_from(places))
        if where == "exponents":
            payload["exponents"].update(elsewhere)
        elif where == "integrand":
            payload["integrand"] = elsewhere
        elif where == "operators":
            payload["operators"][0] = elsewhere
        elif where == "extra":  # ignored: both readings accept the file
            payload["extra"] = elsewhere
        else:
            payload["measures"][0] = {"dim": elsewhere, "atoms": [{"point": elsewhere}]}
    else:
        positions = list(_positions(array))
        if how in ("bool", "string"):
            numbers = [(parent, i) for parent, i in positions if not isinstance(parent[i], list)]
            parent, i = draw(st.sampled_from(numbers))
            parent[i] = draw(_bools) if how == "bool" else draw(st.sampled_from(["1", "x"]))
        else:
            rows = [(parent, i) for parent, i in positions if isinstance(parent[i], list)]
            parent, i = draw(st.sampled_from(rows))
            parent[i] = [] if how == "empty" else parent[i] + parent[i][:1]
    return payload


@_PROPERTY
@given(_broken_payload(), st.integers(1, 8))
def test_loader_refuses_as_the_plain_reading_does(payload, window):
    outcome = _load_outcome(_plain_load, payload)
    assert _load_outcome(load_instance, payload) == outcome
    assert _walked_outcome(json.dumps(payload), window) == (outcome, True)


# --- the mapped read ------------------------------------------------------------


def _instance_text():
    """A small chain instance, written by `instance_to_json` with indent=2."""
    inst = random_instance(rng_for(74), "chain", dim_range=(3, 3))
    return json.dumps(instance_to_json(inst, {"p": 2.0, "q": math.inf}), indent=2)


def _crlf(text):
    return text.replace("\n", "\r\n").encode()


def _cut_on_line_three(data):
    """A CRLF file cut two bytes short of the end of its third line."""
    return b"\r\n".join(data.split(b"\r\n")[:3])[:-2]


def _crlf_note():
    """A CRLF `_instance_text()` with a non-ASCII string on its second line."""
    note = '{\n  "note": "\u00e9t\u00e9",\n  "measures"'
    return _crlf(_edit(_instance_text(), '{\n  "measures"', note))


_FILES = {
    "plain": lambda: _instance_text().encode(),
    "crlf": lambda: _crlf(_instance_text()),
    "lone-cr": lambda: _instance_text().replace("\n", "\r").encode(),
    "crlf-cut-on-line-3": lambda: _cut_on_line_three(_crlf(_instance_text())),
    "crlf-note": _crlf_note,
    "crlf-note-cut-on-line-3": lambda: _cut_on_line_three(_crlf_note()),
    "empty": lambda: b"",
    "bom": lambda: b"\xef\xbb\xbf" + _instance_text().encode(),
    "invalid-start-byte": lambda: b'{"measures": \xff}',
    "truncated-multibyte": lambda: b'{"measures": "\xc3',
    "latin-1-text": lambda: '{"measures": "\xe9"}'.encode("latin-1"),
}


@pytest.mark.parametrize("name", sorted(_FILES))
@pytest.mark.parametrize(
    "opening",
    [
        lambda path: open(path, encoding="utf-8"),
        lambda path: open(path, encoding="UTF8", newline=""),
        lambda path: open(path, encoding="latin-1"),
        lambda path: open(path, encoding="utf-8", errors="replace"),
        lambda path: io.StringIO(path.read_bytes().decode("utf-8", "replace")),
    ],
    ids=["utf-8", "utf-8-untranslated", "latin-1", "utf-8-replace", "stringio"],
)
@pytest.mark.parametrize("ahead", [0, 1], ids=["at-start", "one-read"])
def test_loader_reads_a_handle_as_the_plain_reading_does(tmp_path, name, opening, ahead):
    path = tmp_path / "instance.json"
    path.write_bytes(_FILES[name]())
    outcomes = []
    for load in (load_instance, _plain_load):

        def read_ahead_then_load(fh, load=load):  # the read ahead may refuse too
            fh.read(ahead)
            return load(fh)

        with opening(path) as fh:
            outcomes.append(_handle_outcome(read_ahead_then_load, fh))
    assert outcomes[0] == outcomes[1]
    if (name, ahead) in (("plain", 0), ("crlf", 0), ("lone-cr", 0), ("crlf-note", 0)):
        assert not issubclass(outcomes[0][0], Exception)


@pytest.mark.parametrize(
    "name, opening, reads",
    [
        ("plain", lambda path: open(path, encoding="utf-8"), 0),
        ("crlf", lambda path: open(path, encoding="utf-8"), 0),
        ("lone-cr", lambda path: open(path, encoding="utf-8"), 0),
        ("crlf-cut-on-line-3", lambda path: open(path, encoding="utf-8"), 1),
        ("crlf-note", lambda path: open(path, encoding="utf-8"), 1),
        ("plain", lambda path: io.StringIO(path.read_text(encoding="utf-8")), 1),
    ],
)
def test_loader_maps_a_plain_file_and_reads_the_rest(tmp_path, name, opening, reads):
    # a \r is whitespace to the walk of the mapping; a file with a \r that
    # the walk does not take is then read through the handle, whose newline
    # translation the parse error positions count
    path = tmp_path / "instance.json"
    path.write_bytes(_FILES[name]())
    with opening(path) as fh:
        with mock.patch("mmap.mmap", wraps=mmap.mmap) as mapping, mock.patch.object(
            fh, "read", wraps=fh.read
        ) as read:
            _handle_outcome(load_instance, fh)  # a cut file is refused
    assert read.call_count == reads
    assert mapping.call_count == (0 if isinstance(fh, io.StringIO) else 1)


@pytest.mark.parametrize(
    "data, walks",
    [
        (lambda: _instance_text().encode()[:-2], 1),
        (lambda: _cut_on_line_three(_crlf(_instance_text())), 1),
        (lambda: _cut_on_line_three(_crlf_note()), 2),
    ],
    ids=["ascii-cut", "ascii-crlf-cut", "crlf-note-cut"],
)
def test_loader_walks_an_ascii_text_once_before_it_refuses_it(tmp_path, data, walks):
    # an ASCII text that failed its mapped walk fails the walk of its text
    # where the mapping failed, \r or not, so it goes straight to the plain
    # reading; only a text that no ASCII window held is walked again
    path = tmp_path / "instance.json"
    path.write_bytes(data())
    with open(path, encoding="utf-8") as fh:
        want = _handle_outcome(_plain_load, fh)
    tree = serialize._Walker.tree
    with mock.patch.object(serialize._Walker, "tree", autospec=True, side_effect=tree) as spy, (
        open(path, encoding="utf-8")
    ) as fh:
        got = _handle_outcome(load_instance, fh)
    assert spy.call_count == walks
    assert got == want and got[0] is json.JSONDecodeError and "(char " in got[1]


def _readme_instance() -> str:
    """The first instance-format example of the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Instance file format\n", 1)[1]
    return re.findall(r"```json\n(.*?)```", section, re.DOTALL)[0]


def test_loader_refuses_a_termless_projective_arity_before_it_sizes_anything(tmp_path):
    # the README example's three measures with a zero integrand of arity 10^7:
    # the arity is held to the measure count before the integrand is built
    payload = json.loads(_readme_instance())
    assert len(payload["measures"]) == 3
    payload["integrand"] = {"projective": {"arity": 10**7, "terms": []}}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as refusal:
            load_instance(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refusal.value) == "integrand arity 10000000 != 3 measures"
    assert peak < 2**20


@pytest.mark.parametrize("measures", [None, 3])
def test_loader_names_the_arity_of_one_factor_terms(measures):
    # terms of one factor are refused by their arity, as a given arity of 1
    # is: an 'arity' could not mend them; with no terms and no measure count
    # there is nothing to infer an arity from
    with pytest.raises(ValueError) as refusal:
        integrand_from_json({"projective": {"terms": [[[1, 1]]]}}, arity=measures)
    assert str(refusal.value) == "projective arity must be >= 2, got 1"
    with pytest.raises(ValueError) as refusal:
        integrand_from_json({"projective": {"terms": []}})
    assert str(refusal.value) == "cannot infer projective arity; provide 'arity'"


def test_loader_falls_back_to_the_plain_decoder_past_the_recursion_limit(tmp_path):
    # the walker's frames can take the walk past the recursion limit that the
    # plain decoder stays under; the file then loads through the plain one
    path = tmp_path / "instance.json"
    path.write_text(_readme_instance(), encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        want = _handle_outcome(load_instance, fh)
    with mock.patch.object(serialize._Walker, "walk", side_effect=RecursionError) as walk, (
        mock.patch.object(serialize.json, "loads", wraps=json.loads)
    ) as whole, open(path, encoding="utf-8") as fh:
        got = _handle_outcome(load_instance, fh)
    assert walk.called and whole.call_count == 1
    assert got == want and not issubclass(got[0], Exception)


def _edit(text, old, new):
    """`text` with its one `old` replaced by `new`."""
    assert text.count(old) == 1, old
    return text.replace(old, new)


_FIRST_OPERATOR = '"operators": [[[[1,0],[0,0]],[[0,0],[1,0]]]'
_OPERATORS = _FIRST_OPERATOR + ", [[[0,0],[1,0]],[[1,0],[0,0]]]],"


def _plain_loads(fh):
    """`_plain_load` at `load_instance`'s stack depth: `json.loads` called
    straight from the loader, as `load_instance`'s fallback calls it."""
    return instance_from_json(json.loads(fh.read()))


def _walker_loads(fh):
    """The loader's walk of the text of `fh`, at `load_instance`'s stack
    depth; a RecursionError where the walker leaves a valid text to the
    whole-text reading."""
    text = fh.read()
    tree = serialize._Walker(None, len(text), text).tree()
    if tree is None:
        raise RecursionError("the walker does not take the text")
    return instance_from_json(tree)


def test_loader_falls_back_to_the_plain_decoder_deep_inside_the_operators():
    # the walker's Python frames sit above the C scanner where the plain
    # decoder's top-level object and list do; at every depth near the plain
    # decoder's limit the file loads, or is refused, as the plain reading
    # does, the walker leaving the deepest to the whole-text reading
    def outcome(load, depth):
        nested = "[" * depth + "1" + "]" * depth
        text = _edit(_readme_instance(), _FIRST_OPERATOR, '"operators": [' + nested)
        return _handle_outcome(load, io.StringIO(text))

    lo, hi = 1, 4 * sys.getrecursionlimit()  # the least depth the plain decoder refuses
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if outcome(_plain_loads, mid)[0] is RecursionError else (mid + 1, hi)
    fell_back = []
    for depth in range(lo - 16, lo + 2):
        got = outcome(load_instance, depth)
        assert got == outcome(_plain_loads, depth), depth
        assert got[0] is (ValueError if depth < lo else RecursionError)  # an operator's depth
        fell_back.append(outcome(_walker_loads, depth)[0] is RecursionError)
    assert not all(fell_back)
    if sys.version_info < (3, 12):  # later, the C scanner has a recursion limit of its own
        assert all(fell_back[-2:])  # the walker leaves what the plain decoder refuses to it


# the README example broken in the top-level object, in its operator list or
# in one operator: the levels the loader walks in Python, and the operators
# it converts as they close
_TOP_LEVEL_EDITS = {
    "trailing-comma": lambda t: _edit(t, _OPERATORS, _OPERATORS[:-2] + ",],"),
    "missing-comma": lambda t: _edit(t, "]]], [[[", "]]] [[["),
    "missing-colon": lambda t: _edit(t, '"operators":', '"operators"'),
    "semicolon-for-colon": lambda t: _edit(t, '"operators":', '"operators";'),
    "bracket-for-last-brace": lambda t: t.rstrip()[:-1] + "]\n",
    "cut-short": lambda t: t[: t.index('"operators"') + 40],
    "non-string-key": lambda t: _edit(t, '"operators":', "5:"),
    "duplicate-list-last": lambda t: _edit(t, '"measures":', '"operators": 5, "measures":'),
    "duplicate-number-last": lambda t: _edit(t, '"integrand":', '"operators": 5, "integrand":'),
    "empty-operators": lambda t: _edit(t, _OPERATORS, '"operators": [],'),
    "top-level-list": lambda t: "[" + t + "]",
    "top-level-number": lambda t: "5",
    "nan": lambda t: _edit(t, '"operators": [[[[1,0]', '"operators": [[[[NaN,0]'),
    "infinity": lambda t: _edit(t, '"operators": [[[[1,0]', '"operators": [[[[Infinity,0]'),
    "boolean-leaf": lambda t: _edit(t, '"operators": [[[[1,0]', '"operators": [[[[true,0]'),
    "beyond-int64": lambda t: _edit(t, '"operators": [[[[1,0]', f'"operators": [[[[{2**64},0]'),
    "ragged": lambda t: _edit(t, '"operators": [[[[1,0],[0,0]]', '"operators": [[[[1,0]]'),
    "four-deep": lambda t: _edit(t, _FIRST_OPERATOR, '"operators": [[[[[1]]]]'),
    "measure-list": lambda t: '{"measures": [[[1, 2]]], ' + t[t.index('"operators"'):],
    # a measure the walk refuses, or that warns (here an error), stays an
    # object: the file is refused where and as the plain reading refuses it,
    # with no warning, and the last "measures" key is read
    "refused-measure": lambda t: _refuse_atom_one(t),
    "refused-measure-no-integrand": lambda t: _edit(_refuse_atom_one(t), '"integrand"', '"x"'),
    "refused-measure-cut-short": lambda t: _TOP_LEVEL_EDITS["cut-short"](_refuse_atom_one(t)),
    "refused-measure-duplicate-last": lambda t: '{"measures": [], ' + _refuse_atom_one(t)[1:],
    "overflowing-measure": lambda t: _overflow(t),
    "overflowing-measure-no-integrand": lambda t: _edit(_overflow(t), '"integrand"', '"x"'),
    "refused-measure-duplicate-first": lambda t: (
        _refuse_atom_one(t).rstrip()[:-1] + ', "measures": '
        + json.dumps(json.loads(t)["measures"]) + "}"
    ),
}


def _overflow(text):
    """The README example with its Hermitian matrix's entries at 1e308, whose
    symmetrized sum overflows."""
    old = '{"hermitian": [[[0,0],[1,0]],[[1,0],[0,0]]]'
    return _edit(text, old, old.replace("[1,0]", "[1e308,0]"))


def _refuse_atom_one(text):
    """The README example with atom 1 of its first measure scaled by 1 + 1e-6,
    which the measure refuses as no projection."""
    atom = '{"point": 1, "projection": [[[0,0],[0,0]],[[0,0],[1,0]]]}'
    return _edit(text, atom, atom.replace("[1,0]", "[1.000001,0]"))


@pytest.mark.parametrize("window", [None, 3], ids=["stringio", "mapped"])
@pytest.mark.parametrize("name", sorted(_TOP_LEVEL_EDITS))
def test_loader_refuses_the_top_level_as_the_plain_reading_does(name, window):
    # a JSONDecodeError's message ends with its position: (char N)
    text = _TOP_LEVEL_EDITS[name](_readme_instance())
    if window is None:
        got = _handle_outcome(load_instance, io.StringIO(text))
    else:
        got = _mapped_outcome(load_instance, text, window)
    assert got == _handle_outcome(_plain_load, io.StringIO(text))
    loads = ("duplicate-list-last", "beyond-int64", "refused-measure-duplicate-first")
    assert issubclass(got[0], Exception) == (name not in loads)
    if name == "measure-list":
        assert got == (ValueError, "measure must be an object, got a list of 1")
    if name in ("refused-measure", "refused-measure-duplicate-last"):
        assert got[1].startswith("atom 1 is not an orthogonal projection")
    if name == "overflowing-measure":
        assert got[0] is RuntimeWarning
    if name in ("refused-measure-no-integrand", "overflowing-measure-no-integrand"):
        assert got == (ValueError, "instance is missing 'integrand'")
    if name == "refused-measure-cut-short":
        assert got[0] is json.JSONDecodeError and re.search(r"\(char \d+\)$", got[1])


def _walked_tree(text, window):
    """The walker's tree of `text`, walked in place for a `window` of None,
    else from its bytes with a first window of `window` characters."""
    if window is None:
        return serialize._Walker(None, len(text), text).tree()
    data = memoryview(text.encode())
    with mock.patch.object(serialize, "WINDOW", window):
        return serialize._Walker(lambda a, b: str(data[a:b], "ascii"), len(data)).tree()


@pytest.mark.parametrize("window", [None, 2, 5], ids=["in-place", "mapped-2", "mapped-5"])
def test_walker_converts_each_operator_and_leaves_the_tables_lists(window):
    text = _readme_instance()
    tree = _walked_tree(text, window)
    want = json.loads(text)
    assert all(isinstance(t, np.ndarray) for t in tree["operators"])
    for got, plain in zip(tree["operators"], want["operators"]):
        assert got.tobytes() == array_from_json(plain, 2).tobytes()
    assert tree["integrand"] == want["integrand"]
    assert tree["exponents"] == want["exponents"]


def test_a_number_that_ends_at_a_window_edge_is_read_whole():
    # a scan stops where a number's text stops: "1.25e-7" cut as "1.25e-"
    # reads as 1.25; the walker takes no value that ends near its window's
    # edge, so across these window sizes each number ends at an edge and
    # is read whole
    text = _readme_instance().replace(
        '"exponents": {"p": 2, "q": "inf"}',
        '"exponents": {"p": 1.25e-7, "q": 300, "r": 2.5E+2, "s": 1.0, "t": 7}',
    )
    ends = {m.end() for m in re.finditer(r"1\.25e-7|300|2\.5E\+2|1\.0|7(?=})", text)}
    assert len(ends) == 5
    edges = set()
    walker = serialize._Walker

    def spy(read, length, window=""):
        def edge(a, b):
            edges.add(min(b, length))
            return read(a, b)

        return walker(edge, length, window)

    want = _handle_outcome(_plain_load, io.StringIO(text))
    assert want[2] == {"p": 1.25e-7, "q": 300.0, "r": 250.0, "s": 1.0, "t": 7.0}
    with mock.patch.object(serialize, "_Walker", spy):
        for window in range(1, 40):
            assert _mapped_outcome(load_instance, text, window) == want, window
    assert ends <= edges


@pytest.mark.parametrize("window", [2, 7, serialize.WINDOW])
def test_an_indented_file_is_walked_as_the_plain_reading_reads_it(window):
    text = _instance_text()
    assert "\n  " in text
    outcome = _handle_outcome(_plain_load, io.StringIO(text))
    assert not issubclass(outcome[0], Exception)
    assert _walked_outcome(text, window) == (outcome, True)


@pytest.mark.parametrize("window", [3, serialize.WINDOW])
def test_a_non_ascii_file_is_walked_from_its_decoded_text(window):
    # a window must be ASCII for its characters to be the file's bytes; the
    # text decoded from the mapping is walked in place instead
    text = _readme_instance().replace('"exponents"', '"note": "\u00e9t\u00e9", "exponents"')
    assert not text.isascii()
    outcome = _handle_outcome(_plain_load, io.StringIO(text))
    assert not issubclass(outcome[0], Exception)
    assert _walked_outcome(text, window) == (outcome, True)


# --- measures built as the walk closes them -----------------------------------


@pytest.mark.parametrize("window", [None, 3], ids=["in-place", "mapped-3"])
def test_walker_builds_only_the_top_level_measures(window):
    # measure-shaped objects under any other member, or under a "measures"
    # key below the top level, stay objects
    payload = json.loads(_readme_instance())
    payload["extra"] = payload["measures"]
    payload["exponents"]["measures"] = payload["measures"]
    tree = _walked_tree(json.dumps(payload), window)
    assert all(isinstance(e, FiniteSpectralMeasure) for e in tree["measures"])
    for held in (tree["extra"], tree["exponents"]["measures"]):
        assert all(type(e) is dict for e in held)
        assert isinstance(held[0]["atoms"][0]["projection"], np.ndarray)


@pytest.mark.parametrize("mapped", [False, True], ids=["stringio", "mapped"])
def test_loader_builds_every_measure_before_it_converts_an_operator(tmp_path, mapped):
    # each measure is built as the walk closes its object, so the tree holds
    # its stack and not its atoms' arrays beside it; the operators follow
    inst = random_instance(rng_for(76), "chain", dim_range=(4, 4), arity=3)
    payload = instance_to_json(inst)
    h = sum(i * p for i, p in enumerate(inst.measures[1].projections))
    payload["measures"][1] = {"hermitian": array_to_json(h)}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    operators = {np.asarray(t, dtype=np.complex128).tobytes() for t in inst.operators}
    events = []
    build, convert = serialize.measure_from_json, serialize._fast_array

    def built(obj):
        if isinstance(obj, dict):
            events.append("measure")
        return build(obj)

    def converted(obj, ndim):
        a = convert(obj, ndim)
        events.append("operator" if a is not None and a.tobytes() in operators else "array")
        return a

    with mock.patch.object(serialize, "measure_from_json", side_effect=built), mock.patch.object(
        serialize, "_fast_array", side_effect=converted
    ), (open(path, encoding="utf-8") if mapped else io.StringIO(path.read_text())) as fh:
        got = _handle_outcome(load_instance, fh)
    assert got == _handle_outcome(_plain_load, io.StringIO(path.read_text()))
    assert events.count("measure") == len(inst.measures)
    assert events.count("operator") == len(inst.operators)
    assert events.index("operator") > max(i for i, e in enumerate(events) if e == "measure")


# --- the collector is paused for the decode and restored --------------------


@pytest.mark.parametrize("mapped", [False, True], ids=["stringio", "mapped"])
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", ["loads", "syntax-error", "schema-refusal", "recursion-fallback"])
def test_loader_leaves_the_collector_as_it_found_it(tmp_path, enabled, case, mapped):
    refusals = {"syntax-error": "{not json", "schema-refusal": '{"measures": []}'}
    text = refusals.get(case, _readme_instance())
    path = tmp_path / "instance.json"
    path.write_text(text, encoding="utf-8")
    walked = []

    class Spy(serialize._Walker):
        def walk(self, *args):
            walked.append(gc.isenabled())
            if case == "recursion-fallback":
                raise RecursionError
            return super().walk(*args)

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with mock.patch.object(serialize, "_Walker", Spy), (
            open(path, encoding="utf-8") if mapped else io.StringIO(text)
        ) as fh:
            outcome = _handle_outcome(load_instance, fh)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is enabled
    assert walked and not any(walked)  # every walk runs with the collector paused
    assert issubclass(outcome[0], Exception) == (case in refusals)


def test_loader_frees_young_cycles_before_it_pauses_the_collector():
    # the decode runs with the collector off; a cycle a library caller left
    # just before the call is freed first rather than carried through the
    # decode
    class Node:
        pass

    seen = []
    walker = serialize._Walker

    def spy(*args, **kwargs):
        seen.append((gc.isenabled(), ref() is None))
        return walker(*args, **kwargs)

    text = _readme_instance()
    was = gc.isenabled()
    gc.enable()
    try:
        gc.collect()  # no automatic collection falls between the cycle and the call
        node = Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        with mock.patch.object(serialize, "_Walker", spy):
            load_instance(io.StringIO(text))
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [(False, True)]
    assert after


# --- the one-pass array conversion against the nested one ---------------------


def _reference_fast_array(obj, ndim):
    """The conversion the one-pass `_fast_array` replaced: one nested
    `np.asarray`, then a walk of the innermost lists for booleans."""
    try:
        a = np.asarray(obj)
    except ValueError:
        return None
    if a.dtype.kind in "iuf" and 0 not in a.shape:
        rows = [[obj]]
        for _ in range(a.ndim):
            rows = list(chain.from_iterable(rows))
        r, c = np.nonzero(((a == 0) | (a == 1)).reshape(len(rows), -1))
        if bool in map(type, map(getitem, map(rows.__getitem__, r.tolist()), c.tolist())):
            return None
        if a.ndim == ndim:
            return a.astype(np.complex128)
        if a.ndim == ndim + 1 and a.shape[-1] == 2:
            return np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)[..., 0]
    return None


# every leaf kind numpy reads alike or apart: booleans among numbers, int64's
# and uint64's ends and past them, a number beyond float range, signed zeros,
# strings numpy could read as numbers, null, objects, lists of other lengths;
# a string or an object of two entries, which `len` takes for a pair
_ODD_LEAVES = [
    True, False, 0, 1, -0.0, 0.0, 1.0, 2**63, 2**64, -(2**63), -(2**63) - 1, 10**400,
    float("nan"), float("inf"), "1", "x", "12", "", None, {"re": 1.0}, {"re": 1.0, "im": 2.0},
    [], [1.0], [1.0, 2.0, 3.0], [True, 1.0],
]


def _random_nested(rng):
    """(nested list, ndim): a full array of depth ndim or ndim + 1, axes
    1-3 long, of small numbers, sometimes broken at one place: an odd leaf,
    a ragged row, an empty row, or a leaf one deeper."""
    ndim = rng.randint(1, 3)
    shape = [rng.randint(1, 3) for _ in range(ndim + rng.randint(0, 1))]
    numbers = [lambda: rng.randint(-1, 2), lambda: rng.choice([-1.5, 0.0, 1.0, 2.0])][rng.randint(0, 1)]

    def build(axes):
        return numbers() if not axes else [build(axes[1:]) for _ in range(axes[0])]

    obj = build(shape)
    rows, row = [], obj
    while isinstance(row, list):
        rows.append(row)
        row = row[rng.randrange(len(row))] if row else None
    how = rng.choice(["none", "leaf", "leaf", "ragged", "empty", "deeper"])
    row = rng.choice(rows)
    i = rng.randrange(len(row))
    if how == "leaf":
        rows[-1][rng.randrange(len(rows[-1]))] = rng.choice(_ODD_LEAVES)
    elif how == "ragged":
        row.append(row[i])
    elif how == "empty":
        row[i] = []
    elif how == "deeper":
        row[i] = [row[i]]
    return obj, ndim


def test_one_pass_conversion_matches_the_nested_one():
    from moilab.serialize import _fast_array

    rng = random.Random(75)
    for _ in range(20_000):
        obj, ndim = _random_nested(rng)
        for n in {ndim - 1, ndim, ndim + 1} - {0}:
            new, old = _fast_array(obj, n), _reference_fast_array(obj, n)
            assert (new is None) == (old is None), (obj, n)
            if new is not None:
                assert (new.dtype, new.shape) == (old.dtype, old.shape)
                assert new.tobytes() == np.ascontiguousarray(old).tobytes(), (obj, n)


@pytest.mark.parametrize("leaf", [[1.0, 0.0], 1.0])
def test_a_converted_array_is_shown_as_the_list_it_came_from(leaf):
    from moilab.serialize import _shown, _Walker

    rows = [[leaf] * 3] * 4
    text = json.dumps({"atom": {"projection": rows}})
    converted = _Walker(None, len(text), text).tree()["atom"]
    assert isinstance(converted["projection"], np.ndarray)
    assert array_from_json(converted["projection"], 2) is converted["projection"]
    assert _shown(converted["projection"]) == _shown(rows) == "a list of 4"
    assert _shown(converted) == _shown({"projection": rows}) == "an object of 1 keys"


# --- the indent=2 writer -------------------------------------------------------

_SPECIAL = [-0.0, 0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, 1.0, 2.0**60, 0.1]


@pytest.mark.parametrize("shape", [(64, 64), (3, 5), (1, 1), (2,), (2, 3, 4), (0, 3)])
def test_array_text_is_json_dumps_indent_two(shape):
    rng = rng_for(68, len(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = a.reshape(-1)
    k = min(len(flat), len(_SPECIAL))
    flat.real[:k], flat.imag[:k] = _SPECIAL[:k], _SPECIAL[::-1][:k]
    payload = array_to_json(a)
    assert "-0.0" in json.dumps(payload) or not a.size
    assert array_to_json_text(a) == json.dumps(payload, indent=2)
    assert '{\n  "result": ' + array_to_json_text(a, 1) + "\n}" == json.dumps(
        {"result": payload}, indent=2
    )
    assert "[\n  [\n    " + array_to_json_text(a, 2) + "\n  ]\n]" == json.dumps(
        [[payload]], indent=2
    )
