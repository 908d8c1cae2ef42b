"""JSON round trips for matrices, measures, integrands, and instances."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from moilab.evaluate import eval_moi, moi_scale
from moilab.integrands import HaagerupChainRep, HaagerupLikeRep, ProjectiveRep
from moilab.linalg import operator_norm
from moilab.randominst import random_instance, rng_for
from moilab.serialize import (
    array_from_json,
    array_to_json,
    array_to_json_text,
    complex_from_json,
    complex_to_json,
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
from moilab.spectral import MEASURE_TOL, from_hermitian


def test_complex_pair_round_trip():
    assert complex_to_json(1 - 2j) == [1.0, -2.0]
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
        assert operator_norm(p - q) < 1e-12
    u, labels = back.basis, back.labels
    assert operator_norm(u.conj().T @ u - np.eye(back.dim)) <= MEASURE_TOL
    for i, q in enumerate(back.projections):
        cols = u[:, labels == i]
        assert operator_norm(q - cols @ cols.conj().T) <= MEASURE_TOL
    assert len(set(back.points)) == back.n_atoms


def test_measure_from_hermitian_form():
    payload = {"hermitian": [[1.0, 0.0], [0.0, 2.0]], "merge_tol": 1e-8}
    e = measure_from_json(payload)
    assert e.n_atoms == 2
    with pytest.raises(ValueError):
        measure_from_json({"dim": 2})


@pytest.mark.parametrize(
    "cls", ["projective", "chain", "like-first", "like-second"]
)
def test_instance_round_trip_preserves_value(cls):
    inst = random_instance(rng_for(62, hash(cls) % 100), cls, dim_range=(2, 4))
    back, exponents = instance_from_json(instance_to_json(inst, {"p": 2.0, "q": math.inf}))
    assert exponents == {"p": 2.0, "q": math.inf}
    gap = operator_norm(eval_moi(inst) - eval_moi(back))
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


def _reference_complex(obj):
    if _is_number(obj):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(_is_number(x) for x in obj):
        return complex(obj[0], obj[1])
    raise ValueError(f"not a complex scalar (number or [re, im]): {obj!r}")


def _reference_parse(obj, ndim):
    if ndim == 0:
        return np.asarray(_reference_complex(obj))
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"expected a non-empty array of depth {ndim}: {obj!r}")
    parts = [_reference_parse(sub, ndim - 1) for sub in obj]
    shapes = {p.shape for p in parts}
    if len(shapes) != 1:
        raise ValueError("ragged array")
    return np.stack(parts)


def _reference_to_json(a):
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 0:
        return complex_to_json(a[()])
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
    gap = operator_norm(eval_moi(inst) - eval_moi(back))
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
    gap = operator_norm(eval_moi(inst) - eval_moi(back))
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

_CLASSES = ["projective", "chain", "like-first", "like-second"]
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
    try:
        inst, exponents = load(io.StringIO(json.dumps(payload)))
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
@given(_instance_payload())
def test_loader_matches_the_plain_reading_on_valid_files(payload):
    outcome = _load_outcome(load_instance, payload)
    assert outcome == _load_outcome(_plain_load, payload)
    assert not issubclass(outcome[0], Exception)


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
@given(_broken_payload())
def test_loader_refuses_as_the_plain_reading_does(payload):
    assert _load_outcome(load_instance, payload) == _load_outcome(_plain_load, payload)


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
