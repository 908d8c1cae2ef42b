"""JSON round trips for matrices, measures, integrands, and instances."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from moilab.evaluate import eval_moi, moi_scale
from moilab.linalg import operator_norm
from moilab.randominst import random_instance, rng_for
from moilab.serialize import (
    array_from_json,
    array_to_json,
    complex_from_json,
    complex_to_json,
    exponent_from_json,
    exponent_to_json,
    instance_from_json,
    instance_to_json,
    integrand_from_json,
    integrand_to_json,
    measure_from_json,
    measure_to_json,
)
from moilab.spectral import from_hermitian, validate_spectral_measure


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
    assert validate_spectral_measure(back).ok


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


def _reference_complex(obj):
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(
        isinstance(x, (int, float)) for x in obj
    ):
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
    "bool": st.one_of(_bools, _pairs(_bools)),
    "wide": st.one_of(_numbers, _pairs(_numbers)),
}
_bad_leaves = st.one_of(
    st.sampled_from(["", "1", "1.5", "nan", "x"]),  # strings numpy could read as numbers
    st.none(),
    st.dictionaries(st.sampled_from(["re", "im"]), _numbers, max_size=1),
    st.lists(_numbers, min_size=3, max_size=3),
    st.lists(_numbers, min_size=0, max_size=1),
    st.just([[1.0, 2.0], [3.0, 4.0]]),
)


@st.composite
def _well_formed(draw):
    """(nested list, ndim) of a full array: ndim 1-3, axes 1-3 long."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    leaf = _LEAVES[draw(st.sampled_from(sorted(_LEAVES)))]

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
    """A well-formed array broken at one place, or read at the wrong depth."""
    obj, ndim = draw(_well_formed())
    how = draw(st.sampled_from(["empty", "ragged", "leaf", "depth", "top"]))
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
