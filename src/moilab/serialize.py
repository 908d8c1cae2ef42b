"""JSON forms of the domain objects.

Array leaves are complex scalars, read as a plain number (a real) or an
[re, im] pair, mixed freely, and written as pairs. A chain middle is a
nested list of depth 3, or {"diagonal": <(n, L) table>} for a diagonal
middle. Exponents serialize as numbers, with the string "inf" for infinity.
A number beyond float range (say an integer literal of 400 digits, or a
`dim` of 1e999) and a NaN or infinite atom point raise ValueError, and so
does any other value where an object belongs (a measure, an atom, an
integrand body, `exponents`), an integer field (`dim`, `arity`) that is not
integral, a projective `arity` that disagrees with its terms, a boolean
where a number belongs (an array leaf, an atom point), a `merge_tol` that is
not a finite number >= 0, and an exponent outside (0, inf]; non-finite array
entries are refused where the arrays are used.

`load_instance` reads an instance file as `instance_from_json(json.load(fh))`
does, holding less: the measure arrays, most of a file's bytes, are
converted inside the decoder as each atom or measure object closes, so one
array's nested lists are alive at a time next to the file text, not the
whole tree. Files keep their measures first, so the operators and tables
that follow are read as before. A file it refuses gets the plain reading's
error, word for word. `array_to_json_text` writes an array's `indent=2`
JSON form without Python's pure-Python encoder.
"""

from __future__ import annotations

import cmath
import json
import math
from functools import partial
from itertools import chain
from operator import getitem
from typing import NamedTuple

import numpy as np

from .evaluate import MoiInstance
from .integrands import HaagerupChainRep, HaagerupLikeRep, ProjectiveRep, _like_bonds
from .linalg import check_exponent
from .spectral import DEFAULT_MERGE_TOL, FiniteSpectralMeasure, from_hermitian


def _in_range(what: str, convert, *args):
    """`convert(*args)`, reporting a value beyond float range as a ValueError."""
    try:
        return convert(*args)
    except OverflowError:
        raise ValueError(f"{what} is out of range") from None


def _is_real(obj) -> bool:
    """A JSON number: an int or a float, not a boolean."""
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _number(what: str, obj) -> float:
    """A JSON number (not a boolean) as a float."""
    if not _is_real(obj):
        raise ValueError(f"{what} must be a number, got {obj!r}")
    return _in_range(what, float, obj)


def _integer(what: str, obj) -> int:
    """A JSON integer, or a float with an integral value such as 2.0 that
    older files may hold; strings, booleans and fractions are refused."""
    value = _number(what, obj)
    if math.isinf(value):
        raise ValueError(f"{what} is out of range")
    if not value.is_integer():
        raise ValueError(f"{what} must be an integer, got {obj!r}")
    return int(obj)


def _object(what: str, obj) -> dict:
    """`obj` if it is a JSON object, else a ValueError naming the field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    return obj


def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(obj) -> complex:
    if _is_real(obj):
        return _in_range("complex scalar", complex, obj)
    if isinstance(obj, list) and len(obj) == 2 and all(_is_real(x) for x in obj):
        return _in_range("complex scalar", complex, *obj)
    raise ValueError(f"not a complex scalar (number or [re, im]): {obj!r}")


def array_to_json(a: np.ndarray):
    """Nested lists with [re, im] leaves, any number of axes."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def array_to_json_text(a: np.ndarray, level: int = 0) -> str:
    """`json.dumps(array_to_json(a), indent=2)` as it reads nested `level`
    containers deep in a document. One layout per shape, built by string
    multiplication, takes every leaf's repr (JSON's form of a finite float)
    in one `%`. A non-finite entry is the caller's to refuse."""
    a = np.asarray(a, dtype=np.complex128)
    leaves = np.stack([a.real, a.imag], axis=-1)
    return _layout(leaves.shape, level) % tuple(leaves.ravel().tolist())


def _layout(shape: tuple, level: int) -> str:
    """The `indent=2` text of a nested list of `shape` at nesting `level`,
    with `%r` at each leaf."""
    if not shape:
        return "%r"
    if not shape[0]:
        return "[]"
    inner = _layout(shape[1:], level + 1)
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + (inner + "," + pad) * (shape[0] - 1) + inner + "\n" + "  " * level + "]"


def array_from_json(obj, ndim: int) -> np.ndarray:
    """Parse a nested list of depth `ndim`, as `json.load` returns it, whose
    leaves are real numbers or [re, im] pairs, into a complex128 array."""
    if isinstance(obj, _Parsed):
        return obj.array
    a = _fast_array(obj, ndim)
    return _array_walk(obj, ndim) if a is None else a


def _fast_array(obj, ndim: int) -> np.ndarray | None:
    """The array of a full nested list of numbers, or of [re, im] pairs, read
    with one `np.asarray`; None for anything else, which `_array_walk` decides."""
    try:
        a = np.asarray(obj)  # no dtype=: float would read the string "1" as 1.0
    except ValueError:  # ragged
        return None
    if a.dtype.kind in "iuf" and 0 not in a.shape and not _has_bool(obj, a):
        if a.ndim == ndim:
            return a.astype(np.complex128)
        if a.ndim == ndim + 1 and a.shape[-1] == 2:
            # complex128 is laid out as [re, im]; the view keeps every bit
            return np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)[..., 0]
    return None


def _has_bool(obj, a: np.ndarray) -> bool:
    """Whether a leaf is a JSON boolean, which `np.asarray` reads as 0 or 1
    among numbers: the leaves read as 0 or 1 are looked up in one flat list
    of the innermost lists, without a Python loop over the leaves."""
    rows = [[obj]]
    for _ in range(a.ndim):
        rows = list(chain.from_iterable(rows))
    r, c = np.nonzero(((a == 0) | (a == 1)).reshape(len(rows), -1))
    return bool in map(type, map(getitem, map(rows.__getitem__, r.tolist()), c.tolist()))


def _array_walk(obj, ndim: int) -> np.ndarray:
    """Leaf-by-leaf parse: decides mixed leaves, integers beyond int64 and
    malformed input, which one `np.asarray` cannot."""
    if ndim == 0:
        return np.asarray(complex_from_json(obj))
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"expected a non-empty array of depth {ndim}: {obj!r}")
    parts = [_array_walk(sub, ndim - 1) for sub in obj]
    shapes = {p.shape for p in parts}
    if len(shapes) != 1:
        raise ValueError("ragged array")
    return np.stack(parts)


def exponent_to_json(p: float):
    return "inf" if p == math.inf else p


def exponent_from_json(obj) -> float:
    if isinstance(obj, str):
        if obj.lower() in ("inf", "infinity"):
            return math.inf
        raise ValueError(f"unknown exponent string {obj!r}")
    if _is_real(obj):
        return check_exponent(_in_range("exponent", float, obj))
    raise ValueError(f"not an exponent: {obj!r}")


def measure_to_json(e: FiniteSpectralMeasure) -> dict:
    def point(x):
        z = complex(x)
        return z.real if z.imag == 0.0 else [z.real, z.imag]

    return {
        "dim": e.dim,
        "atoms": [
            {"point": point(x), "projection": array_to_json(p)}
            for x, p in zip(e.points, e.projections)
        ],
    }


def measure_from_json(obj) -> FiniteSpectralMeasure:
    _object("measure", obj)
    if "hermitian" in obj:
        merge_tol = _number("merge_tol", obj.get("merge_tol", DEFAULT_MERGE_TOL))
        return from_hermitian(array_from_json(obj["hermitian"], 2), merge_tol)
    if "atoms" not in obj or "dim" not in obj:
        raise ValueError("measure needs either 'hermitian' or 'dim' + 'atoms'")
    dim = _integer("dim", obj["dim"])
    points, projections = [], []
    for atom in obj["atoms"]:
        z = complex_from_json(_object("atom", atom)["point"])
        if not cmath.isfinite(z):
            raise ValueError(f"atom point is not finite: {atom['point']!r}")
        points.append(z.real if z.imag == 0.0 else z)
        projections.append(array_from_json(atom["projection"], 2))
    return FiniteSpectralMeasure(dim, tuple(points), tuple(projections))


def integrand_to_json(rep) -> dict:
    if isinstance(rep, ProjectiveRep):
        return {
            "projective": {
                "arity": rep.arity,
                "terms": [[array_to_json(f) for f in term] for term in rep.terms],
            }
        }
    if isinstance(rep, HaagerupChainRep):
        return {
            "haagerup": {
                "head": array_to_json(rep.head),
                "middles": [
                    array_to_json(m) if m.ndim == 3 else {"diagonal": array_to_json(m)}
                    for m in rep.middles
                ],
                "tail": array_to_json(rep.tail),
            }
        }
    if isinstance(rep, HaagerupLikeRep):
        return {
            "haagerup_like": {
                "kind": rep.kind,
                "tables": [array_to_json(t) for t in rep.tables],
            }
        }
    raise TypeError(f"not an integrand: {type(rep)!r}")


def integrand_from_json(obj, arity: int | None = None):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError("integrand must be a one-key object")
    (key, body), = obj.items()
    _object(f"{key} integrand", body)
    if key == "projective":
        terms = body.get("terms", [])
        given = body.get("arity")
        given = None if given is None else _integer("arity", given)
        if terms:
            m = len(terms[0])
            if given is not None and given != m:
                raise ValueError(f"projective arity {given} disagrees with {m}-factor terms")
        else:
            m = given or arity or 0
        if m < 2:
            raise ValueError("cannot infer projective arity; provide 'arity'")
        parsed = tuple(
            tuple(array_from_json(f, 1) for f in term) for term in terms
        )
        return ProjectiveRep(m, parsed)
    if key == "haagerup":
        head = array_from_json(body["head"], 2)
        middles = tuple(_middle_from_json(m) for m in body.get("middles", []))
        tail = array_from_json(body["tail"], 2)
        return HaagerupChainRep(head, middles, tail)
    if key == "haagerup_like":
        kind = body["kind"]
        tables = body["tables"]
        labels = _like_bonds(kind, len(tables))  # refuses before any array is parsed
        parsed = tuple(array_from_json(t, 1 + len(b)) for t, b in zip(tables, labels))
        return HaagerupLikeRep(kind, parsed)
    raise ValueError(f"unknown integrand class {key!r}")


def _middle_from_json(obj) -> np.ndarray:
    """A dense chain middle (depth-3 list) or {"diagonal": <(n, L) table>}."""
    if isinstance(obj, dict):
        if set(obj) != {"diagonal"}:
            raise ValueError(
                f'a middle object must be {{"diagonal": table}}, got keys {sorted(obj)}'
            )
        return array_from_json(obj["diagonal"], 2)
    return array_from_json(obj, 3)


def instance_to_json(inst: MoiInstance, exponents: dict | None = None) -> dict:
    out = {
        "measures": [measure_to_json(e) for e in inst.measures],
        "operators": [array_to_json(t) for t in inst.operators],
        "integrand": integrand_to_json(inst.integrand),
    }
    if exponents:
        out["exponents"] = {k: exponent_to_json(v) for k, v in exponents.items()}
    return out


class _Parsed(NamedTuple):
    """A measure array that `load_instance`'s decoder has converted already."""

    array: np.ndarray


# the keys whose value, in an atom or a measure, is one depth-2 array
_MEASURE_ARRAYS = {"projection": 2, "hermitian": 2}


def _decode_object(made: list, pairs: list) -> dict:
    """`json.load`'s object hook: a measure array of the object that just
    closed is converted now, its lists dropped and its marker added to
    `made`. It never raises: a value the fast path does not take stays a
    list, for `instance_from_json` to refuse in schema order."""
    for i, (key, value) in enumerate(pairs):
        ndim = _MEASURE_ARRAYS.get(key)
        if ndim is not None and isinstance(value, list):
            a = _fast_array(value, ndim)
            if a is not None:
                pairs[i] = key, _Parsed(a)
                made.append(pairs[i][1])
    return dict(pairs)


def _placed(obj) -> int:
    """The converted arrays where `instance_from_json` reads measure arrays
    or reads nothing: a measure's "hermitian", an atom's "projection"."""
    measures = obj.get("measures") if isinstance(obj, dict) else None
    if not isinstance(measures, list):
        return 0
    measures = [e for e in measures if isinstance(e, dict)]
    atoms = [
        a for e in measures if isinstance(e.get("atoms"), list)
        for a in e["atoms"] if isinstance(a, dict)
    ]
    return sum(isinstance(e.get("hermitian"), _Parsed) for e in measures) + sum(
        isinstance(a.get("projection"), _Parsed) for a in atoms
    )


def load_instance(fh) -> tuple[MoiInstance, dict | None]:
    """`instance_from_json(json.load(fh))`, converting the measure arrays as
    the decoder closes them."""
    text = fh.read()
    made = []
    try:
        obj = json.loads(text, object_pairs_hook=partial(_decode_object, made))
        # elsewhere ("exponents": {"projection": ...}) a converted array would
        # show in an error message: such a file is read plainly, so that it is
        # refused word for word as before
        plain = len(made) != _placed(obj)
    except RecursionError:  # the hook's frame can cross the limit the plain decoder stays under
        plain = True
    if plain:
        obj = json.loads(text)
    del text  # the file text is not held while the arrays are checked and factored
    return instance_from_json(obj)


def instance_from_json(obj) -> tuple[MoiInstance, dict | None]:
    if not isinstance(obj, dict):
        raise ValueError("instance must be a JSON object")
    for field in ("measures", "operators", "integrand"):
        if field not in obj:
            raise ValueError(f"instance is missing {field!r}")
    measures = tuple(measure_from_json(e) for e in obj["measures"])
    operators = tuple(array_from_json(t, 2) for t in obj["operators"])
    integrand = integrand_from_json(obj["integrand"], arity=len(measures))
    inst = MoiInstance(measures, operators, integrand)
    exponents = None
    if "exponents" in obj:
        exponents = _object("exponents", obj["exponents"])
        exponents = {k: exponent_from_json(v) for k, v in exponents.items()}
    return inst, exponents
