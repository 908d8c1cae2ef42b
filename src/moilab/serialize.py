"""JSON forms of the domain objects.

Array leaves are complex scalars, read as a plain number (a real) or an
[re, im] pair, mixed freely, and written as pairs. A chain middle is a
nested list of depth 3, or {"diagonal": <(n, L) table>} for a diagonal
middle. Exponents serialize as numbers, with the string "inf" for infinity.
A number beyond float range (say an integer literal of 400 digits, or a
`dim` of 1e999) and a NaN or infinite atom point raise ValueError, and so
does any other value where an object belongs (a measure, an atom, an
integrand body, `exponents`) or a list belongs (`measures`, `operators`,
`atoms`, `middles`, `tables`, `terms` and each term), an integer field
(`dim`, `arity`) that is not integral, a projective `arity` below 2 or one
that disagrees with its terms (or, given no terms, with the instance's
measure count, which is checked before the arity sizes anything), a boolean
where a number belongs (an array leaf, an atom point), a `merge_tol` that is
not a finite number >= 0, and an exponent outside (0, inf]; non-finite array
entries are refused where the arrays are used. A refusal shows a list or an
object by its kind and length (`a list of 64`, `an object of 1 keys`) and
any other value by a repr cut short (`got 5`, `got 'abc'`).

`load_instance` reads an instance file as
`instance_from_json(json.load(fh))` does, holding less: it walks the file,
reading each array, key and scalar from a window of about one array's text,
converts each "projection" and "hermitian" array, most of a file's bytes, as
it reads the member, builds each measure as the walk closes it, freeing its
atoms' arrays, and converts each operator as it reads it; only the
integrand's tables are read as before. A file no walk takes is read once by
the plain `json.loads`, and a converted array is shown as the list it came
from, so a refusal is the plain reading's, word for word and in its order.
Each array is flattened to one list of its leaves and converted by one
`np.asarray`. `load_instance`'s docstring says which handles it maps
read-only and which it reads as text, and how it pauses the cyclic garbage
collector, process-wide, for the decode and restores it.
`array_to_json_text` writes an array's `indent=2` JSON form without
Python's pure-Python encoder.
"""

from __future__ import annotations

import cmath
import codecs
import contextlib
import gc
import io
import json
import math
import mmap
import os
import reprlib
import stat
from itertools import chain

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


def _shown(obj) -> str:
    """A file value as a refusal shows it: a list, or the array the walker
    converted from one, and an object by kind and length, so no message
    holds a whole array; anything else by a repr cut short."""
    if isinstance(obj, (list, np.ndarray)):
        return f"a list of {len(obj)}"
    if isinstance(obj, dict):
        return f"an object of {len(obj)} keys"
    return reprlib.repr(obj)


def _is_real(obj) -> bool:
    """A JSON number: an int or a float, not a boolean."""
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _number(what: str, obj) -> float:
    """A JSON number (not a boolean) as a float."""
    if not _is_real(obj):
        raise ValueError(f"{what} must be a number, got {_shown(obj)}")
    return _in_range(what, float, obj)


def _integer(what: str, obj) -> int:
    """A JSON integer, or a float with an integral value such as 2.0 that
    older files may hold; strings, booleans and fractions are refused."""
    value = _number(what, obj)
    if math.isinf(value):
        raise ValueError(f"{what} is out of range")
    if not value.is_integer():
        raise ValueError(f"{what} must be an integer, got {_shown(obj)}")
    return int(obj)


def _object(what: str, obj) -> dict:
    """`obj` if it is a JSON object, else a ValueError naming the field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {_shown(obj)}")
    return obj


def _list(what: str, obj) -> list:
    """`obj` if it is a JSON list, else a ValueError naming the field."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a list, got {_shown(obj)}")
    return obj


def _field(owner: str, obj: dict, key: str):
    """obj[key], else a ValueError naming the key and its owner."""
    if key not in obj:
        raise ValueError(f"{owner} is missing {key!r}")
    return obj[key]


def complex_from_json(obj) -> complex:
    if _is_real(obj):
        return _in_range("complex scalar", complex, obj)
    if isinstance(obj, list) and len(obj) == 2 and all(_is_real(x) for x in obj):
        return _in_range("complex scalar", complex, *obj)
    raise ValueError(f"not a complex scalar (number or [re, im]): {_shown(obj)}")


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
    leaves are real numbers or [re, im] pairs, into a complex128 array. An
    array, which only `load_instance`'s walker puts in a tree, is returned
    as it is."""
    if isinstance(obj, np.ndarray):
        return obj
    a = _fast_array(obj, ndim)
    return _array_walk(obj, ndim) if a is None else a


def _fast_array(obj, ndim: int) -> np.ndarray | None:
    """The array of a full nested list of numbers, or of [re, im] pairs, read
    in one pass: the lists are flattened a level at a time, each level of
    one nonzero length, and the leaves converted by one `np.asarray`; None
    for anything else, which `_array_walk` decides. A string or an object
    among the lists flattens to strings, which `np.asarray` reads as text."""
    shape, leaves = [], [obj]
    for _ in range(ndim + 1):
        try:
            lengths = set(map(len, leaves))
        except TypeError:  # a number, a boolean or null: the leaves are reached
            break
        if len(lengths) != 1 or 0 in lengths:  # ragged or empty
            return None
        shape += lengths
        leaves = list(chain.from_iterable(leaves))
    try:
        a = np.asarray(leaves)  # no dtype=: float would read the string "1" as 1.0
    except ValueError:  # a list among the leaves
        return None
    if a.ndim != 1 or a.dtype.kind not in "iuf":
        return None
    # a JSON boolean reads as 0 or 1 among numbers: look those leaves up
    if bool in map(type, map(leaves.__getitem__, np.flatnonzero((a == 0) | (a == 1)).tolist())):
        return None
    if len(shape) == ndim:
        return a.astype(np.complex128).reshape(shape)
    if len(shape) == ndim + 1 and shape[-1] == 2:
        # complex128 is laid out as [re, im]; the view keeps every bit
        return a.astype(np.float64, copy=False).view(np.complex128).reshape(shape[:-1])
    return None


def _array_walk(obj, ndim: int, depth: int = 0) -> np.ndarray:
    """Leaf-by-leaf parse: decides mixed leaves, integers beyond int64 and
    malformed input, which one `np.asarray` cannot. `depth` counts the axes
    above `obj`; a leaf that holds more axes is refused by its depth."""
    if ndim == 0:
        extra = _axes(obj)
        if extra:
            raise ValueError(f"expected depth {depth}, got {depth + extra}")
        return np.asarray(complex_from_json(obj))
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"expected a non-empty array of depth {ndim}: {_shown(obj)}")
    parts = [_array_walk(sub, ndim - 1, depth + 1) for sub in obj]
    shapes = {p.shape for p in parts}
    if len(shapes) != 1:
        raise ValueError("ragged array")
    return np.stack(parts)


def _axes(obj) -> int:
    """The axes a value holds down its first entries, an [re, im] pair (two
    entries, neither a list) being a leaf: 0 for a number or a pair."""
    axes = 0
    while isinstance(obj, list) and (len(obj) != 2 or any(isinstance(x, list) for x in obj)):
        axes += 1
        obj = obj[0] if obj else None
    return axes


def exponent_to_json(p: float):
    return "inf" if p == math.inf else p


def exponent_from_json(obj) -> float:
    if isinstance(obj, str):
        if obj.lower() in ("inf", "infinity"):
            return math.inf
        raise ValueError(f"unknown exponent string {_shown(obj)}")
    if _is_real(obj):
        return check_exponent(_in_range("exponent", float, obj))
    raise ValueError(f"not an exponent: {_shown(obj)}")


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
    """The measure of a file object; a measure the walker built, as it is."""
    if isinstance(obj, FiniteSpectralMeasure):
        return obj
    _object("measure", obj)
    if "hermitian" in obj:
        merge_tol = _number("merge_tol", obj.get("merge_tol", DEFAULT_MERGE_TOL))
        return from_hermitian(array_from_json(obj["hermitian"], 2), merge_tol)
    if "atoms" not in obj or "dim" not in obj:
        raise ValueError("measure needs either 'hermitian' or 'dim' + 'atoms'")
    dim = _integer("dim", obj["dim"])
    points, projections = [], []
    for atom in _list("atoms", obj["atoms"]):
        point = _field("atom", _object("atom", atom), "point")
        z = complex_from_json(point)
        if not cmath.isfinite(z):
            raise ValueError(f"atom point is not finite: {point!r}")
        points.append(z.real if z.imag == 0.0 else z)
        projections.append(array_from_json(_field("atom", atom, "projection"), 2))
    return FiniteSpectralMeasure(dim, tuple(points), tuple(projections))


def integrand_to_json(rep) -> dict:
    """The file form of an integrand. A chain or chain-like table with a
    width-0 axis is refused: no JSON list holds its shape."""
    if isinstance(rep, ProjectiveRep):
        return {
            "projective": {
                "arity": rep.arity,
                "terms": [[array_to_json(f) for f in term] for term in rep.terms],
            }
        }
    if not isinstance(rep, (HaagerupChainRep, HaagerupLikeRep)):
        raise TypeError(f"not an integrand: {type(rep)!r}")
    for i, t in enumerate(rep.tables):
        if not t.size:
            raise ValueError(
                f"factor {i + 1} table has shape {t.shape}, a width-0 axis that a JSON list cannot"
                f' hold; write the zero integrand as {{"projective": {{"arity": {rep.arity},'
                ' "terms": []}}'
            )
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
    return {"haagerup_like": {"kind": rep.kind, "tables": [array_to_json(t) for t in rep.tables]}}


def integrand_from_json(obj, arity: int | None = None):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError("integrand must be a one-key object")
    (key, body), = obj.items()
    _object(f"{key} integrand", body)
    if key == "projective":
        terms = [_list("term", t) for t in _list("terms", body.get("terms", []))]
        m = len(terms[0]) if terms else arity or 0
        given = body.get("arity")
        if given is None and not terms and m < 2:
            raise ValueError("cannot infer projective arity; provide 'arity'")
        given = m if given is None else _integer("arity", given)  # a given arity is used as given
        if given < 2:
            raise ValueError(f"projective arity must be >= 2, got {_shown(given)}")
        if terms and given != m:
            raise ValueError(f"projective arity {_shown(given)} disagrees with {m}-factor terms")
        if not terms and arity is not None and given != arity:  # before it sizes anything
            raise ValueError(f"integrand arity {_shown(given)} != {arity} measures")
        parsed = tuple(
            tuple(array_from_json(f, 1) for f in term) for term in terms
        )
        return ProjectiveRep(given, parsed)
    if key == "haagerup":
        head = array_from_json(_field("haagerup integrand", body, "head"), 2)
        middles = _list("middles", body.get("middles", []))
        middles = tuple(_middle_from_json(m, i) for i, m in enumerate(middles))
        tail = array_from_json(_field("haagerup integrand", body, "tail"), 2)
        return HaagerupChainRep(head, middles, tail)
    if key == "haagerup_like":
        kind = _field("haagerup_like integrand", body, "kind")
        if not isinstance(kind, str):
            raise ValueError(f"kind must be a string, got {_shown(kind)}")
        tables = _list("tables", _field("haagerup_like integrand", body, "tables"))
        labels = _like_bonds(kind, len(tables))  # refuses before any array is parsed
        parsed = tuple(array_from_json(t, 1 + len(b)) for t, b in zip(tables, labels))
        return HaagerupLikeRep(kind, parsed)
    raise ValueError(f"unknown integrand class {_shown(key)}")


def _middle_from_json(obj, i: int) -> np.ndarray:
    """Chain middle i: a dense (n, L, L') table (depth-3 list) or
    {"diagonal": <(n, L) table>}. Anything else is refused in one message
    that names the middle and both forms."""
    try:
        if not isinstance(obj, dict):
            return array_from_json(obj, 3)
        if set(obj) != {"diagonal"}:
            raise ValueError(f"got an object with keys {reprlib.repr(sorted(obj))}")
        return array_from_json(obj["diagonal"], 2)
    except ValueError as exc:
        raise ValueError(
            f"middles[{i}] must be an (n, L, L') list of depth 3 or"
            f' {{"diagonal": <(n, L) list>}}: {exc}'
        ) from exc


def instance_to_json(inst: MoiInstance, exponents: dict | None = None) -> dict:
    out = {
        "measures": [measure_to_json(e) for e in inst.measures],
        "operators": [array_to_json(t) for t in inst.operators],
        "integrand": integrand_to_json(inst.integrand),
    }
    if exponents:
        out["exponents"] = {k: exponent_to_json(v) for k, v in exponents.items()}
    return out


WINDOW = 2**20  # characters in the window of the first array `_Walker` reads


class _Walker:
    """A walk of a text of `length` characters, `read(a, b)` from a to b, to
    the tree `json.loads(text)` builds, with each list value of a
    "projection" or "hermitian" member, and each list in a top-level member
    list, converted by `_fast_array(value, 2)` as it is read when it is a
    full array of numbers, and each object of the top-level "measures" list
    built by `measure_from_json` as it closes; one that refuses or warns is
    left for `instance_from_json` to build in its order. Objects, top-level
    member lists and lists of objects are walked in Python; the C scanner
    reads each other value from a window taken at it, or from a `window`
    that holds the whole text. An array's window is WINDOW long at first and
    then the last array's length and an eighth, a key's or a scalar's 64
    characters; a value must end 3 characters inside it, the most a number's
    scan reads past it ("1e-5" cut as "1e-"), or the window reach the end,
    else the window doubles. A class, not closures: a closure that calls
    itself is a cycle, which the paused collector would leave holding the
    last window."""

    def __init__(self, read, length: int, window: str = ""):
        self.read, self.length, self.base, self.window = read, length, 0, window
        self.size, self.small = WINDOW, min(WINDOW, 64)
        self.scan = json.JSONDecoder().scan_once

    def tree(self):
        """The tree, or None for a text the walker does not take."""
        try:
            pos, c = self.at(0)
            tree, pos = self.walk(pos, c, 0) if c == "{" else (None, pos)
            return None if self.at(pos)[1] else tree
        except (StopIteration, ValueError, RecursionError):
            return None

    def at(self, pos):
        """(position, character) of the first non-space at or after pos."""
        while True:
            i = json.decoder.WHITESPACE.match(self.window, pos - self.base).end()
            if i < len(self.window) or self.base + i == self.length:
                return self.base + i, self.window[i : i + 1]  # "" at the end
            pos = self.base = self.base + i
            self.window = self.read(pos, pos + self.small)

    def value(self, pos, want):
        """(value, end) of the value at pos, read by the C scanner."""
        while True:
            if pos < self.base or pos + want > self.base + len(self.window) < self.length:
                self.base, self.window = pos, self.read(pos, pos + want)
            whole = self.base + len(self.window) == self.length
            try:
                obj, end = self.scan(self.window, pos - self.base)
                if whole or end + 3 <= len(self.window):
                    return obj, self.base + end
            except (StopIteration, ValueError):
                if whole:
                    raise
            want = 2 * (self.base + len(self.window) - pos)

    def walk(self, pos, c, depth, member=None):
        """(value, end) of the value at pos, whose first character is c,
        `depth` containers deep, under the key `member` of its object."""
        if c not in ("{", "[") or c == "[" and depth != 1 and self.at(pos + 1)[1] != "{":
            obj, end = self.value(pos, self.size if c == "[" else self.small)
            if c == "[":
                self.size = end - pos + (end - pos >> 3)
            return obj, end
        close, out, key = "}" if c == "{" else "]", [], None
        pos, c = self.at(pos + 1)
        while out or c != close:
            if close == "}":
                key, pos = self.value(pos, self.small)
                pos, c = self.at(pos)
                if type(key) is not str or c != ":":
                    raise ValueError("not a key")
                pos, c = self.at(pos + 1)
            obj, pos = self.walk(pos, c, depth + 1, key)
            if key is None and depth == 1 and member == "measures" and type(obj) is dict:
                with contextlib.suppress(ValueError, FloatingPointError), np.errstate(all="raise"):
                    obj = measure_from_json(obj)
            elif key is None and depth == 1 or key in ("projection", "hermitian"):
                a = _fast_array(obj, 2) if isinstance(obj, list) else None
                obj = obj if a is None else a
            out.append(obj if key is None else (key, obj))
            pos, c = self.at(pos)
            if c != ",":
                break
            pos, c = self.at(pos + 1)
        if c != close:
            raise ValueError("not a comma")
        return (dict(out) if close == "}" else out), pos + 1


def load_instance(fh) -> tuple[MoiInstance, dict | None]:
    """`instance_from_json(json.load(fh))`, converting the measure arrays
    and the operators as they are read and building each measure as it closes.

    A regular, non-empty file opened as strict UTF-8 and not yet read from
    is mapped read-only and walked by `_Walker`, each window a `str` of an
    ASCII slice of the mapping, so no more than about one array's text is
    alive; a carriage return is whitespace to the walk, as to text mode's
    newline, and `fh` is left at its start. A walk fails on a window that
    is not ASCII, any JSON error, unexpected punctuation or the recursion
    limit. After a failed walk, its text is decoded from the mapping, or
    read with `fh.read()` if it holds a carriage return (a newline to text
    mode, and so to a parse error's position), and walked in place only if
    not ASCII, since an ASCII text fails where the mapping did.
    Any other handle (a pipe, a `StringIO`, another encoding or error mode,
    one read from already) is read with `fh.read()` and walked in place.
    A text no walk takes is read once by the plain `json.loads`,
    called from this frame: its tree or refusal, words and `char N`, is the
    plain reading's. On Python 3.12 and later the C scanner's recursion
    limit counts its own levels, and each operator reaches it alone, so an
    operator nested within two levels of that limit is refused by its depth
    (`expected depth 2, got N`) where the plain reading raises
    RecursionError; `eval` exits 2 on both. The mapping stays open for the
    walk: a file truncated by another process meanwhile may end the process
    with SIGBUS, as under any mapped read; a file replaced by a rename, as
    `eval --out` writes one, is safe. The file is decoded with the cyclic
    garbage collector paused, after one young collection, and the collector
    is enabled again, raise or return, only if it was enabled; the pause is
    process-wide, so a `gc.disable()` another thread makes during a decode
    is undone when the decode ends.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.collect(0)  # the pause carries no young garbage a caller left just before
        gc.disable()  # the walker's lists make no cycle for the collector to find
    try:
        tree = text = None
        if (
            isinstance(fh, io.TextIOWrapper)
            and codecs.lookup(fh.encoding).name == "utf-8"
            and fh.errors == "strict"
            and fh.seekable()
            and fh.tell() == 0
        ):
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode) and info.st_size:
                with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapping:
                    with memoryview(mapping) as view:
                        tree = _Walker(lambda a, b: str(view[a:b], "ascii"), len(view)).tree()
                    if tree is None:  # the text a text-mode read gives, which turns \r to \n
                        text = fh.read() if mapping.find(b"\r") >= 0 else str(mapping, "utf-8")
                if text is not None and not text.isascii():  # an ASCII text failed the walk
                    tree = _Walker(None, len(text), text).tree()
        if tree is None and text is None:
            text = fh.read()
            tree = _Walker(None, len(text), text).tree()
        if tree is None:
            tree = json.loads(text)
    finally:
        if enabled:
            gc.enable()
    del text  # the file text is not held while the arrays are checked and factored
    return instance_from_json(tree)


def instance_from_json(obj) -> tuple[MoiInstance, dict | None]:
    """The instance and exponents of a file's tree, its measures built or not."""
    if not isinstance(obj, dict):
        raise ValueError("instance must be a JSON object")
    for field in ("measures", "operators", "integrand"):
        _field("instance", obj, field)
    measures = tuple(measure_from_json(e) for e in _list("measures", obj["measures"]))
    operators = tuple(array_from_json(t, 2) for t in _list("operators", obj["operators"]))
    integrand = integrand_from_json(obj["integrand"], arity=len(measures))
    inst = MoiInstance(measures, operators, integrand)
    exponents = None
    if "exponents" in obj:
        exponents = _object("exponents", obj["exponents"])
        exponents = {k: exponent_from_json(v) for k, v in exponents.items()}
    return inst, exponents
