"""JSON forms of the domain objects.

Complex scalars serialize as two-element [re, im] arrays; plain numbers are
accepted on input as reals. Exponents serialize as numbers, with the string
"inf" for infinity.
"""

from __future__ import annotations

import math

import numpy as np

from .evaluate import MoiInstance
from .integrands import HaagerupChainRep, HaagerupLikeRep, ProjectiveRep
from .spectral import DEFAULT_MERGE_TOL, FiniteSpectralMeasure, from_hermitian


def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(
        isinstance(x, (int, float)) for x in obj
    ):
        return complex(obj[0], obj[1])
    raise ValueError(f"not a complex scalar (number or [re, im]): {obj!r}")


def array_to_json(a: np.ndarray):
    """Nested lists with [re, im] leaves, any number of axes."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 0:
        return complex_to_json(a[()])
    return [array_to_json(sub) for sub in a]


def array_from_json(obj, ndim: int) -> np.ndarray:
    """Parse a nested list with [re, im] (or real number) leaves."""
    if ndim == 0:
        return np.asarray(complex_from_json(obj))
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"expected a non-empty array of depth {ndim}: {obj!r}")
    parts = [array_from_json(sub, ndim - 1) for sub in obj]
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
    if isinstance(obj, (int, float)):
        return float(obj)
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
    if not isinstance(obj, dict):
        raise ValueError(f"measure must be an object, got {obj!r}")
    if "hermitian" in obj:
        merge_tol = float(obj.get("merge_tol", DEFAULT_MERGE_TOL))
        return from_hermitian(array_from_json(obj["hermitian"], 2), merge_tol)
    if "atoms" not in obj or "dim" not in obj:
        raise ValueError("measure needs either 'hermitian' or 'dim' + 'atoms'")
    dim = int(obj["dim"])
    points, projections = [], []
    for atom in obj["atoms"]:
        z = complex_from_json(atom["point"])
        points.append(z.real if z.imag == 0.0 else z)
        projections.append(array_from_json(atom["projection"], 2))
    measure = FiniteSpectralMeasure(dim, tuple(points), tuple(projections))
    measure.basis  # factoring validates the atoms; raises ValueError if invalid
    return measure


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
                "middles": [array_to_json(m) for m in rep.middles],
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


# table axis counts per slot for the chain-like kinds
_LIKE_NDIMS = {
    ("first", 3): (2, 2, 3),
    ("second", 3): (3, 2, 2),
    ("first", 4): (2, 2, 3, 3),
    ("second", 4): (3, 3, 2, 2),
}


def integrand_from_json(obj, arity: int | None = None):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError("integrand must be a one-key object")
    (key, body), = obj.items()
    if key == "projective":
        terms = body.get("terms", [])
        if terms:
            m = len(terms[0])
        else:
            m = int(body.get("arity") or arity or 0)
        if m < 2:
            raise ValueError("cannot infer projective arity; provide 'arity'")
        parsed = tuple(
            tuple(array_from_json(f, 1) for f in term) for term in terms
        )
        return ProjectiveRep(m, parsed)
    if key == "haagerup":
        head = array_from_json(body["head"], 2)
        middles = tuple(array_from_json(m, 3) for m in body.get("middles", []))
        tail = array_from_json(body["tail"], 2)
        return HaagerupChainRep(head, middles, tail)
    if key == "haagerup_like":
        kind = body["kind"]
        tables = body["tables"]
        ndims = _LIKE_NDIMS.get((kind, len(tables)))
        if ndims is None:
            raise ValueError(f"unsupported chain-like kind/arity: {kind}/{len(tables)}")
        parsed = tuple(array_from_json(t, n) for t, n in zip(tables, ndims))
        return HaagerupLikeRep(kind, parsed)
    raise ValueError(f"unknown integrand class {key!r}")


def instance_to_json(inst: MoiInstance, exponents: dict | None = None) -> dict:
    out = {
        "measures": [measure_to_json(e) for e in inst.measures],
        "operators": [array_to_json(t) for t in inst.operators],
        "integrand": integrand_to_json(inst.integrand),
    }
    if exponents:
        out["exponents"] = {k: exponent_to_json(v) for k, v in exponents.items()}
    return out


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
        exponents = {
            k: exponent_from_json(v) for k, v in obj["exponents"].items()
        }
    return inst, exponents
