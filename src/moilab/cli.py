"""Command-line entry point.

Subcommands:
  eval    evaluate one instance from a JSON file
  verify  run seeded randomized verification campaigns
  sweep   tabulate extremal-family growth ratios to CSV

Exit codes: 0 success, 1 verification failure, 2 input/config error or a
non-finite result, 3 resource cap exceeded or out of memory; only `main` and
the parser choose them, each with one stderr line. The MOI_MAX_TUPLES
environment variable (an integer >= 1) overrides the atomwise-oracle tuple cap.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .bounds import (
    RangeError,
    check_haagerup_like,
    check_haagerup_main,
    check_lemma_row,
    check_projective,
)
from .evaluate import (
    DEFAULT_TUPLE_CAP,
    CapExceededError,
    MoiInstance,
    duality_functional,
    eval_haagerup,
    eval_haagerup_block,
    eval_haagerup_like,
    eval_moi,
    eval_oracle,
    moi_scale,
)
from .integrands import (
    HaagerupChainRep,
    ProjectiveRep,
    embed_projective_in_haagerup,
    rep_norm_bound,
)
from .linalg import INF, check_exponent, schatten_norm
from .randominst import random_instance, rng_for
from .serialize import array_to_json_text, instance_to_json, load_instance
from .sharpness import (
    REGIMES,
    ConstructionCheckError,
    growth_sweep,
    sharp_r,
    sweep_csv,
)
from .spectral import integrate_scalar

# in-range Schatten pairs for the duality-defined integrals; the first-kind
# hypothesis is q >= 2, the second-kind p >= 2, both with 1/p + 1/q in [1/2, 1]
LIKE_PAIRS = {
    "first": ((2, 2), (2, 4), (4, 4), (2, INF), (1, INF), (4 / 3, 4), (2, 3)),
    "second": ((2, 2), (4, 2), (4, 4), (INF, 2), (INF, 1), (4, 4 / 3), (3, 2)),
}

# per-operator exponent tuples with sum of reciprocals <= 1
PROJECTIVE_EXPONENTS = {
    3: ((2, 2), (2, 4), (4, 2), (3, 3), (2, INF), (INF, INF), (1, INF), (4, 4)),
    4: ((3, 3, 3), (4, 4, 4), (2, 4, 4), (4, 4, 2), (2, INF, INF), (INF, INF, INF), (6, 6, 6)),
}


def _parse_int_list(text: str) -> list[int]:
    """Accept '2,3,4' or a range '2-6' or a single integer."""
    text = text.strip()
    if "-" in text and not text.startswith("-"):
        lo, hi = text.split("-", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_exponent(tok: str) -> float:
    tok = tok.strip().lower()
    if tok in ("inf", "infinity"):
        return INF
    return check_exponent(float(tok))


def _parse_s_token(tok: str, r: float) -> float:
    """An s value: a number, 'inf', 'r', '<a>r' (a times r), or 'r/<a>';
    each must be a Schatten exponent in (0, inf]."""
    tok = tok.strip().lower()
    if tok == "r":
        return r
    if tok.endswith("r") and tok != "r":
        return check_exponent(float(tok[:-1].rstrip("*")) * r)
    if tok.startswith("r/"):
        divisor = float(tok[2:])
        if divisor == 0.0:
            raise ValueError(f"s = {tok!r} divides by zero")
        return check_exponent(r / divisor)
    return _parse_exponent(tok)


def _tuple_cap() -> int:
    """The atomwise-oracle tuple cap: MOI_MAX_TUPLES if set, else the default."""
    text = os.environ.get("MOI_MAX_TUPLES")
    if text is None:
        return DEFAULT_TUPLE_CAP
    try:
        cap = int(text)
    except ValueError:
        raise ValueError(f"MOI_MAX_TUPLES must be an integer, got {text!r}") from None
    if cap < 1:
        raise ValueError(f"MOI_MAX_TUPLES must be >= 1, got {cap}")
    return cap


def _check_dir(path: str, what: str) -> None:
    """Refuse a missing directory before any work is done."""
    if not os.path.isdir(path):
        raise ValueError(f"{what} directory {path!r} does not exist")


def _check_out_path(path: str | None) -> None:
    if path:
        _check_dir(os.path.dirname(path) or ".", "output")
        if os.path.isdir(path):
            raise ValueError(f"output path {path!r} is a directory")


def _write_atomic(path: str, text: str) -> None:
    """Write text to a temporary file in path's directory, then move it into
    place with os.replace: a write that fails midway leaves any old file at
    path as it was and no temporary file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def _stage(label: str, errors: tuple = (ValueError,), kind: type = ValueError):
    """Re-raise an error of the block that is one of `errors` as a `kind`
    (a ValueError exits 2) whose message starts with label."""
    try:
        yield
    except errors as exc:
        raise kind(f"{label}: {exc}") from exc


def _emit(path: str | None, text: str) -> None:
    """Write text to the --out path, atomically, or to stdout without one."""
    if path:
        with _stage("cannot write output", (OSError,)):
            _write_atomic(path, text)
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    with _stage("invalid configuration"):
        cap = _tuple_cap()
        _check_out_path(args.out)
    unreadable = (OSError, ValueError, TypeError, KeyError, RecursionError)
    with _stage("cannot load instance", unreadable), open(args.instance, encoding="utf-8") as fh:
        inst, _ = load_instance(fh)
    # numpy stays silent on overflow: the non-finite result is refused below, in one line
    with np.errstate(over="ignore", invalid="ignore"):
        result = eval_oracle(inst, cap=cap) if args.oracle else eval_moi(inst)
    # the norms refuse a non-finite result, and json.dumps an overflowing
    # bound (Infinity is not JSON), before anything is written
    rest = json.dumps(
        {
            "schatten": {
                "1": schatten_norm(result, 1),
                "2": schatten_norm(result, 2),
                "inf": schatten_norm(result, INF),
            },
            "rep_norm_bound": rep_norm_bound(inst.integrand),
        },
        indent=2,
        allow_nan=False,
    )
    # the bytes of json.dumps({"result": ..., **rest}, indent=2): rest less its "{\n"
    _emit(args.out, '{\n  "result": ' + array_to_json_text(result, 1) + ",\n" + rest[2:] + "\n")
    return 0


def _relative_deviation(a: np.ndarray, b: np.ndarray, scale: float) -> float:
    return float(np.abs(a - b).max() / scale)


def _suite_oracle_equivalence(config, k):
    """All evaluation paths against the exhaustive atomwise sum."""
    rng = rng_for(config["seed"], 1, k)
    classes = ("projective", "chain", "like-first", "like-second")
    cls = classes[k % len(classes)]
    inst = random_instance(rng, cls, config["dim_range"], config["width_range"])
    scale = moi_scale(inst)
    reference = eval_oracle(inst, cap=config["cap"])
    values = [eval_moi(inst)]
    rep = inst.integrand
    if isinstance(rep, ProjectiveRep):
        embedded = embed_projective_in_haagerup(rep)
        values.append(eval_haagerup(MoiInstance(inst.measures, inst.operators, embedded)))
    if isinstance(rep, HaagerupChainRep) and inst.arity >= 3:
        values.append(eval_haagerup_block(inst))
    worst = max(_relative_deviation(v, reference, scale) for v in values)
    return worst, inst


def _suite_duality(config, k):
    """trace(W Q) against the defining functional, both kinds, arity 3 and 4."""
    rng = rng_for(config["seed"], 2, k)
    kind = ("first", "second")[k % 2]
    arity = (3, 4)[(k // 2) % 2]
    inst = random_instance(
        rng, f"like-{kind}", config["dim_range"], config["width_range"], arity=arity
    )
    w = eval_haagerup_like(inst)
    scale = moi_scale(inst)
    worst = 0.0
    for _ in range(config["duality_probes"]):
        q = rng.standard_normal((inst.dim, inst.dim)) + 1j * rng.standard_normal(
            (inst.dim, inst.dim)
        )
        denom = max(scale * schatten_norm(q, 1), 1e-12)
        gap = abs(complex(np.trace(w @ q)) - duality_functional(inst, q)) / denom
        worst = max(worst, gap)
    return worst, inst


def _suite_bound_projective(config, k):
    rng = rng_for(config["seed"], 3, k)
    arity = (3, 4)[k % 2]
    inst = random_instance(
        rng, "projective", config["dim_range"], config["width_range"], arity=arity
    )
    options = PROJECTIVE_EXPONENTS[arity]
    exps = options[int(rng.integers(len(options)))]
    report = check_projective(inst, exps, tol=config["tol"])
    return report.ratio, inst


def _suite_bound_haagerup(config, k):
    rng = rng_for(config["seed"], 4, k)
    arity = (3, 4)[k % 2]
    inst = random_instance(
        rng, "chain", config["dim_range"], config["width_range"], arity=arity
    )
    exps = config["exponents"]
    p = exps[int(rng.integers(len(exps)))]
    q = exps[int(rng.integers(len(exps)))]
    report = check_haagerup_main(inst, p, q, tol=config["tol"])
    return report.ratio, inst


def _suite_bound_like(config, k):
    rng = rng_for(config["seed"], 5, k)
    kind = ("first", "second")[k % 2]
    arity = (3, 4)[(k // 2) % 2]
    inst = random_instance(
        rng, f"like-{kind}", config["dim_range"], config["width_range"], arity=arity
    )
    pairs = LIKE_PAIRS[kind]
    p, q = pairs[int(rng.integers(len(pairs)))]
    report = check_haagerup_like(inst, p, q, tol=config["tol"])
    return report.ratio, inst


def _suite_lemma_row(config, k):
    """Row-matrix bound with blocks integrated from a sup-normalized head."""
    rng = rng_for(config["seed"], 6, k)
    inst = random_instance(rng, "chain", config["dim_range"], config["width_range"], arity=3)
    rep = inst.integrand
    sup = float(np.linalg.norm(rep.head, axis=1).max())
    head = rep.head / sup
    normalized = MoiInstance(
        inst.measures, inst.operators, HaagerupChainRep(head, rep.middles, rep.tail)
    )
    blocks = list(integrate_scalar(head, normalized.measures[0]))
    exps = config["exponents"]
    p = exps[int(rng.integers(len(exps)))]
    report = check_lemma_row(blocks, normalized.operators[0], p, tol=config["tol"])
    return report.ratio, normalized


SUITES = (
    ("oracle-equivalence", _suite_oracle_equivalence, "deviation"),
    ("duality", _suite_duality, "deviation"),
    ("bound-projective", _suite_bound_projective, "ratio"),
    ("bound-haagerup-main", _suite_bound_haagerup, "ratio"),
    ("bound-haagerup-like", _suite_bound_like, "ratio"),
    ("lemma-row", _suite_lemma_row, "ratio"),
)


def _worse(value: float, worst: float) -> bool:
    """Whether a trial's value replaces the worst so far; a NaN is worse than
    any number and is kept once seen, so it fails the suite's gate."""
    if math.isnan(worst):
        return False
    return math.isnan(value) or value > worst


def cmd_verify(args) -> int:
    with _stage("invalid configuration"):
        if args.seed < 0:
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        if args.trials < 1:
            raise ValueError(f"trials must be >= 1, got {args.trials}")
        dims = _parse_int_list(args.dims)
        widths = _parse_int_list(args.widths)
        if not dims or not widths:
            raise ValueError("dims and widths must be nonempty")
        if min(dims) < 1 or min(widths) < 1:
            raise ValueError("dims and widths must be >= 1")
        exponents = tuple(_parse_exponent(t) for t in args.exponents.split(",") if t.strip())
        if not exponents:
            raise ValueError("exponent set must be nonempty")
        for p in exponents:
            if p < 2.0:
                raise RangeError(
                    f"exponent {p} < 2 is outside the hypotheses of the chain and"
                    " row bounds; the extremal sweep explores that range instead"
                )
        tol = float(args.tol)
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"tolerance must be finite and >= 0, got {args.tol}")
        _check_dir(args.repro_dir, "repro")
        cap = _tuple_cap()
    config = {
        "seed": args.seed,
        "dim_range": (min(dims), max(dims)),
        "width_range": (min(widths), max(widths)),
        "exponents": exponents,
        "tol": tol,
        "duality_probes": 5,
        "cap": cap,
    }
    threshold = {"deviation": tol, "ratio": 1.0 + tol}
    print(f"verify: seed={args.seed} trials={args.trials}")
    print(f"{'suite':<22} {'trials':>6} {'worst':>18} pass")
    failures = []
    for name, run, metric in SUITES:
        worst = 0.0
        worst_trial, worst_inst = None, None
        for k in range(args.trials):
            with _stage(f"suite {name} trial {k}", (CapExceededError,), CapExceededError):
                value, inst = run(config, k)
            if worst_inst is None or _worse(value, worst):
                worst, worst_trial, worst_inst = value, k, inst
        ok = worst <= threshold[metric]
        print(f"{name:<22} {args.trials:>6} {worst:>18.12e} {'yes' if ok else 'NO'}")
        if not ok:
            path = os.path.join(
                args.repro_dir, f"moi-repro-{name}-seed{args.seed}-trial{worst_trial}.json"
            )
            with _stage("cannot write reproduction file", (OSError,)):
                _write_atomic(path, json.dumps(instance_to_json(worst_inst), indent=2) + "\n")
            failures.append((name, worst_trial, path))
    if failures:
        for name, trial, path in failures:
            print(
                f"verify: suite {name} failed at trial {trial}; instance dumped to {path}",
                file=sys.stderr,
            )
        print("verify: FAIL")
        return 1
    print("verify: PASS")
    return 0


def cmd_sweep(args) -> int:
    with _stage("invalid case"):
        _check_out_path(args.out)
        dims = _parse_int_list(args.dims)
        if not dims:
            raise ValueError("need a nonempty list of truncation dimensions")
        p1 = _parse_exponent(args.p1)
        pm1 = _parse_exponent(args.pm1)
        if args.regime not in REGIMES:
            raise ValueError(f"unknown regime {args.regime!r}; one of {REGIMES}")
        r = sharp_r(p1, pm1)
        s_values = [_parse_s_token(tok, r) for tok in args.s.split(",") if tok.strip()]
        if not s_values:
            raise ValueError("need at least one s value")
        rows = []
        for i, s in enumerate(s_values):
            # the cross-check does not depend on s: build it once per command
            rows.extend(
                growth_sweep(args.arity, args.regime, p1, pm1, dims, s, cross_check=i == 0)
            )
    _emit(args.out, sweep_csv(rows))
    return 0


class _Parser(argparse.ArgumentParser):
    """One line for a bad command line, without the usage; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moilab",
        description="evaluate multiple operator integrals, verify their Schatten "
        "norm bounds, and sweep the extremal families",
        epilog="exit codes: 0 success, 1 verification failure, 2 input/config "
        "error, 3 resource cap; MOI_MAX_TUPLES overrides the atomwise cap",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an instance from a JSON file")
    p_eval.add_argument("--instance", required=True, help="instance JSON path")
    p_eval.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_eval.add_argument(
        "--oracle", action="store_true", help="force the exhaustive atomwise sum"
    )
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run seeded verification campaigns")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--dims", default="2-6", help="ambient dimensions, e.g. 2-6 or 3,4")
    p_verify.add_argument("--widths", default="1-3", help="index widths, e.g. 1-3")
    p_verify.add_argument(
        "--exponents",
        default="2,3,4,inf",
        help="Schatten exponents for the chain and row bounds (each >= 2)",
    )
    p_verify.add_argument(
        "--tol", type=float, default=1e-9, help="gate tolerance, finite and >= 0"
    )
    p_verify.add_argument(
        "--repro-dir", default=".", help="directory for failure reproduction files"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="extremal-family growth table to CSV")
    p_sweep.add_argument("--regime", required=True, help="/".join(REGIMES))
    p_sweep.add_argument("--arity", type=int, default=3, choices=(3, 4))
    p_sweep.add_argument("--p1", required=True, help="exponent of the first operator")
    p_sweep.add_argument("--pm1", required=True, help="exponent of the last operator")
    p_sweep.add_argument(
        "--s",
        required=True,
        help="comma list of Schatten exponents; accepts r, 0.8r, r/2",
    )
    p_sweep.add_argument("--dims", required=True, help="ascending truncation sizes")
    p_sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


# the exit code of each error a command may end with; any other is a defect
EXIT_CODES = {ValueError: 2, CapExceededError: 3, MemoryError: 3, ConstructionCheckError: 1}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"{args.command}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
