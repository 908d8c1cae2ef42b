"""The three benchmark workloads: seeded inputs, references and per-item
correctness gates.

Each `setup_*(seed, workdir)` returns a cycle of passes: successive
timed passes run its item lists in turn. An item is one `moilab` command
line plus a gate that judges its exit code and output. The program sees only the generated command lines and files; the
references are computed here, during setup, by paths independent of the
one the command takes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from moilab import cli
from moilab.evaluate import (
    MoiInstance,
    duality_functional,
    eval_haagerup,
    eval_haagerup_block,
    moi_scale,
)
from moilab.integrands import embed_projective_in_haagerup
from moilab.linalg import schatten_norm
from moilab.randominst import (
    random_chain_rep,
    random_like_rep,
    random_measure,
    random_operator,
    random_projective_rep,
    rng_for,
)
from moilab.sharpness import sharp_r


@dataclass
class Item:
    """One command line; `check(exit_code, stdout)` returns None when the
    output is correct and a one-line reason otherwise. `out_path` is removed
    before each run, so a stale output file is never judged."""

    argv: list[str]
    check: Callable[[int, str], str | None]
    bytes_in: int = 0
    out_path: str | None = None


# --- verify-campaign --------------------------------------------------------

VERIFY_CAMPAIGNS = 4  # campaigns per pass, each 6 suites x 50 trials
# passes in the cycle, each with campaigns of its own: the program draws each
# trial's sizes from the campaign seed, so a run's median averages the work of
# many campaigns instead of carrying the luck of four
VERIFY_PASSES = 16


def _check_verify(code: int, out: str) -> str | None:
    lines = out.strip().splitlines()
    if code != 0 or not lines or lines[-1] != "verify: PASS":
        return f"verify exit {code}, last line {lines[-1] if lines else ''!r}"
    return None


def setup_verify(seed: int, workdir: str) -> list[list[Item]]:
    per_seed = VERIFY_PASSES * VERIFY_CAMPAIGNS
    passes = []
    for p in range(VERIFY_PASSES):
        items = []
        for k in range(VERIFY_CAMPAIGNS):
            argv = [
                "verify",
                "--seed", str(seed * per_seed + p * VERIFY_CAMPAIGNS + k),
                "--dims", "2-8",
                "--widths", "1-4",
                "--repro-dir", workdir,
            ]
            items.append(Item(argv, _check_verify))
        passes.append(items)
    # warm-up, unjudged and the same for every seed: lazy library set-up is
    # paid here and not in the first timed pass
    run_command(["verify", "--seed", "0", "--trials", "4", "--dims", "2-8",
                 "--widths", "1-4", "--repro-dir", workdir])
    return passes


# --- construction-sweep -----------------------------------------------------

# (regime, p1, pm1): exponents consistent with each regime's hypotheses
SWEEP_FAMILIES = (
    ("both-large", 4.0, 4.0),
    ("both-small", 1.0, 1.5),
    ("mixed-large-small", 3.0, 1.0),
    ("mixed-small-large", 1.0, 6.0),
)
SWEEP_ARITIES = (3, 4)
SWEEP_S = "r,0.8r,r/2"
SWEEP_DIMS = (64, 256, 1024, 4096)
RATIO_TOL = 1e-9


def _sweep_check(r: float) -> Callable[[int, str], str | None]:
    expected_s = (r, 0.8 * r, r / 2)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"sweep exit {code}"
        lines = out.strip().splitlines()
        if not lines or lines[0] != "n,s,p1,pm1,lhs,rhs,ratio":
            return "sweep: missing CSV header"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        k = len(SWEEP_DIMS)
        if len(rows) != k * len(expected_s):
            return f"sweep: {len(rows)} rows, expected {k * len(expected_s)}"
        for g, s in enumerate(expected_s):
            group = rows[g * k : (g + 1) * k]
            if [int(row[0]) for row in group] != list(SWEEP_DIMS):
                return f"sweep: n column {[row[0] for row in group]} at s={s}"
            if any(abs(row[1] - s) > RATIO_TOL * s for row in group):
                return f"sweep: s column differs from {s}"
            ratios = [row[6] for row in group]
            if g == 0:
                worst = max(abs(x - 1.0) for x in ratios)
                if worst > RATIO_TOL:
                    return f"sweep: ratio at s=r is off 1 by {worst:.3e}"
            elif any(b < a for a, b in zip(ratios, ratios[1:])):
                return f"sweep: ratio decreases in n at s={s}: {ratios}"
        return None

    return check


def setup_sweep(seed: int, workdir: str) -> list[list[Item]]:
    """Seed-independent by construction: the families are fixed."""
    items = []
    for arity in SWEEP_ARITIES:
        for regime, p1, pm1 in SWEEP_FAMILIES:
            argv = [
                "sweep",
                "--regime", regime,
                "--arity", str(arity),
                "--p1", repr(p1),
                "--pm1", repr(pm1),
                "--s", SWEEP_S,
            ]
            items.append(
                Item(argv + ["--dims", ",".join(map(str, SWEEP_DIMS))],
                     _sweep_check(sharp_r(p1, pm1)))
            )
    # warm-up, unjudged: one n=64 cross-check, so the first timed pass does
    # not pay for first-touch of its large blocks
    run_command(["sweep", "--regime", "both-large", "--arity", "4", "--p1", "4",
                 "--pm1", "4", "--s", "r", "--dims", "64"])
    return [items]


# --- eval-file --------------------------------------------------------------

EVAL_CLASSES = ("projective", "chain", "like-first", "like-second")
EVAL_DIM = 64
EVAL_ATOMS = 8  # atoms per measure, fixed so that the seed changes values, not work
EVAL_WIDTH = 4
EVAL_ARITY = 4
DUALITY_PROBES = 2
EVAL_TOL = 1e-10


def _cjson(a) -> list:
    """A complex array as nested lists with [re, im] leaves."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _measure_json(e, hermitian: bool) -> dict:
    """Half the measures go to the file as one Hermitian matrix
    sum_i i * P_i, the other half as explicit atoms."""
    if hermitian:
        return {"hermitian": _cjson(sum(i * p for i, p in enumerate(e.projections)))}
    return {
        "dim": e.dim,
        "atoms": [
            {"point": float(i), "projection": _cjson(p)}
            for i, p in enumerate(e.projections)
        ],
    }


def _integrand_json(cls: str, rep) -> dict:
    if cls == "projective":
        terms = [[_cjson(f) for f in term] for term in rep.terms]
        return {"projective": {"arity": rep.arity, "terms": terms}}
    if cls == "chain":
        return {
            "haagerup": {
                "head": _cjson(rep.head),
                "middles": [_cjson(m) for m in rep.middles],
                "tail": _cjson(rep.tail),
            }
        }
    return {"haagerup_like": {"kind": rep.kind, "tables": [_cjson(t) for t in rep.tables]}}


def read_result(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        a = np.asarray(json.load(fh)["result"], dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _matrix_check(out_path: str, reference: np.ndarray, tol: float):
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"eval exit {code}"
        w = read_result(out_path)
        if w.shape != reference.shape:
            return f"eval: result shape {w.shape} != {reference.shape}"
        err = float(np.abs(w - reference).max())
        if not err <= tol:
            return f"eval: deviation {err:.3e} from the reference exceeds {tol:.3e}"
        return None

    return check


def _duality_check(out_path: str, probes, values, tols):
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"eval exit {code}"
        w = read_result(out_path)
        for q, value, tol in zip(probes, values, tols):
            gap = abs(complex(np.sum(w * q.T)) - value)
            if not gap <= tol:
                return f"eval: trace(WQ) misses the duality functional by {gap:.3e} > {tol:.3e}"
        return None

    return check


def eval_instance(seed: int, cls: str) -> MoiInstance:
    rng = rng_for(seed, EVAL_CLASSES.index(cls))
    measures = tuple(
        random_measure(rng, EVAL_DIM, EVAL_ATOMS) for _ in range(EVAL_ARITY)
    )
    operators = tuple(random_operator(rng, EVAL_DIM) for _ in range(EVAL_ARITY - 1))
    counts = [e.n_atoms for e in measures]
    widths = [EVAL_WIDTH] * (EVAL_ARITY - 1)
    if cls == "projective":
        rep = random_projective_rep(rng, counts, EVAL_WIDTH)
    elif cls == "chain":
        rep = random_chain_rep(rng, counts, widths)
    else:
        rep = random_like_rep(rng, cls.split("-")[1], counts, widths)
    return MoiInstance(measures, operators, rep)


def setup_eval(seed: int, workdir: str) -> list[list[Item]]:
    """Write one instance file per class and compute its reference: the
    embedded chain for projective, the block path for chain, and the
    duality functional at random probes for chain-like."""
    items = []
    for cls in EVAL_CLASSES:
        inst = eval_instance(seed, cls)
        payload = {
            "measures": [_measure_json(e, i % 2 == 0) for i, e in enumerate(inst.measures)],
            "operators": [_cjson(t) for t in inst.operators],
            "integrand": _integrand_json(cls, inst.integrand),
        }
        path = os.path.join(workdir, f"{cls}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))
        out_path = os.path.join(workdir, f"{cls}.out.json")
        argv = ["eval", "--instance", path, "--out", out_path]
        scale = moi_scale(inst)
        if cls == "projective":
            embedded = embed_projective_in_haagerup(inst.integrand)
            ref = eval_haagerup(MoiInstance(inst.measures, inst.operators, embedded))
            check = _matrix_check(out_path, ref, EVAL_TOL * scale)
        elif cls == "chain":
            ref = eval_haagerup_block(inst)
            check = _matrix_check(out_path, ref, EVAL_TOL * scale)
        else:
            rng = rng_for(seed, len(EVAL_CLASSES), EVAL_CLASSES.index(cls))
            probes = [
                rng.standard_normal((EVAL_DIM, EVAL_DIM))
                + 1j * rng.standard_normal((EVAL_DIM, EVAL_DIM))
                for _ in range(DUALITY_PROBES)
            ]
            values = [duality_functional(inst, q) for q in probes]
            tols = [EVAL_TOL * scale * schatten_norm(q, 1) for q in probes]
            check = _duality_check(out_path, probes, values, tols)
        items.append(Item(argv, check, os.path.getsize(path), out_path))
    return [items]


# --- shared -----------------------------------------------------------------


def run_command(argv: list[str]) -> tuple[int, str]:
    """`moilab <argv>` in this process: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class Workload(NamedTuple):
    setup: Callable[[int, str], list[list[Item]]]
    kernel: str  # the calibration kernel of its kind of work (speed.KERNELS)
    processes: int  # fresh processes the timed passes are spread over


# BENCHMARK.json and README.md say why each workload exists. A pass of the
# sweep takes longer than a run measures, so its one pass gets one process.
WORKLOADS = {
    "verify-campaign": Workload(setup_verify, "python", 3),
    "construction-sweep": Workload(setup_sweep, "contraction", 1),
    "eval-file": Workload(setup_eval, "python", 3),
}
