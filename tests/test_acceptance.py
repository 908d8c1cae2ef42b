"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np

from moilab.bounds import check_haagerup_like, check_haagerup_main, check_lemma_row
from moilab.evaluate import (
    MoiInstance,
    duality_functional,
    eval_haagerup,
    eval_haagerup_block,
    eval_haagerup_like,
    eval_moi,
    eval_oracle,
    eval_projective,
    moi_scale,
)
from moilab.integrands import (
    HaagerupChainRep,
    ProjectiveRep,
    embed_projective_in_haagerup,
    eval_pointwise,
)
from moilab.linalg import INF, adjoint, operator_norm, random_unitary, schatten_norm
from moilab.randominst import random_instance, random_row_blocks, rng_for
from moilab.serialize import instance_to_json
from moilab.sharpness import build_construction, default_case, growth_sweep, sharp_r
from moilab.spectral import FiniteSpectralMeasure

MASTER_SEED = 20240901
REL_TOL = 1e-9

# growth factors ratio(n=4096) / ratio(n=64) at s = 0.8 r, computed from the
# closed-form diagonals before wiring (pinned at 1%); see the sweep tests for
# the independent series recomputation
FROZEN_GROWTH_FACTORS = {
    (3, "mixed-large-small", 4.0, 2.0): 1.17226970788,
    (3, "both-small", 2.0, 2.0): 1.23605194865,
    (4, "both-large", 4.0, 4.0): 1.11177873188,
}


def _passed(number, label):
    print(f"acceptance criterion {number} ({label}): PASS")


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    classes = ("projective", "chain", "like-first", "like-second")
    worst = 0.0
    for k in range(500):
        cls = classes[k % 4]
        rng = rng_for(MASTER_SEED, 1, k)
        if cls in ("projective", "chain"):
            arity = 2 + (k // 4) % 3
        else:
            arity = 3 + (k // 4) % 2
        inst = random_instance(rng, cls, dim_range=(2, 6), width_range=(1, 3), arity=arity)
        scale = moi_scale(inst)
        reference = eval_oracle(inst)
        values = [eval_moi(inst)]
        rep = inst.integrand
        if isinstance(rep, ProjectiveRep):
            chain_inst = MoiInstance(
                inst.measures, inst.operators, embed_projective_in_haagerup(rep)
            )
            values.append(eval_haagerup(chain_inst))
            if inst.arity >= 3:
                values.append(eval_haagerup_block(chain_inst))
        if isinstance(rep, HaagerupChainRep):
            if inst.arity >= 3:
                values.append(eval_haagerup_block(inst))
            else:  # the dense table psi as the chain with head psi and tail I
                table = np.einsum("il,jl->ij", rep.head, rep.tail)
                schur = HaagerupChainRep(table, (), np.eye(inst.measures[1].n_atoms))
                values.append(eval_moi(MoiInstance(inst.measures, inst.operators, schur)))
        for value in values:
            worst = max(worst, operator_norm(value - reference) / scale)
    elapsed = time.monotonic() - start
    assert worst <= REL_TOL, f"worst path deviation {worst:.3e}"
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _passed(1, f"oracle equivalence, 500 instances, worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_duality_consistency():
    worst = 0.0
    for k in range(100):
        rng = rng_for(MASTER_SEED, 2, k)
        kind = ("first", "second")[k % 2]
        arity = (3, 4)[(k // 2) % 2]
        inst = random_instance(rng, f"like-{kind}", dim_range=(2, 5), arity=arity)
        w = eval_haagerup_like(inst)
        scale = moi_scale(inst)
        for _ in range(50):
            q = rng.standard_normal((inst.dim, inst.dim)) + 1j * rng.standard_normal(
                (inst.dim, inst.dim)
            )
            denom = max(scale * schatten_norm(q, 1), 1e-12)
            gap = abs(complex(np.trace(w @ q)) - duality_functional(inst, q)) / denom
            worst = max(worst, gap)
    assert worst <= REL_TOL, f"worst duality gap {worst:.3e}"
    _passed(2, f"duality, 100 instances x 50 probes, worst {worst:.2e}")


def test_criterion_3_main_chain_bound():
    grid = [2.0, 3.0, 4.0, INF]
    worst = 0.0
    for k in range(500):
        rng = rng_for(MASTER_SEED, 3, k)
        arity = (3, 4)[k % 2]
        inst = random_instance(rng, "chain", dim_range=(2, 6), arity=arity)
        p = grid[int(rng.integers(4))]
        q = grid[int(rng.integers(4))]
        report = check_haagerup_main(inst, p, q)
        assert report.holds, f"trial {k}: ratio {report.ratio}"
        worst = max(worst, report.ratio)
    # equality case: constant integrand, aligned positive diagonals, p = q = 2
    t = np.diag([1.0, 2.0, 3.0]).astype(complex)
    e = FiniteSpectralMeasure.trivial(3)
    rep = HaagerupChainRep(np.ones((1, 1)), (np.ones((1, 1, 1)),), np.ones((1, 1)))
    equality = check_haagerup_main(MoiInstance((e, e, e), (t, t), rep), 2, 2)
    assert abs(equality.ratio - 1.0) <= 1e-10
    _passed(3, f"main chain bound, 500 trials, worst ratio {worst:.12f}")


def test_criterion_4_row_matrix_bound():
    worst = 0.0
    for k in range(200):
        rng = rng_for(MASTER_SEED, 4, k)
        dim = int(rng.integers(2, 7))
        blocks = random_row_blocks(rng, dim, int(rng.integers(1, 4)))
        t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for p in (2.0, 3.0, 4.0, INF):
            report = check_lemma_row(blocks, t, p)
            assert report.holds, f"family {k}, p={p}: ratio {report.ratio}"
            worst = max(worst, report.ratio)
        # p = 2: squared row norm equals trace(T* (sum A_j* A_j) T)
        two = check_lemma_row(blocks, t, 2)
        gram = sum(adjoint(a) @ a for a in blocks)
        expected_sq = float(np.trace(adjoint(t) @ gram @ t).real)
        assert abs(two.lhs**2 - expected_sq) <= 1e-10 * max(expected_sq, 1.0)
    _passed(4, f"row matrix bound, 200 families x 4 exponents, worst {worst:.12f}")


def test_criterion_5_chain_like_bounds():
    first_pairs = ((2, 2), (2, 4), (4, 4), (2, INF), (1, INF), (4 / 3, 4), (2, 3))
    second_pairs = ((2, 2), (4, 2), (4, 4), (INF, 2), (INF, 1), (4, 4 / 3), (3, 2))
    worst = 0.0
    for k in range(500):
        rng = rng_for(MASTER_SEED, 5, k)
        kind = ("first", "second")[k % 2]
        arity = (3, 4)[(k // 2) % 2]
        pairs = first_pairs if kind == "first" else second_pairs
        inst = random_instance(rng, f"like-{kind}", dim_range=(2, 5), arity=arity)
        p, q = pairs[int(rng.integers(len(pairs)))]
        report = check_haagerup_like(inst, p, q)
        assert report.holds, f"trial {k} ({kind}, m={arity}): ratio {report.ratio}"
        worst = max(worst, report.ratio)
    _passed(5, f"chain-like bounds, 500 trials, worst ratio {worst:.12f}")


def test_criterion_6_sharpness_sweeps():
    start = time.monotonic()
    grid = [64, 256, 1024, 4096]
    for (arity, regime, p1, pm1), frozen in FROZEN_GROWTH_FACTORS.items():
        r = sharp_r(p1, pm1)
        at_r = growth_sweep(arity, regime, p1, pm1, grid, r, cross_check=False)
        ratios = [row.ratio for row in at_r]
        variation = max(ratios) / min(ratios) - 1.0
        assert variation <= 0.10, f"{regime}: s=r variation {variation:.3e}"
        below = growth_sweep(arity, regime, p1, pm1, grid, 0.8 * r, cross_check=False)
        growth = [row.ratio for row in below]
        assert all(b > a for a, b in zip(growth, growth[1:])), f"{regime}: not increasing"
        factor = growth[-1] / growth[0]
        assert abs(factor / frozen - 1.0) <= 0.01, (
            f"{regime}: growth factor {factor:.6f} vs frozen {frozen}"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 6 took {elapsed:.1f}s"
    _passed(6, f"sharpness sweeps bounded at r, growing below r, {elapsed:.1f}s")


def test_criterion_7_construction_fidelity():
    cases = [
        (3, "both-large", 4.0, 2.0),
        (3, "both-small", 2.0, 2.0),
        (3, "mixed-large-small", 4.0, 2.0),
        (3, "mixed-small-large", 2.0, 4.0),
        (4, "both-large", 4.0, 4.0),
        (4, "both-small", 1.5, 2.0),
        (4, "mixed-large-small", 4.0, 1.5),
        (4, "mixed-small-large", 2.0, 3.0),
    ]
    n = 64
    for arity, regime, p1, pm1 in cases:
        built = build_construction(default_case(arity, regime, p1, pm1, n))
        w = eval_haagerup(built.instance)
        err = operator_norm(w - built.expected)
        assert err <= 1e-10 * moi_scale(built.instance), f"{regime} m={arity}: {err:.3e}"

    eye = np.eye(n)
    # shift identity: the first middle of the mixed family moves e_0 to e_j
    mixed = build_construction(default_case(3, "mixed-large-small", 4, 2, n))
    mid_table = mixed.instance.integrand.middles[0]
    projs = mixed.instance.measures[1].projection_stack()
    for j in (0, 1, 5, n - 1):
        b_j = np.einsum("i,iab->ab", mid_table[:, j], projs)
        assert np.linalg.norm(b_j @ eye[:, 0] - eye[:, j]) < 1e-12
    # second middle of the arity-4 families: unitary in the two-sided case,
    # identity in the mixed case
    m4 = build_construction(default_case(4, "both-large", 4, 4, n))
    gamma_table = m4.instance.integrand.middles[1]
    projs4 = m4.instance.measures[2].projection_stack()
    for j in (1, 3):
        g_j = np.einsum("i,iab->ab", gamma_table[:, j], projs4)
        assert operator_norm(g_j @ g_j.conj().T - eye) < 1e-12
    m4_mixed = build_construction(default_case(4, "mixed-large-small", 4, 1.5, n))
    gamma_mixed = m4_mixed.instance.integrand.middles[1]
    for j in (0, 2):
        g_j = np.einsum("i,iab->ab", gamma_mixed[:, j], projs4)
        assert operator_norm(g_j - eye) < 1e-12
    # rank-one family: P_j T1 T2 P_j e_j = d_j^2 e_j
    small = build_construction(default_case(3, "both-small", 2, 2, n))
    t1, t2 = small.instance.operators
    d = small.case.d
    for j in (0, 1, 7, n - 1):
        p = small.instance.measures[0].projections[j]
        got = p @ t1 @ t2 @ p @ eye[:, j]
        assert np.linalg.norm(got - d[j] ** 2 * eye[:, j]) < 1e-12
    _passed(7, "construction fidelity at n = 64, all regimes and identities")


def test_criterion_8_representation_independence():
    worst = 0.0
    for k in range(100):
        rng = rng_for(MASTER_SEED, 8, k)
        variant = k % 4
        if variant in (0, 1):
            inst = random_instance(rng, "chain", dim_range=(2, 5), arity=3)
            rep = inst.integrand
            if variant == 0:
                g = random_unitary(rng, rep.head.shape[1])
                other_rep = HaagerupChainRep(
                    rep.head @ g,
                    (np.einsum("ab,ibc->iac", g.conj().T, rep.middles[0]),),
                    rep.tail,
                )
            else:
                n1, w1 = rep.head.shape
                mid = rep.middles[0]
                n2, _, w2 = mid.shape
                padded_mid = np.zeros((n2, w1 + 1, w2 + 1), dtype=complex)
                padded_mid[:, :w1, :w2] = mid
                other_rep = HaagerupChainRep(
                    np.hstack([rep.head, np.zeros((n1, 1))]),
                    (padded_mid,),
                    np.hstack([rep.tail, np.zeros((rep.tail.shape[0], 1))]),
                )
            other = MoiInstance(inst.measures, inst.operators, other_rep)
            w1_val, w2_val = eval_haagerup(inst), eval_haagerup(other)
        else:
            inst = random_instance(rng, "projective", dim_range=(2, 5), arity=3)
            rep = inst.integrand
            if variant == 2:
                other = MoiInstance(
                    inst.measures, inst.operators, embed_projective_in_haagerup(rep)
                )
                w2_val = eval_haagerup(other)
            else:
                head_term = rep.terms[0]
                split = (0.5 * head_term[0],) + head_term[1:]
                other_rep = ProjectiveRep(3, (split, split) + rep.terms[1:])
                other = MoiInstance(inst.measures, inst.operators, other_rep)
                w2_val = eval_projective(other)
            w1_val = eval_projective(inst)
        counts = [e.n_atoms for e in inst.measures]
        for atoms in itertools.product(*(range(c) for c in counts)):
            a = eval_pointwise(inst.integrand, atoms)
            b = eval_pointwise(other.integrand, atoms)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
        scale = max(moi_scale(inst), moi_scale(other))
        worst = max(worst, operator_norm(w1_val - w2_val) / scale)
    assert worst <= REL_TOL, f"worst representation gap {worst:.3e}"
    _passed(8, f"representation independence, 100 pairs, worst {worst:.2e}")


def _run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "moilab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_criterion_9_cli_contract(tmp_path):
    inst = random_instance(rng_for(MASTER_SEED, 9), "chain", dim_range=(3, 3), arity=3)
    good = tmp_path / "instance.json"
    good.write_text(json.dumps(instance_to_json(inst)))
    assert _run_cli("eval", "--instance", str(good)).returncode == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert _run_cli("eval", "--instance", str(bad)).returncode == 2

    capped = _run_cli(
        "eval", "--instance", str(good), "--oracle", env_extra={"MOI_MAX_TUPLES": "1"}
    )
    assert capped.returncode == 3

    # a zero tolerance fails the deviation suites (nonzero rounding errors)
    forced = _run_cli(
        "verify", "--seed", "5", "--trials", "2", "--dims", "2-3",
        "--tol", "0", "--repro-dir", str(tmp_path),
    )
    assert forced.returncode == 1
    repro = sorted(tmp_path.glob("moi-repro-*.json"))
    assert repro and _run_cli("eval", "--instance", str(repro[0])).returncode == 0

    args = (
        "verify", "--seed", "42", "--trials", "3", "--dims", "2-4",
        "--repro-dir", str(tmp_path),
    )
    first = _run_cli(*args)
    second = _run_cli(*args)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    _passed(9, "CLI exit codes 0/1/2/3 and byte-deterministic verify")
