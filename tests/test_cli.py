"""Command-line contract: exit codes, determinism, reproduction files."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moilab.randominst import random_instance, rng_for
from moilab.serialize import array_to_json, instance_to_json


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "moilab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def write_instance(path, cls="chain", seed=100, arity=3):
    inst = random_instance(rng_for(seed), cls, dim_range=(3, 3), arity=arity)
    path.write_text(json.dumps(instance_to_json(inst)))
    return inst


def test_eval_constant_integrand(tmp_path):
    from moilab.evaluate import MoiInstance
    from moilab.integrands import ProjectiveRep
    from moilab.spectral import FiniteSpectralMeasure

    rng = np.random.default_rng(7)
    t = rng.standard_normal((3, 3))
    r = rng.standard_normal((3, 3))
    e = FiniteSpectralMeasure.trivial(3)
    rep = ProjectiveRep(3, ((np.ones(1), np.ones(1), np.ones(1)),))
    inst = MoiInstance((e, e, e), (t, r), rep)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    out_path = tmp_path / "result.json"
    proc = run_cli("eval", "--instance", str(path), "--out", str(out_path))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out_path.read_text())
    result = np.array(
        [[complex(re, im) for re, im in row] for row in payload["result"]]
    )
    assert np.allclose(result, t @ r, atol=1e-10)
    assert payload["rep_norm_bound"] == 1.0
    assert set(payload["schatten"]) == {"1", "2", "inf"}


def test_eval_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("eval", "--instance", str(path))
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_eval_deeply_nested_json_exits_two(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    proc = run_cli("eval", "--instance", str(path))
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_eval_missing_file(tmp_path):
    proc = run_cli("eval", "--instance", str(tmp_path / "absent.json"))
    assert proc.returncode == 2


def test_eval_oracle_cap_exceeded(tmp_path):
    path = tmp_path / "instance.json"
    write_instance(path)
    proc = run_cli(
        "eval", "--instance", str(path), "--oracle", env_extra={"MOI_MAX_TUPLES": "1"}
    )
    assert proc.returncode == 3
    assert "cap" in proc.stderr


def test_verify_small_run_passes(tmp_path):
    proc = run_cli(
        "verify", "--seed", "7", "--trials", "4", "--dims", "2-4",
        "--repro-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "verify: PASS" in proc.stdout


def test_verify_byte_deterministic(tmp_path):
    args = (
        "verify", "--seed", "42", "--trials", "3", "--dims", "2-4",
        "--repro-dir", str(tmp_path),
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_rejects_out_of_range_exponent(tmp_path):
    proc = run_cli(
        "verify", "--seed", "1", "--trials", "2", "--exponents", "1.5,2",
        "--repro-dir", str(tmp_path),
    )
    assert proc.returncode == 2
    assert "1.5" in proc.stderr


def test_verify_rejects_zero_trials(tmp_path):
    proc = run_cli("verify", "--trials", "0", "--repro-dir", str(tmp_path))
    assert proc.returncode == 2


def test_verify_failure_dumps_reproduction(tmp_path):
    # a zero tolerance fails the deviation suites, whose rounding errors are
    # nonzero for this seed, forcing the failure path
    proc = run_cli(
        "verify", "--seed", "5", "--trials", "2", "--dims", "2-3",
        "--tol", "0", "--repro-dir", str(tmp_path),
    )
    assert proc.returncode == 1
    repro_files = sorted(tmp_path.glob("moi-repro-*.json"))
    assert repro_files
    check = run_cli("eval", "--instance", str(repro_files[0]))
    assert check.returncode == 0


def test_sweep_bounded_at_critical_exponent(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli(
        "sweep", "--regime", "mixed-large-small", "--p1", "4", "--pm1", "2",
        "--s", "r", "--dims", "64,256,1024", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,s,p1,pm1,lhs,rhs,ratio"
    ratios = [float(line.split(",")[-1]) for line in lines[1:]]
    assert len(ratios) == 3
    for ratio in ratios:
        assert abs(ratio - 1.0) < 1e-9


def test_sweep_increasing_below_critical(tmp_path):
    proc = run_cli(
        "sweep", "--regime", "mixed-large-small", "--p1", "4", "--pm1", "2",
        "--s", "r/2", "--dims", "64,256,1024",
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    ratios = [float(line.split(",")[-1]) for line in lines[1:]]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_sweep_deterministic_bytes(tmp_path):
    args = (
        "sweep", "--regime", "both-small", "--p1", "2", "--pm1", "2",
        "--s", "r,0.8r", "--dims", "16,64",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_sweep_rejects_empty_dims():
    proc = run_cli(
        "sweep", "--regime", "both-small", "--p1", "2", "--pm1", "2",
        "--s", "r", "--dims", ",",
    )
    assert proc.returncode == 2


def test_sweep_rejects_bad_regime():
    proc = run_cli(
        "sweep", "--regime", "diagonal", "--p1", "2", "--pm1", "2",
        "--s", "r", "--dims", "16",
    )
    assert proc.returncode == 2


def test_sweep_rejects_inconsistent_exponents():
    proc = run_cli(
        "sweep", "--regime", "both-large", "--p1", "1.5", "--pm1", "2",
        "--s", "r", "--dims", "16",
    )
    assert proc.returncode == 2


def _one_measure_instance(tmp_path, measure_json, term_first):
    """A projective instance T R on trivial 3-dim measures, with the first
    measure replaced by `measure_json` and its table by `term_first`."""
    from moilab.evaluate import MoiInstance
    from moilab.integrands import ProjectiveRep
    from moilab.spectral import FiniteSpectralMeasure

    rng = np.random.default_rng(8)
    t = rng.standard_normal((3, 3))
    r = rng.standard_normal((3, 3))
    e = FiniteSpectralMeasure.trivial(3)
    rep = ProjectiveRep(3, ((np.ones(1), np.ones(1), np.ones(1)),))
    payload = instance_to_json(MoiInstance((e, e, e), (t, r), rep))
    payload["measures"][0] = measure_json
    payload["integrand"]["projective"]["terms"][0][0] = [[x, 0.0] for x in term_first]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    return path, t @ r


def _atoms(*projections):
    return {
        "dim": 3,
        "atoms": [
            {"point": float(i), "projection": array_to_json(p)}
            for i, p in enumerate(projections)
        ],
    }


def test_eval_rejects_scaled_all_ones_projection(tmp_path):
    path, _ = _one_measure_instance(tmp_path, _atoms(np.full((3, 3), 0.5)), [1.0])
    proc = run_cli("eval", "--instance", str(path))
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "projection" in proc.stderr and "Traceback" not in proc.stderr


def test_eval_rejects_overlapping_projections(tmp_path):
    p = np.zeros((3, 3))
    p[0, 0] = 1.0
    path, _ = _one_measure_instance(tmp_path, _atoms(p, p, np.eye(3) - p), [1.0, 1.0, 1.0])
    proc = run_cli("eval", "--instance", str(path))
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_eval_accepts_zero_rank_atom(tmp_path):
    path, want = _one_measure_instance(
        tmp_path, _atoms(np.eye(3), np.zeros((3, 3))), [1.0, 5.0]
    )
    out_path = tmp_path / "result.json"
    proc = run_cli("eval", "--instance", str(path), "--out", str(out_path))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out_path.read_text())
    result = np.array([[complex(re, im) for re, im in row] for row in payload["result"]])
    assert np.allclose(result, want, atol=1e-10)


def test_sweep_cross_check_failure_exits_one(monkeypatch, capsys):
    from moilab import cli, sharpness

    original = sharpness.eval_haagerup
    monkeypatch.setattr(sharpness, "eval_haagerup", lambda inst: original(inst) * (1 + 1e-6))
    code = cli.main(
        ["sweep", "--regime", "mixed-large-small", "--p1", "4", "--pm1", "2",
         "--s", "r", "--dims", "16,64"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "cross-check" in captured.err


def test_verify_counts_nan_as_failure(monkeypatch, capsys, tmp_path):
    from moilab import cli

    def suite(config, k):
        inst = random_instance(rng_for(3, k), "chain", dim_range=(2, 3), arity=3)
        return (float("nan") if k == 1 else 0.0), inst

    monkeypatch.setattr(cli, "SUITES", (("nan-suite", suite, "deviation"),))
    code = cli.main(["verify", "--trials", "3", "--repro-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    row = next(line for line in out.splitlines() if line.startswith("nan-suite"))
    assert row.split()[-1] == "NO" and "nan" in row
    assert out.strip().splitlines()[-1] == "verify: FAIL"
    repro = tmp_path / "moi-repro-nan-suite-seed0-trial1.json"
    assert repro.is_file()
    assert run_cli("eval", "--instance", str(repro)).returncode == 0


def _one_line_error(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["abc", "0"])
def test_eval_rejects_bad_tuple_cap(tmp_path, value):
    path = tmp_path / "instance.json"
    write_instance(path)
    proc = run_cli(
        "eval", "--instance", str(path), "--oracle", env_extra={"MOI_MAX_TUPLES": value}
    )
    _one_line_error(proc)
    assert "MOI_MAX_TUPLES" in proc.stderr


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_verify_rejects_bad_tolerance(tmp_path, tol):
    proc = run_cli(
        "verify", "--seed", "5", "--trials", "2", "--dims", "2-3",
        "--tol", tol, "--repro-dir", str(tmp_path),
    )
    _one_line_error(proc)
    assert "tolerance" in proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("out", ["no/r.json", "."])
def test_eval_rejects_missing_or_directory_out(tmp_path, out):
    path = tmp_path / "instance.json"
    write_instance(path)
    proc = run_cli("eval", "--instance", str(path), "--out", str(tmp_path / out))
    _one_line_error(proc)
    assert not (tmp_path / "no").exists()


def test_sweep_rejects_missing_out_directory(tmp_path):
    proc = run_cli(
        "sweep", "--regime", "both-small", "--p1", "2", "--pm1", "2",
        "--s", "r", "--dims", "16", "--out", str(tmp_path / "no" / "s.csv"),
    )
    _one_line_error(proc)
    assert not (tmp_path / "no").exists()


def test_verify_rejects_missing_repro_directory(tmp_path):
    # refused before the campaign runs: nothing reaches stdout
    proc = run_cli("verify", "--trials", "2", "--repro-dir", str(tmp_path / "no"))
    _one_line_error(proc)
    assert not (tmp_path / "no").exists()


BIG = "1" + "0" * 400  # an integer literal beyond float range


def _set_operator_leaf(o, value):
    o["operators"][0][0][0] = value


def _set_operator_pair_part(o, value):
    o["operators"][0][0][0][0] = value


def _set_point(o, value):
    o["measures"][0]["atoms"][0]["point"] = value


def _set_dim(o, value):
    o["measures"][0]["dim"] = value


def _set_merge_tol(o, value):
    o["measures"][0] = {"hermitian": np.diag([1.0, 2.0, 3.0]).tolist(), "merge_tol": value}


def _set_exponent(o, value):
    o["exponents"] = {"p": value}


def _write_with_literal(path, mutate, literal, cls="chain"):
    """An instance file in which `mutate` puts the raw JSON number `literal`."""
    write_instance(path, cls=cls)
    payload = json.loads(path.read_text())
    mutate(payload, "@LITERAL@")
    path.write_text(json.dumps(payload).replace('"@LITERAL@"', literal))


@pytest.mark.parametrize(
    "mutate, literal, field",
    [
        (_set_operator_leaf, BIG, "complex scalar"),
        (_set_operator_pair_part, BIG, "complex scalar"),
        (_set_point, BIG, "complex scalar"),
        (_set_dim, "1e999", "dim"),
        (_set_merge_tol, BIG, "merge_tol"),
        (_set_exponent, BIG, "exponent"),
    ],
)
def test_eval_rejects_out_of_range_numbers(tmp_path, mutate, literal, field):
    path = tmp_path / "instance.json"
    _write_with_literal(path, mutate, literal)
    proc = run_cli("eval", "--instance", str(path))
    _one_line_error(proc)
    assert f"{field} is out of range" in proc.stderr


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "[1e999, 0.0]", "[0.0, NaN]"])
def test_eval_rejects_non_finite_atom_point(tmp_path, literal):
    path = tmp_path / "instance.json"
    _write_with_literal(path, _set_point, literal)
    proc = run_cli("eval", "--instance", str(path))
    _one_line_error(proc)
    assert "atom point is not finite" in proc.stderr


def _set_real_operator_leaf(o, value):
    # the operator written with plain real leaves, which one np.asarray reads
    o["operators"][0] = [[leaf[0] for leaf in row] for row in o["operators"][0]]
    o["operators"][0][0][0] = value


@pytest.mark.parametrize(
    "mutate, literal",
    [
        (_set_operator_leaf, "true"),
        (_set_operator_leaf, "[true, false]"),
        (_set_operator_pair_part, "false"),
        (_set_real_operator_leaf, "true"),
        (_set_real_operator_leaf, "false"),
        (_set_point, "true"),
    ],
)
def test_eval_rejects_boolean_leaves(tmp_path, mutate, literal):
    path = tmp_path / "instance.json"
    _write_with_literal(path, mutate, literal)
    proc = run_cli("eval", "--instance", str(path))
    _one_line_error(proc)
    assert "not a complex scalar" in proc.stderr


def test_eval_rejects_projective_arity_disagreeing_with_terms(tmp_path):
    path = tmp_path / "instance.json"
    write_instance(path, cls="projective")
    payload = json.loads(path.read_text())
    payload["integrand"]["projective"]["arity"] = 7
    path.write_text(json.dumps(payload))
    proc = run_cli("eval", "--instance", str(path))
    _one_line_error(proc)
    assert "projective arity 7 disagrees with 3-factor terms" in proc.stderr


# --- one sweep cross-check per command ---------------------------------------

SWEEP_MULTI_S = [
    "sweep", "--regime", "mixed-large-small", "--p1", "4", "--pm1", "2",
    "--s", "r,0.8r,r/2", "--dims", "64,256,1024",
]


def _count_calls(monkeypatch, module, attr, counts):
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        counts[attr] = counts.get(attr, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)


def test_sweep_builds_and_contracts_once_for_several_s(monkeypatch, capsys):
    from moilab import cli, sharpness

    counts = {}
    _count_calls(monkeypatch, sharpness, "build_construction", counts)
    _count_calls(monkeypatch, sharpness, "eval_haagerup", counts)
    assert cli.main(SWEEP_MULTI_S) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 3 * 3
    assert counts == {"build_construction": 1, "eval_haagerup": 1}


def test_sweep_cross_check_failure_with_several_s_exits_one(monkeypatch, capsys):
    from moilab import cli, sharpness

    original = sharpness.eval_haagerup
    monkeypatch.setattr(sharpness, "eval_haagerup", lambda inst: original(inst) * (1 + 1e-6))
    code = cli.main(SWEEP_MULTI_S)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "cross-check" in captured.err


@pytest.mark.parametrize(
    "arity, regime, p1, pm1",
    [
        (3, "mixed-large-small", 4.0, 2.0),
        (3, "both-large", 4.0, 4.0),
        (4, "both-small", 1.0, 1.5),
        (4, "mixed-small-large", 1.0, 6.0),
    ],
)
def test_sweep_csv_equals_per_s_cross_checked_sweeps(capsys, arity, regime, p1, pm1):
    from moilab import cli
    from moilab.sharpness import growth_sweep, sharp_r, sweep_csv

    dims = [16, 64, 256]
    r = sharp_r(p1, pm1)
    rows = []
    for s in (r, 0.8 * r, r / 2):
        rows.extend(growth_sweep(arity, regime, p1, pm1, dims, s, cross_check=True))
    code = cli.main(
        ["sweep", "--regime", regime, "--arity", str(arity), "--p1", repr(p1),
         "--pm1", repr(pm1), "--s", "r,0.8r,r/2", "--dims", "16,64,256"]
    )
    assert code == 0
    assert capsys.readouterr().out == sweep_csv(rows)


def test_sweep_cross_check_norms_the_integrand_once(monkeypatch):
    from moilab import evaluate, sharpness

    counts = {}
    _count_calls(monkeypatch, sharpness, "rep_norm_bound", counts)
    _count_calls(monkeypatch, evaluate, "rep_norm_bound", counts)
    sharpness.growth_sweep(3, "mixed-large-small", 4.0, 2.0, [16, 64], 2.0)
    assert counts == {"rep_norm_bound": 1}


@pytest.mark.parametrize("tokens", ["r/0", "0r", "r,0r"])
def test_sweep_rejects_bad_s_before_any_cross_check(monkeypatch, capsys, tokens):
    from moilab import cli, sharpness

    counts = {}
    _count_calls(monkeypatch, sharpness, "build_construction", counts)
    code = cli.main(
        ["sweep", "--regime", "mixed-large-small", "--p1", "4", "--pm1", "2",
         "--s", tokens, "--dims", "64,256"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "invalid case" in captured.err
    assert counts == {}


# --- object fields given as other JSON values -------------------------------


def _set_integrand_body(o, value):
    o["integrand"] = {"projective": value}


def _set_exponents(o, value):
    o["exponents"] = value


def _set_integrand(o, value):
    o["integrand"] = value


def _set_measure(o, value):
    o["measures"][0] = value


def _set_atom(o, value):
    o["measures"][0]["atoms"][0] = value


@pytest.mark.parametrize(
    "mutate, value, message",
    [
        (_set_integrand_body, [], "projective integrand must be an object"),
        (_set_integrand_body, 3, "projective integrand must be an object"),
        (_set_exponents, [1], "exponents must be an object"),
        (_set_integrand, [], "integrand must be a one-key object"),
        (_set_measure, [], "measure must be an object"),
        (_set_atom, [], "atom must be an object"),
    ],
)
def test_eval_rejects_non_object_field(tmp_path, mutate, value, message):
    path = tmp_path / "instance.json"
    write_instance(path)
    payload = json.loads(path.read_text())
    mutate(payload, value)
    path.write_text(json.dumps(payload))
    proc = run_cli("eval", "--instance", str(path))
    _one_line_error(proc)
    assert message in proc.stderr


# --- verify honours MOI_MAX_TUPLES --------------------------------------------


def test_verify_rejects_bad_tuple_cap(tmp_path):
    proc = run_cli(
        "verify", "--trials", "2", "--dims", "2-3", "--repro-dir", str(tmp_path),
        env_extra={"MOI_MAX_TUPLES": "abc"},
    )
    _one_line_error(proc)
    assert "MOI_MAX_TUPLES" in proc.stderr


def test_verify_trial_over_tuple_cap_exits_three(tmp_path):
    proc = run_cli(
        "verify", "--trials", "2", "--dims", "2-3", "--repro-dir", str(tmp_path),
        env_extra={"MOI_MAX_TUPLES": "1"},
    )
    assert proc.returncode == 3
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "cap" in proc.stderr and "Traceback" not in proc.stderr
    assert "PASS" not in proc.stdout and "FAIL" not in proc.stdout
    assert not list(tmp_path.iterdir())


def test_verify_rejects_negative_seed(tmp_path):
    proc = run_cli("verify", "--seed", "-1", "--trials", "1", "--repro-dir", str(tmp_path))
    _one_line_error(proc)
    assert "seed" in proc.stderr
    assert not list(tmp_path.iterdir())


# --- the oracle at the size of the benchmark's instance files -----------------


def test_eval_oracle_matches_eval_at_eval_file_size(tmp_path):
    from moilab.evaluate import MoiInstance, moi_scale
    from moilab.randominst import random_like_rep, random_measure, random_operator

    rng = rng_for(58)
    measures = tuple(random_measure(rng, 64, 8) for _ in range(4))
    rep = random_like_rep(rng, "second", [8] * 4, [4, 4, 4])
    inst = MoiInstance(measures, tuple(random_operator(rng, 64) for _ in range(3)), rep)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    results = []
    for extra in ((), ("--oracle",)):
        out = tmp_path / f"result{len(extra)}.json"
        proc = run_cli("eval", "--instance", str(path), "--out", str(out), *extra)
        assert proc.returncode == 0, proc.stderr
        a = np.asarray(json.loads(out.read_text())["result"])
        results.append(a[..., 0] + 1j * a[..., 1])
    assert results[0].shape == (64, 64)
    assert np.abs(results[0] - results[1]).max() <= 1e-10 * moi_scale(inst)


# --- what eval holds and what it writes --------------------------------------


def _eval_file_payload(cls):
    """An instance file like the benchmark's eval-file ones: d = 64, arity 4,
    8 atoms per measure, widths 4, every other measure written as the
    Hermitian matrix sum_i i P_i and the others as explicit atoms."""
    from moilab.evaluate import MoiInstance
    from moilab.randominst import (
        random_chain_rep,
        random_like_rep,
        random_measure,
        random_operator,
        random_projective_rep,
    )

    rng = rng_for(73, len(cls))
    measures = tuple(random_measure(rng, 64, 8) for _ in range(4))
    operators = tuple(random_operator(rng, 64) for _ in range(3))
    if cls == "projective":
        rep = random_projective_rep(rng, [8] * 4, 4)
    elif cls == "chain":
        rep = random_chain_rep(rng, [8] * 4, [4] * 3)
    else:
        rep = random_like_rep(rng, cls.split("-")[1], [8] * 4, [4] * 3)
    payload = instance_to_json(MoiInstance(measures, operators, rep))
    for k in (0, 2):
        h = sum(i * p for i, p in enumerate(measures[k].projections))
        payload["measures"][k] = {"hermitian": array_to_json(h)}
    return payload


@pytest.mark.parametrize("cls", ["projective", "chain", "like-first", "like-second"])
def test_eval_peak_memory_stays_within_two_and_a_half_file_sizes(tmp_path, cls):
    # json.load's whole list tree next to the text measured 4.2 file sizes;
    # converting each measure array as its object closes leaves about 2
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_eval_file_payload(cls)))
    tracemalloc.start()
    try:
        code, _, err = _eval_in_process(path, "--out", str(tmp_path / "result.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert peak <= 2.5 * path.stat().st_size


@pytest.mark.parametrize("cls", ["projective", "chain", "like-first", "like-second"])
@pytest.mark.parametrize("flags", [(), ("--oracle",)])
def test_eval_writes_the_bytes_of_json_dumps_indent_two(tmp_path, cls, flags):
    path = tmp_path / "instance.json"
    write_instance(path, cls)
    code, out, err = _eval_in_process(path, *flags)
    assert code == 0, err
    # floats read back as themselves, so dumping them again gives json.dumps's bytes
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# --- atomic writes -------------------------------------------------------------


class _HalfWriter:
    """A file that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def _fail_writes_midway(monkeypatch):
    from moilab import cli

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return fh if "r" in mode else _HalfWriter(fh)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)


def test_eval_out_write_failing_midway_keeps_old_file(monkeypatch, capsys, tmp_path):
    from moilab import cli

    path = tmp_path / "instance.json"
    write_instance(path)
    out = tmp_path / "result.json"
    out.write_text("old result\n")
    _fail_writes_midway(monkeypatch)
    code = cli.main(["eval", "--instance", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and len(err.strip().splitlines()) == 1
    assert "No space left" in err
    assert out.read_text() == "old result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["instance.json", "result.json"]


def test_sweep_out_write_failing_midway_keeps_old_file(monkeypatch, capsys, tmp_path):
    from moilab import cli

    out = tmp_path / "sweep.csv"
    out.write_text("old table\n")
    _fail_writes_midway(monkeypatch)
    code = cli.main(
        ["sweep", "--regime", "both-large", "--p1", "4", "--pm1", "4", "--s", "r",
         "--dims", "16", "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 2 and len(err.strip().splitlines()) == 1
    assert out.read_text() == "old table\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_verify_repro_write_failing_midway_keeps_old_file(monkeypatch, capsys, tmp_path):
    from moilab import cli

    def suite(config, k):
        inst = random_instance(rng_for(3, k), "chain", dim_range=(2, 3), arity=3)
        return 1.0, inst

    monkeypatch.setattr(cli, "SUITES", (("failing", suite, "deviation"),))
    repro = tmp_path / "moi-repro-failing-seed0-trial0.json"
    repro.write_text("old repro\n")
    _fail_writes_midway(monkeypatch)
    code = cli.main(["verify", "--trials", "1", "--repro-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and len(err.strip().splitlines()) == 1
    assert repro.read_text() == "old repro\n"
    assert [p.name for p in tmp_path.iterdir()] == [repro.name]


def test_atomic_write_replaces_old_file(tmp_path):
    from moilab import cli

    out = tmp_path / "result.json"
    out.write_text("old\n")
    cli._write_atomic(str(out), "new\n")
    assert out.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["result.json"]


# --- field checks and diagonal middles in instance files ----------------------


def _eval_in_process(path, *flags):
    """`moilab eval --instance path [flags]` in this process: (code, stdout, stderr)."""
    from moilab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--instance", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


def _assert_refused(path, *needles):
    code, out, err = _eval_in_process(path)
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    for needle in needles:
        assert needle in err


def _set_arity(o, value):
    o["integrand"]["projective"]["arity"] = value


@pytest.mark.parametrize(
    "mutate, literal, needle, cls",
    [(_set_merge_tol, v, "merge_tol must be a finite number >= 0", "chain")
     for v in ("NaN", "-1e-8", "-1", "Infinity")]
    + [(_set_dim, v, "dim must be", "chain") for v in ("2.7", '"3"', "true", "null")]
    + [(_set_arity, v, "arity must be", "projective") for v in ("2.5", '"3"', "true")]
    + [(_set_exponent, v, "exponent", "chain") for v in ("-1", "0", "-0.5", "NaN", "true")],
)
def test_eval_rejects_bad_field_value(tmp_path, mutate, literal, needle, cls):
    path = tmp_path / "instance.json"
    _write_with_literal(path, mutate, literal, cls)
    _assert_refused(path, needle)


def _diagonal_chain_payload():
    """A chain instance whose first middle is diagonal, and its JSON."""
    from moilab.evaluate import MoiInstance
    from moilab.integrands import HaagerupChainRep
    from moilab.randominst import random_measure, random_operator

    rng = rng_for(71)
    measures = tuple(random_measure(rng, 3, 2) for _ in range(4))
    ops = tuple(random_operator(rng, 3) for _ in range(3))
    rep = HaagerupChainRep(
        rng.standard_normal((2, 2)),
        (rng.standard_normal((2, 2)), rng.standard_normal((2, 2, 3))),
        rng.standard_normal((2, 3)),
    )
    inst = MoiInstance(measures, ops, rep)
    return inst, instance_to_json(inst, {"p": 2.0, "q": np.inf})


def test_eval_reads_diagonal_middles(tmp_path):
    from moilab.evaluate import eval_haagerup, moi_scale

    inst, payload = _diagonal_chain_payload()
    assert "diagonal" in payload["integrand"]["haagerup"]["middles"][0]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    code, out, err = _eval_in_process(path)
    assert code == 0, err
    result = np.asarray(json.loads(out)["result"])
    # the measures are read back from explicit atoms and factored anew
    gap = np.abs(result[..., 0] + 1j * result[..., 1] - eval_haagerup(inst)).max()
    assert gap <= 1e-10 * moi_scale(inst)


@pytest.mark.parametrize(
    "middle",
    [
        {"diagonal": [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]},  # incoming width is 2
        {"diagonal": [[1.0, 2.0], [1.0, 2.0]], "extra": 1},
        {"diag": [[1.0, 2.0], [1.0, 2.0]]},
        {},
        {"diagonal": [[[1.0, 2.0]], [[1.0, 2.0]]]},
        {"diagonal": [1.0, 2.0]},
        {"diagonal": "x"},
        {"diagonal": []},
        {"diagonal": [[1.0], [2.0, 3.0]]},
        {"diagonal": [[1.0, None], [1.0, 2.0]]},
    ],
)
def test_eval_rejects_malformed_diagonal_middle(tmp_path, middle):
    _, payload = _diagonal_chain_payload()
    payload["integrand"]["haagerup"]["middles"][0] = middle
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    _assert_refused(path, "cannot load instance")


@pytest.mark.parametrize("kind", ["first", "second"])
def test_eval_arity_five_like_agrees_with_the_oracle(tmp_path, kind):
    from moilab.evaluate import moi_scale

    inst = random_instance(rng_for(66), f"like-{kind}", dim_range=(3, 3), arity=5)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    results = []
    for flags in ((), ("--oracle",)):
        code, out, err = _eval_in_process(path, *flags)
        assert (code, err) == (0, "")
        a = np.asarray(json.loads(out)["result"])
        results.append(a[..., 0] + 1j * a[..., 1])
    assert np.abs(results[0] - results[1]).max() <= 1e-10 * moi_scale(inst)


@pytest.mark.parametrize(
    "kind, count, message",
    [
        ("third", 3, "unknown chain-like kind 'third'; kinds are 'first' and 'second'"),
        ("first", 2, "chain-like arity 2 is outside [3, 18], one bond letter per gap"),
        ("second", 19, "chain-like arity 19 is outside [3, 18], one bond letter per gap"),
    ],
)
def test_eval_refuses_a_bad_like_kind_or_arity_in_one_line(tmp_path, kind, count, message):
    payload = instance_to_json(random_instance(rng_for(67), "like-first", (3, 3), arity=3))
    # the tables are not arrays: parsing one would give another message
    payload["integrand"] = {"haagerup_like": {"kind": kind, "tables": ["x"] * count}}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    assert _eval_in_process(path) == (2, "", f"eval: cannot load instance: {message}\n")


# Fuzz: a wrong type or depth at one field of a valid instance file. Arrays
# are replaced whole, not entered; their leaves have property tests of their
# own in test_serialize.py.
_CONTAINERS = {"measures", "atoms", "operators", "middles", "tables", "terms"}
_DELETE = object()
_BAD_VALUES = [
    None, True, False, 0, 1, 2, -1, 2.5, 2.0, 1e300, float("nan"), float("inf"),
    "2", "inf", "x", [], {}, [[]], {"diagonal": [[1.0]]}, _DELETE,
]


def _fuzz_base(cls):
    """A valid instance file of class `cls` with one Hermitian measure (with
    merge_tol) and exponents; the chain has a diagonal and a dense middle."""
    if cls == "chain":
        payload = _diagonal_chain_payload()[1]
    else:
        inst = random_instance(rng_for(72, len(cls)), cls, dim_range=(3, 3), arity=3)
        payload = instance_to_json(inst, {"p": 2.0, "q": np.inf})
    n_atoms = len(payload["measures"][1]["atoms"])
    levels = np.minimum(np.arange(3), n_atoms - 1).astype(float)
    payload["measures"][1] = {"hermitian": np.diag(levels).tolist(), "merge_tol": 1e-8}
    return payload


def _field_paths(obj, path=(), container=False):
    """Paths to every object member, and to the items of the lists that hold
    measures, atoms, operators, middles, tables or terms."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path + (key,)
            yield from _field_paths(value, path + (key,), key in _CONTAINERS)
    elif isinstance(obj, list) and container:
        for i, value in enumerate(obj):
            yield path + (i,)
            nested = path[-1] == "terms" and isinstance(path[-2], str)
            yield from _field_paths(value, path + (i,), nested)


def _replace(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    if value is _DELETE:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value


@pytest.mark.parametrize("cls", ["chain", "projective", "like-first"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_eval_fuzzed_instance_exits_cleanly(cls, data):
    payload = _fuzz_base(cls)
    path = data.draw(st.sampled_from(sorted(_field_paths(payload), key=repr)))
    old = payload
    for key in path:
        old = old[key]
    options = list(_BAD_VALUES) + [[old], {"diagonal": old}]
    if isinstance(old, list) and old:
        options.append(old[0])
    _replace(payload, path, data.draw(st.sampled_from(options)))
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "instance.json")
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code, _, err = _eval_in_process(target)
    assert code in (0, 2, 3)
    assert len(err.strip().splitlines()) <= 1
    assert (code == 0) == (err == "")


# --- the exact stderr line and exit code of each refusal ---------------------

_SWEEP = ["sweep", "--arity", "3", "--p1", "4", "--pm1", "4", "--s", "r"]
_REGIMES = "('both-large', 'both-small', 'mixed-large-small', 'mixed-small-large')"
_CONFIG = "verify: invalid configuration: "
_CASE = "sweep: invalid case: "

# argv and expected line with {tmp} for the test's directory; every refusal
# exits 2 and writes nothing to stdout
REFUSALS = [
    (["eval", "--instance", "{tmp}/absent.json"],
     "eval: cannot load instance: [Errno 2] No such file or directory: '{tmp}/absent.json'"),
    (["eval", "--instance", "{tmp}/broken.json"],
     "eval: cannot load instance: Expecting property name enclosed in double quotes:"
     " line 1 column 2 (char 1)"),
    (["eval", "--instance", "{tmp}/list.json"],
     "eval: cannot load instance: instance must be a JSON object"),
    (["eval", "--instance", "{tmp}"], "eval: cannot load instance: [Errno 21] Is a directory: '{tmp}'"),
    (["eval", "--instance", "{tmp}/instance.json", "--out", "{tmp}/no/r.json"],
     "eval: invalid configuration: output directory '{tmp}/no' does not exist"),
    (["eval", "--instance", "{tmp}/instance.json", "--out", "{tmp}"],
     "eval: invalid configuration: output path '{tmp}' is a directory"),
    (["verify", "--seed", "-1"], _CONFIG + "seed must be >= 0, got -1"),
    (["verify", "--trials", "0"], _CONFIG + "trials must be >= 1, got 0"),
    (["verify", "--dims", "0-3"], _CONFIG + "dims and widths must be >= 1"),
    (["verify", "--exponents", "0"],
     _CONFIG + "Schatten exponent must lie in (0, inf], got 0.0"),
    (["verify", "--exponents", "2,1"],
     _CONFIG + "exponent 1.0 < 2 is outside the hypotheses of the chain and row bounds;"
     " the extremal sweep explores that range instead"),
    (["verify", "--tol", "nan"], _CONFIG + "tolerance must be finite and >= 0, got nan"),
    (["verify", "--repro-dir", "{tmp}/no"], _CONFIG + "repro directory '{tmp}/no' does not exist"),
    ([*_SWEEP, "--regime", "tiny", "--dims", "16"],
     _CASE + f"unknown regime 'tiny'; one of {_REGIMES}"),
    ([*_SWEEP[:-1], "r/0", "--regime", "both-large", "--dims", "16"],
     _CASE + "s = 'r/0' divides by zero"),
    ([*_SWEEP, "--regime", "both-large", "--dims", "64,16"],
     _CASE + "truncation dimensions must be strictly ascending"),
    ([*_SWEEP, "--regime", "both-large", "--dims", "16384"],
     _CASE + "n = 16384 exceeds the sweep cap 8192"),
    ([*_SWEEP, "--regime", "both-small", "--dims", "16"],
     _CASE + "regime both-small is inconsistent with p_first = 4.0"),
    ([*_SWEEP, "--regime", "both-large", "--dims", "16", "--out", "{tmp}/no/s.csv"],
     _CASE + "output directory '{tmp}/no' does not exist"),
]


@pytest.mark.parametrize("argv, line", REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_refusal_prints_one_exact_line(tmp_path, capsys, argv, line):
    from moilab import cli

    write_instance(tmp_path / "instance.json")
    (tmp_path / "broken.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[1]")
    tmp = str(tmp_path)
    code = cli.main([arg.format(tmp=tmp) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", line.format(tmp=tmp) + "\n")


# --- errors raised outside their stage still map to one line and a code -------


def _two_atom_chain(tmp_path, end, middle, operator):
    """An arity-3 chain on three 2-dim measures with atoms diag(1,0) and
    diag(0,1): head and tail `end`, one dense `middle`, both operators
    `operator`."""
    measure = {"dim": 2, "atoms": [{"point": 0.0, "projection": [[1, 0], [0, 0]]},
                                   {"point": 1.0, "projection": [[0, 0], [0, 1]]}]}
    chain = {"head": end, "middles": [middle], "tail": end}
    payload = {"measures": [measure] * 3, "operators": [operator] * 2,
               "integrand": {"haagerup": chain}}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    return path


def test_eval_overflowing_result_exits_two(tmp_path):
    """No numpy warning precedes the refusal, in process or as a command,
    with or without the oracle."""
    path = _two_atom_chain(tmp_path, [[1e300], [1e300]], [[[1]], [[1]]], [[1e300] * 2] * 2)
    expected = (2, "", "eval: matrix has non-finite entries\n")
    for flags in ((), ("--oracle",)):
        assert _eval_in_process(path, *flags) == expected
        proc = run_cli("eval", "--instance", str(path), *flags)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_eval_refuses_a_non_finite_bound_instead_of_writing_it(tmp_path, capsys):
    from moilab import cli

    tiny = [[1e-300, 0.0], [0.0, 1e-300]]
    path = _two_atom_chain(tmp_path, [[1e154], [1e154]], [[[2]], [[2]]], tiny)
    out = tmp_path / "result.json"
    code = cli.main(["eval", "--instance", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1
    assert err.startswith("eval: Out of range float values are not JSON compliant")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["instance.json"]


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 74.5 GiB", "verify: Unable to allocate 74.5 GiB"),
    ("", "verify: MemoryError"),
])
def test_verify_out_of_memory_exits_three(monkeypatch, capsys, tmp_path, message, line):
    from moilab import cli

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "random_instance", no_memory)
    code = cli.main(["verify", "--dims", "100000", "--trials", "1", "--repro-dir", str(tmp_path)])
    assert (code, capsys.readouterr().err) == (3, line + "\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, line", [
    (["verify", "--trials", "1.5"],
     "moilab verify: error: argument --trials: invalid int value: '1.5'"),
    (["sweep", "--regime", "both-large", "--arity", "5", "--p1", "4", "--pm1", "4",
      "--s", "r", "--dims", "16"],
     "moilab sweep: error: argument --arity: invalid choice: "),
    (["eval"], "moilab eval: error: the following arguments are required: --instance"),
    (["frobnicate"], "moilab: error: argument command: invalid choice: "),
])
def test_bad_command_line_prints_one_line(capsys, argv, line):
    from moilab import cli

    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert captured.err.startswith(line) and captured.err.count("\n") == 1


def test_help_still_prints_the_usage(capsys):
    from moilab import cli

    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: moilab verify [-h]")
