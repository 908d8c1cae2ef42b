"""Command-line contract: exit codes, determinism, reproduction files."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moilab.randominst import random_instance, rng_for
from moilab.serialize import array_to_json, instance_to_json
from moilab.sharpness import MAX_ARITY

from helpers import trivial_measure


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

    rng = np.random.default_rng(7)
    t = rng.standard_normal((3, 3))
    r = rng.standard_normal((3, 3))
    e = trivial_measure(3)
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


def test_sweep_writes_inf_beyond_float_range_without_a_warning():
    # ||d||_s at s = 0.01 overflows a float from n = 4096 on: the row reads inf,
    # and the command, which succeeds, writes nothing to stderr
    proc = run_cli(
        "sweep", "--regime", "mixed-large-small", "--p1", "4", "--pm1", "2",
        "--s", "0.01", "--dims", "64,256,1024,4096",
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    *finite, last = [line.split(",") for line in proc.stdout.strip().split("\n")[1:]]
    assert len(finite) == 3 and all(float(row[4]) < float("inf") for row in finite)
    assert last[0] == "4096" and (last[4], last[6]) == ("inf", "inf")


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

    rng = np.random.default_rng(8)
    t = rng.standard_normal((3, 3))
    r = rng.standard_normal((3, 3))
    e = trivial_measure(3)
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
        rows.extend(growth_sweep(arity, regime, p1, pm1, dims, [s]))
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
    sharpness.growth_sweep(3, "mixed-large-small", 4.0, 2.0, [16, 64], [2.0])
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


# --- list fields given as other JSON values, and projective arities ---------


def _set(*path):
    """A payload edit that sets the value at the end of `path`."""

    def edit(o, value):
        for k in path[:-1]:
            o = o[k]
        o[path[-1]] = value

    return edit


_LOAD = "eval: cannot load instance: "
_TERMS = _set("integrand", "projective", "terms")
_KIND = _set("integrand", "haagerup_like", "kind")
_LONG = "x" * 100_000
_CUT = "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"  # _LONG, cut short
_MIDDLE = "middles[0] must be an (n, L, L') list of depth 3 or {\"diagonal\": <(n, L) list>}: "


@pytest.mark.parametrize(
    "cls, mutate, value, line",
    [
        ("chain", _set("measures"), 5, "measures must be a list, got 5"),
        ("chain", _set("operators"), 5, "operators must be a list, got 5"),
        ("chain", _set("measures", 0, "atoms"), 5, "atoms must be a list, got 5"),
        ("chain", _set("integrand", "haagerup", "middles"), 5, "middles must be a list, got 5"),
        ("like-first", _set("integrand", "haagerup_like", "tables"), 5,
         "tables must be a list, got 5"),
        ("projective", _TERMS, [5], "term must be a list, got 5"),
        ("projective", _TERMS, {"x": 1}, "terms must be a list, got an object of 1 keys"),
        ("projective", _TERMS, "abc", "terms must be a list, got 'abc'"),
        # a given projective arity is used as given, and one below 2 is refused
        ("projective", _set("integrand"), {"projective": {"arity": 0, "terms": []}},
         "projective arity must be >= 2, got 0"),
        ("projective", _set("integrand"), {"projective": {"arity": 1}},
         "projective arity must be >= 2, got 1"),
        # without terms, a given arity is held to the measure count before it sizes anything
        ("projective", _set("integrand"), {"projective": {"arity": 10**7, "terms": []}},
         "integrand arity 10000000 != 3 measures"),
        # a list or an object is shown by kind and length, anything else cut short
        pytest.param("chain", _set("operators", 0, 0, 0), _LONG,
                     f"not a complex scalar (number or [re, im]): {_CUT}", id="operator-leaf"),
        pytest.param("chain", _set("measures", 0, "atoms", 0, "projection", 0, 0), _LONG,
                     f"not a complex scalar (number or [re, im]): {_CUT}", id="projection-leaf"),
        pytest.param("like-first", _KIND, [[[1, 0]] * 3] * 3,
                     "kind must be a string, got a list of 3", id="list-kind"),
        pytest.param("like-first", _KIND, {"projection": [[1]]},
                     "kind must be a string, got an object of 1 keys", id="object-kind"),
        pytest.param("like-first", _KIND, _LONG,
                     f"unknown chain-like kind {_CUT}; kinds are 'first' and 'second'",
                     id="long-kind"),
        pytest.param("chain", _set("integrand"), {_LONG: {}},
                     f"unknown integrand class {_CUT}", id="long-class"),
        pytest.param("chain", _set("exponents"), {"p": _LONG},
                     f"unknown exponent string {_CUT}", id="long-exponent"),
        pytest.param("chain", _set("integrand", "haagerup", "middles", 0), {_LONG: 1},
                     _MIDDLE + f"got an object with keys [{_CUT}]", id="long-middle-key"),
        # the README CI example's middle of four axes is refused by its depth
        pytest.param("chain", _set("integrand"),
                     {"haagerup": {"head": [[1]], "middles": [[[[[1]]]]], "tail": [[1]]}},
                     _MIDDLE + "expected depth 3, got 4", id="deep-middle"),
    ],
)
def test_eval_refusal_names_the_field(tmp_path, cls, mutate, value, line):
    path = tmp_path / "instance.json"
    write_instance(path, cls)
    payload = json.loads(path.read_text())
    mutate(payload, value)
    path.write_text(json.dumps(payload))
    assert _eval_in_process(path) == (2, "", _LOAD + line + "\n")


def test_eval_refusal_of_a_wrapped_operator_list_is_short(tmp_path):
    """A d = 32 instance whose operators sit in an object: the refusal shows
    the object by kind and length, not the 32 x 32 arrays it holds."""
    path = tmp_path / "instance.json"
    inst = random_instance(rng_for(100), "chain", dim_range=(32, 32))
    payload = instance_to_json(inst)
    payload["operators"] = {"x": payload["operators"]}
    path.write_text(json.dumps(payload))
    code, out, err = _eval_in_process(path)
    line = "operators must be a list, got an object of 1 keys"
    assert (code, out, err) == (2, "", _LOAD + line + "\n")
    assert len(err) < 200


def test_eval_type_error_while_loading_propagates(tmp_path):
    """Loading refuses bad input as a ValueError; a TypeError is a defect,
    which no exit code hides."""
    from moilab import cli

    path = tmp_path / "instance.json"
    write_instance(path)
    with mock.patch.object(cli, "load_instance", side_effect=TypeError("defect")):
        with pytest.raises(TypeError, match="defect"):
            cli.main(["eval", "--instance", str(path)])


def test_eval_given_projective_arity_of_no_terms_is_the_zero_integral(tmp_path):
    path = tmp_path / "instance.json"
    write_instance(path, "projective")
    payload = json.loads(path.read_text())
    payload["integrand"] = {"projective": {"arity": 3, "terms": []}}
    path.write_text(json.dumps(payload))
    code, out, err = _eval_in_process(path)
    assert (code, err) == (0, "")
    assert not np.any(json.loads(out)["result"])


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


def _eval_file_payload(cls, hermitian=(0, 2)):
    """An instance file like the benchmark's eval-file ones: d = 64, arity 4,
    8 atoms per measure, widths 4, the measures `hermitian` names written as
    the Hermitian matrix sum_i i P_i and the others as explicit atoms."""
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
    for k in hermitian:
        h = sum(i * p for i, p in enumerate(measures[k].projections))
        payload["measures"][k] = {"hermitian": array_to_json(h)}
    return payload


def _eval_peak(tmp_path, cls, transform=lambda text: text, hermitian=(0, 2)):
    """The tracemalloc peak of `eval --out` on a `_eval_file_payload(cls,
    hermitian)` file, its text passed through `transform`, in file sizes."""
    path = tmp_path / "instance.json"
    path.write_bytes(transform(json.dumps(_eval_file_payload(cls, hermitian))).encode())
    tracemalloc.start()
    try:
        code, _, err = _eval_in_process(path, "--out", str(tmp_path / "result.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    return peak / path.stat().st_size


@pytest.fixture(scope="module")
def eval_peak(tmp_path_factory):
    """Each class's `_eval_peak`, taken once per module, as each test that
    bounds it took it on its own: on a fresh file, with nothing else traced.
    The four tests below share it, each with its own bound."""
    peaks = {}

    def peak(cls):
        if cls not in peaks:
            peaks[cls] = _eval_peak(tmp_path_factory.mktemp(f"eval-peak-{cls}"), cls)
        return peaks[cls]

    return peak


@pytest.mark.parametrize("cls", ["projective", "chain", "like-first", "like-second"])
def test_eval_peak_memory_stays_within_two_and_a_half_file_sizes(eval_peak, cls):
    # json.load's whole list tree next to the text measured 4.2 file sizes;
    # converting each measure array and each operator as it closes leaves
    # about 1.5
    assert eval_peak(cls) <= 2.5


@pytest.mark.parametrize("cls", ["projective", "chain", "like-first", "like-second"])
def test_eval_holds_no_copy_of_the_file_bytes(eval_peak, cls):
    # the file is decoded from a read-only mapping, not from a heap copy of
    # its bytes: about 1.53 file sizes, where the copy took 2.01
    assert eval_peak(cls) <= 1.85


@pytest.mark.parametrize("cls", ["projective", "chain", "like-first", "like-second"])
def test_eval_converts_each_operator_as_the_decoder_closes_it(eval_peak, cls):
    # no operator's [re, im] lists outlive the operator: about 1.53 file
    # sizes (1.55 for projective), where converting the operators after the
    # decode took 1.77
    assert eval_peak(cls) <= 1.6


@pytest.mark.parametrize("cls", ["projective", "chain", "like-first", "like-second"])
def test_eval_does_not_hold_the_file_text(eval_peak, cls):
    # the mapped file is decoded one value at a time, each from a window of
    # about one array's text, and explicit projections are checked one atom
    # at a time: about 0.74 file sizes, where the whole decoded text took 1.53
    assert eval_peak(cls) <= 0.9


def test_eval_builds_each_measure_as_the_walk_closes_it(tmp_path):
    # every measure explicit, as instance_to_json writes it: each measure is
    # built as the walk closes its object, which frees its atoms' arrays, so
    # no projection is held both in the tree and in its measure's stack:
    # about 0.52 file sizes, where building the measures after the decode
    # took 0.74
    assert _eval_peak(tmp_path, "chain", hermitian=()) <= 0.6


def test_eval_maps_a_crlf_file_as_it_maps_any_other(tmp_path):
    # a \r is whitespace to the walk of the mapping: about 0.62 file sizes,
    # where reading a file with a \r through the text handle took 3.00
    assert _eval_peak(tmp_path, "chain", lambda text: text.replace(", ", ",\r\n")) <= 0.9


def test_eval_walks_a_non_ascii_file_from_its_decoded_text(tmp_path):
    # no ASCII window of the mapping holds the note; the text decoded from
    # it is walked in place: about 2.00 file sizes, as the whole-text decode
    # took
    note = '{"note": "\u00e9t\u00e9", '
    assert _eval_peak(tmp_path, "chain", lambda text: note + text[1:]) <= 2.1


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


def _main_in_process(argv):
    """`moilab <argv>` in this process: (code, stdout, stderr), with the exit
    code of a SystemExit the parser raises."""
    from moilab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _eval_in_process(path, *flags):
    """`moilab eval --instance path [flags]` in this process: (code, stdout, stderr)."""
    return _main_in_process(["eval", "--instance", str(path), *flags])


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


def _set_termless_arity(o, value):
    o["integrand"] = {"projective": {"arity": value}}


_HUGE = "1" + "0" * 299  # a 300-digit integer literal


@pytest.mark.parametrize(
    "mutate, literal, needle",
    [
        (_set_dim, "1e300", "projection shape (3, 3) != (100000000000000005...63868654594"),
        (_set_termless_arity, "1e300", "integrand arity 100000000000000005..."),
        (_set_termless_arity, "-1e300", "projective arity must be >= 2, got -1000000000000"),
        (_set_termless_arity, _HUGE, "integrand arity 100000000000000000...0000000000000000000 "),
    ],
    ids=["dim", "arity", "negative-arity", "300-digit-arity"],
)
def test_refusal_cuts_a_huge_integer_short(tmp_path, mutate, literal, needle):
    """A `dim` or projective `arity` of up to 1e308 is shown as reprlib cuts
    it, as `_shown` shows any value: one stderr line of under 200 characters
    (360 to 662 when such an integer was written out in full)."""
    path = tmp_path / "instance.json"
    _write_with_literal(path, mutate, literal)
    code, out, err = _eval_in_process(path)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < 200 and needle in err, err


def test_refusal_keeps_an_ordinary_arity_word_for_word(tmp_path):
    path = tmp_path / "instance.json"
    _write_with_literal(path, _set_termless_arity, "10000000")
    assert _eval_in_process(path) == (2, "", _LOAD + "integrand arity 10000000 != 3 measures\n")


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


@pytest.mark.parametrize("middle", [[[[[1.0]]]], [[1.0]], [1.0], 5, "x", None])
def test_eval_names_a_middle_of_the_wrong_depth(tmp_path, middle):
    """A list middle of four or two axes, or no list at all, is refused in one
    line that names the middle and both accepted forms."""
    _, payload = _diagonal_chain_payload()
    payload["integrand"]["haagerup"]["middles"][1] = middle
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    _assert_refused(path, "cannot load instance: middles[1] must be", "depth 3", '{"diagonal"')


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
        ("first", 2, "chain-like arity 2 is outside [3, 51], one bond letter per gap"),
        ("second", 52, "chain-like arity 52 is outside [3, 51], one bond letter per gap"),
    ],
)
def test_eval_refuses_a_bad_like_kind_or_arity_in_one_line(tmp_path, kind, count, message):
    payload = instance_to_json(random_instance(rng_for(67), "like-first", (3, 3), arity=3))
    # the tables are not arrays: parsing one would give another message
    payload["integrand"] = {"haagerup_like": {"kind": kind, "tables": ["x"] * count}}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    assert _eval_in_process(path) == (2, "", f"eval: cannot load instance: {message}\n")


def _drop(*path):
    """A payload edit that deletes the key at the end of `path`."""

    def edit(o):
        for k in path[:-1]:
            o = o[k]
        del o[path[-1]]

    return edit


@pytest.mark.parametrize(
    "cls, drop, message",
    [
        ("like-first", _drop("integrand", "haagerup_like", "kind"),
         "haagerup_like integrand is missing 'kind'"),
        ("like-second", _drop("integrand", "haagerup_like", "tables"),
         "haagerup_like integrand is missing 'tables'"),
        ("chain", _drop("integrand", "haagerup", "head"), "haagerup integrand is missing 'head'"),
        ("chain", _drop("integrand", "haagerup", "tail"), "haagerup integrand is missing 'tail'"),
        ("projective", _drop("measures", 1, "atoms", 0, "point"), "atom is missing 'point'"),
        ("projective", _drop("measures", 1, "atoms", 0, "projection"),
         "atom is missing 'projection'"),
    ],
)
def test_eval_names_a_missing_key_and_its_owner(tmp_path, cls, drop, message):
    payload = instance_to_json(random_instance(rng_for(68), cls, (3, 3), arity=3))
    drop(payload)
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
    (["eval", "--instance", "{tmp}/instance.json", "--out", "{tmp}/instance.json/r.json"],
     "eval: invalid configuration: output directory '{tmp}/instance.json'"
     " exists but is not a directory"),
    (["verify", "--seed", "-1"], _CONFIG + "seed must be >= 0, got -1"),
    (["verify", "--trials", "0"], _CONFIG + "trials must be >= 1, got 0"),
    (["verify", "--dims", "0-3"], _CONFIG + "dims and widths must be >= 1"),
    (["verify", "--dims", "2-99999999999999999999"],
     _CONFIG + "--dims value 99999999999999999999 exceeds the array side cap 759250124"),
    (["verify", "--dims", "2-9999999999"],
     _CONFIG + "--dims value 9999999999 exceeds the array side cap 759250124"),
    (["verify", "--widths", "99999999999999999999"],
     _CONFIG + "--widths value 99999999999999999999 exceeds the array side cap 759250124"),
    (["verify", "--widths", "1,759250125,2"],
     _CONFIG + "--widths value 759250125 exceeds the array side cap 759250124"),
    (["verify", "--exponents", "0"],
     _CONFIG + "Schatten exponent must lie in (0, inf], got 0.0"),
    (["verify", "--exponents", "2,1"],
     _CONFIG + "exponent 1.0 < 2 is outside the hypotheses of the chain and row bounds;"
     " the extremal sweep explores that range instead"),
    (["verify", "--tol", "nan"], _CONFIG + "tolerance must be finite and >= 0, got nan"),
    (["verify", "--repro-dir", "{tmp}/no"], _CONFIG + "repro directory '{tmp}/no' does not exist"),
    (["verify", "--repro-dir", "{tmp}/instance.json"],
     _CONFIG + "repro directory '{tmp}/instance.json' exists but is not a directory"),
    ([*_SWEEP, "--regime", "tiny", "--dims", "16"],
     _CASE + f"unknown regime 'tiny'; one of {_REGIMES}"),
    ([*_SWEEP[:-1], "r/0", "--regime", "both-large", "--dims", "16"],
     _CASE + "s = 'r/0' divides by zero"),
    ([*_SWEEP, "--regime", "both-large", "--dims", "64,16"],
     _CASE + "truncation dimensions must be strictly ascending"),
    ([*_SWEEP, "--regime", "both-large", "--dims", "16384"],
     _CASE + "--dims value 16384 exceeds the sweep cap 8192"),
    ([*_SWEEP, "--regime", "both-large", "--dims", "64-99999999999999999999"],
     _CASE + "--dims value 99999999999999999999 exceeds the sweep cap 8192"),
    ([*_SWEEP, "--regime", "both-large", "--dims", "2-9999999999"],
     _CASE + "--dims value 9999999999 exceeds the sweep cap 8192"),
    ([*_SWEEP, "--regime", "both-small", "--dims", "16"],
     _CASE + "regime both-small is inconsistent with p_first = 4.0"),
    ([*_SWEEP, "--regime", "both-large", "--dims", "16", "--out", "{tmp}/no/s.csv"],
     _CASE + "output directory '{tmp}/no' does not exist"),
    ([*_SWEEP, "--regime", "both-large", "--dims", "16", "--out", "{tmp}/instance.json/s.csv"],
     _CASE + "output directory '{tmp}/instance.json' exists but is not a directory"),
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


@pytest.mark.parametrize("text", ["{not json", "[1]", '{"measures": []}'])
def test_refused_eval_leaves_the_collector_enabled(tmp_path, capsys, text):
    from moilab import cli

    path = tmp_path / "refused.json"
    path.write_text(text)
    assert gc.isenabled()
    assert cli.main(["eval", "--instance", str(path)]) == 2
    assert gc.isenabled()


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
    (["sweep", "--regime", "both-large", "--arity", "4.5", "--p1", "4", "--pm1", "4",
      "--s", "r", "--dims", "16"],
     "moilab sweep: error: argument --arity: invalid int value: '4.5'"),
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


@pytest.mark.parametrize("arity", [2, MAX_ARITY + 1])
def test_sweep_refuses_an_arity_out_of_range_in_one_line(capsys, arity):
    from moilab import cli

    code = cli.main(["sweep", "--regime", "both-large", "--arity", str(arity), "--p1", "4",
                     "--pm1", "4", "--s", "r", "--dims", "16"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"sweep: invalid case: arity must be an integer in [3, {MAX_ARITY}], got {arity}\n"
    )


def test_help_still_prints_the_usage(capsys):
    from moilab import cli

    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: moilab verify [-h]")


# --- one parser per process ------------------------------------------------------


def test_main_builds_no_parser_per_call(monkeypatch, capsys, tmp_path):
    from moilab import cli

    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    path = tmp_path / "instance.json"
    write_instance(path)
    assert cli.main(["eval", "--instance", str(path)]) == 0
    assert cli.main(["verify", "--trials", "2", "--dims", "2-3",
                     "--repro-dir", str(tmp_path)]) == 0
    assert cli.main(["sweep", "--regime", "both-large", "--p1", "4", "--pm1", "4",
                     "--s", "r", "--dims", "16"]) == 0
    assert "verify: PASS" in capsys.readouterr().out


def test_calls_in_one_process_match_calls_in_their_own(monkeypatch, tmp_path):
    # no default leaks from one subcommand to the next, and a refused command
    # line or --help leaves nothing behind for the calls after it
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, in this process and in run_cli's
    path = tmp_path / "instance.json"
    write_instance(path)
    sweep = ["sweep", "--regime", "mixed-large-small", "--p1", "3", "--pm1", "1",
             "--s", "r,0.8r,r/2", "--dims", "16,64"]
    out_json, out_csv = tmp_path / "result.json", tmp_path / "sweep.csv"
    calls = [
        (sweep, None),
        (["verify", "--trials", "1.5"], None),
        (["verify", "--help"], None),
        (["eval", "--instance", str(path), "--out", str(out_json)], out_json),
        (["eval", "--instance", str(path)], None),
        ([*sweep, "--out", str(out_csv)], out_csv),
    ]
    in_process = []
    for argv, out in calls:
        in_process.append((_main_in_process(argv), out and out.read_bytes()))
    assert [code for (code, _, _), _ in in_process] == [0, 2, 0, 0, 0, 0]
    for (argv, out), seen in zip(calls, in_process):
        if out:
            out.unlink()
        proc = run_cli(*argv)
        assert seen == ((proc.returncode, proc.stdout, proc.stderr), out and out.read_bytes())


# --- the temporary file of an atomic write ----------------------------------------


def test_out_write_steps_over_a_leftover_temporary_file(capsys, tmp_path):
    from moilab import cli

    out = tmp_path / "sweep.csv"
    stale = tmp_path / f"sweep.csv.{os.getpid()}.tmp"
    stale.write_text("left by another write\n")
    code = cli.main(["sweep", "--regime", "both-large", "--p1", "4", "--pm1", "4",
                     "--s", "r", "--dims", "16", "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert out.read_text().startswith("n,")
    assert stale.read_text() == "left by another write\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([stale.name, out.name])


def test_atomic_write_removes_only_its_own_temporary_file(monkeypatch, tmp_path):
    from moilab import cli

    out = tmp_path / "result.json"

    # a write whose move and clean-up never happen leaves its temporary file
    def no_move(src, dst):
        raise OSError(5, "Input/output error")

    with monkeypatch.context() as m:
        m.setattr(cli.os, "replace", no_move)
        m.setattr(cli.os, "remove", lambda tmp: None)
        with pytest.raises(OSError):
            cli._write_atomic(str(out), "lost\n")
    (leftover,) = tmp_path.iterdir()
    # the next write neither refuses nor removes it
    cli._write_atomic(str(out), "new\n")
    assert out.read_text() == "new\n" and leftover.read_text() == "lost\n"
    # nor does a write that fails midway, which removes its own
    _fail_writes_midway(monkeypatch)
    with pytest.raises(OSError):
        cli._write_atomic(str(out), "newer\n")
    assert out.read_text() == "new\n" and leftover.read_text() == "lost\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([leftover.name, out.name])
