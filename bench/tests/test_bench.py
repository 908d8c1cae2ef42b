"""Self-tests of the benchmark: its gates catch wrong results and wrong
references, a crashing command fails one item without ending the pass, the
trace partitions the pass, and every metric BENCHMARK.json names is emitted.

    python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from moilab import cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small_eval(monkeypatch):
    monkeypatch.setattr(workloads, "EVAL_DIM", 8)
    monkeypatch.setattr(workloads, "EVAL_ATOMS", 4)


def test_eval_items_pass_on_the_program(tmp_path, small_eval):
    [items] = workloads.setup_eval(3, str(tmp_path))
    assert [it.bytes_in > 0 for it in items] == [True] * 4
    assert run.run_pass(items)[1] == []


def test_perturbed_result_fails_every_eval_item(tmp_path, small_eval, monkeypatch):
    [items] = workloads.setup_eval(3, str(tmp_path))
    original = cli.eval_moi
    monkeypatch.setattr(cli, "eval_moi", lambda inst: original(inst) * (1 + 1e-6))
    _, failures = run.run_pass(items)
    assert len(failures) == len(items)


def test_perturbed_reference_fails_its_item(tmp_path, small_eval, monkeypatch):
    original = workloads.eval_haagerup_block
    monkeypatch.setattr(
        workloads, "eval_haagerup_block", lambda inst: original(inst) * (1 + 1e-6)
    )
    [items] = workloads.setup_eval(3, str(tmp_path))
    _, failures = run.run_pass(items)
    assert len(failures) == 1 and "/chain.json " in failures[0]


def test_stale_output_is_not_judged(tmp_path, small_eval, monkeypatch):
    [items] = workloads.setup_eval(3, str(tmp_path))
    assert run.run_pass(items)[1] == []

    def crash(inst):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "eval_moi", crash)
    _, failures = run.run_pass(items)
    assert len(failures) == len(items)
    assert all("RuntimeError: boom" in f for f in failures)


def test_ref_clock_scales_by_the_kernel_around_each_call(monkeypatch):
    ref = speed.KERNELS["python"][1]
    kernel_times = iter([0.5 * ref, 1.5 * ref, 2.0 * ref])
    clock = speed.RefClock("python")
    monkeypatch.setattr(clock, "_kernel_seconds", lambda: next(kernel_times))
    clock.kernel_s = [clock._kernel_seconds()]
    ticks = iter([10.0, 13.0, 20.0, 21.0])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(ticks))
    # kernel 0.5 before and 1.5 after: the machine ran at reference speed
    assert clock.time(lambda x: x + 1, 1) == (2, 3.0, pytest.approx(3.0))
    # kernel 1.5 before and 2.0 after: 1.75 times slower than reference
    assert clock.time(lambda: None) == (None, 1.0, pytest.approx(1 / 1.75))
    assert clock.raw_s == 4.0


def test_every_workload_has_a_calibration_kernel():
    for name in {spec.kernel for spec in workloads.WORKLOADS.values()}:
        clock = speed.RefClock(name)
        assert clock.time(sum, [1, 2])[0] == 3 and len(clock.kernel_s) == 2


def test_clocked_pass_judges_like_a_plain_pass(tmp_path, small_eval, monkeypatch):
    [items] = workloads.setup_eval(3, str(tmp_path))
    clock = speed.RefClock("python")
    ref, failures = run.run_pass(items, clock)
    assert failures == [] and ref > 0 and len(clock.kernel_s) == 1 + len(items)
    original = cli.eval_moi
    monkeypatch.setattr(cli, "eval_moi", lambda inst: original(inst) * (1 + 1e-6))
    assert len(run.run_pass(items, clock)[1]) == len(items)


def test_verify_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "VERIFY_CAMPAIGNS", 1)
    monkeypatch.setattr(workloads, "VERIFY_PASSES", 1)
    [items] = workloads.setup_verify(0, str(tmp_path))
    for item in items:
        item.argv += ["--trials", "4"]
    assert run.run_pass(items)[1] == []
    original = cli.eval_oracle
    monkeypatch.setattr(cli, "eval_oracle", lambda inst, **kw: original(inst, **kw) + 1e-3)
    _, failures = run.run_pass(items)
    assert len(failures) == 1 and "verify: FAIL" in failures[0]


def test_verify_passes_cycle_through_distinct_campaigns(tmp_path):
    def seeds(seed):
        passes = workloads.setup_verify(seed, str(tmp_path))
        assert [len(p) for p in passes] == [workloads.VERIFY_CAMPAIGNS] * workloads.VERIFY_PASSES
        return [int(item.argv[item.argv.index("--seed") + 1]) for p in passes for item in p]

    first, second = seeds(2), seeds(3)
    assert len(set(first)) == len(first) and not set(first) & set(second)
    assert seeds(2) == first


def _sweep_csv(ratios_by_s):
    lines = ["n,s,p1,pm1,lhs,rhs,ratio"]
    for s, ratios in ratios_by_s:
        for n, ratio in zip(workloads.SWEEP_DIMS, ratios):
            lines.append(f"{n},{s!r},4,4,{ratio!r},1,{ratio!r}")
    return "\n".join(lines) + "\n"


def test_sweep_gate():
    check = workloads._sweep_check(2.0)
    good = [(2.0, [1.0] * 4), (1.6, [1, 1.1, 1.2, 1.3]), (1.0, [1, 2, 3, 4])]
    assert check(0, _sweep_csv(good)) is None
    assert check(1, _sweep_csv(good)) is not None
    off = [(2.0, [1.0, 1.0, 1.0 + 1e-6, 1.0])] + good[1:]
    assert "off 1" in check(0, _sweep_csv(off))
    falling = good[:2] + [(1.0, [1, 3, 2, 4])]
    assert "decreases" in check(0, _sweep_csv(falling))
    assert "rows" in check(0, _sweep_csv(good[:2]))


def test_sweep_exception_fails_one_item(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_DIMS", (8, 16))
    [items] = workloads.setup_sweep(0, str(tmp_path))
    assert run.run_pass(items)[1] == []
    original = cli.growth_sweep

    def flaky(arity, regime, *args, **kwargs):
        if (arity, regime) == (4, "both-small"):
            raise AssertionError("construction cross-check failed")
        return original(arity, regime, *args, **kwargs)

    monkeypatch.setattr(cli, "growth_sweep", flaky)
    _, failures = run.run_pass(items)
    assert len(failures) == 1 and "AssertionError" in failures[0]


def test_trace_partitions_the_pass(tmp_path, small_eval):
    [items] = workloads.setup_eval(3, str(tmp_path))
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        wall, failures = run.run_pass(items)
    finally:
        tracing.uninstall(patches)
    assert failures == []
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    metrics = tracer.layer_metrics()
    module_sum = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES)
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"] * len(items)
    assert module_sum == pytest.approx(sum(s[2] - s[1] for s in roots), rel=1e-9)
    assert module_sum <= wall
    assert metrics["serialize.instance_from_json.self_s"] > 0
    assert metrics["evaluate.eval_haagerup_like.self_s"] > 0
    counts = metrics["spectral.projection_stack.calls"], metrics["integrands.eval_pointwise.calls"]
    assert counts[0] > 0 and counts[1] == 0


def _emitted(monkeypatch, tmp_path, trace: int) -> dict:
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(workloads, "VERIFY_CAMPAIGNS", 1)
    monkeypatch.setattr(workloads, "VERIFY_PASSES", 2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", "verify-campaign", "--seed", "2", "--seconds", "0.01", "--trace", str(trace)]
        )
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_every_declared_metric_is_emitted(monkeypatch, tmp_path):
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _emitted(monkeypatch, tmp_path, trace)
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in metrics.items()} == declared
        assert all(np.isfinite(v["value"]) for v in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "eval-file", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
