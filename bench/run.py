"""moilab benchmark: runs `moilab.cli.main` in-process on seeded inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it reports the end-to-end metrics (set-up time and median
pass time, both in reference seconds, and the tracemalloc peak of a separate
pass); with --trace 1 it alternates untraced and traced passes and reports
the per-layer metrics. Reference seconds are wall seconds scaled by the
machine's speed, measured around each command by a fixed calibration kernel
(see bench/speed.py). The timed passes are spread over a few fresh worker
processes, started one after another, so that no one process's luck sets
the median.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it record the environment and every
metric by name with its unit. See bench/README.md.
"""

import os

# One BLAS thread, set before numpy loads, so that a BLAS thread does not
# compete with the interpreter on a small machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import RefClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# set-up is repeated at least this often and for at least this long, and
# its median reported, so that a set-up of a few milliseconds reads steadily
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
MIB = 2**20

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_mem_mib": "MiB"}


def import_program():
    """Import moilab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import moilab
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import moilab from {SRC}: {exc}")
    if Path(moilab.__file__).resolve().parent != SRC / "moilab":
        raise SystemExit(f"bench: moilab resolved to {moilab.__file__}, not {SRC}")


def per_layer_units() -> dict[str, str]:
    from tracing import COUNTS, FUNCTION_METRICS, MODULES

    names = [f"{m}.{k}" for m in MODULES for k in ("self_s", "calls")]
    names += [*FUNCTION_METRICS, *(c for c, _ in COUNTS.values()), "serialize.bytes_read"]
    units = {n: "s" if n.endswith("self_s") else "bytes" if "bytes" in n else "count" for n in names}
    units["trace_overhead_frac"] = "frac"
    return units


def git_rev() -> str:
    """The checked-out commit, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _attempt(argv):
    """`run_command(argv)`, or the exception it raised."""
    from workloads import run_command

    try:
        return run_command(argv)
    except Exception as exc:  # a crashing command is a failed item
        return exc


def run_pass(items, clock=None) -> tuple[float, list[str]]:
    """Run every item once: (seconds the commands took, failure reasons).
    The seconds are wall seconds, or with a RefClock reference seconds, each
    command timed and scaled on its own. An exception fails its item and the
    pass goes on."""
    for item in items:
        if item.out_path and os.path.exists(item.out_path):
            os.remove(item.out_path)
    gc.collect()
    if clock is None:
        start = perf_counter()
        results = [_attempt(item.argv) for item in items]
        seconds = perf_counter() - start
    else:
        results, seconds = [], 0.0
        for item in items:
            res, _, ref = clock.time(_attempt, item.argv)
            results.append(res)
            seconds += ref
    failures = []
    for item, res in zip(items, results):
        if isinstance(res, Exception):
            reason = f"raised {type(res).__name__}: {res}"
        else:
            try:
                reason = item.check(*res)
            except Exception as exc:  # unreadable output is a failed item
                reason = f"output check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"{' '.join(item.argv)}: {reason}")
    return seconds, failures


def setup(make_passes, seed: int, workdir: str, clock) -> tuple[float, list]:
    """Median reference time over repeated set-ups; the last one's passes
    are used."""
    times = []
    start = perf_counter()
    while len(times) < SETUP_REPEATS or perf_counter() - start < SETUP_SECONDS:
        passes, _, ref = clock.time(make_passes, seed, workdir)
        times.append(ref)
    return statistics.median(times), passes


def timed_passes(passes, seconds: float, clock) -> dict:
    """Timed passes, taking the item lists of `passes` in turn, until
    another would end after `seconds` (at least one)."""
    part = {"refs": [], "walls": [], "failures": [], "attempted": 0}
    start = perf_counter()
    last = 0.0
    while not part["refs"] or perf_counter() - start + last <= seconds:
        items = passes[len(part["refs"]) % len(passes)]
        pass_start, raw_before = perf_counter(), clock.raw_s
        ref, failed = run_pass(items, clock)
        part["refs"].append(ref)
        part["walls"].append(clock.raw_s - raw_before)
        part["failures"] += failed
        part["attempted"] += len(items)
        last = perf_counter() - pass_start
    part["kernel_s"] = clock.kernel_s
    return part


def timed_part(workload: str, seed: int, workdir: str, seconds: float) -> dict:
    """`timed_passes` on inputs set up anew in this process."""
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    clock = RefClock(spec.kernel)
    return timed_passes(spec.setup(seed, workdir), seconds, clock)


# a worker process that has not ended this long after its share of the
# passes was due is stopped
PART_GRACE_SECONDS = 90


def end_to_end(workload: str, seed: int, workdir: str, seconds: float, passes, setup_s: float):
    """The timed passes, in shares of `seconds` over the workload's worker
    processes, run one after another; then the first item list once more,
    here, under tracemalloc."""
    from workloads import WORKLOADS

    n = WORKLOADS[workload].processes
    parts = []
    for _ in range(n):
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds / n), "--part", workdir]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=seconds / n + PART_GRACE_SECONDS)
        if proc.returncode != 0:
            raise SystemExit(f"bench: worker process failed:\n{proc.stderr}")
        parts.append(json.loads(proc.stdout.splitlines()[-1]))
    refs = [r for part in parts for r in part["refs"]]
    walls = [w for part in parts for w in part["walls"]]
    kernel_s = [k for part in parts for k in part["kernel_s"]]
    failures = [f for part in parts for f in part["failures"]]
    attempted = sum(part["attempted"] for part in parts)
    tracemalloc.start()
    try:
        _, failed = run_pass(passes[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    failures += failed
    attempted += len(passes[0])
    metrics = {"setup_s": setup_s, "wall_ref_s": statistics.median(refs), "peak_mem_mib": peak / MIB}
    note = (
        f"{len(refs)} timed passes in {n} processes; median pass"
        f" {statistics.median(walls):.6f} wall s; calibration kernel median"
        f" {statistics.median(kernel_s):.6f} s over {len(kernel_s)} runs"
    )
    return metrics, attempted, failures, note


def per_layer(items, seconds: float, trace_path: Path):
    """Rounds of one untraced and one traced pass, swapping which goes
    first each round, until another round would end after `seconds`; self
    times and counts are the medians over the traced passes."""
    from tracing import MODULES, Tracer, install, uninstall

    tracer = Tracer()
    untraced, traced, samples, failures = [], [], [], []
    start, last_round = perf_counter(), 0.0
    while not samples or perf_counter() - start + last_round <= seconds:
        round_start = perf_counter()
        for with_trace in (False, True) if len(samples) % 2 == 0 else (True, False):
            if with_trace:
                tracer.reset()
                patches = install(tracer)
            try:
                wall, failed = run_pass(items)
            finally:
                if with_trace:
                    uninstall(patches)
            (traced if with_trace else untraced).append(wall)
            failures += failed
        samples.append(tracer.layer_metrics())
        last_round = perf_counter() - round_start
    metrics = {
        name: (statistics.median if name.endswith("self_s") else statistics.median_low)(
            s[name] for s in samples
        )
        for name in samples[0]
    }
    metrics["serialize.bytes_read"] = sum(item.bytes_in for item in items)
    base = statistics.median(untraced)
    metrics["trace_overhead_frac"] = (statistics.median(traced) - base) / base
    trace_path.write_text(json.dumps(tracer.to_json()))
    self_sum = sum(samples[-1][f"{m}.self_s"] for m in MODULES)
    note = (
        f"{len(samples)} untraced + {len(samples)} traced passes; last traced pass"
        f" {traced[-1]:.6f} s, module self times sum to {self_sum:.6f} s;"
        f" spans written to {trace_path}"
    )
    return metrics, 2 * len(samples) * len(items), failures, note


def main(argv=None) -> int:
    import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time a share of the passes in inputs set up in this directory
    parser.add_argument("--part", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.part:
        print(json.dumps(timed_part(args.workload, args.seed, args.part, args.seconds)))
        return 0

    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        spec = WORKLOADS[args.workload]
        setup_s, passes = setup(spec.setup, args.seed, str(workdir), RefClock(spec.kernel))
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failures, note = per_layer(passes[0], args.seconds, trace_path)
            units = per_layer_units()
        else:
            metrics, attempted, failures, note = end_to_end(
                args.workload, args.seed, str(workdir), args.seconds, passes, setup_s
            )
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed}: {len(passes[0])} items per pass, {note}")
    for reason in failures[:10]:
        print(f"# FAILED {reason}")
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]!r} {unit}")
    print(f"{args.workload} fail_frac {len(failures) / attempted!r} frac")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
