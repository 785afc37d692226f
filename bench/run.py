"""Benchmark of the mlwos solvers: end-to-end solve metrics and per-layer
self times from traced spans.

Run from the repository root:

    python3 bench/run.py --workload square-wos --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --smoke

The library is imported from ``src/`` next to this directory, so it need
not be installed. ``MLWOS_THREADS`` is cleared and every operation passes
``threads=None``, so the library's default thread count applies.

With ``--trace 0`` operations run untraced and the last stdout line carries
the end-to-end metrics. With ``--trace 1`` each operation runs three times:
traced at the default thread count (per-layer numbers), untraced (tracing
overhead) and traced at ``threads=1`` (thread speed-up); all three must give
the same digest. Lines before the last describe the host, every operation,
the digest of the always-run prefix and, when tracing, the overhead and
where the time went. ``--smoke`` runs one tiny operation per workload twice
in each mode and checks names, units, correctness and exact counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from spans import Tracer, attribute
from workloads import WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "steps_per_s": "1/s",
    "work_steps": "steps",
    "ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Span names whose self time makes up each layer metric.
LAYERS = {
    "walk.philox.self_s": ("walk.philox",),
    "walk.directions.self_s": ("walk.directions",),
    "walk.engine.self_s": ("walk.engine", "walk.run_many"),
    "geometry.dist.self_s": ("geometry.dist",),
    "geometry.proj.self_s": ("geometry.proj",),
    "geometry.bc.self_s": ("geometry.bc",),
    "estimator.self_s": ("estimator",),
    "studies.self_s": ("studies",),
}

PER_LAYER_UNITS = {
    "walk.philox.self_s": "s",
    "walk.philox.blocks": "count",
    "walk.philox.blocks_per_s": "1/s",
    "walk.philox.useful_lane_ratio": "ratio",
    "walk.directions.self_s": "s",
    "walk.engine.self_s": "s",
    "walk.engine.iterations": "count",
    "walk.engine.rows_per_iteration": "rows",
    "walk.run_many.calls": "count",
    "walk.run_many.steps_per_s": "1/s",
    "walk.threads.speedup": "ratio",
    "geometry.dist.self_s": "s",
    "geometry.dist.points": "count",
    "geometry.proj.self_s": "s",
    "geometry.bc.self_s": "s",
    "estimator.self_s": "s",
    "estimator.walks": "count",
    "estimator.steps_per_walk": "steps",
    "studies.self_s": "s",
}

# Counts that repeat exactly at a fixed seed: (trace mode, metric).
EXACT_COUNTS = (
    (0, "work_steps"),
    (1, "walk.philox.blocks"),
    (1, "walk.engine.iterations"),
    (1, "walk.run_many.calls"),
    (1, "estimator.walks"),
)

SETUP_RUNS = 7

# Times one fresh interpreter's import of mlwos plus building the problems.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mlwos
for name in sys.argv[2:]:
    mlwos.get_problem(name)
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    pass


def load_library():
    sys.path.insert(0, str(SRC))
    try:
        import mlwos
    except ImportError as exc:
        raise BenchError(f"cannot import mlwos from {SRC}: {exc}") from None
    if SRC not in Path(mlwos.__file__).resolve().parents:
        raise BenchError(f"mlwos was imported from {mlwos.__file__}, not from {SRC}")
    return mlwos


def measure_setup(workload):
    """Median over fresh processes of import plus problem construction; one
    unrecorded run first fills the bytecode cache."""
    env = {k: v for k, v in os.environ.items() if k != "MLWOS_THREADS"}
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *workload.problems]
    samples = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        if out.returncode != 0:
            raise BenchError(f"set-up process failed: {out.stderr.strip()}")
        if i:
            samples.append(float(out.stdout))
    return statistics.median(samples)


def host_info(mlwos):
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": mlwos.estimator.resolve_threads(None),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def op_seeds(seed):
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(63)


class Runner:
    """Runs, checks and times one workload's operations."""

    def __init__(self, mlwos, workload, tiny):
        self.mlwos = mlwos
        self.workload = workload
        self.tiny = tiny
        self.problems = {name: mlwos.get_problem(name) for name in workload.problems}
        self.attempted = 0
        self.failed = 0

    def call(self, seed, threads):
        """One operation: (result, wall seconds, t0, t1). The result is None
        when the call raised; a result that fails its check is still
        returned, and both count as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.workload.run(self.mlwos, self.problems, seed, threads, self.tiny)
        except Exception:
            t1 = time.perf_counter()
            self.failed += 1
            traceback.print_exc()
            return None, t1 - t0, t0, t1
        t1 = time.perf_counter()
        problem = self.workload.check(self.problems, result, self.tiny)
        if problem is not None:
            self.fail(f"seed {seed}: {problem}")
        return result, t1 - t0, t0, t1

    def fail(self, message):
        self.failed += 1
        print(f"check failed: {message}", file=sys.stderr)


def run_untraced(runner, seeds, seconds):
    w = runner.workload
    walls, steps, prefix = [], [], []
    start = time.perf_counter()
    k = 0
    while k < w.prefix or (
        time.perf_counter() - start + statistics.median(walls or [0.0]) <= seconds
    ):
        seed = next(seeds)
        result, wall, _, _ = runner.call(seed, None)
        if result is not None:
            walls.append(wall)
            steps.append(w.steps(result))
            if k < w.prefix:
                prefix.append((w.steps(result), w.digest(result)))
            print(f"op {k}: seed={seed} wall_s={wall:.4f} steps={steps[-1]} "
                  f"digest={w.digest(result)}")
        k += 1
    if len(prefix) < w.prefix:
        raise BenchError("an operation of the always-run prefix raised")
    print(f"digest: first {w.prefix} ops = {digest([d for _, d in prefix])}")
    print(f"ops: {len(walls)} timed, {runner.failed} of {runner.attempted} failed")
    return {
        "op_s.p50": statistics.median(walls),
        "steps_per_s": sum(steps) / sum(walls),
        "work_steps": sum(s for s, _ in prefix) / w.prefix,
    }


def _lanes_per_direction(dim):
    # Box-Muller draws gaussians in pairs: dim rounded up to even lanes.
    return 2 * ((dim + 1) // 2)


def op_profile(spans, t0, t1):
    """Self time per span name and counts for one traced operation; checks
    that self times plus the unattributed remainder add up to wall time."""
    try:
        self_s, unattributed = attribute(spans, t0, t1)
    except ValueError as exc:
        raise BenchError(f"malformed spans: {exc}") from None
    wall = t1 - t0
    if unattributed < -1e-9 or abs(sum(self_s.values()) + unattributed - wall) > 1e-6 * wall:
        raise BenchError(
            f"self times {sum(self_s.values()):.6f} s + unattributed {unattributed:.6f} s "
            f"!= wall {wall:.6f} s"
        )
    c = defaultdict(float)
    for s in spans:
        if s.name == "walk.philox":
            c["blocks"] += s.counts["blocks"]
        elif s.name == "walk.directions":
            c["iterations"] += 1
            c["rows"] += s.counts["rows"]
            c["lanes"] += s.counts["rows"] * _lanes_per_direction(s.counts["dim"])
        elif s.name == "walk.run_many":
            c["calls"] += 1
            c["walks"] += s.counts["walks"]
            c["steps"] += s.counts["steps"]
            c["run_many_s"] += s.end - s.start
        elif s.name == "geometry.dist":
            c["points"] += s.counts["points"]
    return {"wall": wall, "self": self_s, "unattributed": unattributed, "counts": c}


def run_traced(runner, seeds, seconds):
    w = runner.workload
    tracer = Tracer()
    default, single, untraced_walls, traced_walls, cycles = [], [], [], [], []

    def traced(op_id, seed, threads):
        with tracer.recording(op_id):
            result, _, t0, t1 = runner.call(seed, threads)
        spans = tracer.take()
        if result is None:
            return None, None
        profile = op_profile(spans, t0, t1)
        if profile["counts"]["steps"] != w.steps(result):
            runner.fail(f"seed {seed}: run_many steps {profile['counts']['steps']:.0f} != "
                        f"reported steps {w.steps(result)}")
        return result, profile

    start = time.perf_counter()
    k = 0
    while k < w.trace_prefix or (
        time.perf_counter() - start + statistics.median(cycles or [0.0]) <= seconds
    ):
        seed = next(seeds)
        c0 = time.perf_counter()
        res_t, prof_t = traced(k, seed, None)
        res_u, wall_u, _, _ = runner.call(seed, None)
        res_1, prof_1 = traced(k, seed, 1)
        cycles.append(time.perf_counter() - c0)
        results = [r for r in (res_t, res_u, res_1) if r is not None]
        digests = {w.digest(r) for r in results}
        if len(digests) > 1:
            runner.fail(f"op {k}: digests differ between traced, untraced and threads=1 runs")
        if prof_t is not None:
            default.append(prof_t)
        elif k < w.trace_prefix:
            raise BenchError("an operation of the always-run prefix raised")
        if prof_1 is not None:
            single.append(prof_1)
        if prof_t is not None and res_u is not None:
            traced_walls.append(prof_t["wall"])
            untraced_walls.append(wall_u)
        print(f"op {k}: seed={seed} traced_s={prof_t and round(prof_t['wall'], 4)} "
              f"untraced_s={wall_u:.4f} threads1_s={prof_1 and round(prof_1['wall'], 4)} "
              f"digest={','.join(sorted(digests))}")
        k += 1

    if not single:
        raise BenchError("no threads=1 operation completed")
    metrics = layer_metrics(default[: w.trace_prefix], default, single)
    wall = sum(p["wall"] for p in default)
    shares = defaultdict(float)
    for p in default:
        for name, s in p["self"].items():
            shares[name] += s / wall
    print("self-time shares: " + ", ".join(
        f"{name} {share:.1%}" for name, share in sorted(shares.items(), key=lambda kv: -kv[1])
    ) + f", unattributed {sum(p['unattributed'] for p in default) / wall:.2%}")
    if untraced_walls:
        overhead = statistics.median(traced_walls) / statistics.median(untraced_walls)
        print(f"tracing overhead: {overhead:.4f} (traced op_s.p50 / untraced op_s.p50, "
              f"{len(traced_walls)} ops)")
    print(f"ops: {len(default)} traced, {runner.failed} of {runner.attempted} failed")
    return metrics


def layer_metrics(prefix, default, single):
    """Per-operation layer metrics: counts over the always-run prefix (exact
    at a fixed seed), times and rates over every traced operation."""
    def total(profiles, key):
        return sum(p["counts"][key] for p in profiles)

    n = len(default)
    out = {
        name: sum(p["self"].get(span, 0.0) for p in default for span in spans) / n
        for name, spans in LAYERS.items()
    }
    philox_s = out["walk.philox.self_s"] * n
    rate = total(default, "steps") / total(default, "run_many_s")
    out.update({
        "walk.philox.blocks": total(prefix, "blocks") / len(prefix),
        "walk.philox.blocks_per_s": total(default, "blocks") / philox_s,
        "walk.philox.useful_lane_ratio": total(prefix, "lanes") / (4 * total(prefix, "blocks")),
        "walk.engine.iterations": total(prefix, "iterations") / len(prefix),
        "walk.engine.rows_per_iteration": total(prefix, "rows") / total(prefix, "iterations"),
        "walk.run_many.calls": total(prefix, "calls") / len(prefix),
        "walk.run_many.steps_per_s": rate,
        "walk.threads.speedup": rate / (total(single, "steps") / total(single, "run_many_s")),
        "geometry.dist.points": total(prefix, "points") / len(prefix),
        "estimator.walks": total(prefix, "walks") / len(prefix),
        "estimator.steps_per_walk": total(prefix, "steps") / total(prefix, "walks"),
    })
    return out


def bench(args):
    os.environ.pop("MLWOS_THREADS", None)
    workload = WORKLOADS[args.workload]
    mlwos = load_library()
    setup_s = measure_setup(workload)
    print("host: " + json.dumps(host_info(mlwos)))
    runner = Runner(mlwos, workload, args.tiny)
    seeds = op_seeds(args.seed)
    # Warm-up: lazy imports, allocator and thread start-up; not counted.
    workload.run(mlwos, runner.problems, 0, None, True)
    if args.trace:
        values = run_traced(runner, seeds, args.seconds)
        units = PER_LAYER_UNITS
    else:
        values = run_untraced(runner, seeds, args.seconds)
        values["ok_share"] = 1.0 - runner.failed / runner.attempted
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    if runner.failed:
        print(f"fail_share: {runner.failed / runner.attempted:.4f}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def invoke(workload, trace):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {out.returncode}: {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def smoke():
    """Tiny operations, each workload and mode invoked twice: every metric
    in BENCHMARK.json is printed with its unit, every check passes, and the
    exact counts repeat."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the bench's")
    for name in WORKLOADS:
        runs = {trace: [invoke(name, trace) for _ in range(2)] for trace in (0, 1)}
        for trace, results in runs.items():
            for r in results:
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                if got != wanted[trace]:
                    problems.append(f"{name} trace {trace}: metrics {got} != {wanted[trace]}")
                if not r["correct"] or r["failed"]:
                    problems.append(f"{name} trace {trace}: {r['failed']} failed operations")
        for trace, metric in EXACT_COUNTS:
            a, b = (r["metrics"][metric]["value"] for r in runs[trace])
            if a != b:
                problems.append(f"{name}: {metric} differs between invocations ({a} vs {b})")
            print(f"smoke {name}: {metric} = {a}")
    for p in problems:
        print(f"smoke FAIL: {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run each workload's tiny smoke-test operation")
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload and mode with tiny operations")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = bench(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
