"""Run one workload of the lgvlab benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; lgvlab is imported from its ``src``.
One client drives lgvlab in a closed loop from this process, with no
extra threads: the next op starts only after the previous one has
returned and been checked by its oracle.  Ops cycle through the inputs
generated from the seed until ``--seconds`` have passed.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``.  Each op's time is divided by the machine's slowdown
around it, gauged by the workload's calibration kernel (see
``calibration.py``); the raw figures are in the report.  ``setup_s`` is the
median, over fresh interpreters, of importing lgvlab and running the
workload's warm-up op.

With ``--trace 1`` the run replays the same ops as their constituent
public calls, with a span around each call, and reports the per-layer
metrics; the spans are written to ``.bench_out/`` when the run ends, and
the re-anchor rows of ROADMAP.md are measured again beside their figures.

Every run prints one line per metric, a JSON report (commit, Python,
nproc, guard setting, op counts by outcome, tracing overhead, output
digest, known defects), and last the JSON result line, whose ``failed``
counts the ops that went wrong in a way no known defect explains.
``LGVLAB_GUARD_LIMIT`` is removed from the environment, so every guard
stands at its built-in default.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
import spec
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 15
OVERHEAD_BUDGET_S = 0.5
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW_S = 0.5

# Runs in a fresh interpreter: gauge the machine, import lgvlab, then run
# the warm-up op.
_SETUP_CHILD = """
import contextlib, io, json, statistics, sys, time
argv, stdin, kernel = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
import calibration
kernel_s = statistics.fmean(calibration.time_kernel(kernel) for _ in range(5))
started = time.perf_counter()
import lgvlab.cli
sys.stdin = io.StringIO(stdin)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = lgvlab.cli.main(argv)
seconds = time.perf_counter() - started
print(json.dumps({"rc": rc, "seconds": seconds, "kernel_s": kernel_s,
                  "module": lgvlab.__file__}))
"""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(warmup, kernel):
    """Seconds to import lgvlab and run the warm-up op, in fresh
    interpreters, one after another; each with the calibration kernel's
    time in that interpreter."""
    argv, stdin = warmup
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, json.dumps(argv), stdin, kernel],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {proc.stderr[-500:]}")
        data = json.loads(proc.stdout.splitlines()[-1])
        if data["rc"] != 0 or not Path(data["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"setup warm-up op failed: {data}")
        samples.append((data["seconds"], data["kernel_s"]))
    return samples


class Loop:
    """Outcome counts, timings and calibration samples of a timed loop."""

    def __init__(self):
        self.outcomes = {"ok": 0, "defect": 0, "wrong": 0}
        self.defects = {}
        self.timings = []    # (started at, seconds, succeeded) per op
        self.errors = []
        self.kernel_s = []   # (taken at, seconds) per kernel run

    @property
    def attempted(self):
        return sum(self.outcomes.values())

    def record(self, op, outcome, started, elapsed, message):
        self.outcomes[outcome] += 1
        self.timings.append((started, elapsed, outcome == "ok"))
        if outcome == "defect":
            self.defects[op.defect] = self.defects.get(op.defect, 0) + 1
        elif outcome == "wrong" and len(self.errors) < 5:
            self.errors.append(message)


def run_op(workloads, op, checker, tracer=None):
    """Run one op, plainly or replayed under ``tracer``, and judge it."""
    raw = exc = hops = None
    started = perf_counter()
    try:
        if tracer is None:
            raw = workloads.call(op)
        else:
            raw, hops = workloads.replay(op, tracer)
    # The loop must survive any failure of the program under test; the
    # checker decides whether it was the op's known defect.
    except Exception as error:
        exc = error
    elapsed = perf_counter() - started
    outcome, message = checker.judge(op, raw, exc, hops)
    return outcome, started, elapsed, message


def timed_loop(workloads, pool, seconds, checker, kernel, tracer=None):
    """Run ops until ``seconds`` have passed, timing the calibration kernel
    between ops every CALIBRATE_EVERY_S."""
    loop = Loop()
    now = perf_counter()
    deadline, calibrate_at = now + seconds, now
    index = 0
    while True:
        if now >= calibrate_at:
            loop.kernel_s.append((now, calibration.time_kernel(kernel)))
            calibrate_at = perf_counter() + CALIBRATE_EVERY_S
        op = pool[index % len(pool)]
        if tracer is not None:
            tracer.op_id = index
        loop.record(op, *run_op(workloads, op, checker, tracer))
        index += 1
        now = perf_counter()
        if now >= deadline:
            return loop


def tracing_overhead(workloads, pool):
    """Traced minus untraced time over the same prefix of the op list, each
    op run both ways back to back.

    Returns the figures and the messages of any op that went wrong."""
    checker, tracer, errors = workloads.Checker(), tracing.Tracer(), []
    ops = plain_s = traced_s = 0
    while ops < len(pool) and plain_s < OVERHEAD_BUDGET_S:
        op = pool[ops]
        tracer.op_id = ops
        plain = run_op(workloads, op, checker)
        traced = run_op(workloads, op, checker, tracer)
        errors += [run[3] for run in (plain, traced) if run[0] == "wrong"]
        plain_s += plain[2]
        traced_s += traced[2]
        ops += 1
    return {"ops": ops, "untraced_s": plain_s, "traced_s": traced_s,
            "overhead_ms": 1e3 * (traced_s - plain_s),
            "overhead_frac": (traced_s - plain_s) / plain_s}, errors


def tail_percentile(ordered):
    """The highest of p99 and p90 with at least 10 samples beyond it, else
    the maximum."""
    n = len(ordered)
    for q in (99, 90):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return f"p{q}", ordered[rank - 1]
    return "max", ordered[-1]


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "lgvlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _latency_metrics(timings, ok_count):
    ordered = sorted(seconds for _, seconds, ok in timings if ok)
    label, tail = tail_percentile(ordered) if ordered else ("none", 0.0)
    return label, {
        "throughput_ops_s": ok_count / sum(seconds for _, seconds, _ in timings),
        "op_p50_ms": 1e3 * statistics.median(ordered) if ordered else 0.0,
        "op_tail_ms": 1e3 * tail,
    }


def end_to_end(loop, setup_samples, kernel, slowdown):
    """The end-to-end metrics, each op's time divided by the machine's
    slowdown around it, and the raw figures they came from."""
    factors = calibration.local_slowdowns(
        kernel, loop.kernel_s, [t for t, _, _ in loop.timings],
        CALIBRATION_WINDOW_S)
    scaled = [(t, seconds / factor, ok)
              for (t, seconds, ok), factor in zip(loop.timings, factors)]
    label, raw = _latency_metrics(loop.timings, loop.outcomes["ok"])
    _, metrics = _latency_metrics(scaled, loop.outcomes["ok"])
    raw["setup_s"] = statistics.median(seconds for seconds, _ in setup_samples)
    metrics.update({
        "ok_ops_frac": loop.outcomes["ok"] / loop.attempted,
        "setup_s": raw["setup_s"] / calibration.slowdown(
            kernel, [kernel_s for _, kernel_s in setup_samples]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    details = {"op_tail": {"percentile": label, "samples": loop.outcomes["ok"]},
               "raw_metrics": raw, "kernel": kernel, "slowdown": slowdown,
               "setup_samples": setup_samples}
    return metrics, details


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "lgvlab" / "__init__.py").is_file():
        print(f"error: no lgvlab sources at {SRC}", file=sys.stderr)
        return 2
    guard_env = os.environ.pop("LGVLAB_GUARD_LIMIT", None)
    sys.path.insert(0, str(SRC))
    import lgvlab
    if not Path(lgvlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported lgvlab from {lgvlab.__file__}", file=sys.stderr)
        return 2
    import baselines
    import workloads
    from lgvlab.guards import resolve_guard_limit

    warmup = workloads.WARMUP[args.workload]
    kernel = workloads.KERNEL[args.workload]
    setup_samples = [] if args.trace else measure_setup(warmup, kernel)
    pool = workloads.GENERATORS[args.workload](random.Random(args.seed))
    rc, _, err = workloads.run_cli(*warmup)
    if rc != 0:
        print(f"error: warm-up op failed: {err}", file=sys.stderr)
        return 1

    checker = workloads.Checker()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "load": "closed loop, one client, no extra threads",
        "guard": {"LGVLAB_GUARD_LIMIT": "unset",
                  "removed_from_environment": guard_env,
                  "limit": resolve_guard_limit()},
        "recursion_limit": sys.getrecursionlimit(),
    }
    errors = []
    if args.trace:
        tracer = tracing.Tracer()
        probe_checker = workloads.Checker()
        for index, op in enumerate(workloads.probe_ops()):
            tracer.op_id = f"{tracing.PROBE}{index}"
            outcome, _, _, message = run_op(workloads, op, probe_checker, tracer)
            if outcome == "wrong":
                errors.append(message)
        loop = timed_loop(workloads, pool, args.seconds, checker, kernel,
                          tracer)
    else:
        loop = timed_loop(workloads, pool, args.seconds, checker, kernel)
    report["tracing_overhead"], overhead_errors = tracing_overhead(
        workloads, pool)
    errors += overhead_errors

    keys = {op.key for op in pool}
    report["digest"] = dict(checker.digest(), pool_ops=len(keys),
                            complete=keys <= checker.answers.keys())
    report["ops"] = {
        "attempted": loop.attempted, **loop.outcomes,
        "failed_ops_frac": (loop.outcomes["defect"] + loop.outcomes["wrong"])
        / loop.attempted,
        "known_defects": loop.defects, "errors": loop.errors + errors[:5],
    }
    slowdown = calibration.slowdown(kernel, [s for _, s in loop.kernel_s])
    if args.trace:
        rows = baselines.BASELINES.get(args.workload, lambda tracer: [])(tracer)
        report["roadmap_baselines"] = rows
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        raw, report["layers_measured_on_probes"] = tracing.layer_metrics(tracer)
        metrics = {name: value / slowdown if units[name] in ("us", "ms") else value
                   for name, value in raw.items()}
        report.update(raw_metrics=raw, slowdown=slowdown, layer_map=[
            row for row in spec.LAYER_MAP if args.workload in row["workload"]])
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_file)
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        correct = all(row["correct"] for row in rows)
    else:
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
        metrics, details = end_to_end(loop, setup_samples, kernel, slowdown)
        report.update(details)
        report["known_defects"] = {
            name: info for name, info in spec.KNOWN_DEFECTS.items()
            if info["workload"] == args.workload}
        correct = True

    wrong = loop.outcomes["wrong"]
    correct = correct and wrong == 0 and not errors
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted, "failed": wrong,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
