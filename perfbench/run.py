"""nmqsim benchmark: drive `nmqsim.cli.main` in a closed loop, one client.

    python3 perfbench/run.py --workload presets --seed 0 --seconds 45 --trace 0

Run from anywhere; the benchmark changes to the repository root and imports
the package from ``src/``.  Each invocation is one fresh process running one
workload (see workloads.py): the next CLI call starts only when the last
one returned.

--trace 0 measures the end-to-end metrics with no instrumentation:
    setup_s       median wall time of a fresh `python -X importtime -c
                  "import nmqsim.cli"`, over three interpreters
    wall_s        median time of one pass of the workload, over at least
                  three passes, after a warm-up pass at tiny size that runs
                  every code path once
    op_p50_ms,    latency of one CLI invocation; presets make nine per
    op_p90_ms     pass, the other workloads one
    peak_rss_mb   peak resident memory of this process
    success_rate  1 - failed / attempted operations (error_rate is printed)

--trace 1 splits the time budget between untraced and traced passes and
reports the per-layer metrics of the traced ones (see tracer.py), the
`-X importtime` breakdown and the tracing overhead.

--tiny shrinks every workload to a few seconds; selfcheck.py uses it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are
those listed in BENCHMARK.json at the repository root.  Spans of the traced
passes and a detailed record go to perfbench/out/.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR.relative_to(ROOT) / "out"

SETUP_REPS = 3  # fresh interpreters timed for setup_s, after one untimed
IMPORT_REPS = 3  # fresh interpreters for the import.* breakdown
# Timed passes per run in trace 0, whatever the budget: the median of three
# drops a pass slowed by the shared host, which the mean of two cannot.
MIN_PASSES = 3
PERCENTILES = (50, 75, 90, 95, 99)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failed, problems):
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def fresh_imports(reps):
    """Wall times and `-X importtime` breakdowns of reps fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-X", "importtime", "-c", "import nmqsim.cli"]
    walls, breakdowns = [], []
    for rep in range(reps + 1):  # the first run only fills caches
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"`import nmqsim.cli` failed:\n{proc.stderr[-2000:]}")
        if rep:
            walls.append(wall)
            breakdowns.append(tracer.parse_importtime(proc.stderr))
    return walls, breakdowns


def import_cli():
    src = ROOT / "src"
    if not (src / "nmqsim" / "cli.py").is_file():
        raise BenchError(f"no nmqsim sources under {src}")
    sys.path.insert(0, str(src))
    import nmqsim.cli

    if Path(nmqsim.cli.__file__).resolve().parent != (src / "nmqsim").resolve():
        raise BenchError(f"imported nmqsim from {nmqsim.cli.__file__}, not {src}")
    return nmqsim.cli


def run_pass(cli_main, workload, tally, recorder=None):
    """One pass of the workload; returns (pass seconds, seconds per CLI call)."""
    op_times, outputs = [], []
    start = time.perf_counter()
    for label, argv in workload.ops():
        buf = io.StringIO()
        root = recorder.root_open("cli.main") if recorder else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an escaped exception is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        op_times.append(time.perf_counter() - t0)
        if recorder:
            recorder.root_close(root)
        outputs.append((label, rc, buf.getvalue()))
    pass_s = time.perf_counter() - start
    for label, rc, stdout in outputs:
        tally.add(*workload.check(label, rc, stdout))
    return pass_s, op_times


def timed_passes(budget, min_passes, one_pass):
    """Run passes until the next one would end past budget seconds."""
    results, costs = [], []
    start = time.perf_counter()
    while len(results) < min_passes or (
        time.perf_counter() - start + statistics.median(costs) <= budget
    ):
        t0 = time.perf_counter()
        results.append(one_pass())
        costs.append(time.perf_counter() - t0)
    return results


def highest_percentile(n):
    """Highest of PERCENTILES with at least ten of n samples beyond it."""
    fit = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    return fit[-1] if fit else None


def describe(name, samples, unit, scale=1.0):
    p = highest_percentile(len(samples))
    tail = (f", p{p} {np.percentile(samples, p) * scale:.6g} {unit}" if p
            else ", too few samples for a percentile with 10 beyond it")
    return (f"{name}: median {statistics.median(samples) * scale:.6g} {unit}"
            f" over {len(samples)} samples{tail}")


def measure_end_to_end(cli, make, seconds, tally, log):
    walls, _ = fresh_imports(SETUP_REPS)
    log(describe("setup_s", walls, "s"))
    run_pass(cli.main, make(True), tally)  # warm-up
    workload = make(False)
    passes = timed_passes(seconds, MIN_PASSES,
                          lambda: run_pass(cli.main, workload, tally))
    pass_s = [p for p, _ in passes]
    ops = [t for _, times in passes for t in times]
    log(describe("wall_s", pass_s, "s"))
    log(describe("op latency", ops, "ms", 1e3))
    metrics = {
        "setup_s": statistics.median(walls),
        "wall_s": statistics.median(pass_s),
        "op_p50_ms": float(np.percentile(ops, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(ops, 90)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    return metrics, {"setup_s": walls, "pass_s": pass_s, "op_s": ops}


def measure_layers(cli, make, seconds, tally, log, trace_file):
    _, breakdowns = fresh_imports(IMPORT_REPS)
    metrics = {
        f"import.{mod}_s": statistics.median(b.get(mod, 0.0) for b in breakdowns)
        for mod in tracer.IMPORT_MODULES
    }
    run_pass(cli.main, make(True), tally)  # warm-up
    workload = make(False)
    plain = timed_passes(seconds / 2, 1, lambda: run_pass(cli.main, workload, tally))
    recorder = tracer.Recorder()
    recorder.install(sys.modules)
    per_pass = []

    def traced_pass():
        first = len(recorder.spans)
        result = run_pass(cli.main, workload, tally, recorder)
        per_pass.append(tracer.pass_metrics(recorder.spans[first:],
                                            recorder.take_fallbacks()))
        return result

    try:
        traced = timed_passes(seconds / 2, 1, traced_pass)
    finally:
        recorder.uninstall()
    for name in per_pass[0]:
        metrics[name] = statistics.median(m[name] for m in per_pass)
    plain_s = statistics.median(p for p, _ in plain)
    traced_s = statistics.median(p for p, _ in traced)
    metrics["trace.overhead_s"] = traced_s - plain_s
    if recorder.missing:
        log(f"wrap targets not found (layer times omit them): {recorder.missing}")
    log(f"untraced pass {plain_s:.6g} s over {len(plain)}, traced pass "
        f"{traced_s:.6g} s over {len(traced)}")
    total_self = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    for layer in sorted(tracer.LAYERS, key=lambda k: -metrics[f"{k}.self_s"]):
        t = metrics[f"{layer}.self_s"]
        log(f"  self {layer:15s} {t:10.6f} s  {100 * t / total_self:5.1f}%")
    with open(trace_file, "w", encoding="ascii") as fh:
        json.dump({"fields": tracer.SPAN_FIELDS, "spans": recorder.spans}, fh)
    return metrics, {"untraced_pass_s": [p for p, _ in plain],
                     "traced_pass_s": [p for p, _ in traced]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    def log(line):
        print(f"[{args.workload}] {line}", flush=True)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        os.chdir(ROOT)
        os.environ.pop("NMQ_THREADS", None)  # the CLI default worker count
        cli = import_cli()
        work = OUT / "work"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

        def make(tiny):
            return workloads.make(args.workload, args.seed, tiny or args.tiny,
                                  work / ("tiny" if tiny else "full"))

        tally = Tally()
        workers = cli._threads() if hasattr(cli, "_threads") else None
        log(f"seed {args.seed}, budget {args.seconds:g} s, nproc {os.cpu_count()}, "
            f"sweep workers {workers}")
        if args.trace:
            metrics, samples = measure_layers(cli, make, args.seconds, tally, log,
                                              OUT / f"trace-{tag}.json")
        else:
            metrics, samples = measure_end_to_end(cli, make, args.seconds, tally, log)
        shutil.rmtree(work, ignore_errors=True)
        missing = [name for name in units if name not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for problem in tally.problems[:20]:
        log(f"FAILED {problem}")
    log(f"error_rate {tally.failed}/{tally.attempted} = "
        f"{tally.failed / max(tally.attempted, 1):.6g}")
    for name, value in metrics.items():
        log(f"{name} = {value!r} {units.get(name, '')}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "nproc": os.cpu_count(), "sweep_workers": workers,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems, "metrics": metrics, "samples": samples}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="ascii")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
