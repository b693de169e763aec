"""Self-check of the benchmark at tiny size; not part of the test suite.

    python3 perfbench/selfcheck.py

Runs every workload with --tiny once untraced and twice traced, and
asserts that
  * every metric named in BENCHMARK.json is emitted with its unit,
  * no operation failed (error_rate is 0),
  * the exact counters of the traced runs match between the two runs.
Takes about a minute.  Timings are not checked: they are noisy, and the
acceptance tests keep their own budgets.
"""

import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXACT_UNITS = ("count", "B", "calls/event")


def run(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in workloads.WORKLOADS:
        results = {0: [run(workload, 0)], 1: [run(workload, 1), run(workload, 1)]}
        for trace, runs in results.items():
            wanted = spec["per_layer" if trace else "end_to_end"]
            for result in runs:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                want = {m["name"]: m["unit"] for m in wanted}
                if got != want:
                    problems.append(f"{workload} trace {trace}: metrics {got} != {want}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{workload} trace {trace}: failed operations {result}")
        first, second = (r["metrics"] for r in results[1])
        for name, metric in first.items():
            if metric["unit"] in EXACT_UNITS and metric["value"] != second[name]["value"]:
                problems.append(f"{workload}: counter {name} {metric['value']} "
                                f"then {second[name]['value']}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
