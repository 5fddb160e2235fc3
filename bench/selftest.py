#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--seconds 4] [--seed 1]

1. BENCHMARK.json names the workloads, "why" lines and metrics that
   bench/run.py and bench/workloads.py define.
2. For every workload the traced run is made twice, in two processes, with
   the same code and seed: both must be correct and give identical counts.
3. In a directory that holds only BENCHMARK.json and bench/, without the
   toricpush sources, the benchmark must fail with a nonzero exit code and
   print no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import END_TO_END, OUT, PER_LAYER  # noqa: E402
from workloads import WHY  # noqa: E402

TIMEOUT = 180


def run_bench(cwd, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT)


def check_manifest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    if {w["name"]: w["why"] for w in spec["workloads"]} != WHY:
        errors.append("workloads or their why lines differ from WHY")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(table):
            errors.append("%s metrics differ from run.py" % key)
    return errors


def counts(workload, seed):
    path = OUT / ("%s-seed%d-trace1.json" % (workload, seed))
    record = json.loads(path.read_text())
    units = dict(PER_LAYER)
    return (record["counts"],
            {k: v for k, v in record["metrics"].items()
             if units[k] == "count"})


def check_repeatable(workload, seed, seconds):
    seen = []
    for _ in range(2):
        proc = run_bench(ROOT, workload, seed, seconds, 1)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            return ["%s: traced run failed or incorrect" % workload]
        seen.append(counts(workload, seed))
    return [] if seen[0] == seen[1] else ["%s: counts differ" % workload]


def check_bare_directory():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "corpus", 1, 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return ["benchmark did not fail without the toricpush sources"]
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=4)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    errors = check_manifest()
    for workload in WHY:
        errors += check_repeatable(workload, args.seed, args.seconds)
    errors += check_bare_directory()
    for e in errors:
        print("FAIL %s" % e)
    print("selftest %s" % ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
