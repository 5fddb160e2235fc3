#!/usr/bin/env python3
"""The toricpush benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; toricpush is imported from the
checkout's ``src/``.  One process, one thread, one workload.  After set-up
(repeated, and its median reported) the workload runs in passes until
``--seconds`` is used up.  Every pass starts with all of toricpush's
``lru_cache``s cleared, as a new CLI process would, and runs every case of
the workload; each case's output is checked after its timer stops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (see
tracer.py); its counts must be identical on every traced pass.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record with the environment, per-pass data
and counts is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
from clock import CalibratedClock  # noqa: E402
from tracer import Tracer, lru_caches  # noqa: E402
from workloads import WHY, WORKLOADS, Modules  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 5
MIN_TRACED_PASSES = 2
TAIL_BEYOND = 10
# A second seed, not used while the benchmark was tuned, for confirming a
# claimed gain.
CONFIRM_SEED = 7919

END_TO_END = (
    ("cases_per_s", "1/s"),
    ("case_p50_s", "s"),
    ("case_tail_s", "s"),
    ("pass_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
)

PER_LAYER = (
    ("feasibility.calls", "count"),
    ("feasibility.input_rows", "count"),
    ("feasibility.self_s", "s"),
    ("feasibility.infeasible_ratio", "ratio"),
    ("fans.validate.calls", "count"),
    ("fans.validate.cone_pairs", "count"),
    ("fans.validate.self_s", "s"),
    ("divisors.h0.calls", "count"),
    ("divisors.h0.points", "count"),
    ("divisors.h0.self_s", "s"),
    ("divisors.h0.points_per_s", "1/s"),
    ("divisors.h0_class.hit_ratio", "ratio"),
    ("divisors.class_group.calls", "count"),
    ("divisors.kleiman.self_s", "s"),
    ("cox.graded_dimension.calls", "count"),
    ("cox.graded_dimension.hit_ratio", "ratio"),
    ("cox.graded_dimension.monomials", "count"),
    ("cox.graded_dimension.self_s", "s"),
    ("lattice.snf.calls", "count"),
    ("lattice.snf.self_s", "s"),
    ("lattice.cosets.reps", "count"),
    ("lattice.cosets.self_s", "s"),
    ("pushforward.decompose.summands", "count"),
    ("pushforward.decompose.self_s", "s"),
    ("pushforward.verify.checks", "count"),
    ("pushforward.verify.self_s", "s"),
    ("pushforward.iterate.self_s", "s"),
    ("endos.build.self_s", "s"),
    ("endos.intamp.calls", "count"),
    ("endos.intamp.self_s", "s"),
    ("io.parse.self_s", "s"),
    ("cli.run_command.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Reference figures from the ROADMAP for the commit that defined this
# benchmark (one run each, Python 3.11.7, 2 CPUs): case labels -> seconds.
# The corpus figure is the sum over the survey cases of a pass, the
# sections figure the mean over the lifts of one class.
ROADMAP_FIGURES = {
    "corpus": ("survey ", sum, "corpus survey, 15 pairs", 0.53),
    "sections": ("h0 P3 40H ", statistics.mean, "h0(P3, 40H), one lift",
                 0.51),
}


# ------------------------------------------------------------------- set-up

def import_toricpush() -> Modules:
    """Import toricpush afresh from the checkout, dropping any earlier copy."""
    for name in [n for n in sys.modules
                 if n == "toricpush" or n.startswith("toricpush.")]:
        del sys.modules[name]
    tp = importlib.import_module("toricpush")
    if Path(tp.__file__).resolve().parent != SRC / "toricpush":
        raise ImportError("toricpush imported from %s, not from %s"
                          % (tp.__file__, SRC))
    return Modules(tp=tp, cli=importlib.import_module("toricpush.cli"),
                   io=importlib.import_module("toricpush.io"),
                   errors=importlib.import_module("toricpush.errors"))


def set_up(workload, seed):
    """Import toricpush and build the workload's cases, SETUP_REPEATS times.

    Returns the cases of the last repetition and the calibrated wall time
    of each.
    """
    clock = CalibratedClock()
    times = []
    for _ in range(SETUP_REPEATS):
        cases, error, timing = clock.time(
            lambda: WORKLOADS[workload](import_toricpush(), ROOT, seed))
        if error is not None:
            raise error
        times.append(timing.wall)
    return cases, times


# ------------------------------------------------------------------- passes

class Pass:
    """Calibrated and raw times of each case of one pass, and its failures."""

    def __init__(self, traced):
        self.traced = traced
        self.walls = []
        self.cpus = []
        self.raw_walls = []
        self.raw_cpus = []
        self.failures = []  # (case label, reason)
        self.cache_info = {}

    @property
    def wall(self):
        return sum(self.walls)

    @property
    def cpu(self):
        return sum(self.cpus)


_reported = set()


def run_pass(cases, caches, tracer=None) -> Pass:
    for cache in caches.values():
        cache.cache_clear()
    result = Pass(traced=tracer is not None)
    # no calibration samples inside traced calls, to keep them out of spans
    clock = CalibratedClock(sampling=tracer is None)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for case in cases:
            out, error, timing = clock.time(case.run)
            result.walls.append(timing.wall)
            result.cpus.append(timing.cpu)
            result.raw_walls.append(timing.raw_wall)
            result.raw_cpus.append(timing.raw_cpu)
            if error is not None:
                # A case that raises is a failed case; keep measuring.
                reason = "%s: %s" % (type(error).__name__, error)
                if case.label not in _reported:
                    _reported.add(case.label)
                    traceback.print_exception(error, file=sys.stderr)
            else:
                reason = case.check(out)
            if reason:
                result.failures.append((case.label, reason))
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.cache_info = {name: tuple(cache.cache_info()[:2])
                         for name, cache in caches.items()}
    return result


def run_passes(cases, caches, seconds, tracer=None, on_traced=None):
    """Passes until the next one would overrun ``seconds``.

    With a tracer, an untraced and a traced pass alternate, and
    ``on_traced`` sees each traced pass before the next one resets the
    tracer.
    """
    passes, rounds = [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        passes.append(run_pass(cases, caches))
        if tracer is not None:
            passes.append(run_pass(cases, caches, tracer))
            on_traced(passes[-1])
        rounds.append(perf_counter() - round_start)
        enough = len(rounds) >= (MIN_TRACED_PASSES if tracer else MIN_PASSES)
        if enough and (perf_counter() - start + statistics.median(rounds)
                       > seconds):
            return passes


# ------------------------------------------------------------------ metrics

def tail(values, ncases):
    """The case-time percentile that has at least TAIL_BEYOND samples beyond
    it in every run, and the number beyond it in this one.

    Every run makes at least MIN_PASSES passes over the same cases, so the
    level is fixed per workload; a level that moved with the number of
    passes would jump between the heaviest cases from run to run.
    """
    ordered = sorted(values)
    beyond = len(ordered) * TAIL_BEYOND // (MIN_PASSES * ncases)
    level = 100.0 * (1 - TAIL_BEYOND / (MIN_PASSES * ncases))
    return ordered[len(ordered) - 1 - beyond], level, beyond


def end_to_end_metrics(passes, ncases, setup_times, attempted, failed):
    walls = [w for p in passes for w in p.walls]
    tail_value, tail_pct, beyond = tail(walls, ncases)
    values = {
        "cases_per_s": ncases / statistics.median(p.wall for p in passes),
        "case_p50_s": statistics.median(walls),
        "case_tail_s": tail_value,
        "pass_cpu_s": statistics.median(p.cpu for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    extra = {"case_tail_percentile": tail_pct, "case_tail_beyond": beyond,
             "case_samples": len(walls)}
    return values, extra


def layer_metrics(traced, untraced, counts, tracer_selfs):
    """Per-layer values from the traced passes (counts from the first)."""
    c = counts["trace"]
    cache = counts["cache_info"]

    def ratio(num, den):
        return num / den if den else 0.0

    selfs = {group: statistics.median(s[group] for s in tracer_selfs)
             for group in tracer_selfs[0]}
    h0_hits, h0_misses = cache.get("divisors.h0_class", (0, 0))
    gd_hits, gd_misses = cache.get("cox.graded_dimension", (0, 0))
    cg_hits, cg_misses = cache.get("divisors.class_group", (0, 0))
    # counters named after their metric; the cache-derived ones follow
    values = {name: c.get(name, 0) for name, unit in PER_LAYER
              if unit == "count"}
    values.update({
        "feasibility.infeasible_ratio": ratio(
            c.get("feasibility.infeasible", 0),
            c.get("feasibility.decisions", 0)),
        "divisors.h0.points_per_s": ratio(c.get("divisors.h0.points", 0),
                                          selfs["divisors.h0"]),
        "divisors.h0_class.hit_ratio": ratio(h0_hits, h0_hits + h0_misses),
        "divisors.class_group.calls": cg_hits + cg_misses,
        "cox.graded_dimension.calls": gd_hits + gd_misses,
        "cox.graded_dimension.hit_ratio": ratio(gd_hits, gd_hits + gd_misses),
        "trace.overhead_ratio": ratio(
            statistics.median(p.cpu for p in traced),
            statistics.median(p.cpu for p in untraced)),
    })
    for group, secs in selfs.items():
        values[group + ".self_s"] = secs
    return values


# -------------------------------------------------------------- environment

def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "toricpush").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(load1):
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "loadavg_1min_at_start": load1}


def roadmap_comparison(workload, passes, cases):
    """Median calibrated and raw wall time of the cases the ROADMAP quotes a
    figure for."""
    if workload not in ROADMAP_FIGURES:
        return None
    prefix, combine, what, figure = ROADMAP_FIGURES[workload]
    index = [i for i, c in enumerate(cases) if c.label.startswith(prefix)]

    def median(per_pass):
        return statistics.median(combine([t[i] for i in index])
                                 for t in per_pass)

    value = median([p.walls for p in passes])
    raw = median([p.raw_walls for p in passes])
    return {"what": what, "measured_s": value, "measured_raw_s": raw,
            "roadmap_s": figure, "ratio": value / figure}


def baseline_comparison(workload, trace, metrics):
    path = BENCH / "baseline.json"
    if not path.is_file():
        return None
    base = json.loads(path.read_text())
    ref = base.get("trace%d" % trace, {}).get(workload)
    if not ref:
        return None
    return {"baseline_commit": base.get("commit"),
            "ratios": {k: metrics[k] / ref[k] for k in ref
                       if k in metrics and ref[k]}}


# --------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toricpush" / "__init__.py").is_file():
        print("error: no toricpush sources under %s" % SRC, file=sys.stderr)
        return 2
    load1 = os.getloadavg()[0]
    sys.path.insert(0, str(SRC))
    cases, setup_times = set_up(args.workload, args.seed)
    caches = lru_caches()

    tracer = Tracer() if args.trace else None
    traced, selfs, trace_counts, first_dump = [], [], [], None

    def on_traced(p):
        nonlocal first_dump
        traced.append(p)
        # spans hold raw times: rescale them by the pass's calibration
        scale = sum(p.walls) / sum(p.raw_walls)
        selfs.append({k: v * scale
                      for k, v in tracer.group_self_times().items()})
        trace_counts.append({"trace": dict(sorted(tracer.counts.items())),
                             "cache_info": p.cache_info})
        if first_dump is None:
            first_dump = tracer.dump()

    passes = run_passes(cases, caches, args.seconds, tracer, on_traced)
    untraced = [p for p in passes if not p.traced]

    attempted = len(cases) * len(passes)
    failures = [f for p in passes for f in p.failures]
    problems = sorted({"%s: %s" % f for f in failures})
    # Cold caches make every pass do the same work: its counts must repeat.
    pass_counts = [p.cache_info for p in passes]
    if any(c != pass_counts[0] for c in pass_counts):
        problems.append("cache statistics differ between passes")
    if any(c != trace_counts[0] for c in trace_counts):
        problems.append("trace counts differ between traced passes")

    if args.trace:
        metrics = layer_metrics(traced, untraced, trace_counts[0], selfs)
        table, extra = PER_LAYER, {}
    else:
        metrics, extra = end_to_end_metrics(passes, len(cases), setup_times,
                                            attempted, len(failures))
        table = END_TO_END

    record = {
        "workload": args.workload, "why": WHY[args.workload],
        "seed": args.seed, "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(load1),
        "cache_discipline": "all %d lru_caches cleared in-process before "
                            "every pass" % len(caches),
        "cases_per_pass": len(cases), "passes": len(passes),
        "traced_passes": len(traced),
        "setup_s_all": setup_times,
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "pass_raw_wall_s": [sum(p.raw_walls) for p in passes],
        "pass_raw_cpu_s": [sum(p.raw_cpus) for p in passes],
        "case_wall_s": [p.walls for p in passes],
        "case_median_wall_s": {
            c.label: statistics.median(p.walls[i] for p in untraced)
            for i, c in enumerate(cases)},
        "counts": {"cache_info": pass_counts[0],
                   **({"trace": trace_counts[0]["trace"]} if traced else {})},
        "metrics": metrics, **extra,
        "roadmap": roadmap_comparison(args.workload, untraced, cases),
        "baseline": baseline_comparison(args.workload, args.trace, metrics),
        "problems": problems,
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1))
    if first_dump is not None:
        (OUT / (stem + "-spans.json")).write_text(json.dumps(first_dump))

    print("workload %s, seed %d, %d passes of %d cases (%d traced), "
          "load %.2f at start" % (args.workload, args.seed, len(passes),
                                  len(cases), len(traced), load1))
    for problem in problems[:20]:
        print("FAILED %s" % problem)
    for name, unit in table:
        print("%-34s %14.6g %s" % (name, metrics[name], unit))
    if extra:
        print("case_tail_s is the p%.2f of %d case times (%d beyond it)"
              % (extra["case_tail_percentile"], extra["case_samples"],
                 extra["case_tail_beyond"]))
    print("record: %s" % (OUT / (stem + ".json")).relative_to(ROOT))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in table}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
