"""Benchmark of the schubcalc library.

    python3 perfbench/run.py --workload face-matrix --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout and imports the library from its
`src/` directory only.  One process is one run, single-threaded, so every
`lru_cache` starts cold, as it does for a command-line user.  The run:

1. sets the workload up at least three times and for at least two seconds,
   each time from a fresh import of the library, and reports the median as
   `setup_s`;
2. runs whole passes over the workload's cells until `--seconds` have passed,
   clearing every library cache before each pass, so every pass starts cold;
3. checks every cell's output and that all passes give the same structural
   counts, prints a `summary` line, and prints one JSON object as the last
   line of standard output.  It exits 1 when any check failed.

Every time it reports is in reference-host seconds: a host-speed probe runs
throughout, and each interval of work is scaled by the probe's speed during
it (see hostclock.py).  The summary line keeps the raw wall times.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
untraced and traced passes alternate; the traced ones record spans around the
library's entry points (see spans.py), and the metrics are per layer, as one
set-up plus one pass, with `trace_overhead_frac`, the median traced pass time
over the median untraced one, minus 1.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import hostclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up repeats until it has run at least SETUP_REPEATS times and for at
# least SETUP_SECONDS, so a set-up of a few milliseconds gets a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# Tail percentiles, highest first.  A workload's tail is the highest one with
# at least TAIL_BEYOND cells of one pass beyond it, and the median when none
# has; it is fixed by the pass, so a faster commit running more passes keeps it.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)
TAIL_BEYOND = 10
SRC = Path(__file__).resolve().parent.parent / "src"


def import_library():
    """A fresh copy of the schubcalc modules, from this checkout's src/."""
    for name in [n for n in sys.modules if n == "schubcalc" or n.startswith("schubcalc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("schubcalc")
    if Path(pkg.__file__).resolve().parent != SRC / "schubcalc":
        raise ImportError("schubcalc imported from %s, not from %s" % (pkg.__file__, SRC))
    for sub in ("cartan", "crystals", "faces", "oracles", "pipedreams", "polytopes", "verify"):
        importlib.import_module("schubcalc." + sub)
    return pkg


def rank(n, p):
    """1-based nearest rank of percentile p among n values."""
    return max(math.ceil(p / 100.0 * n), 1)


def percentile(ordered, p):
    return ordered[rank(len(ordered), p) - 1]


def tail_percentile(cells_per_pass):
    for p in TAIL_LADDER:
        if cells_per_pass - rank(cells_per_pass, p) >= TAIL_BEYOND:
            return p
    return 50.0


def set_up(build, seed, tiny, tracer, clock):
    """Build the workload repeatedly; returns it with the (begin, end) clock
    marks of each set-up."""
    marks = []
    counts = None
    while len(marks) < SETUP_REPEATS or sum(clock.raw(*m) for m in marks) < SETUP_SECONDS:
        rep = len(marks)
        if rep:
            gc.collect()  # the previous copy's garbage, as a fresh process has none
        begin = (START, 0.0) if rep == 0 else clock.mark()
        lib = import_library()
        if tracer:
            tracer.install(lib)
            tracer.begin_unit("setup")
        with tracer.cell("setup/%d" % rep) if tracer else nullcontext():
            workload = build(lib, seed, tiny)
        if tracer:
            tracer.end_unit()
            tracer.uninstall()
        marks.append((begin, clock.mark()))
        if counts is not None and workload.setup_counts != counts:
            raise AssertionError("set-up counts differ between repeats")
        counts = workload.setup_counts
    return lib, workload, marks


def run_pass(workload, tracer, pass_id, clock):
    """Run every cell once; returns (pass marks, cell marks, counts, failures)."""
    counts = Counter()
    cells = []
    failures = []
    start = clock.mark()
    for index, cell in enumerate(workload.cells):
        begin = clock.mark()
        with tracer.cell("%s/%d" % (pass_id, index)) if tracer else nullcontext():
            try:
                counts += workload.run_cell(cell)
            except Exception as err:  # every failure is counted, none dropped
                failures.append("%s cell %d: %s: %s" % (pass_id, index, type(err).__name__, err))
        cells.append((begin, clock.mark()))
    return (start, clock.mark()), cells, counts, failures


def timed_passes(lib, workload, seconds, tracer, clock):
    """Whole cold passes until `seconds` have passed, alternating untraced and
    traced ones when tracing.  Returns {traced: [(pass marks, cell marks,
    counts)]} and the failures."""
    caches = spans.lru_caches()
    passes = {False: [], True: []}
    failures = []
    start = perf_counter()
    while not passes[False] or perf_counter() - start < seconds:
        for traced in (False, True) if tracer else (False,):
            for fn in caches:
                fn.cache_clear()
            gc.collect()  # the cleared caches' cycles, outside the timed pass
            pass_id = "%s%d" % ("traced" if traced else "pass", len(passes[traced]))
            if traced:
                tracer.install(lib)
                tracer.begin_unit("pass")
            marks, cells, counts, failed = run_pass(workload, tracer if traced else None, pass_id, clock)
            if traced:
                tracer.end_unit()
                tracer.uninstall()
            passes[traced].append((marks, cells, counts))
            failures.extend(failed)
    return passes, failures


def scale(clock, passes):
    """Pass marks to ({traced: [(scaled pass s, [scaled cell s], counts)]},
    {traced: [raw pass s]})."""
    scaled = {t: [(clock.scaled(*marks), [clock.scaled(*c) for c in cells], counts)
                  for marks, cells, counts in runs] for t, runs in passes.items()}
    raw = {t: [clock.raw(*marks) for marks, _, _ in runs] for t, runs in passes.items()}
    return scaled, raw


def end_to_end(setup_times, untraced, p_tail):
    walls = [wall for wall, _, _ in untraced]
    durations = sorted(d for _, ds, _ in untraced for d in ds)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(walls), "s"),
        "cells_per_s": (len(durations) / sum(walls), "1/s"),
        "cell_p50_ms": (percentile(durations, 50) * 1e3, "ms"),
        "cell_tail_ms": (percentile(durations, p_tail) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, pass_counts, passes):
    self_s = tracer.self_times()
    metrics = {}
    for name in spans.ENTRY_POINTS + spans.CONSTRUCTORS:
        metrics[name + ".self_s"] = (tracer.per_unit(self_s, name), "s")
    for name in spans.COUNT_CALLS:
        metrics[name + ".calls"] = (tracer.per_unit(tracer.calls, name), "count")
    for name in spans.HIT_RATIOS:
        metrics[name + ".hit_ratio"] = (tracer.hit_ratio(name), "ratio")
    for key in spans.RESULT_COUNTERS:
        metrics[key] = (tracer.per_unit(tracer.counts, key), "count")
    tried = tracer.per_unit(tracer.counts, "faces.tights_tried")
    empty = tracer.per_unit(tracer.counts, "faces.tights_empty")
    metrics["faces.empty_face_ratio"] = (empty / tried if tried else 0.0, "ratio")
    for key in workloads.PRODUCT_COUNTERS:
        metrics[key] = (pass_counts.get(key, 0), "count")
    metrics["faces.product_c.certified_frac"] = (workloads.certified_frac(pass_counts) or 0.0, "ratio")
    untraced, traced = ([wall for wall, _, _ in passes[t]] for t in (False, True))
    metrics["trace_overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="rank-two inputs, for the self-check")
    args = parser.parse_args(argv)
    if not (SRC / "schubcalc" / "__init__.py").is_file():
        print("no schubcalc sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tracer = spans.Tracer() if args.trace else None

    with hostclock.HostClock() as clock:
        build = workloads.WORKLOADS[args.workload]
        lib, workload, setup_marks = set_up(build, args.seed, args.tiny, tracer, clock)
        passes, failures = timed_passes(lib, workload, args.seconds, tracer, clock)
    setup_times = [clock.scaled(*marks) for marks in setup_marks]
    passes, raw_passes = scale(clock, passes)

    all_counts = [counts for runs in passes.values() for _, _, counts in runs]
    consistent = all(counts == all_counts[0] for counts in all_counts)
    attempted = sum(len(durations) for runs in passes.values() for _, durations, _ in runs)
    untraced_cells = sum(len(durations) for _, durations, _ in passes[False])
    p_tail = tail_percentile(len(workload.cells))
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "raw_setup_seconds": [clock.raw(*marks) for marks in setup_marks],
        "raw_pass_seconds": raw_passes[False],
        "raw_traced_pass_seconds": raw_passes[True],
        "host_speed": statistics.median(clock.speeds),
        "probes": len(clock.speeds),
        "cells_per_pass": len(workload.cells),
        "fail_frac": len(failures) / attempted,
        "certified_frac": workloads.certified_frac(all_counts[0]),
        "tail_percentile": p_tail,
        "tail_cells": untraced_cells,
        "tail_cells_beyond": untraced_cells - rank(untraced_cells, p_tail),
        "counts_consistent": consistent,
        "structural_counts": dict(sorted((workload.setup_counts + all_counts[0]).items())),
    }
    for line in failures:
        print("FAILED", line)
    print("summary", json.dumps(summary, sort_keys=True))

    if tracer:
        metrics = per_layer(tracer, all_counts[0], passes)
    else:
        metrics = end_to_end(setup_times, passes[False], p_tail)
    correct = not failures and consistent
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
