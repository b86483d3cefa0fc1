"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a dworkbox checkout; the program is imported from
``src/`` there.  With ``--trace 0`` it repeats passes of the workload for
about S seconds and prints the end-to-end metrics; with ``--trace 1`` it runs
one untraced and one traced pass and prints the per-layer metrics, the
tracing overhead, a per-job breakdown, and writes the spans to
``.bench_out/``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import threading
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

# set-up runs at least SETUP_MIN times, and up to SETUP_MAX times while the
# repetitions so far took under SETUP_BUDGET_S, since a short set-up is noisy
SETUP_MIN = 3
SETUP_MAX = 9
SETUP_BUDGET_S = 1.0
MODULES = ("cli", "cohomology", "deformation", "operators", "polyparse",
           "superalgebra", "verify")
PROBE_INTERVAL_S = 0.05
# what one probe kernel takes on the reference machine (2 cores, CPython 3.11.7)
PROBE_REFERENCE_S = 0.00125


def _probe_kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i % 13 - 6, i % 7 + 1)
        table[i, i & 7] = acc
    return acc


class SpeedProbe:
    """Machine speed, sampled inside the timed regions.

    On a shared 2-core machine the speed of this code drifts by a fifth or
    more within seconds.  While a region runs, a SIGALRM timer runs a small
    fixed Fraction-and-dict kernel every PROBE_INTERVAL_S, and once at each
    end.  `timed` returns the region's wall time minus the probe's own time,
    scaled by PROBE_REFERENCE_S / (mean kernel time): the seconds the region
    would take on the reference machine.  Measured on `build` passes, this
    cut the interquartile range over runs from 18% of the median to 4%.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.on_sample = None    # called with each sample's duration
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _probe_kernel()
        took = perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.spent += took
        if self.on_sample is not None:
            self.on_sample(took)
        self._busy = False

    def timed(self, fn):
        """Run fn(); return (result, wall seconds, normalized seconds)."""
        self.samples = []
        self.spent = 0.0
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            start = perf_counter()
            result = fn()
            wall = perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        spent = self.spent
        self._sample()
        net = wall - spent
        return result, net, net * PROBE_REFERENCE_S / statistics.fmean(self.samples)


def import_program(src):
    """Import dworkbox afresh from `src`, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "dworkbox" or m.startswith("dworkbox.")]:
        del sys.modules[name]
    prog = types.SimpleNamespace(
        **{name: importlib.import_module("dworkbox." + name) for name in MODULES})
    origin = Path(prog.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"dworkbox was imported from {origin}, not from {src}")
    return prog


def setup(src, workdir, workload, seed):
    workdir.mkdir(parents=True)
    prog = import_program(src)
    return workloads.WORKLOADS[workload](prog, seed, workdir)


def environment(args):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "threads": threading.active_count(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_timed(workload, seconds, probe):
    """Passes until about `seconds` have gone; always at least one.

    Returns the wall and the normalized time of each pass.
    """
    walls = []
    passes = []
    attempted = 0
    failures = []
    start = perf_counter()
    while True:
        gc.collect()
        pass_start = perf_counter()
        _, wall, normalized = probe.timed(workload.run_pass)
        walls.append(wall)
        passes.append(normalized)
        n, bad = workload.check_pass()
        attempted += n
        failures += bad
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    return walls, passes, attempted, failures


def run_traced(workload, env, out_dir, probe):
    """One untraced pass, then the same pass traced; per-layer metrics.

    Both passes run under the speed probe, so the overhead compares
    normalized times; the tracer's clock leaves the probe's time out.
    """
    attempted = 0
    failures = []
    gc.collect()
    _, _, plain = probe.timed(workload.run_pass)
    n, bad = workload.check_pass()
    attempted += n
    failures += bad

    tr = tracing.Tracer()
    hooks = tracing.install(tr)
    probe.on_sample = tr.pause
    try:
        gc.collect()
        _, _, traced = probe.timed(lambda: workload.run_pass(tr.span))
    finally:
        probe.on_sample = None
        hooks.remove()
    n, bad = workload.check_pass()
    attempted += n
    failures += bad

    job_names = [f"cli.{command}.{geometry}" for command, geometry in workloads.CLI_JOBS]
    units = tracing.layer_metric_units(job_names)
    values = tracing.layer_metrics(tr, job_names)
    units["trace.overhead_ratio"] = "ratio"
    values["trace.overhead_ratio"] = traced / plain - 1.0

    print(f"trace: normalized untraced pass {plain:.3f} s, traced pass {traced:.3f} s, "
          f"overhead {100 * values['trace.overhead_ratio']:.1f}%")
    for hook, reason in hooks.unavailable:
        print(f"trace: hook {hook} unavailable ({reason}); metrics read from it report 0")
    for name, reason in tr.unreadable.items():
        print(f"trace: attributes of {name} unreadable ({reason}); metrics read from them report 0")
    roots = [s for s in tr.spans if s[1] is None]
    for sid, _, _, name, start, end, _ in roots:
        part = tracing.span_breakdown(tr.spans, {sid})
        print(f"trace: {name} {end - start:.3f} s; "
              f"presentations {part.get('cohomology.build_presentation_s', 0.0):.3f} s, "
              f"guard solvers {part['cohomology.guard_s']:.3f} s, "
              f"t_series {part.get('deformation.t_series_s', 0.0):.3f} s, "
              f"lazy solvers {part['cohomology.lazy_solver_s']:.3f} s")

    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{env['workload']}-seed{env['seed']}.jsonl"
    header = {"env": env, "unavailable": hooks.unavailable, "unreadable": tr.unreadable,
              "metrics": values,
              "aggregates": {"calls": tr.calls, "self_s": tr.self_s, "counters": tr.counters}}
    tr.write(spans_path, header)
    print(f"trace: {len(tr.spans)} spans written to {spans_path}")
    metrics = {name: metric(values[name], units[name]) for name in sorted(units)}
    return metrics, attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dworkbox" / "__init__.py").is_file():
        print(f"error: no dworkbox sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = environment(args)
    print("env: " + json.dumps(env, sort_keys=True))

    out_dir = root / ".bench_out"
    workdir = out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        probe = SpeedProbe()
        setups = []
        while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                          and sum(setups) < SETUP_BUDGET_S):
            shutil.rmtree(workdir, ignore_errors=True)
            gc.collect()
            workload, _, normalized = probe.timed(
                lambda: setup(src, workdir, args.workload, args.seed))
            setups.append(normalized)

        if args.trace:
            metrics, attempted, failures = run_traced(workload, env, out_dir, probe)
        else:
            walls, passes, attempted, failures = run_timed(workload, args.seconds, probe)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(f"passes: {len(passes)}; wall s: " + ", ".join(f"{w:.3f}" for w in walls)
                  + "; normalized s: " + ", ".join(f"{p:.3f}" for p in passes))
            metrics = {
                "pass_s": metric(statistics.median(passes), "s"),
                "setup_s": metric(statistics.median(setups), "s"),
                "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures:
        print("FAILED " + failure)
    if threading.active_count() != 1:
        print(f"error: {threading.active_count()} threads at exit", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
