"""One benchmark process: set up a workload, run its passes, report as JSON.

Started by run.py from the root of a checkout, with BLAS pinned to one
thread.  It writes `READY` on stdout the moment set-up is done, so the parent
can time set-up from before the interpreter started, and one JSON object as
its last line.  With --setup-only it exits after `READY`.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
import types

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread pin)

MIN_JOBS = 100   # so that p90 has at least ten samples beyond it
PROBE_REPEATS = 3


def load_package(root):
    """Import cantorkit from `root`/src and check that it came from there."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cantorkit
    from cantorkit import (cli, core, fileio, graphs, operators, ruelle, sierpinski,
                           spectral, wavelets)
    if not os.path.abspath(cantorkit.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("cantorkit was imported from %s, not %s" % (cantorkit.__file__, src))
    modules = (core, spectral, operators, wavelets, ruelle, sierpinski, graphs, fileio, cli)
    return types.SimpleNamespace(
        core=core, spectral=spectral, operators=operators, wavelets=wavelets,
        ruelle=ruelle, sierpinski=sierpinski, graphs=graphs, fileio=fileio, cli=cli,
        CantorError=cantorkit.CantorError, MODULES=modules)


class Tally:
    """Attempts, failures and latencies of the jobs of one kind of pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.latencies = {}   # job name -> latency of each correct run
        self.errors = []

    def fail(self, job, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("%s: %s" % (job.name, message))
            print("job failed: %s: %s" % (job.name, message), file=sys.stderr)

    def typical(self):
        """(median latency, correct runs) of each job.

        Every job runs once per pass, and its typical latency is the median
        over the passes.  That keeps a burst of load from other tenants of a
        shared machine, which slows a few passes, out of the figures.
        """
        return [(statistics.median(v), len(v)) for v in self.latencies.values()]

    def jobs_per_s(self):
        """Jobs per second of job time, at the workload's job mix."""
        typical = self.typical()
        return len(typical) / sum(t for t, _ in typical) if typical else 0.0

    def percentile(self, q):
        """The q-th percentile over all correct runs, each at its job's median."""
        runs = [t for t, n in self.typical() for _ in range(n)]
        return statistics.quantiles(runs, n=100, method="inclusive")[q - 1]


def run_pass(jobs, tally, rec=None, modules=(), tag=""):
    """Run every job once, closed loop; a wrong answer or exception is a failure."""
    for index, job in enumerate(jobs):
        if job.prepare:
            job.prepare()
        if rec is not None:
            rec.job = "%s.%d" % (tag, index)
            rec.install(modules)
        tally.attempted += 1
        start = time.perf_counter()
        try:
            out = job.work()
        except Exception as exc:  # a crash is a failed job, not a failed run
            tally.busy_s += time.perf_counter() - start
            tally.fail(job, "%s: %s" % (type(exc).__name__, exc))
            continue
        finally:
            if rec is not None:
                rec.uninstall()
        elapsed = time.perf_counter() - start
        tally.busy_s += elapsed
        try:
            gauges = job.check(out)
        except Exception as exc:  # includes CheckFailed
            tally.fail(job, "%s: %s" % (type(exc).__name__, exc))
            continue
        tally.latencies.setdefault(job.name, []).append(elapsed)
        if rec is not None:
            for name, value in gauges.items():
                rec.gauge(name, value)


def untraced(workload, jobs, seconds):
    """Closed-loop passes; timings scaled to the reference host's speed.

    The workload's probe kernel runs PROBE_REPEATS times before the first
    pass and after each one.  speed = reference probe time / median probe
    time in this run, so a host in a slow phase has speed < 1 and its
    timings are scaled back.  A workload without a probe keeps speed 1.
    """
    def probe():
        return [workload.probe() for _ in range(PROBE_REPEATS)] if workload.probe else []

    tally = Tally()
    probe_s = probe()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds or tally.attempted < MIN_JOBS:
        run_pass(jobs, tally)
        probe_s += probe()
        passes += 1
    speed = workload.PROBE_REF_S / statistics.median(probe_s) if probe_s else 1.0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.runs_processes
                               else resource.RUSAGE_SELF)
    raw = {"jobs_per_s": tally.jobs_per_s(),
           "job_ms.p50": 1e3 * tally.percentile(50),
           "job_ms.p90": 1e3 * tally.percentile(90)}
    metrics = {
        "jobs_per_s": raw["jobs_per_s"] / speed,
        "job_ms.p50": raw["job_ms.p50"] * speed,
        "job_ms.p90": raw["job_ms.p90"] * speed,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    notes = {"passes": passes, "jobs_per_pass": len(jobs),
             "latency_samples": sum(n for _, n in tally.typical()),
             "fail_ratio": tally.failed / tally.attempted, "errors": tally.errors,
             "host_speed": speed, "probe_samples": len(probe_s), "unscaled": raw}
    return tally, metrics, notes


def traced(workload, jobs, seconds, rec, setup_totals, ck):
    """Alternate untraced and traced passes; per-layer figures from the traced."""
    from layers import per_layer_metrics
    from spans import per_pass

    if workload.runs_processes:
        workload.in_process = True   # spans need the package in this process
    plain, spanned = Tally(), Tally()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        run_pass(jobs, plain)
        run_pass(jobs, spanned, rec, ck.MODULES, "pass%d" % passes)
        passes += 1
    agg = per_pass(setup_totals, rec.snapshot(), passes)
    extra = {
        "trace.traced_jobs_per_s": spanned.jobs_per_s(),
        "trace.untraced_jobs_per_s": plain.jobs_per_s(),
        "trace.overhead_pct": 100.0 * (plain.jobs_per_s() / spanned.jobs_per_s() - 1.0),
    }
    ck_args = rec.last_args.get("operators.ck_relations_residual")
    if ck_args is not None:
        tracemalloc.start()
        ck.operators.ck_relations_residual(*ck_args)
        extra["operators.ck_relations_residual.peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    if workload.runs_processes:
        workload.in_process = False
        processes = Tally()
        run_pass(jobs, processes)
        extra["cli.process_s"] = processes.busy_s / processes.attempted
        plain.attempted += processes.attempted
        plain.failed += processes.failed
        plain.errors += processes.errors
    metrics = per_layer_metrics(agg, rec, extra)
    tally = Tally()
    tally.attempted = plain.attempted + spanned.attempted
    tally.failed = plain.failed + spanned.failed
    notes = {"passes": passes, "jobs_per_pass": len(jobs), "spans_kept": len(rec.spans),
             "spans_dropped": rec.dropped, "errors": plain.errors + spanned.errors}
    return tally, metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    ck = load_package(root)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](ck, args.seed, args.workdir)
    rec = None
    if args.trace:
        from layers import make_hooks, table_caches
        from spans import SpanRecorder
        rec = SpanRecorder(hooks=make_hooks(), caches=table_caches(ck))
        rec.install(ck.MODULES)
        try:
            jobs = workload.setup()
        finally:
            rec.uninstall()
        setup_totals = rec.snapshot()
    else:
        jobs = workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        tally, metrics, notes = traced(workload, jobs, args.seconds, rec, setup_totals, ck)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "dropped": rec.dropped, "spans": rec.span_records()}, fh)
    else:
        tally, metrics, notes = untraced(workload, jobs, args.seconds)
    notes.update(numpy=np.__version__, tables=workload.tables)
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics, "notes": notes}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
