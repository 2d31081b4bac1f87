"""cantorkit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports cantorkit from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are the per-layer ones.  The lines before
it give the provenance of the run and every metric with its unit.

Set-up is timed in fresh worker processes, from before the interpreter starts
to the moment the worker is ready for its first job; it is repeated
SETUP_REPEATS times and the median reported.  The last worker then runs the
jobs.  Scratch files go to .perfbench-run/ and are removed at the end, except
the result and span files a run leaves there.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wavelet-roundtrip", "transfer-sweep", "cli-cold")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
WORKER_TIMEOUT_S = 150
END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_ms.p50", "ms"),
              ("job_ms.p90", "ms"), ("peak_rss_mb", "MB"))
OUT_DIR = ".perfbench-run"


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, root, workdir, procs, setup_only, spans_out=None):
    """Start a worker; returns (process, seconds until it printed READY).

    The process is appended to `procs`, so that main() can stop it whatever
    happens.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True)
    procs.append(proc)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError("worker set-up failed (exit code %s)" % proc.returncode)
    return proc, ready


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc):
    """Wait for a worker and return its last stdout line as JSON."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError("worker ran longer than %d s" % WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def import_seconds(root):
    """Median wall time of a fresh `python -c "import cantorkit"`."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cantorkit"], cwd=root,
                       env=child_env(root), check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def provenance(root, tables, numpy_version):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        if got.returncode == 0:
            sha = got.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "cantorkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": numpy_version,
            "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "blas_threads": "OPENBLAS/OMP/MKL_NUM_THREADS=1", "tables": tables}


def measure(args, root, workdir, procs):
    """Run the workers; returns (worker result, end-to-end or per-layer metrics)."""
    setups = []
    for _ in range(SETUP_REPEATS - 1 if not args.trace else 0):
        proc, ready = start_worker(args, root, workdir, procs, setup_only=True)
        finish_setup_only(proc)
        setups.append(ready)
    spans_out = None
    if args.trace:
        spans_out = os.path.join(root, OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))
    proc, ready = start_worker(args, root, workdir, procs, setup_only=False,
                               spans_out=spans_out)
    setups.append(ready)
    result = finish(proc)
    metrics = dict(result["metrics"])
    if args.trace:
        metrics["cli.import_s"] = import_seconds(root)
        if metrics["cli.process_s"] > 0:
            metrics["cli.work_s"] = metrics["cli.process_s"] - metrics["cli.import_s"]
    else:
        metrics["setup_s"] = statistics.median(setups)
        result["notes"]["setup_samples_s"] = setups
    return result, metrics


def finish_setup_only(proc):
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError("set-up worker did not exit")
    if proc.returncode != 0:
        raise RuntimeError("set-up worker exited with code %d" % proc.returncode)


def main():
    ap = argparse.ArgumentParser(description="cantorkit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in (os.path.join("src", "cantorkit", "__init__.py"), "inputs"):
        if not os.path.exists(os.path.join(root, needed)):
            print("run.py: %s not found; run from the root of a cantorkit checkout"
                  % needed, file=sys.stderr)
            return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    workdir = os.path.join(root, OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(workdir)
    procs = []
    try:
        result, metrics = measure(args, root, workdir, procs)
    except RuntimeError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            stop(proc)
        shutil.rmtree(workdir, ignore_errors=True)

    notes = result["notes"]
    if args.trace:
        from layers import PER_LAYER
        units = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        units = list(END_TO_END)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(root, notes.pop("tables"), notes.pop("numpy")),
        "notes": notes, "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units},
    }
    with open(os.path.join(root, OUT_DIR, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(report, fh, indent=1)
    print("provenance %s" % json.dumps(report["provenance"]))
    print("notes %s" % json.dumps(notes))
    print("fail_ratio = %.6g (%d of %d jobs)"
          % (result["failed"] / result["attempted"], result["failed"], result["attempted"]))
    for name, unit in units:
        print("%s = %.6g %s" % (name, metrics[name], unit))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
