"""Benchmark of ``maflow``: training and evaluation throughput, memory, set-up and layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload toy --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

A single workload prints human-readable lines and, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones.  ``--workload all`` runs
every workload untraced and traced and ends with a summary table that
includes the cost of tracing.  ``toy`` runs here but is not in
BENCHMARK.json: on a small shared machine its figures spread by a third
from run to run, too much to gate on.

Each measurement runs in a fresh worker process whose BLAS thread count is
set here.  Set-up time is measured in that worker and in SETUP_SAMPLES
further processes that only set up, and reported as the median.  Results,
the environment record and the spans of traced runs are also written under
``.perfbench_out/``.  The exit code is 0 only when every correctness check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("toy", "ising8", "mnist-shape")

SETUP_SAMPLES = 4          # extra set-up-only processes per run
RUN_TIMEOUT_S = 170.0

# Environment of every worker process.  One BLAS thread: on a small shared
# machine a second thread made steps slower and far less steady.  glibc's
# malloc adapts its mmap and trim thresholds to the allocation history, so
# the per-step cost of faulting in the tape's pages changed from run to run
# by up to 2x; pinning both keeps freed memory in the heap and makes each
# step pay for compute, not for page faults.  The tape's memory shows in
# peak_rss_mb.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),   # the largest value glibc accepts
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_rev(root):
    """Commit of the checkout read from .git, or 'unknown' outside a git clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# worker side: imports the library


def worker_env():
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "malloc": {k: os.environ[k] for k in ("MALLOC_MMAP_THRESHOLD_",
                                                  "MALLOC_TRIM_THRESHOLD_") if k in os.environ}}


def work(workload, seed, seconds, trace, t0, out_dir, setup_only=False, tiny=False):
    """Set up one workload and measure it; returns a JSON-ready dict.

    ``t0`` is the ``time.monotonic()`` reading taken when this process was
    started, so that set-up time covers interpreter start and imports.
    """
    import shutil
    import tempfile

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import measure
    import workloads

    w = workloads.WORKLOADS[workload]
    if tiny:
        w = workloads.tiny(w)
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    try:
        inputs = workloads.prepare(w, seed, work_dir)
        workloads.warm_up(inputs, work_dir)
        setup_s = time.monotonic() - t0
        if setup_only:
            return {"setup_s": setup_s}
        if trace:
            outcome, tracer = measure.run_traced(inputs, seconds, work_dir)
            tracer.write(os.path.join(out_dir, f"spans-{workload}-seed{seed}.json"))
        else:
            outcome = measure.run_untraced(inputs, seconds, work_dir)
            outcome.put("setup_s", setup_s, "s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {"metrics": outcome.metrics, "attempted": outcome.attempted,
            "failed": outcome.failed, "notes": outcome.notes, "env": worker_env()}


# ---------------------------------------------------------------------------
# parent side: standard library only


def _spawn(args, role, deadline):
    env = {**os.environ, **WORKER_ENV}
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} process for {args.workload} ran past its deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process for {args.workload} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure_one(args):
    """One workload in fresh processes; returns the worker's result dict."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    if not args.trace:
        setups = [_spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    res = _spawn(args, "worker", deadline)
    if not args.trace and "setup_s" in res["metrics"]:
        setups.append(res["metrics"]["setup_s"][0])
        res["metrics"]["setup_s"] = [statistics.median(setups), "s"]
        res["notes"]["setup_samples"] = len(setups)
    res["env"].update(git_rev=git_rev(ROOT), nproc=_nproc(), seed=args.seed,
                      workload=args.workload, trace=args.trace, seconds=args.seconds)
    return res


def report(res, names):
    """Human-readable lines, then the result line; returns whether all checks passed."""
    metrics, notes = res["metrics"], res["notes"]
    print(f"perfbench {res['env']['workload']} seed={res['env']['seed']} "
          f"trace={res['env']['trace']}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    computed = set(notes.get("computed", []))
    for name in names:
        if name in metrics:
            value, unit = metrics[name]
            tag = "  [computed]" if name in computed else ""
            print(f"  {name:40s} {value:14.6g} {unit}{tag}")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'error_rate':40s} {rate:14.6g} ratio  ({res['failed']} failed / "
          f"{res['attempted']} attempted)")
    print("notes " + json.dumps(notes, sort_keys=True))
    correct = res["failed"] == 0 and res["attempted"] > 0 and all(n in metrics for n in names)
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                                  for k in names if k in metrics}}))
    sys.stdout.flush()
    return correct


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def save_result(res):
    os.makedirs(OUT_DIR, exist_ok=True)
    env = res["env"]
    path = os.path.join(OUT_DIR, f"{env['workload']}-seed{env['seed']}-trace{env['trace']}.json")
    with open(path, "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)


def run_all(args):
    """Every workload untraced and traced, then a summary with the tracing overhead."""
    ok, rows = True, []
    for name in WORKLOAD_NAMES:
        per = {}
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
            res = measure_one(sub)
            save_result(res)
            ok &= report(res, metric_names(trace))
            per[trace] = res["metrics"]
        rows.append((name, per))
    if not ok:
        return False
    print("summary")
    print(f"  {'workload':12s} {'train rows/s':>13s} {'traced rows/s':>14s} {'overhead':>9s} "
          f"{'in-loop ratio':>14s} {'eval rows/s':>12s} {'peak MB':>8s} {'setup s':>8s}")
    for name, per in rows:
        plain, traced = per[0]["train_rows_per_s"][0], per[1]["trace.train_rows_per_s"][0]
        print(f"  {name:12s} {plain:13.4g} {traced:14.4g} {plain / traced - 1:9.1%} "
              f"{per[1]['trace.overhead_ratio'][0]:14.4g} {per[0]['eval_rows_per_s'][0]:12.4g} "
              f"{per[0]['peak_rss_mb'][0]:8.1f} {per[0]['setup_s'][0]:8.3f}")
    return True


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "worker", "setup"), default="main",
                   help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "maflow", "__init__.py")):
        print(f"perfbench: no maflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.role != "main":
        res = work(args.workload, args.seed, args.seconds, args.trace, args.t0, OUT_DIR,
                   setup_only=args.role == "setup")
        print(json.dumps(res))
        return 0
    try:
        if args.workload == "all":
            return 0 if run_all(args) else 1
        res = measure_one(args)
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    save_result(res)
    return 0 if report(res, metric_names(args.trace)) else 1


if __name__ == "__main__":
    sys.exit(main())
