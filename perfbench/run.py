"""billiard-lab benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload sweep_breathe --seed 7 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
of that checkout and nowhere else.  Workloads (see workloads.py):

* ``sweep_breathe``    the shipped three-circle breathe sweep (65 points)
* ``sweep_long_mixed`` long chains on the rotating-ellipse table, phi_max
                       overridden (9 points)
* ``query_cold``       ``lyapunov --oracle`` queries from cold state

A run loads the generated configs SETUP_REPEATS times (``setup_s`` is
the median), then repeats the workload's unit, one pass over its
requests (one sweep, or a batch of queries), while the next pass is
expected to finish within ``--seconds`` (at least one pass).  Every pass
is checked for correctness.  A request's latency is the median of its
passes: on the shared 2-core machine this was sized on, a CPU-bound loop
switches between a fast and a 1.5x slower speed many times a second, so
every pass averages over both, and the median over passes is steadier
from run to run than the fastest pass, which depends on one lucky
stretch.  ``wall_s`` is the sum of these latencies and
``query_p50_s``/``query_p75_s`` are their quartiles.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` first measures untraced
for ``--seconds``, then traces one set-up plus one pass, reports the
per-layer metrics and writes the spans to ``.bench_out/traces/``.  A per-layer metric is null
when a boundary it reads is absent from the package (listed on the
``absent`` line).  The last stdout line is one JSON object; the exit
code is 1 when a check failed.

The run is one process with one solver thread: ``BILLIARD_LAB_THREADS``
is removed from the environment before the workload runs, because the
tracer's span stack is not thread-safe.  BLAS runs one thread too: the
``*_NUM_THREADS`` variables are set to 1 before numpy is imported (the
caller's values are recorded with the environment).  A second OpenBLAS
thread doubles the CPU the long-chain sweep burns without shortening it
on a 2-core machine, and makes its time depend on whatever else runs on
the other core.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
CALLER_THREAD_ENV = {k: os.environ[k] for k in BLAS_THREAD_VARS
                     if k in os.environ}
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))


def _import_package():
    """Put this checkout's src/ first on the path; refuse to run without it
    so that an installed copy elsewhere is never measured."""
    if not (SRC / "billiard_lab" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'billiard_lab'}; "
                 "run from the root of a billiard-lab checkout")
    sys.path.insert(0, str(SRC))
    import billiard_lab
    if Path(billiard_lab.__file__).resolve().parent != SRC / "billiard_lab":
        sys.exit(f"error: billiard_lab imported from {billiard_lab.__file__}")


_import_package()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("query_p50_s", "s"),
              ("query_p75_s", "s"), ("peak_rss_mb", "MB"))


def quartiles(xs):
    """(q1, median, q3); a single sample is its own quartiles."""
    xs = list(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "caller_thread_env": CALLER_THREAD_ENV,
        "commit": _git_commit(),
    }


def check_unit(wl, outcome, reference) -> list:
    """Failure messages for one unit's outputs; ``reference`` holds the
    stored values when they apply to this seed and size, else None."""
    if isinstance(wl, workloads.QueryCold):
        bad = [m for out in outcome for m in checks.check_query(out)]
        if reference is not None:
            bad += checks.check_reference(checks.query_values(outcome),
                                          reference)
        return bad
    result = outcome.result
    bad = [f"{ident} at alpha={alpha:.6g}: {err}"
           for ident, alpha, err in result.failures]
    bad += checks.check_sweep_rows(result.rows, outcome.cfg.tol_orbit)
    bad += checks.check_continuity(result.summary)
    if wl.name == "sweep_breathe":
        bad += checks.check_breathe_closed_form(result.rows)
    if reference is not None:
        bad += checks.check_reference(checks.sweep_values(result.rows),
                                      reference)
    return bad


def measure(wl, seconds: float, reference) -> dict:
    """Untraced: repeated set-up, then passes for about ``seconds``;
    ``latency`` holds each request's median latency over the passes."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cfgs = wl.setup()
        setups.append(time.perf_counter() - t0)
    units, passes, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        wall, lats, outcome = wl.unit(cfgs)
        units.append(wall)
        passes.append(lats)
        attempted += wl.attempted_per_unit(cfgs)
        failures += check_unit(wl, outcome, reference)
        if time.perf_counter() - start + statistics.median(units) > seconds:
            break
    return {"setups": setups, "units": units,
            "latency": [statistics.median(lat) for lat in zip(*passes)],
            "attempted": attempted, "failures": failures}


def traced_unit(wl, untraced_wall: float, reference, trace_path: Path,
                env: dict):
    """One traced set-up and unit; per-layer metrics and the span dump."""
    tracer = Tracer()
    with tracer:
        cfgs = wl.setup()
        wall, _, outcome = wl.unit(cfgs)
    failures = check_unit(wl, outcome, reference)
    metrics = tracer.metrics(overhead_s=wall - untraced_wall)
    tracer.write(trace_path, {"workload": wl.name, "seed": wl.seed,
                              "sizes": wl.sizes, "environment": env,
                              "traced_wall_s": wall,
                              "untraced_wall_s": untraced_wall,
                              "metrics": metrics})
    return metrics, wl.attempted_per_unit(cfgs), failures, tracer.absent


def run(wl, seconds: float, trace: bool, env: dict):
    """Measure one workload; returns (result object, human-readable lines)."""
    reference = checks.reference_for(wl.name, wl.seed, wl.sizes)
    m = measure(wl, seconds, reference)
    attempted, failures = m["attempted"], list(m["failures"])
    lines = [f"workload {wl.name} seed {wl.seed}: {len(m['units'])} "
             f"pass(es) of {len(m['latency'])} request(s), "
             f"set-up x{len(m['setups'])}"]
    s_q1, s_med, s_q3 = quartiles(m["setups"])
    w_q1, w_med, w_q3 = quartiles(m["units"])
    wall = sum(m["latency"])
    lines.append(f"setup_s      {s_med:.6f} s  (q1 {s_q1:.6f}, q3 {s_q3:.6f})")
    lines.append(f"wall_s       {wall:.6f} s  (median per request; pass median "
                 f"{w_med:.6f}, q1 {w_q1:.6f}, q3 {w_q3:.6f})")
    if trace:
        trace_path = OUT_DIR / "traces" / f"{wl.name}-seed{wl.seed}.json"
        metrics, t_att, t_fail, absent = traced_unit(wl, w_med, reference,
                                                     trace_path, env)
        attempted += t_att
        failures += t_fail
        units = dict(LAYER_METRICS)
        lines += [f"{name:<40} {'null' if value is None else f'{value:.6g}'}"
                  f" {units[name]}" for name, value in metrics.items()]
        lines.append("absent " + json.dumps(absent))
        lines.append(f"spans written to {trace_path}")
    else:
        _, p50, p75 = quartiles(m["latency"])
        metrics = {"setup_s": s_med, "wall_s": wall, "query_p50_s": p50,
                   "query_p75_s": p75,
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = dict(END_TO_END)
        lines += [f"{name:<12} {metrics[name]:.6f} {units[name]}"
                  for name in ("query_p50_s", "query_p75_s", "peak_rss_mb")]
    # one row can fail several checks; count at most one failure per
    # attempted operation
    failed = min(len(failures), attempted)
    lines.append(f"failed_frac  {failed / attempted:.6f} ratio  "
                 f"({failed} failed of {attempted} attempted)")
    lines += [f"CHECK FAILED: {msg}" for msg in failures[:20]]
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    os.environ.pop("BILLIARD_LAB_THREADS", None)
    env = environment()
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.make_workload(args.workload, args.seed, workdir)
        result, lines = run(wl, args.seconds, bool(args.trace), env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("environment " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
