"""Regenerate baseline.json with one command.

    python3 perfbench/baseline.py

For every workload of BENCHMARK.json: RUNS untraced runs of run.py with
seeds 1..RUNS and BENCHMARK.json's run_seconds (each its own process,
workloads interleaved so that drift of the machine hits all of them
alike), then one traced run at the default seed.  Records per end-to-end
metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median next to the bound from BENCHMARK.json; the traced
per-layer breakdown with its absent boundaries; the environment; and,
per workload, why it was chosen and which end-to-end metric each layer
is predicted to move.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 7
RUNS = 10

# Layer -> per workload, the end-to-end metric the layer should move.
PREDICTIONS = {
    "geometry.phi_observe": {
        "sweep_breathe": "wall_s (largest layer)",
        "sweep_long_mixed": "nothing: phi_max is overridden",
        "query_cold": "query_p50_s, query_p75_s (largest layer)"},
    "geometry.jets": {
        "sweep_breathe": "wall_s (most of all workloads)",
        "sweep_long_mixed": "wall_s",
        "query_cold": "query_p50_s, query_p75_s"},
    "geometry.pair_extremes": {
        "sweep_breathe": "wall_s", "sweep_long_mixed": "little",
        "query_cold": "little"},
    "geometry.eclipse, config.validate": {
        "sweep_breathe": "setup_s", "sweep_long_mixed": "setup_s",
        "query_cold": "setup_s"},
    "geometry.table_bounds": {
        "sweep_breathe": "wall_s (the check stage)",
        "sweep_long_mixed": "little", "query_cold": "query latency"},
    "symbolic.seed": {
        "sweep_breathe": "little", "sweep_long_mixed": "little",
        "query_cold": "query_p50_s"},
    "symbolic.chain, symbolic.newton": {
        "sweep_breathe": "wall_s", "sweep_long_mixed": "wall_s",
        "query_cold": "query_p50_s, query_p75_s"},
    "symbolic.shadow": {
        "sweep_breathe": "wall_s", "sweep_long_mixed": "wall_s",
        "query_cold": "little; none in the phi corpus"},
    "symbolic.records": {
        "sweep_breathe": "wall_s", "sweep_long_mixed": "little",
        "query_cold": "little"},
    "symbolic.ift": {
        "sweep_breathe": "wall_s",
        "sweep_long_mixed": "wall_s (largest layer)",
        "query_cold": "little"},
    "lyapunov.recursion": {
        "sweep_breathe": "nothing (<= 2%)",
        "sweep_long_mixed": "nothing (<= 2%)",
        "query_cold": "nothing (<= 2%)"},
    "lyapunov.oracle, dynamics.intersect": {
        "sweep_breathe": "nothing: not reached",
        "sweep_long_mixed": "nothing: not reached",
        "query_cold": "query_p50_s"},
    "experiments.analyze, experiments.emit": {
        "sweep_breathe": "wall_s", "sweep_long_mixed": "wall_s",
        "query_cold": "analyze: query latency; emit: not reached"},
}


def one_run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
              for line in lines
              if line.startswith(("environment ", "absent "))}
    return json.loads(lines[-1]), tagged


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3.0,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}
    runs = {name: [] for name in whys}
    env = None
    for seed in range(1, RUNS + 1):
        for name in whys:
            result, tagged = one_run(name, seed, seconds, 0)
            env = tagged["environment"]
            runs[name].append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                flush=True)

    doc = {"command": "python3 perfbench/baseline.py",
           "run_seconds": seconds, "environment": env, "workloads": {}}
    for name, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {
            "why": whys[name],
            "predictions": {layer: pred[name]
                            for layer, pred in PREDICTIONS.items()},
            "seeds": list(range(1, RUNS + 1)),
            "correct": all(r["correct"] for r in results),
            "failed_frac": {"value": failed / attempted, "failed": failed,
                            "attempted": attempted},
            "end_to_end": {
                metric: dict(unit=unit, **summarize(
                    [r["metrics"][metric]["value"] for r in results], bound))
                for metric, (unit, bound) in bounds.items()},
        }
        traced, tagged = one_run(name, DEFAULT_SEED, seconds, 1)
        entry["traced"] = {"seed": DEFAULT_SEED,
                           "correct": traced["correct"],
                           "absent": tagged["absent"],
                           "metrics": {k: v["value"] for k, v in
                                       traced["metrics"].items()}}
        doc["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:<17} {metric:<12} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f} (bound/3 {s['bound'] / 3:.4f})"
                  f"{'' if s['steady'] else '  NOT STEADY'}")
    with open(BENCH_DIR / "baseline.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
