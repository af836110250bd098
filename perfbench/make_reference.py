"""Regenerate reference.json: lambda_m and F_m of every workload at the
default seed and full size.

    python3 perfbench/make_reference.py

Run it only when a change of results is intended and declared; the
benchmark compares against the stored values within checks.REF_TOL.
Every other check must pass before the values are written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # puts the checkout's package on the path
import checks
import workloads


def main() -> int:
    reference = {}
    workdir = run.OUT_DIR / f"reference-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make_workload(name, workloads.DEFAULT_SEED,
                                         workdir)
            _, _, outcome = wl.unit(wl.setup())
            bad = run.check_unit(wl, outcome, reference=None)
            if bad:
                print(f"{name}: checks failed, reference not written",
                      *bad[:20], sep="\n", file=sys.stderr)
                return 1
            values = checks.query_values(outcome) \
                if isinstance(wl, workloads.QueryCold) \
                else checks.sweep_values(outcome.result.rows)
            reference[name] = {"seed": wl.seed, "sizes": wl.sizes,
                               "values": values}
            print(f"{name}: {len(values)} values")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
