"""Regenerate perfbench/goldens/<workload>.json at the golden seed.

Usage (from the repository root):

    python3 perfbench/make_goldens.py [workload ...]

Runs every dataset of each workload once, untraced, and stores the parsed
outputs: per dataset and method, the simulate report row (theta is the
row mean, since each call is one replication) or the calibrate row
(theta, objective, tuning choices, standard error, status).  The traced
pass is checked against the same theta values.  Regenerate only when a
change is meant to move the estimates, and say so where the change is
recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main(names: list[str]) -> int:
    workdir = ROOT / ".perfbench_out" / "goldens-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or sorted(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]
            inputs = workload.inputs(workloads.GOLDEN_SEED, workdir)
            datasets = []
            for k in range(workload.datasets):
                output = workload.call(inputs, k)
                problems = workloads.check(workload, output, k, None)
                if problems:
                    print(f"{name} dataset {k}: {problems}", file=sys.stderr)
                    return 1
                datasets.append(workload.parse(output))
            doc = {"workload": name, "seed": workloads.GOLDEN_SEED,
                   "tolerance": workloads.TOLERANCE, "datasets": datasets}
            path = workloads.GOLDEN_DIR / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)} ({len(datasets)} datasets)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
