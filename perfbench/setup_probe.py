"""Time one cold start: import l2calib, then make a workload's first call.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Started by run.py in a fresh interpreter, after run.py has written the
workload's inputs to <workdir>.  Prints {"setup_s": ...}.  Only the
standard library is imported before the clock starts, so the time covers
numpy, scipy and l2calib imports plus the caches the first call fills.
"""

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads
    workload = workloads.WORKLOADS[name]
    workload.call(workload.inputs(seed, workdir, write=False), 0)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
