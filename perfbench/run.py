"""l2calib benchmark: one workload, measured end to end or per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload sandwich-unif201 --seed 0 --seconds 50 --trace 0

``--trace 0`` times the public entry points for ``--seconds`` (and at
least MIN_CALLS calls) and reports the end-to-end metrics.  ``--trace 1``
makes one pass over the workload's datasets, each dataset once untraced
and once with spans installed, and reports the per-layer metrics.  The
last line of standard output is the result as one JSON object; the line
before it is the environment.  A record of the run, spans included, is
written to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_CALLS = 100      # p90 needs at least ten samples beyond it
MAX_SECONDS = 120.0  # stop measuring even if MIN_CALLS is not reached
SETUP_PROBES = 5


def percentile(samples: list[float], q: float, min_beyond: int = 10) -> float | None:
    """Nearest-rank q-quantile, or None when fewer than ``min_beyond``
    samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "loadavg_start": _loadavg(),
    }


def setup_probe(name: str, seed: int, workdir: Path) -> float:
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
                           str(workdir)], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, inputs, seconds: float) -> dict:
    """Untraced closed loop: one call at a time for ``seconds`` and MIN_CALLS."""
    latencies, outputs = [], []
    cpu0, start = _cpu_s(), time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        out = workload.call(inputs, k)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        outputs.append((k, out))
        k += 1
        if (t1 - start >= seconds and k >= MIN_CALLS) or t1 - start >= MAX_SECONDS:
            break
    return {"latencies": latencies, "outputs": outputs,
            "wall": time.perf_counter() - start, "cpu": _cpu_s() - cpu0}


def trace_pass(workload, inputs, spans) -> dict:
    """Each dataset once untraced and once traced, alternating which goes first."""
    tracer = spans.Tracer()
    plain = {"wall": 0.0, "cpu": 0.0, "outputs": []}
    traced = {"wall": 0.0, "outputs": []}
    for k in range(workload.datasets):
        for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
            if is_traced:
                tracer.call = k
                with spans.installed(tracer):
                    t0 = time.perf_counter()
                    out = workload.call(inputs, k)
                    traced["wall"] += time.perf_counter() - t0
                traced["outputs"].append((k, out))
            else:
                cpu0, t0 = _cpu_s(), time.perf_counter()
                out = workload.call(inputs, k)
                plain["wall"] += time.perf_counter() - t0
                plain["cpu"] += _cpu_s() - cpu0
                plain["outputs"].append((k, out))
    return {"tracer": tracer, "plain": plain, "traced": traced}


def end_to_end(workload, inputs, seed: int, seconds: float, workdir: Path, golden):
    """Setup probes, then the untraced loop; end-to-end metrics."""
    import workloads
    setup = [setup_probe(workload.name, seed, workdir) for _ in range(SETUP_PROBES)]
    workload.call(inputs, 0)  # warm-up, as in the probes
    run = measure(workload, inputs, seconds)
    ops = len(run["latencies"])
    p90 = percentile(run["latencies"], 0.9)
    if p90 is None:
        raise SystemExit(f"error: {ops} calls leave fewer than 10 beyond p90")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "reps_per_s": (ops / run["wall"], "1/s"),
        "latency_ms.p50": (statistics.median(run["latencies"]) * 1e3, "ms"),
        "latency_ms.p90": (p90 * 1e3, "ms"),
        "cpu_ms_per_op": (run["cpu"] * 1e3 / ops, "ms"),
        "peak_rss_mb": (max(own, kids) / 1024.0, "MB"),
    }
    messages = workloads.check_outputs(workload, run["outputs"], golden)
    samples = {"setup_samples": setup, "latencies_s": run["latencies"], "wall_s": run["wall"]}
    return metrics, messages, ops * len(workload.methods), samples


def per_layer(workload, inputs, golden):
    """One traced pass over the datasets; per-layer metrics."""
    import spans
    import workloads
    workload.call(inputs, 0)  # warm-up
    result = trace_pass(workload, inputs, spans)
    plain, traced = result["plain"], result["traced"]
    metrics = spans.layer_metrics(result["tracer"], workload.datasets)
    metrics["proc.cpu_to_wall"] = (plain["cpu"] / plain["wall"], "ratio")
    metrics["trace.overhead_frac"] = (traced["wall"] / plain["wall"] - 1.0, "ratio")
    messages = workloads.check_outputs(workload, plain["outputs"], golden)
    messages += workloads.check_traced(workload, plain["outputs"], traced["outputs"],
                                       result["tracer"].estimates, golden)
    attempted = 2 * workload.datasets * len(workload.methods)
    return metrics, messages, attempted, {"spans": result["tracer"].to_json()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")

    src = ROOT / "src"
    if not (src / "l2calib" / "__init__.py").is_file():
        print(f"error: l2calib sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import l2calib
    if Path(l2calib.__file__).resolve().parent != (src / "l2calib").resolve():
        print(f"error: imported l2calib from {l2calib.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    golden_doc = workloads.load_golden(workload) if args.seed == workloads.GOLDEN_SEED else None
    golden = golden_doc["datasets"] if golden_doc else None

    env = environment()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                    "golden_checked": golden is not None}
    try:
        inputs = workload.inputs(args.seed, workdir)
        if args.trace == 0:
            metrics, messages, attempted, samples = end_to_end(
                workload, inputs, args.seed, args.seconds, workdir, golden)
        else:
            metrics, messages, attempted, samples = per_layer(workload, inputs, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(samples)

    env["loadavg_end"] = _loadavg()
    failed = len(messages)
    fail_frac = failed / attempted
    result_line = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(environment=env, result=result_line, fail_frac=fail_frac,
                  problems=messages)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record))

    for msg in messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'fail_frac':40s} {fail_frac:14.6g} ratio ({failed}/{attempted} fits)")
    print(json.dumps({"environment": env}))
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
