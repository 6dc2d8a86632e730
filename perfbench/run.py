"""Repository benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload paper-table1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced phase (plus
the tracing overhead against an untraced phase of the same length).
Stdout ends with a context line and then the result line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Everything the run writes stays under ``.perfbench/`` in the checkout:
the compiled-kernel cache, temporary job roots, and one JSON result
(plus the spans, when traced) per run in ``.perfbench/results/``.
See ``perfbench/README.md`` for the workloads and the layer table.
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

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-table1", "grid-1e5", "serve-small")

#: set-up is repeated this many times per run; its median is reported.
SETUP_REPS = 3

#: every end-to-end metric with its unit, in report order.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "peak_rss_mb": "MB",
    "verified_fraction": "fraction",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile``'s default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def two_process_scaling() -> float:
    """Throughput of two concurrent busy processes over one alone."""
    code = (
        "import time\nt = time.perf_counter()\nx = 0\n"
        "for i in range(3_000_000):\n    x += i\nprint(time.perf_counter() - t)"
    )

    def launch() -> subprocess.Popen:
        return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)

    alone = float(launch().communicate()[0])
    pair = [launch(), launch()]
    together = max(float(p.communicate()[0]) for p in pair)
    return 2 * alone / together


def run_context(kernel_warm: bool) -> dict:
    import numpy

    from repro.core import engine

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "two_process_scaling": two_process_scaling(),
        "backend": engine.resolve_backend(),
        "default_threads": engine.default_threads(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_cache_warm": kernel_warm,
    }


def end_to_end(phases, setup_s: float, attempted: int, failed: int) -> dict[str, float]:
    verified = sum(p.scenarios - p.failed for p in phases)
    latencies = [x for p in phases for x in p.latencies]
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return {
        "setup_s": setup_s,
        "scenarios_per_s": verified / sum(p.wall_s for p in phases),
        "peak_rss_mb": rss_kb / 1024,
        "verified_fraction": 1 - failed / attempted,
        "job_latency_p50_s": percentile(latencies, 50),
        "job_latency_p90_s": percentile(latencies, 90),
    }


def result_line(values: dict[str, float], units: dict[str, str], attempted: int, failed: int) -> str:
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_workload(args, work: Path, kernel_warm: bool) -> tuple[dict, str]:
    t0 = time.perf_counter()
    from repro.core.engine import probe_backend

    from perfbench import layers
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    probe_backend()  # loads (or, on a cold cache, compiles) the C kernel
    kernel_s = time.perf_counter() - t0
    context = run_context(kernel_warm)

    tracer = Tracer()
    wl = WORKLOADS[args.workload](args.seed, str(work), tracer)
    reps: list[float] = []
    try:
        for rep in range(SETUP_REPS):
            wl.teardown()
            t0 = time.perf_counter()
            wl.setup(rep)
            reps.append(time.perf_counter() - t0)
        setup_s = import_s + kernel_s + statistics.median(reps)
        if args.trace:
            plain = wl.measure(args.seconds / 2, 1)
            patches = layers.install(tracer)
            tracer.enabled = True
            try:
                traced = wl.measure(args.seconds / 2, 1)
            finally:
                tracer.enabled = False
                patches.restore()
            phases = [plain, traced]
        else:
            phases = [wl.measure(args.seconds, wl.min_jobs)]
        wl.finish()
    finally:
        wl.teardown()

    context["placement"] = wl.placement
    attempted = sum(p.scenarios for p in phases) + wl.checks.scenarios
    failed = sum(p.failed for p in phases) + wl.checks.failed
    if args.trace:
        values = layers.per_layer(tracer, len(traced.latencies))
        values["trace.overhead_frac"] = (traced.wall_s / traced.scenarios) / (
            plain.wall_s / plain.scenarios
        ) - 1
        units = layers.PER_LAYER
    else:
        values = end_to_end(phases, setup_s, attempted, failed)
        units = END_TO_END
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "setup": {"import_s": import_s, "kernel_s": kernel_s, "reps_s": reps},
        "jobs": [len(p.latencies) for p in phases],
        "latencies_s": [p.latencies for p in phases],
        "digest": wl.digest,
        "pinned": wl.pinned,
        "problems": (wl.checks.problems + [x for p in phases for x in p.problems])[:20],
        "metrics": values,
    }
    results = work.parent / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        tracer.dump(str(results / f"{stem}.spans.jsonl"))
    for name, unit in units.items():
        print(f"{args.workload:>13s} {name:<36s} {values[name]:>14.6g} {unit}", file=sys.stderr)
    return report, result_line(values, units, attempted, failed)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {src}; run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    state = ROOT / ".perfbench"
    work = state / f"run-{os.getpid()}"
    kernels = state / "kernel"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    kernels.mkdir(parents=True, exist_ok=True)
    kernel_warm = any(kernels.glob("event_sweep_*.so"))
    os.environ["REPRO_KERNEL_CACHE"] = str(kernels)
    os.environ["TMPDIR"] = str(work / "tmp")  # compiler and tempfile scratch
    sys.path[0:1] = [str(src), str(ROOT)]
    try:
        report, line = run_workload(args, work, kernel_warm)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({k: report[k] for k in ("workload", "seed", "context", "digest", "jobs")}))
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
