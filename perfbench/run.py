"""Layered benchmark of the SSTA pipeline: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kle-s15850 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, from spans recorded around
the library's public entry points.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give the host fingerprint and the tail summary.

``setup_s`` is the median of several set-ups, each in a fresh process
with an empty private artifact cache (including the native kernel
build); the main process's own set-up is one of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
#: The thread backend of the native baseline; anything else is degraded.
EXPECTED_THREAD_BACKEND = "openmp"
#: Set-ups per untraced run (the run's own plus fresh child processes).
SETUP_REPS = 3
SETUP_CHILD_TIMEOUT_S = 150
#: Environment set (unless already set) before numpy loads.  The service
#: runs two workers on the cores; with OpenBLAS's default of one thread
#: per core each worker's small GEMMs oversubscribe the cores and a
#: process lands in a fast or a slow mode (Alg. 2 sample time 3.5 vs
#: 6.3 ms per c880 request), so latency spread across runs reached 30 %.
#: One BLAS thread per worker is the deployment this workload measures.
WORKLOAD_ENV = {"service-mixed-open": {"OPENBLAS_NUM_THREADS": "1"}}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def catalogue() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def fingerprint(threads: int) -> Dict[str, Any]:
    """Host and code path of this run; ``degraded`` lists what differs."""
    import numpy as np
    from repro.timing import native

    info = native.kernel_build_info()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    loaded = native.load_kernel() is not None
    record: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cc": info["compiler"],
        "thread_backend": native.thread_backend(),
        "kernel_key": info["key"],
        "native_loaded": loaded,
        "kernel_threads": threads,
        "env": {k: v for k, v in os.environ.items()
                if k.startswith(("REPRO_", "OPENBLAS_", "OMP_"))
                and k != "REPRO_CACHE_DIR"},
    }
    degraded = []
    if not loaded:
        degraded.append("native kernel not loaded (numpy fallback)")
    if record["thread_backend"] != EXPECTED_THREAD_BACKEND:
        degraded.append(
            f"thread backend {record['thread_backend']} != {EXPECTED_THREAD_BACKEND}"
        )
    if info["sanitize"]:
        degraded.append(f"sanitizer build {info['sanitize']}")
    record["degraded"] = degraded
    return record


def _setup_in_child(args: argparse.Namespace, work: Path, rep: int) -> float:
    cache = work / f"setup-{rep}"
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--work-dir", str(cache)],
        env=env, capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _timed_setup(workload: Any, cache: Path, tracer: Any) -> Any:
    """Imports and set-up from an empty cache; returns (state, seconds)."""
    cache.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    start = time.perf_counter()
    state = workload.setup(str(cache), tracer)
    return state, time.perf_counter() - start


def _metrics(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def _write_trace(args: argparse.Namespace, tracer: Any, host: Dict[str, Any],
                 metrics: Dict[str, Any]) -> None:
    """Write the run's spans, fingerprint and metrics under ``.perfbench_out``."""
    out = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    spans = [
        {"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
         "parent": s.parent, "attrs": s.attrs}
        for s in tracer.snapshot()
    ]
    out.write_text(json.dumps(
        {"fingerprint": host, "metrics": metrics, "spans": spans}, default=float
    ))


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = catalogue()
    for key, value in WORKLOAD_ENV.get(args.workload, {}).items():
        os.environ.setdefault(key, value)
    import workloads  # noqa: E402 — needs the library on sys.path first

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        state, seconds = _timed_setup(workload, Path(args.work_dir), None)
        workload.close(state)
        print(json.dumps({"setup_s": seconds}))
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tracer = None
    try:
        setup_times = []
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            workloads.register_layers(tracer)
        else:
            setup_times = [_setup_in_child(args, work, rep) for rep in range(1, SETUP_REPS)]
        if tracer is not None:
            with tracer.active(), tracer.span("bench.setup") as setup_root:
                state, seconds = _timed_setup(workload, work / "setup-0", tracer)
        else:
            state, seconds = _timed_setup(workload, work / "setup-0", None)
        setup_times.append(seconds)
        try:
            outcome = workload.run(state, args.seed, args.seconds, tracer)
            host = fingerprint(outcome.notes.pop("kernel_threads"))
        finally:
            workload.close(state)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        values = dict(outcome.per_layer)
        values.update(workloads.setup_layers(tracer, setup_root))
        values["failed_frac"] = outcome.failed / outcome.attempted
        metrics = _metrics(values, units["per_layer"])
        _write_trace(args, tracer, host, metrics)
    else:
        values = dict(outcome.end_to_end)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = _metrics(values, units["end_to_end"])

    print("perfbench-fingerprint " + json.dumps(host, sort_keys=True))
    if host["degraded"]:
        print("perfbench: DEGRADED run: " + "; ".join(host["degraded"]), file=sys.stderr)
    summary = dict(outcome.notes, setup_samples_s=setup_times, failures=outcome.reasons[:20])
    print("perfbench-summary " + json.dumps(summary, sort_keys=True))
    for reason in outcome.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
