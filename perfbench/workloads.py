"""The three workloads: set-up, timed loop, output checks, layer numbers.

Every workload drives the library only through its public calls and
feeds it inputs generated here from the workload seed.  ``setup_*``
builds everything the timed loop needs (the runner times it as
``setup_s``); ``run_*`` measures for the given seconds and fills an
:class:`Outcome`.  With a tracer, ``run_*`` also times some operations
with tracing on and reports per-layer self times (see ``tracer.py``).
"""

from __future__ import annotations

import contextlib
import os
import queue
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import checks
from tracer import Span, Tracer

DIE = (-1.0, -1.0, 1.0, 1.0)
PLACEMENT_SEED = 2008
#: Samples of one timed call re-timed by the per-gate reference engine.
ORACLE_ROWS = 64
#: Repeats of each probe timing (median reported).
PROBE_REPEATS = 3

#: Open-loop service load: send rate, send-time jitter (share of the
#: period) and request mix.  Exponential gaps made the latency median
#: swing between 14 and 23 ms from seed to seed (spread up to 0.39):
#: about 40 % of small requests are slowed by cold memory after a large
#: one or by overlapping it, and the median of the mix sits on that
#: knee.  Jittered periodic sends keep the open loop (latency from the
#: due time, queues may grow) with a spread of about 7 %.
SERVICE_RATE_RPS = 6.0
SERVICE_JITTER = 0.2
SERVICE_SMALL = ("c880", 512, None)
SERVICE_LARGE = ("c1908", 2000, 500)
#: Requests per mix block: one large (20 %) and four small (80 %).
SERVICE_BLOCK = 5
#: DONE requests re-run serially per kind (small, large).
SERVICE_VERIFY = (6, 2)
#: How long the client waits for stragglers after the last send.
SERVICE_DRAIN_S = 30.0
#: Requests of each kind sent during set-up: the first requests a fresh
#: process serves are 1.5-2x slower (first-touch allocation).
SERVICE_WARM_REQUESTS = 3
#: How often the client looks for finished requests.
SERVICE_POLL_S = 0.002

#: Per-operation layer self times: metric → span name.
OP_TIMES = {
    "field.alg2_generate_s": "field.alg2_generate",
    "field.alg1_generate_s": "field.alg1_generate",
    "timing.run_s": "timing.run",
    "merge.update_s": "merge.update",
}
#: Per-operation call counts: metric → span name.
OP_CALLS = {
    "field.alg2_calls": "field.alg2_generate",
    "timing.calls": "timing.run",
    "merge.calls": "merge.update",
}
#: Set-up layer self times: metric → span name.
SETUP_TIMES = {
    "mesh.build_s": "mesh.build",
    "core.assemble_s": "core.assemble",
    "core.eigensolve_s": "core.eigensolve",
    "place.place_s": "place.place",
    "timing.compile_s": "timing.compile",
    "timing.native_build_s": "timing.native_build",
    "field.alg2_prepare_s": "field.alg2_prepare",
    "field.alg1_factor_s": "field.alg1_factor",
}
SERVICE_LAYERS = (
    "service.wait_p50_ms",
    "service.wait_p99_ms",
    "service.batch_size_mean",
    "service.sweep_s",
    "service.sample_s",
    "service.refused",
    "service.timed_out",
    "service.chunks_streamed",
    "loadgen.offered_rps",
    "loadgen.completed_rps",
    "loadgen.lag_p99_ms",
)


def kernel_threads() -> int:
    """Native kernel threads of the batch workloads: ``min(2, nproc)``."""
    return min(2, os.cpu_count() or 1)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _span(tracer: Optional[Tracer], name: str) -> Any:
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@dataclass
class Outcome:
    """What one timed run measured and which of its outputs were wrong."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(reason)


# ----------------------------------------------------------------------
# Tracing: which public entry points are layers.
# ----------------------------------------------------------------------
def _mesh_hook(attrs: Dict[str, Any], args: tuple, kwargs: dict, mesh: Any) -> None:
    attrs["triangles"] = mesh.num_triangles


def _samples_hook(attrs: Dict[str, Any], args: tuple, kwargs: dict, result: Any) -> None:
    matrices = list(result.samples.values())
    attrs["bytes"] = sum(m.nbytes for m in matrices)
    attrs["c_contiguous"] = all(m.flags.c_contiguous for m in matrices)
    rows, gates = matrices[0].shape
    # Algorithm 1 draws (rows × N_g) normals and multiplies by the
    # (N_g × N_g) factor once per parameter.
    attrs["flops"] = 2.0 * rows * gates * gates * len(matrices)


def _run_hook(attrs: Dict[str, Any], args: tuple, kwargs: dict, result: Any) -> None:
    from repro.timing import native

    engine = args[0]
    attrs["rows"] = result.num_samples
    attrs["native"] = bool(engine.program.last_run_native)
    threads = kwargs.get("native_threads") or engine.native_threads
    attrs["threads"] = native.resolve_thread_count(threads)


def register_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of each layer (installed on demand)."""
    from repro.core import galerkin
    from repro.field.sampling import CholeskySampleGenerator, KLESampleGenerator
    from repro.mesh import refine
    from repro.place import placer
    from repro.service import artifacts
    from repro.timing.compiled import CompiledTimingProgram
    from repro.timing.sta import STAEngine
    from repro.timing.ssta import StreamingSTAResult

    tracer.wrap(refine, "paper_mesh", "mesh.build", _mesh_hook)
    tracer.wrap(artifacts, "structured_rectangle_mesh", "mesh.build", _mesh_hook)
    tracer.wrap(galerkin, "assemble_galerkin_matrix", "core.assemble")
    tracer.wrap(galerkin, "symmetric_generalized_eigh", "core.eigensolve")
    tracer.wrap(placer, "place_netlist", "place.place")
    tracer.wrap(artifacts, "place_netlist", "place.place")
    tracer.wrap(STAEngine, "__init__", "timing.compile")
    tracer.wrap(CompiledTimingProgram, "__init__", "timing.compile")
    tracer.wrap(KLESampleGenerator, "prepare", "field.alg2_prepare")
    tracer.wrap(KLESampleGenerator, "generate", "field.alg2_generate", _samples_hook)
    tracer.wrap(CholeskySampleGenerator, "prepare", "field.alg1_factor")
    tracer.wrap(CholeskySampleGenerator, "generate", "field.alg1_generate", _samples_hook)
    tracer.wrap(STAEngine, "run", "timing.run", _run_hook)
    tracer.wrap(StreamingSTAResult, "update", "merge.update")


def setup_layers(tracer: Tracer, root: Span) -> Dict[str, float]:
    """Set-up layer self times below the runner's ``bench.setup`` span."""
    spans = tracer.snapshot()
    below = tracer.descendants(root.sid, spans)
    totals = tracer.by_layer(below, tracer.self_times(spans))
    metrics = {metric: totals.get(name, 0.0) for metric, name in SETUP_TIMES.items()}
    triangles = [s.attrs["triangles"] for s in below if s.name == "mesh.build"]
    metrics["mesh.triangles"] = float(triangles[-1]) if triangles else 0.0
    return metrics


def _op_layers(
    tracer: Tracer, groups: List[List[Span]], ops_per_group: Sequence[int]
) -> Dict[str, float]:
    """Per-operation layer numbers from groups of spans.

    Each group holds the spans of ``ops`` operations; a layer's value is
    the median over groups of its summed self time (or call count)
    divided by ``ops``.
    """
    own = tracer.self_times()
    metrics: Dict[str, float] = {}
    per_group = [tracer.by_layer(g, own) for g in groups]
    counts = [Counter(s.name for s in g) for g in groups]
    for metric, name in OP_TIMES.items():
        metrics[metric] = statistics.median(
            t.get(name, 0.0) / n for t, n in zip(per_group, ops_per_group)
        )
    for metric, name in OP_CALLS.items():
        metrics[metric] = statistics.median(
            c[name] / n for c, n in zip(counts, ops_per_group)
        )
    spans = [s for g in groups for s in g]
    runs = [s for s in spans if s.name == "timing.run"]
    alg2 = [s for s in spans if s.name == "field.alg2_generate"]
    alg1 = [s for s in spans if s.name == "field.alg1_generate"]
    metrics["timing.rows_per_call"] = (
        statistics.median(s.attrs["rows"] for s in runs) if runs else 0.0
    )
    metrics["timing.native"] = float(bool(runs) and all(s.attrs["native"] for s in runs))
    metrics["timing.threads"] = float(max((s.attrs["threads"] for s in runs), default=0))
    metrics["field.sample_bytes"] = (
        statistics.median(s.attrs["bytes"] for s in alg2) if alg2 else 0.0
    )
    metrics["field.alg2_c_contiguous"] = float(
        bool(alg2) and all(s.attrs["c_contiguous"] for s in alg2)
    )
    busy = sum(own[s.sid] for s in alg1)
    metrics["field.alg1_gflops"] = (
        sum(s.attrs["flops"] for s in alg1) / busy / 1e9 if busy > 0 else 0.0
    )
    return metrics


def _probe(
    harness: Any, rows: int, seed: int, sweep_s: float, out: Outcome
) -> Dict[str, float]:
    """Layout and thread-scaling probes on one call's worth of samples.

    Times ``STAEngine.run`` on the generator's own output and on
    C-ordered copies (1 kernel thread each), and on the own output at
    ``kernel_threads()``; outputs must be bitwise equal across threads.
    """
    engine = harness.engine
    samples = harness.kle_generator.generate(
        harness.gate_locations, rows, seed=seed
    ).samples
    c_ordered = {name: np.ascontiguousarray(m) for name, m in samples.items()}

    def timed(inputs: Dict[str, np.ndarray], threads: int) -> Tuple[float, Any]:
        times, result = [], None
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            result = engine.run(inputs, native_threads=threads)
            times.append(time.perf_counter() - start)
        return statistics.median(times), result

    own_1t, serial = timed(samples, 1)
    c_1t, _ = timed(c_ordered, 1)
    own_nt, parallel = timed(samples, kernel_threads())
    out.attempted += 1
    if not (
        checks.same_bits(serial.worst_delay, parallel.worst_delay)
        and checks.same_mapping(serial.end_arrivals, parallel.end_arrivals)
    ):
        out.fail(f"thread probe: outputs differ at 1 and {kernel_threads()} threads")
    return {
        "timing.run_c_order_s": sweep_s * c_1t / own_1t,
        "timing.layout_penalty": own_1t / c_1t,
        "timing.speedup_2t": own_1t / own_nt,
    }


def _cache_layers() -> Dict[str, float]:
    from repro.utils.artifact_cache import cache_stats

    stats = cache_stats().values()
    return {
        f"cache.{key}": float(sum(s[key] for s in stats))
        for key in ("hits", "misses", "corruptions")
    }


def _timing_summary(out: Outcome, seconds_list: List[float]) -> None:
    """End-to-end timing metrics plus the tail the sample count supports."""
    out.end_to_end["run_p50_s"] = statistics.median(seconds_list)
    out.end_to_end["latency_p50_ms"] = 1e3 * statistics.median(seconds_list)
    out.end_to_end["latency_p99_ms"] = 1e3 * percentile(seconds_list, 99)
    out.notes.update(tail_summary(seconds_list))


def tail_summary(seconds_list: Sequence[float]) -> Dict[str, Any]:
    """Sample count and the highest percentile with ≥ 10 samples beyond it."""
    n = len(seconds_list)
    tail = [q for q in (50.0, 90.0, 95.0, 99.0, 99.9) if n * (1 - q / 100) >= 10]
    summary: Dict[str, Any] = {"samples": n, "tail_percentile": None}
    if tail:
        summary["tail_percentile"] = tail[-1]
        summary["tail_ms"] = 1e3 * percentile(seconds_list, tail[-1])
    return summary


# ----------------------------------------------------------------------
# Batch workloads: closed loop, one caller.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchSpec:
    circuit: str
    num_samples: int
    chunk_size: Optional[int]
    compare: bool
    r: int = 25


KLE_S15850 = BatchSpec("s15850", 2000, None, compare=False)
TABLE1_C3540 = BatchSpec("c3540", 4000, 500, compare=True)


def setup_batch(spec: BatchSpec, cache_dir: str, tracer: Optional[Tracer]) -> Any:
    """Mesh → KLE → placement → compiled engine → native kernel → prepare."""
    from repro.circuit import benchmarks
    from repro.core import galerkin, kernel_fit
    from repro.mesh import refine
    from repro.place import placer
    from repro.timing import native, ssta

    mesh = refine.paper_mesh()
    kernel = kernel_fit.paper_experiment_kernel()
    kle = galerkin.solve_kle(kernel, mesh, num_eigenpairs=200, cache=cache_dir)
    netlist = benchmarks.load_circuit(spec.circuit)
    placement = placer.place_netlist(netlist, DIE, seed=PLACEMENT_SEED)
    harness = ssta.MonteCarloSSTA(netlist, placement, kernel, kle, r=spec.r)
    harness.engine.native_threads = kernel_threads()
    harness.engine.program  # noqa: B018 — compiles the timing program
    with _span(tracer, "timing.native_build"):
        native.load_kernel()
    harness.kle_generator.prepare(harness.gate_locations)
    if spec.compare:
        harness.reference_generator.prepare(harness.gate_locations)
    return harness


def _batch_op(spec: BatchSpec, harness: Any, seed: int) -> Any:
    if spec.compare:
        return harness.compare(
            spec.num_samples, seed=seed, chunk_size=spec.chunk_size
        )
    return harness.run_kle(spec.num_samples, seed=seed)


def run_batch(
    spec: BatchSpec,
    harness: Any,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
) -> Outcome:
    """Repeated calls for ``seconds``; with a tracer every other is traced."""
    out = Outcome(notes={"kernel_threads": harness.engine.native_threads})
    rng = np.random.default_rng([seed, 1])
    untraced: List[float] = []
    roots: List[Span] = []
    first: Optional[Tuple[int, Any]] = None
    last_row: Any = None
    deadline = time.perf_counter() + seconds
    index = 0
    while index < 2 or time.perf_counter() < deadline:
        call_seed = int(rng.integers(2**63))
        traced = tracer is not None and index % 2 == 1
        index += 1
        out.attempted += 1
        try:
            if traced:
                with tracer.active(), tracer.span("bench.op") as root:
                    result = _batch_op(spec, harness, call_seed)
                roots.append(root)
            else:
                start = time.perf_counter()
                result = _batch_op(spec, harness, call_seed)
                untraced.append(time.perf_counter() - start)
        except Exception as exc:  # a failed call is a failed operation
            out.fail(f"call {index}: {exc!r}")
            continue
        if spec.compare:
            last_row = result
            reason = checks.table1_mismatch(result)
            if reason is not None:
                out.fail(f"call {index}: {reason}")
        elif first is None:
            first = (call_seed, result)
    if not untraced:
        raise RuntimeError("no untraced call completed")

    if spec.compare:
        _check_merge(spec, harness, int(rng.integers(2**63)), out)
        if last_row is not None:
            out.per_layer.update(
                {
                    "paper.table1_speedup": last_row.speedup,
                    "paper.e_mu_pct": last_row.e_mu_percent,
                    "paper.e_sigma_pct": last_row.e_sigma_percent,
                }
            )
    elif first is not None:
        _check_oracle(spec, harness, first, out)

    _timing_summary(out, untraced)
    if tracer is not None:
        _batch_layers(spec, harness, tracer, roots, untraced, out, int(rng.integers(2**63)))
    return out


def _check_oracle(spec: BatchSpec, harness: Any, first: Tuple[int, Any], out: Outcome) -> None:
    """Re-time the first samples of one call with the per-gate oracle."""
    call_seed, run = first
    samples = harness.kle_generator.generate(
        harness.gate_locations, spec.num_samples, seed=call_seed
    ).samples
    head = {name: m[:ORACLE_ROWS] for name, m in samples.items()}
    oracle = harness.engine.run(head, engine="reference")
    reason = checks.oracle_mismatch(run.sta, oracle, ORACLE_ROWS)
    if reason is not None:
        out.fail(f"oracle: {reason}")


def _check_merge(spec: BatchSpec, harness: Any, seed: int, out: Outcome) -> None:
    """A streamed KLE run against its chunks' direct moments."""
    from repro.utils.rng import as_generator

    out.attempted += 1
    streamed = harness.run_kle(spec.num_samples, seed=seed, chunk_size=spec.chunk_size)
    rng = as_generator(seed)
    chunks = []
    for start in range(0, spec.num_samples, spec.chunk_size):
        rows = min(spec.chunk_size, spec.num_samples - start)
        generated = harness.kle_generator.generate(harness.gate_locations, rows, seed=rng)
        chunks.append(harness.engine.run(generated.samples).worst_delay)
    reason = checks.merge_mismatch(streamed.sta, chunks, spec.num_samples)
    if reason is not None:
        out.fail(f"merge: {reason}")


def _batch_layers(
    spec: BatchSpec,
    harness: Any,
    tracer: Tracer,
    roots: List[Span],
    untraced: List[float],
    out: Outcome,
    probe_seed: int,
) -> None:
    spans = tracer.snapshot()
    own = tracer.self_times(spans)
    groups = [tracer.descendants(root.sid, spans) for root in roots]
    layers = _op_layers(tracer, groups, [1] * len(groups))
    traced_p50 = statistics.median(root.duration for root in roots)
    layers["bench.trace_overhead_frac"] = traced_p50 / statistics.median(untraced) - 1
    layers["bench.self_time_coverage"] = statistics.median(
        1 - own[root.sid] / root.duration for root in roots
    )
    rows = spec.chunk_size or spec.num_samples
    layers.update(_probe(harness, rows, probe_seed, layers["timing.run_s"], out))
    layers["core.r"] = float(harness.r)
    layers.update({name: 0.0 for name in SERVICE_LAYERS})
    if not spec.compare:
        layers.update(
            {"paper.table1_speedup": 0.0, "paper.e_mu_pct": 0.0, "paper.e_sigma_pct": 0.0}
        )
    layers.update(_cache_layers())
    out.per_layer.update(layers)


# ----------------------------------------------------------------------
# Service workload: open loop against a warm SSTAService.
# ----------------------------------------------------------------------
def setup_service(cache_dir: str, tracer: Optional[Tracer]) -> Any:
    """``start``, ``warm_up`` of both circuits, the native kernel, and
    ``SERVICE_WARM_REQUESTS`` requests of each kind sent one at a time."""
    from repro.service import AnalysisRequest, ServiceConfig, SSTAService
    from repro.timing import native

    del cache_dir  # the default ServiceConfig keeps artifacts in memory
    service = SSTAService(ServiceConfig()).start()
    try:
        for circuit, _, _ in (SERVICE_SMALL, SERVICE_LARGE):
            service.warm_up(circuit)
        with _span(tracer, "timing.native_build"):
            native.load_kernel()
        for seed in range(SERVICE_WARM_REQUESTS):
            for circuit, n, chunk in (SERVICE_SMALL, SERVICE_LARGE):
                request = AnalysisRequest(
                    circuit=circuit, num_samples=n, seed=seed, chunk_size=chunk
                )
                service.submit(request).result(timeout_s=SERVICE_DRAIN_S)
    except BaseException:
        service.close()
        raise
    return service


@dataclass(eq=False)
class _Sent:
    request: Any
    due: float
    sent: float = 0.0
    stream: Any = None
    done_at: Optional[float] = None
    result: Any = None
    chunks: int = 0
    latency: float = 0.0


def _schedule(rng: np.random.Generator, seconds: float) -> List[Tuple[float, Any]]:
    """Seeded, jittered periodic send times and the request mix.

    Request ``i`` is due at ``(i + 0.5 + u_i) / rate`` with ``u_i``
    uniform in ±``SERVICE_JITTER``; every ``SERVICE_BLOCK``-th request is
    large, so each run sees the same mix.
    """
    from repro.service import AnalysisRequest

    count = max(1, round(SERVICE_RATE_RPS * seconds))
    jitter = rng.uniform(-SERVICE_JITTER, SERVICE_JITTER, size=count)
    offsets = (np.arange(count) + 0.5 + jitter) / SERVICE_RATE_RPS
    schedule = []
    for index, offset in enumerate(offsets):
        large = index % SERVICE_BLOCK == SERVICE_BLOCK - 1
        circuit, n, chunk = SERVICE_LARGE if large else SERVICE_SMALL
        request = AnalysisRequest(
            circuit=circuit,
            num_samples=n,
            seed=int(rng.integers(2**63)),
            chunk_size=chunk,
        )
        schedule.append((float(offset), request))
    return schedule


def _drain_chunks(stream: Any) -> int:
    drained = 0
    try:
        for _ in stream.chunks(timeout_s=1e-4):
            drained += 1
    except TimeoutError:
        pass
    return drained


def _drive(service: Any, schedule: List[Tuple[float, Any]]) -> Tuple[List[_Sent], float]:
    """Send on schedule from one thread, consume on this one.

    Returns every request (refused ones have no stream) and the load's
    start time; terminal times are taken when this thread sees them.
    """
    from repro.service import QueueFullError

    handoff: "queue.SimpleQueue[Optional[_Sent]]" = queue.SimpleQueue()
    start = time.monotonic() + 0.05

    def submit_all() -> None:
        for offset, request in schedule:
            item = _Sent(request, start + offset)
            delay = item.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            item.sent = time.monotonic()
            try:
                item.stream = service.submit(request)
            except QueueFullError:
                item.stream = None
            handoff.put(item)
        handoff.put(None)

    submitter = threading.Thread(target=submit_all, name="perfbench-submit")
    submitter.start()
    horizon = start + (schedule[-1][0] if schedule else 0.0) + SERVICE_DRAIN_S
    sent: List[_Sent] = []
    pending: List[_Sent] = []
    more = True
    try:
        while more or pending:
            while True:
                try:
                    item = handoff.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    more = False
                    continue
                sent.append(item)
                if item.stream is not None:
                    pending.append(item)
            still = []
            for item in pending:
                if item.request.chunk_size is not None:
                    item.chunks += _drain_chunks(item.stream)
                if item.stream.done():
                    item.done_at = time.monotonic()
                    item.result = item.stream.result(timeout_s=0)
                    if item.request.chunk_size is not None:
                        item.chunks += _drain_chunks(item.stream)
                else:
                    still.append(item)
            pending = still
            if time.monotonic() > horizon:
                for item in pending:
                    item.stream.cancel("perfbench drain timeout")
                break
            if pending:
                # Block on the oldest request: its result event wakes this
                # thread as soon as a worker finishes it.
                try:
                    pending[0].stream.result(timeout_s=SERVICE_POLL_S)
                except TimeoutError:
                    pass
            else:
                time.sleep(SERVICE_POLL_S)
    finally:
        submitter.join(timeout=SERVICE_DRAIN_S)
    return sent, start


def _service_phase(service: Any, rng: np.random.Generator, seconds: float) -> Dict[str, Any]:
    schedule = _schedule(rng, seconds)
    sent, start = _drive(service, schedule)
    return {"sent": sent, "start": start, "seconds": seconds}


def run_service(
    service: Any, seed: int, seconds: float, tracer: Optional[Tracer]
) -> Outcome:
    """Open-loop load; with a tracer, an untraced half then a traced half."""
    from repro.service import RequestStatus

    out = Outcome(notes={"kernel_threads": service.registry.kernel_threads()})
    rng = np.random.default_rng([seed, 2])
    if tracer is None:
        phases = [_service_phase(service, rng, seconds)]
    else:
        phases = [_service_phase(service, rng, seconds / 2)]
        mark = time.perf_counter()
        with tracer.active():
            phases.append(_service_phase(service, rng, seconds / 2))

    missed = seconds + SERVICE_DRAIN_S
    done: List[_Sent] = []
    for phase in phases:
        for item in phase["sent"]:
            out.attempted += 1
            status = item.result.status if item.result is not None else None
            if item.stream is None:
                out.fail(f"{item.request.circuit}: refused")
            elif status is not RequestStatus.DONE:
                out.fail(f"{item.request.circuit}: {status} {getattr(item.result, 'error', '')}")
            else:
                done.append(item)
            item.latency = item.done_at - item.due if status is RequestStatus.DONE else missed
    _verify_service(service, done, rng, out)

    measured = phases[0]
    latencies = [item.latency for item in measured["sent"]]
    served = [item.done_at - item.sent for item in measured["sent"] if item in done]
    out.end_to_end["latency_p50_ms"] = 1e3 * percentile(latencies, 50)
    out.end_to_end["latency_p99_ms"] = 1e3 * percentile(latencies, 99)
    out.end_to_end["run_p50_s"] = statistics.median(served)
    out.notes.update(tail_summary(latencies))

    if tracer is not None:
        _service_layers(service, tracer, phases, done, mark, out, int(rng.integers(2**63)))
    return out


def _verify_service(
    service: Any, done: List[_Sent], rng: np.random.Generator, out: Outcome
) -> None:
    """Re-run a seeded sample of DONE requests serially; bitwise equal."""
    verified = 0
    for (circuit, _, _), count in zip((SERVICE_SMALL, SERVICE_LARGE), SERVICE_VERIFY):
        pool = [item for item in done if item.request.circuit == circuit]
        picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
        for pick in sorted(picks):
            item = pool[int(pick)]
            request = item.request
            harness = service.warm_up(request.circuit)
            serial = harness.run_kle(
                request.num_samples, seed=request.seed, chunk_size=request.chunk_size
            )
            reason = checks.bitwise_mismatch(item.result.sta, serial.sta)
            if reason is not None:
                out.fail(f"{item.result.request_id}: {reason}")
            verified += 1
    out.notes["verified"] = verified


def _service_layers(
    service: Any,
    tracer: Tracer,
    phases: List[Dict[str, Any]],
    done: List[_Sent],
    mark: float,
    out: Outcome,
    probe_seed: int,
) -> None:
    from repro.service import RequestStatus

    traced = phases[1]
    finished = [item for item in traced["sent"] if item in done]
    spans = [s for s in tracer.snapshot() if s.start >= mark]
    layers = _op_layers(tracer, [spans], [max(len(finished), 1)])
    untraced_p50 = out.end_to_end["run_p50_s"]
    traced_p50 = statistics.median(item.done_at - item.sent for item in finished)
    layers["bench.trace_overhead_frac"] = traced_p50 / untraced_p50 - 1
    own = tracer.self_times()
    busy = sum(item.result.timer_seconds + item.result.sample_seconds for item in finished)
    layers["bench.self_time_coverage"] = sum(own[s.sid] for s in spans) / busy

    all_sent = [item for phase in phases for item in phase["sent"]]
    results = [item.result for item in all_sent if item in done]
    waits = [r.wait_seconds for r in results]
    statuses = [item.result.status for item in all_sent if item.result is not None]
    lags = [item.sent - item.due for item in all_sent]
    total_s = sum(phase["seconds"] for phase in phases)
    layers.update(
        {
            "service.wait_p50_ms": 1e3 * percentile(waits, 50),
            "service.wait_p99_ms": 1e3 * percentile(waits, 99),
            "service.batch_size_mean": statistics.mean(r.batch_size for r in results),
            "service.sweep_s": statistics.median(r.timer_seconds for r in results),
            "service.sample_s": statistics.median(r.sample_seconds for r in results),
            "service.refused": float(sum(item.stream is None for item in all_sent)),
            "service.timed_out": float(statuses.count(RequestStatus.TIMED_OUT)),
            "service.chunks_streamed": float(sum(item.chunks for item in all_sent)),
            "loadgen.offered_rps": len(all_sent) / total_s,
            "loadgen.completed_rps": len(results)
            / sum(_phase_span(phase) for phase in phases),
            "loadgen.lag_p99_ms": 1e3 * percentile(lags, 99),
        }
    )
    harness = service.warm_up(SERVICE_SMALL[0])
    layers.update(_probe(harness, SERVICE_SMALL[1], probe_seed, layers["timing.run_s"], out))
    layers["core.r"] = float(harness.r)
    layers.update({"paper.table1_speedup": 0.0, "paper.e_mu_pct": 0.0, "paper.e_sigma_pct": 0.0})
    layers.update(_cache_layers())
    out.per_layer.update(layers)


def _phase_span(phase: Dict[str, Any]) -> float:
    """Seconds from the phase's start to its last terminal result."""
    ends = [item.done_at for item in phase["sent"] if item.done_at is not None]
    return max(ends, default=phase["start"]) - phase["start"]


Setup = Callable[[str, Optional[Tracer]], Any]
Run = Callable[[Any, int, float, Optional[Tracer]], Outcome]


@dataclass(frozen=True)
class Workload:
    setup: Setup
    run: Run
    close: Callable[[Any], None]


def _no_close(state: Any) -> None:
    del state


WORKLOADS: Dict[str, Workload] = {
    "kle-s15850": Workload(
        lambda cache, tracer: setup_batch(KLE_S15850, cache, tracer),
        lambda state, seed, seconds, tracer: run_batch(KLE_S15850, state, seed, seconds, tracer),
        _no_close,
    ),
    "table1-c3540-streamed": Workload(
        lambda cache, tracer: setup_batch(TABLE1_C3540, cache, tracer),
        lambda state, seed, seconds, tracer: run_batch(TABLE1_C3540, state, seed, seconds, tracer),
        _no_close,
    ),
    "service-mixed-open": Workload(setup_service, run_service, lambda service: service.close()),
}
