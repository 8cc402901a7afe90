"""Thread-scaling bench for the multithreaded native STA kernel.

Sweeps the block-parallel ``sta_run`` hot path over worker counts
(1, 2, 4) on the largest default Table 1 circuit, for two inputs:

- ``per-gate``: ``(N, N_g)`` sample matrices, ``K = 4·N_g`` value
  columns (the input perfbench's ``timing.speedup_2t`` probe times);
- ``compact``: Algorithm 2's ``(N, n_t)`` triangle values (r = 25) with
  their gate→triangle maps, ``K = 4·n_t`` — the paper's proposed flow.

Timings follow the repo's noise discipline — warm-up run, repeated
sweeps, median + IQR via :func:`repro.utils.bench.timed_median` — and go
to ``BENCH_pr7.json`` (override with ``REPRO_THREAD_BENCH_JSON``).

Gates, deliberately asymmetric in strictness:

- **bitwise determinism** is asserted *everywhere*, for both inputs at
  every thread count, on every machine — it is the kernel's correctness
  contract and has no hardware precondition;
- **2-worker scaling** (≥ 1.3× on the compact input) is asserted on
  hosts with at least 2 cores;
- **4-worker scaling** (≥ 2× on the per-gate input) is asserted on
  hosts with at least 4 cores.

Below a gate's core count the bench records the measured timings and
skips the ratio check with the core count in the skip reason, because a
host without the cores cannot falsify a parallel-speedup claim.
"""

import json
import os

import numpy as np
import pytest

from repro.circuit.benchmarks import get_spec
from repro.experiments.table1 import default_table1_circuits
from repro.field.sampling import KLESampleGenerator
from repro.timing import native
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.sta import STAEngine
from repro.utils.bench import timed_median

_THREAD_SWEEP = (1, 2, 4)
_REPEATS = 5
_NUM_SAMPLES = 2000
_R = 25
#: (input, workers, minimum cores, minimum speedup over 1 worker)
_SCALING_GATES = (
    ("compact", 2, 2, 1.3),
    ("per-gate", 4, 4, 2.0),
)


def _largest_default_circuit() -> str:
    return max(
        default_table1_circuits(), key=lambda c: get_spec(c).num_gates
    )


def _inputs(context, circuit, placement):
    """``{input name: (values, columns)}`` for the two swept inputs."""
    rng = np.random.default_rng(2008)
    num_gates = context.circuit(circuit).num_gates
    per_gate = {
        name: rng.standard_normal((_NUM_SAMPLES, num_gates)) * 0.1
        for name in STATISTICAL_PARAMETERS
    }
    generator = KLESampleGenerator(
        {name: context.kle for name in STATISTICAL_PARAMETERS}, r=_R
    )
    compact = generator.generate(
        placement.gate_locations(), _NUM_SAMPLES, seed=2008, expand=False
    )
    return {
        "per-gate": (per_gate, None),
        "compact": (compact.samples, compact.columns),
    }


@pytest.fixture(scope="module")
def thread_sweep(context):
    """Median-timed compiled sweeps per input and worker count."""
    if native.load_kernel() is None:
        pytest.skip("native kernel unavailable (REPRO_NO_NATIVE or no cc)")
    circuit = _largest_default_circuit()
    netlist = context.circuit(circuit)
    placement = context.placement(circuit)
    engine = STAEngine(netlist, placement)
    results = {}
    timings = {}
    for name, (values, columns) in _inputs(
        context, circuit, placement
    ).items():
        # One small-N run per thread count absorbs page faults and
        # thread start-up before anything is timed.
        warmup = {p: m[:8] for p, m in values.items()}
        for threads in _THREAD_SWEEP:
            engine.run(
                warmup, columns=columns, engine="compiled",
                native_threads=threads,
            )

            def sweep(threads=threads, name=name):
                results[name, threads] = engine.run(
                    values, columns=columns, engine="compiled",
                    native_threads=threads,
                )

            timings[name, threads] = timed_median(
                sweep, repeats=_REPEATS, warmup=0
            )
    names = sorted({name for name, _ in timings})
    payload = {
        "bench": "native-threads",
        "circuit": circuit,
        "num_samples": _NUM_SAMPLES,
        "cores": os.cpu_count() or 1,
        "thread_backend": native.thread_backend(),
        "inputs": {
            name: {
                "timings": {
                    str(t): timings[name, t].to_dict() for t in _THREAD_SWEEP
                },
                "speedup_vs_serial": {
                    str(t): round(
                        timings[name, 1].median
                        / max(timings[name, t].median, 1e-12),
                        3,
                    )
                    for t in _THREAD_SWEEP
                },
            }
            for name in names
        },
    }
    path = os.environ.get("REPRO_THREAD_BENCH_JSON", "BENCH_pr7.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return circuit, results, timings, payload


def test_thread_counts_are_bitwise_identical(thread_sweep, bench_record):
    """The correctness gate: no hardware precondition, never skipped."""
    circuit, results, _, payload = thread_sweep
    bench_record(
        circuit=circuit,
        num_samples=_NUM_SAMPLES,
        thread_backend=payload["thread_backend"],
        cores=payload["cores"],
        speedup_vs_serial={
            name: entry["speedup_vs_serial"]
            for name, entry in payload["inputs"].items()
        },
    )
    for name in payload["inputs"]:
        base = results[name, 1]
        for threads in _THREAD_SWEEP[1:]:
            run = results[name, threads]
            assert np.array_equal(base.worst_delay, run.worst_delay), (
                f"{name}: worst_delay diverged bitwise at {threads} threads"
            )
            for net, values in base.end_arrivals.items():
                assert np.array_equal(run.end_arrivals[net], values), (
                    f"{name}: end arrival {net!r} diverged bitwise at "
                    f"{threads} threads"
                )


@pytest.mark.parametrize(
    "name, threads, min_cores, factor",
    _SCALING_GATES,
    ids=[f"{name}-{threads}t" for name, threads, _, _ in _SCALING_GATES],
)
def test_scaling(thread_sweep, name, threads, min_cores, factor):
    """The perf gates: each only where its worker count has cores."""
    circuit, _, timings, payload = thread_sweep
    cores = payload["cores"]
    if cores < min_cores:
        pytest.skip(
            f"host has {cores} core(s) < {min_cores}; "
            f"scaling gate needs real parallel hardware "
            f"(timings still recorded in BENCH_pr7.json)"
        )
    serial = timings[name, 1]
    threaded = timings[name, threads]
    speedup = serial.median / max(threaded.median, 1e-12)
    assert speedup >= factor, (
        f"{name} input: {threads}-thread sweep only {speedup:.2f}x faster "
        f"than serial on {circuit} at N={_NUM_SAMPLES} (need {factor}x; "
        f"serial median {serial.median:.3f}s ± IQR {serial.iqr:.3f}s, "
        f"threaded median {threaded.median:.3f}s ± IQR "
        f"{threaded.iqr:.3f}s)"
    )
