"""Tests of the benchmark itself: its metric catalogue and its checks.

Run from the repository root: ``python -m pytest perfbench/tests``.
Each correctness check is shown to fail on a seeded defect: a perturbed
oracle sample, one flipped bit in a service result, a dropped chunk in
the streamed merge.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Every metric the benchmark's specification names.
NAMED_END_TO_END = {"setup_s", "run_p50_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb"}
NAMED_PER_LAYER = {
    "mesh.build_s", "mesh.triangles",
    "core.assemble_s", "core.eigensolve_s", "core.r",
    "place.place_s", "timing.compile_s",
    "field.alg2_prepare_s", "field.alg2_generate_s", "field.alg2_calls",
    "field.alg2_c_contiguous", "field.sample_bytes",
    "field.alg1_factor_s", "field.alg1_generate_s", "field.alg1_gflops",
    "timing.run_s", "timing.calls", "timing.rows_per_call", "timing.native",
    "timing.threads", "timing.run_c_order_s", "timing.speedup_2t",
    "merge.update_s", "merge.calls",
    "service.wait_p50_ms", "service.wait_p99_ms", "service.batch_size_mean",
    "service.sweep_s", "service.sample_s", "service.refused",
    "service.timed_out", "service.chunks_streamed",
    "cache.hits", "cache.misses", "cache.corruptions",
    "loadgen.offered_rps", "loadgen.completed_rps", "loadgen.lag_p99_ms",
    "bench.trace_overhead_frac",
    "paper.table1_speedup", "paper.e_mu_pct", "paper.e_sigma_pct",
    "failed_frac",
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_catalogue_names_every_metric_with_a_unit():
    spec = _spec()
    names = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            assert NAME.match(metric["name"]), metric["name"]
            assert metric["unit"], metric["name"]
            assert metric["name"] not in names, f"duplicate {metric['name']}"
            names[metric["name"]] = kind
    assert NAMED_END_TO_END == {n for n, k in names.items() if k == "end_to_end"}
    assert NAMED_PER_LAYER <= {n for n, k in names.items() if k == "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == {
        "kle-s15850", "table1-c3540-streamed", "service-mixed-open",
    }


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "service-mixed-open",
         "--seed", "3", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_run_refuses_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "checks.py", "tracer.py"):
        (tmp_path / "perfbench" / name).write_text((BENCH_DIR / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kle-s15850",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# Seeded defects: each check must fail on one.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service(tmp_path_factory):
    import os

    from repro.service import ServiceConfig, SSTAService

    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))
    config = ServiceConfig(mesh_divisions=(10, 10), num_eigenpairs=40)
    try:
        with SSTAService(config) as running:
            yield running
    finally:
        if saved is None:
            del os.environ["REPRO_CACHE_DIR"]
        else:
            os.environ["REPRO_CACHE_DIR"] = saved


@pytest.fixture(scope="module")
def harness(service):
    return service.warm_up("c880")


def test_oracle_check_catches_a_perturbed_sample(harness):
    run = harness.run_kle(128, seed=5)
    samples = harness.kle_generator.generate(harness.gate_locations, 128, seed=5).samples
    oracle = harness.engine.run(
        {name: m[:16] for name, m in samples.items()}, engine="reference"
    )
    assert checks.oracle_mismatch(run.sta, oracle, 16) is None
    perturbed = oracle.worst_delay.copy()
    perturbed[7] *= 1 + 1e-9
    defect = replace(oracle, worst_delay=perturbed)
    assert checks.oracle_mismatch(run.sta, defect, 16) is not None


def test_bitwise_check_catches_one_flipped_bit(service, harness):
    from repro.service import AnalysisRequest

    served = service.submit(AnalysisRequest(circuit="c880", num_samples=64, seed=11))
    result = served.result(timeout_s=60)
    serial = harness.run_kle(64, seed=11)
    assert checks.bitwise_mismatch(result.sta, serial.sta) is None
    flipped = result.sta.worst_delay.copy()
    flipped.view(np.uint64)[9] ^= np.uint64(1)
    defect = replace(result.sta, worst_delay=flipped)
    assert checks.bitwise_mismatch(defect, serial.sta) is not None


def test_bitwise_check_compares_streamed_moments(service, harness):
    from repro.service import AnalysisRequest

    request = AnalysisRequest(circuit="c880", num_samples=300, seed=4, chunk_size=100)
    result = service.submit(request).result(timeout_s=60)
    same = harness.run_kle(300, seed=4, chunk_size=100)
    other = harness.run_kle(300, seed=5, chunk_size=100)
    assert checks.bitwise_mismatch(result.sta, same.sta) is None
    assert checks.bitwise_mismatch(result.sta, other.sta) is not None


def _merge_reason(harness, seed=8, n=400, chunk=100):
    from repro.utils.rng import as_generator

    streamed = harness.run_kle(n, seed=seed, chunk_size=chunk)
    rng = as_generator(seed)
    chunks = [
        harness.engine.run(
            harness.kle_generator.generate(harness.gate_locations, chunk, seed=rng).samples
        ).worst_delay
        for _ in range(n // chunk)
    ]
    return checks.merge_mismatch(streamed.sta, chunks, n)


def test_merge_check_catches_a_dropped_chunk(harness, monkeypatch):
    from repro.timing.ssta import StreamingSTAResult

    assert _merge_reason(harness) is None
    update = StreamingSTAResult.update
    seen = []

    def drop_second(self, chunk):
        seen.append(chunk)
        if len(seen) != 2:
            update(self, chunk)

    monkeypatch.setattr(StreamingSTAResult, "update", drop_second)
    assert _merge_reason(harness) is not None


def test_table1_check_bounds():
    good = SimpleNamespace(
        reference_mean=1.0, reference_std=0.1, kle_mean=1.0, kle_std=0.1,
        e_mu_percent=0.05, e_sigma_percent=2.0,
    )
    assert checks.table1_mismatch(good) is None
    assert checks.table1_mismatch(replace_ns(good, e_sigma_percent=12.5)) is not None
    assert checks.table1_mismatch(replace_ns(good, e_mu_percent=1.5)) is not None
    assert checks.table1_mismatch(replace_ns(good, kle_std=float("nan"))) is not None


def replace_ns(ns, **changes):
    return SimpleNamespace(**{**vars(ns), **changes})


# ----------------------------------------------------------------------
# The tracer.
# ----------------------------------------------------------------------
class _Layer:
    def work(self, inner):
        return inner() if inner else 1


def test_tracer_self_time_and_restore():
    tracer = Tracer()
    original = _Layer.__dict__["work"]
    tracer.wrap(_Layer, "work", "layer.work")
    with tracer.active():
        assert _Layer.__dict__["work"] is not original
        with tracer.span("root") as root:
            _Layer().work(lambda: _Layer().work(None))
    assert _Layer.__dict__["work"] is original
    spans = tracer.snapshot()
    own = tracer.self_times(spans)
    below = tracer.descendants(root.sid, spans)
    assert sorted(s.name for s in below) == ["layer.work", "layer.work"]
    total = own[root.sid] + sum(own[s.sid] for s in below)
    assert total == pytest.approx(root.duration, rel=1e-9, abs=1e-12)
    assert all(v >= 0 for v in own.values())
