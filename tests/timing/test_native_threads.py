"""The multithreaded native kernel: env contract, fallbacks, determinism.

Three layers are pinned here.  The *environment contract*:
``REPRO_NATIVE_THREADS`` parses as documented (unset → serial, ``auto``
→ all cores, garbage → a typed error rather than a silent serial run).
The *capability probe*: ``REPRO_NATIVE_THREAD_BACKEND`` pins each
backend, and the ``none`` backend still runs threaded calls of the one
``sta_run`` entry point (one worker takes every block).  The
*determinism gate*: the claim that thread count never changes a single
bit of output — compiled runs at 1, 2 and 3 workers over an odd sample
count, and compact Algorithm 2 input over ``3·B + 5`` samples (three
full kernel blocks and a short one) at 1, 2, 3 and 8 workers, must be
``np.array_equal``, not merely close.  The *sizing contract*: one
worker's block fits a fixed byte budget whatever the team, the team is
capped at the block count and :data:`~repro.timing.native.MAX_TEAM`,
and :meth:`native_scratch_bytes` is what a run really allocates.
"""

import ctypes

import numpy as np
import pytest

from repro.circuit.benchmarks import load_circuit
from repro.field.sampling import KLESampleGenerator
from repro.place.placer import place_netlist
from repro.timing import compiled, native
from repro.timing.compiled import NATIVE_BLOCK_BYTE_BUDGET
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.sta import STAEngine

DIE = (-1.0, -1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def engine():
    netlist = load_circuit("c880")
    placement = place_netlist(netlist, DIE, seed=7)
    return STAEngine(netlist, placement)


def _samples(engine, num_samples, seed=3):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal((num_samples, engine.netlist.num_gates))
        * 0.1
        for name in STATISTICAL_PARAMETERS
    }


def _per_gate_block(engine):
    """Lanes per kernel block for per-gate samples (K = 4·N_g)."""
    program = engine.program
    return program._native_block_size(
        10**9, program.num_slots, 4 * program._packed_models.num_gates
    )


def _assert_bitwise(a, b):
    assert np.array_equal(a.worst_delay, b.worst_delay)
    assert set(a.end_arrivals) == set(b.end_arrivals)
    for net, values in a.end_arrivals.items():
        assert np.array_equal(b.end_arrivals[net], values)


def _record_kernel_calls(monkeypatch):
    """Wrap ``native.run_kernel``; return the list of recorded calls."""
    calls = []
    real = native.run_kernel

    def recording(kernel, prog, coef, values, arena_a, arena_s, scratch,
                  end_out, rows, block, threads):
        calls.append(
            {
                "bytes": arena_a.nbytes + arena_s.nbytes + scratch.nbytes,
                "rows": rows,
                "block": block,
                "threads": threads,
            }
        )
        real(kernel, prog, coef, values, arena_a, arena_s, scratch,
             end_out, rows, block, threads)

    monkeypatch.setattr(native, "run_kernel", recording)
    return calls


# ----------------------------------------------------------------------
# REPRO_NATIVE_THREADS parsing.
# ----------------------------------------------------------------------
class TestThreadCountEnv:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        assert native.native_thread_count() == 1

    def test_blank_means_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "   ")
        assert native.native_thread_count() == 1

    @pytest.mark.parametrize("raw", ["1", "2", "7"])
    def test_positive_integer_is_taken_literally(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", raw)
        assert native.native_thread_count() == int(raw)

    @pytest.mark.parametrize("raw", ["auto", "AUTO", "0"])
    def test_auto_means_all_cores(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", raw)
        count = native.native_thread_count()
        assert count >= 1

    @pytest.mark.parametrize("raw", ["garbage", "2.5", "-3", "1e2"])
    def test_garbage_raises_typed_error(self, monkeypatch, raw):
        # A typo silently running serial would invalidate any
        # thread-scaling measurement, so the contract is a loud error.
        monkeypatch.setenv("REPRO_NATIVE_THREADS", raw)
        with pytest.raises(ValueError, match="invalid REPRO_NATIVE_THREADS"):
            native.native_thread_count()

    def test_resolve_prefers_explicit_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "7")
        assert native.resolve_thread_count(3) == 3
        assert native.resolve_thread_count(None) == 7

    def test_resolve_rejects_nonpositive_explicit(self):
        with pytest.raises(ValueError, match="native_threads must be >= 1"):
            native.resolve_thread_count(0)

    def test_engine_constructor_rejects_nonpositive(self, engine):
        with pytest.raises(ValueError):
            STAEngine(
                engine.netlist, engine.placement, native_threads=0
            )


# ----------------------------------------------------------------------
# Backend probe and pinning.
# ----------------------------------------------------------------------
class TestThreadBackend:
    def test_probed_backend_is_a_known_name(self):
        assert native.thread_backend() in ("openmp", "pthreads", "none")

    @pytest.mark.parametrize("backend", ["openmp", "pthreads", "none"])
    def test_pin_overrides_probe(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", backend)
        assert native.thread_backend() == backend

    def test_unknown_pin_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "cuda")
        with pytest.raises(
            ValueError, match="unknown REPRO_NATIVE_THREAD_BACKEND"
        ):
            native.thread_backend()

    def test_backend_flags_match_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "none")
        assert native.thread_backend_flags() == []
        monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "openmp")
        assert native.thread_backend_flags() == ["-fopenmp"]

    def test_build_info_reports_threading(self):
        info = native.kernel_build_info()
        assert info["thread_backend"] in ("openmp", "pthreads", "none")
        assert info["threads"] >= 1

    def test_sta_run_is_the_only_entry_point(self):
        kernel = native.load_kernel()
        if kernel is None:
            pytest.skip("native kernel unavailable")
        assert native.KERNEL_FUNCTION == "sta_run"
        # The worker count is the trailing int64 argument; threads=1 is
        # the serial sweep.
        assert kernel.argtypes[-1] is ctypes.c_int64
        assert kernel.restype is ctypes.c_int64


# ----------------------------------------------------------------------
# Bitwise determinism across thread counts.
# ----------------------------------------------------------------------
class TestBitwiseDeterminism:
    # 257 is odd and prime: past two full kernel blocks it leaves a short
    # odd third one, and 2 or 3 workers split the three blocks unevenly,
    # which is exactly the case a reduction-order bug would show up in.
    NUM_SAMPLES = 257

    def _run(self, engine, samples, threads, **kwargs):
        return engine.run(
            samples, engine="compiled", native_threads=threads, **kwargs
        )

    def test_threads_never_change_a_bit(self, engine):
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
        block = _per_gate_block(engine)
        samples = _samples(engine, 2 * block + self.NUM_SAMPLES % block)
        base = self._run(engine, samples, 1)
        for threads in (2, 3):
            _assert_bitwise(base, self._run(engine, samples, threads))

    def test_more_threads_than_lanes_is_bitwise_too(self, engine):
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
        samples = _samples(engine, 3)
        base = self._run(engine, samples, 1)
        wide = self._run(engine, samples, 8)
        assert np.array_equal(base.worst_delay, wide.worst_delay)

    def test_none_backend_mt_entry_is_bitwise(self, engine, monkeypatch):
        # Toolchains without OpenMP or pthreads still run threaded calls:
        # one worker evaluates every block.
        monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "none")
        monkeypatch.setattr(native, "_cached", None)
        monkeypatch.setattr(native, "_cached_key", None)
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
        block = _per_gate_block(engine)
        samples = _samples(engine, 2 * block + 7)
        base = self._run(engine, samples, 1)
        run = self._run(engine, samples, 3)
        _assert_bitwise(base, run)

    def test_env_and_api_paths_agree(self, engine, monkeypatch):
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
        samples = _samples(engine, 65)
        explicit = self._run(engine, samples, 2)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        via_env = engine.run(samples, engine="compiled")
        assert np.array_equal(explicit.worst_delay, via_env.worst_delay)

    def test_chunked_threaded_run_is_bitwise(self, engine):
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
        samples = _samples(engine, 101)
        base = self._run(engine, samples, 1)
        chunked = self._run(engine, samples, 3, chunk_size=17)
        assert np.array_equal(base.worst_delay, chunked.worst_delay)

    def test_no_native_falls_back_cleanly(self, engine, monkeypatch):
        # REPRO_NO_NATIVE disables the kernel entirely; a threaded
        # request must still produce the same numbers via NumPy.
        samples = _samples(engine, 33)
        base = self._run(engine, samples, 1)
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        monkeypatch.setattr(native, "_cached", None)
        monkeypatch.setattr(native, "_cached_key", None)
        fallback = self._run(engine, samples, 4)
        np.testing.assert_allclose(
            fallback.worst_delay, base.worst_delay, rtol=1e-12, atol=1e-9
        )


# ----------------------------------------------------------------------
# Compact Algorithm 2 input over several kernel blocks.
# ----------------------------------------------------------------------
class TestCompactBlockPartition:
    WORKERS = (1, 2, 3, 8)

    @pytest.fixture(scope="class")
    def compact(self, engine, gaussian_kle):
        """``(values, columns, N)``: triangle values over ``3·B + 5``
        samples, three full kernel blocks and a short fourth."""
        generator = KLESampleGenerator(
            {name: gaussian_kle for name in STATISTICAL_PARAMETERS}, r=12
        )
        value_cols = 4 * gaussian_kle.mesh.num_triangles
        block = engine.program._native_block_size(
            10**9, engine.program.num_slots, value_cols
        )
        num_samples = 3 * block + 5
        draw = generator.generate(
            engine.placement.gate_locations(), num_samples, seed=11,
            expand=False,
        )
        assert sum(v.shape[1] for v in draw.samples.values()) == value_cols
        return draw.samples, draw.columns, num_samples

    @pytest.fixture(autouse=True)
    def _kernel(self):
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")

    def _run(self, engine, compact, threads, **kwargs):
        values, columns, _ = compact
        return engine.run(
            values, columns=columns, engine="compiled",
            native_threads=threads, **kwargs
        )

    def test_workers_never_change_a_bit(self, engine, compact, monkeypatch):
        calls = _record_kernel_calls(monkeypatch)
        base = self._run(engine, compact, 1)
        for threads in self.WORKERS[1:]:
            _assert_bitwise(base, self._run(engine, compact, threads))
        # One sta_run call per run, over four blocks.
        assert len(calls) == len(self.WORKERS)
        assert all(-(-c["rows"] // c["block"]) == 4 for c in calls)

    def test_many_claimants_never_change_a_bit(
        self, engine, compact, monkeypatch
    ):
        # 32-lane blocks (the floor) turn the run into dozens of blocks
        # for 8 workers on fewer cores to claim from the shared counter;
        # a block lost or evaluated into the wrong columns shows here.
        base = self._run(engine, compact, 1)
        monkeypatch.setattr(compiled, "NATIVE_BLOCK_BYTE_BUDGET", 1)
        calls = _record_kernel_calls(monkeypatch)
        for _ in range(3):
            _assert_bitwise(base, self._run(engine, compact, 8))
        assert calls[-1]["block"] == 32
        assert native.team_size(8, calls[-1]["rows"], 32) == 8

    def test_chunked_runs_never_change_a_bit(self, engine, compact):
        base = self._run(engine, compact, 1)
        _, _, num_samples = compact
        for threads in self.WORKERS:
            chunked = self._run(
                engine, compact, threads, chunk_size=num_samples // 3 + 1
            )
            _assert_bitwise(base, chunked)

    def test_numpy_path_agrees(self, engine, compact, monkeypatch):
        threaded = self._run(engine, compact, 3)
        monkeypatch.setattr(native, "load_kernel", lambda: None)
        fallback = self._run(engine, compact, 3)
        assert not engine.program.last_run_native
        np.testing.assert_allclose(
            fallback.worst_delay, threaded.worst_delay, rtol=1e-12
        )
        for net, values in threaded.end_arrivals.items():
            np.testing.assert_allclose(
                fallback.end_arrivals[net], values, rtol=1e-12
            )


# ----------------------------------------------------------------------
# Block-size heuristic.
# ----------------------------------------------------------------------
class TestBlockSizing:
    def test_budget_is_per_worker(self, engine):
        # Every worker owns whole blocks with private buffers: the block
        # does not shrink with the team, the scratch grows with it.
        program = engine.program
        value_columns = 4 * program._packed_models.num_gates
        one = program.native_scratch_bytes(1, value_columns)
        for threads in (2, 3, 4):
            assert (
                program.native_scratch_bytes(threads, value_columns)
                == threads * one
            )
        assert one <= NATIVE_BLOCK_BYTE_BUDGET

    def test_block_size_is_pinned_for_known_inputs(self, engine):
        # Regression pin: the exact heuristic output for c880's packed
        # models.  A budget or per-sample accounting change must show up
        # here as a deliberate diff, not drift silently.  One worker's
        # per-sample working set is the lane's packed values (K = P·N_g
        # for per-gate samples, Σ n_t for triangle values), both arenas
        # and its four lane vectors, against a 4 MiB budget whatever the
        # team; blocks are whole 8-lane cache lines.
        program = engine.program
        num_gates = program._packed_models.num_gates
        width = program.num_slots
        assert NATIVE_BLOCK_BYTE_BUDGET == 4 * 1024 * 1024
        for value_columns in (0, 1580, 4 * num_gates):
            per_sample = 8 * (value_columns + 2 * width + 4)
            lanes = (4 * 1024 * 1024) // per_sample // 8 * 8
            assert lanes % 8 == 0
            expected = min(10**9, max(32, lanes))
            assert (
                program._native_block_size(10**9, width, value_columns)
                == expected
            )

    def test_small_sample_counts_are_not_padded(self, engine):
        program = engine.program
        assert program._native_block_size(40, program.num_slots) == 40
        # Below the 32-lane floor too: a block never outgrows the run.
        assert program._native_block_size(3, program.num_slots) == 3

    def test_floor_is_32_lanes(self, engine):
        program = engine.program
        # Even an absurdly wide value block cannot starve a block below
        # the vectorization floor.
        assert program._native_block_size(10**9, program.num_slots, 10**6) == 32

    def test_scratch_bytes_grow_with_per_thread_blocks(self, engine):
        program = engine.program
        value_columns = 4 * program._packed_models.num_gates
        block = _per_gate_block(engine)
        per_block = 2 * program.num_slots + value_columns + 4
        for threads in (1, 2, 4):
            assert (
                program.native_scratch_bytes(threads, value_columns)
                == 8 * threads * block * per_block
            )

    def test_scratch_bytes_match_what_a_run_allocates(
        self, engine, monkeypatch
    ):
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
        program = engine.program
        value_columns = 4 * program._packed_models.num_gates
        block = _per_gate_block(engine)
        calls = _record_kernel_calls(monkeypatch)
        samples = _samples(engine, 4 * block + 1)
        for threads in (1, 2, 3):
            engine.run(samples, engine="compiled", native_threads=threads)
            assert calls[-1]["block"] == block
            assert calls[-1]["bytes"] == program.native_scratch_bytes(
                threads, value_columns
            )

    def test_team_is_capped(self, engine, monkeypatch):
        # A run of one block is one worker whatever the request, and no
        # request reserves more than MAX_TEAM workers' buffers.
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
        program = engine.program
        value_columns = 4 * program._packed_models.num_gates
        assert program.native_scratch_bytes(
            10**6, value_columns
        ) == program.native_scratch_bytes(native.MAX_TEAM, value_columns)
        calls = _record_kernel_calls(monkeypatch)
        samples = _samples(engine, 40)
        base = engine.run(samples, engine="compiled", native_threads=1)
        wide = engine.run(samples, engine="compiled", native_threads=10**6)
        _assert_bitwise(base, wide)
        assert calls[0]["bytes"] == calls[1]["bytes"]
        assert native.team_size(calls[1]["threads"], 40, calls[1]["block"]) == 1
