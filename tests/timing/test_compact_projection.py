"""Compact (triangle-space) samples through the timing engine.

``KLESampleGenerator.generate(expand=False)`` returns each parameter's
``(N, n_t)`` triangle values plus a gate→triangle map, and
``STAEngine.run(..., columns=)`` gathers through that map: inside the
native kernel per gate and lane, per block in the numpy path, up front
in the reference oracle.  Pinned here:

- compact and expanded inputs give bitwise-equal results on the native
  and the numpy engine;
- compact input matches the per-gate reference oracle at rtol 1e-12 on a
  combinational and a sequential circuit, with ``cross_correlation`` and
  with per-parameter KLEs on two different meshes;
- results are bitwise equal at 1, 2 and 3 kernel threads and between
  chunked and unchunked runs;
- a bad map raises ``ValueError`` before any kernel runs;
- ``run_kle`` never allocates a full ``(N × N_g)`` float64 matrix.
"""

import tracemalloc

import numpy as np
import pytest

from repro.circuit.benchmarks import load_circuit
from repro.core.galerkin import solve_kle
from repro.field.sampling import KLESampleGenerator
from repro.place.placer import place_netlist
from repro.timing import native
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.ssta import MonteCarloSSTA
from repro.timing.sta import STAEngine

DIE = (-1.0, -1.0, 1.0, 1.0)

#: A parameter cross-correlation matrix (L and W coupled through
#: lithography, Vt and tox weakly) for the separable C ⊗ K model.
CROSS = np.array(
    [
        [1.0, 0.6, 0.0, 0.1],
        [0.6, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.3],
        [0.1, 0.0, 0.3, 1.0],
    ]
)


@pytest.fixture(scope="module")
def engines():
    cache = {}

    def get(name):
        if name not in cache:
            netlist = load_circuit(name)
            placement = place_netlist(netlist, DIE, seed=7)
            cache[name] = STAEngine(netlist, placement)
        return cache[name]

    return get


@pytest.fixture(scope="module")
def refined_kle(gaussian_kernel, small_refined_mesh):
    """A second KLE of the same kernel on a different (Ruppert) mesh."""
    return solve_kle(gaussian_kernel, small_refined_mesh, num_eigenpairs=30)


def _generator(kles, **kwargs):
    return KLESampleGenerator(kles, r=12, **kwargs)


def _shared(kle, **kwargs):
    return _generator({name: kle for name in STATISTICAL_PARAMETERS}, **kwargs)


def _two_meshes(kle_a, kle_b):
    kles = {
        name: (kle_a if i % 2 == 0 else kle_b)
        for i, name in enumerate(STATISTICAL_PARAMETERS)
    }
    return _generator(kles)


def _draw(generator, engine, num_samples, seed=5):
    locations = engine.placement.gate_locations()
    compact = generator.generate(
        locations, num_samples, seed=seed, expand=False
    )
    expanded = generator.generate(locations, num_samples, seed=seed)
    return compact, expanded


def _assert_bitwise(a, b):
    assert np.array_equal(a.worst_delay, b.worst_delay)
    assert set(a.end_arrivals) == set(b.end_arrivals)
    for net, values in a.end_arrivals.items():
        assert np.array_equal(values, b.end_arrivals[net])


def _assert_matches(compiled, reference):
    np.testing.assert_allclose(
        compiled.worst_delay, reference.worst_delay, rtol=1e-12, atol=1e-9
    )
    assert set(compiled.end_arrivals) == set(reference.end_arrivals)
    for net, values in reference.end_arrivals.items():
        np.testing.assert_allclose(
            compiled.end_arrivals[net], values, rtol=1e-12, atol=1e-9
        )


@pytest.fixture(params=["native", "numpy"])
def path(request, monkeypatch):
    """Run the compiled engine through the native kernel or numpy."""
    if request.param == "native":
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
    else:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    return request.param


# ----------------------------------------------------------------------
# Generator contract.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cross", [None, CROSS])
def test_compact_values_gather_to_the_expanded_matrices(
    engines, gaussian_kle, cross
):
    engine = engines("c880")
    compact, expanded = _draw(
        _shared(gaussian_kle, cross_correlation=cross), engine, 40
    )
    assert expanded.columns is None
    num_triangles = gaussian_kle.d_vectors.shape[0]
    for name, values in compact.samples.items():
        columns = compact.columns[name]
        assert values.shape == (40, num_triangles)
        assert values.flags.c_contiguous
        assert columns.dtype == np.int64
        assert columns.shape == (engine.netlist.num_gates,)
        assert np.array_equal(
            np.take(values, columns, axis=1), expanded.samples[name]
        )


# ----------------------------------------------------------------------
# Compact vs expanded: bitwise on both compiled paths.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("circuit", ["c880", "s5378"])
def test_compact_and_expanded_are_bitwise_equal(
    engines, gaussian_kle, path, circuit
):
    engine = engines(circuit)
    compact, expanded = _draw(
        _shared(gaussian_kle, cross_correlation=CROSS), engine, 45
    )
    from_compact = engine.run(compact.samples, columns=compact.columns)
    assert engine.program.last_run_native is (path == "native")
    from_expanded = engine.run(expanded.samples)
    _assert_bitwise(from_compact, from_expanded)


def test_native_and_numpy_agree_on_compact_input(
    engines, gaussian_kle, monkeypatch
):
    if native.load_kernel() is None:
        pytest.skip("native kernel unavailable")
    engine = engines("s5378")
    compact, _ = _draw(_shared(gaussian_kle), engine, 33)
    with_native = engine.run(compact.samples, columns=compact.columns)
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    without = engine.run(compact.samples, columns=compact.columns)
    _assert_matches(without, with_native)


# ----------------------------------------------------------------------
# Compact vs the per-gate reference oracle.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("circuit", ["c880", "s5378"])
@pytest.mark.parametrize("setup", ["cross", "two_meshes"])
def test_compact_matches_reference_oracle(
    engines, gaussian_kle, refined_kle, circuit, setup
):
    engine = engines(circuit)
    if setup == "cross":
        generator = _shared(gaussian_kle, cross_correlation=CROSS)
    else:
        generator = _two_meshes(gaussian_kle, refined_kle)
    compact, _ = _draw(generator, engine, 24)
    if setup == "two_meshes":
        widths = {values.shape[1] for values in compact.samples.values()}
        assert len(widths) == 2, "parameters must live on two meshes"
    reference = engine.run(
        compact.samples, columns=compact.columns, engine="reference"
    )
    compiled = engine.run(compact.samples, columns=compact.columns)
    _assert_matches(compiled, reference)


# ----------------------------------------------------------------------
# Determinism: thread counts and chunking.
# ----------------------------------------------------------------------
def test_compact_results_are_bitwise_across_threads(
    engines, gaussian_kle, refined_kle
):
    if native.load_kernel() is None:
        pytest.skip("native kernel unavailable")
    engine = engines("s5378")
    compact, _ = _draw(_two_meshes(gaussian_kle, refined_kle), engine, 101)
    runs = [
        engine.run(
            compact.samples, columns=compact.columns, native_threads=threads
        )
        for threads in (1, 2, 3)
    ]
    for other in runs[1:]:
        _assert_bitwise(runs[0], other)


def test_compact_chunked_is_bitwise_identical(engines, gaussian_kle, path):
    engine = engines("s5378")
    compact, _ = _draw(_shared(gaussian_kle), engine, 100)
    full = engine.run(compact.samples, columns=compact.columns)
    chunked = engine.run(
        compact.samples, columns=compact.columns, chunk_size=17
    )
    _assert_bitwise(full, chunked)


# ----------------------------------------------------------------------
# Column-map validation happens before the kernel.
# ----------------------------------------------------------------------
@pytest.fixture()
def no_kernel(monkeypatch):
    """Fail loudly if any compiled path reaches for a kernel."""

    def forbidden():
        raise AssertionError("a bad column map reached the kernel")

    monkeypatch.setattr(native, "load_kernel", forbidden)
    monkeypatch.setattr(native, "load_kernel_mt", forbidden)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda cols, k: np.where(cols == cols[0], k, cols), "must lie in"),
        (lambda cols, k: np.where(cols == cols[0], -1, cols), "must lie in"),
        (lambda cols, k: cols[:-1], "must have shape"),
        (lambda cols, k: cols.astype(np.int32), "must be int64"),
        (lambda cols, k: cols[None, :], "must have shape"),
    ],
    ids=["past-end", "negative", "short", "int32", "2-d"],
)
@pytest.mark.parametrize("engine_mode", ["compiled", "reference"])
def test_bad_column_map_raises_before_the_kernel(
    engines, gaussian_kle, no_kernel, corrupt, message, engine_mode
):
    engine = engines("c880")
    compact, _ = _draw(_shared(gaussian_kle), engine, 8)
    width = compact.samples["L"].shape[1]
    columns = dict(compact.columns)
    columns["L"] = corrupt(columns["L"], width)
    with pytest.raises(ValueError, match=message):
        engine.run(compact.samples, columns=columns, engine=engine_mode)


def test_columns_without_matching_samples_raise(engines, gaussian_kle):
    engine = engines("c880")
    compact, _ = _draw(_shared(gaussian_kle), engine, 8)
    samples = {"L": compact.samples["L"]}
    with pytest.raises(ValueError, match="without samples"):
        engine.run(samples, columns=compact.columns)
    with pytest.raises(ValueError, match="without parameter samples"):
        engine.run(None, columns=compact.columns)


# ----------------------------------------------------------------------
# Memory: the KLE flow never builds an (N × N_g) matrix.
# ----------------------------------------------------------------------
def test_run_kle_never_allocates_a_per_gate_matrix(
    gaussian_kernel, gaussian_kle
):
    # The numpy fallback projects u in (block × N_g) buffers, which for
    # N below one block is a full matrix; the claim is the kernel's.
    if native.load_kernel() is None:
        pytest.skip("native kernel unavailable")
    netlist = load_circuit("c3540")
    placement = place_netlist(netlist, DIE, seed=7)
    harness = MonteCarloSSTA(
        netlist, placement, gaussian_kernel, gaussian_kle, r=12
    )
    num_samples = 2000
    per_gate_bytes = 8 * num_samples * netlist.num_gates
    harness.run_kle(8, seed=0)  # compile, locate gates, load the kernel

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    compact_peak = peak(lambda: harness.run_kle(num_samples, seed=1))
    assert compact_peak < per_gate_bytes, (
        f"run_kle peaked at {compact_peak / 1e6:.1f} MB, at least one "
        f"(N × N_g) matrix ({per_gate_bytes / 1e6:.1f} MB)"
    )

    def expanded_flow():
        generated = harness.kle_generator.generate(
            harness.gate_locations, num_samples, seed=1
        )
        harness.engine.run(generated.samples)

    # The check can fail: the expanded flow holds all four matrices.
    assert peak(expanded_flow) > 4 * per_gate_bytes
