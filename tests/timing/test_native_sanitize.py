"""Tests for the sanitizer build mode and portable cache keys."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.circuit.benchmarks import load_circuit
from repro.place.placer import place_netlist
from repro.timing import native
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.sta import STAEngine

BUILD_KERNEL = (
    "from repro.timing import native; "
    "assert native.load_kernel() is not None"
)


@pytest.fixture(autouse=True)
def _fresh_native_state(monkeypatch):
    """Isolate the per-process kernel memo and the sanitize env knob."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.setattr(native, "_cached", None)
    monkeypatch.setattr(native, "_cached_key", None)


def test_sanitize_mode_defaults_to_empty():
    assert native.sanitize_mode() == ()


def test_sanitize_mode_parses_tokens(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
    assert native.sanitize_mode() == ("undefined",)
    monkeypatch.setenv("REPRO_SANITIZE", "asan,ubsan")
    assert native.sanitize_mode() == ("address", "undefined")
    # Aliases, case and whitespace are normalized; duplicates collapse.
    monkeypatch.setenv("REPRO_SANITIZE", " Undefined , UBSAN ,address ")
    assert native.sanitize_mode() == ("address", "undefined")


def test_sanitize_mode_rejects_unknown_tokens(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan,bogus")
    with pytest.raises(ValueError, match="bogus"):
        native.sanitize_mode()


def test_default_cflags_are_unchanged_by_the_sanitize_feature(monkeypatch):
    # Only the probed thread backend's flags ride along with the
    # optimized set; with the backend pinned off, the flags are exactly
    # the baseline _CFLAGS.
    monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "none")
    assert native._effective_cflags() == native._CFLAGS
    assert "-O3" in native._CFLAGS
    monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "openmp")
    assert native._effective_cflags() == native._CFLAGS + ["-fopenmp"]


def test_sanitize_cflags_instrument_and_abort_on_error(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
    cflags = native._effective_cflags()
    assert "-fsanitize=undefined" in cflags
    assert "-fno-sanitize-recover=all" in cflags
    assert "-g" in cflags
    assert "-march=native" not in cflags


def test_sanitize_build_gets_a_distinct_cache_key(monkeypatch):
    default_key = native.kernel_build_info()["key"]
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
    ubsan_key = native.kernel_build_info()["key"]
    assert default_key != ubsan_key
    monkeypatch.setenv("REPRO_SANITIZE", "asan")
    assert native.kernel_build_info()["key"] not in (default_key, ubsan_key)


def test_compiler_identity_is_part_of_the_key(monkeypatch):
    monkeypatch.setattr(native, "_compiler_identity_cache", "cc one")
    key_one = native._build_key(b"source", native._CFLAGS)
    monkeypatch.setattr(native, "_compiler_identity_cache", "cc two")
    key_two = native._build_key(b"source", native._CFLAGS)
    assert key_one != key_two


def test_compiler_identity_survives_a_missing_compiler(monkeypatch):
    monkeypatch.setattr(native, "_compiler_identity_cache", None)
    monkeypatch.setenv("PATH", "")
    assert native._compiler_identity() == "no-cc"


def test_build_info_reports_the_mode(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
    info = native.kernel_build_info()
    assert info["sanitize"] == ("undefined",)
    assert "-fsanitize=undefined" in info["cflags"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_ubsan_kernel_builds_and_loads(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
    fn = native.load_kernel()
    assert fn is not None
    key = native.kernel_build_info()["key"]
    assert (tmp_path / "native" / f"sta_kernel_{key}.so").exists()


def test_load_kernel_raises_on_malformed_sanitize_env(monkeypatch):
    # A typo'd REPRO_SANITIZE must not silently fall back to the
    # uninstrumented kernel.
    monkeypatch.setenv("REPRO_SANITIZE", "ubsann")
    with pytest.raises(ValueError):
        native.load_kernel()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_truncated_cached_kernel_is_rebuilt(tmp_path, monkeypatch):
    # A truncated .so (an interrupted copy, a full disk) used to pass the
    # "already built" check and make every later process run numpy
    # without saying so; dlopen on it dies of SIGBUS instead of failing.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    # Build in another process, so this one never maps the file.
    subprocess.run(
        [sys.executable, "-c", BUILD_KERNEL], env=env, check=True, timeout=300
    )
    key = native.kernel_build_info()["key"]
    lib = tmp_path / "native" / f"sta_kernel_{key}.so"
    size = lib.stat().st_size
    os.truncate(lib, size // 2)

    assert native.load_kernel() is not None
    assert lib.stat().st_size == size

    netlist = load_circuit("c17")
    engine = STAEngine(netlist, place_netlist(netlist, seed=1))
    rng = np.random.default_rng(0)
    samples = {
        name: rng.standard_normal((16, netlist.num_gates)) * 0.1
        for name in STATISTICAL_PARAMETERS
    }
    engine.run(samples)
    assert engine.program.last_run_native is True
