"""Seeded sizing defects at the native boundary fail loudly, never silently.

Each test copies ``src/repro`` to a temporary directory, applies one text
mutation to ``timing/compiled.py`` — the historical sizing bugs the
kernel boundary has to survive — and runs c880 (N=65, two kernel
threads) in a subprocess against the copy.  The run must stop with a
:class:`~repro.timing.native.NativeKernelError` naming the bad section:
no crash (a signal or sanitizer abort), and no numbers.  An unmutated
copy, run the same way, must return its numbers.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.timing import native

SRC_REPRO = Path(repro.__file__).resolve().parent

SCRIPT = """
import numpy as np
import repro
from repro.circuit.benchmarks import load_circuit
from repro.place.placer import place_netlist
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.sta import STAEngine

assert repro.__file__.startswith({root!r}), repro.__file__
netlist = load_circuit("c880")
engine = STAEngine(netlist, place_netlist(netlist, seed=7))
rng = np.random.default_rng(3)
samples = {{
    name: rng.standard_normal((65, netlist.num_gates)) * 0.1
    for name in STATISTICAL_PARAMETERS
}}
result = engine.run(samples, native_threads=2)
assert engine.program.last_run_native
print("worst", float(result.worst_delay.max()))
"""


@pytest.fixture(scope="module", autouse=True)
def kernel_available():
    if native.load_kernel() is None:
        pytest.skip("native kernel unavailable")


def run_mutated(tmp_path: Path, old: str = "", new: str = ""):
    root = tmp_path / "src"
    shutil.copytree(
        SRC_REPRO, root / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )
    if old:
        target = root / "repro" / "timing" / "compiled.py"
        text = target.read_text(encoding="utf-8")
        assert text.count(old) == 1, f"mutation anchor not unique: {old!r}"
        target.write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root)
    # Same kernel source, same build key: reuse the suite's kernel build.
    env["REPRO_CACHE_DIR"] = str(
        Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache")).resolve()
    )
    return subprocess.run(
        [sys.executable, "-c", SCRIPT.format(root=str(root))],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=tmp_path,
    )


def assert_rejected(proc, section: str) -> None:
    assert proc.returncode == 1, (
        f"expected a Python exception, got exit {proc.returncode}\n"
        f"{proc.stderr[-2000:]}"
    )
    assert proc.stdout == "", "a rejected run must not return numbers"
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("repro.timing.native.NativeKernelError"), last
    assert f": {section} " in last, last


def test_unmutated_copy_returns_numbers(tmp_path):
    proc = run_mutated(tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("worst ")


def test_scratch_without_its_thread_factor_is_rejected(tmp_path):
    proc = run_mutated(
        tmp_path,
        "kscratch = np.empty(4 * block * threads)",
        "kscratch = np.empty(4 * block)",
    )
    assert_rejected(proc, "scratch")


def test_arena_one_slot_short_is_rejected(tmp_path):
    proc = run_mutated(
        tmp_path,
        "arena_a = np.empty(width * block)",
        "arena_a = np.empty(width * block - 1)",
    )
    assert_rejected(proc, "arena_a")


def test_gate_coefficient_section_one_entry_short_is_rejected(tmp_path):
    proc = run_mutated(
        tmp_path,
        '"g_bd": self._k_bd,',
        '"g_bd": self._k_bd[:-1],',
    )
    assert_rejected(proc, "g_bd")


def test_column_table_one_entry_short_is_rejected(tmp_path):
    proc = run_mutated(
        tmp_path,
        "return u_col.ravel(), u_w.ravel()",
        "return u_col.ravel()[1:], u_w.ravel()",
    )
    assert_rejected(proc, "u_col")
