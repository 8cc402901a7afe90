"""``sta_run`` validates its program images and buffers before any lane.

A valid image from the packer must evaluate (bitwise as the engine's own
native run); every corruption of it — each header count or section
offset moved by one, a slot past the arena, a zero fanin, fanins that do
not sum to the pin count, a value column out of range, buffers too short
for the block, negative rows or threads — must come back as its own
error code, raised as :class:`~repro.timing.native.NativeKernelError`,
never as a crash.  Run under UBSan and ASan in CI: a check that lets an
access through would be reported there even if it did not crash here.
"""

import shutil
import subprocess

import numpy as np
import pytest

from repro.circuit.bench_parser import parse_bench
from repro.place.placer import place_netlist
from repro.timing import native
from repro.timing.native import NativeKernelError
from repro.timing.sta import STAEngine

BENCH = """
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
OUTPUT(y)
q = DFF(z)
n1 = NAND(a, q)
n2 = NOR(n1, b)
n3 = AND(n1, c, q)
z = OR(n2, n3)
y = NOT(n3)
"""

ROWS = 13
THREADS = 2
SLEW = 20.0
NUM_COUNTS = len(native.PROG_COUNTS)


@pytest.fixture(scope="module")
def kernel():
    fn = native.load_kernel()
    if fn is None:
        pytest.skip("native kernel unavailable")
    return fn


@pytest.fixture(scope="module")
def program():
    netlist = parse_bench(BENCH, name="tiny")
    engine = STAEngine(netlist, place_netlist(netlist, seed=3))
    return engine.program


@pytest.fixture(scope="module")
def products(program):
    """A per-gate parameter and a compact one over 3 value columns."""
    rng = np.random.default_rng(5)
    num_gates = program.netlist.num_gates
    per_gate = rng.standard_normal((ROWS, num_gates)) * 0.1
    compact = rng.standard_normal((ROWS, 3)) * 0.1
    columns = np.arange(num_gates, dtype=np.int64) % 3
    return [
        (per_gate, None, rng.uniform(0.5, 1.0, num_gates)),
        (compact, columns, rng.uniform(0.5, 1.0, num_gates)),
    ]


@pytest.fixture()
def call(kernel, program, products):
    """Run ``sta_run`` on (optionally corrupted) images; return the code."""
    width = program.num_slots
    values = np.concatenate([v.T for v, _, _ in products]).ravel()

    def run(
        prog=None,
        coef=None,
        values=values,
        arena_len=width * ROWS,
        scratch_len=4 * ROWS * THREADS,
        rows=ROWS,
        threads=THREADS,
    ):
        good_prog, good_coef = program._pack_images(False, products, SLEW)
        arena_a = np.empty(arena_len)
        arena_s = np.empty(arena_len)
        try:
            native.run_kernel(
                kernel,
                good_prog if prog is None else prog,
                good_coef if coef is None else coef,
                values,
                arena_a,
                arena_s,
                np.empty(scratch_len),
                rows,
                threads,
            )
        except NativeKernelError as error:
            return error.code
        return 0

    return run


def images(program, products):
    return program._pack_images(False, products, SLEW)


def test_valid_image_matches_the_engine_bitwise(kernel, program, products):
    prog, coef = images(program, products)
    width = program.num_slots
    arena = np.empty(width * ROWS)
    values = np.concatenate([v.T for v, _, _ in products]).ravel()
    native.run_kernel(
        kernel, prog, coef, values, arena, np.empty(width * ROWS),
        np.empty(4 * ROWS * THREADS), ROWS, THREADS,
    )
    worst = arena[: width * ROWS].reshape(width, ROWS)[program._end_slots]
    expected = program.execute(
        ROWS, parameter_products=products, input_slew_ps=SLEW
    )
    assert program.last_run_native
    assert np.array_equal(worst.max(axis=0), expected.worst_delay)


def test_headers_describe_the_sections(program, products):
    prog, coef = images(program, products)
    assert prog[0] == native.STA_MAGIC and coef[0] == native.STA_MAGIC
    assert prog[1 + NUM_COUNTS] == 1 + NUM_COUNTS + len(native.PROG_SECTIONS)
    assert coef[1] == 1 + len(native.COEF_SECTIONS)


# ----------------------------------------------------------------------
# Header fields moved by one.
# ----------------------------------------------------------------------
def _section_code(base, index):
    """Moving section ``index``'s offset changes the extent of the
    section before it (the first section's start is pinned to the end
    of the header)."""
    return base + max(index - 1, 0)


COUNT_CASES = {
    # field: (code for +1, code for -1)
    "num_pi": (20, 20),
    "num_dff": (21, 21),
    "num_gates": (22, 22),
    "num_pins": (24, 24),
    "width": (61, None),        # -1: some slot lands past the arena
    "num_params": (25, 25),
    "num_value_cols": (60, 56),
}


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("field", native.PROG_COUNTS)
def test_prog_count_moved_by_one(call, program, products, field, delta):
    prog, _ = images(program, products)
    prog[1 + native.PROG_COUNTS.index(field)] += delta
    code = call(prog=prog)
    expected = COUNT_CASES[field][0 if delta > 0 else 1]
    if expected is None:
        assert code in (50, 51, 54, 55)
    else:
        assert code == expected


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("index", range(len(native.PROG_SECTIONS)))
def test_prog_offset_moved_by_one(call, program, products, index, delta):
    prog, _ = images(program, products)
    prog[1 + NUM_COUNTS + index] += delta
    assert call(prog=prog) == _section_code(20, index)


@pytest.mark.parametrize("delta", [1, -1, 0.5])
@pytest.mark.parametrize("index", range(len(native.COEF_SECTIONS)))
def test_coef_offset_moved(call, program, products, index, delta):
    _, coef = images(program, products)
    coef[1 + index] += delta
    expected = 30 + index if delta == 0.5 else _section_code(30, index)
    assert call(coef=coef) == expected


def test_magic_words_are_checked(call, program, products):
    prog, coef = images(program, products)
    prog[0] += 1
    assert call(prog=prog) == 4
    prog, coef = images(program, products)
    coef[0] = np.nan
    assert call(coef=coef) == 6


def test_truncated_headers_are_rejected(call, program, products):
    prog, coef = images(program, products)
    assert call(prog=prog[:3].copy()) == 3
    assert call(coef=coef[:3].copy()) == 5


# ----------------------------------------------------------------------
# Data-dependent indices.
# ----------------------------------------------------------------------
def _section(image, name):
    """A writable view of one ``prog`` section."""
    index = native.PROG_SECTIONS.index(name)
    start = int(image[1 + NUM_COUNTS + index])
    if index + 1 < len(native.PROG_SECTIONS):
        stop = int(image[2 + NUM_COUNTS + index])
    else:
        stop = image.size
    return image[start:stop]


@pytest.mark.parametrize(
    "name, value, code",
    [
        ("pi_slot", "width", 50),
        ("pi_slot", -1, 50),
        ("dff_slot", "width", 51),
        ("g_out_slot", "width", 54),
        ("p_slot", "width", 55),
        ("p_slot", -1, 55),
        ("u_col", "K", 56),
        ("u_col", -1, 56),
        ("g_fanin", 0, 52),
    ],
)
def test_out_of_range_entries(call, program, products, name, value, code):
    prog, _ = images(program, products)
    width = program.num_slots
    num_cols = sum(v.shape[1] for v, _, _ in products)
    _section(prog, name)[-1] = {"width": width, "K": num_cols}.get(
        value, value
    )
    assert call(prog=prog) == code


def test_fanins_must_sum_to_the_pin_count(call, program, products):
    prog, _ = images(program, products)
    _section(prog, "g_fanin")[0] += 1
    assert call(prog=prog) == 53


# ----------------------------------------------------------------------
# Buffer lengths and scalar arguments.
# ----------------------------------------------------------------------
def test_short_buffers_are_rejected(call, program):
    width = program.num_slots
    assert call() == 0
    values = np.concatenate([np.zeros(1)] * 3)
    assert call(values=values) == 60
    assert call(values=None) == 60
    assert call(arena_len=width * ROWS - 1) == 61
    assert call(scratch_len=4 * ROWS * THREADS - 1) == 63
    # Serial needs only one scratch block.
    assert call(scratch_len=4 * ROWS, threads=1) == 0


def test_arenas_of_different_lengths_name_the_short_one(
    kernel, program, products
):
    prog, coef = images(program, products)
    values = np.concatenate([v.T for v, _, _ in products]).ravel()
    size = program.num_slots * ROWS
    for short, code in (("a", 61), ("s", 62)):
        arenas = {
            "a": np.empty(size - (short == "a")),
            "s": np.empty(size - (short == "s")),
        }
        with pytest.raises(NativeKernelError) as info:
            native.run_kernel(
                kernel, prog, coef, values, arenas["a"], arenas["s"],
                np.empty(4 * ROWS), ROWS, 1,
            )
        assert info.value.code == code
        assert info.value.section == f"arena_{short}"


@pytest.mark.parametrize(
    "rows, threads, code",
    [(-1, THREADS, 1), (ROWS, -1, 2), (ROWS, 0, 2)],
)
def test_negative_rows_and_threads(call, rows, threads, code):
    assert call(rows=rows, threads=threads) == code


def test_zero_rows_is_a_no_op(call):
    assert call(rows=0, arena_len=0, scratch_len=0) == 0


def test_pointer_helper_checks_dtype_and_layout(kernel, program, products):
    prog, coef = images(program, products)
    arena = np.empty(program.num_slots * ROWS)
    scratch = np.empty(4 * ROWS)
    values = np.concatenate([v.T for v, _, _ in products]).ravel()
    with pytest.raises(TypeError, match="int64"):
        native.run_kernel(
            kernel, prog.astype(np.int32), coef, values, arena, arena,
            scratch, ROWS, 1,
        )
    with pytest.raises(TypeError, match="C-contiguous"):
        native.run_kernel(
            kernel, prog, coef, np.repeat(values, 2)[::2], arena, arena,
            scratch, ROWS, 1,
        )


def test_every_code_names_a_section():
    for code, (section, problem) in native.ERROR_CODES.items():
        assert section and problem
        assert str(code) in str(NativeKernelError(code))
    assert NativeKernelError(37).section == "g_bd"


@pytest.mark.skipif(
    shutil.which("nm") is None or shutil.which("cc") is None,
    reason="no nm or no C compiler",
)
def test_sta_run_is_the_only_exported_kernel_symbol(tmp_path):
    lib = tmp_path / "sta_kernel.so"
    assert native._compile(lib, native._effective_cflags())
    listing = subprocess.run(
        ["nm", "-D", "--defined-only", str(lib)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    symbols = {
        line.split()[-1]
        for line in listing.splitlines()
        if line.strip() and not line.split()[-1].startswith("_")
    }
    assert symbols == {native.KERNEL_FUNCTION}
