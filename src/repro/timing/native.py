"""Build, load and call the optional native STA sweep kernel.

:mod:`repro.timing.compiled` evaluates sample blocks with numpy array
operations.  When a C compiler is available, the same flattened program
can instead be driven through ``sta_kernel.c`` — a single fused pass per
gate that runs several times faster than the array formulation (no
intermediate arrays, no per-op dispatch) — in one call per run.  This
module compiles that kernel on first use with the system ``cc`` into the
artifact cache directory (``REPRO_CACHE_DIR``, default ``.repro_cache``)
and loads it with :mod:`ctypes`; nothing is installed and no third-party
build tooling is used.

One entry point.  The kernel exports a single function, ``sta_run``
(:data:`KERNEL_FUNCTION`), which takes two self-describing program
images — an int64 ``prog`` and a float64 ``coef``, each a header of
counts and section offsets followed by the sections (layout in
``sta_kernel.c``, section names in :data:`PROG_SECTIONS` and
:data:`COEF_SECTIONS`) — plus the parameter value matrices, the
per-worker arenas and scratch, the end-arrival output, each with its
length, and the row, block and thread counts.  Threads = 1 is the
serial sweep.  :func:`run_kernel` is the only caller.

Loud validation.  ``sta_run`` checks the headers against the buffer
lengths it was given and every data-dependent index before it touches a
lane; a violation returns a code that :func:`run_kernel` raises as
:class:`NativeKernelError`, naming the bad section.  Whatever a caller
passes, the kernel does not read or write out of bounds.  The one check
left to Python is what each pointer claims: :func:`run_kernel` refuses a
buffer that is not C-contiguous or has the wrong dtype (``TypeError``).

The kernel is optional: with no compiler, a failed build, or
``REPRO_NO_NATIVE=1``, :func:`load_kernel` returns ``None`` and the
engine runs the numpy path (``CompiledTimingProgram.last_run_native``
records which path a run took).  A cached ``.so`` that fails the digest
its build recorded (truncated or corrupt) is rebuilt, not loaded.
Results are within floating-point reassociation error (``rtol=1e-12``)
of both the numpy path and the reference engine, and are bitwise
reproducible across chunk/block partitionings.

Threading: ``sta_run`` cuts the run's samples into cache-sized blocks
and a team of ``min(threads, blocks, MAX_TEAM)`` workers
(:func:`team_size`) evaluates whole blocks, each claiming the next free
block when it finishes one, with private arenas and scratch.  The
parallel backend is probed at build time (:func:`thread_backend`):
OpenMP when a ``-fopenmp`` compile succeeds, raw pthreads otherwise, a
single worker when neither works — and the chosen backend's flags are folded into the build key, so
toolchains with different threading support never share a ``.so``.
``REPRO_NATIVE_THREADS`` selects the worker count (unset → 1,
``auto``/``0`` → all cores, a positive integer → that many; anything
else raises ``ValueError``) and ``REPRO_NATIVE_THREAD_BACKEND`` can pin
the backend for testing.  Per-lane arithmetic is identical whichever
block or worker holds a lane, so results are bitwise independent of the
thread count and the block size.

Setting ``REPRO_SANITIZE=ubsan`` (or ``asan``, comma-separable) switches
to an instrumented build — ``-O1 -g -fsanitize=... -fno-sanitize-
recover=all`` — cached under its own key so sanitizer objects never
shadow the optimized ones.  The cache key also folds in the first line
of ``cc --version``: with ``-march=native`` a ``.so`` is only valid for
the toolchain/CPU that produced it, so a shared cache directory must not
hand it to a different machine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

_SOURCE = Path(__file__).with_name("sta_kernel.c")
_CFLAGS = ["-O3", "-march=native", "-shared", "-fPIC"]

#: Accepted ``REPRO_SANITIZE`` tokens → ``-fsanitize=`` group names.
_SANITIZE_FLAG_MAP = {
    "asan": "address",
    "address": "address",
    "ubsan": "undefined",
    "undefined": "undefined",
}

#: Base flags for sanitizer builds: light optimization and debug info so
#: sanitizer reports carry usable line numbers.  Deliberately disjoint
#: from :data:`_CFLAGS` — the optimized build's flags (and therefore its
#: bitwise behavior and cache key) never change when sanitizers exist.
_SANITIZE_BASE_CFLAGS = ["-O1", "-g", "-shared", "-fPIC"]

#: The one exported entry point of ``sta_kernel.c``.
KERNEL_FUNCTION = "sta_run"

#: Most workers one ``sta_run`` call runs, whatever ``threads`` asks for
#: (``STA_MAX_TEAM`` in ``sta_kernel.c``).
MAX_TEAM = 64

#: Compiler flags per thread backend.  ``pthreads`` defines
#: ``REPRO_USE_PTHREADS`` so ``sta_kernel.c`` compiles its pthread
#: driver instead of relying on the (absent) ``_OPENMP`` macro.
_BACKEND_FLAGS: Dict[str, Tuple[str, ...]] = {
    "openmp": ("-fopenmp",),
    "pthreads": ("-pthread", "-DREPRO_USE_PTHREADS"),
    "none": (),
}

_OPENMP_PROBE = "#include <omp.h>\nint probe(void){return omp_get_max_threads();}\n"
_PTHREAD_PROBE = (
    "#include <pthread.h>\n"
    "static void *noop(void *p){return p;}\n"
    "int probe(void){pthread_t t;"
    "return pthread_create(&t, 0, noop, 0) == 0 ? pthread_join(t, 0) : 1;}\n"
)

_cached: Optional[Any] = None
_cached_key: Optional[str] = None
_compiler_identity_cache: Optional[str] = None
_thread_backend_cache: Optional[str] = None


def _cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def sanitize_mode() -> Tuple[str, ...]:
    """The sanitizer groups requested via ``REPRO_SANITIZE``.

    ``REPRO_SANITIZE=asan,ubsan`` (aliases ``address``/``undefined``
    also accepted, comma-separated, case-insensitive) selects an
    instrumented kernel build.  Returns the sorted, deduplicated
    ``-fsanitize=`` group names, ``()`` when unset.  Unknown tokens
    raise ``ValueError`` — a typo silently falling back to the
    uninstrumented kernel would defeat the whole point of the mode.

    Note on ``asan``: loading an ASan-instrumented ``.so`` into an
    uninstrumented Python requires ``LD_PRELOAD``-ing the ASan runtime
    (``gcc -print-file-name=libasan.so``) and ``ASAN_OPTIONS=
    detect_leaks=0``; ``ubsan`` needs neither, gcc links it
    self-contained into shared objects.
    """
    raw = os.environ.get("REPRO_SANITIZE", "")
    groups: List[str] = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        group = _SANITIZE_FLAG_MAP.get(token)
        if group is None:
            raise ValueError(
                f"unknown REPRO_SANITIZE token {token!r}; expected a "
                f"comma-separated subset of "
                f"{sorted(set(_SANITIZE_FLAG_MAP))}"
            )
        if group not in groups:
            groups.append(group)
    return tuple(sorted(groups))


def native_thread_count() -> int:
    """Worker count requested via ``REPRO_NATIVE_THREADS``.

    Unset (or blank) means 1 — the serial hot path, so existing
    single-threaded deployments never change behavior implicitly.
    ``auto`` or ``0`` means every core ``os.cpu_count()`` reports.  A
    positive integer selects that many workers.  Anything else raises
    ``ValueError``: a typo silently running serial would invalidate a
    thread-scaling measurement.

    Results never depend on this knob — the kernel's per-lane
    arithmetic is identical whichever worker evaluates a lane — only
    speed does.
    """
    raw = os.environ.get("REPRO_NATIVE_THREADS", "").strip()
    if not raw:
        return 1
    if raw.lower() in ("auto", "0"):
        return max(1, os.cpu_count() or 1)
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"invalid REPRO_NATIVE_THREADS {raw!r}: expected a positive "
            f"integer, 'auto'/'0' (all cores), or unset (serial)"
        ) from None
    if value < 1:
        raise ValueError(
            f"invalid REPRO_NATIVE_THREADS {raw!r}: thread count must be "
            f">= 1 (use 'auto' or '0' for all cores)"
        )
    return value


def resolve_thread_count(explicit: Optional[int] = None) -> int:
    """Effective worker count: explicit override, else the env knob.

    ``explicit`` comes from API plumbing (``STAEngine.run(...,
    native_threads=)``, the service config); ``None`` defers to
    ``REPRO_NATIVE_THREADS``.  Values below 1 raise ``ValueError``.
    """
    if explicit is None:
        return native_thread_count()
    value = int(explicit)
    if value < 1:
        raise ValueError(f"native_threads must be >= 1, got {explicit!r}")
    return value


def _probe_compiles(snippet: str, flags: Sequence[str]) -> bool:
    """Whether ``cc`` builds ``snippet`` into a shared object with ``flags``."""
    tmpdir = None
    try:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro_thread_probe_")
        src = Path(tmpdir.name) / "probe.c"
        src.write_text(snippet, encoding="utf-8")
        out = Path(tmpdir.name) / "probe.so"
        proc = subprocess.run(
            ["cc", "-shared", "-fPIC", *flags, str(src), "-o", str(out)],
            capture_output=True,
            timeout=60,
            check=False,
        )
        return proc.returncode == 0
    except (OSError, subprocess.SubprocessError, ValueError):
        return False
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()


def thread_backend() -> str:
    """The thread backend a kernel build would use (memoized compile probe).

    Probes the toolchain once per process: ``"openmp"`` when a
    ``-fopenmp`` compile succeeds, else ``"pthreads"`` when ``-pthread``
    works, else ``"none"`` (``sta_run`` then evaluates every block of a
    threaded call on one worker).  ``REPRO_NATIVE_THREAD_BACKEND``
    pins the answer — ``openmp``/``pthreads``/``none``, case-insensitive
    — skipping the probe, which is how tests exercise the fallback
    paths deterministically; an unknown value raises ``ValueError``.
    """
    global _thread_backend_cache
    forced = os.environ.get("REPRO_NATIVE_THREAD_BACKEND", "").strip().lower()
    if forced:
        if forced not in _BACKEND_FLAGS:
            raise ValueError(
                f"unknown REPRO_NATIVE_THREAD_BACKEND {forced!r}; expected "
                f"one of {sorted(_BACKEND_FLAGS)} or unset (auto-probe)"
            )
        return forced
    if _thread_backend_cache is None:
        if _probe_compiles(_OPENMP_PROBE, _BACKEND_FLAGS["openmp"]):
            backend = "openmp"
        elif _probe_compiles(_PTHREAD_PROBE, ("-pthread",)):
            backend = "pthreads"
        else:
            backend = "none"
        # Per-process memo: the toolchain cannot change mid-process, and
        # each pool worker probing cc once is the intended behavior.
        _thread_backend_cache = backend  # repro-lint: disable=REPRO-PAR001
    return _thread_backend_cache


def thread_backend_flags() -> List[str]:
    """Compiler flags for the probed (or pinned) thread backend."""
    return list(_BACKEND_FLAGS[thread_backend()])


def _effective_cflags() -> List[str]:
    """Compiler flags for the current build mode (optimized or sanitize).

    The thread-backend flags ride along in both modes — the sanitize
    job must instrument the same threaded driver the optimized build
    runs — and land in the build key via :func:`_build_key`.
    """
    groups = sanitize_mode()
    if not groups:
        return list(_CFLAGS) + thread_backend_flags()
    return (
        _SANITIZE_BASE_CFLAGS
        + [
            f"-fsanitize={','.join(groups)}",
            "-fno-sanitize-recover=all",
        ]
        + thread_backend_flags()
    )


def _compiler_identity() -> str:
    """First line of ``cc --version`` (memoized), or a fallback marker.

    Folded into the build key so a shared ``REPRO_CACHE_DIR`` never
    reuses a ``.so`` across toolchains — ``-march=native`` output from
    one machine is not portable to another CPU/compiler.
    """
    global _compiler_identity_cache
    if _compiler_identity_cache is None:
        try:
            proc = subprocess.run(
                ["cc", "--version"],
                capture_output=True,
                timeout=10,
                check=False,
            )
            first_line = proc.stdout.decode("utf-8", "replace").splitlines()
            identity = first_line[0].strip() if first_line else "unknown-cc"
        except (OSError, subprocess.SubprocessError, ValueError):
            identity = "no-cc"
        # Per-process memo: the toolchain cannot change mid-process, and
        # each pool worker probing cc once is the intended behavior.
        _compiler_identity_cache = identity  # repro-lint: disable=REPRO-PAR001
    return _compiler_identity_cache


def _build_key(source: bytes, cflags: Sequence[str]) -> str:
    digest = hashlib.sha256()
    digest.update(source)
    digest.update(" ".join(cflags).encode())
    digest.update(b"\0")
    digest.update(_compiler_identity().encode("utf-8", "replace"))
    return digest.hexdigest()[:16]


def kernel_build_info() -> Dict[str, Union[str, int, Tuple[str, ...], List[str]]]:
    """Describe the build the current environment would produce.

    Purely informational (used by tests and bench reports): the cache
    key, effective flags, sanitizer groups, compiler identity, thread
    backend and the worker count the env would select — without
    triggering a compile.
    """
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        source = b""
    cflags = _effective_cflags()
    return {
        "key": _build_key(source, cflags),
        "cflags": cflags,
        "sanitize": sanitize_mode(),
        "compiler": _compiler_identity(),
        "thread_backend": thread_backend(),
        "threads": native_thread_count(),
    }


#: Magic word opening both program images (``"STA1"``).
STA_MAGIC = 0x53544131

#: The ``prog`` header after the magic word: the counts, in order.
PROG_COUNTS = (
    "num_pi",
    "num_dff",
    "num_gates",
    "num_pins",
    "width",
    "num_params",
    "num_value_cols",
    "num_ends",
)

#: Sections of the int64 ``prog`` image, in layout order.
PROG_SECTIONS = (
    "pi_slot",
    "dff_slot",
    "g_fanin",
    "g_out_slot",
    "p_slot",
    "u_col",
    "v_cols",
    "end_slot",
)

#: Sections of the float64 ``coef`` image, in layout order.
COEF_SECTIONS = (
    "input_slew",
    "dff_dnom",
    "dff_snom",
    "dff_k1",
    "dff_k2",
    "dff_m1",
    "dff_m2",
    "g_bd",
    "g_dsl",
    "g_bs",
    "g_ssl",
    "g_k1",
    "g_k2",
    "g_m1",
    "g_m2",
    "p_wd",
    "p_step2",
    "u_w",
)

#: ``sta_run`` return code → (section, what is wrong); mirrors the
#: ``STA_ERR_*`` enum in ``sta_kernel.c``.
ERROR_CODES: Dict[int, Tuple[str, str]] = {
    1: ("rows", "must lie in [0, 2**30]"),
    2: ("threads", "must lie in [1, 2**30]"),
    3: ("prog", "is missing or shorter than its header"),
    4: ("prog", "does not start with the STA1 magic word"),
    5: ("coef", "is missing or shorter than its header"),
    6: ("coef", "does not start with the STA1 magic word"),
    7: ("block", "must lie in [1, 2**30]"),
    50: ("pi_slot", "has an entry outside [0, width)"),
    51: ("dff_slot", "has an entry outside [0, width)"),
    52: ("g_fanin", "has an entry outside [1, num_pins]"),
    53: ("g_fanin", "does not sum to num_pins"),
    54: ("g_out_slot", "has an entry outside [0, width)"),
    55: ("p_slot", "has an entry outside [0, width)"),
    56: ("u_col", "has an entry outside [0, num_value_cols)"),
    57: ("v_cols", "has a negative entry or does not sum to num_value_cols"),
    58: ("end_slot", "has an entry outside [0, width)"),
    59: ("values", "does not hold num_params matrices"),
    60: ("values", "has a matrix missing or shorter than rows * v_cols"),
    61: ("arena_a", "is shorter than team * width * block"),
    62: ("arena_s", "is shorter than team * width * block"),
    63: ("scratch", "is shorter than team * (num_value_cols + 4) * block"),
    64: ("end_out", "is shorter than num_ends * rows"),
}
ERROR_CODES.update(
    {10 + 1 + i: (name, "count must lie in [0, 2**30]")
     for i, name in enumerate(PROG_COUNTS)}
)
ERROR_CODES.update(
    {20 + i: (name, "section extent does not match its count")
     for i, name in enumerate(PROG_SECTIONS)}
)
ERROR_CODES.update(
    {30 + i: (name, "section extent does not match its count")
     for i, name in enumerate(COEF_SECTIONS)}
)


class NativeKernelError(RuntimeError):
    """``sta_run`` refused a call whose images or buffers are inconsistent.

    ``code`` is the kernel's return code and ``section`` the image
    section or buffer it names.  Raised before the kernel touches a
    single lane, so nothing was read or written out of bounds.
    """

    def __init__(self, code: int):
        section, problem = ERROR_CODES.get(code, ("?", "unknown error code"))
        super().__init__(
            f"sta_run rejected the call (code {code}): {section} {problem}"
        )
        self.code = code
        self.section = section


def _buffer(array: Optional[np.ndarray], dtype: type) -> Tuple[Any, int]:
    """``(pointer, length)`` of a C-contiguous ``dtype`` array.

    ``None`` passes as ``(NULL, 0)``.
    """
    if array is None:
        return None, 0
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise TypeError(
            f"sta_run needs C-contiguous {np.dtype(dtype).name} buffers, "
            f"got {array.dtype} (C-contiguous: {array.flags.c_contiguous})"
        )
    return array.ctypes.data, array.size


def team_size(threads: int, rows: int, block: int) -> int:
    """Workers ``sta_run`` runs for ``rows`` lanes in ``block``-lane blocks.

    ``min(threads, number of blocks, MAX_TEAM)``, the kernel's own rule:
    per-worker buffers sized for this team are exactly what it checks.
    """
    blocks = -(-int(rows) // int(block)) if block > 0 else 0
    return max(0, min(int(threads), blocks, MAX_TEAM))


def run_kernel(
    kernel: Any,
    prog: np.ndarray,
    coef: np.ndarray,
    values: Optional[Sequence[Optional[np.ndarray]]],
    arena_a: np.ndarray,
    arena_s: np.ndarray,
    scratch: np.ndarray,
    end_out: np.ndarray,
    rows: int,
    block: int,
    threads: int,
) -> None:
    """Evaluate ``rows`` samples with one ``sta_run`` call; raise on a
    rejected call.

    ``values`` holds one row-major ``(rows, K_j)`` matrix per parameter
    (``None`` for none), in the order of the images' projection tables.
    The kernel validates everything it is handed against the buffer
    lengths passed alongside, so the only Python-side obligations left
    are the element type and layout each pointer claims, and the one
    length ``sta_run`` takes for both arenas: arenas of different
    lengths are rejected here, naming the shorter one.
    """
    a_ptr, arena_len = _buffer(arena_a, np.float64)
    s_ptr, s_len = _buffer(arena_s, np.float64)
    if s_len != arena_len:
        raise NativeKernelError(61 if arena_len < s_len else 62)
    matrices = list(values or ())
    ptrs = (ctypes.c_void_p * len(matrices))()
    lens = (ctypes.c_int64 * len(matrices))()
    for j, matrix in enumerate(matrices):
        ptrs[j], lens[j] = _buffer(matrix, np.float64)
    code = kernel(
        *_buffer(prog, np.int64),
        *_buffer(coef, np.float64),
        ptrs if matrices else None,
        lens if matrices else None,
        len(matrices),
        a_ptr,
        s_ptr,
        arena_len,
        *_buffer(scratch, np.float64),
        *_buffer(end_out, np.float64),
        rows,
        block,
        threads,
    )
    if code:
        raise NativeKernelError(code)


def _digest_path(lib_path: Path) -> Path:
    """Where the SHA-256 of a completed build of ``lib_path`` is recorded."""
    return lib_path.with_suffix(".sha256")


def _intact(lib_path: Path) -> bool:
    """Whether ``lib_path`` still matches the digest its build recorded.

    ``dlopen`` does not reject a truncated shared object, it maps it and
    dies of ``SIGBUS`` while relocating, so a cached file is only loaded
    after this check.
    """
    try:
        recorded = _digest_path(lib_path).read_text(encoding="ascii").strip()
        blob = lib_path.read_bytes()
    except OSError:
        return False
    return hashlib.sha256(blob).hexdigest() == recorded


def _compile(lib_path: Path, cflags: Sequence[str]) -> bool:
    """Compile the kernel into ``lib_path`` atomically; ``False`` on failure.

    Builds go to temp files that are then ``os.replace``-d into place —
    the digest :func:`_intact` checks first, then the library — so
    concurrent processes (e.g. ``table1`` workers) never load a
    half-written library.
    """
    tmps: List[str] = []
    try:
        lib_path.parent.mkdir(parents=True, exist_ok=True)
        for suffix in (".so.tmp", ".sha256.tmp"):
            fd, tmp = tempfile.mkstemp(dir=lib_path.parent, suffix=suffix)
            os.close(fd)
            tmps.append(tmp)
        subprocess.run(
            ["cc", *cflags, str(_SOURCE), "-o", tmps[0], "-lm"],
            check=True,
            capture_output=True,
            timeout=120,
        )
        digest = hashlib.sha256(Path(tmps[0]).read_bytes()).hexdigest()
        Path(tmps[1]).write_text(digest + "\n", encoding="ascii")
        os.replace(tmps[1], _digest_path(lib_path))
        os.replace(tmps[0], lib_path)
        return True
    except (OSError, subprocess.SubprocessError, ValueError):
        # No compiler, compile error, timeout, or an unwritable cache
        # dir — all mean "stay on the numpy path", never a crash.
        for tmp in tmps:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return False


def _open(lib_path: Path) -> Optional[Any]:
    """The ``sta_run`` function of the library at ``lib_path``, or ``None``."""
    try:
        fn = getattr(ctypes.CDLL(str(lib_path)), KERNEL_FUNCTION)
    except (OSError, AttributeError):
        return None
    fn.argtypes = [
        ctypes.c_void_p, ctypes.c_int64,    # prog
        ctypes.c_void_p, ctypes.c_int64,    # coef
        ctypes.c_void_p, ctypes.c_void_p,   # values, values_len
        ctypes.c_int64,                     # num_values
        ctypes.c_void_p, ctypes.c_void_p,   # arena_a, arena_s
        ctypes.c_int64,                     # arena_len
        ctypes.c_void_p, ctypes.c_int64,    # scratch
        ctypes.c_void_p, ctypes.c_int64,    # end_out
        ctypes.c_int64, ctypes.c_int64,     # rows, block
        ctypes.c_int64,                     # threads
    ]
    fn.restype = ctypes.c_int64
    return fn


def load_kernel() -> Optional[Any]:
    """Build (once per source/flags key) and load ``sta_run``.

    Returns ``None`` when the kernel is unavailable.

    The compiled shared object is cached per source/flag hash under the
    artifact cache directory, next to the SHA-256 its build recorded.  A
    cached file that fails that digest or does not load — a truncated or
    otherwise corrupt ``.so`` — is deleted and rebuilt once, so one bad
    file never disables the native path for every later process.
    """
    global _cached, _cached_key
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    # A malformed REPRO_SANITIZE or thread-backend pin raises here,
    # before any fallback logic: silently running the wrong kernel
    # because of a typo would invalidate what the run claims to prove.
    cflags = _effective_cflags()
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    key = _build_key(source, cflags)
    if _cached is not None and _cached_key == key:
        return _cached

    lib_path = _cache_dir() / "native" / f"sta_kernel_{key}.so"
    fn = _open(lib_path) if _intact(lib_path) else None
    if fn is None:
        for stale in (lib_path, _digest_path(lib_path)):
            try:
                stale.unlink()
            except OSError:
                pass
        if not _compile(lib_path, cflags):
            return None
        fn = _open(lib_path)
        if fn is None:
            return None
    # Per-process memo of the loaded ctypes function: workers each
    # dlopen the (disk-shared) .so once; nothing reads this across
    # processes.
    _cached, _cached_key = fn, key  # repro-lint: disable=REPRO-PAR001
    return _cached
