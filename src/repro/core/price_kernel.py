"""Loader of the compiled pricing kernel (``price_kernel.c``, cffi API mode).

The integer core of the slide-14 objective -- node gap containers and
the ``T_min``-window busy split, bus residuals and per-window free
bytes, and histogram best-fit packing of both future bags -- runs as
one C function over a finished array state.  This module builds that
function into a CPython extension on first import and loads it:

* **One build per source.**  The extension is named after a hash of
  the C source, the cdef and the interpreter's extension suffix, and
  lives in the gitignored ``_build/`` directory next to this file.  A
  changed source builds a new module; an unchanged one is imported
  straight from the cache.
* **Atomic publication.**  A build compiles in a private temporary
  directory inside the cache and publishes the finished ``.so`` with
  one ``os.replace``, so a concurrent process either finds the
  complete file or builds its own; it never loads a half-written one.
* **Built at import.**  The module is loaded when this file is first
  imported, which :mod:`repro.core` does before anything else: forked
  shard workers inherit it already loaded, and a build spawns the
  compiler while the process is still small (a child's peak RSS
  counts from its parent's RSS at spawn time).  This file imports only
  the standard library at runtime for the same reason.
* **Lean at runtime.**  Only the compiled module is imported when it
  is cached; ``cffi.FFI`` (and its C parser) is imported only to build.
* **Fallback.**  If cffi or the C compiler is missing, the build
  fails, or the cache directory is unwritable, :data:`KERNEL` is
  ``None`` and one :class:`RuntimeWarning` says so; pricing then runs
  the pure-Python kernel (:func:`repro.core.array_metrics.price_counts_python`),
  which is also the test oracle.  Both compute the same four integers,
  so the fallback changes no objective.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path
from struct import pack
from types import ModuleType
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.arrays import ArrayMetricGeometry, ArrayRunState

SOURCE_PATH = Path(__file__).with_name("price_kernel.c")

#: Where built extensions are cached (gitignored).
CACHE_DIR = Path(__file__).with_name("_build")

#: The C declarations cffi exposes; ``price_ctx`` must match the
#: typedef in ``price_kernel.c`` field for field.
CDEF = """
typedef struct {
    int64_t horizon, width, n_windows, n_occ, max_cap;
    const int64_t *window_lengths, *caps, *win;
    const int64_t *base_used, *base_hist, *base_window_free;
    int64_t n_p_runs, p_min, n_m_runs, m_min;
    const int64_t *p_size, *p_count, *m_size, *m_count;
} price_ctx;
int price_state(const price_ctx *ctx, const int64_t *runs, int64_t n_nodes,
                int64_t n_runs, const int64_t *bus_used, int64_t *out);
"""


def module_name(source: bytes) -> str:
    """Extension module name for ``source``: one per build input."""
    digest = hashlib.sha256()
    for part in (source, CDEF.encode(), _ext_suffix().encode()):
        digest.update(part)
        digest.update(b"\0")
    return f"_price_kernel_{digest.hexdigest()[:16]}"


def _ext_suffix() -> str:
    return str(sysconfig.get_config_var("EXT_SUFFIX") or ".so")


def _compile(c_path: str, so_path: str) -> None:
    """Compile one cffi-generated C file into a CPython extension."""
    ldshared = sysconfig.get_config_var("LDSHARED") or "cc -shared"
    command = shlex.split(ldshared) + [
        "-fPIC",
        "-O2",
        "-I",
        sysconfig.get_paths()["include"],
        c_path,
        "-o",
        so_path,
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{command[0]} exited with {done.returncode}: "
            f"{done.stderr.strip()[-500:]}"
        )


def _build(cache_dir: Path, name: str, source: str) -> Path:
    """Build ``name`` into ``cache_dir`` and publish it atomically."""
    from cffi import FFI

    ffi = FFI()
    ffi.cdef(CDEF)
    ffi.set_source(name, source, compiler_verbose=False)
    cache_dir.mkdir(parents=True, exist_ok=True)
    target = cache_dir / (name + _ext_suffix())
    scratch = tempfile.mkdtemp(prefix=".build-", dir=cache_dir)
    try:
        c_path = os.path.join(scratch, name + ".c")
        ffi.emit_c_code(c_path)
        so_path = os.path.join(scratch, target.name)
        _compile(c_path, so_path)
        os.replace(so_path, target)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return target


def _import(name: str, path: Path) -> ModuleType:
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load(cache_dir: Path = CACHE_DIR) -> Optional[ModuleType]:
    """The compiled kernel module, built first if not cached.

    Returns ``None`` after one :class:`RuntimeWarning` when the kernel
    cannot be had (no cffi, no compiler, a failed build, an unwritable
    cache directory); callers then price with the Python kernel.
    """
    try:
        source = SOURCE_PATH.read_text()
        name = module_name(source.encode())
        path = cache_dir / (name + _ext_suffix())
        if not path.exists():
            path = _build(cache_dir, name, source)
        return _import(name, path)
    except Exception as exc:  # any failure means: use the Python kernel
        warnings.warn(
            f"compiled pricing kernel unavailable ({type(exc).__name__}: "
            f"{exc}); pricing runs the pure-Python kernel",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


#: The loaded extension (``ffi`` + ``lib``), or ``None`` on fallback.
KERNEL: Optional[ModuleType] = load()


class PriceContext:
    """Candidate-independent kernel inputs, converted to C once.

    Holds the ``price_ctx`` struct plus the buffers its pointers
    reference (which must outlive it).  Built per ``(geometry,
    future)`` pair by :mod:`repro.core.array_metrics`.
    """

    __slots__ = ("kernel", "ctx", "_keep")

    def __init__(
        self,
        kernel: ModuleType,
        geom: ArrayMetricGeometry,
        process_runs: Sequence[Tuple[int, int]],
        process_min: int,
        message_runs: Sequence[Tuple[int, int]],
        message_min: int,
    ) -> None:
        ffi = kernel.ffi
        keep: List[Any] = []

        def array(values: Sequence[int]) -> Any:
            buf = ffi.new("int64_t[]", list(values) or [0])
            keep.append(buf)
            return buf

        def view(values: Any) -> Any:
            # The geometry's int64 vectors, shared rather than copied.
            buf = ffi.from_buffer("int64_t[]", values)
            keep.append(buf)
            return buf

        caps = geom.caps_flat
        max_cap = int(caps.max()) if len(caps) else 0
        base_hist = [0] * (max_cap + 1)
        for value, count in geom.base_resid_hist.items():
            base_hist[value] = count
        ctx = ffi.new("price_ctx *")
        ctx.horizon = geom.horizon
        ctx.width = geom.window_width
        ctx.n_windows = geom.n_windows
        ctx.n_occ = len(caps)
        ctx.max_cap = max_cap
        ctx.window_lengths = array(geom.window_lengths)
        ctx.caps = view(caps)
        ctx.win = view(geom.win_flat)
        ctx.base_used = view(geom.base_used)
        ctx.base_hist = array(base_hist)
        ctx.base_window_free = array(geom.base_window_free)
        ctx.n_p_runs = len(process_runs)
        ctx.p_min = process_min
        ctx.p_size = array([size for size, _ in process_runs])
        ctx.p_count = array([count for _, count in process_runs])
        ctx.n_m_runs = len(message_runs)
        ctx.m_min = message_min
        ctx.m_size = array([size for size, _ in message_runs])
        ctx.m_count = array([count for _, count in message_runs])
        self.kernel = kernel
        self.ctx = ctx
        self._keep = keep

    def price(self, state: ArrayRunState) -> Tuple[int, int, int, int]:
        """``(unplaced process total, C2P, unplaced message total, C2M)``."""
        flat: List[int] = []
        for starts, ends in zip(state.runs_s, state.runs_e):
            flat.append(len(starts))
            flat += starts
            flat += ends
        n_nodes = len(state.runs_s)
        ffi = self.kernel.ffi
        bus_used = ffi.from_buffer("int64_t[]", state.bus_used)
        if len(bus_used) != self.ctx.n_occ:
            raise ValueError(
                f"bus_used holds {len(bus_used)} int64 values, the "
                f"geometry has {self.ctx.n_occ} slot occurrences"
            )
        out = ffi.new("int64_t[4]")
        status = self.kernel.lib.price_state(
            self.ctx,
            # struct.pack converts the Python ints several times faster
            # than ffi.new does.
            ffi.from_buffer("int64_t[]", pack(f"{len(flat)}q", *flat)),
            n_nodes,
            (len(flat) - n_nodes) // 2,
            bus_used,
            out,
        )
        if status == -1:
            raise MemoryError("compiled pricing kernel could not allocate")
        if status:
            raise ValueError(
                "state has unsorted, overlapping or out-of-horizon busy "
                "runs, or a slot filled beyond its capacity"
            )
        return out[0], out[1], out[2], out[3]
