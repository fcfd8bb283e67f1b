"""Loader of the compiled evaluation kernel (``ckernel.c``, cffi API mode).

One CPython extension holds the two C halves of a cold candidate
evaluation, both over one flat int64 *state block* per candidate
(layout: :class:`BlockLayout`):

* ``sched_pass`` -- the list-scheduling pass of
  :meth:`repro.sched.arrays.ArraySpec.run_kernel`, filling the block in
  place (:class:`PassContext`);
* ``price_state`` -- the integer core of the slide-14 objective, read
  straight from the same block (:class:`PriceContext`,
  used by :mod:`repro.core.array_metrics`).

This module builds that extension on first import and loads it:

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
  imported, which :mod:`repro` does before anything else: forked
  shard workers inherit it already loaded, and a build spawns the
  compiler while the process is still small (a child's peak RSS
  counts from its parent's RSS at spawn time).  This file imports only
  the standard library at runtime for the same reason.
* **Lean at runtime.**  Only the compiled module is imported when it
  is cached; ``cffi.FFI`` (and its C parser) is imported only to build.
* **Fallback.**  If cffi or the C compiler is missing, the build
  fails, or the cache directory is unwritable, :data:`KERNEL` is
  ``None`` and one :class:`RuntimeWarning` says so; scheduling then
  runs the Python list kernel and pricing
  :func:`repro.core.array_metrics.price_counts_python`, which are also
  the test oracles.  Both sides compute the same integers, so the
  fallback changes no design and no objective.
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
from types import ModuleType
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.arrays import ArrayMetricGeometry, ArraySpec

SOURCE_PATH = Path(__file__).with_name("ckernel.c")

#: Where built extensions are cached (gitignored).
CACHE_DIR = Path(__file__).with_name("_build")

#: The C declarations cffi exposes; each struct must match its typedef
#: in ``ckernel.c`` field for field.
CDEF = """
typedef struct {
    int64_t key, size, n_nodes, run_cap, n_occ, n_jobs, n_pids, n_msgs;
    int64_t node_of, delays, rank, order, count, starts, ends, bus,
            earliest, preds, heap;
} block_layout;
typedef struct {
    const block_layout *layout;
    int64_t horizon, round_length, n_sources;
    const int64_t *job_pid, *deadline, *wcet, *sources;
    const int64_t *out_ptr, *edge_msg, *edge_dst, *edge_dst_pid, *edge_size;
    const int64_t *slot_off, *slot_len, *slot_cap, *occ_count, *occ_base;
} sched_ctx;
typedef struct {
    const block_layout *layout;
    int64_t horizon, width, n_windows, max_cap;
    const int64_t *window_lengths, *caps, *win;
    const int64_t *base_used, *base_hist, *base_window_free;
    int64_t n_p_runs, p_min, n_m_runs, m_min;
    const int64_t *p_size, *p_count, *m_size, *m_count;
} price_ctx;
int sched_pass(const sched_ctx *c, int64_t *b);
int price_state(const price_ctx *ctx, const int64_t *b, int64_t *out);
"""

# Header words of a block (the ``H_*`` enum of ckernel.c).
H_KEY, H_STATUS, H_SCHEDULED, H_JOB, H_NODE, H_EDGE, H_END = range(7)
H_WORDS = 7

# Pass outcomes: H_STATUS and the return value of sched_pass.
ST_FRESH, ST_OK, ST_HORIZON, ST_DEADLINE, ST_BUS, ST_WCET, ST_CYCLE = range(7)

#: Negative returns of either entry point (the ``E_*`` enum of
#: ckernel.c) past ``-1``, out of memory: the block is not one this
#: spec's layout could have produced.
BLOCK_ERRORS: Dict[int, str] = {
    -2: "block belongs to another spec (layout key mismatch)",
    -3: "block was already scheduled (status is not fresh)",
    -4: "block holds an out-of-range mapping, rank or job index",
    -5: "block has an out-of-range run count, or unsorted, overlapping "
        "or out-of-horizon busy runs, or a slot filled beyond its capacity",
    -6: "block overflowed a node's run capacity or the ready heap",
}


def module_name(source: bytes) -> str:
    """Extension module name for ``source``: one per build input."""
    digest = hashlib.sha256()
    for part in (source, CDEF.encode(), _ext_suffix().encode()):
        digest.update(part)
        digest.update(b"\0")
    return f"_ckernel_{digest.hexdigest()[:16]}"


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
    cache directory); callers then run the Python kernels.
    """
    try:
        source = SOURCE_PATH.read_text()
        name = module_name(source.encode())
        path = cache_dir / (name + _ext_suffix())
        if not path.exists():
            path = _build(cache_dir, name, source)
        return _import(name, path)
    except Exception as exc:  # any failure means: use the Python kernels
        warnings.warn(
            f"compiled evaluation kernel unavailable ({type(exc).__name__}: "
            f"{exc}); scheduling and pricing run the pure-Python kernels",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


#: The loaded extension (``ffi`` + ``lib``), or ``None`` on fallback.
KERNEL: Optional[ModuleType] = load()


def _keeper(ffi: Any, keep: List[Any]) -> Tuple[Any, Any]:
    """``array``/``view`` converters whose buffers ``keep`` holds alive."""

    def array(values: Sequence[int]) -> Any:
        buf = ffi.new("int64_t[]", [int(v) for v in values] or [0])
        keep.append(buf)
        return buf

    def view(values: Any) -> Any:
        # An int64 numpy vector, shared rather than copied.
        buf = ffi.from_buffer("int64_t[]", values)
        keep.append(buf)
        return buf

    return array, view


class BlockLayout:
    """Word offsets of one spec's state block (see ``ckernel.c``).

    The block is one flat int64 vector: a header of :data:`H_WORDS`
    words, the candidate section (``node_of`` per process, ``delays``
    per message, ``rank`` and ``order`` -- the rank bijection -- per
    job), the per-node run counts and ``run_cap``-strided start and end
    columns, ``bus_used`` per slot occurrence, and the loop state
    (``earliest``, ``preds`` and the ready ``heap``, one word per job).
    ``key`` is written into every block of the layout and checked by
    both C entry points, so a block of another spec is refused.
    """

    FIELDS = (
        "key", "size", "n_nodes", "run_cap", "n_occ", "n_jobs", "n_pids",
        "n_msgs", "node_of", "delays", "rank", "order", "count", "starts",
        "ends", "bus", "earliest", "preds", "heap",
    )

    def __init__(
        self,
        key: int,
        n_nodes: int,
        run_cap: int,
        n_occ: int,
        n_jobs: int,
        n_pids: int,
        n_msgs: int,
    ) -> None:
        self.key = key
        self.n_nodes = n_nodes
        self.run_cap = run_cap
        self.n_occ = n_occ
        self.n_jobs = n_jobs
        self.n_pids = n_pids
        self.n_msgs = n_msgs
        self.node_of = H_WORDS
        self.delays = self.node_of + n_pids
        self.rank = self.delays + n_msgs
        self.order = self.rank + n_jobs
        self.count = self.order + n_jobs
        self.starts = self.count + n_nodes
        self.ends = self.starts + n_nodes * run_cap
        self.bus = self.ends + n_nodes * run_cap
        self.earliest = self.bus + n_occ
        self.preds = self.earliest + n_jobs
        self.heap = self.preds + n_jobs
        self.size = self.heap + n_jobs

    def struct(self, ffi: Any, keep: List[Any]) -> Any:
        """This layout as a ``block_layout`` C struct, kept alive by ``keep``."""
        struct = ffi.new("block_layout *")
        for name in self.FIELDS:
            setattr(struct, name, getattr(self, name))
        keep.append(struct)
        return struct

    def check(self, block: Any) -> None:
        """Refuse a block C cannot read as this layout's int64 words."""
        if block.strides != (8,) or block.dtype.kind != "i":
            raise ValueError(
                "state block must be a contiguous one-dimensional int64 "
                f"vector, got {block.dtype} with strides {block.strides}"
            )
        if len(block) != self.size:
            raise ValueError(
                f"state block holds {len(block)} words, the spec's layout "
                f"has {self.size}"
            )


def _status(code: int) -> int:
    if code == -1:
        raise MemoryError("compiled kernel could not allocate")
    if code < 0:
        raise ValueError(BLOCK_ERRORS.get(code, f"kernel error {code}"))
    return code


class PassContext:
    """The scheduling pass's candidate-independent inputs, in C form.

    Built once per :class:`~repro.sched.arrays.ArraySpec`; holds the
    ``sched_ctx`` struct plus the buffers its pointers reference.
    """

    __slots__ = ("layout", "ctx", "_pass", "_buffer", "_keep")

    def __init__(
        self, kernel: ModuleType, layout: BlockLayout, arrays: "ArraySpec"
    ) -> None:
        ffi = kernel.ffi
        keep: List[Any] = []
        array, _ = _keeper(ffi, keep)
        ctx = ffi.new("sched_ctx *")
        ctx.layout = layout.struct(ffi, keep)
        ctx.horizon = arrays.horizon
        ctx.round_length = arrays.round_length
        ctx.n_sources = len(arrays.sources)
        ctx.job_pid = array(arrays.job_pid)
        ctx.deadline = array(arrays.job_deadline)
        ctx.wcet = array([w for row in arrays.wcet for w in row])
        ctx.sources = array(arrays.sources)
        ctx.out_ptr = array(arrays.out_ptr)
        ctx.edge_msg = array(arrays.edge_msg)
        ctx.edge_dst = array(arrays.edge_dst)
        ctx.edge_dst_pid = array(arrays.edge_dst_pid)
        ctx.edge_size = array(arrays.edge_size)
        ctx.slot_off = array(arrays.slot_offset)
        ctx.slot_len = array(arrays.slot_length)
        ctx.slot_cap = array(arrays.slot_capacity)
        ctx.occ_count = array(arrays.occ_count)
        ctx.occ_base = array(arrays.occ_base)
        self.layout = layout
        self.ctx = ctx
        self._pass = kernel.lib.sched_pass
        self._buffer = ffi.from_buffer
        self._keep = keep

    def run(self, block: Any) -> int:
        """Schedule a fresh block in place; returns its ``ST_*`` outcome."""
        self.layout.check(block)
        return _status(self._pass(self.ctx, self._buffer("int64_t[]", block)))


class PriceContext:
    """The pricing kernel's candidate-independent inputs, in C form.

    Holds the ``price_ctx`` struct plus the buffers its pointers
    reference (which must outlive it).  Built per ``(geometry,
    future)`` pair by :mod:`repro.core.array_metrics`; the geometry's
    ``layout`` says where a block keeps its runs and bus bytes.
    """

    __slots__ = ("layout", "ctx", "_price", "_buffer", "_out", "_keep")

    def __init__(
        self,
        kernel: ModuleType,
        geom: "ArrayMetricGeometry",
        process_runs: Sequence[Tuple[int, int]],
        process_min: int,
        message_runs: Sequence[Tuple[int, int]],
        message_min: int,
    ) -> None:
        ffi = kernel.ffi
        keep: List[Any] = []
        array, view = _keeper(ffi, keep)
        layout = geom.layout
        caps = geom.caps_flat
        max_cap = int(caps.max()) if len(caps) else 0
        base_hist = [0] * (max_cap + 1)
        for value, count in geom.base_resid_hist.items():
            base_hist[value] = count
        ctx = ffi.new("price_ctx *")
        ctx.layout = layout.struct(ffi, keep)
        ctx.horizon = geom.horizon
        ctx.width = geom.window_width
        ctx.n_windows = geom.n_windows
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
        self.layout = layout
        self.ctx = ctx
        self._price = kernel.lib.price_state
        self._buffer = ffi.from_buffer
        self._out = ffi.new("int64_t[4]")
        self._keep = keep

    def price(self, block: Any) -> Tuple[int, int, int, int]:
        """``(unplaced process total, C2P, unplaced message total, C2M)``."""
        self.layout.check(block)
        out = self._out
        _status(self._price(self.ctx, self._buffer("int64_t[]", block), out))
        return out[0], out[1], out[2], out[3]
