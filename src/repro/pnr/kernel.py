"""Build, cache and bind the compiled kernels: the annealer's rung
(``_anneal.c``: numpy's PCG64 draws, windows, screen, pricing, the
accept test and commits, one call per rung) and the router's search and
replay (``_route.c``).

Each kernel is compiled once per source and flag set with the system C
compiler (``cc``) and cached as
``repro/pnr/__pycache__/<source stem>-<sha256 of source and flags>.so``.  A
build writes a private temporary file and renames it into place, so
concurrent builders (threads or processes) are safe.  When the package
directory is not writable the library goes to a private
:func:`tempfile.mkdtemp` directory instead; nothing is ever loaded from a
shared, world-writable location.

Each library is bound through :class:`ctypes.PyDLL`, which keeps the
GIL held: a call is one rung or one net's routing, microseconds
of work, and dropping and re-taking the GIL around it costs more than it
frees.  The flags never
include ``-ffast-math`` or ``-march=native``, and ``-ffp-contract=off``
forbids fused multiply-adds, so the kernels' doubles are the ones
Python would compute.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

#: The kernels' source files, next to this module: the anneal rung and
#: the router.
SOURCE = Path(__file__).with_name("_anneal.c")
ROUTE_SOURCE = Path(__file__).with_name("_route.c")

#: Compiler flags; part of the cache key.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


class KernelBuildError(RuntimeError):
    """The C kernel could not be built (no compiler, or it failed)."""


def cache_key(source: bytes, flags: tuple[str, ...] = FLAGS) -> str:
    """The SHA-256 naming a build of ``source`` under ``flags``."""
    h = hashlib.sha256(source)
    h.update("\0".join(flags).encode())
    return h.hexdigest()


def build(source: Path | None = None) -> Path:
    """The shared library for ``source`` (default :data:`SOURCE`),
    compiled if not yet cached."""
    source = source or SOURCE
    text = source.read_bytes()
    name = f"{source.stem}-{cache_key(text)}.so"
    cached = source.parent / "__pycache__" / name
    if cached.exists():
        return cached
    cc = shutil.which("cc")
    if cc is None:
        raise KernelBuildError(
            "compiling designs needs a C compiler: no `cc` on PATH to build "
            f"the kernel {source.name}"
        )
    try:
        cached.parent.mkdir(exist_ok=True)
        return _compile(cc, source, cached)
    except OSError:
        return _compile(cc, source, Path(tempfile.mkdtemp()) / name)


def _compile(cc: str, source: Path, target: Path) -> Path:
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(source)],
            capture_output=True, text=True,
        )
        if proc.returncode:
            raise KernelBuildError(
                f"building the kernel {source.name} failed:\n"
                f"{proc.stderr}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


_I = ctypes.c_int64


def _struct(name: str, doc: str, layout):
    """A ctypes mirror of one kernel struct.

    ``layout`` lists ``(field, dtype)`` in C order: a numpy dtype is a
    pointer to a C-contiguous array of that dtype, ``int`` an int64.
    """
    return type(name, (ctypes.Structure,), {
        "__doc__": doc,
        "_fields_": [
            (f, _I if t is int else ctypes.c_void_p) for f, t in layout
        ],
        "dtypes": {f: t for f, t in layout if t is not int},
    })


_i32, _i64, _f64, _u8, _u64 = np.int32, np.int64, np.float64, np.uint8, np.uint64

#: The kernel's ``Hpwl`` struct: the bounding-box cache.
Hpwl = _struct("Hpwl", "Mirror of the kernel's ``Hpwl`` struct.", [
    ("rows", _i32), ("cols", _i32), ("boxes", _i64),
    ("grp_ptr", _i64), ("grp_net", _i64), ("off_ptr", _i64), ("off", _i64),
    ("pin_ptr", _i64), ("pin_gate", _i64), ("pin_off", _i64),
])

#: The kernel's ``Rung`` struct: one rung's buffers and the grid state.
Rung = _struct("Rung", "Mirror of the kernel's ``Rung`` struct.", [
    ("pick", _i64), ("trs", _i64), ("tcs", _i64),
    ("lo_r", _i64), ("hi_r1", _i64), ("lo_c", _i64), ("hi_c1", _i64),
    ("ok", _u8), ("fi_ptr", _i64), ("fi", _i64), ("fo_ptr", _i64),
    ("fo", _i64), ("widths", _i32),
    ("row_lo", int), ("row_hi", int), ("col_lo", int), ("col_hi", int),
    ("occupied", _i32), ("occ_cols", int),
    ("idx", _i64), ("deltas", _f64), ("ebeg", _i64), ("ent_net", _i64),
    ("nb", _i64), ("accept", _u8), ("touched", _i64), ("committed", _i64),
    ("total", _f64), ("best_rows", _i32), ("best_cols", _i32),
    ("n_gates", int),
])

#: The kernel's ``Draw`` struct: the rung's rng state and accept table.
Draw = _struct("Draw", "Mirror of the kernel's ``Draw`` struct.", [
    ("pcg", _u64), ("movable", _i64), ("n_mov", int), ("u", _f64),
    ("table", _f64), ("width", int),
])


#: The router's ``State`` struct: the occupancy of one routing pass.
RouteState = _struct("RouteState", "Mirror of the router's ``State`` struct.", [
    ("rows", int), ("cols", int),
    ("r0", int), ("r1", int), ("c0", int), ("c1", int),
    ("wire_net", _i32), ("depth", _i32), ("col_net", _i32), ("col_seq", _i64),
    ("thru_net", _i32), ("row_mask", _i32), ("gate_dir", _i32),
    ("thru_dir", _i32), ("thru_in", _i32), ("pend", _i32), ("n_pend", _i32),
    ("n_assign", _i32), ("pend_out", _i32), ("committed", _i32),
    ("opaque", _i32), ("logic", _i32), ("thru_key", _i32), ("gate_key", _i32),
    ("history", _f64), ("undo", _i32), ("undo_cap", int), ("ctr", _i64),
])

#: The router's ``Search`` struct: the generation-stamped cost grid.
RouteSearch = _struct("RouteSearch", "Mirror of the router's ``Search`` struct.", [
    ("gcost", _f64), ("stamp", _i64), ("par", _i32), ("move", _i32),
    ("gen", _i64),
])

#: The router's ``Net`` struct: one net's sinks and output journal.
RouteNet = _struct("RouteNet", "Mirror of the router's ``Net`` struct.", [
    ("net", int), ("src_cell", int), ("multi", int), ("is_output", int),
    ("er", int), ("ec", int), ("n_sinks", int),
    ("sinks", _i32), ("sink_col", _i32), ("wires", _i32), ("ops", _i32),
    ("path", _i32), ("io", _i64), ("wire_cap", int), ("op_cap", int),
])

#: The router's ``Emit`` struct: one emission pass.
RouteEmit = _struct("RouteEmit", "Mirror of the router's ``Emit`` struct.", [
    ("n_gates", int), ("gate_cell", _i32), ("inputs", _i32), ("mode", _u8),
    ("is_const", _u8), ("where", _i32), ("block", _u8),
    ("active", int), ("tied", int), ("cut", int), ("drv_off", int),
    ("drv_inv", int), ("off_driver", int), ("off_direction", int),
    ("err", _i64),
])


def bind(struct_type, **fields):
    """A ``struct_type`` over numpy arrays (pointers) and ints.

    Every array must have the field's dtype and be C-contiguous, since
    the kernel indexes raw memory.  The arrays are kept alive on the
    struct, so its pointers stay valid for as long as it does.
    """
    s = struct_type()
    s.arrays = fields
    for name, value in fields.items():
        dtype = struct_type.dtypes.get(name)
        if dtype is None:
            setattr(s, name, int(value))
            continue
        if value.dtype != dtype or not value.flags.c_contiguous:
            raise TypeError(
                f"{struct_type.__name__}.{name} needs a C-contiguous "
                f"{np.dtype(dtype)} array, got {value.dtype}"
            )
        setattr(s, name, _address(value))
    return s


def _address(a: np.ndarray) -> int:
    """The address of ``a``'s first byte.  A ctypes view is a third the
    cost of ``a.ctypes.data``; read-only and empty arrays refuse one."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


_P = ctypes.c_void_p

#: Each kernel's exported functions: ``(name, restype, argtypes)``.
_EXPORTS = {
    SOURCE.name: (
        ("windows", None, [_P, _P, _I]),
        ("screen", _I, [_P, _P, _I]),
        ("price", None, [_P, _P, _I]),
        ("commit", _I, [_P, _P, _I, _I]),
        ("step", _I, [_P, _P, _P, _I, _I]),
    ),
    ROUTE_SOURCE.name: (
        ("route_net", _I, [_P, _P, _P]),
        ("replay_many", _I, [_P, _P, _P, _P, _I]),
        ("apply", _I, [_P, _I, _P]),
        ("rollback", None, [_P]),
        ("passable", _I, [_P, _I, _I, _I, _I]),
        ("free_rows", _I, [_P, _I]),
        ("emit", _I, [_P, _P]),
    ),
}

_lock = threading.Lock()
_libs: dict[Path, ctypes.PyDLL] = {}


def load(source: Path | None = None):
    """The bound library of one kernel (default :data:`SOURCE`), built
    on first use."""
    source = source or SOURCE
    with _lock:
        lib = _libs.get(source)
        if lib is None:
            lib = ctypes.PyDLL(str(build(source)))
            for fn, restype, argtypes in _EXPORTS[source.name]:
                getattr(lib, fn).argtypes = argtypes
                getattr(lib, fn).restype = restype
            _libs[source] = lib
    return lib
