"""Build, cache and bind the annealer's C kernel (``_anneal.c``).

The kernel is compiled once per source and flag set with the system C
compiler (``cc``) and cached as
``repro/pnr/__pycache__/_anneal-<sha256 of source and flags>.so``.  A
build writes a private temporary file and renames it into place, so
concurrent builders (threads or processes) are safe.  When the package
directory is not writable the library goes to a private
:func:`tempfile.mkdtemp` directory instead; nothing is ever loaded from a
shared, world-writable location.

The library is bound through :class:`ctypes.PyDLL`, which keeps the GIL
held: each call is a few microseconds of work, and dropping and
re-taking the GIL around it costs more than it frees.  The flags never
include ``-ffast-math`` or ``-march=native``, and ``-ffp-contract=off``
forbids fused multiply-adds, so the kernel's doubles are the ones
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

#: The kernel's source file, next to this module.
SOURCE = Path(__file__).with_name("_anneal.c")

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
            f"the anneal kernel {source.name}"
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
                f"building the anneal kernel {source.name} failed:\n"
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


_i32, _i64, _f64, _u8 = np.int32, np.int64, np.float64, np.uint8

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
        setattr(s, name, value.ctypes.data)
    return s


_lock = threading.Lock()
_lib = None


def load():
    """The bound kernel library (built on first use)."""
    global _lib
    with _lock:
        if _lib is None:
            lib = ctypes.PyDLL(str(build()))
            for fn, restype, extra in (
                ("windows", None, [_I]),
                ("screen", _I, [_I]),
                ("price", None, [_I]),
                ("commit", _I, [_I, _I]),
            ):
                getattr(lib, fn).argtypes = [ctypes.c_void_p] * 2 + extra
                getattr(lib, fn).restype = restype
            _lib = lib
    return _lib
