"""Build and load spinlab's compiled kernels, _kernels.c, on first use.

The library holds the Metropolis loop of qemcmc and its single-flip move
draw, and the single-qubit gate layer and X sum of statevector; each
caller checks its arrays before it passes a pointer.  spinlab runs from a
source checkout with no install step, so the library is compiled lazily,
by the first kernel call (a chain or an X layer, say) and never at import,
into this package's __pycache__ (or, where that is not writable, into a
temporary directory for this process alone).  The file name carries the
sha256 of the source and of the compile command, so an edited source or
changed flags never load a stale library.  Each build writes a temporary
file and renames it into place, so processes that build at the same moment
all end up with a whole library.  There is no fallback: without a C
compiler the first call raises a RuntimeError that names the command.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")
CACHE = Path(__file__).with_name("__pycache__")
# no -ffast-math, and no fused multiply-add: the kernels round as numpy does
COMPILE = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")


def build(source: bytes, directory: Path) -> Path:
    """Compile source into directory unless that build is already there."""
    key = hashlib.sha256(source + "\0".join(COMPILE).encode()).hexdigest()
    path = directory / f"_kernels-{key[:16]}.so"
    if path.exists():
        return path
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=".so")
    os.close(fd)
    cmd = [*COMPILE, "-x", "c", "-", "-o", tmp]
    try:
        subprocess.run(cmd, input=source, capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        detail = getattr(err, "stderr", None) or str(err).encode()
        raise RuntimeError(
            f"spinlab's compiled kernels need a C compiler: "
            f"{' '.join(cmd)} failed: "
            f"{detail.decode(errors='replace').strip()}") from err
    else:
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _load(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.spinlab_metropolis.restype = i64
    lib.spinlab_metropolis.argtypes = (
        ptr, i64, ctypes.c_double, ptr, ptr, i64, i64, ctypes.c_int32, ptr,
        ptr, i64, i64, i64, i64, ctypes.POINTER(i64))
    lib.spinlab_flip_masks.restype = None
    lib.spinlab_flip_masks.argtypes = (ptr, i64, ptr, i64)
    lib.spinlab_rotate.restype = None
    lib.spinlab_rotate.argtypes = (ptr, i64, i64, ptr, ptr, i64)
    lib.spinlab_x_sum.restype = None
    lib.spinlab_x_sum.argtypes = (ptr, ptr, i64, i64)
    return lib


@functools.cache
def library() -> ctypes.CDLL:
    """The compiled library with its argument types set, built on the
    first call."""
    source = SOURCE.read_bytes()
    try:
        CACHE.mkdir(exist_ok=True)
        return _load(build(source, CACHE))
    except OSError:
        # a read-only install; the mapped library outlives its file
        with tempfile.TemporaryDirectory() as tmp:
            return _load(build(source, Path(tmp)))
