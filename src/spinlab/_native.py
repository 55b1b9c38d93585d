"""Build, load and call spinlab's compiled kernels, _kernels.c.

Every foreign call in spinlab is one of four wrappers here, reached as
_native.rotate (a layer of 2x2 gates), x_sum (sum_k X_k), flip_draw
(single-flip masks) and metropolis (a block of Metropolis steps); each
refuses an array it cannot pass by pointer before it loads anything.
spinlab runs from a source checkout with no install step, so the library
is compiled lazily, by the first kernel call and never at import, into this
package's __pycache__ (or, where that is not writable, into a temporary
directory for this process alone).  The file name carries the sha256 of
the source and of the compile command, so an edited source or changed flags
never load a stale library.  Each build writes a temporary file and renames
it into place, so processes that build at the same moment all end up with a
whole library.  There is no fallback: without a C compiler the first call
raises a RuntimeError that names the command.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
CACHE = Path(__file__).with_name("__pycache__")
# no -ffast-math, and no fused multiply-add: the kernels round as numpy does
COMPILE = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
_F64, _C128, _I64 = map(np.dtype, (np.float64, np.complex128, np.int64))


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


@functools.cache
def library() -> ctypes.CDLL:
    """The library with its argument types set, built on the first call."""
    source = SOURCE.read_bytes()
    try:
        CACHE.mkdir(exist_ok=True)
        lib = ctypes.CDLL(str(build(source, CACHE)))
    except OSError:
        # a read-only install; the mapped library outlives its file
        with tempfile.TemporaryDirectory() as tmp:
            lib = ctypes.CDLL(str(build(source, Path(tmp))))
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for fn, restype, argtypes in (
            (lib.spinlab_metropolis, i64, (
                ptr, i64, ctypes.c_double, ptr, ptr, i64, i64, ctypes.c_int32,
                ptr, ptr, i64, i64, i64, i64, ctypes.POINTER(i64))),
            (lib.spinlab_flip_masks, None, (ptr, i64, ptr, i64)),
            (lib.spinlab_rotate, None, (ptr, i64, i64, ptr, ptr, i64)),
            (lib.spinlab_x_sum, None, (ptr, ptr, i64, i64))):
        fn.restype, fn.argtypes = restype, argtypes
    return lib


def _native_array(name: str, a: np.ndarray, dtypes: tuple[np.dtype, ...],
                  writable: bool = False) -> None:
    """Refuse an array that a compiled kernel cannot take by pointer."""
    if not isinstance(a, np.ndarray) or a.dtype not in dtypes:
        raise ValueError(f"{name} must be an array of "
                         f"{' or '.join(d.name for d in dtypes)}, got "
                         f"{getattr(a, 'dtype', type(a).__name__)}")
    if not a.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    if writable and not a.flags.writeable:
        raise ValueError(f"{name} must be writable")


def rotate(amps: np.ndarray, unit: int, qubits: Sequence[int],
           gates: np.ndarray) -> None:
    """The 2x2 matrix gates[i] on qubit qubits[i], in order, in place, on a
    writable C-contiguous complex128 amps whose qubit step is unit << qubit
    (1 for a vector or a stack of rows, m for a (2^n, m) block of columns),
    each row or column bitwise as alone; _kernels.c says how it rounds."""
    _native_array("amps", amps, (_C128,), True)
    if not len(qubits):
        return
    gates = np.ascontiguousarray(gates, dtype=_C128)
    if gates.shape != (len(qubits), 2, 2):
        raise ValueError(f"need one 2x2 gate per qubit, got {len(qubits)} "
                         f"qubits and gates of shape {gates.shape}")
    if min(qubits) < 0 or unit < 1 or amps.size % (unit << (max(qubits) + 1)):
        raise ValueError(f"{amps.size} entries at unit {unit} do not split "
                         f"into pairs on qubits {list(qubits)}")
    qubits = np.array(qubits, dtype=_I64)
    library().spinlab_rotate(amps.ctypes.data, amps.size, unit,
                             qubits.ctypes.data, gates.ctypes.data,
                             qubits.size)


def x_sum(amps: np.ndarray, n: int) -> np.ndarray:
    """sum_k X_k applied to a float64 or complex128 vector of 2^n entries,
    or to each column of a C-contiguous (2^n, m) block, bitwise as to each
    column alone; k ascends, fixing the rounding."""
    _native_array("amps", amps, (_F64, _C128))
    if amps.ndim not in (1, 2) or amps.shape[0] != 2 ** n:
        raise ValueError(f"amps must be a vector or a block of columns of "
                         f"2^{n} entries, got shape {amps.shape}")
    out = np.empty_like(amps)
    library().spinlab_x_sum(amps.ctypes.data, out.ctypes.data, n,
                            amps.itemsize // 8 * (amps.size >> n))
    return out


def flip_draw(rng: np.random.Generator, L: int, n_chains: int):
    """A draw of single-flip XOR masks on 1 <= L <= 63 sites: draw(n, idx)
    returns the next n rows of 1 << rng.integers(0, L), bitwise and
    stream-wise numpy's for size=(n, n_chains), in one buffer of its own
    that each call reuses, sized by the largest n asked for so far.
    """
    if not 1 <= L <= 63:
        raise ValueError(f"single-flip masks need 1 <= L <= 63 sites, "
                         f"got L = {L!r}")
    buf = np.empty((0, n_chains), dtype=_I64)
    bitgen = rng.bit_generator
    state = bitgen.ctypes.bit_generator
    masks = library().spinlab_flip_masks

    def draw(n, idx):
        nonlocal buf
        if n > buf.shape[0]:
            buf = np.empty((n, n_chains), dtype=_I64)
        with bitgen.lock:
            masks(state, L, buf.ctypes.data, n * n_chains)
        return buf[:n]

    return draw


def metropolis(table: np.ndarray, scale: float, moves, logu: np.ndarray,
               flip: bool, idx: np.ndarray, records: np.ndarray, done: int,
               burn_in: int, thinning: int) -> int:
    """One block of qemcmc._metropolis, steps done + 1 onward, one row of
    moves and logu each; idx and records are updated in place and the
    accepted moves counted.  Moves that are not an integer array of logu's
    shape, or a proposal outside the table, raise an IndexError."""
    _native_array("table", table, (_F64,))
    _native_array("logu", logu, (_F64,))
    _native_array("idx", idx, (_I64,), True)
    _native_array("records", records, (_I64,), True)
    if (idx.ndim != 1 or logu.shape[1:] != idx.shape or records.ndim != 2
            or records.shape[0] != idx.size):
        raise ValueError(f"logu {logu.shape} and records {records.shape} "
                         f"need one column and row per chain of {idx.shape}")
    moves = np.asarray(moves)
    if moves.shape != logu.shape or moves.dtype.kind not in "iu":
        raise IndexError(f"need {logu.shape[0]} x {idx.size} integer moves, "
                         f"got {moves.dtype} {moves.shape}")
    moves = np.ascontiguousarray(moves, dtype=_I64)
    bad = ctypes.c_int64()
    taken = library().spinlab_metropolis(
        table.ctypes.data, table.size, scale, moves.ctypes.data,
        logu.ctypes.data, logu.shape[0], idx.size, flip, idx.ctypes.data,
        records.ctypes.data, records.shape[1], done, burn_in, thinning, bad)
    if taken < 0:
        raise IndexError(f"Metropolis proposal {bad.value} lies outside the "
                         f"table's basis indices [0, {table.size})")
    return taken
