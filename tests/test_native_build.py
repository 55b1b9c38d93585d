"""The compiled kernels are built on first use and cached by content.

spinlab runs from a source checkout, so nothing is compiled at import: the
first Metropolis chain or X layer builds _kernels.c into the package's
__pycache__ under a name keyed by the source and the compile command, and
later calls and processes load that file.  Only _native makes foreign
calls, one wrapper per compiled entry point, and each wrapper refuses an
array it cannot pass by pointer before it loads anything.
"""

import ast
import ctypes
import fnmatch
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import spinlab
from spinlab import _native

SRC = Path(spinlab.__file__).resolve().parents[1]
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(
           filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
PROBE = b"\nint64_t spinlab_probe(void) { return 7; }\n"


def _python(code: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(code),
                             *args], env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _check(proc: subprocess.Popen) -> str:
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out


def test_import_builds_and_loads_nothing_until_the_first_chain():
    out = _check(_python("""
        import ctypes, subprocess
        events = []
        real_run, real_cdll = subprocess.run, ctypes.CDLL
        subprocess.run = lambda *a, **k: events.append("run") or real_run(*a, **k)
        ctypes.CDLL = lambda *a, **k: events.append("load") or real_cdll(*a, **k)
        import spinlab.cli
        print(events)
        import numpy as np
        from spinlab.qemcmc import ferromagnetic_chain, run_chain
        for _ in range(2):
            run_chain(ferromagnetic_chain(4), "single-flip", 1.0, 10,
                      np.random.default_rng(0))
            print(events)
        """))
    at_import, first, second = out.splitlines()
    assert at_import == "[]"
    # the compile runs only where no cached library is there yet
    assert first in ("['load']", "['run', 'load']")
    assert second == first


@pytest.mark.parametrize("first", [
    "prepare(HVAnsatz.zeros(TFIMModel(4), 1))",
    "apply_exp_x(init_plus(4), 0.3, TFIMModel(4))"])
def test_first_x_layer_loads_the_library_and_a_chain_loads_nothing_more(
        first):
    out = _check(_python("""
        import ctypes, subprocess, sys
        events = []
        real_run, real_cdll = subprocess.run, ctypes.CDLL
        subprocess.run = lambda *a, **k: events.append("run") or real_run(*a, **k)
        ctypes.CDLL = lambda *a, **k: events.append("load") or real_cdll(*a, **k)
        import spinlab.statevector, spinlab.vqe
        print(events)
        from spinlab.statevector import TFIMModel, apply_exp_x, init_plus
        from spinlab.vqe import HVAnsatz, prepare
        eval(sys.argv[1])
        print(events)
        import numpy as np
        from spinlab.qemcmc import ferromagnetic_chain, run_chain
        run_chain(ferromagnetic_chain(4), "single-flip", 1.0, 10,
                  np.random.default_rng(0))
        print(events)
        """, first))
    at_import, layer, chain = out.splitlines()
    assert at_import == "[]"
    assert layer in ("['load']", "['run', 'load']")
    assert chain == layer


def _no_library():
    raise AssertionError("the library was loaded for a refused array")


def _cplx(*shape):
    return np.zeros(shape, dtype=complex)


@pytest.mark.parametrize("amps, unit, qubits, match", [
    (_cplx(16)[::2], 1, [0], "C-contiguous"),
    (_cplx(8, 4).T, 4, [0], "C-contiguous"),
    (np.zeros(8, dtype=np.complex64), 1, [0], "complex128"),
    (np.zeros(8), 1, [0], "complex128"),
    ([0j] * 8, 1, [0], "complex128"),
    (_cplx(12), 1, [2], "do not split"),
    (_cplx(8), 1, [3], "do not split"),
    (_cplx(8), 1, [-1], "do not split"),
    (_cplx(8, 3), 3, [3], "do not split"),
    (_cplx(8), 0, [0], "do not split"),
])
def test_rotation_entry_point_refuses_a_bad_block(monkeypatch, amps, unit,
                                                   qubits, match):
    monkeypatch.setattr(_native, "library", _no_library)
    gates = np.ones((len(qubits), 2, 2), dtype=complex)
    with pytest.raises(ValueError, match=match):
        _native.rotate(amps, unit, qubits, gates)


def test_rotation_entry_point_refuses_bad_gates_and_read_only_blocks(
        monkeypatch):
    monkeypatch.setattr(_native, "library", _no_library)
    # too few gates, and (g00, g01) rows in place of 2x2 matrices
    for gates in (np.ones((1, 2, 2)), np.ones((2, 2)), np.ones((2, 4))):
        with pytest.raises(ValueError, match="one 2x2 gate per qubit"):
            _native.rotate(_cplx(8), 1, [0, 1], gates)
    frozen = _cplx(8)
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="writable"):
        _native.rotate(frozen, 1, [0], np.ones((1, 2, 2)))


@pytest.mark.parametrize("amps, n, match", [
    (np.zeros(16)[::2], 3, "C-contiguous"),
    (np.zeros(8, dtype=np.float32), 3, "float64 or complex128"),
    (np.zeros(8, dtype=np.int64), 3, "float64 or complex128"),
    (np.zeros(8), 4, "2\\^4 entries"),
    (np.zeros((4, 2)), 3, "2\\^3 entries"),
    (np.zeros((3, 8)).T, 3, "C-contiguous"),
    (np.zeros((8, 2, 2)), 3, "2\\^3 entries"),
])
def test_x_sum_entry_point_refuses_a_bad_vector(monkeypatch, amps, n, match):
    monkeypatch.setattr(_native, "library", _no_library)
    with pytest.raises(ValueError, match=match):
        _native.x_sum(amps, n)


def _block(**change):
    """Arguments of one well-formed _native.metropolis block, 4 steps of 2
    chains on a 16-entry table, with the given ones changed."""
    return {"table": np.zeros(16), "scale": 1.0,
            "moves": np.zeros((4, 2), dtype=np.int64),
            "logu": np.zeros((4, 2)), "flip": True,
            "idx": np.zeros(2, dtype=np.int64),
            "records": np.zeros((2, 3), dtype=np.int64), "done": 0,
            "burn_in": 0, "thinning": 1, **change}


def _frozen(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("change, match", [
    ({"table": np.zeros(16, dtype=np.float32)}, "table .* float64"),
    ({"table": [0.0] * 16}, "table .* float64"),
    ({"table": np.zeros(32)[::2]}, "table must be C-contiguous"),
    ({"logu": np.zeros((2, 4)).T}, "logu must be C-contiguous"),
    ({"logu": np.zeros((4, 2), dtype=np.float32)}, "logu .* float64"),
    ({"idx": np.zeros(2, dtype=np.int32)}, "idx .* int64"),
    ({"idx": _frozen(np.zeros(2, dtype=np.int64))}, "idx must be writable"),
    ({"records": np.zeros((2, 3), dtype=np.int64).T},
     "records must be C-contiguous"),
    ({"records": _frozen(np.zeros((2, 3), dtype=np.int64))},
     "records must be writable"),
    ({"records": np.zeros((3, 2), dtype=np.int64)}, "row per chain"),
    ({"records": np.zeros(6, dtype=np.int64)}, "row per chain"),
    ({"idx": np.zeros(3, dtype=np.int64)}, "row per chain"),
    ({"idx": np.zeros((2, 1), dtype=np.int64)}, "row per chain"),
    ({"logu": np.zeros(8)}, "row per chain"),
])
def test_metropolis_entry_point_refuses_a_bad_array(monkeypatch, change,
                                                    match):
    monkeypatch.setattr(_native, "library", _no_library)
    with pytest.raises(ValueError, match=match):
        _native.metropolis(**_block(**change))


@pytest.mark.parametrize("moves", [np.zeros((4, 3), dtype=np.int64),
                                   np.zeros((4, 2)), np.zeros(8, dtype=int),
                                   np.zeros((4, 2), dtype=bool)])
def test_metropolis_entry_point_refuses_bad_moves(monkeypatch, moves):
    monkeypatch.setattr(_native, "library", _no_library)
    with pytest.raises(IndexError, match="4 x 2 integer moves"):
        _native.metropolis(**_block(moves=moves))


def test_metropolis_entry_point_casts_integer_moves_to_int64():
    # int32 masks and a list of rows run as the int64 block they equal
    runs = []
    for moves in (np.ones((4, 2), dtype=np.int64),
                  np.ones((4, 2), dtype=np.int32), [[1, 1]] * 4):
        block = _block(table=np.arange(16.0), moves=moves)
        taken = _native.metropolis(**block)
        runs.append((taken, block["idx"].tolist(), block["records"].tolist()))
    assert runs[0] == (2, [1, 1], [[1, 1, 1], [1, 1, 1]])
    assert runs[1] == runs[2] == runs[0]


_C_TYPES = {"int64_t": ctypes.c_int64, "int32_t": ctypes.c_int32,
            "double": ctypes.c_double, "void": None}


def _kernel_signatures():
    """(name, return type, parameter types) of each spinlab_* function
    defined in _kernels.c."""
    text = re.sub(r"/\*.*?\*/", "", _native.SOURCE.read_text(), flags=re.S)
    for ret, name, params in re.findall(
            r"^(\w+)\s+(spinlab_\w+)\s*\(([^)]*)\)\s*\{", text, re.M):
        params = [" ".join(p.split()) for p in params.split(",")]
        yield name, ret, [] if params == ["void"] else params


def _is_pointer(argtype):
    return argtype is ctypes.c_void_p or issubclass(argtype, ctypes._Pointer)


def _kernel_callers():
    """spinlab_* name -> the module-level functions of _native that read it,
    library, which declares the signatures, aside."""
    callers = {}
    for fn in ast.parse(Path(_native.__file__).read_text()).body:
        if isinstance(fn, ast.FunctionDef) and fn.name != "library":
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute)
                        and node.attr.startswith("spinlab_")):
                    callers.setdefault(node.attr, set()).add(fn.name)
    return callers


def test_every_kernel_has_its_ctypes_signature_declared():
    # undeclared, ctypes passes a Python int as a C int: a 64-bit pointer or
    # count would be cut to 32 bits
    lib = _native.library()
    signatures = list(_kernel_signatures())
    assert {name for name, _, _ in signatures} >= {
        "spinlab_metropolis", "spinlab_flip_masks", "spinlab_rotate",
        "spinlab_x_sum"}
    # and each is called from one checked wrapper, and from nowhere else
    callers = _kernel_callers()
    assert set(callers) == {name for name, _, _ in signatures}
    for name, ret, params in signatures:
        assert len(callers[name]) == 1, (name, callers[name])
        caller, = callers[name]
        assert not caller.startswith("_"), (name, caller)
        fn = getattr(lib, name)
        assert fn.restype is _C_TYPES[ret], name
        assert fn.argtypes is not None, name
        assert len(fn.argtypes) == len(params), name
        for param, argtype in zip(params, fn.argtypes):
            if "*" in param:
                assert _is_pointer(argtype), (name, param)
            else:
                assert argtype is _C_TYPES[param.split()[-2]], (name, param)


def test_only_native_touches_ctypes_or_the_library():
    # the calling convention (ctypes, an array's .ctypes pointer, library())
    # is known in one module; every other one calls _native's wrappers
    package = Path(_native.__file__).parent
    hits = [f"{path.name}:{k}: {line.strip()}"
            for path in sorted(package.glob("*.py"))
            if path.name != "_native.py"
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"ctypes|library\(", line)]
    assert hits == []


def test_source_or_flag_edit_builds_a_new_library(tmp_path, monkeypatch):
    source = _native.SOURCE.read_bytes()
    plain = _native.build(source, tmp_path)
    edited = _native.build(source + PROBE, tmp_path)
    assert edited != plain
    assert ctypes.CDLL(str(edited)).spinlab_probe() == 7
    with pytest.raises(AttributeError):
        ctypes.CDLL(str(plain)).spinlab_probe
    # a cached library is reused, not rebuilt
    mtime = plain.stat().st_mtime_ns
    assert _native.build(source, tmp_path) == plain
    assert plain.stat().st_mtime_ns == mtime
    monkeypatch.setattr(_native, "COMPILE", (*_native.COMPILE, "-g"))
    assert _native.build(source, tmp_path) not in (plain, edited)
    assert len(list(tmp_path.iterdir())) == 3


def test_two_processes_building_at_once_both_load(tmp_path):
    # both wait for the go file, so their compiles overlap
    code = """
        import ctypes, sys, time
        from pathlib import Path
        from spinlab import _native
        out = Path(sys.argv[1])
        while not (out / "go").exists():
            time.sleep(0.001)
        path = _native.build(_native.SOURCE.read_bytes() + sys.argv[2].encode(),
                             out / "lib")
        print(path, ctypes.CDLL(str(path)).spinlab_probe())
        """
    (tmp_path / "lib").mkdir()
    procs = [_python(code, str(tmp_path), PROBE.decode()) for _ in range(2)]
    (tmp_path / "go").touch()
    outs = [_check(p).split() for p in procs]
    assert outs[0] == outs[1]
    assert outs[0][1] == "7"
    # one library, no temporary file left behind
    assert [p.name for p in (tmp_path / "lib").iterdir()] == [
        Path(outs[0][0]).name]


def test_package_data_ships_the_kernel_source():
    text = (SRC.parent / "pyproject.toml").read_text()
    block = re.search(r"\[tool\.setuptools\.package-data\]\s*"
                      r"spinlab = \[([^\]]*)\]", text)
    patterns = [p.strip().strip('"') for p in block.group(1).split(",")]
    assert any(fnmatch.fnmatch(_native.SOURCE.name, p) for p in patterns)


def test_missing_compiler_raises_a_named_runtime_error(tmp_path, monkeypatch):
    monkeypatch.setattr(_native, "COMPILE",
                        ("spinlab-no-such-cc", *_native.COMPILE[1:]))
    with pytest.raises(RuntimeError, match=r"C compiler: spinlab-no-such-cc "):
        _native.build(_native.SOURCE.read_bytes(), tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_compile_error_names_the_command_and_its_message(tmp_path):
    with pytest.raises(RuntimeError, match=r"cc -O2 .*error"):
        _native.build(b"this is not C\n", tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_unwritable_cache_builds_in_a_temporary_directory(tmp_path,
                                                          monkeypatch):
    # a cache whose parent is a file cannot be created, even by root
    (tmp_path / "file").touch()
    monkeypatch.setattr(_native, "CACHE", tmp_path / "file" / "__pycache__")
    lib = _native.library.__wrapped__()
    assert lib.spinlab_metropolis.restype is ctypes.c_int64
    assert list(tmp_path.iterdir()) == [tmp_path / "file"]
