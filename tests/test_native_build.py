"""The compiled Metropolis loop is built on first use and cached by content.

spinlab runs from a source checkout, so nothing is compiled at import: the
first Metropolis call builds _metropolis.c into the package's __pycache__
under a name keyed by the source and the compile command, and later calls
and processes load that file.
"""

import ctypes
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
    kernel = _native.metropolis_kernel.__wrapped__()
    assert kernel.restype is ctypes.c_int64
    assert list(tmp_path.iterdir()) == [tmp_path / "file"]
