"""One benchmark sample: a fresh process that runs one spinlab CLI call.

    python3 perfbench/child.py RESULT_JSON TRACE -- CLI_ARGS...

run.py starts this with the BLAS thread variables pinned to 1.  It imports
spinlab from the checkout's ``src``, marks the moment the call is ready
(``time.monotonic``, which the parent compares with its spawn time), runs
``spinlab.cli.main(CLI_ARGS)`` and writes its timings to RESULT_JSON.  With
TRACE = 1 the tracer is installed first, the spans go to ``spans.json``
beside RESULT_JSON and the layer metrics into RESULT_JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    result_path, trace, sep, cli_args = (Path(argv[0]), argv[1] == "1",
                                         argv[2], argv[3:])
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- CLI_ARGS...")
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    t_import = time.perf_counter()
    import spinlab.cli as cli
    import_s = time.perf_counter() - t_import
    tracer = None
    if trace:
        from tracer import Tracer, layer_metrics
        work_dir = result_path.parent
        tracer = Tracer(run_id=f"{work_dir.parent.name}/{work_dir.name}")
        tracer.install()
    ready = time.monotonic()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = cli.main(cli_args)
    run_s = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "exit_code": code,
        "ready_monotonic": ready,
        "import_s": import_s,
        "run_s": run_s,
        "cpu_s": _cpu_s(usage1) - _cpu_s(usage0),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write(result_path.parent / "spans.json")
        out["layers"] = layer_metrics(tracer.spans, tracer.counts)
    result_path.write_text(json.dumps(out) + "\n")
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
