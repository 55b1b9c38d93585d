"""spinlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as a sequence of fresh child processes,
one CLI call each, until S seconds are used (at least MIN_RUNS children).
Every child's output is checked against the workload's oracle.

--trace 0 reports the end-to-end metrics as medians over the children:
``run_s`` (wall time of the CLI call), ``setup_s`` (spawn until spinlab,
numpy and scipy are imported and the call is ready), ``cpu_s`` (user+sys of
the call) and ``peak_rss_mb`` (the child's maximum RSS).  --trace 1
alternates untraced and traced children and reports the per-layer metrics
of tracer.LAYER_METRICS.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it give the same figures for reading, with ``fail_frac`` and the
environment.  Children run one at a time, with BLAS threads pinned to 1.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
GOLDEN_PATH = HERE / "golden.json"

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MiB"}
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_RUNS = 3          # untraced children per --trace 0 run
HARD_LIMIT_S = 170.0  # no child may run past this, whatever --seconds says


def _spinlab_present() -> bool:
    return (ROOT / "src" / "spinlab" / "cli.py").is_file()


# ---------------------------------------------------------------------------
# Environment block
# ---------------------------------------------------------------------------

def _blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"][
            "blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _git_describe() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
           "GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull}
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(numpy),
        "scipy_openblas": _blas_version(scipy),
        "child_thread_env": dict(THREAD_ENV),
        "cli_threads": 1,
        "git_describe": _git_describe(),
    }


# ---------------------------------------------------------------------------
# One child run
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def run_child(workload, seed: int, trace: bool, work_dir: Path,
              timeout: float) -> dict:
    """Run the workload once in a fresh process and check its output."""
    out_dir = work_dir / "out"
    out_dir.mkdir(parents=True)
    cfg = work_dir / "workload.cfg"
    cfg.write_text(workload.config_text())
    result_path = work_dir / "result.json"
    argv = [sys.executable, str(HERE / "child.py"), str(result_path),
            "1" if trace else "0", "--", workload.experiment,
            "--config", str(cfg), "--seed", str(seed), "--out", str(out_dir),
            "--threads", "1"]
    sample = {"trace": trace, "loadavg_before": os.getloadavg(), "errors": []}
    spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc = None
        sample["errors"].append(f"timed out after {timeout:.0f} s")
    sample["wall_s"] = time.monotonic() - spawn
    sample["loadavg_after"] = os.getloadavg()
    if proc is not None and proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        sample["errors"].append(f"exit code {proc.returncode}: "
                                + " | ".join(tail))
    if not result_path.is_file():
        sample["errors"].append("no result from the child")
        return sample
    result = json.loads(result_path.read_text())
    sample["setup_s"] = result.pop("ready_monotonic") - spawn
    sample.update(result)
    try:
        csv_path = out_dir / workload.csv_name
        sample["csv_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        manifest = json.loads(next(out_dir.glob("*_manifest.json"))
                              .read_text())
        sample["errors"] += workload.check(manifest, _read_csv(csv_path),
                                           seed, workload.config)
    except (OSError, StopIteration, KeyError, ValueError) as exc:
        sample["errors"].append(f"missing or malformed output: {exc!r}")
    return sample


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def collect(workload, seed: int, seconds: float, trace: bool) -> list:
    """Children until the time is used; traced runs alternate with untraced."""
    start = time.monotonic()
    runs_dir = RUNS_DIR / workload.name
    shutil.rmtree(runs_dir, ignore_errors=True)
    samples: list = []
    min_runs = 2 if trace else MIN_RUNS
    while True:
        elapsed = time.monotonic() - start
        expect = _median([s["wall_s"] for s in samples]) if samples else 0.0
        if len(samples) >= min_runs and elapsed + expect > seconds:
            break
        if samples and elapsed + expect > HARD_LIMIT_S:
            break
        traced = trace and len(samples) % 2 == 1
        work_dir = runs_dir / f"seed{seed}-run{len(samples)}"
        samples.append(run_child(workload, seed, traced, work_dir,
                                 HARD_LIMIT_S - elapsed))
    return samples


def _golden(name: str, seed: int) -> str | None:
    if not GOLDEN_PATH.is_file():
        return None
    return json.loads(GOLDEN_PATH.read_text()).get(name, {}).get(str(seed))


def end_to_end_metrics(samples: list) -> dict:
    timed = [s for s in samples if "run_s" in s]
    return {name: _median([s[name] for s in timed]) for name in END_TO_END}


def layer_metrics(samples: list, golden: str | None) -> dict:
    """Per-layer metrics from the traced children of one --trace 1 run."""
    traced = [s for s in samples if s["trace"] and "layers" in s]
    plain = [s for s in samples if not s["trace"] and "run_s" in s]
    first = traced[0]["layers"]
    counts = [m for m in first if LAYER_METRICS[m] in ("count", "B")]
    for s in traced[1:]:
        differ = [m for m in counts if s["layers"][m] != first[m]]
        if differ:
            s["errors"].append(f"counts differ between traced runs: {differ}")
    out = {m: first[m] if m in counts
           else _median([s["layers"][m] for s in traced]) for m in first}
    out["cli.import_s"] = _median([s["import_s"] for s in samples
                                   if "import_s" in s])
    shas = [s.get("csv_sha256") for s in samples]
    out["harness.csv_identical"] = int(golden is not None
                                       and all(h == golden for h in shas))
    untraced_run_s = _median([s["run_s"] for s in plain])
    out["trace.overhead_frac"] = (
        _median([s["run_s"] for s in traced]) - untraced_run_s
    ) / untraced_run_s
    reference = plain[0].get("csv_sha256")
    for s in traced:
        if s.get("csv_sha256") != reference:
            s["errors"].append("traced CSV differs from the untraced CSV")
    return {m: out[m] for m in LAYER_METRICS}


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run, check and summarise one workload; returns the report document."""
    samples = collect(workload, seed, seconds, trace)
    golden = _golden(workload.name, seed)
    if trace:
        if not any(s["trace"] and "layers" in s for s in samples) or not any(
                not s["trace"] and "run_s" in s for s in samples):
            raise RuntimeError("no complete traced and untraced pair")
        values = layer_metrics(samples, golden)
        units = LAYER_METRICS
    else:
        if not any("run_s" in s for s in samples):
            raise RuntimeError("no child produced timings")
        values = end_to_end_metrics(samples)
        units = END_TO_END
    failed = sum(1 for s in samples if s["errors"])
    return {
        "workload": workload.name, "seed": seed, "trace": trace,
        "samples": samples, "golden_csv_sha256": golden,
        "result": {
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {m: {"value": values[m], "unit": units[m]}
                        for m in units},
        },
    }


def print_report(report: dict, env: dict) -> None:
    result = report["result"]
    samples = report["samples"]
    print(f"workload {report['workload']} seed {report['seed']} "
          f"trace {int(report['trace'])}: {result['attempted']} runs, "
          f"{result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    if not report["trace"]:
        run_s = [s["run_s"] for s in samples if "run_s" in s]
        tail = tail_percentile(run_s)
        print(f"  run_s over n={len(run_s)}: median {_median(run_s):.6g} s, "
              + (f"p{tail[0]:.3g} {tail[1]:.6g} s" if tail else
                 "no percentile has 10 samples beyond it"))
    print(f"  {'fail_frac':<48} "
          f"{result['failed'] / result['attempted']:.6g} ratio")
    print(f"  csv golden sha256: {report['golden_csv_sha256'] or 'none'}")
    for i, s in enumerate(samples):
        print(f"  run {i} trace={int(s['trace'])} wall={s['wall_s']:.3f}s "
              f"load {s['loadavg_before'][0]:.2f}->"
              f"{s['loadavg_after'][0]:.2f} csv={s.get('csv_sha256', '-')[:12]}"
              + (f" ERRORS {s['errors']}" if s["errors"] else ""))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _spinlab_present():
        print(f"spinlab sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            report = measure(WORKLOADS[name], args.seed, args.seconds,
                             bool(args.trace))
        except RuntimeError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print_report(report, environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())
