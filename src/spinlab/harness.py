"""Seeded experiment orchestration and table emission.

Every experiment takes a flat configuration dictionary, derives one RNG
stream per task from the master seed, and writes a CSV with a JSON manifest
beside it.  Derived seeding keeps outputs byte-identical under re-runs and
independent of worker scheduling.
"""

from __future__ import annotations

import concurrent.futures
import difflib
import hashlib
import json
import numbers
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .pauli import (fermion_hamiltonian_from_json, group_qubitwise, one_norm,
                    pauli_sum_to_json)
from .statevector import TFIMModel, ground_state
from .vqe import (METHOD_ALIASES, HVAnsatz, ShotPlan,
                  estimate_energy_pauli_batch, exact_energy,
                  optimize_noiseless, predicted_error, prepare)
from .vmc import (AmplitudeTableAnsatz, JastrowAnsatz, estimate_energy_vmc,
                  estimate_energy_vmc_batch, rayleigh_quotient,
                  run_sr_optimization)
from .qemcmc import (ClassicalSpinModel, QuantumProposalConfig,
                     assemble_kernel, build_proposal_matrix, energy_table,
                     ferromagnetic_chain, load_instance, run_chain,
                     single_flip_matrix, spectral_gap, spin_glass_instance,
                     uniform_matrix)

CSV_SCHEMA_VERSION = "1"

# Near-optimal long-range couplings for the critical L=10 chain; the first
# slot is the swept parameter in the estimator-quality experiments.
L10_JASTROW_OPTIMUM = (0.220, 0.057, 0.030, 0.022, 0.010)

LAM1_GRID = (-0.15, -0.05, 0.05, 0.12, 0.18, 0.220)


def derive_seed(master_seed: int, label: str, task_index: int) -> int:
    """Stable 64-bit seed of the stream (master, stream label, task)."""
    blob = f"{master_seed}:{label}:{task_index}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


def task_rng(master_seed: int, label: str,
             task_index: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master_seed, label, task_index))


# ---------------------------------------------------------------------------
# Config files: `key = value` lines, '#' comments, comma-separated lists
# ---------------------------------------------------------------------------

def _parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_config_text(text: str) -> dict:
    out: dict = {}
    first_line: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"config line {lineno}: empty key")
        if key in first_line:
            raise ValueError(f"config line {lineno}: key {key!r} already "
                             f"set on line {first_line[key]}")
        first_line[key] = lineno
        if "," in value:
            out[key] = [_parse_scalar(v) for v in value.split(",")]
        else:
            out[key] = _parse_scalar(value)
    return out


def load_config(path: str | Path) -> dict:
    return parse_config_text(Path(path).read_text())


# ---------------------------------------------------------------------------
# Parameter tables: one typed row per config key
# ---------------------------------------------------------------------------

class Param(NamedTuple):
    """One config key: its type, its default, whether it takes a list, and
    the values it allows, if only some are.  A list's values must be
    distinct, because each names derived seeds in the manifest, unless
    ``distinct`` is off; ``anycase`` matches the choices ignoring case, and
    a count takes no value below ``low``."""
    key: str
    kind: type
    default: object
    many: bool = False
    choices: tuple = ()
    distinct: bool = True
    anycase: bool = False
    low: int | None = None


# What each declared type accepts before the cast; bools are always refused.
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, str: str}
_FLOAT_MAX = sys.float_info.max


def _hint(word: str, options: Sequence[str]) -> str:
    near = difflib.get_close_matches(word, options, n=1)
    return (f"did you mean {near[0]!r}?" if near
            else f"expected one of {', '.join(options)}")


def _resolve_value(p: Param, value):
    """The typed value of one key, or a ValueError that names the key."""
    is_list = isinstance(value, (list, tuple))
    if is_list and not p.many:
        raise ValueError(f"config key {p.key!r} takes one value, got the "
                         f"list {value!r}")
    out = []
    for v in value if is_list else [value]:
        if isinstance(v, str):
            v = v.strip()
        if p.kind is int and isinstance(v, float) and v.is_integer():
            v = int(v)
        # a float key takes finite values only; float() of a larger int fails
        if (isinstance(v, bool) or not isinstance(v, _ACCEPTS[p.kind])
                or v == "" or p.kind is float and not abs(v) <= _FLOAT_MAX):
            raise ValueError(f"config key {p.key!r}: expected "
                             f"{p.kind.__name__}, got {v!r}")
        v = p.kind(v)
        if p.choices and (v.lower() if p.anycase else v) not in p.choices:
            raise ValueError(f"config key {p.key!r}: unknown value {v!r}; "
                             f"{_hint(v, p.choices)}")
        if p.low is not None and v < p.low:
            raise ValueError(f"config key {p.key!r}: {v!r} is below the "
                             f"least allowed value {p.low}")
        if p.distinct and v in out:
            raise ValueError(f"config key {p.key!r}: {v!r} is given twice")
        out.append(v)
    return out if p.many else out[0]


def resolve_config(experiment: str, config: dict) -> dict:
    """Every key of the experiment's table with its typed value or default;
    an unknown key, a bad value or values that do not fit together raise a
    ValueError that names the key."""
    params = {p.key: p for p in PARAMS[experiment]}
    for key in config:
        if key not in params:
            raise ValueError(f"unknown config key {key!r} for {experiment}; "
                             f"{_hint(str(key), list(params))}")
    cfg = {key: _resolve_value(p, config[key]) if key in config
           else list(p.default) if p.many else p.default
           for key, p in params.items()}
    if "jastrow_tail" in cfg:
        _check_jastrow(cfg)
    return cfg


_ENSEMBLES = ("ferromagnet", "fully-connected", "chain")
_PROPOSALS = Param("proposals", str, ("quantum", "single-flip"), many=True,
                   choices=("quantum", "single-flip", "uniform"))
_CLASSICAL_MATRICES = {"single-flip": single_flip_matrix,
                       "uniform": uniform_matrix}

_TFIM = (Param("L", int, 10, low=1), Param("J", float, 1.0),
         Param("Gamma", float, 1.0))
_VQE_MODEL = tuple(p._replace(key="model." + p.key) for p in _TFIM)
_OPTIMIZER = (Param("optimizer.method", str, "quasi-newton",
                    choices=tuple(METHOD_ALIASES), anycase=True),
              Param("optimizer.restarts", int, 4, low=0),
              Param("optimizer.max_iter", int, 40, low=1))
_JASTROW = (Param("lam1_grid", float, LAM1_GRID, many=True),
            Param("jastrow_tail", float, L10_JASTROW_OPTIMUM[1:], many=True,
                  distinct=False))


def _check_jastrow(cfg: dict) -> None:
    """The pair ansatz needs an even L, SR a positive step ``delta``, and the
    ansatz-quality sweep L/2 - 1 tail couplings after the swept first one
    (SR mode uses none)."""
    L, tail = cfg["L"], cfg["jastrow_tail"]
    if L < 2 or L % 2:
        raise ValueError(f"config key 'L': the Jastrow ansatz needs an even "
                         f"L >= 2, got {L}")
    if cfg.get("delta", 1.0) <= 0:
        raise ValueError(f"config key 'delta': the SR step must be positive, "
                         f"got {cfg['delta']!r}")
    if cfg.get("mode", "sweep") == "sweep" and len(tail) != L // 2 - 1:
        raise ValueError(f"config key 'jastrow_tail' needs L/2 - 1 = "
                         f"{L // 2 - 1} values for 'L' = {L}, got {len(tail)}")


# Each experiment's table and entry point, filled in by ``_experiment``.
PARAMS: dict[str, tuple[Param, ...]] = {}
EXPERIMENTS: dict[str, Callable] = {}


# ---------------------------------------------------------------------------
# Manifest and CSV plumbing, and the one experiment runner
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    experiment: str
    master_seed: int
    config: dict
    derived_seeds: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    csv_schema_version: str = CSV_SCHEMA_VERSION
    artifact_version: str = __version__
    duration_seconds: float = 0.0

    def write(self, out_dir: Path) -> Path:
        path = out_dir / f"{self.experiment}_manifest.json"
        doc = {**vars(self),
               "duration_seconds": round(self.duration_seconds, 3)}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def write_csv(path: Path, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _run_tasks(fn: Callable, args_list: list, threads: int) -> list:
    """Apply fn to each argument tuple, on a pool of at most one worker per
    task when threads > 1; results keep task order whatever the schedule."""
    if threads <= 1 or len(args_list) <= 1:
        return [fn(*a) for a in args_list]
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(threads, len(args_list))) as pool:
        futures = [pool.submit(fn, *a) for a in args_list]
        return [f.result() for f in futures]


class _Streams:
    """One run's per-task generators.  ``streams(label, task, key)`` opens
    the stream seeded by derive_seed(master, label, task) and, when a key is
    given, lists that seed under the key in the manifest's derived seeds."""

    def __init__(self, master_seed: int):
        self.master_seed, self.seeds = master_seed, {}

    def __call__(self, label: str, task: int,
                 key: str | None = None) -> np.random.Generator:
        seed = derive_seed(self.master_seed, label, task)
        if key is not None:
            self.seeds[key] = seed
        return np.random.default_rng(seed)


def _experiment(name: str, params: tuple[Param, ...]):
    """Register an experiment's table and wrap its body as the entry point
    ``(config, out_dir, master_seed, threads=1) -> RunManifest``.

    The body takes the resolved config, the run's ``_Streams`` and the worker
    count, and returns the CSV header, rows and manifest outputs (the CSV
    file name under "csv").  The config is resolved before any work or
    output; the body's run is timed and its CSV and manifest written.
    """
    PARAMS[name] = params

    def bind(body: Callable) -> Callable[..., RunManifest]:
        def run(config: dict, out_dir: Path, master_seed: int,
                threads: int = 1) -> RunManifest:
            cfg = resolve_config(name, config)
            t0 = time.time()
            out_dir.mkdir(parents=True, exist_ok=True)
            streams = _Streams(master_seed)
            header, rows, outputs = body(cfg, streams, threads)
            write_csv(out_dir / outputs["csv"], header, rows)
            manifest = RunManifest(
                experiment=name, master_seed=master_seed, config=cfg,
                derived_seeds=streams.seeds, outputs=outputs,
                duration_seconds=time.time() - t0)
            manifest.write(out_dir)
            return manifest

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        EXPERIMENTS[name] = run
        return run

    return bind


# ---------------------------------------------------------------------------
# The TFIM reference and the depth sweep shared by the TFIM experiments
# ---------------------------------------------------------------------------

def _tfim_reference(cfg: dict, prefix: str = ""):
    """Model, sum, ground energy and state of the L, J and Gamma keys (after
    prefix), and x -> |x - E0| / |E0|, refusing an E0 of zero on h's scale."""
    keys = [prefix + k for k in ("L", "J", "Gamma")]
    model = TFIMModel(*(cfg[k] for k in keys))
    h = model.as_pauli_sum()
    e0, v0 = ground_state(h)
    if abs(e0) <= 1e-12 * one_norm(h):
        raise ValueError(f"config keys {', '.join(map(repr, keys))} give "
                         f"E0 = {e0:.3g}, so |E - E0| / |E0| is undefined")
    return model, h, e0, v0, lambda x: abs(x - e0) / abs(e0)


def _optimizer(cfg: dict) -> dict:
    """The optimizer.* keys as optimize_noiseless's keyword arguments."""
    return {p.key.split(".")[1]: cfg[p.key] for p in _OPTIMIZER}


def optimize_depth_sweep(model: TFIMModel, depths: Sequence[int],
                         master_seed: int, method: str = "quasi-newton",
                         restarts: int = 4, max_iter: int = 40
                         ) -> list[HVAnsatz]:
    """Optimize each depth, seeding deeper circuits with the shallower optimum.

    Padding the previous best with zero-angle blocks reproduces its state
    exactly, so the best energy can only move down along the sweep.
    """
    out: list[HVAnsatz] = []
    for i, d in enumerate(sorted(depths)):
        prev = out[-1].params if out else ()
        start = HVAnsatz(model, d, prev + (0.0,) * (2 * d - len(prev)))
        res = optimize_noiseless(start, method=method, restarts=restarts,
                                 rng=task_rng(master_seed, "depth-sweep", i),
                                 max_iter=max_iter)
        out.append(res.ansatz)
    return out


# ---------------------------------------------------------------------------
# fig2: estimator standard deviation vs ansatz quality
# ---------------------------------------------------------------------------

def _spread_cell(a, model: TFIMModel, m: int, reps: int,
                 rng: np.random.Generator) -> float:
    """Std of reps energy estimates of one state: grouped measurement with m
    shots per group for a circuit, m VMC samples for a Jastrow ansatz."""
    if isinstance(a, HVAnsatz):
        h = model.as_pauli_sum()
        groups = group_qubitwise(h)
        plan = ShotPlan.uniform(groups.n_groups, m)
        ests = estimate_energy_pauli_batch(prepare(a), h, groups, plan,
                                           [rng] * reps)
    else:
        ests = estimate_energy_vmc_batch(a, model, m, reps, rng)
    return float(np.std([e.mean for e in ests], ddof=1))


@_experiment("fig2", _TFIM + _OPTIMIZER + _JASTROW + (
    Param("depths", int, (12, 16, 20, 24), many=True, low=1),
    Param("shots", int, (100, 1000, 100000), many=True, low=1),
    # each cell's spread is a ddof=1 std over the repetitions
    Param("repetitions", int, 100, low=2)))
def fig2_experiment(cfg: dict, streams: _Streams, threads: int):
    """Standard deviation of both estimators against exact ansatz quality.

    Pauli branch: circuit depths with noiseless warm-started optimization,
    grouped shot-noise estimates.  VMC branch: the long-range pair ansatz
    with its leading coupling swept away from the optimum.  Both report the
    spread over independent repetitions at each sample budget.
    """
    L, shots, reps = cfg["L"], cfg["shots"], cfg["repetitions"]
    model, h, e0, v0, rel = _tfim_reference(cfg)
    ansatze = optimize_depth_sweep(model, cfg["depths"], streams.master_seed,
                                   **_optimizer(cfg))
    depth_rel = {f"d{a.depth}": rel(exact_energy(a, h)) for a in ansatze}
    # (estimator, CSV ansatz name, seed key, ansatz, relative error)
    states = [("pauli", f"hv_d{a.depth}", f"d{a.depth}", a,
               depth_rel[f"d{a.depth}"]) for a in ansatze]
    for lam1 in cfg["lam1_grid"]:
        a = JastrowAnsatz(L, (lam1,) + tuple(cfg["jastrow_tail"]))
        states.append(("vmc", f"jastrow_lam1={format_cell(lam1)}",
                       f"lam1={lam1}", a, rel(rayleigh_quotient(a, model))))

    # Each cell is a CSV row without its last column, the sampled std; each
    # estimator numbers its cells' streams from 0.
    cells, args = [], []
    for est, name, key, a, err in states:
        for m in shots:
            task = sum(cell[0] == est for cell in cells)
            args.append((a, model, m, reps, streams(f"fig2-{est}", task,
                                                    f"{est}/{key}/M{m}")))
            cells.append((est, name, m, err))
    rows = [cell + (std,) for cell, std
            in zip(cells, _run_tasks(_spread_cell, args, threads))]

    # zero-variance diagnostic: the exact eigenvector as a table ansatz
    exact_a = AmplitudeTableAnsatz(L, v0.amplitudes.real)
    for m in shots:
        est = estimate_energy_vmc(exact_a, model, min(m, 10_000),
                                  streams("fig2-exact", m, f"vmc/exact/M{m}"))
        rows.append(("vmc", "exact_eigenvector", m, rel(est.mean), est.stderr))
    return (("estimator", "ansatz", "M", "relative_error", "std"), rows,
            {"csv": "fig2.csv", "E0": e0, "depth_relative_errors": depth_rel,
             "pauli_cost_note": "each Pauli estimate consumes "
                                "n_groups * M shots",
             "units": {"energy": "J", "J": cfg["J"], "Gamma": cfg["Gamma"]}})


# ---------------------------------------------------------------------------
# gap-sweep: exact spectral gaps and sampled autocorrelation
# ---------------------------------------------------------------------------

def _instance_for(kind: str, L: int, rng) -> ClassicalSpinModel:
    return (ferromagnetic_chain(L) if kind == "ferromagnet"
            else spin_glass_instance(L, rng, topology=kind))


@_experiment("gap-sweep", (
    Param("L_list", int, (4, 6), many=True, low=1),
    Param("beta_list", float, (1.0, 2.0), many=True),
    _PROPOSALS,
    Param("instances", int, 5, low=1),
    Param("K", int, 32, low=1),
    Param("steps", int, 4000, low=1),
    Param("ensemble", str, "fully-connected", choices=_ENSEMBLES)))
def gap_sweep(cfg: dict, streams: _Streams, threads: int):
    """Exact kernel gaps plus sampled chain diagnostics over a grid."""
    kind, proposals = cfg["ensemble"], cfg["proposals"]
    rows = []
    for L in cfg["L_list"]:
        for inst in range(cfg["instances"]):
            task = L * 1000 + inst
            model = _instance_for(kind, L, streams("gap-instance", task))
            qcfg = QuantumProposalConfig.for_model(model)
            quad_rng = streams("gap-quad", task)
            matrices = {}  # drop the last instance's matrices first
            for name in proposals:
                matrices[name] = (
                    build_proposal_matrix(model, qcfg, cfg["K"], quad_rng)
                    if name == "quantum" else _CLASSICAL_MATRICES[name](L))
            for beta in cfg["beta_list"]:
                for name in proposals:
                    gap = spectral_gap(assemble_kernel(matrices[name], model,
                                                       beta))
                    proposal = qcfg if name == "quantum" else name
                    rng = streams("gap-chain", len(rows),
                                  f"L{L}/i{inst}/b{beta}/{name}")
                    _, diag = run_chain(model, proposal, beta, cfg["steps"],
                                        rng)
                    rows.append((f"{kind}-{L}-{inst}", L, beta, name,
                                 gap.delta, diag.tau_energy,
                                 diag.acceptance_rate))
    return (("instance_id", "L", "beta", "proposal", "delta", "tau",
             "acceptance_rate"), rows,
            {"csv": "gap_sweep.csv", "rows": len(rows)})


# ---------------------------------------------------------------------------
# vqe-run: optimize one depth and characterize its shot-noise estimator
# ---------------------------------------------------------------------------

@_experiment("vqe-run", _VQE_MODEL + (
    Param("depth", int, 12, low=1),
    Param("shots_per_group", int, 1000, low=1),
    Param("repetitions", int, 100, low=1)) + _OPTIMIZER)
def vqe_run(cfg: dict, streams: _Streams, threads: int):
    """Optimize one circuit depth, then repeat its shot-noise estimate."""
    model, h, e0, _, rel = _tfim_reference(cfg, "model.")
    res = optimize_noiseless(HVAnsatz.zeros(model, cfg["depth"]),
                             rng=streams("vqe-opt", 0), **_optimizer(cfg))
    s = prepare(res.ansatz)
    groups = group_qubitwise(h)
    plan = ShotPlan.uniform(groups.n_groups, cfg["shots_per_group"])
    ests = estimate_energy_pauli_batch(s, h, groups, plan, [
        streams("vqe-est", rep, f"rep{rep}")
        for rep in range(cfg["repetitions"])])
    rows = [(rep, e.mean, e.stderr) for rep, e in enumerate(ests)]
    return (("repetition", "mean", "stderr"), rows,
            {"csv": "vqe_run.csv", "E0": e0, "E_var": res.energy,
             "relative_error": rel(res.energy), "converged": res.converged,
             "predicted_error": predicted_error(s, h, plan, groups),
             "n_groups": groups.n_groups})


# ---------------------------------------------------------------------------
# vmc-run: SR optimization or the ansatz-quality sweep
# ---------------------------------------------------------------------------

@_experiment("vmc-run", _TFIM + _JASTROW + (
    Param("mode", str, "sweep", choices=("sweep", "sr")),
    Param("samples", int, (100, 1000, 100000), many=True, low=1),
    Param("sr_steps", int, 200, low=1),
    Param("samples_per_step", int, 4096, low=1),
    Param("delta", float, 0.05)))
def vmc_run(cfg: dict, streams: _Streams, threads: int):
    """SR from lam = 0 (``mode = sr``) or the ansatz-quality sweep."""
    model, _, e0, _, rel = _tfim_reference(cfg)
    if cfg["mode"] == "sr":
        run = run_sr_optimization(model, n_steps=cfg["sr_steps"],
                                  samples_per_step=cfg["samples_per_step"],
                                  delta=cfg["delta"],
                                  rng=streams("vmc-sr", 0, "sr"))
        rows = [(i, e, rel(e)) for i, e in enumerate(run.energies)]
        e_fin = rayleigh_quotient(run.ansatz, model)
        return (("step", "energy", "relative_error"), rows,
                {"csv": "vmc_sr.csv", "E0": e0,
                 "final_lam": list(run.ansatz.lam), "final_energy": e_fin,
                 "final_relative_error": rel(e_fin)})
    rows = []
    for lam1 in cfg["lam1_grid"]:
        a = JastrowAnsatz(cfg["L"], (lam1,) + tuple(cfg["jastrow_tail"]))
        err = rel(rayleigh_quotient(a, model))
        for m in cfg["samples"]:
            est = estimate_energy_vmc(a, model, m, streams(
                "vmc-sweep", len(rows), f"lam1={lam1}/M{m}"))
            rows.append((lam1, err, est.stderr, m))
    return (("lam1", "relative_error", "stderr", "M_vmc"), rows,
            {"csv": "vmc_sweep.csv", "E0": e0})


# ---------------------------------------------------------------------------
# qemcmc-run: sampled chains on one model
# ---------------------------------------------------------------------------

@_experiment("qemcmc-run", (
    Param("L", int, 6, low=1),
    Param("ensemble", str, "ferromagnet", choices=_ENSEMBLES),
    Param("instance", str, None),
    Param("beta", float, 2.0),
    Param("steps", int, 20000, low=1),
    Param("chains", int, 4, low=1),
    _PROPOSALS))
def qemcmc_run(cfg: dict, streams: _Streams, threads: int):
    """Sampled chains of each proposal on one generated or loaded model."""
    if cfg["instance"] is None:
        model = _instance_for(cfg["ensemble"], cfg["L"],
                              streams("qemcmc-inst", 0))
    else:
        model = load_instance(cfg["instance"])
    qcfg = QuantumProposalConfig.for_model(model)
    v = energy_table(model)
    rows = []
    for i, name in enumerate(cfg["proposals"]):
        proposal = qcfg if name == "quantum" else name
        rec, diag = run_chain(model, proposal, cfg["beta"], cfg["steps"],
                              streams("qemcmc-chain", i, name),
                              n_chains=cfg["chains"])
        mean_e = float(v[rec].mean())
        rows.append((name, diag.acceptance_rate, diag.tau_energy, mean_e))
    return (("proposal", "acceptance_rate", "tau_energy", "mean_energy"),
            rows, {"csv": "qemcmc_run.csv", "beta": cfg["beta"]})


# ---------------------------------------------------------------------------
# jw-map: fermion file in, Pauli file out
# ---------------------------------------------------------------------------

def jw_map(input_path: Path, output_path: Path) -> dict:
    """Map a fermion Hamiltonian file and report size statistics."""
    from .pauli import map_fermionic

    text = Path(input_path).read_text()
    ferm = fermion_hamiltonian_from_json(text)
    mapped = map_fermionic(ferm)
    groups = group_qubitwise(mapped)
    summary = {
        "n_terms": len(mapped.terms),
        "one_norm": one_norm(mapped),
        "n_groups": groups.n_groups,
    }
    doc = json.loads(pauli_sum_to_json(mapped))
    doc["summary"] = summary
    Path(output_path).write_text(json.dumps(doc, indent=2, sort_keys=True)
                                 + "\n")
    return summary
