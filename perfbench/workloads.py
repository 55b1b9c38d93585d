"""The benchmark's workloads and the independent oracles that check them.

Each workload is one pinned ``spinlab <experiment>`` call.  L, depth and the
mix of layers follow the benchmark's design (see README.md); only the repeat
knobs (``repetitions``, ``sr_steps``, ``steps``, ``instances``) are scaled so
that several fresh-process runs fit in one measurement.

The oracles use nothing from spinlab: closed-form free-fermion energies,
energy tables enumerated here, and kernels assembled here.  Where an oracle
must rebuild a random instance it re-derives the documented per-task seed
(``sha256("master:experiment:task")[:8]``, little-endian) and redraws the
couplings itself.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

Check = Callable[[dict, list, int, dict], list]


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    config: dict
    csv_name: str
    check: Check  # (manifest, csv rows, seed, config) -> failure messages

    def config_text(self) -> str:
        lines = []
        for key, value in self.config.items():
            if isinstance(value, (list, tuple)):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Independent reference quantities
# ---------------------------------------------------------------------------

def free_fermion_e0(L: int) -> float:
    """Critical periodic TFIM ground energy, -2 sum_k |sin(k/2)|.

    k = (2n - 1) pi / L for n = 1..L, the even-parity (antiperiodic) sector
    that holds the ground state for even L at J = Gamma = 1.
    """
    k = (2 * np.arange(1, L + 1) - 1) * math.pi / L
    return float(-2.0 * np.abs(np.sin(k / 2)).sum())


def task_seed(master_seed: int, experiment: str, task: int) -> int:
    blob = f"{master_seed}:{experiment}:{task}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


def glass_energies(L: int, seed: int) -> np.ndarray:
    """V(x) = -sum_{i<j} J_ij s_i s_j for every basis index x.

    J_ij are standard normal on the upper triangle in row-major order, the
    fully-connected ensemble; bit k = 1 of x means s_k = -1.
    """
    iu = np.triu_indices(L, 1)
    j_upper = np.random.default_rng(seed).normal(size=len(iu[0]))
    x = np.arange(2 ** L)
    spins = 1 - 2 * ((x[:, None] >> np.arange(L)[None, :]) & 1)
    return -np.sum(j_upper * spins[:, iu[0]] * spins[:, iu[1]], axis=1)


def single_flip_gap(v: np.ndarray, beta: float) -> float:
    """1 - |lambda_2| of the single-flip Metropolis kernel on energies v.

    Built directly in the sqrt(pi)-symmetrized form: off-diagonal entries
    (1/L) exp(-beta |dV| / 2), diagonal the rejected mass, then eigvalsh.
    """
    dim = v.size
    L = dim.bit_length() - 1
    x = np.arange(dim)
    sym = np.zeros((dim, dim))
    stay = np.ones(dim)
    for k in range(L):
        y = x ^ (1 << k)
        dv = v[y] - v
        sym[x, y] = np.exp(-beta * np.abs(dv) / 2) / L
        stay -= np.minimum(1.0, np.exp(-beta * dv)) / L
    sym[x, x] = stay
    mods = np.sort(np.abs(np.linalg.eigvalsh(sym)))[::-1]
    return float(1.0 - mods[1])


# ---------------------------------------------------------------------------
# Oracle gates, one per experiment
# ---------------------------------------------------------------------------

def _check_e0(manifest: dict, L: int) -> list:
    e0 = manifest["outputs"]["E0"]
    ref = free_fermion_e0(L)
    if abs(e0 - ref) > 1e-9:
        return [f"E0 {e0!r} differs from free-fermion {ref!r}"]
    return []


def check_vqe(manifest: dict, rows: list, seed: int, config: dict) -> list:
    errors = _check_e0(manifest, int(config["model.L"]))
    out = manifest["outputs"]
    e0, e_var = out["E0"], out["E_var"]
    if e_var < e0 - 1e-9:
        errors.append(f"E_var {e_var!r} below E0 {e0!r}")
    means = np.array([float(r["mean"]) for r in rows])
    if len(means) != int(config["repetitions"]):
        errors.append(f"{len(means)} estimates, expected "
                      f"{config['repetitions']}")
    elif len(means) > 1:
        se = means.std(ddof=1) / math.sqrt(len(means))
        if abs(means.mean() - e_var) > 5 * se:
            errors.append(f"mean estimate {means.mean():.6f} is more than "
                          f"5 standard errors ({se:.2e}) from E_var "
                          f"{e_var:.6f}")
    return errors


def check_vmc_sr(manifest: dict, rows: list, seed: int, config: dict,
                 max_relative_error: float | None = None,
                 lam_targets: tuple = ()) -> list:
    errors = _check_e0(manifest, int(config["L"]))
    out = manifest["outputs"]
    if len(rows) != int(config["sr_steps"]):
        errors.append(f"{len(rows)} SR steps, expected {config['sr_steps']}")
    rel = out["final_relative_error"]
    if max_relative_error is not None and not rel <= max_relative_error:
        errors.append(f"final_relative_error {rel:.3e} above "
                      f"{max_relative_error:.0e}")
    for r, (got, want) in enumerate(zip(out["final_lam"], lam_targets),
                                    start=1):
        if abs(got - want) > 0.1 * abs(want):
            errors.append(f"lambda_{r} {got:.4f} not within 10% of {want}")
    return errors


def check_gap_sweep(manifest: dict, rows: list, seed: int,
                    config: dict) -> list:
    errors = []
    l_list = [int(v) for v in config["L_list"]]
    betas = [float(v) for v in config["beta_list"]]
    n_inst = int(config["instances"])
    expected = len(l_list) * n_inst * len(betas) * len(config["proposals"])
    if len(rows) != expected:
        errors.append(f"{len(rows)} rows, expected {expected}")
    gaps = {}
    for L in l_list:
        for inst in range(n_inst):
            v = glass_energies(L, task_seed(seed, "gap-instance",
                                            L * 1000 + inst))
            for beta in betas:
                gaps[(f"fully-connected-{L}-{inst}", beta)] = \
                    single_flip_gap(v, beta)
    for r in rows:
        acc, tau = float(r["acceptance_rate"]), float(r["tau"])
        if not 0.0 <= acc <= 1.0:
            errors.append(f"{r['instance_id']}: acceptance {acc} outside "
                          "[0, 1]")
        if not tau >= 0.5:
            errors.append(f"{r['instance_id']}: tau {tau} below 0.5")
        if r["proposal"] == "single-flip":
            ref = gaps[(r["instance_id"], float(r["beta"]))]
            if abs(float(r["delta"]) - ref) > 1e-9:
                errors.append(f"{r['instance_id']} beta={r['beta']}: "
                              f"single-flip delta {r['delta']} differs from "
                              f"the symmetrized-kernel oracle {ref!r}")
    return errors


def check_qemcmc(manifest: dict, rows: list, seed: int, config: dict) -> list:
    errors = []
    v = glass_energies(int(config["L"]), task_seed(seed, "qemcmc-inst", 0))
    if len(rows) != len(config["proposals"]):
        errors.append(f"{len(rows)} rows, expected {len(config['proposals'])}")
    for r in rows:
        e = float(r["mean_energy"])
        if not v.min() - 1e-9 <= e <= v.max() + 1e-9:
            errors.append(f"{r['proposal']}: mean_energy {e} outside "
                          f"[{v.min()}, {v.max()}]")
        if not 0.0 <= float(r["acceptance_rate"]) <= 1.0:
            errors.append(f"{r['proposal']}: acceptance outside [0, 1]")
    return errors


# ---------------------------------------------------------------------------
# The four workloads
# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    # HVA layer pair, reverse-mode gradient, grouped shot sampling and the
    # L=10 ground state; no Metropolis step and no proposal eigh.
    Workload("vqe-l10", "vqe-run", {
        "model.L": 10, "depth": 24, "shots_per_group": 10000,
        "repetitions": 300, "optimizer.restarts": 2,
        "optimizer.max_iter": 40}, "vqe_run.csv", check_vqe),
    # SR to the known L=10 optimum: 64 lockstep single-flip chains and the
    # L=10 ground state; no circuit layer runs.
    Workload("vmc-sr-l10", "vmc-run", {
        "mode": "sr", "L": 10, "sr_steps": 100,
        "samples_per_step": 16384}, "vmc_sr.csv",
        partial(check_vmc_sr, max_relative_error=2e-3,
                lam_targets=(0.220, 0.057))),
    # Exact-kernel layer (proposal matrices, kernels, gaps) and the dense-eigh
    # side of the quantum-proposal crossover at L=8.
    Workload("gap-sweep-l8", "gap-sweep", {
        "L_list": [8], "beta_list": [1.0, 3.0],
        "proposals": ["quantum", "single-flip"], "instances": 2, "K": 64,
        "steps": 60}, "gap_sweep.csv", check_gap_sweep),
    # Per-step 1024x1024 eigh of the quantum proposal at L=10, the other
    # side of the crossover.
    Workload("qemcmc-l10", "qemcmc-run", {
        "L": 10, "ensemble": "fully-connected", "beta": 2.0, "steps": 16,
        "chains": 4, "proposals": ["quantum", "single-flip"]},
        "qemcmc_run.csv", check_qemcmc),
)}


def tiny_workloads() -> dict:
    """The same four experiments at L=4, for the benchmark's own tests."""
    return {w.name: w for w in (
        Workload("vqe-l10-tiny", "vqe-run", {
            "model.L": 4, "depth": 2, "shots_per_group": 1000,
            "repetitions": 20, "optimizer.restarts": 1,
            "optimizer.max_iter": 10}, "vqe_run.csv", check_vqe),
        Workload("vmc-sr-l10-tiny", "vmc-run", {
            "mode": "sr", "L": 4, "sr_steps": 10,
            "samples_per_step": 1024}, "vmc_sr.csv", check_vmc_sr),
        Workload("gap-sweep-l8-tiny", "gap-sweep", {
            "L_list": [4], "beta_list": [1.0, 3.0],
            "proposals": ["quantum", "single-flip"], "instances": 1,
            "K": 4, "steps": 60}, "gap_sweep.csv", check_gap_sweep),
        Workload("qemcmc-l10-tiny", "qemcmc-run", {
            "L": 4, "ensemble": "fully-connected", "beta": 2.0,
            "steps": 30, "chains": 4,
            "proposals": ["quantum", "single-flip"]},
            "qemcmc_run.csv", check_qemcmc),
    )}
