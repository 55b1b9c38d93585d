"""Variational Monte Carlo for the Ising chain, plus a continuous toy.

The estimator of interest is the local energy E_L(x) = <x|H|psi>/<x|psi>,
whose variance vanishes when the ansatz is an eigenstate.  Sampling uses
single-spin-flip Metropolis targeting psi(x)^2; many chains advance in
lockstep as rows of a numpy array, which is what makes the repetition
experiments affordable.  The step is the one Metropolis kernel shared with
the classical and quantum chains, qemcmc._metropolis: on the table
lw = log |psi|^2 it accepts a flip i -> p when log u < lw[p] - lw[i]
(scale 1) and records every thinning steps after burn_in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import _native
from .qemcmc import _check_counts, _metropolis
from .statevector import (CapacityError, SpinConfiguration, TFIMModel,
                          _zz_levels)
from .vqe import EnergyEstimate, _ridge_solve

TABLE_CAP = 20  # build full 2^L lookup tables up to this many sites


@dataclass(frozen=True)
class JastrowAnsatz:
    """Pairwise log-linear ansatz log psi = sum_r lam_r sum_k s_k s_{k+r}.

    Distances run r = 1 .. L/2 with periodic indexing, so the longest
    distance counts every pair twice; the convention follows the defining
    sum literally.  psi is strictly positive for every configuration.
    """

    L: int
    lam: tuple[float, ...]

    def __post_init__(self):
        if self.L < 2 or self.L % 2:
            raise ValueError("L must be even and at least 2")
        if len(self.lam) != self.L // 2:
            raise ValueError(f"need {self.L // 2} parameters, got {len(self.lam)}")
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))

    def with_lam(self, lam) -> "JastrowAnsatz":
        return JastrowAnsatz(self.L, tuple(lam))

    def log_psi_spins(self, spins: np.ndarray) -> np.ndarray:
        """log psi for every row of an (n, L) spin matrix."""
        return self._log_psi(_log_derivative_matrix(
            self, np.atleast_2d(np.asarray(spins))))

    def _log_psi(self, o: np.ndarray) -> np.ndarray:
        """sum_r lam_r O_r per row of an (n, L/2) feature matrix, r ascending."""
        out = np.zeros(o.shape[0])
        for r, lam_r in enumerate(self.lam):
            out += lam_r * o[:, r]
        return out

    def log_psi(self, x: SpinConfiguration) -> float:
        return float(self.log_psi_spins(np.array([x.spins]))[0])

    def amplitude_table(self) -> np.ndarray:
        """psi over all 2^L basis indices (positive reals)."""
        if self.L > TABLE_CAP:
            raise CapacityError(f"amplitude table capped at {TABLE_CAP} sites")
        return np.exp(self._log_psi(_feature_table(self.L)))


@dataclass(frozen=True)
class AmplitudeTableAnsatz:
    """Arbitrary wavefunction given by its full amplitude table.

    Exists so exact eigenvectors can be fed to the VMC estimators; amplitudes
    may carry signs or phases.  Sampling weights use |amplitude|^2.
    """

    L: int
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table)
        if t.shape != (2 ** self.L,):
            raise ValueError(f"table must have 2^{self.L} entries")
        if not np.any(t != 0):
            raise ValueError("table is identically zero")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def log_psi(self, x: SpinConfiguration) -> float:
        a = abs(self.table[x.to_index()])
        return float(np.log(a)) if a > 0 else float("-inf")

    def amplitude_table(self) -> np.ndarray:
        return self.table


# ---------------------------------------------------------------------------
# Local energy
# ---------------------------------------------------------------------------

def local_energy_table(a, model: TFIMModel) -> np.ndarray:
    """E_L(x) for all 2^L configurations.

    E_L(x) = -J sum_k s_k s_{k+1} - Gamma sum_k psi(x^(k))/psi(x) with x^(k)
    the single-flip neighbor.  Entries where psi(x) = 0 come out nan.
    """
    amp = np.asarray(a.amplitude_table())
    amp = np.ascontiguousarray(amp, dtype=np.result_type(amp, np.float64))
    levels, inv = _zz_levels(model.L, model.periodic)
    ratio_sum = _native.x_sum(amp, model.L)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (-model.J * levels)[inv] - model.Gamma * np.where(
            amp != 0, ratio_sum / np.where(amp != 0, amp, 1), np.nan)
    if np.iscomplexobj(vals):
        vals = np.where(np.abs(vals.imag) < 1e-9, vals.real, np.nan)
    return np.asarray(vals, dtype=float)


def local_energy_tfim(a, x: SpinConfiguration, model: TFIMModel) -> float:
    """Single-configuration local energy; nan marks a zero-amplitude pivot."""
    spins = np.array(x.spins)
    zz = float(sum(spins[p] * spins[q] for p, q in model.bonds()))
    if isinstance(a, JastrowAnsatz):
        ratios = 0.0
        base = a.log_psi(x)
        for k in range(model.L):
            flipped = list(x.spins)
            flipped[k] = -flipped[k]
            ratios += np.exp(a.log_psi(SpinConfiguration(tuple(flipped))) - base)
        return float(-model.J * zz - model.Gamma * ratios)
    table = np.asarray(a.amplitude_table())
    i = x.to_index()
    if table[i] == 0:
        return float("nan")
    ratios = sum(table[i ^ (1 << k)] / table[i] for k in range(model.L))
    val = -model.J * zz - model.Gamma * ratios
    if isinstance(val, complex):
        if abs(val.imag) > 1e-9:
            return float("nan")
        val = val.real
    return float(val)


@dataclass(frozen=True)
class LocalEnergyRecord:
    config: SpinConfiguration
    e_local: float


def local_energy_records(a, configs: Sequence[SpinConfiguration],
                         model: TFIMModel) -> list[LocalEnergyRecord]:
    table = local_energy_table(a, model)
    return [LocalEnergyRecord(c, float(table[c.to_index()])) for c in configs]


def rayleigh_quotient(a, model: TFIMModel) -> float:
    """<psi|H|psi>/<psi|psi> by full enumeration (the exact variational energy)."""
    return _rayleigh(a.amplitude_table(), local_energy_table(a, model))


def _rayleigh(amp: np.ndarray, e: np.ndarray) -> float:
    """rayleigh_quotient from the amplitude and local-energy tables."""
    p = np.abs(np.asarray(amp, dtype=complex)) ** 2
    p = p / p.sum()
    mask = p > 0
    return float(np.real(np.sum(p[mask] * e[mask])))


# ---------------------------------------------------------------------------
# Metropolis sampling (vectorized across chains)
# ---------------------------------------------------------------------------

def run_metropolis_chains(a, n_chains: int, n_records: int, burn_in: int,
                          thinning: int, rng: np.random.Generator,
                          initial: np.ndarray | None = None) -> np.ndarray:
    """(n_chains, n_records) basis indices from parallel single-flip chains.

    burn_in and thinning count single-flip attempts per chain.  Proposal
    flips one uniformly chosen spin; acceptance is min[1, psi'^2/psi^2].
    initial, if given, holds one start index in [0, 2^L) per chain.
    """
    _check_counts(0, n_records=n_records, burn_in=burn_in)
    _check_counts(1, n_chains=n_chains, thinning=thinning)
    # log of the unnormalized sampling weight |psi|^2 per basis index
    with np.errstate(divide="ignore"):
        lw = 2.0 * np.log(np.abs(np.asarray(a.amplitude_table(),
                                            dtype=complex)))
    draw = _native.flip_draw(rng, a.L, n_chains)
    return _metropolis(lw, 1.0, initial, n_chains,
                       burn_in + n_records * thinning, burn_in, thinning, rng,
                       draw, 4096, flip=True)[0]


def default_burn_in(L: int) -> int:
    """10 L sweeps of L attempts each."""
    return 10 * L * L


def metropolis_sample(a, M: int, burn_in: int | None = None,
                      thinning: int | None = None,
                      rng: np.random.Generator | None = None
                      ) -> list[SpinConfiguration]:
    """M thinned configurations from one chain targeting psi^2."""
    if M < 1:
        raise ValueError("need at least one sample")
    if rng is None:
        rng = np.random.default_rng(0)
    L = a.L
    if burn_in is None:
        burn_in = default_burn_in(L)
    if thinning is None:
        thinning = L
    idx = run_metropolis_chains(a, 1, M, burn_in, thinning, rng)[0]
    return [SpinConfiguration.from_index(int(i), L) for i in idx]


def estimate_energy_vmc(a, model: TFIMModel, M_vmc: int,
                        rng: np.random.Generator) -> EnergyEstimate:
    """Sample mean of E_L with a 16-batch-means error bar."""
    return estimate_energy_vmc_batch(a, model, M_vmc, 1, rng)[0]


def estimate_energy_vmc_batch(a, model: TFIMModel, M_vmc: int, n_reps: int,
                              rng: np.random.Generator) -> list[EnergyEstimate]:
    """n_reps independent repetitions run as parallel chains."""
    _check_counts(1, M_vmc=M_vmc, n_reps=n_reps)
    idx = run_metropolis_chains(a, n_reps, M_vmc, default_burn_in(a.L),
                                a.L, rng)
    table = local_energy_table(a, model)
    out = []
    for row in idx:
        e = table[row]
        k = min(16, M_vmc)
        bm = np.array([b.mean() for b in np.array_split(e, k)])
        stderr = float(bm.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0
        out.append(EnergyEstimate(mean=float(e.mean()), stderr=stderr,
                                  shots_used=M_vmc))
    return out


# ---------------------------------------------------------------------------
# Stochastic reconfiguration
# ---------------------------------------------------------------------------

def log_derivatives(a: JastrowAnsatz, x: SpinConfiguration) -> np.ndarray:
    """O_r(x) = d log psi / d lam_r = sum_k s_k s_{k+r}."""
    return _log_derivative_matrix(a, np.array([x.spins]))[0]


def _log_derivative_matrix(a: JastrowAnsatz, spins: np.ndarray) -> np.ndarray:
    """(n_samples, L/2) matrix of O_r values."""
    return np.stack([np.sum(spins * np.roll(spins, -r, axis=1), axis=1)
                     for r in range(1, a.L // 2 + 1)], axis=1).astype(float)


@lru_cache(maxsize=4)
def _feature_table(L: int) -> np.ndarray:
    """(2^L, L/2) int8 table of O_r over every basis index, read-only.

    s_k s_{k+r} is -1 exactly where bits k and k + r (mod L) of the index
    differ, so O_r(x) = L - 2 popcount(x ^ rot_r(x)), with rot_r the cyclic
    shift that moves bit k + r to bit k.  The values lie in [-L, L].
    """
    x = np.arange(2 ** L, dtype=np.uint64)
    table = np.empty((x.size, L // 2), dtype=np.int8)
    for r in range(1, L // 2 + 1):
        rot = ((x >> r) | (x << (L - r))) & (2 ** L - 1)
        table[:, r - 1] = L - 2 * np.bitwise_count(x ^ rot).astype(np.int8)
    table.flags.writeable = False
    return table


def sr_step(a: JastrowAnsatz, samples: Sequence[LocalEnergyRecord],
            delta: float, lam_reg: float | None = None) -> JastrowAnsatz:
    """One preconditioned update lam' = lam + delta (S + reg I)^{-1} f.

    The force f_r = -2(<O_r E_L> - <O_r><E_L>) and the overlap matrix
    S_rs = <O_r O_s> - <O_r><O_s> come from the same sample set.  With
    lam_reg unset, the ridge is 1e-3 of the largest diagonal entry.
    """
    spins = np.array([rec.config.spins for rec in samples])
    e_loc = np.array([rec.e_local for rec in samples])
    o = _log_derivative_matrix(a, spins)
    return a.with_lam(_sr_update(np.asarray(a.lam), o, e_loc, delta, lam_reg))


def _sr_update(lam: np.ndarray, o: np.ndarray, e_loc: np.ndarray,
               delta: float, lam_reg: float | None) -> np.ndarray:
    o_mean = o.mean(axis=0)
    f = -2.0 * ((o * e_loc[:, None]).mean(axis=0) - o_mean * e_loc.mean())
    s = (o.T @ o) / o.shape[0] - np.outer(o_mean, o_mean)
    return lam + delta * _ridge_solve(s, f, lam_reg)


@dataclass(frozen=True)
class SRRun:
    ansatz: JastrowAnsatz
    energies: np.ndarray  # exact variational energy per step
    lam_history: np.ndarray


def run_sr_optimization(model: TFIMModel, n_steps: int = 200,
                        samples_per_step: int = 4096,
                        delta: float = 0.05,
                        rng: np.random.Generator | None = None) -> SRRun:
    """SR descent from lam = 0 with persistent parallel sampling chains.

    Each step draws 64 * max(1, samples_per_step // 64) records, spread
    over 64 warm chains, applies one sr_step, and logs the exact variational
    energy; n_steps and samples_per_step below 1, and a delta that is not
    positive and finite, raise a ValueError.  Each lambda's amplitude table
    is built once and held in an AmplitudeTableAnsatz, which with its
    local-energy table serves step k's exact energy and step k + 1's
    sampling.  The features O_r of the drawn records are read from the
    lambda-independent per-index table that amplitude_table also reads,
    built once per L.  The returned parameters average the final quarter of
    the history to shave off the stochastic dither around the optimum.
    """
    _check_counts(1, n_steps=n_steps, samples_per_step=samples_per_step)
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    a = JastrowAnsatz(model.L, (0.0,) * (model.L // 2))
    per_chain = max(1, samples_per_step // 64)
    state = rng.integers(0, 2 ** model.L, size=64)
    energies = np.empty(n_steps)
    lam_hist = np.empty((n_steps, model.L // 2))
    burn = default_burn_in(model.L)
    t = AmplitudeTableAnsatz(model.L, a.amplitude_table())
    e_table = local_energy_table(t, model)
    for step in range(n_steps):
        idx = run_metropolis_chains(t, 64, per_chain, burn, model.L, rng,
                                    state)
        burn = 2 * model.L * model.L
        state = idx[:, -1].copy()
        flat = idx.reshape(-1)
        e_loc = e_table[flat]
        o = _feature_table(model.L)[flat].astype(float)
        new_lam = _sr_update(np.asarray(a.lam), o, e_loc, delta, None)
        a = a.with_lam(new_lam)
        lam_hist[step] = new_lam
        t = AmplitudeTableAnsatz(model.L, a.amplitude_table())
        e_table = local_energy_table(t, model)
        energies[step] = _rayleigh(t.table, e_table)
    tail = max(1, n_steps // 4)
    a_final = a.with_lam(lam_hist[-tail:].mean(axis=0))
    return SRRun(ansatz=a_final, energies=energies, lam_history=lam_hist)


# ---------------------------------------------------------------------------
# Continuous harmonic toy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianToy:
    """Gaussian trial state psi(x) = exp(-theta x^2) in a potential V."""

    theta: float
    omega: float = 1.0

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive for normalizability")
        if self.omega <= 0:
            raise ValueError("omega must be positive")


def gaussian_local_energy(g: GaussianToy, x: float,
                          potential: Callable[[float], float]) -> float:
    """E_L(x) = theta - 2 theta^2 x^2 + V(x) for the Gaussian ansatz."""
    return g.theta - 2.0 * g.theta ** 2 * x ** 2 + potential(x)


def harmonic_local_energy(g: GaussianToy, x: float) -> float:
    """Harmonic case V(x) = (omega/2) x^2: E_L = theta + x^2 (omega/2 - 2 theta^2)."""
    return g.theta + x ** 2 * (g.omega / 2.0 - 2.0 * g.theta ** 2)
