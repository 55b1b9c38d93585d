"""Quantum-enhanced MCMC for classical spin models.

Proposals come from measuring a basis state evolved under the classical
cost function plus a transverse field, with the evolution time and field
strength redrawn every step.  Because that Hamiltonian is real symmetric in
the computational basis, the marginal proposal matrix is symmetric and the
plain Metropolis acceptance makes sampling exact for any proposal quality.
Exact spectral diagnostics and classical baselines live here too.

One kernel, _metropolis, runs every Metropolis chain here and in vmc: it
accepts a move i -> p when log u < scale * (t[p] - t[i]) on a precomputed
table t (the energies V with scale -beta in run_chain, log |psi|^2 with
scale 1 in VMC) and records the state after step burn_in + k * thinning
(run_chain: burn_in 0, thinning record_every), by blocks of moves and
log u that it draws in numpy's stream (single-flip masks by the compiled
_native.flip_draw) and the compiled loop _native.metropolis runs.

The exact proposal evolves only the chains' start columns of exp(-iHt), by
one of three propagators that agree to about 1e-13:

- from L = 9 (CHEBYSHEV_MIN_QUBITS), the Chebyshev series of Tal-Ezer &
  Kosloff, J. Chem. Phys. 81, 3967 (1984), whose products are the diagonal
  times a column plus the compiled sum_k X_k (_native.x_sum);
- below that, when V(x) = V(~x) (zero fields, as in every built-in
  instance), two eigh of size 2^(L-1), one per sector of the global flip
  (the symmetry-adapted basis of exact diagonalisation, Sandvik, AIP Conf.
  Proc. 1297, 135 (2010));
- otherwise one dense 2^L x 2^L eigh.

The crossover is where the O(8^L) eigh falls behind the O(L 2^L) per-term
cost of the series.  Milliseconds per step, dense / sector / series, 1 and
4 chains, one BLAS thread on a 2-core x86-64 host: L = 7, 2.3 / 1.3 / 5.1;
L = 8, 11-12 / 4.4-5.4 / 5.5-9.0; L = 9, 55-58 / 19-20 / 5.0-9.4.

build_proposal_matrix evolves by _start_columns (the chain step takes the
series instead at L = 9 and 10, within 1e-12) and is symmetric to the last
bit, so its kernel keeps the Boltzmann pi and spectral_gap takes eigvalsh
of sqrt(pi) P / sqrt(pi) (eigvals without pi).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import jv

from . import _native
from .pauli import _number_array, _positive_int
from .statevector import (CapacityError, SpinConfiguration, _inverse_cdf,
                          _normalized_cdf, _x_gate, all_spin_values)

# A time cap, not a memory cap.  One Chebyshev proposal step (fully
# connected glass, 4 chains, median of 5 draws, one BLAS thread on a 2-core
# x86-64 host) takes 23 / 121 / 514 / 2,403 / 17,812 ms at L = 10 / 12 /
# 14 / 16 / 18, with 1.2 / 2.9 / 8.4 / 32 / 130 MiB above the start.
MAX_EXACT_QUBITS = 12
MAX_TROTTER_QUBITS = 20
MAX_MATRIX_QUBITS = 10

REDUCIBLE_DELTA = 1e-14

# The exact proposal switches from dense eigh to the Chebyshev series here.
CHEBYSHEV_MIN_QUBITS = 9
# Series terms with |J_k(r t)| below this are dropped; each term's
# Chebyshev vector has norm at most 1, so this bounds the truncation error.
CHEBYSHEV_TOL = 1e-15


@dataclass(frozen=True)
class ClassicalSpinModel:
    """Pairwise spin cost V(x) = -sum_{i<j} J_ij s_i s_j - sum_i h_i s_i."""

    L: int
    couplings: np.ndarray
    fields: np.ndarray
    topology: str = "custom"

    def __post_init__(self):
        j = np.asarray(self.couplings, dtype=float)
        h = np.asarray(self.fields, dtype=float)
        if j.shape != (self.L, self.L):
            raise ValueError(f"couplings must be {self.L}x{self.L}")
        if h.shape != (self.L,):
            raise ValueError(f"fields must have length {self.L}")
        for name, a in (("couplings", j), ("fields", h)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
        # |V| <= 0.5 sum|J| + sum|h|, but energy_table sums s J s before
        # halving it, so the whole sum |J| must stay finite
        with np.errstate(over="ignore"):
            bound = np.abs(j).sum() + np.abs(h).sum()
        if not np.isfinite(bound):
            raise ValueError("couplings and fields overflow the energies: "
                             "sum |J| + sum |h| is not finite")
        if not np.allclose(j, j.T, atol=1e-12):
            raise ValueError("couplings must be symmetric")
        if np.any(np.abs(np.diag(j)) > 1e-12):
            raise ValueError("couplings must have zero diagonal")
        j = j.copy()
        h = h.copy()
        j.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "couplings", j)
        object.__setattr__(self, "fields", h)

    def mean_abs_coupling(self) -> float:
        iu = np.triu_indices(self.L, 1)
        vals = np.abs(self.couplings[iu])
        nz = vals[vals > 0]
        return float(nz.mean()) if nz.size else 1.0


def ferromagnetic_chain(L: int, J: float = 1.0,
                        periodic: bool = True) -> ClassicalSpinModel:
    j = np.zeros((L, L))
    for k in range(L - 1):
        j[k, k + 1] = j[k + 1, k] = J
    if periodic and L > 2:
        j[0, L - 1] = j[L - 1, 0] = J
    return ClassicalSpinModel(L, j, np.zeros(L), topology="chain")


def spin_glass_instance(L: int, rng: np.random.Generator,
                        topology: str = "fully-connected"
                        ) -> ClassicalSpinModel:
    """Random instance with standard-normal couplings on the topology."""
    j = np.zeros((L, L))
    if topology == "fully-connected":
        iu = np.triu_indices(L, 1)
        j[iu] = rng.normal(size=len(iu[0]))
        j = j + j.T
    elif topology == "chain":
        for k in range(L):
            nxt = (k + 1) % L
            if nxt != k:
                v = rng.normal()
                j[k, nxt] += v
                j[nxt, k] += v
    else:
        raise ValueError(f"unknown topology {topology!r}")
    return ClassicalSpinModel(L, j, np.zeros(L), topology=topology)


def save_instance(model: ClassicalSpinModel, path,
                  seed: int | None = None) -> None:
    """Write an instance file: {L, topology, couplings, fields, seed}."""
    payload = {
        "L": model.L,
        "topology": model.topology,
        "couplings": model.couplings.tolist(),
        "fields": model.fields.tolist(),
        "seed": seed,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_instance(path) -> ClassicalSpinModel:
    d = json.loads(Path(path).read_text())
    if not isinstance(d, dict):
        raise ValueError(f"instance file {path} must hold a JSON object")
    missing = [k for k in ("L", "couplings", "fields") if k not in d]
    if missing:
        raise ValueError(f"instance file {path} lacks field(s) "
                         f"{', '.join(missing)}")
    L = _positive_int(d, "L")
    topology = d.get("topology", "custom")
    if not isinstance(topology, str):
        raise ValueError(f"instance field 'topology' must be a string, "
                         f"got {topology!r}")
    return ClassicalSpinModel(
        L=L, couplings=_number_array(d["couplings"], "couplings", (L, L)),
        fields=_number_array(d["fields"], "fields", (L,)), topology=topology)


def energy(model: ClassicalSpinModel, x: SpinConfiguration) -> float:
    s = np.asarray(x.spins, dtype=float)
    return float(-0.5 * s @ model.couplings @ s - model.fields @ s)


def energy_table(model: ClassicalSpinModel) -> np.ndarray:
    """V(x) over all 2^L basis indices."""
    if model.L > MAX_TROTTER_QUBITS:
        raise CapacityError(f"energy table capped at {MAX_TROTTER_QUBITS} sites")
    s = all_spin_values(model.L).astype(float)
    return -0.5 * np.einsum("xi,ij,xj->x", s, model.couplings, s) \
        - s @ model.fields


def magnetization_table(L: int) -> np.ndarray:
    return all_spin_values(L).sum(axis=1).astype(float)


def boltzmann_distribution(model: ClassicalSpinModel,
                           beta: float) -> np.ndarray:
    _check_finite(beta=beta)
    v = energy_table(model)
    # shift so the largest weight is exp(0) = 1: the lowest energy for
    # beta >= 0, the highest below; a product past the float range is an
    # exact zero weight, exp(-inf)
    with np.errstate(over="ignore"):
        w = np.exp(-beta * (v - (v.min() if beta >= 0 else v.max())))
    return w / w.sum()


# ---------------------------------------------------------------------------
# Quantum proposal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumProposalConfig:
    """Randomization ranges for the proposal Hamiltonian diag(V) + G sum X.

    mix_single_flip optionally replaces each quantum move by a uniform-site
    single flip with that probability, guaranteeing irreducibility without
    touching the symmetry of the marginal proposal.  Off by default.
    """

    gamma_range: tuple[float, float]
    time_range: tuple[float, float] = (2.0, 20.0)
    evolution: str = "exact"
    trotter_steps: int = 16
    mix_single_flip: float = 0.0

    def __post_init__(self):
        g0, g1 = self.gamma_range
        t0, t1 = self.time_range
        _check_finite(gamma_range=self.gamma_range, time_range=self.time_range)
        if g0 <= 0 or t0 <= 0:
            raise ValueError("ranges must start above zero")
        if g1 < g0 or t1 < t0:
            raise ValueError("ranges must be ordered")
        if self.evolution not in ("exact", "trotter"):
            raise ValueError(f"unknown evolution {self.evolution!r}")
        if not 0.0 <= self.mix_single_flip < 1.0:
            raise ValueError("mix_single_flip must lie in [0, 1)")
        _check_counts(1, trotter_steps=self.trotter_steps)

    @classmethod
    def for_model(cls, model: ClassicalSpinModel) -> "QuantumProposalConfig":
        scale = model.mean_abs_coupling()
        return cls(gamma_range=(0.1 * scale, 0.6 * scale))

    def draw(self, rng: np.random.Generator) -> tuple[float, float]:
        t = rng.uniform(*self.time_range)
        g = rng.uniform(*self.gamma_range)
        return t, g


def _x_sum_matrix(L: int) -> np.ndarray:
    dim = 2 ** L
    m = np.zeros((dim, dim))
    idx = np.arange(dim)
    for k in range(L):
        m[idx, idx ^ (1 << k)] = 1.0
    return m


def _eigh_columns(ham: np.ndarray, t: float, rows: np.ndarray) -> np.ndarray:
    """exp(-i H t)|x_r> for each row index r by eigh of the real symmetric
    ham, or of each matrix in a stack of them; (..., dim, rows.size)."""
    vals, vecs = np.linalg.eigh(ham)
    phases = np.exp(-1j * vals * t)
    # vecs is real orthogonal, so <x|vecs> is just a row slice
    return vecs @ (phases[..., :, None]
                   * np.swapaxes(vecs[..., rows, :], -1, -2))


def _evolved_columns(v_table: np.ndarray, gamma: float, t: float,
                     start: np.ndarray) -> np.ndarray:
    """exp(-i H t)|x_c> for each start index by dense eigh; (dim, n_chains)."""
    L = v_table.size.bit_length() - 1
    return _eigh_columns(np.diag(v_table) + gamma * _x_sum_matrix(L), t, start)


def _sector_columns(v_table: np.ndarray, gamma: float, t: float,
                    start: np.ndarray) -> np.ndarray:
    """_evolved_columns for a flip-symmetric V, by one eigh per flip sector.

    With V(x) = V(~x), H commutes with the global flip and splits on
    |r,+-> = (|r> +- |~r>)/sqrt2, r < half, into the real blocks
    diag(V[:half]) + gamma sum_{k<L-1} X_k +- gamma X_all, where X_all
    maps r to r ^ (half - 1) (the top-bit flip seen from the sector).
    """
    L = v_table.size.bit_length() - 1
    dim = v_table.size
    half = dim // 2
    base = np.diag(v_table[:half]) + gamma * _x_sum_matrix(L - 1)
    blocks = np.stack([base, base])
    r = np.arange(half)
    blocks[0, r, r ^ (half - 1)] += gamma
    blocks[1, r, r ^ (half - 1)] -= gamma
    # |x> = (|r,+> +- |r,->)/sqrt2, with - when x is the flip ~r of r < half
    upper = start >= half
    ab = _eigh_columns(blocks, t, np.where(upper, start ^ (dim - 1), start))
    a, b = ab[0], np.where(upper, -ab[1], ab[1])
    out = np.empty((dim, start.size), dtype=complex)
    out[:half] = (a + b) / 2
    # row dim-1-r holds ~r
    out[half:] = ((a - b) / 2)[::-1]
    return out


def _chebyshev_columns(v_table: np.ndarray, gamma: float, t: float,
                       start: np.ndarray) -> np.ndarray:
    """exp(-i H t)|x_c> for each start index by a Chebyshev series.

    With H = c + r H~ on the Gershgorin interval [min V - gamma L,
    max V + gamma L], exp(-iHt) = exp(-ict) sum_k (2 - delta_k0) (-i)^k
    J_k(rt) T_k(H~).  H is real and each start is a basis vector, so every
    T_k(H~)|x> is real: even k feed the real part, odd k the imaginary part.
    H~ acts on all chains' columns at once by the compiled _native.x_sum.
    """
    L = v_table.size.bit_length() - 1
    dim = v_table.size
    n = start.size
    lo = v_table.min() - gamma * L
    hi = v_table.max() + gamma * L
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x0 = np.zeros((dim, n))
    x0[start, np.arange(n)] = 1.0
    phase = np.exp(-1j * c * t)
    # J_k(x) falls below 1e-15 within about 7 x^(1/3) orders past k = x
    k = np.arange(int(r * t + 10.0 * np.cbrt(r * t)) + 64)
    bessel = jv(k, r * t)
    n_terms = np.flatnonzero(np.abs(bessel) >= CHEBYSHEV_TOL)[-1] + 1
    if n_terms < 2:
        # r t is so small (or H = c exactly) that J_0 = 1 to double precision
        return phase * x0
    # (2 - delta_k0) J_k times the real or imaginary part of (-i)^k
    sign = np.array([1.0, -1.0, -1.0, 1.0])[k[:n_terms] % 4]
    weights = 2.0 * sign * bessel[:n_terms]
    weights[0] = bessel[0]
    diag = ((v_table - c) / r)[:, None]

    def h_tilde(x):
        return diag * x + (gamma / r) * _native.x_sum(x, L)

    prev, cur = x0, h_tilde(x0)
    re = weights[0] * prev
    im = weights[1] * cur
    for j in range(2, n_terms):
        nxt = 2.0 * h_tilde(cur)
        nxt -= prev
        acc = re if j % 2 == 0 else im
        acc += weights[j] * nxt
        prev, cur = cur, nxt
    return phase * (re + 1j * im)


def _trotter_columns(v_table: np.ndarray, gamma: float, t: float,
                     start: np.ndarray, steps: int) -> np.ndarray:
    L = v_table.size.bit_length() - 1
    dim = v_table.size
    amps = np.zeros((dim, start.size), dtype=complex)
    amps[start, np.arange(start.size)] = 1.0
    dt = t / steps
    dphase = np.exp(-1j * dt * v_table)[:, None]
    gates = _x_gate(gamma * dt)[None].repeat(L, axis=0)
    for _ in range(steps):
        amps *= dphase
        _native.rotate(amps, start.size, range(L), gates)
    return amps


def _start_columns(v_table: np.ndarray, cfg: QuantumProposalConfig,
                   gamma: float, t: float, start: np.ndarray) -> np.ndarray:
    """exp(-i H t)|x_c> for each start index by the config's Trotter steps,
    else the flip sectors when V(x) = V(~x), else one dense eigh."""
    if cfg.evolution == "trotter":
        return _trotter_columns(v_table, gamma, t, start, cfg.trotter_steps)
    # index dim-1-x is ~x: V is flip-symmetric (zero fields)
    if np.array_equal(v_table, v_table[::-1]):
        return _sector_columns(v_table, gamma, t, start)
    return _evolved_columns(v_table, gamma, t, start)


def _quantum_step(v_table: np.ndarray, cfg: QuantumProposalConfig,
                  idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Propose new indices for every chain with one shared (t, gamma) draw."""
    t, g = cfg.draw(rng)
    L = v_table.size.bit_length() - 1
    cap = MAX_EXACT_QUBITS if cfg.evolution == "exact" else MAX_TROTTER_QUBITS
    if L > cap:
        raise CapacityError(f"{cfg.evolution} proposal capped at {cap} sites")
    if cfg.evolution == "exact" and L >= CHEBYSHEV_MIN_QUBITS:
        cols = _chebyshev_columns(v_table, g, t, idx)
    else:
        cols = _start_columns(v_table, cfg, g, t, idx)
    u = rng.random(idx.size)
    out = np.array([_inverse_cdf(_normalized_cdf(p), None, x)
                    for p, x in zip((np.abs(cols) ** 2).T, u)])
    if cfg.mix_single_flip > 0.0:
        take_flip = rng.random(idx.size) < cfg.mix_single_flip
        flips = idx ^ _native.flip_draw(rng, L, idx.size)(1, idx)[0]
        out = np.where(take_flip, flips, out)
    return out


def propose_quantum(model: ClassicalSpinModel, x: SpinConfiguration,
                    cfg: QuantumProposalConfig,
                    rng: np.random.Generator) -> SpinConfiguration:
    """Evolve |x> under diag(V) + gamma sum X for a random time and measure."""
    v = energy_table(model)
    new = _quantum_step(v, cfg, np.array([x.to_index()]), rng)
    return SpinConfiguration.from_index(int(new[0]), model.L)


def accept(model: ClassicalSpinModel, x: SpinConfiguration,
           x_new: SpinConfiguration, beta: float,
           rng: np.random.Generator) -> bool:
    dv = energy(model, x_new) - energy(model, x)
    if dv <= 0:
        return True
    return rng.random() < np.exp(-beta * dv)


# ---------------------------------------------------------------------------
# Chain driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainDiagnostics:
    acceptance_rate: float
    tau_energy: float

    def __post_init__(self):
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")


def _check_counts(minimum: int, **counts) -> None:
    """Raise a ValueError naming the first count below minimum."""
    for name, value in counts.items():
        if value < minimum:
            raise ValueError(f"{name} must be at least {minimum}, "
                             f"got {value!r}")


def _check_finite(**values) -> None:
    """Raise a ValueError naming the first value that is not all finite."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _metropolis(table: np.ndarray, scale: float, initial, n_chains: int,
                steps: int, burn_in: int, thinning: int,
                rng: np.random.Generator, draw, block: int,
                flip: bool) -> tuple[np.ndarray, int]:
    """Metropolis chains on a precomputed table; (records, accepted moves).

    Every ``block`` steps, draw(n, idx) returns the next n rows of moves for
    the current states idx: XOR masks with ``flip``, else proposed states;
    the block's uniforms are drawn right after it, and _native.metropolis
    runs the block.  Without ``initial`` each chain starts at a random
    index, redrawn while the table is infinite there (a zero weight).
    """
    dim = table.size
    if initial is None:
        idx = rng.integers(0, dim, size=n_chains)
        while np.any(np.isinf(table[idx])):
            bad = np.isinf(table[idx])
            idx[bad] = rng.integers(0, dim, size=int(bad.sum()))
    else:
        idx = np.asarray(initial)
        if (idx.shape != (n_chains,)
                or not np.issubdtype(idx.dtype, np.integer)
                or np.any((idx < 0) | (idx >= dim))):
            raise ValueError(f"initial must hold {n_chains} integer basis "
                             f"indices in [0, {dim}), got {initial!r}")
        idx = idx.astype(np.int64)
    records = np.empty((n_chains, (steps - burn_in) // thinning),
                       dtype=np.int64)
    accepted = 0
    u = np.empty((min(block, steps), n_chains))
    for done in range(0, steps, block):
        n = min(block, steps - done)
        moves = draw(n, idx)
        logu = rng.random(out=u[:n])
        np.log(logu, out=logu)
        accepted += _native.metropolis(table, scale, moves, logu, flip, idx,
                                       records, done, burn_in, thinning)
    return records, accepted


def run_chain(model: ClassicalSpinModel, proposal, beta: float, steps: int,
              rng: np.random.Generator, n_chains: int = 1,
              record_every: int = 1,
              initial: np.ndarray | None = None
              ) -> tuple[np.ndarray, ChainDiagnostics]:
    """Metropolis chains; returns recorded basis indices and diagnostics.

    ``proposal`` is "single-flip", "uniform", or a QuantumProposalConfig.
    Every chain advances one proposal per step; the state is recorded every
    record_every steps.  Samples have shape (steps // record_every,) for a
    single chain, else (n_chains, steps // record_every).  The quantum
    proposal shares its per-step (t, gamma) draw across chains.  initial,
    if given, holds one start index in [0, 2^L) per chain.
    """
    L = model.L
    v = energy_table(model)
    quantum = isinstance(proposal, QuantumProposalConfig)
    if not quantum and proposal not in ("single-flip", "uniform"):
        raise ValueError(f"unknown proposal {proposal!r}")
    _check_counts(1, steps=steps, n_chains=n_chains, record_every=record_every)
    _check_finite(beta=beta)
    if record_every > steps:
        raise ValueError(f"record_every must be at most steps = {steps}, "
                         f"got {record_every!r}")
    flip = proposal == "single-flip"
    if flip:
        draw = _native.flip_draw(rng, L, n_chains)
    else:
        def draw(n, idx):
            if quantum:
                return _quantum_step(v, proposal, idx, rng)[None]
            return rng.integers(0, 2 ** L, size=(n, n_chains))

    records, accepted = _metropolis(v, -beta, initial, n_chains, steps, 0,
                                    record_every, rng, draw,
                                    1 if quantum else 8192, flip=flip)
    energies = v[records]
    tau = autocorrelation_time_pooled(energies)
    diag = ChainDiagnostics(acceptance_rate=accepted / (steps * n_chains),
                            tau_energy=tau)
    if n_chains == 1:
        return records[0], diag
    return records, diag


# ---------------------------------------------------------------------------
# Exact transition-matrix analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionMatrix:
    """A proposal and, once assembled, its kernel and the pi it is
    reversible with respect to."""

    proposal: np.ndarray
    kernel: np.ndarray | None = None
    stationary: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.proposal.shape[0]

    def __post_init__(self):
        t = np.asarray(self.proposal, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("proposal matrix must be square")
        if not np.all(np.isfinite(t)):
            raise ValueError("proposal entries must be finite")
        if np.any(t < -1e-12):
            raise ValueError("proposal entries must be nonnegative")
        if np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-10:
            raise ValueError("proposal rows must sum to 1")
        object.__setattr__(self, "proposal", t)
        if self.kernel is not None:
            p = np.asarray(self.kernel, dtype=float)
            if p.shape != t.shape or not np.all(np.isfinite(p)):
                raise ValueError(f"kernel must be finite and of the "
                                 f"proposal's shape {t.shape}, got {p.shape}")
            object.__setattr__(self, "kernel", p)
        if self.stationary is not None:
            pi = np.asarray(self.stationary, dtype=float)
            if (pi.shape != t.shape[:1] or not np.all(np.isfinite(pi))
                    or np.any(pi < 0)):
                raise ValueError(f"stationary must be finite, nonnegative "
                                 f"and of shape {t.shape[:1]}, got {pi.shape}")
            object.__setattr__(self, "stationary", pi)


def build_proposal_matrix(model: ClassicalSpinModel,
                          cfg: QuantumProposalConfig, K: int,
                          rng: np.random.Generator) -> TransitionMatrix:
    """Marginal proposal T(x,x') = (1/K) sum_k |<x'|exp(-i H_k t_k)|x>|^2.

    Uses K fixed draws of (t, gamma) so T is a definite matrix.  T is
    symmetric because H is real symmetric, and is returned as (T + T^T) / 2
    so that it is so to the last bit.  Draws evolve by ``_start_columns``,
    which at L = 9 and 10 is the eigh where the exact chain step takes the
    Chebyshev series; a flip-symmetric V evolves only the x < 2^(L-1).
    """
    _check_counts(1, K=K)
    if model.L > MAX_MATRIX_QUBITS:
        raise CapacityError(
            f"proposal matrix capped at {MAX_MATRIX_QUBITS} sites")
    v = energy_table(model)
    dim = v.size
    # index dim-1-x is ~x: V is flip-symmetric (zero fields)
    flip = np.array_equal(v, v[::-1])
    start = np.arange(dim // 2 if flip else dim)
    t_mat = np.zeros((dim, start.size))
    for _ in range(K):
        t, g = cfg.draw(rng)
        # w stays bound into the next draw: freeing every large array at
        # once lets malloc trim the heap, and re-faulting those pages on
        # each draw cost 15% of this loop at L = 8
        w = _start_columns(v, cfg, g, t, start)
        t_mat += np.abs(w) ** 2
    if flip:
        # column ~x is column x bottom-up: every propagator keeps flip symmetry
        t_mat = np.concatenate([t_mat, t_mat[::-1, ::-1]], axis=1)
    t_mat /= K
    if cfg.mix_single_flip > 0.0:
        p = cfg.mix_single_flip
        t_mat = (1.0 - p) * t_mat + p * single_flip_matrix(model.L).proposal
    return TransitionMatrix(proposal=(t_mat + t_mat.T) / 2)


def single_flip_matrix(L: int) -> TransitionMatrix:
    """Uniform-site single-flip proposal as an explicit matrix."""
    t = _x_sum_matrix(L)
    t /= L
    return TransitionMatrix(proposal=t)


def uniform_matrix(L: int) -> TransitionMatrix:
    dim = 2 ** L
    return TransitionMatrix(proposal=np.full((dim, dim), 1.0 / dim))


def assemble_kernel(t: TransitionMatrix, model: ClassicalSpinModel,
                    beta: float) -> TransitionMatrix:
    """Full Metropolis kernel P = T o A with rejected mass on the diagonal.

    With an exactly symmetric T, P is reversible with respect to the
    Boltzmann distribution, which is kept as ``stationary``.
    """
    _check_finite(beta=beta)
    v = energy_table(model)
    if v.size != t.dimension:
        raise ValueError("matrix size does not match the model")
    # min(0, .) inside the exp: min(1, exp(.)) overflows uphill at large
    # |beta|, where the product itself may pass the float range to -inf or
    # to +inf, which min(0, .) clips
    with np.errstate(over="ignore"):
        a = np.exp(np.minimum(0.0, -beta * (v[None, :] - v[:, None])))
    p = t.proposal * a
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    pi = (boltzmann_distribution(model, beta)
          if np.array_equal(t.proposal, t.proposal.T) else None)
    return TransitionMatrix(proposal=t.proposal, kernel=p, stationary=pi)


@dataclass(frozen=True)
class SpectralGap:
    delta: float
    reducible: bool


def spectral_gap(p: np.ndarray | TransitionMatrix) -> SpectralGap:
    """delta = 1 - |lambda_2| of a row-stochastic kernel.

    A kernel with a positive stationary pi is reversible, so its spectrum is
    that of the symmetric sqrt(pi) P / sqrt(pi), taken by eigvalsh; a raw
    array, an asymmetric proposal or a pi with an underflowed zero takes the
    nonsymmetric eigvals.  A gap at or below 1e-14 flags the chain as
    (numerically) reducible.
    """
    mat = p.kernel if isinstance(p, TransitionMatrix) else np.asarray(p)
    if mat is None:
        raise ValueError("kernel has not been assembled")
    pi = p.stationary if isinstance(p, TransitionMatrix) else None
    if pi is not None and np.all(pi > 0):
        vals = np.linalg.eigvalsh(_symmetrized(mat, pi))
    else:
        vals = np.linalg.eigvals(mat)
    mods = np.sort(np.abs(vals))[::-1]
    delta = float(1.0 - mods[1]) if mods.size > 1 else 1.0
    return SpectralGap(delta=delta, reducible=delta <= REDUCIBLE_DELTA)


def _symmetrized(p: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """sqrt(pi) P / sqrt(pi), symmetric for P reversible w.r.t. pi, with
    its rounding averaged out of the transpose pair."""
    root = np.sqrt(pi)
    sym = (root[:, None] / root[None, :]) * p
    return (sym + sym.T) / 2


def exact_autocorrelation_time(p: np.ndarray, pi: np.ndarray,
                               f: np.ndarray) -> float:
    """Integrated autocorrelation time of observable f under reversible P.

    Works through the symmetrized kernel's eigenbasis; serves as the oracle
    the sampled estimator is checked against.  pi must be positive and
    finite at every state: an underflowed zero leaves sqrt(pi) P / sqrt(pi)
    undefined.
    """
    bad = ~((pi > 0) & np.isfinite(pi))
    if np.any(bad):
        raise ValueError(f"pi must be positive and finite at every state; "
                         f"{np.count_nonzero(bad)} of {bad.size} are not")
    root = np.sqrt(pi)
    vals, vecs = np.linalg.eigh(_symmetrized(p, pi))
    g = f - pi @ f
    b = vecs.T @ (root * g)
    var = float(np.sum(b ** 2))
    if var <= 0:
        return 0.5
    keep = vals < 1.0 - 1e-12
    tau = 0.5 + float(np.sum(b[keep] ** 2 * vals[keep] / (1.0 - vals[keep]))) / var
    return tau


# ---------------------------------------------------------------------------
# Autocorrelation estimation
# ---------------------------------------------------------------------------

def autocorrelation_time(series) -> float:
    """Integrated autocorrelation time with automatic windowing.

    tau(W) = 0.5 + sum_{t<=W} rho_t, evaluated at the smallest W satisfying
    W >= 5 tau(W).  If no window closes, the value at the
    largest admissible W (half the series) is returned, which then
    underestimates the true time.  A zero-variance series returns n/2.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    return autocorrelation_time_pooled(x[None, :])


def autocorrelation_time_pooled(series: np.ndarray,
                                mean: float | None = None) -> float:
    """Pooled tau over parallel chains (rows), averaging autocovariances.

    With ``mean`` unset each chain subtracts the grand mean over all rows;
    passing a known stationary mean avoids the bias that per-chain or grand
    means introduce when chains are shorter than the correlation time.
    """
    x = np.atleast_2d(np.asarray(series, dtype=float))
    n = x.shape[1]
    if n < 2:
        return 0.5
    mu = float(x.mean()) if mean is None else float(mean)
    m = 1 << (2 * n - 1).bit_length()
    fx = np.fft.rfft(x - mu, m, axis=1)
    # the rows' autocovariances added in order from zero, fixing the rounding
    acov = sum(np.fft.irfft(fx * np.conj(fx), m, axis=1)[:, :n] / n,
               np.zeros(n)) / x.shape[0]
    if acov[0] <= 0:
        return n / 2.0
    rho = acov / acov[0]
    w_max = n // 2
    tau = 0.5
    for w in range(1, w_max + 1):
        tau += rho[w]
        if w >= 5.0 * tau:
            return max(tau, 0.5)
    return max(tau, 0.5)
