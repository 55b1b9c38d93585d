"""Quantum-enhanced MCMC for classical spin models.

Proposals come from measuring a basis state evolved under the classical
cost function plus a transverse field, with the evolution time and field
strength redrawn every step.  Because that Hamiltonian is real symmetric in
the computational basis, the marginal proposal matrix is symmetric and the
plain Metropolis acceptance makes sampling exact for any proposal quality.
Exact spectral diagnostics and classical baselines live here too.

The exact proposal evolves only the chains' start columns of exp(-iHt), by
one of three propagators that agree to about 1e-13:

- from L = 9 (CHEBYSHEV_MIN_QUBITS), the Chebyshev series of Tal-Ezer &
  Kosloff, J. Chem. Phys. 81, 3967 (1984), with sparse products only;
- below that, when V(x) = V(~x) (zero fields, as in every built-in
  instance), two eigh of size 2^(L-1), one per sector of the global flip
  (the symmetry-adapted basis of exact diagonalisation, Sandvik, AIP Conf.
  Proc. 1297, 135 (2010));
- otherwise one dense 2^L x 2^L eigh.

The crossover is where the O(8^L) eigh falls behind the O(L 2^L) per-term
cost of the series.  Milliseconds per step, dense / sector / series, 1 and
4 chains, one BLAS thread on a 2-core x86-64 host: L = 7, 2.3 / 1.3 / 5.1;
L = 8, 11-12 / 4.4-5.4 / 5.5-9.0; L = 9, 55-58 / 19-20 / 5.0-9.4.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.special import jv

from .statevector import (CapacityError, SpinConfiguration, _rotate_qubits,
                          _x_gate, all_spin_values)

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
    L = d["L"]
    if isinstance(L, bool) or not isinstance(L, int) or L < 1:
        raise ValueError(f"instance field 'L' must be a positive integer, "
                         f"got {L!r}")
    topology = d.get("topology", "custom")
    if not isinstance(topology, str):
        raise ValueError(f"instance field 'topology' must be a string, "
                         f"got {topology!r}")
    return ClassicalSpinModel(L=L,
                              couplings=_number_array(d, "couplings", (L, L)),
                              fields=_number_array(d, "fields", (L,)),
                              topology=topology)


def _number_array(d: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """d[key] as a float array of the given shape; anything but nested JSON
    lists of numbers raises a ValueError that names the field."""
    def cells(value, dims):
        if not dims:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return [value]
        elif isinstance(value, list) and len(value) == dims[0]:
            return [c for item in value for c in cells(item, dims[1:])]
        raise ValueError(f"instance field {key!r} must be a {shape} array "
                         f"of numbers")

    try:
        return np.array(cells(d[key], shape), dtype=float).reshape(shape)
    except OverflowError:
        raise ValueError(f"instance field {key!r} must be finite") from None


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
    v = energy_table(model)
    w = np.exp(-beta * (v - v.min()))
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
        if g0 <= 0 or t0 <= 0:
            raise ValueError("ranges must start above zero")
        if g1 < g0 or t1 < t0:
            raise ValueError("ranges must be ordered")
        if self.evolution not in ("exact", "trotter"):
            raise ValueError(f"unknown evolution {self.evolution!r}")
        if not 0.0 <= self.mix_single_flip < 1.0:
            raise ValueError("mix_single_flip must lie in [0, 1)")

    @classmethod
    def for_model(cls, model: ClassicalSpinModel,
                  evolution: str = "exact") -> "QuantumProposalConfig":
        scale = model.mean_abs_coupling()
        return cls(gamma_range=(0.1 * scale, 0.6 * scale),
                   time_range=(2.0, 20.0), evolution=evolution)

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


def _evolved_columns(v_table: np.ndarray, gamma: float, t: float,
                     start: np.ndarray) -> np.ndarray:
    """exp(-i H t)|x_c> for each start index by dense eigh; (dim, n_chains)."""
    L = v_table.size.bit_length() - 1
    ham = np.diag(v_table) + gamma * _x_sum_matrix(L)
    vals, vecs = np.linalg.eigh(ham)
    phases = np.exp(-1j * vals * t)
    # vecs is real orthogonal, so <x|vecs> is just a row slice
    return vecs @ (phases[:, None] * vecs[start, :].T)


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
    vals, vecs = np.linalg.eigh(blocks)
    phases = np.exp(-1j * vals * t)
    # |x> = (|r,+> +- |r,->)/sqrt2, with - when x is the flip ~r of r < half
    upper = start >= half
    rep = np.where(upper, start ^ (dim - 1), start)
    ab = vecs @ (phases[:, :, None] * vecs[:, rep, :].transpose(0, 2, 1))
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
    idx = np.arange(dim)
    cols = np.concatenate([idx[:, None], idx[:, None] ^ (1 << np.arange(L))],
                          axis=1)
    data = np.empty((dim, L + 1))
    data[:, 0] = (v_table - c) / r
    data[:, 1:] = gamma / r
    h = sparse.csr_matrix((data.ravel(), cols.ravel(),
                           np.arange(0, dim * (L + 1) + 1, L + 1)),
                          shape=(dim, dim))
    two_h = 2.0 * h
    prev, cur = x0, h @ x0
    re = weights[0] * prev
    im = weights[1] * cur
    for j in range(2, n_terms):
        nxt = two_h @ cur
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
    gate = _x_gate(gamma * dt)
    gates = [(k, gate) for k in range(L)]
    for _ in range(steps):
        amps *= dphase
        _rotate_qubits(amps, gates)
    return amps


def _sample_columns(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per column of a (dim, n) probability array."""
    cum = np.cumsum(probs, axis=0)
    cum /= cum[-1, :]
    u = rng.random(probs.shape[1])
    out = np.empty(probs.shape[1], dtype=np.int64)
    for c in range(probs.shape[1]):
        out[c] = np.searchsorted(cum[:, c], u[c], side="right")
    return out


def _quantum_step(v_table: np.ndarray, cfg: QuantumProposalConfig,
                  idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Propose new indices for every chain with one shared (t, gamma) draw."""
    t, g = cfg.draw(rng)
    L = v_table.size.bit_length() - 1
    if cfg.evolution == "exact":
        if L > MAX_EXACT_QUBITS:
            raise CapacityError(
                f"exact proposal capped at {MAX_EXACT_QUBITS} sites")
        if L >= CHEBYSHEV_MIN_QUBITS:
            evolve = _chebyshev_columns
        elif np.array_equal(v_table, v_table[::-1]):
            # index dim-1-x is ~x: V is flip-symmetric (zero fields)
            evolve = _sector_columns
        else:
            evolve = _evolved_columns
        cols = evolve(v_table, g, t, idx)
    else:
        if L > MAX_TROTTER_QUBITS:
            raise CapacityError(
                f"trotter proposal capped at {MAX_TROTTER_QUBITS} sites")
        cols = _trotter_columns(v_table, g, t, idx, cfg.trotter_steps)
    out = _sample_columns(np.abs(cols) ** 2, rng)
    if cfg.mix_single_flip > 0.0:
        take_flip = rng.random(idx.size) < cfg.mix_single_flip
        flips = idx ^ (1 << rng.integers(0, L, size=idx.size))
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
    delta: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")


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
    proposal shares its per-step (t, gamma) draw across chains.
    """
    L = model.L
    v = energy_table(model)
    if initial is None:
        idx = rng.integers(0, 2 ** L, size=n_chains)
    else:
        idx = np.array(initial, dtype=np.int64, copy=True).reshape(n_chains)
    n_rec = steps // record_every
    records = np.empty((n_chains, n_rec), dtype=np.int64)
    accepted = 0
    rec = 0
    quantum = isinstance(proposal, QuantumProposalConfig)
    if not quantum and proposal not in ("single-flip", "uniform"):
        raise ValueError(f"unknown proposal {proposal!r}")
    if quantum:
        for step in range(steps):
            prop = _quantum_step(v, proposal, idx, rng)
            logu = np.log(rng.random(n_chains))
            take = logu < -beta * (v[prop] - v[idx])
            idx = np.where(take, prop, idx)
            accepted += int(take.sum())
            if (step + 1) % record_every == 0:
                records[:, rec] = idx
                rec += 1
    else:
        block = 8192
        done = 0
        flip = proposal == "single-flip"
        while done < steps:
            n = min(block, steps - done)
            if flip:
                # only the site choices can be pre-drawn; the flip must
                # apply to the current state, not the block-start one
                bits = 1 << rng.integers(0, L, size=(n, n_chains))
            else:
                props = rng.integers(0, 2 ** L, size=(n, n_chains))
            logu = np.log(rng.random(size=(n, n_chains)))
            for t in range(n):
                prop = idx ^ bits[t] if flip else props[t]
                take = logu[t] < -beta * (v[prop] - v[idx])
                idx = np.where(take, prop, idx)
                accepted += int(take.sum())
                step = done + t + 1
                if step % record_every == 0:
                    records[:, rec] = idx
                    rec += 1
            done += n
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
    proposal: np.ndarray
    kernel: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.proposal.shape[0]

    def __post_init__(self):
        t = np.asarray(self.proposal, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("proposal matrix must be square")
        if np.any(t < -1e-12):
            raise ValueError("proposal entries must be nonnegative")
        if np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-10:
            raise ValueError("proposal rows must sum to 1")
        object.__setattr__(self, "proposal", t)


def build_proposal_matrix(model: ClassicalSpinModel,
                          cfg: QuantumProposalConfig, K: int,
                          rng: np.random.Generator) -> TransitionMatrix:
    """Marginal proposal T(x,x') = (1/K) sum_k |<x'|exp(-i H_k t_k)|x>|^2.

    Uses K fixed draws of (t, gamma) so T is a definite matrix; symmetry is
    inherited from the real-symmetric Hamiltonian.
    """
    if model.L > MAX_MATRIX_QUBITS:
        raise CapacityError(
            f"proposal matrix capped at {MAX_MATRIX_QUBITS} sites")
    v = energy_table(model)
    dim = v.size
    t_mat = np.zeros((dim, dim))
    for _ in range(K):
        t, g = cfg.draw(rng)
        # w stays bound into the next draw: freeing every large array at
        # once lets malloc trim the heap, and re-faulting those pages on
        # each draw cost 15% of this loop at L = 8
        w = _evolved_columns(v, g, t, np.arange(dim))
        t_mat += np.abs(w) ** 2
    t_mat /= K
    if cfg.mix_single_flip > 0.0:
        p = cfg.mix_single_flip
        t_mat = (1.0 - p) * t_mat + p * single_flip_matrix(model.L).proposal
    return TransitionMatrix(proposal=t_mat)


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
    """Full Metropolis kernel P = T o A with rejected mass on the diagonal."""
    v = energy_table(model)
    if v.size != t.dimension:
        raise ValueError("matrix size does not match the model")
    a = np.minimum(1.0, np.exp(-beta * (v[None, :] - v[:, None])))
    p = t.proposal * a
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return TransitionMatrix(proposal=t.proposal, kernel=p)


@dataclass(frozen=True)
class SpectralGap:
    delta: float
    reducible: bool


def spectral_gap(p: np.ndarray | TransitionMatrix) -> SpectralGap:
    """delta = 1 - |lambda_2| of a row-stochastic kernel.

    A gap at or below 1e-14 flags the chain as (numerically) reducible.
    """
    mat = p.kernel if isinstance(p, TransitionMatrix) else np.asarray(p)
    if mat is None:
        raise ValueError("kernel has not been assembled")
    mods = np.sort(np.abs(np.linalg.eigvals(mat)))[::-1]
    delta = float(1.0 - mods[1]) if mods.size > 1 else 1.0
    return SpectralGap(delta=delta, reducible=delta <= REDUCIBLE_DELTA)


def exact_autocorrelation_time(p: np.ndarray, pi: np.ndarray,
                               f: np.ndarray) -> float:
    """Integrated autocorrelation time of observable f under reversible P.

    Works through the symmetrized kernel's eigenbasis; serves as the oracle
    the sampled estimator is checked against.
    """
    root = np.sqrt(pi)
    sym = (root[:, None] / root[None, :]) * p
    vals, vecs = np.linalg.eigh((sym + sym.T) / 2)
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

def _autocovariance(series: np.ndarray, mean: float) -> np.ndarray:
    x = np.asarray(series, dtype=float) - mean
    n = x.size
    m = 1 << (2 * n - 1).bit_length()
    fx = np.fft.rfft(x, m)
    acov = np.fft.irfft(fx * np.conj(fx), m)[:n].real
    return acov / n


def autocorrelation_time(series, mean: float | None = None,
                         window_factor: float = 5.0) -> float:
    """Integrated autocorrelation time with automatic windowing.

    tau(W) = 0.5 + sum_{t<=W} rho_t, evaluated at the smallest W satisfying
    W >= window_factor * tau(W).  If no window closes, the value at the
    largest admissible W (half the series) is returned, which then
    underestimates the true time.  A zero-variance series returns n/2.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    return autocorrelation_time_pooled(x[None, :], mean=mean,
                                       window_factor=window_factor)


def autocorrelation_time_pooled(series: np.ndarray,
                                mean: float | None = None,
                                window_factor: float = 5.0) -> float:
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
    acov = np.zeros(n)
    for row in x:
        acov += _autocovariance(row, mu)
    acov /= x.shape[0]
    if acov[0] <= 0:
        return n / 2.0
    rho = acov / acov[0]
    w_max = n // 2
    tau = 0.5
    for w in range(1, w_max + 1):
        tau += rho[w]
        if w >= window_factor * tau:
            return max(tau, 0.5)
    return max(tau, 0.5)
