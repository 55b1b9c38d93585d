"""Pinned bytes of the statevector kernels and their callers.

The digests below are sha256 prefixes of raw ``tobytes()`` output, recorded
from the 8-op rotation loop and the 2-add X sum that are kept here as
``_rotate_qubits_ref`` and ``_x_sum_ref``; the compiled rotation, on X
rotations, the Hadamard and the Y-basis map, and the compiled X sum are
held to those two bit for bit, on signed zeros, infinities and nan too (the
rotation's nan signs aside).  A fully complex gate, which numpy may fuse
into a multiply-add, is held instead to ``_rotate_float_ref``, the kernel's
own unfused order in Python floats.  The digests cover the HVA gradient,
``prepare``, ``sr_matrix``, ``apply_exp_x``, ``rotate_to_basis``, Trotter
evolution, the Trotter proposal columns, the VMC local-energy table, the
grouped shot-noise estimator, ``diagonal_values``, ``PauliSum.dense`` on a
sum with Y letters, both SR ridge solves (``natural_gradient_step`` and
``vmc._sr_update``), the TFIM ZZ table, the two eigh propagators of the
quantum proposal, the pooled autocorrelation time, the Jastrow amplitude
table and the qubit-wise measurement groups, over L = 1, 2, 5, 8, 10 and
three (J, Gamma, periodic) models; the eigh propagators stop at L = 5 and
are held bitwise to ``_evolved_columns_ref`` and ``_sector_columns_ref``,
their bodies before they shared one eigh core, at L = 2..8.  The Chebyshev
series is held within 2e-14 of ``_chebyshev_columns_ref``, its body when
each step built a CSR matrix, at L = 9..11.
``PROPOSAL_DIGESTS`` pins the quantum proposal's draws on each of its four
propagators, and ``_sample_columns_ref`` keeps the per-column inverse-CDF
sampler that the proposal once had, as the reference for its draw.
``EXACT_DIGESTS`` pins the exact-kernel layer on spin glasses at L = 2..5:
``spectral_gap`` on each input that keeps the nonsymmetric ``eigvals``,
``exact_autocorrelation_time`` and the dense ``build_proposal_matrix``.
``SAMPLING_DIGESTS`` pins ``run_sr_optimization`` and the grouped estimator
with one generator listed five times, recorded before either built its
per-state tables once; the estimator's were re-recorded when it came to
draw outcome counts from 2^L shots on.  The
layer-by-layer references in ``test_vqe.py`` call
``apply_exp_x`` and so run the kernel under test; these digests do not, so
a change that moves one bit of any rotation shows here.  Run this file as a
script to print the digests of the code as it stands.
"""

import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.special import jv

from spinlab import _native, qemcmc
from spinlab.pauli import (FermionHamiltonian, PauliString, PauliSum,
                           group_qubitwise, map_fermionic)
from spinlab.qemcmc import (CHEBYSHEV_TOL, ClassicalSpinModel,
                            QuantumProposalConfig, TransitionMatrix,
                            _chebyshev_columns, _evolved_columns,
                            _quantum_step, _sector_columns, _trotter_columns,
                            _x_sum_matrix, assemble_kernel,
                            autocorrelation_time_pooled,
                            boltzmann_distribution, build_proposal_matrix,
                            energy_table, exact_autocorrelation_time,
                            ferromagnetic_chain, magnetization_table,
                            single_flip_matrix, spectral_gap,
                            spin_glass_instance, uniform_matrix)
from spinlab.statevector import (_BASIS_ROT, StateVector, TFIMModel,
                                 _x_gate, apply_exp_x, diagonal_values,
                                 evolve, rotate_to_basis)
from spinlab.vmc import (AmplitudeTableAnsatz, JastrowAnsatz, _sr_update,
                         local_energy_table, run_sr_optimization)
from spinlab.vqe import (HVAnsatz, ShotPlan, energy_and_gradient,
                         estimate_energy_pauli, estimate_energy_pauli_batch,
                         natural_gradient_step, prepare, sr_matrix)

SIZES = (1, 2, 5, 8, 10)
MODELS = ((1.0, 1.0, True), (0.8, 1.3, True), (-0.6, 0.4, False))


def _rotate_qubits_ref(amps, gates):
    """The general two-product, two-sum form of one 2x2 gate per qubit."""
    for k, g in gates:
        view = amps.reshape(amps.shape[0] >> (k + 1), 2, -1)
        v0, v1 = view[:, 0], view[:, 1]
        top = g[0, 0] * v0 + g[0, 1] * v1
        view[:, 1] = g[1, 0] * v0 + g[1, 1] * v1
        view[:, 0] = top


def _rotate_pairs(amps, gates):
    """(qubit, 2x2 gate) pairs in one ``_native.rotate`` call: unit 1 for a
    vector or a flat stack of rows, m for a (2^n, m) block of columns."""
    _native.rotate(amps, amps.size // amps.shape[0], [k for k, _ in gates],
                   [g for _, g in gates])


def _rotate_float_ref(amps, gates):
    """(qubit, 2x2 gate) pairs in Python floats, in the compiled kernel's
    order: v, w become (g00 v) + (g01 w), (g10 v) + (g11 w), each product
    of a gate entry g and an amplitude z as (gr zr - gi zi, gr zi + gi zr),
    with no fused multiply-add."""
    unit = amps.size // amps.shape[0]
    re, im = amps.real.reshape(-1).tolist(), amps.imag.reshape(-1).tolist()
    for k, g in gates:
        (ar, ai), (br, bi), (cr, ci), (dr, di) = [
            (z.real, z.imag) for z in g.reshape(-1).tolist()]
        step = unit << k
        for base in range(0, len(re), 2 * step):
            for j in range(base, base + step):
                vr, vi, wr, wi = re[j], im[j], re[j + step], im[j + step]
                re[j] = (ar * vr - ai * vi) + (br * wr - bi * wi)
                im[j] = (ar * vi + ai * vr) + (br * wi + bi * wr)
                re[j + step] = (cr * vr - ci * vi) + (dr * wr - di * wi)
                im[j + step] = (cr * vi + ci * vr) + (dr * wi + di * wr)
    out = np.empty(amps.shape, dtype=complex)
    out.real = np.reshape(re, amps.shape)
    out.imag = np.reshape(im, amps.shape)
    return out


def _x_sum_ref(amps, n):
    out = np.zeros_like(amps)
    for k in range(n):
        t = amps.reshape(2 ** (n - 1 - k), 2, -1)
        o = out.reshape(2 ** (n - 1 - k), 2, -1)
        o[:, 0] += t[:, 1]
        o[:, 1] += t[:, 0]
    return out


def _x_sum_float_ref(amps, n):
    """sum_k X_k in Python floats, in the compiled kernel's order: each part
    of each entry starts at 0.0 and adds its partners for k ascending.  A
    Python float add is one scalar IEEE add, so unlike numpy's reduction
    kernels it keeps a nan's sign the same on every CPU feature level."""
    parts = amps.view(np.float64).reshape(2 ** n, -1).tolist()
    out = []
    for i in range(2 ** n):
        for p in range(len(parts[i])):
            acc = 0.0
            for k in range(n):
                acc += parts[i ^ (1 << k)][p]
            out.append(acc)
    return np.array(out).view(amps.dtype)


def _evolved_columns_ref(v_table, gamma, t, start):
    """The dense propagator as written before its eigh core was shared."""
    L = v_table.size.bit_length() - 1
    ham = np.diag(v_table) + gamma * _x_sum_matrix(L)
    vals, vecs = np.linalg.eigh(ham)
    phases = np.exp(-1j * vals * t)
    return vecs @ (phases[:, None] * vecs[start, :].T)


def _chebyshev_columns_ref(v_table, gamma, t, start):
    """The Chebyshev propagator as written when each step built H~ as a CSR
    matrix: the diagonal, then the flips with k ascending, in each row."""
    L = v_table.size.bit_length() - 1
    dim = v_table.size
    n = start.size
    lo = v_table.min() - gamma * L
    hi = v_table.max() + gamma * L
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x0 = np.zeros((dim, n))
    x0[start, np.arange(n)] = 1.0
    phase = np.exp(-1j * c * t)
    k = np.arange(int(r * t + 10.0 * np.cbrt(r * t)) + 64)
    bessel = jv(k, r * t)
    n_terms = np.flatnonzero(np.abs(bessel) >= CHEBYSHEV_TOL)[-1] + 1
    if n_terms < 2:
        return phase * x0
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


def _sector_columns_ref(v_table, gamma, t, start):
    """The flip-sector propagator as written before its eigh core was
    shared."""
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
    upper = start >= half
    rep = np.where(upper, start ^ (dim - 1), start)
    ab = vecs @ (phases[:, :, None] * vecs[:, rep, :].transpose(0, 2, 1))
    a, b = ab[0], np.where(upper, -ab[1], ab[1])
    out = np.empty((dim, start.size), dtype=complex)
    out[:half] = (a + b) / 2
    out[half:] = ((a - b) / 2)[::-1]
    return out


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _state(L: int) -> StateVector:
    rng = np.random.default_rng(1000 + L)
    amps = rng.normal(size=2 ** L) + 1j * rng.normal(size=2 ** L)
    return StateVector(amps / np.linalg.norm(amps))


def _ansatz(model: TFIMModel) -> HVAnsatz:
    rng = np.random.default_rng(model.L)
    return HVAnsatz(model, 3, tuple(rng.uniform(-1.5, 1.5, 6)))


def _sample_columns_ref(probs, rng):
    """One categorical draw per column of a (dim, n) probability array."""
    cum = np.cumsum(probs, axis=0)
    cum /= cum[-1, :]
    u = rng.random(probs.shape[1])
    out = np.empty(probs.shape[1], dtype=np.int64)
    for c in range(probs.shape[1]):
        out[c] = np.searchsorted(cum[:, c], u[c], side="right")
    return out


def _mixed_sum(L: int, letters: str = "IXYZ", seed: int = 2000) -> PauliSum:
    """A Hermitian sum over X, Y and Z strings, so Y-basis groups occur."""
    rng = np.random.default_rng(seed + L)
    terms = [(complex(rng.normal()), PauliString(
        "".join(rng.choice(list(letters), size=L)))) for _ in range(3 * L)]
    return PauliSum.from_terms(L, terms)


def _energy_and_gradient(model):
    energy, grad = energy_and_gradient(_ansatz(model), model.as_pauli_sum())
    return np.array([energy]), grad


def _prepare(model):
    return (prepare(_ansatz(model)).amplitudes,)


def _sr_matrix(model):
    a = _ansatz(model)
    return sr_matrix(a).entries, sr_matrix(a, block_size=2).entries


def _apply_exp_x(model):
    s = _state(model.L)
    return (apply_exp_x(s, 0.37, model).amplitudes,
            apply_exp_x(s, -1.1, model).amplitudes)


def _rotate_to_basis(model):
    s, L = _state(model.L), model.L
    bases = ("Z" * L, "X" * L, "Y" * L, ("XYZ" * L)[:L], ("YZX" * L)[:L])
    return tuple(rotate_to_basis(s, b).amplitudes for b in bases)


def _evolve_trotter(model):
    s = _state(model.L)
    return (evolve(s, model.as_pauli_sum(), 0.7, method="trotter",
                   steps=3).amplitudes,)


def _trotter_proposal(model):
    v = -model.J * model.zz_sum_table().astype(float)
    start = np.array([0, 2 ** model.L - 1, 1]) % 2 ** model.L
    return (_trotter_columns(v, model.Gamma, 1.3, start, 4),)


def _local_energy_table(model):
    rng = np.random.default_rng(3000 + model.L)
    real = rng.normal(size=2 ** model.L)
    real[::3] = 0.0
    real[1] = 0.5  # never identically zero
    cplx = real + 1j * rng.normal(size=2 ** model.L)
    return (local_energy_table(AmplitudeTableAnsatz(model.L, real), model),
            local_energy_table(AmplitudeTableAnsatz(model.L, cplx), model))


def _estimate_energy_pauli(model):
    out = []
    s = prepare(_ansatz(model))
    for h in (model.as_pauli_sum(), _mixed_sum(model.L)):
        groups = group_qubitwise(h)
        plans = (ShotPlan.uniform(groups.n_groups, 1),
                 ShotPlan.uniform(groups.n_groups, 257),
                 ShotPlan(tuple(range(3, 3 + groups.n_groups))))
        for seed, plan in enumerate(plans):
            est = estimate_energy_pauli(s, h, groups, plan,
                                        np.random.default_rng(seed))
            out.append([est.mean, est.stderr, est.shots_used])
    return (np.array(out),)


def _diagonal_values(model):
    zz = [(c, s) for c, s in model.as_pauli_sum().terms if "X" not in s.letters]
    return (diagonal_values(PauliSum.from_terms(model.L, zz)),
            diagonal_values(_mixed_sum(model.L, "IZ", 4000)))


def _pauli_dense(model):
    return ((model.as_pauli_sum() + _mixed_sum(model.L)).dense(),)


def _natural_gradient_step(model):
    a = _ansatz(model)
    return tuple(np.array(natural_gradient_step(a, 0.3, lam_reg=lam).params)
                 for lam in (None, 0.05))


def _sr_update_kernel(model):
    rng = np.random.default_rng(5000 + model.L)
    o = rng.integers(-model.L, model.L + 1,
                     size=(64 * model.L, max(1, model.L // 2))).astype(float)
    e_loc = model.J * rng.normal(size=o.shape[0]) - model.Gamma
    lam = rng.normal(size=o.shape[1])
    return tuple(_sr_update(lam, o, e_loc, 0.05, reg) for reg in (None, 0.01))


def _zz_sum_table(model):
    return (model.zz_sum_table(),)


def _proposal_columns(model, evolve, field):
    """exp(-iHt) start columns on the TFIM diagonal, optionally plus a field
    on site 0 (no flip symmetry), for one, four and all start indices."""
    v = -model.J * model.zz_sum_table().astype(float)
    if field:
        v = v + 0.37 * (1 - 2 * (np.arange(v.size) & 1))
    dim = v.size
    starts = (np.array([dim - 1]), np.arange(4) * 3 % dim, np.arange(dim))
    return tuple(evolve(v, model.Gamma, 1.3, start) for start in starts)


# Above 2^5 states OpenBLAS's threaded eigh moves last bits with the thread
# count, so the digests stop at L = 5 and
# test_eigh_propagators_match_reference_bitwise covers L = 2..8.
def _evolved_columns_kernel(model):
    model = replace(model, L=min(model.L, 5))
    return (_proposal_columns(model, _evolved_columns, False)
            + _proposal_columns(model, _evolved_columns, True))


def _sector_columns_kernel(model):
    return _proposal_columns(replace(model, L=min(model.L, 5)),
                             _sector_columns, False)


def _autocorrelation_time_pooled(model):
    """Pooled tau on random-walk rows, each shape with a constant row when
    it has more than one, with the grand mean and with a given mean."""
    rng = np.random.default_rng(7000 + model.L)
    taus = []
    for shape in ((1, 100), (4, 1000), (16, 4096), (3, 17)):
        x = (0.1 * np.cumsum(rng.normal(size=shape), axis=1)
             + rng.normal(size=shape))
        if shape[0] > 1:
            x[1] = model.J  # a zero-variance row
        for mean in (None, model.Gamma):
            taus.append(autocorrelation_time_pooled(x, mean))
    return (np.array(taus),)


def _jastrow_amplitude_table(model):
    L = 2 * ((model.L + 1) // 2)  # the pair ansatz needs an even L
    rng = np.random.default_rng(8000 + model.L)
    a = JastrowAnsatz(L, tuple(model.J * rng.normal(size=L // 2) / L))
    spins = 1 - 2 * rng.integers(0, 2, size=(7, L))
    return a.amplitude_table(), a.log_psi_spins(spins)


def _jw_sum(model) -> PauliSum:
    """A Hermitian Jordan-Wigner image on min(L, 4) modes."""
    n = min(model.L, 4)
    rng = np.random.default_rng(9000 + model.L)
    t = rng.normal(size=(n, n))
    u = rng.normal(size=(n, n, n, n)) * (rng.random((n, n, n, n)) < 0.3)
    u = model.Gamma * (u + u.transpose(3, 2, 1, 0)) / 2
    return map_fermionic(FermionHamiltonian(n, model.J * (t + t.T) / 2, u))


def _group_qubitwise(model):
    text = []
    for h in (model.as_pauli_sum(), _mixed_sum(model.L),
              _mixed_sum(model.L, "IXZ", 9500), _jw_sum(model)):
        g = group_qubitwise(h)
        text.append(repr((g.groups, g.bases)))
    return (np.frombuffer("\n".join(text).encode(), dtype=np.uint8),)


KERNELS = {
    "energy_and_gradient": _energy_and_gradient,
    "prepare": _prepare,
    "sr_matrix": _sr_matrix,
    "apply_exp_x": _apply_exp_x,
    "rotate_to_basis": _rotate_to_basis,
    "evolve_trotter": _evolve_trotter,
    "trotter_columns": _trotter_proposal,
    "local_energy_table": _local_energy_table,
    "estimate_energy_pauli": _estimate_energy_pauli,
    "diagonal_values": _diagonal_values,
    "pauli_dense": _pauli_dense,
    "natural_gradient_step": _natural_gradient_step,
    "sr_update": _sr_update_kernel,
    "zz_sum_table": _zz_sum_table,
    "evolved_columns": _evolved_columns_kernel,
    "sector_columns": _sector_columns_kernel,
    "autocorrelation_time_pooled": _autocorrelation_time_pooled,
    "jastrow_amplitude_table": _jastrow_amplitude_table,
    "group_qubitwise": _group_qubitwise,
}


def _case_id(kernel, L, J, gamma, periodic):
    return f"{kernel}-L{L}-J{J}-G{gamma}-{'pbc' if periodic else 'obc'}"


def _cases():
    for kernel in KERNELS:
        for L in SIZES:
            for J, gamma, periodic in MODELS:
                yield kernel, L, J, gamma, periodic


def _kernel_digest(kernel, L, J, gamma, periodic):
    model = TFIMModel(L=L, J=J, Gamma=gamma, periodic=periodic)
    return _digest(*KERNELS[kernel](model))


DIGESTS = {
    'energy_and_gradient-L1-J1.0-G1.0-pbc': 'aa2de4f1f53867c5',
    'energy_and_gradient-L1-J0.8-G1.3-pbc': '6fcbc987ab30381b',
    'energy_and_gradient-L1-J-0.6-G0.4-obc': 'aa36dbfc851b175d',
    'energy_and_gradient-L2-J1.0-G1.0-pbc': 'a62163f813e8d46a',
    'energy_and_gradient-L2-J0.8-G1.3-pbc': '0ec80ba36570b63a',
    'energy_and_gradient-L2-J-0.6-G0.4-obc': '75a98f32411ab1a2',
    'energy_and_gradient-L5-J1.0-G1.0-pbc': '5eaa97c7b7b5455c',
    'energy_and_gradient-L5-J0.8-G1.3-pbc': 'eb2ec54bcfe07b11',
    'energy_and_gradient-L5-J-0.6-G0.4-obc': 'c1e5ca99ffa24437',
    'energy_and_gradient-L8-J1.0-G1.0-pbc': 'ab30083156381322',
    'energy_and_gradient-L8-J0.8-G1.3-pbc': 'ce1a1777e80b68de',
    'energy_and_gradient-L8-J-0.6-G0.4-obc': '9554151e40ccb355',
    'energy_and_gradient-L10-J1.0-G1.0-pbc': '1dd55eac4085b865',
    'energy_and_gradient-L10-J0.8-G1.3-pbc': 'e89f91c42299cf6d',
    'energy_and_gradient-L10-J-0.6-G0.4-obc': '0136f542eb7e6497',
    'prepare-L1-J1.0-G1.0-pbc': '1200e37fdd5599e8',
    'prepare-L1-J0.8-G1.3-pbc': '86249d2c6f9afc13',
    'prepare-L1-J-0.6-G0.4-obc': '31869f6df7c5a6d6',
    'prepare-L2-J1.0-G1.0-pbc': '13ae92ec820a4a04',
    'prepare-L2-J0.8-G1.3-pbc': 'ce374af2f9f058be',
    'prepare-L2-J-0.6-G0.4-obc': '01142757ee2ecc4d',
    'prepare-L5-J1.0-G1.0-pbc': 'f520c98bae52dfd9',
    'prepare-L5-J0.8-G1.3-pbc': '4e77d83838929837',
    'prepare-L5-J-0.6-G0.4-obc': '89b7c0ee507d6038',
    'prepare-L8-J1.0-G1.0-pbc': '82748bda120ec36e',
    'prepare-L8-J0.8-G1.3-pbc': 'e7dc6fe1afc1523d',
    'prepare-L8-J-0.6-G0.4-obc': '6558d15ef3409a46',
    'prepare-L10-J1.0-G1.0-pbc': '1c7ac8bd16e8e4ac',
    'prepare-L10-J0.8-G1.3-pbc': 'd4a173a516dd6616',
    'prepare-L10-J-0.6-G0.4-obc': '4fdcc28ab4796aff',
    'sr_matrix-L1-J1.0-G1.0-pbc': '6cad3dc33e0ba7e9',
    'sr_matrix-L1-J0.8-G1.3-pbc': '90a05cf21da193c9',
    'sr_matrix-L1-J-0.6-G0.4-obc': '8ed5820cb8a8af94',
    'sr_matrix-L2-J1.0-G1.0-pbc': '7fdfcdeb6d438e5e',
    'sr_matrix-L2-J0.8-G1.3-pbc': '28b0a0a46180db15',
    'sr_matrix-L2-J-0.6-G0.4-obc': 'd10341aee68dc97b',
    'sr_matrix-L5-J1.0-G1.0-pbc': 'e1292c77ae209c6e',
    'sr_matrix-L5-J0.8-G1.3-pbc': '1cbf1ade57f6ac72',
    'sr_matrix-L5-J-0.6-G0.4-obc': 'b1e32eaeed977309',
    'sr_matrix-L8-J1.0-G1.0-pbc': 'b56515594846e219',
    'sr_matrix-L8-J0.8-G1.3-pbc': 'f715767d22a02cbe',
    'sr_matrix-L8-J-0.6-G0.4-obc': '243e705ab7ded193',
    'sr_matrix-L10-J1.0-G1.0-pbc': 'c2d697cf39d031e4',
    'sr_matrix-L10-J0.8-G1.3-pbc': '087538b0846dc62f',
    'sr_matrix-L10-J-0.6-G0.4-obc': 'a780b465dd95a0f0',
    'apply_exp_x-L1-J1.0-G1.0-pbc': '050ba179d7bb5084',
    'apply_exp_x-L1-J0.8-G1.3-pbc': 'c2c5a2e9efaaeefe',
    'apply_exp_x-L1-J-0.6-G0.4-obc': '86d5df9d82c9e9a2',
    'apply_exp_x-L2-J1.0-G1.0-pbc': '89c534c259f56625',
    'apply_exp_x-L2-J0.8-G1.3-pbc': '4fa30f3dcae0f567',
    'apply_exp_x-L2-J-0.6-G0.4-obc': 'dd848192eead76fd',
    'apply_exp_x-L5-J1.0-G1.0-pbc': 'b0710454639e0a0a',
    'apply_exp_x-L5-J0.8-G1.3-pbc': '343181ff56987046',
    'apply_exp_x-L5-J-0.6-G0.4-obc': '8b001c6951a97253',
    'apply_exp_x-L8-J1.0-G1.0-pbc': 'cea275668cb7f874',
    'apply_exp_x-L8-J0.8-G1.3-pbc': '488d414cba349fa4',
    'apply_exp_x-L8-J-0.6-G0.4-obc': 'db5f6ab2cf6cca53',
    'apply_exp_x-L10-J1.0-G1.0-pbc': '31456cd3a7322129',
    'apply_exp_x-L10-J0.8-G1.3-pbc': '8b8f7cb210f0752c',
    'apply_exp_x-L10-J-0.6-G0.4-obc': '3798a169ba357455',
    'rotate_to_basis-L1-J1.0-G1.0-pbc': '688d9d96580f6556',
    'rotate_to_basis-L1-J0.8-G1.3-pbc': '688d9d96580f6556',
    'rotate_to_basis-L1-J-0.6-G0.4-obc': '688d9d96580f6556',
    'rotate_to_basis-L2-J1.0-G1.0-pbc': '8225604766201727',
    'rotate_to_basis-L2-J0.8-G1.3-pbc': '8225604766201727',
    'rotate_to_basis-L2-J-0.6-G0.4-obc': '8225604766201727',
    'rotate_to_basis-L5-J1.0-G1.0-pbc': 'b05df462b66dbe7d',
    'rotate_to_basis-L5-J0.8-G1.3-pbc': 'b05df462b66dbe7d',
    'rotate_to_basis-L5-J-0.6-G0.4-obc': 'b05df462b66dbe7d',
    'rotate_to_basis-L8-J1.0-G1.0-pbc': '5c89581e2fceea61',
    'rotate_to_basis-L8-J0.8-G1.3-pbc': '5c89581e2fceea61',
    'rotate_to_basis-L8-J-0.6-G0.4-obc': '5c89581e2fceea61',
    'rotate_to_basis-L10-J1.0-G1.0-pbc': '085073ae329999bf',
    'rotate_to_basis-L10-J0.8-G1.3-pbc': '085073ae329999bf',
    'rotate_to_basis-L10-J-0.6-G0.4-obc': '085073ae329999bf',
    'evolve_trotter-L1-J1.0-G1.0-pbc': '083d656264914730',
    'evolve_trotter-L1-J0.8-G1.3-pbc': 'b92267050469f372',
    'evolve_trotter-L1-J-0.6-G0.4-obc': 'bc273767abf83e2e',
    'evolve_trotter-L2-J1.0-G1.0-pbc': '21b05309045f5cc5',
    'evolve_trotter-L2-J0.8-G1.3-pbc': 'a9a1db9192b8adb7',
    'evolve_trotter-L2-J-0.6-G0.4-obc': 'cb4f96b95008b4f2',
    'evolve_trotter-L5-J1.0-G1.0-pbc': '19e3af8010d90140',
    'evolve_trotter-L5-J0.8-G1.3-pbc': '11355cf328e9df74',
    'evolve_trotter-L5-J-0.6-G0.4-obc': 'f6ec3d9a10128bc3',
    'evolve_trotter-L8-J1.0-G1.0-pbc': '34a47a63c933d964',
    'evolve_trotter-L8-J0.8-G1.3-pbc': '2305a9adc54ea8ba',
    'evolve_trotter-L8-J-0.6-G0.4-obc': '3843bfa4b8923d40',
    'evolve_trotter-L10-J1.0-G1.0-pbc': '9fe6c3bfffcca74e',
    'evolve_trotter-L10-J0.8-G1.3-pbc': 'c9b191f2ed972b23',
    'evolve_trotter-L10-J-0.6-G0.4-obc': '27e2c947127f0c34',
    'trotter_columns-L1-J1.0-G1.0-pbc': '231d57e062582ca5',
    'trotter_columns-L1-J0.8-G1.3-pbc': 'b744fd0b2cd9aceb',
    'trotter_columns-L1-J-0.6-G0.4-obc': '99d9fde21a1c9eea',
    'trotter_columns-L2-J1.0-G1.0-pbc': 'ef73454629eb5c1d',
    'trotter_columns-L2-J0.8-G1.3-pbc': '811f93353388ca24',
    'trotter_columns-L2-J-0.6-G0.4-obc': '598a3c73cdd64ab9',
    'trotter_columns-L5-J1.0-G1.0-pbc': '211220c77e27a204',
    'trotter_columns-L5-J0.8-G1.3-pbc': '69abcc5433693a85',
    'trotter_columns-L5-J-0.6-G0.4-obc': '3714ebcd13d3b87b',
    'trotter_columns-L8-J1.0-G1.0-pbc': '8ccceb5eba882c33',
    'trotter_columns-L8-J0.8-G1.3-pbc': '03b6486d7f81ae5c',
    'trotter_columns-L8-J-0.6-G0.4-obc': 'e78fb94f6c420174',
    'trotter_columns-L10-J1.0-G1.0-pbc': '50d5c82611049b1d',
    'trotter_columns-L10-J0.8-G1.3-pbc': '1c521a8a4aa0f3f3',
    'trotter_columns-L10-J-0.6-G0.4-obc': '95c0f2f033b60dfb',
    'local_energy_table-L1-J1.0-G1.0-pbc': '8f1e83d4ca0ec484',
    'local_energy_table-L1-J0.8-G1.3-pbc': 'e4cf96316bf17c66',
    'local_energy_table-L1-J-0.6-G0.4-obc': 'bd3f4b371eae69f3',
    'local_energy_table-L2-J1.0-G1.0-pbc': '59498b2313684538',
    'local_energy_table-L2-J0.8-G1.3-pbc': '2cebf0d9157327e6',
    'local_energy_table-L2-J-0.6-G0.4-obc': '80973e97118bdcd0',
    'local_energy_table-L5-J1.0-G1.0-pbc': 'a9c6127dbf2bd5b8',
    'local_energy_table-L5-J0.8-G1.3-pbc': '755a5292accbfbb4',
    'local_energy_table-L5-J-0.6-G0.4-obc': 'c4bb9fe13e0b3896',
    'local_energy_table-L8-J1.0-G1.0-pbc': 'fddafd3ef0183c5f',
    'local_energy_table-L8-J0.8-G1.3-pbc': 'd37dbb4a091923af',
    'local_energy_table-L8-J-0.6-G0.4-obc': 'd481a00fdae2e543',
    'local_energy_table-L10-J1.0-G1.0-pbc': '6de9d3ca98b07199',
    'local_energy_table-L10-J0.8-G1.3-pbc': 'cacfad5b1d5b2b00',
    'local_energy_table-L10-J-0.6-G0.4-obc': 'c6dece66af5b2476',
    # re-recorded for the counts path: at L = 1 the 257-shot plan and the
    # 3-shot and larger groups reach 2^L shots and draw a multinomial
    'estimate_energy_pauli-L1-J1.0-G1.0-pbc': '9910b7b8e8f0259c',
    'estimate_energy_pauli-L1-J0.8-G1.3-pbc': '433fd15fb3ec6872',
    'estimate_energy_pauli-L1-J-0.6-G0.4-obc': 'a6be6995060dd374',
    # re-recorded for the counts path: at L = 2 the 257-shot plan and the
    # groups of 4 shots or more reach 2^L and draw a multinomial
    'estimate_energy_pauli-L2-J1.0-G1.0-pbc': '9b78b422347669ca',
    'estimate_energy_pauli-L2-J0.8-G1.3-pbc': '3e11201f71d5857c',
    'estimate_energy_pauli-L2-J-0.6-G0.4-obc': 'db4412a6d29c2bc5',
    # re-recorded for the counts path: at L = 5 the 257-shot plan reaches
    # 2^L and draws a multinomial
    'estimate_energy_pauli-L5-J1.0-G1.0-pbc': 'f094318f2a0869c3',
    'estimate_energy_pauli-L5-J0.8-G1.3-pbc': '72c13fe014e6b2db',
    'estimate_energy_pauli-L5-J-0.6-G0.4-obc': '0f0e41875c80f707',
    # re-recorded for the counts path: at L = 8 the 257-shot plan reaches
    # 2^L and draws a multinomial
    'estimate_energy_pauli-L8-J1.0-G1.0-pbc': 'd644e1bab8771a66',
    'estimate_energy_pauli-L8-J0.8-G1.3-pbc': '91b7b727aa9c1641',
    'estimate_energy_pauli-L8-J-0.6-G0.4-obc': '91b146a917739da9',
    'estimate_energy_pauli-L10-J1.0-G1.0-pbc': 'cf25e410bddc46b5',
    'estimate_energy_pauli-L10-J0.8-G1.3-pbc': '11e23a4db2966983',
    'estimate_energy_pauli-L10-J-0.6-G0.4-obc': 'f53bada34f432acf',
    'diagonal_values-L1-J1.0-G1.0-pbc': '1b0619fb070f8517',
    'diagonal_values-L1-J0.8-G1.3-pbc': 'd0262e2c4d414d46',
    'diagonal_values-L1-J-0.6-G0.4-obc': 'af5261a6ccc4fb8c',
    'diagonal_values-L2-J1.0-G1.0-pbc': '3ccfe1278b7ed8e4',
    'diagonal_values-L2-J0.8-G1.3-pbc': 'b2d91dfb8ddbc877',
    'diagonal_values-L2-J-0.6-G0.4-obc': '9a2d3e0b1ab43a26',
    'diagonal_values-L5-J1.0-G1.0-pbc': '89fea147a0d323aa',
    'diagonal_values-L5-J0.8-G1.3-pbc': 'a1e55d438388da91',
    'diagonal_values-L5-J-0.6-G0.4-obc': 'b74fcb1b68a8ce2e',
    'diagonal_values-L8-J1.0-G1.0-pbc': '05924d755124d821',
    'diagonal_values-L8-J0.8-G1.3-pbc': '4de2afcbeb50525c',
    'diagonal_values-L8-J-0.6-G0.4-obc': 'fdffdf4ac833e762',
    'diagonal_values-L10-J1.0-G1.0-pbc': 'cd2b72d3addc7bc8',
    'diagonal_values-L10-J0.8-G1.3-pbc': 'cdad533e2f04988b',
    'diagonal_values-L10-J-0.6-G0.4-obc': '6f36b0d0a9c24c6b',
    'pauli_dense-L1-J1.0-G1.0-pbc': '5e5d476ea4b563b7',
    'pauli_dense-L1-J0.8-G1.3-pbc': 'ba338ab3390315bb',
    'pauli_dense-L1-J-0.6-G0.4-obc': '1bf140286e9bef1a',
    'pauli_dense-L2-J1.0-G1.0-pbc': '2e3ecce9aebf8c64',
    'pauli_dense-L2-J0.8-G1.3-pbc': 'ebc844b7f4c0abff',
    'pauli_dense-L2-J-0.6-G0.4-obc': '7cae761a6826781f',
    'pauli_dense-L5-J1.0-G1.0-pbc': '6ea159eeceb24da9',
    'pauli_dense-L5-J0.8-G1.3-pbc': '079651823b1a452d',
    'pauli_dense-L5-J-0.6-G0.4-obc': '22f1f466a675e2f0',
    'pauli_dense-L8-J1.0-G1.0-pbc': 'e46ccd201735dfb2',
    'pauli_dense-L8-J0.8-G1.3-pbc': '5723bfbf540a3cf6',
    'pauli_dense-L8-J-0.6-G0.4-obc': '77cb2ef06547782a',
    'pauli_dense-L10-J1.0-G1.0-pbc': '4e3fc21d9f41364f',
    'pauli_dense-L10-J0.8-G1.3-pbc': 'dcf4d6ea298e69ce',
    'pauli_dense-L10-J-0.6-G0.4-obc': '6a2ee1a804548c20',
    'natural_gradient_step-L1-J1.0-G1.0-pbc': 'b89ffdcd1d33c733',
    'natural_gradient_step-L1-J0.8-G1.3-pbc': 'c12bb64a9b3874e2',
    'natural_gradient_step-L1-J-0.6-G0.4-obc': '44f6f7856822cc43',
    'natural_gradient_step-L2-J1.0-G1.0-pbc': 'bcab8462c1128703',
    'natural_gradient_step-L2-J0.8-G1.3-pbc': 'fcacc389a74eba10',
    'natural_gradient_step-L2-J-0.6-G0.4-obc': '707f94f6f3361ba4',
    'natural_gradient_step-L5-J1.0-G1.0-pbc': '8beb650442e5f902',
    'natural_gradient_step-L5-J0.8-G1.3-pbc': '3ebcf0fdd29a1273',
    'natural_gradient_step-L5-J-0.6-G0.4-obc': 'a82fdbb4cb9d01e0',
    'natural_gradient_step-L8-J1.0-G1.0-pbc': 'ea904031b33722c5',
    'natural_gradient_step-L8-J0.8-G1.3-pbc': 'a7776a7be63e5eb3',
    'natural_gradient_step-L8-J-0.6-G0.4-obc': 'b8363c0a82f65b53',
    'natural_gradient_step-L10-J1.0-G1.0-pbc': 'c674265705df65ea',
    'natural_gradient_step-L10-J0.8-G1.3-pbc': '66a95852baf1c2fd',
    'natural_gradient_step-L10-J-0.6-G0.4-obc': '3176d636df6695f1',
    'sr_update-L1-J1.0-G1.0-pbc': '889f10329301465c',
    'sr_update-L1-J0.8-G1.3-pbc': '39ca482b7ac6a037',
    'sr_update-L1-J-0.6-G0.4-obc': '5dc258786cd83faa',
    'sr_update-L2-J1.0-G1.0-pbc': 'd829aac2dccd5e6d',
    'sr_update-L2-J0.8-G1.3-pbc': '8836f550ca82f061',
    'sr_update-L2-J-0.6-G0.4-obc': '4b4a42c394b560e6',
    'sr_update-L5-J1.0-G1.0-pbc': '10ea4f9fc10b0c57',
    'sr_update-L5-J0.8-G1.3-pbc': '816092b9b9b8c283',
    'sr_update-L5-J-0.6-G0.4-obc': 'd7b0fe26b0ac6909',
    'sr_update-L8-J1.0-G1.0-pbc': 'e4de1a458b6d2bf4',
    'sr_update-L8-J0.8-G1.3-pbc': '89a5dafe0e5354af',
    'sr_update-L8-J-0.6-G0.4-obc': '120349a8caf67529',
    'sr_update-L10-J1.0-G1.0-pbc': '2bb316b4826a155d',
    'sr_update-L10-J0.8-G1.3-pbc': 'd995516046a110c3',
    'sr_update-L10-J-0.6-G0.4-obc': 'bed370edf1c14ca4',
    'zz_sum_table-L1-J1.0-G1.0-pbc': '814dd7b9784d57c1',
    'zz_sum_table-L1-J0.8-G1.3-pbc': '814dd7b9784d57c1',
    'zz_sum_table-L1-J-0.6-G0.4-obc': '374708fff7719dd5',
    'zz_sum_table-L2-J1.0-G1.0-pbc': 'a7759b98e7f25981',
    'zz_sum_table-L2-J0.8-G1.3-pbc': 'a7759b98e7f25981',
    'zz_sum_table-L2-J-0.6-G0.4-obc': '39ad010ee5cb40a7',
    'zz_sum_table-L5-J1.0-G1.0-pbc': '4259d5d197adee20',
    'zz_sum_table-L5-J0.8-G1.3-pbc': '4259d5d197adee20',
    'zz_sum_table-L5-J-0.6-G0.4-obc': '1f152dcfdec1f829',
    'zz_sum_table-L8-J1.0-G1.0-pbc': '5601311842f1d652',
    'zz_sum_table-L8-J0.8-G1.3-pbc': '5601311842f1d652',
    'zz_sum_table-L8-J-0.6-G0.4-obc': '3282a8328e0bdffb',
    'zz_sum_table-L10-J1.0-G1.0-pbc': '85c29de42b2d0c88',
    'zz_sum_table-L10-J0.8-G1.3-pbc': '85c29de42b2d0c88',
    'zz_sum_table-L10-J-0.6-G0.4-obc': 'f8169443298e7aab',
    'evolved_columns-L1-J1.0-G1.0-pbc': '7cc862ae20637bce',
    'evolved_columns-L1-J0.8-G1.3-pbc': '224b81e3684983b8',
    'evolved_columns-L1-J-0.6-G0.4-obc': 'bc03a0ef39871aa1',
    'evolved_columns-L2-J1.0-G1.0-pbc': '0dbadcc787047dc6',
    'evolved_columns-L2-J0.8-G1.3-pbc': '6f0b3510fd31d570',
    'evolved_columns-L2-J-0.6-G0.4-obc': '961b7c36099a66f1',
    'evolved_columns-L5-J1.0-G1.0-pbc': '8bb2693ac169672e',
    'evolved_columns-L5-J0.8-G1.3-pbc': '08aecbfb5d0c8392',
    'evolved_columns-L5-J-0.6-G0.4-obc': '74fae5f9c2d09212',
    'evolved_columns-L8-J1.0-G1.0-pbc': '8bb2693ac169672e',
    'evolved_columns-L8-J0.8-G1.3-pbc': '08aecbfb5d0c8392',
    'evolved_columns-L8-J-0.6-G0.4-obc': '74fae5f9c2d09212',
    'evolved_columns-L10-J1.0-G1.0-pbc': '8bb2693ac169672e',
    'evolved_columns-L10-J0.8-G1.3-pbc': '08aecbfb5d0c8392',
    'evolved_columns-L10-J-0.6-G0.4-obc': '74fae5f9c2d09212',
    'sector_columns-L1-J1.0-G1.0-pbc': '2ca6bc9bccd63d45',
    'sector_columns-L1-J0.8-G1.3-pbc': '63dba680deca95bb',
    'sector_columns-L1-J-0.6-G0.4-obc': '2f526c853d982fdc',
    'sector_columns-L2-J1.0-G1.0-pbc': '9b442f7ab0225ab5',
    'sector_columns-L2-J0.8-G1.3-pbc': 'ebe9c239017b853f',
    'sector_columns-L2-J-0.6-G0.4-obc': '49beed6f712a6222',
    'sector_columns-L5-J1.0-G1.0-pbc': 'd9eec7e595e3761e',
    'sector_columns-L5-J0.8-G1.3-pbc': 'f34c62a0e11f966e',
    'sector_columns-L5-J-0.6-G0.4-obc': 'ab4b51b828e3c2b6',
    'sector_columns-L8-J1.0-G1.0-pbc': 'd9eec7e595e3761e',
    'sector_columns-L8-J0.8-G1.3-pbc': 'f34c62a0e11f966e',
    'sector_columns-L8-J-0.6-G0.4-obc': 'ab4b51b828e3c2b6',
    'sector_columns-L10-J1.0-G1.0-pbc': 'd9eec7e595e3761e',
    'sector_columns-L10-J0.8-G1.3-pbc': 'f34c62a0e11f966e',
    'sector_columns-L10-J-0.6-G0.4-obc': 'ab4b51b828e3c2b6',
    'autocorrelation_time_pooled-L1-J1.0-G1.0-pbc': '72dd532060fa997b',
    'autocorrelation_time_pooled-L1-J0.8-G1.3-pbc': '9b9efeb7b55fb983',
    'autocorrelation_time_pooled-L1-J-0.6-G0.4-obc': '01d2b6886bc08ac2',
    'autocorrelation_time_pooled-L2-J1.0-G1.0-pbc': '356963f122a2134a',
    'autocorrelation_time_pooled-L2-J0.8-G1.3-pbc': '83a9937f2d86b513',
    'autocorrelation_time_pooled-L2-J-0.6-G0.4-obc': '090bdc55b7316d6d',
    'autocorrelation_time_pooled-L5-J1.0-G1.0-pbc': '09320f5daedfe2ac',
    'autocorrelation_time_pooled-L5-J0.8-G1.3-pbc': 'e24672665a1de3bb',
    'autocorrelation_time_pooled-L5-J-0.6-G0.4-obc': 'bec7f5f384b47943',
    'autocorrelation_time_pooled-L8-J1.0-G1.0-pbc': '3dfa5e025cc065be',
    'autocorrelation_time_pooled-L8-J0.8-G1.3-pbc': '98a5ae536ff33832',
    'autocorrelation_time_pooled-L8-J-0.6-G0.4-obc': 'fc1da285fa56cf6b',
    'autocorrelation_time_pooled-L10-J1.0-G1.0-pbc': '6112574d9372888d',
    'autocorrelation_time_pooled-L10-J0.8-G1.3-pbc': '6b291f617910c6a4',
    'autocorrelation_time_pooled-L10-J-0.6-G0.4-obc': '7cf4dabe4207602d',
    'jastrow_amplitude_table-L1-J1.0-G1.0-pbc': 'd00f58464bf0f12b',
    'jastrow_amplitude_table-L1-J0.8-G1.3-pbc': 'efe521477cfb39c0',
    'jastrow_amplitude_table-L1-J-0.6-G0.4-obc': 'c764252ce88ad43c',
    'jastrow_amplitude_table-L2-J1.0-G1.0-pbc': '1cef21508ff67a3c',
    'jastrow_amplitude_table-L2-J0.8-G1.3-pbc': 'b9f35b4086d3d42f',
    'jastrow_amplitude_table-L2-J-0.6-G0.4-obc': 'd3a24b2589ed724d',
    'jastrow_amplitude_table-L5-J1.0-G1.0-pbc': '603428f7f5b056f2',
    'jastrow_amplitude_table-L5-J0.8-G1.3-pbc': '9e682ed13344f4d6',
    'jastrow_amplitude_table-L5-J-0.6-G0.4-obc': 'fe467211ce2e20fd',
    'jastrow_amplitude_table-L8-J1.0-G1.0-pbc': '607808970655c474',
    'jastrow_amplitude_table-L8-J0.8-G1.3-pbc': '88b81e4ad207b95e',
    'jastrow_amplitude_table-L8-J-0.6-G0.4-obc': '6d524efa2c09de13',
    'jastrow_amplitude_table-L10-J1.0-G1.0-pbc': '330d1aae4461d822',
    'jastrow_amplitude_table-L10-J0.8-G1.3-pbc': 'd13d693bb4a92671',
    'jastrow_amplitude_table-L10-J-0.6-G0.4-obc': 'a12ff0d59334c3d1',
    'group_qubitwise-L1-J1.0-G1.0-pbc': '9e6519605e201bcf',
    'group_qubitwise-L1-J0.8-G1.3-pbc': '9e6519605e201bcf',
    'group_qubitwise-L1-J-0.6-G0.4-obc': 'ca817b4e1874dedc',
    'group_qubitwise-L2-J1.0-G1.0-pbc': '99b5774323ec63e7',
    'group_qubitwise-L2-J0.8-G1.3-pbc': '99b5774323ec63e7',
    'group_qubitwise-L2-J-0.6-G0.4-obc': '99b5774323ec63e7',
    'group_qubitwise-L5-J1.0-G1.0-pbc': 'abec6cd449cf2585',
    'group_qubitwise-L5-J0.8-G1.3-pbc': 'ae0d840c27b1dfa7',
    'group_qubitwise-L5-J-0.6-G0.4-obc': 'b5845a02d722f390',
    'group_qubitwise-L8-J1.0-G1.0-pbc': 'eccae6bf0101329b',
    'group_qubitwise-L8-J0.8-G1.3-pbc': '849a0d8c17486f08',
    'group_qubitwise-L8-J-0.6-G0.4-obc': 'ece93b117b12fc88',
    'group_qubitwise-L10-J1.0-G1.0-pbc': '2f2704adb96564f9',
    'group_qubitwise-L10-J0.8-G1.3-pbc': '2a8f4df4393ef083',
    'group_qubitwise-L10-J-0.6-G0.4-obc': '2edf0d469568e714',
}


@pytest.mark.parametrize("case", list(_cases()),
                         ids=[_case_id(*c) for c in _cases()])
def test_kernel_output_is_pinned(case):
    assert _kernel_digest(*case) == DIGESTS[_case_id(*case)]


# (L, random fields, evolution): sector and Chebyshev need zero fields, and
# L = 9 is CHEBYSHEV_MIN_QUBITS
_PROPAGATORS = {"sector": (6, False, "exact"), "dense": (5, True, "exact"),
                "chebyshev": (9, False, "exact"),
                "trotter": (6, True, "trotter")}


def _proposal_cases():
    for propagator in _PROPAGATORS:
        for n_chains in (1, 4):
            for mix in (0.0, 0.3):
                yield propagator, n_chains, mix


def _proposal_id(propagator, n_chains, mix):
    return f"{propagator}-c{n_chains}-mix{mix}"


def _proposal_digest(propagator, n_chains, mix):
    """Three chained _quantum_step draws from fixed start indices."""
    L, fields, evolution = _PROPAGATORS[propagator]
    rng = np.random.default_rng(6000 + L)
    glass = spin_glass_instance(L, rng)
    h = rng.normal(size=L) if fields else np.zeros(L)
    v = energy_table(ClassicalSpinModel(L, glass.couplings, h))
    cfg = QuantumProposalConfig(gamma_range=(0.2, 1.0), evolution=evolution,
                                mix_single_flip=mix)
    idx = np.arange(n_chains) * 5 % 2 ** L
    step_rng = np.random.default_rng(n_chains + int(10 * mix))
    draws = []
    for _ in range(3):
        idx = _quantum_step(v, cfg, idx, step_rng)
        draws.append(idx)
    return _digest(*draws)


PROPOSAL_DIGESTS = {
    'sector-c1-mix0.0': '7dd74dee73c56879',
    'sector-c1-mix0.3': '1840bd6fb8b1b622',
    'sector-c4-mix0.0': '60b31918420d992f',
    'sector-c4-mix0.3': '7242c4df8963f05a',
    'dense-c1-mix0.0': '9d908ecfb6b256de',
    'dense-c1-mix0.3': '2885b81c3faacb3f',
    'dense-c4-mix0.0': 'cda52f65d2948b81',
    'dense-c4-mix0.3': 'd2bf3cbfb65049e9',
    'chebyshev-c1-mix0.0': 'cdab78387da8cf9c',
    'chebyshev-c1-mix0.3': '4578316ce936e017',
    'chebyshev-c4-mix0.0': '9c0f525f0e0123c8',
    'chebyshev-c4-mix0.3': 'c9813246b4225e19',
    'trotter-c1-mix0.0': 'f28a2971178415ac',
    'trotter-c1-mix0.3': '429454e97fb61cac',
    'trotter-c4-mix0.0': 'ed49bad5e3b91288',
    'trotter-c4-mix0.3': 'a19f882e8a46cde2',
}


@pytest.mark.parametrize("case", list(_proposal_cases()),
                         ids=[_proposal_id(*c) for c in _proposal_cases()])
def test_quantum_step_draws_are_pinned(case):
    assert _proposal_digest(*case) == PROPOSAL_DIGESTS[_proposal_id(*case)]


def test_quantum_step_draw_matches_reference_sampler(monkeypatch):
    """Columns with zero entries, including leading and trailing zeros, drawn
    through _quantum_step and through _sample_columns_ref on the same stream."""
    rng = np.random.default_rng(70)
    cfg = QuantumProposalConfig(gamma_range=(0.1, 0.5), evolution="trotter")
    for trial in range(3000):
        L, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        probs = rng.random((2 ** L, n))
        probs[rng.random(probs.shape) < 0.4] = 0.0
        probs[[0, -1], :] *= rng.random(2)[:, None] < 0.5
        probs[rng.integers(0, 2 ** L), :] += 0.25  # every column nonzero
        cols = np.sqrt(probs)
        monkeypatch.setattr(qemcmc, "_trotter_columns", lambda *args: cols)
        got = _quantum_step(np.zeros(2 ** L), cfg, np.zeros(n, dtype=np.int64),
                            np.random.default_rng(trial))
        ref_rng = np.random.default_rng(trial)
        cfg.draw(ref_rng)
        want = _sample_columns_ref(np.abs(cols) ** 2, ref_rng)
        assert got.dtype == want.dtype and np.array_equal(got, want), trial


# The exact-kernel layer on spin glasses at L = 2..5, sizes at which eigvals
# and eigh keep their bits across BLAS thread counts.  The three
# spectral_gap cases (a raw array, an asymmetric proposal, a Boltzmann
# weight that underflows to zero) all run the nonsymmetric eigvals.
EXACT_SIZES = (2, 3, 4, 5)


def _glass(L, fields=False):
    rng = np.random.default_rng(11000 + L)
    h = rng.normal(size=L) if fields else np.zeros(L)
    return ClassicalSpinModel(L, spin_glass_instance(L, rng).couplings, h)


def _gap_raw_array(L):
    m = _glass(L)
    return (np.array([spectral_gap(assemble_kernel(t, m, beta).kernel).delta
                      for t in (single_flip_matrix(L), uniform_matrix(L))
                      for beta in (0.5, 2.0)]),)


def _gap_asymmetric(L):
    rng = np.random.default_rng(12000 + L)
    t = rng.random((2 ** L, 2 ** L))
    t /= t.sum(axis=1, keepdims=True)
    return (np.array([spectral_gap(assemble_kernel(
        TransitionMatrix(t), _glass(L), beta)).delta for beta in (0.5, 2.0)]),)


def _gap_underflow(L):
    """exp(-760) is below the smallest double, so the top state's weight
    is zero."""
    m = _glass(L, fields=True)
    v = energy_table(m)
    beta = 760.0 / (v.max() - v.min())
    assert np.any(boltzmann_distribution(m, beta) == 0.0)
    return (np.array([spectral_gap(assemble_kernel(t, m, beta)).delta
                      for t in (single_flip_matrix(L), uniform_matrix(L))]),)


def _exact_tau(L):
    m = _glass(L, fields=True)
    taus = []
    for beta in (0.5, 2.0):
        pi = boltzmann_distribution(m, beta)
        for t in (single_flip_matrix(L), uniform_matrix(L)):
            p = assemble_kernel(t, m, beta).kernel
            taus += [exact_autocorrelation_time(p, pi, f)
                     for f in (energy_table(m), magnetization_table(L))]
    return (np.array(taus),)


def _proposal_matrix_field(L):
    """The dense build (a field breaks the flip symmetry), pinned after
    (T + T.T) / 2, which leaves an exactly symmetric T bitwise alone."""
    m = _glass(L, fields=True)
    out = []
    for mix in (0.0, 0.3):
        cfg = QuantumProposalConfig(gamma_range=(0.2, 1.0),
                                    mix_single_flip=mix)
        t = build_proposal_matrix(m, cfg, 4,
                                  np.random.default_rng(13000 + L)).proposal
        out.append((t + t.T) / 2)
    return tuple(out)


EXACT_KERNELS = {
    "spectral_gap_array": _gap_raw_array,
    "spectral_gap_asymmetric": _gap_asymmetric,
    "spectral_gap_underflow": _gap_underflow,
    "exact_autocorrelation_time": _exact_tau,
    "build_proposal_matrix_field": _proposal_matrix_field,
}


def _exact_cases():
    return [(name, L) for name in EXACT_KERNELS for L in EXACT_SIZES]


def _exact_id(name, L):
    return f"{name}-L{L}"


EXACT_DIGESTS = {
    'spectral_gap_array-L2': '25ac596f24997d36',
    'spectral_gap_array-L3': '6f3bcd3a0969a24f',
    'spectral_gap_array-L4': 'c05e98f7e87ac987',
    'spectral_gap_array-L5': 'dc9be407ee5386a4',
    'spectral_gap_asymmetric-L2': '77e4a282815513ca',
    'spectral_gap_asymmetric-L3': 'b24c98548b33dd89',
    'spectral_gap_asymmetric-L4': 'eacd4b944c887dea',
    'spectral_gap_asymmetric-L5': 'c83ba94bdafeb1a0',
    'spectral_gap_underflow-L2': 'bf881abdd02907ef',
    'spectral_gap_underflow-L3': '0d8ec5ccbda70cd6',
    'spectral_gap_underflow-L4': 'df2a01783338ec6d',
    'spectral_gap_underflow-L5': '206146f65028694f',
    'exact_autocorrelation_time-L2': 'b489f8b8e1a0285c',
    'exact_autocorrelation_time-L3': '2e78f7fc859b8347',
    'exact_autocorrelation_time-L4': 'afddd1041366e435',
    'exact_autocorrelation_time-L5': '9a1e549a83125727',
    'build_proposal_matrix_field-L2': 'f007a323bd320f04',
    'build_proposal_matrix_field-L3': '2b9cf654fc6e5360',
    'build_proposal_matrix_field-L4': '6bbf40d870026963',
    'build_proposal_matrix_field-L5': '07b5348c7bf0a90b',
}


@pytest.mark.parametrize("case", _exact_cases(),
                         ids=[_exact_id(*c) for c in _exact_cases()])
def test_exact_kernel_output_is_pinned(case):
    name, L = case
    assert _digest(*EXACT_KERNELS[name](L)) == EXACT_DIGESTS[_exact_id(*case)]


# The two sampling estimators end to end, on non-integer (J, Gamma): the SR
# loop's energies and lambda history, and the grouped estimator with one
# generator listed five times, at shot counts on both sides of the
# guide-table rule.
def _sr_run(model):
    run = run_sr_optimization(model, n_steps=4, samples_per_step=640,
                              rng=np.random.default_rng(14000 + model.L))
    return run.energies, run.lam_history, np.array(run.ansatz.lam)


def _estimate_shared_rng(model):
    s = prepare(_ansatz(model))
    out = []
    for h in (model.as_pauli_sum(), _mixed_sum(model.L)):
        groups = group_qubitwise(h)
        plans = (ShotPlan.uniform(groups.n_groups, 100),
                 ShotPlan(tuple(range(250, 250 + 5 * groups.n_groups, 5))))
        for seed, plan in enumerate(plans):
            ests = estimate_energy_pauli_batch(
                s, h, groups, plan, [np.random.default_rng(seed)] * 5)
            out += [[e.mean, e.stderr, e.shots_used] for e in ests]
    return (np.array(out),)


SAMPLING_KERNELS = {
    "run_sr_optimization": (_sr_run, (4, 6, 10)),
    "estimate_energy_pauli_batch_shared": (_estimate_shared_rng, (4, 8)),
}


def _sampling_cases():
    return [(name, L, J, gamma, periodic)
            for name, (_, sizes) in SAMPLING_KERNELS.items()
            for L in sizes for J, gamma, periodic in MODELS[1:]]


def _sampling_digest(name, L, J, gamma, periodic):
    model = TFIMModel(L=L, J=J, Gamma=gamma, periodic=periodic)
    return _digest(*SAMPLING_KERNELS[name][0](model))


SAMPLING_DIGESTS = {
    'run_sr_optimization-L4-J0.8-G1.3-pbc': '5bcfe1677d184047',
    'run_sr_optimization-L4-J-0.6-G0.4-obc': 'cb99568ab256f14d',
    'run_sr_optimization-L6-J0.8-G1.3-pbc': '66b54cdd36f615b0',
    'run_sr_optimization-L6-J-0.6-G0.4-obc': '1ccf4fe9aba6cb79',
    'run_sr_optimization-L10-J0.8-G1.3-pbc': '0af886c46c88525a',
    'run_sr_optimization-L10-J-0.6-G0.4-obc': '0ca5dfd9fc198fd3',
    # re-recorded for the counts path: every group at L = 4, and at L = 8
    # the groups of 260 shots or more, reach 2^L and draw a multinomial
    'estimate_energy_pauli_batch_shared-L4-J0.8-G1.3-pbc': 'e257a7ea90a90bd5',
    'estimate_energy_pauli_batch_shared-L4-J-0.6-G0.4-obc': '11bb9c2c62376ec0',
    'estimate_energy_pauli_batch_shared-L8-J0.8-G1.3-pbc': '942f356353123492',
    'estimate_energy_pauli_batch_shared-L8-J-0.6-G0.4-obc': 'f1a38777aeb0db5c',
}


@pytest.mark.parametrize("case", _sampling_cases(),
                         ids=[_case_id(*c) for c in _sampling_cases()])
def test_sampling_estimator_output_is_pinned(case):
    assert _sampling_digest(*case) == SAMPLING_DIGESTS[_case_id(*case)]


def _gates():
    rng = np.random.default_rng(40)
    had = _BASIS_ROT["X"]
    return {"x0": _x_gate(0.0), "x+0.37": _x_gate(0.37),
            "x-0.37": _x_gate(-0.37), "x-pi/2": _x_gate(np.pi / 2),
            "hadamard": had, "y-rotation": _BASIS_ROT["Y"],
            "random": rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
            # symmetric but not an X rotation, and fully complex
            "symmetric-complex": np.array([[0.6 + 0.3j, -0.2 + 0.7j],
                                           [-0.2 + 0.7j, 0.6 + 0.3j]])}


def _blocks(n):
    """A single vector, a flat stack of three rows and a (2^n, 3) block."""
    rng = np.random.default_rng(50 + n)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return {"vector": cplx(2 ** n),
            "row-stack": cplx(3, 2 ** n).reshape(-1),
            "column-block": cplx(2 ** n, 3)}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("gate", list(_gates()))
def test_rotation_kernel_matches_general_form_bitwise(gate, n):
    """Bitwise as numpy's general form for the gates whose entries each have
    a zero part; a fully complex gate, whose products numpy may fuse, bitwise
    as the kernel's unfused order and close to numpy's form."""
    g = _gates()[gate]
    order = list(range(n)) + [n - 1, 0]
    gates = [(k, g) for k in order]
    for name, amps in _blocks(n).items():
        ref = amps.copy()
        _rotate_qubits_ref(ref, gates)
        if gate in ("random", "symmetric-complex"):
            unfused = _rotate_float_ref(amps, gates)
            # a few roundings of 2^-53 per gate, over at most 12 gates
            err = np.max(np.abs(unfused - ref))
            assert err <= 1e-14 * np.max(np.abs(ref)), name
            ref = unfused
        _rotate_pairs(amps, gates)
        assert amps.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("m", (1, 3, 5))
@pytest.mark.parametrize("n", (1, 5, 12))
def test_x_rotations_match_general_form_bitwise(n, m):
    """One angle on every qubit, as an HVA X layer, and per-qubit angles in
    a shuffled order, as ``evolve("trotter")`` builds them, on a flat stack
    of m rows and on a (2^n, m) block of columns."""
    rng = np.random.default_rng(70 + 10 * n + m)
    shared = [(k, _x_gate(0.37)) for k in range(n)]
    shuffled = [(int(k), _x_gate(a))
                for k, a in zip(rng.permutation(n), rng.normal(size=n))]
    for gates in (shared, shuffled):
        for shape in ((m * 2 ** n,), (2 ** n, m)):
            amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            ref = amps.copy()
            _rotate_qubits_ref(ref, gates)
            _rotate_pairs(amps, gates)
            assert amps.tobytes() == ref.tobytes(), shape


SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.5)


def _special_pairs() -> np.ndarray:
    """Every (v, w) pair whose four parts are drawn from SPECIAL, one per
    row of a (6^4, 2) array."""
    parts = np.array(list(itertools.product(SPECIAL, repeat=4)))
    pairs = np.empty((parts.shape[0], 2), dtype=complex)
    pairs.real = parts[:, :2]
    pairs.imag = parts[:, 2:]
    return pairs


@pytest.mark.parametrize("gate", ["x0", "x+0.37", "x-0.37", "x-pi/2",
                                  "hadamard", "y-rotation"])
def test_x_rotation_keeps_signed_zeros_and_non_finite_entries(gate):
    """The X rotations and the two basis maps, whose entries each have a
    zero part: bitwise wherever the general form gives a number; nan where
    it gives nan.  A nan's sign is the host's choice (which operand of a
    two-nan sum survives, and whether a fused product keeps an input nan
    over the default nan of 0 * inf), so it is not compared."""
    gates = [(0, _gates()[gate])]
    pairs = _special_pairs()
    # each row a one-qubit vector, then each column of a (2, 6^4) block
    for amps in (pairs.reshape(-1), pairs.T.copy()):
        ref = amps.copy()
        with np.errstate(invalid="ignore"):  # numpy's 0 * inf
            _rotate_qubits_ref(ref, gates)
        _rotate_pairs(amps, gates)
        got, want = amps.view(float), ref.view(float)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("n", (1, 5, 12))
def test_x_sum_keeps_signed_zeros_and_non_finite_entries_bitwise(n):
    """Exact bytes, a nan's sign included, against Python float sums."""
    rng = np.random.default_rng(80 + n)
    parts = rng.choice(SPECIAL, size=(2, 2 ** n), p=(0.2, 0.2, 0.02, 0.02,
                                                      0.02, 0.54))
    cplx = np.empty(2 ** n, dtype=complex)
    cplx.real, cplx.imag = parts
    for amps in (parts[0].copy(), cplx):
        want = _x_sum_float_ref(amps, n)
        assert _native.x_sum(amps, n).tobytes() == want.tobytes()


@pytest.mark.parametrize("L", range(2, 9))
def test_eigh_propagators_match_reference_bitwise(L):
    for J, gamma, periodic in MODELS:
        model = TFIMModel(L=L, J=J, Gamma=gamma, periodic=periodic)
        pairs = [(_sector_columns, _sector_columns_ref, False)]
        pairs += [(_evolved_columns, _evolved_columns_ref, f)
                  for f in (False, True)]
        for evolve, ref, field in pairs:
            got = _proposal_columns(model, evolve, field)
            want = _proposal_columns(model, ref, field)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), (evolve.__name__, field)


def _chebyshev_models(L):
    rng = np.random.default_rng(900 + L)
    glass = spin_glass_instance(L, rng)
    fields = ClassicalSpinModel(L, glass.couplings, rng.normal(size=L))
    return {"glass": glass, "ferromagnet": ferromagnetic_chain(L),
            "glass-with-fields": fields}


@pytest.mark.parametrize("L", (9, 10, 11))
def test_chebyshev_columns_match_csr_series(L):
    """Only the sum order of each H~x moved, so the columns stay within a
    few ulp of the unit-norm result."""
    starts = (np.array([3]), np.array([0, 5, 2 ** L - 1, 2 ** (L - 1) + 3]))
    for kind, model in _chebyshev_models(L).items():
        v = energy_table(model)
        for g in QuantumProposalConfig.for_model(model).gamma_range:
            for start, t in itertools.product(starts, (2.0, 20.0)):
                got = _chebyshev_columns(v, g, t, start)
                want = _chebyshev_columns_ref(v, g, t, start)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 2e-14, (kind, g, t,
                                                            start.size)


@pytest.mark.parametrize("m", (1, 3))
@pytest.mark.parametrize("n", (1, 5, 12))
def test_x_sum_on_a_block_matches_each_column_bitwise(n, m):
    rng = np.random.default_rng(90 + 10 * n + m)
    real = rng.normal(size=(2 ** n, m))
    for block in (real, real + 1j * rng.normal(size=(2 ** n, m))):
        got = _native.x_sum(block, n)
        assert got.shape == block.shape and got.dtype == block.dtype
        for c in range(m):
            want = _native.x_sum(block[:, c].copy(), n)
            assert got[:, c].tobytes() == want.tobytes(), c


@pytest.mark.parametrize("n", SIZES)
def test_x_sum_matches_two_add_form_bitwise(n):
    rng = np.random.default_rng(60 + n)
    for amps in (rng.normal(size=2 ** n),
                 rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n),
                 np.where(rng.random(2 ** n) < 0.5, -0.0, 0.0)):
        assert _native.x_sum(amps, n).tobytes() == _x_sum_ref(amps, n).tobytes()


if __name__ == "__main__":
    for case in _cases():
        print(f"    {_case_id(*case)!r}: {_kernel_digest(*case)!r},")
    print()
    for case in _proposal_cases():
        print(f"    {_proposal_id(*case)!r}: {_proposal_digest(*case)!r},")
    print()
    for case in _exact_cases():
        print(f"    {_exact_id(*case)!r}: "
              f"{_digest(*EXACT_KERNELS[case[0]](case[1]))!r},")
    print()
    for case in _sampling_cases():
        print(f"    {_case_id(*case)!r}: {_sampling_digest(*case)!r},")
