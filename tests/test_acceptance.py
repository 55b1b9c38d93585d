"""Acceptance gate: end-to-end checks of the estimator and sampler claims.

Each test prints one pass/fail line through the shared criterion_report
fixture (replayed in the terminal summary) and then asserts.  Stated time
budgets are part of the criteria and are asserted alongside the numerics.

Criterion 04 compares the analytic shot-noise error with the spread of
grouped estimates.  Every string of a basis group is read off the same shot
record, so the prediction is the exact variance of each group's
coefficient-weighted sum, intra-group covariance included; treating the
terms as independent under-predicts the spread on the critical-point ground
state by about 1.3x, outside the 25% band.
"""

import hashlib
import time

import numpy as np
import pytest

from spinlab.harness import (
    derive_seed,
    fig2_experiment,
    gap_sweep,
    qemcmc_run,
    vmc_run,
    vqe_run,
)
from spinlab.pauli import (
    FermionHamiltonian,
    group_qubitwise,
    jw_annihilation,
    jw_creation,
    map_fermionic,
)
from spinlab.qemcmc import (
    QuantumProposalConfig,
    assemble_kernel,
    autocorrelation_time_pooled,
    boltzmann_distribution,
    build_proposal_matrix,
    ferromagnetic_chain,
    magnetization_table,
    run_chain,
    single_flip_matrix,
    spectral_gap,
    spin_glass_instance,
)
from spinlab.statevector import SpinConfiguration, TFIMModel, ground_state
from spinlab.vmc import (
    AmplitudeTableAnsatz,
    GaussianToy,
    default_burn_in,
    harmonic_local_energy,
    local_energy_table,
    rayleigh_quotient,
    run_metropolis_chains,
    run_sr_optimization,
)
from spinlab.vqe import (
    ShotPlan,
    estimate_energy_pauli,
    predicted_error,
    shots_for_ratio_precision,
)
from test_pauli import dense_annihilation

L10_MODEL = TFIMModel(L=10, J=1.0, Gamma=1.0)


@pytest.fixture(scope="module")
def l10_ground():
    h = L10_MODEL.as_pauli_sum()
    e0, v0 = ground_state(h)
    return h, e0, v0


@pytest.fixture(scope="module")
def fig2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2_full")
    t0 = time.time()
    manifest = fig2_experiment({}, out, master_seed=0)
    return out, manifest, time.time() - t0


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_01_zero_variance_local_energy(criterion_report, l10_ground):
    t0 = time.time()
    _, e0, v0 = l10_ground
    a = AmplitudeTableAnsatz(10, v0.amplitudes.real)
    rng = np.random.default_rng(derive_seed(0, "accept-zero-variance", 0))
    idx = run_metropolis_chains(a, 1, 10_000, default_burn_in(10), 10, rng)[0]
    e_loc = local_energy_table(a, L10_MODEL)[idx]
    std = float(np.std(e_loc, ddof=1))
    bias = abs(float(e_loc.mean()) - e0)
    elapsed = time.time() - t0
    ok = std < 1e-9 and bias < 1e-9 and elapsed < 10.0
    criterion_report(1, "zero-variance-local-energy", ok,
                     f"std={std:.2e}, |mean-E0|={bias:.2e}, {elapsed:.1f}s")
    assert ok


def test_02_estimator_error_crossover(criterion_report, fig2_run):
    out, manifest, elapsed = fig2_run
    rows = _read_rows(out / "fig2.csv")
    depth_rel = manifest.outputs["depth_relative_errors"]
    rels = [depth_rel[f"d{d}"] for d in (12, 16, 20, 24)]
    monotone = all(rels[i + 1] <= rels[i] + 1e-12 for i in range(3))
    best = min(rels) <= 1e-4
    improved = rels[0] / max(rels[-1], 1e-300) >= 100.0

    pauli_1k = [float(r["std"]) for r in rows
                if r["estimator"] == "pauli" and r["M"] == "1000"]
    flat = max(pauli_1k) / min(pauli_1k) < 3.0
    vmc_1k = [float(r["std"]) for r in rows
              if r["estimator"] == "vmc" and r["M"] == "1000"
              and r["ansatz"] == "jastrow_lam1=0.22"]
    crossover = len(vmc_1k) == 1 and all(vmc_1k[0] < p for p in pauli_1k)

    ok = (monotone and best and improved and flat and crossover
          and elapsed < 1800.0)
    criterion_report(2, "estimator-error-crossover", ok,
                     f"depth rels {rels[0]:.1e}->{rels[-1]:.1e}, "
                     f"pauli std spread x{max(pauli_1k)/min(pauli_1k):.2f}, "
                     f"vmc std {vmc_1k[0]:.3f} < min pauli "
                     f"{min(pauli_1k):.3f}, {elapsed:.0f}s")
    assert ok


def test_03_sr_reaches_known_optimum(criterion_report, l10_ground):
    t0 = time.time()
    _, e0, _ = l10_ground
    run = run_sr_optimization(L10_MODEL, rng=np.random.default_rng(5))
    e_fin = rayleigh_quotient(run.ansatz, L10_MODEL)
    rel = abs(e_fin - e0) / abs(e0)
    lam = run.ansatz.lam
    lam_ok = (abs(lam[0] - 0.220) / 0.220 <= 0.10
              and abs(lam[1] - 0.057) / 0.057 <= 0.10)
    elapsed = time.time() - t0
    ok = rel <= 2e-3 and lam_ok and elapsed < 300.0
    criterion_report(3, "sr-reaches-known-optimum", ok,
                     f"rel={rel:.2e}, lam1={lam[0]:.4f}, lam2={lam[1]:.4f}, "
                     f"{elapsed:.0f}s")
    assert ok


def test_04_pauli_error_model_consistency(criterion_report, l10_ground):
    t0 = time.time()
    h, _, v0 = l10_ground
    groups = group_qubitwise(h)
    plan = ShotPlan.uniform(groups.n_groups, 1000)
    means = []
    for r in range(100):
        rng = np.random.default_rng(
            derive_seed(0, "accept-pauli-replicates", r))
        means.append(estimate_energy_pauli(v0, h, groups, plan, rng).mean)
    emp = float(np.std(means, ddof=1))
    pred = predicted_error(v0, h, plan, groups)
    discrepancy = abs(emp - pred) / pred
    elapsed = time.time() - t0
    ok = discrepancy <= 0.25 and elapsed < 120.0
    criterion_report(4, "pauli-error-model-consistency", ok,
                     f"empirical={emp:.4f}, predicted={pred:.4f}, "
                     f"off by {100 * discrepancy:.1f}% vs 25% band, "
                     f"{elapsed:.0f}s")
    assert ok, (f"measured spread is {emp / pred:.3f}x the predicted "
                f"grouped error, outside the 25% band, or over budget "
                f"({elapsed:.0f}s of 120s)")


def test_05_fermion_mapping_identities(criterion_report):
    t0 = time.time()
    n = 4
    dim = 2 ** n
    ops = [jw_annihilation(p, n).dense() for p in range(n)]
    dag = [jw_creation(p, n).dense() for p in range(n)]
    worst = 0.0
    for p in range(n):
        for q in range(n):
            want = np.eye(dim) if p == q else np.zeros((dim, dim))
            worst = max(worst, np.max(np.abs(
                ops[p] @ dag[q] + dag[q] @ ops[p] - want)))
            worst = max(worst, np.max(np.abs(
                ops[p] @ ops[q] + ops[q] @ ops[p])))

    rng = np.random.default_rng(derive_seed(0, "accept-jw-map", 0))
    t = rng.normal(size=(3, 3))
    ferm = FermionHamiltonian(3, (t + t.T) / 2,
                              rng.normal(size=(3, 3, 3, 3)))
    lad = [dense_annihilation(p, 3) for p in range(3)]
    dense = np.zeros((8, 8), dtype=complex)
    for p in range(3):
        for q in range(3):
            dense += ferm.one_body[p, q] * lad[p].conj().T @ lad[q]
            for r in range(3):
                for s in range(3):
                    dense += (ferm.two_body[p, q, r, s]
                              * lad[p].conj().T @ lad[q].conj().T
                              @ lad[r] @ lad[s])
    map_resid = float(np.max(np.abs(map_fermionic(ferm).dense() - dense)))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and map_resid <= 1e-12 and elapsed < 10.0
    criterion_report(5, "fermion-mapping-identities", ok,
                     f"anticommutator residual {worst:.1e}, dense mapping "
                     f"residual {map_resid:.1e}, {elapsed:.1f}s")
    assert ok


def test_06_proposal_and_kernel_exactness(criterion_report):
    t0 = time.time()
    m4 = spin_glass_instance(4, np.random.default_rng(0))
    t_mat = build_proposal_matrix(m4, QuantumProposalConfig.for_model(m4),
                                  K=8, rng=np.random.default_rng(1))
    sym = float(np.max(np.abs(t_mat.proposal - t_mat.proposal.T)))
    p4 = assemble_kernel(t_mat, m4, 1.5)
    pi4 = boltzmann_distribution(m4, 1.5)
    flow = pi4[:, None] * p4.kernel
    balance = float(np.max(np.abs(flow - flow.T)))

    m6 = spin_glass_instance(6, np.random.default_rng(2))
    t6 = build_proposal_matrix(m6, QuantumProposalConfig.for_model(m6),
                               K=32, rng=np.random.default_rng(3))
    p6 = assemble_kernel(t6, m6, 2.0)
    pi6 = boltzmann_distribution(m6, 2.0)
    stationary = float(np.max(np.abs(pi6 @ p6.kernel - pi6)))
    elapsed = time.time() - t0
    ok = (sym <= 1e-10 and balance <= 1e-10 and stationary <= 1e-8
          and elapsed < 60.0)
    criterion_report(6, "proposal-and-kernel-exactness", ok,
                     f"T symmetry {sym:.1e}, detailed balance {balance:.1e}, "
                     f"stationarity {stationary:.1e}, {elapsed:.1f}s")
    assert ok


def test_07_quantum_sampling_advantage(criterion_report):
    t0 = time.time()
    dq, ds = [], []
    for i in range(20):
        m = spin_glass_instance(6, np.random.default_rng(100 + i))
        t_mat = build_proposal_matrix(m, QuantumProposalConfig.for_model(m),
                                      K=32, rng=np.random.default_rng(200 + i))
        dq.append(spectral_gap(assemble_kernel(t_mat, m, 2.0)).delta)
        ds.append(spectral_gap(assemble_kernel(single_flip_matrix(6),
                                               m, 2.0)).delta)
    gap_ok = float(np.median(dq)) > float(np.median(ds))

    # double-well ferromagnet: magnetization is the slow observable
    m8 = ferromagnetic_chain(8)
    mt = magnetization_table(8)
    rec_s, _ = run_chain(m8, "single-flip", 3.0, 4_000_000,
                         np.random.default_rng(21), n_chains=16,
                         record_every=8)
    tau_s = 8.0 * autocorrelation_time_pooled(mt[rec_s], mean=0.0)
    rec_q, _ = run_chain(m8, QuantumProposalConfig.for_model(m8), 3.0,
                         15_000, np.random.default_rng(22), n_chains=4)
    tau_q = autocorrelation_time_pooled(mt[rec_q], mean=0.0)
    tau_ok = tau_q < tau_s / 2.0
    elapsed = time.time() - t0
    ok = gap_ok and tau_ok and elapsed < 1200.0
    criterion_report(7, "quantum-sampling-advantage", ok,
                     f"median gap {np.median(dq):.2e} vs {np.median(ds):.2e}, "
                     f"tau {tau_q:.0f} vs {tau_s:.0f} steps, {elapsed:.0f}s")
    assert ok


def test_08_harmonic_toy_zero_variance(criterion_report):
    t0 = time.time()
    g = GaussianToy(theta=0.5, omega=1.0)
    xs = np.random.default_rng(derive_seed(0, "accept-harmonic", 0)) \
        .normal(scale=2.0, size=1000)
    worst = max(abs(harmonic_local_energy(g, float(x)) - 0.5) for x in xs)
    elapsed = time.time() - t0
    ok = worst <= 1e-15 and elapsed < 1.0
    criterion_report(8, "harmonic-toy-zero-variance", ok,
                     f"max |E_L - omega/2| = {worst:.1e} over 1e3 points, "
                     f"{elapsed:.2f}s")
    assert ok


def test_09_ratio_shot_cost_growth(criterion_report):
    t0 = time.time()
    required = []
    for L in (4, 6, 8, 10):
        _, v0 = ground_state(TFIMModel(L=L).as_pauli_sum())
        neel = SpinConfiguration(tuple(1 if k % 2 == 0 else -1
                                       for k in range(L)))
        bumped = SpinConfiguration((-neel.spins[0],) + neel.spins[1:])
        rng = np.random.default_rng(derive_seed(0, "accept-ratio-cost", L))
        required.append(shots_for_ratio_precision(v0, neel, bumped, 0.10,
                                                  rng))
    growing = all(required[i + 1] > required[i] for i in range(3))
    elapsed = time.time() - t0
    ok = growing and elapsed < 600.0
    criterion_report(9, "ratio-shot-cost-growth", ok,
                     f"required shots {required} for L=4,6,8,10, "
                     f"{elapsed:.0f}s")
    assert ok


RERUN_EXPERIMENTS = [
    ("fig2", fig2_experiment,
     {"L": 4, "depths": [1, 2], "shots": [50, 100], "repetitions": 3,
      "optimizer.restarts": 1, "optimizer.max_iter": 8,
      "lam1_grid": [0.220, -0.15], "jastrow_tail": [0.05]}),
    ("gap-sweep", gap_sweep,
     {"L_list": [4], "beta_list": [1.5], "instances": 2, "K": 8,
      "steps": 400}),
    ("vqe-run", vqe_run,
     {"model.L": 4, "depth": 2, "shots_per_group": 100,
      "repetitions": 4, "optimizer.restarts": 1,
      "optimizer.max_iter": 8}),
    ("vmc-run", vmc_run,
     {"L": 6, "mode": "sweep", "samples": [400],
      "lam1_grid": [0.220, -0.15], "jastrow_tail": [0.05, 0.02]}),
    ("qemcmc-run", qemcmc_run,
     {"L": 4, "ensemble": "ferromagnet", "beta": 1.0, "steps": 400,
      "chains": 2}),
]


def test_10_rerun_determinism(criterion_report, tmp_path):
    t0 = time.time()
    stable = []
    for name, fn, cfg in RERUN_EXPERIMENTS:
        man_a = fn(dict(cfg), tmp_path / name / "a", master_seed=11)
        man_b = fn(dict(cfg), tmp_path / name / "b", master_seed=11)
        csv_a = (tmp_path / name / "a" / man_a.outputs["csv"]).read_bytes()
        csv_b = (tmp_path / name / "b" / man_b.outputs["csv"]).read_bytes()
        stable.append(csv_a == csv_b)
    elapsed = time.time() - t0
    ok = all(stable)
    criterion_report(10, "rerun-determinism", ok,
                     f"{sum(stable)}/5 experiments byte-identical on re-run, "
                     f"{elapsed:.0f}s")
    assert ok


# sha256 of each RERUN_EXPERIMENTS CSV at master seed 11.  A refactor that
# claims to keep results the same must keep these bytes; a deliberate change
# of output re-records them and says why.
RERUN_CSV_SHA256 = {
    # re-recorded for the Lanczos ground state: its last-bit E0 and vector
    # move the exact_eigenvector rows, which sit near 1e-16
    "fig2": "130ef531dbb2af31d03a5483cfb0332a05745b2c58e1f87f8e1ec78753e74c32",
    "gap-sweep":
        "a1223ec408b1ff1403362385670f29c72f2ab04461d82165e22791ad05e6e7ce",
    "vqe-run":
        "0a91eb1d6f45d26c592d2ebf92a897c1242eb97e8c0fe7525a71f6e825876947",
    "vmc-run":
        "5916131ebece9f23225062d50e3084b25168dd4a7ec3e85ecf610208a6612075",
    "qemcmc-run":
        "c360a629573335800c465af50185e0ee0e4e46f163264dd3cea7f9c91a8a72a7",
}


@pytest.mark.parametrize("name,fn,cfg", RERUN_EXPERIMENTS,
                         ids=[r[0] for r in RERUN_EXPERIMENTS])
def test_rerun_csv_matches_golden_hash(name, fn, cfg, tmp_path):
    man = fn(dict(cfg), tmp_path, master_seed=11)
    digest = hashlib.sha256(
        (tmp_path / man.outputs["csv"]).read_bytes()).hexdigest()
    assert digest == RERUN_CSV_SHA256[name]
