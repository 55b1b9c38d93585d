"""Jastrow ansatz, Metropolis sampling, local energy, SR, and the toy model."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats

from spinlab import vmc
from spinlab.statevector import (CapacityError, SpinConfiguration, TFIMModel,
                                 all_spin_values, ground_state)
from spinlab.vmc import (TABLE_CAP, AmplitudeTableAnsatz, GaussianToy, JastrowAnsatz,
                         LocalEnergyRecord, _feature_table,
                         _log_derivative_matrix, estimate_energy_vmc,
                         estimate_energy_vmc_batch,
                         gaussian_local_energy, harmonic_local_energy,
                         local_energy_records, local_energy_table,
                         local_energy_tfim, log_derivatives,
                         metropolis_sample, rayleigh_quotient,
                         run_metropolis_chains, run_sr_optimization, sr_step)

OPTIMAL_LAM = (0.220, 0.057, 0.030, 0.022, 0.010)


def dense_rayleigh(a, model: TFIMModel) -> float:
    """Variational energy from the dense Hamiltonian (independent oracle)."""
    from test_vqe import dense_sum
    h = dense_sum(model.as_pauli_sum())
    amp = np.asarray(a.amplitude_table(), dtype=complex)
    return float(np.real(np.vdot(amp, h @ amp) / np.vdot(amp, amp)))


# ---------------------------------------------------------------------------
# ansatz values
# ---------------------------------------------------------------------------

class TestJastrowAnsatz:
    def test_zero_parameters_give_zero_log_psi(self):
        a = JastrowAnsatz(6, (0.0, 0.0, 0.0))
        for idx in range(2 ** 6):
            assert a.log_psi(SpinConfiguration.from_index(idx, 6)) == 0.0

    def test_all_up_value(self):
        a = JastrowAnsatz(10, OPTIMAL_LAM)
        x = SpinConfiguration((1,) * 10)
        assert a.log_psi(x) == pytest.approx(10 * sum(OPTIMAL_LAM), abs=1e-12)

    def test_global_flip_invariance(self):
        a = JastrowAnsatz(8, (0.3, -0.1, 0.05, 0.2))
        rng = np.random.default_rng(0)
        for _ in range(20):
            spins = tuple(rng.choice([1, -1], size=8))
            x = SpinConfiguration(spins)
            y = SpinConfiguration(tuple(-s for s in spins))
            assert a.log_psi(x) == pytest.approx(a.log_psi(y), abs=1e-12)

    def test_translation_invariance(self):
        a = JastrowAnsatz(8, (0.3, -0.1, 0.05, 0.2))
        rng = np.random.default_rng(1)
        spins = tuple(rng.choice([1, -1], size=8))
        base = a.log_psi(SpinConfiguration(spins))
        for shift in range(1, 8):
            rolled = spins[shift:] + spins[:shift]
            assert a.log_psi(SpinConfiguration(rolled)) == pytest.approx(
                base, abs=1e-12)

    def test_psi_strictly_positive(self):
        a = JastrowAnsatz(6, (0.5, -0.4, 0.3))
        assert np.all(np.isfinite(np.log(a.amplitude_table())))

    def test_parameter_length_enforced(self):
        with pytest.raises(ValueError):
            JastrowAnsatz(6, (0.1, 0.2))
        with pytest.raises(ValueError):
            JastrowAnsatz(5, (0.1, 0.2))


class TestAmplitudeTableAnsatz:
    def test_log_of_table_entry(self):
        table = np.full(8, 0.25)
        table[3] = 0.5
        a = AmplitudeTableAnsatz(3, table)
        assert a.log_psi(SpinConfiguration.from_index(3, 3)) == pytest.approx(
            np.log(0.5))

    def test_zero_amplitude_gives_minus_infinity(self):
        table = np.ones(8)
        table[5] = 0.0
        a = AmplitudeTableAnsatz(3, table)
        assert a.log_psi(SpinConfiguration.from_index(5, 3)) == -np.inf

    def test_identically_zero_table_rejected(self):
        with pytest.raises(ValueError):
            AmplitudeTableAnsatz(3, np.zeros(8))


# ---------------------------------------------------------------------------
# local energy
# ---------------------------------------------------------------------------

class TestLocalEnergy:
    def test_constant_on_exact_eigenvector(self):
        model = TFIMModel(L=10)
        e0, v0 = ground_state(model.as_pauli_sum())
        a = AmplitudeTableAnsatz(10, v0.amplitudes.real)
        e = local_energy_table(a, model)
        assert np.max(np.abs(e - e0)) < 1e-9

    def test_integer_and_single_precision_tables_score_as_float64(self):
        model = TFIMModel(L=4, J=0.8, Gamma=1.3)
        table = np.arange(1, 17) * (-1) ** np.arange(16)
        want = local_energy_table(AmplitudeTableAnsatz(4, table * 1.0), model)
        for t in (table, table.astype(np.float32)):
            got = local_energy_table(AmplitudeTableAnsatz(4, t), model)
            assert got.tobytes() == want.tobytes()

    def test_uniform_state_formula(self):
        model = TFIMModel(L=6, J=0.8, Gamma=1.3)
        a = JastrowAnsatz(6, (0.0, 0.0, 0.0))
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = SpinConfiguration(tuple(rng.choice([1, -1], size=6)))
            zz = sum(x.spins[p] * x.spins[q] for p, q in model.bonds())
            expected = -0.8 * zz - 1.3 * 6
            assert local_energy_tfim(a, x, model) == pytest.approx(
                expected, abs=1e-12)

    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_weighted_mean_is_rayleigh_quotient(self, L):
        model = TFIMModel(L=L)
        rng = np.random.default_rng(L)
        jas = JastrowAnsatz(L, tuple(rng.uniform(-0.3, 0.3, L // 2)))
        tab = AmplitudeTableAnsatz(L, rng.normal(size=2 ** L))
        for a in (jas, tab):
            p = np.abs(np.asarray(a.amplitude_table(), dtype=complex)) ** 2
            p /= p.sum()
            e = local_energy_table(a, model)
            mask = p > 0
            mean = float(np.sum(p[mask] * e[mask]))
            assert mean == pytest.approx(dense_rayleigh(a, model), abs=1e-10)
            assert rayleigh_quotient(a, model) == pytest.approx(
                dense_rayleigh(a, model), abs=1e-10)

    def test_zero_amplitude_pivot_is_nan(self):
        table = np.ones(16)
        table[7] = 0.0
        a = AmplitudeTableAnsatz(4, table)
        model = TFIMModel(L=4)
        assert np.isnan(local_energy_tfim(
            a, SpinConfiguration.from_index(7, 4), model))

    def test_records_align_with_table(self):
        model = TFIMModel(L=4)
        a = JastrowAnsatz(4, (0.2, -0.1))
        configs = [SpinConfiguration.from_index(i, 4) for i in (0, 5, 9)]
        recs = local_energy_records(a, configs, model)
        table = local_energy_table(a, model)
        assert all(isinstance(r, LocalEnergyRecord) for r in recs)
        for r, c in zip(recs, configs):
            assert r.e_local == pytest.approx(table[c.to_index()])


# ---------------------------------------------------------------------------
# Metropolis sampling
# ---------------------------------------------------------------------------

def single_flip_metropolis_kernel(a, L: int) -> np.ndarray:
    """Explicit 2^L transition matrix of the sampler's update rule."""
    w = np.abs(np.asarray(a.amplitude_table(), dtype=complex)) ** 2
    dim = 2 ** L
    p = np.zeros((dim, dim))
    for i in range(dim):
        for k in range(L):
            j = i ^ (1 << k)
            p[i, j] = (1.0 / L) * min(1.0, w[j] / w[i])
        p[i, i] = 1.0 - p[i].sum()
    return p


class TestMetropolisSampling:
    def test_uniform_target_chi_square(self):
        # lam = 0 targets the uniform distribution; pool parallel chains.
        # Thinning must be odd: with every proposal accepted, one spin flips
        # per attempt and the Hamming parity alternates deterministically, so
        # an even stride would pin each chain to a single parity class.
        a = JastrowAnsatz(4, (0.0, 0.0))
        idx = run_metropolis_chains(a, 50, 20_000, 200, 17,
                                    np.random.default_rng(10))
        counts = np.bincount(idx.reshape(-1), minlength=16)
        stat, p_value = scipy.stats.chisquare(counts)
        assert counts.sum() == 10 ** 6
        assert p_value > 1e-3

    def test_detailed_balance_of_explicit_kernel(self):
        a = JastrowAnsatz(4, (0.35, -0.2))
        w = a.amplitude_table() ** 2
        pi = w / w.sum()
        p = single_flip_metropolis_kernel(a, 4)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        flow = pi[:, None] * p
        assert np.max(np.abs(flow - flow.T)) < 1e-14

    def test_sampler_frequencies_match_kernel(self):
        # transition counts from a thinning-1 chain against the exact kernel
        a = JastrowAnsatz(4, (0.35, -0.2))
        p = single_flip_metropolis_kernel(a, 4)
        samples = metropolis_sample(a, 200_000, burn_in=500, thinning=1,
                                    rng=np.random.default_rng(3))
        idx = np.array([s.to_index() for s in samples])
        counts = np.zeros((16, 16))
        np.add.at(counts, (idx[:-1], idx[1:]), 1.0)
        row_totals = counts.sum(axis=1, keepdims=True)
        for i in range(16):
            n = row_totals[i, 0]
            if n < 100:
                continue
            for j in range(16):
                se = np.sqrt(max(p[i, j] * (1 - p[i, j]) / n, 1e-12))
                assert abs(counts[i, j] / n - p[i, j]) < 5 * se + 1e-9

    def test_optimal_jastrow_bond_correlation_matches_enumeration(self):
        model = TFIMModel(L=10)
        a = JastrowAnsatz(10, OPTIMAL_LAM)
        w = a.amplitude_table() ** 2
        pi = w / w.sum()
        zz = model.zz_sum_table().astype(float)
        exact = float(pi @ zz)
        n_samp = 40_000
        idx = run_metropolis_chains(a, 40, n_samp // 40, 1000, 10,
                                    np.random.default_rng(4)).reshape(-1)
        vals = zz[idx]
        # batch means absorb leftover autocorrelation in the error bar
        bm = np.array([b.mean() for b in np.array_split(vals, 40)])
        se = bm.std(ddof=1) / np.sqrt(len(bm))
        assert abs(vals.mean() - exact) < 3 * se

    def test_requires_positive_sample_count(self):
        with pytest.raises(ValueError):
            metropolis_sample(JastrowAnsatz(4, (0.0, 0.0)), 0)

    def test_seeded_determinism(self):
        a = JastrowAnsatz(6, (0.2, 0.1, 0.05))
        s1 = metropolis_sample(a, 50, rng=np.random.default_rng(9))
        s2 = metropolis_sample(a, 50, rng=np.random.default_rng(9))
        assert s1 == s2


# ---------------------------------------------------------------------------
# energy estimation
# ---------------------------------------------------------------------------

class TestEstimateEnergyVMC:
    def test_zero_variance_on_exact_eigenvector(self):
        model = TFIMModel(L=10)
        e0, v0 = ground_state(model.as_pauli_sum())
        a = AmplitudeTableAnsatz(10, v0.amplitudes.real)
        est = estimate_energy_vmc(a, model, 2000, np.random.default_rng(5))
        assert est.stderr < 1e-9
        assert est.mean == pytest.approx(e0, abs=1e-9)

    def test_optimal_jastrow_reaches_permille_accuracy(self):
        model = TFIMModel(L=10)
        e0, _ = ground_state(model.as_pauli_sum())
        a = JastrowAnsatz(10, OPTIMAL_LAM)
        est = estimate_energy_vmc(a, model, 100_000,
                                  np.random.default_rng(6))
        rel = abs(est.mean - e0) / abs(e0)
        assert rel < 2.5e-3
        assert est.stderr < 0.01

    def test_degraded_ansatz_quality_is_monotone_in_lam1(self):
        # pulling lam_1 down from the optimum degrades the energy; by
        # lam_1 = -0.15 the systematic error is large (56.9% here; the
        # quality ladder, not the exact figure, is the load-bearing part)
        model = TFIMModel(L=10)
        e0, _ = ground_state(model.as_pauli_sum())
        rels = []
        for lam1 in (0.220, 0.12, 0.05, -0.05, -0.15):
            a = JastrowAnsatz(10, (lam1,) + OPTIMAL_LAM[1:])
            rels.append(abs(rayleigh_quotient(a, model) - e0) / abs(e0))
        assert all(rels[i] < rels[i + 1] for i in range(len(rels) - 1))
        assert rels[0] < 2e-3
        assert rels[-1] > 0.1

    @pytest.mark.parametrize("m,reps,name", [(0, 1, "M_vmc"),
                                             (-3, 2, "M_vmc"),
                                             (10, 0, "n_reps")])
    def test_batch_rejects_bad_counts(self, m, reps, name):
        a, model = JastrowAnsatz(4, (0.1, 0.2)), TFIMModel(L=4)
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            estimate_energy_vmc_batch(a, model, m, reps,
                                      np.random.default_rng(0))
        if reps == 1:
            with pytest.raises(ValueError, match=rf"\b{name}\b"):
                estimate_energy_vmc(a, model, m, np.random.default_rng(0))

    def test_stderr_shrinks_with_more_samples(self):
        model = TFIMModel(L=10)
        a = JastrowAnsatz(10, OPTIMAL_LAM)
        rng = np.random.default_rng(7)
        small = estimate_energy_vmc(a, model, 1000, rng)
        big = estimate_energy_vmc(a, model, 64_000, rng)
        assert big.stderr < small.stderr


# ---------------------------------------------------------------------------
# stochastic reconfiguration
# ---------------------------------------------------------------------------

class TestLogDerivatives:
    def test_all_up_gives_l_everywhere(self):
        a = JastrowAnsatz(10, OPTIMAL_LAM)
        o = log_derivatives(a, SpinConfiguration((1,) * 10))
        assert np.allclose(o, 10.0)

    def test_matches_finite_difference(self):
        a = JastrowAnsatz(8, (0.3, -0.1, 0.05, 0.2))
        rng = np.random.default_rng(8)
        x = SpinConfiguration(tuple(rng.choice([1, -1], size=8)))
        o = log_derivatives(a, x)
        step = 1e-6
        for r in range(4):
            up = list(a.lam)
            dn = list(a.lam)
            up[r] += step
            dn[r] -= step
            fd = (JastrowAnsatz(8, tuple(up)).log_psi(x)
                  - JastrowAnsatz(8, tuple(dn)).log_psi(x)) / (2 * step)
            assert o[r] == pytest.approx(fd, abs=1e-8)

    def test_shift_invariance(self):
        a = JastrowAnsatz(8, (0.3, -0.1, 0.05, 0.2))
        rng = np.random.default_rng(9)
        spins = tuple(rng.choice([1, -1], size=8))
        base = log_derivatives(a, SpinConfiguration(spins))
        rolled = spins[3:] + spins[:3]
        assert np.allclose(base,
                           log_derivatives(a, SpinConfiguration(rolled)))


class TestFeatureTable:
    @pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 12])
    def test_equals_features_of_every_spin_row(self, L):
        got = _feature_table(L)
        want = _log_derivative_matrix(JastrowAnsatz(L, (0.0,) * (L // 2)),
                                      all_spin_values(L))
        assert got.dtype == np.int8 and got.shape == want.shape
        assert got.astype(float).tobytes() == want.tobytes()

    def test_cached_read_only_int8_within_bound_at_16_sites(self):
        """A float64 table would take 4 MiB at L = 16; int8 takes 0.5."""
        _feature_table.cache_clear()
        tracemalloc.start()
        try:
            table = _feature_table(16)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.dtype == np.int8 and table.shape == (2 ** 16, 8)
        assert kept <= 0.6 * 2 ** 20
        assert not table.flags.writeable
        assert _feature_table(16) is table

    def test_amplitude_table_equals_exp_log_psi_at_16_sites(self):
        lam = tuple(np.random.default_rng(16).normal(size=8) / 16)
        a = JastrowAnsatz(16, lam)
        want = np.exp(a.log_psi_spins(all_spin_values(16)))
        assert a.amplitude_table().tobytes() == want.tobytes()

    def test_amplitude_table_above_the_cap_names_it(self):
        a = JastrowAnsatz(TABLE_CAP + 2, (0.0,) * (TABLE_CAP // 2 + 1))
        with pytest.raises(CapacityError, match=f"capped at {TABLE_CAP}"):
            a.amplitude_table()

    def test_sr_loop_reads_the_table(self, monkeypatch):
        """No feature is rebuilt from spin rows inside the step loop."""
        def no_roll(*args, **kwargs):
            raise AssertionError("np.roll called")

        monkeypatch.setattr(np, "roll", no_roll)
        run = run_sr_optimization(TFIMModel(L=6), n_steps=3,
                                  samples_per_step=256,
                                  rng=np.random.default_rng(3))
        assert run.lam_history.shape == (3, 3)


class TestSRStep:
    @pytest.mark.parametrize("counts,name", [
        ({"n_steps": 0}, "n_steps"),
        ({"n_steps": -2}, "n_steps"),
        ({"samples_per_step": 0}, "samples_per_step"),
    ])
    def test_counts_below_one_refused_by_name(self, counts, name):
        # n_steps = 0 used to return lam = (nan, nan) after "Mean of empty
        # slice" warnings; samples_per_step = 0 silently drew 64 records
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            run_sr_optimization(TFIMModel(L=4), **counts,
                                rng=np.random.default_rng(0))

    @pytest.mark.parametrize("delta", [-0.05, 0.0, np.nan, np.inf])
    def test_step_size_must_be_positive_and_finite(self, delta):
        # -0.05 used to climb away from the optimum, 0 to leave lam at 0,
        # and nan to return lam = (nan, nan), all silently
        with pytest.raises(ValueError, match="delta must be positive"):
            run_sr_optimization(TFIMModel(L=4), n_steps=2, delta=delta,
                                rng=np.random.default_rng(0))

    def test_samples_and_scores_through_the_public_functions(self,
                                                             monkeypatch):
        """One run_metropolis_chains call per step, one local_energy_table
        call per lambda (the start and each step's update)."""
        calls = {"run_metropolis_chains": 0, "local_energy_table": 0}

        def counting(name):
            fn = getattr(vmc, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in list(calls):
            monkeypatch.setattr(vmc, name, counting(name))
        run_sr_optimization(TFIMModel(L=4), n_steps=3, samples_per_step=128,
                            rng=np.random.default_rng(1))
        assert calls == {"run_metropolis_chains": 3, "local_energy_table": 4}

    def test_records_per_step_round_down_to_the_chain_count(self):
        """1 to 127 samples per step all draw 64 records, one per chain."""
        runs = [run_sr_optimization(TFIMModel(L=4), n_steps=3,
                                    samples_per_step=m,
                                    rng=np.random.default_rng(2))
                for m in (1, 64, 127)]
        for run in runs[1:]:
            assert np.array_equal(run.energies, runs[0].energies)

    def test_near_stationary_at_the_optimum(self):
        model = TFIMModel(L=10)
        a = JastrowAnsatz(10, OPTIMAL_LAM)
        samples = metropolis_sample(a, 8192, rng=np.random.default_rng(10))
        recs = local_energy_records(a, samples, model)
        stepped = sr_step(a, recs, delta=0.05)
        assert np.max(np.abs(np.asarray(stepped.lam)
                             - np.asarray(a.lam))) < 5e-3

    def test_full_run_reaches_reference_optimum(self):
        model = TFIMModel(L=10)
        e0, _ = ground_state(model.as_pauli_sum())
        run = run_sr_optimization(model, rng=np.random.default_rng(5))
        rel = abs(rayleigh_quotient(run.ansatz, model) - e0) / abs(e0)
        assert rel <= 2e-3
        for got, want in zip(run.ansatz.lam[:2], OPTIMAL_LAM[:2]):
            assert abs(got - want) / want < 0.10
        # energy history descends overall
        assert run.energies[-1] < run.energies[0]

    def test_sampled_s_matrix_matches_enumeration(self):
        model = TFIMModel(L=6)
        a = JastrowAnsatz(6, (0.25, 0.05, 0.02))
        w = a.amplitude_table() ** 2
        pi = w / w.sum()
        spins = all_spin_values(6)
        o_all = np.stack([np.sum(spins * np.roll(spins, -r, axis=1), axis=1)
                          for r in (1, 2, 3)], axis=1).astype(float)
        o_mean = pi @ o_all
        s_exact = (o_all.T * pi) @ o_all - np.outer(o_mean, o_mean)

        idx = run_metropolis_chains(a, 32, 1000, 500, 6,
                                    np.random.default_rng(11)).reshape(-1)
        o = o_all[idx]
        batches = np.array_split(np.arange(len(idx)), 16)
        per_batch = []
        for b in batches:
            ob = o[b]
            m = ob.mean(axis=0)
            per_batch.append((ob.T @ ob) / len(b) - np.outer(m, m))
        per_batch = np.array(per_batch)
        s_sample = per_batch.mean(axis=0)
        se = per_batch.std(axis=0, ddof=1) / np.sqrt(16)
        assert np.all(np.abs(s_sample - s_exact) < 5 * se + 1e-3)

    def test_singular_system_raises(self):
        model = TFIMModel(L=4)
        a = JastrowAnsatz(4, (0.1, 0.1))
        x = SpinConfiguration((1, 1, 1, 1))
        recs = local_energy_records(a, [x] * 10, model)
        # identical samples give S = 0; zero regularization must not hide it
        with pytest.raises(np.linalg.LinAlgError):
            sr_step(a, recs, delta=0.05, lam_reg=0.0)


# ---------------------------------------------------------------------------
# continuous harmonic toy
# ---------------------------------------------------------------------------

class TestHarmonicToy:
    def test_exact_at_matched_width(self):
        # theta = omega/2 with omega = 1 makes E_L constant at omega/2
        g = GaussianToy(theta=0.5, omega=1.0)
        rng = np.random.default_rng(12)
        for x in rng.normal(scale=3.0, size=1000):
            assert harmonic_local_energy(g, float(x)) == 0.5

    def test_origin_value_is_theta(self):
        g = GaussianToy(theta=0.7, omega=1.4)
        assert harmonic_local_energy(g, 0.0) == pytest.approx(0.7)

    def test_arithmetic_example(self):
        g = GaussianToy(theta=1.0, omega=2.0)
        assert harmonic_local_energy(g, 3.0) == pytest.approx(-8.0)

    def test_general_potential_form(self):
        g = GaussianToy(theta=0.4, omega=1.0)
        v = lambda x: 0.3 * x ** 4
        x = 1.7
        expected = 0.4 - 2 * 0.4 ** 2 * x ** 2 + 0.3 * x ** 4
        assert gaussian_local_energy(g, x, v) == pytest.approx(expected)

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            GaussianToy(theta=0.0, omega=1.0)
        with pytest.raises(ValueError):
            GaussianToy(theta=0.5, omega=-1.0)
