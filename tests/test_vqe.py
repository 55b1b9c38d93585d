"""Circuit-ansatz preparation, shot-noise estimation, and optimizers."""

import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from spinlab.pauli import (MeasurementGroups, PauliString, PauliSum,
                           group_qubitwise)
from spinlab.statevector import (SpinConfiguration, StateVector, TFIMModel,
                                 apply_exp_x, apply_exp_zz, apply_pauli_sum,
                                 basis_state, ground_state, init_plus)
from spinlab.statevector import expectation, rotate_to_basis
from spinlab import vqe
from spinlab.vqe import (HVAnsatz, ShotPlan, _string_values,
                         amplitude_ratio_estimate, energy_and_gradient,
                         estimate_energy_pauli, estimate_energy_pauli_batch,
                         exact_energy, natural_gradient_step,
                         noisy_gradient_step, optimize_noiseless,
                         predicted_error, prepare, shot_budget,
                         shots_for_ratio_precision, sr_matrix)


def dense_pauli(label: str) -> np.ndarray:
    mats = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
            "Y": np.array([[0, -1j], [1j, 0]]),
            "Z": np.array([[1, 0], [0, -1]])}
    out = np.array([[1.0 + 0j]])
    for ch in label:  # leftmost letter = highest qubit
        out = np.kron(out, mats[ch])
    return out


def dense_sum(h: PauliSum) -> np.ndarray:
    dim = 2 ** h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, string in h.terms:
        out += coeff * dense_pauli(string.label())
    return out


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

class TestPrepare:
    def test_zero_angles_give_plus_state(self):
        a = HVAnsatz.zeros(TFIMModel(L=4), 3)
        assert np.allclose(prepare(a).amplitudes, init_plus(4).amplitudes)

    def test_zero_angle_energy_is_minus_gamma_l(self):
        # ZZ terms average to zero on |+...+>, X terms each give -Gamma
        for L, Gamma in ((4, 1.0), (6, 0.7)):
            model = TFIMModel(L=L, Gamma=Gamma)
            a = HVAnsatz.zeros(model, 2)
            assert exact_energy(a) == pytest.approx(-Gamma * L, abs=1e-12)

    def test_depth_one_matches_dense_exponentials(self):
        model = TFIMModel(L=2)
        theta = (0.37, -0.61)
        a = HVAnsatz(model, 1, theta)
        h1 = dense_sum(PauliSum.from_terms(
            2, [(-2.0 * model.J + 0j, PauliString("ZZ"))]))
        h2 = dense_sum(PauliSum.from_terms(
            2, [(-model.Gamma + 0j, PauliString("IX")),
                (-model.Gamma + 0j, PauliString("XI"))]))
        u = (scipy.linalg.expm(1j * theta[1] * h2)
             @ scipy.linalg.expm(1j * theta[0] * h1))
        expected = u @ init_plus(2).amplitudes
        assert np.max(np.abs(prepare(a).amplitudes - expected)) < 1e-10

    def test_parameter_count_enforced(self):
        with pytest.raises(ValueError):
            HVAnsatz(TFIMModel(L=4), 3, (0.0,) * 5)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def _check_central_finite_differences(model: TFIMModel, depth: int,
                                      seed: int) -> None:
    h = model.as_pauli_sum()
    rng = np.random.default_rng(seed)
    a = HVAnsatz(model, depth, tuple(rng.uniform(-0.6, 0.6, 2 * depth)))
    energy, grad = energy_and_gradient(a, h)
    assert energy == pytest.approx(exact_energy(a, h), abs=1e-12)
    step = 1e-5
    for j in range(a.n_params):
        up = np.asarray(a.params, dtype=float)
        dn = up.copy()
        up[j] += step
        dn[j] -= step
        fd = (exact_energy(a.with_params(up), h)
              - exact_energy(a.with_params(dn), h)) / (2 * step)
        assert grad[j] == pytest.approx(fd, abs=1e-6)


class TestGradient:
    @pytest.mark.parametrize("L,depth,seed", [(4, 2, 0), (6, 4, 1), (4, 3, 2)])
    def test_matches_central_finite_differences(self, L, depth, seed):
        _check_central_finite_differences(TFIMModel(L=L), depth, seed)

    def test_matches_finite_differences_open_chain(self):
        model = TFIMModel(L=5, J=0.8, Gamma=1.3, periodic=False)
        _check_central_finite_differences(model, 3, 4)


# ---------------------------------------------------------------------------
# bitwise regression: one layer at a time through the public layer functions
# ---------------------------------------------------------------------------

def _layer(j: int):
    return apply_exp_x if j % 2 else apply_exp_zz


def _generator(amps: np.ndarray, model: TFIMModel, j: int) -> np.ndarray:
    """H_1|amps> for even j, H_2|amps> for odd j; X_k summed k ascending."""
    if j % 2 == 0:
        return (-model.J * model.zz_sum_table()) * amps
    idx = np.arange(amps.size)
    out = np.zeros_like(amps)
    for k in range(model.L):
        out += amps[idx ^ (1 << k)]
    return -model.Gamma * out


def _ref_prepare(a: HVAnsatz) -> StateVector:
    s = init_plus(a.model.L)
    for j, theta in enumerate(a.params):
        s = _layer(j)(s, theta, a.model)
    return s


def _ref_energy_and_gradient(a: HVAnsatz, h: PauliSum):
    """H|psi> pulled back with forward and backward states kept apart."""
    fwd = _ref_prepare(a)
    energy = float(np.vdot(fwd.amplitudes, apply_pauli_sum(fwd, h)).real)
    bwd = StateVector(apply_pauli_sum(fwd, h))
    grad = np.zeros(a.n_params)
    for j in range(a.n_params - 1, -1, -1):
        g_a = _generator(fwd.amplitudes, a.model, j)
        grad[j] = -2.0 * float(np.imag(np.vdot(bwd.amplitudes, g_a)))
        fwd = _layer(j)(fwd, -a.params[j], a.model)
        bwd = _layer(j)(bwd, -a.params[j], a.model)
    return energy, grad


def _ref_sr_entries(a: HVAnsatz) -> np.ndarray:
    """S from derivative states that replay every later layer one by one."""
    states = [init_plus(a.model.L)]
    for j, theta in enumerate(a.params):
        states.append(_layer(j)(states[-1], theta, a.model))
    psi = states[-1].amplitudes
    derivs = np.zeros((a.n_params, psi.size), dtype=complex)
    for j in range(a.n_params):
        cur = StateVector(1j * _generator(states[j + 1].amplitudes, a.model, j))
        for k in range(j + 1, a.n_params):
            cur = _layer(k)(cur, a.params[k], a.model)
        derivs[j] = cur.amplitudes
    overlaps = derivs.conj() @ derivs.T
    with_psi = derivs.conj() @ psi
    s = np.real(overlaps - np.outer(with_psi, with_psi.conj()))
    return (s + s.T) / 2


BITWISE_CASES = [(L, J, gamma, periodic)
                 for L in (1, 2, 5, 10)
                 for J, gamma, periodic in ((0.8, 1.3, True),
                                            (-0.6, 0.4, False))]


def _bitwise_ansatz(L, J, gamma, periodic) -> HVAnsatz:
    rng = np.random.default_rng(L)
    return HVAnsatz(TFIMModel(L=L, J=J, Gamma=gamma, periodic=periodic), 3,
                    tuple(rng.uniform(-1.5, 1.5, 6)))


class TestBitwiseAgainstLayerByLayer:
    @pytest.mark.parametrize("L,J,gamma,periodic", BITWISE_CASES)
    def test_energy_and_gradient(self, L, J, gamma, periodic):
        a = _bitwise_ansatz(L, J, gamma, periodic)
        h = a.model.as_pauli_sum()
        energy, grad = energy_and_gradient(a, h)
        ref_energy, ref_grad = _ref_energy_and_gradient(a, h)
        assert energy == ref_energy
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("L,J,gamma,periodic", BITWISE_CASES)
    def test_prepare(self, L, J, gamma, periodic):
        a = _bitwise_ansatz(L, J, gamma, periodic)
        assert np.array_equal(prepare(a).amplitudes,
                              _ref_prepare(a).amplitudes)

    @pytest.mark.parametrize("L,J,gamma,periodic", BITWISE_CASES)
    def test_sr_matrix(self, L, J, gamma, periodic):
        a = _bitwise_ansatz(L, J, gamma, periodic)
        assert np.array_equal(sr_matrix(a).entries, _ref_sr_entries(a))

    @pytest.mark.parametrize("L,J,gamma,periodic", BITWISE_CASES)
    def test_exact_energy_is_the_state_expectation(self, L, J, gamma,
                                                   periodic):
        a = _bitwise_ansatz(L, J, gamma, periodic)
        for h in (a.model.as_pauli_sum(), _mixed_sum(L, 7)):
            assert expectation(prepare(a), h) == exact_energy(a, h)


# ---------------------------------------------------------------------------
# shot-noise estimation
# ---------------------------------------------------------------------------

class TestEstimateEnergyPauli:
    def test_single_z_term_on_zero_state_is_deterministic(self):
        h = PauliSum.from_terms(3, [(0.8 + 0j, PauliString("IIZ"))])
        groups = group_qubitwise(h)
        est = estimate_energy_pauli(basis_state(3, 0), h, groups,
                                    ShotPlan.uniform(groups.n_groups, 50),
                                    np.random.default_rng(0))
        assert est.mean == pytest.approx(0.8, abs=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)
        assert est.shots_used == 50

    def test_ground_state_unbiased_but_noisy(self):
        model = TFIMModel(L=10)
        h = model.as_pauli_sum()
        e0, v0 = ground_state(h)
        groups = group_qubitwise(h)
        plan = ShotPlan.uniform(groups.n_groups, 1000)
        est = estimate_energy_pauli(v0, h, groups, plan,
                                    np.random.default_rng(7))
        assert est.stderr > 0
        assert abs(est.mean - e0) < 3 * est.stderr

    def test_reported_stderr_matches_spread_of_means(self):
        # the error bar of one run should predict the scatter across runs
        model = TFIMModel(L=6)
        h = model.as_pauli_sum()
        _, v0 = ground_state(h)
        groups = group_qubitwise(h)
        plan = ShotPlan.uniform(groups.n_groups, 1000)
        rng = np.random.default_rng(12)
        ests = [estimate_energy_pauli(v0, h, groups, plan, rng)
                for _ in range(100)]
        spread = np.std([e.mean for e in ests], ddof=1)
        typical = np.mean([e.stderr for e in ests])
        assert abs(typical - spread) / spread < 0.25

    def test_unbiased_on_random_states(self):
        model = TFIMModel(L=6)
        h = model.as_pauli_sum()
        rng = np.random.default_rng(3)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        from spinlab.statevector import StateVector, expectation
        s = StateVector(amps / np.linalg.norm(amps))
        exact = expectation(s, h)
        groups = group_qubitwise(h)
        plan = ShotPlan.uniform(groups.n_groups, 400)
        means = [estimate_energy_pauli(s, h, groups, plan, rng).mean
                 for _ in range(200)]
        stderr = np.std(means, ddof=1)
        assert abs(np.mean(means) - exact) < 4 * stderr / np.sqrt(200)

    def test_plan_size_mismatch_rejected(self):
        h = TFIMModel(L=4).as_pauli_sum()
        groups = group_qubitwise(h)
        with pytest.raises(ValueError):
            estimate_energy_pauli(init_plus(4), h, groups, ShotPlan((10,)),
                                  np.random.default_rng(0))

    def test_shot_plan_requires_positive_counts(self):
        with pytest.raises(ValueError):
            ShotPlan((100, 0))


def _ref_estimate(s, h, groups, plan, rng):
    """The per-call estimator: rotate, plain inverse CDF and parities for
    every group of every repetition."""
    mean, var_of_mean = h.identity_coefficient().real, 0.0
    for grp, basis, m in zip(groups.groups, groups.bases, plan.shots_per_group):
        cum = np.cumsum(rotate_to_basis(s, basis).probabilities())
        cum /= cum[-1]
        shots = np.searchsorted(cum, rng.random(m), side="right")
        coeffs = np.array([h.terms[i][0].real for i in grp])
        masks = np.array([h.terms[i][1].mask() for i in grp], dtype=np.uint64)
        weighted = coeffs @ _string_values(masks, shots)
        mean += float(weighted.mean())
        if m > 1:
            var_of_mean += float(weighted.var(ddof=1)) / m
    return mean, float(np.sqrt(var_of_mean)), plan.total


def _mixed_sum(L: int, seed: int) -> PauliSum:
    rng = np.random.default_rng(seed)
    terms = [(complex(rng.normal()), PauliString(
        "".join(rng.choice(list("IXYZ"), size=L)))) for _ in range(3 * L)]
    return PauliSum.from_terms(L, terms)


class TestEstimateEnergyPauliBatch:
    # shot counts on both sides of the guide-table threshold, one draw per
    # CDF entry: 1, 100 and 257 shots search without a table at L = 10
    @pytest.mark.parametrize("L,m,reps", [(4, 1, 3), (6, 100, 30),
                                          (10, 100, 3), (10, 257, 2),
                                          (10, 1500, 4), (10, 5000, 2)])
    def test_equals_reference_per_generator(self, L, m, reps):
        model = TFIMModel(L=L, J=0.8, Gamma=1.3)
        s = prepare(_bitwise_ansatz(L, 0.8, 1.3, True))
        for h in (model.as_pauli_sum(), _mixed_sum(L, L)):
            groups = group_qubitwise(h)
            plan = ShotPlan(tuple(m + g for g in range(groups.n_groups)))
            ests = estimate_energy_pauli_batch(
                s, h, groups, plan,
                [np.random.default_rng(r) for r in range(reps)])
            assert len(ests) == reps
            for r, est in enumerate(ests):
                ref = _ref_estimate(s, h, groups, plan,
                                    np.random.default_rng(r))
                assert (est.mean, est.stderr, est.shots_used) == ref
                single = estimate_energy_pauli(s, h, groups, plan,
                                               np.random.default_rng(r))
                assert single == est

    def test_one_generator_listed_n_times_is_n_calls_on_it(self):
        h = TFIMModel(L=8).as_pauli_sum()
        groups = group_qubitwise(h)
        plan = ShotPlan.uniform(groups.n_groups, 300)
        s = prepare(_bitwise_ansatz(8, 1.0, 1.0, True))
        rng = np.random.default_rng(5)
        batch = estimate_energy_pauli_batch(s, h, groups, plan, [rng] * 12)
        rng = np.random.default_rng(5)
        assert batch == [estimate_energy_pauli(s, h, groups, plan, rng)
                         for _ in range(12)]
        assert rng.random() == np.random.default_rng(5).random(
            12 * plan.total + 1)[-1]

    def test_rotates_one_group_at_a_time_and_draws_every_shot(
            self, monkeypatch):
        # each group's rotated state is dropped before the next group is
        # rotated, and each generator gives exactly plan.total uniforms
        h = _mixed_sum(8, 3)
        groups = group_qubitwise(h)
        assert groups.n_groups > 2
        plan = ShotPlan.uniform(groups.n_groups, 500)
        s = prepare(_bitwise_ansatz(8, 1.0, 1.0, True))
        rotated = []

        def traced_rotate(state, basis):
            assert all(r() is None for r in rotated)
            out = rotate_to_basis(state, basis)
            rotated.append(weakref.ref(out))
            return out

        monkeypatch.setattr(vqe, "rotate_to_basis", traced_rotate)
        rngs = [np.random.default_rng(r) for r in range(3)]
        estimate_energy_pauli_batch(s, h, groups, plan, rngs)
        assert len(rotated) == groups.n_groups
        assert all(r() is None for r in rotated)
        for r, rng in enumerate(rngs):
            assert rng.random() == np.random.default_rng(r).random(
                plan.total + 1)[-1]

    def test_mixed_generators_are_single_calls_in_order(self):
        h = _mixed_sum(6, 4)
        groups = group_qubitwise(h)
        plan = ShotPlan(tuple(40 + 30 * g for g in range(groups.n_groups)))
        s = prepare(_bitwise_ansatz(6, 0.8, 1.3, True))
        r0, r1 = np.random.default_rng(1), np.random.default_rng(2)
        batch = estimate_energy_pauli_batch(s, h, groups, plan, [r0, r1, r0])
        q0, q1 = np.random.default_rng(1), np.random.default_rng(2)
        assert batch == [estimate_energy_pauli(s, h, groups, plan, q)
                         for q in (q0, q1, q0)]
        assert (r0.random(), r1.random()) == (q0.random(), q1.random())

    @pytest.mark.parametrize("m", [1023, 1024])
    def test_sign_table_built_only_from_2_to_the_L_shots(self, m,
                                                         monkeypatch):
        # 2^10 = 1024 basis indices: the guide table and the sign table
        # exist only when the shots cover them
        h = TFIMModel(L=10, J=0.8, Gamma=1.3).as_pauli_sum()
        groups = group_qubitwise(h)
        plan = ShotPlan.uniform(groups.n_groups, m)
        s = prepare(_bitwise_ansatz(10, 0.8, 1.3, True))
        tables, draws = [], []

        def spy(masks, indices):
            idx = np.asarray(indices)
            whole = idx.size == 1024 and np.array_equal(idx, np.arange(1024))
            (tables if whole else draws).append(len(masks))
            return _string_values(masks, indices)

        monkeypatch.setattr(vqe, "_string_values", spy)
        ests = estimate_energy_pauli_batch(
            s, h, groups, plan, [np.random.default_rng(r) for r in range(3)])
        if m == 1024:
            assert tables == [len(g) for g in groups.groups] and not draws
        else:
            assert not tables and len(draws) == 3 * groups.n_groups
        for r, est in enumerate(ests):
            assert (est.mean, est.stderr, est.shots_used) == _ref_estimate(
                s, h, groups, plan, np.random.default_rng(r))

    def test_no_generators_no_estimates_no_draws(self, monkeypatch):
        h = TFIMModel(L=4).as_pauli_sum()
        groups = group_qubitwise(h)
        drawn = []
        monkeypatch.setattr(vqe, "_inverse_cdf",
                            lambda *args: drawn.append(args))
        assert estimate_energy_pauli_batch(
            init_plus(4), h, groups,
            ShotPlan.uniform(groups.n_groups, 100), []) == []
        assert drawn == []

    def test_no_sign_table_below_2_to_the_L_shots(self):
        """At L = 16, 1000 shots per group: a (16, 2^16) sign table would
        take 8 MiB per group; the bound allows four state-sized arrays."""
        L = 16
        h = TFIMModel(L=L, J=0.8, Gamma=1.3).as_pauli_sum()
        groups = group_qubitwise(h)
        assert max(len(g) for g in groups.groups) == L
        s = init_plus(L)
        tracemalloc.start()
        try:
            estimate_energy_pauli_batch(
                s, h, groups, ShotPlan.uniform(groups.n_groups, 1000),
                [np.random.default_rng(0)] * 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * 2 ** L

    def test_plan_size_mismatch_rejected(self):
        h = TFIMModel(L=4).as_pauli_sum()
        groups = group_qubitwise(h)
        with pytest.raises(ValueError):
            estimate_energy_pauli_batch(init_plus(4), h, groups,
                                        ShotPlan((10,)),
                                        [np.random.default_rng(0)])


class TestPredictedError:
    def test_zero_on_joint_eigenstate(self):
        h = PauliSum.from_terms(3, [(1.0 + 0j, PauliString("IIZ")),
                                    (-0.5 + 0j, PauliString("ZZI"))])
        assert predicted_error(basis_state(3, 0), h,
                               ShotPlan.uniform(1, 100)) == pytest.approx(0.0)

    def test_scales_as_inverse_sqrt_shots(self):
        model = TFIMModel(L=6)
        h = model.as_pauli_sum()
        s = init_plus(6)
        groups = group_qubitwise(h)
        e1 = predicted_error(s, h, ShotPlan.uniform(groups.n_groups, 100))
        e4 = predicted_error(s, h, ShotPlan.uniform(groups.n_groups, 400))
        assert e1 / e4 == pytest.approx(2.0, rel=1e-12)

    def test_zero_variance_fails_for_pauli_estimator(self):
        # the exact eigenvector still fluctuates under basis-wise sampling
        model = TFIMModel(L=10)
        h = model.as_pauli_sum()
        _, v0 = ground_state(h)
        groups = group_qubitwise(h)
        plan = ShotPlan.uniform(groups.n_groups, 1000)
        assert predicted_error(v0, h, plan, groups) > 0.05
        est = estimate_energy_pauli(v0, h, groups, plan,
                                    np.random.default_rng(1))
        assert est.stderr > 0

    @staticmethod
    def _mixed_sum_and_state():
        rng = np.random.default_rng(3)
        labels = ["XXIIYZ", "XIIIYI", "IXIIYZ", "ZZZIII", "ZIZIII",
                  "YYIXXI", "IYIXII", "IIIZZZ", "IIIIIZ", "XIYIIX"]
        h = PauliSum.from_terms(6, [(rng.normal(), PauliString(lab))
                                    for lab in labels])
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        return h, StateVector(amps / np.linalg.norm(amps))

    def test_matches_dense_group_variance_oracle(self):
        # the grouped estimator reads every string of a group off one shot
        # record, so its variance is that of the group operator O_g, cross
        # terms included: sum_g (<O_g^2> - <O_g>^2) / M_g
        h, s = self._mixed_sum_and_state()
        groups = group_qubitwise(h)
        assert max(len(g) for g in groups.groups) > 1
        plan = ShotPlan(tuple(100 * (g + 2) for g in range(groups.n_groups)))
        psi = s.amplitudes
        want = 0.0
        for grp, m in zip(groups.groups, plan.shots_per_group):
            o_g = dense_sum(PauliSum.from_terms(6, [h.terms[i] for i in grp]))
            mean = np.vdot(psi, o_g @ psi).real
            want += (np.vdot(psi, o_g @ o_g @ psi).real - mean ** 2) / m
        got = predicted_error(s, h, plan, groups) ** 2
        assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_single_term_groups_reduce_to_independent_terms(self):
        h, s = self._mixed_sum_and_state()
        full = group_qubitwise(h)
        singles = MeasurementGroups(
            tuple((i,) for grp in full.groups for i in grp),
            tuple(b for grp, b in zip(full.groups, full.bases) for _ in grp))
        plan = ShotPlan.uniform(singles.n_groups, 500)
        psi = s.amplitudes
        want = sum(abs(c) ** 2
                   * (1.0 - np.vdot(psi, dense_pauli(p.label()) @ psi).real ** 2)
                   for c, p in h.terms) / 500
        got = predicted_error(s, h, plan, singles) ** 2
        assert got == pytest.approx(want, rel=0, abs=1e-12)


class TestShotBudget:
    def test_arithmetic(self):
        assert shot_budget(2, 10 ** 3, 100) == 2 * 10 ** 5
        assert shot_budget(1, 1, 1) == 1


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class TestOptimizeNoiseless:
    def test_small_instance_reaches_exact_ground_state(self):
        model = TFIMModel(L=2)
        e0, _ = ground_state(model.as_pauli_sum())
        res = optimize_noiseless(HVAnsatz.zeros(model, 1), restarts=2,
                                 rng=np.random.default_rng(0))
        assert abs(res.energy - e0) / abs(e0) < 1e-8

    def test_never_worse_than_initial_point(self):
        model = TFIMModel(L=4)
        rng = np.random.default_rng(5)
        a = HVAnsatz(model, 2, tuple(rng.uniform(-0.1, 0.1, 4)))
        start = exact_energy(a)
        res = optimize_noiseless(a, restarts=0, rng=rng, max_iter=3)
        assert res.energy <= start + 1e-12

    def test_derivative_free_method_also_descends(self):
        model = TFIMModel(L=4)
        a = HVAnsatz.zeros(model, 2)
        res = optimize_noiseless(a, method="derivative-free", restarts=1,
                                 rng=np.random.default_rng(2), max_iter=2000)
        assert res.energy < exact_energy(a) - 0.5

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            optimize_noiseless(HVAnsatz.zeros(TFIMModel(L=2), 1),
                               method="simulated-annealing",
                               rng=np.random.default_rng(0))


class TestNoisyGradientStep:
    def test_infinite_shot_limit_is_plain_gradient_step(self):
        model = TFIMModel(L=4)
        rng = np.random.default_rng(4)
        a = HVAnsatz(model, 2, tuple(rng.uniform(-0.3, 0.3, 4)))
        _, grad = energy_and_gradient(a, model.as_pauli_sum())
        expected = np.asarray(a.params) - 0.1 * grad
        stepped = noisy_gradient_step(a, 10 ** 14, 0.1,
                                      np.random.default_rng(0))
        assert np.max(np.abs(np.asarray(stepped.params) - expected)) < 1e-5

    def test_noise_variance_halves_when_shots_double(self):
        model = TFIMModel(L=4)
        a = HVAnsatz(model, 2, (0.2, -0.1, 0.05, 0.3))
        _, grad = energy_and_gradient(a, model.as_pauli_sum())
        drift = np.asarray(a.params) - 0.1 * grad

        def noise_var(M, seed):
            rng = np.random.default_rng(seed)
            kicks = [np.asarray(noisy_gradient_step(a, M, 0.1, rng).params)
                     - drift for _ in range(400)]
            return np.mean(np.var(kicks, axis=0))

        ratio = noise_var(50, 8) / noise_var(100, 9)
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_sample_threshold_separates_stall_from_convergence(self):
        # starved of shots the Langevin iteration wanders >1% away from the
        # optimum; with plentiful shots the same schedule stays converged.
        # The step sits inside the stability bound 2/lam_max of the local
        # Hessian (top curvature ~433 at this optimum).
        model = TFIMModel(L=6)
        h = model.as_pauli_sum()
        e0, _ = ground_state(h)
        opt = optimize_noiseless(HVAnsatz.zeros(model, 6), restarts=2,
                                 rng=np.random.default_rng(0), max_iter=200)
        assert abs(opt.energy - e0) / abs(e0) < 1e-10

        def stationary_error(M):
            rng = np.random.default_rng(5)
            a = opt.ansatz
            tail = []
            for t in range(300):
                a = noisy_gradient_step(a, M, 0.002, rng)
                if t >= 200:
                    tail.append(exact_energy(a, h))
            return abs(np.mean(tail) - e0) / abs(e0)

        # The injected noise has variance eps^2 ∝ 1/M, and equipartition
        # puts the stationary excess energy near eps^2 / (4 delta |E0|), so
        # it also falls as 1/M.  At this schedule M = 1e5 sits at 0.11-0.15%,
        # over the bound; M = 1e6 gives about 0.01%, well under 0.1%.
        assert stationary_error(4) > 0.01
        assert stationary_error(1_000_000) < 0.001

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            noisy_gradient_step(HVAnsatz.zeros(TFIMModel(L=2), 1), 100, 0.0,
                                np.random.default_rng(0))


# ---------------------------------------------------------------------------
# stochastic reconfiguration on the circuit
# ---------------------------------------------------------------------------

class TestSRMatrix:
    def test_first_entry_is_generator_variance(self):
        # S_00 equals Var(H_1) on the state right after the first layer
        model = TFIMModel(L=4)
        a = HVAnsatz(model, 1, (0.3, 0.0))
        from spinlab.statevector import apply_exp_zz
        s_after = apply_exp_zz(init_plus(4), 0.3, model)
        h1 = PauliSum.from_terms(4, [
            (-model.J + 0j, PauliString(lbl))
            for lbl in ("IIZZ", "IZZI", "ZZII", "ZIIZ")])
        dense = dense_sum(h1)
        amps = s_after.amplitudes
        mean = np.real(np.vdot(amps, dense @ amps))
        second = np.real(np.vdot(amps, dense @ (dense @ amps)))
        var = second - mean ** 2
        s = sr_matrix(a).entries
        assert s[0, 0] == pytest.approx(var, abs=1e-10)
        assert var >= 0

    @pytest.mark.parametrize("L,depth,seed", [(4, 2, 0), (6, 4, 3)])
    def test_matches_finite_difference_states(self, L, depth, seed):
        model = TFIMModel(L=L)
        rng = np.random.default_rng(seed)
        a = HVAnsatz(model, depth, tuple(rng.uniform(-0.5, 0.5, 2 * depth)))
        step = 1e-5
        n = a.n_params
        base = prepare(a).amplitudes
        derivs = np.zeros((n, base.size), dtype=complex)
        for j in range(n):
            up = np.asarray(a.params)
            dn = up.copy()
            up = up.copy()
            up[j] += step
            dn[j] -= step
            derivs[j] = (prepare(a.with_params(up)).amplitudes
                         - prepare(a.with_params(dn)).amplitudes) / (2 * step)
        overlaps = derivs.conj() @ derivs.T
        with_psi = derivs.conj() @ base
        expected = np.real(overlaps - np.outer(with_psi, with_psi.conj()))
        got = sr_matrix(a).entries
        assert np.max(np.abs(got - expected)) < 1e-6

    def test_symmetric_psd_for_random_parameters(self):
        model = TFIMModel(L=6)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            a = HVAnsatz(model, 4, tuple(rng.uniform(-1, 1, 8)))
            s = sr_matrix(a).entries
            assert np.allclose(s, s.T, atol=1e-10)
            assert np.linalg.eigvalsh(s).min() > -1e-8

    def test_block_projection_zeroes_cross_terms(self):
        model = TFIMModel(L=4)
        rng = np.random.default_rng(1)
        a = HVAnsatz(model, 3, tuple(rng.uniform(-0.5, 0.5, 6)))
        full = sr_matrix(a).entries
        blocked = sr_matrix(a, block_size=2).entries
        assert np.allclose(blocked[0:2, 0:2], full[0:2, 0:2])
        assert np.all(blocked[0:2, 2:] == 0)
        assert np.all(blocked[2:, 0:2] == 0)


class TestNaturalGradientStep:
    def test_large_regularization_recovers_scaled_gradient(self):
        model = TFIMModel(L=4)
        rng = np.random.default_rng(6)
        a = HVAnsatz(model, 2, tuple(rng.uniform(-0.4, 0.4, 4)))
        _, grad = energy_and_gradient(a, model.as_pauli_sum())
        lam = 1e8
        stepped = natural_gradient_step(a, 0.5, lam_reg=lam)
        move = (np.asarray(a.params) - np.asarray(stepped.params)) / 0.5
        assert np.allclose(move * lam, grad, rtol=1e-4, atol=1e-10)

    def test_preconditioning_beats_plain_gradient(self):
        # natural gradient reaches 1e-6 relative error in fewer iterations
        model = TFIMModel(L=6)
        h = model.as_pauli_sum()
        e0, _ = ground_state(h)
        start = HVAnsatz(model, 4, tuple(
            np.random.default_rng(3).uniform(-0.1, 0.1, 8)))
        delta = 0.05

        def iterations(kind, cap=3000):
            a = start
            for it in range(1, cap + 1):
                if kind == "plain":
                    _, g = energy_and_gradient(a, h)
                    a = a.with_params(np.asarray(a.params) - delta * g)
                else:
                    a = natural_gradient_step(a, delta)
                if abs(exact_energy(a, h) - e0) / abs(e0) <= 1e-6:
                    return it
            return cap + 1

        n_natural = iterations("natural")
        n_plain = iterations("plain")
        assert n_natural < n_plain


# ---------------------------------------------------------------------------
# amplitude ratios
# ---------------------------------------------------------------------------

class TestAmplitudeRatio:
    def test_identical_configurations_give_unit_ratio(self):
        s = init_plus(4)
        x = SpinConfiguration((1, 1, -1, 1))
        est = amplitude_ratio_estimate(s, x, x, 100, np.random.default_rng(0))
        assert est.ratio == 1.0
        assert est.stderr == 0.0
        assert est.defined

    def test_uniform_state_ratio_near_one(self):
        s = init_plus(6)
        x = SpinConfiguration((1,) * 6)
        y = SpinConfiguration((-1,) * 6)
        est = amplitude_ratio_estimate(s, x, y, 10 ** 5,
                                       np.random.default_rng(13))
        assert est.defined
        assert abs(est.ratio - 1.0) < 0.05

    def test_zero_denominator_flags_undefined(self):
        s = basis_state(3, 0)  # never samples any other configuration
        x = SpinConfiguration((-1, 1, 1))
        y = SpinConfiguration((1, 1, 1))
        est = amplitude_ratio_estimate(s, x, y, 1000,
                                       np.random.default_rng(0))
        assert not est.defined
        assert np.isnan(est.ratio)

    def test_required_shots_track_inverse_denominator_probability(self):
        model = TFIMModel(L=6)
        _, v0 = ground_state(model.as_pauli_sum())
        neel = SpinConfiguration(tuple(1 if k % 2 == 0 else -1
                                       for k in range(6)))
        spins = list(neel.spins)
        spins[0] = -spins[0]
        flip = SpinConfiguration(tuple(spins))
        easy = shots_for_ratio_precision(v0, SpinConfiguration((1,) * 6),
                                         flip, 0.10,
                                         np.random.default_rng(1))
        hard = shots_for_ratio_precision(v0, neel, flip, 0.10,
                                         np.random.default_rng(1))
        assert hard > easy
