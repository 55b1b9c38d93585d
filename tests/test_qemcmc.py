"""Tests for classical spin models, quantum proposals, and chain diagnostics.

Statistical assertions run at fixed seeds with tolerances set from the
binomial / autocorrelation error bars of the corresponding run lengths.
Exact-kernel quantities (gaps, stationarity, detailed balance) are matrix
identities and get tight thresholds.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from spinlab import qemcmc
from spinlab.qemcmc import (
    CHEBYSHEV_MIN_QUBITS,
    ChainDiagnostics,
    ClassicalSpinModel,
    QuantumProposalConfig,
    TransitionMatrix,
    _chebyshev_columns,
    _evolved_columns,
    _quantum_step,
    _sector_columns,
    _trotter_columns,
    accept,
    assemble_kernel,
    autocorrelation_time,
    autocorrelation_time_pooled,
    boltzmann_distribution,
    build_proposal_matrix,
    energy,
    energy_table,
    exact_autocorrelation_time,
    ferromagnetic_chain,
    load_instance,
    magnetization_table,
    propose_quantum,
    run_chain,
    save_instance,
    single_flip_matrix,
    spectral_gap,
    spin_glass_instance,
    uniform_matrix,
)
from spinlab.pauli import PauliString, PauliSum
from spinlab.statevector import (
    CapacityError,
    SpinConfiguration,
    all_spin_values,
    basis_state,
    evolve,
)


def pair_energy_oracle(model: ClassicalSpinModel, spins) -> float:
    """Duplicate evaluation of V(x) with explicit loops over i < j pairs."""
    s = list(spins)
    total = 0.0
    for i in range(model.L):
        for j in range(i + 1, model.L):
            total -= model.couplings[i, j] * s[i] * s[j]
        total -= model.fields[i] * s[i]
    return total


def boltzmann_oracle(model: ClassicalSpinModel, beta: float) -> np.ndarray:
    """Enumerated Boltzmann weights built on the duplicate energy oracle."""
    v = np.array([pair_energy_oracle(model, all_spin_values(model.L)[i])
                  for i in range(2 ** model.L)])
    w = np.exp(-beta * (v - v.min()))
    return w / w.sum()


def dense_proposal_hamiltonian(model: ClassicalSpinModel,
                               gamma: float) -> np.ndarray:
    """diag(V) + gamma sum_k X_k via an explicit Kronecker construction."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    xsum = np.zeros((2 ** model.L, 2 ** model.L))
    for q in range(model.L):
        term = np.array([[1.0]])
        # qubit k advances with the bit order of the index convention
        for k in range(model.L):
            term = np.kron(x if k == q else eye, term)
        xsum += term
    return np.diag(energy_table(model)) + gamma * xsum


class TestClassicalSpinModel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ClassicalSpinModel(3, np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            ClassicalSpinModel(3, np.zeros((3, 3)), np.zeros(2))

    def test_symmetry_and_diagonal_validation(self):
        j = np.zeros((3, 3))
        j[0, 1] = 1.0
        with pytest.raises(ValueError):
            ClassicalSpinModel(3, j, np.zeros(3))
        with pytest.raises(ValueError):
            ClassicalSpinModel(3, np.eye(3), np.zeros(3))

    def test_spin_glass_couplings_symmetric_zero_diagonal(self):
        m = spin_glass_instance(6, np.random.default_rng(0))
        assert np.allclose(m.couplings, m.couplings.T)
        assert np.allclose(np.diag(m.couplings), 0.0)
        assert np.all(m.fields == 0.0)
        iu = np.triu_indices(6, 1)
        assert np.all(m.couplings[iu] != 0.0)

    def test_spin_glass_unknown_topology(self):
        with pytest.raises(ValueError):
            spin_glass_instance(4, np.random.default_rng(0), topology="tree")

    def test_instance_file_round_trip(self, tmp_path):
        m = spin_glass_instance(5, np.random.default_rng(3))
        path = tmp_path / "inst.json"
        save_instance(m, path, seed=3)
        back = load_instance(path)
        assert back.L == 5
        assert back.topology == "fully-connected"
        assert np.array_equal(back.couplings, m.couplings)
        assert np.array_equal(back.fields, m.fields)

    @pytest.mark.parametrize("field", ["L", "couplings", "fields"])
    def test_load_instance_names_missing_field(self, tmp_path, field):
        m = spin_glass_instance(4, np.random.default_rng(3))
        path = tmp_path / "inst.json"
        save_instance(m, path)
        payload = json.loads(path.read_text())
        del payload[field]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=rf"lacks field\(s\) {field}$"):
            load_instance(path)

    def test_load_instance_rejects_non_object(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_instance(path)

    @pytest.mark.parametrize("field,value", [
        ("L", 2.7), ("L", None), ("L", "abc"), ("L", True), ("L", 0),
        ("couplings", [[0, "abc"], ["abc", 0]]),
        ("couplings", [[0, 1], [1]]),
        ("couplings", [[0, float("nan")], [float("nan"), 0]]),
        ("couplings", [[0, 10 ** 400], [10 ** 400, 0]]),
        ("fields", [float("inf"), 0]),
        ("fields", [True, 0]),
        ("topology", 3),
    ], ids=["fractional-L", "null-L", "word-L", "bool-L", "zero-L",
            "string-coupling", "ragged-couplings", "nan-coupling",
            "overflow-coupling", "infinite-field", "bool-field",
            "number-topology"])
    def test_load_instance_names_bad_field(self, tmp_path, field, value):
        payload = {"L": 2, "couplings": [[0, 1], [1, 0]], "fields": [0, 0]}
        payload[field] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            load_instance(path)

    def test_mean_abs_coupling_ferromagnet(self):
        m = ferromagnetic_chain(6, J=0.5)
        assert m.mean_abs_coupling() == pytest.approx(0.5)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=12)
_ODD_CELL = st.sampled_from([float("nan"), float("inf"), -float("inf"),
                             10 ** 400, True, None, "1", [1.0]])


@st.composite
def _instance_docs(draw):
    """Well-formed instances with at most one defect: an odd cell, an
    asymmetric coupling, or one field replaced by arbitrary JSON."""
    L = draw(st.integers(1, 3))
    j = [[0.0] * L for _ in range(L)]
    for a in range(L):
        for b in range(a):
            j[a][b] = j[b][a] = draw(st.floats(-3, 3))
    doc = {"L": L, "couplings": j,
           "fields": draw(st.lists(st.floats(-3, 3), min_size=L,
                                   max_size=L))}
    defect = draw(st.sampled_from([None, "cell", "asymmetric", "L",
                                   "couplings", "fields", "topology"]))
    if defect == "cell":
        row = draw(st.sampled_from([doc["fields"]] + j))
        row[draw(st.integers(0, L - 1))] = draw(_ODD_CELL)
    elif defect == "asymmetric":
        j[0][L - 1] += 1.0
    elif defect is not None:
        doc[defect] = draw(_JSON)
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.one_of(_JSON, _instance_docs()))
def test_load_instance_rejects_only_with_named_value_errors(tmp_path, doc):
    """Any JSON document either loads as a finite model or raises a
    ValueError that names the offending field; nothing else escapes."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    try:
        m = load_instance(path)
    except ValueError as exc:
        assert re.search(r"\b(L|couplings|fields|topology)\b|JSON object",
                         str(exc)), exc
        return
    assert m.couplings.shape == (m.L, m.L) and m.fields.shape == (m.L,)
    assert np.all(np.isfinite(m.couplings)) and np.all(np.isfinite(m.fields))


class TestEnergy:
    def test_ferromagnet_all_up(self):
        m = ferromagnetic_chain(4, J=1.0, periodic=True)
        up = SpinConfiguration((1, 1, 1, 1))
        assert energy(m, up) == pytest.approx(-4.0)

    def test_field_only_model(self):
        h = np.array([0.3, -0.7, 1.1])
        m = ClassicalSpinModel(3, np.zeros((3, 3)), h)
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = rng.choice([-1, 1], size=3)
            got = energy(m, SpinConfiguration(tuple(int(v) for v in s)))
            assert got == pytest.approx(-float(h @ s))

    def test_energy_matches_pair_loop_oracle(self):
        m = spin_glass_instance(6, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = rng.choice([-1, 1], size=6)
            x = SpinConfiguration(tuple(int(v) for v in s))
            assert energy(m, x) == pytest.approx(pair_energy_oracle(m, s),
                                                 abs=1e-12)

    def test_energy_table_matches_pointwise(self):
        m = spin_glass_instance(5, np.random.default_rng(4))
        v = energy_table(m)
        for idx in range(32):
            x = SpinConfiguration.from_index(idx, 5)
            assert v[idx] == pytest.approx(energy(m, x), abs=1e-12)

    def test_boltzmann_matches_enumeration_oracle(self):
        m = spin_glass_instance(5, np.random.default_rng(5))
        pi = boltzmann_distribution(m, 1.7)
        assert np.allclose(pi, boltzmann_oracle(m, 1.7), atol=1e-12)
        assert pi.sum() == pytest.approx(1.0)

    def test_magnetization_table(self):
        mt = magnetization_table(4)
        assert mt[0] == 4          # index 0 is all spins up
        assert mt[15] == -4
        assert mt[1] == 2


class TestProposeQuantum:
    def test_short_time_limit_stays_put(self):
        m = spin_glass_instance(4, np.random.default_rng(6))
        cfg = QuantumProposalConfig(gamma_range=(0.2, 0.4),
                                    time_range=(1e-9, 2e-9))
        rng = np.random.default_rng(7)
        x = SpinConfiguration.from_index(9, 4)
        for _ in range(50):
            assert propose_quantum(m, x, cfg, rng).to_index() == 9

    def test_vanishing_field_stays_put(self):
        # diagonal Hamiltonian: evolution only adds phases
        m = spin_glass_instance(4, np.random.default_rng(8))
        cfg = QuantumProposalConfig(gamma_range=(1e-12, 2e-12))
        rng = np.random.default_rng(9)
        x = SpinConfiguration.from_index(5, 4)
        for _ in range(50):
            assert propose_quantum(m, x, cfg, rng).to_index() == 5

    def test_sampled_distribution_matches_expm_oracle(self):
        m = spin_glass_instance(3, np.random.default_rng(5))
        t_fix, g_fix = 3.7, 0.45
        col = expm(-1j * dense_proposal_hamiltonian(m, g_fix) * t_fix)[:, 5]
        probs = np.abs(col) ** 2
        cfg = QuantumProposalConfig(gamma_range=(g_fix, g_fix + 1e-12),
                                    time_range=(t_fix, t_fix + 1e-12))
        rng = np.random.default_rng(11)
        x = SpinConfiguration.from_index(5, 3)
        draws = np.array([propose_quantum(m, x, cfg, rng).to_index()
                          for _ in range(4000)])
        emp = np.bincount(draws, minlength=8) / 4000
        sigma = np.sqrt(probs * (1 - probs) / 4000)
        assert np.all(np.abs(emp - probs) < 5 * sigma + 1e-6)

    def test_trotter_matches_expm_oracle(self):
        # 128 steps leave a systematic of ~5e-5, far below the 5-sigma band
        m = spin_glass_instance(3, np.random.default_rng(5))
        t_fix, g_fix = 3.7, 0.45
        col = expm(-1j * dense_proposal_hamiltonian(m, g_fix) * t_fix)[:, 5]
        probs = np.abs(col) ** 2
        cfg = QuantumProposalConfig(gamma_range=(g_fix, g_fix + 1e-12),
                                    time_range=(t_fix, t_fix + 1e-12),
                                    evolution="trotter", trotter_steps=128)
        rng = np.random.default_rng(12)
        x = SpinConfiguration.from_index(5, 3)
        draws = np.array([propose_quantum(m, x, cfg, rng).to_index()
                          for _ in range(4000)])
        emp = np.bincount(draws, minlength=8) / 4000
        sigma = np.sqrt(probs * (1 - probs) / 4000)
        assert np.all(np.abs(emp - probs) < 5 * sigma + 1e-4)

    def test_trotter_columns_match_statevector_trotter(self):
        L, g, t, steps = 5, 0.7, 2.3, 9
        rng = np.random.default_rng(13)
        m = spin_glass_instance(L, rng)
        m = ClassicalSpinModel(L, m.couplings, rng.normal(size=L))
        terms = []
        for i in range(L):
            letters = ["I"] * L
            letters[i] = "Z"
            terms.append((-m.fields[i], PauliString("".join(letters))))
            terms.append((g, PauliString.single(L, i, "X")))
            for j in range(i + 1, L):
                letters = ["I"] * L
                letters[i] = letters[j] = "Z"
                terms.append((-m.couplings[i, j],
                              PauliString("".join(letters))))
        h = PauliSum.from_terms(L, terms)
        start = np.array([0, 7, 19, 31])
        cols = _trotter_columns(energy_table(m), g, t, start, steps)
        for c, x in enumerate(start):
            want = evolve(basis_state(L, int(x)), h, t, "trotter", steps)
            assert np.max(np.abs(cols[:, c] - want.amplitudes)) <= 1e-12

    def test_exact_capacity_limit(self):
        L = 13
        m = ClassicalSpinModel(L, np.zeros((L, L)), np.zeros(L))
        cfg = QuantumProposalConfig(gamma_range=(0.1, 0.2))
        with pytest.raises(CapacityError):
            propose_quantum(m, SpinConfiguration.from_index(0, L), cfg,
                            np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuantumProposalConfig(gamma_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            QuantumProposalConfig(gamma_range=(0.5, 0.1))
        with pytest.raises(ValueError):
            QuantumProposalConfig(gamma_range=(0.1, 0.5),
                                  time_range=(5.0, 2.0))
        with pytest.raises(ValueError):
            QuantumProposalConfig(gamma_range=(0.1, 0.5), evolution="magic")
        with pytest.raises(ValueError):
            QuantumProposalConfig(gamma_range=(0.1, 0.5), mix_single_flip=1.0)

    def test_for_model_scales_with_couplings(self):
        m = ferromagnetic_chain(6, J=2.0)
        cfg = QuantumProposalConfig.for_model(m)
        assert cfg.gamma_range == pytest.approx((0.2, 1.2))


class TestChebyshevPropagator:
    """The series path that the exact proposal takes from L = 9 up."""

    @pytest.mark.parametrize("L", [9, 10])
    @pytest.mark.parametrize("t", [2.0, 20.0])
    @pytest.mark.parametrize("end", [0, 1])
    def test_matches_dense_eigh(self, L, t, end):
        m = spin_glass_instance(L, np.random.default_rng(40 + L))
        g = QuantumProposalConfig.for_model(m).gamma_range[end]
        v = energy_table(m)
        start = np.array([0, 5, 2 ** L - 1, 2 ** (L - 1) + 3])
        cheb = _chebyshev_columns(v, g, t, start)
        dense = _evolved_columns(v, g, t, start)
        assert np.max(np.abs(cheb - dense)) <= 1e-12

    def test_column_matches_expm_multiply(self):
        m = spin_glass_instance(10, np.random.default_rng(43))
        t, g = 13.3, 0.41
        h = csr_matrix(dense_proposal_hamiltonian(m, g))
        e = np.zeros(2 ** 10)
        e[77] = 1.0
        ref = expm_multiply(-1j * t * h, e.astype(complex))
        col = _chebyshev_columns(energy_table(m), g, t, np.array([77]))
        assert np.max(np.abs(col[:, 0] - ref)) <= 1e-12

    def test_short_time_limit_stays_put(self):
        m = spin_glass_instance(10, np.random.default_rng(6))
        cfg = QuantumProposalConfig(gamma_range=(0.2, 0.4),
                                    time_range=(1e-9, 2e-9))
        rng = np.random.default_rng(7)
        x = SpinConfiguration.from_index(601, 10)
        for _ in range(20):
            assert propose_quantum(m, x, cfg, rng).to_index() == 601

    def test_vanishing_field_stays_put(self):
        m = spin_glass_instance(10, np.random.default_rng(8))
        cfg = QuantumProposalConfig(gamma_range=(1e-12, 2e-12))
        rng = np.random.default_rng(9)
        x = SpinConfiguration.from_index(333, 10)
        for _ in range(20):
            assert propose_quantum(m, x, cfg, rng).to_index() == 333

    def test_constant_hamiltonian_only_adds_a_phase(self):
        # zero field on a constant V: the spectral half-width is exactly 0
        v = np.full(2 ** 9, 1.5)
        col = _chebyshev_columns(v, 0.0, 4.0, np.array([12]))
        expected = np.zeros(2 ** 9, dtype=complex)
        expected[12] = np.exp(-1j * 1.5 * 4.0)
        assert np.allclose(col[:, 0], expected, atol=1e-15)

    @pytest.mark.parametrize("L,full_calls", [(CHEBYSHEV_MIN_QUBITS - 1, 3),
                                              (10, 0)])
    def test_dense_eigh_only_below_crossover(self, monkeypatch, L,
                                             full_calls):
        # zero fields take the two half-size sector eigh, nonzero fields
        # the full one; from the crossover up neither runs
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        m = spin_glass_instance(L, np.random.default_rng(44))
        run_chain(m, QuantumProposalConfig.for_model(m), 1.0, 3,
                  np.random.default_rng(45), n_chains=2)
        half = 2 ** (L - 1)
        assert all(s[-2:] == (half, half) for s in shapes)
        assert bool(shapes) == (L < CHEBYSHEV_MIN_QUBITS)
        shapes.clear()
        fielded = ClassicalSpinModel(L, m.couplings, np.full(L, 0.3))
        run_chain(fielded, QuantumProposalConfig.for_model(fielded), 1.0, 3,
                  np.random.default_rng(45), n_chains=2)
        assert shapes == [(2 ** L, 2 ** L)] * full_calls


class TestFlipSectorPropagator:
    """The two half-size blocks the exact proposal takes below the
    crossover when V(x) = V(~x), as for every zero-field instance."""

    @pytest.mark.parametrize("L", range(1, CHEBYSHEV_MIN_QUBITS))
    @pytest.mark.parametrize("kind", ["glass", "ferromagnet"])
    def test_matches_dense_eigh(self, L, kind):
        m = (spin_glass_instance(L, np.random.default_rng(60 + L))
             if kind == "glass" else ferromagnetic_chain(L, J=0.7))
        v = energy_table(m)
        dim = 2 ** L
        x = 5 % dim
        # both flip parities: x and ~x, 0 and dim-1
        start = np.array([0, dim - 1, x, (dim - 1) ^ x])
        for g in QuantumProposalConfig.for_model(m).gamma_range:
            for t in (2.0, 20.0):
                sector = _sector_columns(v, g, t, start)
                dense = _evolved_columns(v, g, t, start)
                assert np.max(np.abs(sector - dense)) <= 1e-12

    @pytest.mark.parametrize("L,n_chains,steps,mix", [
        (6, 1, 150, 0.0), (6, 4, 150, 0.3), (8, 1, 80, 0.0),
        (8, 4, 80, 0.0)])
    def test_proposals_equal_dense_path(self, monkeypatch, L, n_chains, steps,
                                        mix):
        m = spin_glass_instance(L, np.random.default_rng(70 + L))
        cfg = QuantumProposalConfig(
            QuantumProposalConfig.for_model(m).gamma_range,
            mix_single_flip=mix)
        v = energy_table(m)

        def walk():
            rng = np.random.default_rng(71)
            idx = rng.integers(0, 2 ** L, size=n_chains)
            out = []
            for _ in range(steps):
                idx = _quantum_step(v, cfg, idx, rng)
                out.append(idx)
            return np.array(out)

        sector = walk()
        monkeypatch.setattr(qemcmc, "_sector_columns", _evolved_columns)
        dense = walk()
        assert np.array_equal(sector, dense)
        # the walk crosses between the two halves of the index range
        assert np.any(sector < 2 ** (L - 1)) and np.any(sector >= 2 ** (L - 1))


class TestAccept:
    def test_infinite_temperature_always_accepts(self):
        m = ferromagnetic_chain(4)
        rng = np.random.default_rng(13)
        up = SpinConfiguration((1, 1, 1, 1))
        worst = SpinConfiguration((1, -1, 1, -1))
        assert all(accept(m, up, worst, 0.0, rng) for _ in range(100))

    def test_downhill_always_accepted(self):
        m = ferromagnetic_chain(4)
        rng = np.random.default_rng(14)
        up = SpinConfiguration((1, 1, 1, 1))
        mixed = SpinConfiguration((1, -1, 1, -1))
        assert all(accept(m, mixed, up, 50.0, rng) for _ in range(100))

    def test_uphill_bernoulli_rate(self):
        # flip one spin of the aligned state: dV = +4, so p = exp(-1.2)
        m = ferromagnetic_chain(4)
        up = SpinConfiguration((1, 1, 1, 1))
        flipped = SpinConfiguration((-1, 1, 1, 1))
        beta = 0.3
        p = np.exp(-beta * 4.0)
        rng = np.random.default_rng(15)
        n = 100_000
        hits = sum(accept(m, up, flipped, beta, rng) for _ in range(n))
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma


class TestRunChain:
    def test_magnetization_histogram_symmetric_at_low_beta(self):
        m = ferromagnetic_chain(6)
        mt = magnetization_table(6)
        rec, _ = run_chain(m, "single-flip", 0.2, 5000,
                           np.random.default_rng(30), n_chains=20)
        mags = mt[rec]
        per_chain = mags.mean(axis=1)
        se = per_chain.std(ddof=1) / np.sqrt(20)
        assert abs(mags.mean()) < 3 * se

    @pytest.mark.parametrize("proposal", ["single-flip", "uniform", "quantum"])
    def test_matches_boltzmann_total_variation(self, proposal):
        m = spin_glass_instance(6, np.random.default_rng(42))
        pi = boltzmann_distribution(m, 1.0)
        prop = (QuantumProposalConfig.for_model(m) if proposal == "quantum"
                else proposal)
        # 32 chains x 31250 records pool a million samples
        rec, diag = run_chain(m, prop, 1.0, 31250, np.random.default_rng(17),
                              n_chains=32)
        emp = np.bincount(rec.ravel(), minlength=64) / rec.size
        assert 0.5 * np.abs(emp - pi).sum() < 0.02
        assert 0.0 < diag.acceptance_rate <= 1.0

    def test_tunneling_contrast_on_double_well(self):
        # beta=3 ferromagnet: quantum moves cross between the aligned wells,
        # a single-flip chain of the same length stays in the one it entered
        m = ferromagnetic_chain(8)
        mt = magnetization_table(8)
        rq, _ = run_chain(m, QuantumProposalConfig.for_model(m), 3.0, 2500,
                          np.random.default_rng(0))
        rs, _ = run_chain(m, "single-flip", 3.0, 2500,
                          np.random.default_rng(0))
        mq, ms = mt[rq], mt[rs]
        assert (mq == 8).any() and (mq == -8).any()
        assert ((ms == 8).any()) != ((ms == -8).any())

    @pytest.mark.parametrize("proposal", ["single-flip", "uniform", "quantum"])
    def test_seeded_determinism(self, proposal):
        m = spin_glass_instance(5, np.random.default_rng(20))
        prop = (QuantumProposalConfig.for_model(m) if proposal == "quantum"
                else proposal)
        a, _ = run_chain(m, prop, 1.5, 300, np.random.default_rng(21),
                         n_chains=3)
        b, _ = run_chain(m, prop, 1.5, 300, np.random.default_rng(21),
                         n_chains=3)
        assert np.array_equal(a, b)

    def test_initial_state_respected(self):
        # at huge beta every uphill move is rejected, so the chain is frozen
        m = ferromagnetic_chain(5)
        rec, diag = run_chain(m, "single-flip", 1e9, 200,
                              np.random.default_rng(22),
                              initial=np.array([0]))
        assert np.all(rec == 0)
        assert diag.acceptance_rate == 0.0

    def test_record_every_shapes(self):
        m = ferromagnetic_chain(4)
        rec, _ = run_chain(m, "uniform", 1.0, 100, np.random.default_rng(23),
                           n_chains=2, record_every=10)
        assert rec.shape == (2, 10)
        single, _ = run_chain(m, "uniform", 1.0, 100,
                              np.random.default_rng(24), record_every=10)
        assert single.shape == (10,)

    def test_unknown_proposal_rejected(self):
        m = ferromagnetic_chain(4)
        with pytest.raises(ValueError):
            run_chain(m, "cluster", 1.0, 10, np.random.default_rng(0))

    def test_mixed_proposal_moves_when_quantum_part_is_frozen(self):
        # gamma ~ 0 makes the pure quantum chain sit still; the single-flip
        # admixture keeps it irreducible, one flipped site at a time
        m = ferromagnetic_chain(5)
        cfg = QuantumProposalConfig(gamma_range=(1e-12, 2e-12),
                                    mix_single_flip=0.5)
        rec, _ = run_chain(m, cfg, 0.0, 400, np.random.default_rng(25))
        assert len(np.unique(rec)) > 1
        hops = np.bitwise_count(rec[:-1] ^ rec[1:])
        assert hops.max() == 1

    def test_diagnostics_validation(self):
        with pytest.raises(ValueError):
            ChainDiagnostics(acceptance_rate=1.5, tau_energy=1.0)


class TestBuildProposalMatrix:
    def test_symmetric_and_row_stochastic(self):
        m = spin_glass_instance(4, np.random.default_rng(26))
        cfg = QuantumProposalConfig.for_model(m)
        t = build_proposal_matrix(m, cfg, K=8, rng=np.random.default_rng(27))
        assert np.max(np.abs(t.proposal - t.proposal.T)) < 1e-10
        assert np.max(np.abs(t.proposal.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(t.proposal >= 0.0)

    def test_vanishing_field_gives_identity(self):
        m = spin_glass_instance(4, np.random.default_rng(28))
        cfg = QuantumProposalConfig(gamma_range=(1e-12, 2e-12))
        t = build_proposal_matrix(m, cfg, K=4, rng=np.random.default_rng(29))
        assert np.max(np.abs(t.proposal - np.eye(16))) < 1e-10

    def test_mixed_proposal_combination(self):
        m = spin_glass_instance(4, np.random.default_rng(30))
        base = QuantumProposalConfig.for_model(m)
        mixed = QuantumProposalConfig(gamma_range=base.gamma_range,
                                      mix_single_flip=0.25)
        # same quadrature seed, so the quantum parts are identical
        tq = build_proposal_matrix(m, base, K=6, rng=np.random.default_rng(31))
        tm = build_proposal_matrix(m, mixed, K=6, rng=np.random.default_rng(31))
        expect = 0.75 * tq.proposal + 0.25 * single_flip_matrix(4).proposal
        assert np.allclose(tm.proposal, expect, atol=1e-12)

    def test_capacity_limit(self):
        L = 11
        m = ClassicalSpinModel(L, np.zeros((L, L)), np.zeros(L))
        cfg = QuantumProposalConfig(gamma_range=(0.1, 0.2))
        with pytest.raises(CapacityError):
            build_proposal_matrix(m, cfg, K=2, rng=np.random.default_rng(0))

    def test_classical_baseline_matrices(self):
        sf = single_flip_matrix(3).proposal
        assert np.allclose(sf.sum(axis=1), 1.0)
        assert np.allclose(sf, sf.T)
        assert sf[0, 0] == 0.0
        assert sf[0, 1] == pytest.approx(1 / 3)
        un = uniform_matrix(3).proposal
        assert np.allclose(un, 1 / 8)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            TransitionMatrix(proposal=np.array([[0.5, 0.2], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            TransitionMatrix(proposal=np.array([[1.5, -0.5], [0.5, 0.5]]))


class TestAssembleKernel:
    def test_infinite_temperature_kernel_equals_proposal(self):
        m = spin_glass_instance(4, np.random.default_rng(32))
        cfg = QuantumProposalConfig.for_model(m)
        t = build_proposal_matrix(m, cfg, K=8, rng=np.random.default_rng(33))
        p = assemble_kernel(t, m, 0.0)
        assert np.allclose(p.kernel, t.proposal, atol=1e-12)

    def test_detailed_balance(self):
        m = spin_glass_instance(4, np.random.default_rng(34))
        cfg = QuantumProposalConfig.for_model(m)
        t = build_proposal_matrix(m, cfg, K=8, rng=np.random.default_rng(35))
        p = assemble_kernel(t, m, 1.3)
        pi = boltzmann_distribution(m, 1.3)
        flow = pi[:, None] * p.kernel
        assert np.max(np.abs(flow - flow.T)) < 1e-10

    @pytest.mark.parametrize("kind", ["quantum", "single-flip"])
    def test_boltzmann_is_stationary(self, kind):
        m = spin_glass_instance(6, np.random.default_rng(36))
        if kind == "quantum":
            cfg = QuantumProposalConfig.for_model(m)
            t = build_proposal_matrix(m, cfg, K=16,
                                      rng=np.random.default_rng(37))
        else:
            t = single_flip_matrix(6)
        p = assemble_kernel(t, m, 2.0)
        pi = boltzmann_distribution(m, 2.0)
        assert np.max(np.abs(pi @ p.kernel - pi)) < 1e-8
        assert np.max(np.abs(p.kernel.sum(axis=1) - 1.0)) < 1e-10

    def test_size_mismatch_rejected(self):
        m = ferromagnetic_chain(3)
        with pytest.raises(ValueError):
            assemble_kernel(single_flip_matrix(4), m, 1.0)


class TestSpectralGap:
    def test_two_state_uniform_kernel(self):
        m = ClassicalSpinModel(1, np.zeros((1, 1)), np.zeros(1))
        p = assemble_kernel(uniform_matrix(1), m, 0.0)
        g = spectral_gap(p)
        assert g.delta == pytest.approx(1.0, abs=1e-12)
        assert not g.reducible

    def test_single_flip_gap_shrinks_with_beta(self):
        m = ferromagnetic_chain(6)
        deltas = [spectral_gap(assemble_kernel(single_flip_matrix(6), m, b)).delta
                  for b in (1.0, 2.0, 3.0)]
        assert deltas[0] > deltas[1] > deltas[2] > 0.0

    def test_identity_kernel_flagged_reducible(self):
        g = spectral_gap(np.eye(8))
        assert g.reducible
        assert g.delta <= 1e-14

    def test_quantum_gap_beats_single_flip_on_median(self):
        rng_base = 100
        ratios = []
        for i in range(20):
            m = spin_glass_instance(6, np.random.default_rng(rng_base + i))
            cfg = QuantumProposalConfig.for_model(m)
            t = build_proposal_matrix(m, cfg, K=16,
                                      rng=np.random.default_rng(200 + i))
            dq = spectral_gap(assemble_kernel(t, m, 2.0)).delta
            ds = spectral_gap(assemble_kernel(single_flip_matrix(6),
                                              m, 2.0)).delta
            ratios.append((dq, ds))
        med_q = np.median([r[0] for r in ratios])
        med_s = np.median([r[1] for r in ratios])
        assert med_q > med_s

    def test_missing_kernel_rejected(self):
        with pytest.raises(ValueError):
            spectral_gap(single_flip_matrix(3))


class TestAutocorrelationTime:
    def test_iid_series(self):
        x = np.random.default_rng(3).normal(size=100_000)
        assert autocorrelation_time(x) == pytest.approx(0.5, rel=0.10)

    def test_ar1_series(self):
        # tau = 0.5 (1 + phi) / (1 - phi) = 9.5 for phi = 0.9
        rng = np.random.default_rng(3)
        eps = rng.normal(size=101_000)
        x = np.empty(101_000)
        x[0] = 0.0
        for i in range(1, x.size):
            x[i] = 0.9 * x[i - 1] + eps[i]
        assert autocorrelation_time(x[1000:]) == pytest.approx(9.5, rel=0.15)

    def test_constant_series_returns_half_length(self):
        assert autocorrelation_time(np.ones(100)) == 50.0

    def test_requires_one_dimensional_series(self):
        with pytest.raises(ValueError):
            autocorrelation_time(np.ones((4, 4)))

    def test_pooled_single_row_matches_flat_call(self):
        x = np.random.default_rng(8).normal(size=5000)
        assert autocorrelation_time_pooled(x[None, :]) == pytest.approx(
            autocorrelation_time(x))

    def test_exact_time_on_rank_one_kernel(self):
        # every row equal to pi: samples are iid, tau is exactly 1/2
        pi = np.array([0.1, 0.2, 0.3, 0.4])
        p = np.tile(pi, (4, 1))
        f = np.array([1.0, -2.0, 0.5, 3.0])
        assert exact_autocorrelation_time(p, pi, f) == pytest.approx(0.5)

    def test_sampled_tau_matches_exact_kernel_single_flip(self):
        # ten glass instances; worst spread observed is 21% on the instance
        # with the slowest hidden mode, the median sits under 10%
        rels = []
        for i in range(10):
            m = spin_glass_instance(6, np.random.default_rng(300 + i))
            p = assemble_kernel(single_flip_matrix(6), m, 1.0)
            pi = boltzmann_distribution(m, 1.0)
            t_exact = exact_autocorrelation_time(p.kernel, pi,
                                                 energy_table(m))
            _, diag = run_chain(m, "single-flip", 1.0, 20_000,
                                np.random.default_rng(700 + i), n_chains=16)
            rels.append(abs(diag.tau_energy - t_exact) / t_exact)
        assert max(rels) < 0.30
        assert np.median(rels) < 0.12

    def test_sampled_tau_matches_exact_kernel_quantum(self):
        # the chain marginalizes (t, gamma) afresh each step while the matrix
        # uses K fixed draws, so the oracle itself carries quadrature error
        m = spin_glass_instance(6, np.random.default_rng(42))
        cfg = QuantumProposalConfig.for_model(m)
        t = build_proposal_matrix(m, cfg, K=64, rng=np.random.default_rng(9))
        p = assemble_kernel(t, m, 1.0)
        pi = boltzmann_distribution(m, 1.0)
        t_exact = exact_autocorrelation_time(p.kernel, pi, energy_table(m))
        _, diag = run_chain(m, cfg, 1.0, 8000, np.random.default_rng(10),
                            n_chains=16)
        assert diag.tau_energy == pytest.approx(t_exact, rel=0.35)


class TestGapOrderingMatchesTauOrdering:
    """Gap and autocorrelation orderings compared where the slow mode is
    the one the observable sees: the double-well ferromagnet with the
    magnetization.  For glass instances the energy observable can be nearly
    blind to the slowest kernel mode, so energy-tau ordering is checked
    against the exact-kernel tau oracle instead (test above)."""

    def test_beta_family_single_flip(self):
        m = ferromagnetic_chain(6)
        mt = magnetization_table(6)
        deltas, taus = [], []
        for beta in (1.0, 2.0, 3.0):
            p = assemble_kernel(single_flip_matrix(6), m, beta)
            deltas.append(spectral_gap(p).delta)
            rec, _ = run_chain(m, "single-flip", beta, 200_000,
                               np.random.default_rng(9), n_chains=16,
                               record_every=4)
            taus.append(autocorrelation_time_pooled(mt[rec], mean=0.0))
        assert deltas[0] > deltas[1] > deltas[2]
        assert taus[0] < taus[1] < taus[2]

    def test_sampled_tau_close_to_exact_at_moderate_beta(self):
        m = ferromagnetic_chain(6)
        mt = magnetization_table(6)
        p = assemble_kernel(single_flip_matrix(6), m, 1.0)
        pi = boltzmann_distribution(m, 1.0)
        t_exact = exact_autocorrelation_time(p.kernel, pi, mt)
        rec, _ = run_chain(m, "single-flip", 1.0, 200_000,
                           np.random.default_rng(9), n_chains=16,
                           record_every=4)
        t_hat = 4 * autocorrelation_time_pooled(mt[rec], mean=0.0)
        assert t_hat == pytest.approx(t_exact, rel=0.20)

    def test_quantum_versus_single_flip_matched_chains(self):
        m = ferromagnetic_chain(6)
        mt = magnetization_table(6)
        beta = 2.5
        cfg = QuantumProposalConfig.for_model(m)
        t = build_proposal_matrix(m, cfg, K=16, rng=np.random.default_rng(77))
        dq = spectral_gap(assemble_kernel(t, m, beta)).delta
        ds = spectral_gap(assemble_kernel(single_flip_matrix(6), m,
                                          beta)).delta
        rq, _ = run_chain(m, cfg, beta, 6000, np.random.default_rng(8),
                          n_chains=4)
        rs, _ = run_chain(m, "single-flip", beta, 6000,
                          np.random.default_rng(8), n_chains=4)
        tq = autocorrelation_time_pooled(mt[rq], mean=0.0)
        ts = autocorrelation_time_pooled(mt[rs], mean=0.0)
        assert dq > ds
        assert tq < ts
