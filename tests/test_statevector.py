"""State-vector layers, sampling, diagonalization, and evolution."""

import io

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from spinlab import statevector
from spinlab.pauli import PauliString, PauliSum
from spinlab.statevector import (
    CapacityError,
    SpinConfiguration,
    StateVector,
    TFIMModel,
    _guide_table,
    _inverse_cdf,
    _normalized_cdf,
    _rotate_qubits,
    all_spin_values,
    apply_exp_x,
    apply_exp_zz,
    basis_state,
    diagonal_values,
    dump_state,
    evolve,
    exact_spectrum,
    expectation,
    ground_state,
    init_plus,
    load_state,
    rotate_to_basis,
    rotate_to_x_basis,
    sample_indices,
    sample_z,
)


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector(amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# Encodings and model construction
# ---------------------------------------------------------------------------

class TestSpinConfiguration:
    def test_round_trip_all_indices(self):
        L = 6
        for idx in range(2 ** L):
            c = SpinConfiguration.from_index(idx, L)
            assert c.to_index() == idx

    def test_bit_zero_is_spin_up(self):
        c = SpinConfiguration.from_index(0, 3)
        assert c.spins == (1, 1, 1)
        c = SpinConfiguration.from_index(1, 3)  # bit 0 set -> spin 0 down
        assert c.spins == (-1, 1, 1)

    def test_rejects_bad_spins(self):
        with pytest.raises(ValueError):
            SpinConfiguration((1, 0, -1))

    def test_all_spin_values_table(self):
        L = 4
        table = all_spin_values(L)
        for idx in range(2 ** L):
            assert tuple(table[idx]) == SpinConfiguration.from_index(idx, L).spins


class TestTFIMModel:
    def test_term_count_periodic(self):
        for L in (3, 5, 10):
            h = TFIMModel(L=L).as_pauli_sum()
            assert len(h.non_identity_terms()) == 2 * L

    def test_open_boundary_has_fewer_bonds(self):
        h = TFIMModel(L=4, periodic=False).as_pauli_sum()
        assert len(h.non_identity_terms()) == 3 + 4

    def test_coefficients_real(self):
        assert TFIMModel(L=4, J=0.7, Gamma=1.3).as_pauli_sum().coefficients_real()

    def test_zz_table_matches_expectation(self):
        model = TFIMModel(L=4, J=1.0, Gamma=0.0)
        h = model.as_pauli_sum()
        table = model.zz_sum_table()
        for idx in (0, 3, 9, 15):
            s = basis_state(4, idx)
            assert expectation(s, h) == pytest.approx(-model.J * table[idx])


# ---------------------------------------------------------------------------
# Circuit layers
# ---------------------------------------------------------------------------

class TestLayers:
    def test_init_plus(self):
        s = init_plus(1)
        assert np.allclose(s.amplitudes, [2 ** -0.5, 2 ** -0.5])
        s = init_plus(10)
        assert np.allclose(s.amplitudes, 2.0 ** -5)
        for k in range(3):
            xk = PauliSum.from_terms(3, [(1.0, PauliString.single(3, k, "X"))])
            assert expectation(init_plus(3), xk) == pytest.approx(1.0)

    def test_init_plus_capacity(self):
        with pytest.raises(CapacityError):
            init_plus(27)

    @pytest.mark.parametrize("index", [-1, 8, 9])
    def test_basis_state_rejects_out_of_range_index(self, index):
        with pytest.raises(IndexError,
                           match=rf"basis index {index} out of range"):
            basis_state(3, index)

    def test_basis_state_capacity(self, monkeypatch):
        # a lowered ceiling keeps the over-cap register small
        monkeypatch.setattr(statevector, "MAX_STATE_QUBITS", 3)
        with pytest.raises(CapacityError):
            basis_state(4, 0)
        with pytest.raises(ValueError, match="at least one qubit"):
            basis_state(0, 0)

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(11)
        model = TFIMModel(L=3)
        s = random_state(3, rng)
        assert np.allclose(apply_exp_zz(s, 0.0, model).amplitudes, s.amplitudes)
        assert np.allclose(apply_exp_x(s, 0.0, model).amplitudes, s.amplitudes)

    def test_norm_preserved(self):
        rng = np.random.default_rng(12)
        model = TFIMModel(L=4, J=0.9, Gamma=1.1)
        s = random_state(4, rng)
        for theta in rng.normal(size=5):
            s = apply_exp_zz(s, theta, model)
            s = apply_exp_x(s, theta, model)
            assert abs(s.norm() - 1.0) < 1e-12

    def test_exp_zz_matches_dense_exponential(self):
        model = TFIMModel(L=2, J=0.8, Gamma=0.3)
        h1 = PauliSum.from_terms(2, [(-model.J, PauliString("ZZ")),
                                     (-model.J, PauliString("ZZ"))])
        rng = np.random.default_rng(13)
        s = random_state(2, rng)
        theta = 0.37
        want = scipy.linalg.expm(1j * theta * h1.dense()) @ s.amplitudes
        got = apply_exp_zz(s, theta, model).amplitudes
        assert np.allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("L,periodic", [(1, True), (4, False), (9, True)])
    def test_exp_zz_matches_full_table_phases_bitwise(self, L, periodic):
        model = TFIMModel(L=L, J=-0.7, periodic=periodic)
        s = random_state(L, np.random.default_rng(L))
        for theta in (0.37, -2.9):
            want = s.amplitudes * np.exp(1j * theta * (-model.J)
                                         * model.zz_sum_table())
            assert np.array_equal(apply_exp_zz(s, theta, model).amplitudes,
                                  want)

    @pytest.mark.parametrize("L", [1, 3, 8])
    def test_exp_x_matches_qubit_by_qubit_bitwise(self, L):
        model = TFIMModel(L=L, Gamma=1.3)
        s = random_state(L, np.random.default_rng(L))
        idx = np.arange(2 ** L)
        for theta in (0.37, -2.9):
            a = theta * model.Gamma
            c, d = np.cos(a), -1j * np.sin(a)
            want = s.amplitudes.copy()
            for k in range(L):
                lo = idx[(idx >> k) & 1 == 0]
                a0, a1 = want[lo], want[lo | (1 << k)]
                want[lo], want[lo | (1 << k)] = c * a0 + d * a1, d * a0 + c * a1
            assert np.array_equal(apply_exp_x(s, theta, model).amplitudes,
                                  want)

    def test_exp_x_matches_dense_exponential(self):
        model = TFIMModel(L=3, J=0.8, Gamma=0.6)
        terms = [(-model.Gamma, PauliString.single(3, k, "X")) for k in range(3)]
        h2 = PauliSum.from_terms(3, terms)
        rng = np.random.default_rng(14)
        s = random_state(3, rng)
        theta = -0.52
        want = scipy.linalg.expm(1j * theta * h2.dense()) @ s.amplitudes
        got = apply_exp_x(s, theta, model).amplitudes
        assert np.allclose(got, want, atol=1e-10)

    def test_exp_x_commutes_with_global_flip(self):
        model = TFIMModel(L=3)
        flip = PauliString("XXX")
        rng = np.random.default_rng(15)
        s = random_state(3, rng)
        a = apply_exp_x(StateVector(s.amplitudes[_flip_perm(3)]), 0.4, model)
        b = apply_exp_x(s, 0.4, model)
        assert np.allclose(a.amplitudes, b.amplitudes[_flip_perm(3)], atol=1e-12)
        assert flip.n_qubits == 3


class TestRotationKernel:
    def test_block_matches_separate_columns_bitwise(self):
        rng = np.random.default_rng(30)
        n, m = 6, 5
        gates = []
        for k in (3, 0, 5, 3, 1):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2))
                                + 1j * rng.normal(size=(2, 2)))
            gates.append((k, q))
        block = rng.normal(size=(2 ** n, m)) + 1j * rng.normal(size=(2 ** n, m))
        cols = [block[:, c].copy() for c in range(m)]
        _rotate_qubits(block, gates)
        for c, col in enumerate(cols):
            _rotate_qubits(col, gates)
            assert np.array_equal(block[:, c], col)

    def test_flat_row_stack_matches_separate_rows_bitwise(self):
        rng = np.random.default_rng(31)
        n, m = 5, 3
        gates = [(k, scipy.linalg.expm(-1j * rng.normal() * np.array(
            [[0, 1], [1, 0]]))) for k in (4, 0, 2, 0)]
        stack = rng.normal(size=(m, 2 ** n)) + 1j * rng.normal(size=(m, 2 ** n))
        rows = [row.copy() for row in stack]
        _rotate_qubits(stack.reshape(-1), gates)
        for r, row in enumerate(rows):
            _rotate_qubits(row, gates)
            assert np.array_equal(stack[r], row)


def _flip_perm(n: int) -> np.ndarray:
    return np.arange(2 ** n) ^ (2 ** n - 1)


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------

class TestExpectation:
    def test_z_on_zero(self):
        s = basis_state(1, 0)
        z = PauliSum.from_terms(1, [(1.0, PauliString("Z"))])
        assert expectation(s, z) == pytest.approx(1.0)

    def test_single_site_analytic(self):
        J, Gamma = 0.6, 1.7
        h = PauliSum.from_terms(1, [(-J, PauliString("I")),
                                    (-Gamma, PauliString("X"))])
        assert expectation(init_plus(1), h) == pytest.approx(-J - Gamma)

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(16)
        h = TFIMModel(L=4, J=1.2, Gamma=0.7).as_pauli_sum()
        mat = h.dense()
        for _ in range(5):
            s = random_state(4, rng)
            want = np.vdot(s.amplitudes, mat @ s.amplitudes).real
            assert expectation(s, h) == pytest.approx(want, abs=1e-12)

    def test_invariant_under_term_order(self):
        rng = np.random.default_rng(17)
        s = random_state(3, rng)
        terms = [(0.5, PauliString("XYZ")), (-1.5, PauliString("ZZI")),
                 (0.25, PauliString("IIX"))]
        a = PauliSum.from_terms(3, terms)
        b = PauliSum.from_terms(3, terms[::-1])
        assert expectation(s, a) == pytest.approx(expectation(s, b))

    def test_non_hermitian_rejected(self):
        s = init_plus(1)
        h = PauliSum.from_terms(1, [(1j, PauliString("X"))])
        with pytest.raises(ValueError):
            expectation(s, h)

    def test_ground_vector_energy(self):
        h = TFIMModel(L=10).as_pauli_sum()
        e0, v0 = ground_state(h)
        assert expectation(v0, h) == pytest.approx(e0, abs=1e-9)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

class TestSampling:
    def test_basis_state_is_deterministic(self):
        rng = np.random.default_rng(18)
        samples = sample_z(basis_state(3, 0), 50, rng)
        assert all(c.spins == (1, 1, 1) for c in samples)

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(19)
        M = 10 ** 5
        counts = np.zeros(4)
        for c in sample_z(init_plus(2), M, rng):
            counts[c.to_index()] += 1
        sigma = np.sqrt(M * 0.25 * 0.75)
        assert np.all(np.abs(counts - M * 0.25) < 5 * sigma)

    def test_chi_square_against_exact_probabilities(self):
        rng = np.random.default_rng(20)
        s = random_state(6, rng)
        M = 10 ** 6
        counts = np.bincount([c.to_index() for c in sample_z(s, M, rng)],
                             minlength=64)
        _, p = chisquare(counts, M * s.probabilities())
        assert p > 1e-3

    def test_seed_reproducibility(self):
        s = random_state(5, np.random.default_rng(21))
        a = sample_z(s, 100, np.random.default_rng(99))
        b = sample_z(s, 100, np.random.default_rng(99))
        assert [c.spins for c in a] == [c.spins for c in b]


# weights with runs of zeros, and small integers whose CDF steps land on
# bucket edges when their total is a power of two
_WEIGHTS = st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0])
                    | st.floats(0.0, 1.0), min_size=1, max_size=80).filter(
                        lambda w: sum(w) > 0)


@st.composite
def _cdf_and_uniforms(draw):
    cum = _normalized_cdf(np.array(draw(_WEIGHTS)))
    table = _guide_table(cum, draw(st.integers(cum.size, 2 ** 17)))
    G = table.size
    edges = [b / G for b in draw(st.lists(st.integers(0, G - 1),
                                          max_size=20))]
    at_cdf = [c for c in cum if c < 1.0]
    near = [np.nextafter(c, 0.0) for c in at_cdf if c > 0.0]
    u = [0.0] + edges + at_cdf + near + draw(st.lists(
        st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    return cum, table, np.array(u)


class TestGuideTable:
    @settings(max_examples=300, deadline=None)
    @given(case=_cdf_and_uniforms())
    def test_equals_searchsorted(self, case):
        cum, table, u = case
        assert np.array_equal(_inverse_cdf(cum, table, u),
                              np.searchsorted(cum, u, side="right"))

    def test_trailing_ones_and_zero_runs(self):
        cum = _normalized_cdf(np.array([0.0, 0.0, 0.25, 0.0, 0.25, 0.5,
                                        0.0, 0.0]))
        assert np.array_equal(cum[-3:], [1.0, 1.0, 1.0])
        table = _guide_table(cum, 4096)
        G = table.size
        u = np.concatenate([np.arange(G) / G, [0.25, 0.5, 1 - 2 ** -53]])
        assert np.array_equal(_inverse_cdf(cum, table, u),
                              np.searchsorted(cum, u, side="right"))

    @pytest.mark.parametrize("n_draws,size,buckets", [
        (3, 4, None),
        (4, 4, 4),
        (5, 4, 8),
        (10 ** 4, 2 ** 10, 2 ** 14),
        (2 ** 14, 2 ** 14, 2 ** 14),
        (10 ** 4, 2 ** 15, None),
        (2 ** 20 + 1, 4, 2 ** 21),
    ])
    def test_sized_from_the_draws_it_serves(self, n_draws, size, buckets):
        table = _guide_table(_normalized_cdf(np.ones(size)), n_draws)
        assert (None if table is None else table.size) == buckets

    @pytest.mark.parametrize("M", [10, 4096])
    @pytest.mark.parametrize("amps", [[0, 0, 0, 0], [np.nan, 1, 0, 0]],
                             ids=["zero", "nan"])
    def test_unnormalizable_state_rejected(self, amps, M):
        # such a state has no distribution; it once gave index 0 for every
        # shot
        with pytest.raises(ValueError, match="norm"):
            sample_indices(StateVector(np.array(amps, dtype=complex)), M,
                           np.random.default_rng(0))

    @pytest.mark.parametrize("L,M", [(6, 10 ** 3), (10, 10 ** 2),
                                     (10, 10 ** 4), (12, 10 ** 5)])
    def test_sample_indices_matches_plain_inverse_cdf(self, L, M):
        s = random_state(L, np.random.default_rng(L))
        cum = np.cumsum(s.probabilities())
        cum /= cum[-1]
        ref = np.searchsorted(cum, np.random.default_rng(M).random(M),
                              side="right")
        got = sample_indices(s, M, np.random.default_rng(M))
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


class TestBasisRotation:
    def test_involution(self):
        rng = np.random.default_rng(22)
        s = random_state(4, rng)
        back = rotate_to_x_basis(rotate_to_x_basis(s))
        assert np.allclose(back.amplitudes, s.amplitudes, atol=1e-12)

    def test_plus_maps_to_zero(self):
        s = rotate_to_x_basis(init_plus(3))
        want = np.zeros(8)
        want[0] = 1.0
        assert np.allclose(s.amplitudes, want, atol=1e-12)

    def test_x_expectation_becomes_z(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            s = random_state(3, rng)
            x1 = PauliSum.from_terms(3, [(1.0, PauliString.single(3, 1, "X"))])
            z1 = PauliSum.from_terms(3, [(1.0, PauliString.single(3, 1, "Z"))])
            assert expectation(s, x1) == pytest.approx(
                expectation(rotate_to_x_basis(s), z1))

    def test_general_basis_rotation_y(self):
        rng = np.random.default_rng(24)
        s = random_state(2, rng)
        y0 = PauliSum.from_terms(2, [(1.0, PauliString.single(2, 0, "Y"))])
        z0 = PauliSum.from_terms(2, [(1.0, PauliString.single(2, 0, "Z"))])
        rotated = rotate_to_basis(s, "YZ")
        assert expectation(s, y0) == pytest.approx(expectation(rotated, z0))

    def test_mixed_basis_matches_kronecker_product(self):
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
        rot = {"Z": np.eye(2), "X": hadamard,
               "Y": hadamard @ np.diag([1.0, -1.0j])}
        basis = "XYZYX"
        dense = np.array([[1.0]])
        for b in basis:  # qubit k is bit k, so later qubits go on the left
            dense = np.kron(rot[b], dense)
        s = random_state(5, np.random.default_rng(31))
        got = rotate_to_basis(s, basis).amplitudes
        assert np.allclose(got, dense @ s.amplitudes, atol=1e-13)

    @pytest.mark.parametrize("basis,letter,pos", [("ZIX", "I", 1),
                                                  ("XZx", "x", 2)])
    def test_unknown_letter_named(self, basis, letter, pos):
        s = random_state(3, np.random.default_rng(32))
        with pytest.raises(ValueError, match=f"'{letter}' at qubit {pos}"):
            rotate_to_basis(s, basis)


# ---------------------------------------------------------------------------
# Diagonalization
# ---------------------------------------------------------------------------

class TestSpectrum:
    def test_single_site(self):
        h = PauliSum.from_terms(1, [(-0.5, PauliString("I")),
                                    (-1.5, PauliString("X"))])
        pairs = exact_spectrum(h, 2)
        assert pairs[0][0] == pytest.approx(-2.0)
        assert pairs[1][0] == pytest.approx(1.0)

    def test_l2_matches_hand_assembled(self):
        # periodic L=2 doubles the bond: H = -2J Z0Z1 - Gamma(X0+X1)
        J, Gamma = 1.0, 0.5
        h = TFIMModel(L=2, J=J, Gamma=Gamma).as_pauli_sum()
        zz = np.diag([1.0, -1.0, -1.0, 1.0])
        x0 = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
        x1 = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
        dense = -2 * J * zz - Gamma * (x0 + x1)
        want = np.linalg.eigvalsh(dense)
        got = [e for e, _ in exact_spectrum(h, 4)]
        assert np.allclose(got, want, atol=1e-12)

    def test_eigen_residuals(self):
        h = TFIMModel(L=5, J=0.8, Gamma=1.2).as_pauli_sum()
        mat = h.dense()
        for val, vec in exact_spectrum(h, 4):
            r = mat @ vec.amplitudes - val * vec.amplitudes
            assert np.linalg.norm(r) < 1e-9

    def test_ascending_and_sign_convention(self):
        h = TFIMModel(L=3).as_pauli_sum()
        pairs = exact_spectrum(h, 8)
        vals = [e for e, _ in pairs]
        assert vals == sorted(vals)
        for _, vec in pairs:
            first = vec.amplitudes[np.flatnonzero(np.abs(vec.amplitudes) > 1e-8)[0]]
            assert first.real > 0 and abs(first.imag) < 1e-12

    def test_capacity(self):
        h = TFIMModel(L=13).as_pauli_sum()
        for solve in (exact_spectrum, ground_state):
            with pytest.raises(CapacityError):
                solve(h)


def _assert_ground_state_matches_dense(h: PauliSum) -> None:
    """Lanczos against the dense eigh: E0 within 16 ulp, and the same
    sign-fixed vector."""
    (e_ref, v_ref), = exact_spectrum(h, 1)
    e0, v0 = ground_state(h)
    assert abs(e0 - e_ref) <= 16 * np.spacing(abs(e_ref))
    assert np.vdot(v_ref.amplitudes, v0.amplitudes).real >= 1 - 1e-12
    amps = v0.amplitudes
    first = amps[np.flatnonzero(np.abs(amps) > 1e-8)[0]]
    assert first.real > 0 and abs(first.imag) < 1e-12


class TestGroundState:
    # Gamma < 0 puts the ground state of an odd open chain in the odd X
    # parity sector, which an all-ones start vector misses
    @pytest.mark.parametrize("periodic", [False, True],
                             ids=["open", "periodic"])
    @pytest.mark.parametrize("J,Gamma", [(1.0, 1.0), (0.8, 1.3), (-0.6, 0.4),
                                         (1.0, -0.8)])
    @pytest.mark.parametrize("L", range(1, 11))
    def test_tfim_matches_dense(self, L, J, Gamma, periodic):
        _assert_ground_state_matches_dense(
            TFIMModel(L, J, Gamma, periodic).as_pauli_sum())

    def test_sum_with_y_letters_matches_dense(self):
        rng = np.random.default_rng(3)
        terms = [(rng.normal(),
                  PauliString("".join(rng.choice(list("IXYZ"), size=6))))
                 for _ in range(12)]
        h = PauliSum.from_terms(6, terms)
        # odd Y counts give imaginary entries, so the complex path runs
        assert h.sparse().dtype == complex
        (e0, _), (e1, _) = exact_spectrum(h, 2)
        assert e1 - e0 > 0.1  # a unique ground state to compare
        _assert_ground_state_matches_dense(h)

    def test_sum_without_terms(self):
        _assert_ground_state_matches_dense(PauliSum.from_terms(3, []))


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

class TestEvolve:
    def test_zero_time_identity(self):
        rng = np.random.default_rng(25)
        s = random_state(3, rng)
        h = TFIMModel(L=3).as_pauli_sum()
        for method in ("exact", "trotter"):
            out = evolve(s, h, 0.0, method=method, steps=3)
            assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-12)

    def test_exact_matches_expm(self):
        rng = np.random.default_rng(26)
        s = random_state(3, rng)
        h = TFIMModel(L=3, J=0.9, Gamma=1.4).as_pauli_sum()
        t = 0.63
        want = scipy.linalg.expm(-1j * t * h.dense()) @ s.amplitudes
        got = evolve(s, h, t, method="exact").amplitudes
        assert np.allclose(got, want, atol=1e-10)

    def test_energy_conserved(self):
        rng = np.random.default_rng(27)
        s = random_state(4, rng)
        h = TFIMModel(L=4).as_pauli_sum()
        before = expectation(s, h)
        after = expectation(evolve(s, h, 2.5, method="exact"), h)
        assert abs(after - before) < 1e-10

    def test_trotter_halving_error_ratio(self):
        rng = np.random.default_rng(28)
        s = random_state(4, rng)
        h = TFIMModel(L=4).as_pauli_sum()
        t = 1.0
        exact = evolve(s, h, t, method="exact").amplitudes
        errs = []
        for steps in (64, 128, 256):
            tr = evolve(s, h, t, method="trotter", steps=steps).amplitudes
            errs.append(np.linalg.norm(tr - exact))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.1)

    def test_trotter_site_dependent_field_converges(self):
        # distinct c_k per qubit: a gate built from the wrong coefficient
        # leaves an error that does not shrink with the step count
        n = 4
        rng = np.random.default_rng(33)
        s = random_state(n, rng)
        terms = [(-0.8, PauliString("ZZII")), (0.5, PauliString("IZZI")),
                 (-1.1, PauliString("IIZZ")), (0.3, PauliString("ZIII"))]
        for k, c in enumerate((0.4, -1.3, 0.9, 2.1)):
            terms.append((c, PauliString.single(n, k, "X")))
        h = PauliSum.from_terms(n, terms)
        t = 1.0
        exact = evolve(s, h, t, method="exact").amplitudes
        errs = [np.linalg.norm(evolve(s, h, t, method="trotter",
                                      steps=steps).amplitudes - exact)
                for steps in (64, 128, 256)]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.1)
        assert errs[2] < 1e-2

    def test_trotter_unitary(self):
        rng = np.random.default_rng(29)
        s = random_state(3, rng)
        h = TFIMModel(L=3).as_pauli_sum()
        out = evolve(s, h, 3.0, method="trotter", steps=10)
        assert abs(out.norm() - 1.0) < 1e-10

    def test_diagonal_values_oracle(self):
        h = TFIMModel(L=3, J=1.0, Gamma=0.0).as_pauli_sum()
        diag = diagonal_values(h)
        assert np.allclose(diag, np.diag(h.dense()).real, atol=1e-12)


# ---------------------------------------------------------------------------
# Binary dump format
# ---------------------------------------------------------------------------

class TestDump:
    def test_round_trip(self):
        rng = np.random.default_rng(30)
        s = random_state(4, rng)
        buf = io.BytesIO()
        dump_state(s, buf)
        buf.seek(0)
        back = load_state(buf)
        assert back.n_qubits == 4
        assert np.allclose(back.amplitudes, s.amplitudes)

    def test_header_is_eight_bytes_little_endian(self):
        buf = io.BytesIO()
        dump_state(basis_state(2, 1), buf)
        raw = buf.getvalue()
        assert raw[:8] == (2).to_bytes(8, "little")
        assert len(raw) == 8 + 4 * 16

    def test_truncated_amplitudes_rejected(self):
        raw = (3).to_bytes(8, "little") + np.zeros(4, "<c16").tobytes()
        with pytest.raises(ValueError, match=r"\b3 qubits.* 64 bytes"):
            load_state(io.BytesIO(raw))

    def test_header_above_ceiling_rejected_before_reading(self):
        sizes = []

        class Recording(io.BytesIO):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        raw = (60).to_bytes(8, "little") + np.ones(2, "<c16").tobytes()
        with pytest.raises(ValueError, match=r"header 60 read from 8 bytes"):
            load_state(Recording(raw))
        assert sizes == [8]
