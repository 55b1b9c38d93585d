"""Pauli algebra, Jordan-Wigner mapping, grouping, and serialization."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab.pauli import (
    MAX_MASK_QUBITS,
    FermionHamiltonian,
    ParseError,
    PauliString,
    PauliSum,
    fermion_hamiltonian_from_json,
    fermion_hamiltonian_to_json,
    group_qubitwise,
    jw_annihilation,
    jw_creation,
    map_fermionic,
    multiply,
    one_norm,
    pauli_sum_from_json,
    pauli_sum_to_json,
    qubitwise_commute,
)
from spinlab.statevector import TFIMModel, exact_spectrum, ground_state

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_oracle(letters: str) -> np.ndarray:
    """Independent kron construction, qubit 0 as the least significant factor."""
    out = np.eye(1, dtype=complex)
    for c in letters:  # letters[0] is qubit 0, so it sits rightmost in the kron
        out = np.kron(MATS[c], out)
    return out


def rng_for(name: str) -> np.random.Generator:
    return np.random.default_rng(abs(hash(name)) % 2 ** 32)


# ---------------------------------------------------------------------------
# PauliString basics and products
# ---------------------------------------------------------------------------

class TestPauliString:
    def test_single_letter_products(self):
        phase, string = multiply(PauliString("X"), PauliString("Y"))
        assert phase == 1j and string.letters == "Z"
        phase, string = multiply(PauliString("Y"), PauliString("X"))
        assert phase == -1j and string.letters == "Z"
        phase, string = multiply(PauliString("Z"), PauliString("X"))
        assert phase == 1j and string.letters == "Y"

    def test_self_product_is_identity(self):
        for letters in ["XZYI", "YYYY", "IZXI"]:
            phase, string = multiply(PauliString(letters), PauliString(letters))
            assert phase == 1
            assert string.is_identity

    def test_product_matches_dense_oracle(self):
        rng = rng_for("pauli-product")
        for _ in range(40):
            a = "".join(rng.choice(list("IXYZ"), size=4))
            b = "".join(rng.choice(list("IXYZ"), size=4))
            phase, string = multiply(PauliString(a), PauliString(b))
            lhs = dense_oracle(a) @ dense_oracle(b)
            rhs = phase * dense_oracle(string.letters)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dense_matches_oracle(self):
        for letters in ["XYZI", "ZZII", "IYXZ"]:
            assert np.allclose(PauliString(letters).dense(),
                               dense_oracle(letters), atol=1e-12)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            multiply(PauliString("XX"), PauliString("X"))

    def test_invalid_letters_rejected(self):
        with pytest.raises(ValueError):
            PauliString("XQ")

    def test_single_and_support(self):
        p = PauliString.single(5, 2, "Y")
        assert p.letters == "IIYII"
        assert p.support() == (2,)
        assert p.mask() == 4
        with pytest.raises(IndexError):
            PauliString.single(3, 3, "X")

    def test_label_reverses_for_files(self):
        p = PauliString("XIZ")  # qubit0=X, qubit2=Z
        assert p.label() == "ZIX"
        assert PauliString.from_label("ZIX") == p

    def test_qubitwise_commute(self):
        assert qubitwise_commute(PauliString("XIZ"), PauliString("XYI"))
        assert not qubitwise_commute(PauliString("XIZ"), PauliString("ZYI"))


# ---------------------------------------------------------------------------
# PauliSum algebra
# ---------------------------------------------------------------------------

class TestPauliSum:
    def test_merges_duplicates_and_drops_zero(self):
        s = PauliSum.from_terms(2, [(1.0, PauliString("XI")),
                                    (2.0, PauliString("XI")),
                                    (1.0, PauliString("ZZ")),
                                    (-1.0, PauliString("ZZ"))])
        assert len(s.terms) == 1
        assert s.terms[0][0] == 3.0

    def test_identity_coefficient(self):
        s = PauliSum.from_terms(2, [(2.5, PauliString("II")),
                                    (1.0, PauliString("XZ"))])
        assert s.identity_coefficient() == 2.5
        assert len(s.non_identity_terms()) == 1

    def test_addition_and_scaling(self):
        a = PauliSum.from_terms(2, [(1.0, PauliString("XI"))])
        b = PauliSum.from_terms(2, [(0.5, PauliString("XI")),
                                    (2.0, PauliString("IZ"))])
        c = a + b.scaled(2.0)
        want = {("XI", 2.0), ("IZ", 4.0)}
        got = {(p.letters, coeff.real) for coeff, p in c.terms}
        assert got == want

    def test_product_matches_dense(self):
        rng = rng_for("pauli-sum-product")
        for _ in range(10):
            terms_a = [(complex(rng.normal(), rng.normal()),
                        PauliString("".join(rng.choice(list("IXYZ"), size=3))))
                       for _ in range(3)]
            terms_b = [(complex(rng.normal(), rng.normal()),
                        PauliString("".join(rng.choice(list("IXYZ"), size=3))))
                       for _ in range(3)]
            a = PauliSum.from_terms(3, terms_a)
            b = PauliSum.from_terms(3, terms_b)
            assert np.allclose((a @ b).dense(), a.dense() @ b.dense(), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_dense_matches_kron_sum_bitwise(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            terms = [(complex(rng.normal(), rng.normal()),
                      PauliString("".join(rng.choice(list("IXYZ"), size=n))))
                     for _ in range(12)]
            h = PauliSum.from_terms(n, terms)
            want = np.zeros((2 ** n, 2 ** n), dtype=complex)
            for coeff, string in h.terms:
                want += coeff * dense_oracle(string.letters)
            assert h.dense().tobytes() == want.tobytes()

    def test_non_hermitian_sum_rejected_by_exact_spectrum(self):
        h = PauliSum.from_terms(2, [(1.0, PauliString("ZZ")),
                                    (0.5j, PauliString("XI"))])
        for solve in (exact_spectrum, ground_state):
            with pytest.raises(ValueError, match="sum is not Hermitian"):
                solve(h)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_sparse_holds_the_dense_entries(self, n):
        rng = np.random.default_rng(n)
        terms = [(complex(rng.normal(), rng.normal()),
                  PauliString("".join(rng.choice(list("IXYZ"), size=n))))
                 for _ in range(12)]
        for h in (PauliSum.from_terms(n, terms), PauliSum.from_terms(n, []),
                  TFIMModel(L=n, J=0.7, Gamma=1.3).as_pauli_sum()):
            dense, mat = h.dense(), h.sparse()
            assert mat.dtype == (float if not dense.imag.any() else complex)
            assert mat.toarray().astype(complex).tobytes() == dense.tobytes()

    def test_one_norm_skips_identity(self):
        s = PauliSum.from_terms(2, [(5.0, PauliString("II")),
                                    (3.0, PauliString("XI")),
                                    (-4.0, PauliString("ZZ"))])
        assert one_norm(s) == pytest.approx(7.0)

    def test_one_norm_tfim(self):
        h = TFIMModel(L=10, J=1.0, Gamma=1.0).as_pauli_sum()
        assert one_norm(h) == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# Jordan-Wigner mapping
# ---------------------------------------------------------------------------

def dense_annihilation(p: int, n: int) -> np.ndarray:
    """Independent JW ladder oracle: sigma^- on p with a Z string below."""
    sminus = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1| kills bit 1
    out = np.eye(1, dtype=complex)
    for k in range(n):
        if k < p:
            factor = Z
        elif k == p:
            factor = sminus
        else:
            factor = I2
        out = np.kron(factor, out)
    return out


class TestJordanWigner:
    def test_ladder_matches_dense_oracle(self):
        n = 4
        for p in range(n):
            a = jw_annihilation(p, n).dense()
            adag = jw_creation(p, n).dense()
            want = dense_annihilation(p, n)
            assert np.allclose(a, want, atol=1e-12)
            assert np.allclose(adag, want.conj().T, atol=1e-12)

    def test_canonical_anticommutation(self):
        n = 4
        dim = 2 ** n
        ops = [jw_annihilation(p, n).dense() for p in range(n)]
        dag = [o.conj().T for o in ops]
        for p in range(n):
            for q in range(n):
                anti = ops[p] @ dag[q] + dag[q] @ ops[p]
                want = np.eye(dim) if p == q else np.zeros((dim, dim))
                assert np.allclose(anti, want, atol=1e-12)
                anti2 = ops[p] @ ops[q] + ops[q] @ ops[p]
                assert np.allclose(anti2, 0.0, atol=1e-12)

    def test_number_operator(self):
        # a_p^dag a_p -> (I - Z_p)/2
        h = FermionHamiltonian(n_modes=2,
                               one_body=np.diag([1.0, 0.0]),
                               two_body=np.zeros((2, 2, 2, 2)))
        s = map_fermionic(h)
        want = {("II", 0.5), ("IZ", -0.5)}  # label form: qubit 0 rightmost
        got = {(p.label(), coeff.real) for coeff, p in s.terms}
        assert got == want

    def test_hopping_term(self):
        # t(a_0^dag a_1 + a_1^dag a_0) -> t/2 (X_0 X_1 + Y_0 Y_1)
        t = 0.7
        h = FermionHamiltonian(n_modes=2,
                               one_body=np.array([[0.0, t], [t, 0.0]]),
                               two_body=np.zeros((2, 2, 2, 2)))
        s = map_fermionic(h)
        got = {(p.letters, coeff.real) for coeff, p in s.terms}
        assert got == {("XX", t / 2), ("YY", t / 2)}

    def test_interaction_term(self):
        # u n_0 n_1 = u a_0^dag a_1^dag a_1 a_0 -> u/4 (I - Z_0)(I - Z_1)
        u = 2.0
        two = np.zeros((2, 2, 2, 2))
        two[0, 1, 1, 0] = u
        h = FermionHamiltonian(n_modes=2, one_body=np.zeros((2, 2)),
                               two_body=two)
        s = map_fermionic(h)
        n0 = np.kron(I2, (I2 - Z) / 2)
        n1 = np.kron((I2 - Z) / 2, I2)
        assert np.allclose(s.dense(), u * n1 @ n0, atol=1e-12)

    def test_random_hermitian_matches_dense(self):
        rng = rng_for("jw-random")
        n = 3
        t = rng.normal(size=(n, n))
        t = (t + t.T) / 2
        u = rng.normal(size=(n, n, n, n))
        # (a+_p a+_q a_r a_s)^dag = a+_s a+_r a_q a_p, so this symmetrization
        # makes the two-body operator Hermitian
        u = (u + u.transpose(3, 2, 1, 0)) / 2
        h = FermionHamiltonian(n_modes=n, one_body=t, two_body=u)
        mapped = map_fermionic(h).dense()

        ops = [dense_annihilation(p, n) for p in range(n)]
        dag = [o.conj().T for o in ops]
        want = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for p in range(n):
            for q in range(n):
                want += t[p, q] * dag[p] @ ops[q]
                for r in range(n):
                    for s_ in range(n):
                        if u[p, q, r, s_] != 0.0:
                            want += u[p, q, r, s_] * (
                                dag[p] @ dag[q] @ ops[r] @ ops[s_])
        assert np.allclose(mapped, want, atol=1e-12)
        assert np.allclose(mapped, mapped.conj().T, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FermionHamiltonian(n_modes=2, one_body=np.zeros((3, 3)),
                               two_body=np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError):
            FermionHamiltonian(n_modes=2, one_body=np.zeros((2, 2)),
                               two_body=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            FermionHamiltonian(n_modes=2,
                               one_body=np.array([[0.0, 1.0], [0.0, 0.0]]),
                               two_body=np.zeros((2, 2, 2, 2)))


# ---------------------------------------------------------------------------
# Qubit-wise grouping
# ---------------------------------------------------------------------------

class TestGrouping:
    def test_tfim_gives_two_groups(self):
        h = TFIMModel(L=10).as_pauli_sum()
        g = group_qubitwise(h)
        assert g.n_groups == 2
        bases = set(g.bases)
        assert bases == {"Z" * 10, "X" * 10}

    def test_groups_partition_terms(self):
        h = TFIMModel(L=6).as_pauli_sum()
        g = group_qubitwise(h)
        seen = sorted(i for grp in g.groups for i in grp)
        assert seen == list(range(len(h.terms)))

    def test_members_commute_qubitwise(self):
        rng = rng_for("grouping")
        terms = [(complex(rng.normal()),
                  PauliString("".join(rng.choice(list("IXYZ"), size=6))))
                 for _ in range(20)]
        h = PauliSum.from_terms(6, terms)
        g = group_qubitwise(h)
        for grp in g.groups:
            for a_i in grp:
                for b_i in grp:
                    assert qubitwise_commute(h.terms[a_i][1], h.terms[b_i][1])

    def test_basis_covers_members(self):
        h = TFIMModel(L=4).as_pauli_sum()
        g = group_qubitwise(h)
        for grp, basis in zip(g.groups, g.bases):
            for i in grp:
                string = h.terms[i][1]
                for k in string.support():
                    assert basis[k] == string.letters[k]

    def test_identity_only_sum(self):
        h = PauliSum.from_terms(2, [(3.0, PauliString("II"))])
        g = group_qubitwise(h)
        assert g.n_groups == 0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_pauli_sum_round_trip(self):
        h = TFIMModel(L=4).as_pauli_sum()
        blob = pauli_sum_to_json(h)
        back = pauli_sum_from_json(blob)
        assert back == h

    def test_pauli_sum_json_shape(self):
        s = PauliSum.from_terms(3, [(1.5 - 0.5j, PauliString("XIZ"))])
        doc = json.loads(pauli_sum_to_json(s))
        assert doc["n_qubits"] == 3
        assert "leftmost" in doc["ordering"]
        assert doc["terms"] == [{"coeff": [1.5, -0.5], "string": "ZIX"}]

    def test_complex_coefficients_survive(self):
        s = PauliSum.from_terms(2, [(0.25j, PauliString("XY"))])
        back = pauli_sum_from_json(pauli_sum_to_json(s))
        assert back.terms[0][0] == 0.25j

    def test_fermion_round_trip(self):
        rng = rng_for("fermion-json")
        t = rng.normal(size=(3, 3))
        h = FermionHamiltonian(n_modes=3, one_body=(t + t.T) / 2,
                               two_body=rng.normal(size=(3, 3, 3, 3)))
        back = fermion_hamiltonian_from_json(fermion_hamiltonian_to_json(h))
        assert back.n_modes == 3
        assert np.allclose(back.one_body, h.one_body)
        assert np.allclose(back.two_body, h.two_body)

    def test_malformed_inputs_raise_parse_error(self):
        bad = [
            "not json at all",
            json.dumps({"n_qubits": 2}),
            json.dumps({"n_qubits": 2, "terms": [{"coeff": [1.0], "string": "XX"}]}),
            json.dumps({"n_qubits": 2,
                        "terms": [{"coeff": [1.0, 0.0], "string": "XQX"}]}),
            json.dumps({"n_qubits": 3,
                        "terms": [{"coeff": [1.0, 0.0], "string": "XX"}]}),
        ]
        for blob in bad:
            with pytest.raises(ParseError):
                pauli_sum_from_json(blob)

    def test_fermion_malformed(self):
        with pytest.raises(ParseError):
            fermion_hamiltonian_from_json(json.dumps({"n_modes": 2}))
        with pytest.raises(ParseError):
            fermion_hamiltonian_from_json(json.dumps(
                {"n_modes": 2, "one_body": [[0.0]], "two_body": [[0.0]]}))


_XZ = '[{"coeff": [1, 0], "string": "XZ"}]'
_T1 = '[[[[0]]]]'


@pytest.mark.parametrize("parse,text,field", [
    (pauli_sum_from_json, '{"n_qubits": 1e400, "terms": []}', "n_qubits"),
    (pauli_sum_from_json, '{"n_qubits": Infinity, "terms": []}', "n_qubits"),
    (pauli_sum_from_json, f'{{"n_qubits": 2.7, "terms": {_XZ}}}', "n_qubits"),
    (pauli_sum_from_json, '{"n_qubits": true, "terms": []}', "n_qubits"),
    (pauli_sum_from_json, '{"n_qubits": -1, "terms": []}', "n_qubits"),
    (pauli_sum_from_json, f'{{"n_qubits": {10 ** 30}, "terms": []}}',
     "n_qubits"),
    (pauli_sum_from_json, '{"n_qubits": 65, "terms": [{"coeff": [1, 0], '
     '"string": "' + "X" * 65 + '"}]}', "n_qubits"),
    (pauli_sum_from_json, '{"n_qubits": 2, "terms": '
     '[{"coeff": [1, 0, 7], "string": "XZ"}]}', "coeff"),
    (pauli_sum_from_json, '{"n_qubits": 2, "terms": '
     '[{"coeff": [Infinity, 0], "string": "XZ"}]}', "coeff"),
    (pauli_sum_from_json, '{"n_qubits": 2, "terms": '
     '[{"coeff": [NaN, 0], "string": "XZ"}]}', "coeff"),
    (pauli_sum_from_json, '{"n_qubits": 2, "terms": '
     '[{"coeff": [1e308, 0], "string": "XZ"}, '
     '{"coeff": [1e308, 0], "string": "XZ"}]}', "terms"),
    (pauli_sum_from_json, '{"n_qubits": 1, "terms": '
     '[{"coeff": [1.7e308, 1.7e308], "string": "X"}]}', "terms"),
    (pauli_sum_from_json, '{"n_qubits": 2, "terms": {"coeff": [1, 0]}}',
     "terms"),
    (pauli_sum_from_json, '{"n_qubits": 2, "terms": '
     '[{"coeff": [1, 0], "string": 7}]}', "string"),
    (fermion_hamiltonian_from_json,
     '{"n_modes": null, "one_body": [[0]], "two_body": [[[[0]]]]}',
     "n_modes"),
    (fermion_hamiltonian_from_json,
     '{"n_modes": 1, "one_body": [[0]], "two_body": {"a": 1}}', "two_body"),
    (fermion_hamiltonian_from_json,
     f'{{"n_modes": 1e400, "one_body": [[0]], "two_body": {_T1}}}',
     "n_modes"),
    (fermion_hamiltonian_from_json,
     f'{{"n_modes": true, "one_body": [[0]], "two_body": {_T1}}}',
     "n_modes"),
    (fermion_hamiltonian_from_json,
     f'{{"n_modes": {10 ** 30}, "one_body": [[0]], "two_body": {_T1}}}',
     "n_modes"),
    (fermion_hamiltonian_from_json,
     f'{{"n_modes": 65, "one_body": [[0]], "two_body": {_T1}}}', "n_modes"),
    (fermion_hamiltonian_from_json,
     f'{{"n_modes": 1.9, "one_body": [[0]], "two_body": {_T1}}}',
     "n_modes"),
    (fermion_hamiltonian_from_json,
     '{"n_modes": 1, "one_body": [[0]], "two_body": [[[[null]]]]}',
     "two_body"),
    (fermion_hamiltonian_from_json,
     '{"n_modes": 1, "one_body": [[0]], "two_body": [[[[1e400]]]]}',
     "two_body"),
], ids=["overflow-n", "infinite-n", "fractional-n", "bool-n", "negative-n",
        "huge-n", "past-mask-n", "three-coeffs", "infinite-coeff",
        "nan-coeff", "overflowing-sum", "overflowing-modulus", "terms-object",
        "number-string", "null-modes", "two-body-object", "overflow-modes", "bool-modes", "huge-modes",
        "past-mask-modes", "fractional-modes", "null-entry",
        "overflow-entry"])
def test_parsers_name_the_bad_field(parse, text, field):
    with pytest.raises(ParseError, match=rf"\b{field}\b"):
        parse(text)


def _nest(kids):
    return (st.lists(kids, max_size=4)
            | st.dictionaries(st.text(max_size=4), kids, max_size=4))


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                     | st.text(max_size=4), _nest, max_leaves=12)
_ODD = st.sampled_from([float("nan"), float("inf"), 10 ** 400, 1e308,
                        True, None, "1", [1.0], 2.5, -1, 0])
# qubit and mode counts around the uint64 mask width and far past it
_COUNTS = (st.integers(MAX_MASK_QUBITS - 1, MAX_MASK_QUBITS + 2)
           | st.integers(MAX_MASK_QUBITS + 1, 10 ** 30))


@st.composite
def _pauli_docs(draw):
    """Well-formed Pauli sums with at most one defect."""
    n = draw(st.integers(1, 3))
    terms = [{"coeff": [draw(st.floats(-3, 3)), draw(st.floats(-3, 3))],
              "string": "".join(draw(st.lists(st.sampled_from("IXYZ"),
                                              min_size=n, max_size=n)))}
             for _ in range(draw(st.integers(0, 3)))]
    doc = {"n_qubits": n, "terms": terms}
    defect = draw(st.sampled_from([None, "cell", "term", "n_qubits",
                                   "terms", "string", "coeff"]))
    if defect == "cell" and terms:
        terms[0]["coeff"][draw(st.integers(0, 1))] = draw(_ODD)
    elif defect in ("string", "coeff") and terms:
        terms[-1][defect] = draw(_JSON | _ODD)
    elif defect == "term" and terms:
        terms[0] = draw(_JSON)
    elif defect == "n_qubits":
        doc[defect] = draw(_JSON | _ODD | _COUNTS)
        if isinstance(doc[defect], int) and doc[defect] <= MAX_MASK_QUBITS:
            # a full-width sum, so the count is the only thing to judge
            doc["terms"] = [{"coeff": [1.0, 0.0],
                             "string": "XYZ" * (doc[defect] // 3)
                             + "Z" * (doc[defect] % 3)}]
    elif defect == "terms":
        doc[defect] = draw(_JSON | _ODD)
    return doc


@st.composite
def _fermion_docs(draw):
    """Well-formed fermion tables with at most one defect."""
    n = draw(st.integers(1, 2))
    cell = st.floats(-3, 3)
    one = [[0.0] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1):
            one[p][q] = one[q][p] = draw(cell)
    two = draw(st.lists(st.lists(st.lists(st.lists(
        cell, min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=n, max_size=n), min_size=n, max_size=n))
    doc = {"n_modes": n, "one_body": one, "two_body": two}
    defect = draw(st.sampled_from([None, "cell", "n_modes", "one_body",
                                   "two_body"]))
    if defect == "cell":
        row = draw(st.sampled_from(one + [two[0][0][0]]))
        row[draw(st.integers(0, n - 1))] = draw(_ODD)
    elif defect == "n_modes":
        doc[defect] = draw(_JSON | _ODD | _COUNTS)
    elif defect is not None:
        doc[defect] = draw(_JSON | _ODD)
    return doc


_NAMED = (r"\b(n_qubits|terms|coeff|string|n_modes|one_body|two_body)\b"
          r"|invalid JSON|JSON object")


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(_JSON, _pauli_docs(), _fermion_docs()))
def test_parsers_reject_only_with_named_parse_errors(doc):
    """Any JSON document either parses to finite tables or raises a
    ParseError that names the offending field; nothing else escapes."""
    text = json.dumps(doc)
    for parse in (pauli_sum_from_json, fermion_hamiltonian_from_json):
        try:
            h = parse(text)
        except ParseError as exc:
            assert re.search(_NAMED, str(exc)), exc
            continue
        if parse is pauli_sum_from_json:
            assert h.n_qubits <= MAX_MASK_QUBITS
            assert all(np.isfinite(c) for c, _ in h.terms)
            assert all(s.n_qubits == h.n_qubits for _, s in h.terms)
        else:
            assert h.n_modes <= MAX_MASK_QUBITS
            assert h.one_body.shape == (h.n_modes,) * 2
            assert h.two_body.shape == (h.n_modes,) * 4
            assert np.all(np.isfinite(h.one_body))
            assert np.all(np.isfinite(h.two_body))
