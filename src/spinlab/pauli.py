"""Pauli-string algebra, fermion-to-qubit mapping, and measurement grouping.

Conventions used throughout:

* A Pauli string is stored as a plain python string over ``IXYZ`` where
  character ``k`` acts on qubit ``k`` (qubit 0 first).  Serialized labels
  use the opposite, human-readable order (qubit ``n-1`` leftmost); see
  :func:`pauli_sum_to_json`.
* Dense matrices follow the usual binary ordering: basis index
  ``i = sum_k b_k 2^k`` with ``b_k`` the bit of qubit ``k``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

COEFF_CUTOFF = 1e-12

# The bit action works on uint64 basis indices and masks, so a file may name
# at most this many qubits (or modes, one qubit each under Jordan-Wigner).
MAX_MASK_QUBITS = 64

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Single-qubit products a*b -> (phase, result).
_MUL = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis; ``letters[k]`` acts on qubit k."""

    letters: str

    def __post_init__(self):
        if not self.letters or any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return set(self.letters) == {"I"}

    def support(self) -> tuple[int, ...]:
        """Qubit indices carrying a non-identity letter."""
        return tuple(k for k, c in enumerate(self.letters) if c != "I")

    def mask(self) -> int:
        """Bit mask of the non-identity support."""
        m = 0
        for k, c in enumerate(self.letters):
            if c != "I":
                m |= 1 << k
        return m

    def label(self) -> str:
        """Human-readable label with qubit n-1 leftmost (file convention)."""
        return self.letters[::-1]

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        return cls(label[::-1])

    @classmethod
    def single(cls, n: int, k: int, letter: str) -> "PauliString":
        """One non-identity letter on qubit k of an n-qubit register."""
        if not 0 <= k < n:
            raise IndexError(f"qubit {k} out of range for n={n}")
        return cls("I" * k + letter + "I" * (n - k - 1))

    def dense(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (qubit 0 = least significant bit)."""
        mats = [_PAULI_MATS[c] for c in reversed(self.letters)]
        return reduce(np.kron, mats)


def _bit_action(p: PauliString,
                idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and values of P's nonzeros in the uint64 columns idx.

    P|j> = i^ny (-1)^popcount(j & sign) |j ^ flip>, where flip marks the X/Y
    letters, sign the Z/Y letters and ny counts the Y letters.
    """
    flip = sign = ny = 0
    for k, c in enumerate(p.letters):
        if c in "XY":
            flip |= 1 << k
        if c in "ZY":
            sign |= 1 << k
        if c == "Y":
            ny += 1
    return idx ^ np.uint64(flip), (1j ** ny) * _string_values([sign], idx)[0]


def _string_values(masks, indices) -> np.ndarray:
    """(n_masks, n_indices) array of the signs (-1)^popcount(index & mask)."""
    idx = np.asarray(indices, dtype=np.uint64)
    masks = np.asarray(masks, dtype=np.uint64)
    parity = np.bitwise_count(idx[None, :] & masks[:, None]) & 1
    return 1.0 - 2.0 * parity


def multiply(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product a*b as (phase, string) with phase in {1, -1, i, -i}."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"size mismatch: {a.n_qubits} vs {b.n_qubits}")
    phase = 1 + 0j
    out = []
    for ca, cb in zip(a.letters, b.letters):
        ph, c = _MUL[(ca, cb)]
        phase *= ph
        out.append(c)
    return phase, PauliString("".join(out))


def qubitwise_commute(a: PauliString, b: PauliString) -> bool:
    """True when at every qubit the letters agree or one is identity."""
    return all(ca == "I" or cb == "I" or ca == cb
               for ca, cb in zip(a.letters, b.letters))


@dataclass(frozen=True)
class PauliSum:
    """Weighted sum of Pauli strings on a shared register, kept canonical.

    Canonical means: duplicate strings merged, coefficients below
    ``COEFF_CUTOFF`` dropped, terms sorted by string.  Use
    :meth:`from_terms` to build one.
    """

    n_qubits: int
    terms: tuple[tuple[complex, PauliString], ...]

    @classmethod
    def from_terms(cls, n_qubits: int,
                   terms: Iterable[tuple[complex, PauliString]]) -> "PauliSum":
        acc: dict[str, complex] = {}
        for coeff, string in terms:
            if string.n_qubits != n_qubits:
                raise ValueError("term size does not match register size")
            acc[string.letters] = acc.get(string.letters, 0j) + complex(coeff)
        kept = sorted((s, c) for s, c in acc.items() if abs(c) >= COEFF_CUTOFF)
        return cls(n_qubits, tuple((c, PauliString(s)) for s, c in kept))

    def identity_coefficient(self) -> complex:
        for coeff, string in self.terms:
            if string.is_identity:
                return coeff
        return 0j

    def non_identity_terms(self) -> list[tuple[complex, PauliString]]:
        return [(c, s) for c, s in self.terms if not s.is_identity]

    def coefficients_real(self) -> bool:
        return all(abs(c.imag) <= 1e-10 for c, _ in self.terms)

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum.from_terms(self.n_qubits,
                                   [(factor * c, s) for c, s in self.terms])

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("cannot add sums on different registers")
        return PauliSum.from_terms(self.n_qubits,
                                   list(self.terms) + list(other.terms))

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product of two sums (term-by-term Pauli products)."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("cannot multiply sums on different registers")
        out = []
        for ca, sa in self.terms:
            for cb, sb in other.terms:
                ph, s = multiply(sa, sb)
                out.append((ca * cb * ph, s))
        return PauliSum.from_terms(self.n_qubits, out)

    def _flip_blocks(self) -> dict[int, np.ndarray]:
        """Entries by flip mask f: ``out[f][j] = <j ^ f|H|j>``, the terms
        summed in order from zero."""
        idx = np.arange(2 ** self.n_qubits, dtype=np.uint64)
        out: dict[int, np.ndarray] = {}
        for coeff, string in self.terms:
            rows, phase = _bit_action(string, idx)
            # rows = idx ^ flip, and idx[0] = 0
            block = out.setdefault(int(rows[0]), np.zeros(idx.size, complex))
            block += coeff * phase
        return out

    def dense(self) -> np.ndarray:
        """Dense matrix, one scatter of 2^n nonzeros per flip mask."""
        dim = 2 ** self.n_qubits
        idx = np.arange(dim, dtype=np.uint64)
        mat = np.zeros((dim, dim), dtype=complex)
        flat = mat.reshape(-1)
        for flip, block in self._flip_blocks().items():
            flat[(idx ^ np.uint64(flip)) * np.uint64(dim) + idx] = block
        return mat


def one_norm(h: PauliSum) -> float:
    """Sum of |coefficient| over the non-identity terms."""
    return float(sum(abs(c) for c, _ in h.non_identity_terms()))


# ---------------------------------------------------------------------------
# Jordan-Wigner mapping
# ---------------------------------------------------------------------------

def _jw_ladder(p: int, n: int, sign: complex) -> PauliSum:
    if not 0 <= p < n:
        raise IndexError(f"mode {p} out of range for n={n}")
    z_tail = "Z" * p
    x_str = PauliString(z_tail + "X" + "I" * (n - p - 1))
    y_str = PauliString(z_tail + "Y" + "I" * (n - p - 1))
    return PauliSum.from_terms(n, [(0.5, x_str), (sign * 0.5j, y_str)])


def jw_annihilation(p: int, n: int) -> PauliSum:
    """Mode-p annihilation operator: (X + iY)_p/2 times the Z parity tail."""
    return _jw_ladder(p, n, +1)


def jw_creation(p: int, n: int) -> PauliSum:
    """Mode-p creation operator: (X - iY)_p/2 times the Z parity tail."""
    return _jw_ladder(p, n, -1)


@dataclass(frozen=True)
class FermionHamiltonian:
    """Second-quantized Hamiltonian given by dense coefficient tables.

    ``one_body[p, q]`` multiplies ``c_p^dag c_q`` and ``two_body[p, q, r, s]``
    multiplies ``c_p^dag c_q^dag c_r c_s`` (operators in that literal order).
    Coefficients are in Hartree; ``one_body`` must be symmetric.
    """

    n_modes: int
    one_body: np.ndarray
    two_body: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.one_body, dtype=float)
        u = np.asarray(self.two_body, dtype=float)
        n = self.n_modes
        if t.shape != (n, n):
            raise ValueError(f"one_body must be {n}x{n}, got {t.shape}")
        if u.shape != (n, n, n, n):
            raise ValueError(f"two_body must be {n}^4, got {u.shape}")
        if not np.allclose(t, t.T, atol=1e-12):
            raise ValueError("one_body table must be symmetric")
        object.__setattr__(self, "one_body", t)
        object.__setattr__(self, "two_body", u)


def map_fermionic(h: FermionHamiltonian) -> PauliSum:
    """Jordan-Wigner image of the full second-quantized Hamiltonian."""
    n = h.n_modes
    create = [jw_creation(p, n) for p in range(n)]
    destroy = [jw_annihilation(p, n) for p in range(n)]
    acc: list[tuple[complex, PauliString]] = []
    for p in range(n):
        for q in range(n):
            t = h.one_body[p, q]
            if t == 0.0:
                continue
            acc.extend((t * c, s) for c, s in (create[p] @ destroy[q]).terms)
    for p in range(n):
        for q in range(n):
            if not np.any(h.two_body[p, q]):
                continue
            pq = create[p] @ create[q]
            if not pq.terms:
                continue
            for r in range(n):
                if not np.any(h.two_body[p, q, r]):
                    continue
                pqr = pq @ destroy[r]
                for s in range(n):
                    u = h.two_body[p, q, r, s]
                    if u == 0.0:
                        continue
                    acc.extend((u * c, st) for c, st in (pqr @ destroy[s]).terms)
    return PauliSum.from_terms(n, acc)


# ---------------------------------------------------------------------------
# Qubit-wise commuting measurement groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementGroups:
    """Partition of the non-identity terms of a sum into co-measurable sets.

    ``groups[g]`` lists term indices into the parent sum; ``bases[g]`` is a
    per-qubit measurement basis string over ``ZXY`` (qubit k at position k,
    defaulting to Z where the group has no support).
    """

    groups: tuple[tuple[int, ...], ...]
    bases: tuple[str, ...]

    @property
    def n_groups(self) -> int:
        return len(self.groups)


def group_qubitwise(h: PauliSum) -> MeasurementGroups:
    """Greedy first-fit grouping over terms sorted by descending |coeff|.

    Every pair inside a group commutes qubit-wise, so one shot record in the
    group's basis measures all its members simultaneously.
    """
    n = h.n_qubits
    indexed = [(i, c, s) for i, (c, s) in enumerate(h.terms) if not s.is_identity]
    order = sorted(indexed, key=lambda t: (-abs(t[1]), t[2].letters))
    group_members: list[list[int]] = []
    group_basis: list[list[str | None]] = []
    for idx, _, string in order:
        for members, basis in zip(group_members, group_basis):
            if all(c == "I" or basis[k] is None or basis[k] == c
                   for k, c in enumerate(string.letters)):
                break
        else:
            members, basis = [], [None] * n
            group_members.append(members)
            group_basis.append(basis)
        members.append(idx)
        for k, c in enumerate(string.letters):
            if c != "I":
                basis[k] = c
    bases = tuple("".join(c or "Z" for c in basis) for basis in group_basis)
    return MeasurementGroups(tuple(tuple(m) for m in group_members), bases)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

ORDERING_NOTE = "string[0] is qubit n-1 (leftmost character = highest qubit index)"


class ParseError(ValueError):
    """Malformed input document, with field context in the message."""


def pauli_sum_to_json(h: PauliSum) -> str:
    doc = {
        "ordering": ORDERING_NOTE,
        "n_qubits": h.n_qubits,
        "terms": [{"coeff": [c.real, c.imag], "string": s.label()}
                  for c, s in h.terms],
    }
    return json.dumps(doc, indent=2)


def pauli_sum_from_json(text: str) -> PauliSum:
    doc = _json_object(text, ("n_qubits", "terms"))
    n = _positive_int(doc, "n_qubits", MAX_MASK_QUBITS)
    if not isinstance(doc["terms"], list):
        raise ParseError("field 'terms' must be a list")
    terms, bound = [], 0.0
    for k, term in enumerate(doc["terms"]):
        if not isinstance(term, dict) or not {"coeff", "string"} <= set(term):
            raise ParseError(f"field 'terms[{k}]' must be an object with "
                             f"'coeff' and 'string'")
        re, im = _number_array(term["coeff"], f"terms[{k}].coeff",
                               (2,)).tolist()
        label = term["string"]
        if (not isinstance(label, str) or len(label) != n
                or set(label) - set("IXYZ")):
            raise ParseError(f"field 'terms[{k}].string' must be {n} "
                             f"letters over IXYZ, got {label!r}")
        terms.append((complex(re, im), PauliString.from_label(label)))
        bound += abs(re) + abs(im)
    # bound caps every |c| and every sum of merged duplicates
    if bound == float("inf"):
        raise ParseError("field 'terms' has coefficients whose sum overflows")
    return PauliSum.from_terms(n, terms)


def fermion_hamiltonian_to_json(h: FermionHamiltonian) -> str:
    doc = {
        "n_modes": h.n_modes,
        "one_body": h.one_body.tolist(),
        "two_body": h.two_body.tolist(),
    }
    return json.dumps(doc, indent=2)


def fermion_hamiltonian_from_json(text: str) -> FermionHamiltonian:
    doc = _json_object(text, ("n_modes", "one_body", "two_body"))
    n = _positive_int(doc, "n_modes", MAX_MASK_QUBITS)
    one = _number_array(doc["one_body"], "one_body", (n, n))
    two = _number_array(doc["two_body"], "two_body", (n, n, n, n))
    try:
        return FermionHamiltonian(n, one, two)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _json_object(text: str, fields: tuple[str, ...]) -> dict:
    """The JSON object in text, holding at least the given fields."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    missing = [f for f in fields if f not in doc]
    if missing:
        raise ParseError(f"missing field(s) {', '.join(missing)}")
    return doc


def _positive_int(doc: dict, field: str, maximum: int | None = None) -> int:
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParseError(f"field {field!r} must be a positive integer, "
                         f"got {value!r}")
    if maximum is not None and value > maximum:
        raise ParseError(f"field {field!r} must be at most {maximum}, "
                         f"got {value!r}")
    return value


def _number_array(value, field: str, shape: tuple[int, ...]) -> np.ndarray:
    """value as a float array of the given shape; anything but nested JSON
    lists of finite numbers raises a ParseError that names the field."""
    def cells(value, dims):
        if not dims:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return [value]
        elif isinstance(value, list) and len(value) == dims[0]:
            return [c for item in value for c in cells(item, dims[1:])]
        raise ParseError(f"field {field!r} must be a {shape} array of "
                         f"numbers")

    try:
        out = np.array(cells(value, shape), dtype=float).reshape(shape)
        finite = np.all(np.isfinite(out))
    except OverflowError:
        finite = False
    if not finite:
        raise ParseError(f"field {field!r} must be finite")
    return out
