"""Dense state-vector emulation for short spin chains.

Provides circuit layers for the transverse-field Ising chain, expectation
values of Pauli sums, projective Z-basis sampling, exact diagonalization,
Lanczos ground states, and real-time evolution.  Everything is capped at
desk scale: 26 qubits for vectors, 12 for dense matrices and Lanczos.

Every single-qubit gate layer (the HVA X layer, both Trotter steps and the
measurement-basis rotations) is one call of the compiled _native.rotate,
with the bits of numpy's general 2x2 form for each gate spinlab builds.
sum_k X_k, on a vector or a block of columns, is the compiled _native.x_sum.
The ZZ phase layer stays in numpy: a fully complex product may be fused
into a multiply-add by numpy and not by the library, and then the two round
apart.  Z-basis draws are inverse-CDF searches that an exact guide table
shortcuts when there are at least as many draws as basis states.

Spin encoding: basis index bit k = 0 means spin +1 on site k, bit 1 means
spin -1 (qubit k <-> spin k).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import BinaryIO

import numpy as np
import scipy.sparse.linalg

from . import _native
from .pauli import PauliString, PauliSum, _bit_action, _string_values

MAX_STATE_QUBITS = 26
MAX_DENSE_QUBITS = 12


class CapacityError(RuntimeError):
    """Requested register exceeds the desk-scale memory ceiling."""


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over the 2^n computational basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        n = amps.size.bit_length() - 1
        if amps.size != 2 ** n:
            raise ValueError("amplitude vector length must be a power of two")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class SpinConfiguration:
    """Length-L sequence of +-1 spins with the canonical bit encoding."""

    spins: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.spins):
            raise ValueError("spins must be +1 or -1")

    def to_index(self) -> int:
        idx = 0
        for k, s in enumerate(self.spins):
            if s == -1:
                idx |= 1 << k
        return idx

    @classmethod
    def from_index(cls, idx: int, length: int) -> "SpinConfiguration":
        return cls(tuple(1 - 2 * ((idx >> k) & 1) for k in range(length)))


def all_spin_values(L: int) -> np.ndarray:
    """(2^L, L) array of spin values, row i = configuration with index i."""
    idx = np.arange(2 ** L, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(L)[None, :]) & 1
    return (1 - 2 * bits).astype(np.int64)


@dataclass(frozen=True)
class TFIMModel:
    """Transverse-field Ising chain -J sum Z_k Z_{k+1} - Gamma sum X_k."""

    L: int
    J: float = 1.0
    Gamma: float = 1.0
    periodic: bool = True

    def bonds(self) -> list[tuple[int, int]]:
        if self.periodic:
            return [(k, (k + 1) % self.L) for k in range(self.L)]
        return [(k, k + 1) for k in range(self.L - 1)]

    def as_pauli_sum(self) -> PauliSum:
        terms = []
        for i, j in self.bonds():
            letters = ["I"] * self.L
            letters[i] = "Z"
            letters[j] = "Z"
            if i == j:  # L=1 periodic: Z_k Z_k = identity
                letters[i] = "I"
            terms.append((-self.J + 0j, PauliString("".join(letters))))
        for k in range(self.L):
            terms.append((-self.Gamma + 0j, PauliString.single(self.L, k, "X")))
        return PauliSum.from_terms(self.L, terms)

    def zz_sum_table(self) -> np.ndarray:
        """sum_k s_k s_{k+1} for every basis index (diagonal of the ZZ part);
        the L = 1 periodic bond has mask 0, so sign +1."""
        idx = np.arange(2 ** self.L, dtype=np.uint64)
        total = np.zeros(idx.size)
        for i, j in self.bonds():
            total += _string_values([(1 << i) ^ (1 << j)], idx)[0]
        return total.astype(np.int64)


def _check_qubits(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one qubit")
    if n > MAX_STATE_QUBITS:
        raise CapacityError(f"n={n} exceeds the {MAX_STATE_QUBITS}-qubit ceiling")


def init_plus(n: int) -> StateVector:
    """Uniform superposition |+>^n (Hadamard on every qubit of |0...0>)."""
    _check_qubits(n)
    amps = np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
    return StateVector(amps)


def basis_state(n: int, index: int) -> StateVector:
    _check_qubits(n)
    if not 0 <= index < 2 ** n:
        raise IndexError(f"basis index {index} out of range for n={n}")
    amps = np.zeros(2 ** n, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def _x_gate(a: float) -> np.ndarray:
    """exp(-i a X) = cos(a) - i sin(a) X."""
    return np.array([[np.cos(a), -1j * np.sin(a)],
                     [-1j * np.sin(a), np.cos(a)]])


@lru_cache(maxsize=4)
def _zz_levels(L: int, periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of the ZZ table and each basis index's level, read-only.

    ``vals[inv]`` is ``TFIMModel.zz_sum_table()``; it has at most L + 1
    levels, so a phase layer needs only that many exponentials.
    """
    table = TFIMModel(L, periodic=periodic).zz_sum_table()
    vals, inv = np.unique(table, return_inverse=True)
    vals.flags.writeable = False
    inv.flags.writeable = False
    return vals, inv


def _hva_layer(block: np.ndarray, model: TFIMModel, slot: int,
               theta: float) -> None:
    """exp(i theta H_1) for slot 0, exp(i theta H_2) for slot 1, in place.

    block is a C-contiguous (2^L,) vector or (m, 2^L) stack of rows.  Every
    row comes out bitwise equal to the same layer on it alone.
    """
    if slot == 0:
        vals, inv = _zz_levels(model.L, model.periodic)
        block *= np.exp(1j * theta * (-model.J) * vals)[inv]
    else:
        gates = _x_gate(theta * model.Gamma)[None].repeat(model.L, axis=0)
        _native.rotate(block, 1, range(model.L), gates)


def _layer(s: StateVector, model: TFIMModel, slot: int,
           theta: float) -> StateVector:
    if s.n_qubits != model.L:
        raise ValueError("state size does not match model")
    amps = s.amplitudes.copy()
    _hva_layer(amps, model, slot, theta)
    return StateVector(amps)


def apply_exp_zz(s: StateVector, theta: float, model: TFIMModel) -> StateVector:
    """exp(i theta H_1) with H_1 = -J sum Z_k Z_{k+1}: a diagonal phase layer."""
    return _layer(s, model, 0, theta)


def apply_exp_x(s: StateVector, theta: float, model: TFIMModel) -> StateVector:
    """exp(i theta H_2) with H_2 = -Gamma sum X_k, one rotation per qubit."""
    return _layer(s, model, 1, theta)


def apply_pauli_string(s: StateVector, p: PauliString) -> np.ndarray:
    """Raw amplitudes of P|psi>.  Uses the bit action of each letter."""
    if p.n_qubits != s.n_qubits:
        raise ValueError("operator size does not match state")
    idx = np.arange(s.amplitudes.size, dtype=np.uint64)
    rows, phase = _bit_action(p, idx)
    out = np.empty_like(s.amplitudes)
    out[rows] = phase * s.amplitudes
    return out


def expectation(s: StateVector, h: PauliSum) -> float:
    """<psi|H|psi> for a Hermitian Pauli sum."""
    if h.n_qubits != s.n_qubits:
        raise ValueError("operator size does not match state")
    val = np.vdot(s.amplitudes, apply_pauli_sum(s, h))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}; "
                         "operator is not Hermitian on this state")
    return float(val.real)


def apply_pauli_sum(s: StateVector, h: PauliSum) -> np.ndarray:
    """Raw amplitudes of H|psi> (not normalized)."""
    out = np.zeros_like(s.amplitudes)
    for coeff, string in h.terms:
        out += coeff * apply_pauli_string(s, string)
    return out


def _guide_table(cum: np.ndarray, n_draws: int) -> np.ndarray | None:
    """Inverse-CDF guide table for n_draws uniforms on the CDF cum.

    G buckets, the smallest power of two >= n_draws, so bucket b = floor(u G)
    holds exactly the u in [b/G, (b+1)/G).  Entry b is the answer
    ``searchsorted(cum, u, "right")`` shared by every u in the bucket, or -1
    when a CDF value lies strictly inside it (Devroye, Non-Uniform Random
    Variate Generation, 1986, III.2.4).  None with fewer draws than CDF
    entries: building the table would then cost more than the searches it
    saves.  The table takes at most twice the memory of the uniforms.
    """
    if n_draws < cum.size:
        return None
    G = 1 << (n_draws - 1).bit_length()
    scaled = cum * G  # exact: G is a power of two
    up = np.ceil(scaled)
    # cum <= b/G  <=>  ceil(cum G) <= b
    table = np.cumsum(np.bincount(up.astype(np.intp), minlength=G + 1)[:G])
    table[scaled[scaled != up].astype(np.intp)] = -1
    return table


def _inverse_cdf(cum: np.ndarray, table: np.ndarray | None,
                 u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, u, side="right")``, read off the guide table
    where the bucket of u answers alone."""
    if table is None:
        return np.searchsorted(cum, u, side="right")
    idx = table[(u * table.size).astype(np.intp)]
    miss = np.flatnonzero(idx < 0)
    idx[miss] = np.searchsorted(cum, u[miss], side="right")
    return idx


def _normalized_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative probabilities scaled so the last entry is exactly 1."""
    cum = np.cumsum(probs)
    if not cum[-1] > 0:  # also catches nan
        raise ValueError("cannot sample a state of zero or non-finite norm")
    cum /= cum[-1]
    return cum


def sample_indices(s: StateVector, M: int, rng: np.random.Generator) -> np.ndarray:
    """M basis-index draws from |amplitude|^2 via inverse CDF, one uniform each."""
    if M < 1:
        raise ValueError("need at least one shot")
    cum = _normalized_cdf(s.probabilities())
    return _inverse_cdf(cum, _guide_table(cum, M), rng.random(M))


def sample_z(s: StateVector, M: int, rng: np.random.Generator) -> list[SpinConfiguration]:
    """M independent Z-basis measurement outcomes as spin configurations."""
    n = s.n_qubits
    return [SpinConfiguration.from_index(int(i), n) for i in sample_indices(s, M, rng)]


def rotate_to_x_basis(s: StateVector) -> StateVector:
    """Hadamard on every qubit; Z-sampling the result measures X."""
    return rotate_to_basis(s, "X" * s.n_qubits)


_BASIS_ROT = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    # S^dagger then Hadamard maps Y-eigenstates onto the Z basis
    "Y": (np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))
         @ np.diag([1.0, -1.0j]),
}


def rotate_to_basis(s: StateVector, basis: str) -> StateVector:
    """Per-qubit basis rotation; basis[k] in ZXY names qubit k's measurement."""
    if len(basis) != s.n_qubits:
        raise ValueError("basis string must cover every qubit")
    for k, b in enumerate(basis):
        if b not in _BASIS_ROT:
            raise ValueError(f"basis letter {b!r} at qubit {k} is not one of "
                             "Z, X, Y")
    qubits = [k for k, b in enumerate(basis) if b != "Z"]
    amps = s.amplitudes.copy()
    _native.rotate(amps, 1, qubits, [_BASIS_ROT[basis[k]] for k in qubits])
    return StateVector(amps)


def _check_hermitian(h: PauliSum) -> None:
    """from_terms merges repeated strings, and distinct Pauli strings are
    linearly independent Hermitian matrices, so the sum is Hermitian exactly
    when every coefficient is real."""
    if not h.coefficients_real():
        raise ValueError("sum is not Hermitian")


def _sign_fixed(v: np.ndarray) -> StateVector:
    """v scaled so its first amplitude above 1e-8 in magnitude is positive
    real."""
    nz = np.flatnonzero(np.abs(v) > 1e-8)[0]
    return StateVector(v * (np.abs(v[nz]) / v[nz]))


def _dense_eigh(h: PauliSum, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Checked eigh(h.dense()); what names the job in the capacity error."""
    if h.n_qubits > MAX_DENSE_QUBITS:
        raise CapacityError(f"{what} capped at {MAX_DENSE_QUBITS} qubits")
    _check_hermitian(h)
    return np.linalg.eigh(h.dense())


def exact_spectrum(h: PauliSum, k: int = 1) -> list[tuple[float, StateVector]]:
    """k lowest eigenpairs of the dense Hermitian matrix, ascending, with
    ``_sign_fixed`` eigenvectors."""
    vals, vecs = _dense_eigh(h, "dense spectrum")
    return [(float(vals[i]), _sign_fixed(vecs[:, i]))
            for i in range(min(k, vals.size))]


def ground_state(h: PauliSum) -> tuple[float, StateVector]:
    """Lowest eigenpair by Lanczos (ARPACK ``eigsh``) on the flip-mask
    action ``H x = sum_f (block_f * x)[idx ^ f]`` of ``h._flip_blocks()``.

    A complex H = A + iB runs as the real symmetric [[A, -B], [B, A]], whose
    spectrum is H's with every level doubled: the matvec maps (x, y) to the
    real and imaginary parts of H(x + iy), and the eigenvector (x, y) is
    x + iy here.  The start vector is a fixed uniform draw: runs repeat, and
    unlike a constant vector it has weight in every symmetry sector (from
    all ones, an open L = 9 chain with Gamma < 0 converged to the wrong
    parity).  E0 is the eigenvector's Rayleigh quotient through the matvec,
    which lies closer to the dense ``eigh`` value than ARPACK's Ritz value;
    the eigenvector takes ``exact_spectrum``'s sign rule.  In a degenerate
    ground level it is some unit vector of that level, not always the dense
    one.
    """
    if h.n_qubits > MAX_DENSE_QUBITS:
        raise CapacityError(f"ground state capped at {MAX_DENSE_QUBITS} qubits")
    _check_hermitian(h)
    if not h.terms:  # H = 0, and ARPACK stops on H v0 = 0
        return 0.0, basis_state(h.n_qubits, 0)
    dim = 2 ** h.n_qubits
    idx = np.arange(dim, dtype=np.intp)
    blocks = h._flip_blocks()
    real = not any(b.imag.any() for b in blocks.values())
    gathers = [(idx ^ f, b.real if real else b) for f, b in blocks.items()]

    def matvec(v):
        x = v if real else v[:dim] + 1j * v[dim:]
        y = np.zeros_like(x)
        for rows, b in gathers:
            y += (b * x)[rows]
        return y if real else np.concatenate([y.real, y.imag])

    n = dim if real else 2 * dim
    op = scipy.sparse.linalg.LinearOperator((n, n), matvec, dtype=float)
    v0 = np.random.default_rng(0).random(n)
    _, vecs = scipy.sparse.linalg.eigsh(op, k=1, which="SA", v0=v0)
    v = vecs[:, 0]
    e0 = float(v @ matvec(v)) / float(v @ v)
    return e0, _sign_fixed(v if real else v[:dim] + 1j * v[dim:])


def _split_diagonal_x(h: PauliSum) -> tuple[PauliSum, PauliSum]:
    """Split into a Z/I-diagonal part and a sum of single-qubit X terms."""
    diag, xpart = [], []
    for coeff, string in h.terms:
        if set(string.letters) <= {"I", "Z"}:
            diag.append((coeff, string))
        elif (len(string.support()) == 1
              and string.letters[string.support()[0]] == "X"):
            xpart.append((coeff, string))
        else:
            raise ValueError("trotter split needs diagonal + single-X terms only")
    return (PauliSum.from_terms(h.n_qubits, diag),
            PauliSum.from_terms(h.n_qubits, xpart))


def diagonal_values(h: PauliSum) -> np.ndarray:
    """Diagonal of a Z/I-only sum as a real vector over basis indices."""
    n = h.n_qubits
    idx = np.arange(2 ** n, dtype=np.uint64)
    out = np.zeros(2 ** n, dtype=float)
    for coeff, string in h.terms:
        if not set(string.letters) <= {"I", "Z"}:
            raise ValueError("sum is not diagonal")
        out += coeff.real * _string_values([string.mask()], idx)[0]
    return out


def evolve(s: StateVector, h: PauliSum, t: float, method: str = "exact",
           steps: int = 1) -> StateVector:
    """exp(-i H t)|psi> by dense exponential or first-order splitting.

    ``method="trotter"`` alternates exp(-i H_1 t/steps) exp(-i H_2 t/steps)
    where H_1 is the Z-diagonal part and H_2 the transverse-X part; the sum
    must decompose that way.  Either method needs a Hermitian sum.
    """
    if h.n_qubits != s.n_qubits:
        raise ValueError("operator size does not match state")
    if method == "exact":
        vals, vecs = _dense_eigh(h, "exact evolution")
        amps = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ s.amplitudes))
        return StateVector(amps)
    if method == "trotter":
        if steps < 1:
            raise ValueError("steps must be positive")
        _check_hermitian(h)
        diag, xpart = _split_diagonal_x(h)
        dt = t / steps
        dphase = np.exp(-1j * dt * diagonal_values(diag))
        qubits = [string.support()[0] for _, string in xpart.terms]
        gates = np.array([_x_gate(c.real * dt) for c, _ in xpart.terms])
        amps = s.amplitudes.copy()
        for _ in range(steps):
            amps *= dphase
            _native.rotate(amps, 1, qubits, gates)
        return StateVector(amps)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Debug dump format: u64 little-endian qubit count + little-endian complex128
# ---------------------------------------------------------------------------

def dump_state(s: StateVector, fh: BinaryIO) -> None:
    _check_qubits(s.n_qubits)  # the 1 to MAX_STATE_QUBITS load_state reads
    fh.write(struct.pack("<Q", s.n_qubits))
    fh.write(s.amplitudes.astype("<c16").tobytes())


def load_state(fh: BinaryIO) -> StateVector:
    head = fh.read(8)
    n = int.from_bytes(head, "little")
    if len(head) < 8 or not 1 <= n <= MAX_STATE_QUBITS:
        raise ValueError(f"dump header {n} read from {len(head)} bytes is not "
                         f"a qubit count of 1 to {MAX_STATE_QUBITS}")
    raw = fh.read(16 * 2 ** n)
    if len(raw) < 16 * 2 ** n:
        raise ValueError(f"dump header names {n} qubits, {16 * 2 ** n} bytes "
                         f"of amplitudes, but only {len(raw)} bytes were read")
    return StateVector(np.frombuffer(raw, dtype="<c16").astype(complex))
