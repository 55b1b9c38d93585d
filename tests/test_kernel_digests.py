"""Pinned bytes of the statevector kernels and their callers.

The digests below are sha256 prefixes of raw ``tobytes()`` output, recorded
from the 8-op rotation loop and the 2-add ``_x_sum`` that are kept here as
``_rotate_qubits_ref`` and ``_x_sum_ref``.  They cover the HVA gradient,
``prepare``, ``sr_matrix``, ``apply_exp_x``, ``rotate_to_basis``, Trotter
evolution, the Trotter proposal columns, the VMC local-energy table and the
grouped shot-noise estimator, over L = 1, 2, 5, 8, 10 and three (J, Gamma,
periodic) models.  The layer-by-layer references in ``test_vqe.py`` call
``apply_exp_x`` and so run the kernel under test; these digests do not, so
a change that moves one bit of any rotation shows here.  Run this file as a
script to print the digests of the code as it stands.
"""

import hashlib

import numpy as np
import pytest

from spinlab.pauli import PauliString, PauliSum, group_qubitwise
from spinlab.qemcmc import _trotter_columns
from spinlab.statevector import (_BASIS_ROT, StateVector, TFIMModel,
                                 _rotate_qubits, _x_gate, _x_sum, apply_exp_x,
                                 evolve, rotate_to_basis)
from spinlab.vmc import AmplitudeTableAnsatz, local_energy_table
from spinlab.vqe import (HVAnsatz, ShotPlan, energy_and_gradient,
                         estimate_energy_pauli, prepare, sr_matrix)

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


def _x_sum_ref(amps, n):
    out = np.zeros_like(amps)
    for k in range(n):
        t = amps.reshape(2 ** (n - 1 - k), 2, -1)
        o = out.reshape(2 ** (n - 1 - k), 2, -1)
        o[:, 0] += t[:, 1]
        o[:, 1] += t[:, 0]
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


def _mixed_sum(L: int) -> PauliSum:
    """A Hermitian sum over X, Y and Z strings, so Y-basis groups occur."""
    rng = np.random.default_rng(2000 + L)
    terms = [(complex(rng.normal()), PauliString(
        "".join(rng.choice(list("IXYZ"), size=L)))) for _ in range(3 * L)]
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
    'estimate_energy_pauli-L1-J1.0-G1.0-pbc': '05df556eaae42f74',
    'estimate_energy_pauli-L1-J0.8-G1.3-pbc': '1bfd44afa7ab5ead',
    'estimate_energy_pauli-L1-J-0.6-G0.4-obc': '3e8bce002efc007f',
    'estimate_energy_pauli-L2-J1.0-G1.0-pbc': '29b14c450bc77a64',
    'estimate_energy_pauli-L2-J0.8-G1.3-pbc': '9da0d39fd804142a',
    'estimate_energy_pauli-L2-J-0.6-G0.4-obc': '3ed40c4f5f3fdd55',
    'estimate_energy_pauli-L5-J1.0-G1.0-pbc': '02e78c84c12eb577',
    'estimate_energy_pauli-L5-J0.8-G1.3-pbc': 'ade32f9663e476bb',
    'estimate_energy_pauli-L5-J-0.6-G0.4-obc': '424b9746dd96e67c',
    'estimate_energy_pauli-L8-J1.0-G1.0-pbc': '69b257897ef795b0',
    'estimate_energy_pauli-L8-J0.8-G1.3-pbc': '08987ae4360a895b',
    'estimate_energy_pauli-L8-J-0.6-G0.4-obc': '306c9d0149f15cc0',
    'estimate_energy_pauli-L10-J1.0-G1.0-pbc': 'cf25e410bddc46b5',
    'estimate_energy_pauli-L10-J0.8-G1.3-pbc': '11e23a4db2966983',
    'estimate_energy_pauli-L10-J-0.6-G0.4-obc': 'f53bada34f432acf',
}


@pytest.mark.parametrize("case", list(_cases()),
                         ids=[_case_id(*c) for c in _cases()])
def test_kernel_output_is_pinned(case):
    assert _kernel_digest(*case) == DIGESTS[_case_id(*case)]


def _gates():
    rng = np.random.default_rng(40)
    had = _BASIS_ROT["X"]
    return {"x0": _x_gate(0.0), "x+0.37": _x_gate(0.37),
            "x-0.37": _x_gate(-0.37), "x-pi/2": _x_gate(np.pi / 2),
            "hadamard": had, "y-rotation": _BASIS_ROT["Y"],
            "random": rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))}


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
    g = _gates()[gate]
    order = list(range(n)) + [n - 1, 0]
    for name, amps in _blocks(n).items():
        ref = amps.copy()
        _rotate_qubits_ref(ref, [(k, g) for k in order])
        _rotate_qubits(amps, [(k, g) for k in order])
        assert amps.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("n", SIZES)
def test_x_sum_matches_two_add_form_bitwise(n):
    rng = np.random.default_rng(60 + n)
    for amps in (rng.normal(size=2 ** n),
                 rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n),
                 np.where(rng.random(2 ** n) < 0.5, -0.0, 0.0)):
        assert _x_sum(amps, n).tobytes() == _x_sum_ref(amps, n).tobytes()


if __name__ == "__main__":
    for case in _cases():
        print(f"    {_case_id(*case)!r}: {_kernel_digest(*case)!r},")
