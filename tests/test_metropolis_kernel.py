"""Pinned records of the two Metropolis chain drivers, and their input checks.

``run_chain`` and ``run_metropolis_chains`` share one accept-and-record
kernel.  The digests below pin, at fixed seeds, the recorded basis indices
and (for ``run_chain``) the acceptance rate and tau.  The cases cross the
pre-drawn block boundaries (4096 steps for VMC, 8192 for classical chains)
with record intervals that do not divide the step count, so any change in
the order in which the kernel consumes the random stream shows here.  Run
this file as a script to print the digests of the code as it stands.

The kernel's per-step loop is compiled C; ``_reference_metropolis`` below is
the numpy loop it replaced, and the compiled loop must match it bit for bit.
Single-flip masks are drawn in C too (``_native.flip_draw``), and must match
``1 << rng.integers(0, L)`` value for value and leave the generator where
numpy leaves it.  numpy does not promise that ``integers`` keeps its stream
across versions (NEP 19), so a numpy that changes it fails here.
"""

import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlab import _native
from spinlab.qemcmc import (ClassicalSpinModel, QuantumProposalConfig,
                            _metropolis, ferromagnetic_chain, run_chain,
                            spin_glass_instance)
from spinlab.statevector import apply_exp_x, apply_exp_zz, sample_indices
from spinlab.vmc import (AmplitudeTableAnsatz, JastrowAnsatz,
                         run_metropolis_chains)


def _fielded(L: int) -> ClassicalSpinModel:
    rng = np.random.default_rng(100 + L)
    g = spin_glass_instance(L, rng)
    return ClassicalSpinModel(L, g.couplings, rng.normal(size=L))


_MODELS = {
    "ferro4": lambda: ferromagnetic_chain(4),
    "glass5": lambda: spin_glass_instance(5, np.random.default_rng(5)),
    "fields4": lambda: _fielded(4),
    "fields5": lambda: _fielded(5),
}


def _chain_cases():
    for model in ("ferro4", "glass5", "fields5"):
        for proposal in ("single-flip", "uniform"):
            for n_chains in (1, 3, 16):
                for steps, every in ((9000, 7), (8193, 8192), (300, 1)):
                    yield model, proposal, 1.3, steps, every, n_chains, False
    for model in ("ferro4", "fields4", "fields5"):
        for n_chains in (1, 3, 16):
            yield model, "quantum", 0.8, 40, 3, n_chains, False
    yield "fields5", "single-flip", 2.0, 8200, 5, 3, True
    yield "fields5", "uniform", 0.5, 8200, 5, 3, True
    yield "fields4", "quantum", 2.0, 30, 1, 3, True


def _chain_id(case):
    model, proposal, beta, steps, every, n_chains, initial = case
    return (f"{model}-{proposal}-b{beta}-{steps}by{every}-c{n_chains}"
            + ("-initial" if initial else ""))


def _chain_digest(model, proposal, beta, steps, every, n_chains, initial):
    m = _MODELS[model]()
    if proposal == "quantum":
        proposal = QuantumProposalConfig.for_model(m)
    start = (np.arange(n_chains) * 7) % 2 ** m.L if initial else None
    rec, diag = run_chain(m, proposal, beta, steps,
                          np.random.default_rng(steps + n_chains),
                          n_chains=n_chains, record_every=every,
                          initial=start)
    h = hashlib.sha256(np.ascontiguousarray(rec, dtype=np.int64).tobytes())
    h.update(np.array([diag.acceptance_rate, diag.tau_energy]).tobytes())
    return h.hexdigest()[:16]


def _ansatz(name):
    if name == "jastrow6":
        return JastrowAnsatz(6, (0.3, -0.2, 0.1))
    # an exact-style table with zero amplitudes and mixed signs
    t = np.random.default_rng(4).normal(size=16)
    t[[0, 5, 6, 15]] = 0.0
    return AmplitudeTableAnsatz(4, t)


def _vmc_cases():
    for ansatz in ("jastrow6", "zeros4"):
        for n_chains in (1, 3, 64):
            for n_records, burn_in, thinning in ((3, 4095, 1), (700, 10, 7),
                                                 (2, 4095, 4096)):
                yield ansatz, n_chains, n_records, burn_in, thinning, False
    yield "jastrow6", 3, 50, 4095, 3, True
    yield "zeros4", 64, 50, 4095, 3, True


def _vmc_id(case):
    ansatz, n_chains, n_records, burn_in, thinning, initial = case
    return (f"{ansatz}-c{n_chains}-r{n_records}-b{burn_in}-t{thinning}"
            + ("-initial" if initial else ""))


def _vmc_digest(ansatz, n_chains, n_records, burn_in, thinning, initial):
    a = _ansatz(ansatz)
    # index 1 has a nonzero amplitude in both ansatzes
    start = np.full(n_chains, 1) if initial else None
    rec = run_metropolis_chains(a, n_chains, n_records, burn_in, thinning,
                                np.random.default_rng(n_chains + n_records),
                                initial=start)
    return hashlib.sha256(rec.astype(np.int64).tobytes()).hexdigest()[:16]


CHAIN_DIGESTS = {
    'ferro4-single-flip-b1.3-9000by7-c1': '70da3aa0e257650f',
    'ferro4-single-flip-b1.3-8193by8192-c1': '7e33a3595b7fcb9f',
    'ferro4-single-flip-b1.3-300by1-c1': '1656c0b0ccfdebd1',
    'ferro4-single-flip-b1.3-9000by7-c3': 'f8752826076b3d2d',
    'ferro4-single-flip-b1.3-8193by8192-c3': '37a13ebae95bf7ee',
    'ferro4-single-flip-b1.3-300by1-c3': '74297e63f7f1e144',
    'ferro4-single-flip-b1.3-9000by7-c16': '6a12fa8896055500',
    'ferro4-single-flip-b1.3-8193by8192-c16': '6aae7b43f611c091',
    'ferro4-single-flip-b1.3-300by1-c16': '340735d8b5c63ecb',
    'ferro4-uniform-b1.3-9000by7-c1': '568a23f923dd1192',
    'ferro4-uniform-b1.3-8193by8192-c1': '2c97e36c837f629f',
    'ferro4-uniform-b1.3-300by1-c1': 'c7793286992e8646',
    'ferro4-uniform-b1.3-9000by7-c3': '140ff2ea3399196c',
    'ferro4-uniform-b1.3-8193by8192-c3': '8f41ee581e0eec91',
    'ferro4-uniform-b1.3-300by1-c3': '85112bb70634f2fd',
    'ferro4-uniform-b1.3-9000by7-c16': '92be11101b504cdc',
    'ferro4-uniform-b1.3-8193by8192-c16': 'b7aee53536f6b232',
    'ferro4-uniform-b1.3-300by1-c16': '5d1e83ec2c4cb406',
    'glass5-single-flip-b1.3-9000by7-c1': '0bb827f0291e8cd0',
    'glass5-single-flip-b1.3-8193by8192-c1': 'cae612006d396bd7',
    'glass5-single-flip-b1.3-300by1-c1': 'b273d0f0b9206425',
    'glass5-single-flip-b1.3-9000by7-c3': '1b09529db1b13e84',
    'glass5-single-flip-b1.3-8193by8192-c3': '689cdc72981bde21',
    'glass5-single-flip-b1.3-300by1-c3': 'f91047b6895a6ac4',
    'glass5-single-flip-b1.3-9000by7-c16': '7e5c5fca35c1e6fa',
    'glass5-single-flip-b1.3-8193by8192-c16': '8f247a977b568163',
    'glass5-single-flip-b1.3-300by1-c16': '8029b794fc1926b7',
    'glass5-uniform-b1.3-9000by7-c1': '40fa710c68c1f5bf',
    'glass5-uniform-b1.3-8193by8192-c1': 'c9573ae4ac3a5238',
    'glass5-uniform-b1.3-300by1-c1': '4b94aa7ee9264d12',
    'glass5-uniform-b1.3-9000by7-c3': '93a523e1f1492309',
    'glass5-uniform-b1.3-8193by8192-c3': '8295f9b336c8ffb9',
    'glass5-uniform-b1.3-300by1-c3': 'aa38ccd44778716b',
    'glass5-uniform-b1.3-9000by7-c16': '705b3e1f038bb9b4',
    'glass5-uniform-b1.3-8193by8192-c16': 'cfc61031fc0b25f5',
    'glass5-uniform-b1.3-300by1-c16': 'a592209d0c32ac3e',
    'fields5-single-flip-b1.3-9000by7-c1': 'e757440f656c6b83',
    'fields5-single-flip-b1.3-8193by8192-c1': 'ac0e8cdc9506f21e',
    'fields5-single-flip-b1.3-300by1-c1': 'e34574bf1a75ac91',
    'fields5-single-flip-b1.3-9000by7-c3': '25cbcb8d8548745d',
    'fields5-single-flip-b1.3-8193by8192-c3': '6929eea1f0e6c647',
    'fields5-single-flip-b1.3-300by1-c3': '3aaa6662439da26e',
    'fields5-single-flip-b1.3-9000by7-c16': '633fd1dfb8d32ea6',
    'fields5-single-flip-b1.3-8193by8192-c16': '06fd9825c645821b',
    'fields5-single-flip-b1.3-300by1-c16': 'c1192c7bd0dcdbea',
    'fields5-uniform-b1.3-9000by7-c1': '33246e5eba32f3f1',
    'fields5-uniform-b1.3-8193by8192-c1': '1bc01b1a2eb72f81',
    'fields5-uniform-b1.3-300by1-c1': '184d7889c2d904a9',
    'fields5-uniform-b1.3-9000by7-c3': '620c5b71e0c3e3fd',
    'fields5-uniform-b1.3-8193by8192-c3': 'ab062493fa99d1bb',
    'fields5-uniform-b1.3-300by1-c3': '26facdd3295f5157',
    'fields5-uniform-b1.3-9000by7-c16': 'fa0c3a3907407a3a',
    'fields5-uniform-b1.3-8193by8192-c16': '7693df1711503607',
    'fields5-uniform-b1.3-300by1-c16': 'f073f19e419430ff',
    'ferro4-quantum-b0.8-40by3-c1': 'fb14459764c51477',
    'ferro4-quantum-b0.8-40by3-c3': '0ecc6ee33106f8e4',
    'ferro4-quantum-b0.8-40by3-c16': '1e05ea6821c104a1',
    'fields4-quantum-b0.8-40by3-c1': '8091c20da08383c9',
    'fields4-quantum-b0.8-40by3-c3': 'bac9d0175a92ad17',
    'fields4-quantum-b0.8-40by3-c16': '90cca6642da0936a',
    'fields5-quantum-b0.8-40by3-c1': 'd524268e23db6f6f',
    'fields5-quantum-b0.8-40by3-c3': '11796eba3c4412ce',
    'fields5-quantum-b0.8-40by3-c16': 'f4f66a31595cb858',
    'fields5-single-flip-b2.0-8200by5-c3-initial': '4862ff5eba06ede8',
    'fields5-uniform-b0.5-8200by5-c3-initial': 'f4a0330631e5a882',
    'fields4-quantum-b2.0-30by1-c3-initial': '6e48599b478b1a85',
}

VMC_DIGESTS = {
    'jastrow6-c1-r3-b4095-t1': '2f46259bfa74e7f7',
    'jastrow6-c1-r700-b10-t7': 'd33f7629a9abfa39',
    'jastrow6-c1-r2-b4095-t4096': 'e8b2e3e096aa4921',
    'jastrow6-c3-r3-b4095-t1': '8685541baafcf043',
    'jastrow6-c3-r700-b10-t7': '017411d53f0447b9',
    'jastrow6-c3-r2-b4095-t4096': 'a9dbacec66cb69d7',
    'jastrow6-c64-r3-b4095-t1': '139a7e29e97303ef',
    'jastrow6-c64-r700-b10-t7': '603c018ed232273b',
    'jastrow6-c64-r2-b4095-t4096': 'c9161d5d65eb004e',
    'zeros4-c1-r3-b4095-t1': '49f92c4a88e0fb71',
    'zeros4-c1-r700-b10-t7': '912b277dd13adb09',
    'zeros4-c1-r2-b4095-t4096': 'b8bd48c5932a2f39',
    'zeros4-c3-r3-b4095-t1': '8bce82af771e8514',
    'zeros4-c3-r700-b10-t7': '2e8b9c394c9a0edc',
    'zeros4-c3-r2-b4095-t4096': '96faae9363c57fb4',
    'zeros4-c64-r3-b4095-t1': '8278f596d22083e3',
    'zeros4-c64-r700-b10-t7': 'a785c8f5c25d67d2',
    'zeros4-c64-r2-b4095-t4096': '6a352d2c183f3867',
    'jastrow6-c3-r50-b4095-t3-initial': '203bd43c19149372',
    'zeros4-c64-r50-b4095-t3-initial': '39fc7993084728ff',
}


@pytest.mark.parametrize("case", list(_chain_cases()), ids=_chain_id)
def test_run_chain_records_are_pinned(case):
    assert _chain_digest(*case) == CHAIN_DIGESTS[_chain_id(case)]


@pytest.mark.parametrize("case", list(_vmc_cases()), ids=_vmc_id)
def test_run_metropolis_chains_records_are_pinned(case):
    assert _vmc_digest(*case) == VMC_DIGESTS[_vmc_id(case)]


@pytest.mark.parametrize("initial", [
    [-3, 2], [0, 16], [3], [[0], [1]], [0.0, 1.0], [True, False]],
    ids=["negative", "too-large", "too-few", "nested", "float", "bool"])
def test_chain_drivers_reject_bad_initial(initial):
    with pytest.raises(ValueError, match=r"\binitial\b"):
        run_chain(ferromagnetic_chain(4), "single-flip", 1.0, 10,
                  np.random.default_rng(0), n_chains=2, initial=initial)
    with pytest.raises(ValueError, match=r"\binitial\b"):
        run_metropolis_chains(JastrowAnsatz(4, (0.1, 0.2)), 2, 5, 0, 1,
                              np.random.default_rng(0), initial=initial)


@pytest.mark.parametrize("args,name", [
    ((2, 5, -20, 10), "burn_in"),
    ((2, 5, 10, 0), "thinning"),
    ((2, 5, 10, -3), "thinning"),
    ((0, 5, 10, 1), "n_chains"),
    ((2, -1, 10, 1), "n_records"),
], ids=["negative-burn-in", "zero-thinning", "negative-thinning",
        "zero-chains", "negative-records"])
def test_run_metropolis_chains_rejects_bad_counts(args, name):
    # a negative burn_in once returned uninitialized memory as indices, and
    # zero thinning divided by zero
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        run_metropolis_chains(JastrowAnsatz(4, (0.1, 0.2)), *args,
                              np.random.default_rng(0))


@pytest.mark.parametrize("proposal", ["single-flip", "uniform", "quantum"])
@pytest.mark.parametrize("kwargs,name", [
    ({"steps": 0}, "steps"),
    ({"n_chains": 0}, "n_chains"),
    ({"record_every": 0}, "record_every"),
    ({"record_every": -2}, "record_every"),
    ({"record_every": 20}, "record_every"),
], ids=["zero-steps", "zero-chains", "zero-record-every",
        "negative-record-every", "record-every-above-steps"])
def test_run_chain_rejects_bad_counts(proposal, kwargs, name):
    model = ferromagnetic_chain(4)
    if proposal == "quantum":
        proposal = QuantumProposalConfig.for_model(model)
    args = {"steps": 10, "n_chains": 2, "record_every": 1} | kwargs
    steps = args.pop("steps")
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        run_chain(model, proposal, 1.0, steps, np.random.default_rng(0),
                  **args)


def test_benchmark_tracer_reads_chain_arguments_by_position():
    """perfbench's tracer reads these arguments by position to count chain
    steps, shots and layer bytes, so a renamed or reordered parameter would
    silently zero its per-layer metrics."""
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(run_metropolis_chains)[1:5] == ["n_chains", "n_records",
                                                 "burn_in", "thinning"]
    chain = names(run_chain)
    assert (chain[1], chain[3], chain[5]) == ("proposal", "steps",
                                              "n_chains")
    assert names(sample_indices)[1] == "M"
    assert names(apply_exp_zz)[0] == names(apply_exp_x)[0] == "s"


def _reference_metropolis(table, scale, initial, n_chains, steps, burn_in,
                          thinning, rng, draw, block, flip):
    """The numpy loop that _metropolis ran before its compiled one."""
    dim = table.size
    if initial is None:
        idx = rng.integers(0, dim, size=n_chains)
        while np.any(np.isinf(table[idx])):
            bad = np.isinf(table[idx])
            idx[bad] = rng.integers(0, dim, size=int(bad.sum()))
    else:
        idx = np.asarray(initial).astype(np.int64)
    records = np.empty((n_chains, (steps - burn_in) // thinning),
                       dtype=np.int64)
    takes = np.empty((min(block, steps), n_chains), dtype=bool)
    accepted = rec = 0
    next_rec = burn_in + thinning
    for done in range(0, steps, block):
        n = min(block, steps - done)
        moves = draw(n, idx)
        logu = np.log(rng.random(size=(n, n_chains)))
        for step, (move, lu, take) in enumerate(zip(moves, logu, takes),
                                                done + 1):
            prop = idx ^ move if flip else move
            d = table[prop] - table[idx]
            np.less(lu, d if scale == 1.0 else scale * d, out=take)
            idx = np.where(take, prop, idx)
            if step == next_rec:
                records[:, rec] = idx
                rec += 1
                next_rec += thinning
        accepted += int(np.count_nonzero(takes[:n]))
    return records, accepted


def _run_kernel(kernel, table, scale, start, n_chains, steps, burn_in,
                thinning, block, flip, seed, compiled_draw=False):
    rng = np.random.default_rng(seed)
    L = table.size.bit_length() - 1

    def draw(n, idx):
        if flip:
            return 1 << rng.integers(0, L, size=(n, n_chains))
        return rng.integers(0, table.size, size=(n, n_chains))

    if compiled_draw:
        draw = _native.flip_draw(rng, L, n_chains)

    records, accepted = kernel(table, scale, start, n_chains, steps, burn_in,
                               thinning, rng, draw, block, flip)
    # the same stream consumed: the next draw agrees too
    return records, accepted, rng.random()


@settings(max_examples=80, deadline=None)
@given(L=st.integers(1, 6), flip=st.booleans(),
       scale=st.sampled_from([1.0, -1.3, 0.7]),
       specials=st.sampled_from(["finite", "-inf", "nan", "both"]),
       block=st.sampled_from([1, 3, 4096]),
       n_chains=st.sampled_from([1, 2, 4, 8, 16, 64, 100]),
       burn_in=st.integers(0, 40), thinning=st.integers(1, 17),
       extra=st.integers(0, 200), start=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), compiled_draw=st.booleans())
@example(L=5, flip=True, scale=1.0, specials="both", block=4096,
         n_chains=16, burn_in=7, thinning=13, extra=4200, start=False,
         seed=3, compiled_draw=False)
@example(L=4, flip=False, scale=-1.3, specials="-inf", block=4096,
         n_chains=100, burn_in=0, thinning=7, extra=4100, start=True, seed=4,
         compiled_draw=False)
@example(L=6, flip=True, scale=-1.3, specials="both", block=4096,
         n_chains=1, burn_in=5, thinning=11, extra=4200, start=False,
         seed=5, compiled_draw=True)
@example(L=5, flip=True, scale=0.7, specials="nan", block=3,
         n_chains=2, burn_in=0, thinning=1, extra=200, start=True, seed=6,
         compiled_draw=True)
@example(L=3, flip=True, scale=1.0, specials="-inf", block=4096,
         n_chains=8, burn_in=40, thinning=17, extra=4100, start=True,
         seed=7, compiled_draw=True)
def test_compiled_loop_matches_numpy_reference(L, flip, scale, specials,
                                               block, n_chains, burn_in,
                                               thinning, extra, start, seed,
                                               compiled_draw):
    """With ``compiled_draw`` the compiled side draws its single-flip masks
    by ``_native.flip_draw`` while the reference keeps numpy's draws."""
    gen = np.random.default_rng(seed)
    table = gen.normal(size=2 ** L)
    # index 0 stays finite, so every start draw can end
    if specials in ("-inf", "both"):
        table[1:][gen.random(2 ** L - 1) < 0.3] = -np.inf
    if specials in ("nan", "both"):
        table[1:][gen.random(2 ** L - 1) < 0.2] = np.nan
    initial = gen.integers(0, 2 ** L, size=n_chains) if start else None
    steps = burn_in + extra
    args = (table, scale, initial, n_chains, steps, burn_in, thinning, block,
            flip, seed)
    records, accepted, after = _run_kernel(
        _metropolis, *args, compiled_draw=compiled_draw and flip)
    # -inf - -inf is nan in both loops; only numpy warns about it
    with np.errstate(invalid="ignore"):
        ref_records, ref_accepted, ref_after = _run_kernel(
            _reference_metropolis, *args)
    np.testing.assert_array_equal(records, ref_records)
    assert accepted == ref_accepted
    assert after == ref_after


_BIT_GENERATORS = {"pcg64": np.random.PCG64, "pcg64dxsm": np.random.PCG64DXSM,
                   "mt19937": np.random.MT19937, "philox": np.random.Philox,
                   "sfc64": np.random.SFC64}


@settings(max_examples=120, deadline=None)
@given(L=st.integers(1, 20), n_chains=st.sampled_from([1, 2, 3, 7, 64]),
       steps=st.integers(1, 300) | st.sampled_from(
           [4095, 4096, 4097, 8191, 8192, 8193]),
       block=st.sampled_from([1, 5, 4096, 8192]),
       half_word=st.booleans(),
       bit_generator=st.sampled_from(sorted(_BIT_GENERATORS)),
       seed=st.integers(0, 2 ** 64 - 1))
@example(L=10, n_chains=1, steps=4097, block=4096, half_word=True,
         bit_generator="pcg64", seed=1)
@example(L=7, n_chains=3, steps=8193, block=8192, half_word=True,
         bit_generator="pcg64", seed=2)
@example(L=20, n_chains=64, steps=4096, block=4096, half_word=False,
         bit_generator="pcg64", seed=3)
@example(L=1, n_chains=3, steps=9, block=4, half_word=True,
         bit_generator="pcg64", seed=4)
def test_flip_draw_is_numpys_integers_stream(L, n_chains, steps, block,
                                             half_word, bit_generator, seed):
    """The compiled masks equal 1 << rng.integers(0, L, size=(n, n_chains))
    block by block, and leave the bit generator's state (its buffered 32-bit
    half-word included) and the next rng.random() as numpy leaves them."""
    rngs = [np.random.Generator(_BIT_GENERATORS[bit_generator](seed))
            for _ in range(2)]
    if half_word:
        # an odd number of 32-bit draws leaves half a 64-bit word buffered
        for rng in rngs:
            rng.integers(0, 10, size=3)
    compiled, numpy_rng = rngs
    draw = _native.flip_draw(compiled, L, n_chains)
    for done in range(0, steps, block):
        n = min(block, steps - done)
        expected = 1 << numpy_rng.integers(0, L, size=(n, n_chains))
        np.testing.assert_array_equal(draw(n, None), expected)
    # a nested dict (an array in MT19937's); PCG64's holds has_uint32 and
    # uinteger, the buffered half-word
    np.testing.assert_equal(compiled.bit_generator.state,
                            numpy_rng.bit_generator.state)
    assert compiled.random() == numpy_rng.random()


@pytest.mark.parametrize("sizes", [(4, 5), (4096, 4097), (3, 9, 1, 9, 10)])
def test_flip_draw_regrows_its_buffer_for_a_larger_block(sizes):
    """A request for more rows than any before gets a buffer of its own
    size: every block has n full rows of numpy's masks."""
    compiled, numpy_rng = (np.random.default_rng(8) for _ in range(2))
    draw = _native.flip_draw(compiled, 11, 3)
    for n in sizes:
        np.testing.assert_array_equal(
            draw(n, None), 1 << numpy_rng.integers(0, 11, size=(n, 3)))
    assert compiled.random() == numpy_rng.random()


@pytest.mark.parametrize("L", [0, -1, 64, 100])
def test_flip_draw_refuses_a_site_count_it_cannot_shift(L):
    with pytest.raises(ValueError, match="1 <= L <= 63"):
        _native.flip_draw(np.random.default_rng(0), L, 2)


# PCG64 steps its 128-bit state s to s * MULT + inc (MULT is PCG's default
# multiplier) and outputs the XSL-RR of the new state: for a new state below
# 2^64 that is the state itself
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_about_to_output(word: int, buffered: bool) -> np.random.Generator:
    """A PCG64 generator whose next 64-bit output is word, after a buffered
    zero half-word if ``buffered``."""
    s = 1 - word % 2  # inc must be odd
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64", "has_uint32": int(buffered), "uinteger": 0,
        "state": {"state": s, "inc": (word - s * _PCG64_MULT) % 2 ** 128}}
    return np.random.Generator(bit_generator)


def _rejection_cases():
    # a word w is rejected when (w * L) mod 2^32 < 2^32 mod L; for odd L a
    # word with any low half exists, here just below and at the threshold
    for L in (3, 7, 13, 19):
        threshold = 2 ** 32 % L
        for low in (0, threshold - 1, threshold):
            yield L, low * pow(L, -1, 2 ** 32) % 2 ** 32
    yield 10, 0
    yield 20, 0


@pytest.mark.parametrize("L,word", list(_rejection_cases()))
@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
def test_flip_draw_rejects_words_as_numpy_does(L, word, buffered):
    """Lemire's rejection, which random seeds reach about once in 2^32 / L
    words, on crafted words: the output's high half is 0, a rejected word
    too, so each case rejects one to three words."""
    assert _pcg64_about_to_output(word, False).bit_generator.random_raw() \
        == word
    compiled = _pcg64_about_to_output(word, buffered)
    numpy_rng = _pcg64_about_to_output(word, buffered)
    masks = _native.flip_draw(compiled, L, 3)(4, None)
    np.testing.assert_array_equal(
        masks, 1 << numpy_rng.integers(0, L, size=(4, 3)))
    np.testing.assert_equal(compiled.bit_generator.state,
                            numpy_rng.bit_generator.state)


@pytest.mark.parametrize("flip,move,proposal", [
    (False, 16, 16), (False, -1, -1), (True, 16, 3 ^ 16),
    (True, 1 << 40, 3 ^ (1 << 40)), (True, -8, 3 ^ -8)],
    ids=["state-past-end", "negative-state", "mask-past-end", "wide-mask",
         "negative-mask"])
def test_out_of_range_proposal_raises_index_error(flip, move, proposal):
    # the other moves keep each chain where it is (mask 0, or its own
    # state), so chain 1 is at 3 when the bad move ends the first block
    def draw(n, idx):
        moves = np.zeros((n, 2), dtype=np.int64)
        if not flip:
            moves[:, 1] = 3
        moves[-1, 1] = move
        return moves

    with pytest.raises(IndexError,
                       match=rf"proposal {proposal} lies outside .*\[0, 16\)"):
        _metropolis(np.zeros(16), 1.0, np.array([0, 3]), 2, 12, 0, 1,
                    np.random.default_rng(0), draw, 4, flip)


@pytest.mark.parametrize("moves", [np.zeros((4, 3), dtype=np.int64),
                                   np.zeros((2, 2), dtype=np.int64),
                                   np.zeros((4, 2))],
                         ids=["too-many-chains", "too-few-steps", "float"])
def test_malformed_draw_raises_index_error(moves):
    with pytest.raises(IndexError, match="integer moves"):
        _metropolis(np.zeros(16), 1.0, np.array([0, 3]), 2, 12, 0, 1,
                    np.random.default_rng(0), lambda n, idx: moves, 4, True)


if __name__ == "__main__":
    for case in _chain_cases():
        print(f"    {_chain_id(case)!r}: {_chain_digest(*case)!r},")
    print()
    for case in _vmc_cases():
        print(f"    {_vmc_id(case)!r}: {_vmc_digest(*case)!r},")
