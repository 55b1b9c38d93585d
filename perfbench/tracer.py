"""Span tracer installed around spinlab's public functions from outside.

The program is not edited: ``Tracer.install`` rebinds every public function
of the traced modules, wherever a traced module holds it by name, to a
wrapper that records one span per call.  A span is (name, start, end,
parent); spans stay in memory and are written out once the run ends.  A
span's self time is its duration minus the time its child spans cover.
A few wrappers also read their arguments or result to count work done
(shots, chain steps, computed bytes, accepted moves).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict
from pathlib import Path

MODULES = ("pauli", "statevector", "vqe", "vmc", "qemcmc", "harness", "cli")

# Methods traced beside the module-level functions, with their span names.
METHODS = {
    ("pauli", "PauliSum", "dense"): "pauli.PauliSum.dense",
    ("harness", "RunManifest", "write"): "harness.manifest_write",
}

# Layer metrics the traced run reports, with units.  ``.calls`` and the other
# counts repeat exactly for a given seed; ``.s`` is self time; the per-call
# and per-unit rates use the span's full duration, so they price a call the
# way its caller pays for it.
LAYER_METRICS = {
    "cli.import_s": "s",
    "harness.experiment.self_s": "s",
    "harness.write_csv.s": "s",
    "harness.manifest_write.s": "s",
    "harness.csv_identical": "count",
    "pauli.PauliSum.dense.calls": "count",
    "pauli.PauliSum.dense.s": "s",
    "pauli.group_qubitwise.calls": "count",
    "pauli.group_qubitwise.s": "s",
    "statevector.ground_state.calls": "count",
    "statevector.ground_state.s": "s",
    "statevector.exact_spectrum.calls": "count",
    "statevector.exact_spectrum.s": "s",
    "statevector.apply_exp_zz.calls": "count",
    "statevector.apply_exp_zz.s": "s",
    "statevector.apply_exp_zz.us_per_call": "us",
    "statevector.apply_exp_x.calls": "count",
    "statevector.apply_exp_x.s": "s",
    "statevector.apply_exp_x.us_per_call": "us",
    "statevector.hva_layer.computed_bytes": "B",
    "statevector.apply_pauli_sum.calls": "count",
    "statevector.apply_pauli_sum.s": "s",
    "statevector.rotate_to_basis.calls": "count",
    "statevector.rotate_to_basis.s": "s",
    "statevector.sample_indices.calls": "count",
    "statevector.sample_indices.s": "s",
    "statevector.sample_indices.shots": "count",
    "vqe.optimize_noiseless.s": "s",
    "vqe.optimize_noiseless.nit": "count",
    "vqe.optimize_noiseless.converged": "count",
    "vqe.energy_and_gradient.calls": "count",
    "vqe.energy_and_gradient.s": "s",
    "vqe.energy_and_gradient.ms_per_call": "ms",
    "vqe.prepare.calls": "count",
    "vqe.prepare.s": "s",
    "vqe.estimate_energy_pauli.calls": "count",
    "vqe.estimate_energy_pauli.s": "s",
    "vqe.estimate_energy_pauli.shots_per_s": "1/s",
    "vqe.predicted_error.s": "s",
    "vmc.run_sr_optimization.s": "s",
    "vmc.run_metropolis_chains.calls": "count",
    "vmc.run_metropolis_chains.s": "s",
    "vmc.run_metropolis_chains.chain_steps": "count",
    "vmc.run_metropolis_chains.ns_per_chain_step": "ns",
    "vmc.local_energy_table.calls": "count",
    "vmc.local_energy_table.s": "s",
    "vmc.rayleigh_quotient.calls": "count",
    "vmc.rayleigh_quotient.s": "s",
    "qemcmc.run_chain.quantum.steps": "count",
    "qemcmc.run_chain.quantum.s": "s",
    "qemcmc.run_chain.quantum.ms_per_step": "ms",
    "qemcmc.run_chain.quantum.acceptance": "ratio",
    "qemcmc.run_chain.single_flip.chain_steps": "count",
    "qemcmc.run_chain.single_flip.s": "s",
    "qemcmc.run_chain.single_flip.acceptance": "ratio",
    "qemcmc.build_proposal_matrix.calls": "count",
    "qemcmc.build_proposal_matrix.s": "s",
    "qemcmc.assemble_kernel.calls": "count",
    "qemcmc.assemble_kernel.s": "s",
    "qemcmc.spectral_gap.calls": "count",
    "qemcmc.spectral_gap.s": "s",
    "qemcmc.autocorrelation_time_pooled.calls": "count",
    "qemcmc.autocorrelation_time_pooled.s": "s",
    "qemcmc.energy_table.calls": "count",
    "qemcmc.energy_table.s": "s",
    "trace.overhead_frac": "ratio",
}

# Metrics filled in by run.py from several child runs rather than from the
# spans of one traced run.
PARENT_METRICS = ("cli.import_s", "harness.csv_identical",
                  "trace.overhead_frac")


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_layer_bytes(counts, args, kwargs, result):
    # one complex128 state read and one written per layer; computed, not
    # measured, so cache traffic is not in it
    counts["statevector.hva_layer.computed_bytes"] += \
        _arg(args, kwargs, 0, "s").amplitudes.size * 16 * 2


def _count_shots(counts, args, kwargs, result):
    counts["statevector.sample_indices.shots"] += int(
        _arg(args, kwargs, 1, "M"))


def _count_estimate_shots(counts, args, kwargs, result):
    counts["vqe.estimate_energy_pauli.shots"] += result.shots_used


def _count_optimizer(counts, args, kwargs, result):
    counts["vqe.optimize_noiseless.nit"] += int(result.iterations)
    counts["vqe.optimize_noiseless.converged"] += int(bool(result.converged))


def _count_metropolis(counts, args, kwargs, result):
    n_chains = int(_arg(args, kwargs, 1, "n_chains"))
    n_records = int(_arg(args, kwargs, 2, "n_records"))
    burn_in = int(_arg(args, kwargs, 3, "burn_in"))
    thinning = int(_arg(args, kwargs, 4, "thinning"))
    counts["vmc.run_metropolis_chains.chain_steps"] += \
        n_chains * (burn_in + n_records * thinning)


def _chain_kind(args, kwargs) -> str:
    proposal = _arg(args, kwargs, 1, "proposal")
    if isinstance(proposal, str):
        return proposal.replace("-", "_")
    return "quantum"


def _count_chain(counts, args, kwargs, result):
    kind = _chain_kind(args, kwargs)
    steps = int(_arg(args, kwargs, 3, "steps"))
    proposals = steps * int(_arg(args, kwargs, 5, "n_chains", 1))
    prefix = f"qemcmc.run_chain.{kind}"
    counts[f"{prefix}.steps"] += steps
    counts[f"{prefix}.chain_steps"] += proposals
    counts[f"{prefix}.accepted"] += round(result[1].acceptance_rate
                                          * proposals)


HOOKS = {
    "statevector.apply_exp_zz": _count_layer_bytes,
    "statevector.apply_exp_x": _count_layer_bytes,
    "statevector.sample_indices": _count_shots,
    "vqe.estimate_energy_pauli": _count_estimate_shots,
    "vqe.optimize_noiseless": _count_optimizer,
    "vmc.run_metropolis_chains": _count_metropolis,
    "qemcmc.run_chain": _count_chain,
}


class Tracer:
    """In-memory span recorder for one run of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        split = name == "qemcmc.run_chain"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = (f"{name}.{_chain_kind(args, kwargs)}" if split
                         else name)
            i = len(spans)
            spans.append((span_name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (span_name, start, end, spans[i][3])
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind public functions in every traced module that names them."""
        mods = {m: importlib.import_module(f"spinlab.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_")
                        and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{short}.{name}", obj)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
        # the CLI dispatches through a table filled at import time
        experiments = mods["cli"].EXPERIMENTS
        for key, fn in experiments.items():
            experiments[key] = self.wrap("harness.experiment", fn)
        for (short, cls_name, attr), span in METHODS.items():
            cls = getattr(mods[short], cls_name)
            setattr(cls, attr, self.wrap(span, getattr(cls, attr)))

    def write(self, path: Path) -> None:
        doc = {"run_id": self.run_id,
               "fields": ["name", "start", "end", "parent"],
               "spans": self.spans, "counts": dict(self.counts)}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Per span name: call count, total duration and total self time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_time[i]
    return calls, total, self_s


def layer_metrics(spans, counts) -> dict[str, float]:
    """The span-derived entries of LAYER_METRICS for one traced run."""
    calls, total, self_s = span_totals(spans)

    def per_call(layer: str, scale: float) -> tuple[float, float]:
        return scale * total.get(layer, 0.0), calls.get(layer, 0)

    rates = {
        "statevector.apply_exp_zz.us_per_call":
            per_call("statevector.apply_exp_zz", 1e6),
        "statevector.apply_exp_x.us_per_call":
            per_call("statevector.apply_exp_x", 1e6),
        "vqe.energy_and_gradient.ms_per_call":
            per_call("vqe.energy_and_gradient", 1e3),
        "vqe.estimate_energy_pauli.shots_per_s": (
            counts.get("vqe.estimate_energy_pauli.shots", 0),
            total.get("vqe.estimate_energy_pauli", 0.0)),
        "vmc.run_metropolis_chains.ns_per_chain_step": (
            1e9 * total.get("vmc.run_metropolis_chains", 0.0),
            counts.get("vmc.run_metropolis_chains.chain_steps", 0)),
        "qemcmc.run_chain.quantum.ms_per_step": (
            1e3 * total.get("qemcmc.run_chain.quantum", 0.0),
            counts.get("qemcmc.run_chain.quantum.steps", 0)),
        "qemcmc.run_chain.quantum.acceptance": (
            counts.get("qemcmc.run_chain.quantum.accepted", 0),
            counts.get("qemcmc.run_chain.quantum.chain_steps", 0)),
        "qemcmc.run_chain.single_flip.acceptance": (
            counts.get("qemcmc.run_chain.single_flip.accepted", 0),
            counts.get("qemcmc.run_chain.single_flip.chain_steps", 0)),
    }
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if metric in PARENT_METRICS:
            continue
        if metric in rates:
            value, base = rates[metric]
            out[metric] = value / base if base else 0.0
        elif field == "calls":
            out[metric] = calls.get(layer, 0)
        elif field in ("s", "self_s"):
            out[metric] = self_s.get(layer, 0.0)
        else:
            out[metric] = counts.get(metric, 0)
    return out
