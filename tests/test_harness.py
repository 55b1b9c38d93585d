"""Batch-harness tests: config parsing, seed derivation, CSV/manifest
plumbing, and small end-to-end runs of every experiment entry point.

Experiment runs here use deliberately tiny grids; the full-size claims live
in the acceptance suite.  Determinism checks compare raw CSV bytes.
"""

import ast
import concurrent.futures
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab import cli, harness
from spinlab.harness import (
    EXPERIMENTS,
    PARAMS,
    RunManifest,
    derive_seed,
    fig2_experiment,
    format_cell,
    gap_sweep,
    jw_map,
    load_config,
    parse_config_text,
    qemcmc_run,
    resolve_config,
    task_rng,
    vmc_run,
    vqe_run,
    write_csv,
)
from spinlab.pauli import (
    FermionHamiltonian,
    fermion_hamiltonian_to_json,
    group_qubitwise,
    map_fermionic,
    one_norm,
    pauli_sum_from_json,
)
from spinlab.qemcmc import save_instance, spin_glass_instance

TINY_FIG2 = {
    "L": 4,
    "depths": [1, 2],
    "shots": [50, 100],
    "repetitions": 3,
    "optimizer.restarts": 1,
    "optimizer.max_iter": 8,
    "lam1_grid": [0.220, -0.15],
    "jastrow_tail": [0.05],
}


class TestDeriveSeed:
    def test_matches_hash_oracle(self):
        digest = hashlib.sha256(b"7:fig2-pauli:3").digest()
        expect = int.from_bytes(digest[:8], "little")
        assert derive_seed(7, "fig2-pauli", 3) == expect

    def test_distinct_across_coordinates(self):
        seeds = {derive_seed(0, exp, i)
                 for exp in ("a", "b") for i in range(50)}
        assert len(seeds) == 100

    def test_range_and_rng(self):
        s = derive_seed(123, "x", 0)
        assert 0 <= s < 2 ** 64
        a = task_rng(123, "x", 0).random(4)
        b = np.random.default_rng(s).random(4)
        assert np.array_equal(a, b)


class TestConfigParsing:
    def test_scalars_and_lists(self):
        cfg = parse_config_text(
            "L = 10\n"
            "J = 1.5\n"
            "periodic = true   # trailing comment\n"
            "mode = sweep\n"
            "# full-line comment\n"
            "\n"
            "depths = 12, 16, 20\n"
            "optimizer.method = cobyla\n")
        assert cfg["L"] == 10 and isinstance(cfg["L"], int)
        assert cfg["J"] == 1.5
        assert cfg["periodic"] is True
        assert cfg["mode"] == "sweep"
        assert cfg["depths"] == [12, 16, 20]
        assert cfg["optimizer.method"] == "cobyla"

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("just some words\n")
        with pytest.raises(ValueError):
            parse_config_text(" = 3\n")

    def test_repeated_key_rejected_with_both_lines(self):
        with pytest.raises(ValueError, match=r"line 3: key 'L' already set "
                                             r"on line 1"):
            parse_config_text("L = 4\nsteps = 10\nL = 6\n")

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("L = 6\nbeta_list = 1.0, 2.0\n")
        cfg = load_config(path)
        assert cfg == {"L": 6, "beta_list": [1.0, 2.0]}


class TestCsvPlumbing:
    def test_format_cell(self):
        assert format_cell(True) == "true"
        assert format_cell(np.int64(4)) == "4"
        assert format_cell(0.1 + 0.2) == "0.3"
        assert format_cell(1.0 / 3.0) == "0.333333333333"
        assert format_cell("word") == "word"

    def test_write_csv_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [(1, 0.5), (2, "x")])
        assert path.read_text() == "a,b\n1,0.5\n2,x\n"

    def test_manifest_write(self, tmp_path):
        man = RunManifest(experiment="demo", master_seed=3,
                          config={"L": 2}, derived_seeds={"t": 9},
                          outputs={"csv": "demo.csv"}, duration_seconds=0.25)
        path = man.write(tmp_path)
        assert path.name == "demo_manifest.json"
        doc = json.loads(path.read_text())
        assert doc["experiment"] == "demo"
        assert doc["master_seed"] == 3
        assert doc["config"] == {"L": 2}
        assert doc["csv_schema_version"] == "1"
        # keys are sorted so the file itself is byte-stable
        assert list(doc) == sorted(doc)


class TestResolveConfig:
    def test_defaults_fill_every_key(self):
        for name, params in PARAMS.items():
            cfg = resolve_config(name, {})
            assert list(cfg) == [p.key for p in params]

    def test_integral_float_and_scalar_list(self):
        cfg = resolve_config("qemcmc-run", parse_config_text(
            "steps = 1e4\nbeta = 3\nproposals = uniform\n"))
        assert cfg["steps"] == 10000 and isinstance(cfg["steps"], int)
        assert cfg["beta"] == 3.0 and isinstance(cfg["beta"], float)
        assert cfg["proposals"] == ["uniform"]

    @pytest.mark.parametrize("experiment,text,key", [
        ("qemcmc-run", "L = true", "L"),
        ("qemcmc-run", "L = 4.5", "L"),
        ("qemcmc-run", "L = 4, 6", "L"),
        ("fig2", "shots = 100, 1000,", "shots"),
        ("qemcmc-run", "steps = ten", "steps"),
        ("qemcmc-run", "beta = true", "beta"),
        ("qemcmc-run", "beta = 1" + "0" * 400, "beta"),
        ("qemcmc-run", "beta = nan", "beta"),
        ("vmc-run", "mode = ", "mode"),
        ("qemcmc-run", "instance = ", "instance"),
        ("gap-sweep", "L_list = 4, 4", "L_list"),
        ("vqe-run", "optimizer.method = 3", "optimizer.method"),
    ], ids=["bool-int", "fractional-int", "list-for-scalar", "empty-item",
            "word-int", "bool-float", "float-overflow", "nan-float",
            "empty-choice", "empty-str", "repeated-item", "int-for-str"])
    def test_bad_value_names_key(self, experiment, text, key):
        with pytest.raises(ValueError, match=f"config key {key!r}"):
            resolve_config(experiment, parse_config_text(text))

    def test_unknown_key_suggests_closest(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=r"'stepz'.*did you mean "
                                             r"'steps'"):
            qemcmc_run({"stepz": 10}, out, 0)
        assert not out.exists()

    @pytest.mark.parametrize("experiment,config,key", [
        ("vmc-run", {"mode": "annealing"}, "mode"),
        ("qemcmc-run", {"proposals": ["quantum", "single_flip"]},
         "proposals"),
        ("qemcmc-run", {"proposals": ["quantum", "quantum"]}, "proposals"),
        ("gap-sweep", {"ensemble": "glass"}, "ensemble"),
        ("qemcmc-run", {"ensemble": "glass"}, "ensemble"),
        ("vqe-run", {"model.L": 4, "optimizer.method": "adam"},
         "optimizer.method"),
        ("fig2", {"optimizer.method": "adam"}, "optimizer.method"),
        ("vmc-run", {"L": 4, "mode": "sweep"}, "jastrow_tail"),
        ("fig2", {"L": 6, "jastrow_tail": [0.05]}, "jastrow_tail"),
        ("vmc-run", {"L": 5, "mode": "sr"}, "L"),
        ("fig2", {"repetitions": 1}, "repetitions"),
        ("vmc-run", {"mode": "sweep", "samples": [100, 0]}, "samples"),
        ("qemcmc-run", {"L": 0}, "L"),
        ("qemcmc-run", {"L": -1}, "L"),
        ("gap-sweep", {"L_list": 0}, "L_list"),
        ("gap-sweep", {"L_list": [4, -1]}, "L_list"),
        ("vqe-run", {"model.L": 0}, "model.L"),
        ("vqe-run", {"model.L": 4, "depth": 0}, "depth"),
        ("fig2", {"depths": [0, 12]}, "depths"),
        ("vqe-run", {"model.L": 4, "optimizer.restarts": -1},
         "optimizer.restarts"),
        ("fig2", {"optimizer.restarts": -1}, "optimizer.restarts"),
        ("vqe-run", {"model.L": 4, "optimizer.max_iter": -1},
         "optimizer.max_iter"),
        ("fig2", {"optimizer.max_iter": 0}, "optimizer.max_iter"),
        ("vmc-run", {"L": 4, "mode": "sr", "delta": -0.05}, "delta"),
        ("vmc-run", {"L": 4, "mode": "sr", "delta": 0}, "delta"),
    ], ids=["mode", "proposal-name", "proposal-repeated", "gap-ensemble",
            "qemcmc-ensemble", "vqe-method", "fig2-method",
            "vmc-tail-length", "fig2-tail-length", "vmc-odd-L",
            "fig2-one-repetition", "vmc-zero-samples", "qemcmc-zero-L",
            "qemcmc-negative-L", "gap-zero-L", "gap-negative-L",
            "vqe-zero-L", "vqe-zero-depth", "fig2-zero-depth",
            "vqe-negative-restarts", "fig2-negative-restarts",
            "vqe-negative-max-iter", "fig2-zero-max-iter",
            "vmc-negative-delta", "vmc-zero-delta"])
    def test_choice_checked_before_any_work(self, experiment, config, key,
                                            tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("experiment work ran before the check")

        for name in ("ground_state", "run_chain", "build_proposal_matrix",
                     "spin_glass_instance", "ferromagnetic_chain"):
            monkeypatch.setattr(harness, name, no_work)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"config key {key!r}"):
            harness.EXPERIMENTS[experiment](dict(config), out, 0)
        assert not out.exists()

    @pytest.mark.parametrize("experiment,config", [
        ("vqe-run", {"model.L": 4, "model.J": 0, "model.Gamma": 0}),
        ("vqe-run", {"model.L": 1, "model.J": -1, "model.Gamma": 1}),
        ("vmc-run", {"L": 4, "J": 0, "Gamma": 0, "mode": "sr"}),
        ("vmc-run", {"L": 4, "J": 0, "Gamma": 0, "jastrow_tail": [0.05]}),
        ("fig2", {"L": 4, "J": 0, "Gamma": 0, "jastrow_tail": [0.05]}),
    ], ids=["vqe-empty-sum", "vqe-one-site-zero-level", "vmc-sr-empty-sum",
            "vmc-sweep-empty-sum", "fig2-empty-sum"])
    def test_zero_reference_energy_refused_before_optimization(
            self, experiment, config, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("optimization ran before the check")

        for name in ("optimize_noiseless", "optimize_depth_sweep",
                     "run_sr_optimization", "rayleigh_quotient"):
            monkeypatch.setattr(harness, name, no_work)
        prefix = "model." if experiment == "vqe-run" else ""
        keys = ", ".join(repr(prefix + k) for k in ("L", "J", "Gamma"))
        with pytest.raises(ValueError, match=re.escape(keys)):
            harness.EXPERIMENTS[experiment](dict(config), tmp_path, 0)

    def test_tail_repeats_and_method_case_are_kept(self):
        cfg = resolve_config("vmc-run", {"L": 6, "jastrow_tail": [0.03, 0.03]})
        assert cfg["jastrow_tail"] == [0.03, 0.03]
        # SR mode does not use the tail, so the L = 10 default may stay
        assert resolve_config("vmc-run", {"L": 4, "mode": "sr"})["L"] == 4
        cfg = resolve_config("vqe-run", {"optimizer.method": "BFGS"})
        assert cfg["optimizer.method"] == "BFGS"

    def test_manifest_records_resolved_config(self, tmp_path):
        man = qemcmc_run({"L": 4, "steps": 1e2, "chains": 2,
                          "proposals": "single-flip"}, tmp_path, 0)
        doc = json.loads((tmp_path / "qemcmc-run_manifest.json").read_text())
        assert doc["config"] == man.config == {
            "L": 4, "ensemble": "ferromagnet", "instance": None,
            "beta": 2.0, "steps": 100, "chains": 2,
            "proposals": ["single-flip"]}


_KEYS = sorted({p.key for params in PARAMS.values() for p in params})
_VALUE = st.one_of(
    st.sampled_from(["4", "6", "1e4", "4.5", "-3", "0", "true", "ten", "",
                     "nan", "inf", "1" + "0" * 400, "quantum", "single-flip",
                     "uniform", "sr", "sweep", "ferromagnet", "chain"]),
    st.text(max_size=6))
_LINE = st.one_of(
    st.builds(lambda key, values: f"{key} = {', '.join(values)}",
              st.one_of(st.sampled_from(_KEYS), st.text(max_size=8)),
              st.lists(_VALUE, min_size=1, max_size=3)),
    st.text(max_size=20))


@settings(max_examples=400, deadline=None)
@given(text=st.lists(_LINE, max_size=6).map("\n".join),
       experiment=st.sampled_from(sorted(PARAMS)))
def test_config_path_rejects_only_with_named_value_errors(text, experiment):
    """parse_config_text plus the resolver either succeed or raise a
    ValueError naming the offending line or key; nothing else escapes."""
    try:
        cfg = parse_config_text(text)
    except ValueError as exc:
        assert re.search(r"config line \d+", str(exc)), exc
        return
    try:
        resolved = resolve_config(experiment, cfg)
    except ValueError as exc:
        assert any(repr(key) in str(exc) for key in cfg), exc
        return
    assert list(resolved) == [p.key for p in PARAMS[experiment]]


def _readme_ini_blocks():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S)


def test_bodies_take_every_stream_from_the_runner():
    """No experiment body seeds or opens a generator itself, so the seed
    policy and the manifest's derived seeds live in one place."""
    tree = ast.parse(Path(harness.__file__).read_text())
    bodies = [f for f in tree.body if isinstance(f, ast.FunctionDef)
              and any(isinstance(d, ast.Call) and d.func.id == "_experiment"
                      for d in f.decorator_list)]
    assert len(bodies) == len(EXPERIMENTS)
    for body in bodies:
        names = {n.id if isinstance(n, ast.Name) else n.attr
                 for n in ast.walk(body)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        assert not names & {"derive_seed", "task_rng", "default_rng"}, \
            body.name


def test_readme_blocks_document_every_key_with_its_default():
    blocks = {re.match(r"# ([\w-]+) ", b).group(1): b
              for b in _readme_ini_blocks()}
    assert sorted(blocks) == sorted(PARAMS)
    for name, block in blocks.items():
        assert resolve_config(name, parse_config_text(block)) == \
            resolve_config(name, {}), name
        for p in PARAMS[name]:
            assert re.search(rf"^#? *{re.escape(p.key)} =", block, re.M), \
                (name, p.key)
    # the list of errors names every key with a least value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = re.search(r"^- a count below .*?(?=^- )", readme, re.M | re.S)
    for key in sorted({p.key for params in PARAMS.values() for p in params
                       if p.low is not None}):
        assert f"`{key}`" in bullet.group(0), key


class TestFig2Experiment:
    def test_scalar_jastrow_tail(self, tmp_path):
        cfg = dict(TINY_FIG2, repetitions=2, jastrow_tail=0.05)
        man = fig2_experiment(cfg, tmp_path, master_seed=5)
        assert "csv" in man.outputs

    def test_tiny_run_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        man = fig2_experiment(dict(TINY_FIG2), out_a, master_seed=5)
        csv_a = out_a / "fig2.csv"
        lines = csv_a.read_text().splitlines()
        assert lines[0] == "estimator,ansatz,M,relative_error,std"
        assert {ln.split(",")[0] for ln in lines[1:]} == {"pauli", "vmc"}
        assert any(ln.split(",")[1] == "exact_eigenvector"
                   for ln in lines[1:])
        assert "E0" in man.outputs
        # same seed, fresh directory: identical bytes
        out_b = tmp_path / "b"
        fig2_experiment(dict(TINY_FIG2), out_b, master_seed=5)
        assert csv_a.read_bytes() == (out_b / "fig2.csv").read_bytes()
        # different master seed changes the sampled columns
        out_c = tmp_path / "c"
        fig2_experiment(dict(TINY_FIG2), out_c, master_seed=6)
        assert csv_a.read_bytes() != (out_c / "fig2.csv").read_bytes()

    def test_pool_never_outnumbers_cells(self, tmp_path, monkeypatch):
        """--threads 64 asks for one worker per cell, in one pool."""
        asked = []

        class InlinePool:  # records max_workers and starts no process
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        assert harness._run_tasks(pow, [(2, 3), (3, 2)], 64) == [8, 9]
        assert harness._run_tasks(pow, [(2, 3), (3, 2)], 1) == [8, 9]
        assert asked == [2]
        fig2_experiment(dict(TINY_FIG2), tmp_path, master_seed=5, threads=64)
        # 2 depths and 2 lam1 values at 2 shot counts
        assert asked == [2, 8]

    def test_thread_count_does_not_change_output(self, tmp_path):
        out_a = tmp_path / "serial"
        out_b = tmp_path / "pooled"
        fig2_experiment(dict(TINY_FIG2), out_a, master_seed=5, threads=1)
        fig2_experiment(dict(TINY_FIG2), out_b, master_seed=5, threads=3)
        assert (out_a / "fig2.csv").read_bytes() == \
            (out_b / "fig2.csv").read_bytes()


class TestGapSweep:
    CFG = {"L_list": [4], "beta_list": [1.5],
           "proposals": ["quantum", "single-flip"],
           "instances": 2, "K": 8, "steps": 400}

    def test_rows_and_determinism(self, tmp_path):
        man = gap_sweep(dict(self.CFG), tmp_path / "a", master_seed=1)
        csv_a = tmp_path / "a" / "gap_sweep.csv"
        lines = csv_a.read_text().splitlines()
        assert lines[0] == \
            "instance_id,L,beta,proposal,delta,tau,acceptance_rate"
        assert len(lines) == 1 + 2 * 2   # instances x proposals
        for ln in lines[1:]:
            cells = ln.split(",")
            assert cells[1] == "4" and cells[2] == "1.5"
            assert float(cells[4]) > 0.0          # delta
            assert float(cells[5]) >= 0.5         # tau floor
            assert 0.0 < float(cells[6]) <= 1.0   # acceptance
        gap_sweep(dict(self.CFG), tmp_path / "b", master_seed=1)
        assert csv_a.read_bytes() == \
            (tmp_path / "b" / "gap_sweep.csv").read_bytes()
        assert man.experiment == "gap-sweep"


class TestVqeRun:
    CFG = {"model.L": 4, "depth": 2, "shots_per_group": 100,
           "repetitions": 4, "optimizer.restarts": 1,
           "optimizer.max_iter": 8}

    def test_rows_and_manifest(self, tmp_path):
        man = vqe_run(dict(self.CFG), tmp_path, master_seed=2)
        lines = (tmp_path / "vqe_run.csv").read_text().splitlines()
        assert lines[0] == "repetition,mean,stderr"
        assert len(lines) == 1 + 4
        for key in ("E0", "relative_error", "predicted_error", "n_groups"):
            assert key in man.outputs
        assert man.outputs["n_groups"] == 2


class TestVmcRun:
    def test_sweep_mode(self, tmp_path):
        cfg = {"L": 6, "mode": "sweep", "samples": [400],
               "lam1_grid": [0.220, -0.15], "jastrow_tail": [0.05, 0.02]}
        man = vmc_run(cfg, tmp_path, master_seed=3)
        lines = (tmp_path / man.outputs["csv"]).read_text().splitlines()
        assert lines[0] == "lam1,relative_error,stderr,M_vmc"
        assert len(lines) == 1 + 2

    def test_sr_mode(self, tmp_path):
        cfg = {"L": 4, "mode": "sr", "sr_steps": 3,
               "samples_per_step": 256}
        man = vmc_run(cfg, tmp_path, master_seed=4)
        lines = (tmp_path / man.outputs["csv"]).read_text().splitlines()
        assert lines[0] == "step,energy,relative_error"
        assert len(lines) == 1 + 3
        assert len(man.outputs["final_lam"]) == 2

    def test_scalar_list_keys_from_config_text(self, tmp_path):
        # a one-element comma list parses as a scalar; list keys must
        # still accept it
        cfg = parse_config_text("mode = sweep\nL = 4\nsamples = 200\n"
                                "lam1_grid = 0.1\njastrow_tail = 0.05\n")
        man = vmc_run(cfg, tmp_path, master_seed=3)
        lines = (tmp_path / man.outputs["csv"]).read_text().splitlines()
        assert len(lines) == 1 + 1

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            vmc_run({"mode": "annealing"}, tmp_path, master_seed=0)


class TestQemcmcRun:
    def test_generated_instance(self, tmp_path):
        cfg = {"L": 4, "ensemble": "ferromagnet", "beta": 1.0,
               "steps": 400, "chains": 2,
               "proposals": ["quantum", "single-flip", "uniform"]}
        qemcmc_run(cfg, tmp_path / "a", master_seed=6)
        csv_a = tmp_path / "a" / "qemcmc_run.csv"
        lines = csv_a.read_text().splitlines()
        assert lines[0] == "proposal,acceptance_rate,tau_energy,mean_energy"
        assert [ln.split(",")[0] for ln in lines[1:]] == \
            ["quantum", "single-flip", "uniform"]
        qemcmc_run(cfg, tmp_path / "b", master_seed=6)
        assert csv_a.read_bytes() == \
            (tmp_path / "b" / "qemcmc_run.csv").read_bytes()

    def test_instance_file(self, tmp_path):
        inst = tmp_path / "inst.json"
        save_instance(spin_glass_instance(4, np.random.default_rng(7)),
                      inst, seed=7)
        cfg = {"instance": str(inst), "beta": 1.0, "steps": 300, "chains": 2}
        man = qemcmc_run(cfg, tmp_path, master_seed=8)
        assert (tmp_path / "qemcmc_run.csv").exists()
        assert man.config["instance"] == str(inst)


class TestJwMap:
    def _fermion_file(self, tmp_path):
        rng = np.random.default_rng(9)
        t = rng.normal(size=(3, 3))
        t = (t + t.T) / 2
        u = np.zeros((3, 3, 3, 3))
        u[0, 1, 1, 0] = 0.5
        u[1, 0, 0, 1] = 0.5
        ferm = FermionHamiltonian(3, t, u)
        path = tmp_path / "ferm.json"
        path.write_text(fermion_hamiltonian_to_json(ferm))
        return ferm, path

    def test_summary_matches_direct_mapping(self, tmp_path):
        ferm, path = self._fermion_file(tmp_path)
        out = tmp_path / "pauli.json"
        summary = jw_map(path, out)
        mapped = map_fermionic(ferm)
        assert summary["n_terms"] == len(mapped.terms)
        assert summary["one_norm"] == pytest.approx(one_norm(mapped))
        assert summary["n_groups"] == group_qubitwise(mapped).n_groups
        doc = json.loads(out.read_text())
        assert doc["summary"] == summary
        back = pauli_sum_from_json(out.read_text())
        assert back.n_qubits == 3
        assert len(back.terms) == len(mapped.terms)


class TestCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_vqe_run_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "vqe.cfg"
        cfg.write_text("model.L = 4\ndepth = 1\nshots_per_group = 50\n"
                       "repetitions = 2\noptimizer.restarts = 1\n"
                       "optimizer.max_iter = 5\n")
        out = tmp_path / "runs"
        rc = cli.main(["vqe-run", "--config", str(cfg), "--seed", "11",
                       "--out", str(out)])
        assert rc == 0
        assert (out / "vqe_run.csv").exists()
        assert (out / "vqe-run_manifest.json").exists()
        assert "vqe-run" in capsys.readouterr().out

    def test_jw_map_subcommand(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        t = rng.normal(size=(2, 2))
        ferm = FermionHamiltonian(2, (t + t.T) / 2, np.zeros((2, 2, 2, 2)))
        src = tmp_path / "f.json"
        src.write_text(fermion_hamiltonian_to_json(ferm))
        dst = tmp_path / "p.json"
        rc = cli.main(["jw-map", str(src), "--out", str(dst)])
        assert rc == 0
        assert dst.exists()
        assert "terms" in capsys.readouterr().out

    def test_experiment_table_names_the_public_entry_points(self):
        assert cli.EXPERIMENTS == {
            "fig2": fig2_experiment, "gap-sweep": gap_sweep,
            "vqe-run": vqe_run, "vmc-run": vmc_run,
            "qemcmc-run": qemcmc_run}
        assert list(cli.EXPERIMENTS) == list(PARAMS)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_is_refused(self, tmp_path, capsys,
                                              threads):
        with pytest.raises(SystemExit) as exc:
            cli.main(["vqe-run", "--threads", threads, "--out",
                      str(tmp_path)])
        assert exc.value.code == 2
        assert (f"argument --threads: must be at least 1, got "
                f"{int(threads)}") in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code != 0
