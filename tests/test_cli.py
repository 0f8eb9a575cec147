import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peprime import autodiff as ad
from peprime import cli
from peprime.data import SplitSpec, SyntheticFamily
from peprime.finetune import FineTuneHyperparams, FineTuneSetting, PretrainConfig, prepare_init
from peprime.model import ModelConfig, PartitionedModel
from peprime.priming import PrimingConfig


TINY_CONFIG = {
    "model": {"d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 12,
              "max_seq_len": 32, "adapter_bottleneck": 4},
    "priming": {"outer_steps": 2, "inner_steps": 2, "beta": 1e-3,
                "support_batch_size": 4, "query_batch_size": 4},
    "finetune": {"steps": 5, "batch_size": 4, "eval_every": 5},
    "data": {
        "synthetic": {"sources": ["sa", "sb"], "targets": ["ta"],
                      "n_sentences_source": 80, "n_sentences_target": 80,
                      "entity_rate": 0.3, "mean_sentence_length": 8.0,
                      "family_seed": 3},
        "split": {"support_size": 30, "query_size": 30,
                  "train_size": 40, "val_size": 20, "test_size": 20},
    },
    "seeds": [0],
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def run(args):
    return cli.main([str(a) for a in args])


class TestConfig:
    def test_unknown_keys_listed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"modle": {}, "priming": {"alhpa": 1}}))
        with pytest.raises(cli.ConfigError, match="modle") as exc:
            cli.load_config(path)
        assert "priming.alhpa" in str(exc.value)

    def test_defaults_merged(self, tiny_config):
        cfg = cli.load_config(tiny_config)
        assert cfg["priming"]["alpha"] == 0.03     # default survives
        assert cfg["priming"]["outer_steps"] == 2  # override applied

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        rc = run(["generate-data", "--config", bad, "--out", tmp_path / "out"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


    @pytest.mark.parametrize("edit,key", [
        (lambda d: d["split"].update(train_sise=10), "data.split.train_sise"),
        (lambda d: d["synthetic"].update(n_sentence_source=10), "data.synthetic.n_sentence_source"),
        (lambda d: d.update(conll={"targets": {"ta": "ta.conll"}}), "data.conll.sources"),
    ], ids=["split_typo", "synthetic_typo", "conll_without_sources"])
    def test_data_typos_fail_cleanly(self, tiny_config, tmp_path, capsys, edit, key):
        cfg = json.loads(tiny_config.read_text())
        edit(cfg["data"])
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(cfg))
        rc = run(["prime", "--config", path, "--out", tmp_path / "o"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and key in err["message"]

    @pytest.mark.parametrize("edit,key", [
        (lambda c: c["finetune"].update(steps="4"), "finetune.steps"),
        (lambda c: c["finetune"].update(steps=True), "finetune.steps"),
        (lambda c: c["model"].update(d_model="8"), "model.d_model"),
        (lambda c: c.update(seeds=["a"]), "seeds[0]"),
        (lambda c: c.update(seeds=[]), "seeds must not be empty"),
        (lambda c: c.update(model=3), "model must be dict"),
        (lambda c: c["finetune"].update(eval_every=0), "finetune: eval_every"),
        (lambda c: c["finetune"].update(batch_size=0), "finetune: batch_size"),
        (lambda c: c.update(pretrain={"batch_size": 0}), "pretrain: batch_size"),
        (lambda c: c["data"]["split"].update(train_size=0), "data.split: train_size"),
        (lambda c: c["finetune"].update(steps=-3), "finetune: steps"),
        (lambda c: c["model"].update(n_heads=0), "model: n_heads"),
        (lambda c: c["model"].update(n_labels=3), "unknown key model.n_labels"),
        (lambda c: c["data"]["synthetic"].update(entity_rate=-1.0),
         "data.synthetic: entity_rate must be in [0, 1]"),
        (lambda c: c["data"]["synthetic"].update(entity_rate=1.5),
         "data.synthetic: entity_rate must be in [0, 1]"),
        (lambda c: c["data"]["synthetic"].update(mean_sentence_length=0),
         "data.synthetic: mean_sentence_length must be > 0"),
        (lambda c: c["data"]["synthetic"].update(n_sentences_source=0),
         "data.synthetic: n_sentences_source must be >= 1"),
        (lambda c: c["data"]["synthetic"].update(n_sentences_target=-2),
         "data.synthetic: n_sentences_target must be >= 1"),
        (lambda c: c["data"]["synthetic"].update(targets=["sa"]),
         "data.synthetic: sources and targets must be distinct"),
        (lambda c: c["priming"].update(beta=float("nan")),
         "priming.beta must be a finite number"),
        (lambda c: c["finetune"].update(lr_pe=float("inf")),
         "finetune.lr_pe must be a finite number"),
    ], ids=["str_for_int", "bool_for_int", "str_for_model_int", "str_seed", "no_seeds",
            "int_for_section", "eval_every_0", "batch_size_0", "pretrain_batch_size_0",
            "train_size_0", "negative_steps", "n_heads_0", "n_labels_3",
            "entity_rate_negative", "entity_rate_above_1", "mean_sentence_length_0",
            "n_sentences_source_0", "n_sentences_target_negative", "language_named_twice",
            "nan_beta", "infinite_lr"])
    def test_bad_values_fail_cleanly(self, tiny_config, tmp_path, capsys, edit, key):
        cfg = json.loads(tiny_config.read_text())
        edit(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = run(["finetune", "--config", path, "--out", tmp_path / "o",
                  "--setting", "head_tuning", "--language", "ta"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and key in err["message"]

    @pytest.mark.parametrize("command,edit,message", [
        (["prime"], lambda c: c["priming"].update(beta=-1.0),
         "priming: beta must be > 0 (got -1.0)"),
        # the inner mode comes from the --setting row alone
        (["prime", "--setting", "meta_prime_at"],
         lambda c: c["priming"].update(inner_mode="full_maml"),
         "bad config: unknown key priming.inner_mode"),
        (["generate-data"], lambda c: c["data"]["synthetic"].update(entity_rate=-1.0),
         "data.synthetic: entity_rate must be in [0, 1] (got -1.0)"),
        # neither value shapes the corpora, and prime rejects both
        (["generate-data"], lambda c: c.update(finetune={"steps": -1}, model={"d_model": 0}),
         "finetune: steps must be >= 0 (got -1)"),
    ], ids=["prime_negative_beta", "prime_inner_mode", "generate_data_negative_entity_rate",
            "generate_data_negative_finetune_steps"])
    def test_rejected_config_writes_no_run_config(self, tiny_config, tmp_path, capsys,
                                                  command, edit, message):
        cfg = json.loads(tiny_config.read_text())
        edit(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = run(command + ["--config", path, "--out", out])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ConfigError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("setting", [s for s in FineTuneSetting if s.priming is None],
                             ids=lambda s: s.value)
    def test_unprimed_init_reads_no_priming_key(self, tiny_config, setting):
        """Pretraining draws every source at each step, whatever ``priming`` says."""
        inits = []
        for tasks in (1, 2):
            cfg = cli.load_config(tiny_config)
            cfg["pretrain"]["steps"] = 2
            cfg["priming"]["tasks_per_outer_batch"] = tasks
            registry = prepare_init(cli.build_experiment(cfg), setting, 0).registry
            inits.append([(p.id, p.value.data.tobytes()) for p in registry])
        assert inits[0] == inits[1]

    def test_config_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        with pytest.raises(cli.ConfigError, match="must be dict"):
            cli.load_config(path)

    def test_int_accepted_where_float_expected(self, tiny_config, tmp_path):
        cfg = json.loads(tiny_config.read_text())
        cfg["finetune"]["lr_pe"] = 1
        path = tmp_path / "int.json"
        path.write_text(json.dumps(cfg))
        assert cli.build_experiment(cli.load_config(path)).hyper.lr_pe == 1

    def test_run_config_round_trips(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert run(["generate-data", "--config", tiny_config, "--out", out]) == 0
        assert cli.load_config(out / "run_config.json") == cli.load_config(tiny_config)
        defaults = tmp_path / "defaults.json"
        defaults.write_text(json.dumps(cli.DEFAULT_CONFIG))
        assert cli.load_config(defaults) == cli.DEFAULT_CONFIG

    def test_defaults_come_from_the_dataclasses(self):
        sections = {"model": ModelConfig(vocab_size=1), "priming": PrimingConfig(),
                    "finetune": FineTuneHyperparams(), "pretrain": PretrainConfig()}
        for name, obj in sections.items():
            assert all(getattr(obj, k) == v for k, v in cli.DEFAULT_CONFIG[name].items()), name
        assert cli.DEFAULT_CONFIG["data"]["split"] == dataclasses.asdict(SplitSpec())
        assert cli.DEFAULT_CONFIG["data"]["synthetic"] == dataclasses.asdict(SyntheticFamily())


def _leaves(tree, path=()):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _leaves(value, path + (i,))
    else:
        yield path, tree


WRONG_TYPES = [None, "1", 1, 1.5, True, [1], {"a": 1}]


class TestConfigFuzz:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_one_bad_leaf_builds_or_fails_cleanly(self, tmp_path_factory, data):
        """Perturb one leaf of the tiny config: the config builds or is rejected cleanly."""
        cfg = json.loads(json.dumps(TINY_CONFIG))
        path, value = data.draw(st.sampled_from(list(_leaves(cfg))), label="leaf")
        *parents, last = path
        parent = cfg
        for key in parents:
            parent = parent[key]
        kinds = ["wrong_type", "unknown_key"]
        if type(value) in (int, float):
            kinds += ["zero", "negative"]
        kind = data.draw(st.sampled_from(kinds), label="kind")
        if kind == "wrong_type":
            parent[last] = data.draw(st.sampled_from(
                [w for w in WRONG_TYPES if type(w) is not type(value)
                 and not (type(value) is float and type(w) is int)]), label="value")
        elif kind == "zero":
            parent[last] = type(value)(0)
        elif kind == "negative":
            parent[last] = -abs(value) if value else type(value)(-1)
        else:
            (parent if isinstance(parent, dict) else cfg)["unknown_key"] = 1
        out = tmp_path_factory.mktemp("fuzz") / "config.json"
        out.write_text(json.dumps(cfg))
        try:
            cli.build_experiment(cli.load_config(out))
        except ValueError:      # ConfigError is a ValueError
            pass


class TestLongSentences:
    def test_long_synthetic_sentences_build_and_prime(self, tiny_config, tmp_path):
        cfg = json.loads(tiny_config.read_text())
        cfg["data"]["synthetic"]["mean_sentence_length"] = 22.0   # max_seq_len 32
        cfg["pretrain"] = {"steps": 2}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(cfg))
        sources, targets = cli.build_corpora(cli.load_config(path))
        corpora = list(sources.values()) + list(targets.values())
        assert sum(c.truncated_sequences for c in corpora) > 0
        assert max(len(s.tokens) for c in corpora for s in c) == 32
        assert run(["prime", "--config", path, "--out", tmp_path / "o"]) == 0


class TestGenerateData:
    def test_prints_the_corpus_counters(self, tiny_config, tmp_path, capsys):
        cfg = json.loads(tiny_config.read_text())
        cfg["data"]["synthetic"]["mean_sentence_length"] = 22.0   # max_seq_len 32
        path = tmp_path / "long.json"
        path.write_text(json.dumps(cfg))
        sources, targets = cli.build_corpora(cli.load_config(path))
        corpora = {**{f"source_{l}": c for l, c in sources.items()},
                   **{f"target_{l}": c for l, c in targets.items()}}
        assert sum(c.truncated_sequences for c in corpora.values()) > 0
        assert run(["generate-data", "--config", path, "--out", tmp_path / "out"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"wrote {name}.conll: {len(c)} sentences, spans {c.span_type_counts()}, "
                         f"truncated {c.truncated_sequences}, repaired labels {c.repaired_labels}"
                         for name, c in corpora.items()]

    def test_writes_corpora(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert run(["generate-data", "--config", tiny_config, "--out", out]) == 0
        files = sorted(p.name for p in (out / "data").glob("*.conll"))
        assert files == ["source_sa.conll", "source_sb.conll", "target_ta.conll"]
        assert (out / "run_config.json").exists()


class TestPrime:
    def test_zero_steps_checkpoint_matches_init(self, tiny_config, tmp_path):
        cfg = cli.load_config(tiny_config)
        cfg["priming"]["outer_steps"] = 0
        cfg_path = tmp_path / "zero.json"
        cfg_path.write_text(json.dumps(cfg))
        exp = cli.build_experiment(cfg)
        init = PartitionedModel(exp.model_config, seed=0)
        init_path = tmp_path / "init.ckpt"
        ad.save_checkpoint(init.registry, init_path, exp.model_config.hash())
        out = tmp_path / "out"
        assert run(["prime", "--config", cfg_path, "--out", out, "--seed", 0,
                    "--init-checkpoint", init_path]) == 0
        assert (out / "primed.ckpt").read_bytes() == init_path.read_bytes()

    def test_prime_writes_log(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert run(["prime", "--config", tiny_config, "--out", out]) == 0
        lines = (out / "prime_log.jsonl").read_text().splitlines()
        assert len(lines) == 2 * 2  # outer_steps x tasks_per_batch
        rec = json.loads(lines[0])
        assert rec["outer_step"] == 0 and "query_loss" in rec

    def test_ft_prime_writes_log(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert run(["prime", "--config", tiny_config, "--out", out,
                    "--setting", "ft_prime_at"]) == 0
        lines = (out / "prime_log.jsonl").read_text().splitlines()
        assert len(lines) == 2 * 2  # outer_steps x tasks_per_batch
        assert all(np.isfinite(json.loads(line)["query_loss"]) for line in lines)
        assert (out / "primed.ckpt").exists()

    @pytest.mark.parametrize("setting,flags,seed", [
        ("meta_prime_at", ["--seed", 0], 0),
        ("ft_prime_at", ["--seed", 0], 0),
        ("maml_loop_prime_at", ["--seed", 0], 0),
        ("meta_prime_at", [], 5),       # no --seed: the config's first seed, as for finetune
    ], ids=["meta_prime_at", "ft_prime_at", "maml_loop_prime_at", "seed_from_config"])
    def test_primed_checkpoint_is_the_settings_init(self, tiny_config, tmp_path, setting,
                                                    flags, seed):
        # the CLI and the matrix prime through one path
        cfg = json.loads(tiny_config.read_text())
        cfg["seeds"] = [5]
        tiny_config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(["prime", "--config", tiny_config, "--out", out,
                    "--setting", setting] + flags) == 0
        exp = cli.build_experiment(cli.load_config(tiny_config))
        expected = prepare_init(exp, FineTuneSetting(setting), seed).registry
        loaded = ad.load_checkpoint(out / "primed.ckpt", exp.model_config.hash())
        assert [(p.id, p.partition, p.value.data.tobytes()) for p in loaded] == \
            [(p.id, p.partition, p.value.data.tobytes()) for p in expected]

    @pytest.mark.parametrize("config,out,error", [
        ("dir", "new", "IsADirectoryError"), ("tiny", "file", "FileExistsError"),
    ], ids=["config_is_a_directory", "out_is_a_file"])
    def test_bad_paths_fail_cleanly(self, tiny_config, tmp_path, capsys, config, out, error):
        (tmp_path / "file").write_text("")
        rc = run(["prime", "--config", tiny_config if config == "tiny" else tmp_path,
                  "--out", tmp_path / out])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == error

    def test_adapter_free_checkpoint_is_refused(self, tiny_config, tmp_path, capsys):
        # a full_ft checkpoint has no adapter, which every primed setting needs
        exp = cli.build_experiment(cli.load_config(tiny_config))
        path = tmp_path / "finetuned.ckpt"
        ad.save_checkpoint(PartitionedModel(exp.model_config, seed=0, has_adapter=False).registry,
                           path, exp.model_config.hash())
        out = tmp_path / "o"
        rc = run(["prime", "--config", tiny_config, "--out", out, "--init-checkpoint", path])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContractError" and "adapter" in err["message"]
        assert not (out / "primed.ckpt").exists()

    def test_missing_checkpoint_fails_cleanly(self, tiny_config, tmp_path, capsys):
        rc = run(["prime", "--config", tiny_config, "--out", tmp_path / "o",
                  "--init-checkpoint", tmp_path / "nope.ckpt"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_training_fails_cleanly(self, tiny_config, tmp_path, capsys):
        cfg = json.loads(tiny_config.read_text())
        cfg["priming"]["alpha"] = 1e300   # the first inner SGD step overflows
        cfg["pretrain"] = {"steps": 0}
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(cfg))
        rc = run(["prime", "--config", path, "--out", tmp_path / "o"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "TrainingDiverged"
        assert "outer step 0" in err["message"]

    def test_diverged_training_stderr_is_one_json_object(self, tiny_config, tmp_path):
        # a fresh interpreter, so numpy's floating-point warnings would reach stderr
        cfg = json.loads(tiny_config.read_text())
        cfg["priming"]["alpha"] = 1e300
        cfg["pretrain"] = {"steps": 0}
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(cfg))
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        proc = subprocess.run(
            [sys.executable, "-m", "peprime.cli", "prime", "--config", str(path),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"] == "TrainingDiverged"


class TestFinetuneCommand:
    def test_end_to_end_report(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        rc = run(["finetune", "--config", tiny_config, "--out", out,
                  "--setting", "adapter_tuning", "--language", "ta", "--seed", 0])
        assert rc == 0
        rec = json.loads((out / "report.jsonl").read_text())
        assert rec["setting"] == "adapter_tuning" and rec["language"] == "ta"
        assert (out / "finetuned.ckpt").exists()
        trace = [json.loads(line) for line in (out / "finetune_log.jsonl").read_text().splitlines()]
        assert [r["step"] for r in trace] == [0, 5]     # steps 5, eval_every 5
        assert all(set(r) == {"step", "val_f1"} and 0.0 <= r["val_f1"] <= 100.0 for r in trace)

    def test_determinism_byte_identical_artifacts(self, tiny_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run(["finetune", "--config", tiny_config, "--out", out,
                      "--setting", "head_tuning", "--language", "ta", "--seed", 1])
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "report.jsonl").read_bytes() == (outs[1] / "report.jsonl").read_bytes()
        assert (outs[0] / "finetuned.ckpt").read_bytes() == (outs[1] / "finetuned.ckpt").read_bytes()

    @pytest.mark.parametrize("command", [
        ["finetune"], ["evaluate", "--init-checkpoint", "missing.ckpt"],
    ], ids=["finetune", "evaluate"])
    def test_unknown_language_fails(self, tiny_config, tmp_path, capsys, command):
        rc = run(command + ["--config", tiny_config, "--out", tmp_path / "o",
                            "--setting", "adapter_tuning", "--language", "xx"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "unknown target language" in err["message"]

    @pytest.mark.parametrize("argv,message", [
        (["finetune", "--language", "ta"], "required"),
        (["evaluate", "--language", "ta", "--init-checkpoint", "x.ckpt"], "required"),
        (["evaluate", "--language", "ta", "--setting", "full_ft"], "required"),
        (["prime", "--setting", "full_ft"], "invalid choice: 'full_ft'"),
        (["prime", "--ft"], "unrecognized arguments: --ft"),
        (["generate-data", "--seed", "9"], "unrecognized arguments: --seed 9"),
    ], ids=["finetune_setting", "evaluate_setting", "evaluate_checkpoint",
            "prime_unprimed_setting", "prime_ft_flag", "generate_data_seed"])
    def test_missing_flag_is_a_usage_error(self, tiny_config, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--config", tiny_config, "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_finetuning_names_its_loop(self, tiny_config, tmp_path, capsys):
        cfg = json.loads(tiny_config.read_text())
        cfg["finetune"]["lr_pe"] = 1e300
        cfg["pretrain"] = {"steps": 0}
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(cfg))
        rc = run(["finetune", "--config", path, "--out", tmp_path / "o",
                  "--setting", "adapter_tuning", "--language", "ta"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TrainingDiverged"
        assert "fine-tuning step" in err["message"] and "outer step" not in err["message"]

    def test_contract_error_fails_cleanly(self, tiny_config, tmp_path, capsys):
        exp = cli.build_experiment(cli.load_config(tiny_config))
        init = PartitionedModel(exp.model_config, seed=0)
        init.add_head("target", np.random.default_rng(0))
        path = tmp_path / "with_head.ckpt"
        ad.save_checkpoint(init.registry, path, exp.model_config.hash())
        rc = run(["finetune", "--config", tiny_config, "--out", tmp_path / "o",
                  "--setting", "adapter_tuning", "--language", "ta",
                  "--init-checkpoint", path])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContractError"
        assert "target head" in err["message"]

    @pytest.mark.parametrize("command", ["finetune", "evaluate"])
    def test_adapter_model_under_adapter_free_setting_fails(self, tiny_config, tmp_path,
                                                            capsys, command):
        # a primed checkpoint carries an adapter; full_ft has none
        exp = cli.build_experiment(cli.load_config(tiny_config))
        path = tmp_path / "primed.ckpt"
        ad.save_checkpoint(PartitionedModel(exp.model_config, seed=0).registry, path,
                           exp.model_config.hash())
        rc = run([command, "--config", tiny_config, "--out", tmp_path / "o",
                  "--setting", "full_ft", "--language", "ta", "--init-checkpoint", path])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContractError"
        assert "'full_ft' has_adapter=False" in err["message"]
        assert "model has_adapter=True" in err["message"]


class TestEvaluateCommand:
    def test_evaluates_saved_checkpoint(self, tiny_config, tmp_path):
        out1 = tmp_path / "ft"
        run(["finetune", "--config", tiny_config, "--out", out1,
             "--setting", "head_tuning", "--language", "ta", "--seed", 0])
        out2 = tmp_path / "ev"
        rc = run(["evaluate", "--config", tiny_config, "--out", out2,
                  "--init-checkpoint", out1 / "finetuned.ckpt",
                  "--setting", "head_tuning", "--language", "ta"])
        assert rc == 0
        ft = json.loads((out1 / "report.jsonl").read_text())
        ev = json.loads((out2 / "report.jsonl").read_text())
        assert ev["f1"] == ft["f1"]

    def test_report_seed_defaults_to_the_first_config_seed(self, tiny_config, tmp_path):
        cfg = json.loads(tiny_config.read_text())
        cfg["seeds"] = [5]
        path = tmp_path / "seed5.json"
        path.write_text(json.dumps(cfg))
        exp = cli.build_experiment(cli.load_config(path))
        model = PartitionedModel(exp.model_config, seed=0)
        model.add_head("target", np.random.default_rng(0))
        ckpt = tmp_path / "finetuned.ckpt"
        ad.save_checkpoint(model.registry, ckpt, exp.model_config.hash())
        out = tmp_path / "ev"
        assert run(["evaluate", "--config", path, "--out", out, "--init-checkpoint", ckpt,
                    "--setting", "adapter_tuning", "--language", "ta"]) == 0
        assert json.loads((out / "report.jsonl").read_text())["seed"] == 5

    def test_checkpoint_without_target_head_fails_cleanly(self, tiny_config, tmp_path, capsys):
        # a primed checkpoint carries the adapter but no target head
        exp = cli.build_experiment(cli.load_config(tiny_config))
        path = tmp_path / "primed.ckpt"
        ad.save_checkpoint(PartitionedModel(exp.model_config, seed=0).registry, path,
                           exp.model_config.hash())
        rc = run(["evaluate", "--config", tiny_config, "--out", tmp_path / "o",
                  "--init-checkpoint", path, "--setting", "meta_prime_at", "--language", "ta"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        parsed = json.loads(err)
        assert parsed["error"] == "ContractError" and "no head named 'target'" in parsed["message"]


class TestMatrixCommand:
    def test_empty_target_set_is_refused(self, tiny_config, tmp_path, capsys):
        data = tmp_path / "gen"
        assert run(["generate-data", "--config", tiny_config, "--out", data]) == 0
        cfg = json.loads(tiny_config.read_text())
        cfg["data"]["conll"] = {"sources": {lang: str(data / "data" / f"source_{lang}.conll")
                                            for lang in ("sa", "sb")}, "targets": {}}
        path = tmp_path / "no_targets.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run(["matrix", "--config", path, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "data.conll.targets must not be empty" in err["message"]
        assert not (out / "matrix.json").exists()

    def test_artifacts_refuse_nan(self, tmp_path):
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._write_json({"a|b": float("nan")}, tmp_path / "matrix.json")
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._write_jsonl([{"f1": float("nan")}], tmp_path / "reports.jsonl")

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        cli._write_jsonl([{"f1": 1.0}], path)
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._write_jsonl([{"f1": 2.0}, {"f1": float("nan")}], path)
        assert path.read_text(encoding="utf-8") == '{"f1": 1.0}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["reports.jsonl"]


class TestReport:
    def test_renders_bold_column_max(self, tmp_path, capsys):
        records = [
            {"setting": "adapter_tuning", "language": "ta", "seed": 0, "f1": 50.0},
            {"setting": "meta_prime_at", "language": "ta", "seed": 0, "f1": 60.0},
            {"setting": "meta_prime_at", "language": "tb", "seed": 0, "f1": 40.0},
            {"setting": "adapter_tuning", "language": "tb", "seed": 0, "f1": 45.0},
        ]
        path = tmp_path / "r.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records))
        assert run(["report", path]) == 0
        md = capsys.readouterr().out
        assert "**60.00**" in md and "**45.00**" in md
        assert md.splitlines()[0].startswith("| setting | ta | tb |")

    def test_mean_over_seeds(self, tmp_path, capsys):
        records = [
            {"setting": "adapter_tuning", "language": "ta", "seed": s, "f1": f}
            for s, f in ((0, 40.0), (1, 60.0))
        ]
        path = tmp_path / "r.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records))
        run(["report", path])
        assert "**50.00**" in capsys.readouterr().out

    @pytest.mark.parametrize("line", [
        '{"setting": "adapter_tuning", "seed": 0, "f1": 50.0}',
        '{"setting": "adapter_tuning", "language": "ta", "seed": 0}',
        '[1, 2]',
        '{"setting": "no_such_setting", "language": "ta", "seed": 0, "f1": 50.0}',
        '{"setting": "adapter_tuning", "language": "ta", "seed": 0, "f1": NaN}',
    ], ids=["no_language", "no_f1", "not_an_object", "unknown_setting", "nan_f1"])
    def test_bad_record_fails_cleanly(self, tmp_path, capsys, line):
        good = {"setting": "adapter_tuning", "language": "ta", "seed": 0, "f1": 50.0}
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(good) + "\n" + line + "\n")
        assert run(["report", path]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and f"{path} line 2" in err["message"]
        assert captured.out == ""

    def test_matrix_rendering(self):
        md = cli.render_matrix({("at", "pe_sim"): 50.0, ("at", "full_sim"): 45.0,
                                ("full_ft", "pe_sim"): 60.0, ("full_ft", "full_sim"): 65.0})
        assert "**50.00**" in md and "**65.00**" in md
        assert "45.00" in md and "60.00" in md
