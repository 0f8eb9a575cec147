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
from peprime.data import SplitSpec
from peprime.finetune import FineTuneHyperparams, PretrainConfig
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
        (lambda c: c["model"].update(n_labels=3), "model.n_labels must be 7"),
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
    ], ids=["str_for_int", "bool_for_int", "str_for_model_int", "str_seed", "no_seeds",
            "int_for_section", "eval_every_0", "batch_size_0", "pretrain_batch_size_0",
            "train_size_0", "negative_steps", "n_heads_0", "n_labels_3",
            "entity_rate_negative", "entity_rate_above_1", "mean_sentence_length_0",
            "n_sentences_source_0", "n_sentences_target_negative"])
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

    @pytest.mark.parametrize("config,out,error", [
        ("dir", "new", "IsADirectoryError"), ("tiny", "file", "FileExistsError"),
    ], ids=["config_is_a_directory", "out_is_a_file"])
    def test_bad_paths_fail_cleanly(self, tiny_config, tmp_path, capsys, config, out, error):
        (tmp_path / "file").write_text("")
        rc = run(["prime", "--config", tiny_config if config == "tiny" else tmp_path,
                  "--out", tmp_path / out])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == error

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

    @pytest.mark.parametrize("argv", [
        ["finetune", "--language", "ta"],
        ["evaluate", "--language", "ta", "--init-checkpoint", "x.ckpt"],
        ["evaluate", "--language", "ta", "--setting", "full_ft"],
    ], ids=["finetune_setting", "evaluate_setting", "evaluate_checkpoint"])
    def test_missing_flag_is_a_usage_error(self, tiny_config, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--config", tiny_config, "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err

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
    ], ids=["no_language", "no_f1", "not_an_object"])
    def test_bad_record_fails_cleanly(self, tmp_path, capsys, line):
        good = {"setting": "adapter_tuning", "language": "ta", "seed": 0, "f1": 50.0}
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(good) + "\n" + line + "\n")
        assert run(["report", path]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "line 2" in err["message"]
        assert captured.out == ""

    def test_matrix_rendering(self):
        md = cli.render_matrix({("at", "pe_sim"): 50.0, ("at", "full_sim"): 45.0,
                                ("full_ft", "pe_sim"): 60.0, ("full_ft", "full_sim"): 65.0})
        assert "**50.00**" in md and "**65.00**" in md
        assert "45.00" in md and "60.00" in md
