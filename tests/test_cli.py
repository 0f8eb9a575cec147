import json

import numpy as np
import pytest

from peprime import autodiff as ad
from peprime import cli
from peprime.model import PartitionedModel


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = {
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
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
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

    def test_unknown_language_fails(self, tiny_config, tmp_path, capsys):
        rc = run(["finetune", "--config", tiny_config, "--out", tmp_path / "o",
                  "--setting", "adapter_tuning", "--language", "xx"])
        assert rc == 1
        assert "unknown target language" in json.loads(capsys.readouterr().err)["message"]

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

    def test_matrix_rendering(self):
        md = cli.render_matrix({("at", "pe_sim"): 50.0, ("at", "full_sim"): 45.0,
                                ("full_ft", "pe_sim"): 60.0, ("full_ft", "full_sim"): 65.0})
        assert "**50.00**" in md and "**65.00**" in md
        assert "45.00" in md and "60.00" in md
