"""Command-line harness: one entry point for the whole experiment grid.

Subcommands: generate-data, prime, finetune, evaluate, matrix, report.
A JSON run config fully determines every artifact; the config used is
copied into the output directory next to the results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as D
from .finetune import (
    Experiment,
    FineTuneHyperparams,
    FineTuneSetting,
    PretrainConfig,
    evaluate_setting,
    finetune,
    prepare_init,
    pretrained_encoder,
    run_matrix,
)
from .model import ModelConfig, PartitionedModel
from .priming import PrimingConfig, TrainingDiverged, ft_prime, prime


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "model": {"d_model": 32, "n_layers": 2, "n_heads": 2, "d_ff": 64,
              "max_seq_len": 32, "n_labels": 7, "adapter_bottleneck": 8,
              "adapter_nonlinearity": "relu", "adapter_residual": True},
    # beta/outer_steps are desk-scale: the full-scale default (5e-5) does
    # not move a model this small within any sane step budget.
    "priming": {"alpha": 0.03, "beta": 5e-4, "inner_steps": 5, "inner_mode": "pe_sim",
                "alpha_full": 1e-4, "tasks_per_outer_batch": 2, "outer_steps": 400,
                "support_batch_size": 8, "query_batch_size": 32, "seed": 0},
    "finetune": {"lr_full": 5e-5, "lr_pe": 1e-3, "steps": 50, "batch_size": 16,
                 "eval_every": 10},
    "pretrain": {"steps": 300, "lr": 1e-3, "batch_size": 16},
    "data": {
        "synthetic": {
            "sources": ["srcA", "srcB"],
            "targets": ["tgtX", "tgtY", "tgtZ"],
            "n_sentences_source": 1200,
            "n_sentences_target": 800,
            "entity_rate": 0.3,
            "mean_sentence_length": 9.0,
            "family_seed": 7,
        },
        # small target train split: the low-resource regime is where init
        # quality (and hence priming) is measurable at all
        "split": {"support_size": 256, "query_size": 256,
                  "train_size": 64, "val_size": 100, "test_size": 200},
    },
    "seeds": [0, 1, 2],
}


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as f:
        cfg = json.load(f)
    merged = json.loads(json.dumps(DEFAULT_CONFIG))
    _deep_update(merged, cfg)
    _validate_config(merged)
    return merged


def _deep_update(base: dict, other: dict):
    for k, v in other.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        else:
            base[k] = v


def _validate_config(cfg: dict):
    bad = [k for k in cfg if k not in DEFAULT_CONFIG]
    bad += [f"model.{k}" for k in cfg["model"] if k not in DEFAULT_CONFIG["model"]]
    bad += [f"priming.{k}" for k in cfg["priming"] if k not in DEFAULT_CONFIG["priming"]]
    bad += [f"finetune.{k}" for k in cfg["finetune"] if k not in DEFAULT_CONFIG["finetune"]]
    bad += [f"pretrain.{k}" for k in cfg["pretrain"] if k not in DEFAULT_CONFIG["pretrain"]]
    bad += [f"data.{k}" for k in cfg["data"] if k not in ("synthetic", "conll", "split")]
    for section in ("synthetic", "split"):
        allowed = DEFAULT_CONFIG["data"][section]
        bad += [f"data.{section}.{k}" for k in cfg["data"][section] if k not in allowed]
    conll = cfg["data"].get("conll")
    if conll is not None:
        if not isinstance(conll, dict):
            raise ConfigError("data.conll must be an object with 'sources' and 'targets'")
        bad += [f"data.conll.{k}" for k in conll if k not in ("sources", "targets")]
        missing = [f"data.conll.{k}" for k in ("sources", "targets")
                   if not isinstance(conll.get(k), dict)]
        if missing:
            raise ConfigError(f"missing config keys (language -> path objects): "
                              f"{', '.join(missing)}")
    if bad:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(bad))}")


def _language_specs(syn: dict):
    fam = syn.get("family_seed", 7)
    specs = {}
    for i, lang in enumerate(list(syn["sources"]) + list(syn["targets"])):
        specs[lang] = D.SyntheticLanguageSpec(
            language_id=lang, seed=fam * 1000 + i,
            entity_rate=syn["entity_rate"],
            mean_sentence_length=syn["mean_sentence_length"],
        )
    return specs


def build_corpora(cfg: dict):
    """(source corpora, target corpora) per the config's data section.

    Sentences longer than ``model.max_seq_len`` are truncated and counted
    in each corpus's ``truncated_sequences``, for CoNLL and synthetic data alike.
    """
    dcfg = cfg["data"]
    max_len = cfg["model"]["max_seq_len"]
    if "conll" in dcfg:
        paths = dcfg["conll"]
        sources = {l: D.load_conll(p, max_len) for l, p in paths["sources"].items()}
        targets = {l: D.load_conll(p, max_len) for l, p in paths["targets"].items()}
        return sources, targets
    syn = dcfg["synthetic"]
    specs = _language_specs(syn)

    def generate(lang, n):
        return D.truncate_corpus(D.generate_language(specs[lang], n), max_len)

    sources = {l: generate(l, syn["n_sentences_source"]) for l in syn["sources"]}
    targets = {l: generate(l, syn["n_sentences_target"]) for l in syn["targets"]}
    return sources, targets


def build_experiment(cfg: dict) -> Experiment:
    sources, targets = build_corpora(cfg)
    vocab = D.Vocab.build(list(sources.values()) + list(targets.values()))
    split = D.SplitSpec(**cfg["data"]["split"])
    meta_tasks = D.build_meta_dataset(sources, split, vocab)
    target_splits = {lang: D.split_target(corpus, split, vocab)
                     for lang, corpus in targets.items()}
    model_config = ModelConfig(vocab_size=len(vocab), **cfg["model"])
    return Experiment(
        vocab=vocab,
        meta_tasks=meta_tasks,
        targets=target_splits,
        model_config=model_config,
        priming=PrimingConfig(**cfg["priming"]),
        hyper=FineTuneHyperparams(**cfg["finetune"]),
        pretrain=PretrainConfig(**cfg["pretrain"]),
    )


def _prepare_out(cfg: dict, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "run_config.json", "w", encoding="utf-8") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")
    return out


def _write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


# --- subcommands ----------------------------------------------------------

def cmd_generate_data(args):
    cfg = load_config(args.config)
    out = _prepare_out(cfg, Path(args.out))
    sources, targets = build_corpora(cfg)
    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    for role, corpora in (("source", sources), ("target", targets)):
        for lang, corpus in corpora.items():
            D.write_conll(corpus, data_dir / f"{role}_{lang}.conll")
            print(f"wrote {role}_{lang}.conll: {len(corpus)} sentences, "
                  f"spans {corpus.span_type_counts()}")
    return 0


def cmd_prime(args):
    cfg = load_config(args.config)
    out = _prepare_out(cfg, Path(args.out))
    exp = build_experiment(cfg)
    seed = cfg["priming"]["seed"] if args.seed is None else args.seed
    pcfg = dataclasses.replace(exp.priming, seed=seed,
                               inner_mode=args.inner_mode or exp.priming.inner_mode)
    if args.init_checkpoint:
        registry = ad.load_checkpoint(args.init_checkpoint, exp.model_config.hash())
        base = PartitionedModel(exp.model_config, registry=registry)
    else:
        base = PartitionedModel(exp.model_config, seed=seed)
        for pid, arr in pretrained_encoder(exp, seed).items():
            base.registry[pid].value.data = arr.copy()
    log: list = []
    runner = ft_prime if args.ft else prime
    primed = runner(base, exp.meta_tasks, pcfg, log=log)
    from .finetune import strip_heads
    primed = strip_heads(primed)
    ad.save_checkpoint(primed.registry, out / "primed.ckpt", exp.model_config.hash())
    _write_jsonl(log, out / "prime_log.jsonl")
    print(f"primed checkpoint: {out / 'primed.ckpt'} ({pcfg.outer_steps} outer steps, "
          f"mode={'ft' if args.ft else pcfg.inner_mode})")
    return 0


def cmd_finetune(args):
    cfg = load_config(args.config)
    out = _prepare_out(cfg, Path(args.out))
    exp = build_experiment(cfg)
    setting = FineTuneSetting(args.setting)
    seed = args.seed if args.seed is not None else cfg["seeds"][0]
    if args.language not in exp.targets:
        raise ConfigError(f"unknown target language {args.language!r}; "
                          f"have {sorted(exp.targets)}")
    if args.init_checkpoint:
        registry = ad.load_checkpoint(args.init_checkpoint, exp.model_config.hash())
        init = PartitionedModel(exp.model_config, registry=registry,
                                has_adapter="adapter.down" in registry)
    else:
        init = prepare_init(exp, setting, seed)
    train, val_corpus, test_corpus = exp.targets[args.language]
    result = finetune(init, setting, train, val_corpus, exp.vocab, exp.hyper, seed=seed)
    report = evaluate_setting(result.model, setting, test_corpus, exp.vocab,
                              args.language, seed)
    ad.save_checkpoint(result.model.registry, out / "finetuned.ckpt",
                       exp.model_config.hash())
    _write_jsonl([report.to_dict()], out / "report.jsonl")
    print(f"{setting.value} on {args.language} (seed {seed}): "
          f"F1={report.f1:.2f} P={report.precision:.2f} R={report.recall:.2f}")
    return 0


def cmd_evaluate(args):
    cfg = load_config(args.config)
    out = _prepare_out(cfg, Path(args.out))
    exp = build_experiment(cfg)
    registry = ad.load_checkpoint(args.init_checkpoint, exp.model_config.hash())
    model = PartitionedModel(exp.model_config, registry=registry,
                             has_adapter="adapter.down" in registry)
    setting = FineTuneSetting(args.setting) if args.setting else FineTuneSetting.ADAPTER_TUNING
    _, _, test_corpus = exp.targets[args.language]
    report = evaluate_setting(model, setting, test_corpus, exp.vocab,
                              args.language, args.seed or 0)
    _write_jsonl([report.to_dict()], out / "report.jsonl")
    print(f"{args.language}: F1={report.f1:.2f} P={report.precision:.2f} "
          f"R={report.recall:.2f}")
    return 0


def cmd_matrix(args):
    cfg = load_config(args.config)
    out = _prepare_out(cfg, Path(args.out))
    exp = build_experiment(cfg)
    seeds = [args.seed] if args.seed is not None else cfg["seeds"]
    matrix, reports = run_matrix(exp, seeds)
    _write_jsonl([r.to_dict() for r in reports], out / "reports.jsonl")
    with open(out / "matrix.json", "w", encoding="utf-8") as f:
        json.dump({f"{row}|{col}": v for (row, col), v in matrix.items()},
                  f, indent=2, sort_keys=True)
        f.write("\n")
    print(render_matrix(matrix))
    return 0


def cmd_report(args):
    records = []
    for path in args.results:
        with open(path, encoding="utf-8") as f:
            records.extend(json.loads(line) for line in f if line.strip())
    md = render_table(records)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with open(Path(args.out) / "report.md", "w", encoding="utf-8") as f:
            f.write(md)
    print(md)
    return 0


# --- rendering ------------------------------------------------------------

SETTING_ORDER = [s.value for s in FineTuneSetting]


def render_table(records) -> str:
    """Settings x languages markdown table; per-column max in bold."""
    languages = sorted({r["language"] for r in records})
    by_key: dict = {}
    for r in records:
        by_key.setdefault((r["setting"], r["language"]), []).append(r["f1"])
    means = {k: float(np.mean(v)) for k, v in by_key.items()}
    settings = [s for s in SETTING_ORDER if any(k[0] == s for k in means)]
    col_max = {lang: max((means[(s, lang)] for s in settings if (s, lang) in means),
                         default=None) for lang in languages}
    lines = ["| setting | " + " | ".join(languages) + " |",
             "|---" * (len(languages) + 1) + "|"]
    for s in settings:
        cells = []
        for lang in languages:
            v = means.get((s, lang))
            if v is None:
                cells.append("-")
            elif v == col_max[lang]:
                cells.append(f"**{v:.2f}**")
            else:
                cells.append(f"{v:.2f}")
        lines.append(f"| {s} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render_matrix(matrix: dict) -> str:
    rows = ("at", "full_ft")
    cols = ("pe_sim", "full_sim")
    lines = ["| downstream \\ priming | " + " | ".join(cols) + " |",
             "|---|---|---|"]
    for row in rows:
        cells = []
        for col in cols:
            v = matrix[(row, col)]
            diag = (row == "at") == (col == "pe_sim")
            cells.append(f"**{v:.2f}**" if diag else f"{v:.2f}")
        lines.append(f"| {row} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


# --- argument parsing -----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="peprime",
                                     description="Priming experiments for PE fine-tuning")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, setting=False, language=False):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if checkpoint:
            p.add_argument("--init-checkpoint", default=None)
        if setting:
            p.add_argument("--setting", choices=[s.value for s in FineTuneSetting])
        if language:
            p.add_argument("--language", required=True)

    common(sub.add_parser("generate-data", help="write corpora as CoNLL files"))
    p = sub.add_parser("prime", help="run the priming stage, save checkpoint + log")
    common(p, checkpoint=True)
    p.add_argument("--ft", action="store_true", help="use fine-tuning-based priming")
    p.add_argument("--inner-mode", choices=["pe_sim", "full_maml"], default=None)
    p = sub.add_parser("finetune", help="fine-tune one setting on one language")
    common(p, checkpoint=True, setting=True, language=True)
    p = sub.add_parser("evaluate", help="evaluate a trained checkpoint")
    common(p, checkpoint=True, setting=True, language=True)
    common(sub.add_parser("matrix", help="run the 2x2 priming/fine-tuning grid"))
    p = sub.add_parser("report", help="render markdown tables from result JSONL")
    p.add_argument("results", nargs="+", help="JSONL result files")
    p.add_argument("--out", default=None)
    return parser


COMMANDS = {
    "generate-data": cmd_generate_data,
    "prime": cmd_prime,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "matrix": cmd_matrix,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow in a diverging run is caught by the isfinite checks and
        # reported as TrainingDiverged; numpy's warnings would only add noise
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](args)
    except (ConfigError, ad.CheckpointError, ad.ContractError, TrainingDiverged,
            FileNotFoundError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
