"""Command-line harness: one entry point for the whole experiment grid.

Subcommands: generate-data, prime, finetune, evaluate, matrix, report.
A JSON run config, deep-merged over ``DEFAULT_CONFIG``, fully determines
every artifact; the merged config is copied into the output directory next
to the results. ``DEFAULT_CONFIG`` takes each section's defaults from its
config dataclass. An unknown key or a value of another JSON type than its
default is a ``ConfigError``; the dataclasses check the value ranges.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from . import data as D
from .finetune import (
    MATRIX_CELLS,
    Experiment,
    FineTuneHyperparams,
    FineTuneSetting,
    PretrainConfig,
    evaluate_setting,
    finetune,
    prepare_init,
    pretrained_encoder,
    run_matrix,
    strip_heads,
)
from .model import ModelConfig, PartitionedModel
from .priming import PrimingConfig, TrainingDiverged, ft_prime, prime


class ConfigError(ValueError):
    pass


def _defaults(cls) -> dict:
    """The field defaults of a config dataclass; a field without one is not a config key."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


# only the synthetic data and the seeds have no dataclass to take defaults from
DEFAULT_CONFIG = {
    "model": _defaults(ModelConfig),
    "priming": _defaults(PrimingConfig),
    "finetune": _defaults(FineTuneHyperparams),
    "pretrain": _defaults(PretrainConfig),
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
        "split": _defaults(D.SplitSpec),
    },
    "seeds": [0, 1, 2],
}


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as f:
        cfg = json.load(f)
    _validate_config(cfg)
    merged = json.loads(json.dumps(DEFAULT_CONFIG))
    _deep_update(merged, cfg)
    return merged


def _deep_update(base: dict, other: dict):
    for k, v in other.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        else:
            base[k] = v


def _validate_config(cfg: dict):
    """Reject unknown keys and values of another JSON type than their default."""
    problems = list(_problems(cfg, DEFAULT_CONFIG, ""))
    conll = cfg.get("data", {}).get("conll") if not problems else None
    if conll is not None:
        if not (isinstance(conll, dict) and isinstance(conll.get("sources"), dict)
                and isinstance(conll.get("targets"), dict)):
            raise ConfigError("data.conll.sources and data.conll.targets must be "
                              "objects (language -> path)")
        problems += [f"unknown key data.conll.{k}" for k in conll
                     if k not in ("sources", "targets")]
    if problems:
        raise ConfigError("bad config: " + "; ".join(problems))


def _problems(value, default, path: str):
    """Unknown keys and mistyped values under ``path``; an int passes as a float,
    a bool never as a number, and list items must have the type of the default's."""
    if type(value) is not type(default) and not (type(default) is float and type(value) is int):
        yield f"{path or 'the config'} must be {type(default).__name__}, got {json.dumps(value)}"
    elif isinstance(default, dict):
        for key, item in value.items():
            where = f"{path}.{key}" if path else key
            if key in default:
                yield from _problems(item, default[key], where)
            elif where != "data.conll":    # optional, checked by _validate_config
                yield f"unknown key {where}"
    elif isinstance(default, list):
        if not value:
            yield f"{path} must not be empty"
        for i, item in enumerate(value):
            yield from _problems(item, default[0], f"{path}[{i}]")


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
    languages = list(syn["sources"]) + list(syn["targets"])
    try:
        ad.check_ranges(SimpleNamespace(**syn), {"n_sentences_source": 1, "n_sentences_target": 1})
        specs = {lang: D.SyntheticLanguageSpec(language_id=lang,
                                               seed=syn["family_seed"] * 1000 + i,
                                               entity_rate=syn["entity_rate"],
                                               mean_sentence_length=syn["mean_sentence_length"])
                 for i, lang in enumerate(languages)}
    except ValueError as exc:
        raise ConfigError(f"data.synthetic: {exc}") from None

    def generate(lang, n):
        return D.truncate_corpus(D.generate_language(specs[lang], n), max_len)

    sources = {l: generate(l, syn["n_sentences_source"]) for l in syn["sources"]}
    targets = {l: generate(l, syn["n_sentences_target"]) for l in syn["targets"]}
    return sources, targets


def build_experiment(cfg: dict) -> Experiment:
    if cfg["model"]["n_labels"] != len(D.LABELS):
        raise ConfigError(f"model.n_labels must be {len(D.LABELS)}, the size of the label set")
    split = _section(D.SplitSpec, "data.split", cfg["data"]["split"])
    priming = _section(PrimingConfig, "priming", cfg["priming"])
    hyper = _section(FineTuneHyperparams, "finetune", cfg["finetune"])
    pretrain = _section(PretrainConfig, "pretrain", cfg["pretrain"])
    sources, targets = build_corpora(cfg)
    vocab = D.Vocab.build(list(sources.values()) + list(targets.values()))
    meta_tasks = D.build_meta_dataset(sources, split, vocab)
    target_splits = {lang: D.split_target(corpus, split, vocab)
                     for lang, corpus in targets.items()}
    return Experiment(
        vocab=vocab,
        meta_tasks=meta_tasks,
        targets=target_splits,
        model_config=_section(ModelConfig, "model", cfg["model"], vocab_size=len(vocab)),
        priming=priming,
        hyper=hyper,
        pretrain=pretrain,
    )


def _section(cls, name: str, values: dict, **extra):
    """``cls(**values, **extra)``; a value out of range is a ConfigError naming the section."""
    try:
        return cls(**values, **extra)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _target(exp: Experiment, language: str):
    """(train, val, test) of a target language named on the command line."""
    if language not in exp.targets:
        raise ConfigError(f"unknown target language {language!r}; "
                          f"have {sorted(exp.targets)}")
    return exp.targets[language]


def _prepare_out(cfg: dict, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    _write_json(cfg, out / "run_config.json")
    return out


def _start(args):
    """(merged config, output directory holding run_config.json, experiment)."""
    cfg = load_config(args.config)
    return cfg, _prepare_out(cfg, Path(args.out)), build_experiment(cfg)


def _load_model(path, exp: Experiment) -> PartitionedModel:
    registry = ad.load_checkpoint(path, exp.model_config.hash())
    return PartitionedModel(exp.model_config, registry=registry,
                            has_adapter="adapter.down" in registry)


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


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
    cfg, out, exp = _start(args)
    seed = cfg["priming"]["seed"] if args.seed is None else args.seed
    pcfg = dataclasses.replace(exp.priming, seed=seed,
                               inner_mode=args.inner_mode or exp.priming.inner_mode)
    if args.init_checkpoint:
        base = _load_model(args.init_checkpoint, exp)
    else:
        base = PartitionedModel(exp.model_config, seed=seed)
        for pid, arr in pretrained_encoder(exp, seed).items():
            base.registry[pid].value.data = arr.copy()
    log: list = []
    runner = ft_prime if args.ft else prime
    primed = strip_heads(runner(base, exp.meta_tasks, pcfg, log=log))
    ad.save_checkpoint(primed.registry, out / "primed.ckpt", exp.model_config.hash())
    _write_jsonl(log, out / "prime_log.jsonl")
    print(f"primed checkpoint: {out / 'primed.ckpt'} ({pcfg.outer_steps} outer steps, "
          f"mode={'ft' if args.ft else pcfg.inner_mode})")
    return 0


def cmd_finetune(args):
    cfg, out, exp = _start(args)
    setting = FineTuneSetting(args.setting)
    seed = args.seed if args.seed is not None else cfg["seeds"][0]
    train, val_corpus, test_corpus = _target(exp, args.language)
    if args.init_checkpoint:
        init = _load_model(args.init_checkpoint, exp)
    else:
        init = prepare_init(exp, setting, seed)
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
    _, out, exp = _start(args)
    _, _, test_corpus = _target(exp, args.language)
    model = _load_model(args.init_checkpoint, exp)
    report = evaluate_setting(model, FineTuneSetting(args.setting), test_corpus, exp.vocab,
                              args.language, args.seed or 0)
    _write_jsonl([report.to_dict()], out / "report.jsonl")
    print(f"{args.language}: F1={report.f1:.2f} P={report.precision:.2f} "
          f"R={report.recall:.2f}")
    return 0


def cmd_matrix(args):
    cfg, out, exp = _start(args)
    seeds = [args.seed] if args.seed is not None else cfg["seeds"]
    matrix, reports = run_matrix(exp, seeds)
    _write_jsonl([r.to_dict() for r in reports], out / "reports.jsonl")
    _write_json({f"{row}|{col}": v for (row, col), v in matrix.items()}, out / "matrix.json")
    print(render_matrix(matrix))
    return 0


def _read_records(path) -> list:
    """The records of a result JSONL file; each line must be an object with
    string ``setting`` and ``language`` and a numeric ``f1``."""
    records = []
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            rec = json.loads(line)
            if not (isinstance(rec, dict) and isinstance(rec.get("setting"), str)
                    and isinstance(rec.get("language"), str)
                    and type(rec.get("f1")) in (int, float)):
                raise ValueError(f"{path} line {n}: a result record must be an object with "
                                 f"string 'setting' and 'language' and a numeric 'f1'")
            records.append(rec)
    return records


def cmd_report(args):
    records = [rec for path in args.results for rec in _read_records(path)]
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

    def cell(s, lang):
        v = means.get((s, lang))
        if v is None:
            return "-"
        return f"**{v:.2f}**" if v == col_max[lang] else f"{v:.2f}"

    lines = ["| setting | " + " | ".join(languages) + " |",
             "|---" * (len(languages) + 1) + "|"]
    lines += [f"| {s} | " + " | ".join(cell(s, lang) for lang in languages) + " |"
              for s in settings]
    return "\n".join(lines) + "\n"


def render_matrix(matrix: dict) -> str:
    """Rows and columns in ``MATRIX_CELLS`` order; the diagonal is bold."""
    rows = list(dict.fromkeys(row for row, _ in MATRIX_CELLS))
    cols = list(dict.fromkeys(col for _, col in MATRIX_CELLS))
    lines = ["| downstream \\ priming | " + " | ".join(cols) + " |",
             "|---" * (len(cols) + 1) + "|"]
    for i, row in enumerate(rows):
        cells = [f"**{matrix[(row, col)]:.2f}**" if i == j else f"{matrix[(row, col)]:.2f}"
                 for j, col in enumerate(cols)]
        lines.append(f"| {row} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


# --- argument parsing -----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="peprime",
                                     description="Priming experiments for PE fine-tuning")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, setting=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if setting:
            p.add_argument("--setting", required=True, choices=SETTING_ORDER)
            p.add_argument("--language", required=True)
        return p

    command("generate-data", cmd_generate_data, "write corpora as CoNLL files")
    p = command("prime", cmd_prime, "run the priming stage, save checkpoint + log")
    p.add_argument("--init-checkpoint", default=None)
    p.add_argument("--ft", action="store_true", help="use fine-tuning-based priming")
    p.add_argument("--inner-mode", choices=["pe_sim", "full_maml"], default=None)
    p = command("finetune", cmd_finetune, "fine-tune one setting on one language", setting=True)
    p.add_argument("--init-checkpoint", default=None)
    p = command("evaluate", cmd_evaluate, "evaluate a trained checkpoint", setting=True)
    p.add_argument("--init-checkpoint", required=True)
    command("matrix", cmd_matrix, "run the 2x2 priming/fine-tuning grid")
    p = sub.add_parser("report", help="render markdown tables from result JSONL")
    p.set_defaults(run=cmd_report)
    p.add_argument("results", nargs="+", help="JSONL result files")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow in a diverging run is caught by the isfinite checks and
        # reported as TrainingDiverged; numpy's warnings would only add noise
        with np.errstate(all="ignore"):
            return args.run(args)
    except (ConfigError, ad.CheckpointError, ad.ContractError, TrainingDiverged,
            OSError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
