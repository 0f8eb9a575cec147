"""Downstream fine-tuning settings and entity-level micro F1 evaluation.

``finetune`` freezes every partition its setting does not train on its
private clone for the whole run (``PartitionedModel.freeze``): no
gradient flows into them, and with the encoder frozen each train and
validation sequence is encoded once. The returned model is unfrozen.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Partition
from .data import Corpus, LABELS, Vocab, bio_spans, minibatches
from .model import PartitionedModel, count_trainable_fraction, pad_rows
from .priming import AdamW, PrimingConfig, adamw_step, prime, ft_prime

TARGET_HEAD = "target"
PREDICT_CHUNK = 32   # sequences per padded prediction batch

_ENCODER_HEAD = (Partition.PRETRAINED, Partition.HEAD)
_ADAPTER_HEAD = (Partition.LIGHTWEIGHT, Partition.HEAD)
_META = ("meta", {})
_FULL_LOOP = ("meta", {"inner_mode": "full_maml"})


class FineTuneSetting(enum.Enum):
    """The downstream settings, one row each.

    A row gives the setting's name, the partitions it trains, whether its
    model has an adapter, and its priming recipe: ``(kind, PrimingConfig
    overrides)`` with kind ``"meta"`` (``prime``) or ``"ft"`` (``ft_prime``),
    or None for an unprimed init. The first seven rows are the paper's
    settings 1-7; the last two fine-tune fully after priming, for the 2x2 matrix.
    """

    FULL_FT = ("full_ft", _ENCODER_HEAD, False, None)
    HEAD_TUNING = ("head_tuning", (Partition.HEAD,), True, None)
    ADAPTER_TUNING = ("adapter_tuning", _ADAPTER_HEAD, True, None)
    META_PRIME_AT = ("meta_prime_at", _ADAPTER_HEAD, True, _META)
    FT_PRIME_AT = ("ft_prime_at", _ADAPTER_HEAD, True, ("ft", {}))
    MAML_LOOP_PRIME_AT = ("maml_loop_prime_at", _ADAPTER_HEAD, True, _FULL_LOOP)
    ONE_STEP_PRIME_AT = ("one_step_prime_at", _ADAPTER_HEAD, True, ("meta", {"inner_steps": 1}))
    META_PRIME_FULLFT = ("meta_prime_fullft", tuple(Partition), True, _META)
    MAML_LOOP_PRIME_FULLFT = ("maml_loop_prime_fullft", tuple(Partition), True, _FULL_LOOP)

    def __new__(cls, value, trains, has_adapter, priming):
        member = object.__new__(cls)
        member._value_ = value
        member.trains, member.has_adapter, member.priming = trains, has_adapter, priming
        return member

    def lr(self, hyper: "FineTuneHyperparams") -> float:
        """``lr_full`` when the encoder trains, ``lr_pe`` otherwise."""
        return hyper.lr_full if Partition.PRETRAINED in self.trains else hyper.lr_pe


def priming_recipe(setting: FineTuneSetting):
    """The setting's ``(kind, PrimingConfig overrides)``, None when unprimed."""
    return setting.priming


@dataclass
class FineTuneHyperparams:
    """Downstream budgets at desk scale; comments give full-scale values."""

    lr_full: float = 5e-5      # full fine-tuning
    lr_pe: float = 1e-3        # adapter / head tuning
    steps: int = 50            # full scale: 300
    batch_size: int = 16
    eval_every: int = 10       # full scale: 25

    def __post_init__(self):
        ad.check_ranges(self, {"steps": 0, "batch_size": 1, "eval_every": 1},
                        positive=("lr_full", "lr_pe"))


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    per_type_gold: dict
    per_type_pred: dict
    trainable_fraction: float = 0.0
    setting: str = ""
    language: str = ""
    seed: int = 0

    def to_dict(self):
        return asdict(self)


# --- entity-level micro F1 ------------------------------------------------

def micro_f1(gold_sequences, pred_sequences) -> EvalReport:
    """Exact-span precision/recall/F1 aggregated over the whole corpus."""
    if len(gold_sequences) != len(pred_sequences):
        raise ad.ContractError(
            f"micro_f1: {len(gold_sequences)} gold vs {len(pred_sequences)} predicted sequences"
        )
    tp = n_gold = n_pred = 0
    per_type_gold: dict = {}
    per_type_pred: dict = {}
    for gold, pred in zip(gold_sequences, pred_sequences):
        if len(gold) != len(pred):
            raise ad.ContractError(f"micro_f1: length mismatch {len(gold)} vs {len(pred)}")
        gs, ps = bio_spans(gold), bio_spans(pred)
        tp += len(gs & ps)
        n_gold += len(gs)
        n_pred += len(ps)
        for t, _, _ in gs:
            per_type_gold[t] = per_type_gold.get(t, 0) + 1
        for t, _, _ in ps:
            per_type_pred[t] = per_type_pred.get(t, 0) + 1
    precision = 100.0 * tp / n_pred if n_pred else 0.0
    recall = 100.0 * tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalReport(precision, recall, f1, per_type_gold, per_type_pred)


def predict_corpus(model: PartitionedModel, corpus: Corpus, vocab: Vocab,
                   head: str = TARGET_HEAD):
    """Predicted labels per sequence, in corpus order, one padded batch per chunk."""
    preds, seqs = [], list(corpus)
    max_len = model.config.max_seq_len
    for lo in range(0, len(seqs), PREDICT_CHUNK):
        chunk = seqs[lo:lo + PREDICT_CHUNK]
        ids = [vocab.encode_tokens(seq.tokens[:max_len]) for seq in chunk]
        mask = pad_rows([np.ones(len(i), dtype=bool) for i in ids], False)
        label_ids = model.predict(pad_rows(ids, 0), mask, head)
        for seq, row, n in zip(chunk, label_ids, map(len, ids)):
            labels = [LABELS[i] for i in row[:n]]
            labels += ["O"] * (len(seq.tokens) - n)  # truncated tail predicts O
            preds.append(labels)
    return preds


# --- downstream fine-tuning -----------------------------------------------

@dataclass
class FineTuneResult:
    model: PartitionedModel
    best_f1: float
    trace: list = field(default_factory=list)   # (step, val F1)


def finetune(init_model: PartitionedModel, setting: FineTuneSetting,
             train_data, val_corpus: Corpus, vocab: Vocab,
             hyper: FineTuneHyperparams, seed: int = 0) -> FineTuneResult:
    """Train the setting's trainable partitions; keep the best-val-F1 state.

    ``init_model`` must already match the setting: adapter present (primed
    or fresh) for PE settings, absent for the adapter-free baseline. A
    fresh target head is always added here.
    """
    if not train_data:
        raise ValueError("finetune: empty train set")
    rng = np.random.default_rng(seed)
    model = init_model.clone()
    if TARGET_HEAD in model.head_names():
        raise ad.ContractError("init model already carries a target head")
    model.add_head(TARGET_HEAD, rng)

    model.freeze(set(Partition) - set(setting.trains))
    optimizer = AdamW([pid for part in setting.trains for pid in model.registry.ids(part)])
    lr = setting.lr(hyper)

    def evaluate():
        preds = predict_corpus(model, val_corpus, vocab)
        return micro_f1([s.labels for s in val_corpus], preds).f1

    best_f1 = evaluate()
    best_snap = model.registry.snapshot()
    trace = [(0, best_f1)]
    batches = minibatches(train_data, hyper.batch_size, rng)
    for step in range(1, hyper.steps + 1):
        adamw_step(model, [(TARGET_HEAD, next(batches))], optimizer, lr, step, "fine-tuning step")
        if step % hyper.eval_every == 0 or step == hyper.steps:
            f1 = evaluate()
            trace.append((step, f1))
            if f1 > best_f1:
                best_f1 = f1
                best_snap = model.registry.snapshot()
    model.freeze()
    model.registry.restore(best_snap)
    return FineTuneResult(model, best_f1, trace)


def evaluate_setting(model: PartitionedModel, setting: FineTuneSetting,
                     test_corpus: Corpus, vocab: Vocab, language: str,
                     seed: int) -> EvalReport:
    report = micro_f1([s.labels for s in test_corpus], predict_corpus(model, test_corpus, vocab))
    fraction = count_trainable_fraction(model.config, setting.trains, setting.has_adapter)
    return replace(report, setting=setting.value, language=language, seed=seed,
                   trainable_fraction=float(fraction))


# --- experiment orchestration ---------------------------------------------

@dataclass
class PretrainConfig:
    """Desk-scale stand-in for the pretrained model every setting starts from.

    Multi-task training of the bare encoder (+ per-source heads, later
    discarded) on the source languages. Zero steps means a random
    encoder plays the pretrained model.
    """

    steps: int = 300
    lr: float = 1e-3
    batch_size: int = 16

    def __post_init__(self):
        ad.check_ranges(self, {"steps": 0, "batch_size": 1}, positive=("lr",))


@dataclass
class Experiment:
    """Shared data + budgets for one grid of (setting, language, seed) runs."""

    vocab: Vocab
    meta_tasks: list
    targets: dict        # language -> (train encoded, val Corpus, test Corpus)
    model_config: "ModelConfig"
    priming: PrimingConfig
    hyper: FineTuneHyperparams
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)


def pretrained_encoder(exp: Experiment, seed: int,
                       cache: dict | None = None) -> dict:
    """Encoder parameter values shared by every setting of one seed."""
    key = ("pretrain", seed)
    if cache is not None and key in cache:
        return cache[key]
    base = PartitionedModel(exp.model_config, seed=seed, has_adapter=False)
    if exp.pretrain.steps > 0:
        cfg = PrimingConfig(beta=exp.pretrain.lr, outer_steps=exp.pretrain.steps,
                            support_batch_size=exp.pretrain.batch_size,
                            tasks_per_outer_batch=exp.priming.tasks_per_outer_batch,
                            seed=seed)
        base = ft_prime(base, exp.meta_tasks, cfg)
    values = {pid: base.registry[pid].value.data.copy()
              for pid in base.registry.ids(Partition.PRETRAINED)}
    if cache is not None:
        cache[key] = values
    return values


def prepare_init(exp: Experiment, setting: FineTuneSetting, seed: int,
                 primed_cache: dict | None = None) -> PartitionedModel:
    """Setting-specific starting model: pretrained encoder, then priming.

    The pretrained encoder and the (expensive) priming runs are cached
    per seed so settings sharing an init do not recompute it.
    """
    base = PartitionedModel(exp.model_config, seed=seed,
                            has_adapter=setting.has_adapter)
    for pid, arr in pretrained_encoder(exp, seed, primed_cache).items():
        base.registry[pid].value.data = arr.copy()
    if setting.priming is None:
        return base
    kind, overrides = setting.priming
    key = (kind, tuple(sorted(overrides.items())), seed)
    if primed_cache is not None and key in primed_cache:
        return primed_cache[key]
    cfg = PrimingConfig(**{**asdict(exp.priming), **overrides, "seed": seed})
    runner = prime if kind == "meta" else ft_prime
    primed = strip_heads(runner(base, exp.meta_tasks, cfg))
    if primed_cache is not None:
        primed_cache[key] = primed
    return primed


def strip_heads(model: PartitionedModel) -> PartitionedModel:
    """Drop priming heads; downstream runs always add a fresh one."""
    reg = ad.ParameterRegistry()
    for p in model.registry:
        if p.partition is not Partition.HEAD:
            reg.add(p.id, p.value.data.copy(), p.partition)
    return PartitionedModel(model.config, has_adapter=model.has_adapter, registry=reg)


def run_setting(exp: Experiment, setting: FineTuneSetting, language: str,
                seed: int, primed_cache: dict | None = None) -> EvalReport:
    init = prepare_init(exp, setting, seed, primed_cache)
    train, val_corpus, test_corpus = exp.targets[language]
    result = finetune(init, setting, train, val_corpus, exp.vocab, exp.hyper, seed=seed)
    return evaluate_setting(result.model, setting, test_corpus, exp.vocab, language, seed)


MATRIX_CELLS = {
    # rows: downstream strategy; columns: priming strategy. Diagonal =
    # priming simulates the downstream strategy it precedes.
    ("at", "pe_sim"): FineTuneSetting.META_PRIME_AT,
    ("at", "full_sim"): FineTuneSetting.MAML_LOOP_PRIME_AT,
    ("full_ft", "pe_sim"): FineTuneSetting.META_PRIME_FULLFT,
    ("full_ft", "full_sim"): FineTuneSetting.MAML_LOOP_PRIME_FULLFT,
}


def run_matrix(exp: Experiment, seeds, languages=None):
    """2x2 grid {downstream in {at, full_ft}} x {priming in {pe_sim, full_sim}}.

    Returns (mean-F1 matrix dict, list of per-run EvalReports).
    """
    languages = list(exp.targets) if languages is None else list(languages)
    reports = []
    cells = {key: [] for key in MATRIX_CELLS}
    for seed in seeds:
        primed_cache: dict = {}
        for key, setting in MATRIX_CELLS.items():
            for lang in languages:
                rep = run_setting(exp, setting, lang, seed, primed_cache)
                reports.append(rep)
                cells[key].append(rep.f1)
    matrix = {key: float(np.mean(v)) for key, v in cells.items()}
    return matrix, reports
