"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py``. Every test prints a single
``CRITERION n ...: PASS/FAIL`` line (visible with ``-s`` or in captured
output on failure) so a log scan shows the verdict per criterion. The
qualitative-replication criteria (6, 7) run the full desk-scale experiment
grid and dominate the runtime.
"""

import json
import time

import numpy as np
import pytest

from gradcheck import finite_difference_check
from test_finetune import brute_force_spans, random_bio

from peprime import autodiff as ad
from peprime import data as D
from peprime.autodiff import Partition
from peprime.cli import DEFAULT_CONFIG, build_experiment
from peprime.finetune import (
    FineTuneSetting,
    FineTuneHyperparams,
    finetune,
    micro_f1,
    run_setting,
)
from peprime.model import ModelConfig, PartitionedModel, count_trainable_fraction
from peprime.priming import AdamW, PrimingConfig, SHARED_HEAD, inner_adapt, prime


def verdict(n, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nCRITERION {n} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def small_model(seed=0, vocab=40):
    cfg = ModelConfig(vocab_size=vocab, d_model=8, n_layers=1, n_heads=2,
                      d_ff=12, max_seq_len=12, n_labels=7, adapter_bottleneck=4)
    return PartitionedModel(cfg, seed=seed)


def random_task(model, seed=0, n=8):
    rng = np.random.default_rng(900 + seed)
    def seqs(k):
        out = []
        for _ in range(k):
            length = int(rng.integers(4, 9))
            ids = rng.integers(2, model.config.vocab_size, length)
            labels = rng.integers(0, model.config.n_labels, length)
            out.append((ids, labels))
        return out
    return D.MetaTask(f"task{seed}", support=seqs(n), query=seqs(n))


def registry_bytes(registry, partition=None):
    return b"".join(registry[pid].value.data.tobytes()
                    for pid in registry.ids(partition))


# --- 1: gradient soundness ------------------------------------------------

def test_criterion_1_gradient_soundness():
    t0 = time.time()
    model = PartitionedModel(ModelConfig(vocab_size=64), seed=5)
    model.add_head("t", np.random.default_rng(11))
    rng = np.random.default_rng(12)
    batch = [(rng.integers(2, 64, 6), rng.integers(0, 7, 6))]

    def loss_fn(registry):
        return model.batch_loss(batch, "t")

    worst = finite_difference_check(loss_fn, model.registry, epsilon=1e-5)
    max_rel_err = max(err for err, _ in worst.values())
    elapsed = time.time() - t0
    verdict(1, "analytic gradients match finite differences on the desk config",
            max_rel_err <= 1e-4 and elapsed < 120,
            f"max_rel_err={max_rel_err:.3g}, {elapsed:.1f}s")


# --- 2: freezing invariants ----------------------------------------------

def test_criterion_2_freezing_invariants():
    model = small_model(seed=1)
    model.add_head(SHARED_HEAD, np.random.default_rng(2))
    task = random_task(model, seed=1, n=16)
    rng = np.random.default_rng(3)
    frozen_before = registry_bytes(model.registry, Partition.PRETRAINED)
    steps = 0

    # 50 pe_sim inner-loop SGD steps (10 adaptation episodes x S=5)
    cfg = PrimingConfig(outer_steps=1)
    adapted = model
    for _ in range(10):
        adapted = inner_adapt(adapted, task, cfg, rng).adapted
        steps += cfg.inner_steps
    assert registry_bytes(adapted.registry, Partition.PRETRAINED) == frozen_before

    # 25 adapter-tuning + 25 head-tuning AdamW steps on fresh targets
    train = [task.support[i] for i in range(len(task.support))]
    val = D.Corpus([D.TaggedSequence([f"w{i}" for i in range(3)], ["O"] * 3)])
    vocab = D.Vocab.build([val])
    hyper = FineTuneHyperparams(steps=25, batch_size=4, eval_every=50)
    at = finetune(model, FineTuneSetting.ADAPTER_TUNING, train, val, vocab, hyper, seed=0)
    steps += 25
    ok_at = registry_bytes(at.model.registry, Partition.PRETRAINED) == frozen_before
    adapter_before = registry_bytes(model.registry, Partition.LIGHTWEIGHT)
    ht = finetune(model, FineTuneSetting.HEAD_TUNING, train, val, vocab, hyper, seed=0)
    steps += 25
    ok_ht = (registry_bytes(ht.model.registry, Partition.PRETRAINED) == frozen_before
             and registry_bytes(ht.model.registry, Partition.LIGHTWEIGHT) == adapter_before)
    verdict(2, "frozen partitions bit-identical across randomized PE steps",
            ok_at and ok_ht and steps == 100, f"{steps} steps")


# --- 3: first-order meta-gradient oracle ---------------------------------

def test_criterion_3_meta_gradient_oracle():
    # (a) outer_step's applied gradient == independent two-pass computation
    from peprime.priming import outer_step
    model = small_model(seed=7)
    model.add_head(SHARED_HEAD, np.random.default_rng(8))
    tasks = [random_task(model, seed=s, n=8) for s in (1, 2)]
    cfg = PrimingConfig(outer_steps=1, seed=0)

    class Recorder:
        def step(self, registry, grads, lr):
            self.grads = {k: np.array(v, copy=True) for k, v in grads.items()}

    rec = Recorder()
    rng = np.random.default_rng(cfg.seed)
    work = model.clone()
    outer_step(work, tasks, cfg, rec, lr=cfg.beta, rng=rng)

    expected = {}
    rng2 = np.random.default_rng(cfg.seed)
    for task in tasks:
        adapted = inner_adapt(model, task, cfg, rng2).adapted
        qbatch = D.sample_batch(task.query, cfg.query_batch_size, rng2)
        loss, leaves = adapted.batch_loss(qbatch, SHARED_HEAD)
        grads = ad.grads_for(loss, leaves)
        for pid in (model.registry.ids(Partition.PRETRAINED)
                    + model.registry.ids(Partition.LIGHTWEIGHT)):
            expected[pid] = expected.get(pid, 0.0) + grads[pid]
    ok_two_pass = (set(rec.grads) == set(expected) and
                   all(rec.grads[k].tobytes() == np.asarray(expected[k]).tobytes()
                       for k in expected))

    # (b) S=0 priming is bit-equivalent to plain multi-task AdamW training
    cfg0 = PrimingConfig(inner_steps=0, outer_steps=50, seed=4)
    primed = prime(model, tasks, cfg0)

    plain = model.clone()
    rng3 = np.random.default_rng(cfg0.seed)
    plain.add_head(SHARED_HEAD, rng3) if SHARED_HEAD not in plain.head_names() else None
    opt = AdamW()
    for step in range(cfg0.outer_steps):
        picks = rng3.choice(len(tasks), size=2, replace=False)
        grads: dict = {}
        for i in picks:
            qbatch = D.sample_batch(tasks[i].query, cfg0.query_batch_size, rng3)
            loss, leaves = plain.batch_loss(qbatch, SHARED_HEAD)
            for pid, g in ad.grads_for(loss, leaves).items():
                if plain.registry[pid].partition is not Partition.HEAD:
                    grads[pid] = grads.get(pid, 0.0) + g
        opt.step(plain.registry, grads, cfg0.lr_at(step))
    ok_s0 = registry_bytes(primed.registry) == registry_bytes(plain.registry)
    verdict(3, "meta-gradient equals two-pass oracle; S=0 equals multitask AdamW",
            ok_two_pass and ok_s0)


# --- 4: parameter accounting ---------------------------------------------

def test_criterion_4_parameter_accounting():
    mbert_like = ModelConfig(vocab_size=119547, d_model=768, n_layers=12,
                             n_heads=12, d_ff=3072, max_seq_len=512,
                             n_labels=7, adapter_bottleneck=64)
    head = count_trainable_fraction(mbert_like, (Partition.HEAD,))
    at = count_trainable_fraction(mbert_like, (Partition.LIGHTWEIGHT, Partition.HEAD))
    ht_pct = f"{100 * float(head):.0e}"      # one significant figure
    verdict(4, "trainable fractions at mBERT-like dims",
            ht_pct == "3e-03" and float(at) < 0.004,
            f"head-tuning {ht_pct}%, adapter-tuning {100 * float(at):.3f}%")


# --- 5: F1 oracle equivalence --------------------------------------------

def test_criterion_5_f1_oracle():
    rng = np.random.default_rng(42)
    tp = n_gold = n_pred = 0
    gold_corpus, pred_corpus = [], []
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 14))
        gold, pred = random_bio(rng, n), random_bio(rng, n)
        gs, ps = brute_force_spans(gold), brute_force_spans(pred)
        exact = exact and D.bio_spans(gold) == gs and D.bio_spans(pred) == ps
        gold_corpus.append(gold)
        pred_corpus.append(pred)
        tp += len(gs & ps)
        n_gold += len(gs)
        n_pred += len(ps)
    rep = micro_f1(gold_corpus, pred_corpus)
    p = 100.0 * tp / n_pred if n_pred else 0.0
    r = 100.0 * tp / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    agg_ok = (rep.precision, rep.recall, rep.f1) == (p, r, f1)
    hand = micro_f1([["B-PER", "O", "O", "B-LOC"]], [["B-PER", "O", "O", "O"]])
    hand_ok = abs(hand.f1 - 66.67) <= 0.01 and hand.precision == 100.0 and hand.recall == 50.0
    verdict(5, "micro F1 matches brute-force span oracle",
            exact and agg_ok and hand_ok,
            f"1000 random pairs, hand case F1={hand.f1:.2f}")


# --- 6 & 7: qualitative replication --------------------------------------

@pytest.fixture(scope="module")
def grid():
    """Shared desk-scale experiment: cached primed models + F1 per run."""
    exp = build_experiment(json.loads(json.dumps(DEFAULT_CONFIG)))
    caches = {seed: {} for seed in DEFAULT_CONFIG["seeds"]}
    scores: dict = {}

    def f1(setting, lang, seed):
        key = (setting, lang, seed)
        if key not in scores:
            rep = run_setting(exp, FineTuneSetting(setting), lang, seed, caches[seed])
            scores[key] = rep.f1
        return scores[key]

    return exp, f1


def test_criterion_6_priming_helps_pe_finetuning(grid):
    exp, f1 = grid
    seeds = DEFAULT_CONFIG["seeds"]
    t0 = time.time()
    langs = list(exp.targets)
    lines, wins = [], 0
    for lang in langs:
        at = float(np.mean([f1("adapter_tuning", lang, s) for s in seeds]))
        mp = float(np.mean([f1("meta_prime_at", lang, s) for s in seeds]))
        ft = float(np.mean([f1("ft_prime_at", lang, s) for s in seeds]))
        ok = mp > at and mp >= ft
        wins += ok
        lines.append(f"{lang}: AT={at:.2f} MP={mp:.2f} FT-prime={ft:.2f}"
                     f" {'ok' if ok else 'MISS'}")
    elapsed = time.time() - t0
    verdict(6, "meta-priming beats AT baseline and ft-priming (seed-mean)",
            wins >= 2 and elapsed < 1800,
            "; ".join(lines) + f"; {elapsed / 60:.1f} min")


def test_criterion_7_matrix_diagonal(grid):
    exp, f1 = grid
    seeds = DEFAULT_CONFIG["seeds"]
    langs = list(exp.targets)
    rows = {
        "at": ("meta_prime_at", "maml_loop_prime_at"),
        "full_ft": ("maml_loop_prime_fullft", "meta_prime_fullft"),
    }
    lines, all_ok = [], True
    for row, (diag, off) in rows.items():
        wins = 0
        for s in seeds:
            d = float(np.mean([f1(diag, lang, s) for lang in langs]))
            o = float(np.mean([f1(off, lang, s) for lang in langs]))
            wins += d >= o
        all_ok = all_ok and wins >= 2
        lines.append(f"row {row}: diagonal wins {wins}/{len(seeds)} seeds")
    verdict(7, "2x2 matrix diagonal dominates its row per seed",
            all_ok, "; ".join(lines))


# --- 8: determinism -------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    from peprime.cli import main

    cfg = {
        "model": {"d_model": 8, "n_heads": 2, "d_ff": 12, "adapter_bottleneck": 4},
        "priming": {"outer_steps": 3},
        "pretrain": {"steps": 2},
        "finetune": {"steps": 4, "eval_every": 2},
        "data": {"synthetic": {"n_sentences_source": 80, "n_sentences_target": 60},
                 "split": {"support_size": 24, "query_size": 24, "train_size": 16,
                           "val_size": 10, "test_size": 20}},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    artifacts = ("primed.ckpt", "prime_log.jsonl", "finetuned.ckpt", "report.jsonl",
                 "finetune_log.jsonl")
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["prime", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["finetune", "--config", str(cfg_path), "--out", str(out),
                     "--setting", "meta_prime_at", "--language", "tgtX",
                     "--seed", "0"]) == 0
        outs.append(out)
    same = all((outs[0] / a).read_bytes() == (outs[1] / a).read_bytes()
               for a in artifacts)
    verdict(8, "identical config+seed give byte-identical artifacts",
            same, ", ".join(artifacts))
