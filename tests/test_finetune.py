import numpy as np
import pytest

from peprime import autodiff as ad
from peprime import data as D
from peprime.autodiff import Partition
from peprime.finetune import (
    TARGET_HEAD,
    FineTuneHyperparams,
    FineTuneSetting,
    adapter_present,
    evaluate_setting,
    extract_spans,
    finetune,
    micro_f1,
    predict_corpus,
    trainable_partitions,
)
from peprime.model import PartitionedModel, ModelConfig, count_trainable_fraction
from peprime.priming import AdamW


def brute_force_spans(labels):
    """Independent oracle: test every (type, start, end) candidate directly."""
    n = len(labels)
    spans = set()
    for etype in D.ENTITY_TYPES:
        for start in range(n):
            for end in range(start + 1, n + 1):
                inside = (labels[start] == f"B-{etype}"
                          and all(labels[i] == f"I-{etype}" for i in range(start + 1, end)))
                right_maximal = end == n or labels[end] != f"I-{etype}"
                if inside and right_maximal:
                    spans.add((etype, start, end))
    return spans


def random_bio(rng, n):
    labels, prev = [], "O"
    for _ in range(n):
        choices = ["O"] + [f"B-{t}" for t in D.ENTITY_TYPES]
        if prev != "O":
            choices.append("I-" + prev[2:])
        lab = choices[rng.integers(len(choices))]
        labels.append(lab)
        prev = lab
    return labels


class TestSpans:
    def test_all_outside(self):
        assert extract_spans(["O", "O", "O"]) == set()

    def test_hand_enumerated(self):
        assert extract_spans(["B-PER", "I-PER", "O", "B-LOC"]) == {
            ("PER", 0, 2), ("LOC", 3, 4)}

    def test_adjacent_begins(self):
        assert extract_spans(["B-PER", "B-PER"]) == {("PER", 0, 1), ("PER", 1, 2)}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            labels = random_bio(rng, int(rng.integers(1, 15)))
            assert extract_spans(labels) == brute_force_spans(labels), labels


class TestMicroF1:
    def test_perfect_predictions(self):
        gold = [["B-PER", "I-PER", "O"], ["O", "B-LOC"]]
        rep = micro_f1(gold, [list(s) for s in gold])
        assert rep.f1 == 100.0 and rep.precision == 100.0 and rep.recall == 100.0

    def test_hand_computed_half_recall(self):
        gold = [["B-PER", "O", "O", "B-LOC"]]
        pred = [["B-PER", "O", "O", "O"]]
        rep = micro_f1(gold, pred)
        assert rep.precision == pytest.approx(100.0)
        assert rep.recall == pytest.approx(50.0)
        assert rep.f1 == pytest.approx(66.67, abs=0.01)

    def test_no_predictions_no_crash(self):
        rep = micro_f1([["B-PER"]], [["O"]])
        assert rep.f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ad.ContractError, match="length mismatch"):
            micro_f1([["O", "O"]], [["O"]])

    def test_corpus_count_mismatch_rejected(self):
        with pytest.raises(ad.ContractError, match="sequences"):
            micro_f1([["O"]], [])

    def test_sequence_permutation_invariance(self):
        rng = np.random.default_rng(1)
        gold = [random_bio(rng, 8) for _ in range(30)]
        pred = [random_bio(rng, 8) for _ in range(30)]
        rep1 = micro_f1(gold, pred)
        order = rng.permutation(30)
        rep2 = micro_f1([gold[i] for i in order], [pred[i] for i in order])
        assert (rep1.precision, rep1.recall, rep1.f1) == (rep2.precision, rep2.recall, rep2.f1)

    def test_matches_brute_force_oracle_on_random_pairs(self):
        rng = np.random.default_rng(2)
        tp = n_gold = n_pred = 0
        gold_corpus, pred_corpus = [], []
        for _ in range(200):
            n = int(rng.integers(1, 12))
            gold, pred = random_bio(rng, n), random_bio(rng, n)
            gold_corpus.append(gold)
            pred_corpus.append(pred)
            gs, ps = brute_force_spans(gold), brute_force_spans(pred)
            tp += len(gs & ps)
            n_gold += len(gs)
            n_pred += len(ps)
        rep = micro_f1(gold_corpus, pred_corpus)
        p = 100.0 * tp / n_pred if n_pred else 0.0
        r = 100.0 * tp / n_gold if n_gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        assert (rep.precision, rep.recall, rep.f1) == (p, r, f1)


class TestSettings:
    def test_partition_mapping(self):
        assert trainable_partitions(FineTuneSetting.FULL_FT) == (
            Partition.PRETRAINED, Partition.HEAD)
        assert trainable_partitions(FineTuneSetting.HEAD_TUNING) == (Partition.HEAD,)
        for s in (FineTuneSetting.ADAPTER_TUNING, FineTuneSetting.META_PRIME_AT,
                  FineTuneSetting.FT_PRIME_AT, FineTuneSetting.MAML_LOOP_PRIME_AT,
                  FineTuneSetting.ONE_STEP_PRIME_AT):
            assert trainable_partitions(s) == (Partition.LIGHTWEIGHT, Partition.HEAD)
        for s in (FineTuneSetting.META_PRIME_FULLFT, FineTuneSetting.MAML_LOOP_PRIME_FULLFT):
            assert Partition.LIGHTWEIGHT in trainable_partitions(s)

    def test_adapter_absent_only_in_plain_full_ft(self):
        for s in FineTuneSetting:
            expected = s not in (FineTuneSetting.FULL_FT, FineTuneSetting.NOPRIME_FULLFT)
            assert adapter_present(s) == expected

    def test_lr_selection(self):
        hyper = FineTuneHyperparams(lr_full=1e-4, lr_pe=1e-2)
        assert hyper.lr_for(FineTuneSetting.FULL_FT) == 1e-4
        assert hyper.lr_for(FineTuneSetting.ADAPTER_TUNING) == 1e-2
        assert hyper.lr_for(FineTuneSetting.HEAD_TUNING) == 1e-2


def tiny_setup():
    spec = D.SyntheticLanguageSpec("t", seed=9)
    corpus = D.generate_language(spec, 80)
    vocab = D.Vocab.build([corpus])
    split = D.SplitSpec(train_size=40, val_size=20, test_size=20)
    train, val, test = D.split_target(corpus, split, vocab)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2,
                      d_ff=12, max_seq_len=32, adapter_bottleneck=4)
    return cfg, vocab, train, val, test


def reference_finetune(init, setting, train, val, vocab, hyper, seed):
    """The slow path: ``finetune``'s loop on an unfrozen clone, every gradient computed."""
    rng = np.random.default_rng(seed)
    model = init.clone()
    model.add_head(TARGET_HEAD, rng)
    ids = [pid for part in trainable_partitions(setting) for pid in model.registry.ids(part)]
    optimizer = AdamW(ids)

    def evaluate():
        return micro_f1([s.labels for s in val], predict_corpus(model, val, vocab)).f1

    best_f1 = evaluate()
    best = model.registry.snapshot()
    trace = [(0, best_f1)]
    order, pos = rng.permutation(len(train)), 0
    for step in range(1, hyper.steps + 1):
        if pos + hyper.batch_size > len(order):
            order, pos = rng.permutation(len(train)), 0
        batch = [train[i] for i in order[pos:pos + hyper.batch_size]]
        pos += hyper.batch_size
        loss, leaves = model.batch_loss(batch, TARGET_HEAD)
        optimizer.step(model.registry, ad.grads_for(loss, leaves), hyper.lr_for(setting))
        if step % hyper.eval_every == 0 or step == hyper.steps:
            f1 = evaluate()
            trace.append((step, f1))
            if f1 > best_f1:
                best_f1, best = f1, model.registry.snapshot()
    model.registry.restore(best)
    return model, best_f1, trace


class TestFinetune:
    @pytest.mark.parametrize("setting", [FineTuneSetting.ADAPTER_TUNING,
                                         FineTuneSetting.HEAD_TUNING])
    def test_matches_unfrozen_reference_loop(self, setting):
        cfg, vocab, train, val, _ = tiny_setup()
        init = PartitionedModel(cfg, seed=0)
        hyper = FineTuneHyperparams(steps=12, batch_size=4, eval_every=3, lr_pe=1e-2)
        result = finetune(init, setting, train, val, vocab, hyper, seed=3)
        model, best_f1, trace = reference_finetune(init, setting, train, val, vocab, hyper, 3)
        assert (result.best_f1, result.trace) == (best_f1, trace)
        assert [p.id for p in result.model.registry] == [p.id for p in model.registry]
        for p in model.registry:
            assert result.model.registry[p.id].value.data.tobytes() == p.value.data.tobytes(), p.id
        assert result.model.frozen == ()
        assert all(p.value.data.flags.writeable for p in result.model.registry)


    @pytest.mark.parametrize("setting,frozen", [
        (FineTuneSetting.HEAD_TUNING, (Partition.PRETRAINED, Partition.LIGHTWEIGHT)),
        (FineTuneSetting.ADAPTER_TUNING, (Partition.PRETRAINED,)),
    ])
    def test_frozen_partitions_bit_identical(self, setting, frozen):
        cfg, vocab, train, val, _ = tiny_setup()
        init = PartitionedModel(cfg, seed=0)
        before = {pid: init.registry[pid].value.data.copy()
                  for part in frozen for pid in init.registry.ids(part)}
        hyper = FineTuneHyperparams(steps=10, batch_size=4, eval_every=5)
        result = finetune(init, setting, train, val, vocab, hyper, seed=0)
        for pid, arr in before.items():
            assert result.model.registry[pid].value.data.tobytes() == arr.tobytes(), pid

    def test_trainable_partitions_move(self):
        cfg, vocab, train, val, _ = tiny_setup()
        init = PartitionedModel(cfg, seed=0)
        hyper = FineTuneHyperparams(steps=10, batch_size=4, eval_every=100)
        result = finetune(init, FineTuneSetting.ADAPTER_TUNING, train, val, vocab, hyper)
        moved = [pid for pid in init.registry.ids(Partition.LIGHTWEIGHT)
                 if not np.array_equal(result.model.registry[pid].value.data,
                                       init.registry[pid].value.data)]
        assert moved

    def test_zero_steps_returns_init(self):
        cfg, vocab, train, val, _ = tiny_setup()
        init = PartitionedModel(cfg, seed=0)
        hyper = FineTuneHyperparams(steps=0, batch_size=4)
        result = finetune(init, FineTuneSetting.ADAPTER_TUNING, train, val, vocab, hyper)
        for p in init.registry:
            got = result.model.registry[p.id].value.data
            assert got.tobytes() == p.value.data.tobytes()

    def test_existing_target_head_rejected(self):
        cfg, vocab, train, val, _ = tiny_setup()
        init = PartitionedModel(cfg, seed=0)
        init.add_head("target", np.random.default_rng(0))
        with pytest.raises(ad.ContractError, match="target head"):
            finetune(init, FineTuneSetting.ADAPTER_TUNING, train, val, vocab,
                     FineTuneHyperparams(steps=1))

    def test_report_fraction_matches_counting(self):
        cfg, vocab, train, val, test = tiny_setup()
        init = PartitionedModel(cfg, seed=0)
        hyper = FineTuneHyperparams(steps=2, batch_size=4, eval_every=1)
        result = finetune(init, FineTuneSetting.HEAD_TUNING, train, val, vocab, hyper)
        rep = evaluate_setting(result.model, FineTuneSetting.HEAD_TUNING, test,
                               vocab, "t", 0)
        expected = count_trainable_fraction(cfg, (Partition.HEAD,), adapter_present=True)
        assert rep.trainable_fraction == float(expected)
        assert rep.setting == "head_tuning"
