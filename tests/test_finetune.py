import numpy as np
import pytest

from peprime import autodiff as ad
from peprime import data as D
from peprime.autodiff import Partition
from peprime.finetune import (
    TARGET_HEAD,
    FineTuneHyperparams,
    FineTuneSetting,
    evaluate_setting,
    finetune,
    micro_f1,
    predict_corpus,
    priming_recipe,
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
        assert D.bio_spans(["O", "O", "O"]) == set()

    def test_hand_enumerated(self):
        assert D.bio_spans(["B-PER", "I-PER", "O", "B-LOC"]) == {
            ("PER", 0, 2), ("LOC", 3, 4)}

    def test_adjacent_begins(self):
        assert D.bio_spans(["B-PER", "B-PER"]) == {("PER", 0, 1), ("PER", 1, 2)}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            labels = random_bio(rng, int(rng.integers(1, 15)))
            assert D.bio_spans(labels) == brute_force_spans(labels), labels


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
        assert FineTuneSetting.FULL_FT.trains == (Partition.PRETRAINED, Partition.HEAD)
        assert FineTuneSetting.HEAD_TUNING.trains == (Partition.HEAD,)
        for s in (FineTuneSetting.ADAPTER_TUNING, FineTuneSetting.META_PRIME_AT,
                  FineTuneSetting.FT_PRIME_AT, FineTuneSetting.MAML_LOOP_PRIME_AT,
                  FineTuneSetting.ONE_STEP_PRIME_AT):
            assert s.trains == (Partition.LIGHTWEIGHT, Partition.HEAD)
        for s in (FineTuneSetting.META_PRIME_FULLFT, FineTuneSetting.MAML_LOOP_PRIME_FULLFT):
            assert Partition.LIGHTWEIGHT in s.trains

    def test_adapter_absent_only_in_plain_full_ft(self):
        for s in FineTuneSetting:
            assert s.has_adapter == (s is not FineTuneSetting.FULL_FT)

    def test_lr_selection(self):
        hyper = FineTuneHyperparams(lr_full=1e-4, lr_pe=1e-2)
        assert FineTuneSetting.FULL_FT.lr(hyper) == 1e-4
        assert FineTuneSetting.ADAPTER_TUNING.lr(hyper) == 1e-2
        assert FineTuneSetting.HEAD_TUNING.lr(hyper) == 1e-2
        assert FineTuneSetting.META_PRIME_FULLFT.lr(hyper) == 1e-4

    def test_priming_recipes(self):
        full_loop = ("meta", {"inner_mode": "full_maml"})
        assert {s.value: priming_recipe(s) for s in FineTuneSetting} == {
            "full_ft": None, "head_tuning": None, "adapter_tuning": None,
            "meta_prime_at": ("meta", {}), "ft_prime_at": ("ft", {}),
            "maml_loop_prime_at": full_loop, "one_step_prime_at": ("meta", {"inner_steps": 1}),
            "meta_prime_fullft": ("meta", {}), "maml_loop_prime_fullft": full_loop}

    def test_lookup_by_name(self):
        for s in FineTuneSetting:
            assert FineTuneSetting(s.value) is s


def tiny_setup():
    spec = D.SyntheticLanguageSpec(seed=9)
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
    ids = {pid for part in setting.trains for pid in model.registry.ids(part)}
    optimizer = AdamW()

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
        grads = {pid: g for pid, g in ad.grads_for(loss, leaves).items() if pid in ids}
        optimizer.step(model.registry, grads, setting.lr(hyper))
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
        # memoized states come from batches of other widths than a fresh
        # encode, so they agree to rounding, not bit for bit
        for p in model.registry:
            np.testing.assert_allclose(result.model.registry[p.id].value.data, p.value.data,
                                       rtol=1e-10, atol=1e-13, err_msg=p.id)
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

    @pytest.mark.parametrize("setting,has_adapter", [
        (FineTuneSetting.FULL_FT, True), (FineTuneSetting.ADAPTER_TUNING, False),
    ])
    def test_model_and_setting_must_agree_on_the_adapter(self, setting, has_adapter):
        cfg, vocab, train, val, test = tiny_setup()
        model = PartitionedModel(cfg, seed=0, has_adapter=has_adapter)
        hyper = FineTuneHyperparams(steps=1, batch_size=4)
        match = f"{setting.value!r} has_adapter={not has_adapter} but the model has_adapter"
        with pytest.raises(ad.ContractError, match=match):
            finetune(model, setting, train, val, vocab, hyper)
        with pytest.raises(ad.ContractError, match=match):
            evaluate_setting(model, setting, test, vocab, "t", 0)

    def test_zero_steps_returns_init(self):
        cfg, vocab, train, val, _ = tiny_setup()
        init = PartitionedModel(cfg, seed=0)
        hyper = FineTuneHyperparams(steps=0, batch_size=4)
        result = finetune(init, FineTuneSetting.ADAPTER_TUNING, train, val, vocab, hyper)
        for p in init.registry:
            got = result.model.registry[p.id].value.data
            assert got.tobytes() == p.value.data.tobytes()

    def test_predict_corpus_matches_per_sequence_predict(self):
        cfg, vocab, train, val, test = tiny_setup()
        model = PartitionedModel(cfg, seed=0)
        model.add_head(TARGET_HEAD, np.random.default_rng(0))
        corpus = D.Corpus(list(val) + list(test) + list(val))   # more than one chunk of 32
        assert len(corpus) > 32
        expected = [[D.LABELS[i] for i in model.predict([vocab.encode_tokens(seq.tokens)],
                                                         TARGET_HEAD)[0]]
                    for seq in corpus]
        assert predict_corpus(model, corpus, vocab) == expected

    def test_predict_corpus_refuses_a_sequence_longer_than_max_seq_len(self):
        cfg, vocab, _, val, _ = tiny_setup()
        model = PartitionedModel(cfg, seed=0)
        model.add_head(TARGET_HEAD, np.random.default_rng(0))
        corpus = D.Corpus(list(val))
        corpus.sequences[3] = D.TaggedSequence(["w"] * 40, ["O"] * 40)
        with pytest.raises(ad.ContractError, match="sequence length 40 exceeds max_seq_len 32"):
            predict_corpus(model, corpus, vocab)

    def test_existing_target_head_rejected(self):
        cfg, vocab, train, val, _ = tiny_setup()
        init = PartitionedModel(cfg, seed=0)
        init.add_head("target", np.random.default_rng(0))
        with pytest.raises(ad.ContractError, match="target head"):
            finetune(init, FineTuneSetting.ADAPTER_TUNING, train, val, vocab,
                     FineTuneHyperparams(steps=1))

    def test_empty_train_set_rejected(self):
        cfg, vocab, _, val, _ = tiny_setup()
        with pytest.raises(ValueError, match="empty train set"):
            finetune(PartitionedModel(cfg, seed=0), FineTuneSetting.HEAD_TUNING, [], val, vocab,
                     FineTuneHyperparams(steps=1))

    def test_report_fraction_matches_counting(self):
        cfg, vocab, train, val, test = tiny_setup()
        init = PartitionedModel(cfg, seed=0)
        hyper = FineTuneHyperparams(steps=2, batch_size=4, eval_every=1)
        result = finetune(init, FineTuneSetting.HEAD_TUNING, train, val, vocab, hyper)
        rep = evaluate_setting(result.model, FineTuneSetting.HEAD_TUNING, test,
                               vocab, "t", 0)
        expected = count_trainable_fraction(cfg, (Partition.HEAD,), has_adapter=True)
        assert rep.trainable_fraction == float(expected)
        assert rep.setting == "head_tuning"
