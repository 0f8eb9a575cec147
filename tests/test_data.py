import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peprime import data as D


FIXTURE = """\
John\tB-PER
Smith\tI-PER
visited\tO

the\tO
Alps\tB-LOC
"""


class TestBio:
    def test_valid_sequences(self):
        assert D.is_valid_bio(["O", "B-PER", "I-PER", "O", "B-LOC"])
        assert not D.is_valid_bio(["O", "I-PER"])
        assert not D.is_valid_bio(["B-PER", "I-LOC"])
        assert not D.is_valid_bio(["B-XYZ"])

    def test_repair_relabels_orphan_inside(self):
        fixed, n = D.repair_bio(["I-PER", "I-PER", "O", "B-LOC", "I-PER"])
        assert fixed == ["B-PER", "I-PER", "O", "B-LOC", "B-PER"]
        assert n == 2
        assert D.is_valid_bio(fixed)

    @given(st.lists(st.sampled_from(D.LABELS), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_repair_always_yields_valid_bio(self, labels):
        fixed, _ = D.repair_bio(labels)
        assert D.is_valid_bio(fixed)


class TestConll:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.conll"
        p.write_text("")
        assert len(D.load_conll(p)) == 0

    def test_two_sentence_fixture(self, tmp_path):
        p = tmp_path / "fix.conll"
        p.write_text(FIXTURE)
        corpus = D.load_conll(p)
        assert len(corpus) == 2
        assert corpus.span_type_counts() == {"PER": 1, "ORG": 0, "LOC": 1}
        assert corpus.repaired_labels == 0

    def test_sentence_initial_inside_is_repaired(self, tmp_path):
        p = tmp_path / "bad.conll"
        p.write_text("Smith\tI-PER\n\n")
        corpus = D.load_conll(p)
        assert corpus.sequences[0].labels == ["B-PER"]
        assert corpus.repaired_labels == 1

    def test_unknown_tag_reports_line(self, tmp_path):
        p = tmp_path / "bad.conll"
        p.write_text("a\tO\nb\tB-MISC\n")
        with pytest.raises(D.ConllParseError, match=r":2: unknown tag 'B-MISC'"):
            D.load_conll(p)

    def test_malformed_line_reports_line(self, tmp_path):
        p = tmp_path / "bad.conll"
        p.write_text("lonely\n")
        with pytest.raises(D.ConllParseError, match=":1:"):
            D.load_conll(p)

    def test_truncation_counted_and_valid(self, tmp_path):
        p = tmp_path / "long.conll"
        lines = [f"w{i}\t{'B-PER' if i == 4 else 'O'}\n" for i in range(10)]
        p.write_text("".join(lines) + "\n")
        corpus = D.load_conll(p, max_seq_len=5)
        assert corpus.truncated_sequences == 1
        seq = corpus.sequences[0]
        assert len(seq.tokens) == 5
        assert D.is_valid_bio(seq.labels)

    def test_synthetic_truncation_counted_and_valid(self):
        spec = D.SyntheticLanguageSpec("long", seed=5, mean_sentence_length=22.0)
        corpus = D.generate_language(spec, 200)
        lengths = [len(s.tokens) for s in corpus]
        assert D.truncate_corpus(corpus, 32) is corpus
        assert corpus.truncated_sequences == sum(n > 32 for n in lengths) > 0
        assert [len(s.tokens) for s in corpus] == [min(n, 32) for n in lengths]
        assert all(D.is_valid_bio(s.labels) for s in corpus)

    def test_truncation_leaves_fitting_corpus_untouched(self):
        corpus = D.generate_language(D.SyntheticLanguageSpec("short", seed=5), 50)
        before = list(corpus.sequences)
        D.truncate_corpus(corpus, 32)
        assert corpus.truncated_sequences == 0
        assert all(a is b for a, b in zip(before, corpus.sequences))

    def test_round_trip(self, tmp_path):
        spec = D.SyntheticLanguageSpec("rt", seed=3)
        corpus = D.generate_language(spec, 20)
        p = tmp_path / "rt.conll"
        D.write_conll(corpus, p)
        loaded = D.load_conll(p)
        assert [s.tokens for s in loaded] == [s.tokens for s in corpus]
        assert [s.labels for s in loaded] == [s.labels for s in corpus]


class TestSyntheticLanguages:
    def test_same_spec_is_identical(self):
        spec = D.SyntheticLanguageSpec("a", seed=11)
        c1 = D.generate_language(spec, 50)
        c2 = D.generate_language(spec, 50)
        assert [s.tokens for s in c1] == [s.tokens for s in c2]
        assert [s.labels for s in c1] == [s.labels for s in c2]

    def test_entity_rate_zero_is_all_outside(self):
        spec = D.SyntheticLanguageSpec("a", seed=1, entity_rate=0.0)
        corpus = D.generate_language(spec, 30)
        assert all(lab == "O" for s in corpus for lab in s.labels)

    def test_generated_bio_is_valid(self):
        spec = D.SyntheticLanguageSpec("a", seed=2)
        corpus = D.generate_language(spec, 100)
        assert all(D.is_valid_bio(s.labels) for s in corpus)

    def test_disjoint_surface_vocabularies(self):
        # fully language-private renaming -> zero shared surface tokens
        a = D.generate_language(
            D.SyntheticLanguageSpec("a", seed=1, share_function_words=False,
                                    entity_sharing="private"), 100)
        b = D.generate_language(
            D.SyntheticLanguageSpec("b", seed=2, share_function_words=False,
                                    entity_sharing="private"), 100)
        assert a.vocabulary() & b.vocabulary() == set()

    def test_pooled_entities_permute_types_across_languages(self):
        # surface tokens overlap, but which type a token belongs to differs
        def type_of_token(corpus):
            mapping = {}
            for seq in corpus:
                for tok, lab in zip(seq.tokens, seq.labels):
                    if lab != "O":
                        mapping[tok] = lab[2:]
            return mapping
        a = type_of_token(D.generate_language(D.SyntheticLanguageSpec("a", seed=1), 200))
        b = type_of_token(D.generate_language(D.SyntheticLanguageSpec("b", seed=2), 200))
        shared = set(a) & set(b)
        assert shared
        assert any(a[tok] != b[tok] for tok in shared)

    def test_private_entities_never_leak_across_languages(self):
        a = D.generate_language(
            D.SyntheticLanguageSpec("a", seed=1, entity_sharing="private"), 100)
        b = D.generate_language(
            D.SyntheticLanguageSpec("b", seed=2, entity_sharing="private"), 100)
        shared = a.vocabulary() & b.vocabulary()
        assert shared  # function words stay shared
        assert all(tok.startswith("fw") for tok in shared)

    def test_entities_follow_their_trigger(self):
        spec = D.SyntheticLanguageSpec("a", seed=4)
        corpus = D.generate_language(spec, 100)
        fw_perm_trigger_ids = None
        for seq in corpus:
            for i, lab in enumerate(seq.labels):
                if lab.startswith("B-"):
                    assert i > 0
                    assert seq.tokens[i - 1].startswith("fw")


class TestVocab:
    def test_reserved_ids(self):
        v = D.Vocab.build([])
        assert v.encode_tokens([D.UNK_TOKEN])[0] == 0
        assert v.encode_tokens([D.PAD_TOKEN])[0] == 1

    def test_unknown_maps_to_unk(self):
        v = D.Vocab.build([])
        assert v.encode_tokens(["never-seen"]).tolist() == [0]

    def test_build_is_deterministic_in_corpus_order(self):
        spec = D.SyntheticLanguageSpec("a", seed=5)
        corpus = D.generate_language(spec, 20)
        v1 = D.Vocab.build([corpus])
        v2 = D.Vocab.build([corpus])
        toks = sorted(corpus.vocabulary())
        np.testing.assert_array_equal(v1.encode_tokens(toks), v2.encode_tokens(toks))


class TestMetaDataset:
    def build(self, n=600):
        corpora = {
            lang: D.generate_language(D.SyntheticLanguageSpec(lang, seed=i), n)
            for i, lang in enumerate(("src_a", "src_b"))
        }
        vocab = D.Vocab.build(corpora.values())
        return corpora, vocab

    def test_one_task_per_language(self):
        corpora, vocab = self.build()
        tasks = D.build_meta_dataset(corpora, D.SplitSpec(), vocab)
        assert [t.task_id for t in tasks] == ["src_a", "src_b"]

    def test_support_query_disjoint(self):
        corpora, vocab = self.build()
        split = D.SplitSpec(support_size=100, query_size=100)
        for task in D.build_meta_dataset(corpora, split, vocab):
            assert len(task.support) == 100 and len(task.query) == 100
            # disjoint at the sequence level: no encoded pair is shared
            support_ids = {id(pair[0]) for pair in task.support}
            query_ids = {id(pair[0]) for pair in task.query}
            assert not support_ids & query_ids

    def test_insufficient_data_sized_error(self):
        corpora, vocab = self.build(n=50)
        with pytest.raises(ValueError, match="need"):
            D.build_meta_dataset(corpora, D.SplitSpec(support_size=40, query_size=40), vocab)

    def test_support_batches_cycle_deterministically(self):
        corpora, vocab = self.build()
        task = D.build_meta_dataset(corpora, D.SplitSpec(), vocab)[0]
        def draw(seed):
            rng = np.random.default_rng(seed)
            gen = task.support_batches(8, rng)
            return [tuple(map(tuple, (t.tolist() for t, _ in next(gen)))) for _ in range(40)]
        assert draw(3) == draw(3)
        assert draw(3) != draw(4)
