import hashlib
import math

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


def is_valid_bio(labels) -> bool:
    """Every label is known and every I-X follows a B-X or an I-X."""
    prev = "O"
    for lab in labels:
        if lab not in D.LABEL_TO_ID:
            return False
        if lab.startswith("I-") and prev not in (f"B-{lab[2:]}", f"I-{lab[2:]}"):
            return False
        prev = lab
    return True


class TestBio:
    def test_valid_sequences(self):
        assert is_valid_bio(["O", "B-PER", "I-PER", "O", "B-LOC"])
        assert not is_valid_bio(["O", "I-PER"])
        assert not is_valid_bio(["B-PER", "I-LOC"])
        assert not is_valid_bio(["B-XYZ"])

    def test_repair_relabels_orphan_inside(self):
        fixed, n = D.repair_bio(["I-PER", "I-PER", "O", "B-LOC", "I-PER"])
        assert fixed == ["B-PER", "I-PER", "O", "B-LOC", "B-PER"]
        assert n == 2
        assert is_valid_bio(fixed)

    @given(st.lists(st.sampled_from(D.LABELS), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_repair_always_yields_valid_bio(self, labels):
        fixed, _ = D.repair_bio(labels)
        assert is_valid_bio(fixed)

    @given(st.lists(st.sampled_from(D.LABELS), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_prefix_of_repaired_bio_needs_no_repair(self, labels):
        # so truncating a repaired sequence keeps it valid as it is
        fixed, _ = D.repair_bio(labels)
        for k in range(len(fixed) + 1):
            assert D.repair_bio(fixed[:k]) == (fixed[:k], 0)


class TestConll:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.conll"
        p.write_text("")
        assert len(D.load_conll(p, 32)) == 0

    def test_two_sentence_fixture(self, tmp_path):
        p = tmp_path / "fix.conll"
        p.write_text(FIXTURE)
        corpus = D.load_conll(p, 32)
        assert len(corpus) == 2
        assert corpus.span_type_counts() == {"PER": 1, "ORG": 0, "LOC": 1}
        assert corpus.repaired_labels == 0

    def test_sentence_initial_inside_is_repaired(self, tmp_path):
        p = tmp_path / "bad.conll"
        p.write_text("Smith\tI-PER\n\n")
        corpus = D.load_conll(p, 32)
        assert corpus.sequences[0].labels == ["B-PER"]
        assert corpus.repaired_labels == 1

    def test_unknown_tag_reports_line(self, tmp_path):
        p = tmp_path / "bad.conll"
        p.write_text("a\tO\nb\tB-MISC\n")
        with pytest.raises(D.ConllParseError, match=r":2: unknown tag 'B-MISC'"):
            D.load_conll(p, 32)

    def test_malformed_line_reports_line(self, tmp_path):
        p = tmp_path / "bad.conll"
        p.write_text("lonely\n")
        with pytest.raises(D.ConllParseError, match=":1:"):
            D.load_conll(p, 32)

    def test_truncation_counted_and_valid(self, tmp_path):
        p = tmp_path / "long.conll"
        lines = [f"w{i}\t{'B-PER' if i == 4 else 'O'}\n" for i in range(10)]
        p.write_text("".join(lines) + "\n")
        corpus = D.load_conll(p, max_seq_len=5)
        assert corpus.truncated_sequences == 1
        seq = corpus.sequences[0]
        assert len(seq.tokens) == 5
        assert is_valid_bio(seq.labels)

    def test_synthetic_truncation_counted_and_valid(self):
        spec = D.SyntheticLanguageSpec(seed=5, mean_sentence_length=22.0)
        corpus = D.generate_language(spec, 200)
        lengths = [len(s.tokens) for s in corpus]
        labels = [s.labels for s in corpus]
        assert D.truncate_corpus(corpus, 32) is corpus
        assert [s.labels for s in corpus] == [lab[:32] for lab in labels]
        assert corpus.truncated_sequences == sum(n > 32 for n in lengths) > 0
        assert [len(s.tokens) for s in corpus] == [min(n, 32) for n in lengths]
        assert all(is_valid_bio(s.labels) for s in corpus)

    def test_truncation_leaves_fitting_corpus_untouched(self):
        corpus = D.generate_language(D.SyntheticLanguageSpec(seed=5), 50)
        before = list(corpus.sequences)
        D.truncate_corpus(corpus, 32)
        assert corpus.truncated_sequences == 0
        assert all(a is b for a, b in zip(before, corpus.sequences))

    def test_round_trip(self, tmp_path):
        spec = D.SyntheticLanguageSpec(seed=3)
        corpus = D.generate_language(spec, 20)
        p = tmp_path / "rt.conll"
        D.write_conll(corpus, p)
        loaded = D.load_conll(p, 32)
        assert [s.tokens for s in loaded] == [s.tokens for s in corpus]
        assert [s.labels for s in loaded] == [s.labels for s in corpus]


class TestSyntheticLanguages:
    def test_same_spec_is_identical(self):
        spec = D.SyntheticLanguageSpec(seed=11)
        c1 = D.generate_language(spec, 50)
        c2 = D.generate_language(spec, 50)
        assert [s.tokens for s in c1] == [s.tokens for s in c2]
        assert [s.labels for s in c1] == [s.labels for s in c2]

    def test_entity_rate_zero_is_all_outside(self):
        spec = D.SyntheticLanguageSpec(seed=1, entity_rate=0.0)
        corpus = D.generate_language(spec, 30)
        assert all(lab == "O" for s in corpus for lab in s.labels)

    def test_generated_bio_is_valid(self):
        spec = D.SyntheticLanguageSpec(seed=2)
        corpus = D.generate_language(spec, 100)
        assert all(is_valid_bio(s.labels) for s in corpus)

    @pytest.mark.parametrize("mean_length", [3.0, 24.0])
    def test_sentences_are_valid_bio_without_repair(self, mean_length):
        # spans everywhere, and sentences cut inside one
        spec = D.SyntheticLanguageSpec(seed=9, entity_rate=1.0, mean_sentence_length=mean_length)
        corpus = D.generate_language(spec, 400)
        assert all(is_valid_bio(s.labels) for s in corpus)

    def test_pooled_entities_permute_types_across_languages(self):
        # surface tokens overlap, but which type a token belongs to differs
        def type_of_token(corpus):
            mapping = {}
            for seq in corpus:
                for tok, lab in zip(seq.tokens, seq.labels):
                    if lab != "O":
                        mapping[tok] = lab[2:]
            return mapping
        a = type_of_token(D.generate_language(D.SyntheticLanguageSpec(seed=1), 200))
        b = type_of_token(D.generate_language(D.SyntheticLanguageSpec(seed=2), 200))
        shared = set(a) & set(b)
        assert shared
        assert any(a[tok] != b[tok] for tok in shared)

    def test_entities_follow_their_trigger(self):
        spec = D.SyntheticLanguageSpec(seed=4)
        corpus = D.generate_language(spec, 100)
        fw_perm_trigger_ids = None
        for seq in corpus:
            for i, lab in enumerate(seq.labels):
                if lab.startswith("B-"):
                    assert i > 0
                    assert seq.tokens[i - 1].startswith("fw")


LAMS = (0.0, 0.5, 9.0, 9.99, 10.0, 24.0, 300.0)   # both Poisson methods and the switch at 10


class TestPCG64Draws:
    @pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)], ids=["0-99", "100-199"])
    def test_matches_numpy_generator(self, seeds):
        for seed in seeds:
            plan = np.random.default_rng([seed, 1])
            ops = plan.integers(0, 4, 2000).tolist()
            small = plan.integers(1, 100, 2000).tolist()
            # here 2**32 % n is up to 2**32 / 3: up to a third of these 32-bit draws are rejected
            large = plan.integers(2**30, 2**31 + 1, 2000).tolist()
            lam = plan.integers(0, len(LAMS), 2000).tolist()
            gen, draws = np.random.default_rng(seed), D.PCG64Draws(seed)
            for i, op in enumerate(ops):
                if op == 0:
                    got, want = draws.random(), gen.random()
                elif op == 1:
                    got, want = draws.integers(small[i]), gen.integers(small[i])
                elif op == 2:
                    got, want = draws.integers(large[i]), gen.integers(large[i])
                else:
                    got, want = draws.poisson(LAMS[lam[i]]), gen.poisson(LAMS[lam[i]])
                assert got == want, (seed, i, op)

    def test_loggam_is_log_gamma(self):
        # PTRS compares against it rarely within a rounding error, so check it directly
        for x in range(1, 2000):
            assert D._loggam(float(x)) == pytest.approx(math.lgamma(x), rel=4e-15, abs=4e-15)


def _corpora_digest(family, max_seq_len):
    h = hashlib.sha256()
    for corpora in family.corpora(max_seq_len):
        for lang, corpus in corpora.items():
            h.update(f"{lang} {corpus.truncated_sequences} {corpus.repaired_labels}\n".encode())
            for seq in corpus:
                h.update((" ".join(seq.tokens) + "\t" + " ".join(seq.labels) + "\n").encode())
    return h.hexdigest()


class TestSyntheticGolden:
    """Digests recorded when the corpora were drawn through numpy's Generator."""

    def test_default_family(self):
        assert _corpora_digest(D.SyntheticFamily(), 32) == (
            "81ea89522ceff24ce09b4a35f75729eedddd50de83bee85d3442901754b0ec4d")

    def test_long_sentences_take_the_ptrs_path(self):
        assert _corpora_digest(D.SyntheticFamily(mean_sentence_length=24.0), 64) == (
            "3acb77ff8cf10cac7fbf0910426c325695bbadbeafc76cee2390ebd6bd2e1da0")


class TestVocab:
    def test_reserved_ids(self):
        v = D.Vocab.build([])
        assert v.encode_tokens([D.UNK_TOKEN])[0] == 0
        assert v.encode_tokens([D.PAD_TOKEN])[0] == 1

    def test_unknown_maps_to_unk(self):
        v = D.Vocab.build([])
        assert v.encode_tokens(["never-seen"]).tolist() == [0]

    def test_build_is_deterministic_in_corpus_order(self):
        spec = D.SyntheticLanguageSpec(seed=5)
        corpus = D.generate_language(spec, 20)
        v1 = D.Vocab.build([corpus])
        v2 = D.Vocab.build([corpus])
        toks = sorted({tok for seq in corpus for tok in seq.tokens})
        np.testing.assert_array_equal(v1.encode_tokens(toks), v2.encode_tokens(toks))


class TestMetaDataset:
    def build(self, n=600):
        corpora = {
            lang: D.generate_language(D.SyntheticLanguageSpec(seed=i), n)
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
            gen = D.minibatches(task.support, 8, rng)
            return [tuple(map(tuple, (t.tolist() for t, _ in next(gen)))) for _ in range(40)]
        assert draw(3) == draw(3)
        assert draw(3) != draw(4)
