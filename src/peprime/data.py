"""Corpora for token tagging: CoNLL ingestion and a synthetic language family.

The synthetic languages share one latent grammar. Entity mentions are
always introduced by type-specific trigger words. Every language draws its
function words, the triggers among them, from one shared inventory and its
entity words from one shared pool, each permuted per language: tokens
overlap across languages, the token-to-type mapping does not. That makes
entity detection on an unseen language learnable from context alone,
which is the structure cross-language transfer relies on here.

A synthetic corpus is a function of PCG64's raw 64-bit stream alone.
``PCG64Draws`` replays numpy ``Generator``'s ``random``, ``integers`` and
``poisson`` over that stream in Python, draw for draw: the top 53 bits for a
uniform double, Lemire's multiply-and-reject (Lemire, 2019) for a bounded
integer, and for a Poisson count the multiplication method below a mean of
10 and Hörmann's PTRS transformed rejection (Hörmann, 1993) from 10 up. So
the corpora do not depend on ``Generator``'s distribution code, which numpy
may change between releases (NEP 19); PCG64's raw stream it keeps stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import atomic_open, check_ranges

ENTITY_TYPES = ("PER", "ORG", "LOC")
LABELS = ("O", "B-PER", "I-PER", "B-ORG", "I-ORG", "B-LOC", "I-LOC")
LABEL_TO_ID = {lab: i for i, lab in enumerate(LABELS)}
UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"


class ConllParseError(ValueError):
    pass


@dataclass
class TaggedSequence:
    tokens: list
    labels: list

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise ValueError(
                f"tokens/labels length mismatch: {len(self.tokens)} vs {len(self.labels)}"
            )


@dataclass
class Corpus:
    sequences: list = field(default_factory=list)
    repaired_labels: int = 0
    truncated_sequences: int = 0

    def __len__(self):
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)

    def span_type_counts(self):
        counts = {t: 0 for t in ENTITY_TYPES}
        for seq in self.sequences:
            for etype, _, _ in bio_spans(seq.labels):
                counts[etype] += 1
        return counts


def repair_bio(labels):
    """Relabel each invalid I-X to B-X; returns (labels, repair count)."""
    out, repairs = [], 0
    prev = "O"
    for lab in labels:
        if lab.startswith("I-"):
            etype = lab[2:]
            if prev not in (f"B-{etype}", f"I-{etype}"):
                lab = f"B-{etype}"
                repairs += 1
        out.append(lab)
        prev = lab
    return out, repairs


def bio_spans(labels):
    """Maximal (type, start, end) spans, end exclusive."""
    spans = []
    start, etype = None, None
    for i, lab in enumerate(labels):
        if lab.startswith("B-") or (lab.startswith("I-") and etype != lab[2:]):
            if start is not None:
                spans.append((etype, start, i))
            start, etype = i, lab[2:]
        elif lab == "O":
            if start is not None:
                spans.append((etype, start, i))
            start, etype = None, None
    if start is not None:
        spans.append((etype, start, len(labels)))
    return set(spans)


# --- CoNLL column format --------------------------------------------------

def truncate_corpus(corpus: Corpus, max_seq_len: int) -> Corpus:
    """Cut every sequence longer than ``max_seq_len`` in place and count it.

    A prefix of valid BIO is valid BIO, so the cut labels need no repair.
    Returns ``corpus``; a corpus whose sequences all fit is left untouched.
    """
    for i, seq in enumerate(corpus.sequences):
        if len(seq.tokens) > max_seq_len:
            corpus.sequences[i] = TaggedSequence(seq.tokens[:max_seq_len], seq.labels[:max_seq_len])
            corpus.truncated_sequences += 1
    return corpus


def load_conll(path, max_seq_len: int) -> Corpus:
    """Read token<TAB>tag lines with blank-line sentence separators.

    Invalid BIO transitions are repaired (I-X -> B-X) and counted;
    unknown tags raise with the offending line number. Sequences longer
    than ``max_seq_len`` are truncated by ``truncate_corpus``.
    """
    corpus = Corpus()
    tokens, labels = [], []

    def flush():
        nonlocal tokens, labels
        if not tokens:
            return
        fixed, n = repair_bio(labels)
        corpus.repaired_labels += n
        corpus.sequences.append(TaggedSequence(tokens, fixed))
        tokens, labels = [], []

    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                flush()
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) < 2:
                raise ConllParseError(f"{path}:{lineno}: expected 'token<TAB>tag', got {line!r}")
            token, tag = parts[0], parts[-1]
            if tag not in LABEL_TO_ID:
                raise ConllParseError(f"{path}:{lineno}: unknown tag {tag!r}")
            tokens.append(token)
            labels.append(tag)
    flush()
    return truncate_corpus(corpus, max_seq_len)


def write_conll(corpus: Corpus, path):
    with atomic_open(path) as f:
        for seq in corpus:
            for tok, lab in zip(seq.tokens, seq.labels):
                f.write(f"{tok}\t{lab}\n")
            f.write("\n")


# --- synthetic language family --------------------------------------------

N_FUNCTION_WORDS = 24
N_ENTITY_WORDS = 40          # per entity type, in the proto-lexicon
TRIGGERS = {"PER": 0, "ORG": 1, "LOC": 2}   # function-word index announcing each type


@dataclass(frozen=True)
class SyntheticLanguageSpec:
    seed: int
    entity_rate: float = 0.3
    mean_sentence_length: float = 9.0

    def __post_init__(self):
        if not 0.0 <= self.entity_rate <= 1.0:
            raise ValueError(f"entity_rate must be in [0, 1] (got {self.entity_rate})")
        check_ranges(self, {}, positive=("mean_sentence_length",))


_RAW_BLOCK = 4096          # raw PCG64 outputs fetched per numpy call
_LOGGAM_COEFFS = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
                  -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
                  6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
                  -1.39243221690590e+00)


class PCG64Draws:
    """What ``np.random.default_rng(seed)`` returns, call for call, for three methods.

    It reads PCG64's raw outputs in blocks and runs numpy's own algorithms on
    them, at a fraction of the cost of a scalar ``Generator`` call:

    - ``random()``: one raw output's top 53 bits times 2**-53;
    - ``integers(n)``: numpy's ``buffered_bounded_lemire_uint32`` over 32-bit
      halves. A raw output gives its low half and stashes its high half for
      the next ``integers`` call, across any ``random`` calls between, as
      PCG64's ``has_uint32`` does. ``n == 1`` draws nothing;
    - ``poisson(lam)``: numpy's ``random_poisson``, with C's float semantics
      where Python's differ.
    """

    def __init__(self, seed: int):
        bitgen = np.random.default_rng(seed).bit_generator
        blocks = iter(lambda: bitgen.random_raw(_RAW_BLOCK).tolist(), None)
        self._next64 = itertools.chain.from_iterable(blocks).__next__
        self._half = None

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, n: int) -> int:
        """Uniform on ``[0, n)`` for ``1 <= n < 2**32``."""
        if n == 1:
            return 0
        threshold = (1 << 32) % n   # a product whose low half falls below it is biased
        while True:
            half = self._half
            if half is None:
                raw = self._next64()
                self._half = raw >> 32
                half = raw & 0xFFFFFFFF
            else:
                self._half = None
            m = half * n
            if (m & 0xFFFFFFFF) >= threshold:
                return m >> 32

    def poisson(self, lam: float) -> int:
        if lam >= 10:
            return self._ptrs(lam)
        if lam == 0:
            return 0
        # multiply uniforms until the product falls to exp(-lam)
        enlam = math.exp(-lam)
        k, prod = 0, 1.0
        while True:
            prod *= self.random()
            if prod <= enlam:
                return k
            k += 1

    def _ptrs(self, lam: float) -> int:
        """Hörmann's PTRS, term for term as numpy's ``random_poisson_ptrs``."""
        slam, loglam = math.sqrt(lam), math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            if us == 0.0:   # in C, k becomes INT64_MIN and is rejected
                continue
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            # C's log(0.0) is -inf, which accepts
            if v == 0.0 or (math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)
                            <= -lam + k * loglam - _loggam(k + 1)):
                return k


def _loggam(x: float) -> float:
    """log Gamma(x) for x >= 1, operation for operation as numpy's ``random_loggam``."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_COEFFS[9]
    for c in _LOGGAM_COEFFS[8::-1]:
        gl0 *= x2
        gl0 += c
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0   # log(2 pi)
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


def generate_language(spec: SyntheticLanguageSpec, n_sentences: int) -> Corpus:
    """Deterministic corpus: a pure function of (spec, n_sentences).

    Each sentence comes out valid BIO, so it needs no ``repair_bio``: every
    span is written as a ``B-`` and then ``I-`` tags, and the cut to
    ``length`` keeps a prefix.
    """
    if n_sentences < 1:
        raise ValueError("n_sentences must be >= 1")
    rng = PCG64Draws(spec.seed)
    # the renaming draws from a stream of its own, so the sentence draws do not depend on it
    surface_rng = np.random.default_rng(spec.seed)

    # per-language bijective renaming of the shared proto-lexicon
    fw_perm = surface_rng.permutation(N_FUNCTION_WORDS)
    function_words = [f"fw{fw_perm[i]}" for i in range(N_FUNCTION_WORDS)]
    pool_perm = surface_rng.permutation(N_ENTITY_WORDS * len(ENTITY_TYPES))
    entity_words = {
        t: [f"ew{pool_perm[ti * N_ENTITY_WORDS + i]}" for i in range(N_ENTITY_WORDS)]
        for ti, t in enumerate(ENTITY_TYPES)
    }
    plain_fws = [w for i, w in enumerate(function_words) if i not in TRIGGERS.values()]

    corpus = Corpus()
    for _ in range(n_sentences):
        length = max(3, rng.poisson(spec.mean_sentence_length))
        tokens, labels = [], []
        while len(tokens) < length:
            if rng.random() < spec.entity_rate and len(tokens) + 2 <= length:
                etype = ENTITY_TYPES[rng.integers(len(ENTITY_TYPES))]
                tokens.append(function_words[TRIGGERS[etype]])
                labels.append("O")
                span_len = 1 + int(rng.random() < 0.35)
                for j in range(span_len):
                    tokens.append(entity_words[etype][rng.integers(N_ENTITY_WORDS)])
                    labels.append(("B-" if j == 0 else "I-") + etype)
            else:
                tokens.append(plain_fws[rng.integers(len(plain_fws))])
                labels.append("O")
        corpus.sequences.append(TaggedSequence(tokens[:length], labels[:length]))
    return corpus


@dataclass
class SyntheticFamily:
    """The ``data.synthetic`` config section: one family of synthetic languages.

    Language i of ``sources + targets`` is generated from seed
    ``family_seed * 1000 + i``, so the names must be distinct.
    """

    sources: list = field(default_factory=lambda: ["srcA", "srcB"])
    targets: list = field(default_factory=lambda: ["tgtX", "tgtY", "tgtZ"])
    n_sentences_source: int = 1200
    n_sentences_target: int = 800
    entity_rate: float = SyntheticLanguageSpec.entity_rate
    mean_sentence_length: float = SyntheticLanguageSpec.mean_sentence_length
    family_seed: int = 7

    def __post_init__(self):
        check_ranges(self, {"n_sentences_source": 1, "n_sentences_target": 1})
        languages = self.sources + self.targets
        if len(set(languages)) != len(languages):
            raise ValueError(f"sources and targets must be distinct names (got {languages})")
        self._specs()   # the specs check entity_rate and mean_sentence_length

    def _specs(self) -> dict:
        return {lang: SyntheticLanguageSpec(self.family_seed * 1000 + i, self.entity_rate,
                                            self.mean_sentence_length)
                for i, lang in enumerate(self.sources + self.targets)}

    def corpora(self, max_seq_len: int):
        """(source corpora, target corpora) by language, truncated to ``max_seq_len``."""
        specs = self._specs()

        def generate(lang, n):
            return truncate_corpus(generate_language(specs[lang], n), max_seq_len)

        return ({lang: generate(lang, self.n_sentences_source) for lang in self.sources},
                {lang: generate(lang, self.n_sentences_target) for lang in self.targets})


# --- vocabulary and task assembly -----------------------------------------

class Vocab:
    """First-seen-order token index; UNK at 0, PAD at 1."""

    def __init__(self):
        self._index = {UNK_TOKEN: 0, PAD_TOKEN: 1}

    @classmethod
    def build(cls, corpora) -> "Vocab":
        v = cls()
        for corpus in corpora:
            for seq in corpus:
                for tok in seq.tokens:
                    v._index.setdefault(tok, len(v._index))
        return v

    def __len__(self):
        return len(self._index)

    def encode_tokens(self, tokens) -> np.ndarray:
        return np.array([self._index.get(t, 0) for t in tokens], dtype=np.int64)

    def encode_corpus(self, corpus: Corpus):
        """(token ids, label ids) of each sequence."""
        return [(self.encode_tokens(seq.tokens),
                 np.array([LABEL_TO_ID[lab] for lab in seq.labels], dtype=np.int64))
                for seq in corpus]


@dataclass
class SplitSpec:
    support_size: int = 256
    query_size: int = 256
    train_size: int = 64    # full scale: 400; low-resource, where init quality shows
    val_size: int = 100
    test_size: int = 200

    def __post_init__(self):
        check_ranges(self, {"support_size": 1, "query_size": 1, "train_size": 1,
                            "val_size": 1, "test_size": 1})


@dataclass
class MetaTask:
    """One priming task: support drives inner adaptation, query the outer loss."""

    task_id: str
    support: list   # encoded (token_ids, label_ids) pairs
    query: list


def minibatches(seqs: list, batch_size: int, rng):
    """Endless deterministic mini-batches of ``seqs``, reshuffled each pass."""
    order = rng.permutation(len(seqs))
    pos = 0
    while True:
        if pos + batch_size > len(order):
            order = rng.permutation(len(seqs))
            pos = 0
        yield [seqs[i] for i in order[pos:pos + batch_size]]
        pos += batch_size


def sample_batch(seqs: list, batch_size: int, rng) -> list:
    """``batch_size`` distinct items of ``seqs`` (all of them, if fewer), in draw order."""
    idx = rng.choice(len(seqs), size=min(batch_size, len(seqs)), replace=False)
    return [seqs[i] for i in idx]


def build_meta_dataset(source_corpora: dict, split: SplitSpec, vocab: Vocab) -> list:
    """One MetaTask per source language with disjoint support/query sets."""
    tasks = []
    for lang, corpus in source_corpora.items():
        need = split.support_size + split.query_size
        if len(corpus) < need:
            raise ValueError(
                f"{lang}: corpus has {len(corpus)} sequences, "
                f"need {need} for support+query"
            )
        encoded = vocab.encode_corpus(Corpus(corpus.sequences[:need]))
        tasks.append(MetaTask(
            task_id=lang,
            support=encoded[:split.support_size],
            query=encoded[split.support_size:need],
        ))
    return tasks


def split_target(corpus: Corpus, split: SplitSpec, vocab: Vocab):
    """(train, val, test) encoded splits plus the raw val/test sequences."""
    need = split.train_size + split.val_size + split.test_size
    if len(corpus) < need:
        raise ValueError(f"corpus has {len(corpus)} sequences, need {need}")
    seqs = corpus.sequences
    train = vocab.encode_corpus(Corpus(seqs[:split.train_size]))
    val_raw = Corpus(seqs[split.train_size:split.train_size + split.val_size])
    test_raw = Corpus(seqs[split.train_size + split.val_size:need])
    return train, val_raw, test_raw
