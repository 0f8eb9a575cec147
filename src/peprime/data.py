"""Corpora for token tagging: CoNLL ingestion and a synthetic language family.

The synthetic languages share one latent grammar. Entity mentions are
always introduced by type-specific trigger words. Every language draws its
function words, the triggers among them, from one shared inventory and its
entity words from one shared pool, each permuted per language: tokens
overlap across languages, the token-to-type mapping does not. That makes
entity detection on an unseen language learnable from context alone,
which is the structure cross-language transfer relies on here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import check_ranges

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

def truncate_corpus(corpus: Corpus, max_seq_len: int | None) -> Corpus:
    """Cut every sequence longer than ``max_seq_len`` in place and count it.

    Returns ``corpus``; a corpus whose sequences all fit is left untouched.
    """
    if max_seq_len is None:
        return corpus
    for i, seq in enumerate(corpus.sequences):
        if len(seq.tokens) > max_seq_len:
            # truncation can cut a span; re-repair keeps labels valid
            labels, _ = repair_bio(seq.labels[:max_seq_len])
            corpus.sequences[i] = TaggedSequence(seq.tokens[:max_seq_len], labels)
            corpus.truncated_sequences += 1
    return corpus


def load_conll(path, max_seq_len: int | None = None) -> Corpus:
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
    with open(path, "w", encoding="utf-8") as f:
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


def generate_language(spec: SyntheticLanguageSpec, n_sentences: int) -> Corpus:
    """Deterministic corpus: a pure function of (spec, n_sentences)."""
    if n_sentences < 1:
        raise ValueError("n_sentences must be >= 1")
    rng = np.random.default_rng(spec.seed)
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
        length = max(3, int(rng.poisson(spec.mean_sentence_length)))
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
        corpus.sequences.append(TaggedSequence(tokens[:length], repair_bio(labels[:length])[0]))
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

    def corpora(self, max_seq_len: int | None = None):
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

    def encode_sequence(self, seq: TaggedSequence):
        ids = self.encode_tokens(seq.tokens)
        labels = np.array([LABEL_TO_ID[lab] for lab in seq.labels], dtype=np.int64)
        return ids, labels

    def encode_corpus(self, corpus: Corpus):
        return [self.encode_sequence(seq) for seq in corpus]


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

    def support_batches(self, batch_size: int, rng):
        return minibatches(self.support, batch_size, rng)

    def query_batch(self, batch_size: int, rng):
        return sample_batch(self.query, batch_size, rng)


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
        encoded = vocab.encode_corpus(corpus)
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
