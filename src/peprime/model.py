"""Partitioned model: transformer encoder -> single top adapter -> task head.

The encoder parameters are tagged PRETRAINED, the adapter (one
down-project / nonlinearity / up-project block after the final encoder
layer) is tagged LIGHTWEIGHT, and each task head (one linear layer) is
tagged HEAD. Logits for a sequence are head(adapter(encoder(tokens))).

The adapter carries a residual connection by default, so a zero adapter
is exactly the identity map on hidden states.

Frozen partitions: ``PartitionedModel.freeze(partitions)`` is the one
place that states which partitions do not train; nothing is frozen by
default and ``clone()`` returns an unfrozen copy. Graph leaves of frozen
partitions do not require a gradient, so backward never enters them, and
their arrays are read-only: an in-place write raises ``ValueError``,
replacing one raises ``ContractError``. While the encoder (PRETRAINED) is
frozen its output is a constant, so each distinct (token ids, pad mask)
sequence is encoded once and its stored hidden states are reused; freezing
again drops them.

Padded batches: ``encode``, ``logits``, ``batch_loss`` and ``predict``
build one graph per batch. A batch is token ids and a keep-mask of shape
``[B, L]`` (L the longest sequence); the encoder returns ``[B, L, d]``,
padded keys are masked out of attention with an additive ``[B, 1, L]``
mask, and ``batch_loss`` drops padded positions and labels < 0 from the
loss through the keep mask, so a kept position's value does not depend on
what fills the padding. While the encoder is frozen the stored states
stay per sequence, keyed by its (ids, mask): a batch encodes only the
sequences not stored yet, as one padded batch, and gathers the rest.
States from batches of different widths agree to rounding, not bit for
bit, because the sums run over different lengths. ``predict`` builds its
leaves with every partition frozen, so a prediction keeps no tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from . import autodiff as ad
from .autodiff import Partition, Var

NEG_INF = -1e9


@dataclass(frozen=True)
class ModelConfig:
    """Transformer and adapter sizes; the defaults are the desk scale, small
    enough that a full finite-difference check finishes in seconds."""

    vocab_size: int
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 64
    max_seq_len: int = 32
    n_labels: int = 7
    adapter_bottleneck: int = 8
    adapter_nonlinearity: str = "relu"  # relu | gelu
    adapter_residual: bool = True

    def __post_init__(self):
        ad.check_ranges(self, {"d_model": 1, "n_layers": 1, "n_heads": 1, "d_ff": 1,
                               "max_seq_len": 1, "n_labels": 2, "adapter_bottleneck": 1})
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.adapter_nonlinearity not in ("relu", "gelu"):
            raise ValueError(f"unknown adapter nonlinearity {self.adapter_nonlinearity!r}")

    def hash(self) -> str:
        return ad.stable_hash(asdict(self))


class PartitionedModel:
    """Owns a ParameterRegistry and builds forward graphs over it.

    ``has_adapter=False`` builds the plain encoder+head model used by the
    full fine-tuning baseline, which carries no adapter parameters at all.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, has_adapter: bool = True,
                 registry: ad.ParameterRegistry | None = None):
        self.config = config
        self.has_adapter = has_adapter
        self.frozen = ()
        self._encodings = {}
        if registry is not None:
            self.registry = registry
            return
        self.registry = ad.ParameterRegistry()
        rng = np.random.default_rng(seed)
        c = config
        reg = self.registry
        emb_scale = 0.1
        reg.add("embed.tok", rng.normal(0, emb_scale, (c.vocab_size, c.d_model)), Partition.PRETRAINED)
        reg.add("embed.pos", rng.normal(0, emb_scale, (c.max_seq_len, c.d_model)), Partition.PRETRAINED)
        for layer in range(c.n_layers):
            pre = f"enc.{layer}"
            for name in ("wq", "wk", "wv", "wo"):
                reg.add(f"{pre}.attn.{name}", _glorot(rng, c.d_model, c.d_model), Partition.PRETRAINED)
                reg.add(f"{pre}.attn.{name}_b", np.zeros(c.d_model), Partition.PRETRAINED)
            reg.add(f"{pre}.ln1.g", np.ones(c.d_model), Partition.PRETRAINED)
            reg.add(f"{pre}.ln1.b", np.zeros(c.d_model), Partition.PRETRAINED)
            reg.add(f"{pre}.ffn.w1", _glorot(rng, c.d_model, c.d_ff), Partition.PRETRAINED)
            reg.add(f"{pre}.ffn.b1", np.zeros(c.d_ff), Partition.PRETRAINED)
            reg.add(f"{pre}.ffn.w2", _glorot(rng, c.d_ff, c.d_model), Partition.PRETRAINED)
            reg.add(f"{pre}.ffn.b2", np.zeros(c.d_model), Partition.PRETRAINED)
            reg.add(f"{pre}.ln2.g", np.ones(c.d_model), Partition.PRETRAINED)
            reg.add(f"{pre}.ln2.b", np.zeros(c.d_model), Partition.PRETRAINED)
        if has_adapter:
            self.init_adapter(rng)

    def init_adapter(self, rng):
        """Near-identity start: small noise on down-project, zeros on up-project."""
        c = self.config
        reg = self.registry
        for pid in ("adapter.down", "adapter.down_b", "adapter.up", "adapter.up_b"):
            if pid in reg:
                raise ad.ContractError("adapter already initialized")
        reg.add("adapter.down", rng.uniform(-1e-2, 1e-2, (c.d_model, c.adapter_bottleneck)), Partition.LIGHTWEIGHT)
        reg.add("adapter.down_b", np.zeros(c.adapter_bottleneck), Partition.LIGHTWEIGHT)
        reg.add("adapter.up", np.zeros((c.adapter_bottleneck, c.d_model)), Partition.LIGHTWEIGHT)
        reg.add("adapter.up_b", np.zeros(c.d_model), Partition.LIGHTWEIGHT)

    def add_head(self, name: str, rng):
        c = self.config
        bound = 1.0 / math.sqrt(c.d_model)
        self.registry.add(f"head.{name}.w", rng.uniform(-bound, bound, (c.d_model, c.n_labels)), Partition.HEAD)
        self.registry.add(f"head.{name}.b", np.zeros(c.n_labels), Partition.HEAD)

    def head_names(self):
        return sorted({pid.split(".")[1] for pid in self.registry.ids(Partition.HEAD)})

    def head_ids(self, name: str):
        ids = [f"head.{name}.w", f"head.{name}.b"]
        for pid in ids:
            if pid not in self.registry:
                raise KeyError(f"no head named {name!r}")
        return ids

    def clone(self) -> "PartitionedModel":
        """An unfrozen deep copy."""
        return PartitionedModel(self.config, has_adapter=self.has_adapter,
                                registry=self.registry.deep_copy())

    def freeze(self, partitions=()):
        """Set the partitions that do not train; ``freeze()`` unfreezes everything.

        ``frozen`` keeps them as a tuple in ``Partition`` order: membership
        tests on it compare by identity, which is cheaper than hashing enums.
        """
        partitions = set(partitions)
        self.frozen = tuple(p for p in Partition if p in partitions)
        for p in self.registry:
            p.value.set_frozen(p.partition in self.frozen)
        self._encodings = {}

    # --- forward graphs ---------------------------------------------------

    def encode(self, token_ids, pad_mask, leaves) -> Var:
        """Per-token hidden states ``[..., L, d_model]`` of token ids ``[..., L]``.

        A padded batch is ids and keep-mask of shape ``[B, L]``; one
        sequence ``[L]`` gives ``[L, d_model]``. Masked positions are
        dropped as attention keys (additive mask ``[B, 1, L]``), so their
        ids never change the state of a kept position.
        """
        c = self.config
        token_ids = np.asarray(token_ids, dtype=np.int64)
        pad_mask = np.asarray(pad_mask, dtype=bool)
        n = token_ids.shape[-1]
        if n > c.max_seq_len:
            raise ad.ContractError(f"sequence length {n} exceeds max_seq_len {c.max_seq_len}")
        if token_ids.size and token_ids.max() >= c.vocab_size:
            raise ad.ContractError(f"token id {token_ids.max()} out of vocab range {c.vocab_size}")
        if pad_mask.shape != token_ids.shape:
            raise ad.ShapeMismatchError("encode", token_ids.shape, pad_mask.shape)
        key_mask = np.where(pad_mask, 0.0, NEG_INF)[..., None, :]  # additive over key axis

        positions = np.broadcast_to(np.arange(n), token_ids.shape)
        x = ad.add(ad.embedding(leaves["embed.tok"], token_ids),
                   ad.embedding(leaves["embed.pos"], positions))
        dh = c.d_model // c.n_heads
        inv_sqrt_dh = 1.0 / math.sqrt(dh)
        for layer in range(c.n_layers):
            pre = f"enc.{layer}"
            q = ad.linear(x, leaves[f"{pre}.attn.wq"], leaves[f"{pre}.attn.wq_b"])
            k = ad.linear(x, leaves[f"{pre}.attn.wk"], leaves[f"{pre}.attn.wk_b"])
            v = ad.linear(x, leaves[f"{pre}.attn.wv"], leaves[f"{pre}.attn.wv_b"])
            heads = []
            for h in range(c.n_heads):
                lo, hi = h * dh, (h + 1) * dh
                qh, kh, vh = (ad.slice_cols(t, lo, hi) for t in (q, k, v))
                scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), inv_sqrt_dh)
                attn = ad.softmax_rows(scores, additive_mask=key_mask)
                heads.append(ad.matmul(attn, vh))
            att = ad.linear(ad.concat_cols(heads), leaves[f"{pre}.attn.wo"],
                            leaves[f"{pre}.attn.wo_b"])
            x = ad.layer_norm(ad.add(x, att), leaves[f"{pre}.ln1.g"], leaves[f"{pre}.ln1.b"])
            h1 = ad.gelu(ad.linear(x, leaves[f"{pre}.ffn.w1"], leaves[f"{pre}.ffn.b1"]))
            ff = ad.linear(h1, leaves[f"{pre}.ffn.w2"], leaves[f"{pre}.ffn.b2"])
            x = ad.layer_norm(ad.add(x, ff), leaves[f"{pre}.ln2.g"], leaves[f"{pre}.ln2.b"])
        return x

    def adapt(self, hidden: Var, leaves) -> Var:
        c = self.config
        if hidden.data.shape[-1] != c.d_model:
            raise ad.ShapeMismatchError("adapter", hidden.data.shape, (c.d_model,))
        z = ad.linear(hidden, leaves["adapter.down"], leaves["adapter.down_b"])
        z = ad.relu(z) if c.adapter_nonlinearity == "relu" else ad.gelu(z)
        z = ad.linear(z, leaves["adapter.up"], leaves["adapter.up_b"])
        return ad.add(hidden, z) if c.adapter_residual else z

    def classify(self, adapted: Var, head: str, leaves) -> Var:
        return ad.linear(adapted, leaves[f"head.{head}.w"], leaves[f"head.{head}.b"])

    def _adapt_and_classify(self, hidden: Var, head: str, leaves) -> Var:
        if self.has_adapter:
            hidden = self.adapt(hidden, leaves)
        return self.classify(hidden, head, leaves)

    def _memoized(self, seqs, leaves) -> np.ndarray:
        """Frozen-encoder states ``[B, L, d_model]`` of (ids, mask) sequences, L the longest.

        Each distinct sequence is encoded once, as part of one padded
        batch of the sequences not seen before, and its states are kept;
        positions past a sequence's end are zeros.
        """
        keys = [(ids.tobytes(), mask.tobytes()) for ids, mask in seqs]
        new = {}
        for key, seq in zip(keys, seqs):
            if key not in self._encodings:
                new.setdefault(key, seq)
        if new:
            ids = pad_rows([s[0] for s in new.values()], 0)
            mask = pad_rows([s[1] for s in new.values()], False)
            hidden = self.encode(ids, mask, leaves).data
            for row, (key, (s_ids, _)) in zip(hidden, new.items()):
                stored = self._encodings[key] = row[:len(s_ids)].copy()
                stored.flags.writeable = False
        width = max(len(ids) for ids, _ in seqs)
        out = np.zeros((len(seqs), width, self.config.d_model))
        for row, key in zip(out, keys):
            stored = self._encodings[key]
            row[:len(stored)] = stored
        return out

    def logits(self, token_ids, pad_mask, head: str, leaves=None):
        """Full composition head(adapter(encoder(x))). Returns (logits, leaves).

        ``token_ids`` and ``pad_mask`` are one sequence ``[L]`` or a padded
        batch ``[B, L]``; logits are ``[..., L, n_labels]``. ``leaves`` must
        come from this model's registry. While the encoder is frozen, the
        states of each row are computed once and then fed back as a constant.
        """
        self.head_ids(head)
        if leaves is None:
            leaves = self.registry.leaf_vars(self.frozen)
        token_ids = np.asarray(token_ids, dtype=np.int64)
        pad_mask = np.asarray(pad_mask, dtype=bool)
        if Partition.PRETRAINED in self.frozen:
            n = token_ids.shape[-1]
            rows = list(zip(token_ids.reshape(-1, n), pad_mask.reshape(-1, n)))
            hidden = self._memoized(rows, leaves).reshape(token_ids.shape + (self.config.d_model,))
            x = Var(hidden, requires_grad=False)
        else:
            x = self.encode(token_ids, pad_mask, leaves)
        return self._adapt_and_classify(x, head, leaves), leaves

    def batch_loss(self, batch, head: str):
        """Mean cross-entropy over the labelled tokens of a batch of sequences.

        ``batch`` is a list of (token_ids, label_ids) pairs; positions with
        a label < 0 are padding. The batch is padded to its longest
        sequence and run as one graph; padded positions are masked out of
        attention and dropped from the mean, so every sequence contributes
        its labelled positions to one shared mean. Returns (loss Var,
        leaves); leaves of frozen partitions do not require a gradient.
        """
        self.head_ids(head)
        leaves = self.registry.leaf_vars(self.frozen)
        ids = [np.asarray(token_ids, dtype=np.int64) for token_ids, _ in batch]
        labels = pad_rows([np.asarray(label_ids, dtype=np.int64) for _, label_ids in batch], -1)
        keep = labels >= 0
        if Partition.PRETRAINED in self.frozen:
            seqs = [(s, row[:len(s)]) for s, row in zip(ids, keep)]
            x = Var(self._memoized(seqs, leaves), requires_grad=False)
        else:
            x = self.encode(pad_rows(ids, 0), keep, leaves)
        logits = self._adapt_and_classify(x, head, leaves)
        loss = ad.cross_entropy_mean(logits, np.where(keep, labels, 0), keep)
        return loss, leaves

    def predict(self, token_ids, pad_mask, head: str):
        """Argmax labels ``[..., L]`` of a padded batch (or one sequence); keeps no tape."""
        leaves = self.registry.leaf_vars(tuple(Partition))
        lg, _ = self.logits(token_ids, pad_mask, head, leaves)
        return lg.data.argmax(axis=-1)


def pad_rows(rows, fill):
    """Stack 1-d arrays into ``[len(rows), longest]``, filling each tail with ``fill``."""
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), fill, dtype=np.asarray(rows[0]).dtype)
    for row, r in zip(out, rows):
        row[:len(r)] = r
    return out


def _glorot(rng, fan_in, fan_out):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, (fan_in, fan_out))


# --- parameter accounting -------------------------------------------------

def encoder_param_count(c: ModelConfig) -> int:
    per_layer = (4 * (c.d_model * c.d_model + c.d_model)      # attention projections
                 + 2 * 2 * c.d_model                          # two layernorms
                 + c.d_model * c.d_ff + c.d_ff + c.d_ff * c.d_model + c.d_model)
    return c.vocab_size * c.d_model + c.max_seq_len * c.d_model + c.n_layers * per_layer


def adapter_param_count(c: ModelConfig) -> int:
    b = c.adapter_bottleneck
    return c.d_model * b + b + b * c.d_model + c.d_model


def head_param_count(c: ModelConfig) -> int:
    return c.d_model * c.n_labels + c.n_labels


def count_trainable_fraction(config: ModelConfig, partitions,
                             has_adapter: bool = True) -> Fraction:
    """Exact ratio of the parameters in ``partitions`` to all parameters of a model."""
    counts = {
        Partition.PRETRAINED: encoder_param_count(config),
        Partition.LIGHTWEIGHT: adapter_param_count(config) if has_adapter else 0,
        Partition.HEAD: head_param_count(config),
    }
    return Fraction(sum(counts[p] for p in partitions), sum(counts.values()))


def format_fraction_percent(frac: Fraction) -> str:
    """One-significant-figure percentage, e.g. '100%', '0.4%', '3e-3%'."""
    pct = float(frac) * 100.0
    if pct >= 1.0:
        return f"{pct:.0f}%"
    if pct >= 0.01:
        return f"{pct:.1g}%"
    mantissa, exp = f"{pct:.0e}".split("e")
    return f"{mantissa}e{int(exp)}%"
