"""Partitioned model: transformer encoder -> single top adapter -> task head.

The encoder parameters are tagged PRETRAINED, the adapter (one
down-project / nonlinearity / up-project block after the final encoder
layer) is tagged LIGHTWEIGHT, and each task head (one linear layer) is
tagged HEAD. Logits for a sequence are head(adapter(encoder(tokens))).

The adapter is the bottleneck of Houlsby et al. (2019): ReLU between the
projections and a residual connection around them, so a zero adapter is
exactly the identity map on hidden states.

Frozen partitions: ``PartitionedModel.freeze(partitions)`` is the one
place that states which partitions do not train; nothing is frozen by
default and ``clone()`` returns an unfrozen copy. Graph leaves of frozen
partitions do not require a gradient, so backward never enters them, and
their arrays are read-only: an in-place write raises ``ValueError``,
replacing one raises ``ContractError``. While the encoder (PRETRAINED) is
frozen its output is a constant, so each distinct (token ids, keep flags)
sequence is encoded once and its stored hidden states are reused, in
training and prediction alike; freezing again drops them.

One forward path: ``logits(ids, keep, head)`` takes a list of sequences
(token ids and keep flags, one pair each), pads them to the longest, L,
and builds one graph: the encoder returns ``[B, L, d]`` and padded keys
are masked out of attention with an additive ``[B, 1, L]`` mask, so a kept
position does not depend on what fills the padding. ``batch_loss`` keeps
the positions with a label >= 0; ``predict`` keeps all and trims each
sequence's labels to its length. While the encoder is frozen the states
are stored per unpadded sequence: a batch encodes only the sequences not
stored yet, as one padded batch, and gathers the rest. States from
batches of different widths agree to rounding, not bit for bit, because
the sums run over different lengths. ``predict`` builds its leaves with
every partition frozen, so a prediction keeps no tape.
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
    n_labels: int = 7              # from the data, as vocab_size is; not a config key
    adapter_bottleneck: int = 8

    def __post_init__(self):
        ad.check_ranges(self, {"d_model": 1, "n_layers": 1, "n_heads": 1, "d_ff": 1,
                               "max_seq_len": 1, "n_labels": 2, "adapter_bottleneck": 1})
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")

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
            # near-identity start: small noise on down-project, zeros on up-project
            reg.add("adapter.down", rng.uniform(-1e-2, 1e-2, (c.d_model, c.adapter_bottleneck)),
                    Partition.LIGHTWEIGHT)
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
                raise ad.ContractError(f"no head named {name!r}")
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
        z = ad.relu(ad.linear(hidden, leaves["adapter.down"], leaves["adapter.down_b"]))
        return ad.add(hidden, ad.linear(z, leaves["adapter.up"], leaves["adapter.up_b"]))

    def classify(self, adapted: Var, head: str, leaves) -> Var:
        return ad.linear(adapted, leaves[f"head.{head}.w"], leaves[f"head.{head}.b"])

    def _memoized(self, ids, keep, batch, leaves) -> np.ndarray:
        """Frozen-encoder states ``[B, L, d_model]`` of the (ids, keep) sequences.

        ``batch`` is the same sequences padded to ``[B, L]``. Each distinct
        sequence is encoded once, as part of one padded batch of the
        sequences not seen before (their rows of ``batch``), and its states
        are kept; positions past a sequence's end are zeros.
        """
        keys = [(s.tobytes(), k.tobytes()) for s, k in zip(ids, keep)]
        new = {}
        for i, key in enumerate(keys):
            if key not in self._encodings:
                new.setdefault(key, i)
        if new:
            rows = list(new.values())
            width = max(len(ids[i]) for i in rows)
            hidden = self.encode(batch[0][rows, :width], batch[1][rows, :width], leaves).data
            for states, (key, i) in zip(hidden, new.items()):
                stored = self._encodings[key] = states[:len(ids[i])].copy()
                stored.flags.writeable = False
        out = np.zeros(batch[0].shape + (self.config.d_model,))
        for row, key in zip(out, keys):
            stored = self._encodings[key]
            row[:len(stored)] = stored
        return out

    def logits(self, ids, keep, head: str, leaves=None):
        """Full composition head(adapter(encoder(x))). Returns (logits, leaves).

        ``ids`` and ``keep`` are lists of 1-d arrays, one pair per sequence:
        token ids and keep flags of the same length. Both are padded to the
        longest sequence, so logits are ``[B, L, n_labels]``. ``leaves`` must
        come from this model's registry. While the encoder is frozen, the
        states of each sequence are computed once and then fed back as a
        constant.
        """
        self.head_ids(head)
        if leaves is None:
            leaves = self.registry.leaf_vars(self.frozen)
        ids = [np.asarray(s, dtype=np.int64) for s in ids]
        keep = [np.asarray(k, dtype=bool) for k in keep]
        for s, k in zip(ids, keep, strict=True):
            if s.shape != k.shape:
                raise ad.ShapeMismatchError("logits", s.shape, k.shape)
        batch = pad_rows(ids, 0), pad_rows(keep, False)
        if Partition.PRETRAINED in self.frozen:
            x = Var(self._memoized(ids, keep, batch, leaves), requires_grad=False)
        else:
            x = self.encode(*batch, leaves)
        if self.has_adapter:
            x = self.adapt(x, leaves)
        return self.classify(x, head, leaves), leaves

    def batch_loss(self, batch, head: str):
        """Mean cross-entropy over the labelled tokens of a batch of sequences.

        ``batch`` is a list of (token_ids, label_ids) pairs of equal length;
        positions with a label < 0 are masked out of attention (``logits``)
        and dropped from the one mean that every sequence contributes to.
        Returns (loss Var, leaves); leaves of frozen partitions do not
        require a gradient.
        """
        labels = [np.asarray(label_ids, dtype=np.int64) for _, label_ids in batch]
        logits, leaves = self.logits([token_ids for token_ids, _ in batch],
                                     [row >= 0 for row in labels], head)
        labels = pad_rows(labels, -1)
        keep = labels >= 0
        return ad.cross_entropy_mean(logits, np.where(keep, labels, 0), keep), leaves

    def predict(self, ids, head: str):
        """Argmax labels of each sequence in the list ``ids``, trimmed to its length; no tape."""
        leaves = self.registry.leaf_vars(tuple(Partition))
        lg, _ = self.logits(ids, [np.ones(len(s), dtype=bool) for s in ids], head, leaves)
        return [row[:len(s)] for row, s in zip(lg.data.argmax(axis=-1), ids)]


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

