import numpy as np
import pytest

from peprime import autodiff as ad
from peprime.autodiff import Partition, Var
from peprime.model import (
    ModelConfig,
    PartitionedModel,
    count_trainable_fraction,
    format_fraction_percent,
    pad_rows,
)
from test_autodiff import zero_fill_accum

ALL_PARTITIONS = (Partition.PRETRAINED, Partition.LIGHTWEIGHT, Partition.HEAD)

MBERT_LIKE = ModelConfig(vocab_size=119547, d_model=768, n_layers=12, n_heads=12,
                         d_ff=3072, max_seq_len=512, n_labels=7, adapter_bottleneck=64)


@pytest.fixture(scope="module")
def small_model():
    m = PartitionedModel(ModelConfig(vocab_size=60), seed=0)
    m.add_head("t", np.random.default_rng(1))
    return m


class TestConfig:
    def test_head_count_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(vocab_size=10, d_model=30, n_heads=4)

    def test_label_floor(self):
        with pytest.raises(ValueError, match="n_labels"):
            ModelConfig(vocab_size=10, n_labels=1)

    def test_hash_depends_on_fields(self):
        a = ModelConfig(vocab_size=100)
        b = ModelConfig(vocab_size=101, d_model=32, n_layers=2, n_heads=2,
                        d_ff=64, max_seq_len=32, adapter_bottleneck=8)
        assert a.hash() != b.hash()


class TestPartitions:
    def test_every_parameter_tagged(self, small_model):
        reg = small_model.registry
        assert set(reg.ids()) == set(
            reg.ids(Partition.PRETRAINED) + reg.ids(Partition.LIGHTWEIGHT)
            + reg.ids(Partition.HEAD)
        )

    def test_partition_sums_to_total(self, small_model):
        reg = small_model.registry
        assert reg.n_params() == sum(reg.n_params(p) for p in ALL_PARTITIONS)

    def test_adapter_disjoint_from_encoder(self, small_model):
        reg = small_model.registry
        assert not set(reg.ids(Partition.LIGHTWEIGHT)) & set(reg.ids(Partition.PRETRAINED))

    def test_adapter_free_model_has_no_lightweight(self):
        m = PartitionedModel(ModelConfig(vocab_size=60), seed=0, has_adapter=False)
        assert m.registry.ids(Partition.LIGHTWEIGHT) == []


class TestEncode:
    def test_output_shape(self, small_model):
        ids = np.array([2, 3, 4, 5, 6])
        leaves = small_model.registry.leaf_vars()
        out = small_model.encode(ids, np.ones(5, bool), leaves)
        assert out.data.shape == (5, small_model.config.d_model)

    def test_all_zero_weights_give_equal_rows(self):
        m = PartitionedModel(ModelConfig(vocab_size=20), seed=0)
        for p in m.registry:
            if p.id.endswith(".g"):
                p.value.data = np.ones_like(p.value.data)
            else:
                p.value.data = np.zeros_like(p.value.data)
        leaves = m.registry.leaf_vars()
        out = m.encode(np.array([2, 7, 9]), np.ones(3, bool), leaves).data
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[0], out[2])

    def test_too_long_sequence_rejected(self, small_model):
        ids = np.full(small_model.config.max_seq_len + 1, 2)
        with pytest.raises(ad.ContractError, match="max_seq_len"):
            small_model.encode(ids, np.ones(ids.size, bool), small_model.registry.leaf_vars())

    def test_out_of_vocab_rejected(self, small_model):
        with pytest.raises(ad.ContractError, match="vocab"):
            small_model.encode(np.array([2, 10_000]), np.ones(2, bool),
                               small_model.registry.leaf_vars())

    def test_pad_content_does_not_leak(self, small_model):
        # swapping the token ids at two padded positions must not change
        # any non-pad hidden state bit
        ids_a = np.array([2, 3, 4, 8, 9])
        ids_b = np.array([2, 3, 4, 9, 8])
        mask = np.array([True, True, True, False, False])
        leaves = small_model.registry.leaf_vars()
        out_a = small_model.encode(ids_a, mask, leaves).data
        out_b = small_model.encode(ids_b, mask, small_model.registry.leaf_vars()).data
        np.testing.assert_array_equal(out_a[:3], out_b[:3])


class TestAdapter:
    def zero_adapter(self, model):
        for pid in model.registry.ids(Partition.LIGHTWEIGHT):
            model.registry[pid].value.data[:] = 0.0

    def test_zero_adapter_with_residual_is_identity(self):
        m = PartitionedModel(ModelConfig(vocab_size=20), seed=0)
        self.zero_adapter(m)
        h = np.random.default_rng(0).normal(size=(4, m.config.d_model))
        out = m.adapt(Var(h), m.registry.leaf_vars())
        np.testing.assert_array_equal(out.data, h)

    def test_zero_adapter_without_residual_is_zero(self):
        cfg = ModelConfig(vocab_size=20, adapter_residual=False)
        m = PartitionedModel(cfg, seed=0)
        self.zero_adapter(m)
        h = np.random.default_rng(0).normal(size=(4, cfg.d_model))
        out = m.adapt(Var(h), m.registry.leaf_vars())
        np.testing.assert_array_equal(out.data, np.zeros_like(h))

    def test_hand_computed_bottleneck(self):
        cfg = ModelConfig(vocab_size=20, d_model=4, n_heads=1, adapter_bottleneck=2,
                          adapter_residual=False)
        m = PartitionedModel(cfg, seed=0)
        rng = np.random.default_rng(3)
        down = rng.normal(size=(4, 2))
        up = rng.normal(size=(2, 4))
        m.registry["adapter.down"].value.data = down
        m.registry["adapter.up"].value.data = up
        h = rng.normal(size=(2, 4))
        out = m.adapt(Var(h), m.registry.leaf_vars())
        expected = np.maximum(h @ down, 0.0) @ up
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_width_mismatch(self, small_model):
        with pytest.raises(ad.ShapeMismatchError, match="adapter"):
            small_model.adapt(Var(np.zeros((3, 5))), small_model.registry.leaf_vars())

    def test_identity_adapter_matches_adapter_free_logits(self):
        cfg = ModelConfig(vocab_size=40)
        with_adapter = PartitionedModel(cfg, seed=5)
        without = PartitionedModel(cfg, seed=5, has_adapter=False)
        for pid in with_adapter.registry.ids(Partition.LIGHTWEIGHT):
            with_adapter.registry[pid].value.data[:] = 0.0
        rng = np.random.default_rng(9)
        with_adapter.add_head("t", np.random.default_rng(11))
        without.add_head("t", np.random.default_rng(11))
        ids = rng.integers(2, 40, 6)
        la, _ = with_adapter.logits(ids, np.ones(6, bool), "t")
        lb, _ = without.logits(ids, np.ones(6, bool), "t")
        np.testing.assert_array_equal(la.data, lb.data)


class TestClassify:
    def test_zero_head_gives_uniform_loss(self, small_model):
        m = small_model.clone()
        m.registry["head.t.w"].value.data[:] = 0.0
        m.registry["head.t.b"].value.data[:] = 0.0
        ids = np.array([2, 3, 4])
        loss, _ = m.batch_loss([(ids, np.array([0, 1, 2]))], "t")
        assert float(loss.data) == pytest.approx(np.log(m.config.n_labels), abs=1e-12)

    def test_bio_label_scheme_width(self):
        m = PartitionedModel(ModelConfig(vocab_size=30), seed=0)
        m.add_head("t", np.random.default_rng(0))
        lg, _ = m.logits(np.array([2, 3]), np.ones(2, bool), "t")
        assert lg.data.shape == (2, 7)

    def test_identity_like_head_on_one_hot(self):
        cfg = ModelConfig(vocab_size=10, d_model=8, n_heads=1, n_labels=4)
        m = PartitionedModel(cfg, seed=0)
        m.add_head("t", np.random.default_rng(0))
        w = np.zeros((8, 4))
        w[:4, :4] = np.eye(4)
        m.registry["head.t.w"].value.data = w
        m.registry["head.t.b"].value.data[:] = 0.0
        hot = np.zeros((1, 8))
        hot[0, 2] = 1.0
        out = m.classify(Var(hot), "t", m.registry.leaf_vars())
        assert out.data.argmax() == 2

    def test_unknown_head_rejected(self, small_model):
        with pytest.raises(KeyError, match="nope"):
            small_model.logits(np.array([2]), np.ones(1, bool), "nope")


def fresh_model():
    m = PartitionedModel(ModelConfig(vocab_size=60), seed=0)
    m.add_head("t", np.random.default_rng(1))
    return m


def padded_batch(seed=2):
    rng = np.random.default_rng(seed)
    batch = []
    for n_tokens, n_pad in ((9, 0), (6, 3), (11, 2), (9, 0)):
        ids = rng.integers(2, 60, n_tokens + n_pad)
        labels = np.concatenate([rng.integers(0, 7, n_tokens), np.full(n_pad, -1)])
        batch.append((ids, labels))
    batch.append(batch[0])   # a repeated sequence is served from the stored encodings
    return batch


class TestFreeze:
    def count_encodes(self, model, monkeypatch):
        calls = []
        encode = model.encode

        def counting(*args):
            calls.append(args[0])
            return encode(*args)
        monkeypatch.setattr(model, "encode", counting)
        return calls

    def test_nothing_frozen_by_default_or_after_clone(self):
        m = fresh_model()
        assert m.frozen == ()
        m.freeze((Partition.PRETRAINED,))
        c = m.clone()
        assert c.frozen == ()
        assert all(p.value.data.flags.writeable for p in c.registry)

    def test_memoized_logits_equal_fresh_encode(self, monkeypatch):
        m = fresh_model()
        ids = np.array([5, 9, 2, 17, 30, 8])
        mask = np.array([True, True, True, True, False, False])
        fresh = m.logits(ids, mask, "t")[0].data
        calls = self.count_encodes(m, monkeypatch)
        m.freeze((Partition.PRETRAINED,))
        first = m.logits(ids, mask, "t")[0].data
        second = m.logits(ids, mask, "t")[0].data
        assert first.tobytes() == fresh.tobytes() == second.tobytes()
        assert len(calls) == 1
        m.logits(ids, np.ones(6, bool), "t")        # another pad mask is another input
        assert len(calls) == 2
        m.freeze((Partition.PRETRAINED,))           # freezing again drops the memo
        again = m.logits(ids, mask, "t")[0].data
        assert len(calls) == 3 and again.tobytes() == fresh.tobytes()

    def test_frozen_adapter_alone_does_not_memoize(self, monkeypatch):
        m = fresh_model()
        calls = self.count_encodes(m, monkeypatch)
        m.freeze((Partition.LIGHTWEIGHT,))
        ids = np.array([3, 4, 5])
        m.logits(ids, np.ones(3, bool), "t")
        m.logits(ids, np.ones(3, bool), "t")
        assert len(calls) == 2

    @pytest.mark.parametrize("frozen", [
        (Partition.PRETRAINED,),
        (Partition.PRETRAINED, Partition.LIGHTWEIGHT),
        (Partition.LIGHTWEIGHT,),
    ], ids=["encoder", "encoder+adapter", "adapter"])
    def test_frozen_batch_loss_matches_unfrozen(self, frozen):
        # slow path: an unfrozen model, every gradient computed, then filtered
        batch = padded_batch()
        slow = fresh_model()
        loss, leaves = slow.batch_loss(batch, "t")
        full = ad.grads_for(loss, leaves)
        fast = fresh_model()
        fast.freeze(frozen)
        for _ in range(2):   # the second pass reads the stored encodings
            f_loss, f_leaves = fast.batch_loss(batch, "t")
            got = ad.grads_for(f_loss, f_leaves)
            assert f_loss.data.tobytes() == loss.data.tobytes()
            trainable = [p.id for p in fast.registry if p.partition not in frozen]
            assert list(got) == trainable
            for pid in trainable:
                assert got[pid].tobytes() == full[pid].tobytes(), pid

    def test_write_to_frozen_partition_raises(self):
        m = fresh_model()
        snap = m.registry.snapshot()
        m.freeze((Partition.PRETRAINED, Partition.LIGHTWEIGHT))
        enc, adapter, head = m.registry["enc.0.ffn.w1"], m.registry["adapter.up"], m.registry["head.t.w"]
        enc_tok = m.registry["embed.tok"].value.data
        with pytest.raises(ValueError, match="read-only"):
            enc.value.data[0, 0] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            adapter.value.data -= 1.0
        with pytest.raises(ad.ContractError, match="frozen"):
            enc.value.data = np.zeros_like(enc.value.data)
        with pytest.raises(ad.ContractError, match="frozen"):
            m.registry.restore(snap)
        head.value.data += 1.0                      # a trainable partition stays writable
        m.freeze((Partition.HEAD,))
        with pytest.raises(ad.ContractError, match="head.t.w"):
            m.registry.restore(snap)                # refused before anything is written
        assert head.value.data.tobytes() != snap["head.t.w"].tobytes()
        assert m.registry["embed.tok"].value.data is enc_tok
        m.freeze()
        enc.value.data[0, 0] += 1.0
        m.registry.restore(snap)
        for p in m.registry:
            assert p.value.data.tobytes() == snap[p.id].tobytes()


def labelled_batch(rng, n_seq=6):
    """Sequences of different lengths; about one label in five is -1 (dropped)."""
    batch = []
    for n in rng.integers(3, 15, n_seq):
        labels = rng.integers(0, 7, n)
        labels[rng.random(n) < 0.2] = -1
        labels[0] = max(labels[0], 0)
        batch.append((rng.integers(2, 60, n), labels))
    return batch


def per_sequence_reference(model, batch):
    """Loss and gradients of ``batch_loss`` run one sequence at a time, weighted by token counts."""
    counts = [int(np.count_nonzero(labels >= 0)) for _, labels in batch]
    total = sum(counts)
    loss, grads = 0.0, {}
    for seq, n in zip(batch, counts):
        seq_loss, leaves = model.batch_loss([seq], "t")
        loss += n * float(seq_loss.data) / total
        for pid, g in ad.grads_for(seq_loss, leaves).items():
            grads[pid] = grads.get(pid, 0.0) + n * g / total
    return loss, grads


class TestBatchedEngine:
    @pytest.mark.parametrize("frozen", [
        (),
        (Partition.PRETRAINED,),
        (Partition.PRETRAINED, Partition.LIGHTWEIGHT),
    ], ids=["nothing", "encoder", "encoder+adapter"])
    def test_matches_per_sequence_reference(self, frozen):
        rng = np.random.default_rng(3)
        model, reference = fresh_model(), fresh_model()
        model.freeze(frozen)
        reference.freeze(frozen)
        for _ in range(3):
            batch = labelled_batch(rng)
            loss, leaves = model.batch_loss(batch, "t")
            grads = ad.grads_for(loss, leaves)
            ref_loss, ref_grads = per_sequence_reference(reference, batch)
            assert float(loss.data) == pytest.approx(ref_loss, rel=1e-12)
            assert list(grads) == [p.id for p in model.registry if p.partition not in frozen]
            # relative to the largest entry: attn.wk_b's true gradient is 0,
            # so both engines give it rounding noise only
            tol = 1e-12 * max(np.abs(g).max() for g in ref_grads.values())
            for pid, g in grads.items():
                np.testing.assert_allclose(g, ref_grads[pid], rtol=0, atol=tol, err_msg=pid)

    def test_pad_content_does_not_leak_in_a_batch(self):
        m = fresh_model()
        rng = np.random.default_rng(4)
        ids = rng.integers(2, 60, (3, 8))
        mask = np.ones((3, 8), dtype=bool)
        mask[0, 5:] = mask[2, 3:] = False
        other = np.where(mask, ids, rng.integers(2, 60, ids.shape))
        assert (other != ids).any()
        a = m.logits(ids, mask, "t")[0].data
        b = m.logits(other, mask, "t")[0].data
        assert a[mask].tobytes() == b[mask].tobytes()

    def test_sequence_batched_with_a_longer_one_matches_solo(self):
        m = fresh_model()
        rng = np.random.default_rng(5)
        short, long_ = rng.integers(2, 60, 5), rng.integers(2, 60, 13)
        ids = pad_rows([short, long_], 0)
        mask = pad_rows([np.ones(5, bool), np.ones(13, bool)], False)
        batched = m.logits(ids, mask, "t")[0].data
        solo = m.logits(short, np.ones(5, bool), "t")[0].data
        np.testing.assert_allclose(batched[0, :5], solo, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(m.predict(ids, mask, "t")[1],
                                      m.predict(long_, np.ones(13, bool), "t"))

    def test_frozen_encoder_encodes_only_new_sequences(self, monkeypatch):
        m = fresh_model()
        m.freeze((Partition.PRETRAINED,))
        widths = []
        encode = m.encode

        def counting(ids, mask, leaves):
            widths.append(np.shape(ids))
            return encode(ids, mask, leaves)
        monkeypatch.setattr(m, "encode", counting)
        batch = labelled_batch(np.random.default_rng(6), n_seq=4)
        m.batch_loss(batch[:2], "t")
        m.batch_loss(batch, "t")                   # two stored, two new
        m.batch_loss(batch[::-1], "t")             # all stored
        longest_new = max(len(ids) for ids, _ in batch[2:])
        assert widths == [widths[0], (2, longest_new)]


class TestTrainableFraction:
    def test_head_tuning_formats_to_paper_value(self):
        frac = count_trainable_fraction(MBERT_LIKE, (Partition.HEAD,))
        assert format_fraction_percent(frac) == "3e-3%"

    def test_adapter_tuning_below_threshold(self):
        frac = count_trainable_fraction(
            MBERT_LIKE, (Partition.LIGHTWEIGHT, Partition.HEAD))
        assert 0 < float(frac) * 100 < 0.4

    def test_full_finetuning_is_everything(self):
        frac = count_trainable_fraction(MBERT_LIKE, ALL_PARTITIONS)
        assert frac == 1
        assert format_fraction_percent(frac) == "100%"

    def test_fraction_matches_instantiated_registry(self):
        cfg = ModelConfig(vocab_size=60)
        m = PartitionedModel(cfg, seed=0)
        m.add_head("t", np.random.default_rng(0))
        reg = m.registry
        frac = count_trainable_fraction(cfg, (Partition.LIGHTWEIGHT, Partition.HEAD))
        got = (reg.n_params(Partition.LIGHTWEIGHT) + reg.n_params(Partition.HEAD))
        assert frac.numerator == got
        assert frac.denominator == reg.n_params()


def desk_model():
    """The desk model with every partition active: random adapter, so relu masks bite."""
    m = fresh_model()
    rng = np.random.default_rng(12)
    for pid in m.registry.ids(Partition.LIGHTWEIGHT):
        m.registry[pid].value.data = 0.3 * rng.normal(size=m.registry[pid].value.data.shape)
    return m


def shaped_batch(rng, n_seq, lo, hi):
    """``n_seq`` sequences of lengths in [lo, hi], about one label in ten dropped."""
    batch = []
    for n in rng.integers(lo, hi + 1, n_seq):
        labels = rng.integers(0, 7, n)
        labels[rng.random(n) < 0.1] = -1
        labels[0] = max(labels[0], 0)
        batch.append((rng.integers(2, 60, n), labels))
    return batch


BATCH_SHAPES = {"b1x32": (1, 32, 32), "b8": (8, 3, 20), "b32": (32, 3, 20)}


def loss_and_grads(frozen, shape):
    """Bytes of the loss and of every ``grads_for`` entry, two batches on one model."""
    m = desk_model()
    m.freeze(frozen)
    rng = np.random.default_rng(13)
    out = []
    for _ in range(2):          # with PRETRAINED frozen the second batch reads stored states
        loss, leaves = m.batch_loss(shaped_batch(rng, *BATCH_SHAPES[shape]), "t")
        grads = ad.grads_for(loss, leaves)
        out.append((loss.data.tobytes(), {pid: g.tobytes() for pid, g in grads.items()}))
    return out


@pytest.mark.parametrize("shape", BATCH_SHAPES)
@pytest.mark.parametrize("frozen", [(), (Partition.PRETRAINED,)], ids=["nothing", "encoder"])
class TestFastPathOracles:
    """The kept first gradient and ``ad.linear`` against the slow paths they replace."""

    def test_kept_first_gradient_matches_zero_fill(self, frozen, shape, monkeypatch):
        fast = loss_and_grads(frozen, shape)
        monkeypatch.setattr(Var, "_accum", zero_fill_accum)
        assert loss_and_grads(frozen, shape) == fast

    def test_linear_matches_add_of_matmul(self, frozen, shape, monkeypatch):
        fast = loss_and_grads(frozen, shape)
        monkeypatch.setattr(ad, "linear", lambda x, w, b: ad.add(ad.matmul(x, w), b))
        assert loss_and_grads(frozen, shape) == fast

    def test_gradients_share_no_memory(self, frozen, shape):
        m = desk_model()
        m.freeze(frozen)
        loss, leaves = m.batch_loss(shaped_batch(np.random.default_rng(14), *BATCH_SHAPES[shape]), "t")
        grads = list(ad.grads_for(loss, leaves).values())
        params = [p.value.data for p in m.registry]
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, other) for other in grads[i + 1:] + params)


def test_linear_makes_one_node_per_projection(monkeypatch):
    # 6 projections per encoder layer, 2 in the adapter and the head: one node each, not two
    m = desk_model()
    calls = {"add": 0, "matmul": 0}
    for name in calls:
        def counting(*args, name=name, fn=getattr(ad, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(ad, name, counting)
    m.batch_loss(shaped_batch(np.random.default_rng(15), 2, 4, 6), "t")
    layers = m.config.n_layers
    assert calls == {"add": 1 + 2 * layers + 1, "matmul": 2 * m.config.n_heads * layers}
