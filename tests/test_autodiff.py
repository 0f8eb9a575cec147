import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peprime import autodiff as ad
from peprime.autodiff import Partition, Var
from peprime.model import ModelConfig, PartitionedModel

from gradcheck import finite_difference_check
from graph_helpers import mul, sum_all


def quadratic_loss(w):
    return ad.scale(sum_all(mul(w, w)), 0.5)


class TestPrimitives:
    def test_softmax_symmetry(self):
        out = ad.softmax_rows(Var(np.array([[0.0, 0.0]])), 0.0)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_matmul_identity(self):
        a = np.array([[1.7, -2.0], [0.3, 4.1]])
        out = ad.matmul(Var(np.eye(2)), Var(a))
        np.testing.assert_array_equal(out.data, a)

    def test_cross_entropy_uniform_logits(self):
        loss = ad.cross_entropy_mean(Var(np.zeros((1, 3))), [1], [True])
        assert loss.data == pytest.approx(np.log(3.0), abs=1e-12)

    def test_matmul_shape_error_names_primitive(self):
        with pytest.raises(ad.ShapeMismatchError, match="matmul"):
            ad.matmul(Var(np.zeros((2, 3))), Var(np.zeros((2, 3))))

    def test_add_shape_error(self):
        with pytest.raises(ad.ShapeMismatchError, match=r"add.*\(2, 3\)"):
            ad.add(Var(np.zeros((2, 3))), Var(np.zeros((3, 2))))

    def test_embedding_out_of_range(self):
        with pytest.raises(ad.ContractError, match="out of range"):
            ad.embedding(Var(np.zeros((4, 2))), [5])

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
                    min_size=1, max_size=5).filter(
               lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=100, deadline=None)
    def test_softmax_rows_are_distributions(self, rows):
        out = ad.softmax_rows(Var(np.array(rows)), 0.0)
        assert (out.data >= 0).all()
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


class TestBackward:
    def test_sum_grad_all_ones(self):
        w = Var(np.arange(6.0).reshape(2, 3))
        ad.backward(sum_all(w))
        np.testing.assert_array_equal(w.node.grad, np.ones((2, 3)))

    def test_quadratic_grad(self):
        w = Var(np.array([3.0, 4.0]))
        ad.backward(quadratic_loss(w))
        np.testing.assert_array_equal(w.node.grad, [3.0, 4.0])

    def test_backward_rejects_non_scalar(self):
        with pytest.raises(ad.ContractError, match="scalar"):
            ad.backward(Var(np.zeros(3)))

    def test_backward_is_deterministic(self):
        def run():
            a = Var(np.linspace(-1, 1, 12).reshape(3, 4))
            b = Var(np.linspace(0.5, 2, 8).reshape(4, 2))
            s = ad.softmax_rows(ad.matmul(ad.gelu(a), b), 0.0)
            loss = ad.cross_entropy_mean(s, [0, 1, 0], np.ones(3, dtype=bool))
            ad.backward(loss)
            return a.node.grad.copy(), b.node.grad.copy()
        ga1, gb1 = run()
        ga2, gb2 = run()
        np.testing.assert_array_equal(ga1, ga2)
        np.testing.assert_array_equal(gb1, gb2)

    def test_grads_for_returns_zeros_off_tape(self):
        w = Var(np.array([1.0]))
        unused = Var(np.array([2.0, 3.0]))
        grads = ad.grads_for(quadratic_loss(w), {"w": w, "unused": unused})
        np.testing.assert_array_equal(grads["unused"], np.zeros(2))

    def test_var_passed_as_parent_is_named(self):
        w = Var(np.array([1.5]))
        wrong = Var(w.data * 2.0, (w,), lambda g: w.node._accum(g * 2.0))
        with pytest.raises(ad.ContractError, match=r"parents' nodes \(var.node\)"):
            ad.backward(sum_all(wrong))

    def test_grad_accumulates_over_reuse(self):
        # y = w + w => dy/dw = 2
        w = Var(np.array([1.5]))
        ad.backward(sum_all(ad.add(w, w)))
        np.testing.assert_array_equal(w.node.grad, [2.0])

    def test_composed_ops_match_finite_differences(self):
        rng = np.random.default_rng(0)
        reg = ad.ParameterRegistry()
        reg.add("w1", rng.normal(size=(4, 3)), Partition.PRETRAINED)
        reg.add("g", np.ones(3), Partition.PRETRAINED)
        reg.add("b", np.zeros(3), Partition.PRETRAINED)
        x = rng.normal(size=(5, 4))

        def loss_fn(registry):
            leaves = registry.leaf_vars()
            h = ad.layer_norm(ad.matmul(Var(x), leaves["w1"]), leaves["g"], leaves["b"])
            h = ad.softmax_rows(ad.gelu(h), 0.0)
            loss = ad.cross_entropy_mean(h, [0, 1, 2, 1, 0], np.ones(5, dtype=bool))
            return loss, leaves

        worst = finite_difference_check(loss_fn, reg, epsilon=1e-5)
        assert all(err <= 1e-4 for err, _ in worst.values()), worst


def _binary_cases():
    """(name, operand arrays, graph function) for every primitive with several operands."""
    rng = np.random.default_rng(11)
    x, w, v = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=4)
    y = rng.normal(size=(3, 2))
    return [
        ("matmul", (x, w), lambda a, b: ad.matmul(a, b)),
        ("add", (x, x + 1.0), lambda a, b: ad.add(a, b)),
        ("add_row_broadcast", (x, v), lambda a, b: ad.add(a, b)),
        ("concat_cols", (x, y), lambda a, b: ad.concat_cols([a, b])),
        ("layer_norm", (x, v + 1.0, v), lambda a, g, b: ad.layer_norm(a, g, b)),
        ("linear", (x, w, y[0].copy()), lambda a, w, b: ad.linear(a, w, b)),
    ]


def _scalar_loss(out):
    # a nonlinear readout so every operand gets a nontrivial gradient
    return sum_all(ad.gelu(out))


class TestPrunedBackward:
    def test_requires_grad_propagates(self):
        t = Var(np.ones((2, 2)))
        f = Var(np.ones((2, 2)), requires_grad=False)
        assert t.node.requires_grad and not f.node.requires_grad
        assert ad.matmul(t, f).node.requires_grad and ad.matmul(f, t).node.requires_grad
        assert not ad.matmul(f, f).node.requires_grad
        assert not ad.relu(ad.scale(f, 2.0)).node.requires_grad
        assert ad.concat_cols([f, f, t]).node.requires_grad
        assert not ad.layer_norm(f, Var(np.ones(2), requires_grad=False),
                                 Var(np.zeros(2), requires_grad=False)).node.requires_grad

    def test_frozen_leaves_get_no_entry(self):
        w = Var(np.array([[1.0, 2.0]]))
        frozen = Var(np.array([[3.0], [4.0]]), requires_grad=False)
        unused = Var(np.array([5.0]))
        grads = ad.grads_for(sum_all(ad.matmul(w, frozen)),
                             {"w": w, "frozen": frozen, "unused": unused})
        assert set(grads) == {"w", "unused"}
        np.testing.assert_array_equal(grads["w"], [[3.0, 4.0]])
        np.testing.assert_array_equal(grads["unused"], [0.0])
        assert frozen.node.grad is None

    def test_loss_without_trainable_leaves_is_a_no_op(self):
        f = Var(np.array([1.0, 2.0]), requires_grad=False)
        loss = quadratic_loss(f)
        assert ad.grads_for(loss, {"f": f}) == {}
        assert loss.node.grad is None and f.node.grad is None

    @pytest.mark.parametrize("case", range(len(_binary_cases())),
                             ids=[c[0] for c in _binary_cases()])
    def test_each_operand_alone_matches_full_backward(self, case):
        _, arrays, build = _binary_cases()[case]
        full = [Var(a) for a in arrays]
        ad.backward(_scalar_loss(build(*full)))
        for keep in range(len(arrays)):
            pruned = [Var(a, requires_grad=(i == keep)) for i, a in enumerate(arrays)]
            ad.backward(_scalar_loss(build(*pruned)))
            assert pruned[keep].node.grad.tobytes() == full[keep].node.grad.tobytes()
            assert all(p.node.grad is None for i, p in enumerate(pruned) if i != keep)

    @pytest.mark.parametrize("frozen", [
        (Partition.PRETRAINED,),
        (Partition.PRETRAINED, Partition.LIGHTWEIGHT),
    ], ids=["encoder", "encoder+adapter"])
    def test_desk_model_pruned_grads_match_full_backward(self, frozen):
        # the slow path: build the whole graph with every leaf trainable
        model = PartitionedModel(ModelConfig(vocab_size=60), seed=0)
        model.add_head("t", np.random.default_rng(1))
        rng = np.random.default_rng(2)
        batch = []
        for n_tokens, n_pad in ((9, 0), (7, 3), (12, 1)):
            ids = rng.integers(2, 60, n_tokens + n_pad)
            labels = np.concatenate([rng.integers(0, 7, n_tokens), np.full(n_pad, -1)])
            batch.append((ids, labels))

        def loss_for(leaves):
            total = None
            for ids, labels in batch:
                keep = labels >= 0
                lg, _ = model.logits([ids], [keep], "t", leaves)
                ce = ad.cross_entropy_mean(lg, np.where(keep, labels, 0)[None], keep[None])
                total = ce if total is None else ad.add(total, ce)
            return total

        def grads(frozen_partitions):
            leaves = model.registry.leaf_vars(frozen_partitions)
            return ad.grads_for(loss_for(leaves), leaves)

        full, pruned = grads(()), grads(frozen)
        trainable = [p.id for p in model.registry if p.partition not in frozen]
        assert list(pruned) == trainable
        for pid in trainable:
            assert pruned[pid].tobytes() == full[pid].tobytes(), pid


def _batched_cases():
    """(name, operand arrays, graph function) on 3-d and 4-d inputs with padding."""
    rng = np.random.default_rng(5)
    lin = np.random.default_rng(6)      # linear's operands, so the other cases keep their data
    cases = []
    for lead in ((2,), (2, 3)):
        x = rng.normal(size=lead + (4, 5))
        keep = np.ones(lead + (4,), dtype=bool)
        keep[..., -1] = False                       # a padded position in every row
        keep[(0,) * len(lead) + (2,)] = False
        key_mask = np.where(keep, 0.0, -1e9)[..., None, :]
        gold = rng.integers(0, 5, lead + (4,))
        ids = rng.integers(0, 6, lead + (4,))
        tag = f"{len(lead) + 2}d"
        cases += [
            (f"matmul_shared_{tag}", (x, rng.normal(size=(5, 3))), ad.matmul),
            (f"matmul_batched_{tag}", (x, rng.normal(size=lead + (5, 3))), ad.matmul),
            (f"add_{tag}", (x, rng.normal(size=x.shape)), ad.add),
            (f"add_broadcast_{tag}", (x, rng.normal(size=5)), ad.add),
            (f"transpose_{tag}", (x,), ad.transpose),
            (f"slice_cols_{tag}", (x,), lambda a: ad.slice_cols(a, 1, 4)),
            (f"concat_cols_{tag}", (x, rng.normal(size=lead + (4, 2))),
             lambda a, b: ad.concat_cols([a, b])),
            (f"softmax_rows_{tag}", (rng.normal(size=lead + (4, 4)),),
             lambda a, m=key_mask: ad.softmax_rows(a, additive_mask=m)),
            (f"layer_norm_{tag}", (x, rng.normal(size=5) + 1.0, rng.normal(size=5)),
             ad.layer_norm),
            (f"embedding_{tag}", (rng.normal(size=(6, 5)),),
             lambda t, ids=ids: ad.embedding(t, ids)),
            (f"cross_entropy_{tag}", (x,),
             lambda a, gold=gold, keep=keep: ad.cross_entropy_mean(a, gold, keep)),
            (f"linear_{tag}", (x, lin.normal(size=(5, 3)), lin.normal(size=3)), ad.linear),
        ]
    return cases


class TestBatchedPrimitives:
    @pytest.mark.parametrize("case", range(len(_batched_cases())),
                             ids=[c[0] for c in _batched_cases()])
    def test_matches_finite_differences(self, case):
        _, arrays, build = _batched_cases()[case]
        reg = ad.ParameterRegistry()
        for i, a in enumerate(arrays):
            reg.add(f"x{i}", a, Partition.HEAD)

        def loss_fn(registry):
            leaves = registry.leaf_vars()
            out = build(*leaves.values())
            return (out if out.data.shape == () else _scalar_loss(out)), leaves

        worst = finite_difference_check(loss_fn, reg, epsilon=1e-5)
        assert all(err <= 1e-5 for err, _ in worst.values()), worst

    def test_2d_slices_of_a_batch_match_2d_graphs(self):
        # one graph over a stack of 2-d inputs gives each slice its 2-d value
        for name, arrays, build in _binary_cases():
            if name not in ("matmul", "add", "concat_cols"):
                continue
            shared = name == "matmul"   # the weight stays 2-d and is shared
            stacked = [np.stack([arrays[0], arrays[0][::-1]])] + [
                a if shared else np.stack([a, a[::-1]]) for a in arrays[1:]]
            out = build(*[Var(a) for a in stacked]).data
            assert out[0].tobytes() == build(*[Var(a) for a in arrays]).data.tobytes(), name

    def test_shape_checks_stay(self):
        x = Var(np.zeros((2, 3, 4)))
        with pytest.raises(ad.ShapeMismatchError, match="matmul"):
            ad.matmul(x, Var(np.zeros((3, 4, 2))))     # batch axes differ
        with pytest.raises(ad.ShapeMismatchError, match="add"):
            ad.add(x, Var(np.zeros(3)))
        with pytest.raises(ad.ShapeMismatchError, match="concat_cols"):
            ad.concat_cols([x, Var(np.zeros((2, 2, 4)))])
        with pytest.raises(ad.ShapeMismatchError, match="layer_norm"):
            ad.layer_norm(x, Var(np.ones(3)), Var(np.zeros(3)))
        with pytest.raises(ad.ShapeMismatchError, match="cross_entropy"):
            ad.cross_entropy_mean(x, np.zeros((2, 3), int), np.ones((2, 4), bool))
        with pytest.raises(ad.ShapeMismatchError, match="transpose"):
            ad.transpose(Var(np.zeros(3)))
        with pytest.raises(ad.ShapeMismatchError, match="linear"):
            ad.linear(x, Var(np.zeros((4, 2))), Var(np.zeros(3)))     # bias width
        with pytest.raises(ad.ShapeMismatchError, match="linear"):
            ad.linear(x, Var(np.zeros((2, 4, 2))), Var(np.zeros(2)))  # weight not 2-d


def use_zero_fill(monkeypatch):
    """Patch ``Node._accum`` to the slow path it replaced: zero-fill a new array, then add
    in place. Returns a list that gains one entry per patched call."""
    calls = []

    def zero_fill_accum(node, g):
        calls.append(None)
        if node.grad is None:
            node.grad = np.zeros(np.shape(g))
        node.grad += g

    monkeypatch.setattr(ad.Node, "_accum", zero_fill_accum)
    return calls


def fan_out_graph(table, w, sib, add_first):
    """``h`` feeds an ``add`` with ``sib`` and two overlapping ``slice_cols``; ``table`` is read twice."""
    e = ad.add(ad.embedding(table, [[0, 2, 2], [1, 0, 3]]), ad.embedding(table, [[3, 3, 1], [0, 1, 2]]))
    h = ad.matmul(e, w)
    parts = [ad.add(h, sib), ad.slice_cols(h, 0, 3), ad.slice_cols(h, 1, 4)]
    if not add_first:
        parts = parts[::-1]
    return ad.concat_cols(parts)


class TestSharedGradients:
    """A first gradient is kept by reference, so no backward may write into one in place."""

    @pytest.fixture()
    def operands(self):
        rng = np.random.default_rng(8)
        return rng.normal(size=(4, 3)), rng.normal(size=(3, 4)), rng.normal(size=(2, 3, 4))

    @pytest.mark.parametrize("add_first", [True, False], ids=["add_first", "slices_first"])
    def test_fan_out_matches_finite_differences(self, operands, add_first):
        reg = ad.ParameterRegistry()
        for name, a in zip(("table", "w", "sib"), operands):
            reg.add(name, a, Partition.HEAD)

        def loss_fn(registry):
            leaves = registry.leaf_vars()
            return _scalar_loss(fan_out_graph(*leaves.values(), add_first)), leaves

        worst = finite_difference_check(loss_fn, reg, epsilon=1e-5)
        assert all(err <= 1e-5 for err, _ in worst.values()), worst

    @pytest.mark.parametrize("add_first", [True, False], ids=["add_first", "slices_first"])
    def test_sibling_gradient_left_untouched(self, operands, add_first):
        table, w, sib = (Var(a) for a in operands)
        ad.backward(_scalar_loss(fan_out_graph(table, w, sib, add_first)))
        # the same graph with h's inputs frozen: nothing accumulates into h
        alone = Var(operands[2])
        ad.backward(_scalar_loss(fan_out_graph(Var(operands[0], requires_grad=False),
                                               Var(operands[1], requires_grad=False),
                                               alone, add_first)))
        assert sib.node.grad.tobytes() == alone.node.grad.tobytes()
        assert not np.shares_memory(sib.node.grad, w.node.grad)
        assert not np.shares_memory(sib.node.grad, table.node.grad)

    @pytest.mark.parametrize("add_first", [True, False], ids=["add_first", "slices_first"])
    def test_fan_out_matches_zero_fill(self, operands, add_first, monkeypatch):
        def grads():
            leaves = [Var(a) for a in operands]
            ad.backward(_scalar_loss(fan_out_graph(*leaves, add_first)))
            return [v.node.grad.tobytes() for v in leaves]
        fast = grads()
        calls = use_zero_fill(monkeypatch)
        assert grads() == fast
        assert calls

    @pytest.mark.parametrize("case", range(len(_batched_cases())),
                             ids=[c[0] for c in _batched_cases()])
    def test_primitives_match_zero_fill(self, case, monkeypatch):
        # zero-fill adds the first gradient to +0.0, which turns a -0.0 (a
        # masked softmax key, say) into +0.0 and leaves every other value as
        # it is; adding 0.0 to the kept gradient does the same
        _, arrays, build = _batched_cases()[case]

        def grads():
            leaves = [Var(a) for a in arrays]
            out = build(*leaves)
            ad.backward(out if out.data.shape == () else _scalar_loss(out))
            return [v.node.grad for v in leaves]
        fast = [(g + 0.0).tobytes() for g in grads()]
        calls = use_zero_fill(monkeypatch)
        assert [g.tobytes() for g in grads()] == fast
        assert calls


class TestNoTape:
    def test_no_grad_nodes_keep_no_parents_or_closures(self):
        frozen = [Var(np.ones((2, 3, 3)), requires_grad=False) for _ in range(2)]
        out = ad.softmax_rows(ad.matmul(*frozen), 0.0)
        assert not out.node.requires_grad
        assert out.node is ad.NO_GRAD
        assert ad.NO_GRAD.parents == () and ad.NO_GRAD.backward is None

    def test_no_grad_forward_of_the_model_keeps_no_tape(self):
        model = PartitionedModel(ModelConfig(vocab_size=60), seed=0)
        model.add_head("t", np.random.default_rng(1))
        seen = []
        matmul = ad.matmul

        def spy(a, b):
            out = matmul(a, b)
            seen.append(out)
            return out
        leaves = model.registry.leaf_vars(tuple(Partition))
        ids = np.random.default_rng(2).integers(2, 60, (3, 7))
        try:
            ad.matmul = spy
            lg, _ = model.logits(list(ids), list(ids > 5), "t", leaves)
        finally:
            ad.matmul = matmul
        assert seen and all(v.node is ad.NO_GRAD for v in seen + [lg])
        assert ad.NO_GRAD.parents == () and ad.NO_GRAD.backward is None

    def test_backward_keeps_only_leaf_grads(self):
        w = Var(np.array([[1.0, 2.0]]))
        x = Var(np.array([[3.0], [4.0]]))
        hidden = ad.matmul(w, x)
        loss = sum_all(ad.gelu(hidden))
        ad.backward(loss)
        assert w.node.grad is not None and x.node.grad is not None
        assert hidden.node.grad is None and loss.node.grad is None


class TestRegistry:
    def make_registry(self):
        rng = np.random.default_rng(7)
        reg = ad.ParameterRegistry()
        reg.add("enc.w", rng.normal(size=(3, 3)), Partition.PRETRAINED)
        reg.add("adapter.w", rng.normal(size=(3, 2)), Partition.LIGHTWEIGHT)
        reg.add("head.w", rng.normal(size=(2,)), Partition.HEAD)
        return reg

    def test_duplicate_id_rejected(self):
        reg = self.make_registry()
        with pytest.raises(ad.ContractError, match="duplicate"):
            reg.add("enc.w", np.zeros(1), Partition.PRETRAINED)

    def test_iteration_order_is_insertion_order(self):
        reg = self.make_registry()
        assert [p.id for p in reg] == ["enc.w", "adapter.w", "head.w"]

    def test_snapshot_restore_bit_exact(self):
        reg = self.make_registry()
        snap = reg.snapshot()
        before = {p.id: p.value.data.copy() for p in reg}
        for p in reg:
            p.value.data += np.pi
        reg.restore(snap)
        for p in reg:
            np.testing.assert_array_equal(p.value.data, before[p.id])
            assert p.value.data.tobytes() == before[p.id].tobytes()


def write_raw_checkpoint(path, entries, payload_floats):
    """A checkpoint file in the saved layout, with any header entries and a valid digest."""
    header = json.dumps({"format_version": 2, "config_hash": "h", "params": entries},
                        sort_keys=True).encode("utf-8")
    blob = (b"PPCK" + struct.pack("<IQ", 2, len(header)) + header
            + np.zeros(payload_floats).tobytes())
    path.write_bytes(blob + hashlib.sha256(blob).digest())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        reg = TestRegistry().make_registry()
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(reg, path, config_hash="abc123")
        loaded = ad.load_checkpoint(path, expected_config_hash="abc123")
        assert [p.id for p in loaded] == [p.id for p in reg]
        for p, q in zip(reg, loaded):
            assert p.partition is q.partition
            assert p.value.data.tobytes() == q.value.data.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        reg = TestRegistry().make_registry()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ad.save_checkpoint(reg, a, "h")
        ad.save_checkpoint(reg, b, "h")
        assert a.read_bytes() == b.read_bytes()

    def test_config_hash_mismatch_rejected(self, tmp_path):
        reg = TestRegistry().make_registry()
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(reg, path, config_hash="abc123")
        with pytest.raises(ad.CheckpointError, match="config hash"):
            ad.load_checkpoint(path, expected_config_hash="other")

    def test_damaged_config_hash_is_damage(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(TestRegistry().make_registry(), path, config_hash="abc123")
        blob = path.read_bytes()
        assert blob.count(b'"abc123"') == 1
        path.write_bytes(blob.replace(b'"abc123"', b'"zbc123"'))
        with pytest.raises(ad.CheckpointError, match="checksum mismatch"):
            ad.load_checkpoint(path, expected_config_hash="abc123")

    def test_interrupted_overwrite_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        reg = TestRegistry().make_registry()
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(reg, path, "h")
        before = path.read_bytes()
        for p in reg:
            p.value.data = p.value.data + 1.0

        def interrupt(blob):   # strikes between the payload and its digest
            raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setattr(ad.hashlib, "sha256", interrupt)
            with pytest.raises(KeyboardInterrupt):
                ad.save_checkpoint(reg, path, "h")
        assert path.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["model.ckpt"]
        ad.load_checkpoint(path, "h")

    @pytest.mark.parametrize("damage,match", [
        (lambda blob: blob[:10], "truncated header"),
        (lambda blob: blob[:-5], "truncated payload"),
        (lambda blob: blob + b"\0" * 8, "trailing bytes"),
        # the lowest byte of the last float64: still a valid number
        (lambda blob: blob[:-40] + bytes([blob[-40] ^ 1]) + blob[-39:], "checksum mismatch"),
        # the layout before the checksum: version 1, no digest
        (lambda blob: blob[:4] + struct.pack("<I", 1) + blob[8:-32],
         "unsupported format version 1"),
    ], ids=["short_header", "truncated_payload", "trailing_bytes", "changed_payload_byte",
            "version_1"])
    def test_damaged_file_rejected(self, tmp_path, damage, match):
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(TestRegistry().make_registry(), path, "h")
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ad.CheckpointError, match=match):
            ad.load_checkpoint(path, "h")

    @pytest.mark.parametrize("entry,payload_floats,match", [
        ({"id": "w", "shape": [-1, -2]}, 2, "malformed header"),
        ({"id": "w", "shape": [0.5]}, 0, "malformed header"),
        ({"id": "w", "shape": [True, 2]}, 2, "malformed header"),
        ({"id": "w", "shape": "2"}, 2, "malformed header"),
        ({"id": ["w"], "shape": [2]}, 2, "malformed header"),
        ({"id": 7, "shape": [2]}, 2, "malformed header"),
        # a size past int64 must not wrap around to the payload's length
        ({"id": "w", "shape": [2 ** 40, 2 ** 40]}, 0, "truncated payload"),
    ], ids=["negative_dims", "float_dim", "bool_dim", "string_shape", "list_id", "int_id",
            "size_overflow"])
    def test_malformed_entry_rejected(self, tmp_path, entry, payload_floats, match):
        path = tmp_path / "bad.ckpt"
        write_raw_checkpoint(path, [{"partition": "head", **entry}], payload_floats)
        with pytest.raises(ad.CheckpointError, match=match):
            ad.load_checkpoint(path, "h")

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.ckpt"
        entry = {"id": "w", "partition": "head", "shape": [1]}
        write_raw_checkpoint(path, [entry, entry], 2)
        with pytest.raises(ad.CheckpointError, match="ids must be unique strings"):
            ad.load_checkpoint(path, "h")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"garbage")
        with pytest.raises(ad.CheckpointError, match="not a checkpoint"):
            ad.load_checkpoint(path, "h")


def saved_model_checkpoint(path):
    """File bytes of a small model with every partition."""
    cfg = ModelConfig(vocab_size=6, d_model=2, n_layers=1, n_heads=1, d_ff=2,
                      max_seq_len=3, adapter_bottleneck=1)
    model = PartitionedModel(cfg, seed=0)
    model.add_head("target", np.random.default_rng(1))
    ad.save_checkpoint(model.registry, path, "h")
    return path.read_bytes()


class TestCheckpointFuzz:
    """A damaged checkpoint file ends in ``CheckpointError``, never in another exception.

    The sha256 at the end of the file covers every byte before it, so a
    changed byte is rejected wherever it is: in the header, the payload or
    the digest itself.
    """

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        blob = saved_model_checkpoint(path)
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(ad.CheckpointError):
                ad.load_checkpoint(path, "h")

    @settings(max_examples=50, deadline=None)
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_appended_bytes_rejected(self, tmp_path_factory, extra):
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        blob = saved_model_checkpoint(path)
        path.write_bytes(blob + extra)
        with pytest.raises(ad.CheckpointError, match="trailing bytes"):
            ad.load_checkpoint(path, "h")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_changed_byte_rejected(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        blob = saved_model_checkpoint(path)
        i = data.draw(st.integers(0, len(blob) - 1), label="offset")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[i]), label="byte")
        path.write_bytes(blob[:i] + bytes([byte]) + blob[i + 1:])
        with pytest.raises(ad.CheckpointError):
            ad.load_checkpoint(path, "h")
