import numpy as np
import pytest

from peprime import autodiff as ad
from peprime import data as D
from peprime.autodiff import Partition
from peprime.model import PartitionedModel
from peprime.priming import (
    SHARED_HEAD,
    AdamW,
    PrimingConfig,
    TrainingDiverged,
    ft_prime,
    inner_adapt,
    outer_step,
    prime,
)


class QuadraticModel:
    """Scalar toy with loss 0.5*(theta_a^2 + theta_p^2 + theta_h^2)."""

    config = None
    has_adapter = True

    def __init__(self, registry=None):
        self.frozen = frozenset()
        if registry is not None:
            self.registry = registry
            return
        self.registry = ad.ParameterRegistry()
        self.registry.add("enc.w", np.array([2.0]), Partition.PRETRAINED)
        self.registry.add("adapter.w", np.array([1.0]), Partition.LIGHTWEIGHT)
        self.registry.add(f"head.{SHARED_HEAD}.w", np.array([0.5]), Partition.HEAD)

    def clone(self):
        return QuadraticModel(self.registry.deep_copy())

    def head_names(self):
        return [SHARED_HEAD]

    def head_ids(self, name):
        return [f"head.{name}.w"]

    def freeze(self, partitions=()):
        self.frozen = frozenset(partitions)

    def batch_loss(self, batch, head):
        leaves = self.registry.leaf_vars(self.frozen)
        total = None
        for v in leaves.values():
            term = ad.scale(ad.sum_all(ad.mul(v, v)), 0.5)
            total = term if total is None else ad.add(total, term)
        return total, leaves


def toy_task(n=12):
    payload = [(np.array([0]), np.array([0]))] * n
    return D.MetaTask("toy", support=list(payload), query=list(payload))


class RecordingOptimizer:
    """Captures the gradient outer_step applies without changing parameters."""

    def __init__(self):
        self.grads = None
        self.lr = None

    def step(self, registry, grads, lr):
        self.grads = grads
        self.lr = lr


def cfg(**kw):
    base = dict(alpha=0.03, beta=1e-3, inner_steps=5, tasks_per_outer_batch=2,
                outer_steps=5, support_batch_size=4, query_batch_size=4, seed=0)
    base.update(kw)
    return PrimingConfig(**base)


class TestInnerAdapt:
    def test_one_step_sgd_arithmetic(self):
        model = QuadraticModel()
        result = inner_adapt(model, toy_task(), cfg(inner_steps=1),
                             np.random.default_rng(0))
        reg = result.adapted.registry
        assert reg["adapter.w"].value.data[0] == pytest.approx(0.97, abs=1e-15)
        assert reg[f"head.{SHARED_HEAD}.w"].value.data[0] == pytest.approx(0.485, abs=1e-15)

    def test_five_step_sgd_arithmetic(self):
        model = QuadraticModel()
        result = inner_adapt(model, toy_task(), cfg(inner_steps=5),
                             np.random.default_rng(0))
        got = result.adapted.registry["adapter.w"].value.data[0]
        assert got == pytest.approx(0.97 ** 5, abs=1e-15)
        assert got == pytest.approx(0.8587, abs=1e-4)

    def test_pe_sim_freezes_pretrained_bit_exactly(self):
        model = small_real_model()
        task = real_task(model)
        before = {pid: model.registry[pid].value.data.copy()
                  for pid in model.registry.ids(Partition.PRETRAINED)}
        result = inner_adapt(model, task, cfg(), np.random.default_rng(1))
        for pid, arr in before.items():
            got = result.adapted.registry[pid].value.data
            assert got.tobytes() == arr.tobytes()

    def test_pe_sim_matches_unfrozen_reference_loop(self):
        # the slow path: plain SGD on an unfrozen clone, every gradient computed
        model = small_real_model()
        task = real_task(model)
        c = cfg(inner_steps=4, support_batch_size=3)
        result = inner_adapt(model, task, c, np.random.default_rng(5))
        expected = model.clone()
        light = expected.registry.ids(Partition.LIGHTWEIGHT) + expected.head_ids(SHARED_HEAD)
        batches = task.support_batches(c.support_batch_size, np.random.default_rng(5))
        losses = []
        for _ in range(c.inner_steps):
            loss, leaves = expected.batch_loss(next(batches), SHARED_HEAD)
            losses.append(float(loss.data))
            grads = ad.grads_for(loss, leaves)
            for pid in light:
                expected.registry[pid].value.data -= c.alpha * grads[pid]
        # memoized states come from batches of other widths than a fresh
        # encode, so they agree to rounding, not bit for bit
        np.testing.assert_allclose(result.support_losses, losses, rtol=1e-12)
        assert result.adapted.frozen == ()
        for p in expected.registry:
            np.testing.assert_allclose(result.adapted.registry[p.id].value.data, p.value.data,
                                       rtol=1e-10, atol=1e-13, err_msg=p.id)

    def test_full_maml_updates_pretrained(self):
        model = small_real_model()
        task = real_task(model)
        result = inner_adapt(model, task, cfg(inner_mode="full_maml"),
                             np.random.default_rng(1))
        moved = [pid for pid in model.registry.ids(Partition.PRETRAINED)
                 if not np.array_equal(result.adapted.registry[pid].value.data,
                                       model.registry[pid].value.data)]
        assert moved

    def test_zero_steps_returns_snapshot_unchanged(self):
        model = QuadraticModel()
        result = inner_adapt(model, toy_task(), cfg(inner_steps=0),
                             np.random.default_rng(0))
        assert result.adapted is not model
        for p in model.registry:
            np.testing.assert_array_equal(
                result.adapted.registry[p.id].value.data, p.value.data)

    def test_empty_support_rejected(self):
        task = D.MetaTask("empty", support=[], query=[(np.array([0]), np.array([0]))])
        with pytest.raises(ValueError, match="empty support"):
            inner_adapt(QuadraticModel(), task, cfg(), np.random.default_rng(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_inner_step(self):
        # the first step's SGD update of 1e300 overflows the second support loss
        with pytest.raises(TrainingDiverged, match=r"at inner step 1, task 'toy'") as exc:
            inner_adapt(QuadraticModel(), toy_task(), cfg(alpha=1e300),
                        np.random.default_rng(0))
        assert exc.value.loop == "inner step" and exc.value.step == 1
        with pytest.raises(TrainingDiverged, match=r"at outer step 3, inner step 1, task 'toy'"):
            outer_step(QuadraticModel(), [toy_task()], cfg(alpha=1e300), RecordingOptimizer(),
                       lr=1e-3, rng=np.random.default_rng(0), step_index=3)


class TestOuterStep:
    def test_quadratic_meta_gradient_two_pass_oracle(self):
        model = QuadraticModel()
        rec = RecordingOptimizer()
        outer_step(model, [toy_task()], cfg(inner_steps=5), rec, lr=1e-3,
                   rng=np.random.default_rng(0))
        # two-pass oracle: adapt by hand, then query gradient at the
        # adapted point; theta_p was frozen during adaptation
        adapted_a = 1.0 * 0.97 ** 5
        assert rec.grads["adapter.w"][0] == adapted_a
        assert rec.grads["enc.w"][0] == 2.0

    def test_two_identical_tasks_double_the_gradient(self):
        rec1, rec2 = RecordingOptimizer(), RecordingOptimizer()
        outer_step(QuadraticModel(), [toy_task()], cfg(), rec1, lr=1e-3,
                   rng=np.random.default_rng(0))
        outer_step(QuadraticModel(), [toy_task(), toy_task()], cfg(), rec2, lr=1e-3,
                   rng=np.random.default_rng(0))
        for pid in ("adapter.w", "enc.w"):
            np.testing.assert_array_equal(rec2.grads[pid], 2.0 * rec1.grads[pid])

    def test_zero_inner_steps_reduces_to_query_gradient(self):
        model = QuadraticModel()
        rec = RecordingOptimizer()
        outer_step(model, [toy_task()], cfg(inner_steps=0), rec, lr=1e-3,
                   rng=np.random.default_rng(0))
        assert rec.grads["adapter.w"][0] == 1.0
        assert rec.grads["enc.w"][0] == 2.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ad.ContractError, match="empty task batch"):
            outer_step(QuadraticModel(), [], cfg(), RecordingOptimizer(), 1e-3,
                       np.random.default_rng(0))

    def test_real_model_matches_independent_two_pass_oracle(self):
        # bit-exact equality of the full outer step (gradients, AdamW
        # update, head hand-off) against a re-implementation
        model = small_real_model()
        tasks = [real_task(model, seed=0), real_task(model, seed=1)]
        c = cfg(inner_steps=2, support_batch_size=2, query_batch_size=3)
        meta_ids = (model.registry.ids(Partition.PRETRAINED)
                    + model.registry.ids(Partition.LIGHTWEIGHT))

        actual = model.clone()
        outer_step(actual, tasks, c, AdamW(meta_ids), lr=1e-3,
                   rng=np.random.default_rng(42))

        expected = model.clone()
        rng = np.random.default_rng(42)
        summed = {}
        first_head = None
        for task in tasks:
            adapted = inner_adapt(expected, task, c, rng).adapted
            if first_head is None:
                first_head = adapted
            qbatch = task.query_batch(c.query_batch_size, rng)
            loss, leaves = adapted.batch_loss(qbatch, SHARED_HEAD)
            grads = ad.grads_for(loss, leaves)
            for pid in meta_ids:
                summed[pid] = summed.get(pid, 0.0) + grads[pid]
        AdamW(meta_ids).step(expected.registry, summed, 1e-3)
        for pid in expected.head_ids(SHARED_HEAD):
            expected.registry[pid].value.data = first_head.registry[pid].value.data.copy()

        for p in expected.registry:
            assert actual.registry[p.id].value.data.tobytes() == p.value.data.tobytes(), p.id

    def test_head_handoff_takes_first_task_head(self):
        model = small_real_model()
        tasks = [real_task(model, seed=0), real_task(model, seed=1)]
        c = cfg(inner_steps=2, support_batch_size=2)
        before = {pid: model.registry[pid].value.data.copy()
                  for pid in model.head_ids(SHARED_HEAD)}
        outer_step(model, tasks, c, AdamW([]), lr=1e-3, rng=np.random.default_rng(7))
        changed = [pid for pid, arr in before.items()
                   if not np.array_equal(model.registry[pid].value.data, arr)]
        assert changed  # the adapted head of task 1 replaced the shared head


class TestPrime:
    def test_outer_steps_zero_is_identity(self):
        model = small_real_model()
        out = prime(model, [real_task(model)], cfg(outer_steps=0))
        for p in model.registry:
            assert out.registry[p.id].value.data.tobytes() == p.value.data.tobytes()

    def test_only_encoder_and_adapter_move(self):
        model = small_real_model()
        out = prime(model, [real_task(model)], cfg(outer_steps=3))
        moved_partitions = {
            model.registry[p.id].partition
            for p in out.registry if p.id in model.registry
            and not np.array_equal(p.value.data, model.registry[p.id].value.data)
        }
        assert moved_partitions <= {Partition.PRETRAINED, Partition.LIGHTWEIGHT,
                                    Partition.HEAD}
        assert Partition.PRETRAINED in moved_partitions
        assert Partition.LIGHTWEIGHT in moved_partitions

    def test_seeded_bit_determinism(self):
        model = small_real_model()
        tasks = [real_task(model, seed=0), real_task(model, seed=1)]
        a = prime(model, tasks, cfg(outer_steps=4, seed=5))
        b = prime(model, tasks, cfg(outer_steps=4, seed=5))
        c2 = prime(model, tasks, cfg(outer_steps=4, seed=6))
        same = all(a.registry[p.id].value.data.tobytes() == p.value.data.tobytes()
                   for p in b.registry)
        diff = any(a.registry[p.id].value.data.tobytes() != p.value.data.tobytes()
                   for p in c2.registry)
        assert same and diff

    def test_log_records_schema(self):
        model = small_real_model()
        log = []
        prime(model, [real_task(model)], cfg(outer_steps=2), log=log)
        assert len(log) == 2  # one task per batch available
        rec = log[0]
        assert set(rec) == {"outer_step", "task_id", "support_loss_per_inner_step",
                            "query_loss", "grad_norms", "beta_current"}
        assert len(rec["support_loss_per_inner_step"]) == 5
        assert set(rec["grad_norms"]) == {"pretrained", "lightweight", "head"}

    def test_schedule_decays_linearly_to_zero(self):
        c = cfg(beta=1.0, outer_steps=4)
        assert [c.lr_at(t) for t in range(4)] == [1.0, 0.75, 0.5, 0.25]


class TestFtPrime:
    def test_zero_steps_is_identity(self):
        model = small_real_model()
        out = ft_prime(model, [real_task(model)], cfg(outer_steps=0))
        for p in model.registry:
            assert out.registry[p.id].value.data.tobytes() == p.value.data.tobytes()

    def test_trains_all_partitions(self):
        model = small_real_model()
        out = ft_prime(model, [real_task(model)], cfg(outer_steps=3))
        for partition in (Partition.PRETRAINED, Partition.LIGHTWEIGHT):
            moved = [pid for pid in model.registry.ids(partition)
                     if not np.array_equal(out.registry[pid].value.data,
                                           model.registry[pid].value.data)]
            assert moved, partition

    def test_differs_from_meta_priming(self):
        model = small_real_model()
        tasks = [real_task(model, seed=0), real_task(model, seed=1)]
        a = prime(model, tasks, cfg(outer_steps=5))
        b = ft_prime(model, tasks, cfg(outer_steps=5))
        assert not np.array_equal(a.registry["adapter.down"].value.data,
                                  b.registry["adapter.down"].value.data)


class TestAdamW:
    def test_single_step_matches_hand_formula(self):
        reg = ad.ParameterRegistry()
        theta0 = np.array([1.0, -2.0])
        reg.add("w", theta0.copy(), Partition.HEAD)
        g = np.array([0.3, -0.1])
        opt = AdamW(["w"], beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
        opt.step(reg, {"w": g}, lr=0.1)
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected = theta0 * (1 - 0.1 * 0.01) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(reg["w"].value.data, expected, rtol=1e-12)

    def test_skips_params_without_grads(self):
        reg = ad.ParameterRegistry()
        reg.add("w", np.ones(2), Partition.HEAD)
        AdamW(["w"]).step(reg, {}, lr=0.1)
        np.testing.assert_array_equal(reg["w"].value.data, np.ones(2))


# --- shared fixtures ------------------------------------------------------

def small_real_model():
    from peprime.model import ModelConfig
    cfg_ = ModelConfig(vocab_size=40, d_model=8, n_layers=1, n_heads=2, d_ff=12,
                       max_seq_len=12, n_labels=7, adapter_bottleneck=4)
    m = PartitionedModel(cfg_, seed=0)
    m.add_head(SHARED_HEAD, np.random.default_rng(3))
    return m


def real_task(model, seed=0, n=8):
    rng = np.random.default_rng(100 + seed)
    def seqs(k):
        out = []
        for _ in range(k):
            length = int(rng.integers(4, 9))
            ids = rng.integers(2, model.config.vocab_size, length)
            labels = rng.integers(0, model.config.n_labels, length)
            out.append((ids, labels))
        return out
    return D.MetaTask(f"task{seed}", support=seqs(n), query=seqs(n))
