"""Priming: meta-learned initialization of the encoder and adapter.

The inner loop simulates parameter-efficient fine-tuning on each task's
support set (SGD on adapter + head only; the encoder stays frozen unless
``inner_mode="full_maml"``, which also updates the encoder at its own,
lower learning rate). In pe_sim mode the inner loop freezes PRETRAINED on
its private clone (``PartitionedModel.freeze``), so the support steps run
no encoder backward and reuse each sequence's encoding; the clone is
unfrozen before it is returned, because the query gradient needs θ_p.
The outer loop applies first-order meta-gradients:
the query-set gradient evaluated at the adapted parameters, summed over
the task batch, is fed to AdamW as a direct gradient at the shared
starting point for the encoder and adapter partitions. The head is
never meta-updated; after each outer step it is handed the adapted head
of the batch's first task, which seeds every inner loop of the next step.

``ft_prime`` is the baseline that sees the same data but simply
fine-tunes everything jointly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Partition
from .data import sample_batch
from .model import PartitionedModel

SHARED_HEAD = "shared"


class TrainingDiverged(RuntimeError):
    def __init__(self, step, task_id, loss, loop="outer step"):
        self.step, self.task_id, self.loss, self.loop = step, task_id, loss, loop
        super().__init__(f"non-finite loss {loss} at {loop} {step}, task {task_id!r}")


@dataclass
class PrimingConfig:
    """Priming budgets and rates at desk scale; comments give full-scale values.

    The full-scale beta does not move a model this small within a sane step budget.
    """

    alpha: float = 0.03            # inner SGD lr when simulating PE fine-tuning
    beta: float = 5e-4             # outer AdamW lr, decayed linearly to 0; full scale: 5e-5
    inner_steps: int = 5
    inner_mode: str = "pe_sim"     # pe_sim | full_maml
    alpha_full: float = 1e-4       # inner lr (all partitions) in full_maml mode
    tasks_per_outer_batch: int = 2
    outer_steps: int = 400         # full scale: 200
    support_batch_size: int = 8
    query_batch_size: int = 32     # full scale: 16
    seed: int = 0

    def __post_init__(self):
        ad.check_ranges(self, {"inner_steps": 0, "outer_steps": 0, "tasks_per_outer_batch": 1,
                               "support_batch_size": 1, "query_batch_size": 1},
                        positive=("alpha", "beta", "alpha_full"))
        if self.inner_mode not in ("pe_sim", "full_maml"):
            raise ValueError(f"unknown inner_mode {self.inner_mode!r}")

    def lr_at(self, outer_step: int) -> float:
        """Linear decay from beta to 0 across the step budget, no warmup."""
        if self.outer_steps == 0:
            return self.beta
        return self.beta * (1.0 - outer_step / self.outer_steps)


class AdamW:
    """Decoupled-weight-decay Adam over a fixed set of parameter ids."""

    def __init__(self, param_ids, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01):
        self.param_ids = list(param_ids)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m: dict = {}
        self.v: dict = {}

    def step(self, registry: ad.ParameterRegistry, grads: dict, lr: float):
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for pid in self.param_ids:
            g = grads.get(pid)
            if g is None:
                continue
            if pid not in self.m:
                self.m[pid] = np.zeros_like(g)
                self.v[pid] = np.zeros_like(g)
            self.m[pid] = self.beta1 * self.m[pid] + (1 - self.beta1) * g
            self.v[pid] = self.beta2 * self.v[pid] + (1 - self.beta2) * g * g
            theta = registry[pid].value.data
            theta -= lr * self.weight_decay * theta
            theta -= lr * (self.m[pid] / b1c) / (np.sqrt(self.v[pid] / b2c) + self.eps)


def adamw_step(model: PartitionedModel, batches, optimizer: AdamW, lr: float,
               step: int, loop: str = "outer step") -> list:
    """One AdamW step on the gradients summed over ``(head, batch)`` pairs.

    A non-finite batch loss raises ``TrainingDiverged`` naming ``loop`` and
    ``step``. Returns the batch losses in order.
    """
    grads: dict = {}
    losses = []
    for head, batch in batches:
        loss, leaves = model.batch_loss(batch, head)
        if not np.isfinite(loss.data):
            raise TrainingDiverged(step, head, float(loss.data), loop)
        for pid, g in ad.grads_for(loss, leaves).items():
            grads[pid] = grads[pid] + g if pid in grads else g
        losses.append(float(loss.data))
    optimizer.step(model.registry, grads, lr)
    return losses


def sgd_step(registry: ad.ParameterRegistry, grads: dict, param_ids, lr: float):
    for pid in param_ids:
        if pid in grads:
            registry[pid].value.data -= lr * grads[pid]


@dataclass
class InnerResult:
    adapted: PartitionedModel
    support_losses: list = field(default_factory=list)


def inner_adapt(model: PartitionedModel, task, cfg: PrimingConfig, rng,
                head: str = SHARED_HEAD, step_index: int | None = None) -> InnerResult:
    """S steps of support-set SGD on a deep copy of the model.

    pe_sim updates only adapter + head; full_maml also updates the
    encoder, at ``alpha_full`` for every partition (the full inner loop
    needs the lower rate to converge). A non-finite support loss raises
    ``TrainingDiverged`` naming the inner step, the task and, when
    ``step_index`` is given, the outer step.
    """
    adapted = model.clone()
    result = InnerResult(adapted)
    if cfg.inner_steps == 0:
        return result
    if not task.support:
        raise ValueError(f"task {task.task_id!r} has an empty support set")
    reg = adapted.registry
    light_ids = reg.ids(Partition.LIGHTWEIGHT) + adapted.head_ids(head)
    pretrained_ids = reg.ids(Partition.PRETRAINED)
    batches = task.support_batches(cfg.support_batch_size, rng)
    loop = "inner step" if step_index is None else f"outer step {step_index}, inner step"
    if cfg.inner_mode == "pe_sim":
        adapted.freeze((Partition.PRETRAINED,))
    for step in range(cfg.inner_steps):
        loss, leaves = adapted.batch_loss(next(batches), head)
        if not np.isfinite(loss.data):
            raise TrainingDiverged(step, task.task_id, float(loss.data), loop)
        result.support_losses.append(float(loss.data))
        grads = ad.grads_for(loss, leaves)
        if cfg.inner_mode == "full_maml":
            sgd_step(reg, grads, light_ids + pretrained_ids, cfg.alpha_full)
        else:
            sgd_step(reg, grads, light_ids, cfg.alpha)
    adapted.freeze()
    return result


def outer_step(model: PartitionedModel, tasks, cfg: PrimingConfig, optimizer: AdamW,
               lr: float, rng, head: str = SHARED_HEAD, step_index: int = 0):
    """One priming iteration over a batch of tasks; mutates ``model``.

    First-order meta-gradient: each task is adapted independently from
    the current parameters, its query gradient is taken at the adapted
    point, and the per-task gradients are summed in task order before a
    single AdamW step on the encoder and adapter. The head is then
    overwritten with the first task's adapted head.
    """
    if not tasks:
        raise ad.ContractError("outer_step: empty task batch")
    meta_grads: dict = {}
    meta_ids = set(model.registry.ids(Partition.PRETRAINED)
                   + model.registry.ids(Partition.LIGHTWEIGHT))
    records = []
    first_adapted = None
    for task in tasks:
        inner = inner_adapt(model, task, cfg, rng, head, step_index)
        if first_adapted is None:
            first_adapted = inner.adapted
        qbatch = task.query_batch(cfg.query_batch_size, rng)
        loss, leaves = inner.adapted.batch_loss(qbatch, head)
        if not np.isfinite(loss.data):
            raise TrainingDiverged(step_index, task.task_id, float(loss.data))
        grads = ad.grads_for(loss, leaves)
        for pid in meta_ids:
            g = grads[pid]
            meta_grads[pid] = meta_grads.get(pid, 0.0) + g
        records.append({
            "outer_step": step_index,
            "task_id": task.task_id,
            "support_loss_per_inner_step": [round(x, 6) for x in inner.support_losses],
            "query_loss": round(float(loss.data), 6),
            "grad_norms": {part.value: round(_partition_norm(grads, model.registry, part), 6)
                           for part in Partition},
            "beta_current": lr,
        })
    optimizer.step(model.registry, meta_grads, lr)
    for pid in model.head_ids(head):
        model.registry[pid].value.data = first_adapted.registry[pid].value.data.copy()
    return records


def _partition_norm(grads, registry, partition):
    sq = sum(float((grads[pid] ** 2).sum()) for pid in registry.ids(partition) if pid in grads)
    return float(np.sqrt(sq))


def prime(model: PartitionedModel, meta_tasks, cfg: PrimingConfig,
          log=None) -> PartitionedModel:
    """Run the priming loop; returns a model with primed encoder + adapter.

    The shared head used during priming is constructed fresh here and is
    an initialization detail, not part of the primed result (downstream
    fine-tuning always starts from a new random head).
    """
    if not meta_tasks:
        raise ValueError("prime: need at least one source task")
    rng = np.random.default_rng(cfg.seed)
    model = model.clone()
    if SHARED_HEAD not in model.head_names():
        model.add_head(SHARED_HEAD, rng)
    optimizer = AdamW(model.registry.ids(Partition.PRETRAINED)
                      + model.registry.ids(Partition.LIGHTWEIGHT))
    for step in range(cfg.outer_steps):
        k = min(cfg.tasks_per_outer_batch, len(meta_tasks))
        batch = [meta_tasks[i] for i in rng.choice(len(meta_tasks), size=k, replace=False)]
        records = outer_step(model, batch, cfg, optimizer, cfg.lr_at(step), rng,
                             step_index=step)
        if log is not None:
            log.extend(records)
    return model


def ft_prime(model: PartitionedModel, meta_tasks, cfg: PrimingConfig,
             log=None) -> PartitionedModel:
    """Priming by plain fine-tuning: same data, same budget, no inner loop.

    All partitions (encoder, adapter, one head per source task) are
    trained jointly with AdamW on the union of each task's support and
    query data.
    """
    if not meta_tasks:
        raise ValueError("ft_prime: need at least one source task")
    rng = np.random.default_rng(cfg.seed)
    model = model.clone()
    for task in meta_tasks:
        if task.task_id not in model.head_names():
            model.add_head(task.task_id, rng)
    pooled = [(task.task_id, task.support + task.query) for task in meta_tasks]
    optimizer = AdamW([p.id for p in model.registry])
    for step in range(cfg.outer_steps):
        k = min(cfg.tasks_per_outer_batch, len(meta_tasks))
        picks = [pooled[i] for i in rng.choice(len(pooled), size=k, replace=False)]
        batches = [(head, sample_batch(data, cfg.support_batch_size, rng)) for head, data in picks]
        losses = adamw_step(model, batches, optimizer, cfg.lr_at(step), step)
        if log is not None:
            log.extend({"outer_step": step, "task_id": head,
                        "support_loss_per_inner_step": [],
                        "query_loss": round(loss, 6),
                        "beta_current": cfg.lr_at(step)}
                       for (head, _), loss in zip(batches, losses))
    return model
