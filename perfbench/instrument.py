"""Wrappers the benchmark installs around peprime from the outside.

Two sets, both installed through ``Patches`` so they can be taken off again:

* ``Clock`` is always on while a round runs. It times pipeline stages and
  wraps only two functions: ``PartitionedModel.batch_loss`` (counts
  training tokens, no clock read) and ``finetune.predict_corpus`` (times
  prediction and counts its tokens; a few dozen calls per round).
* ``Tracer`` is installed for traced rounds only. It keeps a span for every
  stage and every call of a layer function listed in ``LAYERS``, and
  aggregates the tape primitives in ``PRIMITIVES`` into counts and seconds
  charged to the enclosing span.
"""

from __future__ import annotations

import hashlib
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "peprime"
MODULES = ("autodiff", "model", "data", "priming", "finetune", "cli")

# metric prefix -> "module:attribute path" of the layer function it times
LAYERS = {
    "autodiff.backward": "autodiff:backward",
    "autodiff.checkpoint.save": "autodiff:save_checkpoint",
    "autodiff.checkpoint.load": "autodiff:load_checkpoint",
    "autodiff.registry.snapshot": "autodiff:ParameterRegistry.snapshot",
    "autodiff.registry.restore": "autodiff:ParameterRegistry.restore",
    "model.batch_loss": "model:PartitionedModel.batch_loss",
    "model.encode": "model:PartitionedModel.encode",
    "model.adapt": "model:PartitionedModel.adapt",
    "model.classify": "model:PartitionedModel.classify",
    "model.predict": "model:PartitionedModel.predict",
    "model.clone": "model:PartitionedModel.clone",
    "priming.prime": "priming:prime",
    "priming.ft_prime": "priming:ft_prime",
    "priming.outer_step": "priming:outer_step",
    "priming.inner_adapt": "priming:inner_adapt",
    "priming.sgd_step": "priming:sgd_step",
    "priming.AdamW.step": "priming:AdamW.step",
    "finetune.finetune": "finetune:finetune",
    "finetune.predict_corpus": "finetune:predict_corpus",
    "finetune.micro_f1": "finetune:micro_f1",
    "finetune.evaluate_setting": "finetune:evaluate_setting",
    "data.generate_language": "data:generate_language",
    "data.Vocab.build": "data:Vocab.build",
    "data.Vocab.encode_corpus": "data:Vocab.encode_corpus",
    "data.build_meta_dataset": "data:build_meta_dataset",
    "data.split_target": "data:split_target",
    "cli.load_config": "cli:load_config",
    "cli.build_experiment": "cli:build_experiment",
}

PRIMITIVES = ("matmul", "add", "scale", "transpose", "slice_cols", "concat_cols",
              "softmax_rows", "layer_norm", "gelu", "relu", "embedding", "cross_entropy_mean")

# Calls whose result is compared with their input model for grad_frozen_frac,
# and how to reach the resulting registry.
_GRAD_SCOPES = {
    "priming.inner_adapt": lambda out: out.adapted.registry,
    "priming.prime": lambda out: out.registry,
    "priming.ft_prime": lambda out: out.registry,
    "finetune.finetune": lambda out: out.model.registry,
}
# Calls that may change encoder values in place; they end the reuse of a
# cached encoder digest.
_THETA_WRITERS = ("priming.sgd_step", "priming.AdamW.step", "autodiff.registry.restore")


class Patches:
    """Rebinds program attributes to wrappers and puts the originals back.

    A module-level function is rebound in every peprime module that holds
    it, so names bound by ``from ... import`` (``finetune.prime``,
    ``cli.prepare_init``) see the wrapper too. Modules are found with
    ``importlib.import_module``: the package attribute ``peprime.finetune``
    is the re-exported function, not the module.
    """

    def __init__(self):
        self.modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        self._undo = []

    def wrap(self, target: str, make):
        modname, attr = target.split(":")
        module = importlib.import_module(f"{PACKAGE}.{modname}")
        *path, name = attr.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner).get(name)
        if raw is None:
            raise LookupError(f"{PACKAGE}.{target} not found: the benchmark's layer list is stale")
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._set(owner, name, raw, new)
        if owner is module:
            for mod in self.modules:
                for key, value in list(vars(mod).items()):
                    if value is raw and (mod, key) != (module, name):
                        self._set(mod, key, raw, new)

    def _set(self, owner, name, old, new):
        self._undo.append((owner, name, old))
        setattr(owner, name, new)

    def restore(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class Clock:
    """Stage times and token counts of one round (untraced instrumentation)."""

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.stage_s = defaultdict(float)
        self.predict_s = defaultdict(float)     # prediction time per stage
        self.attempted = 0
        self.failed = 0
        self.train_tokens = 0
        self.predict_tokens = 0
        self.last_predictions = None
        self.checkpoint_bytes = 0
        self._stage = None

    @contextmanager
    def stage(self, name: str):
        self.attempted += 1
        self._stage = name
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span(f"stage.{name}"):
                    yield
        except Exception:
            self.failed += 1
            raise
        finally:
            self.stage_s[name] += time.perf_counter() - t0
            self._stage = None

    def install(self, patches: Patches):
        clock = self

        def count_batch(fn):
            def batch_loss(model, batch, head):
                clock.train_tokens += sum(int(np.count_nonzero(np.asarray(lab) >= 0))
                                          for _, lab in batch)
                return fn(model, batch, head)
            return batch_loss

        def time_predict(fn):
            def predict_corpus(model, corpus, vocab, *args, **kwargs):
                t0 = time.perf_counter()
                out = fn(model, corpus, vocab, *args, **kwargs)
                clock.predict_s[clock._stage] += time.perf_counter() - t0
                max_len = model.config.max_seq_len
                clock.predict_tokens += sum(min(len(seq.tokens), max_len) for seq in corpus)
                clock.last_predictions = out
                return out
            return predict_corpus

        patches.wrap(LAYERS["model.batch_loss"], count_batch)
        patches.wrap(LAYERS["finetune.predict_corpus"], time_predict)


class Tracer:
    """Spans at stage and layer boundaries, aggregated primitive costs.

    A span is ``[name, start, end, parent index, child seconds]``; child
    seconds sum the spans and primitive calls made directly inside it, so
    self time is ``end - start - child``.
    """

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self.prim = {p: [0, 0.0] for p in PRIMITIVES}
        self.grad_elems = 0
        self.frozen_elems = 0
        self._scopes = []
        self.encode_calls = 0
        self.encode_repeats = 0
        self._seen = set()
        self._theta_digests = {}
        self._theta_refs = []

    # --- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1], 0.0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if rec[3] >= 0:
                self.spans[rec[3]][4] += rec[2] - rec[1]

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _primitive(self, name, fn):
        stat, spans, stack = self.prim[name], self.spans, self._stack

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            stat[0] += 1
            stat[1] += dt
            if stack[-1] >= 0:
                spans[stack[-1]][4] += dt
            return out
        return wrapper

    # --- wasted gradients ---------------------------------------------------

    def _grads_for(self, fn):
        def grads_for(loss, leaves):
            grads = fn(loss, leaves)
            if self._scopes:
                scope = self._scopes[-1]
                for pid, g in grads.items():
                    scope[pid] += g.size
            else:
                self.grad_elems += sum(g.size for g in grads.values())
            return grads
        return grads_for

    def _grad_scope(self, result_registry, fn):
        def wrapper(model, *args, **kwargs):
            before = {p.id: p.value.data.tobytes() for p in model.registry}
            scope = defaultdict(int)
            self._scopes.append(scope)
            try:
                out = fn(model, *args, **kwargs)
            finally:
                self._scopes.pop()
            after = result_registry(out)
            for pid, n in scope.items():
                self.grad_elems += n
                if pid in before and pid in after and after[pid].value.data.tobytes() == before[pid]:
                    self.frozen_elems += n
            return out
        return wrapper

    # --- repeated encoder inputs ----------------------------------------------

    def _theta_writer(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self._theta_digests.clear()
                self._theta_refs.clear()
        return wrapper

    def _encode(self, pretrained, fn):
        def encode(model, token_ids, pad_mask, leaves):
            arrays = [leaves[pid].data for pid in model.registry.ids(pretrained)]
            key = tuple(map(id, arrays))
            digest = self._theta_digests.get(key)
            if digest is None:
                h = hashlib.blake2b(digest_size=16)
                for a in arrays:
                    h.update(np.ascontiguousarray(a).data)
                digest = self._theta_digests[key] = h.digest()
                self._theta_refs.append(arrays)   # keeps the ids in ``key`` unique
            seen_key = (digest, np.asarray(token_ids, dtype=np.int64).tobytes(),
                        np.asarray(pad_mask, dtype=bool).tobytes())
            self.encode_calls += 1
            if seen_key in self._seen:
                self.encode_repeats += 1
            else:
                self._seen.add(seen_key)
            return fn(model, token_ids, pad_mask, leaves)
        return encode

    # --- installation and summary -------------------------------------------

    def install(self, patches: Patches):
        pretrained = importlib.import_module(f"{PACKAGE}.autodiff").Partition.PRETRAINED
        for name, target in LAYERS.items():
            def make(fn, name=name):
                fn = self._spanned(name, fn)
                if name in _GRAD_SCOPES:
                    fn = self._grad_scope(_GRAD_SCOPES[name], fn)
                if name in _THETA_WRITERS:
                    fn = self._theta_writer(fn)
                if name == "model.encode":
                    fn = self._encode(pretrained, fn)
                return fn
            patches.wrap(target, make)
        patches.wrap("autodiff:grads_for", self._grads_for)
        for p in PRIMITIVES:
            patches.wrap(f"autodiff:{p}", lambda fn, p=p: self._primitive(p, fn))

    def layer_stats(self) -> dict:
        """name -> [calls, seconds, self seconds] over every recorded span."""
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for name, t0, t1, _, child in self.spans:
            s = stats[name]
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t1 - t0 - child
        return stats

    def span_tree(self) -> dict:
        """Spans aggregated by call path: path -> [calls, seconds, self seconds]."""
        paths, tree = [], defaultdict(lambda: [0, 0.0, 0.0])
        for name, t0, t1, parent, child in self.spans:
            path = name if parent < 0 else f"{paths[parent]}/{name}"
            paths.append(path)
            node = tree[path]
            node[0] += 1
            node[1] += t1 - t0
            node[2] += t1 - t0 - child
        return {k: [v[0], round(v[1], 6), round(v[2], 6)] for k, v in tree.items()}

    def metrics(self, clock: Clock) -> dict:
        stats = self.layer_stats()
        out = {}
        for name in LAYERS:
            calls, secs, self_s = stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = secs
            out[f"{name}.self_s"] = self_s
        out["autodiff.fwd.calls"] = sum(c for c, _ in self.prim.values())
        out["autodiff.fwd.s"] = sum(s for _, s in self.prim.values())
        for p, (calls, secs) in self.prim.items():
            out[f"autodiff.fwd.{p}.calls"] = calls
            out[f"autodiff.fwd.{p}.s"] = secs
        out["autodiff.grad_frozen_frac"] = self.frozen_elems / max(self.grad_elems, 1)
        out["model.encode.repeat_frac"] = self.encode_repeats / max(self.encode_calls, 1)
        out["model.batch_loss.tokens"] = clock.train_tokens
        out["finetune.predict_corpus.tokens"] = clock.predict_tokens
        out["autodiff.checkpoint.bytes"] = clock.checkpoint_bytes
        outer = [t1 - t0 for name, t0, t1, _, _ in self.spans if name == "priming.outer_step"]
        out["priming.outer_step_ms.p50"] = 1000 * statistics.median(outer) if outer else 0.0
        return out
