"""Workloads and the staged pipeline one benchmark round runs.

A round is ``setup -> pretrain -> prime -> checkpoint save/load ->
finetune -> evaluate`` through peprime's public API, in one process, each
stage starting when the previous one ends. The config is the workload's
overrides merged over ``cli.DEFAULT_CONFIG`` by ``cli.load_config``, so
every workload is one the CLI accepts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ad = importlib.import_module("peprime.autodiff")
cli = importlib.import_module("peprime.cli")
ft = importlib.import_module("peprime.finetune")
model_mod = importlib.import_module("peprime.model")
priming = importlib.import_module("peprime.priming")


class BenchmarkFailure(RuntimeError):
    """A correctness check of the benchmark failed."""


@dataclass(frozen=True)
class Workload:
    name: str                 # why each workload exists: BENCHMARK.json and README.md
    overrides: dict
    settings: tuple           # FineTuneSetting values, all sharing one priming recipe
    targets: tuple | None     # target languages to fine-tune on; None means all
    idle_layers: tuple = ()   # layer functions this workload never calls


# Short pretraining at a high rate on small batches gives an encoder that
# fine-tunes to a nonzero test F1 within these budgets on every seed tried
# (40 steps of 16, or one source task per step, left some seeds all-O). Its
# 160 gradient calls train every partition, so the frozen-encoder stages of
# prime_pe_sim and pe_finetune are sized to make most gradient calls.
_PRETRAIN = {"steps": 80, "lr": 1e-2, "batch_size": 8}

WORKLOADS = {w.name: w for w in (
    Workload(
        "prime_pe_sim",
        overrides={"pretrain": _PRETRAIN, "priming": {"outer_steps": 20},
                   "finetune": {"steps": 30, "eval_every": 10, "lr_pe": 1e-2}},
        settings=("meta_prime_at",), targets=("tgtX",)),
    Workload(
        "pe_finetune",
        overrides={"pretrain": _PRETRAIN,
                   "finetune": {"steps": 35, "batch_size": 8, "eval_every": 7,
                                "lr_pe": 1e-2}},
        settings=("adapter_tuning", "head_tuning"), targets=None,
        idle_layers=("priming.prime", "priming.outer_step", "priming.inner_adapt",
                     "priming.sgd_step")),
    Workload(
        "full_long",
        overrides={"data": {"synthetic": {"mean_sentence_length": 24.0}},
                   "model": {"max_seq_len": 64},
                   "pretrain": _PRETRAIN, "priming": {"outer_steps": 8},
                   "finetune": {"steps": 20, "eval_every": 10, "lr_full": 1e-3}},
        settings=("maml_loop_prime_fullft",), targets=("tgtX",)),
)}


def write_config(workload: Workload, seed: int, path: Path) -> Path:
    """The workload's config file for ``seed`` (data family and training seed)."""
    cfg = json.loads(json.dumps(workload.overrides))
    cfg.setdefault("data", {}).setdefault("synthetic", {})["family_seed"] = seed
    cfg.setdefault("priming", {})["seed"] = seed
    cfg["seeds"] = [seed]
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def setup(cfg_path: Path, seed: int):
    """Config load, corpora, vocab, meta-tasks and the base model."""
    cfg = cli.load_config(cfg_path)
    exp = cli.build_experiment(cfg)
    return exp, model_mod.PartitionedModel(exp.model_config, seed=seed)


def check_lengths(exp):
    """Synthetic sentences are not truncated to max_seq_len, so check they fit."""
    longest = max(len(ids) for task in exp.meta_tasks for ids, _ in task.support + task.query)
    for train, val, test in exp.targets.values():
        longest = max(longest, max(len(ids) for ids, _ in train),
                      max(len(s.tokens) for s in list(val) + list(test)))
    if longest > exp.model_config.max_seq_len:
        raise BenchmarkFailure(f"longest sentence has {longest} tokens, "
                               f"max_seq_len is {exp.model_config.max_seq_len}")
    return longest


def run_round(workload: Workload, cfg_path: Path, seed: int, clock, workdir: Path) -> dict:
    """One pass of the pipeline; returns its test F1 scores and output digest."""
    with clock.stage("setup"):
        exp, base = setup(cfg_path, seed)
    longest = check_lengths(exp)

    with clock.stage("pretrain"):
        for pid, arr in ft.pretrained_encoder(exp, seed).items():
            base.registry[pid].value.data = arr.copy()

    settings = [ft.FineTuneSetting(s) for s in workload.settings]
    recipe = ft.priming_recipe(settings[0])
    init = base
    if recipe is not None:
        kind, overrides = recipe
        pcfg = priming.PrimingConfig(**{**dataclasses.asdict(exp.priming), **overrides,
                                        "seed": seed})
        runner = priming.prime if kind == "meta" else priming.ft_prime
        log = []
        with clock.stage("prime"):
            init = ft.strip_heads(runner(base, exp.meta_tasks, pcfg, log=log))
            losses = [r["query_loss"] for r in log] + [x for r in log
                                                       for x in r["support_loss_per_inner_step"]]
            if not np.all(np.isfinite(losses)):
                raise BenchmarkFailure("priming produced a non-finite loss")

    path = workdir / "init.ckpt"
    with clock.stage("checkpoint"):
        ad.save_checkpoint(init.registry, path, exp.model_config.hash())
        loaded = ad.load_checkpoint(path, exp.model_config.hash())
    clock.checkpoint_bytes = path.stat().st_size
    if registry_digest(loaded) != registry_digest(init.registry):
        raise BenchmarkFailure("checkpoint round trip changed the parameters")
    init = model_mod.PartitionedModel(exp.model_config, registry=loaded,
                                      has_adapter="adapter.down" in loaded)

    digest = hashlib.sha256()
    f1s = []
    for setting in settings:
        for lang in workload.targets or tuple(exp.targets):
            train, val, test = exp.targets[lang]
            with clock.stage("finetune"):
                result = ft.finetune(init, setting, train, val, exp.vocab, exp.hyper, seed=seed)
            with clock.stage("evaluate"):
                report = ft.evaluate_setting(result.model, setting, test, exp.vocab, lang, seed)
            f1s.append(report.f1)
            digest.update(registry_digest(result.model.registry).encode())
            digest.update(json.dumps(clock.last_predictions).encode())
            if not all(np.all(np.isfinite(p.value.data)) for p in result.model.registry):
                raise BenchmarkFailure(f"{setting.value} on {lang}: non-finite parameters")
    return {"f1": f1s, "digest": digest.hexdigest()[:16], "longest_sentence": longest}


def registry_digest(registry) -> str:
    h = hashlib.sha256()
    for p in registry:
        h.update(p.id.encode())
        h.update(np.ascontiguousarray(p.value.data).data)
    return h.hexdigest()[:16]


FWD_BWD_SHAPES = {"b1x32": (1, 32), "b8x9": (8, 9), "b32x9": (32, 9)}


def fwd_bwd_ms(exp, seed: int, reps: int = 10) -> dict:
    """Median forward+backward time of one ``batch_loss`` at fixed batch shapes."""
    rng = np.random.default_rng(seed)
    model = model_mod.PartitionedModel(exp.model_config, seed=seed)
    model.add_head("bench", rng)
    c = exp.model_config
    out = {}
    for name, (n_seq, length) in FWD_BWD_SHAPES.items():
        batch = [(rng.integers(2, c.vocab_size, length), rng.integers(0, c.n_labels, length))
                 for _ in range(n_seq)]
        times = []
        for _ in range(reps + 2):
            t0 = time.perf_counter()
            loss, leaves = model.batch_loss(batch, "bench")
            ad.grads_for(loss, leaves)
            times.append(time.perf_counter() - t0)
        out[f"model.fwd_bwd_ms.{name}"] = 1000 * statistics.median(times[2:])
    return out
