#!/usr/bin/env python3
"""Smoke test of the benchmark itself: one short run per workload and mode.

    python3 perfbench/smoke.py

Runs every workload with ``--seconds 1`` (one round, two when traced) and
checks the output contract: the last line's keys, every metric of
BENCHMARK.json with its unit, every end-to-end metric named in the report,
the correctness gate, and that the untraced and traced runs of one seed
produce the same output digest. Last, it checks that the benchmark fails
without printing a result in a directory holding only BENCHMARK.json and
perfbench/. Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
REPORT_E2E = ("setup_s pretrain_s prime_s finetune_s evaluate_s total_s train_tokens_per_s "
              "eval_tokens_per_s test_f1 peak_rss_mb failed_frac").split()
PRIMITIVES = ("matmul add scale transpose slice_cols concat_cols softmax_rows layer_norm gelu "
              "relu embedding cross_entropy_mean").split()
LAYER_METRICS = (
    ["autodiff.backward.s", "autodiff.backward.calls", "autodiff.grad_frozen_frac",
     "autodiff.fwd.calls", "autodiff.fwd.s"]
    + [f"autodiff.fwd.{p}.{k}" for p in PRIMITIVES for k in ("calls", "s")]
    + ["autodiff.checkpoint.save.s", "autodiff.checkpoint.load.s", "autodiff.checkpoint.bytes",
       "autodiff.registry.snapshot.s", "autodiff.registry.restore.s",
       "model.batch_loss.calls", "model.batch_loss.s", "model.batch_loss.tokens",
       "model.encode.calls", "model.encode.s", "model.encode.self_s", "model.encode.repeat_frac",
       "model.adapt.s", "model.classify.s", "model.predict.calls", "model.predict.s",
       "model.clone.calls", "model.clone.s",
       "model.fwd_bwd_ms.b1x32", "model.fwd_bwd_ms.b8x9", "model.fwd_bwd_ms.b32x9",
       "priming.prime.s", "priming.ft_prime.s", "priming.outer_step.calls",
       "priming.outer_step.s", "priming.outer_step_ms.p50", "priming.inner_adapt.calls",
       "priming.inner_adapt.s", "priming.sgd_step.calls", "priming.sgd_step.s",
       "priming.AdamW.step.calls", "priming.AdamW.step.s",
       "finetune.finetune.s", "finetune.predict_corpus.calls", "finetune.predict_corpus.s",
       "finetune.predict_corpus.tokens", "finetune.micro_f1.s", "finetune.evaluate_setting.s",
       "data.generate_language.s", "data.Vocab.build.s", "data.Vocab.encode_corpus.s",
       "data.build_meta_dataset.s", "data.split_target.s",
       "cli.load_config.s", "cli.build_experiment.s", "trace_overhead_frac"])
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(cond, msg):
    if not cond:
        raise SystemExit(f"FAIL: {msg}")


def check_declaration(bench: dict):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "metric and workload names are unique")
    check(all(NAME.fullmatch(n) for n in names), "names match the allowed pattern")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher"), m["name"])
    check(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]), "bounds within (0, 0.25]")
    check({"name": "setup_s", "unit": "s", "better": "lower"}.items()
          <= next(m for m in bench["end_to_end"] if m["name"] == "setup_s").items(), "setup_s")
    check([m["name"] for m in bench["per_layer"]] == LAYER_METRICS, "per-layer metric list")


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


def check_run(bench: dict, workload: str, trace: int) -> str:
    proc, lines = run(workload, trace)
    label = f"{workload} --trace {trace}"
    check(proc.returncode == 0 and lines, f"{label} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{label} correctness gate")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label} attempted")
    declared = bench["per_layer" if trace else "end_to_end"]
    check(list(result["metrics"]) == [m["name"] for m in declared], f"{label} metric names")
    for m in declared:
        value = result["metrics"][m["name"]]
        check(value["unit"] == m["unit"] and math.isfinite(value["value"]), f"{label} {m}")
        if not trace:
            check(value["value"] > 0, f"{label} {m['name']} is zero")
    printed = {line.split()[0] for line in lines if line.startswith("  ")}
    check(set(REPORT_E2E) <= printed, f"{label} report misses {set(REPORT_E2E) - printed}")
    digest = next(line for line in lines if line.startswith("rounds ")).split("digest ")[1]
    return digest.split(",")[0]


def check_bare_directory():
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines = run("prime_pe_sim", 0, cwd=Path(tmp))
    check(proc.returncode != 0, "bare directory run must fail")
    check(not (lines and lines[-1].startswith("{")), "bare directory run printed a result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_declaration(bench)
    for w in bench["workloads"]:
        digests = {check_run(bench, w["name"], trace) for trace in (0, 1)}
        check(len(digests) == 1, f"{w['name']}: traced and untraced outputs differ {digests}")
        print(f"ok {w['name']} digest {digests.pop()}")
    check_bare_directory()
    print("ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
