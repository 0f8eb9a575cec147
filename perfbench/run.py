#!/usr/bin/env python3
"""Benchmark of the peprime pipeline on fixed workloads.

    python3 perfbench/run.py --workload prime_pe_sim --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Inputs are generated from ``--seed``. The run first sets up a few times,
then repeats the whole pipeline in rounds until ``--seconds`` are spent
(at least one round), and reports medians over rounds. With ``--trace 1``
rounds alternate untraced and traced; the traced ones give the per-layer
metrics and the untraced ones the tracing overhead.

Output: a readable report, then as the last line one JSON object with
``correct``, ``attempted``, ``failed`` (stage calls) and ``metrics`` -- the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The exit code is 0 only when every correctness
check passed. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("prime_pe_sim", "pe_finetune", "full_long")
HOLDOUT_SEED = 20221  # never used while tuning; later claims are re-checked on it
WARMUP_SETUPS = 1
TIMED_SETUPS = 6

E2E_UNITS = {
    "setup_s": "s", "pretrain_s": "s", "prime_s": "s", "finetune_s": "s", "evaluate_s": "s",
    "total_s": "s", "train_tokens_per_s": "tokens/s", "eval_tokens_per_s": "tokens/s",
    "test_f1": "F1", "peak_rss_mb": "MB", "failed_frac": "fraction",
}


def cap_blas_threads() -> int:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_program():
    src = ROOT / "src"
    if not (src / "peprime" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'peprime'} not found; run from the root of a peprime checkout")
    sys.path.insert(0, str(src))
    import peprime
    if Path(peprime.__file__).resolve().parent != (src / "peprime").resolve():
        sys.exit(f"error: imported peprime from {peprime.__file__}, not from {src}")
    sys.path.insert(0, str(ROOT / "perfbench"))


def environment(seed: int, nproc: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():  # the benchmark may run from an exported tree
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "nproc": nproc,
        "machine": platform.machine(), "git_commit": commit,
        "seed": seed, "holdout_seed": HOLDOUT_SEED,
    }


def run_workload(args, nproc: int) -> int:
    import pipeline

    workload = pipeline.WORKLOADS[args.workload]
    run = measure(workload, args)
    rounds = run["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    checks = correctness(workload, run)
    e2e = end_to_end(run, plain)
    layers = per_layer(run, plain, traced)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    print(f"workload {workload.name}: {why[workload.name]}")
    print(f"rounds {len(plain)} untraced + {len(traced)} traced, "
          f"{len(run['setups'])} timed setups, digest {rounds[0]['digest'] if rounds else None}, "
          f"longest sentence {rounds[0]['longest_sentence'] if rounds else None}")
    print("environment " + json.dumps(environment(args.seed, nproc), sort_keys=True))
    print("checks " + json.dumps(checks, sort_keys=True)
          + (f" error: {run['error']}" if run["error"] else ""))
    for i, r in enumerate(rounds):
        print(f"round {i} {'traced' if r['traced'] else 'untraced'} "
              + json.dumps({k: round(v, 6) for k, v in r["e2e"].items()}))
    for name, unit in E2E_UNITS.items():
        if name in e2e:
            print(f"  {name:<24} {e2e[name]:>14.6f} {unit}")
    for name in sorted(layers):
        print(f"  {name:<40} {layers[name]:>14.6f}")
    if traced:
        print("spans " + json.dumps(traced[-1]["spans"], sort_keys=True))

    source = layers if args.trace else e2e
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in source}
    correct = all(checks.values()) and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


def measure(workload, args) -> dict:
    """Timed setups, then rounds until --seconds are spent; stops at the first failure."""
    import instrument
    import pipeline

    setups, rounds, clocks = [], [], []
    fixed_shapes, error = {}, None
    t_start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        cfg_path = pipeline.write_config(workload, args.seed, workdir / "config.json")
        try:
            for i in range(WARMUP_SETUPS + TIMED_SETUPS):
                clocks.append(instrument.Clock())
                with clocks[-1].stage("setup"):
                    exp, _ = pipeline.setup(cfg_path, args.seed)
                if i >= WARMUP_SETUPS:
                    setups.append(clocks[-1].stage_s["setup"])
            if args.trace:
                fixed_shapes = pipeline.fwd_bwd_ms(exp, args.seed)
            while True:
                traced = bool(args.trace) and len(rounds) % 2 == 1
                clocks.append(instrument.Clock(instrument.Tracer() if traced else None))
                rounds.append(run_round(workload, cfg_path, args.seed, workdir, clocks[-1]))
                # start another round only if it should end within --seconds
                expected = statistics.median(r["wall_s"] for r in rounds)
                enough = len(rounds) >= (2 if args.trace else 1)
                if enough and time.perf_counter() - t_start + expected > args.seconds:
                    break
        except Exception as exc:  # any failure ends the run and is reported
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
    # a failed check outside a stage counts as one failed stage call
    failed = max(sum(c.failed for c in clocks), int(error is not None))
    attempted = max(sum(c.attempted for c in clocks), failed, 1)
    return {"setups": setups, "rounds": rounds, "fixed_shapes": fixed_shapes, "error": error,
            "failed": failed, "attempted": attempted}


def correctness(workload, run) -> dict:
    rounds = run["rounds"]
    checks = {"no_failure": run["error"] is None, "ran_a_round": bool(rounds)}
    if rounds:
        checks["deterministic"] = len({r["digest"] for r in rounds}) == 1
        checks["test_f1_positive"] = all(statistics.mean(r["f1"]) > 0 for r in rounds)
    traced = [r for r in rounds if r["traced"]]
    if traced:
        silent = sorted(k for k, v in traced[-1]["layers"].items()
                        if k.endswith(".calls") and v == 0
                        and k.removesuffix(".calls") not in workload.idle_layers)
        checks["every_wrapper_fired"] = not silent
        if silent:
            print(f"wrappers that never fired: {', '.join(silent)}", file=sys.stderr)
    return checks


def end_to_end(run, plain) -> dict:
    e2e = {}
    if plain:
        for key in ("pretrain_s", "prime_s", "finetune_s", "evaluate_s", "total_s",
                    "train_tokens_per_s", "eval_tokens_per_s"):
            e2e[key] = statistics.median(r["e2e"][key] for r in plain)
        e2e["setup_s"] = statistics.median(run["setups"] + [r["e2e"]["setup_s"] for r in plain])
        e2e["test_f1"] = statistics.mean(plain[-1]["f1"])
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e["failed_frac"] = run["failed"] / run["attempted"]
    return e2e


def per_layer(run, plain, traced) -> dict:
    if not traced:
        return {}
    layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    layers.update(run["fixed_shapes"])
    if plain:
        layers["trace_overhead_frac"] = (
            statistics.median(r["e2e"]["total_s"] for r in traced)
            / statistics.median(r["e2e"]["total_s"] for r in plain) - 1)
    return layers


def run_round(workload, cfg_path, seed, workdir, clock) -> dict:
    import instrument
    import pipeline

    patches = instrument.Patches()
    t0 = time.perf_counter()
    try:
        clock.install(patches)
        if clock.tracer is not None:
            clock.tracer.install(patches)
        out = pipeline.run_round(workload, cfg_path, seed, clock, workdir)
    finally:
        patches.restore()
    wall = time.perf_counter() - t0
    s = clock.stage_s
    train_s = s["pretrain"] + s["prime"] + s["finetune"] - clock.predict_s["finetune"]
    out.update(
        traced=clock.tracer is not None, wall_s=wall,
        e2e={"setup_s": s["setup"], "pretrain_s": s["pretrain"], "prime_s": s["prime"],
             "finetune_s": s["finetune"], "evaluate_s": s["evaluate"],
             "total_s": sum(s.values()),
             "train_tokens_per_s": clock.train_tokens / train_s,
             "eval_tokens_per_s": clock.predict_tokens / sum(clock.predict_s.values())},
    )
    if clock.tracer is not None:
        out["layers"] = clock.tracer.metrics(clock)
        out["spans"] = clock.tracer.span_tree()
    return out


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1,
                                                              "failed": 1, "metrics": {}}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    nproc = cap_blas_threads()
    import_program()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
