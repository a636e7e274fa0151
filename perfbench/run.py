"""synret benchmark: times whole CLI calls on three workloads.

    python3 perfbench/run.py --workload gallery-ref --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # each workload in its own process

Builds nothing: it imports `synret` from `src/` of the checkout it sits in and
refuses to run on any other copy. The last line of output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics (from a run with spans around each
stage) with `--trace 1`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("gallery-ref", "train-ref", "desk")
SETUP_REPEATS = 3
TRACED_ROUNDS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0, help="how long the rounds run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    return p.parse_args(argv)


def import_program():
    """Import synret from this checkout's src/ only; returns seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import synret.cli  # noqa: F401
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import synret from {SRC}: {e}")
    import synret

    if not Path(synret.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: synret was found at {synret.__file__}, not under {SRC}")
    return time.perf_counter() - t0


def rates(done, kind: str, amount) -> float:
    ops = [d for d in done if d.op.kind == kind]
    return sum(amount(d) for d in ops) / sum(d.seconds for d in ops)


def end_to_end(setup_s: float, rounds: list, rss_mb: float) -> dict:
    def median(fn):
        return statistics.median(fn(done) for done in rounds)

    return {
        "setup_s": (setup_s, "s"),
        "round_s": (median(lambda done: sum(d.seconds for d in done)), "s"),
        "eval_pairs_per_s": (median(lambda done: rates(done, "eval", lambda d: d.op.pairs)), "pairs/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def workload_figures(rounds: list) -> dict:
    """Figures only some workloads have: printed, but not in the result object."""
    figures = {}
    if any(d.op.kind == "fuse" for d in rounds[0]):
        figures["fuse_pairs_per_s"] = (statistics.median(
            rates(done, "fuse", lambda d: d.op.pairs) for done in rounds), "pairs/s")
    if any(d.op.kind == "train" for d in rounds[0]):
        figures["train_steps_per_s"] = (statistics.median(
            rates(done, "train", lambda d: d.steps) for done in rounds), "steps/s")
    if any(d.op.walkthrough for d in rounds[0]):
        figures["overfit_s"] = (statistics.median(
            sum(d.seconds for d in done if d.op.kind == "train" or d.op.walkthrough)
            for done in rounds), "s")
    return figures


def run_workload(args) -> int:
    import_s = import_program()
    import synret.cli

    import tracing
    from reference import CheckError
    from workloads import WORKLOADS, Runner

    work = HERE / "_work" / (args.workload + ("-smoke" if args.smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, work)
    runner = Runner(synret.cli.main)
    tracer = tracing.Tracer() if args.trace else None

    setups = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        gc.collect()  # every set-up and round starts from the same heap state
        with runner.traced(tracer):
            t0 = time.perf_counter()
            workload.setup(runner)
            setups.append(time.perf_counter() - t0)

    # Rounds run until --seconds have passed. A traced run alternates untraced
    # and traced rounds until it has TRACED_ROUNDS traced ones, so its traced
    # work is the same in every run and the two kinds of round give the
    # tracing overhead.
    want_traced = (1 if args.smoke else TRACED_ROUNDS) if tracer else 0
    rounds, traced_rounds, last_traced = [], [], []
    correct, message = True, ""
    t_start = time.perf_counter()
    while True:
        on = len(traced_rounds) < want_traced and (len(rounds) + len(traced_rounds)) % 2 == 1
        gc.collect()
        with runner.traced(tracer if on else None):
            done = workload.run_round(runner)
        if on:
            last_traced = done
        (traced_rounds if on else rounds).append(done)
        try:
            workload.check_round(done)
        except CheckError as e:
            correct, message = False, str(e)
        if time.perf_counter() - t_start >= args.seconds and len(traced_rounds) == want_traced:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_rounds = rounds + traced_rounds
    failed = [d for done in all_rounds for d in done if d.code != 0]
    for d in failed[:3]:
        print(f"failed: {' '.join(map(str, d.op.argv))}: {(d.error.splitlines() or [''])[-1]}")
    if correct:
        try:
            workload.final_checks(runner, rounds[-1], last_traced)
        except CheckError as e:
            correct, message = False, str(e)
    if message:
        print(f"check failed: {message}")

    setup_s = import_s + statistics.median(setups)
    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} untraced and "
          f"{len(traced_rounds)} traced rounds of {len(rounds[0])} CLI calls")
    print("  set-ups (s): " + " ".join(f"{t:.3f}" for t in setups) + f"; import {import_s:.3f}")
    for label, group in (("untraced", rounds), ("traced", traced_rounds)):
        if group:
            times = " ".join(f"{sum(d.seconds for d in done):.3f}" for done in group)
            print(f"  {label} rounds (s): {times}")
    if tracer:
        overhead = 100.0 * (statistics.median(sum(d.seconds for d in done) for done in traced_rounds)
                            / statistics.median(sum(d.seconds for d in done) for done in rounds) - 1.0)
        metrics = tracing.layer_metrics(tracer, runner.traced_pairs, runner.traced_steps, overhead)
        print(f"traced work: {len(setups)} set-ups and {len(traced_rounds)} rounds, "
              f"{runner.traced_pairs} pairs, {runner.traced_steps} steps")
        traces = HERE / "_work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.save(traces / f"{work.name}-seed{args.seed}.npz")
    else:
        metrics = end_to_end(setup_s, rounds, rss_mb)
        for name, (value, unit) in workload_figures(rounds).items():
            print(f"  {name:<40} {value:14.6g} {unit}   (this workload only)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(done) for done in all_rounds),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one summary object."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            code = proc.returncode or 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    if code:
        return code
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
