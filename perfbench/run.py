"""The pdl4 benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload prove-corpus --seed 1 --seconds 10 --trace 0

--trace 0 runs the workload for at least --seconds (whole rounds), checks
every answer and prints the end-to-end metrics; --trace 1 runs one traced
round of every workload and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics, named and united as in BENCHMARK.json."""
from __future__ import annotations

import argparse
import importlib
import json
import os
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
INPUTS = HERE / "inputs"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

from common import TAIL_BEYOND, WORKLOADS, OpFailed, Tracer, tail  # noqa: E402

# Set-up is timed in this process and in fresh child processes; the
# reported set-up time is the median.
SETUP_SAMPLES = 5
# At most this many check failures are printed.
SHOWN_ERRORS = 20
# Every workload's round holds at least this many operations.
MIN_OPS = 40


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def input_dir(workload: str, seed: int) -> Path:
    return INPUTS / workload / f"seed-{seed}"


def generate(workload: str, seed: int) -> None:
    target = input_dir(workload, seed)
    shutil.rmtree(target, ignore_errors=True)
    command = [sys.executable, str(HERE / "gen.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(target)]
    if subprocess.run(command, cwd=ROOT).returncode != 0:
        fail(f"input generation failed for {workload}")


def load(workload: str, seed: int):
    """Import pdl4 and the workload and load its inputs; returns the
    module, its state and the seconds this took."""
    started = time.perf_counter()
    module = importlib.import_module(WORKLOADS[workload])
    state = module.setup(input_dir(workload, seed))
    elapsed = time.perf_counter() - started
    import pdl4

    if not Path(pdl4.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"pdl4 was imported from {pdl4.__file__}, not from {SRC}")
    return module, state, elapsed


def setup_probe(workload: str, seed: int) -> float:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail("set-up probe failed")
    return float(done.stdout.split()[-1])


def check_all(module, state, ops, outputs, failed, seed: int) -> list[str]:
    """Check the answer of each distinct operation that did not fail, and
    that every operation that failed is one of the workload's known
    failures."""
    distinct = {module.op_id(op): op for op in ops}
    errors = []
    for key, op in distinct.items():
        if key in outputs:
            error = module.check(state, op, outputs[key], seed)
            if error:
                errors.append(error)
    errors += [f"{key}: failed, and it is not a known failure"
               for key in sorted(set(failed) - module.EXPECTED_FAILURES)]
    return errors


def measured_phase(module, state, seconds: float):
    """Whole rounds until --seconds have passed.  Returns the latencies,
    the failed ids, the first output of each operation, drift errors and
    the elapsed time."""
    ops = module.round_ops(state)
    latencies: list[float] = []
    failed: list[str] = []
    outputs: dict = {}
    drift: list[str] = []
    started = time.perf_counter()
    while True:
        for op in ops:
            key = module.op_id(op)
            begun = time.perf_counter()
            try:
                output = module.run(state, op)
            except OpFailed:
                output = OpFailed
            latencies.append(time.perf_counter() - begun)
            if output is OpFailed:
                failed.append(key)
            elif key not in outputs:
                outputs[key] = output
            elif outputs[key] != output:
                drift.append(f"{key}: the answer changed between rounds")
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return ops, latencies, failed, outputs, drift, elapsed


def report(correct: bool, attempted: int, failed: int, values: dict, declared: list) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        fail(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def show_errors(errors: list[str]) -> None:
    for error in errors[:SHOWN_ERRORS]:
        print(f"check failed: {error}", file=sys.stderr)
    if len(errors) > SHOWN_ERRORS:
        print(f"... and {len(errors) - SHOWN_ERRORS} more", file=sys.stderr)


def untraced(args, declared: list) -> None:
    generate(args.workload, args.seed)
    module, state, setup_here = load(args.workload, args.seed)
    setups = [setup_here] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    if hasattr(module, "warm_up"):
        module.warm_up(state)
    ops, latencies, failed, outputs, drift, elapsed = measured_phase(module, state, args.seconds)
    if hasattr(module, "peak_rss_kb"):
        peak_kb = module.peak_rss_kb(state)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors = drift + check_all(module, state, ops, outputs, failed, args.seed)
    show_errors(errors)
    latencies.sort()
    count = len(latencies)
    if count < MIN_OPS:
        fail(f"{count} operations, fewer than {MIN_OPS}")
    tail_pct, tail_s = tail(latencies)
    print(f"{args.workload}: {count} operations ({count // len(ops)} rounds) in {elapsed:.2f} s, "
          f"{len(failed)} failed, tail p{tail_pct:.2f} with {TAIL_BEYOND} beyond")
    report(not errors, count, len(failed), {
        "setup_s": statistics.median(setups),
        "ops_per_s": (count - len(failed)) / elapsed,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": peak_kb / 1024,
    }, declared)


def traced(args, declared: list) -> None:
    """One traced round of every workload: each layer is measured on the
    workload that exercises it, so every traced run reports every layer."""
    OUT.mkdir(exist_ok=True)
    values: dict = {}
    attempted = failed = 0
    errors: list[str] = []
    for workload in WORKLOADS:
        generate(workload, args.seed)
        module, state, _ = load(workload, args.seed)
        tracer = Tracer()
        started = time.perf_counter()
        outputs, failed_ids, metrics = module.trace(state, tracer, args.seed)
        elapsed = time.perf_counter() - started
        ops = module.round_ops(state)
        attempted += len(outputs) + len(failed_ids)
        failed += len(failed_ids)
        errors += check_all(module, state, ops, outputs, failed_ids, args.seed)
        values.update(metrics)
        tracer.dump(OUT / f"trace-{workload}-seed{args.seed}.jsonl")
        print(f"{workload}: traced round of {len(outputs) + len(failed_ids)} operations in {elapsed:.2f} s, "
              f"{len(tracer.spans)} spans")
    show_errors(errors)
    report(not errors, attempted, failed, values, declared)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="pdl4 benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The CLI reads its default limits from PDL4_* variables; the benchmark
    # runs at the built-in defaults, in this process and in its children.
    for name in [n for n in os.environ if n.startswith("PDL4_")]:
        del os.environ[name]
    if not (SRC / "pdl4" / "__init__.py").is_file():
        fail(f"no pdl4 sources under {SRC}; run from a checkout of the repository")
    if args.setup_probe:
        print(load(args.workload, args.seed)[2])
        return
    benchmark = ROOT / "BENCHMARK.json"
    if not benchmark.is_file():
        fail(f"{benchmark} is missing")
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    if args.trace:
        traced(args, spec["per_layer"])
    else:
        untraced(args, spec["end_to_end"])


if __name__ == "__main__":
    main()
