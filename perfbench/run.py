#!/usr/bin/env python3
"""Epoch-throughput benchmark of the auction economy, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-market --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep-mechanisms --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --all --trace 0  # every workload, one after another

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Fewest set-up passes per run; ``setup_s`` reports their median.
SETUP_PASSES = 3
#: A tail percentile is reported only with at least this many epochs beyond it.
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("paper-market", "stress-10k", "sweep-mechanisms")
#: BLAS runs one thread, set before numpy loads: the workloads are single-caller
#: loops, and BLAS threads spinning on a shared host time the scheduler.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--self-check", action="store_true", help="check the span wiring")
    parser.add_argument(
        "--write-reference", action="store_true",
        help="re-pin reference.json from one round of every workload at seed 0",
    )
    args = parser.parse_args(argv)
    if not (args.workload or args.all or args.self_check or args.write_reference):
        parser.error("give --workload, --all, --self-check or --write-reference")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_program() -> float:
    """Import the checkout's ``repro`` from ``src/``; returns the seconds it took."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    start = time.perf_counter()
    import repro
    import repro.exec  # noqa: F401 - the sweep's backend registry
    import workloads  # noqa: F401 - imports the pipeline modules the workloads use

    seconds = time.perf_counter() - start
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return seconds


def git_commit() -> str:
    """HEAD's commit when the checkout is a git work tree, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over every source file, so a result names its code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run_round(workload, specs, epoch_clock, tracer=None):
    import workloads

    if workload.kind == "market":
        return workloads.market_round(specs, epoch_clock, tracer=tracer)
    return workloads.sweep_round(specs, epoch_clock, OUT / "sweep.sqlite", tracer=tracer)


def extra_setup(workload, specs) -> float:
    """One set-up pass whose product is thrown away (more ``setup_s`` samples)."""
    import workloads
    from repro.results.store import ResultStore

    gc.collect()
    if workload.kind == "market":
        return workloads.build_all(specs)[1]
    path = OUT / "setup.sqlite"
    start = time.perf_counter()
    ResultStore(path).close()
    seconds = time.perf_counter() - start
    path.unlink()
    return seconds


def judge(workload_name: str, seed: int, rounds) -> tuple[int, int, dict[str, str]]:
    """``(attempted, failed, failures)`` over every round of the run."""
    import workloads

    failures: dict[str, str] = {}
    first = rounds[0].digests
    for number, round_ in enumerate(rounds):
        found = dict(round_.failures)
        for key, value in workloads.reference_failures(workload_name, seed, round_.digests).items():
            found.setdefault(key, value)
        for key, value in round_.digests.items():
            if first.get(key) != value:
                found.setdefault(key, "report differs from the same job in round 0")
        failures.update({f"round {number} {key}": reason for key, reason in found.items()})
    attempted = sum(round_.attempted for round_ in rounds)
    return attempted, len(failures), failures


def tail(epochs: list[float]) -> tuple[float, float] | None:
    """(percentile, seconds): the highest percentile with TAIL_BEYOND epochs beyond it."""
    if len(epochs) <= TAIL_BEYOND:
        return None
    ordered = sorted(epochs)
    position = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (position + 1) / len(ordered), ordered[position]


def end_to_end(rounds, setup_samples, import_s) -> dict[str, tuple[float, str]]:
    epochs = [seconds for round_ in rounds for seconds in round_.epochs]
    return {
        "wall_s": (statistics.median(r.seconds for r in rounds), "s"),
        "setup_s": (import_s + statistics.median(setup_samples), "s"),
        "epochs_per_s": (len(epochs) / sum(r.seconds for r in rounds), "1/s"),
        "epoch_s_p50": (statistics.median(epochs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {unit}")


def measure(args, import_s: float) -> dict:
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    specs = workload.specs(args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    epoch_clock = workloads.EpochClock()
    epoch_clock.install()
    untraced, traced, setup_samples = [], [], []
    tracer = spans.Tracer() if args.trace else None
    try:
        measured = 0.0
        pair = 0
        while measured < args.seconds or not untraced:
            # Traced runs alternate which side of each pair goes first.
            plan = [False] if not args.trace else [False, True][:: 1 if pair % 2 == 0 else -1]
            for with_spans in plan:
                round_ = run_round(workload, specs, epoch_clock, tracer if with_spans else None)
                (traced if with_spans else untraced).append(round_)
                measured += round_.seconds
                if not with_spans:
                    setup_samples.append(round_.setup_seconds)
            pair += 1
        # Runs with fewer rounds than SETUP_PASSES set up again, untimed.
        while not args.trace and len(setup_samples) < SETUP_PASSES:
            setup_samples.append(extra_setup(workload, specs))
    finally:
        epoch_clock.uninstall()
        for stale in OUT.glob("*.sqlite*"):
            stale.unlink()

    attempted, failed, failures = judge(args.workload, args.seed, untraced + traced)
    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))
    e2e = end_to_end(untraced, setup_samples, import_s)
    print_metrics(f"{args.workload} end to end, {len(untraced)} untraced round(s)", e2e)
    epochs = [seconds for round_ in untraced for seconds in round_.epochs]
    epoch_tail = tail(epochs)
    if epoch_tail is not None:
        print(f"# epoch_s_tail p{epoch_tail[0]:.1f} = {epoch_tail[1]:.6g} s "
              f"over {len(epochs)} epochs ({TAIL_BEYOND} beyond it)")
    else:
        print(f"# epoch_s_tail omitted: {len(epochs)} epochs, fewer than {TAIL_BEYOND + 1}")
    print(f"# failed_fraction {failed / attempted:.6g} ({failed} of {attempted} scenario runs)")
    print(f"# program constraint report unsatisfied in {epoch_clock.program_flagged} epoch(s); "
          "not trusted, the settlements are checked line by line instead (README.md)")
    for key, reason in sorted(failures.items())[:20]:
        print(f"# FAILED {key}: {reason[:300]}")

    if not args.trace:
        metrics = e2e
    else:
        metrics = per_layer(tracer, traced, untraced, args.workload)
        print_metrics(f"{args.workload} per layer, mean of {len(traced)} traced round(s)", metrics)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json", env)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def per_layer(tracer, traced, untraced, workload_name: str) -> dict[str, tuple[float, str]]:
    """Layer metrics per traced round, plus the trace's own quality figures."""
    import spans

    rounds = len(traced)
    metrics = {}
    for name, (value, unit) in tracer.layer_metrics().items():
        per_round = unit in ("s", "count") and name != "clock.round_s"
        metrics[name] = (value / rounds if per_round else value, unit)
    overhead = (
        statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in untraced) - 1.0
    )
    metrics["trace.overhead"] = (overhead, "ratio")
    unfired = spans.EXPECTED_SPANS[workload_name] - tracer.fired()
    for name in sorted(unfired):
        print(f"# span never fired: {name}")
    for target in tracer.missing:
        print(f"# span target not found: {target}")
    metrics["trace.unwired"] = (len(unfired) + len(tracer.missing), "count")
    return metrics


def write_reference() -> None:
    import workloads

    pinned = {}
    for name in WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        epoch_clock = workloads.EpochClock()
        epoch_clock.install()
        try:
            round_ = run_round(workload, workload.specs(workloads.DEFAULT_SEED), epoch_clock)
        finally:
            epoch_clock.uninstall()
        pinned[name] = dict(sorted(round_.digests.items()))
        print(f"# {name}: {len(round_.digests)} reports pinned")
    workloads.REFERENCE.write_text(json.dumps({
        "seed": workloads.DEFAULT_SEED,
        "workloads": pinned,
    }, indent=2) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    if args.self_check:
        import selfcheck

        problems = selfcheck.run(OUT)
        for problem in problems:
            print(f"# self-check: {problem}")
        print(f"# self-check: {'ok' if not problems else f'{len(problems)} problem(s)'}")
        return 1 if problems else 0
    if args.write_reference:
        write_reference()
        return 0
    if args.all:
        # One process per workload, so each reports its own import and memory.
        for name in WORKLOAD_NAMES:
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(command, check=False).returncode != 0:
                return 1
        return 0
    result = measure(args, import_s)
    if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
        raise SystemExit("perfbench: a metric is not finite")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
