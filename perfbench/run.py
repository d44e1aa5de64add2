"""rado-forge benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
``--seconds`` sets the number of passes over the workload's task set (see
``pass_count``), not a wall-time limit.  With
``--trace 0`` the last line of standard output is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see README.md).  The lines before it print every metric by name
and unit, the environment and the sample count behind each percentile.
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = ("poly", "classify", "witness", "search", "cli")
# Set-ups per run; the first is this process's own, the rest run in fresh
# interpreters so that every sample pays the full import.
SETUP_SAMPLES = 5
# Tail latency is read at the highest percentile with this many samples above it.
TAIL_BEYOND = 10
# The interpreter's speed on a shared machine drifts by a quarter and more
# within seconds, for the library and for any other Python code alike.  So
# tasks are timed in segments of at least SEGMENT_S, and after each segment
# fixed calibration work runs for CALIBRATION_SHARE of the segment's time, at
# least CALIBRATION_MIN_CALLS calls.  A block's speed factor is its mean
# calibration time over CALIBRATION_REF_S, and a segment's times are divided
# by the mean factor of the blocks just before and just after it.  The
# calibration runs with the garbage collector off, so that its time does not
# depend on how much the library keeps alive.
SEGMENT_S = 0.005
CALIBRATION_SHARE = 0.05
CALIBRATION_MIN_CALLS = 3
CALIBRATION_REF_S = 0.00008


def calibration_work() -> int:
    """Fixed pure-Python work of 50 to 100 microseconds, in the
    styles of the library's inner loops: tuple-keyed dict updates,
    short-lived dicts and tuples, list indexing."""
    table: dict[tuple[int, int], int] = {}
    rows = []
    for i in range(90):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + (i * i + 3 * i) % 11
        row = {"a": i, "b": i + 1}
        rows.append((row, tuple(row.values())))
    colors = [i % 3 for i in range(64)]
    hits = sum(colors[v // 2] == colors[v - v // 2] for v in range(2, 64))
    return len(table) + len(rows) + hits


@dataclass
class Calibration:
    seconds: float = 0.0
    calls: int = 0

    def run_until(self, seconds: float, calls: int = 1) -> None:
        gc.disable()
        try:
            while self.calls < calls or self.seconds < seconds:
                started = time.perf_counter()
                calibration_work()
                self.seconds += time.perf_counter() - started
                self.calls += 1
        finally:
            gc.enable()

    @property
    def speed(self) -> float:
        """Above 1 when the machine runs slower than the reference."""
        return self.seconds / self.calls / CALIBRATION_REF_S


def load_library():
    """Import the package from ``src`` of the checkout, by module."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    lib = argparse.Namespace(
        **{name: importlib.import_module(f"rado_forge.{name}") for name in MODULES}
    )
    if not Path(lib.poly.__file__).resolve().is_relative_to(src):
        raise ImportError(f"rado_forge was found at {lib.poly.__file__}, not under {src}")
    return lib


def set_up(workload: str, seed: int):
    """Import and input generation; the time is returned at reference speed."""
    started = time.perf_counter()
    lib = load_library()
    passes = workloads.WORKLOADS[workload](random.Random(seed))
    took = time.perf_counter() - started
    calibration = Calibration()
    calibration.run_until(took)
    return lib, passes, took / calibration.speed


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter, at reference speed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


@dataclass
class Phase:
    """Timed passes.  Latencies are at reference speed."""

    # an array of 8-byte floats, so that peak memory barely grows with passes
    latencies: array.array = field(default_factory=lambda: array.array("d"))
    failed: int = 0
    decided: int = 0
    passes: int = 0
    unscaled_busy: float = 0.0
    calibration: Calibration = field(default_factory=Calibration)


def pass_count(workload: str, seconds: float) -> int:
    """Passes of a run of ``seconds``: the workload's fixed count for 30 s,
    scaled, at least one.  It depends on the arguments only, never on how
    fast the code runs, so each percentile stays at the same rank."""
    return max(1, round(workloads.PASSES_PER_30_S[workload] * seconds / 30))


def calibrate(seconds: float, total: Calibration) -> Calibration:
    """One calibration block, also added into ``total``."""
    block = Calibration()
    block.run_until(seconds, CALIBRATION_MIN_CALLS)
    total.seconds += block.seconds
    total.calls += block.calls
    return block


def run_phase(passes, lib, rng, rounds: int, tracer=None) -> Phase:
    """``rounds`` whole passes over the task set, each in a seeded order.
    Only library calls are timed; each output is checked and dropped at
    once, and calibration work runs between segments of tasks."""
    phase = Phase()
    before = calibrate(0.0, phase.calibration)
    segment: list[float] = []

    def close_segment() -> None:
        nonlocal before
        busy = sum(segment)
        after = calibrate(CALIBRATION_SHARE * busy, phase.calibration)
        speed = (before.speed + after.speed) / 2
        phase.latencies.extend(x / speed for x in segment)
        phase.unscaled_busy += busy
        segment.clear()
        before = after

    while phase.passes < rounds:
        tasks = list(passes[phase.passes % len(passes)])
        rng.shuffle(tasks)
        for task in tasks:
            if tracer is not None:
                tracer.begin_task(task.label)
            t0 = time.perf_counter()
            try:
                out, raised = task.run(lib), False
            except (Exception, SystemExit):  # a library exit fails the task, not the run
                raised = True
                phase.failed += 1
                print(f"task raised: {task.text}\n{traceback.format_exc()}", file=sys.stderr)
            segment.append(time.perf_counter() - t0)
            if sum(segment) >= SEGMENT_S:
                close_segment()
            if raised:
                continue
            try:
                ok, decided = task.check(out)
            except Exception:
                ok, decided = False, False
                print(f"check raised: {task.text}\n{traceback.format_exc()}", file=sys.stderr)
            if not ok:
                phase.failed += 1
                print(f"wrong answer: {task}", file=sys.stderr)
            phase.decided += decided
        phase.passes += 1
    if segment:
        close_segment()
    return phase


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def commit() -> str:
    """Commit of the checkout; "unknown" when it is not a git work tree of
    its own (a repository further up is not asked)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.pop("RADO_FORGE_BUDGET", None)  # the library's default budget

    try:
        lib, passes, setup_first = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import rado_forge from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_first)
        return 0
    setups = [setup_first] + [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    rng = random.Random(args.seed)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed),
              "setup_samples": len(setups)}

    if args.trace == 0:
        phase = run_phase(passes, lib, rng, pass_count(args.workload, args.seconds))
        phases = [phase]
        tail_s, tail_pct, beyond = tail(phase.latencies)
        n = len(phase.latencies)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "tasks_per_s": (n / sum(phase.latencies), "1/s"),
            "task_p50_ms": (statistics.median(phase.latencies) * 1000, "ms"),
            "task_tail_ms": (tail_s * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "decided_ratio": (phase.decided / n, "ratio"),
        }
        record.update(passes=phase.passes, samples=n, speed=phase.calibration.speed,
                      unscaled_tasks_per_s=n / phase.unscaled_busy,
                      task_p50_samples=n, task_tail_percentile=tail_pct,
                      task_tail_samples_beyond=beyond)
    else:
        # Same seed, same number of passes: untraced first, then traced.
        plain = run_phase(passes, lib, rng, pass_count(args.workload, args.seconds / 2))
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced = run_phase(passes, lib, rng, plain.passes, tracer=tracer)
        finally:
            tracer.uninstall()
        phases = [plain, traced]
        speed = traced.calibration.speed
        layer = tracer.per_layer(traced.passes, speed)
        layer["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
        metrics = {
            name: (value, "ratio" if name.endswith("ratio") else
                   "ms" if name.endswith("_ms") else
                   "1/s" if name.endswith("per_s") else "count")
            for name, value in layer.items()
        }
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        shares = tracer.task_layers(traced.passes, speed)
        record.update(passes=traced.passes, spans=len(tracer.spans), task_layers=shares,
                      spans_file=str(spans.relative_to(ROOT)), speed=speed)

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    record["error_ratio"] = failed / attempted
    print(json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:34s} {value:>16.6f} {unit}")
    if args.trace == 1:
        for label, layers in shares.items():
            spanned = sum(layers.values())
            top = ", ".join(f"{layer} {ms / spanned:.0%}" for layer, ms in
                            sorted(layers.items(), key=lambda kv: -kv[1])[:3])
            print(f"{args.workload:15s} self time of {label}: {spanned:.1f} ms/pass; {top}")
    if args.trace == 0:
        print(f"{args.workload:15s} {'error_ratio':34s} {failed / attempted:>16.6f} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
