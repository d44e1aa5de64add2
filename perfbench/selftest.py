"""Self-test of the benchmark at its smallest size (one pass per run).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that every named metric is
printed with its unit, that error_ratio is 0, and that the exact counts of two
traced runs with one seed are equal.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
EXACT = ("search.kernel.nodes", "search.enumerate.constraints", "search.scan.steps")


def run(workload: str, trace: int) -> tuple[dict, dict, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1]), done.stdout


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metrics(workload: str, result: dict, stdout: str, wanted: list[dict]) -> None:
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        expect(got is not None and got["unit"] == unit,
               f"{workload}: {name} missing or not in {unit}: {got}")
        expect(any(line.split()[1:2] == [name] and line.split()[-1] == unit
                   for line in stdout.splitlines()),
               f"{workload}: {name} not printed with {unit}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        record, result, stdout = run(workload, 0)
        check_metrics(workload, result, stdout, spec["end_to_end"])
        expect(result["correct"] and result["failed"] == 0 and record["error_ratio"] == 0,
               f"{workload}: error_ratio {record['error_ratio']}")
        expect(any(line.split()[1:] == ["error_ratio", "0.000000", "ratio"]
                   for line in stdout.splitlines()),
               f"{workload}: error_ratio 0 not printed")

        counts = []
        for _ in range(2):
            record, result, stdout = run(workload, 1)
            check_metrics(workload, result, stdout, spec["per_layer"])
            expect(record["error_ratio"] == 0, f"{workload}: traced error_ratio {record['error_ratio']}")
            counts.append({name: result["metrics"][name]["value"] for name in EXACT})
        expect(counts[0] == counts[1], f"{workload}: exact counts differ: {counts}")
        print(f"ok {workload}: {counts[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
