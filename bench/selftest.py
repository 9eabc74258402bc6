#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

Run from the repository root:

    python3 bench/selftest.py

For every workload it makes one end-to-end run and two traced runs with one
seed at ``--size small``, and asserts that:

- every op passed its output checks;
- every metric BENCHMARK.json names is in the result with its unit, and
  every printed metric line carries a unit and a sample count;
- the exact counts (calls, steps, evaluations, bytes) of the two traced
  runs are identical;
- ``certify`` never integrates.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 3
COUNT_SUFFIXES = (
    ".calls", ".accepted_steps", ".rejected_steps", ".rhs_evals", ".residual_evals", ".bytes",
)
LINE = re.compile(r"^(\S+) (\S+) (\S+) n=(\d+)$")


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    assert result["correct"] and result["failed"] == 0, f"{workload}: failed ops\n{proc.stdout}"
    return result, printed


def check_metrics(result: dict, printed: dict, wanted: list[dict], label: str) -> None:
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        assert got is not None, f"{label}: {spec['name']} missing"
        assert got["unit"] == spec["unit"], f"{label}: {spec['name']} unit {got['unit']}"
        assert math.isfinite(got["value"]), f"{label}: {spec['name']} = {got['value']}"
        assert spec["name"] in printed, f"{label}: {spec['name']} not printed with unit and n"


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        result, printed = run(name, 0)
        check_metrics(result, printed, spec["end_to_end"], f"{name} end-to-end")
        runs = [run(name, 1) for _ in range(2)]
        for result, printed in runs:
            check_metrics(result, printed, spec["per_layer"], f"{name} per-layer")
        counts = [{k: v for k, v in p.items() if k.endswith(COUNT_SUFFIXES)} for _, p in runs]
        assert counts[0], f"{name}: no exact counts printed"
        diff = {k for k in counts[0] if counts[0][k] != counts[1].get(k)}
        assert not diff, f"{name}: counts differ between two runs of seed {SEED}: {sorted(diff)}"
        if name == "certify":
            assert counts[0]["solver.integrate.calls"][0] == 0, "certify integrated"
        print(f"ok {name}: {len(counts[0])} exact counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
