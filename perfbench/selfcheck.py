#!/usr/bin/env python3
"""Fast self-check of the benchmark at reduced sizes (under a minute).

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload named in BENCHMARK.json it runs ``run.py --size small``
twice untraced and twice traced, and asserts that each run is correct, that
its metrics are exactly the ones BENCHMARK.json names, each with its unit,
and that the two invocations report identical counters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def invoke(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--size", "small"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=300).stdout
    return json.loads(out.strip().splitlines()[-1])


def counters(result):
    """Metrics that must repeat exactly: counts and model-cost ratios."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            first, second = invoke(workload, trace), invoke(workload, trace)
            for result in (first, second):
                assert result["correct"] and result["failed"] == 0, result
                units = {k: m["unit"] for k, m in result["metrics"].items()}
                assert units == expected[trace], (workload, trace, units)
            assert counters(first) == counters(second), (workload, trace)
            print("ok %s trace=%d: %d metrics, counters repeat"
                  % (workload, trace, len(units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
