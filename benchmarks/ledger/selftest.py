#!/usr/bin/env python3
"""Smoke-test the ledger benchmark itself (the hook a CI job calls).

    python3 benchmarks/ledger/selftest.py

Runs ``run.py --smoke`` (toy scale, one round, all four workloads plus
the traced run, correctness gate on, bounds off) and asserts that every
metric ``BENCHMARK.json`` names is present for every workload, finite
and carries the declared unit, that no operation failed, and that the
contract file and the code agree on names and units.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parents[1]
SMOKE_BUDGET_S = 20.0


def main() -> int:
    contract = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    declared = {
        metric["name"]: metric["unit"]
        for metric in contract["end_to_end"] + contract["per_layer"]
    }

    sys.path.insert(0, str(HERE))
    import measure
    import tracing

    in_code = {**measure.END_TO_END, **tracing.PER_LAYER}
    assert declared == in_code, (
        "BENCHMARK.json and the code disagree on metrics: "
        f"{sorted(set(declared.items()) ^ set(in_code.items()))}"
    )

    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=CHECKOUT,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, f"smoke run failed:\n{done.stdout[-3000:]}\n{done.stderr[-3000:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1

    for workload in (entry["name"] for entry in contract["workloads"]):
        for name, unit in declared.items():
            metric = result["metrics"].get(f"{workload}.{name}")
            assert metric is not None, f"{workload}: {name} missing"
            assert metric["unit"] == unit, f"{workload}: {name} unit {metric['unit']!r}"
            value = metric["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value), (
                f"{workload}: {name} = {value!r}"
            )
    print(
        f"ledger selftest ok: {len(contract['workloads'])} workloads x"
        f" {len(declared)} metrics, {result['attempted']} operations,"
        f" smoke run {elapsed:.1f}s"
        + ("" if elapsed < SMOKE_BUDGET_S else f" (over the {SMOKE_BUDGET_S:.0f}s budget)")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
