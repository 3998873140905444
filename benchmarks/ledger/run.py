#!/usr/bin/env python3
"""The LotusX ledger benchmark: one command, four pinned workloads.

    python3 benchmarks/ledger/run.py [--workload W] [--seed N] [--seconds S]
                                     [--trace 0|1] [--selfcheck] [--smoke]

Builds each workload's corpus file, runs the real CLI (``python -m
repro.cli index`` then ``serve --snapshot`` as a child process), drives
it over a loopback socket, checks the answers, and prints every metric
by name with its unit.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of the untraced socket run (``--trace 0``) or the
per-layer metrics of the traced in-process run (``--trace 1``).

See README.md in this directory for the workloads, the metrics, the
layer -> end-to-end map and how the numbers are kept steady.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parents[1]
SRC = CHECKOUT / "src"
WORK_ROOT = CHECKOUT / ".ledger_work"
PINS = json.loads((HERE / "pins.json").read_text())
CONTRACT = CHECKOUT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(CHECKOUT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(plan: dict, args) -> dict:
    """The fingerprint that makes two ledgers comparable at a glance."""
    seed, smoke = args.seed, args.smoke
    return {
        "nproc": plan["nproc"],
        "affinity": plan["affinity"],
        "pinned": plan["pinned"],
        "generator_cpu": plan["generator_cpu"],
        "server_cpu": plan["server_cpu"],
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
        "smoke": smoke,
        "scales": PINS["smoke_scales" if smoke else "scales"],
        "seconds": args.seconds,
        "rounds": 1 if smoke else rounds_for(args.seconds),
    }


def rounds_for(seconds: float) -> int:
    """Measured rounds: a fixed count per ``--seconds`` (the scales are
    tuned so a round takes ~``round_s`` here), never adaptive, so the
    work done — and the WAL a restart replays — is the same on every run."""
    return max(5, round(seconds / PINS["round_s"]))


def build_workload(name: str, seed: int, smoke: bool):
    import workloads

    scale = PINS["smoke_scales" if smoke else "scales"][name]
    workload = workloads.BUILDERS[name](seed, scale)
    digests = workload.digests()
    if seed == PINS["default_seed"] and not smoke:
        pinned = PINS["digests"].get(name)
        if pinned != digests:
            raise SystemExit(
                f"{name}: default-seed inputs changed\n  pinned   {pinned}\n"
                f"  computed {digests}\n(update pins.json only in a PR that"
                " means to change the workload)"
            )
    return workload, digests


def work_dir_for(name: str) -> Path:
    path = WORK_ROOT / f"{os.getpid()}-{name}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def run_one(name: str, args, plan: dict, traced: bool) -> dict:
    """One workload in one mode; the row the report and the JSON line use."""
    workload, digests = build_workload(name, args.seed, args.smoke)
    work_dir = work_dir_for(name)
    try:
        if traced:
            import tracing

            result = tracing.traced_run(workload, work_dir, plan, WORK_ROOT)
        else:
            import measure

            result = measure.measure(
                workload,
                work_dir,
                plan,
                rounds=1 if args.smoke else rounds_for(args.seconds),
                setups=1 if args.smoke else PINS["setups"],
                restarts=1 if args.smoke else measure.RESTART_CYCLES,
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result.update(workload=name, digests=digests, traced=traced)
    return result


def metric_units(traced: bool) -> dict:
    if traced:
        import tracing

        return tracing.PER_LAYER
    import measure

    return measure.END_TO_END


def print_report(results: list[dict], env: dict) -> None:
    print("env " + json.dumps(env, sort_keys=True))
    for result in results:
        outcome = result["outcome"]
        mode = "traced, per layer" if result["traced"] else "socket, end to end"
        print(f"\n== {result['workload']} ({mode}) ==  {json.dumps(result['digests'])}")
        if not result["traced"]:
            print(
                f"rounds {result['rounds']} x {result['requests_per_round']} requests"
                f" (primary {result['samples_per_round']['primary']},"
                f" secondary {result['samples_per_round']['secondary']} per round)"
            )
        for name, unit in metric_units(result["traced"]).items():
            value = result["metrics"][name]
            low_high = result.get("spreads", {}).get(name)
            spread = f"   [min {low_high[0]:.4f}  max {low_high[1]:.4f}]" if low_high else ""
            print(f"{name:34} {value:14.4f} {unit:6}{spread}")
        print(f"attempted {outcome.attempted}  failed {outcome.failed}")
        for reason in outcome.reasons:
            print(f"  FAILED {reason}")


def final_line(results: list[dict], prefix: bool) -> str:
    """The contract's result object.  With one ``--workload`` the metric
    names are bare; a multi-workload run prefixes them ``workload.``."""
    metrics = {}
    for result in results:
        for name, unit in metric_units(result["traced"]).items():
            key = f"{result['workload']}.{name}" if prefix else name
            metrics[key] = {"value": result["metrics"][name], "unit": unit}
    failed = sum(r["outcome"].failed for r in results)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return json.dumps(
        {
            "correct": failed == 0 and finite,
            "attempted": sum(r["outcome"].attempted for r in results),
            "failed": failed,
            "metrics": metrics,
        }
    )


def selfcheck(args, plan: dict) -> int:
    """The whole suite twice on this checkout (A, B per workload): both
    values, their relative difference and the bound, per workload x
    end-to-end metric.  Non-zero exit on any breach."""
    import measure

    contract = json.loads(CONTRACT.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in contract["end_to_end"]}
    rows = []
    failed_ops = 0
    for name in PINS["scales"]:
        pair = [run_one(name, args, plan, traced=False) for _ in range(2)]
        failed_ops += sum(r["outcome"].failed for r in pair)
        for metric, (bound, better) in bounds.items():
            a, b = (r["metrics"][metric] for r in pair)
            worse = (b - a) / a if better == "lower" else (a - b) / a
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "unit": measure.END_TO_END[metric],
                    "a": a,
                    "b": b,
                    "relative_difference": abs(b - a) / a,
                    "bound": bound,
                    "within_bound": abs(worse) <= bound,
                }
            )
    breaches = [row for row in rows if not row["within_bound"]]
    for row in rows:
        flag = "ok" if row["within_bound"] else "BREACH"
        print(
            f"{row['workload']:17} {row['metric']:28} {row['a']:12.4f} {row['b']:12.4f}"
            f" {row['unit']:6} diff {row['relative_difference']:7.2%}"
            f"  bound {row['bound']:.0%}  {flag}"
        )
    report = {
        "env": environment(plan, args),
        "rows": rows,
        "failed_operations": failed_ops,
        "passed": not breaches and failed_ops == 0,
    }
    out = WORK_ROOT / "selfcheck.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}; passed={report['passed']}")
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(PINS["scales"]), default=None)
    parser.add_argument("--seed", type=int, default=PINS["default_seed"])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file() or not CONTRACT.is_file():
        print(
            f"error: {SRC}/repro/cli.py or {CONTRACT} is missing — the ledger"
            " benchmark runs the program from a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads(CONTRACT.read_text())["run_seconds"])

    import client

    plan = client.pin_plan()
    if plan["pinned"]:
        os.sched_setaffinity(0, {plan["generator_cpu"]})
    WORK_ROOT.mkdir(exist_ok=True)

    if args.selfcheck:
        return selfcheck(args, plan)

    names = [args.workload] if args.workload else list(PINS["scales"])
    # A whole-suite smoke run covers the traced path too.
    modes = [False, True] if args.smoke and not args.workload else [bool(args.trace)]
    results = [run_one(name, args, plan, traced) for traced in modes for name in names]
    print_report(results, environment(plan, args))
    line = final_line(results, prefix=args.workload is None)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
