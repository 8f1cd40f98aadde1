"""Every metric of every workload in one table, plus the derived flatness
figure.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--json FILE]

Runs ``run.py`` once per workload with tracing off and once with it on,
prints each end-to-end and per-layer metric by name with its unit, and two
flatness figures, ``orgs1000-mixed`` against ``orgs10-mixed``: the ratio of
``run_tx_per_s`` (whole command, fixed costs included) and the ratio of
``runner.step_us.p50`` (one applied transaction).  A step ratio of 1.0
means a transaction costs the same however many orgs are registered.  ``--json`` also writes the
numbers to FILE.  Exits 1 if any run reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--json", help="also write the numbers to this file")
    args = parser.parse_args()

    results = {}
    correct = True
    for workload, shape in gen.WORKLOADS.items():
        entry = {"shape": {"orgs": shape.orgs, "tx_steps": shape.tx_steps,
                           "mix": dict(shape.mix)},
                 "why": shape.why}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(workload, args.seed, args.seconds, trace)
            correct &= result["correct"]
            entry[key] = result["metrics"]
            entry[f"{key}_failed_ratio"] = result["failed"] / result["attempted"]
        results[workload] = entry
        for key in ("end_to_end", "per_layer"):
            for name, metric in entry[key].items():
                print(f"{workload:15} {name:28} {metric['value']:14.6g} {metric['unit']}")
            print(f"{workload:15} {'failed_ratio':28} {entry[f'{key}_failed_ratio']:14.6g}")

    wide, narrow = results["orgs1000-mixed"], results["orgs10-mixed"]
    flat = (wide["end_to_end"]["run_tx_per_s"]["value"]
            / narrow["end_to_end"]["run_tx_per_s"]["value"])
    step = (wide["per_layer"]["runner.step_us.p50"]["value"]
            / narrow["per_layer"]["runner.step_us.p50"]["value"])
    print(f"flatness: run_tx_per_s orgs1000-mixed / orgs10-mixed = {flat:.4f}")
    print(f"flatness: runner.step_us.p50 orgs1000-mixed / orgs10-mixed = {step:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "correct": correct,
             "host": {"python": platform.python_version(), "machine": platform.machine(),
                      "cpus": os.cpu_count()},
             "flatness_run_tx_per_s_orgs1000_over_orgs10": flat,
             "flatness_step_us_p50_orgs1000_over_orgs10": step,
             "workloads": results}, indent=2) + "\n", encoding="utf-8")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
