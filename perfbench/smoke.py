"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at minimal size: untraced on the default seed 0 and
on the held-out seed 1, traced on seed 0.  Checks that the last line of
output is the JSON result, that it names every metric of BENCHMARK.json
with its unit, and that no output check failed.  Then runs every workload with ``--fault energy`` (every energy
the package computes scaled by 1 + 1e-3) and checks that the output
checks catch it: fail_frac > 0.  Last, runs the benchmark from a copy
holding only BENCHMARK.json and perfbench/, where it must fail without
printing a result.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sphere-large", "reproduce-small", "analysis")


def _run(root, workload, trace, *extra, seed=0):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--minimal", *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        # seed 0 is the default, seed 1 the held-out one
        for seed, trace, wanted in ((0, 0, spec["end_to_end"]), (1, 0, spec["end_to_end"]),
                                    (0, 1, spec["per_layer"])):
            res = _result(_run(ROOT, workload, trace, seed=seed))
            where = f"{workload} --seed {seed} --trace {trace}"
            if res is None:
                problems.append(f"{where}: no JSON result")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: {res['failed']} of {res['attempted']} checks failed")
            for m in wanted:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: metric {m['name']} missing or without unit {m['unit']}")
        res = _result(_run(ROOT, workload, 0, "--fault", "energy"))
        if res is None or res["failed"] == 0:
            problems.append(f"{workload}: a perturbed energy went unnoticed (fail_frac = 0)")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, WORKLOADS[0], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without the package source the benchmark did not fail cleanly")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
