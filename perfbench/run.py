"""Benchmark entry point: one workload in a closed loop, metrics as JSON.

    python3 perfbench/run.py --workload sphere-large --seed 0 --seconds 30 --trace 0

One client, closed loop: each pass runs in a fresh worker process that
starts when the previous one has ended, as long as it can be expected
to end within ``--seconds`` (at least one pass).  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs the kernel sweep, then untraced and
traced passes alternately, and reports the per-layer metrics.  Every
pass checks its outputs; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Uses only the standard library; numpy and the package load in the
workers.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sphere-large", "reproduce-small", "analysis")
MIN_SETUPS = 7  # set-up samples per run; topped up with set-up-only processes
PASS_TIMEOUT_S = 170


class Runner:
    """Starts worker processes for one run and collects their results."""

    def __init__(self, args, run_dir):
        self.args = args
        self.run_dir = run_dir
        self.count = 0
        self.attempted = 0
        self.failures = []

    def spawn(self, mode="pass", trace=0):
        self.count += 1
        tag = f"{mode}{self.count}"
        workdir = self.run_dir / tag
        result = self.run_dir / f"{tag}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--workdir", str(workdir), "--result", str(result),
            "--mode", mode, "--trace", str(trace), "--fault", self.args.fault,
        ]
        if self.args.minimal:
            cmd.append("--minimal")
        with open(self.run_dir / f"{tag}.log", "w") as log:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    cmd + ["--spawned", repr(spawned)], stdout=log, stderr=subprocess.STDOUT,
                    cwd=ROOT, timeout=PASS_TIMEOUT_S,
                )
                code = proc.returncode
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                code = "timeout"
        shutil.rmtree(workdir, ignore_errors=True)
        if code != 0:
            if mode == "pass":
                self.attempted += 1
                self.failures.append((f"{tag}.process", f"exit {code}, see {tag}.log"))
            return None
        with open(result) as fh:
            out = json.load(fh)
        for name, ok, detail in out.get("checks", []):
            self.attempted += 1
            if not ok:
                self.failures.append((f"{tag}.{name}", detail))
        return out


def _median(results, key):
    return statistics.median(r[key] for r in results)


def _setup_samples(runner, results):
    samples = [r["setup_s"] for r in results]
    while len(samples) < MIN_SETUPS:
        out = runner.spawn("setup")
        if out is None:
            break
        samples.append(out["setup_s"])
    return samples


def _closed_loop(seconds, step, enough):
    """Call ``step`` back to back until ``enough()`` holds and the next
    call, as long as the mean so far, would end after ``seconds``.
    False when a step fails."""
    t0 = time.monotonic()
    calls = 0
    while True:
        if not step():
            return False
        calls += 1
        elapsed = time.monotonic() - t0
        if enough() and elapsed + elapsed / calls > seconds:
            return True


def end_to_end(runner, seconds):
    passes = []

    def step():
        out = runner.spawn()
        if out is not None:
            passes.append(out)
        return bool(passes)  # a first pass that fails ends the run

    if not _closed_loop(seconds, step, lambda: bool(passes)):
        return None, []
    setups = _setup_samples(runner, passes)
    walls = [r["wall_s"] for r in passes]
    adjusted = [r["wall_adj_s"] for r in passes]
    probes = [p for r in passes for p in r["probe_s"]]
    quality = {k: _median([r["quality"] for r in passes], k) for k in passes[0]["quality"]}
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_adj_s": statistics.median(adjusted),
        "peak_rss_mb": _median(passes, "peak_rss_mb"),
        "energy_over_tau": quality["energy_over_tau"],
    }
    lines = [
        f"setup_s      median of {len(setups)} process set-ups: {metrics['setup_s']:.4f} s",
        f"wall_adj_s   median of {len(adjusted)} passes: {metrics['wall_adj_s']:.4f} s; highest {max(adjusted):.4f} s "
        f"(an upper percentile needs ten samples beyond it)",
        f"wall_s       raw, median of {len(walls)} passes: {statistics.median(walls):.4f} s; highest {max(walls):.4f} s",
        f"probe        {len(probes)} probes: median {statistics.median(probes):.4f} s, "
        f"range {min(probes):.4f}-{max(probes):.4f} s",
        f"peak_rss_mb  median of {len(passes)} passes: {metrics['peak_rss_mb']:.1f} MB",
        "energy_over_tau and its terms: "
        + ", ".join(f"{k} = {v:.6g}" for k, v in sorted(quality.items())),
    ]
    return metrics, lines


def per_layer(runner, seconds):
    sweep = runner.spawn("sweep")
    if sweep is None:
        return None, []
    plain, traced = [], []

    def step():
        trace = int(len(plain) > len(traced))
        out = runner.spawn(trace=trace)
        if out is not None:
            (traced if trace else plain).append(out)
        return out is not None

    if not _closed_loop(seconds, step, lambda: bool(plain and traced)):
        return None, []
    layers = {k: _median([r["layers"] for r in traced], k) for k in traced[0]["layers"]}
    layers.update(sweep["layers"])
    untraced = _median(plain, "wall_adj_s")
    layers["trace.overhead_frac"] = (_median(traced, "wall_adj_s") - untraced) / untraced
    lines = [
        f"traced passes: {len(traced)}, untraced passes: {len(plain)}; untraced wall_adj_s median {untraced:.4f} s",
        f"top-level spans cover {layers['trace.top_level_coverage']:.1%} of the traced wall_s",
        "kernel sweep on seeded sphere configurations; bytes are computed, not measured; "
        "caches: L2 4 MiB per core, L3 300 MiB shared",
    ]
    return layers, lines


def main(argv=None):
    p = argparse.ArgumentParser(description="rieszfield benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--minimal", action="store_true", help="smoke-test sizes")
    p.add_argument("--fault", choices=("none", "energy"), default="none",
                   help="smoke test: scale every energy the package computes")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "rieszfield" / "__init__.py").is_file():
        print(f"error: package source src/rieszfield not found under {ROOT}", file=sys.stderr)
        return 2
    args.seed %= 2**32
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args, run_dir)
    measure = per_layer if args.trace else end_to_end
    values, lines = measure(runner, args.seconds)
    if values is None:
        print(f"error: the {args.workload} workload did not complete; logs in {run_dir}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1

    failed = len(runner.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print("  " + line)
    print(f"  fail_frac    {failed} of {runner.attempted} checks failed"
          + (f" = {failed / runner.attempted:.4g}" if runner.attempted else ""))
    for name, detail in runner.failures:
        print(f"    FAILED {name}: {detail}")
    print(json.dumps({
        "correct": failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
