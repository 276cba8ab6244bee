"""One benchmark process: set-up, then one timed pass or the kernel sweep.

A pass is timed by probe.SpeedClock, which runs a calibration probe
every ``PERIOD_S`` and reports the raw wall time of the pass, probes
excluded, and that time adjusted for the host's speed.

run.py starts a fresh process for every pass, so each pass pays the
imports and builds its sets from scratch (the per-set mesh cache never
carries over), and ``ru_maxrss`` is that pass's own peak.  The result
is one JSON file.

    python3 perfbench/worker.py --workload analysis --seed 0 \\
        --workdir DIR --result FILE --spawned T [--mode pass|setup|sweep] \\
        [--trace 0|1] [--minimal] [--fault energy]

``--spawned`` is the parent's ``time.monotonic()`` just before it
started this process; set-up time runs from there to the first
workload call.
"""

import os

# BLAS/OpenMP pools are sized when numpy loads, so this comes first.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "RIESZ_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (numpy and every rieszfield module)
from checks import Checks  # noqa: E402
from probe import SpeedClock  # noqa: E402


def _perturb_energy(factor=1.0 + 1e-3):
    """Smoke-test fault: every energy the package computes comes out
    scaled, so the benchmark's own recomputation must disagree."""
    exact = workloads.optimizer.energy

    def wrong(*args, **kwargs):
        return exact(*args, **kwargs) * factor

    workloads.optimizer.energy = wrong
    workloads.diagnostics.energy = wrong


def _run_pass(args):
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.minimal)
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        return {"setup_s": setup_s}
    if args.fault == "energy":
        _perturb_energy()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(workloads.MODULES)
        for cset in workload.sets:
            tracer.wrap_set(cset)

    with SpeedClock(periodic=tracer is None) as clock:
        workload.run()
    wall_s = clock.wall_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_adj_s": clock.adjusted_s,
        "peak_rss_mb": peak_rss_mb,
        "probe_s": clock.probes,
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.restore()
        tracer.dump(Path(args.result).with_suffix(".spans.json"))
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, wall_s)
    checks = Checks()
    result["quality"] = workload.check(checks)
    result["checks"] = checks.items
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--mode", choices=("pass", "setup", "sweep"), default="pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--minimal", action="store_true")
    p.add_argument("--fault", choices=("none", "energy"), default="none")
    args = p.parse_args(argv)
    if args.mode == "sweep":
        from sweep import kernel_sweep

        result = {"layers": kernel_sweep(args.seed, args.minimal)}
    else:
        result = _run_pass(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
