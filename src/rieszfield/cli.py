"""Command-line front end: solve, reproduce, design, constants.

Every run writes a self-describing directory (points.csv, density.csv,
trace.csv, report.json, scatter.svg); report.json follows the schema
shipped under docs/.  Exit codes: 2 for configuration or validation
problems, 3 for solver failures, 4 for I/O failures.
"""

from __future__ import annotations

import os

# Thread caps must be in the environment before numpy loads its BLAS,
# which is why this block sits above the numpy import.
_threads = os.environ.get("RIESZ_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, _threads)

import argparse
import json
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import diagnostics
from ._svg import project_points, scatter_svg, support_contour
from .constants import m_constant, riesz_constant
from .equilibrium import EquilibriumError, integrate_adaptive, solve_equilibrium
from .fields import density_from_descriptor, design_field, field_from_descriptor
from .geometry import set_from_descriptor
from .optimizer import (
    OptimizerFailure,
    OptimizerSettings,
    minimize,
    tau,
    write_points_csv,
    write_trace_csv,
)

EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_REPORT_FILES = ("points.csv", "density.csv", "trace.csv", "report.json", "scatter.svg")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _jsonable(obj):
    """numpy scalars/arrays to plain python for json.dump."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise CliError(EXIT_CONFIG, f"cannot parse {path}: {e}") from e


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise CliError(EXIT_CONFIG, f"{where} is missing required key {key!r}")
    return cfg[key]


def _resolve_constant(s, d, override=None):
    try:
        return riesz_constant(s, d, override)
    except ValueError as e:
        raise CliError(EXIT_CONFIG, str(e)) from e


def _problem_set(set_desc, s):
    """The set of a descriptor and s as a float, checked for s >= d."""
    try:
        cset = set_from_descriptor(set_desc)
    except (ValueError, TypeError, KeyError) as e:
        raise CliError(EXIT_CONFIG, f"bad set descriptor: {e}") from e
    s = float(s)
    if s < cset.hausdorff_dim:
        raise CliError(
            EXIT_CONFIG,
            f"hypersingular regime requires s >= d; got s={s:g} on a set of "
            f"dimension d={cset.hausdorff_dim}",
        )
    return cset, s


def _build_problem(set_desc, field_desc, s, n, override=None):
    """Shared validation path for solve and reproduce."""
    cset, s = _problem_set(set_desc, s)
    n = int(n)
    if n < 2:
        raise CliError(EXIT_CONFIG, f"need at least 2 points, got n={n}")
    const = _resolve_constant(s, cset.hausdorff_dim, override)
    try:
        fld = field_from_descriptor(field_desc, cset, s)
    except (ValueError, TypeError, KeyError) as e:
        raise CliError(EXIT_CONFIG, f"bad field descriptor: {e}") from e
    return cset, fld, s, n, const


def _settings_from(cfg_settings: dict, seed=None) -> OptimizerSettings:
    opts = dict(cfg_settings or {})
    if seed is not None:
        opts["rng_seed"] = int(seed)
    try:
        return OptimizerSettings(**opts)
    except (TypeError, ValueError) as e:
        raise CliError(EXIT_CONFIG, f"bad optimizer settings: {e}") from e


def _write_run(out_dir: Path, result, measure, cset, fld, report_dict):
    """Write the five run artifacts; returns the file manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    X = result.config.points
    write_points_csv(X, out_dir / "points.csv")
    write_trace_csv(result.trace, out_dir / "trace.csv")
    if len(X) >= 16:
        table = diagnostics.empirical_density(result.config)
        eq = diagnostics.density_table_average(measure, table)
        diagnostics.write_density_csv(table, out_dir / "density.csv", eq)
    else:
        measure.to_csv(out_dir / "density.csv")  # too few points to bin
    scatter_svg(
        out_dir / "scatter.svg",
        project_points(X),
        support_contour(cset, measure),
        title=fld.label or "configuration",
    )
    report_dict["files"] = list(_REPORT_FILES)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(_jsonable(report_dict), fh, indent=2)
        fh.write("\n")
    missing = [f for f in _REPORT_FILES if not (out_dir / f).is_file()]
    if missing:
        raise CliError(EXIT_IO, f"run artifacts missing after write: {missing}")
    return report_dict["files"]


def _run(cset, fld, s, n, const, settings, mode, out_dir, label, entry=None):
    """Equilibrium solve, minimize, diagnostics, export and summary.

    ``entry`` is a reproduce_defaults.json example whose published
    windows the run is compared against.
    """
    t0 = time.perf_counter()
    measure = solve_equilibrium(cset, fld, s, c_sd=const)
    result = minimize(cset, fld, s, n, settings, measure=measure)
    # fast mode trades covering-radius resolution for wall time
    fill = None
    if mode == "fast":
        scale = 2e-3 if cset.hausdorff_dim == 1 else 2e-2
        fill = scale * cset.diameter
    report = diagnostics.build_report(result.config, fld, s, measure, mesh=cset.mesh(fill))
    comparison = None if entry is None else _compare(entry, fld, measure, result.config, report)
    d = cset.hausdorff_dim
    report_dict = {
        "label": label,
        "mode": mode,
        "seed": settings.rng_seed,
        "n_points": n,
        "set": cset.descriptor(),
        "constants": {
            "s": s,
            "d": d,
            "c_sd": const.value,
            "provenance": const.provenance,
            "m_sd": m_constant(s, d, const),
        },
        "l1": measure.l1,
        "s_value": measure.s_value,
        "support_fraction": measure.support_fraction,
        "solver_info": measure.solver_info,
        "energy": result.energy,
        "energy_over_tau": result.energy / tau(s, d, n),
        "converged": result.converged,
        "grad_norm": result.grad_norm,
        "iterations": int(result.trace[-1, 0]) + 1 if len(result.trace) else 0,
        "diagnostics": report.to_dict(),
        "comparison": comparison,
    }
    report_dict["wall_time_s"] = time.perf_counter() - t0
    _write_run(Path(out_dir), result, measure, cset, fld, report_dict)
    print(f"L1 = {measure.l1:.9g}   S(q, A) = {measure.s_value:.9g}")
    print(
        f"N = {n}   energy = {result.energy:.9g}   "
        f"separation = {report.separation:.6g}   covering = {report.covering_radius:.6g}"
    )
    print(f"report: {Path(out_dir) / 'report.json'}")
    if comparison is not None:
        for name, c in comparison["checks"].items():
            verdict = "PASS" if c["within"] else "FAIL"
            tol = f" (rel_tol {c['rel_tol']:g})" if "rel_tol" in c else ""
            print(f"  {name}: computed {c['computed']:.6g} vs published {c['published']:.6g}{tol} {verdict}")


def cmd_solve(args) -> int:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise CliError(EXIT_CONFIG, f"{args.config}: run config must be a JSON object")
    n = cfg.get("n", cfg.get("N"))
    if n is None:
        raise CliError(EXIT_CONFIG, f"{args.config} is missing required key 'n'")
    cset, fld, s, n, const = _build_problem(
        _require(cfg, "set", args.config),
        _require(cfg, "field", args.config),
        _require(cfg, "s", args.config),
        n,
        cfg.get("c_override"),
    )
    mode = cfg.get("mode", "reproducible")
    if mode not in ("reproducible", "fast"):
        raise CliError(EXIT_CONFIG, f"mode must be 'reproducible' or 'fast', got {mode!r}")
    settings = _settings_from(cfg.get("settings"), cfg.get("seed"))
    out_dir = args.out or cfg.get("out_dir") or "riesz-run"
    _run(cset, fld, s, n, const, settings, mode, out_dir, cfg.get("label", fld.label))
    return 0


def _reproduce_defaults() -> dict:
    path = resources.files("rieszfield").joinpath("data/reproduce_defaults.json")
    return json.loads(path.read_text())


def _check(published, computed, rel_tol):
    return {
        "published": published,
        "computed": computed,
        "rel_tol": rel_tol,
        "within": bool(abs(computed - published) <= rel_tol * abs(published)),
    }


def _compare(entry, fld, measure, config, report):
    """The run's numbers against the published windows of ``entry``."""
    pub = entry["published"]
    window = pub["separation"]
    checks = {"separation": _check(window["value"], report.separation, window["rel_tol"])}
    if "mesh_ratio_mid" in pub:
        ratios = diagnostics.region_mesh_ratios(
            config, fld, measure.l1, report.separation, config.cset.mesh()
        )
        for name in ("mid", "polar"):
            window = pub[f"mesh_ratio_{name}"]
            checks[f"mesh_ratio_{name}"] = _check(window["value"], ratios[name], window["rel_tol"])
    if "void_field_level" in pub:
        level = pub["void_field_level"]["value"]
        qmax = float(np.max(fld.evaluate(config.points)))
        checks["void_avoidance"] = {
            "published": level,
            "computed": qmax,
            "within": bool(qmax < level),
        }
    if "histogram_sup_dev" in pub:
        table = diagnostics.empirical_density(config)
        eq = diagnostics.density_table_average(measure, table)
        dev = float(np.max(np.abs(table["density"] - eq)))
        checks["histogram_sup_dev"] = {
            "published": pub["histogram_sup_dev"]["value"],
            "computed": dev,
            "within": bool(dev <= pub["histogram_sup_dev"]["value"]),
        }
    return {
        "published_n": entry["published_n"],
        "run_n": config.n,
        "reduced_n": config.n < entry["published_n"],
        "checks": checks,
        "all_within": all(c["within"] for c in checks.values()),
    }


def cmd_reproduce(args) -> int:
    entry = _reproduce_defaults()["examples"][args.example]
    n = entry["run_n"] if args.n is None else args.n
    cset, fld, s, n, const = _build_problem(entry["set"], entry["field"], entry["s"], n)
    opts = dict(entry["settings"])
    if args.iters is not None:
        opts["max_iters"] = args.iters
    if args.restarts is not None:
        opts["restarts"] = args.restarts
    if args.seed is not None:
        opts["seed"] = args.seed
    settings = _settings_from({k: v for k, v in opts.items() if k != "seed"}, opts.get("seed"))
    out_dir = args.out or f"riesz-reproduce-{args.example}"
    label = f"catalog field {args.example}, n = {n}"
    _run(cset, fld, s, n, const, settings, "reproducible", out_dir, label, entry)
    return 0


def cmd_design(args) -> int:
    set_desc = _load_json(args.set_json)
    rho_desc = _load_json(args.rho_json)
    cset, s = _problem_set(set_desc, args.s)
    try:
        rho = density_from_descriptor(rho_desc, cset)
        total = integrate_adaptive(cset, rho.evaluate, breaks=rho.breaks, tol=1e-12)
        if abs(total - 1.0) > 1e-4:
            raise CliError(
                EXIT_CONFIG,
                f"target density integrates to {total:.6g}; normalize it to unit "
                f"mass (tolerance 1e-4) before designing a field",
            )
        const = _resolve_constant(s, cset.hausdorff_dim, args.override)
        design = design_field(cset, rho, s, c_sd=const)
    except ValueError as e:
        raise CliError(EXIT_CONFIG, str(e)) from e

    measure = solve_equilibrium(cset, design.q, s, c_sd=const)
    target = np.asarray(design.target_density.evaluate(cset.nodes), dtype=float)
    got = measure.density(cset.nodes)
    live = target > 1e-8
    rel_err = float(np.max(np.abs(got[live] - target[live]) / target[live])) if live.any() else 0.0
    out = {
        "field": {"kind": "designed", "rho": rho_desc, "s": s},
        "label": design.q.label,
        "constants": {
            "s": s,
            "d": cset.hausdorff_dim,
            "c_sd": const.value,
            "provenance": const.provenance,
            "m_sd": design.m_constant,
        },
        "renormalized": design.renormalized,
        "round_trip": {
            "l1": measure.l1,
            "max_rel_density_error": rel_err,
            "support_fraction": measure.support_fraction,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(_jsonable(out), fh, indent=2)
        fh.write("\n")
    print(f"designed field: q = -{design.m_constant:.9g} * rho(x)^(s/d)")
    print(f"round trip: |L1| = {abs(measure.l1):.3g}, max rel density error = {rel_err:.3g}")
    print(f"descriptor: {args.out}")
    return 0


def cmd_constants(args) -> int:
    const = _resolve_constant(args.s, args.d, args.override)
    out = {
        "s": const.s,
        "d": const.d,
        "value": const.value,
        "provenance": const.provenance,
        "m_sd": m_constant(const.s, const.d, const),
    }
    print(json.dumps(out, indent=2))
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rieszfield",
        description="N-point minimizers of hypersingular Riesz energies with external fields",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run a JSON config end to end")
    ps.add_argument("config", help="path to run config JSON")
    ps.add_argument("--out", help="output directory (overrides config)")
    ps.set_defaults(fn=cmd_solve)

    pr = sub.add_parser("reproduce", help="re-run a published example")
    pr.add_argument("example", choices=("a", "b", "c", "d", "e"))
    pr.add_argument("--out", help="output directory")
    pr.add_argument("--n", type=int, help="override the point count")
    pr.add_argument("--iters", type=int, help="override max iterations")
    pr.add_argument("--restarts", type=int, help="override restart count")
    pr.add_argument("--seed", type=int, help="override the rng seed")
    pr.set_defaults(fn=cmd_reproduce)

    pd = sub.add_parser("design", help="build the field realizing a target density")
    pd.add_argument("set_json", help="compact set descriptor JSON")
    pd.add_argument("rho_json", help="target density descriptor JSON")
    pd.add_argument("--s", type=float, required=True, help="energy exponent")
    pd.add_argument("--out", default="design.json", help="output descriptor path")
    pd.add_argument("--override", type=float, help="user-supplied C(s, d)")
    pd.set_defaults(fn=cmd_design)

    pc = sub.add_parser("constants", help="print C(s, d) and M(s, d)")
    pc.add_argument("--s", type=float, required=True)
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--override", type=float, help="user-supplied C(s, d)")
    pc.set_defaults(fn=cmd_constants)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (EquilibriumError, OptimizerFailure) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, KeyError, TypeError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
