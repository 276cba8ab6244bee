"""Command-line front end: solve, reproduce, design, constants.

Every run writes a self-describing directory (points.csv, density.csv,
trace.csv, report.json, scatter.svg); report.json follows the schema
shipped under docs/.  This is the only module that writes files: one
CSV writer and one JSON writer serve every artifact.  Exit codes: 2 for
configuration or validation problems, 3 for solver failures, 4 for I/O
failures.
"""

from __future__ import annotations

import argparse
import csv
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
from .fields import _UNIT_MASS_TOL, density_from_descriptor, design_field, field_from_descriptor
from .geometry import set_from_descriptor
from .optimizer import OptimizerFailure, OptimizerSettings, _whole, minimize

EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_REPORT_FILES = ("points.csv", "density.csv", "trace.csv", "report.json", "scatter.svg")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


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


def _problem(set_desc, s, override):
    """The set of a descriptor, s as a float and C(s, d) on the set."""
    try:
        cset = set_from_descriptor(set_desc)
    except (ValueError, TypeError, KeyError) as e:
        raise CliError(EXIT_CONFIG, f"bad set descriptor: {e}") from e
    try:
        s = float(s)
    except (TypeError, ValueError) as e:
        raise CliError(EXIT_CONFIG, f"s must be a number, got {s!r}") from e
    return cset, s, riesz_constant(s, cset.hausdorff_dim, override)


def _settings_from(cfg_settings: dict, seed=None) -> OptimizerSettings:
    if not isinstance(cfg_settings, (dict, type(None))):
        raise CliError(
            EXIT_CONFIG, f"bad optimizer settings: settings must be an object, got {cfg_settings!r}"
        )
    opts = dict(cfg_settings or {})
    if seed is not None:
        opts["rng_seed"] = _whole(seed, "seed")
    try:
        return OptimizerSettings(**opts)
    except (TypeError, ValueError) as e:
        raise CliError(EXIT_CONFIG, f"bad optimizer settings: {e}") from e


def _constants(const) -> dict:
    """The constants block of report.json and design.json."""
    return {
        "s": const.s,
        "d": const.d,
        "c_sd": const.value,
        "provenance": const.provenance,
        "m_sd": m_constant(const.s, const.d, const),
    }


def _solve_measure(cset, fld, s, const):
    """The equilibrium measure; warns on stderr when the solve stopped
    before its error estimate met the tolerance."""
    measure = solve_equilibrium(cset, fld, s, c_sd=const)
    info = measure.solver_info
    if info["stop_reason"] != "tol":
        print(
            f"warning: equilibrium solve stopped on {info['stop_reason']} before meeting "
            f"its tolerance: error estimate {info['error_estimate']:.3g} on "
            f"{info['nodes']} nodes after {info['rounds']} rounds",
            file=sys.stderr,
        )
    return measure


def _write_csv(path, header, rows):
    """One CSV artifact: RFC-4180 with CRLF line ends under a header row.
    An int cell is written as it is and any other number as %.17g, which
    round-trips a double."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([str(c) if isinstance(c, int) else f"{c:.17g}" for c in row])


def _write_json(path, obj):
    """One JSON artifact: indented two spaces, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_run(out_dir: Path, result, measure, report_dict, table, eq):
    """Write the five run artifacts; returns the file manifest.

    ``table`` is the run's empirical density table and ``eq`` the
    equilibrium density averaged over its bins.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    X = result.config.points
    axes = [f"x{i + 1}" for i in range(X.shape[1])]
    _write_csv(out_dir / "points.csv", axes, X)
    _write_csv(
        out_dir / "trace.csv",
        ["iter", "energy", "grad_norm", "step"],
        ((int(it), energy, grad_norm, step) for it, energy, grad_norm, step in result.trace),
    )
    _write_csv(
        out_dir / "density.csv",
        [*axes, "count", "empirical_density", "equilibrium_density"],
        (
            (*x, int(count), rho, rho_eq)
            for x, count, rho, rho_eq in zip(
                table["centers"], table["count"], table["density"], eq, strict=True
            )
        ),
    )
    title = measure.field.label or "configuration"
    (out_dir / "scatter.svg").write_text(scatter_svg(project_points(X), support_contour(measure), title))
    report_dict["files"] = list(_REPORT_FILES)
    _write_json(out_dir / "report.json", report_dict)
    return report_dict["files"]


def _run(cset, fld, s, n, const, settings, out_dir, label, entry=None):
    """Equilibrium solve, minimize, diagnostics, export and summary.

    ``entry`` is a reproduce_defaults.json example whose published
    windows the run is compared against.
    """
    t0 = time.perf_counter()
    measure = _solve_measure(cset, fld, s, const)
    t_equilibrium = time.perf_counter()
    result = minimize(cset, fld, s, n, settings, measure=measure)
    t_minimize = time.perf_counter()
    report = diagnostics.build_report(result.config, fld, s, measure)
    table = diagnostics.empirical_density(result.config)
    eq = diagnostics.density_table_average(measure, table)
    comparison = None if entry is None else _compare(entry, measure, result.config, report, table, eq)
    t_diagnostics = time.perf_counter()
    report_dict = {
        "label": label,
        "seed": settings.rng_seed,
        "n_points": n,
        "set": cset.descriptor(),
        "constants": _constants(const),
        "l1": measure.l1,
        "s_value": measure.s_value,
        "support_fraction": measure.support_fraction,
        "solver_info": measure.solver_info,
        "energy": result.energy,
        "energy_over_tau": report.energy_ratio,
        "termination": result.termination,
        "grad_norm": result.grad_norm,
        "iterations": len(result.trace),
        "trials": result.trials,
        "restarts": result.restarts,
        "diagnostics": report.to_dict(),
        "comparison": comparison,
    }
    report_dict["timings"] = {
        "equilibrium_s": t_equilibrium - t0,
        "minimize_s": t_minimize - t_equilibrium,
        "diagnostics_s": t_diagnostics - t_minimize,
    }
    report_dict["wall_time_s"] = time.perf_counter() - t0
    _write_run(Path(out_dir), result, measure, report_dict, table, eq)
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


def _solve_config(cfg: dict, where, out_dir, label=None, entry=None):
    """Validate a run config and run it: the one path of solve and reproduce.

    ``label`` defaults to the config's own, then to the field's.  ``entry``
    is a bundled example whose published windows the run is checked against.
    """
    set_desc, field_desc, s, n = (_require(cfg, key, where) for key in ("set", "field", "s", "n"))
    n = _whole(n, "n")
    if not isinstance(cfg.get("label", ""), str):
        raise CliError(EXIT_CONFIG, f"label must be a string, got {cfg['label']!r}")
    cset, s, const = _problem(set_desc, s, cfg.get("c_override"))
    if n < 2:
        raise CliError(EXIT_CONFIG, f"need at least 2 points, got n={n}")
    try:
        fld = field_from_descriptor(field_desc, cset, s)
    except (ValueError, TypeError, KeyError) as e:
        raise CliError(EXIT_CONFIG, f"bad field descriptor: {e}") from e
    settings = _settings_from(cfg.get("settings"), cfg.get("seed"))
    _run(cset, fld, s, n, const, settings, out_dir, label or cfg.get("label", fld.label), entry)


def cmd_solve(args) -> int:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise CliError(EXIT_CONFIG, f"{args.config}: run config must be a JSON object")
    _solve_config(cfg, args.config, args.out or cfg.get("out_dir") or "riesz-run")
    return 0


def _reproduce_defaults() -> dict:
    path = resources.files("rieszfield").joinpath("data/reproduce_defaults.json")
    return json.loads(path.read_text())


def _check(window, computed):
    """A computed value against a published window: within ``rel_tol`` of
    its value when the window has one, otherwise at most its value."""
    value = window["value"]
    check = {"published": value, "computed": computed}
    if "rel_tol" in window:
        check["rel_tol"] = window["rel_tol"]
        within = abs(computed - value) <= window["rel_tol"] * abs(value)
    else:
        within = computed <= value
    return check | {"within": bool(within)}


def _compare(entry, measure, config, report, table, eq):
    """The run's numbers against the published windows of ``entry``;
    ``table`` and ``eq`` are the empirical and equilibrium densities."""
    pub = entry["published"]
    computed = {
        "separation": report.separation,
        "void_avoidance": float(np.max(measure.field.evaluate(config.points))),
        "histogram_sup_dev": float(np.max(np.abs(table["density"] - eq))),
    }
    if "mesh_ratio_mid" in pub:
        ratios = diagnostics.region_mesh_ratios(
            config, measure.field, measure.l1, report.separation, measure.set.mesh()[0], report.mesh_values
        )
        computed |= {f"mesh_ratio_{name}": ratio for name, ratio in ratios.items()}
    checks = {name: _check(window, computed[name]) for name, window in pub.items()}
    return {
        "published_n": entry["published_n"],
        "run_n": config.n,
        "reduced_n": config.n < entry["published_n"],
        "checks": checks,
        "all_within": all(c["within"] for c in checks.values()),
    }


def cmd_reproduce(args) -> int:
    entry = _reproduce_defaults()["examples"][args.example]
    cfg = dict(entry, settings=dict(entry["settings"]))
    for key, value in (("n", args.n), ("seed", args.seed)):
        if value is not None:
            cfg[key] = value
    if args.iters is not None:
        cfg["settings"]["max_iters"] = args.iters
    label = f"catalog field {args.example}, n = {cfg['n']}"
    _solve_config(cfg, f"example {args.example}", args.out or f"riesz-reproduce-{args.example}", label, entry)
    return 0


def cmd_design(args) -> int:
    set_desc = _load_json(args.set_json)
    rho_desc = _load_json(args.rho_json)
    cset, s, const = _problem(set_desc, args.s, args.override)
    rho = density_from_descriptor(rho_desc, cset)
    total = integrate_adaptive(cset, rho.evaluate, breaks=rho.breaks)
    if abs(total - 1.0) > _UNIT_MASS_TOL:
        raise CliError(
            EXIT_CONFIG,
            f"target density integrates to {total:.6g}; normalize it to unit mass (tolerance "
            f"{np.format_float_scientific(_UNIT_MASS_TOL, trim='-', exp_digits=1)}) before designing a field",
        )
    design = design_field(cset, rho, s, c_sd=const)
    measure = _solve_measure(cset, design.q, s, const)
    target = np.asarray(design.target_density.evaluate(cset.nodes), dtype=float)
    got = measure.density(cset.nodes)
    live = target > 1e-8
    rel_err = float(np.max(np.abs(got[live] - target[live]) / target[live])) if live.any() else 0.0
    out = {
        "field": {"kind": "designed", "rho": rho_desc, "s": s},
        "label": design.q.label,
        "constants": _constants(const),
        "renormalized": design.renormalized,
        "round_trip": {
            "l1": measure.l1,
            "max_rel_density_error": rel_err,
            "support_fraction": measure.support_fraction,
        },
    }
    _write_json(args.out, out)
    print(f"designed field: q = -{design.m_constant:.9g} * rho(x)^(s/d)")
    print(f"round trip: |L1| = {abs(measure.l1):.3g}, max rel density error = {rel_err:.3g}")
    print(f"descriptor: {args.out}")
    return 0


def cmd_constants(args) -> int:
    const = riesz_constant(args.s, args.d, args.override)
    out = {("value" if key == "c_sd" else key): v for key, v in _constants(const).items()}
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
