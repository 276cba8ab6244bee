"""The three benchmark workloads: inputs from a seed, one timed pass,
and the checks on its outputs.

Every call into the package goes through a module attribute
(``cli.main``, ``equilibrium.solve_equilibrium``, ...) so that the
traced run sees it.  ``minimal`` shrinks each workload for the smoke
test; the published windows only apply at the published sizes, so they
are not checked then.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings

import numpy as np

from rieszfield import cli, constants, diagnostics, equilibrium, fields, geometry, optimizer

import checks as ck

MODULES = {
    "cli": cli,
    "constants": constants,
    "diagnostics": diagnostics,
    "equilibrium": equilibrium,
    "fields": fields,
    "geometry": geometry,
    "optimizer": optimizer,
}


def _cli(argv):
    """rieszfield.cli.main in-process, its console lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _problem(set_desc, field_id, s):
    cset = geometry.set_from_descriptor(set_desc)
    return cset, fields.catalog(field_id), constants.riesz_constant(s, cset.hausdorff_dim)


def sphere_points(n, rng, jitter=0.02):
    """Fibonacci points on the unit sphere, randomly rotated, with a
    small jitter: quasi-uniform, so its energy barely depends on the seed."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(1.0 - z * z)
    X = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    X = X @ (q * np.sign(np.diag(r))).T
    X += jitter * math.sqrt(4.0 * math.pi / n) * rng.normal(size=X.shape)
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def torus_points(n_u, n_v, big_r, tube, rng, jitter=0.02):
    """(u, v) grid on the torus with a random offset and a small jitter."""
    u = (np.arange(n_u) + rng.uniform()) * (2.0 * math.pi / n_u)
    v = (np.arange(n_v) + rng.uniform()) * (2.0 * math.pi / n_v)
    U, V = (a.ravel() for a in np.meshgrid(u, v, indexing="ij"))
    U = U + jitter * (2.0 * math.pi / n_u) * rng.normal(size=U.shape)
    V = V + jitter * (2.0 * math.pi / n_v) * rng.normal(size=V.shape)
    ring = big_r + tube * np.cos(V)
    return np.stack([ring * np.cos(U), ring * np.sin(U), tube * np.sin(V)], axis=1)


class SphereLarge:
    """``rieszfield solve`` at N = 4000 on the sphere, field d, s = 4."""

    N, ITERS = 4000, 30

    def __init__(self, seed, workdir, minimal):
        self.n, self.iters = (300, 3) if minimal else (self.N, self.ITERS)
        self.workdir = workdir
        self.cset, self.fld, _ = _problem({"kind": "sphere"}, "d", 4.0)
        self.config = workdir / "solve.json"
        self.config.write_text(json.dumps({
            "set": {"kind": "sphere"},
            "field": {"kind": "catalog", "id": "d"},
            "s": 4.0,
            "n": self.n,
            "seed": seed,
            "settings": {"max_iters": self.iters, "restarts": 1, "init": "weighted"},
            "mode": "reproducible",
        }))
        self.sets = [self.cset]

    def run(self):
        self.code = _cli(["solve", str(self.config), "--out", str(self.workdir / "d")])

    def check(self, checks):
        checks.add("d.exit_code", self.code == 0, self.code)
        ratio, s_value = ck.check_run_dir(checks, "d", self.workdir / "d", self.cset, self.fld, 4.0, windows=False)
        return {"energy_over_tau": ratio, "energy_over_tau.d": ratio, "S.d": s_value}


class ReproduceSmall:
    """``rieszfield reproduce b`` and ``reproduce e`` at their defaults."""

    EXAMPLES = (("b", {"kind": "sphere"}, 2.0), ("e", {"kind": "interval", "a": 0.0, "b": 2.0}, 4.0))

    def __init__(self, seed, workdir, minimal):
        self.seed, self.workdir, self.minimal = seed, workdir, minimal
        self.problems = {ex: _problem(desc, ex, s) + (s,) for ex, desc, s in self.EXAMPLES}
        self.sets = [p[0] for p in self.problems.values()]

    def run(self):
        self.codes = {}
        for ex in self.problems:
            argv = ["reproduce", ex, "--out", str(self.workdir / ex), "--seed", str(self.seed)]
            if self.minimal:
                argv += ["--n", "40", "--iters", "30"]
            self.codes[ex] = _cli(argv)

    def check(self, checks):
        out = {"energy_over_tau": 0.0}
        for ex, (cset, fld, _, s) in self.problems.items():
            checks.add(f"{ex}.exit_code", self.codes[ex] == 0, self.codes[ex])
            ratio, s_value = ck.check_run_dir(
                checks, ex, self.workdir / ex, cset, fld, s, windows=not self.minimal
            )
            out["energy_over_tau"] += ratio
            out[f"energy_over_tau.{ex}"] = ratio
            out[f"S.{ex}"] = s_value
        return out


class Analysis:
    """Equilibrium solves, design round trips, perturbations, one
    ``rieszfield design`` call, and diagnostics of seeded configurations."""

    CATALOG = (
        ("a", {"kind": "sphere"}, 2.0),
        ("b", {"kind": "sphere"}, 2.0),
        ("c", {"kind": "torus", "r_inner": 2.0, "r_outer": 4.0}, 8.0),
        ("d", {"kind": "sphere"}, 4.0),
        ("e", {"kind": "interval", "a": 0.0, "b": 2.0}, 4.0),
    )
    DELTAS = (-0.1, -0.05, 0.05, 0.1)

    def __init__(self, seed, workdir, minimal):
        self.workdir = workdir
        self.problems = {ex: _problem(desc, ex, s) + (s,) for ex, desc, s in self.CATALOG}
        self.interval01 = geometry.make_interval(0.0, 1.0)
        self.interval02 = geometry.make_interval(0.0, 2.0)
        self.sphere = geometry.make_sphere()
        self.sets = [p[0] for p in self.problems.values()] + [self.interval01, self.interval02, self.sphere]
        rng = np.random.default_rng(seed)
        n_sphere, n_u, n_v = (200, 20, 5) if minimal else (1000, 50, 10)
        self.configs = {
            "a": sphere_points(n_sphere, rng),
            "c": torus_points(n_u, n_v, 3.0, 1.0, rng),
        }
        self.set_json = workdir / "set.json"
        self.rho_json = workdir / "rho.json"
        self.set_json.write_text(json.dumps({"kind": "sphere"}))
        self.rho_json.write_text(json.dumps({"kind": "polar_caps"}))

    def _round_trip_cases(self):
        dens = fields.density_from_descriptor
        return [
            ("uniform", self.interval02, dens({"kind": "uniform"}, self.interval02), 4.0),
            ("polar_caps", self.sphere, dens({"kind": "polar_caps"}, self.sphere), 2.0),
            # s = d with a target renormalized on the fly
            ("quadratic", self.interval01,
             dens({"kind": "truncated_quadratic", "center": 0.5, "halfwidth": 0.5}, self.interval01), 1.0),
        ]

    def run(self):
        solve = equilibrium.solve_equilibrium
        self.measures = {
            ex: solve(cset, fld, s, c_sd=const) for ex, (cset, fld, const, s) in self.problems.items()
        }

        # criterion 3: designed fields reproduce their targets
        self.round_trips = []
        for label, cset, rho, s in self._round_trip_cases():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                design = fields.design_field(cset, rho, s)
            mu = equilibrium.solve_equilibrium(cset, design.q, s)
            target = np.asarray(design.target_density.evaluate(cset.nodes), dtype=float)
            self.round_trips.append((label, mu.l1, target, mu.density(cset.nodes)))

        # criterion 4: perturbed designs stay within the bound
        uniform = fields.DensityMap(lambda X: np.ones(len(np.atleast_2d(X))), label="uniform")
        self.x1 = np.linspace(0.0, 1.0, 501)[:, None]
        self.uniform_perturbed = [
            fields.perturbed_density(self.interval01, uniform, 4.0, delta) for delta in self.DELTAS
        ]
        well = fields.field_from_descriptor(
            {"kind": "expression", "terms": [{"type": "polynomial", "axis": 0, "coeffs": [1.5, -2.0, 1.0]}]},
            self.interval02,
        )
        mu = equilibrium.solve_equilibrium(self.interval02, well, 4.0)
        rho = fields.DensityMap(mu.density, label="quadratic-well")
        self.x2 = np.linspace(0.0, 2.0, 801)[:, None]
        self.well_perturbed = [
            fields.perturbed_density(self.interval02, rho, 4.0, delta) for delta in self.DELTAS
        ]

        self.design_code = _cli([
            "design", str(self.set_json), str(self.rho_json), "--s", "4",
            "--out", str(self.workdir / "design.json"),
        ])

        # diagnostics of seeded configurations on the default meshes
        self.reports, self.components = {}, {}
        for ex, X in self.configs.items():
            cset, fld, _, s = self.problems[ex]
            measure = self.measures[ex]
            config = optimizer.Configuration(X, cset)
            self.reports[ex] = diagnostics.build_report(config, fld, s, measure)
            level = min(float(np.max(fld.evaluate(X))), measure.l1)
            self.components[ex] = (level, diagnostics.sublevel_components(cset, cset.mesh(), fld, level))

    def check(self, checks):
        for ex, mu in self.measures.items():
            checks.add(f"equilibrium.{ex}.mass", abs(mu.mass - 1.0) < 1e-10, mu.mass)
        for label, l1, target, got in self.round_trips:
            live = target > 1e-8
            rel = float(np.max(np.abs(got[live] - target[live]) / target[live]))
            checks.add(f"criterion3.{label}", abs(l1) < 1e-8 and rel < 1e-6, f"l1 {l1!r} rel {rel!r}")
        for delta, p in zip(self.DELTAS, self.uniform_perturbed):
            dev = float(np.max(np.abs(p.density(self.x1) - p.base_density(self.x1))))
            checks.add(f"criterion4.uniform[{delta:+g}]", dev < 1e-10, dev)
        for delta, p in zip(self.DELTAS, self.well_perturbed):
            dev = np.abs(p.density(self.x2) - p.base_density(self.x2))
            slack = float(np.max(dev - p.bound(self.x2) - 0.15 * abs(delta)))
            checks.add(f"criterion4.well[{delta:+g}]", slack <= 0.0, f"worst slack {slack!r}")
        checks.add("design.exit_code", self.design_code == 0, self.design_code)
        if self.design_code == 0:
            trip = json.loads((self.workdir / "design.json").read_text())["round_trip"]
            ok = abs(trip["l1"]) < 1e-8 and trip["max_rel_density_error"] < 1e-6
            checks.add("design.round_trip", ok, trip)

        out = {}
        for ex, X in self.configs.items():
            cset, fld, _, s = self.problems[ex]
            report = self.reports[ex]
            ck.check_separation(checks, ex, report.separation, X)
            ratio = ck.check_energy(checks, ex, report.energy_ratio * ck.tau(s, cset.hausdorff_dim, len(X)),
                                    X, fld, s, cset)
            level, (kept, labels) = self.components[ex]
            q_kept = np.asarray(fld.evaluate(kept), dtype=float)
            checks.add(f"{ex}.sublevel", len(kept) == len(labels) and bool(np.all(q_kept <= level)),
                       f"{len(kept)} mesh points, {labels.max() + 1} components")
            out[f"energy_over_tau.{ex}"] = ratio
            out[f"S.{ex}"] = self.measures[ex].s_value
        # field c has its pole on the torus, so E/tau of the seeded torus
        # points swings with the distance of the nearest point to it
        out["energy_over_tau"] = out["energy_over_tau.a"]
        return out


WORKLOADS = {"sphere-large": SphereLarge, "reproduce-small": ReproduceSmall, "analysis": Analysis}
