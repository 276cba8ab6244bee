"""Contract acceptance suite: one check per shipped guarantee.

Each test prints one [PASS]/[FAIL] line (run with -s to see them as
they complete); the assertions inside carry the advertised tolerances
and time budgets.
"""

import json
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from rieszfield import cli
from rieszfield.constants import m_constant, riesz_constant
from rieszfield.diagnostics import covering_radius, separation, weak_star_error
from rieszfield.equilibrium import solve_equilibrium
from rieszfield.fields import (
    DensityMap,
    ExternalField,
    catalog,
    density_from_descriptor,
    design_field,
    field_from_descriptor,
    field_gradient,
    perturbed_density,
)
from rieszfield.geometry import make_interval, make_sphere, make_torus
from rieszfield.optimizer import (
    Configuration,
    OptimizerSettings,
    energy,
    minimize,
    tau,
)

ZERO = ExternalField(lambda X: np.zeros(len(np.atleast_2d(X))), label="zero")


@contextmanager
def criterion(label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}  ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"[PASS] {label}  ({time.perf_counter() - t0:.1f}s)")


def test_criterion_1_constants():
    with criterion("criterion 1: energy constants and provenance"):
        t0 = time.perf_counter()
        assert riesz_constant(2.0, 2).value == math.pi  # exact, not approximate
        assert riesz_constant(1.0, 1).value == 2.0
        assert m_constant(1.0, 1) == 4.0
        assert m_constant(4.0, 1) == pytest.approx(10.8232, abs=1e-4)
        c42 = riesz_constant(4.0, 2)
        assert c42.value == pytest.approx(5.7834, abs=1e-3)
        assert c42.provenance == "conjectured_lattice"
        # independent closed form for the planar lattice sum at s = 4:
        # 0.75 pi^2 L(2), with the L-series summed as telescoped pairs
        k = np.arange(2_000_000, dtype=float)
        lser = float(((3.0 * k + 1.0) ** -2 - (3.0 * k + 2.0) ** -2).sum())
        assert c42.value == pytest.approx(0.75 * math.pi**2 * lser, abs=1e-8)
        with pytest.raises(ValueError, match="user_override"):
            riesz_constant(3.5, 3)
        assert riesz_constant(3.5, 3, override=1.25).provenance == "user_override"
        assert time.perf_counter() - t0 < 1.0


CATALOG_PROBLEMS = {
    "a": (make_sphere, 2.0),
    "b": (make_sphere, 2.0),
    "c": (lambda: make_torus(2.0, 4.0), 8.0),
    "d": (make_sphere, 4.0),
    "e": (lambda: make_interval(0.0, 2.0), 4.0),
}


def test_criterion_2_equilibrium_levels(interval02):
    with criterion("criterion 2: equilibrium levels and unit mass"):
        t0 = time.perf_counter()
        l1 = {}
        for ex, (mk, s) in CATALOG_PROBLEMS.items():
            measure = solve_equilibrium(mk(), catalog(ex), s)
            assert abs(measure.mass - 1.0) < 1e-10, ex
            l1[ex] = measure.l1
        assert l1["a"] == pytest.approx(0.65448, abs=5e-4)
        assert l1["e"] == pytest.approx(5.9574, abs=1e-3)
        # adding a constant to the field shifts the level by exactly that
        # constant and leaves the density untouched
        fld = catalog("e")
        base = solve_equilibrium(interval02, fld, 4.0)
        rho0 = base.density(interval02.nodes)
        for c in (-1.0, 0.5, 3.0):
            shifted = ExternalField(
                lambda X, _c=c: np.asarray(fld.evaluate(X), dtype=float) + _c,
                breaks=fld.breaks,
            )
            mc = solve_equilibrium(interval02, shifted, 4.0)
            assert mc.l1 == pytest.approx(base.l1 + c, abs=1e-9)
            assert np.max(np.abs(mc.density(interval02.nodes) - rho0)) < 1e-9
        assert time.perf_counter() - t0 < 5.0


def _round_trip(cset, rho, s, expect_warning=False):
    if expect_warning:
        with pytest.warns(UserWarning, match="renormalizing"):
            design = design_field(cset, rho, s)
    else:
        design = design_field(cset, rho, s)
    measure = solve_equilibrium(cset, design.q, s)
    target = np.asarray(design.target_density.evaluate(cset.nodes), dtype=float)
    got = measure.density(cset.nodes)
    live = target > 1e-8
    rel = np.max(np.abs(got[live] - target[live]) / target[live])
    return measure.l1, float(rel)


def test_criterion_3_design_round_trips(interval01, interval02, sphere):
    with criterion("criterion 3: designed fields reproduce their targets"):
        t0 = time.perf_counter()
        cases = [
            (interval02, density_from_descriptor({"kind": "uniform"}, interval02), 4.0, False),
            (sphere, density_from_descriptor({"kind": "polar_caps"}, sphere), 2.0, False),
            # boundary exponent s = d, target renormalized on the fly
            (
                interval01,
                density_from_descriptor(
                    {"kind": "truncated_quadratic", "center": 0.5, "halfwidth": 0.5}, interval01
                ),
                1.0,
                True,
            ),
        ]
        for cset, rho, s, warn in cases:
            l1, rel = _round_trip(cset, rho, s, expect_warning=warn)
            assert abs(l1) < 1e-8, (rho.label, l1)
            assert rel < 1e-6, (rho.label, rel)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_4_perturbation_stability(interval01, interval02):
    with criterion("criterion 4: perturbed designs stay within the bound"):
        # a uniform target is invariant under constant misjudgement
        uniform = DensityMap(lambda X: np.ones(len(np.atleast_2d(X))), label="uniform")
        x1 = np.linspace(0.0, 1.0, 501)[:, None]
        for delta in (-0.1, -0.05, 0.05, 0.1):
            p = perturbed_density(interval01, uniform, 4.0, delta)
            assert np.max(np.abs(p.density(x1) - p.base_density(x1))) < 1e-10
        # nonconstant target: deviation at most the first-order bound
        # plus a 15%-of-delta slack for the higher-order remainder
        base_q = field_from_descriptor(
            {
                "kind": "expression",
                "terms": [{"type": "polynomial", "axis": 0, "coeffs": [1.5, -2.0, 1.0]}],
            },
            interval02,
        )
        mu = solve_equilibrium(interval02, base_q, 4.0)
        rho = DensityMap(mu.density, label="quadratic-well")
        x2 = np.linspace(0.0, 2.0, 801)[:, None]
        for delta in (-0.1, -0.05, 0.05, 0.1):
            p = perturbed_density(interval02, rho, 4.0, delta)
            dev = np.abs(p.density(x2) - p.base_density(x2))
            assert np.all(dev <= p.bound(x2) + 0.15 * abs(delta)), delta


def test_criterion_5_zero_field_energy_limit(interval01):
    with criterion("criterion 5: zero-field energy approaches its limit"):
        t0 = time.perf_counter()
        measure = solve_equilibrium(interval01, ZERO, 2.0)
        res = minimize(
            interval01, ZERO, 2.0, 200,
            OptimizerSettings(restarts=1, max_iters=2000, rng_seed=0, init="stratified"),
            measure=measure,
        )
        ratio = res.energy / tau(2.0, 1, 200)
        limit = math.pi**2 / 3.0  # 2 zeta(2)
        assert abs(ratio - limit) / limit < 0.05
        assert time.perf_counter() - t0 < 60.0


def test_criterion_6_published_reproductions(tmp_path):
    with criterion("criterion 6: published examples within their windows"):
        t0 = time.perf_counter()
        for ex in "abcde":
            out = tmp_path / ex
            assert cli.main(["reproduce", ex, "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            comp = report["comparison"]
            assert comp is not None
            assert comp["all_within"] is True, (ex, comp["checks"])
            # a window passed on a budget stop is not a reproduction
            assert report["termination"] != "max_iters", (ex, report["iterations"])
        assert time.perf_counter() - t0 <= 1800.0


def _gradient_probes(cset, fld, rng, keep, n=100):
    cands = cset.retract(rng.normal(size=(600, cset.ambient_dim)) * cset.diameter * 0.5)
    qv = np.asarray(fld.evaluate(cands), dtype=float)
    mask = np.isfinite(qv) & keep(cands)
    pts = cands[mask]
    assert len(pts) >= n
    return pts[:n]


def test_criterion_7_structural_properties(interval01, interval02, sphere, torus24, measure_e, rng):
    with criterion("criterion 7: structural properties of minimizers"):
        # (i) every catalog gradient matches central differences away
        # from kinks and singular centers
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        keep_all = lambda P: np.ones(len(P), dtype=bool)
        probes = {
            "a": (sphere, keep_all),
            "b": (sphere, lambda P: np.abs(np.abs(P[:, 2]) - inv_sqrt2) > 0.02),
            "c": (torus24, lambda P: np.linalg.norm(P - [4.0, 0.0, 0.0], axis=1) > 0.5),
            "d": (
                sphere,
                lambda P: (np.linalg.norm(P - [1.0, 0.0, 0.0], axis=1) > 0.3)
                & (np.linalg.norm(P - [0.5691896, 0.8222949, 0.0], axis=1) > 0.3),
            ),
            "e": (interval02, keep_all),
        }
        for ex, (cset, keep) in probes.items():
            fld = catalog(ex)
            pts = _gradient_probes(cset, fld, rng, keep)
            analytic = np.asarray(fld.gradient(pts), dtype=float)
            numeric = field_gradient(ExternalField(fld.evaluate), pts, cset)
            scale = np.max(np.abs(analytic)) + 1.0
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-5, ex

        # (ii) descent only ever lowers the energy, which is symmetric
        # in the points
        res30 = minimize(
            interval02, catalog("e"), 4.0, 30,
            OptimizerSettings(restarts=1, max_iters=400, rng_seed=0, init="stratified"),
            measure=measure_e,
        )
        assert np.all(np.diff(res30.trace[:, 1]) <= 0)
        base = energy(res30.config, catalog("e"), 4.0)
        for _ in range(3):
            perm = rng.permutation(30)
            shuffled = Configuration(res30.config.points[perm], interval02)
            assert energy(shuffled, catalog("e"), 4.0) == pytest.approx(base, rel=1e-12)

        # (iii) separation and covering scale like 1/N.  Covering is
        # measured on the 5%-interior sublevel (the report default):
        # against the full support the rim gap where the density
        # vanishes dominates and decays slower than 1/N.
        mesh_pts, fill = interval02.mesh()
        fld_e = catalog("e")
        q_mesh = np.asarray(fld_e.evaluate(mesh_pts), dtype=float)
        level = measure_e.l1 - 0.05 * (measure_e.l1 - float(np.min(q_mesh)))
        interior = (mesh_pts[q_mesh <= level], fill)
        sep_n, cov_n = {}, {}
        for n in (50, 100, 200, 400):
            res = minimize(
                interval02, fld_e, 4.0, n,
                OptimizerSettings(restarts=1, max_iters=3000, rng_seed=0, init="stratified"),
                measure=measure_e,
            )
            sep_n[n] = separation(res.config) * n
            cov_n[n] = covering_radius(res.config, interior) * n
        assert max(sep_n.values()) / min(sep_n.values()) <= 2.0, sep_n
        assert max(cov_n.values()) / min(cov_n.values()) <= 2.0, cov_n

        # (iv) weak* convergence: moment errors shrink as N quadruples.
        # Checked on the flat benchmark, where descent converges; the
        # two-well field needs far deeper runs before the moment error
        # is optimization-free.
        flat = solve_equilibrium(interval01, ZERO, 2.0)
        weak_max = {}
        for n, iters in ((100, 2000), (400, 4000)):
            res = minimize(
                interval01, ZERO, 2.0, n,
                OptimizerSettings(restarts=1, max_iters=iters, rng_seed=0, init="stratified"),
                measure=flat,
            )
            weak_max[n] = max(err for _, err in weak_star_error(res.config, flat))
        assert weak_max[400] < weak_max[100], weak_max

        # (v) identical seeds give byte-identical exports
        kw = dict(settings=OptimizerSettings(restarts=1, max_iters=80, rng_seed=7), measure=measure_e)
        pa = minimize(interval02, catalog("e"), 4.0, 40, **kw)
        pb = minimize(interval02, catalog("e"), 4.0, 40, **kw)
        import tempfile, pathlib
        with tempfile.TemporaryDirectory() as td:
            fa, fb = pathlib.Path(td) / "a.csv", pathlib.Path(td) / "b.csv"
            cli._write_csv(fa, ["x1"], pa.config.points)
            cli._write_csv(fb, ["x1"], pb.config.points)
            assert fa.read_bytes() == fb.read_bytes()
