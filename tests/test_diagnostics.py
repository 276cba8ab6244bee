import csv
import json
import math
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from rieszfield.diagnostics import (
    DiagnosticsReport,
    build_report,
    containment_check,
    covering_radius,
    density_table_average,
    empirical_density,
    energy_ratio,
    region_mesh_ratios,
    separation,
    sublevel_components,
    weak_star_error,
    write_density_csv,
)
from rieszfield.equilibrium import solve_equilibrium
from rieszfield.fields import ExternalField, catalog
from rieszfield.geometry import covering_mesh, make_interval
from rieszfield.optimizer import Configuration, OptimizerSettings, minimize

ZERO = ExternalField(lambda X: np.zeros(len(np.atleast_2d(X))), label="zero")


def _cfg(points, cset):
    return Configuration(np.asarray(points, dtype=float), cset)


def test_separation_hand_value(interval01):
    cfg = _cfg([[0.0], [0.3], [0.9]], interval01)
    assert separation(cfg) == pytest.approx(0.3, rel=1e-15)
    with pytest.raises(ValueError):
        separation(_cfg([[0.5]], interval01))


@pytest.mark.parametrize("kind", ["interval02", "sphere", "torus24"])
def test_separation_multiblock_brute_force(kind, request, rng):
    # N = 1000 spans several row blocks of the pair kernel; the closest
    # pair is placed across blocks, between the first and the last point
    cset = request.getfixturevalue(kind)
    lo, hi = np.array(cset.param_bounds).T
    X = cset.chart(rng.uniform(lo, hi, size=(1000, len(lo))))
    X[-1] = X[0] + 1e-4 * cset.diameter / math.sqrt(X.shape[1])
    brute = min(np.linalg.norm(X[i + 1:] - X[i], axis=1).min() for i in range(len(X) - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert separation(_cfg(X, cset)) == pytest.approx(brute, rel=1e-14)


def test_covering_radius_explicit_mesh(interval01):
    cfg = _cfg([[0.0], [1.0]], interval01)
    mesh = (np.linspace(0.0, 1.0, 101)[:, None], 0.01)
    est = covering_radius(cfg, mesh=mesh)
    assert est == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(TypeError):
        covering_radius(cfg)  # the mesh is required


def test_covering_radius_sublevel_filter(interval01):
    cfg = _cfg([[0.0], [1.0]], interval01)
    mesh = (np.linspace(0.0, 1.0, 101)[:, None], 0.01)
    ramp = ExternalField(lambda X: np.atleast_2d(X)[:, 0])
    # keep only {x <= 0.2}: farthest kept mesh point from {0, 1} is x = 0.2
    kept, _ = sublevel_components(interval01, mesh, ramp, 0.2)
    est = covering_radius(cfg, mesh=(kept, mesh[1]))
    assert est == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ValueError, match="sublevel"):
        sublevel_components(interval01, mesh, ramp, -1.0)


def test_containment_check(interval01):
    ramp = ExternalField(lambda X: np.atleast_2d(X)[:, 0])
    cfg = _cfg([[0.1], [0.6]], interval01)
    assert containment_check(cfg, ramp, 1.0) == pytest.approx(-0.4, rel=1e-14)
    assert containment_check(cfg, ramp, 0.5) == pytest.approx(0.1, rel=1e-14)


def test_energy_ratio_hand_value(interval01):
    cfg = _cfg([[0.0], [1.0]], interval01)
    # E = 2, tau = 2^3
    assert energy_ratio(cfg, ZERO, 2.0) == pytest.approx(2.0 / 8.0, rel=1e-14)


def test_empirical_density_interval(interval01):
    # 16 points, 4 per quarter-width bin: flat unit density
    pts = np.concatenate([np.linspace(c - 0.09, c + 0.09, 4) for c in (0.125, 0.375, 0.625, 0.875)])
    table = empirical_density(_cfg(pts[:, None], interval01))
    assert table["kind"] == "interval_bins"
    assert len(table["count"]) == math.isqrt(15) + 1 == 4
    assert table["count"].sum() == 16
    assert np.allclose(table["density"], 1.0)
    assert np.allclose(table["centers"][:, 0], [0.125, 0.375, 0.625, 0.875])


def test_empirical_density_small_n(interval01):
    # ceil(sqrt(N)) bins hold any N >= 2: 2 points in 2 bins, 15 in 4
    for n, bins in ((2, 2), (15, 4)):
        pts = np.linspace(0.0, 1.0, n, endpoint=False)[:, None]
        table = empirical_density(_cfg(pts, interval01))
        assert len(table["count"]) == bins
        assert table["count"].sum() == n
        assert float(table["density"].sum() / bins) == pytest.approx(1.0, rel=1e-12)


def test_empirical_density_sphere(sphere, rng):
    X = sphere.retract(rng.normal(size=(400, 3)))
    table = empirical_density(_cfg(X, sphere))
    assert table["kind"] == "sphere_bands"
    assert table["count"].sum() == 400
    areas = 2.0 * np.pi * np.diff(table["edges"])
    assert areas.sum() == pytest.approx(4.0 * np.pi, rel=1e-12)
    # mass reconstruction: sum density * area == 1
    assert float((table["density"] * areas).sum()) == pytest.approx(1.0, rel=1e-12)


def test_empirical_density_quadrature_cells(torus24, rng):
    X = torus24.retract(rng.normal(size=(50, 3)) * 4.0)
    table = empirical_density(_cfg(X, torus24))
    assert table["kind"] == "quadrature_cells"
    assert table["count"].sum() == 50
    mass = float((table["density"] * torus24.weights).sum())
    assert mass == pytest.approx(1.0, rel=1e-12)


def test_density_table_average_uniform(interval02):
    measure = solve_equilibrium(interval02, ZERO, 4.0)
    pts = np.linspace(0.01, 1.99, 36)[:, None]
    table = empirical_density(_cfg(pts, interval02))
    avg = density_table_average(measure, table)
    assert np.allclose(avg, 0.5, atol=1e-10)


def test_density_table_average_sphere(sphere, rng):
    measure = solve_equilibrium(sphere, ZERO, 2.0)
    X = sphere.retract(rng.normal(size=(100, 3)))
    table = empirical_density(_cfg(X, sphere))
    avg = density_table_average(measure, table)
    assert np.allclose(avg, 1.0 / (4.0 * np.pi), atol=1e-10)


def test_write_density_csv(tmp_path, interval01):
    pts = np.linspace(0.0, 0.999, 16)[:, None]
    table = empirical_density(_cfg(pts, interval01))
    eq = np.full(len(table["count"]), 1.0)
    path = tmp_path / "density.csv"
    write_density_csv(table, path, equilibrium=eq)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "count", "empirical_density", "equilibrium_density"]
    assert len(rows) == len(table["count"]) + 1
    counts = [int(r[1]) for r in rows[1:]]
    assert sum(counts) == 16


def test_weak_star_error_defaults(interval01):
    measure = solve_equilibrium(interval01, ZERO, 2.0)
    cfg = _cfg([[0.0], [1.0]], interval01)
    errs = dict(weak_star_error(cfg, measure))
    assert set(errs) == {"x1", "x1^2"}
    # empirical mean of x is 1/2 = uniform integral; x^2: 1/2 vs 1/3
    assert errs["x1"] == pytest.approx(0.0, abs=1e-12)
    assert errs["x1^2"] == pytest.approx(0.5 - 1.0 / 3.0, abs=1e-9)


def test_weak_star_error_custom_tests(interval01):
    measure = solve_equilibrium(interval01, ZERO, 2.0)
    cfg = _cfg([[0.25], [0.75]], interval01)
    errs = weak_star_error(
        cfg, measure, test_set=[("cos", lambda X: np.cos(np.atleast_2d(X)[:, 0]))]
    )
    (label, err), = errs
    assert label == "cos"
    emp = 0.5 * (math.cos(0.25) + math.cos(0.75))
    assert err == pytest.approx(abs(emp - math.sin(1.0)), abs=1e-9)


def test_sublevel_components_three_bands(sphere):
    fld = catalog("a")
    measure = solve_equilibrium(sphere, fld, 2.0)
    mesh = (covering_mesh(sphere, 0.04), 0.04)
    kept, labels = sublevel_components(sphere, mesh, fld, measure.l1)
    groups = np.unique(labels)
    assert len(groups) == 3
    zmeans = sorted(float(kept[labels == g][:, 2].mean()) for g in groups)
    assert zmeans[0] == pytest.approx(-zmeans[2], abs=0.02)
    assert abs(zmeans[1]) < 0.02
    assert 0.7 < zmeans[2] < 0.85


def _fibonacci(sphere, n, rng):
    # seeded quasi-uniform configuration: a randomly rotated Fibonacci sphere
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    fib = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return _cfg(fib @ rot.T, sphere)


def test_region_mesh_ratios(sphere, measure_a, rng):
    cfg = _fibonacci(sphere, 400, rng)
    fld, pts, sep = catalog("a"), covering_mesh(sphere, 0.04), separation(cfg)
    q = fld.evaluate(pts)
    ratios = region_mesh_ratios(cfg, fld, measure_a.l1, sep, pts, q)
    assert set(ratios) == {"mid", "polar"}
    for value in ratios.values():
        assert math.isfinite(value) and 0.0 < value < 5.0
    halved = region_mesh_ratios(cfg, fld, measure_a.l1, 2.0 * sep, pts, q)
    for name in ratios:
        assert halved[name] == pytest.approx(ratios[name] / 2.0, rel=1e-12)


def _region_ratios_by_components(cfg, fld, l1, sep, mesh):
    # reference: label the connected components of the occupied sublevel
    # mesh, pool them into polar (|mean z| > 1/2) and mid, and give each
    # point the region of its nearest kept mesh point
    X = cfg.points
    level = min(float(np.max(fld.evaluate(X))), l1)
    kept, labels = sublevel_components(cfg.cset, mesh, fld, level)
    polar = np.array([abs(kept[labels == k][:, 2].mean()) > 0.5 for k in range(labels.max() + 1)])
    own = labels[cKDTree(kept).query(X)[1]]
    out = {}
    for name, pooled in (("mid", ~polar), ("polar", polar)):
        pts, region = X[pooled[own]], kept[pooled[labels]]
        out[name] = float(cKDTree(pts).query(region)[0].max()) / sep
    return out


# at N = 400 the rotations of seeds 1236 and 1239 put points outside the
# sublevel set whose own |z| falls on the other side of 1/2 from their
# nearest kept mesh point
@pytest.mark.parametrize("n, seed", [(200, 1230), (300, 1233), (400, 1234), (400, 1236), (400, 1239)])
def test_region_mesh_ratios_match_components(sphere, measure_a, n, seed):
    cfg = _fibonacci(sphere, n, np.random.default_rng(seed))
    fld, mesh, sep = catalog("a"), (covering_mesh(sphere, 0.04), 0.04), separation(cfg)
    ratios = region_mesh_ratios(cfg, fld, measure_a.l1, sep, mesh[0], fld.evaluate(mesh[0]))
    assert ratios == _region_ratios_by_components(cfg, fld, measure_a.l1, sep, mesh)


def test_build_report_consistency(interval02, measure_e):
    res = minimize(
        interval02, catalog("e"), 4.0, 40,
        OptimizerSettings(restarts=1, max_iters=800, rng_seed=0, init="density"),
        measure=measure_e,
    )
    rep = build_report(res.config, catalog("e"), 4.0, measure_e)
    assert isinstance(rep, DiagnosticsReport)
    assert rep.mesh_ratio == pytest.approx(rep.covering_radius / rep.separation, rel=1e-12)
    assert rep.separation > 0
    assert rep.s_predicted == measure_e.s_value
    # a decent minimizer sits inside the charged region, up to O(1/N) spill
    assert rep.containment_margin < 0.5
    # first-order energy scaling: E/tau within 15% of the predicted limit
    assert rep.energy_ratio == pytest.approx(measure_e.s_value, rel=0.15)
    d = rep.to_dict()
    json.dumps(d)
    assert set(d) == {
        "separation", "covering_radius", "covering_fill", "mesh_ratio",
        "energy_ratio", "s_predicted", "weak_star_errors", "containment_margin",
    }
    assert all(isinstance(t, list) and len(t) == 2 for t in d["weak_star_errors"])


def test_build_report_no_filter(interval01):
    measure = solve_equilibrium(interval01, ZERO, 2.0)
    res = minimize(interval01, ZERO, 2.0, 20, OptimizerSettings(restarts=1, max_iters=400))
    full = covering_radius(res.config, interval01.mesh())
    # q == 0 everywhere: sublevel filtering must not change the covering
    dflt = build_report(res.config, ZERO, 2.0, measure)
    assert full == pytest.approx(dflt.covering_radius, rel=1e-12)


def test_build_report_mesh_outside_support(monkeypatch):
    # a steep ramp confines the measure to a sliver near 0; on a mesh that
    # misses it (every q above L1) no mesh point lies in the sublevel
    # set, so the whole mesh counts
    cset = make_interval(0.0, 1.0)
    ramp = ExternalField(lambda X: 100.0 * np.atleast_2d(X)[:, 0])
    measure = solve_equilibrium(cset, ramp, 2.0)
    mesh = (np.linspace(0.9, 1.0, 11)[:, None], 0.01)
    assert float(ramp.evaluate(mesh[0]).min()) > measure.l1
    monkeypatch.setattr(cset, "mesh", lambda: mesh)
    cfg = _cfg([[0.0], [0.01]], cset)
    rep = build_report(cfg, ramp, 2.0, measure)
    assert rep.covering_radius == pytest.approx(0.99, abs=1e-12)
