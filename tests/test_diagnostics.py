import csv
import json
import math
import types
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from scipy.spatial import cKDTree

from rieszfield import cli, diagnostics
from rieszfield.diagnostics import (
    DiagnosticsReport,
    _max_nearest_distance,
    build_report,
    covering_radius,
    density_table_average,
    empirical_density,
    region_mesh_ratios,
    separation,
    sublevel_components,
    weak_star_error,
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
    # N = 1000 points; the closest pair is placed between the first and
    # the last point, as far apart in the input order as can be
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


def _full_query(X, P):
    # the reference: one nearest-neighbour query per mesh point
    return cKDTree(X).query(P)[0].max()


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_max_nearest_distance_is_exact(p, order, rng):
    for _ in range(20):
        X = rng.normal(size=(int(rng.integers(1, 80)), p))
        P = rng.uniform(-3.0, 3.0, size=(int(rng.integers(4, 2000)), p))
        if order == "sorted":
            P = P[np.lexsort(P.T[::-1])]
        assert _max_nearest_distance(X, P) == _full_query(X, P)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 9, 1001, 1002, 1003])
def test_max_nearest_distance_short_last_run(m, rng):
    # the points of a short last run, or of a mesh shorter than one run,
    # are queried in full; the farthest point is placed last, then first
    X = rng.normal(size=(30, 3))
    P = np.linspace(-1.0, 1.0, 3 * m).reshape(m, 3)
    P[-1] = [9.0, 9.0, 9.0]
    assert _max_nearest_distance(X, P) == _full_query(X, P)
    assert _max_nearest_distance(X, P[::-1].copy()) == _full_query(X, P)


def test_max_nearest_distance_duplicates_and_self(rng):
    X = rng.normal(size=(50, 2))
    P = np.repeat(rng.normal(size=(101, 2)), 3, axis=0)
    assert _max_nearest_distance(X, P) == _full_query(X, P)
    assert _max_nearest_distance(X, np.repeat(X, 4, axis=0)) == 0.0
    assert _max_nearest_distance(X, X) == 0.0


def test_covering_radius_queries_few_mesh_points(sphere, rng, monkeypatch):
    # ring by ring, a run's bound rules it out almost everywhere on a
    # quasi-uniform configuration: about one point in four is queried
    queried = []

    class Recording(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "cKDTree", Recording)
    cfg, mesh = _fibonacci(sphere, 400, rng), sphere.mesh()
    assert covering_radius(cfg, mesh) == _full_query(cfg.points, mesh[0])
    assert sum(queried) < 0.3 * len(mesh[0])


def test_covering_radius_mesh_shapes(interval01):
    cfg = _cfg([[0.0], [1.0]], interval01)
    assert covering_radius(cfg, ([[0.25], [0.5], [0.875]], 0.01)) == 0.5
    for empty in (np.empty((0, 1)), []):
        with pytest.raises(ValueError, match="empty mesh"):
            covering_radius(cfg, (empty, 0.01))


def test_containment_check(interval01):
    # the margin is max q(x_i) - L1; l1 is swapped on a solved measure
    ramp = ExternalField(lambda X: np.atleast_2d(X)[:, 0])
    cfg = _cfg([[0.1], [0.6]], interval01)
    measure = solve_equilibrium(interval01, ramp, 2.0)
    for l1, margin in ((1.0, -0.4), (0.5, 0.1)):
        measure.l1 = l1
        assert build_report(cfg, ramp, 2.0, measure).containment_margin == pytest.approx(margin, rel=1e-14)


def test_energy_ratio_hand_value(interval01):
    cfg = _cfg([[0.0], [1.0]], interval01)
    measure = solve_equilibrium(interval01, ZERO, 2.0)
    # E = 2, tau = 2^3
    assert build_report(cfg, ZERO, 2.0, measure).energy_ratio == pytest.approx(2.0 / 8.0, rel=1e-14)


def test_empirical_density_interval(interval01):
    # 16 points, 4 per quarter-width bin: flat unit density
    pts = np.concatenate([np.linspace(c - 0.09, c + 0.09, 4) for c in (0.125, 0.375, 0.625, 0.875)])
    table = empirical_density(_cfg(pts[:, None], interval01))
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
    assert table["count"].sum() == 400
    areas = 2.0 * np.pi * np.diff(np.linspace(-1.0, 1.0, len(table["count"]) + 1))
    assert areas.sum() == pytest.approx(4.0 * np.pi, rel=1e-12)
    # mass reconstruction: sum density * area == 1
    assert float((table["density"] * areas).sum()) == pytest.approx(1.0, rel=1e-12)


def test_empirical_density_quadrature_cells(torus24, rng):
    X = torus24.retract(rng.normal(size=(50, 3)) * 4.0)
    table = empirical_density(_cfg(X, torus24))
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


def test_density_table_average_sphere_non_zonal(sphere, rng):
    # q = 0.1 Re((x + iy)^8) keeps the support whole at s = d = 2, so the
    # density is (L1 - q)/M: its mean over every azimuth is its value at
    # the poles, where q = 0.  At 8 equally spaced azimuths cos(8 phi)
    # would read as 1, putting bands off by up to 19% of that value; at
    # the set's 192 azimuth nodes the largest error measured 3.5e-16 of
    # it, hence rtol 1e-13
    wave = ExternalField(lambda X: 0.1 * ((np.atleast_2d(X)[:, 0] + 1j * np.atleast_2d(X)[:, 1]) ** 8).real)
    measure = solve_equilibrium(sphere, wave, 2.0)
    assert measure.support_fraction == 1.0
    table = empirical_density(_cfg(sphere.retract(rng.normal(size=(100, 3))), sphere))
    pole = measure.density(np.array([[0.0, 0.0, 1.0]]))[0]
    assert np.allclose(density_table_average(measure, table), pole, rtol=1e-13, atol=0.0)


def test_write_density_csv(tmp_path, interval01):
    # the table as the CLI exports it, from a run that made no step
    config = _cfg(np.linspace(0.0, 0.999, 16)[:, None], interval01)
    table = empirical_density(config)
    table["equilibrium_density"] = np.full(len(table["count"]), 1.0)
    run = types.SimpleNamespace(config=config, trace=np.zeros((0, 4)))
    cli._write_run(tmp_path, run, solve_equilibrium(interval01, ZERO, 2.0), {}, table)
    path = tmp_path / "density.csv"
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
    ratios = region_mesh_ratios(cfg, fld, measure_a.l1, sep, pts)
    assert set(ratios) == {"mid", "polar"}
    for value in ratios.values():
        assert math.isfinite(value) and 0.0 < value < 5.0
    halved = region_mesh_ratios(cfg, fld, measure_a.l1, 2.0 * sep, pts)
    for name in ratios:
        assert halved[name] == pytest.approx(ratios[name] / 2.0, rel=1e-12)
    # points only in the band |z| < 0.2 leave the polar region without points
    P = np.column_stack([rng.uniform(-0.2, 0.2, 200), rng.uniform(0.0, 2.0 * np.pi, 200)])
    empty = region_mesh_ratios(_cfg(sphere.chart(P), sphere), fld, measure_a.l1, sep, pts)
    assert math.isnan(empty["polar"]) and math.isfinite(empty["mid"])


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
    ratios = region_mesh_ratios(cfg, fld, measure_a.l1, sep, mesh[0])
    assert ratios == _region_ratios_by_components(cfg, fld, measure_a.l1, sep, mesh)


def _unevaluated(X):
    raise AssertionError("the field is evaluated before the separation is checked")


def test_coincident_points_refused_before_mesh_work(sphere, monkeypatch):
    interval = make_interval(0.0, 1.0)
    monkeypatch.setattr(interval, "mesh", lambda: pytest.fail("mesh built for coincident points"))
    cfg = _cfg([[0.2], [0.2], [0.7]], interval)
    measure = solve_equilibrium(interval, ZERO, 2.0)
    with pytest.raises(ValueError, match="coincident points give infinite energy"):
        build_report(cfg, ZERO, 2.0, measure)
    pts = covering_mesh(sphere, 0.04)
    X = _fibonacci(sphere, 50, np.random.default_rng(0)).points
    X[1] = X[0]
    with pytest.raises(ValueError, match="coincident points give infinite energy"):
        region_mesh_ratios(_cfg(X, sphere), ExternalField(_unevaluated), 0.5, 0.0, pts)


def test_build_report_consistency(interval02, measure_e):
    res = minimize(
        interval02, catalog("e"), 4.0, 40,
        OptimizerSettings(restarts=1, max_iters=800, rng_seed=0, init="stratified"),
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
    d = asdict(rep)
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
