import csv
import json
import math

import numpy as np
import pytest

from rieszfield.diagnostics import (
    DiagnosticsReport,
    build_report,
    containment_check,
    covering_radius,
    density_table_average,
    empirical_density,
    energy_ratio,
    mesh_ratio,
    point_potential,
    region_mesh_ratios,
    separation,
    sublevel_components,
    weak_star_error,
    write_density_csv,
)
from rieszfield.equilibrium import solve_equilibrium
from rieszfield.fields import ExternalField, catalog
from rieszfield.geometry import make_interval, make_torus
from rieszfield.optimizer import Configuration, OptimizerSettings, minimize, tau

ZERO = ExternalField(lambda X: np.zeros(len(np.atleast_2d(X))), label="zero")


def _cfg(points, cset):
    return Configuration(np.asarray(points, dtype=float), cset)


def test_separation_hand_value(interval01):
    cfg = _cfg([[0.0], [0.3], [0.9]], interval01)
    assert separation(cfg) == pytest.approx(0.3, rel=1e-15)
    with pytest.raises(ValueError):
        separation(_cfg([[0.5]], interval01))


def test_covering_radius_explicit_mesh(interval01):
    cfg = _cfg([[0.0], [1.0]], interval01)
    mesh = (np.linspace(0.0, 1.0, 101)[:, None], 0.01)
    est = covering_radius(cfg, mesh=mesh)
    assert est.value == pytest.approx(0.5, abs=1e-12)
    assert est.fill == 0.01
    assert mesh_ratio(cfg, mesh=mesh) == pytest.approx(0.5, abs=1e-12)


def test_covering_radius_sublevel_filter(interval01):
    cfg = _cfg([[0.0], [1.0]], interval01)
    mesh = (np.linspace(0.0, 1.0, 101)[:, None], 0.01)
    ramp = ExternalField(lambda X: np.atleast_2d(X)[:, 0])
    # keep only {x <= 0.2}: farthest kept mesh point from {0, 1} is x = 0.2
    est = covering_radius(cfg, mesh=mesh, sublevel=(ramp, 0.2))
    assert est.value == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ValueError, match="sublevel"):
        covering_radius(cfg, mesh=mesh, sublevel=(ramp, -1.0))


def test_point_potential(interval01):
    cfg = _cfg([[0.0], [1.0]], interval01)
    # midpoint, s=2, no field: 2 / 0.5^2 = 8
    assert point_potential([0.5], cfg, ZERO, 2.0) == pytest.approx(8.0, rel=1e-14)
    # at a configuration point the coincidence is excluded
    assert point_potential([0.0], cfg, ZERO, 2.0) == pytest.approx(1.0, rel=1e-14)
    one = ExternalField(lambda P: np.ones(len(np.atleast_2d(P))))
    expect = 8.0 + tau(2.0, 1, 2) / 2.0
    assert point_potential([0.5], cfg, one, 2.0) == pytest.approx(expect, rel=1e-14)
    # scale_N swaps in the asymptotic N for the field weight
    expect_scaled = 8.0 + tau(2.0, 1, 50) / 50.0
    assert point_potential([0.5], cfg, one, 2.0, scale_N=50) == pytest.approx(
        expect_scaled, rel=1e-14
    )


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


def test_empirical_density_needs_points(interval01):
    pts = np.linspace(0.0, 1.0, 15)[:, None]
    with pytest.raises(ValueError, match="16"):
        empirical_density(_cfg(pts, interval01))


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

    bare = tmp_path / "bare.csv"
    write_density_csv(table, bare)
    with open(bare, newline="") as fh:
        head = next(csv.reader(fh))
    assert head == ["x1", "count", "empirical_density"]


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
    mesh = sphere.mesh(0.04)
    kept, labels = sublevel_components(sphere, mesh, fld, measure.l1)
    groups = np.unique(labels)
    assert len(groups) == 3
    zmeans = sorted(float(kept[labels == g][:, 2].mean()) for g in groups)
    assert zmeans[0] == pytest.approx(-zmeans[2], abs=0.02)
    assert abs(zmeans[1]) < 0.02
    assert 0.7 < zmeans[2] < 0.85


def test_region_mesh_ratios(sphere, measure_a, rng):
    # seeded quasi-uniform configuration: a randomly rotated Fibonacci sphere
    n = 400
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    fib = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    cfg = _cfg(fib @ rot.T, sphere)
    fld, mesh, sep = catalog("a"), sphere.mesh(0.04), separation(cfg)
    ratios = region_mesh_ratios(cfg, fld, measure_a.l1, sep, mesh)
    assert set(ratios) == {"mid", "polar"}
    for value in ratios.values():
        assert math.isfinite(value) and 0.0 < value < 5.0
    halved = region_mesh_ratios(cfg, fld, measure_a.l1, 2.0 * sep, mesh)
    for name in ratios:
        assert halved[name] == pytest.approx(ratios[name] / 2.0, rel=1e-12)


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
    full = build_report(res.config, ZERO, 2.0, measure, sublevel_h=0.0)
    # q == 0 everywhere: sublevel filtering must not change the covering
    dflt = build_report(res.config, ZERO, 2.0, measure)
    assert full.covering_radius == pytest.approx(dflt.covering_radius, rel=1e-12)
