import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from rieszfield.geometry import (
    _row_dot,
    covering_mesh,
    make_interval,
    make_param_set,
    make_sphere,
    make_torus,
    register_param_set,
    set_from_descriptor,
)


def _quad(cset, fn):
    # the set's quadrature rule applied to a pointwise function
    return float(np.dot(cset.weights, fn(cset.nodes)))


def test_interval_quadrature(interval02):
    assert interval02.hausdorff_dim == 1
    assert interval02.ambient_dim == 1
    assert interval02.total_measure == pytest.approx(2.0, rel=1e-14)
    assert interval02.diameter == 2.0
    assert interval02.weights.sum() == pytest.approx(2.0, rel=1e-13)
    assert _quad(interval02, lambda X: X[:, 0]) == pytest.approx(2.0, rel=1e-13)
    assert _quad(interval02, lambda X: X[:, 0] ** 2) == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_interval_retract_and_tangent(interval02):
    pts = np.array([[-1.0], [0.5], [3.0]])
    out = interval02.retract(pts)
    assert np.allclose(out[:, 0], [0.0, 0.5, 2.0])
    vecs = np.array([[-2.0], [1.5], [4.0]])
    tang = interval02.tangent_project(out, vecs)
    # the line's tangent space is all of R even at the endpoints; the
    # boundary is enforced by the retraction, not the projection
    assert np.array_equal(tang, vecs)
    assert tang is not vecs


def test_interval_validation():
    with pytest.raises(ValueError):
        make_interval(1.0, 1.0)
    with pytest.raises(ValueError):
        make_interval(2.0, 0.0)


def test_sphere_quadrature(sphere):
    assert sphere.hausdorff_dim == 2
    assert sphere.ambient_dim == 3
    assert sphere.total_measure == pytest.approx(4 * math.pi, rel=1e-12)
    assert sphere.weights.sum() == pytest.approx(4 * math.pi, rel=1e-12)
    assert np.allclose(np.linalg.norm(sphere.nodes, axis=1), 1.0, atol=1e-13)
    # odd moments vanish, z^2 integrates to 4 pi / 3
    assert _quad(sphere, lambda X: X[:, 2]) == pytest.approx(0.0, abs=1e-12)
    assert _quad(sphere, lambda X: X[:, 2] ** 2) == pytest.approx(4 * math.pi / 3, rel=1e-10)


def test_sphere_retract_tangent(sphere, rng):
    pts = rng.normal(size=(40, 3))
    on = sphere.retract(pts)
    assert np.allclose(np.linalg.norm(on, axis=1), 1.0, atol=1e-14)
    vecs = rng.normal(size=(40, 3))
    tang = sphere.tangent_project(on, vecs)
    assert np.max(np.abs((tang * on).sum(axis=1))) < 1e-13


def test_sphere_radius_scaling():
    s2 = make_sphere(radius=2.0)
    assert s2.total_measure == pytest.approx(16 * math.pi, rel=1e-12)
    assert s2.diameter == 4.0


def test_torus_quadrature(torus24):
    # r_inner 2, r_outer 4: center circle R = 3, tube c = 1
    assert torus24.total_measure == pytest.approx(4 * math.pi**2 * 3.0, rel=1e-12)
    assert torus24.weights.sum() == pytest.approx(torus24.total_measure, rel=1e-12)
    assert torus24.diameter == 8.0
    x, y, z = torus24.nodes.T
    ring = np.hypot(np.hypot(x, y) - 3.0, z)
    assert np.allclose(ring, 1.0, atol=1e-12)


def test_torus_retract(torus24, rng):
    pts = rng.normal(size=(50, 3)) * 3.0
    on = torus24.retract(pts)
    x, y, z = on.T
    assert np.allclose(np.hypot(np.hypot(x, y) - 3.0, z), 1.0, atol=1e-12)
    # retraction is idempotent
    assert np.allclose(torus24.retract(on), on, atol=1e-12)


def test_torus_validation():
    with pytest.raises(ValueError):
        make_torus(4.0, 2.0)
    with pytest.raises(ValueError):
        make_torus(-1.0, 2.0)


def test_param_set_circle():
    R = 1.5

    def chart(p):
        t = np.atleast_2d(p)[:, 0]
        return np.stack([R * np.cos(t), R * np.sin(t)], axis=1)

    def jac(p):
        return np.full(len(np.atleast_2d(p)), R)

    def retract(pts):
        pts = np.atleast_2d(pts)
        n = np.linalg.norm(pts, axis=1, keepdims=True)
        return R * pts / np.where(n == 0, 1.0, n)

    circ = make_param_set(chart, jac, [(0.0, 2 * math.pi)], retract, ambient_dim=2, n_quad=[128])
    assert circ.total_measure == pytest.approx(2 * math.pi * R, rel=1e-10)
    assert circ.hausdorff_dim == 1
    assert _quad(circ, lambda X: X[:, 0] ** 2) == pytest.approx(math.pi * R**3, rel=1e-10)


def test_param_set_rejects_three_axes():
    # a solid box in R^3 charted by the identity: the solver's initial
    # cells and the support contour exist for curves and surfaces only,
    # so the chart is refused when it is built, not in the solve
    with pytest.raises(ValueError, match="1 or 2 parameter axes, got 3"):
        make_param_set(
            lambda p: np.asarray(p, dtype=float), lambda p: np.ones(len(p)),
            [(0.0, 1.0)] * 3, lambda X: np.clip(X, 0.0, 1.0), ambient_dim=3, n_quad=(4, 4, 4),
        )


@pytest.mark.parametrize("kind", ["sphere", "torus"])
def test_param_set_default_tangent_project(kind, sphere, torus24, rng):
    # a user chart's projection, built from the retraction alone, must
    # match the analytic one, also where an ambient axis is normal to the set
    ref = {"sphere": sphere, "torus": torus24}[kind]
    built = make_param_set(
        ref.chart, ref.chart_jacobian, ref.param_bounds, ref.retract,
        ambient_dim=3, n_quad=(16, 16),
    )
    extremes = {
        "sphere": [[0, 0, 1], [0, 0, -1]],
        "torus": [[3, 0, 1], [3, 0, -1], [0, -3, 1], [-3, 0, -1]],
    }[kind]
    X = np.vstack([ref.retract(rng.normal(size=(500, 3))), extremes])
    V = rng.normal(size=X.shape)
    assert np.allclose(built.tangent_project(X, V), ref.tangent_project(X, V), rtol=0, atol=1e-8)


@pytest.mark.parametrize("kind", ["interval02", "sphere", "torus24", "sphere_chart", "torus_chart"])
def test_stacked_tangent_project_matches_per_field(kind, interval02, sphere, torus24, rng):
    # a stack of fields at the same points is projected as each field on
    # its own, bit for bit, also by the numeric projection of a user chart
    sets = {"interval02": interval02, "sphere": sphere, "torus24": torus24}
    cset = ref = sets[{"sphere_chart": "sphere", "torus_chart": "torus24"}.get(kind, kind)]
    if kind.endswith("chart"):
        cset = make_param_set(
            ref.chart, ref.chart_jacobian, ref.param_bounds, ref.retract,
            ambient_dim=3, n_quad=(16, 16),
        )
    p = cset.ambient_dim
    X = cset.retract(rng.normal(size=(50, p)) * cset.diameter)
    V = rng.normal(size=(7, 50, p))
    stacked = cset.tangent_project(X, V)
    per_field = np.stack([cset.tangent_project(X, v) for v in V])
    assert stacked.shape == V.shape
    assert np.array_equal(stacked, per_field)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("shape", [(300,), (4, 300), (2, 3, 50)])
def test_row_dot_matches_numpy_reductions(p, shape, rng):
    # column-by-column dot products and norms give numpy's own bits, so
    # the projections and retractions built on them keep every output
    U = rng.normal(size=shape + (p,)) * rng.lognormal(sigma=3.0, size=shape + (p,))
    V = rng.normal(size=shape + (p,))
    assert np.array_equal(_row_dot(U, V), np.sum(U * V, axis=-1))
    assert np.array_equal(np.sqrt(_row_dot(U, U)), np.linalg.norm(U, axis=-1))
    # a stack of fields against one field broadcasts like np.sum
    one = V[(0,) * (V.ndim - 2)]
    assert np.array_equal(_row_dot(U, one), np.sum(U * one, axis=-1))


def test_descriptor_round_trip(interval02, sphere, torus24):
    for cset in (interval02, sphere, torus24):
        clone = set_from_descriptor(cset.descriptor())
        assert clone.kind == cset.kind
        assert clone.total_measure == pytest.approx(cset.total_measure, rel=1e-13)
        assert clone.diameter == cset.diameter
        assert np.array_equal(clone.nodes, cset.nodes)
        assert np.array_equal(clone.weights, cset.weights)


def test_param_descriptor_needs_registration():
    with pytest.raises(ValueError, match="register"):
        set_from_descriptor({"kind": "param", "name": "nope"})

    def builder(half=1.0):
        return make_interval(-half, half)

    register_param_set("sym_interval", builder)
    got = set_from_descriptor({"kind": "param", "name": "sym_interval", "half": 2.0})
    assert got.total_measure == pytest.approx(4.0, rel=1e-13)


def test_unknown_kind():
    with pytest.raises(ValueError, match="unknown set kind"):
        set_from_descriptor({"kind": "pretzel"})


def test_mesh_cache_and_fill(interval02):
    pts, fill = interval02.mesh()
    assert fill == pytest.approx(2e-4 * interval02.diameter)
    again = interval02.mesh()
    assert again[0] is pts  # cached
    # every support point has a mesh point within the fill distance
    probes = np.linspace(0.0, 2.0, 613)[:, None]
    d = np.abs(probes - pts[:, 0][None, :]).min(axis=1)
    assert d.max() <= fill + 1e-15


def test_covering_mesh_budget_guard(sphere):
    # 1e-5 on the unit sphere would be ~1e11 mesh points: refused up front
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"fill distance 1e-05"):
            covering_mesh(sphere, 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("kind", ["sphere", "torus24", "interval02", "torus_chart"])
def test_covering_mesh_fill_guarantee(kind, sphere, torus24, interval02, rng):
    if kind == "torus_chart":
        # the torus as a user chart: closed axes, probed stretch and diameter
        cset = make_param_set(
            torus24.chart, torus24.chart_jacobian, torus24.param_bounds, torus24.retract,
            ambient_dim=3, n_quad=(16, 16),
        )
    else:
        cset = {"sphere": sphere, "torus24": torus24, "interval02": interval02}[kind]
    mesh = covering_mesh(cset, 0.05)
    probes = cset.retract(rng.normal(size=(2000, cset.ambient_dim)) * cset.diameter)
    assert cKDTree(mesh).query(probes)[0].max() <= 0.05


@pytest.mark.parametrize("kind", ["interval02", "torus24"])
def test_builtin_stretch_matches_probe(kind, interval02, torus24):
    # the exact stretch of a built-in chart spaces its covering mesh; the
    # user-chart probe of the same chart must find the same values
    ref = {"interval02": interval02, "torus24": torus24}[kind]
    probed = make_param_set(
        ref.chart, ref.chart_jacobian, ref.param_bounds, ref.retract,
        ambient_dim=ref.ambient_dim, n_quad=[4] * ref.hausdorff_dim,
    )
    assert probed.chart_stretch == pytest.approx(ref.chart_stretch, rel=1e-7)
