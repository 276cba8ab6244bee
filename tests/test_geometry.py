import math

import numpy as np
import pytest

from rieszfield.geometry import (
    covering_mesh,
    make_interval,
    make_param_set,
    make_sphere,
    make_torus,
    register_param_set,
    set_from_descriptor,
)


def test_interval_quadrature(interval02):
    assert interval02.hausdorff_dim == 1
    assert interval02.ambient_dim == 1
    assert interval02.total_measure == pytest.approx(2.0, rel=1e-14)
    assert interval02.diameter == 2.0
    assert interval02.weights.sum() == pytest.approx(2.0, rel=1e-13)
    assert interval02.integrate(lambda X: X[:, 0]) == pytest.approx(2.0, rel=1e-13)
    assert interval02.integrate(lambda X: X[:, 0] ** 2) == pytest.approx(8.0 / 3.0, rel=1e-12)


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
    assert sphere.integrate(lambda X: X[:, 2]) == pytest.approx(0.0, abs=1e-12)
    assert sphere.integrate(lambda X: X[:, 2] ** 2) == pytest.approx(4 * math.pi / 3, rel=1e-10)


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
    assert circ.integrate(lambda X: X[:, 0] ** 2) == pytest.approx(math.pi * R**3, rel=1e-10)


@pytest.mark.parametrize("kind", ["sphere", "torus"])
def test_param_set_default_tangent_project(kind, sphere, torus24, rng):
    # the default projection, built from the retraction alone, must match
    # the analytic one, also where an ambient axis is normal to the set
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


def test_descriptor_round_trip(interval02, sphere, torus24):
    for cset in (interval02, sphere, torus24):
        clone = set_from_descriptor(cset.descriptor())
        assert clone.kind == cset.kind
        assert clone.total_measure == pytest.approx(cset.total_measure, rel=1e-13)
        assert clone.diameter == cset.diameter


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


def test_covering_mesh_fill_guarantee(sphere, rng):
    mesh = covering_mesh(sphere, 0.05)
    probes = sphere.retract(rng.normal(size=(500, 3)))
    d2 = ((probes[:, None, :] - mesh[None, :, :]) ** 2).sum(-1)
    assert np.sqrt(d2.min(axis=1)).max() <= 0.05
