"""Compact sets the energy lives on.

Each set bundles what the rest of the package needs: a quadrature rule
for the d-dimensional Hausdorff measure, a retraction (metric
projection) back onto the set, tangent-plane projection for gradients,
and a parametrization chart that the adaptive equilibrium solver can
refine on.  Built-ins cover the interval, the round sphere, and the
embedded torus; ``make_param_set`` accepts user charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CompactSet",
    "make_interval",
    "make_sphere",
    "make_torus",
    "make_param_set",
    "covering_mesh",
    "register_param_set",
    "set_from_descriptor",
    "DEFAULT_MESH_BUDGET",
]

DEFAULT_MESH_BUDGET = 10_000_000

# registry of named user charts for JSON round trips of "param" sets
_PARAM_REGISTRY: dict[str, Callable[..., "CompactSet"]] = {}


@dataclass
class CompactSet:
    """A compact d-rectifiable subset of R^p with quadrature and charts.

    Attributes
    ----------
    ambient_dim : p, dimension of the embedding space
    hausdorff_dim : d, intrinsic dimension
    total_measure : H_d(A)
    diameter : Euclidean diameter of A
    nodes, weights : quadrature rule for integrals over A
    retract : map of ambient points, shape (n, p), to nearest points on A
    tangent_project : (points_on_A, ambient_vectors) -> tangent vectors
    chart : parametrization, (n, param_dim) -> (n, p)
    chart_jacobian : d-volume density of the chart, (n, param_dim) -> (n,)
    param_bounds : rectangle in parameter space covered by the chart
    kind : descriptor tag ("interval" | "sphere" | "torus" | "param")
    """

    ambient_dim: int
    hausdorff_dim: int
    total_measure: float
    diameter: float
    nodes: np.ndarray
    weights: np.ndarray
    retract: Callable[[np.ndarray], np.ndarray]
    tangent_project: Callable[[np.ndarray, np.ndarray], np.ndarray]
    chart: Callable[[np.ndarray], np.ndarray]
    chart_jacobian: Callable[[np.ndarray], np.ndarray]
    param_bounds: tuple
    kind: str
    params: dict = field(default_factory=dict)
    _mesh_cache: tuple | None = field(default=None, repr=False)

    def integrate(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Quadrature of a pointwise function over the set."""
        return float(np.dot(self.weights, fn(self.nodes)))

    def mesh(self, fill_distance: float | None = None):
        """Dense point sample of A for covering-radius evaluation.

        Returns (points, fill) where ``fill`` is the declared fill
        distance.  The default fill is 2e-4 * diameter for curves and
        2e-3 * diameter for surfaces; the result is cached per set.
        """
        if fill_distance is None:
            scale = 2e-4 if self.hausdorff_dim == 1 else 2e-3
            fill_distance = scale * self.diameter
        if self._mesh_cache is not None and self._mesh_cache[1] == fill_distance:
            return self._mesh_cache
        pts = covering_mesh(self, fill_distance)
        self._mesh_cache = (pts, fill_distance)
        return self._mesh_cache

    def descriptor(self) -> dict:
        return {"kind": self.kind, **self.params}


def _check_counts(*counts: int) -> None:
    for c in counts:
        if int(c) < 2:
            raise ValueError("quadrature node counts must be at least 2")


def make_interval(a: float, b: float, n_quad: int = 256) -> CompactSet:
    """The interval [a, b] in R^1 with Gauss-Legendre quadrature."""
    a, b = float(a), float(b)
    if a >= b:
        raise ValueError("interval requires a < b")
    _check_counts(n_quad)
    x, w = np.polynomial.legendre.leggauss(int(n_quad))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = (mid + half * x)[:, None]
    weights = half * w

    def retract(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.clip(pts, a, b)

    def tangent_project(pts, vecs):
        return np.array(vecs, dtype=float, copy=True)

    return CompactSet(
        ambient_dim=1,
        hausdorff_dim=1,
        total_measure=b - a,
        diameter=b - a,
        nodes=nodes,
        weights=weights,
        retract=retract,
        tangent_project=tangent_project,
        chart=lambda p: np.asarray(p, dtype=float),
        chart_jacobian=lambda p: np.ones(len(p)),
        param_bounds=((a, b),),
        kind="interval",
        params={"a": a, "b": b, "n_quad": int(n_quad)},
    )


def _sphere_chart(radius):
    def chart(p):
        p = np.asarray(p, dtype=float)
        z = p[:, 0]
        rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        return radius * np.stack([rho * np.cos(p[:, 1]), rho * np.sin(p[:, 1]), z], axis=1)

    return chart


def make_sphere(radius: float = 1.0, n_theta: int = 96, n_phi: int = 192) -> CompactSet:
    """Round sphere of the given radius, quadrature in (cos theta, phi).

    Gauss-Legendre in z = cos(theta) crossed with the uniform trapezoid
    rule in phi (exact for the periodic direction), scaled by radius^2.
    """
    radius = float(radius)
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    _check_counts(n_theta, n_phi)
    z, wz = np.polynomial.legendre.leggauss(int(n_theta))
    phi = np.arange(int(n_phi)) * (2.0 * np.pi / int(n_phi))
    wphi = 2.0 * np.pi / int(n_phi)
    Z, PHI = np.meshgrid(z, phi, indexing="ij")
    P = np.stack([Z.ravel(), PHI.ravel()], axis=1)
    chart = _sphere_chart(radius)
    nodes = chart(P)
    weights = (radius * radius * wphi) * np.repeat(wz, int(n_phi))

    def retract(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("cannot project the origin onto the sphere")
        return pts * (radius / norms)[:, None]

    def tangent_project(pts, vecs):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vecs = np.atleast_2d(np.asarray(vecs, dtype=float))
        normal = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        return vecs - np.sum(vecs * normal, axis=1, keepdims=True) * normal

    return CompactSet(
        ambient_dim=3,
        hausdorff_dim=2,
        total_measure=4.0 * np.pi * radius * radius,
        diameter=2.0 * radius,
        nodes=nodes,
        weights=weights,
        retract=retract,
        tangent_project=tangent_project,
        chart=chart,
        chart_jacobian=lambda p: np.full(len(p), radius * radius),
        param_bounds=((-1.0, 1.0), (0.0, 2.0 * np.pi)),
        kind="sphere",
        params={"radius": radius, "n_theta": int(n_theta), "n_phi": int(n_phi)},
    )


def _torus_maps(big_r, tube_c):
    def chart(p):
        p = np.asarray(p, dtype=float)
        u, v = p[:, 0], p[:, 1]
        ring = big_r + tube_c * np.cos(v)
        return np.stack([ring * np.cos(u), ring * np.sin(u), tube_c * np.sin(v)], axis=1)

    def jacobian(p):
        p = np.asarray(p, dtype=float)
        return tube_c * (big_r + tube_c * np.cos(p[:, 1]))

    def retract(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float)).copy()
        rho = np.hypot(pts[:, 0], pts[:, 1])
        # points on the symmetry axis have no unique angle; pick u = 0
        on_axis = rho < 1e-300
        pts[on_axis, 0], rho[on_axis] = 1.0, 1.0
        ring = pts.copy()
        ring[:, 0] *= big_r / rho
        ring[:, 1] *= big_r / rho
        ring[:, 2] = 0.0
        rel = pts - ring
        dist = np.linalg.norm(rel, axis=1)
        degenerate = dist < 1e-300
        # center-circle points snap outward
        rel[degenerate] = ring[degenerate] / big_r
        dist[degenerate] = 1.0
        return ring + rel * (tube_c / dist)[:, None]

    def tangent_project(pts, vecs):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vecs = np.atleast_2d(np.asarray(vecs, dtype=float))
        rho = np.hypot(pts[:, 0], pts[:, 1])
        ring = pts.copy()
        ring[:, 0] *= big_r / rho
        ring[:, 1] *= big_r / rho
        ring[:, 2] = 0.0
        normal = (pts - ring) / tube_c
        return vecs - np.sum(vecs * normal, axis=1, keepdims=True) * normal

    return chart, jacobian, retract, tangent_project


def make_torus(r_inner: float, r_outer: float, n_u: int = 128, n_v: int = 128) -> CompactSet:
    """Embedded torus with inner radius r_inner and outer radius r_outer.

    Center-circle radius R = (r_outer + r_inner)/2, tube radius
    c = (r_outer - r_inner)/2, area element c*(R + c*cos v) du dv on the
    uniform periodic product grid.
    """
    r_inner, r_outer = float(r_inner), float(r_outer)
    if not 0 < r_inner < r_outer:
        raise ValueError("torus requires 0 < r_inner < r_outer")
    _check_counts(n_u, n_v)
    big_r = 0.5 * (r_outer + r_inner)
    tube_c = 0.5 * (r_outer - r_inner)
    u = np.arange(int(n_u)) * (2.0 * np.pi / int(n_u))
    v = np.arange(int(n_v)) * (2.0 * np.pi / int(n_v))
    U, V = np.meshgrid(u, v, indexing="ij")
    P = np.stack([U.ravel(), V.ravel()], axis=1)
    chart, jacobian, retract, tangent_project = _torus_maps(big_r, tube_c)
    nodes = chart(P)
    weights = (2.0 * np.pi / int(n_u)) * (2.0 * np.pi / int(n_v)) * jacobian(P)

    return CompactSet(
        ambient_dim=3,
        hausdorff_dim=2,
        total_measure=4.0 * np.pi ** 2 * big_r * tube_c,
        diameter=2.0 * r_outer,
        nodes=nodes,
        weights=weights,
        retract=retract,
        tangent_project=tangent_project,
        chart=chart,
        chart_jacobian=jacobian,
        param_bounds=((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi)),
        kind="torus",
        params={"r_inner": r_inner, "r_outer": r_outer, "n_u": int(n_u), "n_v": int(n_v)},
    )


def make_param_set(
    chart: Callable[[np.ndarray], np.ndarray],
    chart_jacobian: Callable[[np.ndarray], np.ndarray],
    param_bounds: Sequence[tuple],
    retract: Callable[[np.ndarray], np.ndarray],
    ambient_dim: int,
    n_quad: Sequence[int] = (64, 64),
    tangent_project: Callable | None = None,
    name: str | None = None,
) -> CompactSet:
    """Build a set from a user-supplied chart over a parameter rectangle.

    Quadrature is product Gauss-Legendre with ``n_quad`` nodes per axis
    weighted by ``chart_jacobian``.  Validation is limited to the
    weight-sum sanity of the resulting rule; smoothness of the chart is
    trusted.  Tangent projection defaults to a basis from central
    differences of ``retract`` along the ambient axes; supply an
    analytic one when available.
    """
    param_bounds = tuple((float(lo), float(hi)) for lo, hi in param_bounds)
    dim = len(param_bounds)
    counts = [int(c) for c in (n_quad if np.iterable(n_quad) else [n_quad] * dim)]
    if len(counts) != dim:
        raise ValueError("one node count per parameter axis required")
    _check_counts(*counts)
    axes, axws = [], []
    for (lo, hi), c in zip(param_bounds, counts):
        x, w = np.polynomial.legendre.leggauss(c)
        axes.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
        axws.append(0.5 * (hi - lo) * w)
    grids = np.meshgrid(*axes, indexing="ij")
    P = np.stack([g.ravel() for g in grids], axis=1)
    wgrid = axws[0]
    for w in axws[1:]:
        wgrid = np.outer(wgrid, w).ravel()
    nodes = np.asarray(chart(P), dtype=float)
    if nodes.shape != (len(P), ambient_dim):
        raise ValueError("chart must map (n, param_dim) to (n, ambient_dim)")
    weights = wgrid * np.asarray(chart_jacobian(P), dtype=float)
    if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
        raise ValueError("chart jacobian must be positive and finite on the grid")

    if tangent_project is None:
        tangent_project = _numeric_tangent_project(param_bounds, retract)

    total = float(weights.sum())
    from scipy.spatial.distance import pdist

    probe = nodes[:: max(1, len(nodes) // 512)]
    diameter = float(pdist(probe).max()) if len(probe) > 1 else 1.0

    return CompactSet(
        ambient_dim=int(ambient_dim),
        hausdorff_dim=dim,
        total_measure=total,
        diameter=diameter,
        nodes=nodes,
        weights=weights,
        retract=retract,
        tangent_project=tangent_project,
        chart=chart,
        chart_jacobian=chart_jacobian,
        param_bounds=param_bounds,
        kind="param",
        params={"name": name or "anonymous", "n_quad": counts},
    )


def _numeric_tangent_project(param_bounds, retract):
    # near a point of the set, the central differences of the retraction
    # along the ambient axes span the tangent plane; their leading left
    # singular vectors are an orthonormal basis of it
    dim = len(param_bounds)
    h = 1e-6 * max(hi - lo for lo, hi in param_bounds)

    def tangent_project(pts, vecs):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vecs = np.atleast_2d(np.asarray(vecs, dtype=float))
        n, p = pts.shape
        step = h * np.eye(p)
        ahead = retract((pts[:, None, :] + step).reshape(-1, p))
        behind = retract((pts[:, None, :] - step).reshape(-1, p))
        # column k of block i: retract(x_i + h e_k) - retract(x_i - h e_k)
        diffs = (ahead - behind).reshape(n, p, p).transpose(0, 2, 1)
        basis = np.linalg.svd(diffs)[0][:, :, :dim]
        return np.einsum("nik,nk->ni", basis, np.einsum("nik,ni->nk", basis, vecs))

    return tangent_project


def register_param_set(name: str, builder: Callable[..., CompactSet]) -> None:
    """Register a named construction for JSON "param" descriptors."""
    _PARAM_REGISTRY[str(name)] = builder


def set_from_descriptor(desc: dict) -> CompactSet:
    """Rebuild a set from its JSON descriptor."""
    kind = desc.get("kind")
    opts = {k: v for k, v in desc.items() if k != "kind"}
    if kind == "interval":
        return make_interval(**opts)
    if kind == "sphere":
        return make_sphere(**opts)
    if kind == "torus":
        return make_torus(**opts)
    if kind == "param":
        name = opts.pop("name", None)
        if name not in _PARAM_REGISTRY:
            raise ValueError(f"unknown param set {name!r}; register it first")
        return _PARAM_REGISTRY[name](**opts)
    raise ValueError(f"unknown set kind {kind!r}")


def covering_mesh(cset: CompactSet, fill_distance: float, budget: int = DEFAULT_MESH_BUDGET) -> np.ndarray:
    """Points on A leaving no parametrization-grid point farther than
    ``fill_distance`` from the mesh.

    The mesh is what covering-radius diagnostics max over; its fill
    distance is the resolution error bar attached to those numbers.
    """
    h = float(fill_distance)
    if not 0 < h < cset.diameter:
        raise ValueError("fill_distance must lie in (0, diameter)")
    if cset.kind == "interval":
        (a, b), = cset.param_bounds
        n = int(math.ceil((b - a) / h)) + 1
        _check_budget(n, budget)
        return np.linspace(a, b, n)[:, None]
    if cset.kind == "sphere":
        radius = cset.params["radius"]
        n_rings = max(2, int(math.ceil(np.pi * radius / h)) + 1)
        _check_budget(4.0 * np.pi * radius * radius / (h * h), budget)
        pts = [np.array([0.0, 0.0, radius]), np.array([0.0, 0.0, -radius])]
        thetas = np.linspace(0.0, np.pi, n_rings + 1)[1:-1]
        for th in thetas:
            ring_r = radius * math.sin(th)
            n_in_ring = max(1, int(math.ceil(2.0 * np.pi * ring_r / h)))
            phi = np.arange(n_in_ring) * (2.0 * np.pi / n_in_ring)
            pts.append(
                np.stack(
                    [ring_r * np.cos(phi), ring_r * np.sin(phi),
                     np.full(n_in_ring, radius * math.cos(th))], axis=1
                )
            )
        return np.vstack(pts)
    if cset.kind == "torus":
        big_r = 0.5 * (cset.params["r_outer"] + cset.params["r_inner"])
        tube_c = 0.5 * (cset.params["r_outer"] - cset.params["r_inner"])
        n_u = max(4, int(math.ceil(2.0 * np.pi * (big_r + tube_c) / h)))
        n_v = max(4, int(math.ceil(2.0 * np.pi * tube_c / h)))
        _check_budget(float(n_u) * n_v, budget)
        u = np.arange(n_u) * (2.0 * np.pi / n_u)
        v = np.arange(n_v) * (2.0 * np.pi / n_v)
        U, V = np.meshgrid(u, v, indexing="ij")
        P = np.stack([U.ravel(), V.ravel()], axis=1)
        return cset.chart(P)
    # generic chart: per-axis stretch estimated from chart differences
    bounds = cset.param_bounds
    probe_axes = [np.linspace(lo, hi, 17) for lo, hi in bounds]
    grids = np.meshgrid(*probe_axes, indexing="ij")
    P = np.stack([g.ravel() for g in grids], axis=1)
    counts = []
    for k, (lo, hi) in enumerate(bounds):
        dp = np.zeros((len(P), len(bounds)))
        step = (hi - lo) * 1e-4
        dp[:, k] = step
        stretch = np.linalg.norm(cset.chart(P + dp) - cset.chart(P - dp), axis=1) / (2 * step)
        counts.append(max(2, int(math.ceil((hi - lo) * float(stretch.max()) / h)) + 1))
    total = 1.0
    for c in counts:
        total *= c
    _check_budget(total, budget)
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(bounds, counts)]
    grids = np.meshgrid(*axes, indexing="ij")
    P = np.stack([g.ravel() for g in grids], axis=1)
    return cset.chart(P)


def _check_budget(n: float, budget: int) -> None:
    if n > budget:
        raise ValueError(
            f"covering mesh would need about {int(n)} nodes, over the budget of {budget}; "
            "raise the budget or the fill distance"
        )
