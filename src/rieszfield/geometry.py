"""Compact sets the energy lives on.

Every set is a chart over a parameter box: a map from the box into R^p,
the d-volume density of that map, a retraction (metric projection) back
onto the set, and tangent-plane projection for gradients.  One builder
turns a chart into a ``CompactSet``: it fixes the quadrature rule for
the d-dimensional Hausdorff measure, and the adaptive equilibrium solver
and the covering mesh refine on the same chart.  Built-ins are the
interval, the round sphere and the embedded torus, each with exact
measure, diameter and chart stretch; ``make_param_set`` accepts user
charts and estimates those three.
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
]

# most points a covering mesh may have (240 MB of float64 in R^3)
_MESH_BUDGET = 10_000_000

# quadrature nodes per parameter axis of the built-in sets
_INTERVAL_NODES = (256,)
_SPHERE_NODES = (96, 192)  # z = cos(theta), phi
_TORUS_NODES = (128, 128)  # u, v

# registry of named user charts for JSON round trips of "param" sets
_PARAM_REGISTRY: dict[str, Callable[..., "CompactSet"]] = {}


@dataclass
class CompactSet:
    """A compact d-rectifiable subset of R^p, given as a chart.

    Attributes
    ----------
    ambient_dim : p, dimension of the embedding space
    hausdorff_dim : d, intrinsic dimension (the number of chart axes)
    total_measure : H_d(A)
    diameter : Euclidean diameter of A
    nodes, weights : quadrature rule for integrals over A
    axes : per parameter axis, the coordinates of the quadrature nodes;
        ``nodes`` is ``chart`` on their tensor grid, axis 0 slowest
    retract : map of ambient points, shape (n, p), to nearest points on A
    tangent_project : (points on A (n, p), ambient vectors (..., n, p))
        -> tangent vectors (..., n, p); a stack of vector fields at the
        same points is projected in one call
    chart : parametrization, (n, param_dim) -> (n, p)
    chart_jacobian : d-volume density of the chart, (n, param_dim) -> (n,)
    param_bounds : rectangle in parameter space covered by the chart
    periodic : per parameter axis, whether the chart wraps around it
        (its two ends map to the same points)
    chart_stretch : per parameter axis, the largest length |d chart/d p_k|;
        it spaces the covering mesh
    kind : descriptor tag ("interval" | "sphere" | "torus" | "param")

    total_measure, diameter and chart_stretch are exact on the built-in
    sets and estimated on user charts.
    """

    ambient_dim: int
    hausdorff_dim: int
    total_measure: float
    diameter: float
    nodes: np.ndarray
    weights: np.ndarray
    axes: tuple
    retract: Callable[[np.ndarray], np.ndarray]
    tangent_project: Callable[[np.ndarray, np.ndarray], np.ndarray]
    chart: Callable[[np.ndarray], np.ndarray]
    chart_jacobian: Callable[[np.ndarray], np.ndarray]
    param_bounds: tuple
    periodic: tuple
    chart_stretch: tuple
    kind: str
    params: dict = field(default_factory=dict)
    _mesh_cache: tuple | None = field(default=None, repr=False)

    def mesh(self):
        """Dense point sample of A for covering-radius evaluation.

        Returns (points, fill) where ``fill`` is the declared fill
        distance: 2e-4 * diameter for curves and 2e-3 * diameter for
        surfaces.  The result is cached per set; ``covering_mesh`` builds
        a mesh of any other fill.
        """
        if self._mesh_cache is None:
            fill = (2e-4 if self.hausdorff_dim == 1 else 2e-3) * self.diameter
            self._mesh_cache = (covering_mesh(self, fill), fill)
        return self._mesh_cache

    def descriptor(self) -> dict:
        return {"kind": self.kind, **self.params}


def _row_dot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, U[..., 0] V[..., 0] + U[..., 1]
    V[..., 1] + ... added in index order, one column at a time.

    numpy adds fewer than 8 terms in order, so this is bit for bit
    ``np.sum(U * V, axis=-1)``, and its square root for V = U
    ``np.linalg.norm(U, axis=-1)``; it skips numpy's slow inner loop over
    an axis of length p <= 3 and the (..., p) temporary of the products.
    """
    out = U[..., 0] * V[..., 0]
    for k in range(1, U.shape[-1]):
        out += U[..., k] * V[..., k]
    return out


def _by_rows(op, A: np.ndarray, f: np.ndarray) -> np.ndarray:
    """op(A, f[:, None]) one column at a time: each row of A (..., n, p)
    combined with its entry of f (n,), the same bits without numpy's
    broadcast over the short axis."""
    out = np.empty(A.shape)
    for k in range(A.shape[-1]):
        op(A[..., k], f, out=out[..., k])
    return out


def _drop_normal(vecs: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """vecs (..., n, p) less their parts along the unit normals (n, p),
    one column at a time."""
    dot = _row_dot(vecs, normal)
    out = np.empty(vecs.shape)
    for k in range(vecs.shape[-1]):
        np.subtract(vecs[..., k], dot * normal[:, k], out=out[..., k])
    return out


def _grid(axes) -> np.ndarray:
    """Tensor grid of the per-axis points, one row per grid point."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _seamless(lo: float, hi: float, n: int) -> np.ndarray:
    """n equally spaced points of a periodic axis, the seam at hi left out."""
    return lo + np.arange(n) * ((hi - lo) / n)


def _chart_set(
    kind, params, chart, jacobian, bounds, counts, periodic, retract, tangent_project,
    ambient_dim, total_measure=None, diameter=None, stretch=None,
) -> CompactSet:
    """The set a chart over the box ``bounds`` parametrizes.

    The quadrature rule is a tensor product over the parameter axes,
    ``counts[k]`` nodes on axis k: Gauss-Legendre on a closed axis, the
    uniform trapezoid rule (exact for periodic integrands) on a periodic
    one, times the chart jacobian.  Left out, the total measure is the
    rule's sum, the diameter the widest pair of about 512 nodes, and the
    chart stretch a central-difference probe on a 17-point grid per axis.
    A chart has one or two axes: the equilibrium solver's initial cells
    and the scatter plot's support contour exist for curves and surfaces
    only.
    """
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if len(bounds) not in (1, 2):
        raise ValueError(f"a chart needs 1 or 2 parameter axes, got {len(bounds)}")
    if len(counts) != len(bounds):
        raise ValueError("one node count per parameter axis required")
    if min(counts) < 2:
        raise ValueError("quadrature node counts must be at least 2")
    axes, axws = [], []
    for (lo, hi), c, wrap in zip(bounds, counts, periodic):
        if wrap:
            axes.append(_seamless(lo, hi, c))
            axws.append(np.full(c, (hi - lo) / c))
        else:
            x, w = np.polynomial.legendre.leggauss(c)
            axes.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
            axws.append(0.5 * (hi - lo) * w)
    P = _grid(axes)
    wgrid = axws[0]
    for w in axws[1:]:
        wgrid = np.outer(wgrid, w).ravel()
    nodes = np.asarray(chart(P), dtype=float)
    if nodes.shape != (len(P), ambient_dim):
        raise ValueError("chart must map (n, param_dim) to (n, ambient_dim)")
    weights = wgrid * np.asarray(jacobian(P), dtype=float)
    if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
        raise ValueError("chart jacobian must be positive and finite on the grid")

    if total_measure is None:
        total_measure = float(weights.sum())
    if diameter is None:
        from scipy.spatial.distance import pdist

        probe = nodes[:: max(1, len(nodes) // 512)]
        diameter = float(pdist(probe).max()) if len(probe) > 1 else 1.0
    if stretch is None:
        probe = _grid([np.linspace(lo, hi, 17) for lo, hi in bounds])
        stretch = []
        for k, (lo, hi) in enumerate(bounds):
            dp = np.zeros_like(probe)
            step = (hi - lo) * 1e-4
            dp[:, k] = step
            diff = np.linalg.norm(chart(probe + dp) - chart(probe - dp), axis=1)
            stretch.append(float((diff / (2 * step)).max()))

    return CompactSet(
        ambient_dim=int(ambient_dim),
        hausdorff_dim=len(bounds),
        total_measure=total_measure,
        diameter=diameter,
        nodes=nodes,
        weights=weights,
        axes=tuple(axes),
        retract=retract,
        tangent_project=tangent_project,
        chart=chart,
        chart_jacobian=jacobian,
        param_bounds=bounds,
        periodic=tuple(periodic),
        chart_stretch=tuple(stretch),
        kind=kind,
        params=params,
    )


def make_interval(a: float, b: float) -> CompactSet:
    """The interval [a, b] in R^1, charted by the identity."""
    a, b = float(a), float(b)
    if a >= b:
        raise ValueError("interval requires a < b")

    def retract(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.clip(pts, a, b)

    def tangent_project(pts, vecs):
        return np.array(vecs, dtype=float, copy=True)

    return _chart_set(
        "interval", {"a": a, "b": b},
        chart=lambda p: np.asarray(p, dtype=float),
        jacobian=lambda p: np.ones(len(p)),
        bounds=((a, b),), counts=_INTERVAL_NODES, periodic=(False,),
        retract=retract, tangent_project=tangent_project, ambient_dim=1,
        total_measure=b - a, diameter=b - a, stretch=(1.0,),
    )


def make_sphere(radius: float = 1.0) -> CompactSet:
    """Round sphere of the given radius, charted by (z = cos theta, phi).

    The chart's area element is the constant radius^2.  Its stretch
    along z, radius / sqrt(1 - z^2), is unbounded at the poles, so the
    covering mesh is built in rings instead of on the chart grid.
    """
    radius = float(radius)
    if radius <= 0:
        raise ValueError("sphere radius must be positive")

    def chart(p):
        p = np.asarray(p, dtype=float)
        z = p[:, 0]
        rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        return radius * np.stack([rho * np.cos(p[:, 1]), rho * np.sin(p[:, 1]), z], axis=1)

    def retract(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        norms = np.sqrt(_row_dot(pts, pts))
        if np.any(norms == 0.0):
            raise ValueError("cannot project the origin onto the sphere")
        return _by_rows(np.multiply, pts, radius / norms)

    def tangent_project(pts, vecs):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vecs = np.atleast_2d(np.asarray(vecs, dtype=float))
        return _drop_normal(vecs, _by_rows(np.divide, pts, np.sqrt(_row_dot(pts, pts))))

    return _chart_set(
        "sphere", {"radius": radius},
        chart=chart, jacobian=lambda p: np.full(len(p), radius * radius),
        bounds=((-1.0, 1.0), (0.0, 2.0 * np.pi)), counts=_SPHERE_NODES,
        periodic=(False, True), retract=retract, tangent_project=tangent_project,
        ambient_dim=3, total_measure=4.0 * np.pi * radius * radius,
        diameter=2.0 * radius, stretch=(math.inf, radius),
    )


def make_torus(r_inner: float, r_outer: float) -> CompactSet:
    """Embedded torus with inner radius r_inner and outer radius r_outer.

    Center-circle radius R = (r_outer + r_inner)/2, tube radius
    c = (r_outer - r_inner)/2, charted by the two angles (u, v), both
    periodic, with area element c*(R + c*cos v) du dv.
    """
    r_inner, r_outer = float(r_inner), float(r_outer)
    if not 0 < r_inner < r_outer:
        raise ValueError("torus requires 0 < r_inner < r_outer")
    big_r = 0.5 * (r_outer + r_inner)
    tube_c = 0.5 * (r_outer - r_inner)

    def chart(p):
        p = np.asarray(p, dtype=float)
        u, v = p[:, 0], p[:, 1]
        ring = big_r + tube_c * np.cos(v)
        return np.stack([ring * np.cos(u), ring * np.sin(u), tube_c * np.sin(v)], axis=1)

    def jacobian(p):
        p = np.asarray(p, dtype=float)
        return tube_c * (big_r + tube_c * np.cos(p[:, 1]))

    def centre_circle(pts):
        # nearest points of the center circle to points off the symmetry axis
        rho = np.hypot(pts[:, 0], pts[:, 1])
        ring = pts.copy()
        ring[:, 0] *= big_r / rho
        ring[:, 1] *= big_r / rho
        ring[:, 2] = 0.0
        return ring

    def retract(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float)).copy()
        # points on the symmetry axis have no unique angle; pick u = 0
        pts[np.hypot(pts[:, 0], pts[:, 1]) < 1e-300, 0] = 1.0
        ring = centre_circle(pts)
        rel = pts - ring
        dist = np.sqrt(_row_dot(rel, rel))
        degenerate = dist < 1e-300
        # center-circle points snap outward
        rel[degenerate] = ring[degenerate] / big_r
        dist[degenerate] = 1.0
        return ring + _by_rows(np.multiply, rel, tube_c / dist)

    def tangent_project(pts, vecs):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vecs = np.atleast_2d(np.asarray(vecs, dtype=float))
        return _drop_normal(vecs, (pts - centre_circle(pts)) / tube_c)

    return _chart_set(
        "torus", {"r_inner": r_inner, "r_outer": r_outer},
        chart=chart, jacobian=jacobian,
        bounds=((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi)), counts=_TORUS_NODES,
        periodic=(True, True), retract=retract, tangent_project=tangent_project,
        ambient_dim=3, total_measure=4.0 * np.pi ** 2 * big_r * tube_c,
        diameter=2.0 * r_outer, stretch=(big_r + tube_c, tube_c),
    )


def make_param_set(
    chart: Callable[[np.ndarray], np.ndarray],
    chart_jacobian: Callable[[np.ndarray], np.ndarray],
    param_bounds: Sequence[tuple],
    retract: Callable[[np.ndarray], np.ndarray],
    ambient_dim: int,
    n_quad: Sequence[int] = (64, 64),
    name: str | None = None,
) -> CompactSet:
    """Build a set from a user-supplied chart over a parameter rectangle.

    Quadrature is product Gauss-Legendre with ``n_quad`` nodes per axis
    weighted by ``chart_jacobian``.  Validation is limited to the
    weight-sum sanity of the resulting rule; smoothness of the chart is
    trusted.  Total measure, diameter and chart stretch are estimated
    from the chart.  Tangent projection is onto the span of the central
    differences of ``retract`` along the ambient axes.
    """
    dim = len(param_bounds)
    counts = [int(c) for c in (n_quad if np.iterable(n_quad) else [n_quad] * dim)]
    return _chart_set(
        "param", {"name": name or "anonymous", "n_quad": counts},
        chart=chart, jacobian=chart_jacobian, bounds=param_bounds, counts=counts,
        periodic=(False,) * dim, retract=retract,
        tangent_project=_numeric_tangent_project(param_bounds, retract),
        ambient_dim=ambient_dim,
    )


def _numeric_tangent_project(param_bounds, retract):
    # near a point of the set, the central differences of the retraction
    # along the ambient axes span the tangent plane; their leading left
    # singular vectors are an orthonormal basis of it
    dim = len(param_bounds)
    h = 1e-6 * max(hi - lo for lo, hi in param_bounds)

    def tangent_project(pts, vecs):
        # one basis per point, applied to every field of the stack vecs
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vecs = np.atleast_2d(np.asarray(vecs, dtype=float))
        n, p = pts.shape
        step = h * np.eye(p)
        ahead = retract((pts[:, None, :] + step).reshape(-1, p))
        behind = retract((pts[:, None, :] - step).reshape(-1, p))
        # column k of block i: retract(x_i + h e_k) - retract(x_i - h e_k)
        diffs = (ahead - behind).reshape(n, p, p).transpose(0, 2, 1)
        basis = np.linalg.svd(diffs)[0][:, :, :dim]
        # coordinates in the basis and back, column by column: an einsum
        # over the stack would loop over the short axes
        coords = np.stack([_row_dot(vecs, basis[:, :, j]) for j in range(dim)], axis=-1)
        return np.stack([_row_dot(coords, basis[:, i]) for i in range(p)], axis=-1)

    return tangent_project


def register_param_set(name: str, builder: Callable[..., CompactSet]) -> None:
    """Register a named construction for JSON "param" descriptors."""
    _PARAM_REGISTRY[str(name)] = builder


def _descriptor(desc, what: str) -> dict:
    """A JSON descriptor as given; anything but an object raises
    TypeError naming ``what``."""
    if not isinstance(desc, dict):
        raise TypeError(f"{what} must be a JSON object, got {desc!r}")
    return desc


def set_from_descriptor(desc: dict) -> CompactSet:
    """Rebuild a set from its JSON descriptor."""
    kind = _descriptor(desc, "set descriptor").get("kind")
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


def covering_mesh(cset: CompactSet, fill_distance: float) -> np.ndarray:
    """Points on A leaving no point of A farther than ``fill_distance``
    (on user charts only as far as the probed chart stretch tells).

    The mesh is what covering-radius diagnostics max over; its fill
    distance is the resolution error bar attached to those numbers.  A
    mesh of more than 10^7 points raises ValueError before it is built.
    """
    h = float(fill_distance)
    if not 0 < h < cset.diameter:
        raise ValueError("fill_distance must lie in (0, diameter)")
    if cset.kind == "sphere":
        radius = cset.params["radius"]
        n_rings = max(2, int(math.ceil(np.pi * radius / h)) + 1)
        _check_budget(4.0 * np.pi * radius * radius / (h * h), h)
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
    # chart grid spaced by the chart stretch: a closed axis keeps both
    # ends, a periodic one leaves out the seam
    counts = []
    for (lo, hi), wrap, stretch in zip(cset.param_bounds, cset.periodic, cset.chart_stretch):
        span = int(math.ceil((hi - lo) * stretch / h))
        counts.append(max(4, span) if wrap else max(2, span + 1))
    _check_budget(math.prod(counts), h)
    return cset.chart(_grid([
        _seamless(lo, hi, c) if wrap else np.linspace(lo, hi, c)
        for (lo, hi), wrap, c in zip(cset.param_bounds, cset.periodic, counts)
    ]))


def _check_budget(n: float, fill_distance: float) -> None:
    if n > _MESH_BUDGET:
        raise ValueError(
            f"covering mesh at fill distance {fill_distance:g} would need about {int(n)} "
            f"nodes, over the budget of {_MESH_BUDGET}; raise the fill distance"
        )
