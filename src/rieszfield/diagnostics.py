"""Configuration quality measures and asymptotic comparisons.

Separation and covering radius quantify how well a point set spreads
over (the relevant sublevel set of) its domain; their ratio is the
quasi-uniformity measure.  The remaining operations compare a finite
configuration against the limiting predictions: empirical vs
equilibrium density, counting-measure averages vs integrals (weak*
discrepancy), and scaled energy vs the first-order limit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from .geometry import CompactSet
from .optimizer import Configuration, energy, tau

__all__ = [
    "DiagnosticsReport",
    "CoveringEstimate",
    "separation",
    "covering_radius",
    "mesh_ratio",
    "point_potential",
    "containment_check",
    "empirical_density",
    "density_table_average",
    "weak_star_error",
    "energy_ratio",
    "sublevel_components",
    "region_mesh_ratios",
    "build_report",
    "write_density_csv",
]


def separation(config: Configuration) -> float:
    """Minimal pairwise distance, exact O(N^2) scan."""
    if config.n < 2:
        raise ValueError("separation needs at least two points")
    return float(pdist(config.points).min())


class CoveringEstimate(NamedTuple):
    value: float
    fill: float  # mesh fill distance: the resolution error bar


def _filter_mesh(mesh_points, sublevel):
    if sublevel is None:
        return mesh_points
    fld, threshold = sublevel
    qv = np.asarray(fld.evaluate(mesh_points), dtype=float)
    kept = mesh_points[qv <= threshold]
    if len(kept) == 0:
        raise ValueError("sublevel filter removed every mesh point")
    return kept


def covering_radius(config: Configuration, mesh=None, sublevel=None) -> CoveringEstimate:
    """Largest distance from a (filtered) mesh point to the configuration.

    ``mesh`` is (points, fill) as returned by CompactSet.mesh(); omitted,
    the set's default mesh is used.  ``sublevel`` = (field, threshold)
    restricts the mesh to the sublevel set {q <= threshold}.
    """
    if mesh is None:
        mesh = config.cset.mesh()
    pts, fill = mesh
    pts = _filter_mesh(pts, sublevel)
    dists, _ = cKDTree(config.points).query(pts)
    return CoveringEstimate(float(dists.max()), float(fill))


def mesh_ratio(config: Configuration, mesh=None, sublevel=None) -> float:
    """Covering radius over separation."""
    return covering_radius(config, mesh, sublevel).value / separation(config)


def point_potential(x, config: Configuration, fld, s: float, scale_N: int | None = None) -> float:
    """Field-adjusted potential of one point against a configuration.

    Coincidences with configuration points are excluded from the pair
    sum, so evaluating at a configuration point gives its own potential.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    n = scale_N if scale_N is not None else config.n
    r = np.linalg.norm(config.points - x, axis=1)
    r = r[r > 0.0]
    if len(r) == 0:
        return np.inf
    qv = float(np.asarray(fld.evaluate(x), dtype=float)[0])
    d = config.cset.hausdorff_dim
    return float((r ** -s).sum()) + tau(s, d, n) / n * qv


def containment_check(config: Configuration, fld, l1: float) -> float:
    """max q(x) - l1 over the configuration; <= 0 means all points lie
    inside the sublevel set where the limiting measure lives."""
    qv = np.asarray(fld.evaluate(config.points), dtype=float)
    return float(qv.max() - l1)


def energy_ratio(config: Configuration, fld, s: float) -> float:
    """E^q over tau: the finite-N counterpart of the first-order limit."""
    d = config.cset.hausdorff_dim
    return energy(config, fld, s) / tau(s, d, config.n)


# ---------------------------------------------------------------------------
# empirical density


def empirical_density(config: Configuration, cset: CompactSet | None = None) -> dict:
    """Binned density of the configuration, normalized to unit mass.

    Intervals get ceil(sqrt(N)) equal-width bins; spheres get that many
    equal-area latitudinal bands; any other set is counted per
    quadrature cell (nearest-node assignment, count over N*weight).
    """
    cset = cset or config.cset
    X = config.points
    N = len(X)
    if N < 16:
        raise ValueError("empirical density needs at least 16 points")
    k = math.isqrt(N - 1) + 1
    if cset.kind == "interval":
        (a, b) = cset.param_bounds[0]
        edges = np.linspace(a, b, k + 1)
        counts, _ = np.histogram(X[:, 0], bins=edges)
        width = edges[1] - edges[0]
        return {
            "kind": "interval_bins",
            "edges": edges,
            "centers": 0.5 * (edges[:-1] + edges[1:])[:, None],
            "count": counts,
            "density": counts / (N * width),
        }
    if cset.kind == "sphere":
        r = cset.params["radius"]
        edges = np.linspace(-r, r, k + 1)
        z = X[:, 2]
        counts, _ = np.histogram(z, bins=edges)
        areas = 2.0 * np.pi * r * np.diff(edges)  # equal-height zones have equal area
        centers = np.zeros((k, 3))
        centers[:, 2] = 0.5 * (edges[:-1] + edges[1:])
        return {
            "kind": "sphere_bands",
            "edges": edges,
            "centers": centers,
            "count": counts,
            "density": counts / (N * areas),
        }
    idx = cKDTree(cset.nodes).query(X)[1]
    counts = np.bincount(idx, minlength=len(cset.nodes))
    return {
        "kind": "quadrature_cells",
        "centers": cset.nodes,
        "count": counts,
        "density": counts / (N * cset.weights),
    }


def density_table_average(measure, table: dict, samples_per_bin: int = 512) -> np.ndarray:
    """Equilibrium density averaged over the bins of an empirical table,
    for like-for-like histogram comparisons."""
    kind = table["kind"]
    if kind == "interval_bins":
        edges = table["edges"]
        out = np.empty(len(edges) - 1)
        for i in range(len(out)):
            xs = np.linspace(edges[i], edges[i + 1], samples_per_bin)[:, None]
            out[i] = measure.density(xs).mean()
        return out
    if kind == "sphere_bands":
        edges = table["edges"]
        r = measure.set.params["radius"]
        out = np.empty(len(edges) - 1)
        for i in range(len(out)):
            zs = np.linspace(edges[i], edges[i + 1], samples_per_bin)
            phis = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
            Z, PH = np.meshgrid(zs, phis)
            rho_xy = np.sqrt(np.clip(r * r - Z**2, 0.0, None))
            P = np.stack([rho_xy * np.cos(PH), rho_xy * np.sin(PH), Z], axis=-1).reshape(-1, 3)
            out[i] = measure.density(P).mean()
        return out
    return measure.density(table["centers"])


def write_density_csv(table: dict, path, equilibrium: np.ndarray | None = None) -> None:
    centers = np.atleast_2d(table["centers"])
    header = [f"x{i + 1}" for i in range(centers.shape[1])] + ["count", "empirical_density"]
    if equilibrium is not None:
        header.append("equilibrium_density")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(len(centers)):
            row = [f"{c:.17g}" for c in centers[i]]
            row += [str(int(table["count"][i])), f"{table['density'][i]:.17g}"]
            if equilibrium is not None:
                row.append(f"{equilibrium[i]:.17g}")
            w.writerow(row)


# ---------------------------------------------------------------------------
# weak* comparison


def _default_tests(p: int):
    tests = []
    for j in range(p):
        tests.append((f"x{j + 1}", lambda X, _j=j: np.atleast_2d(X)[:, _j]))
        tests.append((f"x{j + 1}^2", lambda X, _j=j: np.atleast_2d(X)[:, _j] ** 2))
    return tests


def weak_star_error(config: Configuration, measure, test_set=None) -> list[tuple[str, float]]:
    """|counting-measure average - integral against the limit| per test
    function; defaults to coordinates and their squares."""
    if test_set is None:
        test_set = _default_tests(config.points.shape[1])
    out = []
    for label, fn in test_set:
        emp = float(np.mean(np.asarray(fn(config.points), dtype=float)))
        ref = measure.integrate(fn)
        out.append((label, abs(emp - ref)))
    return out


# ---------------------------------------------------------------------------
# sublevel structure


def sublevel_components(cset: CompactSet, mesh, fld, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Mesh points of {q <= threshold} and their connected-component
    labels (linking mesh neighbors within 3 fill distances)."""
    pts, fill = mesh
    kept = _filter_mesh(pts, (fld, threshold))
    pairs = cKDTree(kept).query_pairs(3.0 * fill, output_type="ndarray")
    n = len(kept)
    adj = sparse.coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    _, labels = sparse.csgraph.connected_components(adj, directed=False)
    return kept, labels


def region_mesh_ratios(config: Configuration, fld, l1: float, sep: float, mesh) -> dict:
    """Covering radius of each region of the occupied sublevel set over
    the separation ``sep``, pooled into "mid" (the equatorial band) and
    "polar" (the caps); built for catalog field a on the sphere.

    The occupied sublevel is {q <= max_i q(x_i)}, capped at l1: the
    limit density vanishes toward the support boundary, so covering
    against the full support is dominated by the empty low-density
    collar rather than by the point pattern.  ``mesh`` is (points, fill)
    as from CompactSet.mesh(); a region without points or mesh points
    is nan.
    """
    X = config.points
    level = min(float(np.asarray(fld.evaluate(X), dtype=float).max()), l1)
    kept, labels = sublevel_components(config.cset, mesh, fld, level)
    means = np.array([abs(kept[labels == k][:, 2].mean()) for k in range(int(labels.max()) + 1)])
    polar = means > 0.5
    own = labels[cKDTree(kept).query(X)[1]]
    out = {}
    for name, mask_lab in (("mid", ~polar), ("polar", polar)):
        pts = X[mask_lab[own]]
        region = kept[mask_lab[labels]]
        if not len(pts) or not len(region):
            out[name] = float("nan")
            continue
        out[name] = float(cKDTree(pts).query(region)[0].max()) / sep
    return out


# ---------------------------------------------------------------------------
# aggregate report


@dataclass
class DiagnosticsReport:
    separation: float
    covering_radius: float
    covering_fill: float
    mesh_ratio: float
    energy_ratio: float
    s_predicted: float
    weak_star_errors: list
    containment_margin: float

    def to_dict(self) -> dict:
        return {
            "separation": self.separation,
            "covering_radius": self.covering_radius,
            "covering_fill": self.covering_fill,
            "mesh_ratio": self.mesh_ratio,
            "energy_ratio": self.energy_ratio,
            "s_predicted": self.s_predicted,
            "weak_star_errors": [[label, err] for label, err in self.weak_star_errors],
            "containment_margin": self.containment_margin,
        }


def build_report(
    config: Configuration,
    fld,
    s: float,
    measure,
    mesh=None,
    sublevel_h: float | None = None,
    test_set=None,
) -> DiagnosticsReport:
    """Assemble the full quality report for a configuration.

    The covering radius is restricted to the sublevel set
    {q <= L1 - h}, h defaulting to 5% of the field's range below L1
    (minimizers only fill that region asymptotically); pass
    sublevel_h=0 to disable filtering in effect.
    """
    cset = config.cset
    if mesh is None:
        mesh = cset.mesh()
    qmesh = np.asarray(fld.evaluate(mesh[0]), dtype=float)
    qmin = float(qmesh[np.isfinite(qmesh)].min())
    if sublevel_h is None:
        sublevel_h = 0.05 * (measure.l1 - qmin)
    sub = (fld, measure.l1 - sublevel_h) if sublevel_h > 0 else None
    cov = covering_radius(config, mesh, sub)
    sep = separation(config)
    return DiagnosticsReport(
        separation=sep,
        covering_radius=cov.value,
        covering_fill=cov.fill,
        mesh_ratio=cov.value / sep,
        energy_ratio=energy_ratio(config, fld, s),
        s_predicted=measure.s_value,
        weak_star_errors=weak_star_error(config, measure, test_set),
        containment_margin=containment_check(config, fld, measure.l1),
    )
