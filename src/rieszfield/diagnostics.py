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
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .geometry import CompactSet
from .optimizer import Configuration, _min_distance, energy, tau

__all__ = [
    "DiagnosticsReport",
    "separation",
    "covering_radius",
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
    """Minimal pairwise distance, by an exact KD-tree nearest-neighbour
    search in O(N log N)."""
    if config.n < 2:
        raise ValueError("separation needs at least two points")
    return _min_distance(config.points)


def _filter_mesh(mesh_points, qv, threshold):
    # the mesh points of the sublevel set {q <= threshold}, given the
    # field values qv on the mesh
    kept = mesh_points[qv <= threshold]
    if len(kept) == 0:
        raise ValueError("sublevel filter removed every mesh point")
    return kept


def covering_radius(config: Configuration, mesh) -> float:
    """Largest distance from a mesh point to the configuration.

    ``mesh`` is (points, fill) as returned by CompactSet.mesh(), or a
    subset of its points with the same fill; the fill, the resolution
    error bar of the estimate, is the caller's to report.
    """
    dists, _ = cKDTree(config.points).query(mesh[0])
    return float(dists.max())


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


def empirical_density(config: Configuration) -> dict:
    """Binned density of the configuration, normalized to unit mass.

    Intervals get ceil(sqrt(N)) equal-width bins; spheres get that many
    equal-area latitudinal bands; any other set is counted per
    quadrature cell (nearest-node assignment, count over N*weight).
    """
    cset = config.cset
    X = config.points
    N = len(X)
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


# equilibrium density samples per interval bin or sphere band (per azimuth)
_SAMPLES_PER_BIN = 512


def density_table_average(measure, table: dict) -> np.ndarray:
    """Equilibrium density averaged over the bins of an empirical table,
    for like-for-like histogram comparisons."""
    kind = table["kind"]
    if kind == "interval_bins":
        edges = table["edges"]
        out = np.empty(len(edges) - 1)
        for i in range(len(out)):
            xs = np.linspace(edges[i], edges[i + 1], _SAMPLES_PER_BIN)[:, None]
            out[i] = measure.density(xs).mean()
        return out
    if kind == "sphere_bands":
        edges = table["edges"]
        r = measure.set.params["radius"]
        phis = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        out = np.empty(len(edges) - 1)
        for i in range(len(out)):
            Z, PH = np.meshgrid(np.linspace(edges[i], edges[i + 1], _SAMPLES_PER_BIN) / r, phis)
            out[i] = measure.density(measure.set.chart(np.column_stack([Z.ravel(), PH.ravel()]))).mean()
        return out
    return measure.density(table["centers"])


def write_density_csv(table: dict, path, equilibrium: np.ndarray) -> None:
    """The empirical table beside ``equilibrium``, the equilibrium
    density averaged over its bins (density_table_average)."""
    centers = np.atleast_2d(table["centers"])
    header = [f"x{i + 1}" for i in range(centers.shape[1])]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header + ["count", "empirical_density", "equilibrium_density"])
        for x, count, rho, eq in zip(centers, table["count"], table["density"], equilibrium, strict=True):
            w.writerow([f"{c:.17g}" for c in x] + [str(int(count)), f"{rho:.17g}", f"{eq:.17g}"])


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
    kept = _filter_mesh(pts, np.asarray(fld.evaluate(pts), dtype=float), threshold)
    pairs = cKDTree(kept).query_pairs(3.0 * fill, output_type="ndarray")
    n = len(kept)
    adj = sparse.coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    _, labels = sparse.csgraph.connected_components(adj, directed=False)
    return kept, labels


def region_mesh_ratios(config: Configuration, fld, l1: float, sep: float, mesh_points, mesh_values) -> dict:
    """Covering radius of each region of the occupied sublevel set over
    the separation ``sep``, split into "mid" (the equatorial band) and
    "polar" (the two bands toward the poles); built for catalog field a
    on the sphere.

    The occupied sublevel is {q <= max_i q(x_i)}, capped at l1: the
    limit density vanishes toward the support boundary, so covering
    against the full support is dominated by the empty low-density
    collar rather than by the point pattern.  Field a, T3(z)^16, takes
    its maximum 1 at |z| = 1/2 and l1 < 1, so no mesh point of the
    sublevel lies at |z| = 1/2: its mesh points split into the regions by
    |z| > 1/2, and each configuration point belongs to the region of its
    nearest one.  ``mesh_values`` are the values of ``fld`` at
    ``mesh_points``, as a report's ``mesh_values`` on the set's default
    mesh; a region without points or mesh points is nan.
    """
    X = config.points
    level = min(float(np.asarray(fld.evaluate(X), dtype=float).max()), l1)
    kept = _filter_mesh(mesh_points, mesh_values, level)
    polar = np.abs(kept[:, 2]) > 0.5
    own = polar[cKDTree(kept).query(X)[1]]
    out = {}
    for name, in_mesh, in_config in (("mid", ~polar, ~own), ("polar", polar, own)):
        pts = X[in_config]
        region = kept[in_mesh]
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
    weak_star_errors: list  # [label, error] pairs
    containment_margin: float
    # q on the set's default mesh, for callers' further mesh diagnostics;
    # not part of the report's numbers
    mesh_values: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "mesh_values"}


def build_report(
    config: Configuration,
    fld,
    s: float,
    measure,
) -> DiagnosticsReport:
    """Assemble the quality report of a configuration.

    Separation, covering radius and mesh ratio on the set's default
    mesh (CompactSet.mesh()), E/tau, S(q, A), the weak* errors of the
    coordinates and their squares, the containment margin, and the
    field's values on that mesh (``mesh_values``).  The
    covering radius is taken over the mesh points of the sublevel set
    {q <= L1 - h}, h = 5% of L1 minus the smallest finite q on the mesh
    (minimizers only fill that region asymptotically); when h <= 0 (no
    mesh point lies inside the support) the whole mesh counts.
    """
    pts, fill = config.cset.mesh()
    qmesh = np.asarray(fld.evaluate(pts), dtype=float)
    qmin = float(qmesh[np.isfinite(qmesh)].min())
    h = 0.05 * (measure.l1 - qmin)
    if h > 0:
        pts = _filter_mesh(pts, qmesh, measure.l1 - h)
    cov = covering_radius(config, (pts, fill))
    sep = separation(config)
    return DiagnosticsReport(
        separation=sep,
        covering_radius=cov,
        covering_fill=float(fill),
        mesh_ratio=cov / sep,
        energy_ratio=energy_ratio(config, fld, s),
        s_predicted=measure.s_value,
        weak_star_errors=[[label, err] for label, err in weak_star_error(config, measure)],
        containment_margin=containment_check(config, fld, measure.l1),
        mesh_values=qmesh,
    )
