"""Configuration quality measures and asymptotic comparisons.

Separation and covering radius quantify how well a point set spreads
over (the relevant sublevel set of) its domain; their ratio is the
quasi-uniformity measure.  The remaining operations compare a finite
configuration against the limiting predictions: empirical vs
equilibrium density, counting-measure averages vs integrals (weak*
discrepancy), and scaled energy vs the first-order limit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .geometry import CompactSet
from .optimizer import _COINCIDENT, Configuration, energy, tau

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
]


def separation(config: Configuration) -> float:
    """Minimal pairwise distance, by an exact KD-tree nearest-neighbour
    search in O(N log N); 0 for coincident points."""
    if config.n < 2:
        raise ValueError("separation needs at least two points")
    X = config.points
    return float(cKDTree(X).query(X, k=2)[0][:, 1].min())


def _require_separated(sep: float) -> None:
    # a mesh ratio over a zero separation is as undefined as the energy
    if sep == 0.0:
        raise ValueError(_COINCIDENT)


def _filter_mesh(mesh_points, qv, threshold):
    # the mesh points of the sublevel set {q <= threshold}, given the
    # field values qv on the mesh
    kept = mesh_points[qv <= threshold]
    if len(kept) == 0:
        raise ValueError("sublevel filter removed every mesh point")
    return kept


# Mesh points per run in _max_nearest_distance.  Meshes are built ring
# by ring or grid row by row, so a run of consecutive points is short.
# Against one query per point of the default sphere mesh, on the kernel
# sweep's configurations (2-core Xeon host), runs of 2 took 0.55-0.57 of
# the time, 4 0.33-0.40, 6 0.24-0.47 and 8 0.20-0.62: 6 and 8 win at
# N <= 1000 and lose at N = 4000, where a long run's radius reaches the
# spacing of the points and few runs are ruled out.
_RUN = 4


def _max_nearest_distance(X: np.ndarray, P: np.ndarray) -> float:
    """max_j min_i |P_j - X_i| over the rows of P (at least one), equal
    bit for bit to the largest distance a nearest-neighbour query of
    every P_j returns, from fewer queries.

    P is cut into runs of _RUN consecutive rows.  Each run is queried at
    one of its points, c; by the triangle inequality no point of the run
    is farther from X than c's distance plus the run's radius about c.
    Only the runs whose bound reaches the largest distance of any c, less
    a relative 1e-12 that covers the rounding of both sides, are queried
    in full, with the points of a short last run.  Every run is read
    through strided views of P.
    """
    tree = cKDTree(X)
    m = len(P) // _RUN * _RUN
    mid = (_RUN - 1) // 2
    centre = P[mid:m:_RUN]
    dc = tree.query(centre)[0]
    best = float(dc.max(initial=0.0))
    others = [P[k:m:_RUN] for k in range(_RUN) if k != mid]
    r2 = np.zeros(len(centre))
    for run in others:
        diff = run - centre
        np.maximum(r2, np.einsum("ij,ij->i", diff, diff), out=r2)
    live = dc + np.sqrt(r2) >= (1.0 - 1e-12) * best
    rest = np.concatenate([run[live] for run in others] + [P[m:]])
    return max(best, float(tree.query(rest)[0].max(initial=0.0)))


def covering_radius(config: Configuration, mesh) -> float:
    """Largest distance from a mesh point to the configuration.

    ``mesh`` is (points, fill) as returned by CompactSet.mesh(), or a
    subset of its points with the same fill; the fill, the resolution
    error bar of the estimate, is the caller's to report.  The value is
    exact: the largest of the mesh points' nearest-neighbour distances,
    found by querying one point per run of consecutive mesh points and
    then only the runs that the triangle inequality cannot rule out
    (_max_nearest_distance).
    """
    pts = np.asarray(mesh[0], dtype=float)
    if len(pts) == 0:
        raise ValueError("covering radius needs a non-empty mesh")
    return _max_nearest_distance(config.points, pts)


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


# equilibrium density samples per interval bin or sphere band (per azimuth)
_SAMPLES_PER_BIN = 512


def empirical_density(config: Configuration) -> dict:
    """Binned density of the configuration, normalized to unit mass.

    Intervals get ceil(sqrt(N)) equal-width bins; spheres get that many
    equal-area latitudinal bands; any other set is counted per
    quadrature cell (nearest-node assignment, count over N*weight).
    ``samples`` (bins x points per bin x ambient dim) holds the points
    each bin's equilibrium density is averaged over: 512 per interval
    bin, 8 azimuths x 512 heights per sphere band, a cell's node.
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
            "centers": 0.5 * (edges[:-1] + edges[1:])[:, None],
            "count": counts,
            "density": counts / (N * width),
            "samples": np.linspace(edges[:-1], edges[1:], _SAMPLES_PER_BIN, axis=1)[:, :, None],
        }
    if cset.kind == "sphere":
        r = cset.params["radius"]
        edges = np.linspace(-r, r, k + 1)
        counts, _ = np.histogram(X[:, 2], bins=edges)
        areas = 2.0 * np.pi * r * np.diff(edges)  # equal-height zones have equal area
        centers = np.zeros((k, 3))
        centers[:, 2] = 0.5 * (edges[:-1] + edges[1:])
        # chart parameters (z / r, phi), azimuth-major within each band
        Z = np.linspace(edges[:-1], edges[1:], _SAMPLES_PER_BIN, axis=1) / r
        PH = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        P = np.stack(np.broadcast_arrays(Z[:, None, :], PH[None, :, None]), axis=-1)
        return {
            "centers": centers,
            "count": counts,
            "density": counts / (N * areas),
            "samples": cset.chart(P.reshape(-1, 2)).reshape(k, -1, 3),
        }
    idx = cKDTree(cset.nodes).query(X)[1]
    counts = np.bincount(idx, minlength=len(cset.nodes))
    return {
        "centers": cset.nodes,
        "count": counts,
        "density": counts / (N * cset.weights),
        "samples": cset.nodes[:, None, :],
    }


def density_table_average(measure, table: dict) -> np.ndarray:
    """Equilibrium density averaged over the bins of an empirical table,
    for like-for-like histogram comparisons."""
    k, m, p = table["samples"].shape
    return measure.density(table["samples"].reshape(-1, p)).reshape(k, m).mean(axis=1)


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


def region_mesh_ratios(config: Configuration, fld, l1: float, sep: float, mesh_points) -> dict:
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
    nearest one.  ``fld`` is evaluated on ``mesh_points``, such as the
    set's default mesh; a region without points or mesh points is nan.
    """
    _require_separated(sep)
    X = config.points
    level = min(float(np.asarray(fld.evaluate(X), dtype=float).max()), l1)
    kept = _filter_mesh(mesh_points, np.asarray(fld.evaluate(mesh_points), dtype=float), level)
    polar = np.abs(kept[:, 2]) > 0.5
    own = polar[cKDTree(kept).query(X)[1]]
    out = {}
    for name, in_mesh, in_config in (("mid", ~polar, ~own), ("polar", polar, own)):
        pts = X[in_config]
        region = kept[in_mesh]
        if not len(pts) or not len(region):
            out[name] = float("nan")
            continue
        out[name] = _max_nearest_distance(pts, region) / sep
    return out


# ---------------------------------------------------------------------------
# aggregate report


@dataclass
class DiagnosticsReport:
    """The quality numbers of one configuration, from ``build_report``;
    ``to_dict`` gives them, in this order, for report.json."""

    separation: float
    covering_radius: float
    covering_fill: float
    mesh_ratio: float
    energy_ratio: float
    s_predicted: float
    weak_star_errors: list  # [label, error] pairs
    containment_margin: float

    def to_dict(self) -> dict:
        return asdict(self)


def build_report(
    config: Configuration,
    fld,
    s: float,
    measure,
) -> DiagnosticsReport:
    """Assemble the quality report of a configuration.

    Separation, covering radius and mesh ratio on the set's default
    mesh (CompactSet.mesh()), E/tau, S(q, A), the weak* errors of the
    coordinates and their squares, and the containment margin.  The
    covering radius is taken over the mesh points of the sublevel set
    {q <= L1 - h}, h = 5% of L1 minus the smallest finite q on the mesh
    (minimizers only fill that region asymptotically); when h <= 0 (no
    mesh point lies inside the support) the whole mesh counts.
    """
    sep = separation(config)
    _require_separated(sep)
    pts, fill = config.cset.mesh()
    qmesh = np.asarray(fld.evaluate(pts), dtype=float)
    qmin = float(qmesh[np.isfinite(qmesh)].min())
    h = 0.05 * (measure.l1 - qmin)
    if h > 0:
        pts = _filter_mesh(pts, qmesh, measure.l1 - h)
    cov = covering_radius(config, (pts, fill))
    return DiagnosticsReport(
        separation=sep,
        covering_radius=cov,
        covering_fill=float(fill),
        mesh_ratio=cov / sep,
        energy_ratio=energy_ratio(config, fld, s),
        s_predicted=measure.s_value,
        weak_star_errors=[[label, err] for label, err in weak_star_error(config, measure)],
        containment_margin=containment_check(config, fld, measure.l1),
    )
