import csv
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from rieszfield import cli, diagnostics, optimizer
from rieszfield.equilibrium import solve_equilibrium
from rieszfield.fields import ExternalField, catalog
from rieszfield.geometry import make_interval, make_param_set, make_sphere
from rieszfield.optimizer import (
    _TILE,
    _sample_initial,
    Configuration,
    MinimizeResult,
    OptimizerFailure,
    OptimizerSettings,
    energy,
    energy_gradient,
    minimize,
    tau,
)

ZERO = ExternalField(lambda X: np.zeros(len(np.atleast_2d(X))), label="zero")


def test_tau_values():
    assert tau(4.0, 1, 10) == pytest.approx(10.0**5, rel=1e-14)
    assert tau(3.0, 2, 7) == pytest.approx(7.0**2.5, rel=1e-14)
    assert tau(2.0, 2, 100) == pytest.approx(100.0**2 * math.log(100.0), rel=1e-14)
    assert tau(4.0, 1, 1) == 1.0
    with pytest.raises(ValueError):
        tau(2.0, 2, 1)  # N^2 log N vanishes, scaling undefined
    with pytest.raises(ValueError):
        tau(2.0, 2, 0)


def test_energy_hand_value(interval01):
    # two points at distance 1/2, s = 2: pair term 2 * 4 = 8
    X = np.array([[0.25], [0.75]])
    assert energy(Configuration(X, interval01), ZERO, 2.0) == pytest.approx(8.0, rel=1e-14)
    # adding a constant field c contributes tau/N * N * c = tau * c
    one = ExternalField(lambda P: np.ones(len(np.atleast_2d(P))))
    expect = 8.0 + tau(2.0, 1, 2)
    assert energy(Configuration(X, interval01), one, 2.0) == pytest.approx(expect, rel=1e-14)


def test_energy_coincident_points_rejected(interval01):
    X = np.array([[0.5], [0.5]])
    with pytest.raises(ValueError, match="coincident"):
        energy(Configuration(X, interval01), ZERO, 2.0)


def test_energy_permutation_invariance(sphere, rng):
    X = sphere.retract(rng.normal(size=(20, 3)))
    base = energy(Configuration(X, sphere), catalog("a"), 2.0)
    for _ in range(5):
        perm = rng.permutation(20)
        shuffled = energy(Configuration(X[perm], sphere), catalog("a"), 2.0)
        assert shuffled == pytest.approx(base, rel=1e-12)


def test_gradient_hand_value(interval02):
    # d/dx1 of 2|x1-x2|^(-2) at x1=0, x2=1 is +4
    X = np.array([[0.0], [1.0]])
    G = energy_gradient(Configuration(X, interval02), ZERO, 2.0)
    assert G[0, 0] == pytest.approx(4.0, rel=1e-13)
    assert G[1, 0] == pytest.approx(-4.0, rel=1e-13)


def test_gradient_matches_finite_differences(sphere, rng):
    fld = catalog("a")
    X = sphere.retract(rng.normal(size=(8, 3)))
    cfg = Configuration(X, sphere)
    G = energy_gradient(cfg, fld, 2.0)
    h = 1e-7
    for _ in range(20):
        V = sphere.tangent_project(X, rng.normal(size=X.shape))
        plus = energy(Configuration(sphere.retract(X + h * V), sphere), fld, 2.0)
        minus = energy(Configuration(sphere.retract(X - h * V), sphere), fld, 2.0)
        fd = (plus - minus) / (2 * h)
        exact = float((G * V).sum())
        assert fd == pytest.approx(exact, rel=1e-5, abs=1e-8)


def test_gradient_is_tangent(sphere, rng):
    X = sphere.retract(rng.normal(size=(12, 3)))
    G = energy_gradient(Configuration(X, sphere), catalog("a"), 2.0)
    assert np.max(np.abs((G * X).sum(axis=1))) < 1e-10


# N large enough that the pair kernel walks several runs of tiles, so the
# off-diagonal tiles and their column sums run
MULTI_N = 1000


def _runs(n):
    # the runs the pair kernel splits n points into
    return -(-n // _TILE)


def _multiblock_config(kind, request, rng):
    assert _runs(MULTI_N) >= 4  # at least four runs, six off-diagonal tiles
    cset = request.getfixturevalue(kind)
    lo, hi = np.array(cset.param_bounds).T
    return Configuration(cset.chart(rng.uniform(lo, hi, size=(MULTI_N, len(lo)))), cset)


def _dense_pair_gradient(X, s):
    # the N x N x p reference formula: d/dx_i sum_{j != k} |x_j - x_k|^-s
    diff = X[:, None, :] - X[None, :, :]
    r2 = (diff**2).sum(axis=2)
    np.fill_diagonal(r2, np.inf)
    return -2.0 * s * ((r2 ** (-(s + 2.0) / 2.0))[:, :, None] * diff).sum(axis=1)


# s = 2 and 4 reach numpy's copy and square of 1/r^2, s = 3 and 8 libm
# pow; the s = 4 cases, the exponent of the large benchmark, are named by
# the set alone
MULTIBLOCK_CASES = [
    pytest.param(kind, s, id=kind if s == 4.0 else f"{kind}-s{s:g}")
    for kind in ("interval02", "sphere", "torus24")
    for s in (2.0, 3.0, 4.0, 8.0)
]


@pytest.mark.parametrize("kind, s", MULTIBLOCK_CASES)
def test_energy_multiblock_matches_pdist(kind, s, request, rng):
    cfg = _multiblock_config(kind, request, rng)
    ref = 2.0 * float((pdist(cfg.points) ** -s).sum())
    assert energy(cfg, ZERO, s) == pytest.approx(ref, rel=1e-12)


def _gradient_error(cfg, s):
    # worst per-point relative error of energy_gradient against the dense reference
    X, cset = cfg.points, cfg.cset
    ref = cset.tangent_project(X, _dense_pair_gradient(X, s))
    G = energy_gradient(cfg, ZERO, s)
    return float((np.linalg.norm(G - ref, axis=1) / np.linalg.norm(ref, axis=1)).max())


# on a line, x_i sum_j c_ij - sum_j c_ij x_j cancels to 1e-9 relative on
# these points, so the kernel sums c_ij (x_i - x_j) from the per-pair
# differences there; seed 12345 read 1.55e-9 at s = 4 with the cancelling form
@pytest.mark.parametrize(
    "kind, s, seed",
    [pytest.param(*case.values, 1234, id=case.id) for case in MULTIBLOCK_CASES]
    + [pytest.param("interval02", 4.0, 12345, id="interval02-seed12345")],
)
def test_gradient_multiblock_matches_dense(kind, s, seed, request):
    cfg = _multiblock_config(kind, request, np.random.default_rng(seed))
    assert _gradient_error(cfg, s) < 1e-9


def _counted_cdist(monkeypatch):
    # rows recomputed from coordinate differences by the Gram fallback
    rows, cdist = [], optimizer.cdist

    def counted_cdist(XA, XB, *args, **kwargs):
        rows.append(len(XA))
        return cdist(XA, XB, *args, **kwargs)

    monkeypatch.setattr(optimizer, "cdist", counted_cdist)
    return rows


# n = 1141 splits into six runs of 190 and 191 points, so the tiles are
# not all square; its gradient is checked against the dense formula
@pytest.mark.parametrize(
    "n, shift",
    [pytest.param(2000, shift, id=f"{shift}") for shift in (0.0, 1e3)]
    + [pytest.param(1141, shift, id=f"n1141-{shift}") for shift in (0.0, 1e3)],
)
def test_multiblock_gram_path_needs_no_fallback(n, shift, monkeypatch):
    # Fibonacci points on the unit sphere, spacing ~0.08 at n = 2000: no
    # off-diagonal entry is under the cut once the coordinates are
    # centred, however far the set sits from the origin
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = np.pi * (1.0 + 5.0**0.5) * k
    rho = np.sqrt(1.0 - z * z)
    X = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z]) + shift
    assert _runs(n) > 1  # off-diagonal tiles
    rows = _counted_cdist(monkeypatch)
    # one pdist call per diagonal tile, that is per run
    runs, pdist_ = [], optimizer.pdist
    monkeypatch.setattr(optimizer, "pdist", lambda XA, *a: runs.append(len(XA)) or pdist_(XA, *a))
    pair, _, G, _ = optimizer._pair_kernel(X, 4.0)
    assert rows == []
    assert len(runs) == _runs(n) and max(runs) - min(runs) <= 1  # split evenly
    assert pair == pytest.approx(2.0 * float((pdist(X) ** -4.0).sum()), rel=1e-12)
    if n == 1141:
        assert sorted(runs) == [190] * 5 + [191]
        ref = _dense_pair_gradient(X, 4.0)
        assert float((np.linalg.norm(G - ref, axis=1) / np.linalg.norm(ref, axis=1)).max()) < 1e-9


# N = 200 is one tile, N = 1141 six runs of 190 and 191 points
@pytest.mark.parametrize("kind", ["sphere", "interval02"])
@pytest.mark.parametrize("n", [200, 1141])
@pytest.mark.parametrize("s", [2.0, 4.0])
def test_stiffness_matches_dense(kind, n, s, request, rng):
    cset = request.getfixturevalue(kind)
    lo, hi = np.array(cset.param_bounds).T
    X = cset.chart(rng.uniform(lo, hi, size=(n, len(lo))))
    assert (_runs(n) > 1) == (n == 1141)
    P = optimizer._pair_kernel(X, s)[3]
    r2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(r2, np.inf)
    ref = 2.0 * s * (s + 1.0) * (r2 ** (-(s + 2.0) / 2.0)).sum(axis=1)
    # squared distances from coordinate differences are exact to rounding;
    # the Gram product's (sphere rows of off-diagonal tiles with no pair
    # under the cut) carry about 1e-11 relative, and P their power -(s+2)/2
    gram = kind == "sphere" and n == 1141
    assert float(np.max(np.abs(P - ref) / ref)) < (5e-11 if gram else 1e-12)


# the largest one-tile pass, the smallest two-tile pass, and three runs
# of exactly _TILE points
@pytest.mark.parametrize("kind", ["sphere", "torus24", "interval02"])
@pytest.mark.parametrize("n", [_TILE, _TILE + 1, 3 * _TILE])
@pytest.mark.parametrize("s", [2.0, 4.0])
def test_tile_boundaries_match_dense(kind, n, s, request, rng):
    cset = request.getfixturevalue(kind)
    lo, hi = np.array(cset.param_bounds).T
    X = cset.chart(rng.uniform(lo, hi, size=(n, len(lo))))
    pair, _, G, P = optimizer._pair_kernel(X, s)
    assert pair == pytest.approx(2.0 * float((pdist(X) ** -s).sum()), rel=1e-12)
    ref = _dense_pair_gradient(X, s)
    assert float((np.linalg.norm(G - ref, axis=1) / np.linalg.norm(ref, axis=1)).max()) < 1e-9
    r2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(r2, np.inf)
    ref = 2.0 * s * (s + 1.0) * (r2 ** (-(s + 2.0) / 2.0)).sum(axis=1)
    # one tile, or a line, is exact to rounding; off-diagonal Gram tiles are not
    gram = n > _TILE and kind != "interval02"
    assert float(np.max(np.abs(P - ref) / ref)) < (5e-11 if gram else 1e-12)


@pytest.mark.parametrize("kind", ["sphere", "torus24"])
def test_multiblock_gram_fallback(kind, request, rng, monkeypatch):
    # a pair 1e-5 * diameter apart in an off-diagonal block: its Gram
    # entry would be off by ~1e-6 relative, so its row is recomputed
    cfg = _multiblock_config(kind, request, rng)
    X = cfg.points.copy()
    X[-1] = X[0]
    X[-1, 0] += 1e-5 * cfg.cset.diameter
    cfg = Configuration(X, cfg.cset)
    rows = _counted_cdist(monkeypatch)
    ref = 2.0 * float((pdist(X) ** -4.0).sum())
    assert energy(cfg, ZERO, 4.0) == pytest.approx(ref, rel=1e-12)
    assert rows
    assert _gradient_error(cfg, 4.0) < 1e-9


@pytest.mark.parametrize("kind, s", MULTIBLOCK_CASES)
def test_multiblock_coincidence_and_guard(kind, s, request, rng):
    # the closest pair is the first and last point: an off-diagonal block
    cfg = _multiblock_config(kind, request, rng)
    X = cfg.points.copy()
    X[-1] = X[0]
    with pytest.raises(ValueError, match="coincident"):
        energy(Configuration(X, cfg.cset), ZERO, s)
    X[-1, 0] += 1e-13 * cfg.cset.diameter
    assert energy(Configuration(X, cfg.cset), ZERO, s) == np.inf


@pytest.mark.parametrize("kind, s", MULTIBLOCK_CASES)
def test_multiblock_kernels_do_not_warn(kind, s, request, rng):
    cfg = _multiblock_config(kind, request, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(energy(cfg, ZERO, s))
        assert np.all(np.isfinite(energy_gradient(cfg, ZERO, s)))


@pytest.mark.parametrize("kernel", [energy, energy_gradient])
def test_pair_kernel_memory_is_bounded(kernel, sphere):
    # the dense kernels peaked at 72 MB (energy) and 360 MB (gradient) on this input
    X = sphere.retract(np.random.default_rng(7).normal(size=(3000, 3)))
    cfg = Configuration(X, sphere)
    tracemalloc.start()
    try:
        kernel(cfg, catalog("d"), 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_minimize_two_points(interval01):
    res = minimize(interval01, ZERO, 2.0, 2, OptimizerSettings(restarts=1, max_iters=500))
    # both points pinned at the endpoints is the minimizer: the descent
    # gradient drops their outward components, so its norm is 0
    assert res.termination == "grad_tol"
    assert res.grad_norm == 0.0
    assert np.allclose(np.sort(res.config.points[:, 0]), [0.0, 1.0], atol=1e-12)


def test_minimize_three_points(interval01):
    res = minimize(interval01, ZERO, 2.0, 3, OptimizerSettings(restarts=2, max_iters=2000))
    got = np.sort(res.config.points[:, 0])
    assert np.allclose(got, [0.0, 0.5, 1.0], atol=1e-6)


def test_trace_monotone_and_shape(interval02, measure_e):
    res = minimize(
        interval02, catalog("e"), 4.0, 25,
        OptimizerSettings(restarts=1, max_iters=300), measure=measure_e,
    )
    trace = res.trace
    assert trace.shape[1] == 4
    assert np.all(np.diff(trace[:, 1]) <= 0)  # accepted steps only
    assert trace[0, 0] == 0
    # rows are logged at the top of each iteration, so the final energy
    # can only improve on the last logged one
    assert res.energy <= trace[-1, 1] * (1 + 1e-12)


def test_refused_quasi_newton_trial_falls_back_to_pgd(sphere, monkeypatch):
    # a quasi-Newton direction made to overshoot: its unit trial is
    # refused, and the same iteration goes on with P-GD and accepts
    two_loop, objective = optimizer._two_loop, optimizer._objective
    events = []

    def overshooting(G, P, memory):
        events.append(("quasi-newton", len(memory)))
        return 50.0 * two_loop(G, P, memory)

    def recorded(X, *args, **kwargs):
        out = objective(X, *args, **kwargs)
        events.append(("trial", out[0]))
        return out

    monkeypatch.setattr(optimizer, "_two_loop", overshooting)
    monkeypatch.setattr(optimizer, "_objective", recorded)
    res = minimize(sphere, catalog("a"), 2.0, 40, OptimizerSettings(restarts=1, max_iters=30))
    energies = list(res.trace[:, 1]) + [res.energy]
    assert len(res.trace) == 30 and np.all(np.diff(energies) < 0)
    # walk the passes: the sample's, then each iteration's trials, the
    # last of them accepted with the next row's energy
    assert events[0][0] == "trial"
    it, fallbacks = 0, 0
    for k, (kind, value) in enumerate(events[1:-1], start=1):
        if kind == "quasi-newton":
            # the pairs were dropped by the last P-GD direction, and one
            # was added by its first-trial accept
            assert value == 1
            refused = events[k + 1]
            assert refused[0] == "trial" and refused[1] > energies[it]
            # the next pass is the P-GD trial of the same iteration
            assert events[k + 2][0] == "trial"
            fallbacks += 1
        elif value == energies[it + 1]:
            it += 1
    assert it == 30 and fallbacks >= 5


def test_transport_projects_pairs_to_tangent_space(sphere, rng):
    # pairs taken at other points are projected to the tangent space at
    # X; those of non-positive curvature there are dropped, the newest 8
    # of the rest kept
    X = sphere.retract(rng.normal(size=(10, 3)))
    pairs = [(rng.normal(size=(10, 3)), rng.normal(size=(10, 3))) for _ in range(20)]

    def project(V):
        return V - np.sum(V * X, axis=1, keepdims=True) * X

    expected = [
        (project(dx), project(dg)) for dx, dg in pairs if np.vdot(project(dx), project(dg)) > 0.0
    ]
    assert 8 < len(expected) < 20  # the seed gives both kinds of pair
    moved = optimizer._transport(sphere, X, pairs)
    assert len(moved) == 8
    for (dx, dg, dxdg), (ex, eg) in zip(moved, expected[-8:]):
        np.testing.assert_allclose(dx, ex, atol=1e-14)
        np.testing.assert_allclose(dg, eg, atol=1e-14)
        assert dxdg == float(np.vdot(dx, dg)) > 0.0
        assert np.abs(np.sum(dx * X, axis=1)).max() < 1e-14


@pytest.mark.parametrize("k", [1, 9])
def test_transport_is_one_stacked_projection(k, sphere, rng, monkeypatch):
    # the whole memory goes through one projection call at the n points
    # X, stacked to (2k, n, p), and comes out as pair-by-pair projection
    X = sphere.retract(rng.normal(size=(10, 3)))
    steps = [rng.normal(size=(10, 3)) for _ in range(k)]
    pairs = [(dx, dx + 0.5 * rng.normal(size=(10, 3))) for dx in steps]  # dx.dG > 0
    calls = []

    def recorded(pts, vecs):
        calls.append((pts.shape, vecs.shape))
        return sphere.tangent_project(pts, vecs)

    cset = make_sphere()
    monkeypatch.setattr(cset, "tangent_project", recorded)
    moved = optimizer._transport(cset, X, pairs)
    assert calls == [(X.shape, (2 * k, *X.shape))]
    expected = [(sphere.tangent_project(X, dx), sphere.tangent_project(X, dg)) for dx, dg in pairs]
    expected = [(dx, dg) for dx, dg in expected if np.vdot(dx, dg) > 0.0][-8:]
    assert len(moved) == len(expected) == min(k, 8)
    for (dx, dg, _), (ex, eg) in zip(moved, expected):
        assert dx.tobytes() == ex.tobytes() and dg.tobytes() == eg.tobytes()


def test_precision_floor_termination(interval02, measure_e):
    # e's defaults: |E| = 1.1e12, so one ulp of E hides the decrease of a
    # step at gtol, and the descent stops at the floor, not in a line
    # search that runs out
    res = minimize(
        interval02, catalog("e"), 4.0, 200,
        OptimizerSettings(restarts=1, max_iters=5000, init="stratified"), measure=measure_e,
    )
    assert res.termination == "precision_floor"
    assert len(res.trace) < 5000
    assert res.restarts == [
        {"energy": res.energy, "termination": "precision_floor",
         "iterations": len(res.trace), "trials": res.trials}
    ]


def test_restarts_record_each_descent(sphere, measure_a):
    res = minimize(
        sphere, catalog("a"), 2.0, 30,
        OptimizerSettings(restarts=3, max_iters=40, rng_seed=2), measure=measure_a,
    )
    assert len(res.restarts) == 3
    assert [set(r) for r in res.restarts] == [{"energy", "termination", "iterations", "trials"}] * 3
    best = min(res.restarts, key=lambda r: r["energy"])
    assert best == {"energy": res.energy, "termination": res.termination,
                    "iterations": len(res.trace), "trials": res.trials}
    for record in res.restarts:
        assert record["iterations"] <= 40 and record["trials"] >= record["iterations"] - 1
    assert len({r["energy"] for r in res.restarts}) == 3
    # the first restart is the whole of a one-restart run
    one = minimize(
        sphere, catalog("a"), 2.0, 30,
        OptimizerSettings(restarts=1, max_iters=40, rng_seed=2), measure=measure_a,
    )
    assert one.restarts == res.restarts[:1]


def test_minimize_deterministic(sphere, measure_a):
    kw = dict(settings=OptimizerSettings(restarts=1, max_iters=50, rng_seed=3), measure=measure_a)
    a = minimize(sphere, catalog("a"), 2.0, 30, **kw)
    b = minimize(sphere, catalog("a"), 2.0, 30, **kw)
    assert np.array_equal(a.config.points, b.config.points)
    assert a.energy == b.energy


def test_init_modes(interval02, measure_e):
    for init in ("weighted", "stratified"):
        res = minimize(
            interval02, catalog("e"), 4.0, 20,
            OptimizerSettings(restarts=1, max_iters=20, init=init), measure=measure_e,
        )
        assert isinstance(res, MinimizeResult)
        X = res.config.points
        assert np.linalg.norm(X - interval02.retract(X), axis=1).max() < 1e-12


def test_stratified_init_needs_measure(interval02):
    with pytest.raises(ValueError, match="measure"):
        minimize(interval02, ZERO, 4.0, 10, OptimizerSettings(init="stratified", restarts=1))


class _Tilted:
    """A stand-in equilibrium measure whose density rises along the first
    ambient axis and vanishes where it is at most ``floor``: chart rows
    and columns get unequal masses, and with a finite floor some get
    none."""

    def __init__(self, cset, floor=-np.inf):
        self.scale, self.floor = cset.diameter, floor

    def density(self, X):
        x = np.atleast_2d(X)[:, 0] / self.scale
        return np.where(x > self.floor, 1.0 + x, 0.0)


def _circle(R=1.5):
    # a curve in R^2 from a user chart
    def retract(pts):
        pts = np.atleast_2d(pts)
        return R * pts / np.linalg.norm(pts, axis=1, keepdims=True)

    return make_param_set(
        lambda p: R * np.stack([np.cos(p[:, 0]), np.sin(p[:, 0])], axis=1),
        lambda p: np.full(len(p), R), [(0.0, 2 * math.pi)], retract, ambient_dim=2, n_quad=[128],
    )


def _user_sphere(sphere):
    # a surface from a user chart: the sphere's own, without its periodic axis
    return make_param_set(
        sphere.chart, sphere.chart_jacobian, sphere.param_bounds, sphere.retract, ambient_dim=3
    )


_CHARTS = ["sphere", "torus", "param-surface", "param-curve"]


@pytest.mark.parametrize(
    "kind, init",
    [pytest.param(kind, "stratified", id=kind) for kind in _CHARTS]
    + [pytest.param(kind, "weighted", id=f"{kind}-weighted") for kind in _CHARTS],
)
def test_stratified_start_on_every_chart(kind, init, sphere, torus24, measure_a):
    # the lattice start pushed to the equilibrium measure (stratified) or
    # to the set's own measure (weighted), which needs no measure
    cset, measure = {
        "sphere": lambda: (sphere, measure_a),
        "torus": lambda: (torus24, _Tilted(torus24, floor=-0.3)),
        "param-surface": lambda: (_user_sphere(sphere), _Tilted(sphere)),
        "param-curve": lambda: (_circle(), _Tilted(_circle(), floor=-0.2)),
    }[kind]()
    N = 300
    if init == "weighted":
        measure = None

    def start(seed, r):
        return _sample_initial(cset, N, np.random.default_rng([seed, r]), init, measure, r > 0)

    X = start(0, 0)
    assert X.shape == (N, cset.ambient_dim)
    # on the set, pairwise distinct
    assert np.abs(X - cset.retract(X)).max() < 1e-12 * cset.diameter
    assert pdist(X).min() > 1e-6 * cset.diameter
    # the counting measure of the start is close to the measure
    mass = cset.weights if measure is None else cset.weights * measure.density(cset.nodes)
    for k in range(cset.ambient_dim):
        expected = float(mass @ cset.nodes[:, k] / mass.sum())
        assert abs(X[:, k].mean() - expected) < 2e-3 * cset.diameter, k
    # the chart parameters stay in their box, and the cells of a periodic
    # axis straddle its seam: at most one point sits on the seam
    params = []
    recorded = dataclasses.replace(cset, chart=lambda u: params.append(u) or cset.chart(u))
    _sample_initial(recorded, N, None, init, measure, False)
    (u,) = params
    for axis, ((lo, hi), wrap) in enumerate(zip(cset.param_bounds, cset.periodic)):
        assert lo <= u[:, axis].min() and u[:, axis].max() <= hi, axis
        if wrap:
            assert np.count_nonzero((u[:, axis] == lo) | (u[:, axis] == hi)) <= 1, axis
    # restart 0 is unshifted: the same points for every seed
    assert np.array_equal(start(0, 0), X) and np.array_equal(start(5, 0), X)
    # later restarts are shifted by their own seed's offset
    shifted = start(0, 1)
    assert np.abs(shifted - cset.retract(shifted)).max() < 1e-12 * cset.diameter
    assert pdist(shifted).min() > 1e-6 * cset.diameter
    assert np.array_equal(start(0, 1), shifted)
    assert not np.array_equal(shifted, X)
    assert not np.array_equal(start(1, 1), shifted)
    assert not np.array_equal(start(0, 2), shifted)


def test_stratified_start_on_the_line_is_the_quantile_map(interval02, measure_e):
    # e's start: the quantile map at (k + 1/2)/N of the node masses, each
    # spread over its cell from the midpoint with its lower neighbour to
    # the midpoint with its upper one (the end cells stop at 0 and 2), by
    # the one-dimensional formula, to the bit
    nodes = interval02.nodes
    order = np.argsort(nodes[:, 0])
    x = nodes[order, 0]
    p = (interval02.weights * measure_e.density(nodes))[order]
    edges = np.concatenate([[0.0], 0.5 * (x[:-1] + x[1:]), [2.0]])
    cdf = np.concatenate([[0.0], np.cumsum(p)])
    cdf = cdf / cdf[-1]
    expected = np.interp((np.arange(200) + 0.5) / 200, cdf, edges)[:, None]
    X = _sample_initial(interval02, 200, None, "stratified", measure_e, False)
    assert X.tobytes() == expected.tobytes()


@pytest.mark.parametrize("init", ["weighted", "stratified"])
def test_seed_moves_only_shifted_restarts(init, interval02, measure_e):
    def run(seed, restarts):
        settings = OptimizerSettings(restarts=restarts, max_iters=10, rng_seed=seed, init=init)
        return minimize(interval02, catalog("e"), 4.0, 30, settings, measure=measure_e).restarts

    # restart 0 is the same for every seed, restarts >= 1 move with it
    assert run(0, 1) == run(7, 1)
    two = run(0, 2)
    assert two[:1] == run(0, 1)
    assert run(7, 2)[1] != two[1]


def test_configuration_needs_ambient_columns(interval02, sphere):
    # ten coordinates of one point in R^10, not ten points on the line
    with pytest.raises(ValueError, match=r"shape \(n, 1\) on this set, got \(1, 10\)"):
        Configuration(np.linspace(0.1, 1.9, 10), interval02)
    with pytest.raises(ValueError, match=r"shape \(n, 3\) on this set, got \(5, 2\)"):
        Configuration(np.zeros((5, 2)), sphere)
    assert Configuration([0.5], interval02).points.shape == (1, 1)


def test_minimize_needs_two_points(interval01):
    with pytest.raises(ValueError):
        minimize(interval01, ZERO, 2.0, 1)


def test_settings_validation():
    with pytest.raises(ValueError):
        OptimizerSettings(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerSettings(init="sobol")
    # counts must be whole numbers; the error names the key
    for key, value in (("max_iters", 10.5), ("restarts", 1.5), ("rng_seed", 0.25),
                       ("max_iters", "10"), ("restarts", True)):
        with pytest.raises(ValueError, match=f"{key} must be a whole number"):
            OptimizerSettings(**{key: value})
    # numpy's default_rng refuses a negative seed, but only once a restart starts
    with pytest.raises(ValueError, match="rng_seed must be non-negative, got -3"):
        OptimizerSettings(rng_seed=-3)


def test_settings_accept_whole_floats():
    settings = OptimizerSettings(max_iters=10.0, restarts=np.int64(2), rng_seed=3.0)
    assert (settings.max_iters, settings.restarts, settings.rng_seed) == (10, 2, 3)
    assert all(type(v) is int for v in (settings.max_iters, settings.restarts, settings.rng_seed))


def test_minimize_failure_on_infinite_field(interval01, monkeypatch):
    bad = ExternalField(lambda X: np.full(len(np.atleast_2d(X)), np.inf))
    # a sample of infinite energy gets no field gradient, whose central
    # differences would be inf - inf
    calls = []
    monkeypatch.setattr(optimizer, "field_gradient", lambda *a: calls.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OptimizerFailure):
            minimize(interval01, bad, 2.0, 4, OptimizerSettings(restarts=2, max_iters=10))
    assert calls == []


def test_more_points_do_not_lower_energy(interval01):
    # with q >= 0 the minimal energy grows with N
    values = []
    for n in (4, 8, 16):
        res = minimize(interval01, ZERO, 2.0, n, OptimizerSettings(restarts=1, max_iters=400))
        values.append(res.energy)
    assert values[0] < values[1] < values[2]


def test_csv_writers(tmp_path, interval01):
    # the run's points and trace as the CLI exports them
    res = minimize(interval01, ZERO, 2.0, 5, OptimizerSettings(restarts=1, max_iters=50))
    measure = solve_equilibrium(interval01, ZERO, 2.0)
    table = diagnostics.empirical_density(res.config)
    table["equilibrium_density"] = diagnostics.density_table_average(measure, table)
    cli._write_run(tmp_path, res, measure, {}, table)
    pp = tmp_path / "points.csv"
    tp = tmp_path / "trace.csv"
    with open(pp, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1"]
    back = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.array_equal(back, res.config.points)  # %.17g round trips exactly
    with open(tp, newline="") as fh:
        trows = list(csv.reader(fh))
    assert trows[0] == ["iter", "energy", "grad_norm", "step"]
    assert len(trows) == len(res.trace) + 1


def _reference_minimize(cset, fld, s, N, settings):
    # the descent before each trial returned its gradient and stiffness:
    # per iteration one energy_gradient and one stiffness pass, one energy
    # per trial, with the same samples, directions, Armijo rule, step
    # rule, quasi-Newton memory and fallback, and stops as minimize
    d = cset.hausdorff_dim
    gtol = settings.grad_tol * float(N) ** (1.0 + s / d) * cset.diameter ** (-s - 1.0)
    floor = 64.0 * np.finfo(float).eps

    def trial_energy(X):
        try:
            return energy(Configuration(X, cset), fld, s)
        except ValueError:
            return np.inf

    def gradient_and_stiffness(X):
        G = energy_gradient(Configuration(X, cset), fld, s)
        G[cset.retract(X - G) == X] = 0.0  # components the retraction holds
        return G, optimizer._pair_kernel(X, s)[3]

    def transported(X, pairs):
        # each pair projected to the tangent space at X, kept while its
        # curvature is positive, the newest eight
        kept = []
        for dx, dg in pairs:
            dx, dg = cset.tangent_project(X, dx), cset.tangent_project(X, dg)
            if float(np.vdot(dx, dg)) > 0.0:
                kept.append((dx, dg))
        return kept[-8:]

    def quasi_newton_direction(G, P, pairs):
        q, alphas = G.copy(), []
        for dx, dg in pairs[::-1]:
            alphas.insert(0, float(np.vdot(dx, q)) / float(np.vdot(dx, dg)))
            q -= alphas[0] * dg
        dx, dg = pairs[-1]
        r = (float(np.vdot(dx, dg)) / float(np.vdot(dg, dg * (1.0 / P[:, None])))) * (q * (1.0 / P[:, None]))
        for (dx, dg), alpha in zip(pairs, alphas):
            r += (alpha - float(np.vdot(dg, r)) / float(np.vdot(dx, dg))) * dx
        return -r

    def armijo(E, E1, decrease):
        return np.isfinite(E1) and E - E1 >= 1e-4 * decrease

    best = None
    for r in range(settings.restarts):
        rng = np.random.default_rng([settings.rng_seed, r])
        for attempt in range(100):
            X = _sample_initial(cset, N, rng, settings.init, None, shift=r > 0 or attempt > 0)
            if np.isfinite(trial_energy(X)):
                break
        else:
            continue
        E = trial_energy(X)
        # previous: the last accepted step's start, when that step was
        # quasi-Newton or a P-GD step accepted at its first trial
        step, pairs, previous = 1.0, [], None
        rows, termination, trials = [], "max_iters", 0
        for it in range(settings.max_iters):
            G, P = gradient_and_stiffness(X)
            if previous is not None:
                pairs = transported(X, pairs + [(X - previous[0], G - previous[1])])
            gn = float(np.linalg.norm(G))
            rows.append((it, E, gn, 1.0 if pairs else step))
            if gn < gtol:
                termination = "grad_tol"
                break
            X1, previous = None, (X, G)
            if pairs:
                D = cset.tangent_project(X, quasi_newton_direction(G, P, pairs))
                if float(np.vdot(G, D)) < 0.0:
                    trial = cset.retract(X + D)
                    decrease = float(np.vdot(G, X - trial))
                    if decrease > 0.0:
                        trials += 1
                        E1 = trial_energy(trial)
                        if armijo(E, E1, decrease):
                            X1 = trial
            if X1 is None:
                pairs = []
                for k in range(60):
                    trial = cset.retract(X - step * (G / P[:, None]))
                    decrease = float(np.vdot(G, X - trial))
                    if decrease <= 0.0:
                        termination = "step_absorbed"
                        break
                    trials += 1
                    E1 = trial_energy(trial)
                    if armijo(E, E1, decrease):
                        X1 = trial
                        break
                    if decrease <= floor * abs(E):
                        termination = "precision_floor"
                        break
                    step *= 0.5
                else:
                    termination = "line_search_exhausted"
                if X1 is None:
                    break
                if k == 0:
                    step *= 2.0
                else:
                    previous = None
            X, E = X1, E1
        if np.isfinite(E) and (best is None or E < best[1]):
            best = (X, E, np.asarray(rows, dtype=float), termination, trials)
    return best


def _pinned_count(points, cset):
    lo, hi = cset.param_bounds[0]
    return int(np.sum((points[:, 0] == lo) | (points[:, 0] == hi)))


@pytest.mark.parametrize(
    "kind, field, s, N, settings, pinned",
    [
        # N = 700: four runs of 175 points, so the pair kernel walks ten
        # tiles, on a line from per-pair differences
        ("interval02", "e", 4.0, 700, OptimizerSettings(restarts=1, max_iters=25), False),
        ("interval01", None, 2.0, 12, OptimizerSettings(restarts=2, max_iters=300), True),
        ("sphere", "a", 2.0, 60, OptimizerSettings(restarts=2, max_iters=40, rng_seed=5), False),
        ("torus24", "c", 8.0, 50, OptimizerSettings(restarts=1, max_iters=40), False),
        # meets grad_tol in 23 iterations: on the sphere the retraction
        # never absorbs a tangent step, so this is the grad_tol stop
        ("sphere", None, 2.0, 4, OptimizerSettings(restarts=1, max_iters=200), False),
    ],
)
def test_minimize_matches_reference_descent(kind, field, s, N, settings, pinned, request):
    cset = request.getfixturevalue(kind)
    fld = ZERO if field is None else catalog(field)
    res = minimize(cset, fld, s, N, settings)
    points, E, trace, termination, trials = _reference_minimize(cset, fld, s, N, settings)
    if pinned:  # the run exercises points held at an interval endpoint
        assert _pinned_count(points, cset) >= 2
    assert res.config.points.tobytes() == points.tobytes()
    assert res.trace.tobytes() == trace.tobytes()
    assert res.energy == E
    assert (res.termination, res.trials) == (termination, trials)
    if termination == "max_iters":
        assert len(res.trace) == settings.max_iters
    else:
        assert len(res.trace) < settings.max_iters
    if N == 4:
        assert termination == "grad_tol"
    # the descent gradient norm of the returned points, not of the last
    # logged row: the tangent gradient less outward endpoint components
    G = optimizer._descent_gradient(cset, res.config.points, energy_gradient(res.config, fld, s))
    assert res.grad_norm == np.linalg.norm(G)


def test_clumped_start_with_near_coincident_pair_descends(interval02):
    # 700 points i.i.d. uniform on [0, 2]: a pair 2.4e-7 apart gives
    # E = 5.8e26; its stiffness scales the step down, so the descent
    # from there goes on and falls by more than six orders
    cset, fld, s, N = interval02, catalog("e"), 4.0, 700
    X = np.random.default_rng(0).uniform(0.0, 2.0, (N, 1))
    E, r2min, G, P = optimizer._objective(X, cset, fld, s)
    assert r2min < 1e-12 and 1e25 < E < np.inf
    gtol = OptimizerSettings.grad_tol * float(N) ** (1.0 + s) * cset.diameter ** (-s - 1.0)
    X, _, trace, _, _ = optimizer._descend(cset, fld, s, X, E, G, P, 25, gtol)
    assert trace[0, 1] == E and len(trace) > 1
    assert energy(Configuration(X, cset), fld, s) < 1e-6 * E


def test_one_pair_pass_per_trial(monkeypatch):
    # each trial's pass gives its energy and gradient and an accepted
    # trial's gradient starts the next iteration; the restart adds the
    # sample's pass and the final energy call
    kernel, descent_gradient = optimizer._pair_kernel, optimizer._descent_gradient
    passes = {"pair": 0, "descent_gradient": 0}

    def counted_kernel(X, s):
        passes["pair"] += 1
        return kernel(X, s)

    def counted_descent_gradient(*args):
        # one retraction of its own, not a trial
        passes["descent_gradient"] += 1
        return descent_gradient(*args)

    cset = make_sphere()
    retract = cset.retract
    retractions = []

    def counted_retract(X):
        retractions.append(len(X))
        return retract(X)

    monkeypatch.setattr(optimizer, "_pair_kernel", counted_kernel)
    monkeypatch.setattr(optimizer, "_descent_gradient", counted_descent_gradient)
    monkeypatch.setattr(cset, "retract", counted_retract)
    res = minimize(cset, catalog("a"), 2.0, 40, OptimizerSettings(restarts=1, max_iters=30))
    assert len(res.trace) == 30
    trials = len(retractions) - passes["descent_gradient"]
    assert trials >= len(res.trace)
    assert passes["pair"] == trials + 2
    assert res.trials == trials  # no trial was absorbed by the retraction


def test_refused_trials_take_no_tangent_gradient(interval02, monkeypatch):
    # only the kept points get the field gradient and tangent projection:
    # the sample and each accepted trial, not a refused trial
    calls = []
    gradient = optimizer.field_gradient

    def counted(*args):
        calls.append(1)
        return gradient(*args)

    monkeypatch.setattr(optimizer, "field_gradient", counted)
    res = minimize(interval02, catalog("e"), 4.0, 60, OptimizerSettings(restarts=1, max_iters=200))
    # every iteration but a stopping one ends on an accepted trial
    accepted = len(res.trace) - (res.termination != "max_iters")
    assert res.trials > accepted  # the run refuses some trials
    assert len(calls) == 1 + accepted


def test_energy_gradient_does_not_evaluate_the_field(sphere, rng):
    base = catalog("a")
    calls = []

    def evaluate(X):
        calls.append(1)
        return base.evaluate(X)

    counting = ExternalField(evaluate, base.gradient, label="counting")
    cfg = Configuration(sphere.retract(rng.normal(size=(50, 3))), sphere)
    G = energy_gradient(cfg, counting, 2.0)
    assert calls == []
    assert np.array_equal(G, energy_gradient(cfg, base, 2.0))
