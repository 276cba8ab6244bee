import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from rieszfield import optimizer
from rieszfield.fields import ExternalField, catalog
from rieszfield.geometry import make_interval, make_sphere
from rieszfield.optimizer import (
    _BLOCK_ENTRIES,
    _sample_initial,
    Configuration,
    MinimizeResult,
    OptimizerFailure,
    OptimizerSettings,
    energy,
    energy_gradient,
    minimize,
    tau,
    write_points_csv,
    write_trace_csv,
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


# N large enough that the pair kernel walks several row blocks, so the
# off-diagonal blocks and their column updates run
MULTI_N = 1000


def _multiblock_config(kind, request, rng):
    assert MULTI_N >= 4 * (_BLOCK_ENTRIES // MULTI_N)  # at least four row blocks
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


# interval02 stays at s = 4: on a line, x_i sum_j c_ij - sum_j c_ij x_j
# cancels, and other s (or seeds) reach the bound there
@pytest.mark.parametrize(
    "kind, s",
    [pytest.param("interval02", 4.0, id="interval02")]
    + [case for case in MULTIBLOCK_CASES if case.values[0] != "interval02"],
)
def test_gradient_multiblock_matches_dense(kind, s, request, rng):
    assert _gradient_error(_multiblock_config(kind, request, rng), s) < 1e-9


def _counted_cdist(monkeypatch):
    # rows recomputed from coordinate differences by the Gram fallback
    rows, cdist = [], optimizer.cdist

    def counted_cdist(XA, XB, *args, **kwargs):
        rows.append(len(XA))
        return cdist(XA, XB, *args, **kwargs)

    monkeypatch.setattr(optimizer, "cdist", counted_cdist)
    return rows


# n = 1141 = 10 * 114 + 1 leaves the last row block one point, with no
# pair inside the block; its gradient is checked against the dense formula
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
    assert n > _BLOCK_ENTRIES // n  # several row blocks
    rows = _counted_cdist(monkeypatch)
    pair, _, G, _ = optimizer._pair_kernel(X, 4.0, gradient=(n == 1141))
    assert rows == []
    assert pair == pytest.approx(2.0 * float((pdist(X) ** -4.0).sum()), rel=1e-12)
    if G is not None:
        assert n % (_BLOCK_ENTRIES // n) == 1  # the last row block holds one point
        ref = _dense_pair_gradient(X, 4.0)
        assert float((np.linalg.norm(G - ref, axis=1) / np.linalg.norm(ref, axis=1)).max()) < 1e-9


# N = 200 is one row block, N = 1141 eleven, the last of one point
@pytest.mark.parametrize("kind", ["sphere", "interval02"])
@pytest.mark.parametrize("n", [200, 1141])
@pytest.mark.parametrize("s", [2.0, 4.0])
def test_stiffness_matches_dense(kind, n, s, request, rng):
    cset = request.getfixturevalue(kind)
    lo, hi = np.array(cset.param_bounds).T
    X = cset.chart(rng.uniform(lo, hi, size=(n, len(lo))))
    assert (n > _BLOCK_ENTRIES // n) == (n == 1141)
    P = optimizer._pair_kernel(X, s, gradient=True)[3]
    r2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(r2, np.inf)
    ref = 2.0 * s * (s + 1.0) * (r2 ** (-(s + 2.0) / 2.0)).sum(axis=1)
    # squared distances from coordinate differences are exact to rounding;
    # the Gram product's (sphere rows past one block with no pair under
    # the cut) carry about 1e-11 relative, and P their power -(s+2)/2
    gram = kind == "sphere" and n == 1141
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


def test_restart_seed_changes_init(sphere, measure_a):
    a = minimize(sphere, catalog("a"), 2.0, 30, OptimizerSettings(restarts=1, max_iters=5, rng_seed=0), measure=measure_a)
    b = minimize(sphere, catalog("a"), 2.0, 30, OptimizerSettings(restarts=1, max_iters=5, rng_seed=1), measure=measure_a)
    assert not np.array_equal(a.config.points, b.config.points)


def test_init_modes(interval02, measure_e):
    for init in ("weighted", "density", "stratified"):
        res = minimize(
            interval02, catalog("e"), 4.0, 20,
            OptimizerSettings(restarts=1, max_iters=20, init=init), measure=measure_e,
        )
        assert isinstance(res, MinimizeResult)
        X = res.config.points
        assert np.linalg.norm(X - interval02.retract(X), axis=1).max() < 1e-12


def test_density_init_needs_measure(interval02):
    with pytest.raises(ValueError, match="measure"):
        minimize(interval02, ZERO, 4.0, 10, OptimizerSettings(init="density", restarts=1))


def test_minimize_needs_two_points(interval01):
    with pytest.raises(ValueError):
        minimize(interval01, ZERO, 2.0, 1)


def test_settings_validation():
    with pytest.raises(ValueError):
        OptimizerSettings(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerSettings(init="sobol")
    # an infinite tolerance converges at once, a nan one never
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="grad_tol"):
            OptimizerSettings(grad_tol=tol)
    # counts must be whole numbers; the error names the key
    for key, value in (("max_iters", 10.5), ("restarts", 1.5), ("rng_seed", 0.25),
                       ("max_iters", "10"), ("restarts", True)):
        with pytest.raises(ValueError, match=f"{key} must be a whole number"):
            OptimizerSettings(**{key: value})


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
    res = minimize(interval01, ZERO, 2.0, 5, OptimizerSettings(restarts=1, max_iters=50))
    pp = tmp_path / "points.csv"
    tp = tmp_path / "trace.csv"
    write_points_csv(res.config.points, pp)
    write_trace_csv(res.trace, tp)
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
        return G, optimizer._pair_kernel(X, s, gradient=True)[3]

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
        for _ in range(100):
            X = _sample_initial(cset, N, rng, settings.init, None)
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
        # N = 700: blocks of _BLOCK_ENTRIES // 700 = 187 rows, so the pair
        # kernel walks four row blocks
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
    if N == 700:
        # the clumped init sample has a near-coincident pair (E = 2.9e25);
        # its stiffness scales the step down, so the restart descends
        assert len(res.trace) > 1 and res.energy < 1e-6 * res.trace[0, 1]
    if N == 4:
        assert termination == "grad_tol"
    # the descent gradient norm of the returned points, not of the last
    # logged row: the tangent gradient less outward endpoint components
    G = optimizer._descent_gradient(cset, res.config.points, energy_gradient(res.config, fld, s))
    assert res.grad_norm == np.linalg.norm(G)


def test_one_pair_pass_per_trial(monkeypatch):
    # each trial's pass gives its energy and gradient and an accepted
    # trial's gradient starts the next iteration; the restart adds the
    # sample's pass and the final energy call
    kernel, min_distance = optimizer._pair_kernel, optimizer._min_distance
    descent_gradient = optimizer._descent_gradient
    passes = {"pair": 0, "distance": 0, "descent_gradient": 0}

    def counted_kernel(X, s, gradient=False):
        passes["pair"] += 1
        return kernel(X, s, gradient)

    def counted_min_distance(X):
        passes["distance"] += 1
        return min_distance(X)

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
    monkeypatch.setattr(optimizer, "_min_distance", counted_min_distance)
    monkeypatch.setattr(optimizer, "_descent_gradient", counted_descent_gradient)
    monkeypatch.setattr(cset, "retract", counted_retract)
    res = minimize(cset, catalog("a"), 2.0, 40, OptimizerSettings(restarts=1, max_iters=30))
    assert len(res.trace) == 30
    assert passes["distance"] == 1  # one sample, no jitter retractions
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
