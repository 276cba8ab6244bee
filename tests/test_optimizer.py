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


@pytest.mark.parametrize("shift", [0.0, 1e3])
def test_multiblock_gram_path_needs_no_fallback(shift, monkeypatch):
    # Fibonacci points on the unit sphere, spacing ~0.08: no off-diagonal
    # entry is under the cut once the coordinates are centred, however far
    # the set sits from the origin
    n = 2000
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = np.pi * (1.0 + 5.0**0.5) * k
    rho = np.sqrt(1.0 - z * z)
    X = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z]) + shift
    assert n > _BLOCK_ENTRIES // n  # several row blocks
    rows = _counted_cdist(monkeypatch)
    pair = optimizer._pair_kernel(X, 4.0)[0]
    assert rows == []
    assert pair == pytest.approx(2.0 * float((pdist(X) ** -4.0).sum()), rel=1e-12)


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
    assert res.converged
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
    # the descent before each trial returned its gradient: one
    # energy_gradient per iteration and one energy per trial, with the
    # same samples, Armijo rule and step doubling as minimize
    d = cset.hausdorff_dim
    step_init = cset.diameter * float(N) ** (-1.0 - s / d)
    gtol = settings.grad_tol * float(N) ** (1.0 + s / d) * cset.diameter ** (-s - 1.0)

    def trial_energy(X):
        try:
            return energy(Configuration(X, cset), fld, s)
        except ValueError:
            return np.inf

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
        step, rows = step_init, []
        for it in range(settings.max_iters):
            G = energy_gradient(Configuration(X, cset), fld, s)
            gn = float(np.linalg.norm(G))
            rows.append((it, E, gn, step))
            if gn < gtol:
                break
            accepted = False
            for _ in range(60):
                X1 = cset.retract(X - step * G)
                dn2 = float(((X - X1) ** 2).sum())
                if dn2 == 0.0:
                    break
                E1 = trial_energy(X1)
                if np.isfinite(E1) and E - E1 >= 1e-4 * dn2 / step:
                    X, E = X1, E1
                    step = min(step * 2.0, 1e6 * step_init)
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
        if np.isfinite(E) and (best is None or E < best[1]):
            best = (cset.retract(X), E, np.asarray(rows, dtype=float))
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
    ],
)
def test_minimize_matches_reference_descent(kind, field, s, N, settings, pinned, request):
    cset = request.getfixturevalue(kind)
    fld = ZERO if field is None else catalog(field)
    res = minimize(cset, fld, s, N, settings)
    points, E, trace = _reference_minimize(cset, fld, s, N, settings)
    if pinned:  # the run exercises points held at an interval endpoint
        assert _pinned_count(points, cset) >= 2
    assert res.config.points.tobytes() == points.tobytes()
    assert res.trace.tobytes() == trace.tobytes()
    assert res.energy == E


def test_one_pair_pass_per_trial(monkeypatch):
    # each trial's pass gives its energy and gradient and an accepted
    # trial's gradient starts the next iteration; the restart adds the
    # sample's pass and the final energy call
    kernel, min_distance = optimizer._pair_kernel, optimizer._min_distance
    passes = {"pair": 0, "distance": 0}

    def counted_kernel(X, s, gradient=False):
        passes["pair"] += 1
        return kernel(X, s, gradient)

    def counted_min_distance(X):
        passes["distance"] += 1
        return min_distance(X)

    cset = make_sphere()
    retract = cset.retract
    retractions = []

    def counted_retract(X):
        retractions.append(len(X))
        return retract(X)

    monkeypatch.setattr(optimizer, "_pair_kernel", counted_kernel)
    monkeypatch.setattr(optimizer, "_min_distance", counted_min_distance)
    monkeypatch.setattr(cset, "retract", counted_retract)
    res = minimize(cset, catalog("a"), 2.0, 40, OptimizerSettings(restarts=1, max_iters=30))
    assert len(res.trace) == 30
    assert passes["distance"] == 1  # one sample, no jitter retractions
    trials = len(retractions) - 1  # the result's retraction is no trial
    assert trials >= len(res.trace)
    assert passes["pair"] == trials + 2
