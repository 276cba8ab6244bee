"""Energy, gradient, and projected-descent minimization of point sets.

The discrete objective is the pair sum over ordered pairs |x-y|^(-s)
plus the external-field term (tau/N) * sum q(x), with tau = N^(1+s/d)
for s > d and N^2 ln N at s = d.  Minimization is multi-start projected
gradient descent: Armijo backtracking on the energy, retraction to the
set after every trial step, convergence once the tangential gradient
norm falls under a scale-aware tolerance.  Deliberately first-order:
the landscape is nonconvex with O(N^2) terms and verifiability beats
iteration counts here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.spatial.distance import pdist

from .fields import ExternalField, field_gradient
from .geometry import CompactSet

__all__ = [
    "Configuration",
    "OptimizerSettings",
    "MinimizeResult",
    "OptimizerFailure",
    "tau",
    "energy",
    "energy_gradient",
    "minimize",
    "write_trace_csv",
    "write_points_csv",
]


class OptimizerFailure(RuntimeError):
    """All restarts failed; carries the per-restart traces."""

    def __init__(self, message, traces):
        super().__init__(message)
        self.traces = traces


def tau(s: float, d: int, N: int) -> float:
    """First-order growth of minimal energy: N^(1+s/d), or N^2 ln N at s=d."""
    if N < 1:
        raise ValueError("N must be positive")
    if s == d:
        if N == 1:
            raise ValueError("tau undefined for N=1 at s=d (log 1 = 0 kills the field term)")
        return float(N) ** 2 * math.log(N)
    return float(N) ** (1.0 + s / d)


@dataclass
class Configuration:
    """N ambient points on a set."""

    points: np.ndarray
    cset: CompactSet
    set_ref: str = ""

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if not self.set_ref:
            self.set_ref = self.cset.kind

    @property
    def n(self) -> int:
        return len(self.points)

    def retraction_residual(self) -> float:
        return float(np.linalg.norm(self.points - self.cset.retract(self.points), axis=1).max())


@dataclass
class OptimizerSettings:
    max_iters: int = 5000
    step_init: float | None = None  # None: diameter * N^(-1-s/d)
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    grad_tol: float = 1e-6
    restarts: int = 3
    rng_seed: int = 0
    init: str = "weighted"  # weighted | density | stratified

    def __post_init__(self):
        if self.max_iters <= 0 or self.restarts <= 0 or self.grad_tol <= 0:
            raise ValueError("max_iters, restarts, grad_tol must be positive")
        if self.step_init is not None and self.step_init <= 0:
            raise ValueError("step_init must be positive")
        if not 0.0 < self.armijo_c <= 0.5:
            raise ValueError("armijo_c must lie in (0, 0.5]")
        if not 0.1 < self.armijo_shrink < 0.9:
            raise ValueError("armijo_shrink must lie in (0.1, 0.9)")
        if self.init not in ("weighted", "density", "stratified"):
            raise ValueError(f"unknown init mode {self.init!r}")


def _pair_energy(X: np.ndarray, s: float, guard: float) -> float:
    if len(X) < 2:
        return 0.0
    r = pdist(X)
    m = r.min()
    if m == 0.0:
        raise ValueError("coincident points give infinite energy")
    if m < guard:
        return np.inf
    return 2.0 * float((r ** -s).sum())


def energy(config: Configuration, fld: ExternalField, s: float) -> float:
    """E^q of the configuration; +inf is a representable value (points on
    field poles or under the collision guard), exact coincidence raises."""
    X = config.points
    d = config.cset.hausdorff_dim
    n = config.n
    pair = _pair_energy(X, s, 1e-12 * config.cset.diameter)
    qv = np.asarray(fld.evaluate(X), dtype=float)
    return pair + tau(s, d, n) / n * float(qv.sum())


def energy_gradient(config: Configuration, fld: ExternalField, s: float) -> np.ndarray:
    """Tangent-projected ambient gradient of the energy, one row per point."""
    X = config.points
    cset = config.cset
    n = config.n
    diff = X[:, None, :] - X[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, np.inf)
    coef = r2 ** (-(s + 2.0) / 2.0)
    G = -2.0 * s * np.einsum("ij,ijk->ik", coef, diff)
    G += tau(s, cset.hausdorff_dim, n) / n * field_gradient(fld, X, cset)
    return cset.tangent_project(X, G)


def _sample_initial(cset: CompactSet, N: int, rng, mode: str, measure) -> np.ndarray:
    nodes, weights = cset.nodes, cset.weights
    if mode in ("density", "stratified"):
        if measure is None:
            raise ValueError(f"init mode {mode!r} needs an equilibrium measure")
        p = weights * measure.density(nodes)
        if mode == "stratified":
            if nodes.shape[1] != 1:
                raise ValueError("stratified init is one-dimensional")
            order = np.argsort(nodes[:, 0])
            xs = nodes[order, 0]
            cdf = np.cumsum(p[order])
            cdf = cdf / cdf[-1]
            targets = (np.arange(N) + 0.5) / N
            return np.interp(targets, cdf, xs)[:, None]
    else:
        p = weights.copy()
    if p.sum() <= 0:
        raise ValueError("initialization weights vanish")
    p = p / p.sum()
    idx = rng.choice(len(nodes), size=N, replace=True, p=p)
    X = nodes[idx].copy()
    # jitter duplicate draws back apart; discrete nodes can repeat when
    # N exceeds the node count
    for _ in range(100):
        r = pdist(X)
        if len(X) < 2 or r.min() > 1e-9 * cset.diameter:
            break
        scale = 2e-3 * cset.diameter
        X = cset.retract(X + rng.normal(scale=scale, size=X.shape))
    return X


@dataclass
class MinimizeResult:
    config: Configuration
    energy: float
    trace: np.ndarray  # columns: iter, energy, grad_norm, step
    converged: bool
    restart_index: int
    grad_norm: float
    seed: int


def _trial_energy(cset, fld, s, X):
    # line-search probe: exact coincidence (e.g. two points clamped to
    # the same interval endpoint) counts as infinite, not an error
    try:
        return energy(Configuration(X, cset), fld, s)
    except ValueError:
        return np.inf


def _descend(cset, fld, s, X, settings, step_init, gtol):
    E = energy(Configuration(X, cset), fld, s)
    step = step_init
    rows = []
    converged = False
    gn = np.inf
    for it in range(settings.max_iters):
        G = energy_gradient(Configuration(X, cset), fld, s)
        gn = float(np.linalg.norm(G))
        rows.append((it, E, gn, step))
        if gn < gtol:
            converged = True
            break
        accepted = False
        for _ in range(60):
            X1 = cset.retract(X - step * G)
            # Armijo on the realized displacement: equals step*|grad|^2 in
            # the interior and drops components absorbed by the retraction
            # (points pinned at an interval endpoint must not block it)
            dn2 = float(((X - X1) ** 2).sum())
            if dn2 == 0.0:
                converged = True  # retraction absorbs the whole step
                break
            E1 = _trial_energy(cset, fld, s, X1)
            if np.isfinite(E1) and E - E1 >= settings.armijo_c * dn2 / step:
                X, E = X1, E1
                step = min(step * 2.0, 1e6 * step_init)
                accepted = True
                break
            step *= settings.armijo_shrink
        if not accepted:
            break  # stationary under projection, or line search exhausted
    return X, E, np.asarray(rows, dtype=float), converged, gn


def minimize(
    cset: CompactSet,
    fld: ExternalField,
    s: float,
    N: int,
    settings: OptimizerSettings | None = None,
    measure=None,
) -> MinimizeResult:
    """Best-of-restarts approximate minimizer of the (s, d, q) energy.

    Initial points are quadrature nodes drawn with probability
    proportional to weight (or weight times equilibrium density for the
    density/stratified modes, which need ``measure``).  Each restart
    runs Armijo projected descent until the tangential gradient norm
    drops below grad_tol * N^(1+s/d) / diameter^(s+1).
    """
    if N < 2:
        raise ValueError("minimization needs at least two points")
    settings = settings or OptimizerSettings()
    d = cset.hausdorff_dim
    step_init = settings.step_init
    if step_init is None:
        step_init = cset.diameter * float(N) ** (-1.0 - s / d)
    gtol = settings.grad_tol * float(N) ** (1.0 + s / d) * cset.diameter ** (-s - 1.0)

    best = None
    traces = []
    for r in range(settings.restarts):
        rng = np.random.default_rng([settings.rng_seed, r])
        X = None
        for _ in range(100):
            X = _sample_initial(cset, N, rng, settings.init, measure)
            if np.isfinite(_trial_energy(cset, fld, s, X)):
                break
        else:
            traces.append(np.zeros((0, 4)))
            continue
        X, E, trace, converged, gn = _descend(cset, fld, s, X, settings, step_init, gtol)
        traces.append(trace)
        if np.isfinite(E) and (best is None or E < best.energy):
            best = MinimizeResult(
                config=Configuration(cset.retract(X), cset),
                energy=E,
                trace=trace,
                converged=converged,
                restart_index=r,
                grad_norm=gn,
                seed=settings.rng_seed,
            )
    if best is None:
        raise OptimizerFailure("all restarts failed to produce finite energy", traces)
    return best


def write_trace_csv(trace: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "energy", "grad_norm", "step"])
        for row in np.atleast_2d(trace):
            if row.size:
                w.writerow([f"{int(row[0])}", f"{row[1]:.17g}", f"{row[2]:.17g}", f"{row[3]:.17g}"])


def write_points_csv(points: np.ndarray, path) -> None:
    points = np.atleast_2d(points)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i + 1}" for i in range(points.shape[1])])
        for row in points:
            w.writerow([f"{c:.17g}" for c in row])
