"""Energy, gradient, and preconditioned quasi-Newton minimization of point sets.

The discrete objective is the pair sum over ordered pairs |x-y|^(-s)
plus the external-field term (tau/N) * sum q(x), with tau = N^(1+s/d)
for s > d and N^2 ln N at s = d.  Minimization is multi-start projected
descent preconditioned by the per-point pair stiffness
P_i = 2s(s+1) sum_j |x_i - x_j|^(-s-2).  A restart opens with
preconditioned gradient steps (P-GD, direction -G/P) and, once a P-GD
step is accepted at its first trial, switches to limited-memory BFGS
(Liu & Nocedal 1989) with the initial inverse Hessian gamma/P and its
curvature pairs projected to the tangent space of the current points
(Huang, Gallivan & Absil 2015); a quasi-Newton step that fails falls
back to P-GD within the same iteration.  Every trial is retracted to
the set and accepted by Armijo on its realized first-order decrease.
Each trial is one pass over the pairs that gives its energy, pair
gradient and stiffness together, and an accepted trial's start the next
iteration; the tangent gradient is formed only for the points the
descent keeps.  The pass walks square tiles of pairs; an off-diagonal
tile's distances come from one matrix product of centred coordinates
(on a line, from differences), and its rows with near pairs are
recomputed from coordinate differences, so the closest distances and
the collision guard stay exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist, squareform

from .fields import ExternalField, field_gradient
from .geometry import CompactSet, _by_rows

__all__ = [
    "Configuration",
    "OptimizerSettings",
    "MinimizeResult",
    "OptimizerFailure",
    "tau",
    "energy",
    "energy_gradient",
    "minimize",
]


class OptimizerFailure(RuntimeError):
    """All restarts failed to produce a finite energy."""


def _whole(value, key: str) -> int:
    """A count from a setting or config as an int; anything but a whole
    number (bools included) raises ValueError naming ``key``."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


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
    """N ambient points on a set, as an (N, ambient_dim) array."""

    points: np.ndarray
    cset: CompactSet

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        p = self.cset.ambient_dim
        if self.points.ndim != 2 or self.points.shape[1] != p:
            raise ValueError(f"points must have shape (n, {p}) on this set, got {self.points.shape}")

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass
class OptimizerSettings:
    # the descent's fixed gradient tolerance; minimize scales it by
    # N^(1+s/d) / diameter^(s+1)
    grad_tol: ClassVar[float] = 1e-6
    max_iters: int = 5000
    restarts: int = 3
    rng_seed: int = 0
    init: str = "weighted"  # weighted | density | stratified

    def __post_init__(self):
        for key in ("max_iters", "restarts", "rng_seed"):
            setattr(self, key, _whole(getattr(self, key), key))
        if self.max_iters <= 0 or self.restarts <= 0:
            raise ValueError("max_iters and restarts must be positive")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if self.init not in ("weighted", "density", "stratified"):
            raise ValueError(f"unknown init mode {self.init!r}")


# Armijo sufficient-decrease constant, backtracking factor and trials
# per P-GD line search
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_TRIALS = 60
# curvature pairs kept by the quasi-Newton memory
_MEMORY = 8
# a refused trial whose first-order decrease is at most this many ulps of
# |E| ends the restart: the energy comparison cannot resolve it
_FLOOR_ULPS = 64

# Side of the square tiles of the pair pass; N is split evenly into
# ceil(N / _TILE) runs.  A tile keeps two arrays of up to _TILE^2
# doubles alive (1/r^2, overwritten by the gradient weights, and r^-s),
# 0.7 MB at 208, inside the 2 MiB L2 of one core of the 2-core Xeon host
# this was measured on.  Energy and gradient on the sphere at s = 4 took,
# of the time of the 2^17-entry row blocks this replaced: at N = 4000,
# 0.68-0.76 for sides 176-208, 0.71-0.74 at 224, 0.74-0.79 at 240,
# 0.84-0.87 at 256 and 1.03 at 320; at N = 1000, 0.52-0.69 for 176-240.
# Side by side, 208 took 0.69-0.70 and 224 0.71-0.72 at N = 4000.
# Runs of _TILE with a short last one took 1.11x (N = 1000) and 1.23x
# (N = 4000) of the even split.  208 is the fastest side that keeps
# N = 200 one tile.
_TILE = 208


def _min_distance(X: np.ndarray) -> float:
    """Smallest distance between two of the points X by nearest-neighbour
    search (0 for coincident points, inf for fewer than two)."""
    return float(cKDTree(X).query(X, k=2)[0][:, 1].min())


def _pair_kernel(X: np.ndarray, s: float):
    """One pass over the pairs of X in square tiles of squared distances.

    Returns (energy, r2min, G, P): the pair energy over ordered pairs,
    sum_{i != j} |x_i - x_j|^(-s), the smallest squared distance (inf
    for fewer than two points), the ambient pair gradient and the
    per-point stiffness P_i = 2s(s+1) sum_{j != i} |x_i - x_j|^(-s-2),
    the radial second derivative of point i's pair terms.  The points
    are split evenly into ceil(N / _TILE) runs; each run is a tile with
    itself and with every later run, so each unordered pair is visited
    once and peak memory is one tile.  r2min is read, and the energy
    summed, before a tile is overwritten.

    A diagonal tile's pairs are exact coordinate differences (``pdist``),
    so a call with N <= _TILE is exactly that.  Each off-diagonal tile is
    one matrix product [y_i, a_i, 1] . [-2 y_j, 1, a_j] = |y_i - y_j|^2,
    where y is x less its bounding-box midpoint and a = |y|^2.  Its
    rounding is about eps * max a, so the rows of a tile that reach under
    cut = 1e-4 * max a are recomputed from coordinate differences.  Every
    entry under the cut is then exact, and so is r2min whenever it is
    under the cut, which covers the collision guard and coincidence
    (r2min == 0); other entries are within about 1e-11 relative.

    Per tile the squared distances are replaced in place by 1/r^2, and
    w = (1/r^2)^(s/2) is one power expression for every s: numpy copies
    for s = 2 and squares for s = 4, so libm ``pow`` runs only for other
    s.  The gradient weights c = w/r^2 = |x_i - x_j|^(-s-2) overwrite
    1/r^2.  The gradient is 2s (sum_j c_ij x_j - x_i sum_j c_ij); a
    tile's product with [X | 1] gives both sums for its rows, and its
    transpose's for its columns.  They gather in one (N, p + 1) array,
    from which G and P (2s(s+1) sum_j c_ij) are formed at the end.  On a
    line that difference of two nearly equal terms cancels, so there a
    pass of more than one run forms every tile from the per-pair
    differences x_i - x_j, with no Gram product, and gathers
    sum_j c_ij (x_j - x_i) directly.
    """
    n, p = X.shape
    runs = max(1, -(-n // _TILE))
    edges = [n * k // runs for k in range(runs + 1)]
    line = p == 1 and runs > 1
    total, r2min = 0.0, np.inf
    # per point: sum_j c_ij x_j (or, on a line, sum_j c_ij (x_j - x_i)), then sum_j c_ij
    A = np.zeros((n, p + 1))
    X1 = np.hstack([X, np.ones((n, 1))])
    ones = np.ones(n)
    if runs > 1 and not line:
        Y = X - 0.5 * (X.min(axis=0) + X.max(axis=0))
        a = np.einsum("ij,ij->i", Y, Y)
        L = np.column_stack([Y, a, ones])
        Rt = np.vstack([-2.0 * Y.T, ones, a])
        cut = 1e-4 * float(a.max())
    # coincident points (r2 = 0) are left to the caller's checks
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t, (i0, i1) in enumerate(zip(edges, edges[1:])):
            for j0, j1 in zip(edges[t:], edges[t + 1 :]):
                rows, cols, diagonal = slice(i0, i1), slice(j0, j1), i0 == j0
                if line:
                    # x_i - x_j, both orders of each pair on the diagonal
                    D = X[rows] - X[cols].T
                    r2 = D * D
                    if diagonal:
                        np.fill_diagonal(r2, np.inf)
                elif diagonal:
                    r2 = pdist(X[rows], "sqeuclidean")  # condensed
                    if r2.size == 0:
                        continue
                else:
                    r2 = L[rows] @ Rt[:, cols]
                low = float(r2.min())
                if not (line or diagonal) and low < cut:
                    # rows that reach under the cut, from coordinate differences
                    near = r2.min(axis=1) < cut
                    r2[near] = cdist(X[rows][near], X[cols], "sqeuclidean")
                    low = float(r2.min())
                r2min = min(r2min, low)
                inv = np.divide(1.0, r2, out=r2)
                w = inv ** (0.5 * s)
                # a square tile sums faster as a matrix-vector product; a
                # square diagonal tile holds both orders of each pair
                wsum = w.sum() if w.ndim == 1 else ones[rows] @ w @ ones[cols]
                total += (1.0 if line and diagonal else 2.0) * float(wsum)
                c = np.multiply(w, inv, out=inv)
                if line:
                    cD = np.multiply(c, D, out=D)
                    A[rows, 0] -= cD @ ones[cols]
                    A[rows, 1] += c @ ones[cols]
                    if not diagonal:  # the columns, by Newton's third law
                        A[cols, 0] += ones[rows] @ cD
                        A[cols, 1] += ones[rows] @ c
                elif diagonal:
                    # the square form holds both orders of each pair
                    A[rows] += squareform(c) @ X1[rows]
                else:
                    A[rows] += c @ X1[cols]
                    A[cols] += c.T @ X1[rows]
        G = 2.0 * s * (A[:, :-1] if line else A[:, :-1] - X * A[:, -1:])
    return total, r2min, G, 2.0 * s * (s + 1.0) * A[:, -1]


def _objective(X: np.ndarray, cset: CompactSet, fld: ExternalField, s: float):
    """Energy of the points X from one pair pass.

    Returns (E, r2min, G, P).  E is +inf under the collision guard (r2min
    below (1e-12 * diameter)^2, exact coincidence r2min == 0 included)
    and on field poles.  G and P are the pair kernel's ambient pair
    gradient and stiffness; ``_tangent_gradient`` completes G for the
    points the descent keeps.
    """
    n = len(X)
    weight = tau(s, cset.hausdorff_dim, n) / n
    pair, r2min, G, P = _pair_kernel(X, s)
    if r2min < (1e-12 * cset.diameter) ** 2:
        pair = np.inf
    E = pair + weight * float(np.asarray(fld.evaluate(X), dtype=float).sum())
    return E, r2min, G, P


def _tangent_gradient(cset, fld, s, X, G):
    """The tangent gradient of the energy at X from its ambient pair
    gradient G, which gains the field term in place."""
    n = len(X)
    G += tau(s, cset.hausdorff_dim, n) / n * field_gradient(fld, X, cset)
    return cset.tangent_project(X, G)


# what energy, and the diagnostics that divide by the separation, raise
# on exactly coincident points
_COINCIDENT = "coincident points give infinite energy"


def energy(config: Configuration, fld: ExternalField, s: float) -> float:
    """E^q of the configuration; +inf is a representable value (points on
    field poles or under the collision guard), exact coincidence raises."""
    E, r2min, _, _ = _objective(config.points, config.cset, fld, s)
    if r2min == 0.0:
        raise ValueError(_COINCIDENT)
    return E


def energy_gradient(config: Configuration, fld: ExternalField, s: float) -> np.ndarray:
    """Tangent-projected ambient gradient of the energy, one row per point."""
    X = config.points
    G = _pair_kernel(X, s)[2]
    return _tangent_gradient(config.cset, fld, s, X, G)


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
        if _min_distance(X) > 1e-9 * cset.diameter:
            break
        scale = 2e-3 * cset.diameter
        X = cset.retract(X + rng.normal(scale=scale, size=X.shape))
    return X


@dataclass
class MinimizeResult:
    config: Configuration
    energy: float
    trace: np.ndarray  # columns: iter, energy, grad_norm, step
    # grad_tol | precision_floor | step_absorbed | line_search_exhausted | max_iters
    termination: str
    grad_norm: float
    trials: int  # pair passes of the line searches
    # per restart that found a finite sample: energy, termination, iterations, trials
    restarts: list


def _descent_gradient(cset, X, G):
    """G less each component along which the retraction holds X against
    a step down G, retract(X - G) == X there: a point pinned at an
    interval endpoint cannot follow the outward component."""
    return np.where(cset.retract(X - G) == X, 0.0, G)


def _transport(cset, X, pairs):
    """The curvature pairs (dx, dG) moved to the tangent space at X by
    projection, each with its dx.dG; the newest _MEMORY with dx.dG > 0.
    The pairs were taken at earlier points, whose tangent spaces differ
    from that at X on a curved set.  One projection call takes them all,
    stacked to shape (2k, n, p) at the n points X."""
    V = np.stack([v for dx, dg, *_ in pairs for v in (dx, dg)])
    V = cset.tangent_project(X, V).reshape(len(pairs), 2, *X.shape)
    moved = []
    for dx, dg in V:
        dxdg = float(np.vdot(dx, dg))
        if dxdg > 0.0:
            moved.append((dx, dg, dxdg))
    return moved[-_MEMORY:]


def _two_loop(G, P, memory):
    """-H G for the L-BFGS inverse Hessian H of the curvature pairs in
    ``memory`` (oldest first, each (dx, dG, dx.dG)), with the initial
    H0 = gamma / P scaled by the newest pair."""
    q = G.copy()
    alphas = []
    for dx, dg, dxdg in reversed(memory):
        alpha = float(np.vdot(dx, q)) / dxdg
        q -= alpha * dg
        alphas.append(alpha)
    _, dg, dxdg = memory[-1]
    pinv = 1.0 / P
    gamma = dxdg / float(np.vdot(dg, _by_rows(np.multiply, dg, pinv)))
    r = gamma * _by_rows(np.multiply, q, pinv)
    for (dx, dg, dxdg), alpha in zip(memory, reversed(alphas)):
        beta = float(np.vdot(dg, r)) / dxdg
        r += (alpha - beta) * dx
    return -r


def _descend(cset, fld, s, X, E, G, P, max_iters, gtol):
    # (E, G, P) belong to X on entry, G its ambient pair gradient, and G
    # is the descent gradient (_descent_gradient) on return (X, G, trace,
    # termination, trials).  Each trial is one pair pass that gives its
    # energy, pair gradient and stiffness; only the points kept, the
    # entry's and each accepted trial's, get the tangent gradient.  Exact
    # coincidence in a trial (e.g. two points clamped to the same interval
    # endpoint) is infinite energy, not an error.
    G = _descent_gradient(cset, X, _tangent_gradient(cset, fld, s, X, G))
    step = 1.0  # P-GD step, in units of the stiffness
    # curvature pairs (dx, dG, dx.dG), oldest first, of a P-GD step
    # accepted at its first trial and the quasi-Newton steps since; the
    # next iteration is quasi-Newton while there are any
    memory = []
    rows = []
    trials = 0

    def stop(termination):
        return X, G, np.asarray(rows, dtype=float), termination, trials

    def trial(X1, decrease):
        # Armijo asks a share of the first-order decrease <G, X - X1>
        nonlocal trials
        trials += 1
        E1, _, G1, P1 = _objective(X1, cset, fld, s)
        return np.isfinite(E1) and E - E1 >= _ARMIJO_C * decrease, E1, G1, P1

    for it in range(max_iters):
        gn = float(np.linalg.norm(G))
        rows.append((it, E, gn, 1.0 if memory else step))
        if gn < gtol:
            return stop("grad_tol")
        accept = False
        if memory:
            D = cset.tangent_project(X, _two_loop(G, P, memory))
            if float(np.vdot(G, D)) < 0.0:
                X1 = cset.retract(X + D)
                decrease = float(np.vdot(G, X - X1))
                if decrease > 0.0:
                    accept, E1, G1, P1 = trial(X1, decrease)
        if not accept:  # P-GD, also the fallback of a failed quasi-Newton step
            memory = []
            D = _by_rows(np.divide, G, P)
            for k in range(_MAX_TRIALS):
                X1 = cset.retract(X - step * D)
                decrease = float(np.vdot(G, X - X1))
                if decrease <= 0.0:
                    return stop("step_absorbed")
                accept, E1, G1, P1 = trial(X1, decrease)
                if accept:
                    break
                if decrease <= _FLOOR_ULPS * np.finfo(float).eps * abs(E):
                    return stop("precision_floor")
                step *= _ARMIJO_SHRINK
            else:
                return stop("line_search_exhausted")
            if k == 0:  # only a step accepted at its first trial doubles
                step *= 2.0
        G1 = _descent_gradient(cset, X1, _tangent_gradient(cset, fld, s, X1, G1))
        # a P-GD step that had to halve keeps no pair (the memory is empty
        # after P-GD, so k is that iteration's)
        if memory or k == 0:
            memory = _transport(cset, X1, memory + [(X1 - X, G1 - G)])
        X, E, G, P = X1, E1, G1, P1
    return stop("max_iters")


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
    descends along the tangent gradient G preconditioned by the pair
    stiffness P_i = 2s(s+1) sum_j |x_i - x_j|^(-s-2).  G leaves out each
    component along which the retraction holds the points against a step
    down G (on an interval, a push out through an endpoint); that G sets
    the norm, the directions and the curvature pairs.  Every trial X1 is
    retracted to the set and accepted when E - E1 >= 1e-4 * <G, X - X1>.

    - P-GD: the direction is -G/P per point, from step 1 on.  A trial is
      halved until accepted; an iteration whose first trial is accepted
      doubles the step, one that had to halve keeps the step it accepted.
    - P-L-BFGS: the iteration after a first-trial accept takes the
      two-loop direction of the last 8 curvature pairs (dx, dG): the
      accepted P-GD step's and those of the quasi-Newton steps since.
      After each step every pair is projected to the tangent space at
      the new points, and a pair with dx.dG <= 0 there is dropped.
      H0 = gamma/P with gamma = dx.dG / dG.(dG/P) of the newest pair;
      the direction is projected to the tangent space and tried once at
      unit step, and the phase goes on while its trials are accepted.
      A direction that is not a descent direction, a retracted trial
      with no first-order decrease, or a refused trial sends the same
      iteration on as P-GD at the current P-GD step; an iteration that
      takes the P-GD direction drops the pairs.

    Each trial is one pair pass that gives its energy, pair gradient and
    stiffness, and an accepted trial's start the next iteration; the
    initial sample's pass, which checks that its energy is finite,
    starts the first.  The field gradient and the tangent projection
    are formed only for the points the descent keeps: the sample and
    each accepted trial.  A restart stops, and ``termination`` says which
    way, when |G| drops below grad_tol * N^(1+s/d) / diameter^(s+1)
    (``grad_tol``), when a refused P-GD trial's first-order decrease is
    at most 64 ulps of |E|, below which the energy comparison cannot
    resolve a decrease (``precision_floor``), when a P-GD step leaves no
    first-order decrease (``step_absorbed``: the retraction or rounding
    absorbed it), when 60 trials find no decrease
    (``line_search_exhausted``), or after max_iters iterations
    (``max_iters``).  The restart with the lowest finite energy is
    returned: the descent's final points, their energy from one
    ``energy`` call, grad_norm, |G| at those points, trials, the pair
    passes of its line searches, and ``restarts``, each restart's
    energy, termination, iterations and trials.  OptimizerFailure is
    raised when no restart has a finite energy.
    """
    if N < 2:
        raise ValueError("minimization needs at least two points")
    settings = settings or OptimizerSettings()
    d = cset.hausdorff_dim
    gtol = settings.grad_tol * float(N) ** (1.0 + s / d) * cset.diameter ** (-s - 1.0)

    best, restarts = None, []
    for r in range(settings.restarts):
        rng = np.random.default_rng([settings.rng_seed, r])
        for _ in range(100):
            X = _sample_initial(cset, N, rng, settings.init, measure)
            E, _, G, P = _objective(X, cset, fld, s)
            if np.isfinite(E):
                break
        else:
            continue
        X, G, trace, termination, trials = _descend(
            cset, fld, s, X, E, G, P, settings.max_iters, gtol
        )
        config = Configuration(X, cset)
        E = energy(config, fld, s)
        restarts.append(
            {"energy": E, "termination": termination, "iterations": len(trace), "trials": trials}
        )
        if np.isfinite(E) and (best is None or E < best.energy):
            best = MinimizeResult(
                config, E, trace, termination, float(np.linalg.norm(G)), trials, restarts
            )
    if best is None:
        raise OptimizerFailure("all restarts failed to produce finite energy")
    return best
