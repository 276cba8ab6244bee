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
descent keeps.  The pass walks row blocks; the distances from a block to
later points come from one matrix product of centred coordinates, and
the rows with near pairs are recomputed from coordinate differences, so
the closest distances and the collision guard stay exact.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

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
    "write_trace_csv",
    "write_points_csv",
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
    """N ambient points on a set."""

    points: np.ndarray
    cset: CompactSet

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass
class OptimizerSettings:
    max_iters: int = 5000
    grad_tol: float = 1e-6
    restarts: int = 3
    rng_seed: int = 0
    init: str = "weighted"  # weighted | density | stratified

    def __post_init__(self):
        for key in ("max_iters", "restarts", "rng_seed"):
            setattr(self, key, _whole(getattr(self, key), key))
        if self.max_iters <= 0 or self.restarts <= 0 or not 0 < self.grad_tol < math.inf:
            raise ValueError("max_iters and restarts must be positive, grad_tol positive and finite")
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

# Entries per block of squared distances: 2^17 doubles = 1 MiB.  A block
# keeps two such arrays alive, 1/r^2 (overwritten by the gradient
# weights) and w = r^-s, so the pair is 2 MiB, the L2 of one core of the
# 2-core Xeon host this was measured on.  Blocks of 2^15 or fewer entries
# were slower at N = 4000 from per-block overhead.  The two Gram factors
# that write the off-diagonal blocks are (p + 2) * N doubles each, 160 KB
# at N = 4000 on the sphere.
_BLOCK_ENTRIES = 1 << 17


def _min_distance(X: np.ndarray) -> float:
    """Smallest distance between two of the points X by nearest-neighbour
    search (0 for coincident points, inf for fewer than two)."""
    return float(cKDTree(X).query(X, k=2)[0][:, 1].min())


def _pair_kernel(X: np.ndarray, s: float, gradient: bool = False):
    """One pass over the pairs of X in row blocks of squared distances.

    Returns (energy, r2min, G, P): the pair energy over ordered pairs,
    sum_{i != j} |x_i - x_j|^(-s), the smallest squared distance (inf
    for fewer than two points) and, with ``gradient``, the ambient pair
    gradient and the per-point stiffness P_i = 2s(s+1) sum_{j != i}
    |x_i - x_j|^(-s-2), the radial second derivative of point i's pair
    terms (else None and None).  Each unordered pair is visited once; peak
    memory is one block.  r2min is read before the block is overwritten.

    The pairs within a row block are exact coordinate differences
    (``pdist``), so a call with one row block is exactly that.  With
    several, each off-diagonal block is one matrix product
    [y_i, a_i, 1] . [-2 y_j, 1, a_j] = |y_i - y_j|^2, where y is x less
    its bounding-box midpoint and a = |y|^2.  Its rounding is about
    eps * max a, so the rows of a block that reach under cut = 1e-4 *
    max a are recomputed from coordinate differences.  Every entry under
    the cut is then exact, and so is r2min whenever it is under the cut,
    which covers the collision guard and coincidence (r2min == 0); other
    entries are within about 1e-11 relative.

    Per block the squared distances are replaced in place by 1/r^2, and
    w = (1/r^2)^(s/2) is one power expression for every s: numpy copies
    for s = 2 and squares for s = 4, so libm ``pow`` runs only for other
    s.  The gradient weights c = w/r^2 = |x_i - x_j|^(-s-2) overwrite
    1/r^2.  The gradient needs sum_j c_ij x_j and sum_j c_ij per row (and
    per column of an off-diagonal block); one matrix product of c with
    [X | 1] gives both, and the sums of c are also P / (2s(s+1)).
    """
    n = len(X)
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    total, r2min = 0.0, np.inf
    G = np.zeros_like(X) if gradient else None
    P = np.zeros(n) if gradient else None
    X1 = np.hstack([X, np.ones((n, 1))]) if gradient else None
    if rows < n:
        Y = X - 0.5 * (X.min(axis=0) + X.max(axis=0))
        a = np.einsum("ij,ij->i", Y, Y)
        ones = np.ones(n)
        L = np.column_stack([Y, a, ones])
        Rt = np.vstack([-2.0 * Y.T, ones, a])
        cut = 1e-4 * float(a.max())
    # coincident points (r2 = 0) are left to the caller's checks
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            Xr, Xc = X[i0:i1], X[i1:]
            # the pairs within the rows (condensed), then the rows against
            # every later point, if any remain
            blocks = [(pdist(Xr, "sqeuclidean"), None)]
            if i1 < n:
                blocks.append((L[i0:i1] @ Rt[:, i1:], Xc))
            for r2, cols in blocks:
                if r2.size == 0:
                    continue
                low = float(r2.min())
                if cols is not None and low < cut:
                    # rows that reach under the cut, from coordinate differences
                    near = r2.min(axis=1) < cut
                    r2[near] = cdist(Xr[near], cols, "sqeuclidean")
                    low = float(r2.min())
                r2min = min(r2min, low)
                inv = np.divide(1.0, r2, out=r2)
                w = inv ** (0.5 * s)
                total += 2.0 * float(w.sum())
                if not gradient:
                    continue
                # sum_j c_ij (x_i - x_j) = x_i sum_j c_ij - sum_j c_ij x_j,
                # both sums from one product with [X | 1]
                c = np.multiply(w, inv, out=inv)
                if cols is None:
                    # the square form holds both orders of each pair
                    S = squareform(c) @ X1[i0:i1]
                else:
                    S = c @ X1[i1:]
                    # the columns, by Newton's third law
                    T = c.T @ X1[i0:i1]
                    G[i1:] -= 2.0 * s * (cols * T[:, -1:] - T[:, :-1])
                    P[i1:] += T[:, -1]
                G[i0:i1] -= 2.0 * s * (Xr * S[:, -1:] - S[:, :-1])
                P[i0:i1] += S[:, -1]
    if gradient:
        P *= 2.0 * s * (s + 1.0)
    return total, r2min, G, P


def _objective(X: np.ndarray, cset: CompactSet, fld: ExternalField, s: float, gradient: bool = False):
    """Energy of the points X from one pair pass.

    Returns (E, r2min, G, P).  E is +inf under the collision guard (r2min
    below (1e-12 * diameter)^2, exact coincidence r2min == 0 included)
    and on field poles.  With ``gradient``, G and P are the pair kernel's
    ambient pair gradient and stiffness (else None and None);
    ``_tangent_gradient`` completes G for the points the descent keeps.
    """
    n = len(X)
    weight = tau(s, cset.hausdorff_dim, n) / n
    pair, r2min, G, P = _pair_kernel(X, s, gradient=gradient)
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


def energy(config: Configuration, fld: ExternalField, s: float) -> float:
    """E^q of the configuration; +inf is a representable value (points on
    field poles or under the collision guard), exact coincidence raises."""
    E, r2min, _, _ = _objective(config.points, config.cset, fld, s)
    if r2min == 0.0:
        raise ValueError("coincident points give infinite energy")
    return E


def energy_gradient(config: Configuration, fld: ExternalField, s: float) -> np.ndarray:
    """Tangent-projected ambient gradient of the energy, one row per point."""
    X = config.points
    G = _pair_kernel(X, s, gradient=True)[2]
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
        E1, _, G1, P1 = _objective(X1, cset, fld, s, gradient=True)
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
            E, _, G, P = _objective(X, cset, fld, s, gradient=True)
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


def write_trace_csv(trace: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "energy", "grad_norm", "step"])
        for row in trace:
            w.writerow([f"{int(row[0])}", f"{row[1]:.17g}", f"{row[2]:.17g}", f"{row[3]:.17g}"])


def write_points_csv(points: np.ndarray, path) -> None:
    points = np.atleast_2d(points)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i + 1}" for i in range(points.shape[1])])
        for row in points:
            w.writerow([f"{c:.17g}" for c in row])
