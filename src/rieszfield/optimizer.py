"""Energy, gradient, and projected-descent minimization of point sets.

The discrete objective is the pair sum over ordered pairs |x-y|^(-s)
plus the external-field term (tau/N) * sum q(x), with tau = N^(1+s/d)
for s > d and N^2 ln N at s = d.  Minimization is multi-start projected
gradient descent: Armijo backtracking on the energy, retraction to the
set after every trial step, convergence once the tangential gradient
norm falls under a scale-aware tolerance.  Each trial is one pass over
the pairs that gives its energy and tangent gradient together, and an
accepted trial's gradient starts the next iteration.  The pass walks
row blocks; the distances from a block to later points come from one
matrix product of centred coordinates, and the rows with near pairs are
recomputed from coordinate differences, so the closest distances and
the collision guard stay exact.  Deliberately
first-order: the landscape is nonconvex with O(N^2) terms and
verifiability beats iteration counts here.
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


# Armijo sufficient-decrease constant and backtracking factor
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5

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

    Returns (energy, r2min, G): the pair energy over ordered pairs,
    sum_{i != j} |x_i - x_j|^(-s), the smallest squared distance (inf
    for fewer than two points) and, with ``gradient``, the ambient pair
    gradient (else None).  Each unordered pair is visited once; peak
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
    [X | 1] gives both.
    """
    n = len(X)
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    total, r2min = 0.0, np.inf
    G = np.zeros_like(X) if gradient else None
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
                G[i0:i1] -= 2.0 * s * (Xr * S[:, -1:] - S[:, :-1])
    return total, r2min, G


def _objective(X: np.ndarray, cset: CompactSet, fld: ExternalField, s: float, gradient=False):
    """Energy of the points X and its tangent gradient from one pair pass.

    Returns (E, r2min, G).  E is +inf under the collision guard (r2min
    below (1e-12 * diameter)^2, exact coincidence r2min == 0 included)
    and on field poles.  G is None for ``gradient=False``, the tangent
    gradient for ``True``, and for ``"finite"`` the tangent gradient only
    when E is finite: a line-search trial of infinite energy is refused
    anyway, and a field gradient at a pole would be inf - inf.
    """
    n = len(X)
    weight = tau(s, cset.hausdorff_dim, n) / n
    pair, r2min, G = _pair_kernel(X, s, gradient=bool(gradient))
    if r2min < (1e-12 * cset.diameter) ** 2:
        pair = np.inf
    E = pair + weight * float(np.asarray(fld.evaluate(X), dtype=float).sum())
    if G is not None:
        if gradient == "finite" and not np.isfinite(E):
            G = None
        else:
            G += weight * field_gradient(fld, X, cset)
            G = cset.tangent_project(X, G)
    return E, r2min, G


def energy(config: Configuration, fld: ExternalField, s: float) -> float:
    """E^q of the configuration; +inf is a representable value (points on
    field poles or under the collision guard), exact coincidence raises."""
    E, r2min, _ = _objective(config.points, config.cset, fld, s)
    if r2min == 0.0:
        raise ValueError("coincident points give infinite energy")
    return E


def energy_gradient(config: Configuration, fld: ExternalField, s: float) -> np.ndarray:
    """Tangent-projected ambient gradient of the energy, one row per point."""
    return _objective(config.points, config.cset, fld, s, gradient=True)[2]


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
    converged: bool
    grad_norm: float


def _descend(cset, fld, s, X, E, G, max_iters, step_init, gtol):
    # (E, G) belong to X on entry; each trial is one pair pass that gives
    # its energy and gradient, and an accepted trial's are the next
    # iteration's.  Exact coincidence in a trial (e.g. two points clamped
    # to the same interval endpoint) is infinite energy, not an error.
    step = step_init
    rows = []
    converged = False
    gn = np.inf
    for it in range(max_iters):
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
            E1, _, G1 = _objective(X1, cset, fld, s, gradient="finite")
            if np.isfinite(E1) and E - E1 >= _ARMIJO_C * dn2 / step:
                X, E, G = X1, E1, G1
                step = min(step * 2.0, 1e6 * step_init)
                accepted = True
                break
            step *= _ARMIJO_SHRINK
        if not accepted:
            break  # stationary under projection, or line search exhausted
    return X, np.asarray(rows, dtype=float), converged, gn


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
    runs Armijo projected descent from the step diameter * N^(-1-s/d):
    a trial step is halved until the energy falls by 1e-4 * |dx|^2 / step
    and doubled after each accepted one.  Each trial is one pair pass that
    gives its energy and gradient, and an accepted trial's gradient starts
    the next iteration; the initial sample's pass, which checks that its
    energy is finite, starts the first.  A restart stops when the
    tangential gradient norm drops below grad_tol * N^(1+s/d) /
    diameter^(s+1), when the retraction absorbs the whole step, when 60
    trials find no decrease, or after max_iters iterations.  The restart
    with the lowest finite energy is returned, its energy from one
    ``energy`` call on the final points; OptimizerFailure is raised when
    none has one.
    """
    if N < 2:
        raise ValueError("minimization needs at least two points")
    settings = settings or OptimizerSettings()
    d = cset.hausdorff_dim
    step_init = cset.diameter * float(N) ** (-1.0 - s / d)
    gtol = settings.grad_tol * float(N) ** (1.0 + s / d) * cset.diameter ** (-s - 1.0)

    best = None
    for r in range(settings.restarts):
        rng = np.random.default_rng([settings.rng_seed, r])
        for _ in range(100):
            X = _sample_initial(cset, N, rng, settings.init, measure)
            E, _, G = _objective(X, cset, fld, s, gradient="finite")
            if np.isfinite(E):
                break
        else:
            continue
        X, trace, converged, gn = _descend(cset, fld, s, X, E, G, settings.max_iters, step_init, gtol)
        E = energy(Configuration(X, cset), fld, s)
        if np.isfinite(E) and (best is None or E < best.energy):
            best = MinimizeResult(
                config=Configuration(cset.retract(X), cset),
                energy=E,
                trace=trace,
                converged=converged,
                grad_norm=gn,
            )
    if best is None:
        raise OptimizerFailure("all restarts failed to produce finite energy")
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
