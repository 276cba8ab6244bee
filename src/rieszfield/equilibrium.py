"""Limiting equilibrium measure of the weighted energy.

For s >= d the N-point minimizers distribute, in the large-N limit,
according to a density of the form ((L1 - q)/M)^(d/s) clipped at zero,
where L1 is fixed by unit total mass.  This module solves that scalar
equation with Brent's method on top of an adaptive composite
Gauss-Legendre rule in parameter space, refined where the integrand
misbehaves: the clipped power law has kinks along the support boundary,
external fields can have poles, and the fixed product rules of the
geometry module are nowhere near the accuracy the printed constants
demand.

Cells are tensor products of GL3 rules in any parameter dimension and
are refined on a split-compare error estimate (cell integral vs the sum
over its two halves).  One loop, ``_refine``, does the estimating,
cutting and splitting for both ``solve_equilibrium`` and
``integrate_adaptive``; each round the caller maps the cells to
integrand values, cells to split regardless of their estimate, and
whether its own result has settled.  The loop stops for one of three
reasons, reported as ``stop_reason``: ``tol`` (estimate below the
tolerance, result settled, nothing forced), ``budget`` (the rule holds
the node budget) or ``max_rounds``.

Two failure modes of the estimate are handled explicitly: support
boundaries that slip between quadrature nodes of both levels (caught by
evaluating q at cell vertices and force-refining straddling cells) and
known interior kinks of q (the caller passes their parameter-space
locations as ``breaks`` so they sit on cell edges from the start).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .constants import RieszConstant, m_constant
from .geometry import CompactSet, _grid

__all__ = [
    "EquilibriumError",
    "EquilibriumMeasure",
    "solve_equilibrium",
    "integrate_adaptive",
]

_GL3_X, _GL3_W = np.polynomial.legendre.leggauss(3)

# refinement rounds of the adaptive rule, and its child-node budget
_MAX_ROUNDS = 48
_NODE_BUDGET = 500_000
# error bounds of the total mass in solve_equilibrium and of integrate_adaptive
_MASS_TOL = 1e-9
_INTEGRAL_TOL = 1e-12
# initial cells per axis, by parameter dimension
_CELLS_PER_AXIS = {1: 32, 2: 24}


class EquilibriumError(RuntimeError):
    """Raised when the mass equation cannot be solved on the given inputs,
    or an adaptive integral stops before meeting its tolerance."""


# ---------------------------------------------------------------------------
# adaptive cell machinery


def _level_density(q, L, M, e):
    """The limiting density ((L - q)/M)_+^e at field values q, 0 where q
    is not finite; e = d/s.  Works in one buffer: the root finder calls
    it on every child node of the rule about a dozen times per round."""
    g = np.subtract(L, q)
    g /= M
    np.maximum(g, 0.0, out=g)
    g[~np.isfinite(q)] = 0.0
    if e == 1.0:
        return g
    if e == 0.5:
        return np.sqrt(g, out=g)
    if e == 0.25:
        return np.sqrt(np.sqrt(g, out=g), out=g)
    return np.power(g, e, out=g)


def _tensor(bounds):
    # bounds: (m, dim, 2) -> nodes (m, k, dim), weights (m, k), k = 3^dim
    idx = _grid([np.arange(3)] * bounds.shape[1])
    mid = 0.5 * (bounds[:, None, :, 0] + bounds[:, None, :, 1])
    half = 0.5 * (bounds[:, None, :, 1] - bounds[:, None, :, 0])
    return mid + half * _GL3_X[idx], np.prod(half * _GL3_W[idx], axis=2)


def _vertices(bounds):
    # bounds: (m, dim, 2) -> cell corners (m, 2^dim, dim)
    dim = bounds.shape[1]
    return bounds[:, np.arange(dim), _grid([np.arange(2)] * dim)]


def _split(bounds, ax):
    # halve each cell along its axis: returns (m, 2, dim, 2)
    rows = np.arange(len(bounds))
    mid = 0.5 * (bounds[rows, ax, 0] + bounds[rows, ax, 1])
    halves = np.stack([bounds, bounds], axis=1)
    halves[rows, 0, ax, 1] = mid
    halves[rows, 1, ax, 0] = mid
    return halves


class _Cells:
    """Flat arrays describing the active cells of an adaptive rule.

    Per cell: parameter bounds, the values of the integrand factor q at
    its own GL3 tensor nodes (q, w), at the nodes of its two halves
    (cq, cw, cP) and at its vertices (vq).  The child-level rule is the
    one actually integrated with; the parent level only feeds the
    split-compare error estimate.
    """

    def __init__(self, cset: CompactSet, evalfn: Callable, breaks=None):
        self.cset = cset
        self.evalfn = evalfn
        self.dim = len(cset.param_bounds)
        self.k = 3 ** self.dim
        self.n_eval = 0
        edges = []
        n_ax = _CELLS_PER_AXIS[self.dim]
        for axis, (lo, hi) in enumerate(cset.param_bounds):
            e = np.linspace(lo, hi, n_ax + 1)
            for brk in (breaks or {}).get(axis, ()):  # pin known kinks to cell edges
                if lo < brk < hi and np.abs(e - brk).min() > 1e-9 * (hi - lo):
                    e = np.sort(np.append(e, brk))
            edges.append(np.stack([e[:-1], e[1:]], axis=1))
        # every combination of per-axis intervals
        idx = _grid([np.arange(len(e)) for e in edges])
        bounds = np.stack([e[idx[:, axis]] for axis, e in enumerate(edges)], axis=1)
        P, w = _tensor(bounds)
        q = self._eval(P.reshape(-1, self.dim)).reshape(w.shape)
        jac = cset.chart_jacobian(P.reshape(-1, self.dim)).reshape(w.shape)
        self.__dict__.update(self._expand(bounds, w * jac, q))

    def _eval(self, P):
        self.n_eval += len(P)
        return np.asarray(self.evalfn(self.cset.chart(P)), dtype=float)

    def _choose_axis(self, q, bounds):
        # split along the axis where q varies most between the GL3 nodes;
        # a tie (or no finite variation) splits the widest axis
        grid = np.where(np.isfinite(q), q, np.nan).reshape((-1,) + (3,) * self.dim)
        cell_axes = tuple(range(1, 1 + self.dim))
        with np.errstate(invalid="ignore"):
            var = np.stack([np.nansum(np.abs(np.diff(grid, axis=a)), axis=cell_axes) for a in cell_axes], 1)
        ax = np.argmax(var, axis=1)
        tie = (var == var.max(axis=1, keepdims=True)).sum(axis=1) != 1
        ax[tie] = np.argmax(bounds[tie, :, 1] - bounds[tie, :, 0], axis=1)
        return ax

    def _expand(self, bounds, w, q):
        # given parent-level data for a batch of cells, evaluate their
        # vertices and the nodes of their two halves
        m, k2 = len(bounds), 2 * self.k
        ax = self._choose_axis(q, bounds)
        cP, cw = _tensor(_split(bounds, ax).reshape(-1, self.dim, 2))
        cP = cP.reshape(-1, self.dim)
        vals = self._eval(np.concatenate([cP, _vertices(bounds).reshape(-1, self.dim)]))
        jac = self.cset.chart_jacobian(cP)
        return dict(bounds=bounds, w=w, q=q, ax=ax, cP=cP.reshape(m, k2, self.dim),
                    cw=cw.reshape(m, k2) * jac.reshape(m, k2),
                    cq=vals[:m * k2].reshape(m, k2), vq=vals[m * k2:].reshape(m, -1))

    def refine(self, mask):
        """Split the flagged cells; their halves inherit the child-level
        evaluations as their own parent level, so only grandchildren and
        vertices cost new evaluations."""
        halves = _split(self.bounds[mask], self.ax[mask]).reshape(-1, self.dim, 2)
        block = self._expand(halves, self.cw[mask].reshape(-1, self.k), self.cq[mask].reshape(-1, self.k))
        for key, val in block.items():
            setattr(self, key, np.concatenate([getattr(self, key)[~mask], val]))


class _Mass:
    """The rule's total mass as a function of the level L: the sum of
    w ((L - q)/M)_+^e over the nodes where q is finite.  Counts its passes
    over the rule in ``passes``."""

    def __init__(self, qv, wv, M, e):
        finite = np.isfinite(qv)
        if not finite.any():
            raise EquilibriumError("field is infinite at every quadrature node")
        self.q, self.w, self.M, self.e = qv[finite], wv[finite], M, e
        self.passes = 0

    def __call__(self, L):
        self.passes += 1
        return float(np.dot(self.w, _level_density(self.q, L, self.M, self.e)))


def _brent_l1(mass, scale):
    """Solve mass(L) = 1 by Brent's method and return the lower end of the
    final bracket: an L at or just below the root, where mass(L) <= 1.

    ``scale`` is the level of a zero field, M |A|^(-s/d).  The bracket
    starts at [min q, max q + scale + 1] and is widened until it holds
    the root.  Brent (Algorithms for Minimization without Derivatives,
    1973, ch. 4) interpolates inversely and falls back to bisection when
    the interpolant steps badly.  It stops once the lower end's mass is
    within 2 eps of 1, as close as the rounded sum can tell, or once the
    bracket is narrower than 4 eps |L| + 4 eps^2 scale.

    Ending on the lower end, and on the mass rather than on a vanishing
    bracket, matters when the root is 0, as for a designed field: when
    rounding leaves the rule's mass at 0 just short of 1, the rule's own
    root sits a hair above 0 (about that shortfall raised to the power
    s/d), and any L above 0 gives the designed zero region a positive
    density.  The absolute part of the bracket width keeps the search
    from chasing such a root closer to 0 than eps^2 of the level scale.
    """
    eps = float(np.finfo(float).eps)
    lo = float(mass.q.min())
    hi = float(mass.q.max()) + scale + 1.0
    grown = 0
    while (fhi := mass(hi) - 1.0) < 0.0:
        grown += 1
        if grown > 60:
            raise EquilibriumError("mass function cannot bracket 1; inconsistent inputs")
        hi = lo + 2.0 * (hi - lo)
    # no node carries mass at the smallest field value, so mass(lo) = 0
    # without a pass.  b is the best iterate, c the other end of the
    # bracket, a the previous b
    a, fa, b, fb = lo, -1.0, hi, fhi
    c, fc = a, fa
    step = prev = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = prev = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * eps * (abs(b) + eps * scale)
        half = 0.5 * (c - b)
        low, flow = (b, fb) if fb <= 0.0 else (c, fc)
        if flow >= -2.0 * eps or abs(half) <= tol:
            return low
        if abs(prev) >= tol and abs(fa) > abs(fb):
            r = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * r, 1.0 - r
            else:  # inverse quadratic through a, b, c
                qa, rc = fa / fc, fb / fc
                p = r * (2.0 * half * qa * (qa - rc) - (b - a) * (rc - 1.0))
                q = (qa - 1.0) * (rc - 1.0) * (r - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(prev * q)):
                prev, step = step, p / q
            else:
                step = prev = half
        else:
            step = prev = half
        a, fa = b, fb
        b += step if abs(step) > tol else (tol if half > 0.0 else -tol)
        fb = mass(b) - 1.0


def _refine(cells, integrand, tol, budget):
    """The adaptive loop shared by every integral on cells.

    Each round ``integrand(cells)`` returns the integrand at the parent-
    and child-level nodes, the cells to split whatever their estimate, and
    whether the caller's result has settled.  Cells whose split-compare
    estimate exceeds a quarter of the mean (or of tol per cell) are split.
    The round that stops has estimated the cells left behind; returns the
    solver_info of that round.
    """
    for rnd in range(1, _MAX_ROUNDS + 2):
        fp, fc, force, settled = integrand(cells)
        ests = np.abs(np.einsum("ck,ck->c", cells.w, fp) - np.einsum("ck,ck->c", cells.cw, fc))
        total = float(ests.sum())
        nc = len(ests)
        info = dict(rounds=rnd, cells=nc, nodes=cells.cq.size,
                    error_estimate=total, evaluations=cells.n_eval)
        if total <= tol and settled and not np.any(force):
            return info | {"stop_reason": "tol"}
        if cells.cq.size >= budget:
            return info | {"stop_reason": "budget"}
        if rnd > _MAX_ROUNDS:
            return info | {"stop_reason": "max_rounds"}
        mask = (ests > max(0.25 * total / nc, 0.25 * tol / nc)) | force
        if not mask.any():
            mask[int(np.argmax(ests))] = True
        cells.refine(mask)


# ---------------------------------------------------------------------------
# public surface


class EquilibriumMeasure:
    """Solved limiting measure: the constant L1 plus its density.

    ``density`` is a map over ambient points, positive exactly on the
    support; ``s_value`` is the first-order energy limit S(q, A).  The adaptive
    quadrature rule the equation was solved on is kept internally for
    integrals against the measure.
    """

    def __init__(self, cset, field, s, m_sd, l1, rule_w, rule_q, rule_P, info):
        self.set = cset
        self.field = field
        self.s = float(s)
        self.d = int(cset.hausdorff_dim)
        self.m_sd = m_sd
        self.l1 = float(l1)
        self._w = rule_w
        self._q = rule_q
        self._X = cset.chart(rule_P)
        self._g = _level_density(rule_q, self.l1, self.m_sd, self.d / self.s)
        self.solver_info = info

    def density(self, points: np.ndarray) -> np.ndarray:
        """dmu/dH_d at ambient points on the set."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        q = np.asarray(self.field.evaluate(pts), dtype=float)
        return _level_density(q, self.l1, self.m_sd, self.d / self.s)

    def integrate(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integral of fn against the measure (uses the internal rule)."""
        return float(np.dot(self._w * self._g, fn(self._X)))

    @property
    def mass(self) -> float:
        return float(np.dot(self._w, self._g))

    @property
    def support_fraction(self) -> float:
        return float(self._w[self._g > 0].sum() / self._w.sum())

    @property
    def s_value(self) -> float:
        """S(q, A): quadrature of (L1 + (s/d) q)/(1 + s/d) against mu."""
        ratio = self.s / self.d
        vals = np.where(self._g > 0, (self.l1 + ratio * np.where(np.isfinite(self._q), self._q, 0.0)) / (1.0 + ratio), 0.0)
        return float(np.dot(self._w * self._g, vals))


def solve_equilibrium(
    cset: CompactSet,
    field,
    s: float,
    c_sd: RieszConstant | None = None,
    budget: int = _NODE_BUDGET,
) -> EquilibriumMeasure:
    """Solve the mass equation for L1 and return the full measure.

    ``field`` needs an ``evaluate`` map over ambient points; an optional
    ``breaks`` attribute ({axis: parameter values}) pins known kinks of
    q to quadrature cell edges.  Refinement stops once the rule's own
    error estimate for the total mass integral is below 1e-9
    (``_MASS_TOL``), or once the rule has ``budget`` child nodes,
    starting from 32 cells on curves and 24 x 24 on surfaces.  The
    measure's ``solver_info`` holds the rounds, cells, nodes, error
    estimate and field evaluations of the final rule, the passes of the
    mass sum over the whole solve (``mass_evaluations``), and
    ``stop_reason``: ``tol``, ``budget`` or ``max_rounds``.  ``tol`` also
    needs L1 settled: last round's L1 must solve this round's mass
    equation to within the tolerance.
    """
    d = cset.hausdorff_dim
    s = float(s)
    M = m_constant(s, d, c_sd)
    e = d / s
    scale = M * max(cset.total_measure, 1e-300) ** (-s / d)
    L = None
    passes = 0

    def integrand(cells):
        # solve for L on this round's rule, then flag the cells that
        # straddle the support boundary: they can hide mass between the
        # boundary and the outermost node at every level while both
        # levels agree on zero, and their vertex values expose the
        # crossing.  L has settled once last round's L solves this
        # round's mass equation to within the tolerance
        nonlocal L, passes
        mass = _Mass(cells.cq.ravel(), cells.cw.ravel(), M, e)
        settled = L is not None and abs(mass(L) - 1.0) <= _MASS_TOL
        L = _brent_l1(mass, scale)
        passes += mass.passes
        allq = np.concatenate([cells.q, cells.cq, cells.vq], axis=1)
        fin = np.isfinite(allq)
        qmin = np.where(fin, allq, np.inf).min(axis=1)
        qmax = np.where(fin, allq, -np.inf).max(axis=1)
        hidden = np.abs(cells.cw).sum(axis=1) * _level_density(qmin, L, M, e)
        straddle = (qmin < L) & (L < qmax) & (hidden > 0.25 * _MASS_TOL / len(qmin))
        return _level_density(cells.q, L, M, e), _level_density(cells.cq, L, M, e), straddle, settled

    cells = _Cells(cset, field.evaluate, breaks=getattr(field, "breaks", None))
    info = _refine(cells, integrand, _MASS_TOL, budget) | {"mass_evaluations": passes}
    return EquilibriumMeasure(
        cset, field, s, M, L,
        cells.cw.ravel(), cells.cq.ravel(),
        cells.cP.reshape(-1, cells.dim), info,
    )


def integrate_adaptive(cset: CompactSet, fn: Callable[[np.ndarray], np.ndarray], breaks=None) -> float:
    """Adaptive integral of fn over the set, refined by split-compare
    until the error estimate is below 1e-12 (``_INTEGRAL_TOL``); raises
    EquilibriumError when refinement stops on its node budget or round
    limit first.

    Shares the cells and the refinement loop of the equilibrium solver.  Integrands
    whose support ends between quadrature nodes need their edges passed
    as ``breaks``; there is no free support detection here because no
    level-set structure is available for a generic integrand.
    """
    def finite(v):
        return np.where(np.isfinite(v), v, 0.0)

    def integrand(cells):
        return finite(cells.q), finite(cells.cq), False, True

    cells = _Cells(cset, fn, breaks=breaks)
    info = _refine(cells, integrand, _INTEGRAL_TOL, _NODE_BUDGET)
    if info["stop_reason"] != "tol":
        raise EquilibriumError(
            f"adaptive integral stopped on {info['stop_reason']} before meeting its tolerance: "
            f"error estimate {info['error_estimate']:.3g} on {info['nodes']} nodes"
        )
    return float(np.dot(cells.cw.ravel(), finite(cells.cq).ravel()))
