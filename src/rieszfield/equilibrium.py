"""Limiting equilibrium measure of the weighted energy.

For s >= d the N-point minimizers distribute, in the large-N limit,
according to a density of the form ((L1 - q)/M)^(d/s) clipped at zero,
where L1 is fixed by unit total mass.  This module solves that scalar
equation with bisection on top of an adaptive composite Gauss-Legendre
rule in parameter space, refined where the integrand misbehaves: the
clipped power law has kinks along the support boundary, external fields
can have poles, and the fixed product rules of the geometry module are
nowhere near the accuracy the printed constants demand.

Cells are refined on a split-compare error estimate (cell integral vs
the sum over its two halves).  Two failure modes of that estimate are
handled explicitly: support boundaries that slip between quadrature
nodes of both levels (caught by evaluating q at cell vertices and
force-refining straddling cells) and known interior kinks of q (the
caller passes their parameter-space locations as ``breaks`` so they sit
on cell edges from the start).
"""

from __future__ import annotations

import csv
import math
from typing import Callable

import numpy as np

from .constants import RieszConstant, m_constant, riesz_constant
from .geometry import CompactSet

__all__ = [
    "EquilibriumError",
    "EquilibriumMeasure",
    "solve_equilibrium",
    "integrate_adaptive",
]

_GL3_X, _GL3_W = np.polynomial.legendre.leggauss(3)


class EquilibriumError(RuntimeError):
    """Raised when the mass equation cannot be solved on the given inputs."""


# ---------------------------------------------------------------------------
# adaptive cell machinery


def _gpow(x: np.ndarray, e: float) -> np.ndarray:
    """x**e for x >= 0 with fast paths for the exponents d/s in use."""
    if e == 1.0:
        return x
    if e == 0.5:
        return np.sqrt(x)
    if e == 0.25:
        return np.sqrt(np.sqrt(x))
    return x ** e


def _axis_nodes(b):
    # b: (m, 2) axis intervals -> GL3 nodes (m, 3) and weights (m, 3)
    mid = 0.5 * (b[:, 0] + b[:, 1])
    half = 0.5 * (b[:, 1] - b[:, 0])
    return mid[:, None] + half[:, None] * _GL3_X, half[:, None] * _GL3_W


def _tensor(bounds):
    # bounds: (m, dim, 2) -> nodes (m, k, dim), weights (m, k), k = 3^dim
    dim = bounds.shape[1]
    if dim == 1:
        x, w = _axis_nodes(bounds[:, 0])
        return x[:, :, None], w
    x0, w0 = _axis_nodes(bounds[:, 0])
    x1, w1 = _axis_nodes(bounds[:, 1])
    p0 = np.repeat(x0, 3, axis=1)
    p1 = np.tile(x1, (1, 3))
    return np.stack([p0, p1], axis=2), np.repeat(w0, 3, axis=1) * np.tile(w1, (1, 3))


def _vertices(bounds):
    dim = bounds.shape[1]
    if dim == 1:
        return bounds[:, 0, :, None]  # (m, 2, 1)
    a, b = bounds[:, 0, 0], bounds[:, 0, 1]
    c, d = bounds[:, 1, 0], bounds[:, 1, 1]
    return np.stack(
        [
            np.stack([a, c], 1),
            np.stack([a, d], 1),
            np.stack([b, c], 1),
            np.stack([b, d], 1),
        ],
        axis=1,
    )


def _split(bounds, ax):
    # halve each cell along its axis: returns (m, 2, dim, 2)
    m = len(bounds)
    rows = np.arange(m)
    mid = 0.5 * (bounds[rows, ax, 0] + bounds[rows, ax, 1])
    lo = bounds.copy()
    hi = bounds.copy()
    lo[rows, ax, 1] = mid
    hi[rows, ax, 0] = mid
    return np.stack([lo, hi], axis=1)


class _Cells:
    """Flat arrays describing the active cells of an adaptive rule.

    Per cell: parameter bounds, the values of the integrand factor q at
    its own GL3 tensor nodes (q, w), at the nodes of its two halves
    (cq, cw, cP) and at its vertices (vq).  The child-level rule is the
    one actually integrated with; the parent level only feeds the
    split-compare error estimate.
    """

    def __init__(self, cset: CompactSet, evalfn: Callable, breaks=None, n0=None):
        self.cset = cset
        self.evalfn = evalfn
        self.dim = len(cset.param_bounds)
        self.k = 3 ** self.dim
        self.n_eval = 0
        edges = []
        n0 = n0 or ((32,) if self.dim == 1 else (24, 24))
        if not np.iterable(n0):
            n0 = (n0,) * self.dim
        for axis, ((lo, hi), n_ax) in enumerate(zip(cset.param_bounds, n0)):
            e = np.linspace(lo, hi, int(n_ax) + 1)
            for brk in (breaks or {}).get(axis, ()):  # pin known kinks to cell edges
                if lo < brk < hi and np.abs(e - brk).min() > 1e-9 * (hi - lo):
                    e = np.sort(np.append(e, brk))
            edges.append(e)
        if self.dim == 1:
            bounds = np.stack([edges[0][:-1], edges[0][1:]], axis=1)[:, None, :]
        else:
            b0 = np.stack([edges[0][:-1], edges[0][1:]], axis=1)
            b1 = np.stack([edges[1][:-1], edges[1][1:]], axis=1)
            bounds = np.empty((len(b0) * len(b1), 2, 2))
            bounds[:, 0, :] = np.repeat(b0, len(b1), axis=0)
            bounds[:, 1, :] = np.tile(b1, (len(b0), 1))
        self.bounds = bounds
        P, w = _tensor(bounds)
        q = self._eval(P.reshape(-1, self.dim)).reshape(len(bounds), self.k)
        jac = cset.chart_jacobian(P.reshape(-1, self.dim)).reshape(w.shape)
        self._expand(bounds, w * jac, q)

    def _eval(self, P):
        self.n_eval += len(P)
        return np.asarray(self.evalfn(self.cset.chart(P)), dtype=float)

    def _choose_axis(self, q):
        if self.dim == 1:
            return np.zeros(len(q), dtype=int)
        grid = np.where(np.isfinite(q), q, np.nan).reshape(-1, 3, 3)
        with np.errstate(invalid="ignore"):
            v0 = np.nansum(np.abs(np.diff(grid, axis=1)), axis=(1, 2))
            v1 = np.nansum(np.abs(np.diff(grid, axis=2)), axis=(1, 2))
        widths = self.bounds_new[:, :, 1] - self.bounds_new[:, :, 0]
        ax = np.where(v0 > v1, 0, 1)
        tie = ~(v0 > v1) & ~(v1 > v0)  # equal or both nan: split the wider axis
        ax[tie] = np.argmax(widths[tie], axis=1)
        return ax

    def _expand(self, bounds, w, q):
        # given parent-level data for a batch of cells, evaluate their
        # vertices and the nodes of their two halves, then append
        self.bounds_new = bounds
        ax = self._choose_axis(q)
        halves = _split(bounds, ax)
        cb = halves.reshape(-1, self.dim, 2)
        cP, cw = _tensor(cb)
        m = len(bounds)
        cP = cP.reshape(m, 2 * self.k, self.dim)
        cw = cw.reshape(m, 2 * self.k)
        V = _vertices(bounds)
        flatP = np.concatenate([cP.reshape(-1, self.dim), V.reshape(-1, self.dim)])
        vals = self._eval(flatP)
        nc = m * 2 * self.k
        cq = vals[:nc].reshape(m, 2 * self.k)
        vq = vals[nc:].reshape(m, V.shape[1])
        jac = self.cset.chart_jacobian(cP.reshape(-1, self.dim)).reshape(m, 2 * self.k)
        block = dict(bounds=bounds, w=w, q=q, ax=ax, cP=cP, cw=cw * jac, cq=cq, vq=vq)
        if not hasattr(self, "w"):
            for key, val in block.items():
                setattr(self, key, val)
        else:
            for key, val in block.items():
                setattr(self, key, np.concatenate([getattr(self, key), val]))

    def refine(self, mask):
        """Split the flagged cells; their halves inherit the child-level
        evaluations as their own parent level, so only grandchildren and
        vertices cost new evaluations."""
        keep = ~mask
        halves = _split(self.bounds[mask], self.ax[mask])
        new_bounds = halves.reshape(-1, self.dim, 2)
        new_w = self.cw[mask].reshape(-1, self.k)
        new_q = self.cq[mask].reshape(-1, self.k)
        for key in ("bounds", "w", "q", "ax", "cP", "cw", "cq", "vq"):
            setattr(self, key, getattr(self, key)[keep])
        self._expand(new_bounds, new_w, new_q)

    @property
    def n_cells(self):
        return len(self.bounds)

    @property
    def n_child_nodes(self):
        return self.cq.size


def _bisect_l1(qv, wv, s, d, M, total_measure, iters=80):
    """Solve mass(L) = 1 on the rule (qv, wv) by bracketed bisection."""
    finite = np.isfinite(qv)
    if not finite.any():
        raise EquilibriumError("field is infinite at every quadrature node")
    qf = qv[finite]
    wf = wv[finite]
    e = d / s
    lo = float(qf.min())
    hi = float(qf.max()) + M * max(total_measure, 1e-300) ** (-s / d) + 1.0

    def mass(L):
        return float(np.dot(wf, _gpow(np.clip((L - qf) / M, 0.0, None), e)))

    grown = 0
    while mass(hi) < 1.0:
        grown += 1
        if grown > 60:
            raise EquilibriumError("mass function cannot bracket 1; inconsistent inputs")
        hi = lo + 2.0 * (hi - lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mass(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _adaptive_solve(cset, qfn, s, d, M, breaks=None, tol=1e-9, n0=None,
                    max_rounds=48, budget=500_000):
    cells = _Cells(cset, qfn, breaks=breaks, n0=n0)
    e = d / s
    L = None
    L_prev = None
    info = {}
    for rnd in range(max_rounds):
        L = _bisect_l1(cells.cq.ravel(), cells.cw.ravel(), s, d, M, cset.total_measure)
        nc = cells.n_cells

        gq = _gpow(np.clip(np.where(np.isfinite(cells.q), (L - cells.q) / M, 0.0), 0.0, None), e)
        gc = _gpow(np.clip(np.where(np.isfinite(cells.cq), (L - cells.cq) / M, 0.0), 0.0, None), e)
        ests = np.abs(
            np.einsum("ck,ck->c", cells.w, gq) - np.einsum("ck,ck->c", cells.cw, gc)
        )
        total = float(ests.sum())

        # support-boundary cells can hide mass between the boundary and
        # the outermost node at every refinement level while both levels
        # agree on zero; vertex values expose the crossing
        allq = np.concatenate([cells.q, cells.cq, cells.vq], axis=1)
        fin = np.isfinite(allq)
        qmin = np.where(fin, allq, np.inf).min(axis=1)
        qmax = np.where(fin, allq, -np.inf).max(axis=1)
        hidden = np.abs(cells.cw).sum(axis=1) * _gpow(np.clip((L - qmin) / M, 0.0, None), e)
        straddle = (qmin < L) & (L < qmax) & (hidden > 0.25 * tol / nc)

        stable = L_prev is not None and abs(L - L_prev) <= 1e-13 * max(1.0, abs(L))
        L_prev = L
        info = dict(rounds=rnd + 1, cells=nc, nodes=cells.n_child_nodes,
                    error_estimate=total, evaluations=cells.n_eval)
        if total < tol and stable and not straddle.any():
            break
        if cells.n_child_nodes >= budget:
            break
        cut = max(0.25 * total / nc, 0.25 * tol / nc)
        mask = (ests > cut) | straddle
        if not mask.any():
            if stable:
                break
            mask[int(np.argmax(ests))] = True
        cells.refine(mask)
    else:
        L = _bisect_l1(cells.cq.ravel(), cells.cw.ravel(), s, d, M, cset.total_measure)
        info["rounds"] = max_rounds
    return L, cells, info


# ---------------------------------------------------------------------------
# public surface


class EquilibriumMeasure:
    """Solved limiting measure: the constant L1 plus its density.

    ``density`` and ``support_indicator`` are maps over ambient points;
    ``s_value`` is the first-order energy limit S(q, A).  The adaptive
    quadrature rule the equation was solved on is kept internally for
    integrals against the measure and for table export.
    """

    def __init__(self, cset, field, s, c_sd, l1, rule_w, rule_q, rule_P, info):
        self.set = cset
        self.field = field
        self.s = float(s)
        self.d = int(cset.hausdorff_dim)
        self.c_sd = c_sd
        self.m_sd = m_constant(s, self.d, c_sd)
        self.l1 = float(l1)
        self._w = rule_w
        self._q = rule_q
        self._P = rule_P
        self._X = cset.chart(rule_P)
        self._g = self._clip_power(rule_q)
        self.solver_info = info

    def _clip_power(self, q):
        vals = np.where(np.isfinite(q), q, np.inf)
        return _gpow(np.clip((self.l1 - vals) / self.m_sd, 0.0, None), self.d / self.s)

    def density(self, points: np.ndarray) -> np.ndarray:
        """dmu/dH_d at ambient points on the set."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._clip_power(np.asarray(self.field.evaluate(pts), dtype=float))

    def support_indicator(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        q = np.asarray(self.field.evaluate(pts), dtype=float)
        return np.where(np.isfinite(q), q, np.inf) <= self.l1

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

    def summary(self) -> dict:
        return {
            "l1": self.l1,
            "s_value": self.s_value,
            "support_fraction": self.support_fraction,
        }

    def to_csv(self, path) -> None:
        """Density table: node coordinates, weight, q, density."""
        p = self._X.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i + 1}" for i in range(p)] + ["weight", "q", "density"])
            for row_x, w, q, g in zip(self._X, self._w, self._q, self._g):
                writer.writerow(
                    [f"{c:.17g}" for c in row_x]
                    + [f"{w:.17g}", f"{q:.17g}" if np.isfinite(q) else "inf", f"{g:.17g}"]
                )


def solve_equilibrium(
    cset: CompactSet,
    field,
    s: float,
    c_sd: RieszConstant | None = None,
    tol: float = 1e-9,
    n0=None,
    budget: int = 500_000,
) -> EquilibriumMeasure:
    """Solve the mass equation for L1 and return the full measure.

    ``field`` needs an ``evaluate`` map over ambient points; an optional
    ``breaks`` attribute ({axis: parameter values}) pins known kinks of
    q to quadrature cell edges.  ``tol`` bounds the rule's own error
    estimate for the total mass integral.
    """
    d = cset.hausdorff_dim
    s = float(s)
    if s < d:
        raise ValueError("hypersingular regime requires s >= d")
    if c_sd is None:
        c_sd = riesz_constant(s, d)
    M = m_constant(s, d, c_sd)
    node_q = np.asarray(field.evaluate(cset.nodes), dtype=float)
    if not np.isfinite(node_q).any():
        raise EquilibriumError("field is infinite at every quadrature node")
    L, cells, info = _adaptive_solve(
        cset, field.evaluate, s, d, M,
        breaks=getattr(field, "breaks", None), tol=tol, n0=n0, budget=budget,
    )
    return EquilibriumMeasure(
        cset, field, s, c_sd, L,
        cells.cw.ravel(), cells.cq.ravel(),
        cells.cP.reshape(-1, cells.dim), info,
    )


def integrate_adaptive(
    cset: CompactSet,
    fn: Callable[[np.ndarray], np.ndarray],
    breaks=None,
    tol: float = 1e-11,
    n0=None,
    max_rounds: int = 48,
    budget: int = 500_000,
) -> float:
    """Adaptive integral of fn over the set, refined by split-compare.

    Shares the cell machinery of the equilibrium solver.  Integrands
    whose support ends between quadrature nodes need their edges passed
    as ``breaks``; there is no free support detection here because no
    level-set structure is available for a generic integrand.
    """
    cells = _Cells(cset, fn, breaks=breaks, n0=n0)
    for _ in range(max_rounds):
        fp = np.where(np.isfinite(cells.q), cells.q, 0.0)
        fc = np.where(np.isfinite(cells.cq), cells.cq, 0.0)
        ests = np.abs(
            np.einsum("ck,ck->c", cells.w, fp) - np.einsum("ck,ck->c", cells.cw, fc)
        )
        total = float(ests.sum())
        if total < tol or cells.n_child_nodes >= budget:
            break
        cut = max(0.25 * total / cells.n_cells, 0.25 * tol / cells.n_cells)
        mask = ests > cut
        if not mask.any():
            mask[int(np.argmax(ests))] = True
        cells.refine(mask)
    fc = np.where(np.isfinite(cells.cq), cells.cq, 0.0)
    return float(np.dot(cells.cw.ravel(), fc.ravel()))
