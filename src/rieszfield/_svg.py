"""Minimal self-contained SVG scatter plot.

Renders a projected point configuration over its support-boundary
overlay (drawn as small dots tracing the contour) as SVG text, which
the CLI writes to scatter.svg.  Everything else is left to the exported
CSV tables; this is a quick visual sanity check, not a plotting library.
"""

from __future__ import annotations

import numpy as np

from .geometry import _grid

_W = 640
_H = 640
_PAD = 40
# parameter grid points per axis of a contour, by parameter dimension
_CONTOUR_RES = {1: 8800, 2: 220}


def _bbox(arrays):
    pts = np.concatenate([a for a in arrays if len(a)], axis=0)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    lo = lo - 0.05 * span
    hi = hi + 0.05 * span
    return lo, hi


def scatter_svg(points: np.ndarray, contour: np.ndarray, title: str) -> str:
    """The SVG text of a 2-D scatter with contour dots."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    contour = np.atleast_2d(np.asarray(contour, dtype=float))
    lo, hi = _bbox([points, contour])
    span = hi - lo
    scale = min((_W - 2 * _PAD) / span[0], (_H - 2 * _PAD) / span[1])

    def sx(x):
        return _PAD + (x - lo[0]) * scale

    def sy(y):
        return _H - _PAD - (y - lo[1]) * scale  # SVG y grows downward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for x, y in contour:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="1" fill="#cc4444"/>')
    for x, y in points:
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="#33658a" '
            f'fill-opacity="0.85"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def project_points(X: np.ndarray) -> np.ndarray:
    """Ambient points to the 2-D plot plane: 1-D sets sit on the x-axis,
    higher-dimensional ambients drop to their first two coordinates."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] == 1:
        return np.column_stack([X[:, 0], np.zeros(len(X))])
    return X[:, :2]


def support_contour(measure) -> np.ndarray:
    """Ambient midpoints of parameter-grid edges where the density of
    ``measure`` turns positive; projected, they trace its support boundary."""
    cset = measure.set
    dim = len(cset.param_bounds)
    res = _CONTOUR_RES[dim]
    grids = [np.linspace(a, b, res) for a, b in cset.param_bounds]
    P = _grid(grids)
    ind = (measure.density(cset.chart(P)) > 0).reshape((res,) * dim)
    segs = []
    for ax in range(dim):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        flip = np.nonzero(ind[lo] != ind[hi])
        if len(flip[0]):
            cols = [g[i] for g, i in zip(grids, flip)]
            cols[ax] = 0.5 * (grids[ax][flip[ax]] + grids[ax][flip[ax] + 1])
            segs.append(np.column_stack(cols))
    if not segs:
        return np.zeros((0, 2))
    return project_points(cset.chart(np.concatenate(segs, axis=0)))
