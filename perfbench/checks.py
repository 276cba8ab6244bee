"""Independent output checks.

Everything here is the benchmark's own arithmetic: a blocked dense pair
sum, the first-order scale tau, geometric distance to each built-in
set, and a brute-force minimum distance.  Nothing calls ``optimizer``
or ``diagnostics``, so a wrong answer from either shows up as a failed
check instead of agreeing with itself.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# reported energy vs the benchmark's own sum, relative to |pair| + |field|:
# loose enough for any summation order, tight enough for any wrong kernel
ENERGY_RTOL = 1e-6
SEPARATION_RTOL = 1e-12
ON_SET_RTOL = 1e-9  # times the set diameter
_BLOCK = 256


class Checks:
    """Named pass/fail outcomes of one pass."""

    def __init__(self):
        self.items = []  # (name, ok, detail)

    def add(self, name, ok, detail=""):
        self.items.append((name, bool(ok), str(detail)))


def tau(s, d, n):
    return n * n * math.log(n) if s == d else float(n) ** (1.0 + s / d)


def _row_blocks(X):
    """Squared distances of each block of rows to all rows, the
    diagonal set to +inf."""
    n = len(X)
    for i0 in range(0, n, _BLOCK):
        diff = X[i0:i0 + _BLOCK, None, :] - X[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", diff, diff)
        rows = np.arange(len(r2))
        r2[rows, rows + i0] = np.inf
        yield r2


def pair_energy(X, s):
    """Sum over ordered pairs of |x - y|^-s."""
    return float(sum((r2 ** (-0.5 * s)).sum() for r2 in _row_blocks(X)))


def min_distance(X):
    return math.sqrt(min(float(r2.min()) for r2 in _row_blocks(X)))


def energy_terms(X, q_values, s, d):
    """(pair sum, field term) of the discrete energy at N = len(X)."""
    n = len(X)
    return pair_energy(X, s), tau(s, d, n) / n * float(np.sum(q_values))


def set_residual(X, cset):
    """Largest distance from a point to the set, by the set's own formula."""
    p = cset.params
    if cset.kind == "interval":
        x = X[:, 0]
        return float(np.maximum(np.maximum(p["a"] - x, x - p["b"]), 0.0).max())
    if cset.kind == "sphere":
        return float(np.abs(np.linalg.norm(X, axis=1) - p["radius"]).max())
    if cset.kind == "torus":
        big_r = 0.5 * (p["r_outer"] + p["r_inner"])
        tube = 0.5 * (p["r_outer"] - p["r_inner"])
        rho = np.hypot(X[:, 0], X[:, 1])
        return float(np.abs(np.hypot(rho - big_r, X[:, 2]) - tube).max())
    raise ValueError(f"no residual formula for set kind {cset.kind!r}")


def read_points(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in r] for r in rows])


def read_trace_energies(path):
    with open(path, newline="") as fh:
        return np.array([float(r["energy"]) for r in csv.DictReader(fh)])


def check_energy(checks, label, reported, X, fld, s, cset):
    """Recompute E and E/tau; returns E/tau."""
    pair, field = energy_terms(X, fld.evaluate(X), s, cset.hausdorff_dim)
    own = pair + field
    err = abs(own - reported) / (abs(pair) + abs(field))
    checks.add(f"{label}.energy", err <= ENERGY_RTOL, f"own {own!r} reported {reported!r} rel {err:.3g}")
    return own / tau(s, cset.hausdorff_dim, len(X))


def check_separation(checks, label, reported, X):
    own = min_distance(X)
    err = abs(own - reported) / own
    checks.add(f"{label}.separation", err <= SEPARATION_RTOL, f"own {own!r} reported {reported!r}")


def check_on_set(checks, label, X, cset):
    res = set_residual(X, cset)
    checks.add(f"{label}.on_set", res <= ON_SET_RTOL * cset.diameter, f"residual {res:.3g}")


def check_run_dir(checks, label, out_dir, cset, fld, s, windows=True):
    """Checks on one CLI run directory; returns (E/tau, S(q, A))."""
    with open(out_dir / "report.json") as fh:
        report = json.load(fh)
    X = read_points(out_dir / "points.csv")
    ratio = check_energy(checks, label, report["energy"], X, fld, s, cset)
    energies = read_trace_energies(out_dir / "trace.csv")
    rises = int(np.sum(np.diff(energies) > 0))
    checks.add(f"{label}.trace_monotone", len(energies) > 0 and rises == 0, f"{rises} increases")
    check_on_set(checks, label, X, cset)
    check_separation(checks, label, report["diagnostics"]["separation"], X)
    if windows:
        for name, c in report["comparison"]["checks"].items():
            checks.add(f"{label}.window.{name}", c["within"], f"computed {c['computed']!r}")
    return ratio, report["s_value"]
