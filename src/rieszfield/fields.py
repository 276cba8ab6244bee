"""External fields: the worked examples, the inverse designer, stability.

A field is anything with an ``evaluate`` map over ambient points; +inf
values model lower-semicontinuous fields with poles.  The designer
inverts the equilibrium problem: given a target density rho it returns
the field q = -M * rho^(s/d) whose limiting measure is exactly rho dH_d
(the constant of the mass equation comes out to zero).  The stability
helper perturbs such a designed field multiplicatively and reports the
re-solved density together with its first-order deviation bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import RieszConstant, m_constant, riesz_constant
from .equilibrium import integrate_adaptive, solve_equilibrium
from .geometry import CompactSet, _by_rows, _descriptor, _row_dot

__all__ = [
    "ExternalField",
    "DensityMap",
    "FieldDesign",
    "PerturbedDensity",
    "catalog",
    "design_field",
    "perturbed_density",
    "field_gradient",
    "density_from_descriptor",
    "field_from_descriptor",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# a target mass farther than this from 1 is renormalized here, refused by the CLI
_UNIT_MASS_TOL = 1e-4


@dataclass(frozen=True)
class ExternalField:
    """External field q: evaluate returns values (+inf allowed), gradient
    optional (ambient vectors); ``breaks`` lists parameter-space kink
    locations per axis for the adaptive quadrature."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""
    breaks: dict | None = None


@dataclass(frozen=True)
class DensityMap:
    """Density on a set: evaluate gives dH_d-density values at points."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    breaks: dict | None = None
    label: str = ""


def field_gradient(fld: ExternalField, points: np.ndarray, cset: CompactSet) -> np.ndarray:
    """Field gradient at ambient points; central differences when no
    analytic gradient is attached (step 1e-6 times the set diameter)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if fld.gradient is not None:
        return np.asarray(fld.gradient(pts), dtype=float)
    h = 1e-6 * cset.diameter
    out = np.empty_like(pts)
    for j in range(pts.shape[1]):
        step = np.zeros_like(pts)
        step[:, j] = h
        out[:, j] = (fld.evaluate(pts + step) - fld.evaluate(pts - step)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# catalog


def _norm(X):
    # row norms, bit for bit np.linalg.norm(X, axis=1)
    return np.sqrt(_row_dot(X, X))


def _z_coord(X, n):
    # third coordinate normalized to the unit sphere, from the row norms
    # n; the polar fields extend off the sphere along rays so probes stay
    # well defined
    return X[:, 2] / np.where(n > 0, n, 1.0)


# The polynomial fields write integer powers as products: numpy sends
# u**k for k other than 2 to libm pow, which costs over ten times as much.


def _t3_powers(z):
    # the Chebyshev polynomial t = T_3(z) = 4 z^3 - 3 z, t^2, t^4 and t^8
    t = 4.0 * (z * z * z) - 3.0 * z
    t2 = t * t
    t4 = t2 * t2
    return t, t2, t4, t4 * t4


def _qa_eval(X):
    t8 = _t3_powers(_z_coord(X, _norm(X)))[3]
    return t8 * t8


def _z_chain(X, n, dz):
    # ambient gradient of q(z) from dq/dz, chain rule through z = x3/|x|
    # with the row norms n
    n3 = n * n * n
    out = np.empty_like(X)
    out[:, 0] = dz * (-X[:, 2] * X[:, 0] / n3)
    out[:, 1] = dz * (-X[:, 2] * X[:, 1] / n3)
    out[:, 2] = dz * (1.0 / n - X[:, 2] * X[:, 2] / n3)
    return out


def _qa_grad(X):
    n = _norm(X)
    z = _z_coord(X, n)
    t, t2, t4, t8 = _t3_powers(z)
    return _z_chain(X, n, 16.0 * (t8 * t4 * t2 * t) * (12.0 * z * z - 3.0))


def _caps_raw(X):
    z = _z_coord(X, _norm(X))
    z2 = z * z
    t4 = 8.0 * (z2 * z2) - 8.0 * z2 + 1.0
    return np.where(z2 > 0.5, (10.0 * t4 + 11.0) / (2.0 * np.pi), 1.0 / (2.0 * np.pi))


# total mass of the unnormalized polar-caps profile on the unit sphere
# (published as approximately 5.581722): with dH_2 = 2 pi dz, the band
# gives sqrt(2) and the caps 2 (F(1) - F(1/sqrt(2))), where
# F(z) = 16 z^5 - 80 z^3 / 3 + 21 z
_CAPS_NORMALIZER = (62.0 - 32.0 * np.sqrt(2.0)) / 3.0


def _qb_eval(X):
    return -2.0 * np.pi * _caps_raw(X) / _CAPS_NORMALIZER


def _qb_grad(X):
    n = _norm(X)
    z = _z_coord(X, n)
    draw = np.where(z * z > 0.5, 10.0 * (32.0 * (z * z * z) - 16.0 * z) / (2.0 * np.pi), 0.0)
    return _z_chain(X, n, -2.0 * np.pi * draw / _CAPS_NORMALIZER)


def _radial_eval(center, exponent, scale):
    center = np.asarray(center, dtype=float)

    def ev(X):
        r = _norm(np.atleast_2d(X) - center)
        with np.errstate(divide="ignore"):
            v = scale * r**exponent
        if exponent < 0:
            v = np.where(r < 1e-12, np.inf, v)
        return v

    def gr(X):
        D = np.atleast_2d(X) - center
        r = _norm(D)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = scale * exponent * r ** (exponent - 2.0)
        return _by_rows(np.multiply, D, f)

    return ev, gr


_QC_EVAL, _QC_GRAD = _radial_eval((4.0, 0.0, 0.0), -2.0, 1.0)
_QD1_EVAL, _QD1_GRAD = _radial_eval((1.0, 0.0, 0.0), -4.0, 1e-3)
_QD2_EVAL, _QD2_GRAD = _radial_eval((0.5691, 0.8223, 0.0), -4.0, 1e-3)


def _qd_eval(X):
    return _QD1_EVAL(X) + _QD2_EVAL(X)


def _qd_grad(X):
    return _QD1_GRAD(X) + _QD2_GRAD(X)


def _qe_terms(X):
    # u = x - 1.6 and v = x - 0.2 with u^2 and v^2
    x = np.atleast_2d(X)[:, 0]
    u, v = x - 1.6, x - 0.2
    return u, v, u * u, v * v


def _qe_eval(X):
    u, v, u2, v2 = _qe_terms(X)
    return u2 * u2 + 40.0 * (v2 * v2) * u2


def _qe_grad(X):
    u, v, u2, v2 = _qe_terms(X)
    d = 4.0 * (u2 * u) + 40.0 * (4.0 * (v2 * v) * u2 + 2.0 * (v2 * v2) * u)
    return d[:, None]


def catalog(example_id: str) -> ExternalField:
    """Worked-example fields: 'a' polar polynomial on the sphere, 'b'
    attracting polar caps, 'c' single repeller near a torus, 'd' two
    repellers on the sphere, 'e' two-well polynomial on an interval."""
    table = {
        "a": lambda: ExternalField(_qa_eval, _qa_grad, "q_a"),
        "b": lambda: ExternalField(
            _qb_eval, _qb_grad, "q_b", breaks={0: (-_INV_SQRT2, _INV_SQRT2)}
        ),
        "c": lambda: ExternalField(_QC_EVAL, _QC_GRAD, "q_c"),
        "d": lambda: ExternalField(_qd_eval, _qd_grad, "q_d"),
        "e": lambda: ExternalField(_qe_eval, _qe_grad, "q_e"),
    }
    try:
        return table[str(example_id)]()
    except KeyError:
        raise ValueError(f"unknown catalog field {example_id!r}; expected one of a..e") from None


# ---------------------------------------------------------------------------
# inverse design


@dataclass(frozen=True)
class FieldDesign:
    """Designed field realizing a prescribed limiting density."""

    target_density: DensityMap
    m_constant: float
    q: ExternalField
    renormalized: bool = False


def design_field(cset: CompactSet, rho, s: float, c_sd=None) -> FieldDesign:
    """Field q = -M rho^(s/d) whose limiting measure has density rho.

    rho may be a DensityMap or a plain callable over ambient points.  It
    is normalized to unit mass against H_d; if the input was off by more
    than 1e-4 the design is flagged renormalized and a warning is
    issued.  For s = d the same expression applies with M = M_{d,d} =
    2 pi^(d/2) / Gamma(d/2 + 1).
    """
    d = cset.hausdorff_dim
    s = float(s)
    if c_sd is None:
        c_sd = riesz_constant(s, d)
    M = m_constant(s, d, c_sd)
    if not isinstance(rho, DensityMap):
        rho = DensityMap(rho)
    vals = np.asarray(rho.evaluate(cset.nodes), dtype=float)
    if np.any(vals < 0):
        raise ValueError("density must be nonnegative")
    if not np.any(vals > 0):
        raise ValueError("density is zero at every quadrature node")
    total = integrate_adaptive(cset, rho.evaluate, breaks=rho.breaks)
    if total <= 0:
        raise ValueError("density integrates to zero")
    renorm = abs(total - 1.0) > _UNIT_MASS_TOL
    if renorm:
        warnings.warn(
            f"target density integrates to {total:.6g}; renormalizing to unit mass",
            stacklevel=2,
        )
    ratio = s / d
    rho_n = DensityMap(
        lambda X, _f=rho.evaluate, _Z=total: np.asarray(_f(X), dtype=float) / _Z,
        breaks=rho.breaks,
        label=rho.label,
    )

    def q_eval(X, _f=rho_n.evaluate):
        return -M * np.asarray(_f(X), dtype=float) ** ratio

    q = ExternalField(q_eval, None, label=f"designed({rho.label or 'rho'})", breaks=rho.breaks)
    return FieldDesign(rho_n, M, q, renorm)


# ---------------------------------------------------------------------------
# stability of the designed problem


@dataclass(frozen=True)
class PerturbedDensity:
    """Re-solved density for q' = (1+delta) q and its deviation bound."""

    density: Callable[[np.ndarray], np.ndarray]
    bound: Callable[[np.ndarray], np.ndarray]
    base_density: Callable[[np.ndarray], np.ndarray]
    l1: float


def perturbed_density(cset: CompactSet, rho, s: float, delta: float) -> PerturbedDensity:
    """Re-solve the designed problem for rho with a misjudged constant.

    Models designing the field with M' = M + delta instead of the true
    M (equivalently scaling q by 1 + delta/M), then solving the mass
    equation with the true constant.  Returns the resulting density
    together with the first-order pointwise deviation bound
    delta*d*(1 + max(rho)^(s/d)/rho^(s/d))/(s*M).

    Requires rho bounded away from zero on the quadrature nodes and
    |delta| within the smallness hypothesis
    M / (1 + (max rho / min rho)^(s/d)), which keeps the perturbed
    density supported on all of the set.
    """
    design = design_field(cset, rho, s)
    d, M, ratio = cset.hausdorff_dim, design.m_constant, s / cset.hausdorff_dim
    vals = np.asarray(design.target_density.evaluate(cset.nodes), dtype=float)
    rho_min = float(vals.min())
    rho_max = float(vals.max())
    if rho_min <= 0.0:
        raise ValueError("perturbation analysis needs a density bounded away from zero")
    delta = float(delta)
    admissible = M / (1.0 + (rho_max / rho_min) ** ratio)
    if abs(delta) >= admissible:
        raise ValueError(
            f"delta {delta:+g} outside the smallness hypothesis (|delta| < {admissible:.6g})"
        )

    q0 = design.q
    factor = 1.0 + delta / M  # -(M+delta) rho^(s/d)
    q_pert = ExternalField(
        lambda X, _f=q0.evaluate: factor * _f(X),
        label=f"{q0.label}*(1{delta / M:+g})",
        breaks=q0.breaks,
    )
    mu = solve_equilibrium(cset, q_pert, s)

    def bound(X, _f=design.target_density.evaluate):
        r = np.asarray(_f(np.atleast_2d(X)), dtype=float)
        with np.errstate(divide="ignore"):
            return abs(delta) * d * (1.0 + rho_max**ratio / r**ratio) / (s * M)

    return PerturbedDensity(
        density=mu.density,
        bound=bound,
        base_density=design.target_density.evaluate,
        l1=mu.l1,
    )


# ---------------------------------------------------------------------------
# JSON descriptors


def density_from_descriptor(desc: dict, cset: CompactSet) -> DensityMap:
    """Built-in density profiles addressable from config files."""
    kind = _descriptor(desc, "density descriptor").get("kind")
    if kind == "uniform":
        c = 1.0 / cset.total_measure
        return DensityMap(lambda X: np.full(len(np.atleast_2d(X)), c), label="uniform")
    if kind == "polar_caps":
        return DensityMap(
            lambda X: _caps_raw(X) / _CAPS_NORMALIZER,
            breaks={0: (-_INV_SQRT2, _INV_SQRT2)},
            label="polar_caps",
        )
    if kind == "truncated_quadratic":
        c = float(desc.get("center", 0.5))
        w = float(desc.get("halfwidth", 0.35))
        if w <= 0:
            raise ValueError("halfwidth must be positive")

        def ev(X, _c=c, _w=w):
            x = np.atleast_2d(X)[:, 0]
            return np.clip(1.0 - ((x - _c) / _w) ** 2, 0.0, None)

        return DensityMap(ev, breaks={0: (c - w, c + w)}, label="truncated_quadratic")
    if kind == "expression":
        fld = _expression_field(desc)
        return DensityMap(fld.evaluate, breaks=fld.breaks, label="expression")
    raise ValueError(f"unknown density descriptor kind {kind!r}")


def _expression_field(desc: dict) -> ExternalField:
    # sum of polynomial-in-one-coordinate and radial power terms
    evals = []
    grads = []
    for term in desc.get("terms", []):
        ttype = _descriptor(term, "expression term").get("type")
        if ttype == "polynomial":
            axis = int(term.get("axis", 0))
            coeffs = np.asarray(term["coeffs"], dtype=float)
            dcoeffs = np.polynomial.polynomial.polyder(coeffs) if len(coeffs) > 1 else np.zeros(1)

            def ev(X, _a=axis, _c=coeffs):
                return np.polynomial.polynomial.polyval(np.atleast_2d(X)[:, _a], _c)

            def gr(X, _a=axis, _d=dcoeffs):
                P = np.atleast_2d(X)
                out = np.zeros_like(P)
                out[:, _a] = np.polynomial.polynomial.polyval(P[:, _a], _d)
                return out

        elif ttype == "radial":
            ev, gr = _radial_eval(
                term["center"], float(term["exponent"]), float(term.get("scale", 1.0))
            )
        else:
            raise ValueError(f"unknown expression term type {ttype!r}")
        evals.append(ev)
        grads.append(gr)
    if not evals:
        raise ValueError("expression field needs at least one term")

    def evaluate(X):
        return sum(f(X) for f in evals)

    def gradient(X):
        return sum(g(X) for g in grads)

    return ExternalField(evaluate, gradient, label="expression")


def field_from_descriptor(desc: dict, cset: CompactSet, c_sd: RieszConstant | None = None) -> ExternalField:
    """Field from a JSON descriptor: catalog, designed, or expression.

    A designed field is built with ``c_sd``, the run's C(s, d), which
    carries its energy exponent s.
    """
    kind = _descriptor(desc, "field descriptor").get("kind")
    if kind == "catalog":
        return catalog(desc["id"])
    if kind == "designed":
        if c_sd is None:
            raise ValueError("designed field descriptor needs the run's C(s, d)")
        rho = density_from_descriptor(desc["rho"], cset)
        return design_field(cset, rho, c_sd.s, c_sd=c_sd).q
    if kind == "expression":
        return _expression_field(desc)
    raise ValueError(f"unknown field descriptor kind {kind!r}")
