import math

import numpy as np
import pytest

from rieszfield.constants import m_constant, riesz_constant
from rieszfield.equilibrium import integrate_adaptive, solve_equilibrium
from rieszfield.fields import (
    _CAPS_NORMALIZER,
    DensityMap,
    ExternalField,
    catalog,
    density_from_descriptor,
    design_field,
    field_from_descriptor,
    field_gradient,
    _caps_raw,
    perturbed_density,
)
from rieszfield.geometry import make_interval, make_sphere

CAPS_MASS = 5.581722001353652  # unnormalized polar-caps profile on S^2


def test_catalog_ids():
    for example_id in "abcde":
        fld = catalog(example_id)
        assert fld.label == f"q_{example_id}"
    with pytest.raises(ValueError, match="unknown catalog field"):
        catalog("z")


def test_qa_values():
    qa = catalog("a")
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    assert qa.evaluate(pts) == pytest.approx([1.0, 0.0, 1.0], abs=1e-15)


def test_qb_values():
    qb = catalog("b")
    pole = np.array([[0.0, 0.0, 1.0]])
    equator = np.array([[1.0, 0.0, 0.0]])
    assert qb.evaluate(pole)[0] == pytest.approx(-21.0 / CAPS_MASS, rel=1e-12)
    assert qb.evaluate(equator)[0] == pytest.approx(-1.0 / CAPS_MASS, rel=1e-12)
    assert qb.breaks == {0: (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))}


def test_caps_normalizer_closed_form():
    # reference: the adaptive integral of the profile over the sphere
    breaks = {0: (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))}
    ref = integrate_adaptive(make_sphere(), _caps_raw, breaks=breaks)
    assert _CAPS_NORMALIZER == pytest.approx(ref, rel=1e-13)


def test_qc_values():
    qc = catalog("c")
    assert qc.evaluate(np.array([[4.0, 0.0, 0.0]]))[0] == np.inf
    assert qc.evaluate(np.array([[-4.0, 0.0, 0.0]]))[0] == pytest.approx(1.0 / 64.0, rel=1e-14)


def test_qd_values():
    qd = catalog("d")
    x = np.array([[-1.0, 0.0, 0.0]])
    c2 = np.array([0.5691, 0.8223, 0.0])
    expect = 1e-3 / 2.0**4 + 1e-3 / np.linalg.norm(x[0] - c2) ** 4
    assert qd.evaluate(x)[0] == pytest.approx(expect, rel=1e-13)
    assert qd.evaluate(np.array([[1.0, 0.0, 0.0]]))[0] == np.inf


def test_qe_values():
    qe = catalog("e")
    x = np.array([[1.6], [0.2], [0.0]])
    expect = [0.0, 1.4**4, 1.6**4 + 40.0 * 0.2**4 * 1.6**2]
    assert qe.evaluate(x) == pytest.approx(expect, rel=1e-14, abs=0.0)


def _z(X):
    return X[:, 2] / np.linalg.norm(X, axis=1)


def _z_chain_pow(X, dz):
    n = np.linalg.norm(X, axis=1)
    return np.column_stack([
        dz * (-X[:, 2] * X[:, 0] / n**3),
        dz * (-X[:, 2] * X[:, 1] / n**3),
        dz * (1.0 / n - X[:, 2] ** 2 / n**3),
    ])


def _caps_dz_pow(z):
    return np.where(z * z > 0.5, 10.0 * (32.0 * z**3 - 16.0 * z) / (2.0 * np.pi), 0.0)


def _caps_pow(z):
    t4 = 8.0 * z**4 - 8.0 * z * z + 1.0
    return np.where(z * z > 0.5, (10.0 * t4 + 11.0) / (2.0 * np.pi), 1.0 / (2.0 * np.pi))


# the catalog fields a, b and e as written with ``**`` (libm pow)
_POW_FIELDS = {
    "a": (
        lambda X: (4.0 * _z(X) ** 3 - 3.0 * _z(X)) ** 16,
        lambda X: _z_chain_pow(
            X, 16.0 * (4.0 * _z(X) ** 3 - 3.0 * _z(X)) ** 15 * (12.0 * _z(X) ** 2 - 3.0)
        ),
    ),
    "b": (
        lambda X: -2.0 * np.pi * _caps_pow(_z(X)) / _CAPS_NORMALIZER,
        lambda X: _z_chain_pow(X, -2.0 * np.pi * _caps_dz_pow(_z(X)) / _CAPS_NORMALIZER),
    ),
    "e": (
        lambda X: (X[:, 0] - 1.6) ** 4 + 40.0 * (X[:, 0] - 0.2) ** 4 * (X[:, 0] - 1.6) ** 2,
        lambda X: (
            4.0 * (X[:, 0] - 1.6) ** 3
            + 40.0 * (
                4.0 * (X[:, 0] - 0.2) ** 3 * (X[:, 0] - 1.6) ** 2
                + 2.0 * (X[:, 0] - 0.2) ** 4 * (X[:, 0] - 1.6)
            )
        )[:, None],
    ),
}


@pytest.mark.parametrize("example_id", sorted(_POW_FIELDS))
def test_catalog_fields_match_pow_forms(example_id, rng):
    # within 1e-13 of the largest value: pointwise, both forms cancel
    # alike near roots of the polynomial in z (or of q_e'), where one ulp
    # of z^3 moves the result by more than 1e-13 relative.  The sphere
    # fields extend along rays, so points off the sphere test the chain
    # rule's |x|^3.
    if example_id == "e":
        pts = rng.uniform(0.0, 2.0, size=(1000, 1))
    else:
        pts = rng.normal(size=(1000, 3))
    fld = catalog(example_id)
    for new, old in zip((fld.evaluate, fld.gradient), _POW_FIELDS[example_id]):
        want = old(pts)
        np.testing.assert_allclose(new(pts), want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("example_id,maker", [("a", make_sphere), ("b", make_sphere), ("e", lambda: make_interval(0, 2))])
def test_catalog_gradients_match_finite_differences(example_id, maker, rng):
    cset = maker()
    fld = catalog(example_id)
    pts = cset.retract(rng.normal(size=(60, cset.ambient_dim)) + 0.5)
    analytic = fld.gradient(pts)
    fd = field_gradient(ExternalField(fld.evaluate), pts, cset)
    scale = np.max(np.abs(analytic)) + 1.0
    assert np.max(np.abs(analytic - fd)) / scale < 1e-5


def test_field_gradient_prefers_analytic(interval02):
    fld = ExternalField(lambda X: np.zeros(len(np.atleast_2d(X))), gradient=lambda X: np.full_like(np.atleast_2d(X), 7.0))
    got = field_gradient(fld, np.array([[0.5]]), interval02)
    assert got[0, 0] == 7.0


# ---------------------------------------------------------------------------
# design


def test_design_uniform_sphere_constant_field(sphere):
    design = design_field(sphere, lambda X: np.full(len(np.atleast_2d(X)), 1.0 / (4 * math.pi)), 3.0)
    expect = -m_constant(3.0, 2) * (4 * math.pi) ** -1.5
    got = design.q.evaluate(sphere.nodes)
    assert np.allclose(got, expect, rtol=1e-13)
    assert not design.renormalized


def test_design_zero_region_clips(interval02):
    rho = density_from_descriptor({"kind": "truncated_quadratic", "center": 1.0, "halfwidth": 0.5}, interval02)
    with pytest.warns(UserWarning, match="renormalizing"):
        design = design_field(interval02, rho, 4.0)
    x = np.array([[0.1], [1.9]])  # outside the bump
    assert np.all(design.q.evaluate(x) == 0.0)
    m = solve_equilibrium(interval02, design.q, 4.0)
    assert np.all(m.density(x) == 0.0)
    assert abs(m.l1) < 1e-8


@pytest.mark.parametrize("k", range(-4, 5))
def test_design_zero_region_clips_ulp_shifts(interval02, k):
    # C(4, 1) a few ulp off moves the rounding of the designed mass, which
    # can put the rule's own root a hair above 0; L1 must not follow it
    # there, so the zero region keeps exactly zero density
    c = riesz_constant(4.0, 1, override=riesz_constant(4.0, 1).value * (1.0 + k * 2.2e-16))
    rho = density_from_descriptor({"kind": "truncated_quadratic", "center": 1.0, "halfwidth": 0.5}, interval02)
    with pytest.warns(UserWarning, match="renormalizing"):
        design = design_field(interval02, rho, 4.0, c_sd=c)
    m = solve_equilibrium(interval02, design.q, 4.0, c_sd=c)
    assert np.all(m.density(np.array([[0.1], [1.9]])) == 0.0)
    assert abs(m.l1) < 1e-8


def test_design_rejects_bad_density(interval02):
    with pytest.raises(ValueError, match="nonnegative"):
        design_field(interval02, lambda X: np.atleast_2d(X)[:, 0] - 1.0, 4.0)
    with pytest.raises(ValueError, match="zero at every"):
        design_field(interval02, lambda X: np.zeros(len(np.atleast_2d(X))), 4.0)
    with pytest.raises(ValueError, match="hypersingular"):
        design_field(interval02, lambda X: np.ones(len(np.atleast_2d(X))), 0.5)


def test_design_renormalizes_with_flag(interval02):
    with pytest.warns(UserWarning, match="renormalizing"):
        design = design_field(interval02, lambda X: np.full(len(np.atleast_2d(X)), 3.0), 4.0)
    assert design.renormalized
    got = design.target_density.evaluate(np.array([[1.0]]))
    assert got[0] == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# perturbation


def test_perturbed_uniform_density_is_invariant(interval02):
    uniform = DensityMap(lambda X: np.full(len(np.atleast_2d(X)), 0.5), label="uniform")
    x = np.linspace(0, 2, 401)[:, None]
    for delta in (-0.1, -0.03, 0.05, 0.1):
        p = perturbed_density(interval02, uniform, 4.0, delta)
        assert np.max(np.abs(p.density(x) - 0.5)) < 1e-10
        # scaling a constant q shifts L1 by exactly -delta * rho^(s/d)
        assert p.l1 == pytest.approx(-delta * 0.5**4, abs=1e-12)


def test_perturbed_nonuniform_within_bound(interval02):
    # base problem from a strictly positive smooth density
    base_q = field_from_descriptor(
        {"kind": "expression", "terms": [{"type": "polynomial", "axis": 0, "coeffs": [1.5, -2.0, 1.0]}]},
        interval02,
    )
    mu = solve_equilibrium(interval02, base_q, 4.0)
    rho = DensityMap(mu.density, label="fig")
    x = np.linspace(0, 2, 801)[:, None]
    for delta in (-0.1, -0.05, 0.05, 0.1):
        p = perturbed_density(interval02, rho, 4.0, delta)
        dev = np.abs(p.density(x) - p.base_density(x))
        assert np.all(dev <= p.bound(x) + 0.15 * abs(delta))


def test_perturbed_rejects_vanishing_density(interval02):
    rho = density_from_descriptor({"kind": "truncated_quadratic", "center": 1.0, "halfwidth": 0.9}, interval02)
    with pytest.raises(ValueError, match="bounded away from zero"):
        with pytest.warns(UserWarning):
            perturbed_density(interval02, rho, 4.0, 0.05)


def test_perturbed_rejects_large_delta(interval02):
    uniform = DensityMap(lambda X: np.full(len(np.atleast_2d(X)), 0.5))
    with pytest.raises(ValueError, match="smallness hypothesis"):
        perturbed_density(interval02, uniform, 4.0, 6.0)


# ---------------------------------------------------------------------------
# descriptors


def test_density_descriptors(interval02, sphere):
    u = density_from_descriptor({"kind": "uniform"}, sphere)
    assert u.evaluate(sphere.nodes[:3]) == pytest.approx(1.0 / (4 * math.pi), rel=1e-12)
    caps = density_from_descriptor({"kind": "polar_caps"}, sphere)
    # the kink circles need the declared breaks; the fixed product rule
    # alone only reaches ~1e-5 here
    total = integrate_adaptive(sphere, caps.evaluate, breaks=caps.breaks)
    assert total == pytest.approx(1.0, abs=1e-10)
    tq = density_from_descriptor({"kind": "truncated_quadratic"}, interval02)
    assert tq.evaluate(np.array([[0.5]]))[0] == pytest.approx(1.0, rel=1e-14)
    assert tq.evaluate(np.array([[1.2]]))[0] == 0.0
    ramp = {"kind": "expression", "terms": [{"type": "polynomial", "coeffs": [0.0, 0.5]}]}
    expr = density_from_descriptor(ramp, interval02)
    assert expr.label == "expression"
    assert expr.evaluate(np.array([[1.5]]))[0] == 0.75
    with pytest.raises(ValueError, match="unknown density"):
        density_from_descriptor({"kind": "gaussian"}, interval02)
    with pytest.raises(ValueError, match="halfwidth"):
        density_from_descriptor({"kind": "truncated_quadratic", "halfwidth": 0.0}, interval02)


def test_field_descriptors(interval02, sphere):
    qa = field_from_descriptor({"kind": "catalog", "id": "a"}, sphere)
    assert qa.label == "q_a"
    designed = field_from_descriptor(
        {"kind": "designed", "rho": {"kind": "uniform"}}, sphere, c_sd=riesz_constant(3.0, 2)
    )
    assert np.allclose(
        designed.evaluate(sphere.nodes[:5]), -m_constant(3.0, 2) * (4 * math.pi) ** -1.5, rtol=1e-12
    )
    with pytest.raises(ValueError, match=r"needs the run's C\(s, d\)"):
        field_from_descriptor({"kind": "designed", "rho": {"kind": "uniform"}}, sphere)
    with pytest.raises(ValueError, match="unknown field"):
        field_from_descriptor({"kind": "mystery"}, interval02)


def test_expression_field_gradient(interval02, rng):
    fld = field_from_descriptor(
        {
            "kind": "expression",
            "terms": [
                {"type": "polynomial", "axis": 0, "coeffs": [0.5, 0.0, 1.0]},
                {"type": "radial", "center": [3.0], "exponent": -2.0, "scale": 0.7},
            ],
        },
        interval02,
    )
    x = np.array([[0.5]])
    assert fld.evaluate(x)[0] == pytest.approx(0.5 + 0.25 + 0.7 / 6.25, rel=1e-13)
    pts = rng.uniform(0.1, 1.9, size=(30, 1))
    fd = field_gradient(ExternalField(fld.evaluate), pts, interval02)
    assert np.max(np.abs(fld.gradient(pts) - fd)) < 1e-4
    with pytest.raises(ValueError, match="term type"):
        field_from_descriptor({"kind": "expression", "terms": [{"type": "spline"}]}, interval02)
    with pytest.raises(ValueError, match="at least one term"):
        field_from_descriptor({"kind": "expression", "terms": []}, interval02)
