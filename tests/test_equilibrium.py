import csv
import math

import numpy as np
import pytest

from rieszfield.constants import m_constant, zeta
from rieszfield.equilibrium import (
    EquilibriumError,
    integrate_adaptive,
    solve_equilibrium,
)
from rieszfield.fields import ExternalField, catalog
from rieszfield.geometry import make_interval, make_sphere

ZERO = ExternalField(lambda X: np.zeros(len(np.atleast_2d(X))), label="zero")

# frozen from scipy.integrate.quad oracles on the explicit mass equation
L1_QA = 0.6544786683
L1_QC = 0.018189364504
L1_QD = 0.126844753749
L1_QE = 5.957351854617


def test_zero_field_interval():
    # constant density 1/(b-a), so L1 = M * (b-a)^(-s/d)
    cset = make_interval(0.0, 2.0)
    m = solve_equilibrium(cset, ZERO, 4.0)
    assert m.l1 == pytest.approx(10.0 * zeta(4.0) / 16.0, rel=1e-12)
    assert m.mass == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(m.density(cset.nodes), 0.5, atol=1e-12)
    assert m.support_fraction == 1.0


def test_zero_field_sphere():
    cset = make_sphere()
    m = solve_equilibrium(cset, ZERO, 3.0)
    assert m.l1 == pytest.approx(m_constant(3.0, 2) * (4 * math.pi) ** -1.5, rel=1e-10)
    assert np.allclose(m.density(cset.nodes), 1.0 / (4 * math.pi), rtol=1e-10)


def test_catalog_a_oracle(measure_a):
    assert measure_a.l1 == pytest.approx(L1_QA, abs=2e-7)
    assert abs(measure_a.mass - 1.0) < 1e-10


def test_catalog_e_oracle(measure_e):
    assert measure_e.l1 == pytest.approx(L1_QE, abs=1e-9)
    assert abs(measure_e.mass - 1.0) < 1e-10
    assert measure_e.support_fraction == pytest.approx(0.7291, abs=2e-3)


def test_catalog_b_designed_field():
    # q_b realizes the caps density exactly, so its L1 vanishes
    m = solve_equilibrium(make_sphere(), catalog("b"), 2.0)
    assert abs(m.l1) < 1e-10
    assert abs(m.mass - 1.0) < 1e-10


def test_catalog_c_oracle(torus24):
    m = solve_equilibrium(torus24, catalog("c"), 8.0)
    assert m.l1 == pytest.approx(L1_QC, rel=1e-4)
    assert abs(m.mass - 1.0) < 1e-10


def test_catalog_d_oracle(sphere):
    m = solve_equilibrium(sphere, catalog("d"), 4.0)
    assert m.l1 == pytest.approx(L1_QD, rel=1e-5)
    assert abs(m.mass - 1.0) < 1e-10


def test_shift_equivariance(interval02):
    base = solve_equilibrium(interval02, catalog("e"), 4.0).l1
    qe = catalog("e")
    for c in (-1.0, 0.5, 3.0):
        shifted = ExternalField(
            lambda X, _c=c: qe.evaluate(X) + _c, breaks=qe.breaks, label="shifted"
        )
        assert solve_equilibrium(interval02, shifted, 4.0).l1 == pytest.approx(base + c, abs=1e-9)


def test_density_matches_clip_formula(measure_e, interval02):
    qe = catalog("e")
    x = interval02.nodes
    expect = np.clip((measure_e.l1 - qe.evaluate(x)) / measure_e.m_sd, 0.0, None) ** 0.25
    assert np.allclose(measure_e.density(x), expect, atol=1e-13)
    inside = measure_e.support_indicator(x)
    assert np.array_equal(inside, qe.evaluate(x) <= measure_e.l1)


def test_s_value_consistency(measure_e):
    # S = (L1 + (s/d) int q dmu) / (1 + s/d)
    ratio = measure_e.s / measure_e.d
    int_q = measure_e.integrate(lambda X: measure_e.field.evaluate(X))
    expect = (measure_e.l1 + ratio * int_q) / (1.0 + ratio)
    assert measure_e.s_value == pytest.approx(expect, rel=1e-9)


def test_tolerance_refinement(interval02):
    loose = solve_equilibrium(interval02, catalog("e"), 4.0, tol=1e-6)
    tight = solve_equilibrium(interval02, catalog("e"), 4.0, tol=1e-11)
    assert loose.l1 == pytest.approx(tight.l1, abs=1e-6)
    assert tight.solver_info["nodes"] >= loose.solver_info["nodes"]


def test_grid_insensitivity(interval02):
    a = solve_equilibrium(interval02, catalog("e"), 4.0, n0=32)
    b = solve_equilibrium(interval02, catalog("e"), 4.0, n0=64)
    assert a.l1 == pytest.approx(b.l1, abs=1e-9)


def test_boundary_exponent_runs():
    # s = d is admissible: on the interval with s = 1, M = 4
    cset = make_interval(0.0, 1.0)
    m = solve_equilibrium(cset, ZERO, 1.0)
    assert m.l1 == pytest.approx(4.0, rel=1e-12)
    assert m.s_value == pytest.approx((4.0 + 0.0) / 2.0, rel=1e-10)


def test_subcritical_rejected(interval02):
    with pytest.raises(ValueError, match="hypersingular"):
        solve_equilibrium(interval02, ZERO, 0.5)


def test_everywhere_infinite_field_rejected(interval02):
    inf_field = ExternalField(lambda X: np.full(len(np.atleast_2d(X)), np.inf))
    with pytest.raises(EquilibriumError, match="infinite"):
        solve_equilibrium(interval02, inf_field, 4.0)


def test_partially_infinite_field(interval02):
    # +inf outside [0, 1] confines the measure to the finite half
    def q(X):
        x = np.atleast_2d(X)[:, 0]
        return np.where(x <= 1.0, 0.0, np.inf)

    m = solve_equilibrium(interval02, ExternalField(q, breaks={0: (1.0,)}), 4.0)
    assert m.l1 == pytest.approx(m_constant(4.0, 1), rel=1e-10)
    assert abs(m.mass - 1.0) < 1e-10
    assert m.density(np.array([[1.5]]))[0] == 0.0


def test_integrate_adaptive(interval02):
    got = integrate_adaptive(interval02, lambda X: np.sin(np.atleast_2d(X)[:, 0]), tol=1e-12)
    assert got == pytest.approx(1.0 - math.cos(2.0), rel=1e-12)


def test_integrate_adaptive_with_break(interval02):
    f = lambda X: np.abs(np.atleast_2d(X)[:, 0] - 0.7)
    got = integrate_adaptive(interval02, f, breaks={0: (0.7,)}, tol=1e-13)
    assert got == pytest.approx((0.7**2 + 1.3**2) / 2.0, rel=1e-12)


def test_csv_emission(tmp_path, measure_e):
    path = tmp_path / "density.csv"
    measure_e.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "weight", "q", "density"]
    assert len(rows) > 100
    x, w, q, g = zip(*((float(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in rows[1:]))
    assert abs(sum(wi * gi for wi, gi in zip(w, g)) - 1.0) < 1e-9
    assert min(x) >= 0.0 and max(x) <= 2.0


def test_summary_keys(measure_a):
    got = measure_a.summary()
    assert set(got) == {"l1", "s_value", "support_fraction"}
    assert 0.0 < got["support_fraction"] < 1.0
