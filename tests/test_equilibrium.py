import math

import numpy as np
import pytest

from rieszfield import equilibrium
from rieszfield.constants import m_constant, riesz_constant, zeta
from rieszfield.equilibrium import (
    EquilibriumError,
    _brent_l1,
    _level_density,
    _Mass,
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
    # the support is where the density is positive
    assert np.array_equal(measure_e.density(x) > 0, qe.evaluate(x) < measure_e.l1)


@pytest.mark.parametrize("e", [1.0, 0.5, 0.25, 2.0 / 3.0])
def test_level_density_formula(e):
    q = np.array([-1.0, 0.0, 0.2, 0.3, 5.0, np.inf, -np.inf, np.nan])
    before = q.copy()
    L, M = 0.3, 2.5
    got = _level_density(q, L, M, e)
    expect = np.clip((L - q[:5]) / M, 0.0, None) ** e
    np.testing.assert_allclose(got[:5], expect, rtol=1e-15, atol=0.0)
    assert np.array_equal(got[5:], np.zeros(3))  # non-finite q: no mass
    assert np.array_equal(q, before, equal_nan=True)


@pytest.mark.parametrize("e", [1.0, 0.5, 0.25])
def test_brent_ends_at_or_below_root(e):
    # the returned level is the lower end of the final bracket: its mass
    # never exceeds 1, and falls short of it by no more than rounding
    rng = np.random.default_rng(7)
    for _ in range(40):
        mass = _Mass(rng.normal(size=300), rng.uniform(0.5, 1.5, 300) / 300, 1.3, e)
        L = _brent_l1(mass, 1.3)
        assert -1e-14 <= mass(L) - 1.0 <= 0.0


def test_brent_keeps_zero_level_node_empty():
    # a node at q = 0 fills a mass shortfall of 1e-12 only at L ~ 1e-48,
    # closer to 0 than the search resolves (eps^2 of the level scale), so
    # L stays at or below 0 and that node keeps exactly zero density
    mass = _Mass(np.array([0.0, -1.0]), np.array([0.5, 1.0 - 1e-12]), 1.0, 0.25)
    L = _brent_l1(mass, 1.0)
    assert -1e-30 < L <= 0.0
    assert mass.passes < 150


def test_s_value_consistency(measure_e):
    # S = (L1 + (s/d) int q dmu) / (1 + s/d)
    ratio = measure_e.s / measure_e.d
    int_q = measure_e.integrate(lambda X: measure_e.field.evaluate(X))
    expect = (measure_e.l1 + ratio * int_q) / (1.0 + ratio)
    assert measure_e.s_value == pytest.approx(expect, rel=1e-9)


def test_tolerance_refinement(interval02, monkeypatch):
    monkeypatch.setattr(equilibrium, "_MASS_TOL", 1e-6)
    loose = solve_equilibrium(interval02, catalog("e"), 4.0)
    monkeypatch.setattr(equilibrium, "_MASS_TOL", 1e-11)
    tight = solve_equilibrium(interval02, catalog("e"), 4.0)
    assert loose.l1 == pytest.approx(tight.l1, abs=1e-6)
    assert tight.solver_info["nodes"] >= loose.solver_info["nodes"]


def test_stop_reason(interval02, sphere):
    met = solve_equilibrium(interval02, catalog("e"), 4.0)
    assert met.solver_info["stop_reason"] == "tol"
    assert met.solver_info["error_estimate"] < 1e-9
    capped = solve_equilibrium(sphere, catalog("d"), 4.0, budget=20_000)
    assert capped.solver_info["stop_reason"] == "budget"
    assert capped.solver_info["nodes"] >= 20_000
    assert capped.solver_info["error_estimate"] > 1e-9


@pytest.mark.parametrize("example_id", ["a", "b", "c", "d", "e"])
def test_mass_evaluations_per_round(example_id, sphere, torus24, interval02):
    # Brent's method takes about a dozen passes of the mass sum per round,
    # and ending at or below the root still keeps unit mass
    cset, s = {"a": (sphere, 2.0), "b": (sphere, 2.0), "c": (torus24, 8.0),
               "d": (sphere, 4.0), "e": (interval02, 4.0)}[example_id]
    m = solve_equilibrium(cset, catalog(example_id), s)
    info = m.solver_info
    assert 1 <= info["mass_evaluations"] <= 20 * info["rounds"]
    assert abs(m.mass - 1.0) <= 1e-12


def test_settle_gate_follows_tol(interval02, monkeypatch):
    # L1 settles once last round's L1 solves this round's mass equation to
    # within tol, so every tol stops on tol, and a tighter one never sooner
    rounds = []
    for tol in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        monkeypatch.setattr(equilibrium, "_MASS_TOL", tol)
        m = solve_equilibrium(interval02, catalog("e"), 4.0)
        assert m.solver_info["stop_reason"] == "tol", tol
        rounds.append(m.solver_info["rounds"])
    assert rounds == sorted(rounds)


def test_grid_insensitivity(interval02, monkeypatch):
    a = solve_equilibrium(interval02, catalog("e"), 4.0)
    monkeypatch.setitem(equilibrium._CELLS_PER_AXIS, 1, 64)
    b = solve_equilibrium(interval02, catalog("e"), 4.0)
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


def test_constant_for_another_s_d_rejected(interval02, sphere):
    # a C(2, 1) passed for s = 4 would solve to L1 = 6.4294, not L1_QE
    with pytest.raises(ValueError, match=r"computed for \(s, d\) = \(2, 1\), not \(4, 1\)"):
        solve_equilibrium(interval02, catalog("e"), 4.0, c_sd=riesz_constant(2.0, 1))
    with pytest.raises(ValueError, match=r"not \(2, 2\)"):
        solve_equilibrium(sphere, ZERO, 2.0, c_sd=riesz_constant(2.0, 1))
    assert m_constant(4, 1, riesz_constant(4.0, 1)) == m_constant(4.0, 1)


def test_integrate_adaptive(interval02):
    got = integrate_adaptive(interval02, lambda X: np.sin(np.atleast_2d(X)[:, 0]))
    assert got == pytest.approx(1.0 - math.cos(2.0), rel=1e-12)


def test_integrate_adaptive_with_break(interval02):
    f = lambda X: np.abs(np.atleast_2d(X)[:, 0] - 0.7)
    got = integrate_adaptive(interval02, f, breaks={0: (0.7,)})
    assert got == pytest.approx((0.7**2 + 1.3**2) / 2.0, rel=1e-12)


def test_integrate_adaptive_raises_on_budget_stop(interval02, monkeypatch):
    # a kink between nodes: the budget runs out before the estimate meets
    # 1e-12, and the unconverged integral is not returned as if exact
    monkeypatch.setattr(equilibrium, "_NODE_BUDGET", 300)
    with pytest.raises(EquilibriumError, match=r"stopped on budget .* error estimate \S+ on \d+ nodes"):
        integrate_adaptive(interval02, lambda X: np.sqrt(np.abs(np.atleast_2d(X)[:, 0] - 0.7)))


def test_integrate_adaptive_torus(torus24):
    # R = 3, c = 1: the area element c (R + c cos v) varies over the chart
    big_r, tube_c = 3.0, 1.0
    area = integrate_adaptive(torus24, lambda X: np.ones(len(np.atleast_2d(X))))
    assert area == pytest.approx(4.0 * math.pi**2 * big_r * tube_c, rel=1e-11)
    z2 = integrate_adaptive(torus24, lambda X: np.atleast_2d(X)[:, 2] ** 2)
    assert z2 == pytest.approx(2.0 * math.pi**2 * big_r * tube_c**3, rel=1e-12)
    # both integrals above come out the same with the area element replaced
    # by its mean R c; the squared distance to the axis does not
    rho2 = integrate_adaptive(torus24, lambda X: np.atleast_2d(X)[:, 0] ** 2 + np.atleast_2d(X)[:, 1] ** 2)
    assert rho2 == pytest.approx(4.0 * math.pi**2 * tube_c * (big_r**3 + 1.5 * big_r * tube_c**2), rel=1e-12)

