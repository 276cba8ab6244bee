import math

import numpy as np
import pytest

from rieszfield.constants import (
    RieszConstant,
    epstein_zeta_hex,
    m_constant,
    riesz_constant,
    zeta,
)

# hexagonal lattice sums, frozen from an independent Epstein-zeta
# evaluation (theta-function integral representation)
HEX_ORACLES = {
    3: 11.0341757349148,
    4: 7.7111457329049,
    5: 6.76189852439871,
    6: 6.37588155282985,
    8: 6.10446980819066,
    12: 6.00981392796611,
}


def test_zeta_known_values():
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-13)
    assert zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-13)
    assert zeta(3.0) == pytest.approx(1.2020569031595943, rel=1e-12)
    assert zeta(1.5) == pytest.approx(2.6123753486854883, rel=1e-12)


@pytest.mark.parametrize("s,value", sorted(HEX_ORACLES.items()))
def test_epstein_zeta_hex_against_oracles(s, value):
    assert epstein_zeta_hex(float(s)) == pytest.approx(value, rel=1e-10)


def test_epstein_zeta_hex_near_the_pole():
    # 6 zeta(s/2) 3^(-s/2) (zeta(s/2, 1/3) - zeta(s/2, 2/3)) evaluated with
    # mpmath at 40 significant digits, at the doubles nearest 2.2 and 2.5;
    # a truncated lattice sum loses accuracy as s approaches 2
    assert epstein_zeta_hex(2.2) == pytest.approx(39.779083962835921, rel=1e-13)
    assert epstein_zeta_hex(2.5) == pytest.approx(18.120200416593940, rel=1e-13)


def test_d1_line_is_two_zeta():
    c = riesz_constant(4.0, 1)
    assert c.value == pytest.approx(2.0 * zeta(4.0), rel=1e-14)
    assert c.provenance == "exact_d1"
    assert riesz_constant(1.5, 1).value == pytest.approx(2.0 * zeta(1.5), rel=1e-13)


def test_boundary_case_is_ball_volume():
    assert riesz_constant(2.0, 2).value == math.pi  # exact, no tolerance
    assert riesz_constant(1.0, 1).value == 2.0
    assert riesz_constant(3.0, 3).value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert riesz_constant(2.0, 2).provenance == "exact_ball_volume"


def test_planar_lattice_values():
    assert riesz_constant(4.0, 2).value == pytest.approx(5.78335929967868, rel=1e-10)
    assert riesz_constant(3.0, 2).value == pytest.approx(8.89274510039729, rel=1e-10)
    assert riesz_constant(8.0, 2).value == pytest.approx(3.43376426710725, rel=1e-10)
    assert riesz_constant(4.0, 2).provenance == "conjectured_lattice"


def test_planar_lattice_closed_form():
    # zeta_hex(4) has the closed form 6 zeta(2) L_{-3}(2); the Dirichlet
    # L-value is summed here as a telescoped pair series
    k = np.arange(2_000_000, dtype=float)
    l3 = float((1.0 / (3 * k + 1) ** 2 - 1.0 / (3 * k + 2) ** 2).sum())
    closed = 0.75 * math.pi**2 * l3
    assert riesz_constant(4.0, 2).value == pytest.approx(closed, abs=1e-8)


def test_m_constant():
    # M(s, d) = C(s, d)(1 + s/d)
    assert m_constant(1.0, 1) == pytest.approx(4.0, rel=1e-14)
    assert m_constant(4.0, 1) == pytest.approx(10.0 * zeta(4.0), rel=1e-13)
    assert m_constant(4.0, 2) == pytest.approx(17.350077899036, rel=1e-10)
    assert m_constant(8.0, 2) == pytest.approx(17.1688213355362, rel=1e-10)


def test_user_override():
    c = riesz_constant(3.5, 3, override=9.25)
    assert c.value == 9.25
    assert c.provenance == "user_override"
    assert m_constant(3.5, 3, c) == pytest.approx(9.25 * (1 + 3.5 / 3), rel=1e-14)


def test_unknown_combination_names_the_escape_hatch():
    with pytest.raises(ValueError, match="no known constant.*supply user_override"):
        riesz_constant(3.5, 3)


def test_subcritical_s_rejected():
    with pytest.raises(ValueError, match="hypersingular"):
        riesz_constant(1.5, 2)


def test_subcritical_message_names_s_and_d():
    # one wording whichever way the constant is reached, override or not
    message = r"hypersingular regime requires s >= d; got s=1.5 on a set of dimension d=2$"
    for make in (lambda: riesz_constant(1.5, 2), lambda: riesz_constant(1.5, 2, override=3.0),
                 lambda: RieszConstant(1.5, 2, 3.0, "user_override")):
        with pytest.raises(ValueError, match=message):
            make()


def test_constant_record_validation():
    with pytest.raises(ValueError):
        RieszConstant(2.0, 1, -1.0, "exact_d1")
    with pytest.raises(ValueError):
        RieszConstant(2.0, 1, 3.0, "made_up")
    with pytest.raises(ValueError):
        RieszConstant(1.0, 2, 3.0, "user_override")
