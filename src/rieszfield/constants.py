"""Riesz energy constants.

The leading-order coefficient C(s, d) of the hypersingular Riesz energy
is known exactly on 1-rectifiable sets (2*zeta(s)) and when s equals the
Hausdorff dimension (volume of the unit d-ball); for planar sets with
s > 2 the accepted conjecture identifies it with the Epstein zeta
function of the unit triangular lattice, which equals
6 zeta(s/2) L(s/2, chi_-3) in closed form.  This module evaluates all
three branches and keeps track of which one produced the number, so
downstream reports can flag conjectured values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import zeta as hurwitz_zeta

__all__ = [
    "RieszConstant",
    "HEX_CELL_AREA",
    "zeta",
    "epstein_zeta_hex",
    "riesz_constant",
    "m_constant",
]

PROVENANCES = ("exact_d1", "exact_ball_volume", "conjectured_lattice", "user_override")

# area of the fundamental cell of the unit-edge triangular lattice
HEX_CELL_AREA = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class RieszConstant:
    """Value of C(s, d) together with how it was obtained.

    Attributes
    ----------
    s, d : the energy exponent and the Hausdorff dimension it applies to
    value : the constant itself, finite and positive
    provenance : one of ``exact_d1``, ``exact_ball_volume``,
        ``conjectured_lattice``, ``user_override``
    """

    s: float
    d: int
    value: float
    provenance: str

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError("constant must be finite and positive")
        _require_hypersingular(self.s, self.d)


def _require_hypersingular(s: float, d: int):
    if s < d:
        raise ValueError(f"hypersingular regime requires s >= d; got s={s:g} on a set of dimension d={d}")


def zeta(s: float) -> float:
    """Riemann zeta for s > 1: the Hurwitz zeta at a = 1."""
    s = float(s)
    if s <= 1.0:
        raise ValueError("zeta(s) requires s > 1")
    return float(hurwitz_zeta(s, 1.0))


def epstein_zeta_hex(s: float) -> float:
    """Zeta function of the unit-edge triangular lattice at exponent s.

    Sums |v|^(-s) over the nonzero lattice vectors v = m*a1 + n*a2 with
    |a1| = |a2| = 1 at 60 degrees, so |v|^2 = m^2 + m*n + n^2, through its
    closed form 6 zeta(t) L(t, chi_-3) at t = s/2, where the L-function of
    the character mod 3 is 3^(-t) (zeta(t, 1/3) - zeta(t, 2/3)) in Hurwitz
    zetas (Glasser & Zucker, "Lattice sums", 1980).  Relative error is
    below 4e-13 for s in [2.001, 60]; nearer the pole the Hurwitz pair
    cancels and it grows like 2e-16/(s - 2), about what rounding s to a
    double already does to the value.
    """
    s = float(s)
    if s <= 2.0:
        raise ValueError("lattice sum diverges for s <= 2")
    t = 0.5 * s
    hurwitz = hurwitz_zeta(t, 1.0 / 3.0) - hurwitz_zeta(t, 2.0 / 3.0)
    return 6.0 * zeta(t) * 3.0 ** -t * float(hurwitz)


def riesz_constant(s: float, d: int, override: float | None = None) -> RieszConstant:
    """Look up C(s, d), or wrap a caller-supplied value.

    Exact branches: d = 1 with s > 1, and s = d for any d (unit-ball
    volume).  For d = 2, s > 2 the conjectured triangular-lattice value
    ``HEX_CELL_AREA**(s/2) * epstein_zeta_hex(s)`` is returned, flagged
    through ``provenance``.  Any other combination raises unless
    ``override`` supplies the constant; a non-finite s or one below d
    always raises.
    """
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    d = int(d)
    if d < 1:
        raise ValueError("d must be a positive integer")
    _require_hypersingular(s, d)
    if override is not None:
        return RieszConstant(s, d, float(override), "user_override")
    if s == d:
        # unit-ball volume; d = 1 via the gamma formula rounds to
        # 1.9999999999999998, so take the exact value directly
        value = 2.0 if d == 1 else math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        return RieszConstant(s, d, value, "exact_ball_volume")
    if d == 1:
        return RieszConstant(s, 1, 2.0 * zeta(s), "exact_d1")
    if d == 2:
        value = HEX_CELL_AREA ** (0.5 * s) * epstein_zeta_hex(s)
        return RieszConstant(s, 2, value, "conjectured_lattice")
    raise ValueError(f"no known constant for s={s}, d={d}; supply user_override")


def m_constant(s: float, d: int, constant: RieszConstant | None = None) -> float:
    """Field design coefficient M(s, d) = C(s, d) * (1 + s/d); a
    ``constant`` computed for another (s, d) raises ValueError."""
    if constant is None:
        constant = riesz_constant(s, d)
    if (constant.s, constant.d) != (float(s), int(d)):
        raise ValueError(f"C(s, d) was computed for (s, d) = ({constant.s:g}, {constant.d}), not ({s:g}, {d})")
    return constant.value * (1.0 + float(s) / int(d))
