"""Exact-rational obstruction arithmetic for spherical space-form boundaries.

Everything here runs in `fractions.Fraction`; no floating point enters.
The pinned regression: an asymptotically locally Euclidean Ricci-flat
filling of the quaternion-group quotient sphere with Euler number 1 and
signature 0 violates the Hitchin inequality exactly (7/4 < 9/4), which is
the contradiction driving the four-dimensional rigidity argument.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "SpaceFormGroup",
    "TopologicalData",
    "HitchinVerdict",
    "GROUPS",
    "hitchin_check",
    "betti_constraints",
]


@dataclass(frozen=True)
class SpaceFormGroup:
    """A finite group acting freely on the 3-sphere, with its boundary eta invariant.

    ``eta_magnitude`` is the absolute value of the eta invariant of the
    quotient's signature operator; its sign depends on the orientation and
    is fixed at +1 by ``hitchin_check`` (at tau = 0 the inequality only sees
    |eta|, so either sign gives the same verdict).
    """

    order: int
    eta_magnitude: Fraction


GROUPS = {
    "Q8": SpaceFormGroup(8, Fraction(3, 4)),
    "BinaryIcosahedral": SpaceFormGroup(120, Fraction(361, 180)),
}


@dataclass(frozen=True)
class TopologicalData:
    """Exact Euler number and signature.

    Both are integers: an int, a numpy integer or a Fraction with
    denominator 1.  ValueError names a field given anything else, a bool or
    a float included.
    """

    chi: Fraction
    tau: Fraction

    def __post_init__(self):
        for name in ("chi", "tau"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Rational)
                    or value.denominator != 1):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, Fraction(value))


def betti_constraints(b3: int) -> TopologicalData:
    """Topological data of an ALE Ricci-flat filling from its third Betti number.

    The filling is connected and open with a rational homology sphere
    boundary, which forces b0 = 1, b1 = b2 = b4 = 0; only the integer
    b3 >= 0 is free.  Then chi = 1 - b3 and the signature vanishes with b2.
    """
    if isinstance(b3, bool) or not isinstance(b3, numbers.Integral) or b3 < 0:
        raise ValueError(f"b3 must be nonnegative and an integer, got {b3!r}")
    return TopologicalData(chi=1 - b3, tau=0)


@dataclass(frozen=True)
class HitchinVerdict:
    """Both sides of 2*(chi - 1/|G|) >= 3*|tau + eta|, exactly."""

    lhs: Fraction
    rhs: Fraction

    @property
    def consistent(self) -> bool:
        return self.lhs >= self.rhs

    def describe(self) -> str:
        rel = ">=" if self.consistent else "<"
        tail = "consistent" if self.consistent else "contradiction reproduced"
        return f"{self.lhs} {rel} {self.rhs}: {tail}"


def hitchin_check(data: TopologicalData, group: SpaceFormGroup) -> HitchinVerdict:
    """Evaluate the Hitchin inequality for an ALE Ricci-flat filling.

    Returns the exact values of ``2*(chi - 1/|G|)`` and ``3*|tau + eta|``;
    an inconsistent verdict (lhs < rhs) means no such filling exists.  The
    eta invariant enters with sign +1, the convention under which
    Kronheimer's hyperkaehler ALE resolutions of C^2/G (chi = rank + 1,
    tau = -rank) meet the inequality with equality.
    """
    lhs = 2 * (data.chi - Fraction(1, group.order))
    rhs = 3 * abs(data.tau + group.eta_magnitude)
    return HitchinVerdict(lhs=lhs, rhs=rhs)
