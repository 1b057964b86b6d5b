"""Analytic profiles and the metric form, the closed-form fixtures of the tests."""

from typing import Sequence

import numpy as np

from conekit.profiles import ProfilePair, RadialFunction, constant_radial


def polynomial_radial(coeffs: Sequence[float]) -> RadialFunction:
    """Polynomial in r from low-order coefficients, e.g. [1, 1] for 1 + r."""
    polys = [np.polynomial.Polynomial(list(coeffs))]
    for _ in range(3):
        polys.append(polys[-1].deriv())
    return RadialFunction(polys)


def flat_profile() -> ProfilePair:
    """rho = r, phi = 1: the flat cone over the round 3-sphere (R^4)."""
    return ProfilePair(rho=polynomial_radial([0.0, 1.0]),
                       phi=constant_radial(1.0))


def berger_profile(t: float) -> ProfilePair:
    """rho = 1, phi = t: cylinder over a Berger sphere with fiber scale t."""
    return ProfilePair(rho=constant_radial(1.0),
                       phi=constant_radial(t))


def cone_profile(slope: float) -> ProfilePair:
    """rho = slope*r, phi = 1: the exact metric cone over (S^3, slope^2 * round)."""
    if slope <= 0:
        raise ValueError("cone slope must be positive")
    return ProfilePair(rho=polynomial_radial([0.0, slope]),
                       phi=constant_radial(1.0),
                       neck_slope=slope)


def metric_eval(profile: ProfilePair, r: float, v) -> float:
    """Squared length of tangent components (a0, a1, a2, a3) in the X-frame.

    Returns ``a0^2 + rho^2 phi^2 a1^2 + rho^2 (a2^2 + a3^2)``.
    """
    a = np.asarray(v, dtype=float)
    if a.shape != (4,):
        raise ValueError("expected 4 tangent components")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite tangent components")
    rho = profile.rho(r)
    phi = profile.phi(r)
    return float(a[0]**2 + rho**2 * (phi**2 * a[1]**2 + a[2]**2 + a[3]**2))
