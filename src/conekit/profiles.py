"""Radial warping profiles for the cohomogeneity-one ansatz.

The metric under study is ``dr^2 + rho(r)^2 [phi(r)^2 s1^2 + s2^2 + s3^2]``
where ``s1, s2, s3`` is the left-invariant coframe of the round 3-sphere.
Everything geometric in this package is driven by the pair ``(rho, phi)``
together with their radial derivatives, so profiles are represented as
pairs of scalar functions that know their own derivatives up to order 3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RadialFunction",
    "ProfilePair",
    "round_profile",
    "constant_radial",
    "sinusoid_radial",
    "random_smooth_profile",
]


class RadialFunction:
    """A smooth scalar function of the radius with derivatives up to order 3.

    Wraps four vectorized callables (the function and its first three
    derivatives), each taking a float array and returning an array of its
    shape.  Calls accept scalars or numpy arrays and return a float for a
    scalar radius.
    """

    def __init__(self, derivs: Sequence[Callable]):
        if len(derivs) != 4:
            raise ValueError("need callables for orders 0..3")
        self._derivs = tuple(derivs)

    def __call__(self, r, order: int = 0):
        if not 0 <= order <= 3:
            raise ValueError(f"derivative order {order} not available")
        r = np.asarray(r, dtype=float)
        out = self._derivs[order](r)
        return float(out) if r.ndim == 0 else out

    def scaled(self, factor: float) -> "RadialFunction":
        """Pointwise multiple ``factor * f`` (all derivatives scale alike)."""
        return RadialFunction([(lambda g: (lambda r: factor * g(r)))(g)
                               for g in self._derivs])


def constant_radial(value: float) -> RadialFunction:
    zero = np.zeros_like
    return RadialFunction([lambda r: np.full_like(r, value), zero, zero, zero])


def sinusoid_radial(a0: float, a1: float, omega: float, phase: float) -> RadialFunction:
    """``a0 + a1*sin(omega*r + phase)`` with analytic derivatives."""

    def deriv(k):
        def f(r):
            base = a1 * omega**k * np.sin(omega * r + phase + k * np.pi / 2)
            if k == 0:
                return a0 + base
            return base
        return f

    return RadialFunction([deriv(k) for k in range(4)])


@dataclass(frozen=True)
class ProfilePair:
    """The radial warping pair (rho, phi) plus construction constants.

    ``r1``, ``delta`` and ``neck_slope`` are populated by the profile
    builder; analytic profiles leave them as None, and only a profile with
    ``r1`` is serializable.  Instances are immutable and safe to share
    across threads.
    """

    rho: RadialFunction
    phi: RadialFunction
    r1: float | None = None
    delta: float | None = None
    neck_slope: float | None = None

    def rescale(self, eps: float) -> "ProfilePair":
        """The profile of the rescaled metric ``eps^2 * g``.

        Realized by ``rho_eps(r) = eps*rho(r/eps)``, ``phi_eps(r) = phi(r/eps)``,
        which reproduces ``eps^2 g`` in the radial coordinate ``eps*r``.
        The tail slope is scale-invariant and survives; the construction
        constants r1 and delta describe the unscaled build and are dropped.
        """
        if not 0 < eps < np.inf:  # NaN fails too
            raise ValueError(f"eps must be positive and finite, got {eps!r}")
        rho, phi = self.rho, self.phi

        def rho_k(k):
            return lambda r: eps ** (1 - k) * rho(r / eps, k)

        def phi_k(k):
            return lambda r: eps ** (-k) * phi(r / eps, k)

        return replace(
            self,
            rho=RadialFunction([rho_k(k) for k in range(4)]),
            phi=RadialFunction([phi_k(k) for k in range(4)]),
            r1=None,
            delta=None,
        )


def round_profile() -> ProfilePair:
    """rho = 1, phi = 1: the product metric dr^2 + (unit round S^3)."""
    return ProfilePair(rho=constant_radial(1.0),
                       phi=constant_radial(1.0))


def random_smooth_profile(rng: np.random.Generator) -> ProfilePair:
    """A random positive sinusoidal profile pair for oracle sweeps.

    Amplitudes are bounded away from zero so rho and phi stay positive on
    the sweep window [0.3, 3].
    """
    a0 = rng.uniform(1.0, 2.0)
    a1 = rng.uniform(-0.45, 0.45) * a0
    b0 = rng.uniform(0.6, 1.5)
    b1 = rng.uniform(-0.4, 0.4) * b0
    rho = sinusoid_radial(a0, a1, rng.uniform(0.3, 1.8), rng.uniform(0, 2 * np.pi))
    phi = sinusoid_radial(b0, b1, rng.uniform(0.3, 1.8), rng.uniform(0, 2 * np.pi))
    return ProfilePair(rho=rho, phi=phi)

