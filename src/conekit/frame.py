"""Curvature of the warped metric in its orthonormal moving frame.

The metric is ``g = dr^2 + rho^2 (phi^2 s1^2 + s2^2 + s3^2)`` where
``s1, s2, s3`` are left-invariant coframes on the 3-sphere dual to fields
``X1, X2, X3`` with ``[Xi, Xj] = 2 eps_ijk Xk``.  The orthonormal frame is

    e0 = d/dr,  e1 = X1/(rho*phi),  e2 = X2/rho,  e3 = X3/rho.

The module holds the closed-form Ricci diagonal (:func:`ricci_diag`,
:func:`ricci_curve`), the Koszul connection, the finite-difference
Riemann-tensor oracle (:func:`curvature_from_forms`) and
:func:`metric_eval`.  The oracle derives the Levi-Civita connection from
the frame brackets (Koszul formula), differentiates it by central finite
differences in r, assembles the Riemann tensor from ``O = d w + w ^ w``
and contracts.  It never touches second derivatives of the profile
analytically, so it serves as a numeric oracle for the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import ProfilePair

__all__ = [
    "RicciDiag",
    "FrameDomainError",
    "OracleStepError",
    "ricci_diag",
    "ricci_curve",
    "curvature_from_forms",
    "metric_eval",
]


class FrameDomainError(ValueError):
    """Raised when a frame quantity is evaluated where it degenerates."""


class OracleStepError(RuntimeError):
    """Raised when the finite-difference step fails its self-consistency check."""


@dataclass(frozen=True)
class RicciDiag:
    """Diagonal Ricci entries in the orthonormal frame e0..e3 (units 1/length^2)."""

    r00: float
    r11: float
    r22: float
    r33: float

    def as_array(self) -> np.ndarray:
        return np.array([self.r00, self.r11, self.r22, self.r33])


def _check_positive(name: str, value, r) -> None:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise FrameDomainError(f"{name} is not finite at r={r!r}")
    if np.any(arr == 0.0):
        raise FrameDomainError(f"{name} vanishes at r={r!r}")


def ricci_curve(profile: ProfilePair, r) -> np.ndarray:
    """Closed-form Ricci diagonal on an array of radii; returns shape (4, n).

    Rows are (r00, r11, r22, r33).  Pure function of the profile values, so
    grid evaluation may be partitioned arbitrarily across workers.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    rho, rho1, rho2 = (profile.rho(r, k) for k in range(3))
    phi, phi1, phi2 = (profile.phi(r, k) for k in range(3))
    _check_positive("rho", rho, r)
    _check_positive("phi", phi, r)

    mixed = rho1 * phi1 / (rho * phi)
    r00 = -(3 * rho2 / rho + phi2 / phi + 2 * mixed)
    r11 = -(rho2 / rho + phi2 / phi + 4 * mixed
            - 2 * phi**2 / rho**2 + 2 * rho1**2 / rho**2)
    r22 = (-rho2 / rho - mixed
           + 4 / rho**2 - 2 * phi**2 / rho**2 - 2 * rho1**2 / rho**2)
    out = np.stack([r00, r11, r22, r22])
    if not np.all(np.isfinite(out)):
        bad = r[~np.all(np.isfinite(out), axis=0)]
        raise FrameDomainError(f"non-finite Ricci entries at r={bad!r}")
    return out


def ricci_diag(profile: ProfilePair, r: float) -> RicciDiag:
    """Closed-form diagonal Ricci tensor at radius r.

    Raises :class:`FrameDomainError` when rho or phi vanishes at r (the
    frame degenerates there) or when an entry comes out non-finite.
    """
    vals = ricci_curve(profile, float(r))[:, 0]
    return RicciDiag(*vals)


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


# ---------------------------------------------------------------------------
# Riemann-tensor oracle
# ---------------------------------------------------------------------------

_EPS3 = np.zeros((4, 4, 4))
for _i, _j, _k, _s in [(1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1),
                       (2, 1, 3, -1), (3, 2, 1, -1), (1, 3, 2, -1)]:
    _EPS3[_i, _j, _k] = _s


def _bracket_table(profile: ProfilePair, r: float) -> np.ndarray:
    """c[i, j, k] = <[e_i, e_j], e_k> from the frame scales and their slopes."""
    rho = profile.rho(r)
    phi = profile.phi(r)
    _check_positive("rho", rho, r)
    _check_positive("phi", phi, r)
    rho1 = profile.rho(r, 1)
    phi1 = profile.phi(r, 1)
    s = np.array([1.0, rho * phi, rho, rho])
    s1 = np.array([0.0, rho1 * phi + rho * phi1, rho1, rho1])

    # [e_a, e_b] = 2 eps_abk s_k / (s_a s_b) e_k and [e_0, e_a] = -(s_a' / s_a) e_a
    c = 2.0 * _EPS3 * s / np.multiply.outer(s, s)[:, :, None]
    a = np.arange(1, 4)
    c[0, a, a] = -s1[a] / s[a]
    c[a, 0, a] = s1[a] / s[a]
    return c


def _koszul(c: np.ndarray) -> np.ndarray:
    """gamma[i, j, k] = <nabla_{e_i} e_j, e_k> for an orthonormal frame."""
    # 2<nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>
    # i.e. gamma[i,j,k] = (c[i,j,k] - c[j,k,i] + c[k,i,j]) / 2
    return 0.5 * (c - np.transpose(c, (2, 0, 1)) + np.transpose(c, (1, 2, 0)))


def _riemann(profile: ProfilePair, r: float, h: float) -> np.ndarray:
    """R[p, q, j, k] = O_j^k(e_p, e_q), the curvature 2-forms on frame pairs.

    ``w_j^k(e_p) = gamma[p, j, k]`` and ``dw(e_p, e_q) = e_p w(e_q) - e_q w(e_p)
    - w([e_p, e_q])``, where only e_0 = d/dr moves the coefficients (step h).
    """
    c = _bracket_table(profile, r)
    gamma = _koszul(c)
    dgamma = (_koszul(_bracket_table(profile, r + h))
              - _koszul(_bracket_table(profile, r - h))) / (2.0 * h)
    d = -np.einsum("pql,ljk->pqjk", c, gamma)
    d[0] += dgamma
    d[:, 0] -= dgamma
    # (w_j^l ^ w_l^k)(e_p, e_q)
    quad = np.einsum("pjl,qlk->pqjk", gamma, gamma)
    return d - (quad - quad.transpose(1, 0, 2, 3))


def _ricci(R: np.ndarray) -> RicciDiag:
    """Ricci diagonal ``Ric(e_l, e_l) = sum_{k != l} O_k^l(e_l, e_k)``.

    Each term is read as ``-R[a, b, a, b]`` with ``(a, b) = sorted((k, l))``
    and summed from 0.0 in ascending k; this order fixes the last bit.  The
    sign is pinned by the fixtures (flat cone zero, round cylinder 0, 2, 2, 2).
    """
    diag = []
    for l in range(4):
        total = 0.0
        for k in range(4):
            if k != l:
                a, b = sorted((k, l))
                total -= R[a, b, a, b]
        diag.append(total)
    return RicciDiag(*diag)


# largest move of the Ricci entries between steps h and h/2 the oracle accepts
_STEP_TOL = 1e-6


def curvature_from_forms(profile: ProfilePair, r: float, h: float = 1e-4,
                         check_step: bool = True):
    """Numeric Riemann tensor and Ricci diagonal at radius r.

    Parameters
    ----------
    profile : ProfilePair
    r : float
        Radius; must satisfy r - h > 0 so the central stencil stays in domain.
    h : float
        Central-difference step for the radial derivative of the connection
        coefficients.  Must be small against the variation scale of the
        profile; quadrature-built profiles want h ~ 1e-5.
    check_step : bool
        When True, re-evaluates at h/2 and raises :class:`OracleStepError`
        if the Ricci entries move by more than 1e-6; a too-coarse
        step is reported, never silently accepted.

    Returns
    -------
    (R, RicciDiag)
        ``R`` is the (4, 4, 4, 4) array ``R[p, q, j, k] = O_j^k(e_p, e_q)``;
        the full Ricci tensor is ``np.einsum("mkkl->lm", R)``.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    if r - h <= 0:
        raise FrameDomainError(f"need r - h > 0, got r={r}, h={h}")
    R = _riemann(profile, r, h)
    ric = _ricci(R)
    if check_step:
        ric_half = _ricci(_riemann(profile, r, h / 2))
        drift = np.max(np.abs(ric.as_array() - ric_half.as_array()))
        if drift > _STEP_TOL:
            raise OracleStepError(
                f"step h={h} too coarse at r={r}: Ricci moved by {drift:.3e} "
                f"between h and h/2 (tolerance {_STEP_TOL:.1e})")
    return R, ric
