"""Curvature of the warped metric in its orthonormal moving frame.

The metric is ``g = dr^2 + rho^2 (phi^2 s1^2 + s2^2 + s3^2)`` where
``s1, s2, s3`` are left-invariant coframes on the 3-sphere dual to fields
``X1, X2, X3`` with ``[Xi, Xj] = 2 eps_ijk Xk``.  The orthonormal frame is

    e0 = d/dr,  e1 = X1/(rho*phi),  e2 = X2/rho,  e3 = X3/rho.

The module holds the closed-form Ricci diagonal (:func:`ricci_diag`,
:func:`ricci_curve`), the Koszul connection and the finite-difference
Riemann-tensor oracle (:func:`curvature_from_forms`).  The oracle derives
the Levi-Civita connection from the frame brackets (Koszul formula),
differentiates it by central finite differences in r, assembles the
Riemann tensor from ``O = d w + w ^ w`` and contracts.  It never touches
second derivatives of the profile analytically, so it serves as a numeric
oracle for the closed forms.

:func:`ricci_curve` evaluates the six profile values once per call; a
scalar radius stays 0-d, so they are Python floats and no array is built
until the result.  The oracle evaluates rho, phi and their slopes once on
its stencil ``[r, r + h, r - h]`` and builds every bracket table and
connection as one batch with a leading stencil axis; the step check does
the same again at h/2.  Squares are written as products (``rho * rho``,
never ``rho**2``): Python's float ``**`` calls libm ``pow``, which can
differ from ``x * x`` in the last bit, while numpy's array ``**2`` is
``x * x``.  So a radius gets the same bits alone as in any batch.
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


def _where(r: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The radii at which ``mask`` holds, for an error message."""
    return r.reshape(mask.shape)[mask]


def _check_positive(name: str, value, r: np.ndarray) -> None:
    arr = np.asarray(value)
    finite = np.isfinite(arr)
    if finite.all() and arr.all():
        return
    if not finite.all():
        raise FrameDomainError(f"{name} is not finite at r={_where(r, ~finite)!r}")
    raise FrameDomainError(f"{name} vanishes at r={_where(r, arr == 0.0)!r}")


def _frame_scales(profile: ProfilePair, r: np.ndarray, orders: int):
    """rho and phi with their first ``orders - 1`` derivatives at r, checked.

    Raises :class:`FrameDomainError` at a non-finite radius and where rho
    or phi is non-finite or zero, naming only the offending radii.
    """
    finite = np.isfinite(r)
    if not finite.all():
        raise FrameDomainError(f"radius is not finite at r={_where(r, ~finite)!r}")
    rho = [profile.rho(r, k) for k in range(orders)]
    phi = [profile.phi(r, k) for k in range(orders)]
    _check_positive("rho", rho[0], r)
    _check_positive("phi", phi[0], r)
    return rho, phi


def ricci_curve(profile: ProfilePair, r) -> np.ndarray:
    """Closed-form Ricci diagonal on an array of radii; returns shape (4, n).

    Rows are (r00, r11, r22, r33); a scalar radius gives shape (4, 1).  A
    radius gets the same values in any batch, so grid evaluation may be
    partitioned arbitrarily across workers.
    """
    r = np.asarray(r, dtype=float)
    (rho, rho1, rho2), (phi, phi1, phi2) = _frame_scales(profile, r, 3)
    try:
        rho_sq = rho * rho
        phi_sq = phi * phi
        slope_sq = rho1 * rho1
        mixed = rho1 * phi1 / (rho * phi)
        r00 = -(3 * rho2 / rho + phi2 / phi + 2 * mixed)
        r11 = -(rho2 / rho + phi2 / phi + 4 * mixed
                - 2 * phi_sq / rho_sq + 2 * slope_sq / rho_sq)
        r22 = (-rho2 / rho - mixed
               + 4 / rho_sq - 2 * phi_sq / rho_sq - 2 * slope_sq / rho_sq)
    except ZeroDivisionError:
        # Python floats of a scalar radius, where an array would hold inf
        raise FrameDomainError(f"non-finite Ricci entries at r={r.reshape(1)!r}") from None
    out = np.array([r00, r11, r22, r22]).reshape(4, *(r.shape or (1,)))
    finite = np.isfinite(out)
    if not finite.all():
        bad = ~finite.all(axis=0)
        raise FrameDomainError(f"non-finite Ricci entries at r={_where(r, bad)!r}")
    return out


def ricci_diag(profile: ProfilePair, r: float) -> RicciDiag:
    """Closed-form diagonal Ricci tensor at radius r.

    Raises :class:`FrameDomainError` when rho or phi vanishes at r (the
    frame degenerates there) or when an entry comes out non-finite.
    """
    return RicciDiag(*ricci_curve(profile, float(r))[:, 0])


# ---------------------------------------------------------------------------
# Riemann-tensor oracle
# ---------------------------------------------------------------------------

_EPS3 = np.zeros((4, 4, 4))
for _i, _j, _k, _s in [(1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1),
                       (2, 1, 3, -1), (3, 2, 1, -1), (1, 3, 2, -1)]:
    _EPS3[_i, _j, _k] = _s


def _bracket_table(profile: ProfilePair, r) -> np.ndarray:
    """c[..., i, j, k] = <[e_i, e_j], e_k> from the frame scales and their slopes.

    The leading axes are those of r: a scalar gives (4, 4, 4), a stencil of
    m radii (m, 4, 4, 4).
    """
    r = np.asarray(r, dtype=float)
    (rho, rho1), (phi, phi1) = _frame_scales(profile, r, 2)
    s = np.empty(r.shape + (4,))
    s[..., 0] = 1.0
    s[..., 1] = rho * phi
    s[..., 2] = s[..., 3] = rho
    # s_a' / s_a for a = 1, 2, 3
    log_slope = np.empty(r.shape + (3,))
    log_slope[..., 0] = rho1 * phi + rho * phi1
    log_slope[..., 1] = log_slope[..., 2] = rho1
    log_slope /= s[..., 1:]

    # [e_a, e_b] = 2 eps_abk s_k / (s_a s_b) e_k and [e_0, e_a] = -(s_a' / s_a) e_a
    c = 2.0 * _EPS3 * s[..., None, None, :] / (s[..., :, None] * s[..., None, :])[..., None]
    a = np.arange(1, 4)
    c[..., 0, a, a] = -log_slope
    c[..., a, 0, a] = log_slope
    return c


def _koszul(c: np.ndarray) -> np.ndarray:
    """gamma[..., i, j, k] = <nabla_{e_i} e_j, e_k> for an orthonormal frame."""
    # 2<nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>
    # i.e. gamma[i,j,k] = (c[i,j,k] - c[j,k,i] + c[k,i,j]) / 2
    # c.swapaxes(-1, -2).swapaxes(-2, -3)[..., i, j, k] = c[..., j, k, i], and
    # the other pair of swaps gives c[..., k, i, j]
    return 0.5 * (c - c.swapaxes(-1, -2).swapaxes(-2, -3)
                  + c.swapaxes(-3, -2).swapaxes(-2, -1))


def _riemann(profile: ProfilePair, r: float, h: float) -> np.ndarray:
    """R[p, q, j, k] = O_j^k(e_p, e_q) with the radial derivative by step h.

    ``w_j^k(e_p) = gamma[p, j, k]`` and ``dw(e_p, e_q) = e_p w(e_q) - e_q w(e_p)
    - w([e_p, e_q])``, where only e_0 = d/dr moves the coefficients.  One
    bracket table covers the stencil ``[r, r + h, r - h]``.
    """
    c = _bracket_table(profile, r + np.array([0.0, h, -h]))
    gamma = _koszul(c)
    dgamma = (gamma[1] - gamma[2]) / (2.0 * h)
    c, gamma = c[0], gamma[0]
    d = -np.einsum("pql,ljk->pqjk", c, gamma)
    d[0] += dgamma
    d[:, 0] -= dgamma
    # (w_j^l ^ w_l^k)(e_p, e_q)
    quad = np.einsum("pjl,qlk->pqjk", gamma, gamma)
    return d - (quad - quad.transpose(1, 0, 2, 3))


def _ricci(R: np.ndarray) -> np.ndarray:
    """Ricci diagonal ``Ric(e_l, e_l) = sum_k O_k^l(e_l, e_k)``, shape (4,).

    The sign is pinned by the fixtures (flat cone zero, round cylinder 0, 2, 2, 2).
    """
    return np.einsum("lkkl->l", R)


# largest move of the Ricci entries between steps h and h/2 the oracle accepts
_STEP_TOL = 1e-6


def curvature_from_forms(profile: ProfilePair, r: float, h: float = 1e-4,
                         check_step: bool = True):
    """Numeric Riemann tensor and Ricci diagonal at radius r.

    Parameters
    ----------
    profile : ProfilePair
    r : float
        Finite radius; must satisfy r - h > 0 so the central stencil stays
        in domain.
    h : float
        Central-difference step for the radial derivative of the connection
        coefficients.  Must be small against the variation scale of the
        profile; quadrature-built profiles want h ~ 1e-5.
    check_step : bool
        When True, also evaluates on a second stencil at step h/2 and
        raises :class:`OracleStepError` if the Ricci entries move by more
        than 1e-6 or by NaN; a too-coarse step is reported, never silently
        accepted.  Without the check a non-finite Ricci entry raises
        :class:`FrameDomainError`, as in :func:`ricci_curve`.

    Returns
    -------
    (R, RicciDiag)
        ``R`` is the (4, 4, 4, 4) array ``R[p, q, j, k] = O_j^k(e_p, e_q)``;
        the full Ricci tensor is ``np.einsum("mkkl->lm", R)``.
    """
    if not h > 0:
        raise ValueError(f"step h must be positive, got {h}")
    if r - h <= 0:
        raise FrameDomainError(f"need r - h > 0, got r={r}, h={h}")
    R = _riemann(profile, r, h)
    ric = _ricci(R)
    if check_step:
        drift = np.max(np.abs(ric - _ricci(_riemann(profile, r, h / 2))))
        if not drift <= _STEP_TOL:
            raise OracleStepError(
                f"step h={h} too coarse at r={r}: Ricci moved by {drift:.3e} "
                f"between h and h/2 (tolerance {_STEP_TOL:.1e})")
    if not np.isfinite(ric).all():
        raise FrameDomainError(f"non-finite Ricci entries at r={r!r}")
    return R, RicciDiag(*ric)
