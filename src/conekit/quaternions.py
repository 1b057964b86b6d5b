"""Unit-quaternion helpers for the 3-sphere and its quaternion-group quotients.

Conventions: components are ordered (w, x, y, z); the vector part spans
the left-invariant directions X1, X2, X3, whose brackets satisfy
``[Xi, Xj] = 2 eps_ijk Xk``.  The quotient groups, the trivial one and the
order-8 group {+-1, +-i, +-j, +-k}, are named in ``QUOTIENTS``.  A group
acts by left multiplication, and ``orbit`` is the one place that side is
written: every product by a group element goes through it.  Left
translations preserve every left-invariant metric, so the group acts by
isometries of all the metrics in this package.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BASIS",
    "Q8",
    "QUOTIENTS",
    "quotient",
    "qmul",
    "qconj",
    "qlog_vec",
    "orbit",
    "canonical_q8",
    "random_unit",
]

BASIS = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])

Q8 = np.concatenate([BASIS, -BASIS])

# per quotient group: its lifts (Q8's up to sign) and whether it is Q8
QUOTIENTS = {"trivial": (BASIS[:1], False), "q8": (BASIS, True)}


def quotient(name):
    """The ``QUOTIENTS`` entry of a group name; ValueError for another name."""
    if name not in QUOTIENTS:
        raise ValueError(f"unknown group {name!r}: expected 'trivial' or 'q8'")
    return QUOTIENTS[name]


def qmul(a, b):
    """Hamilton product, broadcasting over leading axes of (..., 4) arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, x1, y1, z1 = np.moveaxis(a, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(b, -1, 0)
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


def qconj(a):
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., 1:] *= -1.0
    return out


def qlog_vec(a):
    """Vector part of log(a) for unit quaternions: theta * axis, shape (..., 3).

    The components along (i, j, k) are the left-invariant coframe values of
    the geodesic chord from 1 to ``a`` on the unit 3-sphere.  Near w = -1
    the axis is ill-conditioned, and at ``|v| <= 1e-15`` the result is 0 for
    w = -1 as for w = 1, although the angle there is pi: a caller must keep
    ``a`` away from -1 (``spaces.weigh`` flips q8 quotients to w >= 0 and
    rejects antipodal edges otherwise).
    """
    a = np.asarray(a, dtype=float)
    w = a[..., 0]
    v = a[..., 1:]
    s = np.linalg.norm(v, axis=-1)
    theta = np.arctan2(s, w)
    factor = np.where(s > 1e-15, theta / np.where(s > 1e-15, s, 1.0), 1.0)
    return v * factor[..., None]


def orbit(q, elements):
    """The translates g*q of q by the group ``elements``, shape (..., len(elements), 4).

    The one product by a group element in the package, so the side the
    group acts on is written here and nowhere else.
    """
    return qmul(elements, np.asarray(q, dtype=float)[..., None, :])


def canonical_q8(q):
    """Lexicographically maximal element of the quaternion-group orbit.

    Multiplication by the group's basis elements permutes components up to
    sign without rounding, so orbit equality is float-exact and the
    canonical representative is a well-defined choice function.
    """
    points = orbit(q, Q8)  # (..., 8, 4)
    keys = tuple(points[..., c] for c in (3, 2, 1, 0))  # last key is primary
    idx = np.lexsort(keys, axis=-1)[..., -1]
    return np.take_along_axis(points, idx[..., None, None], axis=-2).squeeze(-2)


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    """n quaternions uniform on the unit 3-sphere (normalized Gaussians)."""
    v = rng.standard_normal((n, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
