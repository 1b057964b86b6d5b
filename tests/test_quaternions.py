"""Quaternion algebra and the group-orbit canonicalization."""

import numpy as np
import pytest

from conekit.quaternions import (
    BASIS,
    Q8,
    canonical_q8,
    qconj,
    qlog_vec,
    qmul,
    random_unit,
)

ONE, I, J, K = BASIS


def test_multiplication_table():
    assert np.allclose(qmul(I, J), K)
    assert np.allclose(qmul(J, K), I)
    assert np.allclose(qmul(K, I), J)
    assert np.allclose(qmul(I, I), -ONE)
    assert np.allclose(qmul(J, I), -K)


def test_group_closure():
    products = qmul(Q8[:, None, :], Q8[None, :, :]).reshape(-1, 4)
    for p in products:
        assert any(np.array_equal(p, g) for g in Q8)


def test_conjugate_inverts_units():
    rng = np.random.default_rng(0)
    q = random_unit(rng, 32)
    assert np.allclose(qmul(qconj(q), q), ONE, atol=1e-14)


def test_log_recovers_angle():
    rng = np.random.default_rng(1)
    for _ in range(64):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(0.01, np.pi - 0.01)
        q = np.concatenate([[np.cos(theta)], np.sin(theta) * axis])
        vec = qlog_vec(q)
        assert np.linalg.norm(vec) == pytest.approx(theta, abs=1e-12)
        assert np.allclose(vec / theta, axis, atol=1e-12)
    assert np.allclose(qlog_vec(ONE), 0.0)


def test_orbit_has_eight_distinct_points_generically():
    rng = np.random.default_rng(2)
    q = random_unit(rng, 1)[0]
    orbit = qmul(Q8, q[..., None, :])
    assert orbit.shape == (8, 4)
    gram = orbit @ orbit.T
    assert np.count_nonzero(np.abs(gram - 1.0) < 1e-12) == 8  # only self-pairs


def test_canonical_rep_is_orbit_invariant():
    rng = np.random.default_rng(3)
    q = random_unit(rng, 16)
    base = canonical_q8(q)
    for g in Q8:
        assert np.array_equal(canonical_q8(qmul(g, q)), base)


def test_canonical_rep_is_lexicographically_maximal():
    rng = np.random.default_rng(4)
    q = random_unit(rng, 8)
    rep = canonical_q8(q)
    for row, orbit in zip(rep, qmul(Q8, q[..., None, :])):
        assert max(map(tuple, orbit)) == tuple(row)
