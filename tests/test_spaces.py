"""Metric-space sampling, GH bounds, and the collapse experiment."""

import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from conekit import profiles, spaces
from conekit.quaternions import Q8, qmul, random_unit
from conekit.spaces import (
    collapse_experiment,
    from_distance_matrix,
    geodesics,
    gh_upper_bound,
    neighbor_graph,
    quotient_dist_round,
    sample_annulus,
    sample_sphere,
    space_from_points,
    weigh,
)

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I_Q = np.array([0.0, 1.0, 0.0, 0.0])
DEEP = np.array([0.5, 0.5, 0.5, 0.5])


def _unit_pair(seed):
    rng = np.random.default_rng(seed)
    return random_unit(rng, 2)


def _one_edge(profile, r_a, q_a, r_b, q_b, group="q8"):
    """Weight of the single edge between two sample points."""
    w = weigh(profile, np.array([r_a, r_b]), np.stack([q_a, q_b]),
              np.array([[0, 1]]), group)
    return float(w[0])


# ---------------------------------------------------------------------------
# quotient distance
# ---------------------------------------------------------------------------

def test_quotient_dist_same_orbit():
    assert quotient_dist_round(ONE, I_Q) == 0.0
    q = _unit_pair(0)[0]
    assert quotient_dist_round(q, q) == 0.0


def test_quotient_dist_deep_point():
    # all eight lifts of (1+i+j+k)/2 make angle arccos(1/2) with 1
    assert quotient_dist_round(ONE, DEEP) == pytest.approx(np.pi / 3, abs=1e-14)


def test_quotient_dist_group_invariance():
    q1, q2 = _unit_pair(1)
    base = quotient_dist_round(q1, q2)
    for g in Q8:
        assert abs(quotient_dist_round(qmul(g, q1), q2) - base) <= 1e-12
        assert abs(quotient_dist_round(q1, qmul(g, q2)) - base) <= 1e-12


# ---------------------------------------------------------------------------
# edges and samples
# ---------------------------------------------------------------------------

def test_radial_edge_is_exact():
    q = _unit_pair(2)[0]
    h = 0.37
    rng_profile = profiles.random_smooth_profile(np.random.default_rng(5))
    assert _one_edge(rng_profile, 1.0, q, 1.0 + h, q) == pytest.approx(h, abs=1e-12)


def test_round_edge_matches_quotient_distance():
    # one direct edge on the unit round sphere is the exact quotient angle
    q1, q2 = _unit_pair(3)
    length = _one_edge(profiles.round_profile(), 1.0, q1, 1.0, q2)
    assert length == pytest.approx(quotient_dist_round(q1, q2), abs=1e-12)


def test_edge_length_matches_metric_eval():
    # for a purely angular chord the edge weight is the metric norm of the
    # coframe components of the quaternion logarithm
    from conekit.frame import metric_eval
    from conekit.quaternions import qconj, qlog_vec

    rng = np.random.default_rng(21)
    profile = profiles.random_smooth_profile(rng)
    q1, q2 = random_unit(rng, 2)
    a = qlog_vec(qmul(qconj(q1), q2))
    expect = np.sqrt(metric_eval(profile, 1.4, (0.0, *a)))
    got = _one_edge(profile, 1.4, q1, 1.4, q2, group="trivial")
    assert got == pytest.approx(expect, rel=1e-12)


def test_berger_fiber_collapse_diameter():
    # shrinking the Hopf fiber collapses the fixed-radius sphere onto the
    # half-radius base 2-sphere (diameter pi/2); graph stretch keeps the
    # estimate a few percent high
    diams = [sample_sphere(profiles.berger_profile(t), 1.0, 1500, seed=4,
                           group="trivial").diameter()
             for t in (0.3, 0.04)]
    assert diams[1] < diams[0]
    assert abs(diams[1] - np.pi / 2) <= 0.10 * (np.pi / 2)


def test_sample_annulus_validation(lab_profile):
    with pytest.raises(ValueError):
        sample_annulus(lab_profile, 1.0, 0.5, 100, seed=0)
    with pytest.raises(ValueError):
        sample_annulus(lab_profile, 0.5, 1.0, 0, seed=0)
    with pytest.raises(ValueError):
        sample_annulus(lab_profile, 0.5, 1.0, 10, seed=0)


def test_sampled_space_metric_axioms(lab_profile):
    space = sample_annulus(lab_profile, 1.0, 4.0, 300, seed=7)
    report = space.metric_axioms_report()
    assert report["ok"], report
    assert report["symmetric"] and report["diag_zero"]
    assert report["edge_violation"] <= 1e-12
    # reference: the triangle inequality over all triples, pivot by pivot
    d = space.dist
    slack = max(float((d - (d[:, k][:, None] + d[k, :][None, :])).max())
                for k in range(space.n))
    assert slack <= 1e-12


def test_edge_certificate_is_complete():
    # a 1e-9 violation on one edge whose endpoints avoid an evenly spaced
    # 128-point pivot subset: a check through sampled pivots misses it
    space = sample_sphere(profiles.round_profile(), 1.0, 900, seed=3,
                          group="trivial")
    pivots = set(np.linspace(0, space.n - 1, 128).astype(int).tolist())
    a, b = next((a, b) for (a, b), w in zip(space.edges.tolist(), space.weights)
                if space.dist[a, b] == w and a not in pivots and b not in pivots)
    dist = space.dist.copy()
    dist[a, b] += 1e-9
    dist[b, a] += 1e-9
    report = replace(space, dist=dist).metric_axioms_report()
    assert report["symmetric"] and report["diag_zero"]
    assert report["edge_violation"] == pytest.approx(1e-9, rel=1e-6)
    assert not report["ok"]


def test_edge_certificate_on_explicit_matrix():
    bad = from_distance_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    report = bad.metric_axioms_report()
    assert report["edge_violation"] == 1.0
    assert not report["ok"]
    good = from_distance_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert good.metric_axioms_report()["ok"]


def test_sample_determinism(lab_profile):
    a = sample_annulus(lab_profile, 1.0, 4.0, 120, seed=42)
    b = sample_annulus(lab_profile, 1.0, 4.0, 120, seed=42)
    assert np.array_equal(a.dist, b.dist)


# ---------------------------------------------------------------------------
# all-pairs shortest paths split across processes
# ---------------------------------------------------------------------------

def _weighted_graph(kind, lab_profile):
    """(n, edges, weights) of an n=800 q8 annulus or an n=1000 trivial sphere."""
    rng = np.random.default_rng(6)
    if kind == "annulus":
        profile, group = lab_profile, "q8"
        radii, quats = spaces._draw_points(rng, 800, 1.0, 4.0, group)
    else:
        profile, group = profiles.round_profile(), "trivial"
        radii, quats = spaces._draw_points(rng, 1000, 1.0, 1.0, group)
    edges = neighbor_graph(radii, quats, group)
    return len(radii), edges, weigh(profile, radii, quats, edges, group)


def _use_cpus(monkeypatch, cpus):
    """Give ``geodesics`` an affinity mask of ``cpus`` CPUs; return a fork counter."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("kind", ["annulus", "sphere"])
@pytest.mark.parametrize("cpus", [1, 3])
def test_geodesics_split_is_exact(monkeypatch, lab_profile, kind, cpus):
    # 1000 rows over 3 CPUs make uneven blocks; one CPU forks nothing
    n, edges, weights = _weighted_graph(kind, lab_profile)
    graph = csr_matrix((np.concatenate([weights, weights]),
                        (np.concatenate([edges[:, 0], edges[:, 1]]),
                         np.concatenate([edges[:, 1], edges[:, 0]]))), shape=(n, n))
    expect = shortest_path(graph, method="D", directed=False)
    expect = np.minimum(expect, expect.T)
    np.fill_diagonal(expect, 0.0)
    forks = _use_cpus(monkeypatch, cpus)
    assert np.array_equal(geodesics(n, edges, weights), expect)
    assert len(forks) == cpus - 1


@pytest.mark.parametrize("failing", ["child", "caller"])
def test_geodesics_worker_failure_raises_and_reaps(monkeypatch, lab_profile, failing):
    n, edges, weights = _weighted_graph("sphere", lab_profile)
    real = spaces.shortest_path

    def flaky(graph, *args, indices, **kwargs):
        if (indices[0] == 0) == (failing == "caller"):
            raise MemoryError("injected")
        return real(graph, *args, indices=indices, **kwargs)
    monkeypatch.setattr(spaces, "shortest_path", flaky)
    _use_cpus(monkeypatch, 3)
    expected = RuntimeError if failing == "child" else MemoryError
    with pytest.raises(expected):
        geodesics(n, edges, weights)
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 3])
def test_geodesics_disconnected_graph(monkeypatch, cpus):
    _use_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match="graph disconnected after weighting"):
        geodesics(5, np.array([[0, 1], [2, 3], [3, 4]]), np.ones(3))


def test_graph_distance_matches_round_quotient():
    # dense graph on the round quotient sphere: edges are exact geodesic
    # lengths, so the sampled distance converges from above
    q1, q2 = _unit_pair(42)
    closed = quotient_dist_round(q1, q2)
    quats = np.concatenate([[q1, q2], random_unit(np.random.default_rng(5), 1998)])
    space = space_from_points(profiles.round_profile(), np.ones(2000), quats,
                              group="q8", k=128)
    graph = space.dist[0, 1]
    assert graph >= closed - 1e-12
    assert abs(graph - closed) <= 0.03 * closed


def test_diameter_trivia():
    single = from_distance_matrix([[0.0]])
    assert single.diameter() == 0.0
    two = from_distance_matrix([[0.0, 1.0], [1.0, 0.0]])
    assert two.diameter() == 1.0
    with pytest.raises(ValueError):
        from_distance_matrix(np.zeros((0, 0))).diameter()


def test_sample_distances_invariant_under_orbit_relabeling(lab_profile):
    # replacing any point's quaternion by a group translate leaves every
    # graph distance unchanged (edge lengths minimize over the lifts)
    rng = np.random.default_rng(13)
    radii = 1.0 + rng.uniform(size=80)
    quats = random_unit(rng, 80)
    base = space_from_points(lab_profile, radii, quats, group="q8", k=12)
    relabeled = quats.copy()
    for idx, g_idx in zip((3, 17, 44), (1, 5, 6)):
        relabeled[idx] = qmul(Q8[g_idx], relabeled[idx])
    moved = space_from_points(lab_profile, radii, relabeled, group="q8", k=12)
    assert np.abs(moved.dist - base.dist).max() <= 1e-12


# ---------------------------------------------------------------------------
# GH bounds
# ---------------------------------------------------------------------------

def test_gh_identity_is_zero(lab_profile):
    space = sample_annulus(lab_profile, 1.0, 3.0, 80, seed=1)
    assert gh_upper_bound(space, space) == 0.0


def test_gh_symmetry(lab_profile):
    a = sample_annulus(lab_profile, 1.0, 3.0, 90, seed=2)
    b = space_from_points(profiles.cone_profile(0.05), a.radii, a.quats)
    assert gh_upper_bound(a, b) == gh_upper_bound(b, a)


def test_gh_row_blocks_match_whole_matrix():
    # 700 points take two row blocks; the maximum is exact either way
    rng = np.random.default_rng(8)
    a, b = (from_distance_matrix(np.triu(m, 1) + np.triu(m, 1).T)
            for m in rng.uniform(size=(2, 700, 700)))
    assert gh_upper_bound(a, b) == 0.5 * np.abs(a.dist - b.dist).max()


def test_gh_requires_covering():
    # matching point i with point i covers both sets only when their sizes agree
    two = from_distance_matrix([[0.0, 1.0], [1.0, 0.0]])
    one = from_distance_matrix([[0.0]])
    with pytest.raises(ValueError, match="one point set"):
        gh_upper_bound(two, one)


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------

def test_collapse_validation(lab_profile):
    with pytest.raises(ValueError):
        collapse_experiment(lab_profile, ())
    with pytest.raises(ValueError):
        collapse_experiment(lab_profile, (0.5, 1.0), n=100)
    with pytest.raises(ValueError):
        collapse_experiment(lab_profile, (2.0, 1.0), n=100)
    with pytest.raises(ValueError):
        collapse_experiment(profiles.round_profile(), (1.0, 0.5), n=100)


def test_collapse_single_eps(lab_profile):
    result = collapse_experiment(lab_profile, (1.0,), n=100, seed=3)
    assert len(result.rows) == 1
    assert result.rows[0].gh_bound >= 0.0


def test_collapse_small(lab_profile):
    result = collapse_experiment(lab_profile, (1.0, 0.5, 0.25), n=220, seed=1)
    gh = [row.gh_bound for row in result.rows]
    assert result.gh_violations() <= 1
    assert gh[-1] < gh[0]
    assert result.diameter_ratio() <= 1.25


def test_collapse_shares_one_graph_per_eps(lab_profile):
    # rows equal two independently built spaces on the same draws
    result = collapse_experiment(lab_profile, (1.0, 0.5), n=120, seed=3)
    cone = profiles.cone_profile(lab_profile.neck_slope)
    for idx, row in enumerate(result.rows):
        rng = np.random.default_rng([3, idx])
        radii, quats = spaces._draw_points(rng, 120, row.eps, 8.0, "q8")
        smooth = space_from_points(lab_profile.rescale(row.eps), radii, quats)
        exact = space_from_points(cone, radii, quats)
        gh = gh_upper_bound(smooth, exact)
        assert (row.gh_bound, row.diameter) == (gh, smooth.diameter())
