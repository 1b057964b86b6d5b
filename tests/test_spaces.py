"""Metric-space sampling, GH bounds, and the collapse experiment."""

import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from conekit import bump, profiles, spaces
from conekit.quaternions import BASIS, Q8, qconj, qlog_vec, qmul, random_unit
from conekit.spaces import (
    SampledSpace,
    collapse_experiment,
    geodesics,
    gh_upper_bound,
    neighbor_graph,
    sample_annulus,
    sample_sphere,
    space_from_points,
    weigh,
)

from analytic import berger_profile, cone_profile, metric_eval

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


def _round_edge(q_a, q_b):
    """Edge length on the unit round quotient sphere."""
    return _one_edge(profiles.round_profile(), 1.0, q_a, 1.0, q_b)


def _quotient_angle(q1, q2):
    """Closed-form round quotient distance ``arccos(max_g <g q1, q2>)``."""
    return float(np.arccos(np.clip(np.max(qmul(Q8, q1) @ q2), -1.0, 1.0)))


def _complete_space(dist):
    """A space whose graph stores every pair, weighted by its distance."""
    d = np.asarray(dist, dtype=float)
    edges = np.stack(np.triu_indices(len(d), k=1), axis=1)
    return SampledSpace(dist=d, edges=edges, weights=d[edges[:, 0], edges[:, 1]])


# ---------------------------------------------------------------------------
# quotient distance: edge lengths on the round quotient sphere
# ---------------------------------------------------------------------------

def test_quotient_dist_same_orbit():
    # products of these points are exact, so the length is exactly 0; a
    # generic point's q^-1 q rounds off the identity by about 1e-17
    assert _round_edge(ONE, I_Q) == 0.0
    for g in Q8:
        assert _round_edge(DEEP, qmul(g, DEEP)) == 0.0
    q = _unit_pair(0)[0]
    assert _round_edge(q, q) <= 1e-15


def test_quotient_dist_deep_point():
    # all eight lifts of (1+i+j+k)/2 make angle arccos(1/2) with 1
    assert _round_edge(ONE, DEEP) == pytest.approx(np.pi / 3, abs=1e-14)


def test_quotient_dist_group_invariance():
    q1, q2 = _unit_pair(1)
    base = _round_edge(q1, q2)
    for g in Q8:
        assert abs(_round_edge(qmul(g, q1), q2) - base) <= 1e-12
        assert abs(_round_edge(q1, qmul(g, q2)) - base) <= 1e-12


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
    assert _round_edge(q1, q2) == pytest.approx(_quotient_angle(q1, q2), abs=1e-12)


def test_antipodal_trivial_edge_is_rejected():
    # -1 is pi from 1 on the round sphere, but its quaternion logarithm has
    # no axis: the edge once weighed 0 and the space read all-zero distances
    quats = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    round_ = profiles.round_profile()
    with pytest.raises(ValueError, match=r"edge \(0, 1\) joins antipodal fibers"):
        weigh(round_, np.ones(2), quats, np.array([[0, 1]]), "trivial")
    with pytest.raises(ValueError, match="antipodal"):
        space_from_points(round_, np.ones(2), quats, group="trivial")
    # in the q8 quotient -1 and 1 are one fiber
    assert weigh(round_, np.ones(2), quats, np.array([[0, 1]]), "q8").tolist() == [0.0]


def test_edge_length_matches_metric_eval():
    # for a purely angular chord the edge weight is the metric norm of the
    # coframe components of the quaternion logarithm
    from conekit.quaternions import qconj, qlog_vec

    rng = np.random.default_rng(21)
    profile = profiles.random_smooth_profile(rng)
    q1, q2 = random_unit(rng, 2)
    a = qlog_vec(qmul(qconj(q1), q2))
    expect = np.sqrt(metric_eval(profile, 1.4, (0.0, *a)))
    got = _one_edge(profile, 1.4, q1, 1.4, q2, group="trivial")
    assert got == pytest.approx(expect, rel=1e-12)


def _eight_lift_weigh(profile, radii, quats, edges):
    """Q8 edge lengths minimized over all 8 signed lifts, with ``weigh``'s
    arithmetic in its order."""
    a, b = edges.T
    dr = radii[b] - radii[a]
    mid = 0.5 * (radii[a] + radii[b])
    rho = np.asarray(profile.rho(mid), dtype=float)
    phi = np.asarray(profile.phi(mid), dtype=float)
    v = qlog_vec(qmul(qconj(quats[a])[:, None, :], qmul(Q8, quats[b][:, None, :])))
    ang2 = (phi[:, None]**2 * v[..., 0]**2 + v[..., 1]**2 + v[..., 2]**2)
    return np.sqrt(np.min(dr[:, None]**2 + rho[:, None]**2 * ang2, axis=1))


def _lift_test_points(rng, n):
    """The 8 elements of Q8, the 6 points (g + h)/sqrt(2) of two distinct basis
    units, whose relative quaternions include w = 0, and random points."""
    pairs = [(g, h) for g in range(4) for h in range(g + 1, 4)]
    halves = np.array([(BASIS[g] + BASIS[h]) / np.sqrt(2.0) for g, h in pairs])
    return np.concatenate([Q8, halves, random_unit(rng, n - len(Q8) - len(halves))])


@pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 1.7])
def test_weigh_folds_the_sign_bit_for_bit_on_berger_spheres(t):
    # the lifts 1, i, j, k with each relative quaternion flipped to w >= 0
    # give the minimum over all 8 lifts exactly, every pair of 60 points
    rng = np.random.default_rng(40)
    quats = _lift_test_points(rng, 60)
    radii = rng.uniform(0.5, 2.0, size=60)
    edges = np.stack(np.triu_indices(60, k=1), axis=1)
    profile = berger_profile(t)
    assert np.array_equal(weigh(profile, radii, quats, edges, "q8"),
                          _eight_lift_weigh(profile, radii, quats, edges))


def test_weigh_folds_the_sign_bit_for_bit_on_the_q8_annulus(lab_profile):
    rng = np.random.default_rng(41)
    quats = _lift_test_points(rng, 300)
    radii = rng.uniform(1.0, 4.0, size=300)
    edges = neighbor_graph(radii, quats, "q8")
    assert np.array_equal(weigh(lab_profile, radii, quats, edges, "q8"),
                          _eight_lift_weigh(lab_profile, radii, quats, edges))


@pytest.mark.parametrize("entry", [
    lambda p: sample_sphere(p, 1.0, 200, seed=1, group="Q8"),
    lambda p: sample_annulus(p, 0.5, 1.0, 200, seed=1, group="Q8"),
    lambda p: space_from_points(p, np.ones(2), np.stack([ONE, I_Q]), group="Q8"),
    lambda p: weigh(p, np.ones(2), np.stack([ONE, I_Q]), np.array([[0, 1]]), "Q8"),
], ids=["sphere", "annulus", "points", "weigh"])
def test_unknown_group_is_rejected_before_any_work(monkeypatch, entry):
    # "Q8" once built the trivial quotient and recorded "Q8" as its group
    def fail(*args):
        raise AssertionError("work started")
    for name in ("random_unit", "qmul"):
        monkeypatch.setattr(spaces, name, fail)
    with pytest.raises(ValueError, match="unknown group 'Q8': expected 'trivial' or 'q8'"):
        entry(profiles.round_profile())


@pytest.mark.parametrize("n", [0, 1])
def test_neighbor_graph_needs_two_points(n):
    with pytest.raises(ValueError, match="need at least two points"):
        neighbor_graph(np.ones(n), np.tile(ONE, (n, 1)), "q8")


def test_berger_fiber_collapse_diameter():
    # shrinking the Hopf fiber collapses the fixed-radius sphere onto the
    # half-radius base 2-sphere (diameter pi/2); graph stretch keeps the
    # estimate a few percent high
    diams = [sample_sphere(berger_profile(t), 1.0, 1500, seed=4,
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


@pytest.mark.parametrize("entry, message", [
    (lambda p: sample_annulus(p, 1.0, np.inf, 100, seed=0), "r_out < inf"),
    (lambda p: sample_annulus(p, np.nan, 4.0, 100, seed=0), "r_out < inf"),
    (lambda p: sample_sphere(p, np.inf, 100, seed=0), "positive and finite"),
    (lambda p: sample_sphere(p, np.nan, 100, seed=0), "positive and finite"),
], ids=["annulus-inf", "annulus-nan", "sphere-inf", "sphere-nan"])
def test_samplers_reject_non_finite_radii(lab_profile, entry, message):
    # an infinite outer radius once failed late as "graph disconnected"
    with pytest.raises(ValueError, match=message):
        entry(lab_profile)


@pytest.mark.parametrize("entry", [
    lambda p: sample_annulus(p, 0.5, 1.0, 49, seed=0),
    lambda p: sample_sphere(p, 1.0, 49, seed=0),
    lambda p: collapse_experiment(p, (1.0, 0.5), n=49),
], ids=["annulus", "sphere", "collapse"])
def test_every_sampler_needs_fifty_points(lab_profile, entry):
    with pytest.raises(ValueError, match="need at least 50 sample points, got 49"):
        entry(lab_profile)


def test_sampled_space_metric_axioms(lab_profile):
    space = sample_annulus(lab_profile, 1.0, 4.0, 300, seed=7)
    assert space.provenance == {"group": "q8", "n": 300, "edges": len(space.edges)}
    report = space.metric_axioms_report()
    assert report["ok"], report
    assert report["symmetric"] and report["diag_zero"]
    assert report["edge_violation"] <= 1e-12
    # reference: the triangle inequality over all triples, pivot by pivot
    d = space.dist
    slack = max(float((d - (d[:, k][:, None] + d[k, :][None, :])).max())
                for k in range(space.n))
    assert slack <= 1e-12


@pytest.fixture(scope="module")
def violated_sphere():
    """A 900-point sphere with a 1e-9 violation on one edge whose endpoints
    avoid an evenly spaced 128-point pivot subset."""
    space = sample_sphere(profiles.round_profile(), 1.0, 900, seed=3,
                          group="trivial")
    pivots = set(np.linspace(0, space.n - 1, 128).astype(int).tolist())
    a, b = next((a, b) for (a, b), w in zip(space.edges.tolist(), space.weights)
                if space.dist[a, b] == w and a not in pivots and b not in pivots)
    dist = space.dist.copy()
    dist[a, b] += 1e-9
    dist[b, a] += 1e-9
    return replace(space, dist=dist)


def test_edge_certificate_is_complete(violated_sphere):
    # a check through sampled pivots misses the violation
    report = violated_sphere.metric_axioms_report()
    assert report["symmetric"] and report["diag_zero"]
    assert report["edge_violation"] == pytest.approx(1e-9, rel=1e-6)
    assert not report["ok"]


def test_edge_certificate_split_is_exact(monkeypatch, violated_sphere):
    # the edges are split over the CPUs: three CPUs fork twice and give the
    # one-CPU report, the violation included
    reports = []
    for cpus in (1, 3):
        with monkeypatch.context() as patch:
            forks = _use_cpus(patch, cpus)
            reports.append(violated_sphere.metric_axioms_report())
            assert len(forks) == cpus - 1
    assert reports[0] == reports[1]
    assert reports[0]["edge_violation"] == pytest.approx(1e-9, rel=1e-6)


def test_edge_certificate_on_explicit_matrix():
    # on a complete graph weighted by d the certificate is the triangle
    # inequality over all triples
    bad = _complete_space([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    report = bad.metric_axioms_report()
    assert report["edge_violation"] == 1.0
    assert not report["ok"]
    good = _complete_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert good.metric_axioms_report()["ok"]
    # a one-point space has no edges to certify
    assert _complete_space([[0.0]]).metric_axioms_report() == {
        "symmetric": True, "diag_zero": True, "edge_violation": 0.0, "ok": True}


def test_sample_determinism(lab_profile):
    a = sample_annulus(lab_profile, 1.0, 4.0, 120, seed=42)
    b = sample_annulus(lab_profile, 1.0, 4.0, 120, seed=42)
    assert np.array_equal(a.dist, b.dist)


# ---------------------------------------------------------------------------
# the blocked neighbor pick and the one-matrix memory model
# ---------------------------------------------------------------------------

def _whole_matrix_edges(radii, quats, group):
    """Reference kNN edges from the full proximity matrix; (edges, attempts).

    Builds the n x n proximity at once, partitions every row of it, and
    removes duplicate pairs with a row-wise 2-D unique, growing k as
    ``neighbor_graph`` does until the graph connects.
    """
    n = len(radii)
    ang = spaces._quotient_angles(quats, quats, group)
    prox = np.hypot(radii[:, None] - radii[None, :],
                    0.5 * (radii[:, None] + radii[None, :]) * ang)
    np.fill_diagonal(prox, np.inf)
    k = spaces._default_k(n)
    attempts = 0
    while True:
        attempts += 1
        kk = min(k, n - 1)
        nbr = np.argpartition(prox, kk - 1, axis=1)[:, :kk]
        ii = np.repeat(np.arange(n), kk)
        jj = nbr.ravel()
        edges = np.unique(np.stack([np.minimum(ii, jj), np.maximum(ii, jj)], axis=1),
                          axis=0)
        adj = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                         shape=(n, n))
        if connected_components(adj, directed=False)[0] == 1:
            return edges, attempts
        k = int(np.ceil(k * 1.5)) + 1


def _two_clusters():
    """600 shuffled q8 points: 560 at radii in [1, 2] and 40 at radii in [6, 7].

    Fibers lie within about 0.02 rad of 1, so every within-cluster proximity
    is below 1.2 and every cross-cluster one above 4: the default k = 18
    links only within clusters, and the graph connects once k reaches 40.
    """
    rng = np.random.default_rng(17)
    radii = np.concatenate([rng.uniform(1.0, 2.0, 560), rng.uniform(6.0, 7.0, 40)])
    quats = ONE + 0.01 * rng.standard_normal((600, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    order = rng.permutation(600)
    return radii[order], quats[order], "q8"


@pytest.mark.parametrize("kind, attempts", [
    ("annulus", 1), ("sphere", 1), ("clusters", 3)])
def test_blocked_neighbor_graph_matches_whole_matrix(monkeypatch, kind, attempts):
    # n = 600 puts a row-block boundary at row 436, mid-array; the clusters
    # are disconnected at the default k, so k grows 18 -> 28 -> 43
    if kind == "clusters":
        radii, quats, group = _two_clusters()
    else:
        group = "q8" if kind == "annulus" else "trivial"
        r_out = 4.0 if kind == "annulus" else 1.0
        radii, quats = spaces._draw_points(9, 600, 1.0, r_out, group)
    calls = []
    real = spaces.connected_components

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(spaces, "connected_components", counting)
    expect, expect_attempts = _whole_matrix_edges(radii, quats, group)
    assert expect_attempts == attempts
    edges = neighbor_graph(radii, quats, group)
    assert edges.dtype == expect.dtype
    assert np.array_equal(edges, expect)
    assert len(calls) == attempts


def test_space_holds_one_distance_matrix():
    # the distance matrix lives in a shared map, which tracemalloc does not
    # see; everything numpy allocates besides it must stay below one more
    # n x n float64 array, whatever the number of CPUs
    n = 2000
    radii, quats = spaces._draw_points(0, n, 1.0, 1.0, "trivial")
    tracemalloc.start()
    try:
        space = space_from_points(profiles.round_profile(), radii, quats,
                                  group="trivial")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dist.shape == (n, n)
    assert peak < 8 * n * n, f"traced peak {peak / (8 * n * n):.2f} x 8n^2 bytes"


# ---------------------------------------------------------------------------
# all-pairs shortest paths split across processes
# ---------------------------------------------------------------------------

def _weighted_graph(kind, lab_profile):
    """(n, edges, weights) of an n=800 q8 annulus or an n=1000 trivial sphere."""
    if kind == "annulus":
        profile, group = lab_profile, "q8"
        radii, quats = spaces._draw_points(6, 800, 1.0, 4.0, group)
    else:
        profile, group = profiles.round_profile(), "trivial"
        radii, quats = spaces._draw_points(6, 1000, 1.0, 1.0, group)
    edges = neighbor_graph(radii, quats, group)
    return len(radii), edges, weigh(profile, radii, quats, edges, group)


def _use_cpus(monkeypatch, cpus):
    """Give ``spaces`` an affinity mask of ``cpus`` CPUs; return a fork counter.

    The counter lists the forks of this process.  A fork from a forked
    worker fails an assertion there, which fails that worker and so the
    split that started it.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    forks = []
    caller = os.getpid()
    real_fork = os.fork

    def counting_fork():
        assert os.getpid() == caller, "a forked worker forked"
        forks.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("cpus, chunks", [
    (1, [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]),
    # blocks [0, 3), [3, 6) and [6, 10), each searched 2 items at a time
    (3, [(0, 2), (2, 3), (3, 5), (5, 6), (6, 8), (8, 10)]),
])
def test_in_blocks_returns_every_block_rows(monkeypatch, cpus, chunks):
    forks = _use_cpus(monkeypatch, cpus)

    def part(lo, hi):  # each row records its item, its call and its process
        return [(item, lo, hi, os.getpid()) for item in range(lo, hi)]
    out = spaces._in_blocks(10, 4, 2, part)
    assert out.shape == (10, 4) and out.dtype == np.float64
    assert out[:, 0].tolist() == list(range(10))
    assert [(lo, hi) for lo, hi in out[:, 1:3].astype(int).tolist()] == [
        chunk for chunk in chunks for _ in range(*chunk)]
    pids = out[:, 3].astype(int)
    assert pids[0] == os.getpid()
    assert len(set(pids.tolist())) == cpus
    assert len(forks) == cpus - 1


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
        # 1000 rows over 3 CPUs: the caller's block is rows [0, 333), searched
        # in several calls; the children's blocks are [333, 666) and [666, 1000)
        if (indices[0] < 333) == (failing == "caller"):
            raise MemoryError("injected")
        return real(graph, *args, indices=indices, **kwargs)
    monkeypatch.setattr(spaces, "shortest_path", flaky)
    _use_cpus(monkeypatch, 3)
    if failing == "child":
        expected = pytest.raises(RuntimeError, match=r"pid \d+ on \[333, 666\) of 1000, "
                                                     r"pid \d+ on \[666, 1000\) of 1000$")
    else:
        expected = pytest.raises(MemoryError, match="injected")
    with expected:
        geodesics(n, edges, weights)
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 3])
def test_geodesics_disconnected_graph(monkeypatch, cpus):
    _use_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match="graph disconnected after weighting"):
        geodesics(5, np.array([[0, 1], [2, 3], [3, 4]]), np.ones(3))


def test_graph_distance_matches_round_quotient(monkeypatch):
    # dense graph (k = 128) on the round quotient sphere: edges are exact
    # geodesic lengths, so the sampled distance converges from above; one
    # Dijkstra search from point 0 reads d(0, 1)
    monkeypatch.setattr(spaces, "_default_k", lambda n: 128)
    q1, q2 = _unit_pair(42)
    closed = _quotient_angle(q1, q2)
    quats = np.concatenate([[q1, q2], random_unit(np.random.default_rng(5), 1998)])
    radii = np.ones(2000)
    edges = neighbor_graph(radii, quats, "q8")
    weights = weigh(profiles.round_profile(), radii, quats, edges, "q8")
    adjacency = spaces._adjacency(2000, edges, weights)
    graph = spaces._dijkstra_rows(adjacency, 0, 1)[0, 1]
    assert graph >= closed - 1e-12
    assert abs(graph - closed) <= 0.03 * closed


def test_sample_distances_invariant_under_orbit_relabeling(lab_profile):
    # replacing any point's quaternion by a group translate leaves every
    # graph distance unchanged (edge lengths minimize over the lifts)
    rng = np.random.default_rng(13)
    radii = 1.0 + rng.uniform(size=80)
    quats = random_unit(rng, 80)
    base = space_from_points(lab_profile, radii, quats, group="q8")
    relabeled = quats.copy()
    for idx, g_idx in zip((3, 17, 44), (1, 5, 6)):
        relabeled[idx] = qmul(Q8[g_idx], relabeled[idx])
    moved = space_from_points(lab_profile, radii, relabeled, group="q8")
    assert np.abs(moved.dist - base.dist).max() <= 1e-12


# ---------------------------------------------------------------------------
# GH bounds
# ---------------------------------------------------------------------------

def test_gh_identity_is_zero(lab_profile):
    space = sample_annulus(lab_profile, 1.0, 3.0, 80, seed=1)
    assert gh_upper_bound(space.dist, space.dist) == 0.0


def test_gh_symmetry(lab_profile):
    radii, quats = spaces._draw_points(2, 90, 1.0, 3.0, "q8")
    a = space_from_points(lab_profile, radii, quats).dist
    b = space_from_points(cone_profile(0.05), radii, quats).dist
    assert gh_upper_bound(a, b) == gh_upper_bound(b, a)


def test_gh_row_blocks_match_whole_matrix():
    # the largest share over matching row blocks is the whole-matrix bound
    rng = np.random.default_rng(8)
    a, b = (np.triu(m, 1) + np.triu(m, 1).T for m in rng.uniform(size=(2, 700, 700)))
    shares = [gh_upper_bound(a[lo:lo + 81], b[lo:lo + 81]) for lo in range(0, 700, 81)]
    assert max(shares) == gh_upper_bound(a, b) == 0.5 * np.abs(a - b).max()


def test_gh_requires_covering():
    # matching point i with point i covers both sets only when their sizes agree
    with pytest.raises(ValueError, match="one point set"):
        gh_upper_bound(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# exact cone distances
# ---------------------------------------------------------------------------

def cone_distance(u, v, theta, slope):
    """Exact distance in the metric cone C(S^3/G, slope^2 round) at cone
    radii u and v and round quotient angle theta, from the private pair the
    collapse experiment uses."""
    return spaces._chord(u, v, 0.0, spaces._half_sine2(theta, slope))


def _lifted_distance(u, qa, v, qb, lifts):
    """min over lifts g of the Euclidean distance |u qa - v g qb| in R^4."""
    return min(float(np.linalg.norm(u * qa - v * qmul(g, qb))) for g in lifts)


def test_cone_slope_one_trivial_group_is_euclidean():
    # C(S^3, round) is R^4: the point at cone radius u over fiber q is u*q
    rng = np.random.default_rng(30)
    quats = random_unit(rng, 40)
    radii = rng.uniform(0.2, 8.0, size=40)
    theta = spaces._quotient_angles(quats, quats, "trivial")
    got = cone_distance(radii[:, None], radii[None, :], theta, 1.0)
    want = np.linalg.norm(radii[:, None, None] * quats[:, None, :]
                          - radii[None, :, None] * quats[None, :, :], axis=2)
    off = ~np.eye(40, dtype=bool)
    assert np.abs(got - want)[off].max() <= 1e-12


def test_cone_slope_one_q8_is_nearest_lift():
    # C(S^3/Q8, round) is R^4/Q8: the distance is the nearest of the 8 lifts
    rng = np.random.default_rng(31)
    quats = random_unit(rng, 30)
    radii = rng.uniform(0.2, 8.0, size=30)
    theta = spaces._quotient_angles(quats, quats, "q8")
    got = cone_distance(radii[:, None], radii[None, :], theta, 1.0)
    for a in range(30):
        for b in range(a + 1, 30):
            want = _lifted_distance(radii[a], quats[a], radii[b], quats[b], Q8)
            assert abs(got[a, b] - want) <= 1e-12


def test_cone_past_pi_goes_through_the_apex():
    # slope 2 at theta = pi/2 opens the link angle to pi: the geodesic runs
    # through the apex, u + v long
    for u, v in ((1.0, 2.5), (0.3, 7.0), (4.0, 4.0)):
        assert cone_distance(u, v, np.pi / 2, 2.0) == pytest.approx(u + v, abs=1e-12)
        assert cone_distance(u, v, 1.4, 3.0) == pytest.approx(u + v, abs=1e-12)


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------

def test_collapse_validation(monkeypatch, lab_profile):
    # input is checked before the scales are split over 2 CPUs
    forks = _use_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="need at least 50 sample points, got 49"):
        collapse_experiment(lab_profile, (1.0, 0.5, 0.25, 0.125), n=49)
    with pytest.raises(ValueError):
        collapse_experiment(lab_profile, ())
    with pytest.raises(ValueError, match="r_outer = 1.0 must exceed the largest eps 1.0"):
        collapse_experiment(lab_profile, (1.0, 0.5), n=100, r_outer=1.0)
    with pytest.raises(ValueError):
        collapse_experiment(lab_profile, (0.5, 1.0), n=100)
    with pytest.raises(ValueError):
        collapse_experiment(lab_profile, (2.0, 1.0), n=100)
    with pytest.raises(ValueError):
        collapse_experiment(profiles.round_profile(), (1.0, 0.5), n=100)
    with pytest.raises(ValueError, match="r1"):
        collapse_experiment(cone_profile(0.05), (1.0, 0.5), n=100)
    assert len(forks) == 0


def test_collapse_single_eps(lab_profile):
    rows = collapse_experiment(lab_profile, (1.0,), n=100, seed=3)
    assert len(rows) == 1
    assert rows[0].gh_bound >= 0.0


def test_collapse_small(lab_profile):
    rows = collapse_experiment(lab_profile, (1.0, 0.5, 0.25), n=220, seed=1)
    gh = [row.gh_bound for row in rows]
    diameters = [row.diameter for row in rows]
    assert all(b < a for a, b in zip(gh, gh[1:]))
    assert max(diameters) / min(diameters) <= 1.25


def _tail_offset(profile):
    """b in rho = c*r + b on the tail, read off the profile itself."""
    t = profile.r1 + 1.0
    return float(profile.rho(t)) - profile.neck_slope * t


def _closed_gap(profile, eps):
    """The collapse's closed-form gh_bound at scale eps, from its own tail start."""
    c, tail = profile.neck_slope, profile.r1 + 0.25
    offset = float(profile.rho(tail)) - c * tail
    return spaces._annulus_bounds(c, offset, tail, eps)[0]


def test_collapse_shares_one_graph_per_eps(lab_profile):
    # each row is an independently built smooth graph measured against the
    # closed-form cone, with and without the apex shift eps*b/c; the pair
    # (s, t) is read from source s's directed Dijkstra row
    c = lab_profile.neck_slope
    rows = collapse_experiment(lab_profile, (1.0, 0.5), n=120, seed=3)
    for idx, row in enumerate(rows):
        radii, quats = spaces._draw_points([3, idx], 120, row.eps, 8.0, "q8")
        edges = neighbor_graph(radii, quats, "q8")
        weights = weigh(lab_profile.rescale(row.eps), radii, quats, edges, "q8")
        graph = csr_matrix((np.concatenate([weights, weights]),
                            (np.concatenate([edges[:, 0], edges[:, 1]]),
                             np.concatenate([edges[:, 1], edges[:, 0]]))), shape=(120, 120))
        dist = shortest_path(graph, method="D", directed=True)
        shift = row.eps * _tail_offset(lab_profile) / c
        cone = np.zeros((120, 120))
        smooth = np.zeros((120, 120))
        for a in range(120):
            for b in range(a + 1, 120):
                theta = _quotient_angle(quats[a], quats[b])
                cone[a, b] = cone[b, a] = cone_distance(radii[a], radii[b], theta, c)
                smooth[a, b] = smooth[b, a] = cone_distance(
                    radii[a] + shift, radii[b] + shift, theta, c)
        off = ~np.eye(120, dtype=bool)
        stretch = dist[off] / smooth[off]
        assert row.diameter == dist.max()
        assert row.gh_bound == _closed_gap(lab_profile, row.eps)
        assert 0.5 * np.abs(smooth - cone).max() <= row.gh_bound
        assert row.stretch_max == pytest.approx(stretch.max(), rel=1e-12)
        assert row.stretch_mean == pytest.approx(stretch.mean(), rel=1e-12)
        assert row.stretch_min == pytest.approx(stretch.min(), rel=1e-12)
        assert row.stretch_mean >= row.stretch_min >= 1.0


def test_collapse_gh_within_analytic_bound(lab_profile):
    # shifting both cone radii by s moves d by at most 2 s sin(phi/2), and
    # the Q8 quotient diameter is pi/3, so gh <= eps (b/c) sin(c pi/6)
    c = lab_profile.neck_slope
    bound = _tail_offset(lab_profile) / c * np.sin(c * np.pi / 6)
    assert bound == pytest.approx(0.5170, abs=1e-4)
    for row in collapse_experiment(lab_profile, (1.0, 0.5, 0.25), n=150, seed=1):
        assert row.gh_bound == _closed_gap(lab_profile, row.eps)
        assert row.gh_bound == pytest.approx(row.eps * bound, rel=1e-12)


def test_collapse_tail_premise_fails_at_steep_slope(monkeypatch):
    # the pairs at r_a = r_b = eps a quotient diameter apart are closer
    # through the core than along the cone chord, so the closed form is not
    # the smooth metric; the premise is the slope's, checked before any fork
    forks = _use_cpus(monkeypatch, 2)
    for slope, margin in ((0.3, "-0.0275"), (0.5, "-0.174")):
        with pytest.raises(ValueError, match=rf"tail premise fails at neck slope {slope}: "
                                             rf"core-detour margin {margin}\*eps"):
            collapse_experiment(bump.build_profile(slope), n=100, seed=1)
    assert len(forks) == 0


@pytest.mark.parametrize("eps_list, r_outer, far", [
    ((1.0, 0.5), np.inf, "inf"),
    ((1.0, 1e-12), 8.0, "8000000000000.0"),
    ((1.0, 1e-4), 8.0, "80000.0"),
])
def test_collapse_checks_the_tail_identities_out_to_r(monkeypatch, lab_profile,
                                                      eps_list, r_outer, far):
    # the closed forms need phi = 1 and rho = c*r + b to 1e-10 out to
    # R = r_outer/eps; at R = 8e12 phi is 1.0195, and R = inf gives NaN
    forks = _use_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match=f"tail identities fail at the smallest eps "
                                         f"{eps_list[-1]!r}: at R = r_outer/eps = {far},"):
        collapse_experiment(lab_profile, eps_list, n=100, r_outer=r_outer)
    assert len(forks) == 0


def test_collapse_runs_at_the_last_slope_whose_premise_holds():
    # the whole-annulus margin is +0.010*eps at c = 0.25
    rows = collapse_experiment(bump.build_profile(0.25), (1.0, 0.5), n=100, seed=1)
    assert min(row.stretch_min for row in rows) >= 1 - 1e-12


def test_collapse_checks_the_drawn_gap_against_the_closed_form(monkeypatch, lab_profile):
    # every block's drawn pairs are measured with gh_upper_bound; half the
    # closed-form gap is below the drawn gap, so the check must fire
    real = spaces._annulus_bounds

    def halved(slope, offset, tail, eps):
        gap, margin = real(slope, offset, tail, eps)
        return 0.5 * gap, margin
    monkeypatch.setattr(spaces, "_annulus_bounds", halved)
    with pytest.raises(RuntimeError, match=r"drawn pairs at eps = 1\.0 have a GH gap"):
        collapse_experiment(lab_profile, (1.0, 0.5), n=100, seed=1)


def _closest_approach(ua, ub, theta, dist, slope):
    """Distance from the cone's apex to the nearest point of each chord.

    The chord between cone radii ua and ub at angle ``phi = min(slope*theta,
    pi)`` is ``dist`` long; the foot of the apex's perpendicular lies on it
    when neither endpoint angle is obtuse, and is then ``ua ub sin(phi) /
    dist`` from the apex; otherwise the nearer endpoint is closest.
    """
    phi = np.minimum(slope * theta, np.pi)
    cos = np.cos(phi)
    inside = (ua > ub * cos) & (ub > ua * cos)
    closest = np.broadcast_to(np.minimum(ua, ub), dist.shape).copy()
    np.divide(ua * ub * np.sin(phi), dist, out=closest, where=inside)
    return closest


@pytest.mark.parametrize("slope", [0.05, 0.25, 0.3])
def test_annulus_bounds_match_a_brute_force_grid(slope):
    # 401 x 401 radii on [eps, 8] and 121 angles on [0, pi/3], the Q8
    # quotient diameter: the grid holds the extreme pairs r_a = r_b = eps at
    # pi/3, so it attains both closed forms; wherever a pair meets the tail
    # premise, its cone chord keeps its closest approach to the apex in the
    # tail.  The margin is +0.164, +0.010 and -0.028 eps at the three slopes.
    profile = bump.build_profile(slope)
    tail = profile.r1 + 0.25
    offset = float(profile.rho(tail)) - slope * tail
    eps = 0.5
    gap, margin = spaces._annulus_bounds(slope, offset, tail, eps)
    shift, start = eps * offset / slope, eps * tail
    radii = np.linspace(eps, 8.0, 401)
    ua, ub = radii[:, None] + shift, radii[None, :] + shift
    worst_gap, worst_margin, met = 0.0, np.inf, 0
    for theta in np.linspace(0.0, np.pi / 3, 121):
        smooth = cone_distance(ua, ub, theta, slope)
        cone = cone_distance(radii[:, None], radii[None, :], theta, slope)
        core = (radii[:, None] - start) + (radii[None, :] - start) - smooth
        chord = _closest_approach(ua, ub, theta, smooth, slope) - (start + shift)
        assert np.all(chord[core >= 0] >= 0)
        met += int(np.sum(core >= 0))
        worst_gap = max(worst_gap, 0.5 * float(np.abs(smooth - cone).max()))
        worst_margin = min(worst_margin, float(core.min()))
    assert worst_gap == pytest.approx(gap, rel=1e-13)
    assert worst_margin == pytest.approx(margin, rel=1e-13)
    assert met > 0
    assert (margin >= 0) == (slope < 0.3)


# ---------------------------------------------------------------------------
# collapse scales split across processes
# ---------------------------------------------------------------------------

EPS4 = (1.0, 0.5, 0.25, 0.125)


def test_collapse_rows_do_not_depend_on_cpus(monkeypatch, lab_profile):
    # at n = 120 a scale is one work item: 4 scales on 1, 2 and 3 CPUs run as
    # blocks of 4, 2 + 2 and 1 + 1 + 2 scales; the split forks once per extra
    # block, and no block forks again for its shortest paths
    assert spaces._BLOCK // 120 >= 120
    rows = {}
    for cpus in (1, 2, 3):
        with monkeypatch.context() as patch:
            forks = _use_cpus(patch, cpus)
            rows[cpus] = collapse_experiment(lab_profile, EPS4, n=120, seed=5)
            assert len(forks) == min(cpus, len(EPS4)) - 1
    assert rows[1] == rows[2] == rows[3]


def test_collapse_rows_do_not_depend_on_a_cut_scale(monkeypatch, lab_profile):
    # at n = 200 a scale is two work items of 163 and 37 source rows, so on 2
    # CPUs the caller and the worker each measure half of the middle scale,
    # and on 3 CPUs each process measures one scale
    assert spaces._BLOCK // 200 == 163
    rows = {}
    for cpus in (1, 2, 3):
        with monkeypatch.context() as patch:
            forks = _use_cpus(patch, cpus)
            rows[cpus] = collapse_experiment(lab_profile, EPS4[:3], n=200, seed=5)
            assert len(forks) == cpus - 1
    assert rows[1] == rows[2] == rows[3]


def test_collapse_single_eps_splits_its_rows(monkeypatch, lab_profile):
    # one scale of two work items: on 2 CPUs the caller and a worker each
    # search and reduce one block of its rows
    with monkeypatch.context() as patch:
        _use_cpus(patch, 1)
        expect = collapse_experiment(lab_profile, (1.0,), n=200, seed=5)
    forks = _use_cpus(monkeypatch, 2)
    assert collapse_experiment(lab_profile, (1.0,), n=200, seed=5) == expect
    assert len(forks) == 1


def test_collapse_builds_each_scale_once(monkeypatch, lab_profile):
    # at n = 200 a scale is two work items; one process measures both from
    # one graph
    _use_cpus(monkeypatch, 1)
    real = spaces.neighbor_graph
    built = []

    def counting(*args):
        built.append(1)
        return real(*args)
    monkeypatch.setattr(spaces, "neighbor_graph", counting)
    collapse_experiment(lab_profile, EPS4[:2], n=200, seed=5)
    assert len(built) == 2


def test_collapse_holds_no_distance_matrix(monkeypatch, lab_profile):
    # the shortest-path rows are reduced a block at a time: no shared map
    # and no traced allocation reaches the 8n^2 bytes of one distance matrix
    n = 1000
    _use_cpus(monkeypatch, 1)
    sizes = []
    real = spaces.mmap.mmap

    def recording(fileno, length, *args, **kwargs):
        sizes.append(length)
        return real(fileno, length, *args, **kwargs)
    monkeypatch.setattr(spaces.mmap, "mmap", recording)
    tracemalloc.start()
    try:
        collapse_experiment(lab_profile, (1.0,), n=n, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes and max(sizes) < 8 * n * n
    assert peak < 8 * n * n, f"traced peak {peak / (8 * n * n):.2f} x 8n^2 bytes"


@pytest.mark.parametrize("failing", ["child", "caller", "both"])
def test_collapse_worker_failure_raises_and_reaps(monkeypatch, lab_profile, failing):
    # on 2 CPUs the caller runs eps 1 and 0.5, the worker 0.25 and 0.125; when
    # both fail, the caller's own exception is the one raised
    real = spaces.weigh
    bad = {"child": (0.125,), "caller": (1.0,), "both": (1.0, 0.125)}[failing]

    def flaky(profile, radii, quats, edges, group):
        # scale eps draws radii from [eps, 8]; the lowest is below the next larger eps
        if max(eps for eps in EPS4 if eps <= radii.min()) in bad:
            raise MemoryError("injected")
        return real(profile, radii, quats, edges, group)
    monkeypatch.setattr(spaces, "weigh", flaky)
    forks = _use_cpus(monkeypatch, 2)
    if failing == "child":
        expected = pytest.raises(RuntimeError, match=r"pid \d+ on \[2, 4\) of 4$")
    else:
        expected = pytest.raises(MemoryError, match="injected")
    with expected:
        collapse_experiment(lab_profile, EPS4, n=120, seed=5)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(-1, os.WNOHANG)
