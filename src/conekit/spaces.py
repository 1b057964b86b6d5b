"""Finite metric-space samples of the warped cone and its collapse.

Spaces are sampled as (radius, unit quaternion) pairs and built in three
stages: ``neighbor_graph`` picks edges by coordinate proximity, ``weigh``
gives them first-order Riemannian lengths, and ``geodesics`` completes the
weighted graph to a metric by all-pairs shortest paths.  The
quaternion-group quotient is realized by minimizing edge lengths over the
8 lifts of each endpoint.

The all-pairs shortest paths run on every CPU in the process's affinity
mask, one forked worker per CPU after the first; ``taskset -c 0 ...``
restricts them to one CPU, where nothing is forked.  The distances do not
depend on the number of CPUs.
"""

from __future__ import annotations

import mmap
import os
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from .profiles import ProfilePair, cone_profile
from .quaternions import BASIS, Q8, canonical_q8, qconj, qlog_vec, qmul, random_unit

__all__ = [
    "SampledSpace",
    "neighbor_graph",
    "weigh",
    "geodesics",
    "sample_annulus",
    "sample_sphere",
    "space_from_points",
    "diameter",
    "gh_upper_bound",
    "CollapseRow",
    "CollapseResult",
    "collapse_experiment",
]

_MIN_SAMPLE = 50
_PROXIMITY_BLOCK = 512  # proximity rows per pass


@dataclass
class SampledSpace:
    """A finite metric space, the weighted graph it was completed from, and
    its sampling provenance.

    ``dist`` is a full symmetric matrix of graph-geodesic distances over the
    undirected ``edges`` (pairs ``i < j``) with lengths ``weights``.
    """

    dist: np.ndarray
    edges: np.ndarray
    weights: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return diameter(self)

    def metric_axioms_report(self) -> dict:
        """Symmetry, zero diagonal, and a complete edge certificate.

        For every stored edge (a, b) the certificate checks
        ``max_s |d[s,a] - d[s,b]| <= w(a,b)`` over all points s (compared
        row-wise, which is the same when d is symmetric);
        ``edge_violation`` is the worst ``|d[s,a] - d[s,b]| - w(a,b)``, or 0
        when none is positive.

        The certificate is the shortest-path optimality condition: when d is
        symmetric, has a zero diagonal and its entries are lengths of actual
        paths (as Dijkstra returns), walking any path from s to t edge by
        edge gives ``d[s,t] <=`` its length (up to the tolerance per hop), so
        d is the shortest-path metric of the graph and the triangle
        inequality holds for every triple.
        """
        d = self.dist
        sym = bool(np.array_equal(d, d.T))
        diag = bool(np.all(np.diag(d) == 0.0))
        worst = 0.0
        # edges per pass: about 2 MB of gathered rows, which stays in cache
        block = max(1, (1 << 18) // self.n)
        for lo in range(0, len(self.edges), block):
            a, b = self.edges[lo:lo + block].T
            gap = d[a] - d[b]
            np.abs(gap, out=gap)
            slack = gap.max(axis=1) - self.weights[lo:lo + block]
            worst = max(worst, float(slack.max()))
        return {"symmetric": sym, "diag_zero": diag,
                "edge_violation": worst,
                "ok": sym and diag and worst <= 1e-12 * max(1.0, float(d.max()))}


# ---------------------------------------------------------------------------
# sampling and graph construction
# ---------------------------------------------------------------------------

def _orbit_cos_block(qa: np.ndarray, qb: np.ndarray, group: str) -> np.ndarray:
    """max over lifts of <g*qa_i, qb_j>, shape (len(qa), len(qb))."""
    if group == "trivial":
        return qa @ qb.T
    best = np.abs(qmul(BASIS[0], qa) @ qb.T)
    for g in BASIS[1:]:
        np.maximum(best, np.abs(qmul(g, qa) @ qb.T), out=best)
    return best


def _proximity(radii, quats, group) -> np.ndarray:
    """Coordinate proximity sqrt(dr^2 + (rbar * angle)^2) used to pick neighbors.

    Deliberately metric-independent: paired samples over the same point set
    get identical graphs regardless of which warped metric weights the
    edges.
    """
    n = len(radii)
    out = np.empty((n, n))
    for lo in range(0, n, _PROXIMITY_BLOCK):
        hi = min(lo + _PROXIMITY_BLOCK, n)
        cosang = np.clip(_orbit_cos_block(quats[lo:hi], quats, group), -1.0, 1.0)
        ang = np.arccos(cosang)
        dr = radii[lo:hi, None] - radii[None, :]
        rbar = 0.5 * (radii[lo:hi, None] + radii[None, :])
        out[lo:hi] = np.hypot(dr, rbar * ang)
    return out


def _default_k(n: int) -> int:
    # dense enough that graph-geodesic stretch stays in the low percents
    return max(10, int(np.ceil(3.5 * n ** 0.25)))


def neighbor_graph(radii, quats, group, k=None) -> np.ndarray:
    """Stage 1: proximity edges, as sorted unique pairs ``i < j``.

    Neighbors come from coordinate proximity: the k nearest per point,
    with k grown until the graph connects.
    """
    n = len(radii)
    if n < 2:
        raise ValueError("need at least two points")
    prox = _proximity(radii, quats, group)
    np.fill_diagonal(prox, np.inf)
    k = k or _default_k(n)
    while True:
        kk = min(k, n - 1)
        nbr = np.argpartition(prox, kk - 1, axis=1)[:, :kk]
        ii = np.repeat(np.arange(n), kk)
        jj = nbr.ravel()
        a = np.minimum(ii, jj)
        b = np.maximum(ii, jj)
        edges = np.unique(np.stack([a, b], axis=1), axis=0)
        adj = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                         shape=(n, n))
        ncomp, _ = connected_components(adj, directed=False)
        if ncomp == 1:
            return edges
        if kk == n - 1:
            raise ValueError("proximity graph disconnected at k = n-1")
        k = int(np.ceil(k * 1.5)) + 1


def weigh(profile: ProfilePair, radii, quats, edges, group) -> np.ndarray:
    """Stage 2: first-order Riemannian lengths of the given point pairs.

    The chord between endpoint fibers is read off from the quaternion
    logarithm of ``qa^-1 (g qb)``: its (i, j, k) components are the
    left-invariant coframe values.  The squared length is
    ``dr^2 + rho^2 (phi^2 a1^2 + a2^2 + a3^2)`` at midpoint profile values,
    minimized over the 8 lifts g of the far endpoint.
    """
    qa = quats[edges[:, 0]]
    qb = quats[edges[:, 1]]
    dr = radii[edges[:, 1]] - radii[edges[:, 0]]
    mid = 0.5 * (radii[edges[:, 0]] + radii[edges[:, 1]])
    rho = np.asarray(profile.rho(mid), dtype=float)
    phi = np.asarray(profile.phi(mid), dtype=float)

    lifts = Q8 if group == "q8" else BASIS[:1]
    rel = qmul(qconj(qa)[:, None, :], qmul(lifts, qb[:, None, :]))
    a = qlog_vec(rel)  # (E, lifts, 3)
    ang2 = (phi[:, None]**2 * a[..., 0]**2 + a[..., 1]**2 + a[..., 2]**2)
    best = np.min(dr[:, None]**2 + rho[:, None]**2 * ang2, axis=1)
    return np.sqrt(best)


def geodesics(n: int, edges, weights) -> np.ndarray:
    """Stage 3: all-pairs Dijkstra distances over the weighted graph on n points.

    The source rows are split into one contiguous block per CPU of the
    affinity mask.  Each block after the first is run in a forked child that
    writes its rows into a shared anonymous map; the caller runs the first
    block and then reaps every child, raising if any of them failed.  With
    one CPU the same loop forks nothing.  Each row is a single-source
    Dijkstra run, so the result does not depend on the split.
    """
    graph = csr_matrix(
        (np.concatenate([weights, weights]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n, n))
    shared = mmap.mmap(-1, 8 * n * n)
    rows = np.frombuffer(shared, dtype=np.float64).reshape(n, n)
    # one block per CPU of the affinity mask; platforms without a mask get one
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    blocks = min(cpus, n)
    bounds = [n * b // blocks for b in range(blocks + 1)]

    def fill(lo, hi):
        # the graph stores both directions, so the directed search is exact
        # and skips scipy's own symmetrization
        rows[lo:hi] = shortest_path(graph, method="D", directed=True,
                                    indices=np.arange(lo, hi))

    children = {}
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid = os.fork()
            if pid == 0:  # child: fill its block and exit, never return to the caller
                status = 1
                try:
                    fill(lo, hi)
                    status = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(status)
            children[pid] = (lo, hi)
        fill(bounds[0], bounds[1])
    finally:
        failed = [block for pid, block in children.items()
                  if os.waitpid(pid, 0)[1] != 0]
        if failed:
            raise RuntimeError(f"shortest-path worker failed on row blocks {failed}")
    dist = np.minimum(rows, rows.T)  # exact symmetry
    np.fill_diagonal(dist, 0.0)
    if np.any(np.isinf(dist)):
        raise ValueError("graph disconnected after weighting")
    return dist


def _graph_space(profile, radii, quats, edges, group, provenance) -> SampledSpace:
    w = weigh(profile, radii, quats, edges, group)
    # the caller's keys keep their place; group, n and edges follow
    prov = {**(provenance or {}), "group": group, "n": len(radii),
            "edges": int(len(edges))}
    return SampledSpace(dist=geodesics(len(radii), edges, w), edges=edges,
                        weights=w, provenance=prov)


def space_from_points(profile: ProfilePair, radii, quats, *, group="q8",
                      provenance=None) -> SampledSpace:
    """Build the graph-geodesic metric space on an explicit point set.

    The three stages in order: ``neighbor_graph``, ``weigh`` under
    ``profile``, ``geodesics``.
    """
    radii = np.asarray(radii, dtype=float)
    quats = np.asarray(quats, dtype=float)
    edges = neighbor_graph(radii, quats, group)
    return _graph_space(profile, radii, quats, edges, group, provenance)


def _draw_points(seed, n, r_in, r_out, group):
    """n points: stratified radii in [r_in, r_out], uniform (quotient) sphere fibers."""
    if n < _MIN_SAMPLE:
        raise ValueError(f"need at least {_MIN_SAMPLE} sample points, got {n}")
    rng = np.random.default_rng(seed)
    # stratified radii: one draw per bin of a uniform partition
    u = (np.arange(n) + rng.uniform(size=n)) / n
    radii = r_in + (r_out - r_in) * u
    quats = random_unit(rng, n)
    if group == "q8":
        quats = canonical_q8(quats)
    return radii, quats


def sample_annulus(profile: ProfilePair, r_in: float, r_out: float, n: int,
                   seed: int, *, group="q8") -> SampledSpace:
    """Quasi-uniform sample of the annulus r_in < r < r_out under the profile metric.

    Radii are stratified over the annulus, fibers drawn uniformly on the
    (quotient) sphere; distances are all-pairs shortest paths over the
    proximity graph with first-order Riemannian edge lengths.
    """
    if not 0 < r_in < r_out:
        raise ValueError("need 0 < r_in < r_out")
    radii, quats = _draw_points(seed, n, r_in, r_out, group)
    return space_from_points(
        profile, radii, quats, group=group,
        provenance={"kind": "annulus", "r_in": r_in, "r_out": r_out,
                    "n": n, "seed": seed, "group": group})


def sample_sphere(profile: ProfilePair, r: float, n: int, seed: int, *,
                  group="q8") -> SampledSpace:
    """Fixed-radius sample: the orbit sphere at radius r with its induced metric."""
    if r <= 0:
        raise ValueError("radius must be positive")
    # the stratified radii are r + 0 * u, exactly r
    radii, quats = _draw_points(seed, n, r, r, group)
    return space_from_points(
        profile, radii, quats, group=group,
        provenance={"kind": "sphere", "r": r, "n": n, "seed": seed, "group": group})


def diameter(space: SampledSpace) -> float:
    """Largest pairwise distance of the sample."""
    return float(space.dist.max())


# ---------------------------------------------------------------------------
# Gromov-Hausdorff upper bounds
# ---------------------------------------------------------------------------

def gh_upper_bound(s1: SampledSpace, s2: SampledSpace) -> float:
    """Half the largest ``|d1 - d2|`` of two metrics on one point set.

    Matching point i of ``s1`` with point i of ``s2`` is a correspondence
    of distortion ``max |d1 - d2|``, and half the distortion of any
    correspondence bounds the Gromov-Hausdorff distance from above
    (Burago-Burago-Ivanov, *A Course in Metric Geometry*, 7.3).
    """
    if s1.n != s2.n:
        raise ValueError(f"spaces of {s1.n} and {s2.n} points are not one point set")
    worst = 0.0
    # rows per pass: about 2 MB of differences
    block = max(1, (1 << 18) // s1.n)
    for lo in range(0, s1.n, block):
        gap = s1.dist[lo:lo + block] - s2.dist[lo:lo + block]
        np.abs(gap, out=gap)
        worst = max(worst, float(gap.max()))
    return 0.5 * worst


# ---------------------------------------------------------------------------
# the collapse experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollapseRow:
    eps: float
    gh_bound: float
    diameter: float


@dataclass(frozen=True)
class CollapseResult:
    rows: tuple[CollapseRow, ...]
    seed: int
    n: int

    def gh_violations(self) -> int:
        """Number of increases along the gh_bound column."""
        gh = [row.gh_bound for row in self.rows]
        return sum(1 for a, b in zip(gh, gh[1:]) if b > a)

    def diameter_ratio(self) -> float:
        ds = [row.diameter for row in self.rows]
        return max(ds) / min(ds)


def collapse_experiment(profile: ProfilePair, eps_list=(1.0, 0.5, 0.25, 0.125),
                        n: int = 800, seed: int = 0, *,
                        r_outer: float = 8.0) -> CollapseResult:
    """Exhibit the collapse of the rescaled metrics onto the exact cone.

    For each scale eps the metric ``eps^2 g`` is realized by the rescaled
    profile on the outer annulus [eps, r_outer] (entirely inside the
    exactly-conical tail for the default parameters) and sampled over a
    point set shared with a sample of the exact cone over the round
    quotient link at slope ``profile.neck_slope``; ``gh_upper_bound``
    compares the two metrics on the shared points.  Because the two spaces
    also share one proximity graph, graph noise largely cancels and the
    bound tracks the genuine metric discrepancy, which shrinks linearly in
    eps.
    """
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr:
        raise ValueError("eps_list must be nonempty")
    if any(not 0 < e <= 1 for e in eps_arr):
        raise ValueError("eps values must lie in (0, 1]")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if profile.neck_slope is None:
        raise ValueError("profile needs a neck_slope for the cone comparison")

    cone = cone_profile(profile.neck_slope)
    rows = []
    for idx, eps in enumerate(eps_arr):
        radii, quats = _draw_points([seed, idx], n, eps, r_outer, "q8")
        edges = neighbor_graph(radii, quats, "q8")
        smooth_space = _graph_space(
            profile.rescale(eps), radii, quats, edges, "q8",
            {"kind": "collapse-smooth", "eps": eps, "seed": seed})
        cone_space = _graph_space(
            cone, radii, quats, edges, "q8",
            {"kind": "collapse-cone", "eps": eps, "seed": seed})
        gh = gh_upper_bound(smooth_space, cone_space)
        rows.append(CollapseRow(eps=eps, gh_bound=gh,
                                diameter=smooth_space.diameter()))
    return CollapseResult(rows=tuple(rows), seed=seed, n=n)
