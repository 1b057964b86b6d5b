"""Finite metric-space samples of the warped cone and its collapse.

Spaces are sampled as (radius, unit quaternion) pairs and built in three
stages: ``neighbor_graph`` picks edges by coordinate proximity, ``weigh``
gives them first-order Riemannian lengths, and ``geodesics`` completes the
weighted graph to a metric by all-pairs shortest paths.  The
quaternion-group quotient is realized by minimizing edge lengths over the
lifts 1, i, j, k of each endpoint, the sign folded out.  The groups and
their action live in ``quaternions``: ``quotient`` names a group's lifts
and ``orbit`` is the one product by them, where the side is written.
``_chord`` is the exact distance of the metric cone over the round
quotient, the ground truth the collapse experiment measures the graph
against.

Work is split over the CPUs of the process's affinity mask by one helper,
``_in_blocks``: one contiguous block per CPU, the first run by the caller
and each other one by a forked worker.  It also owns the result: a caller
hands it a function of a range of items and gets back one array, held in
a shared anonymous map that the workers write their rows into.  A lone
space splits its all-pairs shortest paths by source rows and its edge
certificate by edges.  The collapse experiment splits its work items, the
pairs (scale, block of source rows), so a lone scale uses every CPU too; a
worker never forks.  ``taskset -c 0 ...`` restricts a run to one CPU,
where nothing is forked.  No result depends on the number of CPUs.

Memory: every blocked pass (the neighbor pick, the edge weights, the
shortest-path searches, the edge certificate and the collapse reduction)
makes temporaries of at most ``_BLOCK`` elements, 256 KB, so they stay in
cache.  A space of n points holds one n x n float64 distance matrix, 8n^2
bytes, and no other n x n array is made while building or checking it;
its rows are symmetrized in place.  The matrix lives in a shared anonymous
map, so the forked workers of later spaces see it but never write to it.
The collapse experiment holds no n x n array at all: it reduces each block
of shortest-path rows against the closed forms as soon as it is found.
"""

from __future__ import annotations

import functools
import mmap
import os
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from .bump import breakpoints
from .profiles import ProfilePair
from .quaternions import canonical_q8, orbit, qconj, qlog_vec, qmul, quotient, random_unit
from .reports import BoundCheck, VerificationReport

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
    "collapse_experiment",
]

_MIN_SAMPLE = 50
_BLOCK = 1 << 15  # elements per temporary of every blocked pass: 256 KB
_TILE = 256  # tile side of the in-place passes over a distance matrix: 512 KB


def _tiles(n: int):
    """Square tiles ``(rows, cols)`` of an n x n matrix on and above the diagonal.

    Each tile and its mirror ``(cols, rows)`` cover every entry once.
    """
    for lo in range(0, n, _TILE):
        for col in range(lo, n, _TILE):
            yield slice(lo, lo + _TILE), slice(col, col + _TILE)


@dataclass
class SampledSpace:
    """A finite metric space, the weighted graph it was completed from, and
    its provenance: the group, the number of points and of edges.

    ``dist`` is a full symmetric matrix of graph-geodesic distances over the
    undirected ``edges`` (pairs ``i < j``) with lengths ``weights``.  It is
    the space's one n x n array, 8n^2 bytes; as ``geodesics`` returns it, it
    is backed by a shared anonymous map, which forked workers of later
    spaces see but never write.
    """

    dist: np.ndarray
    edges: np.ndarray
    weights: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return diameter(self.dist)

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
        inequality holds for every triple.  Symmetry is compared one pair of
        mirrored tiles at a time, so the check makes no n x n array; the
        edges are split over the CPUs by ``_in_blocks``.
        """
        d = self.dist
        sym = all(np.array_equal(d[r, c], d[c, r].T) for r, c in _tiles(self.n))
        diag = bool(np.all(np.diag(d) == 0.0))

        def slack(lo, hi):
            a, b = self.edges[lo:hi].T
            return (np.abs(d[a] - d[b]).max(1) - self.weights[lo:hi])[:, None]
        # _BLOCK // n edges per pass, so each temporary holds _BLOCK
        # distances; a split of no edges would map 0 bytes
        count = len(self.edges)
        worst = (float(_in_blocks(count, 1, max(1, _BLOCK // self.n), slack).max(initial=0.0))
                 if count else 0.0)
        return {"symmetric": sym, "diag_zero": diag,
                "edge_violation": worst,
                "ok": sym and diag and worst <= 1e-12 * max(1.0, float(d.max()))}


# ---------------------------------------------------------------------------
# sampling and graph construction
# ---------------------------------------------------------------------------

def _quotient_angles(qa: np.ndarray, qb: np.ndarray, group: str) -> np.ndarray:
    """Round quotient angles between fibers, shape (len(qa), len(qb)).

    The angle is the arccos of the largest ``<g.qa_i, qb_j>`` over the
    translates ``g.qa_i`` of qa_i by the lifts g of the group (``orbit``),
    in absolute value for q8 (the sign covers the other four).  The four
    component products are added in a fixed order by numpy ufuncs, not by
    a BLAS product, so the bits do not depend on the BLAS kernel.
    """
    lifts, q8 = quotient(group)
    best = np.empty((len(qa), len(qb)))
    cos, term = np.empty((2, *best.shape))  # freed on return, unlike ``best``
    for g, lift in enumerate(np.moveaxis(orbit(qa, lifts), -2, 0)):
        out = cos if g else best  # the first lift's cosines start the maximum
        np.multiply.outer(lift[:, 0], qb[:, 0], out=out)
        for k in range(1, 4):
            out += np.multiply.outer(lift[:, k], qb[:, k], out=term)
        if q8:
            np.abs(out, out=out)
        if g:
            np.maximum(best, out, out=best)
    return np.arccos(np.clip(best, -1.0, 1.0, out=best), out=best)


def _proximity(radii, quats, group, rows: slice) -> np.ndarray:
    """Coordinate proximity sqrt(dr^2 + (rbar * angle)^2) from the points
    ``rows`` to every point, shape (len(rows), n), used to pick neighbors.

    The angle is the round quotient angle, so the measure ignores the
    c-shrink of the link that the collapse metric applies; picking by the
    metric's own length is ROADMAP direction 2.
    """
    ang = _quotient_angles(quats[rows], quats, group)
    dr = radii[rows, None] - radii[None, :]
    rbar = 0.5 * (radii[rows, None] + radii[None, :])
    return np.hypot(dr, rbar * ang)


def _default_k(n: int) -> int:
    # grows like n^(1/4); at n = 800 (k = 19, seed 1) collapse.csv measures
    # a mean graph stretch of 1.09-1.13, and its worst pair 3.8-6.4x too long
    return max(10, int(np.ceil(3.5 * n ** 0.25)))


def _nearest(radii, quats, group, kk: int) -> np.ndarray:
    """The kk proximity-nearest other points of each point, shape (n, kk).

    Proximity is computed one block of rows at a time and only the picked
    indices are kept, so no n x n array is held.
    """
    n = len(radii)
    nbr = np.empty((n, kk), dtype=np.intp)
    block = max(1, _BLOCK // n)  # rows per pass
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        prox = _proximity(radii, quats, group, slice(lo, hi))
        prox[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # no self-edges
        nbr[lo:hi] = np.argpartition(prox, kk - 1, axis=1)[:, :kk]
    return nbr


def neighbor_graph(radii, quats, group) -> np.ndarray:
    """Stage 1: proximity edges, as sorted unique pairs ``i < j``.

    Neighbors come from coordinate proximity: the k nearest per point,
    starting from ``_default_k(n)`` and grown until the graph connects.  At
    k = n - 1 the graph is complete, so the growth ends.
    """
    n = len(radii)
    if n < 2:
        raise ValueError("need at least two points")
    k = _default_k(n)
    while True:
        kk = min(k, n - 1)
        nbr = _nearest(radii, quats, group, kk)
        ii = np.repeat(np.arange(n), kk)
        jj = nbr.ravel()
        # the keys a*n + b of the pairs a < b sort as the pairs do
        keys = np.unique(np.minimum(ii, jj) * n + np.maximum(ii, jj))
        edges = np.stack([keys // n, keys % n], axis=1)
        ncomp, _ = connected_components(_adjacency(n, edges, np.ones(len(edges))),
                                        directed=False)
        if ncomp == 1:
            return edges
        k = int(np.ceil(k * 1.5)) + 1


def weigh(profile: ProfilePair, radii, quats, edges, group) -> np.ndarray:
    """Stage 2: first-order Riemannian lengths of the given point pairs.

    The chord between endpoint fibers is read off from the quaternion
    logarithm of ``qa^-1 (g.qb)``, ``g.qb`` a translate of qb by a lift g
    (``orbit``): its (i, j, k) components are the left-invariant coframe
    values.  The squared length is ``dr^2 + rho^2 (phi^2 a1^2 + a2^2 +
    a3^2)`` at midpoint profile values, minimized over the lifts g of the
    far endpoint.  For q8 each relative quaternion is flipped to ``w >= 0``:
    ``-g`` gives its exact negation, whose logarithm (angle ``pi - theta``)
    is never shorter, so 1, i, j, k give the minimum over all 8 lifts bit
    for bit.  Without the flip, an edge between antipodal fibers (trivial
    group) has no logarithm axis: ValueError names it.  The edges are
    weighed a block at a time; each length depends only on its own edge.
    """
    lifts, q8 = quotient(group)
    out = np.empty(len(edges))
    # edges per pass: the (edges, lifts, 4) products hold _BLOCK floats
    step = max(1, _BLOCK // (4 * len(lifts)))
    for lo in range(0, len(edges), step):
        a, b = edges[lo:lo + step].T
        qa, qb = quats[a], quats[b]
        dr = radii[b] - radii[a]
        mid = 0.5 * (radii[a] + radii[b])
        rho = np.asarray(profile.rho(mid), dtype=float)
        phi = np.asarray(profile.phi(mid), dtype=float)
        rel = qmul(qconj(qa)[:, None, :], orbit(qb, lifts))
        if q8:
            rel = np.where(rel[..., :1] < 0, -rel, rel)
        # at w = -1 the log's axis is undefined; q8's flip leaves no w < 0
        back = rel[..., 0] < 0
        if back.any():
            undefined = back & (np.linalg.norm(rel[..., 1:], axis=-1) <= 1e-15)
            if undefined.any():
                i, j = edges[lo + np.flatnonzero(undefined.any(axis=1))[0]]
                raise ValueError(f"edge ({i}, {j}) joins antipodal fibers, where the "
                                 "quaternion logarithm has no axis")
        v = qlog_vec(rel)  # (edges, lifts, 3)
        ang2 = (phi[:, None]**2 * v[..., 0]**2 + v[..., 1]**2 + v[..., 2]**2)
        best = np.min(dr[:, None]**2 + rho[:, None]**2 * ang2, axis=1)
        out[lo:lo + step] = np.sqrt(best)
    return out


def _in_blocks(count: int, width: int, step: int, part) -> np.ndarray:
    """The ``(count, width)`` float64 array whose rows ``lo:hi`` are ``part(lo, hi)``.

    ``range(count)`` is cut into one contiguous block per CPU of the
    process's affinity mask (at most ``count``).  The caller runs the first
    block; each other block runs in a forked child, which exits without
    returning here.  Within a block ``part`` is called on at most ``step``
    items at a time, in order, and its result is written into the array,
    which lives in a shared anonymous map so that the children's rows reach
    the caller.  Every child is reaped; then an exception from the caller's
    own block propagates as it is, and otherwise RuntimeError names the
    blocks whose child failed.  ``part`` must not call ``_in_blocks`` itself:
    no caller nests a split, so one split forks once per extra CPU and a
    worker never forks.  With one block nothing is forked.
    """
    out = np.frombuffer(mmap.mmap(-1, 8 * count * width),
                        dtype=np.float64).reshape(count, width)

    def fill(lo, hi):
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            out[start:stop] = part(start, stop)

    # platforms without an affinity mask get one block
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    blocks = min(cpus, count)
    bounds = [count * b // blocks for b in range(blocks + 1)]
    children = {}
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid = os.fork()
            if pid == 0:  # child: run its block and exit, never return to the caller
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
        failed = [(pid, lo, hi) for pid, (lo, hi) in children.items()
                  if os.waitpid(pid, 0)[1] != 0]
    if failed:
        raise RuntimeError("forked worker failed: " + ", ".join(
            f"pid {pid} on [{lo}, {hi}) of {count}" for pid, lo, hi in failed))
    return out


def _adjacency(n: int, edges, weights) -> csr_matrix:
    """The undirected graph on n points as a matrix storing both directions."""
    return csr_matrix(
        (np.concatenate([weights, weights]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n, n))


def _dijkstra_rows(graph: csr_matrix, start: int, stop: int) -> np.ndarray:
    """Distances from the sources ``start..stop-1`` to every point.

    The graph stores both directions, so the directed search is exact and
    skips scipy's own symmetrization.  Each row is a single-source Dijkstra
    run, so it does not depend on which rows share the call.
    """
    return shortest_path(graph, method="D", directed=True,
                         indices=np.arange(start, stop))


def geodesics(n: int, edges, weights) -> np.ndarray:
    """Stage 3: all-pairs Dijkstra distances over the weighted graph on n points.

    The source rows are split over the CPUs by ``_in_blocks``, ``_BLOCK //
    n`` per search, and then made exactly symmetric tile by tile in the
    array it returns.  The result does not depend on the split.
    """
    graph = _adjacency(n, edges, weights)
    rows = _in_blocks(n, n, max(1, _BLOCK // n),
                      lambda lo, hi: _dijkstra_rows(graph, lo, hi))
    # exact symmetry, made in place: the map is the only n x n array
    farthest = 0.0
    for r, c in _tiles(n):
        a, b = rows[r, c], rows[c, r]
        np.minimum(a, b.T, out=a)
        b[...] = a.T
        farthest = max(farthest, float(a.max()))
    np.fill_diagonal(rows, 0.0)
    if farthest == np.inf:
        raise ValueError("graph disconnected after weighting")
    return rows


def space_from_points(profile: ProfilePair, radii, quats, *,
                      group="q8") -> SampledSpace:
    """Build the graph-geodesic metric space on an explicit point set.

    The three stages in order: ``neighbor_graph``, ``weigh`` under
    ``profile``, ``geodesics``.
    """
    radii = np.asarray(radii, dtype=float)
    quats = np.asarray(quats, dtype=float)
    edges = neighbor_graph(radii, quats, group)
    w = weigh(profile, radii, quats, edges, group)
    return SampledSpace(dist=geodesics(len(radii), edges, w), edges=edges, weights=w,
                        provenance={"group": group, "n": len(radii),
                                    "edges": int(len(edges))})


def _check_sample_size(n: int) -> None:
    if n < _MIN_SAMPLE:
        raise ValueError(f"need at least {_MIN_SAMPLE} sample points, got {n}")


def _draw_points(seed, n, r_in, r_out, group):
    """n points: stratified radii in [r_in, r_out], uniform (quotient) sphere fibers."""
    _, q8 = quotient(group)
    _check_sample_size(n)
    rng = np.random.default_rng(seed)
    # stratified radii: one draw per bin of a uniform partition
    u = (np.arange(n) + rng.uniform(size=n)) / n
    radii = r_in + (r_out - r_in) * u
    quats = random_unit(rng, n)
    if q8:
        quats = canonical_q8(quats)
    return radii, quats


def sample_annulus(profile: ProfilePair, r_in: float, r_out: float, n: int,
                   seed: int, *, group="q8") -> SampledSpace:
    """Quasi-uniform sample of the annulus r_in < r < r_out under the profile metric.

    Radii are stratified over the annulus, fibers drawn uniformly on the
    (quotient) sphere; distances are all-pairs shortest paths over the
    proximity graph with first-order Riemannian edge lengths.
    """
    if not 0 < r_in < r_out < np.inf:  # NaN fails too
        raise ValueError(f"need 0 < r_in < r_out < inf, got {r_in!r} and {r_out!r}")
    radii, quats = _draw_points(seed, n, r_in, r_out, group)
    return space_from_points(profile, radii, quats, group=group)


def sample_sphere(profile: ProfilePair, r: float, n: int, seed: int, *,
                  group="q8") -> SampledSpace:
    """Fixed-radius sample: the orbit sphere at radius r with its induced metric."""
    if not 0 < r < np.inf:  # NaN fails too
        raise ValueError(f"radius must be positive and finite, got {r!r}")
    # the stratified radii are r + 0 * u, exactly r
    radii, quats = _draw_points(seed, n, r, r, group)
    return space_from_points(profile, radii, quats, group=group)


def diameter(dist: np.ndarray) -> float:
    """Largest entry of a distance matrix, the diameter of its space.

    Given a block of the matrix's rows it returns that block's share, and
    the diameter is the largest share.
    """
    return float(dist.max())


# ---------------------------------------------------------------------------
# exact cone distances and Gromov-Hausdorff upper bounds
# ---------------------------------------------------------------------------

def _half_sine2(theta, slope: float) -> np.ndarray:
    """``sin^2(phi/2)`` at the cone angle ``phi = min(slope*theta, pi)``."""
    return np.sin(0.5 * np.minimum(slope * np.asarray(theta), np.pi)) ** 2


def _chord(ra, rb, shift, s2) -> np.ndarray:
    """Exact distance in the metric cone ``C(S^3/G, slope^2 round)``, the
    point at radius r sitting at cone radius ``r + shift``.

    Points at cone radii u and v whose fibers are the cone angle ``phi =
    min(slope*theta, pi)`` apart, theta their round quotient angle, are
    ``d^2 = u^2 + v^2 - 2uv cos(phi)`` apart (the Euclidean cone metric,
    Burago-Burago-Ivanov 3.6).  From ``s2 = sin^2(phi/2)``, as
    ``_half_sine2`` gives it, d is computed as ``(u - v)^2 + 4uv s2`` so
    near pairs lose nothing to cancellation; the radial term is taken
    before the shift, which can round radii away.  The arguments broadcast.
    """
    return np.sqrt((ra - rb) ** 2 + 4.0 * (ra + shift) * (rb + shift) * s2)


def gh_upper_bound(d1: np.ndarray, d2: np.ndarray) -> float:
    """Half the largest ``|d1 - d2|`` of two distance matrices on one point set.

    Matching point i of one space with point i of the other is a
    correspondence of distortion ``max |d1 - d2|``, and half the distortion
    of any correspondence bounds the Gromov-Hausdorff distance from above
    (Burago-Burago-Ivanov, *A Course in Metric Geometry*, 7.3).  Given the
    same block of rows of both matrices it returns that block's share, and
    the bound is the largest share.
    """
    if d1.shape != d2.shape:
        raise ValueError(f"distance matrices of shapes {d1.shape} and {d2.shape} "
                         "are not on one point set")
    return 0.5 * float(np.abs(d1 - d2).max())


# ---------------------------------------------------------------------------
# the collapse experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollapseRow:
    """One scale of the collapse table; the field order is its column order."""

    eps: float
    gh_bound: float
    diameter: float
    stretch_max: float
    stretch_mean: float
    stretch_min: float


def _annulus_bounds(slope: float, offset: float, tail: float,
                    eps: float) -> tuple[float, float]:
    """The collapse's closed forms over the annulus ``[eps, inf)`` of scale eps.

    On the tail ``r >= eps*tail``, ``eps^2 g`` is the cone with cone radius
    ``r + s``, its apex shifted by ``s = eps*offset/slope``, and fibers are
    at most the Q8 quotient diameter pi/3 apart.  Returns ``(gap, margin)``:

    - ``gap = s*sin(slope*pi/6)``, the supremum of half the difference of the
      shifted and the exact cone distance: on the developed cone the shift
      moves A and B by s along their rays, which changes ``|AB|`` by at most
      ``2s sin(phi/2)``, with equality at ``r_a = r_b``.
    - ``margin = 2*eps*[(1 - tail) - (1 + offset/slope)*sin(slope*pi/6)]``,
      the least ``(r_a - eps*tail) + (r_b - eps*tail) - d``, d the shifted
      cone's distance: the radial length of any path through the core, less
      the closed form.  d grows with the angle and is 1-Lipschitz in each
      radius, so the least sits at ``r_a = r_b = eps`` and the angle pi/3.
      When it is >= 0 no geodesic leaves the tail, so d is the smooth metric's.

    The premise keeps each cone chord in the tail too.  On the developed
    cone the chord from A (cone radius u_a) to B (u_b) is a plane segment;
    let P be its point nearest the apex, at distance p.  Then ``d = |AP| +
    |PB| >= (u_a - p) + (u_b - p)``, while the premise gives ``d <= (u_a -
    u0) + (u_b - u0)`` with ``u0 = eps*tail + s``, so ``p >= u0``.  A chord
    through the apex (``phi = pi``) is ``u_a + u_b`` long and fails the
    premise.
    """
    sine = np.sin(slope * np.pi / 6)
    gap = eps * offset / slope * sine
    return float(gap), float(2.0 * eps * ((1.0 - tail) - (1.0 + offset / slope) * sine))


def collapse_experiment(profile: ProfilePair, eps_list=(1.0, 0.5, 0.25, 0.125),
                        n: int = 800, seed: int = 0, *,
                        r_outer: float = 8.0) -> tuple[tuple[CollapseRow, ...],
                                                       VerificationReport]:
    """Exhibit the collapse of the rescaled metrics onto the exact cone.

    For each scale eps the metric ``eps^2 g`` is compared with the exact
    cone over the round quotient link at slope ``c = profile.neck_slope`` on
    a sample of the annulus [eps, r_outer]; ``r_outer`` must exceed the
    largest eps.  Beyond ``eps*t``, where ``t = r1 + 1/4`` is the tail
    start of ``bump.breakpoints``, the build certifies ``phi = 1`` and
    ``rho_eps(r) = c*r + eps*b``: the same cone, its apex shifted by
    ``eps*b/c``.  ``_annulus_bounds`` checks once, before any fork, that no
    geodesic leaves this tail (ValueError naming the slope otherwise), and
    ``gh_bound`` is its gap ``eps*(b/c)*sin(c*pi/6)``, linear in eps.  The
    two identities must hold to the build's 1e-10 out to ``R = r_outer/eps``
    at the smallest eps, where phi - 1 has grown to about 2.2e-15*R: the
    quadrature table's mass is 4 - 2.22e-15, so phi' is 2.22e-15 on the
    tail (ValueError naming eps and R otherwise).

    The graph-geodesic space of ``eps^2 g`` on the same points is the thing
    under test.  The result is one ``CollapseRow`` per scale, in the order
    of ``eps_list``: ``gh_bound``, the graph space's diameter and its
    stretch ``d_graph / d_exact`` against the shifted cone (max, mean and
    min over ordered pairs of distinct points; the pair (s, t) is read from
    source s's Dijkstra row).  Each block of ``_BLOCK // n`` source rows is
    searched and at once reduced against both cones, from one
    ``sin^2(min(c*theta, pi)/2)`` per pair, so no n x n array is made.

    With the rows comes the ``VerificationReport`` labelled "collapse", the
    experiment's gates as ``BoundCheck``s: ``gh_drawn/gh_bound``, each
    block's drawn gap (``gh_upper_bound`` of the two cones) over its
    scale's closed form, at most 1; ``stretch_min``, at least 1, since on
    the tail no first-order edge is shorter than its cone chord (both to
    1e-12); and ``diameter max/min`` over the scales, at most 1.2.

    The work items, the pairs (scale, row block) in order, are split by
    ``_in_blocks``, so a lone scale uses every CPU too.  Each item returns
    its partial reductions, and a process builds the graph of each scale it
    meets once; the caller combines the items in order, so the rows do not
    depend on the number of CPUs.
    """
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr:
        raise ValueError("eps_list must be nonempty")
    if any(not 0 < e <= 1 for e in eps_arr):
        raise ValueError("eps values must lie in (0, 1]")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if not r_outer > eps_arr[0]:  # NaN fails too
        raise ValueError(f"r_outer = {r_outer!r} must exceed the largest eps {eps_arr[0]!r}: "
                         "the annulus [eps, r_outer] would be empty or reversed")
    if profile.neck_slope is None or profile.r1 is None:
        raise ValueError("profile needs a neck_slope and r1 for the cone comparison")

    _check_sample_size(n)
    try:
        np.random.SeedSequence(seed)  # numpy's own seed rule, checked before any fork
    except (TypeError, ValueError) as exc:
        raise ValueError(f"seed = {seed!r} is not a valid seed: {exc}") from None

    slope = profile.neck_slope
    tail = breakpoints(profile.r1)[2]
    offset = float(profile.rho(tail)) - slope * tail  # b in rho = c*r + b on the tail
    gaps, margins = zip(*(_annulus_bounds(slope, offset, tail, eps) for eps in eps_arr))
    if not margins[0] >= 0:  # NaN fails too
        raise ValueError(f"tail premise fails at neck slope {slope!r}: core-detour margin "
                         f"{margins[0] / eps_arr[0]:.3g}*eps over the annulus, below 0")
    far = r_outer / eps_arr[-1]
    line = slope * far + offset
    with np.errstate(over="ignore", invalid="ignore"):  # a huge or infinite R fails below
        phi_off, rho_off = abs(profile.phi(far) - 1.0), abs(profile.rho(far) - line)
    if not (phi_off <= 1e-10 and rho_off <= 1e-10 * line):  # NaN fails too
        raise ValueError(f"tail identities fail at the smallest eps {eps_arr[-1]!r}: at R = "
                         f"r_outer/eps = {far!r}, phi = 1 and rho = c*r + b miss 1e-10")

    step = max(1, _BLOCK // n)  # source rows per work item
    per_scale = -(-n // step)

    @functools.lru_cache(maxsize=1)  # a process meets its scales in order
    def scale(idx):
        eps = eps_arr[idx]
        radii, quats = _draw_points([seed, idx], n, eps, r_outer, "q8")
        edges = neighbor_graph(radii, quats, "q8")
        graph = _adjacency(n, edges, weigh(profile.rescale(eps), radii, quats, edges, "q8"))
        return radii, quats, graph, eps * offset / slope  # the tail's apex shift

    def measure(item):
        """One work item's drawn gh, row max, and stretch max, min and sum."""
        idx, part = divmod(item, per_scale)
        radii, quats, graph, shift = scale(idx)
        lo, hi = part * step, min(part * step + step, n)
        dist = _dijkstra_rows(graph, lo, hi)
        s2 = _half_sine2(_quotient_angles(quats[lo:hi], quats, "q8"), slope)
        s2[np.arange(hi - lo), np.arange(lo, hi)] = 0.0  # each point's own fiber
        ra = radii[lo:hi, None]
        cone = _chord(ra, radii, 0.0, s2)
        smooth = _chord(ra, radii, shift, s2)
        # a source's own entry, 0 in both metrics, counts as 0 and is no pair
        apart = smooth > 0
        stretch = np.divide(dist, smooth, out=np.zeros_like(smooth), where=apart)
        return (gh_upper_bound(smooth, cone), diameter(dist), stretch.max(),
                stretch.min(where=apart, initial=np.inf), stretch.sum())

    table = _in_blocks(len(eps_arr) * per_scale, 5, 1, lambda item, _: measure(item))
    table = table.reshape(len(eps_arr), per_scale, 5)
    rows = []
    for eps, gap, parts in zip(eps_arr, gaps, table.tolist()):
        _, diam, stretch_max, stretch_min, stretch_sum = zip(*parts)
        rows.append(CollapseRow(eps=eps, gh_bound=gap, diameter=max(diam),
                                stretch_max=max(stretch_max),
                                stretch_mean=sum(stretch_sum) / (n * (n - 1)),
                                stretch_min=min(stretch_min)))
    diameters = table[..., 1].max(1)  # each scale's
    check = functools.partial(BoundCheck.sampled, kind="max_le", tol=1e-12)
    report = VerificationReport("collapse", n * len(eps_arr), (
        check("gh_drawn/gh_bound", table[..., 0] / np.array(gaps)[:, None], 1.0),
        check("stretch_min", table[..., 3], 1.0, kind="min_ge"),
        check("diameter max/min", diameters.max() / diameters.min(), 1.2, tol=0.0)))
    return tuple(rows), report
