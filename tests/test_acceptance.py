"""Acceptance gate: one test per criterion, each at its declared tolerance.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one pass/fail
line per criterion.  Every tolerance below is pinned; nothing is deferred
to later calibration.
"""

import time

import numpy as np
import pytest

from conekit import bump
from conekit.frame import curvature_from_forms, ricci_diag
from conekit.obstruction import GROUPS, TopologicalData, hitchin_check
from conekit.profiles import random_smooth_profile, round_profile
from conekit.quaternions import Q8, qmul, random_unit
from conekit.spaces import collapse_experiment, sample_annulus, sample_sphere, weigh
from conekit.verify import standard_regions, verify_nonneg, verify_region

from analytic import flat_profile


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {status} {name}{suffix}")


def test_oracle_equivalence():
    # >= 1000 random (profile, r) pairs, closed form vs forms oracle,
    # 1e-6 relative / 1e-9 absolute, under 10 seconds
    rng = np.random.default_rng(20240901)
    t0 = time.time()
    worst = -np.inf
    for _ in range(1000):
        profile = random_smooth_profile(rng)
        r = rng.uniform(0.3, 3.0)
        closed = ricci_diag(profile, r).as_array()
        _, oracle = curvature_from_forms(profile, r, h=1e-5, check_step=False)
        gap = np.abs(oracle.as_array() - closed) - (1e-9 + 1e-6 * np.abs(closed))
        worst = max(worst, float(gap.max()))
    elapsed = time.time() - t0
    ok = worst <= 0.0 and elapsed < 10.0
    _report("oracle equivalence (1000 pairs)", ok,
            f"worst tolerance slack {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_flat_fixture():
    profile = flat_profile()
    closed = ricci_diag(profile, 2.0).as_array()
    R, oracle = curvature_from_forms(profile, 2.0, h=1e-5)
    worst = max(np.abs(closed).max(), np.abs(oracle.as_array()).max(),
                np.abs(R).max())
    ok = worst < 1e-9
    _report("flat fixture", ok, f"largest entry {worst:.2e}")
    assert ok


def test_round_fixture():
    profile = round_profile()
    closed = ricci_diag(profile, 1.0).as_array()
    _, oracle = curvature_from_forms(profile, 1.0, h=1e-5)
    expect = np.array([0.0, 2.0, 2.0, 2.0])
    worst = max(np.abs(closed - expect).max(),
                np.abs(oracle.as_array() - expect).max())
    ok = worst < 1e-9
    _report("round fixture", ok, f"largest deviation {worst:.2e}")
    assert ok


def test_construction_constants():
    eta = bump.make_eta()
    r1 = bump.compute_r1(eta)
    profile = bump.build_profile()
    c = bump.REFERENCE_NECK_SLOPE
    tail = np.linspace(r1 + 3 / 16, 3.0, 257)
    slope_err = np.max(np.abs(profile.rho(tail, 1) - c)) / c
    checks = {
        "r1 in [1/32, 1/4)": 1 / 32 <= r1 < 0.25,
        "phi(1/4 + r1) = 1": abs(profile.phi(0.25 + r1) - 1.0) <= 1e-9,
        "tail slope": slope_err <= 1e-12,
        "delta <= 32c": profile.delta <= 32 * c,
    }
    ok = all(checks.values())
    _report("construction constants", ok,
            ", ".join(k for k, v in checks.items() if not v) or
            f"r1={r1}, slope err {slope_err:.1e}")
    assert ok


def test_nonnegativity_certification():
    profile = bump.build_profile()
    t0 = time.time()
    sweep = verify_nonneg(profile, r_max=3.0, n_grid=4096, tol=1e-9)
    regions = standard_regions(profile, 3.0)
    part1 = verify_region(profile, regions[0], n_grid=1024, tol=1e-9)
    part4 = verify_region(profile, regions[3], n_grid=1024, tol=1e-9)
    elapsed = time.time() - t0
    r00_flat = {c.name: c for c in part4.checks}["r00_flat"]
    ok = (sweep.passed
          and min(sweep.minima.values()) >= -1e-9
          and part1.minima["r22_min"] >= 2.0 - 1e-9
          and abs(r00_flat.value) <= 1e-10
          and elapsed < 30.0)
    _report("nonnegativity certification", ok,
            f"minima {min(sweep.minima.values()):.2e}, "
            f"Part1 r22 {part1.minima['r22_min']:.6f}, "
            f"Part4 |r00| {r00_flat.value:.2e}, {elapsed:.1f}s")
    assert ok


def test_negative_control():
    from conekit.verify import negative_control
    profile = negative_control(bump.build_profile())
    report = verify_nonneg(profile, r_max=3.0, n_grid=1024)
    least = min(report.minima.values())
    ok = (not report.passed) and least < -0.1
    _report("negative control", ok, f"least entry {least:.3f}")
    assert ok


def test_metric_space_suite():
    sphere = sample_sphere(round_profile(), 1.0, 3000, seed=11, group="trivial")
    annulus = sample_annulus(bump.build_profile(0.05), 1.0, 4.0, 400, seed=2)
    axioms = [sphere.metric_axioms_report(), annulus.metric_axioms_report()]
    diam = sphere.diameter()
    rng = np.random.default_rng(77)
    q1, q2 = random_unit(rng, 2)

    def edge(q_a, q_b):  # the pipeline's edge length on the unit round quotient
        return weigh(round_profile(), np.ones(2), np.stack([q_a, q_b]),
                     np.array([[0, 1]]), "q8")[0]
    base = edge(q1, q2)
    invariance = max(max(abs(edge(qmul(g, q1), q2) - base),
                         abs(edge(q1, qmul(g, q2)) - base)) for g in Q8)
    ok = (all(a["ok"] for a in axioms)
          and abs(diam - np.pi) <= 0.05 * np.pi
          and invariance <= 1e-12)
    _report("metric space suite", ok,
            f"diameter {diam:.4f} vs pi, invariance {invariance:.1e}, "
            f"axioms {[a['ok'] for a in axioms]}")
    assert ok


def test_collapse_experiment():
    profile = bump.build_profile(0.05)
    t0 = time.time()
    rows = collapse_experiment(profile, (1.0, 0.5, 0.25, 0.125), n=800, seed=0)
    elapsed = time.time() - t0
    gh = [row.gh_bound for row in rows]
    diameters = [row.diameter for row in rows]
    ratio = max(diameters) / min(diameters)
    # on the tail no first-order edge is shorter than the cone chord
    stretch_min = min(row.stretch_min for row in rows)
    ok = (all(b < a for a, b in zip(gh, gh[1:]))
          and ratio <= 1.2
          and stretch_min >= 1 - 1e-12
          and elapsed < 300.0)
    _report("collapse experiment", ok,
            f"gh {['%.3f' % g for g in gh]}, "
            f"diam ratio {ratio:.3f}, "
            f"stretch min {stretch_min:.10f}, {elapsed:.1f}s")
    assert ok


def test_obstruction_regression():
    data = TopologicalData(chi=1, tau=0)
    verdict = hitchin_check(data, GROUPS["Q8"])
    ok = (str(verdict.lhs) == "7/4" and str(verdict.rhs) == "9/4"
          and not verdict.consistent)
    _report("obstruction regression", ok, verdict.describe())
    assert ok
