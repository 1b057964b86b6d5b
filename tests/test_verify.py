"""Region certification, grid stability, and the negative control."""

from dataclasses import replace

import numpy as np
import pytest

from conekit.bump import REFERENCE_NECK_SLOPE, build_profile
from conekit.frame import ricci_curve
from conekit import verify
from conekit.profiles import round_profile
from conekit.reports import BoundCheck
from conekit.verify import (
    _HALVINGS,
    R_FLOOR,
    Region,
    _grid,
    negative_control,
    standard_regions,
    verify_nonneg,
    verify_region,
)

from analytic import flat_profile


def test_regions_tile_the_interval(reference_profile):
    regions = standard_regions(reference_profile, 3.0)
    assert [r.label for r in regions] == ["Part1", "Part2", "Part3", "Part4"]
    assert regions[0].lo == 0.0
    assert regions[-1].hi == 3.0
    for a, b in zip(regions[:-1], regions[1:]):
        assert a.hi == b.lo
    r1 = reference_profile.r1
    assert regions[0].hi == pytest.approx(r1 + 1 / 16)
    assert regions[1].hi == pytest.approx(r1 + 3 / 16)
    assert regions[2].hi == pytest.approx(r1 + 1 / 4)


def test_region_validation():
    with pytest.raises(ValueError):
        Region("Part5", 0.0, 1.0)
    with pytest.raises(ValueError):
        Region("Part1", 1.0, 0.5)
    with pytest.raises(ValueError):
        standard_regions(flat_profile(), 3.0)  # no r1


@pytest.mark.parametrize("lo, hi", [(0.0, -1.0), (1.0, np.inf), (np.nan, 1.0),
                                    (0.0, np.nan), (0.0, R_FLOOR / 2)])
def test_region_must_be_ordered_and_finite(lo, hi):
    # the grid starts at max(lo, R_FLOOR), so hi must lie past R_FLOOR too
    with pytest.raises(ValueError, match="region must have lo < hi"):
        Region("nonnegativity sweep", lo, hi)


@pytest.mark.parametrize("r_max", [-1.0, 0.0, np.inf, np.nan])
def test_sweep_rejects_a_reversed_or_non_finite_r_max(reference_profile, r_max):
    # -1 once gave a report over a reversed grid; inf reached ricci_curve
    # through RuntimeWarnings
    with pytest.raises(ValueError, match="region must have lo < hi"):
        verify_nonneg(reference_profile, r_max=r_max, n_grid=64)
    with pytest.raises(ValueError):
        standard_regions(reference_profile, r_max)


_TOL_MESSAGE = "tol must be positive and finite"


@pytest.mark.parametrize("n_grid, tol, message", [
    (64, 0.0, _TOL_MESSAGE),
    (64, -1.0, _TOL_MESSAGE),
    (64, np.nan, _TOL_MESSAGE),
    (64, np.inf, _TOL_MESSAGE),
    (63, 1e-9, "n_grid must be at least 64"),
], ids=["0.0", "-1.0", "nan", "inf", "grid-63"])
def test_tolerance_must_be_positive_and_finite(reference_profile, n_grid, tol, message):
    # at tol = inf the negative control once passed; at nan every check
    # failed without saying why; the CLI rejects a small --grid before the
    # library sees it
    region = standard_regions(reference_profile, 3.0)[0]
    with pytest.raises(ValueError, match=message):
        verify_region(reference_profile, region, n_grid=n_grid, tol=tol)
    with pytest.raises(ValueError, match=message):
        verify_nonneg(negative_control(reference_profile), r_max=3.0, n_grid=n_grid, tol=tol)


def test_sweep_is_the_whole_line_region(reference_profile):
    sweep = verify_nonneg(reference_profile, r_max=2.5, n_grid=64)
    assert sweep.label == "nonnegativity sweep [1e-06, 2.5]"
    region = Region("nonnegativity sweep", 0.0, 2.5)
    assert sweep.to_dict() == verify_region(reference_profile, region, n_grid=64).to_dict()


class _Recording:
    """A radial function that logs the derivative order of every call."""

    def __init__(self, f, name, log):
        self.f, self.name, self.log = f, name, log

    def __call__(self, r, order=0):
        self.log.append((self.name, order))
        return self.f(r, order)


def test_derivatives_are_evaluated_only_where_checked(reference_profile, monkeypatch):
    # ricci_curve sees the plain profile, so the log holds only the checks' calls
    monkeypatch.setattr(verify, "ricci_curve", lambda _, r: ricci_curve(reference_profile, r))
    log = []
    recording = replace(reference_profile, rho=_Recording(reference_profile.rho, "rho", log),
                        phi=_Recording(reference_profile.phi, "phi", log))
    regions = [*standard_regions(reference_profile, 3.0),
               Region("nonnegativity sweep", 0.0, 3.0)]
    called = {}
    for region in regions:
        log.clear()
        verify_region(recording, region, n_grid=64)
        called[region.label] = sorted(log)
    assert called == {"Part1": [], "Part2": [("phi", 2), ("rho", 2)],
                      "Part3": [("phi", 1), ("phi", 2), ("phi", 3)], "Part4": [("rho", 0)],
                      "nonnegativity sweep": []}


def test_all_regions_pass_default(reference_profile):
    for region in standard_regions(reference_profile, 3.0):
        report = verify_region(reference_profile, region, n_grid=512)
        assert report.passed, report.describe()


def test_part1_fiber_bound(reference_profile):
    region = standard_regions(reference_profile, 3.0)[0]
    report = verify_region(reference_profile, region, n_grid=512)
    assert report.minima["r22_min"] >= 2.0 - 1e-9


def test_part4_radial_flatness(reference_profile):
    region = standard_regions(reference_profile, 3.0)[3]
    report = verify_region(reference_profile, region, n_grid=512)
    check = {c.name: c for c in report.checks}["r00_flat"]
    assert check.passed and abs(check.value) <= 1e-10


@pytest.mark.parametrize("slope", [REFERENCE_NECK_SLOPE, 1e-3, 0.05, 0.17])
def test_every_report_passes_across_slopes(slope):
    # on the tail r_ii = (2 - 2c^2)/rho^2 with rho > 1, so Part4 checks
    # rho^2*r_ii against 2 - 2c^2; a bound of 2 - 2c^2 on the minima failed
    # off the reference slope.  Measured deviations are about 2.2e-14
    profile = build_profile(slope)
    reports = [verify_region(profile, region) for region in standard_regions(profile, 3.0)]
    reports.append(verify_nonneg(profile, r_max=3.0, n_grid=1024))
    assert all(r.passed for r in reports), "\n".join(r.describe() for r in reports)
    tail = {c.name: c for c in reports[3].checks}["r_ii_tail"]
    assert tail.kind == "match" and tail.value <= 1e-13


@pytest.mark.parametrize("slope", [0.18, 0.2])
def test_ricci_turns_negative_in_the_neck_past_slope_0177(slope):
    profile = build_profile(slope)
    part1, part2, part3, part4 = (verify_region(profile, region)
                                  for region in standard_regions(profile, 3.0))
    sweep = verify_nonneg(profile, r_max=3.0, n_grid=1024)
    for report in (part2, sweep):
        assert [c.name for c in report.checks if not c.passed] == ["r22_min", "r33_min"]
    assert part1.passed and part3.passed and part4.passed


@pytest.mark.parametrize("label", ["Part2", "Part4"])
def test_constant_reading_regions_need_a_constructed_profile(label, monkeypatch):
    # no fallback to bound 0: the profile is rejected before any Ricci
    # entry is evaluated
    monkeypatch.setattr(verify, "ricci_curve", None)
    with pytest.raises(ValueError, match=f"{label} needs a constructed profile"):
        verify_region(flat_profile(), Region(label, 0.1, 1.0), n_grid=64)


def test_part2_proof_quantities(reference_profile):
    region = standard_regions(reference_profile, 3.0)[1]
    report = verify_region(reference_profile, region, n_grid=512)
    by_name = {c.name: c for c in report.checks}
    assert by_name["rho''_min"].passed
    assert by_name["rho''_max"].value <= 64 * reference_profile.delta
    assert by_name["phi''_max"].value <= -16.0


def test_part3_proof_quantities(reference_profile):
    region = standard_regions(reference_profile, 3.0)[2]
    report = verify_region(reference_profile, region, n_grid=512)
    by_name = {c.name: c for c in report.checks}
    assert by_name["phi'''_min"].passed
    assert by_name["phi'_min"].passed
    assert by_name["phi' + phi''/16 max"].passed


def test_flat_profile_region_minima():
    # Part3's phi checks read no construction constants, so they run here too
    region = Region("Part3", 0.1, 1.0)
    report = verify_region(flat_profile(), region, n_grid=256)
    assert report.passed
    assert all(abs(v) <= 1e-10 for v in report.minima.values())
    assert [c.name for c in report.checks][4:] == [
        "phi'''_min", "phi'_min", "phi' + phi''/16 max"]


def test_round_profile_sweep():
    report = verify_nonneg(round_profile(), r_max=1.0, n_grid=256)
    assert report.passed
    m = report.minima
    assert m["r00_min"] == pytest.approx(0.0, abs=1e-10)
    assert m["r11_min"] == pytest.approx(2.0, abs=1e-10)
    assert m["r22_min"] == pytest.approx(2.0, abs=1e-10)


def test_nonneg_default(reference_profile):
    report = verify_nonneg(reference_profile, r_max=3.0, n_grid=2048)
    assert report.passed
    assert all(v >= -1e-9 for v in report.minima.values())


def test_nonneg_lab_profile(lab_profile):
    # the moderate-slope profile driving the sampling experiments is also
    # genuinely nonnegatively curved
    report = verify_nonneg(lab_profile, r_max=8.0, n_grid=2048)
    assert report.passed, report.describe()


def test_negative_control_fails(reference_profile):
    doubled = negative_control(reference_profile)
    assert doubled.phi(reference_profile.r1 / 2, 1) == pytest.approx(8.0)
    report = verify_nonneg(doubled, r_max=3.0, n_grid=1024)
    assert not report.passed
    assert min(report.minima.values()) < -0.1


def test_grid_refinement_stability(reference_profile):
    a = verify_nonneg(reference_profile, r_max=3.0, n_grid=2048).minima
    b = verify_nonneg(reference_profile, r_max=3.0, n_grid=4096).minima
    for key in a:
        assert abs(a[key] - b[key]) < 1e-9


def test_regional_minima_match_global(reference_profile):
    tol = 1e-8
    global_min = verify_nonneg(reference_profile, r_max=3.0, n_grid=2048).minima
    regional = [verify_region(reference_profile, reg, n_grid=512).minima
                for reg in standard_regions(reference_profile, 3.0)]
    for key in global_min:
        least = min(m[key] for m in regional)
        assert abs(least - global_min[key]) < tol


def test_partitioned_minima_are_order_independent(reference_profile, lab_profile):
    # not only the minima: every entry of every radius has the same bits in
    # a batch, in a permuted batch and alone, so a grid may be partitioned
    # arbitrarily; the second grid is dense where phi and rho are quadratures
    order = np.random.default_rng(0).permutation(2002)
    for profile in (reference_profile, lab_profile):
        radii = np.concatenate([np.linspace(1e-6, 3.0, 1001),
                                np.linspace(profile.r1, profile.r1 + 0.25, 1001)])
        whole = ricci_curve(profile, radii)
        assert np.array_equal(ricci_curve(profile, radii[order]), whole[:, order])
        alone = np.stack([ricci_curve(profile, r)[:, 0] for r in radii], axis=1)
        assert np.array_equal(alone, whole)


def _serial_refined_radii(profile, lo, hi, n_grid, tol):
    """The adaptive endpoint bisection the fixed grid replaced, one radius per
    ``ricci_curve`` call: halve the first step toward each endpoint until
    consecutive Ricci samples move by less than tol, at most ``_HALVINGS``
    times."""
    base = np.linspace(lo, hi, n_grid)
    extras = []
    for anchor, direction in ((lo, +1.0), (hi, -1.0)):
        d = (hi - lo) / (n_grid - 1)
        prev = ricci_curve(profile, anchor + direction * d)[:, 0]
        for _ in range(_HALVINGS):
            d *= 0.5
            pt = anchor + direction * d
            cur = ricci_curve(profile, pt)[:, 0]
            extras.append(pt)
            if np.max(np.abs(cur - prev)) < tol:
                break
            prev = cur
    return np.unique(np.concatenate([base, np.asarray(extras)]))


def test_fixed_grid_holds_every_adaptively_refined_radius(reference_profile, lab_profile):
    # the adaptive rule keeps a prefix of the same halvings, so whatever it
    # keeps, at any tol, is a radius of the fixed grid, bit for bit
    for profile in (reference_profile, lab_profile, negative_control(reference_profile)):
        spans = [(max(reg.lo, R_FLOOR), reg.hi, n_grid)
                 for reg in standard_regions(profile, 3.0) for n_grid in (64, 1024)]
        for lo, hi, n_grid in [*spans, (R_FLOOR, 3.0, 4096)]:
            grid = _grid(lo, hi, n_grid)
            for tol in (1e-9, 1e-3):
                kept = _serial_refined_radii(profile, lo, hi, n_grid, tol)
                assert np.isin(kept, grid).all()


def test_each_report_makes_one_ricci_curve_call(reference_profile, monkeypatch):
    calls = []

    def counting(profile, r):
        calls.append(np.size(r))
        return ricci_curve(profile, r)
    monkeypatch.setattr(verify, "ricci_curve", counting)
    region = standard_regions(reference_profile, 3.0)[1]
    report = verify_region(reference_profile, region, n_grid=256)
    assert report.passed and calls == [report.grid_size]
    calls.clear()
    report = verify_nonneg(reference_profile, r_max=3.0, n_grid=256)
    assert report.passed and calls == [report.grid_size]


def test_tol_does_not_move_the_grid(reference_profile):
    for region in standard_regions(reference_profile, 3.0):
        fine, coarse = (verify_region(reference_profile, region, n_grid=256, tol=tol)
                        for tol in (1e-9, 1e-3))
        assert fine.grid_size == coarse.grid_size


def test_report_serialization(reference_profile):
    report = verify_nonneg(reference_profile, r_max=3.0, n_grid=256)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} == {
        "r00_min", "r11_min", "r22_min", "r33_min"}


def test_check_kind_is_checked_at_construction():
    for kind in ("min_ge", "max_le", "match"):
        assert BoundCheck("x", 1.0, 0.0, kind=kind).kind == kind
    with pytest.raises(ValueError, match="'min_gt'; expected one of min_ge, max_le, match"):
        BoundCheck("x", 1.0, 0.0, kind="min_gt")
    with pytest.raises(TypeError):  # a positional kind would land in another field
        BoundCheck("x", 1.0, 0.0, "match")


@pytest.mark.parametrize("kind, reduce", [
    ("min_ge", np.min), ("max_le", np.max), ("match", lambda s: np.abs(s).max())])
def test_sampled_check_reduces_by_kind(kind, reduce):
    samples = np.random.default_rng(0).uniform(-3.0, 3.0, (4, 5))
    check = BoundCheck.sampled("x", samples, 0.0, kind=kind, tol=10.0, bound_expr="0")
    assert check == BoundCheck("x", float(reduce(samples)), 0.0, kind=kind, tol=10.0,
                               bound_expr="0")
    assert check.passed
    samples[2, 3] = np.nan
    for bad in (samples, np.array(np.nan), np.float64(np.nan)):
        assert not BoundCheck.sampled("x", bad, 0.0, kind=kind, tol=10.0).passed
    zero_d = BoundCheck.sampled("x", np.array(-2.0), 0.0, kind=kind, tol=10.0)
    assert zero_d.value == float(reduce(np.array(-2.0))) and zero_d.passed


def test_sampled_match_compares_residuals_with_zero():
    with pytest.raises(ValueError, match="compares magnitudes with 0, got bound 1.0"):
        BoundCheck.sampled("x", np.ones(3), 1.0, kind="match")
    with pytest.raises(ValueError, match="'min_gt'; expected one of min_ge, max_le, match"):
        BoundCheck.sampled("x", np.ones(3), 0.0, kind="min_gt")


def test_part1_closed_identities(reference_profile):
    # with rho == 1 the entries reduce to bump expressions:
    # r00 = eta(r - r1)/phi, r11 = r00 + 2 phi^2, r22 = 4 - 2 phi^2
    from conekit.bump import make_eta

    eta = make_eta()
    r1 = reference_profile.r1
    rs = np.linspace(0.02, r1 + 1 / 16, 40)
    vals = ricci_curve(reference_profile, rs)
    phi = reference_profile.phi(rs)
    radial = eta.eta(rs - r1) / phi
    assert np.allclose(vals[0], radial, rtol=1e-12, atol=1e-12)
    assert np.allclose(vals[1], radial + 2 * phi**2, rtol=1e-12, atol=1e-12)
    assert np.allclose(vals[2], 4 - 2 * phi**2, rtol=1e-12, atol=1e-12)


def test_region_bounds_collapse_to_representable(reference_profile):
    # 16 - (192*delta + 2c/r1) is 16.0 in float64 at the reference slope;
    # the symbolic expression rides along
    part2 = verify_region(reference_profile, standard_regions(reference_profile, 3.0)[1],
                          n_grid=256)
    r00 = [c for c in part2.checks if c.name == "r00_min"][0]
    assert r00.bound == 16.0 and "delta" in r00.bound_expr
    # Part4's minima are bounded by 0; the slope enters through rho^2*r_ii
    part4 = verify_region(reference_profile, standard_regions(reference_profile, 3.0)[3],
                          n_grid=256)
    by_name = {c.name: c for c in part4.checks}
    assert by_name["r11_min"].bound == 0.0 and by_name["r11_min"].bound_expr == "0"
    tail = by_name["r_ii_tail"]
    assert tail.bound == 0.0 and "neck_slope" in tail.bound_expr
