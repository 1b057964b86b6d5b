"""Region certification, grid stability, and the negative control."""

import numpy as np
import pytest

from conekit.frame import ricci_curve
from conekit.profiles import flat_profile, round_profile
from conekit.verify import (
    Region,
    negative_control,
    standard_regions,
    verify_nonneg,
    verify_region,
)


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
    region = Region("Part3", 0.1, 1.0)
    report = verify_region(flat_profile(), region, n_grid=256)
    assert report.passed
    assert all(abs(v) <= 1e-10 for v in report.minima.values())


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


def test_partitioned_minima_are_order_independent(reference_profile):
    radii = np.linspace(1e-6, 3.0, 1001)
    whole = ricci_curve(reference_profile, radii).min(axis=1)
    shuffled = np.random.default_rng(0).permutation(radii)
    scrambled = ricci_curve(reference_profile, shuffled).min(axis=1)
    assert np.array_equal(whole, scrambled)


def test_report_serialization(reference_profile):
    report = verify_nonneg(reference_profile, r_max=3.0, n_grid=256)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} == {
        "r00_min", "r11_min", "r22_min", "r33_min"}


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
    # 16 - (192*delta + 2c/r1) and 2 - 2c^2 are 16.0 and 2.0 in float64
    # at the reference slope; the symbolic expression rides along
    part2 = verify_region(reference_profile, standard_regions(reference_profile, 3.0)[1],
                          n_grid=256)
    r00 = [c for c in part2.checks if c.name == "r00_min"][0]
    assert r00.bound == 16.0 and "delta" in r00.bound_expr
    part4 = verify_region(reference_profile, standard_regions(reference_profile, 3.0)[3],
                          n_grid=256)
    r11 = [c for c in part4.checks if c.name == "r11_min"][0]
    assert r11.bound == 2.0 and "neck_slope" in r11.bound_expr
