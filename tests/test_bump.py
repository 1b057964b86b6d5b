"""Bump construction, quadrature tables, and profile certification."""

import json

import numpy as np
import pytest
from scipy import integrate

from conekit import bump
from conekit.bump import ConstructionError
from conekit.profiles import ProfilePair, constant_radial, polynomial_radial


@pytest.fixture(scope="module")
def eta():
    return bump.make_eta()


@pytest.fixture(scope="module")
def table(eta):
    return bump.build_table(eta)


# ---------------------------------------------------------------------------
# the bump itself
# ---------------------------------------------------------------------------

def test_eta_invariants(eta):
    xs = np.linspace(-0.1, 0.35, 2001)
    vals = eta(xs)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 64.0)
    assert np.all(vals[(xs < 0) | (xs > 0.25)] == 0.0)
    window = np.linspace(1 / 16, 3 / 16, 301)
    assert np.all(eta(window) >= 16.0)
    tail = np.linspace(1 / 8, 1 / 4, 301)
    assert np.all(eta.eta_prime(tail) <= 1e-12)


def test_eta_mass(eta):
    assert eta.mass == pytest.approx(4.0, abs=1e-10)
    # independent adaptive quadrature
    val, err = integrate.quad(eta.eta, 0.0, 0.25, points=list(eta.segments),
                              limit=200)
    assert val == pytest.approx(4.0, abs=1e-9)


def test_eta_derivative_is_consistent(eta):
    xs = np.linspace(0.005, 0.245, 97)
    h = 1e-6
    fd = (eta(xs + h) - eta(xs - h)) / (2 * h)
    assert np.abs(fd - eta.eta_prime(xs)).max() < 1e-4


def test_eta_plateau_amplitude(eta):
    # mass 4 over effective width 3/16 forces amplitude 64/3; both smooth
    # steps are exactly 1 at the plateau midpoint, so eta equals it there
    assert eta(0.125) == pytest.approx(64.0 / 3.0, rel=1e-12)


def test_eta_infeasible_ceiling():
    with pytest.raises(ConstructionError, match="mass"):
        bump.make_eta(mass=20.0)  # would need amplitude above the ceiling


def test_eta_infeasible_floor():
    with pytest.raises(ConstructionError, match="floor"):
        bump.make_eta(mass=1.0)  # amplitude would undercut the floor


# ---------------------------------------------------------------------------
# quadrature table
# ---------------------------------------------------------------------------

def test_table_monotone_antiderivative(table):
    assert np.all(np.diff(table.first_antiderivative) >= 0.0)
    assert np.all(np.diff(table.grid) > 0.0)
    assert table.tol < 1e-12


def test_table_against_adaptive_quadrature(eta, table):
    pts = list(eta.segments)
    for x in np.linspace(0.01, 0.24, 12):
        ref, _ = integrate.quad(eta.eta, 0.0, x, points=pts, limit=200)
        assert table.antiderivative(x) == pytest.approx(ref, abs=1e-11)
        ref2, _ = integrate.quad(lambda s: (x - s) * eta.eta(s), 0.0, x,
                                 points=pts, limit=200)
        assert table.antiderivative2(x) == pytest.approx(ref2, abs=1e-11)


# ---------------------------------------------------------------------------
# r1
# ---------------------------------------------------------------------------

def test_step_bump_mass_is_exact():
    step = bump.idealized_step_bump()
    assert step.mass == 4.0  # 32 * 1/8, exactly


def test_r1_of_step_bump_is_exact():
    # (1/4) * 32 * int_{1/16}^{3/16} (1/4 - s) ds = (1/4) * 32 * (1/64)
    step = bump.idealized_step_bump()
    assert bump.compute_r1(step) == pytest.approx(0.125, abs=1e-14)


def test_r1_of_default_bump(eta):
    # the default bump is symmetric about 1/8, so r1 = mass * (1/8) / 4
    assert bump.compute_r1(eta) == pytest.approx(0.125, abs=1e-12)


def test_r1_bounds(eta):
    r1 = bump.compute_r1(eta)
    assert 1.0 / 32.0 <= r1 < 0.25       # asserted bound
    assert r1 >= 1.0 / 16.0 - 1e-12      # observed stronger bound from the floor


def test_r1_floor_bound_across_shapes():
    # the floor constraint alone already forces r1 >= 1/16 for any
    # compliant bump; spot-check a few plateau shapes
    for plateau in ((1 / 20, 3 / 16), (1 / 16, 0.21), (1 / 18, 0.20)):
        spec = bump.make_eta(plateau=plateau)
        assert bump.compute_r1(spec) >= 1.0 / 16.0 - 1e-12


def test_r1_degenerate_bump():
    dead = bump.idealized_step_bump(amplitude=0.0)
    with pytest.raises(ConstructionError):
        bump.compute_r1(dead)


# ---------------------------------------------------------------------------
# phi and rho
# ---------------------------------------------------------------------------

def test_phi_head_slope(eta, table):
    r1 = bump.compute_r1(eta)
    phi = bump.make_phi(eta, r1, table)
    r = r1 / 2
    assert phi(r) == pytest.approx(4 * r, abs=1e-14)
    assert phi(r, 1) == pytest.approx(4.0, abs=1e-14)


def test_phi_top_and_tail(eta, table):
    r1 = bump.compute_r1(eta)
    phi = bump.make_phi(eta, r1, table)
    assert phi(0.25 + r1) == pytest.approx(1.0, abs=1e-10)
    assert phi(10.0) == pytest.approx(1.0, abs=1e-10)
    assert abs(phi(10.0, 1)) < 1e-10


def test_phi_agrees_with_adaptive_quadrature(eta, table):
    # phi(r) = 4r - int_0^{r-r1} (r - r1 - s) eta(s) ds by Fubini
    r1 = bump.compute_r1(eta)
    phi = bump.make_phi(eta, r1, table)
    for r in np.linspace(0.05, 0.6, 14):
        x = r - r1
        if x <= 0:
            ref = 4 * r
        else:
            val, _ = integrate.quad(lambda s: (x - s) * eta.eta(s), 0.0,
                                    min(x, 0.25), points=list(eta.segments),
                                    limit=200)
            ref = 4 * r - val
        assert phi(r) == pytest.approx(ref, abs=1e-9)


def test_rho_head_and_tail(eta, table):
    r1 = bump.compute_r1(eta)
    rho, delta = bump.make_rho(eta, r1, 0.05, table)
    assert rho(r1 / 2) == pytest.approx(1.0, abs=1e-15)
    assert rho(r1 / 2, 1) == 0.0
    assert rho(1.0, 1) == pytest.approx(0.05, rel=1e-12)
    assert delta <= 32 * 0.05
    assert delta == pytest.approx(0.025, rel=1e-10)  # neck_slope / (mass/2)


def test_rho_reference_slope_delta():
    profile = bump.build_profile()
    c = bump.REFERENCE_NECK_SLOPE
    assert profile.delta <= 32 * c
    assert np.isfinite(profile.delta) and profile.delta > 0


def test_rho_convexity(lab_profile):
    rs = np.linspace(0.0, 2.0, 2001)
    assert np.min(lab_profile.rho(rs, 2)) >= 0.0


def test_rho_rejects_bad_slope(eta, table):
    r1 = bump.compute_r1(eta)
    with pytest.raises(ValueError, match="neck_slope"):
        bump.make_rho(eta, r1, -1.0, table)


@pytest.mark.parametrize("slope", [1.0, 2.0])
def test_rho_rejects_slope_at_least_one(eta, table, slope):
    r1 = bump.compute_r1(eta)
    with pytest.raises(bump.ConstructionError, match="needs c < 1"):
        bump.make_rho(eta, r1, slope, table)


def test_rho_monotone_in_neck_slope(eta, table):
    r1 = bump.compute_r1(eta)
    rs = np.linspace(r1 + 1 / 16 + 0.01, 2.0, 50)
    profiles = [bump.make_rho(eta, r1, c, table)[0](rs) for c in (0.01, 0.05, 0.2)]
    assert np.all(profiles[1] > profiles[0])
    assert np.all(profiles[2] > profiles[1])


def test_slope_ranges(lab_profile):
    rs = np.linspace(0.0, 3.0, 3001)
    dphi = lab_profile.phi(rs, 1)
    drho = lab_profile.rho(rs, 1)
    assert np.all(dphi >= -1e-12) and np.all(dphi <= 4.0 + 1e-12)
    assert np.all(drho >= -1e-15) and np.all(drho <= 0.05 * (1 + 1e-12))


# ---------------------------------------------------------------------------
# smoothness at the axis
# ---------------------------------------------------------------------------

def test_smoothness_default(reference_profile):
    report = bump.smoothness_check(reference_profile)
    assert report.passed, report.describe()


def test_smoothness_flags_linear_rho():
    # rho = 1 + r violates rho'(0) = 0 and nothing else it checks for rho
    prof = ProfilePair(rho=polynomial_radial([1.0, 1.0]),
                       phi=polynomial_radial([0.0, 4.0]))
    report = bump.smoothness_check(prof)
    flags = {c.name: c.passed for c in report.checks}
    assert not flags["rho'(0)"]
    assert flags["phi(0)"] and flags["phi'(0)"] and flags["rho(0)"]


def test_smoothness_trivial_phi():
    prof = ProfilePair(rho=constant_radial(1.0),
                       phi=polynomial_radial([0.0, 4.0]))
    assert bump.smoothness_check(prof).passed


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_profile_roundtrip(tmp_path, lab_profile):
    path = tmp_path / "profile.json"
    bump.save_profile(lab_profile, str(path))
    loaded = bump.load_profile(str(path))
    rs = np.linspace(0.0, 2.0, 101)
    assert np.allclose(loaded.rho(rs), lab_profile.rho(rs), atol=1e-12)
    assert np.allclose(loaded.phi(rs), lab_profile.phi(rs), atol=1e-12)
    assert loaded.r1 == pytest.approx(lab_profile.r1, abs=1e-15)


def test_profile_load_rejects_tampering(tmp_path, lab_profile):
    path = tmp_path / "profile.json"
    bump.save_profile(lab_profile, str(path))
    doc = json.loads(path.read_text())
    doc["phi"][10] += 0.01
    path.write_text(json.dumps(doc))
    with pytest.raises(ConstructionError, match="phi"):
        bump.load_profile(str(path))


def test_mass_is_pinned_by_phi_claims():
    # the head slope 4 forces total mass 4: phi' on the tail is 4 - mass,
    # so any other (even bump-feasible) mass fails the phi certification
    with pytest.raises(ConstructionError, match="phi"):
        bump.build_profile(0.02, mass=3.8)


def test_profile_roundtrip_nonstandard_params(tmp_path):
    # plateau and neck slope are the legitimate degrees of freedom and
    # must survive serialization via the stored construction parameters
    prof = bump.build_profile(0.02, plateau=(1 / 18, 0.2))
    path = tmp_path / "profile.json"
    bump.save_profile(prof, str(path))
    loaded = bump.load_profile(str(path))
    rs = np.linspace(0.0, 1.5, 64)
    assert np.allclose(loaded.phi(rs), prof.phi(rs), atol=1e-12)
    assert np.allclose(loaded.rho(rs), prof.rho(rs), atol=1e-12)
    assert loaded.neck_slope == prof.neck_slope
    assert loaded.r1 == pytest.approx(prof.r1, abs=1e-15)


def test_profile_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        bump.load_profile(str(tmp_path / "nope.json"))
