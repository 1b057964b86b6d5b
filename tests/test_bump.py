"""Bump construction, quadrature tables, and profile certification."""

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from conekit import bump
from conekit.bump import ConstructionError
from conekit.profiles import ProfilePair, constant_radial

from analytic import polynomial_radial


@pytest.fixture(scope="module")
def eta():
    return bump.make_eta()


@pytest.fixture(scope="module")
def table(eta):
    return bump.build_table(eta)


def idealized_step_bump(amplitude=32.0, window=(1.0 / 16.0, 3.0 / 16.0)):
    """Discontinuous box bump; exact closed-form integrals make it a quadrature oracle.

    Not a valid smooth eta (it is not even continuous) and never certified.
    """
    a, b = window

    def eta(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), amplitude, 0.0)

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return bump.BumpSpec(eta=eta, eta_prime=zero, segments=(0.0, a, b, 0.25))


# ---------------------------------------------------------------------------
# the bump itself
# ---------------------------------------------------------------------------

def test_eta_invariants(eta):
    xs = np.linspace(-0.1, 0.35, 2001)
    vals = eta.eta(xs)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 64.0)
    assert np.all(vals[(xs < 0) | (xs > 0.25)] == 0.0)
    window = np.linspace(1 / 16, 3 / 16, 301)
    assert np.all(eta.eta(window) >= 16.0)
    tail = np.linspace(1 / 8, 1 / 4, 301)
    assert np.all(eta.eta_prime(tail) <= 1e-12)


def test_eta_mass(eta, table):
    assert table.mass == pytest.approx(4.0, abs=1e-10)
    # independent adaptive quadrature
    val, err = integrate.quad(eta.eta, 0.0, 0.25, points=list(eta.segments),
                              limit=200)
    assert val == pytest.approx(4.0, abs=1e-9)


def test_eta_derivative_is_consistent(eta):
    xs = np.linspace(0.005, 0.245, 97)
    h = 1e-6
    fd = (eta.eta(xs + h) - eta.eta(xs - h)) / (2 * h)
    assert np.abs(fd - eta.eta_prime(xs)).max() < 1e-4


def test_eta_plateau_amplitude(eta):
    # mass 4 over effective width 3/16 forces amplitude 64/3; both smooth
    # steps are exactly 1 at the plateau midpoint, so eta equals it there
    assert eta.eta(0.125) == pytest.approx(64.0 / 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# quadrature table
# ---------------------------------------------------------------------------

def test_table_monotone_antiderivative(table):
    assert np.all(np.diff(table.first_antiderivative) >= 0.0)
    assert np.all(np.diff(table.grid) > 0.0)


@pytest.mark.parametrize("order", [bump.ORDER, bump.ORDER // 2])
def test_running_totals_match_the_panel_loop(eta, table, order):
    # the reference adds each panel's terms one at a time, in panel order;
    # the cumulative sums must reproduce every bit of it
    grid = table.grid
    a, b = grid[:-1], grid[1:]
    cells = bump._gl(eta.eta, a, b, order)
    moments = bump._gl(lambda s: (b[:, None] - s) * eta.eta(s), a, b, order)
    e, p = np.zeros(len(grid)), np.zeros(len(grid))
    for i in range(len(grid) - 1):
        e[i + 1] = e[i] + cells[i]
        p[i + 1] = p[i] + e[i] * (b[i] - a[i]) + moments[i]
    got = bump._cumulative(eta, grid, order)
    assert np.array_equal(got[0], e) and np.array_equal(got[1], p)
    if order == bump.ORDER:
        assert np.array_equal(table.first_antiderivative, e)
        assert np.array_equal(table.second_antiderivative, p)


def test_table_rejects_a_jump_inside_a_panel():
    # the indicator of [0, 0.1] jumps inside a panel of its one segment, so
    # the two quadrature orders disagree there
    def eta(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x <= 0.1), 1.0, 0.0)

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    spec = bump.BumpSpec(eta=eta, eta_prime=zero, segments=(0.0, 0.25))
    with pytest.raises(ConstructionError, match=r"orders 24 and 12 differ"):
        bump.build_table(spec)


def test_table_against_adaptive_quadrature(eta, table):
    pts = list(eta.segments)
    for x in np.linspace(0.01, 0.24, 12):
        ref, _ = integrate.quad(eta.eta, 0.0, x, points=pts, limit=200)
        assert table.antiderivative(x) == pytest.approx(ref, abs=1e-11)
        ref2, _ = integrate.quad(lambda s: (x - s) * eta.eta(s), 0.0, x,
                                 points=pts, limit=200)
        assert table.antiderivative2(x) == pytest.approx(ref2, abs=1e-11)


def test_antiderivatives_do_not_depend_on_the_batch(table):
    # a point gets the same bits alone, in a batch and in any order
    x = np.linspace(table.grid[0] - 0.1, table.grid[-1] + 0.1, 1001)
    for antiderivative in (table.antiderivative, table.antiderivative2):
        whole = antiderivative(x)
        assert np.array_equal(whole, [antiderivative(v) for v in x])
        assert np.array_equal(whole, antiderivative(x[::-1])[::-1])


def _unmasked(table, x):
    """Both antiderivatives with the partial panel integrated at every point
    clipped to the grid, the in-table formula then overridden outside it."""
    x = np.asarray(x, dtype=float)
    lo, hi = table.grid[0], table.grid[-1]
    xc = np.clip(x, lo, hi)
    idx = np.clip(np.searchsorted(table.grid, xc, side="right") - 1, 0, len(table.grid) - 2)
    first = table.first_antiderivative[idx] + bump._gl(
        table.bump.eta, table.grid[idx], xc, bump.ORDER)
    first = np.where(x >= hi, table.mass, np.where(x <= lo, 0.0, first))
    a = table.grid[idx]
    second = (table.second_antiderivative[idx] + table.first_antiderivative[idx] * (xc - a)
              + bump._gl(lambda s: (np.expand_dims(xc, -1) - s) * table.bump.eta(s),
                         a, xc, bump.ORDER))
    end = table.second_antiderivative[-1] + table.mass * (x - hi)
    second = np.where(x >= hi, end, np.where(x <= lo, 0.0, second))
    return first, second


def test_out_of_table_points_skip_the_partial_panel(table):
    # the partial panel is integrated only strictly inside the grid, and every
    # value keeps its bits: at interior points, at both grid ends, outside on
    # either side, for 0-d scalars and for mixed arrays of any length
    lo, hi = table.grid[0], table.grid[-1]
    rng = np.random.default_rng(3)
    points = [0.1, table.grid[7], lo, hi, lo - 0.2, hi + 0.5]
    mixed = [rng.uniform(lo - 0.1, hi + 0.1, size=m) for m in (1, 2, 3, 5, 13, 64, 257)]
    mixed[-1][::7] = lo
    mixed[-1][3::11] = hi
    for x in [*points, *(np.asarray(p) for p in points), *mixed, np.reshape(mixed[-2], (8, 8))]:
        first, second = _unmasked(table, x)
        got = table.antiderivative(x), table.antiderivative2(x)
        assert np.ndim(got[0]) == np.ndim(got[1]) == np.ndim(x)
        assert np.array_equal(got[0], first) and np.array_equal(got[1], second)
    calls = []
    real = table.bump.eta

    def counting(s):
        calls.append(np.size(s))
        return real(s)
    outside = np.array([lo - 1.0, lo, hi, hi + 2.0])
    table_counting = replace(table, bump=replace(table.bump, eta=counting))
    table_counting.antiderivative(outside)
    table_counting.antiderivative2(outside)
    assert not any(calls)


# ---------------------------------------------------------------------------
# r1
# ---------------------------------------------------------------------------

def test_step_bump_mass_is_exact():
    table = bump.build_table(idealized_step_bump())
    assert table.mass == 4.0  # 32 * 1/8, exactly


def test_r1_of_step_bump_is_exact():
    # (1/4) * 32 * int_{1/16}^{3/16} (1/4 - s) ds = (1/4) * 32 * (1/64)
    step = idealized_step_bump()
    assert bump.compute_r1(step) == pytest.approx(0.125, abs=1e-14)


def test_r1_of_default_bump(eta):
    # the default bump is symmetric about 1/8, so r1 = mass * (1/8) / 4
    assert bump.compute_r1(eta) == pytest.approx(0.125, abs=1e-12)


def test_r1_bounds(eta):
    r1 = bump.compute_r1(eta)
    assert 1.0 / 32.0 <= r1 < 0.25       # asserted bound
    assert r1 >= 1.0 / 16.0 - 1e-12      # observed stronger bound from the floor


def test_r1_degenerate_bump():
    dead = idealized_step_bump(amplitude=0.0)
    with pytest.raises(ConstructionError, match=r"r1 = 0\.0 outside \(0, 1/4\)"):
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


def test_phi_tail_claim_is_the_mass_claim(eta):
    # on the tail phi' = 4 - mass, so a bump of mass 4.4 fails the slope-0
    # claim while the head slope, which does not see the mass, still holds
    heavy = replace(eta, eta=lambda x: 1.1 * eta.eta(x),
                    eta_prime=lambda x: 1.1 * eta.eta_prime(x))
    table = bump.build_table(heavy)
    assert table.mass == pytest.approx(4.4, abs=1e-10)
    with pytest.raises(ConstructionError, match=r"phi' = 0 beyond 1/4 \+ r1"):
        bump.make_phi(heavy, bump.compute_r1(heavy), table)


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


@pytest.mark.parametrize("claim, build", [
    (r"rho = 1 on \[0, r1 \+ 1/16\]",
     lambda eta, table: bump.make_rho(eta, np.nan, 0.05, table)),
    (r"phi' = 4 on \[0, r1\]", lambda eta, table: bump.make_phi(eta, np.nan, table)),
    (r"range: eta >= 0", lambda eta, table: bump._certify_eta(replace(
        eta, eta=lambda x: np.where((x > 0.1) & (x < 0.11), np.nan, eta.eta(x))))),
], ids=["rho", "phi", "eta"])
def test_a_nan_sample_fails_its_claim(eta, table, claim, build):
    # a NaN r1 makes the profiles NaN, and the holed bump is NaN on part of
    # its plateau; each claim reduces its samples to NaN, which fails it,
    # with no warning on the way under the suite's filterwarnings = error
    with pytest.raises(ConstructionError, match=claim + r" \(measured nan, bound 0,"):
        build(eta, table)


def test_rho_rejects_bad_slope(eta, table):
    r1 = bump.compute_r1(eta)
    with pytest.raises(ValueError, match="neck_slope"):
        bump.make_rho(eta, r1, -1.0, table)


def test_build_profile_rejects_nan_slope():
    # NaN fails every comparison, so the slope check asks for 0 < c
    with pytest.raises(ValueError, match="neck_slope must be positive"):
        bump.build_profile(float("nan"))


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
    # each check compares at its own tolerance; the header restates none
    assert report.describe().splitlines()[0] == "PASS axis smoothness (grid 5)"


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


def test_profile_roundtrip_nonstandard_params(tmp_path):
    # the neck slope is the one degree of freedom and must survive
    # serialization via the stored construction block
    prof = bump.build_profile(0.02)
    path = tmp_path / "profile.json"
    bump.save_profile(prof, str(path))
    loaded = bump.load_profile(str(path))
    rs = np.linspace(0.0, 1.5, 64)
    assert np.allclose(loaded.phi(rs), prof.phi(rs), atol=1e-12)
    assert np.allclose(loaded.rho(rs), prof.rho(rs), atol=1e-12)
    assert loaded.neck_slope == prof.neck_slope
    assert loaded.r1 == pytest.approx(prof.r1, abs=1e-15)
    with pytest.raises(ValueError, match="only constructed profiles"):
        bump.save_profile(prof.rescale(0.5), str(path))


def test_profile_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        bump.load_profile(str(tmp_path / "nope.json"))
