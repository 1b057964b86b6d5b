"""Closed-form curvature against hand-derived values and the forms oracle."""

import numpy as np
import pytest

from conekit.frame import (
    FrameDomainError,
    OracleStepError,
    _bracket_table,
    _koszul,
    curvature_from_forms,
    metric_eval,
    ricci_curve,
    ricci_diag,
)
from conekit.profiles import (
    ProfilePair,
    berger_profile,
    cone_profile,
    constant_radial,
    flat_profile,
    random_smooth_profile,
    round_profile,
    scale_phi,
)


def test_flat_cone_is_ricci_flat():
    ric = ricci_diag(flat_profile(), 2.0)
    assert np.abs(ric.as_array()).max() < 1e-12


def test_round_cylinder_ricci():
    ric = ricci_diag(round_profile(), 1.0)
    assert ric.as_array() == pytest.approx([0.0, 2.0, 2.0, 2.0], abs=1e-12)


def test_berger_cylinder_ricci():
    # constant fiber scale t: entries (0, 2t^2, 4 - 2t^2, 4 - 2t^2) by
    # direct substitution into the closed forms
    t = 0.7
    ric = ricci_diag(berger_profile(t), 1.0)
    expect = [0.0, 2 * t**2, 4 - 2 * t**2, 4 - 2 * t**2]
    assert ric.as_array() == pytest.approx(expect, abs=1e-12)
    # cross-check against the forms oracle
    _, orac = curvature_from_forms(berger_profile(t), 1.0, h=1e-5)
    assert orac.as_array() == pytest.approx(expect, abs=1e-9)


def test_r22_equals_r33_always():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = random_smooth_profile(rng)
        ric = ricci_diag(p, rng.uniform(0.3, 3.0))
        assert ric.r22 == ric.r33


def test_ricci_domain_error_names_factor():
    p = ProfilePair(rho=constant_radial(1.0),
                    phi=round_profile().phi.scaled(0.0))
    with pytest.raises(FrameDomainError, match="phi"):
        ricci_diag(p, 1.0)
    p = ProfilePair(rho=flat_profile().rho, phi=constant_radial(1.0))
    with pytest.raises(FrameDomainError, match="rho"):
        ricci_diag(p, 0.0)


def test_symbolic_ricci_by_cartan():
    # Independent of the Koszul route: solve Cartan's first structure
    # equation dth^a = -w^a_b ^ th^b for the 24 connection coefficients,
    # form O^a_b = dw^a_b + w^a_c ^ w^c_b and contract Ric_bd = O^a_b(e_a, e_d).
    # A 2-form is an antisymmetric 4x4 matrix F, meaning sum_{a<b} F[a,b] th^a ^ th^b.
    import sympy as sp

    r = sp.Symbol("r", positive=True)
    rho, phi = sp.Function("rho")(r), sp.Function("phi")(r)
    scale = [sp.Integer(1), rho * phi, rho, rho]  # th^a = scale[a] s^a, s^0 = dr
    zero2 = sp.zeros(4, 4)

    def basis(a):
        return [sp.Integer(int(a == b)) for b in range(4)]

    def wedge(x, y):
        return sp.Matrix(4, 4, lambda a, b: x[a] * y[b] - x[b] * y[a])

    # ds^a = -2 s^b ^ s^c for (a, b, c) cyclic in (1, 2, 3)
    dtheta = {0: zero2}
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        dtheta[a] = (sp.diff(scale[a], r) / scale[a] * wedge(basis(0), basis(a))
                     - 2 * scale[a] / (scale[b] * scale[c]) * wedge(basis(b), basis(c)))

    def d(form):
        # coefficients depend on r only, and dr = th^0
        return sum((sp.diff(f, r) * wedge(basis(0), basis(c)) + f * dtheta[c]
                    for c, f in enumerate(form)), zero2)

    omega = [[[sp.Integer(0)] * 4 for _ in range(4)] for _ in range(4)]
    unknowns = []
    for a in range(4):
        for b in range(a + 1, 4):
            w = list(sp.symbols(f"w{a}{b}_0:4"))
            unknowns += w
            omega[a][b] = w
            omega[b][a] = [-x for x in w]
    torsion = [dtheta[a] + sum((wedge(omega[a][b], basis(b)) for b in range(4)), zero2)
               for a in range(4)]
    equations = [t[i, j] for t in torsion for i in range(4) for j in range(i + 1, 4)]
    (solution,) = sp.solve(equations, unknowns, dict=True)
    omega = [[[sp.sympify(x).subs(solution) for x in w] for w in row] for row in omega]
    curv = [[d(omega[a][b]) + sum((wedge(omega[a][c], omega[c][b]) for c in range(4)), zero2)
             for b in range(4)] for a in range(4)]
    ric = sp.Matrix(4, 4, lambda b, e: sum(curv[a][b][a, e] for a in range(4)))

    P, P1, P2, F, F1, F2 = sp.symbols("rho rho1 rho2 phi phi1 phi2", positive=True)
    ric = (ric.subs({sp.diff(rho, r, 2): P2, sp.diff(phi, r, 2): F2})
              .subs({sp.diff(rho, r): P1, sp.diff(phi, r): F1})
              .subs({rho: P, phi: F}))
    # ricci_curve's closed forms
    mixed = P1 * F1 / (P * F)
    r00 = -(3 * P2 / P + F2 / F + 2 * mixed)
    r11 = -(P2 / P + F2 / F + 4 * mixed - 2 * F**2 / P**2 + 2 * P1**2 / P**2)
    r22 = -P2 / P - mixed + 4 / P**2 - 2 * F**2 / P**2 - 2 * P1**2 / P**2
    closed = (r00, r11, r22, r22)
    for i in range(4):
        assert sp.simplify(ric[i, i] - closed[i]) == 0
    off = [sp.simplify(ric[i, j]) for i in range(4) for j in range(4) if i != j]
    assert off == [0] * 12

    evaluate = sp.lambdify((P, P1, P2, F, F1, F2), closed, "numpy")
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = random_smooth_profile(rng)
        radii = rng.uniform(0.3, 3.0, 7)
        values = [p.rho(radii, k) for k in range(3)] + [p.phi(radii, k) for k in range(3)]
        assert np.allclose(np.array(evaluate(*values)), ricci_curve(p, radii),
                           rtol=1e-12, atol=1e-12)


# Connection coefficients c_ab of the Koszul connection, read off gamma:
# c01 = gamma[1,0,1], c02 = gamma[2,0,2], c03 = gamma[3,0,3],
# c12 = gamma[3,1,2], c13 = gamma[2,1,3], c23 = gamma[1,2,3].

def test_connection_forms_round():
    gamma = _koszul(_bracket_table(round_profile(), 1.0))
    assert gamma[1, 2, 3] == pytest.approx(1.0, abs=1e-14)   # 2/(rho phi) - phi/rho
    assert gamma[1, 0, 1] == 0.0                             # rho' = phi' = 0
    assert gamma[2, 0, 2] == 0.0 and gamma[3, 0, 3] == 0.0   # rho' = 0
    assert gamma[3, 1, 2] == pytest.approx(1.0, abs=1e-14)
    assert gamma[2, 1, 3] == -gamma[3, 1, 2]


def test_connection_forms_flat():
    gamma = _koszul(_bracket_table(flat_profile(), 5.0))
    assert gamma[1, 0, 1] == pytest.approx(0.2, abs=1e-15)
    assert gamma[2, 0, 2] == pytest.approx(0.2, abs=1e-15)
    assert gamma[3, 0, 3] == pytest.approx(0.2, abs=1e-15)


def test_connection_invariants_random():
    rng = np.random.default_rng(1)
    for _ in range(25):
        p = random_smooth_profile(rng)
        gamma = _koszul(_bracket_table(p, rng.uniform(0.3, 3.0)))
        assert gamma[2, 0, 2] == gamma[3, 0, 3]
        assert gamma[3, 1, 2] == -gamma[2, 1, 3]


_LEVI_CIVITA = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
                (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}


def _bracket_table_loop(p, r):
    """The bracket table entry by entry, the reference for the array form."""
    rho, rho1, phi, phi1 = p.rho(r), p.rho(r, 1), p.phi(r), p.phi(r, 1)
    s = [1.0, rho * phi, rho, rho]
    s1 = [0.0, rho1 * phi + rho * phi1, rho1, rho1]
    c = np.zeros((4, 4, 4))
    for a in range(1, 4):
        c[0, a, a] = -s1[a] / s[a]
        c[a, 0, a] = s1[a] / s[a]
        for b in range(1, 4):
            for k in range(1, 4):
                sign = _LEVI_CIVITA.get((a, b, k), 0)
                if sign:
                    c[a, b, k] = 2.0 * sign * s[k] / (s[a] * s[b])
    return c


def test_bracket_table_matches_loop():
    rng = np.random.default_rng(6)
    cases = [(round_profile(), 1.0), (flat_profile(), 5.0), (berger_profile(0.7), 2.0)]
    cases += [(random_smooth_profile(rng), rng.uniform(0.3, 3.0)) for _ in range(25)]
    for p, r in cases:
        assert np.array_equal(_bracket_table(p, r), _bracket_table_loop(p, r))


def test_koszul_selects_torsion_free_c23():
    # The bracket-derived connection in closed form.  Its c23 = gamma[1,2,3]
    # carries the torsion-free sign 2/(rho phi) - phi/rho; the opposite
    # sign of the middle term fails dw^i = w^j ^ w_j^i.
    rng = np.random.default_rng(2)
    cases = [(round_profile(), 1.0), (flat_profile(), 5.0)]
    cases += [(random_smooth_profile(rng), rng.uniform(0.4, 2.5)) for _ in range(25)]
    for p, r in cases:
        rho, rho1 = p.rho(r), p.rho(r, 1)
        phi, phi1 = p.phi(r), p.phi(r, 1)
        gamma = _koszul(_bracket_table(p, r))
        assert gamma[1, 0, 1] == pytest.approx(rho1 / rho + phi1 / phi, rel=1e-13)
        assert gamma[2, 0, 2] == gamma[3, 0, 3] == pytest.approx(rho1 / rho, rel=1e-13)
        assert gamma[3, 1, 2] == -gamma[2, 1, 3] == pytest.approx(phi / rho, rel=1e-13)
        assert gamma[1, 2, 3] == pytest.approx(2 / (rho * phi) - phi / rho, rel=1e-13)


def _closed_form_table(p, r):
    """Hand-derived coefficients of the six curvature forms (basis a<b)."""
    rho, rho1, rho2 = (p.rho(r, k) for k in range(3))
    phi, phi1, phi2 = (p.phi(r, k) for k in range(3))
    K = phi**2 / rho**2 - rho1**2 / rho**2 - rho1 * phi1 / (rho * phi)
    L = 4 / rho**2 - 3 * phi**2 / rho**2 - rho1**2 / rho**2
    prod2 = rho2 / rho + phi2 / phi + 2 * rho1 * phi1 / (rho * phi)
    t = np.zeros((6, 6))
    # rows: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3); cols same pair order
    t[0, 0] = prod2
    t[0, 5] = -2 * phi1 / rho
    t[1, 1] = rho2 / rho
    t[1, 4] = -phi1 / rho
    t[2, 2] = rho2 / rho
    t[2, 3] = phi1 / rho
    t[3, 3] = -K
    t[3, 2] = phi1 / rho
    t[4, 4] = -K
    t[4, 1] = -phi1 / rho
    t[5, 5] = -L
    t[5, 0] = -2 * phi1 / rho
    return t


def test_curvature_forms_coefficients():
    rng = np.random.default_rng(3)
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    for _ in range(20):
        p = random_smooth_profile(rng)
        r = rng.uniform(0.4, 2.5)
        R, _ = curvature_from_forms(p, r, h=1e-5)
        # row (j, k) holds the coefficients of O_j^k on the basis w^a ^ w^b
        table = np.array([[R[a, b, j, k] for a, b in pairs] for j, k in pairs])
        expect = _closed_form_table(p, r)
        assert np.abs(table - expect).max() < 1e-8


def test_curvature_forms_antisymmetry_and_bianchi():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = random_smooth_profile(rng)
        r = rng.uniform(0.4, 2.5)
        R, _ = curvature_from_forms(p, r, h=1e-5)
        # 2-forms in (p, q) by construction; so(4)-valued in (j, k) and the
        # first Bianchi identity only up to the finite-difference error
        assert np.array_equal(R, -R.transpose(1, 0, 2, 3))
        assert np.abs(R + R.transpose(0, 1, 3, 2)).max() < 1e-8
        cyclic = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
        assert np.abs(cyclic).max() < 1e-8


def test_oracle_flat_case():
    R, ric = curvature_from_forms(flat_profile(), 2.0, h=1e-4)
    assert np.abs(ric.as_array()).max() < 1e-8
    assert np.abs(R).max() < 1e-8


def test_oracle_round_case():
    _, ric = curvature_from_forms(round_profile(), 1.0, h=1e-4)
    assert ric.as_array() == pytest.approx([0, 2, 2, 2], abs=1e-6)


def _assert_ricci_diagonal(R):
    # the full contraction Ric[l, m] = sum_k O_k^l(e_m, e_k); the certificate
    # reads only its diagonal, so the off-diagonal entries must vanish
    ric = np.einsum("mkkl->lm", R)
    assert np.abs(ric - np.diag(np.diag(ric))).max() < 1e-9


def test_oracle_agreement_sweep():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = random_smooth_profile(rng)
        r = rng.uniform(0.3, 3.0)
        closed = ricci_diag(p, r).as_array()
        R, orac = curvature_from_forms(p, r, h=1e-5, check_step=False)
        assert np.allclose(orac.as_array(), closed, rtol=1e-6, atol=1e-9)
        _assert_ricci_diagonal(R)


def test_oracle_on_constructed_profile(reference_profile):
    # The connection coefficient phi'/phi behaves like 1/r at the axis, so
    # the finite-difference truncation grows like h^2/r^4 there; the step
    # and tolerances below respect that (everything is far tighter once
    # the bump region is past).
    r1 = reference_profile.r1
    for radii, atol in (
        (np.linspace(0.05, r1 + 1 / 16, 9), 5e-7),
        (np.linspace(r1 + 1 / 16 + 1e-3, r1 + 0.25, 9), 3e-8),
        (np.linspace(r1 + 0.25 + 1e-3, 3.0, 5), 1e-12),
    ):
        for r in radii:
            closed = ricci_diag(reference_profile, float(r)).as_array()
            R, orac = curvature_from_forms(reference_profile, float(r), h=1e-6,
                                           check_step=False)
            assert np.allclose(orac.as_array(), closed, rtol=1e-6, atol=atol)
            _assert_ricci_diagonal(R)


def test_oracle_step_too_large_is_reported():
    rng = np.random.default_rng(6)
    p = random_smooth_profile(rng)
    with pytest.raises(OracleStepError):
        curvature_from_forms(p, 2.0, h=0.5)
    with pytest.raises(FrameDomainError):
        curvature_from_forms(p, 0.05, h=0.1)


def test_scaling_covariance():
    # (rho, phi) -> (lam*rho(r/lam), phi(r/lam)) at lam*r scales Ricci by lam^-2
    rng = np.random.default_rng(7)
    for lam in (0.5, 2.0, 3.7):
        for _ in range(10):
            p = random_smooth_profile(rng)
            r = rng.uniform(0.5, 2.0)
            base = ricci_diag(p, r).as_array()
            scaled = ricci_diag(p.rescale(lam), lam * r).as_array()
            assert np.allclose(scaled, base / lam**2, rtol=1e-12, atol=1e-12)


def test_metric_eval():
    rng = np.random.default_rng(8)
    p = random_smooth_profile(rng)
    assert metric_eval(p, 1.3, (1, 0, 0, 0)) == 1.0
    assert metric_eval(round_profile(), 1.0, (0, 1, 1, 1)) == pytest.approx(3.0)
    squashed = ProfilePair(rho=constant_radial(2.0), phi=constant_radial(0.5))
    assert metric_eval(squashed, 1.0, (0, 1, 0, 0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        metric_eval(p, 1.0, (np.inf, 0, 0, 0))


_CONTRACT_PROFILES = {
    "flat": lambda built: flat_profile(),
    "round": lambda built: round_profile(),
    "berger": lambda built: berger_profile(0.7),
    "cone": lambda built: cone_profile(0.3),
    "random": lambda built: random_smooth_profile(np.random.default_rng(9)),
    "built": lambda built: built,
    "rescaled": lambda built: built.rescale(0.5),
    "scaled_phi": lambda built: scale_phi(built, 2.0),
}


@pytest.mark.parametrize("name", sorted(_CONTRACT_PROFILES))
def test_radial_function_contract(name, reference_profile):
    # every order returns a Python float for a scalar radius and a float64
    # array of the radius' shape for arrays, constants included
    p = _CONTRACT_PROFILES[name](reference_profile)
    radii = np.linspace(0.05, 2.5, 6)
    for fn in (p.rho, p.phi):
        for order in range(4):
            assert type(fn(0.3, order)) is float
            for r in (radii, radii.reshape(2, 3)):
                out = fn(r, order)
                assert isinstance(out, np.ndarray)
                assert out.dtype == np.float64 and out.shape == r.shape
