"""Exact rational obstruction arithmetic."""

import re
from fractions import Fraction

import numpy as np
import pytest

from conekit.obstruction import (
    GROUPS,
    TopologicalData,
    betti_constraints,
    hitchin_check,
)


def test_eta_table():
    assert GROUPS["Q8"].eta_magnitude == Fraction(3, 4)
    assert GROUPS["BinaryIcosahedral"].eta_magnitude == Fraction(361, 180)
    assert "Lens44" not in GROUPS


def test_group_table_consistency():
    assert GROUPS["Q8"].order == 8
    assert GROUPS["BinaryIcosahedral"].order == 120


def test_hitchin_contradiction_q8():
    data = TopologicalData(chi=Fraction(1), tau=Fraction(0))
    verdict = hitchin_check(data, GROUPS["Q8"])
    assert verdict.lhs == Fraction(7, 4)
    assert verdict.rhs == Fraction(9, 4)
    assert not verdict.consistent
    assert "contradiction" in verdict.describe()


def test_hitchin_contradiction_binary_icosahedral():
    data = TopologicalData(chi=Fraction(1), tau=Fraction(0))
    verdict = hitchin_check(data, GROUPS["BinaryIcosahedral"])
    assert verdict.lhs == Fraction(2) - Fraction(1, 60)
    assert verdict.rhs == Fraction(361, 60)
    assert not verdict.consistent


def test_hitchin_sign_choice_irrelevant_for_zero_signature():
    # the check fixes the eta sign at +1; at tau = 0 either sign gives 3|eta|
    data = TopologicalData(chi=Fraction(1), tau=Fraction(0))
    eta = GROUPS["Q8"].eta_magnitude
    rhs = hitchin_check(data, GROUPS["Q8"]).rhs
    assert rhs == 3 * abs(data.tau + eta) == 3 * abs(data.tau - eta)


def test_hitchin_sign_is_pinned_by_kronheimer_resolution():
    # Kronheimer's ALE resolution of C^2/Q8 (rank 4: chi = 5, tau = -4)
    # meets the inequality with equality only under the +1 sign
    verdict = hitchin_check(TopologicalData(chi=Fraction(5), tau=Fraction(-4)), GROUPS["Q8"])
    assert verdict.lhs == verdict.rhs == Fraction(39, 4)


def test_hitchin_consistent_for_large_euler_number():
    data = TopologicalData(chi=Fraction(10), tau=Fraction(0))
    assert hitchin_check(data, GROUPS["Q8"]).consistent


def test_results_are_exact_fractions():
    verdict = hitchin_check(TopologicalData(chi=Fraction(1), tau=Fraction(0)),
                            GROUPS["BinaryIcosahedral"])
    assert isinstance(verdict.lhs, Fraction)
    assert isinstance(verdict.rhs, Fraction)


def test_betti_constraints():
    data = betti_constraints(0)
    assert data.chi == 1 and data.tau == 0
    assert betti_constraints(2).chi == -1
    with pytest.raises(ValueError, match="b3 must be nonnegative"):
        betti_constraints(-1)


@pytest.mark.parametrize("b3", [2.5, 2.0, float("nan"), Fraction(1, 2), True], ids=str)
def test_betti_constraints_rejects_a_non_integer_b3(b3):
    # 2.5 once gave chi = -3/2, which no filling has, and True chi = 0
    with pytest.raises(ValueError, match="an integer"):
        betti_constraints(b3)


@pytest.mark.parametrize("field", ["chi", "tau"])
@pytest.mark.parametrize("value", [0.1, 0.5, Fraction(1, 2), True], ids=str)
def test_topological_data_rejects_a_non_integer(field, value):
    # 0.1 once became the Fraction of its binary expansion
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        TopologicalData(**{"chi": 1, "tau": 0, field: value})


@pytest.mark.parametrize("value", [Fraction(5), np.int64(3), -4], ids=str)
def test_topological_data_takes_integers_exactly(value):
    data = TopologicalData(chi=value, tau=value)
    assert data.chi == data.tau == int(value)
    assert type(data.chi) is type(data.tau) is Fraction

