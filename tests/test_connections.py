"""The generic Levi-Civita solver on coframes that do not come from sp(n+1):
Milnor's left-invariant metrics on 3-dimensional unimodular Lie groups, and
the structures the solver must reject.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistorflow.coeff import ONE, Coeff
from twistorflow.connections import (NonMetricStructure, coframe_expansion, levi_civita,
                                     ricci_from_gamma, ricci_matrix)
from twistorflow.forms import DerivativeRules, OneForm, TwoForm, curvature


def _unit_coframe(m: int) -> list[OneForm]:
    return [OneForm.basis(K, ONE) for K in range(m)]


def _rules(*d_basis: dict) -> DerivativeRules:
    """Jet-free rules: d e^k = sum of c e^i ^ e^j over the (i, j): c of d_basis[k]."""
    return DerivativeRules([TwoForm.build((i, j, Coeff.rational(c)) for (i, j), c in d.items())
                            for d in d_basis])


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
def test_levi_civita_gives_milnors_ricci_on_unimodular_groups(ls):
    # orthonormal e_1, e_2, e_3 with [e_2, e_3] = l_1 e_1, [e_3, e_1] = l_2 e_2
    # and [e_1, e_2] = l_3 e_3 (Milnor, Adv. Math. 21, 1976, section 4):
    # Ric(e_1) = 2 mu_2 mu_3 and its cyclic versions, mu_i = (l_1+l_2+l_3)/2 - l_i,
    # and Ric is diagonal in that frame
    l1, l2, l3 = ls
    rules = _rules({(1, 2): -l1}, {(0, 2): l2}, {(0, 1): -l3})
    coframe = _unit_coframe(3)
    gamma = levi_civita(coframe, rules)
    half = Fraction(l1 + l2 + l3, 2)
    mu = [half - l for l in ls]
    want = [[Coeff.rational(2 * mu[(i + 1) % 3] * mu[(i + 2) % 3]) if i == j else Coeff()
             for j in range(3)] for i in range(3)]
    assert ricci_from_gamma(gamma, rules) == want
    assert ricci_matrix(curvature(gamma, rules), coframe_expansion(coframe, 3)) == want


# so(3): d e^0 = e^1 ^ e^2, d e^1 = e^2 ^ e^0, d e^2 = e^0 ^ e^1
_SO3 = ({(1, 2): 1}, {(0, 2): -1}, {(0, 1): 1})


def test_a_forced_part_that_is_not_skew_is_rejected():
    # over so(3) the coframe (e^0, e^1) leaves e^2 uncovered: Gamma^0_1 = e^2
    # is forced, and the curvature is that of the unit 2-sphere
    rules = _rules(*_SO3)
    coframe = _unit_coframe(2)
    assert not coframe_expansion(coframe, 3)[2].coeffs
    gamma = levi_civita(coframe, rules)
    assert gamma.entries[0][1] == OneForm.basis(2, ONE)
    assert gamma.entries[1][0] == -gamma.entries[0][1]
    one = Coeff.rational(1)
    assert ricci_from_gamma(gamma, rules) == [[one, Coeff()], [Coeff(), one]]
    # d theta^1 = + e^0 ^ e^2 forces Gamma^1_0 = +e^2 next to Gamma^0_1 = e^2
    rules = _rules(_SO3[0], {(0, 2): 1}, _SO3[2])
    with pytest.raises(NonMetricStructure, match=r"^forced part not skew at rows 0,1, extra 2$"):
        levi_civita(coframe, rules)


def test_an_extra_wedge_extra_component_is_rejected():
    # over the coframe (e^0), d theta^0 = e^1 ^ e^2 pairs two uncovered forms
    rules = _rules(*_SO3)
    with pytest.raises(ValueError, match=r"^d theta\^0 has an extra\^extra component") as info:
        levi_civita(_unit_coframe(1), rules)
    assert info.type is ValueError
