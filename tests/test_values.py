"""What the engine's value classes keep: constructor keywords and defaults,
validation, and equality and hashing where a caller relies on them."""

import inspect
import re
from fractions import Fraction

import pytest

from twistorflow.canonical import MetricParams, RicciDiag
from twistorflow.coeff import ONE, Coeff
from twistorflow.flow import CANONICAL, Z, FlowState, Trajectory
from twistorflow.forms import DerivativeRules, FormMatrix, OneForm, TwoForm
from twistorflow.liealg import CurvatureTensor, LieAlgebraSpec, StructureConstants
from twistorflow.pointcurv import PointGeometry

REQUIRED = inspect.Parameter.empty

# each constructor's parameters in order, with their defaults; None stands
# for a fresh empty dict where the class says so below
SIGNATURES = [
    (MetricParams, [("n", REQUIRED), ("lambda2", None), ("rho", Fraction(1)),
                    ("s_ratio", Fraction(1))]),
    (RicciDiag, [("fiber", REQUIRED), ("base", REQUIRED), ("off_diagonal_zero", REQUIRED)]),
    (OneForm, [("coeffs", None)]),
    (TwoForm, [("coeffs", None)]),
    (DerivativeRules, [("d_basis", REQUIRED), ("jet_rules", None)]),
    (FormMatrix, [("dim", REQUIRED), ("entries", REQUIRED)]),
    (LieAlgebraSpec, [("name", REQUIRED), ("n", REQUIRED), ("basis", REQUIRED),
                      ("labels", REQUIRED)]),
    (StructureConstants, [("dim", REQUIRED), ("c", None)]),
    (CurvatureTensor, [("n", REQUIRED), ("components", REQUIRED)]),
    (PointGeometry, [("rules", REQUIRED), ("coframe", REQUIRED), ("gamma", REQUIRED),
                     ("extras_expansion", REQUIRED)]),
    (FlowState, [("t", REQUIRED), ("rho", REQUIRED), ("mu", REQUIRED), ("family", REQUIRED),
                 ("n", REQUIRED)]),
    (Trajectory, [("t", REQUIRED), ("rho", REQUIRED), ("mu", REQUIRED),
                  ("invariant_series", REQUIRED), ("family", REQUIRED), ("n", REQUIRED),
                  ("events", None)]),
]


@pytest.mark.parametrize("cls, params", SIGNATURES, ids=[c.__name__ for c, _ in SIGNATURES])
def test_constructor_keywords_and_defaults(cls, params):
    got = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert got == params
    # every parameter is also a keyword, stored under its own name
    values = {name: object() for name, _ in params}
    if cls is MetricParams:
        values = {"n": 3, "lambda2": Fraction(1, 2), "rho": Fraction(2), "s_ratio": None}
    elif cls is FlowState:
        values = {"t": 0.5, "rho": 1.0, "mu": 0.5, "family": Z, "n": 2}
    obj = cls(**values)
    assert {name: getattr(obj, name) for name in values} == values


def test_empty_dict_defaults_are_fresh():
    assert OneForm().coeffs == {} and OneForm().coeffs is not OneForm().coeffs
    assert TwoForm().coeffs == {} and TwoForm().coeffs is not TwoForm().coeffs
    assert DerivativeRules([]).jet_rules == {}
    assert DerivativeRules([]).jet_rules is not DerivativeRules([]).jet_rules
    assert StructureConstants(3).c == {} and StructureConstants(3).c is not StructureConstants(3).c
    assert Trajectory([], [], [], [], Z, 2).events is None


def test_metric_params_are_equal_hashable_and_immutable():
    p = MetricParams(2)
    assert p == MetricParams(2, None, Fraction(1), Fraction(1))
    assert hash(p) == hash(MetricParams(2))
    assert len({p, MetricParams(2), MetricParams(2, lambda2=Fraction(1, 3))}) == 2
    assert p != MetricParams(3) and p != MetricParams(2, s_ratio=None)
    assert p.__eq__((2, None, Fraction(1), Fraction(1))) is NotImplemented
    with pytest.raises(AttributeError):
        p.n = 3
    assert p.n == 2


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 1}, "paper setting requires n > 1"),
    ({"n": 2, "lambda2": Fraction(0)}, "lambda^2 must be positive"),
    ({"n": 2, "rho": Fraction(-1)}, "rho must be positive"),
    ({"n": 2, "s_ratio": Fraction(0)}, "S/S~ must be positive"),
    # the checks run in this order
    ({"n": 1, "lambda2": Fraction(-1), "rho": Fraction(-1)}, "paper setting requires n > 1"),
    ({"n": 2, "lambda2": Fraction(-1), "rho": Fraction(-1)}, "lambda^2 must be positive"),
])
def test_metric_params_validation_messages(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MetricParams(**kwargs)


def test_ricci_diag_compares_by_value():
    half = Coeff.rational(Fraction(1, 2))
    assert RicciDiag(ONE, half, True) == RicciDiag(ONE, half, True)
    assert RicciDiag(ONE, half, True) != RicciDiag(ONE, half, False)
    assert RicciDiag(ONE, half, True) != RicciDiag(half, ONE, True)


def test_flow_state_compares_by_value_and_is_unhashable():
    s = FlowState(0.0, 1.0, 0.5, Z, 2)
    assert s == FlowState(0.0, 1.0, 0.5, Z, 2)
    assert s != FlowState(0.0, 1.0, 0.5, CANONICAL, 2)
    assert s != FlowState(0.0, 1.0, 0.5, Z, 3)
    assert s != FlowState(0.1, 1.0, 0.5, Z, 2)
    with pytest.raises(TypeError):
        hash(s)


def test_form_matrix_compares_by_entries():
    a = FormMatrix(2, [[OneForm(), OneForm({0: ONE})], [OneForm({1: ONE}), OneForm()]])
    b = FormMatrix(2, [[OneForm({}), OneForm({0: ONE})], [OneForm({1: ONE}), OneForm({})]])
    assert a == b
    assert a != FormMatrix.zero(2)
    assert FormMatrix.zero(2) != FormMatrix.zero(3)
    assert FormMatrix.zero(2) != FormMatrix.zero(2, two=True)


def test_forms_compare_within_their_degree_only():
    assert OneForm() == OneForm({})
    assert TwoForm() == TwoForm({})
    assert OneForm().__eq__(TwoForm()) is NotImplemented
    assert TwoForm().__eq__(OneForm()) is NotImplemented
    assert OneForm() != TwoForm()
    with pytest.raises(TypeError):
        hash(OneForm())

