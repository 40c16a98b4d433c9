"""Sign identities (exact) and the verification suite harness."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaforge import verify
from thetaforge.exceptions import GenericityViolated, ValidationError
from thetaforge.quadform import ErrorFunctionFrame
from thetaforge.verify import (CheckReport, SignLemmaInstance, run_suite,
                               sign_identity_specialized, sign_lemma_sum)


def test_lemma_base_case_n1():
    for g in (Fraction(1), Fraction(3, 7), Fraction(12)):
        inst = SignLemmaInstance(G=((g,),), v=(Fraction(1),))
        assert sign_lemma_sum(inst) == 0


def test_lemma_identity_gram_n2():
    # terms over S in {emptyset, {0}, {1}, {0,1}}: +1, -1, -1, +1
    inst = SignLemmaInstance(G=((1, 0), (0, 1)), v=(1, 1))
    assert sign_lemma_sum(inst) == 0


def test_lemma_rejects_non_positive_definite():
    with pytest.raises(ValidationError):
        SignLemmaInstance(G=((1, 2), (2, 1)), v=(1, 1))


def test_lemma_rejects_degenerate_sign_argument():
    with pytest.raises(GenericityViolated):
        SignLemmaInstance(G=((1, 0), (0, 1)), v=(0, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=6, max_size=6),
       st.lists(st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                             max_denominator=6), min_size=3, max_size=3))
def test_lemma_zero_on_random_instances(lower, v):
    """G = L L^T + I is exactly positive definite for any integer L."""
    L = [[Fraction(lower[0]), 0, 0],
         [Fraction(lower[1]), Fraction(lower[2]), 0],
         [Fraction(lower[3]), Fraction(lower[4]), Fraction(lower[5])]]
    G = [[sum(L[i][k] * L[j][k] for k in range(3)) + (1 if i == j else 0)
          for j in range(3)] for i in range(3)]
    try:
        inst = SignLemmaInstance(G=tuple(tuple(row) for row in G), v=tuple(v))
    except GenericityViolated:
        return
    assert sign_lemma_sum(inst) == 0


def test_specialized_identity_frame():
    frame = ErrorFunctionFrame.from_m(np.eye(2))
    u = np.array([0.375, -0.8125])  # exact binary fractions
    for N in ((0,), (1,), (0, 1)):
        assert sign_identity_specialized(frame, u, N) == 0


def test_specialized_random_r3_all_windows():
    frame = ErrorFunctionFrame.from_m(np.array([[1.0, 0.5, 0.25],
                                                [0.0, 1.0, -0.5],
                                                [0.25, 0.0, 1.0]]))
    u = np.array([0.625, -0.375, 0.8125])
    windows = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    for N in windows:
        assert sign_identity_specialized(frame, u, N) == 0


def test_specialized_rejects_on_wall():
    frame = ErrorFunctionFrame.from_m(np.eye(2))
    with pytest.raises(GenericityViolated):
        sign_identity_specialized(frame, np.array([0.0, 1.0]), (0, 1))


def test_check_report_pass_iff_residual_within_tolerance():
    assert CheckReport(name="x", inputs_digest="d", residual=1e-9,
                       tolerance=1e-8, passed=True).passed
    rep = CheckReport(name="x", inputs_digest="d", residual=2e-8,
                      tolerance=1e-8, passed=False)
    assert rep.passed == (rep.residual <= rep.tolerance)


def test_fast_suite_passes_and_is_deterministic():
    first = run_suite("fast", seed=0)
    assert all(r.passed for r in first)
    names = [r.name for r in first]
    assert names == sorted(names)
    second = run_suite("fast", seed=0)
    assert [(r.name, r.residual, r.inputs_digest) for r in first] == \
           [(r.name, r.residual, r.inputs_digest) for r in second]


def test_theta_enum_box_matches_the_filtered_box():
    # -Q_- = [[6, 8], [8, 12]] on the hyperbolic pair: the ellipsoid of
    # radius 3 holds the origin and +-(1,-1), +-(2,-1), +-(1,0), +-(3,-2),
    # +-(2,-2), the eleven points of the box with S[m] <= 9
    assert verify._check_theta_enum_box(None, False) == (0.0, 0.0, "11 points")


def test_suite_rejects_unknown_level():
    with pytest.raises(ValidationError):
        run_suite("medium", seed=0)

