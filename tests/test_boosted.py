"""Boosted error functions on indefinite forms."""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.special import erf

from thetaforge.boosted import (BoostedArgument, ConeMatrix, boosted_bound_check,
                                boosted_decompositions, boosted_shadow, build_cone,
                                eval_E_boosted, eval_M_boosted, vigneras_residual_boosted)
from thetaforge.errfn import ErrFnArgument, eval_E, eval_M, sum_terms
from thetaforge.exceptions import NotTimelike
from thetaforge.quadform import BilinearForm, ErrorFunctionFrame

A11 = BilinearForm.from_rows([[1, 0], [0, -1]])
A22 = BilinearForm.from_rows([[2, 0, 1, 0], [0, 1, 0, 0],
                              [1, 0, -1, 0], [0, 0, 0, -3]])
C22 = np.array([[1.0, 0.2], [0.3, 1.1], [0.2, 0.1], [0.1, -0.2]])
SIG22 = BilinearForm.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
CONE22 = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 0.0], [0.0, -1.0]])


def project_off(C, form, cols, S):
    """Columns C[:, cols] minus their A-orthogonal projection onto span C[:, S]."""
    A, Cc = form.matrix(), C[:, list(cols)]
    if not S:
        return Cc
    CS = C[:, list(S)]
    return Cc - CS @ np.linalg.solve(CS.T @ A @ CS, CS.T @ A @ Cc)


def test_euclidean_reduction():
    """With A = I and standard-basis cone columns the boosted function is the
    flat one on the spanned coordinates; the orthogonal coordinates drop."""
    A3 = BilinearForm.from_rows(np.eye(3, dtype=int).tolist())
    cone = build_cone(np.eye(3)[:, :2], A3)
    x = np.array([0.7, -0.4, 5.0])
    flat = ErrFnArgument(frame=ErrorFunctionFrame.from_m(np.eye(2)), u=x[:2])
    assert eval_E_boosted(BoostedArgument(cone=cone, x=x)).value == pytest.approx(
        eval_E(flat).value, abs=1e-12)
    assert eval_M_boosted(BoostedArgument(cone=cone, x=x)).value == pytest.approx(
        eval_M(flat).value, abs=1e-12)


def test_signature_11_closed_form():
    cone = build_cone(np.array([[1.0], [0.0]]), A11)
    x = np.array([0.63, 123.0])
    v = eval_E_boosted(BoostedArgument(cone=cone, x=x))
    assert v.value == pytest.approx(erf(math.sqrt(math.pi) * 0.63), abs=1e-12)


def test_not_timelike_rejected():
    with pytest.raises(NotTimelike):
        build_cone(np.array([[0.0], [1.0]]), A11)


def test_decompositions_close():
    cone = build_cone(C22, A22)
    a = BoostedArgument(cone=cone, x=np.array([0.8, -0.5, 0.9, 0.4]))
    m_terms, e_terms = boosted_decompositions(a)
    assert sum_terms(m_terms).value == pytest.approx(eval_M_boosted(a).value, abs=1e-9)
    assert sum_terms(e_terms).value == pytest.approx(eval_E_boosted(a).value, abs=1e-9)


@pytest.mark.parametrize("C,form", [(C22, A22), (CONE22, SIG22)])
def test_pullback_terms_match_x_space_subcones(C, form):
    """Every term of both decompositions equals its x-space definition: the
    sub-cones C_S, and the complement columns A-projected off C_S."""
    A = form.matrix()
    cone = build_cone(C, form)
    s = cone.s
    subsets = [S for k in range(s + 1) for S in combinations(range(s), k)]
    comps = {S: tuple(j for j in range(s) if j not in S) for S in subsets}
    rng = np.random.default_rng(8)
    done = 0
    while done < 25:
        x = rng.normal(size=4)
        sub_duals = [build_cone(C[:, list(S)], form).D.T @ A @ x for S in subsets if S]
        perp_args = [project_off(C, form, comps[S], S).T @ A @ x for S in subsets if comps[S]]
        if min(np.min(np.abs(v)) for v in sub_duals + perp_args) < 0.05:
            continue
        done += 1
        d_sign = np.sign(cone.D.T @ A @ x)
        m_terms, e_terms = boosted_decompositions(BoostedArgument(cone=cone, x=x))
        for S, tm, te in zip(subsets, m_terms, e_terms):
            comp = comps[S]
            sub = BoostedArgument(cone=build_cone(C[:, list(S)], form), x=x)
            coeff_m = (-1.0) ** len(comp) * float(np.prod(d_sign[list(comp)]))
            coeff_e = float(np.prod(np.sign(project_off(C, form, comp, S).T @ A @ x)))
            assert tm["S"] == S and te["S"] == S
            assert tm["coeff"] == coeff_m and te["coeff"] == coeff_e
            assert tm["value"] == pytest.approx(eval_E_boosted(sub).value, abs=1e-12)
            assert te["value"] == pytest.approx(eval_M_boosted(sub).value, abs=1e-12)


def test_gauge_invariance():
    """Results must not depend on which A-orthonormal basis of span(C) is
    used: rotate E_frame and rebuild the dual block D."""
    cone = build_cone(C22, A22)
    a = BoostedArgument(cone=cone, x=np.array([0.8, -0.5, 0.9, 0.4]))
    th = 0.91
    L = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    E2 = L @ cone.E_frame
    D2 = E2.T @ np.linalg.inv(E2 @ A22.matrix() @ C22).T
    cone2 = ConeMatrix(C=C22, form=A22, E_frame=E2, D=D2)
    a2 = BoostedArgument(cone=cone2, x=a.x)
    assert eval_M_boosted(a2).value == pytest.approx(eval_M_boosted(a).value, abs=1e-12)
    assert eval_E_boosted(a2).value == pytest.approx(eval_E_boosted(a).value, abs=1e-12)


def test_shadow_matches_reduced_formula():
    cone = build_cone(C22, A22)
    x = np.array([0.8, -0.5, 0.9, 0.4])
    a = BoostedArgument(cone=cone, x=x)
    AM = A22.matrix()
    manual = 0.0
    for j in range(2):
        cj = C22[:, j]
        qc = cj @ AM @ cj
        bj = cj @ AM @ x
        red = build_cone(project_off(C22, A22, (1 - j,), (j,)), A22)
        ev = eval_E_boosted(BoostedArgument(cone=red, x=x))
        manual += bj / math.sqrt(qc) * math.exp(-math.pi * bj * bj / qc) * ev.value
    assert boosted_shadow(a).value == pytest.approx(manual, abs=1e-9)


def test_shadow_is_half_euler_derivative():
    cone = build_cone(C22, A22)
    x = np.array([0.8, -0.5, 0.9, 0.4])
    h = 1e-5
    grad = np.array([
        (eval_E_boosted(BoostedArgument(cone=cone, x=x + h * np.eye(4)[k])).value
         - eval_E_boosted(BoostedArgument(cone=cone, x=x - h * np.eye(4)[k])).value)
        / (2 * h) for k in range(4)])
    sh = boosted_shadow(BoostedArgument(cone=cone, x=x)).value
    assert x @ grad == pytest.approx(2 * sh, abs=5e-8)


def test_bound_and_tamper():
    cone = build_cone(C22, A22)
    a = BoostedArgument(cone=cone, x=np.array([0.8, -0.5, 0.9, 0.4]))
    lhs, rhs, ok, est = boosted_bound_check(a)
    assert ok and lhs <= rhs + est
    assert not boosted_bound_check(a, rhs_scale=1e-3)[2]


def test_vigneras_residual_is_second_order():
    cone = build_cone(C22, A22)
    a = BoostedArgument(cone=cone, x=np.array([0.8, -0.5, 0.9, 0.4]))
    for kind in ("M", "E"):
        r1 = abs(vigneras_residual_boosted(a, kind=kind, h=2e-3))
        r2 = abs(vigneras_residual_boosted(a, kind=kind, h=1e-3))
        assert r2 <= r1 / 3.5, (kind, r1, r2)


def test_large_argument_limit_is_sign_product():
    cone = build_cone(C22, A22)
    xb = np.array([40.0, -25.0, 1.0, 0.2])
    sgn = float(np.prod(np.sign(C22.T @ A22.matrix() @ xb)))
    v = eval_E_boosted(BoostedArgument(cone=cone, x=xb))
    assert v.value == pytest.approx(sgn, abs=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_point_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        BoostedArgument(cone=build_cone(C22, A22), x=np.array([bad, 0.0, 1.0, 0.2]))


def test_m_vanishes_at_large_argument():
    cone = build_cone(C22, A22)
    xb = np.array([40.0, -25.0, 1.0, 0.2])
    v = eval_M_boosted(BoostedArgument(cone=cone, x=xb))
    assert abs(v.value) < 1e-12
