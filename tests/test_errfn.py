"""Error functions E_r and M_r: closed forms, dual quadrature routes,
derivative/shadow/PDE identities, bound, discontinuity structure."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import erf, erfc, erfcx, owens_t

from thetaforge import errfn
from thetaforge.errfn import (MAX_GRID_POINTS, ErrFnArgument, QuadratureSpec, bound_check,
                              decompose_M_into_E, derivative_E, derivative_M,
                              discontinuity_limit, eval_E, eval_E_oracle_mc,
                              eval_M, eval_M_contour, shadow, vigneras_residual,
                              wall_distances)
from thetaforge.exceptions import RankTooLarge, ValidationError, WallTooClose
from thetaforge.quadform import ErrorFunctionFrame

SQPI = math.sqrt(math.pi)


def arg(m, u, **kw):
    return ErrFnArgument(frame=ErrorFunctionFrame.from_m(np.asarray(m, dtype=float)),
                         u=np.asarray(u, dtype=float), **kw)


def m1_ref(u: float) -> float:
    return -math.copysign(1.0, u) * erfc(SQPI * abs(u))


def e1_ref(u: float) -> float:
    return erf(SQPI * u)


def test_rank_zero_is_one():
    frame = ErrorFunctionFrame.from_m(np.zeros((0, 0)))
    a = ErrFnArgument(frame=frame, u=np.zeros(0))
    assert eval_M(a).value == 1.0
    assert eval_E(a).value == 1.0


@pytest.mark.parametrize("u0", [0.3, -0.7, 1.5, 0.001, -2.0, 3.0])
def test_r1_closed_forms(u0):
    a = arg([[1.0]], [u0])
    assert eval_M(a).value == pytest.approx(m1_ref(u0), abs=1e-12)
    assert eval_E(a).value == pytest.approx(e1_ref(u0), abs=1e-12)


def test_r1_scaling_depends_on_sign_only():
    # M_1((m); u) = -sign(m) sign(u) erfc(sqrt(pi)|u|): |m| drops out
    for m, u0 in [(3.0, 0.8), (-0.5, 0.8), (7.0, -0.4)]:
        a = arg([[m]], [u0])
        ref = -math.copysign(1.0, m) * math.copysign(1.0, u0) * erfc(SQPI * abs(u0))
        assert eval_M(a).value == pytest.approx(ref, abs=1e-12)
        assert eval_E(a).value == pytest.approx(math.copysign(1.0, m) * erf(SQPI * u0),
                                                abs=1e-12)


def test_diagonal_frames_factorize():
    # diagonal entries contribute only their sign (r=1 scaling law per axis)
    diag = [1.0, 1.3, -0.7, 2.0]
    u = [0.5, 0.4, -0.6, 0.9]
    for r in (2, 3, 4):
        a = arg(np.diag(diag[:r]), u[:r])
        refM = math.prod(math.copysign(1.0, diag[j]) * m1_ref(u[j]) for j in range(r))
        v = eval_M(a)
        assert v.value == pytest.approx(refM, abs=1e-10)
        refE = math.prod(math.copysign(1.0, diag[j]) * e1_ref(u[j]) for j in range(r))
        assert eval_E(a).value == pytest.approx(refE, abs=1e-10)


def test_orthant_and_contour_routes_agree():
    a = arg([[1.0, 0.3], [0.2, 1.1]], [0.8, 0.6])
    v_orth = eval_M(a)
    v_gh = eval_M_contour(a, QuadratureSpec(nodes_per_axis=160))
    assert v_orth.value == pytest.approx(v_gh.value, abs=1e-10)
    assert abs(v_gh.imag_residual) < 1e-10


def test_near_wall_stability_r2():
    for d in (1e-1, 1e-2, 1e-3):
        u = np.array([d, 0.7])
        v = eval_M(arg(np.eye(2), u))
        ref = m1_ref(d) * m1_ref(0.7)
        assert v.value == pytest.approx(ref, abs=1e-11)


def test_wall_refusal_and_distances():
    a = arg(np.eye(2), [1e-13, 0.5])
    assert wall_distances(a)[0] == pytest.approx(1e-13)
    with pytest.raises(WallTooClose):
        eval_M(a)
    # E is smooth across walls: it keeps its closed form instead of refusing
    assert eval_E(a).value == pytest.approx(e1_ref(1e-13) * e1_ref(0.5), abs=1e-15)


def test_rank_cap():
    with pytest.raises(RankTooLarge):
        eval_M(arg(np.eye(7), np.full(7, 0.5)), QuadratureSpec(nodes_per_axis=16))


def test_mc_oracle_matches_product_form():
    a = arg(np.eye(2), [0.3, 0.5])
    mc = eval_E_oracle_mc(a, n_samples=400_000, seed=42)
    ref = e1_ref(0.3) * e1_ref(0.5)
    assert abs(mc.value - ref) < 4 * mc.est_error


def test_e_decomposition_path_matches_mc():
    m = np.array([[1.0, 0.4], [-0.3, 0.9]])
    u = np.array([0.45, -0.65])
    a = arg(m, u)
    direct = eval_E(a)
    mc = eval_E_oracle_mc(a, n_samples=1_000_000, seed=11)
    assert abs(direct.value - mc.value) < 4 * mc.est_error


def test_derivative_matches_finite_difference():
    m = np.array([[1.0, 0.3], [0.2, 1.1]])
    frame = ErrorFunctionFrame.from_m(m)
    u = np.array([0.8, 0.6])
    h = 1e-5
    for kind, ev, der in (("M", eval_M, derivative_M), ("E", eval_E, derivative_E)):
        grad = np.array([
            (ev(ErrFnArgument(frame=frame, u=u + h * np.eye(2)[k])).value
             - ev(ErrFnArgument(frame=frame, u=u - h * np.eye(2)[k])).value) / (2 * h)
            for k in range(2)])
        for j in range(2):
            formula = der(ErrFnArgument(frame=frame, u=u), j).value
            assert formula == pytest.approx(frame.w(j) @ grad, abs=5e-9), (kind, j)


def test_shadow_is_half_euler_derivative():
    m = np.array([[1.0, 0.3], [0.2, 1.1]])
    frame = ErrorFunctionFrame.from_m(m)
    u = np.array([0.8, 0.6])
    h = 1e-5
    for kind, ev in (("E", eval_E), ("M", eval_M)):
        grad = np.array([
            (ev(ErrFnArgument(frame=frame, u=u + h * np.eye(2)[k])).value
             - ev(ErrFnArgument(frame=frame, u=u - h * np.eye(2)[k])).value) / (2 * h)
            for k in range(2)])
        sv = shadow(ErrFnArgument(frame=frame, u=u), kind=kind).value
        assert sv == pytest.approx((u @ grad) / 2, abs=5e-9), kind


def test_vigneras_residual_is_second_order():
    a = arg([[1.0, 0.3], [0.2, 1.1]], [0.8, 0.6])
    for kind in ("M", "E"):
        r1 = abs(vigneras_residual(a, kind=kind, h=1e-3))
        r2 = abs(vigneras_residual(a, kind=kind, h=5e-4))
        assert r2 <= r1 / 3.5, (kind, r1, r2)


def test_bound_and_tamper():
    a = arg([[1.0, 0.3], [0.2, 1.1]], [0.8, 0.6])
    lhs, rhs, ok, est = bound_check(a)
    assert ok and lhs <= rhs + est
    _, _, tampered_ok, _ = bound_check(a, rhs_scale=1e-3)
    assert not tampered_ok


def test_m_decomposes_into_e_terms():
    a = arg([[1.0, 0.3], [0.2, 1.1]], [0.8, 0.6])
    terms, total = decompose_M_into_E(a)
    assert len(terms) == 4
    assert total.value == pytest.approx(eval_M(a).value, abs=1e-10)


def test_m_decomposition_r3():
    a = arg([[1.0, 0.3, 0.1], [0.2, 1.1, -0.4], [0.0, 0.5, 0.9]],
            [0.8, 0.6, -0.7])
    _, total = decompose_M_into_E(a)
    assert total.value == pytest.approx(eval_M(a).value, abs=1e-8)


def test_discontinuity_limits_two_sided():
    """One-sided limits at a wall match the on-wall formula.

    The wall point is taken at norm 2.2 so the continuous remainder of the
    jump formula sits well below the comparison tolerance."""
    frame = ErrorFunctionFrame.from_m(np.array([[1.0, 0.3], [0.2, 1.1]]))
    w1 = frame.w(1)
    uwall = np.array([w1[1], -w1[0]])
    uwall *= 2.2 / np.linalg.norm(uwall)
    if abs(frame.w(0) @ uwall) < 0.3:
        uwall = -uwall
    for s in (+1, -1):
        lim = discontinuity_limit(ErrFnArgument(frame=frame, u=uwall),
                                  S=(0,), approach_signs={1: s}).value
        uu = uwall + s * 1e-6 * w1
        v = eval_M(ErrFnArgument(frame=frame, u=uu, wall_eps=1e-9)).value
        assert v == pytest.approx(lim, abs=1e-6)


def test_sign_flip_parity():
    # flipping u negates every sign argument: F_r(-u) = (-1)^r F_r(u)
    a = arg([[1.0, 0.3], [0.2, 1.1]], [0.8, 0.6])
    b = arg([[1.0, 0.3], [0.2, 1.1]], [-0.8, -0.6])
    assert eval_M(b).value == pytest.approx(eval_M(a).value, abs=1e-12)
    assert eval_E(b).value == pytest.approx(eval_E(a).value, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-2.5, max_value=2.5),
       st.floats(min_value=-2.5, max_value=2.5))
def test_e_is_bounded_by_one(u1, u2):
    u = np.array([u1, u2])
    if min(abs(u1), abs(u2)) < 1e-3:
        return
    v = eval_E(arg(np.eye(2), u))
    assert abs(v.value) <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=2.0),
       st.floats(min_value=0.05, max_value=2.0))
def test_m_bound_property(u1, u2):
    u = np.array([u1, u2])
    v = eval_M(arg(np.eye(2), u))
    assert abs(v.value) <= 2.0 * math.exp(-math.pi * float(u @ u)) + v.est_error + 1e-15


def test_quadrature_grid_cap_boundary():
    assert MAX_GRID_POINTS == 64 ** 4
    for nodes, r in ((64, 4), (4096, 2), (256, 3)):
        QuadratureSpec(nodes_per_axis=nodes).check_grid(r)
        with pytest.raises(ValidationError):
            QuadratureSpec(nodes_per_axis=nodes + 1).check_grid(r)


def test_quadrature_grid_cap_refuses_before_any_node(monkeypatch):
    def no_rule(*args):
        raise AssertionError("a quadrature rule was built")

    for name in ("_leggauss", "_hermgauss", "_tensor_grid"):
        monkeypatch.setattr(errfn, name, no_rule)
    a = arg([[1.0, 0.3], [0.2, 1.1]], [0.4, -0.7])
    for evaluate in (eval_M, eval_E, eval_M_contour):
        with pytest.raises(ValidationError, match="over the cap"):
            evaluate(a, QuadratureSpec(nodes_per_axis=10 ** 9))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_point_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        arg(np.eye(2), [bad, 0.5])


GENERAL_FRAMES = {
    2: [[1.0, 0.3], [0.2, 1.1]],
    3: [[1.0, 0.3, 0.1], [0.2, 1.1, -0.4], [0.0, 0.5, 0.9]],
    4: [[1.0, 0.3, 0.1, -0.2], [0.2, 1.1, -0.4, 0.3], [0.0, 0.5, 0.9, 0.1],
        [0.4, -0.2, 0.3, 1.2]],
}


def test_eval_E_never_samples(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("eval_E sampled")

    monkeypatch.setattr(errfn, "eval_E_oracle_mc", no_sampling)
    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    u = [0.45, -0.65, 0.3, 0.5]
    for r, m in GENERAL_FRAMES.items():
        v = eval_E(arg(m, u[:r]))
        assert abs(v.value) <= 1.0 and v.est_error < 1e-10
    # exactly on the sign locus m_0 . u = 0 and on a wall of the dual frame
    m = np.array(GENERAL_FRAMES[2])
    assert (m.T @ [-0.1, 0.5])[0] == 0.0
    assert eval_E(arg(m, [-0.1, 0.5])).est_error < 1e-12
    assert eval_E(arg(m, m[:, 1])).est_error < 1e-12
    # a zero coordinate of a diagonal frame: E factorizes to 0 up to rounding
    v = eval_E(arg(np.diag([1.0, 1.3, -0.7]), [0.0, 0.4, -0.6]))
    assert abs(v.value) <= v.est_error < 1e-12


@pytest.mark.parametrize("u", [(-0.1, 0.5), tuple(0.7 * np.array([-0.2, 1.0]))])
def test_e_on_wall_matches_owens_t(u):
    # on m_0 . u = 0, P(z_0 < 0) = 1/2 and E_2 = 4 T(h_1, rho / sqrt(1 - rho^2)),
    # h_1 = -sqrt(2 pi) m_1 . u / |m_1|, rho the cosine between m_0 and m_1
    m = np.array(GENERAL_FRAMES[2])
    u = np.array(u)
    n0, n1 = np.linalg.norm(m, axis=0)
    rho = (m[:, 0] @ m[:, 1]) / (n0 * n1)
    h1 = -math.sqrt(2.0 * math.pi) * (m[:, 1] @ u) / n1
    ref = 4.0 * owens_t(h1, rho / math.sqrt(1.0 - rho * rho))
    v = eval_E(arg(m, u))
    assert v.value == pytest.approx(ref, abs=1e-12)
    assert abs(v.value - ref) <= v.est_error
    if u[1] == 0.7:
        assert v.value == pytest.approx(0.0744863, abs=1e-7)


def test_e2_at_origin_is_sheppard_arcsine():
    # h = k = 0: P(z_0 < 0, z_1 < 0) = 1/4 + arcsin(rho) / (2 pi), so E_2 = (2/pi) arcsin(rho)
    m = np.array(GENERAL_FRAMES[2])
    n0, n1 = np.linalg.norm(m, axis=0)
    rho = (m[:, 0] @ m[:, 1]) / (n0 * n1)
    assert eval_E(arg(m, [0.0, 0.0])).value == pytest.approx(2.0 / math.pi * math.asin(rho),
                                                             abs=1e-15)


def test_e_continuous_across_wall():
    m = np.array(GENERAL_FRAMES[2])
    u0 = np.array([-0.1, 0.5])
    e0 = eval_E(arg(m, u0)).value
    for d in (1e-300, 1e-12):
        for side in (1.0, -1.0):
            e = eval_E(arg(m, u0 + side * d * m[:, 0])).value
            assert abs(e - e0) <= 1e-11


@pytest.mark.parametrize("r", [2, 3, 4])
def test_e_orthogonal_frames_match_erf_products(r):
    rng = np.random.default_rng(r)
    for _ in range(8):
        q, _ = np.linalg.qr(rng.normal(size=(r, r)))
        m = q * rng.uniform(0.5, 2.0, size=r)
        u = rng.normal(size=r) * rng.choice([0.1, 0.5, 1.5])
        t = (m.T @ u) / np.linalg.norm(m, axis=0)
        assert eval_E(arg(m, u)).value == pytest.approx(np.prod(erf(SQPI * t)), abs=1e-12)


@pytest.mark.parametrize("r", [3, 4])
def test_e_est_error_covers_a_finer_rule(r):
    m = GENERAL_FRAMES[r]
    for u in ([0.45, -0.65, 0.3, 0.5], [1.2, 0.1, -0.9, 0.05]):
        a = arg(m, u[:r])
        coarse = eval_E(a, QuadratureSpec(nodes_per_axis=16))
        assert abs(coarse.value - eval_E(a).value) <= coarse.est_error


def _log_erfc(x: float) -> float:
    return math.log(erfcx(SQPI * x)) - math.pi * x * x


@pytest.mark.parametrize("r", [2, 3, 4])
def test_tiny_m_keeps_relative_precision(r):
    # orthogonal frames: M_r = prod_j -sign(t_j) erfc(sqrt(pi) |t_j|)
    rng = np.random.default_rng(10 + r)
    for log10_m in (-1, -5, -10, -20, -40, -60, -80, -100):
        q, _ = np.linalg.qr(rng.normal(size=(r, r)))
        m = q * rng.uniform(0.5, 2.0, size=r)
        share = rng.uniform(0.5, 1.5, size=r)
        share /= share.sum()
        t = np.array([brentq(lambda x, s=s: _log_erfc(x) - s * log10_m * math.log(10.0),
                             1e-12, 40.0) for s in share])
        t *= rng.choice([-1.0, 1.0], size=r)
        ref = math.prod(-math.copysign(1.0, tj) * erfc(SQPI * abs(tj)) for tj in t)
        assert abs(ref) == pytest.approx(10.0 ** log10_m, rel=1e-9)
        v = eval_M(arg(m, q @ t))
        assert v.value == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_tiny_m_pinned_value():
    v = eval_M(arg([[1.0, 0.4], [0.0, 1.0]], [5.0, 6.0]))
    assert v.value == pytest.approx(3.7519520184e-86, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_m_est_error_bounds_the_error_down_to_1e_100(r):
    # seeded orthogonal frames, |M_r| spread over 1e-0.1 .. 1e-100; the
    # reference is the erfc product in 30 digits at the float frame and point
    rng = np.random.default_rng(40 + r)
    for _ in range(100):
        q, _ = np.linalg.qr(rng.normal(size=(r, r)))
        m = q * rng.uniform(0.5, 2.0, size=r)
        share = rng.uniform(0.5, 1.5, size=r)
        log_m = -rng.uniform(0.1, 100.0) * math.log(10.0) * share / share.sum()
        t = np.array([brentq(lambda x, s=s: _log_erfc(x) - s, 1e-12, 40.0) for s in log_m])
        u = q @ (t * rng.choice([-1.0, 1.0], size=r))
        v = eval_M(arg(m, u))
        with mpmath.workdps(30):
            ref = mpmath.mpf(1)
            for j in range(r):
                col = [mpmath.mpf(float(x)) for x in m[:, j]]
                tj = mpmath.fdot(col, [mpmath.mpf(float(x)) for x in u]) / mpmath.norm(col)
                ref *= -mpmath.sign(tj) * mpmath.erfc(mpmath.sqrt(mpmath.pi) * abs(tj))
            assert abs(mpmath.mpf(v.value) - ref) <= v.est_error


def test_tiny_m_est_error_is_relative():
    v = eval_M(arg([[1.0, 0.4], [0.0, 1.0]], [5.0, 6.0]))
    assert v.est_error <= 1e-12 * abs(v.value)


def orthant_reference_M2(m, u):
    """M_2(m; u) in 40 digits from its orthant integral: pi^-2 sign(a_1 a_2)
    |det m|^-1 e^{-pi u.u} J, J = int_{[0,inf)^2} exp(-|a|.s - s^T G s / 4 pi)
    ds, G = diag(eps) W^T W diag(eps), with the inner axis in closed form
    (pi / sqrt(g)) e^{beta^2 pi / g} erfc(beta sqrt(pi / g)) and the outer
    axis by mpmath quadrature."""
    with mpmath.workdps(40):
        M, U = mpmath.matrix(np.asarray(m).tolist()), mpmath.matrix(list(u))
        W = (M ** -1).T
        a, WtW = W.T * U, W.T * W
        eps = [mpmath.sign(a[0]), mpmath.sign(a[1])]
        G = [[eps[i] * WtW[i, j] * eps[j] for j in range(2)] for i in range(2)]

        def outer(s):
            beta = abs(a[1]) + G[0][1] * s / (2 * mpmath.pi)
            inner = (mpmath.pi / mpmath.sqrt(G[1][1]) * mpmath.exp(beta ** 2 * mpmath.pi / G[1][1])
                     * mpmath.erfc(beta * mpmath.sqrt(mpmath.pi / G[1][1])))
            return mpmath.exp(-abs(a[0]) * s - G[0][0] * s ** 2 / (4 * mpmath.pi)) * inner

        J = mpmath.quad(outer, [0, 1, 5, mpmath.inf])
        return (eps[0] * eps[1] / (mpmath.pi ** 2 * abs(mpmath.det(M)))
                * mpmath.exp(-mpmath.pi * (U[0] ** 2 + U[1] ** 2)) * J)


@pytest.mark.parametrize("transpose", [False, True], ids=["rows", "columns"])
def test_m_est_error_holds_at_every_node_count(transpose):
    # the frame where 4096 Gauss-Legendre nodes missed by 1.5e-12 relative
    # while est_error claimed 6.5e-13 (and its transpose, missed by 4.5e-12);
    # the rule loses accuracy as the node count grows
    m = np.array([[-0.935, -0.704], [-0.058, -0.249]])
    m, u = (m.T if transpose else m), [-1.207, -0.115]
    want = orthant_reference_M2(m, u)
    for nodes in (64, 4096):
        v = eval_M(arg(m, u), QuadratureSpec(nodes))
        assert abs(mpmath.mpf(v.value) - want) <= v.est_error, nodes


# eval_M on coupled, non-orthogonal frames, pinned from the tensor-grid
# rule that the axis-by-axis contraction replaced (same nodes and box).
PINNED_SEEDED_M = (0.005777110381116076, -0.024588980988910925, 0.0318939173551131,
                   0.3432107301451606, -2.5316591693047287e-05, -1.1596818600857115e-07,
                   -0.0015907359400867693, 3.953500169913624e-11, 0.00017557847194700374,
                   -6.530045443858049e-08, 2.0047907680866915e-23, 0.00037564158884372624)
# (m, u, M, lowest erfcx argument below): strongly negative couplings take
# the erfcx argument below 0 and below -25, where _log_erfcx is x^2 + log 2
PINNED_NEGATIVE_M = (
    ([[-0.935, -0.704], [-0.058, -0.249]], [-1.207, -0.115], 0.0035172269755339492, 0.0),
    ([[0.228, 0.275], [-0.205, -0.178]], [-0.143, 0.114], 1.2049633449911346, -25.0),
    ([[-1.307, -1.582, 1.828], [-0.143, -0.404, 0.176], [-0.72, -1.21, 0.057]],
     [0.09, 0.378, 0.739], -0.004358491211196642, 0.0),
    ([[0.679, 1.098, 1.665], [-0.56, -1.135, -1.025], [0.366, 0.525, -0.243]],
     [0.896, 1.655, -3.859], -2.031603441357498e-28, -25.0),
    ([[1.753, 1.575, -0.689, 0.144], [-0.191, -0.415, 0.034, 0.014],
      [-0.715, -0.609, -1.034, 0.666], [1.524, 1.374, -2.466, 0.617]],
     [-1.622, -1.116, 1.706, -1.3], -7.777422124393767e-16, 0.0),
    ([[-0.392, -0.314, -0.036, -0.399], [0.568, 0.306, 0.516, -0.68],
      [1.444, 1.572, 1.51, 1.367], [-1.299, -0.864, -1.024, 0.227]],
     [-3.558, -0.562, 0.607, -0.387], 5.082596382062995e-23, -25.0),
)
# block-diagonal frames: some couplings to the closed-form axis are exactly 0
BLOCK3 = [[1.0, 0.6, 0.0], [0.3, 1.2, 0.0], [0.0, 0.0, 0.8]]
BLOCK4 = [[1.0, -0.5, 0.0, 0.0], [0.4, 1.1, 0.0, 0.0], [0.0, 0.0, 0.9, 0.3],
          [0.0, 0.0, -0.2, 1.3]]
PINNED_UNCOUPLED_M = (
    (BLOCK3, [0.9, -0.4, 0.3], 0.0016104662774708831),
    (BLOCK3, [0.2, -0.1, 1.5], 4.244717300028203e-05),
    (BLOCK4, [0.7, -0.6, 0.5, 0.8], -0.00013723347728913156),
)


def test_m_matches_pinned_values_on_coupled_frames():
    rng = np.random.default_rng(2026)
    got = []
    for r in (2, 3, 4):
        for _ in range(4):
            while True:
                m, u = rng.normal(size=(r, r)), rng.normal(size=r)
                if np.linalg.cond(m) < 20:
                    break
            got.append(eval_M(arg(m, u)).value)
    assert got == pytest.approx(PINNED_SEEDED_M, rel=1e-13, abs=0.0)


def _eval_M_seeing_erfcx(m, u, monkeypatch, nodes=64):
    """eval_M's value under a nodes-node rule and the erfcx arguments of
    every call made under that rule (a rank-4 row may make one per slab)."""
    seen, rules = [], []
    log_erfcx, joint_rule = errfn._log_erfcx, errfn._joint_rule
    monkeypatch.setattr(errfn, "_joint_rule", lambda group: rules.append(group) or joint_rule(group))
    monkeypatch.setattr(errfn, "_log_erfcx", lambda x: seen.append((rules[-1], x)) or log_erfcx(x))
    value = eval_M(arg(m, u), QuadratureSpec(nodes)).value
    return value, [x for group, x in seen if nodes in group]


@pytest.mark.parametrize("case", range(len(PINNED_NEGATIVE_M)))
def test_m_matches_pinned_values_under_negative_coupling(case, monkeypatch):
    m, u, want, below = PINNED_NEGATIVE_M[case]
    value, seen = _eval_M_seeing_erfcx(m, u, monkeypatch)
    assert value == pytest.approx(want, rel=1e-13, abs=0.0)
    assert min(x.min() for x in seen) < below


@pytest.mark.parametrize("case", range(len(PINNED_UNCOUPLED_M)))
def test_m_matches_pinned_values_with_zero_couplings(case, monkeypatch):
    m, u, want = PINNED_UNCOUPLED_M[case]
    value, seen = _eval_M_seeing_erfcx(m, u, monkeypatch)
    assert value == pytest.approx(want, rel=1e-13, abs=0.0)
    # at 64 nodes erfcx runs on fewer points than the grid of the r - 1 axes
    assert sum(x.size for x in seen) < 64 ** (len(u) - 1)


# the first column apart from the others: at the first point below, the erfcx
# argument of a rank-4 row is the same in every slab
SPLIT4 = [[0.9, 0.0, 0.0, 0.0], [0.0, 1.0, 0.6, 0.2], [0.0, 0.3, 1.2, -0.4], [0.0, 0.1, 0.2, 0.8]]
PIECE_FRAMES = {3: [GENERAL_FRAMES[3], BLOCK3] + [m for m, *_ in PINNED_NEGATIVE_M[2:4]],
                4: [GENERAL_FRAMES[4], BLOCK4, SPLIT4] + [m for m, *_ in PINNED_NEGATIVE_M[4:]]}


@pytest.mark.parametrize("r, nodes", [(3, 64), (3, 250), (4, 64), (4, 33)])
def test_m_is_the_same_whatever_the_pieces(monkeypatch, r, nodes):
    # whole rows of the full rule against the default pieces: the same bits
    points = [[0.45, -0.65, 0.3, 0.5][:r], [-1.2, 0.4, 0.9, -0.3][:r]]
    cases = [arg(m, u) for m in PIECE_FRAMES[r] for u in points]
    quad = QuadratureSpec(nodes)
    pieces = [(v.value, v.est_error) for v in (eval_M(a, quad) for a in cases)]
    monkeypatch.setattr(errfn, "_J_CELLS", nodes ** (r - 1))
    assert [(v.value, v.est_error) for v in (eval_M(a, quad) for a in cases)] == pieces


def test_rank_3_rows_are_never_cut(monkeypatch):
    # a rank-3 row of 250^2 cells, past _J_CELLS, still goes whole: on a frame
    # coupled on both node axes every erfcx argument covers whole rows
    assert 250 ** 2 > errfn._J_CELLS
    _, seen = _eval_M_seeing_erfcx(GENERAL_FRAMES[3], [0.45, -0.65, 0.3], monkeypatch, 250)
    assert seen and all(x.shape[1:] == (250, 250) for x in seen)


def test_rank_4_m_keeps_its_temporaries_small():
    # one rank-4 row of 64^3 cells goes in slabs of _J_CELLS cells
    a = arg(GENERAL_FRAMES[4], [0.45, -0.65, 0.3, 0.5])
    eval_M(a)  # the rules are cached on the first call
    tracemalloc.start()
    try:
        eval_M(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def test_mc_oracle_error_is_not_zero_when_every_sample_agrees():
    # deep inside the positive orthant every one of the samples has sign +1
    a = arg(np.eye(2), [3.0, 3.0])
    mc = eval_E_oracle_mc(a, n_samples=20_000, seed=1)
    assert mc.value == 1.0
    assert mc.est_error == 2.0 / 20_000
    # E_2 = erf(3 sqrt(pi))^2 = 1 - 2e-12 is within the rule of three
    assert abs(eval_E(a).value - mc.value) <= 3.0 * mc.est_error


@pytest.mark.parametrize("kind, r, route", [
    ("M", 1, "closed form"), ("M", 2, "orthant rule"), ("M", 4, "orthant rule"),
    ("E", 1, "closed form"), ("E", 2, "closed form"), ("E", 3, "orthant rule"),
    ("E", 4, "orthant rule"), ("contour", 2, "contour rule"), ("mc", 2, "monte carlo"),
])
def test_value_names_its_route(kind, r, route):
    a = arg(np.array(GENERAL_FRAMES[max(r, 2)])[:r, :r], [0.45, -0.65, 0.3, 0.5][:r])
    evaluate = {"M": eval_M, "E": eval_E, "contour": eval_M_contour,
                "mc": lambda a: eval_E_oracle_mc(a, n_samples=10_000, seed=0)}[kind]
    assert evaluate(a).route == route


def test_derived_values_carry_the_route_of_their_evaluations():
    assert eval_M(arg(np.zeros((0, 0)), [])).route == "closed form"
    a = arg(GENERAL_FRAMES[4], [0.45, -0.65, 0.3, 0.5])
    assert derivative_M(a, 1).route == "orthant rule"  # M_3
    assert derivative_E(a, 1).route == "orthant rule"  # E_3
    assert shadow(arg(GENERAL_FRAMES[3], [0.45, -0.65, 0.3]), "E").route == "closed form"
    assert decompose_M_into_E(a)[1].route == "orthant rule"  # full-rank term E_4
