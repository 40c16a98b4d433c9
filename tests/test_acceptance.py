"""Acceptance gate: one test per release criterion, each printing a single
pass line with the measured worst residual. Tolerances and time limits are
stated inline; every expected value comes from a closed form, an independent
oracle, or exact arithmetic."""

import cmath
import json
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from thetaforge.boosted import (BoostedArgument, build_cone,
                                vigneras_residual_boosted)
from thetaforge.cli import main as cli_main
from thetaforge.cones import (ConePair, build_a4_example, check_cone_pair,
                              det_identity_residual)
from thetaforge.errfn import (ErrFnArgument, QuadratureSpec, bound_check,
                              decompose_M_into_E, discontinuity_limit, eval_E,
                              eval_E_oracle_mc, eval_M, eval_M_contour,
                              vigneras_residual, wall_distances)
from thetaforge.exceptions import GenericityViolated
from thetaforge.quadform import (BilinearForm, ErrorFunctionFrame,
                                 subset_projectors)
from thetaforge.theta import (ThetaSpec, TruncationPolicy, discriminant_group,
                              eval_theta, q_expansion)
from thetaforge.verify import (SignLemmaInstance, sign_lemma_sum,
                               _generic_u, _random_frame,
                               _random_passing_r1_pair)

SQPI = math.sqrt(math.pi)

D12 = BilinearForm.from_rows([[1, 0], [0, -2]])
D22 = BilinearForm.from_rows([[2, 0], [0, -2]])


def d12_spec(tau=1j):
    pair = ConePair.from_matrices([[1], [0]], [[2], [1]], D12)
    return ThetaSpec(form=D12, mu=(0, 0), p=(1, 0), b=np.zeros(2),
                     c_ell=np.zeros(2), tau=tau, kernel="holomorphic",
                     pair=pair)


def d22_spec(mu, tau, b, c, kernel):
    pair = ConePair.from_matrices([[1], [0]], [[3], [1]], D22)
    return ThetaSpec(form=D22, mu=mu, p=(0, 0), b=np.asarray(b, dtype=float),
                     c_ell=np.asarray(c, dtype=float), tau=tau, kernel=kernel,
                     pair=pair)


def report(num, label, worst, tol):
    print(f"criterion {num:2d} {label}: worst {worst:.3e} <= {tol:.1e} PASS")


def test_criterion_01_closed_form_anchors():
    t0 = time.monotonic()
    frame = ErrorFunctionFrame.from_m(np.array([[1.0]]))
    worst = 0.0
    for s in (1, -1):
        for k in range(1, 31):
            u = np.array([s * k / 10.0])
            a = ErrFnArgument(frame=frame, u=u)
            e = eval_E(a).value - math.erf(SQPI * u[0])
            m = eval_M(a).value + math.copysign(1.0, u[0]) * math.erfc(SQPI * abs(u[0]))
            worst = max(worst, abs(e), abs(m))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(1, "closed-form anchors", worst, 1e-10)


def test_criterion_02_mc_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260814)
    hits = 0
    worst_pulls = []
    for i in range(200):
        r = 2 if i % 2 == 0 else 3
        frame = _random_frame(rng, r)
        # moderate scale keeps sample variance nonzero: at large |u| all
        # 4e6 sign products coincide and the oracle stderr degenerates to 0
        u = _generic_u(rng, frame, scale=0.6)
        arg = ErrFnArgument(frame=frame, u=u)
        det = eval_E(arg)
        assert det.est_error < 1e-6  # deterministic orthant route, never sampled
        mc = eval_E_oracle_mc(arg, n_samples=4_000_000, seed=i)
        diff = abs(det.value - mc.value)
        pull = 0.0 if diff == 0 else (diff / mc.est_error if mc.est_error > 0
                                      else math.inf)
        worst_pulls.append(pull)
        if pull <= 3.0:
            hits += 1
    elapsed = time.monotonic() - t0
    assert hits >= 198, (hits, sorted(worst_pulls)[-5:])
    assert elapsed < 300.0
    print(f"criterion  2 oracle equivalence: {hits}/200 within 3 sigma"
          f" (worst pull {max(worst_pulls):.2f}, {elapsed:.0f}s) PASS")


def _prop39_sum(arg: ErrFnArgument, quad: QuadratureSpec) -> tuple[float, float]:
    """E_r reconstructed from contour-evaluated M terms: an all-independent
    route (different decomposition direction, different quadrature)."""
    frame, u = arg.frame, arg.u
    r = frame.r
    total, est = 0.0, 0.0
    for size in range(r + 1):
        for S in combinations(range(r), size):
            comp = tuple(j for j in range(r) if j not in S)
            coeff = 1.0
            if comp:
                P = subset_projectors(frame, comp).P
                Pu = P @ u
                for j in comp:
                    coeff *= float(np.sign((P @ frame.m(j)) @ Pu))
            if size == 0:
                val, e = 1.0, 0.0
            else:
                proj = subset_projectors(frame, S)
                sub = ErrFnArgument(
                    frame=ErrorFunctionFrame.from_m(proj.Q @ frame.m_mat[:, list(S)]),
                    u=proj.Q @ u)
                res = eval_M_contour(sub, quad)
                val, e = res.value, res.est_error
            total += coeff * val
            est += e
    return total, est


def _reciprocal_instance(rng, r: int) -> ErrFnArgument:
    # contour terms converge spectrally only with pole clearance of order
    # one, so keep every reduced wall coordinate at least 0.5 away
    while True:
        frame = _random_frame(rng, r)
        u = _generic_u(rng, frame, scale=1.2)
        ok = True
        for size in range(1, r + 1):
            for S in combinations(range(r), size):
                proj = subset_projectors(frame, S)
                sub = ErrFnArgument(
                    frame=ErrorFunctionFrame.from_m(proj.Q @ frame.m_mat[:, list(S)]),
                    u=proj.Q @ u)
                if float(np.min(np.abs(wall_distances(sub)))) < 0.5:
                    ok = False
        if ok:
            return ErrFnArgument(frame=frame, u=u)


def test_criterion_03_decomposition_closure():
    rng = np.random.default_rng(3)
    worst_a = 0.0
    for i in range(200):
        r = 1 + i % 3
        frame = _random_frame(rng, r)
        u = _generic_u(rng, frame)
        arg = ErrFnArgument(frame=frame, u=u)
        _, total = decompose_M_into_E(arg)
        worst_a = max(worst_a, abs(total.value - eval_M(arg).value))
    assert worst_a <= 1e-7
    quad = QuadratureSpec(nodes_per_axis=96)
    worst_b = 0.0
    for i in range(60):
        arg = _reciprocal_instance(rng, 1 + i % 3)
        total, _ = _prop39_sum(arg, quad)
        worst_b = max(worst_b, abs(total - eval_E(arg).value))
    assert worst_b <= 1e-7
    report(3, "decomposition closure (both directions)", max(worst_a, worst_b), 1e-7)


def test_criterion_04_vigneras_pde_order():
    rng = np.random.default_rng(11)
    worst_ratio = math.inf
    for r in (1, 2, 3):
        frame = _random_frame(rng, r)
        u = _generic_u(rng, frame, scale=0.9)
        arg = ErrFnArgument(frame=frame, u=u)
        for kind in ("E", "M"):
            r1 = abs(vigneras_residual(arg, kind, h=1e-3))
            r2 = abs(vigneras_residual(arg, kind, h=5e-4))
            worst_ratio = min(worst_ratio, r1 / r2)
    A11 = BilinearForm.from_rows([[1, 0], [0, -1]])
    A22 = BilinearForm.from_rows([[2, 0, 1, 0], [0, 1, 0, 0],
                                  [1, 0, -1, 0], [0, 0, 0, -3]])
    boosted_cases = [
        (build_cone(np.array([[1.0], [0.3]]), A11), np.array([0.9, 0.4])),
        (build_cone(np.array([[1.0, 0.2], [0.3, 1.1], [0.2, 0.1],
                              [0.1, -0.2]]), A22), np.array([0.9, 0.6, 0.1, -0.2])),
    ]
    for cone, x in boosted_cases:
        barg = BoostedArgument(cone=cone, x=x)
        for kind in ("E", "M"):
            r1 = abs(vigneras_residual_boosted(barg, kind, h=1e-3))
            r2 = abs(vigneras_residual_boosted(barg, kind, h=5e-4))
            worst_ratio = min(worst_ratio, r1 / r2)
    assert worst_ratio >= 3.5
    print(f"criterion  4 PDE residual halving ratio: worst {worst_ratio:.3f}"
          f" >= 3.5 PASS")


def test_criterion_05_exponential_bound():
    rng = np.random.default_rng(5)
    violations = 0
    worst_margin = math.inf
    for i in range(10_000):
        r = 1 if i < 6000 else (2 if i < 9000 else 3)
        frame = _random_frame(rng, r)
        u = _generic_u(rng, frame, scale=float(rng.uniform(0.2, 1.5)))
        lhs, rhs, ok, est = bound_check(ErrFnArgument(frame=frame, u=u))
        worst_margin = min(worst_margin, rhs + est - lhs)
        if not ok:
            violations += 1
    assert violations == 0
    print(f"criterion  5 factorial-Gaussian bound: 0 violations in 10000"
          f" (tightest slack {worst_margin:.3e}) PASS")


def test_criterion_06_wall_discontinuity_structure():
    rng = np.random.default_rng(6)
    worst_m = 0.0
    worst_e = 0.0
    done = 0
    while done < 50:
        frame = _random_frame(rng, 2)
        j = int(rng.integers(0, 2))
        wj = frame.w(j)
        uwall = np.array([wj[1], -wj[0]])
        uwall *= float(rng.uniform(2.0, 2.6)) / np.linalg.norm(uwall)
        if abs(frame.w(1 - j) @ uwall) < 0.3:
            continue
        done += 1
        on_wall = ErrFnArgument(frame=frame, u=uwall)
        for s in (+1, -1):
            lim = discontinuity_limit(on_wall, S=(1 - j,),
                                      approach_signs={j: s}).value
            near = ErrFnArgument(frame=frame, u=uwall + s * 1e-5 * wj,
                                 wall_eps=1e-9)
            worst_m = max(worst_m, abs(eval_M(near).value - lim))
        # E stays continuous: |grad E . step| <= 2|step| always, so the
        # two-sided gap at 1e-7 sits well under the 1e-6 comparison
        step = 1e-7 * wj / np.linalg.norm(wj)
        ep = eval_E(ErrFnArgument(frame=frame, u=uwall + step, wall_eps=1e-10))
        em = eval_E(ErrFnArgument(frame=frame, u=uwall - step, wall_eps=1e-10))
        worst_e = max(worst_e, abs(ep.value - em.value))
    assert worst_m <= 1e-6
    assert worst_e <= 1e-6
    report(6, "wall limits and continuity of the sign-weighted sum",
           max(worst_m, worst_e), 1e-6)


def _lemma_instance(rng, n: int) -> SignLemmaInstance:
    while True:
        L = [[Fraction(int(rng.integers(-4, 5))) if j <= i else Fraction(0)
              for j in range(n)] for i in range(n)]
        G = [[sum(L[i][k] * L[j][k] for k in range(n)) + (1 if i == j else 0)
              for j in range(n)] for i in range(n)]
        v = tuple(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
                  for _ in range(n))
        if all(x == 0 for x in v):
            continue
        try:
            return SignLemmaInstance(G=tuple(tuple(row) for row in G), v=v)
        except GenericityViolated:
            continue


def test_criterion_07_sign_lemma_exact():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    for n in range(1, 6):
        for _ in range(1000):
            assert sign_lemma_sum(_lemma_instance(rng, n)) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion  7 sign lemma: exactly 0 on 1000 exact instances for"
          f" each n in 1..5 ({elapsed:.1f}s) PASS")


def test_criterion_08_cone_certificate_example(capsys):
    t0 = time.monotonic()
    code = cli_main(["cones", "--builtin", "a4"])
    elapsed = time.monotonic() - t0
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["passed"] is True
    assert all(doc["conditions"].values())
    assert doc["q_minus_inertia"][:2] == [0, 8] and doc["q_minus_inertia"][2] == 0
    assert len(doc["recursion"]) == 80
    assert all(rec["verdict"] for rec in doc["recursion"])
    assert elapsed < 10.0
    print(f"criterion  8 builtin certificate: exact pass incl. 80 recursion"
          f" branches, inertia (0,8) ({elapsed:.1f}s) PASS")


def test_criterion_09_cofactor_identity_exact():
    rng = np.random.default_rng(9)
    pair = build_a4_example()
    for _ in range(100):
        x = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
             for _ in range(8)]
        assert det_identity_residual(pair, x) == 0
    for _ in range(20):
        p = _random_passing_r1_pair(rng)
        for _ in range(5):
            x = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                 for _ in range(2)]
            assert det_identity_residual(p, x) == 0
    print("criterion  9 cofactor identity: exact zero on 100 rational points"
          " + 20 random certified pairs PASS")


def test_criterion_10_theta_convergence():
    spec = d12_spec(tau=1j)
    assert check_cone_pair(spec.pair).passed
    v1 = eval_theta(spec, TruncationPolicy(tol=1e-12, initial_radius=8.0))
    v2 = eval_theta(spec, TruncationPolicy(tol=1e-12, initial_radius=16.0))
    drift = abs(v1.value - v2.value)
    assert drift < 1e-9
    short = q_expansion(spec, n_terms=8)
    long = q_expansion(spec, n_terms=20)
    # each expansion sums the ellipsoid -Q_-(k) <= 2E, E its last exponent
    assert short.radius == math.sqrt(2 * short.terms[-1].exponent)
    assert long.radius == math.sqrt(2 * long.terms[-1].exponent)
    assert long.radius > short.radius
    assert [(t.exponent, t.coefficient) for t in long.terms[:8]] == \
           [(t.exponent, t.coefficient) for t in short.terms]
    assert all(t.coefficient.denominator == 1 for t in short.terms
               if not t.wall_affected)
    assert not any(t.wall_affected for t in short.terms)
    report(10, "theta radius stability", drift, 1e-9)


def test_criterion_11_t_law_and_elliptic_phases():
    tau = 0.37 + 0.9j
    b = np.array([0.13, 0.07])
    c = np.array([0.21, -0.11])
    k0 = np.array([1.0, -1.0])
    mu = (Fraction(1, 2), Fraction(0))
    A = D22.matrix()
    worst = 0.0
    for kernel in ("holomorphic", "completed"):
        def val(bb, cc, t=tau):
            return eval_theta(d22_spec(mu, t, bb, cc, kernel)).value
        base = val(b, c)
        worst = max(worst, abs(val(b, c + b, tau + 1) - (-1j) * base))
        worst = max(worst, abs(val(b + k0, c)
                               - cmath.exp(-1j * math.pi * float(c @ A @ k0)) * base))
        worst = max(worst, abs(val(b, c + k0)
                               - cmath.exp(1j * math.pi * float(b @ A @ k0)) * base))
    assert worst <= 1e-7
    report(11, "T-law and elliptic shift phases (both kernels)", worst, 1e-7)


def test_criterion_12_s_law_fourier_inversion():
    t0 = time.monotonic()
    b = np.array([0.13, 0.07])
    c = np.array([0.21, -0.11])
    disc = discriminant_group(D22)
    vals = {nu: eval_theta(d22_spec(nu, 1j, b, c, "completed")).value
            for nu in disc}
    pref = 1j * ((-1j) * 1j) ** 1.0 / math.sqrt(len(disc))
    A = D22.matrix()
    lhss, rhss = [], []
    for mu in disc:
        lhs = eval_theta(d22_spec(mu, 1j, c, -b, "completed")).value
        mu_f = np.array([float(x) for x in mu])
        tot = sum(cmath.exp(2j * math.pi * float(
            mu_f @ A @ np.array([float(x) for x in nu]))) * vals[nu]
            for nu in disc)
        lhss.append(lhs)
        rhss.append(pref * tot)
    lhss, rhss = np.array(lhss), np.array(rhss)
    rho = np.vdot(rhss, lhss)
    rho /= abs(rho)
    worst = float(np.max(np.abs(lhss - rho * rhss)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-4
    assert elapsed < 600.0
    print(f"criterion 12 S-law at tau=i: worst {worst:.3e} <= 1e-4 up to"
          f" unimodular factor {rho:.9f} ({elapsed:.0f}s) PASS")
