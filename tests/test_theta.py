"""Indefinite theta series: enumeration, convergence, exact q-expansions,
modular and elliptic transformation laws."""

import cmath
import gc
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import PRODUCT, product_pair
from thetaforge import errfn, theta
from thetaforge.boosted import BoostedArgument, build_cone, eval_E_boosted
from thetaforge.cones import ConePair, build_a4_example, build_ar_example, build_r1_example
from thetaforge.exceptions import BudgetExceeded, ValidationError
from thetaforge.quadform import BilinearForm
from thetaforge.theta import (QExpansion, QTerm, ThetaSpec, TruncationPolicy, _CountExceeded,
                              _ball_radius, _enumerate_shifts, _pair_runtime,
                              discriminant_group, enumerate_lattice, eval_theta, kernel_phi,
                              kernel_phi_hat, q_expansion)

HYP = BilinearForm.from_rows([[0, 1], [1, 0]])
D22 = BilinearForm.from_rows([[2, 0], [0, -2]])
D12 = BilinearForm.from_rows([[1, 0], [0, -2]])


def hyp_pair():
    return ConePair.from_matrices([[1], [1]], [[2], [1]], HYP)


def d22_pair():
    return ConePair.from_matrices([[1], [0]], [[3], [1]], D22)


def d12_pair():
    return ConePair.from_matrices([[1], [0]], [[2], [1]], D12)


def hyp_spec(tau=1j, b=(0.0, 0.0), c=(0.0, 0.0), kernel="holomorphic"):
    return ThetaSpec(form=HYP, mu=(0, 0), p=(0, 0), b=np.array(b),
                     c_ell=np.array(c), tau=tau, kernel=kernel, pair=hyp_pair())


def brute_force_theta(spec: ThetaSpec, box: int) -> complex:
    """Box-truncated reference sum, entirely independent of the evaluator:
    direct loop over integer shifts, kernel from kernel_phi / kernel_phi_hat."""
    A = spec.form.matrix()
    off = np.array([float(x) for x in spec.offset])
    p = np.array([float(x) for x in spec.p])
    t2 = spec.tau.imag
    tot = 0.0 + 0.0j
    for i in range(-box, box + 1):
        for j in range(-box, box + 1):
            m = np.array([float(i), float(j)])
            k = m + off
            y = k + spec.b
            x = math.sqrt(2.0 * t2) * y
            if spec.kernel == "holomorphic":
                kv = complex(kernel_phi(spec.pair, x))
            else:
                kv = complex(kernel_phi_hat(spec.pair, x))
            if kv == 0:
                continue
            z = (1j * math.pi * float(k @ A @ p)
                 - 1j * math.pi * spec.tau * float(y @ A @ y)
                 + 2j * math.pi * float(spec.c_ell @ A @ (k + spec.b / 2.0))
                 + cmath.log(abs(kv)))
            if z.real < -60.0:
                continue
            tot += kv / abs(kv) * cmath.exp(z)
    return tot


def test_enumeration_balls():
    # the hyperbolic pair's metric -Q_- is [[6, 8], [8, 12]], so S[m] =
    # 6 m1^2 + 16 m1 m2 + 12 m2^2: radius 1 holds the origin alone, radius
    # 1.5 adds +-(1, -1) (S = 2) and radius 2 adds +-(2, -1), which lie on
    # the boundary S = 4
    spec = hyp_spec()
    assert np.array_equal(_pair_runtime(spec.pair).metric, [[6.0, 8.0], [8.0, 12.0]])
    got = {tuple(int(x) for x in row) for row in enumerate_lattice(spec, radius=1.0)}
    assert got == {(0, 0)}
    got = {tuple(int(x) for x in row) for row in enumerate_lattice(spec, radius=1.5)}
    assert got == {(0, 0), (1, -1), (-1, 1)}
    got = {tuple(int(x) for x in row) for row in enumerate_lattice(spec, radius=2.0)}
    assert got == {(0, 0), (1, -1), (-1, 1), (2, -1), (-2, 1)}


def test_odd_symmetry_value_is_zero():
    # b = c = 0 and mu = -mu: the kernel is odd so terms cancel in pairs
    res = eval_theta(hyp_spec(), TruncationPolicy(tol=1e-8))
    assert res.value == 0j
    assert res.tail_estimate < 1e-8
    assert res.n_points > 0
    assert len(res.wall_hits) > 0


def test_matches_brute_force_holomorphic():
    spec = hyp_spec(tau=0.3 + 1.0j, b=(0.1, 0.2), c=(-0.15, 0.05))
    res = eval_theta(spec, TruncationPolicy(tol=1e-10))
    ref = brute_force_theta(spec, box=18)
    assert abs(res.value - ref) < 1e-12


def test_matches_brute_force_completed():
    spec = hyp_spec(tau=0.3 + 1.0j, b=(0.1, 0.2), c=(-0.15, 0.05),
                    kernel="completed")
    res = eval_theta(spec, TruncationPolicy(tol=1e-8))
    ref = brute_force_theta(spec, box=16)
    assert abs(res.value - ref) < 1e-10


def test_completed_kernel_approaches_holomorphic_at_large_argument():
    pair = hyp_pair()
    x = np.array([12.0, -9.0])
    assert kernel_phi(pair, x) == 1.0
    assert kernel_phi_hat(pair, x) == pytest.approx(1.0, abs=1e-6)


def test_radius_doubling_stability():
    spec = hyp_spec(tau=1j, b=(0.1, 0.2), c=(-0.15, 0.05))
    v1 = eval_theta(spec, TruncationPolicy(tol=1e-10, initial_radius=8.0))
    v2 = eval_theta(spec, TruncationPolicy(tol=1e-10, initial_radius=16.0))
    assert abs(v1.value - v2.value) < 1e-9


def test_runtime_cache_frees_collected_pairs():
    gc.collect()
    before = len(theta._RUNTIME_CACHE)
    pairs = [hyp_pair() for _ in range(4)] + [product_pair()]
    runtimes = [_pair_runtime(pair) for pair in pairs]
    assert len(theta._RUNTIME_CACHE) == before + 5
    assert _pair_runtime(pairs[0]) is runtimes[0]
    eval_theta(ThetaSpec(form=PRODUCT, mu=(0,) * 4, p=(1, 0, 1, 0), b=np.zeros(4),
                         c_ell=np.zeros(4), tau=1j, pair=pairs[-1]))
    assert runtimes[-1]._sectors is None  # a holomorphic sum builds no sector table
    kernel_phi_hat(pairs[-1], np.ones(4))
    assert runtimes[-1]._sectors is not None
    del pairs
    gc.collect()
    assert len(theta._RUNTIME_CACHE) == before


def test_budget_exceeded_carries_partial():
    # tol 1e-10 asks for 11 points at tau = i
    spec = hyp_spec()
    with pytest.raises(BudgetExceeded) as exc_info:
        eval_theta(spec, TruncationPolicy(tol=1e-10, max_points=5))
    partial = exc_info.value.partial
    assert partial is not None
    assert partial.n_points <= 5


def recursive_shifts(U, t, radius, max_points):
    """Reference enumerator: one recursion frame per partial point and one
    row copy per point, the innermost coordinate vectorized. Same interval
    arithmetic as the layered enumerator, so the rows must match exactly."""
    n = U.shape[0]
    out = []
    count = 0
    m = np.zeros(n, dtype=np.int64)

    def rec(i, rem2, shift):
        nonlocal count
        uii = U[i, i]
        center = -t[i] - shift[i] / uii
        half = math.sqrt(max(rem2, 0.0)) / abs(uii)
        lo = math.ceil(center - half - 1e-12)
        hi = math.floor(center + half + 1e-12)
        if hi < lo:
            return
        if i == 0:
            ms = np.arange(lo, hi + 1, dtype=np.int64)
            v = uii * (ms + t[0]) + shift[0]
            ok = ms[v * v <= rem2 + 1e-12]
            count += len(ok)
            if count > max_points:
                raise _CountExceeded
            for m0 in ok:
                m[0] = m0
                out.append(m.copy())
            return
        for mi in range(lo, hi + 1):
            v = uii * (mi + t[i]) + shift[i]
            rem_next = rem2 - v * v
            if rem_next < -1e-12:
                continue
            m[i] = mi
            rec(i - 1, max(rem_next, 0.0), shift + U[:, i] * (mi + t[i]))

    rec(n - 1, radius * radius, np.zeros(n))
    if not out:
        return np.zeros((0, n), dtype=np.int64)
    return np.array(out, dtype=np.int64)


D12_HYP = BilinearForm.from_rows([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def a2_pair():
    """The rank-2 member of the A4 example's family: C = (e1, e2),
    C' = (e1 - e4, e2 - e3)."""
    return build_ar_example(2)


def a3_pair():
    return build_ar_example(3)


def oracle_pairs(a4_pair):
    """(name, pair, radii): the three rank-1 pairs, the product pair and the
    A2, A3 and A4 members of the A_r family."""
    rank1 = (0.0, 0.5, 1.0, 2.5, 6.0, 12.0)
    return [("d12", d12_pair(), rank1), ("d22", d22_pair(), rank1),
            ("r1", build_r1_example(), rank1),
            ("product", product_pair(), (0.5, 1.5, 3.0, 6.0, 12.0)),
            ("a2", a2_pair(), (0.5, 1.5, 3.0, 6.0)), ("a3", a3_pair(), (0.5, 1.5, 3.0, 4.5)),
            ("a4", a4_pair, (0.0, 1.0, 2.0, 3.0))]


def test_layered_enumeration_matches_recursive_oracle(a4_pair):
    rng = np.random.default_rng(20260)
    for name, pair, radii in oracle_pairs(a4_pair):
        U = _pair_runtime(pair).chol_u
        for radius in radii:
            for t in (np.zeros(pair.n), rng.uniform(-1.0, 1.0, pair.n),
                      rng.uniform(-3.0, 3.0, pair.n)):
                want = recursive_shifts(U, t, radius, 10 ** 7)
                got = _enumerate_shifts(U, t, radius, 10 ** 7)
                assert got.dtype == np.int64 and got.shape == want.shape, (name, radius, t)
                assert np.array_equal(got, want), (name, radius, t)


def test_enumeration_frees_its_rows_on_return():
    # with the cyclic collector off, nothing the enumerator built outlives
    # the result it returns
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        rows = _enumerate_shifts(np.eye(3), np.zeros(3), 30.0, 10 ** 7)
        size = rows.nbytes
        del rows
        left = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert size > 2_000_000
    assert left < 0.01 * size


def test_layered_enumeration_splits_one_wide_interval():
    # 80,001 children of the single root are built in several pieces
    U = np.array([[1.0]])
    t = np.array([0.3])
    got = _enumerate_shifts(U, t, 40000.5, 10 ** 6)
    assert np.array_equal(got, recursive_shifts(U, t, 40000.5, 10 ** 6))
    assert np.array_equal(got[:, 0], np.arange(-40000, 40001))


def test_enumeration_budget_boundary():
    spec = hyp_spec(b=(0.1, 0.2))
    n_pts = enumerate_lattice(spec, 6.0).shape[0]
    assert enumerate_lattice(spec, 6.0, max_points=n_pts).shape[0] == n_pts
    with pytest.raises(_CountExceeded):
        enumerate_lattice(spec, 6.0, max_points=n_pts - 1)
    full = eval_theta(spec, TruncationPolicy(tol=1e-10))
    exact = eval_theta(spec, TruncationPolicy(tol=1e-10, max_points=full.n_points))
    assert exact.value == full.value and exact.n_points == full.n_points
    with pytest.raises(BudgetExceeded):
        eval_theta(spec, TruncationPolicy(tol=1e-10, max_points=full.n_points - 1))


def test_enumerate_lattice_overrun_is_budget_exceeded(monkeypatch):
    spec = hyp_spec(b=(0.1, 0.2))
    n_pts = enumerate_lattice(spec, 6.0).shape[0]
    with pytest.raises(BudgetExceeded) as exc_info:
        enumerate_lattice(spec, 6.0, max_points=n_pts - 1)
    assert exc_info.value.partial is None
    with pytest.raises(ValidationError):
        enumerate_lattice(spec, 6.0, max_points=0)

    # pi 10^12 points cannot fit 1000: the count floor refuses before enumerating
    def never(*args):
        raise AssertionError("enumerated past the count floor")

    monkeypatch.setattr(theta, "_enumerate_shifts", never)
    with pytest.raises(BudgetExceeded):
        enumerate_lattice(spec, 1e6, max_points=1000)


@pytest.mark.parametrize("kwargs", [
    {"tol": math.nan}, {"tol": math.inf}, {"tol": -math.inf}, {"tol": 0.0},
    {"initial_radius": math.nan}, {"initial_radius": math.inf},
    {"initial_radius": 0.0}, {"initial_radius": -2.0},
])
def test_policy_rejects_non_finite_or_non_positive(kwargs):
    with pytest.raises(ValidationError):
        TruncationPolicy(**kwargs)


def test_spec_rejects_non_finite_inputs():
    for kwargs in ({"b": (math.nan, 0.0)}, {"c": (0.0, math.inf)},
                   {"tau": complex(math.inf, 1.0)}):
        with pytest.raises(ValidationError):
            hyp_spec(**kwargs)
    with pytest.raises(ValidationError):
        enumerate_lattice(hyp_spec(), math.nan)


def test_tiny_imaginary_tau_ends_in_budget():
    # the Gaussian bound never drops below tol at a reachable radius, so
    # the run must stop at the point budget with a partial value
    spec = ThetaSpec(form=D12, mu=(0, 0), p=(1, 0), b=np.zeros(2), c_ell=np.zeros(2),
                     tau=1e-300j, kernel="holomorphic", pair=d12_pair())
    with pytest.raises(BudgetExceeded) as exc_info:
        eval_theta(spec, TruncationPolicy(tol=1e-8, max_points=1000))
    partial = exc_info.value.partial
    assert partial is not None
    assert 0 < partial.n_points <= 1000
    assert not math.isnan(partial.tail_estimate)


def ball_count(n, covol, R):
    """vol(B_n(R)) / covol, 0 for R <= 0."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * max(R, 0.0) ** n / covol


def test_count_floor_is_a_lower_bound(a4_pair):
    # the Gram-Schmidt boxes of the points within R cover the ball of radius
    # R - cell_d and lie in the ball of radius R + cell_d
    rng = np.random.default_rng(7)
    for name, pair, radii in oracle_pairs(a4_pair):
        rt = _pair_runtime(pair)
        for radius in radii + (2.0 * radii[-1],):
            t = rng.uniform(-1.0, 1.0, pair.n)
            count = _enumerate_shifts(rt.chol_u, t, radius, 10 ** 7).shape[0]
            assert ball_count(pair.n, rt.covol, radius * (1.0 - 1e-9) - rt.cell_d) <= count, \
                (name, radius)
            assert count <= ball_count(pair.n, rt.covol, radius * (1.0 + 1e-9) + rt.cell_d), \
                (name, radius)
            if count:
                assert _ball_radius(rt, count) == pytest.approx(
                    (count / ball_count(pair.n, rt.covol, 1.0)) ** (1.0 / pair.n), rel=1e-12)


def test_budget_overrun_skips_radii_that_cannot_fit(a4_pair, monkeypatch):
    # A4 at tau = 2i, tol 1e-100: the count floor rules out the region the
    # tail bound asks for (R = 6.34) at max_points = 1000 without
    # enumerating; the partial comes from one enumeration, at the radius
    # whose volume holds max_points / 2 points
    spec = ThetaSpec(form=a4_pair.form, mu=(0,) * 8, p=(0,) * 8, b=np.zeros(8),
                     c_ell=np.zeros(8), tau=2j, kernel="holomorphic", pair=a4_pair)
    radii = []
    real = theta._enumerate_shifts

    def spy(U, t, radius, max_points):
        radii.append(radius)
        return real(U, t, radius, max_points)

    monkeypatch.setattr(theta, "_enumerate_shifts", spy)
    with pytest.raises(BudgetExceeded) as exc_info:
        eval_theta(spec, TruncationPolicy(tol=1e-100, max_points=1000))
    rt = _pair_runtime(a4_pair)
    assert radii == [pytest.approx((500 / ball_count(8, rt.covol, 1.0)) ** 0.125, rel=1e-12)]
    partial = exc_info.value.partial
    assert partial.n_points == 241
    a = math.pi * 2.0
    assert partial.tail_estimate == theta._tail_bound(theta._log_majorants(rt, a), a,
                                                      radii[0] ** 2, 1.0)
    assert 0 < partial.tail_estimate < 1e-4


def test_discriminant_group_d22():
    disc = discriminant_group(D22)
    assert len(disc) == 4
    h = Fraction(1, 2)
    assert set(disc) == {(0, 0), (0, h), (h, 0), (h, h)}


def test_mu_must_lie_in_dual_lattice():
    with pytest.raises(ValidationError):
        hyp_spec().__class__(form=HYP, mu=(Fraction(1, 2), 0), p=(0, 0),
                             b=np.zeros(2), c_ell=np.zeros(2), tau=1j,
                             kernel="holomorphic", pair=hyp_pair())


def test_p_must_be_characteristic():
    # diag(1,-2) needs p_1 odd: p = (0,0) violates A_ii + (Ap)_i even
    with pytest.raises(ValidationError):
        ThetaSpec(form=D12, mu=(0, 0), p=(0, 0), b=np.zeros(2),
                  c_ell=np.zeros(2), tau=1j, kernel="holomorphic",
                  pair=d12_pair())


def test_tau_must_be_in_upper_half_plane():
    with pytest.raises(ValidationError):
        hyp_spec(tau=1.0 - 0.5j)


def test_qexp_frozen_coefficients():
    """diag(1,-2) with p = (1,0): leading terms verified by direct counting of
    k = (k1+1/2, k2) with k1^2 + k1 + 1/4 - 2 k2^2 = 2 exponent > 0 on the
    kernel support; the smallest class gives 2 q^(7/8)."""
    spec = ThetaSpec(form=D12, mu=(0, 0), p=(1, 0), b=np.zeros(2),
                     c_ell=np.zeros(2), tau=1j, kernel="holomorphic",
                     pair=d12_pair())
    qe = q_expansion(spec, n_terms=8)
    assert isinstance(qe, QExpansion)
    assert qe.phase_exponent == Fraction(1, 2)
    got = [(t.exponent, t.coefficient, t.wall_affected) for t in qe.terms]
    assert got == [
        (Fraction(7, 8), Fraction(2), False),
        (Fraction(23, 8), Fraction(-2), False),
        (Fraction(31, 8), Fraction(2), False),
        (Fraction(47, 8), Fraction(2), False),
        (Fraction(63, 8), Fraction(-2), False),
        (Fraction(71, 8), Fraction(2), False),
        (Fraction(79, 8), Fraction(-2), False),
        (Fraction(103, 8), Fraction(2), False),
    ]
    assert all(t.coefficient.denominator == 1 for t in qe.terms)


def test_qexp_stable_under_larger_radius():
    spec = ThetaSpec(form=D12, mu=(0, 0), p=(1, 0), b=np.zeros(2),
                     c_ell=np.zeros(2), tau=1j, kernel="holomorphic",
                     pair=d12_pair())
    short = q_expansion(spec, n_terms=8)
    long = q_expansion(spec, n_terms=20)
    assert long.radius > short.radius
    assert [(t.exponent, t.coefficient) for t in long.terms[:8]] == \
           [(t.exponent, t.coefficient) for t in short.terms]


def test_qexp_reconstructs_value():
    spec = ThetaSpec(form=D12, mu=(0, 0), p=(1, 0), b=np.zeros(2),
                     c_ell=np.zeros(2), tau=0.2 + 1.1j, kernel="holomorphic",
                     pair=d12_pair())
    qe = q_expansion(spec, n_terms=24)
    q = cmath.exp(2j * math.pi * spec.tau)
    series = cmath.exp(1j * math.pi * float(qe.phase_exponent)) * sum(
        float(t.coefficient) * q ** float(t.exponent) for t in qe.terms)
    direct = eval_theta(spec, TruncationPolicy(tol=1e-14)).value
    assert abs(series - direct) < 1e-10


def test_qexp_wall_classes_flagged():
    """On the hyperbolic plane with mu = 0 the support boundary passes through
    lattice points: the classes of k = (-j, j) and (-2j, j), exponents j^2
    and 2 j^2, hold support points of weight 1/2 on a wall, carry
    wall_affected and depend on the sign(0) = 0 convention. The interior
    classes are k1 k2 = -6, -12, -15, ... The origin, on both walls with
    phi = 0, is no support point, so exponent 0 is no class."""
    spec = hyp_spec()
    qe = q_expansion(spec, n_terms=9)
    got = [(t.exponent, t.wall_affected) for t in qe.terms]
    assert got == [(Fraction(e), e not in (6, 12, 15)) for e in (1, 2, 4, 6, 8, 9, 12, 15, 16)]
    # this class is even under k -> -k, so the odd kernel cancels every term
    assert all(t.coefficient == 0 for t in qe.terms)


def fraction_q_expansion(spec: ThetaSpec, n_terms: int):
    """Reference q-expansion: one point at a time in Fraction arithmetic.
    Only support points (phi != 0) make classes, a vanishing sign argument
    among them flags a wall hit, and Q <= Q_- is checked on each. The
    region -Q_-(k) <= T doubles from T = 1 until n_terms classes have
    exponent <= T/2, which makes them complete; with E_n the last of them,
    the points of -Q_-(k) <= 2 E_n (1 + 1e-9) are counted. q_expansion's
    region is that one, so (terms, n_points, radius) must agree exactly."""
    rt = _pair_runtime(spec.pair)
    A = spec.form.exact()
    q_minus = rt.report.q_minus
    off = spec.offset
    t = np.array([float(o) for o in off])

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def sign(x):
        return (x > 0) - (x < 0)

    def classes_within(T):
        m = _enumerate_shifts(rt.chol_u, t, math.sqrt(T), 10 ** 7)
        classes = {}
        for row in m:
            k = [Fraction(int(x)) + o for x, o in zip(row, off)]
            Ak = [dot(Ai, k) for Ai in A]
            phi, hit = Fraction(1), False
            for c, cp in zip(spec.pair.C, spec.pair.C_prime):
                s1, s2 = dot(c, Ak), dot(cp, Ak)
                hit = hit or s1 == 0 or s2 == 0
                phi *= Fraction(sign(s1) - sign(s2), 2)
            if phi == 0:
                continue
            qk = dot(k, Ak)
            if qk > dot(k, [dot(row_q, k) for row_q in q_minus]):
                raise ValidationError(f"support point {tuple(k)} violates Q <= Q_- exactly")
            bmp = sum(int(row[i]) * spec.p[j] * A[i][j]
                      for i in range(spec.form.n) for j in range(spec.form.n))
            cur = classes.setdefault(-qk / 2, [Fraction(0), False])
            cur[0] += phi if bmp % 2 == 0 else -phi
            cur[1] = cur[1] or hit
        return classes

    T = 1.0
    while True:
        classes = classes_within(T)
        complete = sorted(e for e in classes if e <= T / 2)
        if len(complete) >= n_terms:
            break
        T *= 2.0
    E = complete[n_terms - 1]
    terms = tuple(QTerm(exponent=e, coefficient=classes[e][0], wall_affected=classes[e][1])
                  for e in complete[:n_terms])
    n_points = _enumerate_shifts(rt.chol_u, t, math.sqrt(float(2 * E) * (1.0 + 1e-9)),
                                 10 ** 7).shape[0]
    return terms, n_points, math.sqrt(2 * E)


def qexp_spec(name: str) -> ThetaSpec:
    pairs = {
        "d12": (d12_pair(), (0, 0), (1, 0)),
        # offset denominators: k = m + (1/2, 0)
        "d22_half": (d22_pair(), (Fraction(1, 2), 0), (0, 0)),
        "d11": (build_r1_example(), (0, 0), (1, 1)),
        "hyp": (hyp_pair(), (0, 0), (0, 0)),
        "product": (product_pair(), (0,) * 4, (1, 0, 1, 0)),
        "a2": (a2_pair(), (0,) * 4, (0,) * 4),
        # walls only in the second factor: behind a zero first factor they
        # are no hit, and the point leaves no class
        "d12_hyp": (ConePair.from_matrices(
            [[1, 0], [0, 0], [0, 1], [0, 1]], [[2, 0], [1, 0], [0, 2], [0, 1]], D12_HYP),
            (0,) * 4, (1, 0, 0, 0)),
    }
    pair, mu, p = pairs[name]
    return ThetaSpec(form=pair.form, mu=mu, p=p, b=np.zeros(pair.n), c_ell=np.zeros(pair.n),
                     tau=1j, kernel="holomorphic", pair=pair)


@pytest.mark.parametrize("name, n_terms", [
    ("d12", 20), ("d22_half", 20), ("d11", 20), ("hyp", 12), ("product", 4), ("a2", 6),
    ("d12_hyp", 6)])
def test_qexp_matches_fraction_oracle(name, n_terms):
    spec = qexp_spec(name)
    qe = q_expansion(spec, n_terms)
    terms, n_points, radius = fraction_q_expansion(spec, n_terms)
    assert repr(qe.terms) == repr(terms)
    assert (qe.n_points, qe.radius) == (n_points, radius)
    if name in ("hyp", "d12_hyp"):
        assert any(t.wall_affected for t in qe.terms)


@pytest.mark.parametrize("eps", [Fraction(1, 8), Fraction(1, 10 ** 30)])
def test_qexp_support_check_is_exact(monkeypatch, eps):
    # Q_- = A - eps I sits below Q on every nonzero k, by as little as
    # 1e-30 |k|^2, which no float comparison resolves
    spec = qexp_spec("d12")
    report = _pair_runtime(spec.pair).report
    n = spec.form.n
    monkeypatch.setattr(report, "q_minus", tuple(
        tuple(Fraction(spec.form.rows[i][j]) - (eps if i == j else 0) for j in range(n))
        for i in range(n)))
    with pytest.raises(ValidationError, match="violates Q <= Q_- exactly"):
        q_expansion(spec, 4)


def test_qexp_support_check_allows_equality(monkeypatch):
    spec = qexp_spec("d12")
    want = q_expansion(spec, 8)
    report = _pair_runtime(spec.pair).report
    monkeypatch.setattr(report, "q_minus", tuple(
        tuple(Fraction(x) for x in row) for row in spec.form.rows))
    assert q_expansion(spec, 8) == want


def test_qexp_object_dtype_matches_int64(monkeypatch):
    chosen = []
    real = theta._frame_dtype

    def spy(*args):
        chosen.append(real(*args))
        return chosen[-1]

    monkeypatch.setattr(theta, "_frame_dtype", spy)
    for name, n_terms in (("d22_half", 12), ("hyp", 9), ("product", 4)):
        spec = qexp_spec(name)
        want = q_expansion(spec, n_terms)
        assert set(chosen) == {np.int64}
        chosen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(theta, "_INT64_BOUND", 0)
            got = q_expansion(spec, n_terms)
        assert set(chosen) == {object}
        chosen.clear()
        assert got == want and repr(got) == repr(want)


def test_qexp_requires_zero_elliptic_variables():
    with pytest.raises(ValidationError):
        q_expansion(hyp_spec(b=(0.1, 0.0)), n_terms=4)


def test_t_law_phase():
    # mu = (1/2, 0) on diag(2,-2): theta(tau+1, b, c+b) = -i theta(tau, b, c)
    tau = 0.37 + 0.9j
    b = np.array([0.13, 0.07])
    c = np.array([0.21, -0.11])
    mu = (Fraction(1, 2), Fraction(0))
    pair = d22_pair()
    for kernel in ("holomorphic", "completed"):
        lhs = eval_theta(ThetaSpec(form=D22, mu=mu, p=(0, 0), b=b, c_ell=c + b,
                                   tau=tau + 1, kernel=kernel, pair=pair)).value
        rhs = -1j * eval_theta(ThetaSpec(form=D22, mu=mu, p=(0, 0), b=b, c_ell=c,
                                         tau=tau, kernel=kernel, pair=pair)).value
        assert abs(lhs - rhs) < 1e-7


def test_elliptic_shift_phases():
    tau = 0.37 + 0.9j
    b = np.array([0.13, 0.07])
    c = np.array([0.21, -0.11])
    k0 = np.array([1.0, -1.0])
    mu = (Fraction(1, 2), Fraction(0))
    pair = d22_pair()
    A = D22.matrix()
    for kernel in ("holomorphic", "completed"):
        def val(bb, cc):
            return eval_theta(ThetaSpec(form=D22, mu=mu, p=(0, 0), b=bb, c_ell=cc,
                                        tau=tau, kernel=kernel, pair=pair)).value
        base = val(b, c)
        assert abs(val(b + k0, c)
                   - cmath.exp(-1j * math.pi * float(c @ A @ k0)) * base) < 1e-7
        assert abs(val(b, c + k0)
                   - cmath.exp(1j * math.pi * float(b @ A @ k0)) * base) < 1e-7


def test_s_law_at_tau_i():
    """Completed kernel at tau = i: theta_mu(-1/tau, c, -b) equals the
    discrete Fourier transform of theta_nu(tau, b, c) with prefactor
    i^(lam+r) (-i tau)^(lam+n/2) / sqrt(|disc|), up to one constant
    unimodular factor shared by every class."""
    b = np.array([0.13, 0.07])
    c = np.array([0.21, -0.11])
    pair = d22_pair()
    disc = discriminant_group(D22)
    vals = {nu: eval_theta(ThetaSpec(form=D22, mu=nu, p=(0, 0), b=b, c_ell=c,
                                     tau=1j, kernel="completed", pair=pair)).value
            for nu in disc}
    pref = 1j * ((-1j) * 1j) ** 1.0 / math.sqrt(len(disc))
    Af = D22.matrix()
    lhss, rhss = [], []
    for mu_t in disc:
        lhs = eval_theta(ThetaSpec(form=D22, mu=mu_t, p=(0, 0), b=c, c_ell=-b,
                                   tau=1j, kernel="completed", pair=pair)).value
        mu_f = np.array([float(x) for x in mu_t])
        tot = sum(cmath.exp(2j * math.pi * float(
            mu_f @ Af @ np.array([float(x) for x in nu]))) * vals[nu]
            for nu in disc)
        lhss.append(lhs)
        rhss.append(pref * tot)
    lhss, rhss = np.array(lhss), np.array(rhss)
    rho = np.vdot(rhss, lhss)
    rho /= abs(rho)
    assert float(np.max(np.abs(lhss - rho * rhss))) < 1e-6
    # the constant factor is unimodular by construction; it must be near 1
    assert abs(abs(rho) - 1.0) < 1e-12


def test_repeated_eval_theta_is_identical():
    spec = hyp_spec(tau=0.3 + 1.0j, b=(0.1, 0.2), c=(-0.15, 0.05))
    v1 = eval_theta(spec, TruncationPolicy(tol=1e-10))
    v2 = eval_theta(spec, TruncationPolicy(tol=1e-10))
    assert v1.value == v2.value
    assert v1.n_points == v2.n_points


def boosted_kernel_sum(pair, x) -> float:
    """2^-r sum_P (-1)^|P| E^A(C^P; x), each cone built apart by build_cone
    and evaluated at the one point x."""
    total = 0.0
    for mask in range(2 ** pair.r):
        cols = [pair.C_prime[j] if mask >> j & 1 else pair.C[j] for j in range(pair.r)]
        C = np.array([[float(v) for v in col] for col in cols]).T
        total += (-1.0) ** bin(mask).count("1") * eval_E_boosted(
            BoostedArgument(cone=build_cone(C, pair.form), x=x)).value
    return total / 2.0 ** pair.r


@pytest.mark.parametrize("make_pair, count", [(product_pair, 12), (a2_pair, 12),
                                              (a3_pair, 12), (build_a4_example, 3)])
def test_batched_kernel_rows(monkeypatch, make_pair, count):
    # each row of one call equals the one-point kernel bit for bit, and the
    # 2^r boosted E sum to 4e-15. Points go in pieces of two at rank 2 and of
    # one at ranks 3 and 4; orthant integrals in pieces of three rows at rank
    # 2 and of one row at ranks 3 and 4. A rank-4 row is also cut into 64
    # one-node slabs, while a rank-3 row (64^2 cells) goes whole
    monkeypatch.setattr(theta, "_FORMS", 2 * 54)
    monkeypatch.setattr(errfn, "_J_CELLS", 3 * 64)
    pair = make_pair()
    X = np.random.default_rng(4099).normal(size=(count, pair.n)) * 1.5
    batch = theta._phi_hat(_pair_runtime(pair), X)
    for x, got in zip(X, batch):
        assert got == kernel_phi_hat(pair, x)
        assert abs(got - boosted_kernel_sum(pair, x)) <= 4e-15


def d12_log_kernel(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log |value|) of the completed kernel of d12_pair at the rows of
    X: 1/2 (erf a - erf b) with a, b = sqrt(pi) B(c, x) / sqrt(Q(c)) for c =
    (1, 0) and c' = (2, 1); where a and b share a sign it is 1/2 sign(a)
    (erfc |b| - erfc |a|), with erfc lo - erfc hi = e^{-lo^2} (erfcx lo -
    erfcx hi e^{lo^2 - hi^2}) and the e^{-lo^2} kept as its exponent, so
    nothing cancels or underflows."""
    from scipy.special import erf, erfcx
    a = math.sqrt(math.pi) * X[:, 0]
    b = math.sqrt(math.pi) * (2.0 * X[:, 0] - 2.0 * X[:, 1]) / math.sqrt(2.0)
    lo, hi = np.minimum(np.abs(a), np.abs(b)), np.maximum(np.abs(a), np.abs(b))
    straddle = 0.5 * (erf(a) - erf(b))
    with np.errstate(divide="ignore"):
        log_gap = -lo * lo + np.log(0.5 * (erfcx(lo) - erfcx(hi) * np.exp(lo * lo - hi * hi)))
        same = a * b > 0
        sign = np.where(same, np.sign(a) * np.where(np.abs(b) < np.abs(a), 1.0, -1.0),
                        np.sign(straddle))
        return sign, np.where(same, log_gap, np.log(np.abs(straddle)))


def d12_kernel(X: np.ndarray) -> np.ndarray:
    sign, log = d12_log_kernel(X)
    return sign * np.exp(log)


def test_product_kernel_is_product_of_rank1_kernels():
    X = np.random.default_rng(77).normal(size=(400, 4)) * 1.2
    got = theta._phi_hat(_pair_runtime(product_pair()), X)
    want = d12_kernel(X[:, :2]) * d12_kernel(X[:, 2:])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


# four points where the product pair's kernel is below 1e-15 (SMALL_PHI_POINTS
# of bench/tfbench/errfn.py), which the 2^r-cone sum of E values missed by
# 6e-5 to 140 relative, or returned as exactly 0
SMALL_PHI_POINTS = ((-0.011, 1.641, -3.221, 0.988), (-3.194, 1.576, 1.453, 3.236),
                    (-3.148, 3.785, 3.365, 1.953), (-0.338, -1.924, -3.557, 0.646))


def test_small_product_kernel_values():
    X = np.array(SMALL_PHI_POINTS)
    want = d12_kernel(X[:, :2]) * d12_kernel(X[:, 2:])
    assert np.all((np.abs(want) < 1e-15) & (want != 0.0))
    got = np.array([kernel_phi_hat(product_pair(), x) for x in X])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("make_pair", [product_pair, a2_pair, d12_pair])
def test_kernel_on_the_b0_lattice_grid(make_pair):
    # x = sqrt(1.4) k, |k_i| <= 2: b = 0 puts about half of these points on a
    # wall of some sector, where each sign is the one-sided limit along the
    # pair's fixed direction; the 2^r boosted E sum has no walls
    pair = make_pair()
    ks = np.stack(np.meshgrid(*[np.arange(-2, 3)] * pair.n, indexing="ij"), -1).reshape(-1, pair.n)
    X = math.sqrt(1.4) * ks
    got = theta._phi_hat(_pair_runtime(pair), X)
    want = np.array([boosted_kernel_sum(pair, x) for x in X])
    assert np.max(np.abs(got - want)) <= 1e-14


def test_kernel_is_continuous_across_walls():
    # on the A2 pair, at a point of the top-level wall B(c_1, x) = 0 and at
    # one of the complement wall B(c_2 - Pr c_2, x) = 0 of sector ({1}, {}),
    # the kernel 1e-13 relative to either side equals its value on the wall
    pair = a2_pair()
    A = pair.form.matrix()
    c1, c2 = (np.array([float(v) for v in col]) for col in pair.C)
    normals = [A @ c1, A @ (c2 - c1 * (c1 @ A @ c2) / (c1 @ A @ c1))]
    rng = np.random.default_rng(5)
    for nrm in normals:
        x = rng.normal(size=4) * 1.5
        x -= nrm * (nrm @ x) / (nrm @ nrm)
        on = kernel_phi_hat(pair, x)
        assert abs(on - boosted_kernel_sum(pair, x)) <= 1e-14
        step = 1e-13 * np.linalg.norm(x) * nrm / np.linalg.norm(nrm)
        for side in (x + step, x - step):
            assert abs(kernel_phi_hat(pair, side) - on) <= 1e-14


@pytest.mark.parametrize("make_pair, x", [(product_pair, [1.0, 2.0, 3.0]),
                                          (d12_pair, [np.nan, 0.0])])
def test_kernel_phi_hat_rejects_bad_points(make_pair, x):
    with pytest.raises(ValueError):
        kernel_phi_hat(make_pair(), x)


def remainder_spec(name, a4_pair, kernel, rng):
    """(spec, tol) of one remainder case: tau and tol keep the ellipsoid of
    4T small enough to sum, b and c_ell are drawn from rng."""
    pairs = {"hyp": (hyp_pair(), (0, 0)), "d12": (d12_pair(), (1, 0)),
             "product": (product_pair(), (1, 0, 1, 0)), "a2": (a2_pair(), (0,) * 4),
             "a3": (a3_pair(), (0,) * 6), "a4": (a4_pair, (0,) * 8)}
    pair, p = pairs[name]
    if kernel == "holomorphic":
        tau, tol = (2j, 1e-2) if name in ("a3", "a4") else (0.3 + 0.8j, 1e-8)
    else:
        tau, tol = {"a4": (0.3 + 128j, 1e-4), "a3": (0.3 + 32j, 1e-2), "a2": (0.3 + 2j, 1e-2),
                    "product": (0.3 + 2j, 1e-2)}.get(name, (0.3 + 0.8j, 1e-8))
    n = pair.n
    return ThetaSpec(form=pair.form, mu=(0,) * n, p=p, b=rng.uniform(-0.5, 0.5, n),
                     c_ell=rng.uniform(-0.5, 0.5, n), tau=tau, kernel=kernel, pair=pair), tol


def term_magnitudes(spec, m):
    """|term| at each row of m. The completed product pair's kernel is the
    product of two rank-1 kernels and Q splits as Q_1 + Q_2, so its terms
    are products of cancellation-free rank-1 terms, summed in log space
    (d12_log_kernel) and independent of the library's kernel; every other
    case takes the library's terms."""
    if spec.kernel == "holomorphic" or spec.form != PRODUCT:
        return np.abs(theta._terms(spec, m, _pair_runtime(spec.pair))[0])
    Y = m + spec.offset_float + spec.b
    log = np.zeros(len(m))
    for half in (slice(0, 2), slice(2, 4)):
        y = Y[:, half]
        log += (d12_log_kernel(math.sqrt(2.0 * spec.tau.imag) * y)[1]
                + math.pi * spec.tau.imag * np.einsum("ki,ij,kj->k", y, D12.matrix(), y))
    return np.exp(log)


@pytest.mark.parametrize("name, kernel", [
    ("hyp", "holomorphic"), ("d12", "holomorphic"), ("product", "holomorphic"),
    ("a2", "holomorphic"), ("a3", "holomorphic"), ("a4", "holomorphic"), ("hyp", "completed"),
    ("d12", "completed"), ("product", "completed"), ("a2", "completed"),
    ("a3", "completed"), ("a4", "completed")])
def test_remainder_beyond_region_within_tail_estimate(a4_pair, name, kernel):
    # enumerate to 4T: the |terms| found beyond T sum to at most the
    # claimed tail_estimate, which sits at tol
    spec, tol = remainder_spec(name, a4_pair, kernel, np.random.default_rng(41))
    got = eval_theta(spec, TruncationPolicy(tol=tol))
    rt = _pair_runtime(spec.pair)
    gamma, K = (1.0, 1.0) if kernel == "holomorphic" else rt.sectors()[:2]
    a = math.pi * spec.tau.imag * gamma
    T = theta._region(theta._log_majorants(rt, a), a, tol, K)
    assert tol * 0.999 < got.tail_estimate <= tol
    t = spec.offset_float + spec.b
    m = _enumerate_shifts(rt.chol_u, t, 2.0 * math.sqrt(T), 10 ** 7)
    S = np.einsum("ki,ij,kj->k", m + t, rt.metric, m + t)
    beyond = S > T * (1.0 + 1e-9)
    assert np.count_nonzero(~beyond) == got.n_points
    assert np.count_nonzero(beyond) >= 2 * got.n_points
    assert float(term_magnitudes(spec, m[beyond]).sum()) <= got.tail_estimate
    if kernel == "completed" and name == "product":
        # the library's terms, out to 4T, against the factored reference
        want = term_magnitudes(spec, m)
        assert np.all(np.abs(np.abs(theta._terms(spec, m, rt)[0]) - want) <= 1e-10 * want)


def test_a4_value_and_q_expansion_finish(a4_pair):
    spec = ThetaSpec(form=a4_pair.form, mu=(0,) * 8, p=(0,) * 8, b=np.zeros(8),
                     c_ell=np.zeros(8), tau=2j, kernel="holomorphic", pair=a4_pair)
    v = eval_theta(spec, TruncationPolicy(tol=1e-8, max_points=1_000_000))
    assert v.n_points <= 1_000_000 and v.tail_estimate <= 1e-8
    qe = q_expansion(spec, 10)
    assert [t.exponent for t in qe.terms] == [Fraction(e) for e in range(1, 11)]
    assert all(t.coefficient == 0 for t in qe.terms)
    assert qe.radius == math.sqrt(20)
    # so the value at tau = 2i is below |q|^11 = e^{-44 pi} beside its tail
    assert abs(v.value) <= v.tail_estimate


def test_points_per_tol_product_low_tau():
    # the product pair at Im tau = 0.6, tol 1e-8: 465 points in the -Q_-
    # ellipsoid of the closed-form T
    spec = ThetaSpec(form=PRODUCT, mu=(0,) * 4, p=(1, 0, 1, 0),
                     b=np.array([0.1, 0.2, -0.15, 0.05]), c_ell=np.array([0.05, -0.1, 0.2, 0.1]),
                     tau=0.1 + 0.6j, kernel="holomorphic", pair=product_pair())
    v = eval_theta(spec, TruncationPolicy(tol=1e-8))
    assert v.n_points <= 1000
    assert v.tail_estimate <= 1e-8


def test_completed_product_value_is_product_of_rank1_values():
    # the product pair's series factorizes into two diag(1,-2) series; the
    # 2^r-cone sum of E values missed this product by 46 times its size
    rng = np.random.default_rng(15)
    b, c_ell, tau = rng.uniform(-0.5, 0.5, 4), rng.uniform(-0.5, 0.5, 4), 0.1 + 1.5j
    got = eval_theta(ThetaSpec(form=PRODUCT, mu=(0,) * 4, p=(1, 0, 1, 0), b=b, c_ell=c_ell,
                               tau=tau, kernel="completed", pair=product_pair()),
                     TruncationPolicy(tol=1e-12)).value
    want = 1.0
    for h in (slice(0, 2), slice(2, 4)):
        want *= eval_theta(ThetaSpec(form=D12, mu=(0, 0), p=(1, 0), b=b[h], c_ell=c_ell[h],
                                     tau=tau, kernel="completed", pair=d12_pair()),
                           TruncationPolicy(tol=1e-14)).value
    assert abs(got - want) <= 1e-10 * abs(want)


# (form, c, c', mu, p) of the three rank-1 pairs, and one (tau, b, c_ell)
# per pair where the difference of two erfs lost 4e-10 to 1.1e-9
RANK1_PAIRS = (([[1, 0], [0, -2]], (1, 0), (2, 1), (0, 0), (1, 0)),
               ([[2, 0], [0, -2]], (1, 0), (3, 1), (Fraction(1, 2), 0), (0, 0)),
               ([[1, 0], [0, -1]], (1, 0), (2, 1), (0, 0), (1, 1)))
CANCELLING_INPUTS = ((complex(-0.215, 1.936), (0.157, -0.135), (0.017, 0.275)),
                     (complex(-0.049, 1.761), (0.23, 0.019), (-0.317, -0.262)),
                     (complex(-0.368, 1.12), (-0.069, 0.453), (0.184, 0.211)))


def log_space_completed_sum(rows, c, cp, mu, p, tau, b, c_ell, half_width=40):
    """(value, sum of |terms|) of the rank-1 completed series over a box, each
    kernel 1/2 (erf u - erf v) taken in log space: where u and v share a sign
    it is 1/2 (erfc |v| - erfc |u|) (mirrored), with log erfc from
    scipy's log_ndtr and the difference from log1p, so nothing cancels
    before the q-power multiplies it."""
    from scipy.special import erf, log_ndtr
    A = np.array(rows, dtype=float)
    ax = np.arange(-half_width, half_width + 1, dtype=float)
    K = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    K = K + np.array([float(mu[i]) + p[i] / 2.0 for i in range(2)])
    Y = K + np.asarray(b)
    X = math.sqrt(2.0 * tau.imag) * Y
    c, cp = np.array(c, dtype=float), np.array(cp, dtype=float)
    u = math.sqrt(math.pi) * (X @ (A @ c)) / math.sqrt(c @ A @ c)
    v = math.sqrt(math.pi) * (X @ (A @ cp)) / math.sqrt(cp @ A @ cp)
    same = u * v > 0
    lu = math.log(2.0) + log_ndtr(-math.sqrt(2.0) * np.abs(u))  # log erfc |u|
    lv = math.log(2.0) + log_ndtr(-math.sqrt(2.0) * np.abs(v))
    hi, lo = np.maximum(lu, lv), np.minimum(lu, lv)
    with np.errstate(divide="ignore"):
        log_same = hi + np.log1p(-np.exp(lo - hi))
        diff = 0.5 * (erf(u) - erf(v))
        logphi = np.where(same, log_same - math.log(2.0), np.log(np.abs(diff)))
    sgn = np.where(same, np.sign(u) * np.sign(lv - lu), np.sign(diff))
    q = np.einsum("ki,ij,kj->k", Y, A, Y)
    keep = sgn != 0
    z = (1j * math.pi * (K[keep] @ (A @ np.array(p, dtype=float)))
         - 1j * math.pi * tau * q[keep]
         + 2j * math.pi * ((K[keep] + np.asarray(b) / 2.0) @ (A @ np.asarray(c_ell)))
         + logphi[keep])
    terms = sgn[keep] * np.exp(z)
    return complex(terms.sum()), float(np.abs(terms).sum())


def test_rank1_completed_values_do_not_cancel():
    rng = np.random.default_rng(2027)
    cases = [(j, tau, b, c) for j, (tau, b, c) in enumerate(CANCELLING_INPUTS)]
    for j in range(30):
        cases.append((j % 3, complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0)),
                      tuple(rng.uniform(-0.5, 0.5, 2)), tuple(rng.uniform(-0.5, 0.5, 2))))
    for j, tau, b, c_ell in cases:
        rows, c, cp, mu, p = RANK1_PAIRS[j]
        form = BilinearForm.from_rows(rows)
        pair = ConePair.from_matrices([[c[0]], [c[1]]], [[cp[0]], [cp[1]]], form)
        spec = ThetaSpec(form=form, mu=mu, p=p, b=np.array(b), c_ell=np.array(c_ell),
                         tau=tau, kernel="completed", pair=pair)
        got = eval_theta(spec, TruncationPolicy(tol=1e-20))
        want, mags = log_space_completed_sum(rows, c, cp, mu, p, tau, b, c_ell)
        assert abs(got.value - want) <= got.tail_estimate + 2e-14 * mags, (j, tau, b, c_ell)


def test_theta3_majorant_bounds_every_shifted_gaussian_sum(a4_pair):
    # log F_s against sum_k e^{-beta k^2} summed directly, one u_ii at a
    # time, and F_s above the Gaussian sum over y in Z^n + t it bounds
    one_row = SimpleNamespace(u2=np.array([1.0]))
    k = np.arange(-4000, 4001, dtype=float)
    for beta in (1e-3, 0.05, 1.0, math.pi, 3.2, 40.0):
        got = theta._log_majorants(one_row, beta / (1.0 - theta._S_GRID[0]))[0]
        assert got == pytest.approx(math.log(np.exp(-beta * k * k).sum()), rel=1e-12, abs=1e-14)
    # every s of the grid in two dimensions, s <= 1/2 in four, where the
    # ellipsoid (1 - s) a S[y] <= 40 stays small; the terms left out of
    # each sum are below e^-40 relative
    rng = np.random.default_rng(11)
    for pair, least in ((d12_pair(), 0.05), (hyp_pair(), 0.05), (product_pair(), 0.5),
                        (a2_pair(), 0.5)):
        rt = _pair_runtime(pair)
        cols = 1.0 - theta._S_GRID >= least
        for a in (0.2, 1.0, 5.0) if pair.n == 2 else (1.0, 5.0):
            log_f = theta._log_majorants(rt, a)[cols]
            for t in (np.zeros(pair.n), rng.uniform(-0.5, 0.5, pair.n)):
                m = _enumerate_shifts(rt.chol_u, t, math.sqrt(40.0 / (least * a)), 10 ** 7)
                S = np.einsum("ki,ij,kj->k", m + t, rt.metric, m + t)
                sums = np.exp(-np.outer(1.0 - theta._S_GRID[cols], a * S)).sum(axis=1)
                assert np.all(np.log(sums) <= log_f + 1e-12), (pair.form, a, t)
