"""Indefinite theta series: enumeration, convergence, exact q-expansions,
modular and elliptic transformation laws."""

import cmath
import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from thetaforge import theta
from thetaforge.boosted import BoostedArgument, build_cone, eval_E_boosted
from thetaforge.cones import ConePair, build_a4_example
from thetaforge.exceptions import BudgetExceeded, ValidationError
from thetaforge.quadform import BilinearForm
from thetaforge.theta import (QExpansion, QTerm, ThetaSpec, TruncationPolicy, _CountExceeded,
                              _enumerate_shifts, _log_count_floor, _pair_runtime,
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
    # majorant of the hyperbolic plane is the identity, so the enumeration
    # region is the round ball: radius 1 gives the 5-point cross, radius 1.5
    # adds the corners for the full 3x3 box
    spec = hyp_spec()
    got = {tuple(int(x) for x in row) for row in enumerate_lattice(spec, radius=1.0)}
    assert got == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    got = {tuple(int(x) for x in row) for row in enumerate_lattice(spec, radius=1.5)}
    assert got == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}


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
    kernel_phi_hat(pairs[-1], np.ones(4))  # builds the completion data
    assert runtimes[-1]._completion is not None
    del pairs
    gc.collect()
    assert len(theta._RUNTIME_CACHE) == before


def test_budget_exceeded_carries_partial():
    spec = hyp_spec()
    with pytest.raises(BudgetExceeded) as exc_info:
        eval_theta(spec, TruncationPolicy(tol=1e-10, max_points=30))
    partial = exc_info.value.partial
    assert partial is not None
    assert partial.n_points <= 30


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


PRODUCT = BilinearForm.from_rows([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, -2]])
A2 = BilinearForm.from_rows([[2, -1, -1, 0], [-1, 2, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]])
D12_HYP = BilinearForm.from_rows([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def product_pair():
    """d12_pair + d12_pair: c = (e1, e3), c' = (2e1 + e2, 2e3 + e4)."""
    return ConePair.from_matrices([[1, 0], [0, 0], [0, 1], [0, 0]],
                                  [[2, 0], [1, 0], [0, 2], [0, 1]], PRODUCT)


def a2_pair():
    """The rank-2 A2 analogue of the A4 example: C = (e1, e2),
    C' = (e1 - e4, e2 - e3)."""
    return ConePair.from_matrices([[1, 0], [0, 1], [0, 0], [0, 0]],
                                  [[1, 0], [0, 1], [0, -1], [-1, 0]], A2)


def oracle_pairs(a4_pair):
    """(name, pair, radii): the three rank-1 pairs, the product pair, the
    rank-2 A2 analogue of the A4 example and A4 itself."""
    r1 = ConePair.from_matrices([[1], [0]], [[2], [1]],
                                BilinearForm.from_rows([[1, 0], [0, -1]]))
    rank1 = (0.0, 0.5, 1.0, 2.5, 6.0, 12.0)
    return [("d12", d12_pair(), rank1), ("d22", d22_pair(), rank1), ("r1", r1, rank1),
            ("product", product_pair(), (0.5, 1.5, 3.0, 6.0, 12.0)),
            ("a2", a2_pair(), (0.5, 1.5, 3.0, 6.0)), ("a4", a4_pair, (0.0, 1.0, 2.0, 3.0))]


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


def test_count_floor_is_a_lower_bound(a4_pair):
    rng = np.random.default_rng(7)
    for name, pair, radii in oracle_pairs(a4_pair):
        rt = _pair_runtime(pair)
        for radius in radii + (2.0 * radii[-1],):
            t = rng.uniform(-1.0, 1.0, pair.n)
            count = _enumerate_shifts(rt.chol_u, t, radius, 10 ** 7).shape[0]
            assert math.exp(_log_count_floor(rt, radius)) <= count, (name, radius)


def test_budget_overrun_skips_radii_that_cannot_fit(a4_pair, monkeypatch):
    # A4 at tau = 2i: the tail bound asks for R = 41.6, and the count floor
    # rules out 41.6, 20.8 and 10.4 at max_points = 1e5 without enumerating
    spec = ThetaSpec(form=a4_pair.form, mu=(0,) * 8, p=(0,) * 8, b=np.zeros(8),
                     c_ell=np.zeros(8), tau=2j, kernel="holomorphic", pair=a4_pair)
    radii = []
    real = theta._enumerate_shifts

    def spy(U, t, radius, max_points):
        radii.append(radius)
        return real(U, t, radius, max_points)

    monkeypatch.setattr(theta, "_enumerate_shifts", spy)
    with pytest.raises(BudgetExceeded) as exc_info:
        eval_theta(spec, TruncationPolicy(tol=1e-2, max_points=100_000))
    assert len(radii) == 2
    assert radii[1] == radii[0] / 2.0
    assert exc_info.value.partial.n_points == 8569


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
    lattice points: those classes carry wall_affected and their coefficients
    depend on the sign(0) = 0 convention."""
    spec = hyp_spec()
    qe = q_expansion(spec, n_terms=9)
    flags = {t.exponent: t.wall_affected for t in qe.terms}
    for e in (0, 1, 2, 4, 8, 9):
        assert flags[Fraction(e)] is True, e
    for e in (6, 12, 15):
        assert flags[Fraction(e)] is False, e
    # this class is even under k -> -k, so the odd kernel cancels every term
    assert all(t.coefficient == 0 for t in qe.terms)


def fraction_q_expansion(spec: ThetaSpec, n_terms: int):
    """Reference q-expansion: one point at a time in Fraction arithmetic.
    The sign product stops at its first zero factor, and a vanishing sign
    argument up to there flags a wall hit; Q <= Q_- is checked on each
    support point. Same radius rule as q_expansion, so (terms, n_points,
    radius) must agree exactly."""
    rt = _pair_runtime(spec.pair)
    A = spec.form.exact()
    q_minus = rt.report.q_minus
    off = spec.offset
    gamma_lb = rt.gamma_holo * (1.0 - 1e-9)
    R = max(3.0, 2.0 * rt.cell_d + 0.5)
    t = np.array([float(o) for o in off])

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def sign(x):
        return (x > 0) - (x < 0)

    while True:
        m = _enumerate_shifts(rt.chol_u, t, R, 10 ** 7)
        classes = {}
        for row in m:
            k = [Fraction(int(x)) + o for x, o in zip(row, off)]
            Ak = [dot(Ai, k) for Ai in A]
            phi, hit = Fraction(1), False
            for c, cp in zip(spec.pair.C, spec.pair.C_prime):
                s1, s2 = dot(c, Ak), dot(cp, Ak)
                hit = hit or s1 == 0 or s2 == 0
                f = sign(s1) - sign(s2)
                if f == 0:
                    phi = Fraction(0)
                    break
                phi *= Fraction(f, 2)
            if phi == 0 and not hit:
                continue
            qk = dot(k, Ak)
            if phi != 0 and qk > dot(k, [dot(row_q, k) for row_q in q_minus]):
                raise ValidationError(f"support point {tuple(k)} violates Q <= Q_- exactly")
            bmp = sum(int(row[i]) * spec.p[j] * A[i][j]
                      for i in range(spec.form.n) for j in range(spec.form.n))
            cur = classes.setdefault(-qk / 2, [Fraction(0), False])
            cur[0] += phi if bmp % 2 == 0 else -phi
            cur[1] = cur[1] or hit
        cut = Fraction(gamma_lb * R * R / 2.0).limit_denominator(10 ** 12)
        complete = sorted(e for e in classes if e <= cut)
        if len(complete) >= n_terms:
            break
        R *= 2.0
    terms = tuple(QTerm(exponent=e, coefficient=classes[e][0], wall_affected=classes[e][1])
                  for e in complete[:n_terms])
    return terms, m.shape[0], R


def qexp_spec(name: str) -> ThetaSpec:
    d11 = BilinearForm.from_rows([[1, 0], [0, -1]])
    pairs = {
        "d12": (D12, d12_pair(), (0, 0), (1, 0)),
        # offset denominators: k = m + (1/2, 0)
        "d22_half": (D22, d22_pair(), (Fraction(1, 2), 0), (0, 0)),
        "d11": (d11, ConePair.from_matrices([[1], [0]], [[2], [1]], d11), (0, 0), (1, 1)),
        "hyp": (HYP, hyp_pair(), (0, 0), (0, 0)),
        "product": (PRODUCT, ConePair.from_matrices(
            [[1, 0], [0, 0], [0, 1], [0, 0]], [[2, 0], [1, 0], [0, 2], [0, 1]], PRODUCT),
            (0,) * 4, (1, 0, 1, 0)),
        "a2": (A2, ConePair.from_matrices([[1, 0], [0, 1], [0, 0], [0, 0]],
                                          [[1, 0], [0, 1], [0, -1], [-1, 0]], A2),
               (0,) * 4, (0,) * 4),
        # walls only in the second factor: behind a zero first factor they
        # are no hit, and the point leaves no class
        "d12_hyp": (D12_HYP, ConePair.from_matrices(
            [[1, 0], [0, 0], [0, 1], [0, 1]], [[2, 0], [1, 0], [0, 2], [0, 1]], D12_HYP),
            (0,) * 4, (1, 0, 0, 0)),
    }
    form, pair, mu, p = pairs[name]
    return ThetaSpec(form=form, mu=mu, p=p, b=np.zeros(form.n), c_ell=np.zeros(form.n),
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
                                              (build_a4_example, 3)])
def test_batched_kernel_rows(monkeypatch, make_pair, count):
    # each row of one pass (at rank 4 in pieces of two points, from a fresh
    # pair's completion data) equals the one-point kernel bit for bit, and
    # the 2^r boosted E sum to 4e-15
    monkeypatch.setattr(theta, "_KERNEL_ROWS", 150_000)
    pair = make_pair()
    rt = _pair_runtime(pair)
    assert rt.completion()[3] == (2 if pair.r == 4 else 37_500)
    X = np.random.default_rng(4099).normal(size=(count, pair.n)) * 1.5
    batch = theta._phi_hat_rows(rt, X)
    for x, got in zip(X, batch):
        assert got == kernel_phi_hat(pair, x)
        assert abs(got - boosted_kernel_sum(pair, x)) <= 4e-15


def test_product_kernel_is_product_of_rank1_kernels():
    X = np.random.default_rng(77).normal(size=(400, 4)) * 1.2
    got = theta._phi_hat_rows(_pair_runtime(product_pair()), X)
    d12 = d12_pair()
    want = np.array([kernel_phi_hat(d12, x[:2]) * kernel_phi_hat(d12, x[2:]) for x in X])
    big = np.abs(want) >= 1e-4
    assert big.sum() >= 100
    assert np.all(np.abs(got[big] - want[big]) <= 1e-10 * np.abs(want[big]))


@pytest.mark.parametrize("make_pair, x", [(product_pair, [1.0, 2.0, 3.0]),
                                          (d12_pair, [np.nan, 0.0])])
def test_kernel_phi_hat_rejects_bad_points(make_pair, x):
    with pytest.raises(ValueError):
        kernel_phi_hat(make_pair(), x)
