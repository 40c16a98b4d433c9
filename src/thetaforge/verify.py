"""Identity verification harness.

Two exact sign identities and a pass/fail suite over every numerical
invariant of the other modules.

The sign lemma: for positive definite rational G and generic rational v,

    sum over S subseteq [n] of
      prod_{i in S} sign(-(G_{S,S}^{-1} v_S)_i)
      * prod_{j not in S} sign(v_j - G_{j,S} G_{S,S}^{-1} v_S)  =  0,

evaluated in exact rational arithmetic. Its specialization with G the Gram
matrix of the dual frame, G = W^T W and v = W^T u, restricted to subsets of
a window N, drives the discontinuity cancellation of the E-decomposition.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import rational as ra
from .boosted import (BoostedArgument, boosted_bound_check, boosted_decompositions,
                      boosted_shadow, build_cone, eval_E_boosted, eval_M_boosted,
                      vigneras_residual_boosted)
from .cones import (ConePair, build_a4_example, build_ar_example, build_r1_example,
                    check_cone_pair, det_identity_residual)
from .errfn import (ErrFnArgument, QuadratureSpec, bound_check, decompose_E_into_M,
                    decompose_M_into_E, derivative_E, derivative_M, discontinuity_limit,
                    eval_E, eval_E_oracle_mc, eval_M, eval_M_contour, shadow, sum_terms,
                    vigneras_residual)
from .exceptions import GenericityViolated, ValidationError
from .quadform import BilinearForm, ErrorFunctionFrame
from .theta import (ThetaSpec, TruncationPolicy, discriminant_group, enumerate_lattice,
                    eval_theta, q_expansion)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class SignLemmaInstance:
    """Exact matrix G (positive definite) and vector v, generic for the lemma."""

    G: tuple
    v: tuple

    def __post_init__(self):
        Ge = ra.fmatrix(self.G)
        ve = ra.fvector(self.v)
        n = len(ve)
        if len(Ge) != n or any(len(row) != n for row in Ge):
            raise ValidationError("G must be square and match v")
        if any(Ge[i][j] != Ge[j][i] for i in range(n) for j in range(n)):
            raise ValidationError("G must be symmetric")
        if not ra.is_positive_definite(Ge):
            raise ValidationError("G must be positive definite")
        object.__setattr__(self, "G", tuple(tuple(row) for row in Ge))
        object.__setattr__(self, "v", tuple(ve))
        _sign_sum(Ge, ve, tuple(range(n)), "a lemma sign argument vanishes exactly")

    @property
    def n(self) -> int:
        return len(self.v)


def _lemma_sign_args(G, v, N):
    """Per subset S of N: the |S| arguments -(G_SS^{-1} v_S)_i followed by the
    |N \\ S| arguments v_j - G_{j,S} G_SS^{-1} v_S."""
    for size in range(len(N) + 1):
        for S in combinations(N, size):
            if S:
                GSS = [[G[i][j] for j in S] for i in S]
                sol = ra.solve(GSS, [v[i] for i in S])
                head = [-x for x in sol]
            else:
                sol = []
                head = []
            tail = []
            for j in N:
                if j in S:
                    continue
                tail.append(v[j] - sum(G[j][i] * sol[k] for k, i in enumerate(S)))
            yield head + tail


def _sign_sum(G, v, N, vanishing: str) -> int:
    """Sum over S subseteq N of the product of the signs of the lemma
    arguments; raises GenericityViolated(vanishing) at the first exact zero."""
    total = 0
    for args in _lemma_sign_args(G, v, N):
        if any(a == 0 for a in args):
            raise GenericityViolated(vanishing)
        prod = 1
        for a in args:
            prod *= _sign(a)
        total += prod
    return total


def sign_lemma_sum(inst: SignLemmaInstance) -> int:
    """Exact subset sum of the lemma; 0 for every valid instance."""
    return _sign_sum([list(r) for r in inst.G], list(inst.v), tuple(range(inst.n)),
                     "a lemma sign argument vanishes exactly")


def _rationalize_matrix(M: np.ndarray):
    return [[Fraction(float(x)) for x in row] for row in M]


def sign_identity_specialized(frame: ErrorFunctionFrame, u, N) -> int:
    """Windowed specialization: with G = W^T W and v = W^T u (dual frame W,
    exact), sum over S subseteq N of the lemma summand restricted to N.
    Returns 0 for every nonempty N when all sign arguments are nonzero.

    Float inputs are rationalized (binary floats are exact rationals), so
    the evaluation stays exact; a vanishing argument raises
    GenericityViolated rather than guessing a sign.
    """
    N = tuple(sorted(set(int(j) for j in N)))
    r = frame.r
    if not N or N[0] < 0 or N[-1] >= r:
        raise ValidationError("N must be a nonempty subset of the frame indices")
    Me = _rationalize_matrix(frame.m_mat)
    We = ra.transpose(ra.inverse(Me))
    G = ra.mat_mul(ra.transpose(We), We)
    ue = [Fraction(float(x)) for x in np.atleast_1d(np.asarray(u, dtype=float))]
    v = ra.mat_vec(ra.transpose(We), ue)
    return _sign_sum(G, v, N, "a specialized sign argument vanishes exactly")


@dataclass(frozen=True)
class CheckReport:
    name: str
    inputs_digest: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def _digest(name: str, seed: int, level: str) -> str:
    # inputs are a pure function of (name, seed, level)
    return hashlib.sha256(f"{name}|{seed}|{level}".encode()).hexdigest()[:16]


def _rng_for(name: str, seed: int):
    return np.random.default_rng([seed & 0x7FFFFFFF, zlib.crc32(name.encode())])


def _random_frame(rng, r: int) -> ErrorFunctionFrame:
    while True:
        m = rng.integers(-3, 4, size=(r, r)).astype(float)
        if abs(np.linalg.det(m)) < 0.5:
            continue
        if np.linalg.cond(m) > 20:
            continue
        return ErrorFunctionFrame.from_m(m)


def _generic_u(rng, frame: ErrorFunctionFrame, scale: float = 1.0) -> np.ndarray:
    while True:
        u = rng.normal(size=frame.r) * scale
        a = frame.w_mat.T @ u
        if np.min(np.abs(a)) > 0.05 * max(np.linalg.norm(u), 1e-3):
            return u


def _random_passing_r1_pair(rng) -> ConePair:
    while True:
        a = int(rng.integers(1, 4))
        c2 = int(rng.integers(1, 4))
        b = int(rng.integers(-2, 3))
        A = BilinearForm.from_rows([[a, b], [b, -c2]])
        if ra.det([list(r) for r in A.exact()]) >= 0:
            continue
        c = [int(rng.integers(-3, 4)) for _ in range(2)]
        cp = [int(rng.integers(-3, 4)) for _ in range(2)]
        if c == cp:
            continue
        try:
            pair = ConePair.from_matrices([[c[0]], [c[1]]], [[cp[0]], [cp[1]]], A)
            if check_cone_pair(pair).passed:
                return pair
        except Exception:
            continue


# each check returns (residual, tolerance, detail)

def _check_closed_form_anchors(rng, full):
    frame = ErrorFunctionFrame.from_m(np.array([[1.0]]))
    worst = 0.0
    for s in (1, -1):
        for t in np.arange(0.1, 3.05, 0.1):
            u = np.array([s * t])
            arg = ErrFnArgument(frame=frame, u=u)
            e = eval_E(arg).value - math.erf(math.sqrt(math.pi) * u[0])
            mm = eval_M(arg).value - (-np.sign(u[0]) * math.erfc(math.sqrt(math.pi) * abs(u[0])))
            worst = max(worst, abs(e), abs(mm))
    return worst, 1e-10, ""


def _check_factorization(rng, full):
    worst = 0.0
    for r in (2, 3):
        d = rng.integers(1, 4, size=r).astype(float) * np.where(rng.random(r) < 0.5, -1, 1)
        u = _generic_u(rng, ErrorFunctionFrame.from_m(np.diag(d)))
        arg = ErrFnArgument(frame=ErrorFunctionFrame.from_m(np.diag(d)), u=u)
        ev = eval_E(arg).value
        prod = np.prod([np.sign(d[j]) * math.erf(math.sqrt(math.pi) * u[j]) for j in range(r)])
        mv = eval_M(arg).value
        mprod = np.prod([-np.sign(d[j]) * np.sign(u[j]) * math.erfc(math.sqrt(math.pi) * abs(u[j]))
                         for j in range(r)])
        worst = max(worst, abs(ev - prod), abs(mv - mprod))
    return worst, 1e-10, ""


def _check_orthant_vs_contour(rng, full):
    # The contour route needs the 1/Pi pole a fixed distance from the shifted
    # contour, so instances keep an absolute wall clearance; near-wall conduct
    # of the orthant route is covered by the discontinuity checks instead.
    worst = 0.0
    for _ in range(5 if not full else 12):
        frame = _random_frame(rng, 2)
        u = _generic_u(rng, frame)
        while min(abs(np.dot(frame.w(j), u)) / np.linalg.norm(frame.w(j))
                  for j in range(frame.r)) < 0.25:
            u = _generic_u(rng, frame)
        arg = ErrFnArgument(frame=frame, u=u)
        v1 = eval_M(arg)
        v2 = eval_M_contour(arg, QuadratureSpec(nodes_per_axis=320))
        worst = max(worst, abs(v1.value - v2.value))
    return worst, 1e-8, ""


def _check_m_decomposition(rng, full):
    worst = 0.0
    n_inst = {2: 12, 3: 4} if not full else {2: 40, 3: 12}
    for r, cnt in n_inst.items():
        for _ in range(cnt):
            frame = _random_frame(rng, r)
            u = _generic_u(rng, frame)
            arg = ErrFnArgument(frame=frame, u=u)
            _, total = decompose_M_into_E(arg)
            direct = eval_M(arg)
            worst = max(worst, abs(total.value - direct.value))
    return worst, 1e-7, ""


def _check_e_vs_mc(rng, full):
    bad = 0
    cnt = 6 if not full else 24
    samples = 400_000 if not full else 2_000_000
    for i in range(cnt):
        frame = _random_frame(rng, 2 + i % 3)  # ranks 2, 3, 4 in turn
        u = _generic_u(rng, frame)
        arg = ErrFnArgument(frame=frame, u=u)
        det = eval_E(arg)
        mc = eval_E_oracle_mc(arg, n_samples=samples, seed=int(rng.integers(2 ** 31)))
        if abs(det.value - mc.value) > 3.0 * mc.est_error:
            bad += 1
    return float(bad), 0.0, f"{cnt} instances"


def _check_derivative_formula(rng, full):
    worst = 0.0
    h = 1e-5
    for kind in ("E", "M"):
        frame = _random_frame(rng, 2)
        u = _generic_u(rng, frame, scale=0.8)
        f = eval_E if kind == "E" else eval_M
        for j in range(2):
            w = frame.w(j)
            dv = (derivative_E if kind == "E" else derivative_M)(
                ErrFnArgument(frame=frame, u=u), j).value
            num = (f(ErrFnArgument(frame=frame, u=u + h * w)).value
                   - f(ErrFnArgument(frame=frame, u=u - h * w)).value) / (2 * h)
            worst = max(worst, abs(dv - num))
    return worst, 1e-6, ""


def _check_shadow_euler(rng, full):
    worst = 0.0
    h = 1e-5
    for r in (2, 3):
        frame = _random_frame(rng, r)
        u = _generic_u(rng, frame, scale=0.9)
        sh = shadow(ErrFnArgument(frame=frame, u=u), kind="E").value
        grad = np.zeros(r)
        for i in range(r):
            e = np.zeros(r)
            e[i] = h
            grad[i] = (eval_E(ErrFnArgument(frame=frame, u=u + e)).value
                       - eval_E(ErrFnArgument(frame=frame, u=u - e)).value) / (2 * h)
        worst = max(worst, abs(float(u @ grad) - 2.0 * sh))
    return worst, 1e-6, ""


def _check_vigneras_order(rng, full):
    worst = 0.0
    ranks = (2,) if not full else (2, 3)
    for kind in ("E", "M"):
        for r in ranks:
            frame = _random_frame(rng, r)
            u = _generic_u(rng, frame, scale=0.8)
            arg = ErrFnArgument(frame=frame, u=u)
            r1 = abs(vigneras_residual(arg, kind=kind, h=1e-3))
            r2 = abs(vigneras_residual(arg, kind=kind, h=5e-4))
            worst = max(worst, r2 / max(r1, 1e-300))
    return worst, 1.0 / 3.5, ""


def _check_m_bound(rng, full):
    n_samp = 1000 if not full else 10_000
    worst = -math.inf
    for i in range(n_samp):
        r = int(rng.integers(1, 4))
        frame = _random_frame(rng, r)
        u = _generic_u(rng, frame, scale=1.2)
        lhs, rhs, ok, est = bound_check(ErrFnArgument(frame=frame, u=u))
        worst = max(worst, lhs - rhs - est)
    return worst, 0.0, f"{n_samp} samples"


def _check_bound_tamper_control(rng, full):
    still_ok = 0
    for _ in range(20):
        frame = _random_frame(rng, 2)
        u = _generic_u(rng, frame, scale=0.9)
        _, _, ok, _ = bound_check(ErrFnArgument(frame=frame, u=u), rhs_scale=1e-3)
        if ok:
            still_ok += 1
    return float(still_ok), 0.0, "tampered bound must fail"


def _wall_instance(rng):
    """(frame, u0, j): u0 exactly on wall j, away from the other wall and origin."""
    while True:
        frame = _random_frame(rng, 2)
        j = int(rng.integers(2))
        t = frame.m(1 - j) / np.linalg.norm(frame.m(1 - j))   # spans the wall w_j.u=0
        u0 = t * (2.0 + 0.6 * rng.random()) * (1 if rng.random() < 0.5 else -1)
        other = frame.w_mat.T @ u0
        if abs(other[1 - j]) > 0.3 * np.linalg.norm(u0):
            return frame, u0, j


def _check_discontinuity_m(rng, full):
    worst = 0.0
    cnt = 8 if not full else 20
    delta = 1e-5
    for _ in range(cnt):
        frame, u0, j = _wall_instance(rng)
        w = frame.w(j)
        wn = w / np.dot(w, w)
        S = tuple(k for k in range(2) if k != j)
        for eps in (1, -1):
            u_side = u0 + eps * delta * wn
            m_side = eval_M(ErrFnArgument(frame=frame, u=u_side))
            lim = discontinuity_limit(ErrFnArgument(frame=frame, u=u0), S, {j: eps})
            worst = max(worst, abs(m_side.value - lim.value))
    return worst, 1e-6, ""


def _check_discontinuity_e_cancellation(rng, full):
    # E itself is continuous: the delta -> 0 extrapolated jump of the term-sum
    # vanishes even though individual M-terms of the decomposition jump by
    # a finite amount across the wall.
    worst = 0.0
    cnt = 8 if not full else 20
    delta = 1e-5
    for _ in range(cnt):
        frame, u0, j = _wall_instance(rng)
        w = frame.w(j)
        wn = w / np.dot(w, w)
        jumps = {}
        est_tot = 0.0
        for d in (delta, delta / 2.0):
            p = eval_E(ErrFnArgument(frame=frame, u=u0 + d * wn))
            q = eval_E(ErrFnArgument(frame=frame, u=u0 - d * wn))
            jumps[d] = p.value - q.value
            est_tot += p.est_error + q.est_error
        extrapolated = abs(2.0 * jumps[delta / 2.0] - jumps[delta])
        term_p, _ = decompose_E_into_M(ErrFnArgument(frame=frame, u=u0 + delta * wn))
        term_q, _ = decompose_E_into_M(ErrFnArgument(frame=frame, u=u0 - delta * wn))
        term_jump = max(abs(p["coeff"] * p["value"] - q["coeff"] * q["value"])
                        for p, q in zip(term_p, term_q))
        if term_jump < 1e-12:
            return 1.0, 0.0, "wall instance has no jumping M-term; check is vacuous"
        tolerance = max(2.0 * est_tot, 1e-8)
        worst = max(worst, extrapolated / tolerance)
    return worst, 1.0, "extrapolated jump over 2*est_error"


_SIG22 = BilinearForm.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
_CONE22 = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 0.0], [0.0, -1.0]])


def _check_boosted_reduction(rng, full):
    # Euclidean boost is the identity reduction
    form = BilinearForm.from_rows([[1, 0], [0, 1]])
    C = np.array([[1.0, 1.0], [0.0, 2.0]])
    x = _generic_u(rng, ErrorFunctionFrame.from_m(C))
    cone = build_cone(C, form)
    worst = 0.0
    for f_b, f_e in ((eval_E_boosted, eval_E), (eval_M_boosted, eval_M)):
        vb = f_b(BoostedArgument(cone=cone, x=x)).value
        ve = f_e(ErrFnArgument(frame=ErrorFunctionFrame.from_m(C), u=x)).value
        worst = max(worst, abs(vb - ve))
    return worst, 1e-10, ""


def _boosted22_arg(rng):
    cone = build_cone(_CONE22, _SIG22)
    while True:
        x = rng.normal(size=4)
        d = cone.D.T @ _SIG22.matrix() @ x
        if np.min(np.abs(d)) > 0.1:
            return BoostedArgument(cone=cone, x=x)


def _check_boosted_decompositions(rng, full):
    arg = _boosted22_arg(rng)
    m_terms, e_terms = boosted_decompositions(arg)
    dm = eval_M_boosted(arg).value
    de = eval_E_boosted(arg).value
    worst = max(abs(sum_terms(m_terms).value - dm), abs(sum_terms(e_terms).value - de))
    return worst, 1e-8, ""


def _check_boosted_gauge(rng, full):
    # value must not depend on which A-orthonormal basis of span(C) is used
    from .boosted import ConeMatrix
    th = rng.random() * 2 * math.pi
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    arg = _boosted22_arg(rng)
    E2 = R @ arg.cone.E_frame
    D2 = E2.T @ np.linalg.inv(E2 @ _SIG22.matrix() @ arg.cone.C).T
    cone2 = ConeMatrix(C=arg.cone.C, form=_SIG22, E_frame=E2, D=D2)
    worst = 0.0
    for f in (eval_E_boosted, eval_M_boosted):
        worst = max(worst, abs(f(arg).value
                               - f(BoostedArgument(cone=cone2, x=arg.x)).value))
    return worst, 1e-9, ""


def _check_boosted_shadow(rng, full):
    arg = _boosted22_arg(rng)
    sh = boosted_shadow(arg).value
    h = 1e-5
    grad = np.zeros(4)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        grad[i] = (eval_E_boosted(BoostedArgument(cone=arg.cone, x=arg.x + e)).value
                   - eval_E_boosted(BoostedArgument(cone=arg.cone, x=arg.x - e)).value) / (2 * h)
    return abs(float(arg.x @ grad) - 2.0 * sh), 1e-5, ""


def _check_boosted_vigneras(rng, full):
    worst = 0.0
    for kind in ("E", "M"):
        arg = _boosted22_arg(rng)
        r1 = abs(vigneras_residual_boosted(arg, kind=kind, h=1e-3))
        r2 = abs(vigneras_residual_boosted(arg, kind=kind, h=5e-4))
        worst = max(worst, r2 / max(r1, 1e-300))
    return worst, 1.0 / 3.5, ""


def _check_boosted_bound(rng, full):
    worst = -math.inf
    for _ in range(60 if not full else 200):
        arg = _boosted22_arg(rng)
        lhs, rhs, ok, est = boosted_bound_check(arg)
        worst = max(worst, lhs - rhs - est)
    return worst, 0.0, ""


def _check_cones_r1(rng, full):
    rep = check_cone_pair(build_r1_example())
    return 0.0 if rep.passed else 1.0, 0.0, f"first_failed={rep.first_failed}"


def _check_cones_a4(rng, full):
    rep = check_cone_pair(build_a4_example())
    ok = rep.passed and rep.q_minus_inertia == (0, 8, 0)
    return 0.0 if ok else 1.0, 0.0, f"inertia={rep.q_minus_inertia}"


def _check_cones_degenerate_control(rng, full):
    A = build_r1_example().form
    pair = ConePair.from_matrices([[1], [0]], [[1], [0]], A)   # c' = c: Delta = 0
    rep = check_cone_pair(pair)
    ok = (not rep.passed) and rep.first_failed == "delta_sign"
    return 0.0 if ok else 1.0, 0.0, f"first_failed={rep.first_failed}"


def _check_cones_det_identity(rng, full):
    pairs = [build_r1_example(), build_a4_example()]
    if full:
        pairs += [_random_passing_r1_pair(rng) for _ in range(20)]
    bad = 0
    for pair in pairs:
        n = pair.n
        for _ in range(100):
            x = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(n)]
            if det_identity_residual(pair, x) != 0:
                bad += 1
    return float(bad), 0.0, f"{len(pairs)} pairs x 100 points"


def _check_sign_lemma(rng, full):
    worst = 0
    ns = range(1, 5) if not full else range(1, 6)
    per = 200 if not full else 1000
    for n in ns:
        done = 0
        while done < per:
            L = [[Fraction(int(rng.integers(-3, 4))) for _ in range(n)] for _ in range(n)]
            G = ra.mat_mul(ra.transpose(L), L)
            for i in range(n):
                G[i][i] += 1 + int(rng.integers(0, 3))
            v = [Fraction(int(rng.integers(-9, 10))) for _ in range(n)]
            try:
                inst = SignLemmaInstance(G=tuple(tuple(r) for r in G), v=tuple(v))
            except GenericityViolated:
                continue
            worst = max(worst, abs(sign_lemma_sum(inst)))
            done += 1
    return float(worst), 0.0, f"{per} instances per n"


def _check_sign_identity_specialized(rng, full):
    worst = 0
    cnt = 10 if not full else 30
    done = 0
    while done < cnt:
        frame = _random_frame(rng, 3)
        u = _generic_u(rng, frame)
        try:
            for size in (1, 2, 3):
                for N in combinations(range(3), size):
                    worst = max(worst, abs(sign_identity_specialized(frame, u, N)))
        except GenericityViolated:
            continue
        done += 1
    return float(worst), 0.0, f"{cnt} frames, all nonempty N"


_HYP = BilinearForm.from_rows([[0, 1], [1, 0]])
_DIAG12 = BilinearForm.from_rows([[1, 0], [0, -2]])


def _hyp_pair() -> ConePair:
    return ConePair.from_matrices([[1], [1]], [[2], [1]], _HYP)


def _hyp_sum_pair() -> ConePair:
    """The direct sum of two _hyp_pair pairs, a rank-2 pair on _HYP + _HYP."""
    form = BilinearForm.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    return ConePair.from_matrices([[1, 0], [1, 0], [0, 1], [0, 1]],
                                  [[2, 0], [1, 0], [0, 2], [0, 1]], form)


def _qexp_pair() -> ConePair:
    return ConePair.from_matrices([[1], [0]], [[2], [1]], _DIAG12)


def _check_theta_enum_box(rng, full):
    # the ellipsoid -Q_-[m] <= 9 of the hyperbolic pair against every point
    # of a box around it (|m_i|^2 <= 9 (Q_-^-1)_ii there), filtered exactly
    spec = _theta_spec()
    S = [[-x for x in row] for row in check_cone_pair(spec.pair).q_minus]
    Sinv = ra.inverse(S)
    h0, h1 = (math.isqrt(math.ceil(9 * Sinv[i][i])) for i in range(2))
    box = [(a, b) for a in range(-h0, h0 + 1) for b in range(-h1, h1 + 1)
           if S[0][0] * a * a + 2 * S[0][1] * a * b + S[1][1] * b * b <= 9]
    pts = enumerate_lattice(spec, 3.0)
    ok = sorted(map(tuple, pts.tolist())) == box
    return 0.0 if ok else 1.0, 0.0, f"{pts.shape[0]} points"


def _theta_spec(tau=1j, b=None, c=None, mu=(0, 0), p=(0, 0), kernel="holomorphic"):
    return ThetaSpec(form=_HYP, mu=mu, p=p,
                     b=np.zeros(2) if b is None else b,
                     c_ell=np.zeros(2) if c is None else c,
                     tau=tau, kernel=kernel, pair=_hyp_pair())


def _check_theta_odd_zero(rng, full):
    v = eval_theta(_theta_spec())
    return abs(v.value), 1e-12, f"{v.n_points} points"


def _check_theta_radius_stability(rng, full):
    spec = _theta_spec(tau=0.3 + 1.0j, b=np.array([0.1, 0.2]), c=np.array([-0.15, 0.05]))
    v1 = eval_theta(spec, TruncationPolicy(tol=1e-10, initial_radius=8.0))
    v2 = eval_theta(spec, TruncationPolicy(tol=1e-10, initial_radius=16.0))
    return abs(v1.value - v2.value), 1e-9, ""


def _check_theta_qexp(rng, full):
    spec = ThetaSpec(form=_DIAG12, mu=(0, 0), p=(1, 0), b=np.zeros(2), c_ell=np.zeros(2),
                     tau=1j, kernel="holomorphic", pair=_qexp_pair())
    qe = q_expansion(spec, 8)
    qe2 = q_expansion(spec, 20)   # larger radius; leading terms must be unchanged
    ok = (qe.terms == qe2.terms[:8]
          and all(t.coefficient.denominator == 1 for t in qe.terms)
          and not any(t.wall_affected for t in qe.terms)
          and qe.terms[0].exponent == Fraction(7, 8)
          and qe.terms[0].coefficient == 2)
    return 0.0 if ok else 1.0, 0.0, "integral, wall-free, radius-stable"


_D22 = BilinearForm.from_rows([[2, 0], [0, -2]])
_D22_PAIR = ConePair.from_matrices([[1], [0]], [[3], [1]], _D22)


def _d22_spec(tau, b, c, mu=(Fraction(1, 2), Fraction(0)), kernel="holomorphic"):
    return ThetaSpec(form=_D22, mu=mu, p=(0, 0), b=b, c_ell=c, tau=tau,
                     kernel=kernel, pair=_D22_PAIR)


def _check_theta_t_law(rng, full):
    # mu = (1/2, 0) gives the nontrivial phase e^{-pi i Q(mu)} = -i
    worst = 0.0
    tau = 0.37 + 0.9j
    b = np.array([0.13, 0.07])
    c = np.array([0.21, -0.11])
    qmu = float(np.array([0.5, 0.0]) @ _D22.matrix() @ np.array([0.5, 0.0]))
    for kernel in ("holomorphic", "completed"):
        lhs = eval_theta(_d22_spec(tau + 1, b, c + b, kernel=kernel)).value
        rhs = np.exp(-1j * math.pi * qmu) \
            * eval_theta(_d22_spec(tau, b, c, kernel=kernel)).value
        worst = max(worst, abs(lhs - rhs))
    return worst, 1e-7, ""


def _check_theta_elliptic(rng, full):
    worst = 0.0
    tau = 0.37 + 0.9j
    b = np.array([0.13, 0.07])
    c = np.array([0.21, -0.11])
    k0 = np.array([1.0, -1.0])
    A = _D22.matrix()
    for kernel in ("holomorphic", "completed"):
        base = eval_theta(_d22_spec(tau, b, c, kernel=kernel)).value
        lhs = eval_theta(_d22_spec(tau, b + k0, c, kernel=kernel)).value
        worst = max(worst, abs(lhs - np.exp(-1j * math.pi * float(c @ A @ k0)) * base))
        lhs = eval_theta(_d22_spec(tau, b, c + k0, kernel=kernel)).value
        worst = max(worst, abs(lhs - np.exp(1j * math.pi * float(b @ A @ k0)) * base))
    return worst, 1e-7, ""


def _check_theta_convergence_witness(rng, full):
    # sum of |terms| over -Q_- <= R^2 is monotone in R; each increment is
    # bounded by the tail bound at the smaller R
    spec = _theta_spec(tau=0.3 + 1.0j, b=np.array([0.1, 0.2]), c=np.array([-0.15, 0.05]))
    from .theta import _log_majorants, _pair_runtime, _tail_bound, _terms
    rt = _pair_runtime(spec.pair)
    a = math.pi * spec.tau.imag
    log_f = _log_majorants(rt, a)
    sums, tails = [], []
    for R in (1.0, 2.0, 4.0):
        terms, _ = _terms(spec, enumerate_lattice(spec, R), rt)
        sums.append(float(np.sum(np.abs(terms))))
        tails.append(_tail_bound(log_f, a, R * R, 1.0))
    mono = max(0.0, sums[0] - sums[1], sums[1] - sums[2])
    cauchy = max(sums[1] - sums[0] - tails[0], sums[2] - sums[1] - tails[1])
    return max(mono, cauchy), 0.0, "monotone and Cauchy under doubling"


def _check_theta_completed_paths(rng, full):
    # the completed kernel against sum_P (-1)^|P| E^A(C^P; x) on cones built
    # apart, at rank 1, on a rank-2 direct sum and on the A2 and A3 members of
    # the A_r family
    from .theta import _pair_runtime, _phi_hat
    worst = 0.0
    for pair in (_hyp_pair(), _hyp_sum_pair(), build_ar_example(2), build_ar_example(3)):
        X = rng.normal(size=(10, pair.n)) * 2.0
        for x, fast in zip(X, _phi_hat(_pair_runtime(pair), X)):
            slow = 0.0
            for mask in range(2 ** pair.r):
                cols = [pair.C_prime[j] if mask >> j & 1 else pair.C[j] for j in range(pair.r)]
                C = np.array([[float(v) for v in col] for col in cols]).T
                slow += (-1.0) ** bin(mask).count("1") * eval_E_boosted(
                    BoostedArgument(cone=build_cone(C, pair.form), x=x)).value
            worst = max(worst, abs(fast - slow / 2.0 ** pair.r))
    return worst, 4e-15, ""


def _check_theta_s_law(rng, full):
    b = np.array([0.13, 0.07])
    c = np.array([0.21, -0.11])
    disc = discriminant_group(_D22)
    vals = {}
    for nu in disc:
        vals[nu] = eval_theta(_d22_spec(1j, b, c, mu=nu, kernel="completed")).value
    pref = 1j * ((-1j) * 1j) ** (0 + 1.0) / math.sqrt(len(disc))
    lhss, rhss = [], []
    Af = _D22.matrix()
    for mu_t in disc:
        lhs = eval_theta(_d22_spec(1j, c, -b, mu=mu_t, kernel="completed")).value
        tot = sum(np.exp(2j * math.pi * float(
            np.array([float(x) for x in mu_t]) @ Af @ np.array([float(x) for x in nu])))
            * vals[nu] for nu in disc)
        lhss.append(lhs)
        rhss.append(pref * tot)
    lhss = np.array(lhss)
    rhss = np.array(rhss)
    rho = np.vdot(rhss, lhss)
    rho = rho / abs(rho) if abs(rho) > 0 else 1.0
    worst = float(np.max(np.abs(lhss - rho * rhss)))
    return worst, 1e-4, f"unimodular_factor={rho:.12g}"


_FAST_CHECKS = [
    ("boosted_bound", _check_boosted_bound),
    ("boosted_decompositions", _check_boosted_decompositions),
    ("boosted_euclidean_reduction", _check_boosted_reduction),
    ("boosted_gauge_invariance", _check_boosted_gauge),
    ("boosted_shadow_euler", _check_boosted_shadow),
    ("boosted_vigneras_order", _check_boosted_vigneras),
    ("cones_a4_certificate", _check_cones_a4),
    ("cones_degenerate_control", _check_cones_degenerate_control),
    ("cones_det_identity", _check_cones_det_identity),
    ("cones_r1_certificate", _check_cones_r1),
    ("errfn_bound", _check_m_bound),
    ("errfn_bound_tamper_control", _check_bound_tamper_control),
    ("errfn_closed_form_anchors", _check_closed_form_anchors),
    ("errfn_derivative_formula", _check_derivative_formula),
    ("errfn_discontinuity_e_cancellation", _check_discontinuity_e_cancellation),
    ("errfn_discontinuity_m_limits", _check_discontinuity_m),
    ("errfn_e_vs_mc", _check_e_vs_mc),
    ("errfn_factorization", _check_factorization),
    ("errfn_m_decomposition", _check_m_decomposition),
    ("errfn_orthant_vs_contour", _check_orthant_vs_contour),
    ("errfn_shadow_euler", _check_shadow_euler),
    ("errfn_vigneras_order", _check_vigneras_order),
    ("sign_identity_specialized", _check_sign_identity_specialized),
    ("sign_lemma_exact", _check_sign_lemma),
    ("theta_completed_paths", _check_theta_completed_paths),
    ("theta_convergence_witness", _check_theta_convergence_witness),
    ("theta_elliptic_laws", _check_theta_elliptic),
    ("theta_enum_box", _check_theta_enum_box),
    ("theta_odd_symmetry_zero", _check_theta_odd_zero),
    ("theta_qexp_integrality", _check_theta_qexp),
    ("theta_radius_stability", _check_theta_radius_stability),
    ("theta_t_law", _check_theta_t_law),
]

_FULL_ONLY = [
    ("theta_s_law", _check_theta_s_law),
]


def run_suite(level: str = "fast", seed: int = 0) -> list:
    """Runs every check in name order; deterministic for a fixed seed.
    Failures are reports, not exceptions."""
    if level not in ("fast", "full"):
        raise ValidationError("level must be 'fast' or 'full'")
    full = level == "full"
    checks = list(_FAST_CHECKS) + (list(_FULL_ONLY) if full else [])
    checks.sort(key=lambda kv: kv[0])
    reports = []
    for name, fn in checks:
        residual, tolerance, detail = fn(_rng_for(name, seed), full)
        reports.append(CheckReport(name=name, inputs_digest=_digest(name, seed, level),
                                   residual=float(residual), tolerance=float(tolerance),
                                   passed=bool(residual <= tolerance), detail=detail))
    return reports
