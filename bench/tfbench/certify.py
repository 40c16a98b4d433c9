"""Workload certify: cold cone pairs and exact arithmetic.

Every operation builds its BilinearForm and ConePair anew from integer
matrices, the way a config parse does, and then makes one library call:
check_cone_pair, det_identity_residual, or eval_theta (which certifies the
new pair again, since the library caches per-pair data by object identity).
The content comes from a small seeded set, so the same content recurs.

Rank-1 pairs are drawn on diag(a, -b) and rank-2 pairs are direct sums of
two of them; both are then written in a seeded unimodular basis, so their
matrices are dense. An isometry keeps the verdict, which is therefore known
in advance: Zwegers' conditions for rank 1, both factors passing for rank 2.

Round (30 operations): check_cone_pair at rank 1, 6 (half passing);
eval_theta on a fresh passing rank-1 pair, 18; check_cone_pair at rank 2,
4 (half passing); det_identity_residual on A4, 1; check_cone_pair on A4, 1.
Sorted by time they come in that order, so the median falls halfway into
the eval_theta calls and the tail (90th percentile) three quarters into
the rank-2 certificates: on a shared host whose speed switches between two
levels, a percentile deep in the slower part of one type jumps less than
one at its middle.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import reference as ref
from .core import Op, Verdict
from .theta import ROUNDING, TOL, stratified

R1_POOL = 12  # passing and failing each
R2_POOL = 8
X_POOL = 8
SUPPORT_POINTS = 12
ROUND = (("r1", 6), ("r2", 4), ("a4", 1), ("det", 1), ("eval", 18))


def _unimodular(rng, n: int, steps: int) -> np.ndarray:
    g = np.eye(n, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(n, size=2, replace=False)
        g[:, i] += int(rng.choice([-1, 1])) * g[:, j]
    return g


def _twist(A, C, Cp, g):
    """The same pair in the basis g: A -> g^T A g, vectors v -> g^-1 v."""
    A = np.array(A, dtype=np.int64)
    ginv = np.round(np.linalg.inv(g)).astype(np.int64)
    A2 = g.T @ A @ g
    tw = lambda vs: [list(map(int, ginv @ np.array(v, dtype=np.int64))) for v in vs]
    return [list(map(int, row)) for row in A2], tw(C), tw(Cp)


def _twisted(rng, A, C, Cp, steps: int, bound: int):
    """_twist by a seeded unimodular basis whose form entries stay within
    bound, so that the cost of exact arithmetic varies little between seeds."""
    while True:
        out = _twist(A, C, Cp, _unimodular(rng, len(A), steps))
        if max(abs(x) for row in out[0] for x in row) <= bound:
            return out


def _rank1_candidate(rng):
    a, b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    while True:
        c = [int(v) for v in rng.integers(-3, 4, size=2)]
        cp = [int(v) for v in rng.integers(-3, 4, size=2)]
        if c[0] * cp[1] - c[1] * cp[0] != 0:  # independent
            return [[a, 0], [0, -b]], c, cp


def _rank1_pool(rng, want: bool, count: int) -> list:
    out = []
    while len(out) < count:
        A, c, cp = _rank1_candidate(rng)
        if ref.zwegers_pass(A, c, cp) == want:
            out.append((A, c, cp))
    return out


def characteristic(A) -> tuple:
    """A p in {0,1}^n with A_ii + (A p)_i even for every i."""
    n = len(A)
    for mask in range(2 ** n):
        p = [(mask >> i) & 1 for i in range(n)]
        if all((A[i][i] + sum(A[i][j] * p[j] for j in range(n))) % 2 == 0 for i in range(n)):
            return tuple(p)
    raise ValueError("no characteristic vector")


def _columns(vs):
    n = len(vs[0])
    return [[v[i] for v in vs] for i in range(n)]


class Workload:
    name = "certify"

    def setup(self, seed: int) -> None:
        import thetaforge as tf

        self.tf = tf
        self.rng_seed = seed
        rng = np.random.default_rng([seed, 303])
        r1 = []  # (A, C, Cp, expected verdict), alternating pass / fail
        for good, bad in zip(_rank1_pool(rng, True, R1_POOL), _rank1_pool(rng, False, R1_POOL)):
            for (A, c, cp), want in ((good, True), (bad, False)):
                A, C, Cp = _twisted(rng, A, [c], [cp], steps=2, bound=6)
                r1.append((A, C, Cp, want))
        self.r1 = r1
        r2 = []
        pass_pool = _rank1_pool(rng, True, 2 * R2_POOL)
        fail_pool = _rank1_pool(rng, False, R2_POOL)
        for j in range(R2_POOL):
            for want in (True, False):
                f1 = pass_pool[2 * j]
                f2 = pass_pool[2 * j + 1] if want else fail_pool[j]
                A = [[0] * 4 for _ in range(4)]
                for blk, (Af, _, _) in enumerate((f1, f2)):
                    for i in range(2):
                        for k in range(2):
                            A[2 * blk + i][2 * blk + k] = Af[i][k]
                C = [f1[1] + [0, 0], [0, 0] + f2[1]]
                Cp = [f1[2] + [0, 0], [0, 0] + f2[2]]
                A, C, Cp = _twisted(rng, A, C, Cp, steps=4, bound=8)
                r2.append((A, C, Cp, want))
        self.r2 = r2
        a4 = tf.build_a4_example()
        self.a4 = ([list(row) for row in a4.form.rows], [[int(x) for x in v] for v in a4.C],
                   [[int(x) for x in v] for v in a4.C_prime])
        self.xs = [[Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7))) for _ in range(8)]
                   for _ in range(X_POOL)]
        self.passing_r1 = [e for e in r1 if e[3]]
        # first calls of each code path, on content the rounds do not use
        A, C, Cp = _twist([[1, 0], [0, -2]], [[1, 0]], [[2, 1]], np.eye(2, dtype=np.int64))
        pair = self._pair(A, C, Cp)
        tf.check_cone_pair(pair)
        tf.eval_theta(tf.ThetaSpec(form=pair.form, mu=(0, 0), p=characteristic(A),
                                   b=np.full(2, 0.1), c_ell=np.full(2, 0.1), tau=1j,
                                   kernel="holomorphic", pair=pair),
                      tf.TruncationPolicy(tol=TOL))
        self._support: dict = {}

    def _pair(self, A, C, Cp):
        tf = self.tf
        return tf.ConePair.from_matrices(_columns(C), _columns(Cp), tf.BilinearForm.from_rows(A))

    def round_ops(self, i: int) -> list:
        tf = self.tf
        rng = np.random.default_rng([self.rng_seed, 404, i])
        ops = []
        for kind, count in ROUND:
            if kind == "eval":
                tau2 = stratified(rng, count, 0.6, 2.0)
            for j in range(count):
                slot = i * count + j
                if kind in ("r1", "r2", "a4"):
                    A, C, Cp, want = (self.r1[slot % len(self.r1)] if kind == "r1" else
                                      self.r2[slot % len(self.r2)] if kind == "r2" else
                                      (*self.a4, True))
                    ops.append(Op(f"check_cone_pair.{kind}",
                                  lambda A=A, C=C, Cp=Cp: tf.check_cone_pair(self._pair(A, C, Cp)),
                                  (kind, A, C, Cp, want)))
                elif kind == "det":
                    x = self.xs[slot % len(self.xs)]
                    ops.append(Op("det_identity_residual.a4",
                                  lambda x=x: tf.det_identity_residual(self._pair(*self.a4), x),
                                  ("det", x)))
                else:
                    A, C, Cp, _ = self.passing_r1[slot % len(self.passing_r1)]
                    tau = complex(rng.uniform(-0.5, 0.5), tau2[j])
                    b, c = rng.uniform(-0.5, 0.5, size=2), rng.uniform(-0.5, 0.5, size=2)
                    p = characteristic(A)

                    def call(A=A, C=C, Cp=Cp, tau=tau, b=b, c=c, p=p):
                        pair = self._pair(A, C, Cp)
                        spec = tf.ThetaSpec(form=pair.form, mu=(0, 0), p=p, b=b, c_ell=c,
                                            tau=tau, kernel="holomorphic", pair=pair)
                        return tf.eval_theta(spec, tf.TruncationPolicy(tol=TOL))
                    ops.append(Op("eval_theta.fresh_r1", call, ("eval", A, C, Cp, p, tau, b, c)))
        order = np.random.default_rng([i, 11]).permutation(len(ops))
        return [ops[k] for k in order]

    # ----------------------------------------------------------- checks

    def _support_points(self, A, C, Cp):
        key = (str(A), str(C), str(Cp))
        if key not in self._support:
            rng = np.random.default_rng(len(self._support))
            pts = []
            for _ in range(2000):
                y = [int(v) for v in rng.integers(-5, 6, size=len(A))]
                if ref.support_sign(A, C, Cp, y) != 0:
                    pts.append(y)
                    if len(pts) == SUPPORT_POINTS:
                        break
            self._support[key] = pts
        return self._support[key]

    def check(self, rec) -> Verdict:
        tag = rec.op.data[0]
        if rec.error is not None:
            return Verdict(False, f"raised {type(rec.error).__name__}: {rec.error}")
        if tag == "det":
            return Verdict(rec.result == 0, f"det identity residual {rec.result}")
        if tag == "eval":
            _, A, C, Cp, p, tau, b, c = rec.op.data
            want, mags = ref.theta_box(A, C, Cp, (0, 0), p, b, c, tau)
            tol = rec.result.tail_estimate + ROUNDING * mags
            err = abs(rec.result.value - want)
            return Verdict(err <= tol, f"fresh-pair value off the numpy sum by {err:.2e}")
        _, A, C, Cp, want = rec.op.data
        rep = rec.result
        if rep.passed != want:
            return Verdict(False, f"{tag} verdict {rep.verdict} ({rep.first_failed}), "
                                  f"expected {'pass' if want else 'fail'}")
        if not want:
            return Verdict(rep.first_failed is not None, "failing report names no condition")
        if tag == "a4" and tuple(rep.q_minus_inertia) != (0, 8, 0):
            return Verdict(False, f"A4 Q_- inertia {rep.q_minus_inertia}")
        if not ref.negative_definite(rep.q_minus):
            return Verdict(False, "Q_- of a passing pair is not negative definite")
        for y in self._support_points(A, C, Cp):
            if ref.quad_exact(A, y) > ref.quad_exact(rep.q_minus, y):
                return Verdict(False, f"support point {y} has Q > Q_-")
        return Verdict(True)

