"""Workload theta: theta sums on pairs certified once in set-up, then reused.

Set-up certifies every pair through the library's per-pair cache (a tiny
enumerate_lattice call), so the timed phase does enumeration, vectorized
assembly and the exact q-expansion loop, and no cone certificate.

Round (2936 operations, about 28 s, so a 20-s run is one round; the
median falls in the diag(1,-2) values, the tail, 29 samples from the top,
at the 87th percentile of the product values):
  rank-1 holomorphic values on diag(1,-2), diag(2,-2), diag(1,-1): 2200,
    300 and 300
  rank-1 completed values at fixed inputs, one per form: 3 (known fault)
  rank-2 holomorphic values on the product pair: 120 at tau_2 in [0.8, 2]
    and 1 at tau_2 = 0.6
  rank-2 holomorphic values on the non-product A2 pair: 4
  q_expansion, rank 1, 20 terms: 6    q_expansion, product pair, 10 terms: 1
  A4 holomorphic value at tau = 2i, tol 1e-2, max_points 1e5: 1 (known fault)
The three operations that come once a round (the product q-expansion, A4
and the product value at tau_2 = 0.6) take about a third of it, so their
single samples, which follow the host's speed while they run, do not alone
set the throughput; the rest of the round is types with many samples each,
whose upper quartiles stay in the host's slow level.

The host this was tuned on switches between a fast and a slow state every
second or so, and one operation runs in one state: the diag(2,-2) and
diag(1,-1) values take 0.28 to 0.32 ms in the fast state and 0.45 to 0.6
ms in the slow one, the product values 60 and 90 to 115 ms. A percentile
in the middle of such a group jumps between the two levels as the share
of slow time moves from run to run. So the diag(1,-2) values, 0.45 to 0.67
ms in every state seen, are the bulk of the round, and the median stays
among them; and the 12 slower operations fill less than half of the top
1%, so the tail sits among the product values, a type with 120 samples of
one cost.

tau_2 is stratified: each round splits [lo, 2] into as many equal bins as
it has values of a type and draws one tau_2 per bin, so the point counts,
and with them the cost, vary little from seed to seed. The doubling radius
of eval_theta jumps to 16x the points below about tau_2 = 0.7 at rank 2
(45,524 to 728,958 on the product pair): seeded rank-2 values start at
0.8, and the one product value at 0.6 measures the jump at a fixed share
of every round.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import reference as ref
from .core import Op, Verdict

TOL = 1e-8
ROUNDING = 2e-14  # allowed rounding, relative to the sum of |terms|
LAW_ABS = 1e-12
R1_PER_ROUND = (2200, 300, 300)  # per pair of RANK1
PRODUCT_PER_ROUND = 120
PRODUCT_LOW_TAU2 = 0.6  # one product value per round below the radius jump
A2_PER_ROUND = 4
QEXP_R1_PER_ROUND = 6
QEXP_R1_TERMS = 20
QEXP_R2_TERMS = 10
A4_POLICY = dict(tol=1e-2, max_points=100_000)

# (name, form, c, c', mu, p) of the rank-1 pairs
RANK1 = (
    ("d12", [[1, 0], [0, -2]], (1, 0), (2, 1), (0, 0), (1, 0)),
    ("d22", [[2, 0], [0, -2]], (1, 0), (3, 1), (Fraction(1, 2), 0), (0, 0)),
    ("r1", [[1, 0], [0, -1]], (1, 0), (2, 1), (0, 0), (1, 1)),
)
# Fixed (not seeded) completed rank-1 inputs (tau, b, c_ell), one per pair
# above, where eval_theta(kernel="completed") misses the cancellation-free
# numpy sum by 1e5 to 1e6 times the tail it claims: _phi_hat_r1 subtracts
# two nearly equal erf values and the rounding is then multiplied by
# e^{pi tau_2 Q(y)}.
COMPLETED_FAULTS = (
    (complex(-0.215, 1.936), (0.157, -0.135), (0.017, 0.275)),
    (complex(-0.049, 1.761), (0.23, 0.019), (-0.317, -0.262)),
    (complex(-0.368, 1.12), (-0.069, 0.453), (0.184, 0.211)),
)
PRODUCT_FORM = [[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, -2]]
PRODUCT_C = [[1, 0], [0, 0], [0, 1], [0, 0]]
PRODUCT_CP = [[2, 0], [1, 0], [0, 2], [0, 1]]
PRODUCT_P = (1, 0, 1, 0)
# rank-2 analogue of the bundled A4 example: [[G(A2), -I2], [-I2, 0]],
# C = (e1, e2), C' = (e1 - e4, e2 - e3)
A2_FORM = [[2, -1, -1, 0], [-1, 2, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]]
A2_C = [[1, 0], [0, 1], [0, 0], [0, 0]]
A2_CP = [[1, 0], [0, 1], [0, -1], [-1, 0]]


def stratified(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw in each of `count` equal bins of [lo, hi], shuffled."""
    edges = lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count
    return rng.permutation(edges)


def _spec_inputs(rng, count: int, n: int, lo: float):
    taus = [complex(rng.uniform(-0.5, 0.5), t2) for t2 in stratified(rng, count, lo, 2.0)]
    bs = rng.uniform(-0.5, 0.5, size=(count, n))
    cs = rng.uniform(-0.5, 0.5, size=(count, n))
    return taus, bs, cs


def cauchy_square(terms) -> dict:
    """Class -> coefficient of the square of a q-series given as (exponent,
    coefficient) pairs; classes reached only by cancelling products stay, at 0."""
    out: dict = {}
    for e1, c1 in terms:
        for e2, c2 in terms:
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


class Workload:
    name = "theta"

    def setup(self, seed: int) -> None:
        import thetaforge as tf

        self.tf = tf
        self.rng_seed = seed
        self.rank1 = []
        for name, rows, c, cp, mu, p in RANK1:
            form = tf.BilinearForm.from_rows(rows)
            pair = tf.ConePair.from_matrices([[c[0]], [c[1]]], [[cp[0]], [cp[1]]], form)
            self.rank1.append((name, form, pair, mu, p))
        self.product_form = tf.BilinearForm.from_rows(PRODUCT_FORM)
        self.product = tf.ConePair.from_matrices(PRODUCT_C, PRODUCT_CP, self.product_form)
        self.a2_form = tf.BilinearForm.from_rows(A2_FORM)
        self.a2 = tf.ConePair.from_matrices(A2_C, A2_CP, self.a2_form)
        self.a4 = tf.build_a4_example()
        d12_form, d12_pair = self.rank1[0][1], self.rank1[0][2]
        self.qexp_r1_spec = tf.ThetaSpec(form=d12_form, mu=(0, 0), p=(1, 0), b=np.zeros(2),
                                         c_ell=np.zeros(2), tau=1j, kernel="holomorphic",
                                         pair=d12_pair)
        self.qexp_r2_spec = tf.ThetaSpec(form=self.product_form, mu=(0,) * 4, p=PRODUCT_P,
                                         b=np.zeros(4), c_ell=np.zeros(4), tau=1j,
                                         kernel="holomorphic", pair=self.product)
        self.a4_spec = tf.ThetaSpec(form=self.a4.form, mu=(0,) * 8, p=(0,) * 8, b=np.zeros(8),
                                    c_ell=np.zeros(8), tau=2j, kernel="holomorphic",
                                    pair=self.a4)
        # certify every pair once: the library caches per-pair data on first use
        for _, form, pair, mu, p in self.rank1:
            tf.enumerate_lattice(self._spec(form, pair, mu, p, 1j, np.zeros(2), np.zeros(2)), 1.0)
        tf.enumerate_lattice(self.qexp_r2_spec, 1.0)
        tf.enumerate_lattice(self._spec(self.a2_form, self.a2, (0,) * 4, (0,) * 4, 1j,
                                        np.zeros(4), np.zeros(4)), 1.0)
        tf.enumerate_lattice(self.a4_spec, 1.0)
        tf.eval_theta(self._spec(*self.rank1[0][1:], 1j, np.full(2, 0.1), np.full(2, 0.1)),
                      tf.TruncationPolicy(tol=TOL))
        self._refs: dict = {}

    def _spec(self, form, pair, mu, p, tau, b, c, kernel="holomorphic"):
        return self.tf.ThetaSpec(form=form, mu=mu, p=p, b=b, c_ell=c, tau=tau,
                                 kernel=kernel, pair=pair)

    def round_ops(self, i: int) -> list:
        tf = self.tf
        rng = np.random.default_rng([self.rng_seed, 202, i])
        policy = tf.TruncationPolicy(tol=TOL)
        ops = []
        for idx, count in enumerate(R1_PER_ROUND):
            name, form, pair, mu, p = self.rank1[idx]
            taus, bs, cs = _spec_inputs(rng, count, 2, 0.6)
            for j in range(count):
                spec = self._spec(form, pair, mu, p, taus[j], bs[j], cs[j])
                ops.append(Op(f"eval_theta.r1.{name}", (lambda s=spec: tf.eval_theta(s, policy)),
                              ("r1", idx, taus[j], bs[j], cs[j])))
        for j, (tau, b, c) in enumerate(COMPLETED_FAULTS):
            _, form, pair, mu, p = self.rank1[j]
            b, c = np.array(b), np.array(c)
            spec = self._spec(form, pair, mu, p, tau, b, c, "completed")
            ops.append(Op("eval_theta.r1.completed", (lambda s=spec: tf.eval_theta(s, policy)),
                          ("r1_completed", j, tau, b, c)))
        taus, bs, cs = _spec_inputs(rng, PRODUCT_PER_ROUND, 4, 0.8)
        taus.append(complex(rng.uniform(-0.5, 0.5), PRODUCT_LOW_TAU2))
        bs = np.vstack([bs, rng.uniform(-0.5, 0.5, size=(1, 4))])
        cs = np.vstack([cs, rng.uniform(-0.5, 0.5, size=(1, 4))])
        for j in range(PRODUCT_PER_ROUND + 1):
            spec = self._spec(self.product_form, self.product, (0,) * 4, PRODUCT_P,
                              taus[j], bs[j], cs[j])
            kind = "eval_theta.r2.product" + (".low" if j == PRODUCT_PER_ROUND else "")
            ops.append(Op(kind, (lambda s=spec: tf.eval_theta(s, policy)),
                          ("product", taus[j], bs[j], cs[j])))
        taus, bs, cs = _spec_inputs(rng, A2_PER_ROUND, 4, 0.8)
        for j in range(A2_PER_ROUND):
            k0 = np.zeros(4)
            while not np.any(k0):
                k0 = rng.integers(-1, 2, size=4).astype(float)
            spec = self._spec(self.a2_form, self.a2, (0,) * 4, (0,) * 4, taus[j], bs[j], cs[j])
            ops.append(Op("eval_theta.r2.a2", (lambda s=spec: tf.eval_theta(s, policy)),
                          ("a2", taus[j], bs[j], cs[j], k0)))
        for _ in range(QEXP_R1_PER_ROUND):
            ops.append(Op("q_expansion.r1",
                          lambda: tf.q_expansion(self.qexp_r1_spec, QEXP_R1_TERMS), ("qexp_r1",)))
        ops.append(Op("q_expansion.r2.product",
                      lambda: tf.q_expansion(self.qexp_r2_spec, QEXP_R2_TERMS), ("qexp_r2",)))
        ops.append(Op("eval_theta.a4", lambda: tf.eval_theta(
            self.a4_spec, tf.TruncationPolicy(**A4_POLICY)), ("a4",)))
        order = np.random.default_rng([i, 9]).permutation(len(ops))
        return [ops[k] for k in order]

    # ----------------------------------------------------------- checks

    def _rank1_ref(self, idx, tau, b, c, kernel="holomorphic"):
        _, rows, cv, cpv, mu, p = RANK1[idx]
        return ref.theta_box(rows, [cv], [cpv], mu, p, b, c, tau, kernel)

    def check(self, rec) -> Verdict:
        tag = rec.op.data[0]
        tf = self.tf
        if tag == "a4":
            return self._check_a4(rec)
        if rec.error is not None:
            return Verdict(False, f"raised {type(rec.error).__name__}: {rec.error}")
        out = rec.result
        if tag in ("r1", "r1_completed"):
            _, idx, tau, b, c = rec.op.data
            kernel = "completed" if tag == "r1_completed" else "holomorphic"
            want, mags = self._rank1_ref(idx, tau, b, c, kernel)
            tol = out.tail_estimate + ROUNDING * mags
            err = abs(out.value - want)
            return Verdict(err <= tol, f"rank-1 {kernel} value off the numpy sum by {err:.2e} "
                                       f"(tol {tol:.1e})",
                           "completed_r1_cancellation" if tag == "r1_completed" else None)
        if tag == "product":
            _, tau, b, c = rec.op.data
            v1, s1 = self._rank1_ref(0, tau, b[:2], c[:2])
            v2, s2 = self._rank1_ref(0, tau, b[2:], c[2:])
            tol = out.tail_estimate + ROUNDING * s1 * s2
            err = abs(out.value - v1 * v2)
            return Verdict(err <= tol, f"product value off the product of rank-1 sums by "
                                       f"{err:.2e} (tol {tol:.1e})")
        if tag == "a2":
            # a numpy sum over a 4-dimensional box, then the elliptic law
            # theta(b + k0) = e^{-pi i B(k0, p)} e^{-pi i B(c, k0)} theta(b), p = 0
            _, tau, b, c, k0 = rec.op.data
            want, mags = ref.theta_box(A2_FORM, np.array(A2_C).T, np.array(A2_CP).T,
                                       (0,) * 4, (0,) * 4, b, c, tau)
            tol = out.tail_estimate + ROUNDING * mags
            err = abs(out.value - want)
            if not err <= tol:
                return Verdict(False, f"A2 value off the numpy sum by {err:.2e} (tol {tol:.1e})")
            shifted = tf.eval_theta(self._spec(self.a2_form, self.a2, (0,) * 4, (0,) * 4,
                                               tau, b + k0, c), tf.TruncationPolicy(tol=TOL))
            A = np.array(A2_FORM, dtype=float)
            want = np.exp(-1j * math.pi * float(c @ A @ k0)) * out.value
            tol = out.tail_estimate + shifted.tail_estimate + LAW_ABS
            err = abs(shifted.value - want)
            return Verdict(err <= tol, f"elliptic law residual {err:.2e} (tol {tol:.1e})")
        if tag == "qexp_r1":
            return self._check_qexp_r1(out)
        if tag == "qexp_r2":
            return self._check_qexp_r2(out)
        return Verdict(False, f"unknown operation {tag}")

    def _qexp_r1_ref(self):
        if "qexp_r1" not in self._refs:
            _, rows, c, cp, mu, p = RANK1[0]
            self._refs["qexp_r1"] = ref.qexp_rank1(rows, c, cp, mu, p, QEXP_R1_TERMS)
        return self._refs["qexp_r1"]

    def _check_qexp_r1(self, qe) -> Verdict:
        got = [(t.exponent, t.coefficient) for t in qe.terms]
        if got != self._qexp_r1_ref() or any(t.wall_affected for t in qe.terms):
            return Verdict(False, f"rank-1 expansion {got[:4]}... differs from the exact "
                                  "class sums")
        # summed at tau = i the expansion must give the theta value there
        series = np.exp(1j * math.pi * float(qe.phase_exponent)) * sum(
            float(t.coefficient) * math.exp(-2.0 * math.pi * float(t.exponent)) for t in qe.terms)
        want, mags = self._rank1_ref(0, 1j, np.zeros(2), np.zeros(2))
        err = abs(series - want)
        return Verdict(err <= 1e-12 + ROUNDING * mags, f"series at tau = i off by {err:.2e}")

    def _check_qexp_r2(self, qe) -> Verdict:
        r1 = self._qexp_r1_ref()
        square = cauchy_square(r1)
        cut = r1[-1][0] + r1[0][0]  # every class up to here is complete in the square
        want = sorted(e for e in square if e <= cut)[:QEXP_R2_TERMS]
        got = [(t.exponent, t.coefficient) for t in qe.terms]
        if got != [(e, square[e]) for e in want]:
            return Verdict(False, f"product expansion {got[:4]}... is not the square of the "
                                  "rank-1 expansion")
        return Verdict(True)

    def _check_a4(self, rec) -> Verdict:
        tf = self.tf
        if isinstance(rec.error, tf.BudgetExceeded):
            return Verdict(False, f"A4 at tau = 2i: {rec.error}", fault="a4_budget")
        if rec.error is not None:
            return Verdict(False, f"raised {type(rec.error).__name__}: {rec.error}")
        out = rec.result
        if not (math.isfinite(out.tail_estimate) and out.tail_estimate <= A4_POLICY["tol"]):
            return Verdict(False, f"A4 tail estimate {out.tail_estimate}")
        tight = tf.eval_theta(self.a4_spec, tf.TruncationPolicy(tol=1e-4, max_points=1_000_000))
        err = abs(out.value - tight.value)
        return Verdict(err <= out.tail_estimate + tight.tail_estimate,
                       f"A4 value off a tol 1e-4 value by {err:.2e}")
