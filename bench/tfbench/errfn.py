"""Workload errfn: tuple error functions and the rank-2 completed kernel.

Inputs are seeded, well-conditioned frames and generic points: every
subset wall coordinate and sign argument eval_E looks at stays at least
GENERIC away from zero, so eval_E never takes its Monte Carlo route.
kernel_phi_hat runs on the rank-2 product pair at points x = sqrt(2 tau_2)
(k + b) a completed theta sum visits, kept where the kernel is at least
PHI_FLOOR. Below that its 2^r boosted terms cancel (see SMALL_PHI_POINTS).

Round (100 operations): eval_M and eval_E at r = 2, 24 and 34;
kernel_phi_hat at 28 seeded and 4 small points; eval_E and eval_M at r = 3,
2 each; eval_M at r = 4, 2; eval_E at r = 4, 4. Sorted by time the types
come in that order (eval_E r2 after eval_M r2), so the median falls three
quarters into the eval_E r = 2 calls and the tail (99th percentile) a
quarter from the top of the eval_E r = 4 calls. On a shared host whose
speed switches between a fast and a slow level the times of one operation
type are bimodal, and the slow level holds most of a run: a percentile in
the upper part of a type's calls stays in it, where one at their middle
jumps between the two levels as the share of fast time moves from run to
run, and one at the edge between two types jumps between them.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from . import reference as ref
from .core import Op, Verdict
from .theta import PRODUCT_C, PRODUCT_CP, PRODUCT_FORM, RANK1

GENERIC = 0.05
PHI_FLOOR = 1e-4
PHI_REL_TOL = 1e-10
POOL_PER_KIND = 6  # general and orthogonal frames per rank
PHI_POOL = 40

# Fixed points (not seeded) where the product-pair kernel is below 1e-15:
# the 2^r boosted E terms cancel and kernel_phi_hat misses the reference by
# 5e-5 relative or more, or returns exactly 0. They are four of the misses
# among the seeded draws of `python3 bench/small_phi.py`, which reproduces
# them and shows that each still misses.
SMALL_PHI_POINTS = (
    (-0.011, 1.641, -3.221, 0.988),
    (-3.194, 1.576, 1.453, 3.236),
    (-3.148, 3.785, 3.365, 1.953),
    (-0.338, -1.924, -3.557, 0.646),
)

ROUND = (("E", 2, 34), ("M", 2, 24), ("phi", 0, 28), ("phi_small", 0, 4),
         ("E", 3, 2), ("M", 3, 2), ("E", 4, 4), ("M", 4, 2))

# each factor of the product pair: c = (1, 0), c' = (2, 1) on diag(1, -2)
D12, D12_C, D12_CP = (np.array(v, dtype=float) for v in RANK1[0][1:4])


def _generic(m: np.ndarray, u: np.ndarray) -> bool:
    """Every reduced wall coordinate and complement sign argument that the
    subset decomposition of E_r meets is at least GENERIC from zero."""
    r = m.shape[0]
    W = np.linalg.inv(m).T
    for k in range(1, r + 1):
        for S in combinations(range(r), k):
            a_sub = np.linalg.lstsq(m[:, S], u, rcond=None)[0]
            if np.min(np.abs(a_sub)) < GENERIC:
                return False
            comp = [j for j in range(r) if j not in S]
            if comp:
                Wc = W[:, comp]
                Pu = Wc @ np.linalg.solve(Wc.T @ Wc, Wc.T @ u)
                if np.min(np.abs(m[:, comp].T @ Pu)) < GENERIC:
                    return False
    return True


def _frame_entry(rng, r: int, orthogonal: bool):
    while True:
        if orthogonal:
            q, _ = np.linalg.qr(rng.normal(size=(r, r)))
            m = q * rng.uniform(0.5, 2.0, size=r)
        else:
            m = rng.normal(size=(r, r))
            if np.linalg.cond(m) > 4.0:
                continue
        u = rng.normal(size=r) * 0.5
        if _generic(m, u):
            return m, u


def product_kernel_reference(X: np.ndarray):
    """(value, conditioning) of the product pair's completed kernel as the
    product of two rank-1 kernels, rows of X being points."""
    X = np.atleast_2d(X)
    val = np.ones(X.shape[0])
    cond = np.full(X.shape[0], np.inf)
    for block in (slice(0, 2), slice(2, 4)):
        a1, a2 = ref.rank1_kernel_args(D12, D12_C, D12_CP, X[:, block])
        sgn, logmag = ref.log_half_erf_diff(a1, a2)
        val *= sgn * np.exp(logmag)
        cond = np.minimum(cond, ref.half_erf_diff_conditioning(a1, a2))
        cond = np.minimum(cond, np.minimum(np.abs(a1), np.abs(a2)))
    return val, cond


def _phi_points(rng, count: int) -> np.ndarray:
    """Points x = sqrt(2 tau_2)(k + b), k in Z^4 + (1/2, 0, 1/2, 0), with tau_2
    and b seeded; kept where the reference kernel is at least PHI_FLOOR and
    every erf argument and argument gap is well away from zero."""
    out = []
    off = np.array([0.5, 0.0, 0.5, 0.0])
    while len(out) < count:
        tau2 = rng.uniform(0.6, 2.0)
        b = rng.uniform(-0.5, 0.5, size=4)
        m = rng.integers(-3, 4, size=4)
        x = math.sqrt(2.0 * tau2) * (m + off + b)
        val, cond = product_kernel_reference(x)
        if abs(val[0]) >= PHI_FLOOR and cond[0] >= GENERIC:
            out.append(x)
    return np.array(out)


class Workload:
    name = "errfn"

    def setup(self, seed: int) -> None:
        import thetaforge as tf

        self.tf = tf
        rng = np.random.default_rng([seed, 101])
        self.frames = {}
        for r in (2, 3, 4):
            entries = []
            for orthogonal in (False, True):
                for _ in range(POOL_PER_KIND):
                    m, u = _frame_entry(rng, r, orthogonal)
                    arg = tf.ErrFnArgument(frame=tf.ErrorFunctionFrame.from_m(m), u=u)
                    entries.append((orthogonal, m, u, arg))
            # interleave general and orthogonal entries
            self.frames[r] = [e for pair in zip(entries[:POOL_PER_KIND],
                                                entries[POOL_PER_KIND:]) for e in pair]
        self.phi_points = _phi_points(rng, PHI_POOL)
        self.small_points = np.array(SMALL_PHI_POINTS, dtype=float)
        form = tf.BilinearForm.from_rows(PRODUCT_FORM)
        self.pair = tf.ConePair.from_matrices(PRODUCT_C, PRODUCT_CP, form)
        # first calls: certificate and completion cones of the pair, quadrature rules
        tf.kernel_phi_hat(self.pair, self.phi_points[0])
        for r in (2, 3, 4):
            tf.eval_E(self.frames[r][0][3])
            tf.eval_M(self.frames[r][0][3])
        self._refs: dict = {}

    def round_ops(self, i: int) -> list:
        tf = self.tf
        ops = []
        for kind, r, count in ROUND:
            for j in range(count):
                slot = i * count + j
                if kind in ("E", "M"):
                    idx = slot % len(self.frames[r])
                    arg = self.frames[r][idx][3]
                    fn = tf.eval_E if kind == "E" else tf.eval_M
                    ops.append(Op(f"eval_{kind}.r{r}", (lambda f=fn, a=arg: f(a)), (kind, r, idx)))
                else:
                    pts = self.phi_points if kind == "phi" else self.small_points
                    x = pts[slot % len(pts)]
                    label = "kernel_phi_hat.r2" + (".small" if kind == "phi_small" else "")
                    ops.append(Op(label, (lambda x=x: tf.kernel_phi_hat(self.pair, x)), (kind, x)))
        # spread the slow operations through the round
        order = np.random.default_rng([i, 7]).permutation(len(ops))
        return [ops[k] for k in order]

    def _errfn_ref(self, r: int, idx: int):
        key = (r, idx)
        if key not in self._refs:
            orthogonal, m, u, _ = self.frames[r][idx]
            if orthogonal:  # product formula
                E, M = ref.errfn_orthogonal(m, u)
                self._refs[key] = (E, 1e-13 + 1e-10 * abs(E), M, 1e-13 + 1e-10 * abs(M))
            else:
                self._refs[key] = ref.errfn_by_orthants(m, u, qmc_seed=idx)
        return self._refs[key]

    def check(self, rec) -> Verdict:
        kind = rec.op.data[0]
        if rec.error is not None:
            return Verdict(False, f"raised {type(rec.error).__name__}: {rec.error}")
        if kind in ("E", "M"):
            _, r, idx = rec.op.data
            E, tol_E, M, tol_M = self._errfn_ref(r, idx)
            want, tol = (E, tol_E) if kind == "E" else (M, tol_M)
            got = rec.result
            tol += got.est_error
            if not abs(got.value - want) <= tol:
                return Verdict(False, f"{kind}_{r} = {got.value!r}, reference {want!r} (tol {tol:.1e})")
            if got.est_error > 1e-8:
                return Verdict(False, f"{kind}_{r} est_error {got.est_error:.1e}: not the quadrature route")
            return Verdict(True)
        x = rec.op.data[1]
        want = float(product_kernel_reference(x)[0][0])
        rel = abs(rec.result - want) / abs(want)
        if rel <= PHI_REL_TOL:
            return Verdict(True)
        fault = "phi_hat_cancellation" if kind == "phi_small" else None
        return Verdict(False, f"kernel_phi_hat = {rec.result!r}, reference {want!r} "
                              f"(relative error {rel:.1e})", fault)
