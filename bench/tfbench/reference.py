"""Reference computations made apart from thetaforge.

Nothing here imports the library: every value the benchmark checks is
either recomputed from its definition with numpy/scipy or tested against a
law the method must obey.

* Tuple error functions. E_r(M; u) is the expectation of prod_j sign(z_j)
  for z = M^T u' with u' ~ N(u, I / 2pi), so it is a signed sum of orthant
  probabilities of the Gaussian z ~ N(M^T u, M^T M / 2pi); through the
  wall-crossing expansion M_r is a single one of them. Orthant
  probabilities are closed forms up to two dimensions (ndtr and Owen's T)
  and Genz's quasi-Monte Carlo (scipy) beyond.
* Rank-1 kernels 1/2 (erf a - erf b), evaluated in log space through erfcx
  so that two nearly equal erf values do not cancel.
* Theta series of cone pairs (holomorphic at any rank, completed at rank 1)
  as direct numpy sums over a box sized from the Gaussian decay of the
  terms, sampled over directions.
* Zwegers' conditions for rank-1 cone pairs, and exact Fraction arithmetic
  for the support law Q <= Q_-.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.special import erf, erfcx, ndtr, owens_t

SQRT_PI = math.sqrt(math.pi)
QMC_ABSEPS_E = 1e-6
QMC_ABSEPS_M = 1e-7
QMC_SAFETY = 20.0  # scipy's error target is an estimate, not a bound
SLAB_POINTS = 1 << 16  # box points summed at once


# ---------------------------------------------------------------- errfn


def _subsets(r: int):
    for k in range(r + 1):
        yield from combinations(range(r), k)


def _bvn_lower(h: float, k: float, rho: float) -> float:
    """P(X < h, Y < k) for standard normals with correlation rho (Owen 1956)."""
    s = math.sqrt(1.0 - rho * rho)
    a_h = (k - rho * h) / (h * s)
    a_k = (h - rho * k) / (k * s)
    beta = 0.0 if (h * k > 0 or (h * k == 0 and h + k >= 0)) else 0.5
    return float(0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, a_h) - owens_t(k, a_k) - beta)


def _lower_orthant(mean: np.ndarray, cov: np.ndarray, T: tuple, qmc_seed: int,
                   abseps: float) -> float:
    """P(z_j < 0 for all j in T), z ~ N(mean, cov): closed forms up to two
    dimensions, Genz's quasi-Monte Carlo to absolute accuracy abseps beyond."""
    if not T:
        return 1.0
    idx = list(T)
    mu = mean[idx]
    sd = np.sqrt(np.diag(cov)[idx])
    h = -mu / sd
    if len(T) == 1:
        return float(ndtr(h[0]))
    if len(T) == 2:
        rho = cov[idx[0], idx[1]] / (sd[0] * sd[1])
        return _bvn_lower(float(h[0]), float(h[1]), float(rho))
    from scipy.stats import multivariate_normal  # slow import, only needed here

    corr = cov[np.ix_(idx, idx)] / np.outer(sd, sd)
    return float(multivariate_normal.cdf(h, mean=np.zeros(len(T)), cov=corr,
                                         abseps=abseps, releps=0.0,
                                         rng=np.random.default_rng(qmc_seed)))


def errfn_by_orthants(m_mat: np.ndarray, u: np.ndarray, qmc_seed: int = 0) -> tuple:
    """(E_r, tol_E, M_r, tol_M) from orthant probabilities of
    z ~ N(M^T u, M^T M / 2pi).

    E_r = E[prod_j sign z_j] = sum_T (-2)^|T| P(z_T < 0) (inclusion-exclusion
    on lower orthants). Expanding M_r = sum_S (-1)^(r-|S|) prod_{j not in S}
    sigma_j E[prod_{j in S} sign z_j], sigma = sign(M^-1 u), every sign
    pattern but z = -sigma cancels: M_r = (-2)^r prod(sigma) P(sigma z < 0).
    Each tolerance bounds the reference's own error.
    """
    r = m_mat.shape[0]
    mean = m_mat.T @ u
    cov = (m_mat.T @ m_mat) / (2.0 * math.pi)
    lower = {T: _lower_orthant(mean, cov, T, qmc_seed, QMC_ABSEPS_E) for T in _subsets(r)}
    E = sum((-2.0) ** len(T) * p for T, p in lower.items())
    tol_E = 1e-12 + QMC_SAFETY * QMC_ABSEPS_E * sum(
        2.0 ** len(T) for T in lower if len(T) >= 3)
    sigma = np.sign(np.linalg.solve(m_mat, u))
    P = _lower_orthant(sigma * mean, cov * np.outer(sigma, sigma), tuple(range(r)), qmc_seed,
                       QMC_ABSEPS_M)
    M = (-2.0) ** r * float(np.prod(sigma)) * P
    tol_M = 2.0 ** r * (QMC_SAFETY * QMC_ABSEPS_M if r >= 3 else 1e-14 + 1e-10 * P)
    return E, tol_E, M, tol_M


def errfn_orthogonal(m_mat: np.ndarray, u: np.ndarray) -> tuple:
    """(E_r, M_r) for a frame with orthogonal columns: both factorize into
    rank-1 values erf(sqrt(pi) t) and -sign(t) erfc(sqrt(pi) |t|)."""
    t = (m_mat.T @ u) / np.linalg.norm(m_mat, axis=0)
    E = float(np.prod(erf(SQRT_PI * t)))
    M = float(np.prod(-np.sign(t) * erfcx(SQRT_PI * np.abs(t)) * np.exp(-math.pi * t * t)))
    return E, M


# ------------------------------------------------------- rank-1 kernels


def log_half_erf_diff(a, b):
    """(sign, log|.|) of 1/2 (erf a - erf b), elementwise, without cancellation.

    When a and b share a sign, erf a - erf b = +-(erfc lo - erfc hi) with
    lo = min(|a|, |b|), hi = max(|a|, |b|), and
    erfc lo - erfc hi = e^{-lo^2} (erfcx lo - erfcx hi e^{lo^2 - hi^2}).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sgn = np.sign(a - b)
    same = (a * b) > 0
    out = np.full(np.broadcast(a, b).shape, -np.inf)
    opp = ~same & (sgn != 0)
    out[opp] = np.log(np.abs(erf(a[opp]) - erf(b[opp])) / 2.0)
    if np.any(same):
        lo = np.minimum(np.abs(a[same]), np.abs(b[same]))
        hi = np.maximum(np.abs(a[same]), np.abs(b[same]))
        delta = (hi - lo) * (hi + lo)
        bracket = (erfcx(lo) - erfcx(hi)) - erfcx(hi) * np.expm1(-delta)
        with np.errstate(divide="ignore"):
            out[same] = -lo * lo + np.log(bracket / 2.0)
    return sgn, out


def half_erf_diff_conditioning(a, b):
    """Smallest |a^2 - b^2| where a and b share a sign (inf otherwise): the
    reference loses about eps / this much relative accuracy."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.where(a * b > 0, np.abs(a * a - b * b), np.inf)


def rank1_kernel_args(A: np.ndarray, c: np.ndarray, cp: np.ndarray, X: np.ndarray):
    """erf arguments sqrt(pi) B(c, x) / sqrt(Q(c)) for the two cone vectors."""
    qc = float(c @ A @ c)
    qcp = float(cp @ A @ cp)
    return (SQRT_PI * (X @ (A @ c)) / math.sqrt(qc),
            SQRT_PI * (X @ (A @ cp)) / math.sqrt(qcp))


# ------------------------------------------------------- theta series


def decay_rate(A, C, Cp, completed: bool = False) -> float:
    """Half the least rate g(y) over seeded unit vectors y, where g bounds
    every term of the series at y by e^{-pi tau_2 g(y) |y|^2}.

    On the sign-cone support |phi| <= 1, so g = -Q(y); holomorphic terms
    vanish off it. Off the support the completed rank-1 kernel has both erf
    arguments a_j of one sign, so |phi_hat| <= 1/2 erfc(min |a_j|) <=
    e^{-min a_j^2}, a_j^2 = 2 pi tau_2 B(c_j, y)^2 / Q(c_j), which gives
    g = max(-Q(y), 2 min_j B(c_j, y)^2 / Q(c_j) - Q(y)) there. Halving the
    sampled least value keeps the rate safe between the samples.
    """
    key = lambda M: tuple(map(tuple, np.asarray(M, dtype=float).reshape(-1, len(A))))
    return _decay_rate(key(A), key(C), key(Cp), completed)


@lru_cache(maxsize=None)
def _decay_rate(A: tuple, C: tuple, Cp: tuple, completed: bool, samples: int = 200_000) -> float:
    A = np.array(A)
    C = np.array(C)
    Cp = np.array(Cp)
    Y = np.random.default_rng(0).normal(size=(samples, A.shape[0]))
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    q = np.einsum("ki,ij,kj->k", Y, A, Y)
    s1 = Y @ (A @ C.T)
    s2 = Y @ (A @ Cp.T)
    sup = np.all(np.sign(s1) != np.sign(s2), axis=1)
    g = np.where(sup, -q, np.inf)
    if completed:
        b2 = np.minimum(np.min(s1 * s1 / np.einsum("ji,ik,jk->j", C, A, C), axis=1),
                        np.min(s2 * s2 / np.einsum("ji,ik,jk->j", Cp, A, Cp), axis=1))
        g = np.where(sup, -q, np.maximum(-q, 2.0 * b2 - q))
    kappa = float(np.min(g))
    if not kappa > 0:
        raise ValueError("the terms do not decay in every direction; the pair cannot pass")
    return 0.5 * kappa


def theta_box(A, C, Cp, mu, p, b, c_ell, tau: complex, kernel: str = "holomorphic",
              cut: float = 60.0) -> tuple:
    """(value, sum of |terms|) of the theta series of a cone pair,

        sum over k in Z^n + mu + p/2 of e^{pi i B(k, p)} phi(k + b)
        q^{-Q(k+b)/2} e^{2 pi i B(c_ell, k + b/2)},

    as a direct numpy sum over a box. C and Cp list the cone vectors c_j and
    c'_j. The holomorphic kernel is phi(y) = prod_j (sign B(c_j, y) -
    sign B(c'_j, y)) / 2; the completed one (rank 1 only) is 1/2 (erf a -
    erf b) at x = sqrt(2 tau_2) y, combined with the q-power in log space so
    that nothing cancels. Every term is at most e^{-pi tau_2 kappa |y|^2}
    (decay_rate), so a box with half-width L, pi tau_2 kappa L^2 >= cut,
    leaves out less than about e^-cut. The box is summed in slabs along its
    first coordinate to keep memory small.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float).reshape(-1, A.shape[0])
    Cp = np.asarray(Cp, dtype=float).reshape(-1, A.shape[0])
    n = A.shape[0]
    completed = kernel == "completed"
    if completed and C.shape[0] != 1:
        raise ValueError("the completed reference covers rank 1 only")
    b = np.asarray(b, dtype=float)
    off = np.array([float(mu[i]) + 0.5 * float(p[i]) for i in range(n)])
    Ap = A @ np.asarray(p, dtype=float)
    Ac = A @ np.asarray(c_ell, dtype=float)
    kappa = decay_rate(A, C, Cp, completed)
    L = int(math.ceil(math.sqrt(cut / (math.pi * tau.imag * kappa)))) + 2
    ax = np.arange(-L, L + 1, dtype=float)
    rest = np.stack([g.reshape(-1) for g in np.meshgrid(*([ax] * (n - 1)), indexing="ij")],
                    axis=1)
    total = 0j
    mags = 0.0
    step = max(1, SLAB_POINTS // rest.shape[0])
    for i in range(0, len(ax), step):
        first = ax[i:i + step]
        K = np.hstack([np.repeat(first, rest.shape[0])[:, None],
                       np.tile(rest, (len(first), 1))]) + off
        Y = K + b
        Qy = np.einsum("ki,ij,kj->k", Y, A, Y)
        if completed:
            a1, a2 = rank1_kernel_args(A, C[0], Cp[0], math.sqrt(2.0 * tau.imag) * Y)
            sgn, logphi = log_half_erf_diff(a1, a2)
        else:
            sgn = np.prod((np.sign(Y @ (A @ C.T)) - np.sign(Y @ (A @ Cp.T))) / 2.0, axis=1)
            logphi = np.zeros_like(Qy)
        sup = sgn != 0
        z = (1j * math.pi * (K[sup] @ Ap) - 1j * math.pi * tau * Qy[sup]
             + 2j * math.pi * ((K[sup] + b / 2.0) @ Ac) + logphi[sup])
        terms = sgn[sup] * np.exp(z)
        total += complex(np.sum(terms))
        mags += float(np.sum(np.abs(terms)))
    return total, mags


def qexp_rank1(A, c, cp, mu, p, n_terms: int) -> list:
    """First n_terms (exponent, coefficient) pairs of the holomorphic rank-1
    series at b = c_ell = 0 on a 2-dimensional lattice, in exact arithmetic:
    classes -Q(k)/2 of support points k in Z^2 + mu + p/2, coefficient the
    sum of (-1)^{B(k - mu - p/2, p)} phi(k). The phase e^{pi i B(mu + p/2, p)}
    common to all classes is left out. Support points of exponent <= E lie
    in |k|^2 <= E / kappa, so the box is sized from the largest exponent kept.
    """
    kappa = decay_rate(A, [c], [cp])
    off = [Fraction(mu[i]) + Fraction(p[i], 2) for i in range(2)]
    E = Fraction(4)
    while True:
        L = int(math.ceil(math.sqrt(float(E) / kappa))) + 2
        classes: dict = {}
        for m0 in range(-L, L + 1):
            for m1 in range(-L, L + 1):
                k = (m0 + off[0], m1 + off[1])
                phi = Fraction(support_sign(A, [c], [cp], k), 2)
                if phi == 0:
                    continue
                expo = -quad_exact(A, k) / 2
                if expo > E:
                    continue
                bmp = sum(int(A[i][j]) * (m0, m1)[i] * int(p[j])
                          for i in range(2) for j in range(2))
                classes[expo] = classes.get(expo, 0) + (phi if bmp % 2 == 0 else -phi)
        if len(classes) >= n_terms:
            return sorted(classes.items())[:n_terms]
        E *= 2


# ------------------------------------------------------------- cones


def zwegers_pass(A, c, cp) -> bool:
    """Zwegers' conditions for a rank-1 pair on a signature (1, n-1) form:
    Q(c), Q(c'), B(c, c') > 0 and B(c, c')^2 > Q(c) Q(c')."""
    A = [[int(x) for x in row] for row in A]

    def bil(x, y):
        return sum(x[i] * A[i][j] * y[j] for i in range(len(A)) for j in range(len(A)))

    qc, qcp, bcc = bil(c, c), bil(cp, cp), bil(c, cp)
    return qc > 0 and qcp > 0 and bcc > 0 and bcc * bcc > qc * qcp


def support_sign(A, C, Cp, y) -> int:
    """phi_r(y) up to its 2^-r factor: prod_j (sign B(c_j, y) - sign B(c'_j, y)),
    exact on integer input."""
    n = len(A)
    Ay = [sum(A[i][j] * y[j] for j in range(n)) for i in range(n)]
    out = 1
    for c, cp in zip(C, Cp):
        s1 = sum(ci * ai for ci, ai in zip(c, Ay))
        s2 = sum(ci * ai for ci, ai in zip(cp, Ay))
        out *= ((s1 > 0) - (s1 < 0)) - ((s2 > 0) - (s2 < 0))
    return out


def quad_exact(M, y) -> Fraction:
    n = len(M)
    return sum((Fraction(M[i][j]) * y[i] * y[j] for i in range(n) for j in range(n)),
               Fraction(0))


def negative_definite(M) -> bool:
    """-M positive definite, by Cholesky on the float matrix."""
    try:
        np.linalg.cholesky(-np.array([[float(x) for x in row] for row in M]))
    except np.linalg.LinAlgError:
        return False
    return True
