"""Generalized error functions E_r and their complements M_r.

E_r(M; u) = int_{R^r} e^{-pi (u-u')^T (u-u')} sign(prod_j m_j . u') d^r u' is the
Gaussian-smoothed sign product attached to a nonsingular frame M; M_r is the
exponentially small complement with prescribed jumps across the walls
w_j . u = 0 of the dual frame. Conventions: M_0 = E_0 = 1, sign(0) = 0.

E_r is the mean of prod_j sign(z_j), z ~ N(M^T u, M^T M / 2 pi), so by
inclusion-exclusion E_r = sum_{T subset of {1..r}} (-2)^|T| P(z_T < 0). Each
term is smooth in u: E_r has no walls and one deterministic route. Orthants
of one and two coordinates are closed forms (ndtr and Owen's T, Owen 1956);
those of three and four condition on one or two Cholesky coordinates,
integrated by Gauss-Legendre against the normal density, over a closed-form
bivariate orthant (Genz 2004).

M_r is evaluated through an exact rewrite of its contour integral. Writing
a = W^T u and eps_j = sign(a_j), each pole factor 1/(w_j . t - i a_j) is an
exponential integral over s_j >= 0; the Gaussian t-integral then collapses and

    M_r(M; u) = (-1)^r pi^-r sign(prod a) |det M|^-1 e^{-pi u.u} * J,
    J = int_{[0,inf)^r} exp(-|a| . s - s^T G s / (4 pi)) ds,
    G = diag(eps) (W^T W) diag(eps).

J has a smooth positive integrand with no poles, uniformly in the wall
distances. Its axis of strongest decay is integrated in closed form (erfcx),
the others by Gauss-Legendre on truncated boxes, built and contracted axis
by axis from 1-D node vectors, so M_r keeps its relative precision however
small it is. The grid is built in pieces of at most _J_CELLS cells, so that
its temporaries stay in L2: a batch's rows in groups, a rank-4 row in slabs
along its outermost node axis. Each piece does the arithmetic of the whole
grid, so the values do not depend on the pieces. The contour-shifted tensor
Gauss-Hermite rule is kept as eval_M_contour; it is spectrally accurate
only when every |a_j| is order one and serves as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.special import erfcx, ndtr, owens_t

from .exceptions import RankTooLarge, ValidationError, WallTooClose
from .quadform import ErrorFunctionFrame, subset_projectors

MAX_RANK = 4
# Most points nodes_per_axis ** r that a rank-r tensor rule may ask for: the
# default 64 nodes at rank 4, the largest grid that the defaults, the verify
# suite (320 nodes at rank 2) and the benchmark ask for.
MAX_GRID_POINTS = 64 ** 4
_CUT = 46.0  # exp(-46) ~ 1e-20 truncation for the orthant boxes
_E_CUT = 8.6  # Phi(-8.6) ~ 4e-18: normal mass left out below each conditioned coordinate
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature policy for E_r and M_r.

    nodes_per_axis: rule size per axis (the error estimate reruns at half
    this); at rank r, nodes_per_axis ** r may not exceed MAX_GRID_POINTS.
    The same spec serves the orthant rule of eval_M, the conditioned
    coordinates of eval_E and the Gauss-Hermite rule of eval_M_contour.
    """

    nodes_per_axis: int = 64

    def __post_init__(self):
        if self.nodes_per_axis < 8:
            raise ValueError("nodes_per_axis must be at least 8")

    def check_grid(self, r: int) -> None:
        """Refuse a rank-r grid of more than MAX_GRID_POINTS points before
        any node is computed."""
        if self.nodes_per_axis ** r > MAX_GRID_POINTS:
            raise ValidationError(
                f"{self.nodes_per_axis} nodes per axis at rank {r} ask for a grid of "
                f"{self.nodes_per_axis ** r} points, over the cap of {MAX_GRID_POINTS}")


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True, eq=False)
class ErrFnArgument:
    """Frame plus evaluation point, with the wall refusal threshold.

    wall_eps defaults to max(1e-9 |u|, 1e-12). M_r evaluation refuses points
    with any |w_j . u| <= wall_eps; E_r is smooth and never refuses.
    """

    frame: ErrorFunctionFrame
    u: np.ndarray
    wall_eps: float | None = None

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        object.__setattr__(self, "u", u)
        if u.shape != (self.frame.r,):
            raise ValueError(f"u has shape {u.shape}, frame rank is {self.frame.r}")
        if not np.all(np.isfinite(u)):
            raise ValueError(f"u must be finite, got {u}")
        if self.wall_eps is None:
            object.__setattr__(self, "wall_eps", max(1e-9 * float(np.linalg.norm(u)), 1e-12))
        elif self.wall_eps <= 0:
            raise ValueError("wall_eps must be positive")


@dataclass(frozen=True)
class ErrFnValue:
    """route: "closed form" (r <= 1, and E_2), "orthant rule" (E_3, E_4, M_r at r >= 2),
    "contour rule" or "monte carlo"; a sum of terms has that of its full-rank term."""

    value: float
    imag_residual: float
    est_error: float
    route: str = "closed form"


def wall_distances(arg: ErrFnArgument) -> np.ndarray:
    """Signed wall coordinates a_j = w_j . u."""
    return arg.frame.w_mat.T @ arg.u


def _frozen_rule(rule):
    """rule(n) -> (nodes, weights), cached and read-only."""
    @lru_cache(maxsize=32)
    def cached(n: int):
        x, w = rule(n)
        x.setflags(write=False)
        w.setflags(write=False)
        return x, w
    return cached


def _shifted_leggauss(n: int):
    """Gauss-Legendre nodes x + 1 on [0, 2] and their weights."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x + 1.0, w


_leggauss = _frozen_rule(_shifted_leggauss)
_hermgauss = _frozen_rule(np.polynomial.hermite.hermgauss)


def _log_erfcx(x: np.ndarray) -> np.ndarray:
    """log(e^{x^2} erfc(x)). Below x = -25, erfc(x) is 2 to double precision
    and erfcx(x) overflows, so the value there is x^2 + log 2."""
    out = np.log(erfcx(x))
    if x.min() < -25.0:
        low = x < -25.0
        out[low] = x[low] ** 2 + math.log(2.0)
    return out


def _tensor_grid(nodes: list[np.ndarray], weights: list[np.ndarray]):
    """Tensor product of 1-D rules: points (columns of S) and weights. With
    no rule it is the single empty point of weight 1."""
    wt = np.ones(1)
    for w in weights:
        wt = np.multiply.outer(wt, w)
    grids = np.meshgrid(*nodes, indexing="ij") if len(nodes) > 1 else nodes
    return np.array([g.reshape(-1) for g in grids]).reshape(len(nodes), wt.size), wt.reshape(-1)


# Most cells of one piece of _orthant_J: its 128 KB temporaries stay in L2, where
# a whole rank-4 row at 64 nodes makes 2 MB ones. A rank-3 row (at most 256^2
# cells within MAX_GRID_POINTS) is never cut: its innermost contraction is one
# matrix-vector product, and BLAS rounds some rows of a product over part of the
# matrix differently.
_J_CELLS = 1 << 14


@lru_cache(maxsize=None)
def _axes(s: int) -> tuple:
    """For _orthant_J at s axes: the other axes of each axis k, and where
    each of them starts among a row's scalars."""
    return ([[j for j in range(s) if j != k] for k in range(s)],
            [2 + 4 * i + i * (i - 1) // 2 for i in range(s)])


@lru_cache(maxsize=32)
def _joint_rule(rules: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes of every rule in rules side by side, and
    their weights as the columns of a block-diagonal matrix, read-only."""
    x1 = np.concatenate([_leggauss(n)[0] for n in rules])
    B = np.zeros((len(x1), len(rules)))
    start = 0
    for i, n in enumerate(rules):
        B[start:start + n, i] = _leggauss(n)[1]
        start += n
    x1.setflags(write=False)
    B.setflags(write=False)
    return x1, B


def _orthant_J(WtW: np.ndarray, eps: np.ndarray, b: np.ndarray, d: np.ndarray,
               rules: tuple) -> np.ndarray:
    """J at each row of b = |a| (N x s), with signs eps (N x s), dual Grams
    WtW (N x s x s) and d = diag(G^-1) (N x s), G = diag(eps) WtW diag(eps):
    an array (len(rules), N), one line per Gauss-Legendre node count.

    Per row, the axis k of strongest linear decay is integrated in closed
    form, int_0^inf e^{-beta s - gamma s^2/(4 pi)} ds = (pi / sqrt(gamma))
    erfcx(x), x = beta sqrt(pi/gamma) (all of J at s = 1), the others on
    the box outside which the integrand is below e^-(_CUT + 2). erfcx's
    e^{x^2} growth, where negative couplings take beta below 0, stays in log
    space against the outer Gaussian. The exponent and x are outer sums of
    1-D node vectors, contracted with the weights axis by axis and then
    scaled by the product of the box half widths. A row's few scalars are
    Python floats, its node arrays are built with all rows at once, and no
    row's value depends on the other rows.

    Cells are built in pieces of at most _J_CELLS, so that the exponent,
    erfcx and exp temporaries stay in L2: whole rows in groups and, at
    s >= 4, a longer row in slabs along its outermost node axis. Each slab
    is contracted over its innermost axis on whole matrices of the last two
    axes, the slabs are joined and the other axes contracted as for a whole
    row, so the pieces change no bit of J.
    """
    N, s = b.shape
    if s == 1:  # eps^2 = 1: G = WtW
        gamma = WtW[:, 0, 0]
        v = np.pi / np.sqrt(gamma) * erfcx(b[:, 0] * np.sqrt(np.pi / gamma))
        return v[None].repeat(len(rules), axis=0)
    c = s - 1
    # cells of one row: the joint rule's nodes at s = 2, one rule's grid per pass above
    step = max(1, _J_CELLS // (sum(rules) if c == 1 else max(rules) ** c))
    if N > step:
        return np.concatenate([_orthant_J(WtW[sl], eps[sl], b[sl], d[sl], rules)
                               for sl in (slice(a, a + step) for a in range(0, N, step))], axis=1)
    # per row: log(pi / sqrt(gamma)), beta_k root (root = sqrt(pi / gamma)), then per other axis j
    # its half box, b_j, G_jj / 4 pi, G_jk root / 2 pi, G_qj / 2 pi for earlier q (G = eps WtW eps)
    (others, base), pi, four_pi = _axes(s), math.pi, 4.0 * math.pi
    scalars, coupled, half_pi, quarter_pi = [], [False] * c, 0.5 / pi, 0.25 / pi
    for W, e, bb, dd in zip(WtW.tolist(), eps.tolist(), b.tolist(), d.tolist()):
        k = bb.index(max(bb))
        Wk, ek = W[k], e[k]
        root = math.sqrt(pi / Wk[k])
        row = [math.log(pi / math.sqrt(Wk[k])), bb[k] * root]
        for i, j in enumerate(others[k]):
            cpl = e[j] * W[j][k] * ek * half_pi * root
            if cpl != 0.0:
                coupled[i] = True
            bj = bb[j]
            qd = 1.0 / (four_pi * max(dd[j], 1e-300))  # box: exponent >= b s + qd s^2
            half = (-bj + math.sqrt(bj * bj + 4.0 * qd * (_CUT + 2.0))) / (2.0 * qd)
            row += (0.5 * half, bj, W[j][j] * quarter_pi, cpl)
            if i:
                row += [e[q] * W[q][j] * e[j] * half_pi for q in others[k][:i]]
        scalars.append(row)
    # one row keeps Python floats, which numpy broadcasts at less cost
    col = scalars[0] if N == 1 else list(
        np.array(scalars).reshape((N, base[c]) + (1,) * c).swapaxes(0, 1))

    def log_erfcx(T):  # of the erfcx argument x, on the node arrays T of the other axes
        xx = col[1]
        for i in range(c):
            if coupled[i]:
                xx = xx + col[base[i] + 3] * T[i]
        return _log_erfcx(np.array(xx, ndmin=s, copy=None))

    lines = []
    # at s = 2 the rules share the one node axis and run as one pass side by side
    for group in [rules] if c == 1 else [(nodes,) for nodes in rules]:
        x1, B = _joint_rule(group)
        n = len(x1)
        S = [(x1 * col[base[i]]).reshape((N,) + (1,) * i + (n,) + (1,) * (c - 1 - i))
             for i in range(c)]
        # one slab, unless a one-row piece at c > 2 has more than _J_CELLS cells
        slab, parts = n if c < 3 else max(1, _J_CELLS // (N * n ** (c - 1))), []
        held = None if coupled[0] else log_erfcx(S)  # then the same in every slab
        for lo in range(0, n, slab):
            T = [S[0][:, lo:lo + slab]] + S[1:]
            L = col[0]
            for i in range(c):
                L = L - T[i] * (col[base[i] + 1] + col[base[i] + 2] * T[i])
                for q in range(i):
                    L -= (col[base[i] + 4 + q] * T[q]) * T[i]
            L += log_erfcx(T) if held is None else held
            F = np.exp(L, out=L)
            parts.append(F @ B[:, 0] if c > 1 else F)  # the innermost axis, of one rule at c > 1
        F = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        for _ in range(c - 2):  # the other inner axes
            F = F @ B[:, 0]
        lines.append((F[:, None, :] @ B)[:, 0])  # a product per row, whatever the other rows
    J = lines[0] if len(lines) == 1 else np.concatenate(lines, axis=1)
    widths = math.prod(col[base[i]] for i in range(c))  # the box half widths scale their axes
    return (J * (widths if N == 1 else widths.reshape(N, 1))).T


def _check_rank(r: int, quad: QuadratureSpec):
    if r > MAX_RANK:
        raise RankTooLarge(f"rank {r} exceeds direct evaluation cap {MAX_RANK}")
    quad.check_grid(r)


def _check_walls(a: np.ndarray, wall_eps: float) -> np.ndarray:
    """|a|, after refusing a point with some |a_j| <= wall_eps."""
    dist = np.abs(a)
    if len(dist) and dist.min() <= wall_eps:
        j = int(dist.argmin())
        raise WallTooClose(
            f"wall coordinate w_{j} . u = {a[j]:.3e} is within {wall_eps:.3e} of zero",
            j=j,
            distance=float(dist[j]),
        )
    return dist


def eval_M(arg: ErrFnArgument, quad: QuadratureSpec = DEFAULT_QUAD) -> ErrFnValue:
    """M_r at a point off every wall, through the orthant integral J: the
    one-row caller of _orthant_J.

    Raises WallTooClose when min_j |w_j . u| <= wall_eps and RankTooLarge
    past the direct cap. The orthant path is purely real, so imag_residual
    is 0. est_error is the gap to the rule at half the node count plus, as
    a share of |M_r|, 1e-15, 4 eps pi u.u for the rounded exponent of
    e^{-pi u.u} and at r >= 2 c n eps, n = nodes_per_axis: the rule loses
    accuracy as n grows, faster past 1024 nodes, so c = 4 up to 1024 and 16
    above (against 40-digit orthant integrals on 120 seeded rank-2 frames,
    the error stays below 0.72 of est_error from 64 to 4096 nodes).
    """
    r = arg.frame.r
    _check_rank(r, quad)
    if r == 0:
        return ErrFnValue(1.0, 0.0, 0.0)
    a = wall_distances(arg)
    b = _check_walls(a, arg.wall_eps)
    eps, n = np.sign(a), quad.nodes_per_axis
    w_mat, m_mat = arg.frame.w_mat, arg.frame.m_mat
    gauss = np.pi * float(arg.u @ arg.u)
    pref = ((-1.0) ** r * np.pi ** (-r) * math.prod(eps.tolist())
            / abs(float(np.linalg.det(m_mat))) * math.exp(-gauss))
    d = np.add.reduce(m_mat * m_mat, axis=0)  # diag(G^-1) = diag(M^T M)
    v1, v2 = _orthant_J((w_mat.T @ w_mat)[None], eps[None], b[None], d[None],
                        (n, max(n // 2, 8)))[:, 0].tolist()
    value = pref * v1
    rule = (4.0 if n <= 1024 else 16.0) * n * _EPS if r > 1 else 0.0
    rounding = 1e-15 + 4.0 * _EPS * gauss + rule
    est = abs(pref) * abs(v1 - v2) + abs(value) * rounding
    return ErrFnValue(value, 0.0, est, "orthant rule" if r > 1 else "closed form")


def _contour_sum(m_mat, w_mat, a, u, n) -> complex:
    r = m_mat.shape[0]
    x, w = _hermgauss(n)
    t_nodes = x / math.sqrt(np.pi)
    total = 0.0 + 0.0j
    # block over the first axis to bound memory at higher rank
    T, wt = _tensor_grid([t_nodes] * (r - 1), [w] * (r - 1))
    for i0 in range(n):
        den = np.ones(T.shape[1], dtype=complex)
        for j in range(r):
            den *= w_mat[0, j] * t_nodes[i0] + w_mat[1:, j] @ T - 1j * a[j]
        total += w[i0] * np.sum(wt / den)
    pref = (1j / np.pi) ** r / abs(np.linalg.det(m_mat)) * math.exp(-np.pi * float(u @ u))
    return pref * total * np.pi ** (-r / 2)


def eval_M_contour(arg: ErrFnArgument, quad: QuadratureSpec = DEFAULT_QUAD) -> ErrFnValue:
    """Contour-shifted tensor Gauss-Hermite evaluation of M_r.

    Integrand e^{-pi t.t} / prod_j (w_j . t - i a_j) on the real slice; the
    rule converges spectrally only when the poles stay order one away from
    the contour, i.e. all |a_j| ~ 1. Kept as an independent cross-check.
    """
    r = arg.frame.r
    _check_rank(r, quad)
    if r == 0:
        return ErrFnValue(1.0, 0.0, 0.0)
    a = wall_distances(arg)
    _check_walls(a, arg.wall_eps)
    n = quad.nodes_per_axis
    v1 = _contour_sum(arg.frame.m_mat, arg.frame.w_mat, a, arg.u, n)
    v2 = _contour_sum(arg.frame.m_mat, arg.frame.w_mat, a, arg.u, max(n // 2, 8))
    est = abs(v1.real - v2.real) + abs(v1.real) * 1e-15 + 1e-18
    return ErrFnValue(float(v1.real), float(v1.imag), est, "contour rule")


def _subsets(r: int):
    for k in range(r + 1):
        yield from combinations(range(r), k)


def _bvn_lower(h: np.ndarray, k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """P(X < h, Y < k) for standard normals of correlation rho, elementwise
    on arrays that broadcast (Owen 1956), exact where h or k is 0. The zero
    cases are patched in only where some argument is 0."""
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    zero = not (h.all() and k.all())

    def arm(h, k):  # T(h, (k - rho h) / (h s)), with its h -> 0+ limit at h = 0
        if not zero:
            return owens_t(h, (k - rho * h) / (h * s))
        on = h == 0.0
        return np.where(on, 0.25 * np.sign(k), owens_t(h, (k - rho * h) / np.where(on, 1.0, h * s)))

    beta = 0.5 * ((h < 0.0) != (k < 0.0))  # Owen's 1/2 where h k < 0, or h k = 0 > h + k
    p = 0.5 * (ndtr(h) + ndtr(k)) - arm(h, k) - arm(k, h) - beta
    if not zero:
        return p
    return np.where((h == 0.0) & (k == 0.0), 0.25 + np.arcsin(rho) / (2.0 * np.pi), p)


def _gl_normal(upper, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes on [-_E_CUT, upper] for each entry of upper (a
    row each), with the standard normal density folded into the weights."""
    x1, w = _leggauss(n)
    half = 0.5 * (np.clip(upper, -_E_CUT, _E_CUT) + _E_CUT)[..., None]
    z = half * x1 - _E_CUT
    return z, half * w * np.exp(-0.5 * z * z) / math.sqrt(2.0 * np.pi)


def _conditioned_cholesky(R: np.ndarray) -> tuple[list, np.ndarray]:
    """(order, L), X ~ N(0, R) reordered by order as X = L Z, so that each of
    the len(R) - 2 coordinates conditioned on first has the smallest largest
    |correlation| with the rest, given those before it: the bivariate limits
    left at the end then move slowly with them, and the integrand stays
    smooth."""
    K, rest, order = R.copy(), list(range(len(R))), []
    for _ in range(len(R) - 2):
        sub = K[np.ix_(rest, rest)]
        corr = np.abs(sub) / np.sqrt(np.outer(np.diag(sub), np.diag(sub)))
        np.fill_diagonal(corr, 0.0)
        j = rest.pop(int(np.argmin(corr.max(axis=1))))
        order.append(j)
        K = K - np.outer(K[:, j], K[j]) / K[j, j]
    order += rest
    return order, np.linalg.cholesky(R[np.ix_(order, order)])


def _orthant_rows(h: np.ndarray, L: np.ndarray, n: int):
    """P(X < h), X = L Z with len(h) = 3 or 4, as sum weight * P2(h', k'; rho').

    The first c = len(h) - 2 coordinates of Z take n Gauss-Legendre nodes
    each; given them, the last two of X are a bivariate normal. Rows of
    weight below 1e-20 are dropped: within the grid cap (at most 64^2 rows)
    and with |coefficient| <= 16 they move E_r by less than 1e-15.
    """
    c = len(h) - 2
    z1, w1 = _gl_normal(h[0], n)  # L[0, 0] = 1
    if c == 1:
        Z, wt = z1[None, :], w1
    else:
        z2, w2 = _gl_normal((h[1] - L[1, 0] * z1) / L[1, 1], n)
        Z = np.stack([np.repeat(z1, n), z2.reshape(-1)])
        wt = (w1[:, None] * w2).reshape(-1)
    keep = wt >= 1e-20
    K = L[c:, c:] @ L[c:, c:].T  # covariance of the last two given the first c
    sd = np.sqrt(np.diag(K))
    lim = (h[c:, None] - L[c:, :c] @ Z[:, keep]) / sd[:, None]
    return lim[0], lim[1], np.full(lim.shape[1], K[0, 1] / (sd[0] * sd[1])), wt[keep]


@lru_cache(maxsize=None)
def _pair_index(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs i < j of range(r), read-only."""
    i, j = np.array(list(combinations(range(r), 2)), dtype=int).reshape(-1, 2).T
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def eval_E(arg: ErrFnArgument, quad: QuadratureSpec = DEFAULT_QUAD) -> ErrFnValue:
    """E_r = sum_T (-2)^|T| P(z_T < 0), z ~ N(M^T u, M^T M / 2 pi), by one
    deterministic route at every point, walls included; it never samples:
    E_r = 1 - 2 sum_j ndtr(h_j) + 4 sum_{i<j} P2(h_i, h_j; rho_ij)
    + sum_{|T|>=3} (-2)^|T| P(z_T < 0), where P(z_j < 0) = ndtr(h_j) and rho
    is the correlation of z.

    est_error is the gap to the rule at half of nodes_per_axis, plus
    4e-15 * 3^r for rounding (3^r = sum over T of 2^|T|; converged values
    scatter by up to 9e-14 across node counts at r = 4), all of it at r <= 2.
    """
    r = arg.frame.r
    _check_rank(r, quad)
    if r == 0:
        return ErrFnValue(1.0, 0.0, 0.0)
    m_mat, n = arg.frame.m_mat, quad.nodes_per_axis
    norms = np.sqrt(np.add.reduce(m_mat * m_mat, axis=0))
    h = -math.sqrt(2.0 * np.pi) * (m_mat.T @ arg.u) / norms
    R = (m_mat.T @ m_mat) / (norms[:, None] * norms)
    i, j = _pair_index(r)
    base = float(1.0 - 2.0 * np.add.reduce(ndtr(h))
                 + 4.0 * np.add.reduce(_bvn_lower(h[i], h[j], R[i, j])))
    sums, rows = [base, base], []
    for T in (T for size in range(3, r + 1) for T in combinations(range(r), size)):
        order, L = _conditioned_cholesky(R[np.ix_(T, T)])
        idx = np.array(T)[order]
        rows += [(rule, (-2.0) ** len(T), _orthant_rows(h[idx], L, nodes))
                 for rule, nodes in enumerate((n, max(n // 2, 8)))]
    if rows:  # the bivariate orthants of every subset and rule in one call
        p, at = _bvn_lower(*(np.concatenate([row[c] for *_, row in rows]) for c in range(3))), 0
        for rule, coeff, row in rows:
            sums[rule] += coeff * float(row[3] @ p[at:at + row[3].size])
            at += row[3].size
    full, half = sums
    return ErrFnValue(full, 0.0, abs(full - half) + 3.0 ** r * 4e-15,
                      "orthant rule" if r > 2 else "closed form")


def eval_E_oracle_mc(arg: ErrFnArgument, n_samples: int, seed: int) -> ErrFnValue:
    """Monte Carlo convolution oracle for E_r.

    Draws u' ~ N(u, I/(2 pi)) and averages the sign product; est_error is
    the standard error of the mean, floored at 2 / n_samples (that of one
    minority draw; 3 of them are the rule of three) for runs whose samples
    all share one sign. Independent of all quadrature code.
    """
    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 10000")
    rng = np.random.default_rng(seed)
    r = arg.frame.r
    sigma = 1.0 / math.sqrt(2.0 * np.pi)
    chunk = 1_000_000
    tot = 0.0
    tot2 = 0.0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        up = arg.u + sigma * rng.standard_normal((m, r))
        s = np.prod(np.sign(up @ arg.frame.m_mat), axis=1)
        tot += float(np.sum(s))
        tot2 += float(np.sum(s * s))
        done += m
    mean = tot / n_samples
    var = max(tot2 / n_samples - mean * mean, 0.0) * n_samples / max(n_samples - 1, 1)
    stderr = max(math.sqrt(var / n_samples), 2.0 / n_samples)
    return ErrFnValue(mean, 0.0, stderr, "monte carlo")


def _axis_factor(frame: ErrorFunctionFrame, u: np.ndarray, j: int) -> tuple[float, float]:
    """(m_j . u / |m_j|, gaussian factor e^{-pi (m_j.u)^2/|m_j|^2})."""
    mj = frame.m(j)
    nrm = float(np.linalg.norm(mj))
    t = float(mj @ u) / nrm
    return t, math.exp(-np.pi * t * t)


def _complement(r: int, S) -> tuple[int, ...]:
    return tuple(j for j in range(r) if j not in S)


def _restrict(arg: ErrFnArgument, S, basis: str, wall_eps: float | None = None) -> ErrFnArgument:
    """The rank-|S| argument (B M_S; B u) of the frame columns in S, where B
    holds the orthonormal rows Q_S of their m-span (basis "Q") or P_S of the
    w-span of S (basis "P"). wall_eps defaults to arg's."""
    proj = subset_projectors(arg.frame, S)
    B = proj.Q if basis == "Q" else proj.P
    return ErrFnArgument(frame=ErrorFunctionFrame.from_m(B @ arg.frame.m_mat[:, list(proj.S)]),
                         u=B @ arg.u, wall_eps=arg.wall_eps if wall_eps is None else wall_eps)


def _eval(kind: str, arg: ErrFnArgument, quad: QuadratureSpec) -> ErrFnValue:
    return eval_M(arg, quad) if kind == "M" else eval_E(arg, quad)


def derivative_M(arg: ErrFnArgument, j: int, quad: QuadratureSpec = DEFAULT_QUAD) -> ErrFnValue:
    """Directional derivative w_j . grad M_r, reduced to a rank r-1 value:

    w_j . grad M_r = (2/|m_j|) e^{-pi (m_j.u)^2/|m_j|^2} M_{r-1}(P M; P u).
    """
    return _derivative(arg, j, "M", quad)


def derivative_E(arg: ErrFnArgument, j: int, quad: QuadratureSpec = DEFAULT_QUAD) -> ErrFnValue:
    """w_j . grad E_r, same reduction with E in place of M."""
    return _derivative(arg, j, "E", quad)


def _derivative(arg: ErrFnArgument, j: int, kind: str, quad: QuadratureSpec) -> ErrFnValue:
    frame = arg.frame
    if not (0 <= j < frame.r):
        raise ValueError(f"axis {j} out of range")
    _, gauss = _axis_factor(frame, arg.u, j)
    nrm = float(np.linalg.norm(frame.m(j)))
    res = _eval(kind, _restrict(arg, _complement(frame.r, (j,)), "P"), quad)
    scale = 2.0 / nrm * gauss
    return ErrFnValue(scale * res.value, 0.0, abs(scale) * res.est_error, res.route)


def shadow(arg: ErrFnArgument, kind: str = "E", quad: QuadratureSpec = DEFAULT_QUAD) -> ErrFnValue:
    """Radial derivative bracket of F_r in {M_r, E_r}:

        sum_j (m_j . u / |m_j|) e^{-pi (m_j.u)^2 / |m_j|^2} F_{r-1}(P M; P u).

    u . grad F_r equals exactly 2x this value; the modular completion story
    attaches a further i/2 which is stripped here to keep the result real.
    """
    if kind not in ("M", "E"):
        raise ValueError("kind must be 'M' or 'E'")
    frame = arg.frame
    total, est, route = 0.0, 0.0, "closed form"
    for j in range(frame.r):
        t, gauss = _axis_factor(frame, arg.u, j)
        res = _eval(kind, _restrict(arg, _complement(frame.r, (j,)), "P"), quad)
        total += t * gauss * res.value
        est += abs(t * gauss) * res.est_error
        route = res.route
    return ErrFnValue(total, 0.0, est, route)


def discontinuity_limit(arg: ErrFnArgument, S, approach_signs: dict[int, int],
                        quad: QuadratureSpec = DEFAULT_QUAD) -> ErrFnValue:
    """One-sided limit of M_r on the wall stratum w_j . u = 0 for j outside S:

        lim M_r = (-1)^(r-|S|) sign(W_comp^T u) M_|S|(Q_S M_S; Q_S u)

    with the vanishing signs replaced by the caller's approach side.
    """
    frame = arg.frame
    r = frame.r
    S = tuple(sorted(set(int(j) for j in S)))
    comp = _complement(r, S)
    if not comp:
        raise ValueError("S must be a proper subset")
    if set(approach_signs) != set(comp):
        raise ValueError(f"approach_signs must cover exactly {comp}")
    if any(s not in (-1, 1) for s in approach_signs.values()):
        raise ValueError("approach signs must be +-1")
    a = wall_distances(arg)
    scale = max(float(np.linalg.norm(arg.u)), 1.0)
    for j in comp:
        if abs(a[j]) > 1e-7 * scale:
            raise ValueError(f"u is not on the wall stratum: |w_{j} . u| = {abs(a[j]):.3e}")
    res = eval_M(_restrict(arg, S, "Q", wall_eps=min(arg.wall_eps, 1e-12)), quad)
    coeff = (-1.0) ** (r - len(S)) * float(np.prod([approach_signs[j] for j in comp]))
    return ErrFnValue(coeff * res.value, 0.0, res.est_error, res.route)


def bound_check(arg: ErrFnArgument, quad: QuadratureSpec = DEFAULT_QUAD,
                rhs_scale: float = 1.0):
    """Checks |M_r| <= r! e^{-pi u.u} (+ est_error slack).

    rhs_scale deliberately miscalibrates the bound for mutation sanity tests.
    Returns (lhs, rhs, ok, est_error).
    """
    res = eval_M(arg, quad)
    r = arg.frame.r
    rhs = rhs_scale * math.factorial(r) * math.exp(-np.pi * float(arg.u @ arg.u))
    lhs = abs(res.value)
    return lhs, rhs, lhs <= rhs + res.est_error, res.est_error


def _vigneras(f, x0: np.ndarray, Ainv: np.ndarray, h: float) -> float:
    """Central finite differences of sum_ij (A^-1)_ij d_i d_j f + 2 pi x . grad f
    at x0, step h. Mixed differences are taken only where (A^-1)_ij != 0."""
    n = len(x0)
    eye = np.eye(n)
    f0 = f(x0)
    total = 0.0
    for i in range(n):
        fp = f(x0 + h * eye[i])
        fm = f(x0 - h * eye[i])
        total += Ainv[i, i] * (fp - 2.0 * f0 + fm) / h ** 2
        total += 2.0 * np.pi * x0[i] * (fp - fm) / (2.0 * h)
    for i in range(n):
        for j in range(i + 1, n):
            if Ainv[i, j] == 0.0:
                continue
            fpp = f(x0 + h * eye[i] + h * eye[j])
            fpm = f(x0 + h * eye[i] - h * eye[j])
            fmp = f(x0 - h * eye[i] + h * eye[j])
            fmm = f(x0 - h * eye[i] - h * eye[j])
            mixed = (fpp - fpm - fmp + fmm) / (4.0 * h ** 2)
            total += 2.0 * Ainv[i, j] * mixed
    return total


def vigneras_residual(arg: ErrFnArgument, kind: str = "E", h: float = 1e-3,
                      quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Central finite difference residual of sum_j (d^2/du_j^2 + 2 pi u_j d/du_j).

    Both E_r and M_r are annihilated exactly, so the residual is pure
    truncation, O(h^2), plus quadrature noise / h^2.
    """
    if kind not in ("M", "E"):
        raise ValueError("kind must be 'M' or 'E'")

    def f(u):
        return _eval(kind, ErrFnArgument(frame=arg.frame, u=u, wall_eps=arg.wall_eps), quad).value

    return _vigneras(f, arg.u, np.eye(arg.frame.r), h)


def sum_terms(terms) -> ErrFnValue:
    """The sum of coeff * value over decomposition terms, with the
    |coeff|-weighted sum of their est_error and the route of the last,
    full-rank term."""
    total = sum(t["coeff"] * t["value"] for t in terms)
    est = sum(abs(t["coeff"]) * t["est_error"] for t in terms)
    return ErrFnValue(total, 0.0, est, terms[-1]["route"])


def decompose_M_into_E(arg: ErrFnArgument, quad: QuadratureSpec = DEFAULT_QUAD):
    """Wall-crossing expansion M_r = sum_S (-1)^(r-|S|) sign(W_comp^T u) E_|S|.

    Returns (terms, total): terms are dicts with the subset, the +-1
    coefficient, and the E value of the reduced argument (Q_S M_S; Q_S u)
    with its est_error and route. The sum telescopes the discontinuities of the sign
    coefficients against the smooth E terms.
    """
    r = arg.frame.r
    a = wall_distances(arg)
    _check_walls(a, arg.wall_eps)
    terms = []
    for S in _subsets(r):
        comp = _complement(r, S)
        coeff = (-1.0) ** len(comp) * float(np.prod(np.sign(a[list(comp)])))
        ev = eval_E(_restrict(arg, S, "Q"), quad)
        terms.append(dict(S=S, coeff=coeff, value=ev.value, est_error=ev.est_error, route=ev.route))
    return terms, sum_terms(terms)


def decompose_E_into_M(arg: ErrFnArgument, quad: QuadratureSpec = DEFAULT_QUAD):
    """The reverse expansion E_r = sum_S prod_{j not in S} sign(P m_j . P u) M_|S|,
    with P = P_comp the w-span of the complement of S: the signs are those of
    the complement columns projected off span(M_S).

    Returns (terms, total) shaped as in decompose_M_into_E, with the M value
    of the reduced argument (Q_S M_S; Q_S u). Each M term jumps across the
    walls of its coefficient; the sum is continuous.
    """
    r = arg.frame.r
    terms = []
    for S in _subsets(r):
        red = _restrict(arg, _complement(r, S), "P")
        coeff = float(np.prod(np.sign(red.frame.m_mat.T @ red.u)))
        mv = eval_M(_restrict(arg, S, "Q"), quad)
        terms.append(dict(S=S, coeff=coeff, value=mv.value, est_error=mv.est_error, route=mv.route))
    return terms, sum_terms(terms)
