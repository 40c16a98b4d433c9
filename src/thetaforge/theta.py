"""Indefinite theta series with sign-cone and error-function kernels.

theta_mu[phi](tau, b, c) = sum over k in Lambda + mu + p/2 of
e^{pi i B(k,p)} phi(sqrt(2 tau_2)(k+b)) q^{-Q(k+b)/2} e^{2 pi i B(c, k+b/2)}.
The weight offset lambda of the general series is 0 for both kernels.

Kernels: the holomorphic sign-cone restriction

    phi_r(x) = 2^{-r} prod_j [sign B(c_j, x) - sign B(c'_j, x)]

(scale invariant, sign(0) = 0) and its modular completion

    phi_hat_r(x) = 2^{-r} sum_{P subseteq [r]} (-1)^{|P|} E^A(C^P; x),

where C^P takes c'_j on P and c_j off P, so that phi_hat -> phi as all
|B(., x)| grow. Expanding each E^A into M terms (errfn.decompose_E_into_M)
regroups the sum into one term per (S, P) sector of the certificate:

    phi_hat_r(x) = 2^{-r} sum_{P subseteq S subseteq [r]} (-1)^{|P|}
        M^A(C^P_S; x) prod_{j not in S} [sign B(c_j^perp, x) - sign B(c'_j^perp, x)],

perp the A-projection off span(C^P_S); S = () gives 2^r phi_r. M terms
keep their relative precision, so nothing cancels off the support. Wall
rule: a sign argument or dual wall coordinate l with |l(x)| <= 1e-12 |l|
|x| takes the sign of l(v), v one fixed direction per pair: the one-sided
limit along v, which the continuous phi_hat equals.

Every tail bound rests on the exact cone certificate: on
the support of phi_r, Q <= Q_- with S = -Q_- positive definite, so a term
is at most K e^{-a S[k+b]}: K = 1 and a = pi tau_2 for phi_r, K = K_hat and
a = pi tau_2 gamma' from the (S, P) sectors of the certificate for phi_hat
(gamma' = min lambda_min(G_{S,P}, S) <= 1). Every sum runs over an
ellipsoid S[y] <= T in the Cholesky frame U^T U = S, and for 0 < s < 1
Rankin's trick bounds the terms beyond it by

    K e^{-s a T} sum_{y in Z^n + t} e^{-(1-s) a S[y]}
        <= K e^{-s a T} prod_i theta_3((1-s) a u_ii^2),

theta_3(beta) = sum_k e^{-beta k^2}: row by row in U, each sum is a shifted
Gaussian sum, below the unshifted one by Poisson summation. T, in closed
form, is the least over a fixed grid of s that brings this to tol. The
points are found by layers in the frame U (Fincke-Pohst): one coordinate
per layer, a whole frontier of partial points per numpy step, built depth
first in pieces of bounded size and returned in lexicographic order, so no
value depends on where the pieces were cut.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh as generalized_eigh

from . import rational as ra
from .cones import ConePair, ConeSystemReport, check_cone_pair
from .errfn import DEFAULT_QUAD, _orthant_J
from .exceptions import BudgetExceeded, ValidationError
from .quadform import BilinearForm

WALL_HIT_CAP = 1000
_FORMS = 1 << 16  # most sector forms (points x 3r 3^r) that one _phi_hat pass holds


@dataclass(frozen=True)
class TruncationPolicy:
    tol: float = 1e-8
    initial_radius: float | None = None
    max_points: int = 10_000_000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValidationError(f"tol must be finite and positive, got {self.tol}")
        if self.initial_radius is not None and not (
                math.isfinite(self.initial_radius) and self.initial_radius > 0):
            raise ValidationError(
                f"initial_radius must be finite and positive, got {self.initial_radius}")
        if self.max_points < 1:
            raise ValidationError("max_points must be positive")


@dataclass(frozen=True)
class ThetaValue:
    value: complex
    n_points: int
    tail_estimate: float
    wall_hits: list


@dataclass(frozen=True)
class QTerm:
    exponent: Fraction
    coefficient: Fraction
    wall_affected: bool


@dataclass(frozen=True)
class QExpansion:
    """Exact holomorphic q-expansion: value = e^{pi i phase_exponent} *
    sum coefficient * q^exponent, coefficients pure rationals."""

    terms: tuple
    phase_exponent: Fraction
    n_points: int
    radius: float


@dataclass(frozen=True, eq=False)
class ThetaSpec:
    """Evaluation request: lattice Z^n with form A, class mu in Lambda*/Lambda,
    characteristic vector p, elliptic variables b and c_ell, tau in the upper
    half plane, kernel 'holomorphic' (phi_r) or 'completed' (phi_hat_r), and
    the certified cone pair both kernels are built on. offset = mu + p/2 and
    its floats offset_float are built once."""

    form: BilinearForm
    mu: tuple
    p: tuple
    b: np.ndarray
    c_ell: np.ndarray
    tau: complex
    kernel: str = "holomorphic"
    pair: ConePair | None = None

    def __post_init__(self):
        n = self.form.n
        object.__setattr__(self, "mu", tuple(ra.as_fraction(x) for x in self.mu))
        object.__setattr__(self, "p", tuple(int(x) for x in self.p))
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        object.__setattr__(self, "c_ell", np.atleast_1d(np.asarray(self.c_ell, dtype=float)))
        object.__setattr__(self, "tau", complex(self.tau))
        if len(self.mu) != n or len(self.p) != n:
            raise ValidationError("mu and p must have the form's dimension")
        if self.b.shape != (n,) or self.c_ell.shape != (n,):
            raise ValidationError("b and c_ell must have the form's dimension")
        if not (np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.c_ell))
                and cmath.isfinite(self.tau)):
            raise ValidationError("b, c_ell and tau must be finite")
        if self.tau.imag <= 0:
            raise ValidationError("tau must lie in the upper half plane")
        if self.kernel not in ("holomorphic", "completed"):
            raise ValidationError(f"unknown kernel {self.kernel!r}")
        if self.pair is None:
            raise ValidationError("both kernels require a cone pair")
        if self.pair.r > 0 and self.pair.form.rows != self.form.rows:
            raise ValidationError("cone pair and spec use different forms")
        A = self.form.exact()
        for i in range(n):
            amu = sum(A[i][j] * self.mu[j] for j in range(n))
            if amu.denominator != 1:
                raise ValidationError(
                    f"mu is not a class in the dual lattice: (A mu)_{i} = {amu}")
            diag = A[i][i] + sum(A[i][j] * self.p[j] for j in range(n))
            if diag % 2 != 0:
                raise ValidationError(
                    f"p is not characteristic: Q(e_{i}) + B(e_{i}, p) = {diag} is odd")
        offset = tuple(self.mu[i] + Fraction(self.p[i], 2) for i in range(n))
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "offset_float", np.array([float(o) for o in offset]))


def discriminant_group(form: BilinearForm) -> list:
    """Coset representatives of Lambda*/Lambda in [0,1)^n, sorted; the group
    is generated by the columns of A^{-1} mod 1, closed by breadth-first
    search; its order is |det A|."""
    n = form.n
    Ainv = ra.inverse([list(r) for r in form.exact()])
    gens = [tuple(Ainv[i][j] % 1 for i in range(n)) for j in range(n)]
    zero = tuple(Fraction(0) for _ in range(n))
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % 1 for a, b in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    out = sorted(seen)
    expected = abs(int(ra.det([list(r) for r in form.exact()])))
    if len(out) != expected:
        raise ValidationError(
            f"discriminant group closure found {len(out)} classes, |det A| = {expected}")
    return out


def _tree_sum(arr: np.ndarray) -> complex:
    """Deterministic pairwise summation, independent of any partitioning,
    after folding the list onto itself (term i plus term -1-i): a centrally
    symmetric point set comes out of the enumerator in lexicographic order,
    so each point meets its mirror image and an odd series gives exactly 0."""
    h = arr.shape[0] // 2
    v = np.concatenate([arr[:h] + arr[::-1][:h], arr[h:arr.shape[0] - h]]).astype(complex)
    while v.shape[0] > 1:
        if v.shape[0] % 2:
            v = np.concatenate([v, [0.0 + 0.0j]])
        v = v[0::2] + v[1::2]
    return complex(v[0]) if v.shape[0] else 0.0 + 0.0j


def kernel_phi(pair: ConePair, x) -> float:
    """phi_r(x) = 2^{-r} prod_j [sign B(c_j,x) - sign B(c'_j,x)] at a point x,
    taken as floats; sign(0) = 0."""
    xf = np.asarray(x, dtype=float)
    Af = pair.form.matrix()
    Cf = np.array([[float(v) for v in col] for col in pair.C]).T
    Cpf = np.array([[float(v) for v in col] for col in pair.C_prime]).T
    return float(np.prod((np.sign(Cf.T @ Af @ xf) - np.sign(Cpf.T @ Af @ xf)) / 2.0))


class _PairRuntime:
    """Float-side data derived from an exact cone certificate, cached per
    pair: the metric S = -Q_- and its Cholesky factor chol_u (U^T U = S)
    and, built on the first completed call, the completed kernel's sector
    table (sectors()). It holds no reference to the pair, so the weak cache
    entry and all of this data die with the pair."""

    def __init__(self, pair: ConePair, report: ConeSystemReport):
        self.form = pair.form
        self.report = report
        A = pair.form.matrix()
        self.A = A
        self.n = pair.n
        self.r = pair.r
        self.C = np.array([[float(v) for v in col] for col in pair.C]).T \
            if pair.r else np.zeros((pair.n, 0))
        self.Cp = np.array([[float(v) for v in col] for col in pair.C_prime]).T \
            if pair.r else np.zeros((pair.n, 0))
        self.AC, self.ACp = A @ self.C, A @ self.Cp
        self.q_minus = np.array([[float(v) for v in row] for row in report.q_minus])
        self.metric = -0.5 * (self.q_minus + self.q_minus.T)
        try:
            self.chol_u = np.linalg.cholesky(self.metric).T
        except np.linalg.LinAlgError:
            raise ValidationError("-Q_- is not positive definite; certificate inconsistent")
        self.u2 = np.diag(self.chol_u) ** 2
        self.covol = float(np.prod(np.diag(self.chol_u)))
        self.cell_d = 0.5 * math.sqrt(float(np.sum(self.u2)))
        self._sectors = None

    def _min_gen_eig(self, G: np.ndarray) -> float:
        """lambda_min(G, S): the largest g with G[y] >= g S[y] for every y."""
        vals = generalized_eigh(0.5 * (G + G.T), self.metric, eigvals_only=True)
        g = float(vals[0])
        if g <= 0:
            raise ValidationError(
                f"tail decay rate is not positive ({g:.3e}); certificate inconsistent")
        return g

    def sectors(self) -> tuple:
        """(gamma_hat, K_hat, maps, wall, side, scale, ranks), from one pass
        over the (S, P) systems by s = |S|; built once. With C_S = C^P_S, Pr
        the A-projection onto its span and G_S = C_S^T A C_S = L L^T: sector
        terms are at most 2^-s s! e^{-pi tau_2 G[y]}, G = Pr^T A Pr - (I -
        Pr)^T Q_-^{S,P} (I - Pr), so gamma_hat = min lambda_min(G, S) and K_hat
        = sum 2^-s s!. maps has 3r columns per sector: a = G_S^-1 C_S^T A x
        and A(I - Pr) c_j for j not in S; -a and A(I - Pr) c'_j, so the first
        r signs less the next r multiply to D = 2^s prod sign(a) times the
        complement weight; sqrt(pi) u with u = L^-1 C_S^T A x, and zeros.
        wall = (1e-12 |column|)^2, side = the signs at v, scale = 2^-r
        (-1)^(|P|+s) (2 pi)^-s / |det L|, and ranks holds per s >= 1 the
        sectors' W^T W = G_S^-1 and diag(M^T M) = diag(G_S), M = L^T the
        frame of M^A(C_S; x) = M_s(M; u)."""
        if self._sectors is not None:
            return self._sectors
        A, n, r = self.A, self.n, self.r
        eye = np.eye(n)
        gammas, K, maps, scale, frames = [], 0.0, [], [], {}
        systems = [(((), ()), self.report)] + list(self.report.recursion_reports.items())
        for (S, P), rep in sorted(systems, key=lambda item: len(item[0][0])):
            if rep.q_minus is None:
                raise ValidationError("nested certificate lacks Q_-; verdict must pass")
            s, comp = len(S), [j for j in range(r) if j not in S]
            Ch = np.array([self.Cp[:, j] if j in P else self.C[:, j] for j in S]).reshape(s, n).T
            G_S = Ch.T @ A @ Ch
            dual = np.linalg.solve(G_S, Ch.T @ A)
            Pr = Ch @ dual
            Qm = np.array([[float(v) for v in row] for row in rep.q_minus])
            gammas.append(self._min_gen_eig(Pr.T @ A @ Pr - (eye - Pr).T @ Qm @ (eye - Pr)))
            K += 2.0 ** (-s) * math.factorial(s)
            L = np.linalg.cholesky(G_S)
            normals = (A @ (eye - Pr) @ np.hstack([self.C[:, comp], self.Cp[:, comp]])).T
            maps += [dual, normals[:r - s], -dual, normals[r - s:],
                     math.sqrt(math.pi) * np.linalg.solve(L, Ch.T @ A), np.zeros((r - s, n))]
            scale.append((-1.0) ** (len(P) + s) / (2.0 ** r * (2.0 * math.pi) ** s
                                                    * float(np.prod(np.diag(L)))))
            if S:
                frames.setdefault(s, []).append((np.linalg.inv(G_S), np.diag(G_S)))
        maps = np.vstack(maps)
        norms = np.linalg.norm(maps, axis=1)
        # v: of 32 seeded directions, the one farthest from every wall
        draws = np.random.default_rng(0).normal(size=(32, n))
        v = draws[np.argmax(np.min(np.abs(draws @ maps[norms > 0].T) / norms[norms > 0], axis=1,
                                   initial=np.inf))]
        ranks, first = [], 1
        for s, fr in sorted(frames.items()):
            ranks.append((s, slice(first, first + len(fr)), *map(np.array, zip(*fr))))
            first += len(fr)
        self._sectors = (min(gammas), K, np.ascontiguousarray(maps.T), (1e-12 * norms) ** 2,
                         np.sign(maps @ v), np.array(scale), ranks)
        return self._sectors


# keyed by pair identity (ConePair is eq=False); an entry lives as long as its pair
_RUNTIME_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _pair_runtime(pair: ConePair) -> _PairRuntime:
    rt = _RUNTIME_CACHE.get(pair)
    if rt is None:
        report = check_cone_pair(pair)
        if not report.passed:
            raise ValidationError(
                f"cone pair fails its certificate (first_failed = {report.first_failed})")
        rt = _PairRuntime(pair, report)
        _RUNTIME_CACHE[pair] = rt
    return rt


def kernel_phi_hat(pair: ConePair, x) -> float:
    """The completed kernel phi_hat_r at a finite point x: smooth, and
    approaches kernel_phi once every |B(c_j, x)|, |B(c'_j, x)| is large. The
    one-row case of _phi_hat, so it equals the value a theta sum takes at x
    bit for bit."""
    rt = _pair_runtime(pair)
    X = np.asarray(x, dtype=float).reshape(1, -1)
    if X.shape[1] != rt.n or not np.isfinite(X).all():
        raise ValueError(f"x must be a finite vector of length {rt.n}, got {x}")
    return float(_phi_hat(rt, X)[0])


def _phi_hat(rt: _PairRuntime, X: np.ndarray) -> np.ndarray:
    """The completed kernel at every row of X (module docstring): one product
    gives every sector's forms, then come the signs with the wall rule, the
    sign products D, and one _orthant_J call per rank s >= 1 over the
    (point, sector) pairs with D != 0, on pieces of at most _FORMS forms. Each
    point's value is the same whatever the other points and the pieces."""
    _, _, maps, wall, side, scale, ranks = rt.sectors()
    N, r, step = len(X), rt.r, max(1, _FORMS // maps.shape[1])
    if N > step:
        return np.concatenate([_phi_hat(rt, X[a:a + step]) for a in range(0, N, step)])
    Z = np.matmul(X[:, None, :], maps)[:, 0]
    on_wall = Z * Z <= wall * np.add.reduce(X * X, axis=1)[:, None]
    shape = (N, len(scale), 3 * r)
    sg, Z = np.where(on_wall, side, np.sign(Z)).reshape(shape), Z.reshape(shape)
    D = np.multiply.reduce(sg[:, :, :r] - sg[:, :, r:2 * r], axis=2)
    J = np.ones(D.shape)
    for s, sl, WtW, d in ranks:
        p, k = np.nonzero(D[:, sl])
        if len(p):
            at = sl.start + k
            J[p, at] = _orthant_J(WtW[k], sg[p, at, :s], np.abs(Z[p, at, :s]), d[k],
                                  (DEFAULT_QUAD.nodes_per_axis,))[0]
    u = Z[:, :, 2 * r:]
    return np.add.reduce(scale * D * np.exp(-np.add.reduce(u * u, axis=2)) * J, axis=1)


class _CountExceeded(BudgetExceeded):
    """An enumeration found more points than its budget; no partial value."""

    def __init__(self, msg: str = "lattice enumeration exceeds max_points"):
        super().__init__(msg)


# Most nodes of one layer that the enumerator builds at once, so memory
# stays near n * _PIECE words per layer whatever the radius.
_PIECE = 1 << 15
# An interval reaching past _SPAN comes from a radius or an offset no budget
# reaches; refusing it keeps every cast to int64 exact and the child count
# of a piece (at most _PIECE * (2 * _SPAN + 1) < 2^63) free of overflow.
_SPAN = 2.0 ** 45


def _layer_intervals(U: np.ndarray, t: np.ndarray, radius: float, i: int,
                     rem2: np.ndarray, shift: np.ndarray):
    """Integer interval of m_i of each parent of layer i, as (lo, counts,
    ends = counts.cumsum()); raises _CountExceeded where an interval is not
    finite or reaches past _SPAN."""
    uii = U[i, i]
    center = -t[i] - shift[:, i] / uii
    half = np.sqrt(rem2) / abs(uii)
    if not (np.abs(center) + half < _SPAN).all():
        raise _CountExceeded(
            f"an interval at radius {radius:.6g} is not finite or reaches past 2^45")
    lo = np.ceil(center - half - 1e-12).astype(np.int64)
    counts = np.maximum(np.floor(center + half + 1e-12).astype(np.int64) - lo + 1, 0)
    return lo, counts, counts.cumsum()


def _enumerate_shifts(U: np.ndarray, t: np.ndarray, radius: float, max_points: int) -> np.ndarray:
    """All integer m with ||U (m + t)||^2 <= radius^2, U upper triangular.

    Fincke-Pohst enumeration by layers: the coordinates are fixed from
    m_{n-1} down to m_0, and each layer works on a frontier of partial
    points at once. A parent's remaining squared radius rem2 and its shift
    (the fixed columns j > i folded into rows 0..i) give its integer interval
    for m_i; the children are counted first, then expanded with np.repeat.
    The frontier is built depth first, in pieces of at most _PIECE nodes,
    from an explicit stack of open layers, so rows come out lexicographic in
    (m_{n-1}, ..., m_0) and nothing the call built outlives it but its
    result. Raises _CountExceeded as soon as more than max_points points are
    found, or when an interval is not finite or reaches past _SPAN.
    """
    n = U.shape[0]
    found = []
    count = 0
    # an open layer: [i, prefix, rem2, shift, intervals, first child not yet
    # built]; prefix holds m_{i+1..n-1} of each parent, shift its rows 0..i
    # and rem2 >= 0 its squared radius left for rows 0..i
    rem0 = np.array([radius * radius])
    shift0 = np.zeros((1, n))
    stack = [[n - 1, np.zeros((1, n), dtype=np.int64), rem0, shift0,
              _layer_intervals(U, t, radius, n - 1, rem0, shift0), 0]]
    while stack:
        top = stack[-1]
        i, prefix, rem2, shift, (lo, counts, ends), a = top
        total = int(ends[-1])
        if a >= total:
            stack.pop()
            continue
        b = top[5] = min(a + _PIECE, total)
        # children a..b-1 belong to parents p0..p1-1, the outer two clipped
        if total <= _PIECE:
            p0, p1 = 0, len(ends)
        else:
            p0 = int(ends.searchsorted(a, side="right"))
            p1 = int(ends.searchsorted(b - 1, side="right")) + 1
        starts = ends[p0:p1] - counts[p0:p1]
        k = np.minimum(ends[p0:p1], b) - np.maximum(starts, a)
        par = np.arange(p0, p1).repeat(k)
        mi = (lo[p0:p1] - starts + a).repeat(k) + np.arange(b - a)
        x = mi + t[i]
        v = U[i, i] * x + shift[par, i]
        if i == 0:
            ok = v * v <= (rem2 + 1e-12)[par]
            count += int(np.count_nonzero(ok))
            if count > max_points:
                raise _CountExceeded(
                    f"more than {max_points} points within radius {radius:.6g}")
            rows = prefix[par[ok]]
            rows[:, 0] = mi[ok]
            found.append(rows)
            continue
        rem_next = rem2[par] - v * v
        keep = rem_next >= -1e-12
        if not keep.any():
            continue
        sel = par[keep]
        child = prefix[sel]
        child[:, i] = mi[keep]
        rem_child = np.maximum(rem_next[keep], 0.0)
        shift_child = shift[sel, :i] + U[:i, i] * x[keep, None]
        stack.append([i - 1, child, rem_child, shift_child,
                      _layer_intervals(U, t, radius, i - 1, rem_child, shift_child), 0])
    if not found:
        return np.zeros((0, n), dtype=np.int64)
    return np.concatenate(found)


# the s of Rankin's trick that T is minimised over; k^2 for |k| = 1..6
_S_GRID = np.linspace(0.05, 0.95, 19)
_K2 = np.arange(1, 7) ** 2.0


def _log_majorants(rt: _PairRuntime, a: float) -> np.ndarray:
    """log F_s = sum_i log theta_3((1 - s) a u_ii^2), s in _S_GRID: F_s bounds
    sum_{y in Z^n + t} e^{-(1-s) a S[y]} for every shift t. theta_3(beta) is
    the direct sum for beta >= pi, else its Poisson dual (pi/beta)^{1/2}
    sum_w e^{-pi^2 w^2 / beta}, to e^{-49 pi} relative; beta = 0 gives inf."""
    beta = np.outer(1.0 - _S_GRID, a * rt.u2)
    with np.errstate(divide="ignore", over="ignore"):
        dual = beta < math.pi
        rate = np.where(dual, math.pi ** 2 / beta, beta)
        log_t3 = np.log1p(2.0 * np.exp(-rate[..., None] * _K2).sum(axis=-1))
        log_t3 = np.where(dual, 0.5 * np.log(math.pi / beta) + log_t3, log_t3)
    return log_t3.sum(axis=1)


def _region(log_f: np.ndarray, a: float, tol: float, K: float) -> float:
    """The least T over _S_GRID with K e^{-s a T} F_s <= tol e^{-1e-9} (the
    margin outlasts the rounding of s a T); inf where a underflows to 0."""
    with np.errstate(divide="ignore"):
        return max(float(np.min((log_f - math.log(tol / K) + 1e-9) / (_S_GRID * a))), 0.0)


def _tail_bound(log_f: np.ndarray, a: float, T: float, K: float) -> float:
    """K min_s e^{-s a T} F_s: a bound on the sum of |terms| with S[y] > T."""
    return K * float(np.exp(np.min(log_f - _S_GRID * (a * T))))


def enumerate_lattice(spec: ThetaSpec, radius: float, max_points: int = 10_000_000) -> np.ndarray:
    """Integer shifts m such that -Q_-(m + offset + b) <= radius^2, where the
    summation variable is k = m + offset, offset = mu + p/2, and Q_- is the
    pair's certified majorant. Deterministic lexicographic order. Raises
    BudgetExceeded (without a partial value) where more than max_points
    points lie within the radius."""
    if not (math.isfinite(radius) and radius >= 0):
        raise ValidationError(f"radius must be finite and non-negative, got {radius}")
    if max_points < 1:
        raise ValidationError("max_points must be positive")
    return _enumerate_budgeted(_pair_runtime(spec.pair), spec.offset_float + spec.b,
                               radius, max_points)


def _holo_phi_vals(rt: _PairRuntime, Y: np.ndarray):
    """Vectorized holomorphic kernel on rows of Y, plus wall-hit mask.

    phi_r is scale invariant so Y may be k+b without the sqrt(2 tau_2)."""
    s1 = Y @ rt.AC
    s2 = Y @ rt.ACp
    scale = max(float(np.max(np.abs(s1), initial=0.0)),
                float(np.max(np.abs(s2), initial=0.0)), 1.0)
    hits = (np.abs(s1) <= 1e-12 * scale) | (np.abs(s2) <= 1e-12 * scale)
    vals = np.prod((np.sign(s1) - np.sign(s2)) / 2.0, axis=1)
    return vals, hits.any(axis=1)


def _terms(spec: ThetaSpec, m: np.ndarray, rt: _PairRuntime):
    """The series' term at k = m + offset for each row of m, and the wall
    hits (capped at WALL_HIT_CAP) of the holomorphic kernel."""
    A = spec.form.matrix()
    K = m + spec.offset_float
    Y = K + spec.b
    tau = spec.tau
    Qy = ((Y @ A) * Y).sum(axis=1)
    Bkp = K @ (A @ np.array(spec.p, dtype=float))
    Bc = (K + spec.b / 2.0) @ (A @ spec.c_ell)
    wall_hits = []
    if spec.kernel == "holomorphic":
        phi, hits = _holo_phi_vals(rt, Y)
        for idx in np.nonzero(hits)[0][:WALL_HIT_CAP]:
            wall_hits.append(tuple(Fraction(int(m[idx, i])) + spec.offset[i]
                                   for i in range(spec.form.n)))
        # support bound Q(y) <= Q_-(y) wherever phi != 0; certificate guarantee
        sup = phi != 0
        if np.any(sup):
            Ys = Y[sup]
            slack = ((Ys @ rt.q_minus) * Ys).sum(axis=1) - Qy[sup]
            if np.min(slack) < -1e-9 * max(1.0, float(np.max(np.abs(Qy[sup])))):
                raise ValidationError(
                    "support point violates Q <= Q_-; certificate inconsistent")
    else:
        phi = _phi_hat(rt, math.sqrt(2.0 * tau.imag) * Y)
    # combine kernel magnitude and q-power in log space: off-support points have
    # phi = 0 but arbitrarily positive Q(y), and exp alone would overflow
    mag = np.abs(phi)
    sup = mag > 0.0
    terms = np.zeros(Y.shape[0], dtype=complex)
    if np.any(sup):
        z = (1j * math.pi * Bkp[sup] - 1j * math.pi * tau * Qy[sup]
             + 2j * math.pi * Bc[sup] + np.log(mag[sup]))
        terms[sup] = (phi[sup] / mag[sup]) * np.exp(z)
    return terms, wall_hits


def eval_theta(spec: ThetaSpec, policy: TruncationPolicy = TruncationPolicy()) -> ThetaValue:
    """Sums the series over the ellipsoid -Q_-(k + b) <= T, T in closed form
    from the Rankin bound of the module docstring (at least
    initial_radius^2); that bound, below policy.tol, is the tail_estimate.
    Where more than policy.max_points points lie within T, raises
    BudgetExceeded carrying the partial ThetaValue of a smaller ellipsoid
    (_budget_region) with the bound there.
    """
    rt = _pair_runtime(spec.pair)
    gamma, K = (1.0, 1.0) if spec.kernel == "holomorphic" else rt.sectors()[:2]
    a = math.pi * spec.tau.imag * gamma
    log_f = _log_majorants(rt, a)
    T = max(_region(log_f, a, policy.tol, K), (policy.initial_radius or 0.0) ** 2)
    t = spec.offset_float + spec.b
    overrun = None
    try:
        m = _enumerate_budgeted(rt, t, math.sqrt(T), policy.max_points)
    except _CountExceeded:
        overrun = (f"enumeration at radius {math.sqrt(T):.3g} exceeds "
                   f"max_points={policy.max_points}")
        m, T = _budget_region(rt, t, T, policy.max_points)
    terms, hits = _terms(spec, m, rt)
    value = ThetaValue(value=_tree_sum(terms), n_points=m.shape[0],
                       tail_estimate=_tail_bound(log_f, a, T, K), wall_hits=hits)
    if overrun:
        raise BudgetExceeded(overrun, partial=value)
    return value


def _ball_radius(rt: _PairRuntime, count: float) -> float:
    """The R with vol(B_n(R)) / covol = count, capped at e^700 (past any
    interval _enumerate_shifts accepts). In the frame z = U y the boxes
    diag(u_ii) [-1/2, 1/2)^n around the lattice points tile space (Babai's
    nearest plane), have volume covol and reach cell_d = |diag U| / 2 from
    their centres; so the points within R number from count(R - cell_d) to
    count(R + cell_d)."""
    n = rt.n
    log_ball = 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)
    return math.exp(min((math.log(count * rt.covol) - log_ball) / n, 700.0))


def _budget_region(rt: _PairRuntime, t: np.ndarray, T: float, max_points: int):
    """(points, T') of an ellipsoid S[y] <= T' < T within max_points, for a
    budget T overruns: the T' whose volume holds max_points / 2 points or,
    where that overruns too, the largest T' whose boxes (_ball_radius) hold
    at most max_points (shrunk past the enumerator's n 1e-12 slack and the
    rounding of each point's length)."""
    guess = _ball_radius(rt, max_points / 2.0)
    if guess * guess < T:
        try:
            return _enumerate_shifts(rt.chol_u, t, guess, max_points), guess * guess
        except _CountExceeded:
            pass
    reach = max(_ball_radius(rt, max_points) - rt.cell_d, 0.0)
    T_fit = max(reach * reach * (1.0 - 1e-9) - rt.n * 1e-12, 0.0)
    return _enumerate_shifts(rt.chol_u, t, math.sqrt(T_fit), max_points), T_fit


def _enumerate_budgeted(rt: _PairRuntime, t: np.ndarray, R: float, max_points: int):
    """_enumerate_shifts in the pair's frame; raises _CountExceeded without
    enumerating where the count floor of _ball_radius already exceeds
    max_points (R is first shrunk by 1e-9, below any point the float
    enumeration could drop at the boundary)."""
    if R * (1.0 - 1e-9) - rt.cell_d > _ball_radius(rt, max_points) * (1.0 + 1e-9):
        raise _CountExceeded(f"the volume floor puts more than {max_points} points "
                             f"within radius {R:.6g}")
    return _enumerate_shifts(rt.chol_u, t, R, max_points)


# n^2 max|coefficient| max|K|^2 below this bound keeps every product and
# partial sum of q_expansion's integer frame inside int64; at or above it
# the same arrays hold Python ints (dtype object).
_INT64_BOUND = 1 << 62


def _integer_vector(v) -> list:
    """v times the lcm of its denominators: a positive multiple, so every
    sign and every order it takes part in is unchanged."""
    scale = math.lcm(*(x.denominator for x in v))
    return [int(x * scale) for x in v]


def _frame_dtype(n: int, coef: int, size: int):
    """int64 when n^2 coef size^2 < _INT64_BOUND, which bounds every dot
    product and quadratic form of entries <= size against coefficients
    <= coef; object (exact Python ints) otherwise."""
    return np.int64 if n * n * coef * size * size < _INT64_BOUND else object


def q_expansion(spec: ThetaSpec, n_terms: int,
                policy: TruncationPolicy = TruncationPolicy()) -> QExpansion:
    """Exact q-expansion of the holomorphic theta: groups support points by
    the exponent -Q(k)/2 and sums e^{pi i B(k,p)} phi_r(k) exactly per class.

    The class-constant phase e^{pi i (B(mu,p) + Q(p)/2)} is factored out as
    phase_exponent, leaving pure rational coefficients ((-1)^{B(m,p)} times
    phi values); they are integers when no support point of the class lies
    on a wall (wall_affected). Only support classes are reported.
    Completeness: a support point of exponent <= E has -Q_-(k) <= -Q(k) <=
    2E. A probe enumerates -Q_-(k) <= T, T doubling from the ellipsoid whose
    volume holds n_terms points, until n_terms support classes are seen;
    with E the largest of their exponents, the ellipsoid -Q_-(k) <= 2E
    (widened by 1e-9 relative for rounding) holds every class up to E in
    full. Where its n_terms-th class lies below E, that class's ellipsoid is
    enumerated instead, so terms, n_points and radius = sqrt(2 E_n), E_n the
    last exponent returned, depend on n_terms alone.

    All points of an enumeration are handled at once in an integer frame:
    with D the lcm of the denominators of offset = mu + p/2, k = m + offset
    becomes K = D m + D offset, each cone vector is scaled by the lcm of its
    denominators and Q_- by L, the lcm of its entries' denominators. These
    scales are positive, so the signs of B(c_j, K) and B(c'_j, K) give
    2^r phi_r(k), Q(K) = D^2 Q(k), and Q(k) <= Q_-(k) is checked exactly on
    every support point as L Q(K) <= (L Q_-)(K). Classes are keyed by the
    integer Q(K) and summed with np.add.at; a Fraction is built only for the
    returned terms. The arrays are int64 when n^2 max|coefficient|
    max(|K|, |m|)^2 < 2^62 (coefficients: the entries of L A, L Q_-, A C,
    A C' and A p), which bounds every sum they go through, and Python ints
    (dtype object) otherwise; both run the same code.
    """
    if spec.kernel != "holomorphic":
        raise ValidationError("q-expansion requires the holomorphic kernel")
    if np.any(spec.b != 0) or np.any(spec.c_ell != 0):
        raise ValidationError("q-expansion requires b = c = 0")
    if n_terms < 1:
        raise ValidationError("n_terms must be positive")
    rt = _pair_runtime(spec.pair)
    n, r = spec.form.n, spec.pair.r
    off = spec.offset
    D = math.lcm(*(o.denominator for o in off))
    k_off = [int(o * D) for o in off]
    q_minus = rt.report.q_minus
    L = math.lcm(*(x.denominator for row in q_minus for x in row))
    A = np.array(spec.form.rows, dtype=object)
    C = np.array([_integer_vector(c) for c in spec.pair.C], dtype=object).reshape(r, n).T
    Cp = np.array([_integer_vector(c) for c in spec.pair.C_prime],
                  dtype=object).reshape(r, n).T
    # A, L Q_-, A C, A C', A p; the coefficient bound also covers L A, for L Q(K)
    frame = [A, np.array([[int(x * L) for x in row] for row in q_minus], dtype=object),
             A @ C, A @ Cp, A @ np.array(spec.p, dtype=object)]
    coef = max([L * max(abs(a) for row in spec.form.rows for a in row)]
               + [abs(int(x)) for F in frame for x in F.flat])

    def support_classes(T):
        """(number of points, D^2 Q of each support class by ascending exponent,
        class sums of 2^r (-1)^{B(m,p)} phi_r, wall flags) on -Q_-(k) <= T;
        an overrun is a BudgetExceeded without a partial value."""
        m = _enumerate_budgeted(rt, spec.offset_float, math.sqrt(T), policy.max_points)
        size = D * int(np.abs(m).max(initial=0)) + max(abs(x) for x in k_off)
        dtype = _frame_dtype(n, coef, max(size, 1))
        Af, LQm, AC, ACp, Ap = (F.astype(dtype) for F in frame)
        M = m.astype(dtype)
        K = M * D + np.array(k_off, dtype=dtype)
        s1, s2 = K @ AC, K @ ACp
        f = ((s1 > 0).astype(np.int64) - (s1 < 0)) - ((s2 > 0).astype(np.int64) - (s2 < 0))
        phi = f.prod(axis=1)  # 2^r phi_r(k)
        sup = phi != 0
        K, M, phi = K[sup], M[sup], phi[sup]
        hit = ((s1[sup] == 0) | (s2[sup] == 0)).any(axis=1)
        q = ((K @ Af) * K).sum(axis=1)  # D^2 Q(k)
        bad = L * q > ((K @ LQm) * K).sum(axis=1)
        if bad.any():
            k = tuple(Fraction(int(x)) + o for x, o in zip(M[np.argmax(bad)], off))
            raise ValidationError(f"support point {k} violates Q <= Q_- exactly")
        contrib = np.where((M @ Ap) % 2 == 0, phi, -phi)
        classes, inv = np.unique(q, return_inverse=True)
        sums = np.zeros(len(classes), dtype=np.int64)
        np.add.at(sums, inv, contrib)
        flags = np.zeros(len(classes), dtype=bool)
        np.logical_or.at(flags, inv, hit)
        # exponents -q / 2D^2 ascend as q descends
        return m.shape[0], classes[::-1], sums[::-1], flags[::-1]

    T = _ball_radius(rt, n_terms) ** 2
    while len(seen := support_classes(T)[1]) < n_terms:
        T *= 2.0
    two_e, least = None, Fraction(-int(seen[n_terms - 1]), D * D)
    while least != two_e:
        two_e = least
        n_points, classes, sums, flags = support_classes(float(two_e) * (1.0 + 1e-9))
        least = Fraction(-int(classes[n_terms - 1]), D * D)
    terms = tuple(QTerm(exponent=Fraction(-int(classes[i]), 2 * D * D),
                        coefficient=Fraction(int(sums[i]), 2 ** r),
                        wall_affected=bool(flags[i]))
                  for i in range(n_terms))
    Aex = spec.form.exact()
    mu_p = sum(Fraction(spec.p[i]) * ra.dot([Fraction(a) for a in Aex[i]], list(spec.mu))
               for i in range(n))
    qp = sum(Fraction(spec.p[i]) * Aex[i][j] * spec.p[j] for i in range(n) for j in range(n))
    phase = (mu_p + Fraction(qp, 2)) % 2
    return QExpansion(terms=terms, phase_exponent=phase, n_points=n_points,
                      radius=math.sqrt(two_e))
