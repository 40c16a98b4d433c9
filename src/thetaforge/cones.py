"""Exact convergence certificates for indefinite theta cone pairs.

A pair (C, C') of r + r integer (or rational) vectors on a signature
(r, n-r) form is admissible when, writing Delta for the Gram determinant of
the interleaved family (c_1, c'_1, ..., c_r, c'_r), D_{j,j'} for the Gram
cofactor at the (c_j, c'_j) position and M for the cofactor matrix with the
D_{j,j'}, D_{j',j} entries zeroed:

  * every mixed choice C^P (one of c_j / c'_j per index) spans a positive
    definite r-dimensional subspace,
  * Delta (-1)^r > 0,
  * D_{j,j'} (-1)^r >= 0 for every j,
  * (-1)^r M is negative definite,
  * the same holds recursively for the complement pairs projected
    A-orthogonally to any mixed choice on any subset S (all (S, P)),

and then Q_-(x) = Q(x) - (2/Delta) sum_j D_{j,j'} B(c_j,x) B(c'_j,x) is
negative definite, which drives every Gaussian tail bound downstream. All
checks run in exact rational arithmetic; float input is rejected.

Projections compose (projecting perpendicular to V then to the projection
of W equals projecting perpendicular to V + W), so the (S, P) recursion is
memoized on the set of globally chosen vectors: 3^r distinct systems.

Each system's Q_- inertia on the A-orthocomplement of its chosen vectors
comes from Gram matrices alone: the inertias of A, of the chosen Gram, of
the family Gram and of Q_- in the family's coordinates (see
_q_minus_inertia). No basis of the complement is built.

build_ar_example(r) builds the A_r family of admissible pairs, whose r = 4
member (build_a4_example) is the paper's non-factorizable example;
build_r1_example is a minimal rank-1 pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import rational as ra
from .exceptions import ZeroDelta
from .quadform import BilinearForm

CONDITION_ORDER = (
    "signature",
    "cp_positive_definite",
    "delta_sign",
    "cofactor_sign",
    "reduced_cofactor_negative_definite",
    "recursion",
    "q_minus_negative_definite",
)


def _exact_columns(mat, n_expected=None) -> tuple:
    rows = ra.fmatrix(mat)
    n = len(rows)
    if n_expected is not None and n != n_expected:
        raise ValueError(f"matrix has {n} rows, expected {n_expected}")
    ncols = len(rows[0])
    return tuple(tuple(rows[i][j] for i in range(n)) for j in range(ncols))


@dataclass(frozen=True, eq=False)
class ConePair:
    """Exact cone pair: columns of C and C_prime index-paired, on `form`."""

    C: tuple
    C_prime: tuple
    form: BilinearForm

    @classmethod
    def from_matrices(cls, C, C_prime, form: BilinearForm) -> "ConePair":
        cols = _exact_columns(C, form.n)
        cols_p = _exact_columns(C_prime, form.n)
        if len(cols) != len(cols_p):
            raise ValueError("C and C' must have the same number of columns")
        return cls(C=cols, C_prime=cols_p, form=form)

    @property
    def r(self) -> int:
        return len(self.C)

    @property
    def n(self) -> int:
        return self.form.n


@dataclass(eq=False)
class ConeSystemReport:
    delta: Fraction
    cofactors_jjprime: tuple
    reduced_cofactor_matrix: tuple
    per_P_positive_definite: dict
    q_minus: tuple | None
    q_minus_inertia: tuple | None
    conditions: dict
    first_failed: str | None
    verdict: str
    n_pairs: int
    recursion_reports: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _bil(A, x, y) -> Fraction:
    return ra.dot(ra.mat_vec(A, list(y)), list(x))


def _project_off(A, basis, basis_gram, v):
    """v minus its A-orthogonal projection onto span(basis)."""
    rhs = [_bil(A, b, v) for b in basis]
    coeff = ra.solve(basis_gram, rhs)
    out = list(v)
    for c, b in zip(coeff, basis):
        for i in range(len(out)):
            out[i] -= c * b[i]
    return tuple(out)


def _interleave(cs, cps):
    out = []
    for c, cp in zip(cs, cps):
        out.append(c)
        out.append(cp)
    return out


def _zeroed_cofactor_matrix(cof, r):
    M = [row[:] for row in cof]
    for j in range(r):
        M[2 * j][2 * j + 1] = Fraction(0)
        M[2 * j + 1][2 * j] = Fraction(0)
    return M


def _q_minus_matrix(A, delta, cofs, cs, cps):
    """A - (1/Delta) sum_j D_{j,j'} (A c_j c'_j^T A + A c'_j c_j^T A)."""
    n = len(A)
    out = [row[:] for row in A]
    for D, c, cp in zip(cofs, cs, cps):
        if D == 0:
            continue
        Ac = ra.mat_vec(A, list(c))
        Acp = ra.mat_vec(A, list(cp))
        w = D / delta
        for i in range(n):
            for j in range(n):
                out[i][j] -= w * (Ac[i] * Acp[j] + Acp[i] * Ac[j])
    return out


def _gram_system(A, cs, cps):
    """The Gram matrix G of the interleaved family (c_1, c'_1, ..., c_r,
    c'_r), Delta = det G, the cofactor matrix of G, the D_{j,j'} and Q_-;
    the last three are None when Delta = 0."""
    gram = ra.gram(A, _interleave(cs, cps))
    delta = ra.det(gram)
    if delta == 0:
        return gram, delta, None, None, None
    cof = ra.cofactor_matrix(gram)
    cofs = tuple(cof[2 * j][2 * j + 1] for j in range(len(cs)))
    return gram, delta, cof, cofs, _q_minus_matrix(A, delta, cofs, cs, cps)


def _q_minus_inertia(a_inertia, chosen_inertia, gram, delta, cofs):
    """Inertia of Q_- on V, the A-orthocomplement of the chosen vectors, from
    Gram matrices alone. On the span F of the projected family, Q_- in the
    family's coordinates is Q_- built from the family Gram G and unit vectors."""
    units = ra.identity(len(gram))
    q_family = _q_minus_matrix(gram, delta, cofs, units[0::2], units[1::2])
    # V = F + W with W the A-orthocomplement of F in V, where B(c_j, w) =
    # B(c'_j, w) = 0 gives Q_-(f + w) = Q_-(f) + Q(w); inertia adds over such
    # sums (Haynsworth), so In(Q_- on V) = In(Q_- on F) + In(A on W)
    # = In(Q_- on F) + In(A) - In(chosen Gram) - In(G).
    return tuple(a - c - f + q for a, c, f, q in zip(
        a_inertia, chosen_inertia, ra.inertia(gram), ra.inertia(q_family)))


class _Checker:
    def __init__(self, pair: ConePair):
        self.pair = pair
        self.A = [list(row) for row in pair.form.exact()]
        self.a_inertia = ra.inertia(self.A)
        self.n = pair.n
        self.r = pair.r
        self.memo: dict = {}

    def top_report(self) -> ConeSystemReport:
        return self._system(frozenset())

    def _chosen_vectors(self, chosen):
        out = []
        for j, which in sorted(chosen):
            out.append(self.pair.C_prime[j] if which else self.pair.C[j])
        return out

    def _system(self, chosen: frozenset) -> ConeSystemReport:
        if chosen in self.memo:
            return self.memo[chosen]
        report = self._build_report(chosen)
        self.memo[chosen] = report
        return report

    def _build_report(self, chosen: frozenset) -> ConeSystemReport:
        A = self.A
        taken = {j for j, _ in chosen}
        remaining = [j for j in range(self.r) if j not in taken]
        rp = len(remaining)
        chosen_vecs = self._chosen_vectors(chosen)
        conditions = {}

        # signature is a standing hypothesis; only meaningful at top level
        if not chosen:
            conditions["signature"] = self.a_inertia == (self.r, self.n - self.r, 0)

        gram_ch = ra.gram(A, chosen_vecs)
        chosen_inertia = ra.inertia(gram_ch)
        if chosen_inertia[2]:
            conditions["degenerate_projection"] = False
            return ConeSystemReport(
                delta=Fraction(0), cofactors_jjprime=(), reduced_cofactor_matrix=(),
                per_P_positive_definite={}, q_minus=None, q_minus_inertia=None,
                conditions=conditions, first_failed="degenerate_projection",
                verdict="fail", n_pairs=rp)
        cs = [_project_off(A, chosen_vecs, gram_ch, self.pair.C[j]) for j in remaining]
        cps = [_project_off(A, chosen_vecs, gram_ch, self.pair.C_prime[j]) for j in remaining]

        per_P = {}
        ok_cp = True
        for k in range(rp + 1):
            for P in combinations(range(rp), k):
                vecs = [cps[j] if j in P else cs[j] for j in range(rp)]
                flag = ra.is_positive_definite(ra.gram(A, vecs)) if vecs else True
                per_P[P] = flag
                ok_cp = ok_cp and flag
        conditions["cp_positive_definite"] = ok_cp

        gram, delta, cof, cofs, q_mat = _gram_system(A, cs, cps)
        sign_r = -1 if rp % 2 else 1
        conditions["delta_sign"] = sign_r * delta > 0

        if delta != 0:
            conditions["cofactor_sign"] = all(sign_r * D >= 0 for D in cofs)
            M = _zeroed_cofactor_matrix(cof, rp)
            # (-1)^rp M negative definite
            conditions["reduced_cofactor_negative_definite"] = ra.inertia(M) == (
                (0, 2 * rp, 0) if sign_r == 1 else (2 * rp, 0, 0))
            reduced = tuple(tuple(row) for row in M)
        else:
            cofs = ()
            reduced = ()
            conditions["cofactor_sign"] = False
            conditions["reduced_cofactor_negative_definite"] = False

        recursion_reports = {}
        ok_rec = True
        for k in range(1, rp + 1):
            for S in combinations(range(rp), k):
                for kp in range(len(S) + 1):
                    for Ploc in combinations(S, kp):
                        child = chosen | {(remaining[j], 1 if j in Ploc else 0) for j in S}
                        rep = self._system(frozenset(child))
                        recursion_reports[(S, Ploc)] = rep
                        ok_rec = ok_rec and rep.passed
        conditions["recursion"] = ok_rec

        q_minus = None
        q_inertia = None
        if q_mat is not None:
            q_inertia = _q_minus_inertia(self.a_inertia, chosen_inertia, gram, delta, cofs)
            conditions["q_minus_negative_definite"] = q_inertia[0] == 0 and q_inertia[2] == 0
            q_minus = tuple(tuple(row) for row in q_mat)
        else:
            conditions["q_minus_negative_definite"] = False

        first_failed = None
        for name in CONDITION_ORDER:
            if name in conditions and not conditions[name]:
                first_failed = name
                break
        verdict = "pass" if first_failed is None else "fail"
        return ConeSystemReport(
            delta=delta, cofactors_jjprime=cofs, reduced_cofactor_matrix=reduced,
            per_P_positive_definite=per_P, q_minus=q_minus, q_minus_inertia=q_inertia,
            conditions=conditions, first_failed=first_failed, verdict=verdict,
            n_pairs=rp, recursion_reports=recursion_reports)


def check_cone_pair(pair: ConePair) -> ConeSystemReport:
    """Runs every Theorem-style hypothesis exactly, including the full
    (S, P) recursion, and reports the first failed condition."""
    return _Checker(pair).top_report()


def q_minus_form(pair: ConePair):
    """Exact matrix of Q_-; raises ZeroDelta when the Gram determinant is 0."""
    A = [list(row) for row in pair.form.exact()]
    _, delta, _, _, q_mat = _gram_system(A, list(pair.C), list(pair.C_prime))
    if delta == 0:
        raise ZeroDelta("Gram determinant of (C, C') vanishes")
    return tuple(tuple(row) for row in q_mat)


def det_identity_residual(pair: ConePair, x) -> Fraction:
    """Exact residual of the bordered-Gram identity

        Delta(x, c_1, c'_1, ..., c_r, c'_r) = Delta Q_-(x) - X^T M X,

    which must vanish identically; nonzero means an indexing bug upstream.
    """
    x = ra.fvector(x)
    A = [list(row) for row in pair.form.exact()]
    gram, delta, cof, _, qm = _gram_system(A, list(pair.C), list(pair.C_prime))
    if delta == 0:
        raise ZeroDelta("Gram determinant of (C, C') vanishes")
    X = [_bil(A, v, x) for v in _interleave(pair.C, pair.C_prime)]
    lhs = ra.det([[_bil(A, x, x)] + X] + [[X_i] + row for X_i, row in zip(X, gram)])
    q_minus_x = ra.dot(ra.mat_vec(qm, x), x)
    M = _zeroed_cofactor_matrix(cof, pair.r)
    xmx = ra.dot(ra.mat_vec(M, X), X)
    return lhs - (delta * q_minus_x - xmx)


def build_ar_example(r: int) -> ConePair:
    """The rank-r member of the A_r family: the signature (r, r) form
    [[G(A_r), -I_r], [-I_r, 0]], G(A_r) the A_r Cartan matrix, with
    c_i = e_i and c'_i = e_i - e_{r + (i+1 mod r)}. It passes check_cone_pair
    for r = 1..4; r = 5 fails at reduced_cofactor_negative_definite."""
    A = [[0] * (2 * r) for _ in range(2 * r)]
    for i in range(r):
        A[i][i] = 2
        A[i][r + i] = A[r + i][i] = -1
        if i + 1 < r:
            A[i][i + 1] = A[i + 1][i] = -1
    C = [[int(i == j) for j in range(r)] for i in range(2 * r)]
    Cp = [[int(i == j) - int(i == r + (j + 1) % r) for j in range(r)] for i in range(2 * r)]
    return ConePair.from_matrices(C, Cp, BilinearForm.from_rows(A))


def build_a4_example() -> ConePair:
    """The paper's non-factorizable rank-4 instance, build_ar_example(4)."""
    return build_ar_example(4)


def build_r1_example() -> ConePair:
    """Minimal rank-1 instance on diag(1, -1): c = (1,0), c' = (2,1)."""
    form = BilinearForm.from_rows([[1, 0], [0, -1]])
    return ConePair.from_matrices([[1], [0]], [[2], [1]], form)
