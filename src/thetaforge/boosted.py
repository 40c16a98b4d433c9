"""Boosted error functions E^A and M^A on indefinite quadratic spaces.

A cone of s vectors C spanning a positive definite subspace of a signature
(r, n-r) form A carries an A-orthonormal frame E (rows, E A E^T = I_s) and a
dual matrix D with D^T A C = I_s. The boosted functions reduce to Euclidean
ones through the frame:

    E^A_s(C; x) = E_s(E A C; E A x),   M^A_s(C; x) = M_s(E A C; E A x),

independently of the O(s) gauge freedom in E. The Euclidean wall data pulls
back to B(d_j, x): the dual coordinates of the reduced frame are exactly
(E A C)^{-1} E A x = D^T A x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rational as ra
from .errfn import (DEFAULT_QUAD, ErrFnArgument, ErrFnValue, QuadratureSpec, _subsets,
                    _vigneras, eval_E, eval_M)
from .exceptions import DegenerateGram, NotTimelike
from .quadform import BilinearForm, ErrorFunctionFrame

_TOL_FRAME = 1e-10


def _is_exact_matrix(C: np.ndarray) -> bool:
    if C.dtype.kind in "iu":
        return True
    if C.dtype.kind == "f":
        return bool(np.all(C == np.round(C)))
    return False


@dataclass(frozen=True, eq=False)
class ConeMatrix:
    """Timelike cone data: columns C, the form, an A-orthonormal frame E for
    span(C), and the dual matrix D with D^T A C = I."""

    C: np.ndarray
    form: BilinearForm
    E_frame: np.ndarray
    D: np.ndarray

    @property
    def s(self) -> int:
        return self.C.shape[1]

    @property
    def n(self) -> int:
        return self.C.shape[0]

    def column(self, j: int) -> np.ndarray:
        return self.C[:, j]


def _check_timelike(C: np.ndarray, form: BilinearForm):
    s = C.shape[1]
    if s == 0:
        return
    A = form.matrix()
    G = C.T @ A @ C
    if _is_exact_matrix(C):
        Gx = ra.gram(form.exact(), [ [ra.as_fraction(int(round(v))) for v in C[:, j]] for j in range(s) ])
        if not ra.is_positive_definite(Gx):
            raise NotTimelike("C^T A C is not positive definite (exact check)")
        return
    evals = np.linalg.eigvalsh(0.5 * (G + G.T))
    scale = max(float(np.max(np.abs(evals))), 1.0)
    if evals[0] <= 1e-10 * scale:
        raise NotTimelike(f"C^T A C has non-positive eigenvalue {evals[0]:.3e}")


def _a_orthonormal_rows(C: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Gram-Schmidt in the A inner product on the columns of C, in order.

    One re-orthogonalization pass; the subspace is positive definite so the
    A-norms stay positive for independent columns.
    """
    n, s = C.shape
    rows = np.zeros((s, n))
    for k in range(s):
        v = C[:, k].astype(float).copy()
        for _ in range(2):
            for i in range(k):
                v -= (rows[i] @ A @ v) * rows[i]
        nrm2 = float(v @ A @ v)
        if nrm2 <= _TOL_FRAME * max(float(np.abs(C[:, k]) @ np.abs(C[:, k])), 1.0):
            raise NotTimelike(f"column {k} is A-degenerate within its flag")
        rows[k] = v / math.sqrt(nrm2)
    return rows


def build_cone(C, form: BilinearForm) -> ConeMatrix:
    """Orthonormalizes span(C) under A and solves for the dual matrix.

    Raises NotTimelike unless C^T A C is positive definite (exact test for
    integral C, eigenvalue test otherwise).
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[0] != form.n:
        raise ValueError(f"C has {C.shape[0]} rows, form has dimension {form.n}")
    _check_timelike(C, form)
    A = form.matrix()
    s = C.shape[1]
    if s == 0:
        return ConeMatrix(C=C, form=form, E_frame=np.zeros((0, form.n)), D=np.zeros((form.n, 0)))
    E = _a_orthonormal_rows(C, A)
    EAC = E @ A @ C
    D = E.T @ np.linalg.inv(EAC).T
    resid = np.max(np.abs(D.T @ A @ C - np.eye(s)))
    if resid > _TOL_FRAME:
        raise NotTimelike(f"dual matrix residual {resid:.3e} exceeds tolerance")
    return ConeMatrix(C=C, form=form, E_frame=E, D=D)


@dataclass(frozen=True, eq=False)
class BoostedArgument:
    cone: ConeMatrix
    x: np.ndarray
    wall_eps: float | None = None

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        object.__setattr__(self, "x", x)
        if x.shape != (self.cone.n,):
            raise ValueError(f"x has shape {x.shape}, form dimension is {self.cone.n}")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"x must be finite, got {x}")
        if self.wall_eps is None:
            object.__setattr__(self, "wall_eps", max(1e-9 * float(np.linalg.norm(x)), 1e-12))


def project_plus(arg: BoostedArgument) -> np.ndarray:
    """x_+ = E^T E A x, the A-orthogonal projection of x onto span(C)."""
    E = arg.cone.E_frame
    return E.T @ (E @ arg.cone.form.matrix() @ arg.x)


def _reduced_argument(arg: BoostedArgument) -> ErrFnArgument:
    cone = arg.cone
    A = cone.form.matrix()
    frame = ErrorFunctionFrame.from_m(cone.E_frame @ A @ cone.C)
    return ErrFnArgument(frame=frame, u=cone.E_frame @ A @ arg.x, wall_eps=arg.wall_eps)


def eval_E_boosted(arg: BoostedArgument, quad: QuadratureSpec = DEFAULT_QUAD) -> ErrFnValue:
    if arg.cone.s == 0:
        return ErrFnValue(1.0, 0.0, 0.0)
    return eval_E(_reduced_argument(arg), quad)


def eval_M_boosted(arg: BoostedArgument, quad: QuadratureSpec = DEFAULT_QUAD) -> ErrFnValue:
    """M^A; the Euclidean wall check on (E A C)^{-1} E A x enforces the
    |B(d_j, x)| > wall_eps domain condition."""
    if arg.cone.s == 0:
        return ErrFnValue(1.0, 0.0, 0.0)
    return eval_M(_reduced_argument(arg), quad)


def perp_columns(C, form: BilinearForm, S, S_prime) -> np.ndarray:
    """Columns c_j - C_S' (C_S'^T A C_S')^{-1} C_S'^T A c_j for j in S.

    C_S' may have indefinite Gram; it only needs to be nondegenerate
    (exact determinant test on integral input).
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    A = form.matrix()
    S = sorted(set(int(j) for j in S))
    Sp = sorted(set(int(j) for j in S_prime))
    if not Sp:
        return C[:, S].copy()
    Cp = C[:, Sp]
    G = Cp.T @ A @ Cp
    if _is_exact_matrix(Cp):
        Gx = ra.gram(form.exact(), [[ra.as_fraction(int(round(v))) for v in Cp[:, i]]
                                    for i in range(Cp.shape[1])])
        if ra.det(Gx) == 0:
            raise DegenerateGram("C_S' has exactly singular Gram matrix")
    else:
        if abs(np.linalg.det(G)) < 1e-12 * max(np.linalg.norm(G), 1.0) ** Cp.shape[1]:
            raise DegenerateGram("C_S' Gram matrix is numerically singular")
    coeff = np.linalg.solve(G, Cp.T @ A @ C[:, S])
    return C[:, S] - Cp @ coeff


def perp_cone(cone: ConeMatrix, S, S_prime) -> ConeMatrix:
    """build_cone of the projected columns; NotTimelike surfaces here when
    the projection degenerates (e.g. S' = S gives zero columns)."""
    cols = perp_columns(cone.C, cone.form, S, S_prime)
    return build_cone(cols, cone.form)


def _sub_cone(cone: ConeMatrix, S) -> ConeMatrix:
    return build_cone(cone.C[:, list(S)], cone.form) if len(S) else \
        build_cone(np.zeros((cone.n, 0)), cone.form)


def boosted_decompositions(arg: BoostedArgument, quad: QuadratureSpec = DEFAULT_QUAD):
    """Both subset decompositions, each summing to the direct evaluation:

        M(C;x) = sum_S (-1)^(s-|S|) prod_{j not in S} sign(B(d_j,x)) E(C_S;x)
        E(C;x) = sum_S prod_{j not in S} sign(B((C_{comp perp S})_j, x)) M(C_S;x)

    Returns (m_terms, e_terms); each term carries S, coeff, value, est_error.
    """
    cone, x = arg.cone, arg.x
    A = cone.form.matrix()
    s = cone.s
    d_sign = np.sign(cone.D.T @ A @ x)
    m_terms = []
    e_terms = []
    for S in _subsets(s):
        comp = tuple(j for j in range(s) if j not in S)
        sub = _sub_cone(cone, S)
        sub_arg = BoostedArgument(cone=sub, x=x, wall_eps=arg.wall_eps)
        coeff_m = (-1.0) ** (s - len(S)) * float(np.prod(d_sign[list(comp)])) if comp else 1.0
        ev = eval_E_boosted(sub_arg, quad)
        m_terms.append({"S": S, "coeff": coeff_m, "value": ev.value, "est_error": ev.est_error})
        if comp:
            pc = perp_columns(cone.C, cone.form, comp, S)
            coeff_e = float(np.prod(np.sign(pc.T @ A @ x)))
        else:
            coeff_e = 1.0
        mv = eval_M_boosted(sub_arg, quad)
        e_terms.append({"S": S, "coeff": coeff_e, "value": mv.value, "est_error": mv.est_error})
    return m_terms, e_terms


def sum_terms(terms) -> ErrFnValue:
    total = sum(t["coeff"] * t["value"] for t in terms)
    est = sum(abs(t["coeff"]) * t["est_error"] for t in terms)
    return ErrFnValue(value=total, imag_residual=0.0, est_error=est)


def boosted_shadow(arg: BoostedArgument, quad: QuadratureSpec = DEFAULT_QUAD) -> ErrFnValue:
    """sum_j B(c_j,x)/sqrt(Q(c_j)) e^{-pi B(c_j,x)^2/Q(c_j)} E(C_{[s]/j perp j}; x),
    the stripped-real shadow of E^A (the completion attaches i/2)."""
    cone, x = arg.cone, arg.x
    A = cone.form.matrix()
    total = 0.0
    est = 0.0
    for j in range(cone.s):
        cj = cone.column(j)
        qc = float(cj @ A @ cj)
        bj = float(cj @ A @ x)
        others = tuple(k for k in range(cone.s) if k != j)
        if others:
            red = perp_cone(cone, others, (j,))
            ev = eval_E_boosted(BoostedArgument(cone=red, x=x, wall_eps=arg.wall_eps), quad)
            v, e = ev.value, ev.est_error
        else:
            v, e = 1.0, 0.0
        w = bj / math.sqrt(qc) * math.exp(-np.pi * bj * bj / qc)
        total += w * v
        est += abs(w) * e
    return ErrFnValue(value=total, imag_residual=0.0, est_error=est)


def boosted_bound_check(arg: BoostedArgument, quad: QuadratureSpec = DEFAULT_QUAD,
                        rhs_scale: float = 1.0):
    """|M^A(C;x)| <= s! e^{-pi Q(x_+)}; returns (lhs, rhs, ok, est_error)."""
    res = eval_M_boosted(arg, quad)
    xp = project_plus(arg)
    q_plus = float(arg.cone.form.quadratic(xp))
    rhs = rhs_scale * math.factorial(arg.cone.s) * math.exp(-np.pi * q_plus)
    lhs = abs(res.value)
    return lhs, rhs, lhs <= rhs + res.est_error, res.est_error


def vigneras_residual_boosted(arg: BoostedArgument, kind: str = "E", h: float = 1e-3,
                              quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Finite-difference residual of B^{-1}(d_x, d_x) + 2 pi x^T d_x.

    The operator is sum_ij (A^{-1})_ij d_i d_j + 2 pi sum_i x_i d_i; both
    E^A and M^A are annihilated, so the residual is O(h^2).
    """
    if kind not in ("M", "E"):
        raise ValueError("kind must be 'M' or 'E'")
    cone = arg.cone

    def f(x):
        a = BoostedArgument(cone=cone, x=x, wall_eps=arg.wall_eps)
        return (eval_M_boosted(a, quad) if kind == "M" else eval_E_boosted(a, quad)).value

    return _vigneras(f, arg.x, np.linalg.inv(cone.form.matrix()), h)
