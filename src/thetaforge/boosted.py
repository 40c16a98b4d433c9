"""Boosted error functions E^A and M^A on indefinite quadratic spaces.

A cone of s vectors C spanning a positive definite subspace of a signature
(r, n-r) form A carries an A-orthonormal frame E (rows, E A E^T = I_s) and a
dual matrix D with D^T A C = I_s. The boosted functions reduce to Euclidean
ones through the frame:

    E^A_s(C; x) = E_s(E A C; E A x),   M^A_s(C; x) = M_s(E A C; E A x),

independently of the O(s) gauge freedom in E. The Euclidean wall data pulls
back to B(d_j, x): the dual coordinates of the reduced frame are exactly
(E A C)^{-1} E A x = D^T A x.

Every boosted identity is therefore the Euclidean one of the reduced
argument (_reduced_argument): a sub-cone C_S maps to the m-span of its
columns, the A-projection of a column off C_S to its projection off that
span, and Q(x_+) for the A-projection x_+ of x onto span(C) to |E A x|^2.
The decompositions, the shadow and the bound below are pull-backs of their
errfn counterparts, which hold the subset algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rational as ra
from .errfn import (DEFAULT_QUAD, ErrFnArgument, ErrFnValue, QuadratureSpec, _vigneras,
                    bound_check, decompose_E_into_M, decompose_M_into_E, eval_E, eval_M,
                    shadow)
from .exceptions import NotTimelike
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


def boosted_decompositions(arg: BoostedArgument, quad: QuadratureSpec = DEFAULT_QUAD):
    """Both subset decompositions, each summing to the direct evaluation:

        M(C;x) = sum_S (-1)^(s-|S|) prod_{j not in S} sign(B(d_j,x)) E(C_S;x)
        E(C;x) = sum_S prod_{j not in S} sign(B((C_{comp perp S})_j, x)) M(C_S;x)

    Returns (m_terms, e_terms), those of decompose_M_into_E and
    decompose_E_into_M at the reduced argument; each term carries S, coeff,
    value, est_error, route.
    """
    red = _reduced_argument(arg)
    return decompose_M_into_E(red, quad)[0], decompose_E_into_M(red, quad)[0]


def boosted_shadow(arg: BoostedArgument, quad: QuadratureSpec = DEFAULT_QUAD) -> ErrFnValue:
    """sum_j B(c_j,x)/sqrt(Q(c_j)) e^{-pi B(c_j,x)^2/Q(c_j)} E(C_{[s]/j perp j}; x),
    the stripped-real shadow of E^A (the completion attaches i/2): the
    Euclidean shadow of the reduced argument."""
    return shadow(_reduced_argument(arg), "E", quad)


def boosted_bound_check(arg: BoostedArgument, quad: QuadratureSpec = DEFAULT_QUAD,
                        rhs_scale: float = 1.0):
    """|M^A(C;x)| <= s! e^{-pi Q(x_+)}, the Euclidean bound of the reduced
    argument, whose u.u is Q(x_+); returns (lhs, rhs, ok, est_error)."""
    return bound_check(_reduced_argument(arg), quad, rhs_scale)


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
