"""Bilinear forms, frames, dual frames, and subset projectors.

A frame is an invertible r x r matrix whose columns m_1..m_r are the
direction vectors of a product of linear forms; the dual frame W = M^-T
satisfies w_j . m_k = delta_jk. Subset projectors Q_S and P_S hold
orthonormal row bases of span{m_j : j in S} and span{w_j : j in S}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rational as ra
from .exceptions import DegenerateForm, NonExactInput, SingularFrame

TOL_DUAL = 1e-12
COND_CAP = 1e12
TOL_ORTHO = 1e-12
TOL_SPAN = 1e-10


def _is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class BilinearForm:
    """Symmetric nondegenerate integer bilinear form B(x, y) = x^T A y."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise DegenerateForm("form matrix must be square")
        for i in range(n):
            for j in range(n):
                if not _is_exact_scalar(self.rows[i][j]):
                    raise NonExactInput("form entries must be integers")
                if self.rows[i][j] != self.rows[j][i]:
                    raise DegenerateForm("form matrix must be symmetric")
        if ra.det(self.exact()) == 0:
            raise DegenerateForm("form matrix must be nondegenerate")

    @classmethod
    def from_rows(cls, rows) -> "BilinearForm":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    def exact(self) -> list[list[Fraction]]:
        return ra.fmatrix(self.rows)

    def matrix(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def bilinear(self, x, y) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return float(x @ self.matrix() @ y)

    def quadratic(self, x) -> float:
        return self.bilinear(x, x)


def signature(form: BilinearForm) -> tuple[int, int]:
    """Exact signature (n_plus, n_minus) of the form.

    Computed by rational symmetric elimination; a zero eigenvalue is
    impossible for a valid BilinearForm but is still guarded.
    """
    pos, neg, zero = ra.inertia(form.exact())
    if zero:
        raise DegenerateForm("form has an exact zero eigenvalue")
    return pos, neg


def dual_frame(m_mat: np.ndarray) -> np.ndarray:
    """Dual frame W = M^-T with w_j . m_k = delta_jk."""
    m_mat = np.asarray(m_mat, dtype=float)
    if m_mat.ndim != 2 or m_mat.shape[0] != m_mat.shape[1]:
        raise SingularFrame("frame matrix must be square")
    if m_mat.shape[0] == 0:
        return m_mat.copy()
    cond = np.linalg.cond(m_mat)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise SingularFrame(f"frame condition number {cond:.3e} exceeds {COND_CAP:.0e}")
    return np.linalg.inv(m_mat).T


@dataclass(frozen=True, eq=False)
class ErrorFunctionFrame:
    """Nonsingular frame and its dual, validated on construction."""

    m_mat: np.ndarray
    w_mat: np.ndarray

    @classmethod
    def from_m(cls, m_mat) -> "ErrorFunctionFrame":
        m_mat = np.array(m_mat, dtype=float)
        w = dual_frame(m_mat)
        resid = np.max(np.abs(w.T @ m_mat - np.eye(m_mat.shape[0]))) if m_mat.size else 0.0
        if resid > TOL_DUAL * max(1.0, np.linalg.norm(m_mat)):
            raise SingularFrame(f"dual frame residual {resid:.3e} above tolerance")
        return cls(m_mat=m_mat, w_mat=w)

    @property
    def r(self) -> int:
        return self.m_mat.shape[0]

    def m(self, j: int) -> np.ndarray:
        return self.m_mat[:, j]

    def w(self, j: int) -> np.ndarray:
        return self.w_mat[:, j]


def _mgs_rows(vectors: list[np.ndarray]) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Deterministic: input order is the orthogonalization order.
    """
    rows = []
    for v in vectors:
        q = v.astype(float).copy()
        for _ in range(2):
            for b in rows:
                q -= (b @ q) * b
        nrm = np.linalg.norm(q)
        if nrm < 1e-12 * max(1.0, np.linalg.norm(v)):
            raise SingularFrame("subset vectors are numerically dependent")
        rows.append(q / nrm)
    return np.array(rows) if rows else np.zeros((0, len(vectors[0]) if vectors else 0))


@dataclass(frozen=True, eq=False)
class SubsetProjectors:
    """Orthonormal row bases for the m-span and w-span of a subset S."""

    S: tuple[int, ...]
    Q: np.ndarray
    P: np.ndarray


def subset_projectors(frame: ErrorFunctionFrame, S) -> SubsetProjectors:
    """Q_S and P_S for subset S, rows in increasing index order.

    The full subset keeps the standard basis (Q = P = identity), which all
    downstream uses expect; proper subsets use deterministic MGS.
    """
    S = tuple(sorted(set(int(j) for j in S)))
    r = frame.r
    if any(j < 0 or j >= r for j in S):
        raise ValueError(f"subset {S} out of range for rank {r}")
    if len(S) == r:
        eye = np.eye(r)
        return SubsetProjectors(S=S, Q=eye.copy(), P=eye.copy())
    if not S:
        empty = np.zeros((0, r))
        return SubsetProjectors(S=S, Q=empty, P=empty.copy())
    Q = _mgs_rows([frame.m(j) for j in S])
    P = _mgs_rows([frame.w(j) for j in S])
    return SubsetProjectors(S=S, Q=Q, P=P)

