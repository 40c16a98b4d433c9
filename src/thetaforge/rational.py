"""Exact linear algebra over fractions.Fraction.

Matrices are lists of lists of Fraction, vectors are lists of Fraction.
Sizes in this package stay small (at most ~9x9), so plain fraction
Gaussian elimination is exact and fast enough; no clever pivoting for
numerical stability is needed, only nonzero pivots.
"""

from __future__ import annotations

from fractions import Fraction

from .exceptions import NonExactInput

Fr = Fraction


def as_fraction(x, allow_float: bool = False) -> Fraction:
    """Coerce a scalar to Fraction.

    Floats are exact binary rationals, so conversion is lossless, but most
    exact entry points want them rejected: pass allow_float=True only where
    rationalizing float input is the documented behavior.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise NonExactInput(f"bool is not a rational scalar: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if not allow_float:
            raise NonExactInput(f"float entry {x!r} rejected; pass int, Fraction or 'p/q' string")
        return Fraction(x)
    try:
        # numpy integer scalars
        import numpy as np

        if isinstance(x, np.integer):
            return Fraction(int(x))
        if isinstance(x, np.floating):
            if not allow_float:
                raise NonExactInput(f"float entry {x!r} rejected; pass int, Fraction or 'p/q' string")
            return Fraction(float(x))
    except ImportError:  # pragma: no cover
        pass
    raise NonExactInput(f"cannot interpret {x!r} as a rational scalar")


def fvector(xs, allow_float: bool = False) -> list[Fraction]:
    return [as_fraction(x, allow_float) for x in xs]


def fmatrix(rows, allow_float: bool = False) -> list[list[Fraction]]:
    out = [fvector(row, allow_float) for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise NonExactInput("ragged matrix")
    return out


def zeros(n: int, m: int) -> list[list[Fraction]]:
    return [[Fr(0)] * m for _ in range(n)]


def identity(n: int) -> list[list[Fraction]]:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fr(1)
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = zeros(n, m)
    for i in range(n):
        Ai = A[i]
        for j in range(m):
            out[i][j] = sum(Ai[t] * B[t][j] for t in range(k))
    return out


def mat_vec(A, v):
    return [sum(Ai[t] * v[t] for t in range(len(v))) for Ai in A]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def det(A) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(A)
    if n == 0:
        return Fr(1)
    M = [row[:] for row in A]
    sign = 1
    d = Fr(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return Fr(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
        p = M[col][col]
        d *= p
        for r in range(col + 1, n):
            f = M[r][col] / p
            if f:
                Mr = M[r]
                Mc = M[col]
                for c in range(col, n):
                    Mr[c] -= f * Mc[c]
    return d * sign


def _gauss_jordan(A, B):
    """(A^-1 B, det A) from one Gauss-Jordan pass over [A | B]; det A is the
    signed product of the pivots. Singular A raises ZeroDivisionError."""
    n = len(A)
    M = [list(A[i]) + list(B[i]) for i in range(n)]
    d = Fr(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            d = -d
        p = M[col][col]
        d *= p
        pivot_row = M[col] = [x / p for x in M[col]]
        for r in range(n):
            f = M[r][col]
            if r != col and f:
                M[r] = [x - f * y for x, y in zip(M[r], pivot_row)]
    return [row[n:] for row in M], d


def solve(A, b):
    """Solve A x = b exactly. Raises ZeroDivisionError on singular A."""
    return [x for (x,) in _gauss_jordan(A, [[v] for v in b])[0]]


def inverse(A):
    return _gauss_jordan(A, identity(len(A)))[0]


def cofactor_matrix(A):
    """Matrix of cofactors C[i][j] = (-1)^(i+j) det(minor(i,j)) of a
    nonsingular A, as det(A) * inverse(A)^T; singular A raises
    ZeroDivisionError."""
    n = len(A)
    Ainv, d = _gauss_jordan(A, identity(n))
    return [[d * Ainv[j][i] for j in range(n)] for i in range(n)]


def inertia(S) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_minus, n_zero) of a symmetric matrix.

    Symmetric elimination with diagonal pivots; when the whole remaining
    diagonal vanishes, a nonzero off-diagonal pair [[0,h],[h,0]] contributes
    (+1,-1) and both rows are eliminated with the 2x2 block inverse.
    """
    n = len(S)
    M = [row[:] for row in S]
    alive = list(range(n))
    pos = neg = zero = 0
    while alive:
        piv = next((i for i in alive if M[i][i] != 0), None)
        if piv is not None:
            p = M[piv][piv]
            if p > 0:
                pos += 1
            else:
                neg += 1
            alive.remove(piv)
            for r in alive:
                f = M[r][piv] / p
                if f:
                    for c in alive:
                        M[r][c] -= f * M[piv][c]
            continue
        hit = None
        for ii, i in enumerate(alive):
            for j in alive[ii + 1:]:
                if M[i][j] != 0:
                    hit = (i, j)
                    break
            if hit:
                break
        if hit is None:
            zero += len(alive)
            break
        i, j = hit
        h = M[i][j]
        pos += 1
        neg += 1
        alive.remove(i)
        alive.remove(j)
        # Schur update with inv([[0,h],[h,0]]) = [[0,1/h],[1/h,0]]
        for r in alive:
            bi, bj = M[r][i], M[r][j]
            if bi or bj:
                for c in alive:
                    M[r][c] -= (bi * M[j][c] + bj * M[i][c]) / h
    return pos, neg, zero


def is_positive_definite(S) -> bool:
    n = len(S)
    return inertia(S) == (n, 0, 0)


def gram(form_matrix, vectors):
    """Gram matrix G_ij = v_i^T A v_j for columns given as a list of vectors."""
    Av = [mat_vec(form_matrix, v) for v in vectors]
    return [[dot(vectors[i], Av[j]) for j in range(len(vectors))] for i in range(len(vectors))]
