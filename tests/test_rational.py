"""Exact linear algebra over Fractions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaforge import rational as ra

rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=7)


def square(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def test_det_2x2():
    assert ra.det([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2


def test_det_permutation_antisymmetry():
    m = [[Fraction(1), Fraction(2), Fraction(0)],
         [Fraction(0), Fraction(1), Fraction(5)],
         [Fraction(2), Fraction(1), Fraction(3)]]
    swapped = [m[1], m[0], m[2]]
    assert ra.det(swapped) == -ra.det(m)


@settings(max_examples=40, deadline=None)
@given(square(3))
def test_inverse_roundtrip(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if ra.det([row[:] for row in m]) == 0:
        with pytest.raises(Exception):
            ra.inverse(m)
        return
    inv = ra.inverse(m)
    assert ra.mat_mul(m, inv) == ra.identity(3)


@settings(max_examples=40, deadline=None)
@given(square(3), st.lists(rationals, min_size=3, max_size=3))
def test_solve_matches_matvec(rows, v):
    m = [[Fraction(x) for x in row] for row in rows]
    if ra.det([row[:] for row in m]) == 0:
        return
    x = ra.solve([row[:] for row in m], list(v))
    assert ra.mat_vec(m, x) == list(v)


def test_cofactor_matrix_gives_adjugate_identity():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    cof = ra.cofactor_matrix(m)
    d = ra.det([row[:] for row in m])
    # M * adj(M) = det(M) I, adj = cof^T
    adj = ra.transpose(cof)
    assert ra.mat_mul(m, adj) == [[d, Fraction(0)], [Fraction(0), d]]


@settings(max_examples=40, deadline=None)
@given(square(4))
def test_cofactor_matrix_det_from_pivots(rows):
    """The Gauss-Jordan pass takes det as the signed product of its pivots,
    row swaps included: A adj(A) = det(A) I."""
    m = [[Fraction(x) for x in row] for row in rows]
    d = ra.det(m)
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            ra.cofactor_matrix(m)
        return
    adj = ra.transpose(ra.cofactor_matrix(m))
    assert ra.mat_mul(m, adj) == [[d if i == j else 0 for j in range(4)] for i in range(4)]


def test_inertia_known_diagonals():
    assert ra.inertia(ra.fmatrix([[2, 0], [0, -3]])) == (1, 1, 0)
    assert ra.inertia(ra.fmatrix([[0, 0], [0, 0]])) == (0, 0, 2)
    assert ra.inertia(ra.fmatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (3, 0, 0)


def test_inertia_hyperbolic_plane():
    # indefinite with zero diagonal: needs the off-diagonal handling
    assert ra.inertia(ra.fmatrix([[0, 1], [1, 0]])) == (1, 1, 0)


def test_inertia_a4_gram():
    g = ra.fmatrix([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
    assert ra.inertia(g) == (4, 0, 0)
    assert ra.is_positive_definite(g)


@settings(max_examples=30, deadline=None)
@given(square(3))
def test_congruence_preserves_inertia(rows):
    """Sylvester: inertia of S^T M S equals inertia of M for invertible S."""
    m = [[Fraction(x) for x in row] for row in rows]
    sym = ra.mat_mul(ra.transpose(m), m)  # PSD, possibly singular
    s = ra.fmatrix([[1, 2, 0], [0, 1, 1], [1, 0, 3]])
    assert ra.det([row[:] for row in s]) != 0
    cong = ra.mat_mul(ra.transpose(s), ra.mat_mul(sym, s))
    assert ra.inertia(cong) == ra.inertia(sym)


def test_gram_matrix():
    vecs = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    g = ra.gram(ra.identity(2), vecs)
    assert g == [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(2)]]


def test_as_fraction_rejects_inexact_float():
    assert ra.as_fraction(2) == Fraction(2)
    assert ra.as_fraction("3/4") == Fraction(3, 4)
    with pytest.raises(Exception):
        ra.as_fraction(0.1)
