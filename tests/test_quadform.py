"""Bilinear forms, frames, dual frames, subset projectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaforge.exceptions import DegenerateForm, SingularFrame
from thetaforge.quadform import (BilinearForm, ErrorFunctionFrame, dual_frame,
                                 signature, subset_projectors)


def test_form_requires_symmetry():
    with pytest.raises(DegenerateForm):
        BilinearForm.from_rows([[1, 2], [0, 1]])


def test_signature_known_forms():
    assert signature(BilinearForm.from_rows([[0, 1], [1, 0]])) == (1, 1)
    assert signature(BilinearForm.from_rows([[1, 0], [0, -2]])) == (1, 1)
    assert signature(BilinearForm.from_rows(np.eye(3, dtype=int).tolist())) == (3, 0)


def test_a4_block_form_signature():
    G = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    A = [[0] * 8 for _ in range(8)]
    for i in range(4):
        for j in range(4):
            A[i][j] = G[i][j]
        A[i][4 + i] = -1
        A[4 + i][i] = -1
    assert signature(BilinearForm.from_rows(A)) == (4, 4)


def test_bilinear_and_quadratic_eval():
    form = BilinearForm.from_rows([[1, 0], [0, -2]])
    x = np.array([1.0, 1.0])
    assert form.bilinear(x, x) == pytest.approx(-1.0)
    assert form.quadratic(np.array([2.0, 0.0])) == pytest.approx(4.0)


def test_dual_frame_biorthogonal():
    m = np.array([[1.0, 0.3], [0.2, 1.1]])
    w = dual_frame(m)
    assert np.allclose(w.T @ m, np.eye(2), atol=1e-14)


def test_singular_frame_rejected():
    with pytest.raises(SingularFrame):
        ErrorFunctionFrame.from_m(np.array([[1.0, 2.0], [2.0, 4.0]]))


square_entries = st.integers(min_value=-3, max_value=3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(square_entries, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_dual_frame_biorthogonal_random(rows):
    m = np.array(rows, dtype=float)
    if abs(np.linalg.det(m)) < 0.5:
        return
    frame = ErrorFunctionFrame.from_m(m)
    assert np.allclose(frame.w_mat.T @ frame.m_mat, np.eye(3), atol=1e-10)


def test_subset_projectors_orthonormal_and_span():
    frame = ErrorFunctionFrame.from_m(np.array([[1.0, 0.3, 0.1],
                                                [0.2, 1.1, -0.4],
                                                [0.0, 0.5, 0.9]]))
    S = (0, 2)
    proj = subset_projectors(frame, S)
    assert np.allclose(proj.Q @ proj.Q.T, np.eye(2), atol=1e-12)
    assert np.allclose(proj.P @ proj.P.T, np.eye(2), atol=1e-12)
    # Q^T Q is the orthogonal projector onto span(m_S); it fixes each m_j
    for j in S:
        mj = frame.m(j)
        assert np.allclose(proj.Q.T @ (proj.Q @ mj), mj, atol=1e-12)
    for j in S:
        wj = frame.w(j)
        assert np.allclose(proj.P.T @ (proj.P @ wj), wj, atol=1e-12)


def test_subset_projectors_extremes():
    frame = ErrorFunctionFrame.from_m(np.eye(2))
    full = subset_projectors(frame, (0, 1))
    assert np.allclose(full.Q, np.eye(2))
    empty = subset_projectors(frame, ())
    assert empty.Q.shape == (0, 2)
    with pytest.raises(ValueError):
        subset_projectors(frame, (5,))

