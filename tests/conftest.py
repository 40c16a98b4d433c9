import numpy as np
import pytest

from thetaforge.cones import ConePair, build_a4_example, build_r1_example
from thetaforge.quadform import BilinearForm, ErrorFunctionFrame


PRODUCT = BilinearForm.from_rows([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, -2]])


def product_pair() -> ConePair:
    """The direct sum of two diag(1, -2) pairs c = (1, 0), c' = (2, 1):
    c = (e1, e3), c' = (2e1 + e2, 2e3 + e4)."""
    return ConePair.from_matrices([[1, 0], [0, 0], [0, 1], [0, 0]],
                                  [[2, 0], [1, 0], [0, 2], [0, 1]], PRODUCT)


@pytest.fixture(scope="session")
def a4_pair():
    return build_a4_example()


@pytest.fixture(scope="session")
def r1_pair():
    return build_r1_example()


@pytest.fixture(scope="session")
def hyperbolic_pair():
    """Signature (1,1) pair on the hyperbolic plane [[0,1],[1,0]]: both cone
    vectors timelike, Q(c) = Q(c') > 0, passes the full certificate."""
    form = BilinearForm.from_rows([[0, 1], [1, 0]])
    return ConePair.from_matrices([[1], [1]], [[2], [1]], form)


def frame_of(m_mat) -> ErrorFunctionFrame:
    return ErrorFunctionFrame.from_m(np.asarray(m_mat, dtype=float))


@pytest.fixture
def generic_frame_2() -> ErrorFunctionFrame:
    return frame_of([[1.0, 0.3], [0.2, 1.1]])
