import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvop.linalg import MatrixPoly, VectorPoly


def test_vector_poly_evaluate_matches_polyval():
    coeffs = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
    F = VectorPoly(coeffs)
    for u in (0.0, 0.3, 1.0):
        expected = np.array([np.polyval(coeffs[::-1, j], u) for j in range(2)])
        assert np.allclose(F.evaluate_at(u), expected, rtol=0, atol=1e-14)


def test_degree_and_dim():
    F = VectorPoly(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert F.dim == 2
    assert F.degree == 1
    M = MatrixPoly.zeros(3)
    assert M.dim == 3
    assert M.degree == 0


def test_add_sub_scale():
    F = VectorPoly(np.array([[1.0], [2.0]]))
    G = VectorPoly(np.array([[0.5]]))
    s = (F + G).coeffs
    assert np.array_equal(s, [[1.5], [2.0]])
    d = (F - G).coeffs
    assert np.array_equal(d, [[0.5], [2.0]])
    assert np.array_equal(F.scale(-2.0).coeffs, [[-2.0], [-4.0]])


def test_derivative_finite_difference():
    rng = np.random.default_rng(3)
    F = VectorPoly(rng.uniform(-1, 1, (6, 3)))
    dF = F.derivative()
    h = 1e-5
    for u in (0.2, 0.55, 0.9):
        fd = (F.evaluate_at(u + h) - F.evaluate_at(u - h)) / (2 * h)
        assert np.allclose(dF.evaluate_at(u), fd, rtol=1e-6, atol=1e-6)


def test_shift_mul_by_u():
    F = VectorPoly(np.array([[1.0, -1.0], [2.0, 0.0]]))
    uF = F.shift_mul_by_u()
    assert uF.degree == 2
    assert np.array_equal(uF.coeffs[0], [0.0, 0.0])
    for u in (0.25, 0.8):
        assert np.allclose(uF.evaluate_at(u), u * F.evaluate_at(u), rtol=0, atol=1e-15)


def test_trim_drops_roundoff_tail():
    F = VectorPoly(np.array([[1.0], [1e-14], [1e-30]]))
    assert F.trim(1e-10).degree == 0
    # an exact zero polynomial keeps a single coefficient row
    Z = VectorPoly(np.zeros((4, 2))).trim()
    assert Z.degree == 0
    assert Z.max_abs == 0.0


def test_left_mul_vector_and_matrix():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    F = VectorPoly(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(F.left_mul(a).coeffs, [[2.0, 1.0], [4.0, 3.0]])
    M = MatrixPoly(np.array([[[1.0, 0.0], [0.0, 2.0]]]))
    out = M.left_mul(a)
    assert np.array_equal(out.coeffs[0], [[0.0, 2.0], [1.0, 0.0]])


def test_matrix_poly_evaluate():
    M = MatrixPoly(np.array([np.eye(2), 2.0 * np.eye(2)]))
    got = M.evaluate_at(0.5)
    assert np.allclose(got, 2.0 * np.eye(2), rtol=0, atol=1e-15)


def test_coeffs_are_read_only():
    F = VectorPoly(np.array([[1.0]]))
    with pytest.raises(ValueError):
        F.coeffs[0, 0] = 2.0


@settings(max_examples=60)
@given(st.lists(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
                min_size=1, max_size=5),
       st.floats(0, 1))
def test_evaluation_is_linear_in_coeffs(rows, u):
    F = VectorPoly(np.array(rows))
    lhs = (F + F).evaluate_at(u)
    assert np.allclose(lhs, 2 * F.evaluate_at(u), rtol=1e-12, atol=1e-12)
