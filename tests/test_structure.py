import numpy as np
import pytest

from mvop.params import Params
from mvop.structure import build_structure, pascal, psi_at

P0 = Params.integer(n=2, k=1, ell=1, m=0)


def test_pascal_frozen():
    assert np.array_equal(pascal(2), [[1, 0, 0], [1, 1, 0], [1, 2, 1]])
    assert pascal(0).shape == (1, 1)


def test_psi_at_collapses_at_zero():
    # Psi(0) keeps only the constant column: all rows become e_0
    psi = psi_at(P0, 0.0)
    assert np.array_equal(psi, [[1.0, 0.0], [1.0, 0.0]])
    psi1 = psi_at(P0, 1.0)
    assert np.array_equal(psi1, [[1.0, 0.0], [1.0, 1.0]])


def test_structure_frozen_at_reference_point():
    """Every matrix at n=2, k=1, ell=1, m=0, evaluated by hand from the band profiles."""
    st = build_structure(P0)
    assert np.array_equal(st.A0, np.diag([2.0, 1.0]))
    assert np.array_equal(st.B0, [[-1.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(st.B1, [[0.0, 0.0], [1.0, -1.0]])
    assert np.array_equal(st.C, [[2.0, 0.0], [-1.0, 1.0]])
    assert np.array_equal(st.U, np.diag([4.0, 5.0]))
    assert np.array_equal(st.V, [[0.0, -1.0], [0.0, 2.0]])
    assert np.array_equal(st.M0, [[1.0, 0.0], [-1.0, 0.0]])
    assert np.array_equal(st.M1, np.diag([1.0, 0.0]))
    assert np.array_equal(st.X, pascal(1).astype(float))
    # U - C is the hypergeometric C-parameter: diagonal n+2s, subdiagonal +s
    UC = st.U - st.C
    assert np.array_equal(np.diag(UC), [2.0, 4.0])
    assert UC[1, 0] == 1.0


def test_row_sums_of_b_blocks_vanish():
    # (B0 + B1) annihilates the all-ones vector for every parameter set
    for p in (P0, Params.integer(n=3, k=2, ell=2, m=1), Params.jacobi(0.5, 1.5, 1, 2)):
        st = build_structure(p)
        ones = np.ones(p.ell + 1)
        assert np.array_equal(st.B0 @ ones, np.zeros(p.ell + 1))
        assert np.array_equal(st.B1 @ ones, np.zeros(p.ell + 1))


def test_jacobi_twin_is_bit_identical():
    for n, k, ell, m in [(2, 1, 1, 0), (3, 2, 2, 1), (3, 1, 0, 1)]:
        a = build_structure(Params.integer(n=n, k=k, ell=ell, m=m))
        b = build_structure(Params.jacobi(alpha=float(m), beta=float(n - 1), k=k, ell=ell))
        for name in ("A0", "B0", "B1", "Mdiag", "C0", "C1", "D0", "D1",
                     "C", "U", "V", "M0", "M1", "P0", "P1"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_structure_shapes_scale_with_ell():
    p = Params.integer(n=3, k=1, ell=4, m=2)
    st = build_structure(p)
    assert st.dim == 5
    assert st.P1.shape == (5, 5)
    # upper band of P1 sits one above the diagonal
    assert np.count_nonzero(np.tril(st.P1, -1)) == 0
