import math

import numpy as np
import pytest

from mvop.hypergeom import SeriesTerminationError, h1_apply, h1_coeffs
from mvop.params import Params, lambda_eig
from mvop.spectral import eigvec
from mvop.structure import build_structure


def pochhammer(a, m):
    out = 1.0
    for i in range(m):
        out *= a + i
    return out


def f1_terms(a, b, c, N):
    """Terms of Gauss's scalar 2F1(a, b; c) from h1_coeffs: with U = a+b+1,
    V = ab and lam = 0 the step m^2 + m(U-1) + V factors as (a+m)(b+m)."""
    return h1_coeffs([[c]], [[a + b + 1.0]], [[a * b]], [0.0], [[1.0]], N)


@pytest.mark.parametrize("a,b,c", [(0.5, 2.0, 1.5), (-3.0, 1.0, 2.0), (2.5, -1.5, 4.0)])
def test_f1_scalar_matches_pochhammer(a, b, c):
    """1x1 series terms are (a)_m (b)_m / ((c)_m m!)."""
    terms = f1_terms(a, b, c, 8)
    for m in range(9):
        expected = pochhammer(a, m) * pochhammer(b, m) / (pochhammer(c, m) * math.factorial(m))
        assert terms[m, 0, 0] == pytest.approx(expected, rel=1e-13, abs=1e-300)


def test_f1_terminates_for_negative_integer_numerator():
    terms = f1_terms(-3.0, 2.0, 1.5, 8)
    assert np.all(terms[4:] == 0.0)
    assert terms[3, 0, 0] != 0.0


def test_c_spectrum_guard():
    with pytest.raises(ValueError, match="C-spectrum"):
        h1_coeffs(np.diag([1e-12, 2.0]), np.eye(2), np.eye(2), [0.0], [[1.0, 0.0]], 4)
    with pytest.raises(ValueError, match="C-spectrum"):
        h1_coeffs([[-2.0]], [[1.0]], [[1.0]], [0.0], [[1.0]], 4)


def test_h1_termination_at_eigenvalue():
    p = Params.integer(n=2, k=1, ell=1, m=0)
    st = build_structure(p)
    lam = lambda_eig(p, 2, 0)
    series = h1_coeffs(st.U - st.C, st.U, st.V, [lam], [eigvec(st, lam, 0)], 12)
    F = h1_apply(series[:, 0])
    assert F.degree == 2


def test_h1_no_termination_off_spectrum():
    p = Params.integer(n=2, k=1, ell=1, m=0)
    st = build_structure(p)
    series = h1_coeffs(st.U - st.C, st.U, st.V, [-3.7], [[1.0, 0.0]], 12)
    with pytest.raises(SeriesTerminationError, match="did not terminate"):
        h1_apply(series[:, 0])

