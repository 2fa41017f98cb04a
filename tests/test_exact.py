"""The float family against the exact Integer-mode oracle in tests/exact.py."""

import numpy as np
import pytest

from mvop.family import _Family
from mvop.params import Params

from exact import family


@pytest.mark.parametrize("n,k,ell,m,wmax", [
    (2, 1, 1, 0, 12), (3, 2, 2, 1, 8), (6, 3, 5, 2, 6), (4, 1, 3, 0, 6)])
def test_float_family_matches_the_exact_series(n, k, ell, m, wmax):
    """Every F_{w,r} within 1e-14 of the exact coefficients, relative to the largest."""
    params = Params.integer(n=n, k=k, ell=ell, m=m)
    exact = family(params, wmax)
    for ef in _Family(params).members(wmax):
        want = np.array(exact[ef.w, ef.r], dtype=float)
        assert ef.poly.coeffs.shape == want.shape
        assert np.abs(ef.poly.coeffs - want).max() <= 1e-14 * np.abs(want).max(), (ef.w, ef.r)
