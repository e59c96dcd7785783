"""Property test of the tridiagonal ridge path on random dense designs.

Shapes with n < p and n > p, rank-deficient designs (duplicated columns)
and a grid drawn from [1e-6, 1e3]. Every point must be a ridge solution to
the tolerances of conftest.assert_ridge_solution: a normal-equation residual
of a backward-stable solve, and agreement with fit_ridge's Cholesky solve
relative to the condition number. Pinned examples come first.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import assert_ridge_solution, standardized_matrix
from ozolasso.solvers import DenseDesign, ridge_path


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    p=st.integers(1, 40),
    duplicates=st.integers(0, 3),
    lams=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=6),
)
# a cluster of zero eigenvalues (n < p and a duplicated column): an
# eigenvector solve, unrefined, left a residual 1.12 times the bound here
@example(seed=14913, n=21, p=36, duplicates=1, lams=[1.0])
# one column: no off-diagonal, solved without the tridiagonal routines
@example(seed=0, n=5, p=1, duplicates=0, lams=[1e-6, 1.0, 1e-6])
def test_ridge_path_solves_each_lambda(seed, n, p, duplicates, lams):
    rng = np.random.default_rng(seed)
    X = standardized_matrix(rng, n, p)
    for k in range(min(duplicates, p - 1)):  # rank-deficient: column k copies column 0
        X[:, p - 1 - k] = X[:, 0]
    y = X[:, 0] + rng.normal(size=n)
    fits = ridge_path(DenseDesign(X), y, lams)
    assert [fit.lam for fit in fits] == lams
    for fit in fits:
        assert fit.beta0 == y.mean()
        assert_ridge_solution(X, y, fit)
