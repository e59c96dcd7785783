"""Property test of the homotopy Lasso on random dense designs.

Shapes with n < p and n > p, rank-deficient designs (a duplicated column,
or a column that is an exact linear combination of others, as the paper's
daily means are of its hourly columns) and lambda at 0, at lambda_max and
in between. Each fit must certify: KKT within kkt_tol and a relative
duality gap of at most 1e-12. Where the solution is unique it must match a
long-budget coordinate-descent fit.

On small quadratic expansions, a path that carries X'r/n across kinks must
keep the bits of one that screens it afresh at every segment.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import standardized_matrix
from ozolasso import solvers
from ozolasso.expansion import ExpandedDesign
from ozolasso.solvers import DenseDesign, LassoConfig, design_corr, fit_lasso, fit_ols, lasso_path


def make_problem(seed, n, p, kind):
    rng = np.random.default_rng(seed)
    X = standardized_matrix(rng, n, p)
    if kind == "duplicate":
        X[:, -1] = X[:, 0]
    elif kind == "combination":
        combo = X[:, : p - 1].mean(axis=1)
        X[:, -1] = combo / combo.std()
    support = rng.choice(p, size=min(3, p), replace=False)
    y = X[:, support] @ rng.uniform(-2.0, 2.0, support.size) + 0.3 * rng.normal(size=n)
    return X, y


def coordinate_descent(X, yc, lam, tol=1e-12, max_sweeps=200_000):
    """Cyclic coordinate descent to a sweep that moves no coordinate by
    tol: an independent dense reference for the homotopy."""
    n, p = X.shape
    rows, diag = np.ascontiguousarray(X.T), (X * X).sum(axis=0) / n
    beta, r = np.zeros(p), yc.copy()
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in np.flatnonzero(diag > 0).tolist():
            z = float(rows[j] @ r) / n + diag[j] * beta[j]
            delta = np.sign(z) * max(abs(z) - lam / 2, 0.0) / diag[j] - beta[j]
            if delta != 0.0:
                r -= delta * rows[j]
                beta[j] += delta
                max_delta = max(max_delta, abs(delta))
        if max_delta < tol:
            return beta
    raise AssertionError("the reference coordinate descent did not converge")


def equicorrelation_independent(X, yc, beta, lam):
    """Tibshirani (2013): the Lasso solution is unique when the columns
    whose |X_j'r/n| reaches lam/2 (the equicorrelation set) are independent."""
    n = X.shape[0]
    corr = X.T @ (yc - X @ beta) / n
    E = np.flatnonzero(np.abs(corr) >= lam / 2 - 1e-9)
    return np.linalg.matrix_rank(X[:, E], tol=1e-8) == E.size


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(12, 30), (25, 60), (40, 10), (60, 25)]),
    kind=st.sampled_from(["random", "duplicate", "combination"]),
    where=st.sampled_from(["zero", "max", "between"]),
    frac=st.floats(0.02, 0.95),
)
def test_homotopy_certifies_and_matches_coordinate_descent(seed, shape, kind, where, frac):
    n, p = shape
    X, y = make_problem(seed, n, p, kind)
    yc = y - y.mean()
    lam_max = 2.0 * float(np.abs(design_corr(DenseDesign(X), yc)).max())
    lam = {"zero": 0.0, "max": lam_max, "between": frac * lam_max}[where]
    config = LassoConfig(lam=lam)
    fit = fit_lasso(DenseDesign(X), y, config)

    assert fit.converged
    assert fit.kkt_zero_violation <= config.kkt_tol
    assert fit.kkt_active_violation <= config.kkt_tol
    r = yc - X @ fit.beta
    if lam > 0 or n <= p:
        assert fit.gap <= 1e-12
    else:
        # at lambda = 0 the scaled residual is dual-feasible only when X'r = 0
        # exactly, so with n > p the gap stays at 1 - R^2; the fit is checked
        # against least squares instead
        assert np.abs(X.T @ r / n).max() <= config.kkt_tol
    if where == "max":
        assert np.all(fit.beta == 0.0)

    if lam == 0.0:
        if n > p and kind == "random":
            assert np.abs(fit.beta - fit_ols(DenseDesign(X), y).beta).max() < 1e-8
        return
    if not equicorrelation_independent(X, yc, fit.beta, lam):
        return
    assert np.abs(fit.beta - coordinate_descent(X, yc, lam)).max() < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([15, 30, 60]),
    p0=st.integers(3, 9),
    twins=st.booleans(),
)
def test_carried_correlations_keep_the_path_bits(seed, n, p0, twins):
    """X'r/n carried from kink to kink, and refreshed by the default rule,
    admits every column that a fresh screen at each kink admits to the
    exact recheck, so the path keeps its bits: beta, sweeps_used and
    converged equal those of a path that screens r afresh at every
    segment, on a streamed design and on a DenseDesign of its columns.
    Twin base columns make joins blocked in the span of the active set, and
    paths down to 1e-4 of lambda_max on a design with more columns than
    rows pass drops."""
    rng = np.random.default_rng(seed)
    base = standardized_matrix(rng, n, p0)
    if twins:
        base[:, 0] = base[:, 1]
    y = base[:, 0] * base[:, 1] - base[:, 2] + 0.5 * rng.normal(size=n)
    design = ExpandedDesign.fit(base)
    dense = DenseDesign(design.block(0, design.shape[1]))
    grid = np.geomspace(1.0, 1e-4, 30)
    paths = []
    for refresh in (0.0, solvers._REFRESH):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_REFRESH", refresh)
            for d in (design, dense):
                paths.append([(f.beta.tobytes(), f.sweeps_used, f.converged) for f in lasso_path(d, y, grid)])
    assert paths[0] == paths[1] == paths[2] == paths[3]
