"""The polynomial training fit end to end: the passes it makes over the
streamed expansion."""

import numpy as np

from ozolasso import pipeline, solvers
from ozolasso.config import RunConfig
from ozolasso.expansion import ExpandedDesign, expansion_size
from ozolasso.features import apply_standardizer, fit_standardizer

# the poly-cv benchmark's cross-validation protocol
CONFIG = RunConfig(expansion="polynomial", cv_k=2, cv_points=4, cv_ratio=0.25, seed=0)


def polynomial_training(seed: int, n: int, p0: int) -> pipeline.TrainingData:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p0))
    y_raw = x[:, 0] * x[:, 1] - x[:, 2] + 0.5 * x[:, 3] ** 2 + 0.3 * rng.normal(size=n)
    params = fit_standardizer(x, y_raw)
    base, y = apply_standardizer(params, x, y_raw)
    names = [f"f{j}" for j in range(p0)]
    return pipeline.TrainingData(params, base, y, names, names)


def test_polynomial_fit_makes_no_full_pass(monkeypatch):
    """CV, lambda_max and the final certificate come from Gram-form screens
    and exact rechecks of single columns: no design_corr pass, and fewer
    columns generated in total (by ``rows``, which ``block`` calls too) than
    the expansion has."""
    data = polynomial_training(0, 160, 400)
    p = expansion_size(400)
    corr_calls, columns = [], []
    design_corr, rows = solvers.design_corr, ExpandedDesign.rows
    monkeypatch.setattr(solvers, "design_corr", lambda d, v: corr_calls.append(1) or design_corr(d, v))
    monkeypatch.setattr(ExpandedDesign, "rows",
                        lambda self, idx: columns.append(len(idx)) or rows(self, idx))
    model, cv, fit = pipeline.fit_method(CONFIG, data, "lasso", "polynomial")
    assert fit.converged and fit.active_set.size > 0 and cv is not None
    assert corr_calls == []
    assert 0 < sum(columns) < p

