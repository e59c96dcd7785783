"""Property test of the exact maximum behind lambda_max and the certificates.

``solvers.corr_abs_max`` screens with a Gram-form pass and recomputes only
the columns that may hold the maximum; it must give the bits of a full
``design_corr`` pass, on expanded designs with zero-variance columns, exact
ties, a zero vector, row subsets and excluded columns, and on their dense
copies.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import standardized_matrix
from ozolasso.expansion import ExpandedDesign
from ozolasso.solvers import DenseDesign, corr_abs_max, design_corr


def make_design(seed, n, p0, kind, subset):
    rng = np.random.default_rng(seed)
    base = standardized_matrix(rng, n, p0)
    if kind == "zero-variance":  # a +-1 column squares to a constant; a 0 column zeroes its products
        base[:, 0] = np.resize([1.0, -1.0], n)
        base[:, 1] = 0.0
    elif kind == "ties":  # a duplicated base column duplicates its squares and products
        base[:, 1] = base[:, 0]
    design = ExpandedDesign.fit(base)
    if subset:
        design = design.take_rows(np.sort(rng.permutation(n)[: max(3, n // 2)]))
    return design, rng


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 40),
    p0=st.sampled_from([2, 5, 12, 70]),  # 70: 2,555 columns, past one _exact_corr batch
    kind=st.sampled_from(["random", "zero-variance", "ties"]),
    subset=st.booleans(),
    vector=st.sampled_from(["normal", "zero", "column", "large"]),
    exclude=st.sampled_from(["none", "random", "argmax", "all"]),
)
def test_corr_abs_max_is_the_full_pass_max(seed, n, p0, kind, subset, vector, exclude):
    design, rng = make_design(seed, n, p0, kind, subset)
    m, p = design.shape
    v = {
        "normal": lambda: rng.normal(size=m),
        "zero": lambda: np.zeros(m),
        "column": lambda: 0.7 * design.rows([int(rng.integers(p))])[0],  # its own max, tied with any copies
        "large": lambda: 1e6 * rng.normal(size=m),
    }[vector]()
    full = np.abs(design_corr(design, v))
    excluded = {
        "none": None,
        "random": rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False),
        "argmax": np.flatnonzero(full == full.max()),
        "all": np.arange(p),
    }[exclude]
    kept = full if excluded is None else np.delete(full, excluded)
    expected = float(kept.max(initial=0.0))
    for d in (design, DenseDesign(design.block(0, p))):
        got = corr_abs_max(d, v, excluded)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 40),
    p0=st.sampled_from([2, 5, 12, 70]),
    kind=st.sampled_from(["random", "zero-variance", "ties"]),
    subset=st.booleans(),
    vector=st.sampled_from(["normal", "zero", "large"]),
)
def test_screen_keeps_the_bits_of_the_masked_divide(seed, n, p0, kind, subset, vector):
    """The screen divides by a stored divisor, 1 at zero-variance columns,
    and zeroes those columns by a stored index: the bits of the moment
    correction, a divide where std > 0 and a zero-set where std == 0."""
    design, rng = make_design(seed, n, p0, kind, subset)
    m, base = design.shape[0], design.base
    v = {"normal": lambda: rng.normal(size=m), "zero": lambda: np.zeros(m),
         "large": lambda: 1e6 * rng.normal(size=m)}[vector]()
    expected = design._gram_terms(base.T @ v / m, (base * v[:, None]).T @ base / m)
    expected -= design.col_mean * (v.sum() / m)
    np.divide(expected, design.col_std, out=expected, where=design.col_std > 0)
    expected[design.col_std == 0] = 0.0
    assert design.screen(v)[0].tobytes() == expected.tobytes()


def test_row_subsets_share_the_screens_divisor():
    """A fold's take_rows designs divide by the parent's divisor and zero
    its zero-variance index: the same objects, formed once."""
    design, _ = make_design(5, 30, 12, "zero-variance", False)
    divisor, zero = design._scale()
    assert zero.size and (divisor[zero] == 1.0).all()
    train, held = design.take_rows(np.arange(0, 30, 2)), design.take_rows(np.arange(1, 30, 2))
    for fold in (train, held, train.take_rows(np.arange(5))):
        assert fold._scale()[0] is divisor and fold._scale()[1] is zero
