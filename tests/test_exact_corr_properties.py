"""Property test of the one rule behind every exact correlation.

``solvers._exact_corr`` sums the n products of each column along its own
row, so a column must get the same bits alone, in any batch, at any
position and in any order, and a streamed design and its dense copy the
same bits (streamed and materialized fits agree bitwise on this). n runs
over the edges of numpy's pairwise sum (8-term unrolled blocks, 128-term
leaves) and the batch width over 1, 3 and its default; the designs have
zero-variance columns and row subsets.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import standardized_matrix
from ozolasso import solvers
from ozolasso.expansion import ExpandedDesign
from ozolasso.solvers import DenseDesign, _exact_corr, corr_abs_max

BATCHES = (1, 3, solvers._BATCH)


def make_design(rng, n, p0, zero_variance, subset):
    """An expanded design on n rows, taken from n + 5 when ``subset``."""
    m = n + 5 if subset else n
    base = standardized_matrix(rng, m, p0)
    if zero_variance:  # a +-1 column squares to a constant; a 0 column zeroes its products
        base[:, 0] = np.resize([1.0, -1.0], m)
        base[:, 1] = 0.0
    design = ExpandedDesign.fit(base)
    if subset:
        design = design.take_rows(np.sort(rng.permutation(m)[:n]))
    return design


def alone(design, vectors):
    """Each column formed on its own."""
    p = design.shape[1]
    return np.stack([_exact_corr(design, np.array([j]), vectors)[:, 0] for j in range(p)], axis=1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 7, 8, 9, 128, 129, 257]),
    p0=st.sampled_from([2, 5, 12]),
    zero_variance=st.booleans(),
    subset=st.booleans(),
)
def test_a_column_keeps_its_bits_in_any_batch(seed, n, p0, zero_variance, subset):
    rng = np.random.default_rng(seed)
    design = make_design(rng, n, p0, zero_variance, subset)
    p = design.shape[1]
    vectors = (rng.normal(size=n), 1e6 * rng.normal(size=n))
    expected = alone(design, vectors)
    if zero_variance:
        assert (expected[:, design.col_std == 0] == 0.0).all()
    for d in (design, DenseDesign(design.block(0, p))):
        for batch in BATCHES:
            with mock.patch.object(solvers, "_BATCH", batch):
                whole = _exact_corr(d, np.arange(p), vectors)
                some = rng.permutation(p)[: rng.integers(1, p + 1)]  # any subset, in any order
                part = _exact_corr(d, some, vectors[::-1])
                assert corr_abs_max(d, np.zeros(n)) == 0.0  # every column a candidate
            assert whole.tobytes() == expected.tobytes()
            assert part.tobytes() == expected[::-1][:, some].tobytes()


def test_past_the_default_batch():
    """2,555 columns, two default batches: the columns of the second keep
    the bits they have alone, on the design and its dense copy."""
    rng = np.random.default_rng(4)
    design = make_design(rng, 129, 70, True, True)
    p = design.shape[1]
    assert p > solvers._BATCH
    v = rng.normal(size=129)
    expected = alone(design, [v])
    for d in (design, DenseDesign(design.block(0, p))):
        assert _exact_corr(d, np.arange(p), [v]).tobytes() == expected.tobytes()
        assert solvers.design_corr(d, v).tobytes() == expected[0].tobytes()
