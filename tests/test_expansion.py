"""Lazy quadratic expansion: ordering, parent bookkeeping, standardization."""

import numpy as np

from conftest import standardized_matrix
from ozolasso.expansion import ExpandedDesign, cross_index, expansion_size
from ozolasso.solvers import DenseDesign


def small_design(seed=0, n=30, p0=5):
    rng = np.random.default_rng(seed)
    return ExpandedDesign.fit(standardized_matrix(rng, n, p0))


def raw_design(design):
    """The same expansion with mean 0 and std 1: its columns are the raw
    products, bit for bit."""
    p = design.n_features
    return ExpandedDesign(design.base, np.zeros(p), np.ones(p))


def test_expansion_size_closed_form():
    assert expansion_size(918) == 422_739
    assert expansion_size(938) == 441_329
    assert expansion_size(3) == 9
    assert expansion_size(1) == 2  # no cross terms, degenerate but legal


def test_cross_pairs_lexicographic():
    pairs = [divmod(int(f), 4) for f in cross_index(4)]
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_p0_3_descriptor_layout():
    design = small_design(p0=3)
    names = ["a", "b", "c"]
    descs = [design.descriptor(j, names) for j in range(design.n_features)]
    assert [d.name for d in descs] == [
        "a", "b", "c",
        "(a)^2", "(b)^2", "(c)^2",
        "(a) x (b)", "(a) x (c)", "(b) x (c)",
    ]
    assert [d.category for d in descs[:3]] == ["base"] * 3
    assert [d.category for d in descs[3:6]] == ["square"] * 3
    assert [d.category for d in descs[6:]] == ["interaction"] * 3
    assert descs[7].parents == (0, 2)
    assert all(d.index == j for j, d in enumerate(descs))


def test_parents_cover_all_segments():
    design = small_design(p0=4)
    assert design.parents(2) == (2, 2)       # linear
    assert design.parents(4 + 1) == (1, 1)   # square of base 1
    assert design.parents(8) == (0, 1)       # first cross pair
    jj, kk = design.parents(design.n_features - 1)
    assert (jj, kk) == (2, 3)
    for j in range(2 * 4, design.n_features):
        pj, pk = design.parents(j)
        assert pj < pk


def test_raw_columns_are_parent_products():
    design = small_design(seed=3, p0=6)
    base = design.base
    p = design.n_features
    raw = raw_design(design).block(0, p)
    for j in range(p):
        pj, pk = design.parents(j)
        expected = base[:, pj] if j < design.p0 else base[:, pj] * base[:, pk]
        np.testing.assert_array_equal(raw[:, j], expected)


def designs_to_check():
    """An ExpandedDesign and a DenseDesign on p0 in {1, 2, 5} base columns,
    with and without a zero-variance column (the square of a +-1 column; a
    constant dense column)."""
    rng = np.random.default_rng(4)
    for p0 in (1, 2, 5):
        for zero_variance in (False, True):
            base = standardized_matrix(rng, 12, p0)
            if zero_variance:
                base[:, 0] = np.resize([1.0, -1.0], 12)
            expanded = ExpandedDesign.fit(base)
            assert (expanded.col_std == 0).any() == zero_variance
            yield expanded
            yield DenseDesign(np.column_stack([base, np.zeros(12)]) if zero_variance else base)


def assert_rows_and_blocks_agree(design, rng):
    """rows(idx)[i] is block(j, j + 1)[:, 0] for j = idx[i], for idx sorted,
    unsorted, repeated and empty, and block(0, p) is the blocks of any width
    side by side."""
    n, p = design.shape
    full = design.block(0, p)
    assert full.shape == (n, p)
    for width in (1, 3, ExpandedDesign.CHUNK):
        chunks = [design.block(j0, min(j0 + width, p)) for j0 in range(0, p, width)]
        assert np.hstack(chunks).tobytes() == full.tobytes()
    for idx in (np.arange(p), rng.permutation(p), rng.integers(0, p, 2 * p), [], [p - 1, 0, p - 1]):
        rows = design.rows(idx)
        assert rows.shape == (len(idx), n) and rows.flags.c_contiguous
        for row, j in zip(rows, idx):
            assert row.tobytes() == design.block(j, j + 1)[:, 0].tobytes()
    return full


def test_block_column_materialize_agree_bitwise():
    """Both designs, and a row subset of each, whose columns are the rows
    of the full design's."""
    rng = np.random.default_rng(5)
    for design in designs_to_check():
        full = assert_rows_and_blocks_agree(design, rng)
        subset = np.array([5, 0, 11, 5, 7])
        sub = design.take_rows(subset)
        assert assert_rows_and_blocks_agree(sub, rng).tobytes() == full[subset].tobytes()


def test_expanded_columns_standardized_on_training_rows():
    design = small_design(seed=5, n=50, p0=6)
    full = design.block(0, design.n_features)
    live = design.col_std > 0
    assert np.abs(full[:, live].mean(axis=0)).max() < 1e-12
    assert np.abs(full[:, live].var(axis=0) - 1).max() < 1e-10


def test_zero_variance_expanded_column_yields_zeros():
    # a +/-1 column squares to the constant 1 -> zero variance -> zero column
    base = np.array([[1.0, 0.5], [-1.0, -1.5], [1.0, 2.0], [-1.0, -1.0]])
    base = (base - base.mean(axis=0)) / base.std(axis=0)
    design = ExpandedDesign.fit(base)
    sq0 = design.p0  # index of (col 0)^2
    assert design.col_std[sq0] == 0.0
    np.testing.assert_array_equal(design.rows([sq0])[0], 0.0)


def test_take_rows_keeps_training_moments():
    design = small_design(seed=6, n=40, p0=5)
    sub = design.take_rows(np.arange(10))
    assert sub.shape == (10, design.n_features)
    np.testing.assert_array_equal(sub.col_mean, design.col_mean)
    np.testing.assert_array_equal(sub.col_std, design.col_std)
    p = design.n_features
    np.testing.assert_array_equal(sub.block(0, p), design.block(0, p)[:10])



def two_pass_moments(design):
    """Mean and std of every raw column, CHUNK columns at a time: the
    reference arithmetic for the Gram-form moments."""
    p = design.n_features
    mean, std = np.empty(p), np.empty(p)
    raw_columns = raw_design(design)
    for j0 in range(0, p, ExpandedDesign.CHUNK):
        raw = np.ascontiguousarray(raw_columns.block(j0, min(j0 + ExpandedDesign.CHUNK, p)))
        mean[j0 : j0 + raw.shape[1]], std[j0 : j0 + raw.shape[1]] = raw.mean(axis=0), raw.std(axis=0)
    return mean, std


def test_gram_moments_match_the_two_pass_moments():
    """Squares and products take their moments from two p0 x p0 GEMMs,
    within 1e-12 of the two-pass values in units of the column's std. Base
    columns, and columns whose variance cancels (zero-variance ones among
    them, in both raw blocks), keep the two-pass bits, so the zero-variance
    columns are the same ones."""
    rng = np.random.default_rng(7)
    n, p0 = 40, 95  # 4,655 expanded columns: two raw blocks
    base = standardized_matrix(rng, n, p0)
    signs = np.resize([1.0, -1.0], n)
    base[:, 0] = signs  # its square is the constant 1
    base[:, 1] = 0.0  # every product with it is 0
    base[:, 2] = signs + 1e-6 * rng.normal(size=n)  # its square barely varies
    base[:, 93] = base[:, 94] = rng.permutation(signs)  # their product, in the second block, is 1
    design = ExpandedDesign.fit(base)
    mean, std = two_pass_moments(design)

    late = 2 * p0 + int(np.flatnonzero(cross_index(p0) == 93 * p0 + 94)[0])
    assert late >= ExpandedDesign.CHUNK and std[late] == 0.0
    zero = std == 0
    assert zero[p0] and zero[p0 + 1] and zero.sum() > p0
    np.testing.assert_array_equal(design.col_std == 0, zero)
    low = design.col_std <= 1e-4 * np.sqrt(design.col_std**2 + design.col_mean**2)
    kept = np.concatenate([np.ones(p0, bool), np.zeros(design.n_features - p0, bool)]) | low
    assert low[p0 + 2] and not zero[p0 + 2]
    assert design.col_mean[kept].tobytes() == mean[kept].tobytes()
    assert design.col_std[kept].tobytes() == std[kept].tobytes()
    live = ~zero
    assert (np.abs(design.col_mean - mean)[live] / std[live]).max() <= 1e-12
    assert (np.abs(design.col_std - std)[live] / std[live]).max() <= 1e-12
