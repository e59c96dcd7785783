"""On-the-fly pairwise interaction expansion of a standardized base matrix.

Expanded ordering: base columns 0..p0-1, squares p0..2p0-1 (square of base j at
p0+j), then cross products in lexicographic (j, k), j<k order. Expanded columns
are products of standardized base columns, re-standardized with training-set
moments, and are never materialized as a full matrix.
"""

from __future__ import annotations

import numpy as np

from .features import FeatureDescriptor
from .solvers import rounding_unit


# A column whose variance E[x^2] - E[x]^2 is at most this share of E[x^2]
# takes its moments from a raw pass: the difference has lost its digits.
_CANCEL = 1e-8


def expansion_size(p0: int) -> int:
    return 2 * p0 + p0 * (p0 - 1) // 2


def cross_index(p0: int) -> np.ndarray:
    """The parents (j, k), j<k, of the cross products in lexicographic
    order, as flat indices j*p0 + k into a p0 x p0 array."""
    return np.flatnonzero(np.triu(np.ones((p0, p0), dtype=bool), k=1))


class ExpandedDesign:
    """Lazy column access to the quadratic expansion of a base matrix, with
    the members the solvers read of a design (see solvers.DenseDesign).

    ``col_mean``/``col_std`` are training-set moments over all expanded
    columns; zero-variance expanded columns yield an all-zero standardized
    column (their coordinate can never activate).
    """

    # moment block width; separate from solvers._CORR_CHUNK, and changing it moves bits
    CHUNK = 4096

    def __init__(self, base: np.ndarray, col_mean: np.ndarray, col_std: np.ndarray, cross=None,
                 scaling=None):
        self.base = np.ascontiguousarray(base, dtype=float)
        self.p0 = base.shape[1]
        self.col_mean = col_mean
        self.col_std = col_std
        self._cross = cross_index(self.p0) if cross is None else cross
        self._corr_err = None  # screen's error weights, formed on first use
        self._scaling = scaling  # screen's divisor and zero-variance columns (_scale)

    @classmethod
    def fit(cls, base: np.ndarray) -> "ExpandedDesign":
        """Compute expansion moments on training rows.

        Squares and cross products take E[x] = (B'B)_jk / n and E[x^2] =
        ((B o B)'(B o B))_jk / n from two p0 x p0 GEMMs, and the variance
        E[x^2] - E[x]^2. Base columns, and every column whose variance is at
        most _CANCEL of E[x^2] (where the difference has lost its digits;
        zero-variance columns included), take the two-pass mean and std of
        their raw CHUNK block, so std == 0 is decided as a raw pass decides it.
        """
        base = np.ascontiguousarray(base, dtype=float)
        n, p0 = base.shape
        p = expansion_size(p0)
        # mean 0 and std 1: x - 0 and x / 1 keep every bit, so its blocks are raw
        design = cls(base, np.broadcast_to(0.0, p), np.broadcast_to(1.0, p))
        sums = design._square_sums()
        mean = design._gram_terms(np.zeros(p0), base.T @ base / n)
        ex2 = sums / n
        var = ex2 - mean * mean
        var[:p0] = 0.0  # base columns: the raw pass below
        redo = np.flatnonzero(var <= _CANCEL * ex2)
        del ex2
        std = np.sqrt(np.maximum(var, 0.0))
        for j0 in (np.unique(redo // cls.CHUNK) * cls.CHUNK).tolist():
            # C order, as the sums along axis 0 of a raw pass take it
            raw = np.ascontiguousarray(design.block(j0, min(j0 + cls.CHUNK, p)))
            sel = redo[(redo >= j0) & (redo < j0 + cls.CHUNK)]
            mean[sel], std[sel] = raw.mean(axis=0)[sel - j0], raw.std(axis=0)[sel - j0]
        design.col_mean, design.col_std = mean, std
        design._corr_err = design._error_weights(sums)
        return design

    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape[0], expansion_size(self.p0)

    @property
    def n_features(self) -> int:
        return expansion_size(self.p0)

    def parents(self, index: int) -> tuple[int, int]:
        p0 = self.p0
        if index < p0:
            return (index, index)  # linear term, degenerate parents
        if index < 2 * p0:
            j = index - p0
            return (j, j)
        return divmod(int(self._cross[index - 2 * p0]), p0)

    def descriptor(self, index: int, base_names: list[str]) -> FeatureDescriptor:
        p0 = self.p0
        if index < p0:
            return FeatureDescriptor(index, base_names[index], "base", None)
        if index < 2 * p0:
            j = index - p0
            return FeatureDescriptor(index, f"({base_names[j]})^2", "square", (j, j))
        j, k = self.parents(index)
        return FeatureDescriptor(
            index, f"({base_names[j]}) x ({base_names[k]})", "interaction", (j, k)
        )

    def rows(self, idx) -> np.ndarray:
        """Standardized columns ``idx`` as the rows of a C-ordered
        (len(idx), n) array: products of gathered base rows."""
        idx = np.asarray(idx, dtype=np.int64)
        p0, base_t = self.p0, self.base.T
        left = np.where(idx < p0, idx, idx - p0)  # a base column's own row, a square's parent
        right = left.copy()
        cross = np.flatnonzero(idx >= 2 * p0)
        left[cross], right[cross] = np.divmod(self._cross[idx[cross] - 2 * p0], p0)
        out = base_t[left]
        out *= base_t[right]
        linear = np.flatnonzero(idx < p0)
        out[linear] = base_t[idx[linear]]
        std = self.col_std[idx]
        out -= self.col_mean[idx][:, None]
        out /= np.where(std > 0, std, 1.0)[:, None]
        out[std == 0] = 0.0
        return out

    def block(self, j0: int, j1: int) -> np.ndarray:
        """Standardized columns [j0, j1) as an (n, j1-j0) array, the
        transpose of their rows."""
        return self.rows(np.arange(j0, j1)).T

    def _square_sums(self) -> np.ndarray:
        """sum_i raw_ij^2 for every expanded column; the squares and cross
        products from one p0 x p0 GEMM, ((B o B)'(B o B))_jk."""
        sq = self.base * self.base
        return self._gram_terms(sq.sum(axis=0), sq.T @ sq)

    def _gram_terms(self, linear: np.ndarray, gram: np.ndarray) -> np.ndarray:
        """One value per expanded column: ``linear`` for the base columns,
        then the p0 x p0 ``gram``'s diagonal and its entries at the cross
        pairs, gathered with one take into the preallocated vector."""
        p0 = self.p0
        out = np.empty(expansion_size(p0))
        out[:p0] = linear
        out[p0 : 2 * p0] = gram.diagonal()
        # mode="clip": the indices are valid, and "raise" buffers the output
        np.take(gram.ravel(), self._cross, out=out[2 * p0 :], mode="clip")
        return out

    def _error_weights(self, square_sums: np.ndarray) -> np.ndarray:
        """screen's w from the raw column norms: 0 where std is 0."""
        n = self.base.shape[0]
        err = np.sqrt(square_sums) / n + np.abs(self.col_mean) / np.sqrt(n)
        std = np.where(self.col_std > 0, self.col_std, np.inf)
        return err * rounding_unit(n) / std

    def screen(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(X_j'v / n for every expanded column, weights w), as the solvers
        read a screen (see solvers.DenseDesign).

        The raw products are one p0 x p0 GEMM, ((B o v)'B)_jk / n, corrected
        by the saved moments. w_j = 4 (n + 10) eps (||raw_j|| / n +
        |mean_j| / sqrt(n)) / std_j, formed once per design: the bracket
        bounds ||X_j|| / n, and each sum, this one and the streamed product
        of ``solvers.design_corr``, rounds by about (n + 5) eps of it per
        unit ||v||, with the standardization. Zero-variance columns are
        exactly 0, with weight 0.
        """
        n = self.base.shape[0]
        if self._corr_err is None:
            self._corr_err = self._error_weights(self._square_sums())
        corr = self._gram_terms(self.base.T @ v / n, (self.base * v[:, None]).T @ self.base / n)
        corr -= self.col_mean * (v.sum() / n)
        divisor, zero = self._scale()
        corr /= divisor
        corr[zero] = 0.0
        return corr, self._corr_err

    def _scale(self) -> tuple[np.ndarray, np.ndarray]:
        """col_std with 1 at its zeros, and the indices of those zeros."""
        if self._scaling is None:
            std = self.col_std
            self._scaling = np.where(std > 0, std, 1.0), np.flatnonzero(std == 0)
        return self._scaling

    def predict(self, beta: np.ndarray) -> np.ndarray:
        """X @ beta, summed over the nonzero coordinates of beta in index order."""
        nonzero = np.flatnonzero(beta)
        out = np.zeros(self.base.shape[0])
        for weight, row in zip(beta[nonzero], self.rows(nonzero)):
            out += weight * row
        return out

    def take_rows(self, idx: np.ndarray) -> "ExpandedDesign":
        """Row subset sharing the training expansion moments."""
        return ExpandedDesign(self.base[idx], self.col_mean, self.col_std, self._cross,
                              self._scale())
