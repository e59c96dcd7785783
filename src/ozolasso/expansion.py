"""On-the-fly pairwise interaction expansion of a standardized base matrix.

Expanded ordering: base columns 0..p0-1, squares p0..2p0-1 (square of base j at
p0+j), then cross products in lexicographic (j, k), j<k order. Expanded columns
are products of standardized base columns, re-standardized with training-set
moments, and are never materialized as a full matrix unless explicitly asked
for on a small fixture.
"""

from __future__ import annotations

import numpy as np

from .features import FeatureDescriptor


def expansion_size(p0: int) -> int:
    return 2 * p0 + p0 * (p0 - 1) // 2


def cross_pairs(p0: int) -> tuple[np.ndarray, np.ndarray]:
    """Parent indices (j, k), j<k, in lexicographic order."""
    jj, kk = np.triu_indices(p0, k=1)
    return jj.astype(np.int64), kk.astype(np.int64)


class ExpandedDesign:
    """Lazy column access to the quadratic expansion of a base matrix.

    ``col_mean``/``col_std`` are training-set moments over all expanded
    columns; zero-variance expanded columns yield an all-zero standardized
    column (their coordinate can never activate).
    """

    # moment block width; separate from solvers._CD_CHUNK, and changing it moves bits
    CHUNK = 4096

    def __init__(self, base: np.ndarray, col_mean: np.ndarray, col_std: np.ndarray):
        self.base = np.ascontiguousarray(base, dtype=float)
        self.p0 = base.shape[1]
        self.col_mean = col_mean
        self.col_std = col_std
        self._jj, self._kk = cross_pairs(self.p0)

    @classmethod
    def fit(cls, base: np.ndarray) -> "ExpandedDesign":
        """Compute expansion moments on training rows."""
        base = np.ascontiguousarray(base, dtype=float)
        p = expansion_size(base.shape[1])
        design = cls(base, np.zeros(p), np.ones(p))
        mean = np.empty(p)
        std = np.empty(p)
        for j0 in range(0, p, cls.CHUNK):
            j1 = min(j0 + cls.CHUNK, p)
            raw = design._raw_block(j0, j1)
            mean[j0:j1] = raw.mean(axis=0)
            std[j0:j1] = raw.std(axis=0)
        design.col_mean = mean
        design.col_std = std
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
        t = index - 2 * p0
        return int(self._jj[t]), int(self._kk[t])

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

    def _raw_block(self, j0: int, j1: int) -> np.ndarray:
        """Unstandardized columns [j0, j1): products of standardized base."""
        p0 = self.p0
        pieces = []
        a = j0
        if a < p0:
            b = min(j1, p0)
            pieces.append(self.base[:, a:b])
            a = b
        if a < j1 and a < 2 * p0:
            b = min(j1, 2 * p0)
            pieces.append(self.base[:, a - p0 : b - p0] ** 2)
            a = b
        if a < j1:
            t0, t1 = a - 2 * p0, j1 - 2 * p0
            pieces.append(self.base[:, self._jj[t0:t1]] * self.base[:, self._kk[t0:t1]])
        return pieces[0] if len(pieces) == 1 else np.hstack(pieces)

    def block(self, j0: int, j1: int) -> np.ndarray:
        """Standardized columns [j0, j1) as a dense (n, j1-j0) array."""
        raw = np.array(self._raw_block(j0, j1), dtype=float, copy=True)
        mean = self.col_mean[j0:j1]
        std = self.col_std[j0:j1]
        safe = np.where(std > 0, std, 1.0)
        out = (raw - mean) / safe
        out[:, std == 0] = 0.0
        return out

    def column(self, j: int) -> np.ndarray:
        return self.block(j, j + 1)[:, 0]

    def take_rows(self, idx: np.ndarray) -> "ExpandedDesign":
        """Row subset sharing the training expansion moments."""
        return ExpandedDesign(self.base[idx], self.col_mean, self.col_std)

    def for_base(self, base_new: np.ndarray) -> "ExpandedDesign":
        """Same expansion moments applied to new (already standardized) rows."""
        if base_new.shape[1] != self.p0:
            raise ValueError("base width mismatch")
        return ExpandedDesign(base_new, self.col_mean, self.col_std)

    def materialize(self) -> np.ndarray:
        """Full dense expansion; only sensible for small p0 fixtures."""
        n, p = self.shape
        out = np.empty((n, p))
        for j0 in range(0, p, self.CHUNK):
            j1 = min(j0 + self.CHUNK, p)
            out[:, j0:j1] = self.block(j0, j1)
        return out
