"""OLS and ridge closed forms, and the Lasso by homotopy.

Lambda convention: the criterion is mean-square loss (1/n)||Y - X b||^2 plus
lambda * ||b||_1, so the coordinate soft-threshold is lambda/2 ("eq7-halflambda").
Reported lambda values live in this convention, not the common one with
threshold lambda.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lapack, solve_triangular

LAMBDA_CONVENTION = "eq7-halflambda"
COND_WARN_THRESHOLD = 1e12
TOL = 1e-7
KKT_TOL_FACTOR = 10.0  # certificate tolerance, in units of tol
MAX_SWEEPS = 10_000  # the kinks a homotopy may pass


class SolverError(Exception):
    pass


class SingularDesignError(SolverError):
    """X'X (+ n*lambda*I) is not positive definite. ``pivot`` is the
    Cholesky pivot that failed, or None when an eigenvalue showed it."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


@dataclass
class LassoConfig:
    lam: float
    tol: float = TOL
    max_sweeps: int = MAX_SWEEPS

    def __post_init__(self):
        if not math.isfinite(self.lam) or self.lam < 0:
            raise SolverError(f"lambda must be finite and >= 0, got {self.lam!r}")
        if not math.isfinite(self.tol) or self.tol <= 0 or self.max_sweeps < 1:
            raise SolverError("tol must be finite and > 0, and max_sweeps >= 1")

    @property
    def kkt_tol(self) -> float:
        return KKT_TOL_FACTOR * self.tol


@dataclass
class ModelFit:
    method: str
    lam: float
    beta0: float
    beta: np.ndarray
    sweeps_used: int = 0
    converged: bool = True
    kkt_zero_violation: float | None = None
    kkt_active_violation: float | None = None
    gap: float | None = None  # relative duality gap (Lasso fits)

    @property
    def active_set(self) -> np.ndarray:
        return np.flatnonzero(self.beta)


# --- designs: shape, block, rows, take_rows, predict and screen ---
# DenseDesign holds its columns; expansion.ExpandedDesign generates them.
# screen(v) gives (c, w), c_j approximating X_j'v/n. The weights w depend on
# the design alone, and w_j >= rounding_unit(n) ||X_j|| / n; half of ||v|| w_j
# bounds the distance of c_j, and of design_corr's X_j'v/n, from the exact
# product, so ||v|| w_j bounds |c_j - design_corr(v)_j|.

# Columns formed at a time by _exact_corr. The width moves no bits, as each
# column is summed along its own row; it bounds the memory of a batch.
_BATCH = 2048


def rounding_unit(n: int) -> float:
    """4 (n + 10) eps. X_j'v/n formed as an n-term sum rounds by at most
    (n + 10) eps ||X_j|| ||v|| / n, so a design's screen weights are at
    least this times ||X_j|| / n."""
    return 4 * (n + 10) * np.finfo(float).eps


class DenseDesign:
    """A stored (n, p) design matrix X."""

    def __init__(self, X: np.ndarray):
        self.X = np.asarray(X, dtype=float)
        self.shape = self.X.shape
        self._corr_err = None  # screen's weights, formed on first use

    def block(self, j0: int, j1: int) -> np.ndarray:
        """Columns [j0, j1) as an (n, j1-j0) view."""
        return self.X[:, j0:j1]

    def rows(self, idx) -> np.ndarray:
        """The columns ``idx`` as the rows of a C-ordered (len(idx), n) array."""
        return self.X.T[idx]

    def take_rows(self, idx: np.ndarray) -> "DenseDesign":
        return DenseDesign(self.X[idx])

    def predict(self, beta: np.ndarray) -> np.ndarray:
        return self.X @ beta

    def screen(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(X'v/n, w): one product, w_j = rounding_unit(n) ||X_j|| / n."""
        n = self.shape[0]
        if self._corr_err is None:
            self._corr_err = np.linalg.norm(self.X, axis=0) * (rounding_unit(n) / n)
        return self.X.T @ v / n, self._corr_err


def design_block(design, j0: int, j1: int) -> np.ndarray:
    """Columns [j0, j1) of the design. No solver reads it: it stays as the
    layer boundary whose calls the benchmark counts."""
    return design.block(j0, j1)


def design_corr(design, v: np.ndarray) -> np.ndarray:
    """X_j'v / n for every column, each as _exact_corr forms it."""
    return _exact_corr(design, np.arange(design.shape[1]), [v])[0]


# --- closed-form solvers ---

def _warn_if_ill_conditioned(cond: float, stacklevel: int) -> None:
    """Warn when the condition number passes COND_WARN_THRESHOLD, naming the
    line ``stacklevel`` frames above the function that calls this one."""
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"ill-conditioned normal equations (condition {cond:.3e})",
            RuntimeWarning,
            stacklevel=stacklevel + 1,
        )


def _spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via Cholesky.

    Raises SingularDesignError naming the failing pivot; no pseudo-inverse
    fallback. The ill-conditioning warning (from dpocon's 1-norm estimate)
    names the line that called fit_ridge or fit_ols, three frames up through
    ``_ridge_solve``.
    """
    factor, info = lapack.dpotrf(A, lower=1)
    if info != 0:
        raise SingularDesignError(
            f"X'X is rank deficient: Cholesky failed at pivot {info} "
            "(leading minor not positive definite)",
            pivot=int(info),
        )
    anorm = float(np.abs(A).sum(axis=0).max())
    rcond, _ = lapack.dpocon(factor, anorm, uplo=b"L")
    _warn_if_ill_conditioned(np.inf if rcond == 0 else 1.0 / float(rcond), stacklevel=4)
    x, _ = lapack.dpotrs(factor, b[:, None], lower=1)
    return x[:, 0]


def _center(y: np.ndarray, fit_intercept: bool) -> tuple[np.ndarray, float]:
    if fit_intercept:
        beta0 = float(y.mean())
        return y - beta0, beta0
    return y, 0.0


def fit_ols(design, y: np.ndarray, fit_intercept: bool = True) -> ModelFit:
    """Normal-equation solution, the lambda=0 ridge solve; intercept is the
    response mean."""
    return _ridge_solve(design, y, 0.0, fit_intercept, "ols")


def fit_ridge(design, y: np.ndarray, lam: float, fit_intercept: bool = True) -> ModelFit:
    """beta = (X'X + n*lambda*I)^-1 X'y, the n-scaled penalty as printed:
    one Cholesky solve."""
    return _ridge_solve(design, y, lam, fit_intercept, "ridge")


def _ridge_solve(design, y, lam, fit_intercept, method) -> ModelFit:
    # Shared by fit_ridge and fit_ols, so a warning from _spd_solve is the
    # same number of frames below each one's caller.
    lam = float(lam)
    if not 0.0 <= lam < math.inf:
        raise SolverError(f"lambda must be finite and >= 0, got {lam!r}")
    yc, beta0 = _center(y, fit_intercept)
    X = design.block(0, design.shape[1])
    A = X.T @ X
    # the penalty written into the diagonal in place: a second p x p matrix
    # would raise peak memory by that much
    np.fill_diagonal(A, A.diagonal() + X.shape[0] * lam)
    return ModelFit(method, lam, beta0, _spd_solve(A, X.T @ yc))


def ridge_path(design, y: np.ndarray, grid, fit_intercept: bool = True) -> list[ModelFit]:
    """fit_ridge at each lambda > 0 of the grid, from one Householder
    tridiagonalization Q'X'XQ = T per call (Golub & Van Loan, Matrix
    Computations, 8.3.1): beta = Q w, where (T + n*lambda*I) w = Q'X'y is
    one tridiagonal solve per distinct lambda (the ridge solution of ESL
    3.4.1, there written through the SVD of X). lambda = 0 is fit_ols.

    The eigenvalues d of T (dsterf, no eigenvectors) give s = d + n*lambda.
    Warns, naming the caller's line, when the exact 2-norm condition
    max(s) / min(s) passes COND_WARN_THRESHOLD. Raises SingularDesignError
    when min(s) <= 0, which rounding in d can give at a tiny lambda on a
    rank-deficient design, or when the tridiagonal solve finds
    T + n*lambda*I not positive definite.
    """
    grid = [float(lam) for lam in grid]
    if not all(0.0 < lam < math.inf for lam in grid):
        raise SolverError("ridge_path takes finite lambda > 0; lambda = 0 is fit_ols")
    yc, beta0 = _center(y, fit_intercept)
    X = design.block(0, design.shape[1])
    n, p = X.shape
    b = X.T @ yc
    # X'X is symmetric, so its transpose is X'X in the column order LAPACK
    # reads and is reduced in place: T's diagonal t and off-diagonal e, and
    # Q's reflectors below e. With the queried workspace dsytrd blocks its
    # updates; with the default (p) it took 1.8 times as long at p = 938
    # (one BLAS thread).
    lwork = int(lapack.dsytrd_lwork(p, lower=1)[0])
    H, t, e, tau, _ = lapack.dsytrd((X.T @ X).T, lower=1, lwork=lwork, overwrite_a=1)
    d, info = lapack.dsterf(t, e) if p > 1 else (t, 0)  # ascending
    if info > 0:
        raise SolverError(f"the eigenvalues of X'X did not converge (dsterf info {info})")
    # one solve per distinct lambda, so equal lambdas give equal bits
    # wherever they sit in the grid
    lams, at = np.unique(grid, return_inverse=True)
    at = at.tolist()
    for lam, i in zip(grid, at):
        s_min, s_max = d[0] + n * lams[i], d[-1] + n * lams[i]
        if not s_min > 0:
            raise SingularDesignError(
                f"X'X + n*lambda*I is not positive definite at lambda={lam!r}: "
                f"smallest eigenvalue {s_min:.3e}"
            )
        _warn_if_ill_conditioned(s_max / s_min, stacklevel=2)
    if p == 1:  # T = X'X and Q = I; scipy's dsterf and dptsv reject an empty e
        return [ModelFit("ridge", lam, beta0, b / (t + n * lam)) for lam in grid]
    # Q keeps row 0 and its reflectors, H[i+2:, i], act on rows 1:. They are
    # read in place, with no p x p copy: V is H's buffer from H[1, 0] on, as
    # a (p, p-1) column-major block whose first p-1 rows are H[1:, :-1];
    # dormqr reads no further row. It is given its minimum workspace: at
    # these widths its unblocked products are as fast.
    V = H.T.reshape(-1)[1 : 1 + p * (p - 1)].reshape(p - 1, p).T
    z = b.copy()
    z[1:] = lapack.dormqr(b"L", b"T", V, tau, b[1:, None], 1)[0][:, 0]
    W = np.empty((p, lams.size), order="F")
    for j, lam in enumerate(lams.tolist()):
        *_, w, info = lapack.dptsv(t + n * lam, e, z[:, None])
        if info > 0:
            raise SingularDesignError(
                f"X'X + n*lambda*I is not positive definite at lambda={lam!r}: "
                f"the tridiagonal solve failed at row {info} "
                f"(smallest eigenvalue {d[0] + n * lam:.3e})"
            )
        W[:, j] = w[:, 0]
    W[1:] = lapack.dormqr(b"L", b"N", V, tau, W[1:], lams.size)[0]
    return [ModelFit("ridge", lam, beta0, W[:, i]) for lam, i in zip(grid, at)]


# --- Lasso: the homotopy path ---

# A joining column whose squared distance from the span of the active columns
# is at most this share of its squared norm lies in that span and stays out.
_SPAN_TOL = 1e-10
# Lower join bounds are formed this many columns at a time, in four
# preallocated slices that stay in cache (8,192 and 32,768 were slower).
_WIDTH = 1 << 14
# Upper join bounds are first taken at this many columns, those with the
# smallest lower bounds.
_NEAR = 64
# X'r/n is carried from kink to kink, and screened afresh once its error
# bound passes this many times the bound of a fresh screen.
_REFRESH = 16.0


def _exact_corr(design, idx: np.ndarray, vectors) -> np.ndarray:
    """X_j'v/n at the columns ``idx`` for each of ``vectors``: the n
    products of column j summed along its own row (numpy's pairwise sum),
    so its bits do not depend on the columns formed beside it. The columns
    are formed _BATCH at a time."""
    n = design.shape[0]
    out = np.empty((len(vectors), len(idx)))
    for s in range(0, len(idx), _BATCH):
        rows = design.rows(idx[s : s + _BATCH])
        for row, v in zip(out, vectors):
            row[s : s + _BATCH] = (rows * v).sum(axis=1) / n
    return out


def corr_abs_max(design, v: np.ndarray, exclude=None, screen=None) -> float:
    """max |X_j'v/n| over the columns not in ``exclude`` (0 if there are
    none), bitwise as design_corr gives it.

    One design.screen pass, or ``screen``, that pass already made, left
    unmodified; every column whose screened |c_j| + ||v|| w_j reaches the
    largest |c_j| - ||v|| w_j is recomputed with _exact_corr, and the true
    maximizer is always among them.
    """
    c, w = design.screen(v) if screen is None else screen
    err = float(np.linalg.norm(v)) * w
    hi = np.abs(c)
    lo = hi - err
    hi += err
    if exclude is not None:
        lo[exclude] = hi[exclude] = -np.inf
    top = np.flatnonzero(hi >= lo.max(initial=0.0))
    return float(np.abs(_exact_corr(design, top, [v])).max(initial=0.0))


def _lower_bounds(h, c, a, c_scale, a_scale, w, out, buf):
    """A lower bound, into ``out``, on the step t >= 0 at which |c_j - t a_j|
    first reaches h - t, for c and a known to within c_scale w_j and
    a_scale w_j (w >= 0): the least over the sides s = +-1 whose divisor
    is > 0 of max(h - s c_j - c_scale w_j, 0) / (1 - s a_j + a_scale w_j),
    inf where neither is. With both scales negated it is an upper bound,
    and with both 0 the exact step.

    One pass through the (4, width) ``buf``, both signs at once. A side
    whose divisor is <= 0 divides by +0 instead, to inf, or NaN where its
    numerator is 0, and fmin takes the other side; both sides fail only
    where a_scale < 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(0, c.size, buf.shape[1]):
            sl = slice(s, s + buf.shape[1])
            ce, ae, num, bot = buf[:, : out[sl].size]
            np.multiply(w[sl], c_scale, out=ce)
            np.multiply(w[sl], a_scale, out=ae)
            # the sides c_j - t a_j = h - t, then = t - h: (h -+ c) over (1 -+ a)
            for op, q in ((np.subtract, out[sl]), (np.add, num)):
                np.subtract(op(h, c[sl], out=num), ce, out=num)
                np.maximum(num, 0.0, out=num)
                np.add(op(1.0, a[sl], out=bot), ae, out=bot)
                np.divide(num, np.maximum(bot, 0.0, out=bot), out=q)
            np.fmin(out[sl], num, out=out[sl])
        if a_scale < 0:
            np.fmin(out, np.inf, out=out)
    return out


def _pick(lo, near, kth, thr):
    """The columns with lo <= thr < inf in index order; lo >= kth outside near."""
    if thr < kth:
        return np.sort(near[lo[near] <= thr])
    return np.flatnonzero((lo <= thr) & (lo < np.inf))


def _carry(c, a, t, r, u, e, u_norm, unit, out=None):
    """X'r/n carried a step t along the segment: c - t a, written into
    ``out`` (which may be a), the residual rho = r - t u, and e' with
    |(c - t a)_j - X_j'rho/n| <= e' w_j, given |c_j - X_j'r/n| <= e w_j
    and a, the screen of u (norm u_norm). e' adds a's error, t ||u|| w_j
    / 2, and the rounding of both subtractions: with ||X_j|| / n <= w_j /
    unit, at most eps (2 (||rho|| + t ||u||) / unit + e + t ||u||) w_j,
    twice a first-order bound."""
    rho = r - t * u
    tu = t * u_norm
    eps = np.finfo(float).eps
    e += tu / 2 + eps * (2 * (float(np.linalg.norm(rho)) + tu) / unit + e + tu)
    out = np.multiply(a, t, out=out)
    return np.subtract(c, out, out=out), rho, e


def _homotopy(design, yc: np.ndarray, lams: list[float], max_kinks: int):
    """The Lasso path down from lambda_max: LARS with the Lasso modification.

    Along a segment the active correlations stay at +-h, h = lambda/2, and
    beta_A(h) = b - h d, where G_A [d, b] = [s_A, X_A'y/n], G_A = X_A'X_A/n.
    It ends where an inactive |c_j| reaches h (a join) or a beta_k reaches
    zero (a drop). Each segment screens a = X'X_A d/n once (design.screen),
    with an active column. The correlations c = X'r/n are screened at the
    opening segment, r = y, which gives lambda_max / 2; after that they are
    carried, c - t a at a step t as LARS carries them, with a bound e w_j
    on their distance from X'r/n that grows by t ||u|| w / 2, the
    rounding, and ||X_j|| / n times the distance of the fresh residual from
    the carried one. A segment whose carried bound passes _REFRESH times a
    fresh screen's, ||r|| w, screens r again. Every column whose join step
    may lie within the bound of the minimum is recomputed exactly
    (_exact_corr) before the decision, so a streamed design and a
    DenseDesign of its columns pass the same kinks, whichever segments
    screen afresh. Lower join bounds are taken for every column in one
    fused pass (_lower_bounds), upper ones only at the near set: the _NEAR
    smallest lower bounds (more while none is finite) and the column just
    dropped; below the k-th smallest lower bound the candidates come from
    the near set alone (_pick). A column that just joined may not drop at
    the next kink, one that just dropped may rejoin there only with the
    other sign, and a joining column in the span of the active set stays
    out until a drop. X_A is kept as rows, one appended at a join and
    deleted at a drop.

    Yields (beta, r, kinks since the previous yield, X'r/n carried to the
    lambda, err) at each lambda of the descending ``lams``: every entry of
    that vector is within err of design_corr(r). If more than
    ``max_kinks`` kinks would be needed, yields (beta, r, kinks, None, None)
    at the last one allowed and stops.
    """
    n, p = design.shape
    unit = rounding_unit(n)
    active, signs, blocked, joined, dropped = [], [], set(), -1, -1
    XT = design.rows([])
    lo, buf = np.empty(p), np.empty((4, min(p, _WIDTH)))  # reused at every kink
    h, kinks, total = 0.0, 0, 0  # h is set from the opening segment's screen
    lams = iter(lams)
    lam = next(lams, None)
    while lam is not None:
        d = b = np.zeros(0)
        if active:
            factor = cho_factor(XT @ XT.T / n, lower=True)
            d, b = cho_solve(factor, np.stack([signs, XT @ yc / n], axis=1)).T
        r, u = yc - XT.T @ (b - h * d), XT.T @ d
        r_norm, u_norm = float(np.linalg.norm(r)), float(np.linalg.norm(u))
        if total:  # c is carried: X'(r - rho)/n is within ||r - rho|| w_j / unit of 0
            e += float(np.linalg.norm(r - rho)) / unit
        if not total or e + r_norm / 2 > _REFRESH * r_norm:
            c, w = design.screen(r)
            e, w_max = r_norm / 2, float(w.max(initial=0.0))
        if not total:  # r = y: lambda_max / 2, as make_lambda_grid takes it
            h = corr_abs_max(design, r, screen=(c, w))
        a = design.screen(u)[0] if active else np.zeros(p)  # u = 0 with no active column
        c_err = e + r_norm / 2  # |c_j - design_corr(r)_j| <= c_err w_j
        _lower_bounds(h, c, a, c_err, u_norm, w, lo, buf)
        lo[active + sorted(blocked)] = np.inf
        if dropped >= 0:  # it left at +-h on its own side: only the other side takes it back
            (c_k,), (a_k,) = dropped_sign * _exact_corr(design, np.array([dropped]), (r, u))
            lo[dropped] = max(h + c_k, 0.0) / (1.0 + a_k) if a_k > -1.0 else np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            drop = -(b - h * d) / d
        drop[~(drop > 0) | (np.array(active) == joined)] = np.inf
        t_drop = float(drop.min(initial=np.inf))

        # Upper bounds only at the near set, the k smallest lower bounds
        # and the dropped column: their minimum still bounds the least join
        # step from above, so the candidates include every column that
        # could attain it.
        k, hi = 0, np.zeros(0)
        while True:  # the next join; a column in the span is blocked and the pick repeated
            while k < p and not hi.min(initial=np.inf) < np.inf:  # no finite upper bound yet: widen
                k = min(max(4 * k, _NEAR), p)
                near = np.argpartition(lo, k - 1)[:k]
                kth, near = lo[near[-1]], near[(lo[near] < np.inf) & (near != dropped)]
                hi = _lower_bounds(h, c[near], a[near], -c_err, -u_norm, w[near],
                                   np.empty(near.size), buf)
                if dropped >= 0:  # its step is exact, and only the other side counts
                    near, hi = np.append(near, dropped), np.append(hi, lo[dropped])
            idx = _pick(lo, near, kth, min(float(hi.min(initial=np.inf)), t_drop))
            ce, ae = _exact_corr(design, idx, (r, u))
            steps = _lower_bounds(h, ce, ae, 0.0, 0.0, w[idx], np.empty(idx.size), buf)
            steps[idx == dropped] = lo[dropped]
            i = int(np.argmin(steps)) if idx.size else -1
            t_join = float(steps[i]) if idx.size else np.inf
            if t_join >= t_drop:
                break
            x = design.rows(idx[i : i + 1])[0]
            g = solve_triangular(factor[0], XT @ x / n, lower=True) if active else d
            if float(x @ x - n * (g @ g)) > _SPAN_TOL * float(x @ x):
                break
            blocked.add(int(idx[i]))
            lo[idx[i]], hi[near == idx[i]] = np.inf, np.inf
        t = min(t_join, t_drop)

        while lam is not None and h - lam / 2 <= t:
            beta = np.zeros(p)
            beta[active] = b - lam / 2 * d
            r_lam = yc - XT.T @ beta[active]
            corr, rho_lam, e_lam = _carry(c, a, h - lam / 2, r, u, e, u_norm, unit)
            # from X'rho/n to X'r_lam/n, then to design_corr(r_lam)
            e_lam += float(np.linalg.norm(r_lam - rho_lam)) / unit + float(np.linalg.norm(r_lam)) / 2
            yield beta, r_lam, kinks, corr, e_lam * w_max
            kinks, lam = 0, next(lams, None)
        if lam is not None and total == max_kinks:
            beta = np.zeros(p)
            beta[active] = b - h * d
            if joined >= 0:  # zero at its kink; b - h d leaves a rounding residue there
                beta[joined] = 0.0
            yield beta, r, kinks, None, None
        if lam is None or total == max_kinks:
            return
        h -= t
        c, rho, e = _carry(c, a, t, r, u, e, u_norm, unit, out=a)
        if t_join < t_drop:
            joined, dropped = int(idx[i]), -1
            active.append(joined)
            signs.append(float(np.copysign(1.0, ce[i] - t * ae[i])))
            XT = np.vstack([XT, x])
        else:
            k = int(np.argmin(drop))
            joined, dropped, dropped_sign = -1, active.pop(k), signs.pop(k)
            XT = np.delete(XT, k, axis=0)
            blocked.clear()
        kinks += 1
        total += 1


def _certified(lam, beta0, beta, r, yc, active_corr, zero_max, kinks, kkt_tol, err=0.0) -> ModelFit:
    """The fit with its certificate, read from ``active_corr``, X_j'r/n at
    the nonzero coordinates of beta in index order, and ``zero_max``, the
    largest |X_j'r/n| over its zero coordinates (0 if there are none), both
    within ``err`` of design_corr's.

    KKT: zero_max - lam/2, floored at 0, and the max over active coordinates
    of |X_j'r/n - (lam/2) sign(beta_j)|; each is within err of the full
    pass's, and the fit has converged when both are within kkt_tol - err.
    Relative duality gap: (P - D) / (y'y/n), P the criterion at beta and D
    the dual objective at r scaled to s = min(1, (lam/2) / max|X'r/n|), the
    largest feasible multiple: D = (2 s r'y - s^2 r'r) / n.
    """
    n, half_lam = r.size, lam / 2.0
    signs = np.sign(beta[beta != 0])
    active_v = float(np.abs(active_corr - half_lam * signs).max(initial=0.0))
    corr_max = max(zero_max, float(np.abs(active_corr).max(initial=0.0)))
    zero_v = max(zero_max - half_lam, 0.0)
    s = 1.0 if corr_max <= half_lam else half_lam / corr_max
    rr, null = float(r @ r), float(yc @ yc)
    primal = rr + n * lam * float(np.abs(beta).sum())
    gap = (primal - (2.0 * s * float(r @ yc) - s * s * rr)) / null if null > 0 else 0.0
    converged = max(zero_v, active_v) + err <= kkt_tol
    return ModelFit("lasso", lam, beta0, beta, kinks, converged, zero_v, active_v, gap)


def _exact_terms(design, beta, r) -> tuple[np.ndarray, float]:
    """_certified's (active_corr, zero_max) for beta and its residual r,
    bitwise as one design_corr pass gives them, from one design.screen
    pass."""
    active = np.flatnonzero(beta)
    return _exact_corr(design, active, [r])[0], corr_abs_max(design, r, active)


def fit_lasso(design, y: np.ndarray, config: LassoConfig) -> ModelFit:
    """The Lasso at config.lam: the one-point path, certified exactly from
    its residual (_exact_terms)."""
    yc, beta0 = _center(np.asarray(y, dtype=float), True)
    beta, r, kinks, *_ = next(_homotopy(design, yc, [config.lam], config.max_sweeps))
    terms = _exact_terms(design, beta, r)
    return _certified(config.lam, beta0, beta, r, yc, *terms, kinks, config.kkt_tol)


def lasso_path(
    design,
    y: np.ndarray,
    grid: np.ndarray,
    tol: float = TOL,
    max_sweeps: int = MAX_SWEEPS,
) -> Iterator[ModelFit]:
    """Fits along a descending lambda grid from one homotopy, yielded as the
    path reaches each lambda; the grid is validated before this returns.

    Each fit is one solve on the active columns at its lambda, certified
    from the homotopy's X'r/n carried there, whose bound each fit's
    convergence test allows for. ``sweeps_used`` counts the kinks
    passed since the previous grid point. If the path needs more than
    ``max_sweeps`` kinks, it stops at the last kink allowed: every lambda
    left gets that beta, certified exactly once (_exact_terms), and reports
    converged only if the certificate holds.
    """
    lams = [LassoConfig(float(lam), tol, max_sweeps).lam for lam in grid]  # validated
    if any(b > a for a, b in zip(lams, lams[1:])):
        raise SolverError("the lambda grid must descend")
    yc, beta0 = _center(np.asarray(y, dtype=float), True)
    return _path_fits(design, yc, beta0, lams, KKT_TOL_FACTOR * tol, max_sweeps)


def _path_fits(design, yc, beta0, lams, kkt_tol, max_sweeps) -> Iterator[ModelFit]:
    path = _homotopy(design, yc, lams, max_sweeps)
    beta, r, exact = None, None, None
    for lam in lams:
        beta, r, kinks, corr, err = next(path, (beta, r, 0, None, None))
        if corr is not None:
            active_corr = corr[np.flatnonzero(beta)]
            terms = active_corr, float(np.abs(corr, out=corr).max(where=beta == 0, initial=0.0))
        else:  # out of kinks: every lambda left has this beta, certified once
            exact = exact or _exact_terms(design, beta, r)
            terms, err = exact, 0.0
        yield _certified(lam, beta0, beta, r, yc, *terms, kinks, kkt_tol, err)
