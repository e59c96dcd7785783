"""Property test of the homotopy's fused join-step bounds and its pick.

``solvers._lower_bounds`` forms the join-step bounds for every column in
one pass through preallocated slices, dividing by +0 where the two-sign
formula ``_join_steps`` below, its oracle, masks a side out; it must keep
``_join_steps``'s bits on the edges of that masking (a divisor
``1 -+ a + a_err`` exactly 0, ``a = +-1``, zero and negated error scales,
numerators ``h -+ c`` below the error) and for every column count against
the slice width. ``solvers._pick`` takes
the candidates from the near set alone below the k-th smallest lower
bound; it must give the columns of the full mask.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ozolasso import solvers
from ozolasso.solvers import _lower_bounds, _pick


def _join_steps(h, c, a, c_err=0.0, a_err=0.0):
    """A lower bound on the step t >= 0 at which |c_j - t a_j| first reaches
    h - t, for c and a known to within c_err and a_err; inf where it never
    does. With both errors negated it is an upper bound."""
    out = np.full(c.size, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for sign in (1.0, -1.0):
            bot = 1.0 - sign * a + a_err
            np.minimum(out, np.maximum(h - sign * c - c_err, 0.0) / bot, out=out, where=bot > 0)
    return out


SPECIAL = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 1.5, -1.5, 2.0, -2.0, "h", "-h", "normal"])
SCALES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0, 1e-12])


def column_values(rng, choices, h):
    out = np.empty(len(choices))
    for j, v in enumerate(choices):
        out[j] = {"h": h, "-h": -h, "normal": rng.normal()}.get(v, v) if isinstance(v, str) else v
    return out


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.sampled_from([1, 3, 8]),
    p=st.sampled_from([1, 2, 7, 8, 9, 17, 24]),  # below, at and past one or several widths
    h=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    c_scale=SCALES,
    a_scale=SCALES,
    data=st.data(),
)
def test_lower_bounds_keep_the_bits_of_join_steps(seed, width, p, h, c_scale, a_scale, data):
    rng = np.random.default_rng(seed)
    c = column_values(rng, data.draw(st.lists(SPECIAL, min_size=p, max_size=p)), h)
    a = column_values(rng, data.draw(st.lists(SPECIAL, min_size=p, max_size=p)), h)
    w = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e-300]),
                                    min_size=p, max_size=p)))
    out, near = np.full(p, -7.0), rng.permutation(p)[: rng.integers(1, p + 1)]
    with np.errstate(over="ignore"):  # a divisor of 1e-312 overflows, as in _join_steps
        expected = _join_steps(h, c, a, c_scale * w, a_scale * w)
        got = _lower_bounds(h, c, a, c_scale, a_scale, w, out, np.empty((4, min(p, width))))
        # upper bounds at a near set alone
        hi = _join_steps(h, c[near], a[near], -c_scale * w[near], -a_scale * w[near])
        hi_all = _join_steps(h, c, a, -c_scale * w, -a_scale * w)
    assert got is out
    assert got.tobytes() == expected.tobytes()
    assert hi.tobytes() == hi_all[near].tobytes()


def test_lower_bounds_with_a_divisor_of_zero_on_both_sides():
    """a_err = -1 with a = 0 makes 1 - a + a_err and 1 + a + a_err both 0;
    with h = c = 0 both numerators are 0 too, and _join_steps gives inf."""
    c, a, w = np.zeros(3), np.array([0.0, 0.0, 0.25]), np.array([1.0, 2.0, 1.0])
    expected = _join_steps(0.0, c, a, -1.0 * w, -1.0 * w)
    got = _lower_bounds(0.0, c, a, -1.0, -1.0, w, np.empty(3), np.empty((4, 2)))
    assert got.tobytes() == expected.tobytes()
    assert np.isinf(got[:2]).all()


def test_lower_bounds_at_the_homotopy_width():
    """Past one slice of the width the homotopy allocates."""
    rng = np.random.default_rng(3)
    p = solvers._WIDTH + 1_001
    c, a, w = rng.normal(size=p), rng.normal(size=p), rng.uniform(0.0, 1e-3, p)
    a[::97], a[1::89] = 1.0, -1.0
    expected = _join_steps(0.8, c, a, 0.3 * w, 0.7 * w)
    got = _lower_bounds(0.8, c, a, 0.3, 0.7, w, np.empty(p), np.empty((4, solvers._WIDTH)))
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 60),
    levels=st.integers(1, 6),  # few distinct values: ties at the k-th
    k=st.integers(1, 60),
    infs=st.floats(0.0, 1.0),
    dropped=st.booleans(),
    thr=st.sampled_from(["below", "kth", "above", "inf", "level"]),
)
def test_pick_from_the_near_set_is_the_full_mask(seed, p, levels, k, infs, dropped, thr):
    """As the homotopy forms it: the k smallest lower bounds, less the
    infinite ones and the dropped column, which is appended."""
    rng = np.random.default_rng(seed)
    lo = rng.integers(0, levels, p).astype(float) / levels
    lo[rng.random(p) < infs] = np.inf
    k = min(k, p)
    drop = int(rng.integers(p)) if dropped else -1
    near = np.argpartition(lo, k - 1)[:k]
    kth = lo[near[-1]]
    near = near[(lo[near] < np.inf) & (near != drop)]
    if drop >= 0:
        near = np.append(near, drop)
    finite = lo[lo < np.inf]
    t = {
        "below": np.nextafter(kth, -np.inf),
        "kth": kth,
        "above": np.nextafter(kth, np.inf),
        "inf": np.inf,
        "level": rng.choice(finite) if finite.size else 0.0,
    }[thr]
    got = _pick(lo, near, kth, t)
    assert got.tolist() == np.flatnonzero((lo <= t) & (lo < np.inf)).tolist()
