"""The sorted-array sweep, regions and rank statistics against the
per-threshold and tie-walking code they replaced (``_sweep_rank_oracle``):
equal bit for bit, compared through ``repr``, not within a tolerance."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _sweep_rank_oracle as oracle
from biasaudit.data import GroupPair
from biasaudit.errors import ParameterError
from biasaudit.stats import MWU_EXACT_LIMIT, MwuMode, mann_whitney_u
from biasaudit.svm import auc_from_scores
from biasaudit.thresholds import BiasCurve, bias_sweep, significant_regions

SIZES = st.integers(1, 400)
VALUES = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)
CONTINUOUS = SIZES.flatmap(lambda n: st.lists(VALUES, min_size=n, max_size=n))


def _tied(k):
    # few distinct values, so nearly every point sits in a long tie run
    return SIZES.flatmap(
        lambda n: hnp.arrays(np.int64, n, elements=st.integers(0, k)).map(
            lambda x: x.astype(float).tolist()
        )
    )


def _single(value):
    return SIZES.map(lambda n: [value] * n)


PAIRS = {
    "continuous": st.tuples(CONTINUOUS, CONTINUOUS),
    "tied": st.integers(1, 6).flatmap(lambda k: st.tuples(_tied(k), _tied(k))),
    # one value per group, the same one or two different ones
    "single": st.tuples(st.sampled_from([0.5, 2.0]), st.sampled_from([0.5, 2.0])).flatmap(
        lambda vw: st.tuples(_single(vw[0]), _single(vw[1]))
    ),
}
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
kinds = pytest.mark.parametrize("kind", sorted(PAIRS))


def _curve(c):
    if isinstance(c, oracle.BiasCurve):
        return repr((c.pair, c.grid, c.p_values, c.alpha, c.directions))
    names = {1: c.pair.a, -1: c.pair.b, 0: None}
    directions = tuple(names[s] for s in c.signs.tolist())
    return repr((c.pair, tuple(c.grid.tolist()), tuple(c.p_values.tolist()), c.alpha, directions))


def _sweep_or_error(sweep, a, b):
    try:
        return _curve(sweep(a, b))
    except ParameterError as exc:
        return f"ParameterError: {exc}"


@PROPERTY
@kinds
@given(data=st.data())
def test_sweep_default_grid(kind, data):
    a, b = data.draw(PAIRS[kind])
    assert _sweep_or_error(bias_sweep, a, b) == _sweep_or_error(oracle.bias_sweep, a, b)


@PROPERTY
@kinds
@given(data=st.data())
def test_mann_whitney(kind, data):
    a, b = data.draw(PAIRS[kind])
    modes = [MwuMode.AUTO, MwuMode.NORMAL_APPROX]
    if len(a) + len(b) <= MWU_EXACT_LIMIT:
        modes.append(MwuMode.EXACT)
    for mode in modes:
        assert repr(mann_whitney_u(a, b, mode)) == repr(oracle.mann_whitney_u(a, b, mode))


@PROPERTY
@kinds
@given(data=st.data())
def test_auc(kind, data):
    pos, neg = data.draw(PAIRS[kind])
    assert repr(auc_from_scores(pos, neg)) == repr(oracle.auc_from_scores(pos, neg))


@PROPERTY
@kinds
@given(data=st.data())
def test_sweep_relabel_symmetry(kind, data):
    # swapping the groups keeps every p-value and swaps every direction
    a, b = data.draw(PAIRS[kind])
    try:
        ab = bias_sweep(a, b)
    except ParameterError:
        with pytest.raises(ParameterError):
            bias_sweep(b, a)
        return
    ba = bias_sweep(b, a)
    # equal values; of 0.0 and -0.0 the grid keeps whichever comes first
    assert ba.grid.tolist() == ab.grid.tolist()
    assert repr(ba.p_values.tolist()) == repr(ab.p_values.tolist())
    assert ba.signs.tolist() == (-ab.signs).tolist()


def _regions_both(p, alpha, a_worse):
    # a tie (sign 0) is exactly the p = 1 case
    signs = [0 if v == 1.0 else (1 if w else -1) for v, w in zip(p, a_worse)]
    grid = [0.5 * i for i in range(len(p))]
    pair = GroupPair("east", "west")
    names = {1: pair.a, -1: pair.b, 0: None}
    old = oracle.BiasCurve(pair, tuple(grid), tuple(p), alpha, tuple(names[s] for s in signs))
    new = BiasCurve(pair, grid, p, alpha, signs)
    return repr(significant_regions(new)), repr(oracle.significant_regions(old))


ALTERNATING = [True, False] * 30


@PROPERTY
@given(
    alpha=st.sampled_from([0.05, 0.01, 0.5]),
    # fixed values, so that minima tie and p lands exactly on alpha, mixed
    # with arbitrary ones
    p=st.lists(
        st.sampled_from([0.0, 1e-300, 0.001, 0.01, 0.05, 0.5, 1.0]) | st.floats(0.0, 1.0),
        min_size=1,
        max_size=60,
    ),
    a_worse=st.lists(st.booleans(), min_size=60, max_size=60),
)
@example(alpha=0.05, p=[0.01, 0.01, 0.2, 0.01], a_worse=ALTERNATING)  # tied minima, both ends
@example(alpha=0.05, p=[0.05, 0.04, 0.05], a_worse=ALTERNATING)  # p = alpha is not significant
@example(alpha=0.05, p=[0.01] * 5, a_worse=ALTERNATING)  # all significant
@example(alpha=0.05, p=[0.5] * 5, a_worse=ALTERNATING)  # none
def test_regions(alpha, p, a_worse):
    new, old = _regions_both(p, alpha, a_worse)
    assert new == old
