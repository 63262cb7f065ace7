"""The sorted-array sweep and rank statistics against the per-threshold and
tie-walking code they replaced (``_sweep_rank_oracle``): equal bit for bit,
compared through ``repr``, not within a tolerance."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _sweep_rank_oracle as oracle
from biasaudit.errors import ParameterError
from biasaudit.stats import MWU_EXACT_LIMIT, MwuMode, mann_whitney_u
from biasaudit.svm import auc_from_scores
from biasaudit.thresholds import bias_sweep

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
    return repr((c.pair, c.grid, c.p_values, c.alpha, c.directions))


def _sweep_or_error(sweep, a, b, grid=None):
    try:
        return _curve(sweep(a, b, grid=grid))
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
def test_sweep_explicit_grid(kind, data):
    a, b = data.draw(PAIRS[kind])
    # sample values (thresholds on a tie) mixed with arbitrary points
    points = data.draw(st.lists(st.sampled_from(a + b), max_size=30)) + data.draw(
        st.lists(VALUES, max_size=30)
    )
    grid = sorted(set(points))
    assert _sweep_or_error(bias_sweep, a, b, grid) == _sweep_or_error(
        oracle.bias_sweep, a, b, grid
    )


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
    swap = {"a": "b", "b": "a", None: None}
    # equal values; of 0.0 and -0.0 the grid keeps whichever comes first
    assert ba.grid == ab.grid
    assert repr(ba.p_values) == repr(ab.p_values)
    assert ba.directions == tuple(swap[d] for d in ab.directions)

