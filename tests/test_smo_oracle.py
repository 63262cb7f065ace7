"""``train_svm_smo`` against the alpha-form SMO loop it replaced, and
``_rbf_matrix`` against the two-array kernel it replaced (``_smo_oracle``):
equal bit for bit on every fit and every kernel entry. Both run here, on
this machine's BLAS, so nothing is compared against a stored digest."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _smo_oracle as oracle
from biasaudit.svm import _BLOCK_ROWS, _rbf_matrix, train_svm_smo


def _blobs(rng):
    x = np.vstack([rng.normal(1.0, 0.6, (20, 4)), rng.normal(-1.0, 0.6, (20, 4))])
    return x, np.repeat([1.0, -1.0], 20)


def _integer_grid(rng):
    # few distinct rows, so exact duplicates carry both labels
    x = rng.integers(0, 3, (40, 2)).astype(float)
    return x, np.where(rng.random(40) < 0.5, 1.0, -1.0)


def _unbalanced(rng):
    x = np.vstack([rng.normal(0.5, 1.0, (3, 3)), rng.normal(0.0, 1.0, (40, 3))])
    return x, np.repeat([1.0, -1.0], [3, 40])


def _overlapping(rng):
    x = np.vstack([rng.normal(0.2, 1.0, (20, 3)), rng.normal(-0.2, 1.0, (20, 3))])
    return x, np.repeat([-1.0, 1.0], 20)


DATA = {f.__name__.strip("_"): f for f in (_blobs, _integer_grid, _unbalanced, _overlapping)}


def _fit(train, x, y, c, tol, max_passes):
    m = train(x, y, c=c, tol=tol, max_passes=max_passes)
    return (
        repr(m.bias),
        m.passes,
        m.converged,
        m.alphas.tobytes(),
        m.support_vectors.tobytes(),
    )


@pytest.mark.parametrize("tol, max_passes", [(1e-3, 200), (1e-9, 2)])
@pytest.mark.parametrize("c", [0.05, 1.0, np.inf])
@pytest.mark.parametrize("data", sorted(DATA))
def test_fit_matches_the_alpha_form_bit_for_bit(data, c, tol, max_passes):
    x, y = DATA[data](np.random.default_rng(11))
    mine = _fit(train_svm_smo, x, y, c, tol, max_passes)
    assert mine == _fit(oracle.train_svm_smo, x, y, c, tol, max_passes)


@st.composite
def _problems(draw):
    """A random training set: n rows of d features drawn, with repeats, from
    a few distinct rows of small integers or floats; both labels present,
    and rows 0 and 1 the same point with opposite labels."""
    n, d = draw(st.integers(4, 40)), draw(st.integers(1, 4))
    value = st.one_of(st.integers(-2, 2).map(float), st.floats(-3.0, 3.0, width=32))
    distinct = draw(hnp.arrays(float, (draw(st.integers(2, n)), d), elements=value))
    rows = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    rows[1] = rows[0]
    y = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    y[:2] = 1.0, -1.0
    return distinct[rows], y


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    _problems(),
    st.sampled_from([0.05, 1.0, 10.0, np.inf]),
    st.sampled_from([1e-3, 1e-9]),
    st.sampled_from([1, 2, 200]),
)
def test_random_problems_match_the_alpha_form_bit_for_bit(problem, c, tol, max_passes):
    # the boxes' bounds are reached and left in orders the fixed cases above
    # meet only by chance
    x, y = problem
    mine = _fit(train_svm_smo, x, y, c, tol, max_passes)
    assert mine == _fit(oracle.train_svm_smo, x, y, c, tol, max_passes)


# below, at and above one block of rows, and over several blocks with a
# partial last one
@pytest.mark.parametrize("n", [1, 5, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7])
@pytest.mark.parametrize("shape", ["gram", "cross"])
def test_kernel_matches_the_two_array_build_bit_for_bit(n, shape):
    rng = np.random.default_rng(n)
    for d, scale, gamma in [(1, 0.01, 3.0), (4, 1.0, 0.25), (16, 10.0, 1e-3)]:
        x = rng.normal(0.0, scale, (n, d))
        x[: n // 3] = np.round(x[: n // 3], 1)  # repeated rows give exact zeros
        # the fit's Gram matrix, or a test fold against support vectors
        z = x if shape == "gram" else rng.normal(0.0, scale, (int(rng.integers(1, 150)), d))
        mine = _rbf_matrix(x, z, gamma)
        assert mine.shape == (n, len(z))
        assert mine.tobytes() == oracle.rbf_matrix(x, z, gamma).tobytes()
