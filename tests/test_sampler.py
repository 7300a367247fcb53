"""The sampler returns only indices with positive probability."""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gridleague.net.policy import _choose

U_TOP = float(np.nextafter(1.0, 0.0))


@st.composite
def masked_rows(draw):
    rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, 40))
    mask = draw(hnp.arrays(bool, (rows, width)))
    mask[np.arange(rows), draw(hnp.arrays(np.int64, rows,
                                          elements=st.integers(0, width - 1)))] = True
    logits = draw(hnp.arrays(np.float64, (rows, width),
                             elements=st.floats(-20, 20, allow_nan=False)))
    u = draw(hnp.arrays(np.float64, rows, elements=st.one_of(
        st.just(U_TOP), st.floats(0, 1, exclude_max=True))))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return mask, logits, u, dtype


def _log_softmax(logits, mask, dtype):
    x = np.where(mask, logits, -1e9).astype(dtype)
    x = x - x.max(axis=1, keepdims=True)
    return x - np.log(np.exp(x).sum(axis=1, keepdims=True))


@settings(max_examples=300, deadline=None)
@given(masked_rows())
@example((np.array([[False, True, True]]), np.array([[0.0, 0.1, -0.3]]),
          np.array([U_TOP]), np.float64))
def test_sampled_index_is_never_masked(case):
    mask, logits, u, dtype = case
    ids = _choose(_log_softmax(logits, mask, dtype), "sample", None, u)
    assert mask[np.arange(len(ids)), ids].all()


def test_top_uniform_never_picks_masked_first_slot():
    rng = np.random.default_rng(0)
    mask = rng.random((2000, 12)) < 0.5
    mask[:, 0] = False
    mask[np.arange(2000), rng.integers(1, 12, 2000)] = True
    logp = _log_softmax(rng.normal(size=(2000, 12)), mask, np.float64)
    ids = _choose(logp, "sample", None, np.full(2000, U_TOP))
    assert mask[np.arange(2000), ids].all()
