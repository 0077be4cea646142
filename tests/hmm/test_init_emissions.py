"""The one-pass quantile init against the per-row loop it replaced.

``BatchGaussianHMM._init_emissions`` sorts the whole stack once and
reduces rows of one present count together; the scalar reference's
``init_emissions`` is the per-row loop (``np.quantile`` and ``np.var``
of one row's present values).  Every mean and variance must come out
bit-identical, on ragged rows, rows with one present value and rows
whose values are all equal (the jittered near-constant branch).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hmm import BatchGaussianHMM, stack_ragged
from tests.hmm.scalar_reference import ScalarGaussianHMM

#: Few distinct values, so duplicates and constant rows are common.
VALUES = st.sampled_from(
    [np.nan, np.nan, -0.9, -0.3, 0.0, 0.2, 0.5, 0.8, 1 / 3, -2e-17]
)
ROW = st.one_of(
    st.lists(VALUES, min_size=1, max_size=60),
    st.lists(st.floats(-5, 5), min_size=1, max_size=60),
    # One value, repeated (and sometimes blanked): a constant row.
    st.builds(lambda v, n: [v] * n, st.floats(-1, 1), st.integers(1, 30)),
).filter(lambda row: not all(np.isnan(row)))


def per_row(rows, n_states, seed):
    means, variances = [], []
    for row in rows:
        hmm = ScalarGaussianHMM(n_states)
        hmm.init_emissions(np.asarray(row, dtype=float), seed)
        means.append(hmm.means)
        variances.append(hmm.variances)
    return np.array(means), np.array(variances)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(ROW, min_size=1, max_size=12),
    n_states=st.sampled_from([1, 2, 3]),
    padding=st.sampled_from([np.nan, 7.5]),
)
def test_one_pass_matches_row_loop(rows, n_states, padding):
    observations, lengths, order = stack_ragged(rows)
    # Cells past a row's length never count, whatever they hold.
    past_end = np.arange(observations.shape[1]) >= lengths[:, None]
    observations[past_end] = padding
    hmm = BatchGaussianHMM(len(rows), n_states)
    hmm._init_emissions(observations, lengths, seed=11)
    means, variances = per_row([rows[i] for i in order], n_states, seed=11)
    assert hmm.means.tobytes() == means.tobytes()
    assert hmm.variances.tobytes() == variances.tobytes()


def test_ragged_stack_with_missing_values():
    rng = np.random.default_rng(0)
    rows = [rng.normal(0.0, 1.0, size=n) for n in rng.integers(1, 100, 44)]
    for row in rows:
        row[rng.random(row.size) < 0.3] = np.nan
        row[0] = 0.25  # keep one present value per row
    observations, lengths, order = stack_ragged(rows)
    hmm = BatchGaussianHMM(len(rows))
    hmm._init_emissions(observations, lengths, seed=3)
    means, variances = per_row([rows[i] for i in order], 2, seed=3)
    assert hmm.means.tobytes() == means.tobytes()
    assert hmm.variances.tobytes() == variances.tobytes()


def test_all_missing_row_rejected():
    observations, lengths, _ = stack_ragged([[0.5, 0.1], [np.nan]])
    with pytest.raises(ValueError, match="all-missing"):
        BatchGaussianHMM(2)._init_emissions(observations, lengths, seed=0)


@pytest.mark.parametrize(
    "rows, n_states",
    [
        ([[0.0] * 9 + [-0.0, 1.0]], 3),
        ([[-0.0]], 2),
        ([[-0.0, 0.0, -0.0, 0.0, 1.0], [0.0, -0.0, -1.0]], 3),
    ],
)
def test_signed_zeros_land_where_np_quantile_puts_them(rows, n_states):
    """``-0.0 == 0.0``, so sorting and np.quantile's partition may order
    them differently; the init takes its quantiles from the partition."""
    observations, lengths, order = stack_ragged(rows)
    hmm = BatchGaussianHMM(len(rows), n_states)
    hmm._init_emissions(observations, lengths, seed=11)
    means, _ = per_row([rows[i] for i in order], n_states, seed=11)
    assert hmm.means.tobytes() == means.tobytes()
