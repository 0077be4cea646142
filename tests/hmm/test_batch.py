"""Batched kernel parity: BatchGaussianHMM vs the scalar reference.

The batched kernel's whole contract is that every row decodes exactly as
it would alone: same EM trajectory (within float ulps), same iteration
count, same convergence flag, same Viterbi path (one of the optima where
the scalar model has a provable tie) — regardless of which batch the row
rides in.  These tests pin that contract against the textbook
per-sequence reference (``tests/hmm/scalar_reference.py``) and against
the kernel itself under different batch compositions.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hmm import BatchGaussianHMM, HMMParams, stack_ragged
from repro.hmm.kernels import numpy_ref
from tests.hmm.scalar_reference import ScalarGaussianHMM


def make_sequences(seed=0, n=5, missing=0.0):
    """Ragged two-regime sequences (the SSTD workload shape)."""
    rng = np.random.default_rng(seed)
    sequences = []
    for i in range(n):
        length = int(rng.integers(3, 40))
        flip = length // 2
        values = np.concatenate(
            [
                rng.normal(-1.0, 0.3, size=flip),
                rng.normal(1.0, 0.3, size=length - flip),
            ]
        )
        if missing > 0:
            mask = rng.random(length) < missing
            # Never blank a whole sequence: init needs >= 1 observation.
            mask[int(rng.integers(0, length))] = False
            values[mask] = np.nan
        sequences.append(values)
    return sequences


def fit_batch(sequences, k=2, max_iter=50, tol=1e-4, seed=0):
    observations, lengths, order = stack_ragged(sequences)
    kernel = BatchGaussianHMM(len(sequences), k)
    results = kernel.fit(
        observations, lengths, max_iter=max_iter, tol=tol, seed=seed
    )
    return observations, lengths, order, kernel, results


def fit_serial(sequences, k=2, max_iter=50, tol=1e-4, seed=0):
    pairs = []
    for seq in sequences:
        model = ScalarGaussianHMM(k)
        result = model.fit(
            np.asarray(seq, dtype=float), max_iter=max_iter, tol=tol, seed=seed
        )
        pairs.append((model, result))
    return pairs


def params_of(kernel, row):
    """Row ``row`` of a kernel as scalar-reference keyword arguments."""
    return dataclasses.asdict(kernel.params(row))


def tied_optima(model, seq):
    """Every state path whose joint with ``seq`` is within 1e-9
    (relative) of the best one under a scalar model, by enumeration."""
    emissions = model.emissions(seq)
    joints = {}
    for path in itertools.product(range(model.n_states), repeat=len(seq)):
        joint = model.startprob[path[0]] * emissions[0, path[0]]
        for t in range(1, len(path)):
            joint *= model.transmat[path[t - 1], path[t]] * emissions[t, path[t]]
        joints[path] = joint
    best = max(joints.values())
    return [list(p) for p, j in joints.items() if best - j <= 1e-9 * best]


def assert_batch_matches_serial(sequences, k=2, seed=0, tol=1e-4):
    observations, lengths, order, kernel, results = fit_batch(
        sequences, k=k, seed=seed, tol=tol
    )
    serial = fit_serial(sequences, k=k, seed=seed, tol=tol)
    emissions = kernel.emission_probabilities(observations)
    states, log_joints = kernel.viterbi(emissions, lengths)
    posteriors = kernel.state_posteriors(
        observations, lengths, emissions=emissions
    )
    for row, src in enumerate(order):
        model, ref = serial[int(src)]
        result = results[row]
        length = int(lengths[row])
        seq = np.asarray(sequences[int(src)], dtype=float)

        assert result.iterations == ref.iterations
        assert result.converged == ref.converged
        assert np.allclose(
            result.log_likelihoods, ref.log_likelihoods, atol=1e-9, rtol=0
        )
        assert np.allclose(kernel.means[row], model.means, atol=1e-9, rtol=0)
        assert np.allclose(
            kernel.variances[row], model.variances, atol=1e-9, rtol=0
        )
        assert np.allclose(
            kernel.transmat[row], model.transmat, atol=1e-9, rtol=0
        )

        ref_states, ref_joint = model.decode(seq)
        path = states[row, :length].tolist()
        if path != ref_states.tolist():
            # Only a proven tie excuses a different path: a true EM can
            # converge to an exactly symmetric chain, where a leading
            # missing cell has two optimal states and ulps pick one.
            # The tie is established on the scalar model alone.
            assert length <= 8, "too long to enumerate: paths must agree"
            optima = tied_optima(model, seq)
            assert ref_states.tolist() in optima and path in optima
        assert log_joints[row] == pytest.approx(ref_joint, abs=1e-9)
        assert np.allclose(
            posteriors[row, :length],
            model.posteriors(seq),
            atol=1e-9,
            rtol=0,
        )


class TestStackRagged:
    def test_sorts_by_length_descending(self):
        observations, lengths, order = stack_ragged(
            [np.arange(2.0), np.arange(5.0), np.arange(3.0)]
        )
        assert lengths.tolist() == [5, 3, 2]
        assert order.tolist() == [1, 2, 0]
        assert observations.shape == (3, 5)

    def test_pads_with_nan_and_round_trips(self):
        sequences = [np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])]
        observations, lengths, order = stack_ragged(sequences)
        for row, src in enumerate(order):
            length = int(lengths[row])
            assert observations[row, :length].tolist() == sequences[
                int(src)
            ].tolist()
            assert np.isnan(observations[row, length:]).all()

    def test_stable_for_equal_lengths(self):
        _, _, order = stack_ragged([np.zeros(3), np.ones(3), np.full(3, 2.0)])
        assert order.tolist() == [0, 1, 2]

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError, match="at least one"):
            stack_ragged([])
        with pytest.raises(ValueError, match="empty"):
            stack_ragged([np.array([])])
        with pytest.raises(ValueError, match="1-D"):
            stack_ragged([np.zeros((2, 2))])


class TestValidation:
    def test_param_stack_shapes(self):
        kernel = BatchGaussianHMM(3, 2, means=np.array([-1.0, 1.0]))
        assert kernel.means.shape == (3, 2)
        assert (kernel.means == np.array([-1.0, 1.0])).all()
        with pytest.raises(ValueError, match="startprob"):
            BatchGaussianHMM(3, 2, startprob=np.ones((2, 2)))
        with pytest.raises(ValueError, match="n_seqs"):
            BatchGaussianHMM(0, 2)
        with pytest.raises(ValueError, match="positive"):
            BatchGaussianHMM(2, 2, variances=np.array([1.0, 0.0]))

    def test_observation_shapes(self):
        kernel = BatchGaussianHMM(2, 2)
        with pytest.raises(ValueError, match="rows"):
            kernel.fit(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="sorted"):
            kernel.fit(np.zeros((2, 4)), lengths=np.array([2, 4]))
        with pytest.raises(ValueError, match=r"\[1, T\]"):
            kernel.fit(np.zeros((2, 4)), lengths=np.array([5, 2]))
        with pytest.raises(ValueError, match="infinite"):
            kernel.state_posteriors(np.full((2, 4), np.inf))

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_fit_needs_an_iteration(self, max_iter):
        kernel = BatchGaussianHMM(2, 2)
        before = kernel.means.copy()
        with pytest.raises(ValueError, match="max_iter"):
            kernel.fit(np.zeros((2, 4)), max_iter=max_iter)
        assert (kernel.means == before).all()  # rejected before the init


class TestParityVsPerClaim:
    def test_ragged_random_sequences(self):
        assert_batch_matches_serial(make_sequences(seed=1, n=6))

    def test_three_states(self):
        assert_batch_matches_serial(make_sequences(seed=2, n=4), k=3)

    def test_nan_heavy_sequences(self):
        assert_batch_matches_serial(make_sequences(seed=3, n=5, missing=0.5))

    def test_constant_sequences_hit_jitter_init(self):
        # Zero-variance data takes the jittered-init branch;
        # the batch kernel must spend the seed identically per row.
        sequences = [np.full(8, 2.5), np.full(5, -1.0), np.full(12, 0.0)]
        assert_batch_matches_serial(sequences, seed=7)

    def test_length_one_sequences(self):
        sequences = [np.array([0.3]), np.array([-0.7]), np.array([1.5])]
        assert_batch_matches_serial(sequences, seed=4)

    def test_mixed_edge_cases(self):
        sequences = [
            np.array([0.4]),
            np.full(6, 1.0),
            make_sequences(seed=5, n=1)[0],
            np.array([np.nan, 0.2, np.nan, -0.3]),
        ]
        assert_batch_matches_serial(sequences, seed=5)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=8),
        missing=st.sampled_from([0.0, 0.3]),
    )
    def test_parity_property(self, seed, n, missing):
        assert_batch_matches_serial(
            make_sequences(seed=seed, n=n, missing=missing), seed=seed
        )


class TestRowDeterminism:
    def test_batch_composition_is_bitwise_irrelevant(self):
        sequences = make_sequences(seed=11, n=8, missing=0.2)
        _, lengths, order, full, full_results = fit_batch(sequences, seed=3)
        # Refit each row alone (N=1) and in a front/back split; every
        # composition must produce bit-identical parameters and EM
        # histories for the same underlying sequence.
        for row, src in enumerate(order):
            seq = sequences[int(src)]
            _, _, _, solo, solo_results = fit_batch([seq], seed=3)
            assert (solo.means[0] == full.means[row]).all()
            assert (solo.variances[0] == full.variances[row]).all()
            assert (solo.transmat[0] == full.transmat[row]).all()
            assert (solo.startprob[0] == full.startprob[row]).all()
            assert (
                solo_results[0].log_likelihoods
                == full_results[row].log_likelihoods
            )
            assert solo_results[0].converged == full_results[row].converged

    def test_split_batches_match_full_batch(self):
        sequences = make_sequences(seed=13, n=6)
        _, _, order, full, _ = fit_batch(sequences, seed=1)
        by_src_means = {
            int(src): full.means[row] for row, src in enumerate(order)
        }
        for offset, part in ((0, sequences[:3]), (3, sequences[3:])):
            _, _, part_order, partial, _ = fit_batch(part, seed=1)
            for row, src in enumerate(part_order):
                assert (
                    partial.means[row] == by_src_means[int(src) + offset]
                ).all()

    def test_convergence_freezing_stops_updates(self):
        # A constant sequence converges almost immediately; batched with
        # a long mixed sequence it must freeze while the other row keeps
        # iterating — iteration counts then differ per row.
        sequences = [make_sequences(seed=17, n=1)[0], np.full(10, 1.0)]
        _, _, order, _, results = fit_batch(sequences, seed=17, tol=1e-6)
        iterations = {
            int(src): results[row].iterations
            for row, src in enumerate(order)
        }
        assert iterations[1] < iterations[0]


class TestInference:
    def test_forward_matches_per_row_log_likelihood(self):
        sequences = make_sequences(seed=21, n=4)
        observations, lengths, order = stack_ragged(sequences)
        kernel = BatchGaussianHMM(
            len(sequences),
            2,
            means=np.array([-1.0, 1.0]),
            variances=np.array([0.4, 0.4]),
            transmat=np.array([[0.9, 0.1], [0.1, 0.9]]),
        )
        emissions = kernel.emission_probabilities(observations)
        _, _, logliks = kernel.forward(emissions, lengths)
        for row, src in enumerate(order):
            ref = ScalarGaussianHMM(
                2, **params_of(kernel, row)
            ).log_likelihood(np.asarray(sequences[int(src)], dtype=float))
            assert logliks[row] == pytest.approx(ref, abs=1e-9)

    def test_filter_step_is_the_forward_time_step(self):
        self.check_filter_step_against_forward(12)

    @pytest.mark.parametrize(
        "t_max", [numpy_ref.ONE_BLOCK_MAX + 1, numpy_ref.ONE_BLOCK_MAX + 30]
    )
    def test_filter_step_against_a_blocked_forward(self, t_max):
        self.check_filter_step_against_forward(t_max)

    @staticmethod
    def check_filter_step_against_forward(t_max):
        """Bit for bit wherever ``forward`` runs the sequential recursion:
        on rows of at most ``ONE_BLOCK_MAX + 1`` steps, and in the first
        block of a longer row.  Past that a blocked row starts each block
        from a carried boundary vector and agrees to rounding."""
        rng = np.random.default_rng(23)
        observations = rng.normal(0.0, 1.0, size=(4, t_max))
        observations[rng.random(observations.shape) < 0.2] = np.nan
        kernel = BatchGaussianHMM(
            4,
            2,
            means=rng.normal(0.0, 1.0, size=(4, 2)),
            variances=rng.uniform(0.2, 1.0, size=(4, 2)),
            transmat=np.array([[0.9, 0.1], [0.2, 0.8]]),
        )
        emissions = kernel.emission_probabilities(observations)
        alpha, _, _ = kernel.forward(emissions, np.full(4, t_max))
        sequential = t_max <= numpy_ref.ONE_BLOCK_MAX + 1
        current = alpha[:, 0, :]
        for t in range(1, t_max):
            current = kernel.filter_step(current, observations[:, t])
            if sequential or t <= numpy_ref.CHUNK:
                assert current.tolist() == alpha[:, t, :].tolist()
            else:
                np.testing.assert_allclose(
                    current, alpha[:, t, :], rtol=1e-13, atol=0.0
                )

    def test_filter_step_restarts_dead_rows_uniform(self):
        kernel = BatchGaussianHMM(
            2, 2, means=np.array([-1.0, 1.0]), variances=np.array([1e-3, 1e-3])
        )
        alpha = np.array([[0.3, 0.7], [0.3, 0.7]])
        # Row 0's observation underflows both densities to exactly 0.
        stepped = kernel.filter_step(alpha, np.array([500.0, 1.0]))
        assert stepped[0].tolist() == [0.5, 0.5]
        assert stepped[1].tolist() == pytest.approx([0.0, 1.0])

    def test_params_round_trips_row_parameters(self):
        kernel = BatchGaussianHMM(2, 2)
        kernel.means[1] = np.array([-3.0, 3.0])
        params = kernel.params(1)
        assert isinstance(params, HMMParams)
        assert params.means.tolist() == [-3.0, 3.0]
        assert params.transmat.shape == (2, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.means = np.zeros(2)
