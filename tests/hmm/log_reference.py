"""Log-space HMM recursions: an independent reference at any length.

The production kernels scale every step by its probability total and,
on long grids, cut time into blocks (``repro.hmm.kernels.numpy_ref``);
path enumeration checks them only up to T = 5.  These recursions do
neither: one row, one timestep at a time, in log space with
``scipy.special.logsumexp``, so nothing underflows at any length.  Each
step subtracts its own log-normaliser, which keeps the log terms near 0:
unnormalised log-forward values grow like ``T`` and their rounding
error like ``T**2 * eps`` (up to 3e-10 in a posterior at T = 5000, where
the normalised form and the kernels agree to 1e-15).
They know nothing of dead timesteps (a zero emission row is ``-inf``
here), so compare them on stacks without one.
"""

import numpy as np
from scipy.special import logsumexp

__all__ = ["log_backward", "log_forward", "log_posteriors", "log_viterbi"]


def _log(values):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(values, dtype=float))


def log_forward(startprob, transmat, emissions):
    """``(log_alpha (T, K), log-likelihood)`` of one row.

    ``log_alpha[t]`` is the log filtered distribution (it sums to 1 in
    probability space); the log-likelihood is the sum of the
    per-step log-normalisers.
    """
    log_trans = _log(transmat)
    log_em = _log(emissions)
    log_alpha = np.empty_like(log_em)
    log_likelihood = 0.0
    step = _log(startprob) + log_em[0]
    for t in range(len(log_em)):
        if t:
            step = (
                logsumexp(log_alpha[t - 1][:, None] + log_trans, axis=0)
                + log_em[t]
            )
        normaliser = logsumexp(step)
        log_alpha[t] = step - normaliser
        log_likelihood += normaliser
    return log_alpha, float(log_likelihood)


def log_backward(transmat, emissions):
    """``log_beta (T, K)`` of one row up to a constant per step,
    ``log_beta[T - 1] = 0``."""
    log_trans = _log(transmat)
    log_em = _log(emissions)
    log_beta = np.zeros_like(log_em)
    for t in range(len(log_em) - 2, -1, -1):
        step = logsumexp(
            log_trans + (log_em[t + 1] + log_beta[t + 1])[None, :], axis=1
        )
        log_beta[t] = step - logsumexp(step)
    return log_beta


def log_posteriors(startprob, transmat, emissions):
    """``(gamma (T, K), log-likelihood)`` of one row."""
    log_alpha, log_likelihood = log_forward(startprob, transmat, emissions)
    log_gamma = log_alpha + log_backward(transmat, emissions)
    log_gamma -= logsumexp(log_gamma, axis=1, keepdims=True)
    return np.exp(log_gamma), log_likelihood


def log_viterbi(startprob, transmat, emissions):
    """Most probable state path of one row (ties take the lowest state)."""
    log_trans = _log(transmat)
    log_em = _log(emissions)
    n_steps, k = log_em.shape
    delta = _log(startprob) + log_em[0]
    pointers = np.zeros((n_steps, k), dtype=int)
    for t in range(1, n_steps):
        candidates = delta[:, None] + log_trans
        pointers[t] = np.argmax(candidates, axis=0)
        delta = candidates[pointers[t], np.arange(k)] + log_em[t]
    path = np.zeros(n_steps, dtype=int)
    path[-1] = int(np.argmax(delta))
    for t in range(n_steps - 1, 0, -1):
        path[t - 1] = pointers[t, path[t]]
    return path
