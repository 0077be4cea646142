"""The batched HMM time recursions.

:mod:`~repro.hmm.kernels.numpy_ref` is the one implementation of
forward scaling, backward, Viterbi + backtrace and the Baum-Welch
xi-statistic accumulation; :class:`repro.hmm.batch.BatchGaussianHMM`
calls it directly.  Its accumulation-order contract is what makes a
claim's result bit-identical in any batch.
"""

from __future__ import annotations

__all__ = ["active_kernel_info"]


def active_kernel_info() -> dict[str, object]:
    """Kernel provenance recorded by the benchmark harnesses."""
    return {"backend": "numpy"}
