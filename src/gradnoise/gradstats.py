"""Gradient statistics: the noise covariance and its mini-batch scale.

``gnc_from_grads`` is the one place the package forms the single-draw
covariance ``Sigma = g^T g / n - mean mean^T`` from per-example gradients;
every caller applies its own batch scale to the result. The one other place
is each problem family's ``grad_moments``, which gives the same moments at a
stack of states: the logistic family from chunked GEMMs over the features
without forming the gradients, the others through ``gnc_from_grads``. The
trajectory tape makes one such call per run and dataset. For the
data-dependent trajectory bound's leave-one-out gaps the tape's pass takes
each chunk of states' covariances from its own decomposition and reads each
family's ``state_gradients`` only for the leverages u^T C^{-1} u of the
centered per-example gradients u under one stacked
:class:`~gradnoise.linalg.SpdMatrix` C per chunk: on the logistic family
from the ``grad_leverages`` GEMM kernel, on the others from one kept pass
of per-example gradients per state.

Naming: ``empirical_gnc`` is the covariance of one random per-example
gradient around the full-batch mean (Sigma_t in most derivations);
``minibatch_gnc`` rescales it by the without-replacement factor
``(n - b) / (b (n - 1))`` to give the covariance of a size-b batch mean (C_t).
The data-dependent trajectory bound uses the large-n simplification
``C_t = Sigma_t / b`` instead, because the leave-one-out enumeration
identities it relies on are exact only under that convention; the tape
rescales its exact-factor GNC by ``(n - 1) / (n - b)`` for it.
"""

import numpy as np

from .errors import ConfigError


def gnc_from_grads(grads):
    """(Sigma, mean) of the rows of an (n, d) per-example gradient array.

    Sigma is the symmetrized single-draw covariance around the mean, with
    divisor n; scale it by ``minibatch_factor(n, b)`` (or ``1/b`` under the
    leave-one-out convention) for a batch covariance.
    """
    n = grads.shape[0]
    mean = grads.mean(axis=0)
    sigma = grads.T @ grads / n - np.outer(mean, mean)
    return (sigma + sigma.T) / 2.0, mean


def empirical_gnc(problem, w, dataset):
    """Single-draw gradient noise covariance on the dataset.

    Second moment of per-example gradients minus the outer product of their
    mean; exactly the zero matrix when all per-example gradients coincide.
    """
    if len(dataset) == 0:
        raise ConfigError("dataset must be nonempty")
    grads = problem.per_example_grads(w, dataset.features, dataset.labels)
    sigma, _ = gnc_from_grads(grads)
    return sigma


def minibatch_factor(n, b):
    """The without-replacement variance factor (n - b) / (b (n - 1))."""
    if n < 2:
        raise ConfigError(f"need n >= 2 for a batch covariance, got n={n}")
    if not 1 <= b <= n:
        raise ConfigError(f"batch size must satisfy 1 <= b <= n, got b={b}, n={n}")
    return (n - b) / (b * (n - 1))


def minibatch_gnc(sigma, n, b):
    """Covariance of a size-b without-replacement batch mean gradient."""
    return minibatch_factor(n, b) * np.asarray(sigma, dtype=float)
