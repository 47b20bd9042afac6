"""Gradient statistics: full gradient, noise covariances, leave-one-out pieces.

``gnc_from_grads`` is the one place the package forms the single-draw
covariance ``Sigma = g^T g / n - mean mean^T`` from per-example gradients;
every caller applies its own batch scale to the result.

Naming: ``single_draw_gnc`` is the covariance of one random per-example
gradient around the full-batch mean (Sigma_t in most derivations);
``minibatch_gnc`` rescales it by the without-replacement factor
``(n - b) / (b (n - 1))`` to give the covariance of a size-b batch mean (C_t).
The leave-one-out quantities use the large-n simplification ``C_t = Sigma_t / b``
throughout, because the enumeration identities they feed are exact only under
that convention; everything else in the package uses the exact factor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class GradSnapshot:
    """All gradient statistics of one training state."""

    step: int
    full_grad: np.ndarray
    single_draw_gnc: np.ndarray
    minibatch_gnc: np.ndarray
    pop_gnc: np.ndarray | None
    grad_norm_sq: float
    trace_c: float


@dataclass(frozen=True)
class LooQuantities:
    """Subset-J gradient pieces: xi = G_J - G and the subset noise covariance."""

    subset: np.ndarray
    xi: np.ndarray
    loo_gnc: np.ndarray


def full_gradient(problem, w, dataset):
    """Arithmetic mean of the per-example gradients over the whole dataset."""
    if len(dataset) == 0:
        raise ConfigError("dataset must be nonempty")
    return problem.mean_grad(w, dataset.features, dataset.labels)


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


def loo_quantities(problem, w, dataset, subset, b):
    """Subset-J pieces for the data-dependent prior machinery.

    ``xi = G_J - G`` and ``C_J = (1/b)((1/m) sum_{i in J} g_i g_i^T - G_J G_J^T)``,
    both on the given subset of size m. Requires b < m <= n.
    """
    subset = np.asarray(sorted(int(i) for i in subset), dtype=int)
    n = len(dataset)
    m = subset.shape[0]
    if len(np.unique(subset)) != m:
        raise ConfigError("subset indices must be distinct")
    if m <= b:
        raise ConfigError(f"subset size m={m} must exceed the batch size b={b}")
    if m > n:
        raise ConfigError(f"subset size m={m} exceeds dataset size n={n}")
    grads = problem.per_example_grads(
        w, dataset.features[subset], dataset.labels[subset]
    )
    sigma_j, g_j = gnc_from_grads(grads)
    xi = g_j - full_gradient(problem, w, dataset)
    return LooQuantities(subset=subset, xi=xi, loo_gnc=sigma_j / b)


def snapshot(problem, w, dataset, b, step=0, oracle_sample=None):
    """Build a :class:`GradSnapshot` at one state."""
    factor = minibatch_factor(len(dataset), b)
    grads = problem.per_example_grads(w, dataset.features, dataset.labels)
    sigma, mean = gnc_from_grads(grads)
    c = factor * sigma
    pop = None
    if oracle_sample is not None:
        ograds = problem.per_example_grads(
            w, oracle_sample.features, oracle_sample.labels
        )
        pop, _ = gnc_from_grads(ograds)
    return GradSnapshot(
        step=step,
        full_grad=mean,
        single_draw_gnc=sigma,
        minibatch_gnc=c,
        pop_gnc=pop,
        grad_norm_sq=float(mean @ mean),
        trace_c=float(np.trace(c)),
    )
