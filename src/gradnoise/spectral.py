"""Hessian spectral probes built on matrix-vector products only.

Nothing here forms a dense Hessian; everything goes through ``problem.hvp``,
so the probes scale to dimensions where materializing the matrix would not.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .seeding import substream


@dataclass(frozen=True)
class SpectralReport:
    """Spectral summary of the training-loss Hessian at one weight vector.

    ``trace_estimate`` and ``gap`` are None when the corresponding probe was
    not requested; ``vector`` is the final power-iteration direction.
    """

    lambda_1: float
    trace_estimate: float | None
    iterations_used: int
    converged: bool
    gap: float | None
    vector: np.ndarray | None = None


def top_eigenvalue(problem, w, dataset, tol=1e-6, max_iter=500, seed=0,
                   seed_labels=("spectral",)):
    """Dominant Hessian eigenvalue by power iteration on HVPs.

    The returned value is the signed Rayleigh quotient of the final iterate,
    so a Hessian whose largest-magnitude eigenvalue is negative reports that
    negative value (saddle diagnostics rely on the sign). Convergence means
    the residual ||H v - lambda v|| dropped below ``tol * |lambda|``; a False
    flag carries the best estimate rather than raising.
    """
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    rng = substream(seed, *seed_labels)
    v = rng.standard_normal(problem.dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        hv = problem.hvp(w, dataset.features, dataset.labels, v)
        lam = float(v @ hv)
        residual = float(np.linalg.norm(hv - lam * v))
        if residual <= tol * max(abs(lam), 1e-30):
            converged = True
            break
        norm = float(np.linalg.norm(hv))
        if norm == 0.0:
            lam = 0.0
            converged = True
            break
        v = hv / norm
    return SpectralReport(lambda_1=lam, trace_estimate=None,
                          iterations_used=iterations, converged=converged,
                          gap=None, vector=v)


def hessian_trace(problem, w, dataset, n_probes=256, seed=0):
    """Hutchinson trace estimate with Rademacher probes.

    Unbiased for tr H, and exactly equal to it for diagonal Hessians since
    every probe satisfies z_i^2 = 1.
    """
    if n_probes < 1:
        raise ConfigError("n_probes must be >= 1")
    rng = substream(seed, "hutchinson")
    total = 0.0
    for _ in range(n_probes):
        z = rng.integers(0, 2, size=problem.dim) * 2.0 - 1.0
        total += float(z @ problem.hvp(w, dataset.features, dataset.labels, z))
    return total / n_probes


def stability_gap(lambda_1, eta):
    """Distance 2/eta - lambda_1 to the discrete stability threshold.

    Positive means the top curvature sits below the edge of stability for
    stepsize eta; at or below zero the commuting-form stationary covariance
    has no valid solution and the closed forms are off the table.
    """
    if eta <= 0:
        raise ConfigError("eta must be positive")
    return 2.0 / eta - float(lambda_1)


def spectral_report(problem, w, dataset, eta=None, tol=1e-6, max_iter=500,
                    n_probes=256, seed=0):
    """Full spectral summary: top eigenvalue, trace estimate, stability gap."""
    top = top_eigenvalue(problem, w, dataset, tol=tol, max_iter=max_iter,
                         seed=seed)
    trace = hessian_trace(problem, w, dataset, n_probes=n_probes, seed=seed)
    gap = stability_gap(top.lambda_1, eta) if eta is not None else None
    return SpectralReport(lambda_1=top.lambda_1, trace_estimate=trace,
                          iterations_used=top.iterations_used,
                          converged=top.converged, gap=gap, vector=top.vector)
