"""Reference computations that only the tests use.

They check the library against independent formulas and are kept out of
``src/`` because no library code calls them.
"""

from dataclasses import dataclass

from gradnoise.errors import ConfigError
from gradnoise.seeding import substream
from gradnoise.spectral import stability_gap, top_eigenvalue


def hessian_trace(problem, w, dataset, n_probes=256, seed=0):
    """Hutchinson trace estimate with Rademacher probes.

    Unbiased for tr H, and exactly equal to it for diagonal Hessians since
    every probe satisfies z_i^2 = 1.
    """
    if n_probes < 1:
        raise ConfigError("n_probes must be >= 1")
    rng = substream(seed, "hutchinson")
    hess = problem.hessian_operator(w, dataset.features, dataset.labels)
    total = 0.0
    for _ in range(n_probes):
        z = rng.integers(0, 2, size=problem.dim) * 2.0 - 1.0
        total += float(z @ hess(z))
    return total / n_probes


@dataclass(frozen=True)
class SpectralSummary:
    """Top eigenvalue, trace estimate and (given a step size) stability gap."""

    lambda_1: float
    trace_estimate: float
    converged: bool
    gap: float | None


def spectral_report(problem, w, dataset, eta=None, tol=1e-6, max_iter=500,
                    n_probes=256, seed=0):
    """Full spectral summary: top eigenvalue, trace estimate, stability gap."""
    top = top_eigenvalue(problem, w, dataset, tol=tol, max_iter=max_iter,
                         seed=seed)
    trace = hessian_trace(problem, w, dataset, n_probes=n_probes, seed=seed)
    gap = stability_gap(top.lambda_1, eta) if eta is not None else None
    return SpectralSummary(lambda_1=top.lambda_1, trace_estimate=trace,
                           converged=top.converged, gap=gap)
