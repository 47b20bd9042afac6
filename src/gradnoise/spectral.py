"""Hessian spectral probes built on matrix-vector products only.

Nothing here forms a dense Hessian. Each probe builds the problem's Hessian
operator once at its weight vector (``problem.hessian_operator``) and applies
it to one vector at a time, so the state-dependent work (for the MLP, the
forward pass) is done once per state rather than once per product, and the
probes scale to dimensions where materializing the matrix would not.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import (
    ArpackError,
    ArpackNoConvergence,
    LinearOperator,
    eigsh,
)

from .errors import ConfigError
from .seeding import substream


@dataclass(frozen=True)
class SpectralReport:
    """Top eigenpair of the training-loss Hessian at one weight vector.

    ``iterations_used`` counts Hessian-vector products; ``vector`` is the
    unit eigenvector estimate.
    """

    lambda_1: float
    iterations_used: int
    converged: bool
    vector: np.ndarray


def top_eigenvalue(problem, w, dataset, tol=1e-6, max_iter=500, seed=0,
                   seed_labels=("spectral",)):
    """Largest-magnitude Hessian eigenvalue by Lanczos (ARPACK) on HVPs.

    The value keeps its sign, so a Hessian whose largest-magnitude eigenvalue
    is negative reports that negative value (saddle diagnostics rely on the
    sign). ``tol`` is ARPACK's relative residual ``||H v - lambda v|| <=
    tol * |lambda|`` and ``max_iter`` caps its implicit restarts. The start
    vector, and any restart vector ARPACK asks for, come from
    ``substream(seed, *seed_labels)``. A False ``converged`` carries the
    Rayleigh quotient of the start vector rather than raising.
    """
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    rng = substream(seed, *seed_labels)
    d = problem.dim
    v0 = rng.standard_normal(d)
    v0 /= np.linalg.norm(v0)
    hess = problem.hessian_operator(w, dataset.features, dataset.labels)
    hvps = 0
    nonzero = False

    def hvp(v):
        nonlocal hvps, nonzero
        hvps += 1
        hv = hess(v)
        nonzero = nonzero or bool(hv.any())
        return hv

    if d == 1:  # ARPACK needs k < d; one product is the exact eigenvalue.
        return SpectralReport(float(v0 @ hvp(v0)), hvps, True, v0)
    operator = LinearOperator((d, d), matvec=hvp, dtype=float)
    try:
        vals, vecs = eigsh(operator, k=1, which="LM", v0=v0, tol=tol,
                           maxiter=max_iter, rng=rng)
    except ArpackNoConvergence:
        # With k = 1, no convergence means no converged eigenvalue at all.
        return SpectralReport(float(v0 @ hvp(v0)), hvps, False, v0)
    except ArpackError:
        if nonzero:
            raise
        # H mapped every start vector ARPACK tried to zero: H = 0.
        return SpectralReport(0.0, hvps, True, v0)
    return SpectralReport(float(vals[0]), hvps, True, vecs[:, 0])


def stability_gap(lambda_1, eta):
    """Distance 2/eta - lambda_1 to the discrete stability threshold.

    Positive means the top curvature sits below the edge of stability for
    stepsize eta; at or below zero the commuting-form stationary covariance
    has no valid solution and the closed forms are off the table.
    """
    if eta <= 0:
        raise ConfigError("eta must be positive")
    return 2.0 / eta - float(lambda_1)
