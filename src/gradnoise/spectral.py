"""Hessian spectral probes built on matrix-vector products only.

Nothing here forms a dense Hessian. ``top_eigenvalue`` builds the problem's
Hessian operator once at its weight vector (``problem.hessian_operator``) and
applies it to one vector at a time, so the state-dependent work (for the MLP,
the forward pass) is done once per state rather than once per product, and the
probe scales to dimensions where materializing the matrix would not. The
Lanczos iteration is plain numpy: passes of at most ``NCV`` vectors with full
reorthogonalization, each restarted from the previous pass's Ritz vector.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .seeding import substream

NCV = 20  # Lanczos vectors per pass (ARPACK's default for one eigenvalue)


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


def _orthogonalize(r, basis):
    """r minus its projection on the orthonormal rows of basis, in two
    classical Gram-Schmidt passes (the second removes the first's rounding)."""
    for _ in range(2):
        r = r - (basis @ r) @ basis
    return r


def top_eigenvalue(problem, w, dataset, tol=1e-6, max_iter=500, seed=0,
                   seed_labels=("spectral",)):
    """Largest-magnitude Hessian eigenvalue by restarted Lanczos on HVPs.

    The value keeps its sign, so a Hessian whose largest-magnitude eigenvalue
    is negative reports that negative value (saddle diagnostics rely on the
    sign). Each pass builds ``min(NCV, d)`` orthonormal Lanczos vectors, one
    Hessian-vector product each, and takes the Ritz pair (theta, y) of
    largest |theta| from the tridiagonal. The pass has converged when the
    residual ``||H y - theta y|| = beta * |s_last|`` is at most
    ``tol * |theta|``; otherwise the next pass starts from y, and
    ``max_iter`` caps the passes. The start vector, and a fresh vector
    whenever the Krylov space becomes invariant, come from
    ``substream(seed, *seed_labels)``. A False ``converged`` carries the
    Rayleigh quotient of the start vector rather than raising; a non-finite
    product raises NumericalError.
    """
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    rng = substream(seed, *seed_labels)
    d = problem.dim
    v0 = rng.standard_normal(d)
    v0 /= np.linalg.norm(v0)
    hess = problem.hessian_operator(w, dataset.features, dataset.labels)
    m = min(NCV, d)
    basis = np.empty((m, d))
    alpha, beta = np.empty(m), np.empty(m)
    start = v0
    for npass in range(max_iter):
        basis[0] = start
        for j in range(m):
            hv = hess(basis[j])
            if not np.isfinite(hv).all():
                raise NumericalError("non-finite Hessian-vector product")
            alpha[j] = basis[j] @ hv
            r = _orthogonalize(hv, basis[:j + 1])
            beta[j] = np.linalg.norm(r)
            if j + 1 == m:
                break
            if beta[j] <= np.finfo(float).eps * np.linalg.norm(hv):
                # Breakdown: the basis spans an invariant subspace of H.
                beta[j] = 0.0
                r = _orthogonalize(rng.standard_normal(d), basis[:j + 1])
            basis[j + 1] = r / np.linalg.norm(r)
        if npass == 0:
            rayleigh = alpha[0]
        tridiagonal = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
        thetas, s = np.linalg.eigh(tridiagonal)
        k = np.argmax(np.abs(thetas))
        start = s[:, k] @ basis
        start /= np.linalg.norm(start)
        if beta[-1] * abs(s[-1, k]) <= tol * abs(thetas[k]):
            return SpectralReport(float(thetas[k]), (npass + 1) * m, True, start)
    return SpectralReport(float(rayleigh), max_iter * m, False, v0)


def stability_gap(lambda_1, eta):
    """Distance 2/eta - lambda_1 to the discrete stability threshold.

    Positive means the top curvature sits below the edge of stability for
    stepsize eta; at or below zero the commuting-form stationary covariance
    has no valid solution and the closed forms are off the table.
    """
    if eta <= 0:
        raise ConfigError("eta must be positive")
    return 2.0 / eta - float(lambda_1)
