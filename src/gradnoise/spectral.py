"""Hessian spectral probes built on matrix-vector products only.

Nothing here forms a dense Hessian. ``top_eigenvalue`` builds the problem's
Hessian operator once at its weight vector (``problem.hessian_operator``) and
applies it to one vector at a time, so the state-dependent work (for the MLP,
the forward pass) is done once per state rather than once per product, and the
probe scales to dimensions where materializing the matrix would not. The
Lanczos iteration is plain numpy: passes of at most ``NCV`` vectors with full
reorthogonalization, each restarted from the previous pass's Ritz vector. The
Ritz residual is checked after every vector, so a call stops at the first
product that meets ``tol``. A caller that probes a sequence of nearby states
(``dynamics`` along a run) passes the previous state's eigenvector as
``start``, which cuts the products a call needs.
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
    unit eigenvector estimate (the start vector when not ``converged``),
    which a call at a nearby state can take as its ``start``.
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


def _unit_start(start, d):
    """start scaled to unit length; ConfigError unless it is a finite,
    nonzero vector of length d."""
    start = np.asarray(start, dtype=float)
    if start.shape != (d,):
        raise ConfigError(f"start must have shape ({d},), got {start.shape}")
    if not np.isfinite(start).all():
        raise ConfigError("start must be finite")
    norm = np.linalg.norm(start)
    if norm == 0:
        raise ConfigError("start must be nonzero")
    return start / norm


def top_eigenvalue(problem, w, dataset, tol=1e-7, max_iter=500, seed=0,
                   seed_labels=("spectral",), start=None):
    """Largest-magnitude Hessian eigenvalue by restarted Lanczos on HVPs.

    The value keeps its sign, so a Hessian whose largest-magnitude eigenvalue
    is negative reports that negative value (saddle diagnostics rely on the
    sign). Each pass builds up to ``min(NCV, d)`` orthonormal Lanczos
    vectors, one Hessian-vector product each. After every vector it takes
    the Ritz pair (theta, y) of largest |theta| from the j x j tridiagonal
    and stops once the residual ``||H y - theta y|| = beta_j |s_jk|`` is at
    most ``tol * |theta|``; the eigenvalue error is then at most the squared
    residual over the gap to the next eigenvalue. A pass that ends without
    converging restarts from y, and ``max_iter`` caps the passes.

    The iteration starts from ``start`` (any nonzero finite vector of length
    d, normalized here) or, by default, from a draw of
    ``substream(seed, *seed_labels)``. A start close to an eigenvector stops
    within a few products, so a start near an eigenvector of a smaller
    eigenvalue could stop there; a caller passes the eigenvector of a
    nearby state only. A breakdown (``beta_j`` ~ 0: the vectors since the
    last start span an invariant subspace of H) is not convergence: the
    subspace's top eigenpair is kept and the pass goes on from a fresh
    substream vector orthogonal to the basis, and later stopping tests judge
    the Ritz pairs of the fresh block, reporting whichever of the two has
    the larger |theta|. A False ``converged`` carries the Rayleigh quotient
    of the start vector rather than raising; a non-finite product raises
    NumericalError.
    """
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    d = problem.dim
    # A warm start draws from the substream only at a breakdown, so it builds
    # the stream only then; the fresh vector is still the stream's first draw.
    rng = substream(seed, *seed_labels) if start is None else None
    v0 = _unit_start(rng.standard_normal(d) if start is None else start, d)
    eps = np.finfo(float).eps
    hess = problem.hessian_operator(w, dataset.features, dataset.labels)
    m = min(NCV, d)
    basis = np.empty((m, d))
    tri = np.zeros((m, m))  # Lanczos tridiagonal; eigh reads its lower triangle
    exact = None  # top (theta, y) of the invariant subspaces found so far
    products = 0
    v = v0
    for _ in range(max_iter):
        basis[0] = v
        lo = 0  # first row of the block built since the last (re)start
        for j in range(m):
            hv = hess(basis[j])
            products += 1
            if not np.isfinite(hv).all():
                raise NumericalError("non-finite Hessian-vector product")
            tri[j, j] = basis[j] @ hv
            if products == 1:
                rayleigh = tri[0, 0]
            if j > lo:
                tri[j, j - 1] = beta
            r = _orthogonalize(hv, basis[:j + 1])
            beta = np.linalg.norm(r)
            thetas, s = np.linalg.eigh(tri[lo:j + 1, lo:j + 1])
            k = np.argmax(np.abs(thetas))
            if j + 1 < m and beta <= eps * np.linalg.norm(hv):
                # Breakdown: the block spans an invariant subspace of H.
                if exact is None or abs(thetas[k]) > abs(exact[0]):
                    exact = (thetas[k], s[:, k] @ basis[lo:j + 1])
                lo = j + 1
                if rng is None:
                    rng = substream(seed, *seed_labels)
                r = _orthogonalize(rng.standard_normal(d), basis[:j + 1])
            elif beta * abs(s[-1, k]) <= tol * abs(thetas[k]):
                theta, y = thetas[k], s[:, k] @ basis[lo:j + 1]
                if exact is not None and abs(exact[0]) > abs(theta):
                    theta, y = exact
                return SpectralReport(float(theta), products, True,
                                      y / np.linalg.norm(y))
            if j + 1 < m:
                basis[j + 1] = r / np.linalg.norm(r)
        v = s[:, k] @ basis[lo:]
        v /= np.linalg.norm(v)
    return SpectralReport(float(rayleigh), products, False, v0)


def stability_gap(lambda_1, eta):
    """Distance 2/eta - lambda_1 to the discrete stability threshold.

    Positive means the top curvature sits below the edge of stability for
    stepsize eta; at or below zero the commuting-form stationary covariance
    has no valid solution and the closed forms are off the table.
    """
    if eta <= 0:
        raise ConfigError("eta must be positive")
    return 2.0 / eta - float(lambda_1)
