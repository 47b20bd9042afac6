"""Dense symmetric/SPD matrix utilities and Gaussian-distribution arithmetic.

Everything downstream (noise covariances, KL divergences, stationary
covariances) is built on the small set of primitives in this module. Matrices
are plain numpy arrays at the boundaries; positive-definiteness is made
explicit through :class:`SpdMatrix`, which carries its eigendecomposition and
the eigenvalue floor that was applied.

Convention: ``tr log M`` is evaluated as the log-determinant of the floored
matrix (sum of logs of floored eigenvalues). The diagonal-only variant is
exposed separately as :func:`trace_log_diag` for diagnostic curves; it is not
used inside any bound.

The stationary covariance of SGD around a minimum
(:func:`solve_stationary_covariance`) is solved in the eigenbasis of the
Hessian, where the equation decouples entrywise: one symmetric
eigendecomposition, O(d^3) time and O(d^2) memory, for every mode.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    InvalidInputError,
    NumericalError,
    StabilityError,
)

DEFAULT_EPS_REL = 1e-8
DEFAULT_FLOOR_ABS = 1e-12


def symmetrize(m):
    """Return (M + M^T)/2 as a float array, validating shape and finiteness."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return (m + m.T) / 2.0


@dataclass(frozen=True)
class SpdMatrix:
    """A symmetric matrix regularized to be positive definite.

    The floored eigenpairs are the stored state. The reconstruction
    ``matrix`` is derived from them on first access and cached, so callers
    that only need the eigenpairs (:func:`spd_sqrt`, :func:`log_det`, the
    ``inv_*`` methods) never pay for it.

    Attributes
    ----------
    eigenvalues : ndarray
        Floored eigenvalues, ascending.
    eigenvectors : ndarray
        Orthonormal eigenvectors, one per column, matching ``eigenvalues``.
    floor : float
        The eigenvalue floor actually applied: ``eps_rel * tr(M)/d``, replaced
        by ``floor_abs`` whenever the relative floor underflows (zero or
        negative trace included).
    floored : bool
        True if any raw eigenvalue was below the floor.
    matrix : ndarray
        The floored reconstruction ``Q diag(max(eig, floor)) Q^T``,
        symmetrized; computed lazily and cached.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    floor: float
    floored: bool

    @classmethod
    def from_matrix(cls, m, eps_rel=DEFAULT_EPS_REL, floor_abs=DEFAULT_FLOOR_ABS):
        sym = symmetrize(m)
        d = sym.shape[0]
        try:
            vals, vecs = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed: {exc}") from exc
        floor = eps_rel * (np.trace(sym) / d)
        if not floor > floor_abs:
            floor = floor_abs
        floored = bool(np.any(vals < floor))
        vals = np.maximum(vals, floor)
        return cls(eigenvalues=vals, eigenvectors=vecs,
                   floor=float(floor), floored=floored)

    @cached_property
    def matrix(self):
        q = self.eigenvectors
        return symmetrize((q * self.eigenvalues) @ q.T)

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    @property
    def trace(self):
        return float(np.sum(self.eigenvalues))

    def inv_apply(self, x):
        """Return ``M^{-1} x`` through the eigendecomposition."""
        q = self.eigenvectors
        return q @ ((q.T @ x) / self.eigenvalues)

    def inv_quad(self, x):
        """Return ``x^T M^{-1} x`` (nonnegative by construction)."""
        proj = self.eigenvectors.T @ x
        return float(np.sum(proj * proj / self.eigenvalues))

    def inv_trace_product(self, other):
        """Return ``tr(M^{-1} A)`` for a symmetric matrix ``A``."""
        q = self.eigenvectors
        rotated = q.T @ np.asarray(other, dtype=float) @ q
        return float(np.sum(rotated.diagonal() / self.eigenvalues))


def spd_sqrt(m):
    """Principal square root of an :class:`SpdMatrix`, as a symmetric array."""
    root = (m.eigenvectors * np.sqrt(m.eigenvalues)) @ m.eigenvectors.T
    return symmetrize(root)


def log_det(m):
    """Sum of logs of the (floored) eigenvalues of an :class:`SpdMatrix`."""
    if np.any(m.eigenvalues <= 0.0):
        raise DomainError("nonpositive eigenvalue survived flooring")
    return float(np.sum(np.log(m.eigenvalues)))


def trace_log_diag(m):
    """Sum of logs of the diagonal entries, tr(log(diag(m))).

    Coincides with :func:`log_det` exactly when the matrix is diagonal.
    """
    mat = m.matrix if isinstance(m, SpdMatrix) else np.asarray(m, dtype=float)
    diag = mat.diagonal()
    if np.any(diag <= 0.0):
        raise DomainError("trace_log_diag requires strictly positive diagonal entries")
    return float(np.sum(np.log(diag)))


@dataclass(frozen=True)
class GaussianDist:
    """A Gaussian N(mean, cov) with an SPD covariance."""

    mean: np.ndarray
    cov: SpdMatrix

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        object.__setattr__(self, "mean", mean)
        if mean.ndim != 1 or mean.shape[0] != self.cov.dim:
            raise InvalidInputError(
                f"mean length {mean.shape} does not match covariance dim {self.cov.dim}"
            )


def gaussian_kl(p, q):
    """KL(p || q) between two Gaussians.

    Evaluates
    ``0.5 * [log det(cov_q)/det(cov_p) - d + (mu_p - mu_q)^T cov_q^{-1} (mu_p - mu_q)
    + tr(cov_q^{-1} cov_p)]``
    and returns exactly 0.0 when the two distributions are field-equal.
    """
    if p.cov.dim != q.cov.dim:
        raise InvalidInputError("gaussian_kl: dimension mismatch")
    if np.array_equal(p.mean, q.mean) and np.array_equal(p.cov.matrix, q.cov.matrix):
        return 0.0
    d = p.cov.dim
    delta = p.mean - q.mean
    return 0.5 * (
        log_det(q.cov)
        - log_det(p.cov)
        - d
        + q.cov.inv_quad(delta)
        + q.cov.inv_trace_product(p.cov.matrix)
    )


def mahalanobis_sq(x, y, s):
    """Squared Mahalanobis distance (x - y)^T s^{-1} (x - y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] != s.dim:
        raise InvalidInputError("mahalanobis_sq: dimension mismatch")
    return s.inv_quad(x - y)


STATIONARY_MODES = ("general", "commuting", "hessian-matches-gnc", "small-lr")


def _check_stability(eigs, eta, need_positive):
    """Raise StabilityError unless all eigenvalues sit strictly inside (0, 2/eta)."""
    edge = 2.0 / eta
    tol = 1e-12 * max(1.0, edge)
    lam_max = float(eigs[-1])
    if lam_max >= edge - tol:
        raise StabilityError(
            f"Hessian eigenvalue {lam_max:g} reaches 2/eta = {edge:g}; "
            "the discrete chain does not contract",
            eigenvalue=lam_max,
        )
    if need_positive:
        lam_min = float(eigs[0])
        if lam_min <= tol:
            raise StabilityError(
                f"Hessian eigenvalue {lam_min:g} is not strictly positive; "
                "no stationary covariance exists in that direction",
                eigenvalue=lam_min,
            )


def solve_stationary_covariance(h, c, eta, mode="general", b=1):
    """Solve the discrete stationary-covariance equation for SGD around a minimum.

    The returned ``Lambda`` satisfies ``Lambda H + H Lambda - eta H Lambda H = eta C``
    (mode "general"), the fixed point of the linearised chain
    ``w <- (I - eta H) w + eta C^{1/2} N``. The closed forms:

    - "commuting"           : eta [H (2I - eta H)]^{-1} C, symmetrized; exact
      when H and C commute.
    - "hessian-matches-gnc" : ((2/eta) I - H)^{-1}. Assumes the noise covariance
      equals the Hessian (C = H), so the ``c`` argument is ignored.
    - "small-lr"            : (eta / (2b)) I, the small-learning-rate limit; needs
      the batch size ``b``.

    Method: one symmetric eigendecomposition ``H = Q diag(lam) Q^T`` serves the
    stability check and every H-dependent mode. With ``C~ = Q^T C Q`` the
    general equation decouples entrywise,
    ``Lambda~_ij = eta C~_ij / (lam_i + lam_j - eta lam_i lam_j)`` and
    ``Lambda = Q Lambda~ Q^T``; "commuting" keeps the diagonal kernel
    ``eta C~_ij (d_i + d_j) / 2`` with ``d_i = 1 / (lam_i (2 - eta lam_i))``.
    This costs O(d^3) time and O(d^2) memory. The denominators equal
    ``(1 - (1 - eta lam_i)(1 - eta lam_j)) / eta``; once every eigenvalue lies
    in (0, 2/eta), both factors ``1 - eta lam`` lie in (-1, 1), so every
    denominator is strictly positive and the solve is well defined.

    Raises StabilityError when an eigenvalue of ``h`` reaches 2/eta (the system
    turns singular at the edge of stability) or is nonpositive where positivity
    is required; the check runs before any solve.
    """
    if mode not in STATIONARY_MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {STATIONARY_MODES}")
    if not eta > 0:
        raise ConfigError(f"eta must be positive, got {eta}")
    h = symmetrize(h)
    d = h.shape[0]
    try:
        eigs, q = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc

    if mode == "small-lr":
        _check_stability(eigs, eta, need_positive=False)
        return (eta / (2.0 * b)) * np.eye(d)

    if mode == "hessian-matches-gnc":
        _check_stability(eigs, eta, need_positive=False)
        return symmetrize((q / (2.0 / eta - eigs)) @ q.T)

    c = symmetrize(c)
    if c.shape != h.shape:
        raise InvalidInputError("h and c must have the same shape")
    _check_stability(eigs, eta, need_positive=True)
    c_rot = q.T @ c @ q
    if mode == "commuting":
        inv = 1.0 / (eigs * (2.0 - eta * eigs))
        kernel = (inv[:, None] + inv[None, :]) / 2.0
    else:
        kernel = 1.0 / (eigs[:, None] + eigs[None, :]
                        - eta * np.outer(eigs, eigs))
    return symmetrize(q @ (eta * c_rot * kernel) @ q.T)


def stationary_residual(lam, h, c, eta):
    """Frobenius norm of ``Lambda H + H Lambda - eta H Lambda H - eta C``."""
    r = lam @ h + h @ lam - eta * (h @ lam @ h) - eta * c
    return float(np.linalg.norm(r))
