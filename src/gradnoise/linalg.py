"""Dense symmetric/SPD matrix utilities and the stationary covariance.

Everything downstream (noise covariances, the log-determinants in the
bounds, stationary covariances) is built on the small set of primitives in
this module. Matrices are plain numpy arrays at the boundaries;
positive-definiteness is made explicit through :class:`SpdMatrix`, which
carries its eigendecomposition and applies the eigenvalue floor;
:func:`eigenvalue_floor` is the one floor rule.

Convention: ``tr log M`` is evaluated as the log-determinant of the floored
matrix (sum of logs of floored eigenvalues). The diagonal-only variant is
exposed separately as :func:`trace_log_diag` for diagnostic curves; it is not
used inside any bound.

The stationary covariance of SGD around a minimum
(:func:`solve_stationary_covariance`) is solved in the eigenbasis of the
Hessian, where the equation decouples entrywise: one symmetric
eigendecomposition, O(d^3) time and O(d^2) memory, for every mode.
"""

from dataclasses import dataclass, replace
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
    """Return (M + M^T)/2 as a float array, validating shape and finiteness.

    ``m`` is a square matrix or a stack of them (the last two axes).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return (m + np.swapaxes(m, -1, -2)) / 2.0


def _float_if_scalar(x):
    """``x`` as a Python float if it holds one value, else the array."""
    return float(x) if np.ndim(x) == 0 else x


def eigenvalue_floor(mean_eigenvalue, scale=1.0):
    """The eigenvalue floor of a symmetric matrix whose eigenvalues average
    ``mean_eigenvalue`` (``tr(M)/d``).

    ``scale * DEFAULT_EPS_REL * tr(M)/d``, replaced by ``scale *
    DEFAULT_FLOOR_ABS`` wherever that relative floor is smaller (zero or
    negative trace included). Elementwise on arrays.
    """
    return np.maximum(DEFAULT_EPS_REL * scale * mean_eigenvalue,
                      DEFAULT_FLOOR_ABS * scale)


@dataclass(frozen=True)
class SpdMatrix:
    """A symmetric matrix regularized to be positive definite.

    The stored state is the unfloored eigendecomposition, ``tr(M)/d`` and the
    floor scale; the floored eigenvalues, the floor, the ``floored`` flag and
    the reconstruction ``matrix`` are derived from it on first access and
    cached. So :meth:`refloored` views the same eigenpairs under another
    floor without a new decomposition, bit-identical to a fresh
    ``from_matrix`` at that scale, and callers that only need the eigenpairs
    (:func:`spd_sqrt`, :func:`log_det`, :meth:`inv_trace_product`) never pay
    for the reconstruction.

    ``from_matrix`` also takes a stack of matrices (leading axes first, the
    matrices on the last two): every field then carries the leading axes,
    each matrix is floored by its own ``tr(M)/d``, and every entry equals
    ``from_matrix`` of that matrix alone bit for bit. ``floored`` stays one
    flag, set if any matrix of the stack floored; :func:`log_det` and
    :func:`trace_log_diag` return one value per matrix.

    Attributes
    ----------
    raw_eigenvalues : ndarray
        Eigenvalues of the symmetrized input, ascending, before flooring.
    eigenvectors : ndarray
        Orthonormal eigenvectors, one per column, matching the eigenvalues.
    mean_eigenvalue : float or ndarray
        ``tr(M)/d`` of the symmetrized input; sets the relative floor.
    scale : float
        Multiplier on both default floors (see :func:`eigenvalue_floor`).
    floor : float or ndarray
        The eigenvalue floor applied, ``eigenvalue_floor(mean_eigenvalue,
        scale)``.
    eigenvalues : ndarray
        Floored eigenvalues, ``max(raw_eigenvalues, floor)``.
    floored : bool
        True if any raw eigenvalue was below the floor.
    matrix : ndarray
        The floored reconstruction ``Q diag(eigenvalues) Q^T``, symmetrized.
    """

    raw_eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    mean_eigenvalue: float
    scale: float = 1.0

    @classmethod
    def from_matrix(cls, m, scale=1.0):
        sym = symmetrize(m)
        try:
            vals, vecs = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed: {exc}") from exc
        mean = np.trace(sym, axis1=-2, axis2=-1) / sym.shape[-1]
        return cls(vals, vecs, _float_if_scalar(mean), scale)

    def refloored(self, scale):
        """The same eigenpairs under ``scale`` times both default floors."""
        return self if scale == self.scale else replace(self, scale=scale)

    @cached_property
    def floor(self):
        return _float_if_scalar(eigenvalue_floor(self.mean_eigenvalue, self.scale))

    @cached_property
    def eigenvalues(self):
        return np.maximum(self.raw_eigenvalues, np.expand_dims(self.floor, -1))

    @cached_property
    def floored(self):
        return bool(np.any(self.raw_eigenvalues < self.eigenvalues))

    @cached_property
    def matrix(self):
        q = self.eigenvectors
        return symmetrize((q * self.eigenvalues[..., None, :]) @ np.swapaxes(q, -1, -2))

    @property
    def dim(self):
        return self.raw_eigenvalues.shape[-1]

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
    """Sum of logs of the (floored) eigenvalues of an :class:`SpdMatrix`, one
    per matrix of a stack."""
    if np.any(m.eigenvalues <= 0.0):
        raise DomainError("nonpositive eigenvalue survived flooring")
    return _float_if_scalar(np.sum(np.log(m.eigenvalues), axis=-1))


def trace_log_diag(m):
    """Sum of logs of the diagonal entries, tr(log(diag(m))).

    Coincides with :func:`log_det` exactly when the matrix is diagonal. One
    value per matrix of a stack.
    """
    mat = m.matrix if isinstance(m, SpdMatrix) else np.asarray(m, dtype=float)
    diag = np.diagonal(mat, axis1=-2, axis2=-1)
    if np.any(diag <= 0.0):
        raise DomainError("trace_log_diag requires strictly positive diagonal entries")
    return _float_if_scalar(np.sum(np.log(diag), axis=-1))


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
