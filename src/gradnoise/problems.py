"""Differentiable learning problems with known data distributions.

Three families cover the assumption regimes the analysis needs:

- quadratic-gaussian: per-example loss ``0.5 (w - z)^T A (w - z)`` with
  ``z ~ N(center, scatter)``. Everything is analytic (gradient, Hessian,
  population gradient-noise covariance), so it anchors the verification of
  every estimator in the package.
- logistic-two-gaussians: binary logistic regression on two Gaussian classes.
  Convex, with optional L2 regularization to keep the minimizer finite; near a
  minimum the Fisher information approximately matches the Hessian.
- mlp-teacher: a one-hidden-layer tanh network with softmax cross-entropy,
  labels sampled from a fixed teacher network. Nonconvex; exercises the
  multiple-minima regime. Gradients and Hessian-vector products are
  hand-written (backpropagation and its forward-over-reverse directional
  derivative); there is no autodiff anywhere in the package.

Every family's ``mean_grad`` also takes an (R, d) stack of weights, with
features and labels shared by all rows or stacked per row ((R, m, p) and
(R, m)), and returns the (R, d) gradients. It computes them with
``np.matmul`` on stacks whose slices have the layout of the one-vector
operands, so each row is bit-identical to the gradient of that row alone.

The private base class ``_Family`` holds what the families share, and a
family overrides only where it differs: the defaults ``has_accuracy`` (True;
not on the quadratic) and ``has_constant_noise`` (False; True on the
quadratic), ``full_batch_data``, ``grad_moments`` and ``state_gradients``.
Each family keeps its own ``per_example_grads``, ``mean_loss``, ``mean_grad``
and ``hvp``, the methods the benchmark tracer wraps by name on each class.

Every family's ``full_batch_data(features, labels)`` returns the smallest
data on which ``mean_grad`` gives the full-batch mean gradient of
``(features, labels)`` bit for bit at every w, stacked or not. The quadratic
family's gradient reads only the feature mean, so it returns that mean as
one row; ``_Family`` returns the inputs. Full-batch steps (``dynamics``'
SDE and GLD) read this data, so a family that can reduce its data does so
once, not at every step.

Every family's ``hessian_operator(w, features, labels)`` computes what the
Hessian at ``w`` needs once and returns the map ``v -> H v``; ``hvp`` is one
application of it, and callers that apply H many times at one state build
the operator once.

Every family's ``grad_moments(ws, features, labels)`` returns, for each row
w of a (K, d) weight stack, ``gnc_from_grads(per_example_grads(w, ...))``:
the (K, d, d) single-draw noise covariances and the (K, d) mean gradients.
The logistic family builds them from GEMMs over row chunks without forming
any per-example gradient; ``_Family``'s, which the quadratic and MLP
families use, loops over the states, so their moments keep the bits of the
one-state formula.
``state_gradients(ws, features, labels)`` wraps the same stack for the
data-dependent trajectory bound, which takes the moments from the
trajectory tape: its ``leverages(index, c)`` (the leverages u^T C^{-1} u of
the centered per-example gradients u under a stacked :class:`SpdMatrix` C,
and their squared norms) and its ``per_example(k)``. On the logistic family
the leverages come from the GEMM kernel ``grad_leverages``; on the others
every state's per-example gradients are evaluated once and shared by both.

Population-level expectations are estimated on a large "population oracle"
sample drawn from a stream disjoint from every training dataset.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .gradstats import gnc_from_grads
from .seeding import substream

# Rows per chunk of ``LogisticProblem.grad_moments`` (and of its
# ``grad_leverages``, whose chunk holds the same products). A chunk holds two
# (rows, d (d + 1) / 2) feature-product arrays and a (rows, K) coefficient
# array, so its memory grows with d^2. Picked from the peak RSS of the
# logistic trajectory benchmark (d = 20, K = 100, 10,000 oracle rows): 49.5
# MB at 256 rows against 49.9 at 128, 49.7 at 512, 50.9 at 1024 and 56.7 at
# 2048, at the same speed. The chunk moves results at rounding level only.
GRAD_MOMENT_CHUNK = 256


def _as_square(name, value, dim):
    """Normalize a scalar / diagonal vector / full matrix to a (dim, dim) array."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(dim)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ConfigError(f"{name}: diagonal length {arr.shape[0]} != dim {dim}")
        return np.diag(arr)
    if arr.shape != (dim, dim):
        raise ConfigError(f"{name}: expected shape ({dim}, {dim}), got {arr.shape}")
    return (arr + arr.T) / 2.0


def _require_psd(name, mat):
    eigs = np.linalg.eigvalsh(mat)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if eigs[0] < -1e-10 * scale:
        raise ConfigError(f"{name} must be positive semidefinite (min eig {eigs[0]:g})")


@dataclass(frozen=True)
class Dataset:
    """An ordered i.i.d. sample: features (n, p) and labels (n,)."""

    features: np.ndarray
    labels: np.ndarray
    seed: int

    def __len__(self):
        return self.features.shape[0]

    def subset(self, indices):
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.labels[idx], self.seed)


@dataclass(frozen=True)
class QuadraticSpec:
    """Quadratic-gaussian family: loss 0.5 (w - z)^T A (w - z), z ~ N(center, scatter)."""

    curvature: np.ndarray
    center: np.ndarray
    scatter: np.ndarray
    pop_oracle_size: int = 10_000

    family = "quadratic-gaussian"

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        d = center.shape[0]
        a = _as_square("curvature", self.curvature, d)
        s = _as_square("scatter", self.scatter, d)
        _require_psd("scatter", s)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "curvature", a)
        object.__setattr__(self, "scatter", s)

    @property
    def dim(self):
        return self.center.shape[0]


@dataclass(frozen=True)
class LogisticSpec:
    """Two-Gaussian binary classification with a linear logistic model."""

    dim: int
    mean0: np.ndarray
    mean1: np.ndarray
    cov: np.ndarray = 1.0
    balance: float = 0.5
    l2: float = 0.0
    pop_oracle_size: int = 10_000

    family = "logistic-two-gaussians"

    def __post_init__(self):
        m0 = np.asarray(self.mean0, dtype=float)
        m1 = np.asarray(self.mean1, dtype=float)
        if m0.shape != (self.dim,) or m1.shape != (self.dim,):
            raise ConfigError("class means must have shape (dim,)")
        cov = _as_square("cov", self.cov, self.dim)
        _require_psd("cov", cov)
        if not 0.0 < self.balance < 1.0:
            raise ConfigError(f"balance must lie in (0, 1), got {self.balance}")
        if self.l2 < 0.0:
            raise ConfigError("l2 must be nonnegative")
        object.__setattr__(self, "mean0", m0)
        object.__setattr__(self, "mean1", m1)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class MlpSpec:
    """Teacher-student MLP: standard-normal inputs, labels from a fixed teacher."""

    in_dim: int
    hidden: int
    classes: int
    teacher_seed: int = 0
    teacher_scale: float = 1.0
    pop_oracle_size: int = 10_000

    family = "mlp-teacher"

    def __post_init__(self):
        if min(self.in_dim, self.hidden, self.classes) < 1:
            raise ConfigError("in_dim, hidden, classes must all be >= 1")
        if self.classes < 2:
            raise ConfigError("classes must be >= 2")


def _psd_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def _sample(spec, rng, n):
    if isinstance(spec, QuadraticSpec):
        noise = rng.standard_normal((n, spec.dim))
        feats = spec.center + noise @ _psd_sqrt(spec.scatter)
        return feats, np.zeros(n)
    if isinstance(spec, LogisticSpec):
        labels = (rng.random(n) < spec.balance).astype(int)
        noise = rng.standard_normal((n, spec.dim)) @ _psd_sqrt(spec.cov)
        means = np.where(labels[:, None] == 1, spec.mean1, spec.mean0)
        return means + noise, labels
    if isinstance(spec, MlpSpec):
        feats = rng.standard_normal((n, spec.in_dim))
        _, logits = _mlp_forward(*_teacher_params(spec), feats)
        probs = _softmax(logits)
        u = rng.random(n)
        labels = np.minimum(
            (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1), spec.classes - 1
        )
        return feats, labels
    raise ConfigError(f"unknown spec type {type(spec).__name__}")


def generate_dataset(spec, seed, n):
    """Draw n i.i.d. examples; bit-identical for equal (spec, seed, n)."""
    if n < 1:
        raise ConfigError(f"dataset size must be >= 1, got {n}")
    rng = substream(seed, "train-data")
    feats, labels = _sample(spec, rng, n)
    return Dataset(feats, labels, seed)


def population_oracle_sample(spec, seed):
    """A large held-out sample standing in for the data distribution.

    Drawn from the stream (seed, "population-oracle"), disjoint by construction
    from the training stream (seed, "train-data") even at equal seeds.
    """
    if spec.pop_oracle_size < 1:
        raise ConfigError("pop_oracle_size must be >= 1")
    rng = substream(seed, "population-oracle")
    feats, labels = _sample(spec, rng, spec.pop_oracle_size)
    return Dataset(feats, labels, seed)


class _StateGradients:
    """The per-example gradients of ``problem`` at the rows of a (K, d) state
    stack ``ws``, with their leave-one-out leverages: what
    ``state_gradients`` gives for a family without a stacked kernel.

    Each state's gradients are evaluated at most once, on first use, and
    kept while the object lives, so the leverages and any explicit
    leave-one-out covariance of one state read one pass. The leverages loop
    over the states with the one-state formula, so they keep its bits.
    """

    def __init__(self, problem, ws, features, labels):
        self.problem, self.ws = problem, ws
        self.features, self.labels = features, labels
        self._grads = {}

    def per_example(self, k):
        """The (n, d) per-example gradients at ``ws[k]``."""
        if k not in self._grads:
            self._grads[k] = self.problem.per_example_grads(
                self.ws[k], self.features, self.labels)
        return self._grads[k]

    def leverages(self, index, c):
        """The leverages u^T C^{-1} u and squared norms |u|^2, (K', n) each,
        of the centered per-example gradients u at the states ``ws[index]``,
        with C^{-1} from the floored eigenpairs of the stacked SpdMatrix
        ``c`` of those states; here ``sum_j (u . q_j)^2 / lambda_j``."""
        states = np.arange(len(self.ws))[index]
        lev = np.empty((len(states), len(self.features)))
        sq = np.empty_like(lev)
        for j, k in enumerate(states):
            grads = self.per_example(k)
            u = grads - grads.mean(axis=0)
            lev[j] = np.sum((u @ c.eigenvectors[j]) ** 2 / c.eigenvalues[j], axis=1)
            sq[j] = np.sum(u * u, axis=1)
        return lev, sq


class _LogisticStateGradients(_StateGradients):
    """:class:`_StateGradients` whose leverages come from the logistic
    family's GEMM kernel, which forms no per-example gradient."""

    def leverages(self, index, c):
        return self.problem.grad_leverages(self.ws[index], self.features,
                                           self.labels, c)


def _gradient_coefficients(margins, sign):
    """The logistic per-example gradient coefficients ``-sign *
    sigmoid(-sign * margins)``, in place of the margins ``x . w``."""
    margins *= sign
    np.exp(margins, out=margins)
    margins += 1.0
    np.divide(-sign, margins, out=margins)
    return margins


def _class_reduce(ufunc, x):
    """``ufunc`` folded over the last axis, left to right, one column at a time.

    The result keeps that axis (length 1). On a narrow class axis this is far
    faster than ``ufunc.reduce(x, axis=-1, keepdims=True)``, whose cost there
    is numpy's per-row loop overhead, not the arithmetic. ``np.maximum`` gives
    the same result as ``x.max(axis=-1, keepdims=True)`` for any width.
    ``np.add`` gives the same bits as ``x.sum(axis=-1, keepdims=True)`` for
    widths below 8, which numpy also sums left to right; from 8 on, numpy's
    pairwise sum keeps 8 partial sums, so the last bits may differ. The last
    axis must have length at least 2.
    """
    out = ufunc(x[..., 0:1], x[..., 1:2])
    for j in range(2, x.shape[-1]):
        ufunc(out, x[..., j:j + 1], out=out)
    return out


def _softmax(logits):
    e = logits - _class_reduce(np.maximum, logits)
    np.exp(e, out=e)
    e /= _class_reduce(np.add, e)
    return e


class _Family:
    """What the three problem families share, each overridden only where a
    family differs: the defaults ``has_accuracy`` and ``has_constant_noise``,
    the identity ``full_batch_data``, and the per-state ``grad_moments`` and
    ``state_gradients`` built on the family's ``per_example_grads``."""

    has_accuracy = True
    has_constant_noise = False

    def full_batch_data(self, features, labels):
        """The inputs: the gradient reads every example."""
        return features, labels

    def grad_moments(self, ws, features, labels):
        """``gnc_from_grads`` of the per-example gradients at each row of the
        (K, d) stack ``ws``, stacked as ((K, d, d), (K, d)), one state at a
        time, so each keeps the bits of the one-state formula."""
        sigma = np.empty((len(ws), self.dim, self.dim))
        mean = np.empty((len(ws), self.dim))
        for k, w in enumerate(ws):
            sigma[k], mean[k] = gnc_from_grads(self.per_example_grads(
                w, features, labels))
        return sigma, mean

    def state_gradients(self, ws, features, labels):
        return _StateGradients(self, ws, features, labels)


class QuadraticProblem(_Family):
    """ℓ(w, z) = 0.5 (w - z)^T A (w - z); Hessian A everywhere.

    The centered per-example gradients (x̄ - x_i) A do not depend on w, so
    neither does the gradient-noise covariance (``has_constant_noise``).
    """

    has_accuracy = False
    has_constant_noise = True

    def __init__(self, spec):
        self.spec = spec
        self.a = spec.curvature
        self.dim = spec.dim

    def per_example_losses(self, w, features, labels):
        diff = w - features
        return 0.5 * np.sum((diff @ self.a) * diff, axis=1)

    def mean_loss(self, w, features, labels):
        return float(np.mean(self.per_example_losses(w, features, labels)))

    def per_example_grads(self, w, features, labels):
        return (w - features) @ self.a

    def mean_grad(self, w, features, labels):
        return np.matmul(self.a, (w - features.mean(axis=-2))[..., None])[..., 0]

    def full_batch_data(self, features, labels):
        """The feature mean as one row, and one label column. ``mean_grad``
        reduces that row to the same mean: a one-row mean is exact, so the
        gradient keeps its bits at every w."""
        return features.mean(axis=-2, keepdims=True), labels[..., :1]

    def hessian_operator(self, w, features, labels):
        a = self.a
        return lambda v: a @ np.asarray(v, dtype=float)

    def hvp(self, w, features, labels, v):
        return self.hessian_operator(w, features, labels)(v)


class LogisticProblem(_Family):
    """Binary logistic regression with labels in {0, 1} and optional L2 term."""

    def __init__(self, spec):
        self.spec = spec
        self.l2 = spec.l2
        self.dim = spec.dim

    def _margins(self, w, features, labels):
        sign = 2.0 * labels - 1.0
        return sign, sign * (features @ w)

    def per_example_losses(self, w, features, labels):
        _, m = self._margins(w, features, labels)
        return np.logaddexp(0.0, -m) + 0.5 * self.l2 * float(w @ w)

    def mean_loss(self, w, features, labels):
        return float(np.mean(self.per_example_losses(w, features, labels)))

    def per_example_grads(self, w, features, labels):
        sign, m = self._margins(w, features, labels)
        coef = -sign / (1.0 + np.exp(m))  # -sign * sigmoid(-margin)
        grads = coef[:, None] * features
        if self.l2:
            grads += self.l2 * w
        return grads

    def mean_grad(self, w, features, labels):
        sign = 2.0 * labels - 1.0
        m = sign * np.matmul(features, w[..., None])[..., 0]
        coef = -sign / (1.0 + np.exp(m))
        grad = np.matmul(features.swapaxes(-1, -2), coef[..., None])[..., 0]
        return grad / coef.shape[-1] + self.l2 * w

    def grad_moments(self, ws, features, labels):
        """The per-example gradient moments at each row of the (K, d) stack
        ``ws``, as ``gnc_from_grads`` gives them (divisor n, symmetric), up to
        rounding.

        Example i's gradient is c_i x_i + l2 w with c_i the coefficient of
        ``per_example_grads``, and the l2 term shifts only the mean. So over
        ``GRAD_MOMENT_CHUNK`` rows at a time, one GEMM gives the K margins,
        one ``x^T C`` the first moments and one of the rows' upper-triangle
        products x_i x_i^T against C^2 the second; ``mean mean^T`` is
        subtracted once at the end.
        """
        n, d = features.shape
        iu, ju = np.triu_indices(d)
        first = np.zeros((d, len(ws)))
        second = np.zeros((len(iu), len(ws)))
        sign = (2.0 * labels - 1.0)[:, None]
        for lo in range(0, n, GRAD_MOMENT_CHUNK):
            x = features[lo:lo + GRAD_MOMENT_CHUNK]
            coef = _gradient_coefficients(x @ ws.T, sign[lo:lo + GRAD_MOMENT_CHUNK])
            first += x.T @ coef
            coef *= coef
            products = x[:, iu]
            products *= x[:, ju]
            second += products.T @ coef
        mean = first.T / n
        sigma = np.empty((len(ws), d, d))
        sigma[:, iu, ju] = sigma[:, ju, iu] = (second.T / n
                                               - mean[:, iu] * mean[:, ju])
        return sigma, mean + self.l2 * ws

    def state_gradients(self, ws, features, labels):
        return _LogisticStateGradients(self, ws, features, labels)

    def grad_leverages(self, ws, features, labels, c):
        """The leverages u^T C^{-1} u and squared norms |u|^2, (K, n) each,
        of the centered per-example gradients u at each row of the (K, d)
        stack ``ws``, with C^{-1} from the floored eigenpairs of the stacked
        SpdMatrix ``c``; equal to the per-state formula of
        :class:`_StateGradients` up to rounding.

        u_i = c_i x_i - mean, with mean the mean of the c_i x_i: the l2 term
        cancels. So with M = C^{-1}, l_i = c_i^2 x_i^T M x_i
        - 2 c_i x_i^T M mean + mean^T M mean, and |u_i|^2 expands alike with
        M = I. Over ``GRAD_MOMENT_CHUNK`` rows at a time, the x_i^T M x_i of
        all K states come from one GEMM of the rows' upper-triangle products
        x_i x_i^T against M's upper triangle, off-diagonal entries doubled.
        No per-example gradient is formed.
        """
        n, d = features.shape
        iu, ju = np.triu_indices(d)
        q = c.eigenvectors
        inv = (q / c.eigenvalues[:, None, :]) @ q.swapaxes(-1, -2)
        upper = inv[:, iu, ju] * np.where(iu == ju, 1.0, 2.0)
        coef = _gradient_coefficients(ws @ features.T, 2.0 * labels - 1.0)
        lev = np.empty_like(coef)
        xt = features.T
        for lo in range(0, n, GRAD_MOMENT_CHUNK):
            rows = slice(lo, lo + GRAD_MOMENT_CHUNK)
            products = xt[iu, rows]
            products *= xt[ju, rows]
            np.matmul(upper, products, out=lev[:, rows])
        mean = coef @ features / n
        inv_mean = np.matmul(inv, mean[:, :, None])[:, :, 0]
        # (c x^T M x - 2 x^T M mean) c + mean^T M mean, in place; doubling
        # an operand is exact.
        lev *= coef
        lev -= (2.0 * inv_mean) @ xt
        lev *= coef
        lev += np.vecdot(mean, inv_mean)[:, None]
        sq = coef * np.vecdot(features, features)
        sq -= (2.0 * mean) @ xt
        sq *= coef
        sq += np.vecdot(mean, mean)[:, None]
        return lev, sq

    def hessian_operator(self, w, features, labels):
        p = 1.0 / (1.0 + np.exp(-(features @ w)))
        r = p * (1.0 - p)  # per-example curvatures
        n, l2 = len(r), self.l2

        def apply(v):
            v = np.asarray(v, dtype=float)
            return features.T @ (r * (features @ v)) / n + l2 * v

        return apply

    def hvp(self, w, features, labels, v):
        return self.hessian_operator(w, features, labels)(v)

    def accuracy(self, w, features, labels):
        return float(np.mean((features @ w > 0).astype(int) == labels))


def _mlp_forward(w1, b1, w2, b2, features):
    """Hidden activations and logits of the tanh network, computed in place:
    no temporaries besides the two results."""
    hid = features @ w1.T
    hid += b1
    np.tanh(hid, out=hid)
    logits = hid @ w2.T
    logits += b2
    return hid, logits


def _teacher_params(spec):
    rng = substream(spec.teacher_seed, "teacher")
    w1 = spec.teacher_scale * rng.standard_normal((spec.hidden, spec.in_dim))
    w1 /= np.sqrt(spec.in_dim)
    b1 = 0.1 * rng.standard_normal(spec.hidden)
    w2 = spec.teacher_scale * rng.standard_normal((spec.classes, spec.hidden))
    w2 /= np.sqrt(spec.hidden)
    b2 = 0.1 * rng.standard_normal(spec.classes)
    return w1, b1, w2, b2


class MlpProblem(_Family):
    """One-hidden-layer tanh network with softmax cross-entropy.

    The flat parameter vector packs (W1, b1, W2, b2) in that order. Gradients
    come from hand-derived backpropagation. ``hessian_operator`` runs the
    forward pass, softmax and backward seeds once per state and returns the
    R-operator (directional derivative of the backward pass) at that state, so
    each Hessian-vector product after the first costs roughly two backward
    passes and needs no second-order symbolic work.

    Reductions over the class axis run column by column (``_class_reduce``)
    and the forward pass works in place (``_mlp_forward``). The forward pass
    gives the same bits as the plain formula, and the class sums the same
    bits as numpy's for fewer than 8 classes.
    """

    def __init__(self, spec):
        self.spec = spec
        self.p = spec.in_dim
        self.h = spec.hidden
        self.k = spec.classes
        self.dim = self.h * self.p + self.h + self.k * self.h + self.k

    def unpack(self, w):
        p, h, k = self.p, self.h, self.k
        w = np.asarray(w, dtype=float)
        i = 0
        w1 = w[i:i + h * p].reshape(h, p); i += h * p
        b1 = w[i:i + h]; i += h
        w2 = w[i:i + k * h].reshape(k, h); i += k * h
        b2 = w[i:i + k]
        return w1, b1, w2, b2

    def pack(self, w1, b1, w2, b2):
        return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])

    def _forward(self, w, features):
        w1, b1, w2, b2 = self.unpack(w)
        return (w1, b1, w2, b2) + _mlp_forward(w1, b1, w2, b2, features)

    def per_example_losses(self, w, features, labels):
        *_, logits = self._forward(w, features)
        logits -= _class_reduce(np.maximum, logits)
        logz = np.log(_class_reduce(np.add, np.exp(logits))[:, 0])
        logz -= logits[np.arange(len(labels)), labels.astype(int)]
        return logz

    def mean_loss(self, w, features, labels):
        return float(np.mean(self.per_example_losses(w, features, labels)))

    def _backward_seeds(self, logits, labels):
        probs = _softmax(logits)
        d_logits = probs.copy()
        d_logits[np.arange(len(labels)), labels.astype(int)] -= 1.0
        return probs, d_logits

    def per_example_grads(self, w, features, labels):
        w1, b1, w2, b2, hid, logits = self._forward(w, features)
        _, d_logits = self._backward_seeds(logits, labels)
        d_hid = d_logits @ w2
        d_pre = (1.0 - hid * hid) * d_hid
        n = features.shape[0]
        grads = np.empty((n, self.dim))
        grads[:, : self.h * self.p] = np.einsum("nh,np->nhp", d_pre, features).reshape(n, -1)
        i = self.h * self.p
        grads[:, i:i + self.h] = d_pre
        i += self.h
        grads[:, i:i + self.k * self.h] = np.einsum("nk,nh->nkh", d_logits, hid).reshape(n, -1)
        i += self.k * self.h
        grads[:, i:] = d_logits
        return grads

    def mean_grad(self, w, features, labels):
        p, h, k = self.p, self.h, self.k
        i, j, l = h * p, h * p + h, h * p + h + k * h
        lead = w.shape[:-1]
        w1 = w[..., :i].reshape(lead + (h, p))
        w2 = w[..., j:l].reshape(lead + (k, h))
        hid = np.tanh(np.matmul(features, w1.swapaxes(-1, -2)) + w[..., None, i:j])
        d_logits = _softmax(np.matmul(hid, w2.swapaxes(-1, -2)) + w[..., None, l:])
        # Subtracting the one-hot labels (1.0 or 0.0) is exact, like
        # subtracting 1.0 at each label, and needs no stacked fancy index.
        d_logits -= labels[..., None] == np.arange(k)
        d_logits /= features.shape[-2]
        d_pre = (1.0 - hid * hid) * np.matmul(d_logits, w2)
        return np.concatenate([
            np.matmul(d_pre.swapaxes(-1, -2), features).reshape(lead + (-1,)),
            d_pre.sum(axis=-2),
            np.matmul(d_logits.swapaxes(-1, -2), hid).reshape(lead + (-1,)),
            d_logits.sum(axis=-2),
        ], axis=-1)

    def hessian_operator(self, w, features, labels):
        w1, b1, w2, b2, hid, logits = self._forward(w, features)
        n = features.shape[0]
        probs, d_logits = self._backward_seeds(logits, labels)
        d_hid = d_logits @ w2
        tanh_deriv = 1.0 - hid * hid
        two_hid = 2.0 * hid

        def apply(v):
            v1, c1, v2, c2 = self.unpack(v)
            # Forward sweep of the R-operator.
            r_pre = features @ v1.T + c1
            r_hid = tanh_deriv * r_pre
            r_logits = hid @ v2.T + r_hid @ w2.T + c2
            p_r = probs * r_logits
            # d_logits is probs minus a constant, so it moves with the softmax.
            r_dlogits = p_r - probs * _class_reduce(np.add, p_r)

            # Backward sweep: differentiate each gradient quantity along v.
            r_dhid = d_logits @ v2 + r_dlogits @ w2
            r_dpre = tanh_deriv * r_dhid - two_hid * r_hid * d_hid
            return self.pack(
                r_dpre.T @ features / n,
                r_dpre.sum(axis=0) / n,
                (r_dlogits.T @ hid + d_logits.T @ r_hid) / n,
                r_dlogits.sum(axis=0) / n,
            )

        return apply

    def hvp(self, w, features, labels, v):
        return self.hessian_operator(w, features, labels)(v)

    def accuracy(self, w, features, labels):
        *_, logits = self._forward(w, features)
        return float(np.mean(np.argmax(logits, axis=1) == labels.astype(int)))

    def init_from_teacher(self, scale=1.0):
        """Teacher parameters scaled by ``scale``, handy as a warm start."""
        return scale * self.pack(*_teacher_params(self.spec))


def build_problem(spec):
    """Instantiate the problem class matching a data spec."""
    if isinstance(spec, QuadraticSpec):
        return QuadraticProblem(spec)
    if isinstance(spec, LogisticSpec):
        return LogisticProblem(spec)
    if isinstance(spec, MlpSpec):
        return MlpProblem(spec)
    raise ConfigError(f"unknown spec type {type(spec).__name__}")


def dense_hessian(problem, w, features, labels):
    """Dense Hessian at ``w``: the symmetrized columns H e_j of one Hessian
    operator built there (on a quadratic, A itself)."""
    d = problem.dim
    hess = problem.hessian_operator(w, features, labels)
    h = np.empty((d, d))
    basis = np.zeros(d)
    for j in range(d):
        basis[j] = 1.0
        h[:, j] = hess(basis)
        basis[j] = 0.0
    return (h + h.T) / 2.0

