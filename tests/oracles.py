"""Reference computations that only the tests use.

They check the library against independent formulas and are kept out of
``src/`` because no library code calls them: the Hutchinson trace and the
spectral summary, the per-state gradient snapshot and the leave-one-out
pieces, the trajectory tape's scalars from whole-run stacks, Gaussian KL
arithmetic, the quadratic family's analytic population
moments, the closed-form prior objectives behind the bounds, and a frozen copy
of the MLP kernels written with numpy's own class-axis reductions and no
in-place steps, which the library's kernels must match bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from gradnoise.errors import CapabilityError, ConfigError, InvalidInputError
from gradnoise.gradstats import gnc_from_grads, minibatch_factor
from gradnoise.linalg import SpdMatrix, log_det
from gradnoise.problems import QuadraticSpec, _teacher_params, build_problem
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


@dataclass(frozen=True)
class LooQuantities:
    """Subset-J gradient pieces: xi = G_J - G and the subset noise covariance."""

    subset: np.ndarray
    xi: np.ndarray
    loo_gnc: np.ndarray


def loo_quantities(problem, w, dataset, subset, b):
    """Subset-J pieces for the data-dependent prior machinery.

    ``xi = G_J - G`` and ``C_J = (1/b)((1/m) sum_{i in J} g_i g_i^T - G_J G_J^T)``,
    both on the given subset of size m, under the leave-one-out convention
    ``C = Sigma / b``. Requires b < m <= n.
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
    xi = g_j - problem.mean_grad(w, dataset.features, dataset.labels)
    return LooQuantities(subset=subset, xi=xi, loo_gnc=sigma_j / b)


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


def inv_quad(m, x):
    """``x^T M^{-1} x`` from the eigenpairs of an :class:`SpdMatrix`."""
    proj = m.eigenvectors.T @ x
    return float(np.sum(proj * proj / m.eigenvalues))


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
        + inv_quad(q.cov, delta)
        + q.cov.inv_trace_product(p.cov.matrix)
    )


def quadratic_population_moments(spec, w):
    """Analytic (population gradient, population GNC, Hessian) for the quadratic family.

    pop_grad = A (w - center); pop_gnc = A scatter A; hessian = A.
    """
    if not isinstance(spec, QuadraticSpec):
        raise CapabilityError(
            "analytic population moments are only available for quadratic-gaussian specs"
        )
    w = np.asarray(w, dtype=float)
    a = spec.curvature
    pop_grad = a @ (w - spec.center)
    pop_gnc = a @ spec.scatter @ a
    return pop_grad, (pop_gnc + pop_gnc.T) / 2.0, a.copy()


def isotropic_step_kl(sigma_sq, h1, h2, d):
    """KL between one SDE transition and an isotropic prior step, as a
    function of the prior variance scale.

    Closed form (step size cancels): 0.5 * (h1/sigma_sq - d + d log sigma_sq
    - h2), minimized at sigma_sq = h1/d.
    """
    if sigma_sq <= 0:
        raise ConfigError("sigma_sq must be positive")
    return 0.5 * (h1 / sigma_sq - d + d * np.log(sigma_sq) - h2)


def anisotropic_prior_objective(c_tilde, pop_gnc, gnc, mahalanobis=0.0):
    """Twice the per-step KL against a population-shaped prior with scale
    c_tilde, ``mahalanobis`` the mean term (G - g~)^T pop_gnc^{-1} (G - g~);
    minimized at c_tilde = (tr(pop_gnc^{-1} gnc) + mahalanobis) / d.
    """
    if c_tilde <= 0:
        raise ConfigError("c_tilde must be positive")
    d = pop_gnc.dim
    cross = pop_gnc.inv_trace_product(gnc.matrix)
    return (d * np.log(c_tilde) + log_det(pop_gnc) - log_det(gnc) - d
            + (cross + mahalanobis) / c_tilde)


def identity_form_terms(tape, h2):
    """Isotropic per-step terms d log(h1/d) - h2 with h1 the identity
    estimate, the mean across runs of tr P / b (P the population GNC of a
    tape with population statistics), and ``h2`` the isotropic report's
    series: the isotropic term had b C_t equalled P_t and the reference
    gradient been the population one.
    """
    d = tape.dim
    h1 = np.mean(tape.trace_pop / tape.config.b, axis=1)
    return d * np.log(h1 / d) - h2


def isotropic_terminal_kl(sigma_sq, msd, d, eta, b):
    """KL of the terminal-weight Gaussian surrogate against an isotropic
    prior of variance sigma_sq; minimized at sigma_sq = msd/d + eta/(2b).
    """
    if sigma_sq <= 0:
        raise ConfigError("sigma_sq must be positive")
    base = eta / (2.0 * b)
    return 0.5 * (d * np.log(sigma_sq) - d * np.log(base) - d
                  + (msd + d * base) / sigma_sq)


def mlp_forward(problem, w, features):
    """The MLP forward pass with one temporary per operation:
    (w1, b1, w2, b2, pre, hid, logits)."""
    w1, b1, w2, b2 = problem.unpack(w)
    pre = features @ w1.T + b1
    hid = np.tanh(pre)
    logits = hid @ w2.T + b2
    return w1, b1, w2, b2, pre, hid, logits


def softmax(logits):
    """Softmax over the last axis with numpy's max and sum reductions."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mlp_per_example_losses(problem, w, features, labels):
    """Softmax cross-entropy per example, with numpy's class-axis reductions."""
    *_, logits = mlp_forward(problem, w, features)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    idx = np.arange(len(labels))
    return logz - shifted[idx, labels.astype(int)]


def mlp_sample(spec, rng, n):
    """The MLP family's (features, labels) draw from ``rng``."""
    feats = rng.standard_normal((n, spec.in_dim))
    teacher = _teacher_params(spec)
    logits = np.tanh(feats @ teacher[0].T + teacher[1]) @ teacher[2].T + teacher[3]
    probs = softmax(logits)
    u = rng.random(n)
    labels = np.minimum(
        (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1), spec.classes - 1
    )
    return feats, labels


def stacked_tape_scalars(records, floor_scales, prior, leave_one_out=None):
    """The trajectory tape's per-state fields of the records, which must all
    be usable, the way the tape took them before it went a chunk of states
    at a time: every run's moments on its dataset and oracle, stacked (K,
    R, d, d); one decomposition of each whole stack; then ``log_det`` at
    each of ``floor_scales`` (``refloored``) and the floored flags; and
    ``prior``, the library's kernel of the population-shaped prior's
    quadratic terms, applied once to the whole stacks of P, C and the mean
    gradients.

    ``leave_one_out``, a pair (the library's gap kernel, a state chunk),
    adds the ``loo_gap`` and ``loo_floored`` fields as the data-dependent
    bound took them then: each run's states a chunk at a time through
    ``state_gradients``, against slices of the whole stack of C rescaled
    to Sigma/b. So it checks where the tape cuts its decompositions, not
    the kernel, which the enumeration tests pin.
    """
    cfg = records[0].config
    n, b = cfg.n, cfg.b
    problem = build_problem(cfg.spec)
    raw = {"c": [], "pop": []}
    grads = {"c": [], "pop": []}
    for rec in records:
        ws = rec.weights[:-1]
        for suffix, data in (("c", rec.dataset), ("pop", rec.oracle)):
            sigma, grad = problem.grad_moments(ws, data.features, data.labels)
            raw[suffix].append(sigma)
            grads[suffix].append(grad)
        raw["c"][-1] *= minibatch_factor(n, b)
    out, stacks = {}, {}
    for suffix, mats in raw.items():
        mats = np.stack(mats, axis=1)
        stacks[suffix] = spd = SpdMatrix.from_matrix(mats)
        out[f"trace_{suffix}"] = np.trace(mats, axis1=-2, axis2=-1)
        out[f"log_det_{suffix}"] = {s: log_det(spd.refloored(s)) for s in floor_scales}
        out[f"floored_{suffix}"] = spd.floored_each
    out.update(prior(stacks["pop"], np.stack(raw["c"], axis=1),
                     *(np.stack(grads[suffix], axis=1) for suffix in ("c", "pop"))))
    if leave_one_out is not None:
        gaps, chunk = leave_one_out
        to_loo = (n - 1) / (n - b)
        shape = out["trace_c"].shape
        out["loo_gap"] = {s: np.empty(shape) for s in floor_scales}
        out["loo_floored"] = np.empty(shape, dtype=bool)
        for r, rec in enumerate(records):
            c = stacks["c"][:, r].scaled(to_loo)
            for lo in range(0, shape[0], chunk):
                part = slice(lo, lo + chunk)
                got, out["loo_floored"][part, r] = gaps(
                    problem.state_gradients(rec.weights[:-1][part],
                                            rec.dataset.features,
                                            rec.dataset.labels),
                    c[part], to_loo * out["trace_c"][part, r], b)
                for s in floor_scales:
                    out["loo_gap"][s][part, r] = got[s]
    return out
