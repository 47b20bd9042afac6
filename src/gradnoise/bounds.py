"""Generalization-bound estimators evaluated from runs of the dynamics module.

Two families live here. Trajectory bounds fold per-step KL surrogate terms
over an entire run (statistics taken at each pre-update state); terminal
bounds look only at the distribution of final weights across an ensemble,
a sequence of TrajectoryRecords sharing their run shape (the records of
``dynamics.run_ensemble``), grouped by the seed of the dataset each carries.
Every estimator returns a BoundReport whose ``core`` is the bound with the
loss-range constants R and M set to 1 and whose ``value`` is exactly
``core * R`` or ``core * M``; which constant applies is part of each bound's
contract.

Expectations over datasets and over algorithmic randomness are plug-in
estimates: statistics are averaged across the records or ensemble members
supplied, and ``n_runs_used`` records how many that was. Every bound
leaves diverged runs out by one rule (:func:`_usable_runs`), wherever they
were cut, and flags ``diverged-runs`` when it did.

Every bound reads its run shape from one TrainConfig, the one its records
share (:func:`_shared_config`; a TrajectoryTape keeps it as ``config``), and
every report's ``n``, ``b``, ``eta`` and ``T`` come from it by one rule
(:func:`_run_setting`, eta at step T; gradient accumulation reports the
largest eta instead). The five bounds read from logged trajectories flag
diverged runs and a logging cadence above 1 by one rule as well
(:func:`_trajectory_flags`). A TrajectoryTape holds its runs' per-step
statistics as arrays laid out (step, run, ...), its GNCs as one stacked
SpdMatrix each, so the three tape bounds are reductions over the run axis.

Six bounds use eigenvalue-floored matrices: trajectory isotropic,
anisotropic and data-dependent, terminal general and anisotropic, and
fim-takeuchi. Each is written as a function of the floor scale and goes
through one rule (:func:`_floor_sensitive`): when a floor fires at 1x the
report is flagged ``floored-log`` and ``core_at_10x_floor`` is attached, the
same core with every floor raised tenfold, from the same eigendecompositions
(:meth:`SpdMatrix.refloored`), so bound values never silently depend on the
regularizer. Every report is built by :func:`_report`: the core is a mean of
square roots over groups (records, dataset seeds, or a single group), over a
constant divisor for fim-takeuchi; each root argument is clipped at 0, and
the report is flagged ``nonpositive-sum`` once if any was negative.
"""

import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigError, GradnoiseError, NumericalError, StabilityError
from .gradstats import empirical_gnc, gnc_from_grads, minibatch_factor, minibatch_gnc
from .linalg import (
    DEFAULT_FLOOR_ABS,
    SpdMatrix,
    eigenvalue_floor,
    log_det,
    trace_log_diag,
)
from .problems import build_problem, dense_hessian
from .spectral import stability_gap

FLOOR_SENSITIVITY_SCALE = 10.0


@dataclass
class BoundReport:
    name: str
    value: float
    core: float
    per_step_terms: np.ndarray | None
    components: dict
    config: dict
    n_runs_used: int
    flags: tuple
    extra_series: dict | None = None


@dataclass(frozen=True)
class TrajectoryTape:
    """Per-step, per-run statistics recomputed from the logged weights of
    the usable (non-diverged) runs, as arrays laid out (step, run, ...).

    ``steps[k]`` is the update the k-th represented state feeds (its logged
    step plus 1); ``grad`` and ``pop_grad`` (K, R, d) are the mean training
    and oracle-sample gradients at it, ``gnc`` and ``pop_gnc`` one stacked
    :class:`SpdMatrix` (K, R, d, d) each of the exact-factor mini-batch GNC
    and the population GNC, and ``trace_c`` and ``trace_pop`` (K, R) their
    unfloored traces. The ``pop_*`` fields are None without population
    statistics. ``config`` is the TrainConfig the records share; its n, b,
    T, mode and schedule are the tape's. With logging cadence
    ``config.log_every`` 1 every update is represented; a coarser cadence
    represents each logged state for ``log_every`` updates and bound sums are
    rescaled accordingly (flagged ``approximate-cadence``).
    ``any_diverged`` says a record was left out because its run diverged.
    """

    steps: np.ndarray
    grad: np.ndarray
    gnc: SpdMatrix
    trace_c: np.ndarray
    pop_grad: np.ndarray | None
    pop_gnc: SpdMatrix | None
    trace_pop: np.ndarray | None
    config: object
    any_diverged: bool

    @property
    def n_steps(self):
        return self.grad.shape[0]

    @property
    def n_runs(self):
        return self.grad.shape[1]

    @property
    def dim(self):
        return self.grad.shape[2]

    @property
    def has_population(self):
        return self.pop_gnc is not None


def _shared_config(records):
    """The config of the first trajectory record. Every record must share its
    n, b, steps, schedule, cadence and mode, which the record-fed bounds read
    from it."""
    if not records:
        raise ConfigError("need at least one trajectory record")
    first = records[0].config
    shared = (first.n, first.b, first.steps, first.lr_schedule,
              first.log_every, first.mode)
    for rec in records:
        c = rec.config
        if (c.n, c.b, c.steps, c.lr_schedule, c.log_every, c.mode) != shared:
            raise ConfigError("trajectory records must share n, b, steps, "
                              "schedule, cadence, and mode")
    return first


def _usable_runs(records):
    """The shared config of the records, the non-diverged ones among them
    and the flags they raise. Every bound that reads records or a tape
    evaluates these runs only."""
    cfg = _shared_config(records)
    runs = [r for r in records if not r.diverged]
    if not runs:
        raise GradnoiseError("ensemble has no usable (non-diverged) runs")
    return cfg, runs, [] if len(runs) == len(records) else ["diverged-runs"]


def tape_from_records(records, population=False):
    """Build a TrajectoryTape from the gradient moments at logged weights.

    Records must have been produced with ``record_weights=True`` and share
    their shape-determining config fields. Diverged records are left out, as
    every ensemble bound leaves them out (:func:`_usable_runs`), and the
    tape says so in ``any_diverged``. Each record's gradients are taken on
    the dataset it carries, and with ``population`` on its oracle sample.
    Statistics at the final logged state are not included: sums run over
    pre-update states only.
    """
    config, runs, _ = _usable_runs(records)
    if any(rec.weights is None for rec in runs):
        raise ConfigError("tape requires record_weights=True runs")
    factor = minibatch_factor(config.n, config.b)
    shape = (len(runs[0].steps) - 1, len(runs), runs[0].final_w.shape[0])
    grad, raw_c = np.empty(shape), np.empty(shape + shape[-1:])
    pop_grad, raw_pop = ((np.empty_like(grad), np.empty_like(raw_c)) if population
                         else (None, None))
    for r, rec in enumerate(runs):
        problem = build_problem(rec.config.spec)
        ws, dataset, oracle = rec.weights[:-1], rec.dataset, rec.oracle
        sigma, grad[:, r] = problem.grad_moments(ws, dataset.features,
                                                 dataset.labels)
        raw_c[:, r] = factor * sigma
        if population:
            raw_pop[:, r], pop_grad[:, r] = problem.grad_moments(
                ws, oracle.features, oracle.labels)
    return TrajectoryTape(
        steps=runs[0].steps[:-1] + 1,
        grad=grad,
        gnc=SpdMatrix.from_matrix(raw_c),
        trace_c=np.trace(raw_c, axis1=-2, axis2=-1),
        pop_grad=pop_grad,
        pop_gnc=SpdMatrix.from_matrix(raw_pop) if population else None,
        trace_pop=np.trace(raw_pop, axis1=-2, axis2=-1) if population else None,
        config=config,
        any_diverged=len(runs) < len(records),
    )


def _reference_gradient(g_tilde, tape):
    """The reference gradient entering the trajectory priors, (K, R, d) or 0.

    It must not depend on the training sample: ``g_tilde`` is "zero" or
    "population-gradient" (estimated from the oracle sample).
    """
    if g_tilde == "zero":
        return 0.0
    if g_tilde != "population-gradient":
        raise ConfigError(f"unknown g-tilde kind {g_tilde!r}")
    if tape.pop_grad is None:
        raise ConfigError("population-gradient g-tilde needs a tape built "
                          "with population=True")
    return tape.pop_grad


def _core(roots, divisor=1.0):
    """Mean of the square roots of ``roots``, each clipped at 0, over
    ``divisor``: the one shape every core takes."""
    return float(np.mean([np.sqrt(max(r, 0.0)) for r in roots])) / divisor


def _floor_sensitive(evaluate, flags, components, divisor=1.0):
    """Apply the floor-sensitivity rule to a bound written as a function of
    the floor scale.

    ``evaluate(scale)`` returns ``(roots, floored, *detail)`` with every
    eigenvalue floor at ``scale`` times its default, the core being
    ``_core(roots, divisor)``. If a floor fires at 1x, ``floored-log`` joins
    ``flags`` and ``core_at_10x_floor`` joins ``components``. Returns the 1x
    ``(roots, *detail)``.
    """
    roots, floored, *detail = evaluate(1.0)
    if floored:
        flags.append("floored-log")
        components["core_at_10x_floor"] = _core(
            evaluate(FLOOR_SENSITIVITY_SCALE)[0], divisor)
    return roots, *detail


def _report(name, roots, flags, components, n_runs_used, setting, R=None,
            M=None, g_tilde=None, divisor=1.0, per_step_terms=None,
            extra_series=None):
    """The one BoundReport constructor.

    ``core`` is ``_core(roots, divisor)``, flagged ``nonpositive-sum`` once
    if any root argument was clipped; ``value`` is ``core`` times whichever
    of R and M the bound uses. ``setting`` holds the run shape ``n``, ``b``,
    ``eta`` and ``T``.
    """
    if any(r < 0 for r in roots):
        flags.append("nonpositive-sum")
    core = _core(roots, divisor)
    return BoundReport(
        name=name,
        value=(M if R is None else R) * core,
        core=core,
        per_step_terms=per_step_terms,
        components=components,
        config={"R": R, "M": M, **setting, "g_tilde": g_tilde},
        n_runs_used=n_runs_used,
        flags=tuple(flags),
        extra_series=extra_series,
    )


def _run_setting(cfg):
    """The ``setting`` of every report: the run shape of the shared config."""
    return {"n": cfg.n, "b": cfg.b, "eta": cfg.lr_at(cfg.steps), "T": cfg.steps}


def _trajectory_flags(cfg, any_diverged):
    """The flags of a bound read from logged trajectories: ``diverged-runs``
    if any run diverged, then ``approximate-cadence`` if they logged every
    ``log_every`` > 1 updates."""
    return (["diverged-runs"] if any_diverged else []) + (
        ["approximate-cadence"] if cfg.log_every > 1 else [])


def traj_bound_isotropic(tape, g_tilde="zero", R=1.0):
    """Trajectory bound with the best isotropic Gaussian prior per step.

    Per accumulated step the term is d log(h1/d) - h2 with h1 the mean of
    ||G_t - g_tilde||^2 + tr C_t across runs (``g_tilde`` is "zero" or
    "population-gradient", see :func:`_reference_gradient`) and h2 the mean
    log-determinant of the floored mini-batch GNC; the core is sqrt of (1/n)
    times the (cadence-rescaled) sum. With the population-gradient reference
    the report also carries the identity estimate of h1 (population GNC
    trace over b) and the per-step terms it induces, which is the form the
    anisotropic comparison applies to.
    """
    cfg = tape.config
    flags = _trajectory_flags(cfg, tape.any_diverged)
    d = tape.dim
    diff = tape.grad - _reference_gradient(g_tilde, tape)
    h1s = np.mean(np.vecdot(diff, diff) + tape.trace_c, axis=1)
    bad = np.flatnonzero(h1s <= 0)
    if bad.size:
        raise NumericalError(f"h1 <= 0 at step {tape.steps[bad[0]]}")

    def evaluate(scale):
        gnc = tape.gnc.refloored(scale)
        h2s = np.mean(log_det(gnc), axis=1)
        terms = d * np.log(h1s / d) - h2s
        total = cfg.log_every * float(terms.sum())
        return [total / cfg.n], gnc.floored, total, terms, h2s

    components = {}
    roots, total, terms, h2s = _floor_sensitive(evaluate, flags, components)
    components.update({
        "term_sum": total,
        "h1_mean": float(h1s.mean()),
        "h2_mean": float(h2s.mean()),
        "sigma_star_sq_final": float(h1s[-1] / d),
    })
    extra = {"h1": h1s, "h2": h2s}
    if g_tilde == "population-gradient":
        id_h1 = np.mean(tape.trace_pop / cfg.b, axis=1)
        with np.errstate(divide="ignore"):
            id_terms = d * np.log(id_h1 / d) - h2s
        extra["identity_h1"] = id_h1
        extra["identity_per_step_terms"] = id_terms
        components["h1_identity_mean"] = float(id_h1.mean())
        components["h1_discrepancy_mean"] = float(np.mean(np.abs(h1s - id_h1)))
    return _report("trajectory-isotropic", roots, flags, components,
                   tape.n_runs, _run_setting(cfg), R=R,
                   g_tilde=g_tilde, per_step_terms=terms,
                   extra_series=extra)


def traj_bound_langevin(tape, g_tilde="zero", R=1.0):
    """Trajectory bound specialized to identity noise covariance.

    Per-step term log(mean ||G_t - g_tilde||^2 / d + 1); the core multiplies
    the (1/n) sum by d before the square root. Applying it to a run whose
    mode was not gld is allowed but flagged counterfactual. The sum with
    log(x+1) replaced by x (the looser classical form) is reported as a
    component, and per-step looser terms as an extra series.
    """
    cfg = tape.config
    flags = ["counterfactual-mode"] if cfg.mode != "gld" else []
    flags += _trajectory_flags(cfg, tape.any_diverged)
    d = tape.dim
    diff = tape.grad - _reference_gradient(g_tilde, tape)
    loose = np.mean(np.vecdot(diff, diff), axis=1) / d
    terms = np.log1p(loose)
    total = cfg.log_every * float(terms.sum())
    components = {"term_sum": total,
                  "loose_term_sum": cfg.log_every * float(loose.sum())}
    return _report("trajectory-langevin", [d * total / cfg.n], flags,
                   components, tape.n_runs, _run_setting(cfg), R=R,
                   g_tilde=g_tilde, per_step_terms=terms,
                   extra_series={"loose_per_step_terms": loose})


def traj_bound_anisotropic(tape, R=1.0):
    """Trajectory bound with a population-shaped prior per step.

    Per-step term: mean across runs of log det(pop GNC) - log det(b * C_t).
    That is twice the KL against the prior covariance c~ pop GNC at
    c~ = 1/b, with its cross term b tr(pop GNC^{-1} C_t) replaced by d (the
    two agree when b C_t equals the population GNC); it is not the minimum
    over c~, which sits at tr(pop GNC^{-1} C_t) / d. The diagonal-alignment
    decomposition (sum over coordinates of the log ratio of diagonal
    entries) is reported as an extra series; it upper bounds the full term
    for SPD matrices.
    """
    if not tape.has_population:
        raise ConfigError("anisotropic bound needs a tape built with population=True")
    cfg = tape.config
    flags = _trajectory_flags(cfg, tape.any_diverged)
    d = tape.dim
    log_b = d * np.log(cfg.b)

    def evaluate(scale):
        pop, c = tape.pop_gnc.refloored(scale), tape.gnc.refloored(scale)
        terms = np.mean(log_det(pop) - log_det(c) - log_b, axis=1)
        diag_terms = np.mean(trace_log_diag(pop.matrix)
                             - trace_log_diag(c.matrix) - log_b, axis=1)
        total = cfg.log_every * float(terms.sum())
        return [total / cfg.n], pop.floored or c.floored, total, terms, diag_terms

    components = {}
    roots, total, terms, diag_terms = _floor_sensitive(evaluate, flags, components)
    components.update({"term_sum": total,
                       "diag_term_sum": cfg.log_every * float(diag_terms.sum())})
    return _report("trajectory-anisotropic", roots, flags, components,
                   tape.n_runs, _run_setting(cfg), R=R,
                   per_step_terms=terms,
                   extra_series={"diag_alignment": diag_terms})


def _loo_log_det_gaps(grads, b):
    """{floor scale: (mean over all n leave-one-out J of log det C - log det
    C_J, whether any floor fired)} at 1x and at FLOOR_SENSITIVITY_SCALE x the
    floor; see :func:`traj_bound_data_dependent`."""
    n, d = grads.shape
    m = n - 1
    sigma, mean = gnc_from_grads(grads)
    c_full = SpdMatrix.from_matrix(sigma / b)
    u = grads - mean
    # Where C is unfloored its floored and raw eigenvalues agree, so the
    # leverages and the interlacing bound serve both floor scales.
    lev = np.sum((u @ c_full.eigenvectors) ** 2 / c_full.eigenvalues, axis=1) / b
    trace_j = (n / m) * np.trace(sigma) / b - (n / m**2) * np.sum(u * u, axis=1) / b
    lower_j = (n / m) * c_full.eigenvalues[0] * (1.0 - lev / m)

    @cache
    def c_j(i):
        sj, _ = gnc_from_grads(np.delete(grads, i, axis=0))
        return SpdMatrix.from_matrix(sj / b)

    out = {}
    for scale in (1.0, FLOOR_SENSITIVITY_SCALE):
        c = c_full.refloored(scale)
        # The closed form holds for C_J only if its interlacing lower bound
        # on lambda_min clears the floor C_J would get.
        exact = (lower_j > eigenvalue_floor(trace_j / d, scale)) & (not c.floored)
        cjs = [c_j(i).refloored(scale) for i in np.flatnonzero(~exact)]
        gaps = np.concatenate([-d * np.log1p(1.0 / m) - np.log1p(-lev[exact] / m),
                               [log_det(c) - log_det(cj) for cj in cjs]])
        out[scale] = (float(np.mean(gaps)), c.floored or any(cj.floored for cj in cjs))
    return out


def traj_bound_data_dependent(records, M=1.0):
    """Trajectory bound with leave-one-out data-dependent priors.

    Uses the within-batch scaling convention C = Sigma/b for both the full
    and the subsample GNCs (this analysis fixes that convention; it differs
    from the exact mini-batch factor by O(1/n)). Per step the term is
    (b-1) d/(n-1)^2 plus the mean over leave-one-out subsets J of
    log det C - log det C_J; the core averages sqrt(sum of terms) across
    records, keeping the dataset expectation outside the square root.

    The mean is exact over all n subsets. With m = n - 1 and u_i = g_i - mean,
    dropping example i gives Sigma_J = (n/m) Sigma - (n/m^2) u_i u_i^T, so by
    the matrix determinant lemma log det C_J = log det C + d log(n/m)
    + log1p(-l_i/m) with the leverage l_i = u_i^T Sigma^{-1} u_i. All n
    leverages come from the eigenpairs of C: O(n d^2 + d^3) per state. Where
    a floor could touch C or C_J (for instance when example i alone carries
    a direction) that C_J is built and floored explicitly, at O(n d^2 + d^3)
    each. The 10x-floor sensitivity terms come from the same pass: each C and
    C_J is decomposed once and refloored.
    """
    cfg, runs, _ = _usable_runs(records)
    n, b = cfg.n, cfg.b
    if n - 1 <= b:
        raise ConfigError(f"data-dependent bound needs n-1 > b, got n={n}, b={b}")
    d = runs[0].final_w.shape[0]
    flags = _trajectory_flags(cfg, len(runs) < len(records))
    const = (b - 1) * d / (n - 1) ** 2

    # terms[scale][r] holds record r's per-step terms at that floor scale.
    terms = {1.0: [], FLOOR_SENSITIVITY_SCALE: []}
    floored = False
    for rec in runs:
        if rec.weights is None:
            raise ConfigError("data-dependent bound requires record_weights=True")
        problem = build_problem(rec.config.spec)
        gaps = [_loo_log_det_gaps(problem.per_example_grads(
                    w, rec.dataset.features, rec.dataset.labels), b)
                for w in rec.weights[:-1]]
        floored = floored or any(g[1.0][1] for g in gaps)
        for scale, rows in terms.items():
            rows.append(np.array([const + g[scale][0] for g in gaps]))

    def evaluate(scale):
        return [cfg.log_every * float(t.sum()) for t in terms[scale]], floored

    components = {"constant_per_step": const}
    roots, = _floor_sensitive(evaluate, flags, components)
    components["per_record_cores_mean"] = _core(roots)
    return _report("trajectory-data-dependent", roots, flags, components,
                   len(runs), _run_setting(cfg), M=M,
                   per_step_terms=np.mean(terms[1.0], axis=0))


def _terminal_samples(records):
    """The shared config of an ensemble's records, the weight samples (final
    weights plus tail checkpoints) of its usable runs grouped by dataset seed
    as ``{seed: (dataset, samples)}``, their flags, and how many runs they
    come from."""
    cfg, runs, flags = _usable_runs(records)
    groups = {}
    for rec in runs:
        rows = rec.final_w[None, :] if rec.tail_weights is None else rec.tail_weights
        groups.setdefault(rec.dataset.seed, (rec.dataset, []))[1].append(rows)
    return (cfg, {k: (ds, np.vstack(v)) for k, (ds, v) in groups.items()},
            flags, len(runs))


def _covariance(rows):
    """The mean of the weight rows and their sample covariance (divisor
    ``max(rows - 1, 1)``)."""
    mu = rows.mean(axis=0)
    centered = rows - mu
    denom = max(rows.shape[0] - 1, 1)
    return mu, centered.T @ centered / denom


def terminal_bound_general(ensemble, R=1.0):
    """Terminal-state bound from within-dataset vs pooled weight covariances.

    Per dataset seed the term is log det(pooled covariance) minus log det
    (within-dataset covariance), both floored; the core is sqrt of the mean
    term over 2n. Deterministic dynamics collapse the within-dataset scatter
    to zero, in which case the value is the flooring-determined cap and the
    report carries the deterministic-failure flag rather than pretending the
    bound is finite.
    """
    cfg, groups, flags, n_used = _terminal_samples(ensemble)
    if len(groups) == 1:
        flags.append("single-dataset-group")
    min_samples = min(v.shape[0] for _, v in groups.values())
    if min_samples < 2:
        # What each group would hold had no run diverged: one sample per run,
        # or its tail checkpoints.
        grid = {}
        for rec in ensemble:
            grid[rec.dataset.seed] = (grid.get(rec.dataset.seed, 0)
                                      + max(rec.config.tail_checkpoints, 1))
        if min(grid.values()) < 2:
            raise ConfigError("each dataset group needs at least 2 weight samples")
        raise GradnoiseError("diverged runs leave a dataset group with fewer "
                             "than 2 weight samples")
    d = ensemble[0].final_w.shape[0]
    if min_samples < 4 * d:
        flags.append("undersampled-covariance")
    pooled = SpdMatrix.from_matrix(
        _covariance(np.vstack([v for _, v in groups.values()]))[1])
    within = [SpdMatrix.from_matrix(_covariance(v)[1]) for _, v in groups.values()]
    pooled_scale = max(pooled.mean_eigenvalue, DEFAULT_FLOOR_ABS / d)
    deterministic = any(w.mean_eigenvalue <= 1e-18 * pooled_scale for w in within)
    n = cfg.n

    def evaluate(scale):
        pooled_s = pooled.refloored(scale)
        within_s = [w.refloored(scale) for w in within]
        ld_pooled = log_det(pooled_s)
        mean_term = float(np.mean([ld_pooled - log_det(w) for w in within_s]))
        floored = pooled_s.floored or any(w.floored for w in within_s)
        return [mean_term / (2.0 * n)], floored, ld_pooled, mean_term

    components = {"min_group_samples": min_samples}
    roots, ld_pooled, mean_term = _floor_sensitive(evaluate, flags, components)
    if deterministic:
        flags.extend(["deterministic-failure", "flooring-cap"])
    components.update({"mean_term": mean_term, "logdet_pooled": ld_pooled,
                       "mean_logdet_within": ld_pooled - mean_term})
    return _report("terminal-general", roots, flags, components, n_used,
                   _run_setting(cfg), R=R)


def terminal_bound_anisotropic(ensemble, R=1.0):
    """Terminal-state bound with the within-dataset covariance replaced by
    its stationary closed form.

    Per dataset seed, at the group-mean terminal weight: dense Hessian H,
    exact-factor mini-batch GNC C_T, and the pooled terminal covariance give
    the term log det H - log det C_T + log det(pooled). The squared core is
    its mean over the datasets plus d log(2/eta), over 2n: the KL form with
    the stationary covariance of the continuous-time SDE, which solves
    H S + S H = eta C_T (S = eta C_T H^-1 / 2 when H and C_T commute). The
    discrete chain's stationary covariance adds sum_i log(1 - eta lam_i / 2)
    over the eigenvalues lam_i of H to the commuting term; its mean over the
    datasets is reported as ``discretization_correction`` and is not added.
    Requires the top Hessian eigenvalue to sit strictly below 2/eta (checked
    per dataset).
    The mean commutator norm ||H Lambda - Lambda H||_F between H and the
    stationary covariance Lambda of ``linalg.solve_stationary_covariance``
    is reported as a condition diagnostic. It is read off the eigenpairs of
    the floored H: with floored eigenvalues lam, eigenvectors Q and
    C~ = Q^T C_T Q it is ||eta C~_ij (lam_i - lam_j) / (lam_i + lam_j -
    eta lam_i lam_j)||_F.
    """
    cfg, groups, flags, n_used = _terminal_samples(ensemble)
    if len(groups) == 1:
        flags.append("single-dataset-group")
    n, b = cfg.n, cfg.b
    eta = cfg.lr_at(cfg.steps)
    pooled = SpdMatrix.from_matrix(
        _covariance(np.vstack([v for _, v in groups.values()]))[1])
    problem = build_problem(cfg.spec)

    per_dataset, gaps = [], []
    for ds_seed, (dataset, rows) in groups.items():
        w_star = rows.mean(axis=0)
        h = SpdMatrix.from_matrix(
            dense_hessian(problem, w_star, dataset.features, dataset.labels))
        lam_max = float(h.raw_eigenvalues[-1])
        gap = stability_gap(lam_max, eta)
        if gap <= 0:
            raise StabilityError(
                f"top Hessian eigenvalue {lam_max:.6g} exceeds 2/eta = "
                f"{2.0 / eta:.6g} for dataset seed {ds_seed}",
                eigenvalue=lam_max,
            )
        c = SpdMatrix.from_matrix(
            minibatch_gnc(empirical_gnc(problem, w_star, dataset), n, b))
        per_dataset.append((h, c))
        gaps.append(gap)

    continuous = problem.dim * float(np.log(2.0 / eta))

    def evaluate(scale):
        pooled_s = pooled.refloored(scale)
        mats = [(h.refloored(scale), c.refloored(scale)) for h, c in per_dataset]
        ld_pooled = log_det(pooled_s)
        mean_term = float(np.mean([log_det(h) - log_det(c) + ld_pooled
                                   for h, c in mats]))
        floored = pooled_s.floored or any(h.floored or c.floored for h, c in mats)
        return [(mean_term + continuous) / (2.0 * n)], floored, ld_pooled, mean_term

    components = {"min_stability_gap": min(gaps)}
    roots, ld_pooled, mean_term = _floor_sensitive(evaluate, flags, components)
    commutators = []
    for h, c in per_dataset:
        lam, q = h.eigenvalues[:, None], h.eigenvectors
        kernel = (lam - lam.T) / (lam + lam.T - eta * lam * lam.T)
        commutators.append(float(np.linalg.norm(eta * (q.T @ c.matrix @ q) * kernel)))
    correction = float(np.mean([np.sum(np.log1p(-0.5 * eta * h.eigenvalues))
                                for h, _ in per_dataset]))
    components.update({"mean_term": mean_term, "logdet_pooled": ld_pooled,
                       "commutator_norm_mean": float(np.mean(commutators)),
                       "discretization_correction": correction})
    return _report("terminal-anisotropic", roots, flags, components, n_used,
                   _run_setting(cfg), R=R)


def terminal_bound_isotropic(ensemble, reference="grand-mean", R=1.0):
    """Closed-form terminal bound from mean squared distance to a reference.

    ``reference`` is "grand-mean" (the pooled mean terminal weight)
    or "init" (each run's own initialization, the distance-to-initialization
    form). The core is sqrt((d/n) log((2b/(eta d)) msd + 1)), nonnegative by
    construction.
    """
    cfg, runs, flags = _usable_runs(ensemble)
    finals = np.array([r.final_w for r in runs])
    d = finals.shape[1]
    if isinstance(reference, str) and reference == "grand-mean":
        sq = np.sum((finals - finals.mean(axis=0)) ** 2, axis=1)
    elif isinstance(reference, str) and reference == "init":
        sq = np.array([float(np.sum((r.final_w - r.w0) ** 2)) for r in runs])
    else:
        raise ConfigError(f"unknown reference {reference!r}")
    msd = float(np.mean(sq))
    n, b = cfg.n, cfg.b
    eta = cfg.lr_at(cfg.steps)
    inner = (2.0 * b / (eta * d)) * msd + 1.0
    components = {
        "mean_sq_distance": msd,
        "inner": inner,
        "sigma_star_sq": msd / d + eta / (2.0 * b),
        "reference": reference,
    }
    return _report("terminal-isotropic", [(d / n) * np.log(inner)], flags,
                   components, len(runs), _run_setting(cfg), R=R)


def terminal_bound_gradient_accum(records, R=1.0):
    """Terminal bound from accumulated gradient and noise magnitudes.

    Plugs the run-sum of ||G_t||^2 + tr C_t into
    sqrt((d/n) log((4 b T eta / d) * sum + 1)). Assumes training started at
    the origin; a nonzero initialization is flagged, as is a logging cadence
    above 1 (rescaled sum) and a nonconstant schedule (largest eta used).
    """
    cfg, runs, _ = _usable_runs(records)
    flags = _trajectory_flags(cfg, len(runs) < len(records))
    etas = {e for _, e in cfg.lr_schedule}
    eta = max(etas)
    if len(etas) > 1:
        flags.append("nonconstant-lr")
    if any(float(np.linalg.norm(rec.w0)) > 0 for rec in runs):
        flags.append("nonzero-init")
    sums = []
    for rec in runs:
        per_step = rec.grad_norm_sq[:-1] + rec.trace_c[:-1]
        sums.append(cfg.log_every * float(per_step.sum()))
    mean_sum = float(np.mean(sums))
    d = runs[0].final_w.shape[0]
    n, b, T = cfg.n, cfg.b, cfg.steps
    inner = (4.0 * b * T * eta / d) * mean_sum + 1.0
    return _report("terminal-gradient-accumulation", [(d / n) * np.log(inner)],
                   flags, {"accumulated_sum": mean_sum, "inner": inner},
                   len(runs), {**_run_setting(cfg), "eta": eta}, R=R)


def terminal_bound_loo(pairs, M=1.0):
    """Stability bound from paired full/leave-out terminal weights.

    ``pairs`` is a sequence of (full_record, loo_record); pairs sharing
    (dataset seed, loo size) form a group whose runs estimate the inner
    expectation, and the core is the mean over groups of
    sqrt((b/(2 eta)) * mean ||W_S - W_SJ||^2). Records must be paired: same
    run seed and dataset seed, with the leave-out run trained on fewer
    examples at the same b, step count, schedule and mode. The full records
    must share their config as every record-fed bound's records do; b and
    eta are read from it. A pair holding a diverged run is left out and
    flagged ``diverged-runs``, and ``n_runs_used`` counts the clean pairs;
    if none is left the bound raises GradnoiseError, as :func:`_usable_runs`
    does.
    """
    cfg = _shared_config([full for full, _ in pairs])
    for full, loo in pairs:
        if loo.config.n >= full.config.n:
            raise ConfigError("loo record must be trained on fewer examples")
        if full.dataset.seed != loo.dataset.seed or any(
                getattr(full.config, k) != getattr(loo.config, k)
                for k in ("seed", "b", "steps", "lr_schedule", "mode")):
            raise ConfigError("unpaired runs: full and loo records must share run "
                              "seed, dataset seed, b, steps, schedule and mode")
    clean = [(f, l) for f, l in pairs if not (f.diverged or l.diverged)]
    if not clean:
        raise GradnoiseError("every leave-one-out pair holds a diverged run")
    groups = {}
    for full, loo in clean:
        groups.setdefault((full.dataset.seed, loo.config.n), []).append((full, loo))
    b = cfg.b
    eta = cfg.lr_at(cfg.steps)
    flags = [] if len(clean) == len(pairs) else ["diverged-runs"]
    sq_means = []
    frob = []
    for key, members in groups.items():
        sq = [float(np.sum((f.final_w - l.final_w) ** 2)) for f, l in members]
        sq_means.append(float(np.mean(sq)))
        if len(members) >= 2:
            _, cov_full = _covariance(np.array([f.final_w for f, _ in members]))
            _, cov_loo = _covariance(np.array([l.final_w for _, l in members]))
            frob.append(float(np.linalg.norm(cov_full - cov_loo)))
    components = {"mean_sq_shift": float(np.mean(sq_means)), "n_groups": len(groups)}
    if frob:
        components["lambda_frobenius_distance_mean"] = float(np.mean(frob))
    return _report("terminal-loo", [(b / (2.0 * eta)) * s for s in sq_means],
                   flags, components, len(clean), _run_setting(cfg), M=M)


def influence_estimate(problem, w_star, dataset, index, cg_tol=1e-10,
                       damping=0.0, grad_norm_threshold=1e-3):
    """First-order estimate of the weight shift from dropping one example.

    Solves H x = grad of the dropped example's loss at ``w_star`` by
    conjugate gradients from x = 0 on the HVP operator (with optional
    Tikhonov damping) and returns x / n. CG stops once the residual is at
    most ``cg_tol`` times the gradient's norm; more than ``10 d + 50``
    products, or a non-finite one, raise NumericalError. Warns when
    ``w_star`` does not look like a minimum.
    The estimate carries the well-known 1/n vs 1/(n-1) finite-sample gap:
    multiplying by n/(n-1) recovers the exact shift on quadratic problems.
    """
    n = len(dataset)
    if not 0 <= index < n:
        raise ConfigError(f"index {index} out of range for dataset of size {n}")
    full_grad = problem.mean_grad(w_star, dataset.features, dataset.labels)
    gnorm = float(np.linalg.norm(full_grad))
    if gnorm > grad_norm_threshold:
        warnings.warn(
            f"influence_estimate called away from a minimum "
            f"(gradient norm {gnorm:.3g})", stacklevel=2)
    grads = problem.per_example_grads(
        w_star, dataset.features[index:index + 1], dataset.labels[index:index + 1])
    g = grads[0]
    if not np.any(g):
        return np.zeros(problem.dim)

    hess = problem.hessian_operator(w_star, dataset.features, dataset.labels)
    target = cg_tol * np.linalg.norm(g)
    max_products = 10 * problem.dim + 50
    x = np.zeros(problem.dim)
    r = g.copy()
    p = r.copy()
    rho = r @ r
    for _ in range(max_products):
        if np.sqrt(rho) <= target:
            return x / n
        q = hess(p) + damping * p if damping else hess(p)
        if not np.isfinite(q).all():
            raise NumericalError("non-finite Hessian-vector product")
        step = rho / (p @ q)
        x += step * p
        r -= step * q
        rho, rho_prev = r @ r, rho
        p = r + (rho / rho_prev) * p
    raise NumericalError(
        f"conjugate gradients did not converge in {max_products} products "
        f"(residual {np.sqrt(rho):.3g})")


def fim_takeuchi_bound(ensemble, M=1.0):
    """Bound from the trace of inverse Hessian times population Fisher.

    Per dataset seed, at the group-mean terminal weight: dense training
    Hessian H and the uncentered oracle-sample second moment of per-example
    gradients F. The core is (1/(2n)) times the mean over dataset seeds of
    sqrt(tr(H^{-1} F)).
    """
    cfg, groups, flags, n_used = _terminal_samples(ensemble)
    n = cfg.n
    problem = build_problem(cfg.spec)
    oracle = ensemble[0].oracle
    per_dataset = []
    for dataset, rows in groups.values():
        w_star = rows.mean(axis=0)
        h = SpdMatrix.from_matrix(
            dense_hessian(problem, w_star, dataset.features, dataset.labels))
        ograds = problem.per_example_grads(w_star, oracle.features, oracle.labels)
        per_dataset.append((h, ograds.T @ ograds / len(oracle)))

    def evaluate(scale):
        hs = [h.refloored(scale) for h, _ in per_dataset]
        traces = [h.inv_trace_product(fim) for h, (_, fim) in zip(hs, per_dataset)]
        return traces, any(h.floored for h in hs)

    components = {}
    traces, = _floor_sensitive(evaluate, flags, components, 2.0 * n)
    components.update({"mean_trace": float(np.mean(traces)),
                       "max_trace": float(np.max(traces))})
    return _report("fim-takeuchi", traces, flags, components, n_used,
                   _run_setting(cfg), M=M, divisor=2.0 * n)


def report_to_json_dict(report):
    """JSON-safe dictionary form of a BoundReport (series become lists)."""
    out = {
        "name": report.name,
        "value": report.value,
        "core": report.core,
        "components": {k: (v if isinstance(v, (int, float, str)) else float(v))
                       for k, v in report.components.items()},
        "config": report.config,
        "n_runs_used": report.n_runs_used,
        "flags": list(report.flags),
    }
    if report.per_step_terms is not None:
        out["per_step_terms"] = [float(x) for x in report.per_step_terms]
    if report.extra_series:
        out["extra_series"] = {k: [float(x) for x in np.atleast_1d(v)]
                               for k, v in report.extra_series.items()}
    return out
