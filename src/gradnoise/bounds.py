"""Generalization-bound estimators evaluated from runs of the dynamics module.

Two families live here. Trajectory bounds fold per-step KL terms over an
entire run (statistics taken at each pre-update state); terminal
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
share (:func:`_shared_config`; a TrajectoryTape reads it from the records
it keeps), and every report's ``n``, ``b``, ``eta`` and ``T`` come from it
by one rule (:func:`_run_setting`, eta at step T; gradient accumulation
reports the largest eta instead). The five bounds read from logged
trajectories flag diverged runs and a logging cadence above 1 by one rule
as well (:func:`_trajectory_flags`). A TrajectoryTape holds its runs'
per-step statistics as arrays laid out (step, run, ...): mean gradients
and, of each GNC, only per-state scalars (traces, floored log-determinants
at both floor scales, floored flags, the quadratic terms of the
population-shaped prior and the leave-one-out log-det gaps), built one run
and LOO_STATE_CHUNK states at a time so that no d x d array outlives its
chunk. The four tape bounds are reductions of those arrays over the run
axis; the isotropic and anisotropic ones share one per-step prior KL
(:func:`_prior_kl_terms`).

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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GradnoiseError, NumericalError, StabilityError
from .gradstats import empirical_gnc, gnc_from_grads, minibatch_factor, minibatch_gnc
from .linalg import (
    DEFAULT_FLOOR_ABS,
    SpdMatrix,
    eigenvalue_floor,
    log_det,
)
from .problems import build_problem, dense_hessian
from .spectral import stability_gap

FLOOR_SENSITIVITY_SCALE = 10.0

# Logged states per chunk of the trajectory tape's pass over a run. Each
# chunk decomposes its C (and P) as one stack, and with leave-one-out its
# leverages and explicit C_J go through the same sizes: the C_J replays of a
# state are decomposed this many at a time. So this sizes every d x d array
# the pass holds (a chunk's eigenvectors, floored reconstructions and C_J)
# beside the run's (K, d, d) moments, and every (states, n) leverage array.
# Per-example gradients are held one state at a time, whatever the chunk.
# Picked from the peak RSS of the logistic trajectory benchmark
# (n = 500, d = 20, 100 states a run) when it sized only the leave-one-out
# pass: 49.5-49.8 MB at 16 and 32 states against 49.3 before chunking
# existed, 50.3 at 50, 50.8 at 64 and 52.3 at 100. In-process that bound
# ran 10-40% faster at 32 than at 16.
LOO_STATE_CHUNK = 32
FLOOR_SCALES = (1.0, FLOOR_SENSITIVITY_SCALE)


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
    and oracle-sample gradients at it. Of the exact-factor mini-batch GNC C
    and the population GNC P the tape keeps only (K, R) scalars, never a
    matrix: ``trace_c``/``trace_pop`` the unfloored traces,
    ``log_det_c``/``log_det_pop`` {floor scale: log det of the floored
    matrix} at 1x and FLOOR_SENSITIVITY_SCALE x, ``floored_c``/``floored_pop``
    whether the 1x floor fired, and, on a tape with P, the quadratic terms
    of the prior P that ``traj-anisotropic`` reads, with P floored at each
    floor scale: ``inv_trace_pop`` {floor scale: tr(P^-1 C)} against the
    unfloored C, and ``mahalanobis_pop`` {g-tilde kind: {floor scale:
    (G - g~)^T P^-1 (G - g~)}} for both kinds :func:`_reference_gradient`
    accepts. With leave-one-out, ``loo_gap`` {floor scale: (K, R)} holds
    the mean over the n leave-one-out subsets J of log det C - log det C_J
    under the convention C = Sigma/b, and ``loo_floored`` whether a floor
    touched C or one of its C_J at 1x (see
    :func:`traj_bound_data_dependent`). These eight optional fields default
    to None: the ``pop`` fields without population statistics and the
    ``loo`` fields without leave-one-out.

    ``runs`` are the usable records, in the run order of the arrays, and
    ``config`` the TrainConfig they share; its n, b, T, mode and schedule
    are the tape's. With logging cadence ``config.log_every`` 1 every update
    is represented; a coarser cadence represents each logged state for
    ``log_every`` updates and bound sums are rescaled accordingly (flagged
    ``approximate-cadence``). ``any_diverged`` says a record was left out
    because its run diverged.
    """

    steps: np.ndarray
    grad: np.ndarray
    trace_c: np.ndarray
    log_det_c: dict
    floored_c: np.ndarray
    runs: tuple
    any_diverged: bool
    pop_grad: np.ndarray | None = None
    trace_pop: np.ndarray | None = None
    log_det_pop: dict | None = None
    floored_pop: np.ndarray | None = None
    inv_trace_pop: dict | None = None
    mahalanobis_pop: dict | None = None
    loo_gap: dict | None = None
    loo_floored: np.ndarray | None = None

    @property
    def config(self):
        return self.runs[0].config

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
        return self.trace_pop is not None


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


def _stack_scalars(raw, name):
    """One stacked decomposition of the raw GNCs ``raw`` (any leading axes,
    the matrices on the last two) and their tape fields over those axes,
    suffixed ``name``: the unfloored ``trace``, ``log_det`` {floor scale:
    log det at that floor} and whether the 1x floor fired (``floored``)."""
    spd = SpdMatrix.from_matrix(raw)
    return spd, {
        f"trace_{name}": np.trace(raw, axis1=-2, axis2=-1),
        f"log_det_{name}": {scale: log_det(spd.refloored(scale))
                            for scale in FLOOR_SCALES},
        f"floored_{name}": spd.floored_each,
    }


def _prior_scalars(pop, raw_c, grad, pop_grad):
    """The tape fields ``inv_trace_pop`` and ``mahalanobis_pop`` (see
    :class:`TrajectoryTape`) of the prior P, given as the stacked SpdMatrix
    ``pop``, against the raw GNCs ``raw_c`` and the mean gradients ``grad``
    and ``pop_grad``, over their shared leading axes. The diagonals of Q^T C
    Q and the squares of Q^T (G - g~), Q the eigenvectors of P, are taken
    once and divided by P's floored eigenvalues at each floor scale, so no
    floored P is rebuilt."""
    q = pop.eigenvectors

    def over_scales(rotated):
        return {scale: np.sum(rotated / pop.refloored(scale).eigenvalues, axis=-1)
                for scale in FLOOR_SCALES}

    return {"inv_trace_pop": over_scales(np.sum(q * (raw_c @ q), axis=-2)),
            "mahalanobis_pop": {
                kind: over_scales(np.sum(q * diff[..., None], axis=-2) ** 2)
                for kind, diff in (("zero", grad),
                                   ("population-gradient", grad - pop_grad))}}


def _join(parts, join):
    """The field dicts ``parts``, which share their keys, joined key by key
    with ``join``; a {floor scale: array} field is joined scale by scale."""
    return {name: _join([p[name] for p in parts], join) if isinstance(value, dict)
            else join([p[name] for p in parts])
            for name, value in parts[0].items()}


def _run_fields(rec, population, leave_one_out):
    """One record's tape fields over its pre-update states: the (K, d) mean
    training gradients ``grad`` and the (K,) per-state fields of C, and with
    ``population`` the oracle-sample ``pop_grad`` and the fields of P.

    The run's moments come from one ``grad_moments`` call per sample. Its
    states go LOO_STATE_CHUNK at a time: each chunk's C (and P) are
    decomposed as one stack (:func:`_stack_scalars`), P's decomposition
    gives the prior's quadratic terms (:func:`_prior_scalars`), and with
    ``leave_one_out`` the chunk's states and that decomposition give its
    ``loo_gap`` and ``loo_floored`` (:func:`_loo_log_det_gaps`). The
    chunks' fields are concatenated, so no d x d array outlives its chunk
    but the run's moments."""
    cfg = rec.config
    problem = build_problem(cfg.spec)
    ws, data, oracle = rec.weights[:-1], rec.dataset, rec.oracle
    raw_c, grad = problem.grad_moments(ws, data.features, data.labels)
    raw_c *= minibatch_factor(cfg.n, cfg.b)
    fields = {"grad": grad}
    if population:
        raw_pop, fields["pop_grad"] = problem.grad_moments(ws, oracle.features,
                                                           oracle.labels)
    to_loo = (cfg.n - 1) / (cfg.n - cfg.b)
    chunks = []
    for lo in range(0, len(ws), LOO_STATE_CHUNK):
        part = slice(lo, lo + LOO_STATE_CHUNK)
        c, chunk = _stack_scalars(raw_c[part], "c")
        if population:
            pop, pop_fields = _stack_scalars(raw_pop[part], "pop")
            chunk.update(pop_fields, **_prior_scalars(
                pop, raw_c[part], grad[part], fields["pop_grad"][part]))
        if leave_one_out:
            chunk["loo_gap"], chunk["loo_floored"] = _loo_log_det_gaps(
                problem, ws[part], data, c.scaled(to_loo),
                to_loo * chunk["trace_c"], cfg.b)
        chunks.append(chunk)
    return {**fields, **_join(chunks, np.concatenate)}


def tape_from_records(records, population=False, leave_one_out=False):
    """Build a TrajectoryTape from the gradient moments at logged weights.

    Records must have been produced with ``record_weights=True`` and share
    their shape-determining config fields. Diverged records are left out, as
    every ensemble bound leaves them out (:func:`_usable_runs`), and the
    tape says so in ``any_diverged``. Each record's gradients are taken on
    the dataset it carries, and with ``population`` on its oracle sample;
    ``leave_one_out`` adds the data-dependent bound's gaps, which need
    n - 1 > b. Statistics at the final logged state are not included: sums
    run over pre-update states only.

    One pass per run (:func:`_run_fields`) gives its (K, ...) fields, and
    the runs' fields are stacked on axis 1: no d x d array outlives its
    run's pass.
    """
    config, runs, _ = _usable_runs(records)
    if any(rec.weights is None for rec in runs):
        raise ConfigError("tape requires record_weights=True runs")
    if leave_one_out and config.n - 1 <= config.b:
        raise ConfigError(f"data-dependent bound needs n-1 > b, got "
                          f"n={config.n}, b={config.b}")
    fields = _join([_run_fields(rec, population, leave_one_out) for rec in runs],
                   lambda parts: np.stack(parts, axis=1))
    return TrajectoryTape(
        steps=runs[0].steps[:-1] + 1,
        **fields,
        runs=tuple(runs),
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


def _prior_kl_terms(tape, q, gap):
    """Twice the per-step KL from each step's Gaussian transitions to a
    prior shaped by a fixed matrix P, at the prior scale that minimizes it.

    Per run, step t moves N(w - eta G_t, eta^2 C_t) against the prior
    N(w - eta g~_t, eta^2 c~ P_t); the step size cancels, and twice the KL
    is q/c~ - d + d log c~ + gap with the (K, R) arrays ``q`` = (G - g~)^T
    P^-1 (G - g~) + tr(P^-1 C) and ``gap`` = log det P - log det C. One
    scale c~ = mean_r q / d, shared by the runs, minimizes their mean, which
    leaves the (K,) terms d log(mean_r q / d) + mean_r gap.
    """
    qs = np.mean(q, axis=1)
    bad = np.flatnonzero(qs <= 0)
    if bad.size:
        raise NumericalError(f"prior quadratic term <= 0 at step {tape.steps[bad[0]]}")
    return tape.dim * np.log(qs / tape.dim) + np.mean(gap, axis=1)


def _prior_kl_bound(name, tape, g_tilde, R, quadratic, gap, floored,
                    components, extra_series=None):
    """The report of a trajectory bound whose per-step terms are
    :func:`_prior_kl_terms` of ``quadratic(scale)`` and ``gap(scale)`` at
    each floor scale, ``floored`` whether a 1x floor fired. The core is
    sqrt of (1/n) times the (cadence-rescaled) sum of the terms, reported
    as ``term_sum`` ahead of ``components``."""
    cfg = tape.config
    flags = _trajectory_flags(cfg, tape.any_diverged)

    def evaluate(scale):
        terms = _prior_kl_terms(tape, quadratic(scale), gap(scale))
        total = cfg.log_every * float(terms.sum())
        return [total / cfg.n], floored, total, terms

    head = {}
    roots, total, terms = _floor_sensitive(evaluate, flags, head)
    head["term_sum"] = total
    return _report(name, roots, flags, {**head, **components}, tape.n_runs,
                   _run_setting(cfg), R=R, g_tilde=g_tilde,
                   per_step_terms=terms, extra_series=extra_series)


def traj_bound_isotropic(tape, g_tilde="zero", R=1.0):
    """Trajectory bound with the best isotropic Gaussian prior per step.

    The per-step prior KL of :func:`_prior_kl_terms` with P = I: per
    accumulated step the term is d log(h1/d) - h2 with h1 the mean of
    ||G_t - g_tilde||^2 + tr C_t across runs (``g_tilde`` is "zero" or
    "population-gradient", see :func:`_reference_gradient`) and h2 the mean
    log-determinant of the floored mini-batch GNC; the core is sqrt of (1/n)
    times the (cadence-rescaled) sum.
    """
    diff = tape.grad - _reference_gradient(g_tilde, tape)
    q = np.vecdot(diff, diff) + tape.trace_c
    h1s = np.mean(q, axis=1)
    h2s = np.mean(tape.log_det_c[1.0], axis=1)
    return _prior_kl_bound(
        "trajectory-isotropic", tape, g_tilde, R, lambda scale: q,
        lambda scale: -tape.log_det_c[scale], tape.floored_c.any(), {
            "h1_mean": float(h1s.mean()),
            "h2_mean": float(h2s.mean()),
            "sigma_star_sq_final": float(h1s[-1] / tape.dim),
        }, extra_series={"h1": h1s, "h2": h2s})


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


def traj_bound_anisotropic(tape, g_tilde="zero", R=1.0):
    """Trajectory bound with a population-shaped prior per step.

    The per-step prior KL of :func:`_prior_kl_terms` with P_t the
    population GNC: per accumulated step the term is d log(mean_r q / d) +
    mean_r(log det P_t - log det C_t), with q = (G_t - g~)^T P_t^-1 (G_t -
    g~) + tr(P_t^-1 C_t) from the tape's ``mahalanobis_pop`` and
    ``inv_trace_pop`` (``g_tilde`` as in :func:`traj_bound_isotropic`); the
    core is sqrt of (1/n) times the (cadence-rescaled) sum. With P_t = I
    this is the isotropic term.

    The component ``surrogate_term_sum`` is the sum of the mean across runs
    of log det P_t - log det(b C_t): the KL at c~ = 1/b with its cross term
    b tr(P_t^-1 C_t) replaced by d and the mean term dropped. It is not a
    KL and bounds none.
    """
    if not tape.has_population:
        raise ConfigError("anisotropic bound needs a tape built with population=True")
    _reference_gradient(g_tilde, tape)  # rejects an unknown kind
    surrogate = np.mean(tape.log_det_pop[1.0] - tape.log_det_c[1.0]
                        - tape.dim * np.log(tape.config.b), axis=1)
    return _prior_kl_bound(
        "trajectory-anisotropic", tape, g_tilde, R,
        lambda scale: tape.mahalanobis_pop[g_tilde][scale] + tape.inv_trace_pop[scale],
        lambda scale: tape.log_det_pop[scale] - tape.log_det_c[scale],
        tape.floored_pop.any() or tape.floored_c.any(),
        {"surrogate_term_sum": tape.config.log_every * float(surrogate.sum())})


def _loo_log_det_gaps(problem, ws, data, c_full, trace_c, b):
    """The mean over all n leave-one-out subsets J of log det C - log det C_J
    at each row of the (K, d) state stack ``ws`` on the Dataset ``data``, as
    {floor scale: (K,)} at 1x and FLOOR_SENSITIVITY_SCALE x the floor, and
    (K,) whether a floor touched C or one of its C_J at 1x. ``c_full`` holds
    the K matrices C = Sigma/b as one stacked SpdMatrix and ``trace_c``
    their (K,) unfloored traces; see :func:`traj_bound_data_dependent`.

    The leverages of the states whose C is unfloored come from one
    ``problem.grad_leverages`` call; each state that replays some C_J
    evaluates its per-example gradients once more for the replay, so no
    gradient array outlives its state."""
    n, d = len(data), c_full.dim
    m = n - 1
    # Where C is unfloored its floored and raw eigenvalues agree, so the
    # leverages and the interlacing bound serve both floor scales. Where it
    # is floored every C_J is built, and its leverages are not needed.
    free = ~c_full.floored_each
    lev, sq = np.zeros((2, len(trace_c), n))
    lev[free], sq[free] = problem.grad_leverages(ws[free], data.features,
                                                 data.labels, c_full[free])
    lev /= b
    trace_j = (n / m) * trace_c[:, None] - (n / m**2) * sq / b
    lower_j = (n / m) * c_full.eigenvalues[:, :1] * (1.0 - lev / m)
    # The closed form holds for C_J only if its interlacing lower bound on
    # lambda_min clears the floor C_J would get; a higher floor makes it
    # hold for fewer J, so the 10x pass needs every C_J the 1x pass needs.
    exact = {scale: (lower_j > eigenvalue_floor(trace_j / d, scale))
             & ~c_full.refloored(scale).floored_each[:, None]
             for scale in FLOOR_SCALES}
    closed = np.zeros((len(trace_c), n))
    closed[exact[1.0]] = (-d * np.log1p(1.0 / m)
                          - np.log1p(-lev[exact[1.0]] / m))
    gaps = {scale: closed.mean(axis=1) for scale in exact}
    log_det_c = {scale: log_det(c_full.refloored(scale)) for scale in exact}
    floored = ~free
    for k in np.flatnonzero(~exact[FLOOR_SENSITIVITY_SCALE].all(axis=1)):
        rows = np.flatnonzero(~exact[FLOOR_SENSITIVITY_SCALE][k])
        log_det_cj, floored_cj = _replayed_log_dets(
            problem.per_example_grads(ws[k], data.features, data.labels), rows, b)
        for scale, ex in exact.items():
            replayed = log_det_c[scale][k] - log_det_cj[scale][~ex[k, rows]]
            gaps[scale][k] = np.mean(np.concatenate([closed[k, ex[k]], replayed]))
        floored[k] |= floored_cj[~exact[1.0][k, rows]].any()
    return gaps, floored


def _replayed_log_dets(grads, rows, b):
    """log det C_J at 1x and FLOOR_SENSITIVITY_SCALE x the floor, as {floor
    scale: (len(rows),)}, and whether each C_J floored at 1x, for the
    subsets J that leave out one example i of ``rows``, replayed from the
    (n, d) per-example gradients ``grads``. The C_J are decomposed
    LOO_STATE_CHUNK at a time, as stacks, and refloored, so the replay holds
    at most that many d x d matrices, not n."""
    log_dets = {scale: np.empty(len(rows))
                for scale in FLOOR_SCALES}
    floored = np.empty(len(rows), dtype=bool)
    for lo in range(0, len(rows), LOO_STATE_CHUNK):
        part = slice(lo, lo + LOO_STATE_CHUNK)
        cjs = SpdMatrix.from_matrix(np.array(
            [gnc_from_grads(np.delete(grads, i, axis=0))[0]
             for i in rows[part]]) / b)
        for scale, out in log_dets.items():
            out[part] = log_det(cjs.refloored(scale))
        floored[part] = cjs.floored_each
    return log_dets, floored


def traj_bound_data_dependent(tape, M=1.0):
    """Trajectory bound with leave-one-out data-dependent priors.

    Uses the within-batch scaling convention C = Sigma/b for both the full
    and the subsample GNCs: the leave-one-out identities below are exact
    only under it. Per step the term is (b-1) d/(n-1)^2 plus the mean over
    leave-one-out subsets J of log det C - log det C_J, the tape's
    ``loo_gap`` (built with ``leave_one_out=True``); the core averages
    sqrt(sum of terms) across the tape's runs, keeping the dataset
    expectation outside the square root.

    The tape computes the gaps in its pass over each run, exactly over all n
    subsets (:func:`_loo_log_det_gaps`). Its C is the exact-factor GNC
    ``minibatch_factor(n, b) * Sigma`` of that pass's decomposition, with
    eigenvalues and trace rescaled by 1/(b minibatch_factor(n, b)) =
    (n-1)/(n-b) (1.018 at n = 500, b = 10). With m = n - 1 and u_i = g_i -
    mean, dropping example i gives Sigma_J = (n/m) Sigma - (n/m^2) u_i
    u_i^T, so by the matrix determinant lemma log det C_J = log det C + d
    log(n/m) + log1p(-l_i/m) with the leverage l_i = u_i^T Sigma^{-1} u_i.

    Each chunk of LOO_STATE_CHUNK states goes through the family's
    ``grad_leverages`` on the dataset the run carries, which gives all n
    leverages of every state whose C is unfloored: O(n d^2) per state, and
    on the logistic family GEMMs that form no per-example gradient. Where a
    floor could touch C or C_J (for instance when example i alone carries
    a direction) that C_J is built and floored explicitly from the state's
    per-example gradients, evaluated for the replay, at O(n d^2 + d^3)
    each, in stacks of LOO_STATE_CHUNK C_J. On the quadratic and MLP
    families the leverages take one gradient pass per unfloored state and
    a replay one more; their moments take one pass per state.
    The 10x-floor sensitivity terms come from the same pass: each C and C_J
    is decomposed once and refloored.
    """
    if tape.loo_gap is None:
        raise ConfigError("data-dependent bound needs a tape built with "
                          "leave_one_out=True")
    cfg = tape.config
    n, b = cfg.n, cfg.b
    flags = _trajectory_flags(cfg, tape.any_diverged)
    const = (b - 1) * tape.dim / (n - 1) ** 2
    # terms[scale][r] holds run r's per-step terms at that floor scale, each
    # run's contiguous as its sum reads them.
    terms = {scale: (const + gap).T.copy() for scale, gap in tape.loo_gap.items()}

    def evaluate(scale):
        return ([cfg.log_every * float(t.sum()) for t in terms[scale]],
                tape.loo_floored.any())

    components = {"constant_per_step": const}
    roots, = _floor_sensitive(evaluate, flags, components)
    components["per_record_cores_mean"] = _core(roots)
    return _report("trajectory-data-dependent", roots, flags, components,
                   tape.n_runs, _run_setting(cfg), M=M,
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
