"""Bound-estimator tests.

Every estimator is pinned by at least one hand-computable scalar case, and
the nontrivial ones also by an independent oracle: the data-dependent
trajectory bound against a literal Gaussian-KL average, the terminal bounds
against numpy-only recomputations, the influence estimate against the exact
leave-one-out minimizer shift on quadratics.
"""

import dataclasses
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradnoise import bounds, linalg
from gradnoise.bounds import (
    FLOOR_SENSITIVITY_SCALE,
    LOO_STATE_CHUNK,
    BoundReport,
    TrajectoryTape,
    fim_takeuchi_bound,
    report_to_json_dict,
    tape_from_records,
    terminal_bound_anisotropic,
    terminal_bound_general,
    terminal_bound_gradient_accum,
    terminal_bound_isotropic,
    terminal_bound_loo,
    traj_bound_anisotropic,
    traj_bound_data_dependent,
    traj_bound_isotropic,
    traj_bound_langevin,
)
from gradnoise.dynamics import (
    TrainConfig,
    TrajectoryRecord,
    run_ensemble,
    train_run,
)
from gradnoise.errors import ConfigError, GradnoiseError, NumericalError, StabilityError
from gradnoise.gradstats import gnc_from_grads
from gradnoise.linalg import SpdMatrix, log_det
from gradnoise.problems import (
    GRAD_MOMENT_CHUNK,
    Dataset,
    LogisticProblem,
    LogisticSpec,
    MlpSpec,
    QuadraticProblem,
    QuadraticSpec,
    build_problem,
    generate_dataset,
    population_oracle_sample,
)
from oracles import (
    GaussianDist,
    anisotropic_prior_objective,
    gaussian_kl,
    influence_estimate,
    isotropic_step_kl,
    isotropic_terminal_kl,
    stacked_tape_scalars,
)


def random_spd(rng, d, scale=1.0, min_eig=0.05):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (q * (min_eig + scale * rng.random(d))) @ q.T


def make_step(grad, raw_gnc, step=1, pop_grad=None, raw_pop=None,
              trace_c=None):
    """One run's statistics at one step, as :func:`make_tape` stacks them."""
    raw = np.asarray(raw_gnc, dtype=float)
    return SimpleNamespace(
        step=step,
        grad=np.asarray(grad, dtype=float),
        raw_gnc=raw,
        trace_c=float(np.trace(raw)) if trace_c is None else float(trace_c),
        pop_grad=None if pop_grad is None else np.asarray(pop_grad, dtype=float),
        raw_pop=None if raw_pop is None else np.asarray(raw_pop, dtype=float),
    )


def make_tape(runs, n=10, b=1, scale=1, mode="sde", any_diverged=False):
    """A tape of hand-made steps, ``runs[r][k]`` the k-th step of run r, its
    per-state scalars from the tape pass's own helpers and no leave-one-out
    gaps; a step with a population GNC needs its ``pop_grad``. Its config
    logs every ``scale`` updates and runs ``scale`` updates per step at eta
    0.1."""
    first = runs[0][0]
    dim = first.grad.shape[0]
    config = TrainConfig(
        spec=QuadraticSpec(curvature=1.0, center=np.zeros(dim), scatter=1.0),
        n=n, b=b, lr_schedule=((1, 0.1),),
        steps=scale * len(runs[0]), mode=mode, log_every=scale)

    def stack(field):
        return np.array([[getattr(run[k], field) for run in runs]
                         for k in range(len(runs[0]))])

    _, scalars = bounds._stack_scalars(stack("raw_gnc"), "c")
    if first.raw_pop is not None:
        pop, pop_scalars = bounds._stack_scalars(stack("raw_pop"), "pop")
        scalars.update(pop_scalars, **bounds._prior_scalars(
            pop, stack("raw_gnc"), stack("grad"), stack("pop_grad")))
    return TrajectoryTape(
        steps=np.array([st.step for st in runs[0]]),
        grad=stack("grad"),
        pop_grad=None if first.pop_grad is None else stack("pop_grad"),
        **{**scalars, "trace_c": stack("trace_c")},
        runs=tuple(SimpleNamespace(config=config) for _ in runs),
        any_diverged=any_diverged,
    )


def quad_config(**overrides):
    spec = overrides.pop("spec", None)
    if spec is None:
        spec = QuadraticSpec(curvature=np.diag([0.8, 1.2]),
                             center=np.zeros(2),
                             scatter=np.array([[1.0, 0.3], [0.3, 0.6]]),
                             pop_oracle_size=4000)
    defaults = dict(spec=spec, n=6, b=1, lr_schedule=((1, 0.1),), steps=3,
                    seed=0, record_weights=True)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def make_record(config, final_w, w0=None, grad_norm_sq=None, trace_c=None,
                steps=None, dataset_seed=None, diverged_step=None,
                train_loss=0.0, test_loss=0.0):
    final_w = np.asarray(final_w, dtype=float)
    d = final_w.shape[0]
    if steps is None:
        steps = np.arange(0, config.steps + 1, config.log_every)
        if steps[-1] != config.steps:
            steps = np.append(steps, config.steps)
    k = len(steps)
    zeros = np.zeros(k)
    if dataset_seed is None:
        dataset_seed = config.effective_dataset_seed
    return TrajectoryRecord(
        config=config,
        dataset=generate_dataset(config.spec, dataset_seed, config.n),
        oracle=population_oracle_sample(config.spec, config.oracle_seed),
        steps=np.asarray(steps),
        train_loss=np.full(k, train_loss),
        test_loss=np.full(k, test_loss),
        grad_norm_sq=zeros.copy() if grad_norm_sq is None
        else np.asarray(grad_norm_sq, dtype=float),
        trace_c=zeros.copy() if trace_c is None
        else np.asarray(trace_c, dtype=float),
        dist_init=zeros.copy(),
        lambda1=None, gap=None,
        weights=None, tail_weights=None,
        final_w=final_w,
        w0=np.zeros(d) if w0 is None else np.asarray(w0, dtype=float),
        diverged_step=diverged_step,
    )


def manual_ensemble(config, finals_by_dataset, w0=None):
    """An ensemble of records with hand-set final weights, keyed by dataset
    seed; ``w0="same"`` starts each run at its final weights."""
    return tuple(
        make_record(config, fw, dataset_seed=ds_seed,
                    w0=fw if w0 == "same" else None if w0 is None else w0[j])
        for ds_seed, finals in finals_by_dataset.items()
        for j, fw in enumerate(finals))


class TestGTildeChoice:
    def test_kinds_validated(self):
        step = make_step([1.0], [[1.0]], pop_grad=[0.5], raw_pop=[[1.0]])
        tape = make_tape([[step]], n=10)
        for bound in (traj_bound_isotropic, traj_bound_langevin):
            bound(tape, "zero")
            bound(tape, "population-gradient")
            with pytest.raises(ConfigError):
                bound(tape, "sgd")
            with pytest.raises(ConfigError):
                bound(tape, "custom")


class TestScalarObjectives:
    """The three prior objectives are minimized exactly where advertised."""

    def test_isotropic_step_optimum_on_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            h1 = float(rng.uniform(0.1, 10.0))
            h2 = float(rng.uniform(-5.0, 5.0))
            star = isotropic_step_kl(h1 / d, h1, h2, d)
            grid = np.geomspace(1e-3, 1e3, 1000)
            values = [isotropic_step_kl(s, h1, h2, d) for s in grid]
            assert min(values) - star >= -1e-9

    def test_anisotropic_scale_optimum_on_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            pop = SpdMatrix.from_matrix(random_spd(rng, d, min_eig=0.2))
            gnc = SpdMatrix.from_matrix(random_spd(rng, d, min_eig=0.2))
            c_star = pop.inv_trace_product(gnc.matrix) / d
            star = anisotropic_prior_objective(c_star, pop, gnc)
            grid = np.geomspace(1e-3, 1e3, 1000)
            values = [anisotropic_prior_objective(c, pop, gnc) for c in grid]
            assert min(values) - star >= -1e-9

    def test_terminal_isotropic_optimum_on_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            msd = float(rng.uniform(0.0, 4.0))
            eta = float(rng.uniform(0.01, 1.0))
            b = int(rng.integers(1, 16))
            star = isotropic_terminal_kl(msd / d + eta / (2 * b), msd, d, eta, b)
            grid = np.geomspace(1e-4, 1e3, 1000)
            values = [isotropic_terminal_kl(s, msd, d, eta, b) for s in grid]
            assert min(values) - star >= -1e-9

    def test_positivity_domain(self):
        with pytest.raises(ConfigError):
            isotropic_step_kl(0.0, 1.0, 0.0, 1)
        with pytest.raises(ConfigError):
            anisotropic_prior_objective(-1.0,
                                        SpdMatrix.from_matrix(np.eye(1)),
                                        SpdMatrix.from_matrix(np.eye(1)))
        with pytest.raises(ConfigError):
            isotropic_terminal_kl(0.0, 1.0, 1, 0.1, 1)


class TestIsotropicTrajectory:
    def test_identity_noise_and_matched_reference_vanish(self):
        """C = I and g-tilde = G make the optimal prior exactly the step
        kernel, so the per-step term and the whole bound are zero."""
        g = np.array([0.4, -0.9, 0.2])
        step = make_step(g, np.eye(3), pop_grad=g, raw_pop=np.eye(3))
        tape = make_tape([[step]], n=25)
        report = traj_bound_isotropic(tape, "population-gradient")
        assert report.per_step_terms[0] == pytest.approx(0.0, abs=1e-12)
        assert report.core == pytest.approx(0.0, abs=1e-9)

    def test_scalar_worked_example(self):
        # d = 1, ||G||^2 = 1, C = [[1]]: h1 = 2, h2 = 0, term = log 2.
        tape = make_tape([[make_step([1.0], [[1.0]])]], n=10)
        report = traj_bound_isotropic(tape)
        assert report.per_step_terms[0] == pytest.approx(np.log(2.0), rel=1e-12)
        assert report.core == pytest.approx(np.sqrt(np.log(2.0) / 10.0), rel=1e-12)
        assert report.components["sigma_star_sq_final"] == pytest.approx(2.0)

    def test_h1_averages_across_runs_before_the_log(self):
        runs = [[make_step([1.0], [[1.0]])], [make_step([np.sqrt(3.0)], [[1.0]])]]
        report = traj_bound_isotropic(make_tape(runs, n=10))
        # h1 values are 2 and 4; the term uses their mean, not the mean term.
        assert report.per_step_terms[0] == pytest.approx(np.log(3.0), rel=1e-12)
        assert report.n_runs_used == 2

    def test_per_step_term_is_twice_the_optimal_kl(self):
        rng = np.random.default_rng(3)
        c = random_spd(rng, 3, min_eig=0.2)
        step = make_step(rng.standard_normal(3), c)
        report = traj_bound_isotropic(make_tape([[step]], n=5))
        h1 = float(step.grad @ step.grad) + step.trace_c
        h2 = float(np.linalg.slogdet(c)[1])
        expected = 2.0 * isotropic_step_kl(h1 / 3.0, h1, h2, 3)
        assert report.per_step_terms[0] == pytest.approx(expected, rel=1e-10)

    def test_value_is_core_times_radius(self):
        tape = make_tape([[make_step([1.0], [[1.0]])]], n=10)
        report = traj_bound_isotropic(tape, R=3.7)
        assert report.value == report.core * 3.7

    def test_cadence_rescaling_and_flags(self):
        tape = make_tape([[make_step([1.0], [[1.0]])]], n=10, scale=5,
                         any_diverged=True)
        report = traj_bound_isotropic(tape)
        assert report.core == pytest.approx(np.sqrt(5 * np.log(2.0) / 10.0))
        assert "approximate-cadence" in report.flags
        assert "diverged-runs" in report.flags

    def test_population_reference_enters_h1(self):
        rng = np.random.default_rng(4)
        pop = random_spd(rng, 2, min_eig=0.3)
        step = make_step(rng.standard_normal(2), random_spd(rng, 2, min_eig=0.3),
                         pop_grad=rng.standard_normal(2), raw_pop=pop)
        report = traj_bound_isotropic(make_tape([[step]], n=8, b=4),
                                      "population-gradient")
        diff = step.grad - step.pop_grad
        assert report.extra_series["h1"][0] == pytest.approx(
            diff @ diff + step.trace_c, rel=1e-12)
        assert sorted(report.extra_series) == ["h1", "h2"]

    def test_population_reference_requires_population_tape(self):
        tape = make_tape([[make_step([1.0], [[1.0]])]], n=10)
        with pytest.raises(ConfigError):
            traj_bound_isotropic(tape, "population-gradient")

    def test_nonpositive_h1_raises(self):
        step = make_step([0.0], [[1.0]], trace_c=-2.0)
        with pytest.raises(NumericalError):
            traj_bound_isotropic(make_tape([[step]], n=10))

    def test_flooring_flag_and_sensitivity(self):
        """A rank-deficient GNC floors its log-determinant; the report says so
        and carries the core recomputed at ten times the floor."""
        step = make_step([1.0, 0.0], np.diag([1.0, 0.0]))
        report = traj_bound_isotropic(make_tape([[step]], n=10))
        assert "floored-log" in report.flags
        alt = report.components["core_at_10x_floor"]
        assert alt != report.core
        assert alt < report.core  # a higher floor shrinks the log gap

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_zero_reference_terms_are_nonnegative(self, seed):
        """AM-GM: d log(h1/d) >= d log(tr C/d) >= log det C for unfloored C."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        step = make_step(rng.standard_normal(d), random_spd(rng, d, min_eig=0.1))
        report = traj_bound_isotropic(make_tape([[step]], n=5))
        assert report.per_step_terms[0] >= -1e-12


class TestLangevinTrajectory:
    def test_matched_reference_gives_zero(self):
        g = np.array([1.0, 2.0])
        tape = make_tape([[make_step(g, np.eye(2), pop_grad=g)]], n=10,
                         mode="gld")
        report = traj_bound_langevin(tape, "population-gradient")
        assert report.core == 0.0
        assert "counterfactual-mode" not in report.flags

    def test_scalar_worked_example(self):
        # d = 1 and ||G||^2 = e - 1: term = log(e) = 1, core = sqrt(1/n).
        g = np.array([np.sqrt(np.e - 1.0)])
        tape = make_tape([[make_step(g, [[1.0]])]], n=16, mode="gld")
        report = traj_bound_langevin(tape)
        assert report.per_step_terms[0] == pytest.approx(1.0, rel=1e-12)
        assert report.core == pytest.approx(0.25, rel=1e-12)

    def test_counterfactual_flag_for_non_gld_tapes(self):
        tape = make_tape([[make_step([1.0], [[1.0]])]], n=10, mode="sgd")
        report = traj_bound_langevin(tape)
        assert "counterfactual-mode" in report.flags

    def test_loose_series_dominates(self):
        rng = np.random.default_rng(5)
        runs = [[make_step(rng.standard_normal(3), np.eye(3)) for _ in range(4)]]
        report = traj_bound_langevin(make_tape(runs, n=10, mode="gld"))
        loose = report.extra_series["loose_per_step_terms"]
        assert np.all(loose >= report.per_step_terms)
        assert (report.components["loose_term_sum"]
                >= report.components["term_sum"])

    def test_value_is_core_times_radius(self):
        tape = make_tape([[make_step([1.0], [[1.0]])]], n=10, mode="gld")
        report = traj_bound_langevin(tape, R=2.5)
        assert report.value == report.core * 2.5


class TestAnisotropicTrajectory:
    def test_matched_population_shape_vanishes(self):
        """pop GNC = b * C and G = g-tilde make the prior at scale 1/b the
        transition exactly, so the KL at its minimizer is zero."""
        rng = np.random.default_rng(6)
        c = random_spd(rng, 3, min_eig=0.2)
        b = 2
        step = make_step(np.zeros(3), c, pop_grad=np.zeros(3), raw_pop=b * c)
        report = traj_bound_anisotropic(make_tape([[step]], n=10, b=b))
        assert report.per_step_terms[0] == pytest.approx(0.0, abs=1e-10)
        assert report.core == pytest.approx(0.0, abs=1e-6)

    def test_diagonal_worked_example(self):
        # d = 2, pop = diag(1, 4), C = I, G = g-tilde = 0: q = tr(pop^-1 C)
        # = 1.25, so the term is 2 log(1.25 / 2) + log 4 = log 1.5625.
        step = make_step(np.zeros(2), np.eye(2), pop_grad=np.zeros(2),
                         raw_pop=np.diag([1.0, 4.0]))
        report = traj_bound_anisotropic(make_tape([[step]], n=10, b=1))
        assert report.per_step_terms[0] == pytest.approx(np.log(1.5625), rel=1e-12)
        assert report.core == pytest.approx(np.sqrt(np.log(1.5625) / 10.0),
                                            rel=1e-12)

    def test_mean_term_follows_the_reference_gradient(self):
        """With pop = C = I the log-det gap is 0 and tr(pop^-1 C) = d, so
        the term is d log(1 + |G - g~|^2 / d): |G|^2 = 4 under the zero
        reference and |G - g_pop|^2 = 1 under the population one; an unknown
        reference kind is a config error."""
        step = make_step([2.0, 0.0], np.eye(2), pop_grad=[1.0, 0.0],
                         raw_pop=np.eye(2))
        tape = make_tape([[step]], n=10, b=1)
        for g_tilde, sq in (("zero", 4.0), ("population-gradient", 1.0)):
            report = traj_bound_anisotropic(tape, g_tilde)
            assert report.per_step_terms[0] == pytest.approx(
                2 * np.log1p(sq / 2), rel=1e-12)
            assert report.config["g_tilde"] == g_tilde
        with pytest.raises(ConfigError):
            traj_bound_anisotropic(tape, "mean")

    def test_requires_population_tape(self):
        tape = make_tape([[make_step([1.0], [[1.0]])]], n=10)
        with pytest.raises(ConfigError):
            traj_bound_anisotropic(tape)

    def test_shrunk_population_shape_is_matched_by_the_prior_scale(self):
        """pop = 0.01 I against C = I: the prior scale 100 matches the
        transition, so the KL term is 0, while the surrogate the report
        keeps as a component, log det pop - log det(b C), is 2 log 0.01."""
        step = make_step(np.zeros(2), np.eye(2), pop_grad=np.zeros(2),
                         raw_pop=0.01 * np.eye(2))
        report = traj_bound_anisotropic(make_tape([[step]], n=10, b=1))
        assert report.per_step_terms[0] == pytest.approx(0.0, abs=1e-12)
        assert report.components["surrogate_term_sum"] == pytest.approx(
            2 * np.log(0.01), rel=1e-12)
        assert "nonpositive-sum" not in report.flags

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_terms_are_nonnegative(self, seed):
        """Each term is twice a mean of KLs at one shared prior scale, so no
        term is negative while no floor fires."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        runs = [[make_step(rng.standard_normal(d), random_spd(rng, d, min_eig=0.1),
                           pop_grad=rng.standard_normal(d),
                           raw_pop=random_spd(rng, d, min_eig=0.1))]
                for _ in range(3)]
        tape = make_tape(runs, n=5)
        for g_tilde in ("zero", "population-gradient"):
            assert traj_bound_anisotropic(tape, g_tilde).per_step_terms[0] >= -1e-12

    @pytest.mark.parametrize("g_tilde", ["zero", "population-gradient"])
    def test_isotropic_population_shape_gives_the_isotropic_terms(self, g_tilde):
        """With P = c I the prior family is the isotropic one, so both
        bounds minimize over the same priors: q is h1 / c and the log-det
        gap d log c - log det C, and the per-step terms agree to rounding."""
        rng = np.random.default_rng(7)
        runs = [[make_step(rng.standard_normal(3), random_spd(rng, 3, min_eig=0.2),
                           pop_grad=rng.standard_normal(3),
                           raw_pop=0.7 * np.eye(3))
                 for _ in range(5)] for _ in range(3)]
        tape = make_tape(runs, n=10, b=3)
        np.testing.assert_allclose(
            traj_bound_anisotropic(tape, g_tilde).per_step_terms,
            traj_bound_isotropic(tape, g_tilde).per_step_terms, rtol=1e-12)


def brute_force_loo_terms(rec, eps_scale=1.0):
    """Per-step data-dependent terms of one record from all n explicitly
    built and floored leave-one-out covariances C_J = Sigma_J / b."""
    cfg = rec.config
    problem = build_problem(cfg.spec)
    dataset = generate_dataset(cfg.spec, rec.dataset.seed, cfg.n)
    n, b = cfg.n, cfg.b
    d = rec.final_w.shape[0]

    def log_det_c(rows):
        cov = np.atleast_2d(np.cov(rows.T, bias=True)) / b
        return log_det(SpdMatrix.from_matrix(cov, eps_scale))

    terms = []
    for w in rec.weights[:-1]:
        grads = problem.per_example_grads(w, dataset.features, dataset.labels)
        subs = [log_det_c(np.delete(grads, i, axis=0)) for i in range(n)]
        terms.append((b - 1) * d / (n - 1) ** 2 + log_det_c(grads) - np.mean(subs))
    return np.array(terms)


class TestDataDependentTrajectory:
    def test_per_step_terms_match_gaussian_kl_oracle(self):
        """Under full leave-one-out enumeration the per-step term equals twice
        the average KL between the subset-prior and full-posterior step
        kernels; the step size cancels inside the KL."""
        cfg = quad_config(steps=3)
        rec = train_run(cfg)
        report = traj_bound_data_dependent(tape_from_records([rec], leave_one_out=True))
        problem = build_problem(cfg.spec)
        dataset = generate_dataset(cfg.spec, cfg.effective_dataset_seed, cfg.n)
        n, b = cfg.n, cfg.b
        eta = 0.1
        for k in range(len(rec.steps) - 1):
            w = rec.weights[k]
            grads = problem.per_example_grads(w, dataset.features, dataset.labels)
            mean = grads.mean(axis=0)
            sigma = grads.T @ grads / n - np.outer(mean, mean)
            post = GaussianDist(w - eta * mean,
                                SpdMatrix.from_matrix(eta * eta * sigma / b))
            kls = []
            for drop in range(n):
                idx = [i for i in range(n) if i != drop]
                sub = grads[idx]
                gj = sub.mean(axis=0)
                sj = sub.T @ sub / (n - 1) - np.outer(gj, gj)
                prior = GaussianDist(w - eta * gj,
                                     SpdMatrix.from_matrix(eta * eta * sj / b))
                kls.append(gaussian_kl(prior, post))
            expected = 2.0 * float(np.mean(kls))
            assert report.per_step_terms[k] == pytest.approx(expected, abs=1e-10)

    def test_identical_gradients_give_zero_at_b1(self):
        spec = QuadraticSpec(curvature=1.0, center=np.zeros(2),
                             scatter=np.zeros((2, 2)), pop_oracle_size=100)
        cfg = quad_config(spec=spec, n=6, b=1, steps=2)
        rec = train_run(cfg)
        report = traj_bound_data_dependent(tape_from_records([rec], leave_one_out=True))
        np.testing.assert_allclose(report.per_step_terms, 0.0, atol=1e-12)
        assert report.components["constant_per_step"] == 0.0

    def test_constant_term_scales_with_batch_size(self):
        cfg = quad_config(n=8, b=2, steps=2)
        rec = train_run(cfg)
        report = traj_bound_data_dependent(tape_from_records([rec], leave_one_out=True))
        assert report.components["constant_per_step"] == pytest.approx(
            (2 - 1) * 2 / (8 - 1) ** 2)

    def test_dataset_mean_stays_outside_the_square_root(self):
        recs = [train_run(quad_config(seed=s, dataset_seed=s, steps=2))
                for s in (0, 1)]
        both = traj_bound_data_dependent(tape_from_records(recs, leave_one_out=True))
        singles = [traj_bound_data_dependent(
                       tape_from_records([r], leave_one_out=True)).core
                   for r in recs]
        assert both.core == pytest.approx(np.mean(singles), rel=1e-12)

    def test_subset_size_precondition(self):
        cfg = quad_config(n=4, b=3, steps=2)
        rec = train_run(cfg)
        with pytest.raises(ConfigError):
            traj_bound_data_dependent(tape_from_records([rec], leave_one_out=True))

    def test_n14_averages_over_all_14_subsets(self):
        rec = train_run(quad_config(n=14, b=1, steps=2))
        report = traj_bound_data_dependent(tape_from_records([rec], leave_one_out=True))
        np.testing.assert_allclose(report.per_step_terms,
                                   brute_force_loo_terms(rec), rtol=0, atol=1e-10)

    def test_closed_form_matches_enumeration_of_all_subsets(self):
        spec = QuadraticSpec(curvature=np.diag([0.5, 0.8, 1.0, 1.3, 1.6]),
                             center=np.zeros(5),
                             scatter=random_spd(np.random.default_rng(3), 5),
                             pop_oracle_size=100)
        rec = train_run(quad_config(spec=spec, n=40, b=2, steps=4))
        report = traj_bound_data_dependent(tape_from_records([rec], leave_one_out=True))
        assert "floored-log" not in report.flags
        np.testing.assert_allclose(report.per_step_terms,
                                   brute_force_loo_terms(rec), rtol=0, atol=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [4, 6], ids=["n-below-d", "n-is-d-plus-1"])
    def test_subsets_a_floor_touches_match_enumeration(self, n):
        """With d = 5, n = 4 floors C itself; at n = 6 C is full rank but
        every example carries a direction alone, so every C_J is floored."""
        spec = QuadraticSpec(curvature=np.diag([0.5, 0.8, 1.0, 1.3, 1.6]),
                             center=np.zeros(5), scatter=np.eye(5),
                             pop_oracle_size=100)
        rec = train_run(quad_config(spec=spec, n=n, b=1, steps=3))
        report = traj_bound_data_dependent(tape_from_records([rec], leave_one_out=True))
        assert "floored-log" in report.flags
        np.testing.assert_allclose(report.per_step_terms,
                                   brute_force_loo_terms(rec), rtol=0, atol=1e-10)
        terms10 = brute_force_loo_terms(rec, FLOOR_SENSITIVITY_SCALE)
        assert report.components["core_at_10x_floor"] == pytest.approx(
            np.sqrt(max(terms10.sum(), 0.0)), abs=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_replay_and_one_eigh_per_matrix_when_floored(self, monkeypatch):
        """n = 4 < d = 5 floors C at every state, so every C_J is built
        explicitly; the 10x pass reuses those decompositions and gradients.
        C comes from the tape pass's one decomposition of the run's chunk,
        and each C_J is decomposed once, within one stacked ``eigh`` of each
        state's C_J. The bound itself only reduces the tape."""
        spec = QuadraticSpec(curvature=np.diag([0.5, 0.8, 1.0, 1.3, 1.6]),
                             center=np.zeros(5), scatter=np.eye(5),
                             pop_oracle_size=100)
        rec = train_run(quad_config(spec=spec, n=4, b=1, steps=3))
        eighs, grad_passes = [], []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda m: eighs.append(m) or eigh(m))
        per_example_grads = QuadraticProblem.per_example_grads
        monkeypatch.setattr(QuadraticProblem, "per_example_grads",
                            lambda *a: grad_passes.append(a) or per_example_grads(*a))
        tape = tape_from_records([rec], leave_one_out=True)
        # The run's moments take one pass per state, and one more per state
        # serves the replay of its C_J; a floored C needs no leverages.
        assert len(grad_passes) == 3 + 3
        # The chunk's C, then each state's 4 C_J as one stack; the record
        # carries its dataset, so no draw takes the scatter root.
        assert [m.shape for m in eighs] == [(3, 5, 5)] + [(4, 5, 5)] * 3
        report = traj_bound_data_dependent(tape)
        assert "core_at_10x_floor" in report.components
        assert len(grad_passes) == 6 and len(eighs) == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_chunks_split_states_and_replays_alike(self, monkeypatch):
        """At a chunk of 2 the three states go as 2 + 1, each chunk's C as
        one stack, and each state's six C_J replays as 2 + 2 + 2 stacks; the
        terms still equal the enumeration. Each state's C is unfloored but
        some of its C_J may floor, so its gradients are evaluated once for
        its moments, once for its leverages and once for its replays: no
        gradient array is kept from the leverages for the replay."""
        spec = QuadraticSpec(curvature=np.diag([0.5, 0.8, 1.0, 1.3, 1.6]),
                             center=np.zeros(5), scatter=np.eye(5),
                             pop_oracle_size=100)
        rec = train_run(quad_config(spec=spec, n=6, b=1, steps=3))
        eighs, grad_passes, chunks = [], [], []
        eigh = np.linalg.eigh
        monkeypatch.setattr(bounds, "LOO_STATE_CHUNK", 2)
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda m: eighs.append(m.shape) or eigh(m))
        per_example_grads = QuadraticProblem.per_example_grads
        monkeypatch.setattr(QuadraticProblem, "per_example_grads",
                            lambda *a: grad_passes.append(a) or per_example_grads(*a))
        gaps = bounds._loo_log_det_gaps
        monkeypatch.setattr(bounds, "_loo_log_det_gaps",
                            lambda problem, ws, *a: chunks.append(len(ws))
                            or gaps(problem, ws, *a))
        report = traj_bound_data_dependent(
            tape_from_records([rec], leave_one_out=True))
        monkeypatch.undo()
        assert chunks == [2, 1]
        assert len(grad_passes) == 3 + 3 + 3
        assert eighs == ([(2, 5, 5)] + [(2, 5, 5)] * 6
                         + [(1, 5, 5)] + [(2, 5, 5)] * 3)
        np.testing.assert_allclose(report.per_step_terms,
                                   brute_force_loo_terms(rec), rtol=0, atol=1e-10)

    def test_no_per_example_gradient_outlives_its_state(self, monkeypatch):
        """The gaps evaluate a state's per-example gradients where they use
        them and keep none for later states: whenever a gradient pass
        starts, at most one earlier pass's array is still alive (the one
        the loop is about to replace), over a run that fills a chunk of
        states and starts another."""
        rec = train_run(quad_config(steps=LOO_STATE_CHUNK + 1))
        alive, arrays = [], []
        per_example_grads = QuadraticProblem.per_example_grads

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in arrays))
            grads = per_example_grads(*args)
            arrays.append(weakref.ref(grads))
            return grads

        monkeypatch.setattr(QuadraticProblem, "per_example_grads", tracked)
        tape = tape_from_records([rec], leave_one_out=True)
        monkeypatch.undo()
        # No C floors, so every state's leverages take a gradient pass
        # beside its moments.
        assert not tape.floored_c.any()
        assert len(alive) >= 2 * tape.n_steps
        assert max(alive) <= 1

    def test_tape_without_leave_one_out_is_rejected(self):
        rec = train_run(quad_config(steps=2))
        with pytest.raises(ConfigError, match="leave_one_out"):
            traj_bound_data_dependent(tape_from_records([rec]))

    def test_value_is_core_times_loss_bound(self):
        rec = train_run(quad_config(steps=2))
        report = traj_bound_data_dependent(
            tape_from_records([rec], leave_one_out=True), M=4.0)
        assert report.value == report.core * 4.0


def logistic_record(d, n, l2=0.0, **overrides):
    spec = LogisticSpec(dim=d, mean0=-0.5 * np.ones(d), mean1=0.5 * np.ones(d),
                        l2=l2, pop_oracle_size=100)
    return train_run(quad_config(spec=spec, n=n, **overrides))


def count_per_example_grads(monkeypatch):
    """A list that gets one entry per ``LogisticProblem.per_example_grads``
    call."""
    calls = []
    per_example_grads = LogisticProblem.per_example_grads
    monkeypatch.setattr(LogisticProblem, "per_example_grads",
                        lambda *args: calls.append(1) or per_example_grads(*args))
    return calls


class TestLogisticDataDependentTrajectory:
    """The logistic leverages come from ``grad_leverages``' GEMMs; the bound
    still equals the enumeration of all n explicitly built C_J."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("l2", [0.0, 0.05])
    def test_unfloored_run_matches_enumeration(self, l2, monkeypatch):
        """Every C_J is exact, so no per-example gradient is evaluated. The
        run's states fill two chunks and part of a third."""
        rec = logistic_record(d=3, n=30, l2=l2, b=3, steps=2 * LOO_STATE_CHUNK + 3)
        calls = count_per_example_grads(monkeypatch)
        report = traj_bound_data_dependent(tape_from_records([rec], leave_one_out=True))
        assert calls == []
        monkeypatch.undo()
        assert "floored-log" not in report.flags
        np.testing.assert_allclose(report.per_step_terms,
                                   brute_force_loo_terms(rec), rtol=0, atol=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [6, 5], ids=["n-is-d-plus-1", "n-is-d"])
    def test_floored_run_matches_enumeration(self, n):
        """At d = 5, n = 6 leaves every C_J rank-deficient and n = 5 floors C
        itself, so every C_J is built explicitly."""
        rec = logistic_record(d=5, n=n, l2=0.05, b=1, steps=3)
        report = traj_bound_data_dependent(tape_from_records([rec], leave_one_out=True))
        assert "floored-log" in report.flags
        np.testing.assert_allclose(report.per_step_terms,
                                   brute_force_loo_terms(rec), rtol=0, atol=1e-10)
        terms10 = brute_force_loo_terms(rec, FLOOR_SENSITIVITY_SCALE)
        assert report.components["core_at_10x_floor"] == pytest.approx(
            np.sqrt(max(terms10.sum(), 0.0)), abs=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exact_and_explicit_subsets_mix_within_one_chunk(self, monkeypatch):
        """Along w = s (1, 1), the sigmoids saturate as s grows and a few
        examples carry most of the gradient noise. At s = 8 and 9 the
        interlacing bound of one C_J does not clear its floor, at s = 1 and
        2 none fails; the four states share one chunk, and only the two
        saturated states evaluate their per-example gradients, once each."""
        rec = logistic_record(d=2, n=8, b=1, steps=4, dataset_seed=0)
        rec = dataclasses.replace(
            rec, weights=np.array([1.0, 8.0, 9.0, 2.0, 1.0])[:, None] * np.ones(2))
        calls = count_per_example_grads(monkeypatch)
        report = traj_bound_data_dependent(
            tape_from_records([rec], leave_one_out=True))
        assert len(calls) == 2
        monkeypatch.undo()
        np.testing.assert_allclose(report.per_step_terms,
                                   brute_force_loo_terms(rec), rtol=0, atol=1e-10)


    @pytest.mark.parametrize("l2", [0.0, 0.05])
    def test_unfloored_run_takes_its_covariances_from_the_tape(self, l2,
                                                              monkeypatch):
        """On an unfloored run the leave-one-out gaps decompose no matrix and
        compute no moment of their own: each chunk's C is the tape pass's
        one decomposition of that chunk, rescaled, from the run's one
        ``grad_moments`` call, and only the leverage kernel runs. The bound
        then only reduces the tape."""
        rec = logistic_record(d=3, n=30, l2=l2, b=3, steps=2 * LOO_STATE_CHUNK + 3)
        decompositions, moments, leverages = [], [], []
        from_matrix = SpdMatrix.from_matrix
        grad_moments = LogisticProblem.grad_moments
        grad_leverages = LogisticProblem.grad_leverages
        monkeypatch.setattr(SpdMatrix, "from_matrix", classmethod(
            lambda cls, *a: decompositions.append(1) or from_matrix(*a)))
        monkeypatch.setattr(LogisticProblem, "grad_moments",
                            lambda *a: moments.append(1) or grad_moments(*a))
        monkeypatch.setattr(LogisticProblem, "grad_leverages",
                            lambda *a: leverages.append(1) or grad_leverages(*a))
        tape = tape_from_records([rec], leave_one_out=True)
        # One stack of C per chunk of states, one moment call per run.
        assert len(decompositions) == 3 and len(moments) == 1
        assert len(leverages) == 3  # one per chunk of states
        report = traj_bound_data_dependent(tape)
        monkeypatch.undo()
        assert "floored-log" not in report.flags
        assert len(decompositions) == 3 and len(moments) == 1
        assert len(leverages) == 3


@pytest.mark.parametrize("spec, n, b", [
    (LogisticSpec(dim=4, mean0=-0.5 * np.ones(4), mean1=0.5 * np.ones(4),
                  l2=0.05, pop_oracle_size=100), 30, 3),
    (MlpSpec(in_dim=3, hidden=4, classes=3, teacher_seed=7,
             pop_oracle_size=100), 40, 8)], ids=["logistic", "mlp-floored"])
def test_rescaled_tape_gnc_is_the_leave_one_out_c(spec, n, b, monkeypatch):
    """The data-dependent gaps' C = Sigma/b is the tape pass's exact-factor
    GNC rescaled by (n - 1)/(n - b): to 1e-12 relative (floored eigenvalues
    against the largest of their matrix, traces against themselves) it is a
    fresh decomposition of Sigma/b, and it floors the same matrices. Every
    MLP C floors (its logit gradients sum to zero over the classes); no
    logistic C does."""
    records = [train_run(quad_config(spec=spec, n=n, b=b, steps=4, seed=s))
               for s in (0, 1)]
    seen = []
    gaps = bounds._loo_log_det_gaps
    monkeypatch.setattr(bounds, "_loo_log_det_gaps",
                        lambda problem, ws, data, c, trace_c, b:
                        seen.append((c, trace_c))
                        or gaps(problem, ws, data, c, trace_c, b))
    tape = tape_from_records(records, leave_one_out=True)
    assert len(seen) == len(records)  # one chunk of 4 states per run
    problem = build_problem(spec)
    for r, (rec, (got, trace_c)) in enumerate(zip(records, seen)):
        sigma, _ = problem.grad_moments(rec.weights[:-1], rec.dataset.features,
                                        rec.dataset.labels)
        want = SpdMatrix.from_matrix(sigma / b)
        assert np.array_equal(got.floored_each, want.floored_each)
        assert got.floored_each.tolist() == [isinstance(spec, MlpSpec)] * tape.n_steps
        assert np.all(np.abs(got.eigenvalues - want.eigenvalues)
                      <= 1e-12 * want.eigenvalues[:, -1:])
        np.testing.assert_allclose(
            trace_c, np.trace(sigma, axis1=-2, axis2=-1) / b, rtol=1e-12)
        assert np.array_equal(trace_c, (n - 1) / (n - b) * tape.trace_c[:, r])


CHUNK_CASES = {
    "logistic": (LogisticSpec(dim=4, mean0=-0.5 * np.ones(4), mean1=0.5 * np.ones(4),
                              l2=0.05, pop_oracle_size=100), 30, 3),
    "mlp-floored": (MlpSpec(in_dim=3, hidden=4, classes=3, teacher_seed=7,
                            pop_oracle_size=100), 40, 8),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("steps", [1, LOO_STATE_CHUNK - 1, LOO_STATE_CHUNK,
                                   LOO_STATE_CHUNK + 1, 2 * LOO_STATE_CHUNK + 1])
@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_chunked_tape_scalars_equal_one_decomposition_of_each_run_stack(case, steps):
    """Wherever the tape's pass cuts a run's states into chunks, every
    per-state field it keeps (traces, log-determinants at both floor
    scales, floored flags, the prior's quadratic terms and the
    leave-one-out gaps) equals bit for bit the same field from one
    decomposition of the whole (K, R, d, d) stack: a stacked ``eigh`` and
    the stacked products of its eigenvectors are per matrix what a
    sub-stack's are. The gaps' leverage kernels see the
    same chunks of states either way (on the logistic family its GEMMs
    round by the number of states). Every MLP C floors, so there every
    C_J is replayed; no logistic C does."""
    spec, n, b = CHUNK_CASES[case]
    records = [train_run(quad_config(spec=spec, n=n, b=b, steps=steps, seed=s))
               for s in (0, 1)]
    tape = tape_from_records(records, population=True, leave_one_out=True)
    want = stacked_tape_scalars(records, (1.0, FLOOR_SENSITIVITY_SCALE),
                                bounds._prior_scalars,
                                (bounds._loo_log_det_gaps, LOO_STATE_CHUNK))
    assert tape.n_steps == steps
    assert set(want) == {f"{name}_{suffix}" for suffix in ("c", "pop") for name in
                         ("trace", "log_det", "floored")} | {
                             "inv_trace_pop", "mahalanobis_pop", "loo_gap",
                             "loo_floored"}

    def compare(got, value, where):
        if isinstance(value, dict):
            assert sorted(got) == sorted(value), where
            for key in value:
                compare(got[key], value[key], (*where, key))
        else:
            assert got.shape == (steps, 2), where
            assert np.array_equal(got, value), where

    for name, value in want.items():
        compare(getattr(tape, name), value, (name,))
    assert tape.floored_c.all() == (case == "mlp-floored")
    assert tape.floored_c.any() == (case == "mlp-floored")


def test_tape_and_bounds_hold_one_run_and_one_chunk_of_matrices():
    """The tape's pass holds one run's (K, d, d) moments and one chunk's
    d x d arrays, never a (K, R, d, d) stack: the traced peak of building a
    tape with both halves and the leave-one-out gaps and of the four tape
    bounds, above what is live at entry, stays below a bound written from
    that design (numpy reports its buffers to ``tracemalloc``). A tape of
    (K, R, d, d) stacks would hold 10.2 MB per stack here."""
    d, n, b, states, grid = 40, 200, 10, 100, (4, 2)
    spec = LogisticSpec(dim=d, mean0=-0.5 * np.ones(d), mean1=0.5 * np.ones(d),
                        pop_oracle_size=1000)
    records = run_ensemble(quad_config(spec=spec, n=n, b=b, steps=states),
                           *grid, terminal_only=False)
    f8, runs, packed = 8, grid[0] * grid[1], d * (d + 1) // 2
    bound = (2 * states * d * d * f8  # one run's C and P moments
             + 8 * LOO_STATE_CHUNK * d * d * f8  # one chunk's d x d arrays
             # the moment kernel's row-chunk products and (K, ...) sums
             + 2 * GRAD_MOMENT_CHUNK * packed * f8 + 4 * states * packed * f8
             + 2 * states * runs * d * f8  # the tape's grad and pop_grad
             + 2**20)  # smaller arrays
    tracemalloc.start()
    try:
        tape = tape_from_records(records, population=True, leave_one_out=True)
        reports = [traj_bound_isotropic(tape, "population-gradient"),
                   traj_bound_langevin(tape, "population-gradient"),
                   traj_bound_anisotropic(tape), traj_bound_data_dependent(tape)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tape.n_steps == states and tape.n_runs == runs
    assert all(np.isfinite(rep.core) for rep in reports)
    assert peak < bound, (peak, bound)


class TestTapeFromRecords:
    def test_requires_recorded_weights(self):
        rec = train_run(quad_config(record_weights=False))
        with pytest.raises(ConfigError):
            tape_from_records([rec])

    def test_mixed_configs_rejected(self):
        a = train_run(quad_config(steps=3))
        b = train_run(quad_config(steps=4))
        with pytest.raises(ConfigError):
            tape_from_records([a, b])

    def test_last_logged_state_is_excluded(self):
        cfg = quad_config(steps=4, log_every=1)
        tape = tape_from_records([train_run(cfg)])
        assert tape.n_steps == 4
        assert tape.steps.tolist() == [1, 2, 3, 4]

    def test_population_statistics_toggle(self):
        rec = train_run(quad_config(steps=2))
        plain = tape_from_records([rec])
        assert not plain.has_population
        assert plain.trace_pop is None and plain.pop_grad is None
        assert plain.log_det_pop is None and plain.inv_trace_pop is None
        assert plain.mahalanobis_pop is None
        assert plain.loo_gap is None and plain.loo_floored is None
        pop = tape_from_records([rec], population=True, leave_one_out=True)
        assert pop.has_population
        for field in ("trace_pop", "floored_pop", "loo_floored"):
            assert getattr(pop, field).shape == (2, 1), field
        by_scale = [pop.log_det_c, pop.log_det_pop, pop.loo_gap, pop.inv_trace_pop,
                    *pop.mahalanobis_pop.values()]
        assert sorted(pop.mahalanobis_pop) == ["population-gradient", "zero"]
        for field in by_scale:
            assert sorted(field) == [1.0, FLOOR_SENSITIVITY_SCALE]
            assert all(values.shape == (2, 1) for values in field.values())

    def test_population_tape_reconstructs_no_matrix(self, monkeypatch):
        """The tape and the bounds reading its population half take every
        scalar from the stacked eigenpairs: no floored reconstruction
        ``SpdMatrix.matrix`` of a C or P is formed."""
        records = [train_run(quad_config(steps=LOO_STATE_CHUNK + 1, seed=s))
                   for s in (0, 1)]

        def no_matrix(self):
            raise AssertionError("a floored reconstruction was formed")

        monkeypatch.setattr(SpdMatrix, "matrix", property(no_matrix))
        tape = tape_from_records(records, population=True)
        for g_tilde in ("zero", "population-gradient"):
            for bound in (traj_bound_isotropic, traj_bound_langevin,
                          traj_bound_anisotropic):
                assert np.isfinite(bound(tape, g_tilde).core)

    @pytest.mark.parametrize("steps", [3, LOO_STATE_CHUNK + 1])
    def test_one_eigendecomposition_per_stack(self, monkeypatch, steps):
        """The training and the population GNCs of every chunk of a run's
        states are decomposed as two stacks, one ``eigh`` call each: one
        chunk of 3 states, or a full chunk and one of a single state."""
        records = [train_run(quad_config(steps=steps, seed=s)) for s in (0, 1)]
        eighs = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda m: eighs.append(m.shape) or eigh(m))
        tape = tape_from_records(records, population=True)
        sizes = [3] if steps == 3 else [LOO_STATE_CHUNK, 1]
        assert eighs == [(k, 2, 2) for k in sizes for _ in range(2)] * 2
        assert (tape.grad.shape == (steps, 2, 2)
                and tape.trace_pop.shape == (steps, 2))

    def test_tape_statistics_match_direct_recomputation(self):
        cfg = quad_config(steps=2)
        rec = train_run(cfg)
        tape = tape_from_records([rec], population=True)
        problem = build_problem(cfg.spec)
        dataset = generate_dataset(cfg.spec, cfg.effective_dataset_seed, cfg.n)
        grads = problem.per_example_grads(rec.weights[0], dataset.features,
                                          dataset.labels)
        np.testing.assert_allclose(tape.grad[0, 0], grads.mean(axis=0), rtol=1e-12)
        assert tape.config.lr_at(tape.steps[0]) == 0.1
        mean = grads.mean(axis=0)
        sigma = grads.T @ grads / cfg.n - np.outer(mean, mean)  # b=1 factor 1
        np.testing.assert_allclose(tape.trace_c[0, 0], np.trace(sigma), rtol=1e-12)
        np.testing.assert_allclose(tape.log_det_c[1.0][0, 0],
                                   np.linalg.slogdet(sigma)[1], rtol=1e-12)
        oracle = rec.oracle
        ograds = problem.per_example_grads(rec.weights[0], oracle.features,
                                           oracle.labels)
        pop, pop_mean = gnc_from_grads(ograds)
        np.testing.assert_allclose(tape.inv_trace_pop[1.0][0, 0],
                                   np.trace(np.linalg.solve(pop, sigma)), rtol=1e-12)
        for kind, diff in (("zero", mean), ("population-gradient", mean - pop_mean)):
            np.testing.assert_allclose(tape.mahalanobis_pop[kind][1.0][0, 0],
                                       diff @ np.linalg.solve(pop, diff), rtol=1e-12)

    def test_logistic_tape_forms_no_per_example_gradient(self, monkeypatch):
        """The logistic tape takes every moment from ``grad_moments``'
        GEMMs, on the training set and the oracle, and agrees with the
        per-state moments to rounding: the traces and the prior's quadratic
        terms to 1e-12 relative, the floored log-determinants to 1e-12 per
        eigenvalue."""
        spec = LogisticSpec(dim=3, mean0=-0.5 * np.ones(3), mean1=0.5 * np.ones(3),
                            l2=0.05, pop_oracle_size=300)
        cfg = quad_config(spec=spec, n=12, b=3, steps=4)
        records = run_ensemble(cfg, 2, 2, terminal_only=False)
        calls = count_per_example_grads(monkeypatch)
        tape = tape_from_records(records, population=True)
        assert calls == []
        monkeypatch.undo()
        problem = build_problem(spec)
        factor = (cfg.n - cfg.b) / (cfg.b * (cfg.n - 1))
        for r, rec in enumerate(records):
            for k, w in enumerate(rec.weights[:-1]):
                moments = {}
                for data, grad, suffix, scale in [
                        (rec.dataset, tape.grad, "c", factor),
                        (rec.oracle, tape.pop_grad, "pop", 1.0)]:
                    sigma, mean = gnc_from_grads(problem.per_example_grads(
                        w, data.features, data.labels))
                    np.testing.assert_allclose(grad[k, r], mean, rtol=1e-12)
                    want = SpdMatrix.from_matrix(scale * sigma)
                    moments[suffix] = (scale * sigma, want, mean)
                    got = {name: getattr(tape, f"{name}_{suffix}")
                           for name in ("trace", "log_det")}
                    np.testing.assert_allclose(got["trace"][k, r],
                                               scale * np.trace(sigma), rtol=1e-12)
                    for scale_f in (1.0, FLOOR_SENSITIVITY_SCALE):
                        assert abs(got["log_det"][scale_f][k, r] - log_det(
                            want.refloored(scale_f))) <= 3 * 1e-12
                (raw_c, _, mean), (_, pop, pop_mean) = moments["c"], moments["pop"]
                for scale_f in (1.0, FLOOR_SENSITIVITY_SCALE):
                    prior = pop.refloored(scale_f)
                    np.testing.assert_allclose(
                        tape.inv_trace_pop[scale_f][k, r],
                        prior.inv_trace_product(raw_c), rtol=1e-12)
                    for kind, diff in (("zero", mean),
                                       ("population-gradient", mean - pop_mean)):
                        np.testing.assert_allclose(
                            tape.mahalanobis_pop[kind][scale_f][k, r],
                            prior.inv_trace_product(np.outer(diff, diff)),
                            rtol=1e-12)


def test_tape_bounds_equal_a_loop_over_steps_and_runs():
    """The three tape bounds reduce (step, run) arrays; their per-step terms
    equal a literal loop over steps and runs of one-matrix statistics (each
    state's GNCs from its run's moments, decomposed alone), to a
    tolerance of 8 float64 epsilons (the dot products may run in another
    order than the reductions)."""
    spec = LogisticSpec(dim=3, mean0=-0.5 * np.ones(3), mean1=0.5 * np.ones(3),
                        pop_oracle_size=200)
    records = [train_run(quad_config(spec=spec, n=12, b=3, steps=4, seed=s))
               for s in range(3)]
    tape = tape_from_records(records, population=True)
    d = tape.dim
    problem = build_problem(spec)
    factor = (12 - 3) / (3 * (12 - 1))
    # Each run's moments as the tape takes them, one matrix decomposed at a
    # time.
    moments = [(problem.grad_moments(rec.weights[:-1], rec.dataset.features,
                                     rec.dataset.labels)[0] * factor,
                problem.grad_moments(rec.weights[:-1], rec.oracle.features,
                                     rec.oracle.labels)[0])
               for rec in records]

    iso, lang, aniso = [], [], []
    for k in range(tape.n_steps):
        h1, h2, sq, q, gap = [], [], [], [], []
        for r in range(tape.n_runs):
            diff = tape.grad[k, r] - tape.pop_grad[k, r]
            c, pop = (SpdMatrix.from_matrix(m[k]) for m in moments[r])
            h1.append(float(diff @ diff) + tape.trace_c[k, r])
            h2.append(log_det(c))
            sq.append(float(diff @ diff))
            q.append(pop.inv_trace_product(moments[r][0][k] + np.outer(diff, diff)))
            gap.append(log_det(pop) - log_det(c))
        iso.append(d * np.log(np.mean(h1) / d) - np.mean(h2))
        lang.append(np.log1p(np.mean(sq) / d))
        aniso.append(d * np.log(np.mean(q) / d) + np.mean(gap))
    tol = 8 * np.finfo(float).eps
    for report, loop in [
            (traj_bound_isotropic(tape, "population-gradient"), iso),
            (traj_bound_langevin(tape, "population-gradient"), lang),
            (traj_bound_anisotropic(tape, "population-gradient"), aniso)]:
        np.testing.assert_allclose(report.per_step_terms, loop, rtol=tol)


@pytest.mark.parametrize("bound", [
    tape_from_records,
    # The data-dependent bound reads a tape, so the tape rejects the records.
    pytest.param(lambda records: traj_bound_data_dependent(
        tape_from_records(records, leave_one_out=True)),
        id="traj_bound_data_dependent"),
    terminal_bound_gradient_accum])
@pytest.mark.parametrize("field, values", [("n", (6, 8)), ("steps", (3, 5))])
def test_record_fed_bounds_reject_mismatched_records(bound, field, values):
    records = [train_run(quad_config(**{field: v})) for v in values]
    with pytest.raises(ConfigError, match="must share"):
        bound(records)


def _five_trajectory_reports(records):
    tape = tape_from_records(records, population=True, leave_one_out=True)
    return [traj_bound_isotropic(tape), traj_bound_langevin(tape),
            traj_bound_anisotropic(tape), traj_bound_data_dependent(tape),
            terminal_bound_gradient_accum(records)]


def test_trajectory_bounds_share_flags_and_setting():
    """A grid of two runs under a changing schedule, logged every 2 updates,
    one of which diverges: the five trajectory bounds leave the diverged run
    out (each core is the one of the finished run alone), raise
    ``diverged-runs`` and ``approximate-cadence`` in one order and report
    one run shape, eta at step T (gradient accumulation reports the largest
    eta, as documented)."""
    cfg = quad_config(n=20, b=4, steps=400, log_every=2,
                      lr_schedule=((1, 0.1), (5, 1.71), (300, 0.1)))
    records = [train_run(dataclasses.replace(cfg, seed=s)) for s in (0, 2)]
    assert records[0].diverged and not records[1].diverged
    reports = _five_trajectory_reports(records)
    alone = _five_trajectory_reports(records[1:])
    for rep, ref in zip(reports, alone):
        assert [f for f in rep.flags if f in ("diverged-runs",
                                              "approximate-cadence")] == [
            "diverged-runs", "approximate-cadence"]
        assert "diverged-runs" not in ref.flags
        assert rep.core == ref.core
        assert rep.n_runs_used == 1
        assert (rep.config["n"], rep.config["b"], rep.config["T"]) == (20, 4, 400)
    assert [rep.config["eta"] for rep in reports] == [0.1] * 4 + [1.71]


class TestTerminalGeneral:
    def setup_method(self):
        self.cfg = TrainConfig(
            spec=QuadraticSpec(curvature=1.0, center=np.zeros(1), scatter=1.0,
                               pop_oracle_size=100),
            n=50, b=5, lr_schedule=((1, 0.1),), steps=10)

    def test_hand_computed_two_group_case(self):
        ens = manual_ensemble(self.cfg, {0: [[-1.0], [1.0]], 1: [[-3.0], [3.0]]})
        report = terminal_bound_general(ens)
        pooled = np.var([-1, 1, -3, 3], ddof=1)
        expected_mean = np.mean([np.log(pooled) - np.log(2.0),
                                 np.log(pooled) - np.log(18.0)])
        assert report.components["mean_term"] == pytest.approx(expected_mean,
                                                               rel=1e-10)
        assert report.core == pytest.approx(
            np.sqrt(expected_mean / (2 * 50)), rel=1e-10)
        assert report.value == report.core  # R defaults to 1

    def test_needs_two_samples_per_group(self):
        ens = manual_ensemble(self.cfg, {0: [[1.0]], 1: [[2.0]]})
        with pytest.raises(ConfigError):
            terminal_bound_general(ens)

    def test_group_short_for_diverged_runs_is_a_numerical_error(self):
        """Two runs per dataset would do; a group left with one sample
        because its other run diverged is not a configuration error."""
        runs = manual_ensemble(self.cfg, {0: [[-1.0]], 1: [[-3.0], [3.0]]})
        runs += (make_record(self.cfg, [1e9], dataset_seed=0,
                             diverged_step=1),)
        with pytest.raises(GradnoiseError) as err:
            terminal_bound_general(runs)
        assert not isinstance(err.value, ConfigError)

    def test_single_dataset_group_is_flagged(self):
        ens = manual_ensemble(self.cfg, {0: [[-1.0], [1.0]]})
        report = terminal_bound_general(ens)
        assert "single-dataset-group" in report.flags

    def test_deterministic_collapse_hits_flooring_cap(self):
        """Identical finals inside each group: the within covariance is zero,
        the bound's value is set by the eigenvalue floor, and the report says
        so instead of producing a quietly meaningless number."""
        ens = manual_ensemble(self.cfg, {0: [[1.0], [1.0]], 1: [[-1.0], [-1.0]]})
        report = terminal_bound_general(ens)
        assert "deterministic-failure" in report.flags
        assert "flooring-cap" in report.flags
        assert "floored-log" in report.flags
        assert report.components["mean_logdet_within"] == pytest.approx(
            np.log(1e-12), rel=1e-6)
        # Raising the floor tenfold shrinks the gap: direct cap evidence.
        assert report.components["core_at_10x_floor"] < report.core

    def test_10x_floor_reuses_the_1x_eigendecompositions(self, monkeypatch):
        ens = manual_ensemble(self.cfg, {0: [[1.0], [1.0]], 1: [[-1.0], [-1.0]]})
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda m: calls.append(m) or eigh(m))
        report = terminal_bound_general(ens)
        assert "core_at_10x_floor" in report.components
        assert len(calls) == 3  # pooled and two within-dataset covariances

    def test_negative_mean_term_gives_zero_core_and_flag(self):
        v = np.sqrt(10.0)
        ens = manual_ensemble(self.cfg, {0: [[-v], [v]], 1: [[-v], [v]]})
        report = terminal_bound_general(ens)
        assert report.core == 0.0
        assert "nonpositive-sum" in report.flags

    def test_undersampled_flag(self):
        cfg2 = TrainConfig(
            spec=QuadraticSpec(curvature=1.0, center=np.zeros(2), scatter=1.0,
                               pop_oracle_size=100),
            n=50, b=5, lr_schedule=((1, 0.1),), steps=10)
        ens = manual_ensemble(cfg2, {0: [[-1.0, 0.1], [1.0, -0.1]],
                                     1: [[-2.0, 0.3], [2.0, -0.3]]})
        report = terminal_bound_general(ens)
        assert "undersampled-covariance" in report.flags  # 2 < 4d = 8

    def test_diverged_runs_are_skipped_and_flagged(self):
        runs = manual_ensemble(
            self.cfg, {0: [[-1.0], [1.0]], 1: [[-3.0], [3.0]]})
        runs += (make_record(self.cfg, [1e9], dataset_seed=0,
                             diverged_step=1),)
        report = terminal_bound_general(runs)
        assert "diverged-runs" in report.flags
        assert report.n_runs_used == 4


class TestTerminalAnisotropic:
    def test_matches_numpy_recomputation_on_real_ensemble(self):
        spec = QuadraticSpec(curvature=np.diag([0.8, 1.2]), center=np.zeros(2),
                             scatter=np.diag([1.0, 0.6]), pop_oracle_size=500)
        cfg = TrainConfig(spec=spec, n=30, b=3, lr_schedule=((1, 1.0),),
                          steps=200, mode="sde", seed=3,
                          tail_checkpoints=10, tail_spacing=3, log_every=200)
        ens = run_ensemble(cfg, 2, 3)
        report = terminal_bound_anisotropic(ens)

        problem = build_problem(spec)
        groups = {}
        for run in ens:
            groups.setdefault(run.dataset.seed, []).append(run.tail_weights)
        groups = {k: np.vstack(v) for k, v in groups.items()}
        all_rows = np.vstack(list(groups.values()))
        grand = all_rows.mean(axis=0)
        pooled = (all_rows - grand).T @ (all_rows - grand) / (len(all_rows) - 1)
        factor = (30 - 3) / (3 * 29)
        terms, cs = [], []
        for ds, rows in groups.items():
            w_star = rows.mean(axis=0)
            dataset = generate_dataset(spec, ds, 30)
            grads = problem.per_example_grads(w_star, dataset.features,
                                              dataset.labels)
            mean = grads.mean(axis=0)
            sigma = grads.T @ grads / 30 - np.outer(mean, mean)
            c = factor * sigma
            cs.append(c)
            terms.append(np.linalg.slogdet(spec.curvature)[1]
                         - np.linalg.slogdet(c)[1]
                         + np.linalg.slogdet(pooled)[1])
        assert np.mean(terms) > 0  # the config was chosen to keep this positive
        assert report.components["mean_term"] == pytest.approx(np.mean(terms),
                                                               rel=1e-9)
        # The continuous-time constant d log(2 / eta) over 2n; the discrete
        # chain's sum_i log(1 - eta lam_i / 2) is reported, not added.
        expected_core = np.sqrt((np.mean(terms) + 2 * np.log(2 / 1.0)) / (2 * 30))
        assert report.core == pytest.approx(expected_core, rel=1e-9)
        assert report.components["discretization_correction"] == pytest.approx(
            np.log(1 - 0.8 / 2) + np.log(1 - 1.2 / 2), rel=1e-12)
        assert report.components["min_stability_gap"] > 0
        # The diagnostic is ||H Lambda - Lambda H||_F with Lambda the general
        # stationary solve of (H, C_T), here read off H's eigenpairs.
        commutators = []
        for c in cs:
            lam = linalg.solve_stationary_covariance(spec.curvature, c, 1.0)
            commutators.append(np.linalg.norm(spec.curvature @ lam
                                              - lam @ spec.curvature))
        assert report.components["commutator_norm_mean"] == pytest.approx(
            np.mean(commutators), rel=1e-9)

    def test_edge_of_stability_raises(self):
        spec = QuadraticSpec(curvature=1.5, center=np.zeros(1), scatter=1.0,
                             pop_oracle_size=100)
        cfg = TrainConfig(spec=spec, n=10, b=2, lr_schedule=((1, 2.0),), steps=5)
        ens = manual_ensemble(cfg, {0: [[0.1], [-0.1]]})
        with pytest.raises(StabilityError):
            terminal_bound_anisotropic(ens)


class TestTerminalIsotropic:
    def setup_method(self):
        self.cfg = TrainConfig(
            spec=QuadraticSpec(curvature=1.0, center=np.zeros(2), scatter=1.0,
                               pop_oracle_size=100),
            n=20, b=1, lr_schedule=((1, 0.1),), steps=10)

    def test_worked_example_inner_two(self):
        # d = 2, b = 1, eta = 0.1, msd = 0.1: inner = 2, core = sqrt((2/n) log 2).
        delta = np.sqrt(0.05)
        ens = manual_ensemble(self.cfg, {0: [[delta, delta], [-delta, -delta]]})
        report = terminal_bound_isotropic(ens)
        assert report.components["mean_sq_distance"] == pytest.approx(0.1)
        assert report.components["inner"] == pytest.approx(2.0, rel=1e-12)
        assert report.core == pytest.approx(np.sqrt((2 / 20) * np.log(2.0)),
                                            rel=1e-12)
        assert report.components["sigma_star_sq"] == pytest.approx(
            0.1 / 2 + 0.1 / 2)

    def test_identical_finals_give_zero(self):
        ens = manual_ensemble(self.cfg, {0: [[0.5, 0.5], [0.5, 0.5]]})
        report = terminal_bound_isotropic(ens)
        assert report.core == 0.0

    def test_init_reference_zero_for_stationary_runs(self):
        ens = manual_ensemble(self.cfg, {0: [[0.3, -0.3], [0.6, 0.4]]},
                              w0="same")
        report = terminal_bound_isotropic(ens, reference="init")
        assert report.core == 0.0
        assert report.components["reference"] == "init"

    def test_reference_validation(self):
        ens = manual_ensemble(self.cfg, {0: [[0.0, 0.0], [1.0, 1.0]]})
        with pytest.raises(ConfigError):
            terminal_bound_isotropic(ens, reference="median")
        with pytest.raises(ConfigError):
            terminal_bound_isotropic(ens, reference=np.zeros(3))

    def test_value_is_core_times_radius(self):
        ens = manual_ensemble(self.cfg, {0: [[1.0, 0.0], [0.0, 1.0]]})
        report = terminal_bound_isotropic(ens, R=1.7)
        assert report.value == report.core * 1.7


class TestGradientAccumulation:
    def make_cfg(self, **kw):
        spec = QuadraticSpec(curvature=1.0, center=np.zeros(1), scatter=1.0,
                             pop_oracle_size=100)
        defaults = dict(spec=spec, n=4, b=1, lr_schedule=((1, 1.0),), steps=1)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_scalar_worked_example(self):
        # sum = (e-1)/4, 4 b T eta / d = 4: inner = e, core = sqrt(1/4) = 0.5.
        cfg = self.make_cfg()
        rec = make_record(cfg, final_w=[0.3],
                          grad_norm_sq=[(np.e - 1) / 4.0, 123.0],
                          trace_c=[0.0, 0.0])
        report = terminal_bound_gradient_accum([rec])
        assert report.components["inner"] == pytest.approx(np.e, rel=1e-12)
        assert report.core == pytest.approx(0.5, rel=1e-12)
        assert report.flags == ()

    def test_quiet_trajectory_gives_zero(self):
        cfg = self.make_cfg(steps=3)
        rec = make_record(cfg, final_w=[0.0])
        report = terminal_bound_gradient_accum([rec])
        assert report.core == 0.0
        assert report.components["inner"] == 1.0

    def test_terminal_entry_is_excluded_from_the_sum(self):
        cfg = self.make_cfg()
        rec = make_record(cfg, final_w=[0.0], grad_norm_sq=[1.0, 999.0],
                          trace_c=[0.0, 999.0])
        report = terminal_bound_gradient_accum([rec])
        assert report.components["accumulated_sum"] == pytest.approx(1.0)

    def test_flags_for_assumption_violations(self):
        cfg = self.make_cfg(steps=4, log_every=2,
                            lr_schedule=((1, 0.5), (3, 1.0)))
        rec = make_record(cfg, final_w=[0.0], w0=[1.0],
                          grad_norm_sq=[1.0, 1.0, 1.0], trace_c=[0.0, 0.0, 0.0])
        report = terminal_bound_gradient_accum([rec])
        assert "nonzero-init" in report.flags
        assert "approximate-cadence" in report.flags
        assert "nonconstant-lr" in report.flags
        assert report.config["eta"] == 1.0  # the conservative max
        # cadence 2 rescales the sum of the two pre-terminal entries.
        assert report.components["accumulated_sum"] == pytest.approx(4.0)

    def test_monotone_in_accumulated_signal(self):
        cfg = self.make_cfg(steps=2)
        quiet = make_record(cfg, final_w=[0.0], grad_norm_sq=[0.5, 0.5, 0.0],
                            trace_c=[0.0, 0.0, 0.0])
        loud = make_record(cfg, final_w=[0.0], grad_norm_sq=[5.0, 5.0, 0.0],
                           trace_c=[0.0, 0.0, 0.0])
        a = terminal_bound_gradient_accum([quiet])
        b = terminal_bound_gradient_accum([loud])
        assert b.core > a.core

    def test_real_run_matches_hand_recomputation(self):
        spec = QuadraticSpec(curvature=np.diag([0.8, 1.2]), center=np.zeros(2),
                             scatter=np.diag([1.0, 0.5]), pop_oracle_size=100)
        cfg = TrainConfig(spec=spec, n=12, b=3, lr_schedule=((1, 0.05),),
                          steps=6, w0=np.zeros(2))
        rec = train_run(cfg)
        report = terminal_bound_gradient_accum([rec])
        s = float(np.sum(rec.grad_norm_sq[:-1] + rec.trace_c[:-1]))
        inner = (4 * 3 * 6 * 0.05 / 2) * s + 1
        assert report.core == pytest.approx(np.sqrt((2 / 12) * np.log(inner)),
                                            rel=1e-12)


class TestTerminalLoo:
    def make_pair(self, full_w, loo_w, seed=0, dataset_seed=0, loo_n=1,
                  eta=0.1, b=1, full_n=2):
        spec = QuadraticSpec(curvature=1.0, center=np.zeros(len(full_w)),
                             scatter=1.0, pop_oracle_size=100)
        full_cfg = TrainConfig(spec=spec, n=full_n, b=b,
                               lr_schedule=((1, eta),), steps=1, seed=seed,
                               dataset_seed=dataset_seed)
        loo_cfg = TrainConfig(spec=spec, n=loo_n, b=b, lr_schedule=((1, eta),),
                              steps=1, seed=seed, dataset_seed=dataset_seed)
        return (make_record(full_cfg, final_w=full_w),
                make_record(loo_cfg, final_w=loo_w))

    def test_scalar_worked_example(self):
        # b = 1, eta = 0.1, ||shift||^2 = 0.01: core = sqrt(0.05).
        pair = self.make_pair([0.1], [0.0])
        report = terminal_bound_loo([pair])
        assert report.core == pytest.approx(np.sqrt(0.05), rel=1e-12)
        assert report.components["mean_sq_shift"] == pytest.approx(0.01)

    def test_two_point_subset_means_example(self):
        """Training examples {0, 2}: the full minimizer is their mean 1, the
        leave-out minimizer is 2, so the shift has norm exactly 1."""
        pair = self.make_pair([1.0], [2.0], eta=0.5)
        report = terminal_bound_loo([pair])
        assert report.components["mean_sq_shift"] == pytest.approx(1.0)
        assert report.core == pytest.approx(np.sqrt(1.0 / (2 * 0.5)), rel=1e-12)

    def test_core_equals_sqrt_of_half_the_gaussian_kl(self):
        """KL between the two SGLD-style terminal Gaussians (shared isotropic
        covariance eta/(2b)) is (b/eta) ||shift||^2, twice the squared core."""
        eta, b = 0.2, 3
        pair = self.make_pair([0.4, -0.1], [0.1, 0.3], eta=eta, b=b, full_n=8,
                              loo_n=7)
        report = terminal_bound_loo([pair])
        cov = SpdMatrix.from_matrix((eta / (2 * b)) * np.eye(2))
        kl = gaussian_kl(GaussianDist(np.array([0.1, 0.3]), cov),
                         GaussianDist(np.array([0.4, -0.1]), cov))
        assert report.core == pytest.approx(np.sqrt(kl / 2.0), rel=1e-10)

    def test_no_shift_means_zero(self):
        pair = self.make_pair([0.7], [0.7])
        assert terminal_bound_loo([pair]).core == 0.0

    def test_same_group_averages_inside_the_root(self):
        p1 = self.make_pair([0.1], [0.0], seed=0)
        p2 = self.make_pair([0.2], [0.0], seed=1)
        report = terminal_bound_loo([p1, p2])
        k = 1 / (2 * 0.1)
        assert report.components["n_groups"] == 1
        assert report.core == pytest.approx(np.sqrt(k * (0.01 + 0.04) / 2),
                                            rel=1e-12)
        assert "lambda_frobenius_distance_mean" in report.components

    def test_distinct_groups_average_outside_the_root(self):
        p1 = self.make_pair([0.1], [0.0], dataset_seed=0)
        p2 = self.make_pair([0.2], [0.0], dataset_seed=1)
        report = terminal_bound_loo([p1, p2])
        k = 1 / (2 * 0.1)
        assert report.components["n_groups"] == 2
        expected = (np.sqrt(k * 0.01) + np.sqrt(k * 0.04)) / 2
        assert report.core == pytest.approx(expected, rel=1e-12)

    def test_pairing_validation(self):
        full, loo = self.make_pair([0.1], [0.0])
        _, loo_other_seed = self.make_pair([0.1], [0.0], seed=5)
        with pytest.raises(ConfigError):
            terminal_bound_loo([(full, loo_other_seed)])
        with pytest.raises(ConfigError):
            terminal_bound_loo([(loo, full)])  # loo trained on more data
        full_b2, _ = self.make_pair([0.1], [0.0], b=2, full_n=4, loo_n=3)
        with pytest.raises(ConfigError):
            terminal_bound_loo([(full_b2, loo)])
        with pytest.raises(ConfigError):
            terminal_bound_loo([])

    @pytest.mark.parametrize("change", [
        {"steps": 10}, {"lr_schedule": ((1, 0.3),)}, {"mode": "sde"},
        {"steps": 10, "lr_schedule": ((1, 0.3),), "mode": "sde"},
    ])
    def test_leave_out_run_must_share_the_run_shape(self, change):
        """A leave-out run trained for another step count, schedule or mode
        than its full run is rejected, not compared."""
        full, loo = self.make_pair([0.1], [0.0])
        loo = dataclasses.replace(
            loo, config=dataclasses.replace(loo.config, **change))
        with pytest.raises(ConfigError, match="unpaired"):
            terminal_bound_loo([(full, loo)])

    def test_value_is_core_times_loss_bound(self):
        pair = self.make_pair([0.1], [0.0])
        report = terminal_bound_loo([pair], M=2.0)
        assert report.value == report.core * 2.0

    @pytest.mark.parametrize("side", [0, 1], ids=["full", "leave-out"])
    def test_pairs_holding_a_diverged_run_are_left_out(self, side):
        clean = self.make_pair([0.1], [0.0], seed=0)
        pair = list(self.make_pair([5.0], [0.0], seed=1))
        pair[side] = dataclasses.replace(pair[side], diverged_step=1)
        report = terminal_bound_loo([clean, tuple(pair)])
        assert report.flags == ("diverged-runs",)
        assert report.n_runs_used == 1
        assert report.core == terminal_bound_loo([clean]).core
        with pytest.raises(GradnoiseError, match="diverged"):
            terminal_bound_loo([tuple(pair)])

    def test_full_runs_must_share_their_config(self):
        """Pairs trained at different learning rates are rejected, not read
        at the first pair's eta."""
        p1 = self.make_pair([0.1], [0.0], eta=0.1)
        p2 = self.make_pair([0.2], [0.0], eta=0.2, seed=1)
        with pytest.raises(ConfigError, match="must share"):
            terminal_bound_loo([p1, p2])


class TestInfluence:
    def two_point_problem(self):
        spec = QuadraticSpec(curvature=1.0, center=np.zeros(1), scatter=1.0,
                             pop_oracle_size=100)
        problem = build_problem(spec)
        data = Dataset(features=np.array([[0.0], [2.0]]),
                       labels=np.zeros(2), seed=0)
        return problem, data

    def test_two_point_case_shows_the_finite_sample_gap(self):
        """Estimate (1/n) H^{-1} grad = 0.5 against the exact shift 1.0; the
        n/(n-1) correction closes the gap exactly on quadratics."""
        problem, data = self.two_point_problem()
        est = influence_estimate(problem, np.array([1.0]), data, index=0)
        assert est[0] == pytest.approx(0.5, abs=1e-10)
        exact_shift = 2.0 - 1.0  # minimizer moves from 1 to 2 when z=0 leaves
        assert est[0] * 2 / (2 - 1) == pytest.approx(exact_shift, abs=1e-9)

    def test_large_sample_anisotropic_case(self):
        rng = np.random.default_rng(9)
        a = np.diag([0.5, 1.0, 2.0])
        spec = QuadraticSpec(curvature=a, center=rng.standard_normal(3),
                             scatter=np.diag([1.0, 0.5, 0.25]),
                             pop_oracle_size=100)
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=5, n=1000)
        w_star = data.features.mean(axis=0)
        idx = 17
        est = influence_estimate(problem, w_star, data, idx, cg_tol=1e-12)
        exact = (w_star - data.features[idx]) / (1000 - 1)
        np.testing.assert_allclose(est * 1000 / 999, exact, atol=1e-6)

    def test_zero_gradient_short_circuits(self):
        spec = QuadraticSpec(curvature=1.0, center=np.zeros(1), scatter=1.0,
                             pop_oracle_size=100)
        problem = build_problem(spec)
        data = Dataset(features=np.array([[-1.0], [0.0], [1.0]]),
                       labels=np.zeros(3), seed=0)
        est = influence_estimate(problem, np.zeros(1), data, index=1)
        assert np.all(est == 0.0)

    def test_warns_away_from_minimum(self):
        problem, data = self.two_point_problem()
        with pytest.warns(UserWarning, match="minimum"):
            influence_estimate(problem, np.array([5.0]), data, index=0)

    def test_damping_shifts_the_solve(self):
        problem, data = self.two_point_problem()
        est = influence_estimate(problem, np.array([1.0]), data, index=0,
                                 damping=1.0)
        # (H + I)^{-1} grad / n = (1/2) * 1 / 2 = 0.25.
        assert est[0] == pytest.approx(0.25, abs=1e-10)

    def test_index_validation(self):
        problem, data = self.two_point_problem()
        with pytest.raises(ConfigError):
            influence_estimate(problem, np.array([1.0]), data, index=2)


class TestFimTakeuchi:
    def quad_ensemble(self, curvature, scatter, d, finals, n=100):
        spec = QuadraticSpec(curvature=curvature, center=np.zeros(d),
                             scatter=scatter, pop_oracle_size=20_000)
        cfg = TrainConfig(spec=spec, n=n, b=10, lr_schedule=((1, 0.1),),
                          steps=10)
        return manual_ensemble(cfg, finals)

    def test_identity_case_trace_is_dimension(self):
        """A = I and unit scatter put the Fisher at the Hessian, so the trace
        of H^{-1} F sits at d (up to oracle sampling error)."""
        ens = self.quad_ensemble(1.0, 1.0, 3,
                                 {0: [np.zeros(3), np.zeros(3)]})
        report = fim_takeuchi_bound(ens)
        assert report.components["mean_trace"] == pytest.approx(3.0, rel=0.05)
        assert report.core == pytest.approx(np.sqrt(3.0) / (2 * 100), rel=0.05)

    def test_matches_numpy_oracle_exactly(self):
        rng = np.random.default_rng(11)
        a = random_spd(rng, 3, min_eig=0.4)
        ens = self.quad_ensemble(a, np.diag([1.0, 0.7, 0.4]), 3,
                                 {0: [rng.standard_normal(3)] * 2,
                                  1: [rng.standard_normal(3)] * 2})
        report = fim_takeuchi_bound(ens)
        cfg = ens[0].config
        problem = build_problem(cfg.spec)
        oracle = population_oracle_sample(cfg.spec, cfg.oracle_seed)
        traces = []
        for ds in dict.fromkeys(r.dataset.seed for r in ens):
            runs = [r for r in ens if r.dataset.seed == ds]
            w_star = np.mean([r.final_w for r in runs], axis=0)
            h = cfg.spec.curvature  # the quadratic's Hessian, A
            og = problem.per_example_grads(w_star, oracle.features,
                                           oracle.labels)
            f = og.T @ og / len(oracle)
            traces.append(np.trace(np.linalg.solve(h, f)))
        assert report.components["mean_trace"] == pytest.approx(
            np.mean(traces), rel=1e-9)
        expected_core = np.mean(np.sqrt(traces)) / (2 * cfg.n)
        assert report.core == pytest.approx(expected_core, rel=1e-9)

    def test_zero_signal_data(self):
        ens = self.quad_ensemble(1.0, np.zeros((2, 2)), 2,
                                 {0: [np.zeros(2), np.zeros(2)]})
        report = fim_takeuchi_bound(ens)
        assert report.core == 0.0

    def test_value_is_core_times_loss_bound(self):
        ens = self.quad_ensemble(1.0, 1.0, 2, {0: [np.zeros(2), np.zeros(2)]})
        report = fim_takeuchi_bound(ens, M=5.0)
        assert report.value == report.core * 5.0


def _floored_bound_runs():
    """Bound name -> zero-argument evaluation on an input that floors.

    With d = 5 and n = 4 every mini-batch GNC and leave-one-out covariance is
    rank-deficient. The terminal ensemble is logistic with d = 3, n = 2 and
    two samples per group, so H, C_T and each within-group covariance floor,
    and the oracle Fisher has mass along the floored Hessian directions.
    Each call builds its SpdMatrix objects afresh, under whatever floors
    ``linalg`` holds at that moment.
    """
    spec = QuadraticSpec(curvature=np.diag([0.5, 0.8, 1.0, 1.3, 1.6]),
                         center=np.zeros(5), scatter=np.eye(5),
                         pop_oracle_size=100)
    records = [train_run(quad_config(spec=spec, n=4, b=1, steps=3, seed=s,
                                     dataset_seed=s)) for s in (0, 1)]
    cfg = TrainConfig(
        spec=LogisticSpec(dim=3, mean0=-0.5 * np.ones(3), mean1=0.5 * np.ones(3),
                          pop_oracle_size=200),
        n=2, b=1, lr_schedule=((1, 0.1),), steps=10)
    ens = manual_ensemble(cfg, {0: [[0.3, 0.5, 0.1], [-0.2, -0.4, 0.6]],
                                1: [[1.1, -0.6, 0.2], [0.4, 0.9, -0.3]]})
    return {
        "traj-isotropic": lambda: traj_bound_isotropic(
            tape_from_records(records)),
        "traj-anisotropic": lambda: traj_bound_anisotropic(
            tape_from_records(records, population=True)),
        "traj-data-dependent": lambda: traj_bound_data_dependent(
            tape_from_records(records, leave_one_out=True)),
        "terminal-general": lambda: terminal_bound_general(ens),
        "terminal-anisotropic": lambda: terminal_bound_anisotropic(ens),
        "fim-takeuchi": lambda: fim_takeuchi_bound(ens),
    }


@pytest.mark.parametrize("name", list(_floored_bound_runs()))
def test_floored_report_carries_the_core_at_10x_floor(monkeypatch, name):
    """Every floor-aware bound flags ``floored-log`` exactly when it attaches
    ``core_at_10x_floor``, and that component is the bound's core with both
    default floors raised tenfold."""
    run = _floored_bound_runs()[name]
    report = run()
    assert "floored-log" in report.flags
    assert ("floored-log" in report.flags) == (
        "core_at_10x_floor" in report.components)
    monkeypatch.setattr(linalg, "DEFAULT_EPS_REL",
                        FLOOR_SENSITIVITY_SCALE * linalg.DEFAULT_EPS_REL)
    monkeypatch.setattr(linalg, "DEFAULT_FLOOR_ABS",
                        FLOOR_SENSITIVITY_SCALE * linalg.DEFAULT_FLOOR_ABS)
    assert report.components["core_at_10x_floor"] == pytest.approx(
        run().core, rel=1e-9)


class TestReportSerialization:
    def test_json_roundtrip(self):
        import json

        tape = make_tape([[make_step([1.0], [[1.0]])]], n=10)
        report = traj_bound_isotropic(tape, R=2.0)
        payload = report_to_json_dict(report)
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["name"] == "trajectory-isotropic"
        assert back["value"] == pytest.approx(report.value)
        assert back["per_step_terms"] == pytest.approx([np.log(2.0)])
        assert isinstance(back["flags"], list)

    def test_report_dataclass_shape(self):
        tape = make_tape([[make_step([1.0], [[1.0]])]], n=10)
        report = traj_bound_langevin(tape)
        assert isinstance(report, BoundReport)
        assert report.config["n"] == 10
        assert report.config["b"] == 1
