"""Acceptance suite: thirteen end-to-end checks with frozen tolerances.

Each test wraps its assertions in the ``criterion`` context manager, which
prints one pass/fail line immediately and registers it for the terminal
summary hook, so a plain ``pytest -v`` run ends with a per-criterion verdict
list. Budgeted criteria also fail if they run long.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.stats import multivariate_normal, spearmanr

from _acceptance_report import criterion
from fd_utils import check_hvp, check_mean_grad, check_per_example_grads
from gradnoise.bounds import (
    influence_estimate,
    tape_from_records,
    terminal_bound_anisotropic,
    terminal_bound_general,
    terminal_bound_isotropic,
    traj_bound_anisotropic,
    traj_bound_isotropic,
)
from gradnoise.dynamics import TrainConfig, run_ensemble, train_run
from gradnoise.gradstats import (
    empirical_gnc,
    minibatch_factor,
    minibatch_gnc,
)
from gradnoise.harness import (
    cmd_compare,
    estimate_generalization_error,
    load_experiment_config,
)
from gradnoise.linalg import (
    SpdMatrix,
    solve_stationary_covariance,
    stationary_residual,
)
from gradnoise.problems import (
    Dataset,
    LogisticSpec,
    MlpSpec,
    QuadraticSpec,
    build_problem,
    generate_dataset,
)
from oracles import (
    GaussianDist,
    anisotropic_prior_objective,
    gaussian_kl,
    identity_form_terms,
    isotropic_step_kl,
    isotropic_terminal_kl,
    loo_quantities,
)
from test_bounds import make_record, make_step, make_tape


def random_spd(rng, d, scale=1.0, min_eig=0.05):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (q * (min_eig + scale * rng.random(d))) @ q.T


def test_criterion_01_exhaustive_batch_covariance():
    with criterion(1, "mini-batch GNC equals exhaustive enumeration", 1.0):
        rng = np.random.default_rng(10)
        spec = QuadraticSpec(curvature=random_spd(rng, 3, min_eig=0.3),
                             center=np.zeros(3),
                             scatter=random_spd(rng, 3, min_eig=0.3),
                             pop_oracle_size=100)
        n = 8
        dataset = generate_dataset(spec, 0, n)
        problem = build_problem(spec)
        w = rng.standard_normal(3)
        grads = problem.per_example_grads(w, dataset.features, dataset.labels)
        full = grads.mean(axis=0)
        sigma = empirical_gnc(problem, w, dataset)
        for b in (1, 2, 4):
            means = np.array([grads[list(batch)].mean(axis=0)
                              for batch in itertools.combinations(range(n), b)])
            centered = means - full
            enumerated = centered.T @ centered / len(means)
            np.testing.assert_allclose(enumerated, minibatch_gnc(sigma, n, b),
                                       atol=1e-12)


def test_criterion_02_leave_one_out_identities():
    with criterion(2, "leave-one-out noise identities under full enumeration",
                   1.0):
        rng = np.random.default_rng(20)
        b = 2
        for n in (4, 6, 8):
            spec = QuadraticSpec(curvature=random_spd(rng, 2, min_eig=0.3),
                                 center=np.zeros(2),
                                 scatter=random_spd(rng, 2, min_eig=0.3),
                                 pop_oracle_size=100)
            dataset = generate_dataset(spec, n, n)
            problem = build_problem(spec)
            w = rng.standard_normal(2)
            sigma = empirical_gnc(problem, w, dataset)
            c = sigma / b
            xi_outer, loo_gncs = [], []
            for drop in range(n):
                subset = [i for i in range(n) if i != drop]
                lq = loo_quantities(problem, w, dataset, subset, b)
                xi_outer.append(np.outer(lq.xi, lq.xi))
                loo_gncs.append(lq.loo_gnc)
            np.testing.assert_allclose(
                np.mean(xi_outer, axis=0), (b / (n - 1) ** 2) * c, atol=1e-10)
            np.testing.assert_allclose(
                np.mean(loo_gncs, axis=0),
                (n * (n - 2) / (n - 1) ** 2) * c, atol=1e-10)


def test_criterion_03_gaussian_kl_against_monte_carlo():
    with criterion(3, "closed-form Gaussian KL matches Monte-Carlo", 30.0):
        rng = np.random.default_rng(30)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            mean_p = 0.5 * rng.standard_normal(d)
            mean_q = 0.5 * rng.standard_normal(d)
            cov_p = random_spd(rng, d, scale=0.8, min_eig=0.4)
            cov_q = random_spd(rng, d, scale=0.8, min_eig=0.4)
            analytic = gaussian_kl(
                GaussianDist(mean_p, SpdMatrix.from_matrix(cov_p)),
                GaussianDist(mean_q, SpdMatrix.from_matrix(cov_q)))
            draws = rng.multivariate_normal(mean_p, cov_p, size=1_000_000)
            mc = float(np.mean(
                multivariate_normal(mean_p, cov_p).logpdf(draws)
                - multivariate_normal(mean_q, cov_q).logpdf(draws)))
            assert abs(analytic - mc) <= 1e-2


def test_criterion_04_stationary_covariance_long_run():
    with criterion(4, "stationary solve matches a long SDE tail", 120.0):
        rng = np.random.default_rng(0)
        d = 5
        a = random_spd(rng, d, scale=1.5, min_eig=0.5)
        s_z = random_spd(rng, d, scale=1.0, min_eig=0.3)
        spec = QuadraticSpec(curvature=a, center=np.zeros(d), scatter=s_z,
                             pop_oracle_size=100)
        n, b, eta = 40, 4, 0.05
        dataset = generate_dataset(spec, 0, n)
        problem = build_problem(spec)
        w_ref = dataset.features.mean(axis=0)
        grads = problem.per_example_grads(w_ref, dataset.features,
                                          dataset.labels)
        gm = grads.mean(axis=0)
        sigma = grads.T @ grads / n - np.outer(gm, gm)
        c = minibatch_factor(n, b) * (sigma + sigma.T) / 2
        assert np.linalg.norm(a @ c - c @ a) > 0.05  # genuinely non-commuting

        lam = solve_stationary_covariance(a, c, eta, mode="general")
        assert stationary_residual(lam, a, c, eta) <= 1e-9

        small = solve_stationary_covariance(a, c, eta, mode="small-lr", b=b)
        assert np.array_equal(small, (eta / (2 * b)) * np.eye(d))

        # The quadratic GNC is state-independent, so the run builds its
        # noise factor once, at w_ref, which keeps it fast.
        cfg = TrainConfig(spec=spec, n=n, b=b, lr_schedule=((1, eta),),
                          steps=1_000_000, mode="sde", seed=0, dataset_seed=0,
                          log_every=1_000_000, tail_checkpoints=2000,
                          tail_spacing=25, w0=w_ref)
        record = train_run(cfg)
        assert not record.diverged
        empirical = np.cov(record.tail_weights.T, ddof=1)
        rel = np.linalg.norm(empirical - lam) / np.linalg.norm(lam)
        assert rel <= 0.10


def test_criterion_05_sgd_sde_terminal_agreement():
    with criterion(5, "SGD and its SDE agree on terminal accuracy", 120.0):
        raw = {
            "problem": {"family": "logistic", "dim": 20, "separation": 2.0,
                        "pop_oracle_size": 10000},
            "train": {"n": 2000, "b": 20, "lr": 0.2, "steps": 5000,
                      "log_every": 5000},
            "compare_seeds": 10,
        }
        summary = cmd_compare(load_experiment_config(raw))
        assert summary["n_seeds"] == 10
        assert summary["diverged_runs"] == 0
        assert summary["accuracy_abs_diff"] <= 0.01


def test_criterion_06_anisotropic_never_looser_than_isotropic():
    with criterion(6, "anisotropic running core <= isotropic running core"):
        spec = QuadraticSpec(
            curvature=np.diag([0.5, 0.8, 1.1]), center=np.zeros(3),
            scatter=np.array([[1.0, 0.4, 0.1],
                              [0.4, 0.8, 0.2],
                              [0.1, 0.2, 0.6]]),
            pop_oracle_size=20_000)
        cfg = TrainConfig(spec=spec, n=20, b=2, lr_schedule=((1, 0.2),),
                          steps=30, record_weights=True, dataset_seed=0)
        records = [train_run(dataclasses.replace(cfg, seed=s))
                   for s in (0, 1)]
        tape = tape_from_records(records, population=True)
        iso = traj_bound_isotropic(tape, "population-gradient")
        aniso = traj_bound_anisotropic(tape, "population-gradient")
        # The isotropic terms had b C_t equalled the population GNC.
        identity_terms = identity_form_terms(tape, iso.extra_series["h2"])
        assert np.all(aniso.per_step_terms <= identity_terms + 1e-12)

        def running_cores(terms):
            sums = np.cumsum(terms) * tape.config.log_every / tape.config.n
            return np.sqrt(np.maximum(sums, 0.0))

        for terms in (identity_terms, iso.per_step_terms):
            assert np.all(running_cores(aniso.per_step_terms)
                          <= running_cores(terms) + 1e-12)


def test_criterion_07_closed_form_prior_scales_beat_grids():
    """The closed forms are grid-optimal, and the isotropic and anisotropic
    trajectory bounds and the isotropic terminal bound evaluate them at
    their minimizers: half a per-step term, and n core^2 / 2, equal the
    closed-form KL there."""
    with criterion(7, "closed-form prior scales are grid-optimal"):
        rng = np.random.default_rng(70)
        grid = np.geomspace(1e-4, 1e4, 1000)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            h1 = float(rng.uniform(0.05, 20.0))
            h2 = float(rng.uniform(-10.0, 10.0))
            star = isotropic_step_kl(h1 / d, h1, h2, d)
            best = min(isotropic_step_kl(s, h1, h2, d) for s in grid)
            assert best - star >= -1e-9
            # A zero gradient makes h1 = tr C, and C = exp(h2/d) I has
            # log det h2.
            step = make_step(np.zeros(d), np.exp(h2 / d) * np.eye(d),
                             trace_c=h1)
            kl = traj_bound_isotropic(make_tape([[step]])).per_step_terms[0] / 2
            assert kl == pytest.approx(star, rel=1e-12)
            assert best - kl >= -1e-9
        # The mean term's gradients come from their own stream, so the
        # matrices (and every later draw of ``rng``) are those the
        # objective without it was checked on.
        grads = np.random.default_rng(71)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            raw_pop = random_spd(rng, d, min_eig=0.2)
            raw_c = random_spd(rng, d, min_eig=0.2)
            pop, gnc = SpdMatrix.from_matrix(raw_pop), SpdMatrix.from_matrix(raw_c)
            c_star = pop.inv_trace_product(gnc.matrix) / d
            star = anisotropic_prior_objective(c_star, pop, gnc)
            best = min(anisotropic_prior_objective(c, pop, gnc) for c in grid)
            assert best - star >= -1e-9
            # With the mean term, as traj-anisotropic evaluates it: the
            # library's term is the objective (twice the KL) at its
            # minimizer c~* = mean q / d.
            grad, ref = grads.standard_normal((2, d))
            mean_term = float((grad - ref) @ np.linalg.solve(raw_pop, grad - ref))
            c_star = (pop.inv_trace_product(raw_c) + mean_term) / d
            star = anisotropic_prior_objective(c_star, pop, gnc, mean_term)
            best = min(anisotropic_prior_objective(c, pop, gnc, mean_term)
                       for c in grid)
            assert best - star >= -1e-9
            step = make_step(grad, raw_c, pop_grad=ref, raw_pop=raw_pop)
            kl = traj_bound_anisotropic(make_tape([[step]]),
                                        "population-gradient").per_step_terms[0] / 2
            assert kl == pytest.approx(star / 2, rel=1e-12, abs=1e-12)
            assert best / 2 - kl >= -1e-9
        for _ in range(100):
            d = int(rng.integers(1, 9))
            msd = float(rng.uniform(0.0, 5.0))
            eta = float(rng.uniform(0.01, 1.0))
            b = int(rng.integers(1, 33))
            star = isotropic_terminal_kl(msd / d + eta / (2 * b), msd, d, eta, b)
            best = min(isotropic_terminal_kl(s, msd, d, eta, b) for s in grid)
            assert best - star >= -1e-9
            # One run that moved sqrt(msd) from its initialization.
            config = TrainConfig(
                spec=QuadraticSpec(curvature=1.0, center=np.zeros(d),
                                   scatter=1.0, pop_oracle_size=10),
                n=64, b=b, lr_schedule=((1, eta),), steps=1)
            final_w = np.zeros(d)
            final_w[0] = np.sqrt(msd)
            core = terminal_bound_isotropic((make_record(config, final_w),),
                                            reference="init").core
            kl = config.n * core**2 / 2
            assert kl == pytest.approx(star, rel=1e-12)
            assert best - kl >= -1e-9


def test_criterion_08_terminal_bounds_track_the_analytic_anchor():
    with criterion(8, "terminal bounds agree and track the analytic value",
                   300.0):
        a = np.array([0.02, 0.025, 0.03])
        s = np.array([1.0, 0.8, 1.2])
        n, b, eta = 50, 1, 2.0
        spec = QuadraticSpec(curvature=np.diag(a), center=np.zeros(3),
                             scatter=np.diag(s), pop_oracle_size=4000)
        h = np.diag(a)
        c = minibatch_factor(n, b) * np.diag(a * s * a)
        lam_s = solve_stationary_covariance(h, c, eta, mode="general")
        lam_mu = np.diag(s / n) + lam_s
        analytic_general = np.sqrt(
            (np.linalg.slogdet(lam_mu)[1] - np.linalg.slogdet(lam_s)[1])
            / (2 * n))
        analytic_aniso = np.sqrt(
            (np.linalg.slogdet(h)[1] - np.linalg.slogdet(c)[1]
             + np.linalg.slogdet(lam_mu)[1]) / (n * eta))
        # Frozen values for the anchor itself, so a formula regression in
        # either solver or bound shows up as its own failure.
        assert analytic_general == pytest.approx(0.13261, abs=5e-5)
        assert analytic_aniso == pytest.approx(0.13544, abs=5e-5)

        cfg = TrainConfig(spec=spec, n=n, b=b, lr_schedule=((1, eta),),
                          steps=600, mode="sde", seed=4, burn_in=300,
                          tail_checkpoints=40, tail_spacing=3)
        ensemble = run_ensemble(cfg, 16, 16)
        measured_general = terminal_bound_general(ensemble).core
        measured_aniso = terminal_bound_anisotropic(ensemble).core
        assert abs(measured_general - analytic_general) / analytic_general <= 0.15
        assert abs(measured_aniso - analytic_aniso) / analytic_aniso <= 0.15
        assert abs(measured_general - measured_aniso) / measured_general <= 0.15


def test_criterion_09_sweep_trend_matches_generalization():
    with criterion(9, "bound and generalization error fall together with n",
                   600.0):
        ns = (100, 300, 1000, 3000)
        d = 10
        half = 0.5 * 2.0 / np.sqrt(d)
        spec = LogisticSpec(dim=d, mean0=-np.full(d, half),
                            mean1=np.full(d, half), cov=0.3,
                            pop_oracle_size=10000)
        gens, aniso_cores, iso_cores = [], [], []
        for n in ns:
            cfg = TrainConfig(spec=spec, n=n, b=10, lr_schedule=((1, 4.0),),
                              steps=1500, mode="sgd", seed=0, log_every=1500,
                              tail_checkpoints=20, tail_spacing=10)
            ensemble = run_ensemble(cfg, 10, 1)
            gens.append(estimate_generalization_error(ensemble))
            aniso_cores.append(terminal_bound_anisotropic(ensemble).core)
            iso_cores.append(terminal_bound_isotropic(ensemble).core)
        assert spearmanr(ns, gens).statistic == -1.0
        assert all(core > 0 for core in aniso_cores)
        assert spearmanr(ns, aniso_cores).statistic == -1.0
        # The distance-based isotropic core is allowed to move the other way;
        # surface the contrast without constraining its sign.
        rho_iso = spearmanr(ns, iso_cores).statistic
        print(f"isotropic terminal core trend over n: rho={rho_iso:+.2f} "
              f"cores={np.round(iso_cores, 4)}")


def test_criterion_10_finite_difference_suites():
    with criterion(10, "finite-difference checks for all problem families",
                   30.0):
        rng = np.random.default_rng(100)
        specs = (
            QuadraticSpec(curvature=random_spd(rng, 3, min_eig=0.3),
                          center=rng.standard_normal(3),
                          scatter=random_spd(rng, 3, min_eig=0.3),
                          pop_oracle_size=100),
            LogisticSpec(dim=6, mean0=-np.full(6, 0.4), mean1=np.full(6, 0.4),
                         cov=1.0, l2=0.01, pop_oracle_size=100),
            MlpSpec(in_dim=4, hidden=5, classes=3, pop_oracle_size=100),
        )
        for spec in specs:
            problem = build_problem(spec)
            dataset = generate_dataset(spec, 3, 12)
            for trial in range(2):
                w = 0.5 * rng.standard_normal(problem.dim)
                check_mean_grad(problem, w, dataset.features, dataset.labels)
                check_per_example_grads(problem, w, dataset.features,
                                        dataset.labels)
                check_hvp(problem, w, dataset.features, dataset.labels)


def test_criterion_11_deterministic_limit_is_flagged():
    with criterion(11, "zero-noise ensemble hits the flooring cap"):
        spec = QuadraticSpec(curvature=np.diag([1.0, 0.7, 1.3]),
                             center=np.zeros(3),
                             scatter=np.diag([1.0, 0.8, 0.6]),
                             pop_oracle_size=200)
        cfg = TrainConfig(spec=spec, n=20, b=20, lr_schedule=((1, 0.5),),
                          steps=400, mode="sgd", log_every=400)
        ensemble = run_ensemble(cfg, 2, 2)
        report = terminal_bound_general(ensemble)
        assert "deterministic-failure" in report.flags
        assert "flooring-cap" in report.flags
        assert report.components["mean_logdet_within"] == pytest.approx(
            3 * np.log(1e-12), rel=1e-6)


def test_criterion_12_influence_small_vs_large_n():
    with criterion(12, "influence estimate: exact small-n gap, tight large-n"):
        spec = QuadraticSpec(curvature=1.0, center=np.zeros(1), scatter=1.0,
                             pop_oracle_size=100)
        problem = build_problem(spec)
        data = Dataset(features=np.array([[0.0], [2.0]]), labels=np.zeros(2),
                       seed=0)
        est = influence_estimate(problem, np.array([1.0]), data, index=0)
        assert est[0] == pytest.approx(0.5, abs=1e-12)
        assert est[0] * 2 / (2 - 1) == pytest.approx(1.0, abs=1e-10)

        rng = np.random.default_rng(12)
        spec_big = QuadraticSpec(curvature=np.diag([0.5, 1.0, 2.0]),
                                 center=rng.standard_normal(3),
                                 scatter=np.diag([1.0, 0.5, 0.25]),
                                 pop_oracle_size=100)
        problem_big = build_problem(spec_big)
        n = 1000
        data_big = generate_dataset(spec_big, seed=5, n=n)
        w_star = data_big.features.mean(axis=0)
        idx = 17
        est_big = influence_estimate(problem_big, w_star, data_big, idx,
                                     cg_tol=1e-12)
        keep = [i for i in range(n) if i != idx]
        true_shift = data_big.features[keep].mean(axis=0) - w_star
        np.testing.assert_allclose(est_big * n / (n - 1), true_shift,
                                   atol=1e-6)


# Criterion 8's quadratic at eta in {0.5, 1} and b in {1, 5}: the analytic
# (general, anisotropic) cores, frozen as criterion 8 freezes its own.
ANISOTROPIC_STEP_SIZE_ANCHORS = {
    (0.5, 1): (0.20808, 0.20853),
    (0.5, 5): (0.29603, 0.29635),
    (1.0, 1): (0.16966, 0.17077),
    (1.0, 5): (0.26127, 0.26200),
}


def test_criterion_13_anisotropic_bound_holds_away_from_eta_2():
    with criterion(13, "terminal bounds agree at step sizes other than 2",
                   120.0):
        a = np.array([0.02, 0.025, 0.03])
        s = np.array([1.0, 0.8, 1.2])
        n, d = 50, 3
        spec = QuadraticSpec(curvature=np.diag(a), center=np.zeros(3),
                             scatter=np.diag(s), pop_oracle_size=4000)
        h = np.diag(a)
        for (eta, b), (frozen_general, frozen_aniso) in (
                ANISOTROPIC_STEP_SIZE_ANCHORS.items()):
            c = minibatch_factor(n, b) * np.diag(a * s * a)
            lam_s = solve_stationary_covariance(h, c, eta, mode="general")
            lam_mu = np.diag(s / n) + lam_s
            analytic_general = np.sqrt(
                (np.linalg.slogdet(lam_mu)[1] - np.linalg.slogdet(lam_s)[1])
                / (2 * n))
            analytic_aniso = np.sqrt(
                (np.linalg.slogdet(h)[1] - np.linalg.slogdet(c)[1]
                 + np.linalg.slogdet(lam_mu)[1] + d * np.log(2 / eta))
                / (2 * n))
            assert analytic_general == pytest.approx(frozen_general, abs=5e-5)
            assert analytic_aniso == pytest.approx(frozen_aniso, abs=5e-5)

            # Criterion 8's run, its steps, burn-in and tail spacing
            # stretched by 2 / eta so that the tail spans as many
            # relaxation times.
            stretch = round(2 / eta)
            cfg = TrainConfig(spec=spec, n=n, b=b, lr_schedule=((1, eta),),
                              steps=600 * stretch, mode="sde", seed=4,
                              burn_in=300 * stretch, tail_checkpoints=40,
                              tail_spacing=3 * stretch)
            ensemble = run_ensemble(cfg, 16, 16)
            measured_general = terminal_bound_general(ensemble).core
            measured_aniso = terminal_bound_anisotropic(ensemble).core
            assert (abs(measured_general - measured_aniso) / measured_general
                    <= 0.15), (eta, b, measured_general, measured_aniso)
            assert (abs(measured_aniso - analytic_aniso) / analytic_aniso
                    <= 0.15), (eta, b, measured_aniso, analytic_aniso)
