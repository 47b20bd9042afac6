"""Training-loop tests: determinism, mode couplings, divergence, ensembles."""

from dataclasses import replace

import numpy as np
import pytest

from gradnoise import dynamics
from gradnoise.bounds import terminal_bound_general
from gradnoise.dynamics import (
    TrainConfig,
    gld_step,
    loo_train,
    run_ensemble,
    sde_step,
    sgd_step,
    train_run,
)
from gradnoise.errors import ConfigError
from gradnoise.gradstats import empirical_gnc, minibatch_gnc
from gradnoise.linalg import solve_stationary_covariance
from gradnoise.problems import (
    QuadraticSpec,
    build_problem,
    generate_dataset,
    population_oracle_sample,
)


def quad_spec(d=2, a=None, scatter=None, center=None):
    return QuadraticSpec(
        curvature=1.0 if a is None else a,
        center=np.zeros(d) if center is None else center,
        scatter=1.0 if scatter is None else scatter,
        pop_oracle_size=200,
    )


def base_config(**overrides):
    defaults = dict(spec=quad_spec(), n=12, b=3, lr_schedule=((1, 0.1),),
                    steps=40, seed=5)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestConfig:
    def test_schedule_lookup_is_piecewise_constant(self):
        cfg = base_config(lr_schedule=((1, 0.1), (100, 0.01)), steps=200)
        assert cfg.lr_at(1) == 0.1
        assert cfg.lr_at(99) == 0.1
        assert cfg.lr_at(100) == 0.01
        assert cfg.lr_at(200) == 0.01

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            base_config(lr_schedule=((2, 0.1),))  # step 1 uncovered
        with pytest.raises(ConfigError):
            base_config(lr_schedule=((1, 0.1), (5, -0.1)))
        with pytest.raises(ConfigError):
            base_config(lr_schedule=((10, 0.1), (1, 0.2)))
        with pytest.raises(ConfigError):
            base_config(lr_schedule=())

    def test_mode_and_size_validation(self):
        with pytest.raises(ConfigError):
            base_config(mode="adam")
        with pytest.raises(ConfigError):
            base_config(b=13)
        with pytest.raises(ConfigError):
            base_config(steps=0)
        with pytest.raises(ConfigError):
            base_config(burn_in=40)

    def test_tail_span_must_fit(self):
        with pytest.raises(ConfigError):
            base_config(tail_checkpoints=41, tail_spacing=1)
        base_config(tail_checkpoints=5, tail_spacing=8)  # span 32 < 40 steps
        # The first tail step, 40 - 32 = 8, must come after burn_in.
        base_config(tail_checkpoints=5, tail_spacing=8, burn_in=7)
        with pytest.raises(ConfigError, match="burn_in"):
            base_config(tail_checkpoints=5, tail_spacing=8, burn_in=8)
        base_config(burn_in=39)  # no tail checkpoints: nothing to order

    def test_dataset_seed_defaults_to_seed(self):
        assert base_config(seed=9).effective_dataset_seed == 9
        assert base_config(seed=9, dataset_seed=2).effective_dataset_seed == 2


class TestStepFunctions:
    def setup_method(self):
        self.spec = quad_spec(d=2, scatter=np.diag([1.0, 0.5]))
        self.problem = build_problem(self.spec)
        self.dataset = generate_dataset(self.spec, seed=3, n=20)
        self.w = np.array([0.8, -0.6])

    def test_sgd_step_zero_lr_is_identity(self):
        out = sgd_step(self.problem, self.w, self.dataset, [0, 1, 2], eta=0.0)
        np.testing.assert_array_equal(out, self.w)

    def test_sgd_step_full_batch_is_gradient_descent(self):
        eta = 0.1
        out = sgd_step(self.problem, self.w, self.dataset, range(20), eta)
        grad = self.problem.mean_grad(self.w, self.dataset.features,
                                      self.dataset.labels)
        np.testing.assert_allclose(out, self.w - eta * grad, rtol=1e-14)

    def test_sde_step_without_noise_root_is_gradient_descent(self):
        """``noise_sqrt=None`` means no noise term: the step is w - eta G
        bit-for-bit and draws nothing from the rng. The diffusion is covered
        by the supplied-transform test below."""
        eta = 0.1
        rng = np.random.default_rng(17)
        state = rng.bit_generator.state
        out = sde_step(self.problem, self.w, self.dataset, eta, rng)
        grad = self.problem.mean_grad(self.w, self.dataset.features,
                                      self.dataset.labels)
        assert np.array_equal(out, self.w - eta * grad)
        assert rng.bit_generator.state == state

    def test_sde_step_with_supplied_transform_moments(self):
        eta, b, draws = 0.1, 4, 60_000
        sigma = empirical_gnc(self.problem, self.w, self.dataset)
        c = minibatch_gnc(sigma, len(self.dataset), b)
        from gradnoise.linalg import SpdMatrix, spd_sqrt

        root = spd_sqrt(SpdMatrix.from_matrix(c))
        rng = np.random.default_rng(19)
        samples = np.array([
            sde_step(self.problem, self.w, self.dataset, eta, rng, noise_sqrt=root)
            for _ in range(draws)
        ])
        grad = self.problem.mean_grad(self.w, self.dataset.features,
                                      self.dataset.labels)
        mean_se = eta * np.sqrt(np.diag(c).max() / draws)
        np.testing.assert_allclose(samples.mean(axis=0), self.w - eta * grad,
                                   atol=4 * mean_se)
        emp_cov = np.cov(samples.T)
        np.testing.assert_allclose(emp_cov, eta * eta * c,
                                   atol=5 * eta * eta * np.diag(c).max()
                                   / np.sqrt(draws / 2.0))

    def test_gld_step_moments(self):
        eta, draws = 0.2, 50_000
        rng = np.random.default_rng(23)
        samples = np.array([
            gld_step(self.problem, self.w, self.dataset, eta, rng)
            for _ in range(draws)
        ])
        grad = self.problem.mean_grad(self.w, self.dataset.features,
                                      self.dataset.labels)
        np.testing.assert_allclose(samples.mean(axis=0), self.w - eta * grad,
                                   atol=4 * eta / np.sqrt(draws))
        np.testing.assert_allclose(np.cov(samples.T), eta * eta * np.eye(2),
                                   atol=6 * eta * eta / np.sqrt(draws / 2.0))


class TestTrainRun:
    def test_bitwise_deterministic(self):
        cfg = base_config(mode="sde", steps=60)
        a = train_run(cfg)
        b = train_run(cfg)
        assert np.array_equal(a.final_w, b.final_w)
        assert np.array_equal(a.train_loss, b.train_loss)

    def test_full_batch_sde_collapses_to_gd(self):
        """At b = n the minibatch covariance is exactly zero, the noise draw is
        skipped, and SGD, SDE, and GD coincide bit for bit; GLD keeps its
        identity-covariance noise and must differ."""
        kw = dict(n=10, b=10, steps=25, seed=2)
        sgd = train_run(base_config(mode="sgd", **kw))
        sde = train_run(base_config(mode="sde", **kw))
        gld = train_run(base_config(mode="gld", **kw))
        assert np.array_equal(sgd.final_w, sde.final_w)
        assert np.array_equal(sgd.train_loss, sde.train_loss)
        assert not np.array_equal(sgd.final_w, gld.final_w)

    def test_geometric_contraction_on_noiseless_quadratic(self):
        """scatter = 0 makes every z equal to the center, so full-batch GD is
        w <- (1 - eta) w exactly; 200 steps shrink the iterate by 0.9^200."""
        spec = quad_spec(d=2, scatter=np.zeros((2, 2)))
        w0 = np.array([1.0, -2.0])
        cfg = TrainConfig(spec=spec, n=4, b=4, lr_schedule=((1, 0.1),),
                          steps=200, w0=w0, log_every=200)
        rec = train_run(cfg)
        np.testing.assert_allclose(rec.final_w, (0.9 ** 200) * w0, rtol=1e-10)
        assert not rec.diverged

    def test_logging_cadence_does_not_alter_dynamics(self):
        dense = train_run(base_config(mode="sde", steps=30, log_every=1))
        sparse = train_run(base_config(mode="sde", steps=30, log_every=7))
        probed = train_run(base_config(mode="sde", steps=30, log_every=7,
                                       log_lambda1=True, log_alignment=True))
        assert np.array_equal(dense.final_w, sparse.final_w)
        assert np.array_equal(dense.final_w, probed.final_w)

    def test_log_every_equal_to_steps_gives_two_rows(self):
        rec = train_run(base_config(steps=40, log_every=40))
        np.testing.assert_array_equal(rec.steps, [0, 40])
        assert rec.train_loss.shape == (2,)

    def test_logged_series_contains_terminal_step_always(self):
        rec = train_run(base_config(steps=41, log_every=10))
        np.testing.assert_array_equal(rec.steps, [0, 10, 20, 30, 40, 41])

    def test_recorded_weights_bracket_the_run(self):
        cfg = base_config(steps=12, log_every=3, record_weights=True)
        rec = train_run(cfg)
        assert rec.weights.shape == (len(rec.steps), 2)
        np.testing.assert_array_equal(rec.weights[0], rec.w0)
        np.testing.assert_array_equal(rec.weights[-1], rec.final_w)

    def test_explicit_w0_is_respected(self):
        w0 = np.array([3.0, 4.0])
        rec = train_run(base_config(w0=w0, steps=1))
        np.testing.assert_array_equal(rec.w0, w0)
        assert rec.dist_init[0] == 0.0

    def test_trace_c_series_matches_snapshot_at_init(self):
        from gradnoise.gradstats import snapshot

        cfg = base_config(steps=5, log_every=5, w0=np.array([0.5, 0.5]))
        rec = train_run(cfg)
        dataset = generate_dataset(cfg.spec, cfg.effective_dataset_seed, cfg.n)
        problem = build_problem(cfg.spec)
        snap = snapshot(problem, rec.w0, dataset, b=cfg.b)
        assert rec.trace_c[0] == pytest.approx(snap.trace_c, rel=1e-10)
        assert rec.grad_norm_sq[0] == pytest.approx(snap.grad_norm_sq, rel=1e-10)

    def test_divergence_is_flagged_and_truncated(self):
        cfg = base_config(lr_schedule=((1, 2.5),), steps=400, log_every=10,
                          w0=np.array([1.0, 1.0]))
        rec = train_run(cfg)
        assert rec.diverged
        assert rec.diverged_step is not None
        assert len(rec.steps) < 41
        assert np.all(np.isfinite(rec.final_w))

    def test_tail_checkpoints_end_at_terminal_step(self):
        cfg = base_config(steps=40, tail_checkpoints=4, tail_spacing=3,
                          mode="sde")
        rec = train_run(cfg)
        assert rec.tail_weights.shape == (4, 2)
        # Last tail row is the terminal iterate.
        np.testing.assert_array_equal(rec.tail_weights[-1], rec.final_w)


class TestStationaryBehavior:
    def test_gld_long_run_variance_matches_solver(self):
        """Scalar GLD around a quadratic: empirical tail variance vs the
        discrete stationary equation with identity noise covariance."""
        a, eta = 1.0, 0.1
        spec = QuadraticSpec(curvature=a, center=np.zeros(1), scatter=0.5,
                             pop_oracle_size=50)
        cfg = TrainConfig(spec=spec, n=8, b=8, lr_schedule=((1, eta),),
                          steps=60_000, mode="gld", seed=1, log_every=60_000,
                          tail_checkpoints=4000, tail_spacing=3)
        rec = train_run(cfg)
        dataset = generate_dataset(spec, cfg.effective_dataset_seed, cfg.n)
        center = dataset.features.mean()
        lam = solve_stationary_covariance(a * np.eye(1), np.eye(1), eta)[0, 0]
        tails = rec.tail_weights[:, 0]
        assert tails.mean() == pytest.approx(center, abs=0.05)
        assert np.mean((tails - center) ** 2) == pytest.approx(lam, rel=0.12)

    def test_sde_tail_covariance_matches_general_solve(self):
        """d = 2 SDE with frozen noise (exact for quadratics: the GNC does not
        depend on the iterate) against the Kronecker stationary solve."""
        a = np.diag([0.6, 1.1])
        spec = QuadraticSpec(curvature=a, center=np.zeros(2),
                             scatter=np.diag([0.8, 0.5]), pop_oracle_size=50)
        n, b, eta, steps = 40, 4, 0.05, 150_000
        dataset = generate_dataset(spec, 7, n)
        w_star = dataset.features.mean(axis=0)
        cfg = TrainConfig(spec=spec, n=n, b=b, lr_schedule=((1, eta),),
                          steps=steps, mode="sde", seed=7, log_every=steps,
                          w0=w_star, cov_refresh=steps,
                          tail_checkpoints=3000, tail_spacing=10)
        rec = train_run(cfg)
        problem = build_problem(spec)
        c = minibatch_gnc(empirical_gnc(problem, w_star, dataset), n, b)
        lam = solve_stationary_covariance(a, c, eta, mode="general")
        tails = rec.tail_weights
        centered = tails - tails.mean(axis=0)
        emp = centered.T @ centered / tails.shape[0]
        rel = np.linalg.norm(emp - lam) / np.linalg.norm(lam)
        assert rel < 0.15


class TestLooTrain:
    def test_full_subset_reproduces_train_run(self):
        cfg = base_config(steps=30, b=3)
        dataset = generate_dataset(cfg.spec, cfg.effective_dataset_seed, cfg.n)
        full = train_run(cfg, dataset=dataset)
        loo = loo_train(cfg, dataset, range(cfg.n))
        assert np.array_equal(full.final_w, loo.final_w)

    def test_dropping_one_example_changes_the_run(self):
        cfg = base_config(steps=30, b=3)
        dataset = generate_dataset(cfg.spec, cfg.effective_dataset_seed, cfg.n)
        full = train_run(cfg, dataset=dataset)
        loo = loo_train(cfg, dataset, [i for i in range(cfg.n) if i != 4])
        assert not np.array_equal(full.final_w, loo.final_w)

    def test_subset_not_larger_than_batch(self):
        cfg = base_config(b=3)
        dataset = generate_dataset(cfg.spec, cfg.effective_dataset_seed, cfg.n)
        with pytest.raises(ConfigError):
            loo_train(cfg, dataset, [0, 1, 2])
        with pytest.raises(ConfigError):
            loo_train(cfg, dataset, range(13))


class TestEnsemble:
    def test_grid_shape_and_grouping(self):
        cfg = base_config(steps=10, seed=100, dataset_seed=40)
        ens = run_ensemble(cfg, n_dataset_seeds=3, n_run_seeds=4)
        assert len(ens.runs) == 12
        groups = ens.groups()
        assert sorted(groups) == [40, 41, 42]
        assert all(len(g) == 4 for g in groups.values())
        run_seeds = {r.run_seed for r in ens.runs}
        assert run_seeds == {100, 101, 102, 103}

    def test_threaded_matches_serial_bitwise(self):
        cfg = base_config(steps=15, mode="sde", tail_checkpoints=3,
                          tail_spacing=2)
        serial = run_ensemble(cfg, 2, 3, jobs=1)
        threaded = run_ensemble(cfg, 2, 3, jobs=4)
        for a, b in zip(serial.runs, threaded.runs):
            assert a.dataset_seed == b.dataset_seed
            assert a.run_seed == b.run_seed
            assert np.array_equal(a.final_w, b.final_w)
            assert np.array_equal(a.tail_weights, b.tail_weights)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_ensemble(base_config(), 0, 3)

    def test_runs_share_one_population_oracle(self):
        cfg = base_config(steps=8)
        ens = run_ensemble(cfg, 1, 2)
        oracle = population_oracle_sample(cfg.spec, cfg.oracle_seed)
        # Same terminal weights imply same test loss against the shared oracle.
        problem = build_problem(cfg.spec)
        for run in ens.runs:
            expected = problem.mean_loss(run.final_w, oracle.features,
                                         oracle.labels)
            assert run.final_test_loss == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mode, tails", [("sde", 4), ("sgd", 0)])
    def test_runs_match_standalone_runs_logging_every_step(self, mode, tails):
        """Ensemble runs log only steps 0 and T; every TerminalRun field must
        still be bit-equal to a standalone run that logs every step."""
        cfg = base_config(steps=30, mode=mode, log_every=1,
                          tail_checkpoints=tails, tail_spacing=3)
        ens = run_ensemble(cfg, 2, 2)
        oracle = population_oracle_sample(cfg.spec, cfg.oracle_seed)
        for run in ens.runs:
            rec = train_run(replace(cfg, seed=run.run_seed,
                                    dataset_seed=run.dataset_seed),
                            oracle=oracle)
            assert len(rec.steps) == 31
            assert np.array_equal(run.final_w, rec.final_w)
            assert np.array_equal(run.w0, rec.w0)
            if tails:
                assert np.array_equal(run.tail_weights, rec.tail_weights)
            else:
                assert run.tail_weights is None and rec.tail_weights is None
            assert run.final_train_loss == rec.train_loss[-1]
            assert run.final_test_loss == rec.test_loss[-1]
            assert run.diverged is rec.diverged is False

    def test_runs_evaluate_losses_only_at_initial_and_terminal_states(
            self, monkeypatch):
        calls = []
        real_build = dynamics.build_problem

        def counting_build(spec):
            problem = real_build(spec)
            mean_loss = problem.mean_loss

            def counted(w, features, labels):
                calls.append(len(features))
                return mean_loss(w, features, labels)

            problem.mean_loss = counted
            return problem

        monkeypatch.setattr(dynamics, "build_problem", counting_build)
        cfg = base_config(steps=40, mode="sde", log_every=1)
        run_ensemble(cfg, 1, 2)
        # Per run: train and oracle loss at steps 0 and T.
        assert len(calls) == 2 * 2 * 2

    @pytest.mark.parametrize("mode, steps", [("sde", 100), ("sde", 2000),
                                             ("sgd", 2000)])
    def test_divergent_ensemble_is_flagged_and_unusable(self, mode, steps):
        """eta = 2.5 is past 2 / lambda_max = 2 on the unit quadratic, so the
        iterate grows like 1.5^t. At 100 steps everything stays finite and
        only the loss test at T catches it. Over 2000 steps the SDE noise
        covariance overflows near t = 875 and the SGD weights near t = 1750;
        both are caught at the step they happen."""
        cfg = base_config(lr_schedule=((1, 2.5),), steps=steps, mode=mode,
                          tail_checkpoints=3, tail_spacing=2)
        ens = run_ensemble(cfg, 2, 2)
        assert all(run.diverged for run in ens.runs)
        assert all(np.all(np.isfinite(run.final_w)) for run in ens.runs)
        with pytest.raises(ConfigError):
            terminal_bound_general(ens)
