"""Training-loop tests: determinism, mode couplings, divergence, ensembles."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradnoise import dynamics
from gradnoise.bounds import terminal_bound_general
from gradnoise.dynamics import (
    DIVERGENCE_THRESHOLD,
    MODES,
    TrainConfig,
    gld_step,
    loo_train,
    run_ensemble,
    sde_step,
    sgd_step,
    train_run,
)
from gradnoise.errors import ConfigError, GradnoiseError
from gradnoise.gradstats import empirical_gnc, minibatch_factor, minibatch_gnc
from gradnoise.linalg import solve_stationary_covariance
from gradnoise.problems import (
    Dataset,
    LogisticSpec,
    MlpSpec,
    QuadraticSpec,
    build_problem,
    generate_dataset,
    population_oracle_sample,
)
from gradnoise.seeding import substream
from gradnoise.spectral import top_eigenvalue


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
        bit-for-bit whatever normals it is given. The diffusion is covered
        by the supplied-transform test below."""
        eta = 0.1
        grad = self.problem.mean_grad(self.w, self.dataset.features,
                                      self.dataset.labels)
        for z in (None, np.random.default_rng(17).standard_normal(20)):
            out = sde_step(self.problem, self.w, self.dataset, eta, z)
            assert np.array_equal(out, self.w - eta * grad)

    def test_sde_step_with_supplied_transform_moments(self):
        eta, b, draws = 0.1, 4, 60_000
        sigma = empirical_gnc(self.problem, self.w, self.dataset)
        c = minibatch_gnc(sigma, len(self.dataset), b)
        from gradnoise.linalg import SpdMatrix, spd_sqrt

        root = spd_sqrt(SpdMatrix.from_matrix(c))
        rng = np.random.default_rng(19)
        samples = np.array([
            sde_step(self.problem, self.w, self.dataset, eta,
                     rng.standard_normal(2), noise_sqrt=root)
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

    def test_sde_step_with_gradient_factor_draws_n_normals(self):
        """The d x n centered-gradient factor F satisfies F F^T = C, and the
        step is w - eta G + eta F z bit for bit, with z the n normals it is
        given."""
        eta, n = 0.1, len(self.dataset)
        factor = minibatch_factor(n, 4)
        f = dynamics._noise_transform(self.problem, self.w, self.dataset, factor)
        assert f.shape == (2, n)
        c = minibatch_gnc(empirical_gnc(self.problem, self.w, self.dataset), n, 4)
        np.testing.assert_allclose(f @ f.T, c, rtol=1e-12, atol=1e-15)
        z = np.random.default_rng(29).standard_normal(n)
        out = sde_step(self.problem, self.w, self.dataset, eta, z, noise_sqrt=f)
        grad = self.problem.mean_grad(self.w, self.dataset.features,
                                      self.dataset.labels)
        assert np.array_equal(out, self.w - eta * grad + eta * (f @ z))

    def test_gld_step_moments(self):
        eta, draws = 0.2, 50_000
        rng = np.random.default_rng(23)
        samples = np.array([
            gld_step(self.problem, self.w, self.dataset, eta,
                     rng.standard_normal(2))
            for _ in range(draws)
        ])
        grad = self.problem.mean_grad(self.w, self.dataset.features,
                                      self.dataset.labels)
        np.testing.assert_allclose(samples.mean(axis=0), self.w - eta * grad,
                                   atol=4 * eta / np.sqrt(draws))
        np.testing.assert_allclose(np.cov(samples.T), eta * eta * np.eye(2),
                                   atol=6 * eta * eta / np.sqrt(draws / 2.0))


class TestBatchStream:
    """SGD batches come a block of steps at a time from ``(seed, "batch")``."""

    @pytest.mark.parametrize("n, b", [(50, 1), (400, 8), (2000, 1000)])
    def test_rows_are_sorted_distinct_and_in_range(self, n, b):
        block = dynamics._batch_block(np.random.default_rng(3), n, b)
        assert block.shape == (dynamics.BATCH_BLOCK, b)
        assert np.all((block >= 0) & (block < n))
        assert np.all(np.diff(block, axis=1) > 0)

    @pytest.mark.parametrize("n, b", [(40, 8), (10, 9), (9, 5)])
    def test_block_is_floyds_algorithm_row_by_row(self, n, b):
        """The mask version equals Floyd's algorithm run on one Python set
        per row, fed the same integer draws."""
        block = dynamics._batch_block(np.random.default_rng(9), n, b)
        rng = np.random.default_rng(9)
        drop = 2 * b > n
        k = n - b if drop else b
        draws = [(j, rng.integers(0, j + 1, size=dynamics.BATCH_BLOCK))
                 for j in range(n - k, n)]
        for i, row in enumerate(block):
            chosen = set()
            for j, t in draws:
                chosen.add(j if t[i] in chosen else int(t[i]))
            if drop:
                chosen = set(range(n)) - chosen
            assert row.tolist() == sorted(chosen)

    def test_full_batch_is_every_index_and_draws_nothing(self):
        rng = substream(5, "batch")
        state = rng.bit_generator.state
        block = dynamics._batch_block(rng, 12, 12)
        assert np.array_equal(block, np.tile(np.arange(12), (dynamics.BATCH_BLOCK, 1)))
        assert rng.bit_generator.state == state

    def test_shorter_run_uses_a_prefix_of_the_longer_runs_batches(self, monkeypatch):
        """300 and 600 steps straddle different numbers of blocks; the first
        300 batches, and so the first 300 steps, agree."""
        batches = []
        real = dynamics.sgd_step

        def spy(problem, w, dataset, idx, eta):
            batches[-1].append(np.array(idx))
            return real(problem, w, dataset, idx, eta)

        monkeypatch.setattr(dynamics, "sgd_step", spy)
        records = []
        for steps in (300, 600):
            batches.append([])
            records.append(train_run(base_config(n=40, b=8, steps=steps,
                                                 log_every=10,
                                                 record_weights=True)))
        short, long = batches
        assert len(short) == 300 and len(long) == 600
        assert all(np.array_equal(a, b) for a, b in zip(short, long))
        assert np.array_equal(records[0].train_loss, records[1].train_loss[:31])
        assert np.array_equal(records[0].final_w, records[1].weights[30])

    # 99.9% quantiles of chi-square with C(6, b) - 1 degrees of freedom:
    # 19 for b = 3 (the direct draw), 14 for b = 4 (the left-out draw).
    @pytest.mark.parametrize("b, threshold", [(3, 43.82), (4, 36.12)])
    def test_every_subset_is_equally_likely(self, b, threshold):
        rng = np.random.default_rng(20)
        rows = np.concatenate([dynamics._batch_block(rng, 6, b) for _ in range(40)])
        _, counts = np.unique(rows, axis=0, return_counts=True)
        subsets = math.comb(6, b)
        assert len(counts) == subsets
        expected = len(rows) / subsets
        assert np.sum((counts - expected) ** 2 / expected) < threshold


class TestNoiseStream:
    """SDE and GLD normals come a block of steps at a time from
    ``(seed, "noise")``, and the block length is not part of the stream."""

    @pytest.mark.parametrize("k", [1, 3, 50, 500])
    def test_blocks_equal_one_draw_per_step(self, k):
        """Enough blocks for T = 3 NOISE_BLOCK + 5 steps (a T the block length
        does not divide) hold, in order, the T per-step draws of k normals."""
        steps = 3 * dynamics.NOISE_BLOCK + 5
        rng = substream(7, "noise")
        blocks = [dynamics._noise_block(rng, k)
                  for _ in range(-(-steps // dynamics.NOISE_BLOCK))]
        assert blocks[0].shape == (dynamics.NOISE_BLOCK, k)
        replay = substream(7, "noise")
        per_step = np.array([replay.standard_normal(k) for _ in range(steps)])
        assert np.array_equal(np.concatenate(blocks)[:steps], per_step)

    @pytest.mark.parametrize("mode", ["sde", "gld"])
    def test_runs_do_not_depend_on_the_block_length(self, monkeypatch, mode):
        cfg = base_config(mode=mode, steps=37, log_every=5, record_weights=True,
                          tail_checkpoints=3, tail_spacing=2)
        want = run_ensemble(cfg, 2, 2, terminal_only=False)
        for block in (1, 5, 64):
            monkeypatch.setattr(dynamics, "NOISE_BLOCK", block)
            got = run_ensemble(cfg, 2, 2, terminal_only=False)
            for rec, ref in zip(got, want):
                assert_records_identical(rec, ref)


class TestTrainRun:
    def test_bitwise_deterministic(self):
        cfg = base_config(mode="sde", steps=60)
        a = train_run(cfg)
        b = train_run(cfg)
        assert np.array_equal(a.final_w, b.final_w)
        assert np.array_equal(a.train_loss, b.train_loss)

    def test_record_carries_its_dataset_and_oracle(self):
        cfg = base_config(steps=5, seed=9, dataset_seed=2, oracle_seed=4)
        rec = train_run(cfg)
        dataset = generate_dataset(cfg.spec, 2, cfg.n)
        oracle = population_oracle_sample(cfg.spec, 4)
        for carried, fresh in ((rec.dataset, dataset), (rec.oracle, oracle)):
            assert np.array_equal(carried.features, fresh.features)
            assert np.array_equal(carried.labels, fresh.labels)

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

    def test_sde_noise_stays_in_the_centered_gradient_span(self):
        """With n <= d the minibatch covariance has rank n - 1: every noise
        increment w_t - (w_{t-1} - eta G) must lie in span{A (x_i - mean)},
        with no component of a floored full-rank root in other directions."""
        rng = np.random.default_rng(31)
        m = rng.standard_normal((6, 6))
        a = m @ m.T / 6 + 0.5 * np.eye(6)
        spec = quad_spec(d=6, a=a)
        eta = 0.1
        cfg = TrainConfig(spec=spec, n=4, b=1, lr_schedule=((1, eta),),
                          steps=20, mode="sde", seed=3, log_every=1,
                          record_weights=True)
        rec = train_run(cfg)
        assert not rec.diverged and len(rec.weights) == 21
        problem = build_problem(spec)
        dataset = generate_dataset(spec, cfg.effective_dataset_seed, cfg.n)
        x = dataset.features
        u, sv, _ = np.linalg.svd(a @ (x - x.mean(axis=0)).T, full_matrices=False)
        basis = u[:, sv > 1e-12 * sv[0]]
        assert basis.shape[1] == cfg.n - 1
        for prev, cur in zip(rec.weights[:-1], rec.weights[1:]):
            inc = cur - (prev - eta * problem.mean_grad(prev, x, dataset.labels))
            off_span = inc - basis @ (basis.T @ inc)
            assert np.linalg.norm(inc) > 0
            assert np.linalg.norm(off_span) <= 1e-10 * np.linalg.norm(inc)

    @pytest.mark.parametrize("spec, b, builds", [
        pytest.param(quad_spec(), 3, 1, id="quadratic"),
        pytest.param(quad_spec(), 12, 0, id="quadratic-full-batch"),
        pytest.param(LogisticSpec(dim=2, mean0=[-1.0, 0.0], mean1=[1.0, 0.0],
                                  pop_oracle_size=50), 3, 25, id="logistic"),
        pytest.param(MlpSpec(in_dim=2, hidden=3, classes=2, pop_oracle_size=50),
                     3, 25, id="mlp"),
    ])
    def test_noise_factor_is_rebuilt_only_where_it_depends_on_w(
            self, monkeypatch, spec, b, builds):
        """The quadratic's noise factor is built once per run (none at b = n,
        where the noise is zero); logistic and MLP rebuild it every step."""
        calls = []
        real = dynamics._noise_transform

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dynamics, "_noise_transform", counting)
        train_run(base_config(spec=spec, b=b, mode="sde", steps=25))
        assert len(calls) == builds

    def test_quadratic_noise_factor_does_not_depend_on_w(self):
        spec = quad_spec(d=3, a=np.diag([0.5, 1.0, 2.0]))
        problem = build_problem(spec)
        dataset = generate_dataset(spec, 0, 10)
        at = [dynamics._noise_transform(problem, w, dataset, 0.25)
              for w in (np.zeros(3), np.array([3.0, -1.0, 0.5]))]
        np.testing.assert_allclose(at[0], at[1], rtol=0, atol=1e-14)
        assert problem.has_constant_noise

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
                                       log_lambda1=True))
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
        from oracles import snapshot

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

    def test_a_diverged_initial_state_stops_the_run_at_step_0(self):
        """w0 = (1e7, 1e7) on the unit quadratic: the step-0 training loss is
        past the threshold, so the run logs nothing, takes no step and
        reports diverged_step 0."""
        cfg = base_config(n=20, b=20, lr_schedule=((1, 0.5),), steps=60,
                          log_every=10, w0=np.array([1e7, 1e7]))
        rec = train_run(cfg)
        assert rec.diverged and rec.diverged_step == 0
        assert len(rec.steps) == len(rec.train_loss) == 0
        assert np.array_equal(rec.final_w, cfg.w0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_lambda1_is_deterministic_and_free_of_the_start_vector(self, seed):
        """Two runs give bit-identical lambda1; a different start vector at
        each logged state gives the same eigenvalue to 1e-10."""
        spec = MlpSpec(in_dim=3, hidden=4, classes=3, teacher_seed=1,
                       pop_oracle_size=50)
        cfg = TrainConfig(spec=spec, n=30, b=5, lr_schedule=((1, 0.2),),
                          steps=20, seed=seed, log_every=5, log_lambda1=True,
                          record_weights=True)
        rec = train_run(cfg)
        np.testing.assert_array_equal(train_run(cfg).lambda1, rec.lambda1)
        problem = build_problem(spec)
        dataset = generate_dataset(spec, cfg.effective_dataset_seed, cfg.n)
        for t, w, lam in zip(rec.steps, rec.weights, rec.lambda1):
            other = top_eigenvalue(problem, w, dataset, seed=seed,
                                   seed_labels=("spectral", int(t) + 1))
            assert other.lambda_1 == pytest.approx(lam, rel=1e-10)

    def test_lambda1_of_a_shorter_run_is_a_prefix_of_a_longer_one(self):
        """Each logged state's Lanczos call starts from the previous state's
        eigenvector, so lambda1 depends on earlier states only."""
        spec = MlpSpec(in_dim=3, hidden=4, classes=3, teacher_seed=1,
                       pop_oracle_size=50)
        cfg = TrainConfig(spec=spec, n=30, b=5, lr_schedule=((1, 0.2),),
                          steps=40, seed=2, log_every=5, log_lambda1=True)
        short = train_run(cfg)
        long = train_run(replace(cfg, steps=80))
        assert len(short.lambda1) == 9
        np.testing.assert_array_equal(long.lambda1[:9], short.lambda1)

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
        """d = 2 SDE, whose noise factor is built once (the quadratic GNC does
        not depend on the iterate), against the Kronecker stationary solve."""
        a = np.diag([0.6, 1.1])
        spec = QuadraticSpec(curvature=a, center=np.zeros(2),
                             scatter=np.diag([0.8, 0.5]), pop_oracle_size=50)
        n, b, eta, steps = 40, 4, 0.05, 150_000
        dataset = generate_dataset(spec, 7, n)
        w_star = dataset.features.mean(axis=0)
        cfg = TrainConfig(spec=spec, n=n, b=b, lr_schedule=((1, eta),),
                          steps=steps, mode="sde", seed=7, log_every=steps,
                          w0=w_star, tail_checkpoints=3000, tail_spacing=10)
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

    def test_record_carries_the_subset_it_trained_on(self):
        cfg = base_config(steps=5, b=3)
        dataset = generate_dataset(cfg.spec, cfg.effective_dataset_seed, cfg.n)
        subset = [i for i in range(cfg.n) if i != 4]
        loo = loo_train(cfg, dataset, subset)
        assert len(loo.dataset) == cfg.n - 1
        assert np.array_equal(loo.dataset.features, dataset.features[subset])
        assert np.array_equal(loo.dataset.labels, dataset.labels[subset])

    def test_subset_not_larger_than_batch(self):
        cfg = base_config(b=3)
        dataset = generate_dataset(cfg.spec, cfg.effective_dataset_seed, cfg.n)
        with pytest.raises(ConfigError):
            loo_train(cfg, dataset, [0, 1, 2])
        with pytest.raises(ConfigError):
            loo_train(cfg, dataset, range(13))


def count_mean_loss_rows(monkeypatch):
    """The list to which every ``mean_loss`` call of the problems that
    ``dynamics`` builds appends its row count."""
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
    return calls


class TestEnsemble:
    def test_grid_shape_and_grouping(self):
        cfg = base_config(steps=10, seed=100, dataset_seed=40)
        ens = run_ensemble(cfg, n_dataset_seeds=3, n_run_seeds=4)
        assert len(ens) == 12
        groups = {}
        for run in ens:
            groups.setdefault(run.dataset.seed, []).append(run)
        assert sorted(groups) == [40, 41, 42]
        assert all(len(g) == 4 for g in groups.values())
        run_seeds = {r.config.seed for r in ens}
        assert run_seeds == {100, 101, 102, 103}

    def test_ensemble_carries_the_grid_datasets_and_oracle(self):
        cfg = base_config(steps=5, seed=100, dataset_seed=40)
        ens = run_ensemble(cfg, n_dataset_seeds=3, n_run_seeds=2)
        datasets = {r.dataset.seed: r.dataset for r in ens}
        assert sorted(datasets) == [40, 41, 42]
        for seed, dataset in datasets.items():
            fresh = generate_dataset(cfg.spec, seed, cfg.n)
            assert np.array_equal(dataset.features, fresh.features)
            assert np.array_equal(dataset.labels, fresh.labels)
        oracle = population_oracle_sample(cfg.spec, cfg.oracle_seed)
        assert np.array_equal(ens[0].oracle.features, oracle.features)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_ensemble(base_config(), 0, 3)

    def test_runs_share_one_population_oracle(self):
        cfg = base_config(steps=8)
        ens = run_ensemble(cfg, 1, 2)
        oracle = population_oracle_sample(cfg.spec, cfg.oracle_seed)
        # Same terminal weights imply same test loss against the shared oracle.
        problem = build_problem(cfg.spec)
        for run in ens:
            expected = problem.mean_loss(run.final_w, oracle.features,
                                         oracle.labels)
            assert run.test_loss[-1] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mode, tails", [("sde", 4), ("sgd", 0)])
    def test_runs_match_standalone_runs_logging_every_step(self, mode, tails):
        """Ensemble runs log only steps 0 and T; their terminal state must
        still be bit-equal to a standalone run that logs every step, and they
        share the grid's datasets and oracle."""
        cfg = base_config(steps=30, mode=mode, log_every=1,
                          tail_checkpoints=tails, tail_spacing=3)
        ens = run_ensemble(cfg, 2, 2)
        oracle = population_oracle_sample(cfg.spec, cfg.oracle_seed)
        datasets = {run.dataset.seed: run.dataset for run in ens}
        for run in ens:
            assert run.dataset is datasets[run.dataset.seed]
            assert run.oracle is ens[0].oracle
            assert list(run.steps) == [0, 30]
            rec = train_run(replace(cfg, seed=run.config.seed,
                                    dataset_seed=run.dataset.seed),
                            oracle=oracle)
            assert len(rec.steps) == 31
            assert np.array_equal(run.final_w, rec.final_w)
            assert np.array_equal(run.w0, rec.w0)
            if tails:
                assert np.array_equal(run.tail_weights, rec.tail_weights)
            else:
                assert run.tail_weights is None and rec.tail_weights is None
            assert run.train_loss[-1] == rec.train_loss[-1]
            assert run.test_loss[-1] == rec.test_loss[-1]
            assert run.diverged is rec.diverged is False

    def test_runs_evaluate_losses_only_at_initial_and_terminal_states(
            self, monkeypatch):
        calls = count_mean_loss_rows(monkeypatch)
        cfg = base_config(steps=40, mode="sde", log_every=1)
        run_ensemble(cfg, 1, 2)
        # Per run: train loss at steps 0 and T, oracle loss at T only.
        assert len(calls) == 2 * 3

    @staticmethod
    def mixed_divergence_grid(monkeypatch):
        """A 2 x 3 SGD grid logged every 5 steps at eta just past
        2 / lambda_max, where run (dataset 0, seed 1) diverges at step T;
        with the sizes of each ``mean_loss`` call's features."""
        calls = count_mean_loss_rows(monkeypatch)
        cfg = base_config(n=20, b=2, lr_schedule=((1, 2.045),), steps=280,
                          seed=0, log_every=5)
        ens = run_ensemble(cfg, 2, 3, terminal_only=False)
        assert [rec.diverged_step for rec in ens] == [None, 280] + [None] * 4
        return cfg, ens, calls

    def test_oracle_loss_is_evaluated_once_per_run_that_reaches_t(
            self, monkeypatch):
        cfg, ens, calls = self.mixed_divergence_grid(monkeypatch)
        logged = cfg.steps // cfg.log_every + 1
        oracle_size = cfg.spec.pop_oracle_size
        assert calls.count(oracle_size) == 5
        # Each run tests its training loss at every logged state it reaches,
        # the diverged run's failed test at T included.
        assert calls.count(cfg.n) == len(ens) * logged
        assert len(calls) == len(ens) * logged + 5

    def test_test_loss_is_nan_before_t_and_for_a_diverged_run(
            self, monkeypatch):
        cfg, ens, _ = self.mixed_divergence_grid(monkeypatch)
        for rec in ens:
            assert len(rec.test_loss) == len(rec.steps)
            if rec.diverged:
                assert np.isnan(rec.test_loss).all()
            else:
                assert np.isnan(rec.test_loss[:-1]).all()
                assert np.isfinite(rec.test_loss[-1])
                alone = train_run(rec.config)
                assert rec.test_loss[-1] == alone.test_loss[-1]

    @pytest.mark.parametrize("mode, steps", [("sde", 100), ("sde", 2000),
                                             ("sgd", 2000)])
    def test_divergent_ensemble_is_flagged_and_unusable(self, mode, steps):
        """eta = 2.5 is past 2 / lambda_max = 2 on the unit quadratic, so the
        iterate grows like 1.5^t. At 100 steps everything stays finite and
        only the loss test at T catches it. Over 2000 steps the SDE and SGD
        weights both overflow near t = 1750 and are caught at the step they
        happen."""
        cfg = base_config(lr_schedule=((1, 2.5),), steps=steps, mode=mode,
                          tail_checkpoints=3, tail_spacing=2)
        ens = run_ensemble(cfg, 2, 2)
        assert all(run.diverged for run in ens)
        assert all(np.all(np.isfinite(run.final_w)) for run in ens)
        with pytest.raises(GradnoiseError) as err:
            terminal_bound_general(ens)
        assert not isinstance(err.value, ConfigError)


# Dense curvature and several features per example, so that a stacked
# product that took another BLAS path than the single run would show in
# the last bits (an identity curvature hides it).
FAMILIES = {
    "quadratic": quad_spec(d=4, a=[[1.0, 0.3, 0.1, 0.0], [0.3, 0.8, 0.2, 0.1],
                                   [0.1, 0.2, 1.2, 0.3], [0.0, 0.1, 0.3, 0.9]],
                           scatter=np.diag([1.0, 0.7, 1.3, 0.5])),
    "logistic": LogisticSpec(dim=4, mean0=-np.full(4, 0.5), mean1=np.full(4, 0.5),
                             l2=0.01, pop_oracle_size=50),
    "mlp": MlpSpec(in_dim=3, hidden=4, classes=3, pop_oracle_size=50),
}


def assert_records_identical(got, want, skip=()):
    """Every field of two records but ``skip`` is bitwise equal (datasets by
    content); ``test_loss`` holds its NaN at the same states."""
    for field in fields(got):
        if field.name in skip:
            continue
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name in ("dataset", "oracle"):
            assert a.seed == b.seed and a.spec is b.spec, field.name
            assert np.array_equal(a.features, b.features), field.name
            assert np.array_equal(a.labels, b.labels), field.name
        elif field.name == "config":
            assert a == b
        else:
            assert type(a) is type(b), field.name
            if a is not None:
                assert np.asarray(a).dtype == np.asarray(b).dtype, field.name
                assert np.array_equal(a, b, equal_nan=field.name == "test_loss"), \
                    field.name


def assert_ensemble_record_matches(rec, alone):
    """An ensemble record equals the ``train_run`` record ``alone`` of its
    run bit for bit, except that its oracle loss is evaluated only at step
    T: ``test_loss`` is NaN before T, and all NaN if the run diverged."""
    assert_records_identical(rec, alone, skip=("test_loss",))
    assert rec.test_loss.shape == alone.test_loss.shape
    if alone.diverged:
        assert np.isnan(rec.test_loss).all()
    else:
        assert np.isnan(rec.test_loss[:-1]).all()
        assert rec.test_loss[-1] == alone.test_loss[-1]


class TestGroupStepper:
    """The runs of a seed grid step as one (R, d) weight stack, whatever
    their datasets; every record must equal, bit for bit, the run trained
    alone."""

    @pytest.mark.parametrize("terminal_only", [True, False],
                             ids=["terminal", "cadence"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_ensemble_records_equal_standalone_runs(self, family, mode,
                                                    terminal_only):
        cfg = base_config(spec=FAMILIES[family], mode=mode, n=40, b=8, steps=24,
                          seed=7, dataset_seed=30, log_every=5, record_weights=True,
                          log_lambda1=True, tail_checkpoints=3, tail_spacing=2)
        ens = run_ensemble(cfg, 2, 3, terminal_only=terminal_only)
        assert len(ens) == 6 and not any(rec.diverged for rec in ens)
        assert all(len(rec.steps) == (2 if terminal_only else 6) for rec in ens)
        for rec in ens:
            alone = replace(cfg, seed=rec.config.seed,
                            dataset_seed=rec.dataset.seed,
                            log_every=24 if terminal_only else 5)
            assert_ensemble_record_matches(rec, train_run(alone))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_group_matches_the_one_vector_step_loop(self, family, mode):
        """Each run of a stacked group reaches the weights that the public
        step functions give, one weight vector at a time, on its streams,
        with each step's normals drawn alone from ``(seed, "noise")``."""
        cfg = base_config(spec=FAMILIES[family], mode=mode, n=40, b=8, steps=24,
                          seed=7, tail_checkpoints=3, tail_spacing=2)
        problem = build_problem(cfg.spec)
        factor = minibatch_factor(cfg.n, cfg.b)
        for rec in run_ensemble(cfg, 1, 3):
            w = rec.w0
            rng_batch = substream(rec.config.seed, "batch")
            rng_noise = substream(rec.config.seed, "noise")
            root, tails = None, []
            for t in range(1, cfg.steps + 1):
                if mode == "sgd":
                    row = (t - 1) % dynamics.BATCH_BLOCK
                    if row == 0:
                        block = dynamics._batch_block(rng_batch, cfg.n, cfg.b)
                    w = sgd_step(problem, w, rec.dataset, block[row], 0.1)
                elif mode == "sde":
                    if root is None or not problem.has_constant_noise:
                        root = dynamics._noise_transform(problem, w, rec.dataset,
                                                         factor)
                    w = sde_step(problem, w, rec.dataset, 0.1,
                                 rng_noise.standard_normal(cfg.n),
                                 noise_sqrt=root)
                else:
                    w = gld_step(problem, w, rec.dataset, 0.1,
                                 rng_noise.standard_normal(problem.dim))
                if t >= 20 and t % 2 == 0:
                    tails.append(w)
            assert np.array_equal(rec.final_w, w)
            assert np.array_equal(rec.tail_weights, tails)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_full_batch_group_draws_no_normals(self, monkeypatch, family):
        """At b = n the noise factor is 0: the SDE group draws no normals
        and its runs are the full-batch SGD runs, bit for bit."""
        draws = []
        real = dynamics._noise_block
        monkeypatch.setattr(dynamics, "_noise_block",
                            lambda *a: draws.append(a) or real(*a))
        cfg = base_config(spec=FAMILIES[family], b=12, mode="sde", steps=20,
                          tail_checkpoints=2)
        assert minibatch_factor(cfg.n, cfg.b) == 0.0
        sde = run_ensemble(cfg, 2, 2)
        assert draws == []
        sgd = run_ensemble(replace(cfg, mode="sgd"), 2, 2)
        for rec, twin in zip(sde, sgd):
            assert np.array_equal(rec.final_w, twin.final_w)
            assert np.array_equal(rec.tail_weights, twin.tail_weights)
            assert_ensemble_record_matches(rec, train_run(rec.config))

    @staticmethod
    def outlier_setup(log_every):
        """SGD with b = 1 on a quadratic whose first direction is unstable
        (eta a_1 = 102, so the iterate is multiplied by -101 per step) and
        zero in every example but one. A run keeps w_1 = 0 until it samples
        that example, then overflows about 153 steps later; six run seeds
        split into all three outcomes."""
        spec = QuadraticSpec(curvature=np.diag([102.0, 1.0]), center=np.zeros(2),
                             scatter=np.diag([0.0, 1.0]), pop_oracle_size=50)
        features = np.zeros((400, 2))
        features[:, 1] = np.random.default_rng(0).standard_normal(400)
        features[7, 0] = 1.0
        dataset = Dataset(features, np.zeros(400), 0, spec)
        cfg = TrainConfig(spec=spec, n=400, b=1, lr_schedule=((1, 1.0),),
                          steps=300, w0=np.zeros(2), log_every=log_every)
        configs = [replace(cfg, seed=seed) for seed in range(6)]
        return configs, dataset, population_oracle_sample(spec, 0)

    def test_run_that_diverges_leaves_the_group_alone(self):
        """Logged at steps 0 and T only: two runs overflow mid-run at
        different steps and keep their last finite state, one fails the
        step-T loss test, and the others finish; each equals its run alone."""
        configs, dataset, oracle = self.outlier_setup(log_every=300)
        group = dynamics._run_group(configs, [dataset] * len(configs), oracle)
        for rec, cfg in zip(group, configs):
            assert_records_identical(rec, train_run(cfg, dataset, oracle))
        problem = build_problem(configs[0].spec)
        mid = [rec for rec in group if rec.diverged and rec.diverged_step < 300]
        at_t = [rec for rec in group if rec.diverged_step == 300]
        assert len({rec.diverged_step for rec in mid}) >= 2
        assert at_t and any(not rec.diverged for rec in group)
        for rec in mid + at_t:
            assert np.all(np.isfinite(rec.final_w))
            assert list(rec.steps) == [0]
        for rec in at_t:
            loss = problem.mean_loss(rec.final_w, dataset.features, dataset.labels)
            assert loss > DIVERGENCE_THRESHOLD
        for rec in group:
            if not rec.diverged:
                assert list(rec.steps) == [0, 300]

    def test_run_diverged_at_step_0_leaves_before_the_first_update(self):
        """A dataset shifted by 1e7 puts one run's initial loss past the
        threshold: it leaves the stack at step 0 with no logged state, and
        each run of the group equals its run alone."""
        cfg = base_config(n=20, b=4, steps=30, log_every=10, record_weights=True)
        oracle = population_oracle_sample(cfg.spec, 0)
        near = generate_dataset(cfg.spec, 1, cfg.n)
        far = Dataset(near.features + 1e7, near.labels, 2, cfg.spec)
        datasets = [near, far, near]
        configs = [replace(cfg, seed=s, dataset_seed=ds.seed)
                   for s, ds in enumerate(datasets)]
        group = dynamics._run_group(configs, datasets, oracle)
        assert [rec.diverged_step for rec in group] == [None, 0, None]
        assert len(group[1].steps) == 0
        for rec, c, ds in zip(group, configs, datasets):
            assert_records_identical(rec, train_run(c, ds, oracle))

    def test_run_that_fails_a_logged_loss_test_leaves_the_group_alone(self):
        configs, dataset, oracle = self.outlier_setup(log_every=10)
        group = dynamics._run_group(configs, [dataset] * len(configs), oracle)
        for rec, cfg in zip(group, configs):
            assert_records_identical(rec, train_run(cfg, dataset, oracle))
        mid = [rec for rec in group if rec.diverged and rec.diverged_step < 300]
        assert mid and any(not rec.diverged for rec in group)
        assert all(rec.diverged_step % 10 == 0 for rec in mid)

    @pytest.mark.parametrize("mode", ["sde", "gld"])
    def test_noisy_runs_leave_the_stack_at_their_own_steps(self, mode):
        """eta a_1 = 4 multiplies the first coordinate by -3 per step; the
        noise sets when each run overflows. The quadratic's stacked noise
        factor loses a slice each time a run leaves."""
        cfg = base_config(spec=quad_spec(a=np.diag([4.0, 1.0])), mode=mode,
                          lr_schedule=((1, 1.0),), steps=1000)
        ens = run_ensemble(cfg, 1, 6)
        steps = {rec.diverged_step for rec in ens}
        assert None not in steps and len(steps) >= 2
        for rec in ens:
            assert_ensemble_record_matches(rec, train_run(rec.config))

    @pytest.mark.parametrize("mode", ["sgd", "sde"])
    def test_grid_where_one_datasets_runs_overflow(self, mode):
        """Two datasets in one stack. On the first, one example carries the
        unstable direction (eta a_1 = 102), so every SDE run overflows and
        the SGD runs that sample it do; on the second that direction is zero
        in every example and in the noise, and no run leaves. Each record
        equals its run alone."""
        configs, outlier, oracle = self.outlier_setup(log_every=300)
        features = outlier.features.copy()
        features[:, 0] = 0.0
        features[:, 1] = np.random.default_rng(1).standard_normal(400)
        quiet = Dataset(features, np.zeros(400), 1, outlier.spec)
        configs = [replace(cfg, mode=mode, dataset_seed=dataset.seed)
                   for dataset in (outlier, quiet) for cfg in configs[:4]]
        datasets = [outlier] * 4 + [quiet] * 4
        group = dynamics._run_group(configs, datasets, oracle)
        for rec, cfg, dataset in zip(group, configs, datasets):
            assert rec.dataset is dataset
            assert_records_identical(rec, train_run(cfg, dataset, oracle))
        assert any(rec.diverged for rec in group[:4])
        if mode == "sde":
            assert all(rec.diverged for rec in group[:4])
        assert not any(rec.diverged for rec in group[4:])

    @pytest.mark.parametrize("mode", MODES)
    def test_grid_makes_one_mean_grad_call_per_step(self, monkeypatch, mode):
        """A 3 x 2 grid steps as one stack: T mean_grad calls, not 3T."""
        calls = []
        real_build = dynamics.build_problem

        def counting_build(spec):
            problem = real_build(spec)
            mean_grad = problem.mean_grad
            problem.mean_grad = lambda *a: calls.append(1) or mean_grad(*a)
            return problem

        monkeypatch.setattr(dynamics, "build_problem", counting_build)
        cfg = base_config(mode=mode, steps=30)
        ens = run_ensemble(cfg, 3, 2)
        assert not any(rec.diverged for rec in ens)
        assert len(calls) == cfg.steps
