"""Finite-difference and sampling checks for the three loss families."""

import numpy as np
import pytest

import oracles
from fd_utils import check_hvp, check_mean_grad, check_per_example_grads
from oracles import quadratic_population_moments
from gradnoise import problems
from gradnoise.errors import CapabilityError, ConfigError
from gradnoise.gradstats import gnc_from_grads
from gradnoise.problems import (
    LogisticSpec,
    MlpProblem,
    MlpSpec,
    QuadraticSpec,
    _class_reduce,
    build_problem,
    dense_hessian,
    generate_dataset,
    population_oracle_sample,
)
from gradnoise.seeding import substream


def quadratic_spec(d=3, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d))
    curvature = m @ m.T / d + 0.2 * np.eye(d)
    return QuadraticSpec(curvature=curvature, center=rng.standard_normal(d),
                         scatter=np.diag(0.5 + rng.random(d)))


def logistic_spec(d=4, l2=0.05):
    return LogisticSpec(dim=d, mean0=-0.4 * np.ones(d), mean1=0.4 * np.ones(d),
                        cov=0.8, l2=l2)


def mlp_spec():
    return MlpSpec(in_dim=3, hidden=4, classes=3, teacher_seed=7)


ALL_SPECS = [quadratic_spec(), logistic_spec(), mlp_spec()]
# The logistic gradient adds its L2 term only when l2 is nonzero: check both.
GRAD_SPECS = ALL_SPECS + [
    pytest.param(logistic_spec(l2=0.0), id="logistic-two-gaussians-no-l2")]


class TestDerivatives:
    """Analytic gradients and HVPs against central differences (all families)."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_mean_grad(self, spec):
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=1, n=12)
        w = np.random.default_rng(2).standard_normal(problem.dim) * 0.5
        check_mean_grad(problem, w, data.features, data.labels)

    @pytest.mark.parametrize("spec", GRAD_SPECS, ids=lambda s: s.family)
    def test_per_example_grads(self, spec):
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=1, n=8)
        w = np.random.default_rng(3).standard_normal(problem.dim) * 0.5
        check_per_example_grads(problem, w, data.features, data.labels)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_hvp(self, spec):
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=1, n=8)
        w = np.random.default_rng(4).standard_normal(problem.dim) * 0.5
        check_hvp(problem, w, data.features, data.labels)

    @pytest.mark.parametrize("spec", GRAD_SPECS, ids=lambda s: s.family)
    def test_per_example_grads_average_to_mean_grad(self, spec):
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=5, n=10)
        w = np.random.default_rng(6).standard_normal(problem.dim) * 0.3
        grads = problem.per_example_grads(w, data.features, data.labels)
        np.testing.assert_allclose(grads.mean(axis=0),
                                   problem.mean_grad(w, data.features, data.labels),
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("spec", GRAD_SPECS, ids=lambda s: s.family)
    def test_stacked_mean_grad_rows_equal_single_calls(self, spec):
        """An (R, d) stack of weights, with shared data or one batch per
        row, gives each row's own gradient bit for bit."""
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=3, n=40)
        rng = np.random.default_rng(8)
        w = rng.standard_normal((5, problem.dim)) * 0.5
        shared = problem.mean_grad(w, data.features, data.labels)
        assert shared.shape == w.shape
        idx = np.array([np.sort(rng.choice(40, size=9, replace=False))
                        for _ in range(5)])
        batched = problem.mean_grad(w, data.features[idx], data.labels[idx])
        for r in range(5):
            assert np.array_equal(
                shared[r], problem.mean_grad(w[r], data.features, data.labels))
            assert np.array_equal(batched[r], problem.mean_grad(
                w[r], data.features[idx[r]], data.labels[idx[r]]))

    def test_one_vector_mean_grad_is_the_plain_formula(self):
        """The stack-ready forms reduce, for one vector, to the products
        they replaced: A (w - mean z) and X^T c / m + l2 w."""
        data = generate_dataset(quadratic_spec(), seed=3, n=40)
        quad = build_problem(quadratic_spec())
        w = np.random.default_rng(9).standard_normal(3)
        assert np.array_equal(quad.mean_grad(w, data.features, data.labels),
                              quad.a @ (w - data.features.mean(axis=0)))
        logistic = build_problem(logistic_spec())
        data = generate_dataset(logistic_spec(), seed=3, n=40)
        w = np.random.default_rng(9).standard_normal(4)
        sign = 2.0 * data.labels - 1.0
        coef = -sign / (1.0 + np.exp(sign * (data.features @ w)))
        assert np.array_equal(
            logistic.mean_grad(w, data.features, data.labels),
            data.features.T @ coef / 40 + logistic.l2 * w)

    def test_dense_hessian_matches_hvp_columns_for_mlp(self):
        spec = mlp_spec()
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=2, n=6)
        w = np.random.default_rng(8).standard_normal(problem.dim) * 0.4
        h = dense_hessian(problem, w, data.features, data.labels)
        assert h.shape == (problem.dim, problem.dim)
        np.testing.assert_allclose(h, h.T, atol=1e-12)
        v = np.random.default_rng(9).standard_normal(problem.dim)
        np.testing.assert_allclose(h @ v, problem.hvp(w, data.features, data.labels, v),
                                   rtol=1e-8, atol=1e-10)

    def test_dense_hessian_runs_one_forward_pass(self, mlp_forward_calls):
        """All d columns of a d = 75 MLP Hessian share one forward pass."""
        spec = MlpSpec(in_dim=5, hidden=8, classes=3, teacher_seed=1)
        problem = build_problem(spec)
        assert problem.dim == 75
        data = generate_dataset(spec, seed=2, n=80)
        w = np.random.default_rng(4).standard_normal(problem.dim) * 0.5
        dense_hessian(problem, w, data.features, data.labels)
        assert len(mlp_forward_calls) == 1

    def test_quadratic_dense_hessian_is_the_curvature(self):
        """The HVP columns of a quadratic reproduce A bit for bit."""
        spec = quadratic_spec(d=4)
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=2, n=5)
        h = dense_hessian(problem, np.ones(4), data.features, data.labels)
        np.testing.assert_array_equal(h, spec.curvature)

    def test_logistic_exact_hessian_matches_dense(self):
        """The closed form X^T diag(p (1 - p)) X / n + l2 I against the HVP
        columns, one by one and as ``dense_hessian``."""
        spec = logistic_spec()
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=3, n=20)
        w = 0.2 * np.ones(spec.dim)
        x = data.features
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        h = (x.T * (p * (1.0 - p))) @ x / len(p) + spec.l2 * np.eye(spec.dim)
        hvp_cols = np.column_stack([
            problem.hvp(w, data.features, data.labels, e)
            for e in np.eye(spec.dim)
        ])
        np.testing.assert_allclose(h, hvp_cols, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(
            h, dense_hessian(problem, w, data.features, data.labels),
            rtol=1e-12, atol=1e-14)


class TestGradMoments:
    """``grad_moments`` at a stack of states against
    ``gnc_from_grads(per_example_grads(w, ...))`` at each state."""

    CHUNK = problems.GRAD_MOMENT_CHUNK

    @pytest.mark.parametrize("l2", [0.0, 0.05])
    @pytest.mark.parametrize("n, k", [
        (1, 3), (37, 3), (2 * CHUNK, 3), (2 * CHUNK + 1, 3), (37, 1)],
        ids=["n1", "below-chunk", "chunk-multiple", "one-past-multiple", "k1"])
    def test_logistic_matches_the_per_state_moments(self, l2, n, k):
        """Equal to rounding: 1e-12 relative, entry by entry, with the
        absolute floor 1e-12 times the largest per-example second moment for
        entries that cancel (at n = 1 the covariance is exactly 0)."""
        spec = logistic_spec(d=5, l2=l2)
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=3, n=n)
        ws = np.random.default_rng(4).standard_normal((k, 5))
        sigma, mean = problem.grad_moments(ws, data.features, data.labels)
        assert sigma.shape == (k, 5, 5) and mean.shape == (k, 5)
        for s, m, w in zip(sigma, mean, ws):
            grads = problem.per_example_grads(w, data.features, data.labels)
            want_s, want_m = gnc_from_grads(grads)
            scale = float(np.mean(grads * grads, axis=0).max())
            assert np.array_equal(s, s.T)
            np.testing.assert_allclose(s, want_s, rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(m, want_m, rtol=1e-12,
                                       atol=1e-12 * np.sqrt(scale))

    @pytest.mark.parametrize("spec", [quadratic_spec(), mlp_spec()],
                             ids=lambda s: s.family)
    def test_loop_families_keep_the_per_state_bits(self, spec):
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=1, n=12)
        ws = np.random.default_rng(2).standard_normal((4, problem.dim)) * 0.5
        sigma, mean = problem.grad_moments(ws, data.features, data.labels)
        for s, m, w in zip(sigma, mean, ws):
            want_s, want_m = gnc_from_grads(
                problem.per_example_grads(w, data.features, data.labels))
            assert np.array_equal(s, want_s) and np.array_equal(m, want_m)


class TestDatasets:
    def test_generation_is_deterministic(self):
        spec = logistic_spec()
        a = generate_dataset(spec, seed=11, n=50)
        b = generate_dataset(spec, seed=11, n=50)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = generate_dataset(spec, seed=12, n=50)
        assert not np.array_equal(a.features, c.features)

    def test_oracle_stream_disjoint_from_training_stream(self):
        spec = quadratic_spec()
        train = generate_dataset(spec, seed=11, n=100)
        oracle = population_oracle_sample(spec, seed=11)
        assert len(oracle) == spec.pop_oracle_size
        assert not np.array_equal(train.features[:5], oracle.features[:5])

    def test_quadratic_sample_moments(self):
        d = 3
        spec = quadratic_spec(d)
        data = generate_dataset(spec, seed=21, n=200_000)
        np.testing.assert_allclose(data.features.mean(axis=0), spec.center,
                                   atol=4.5 * np.sqrt(np.diag(spec.scatter).max() / 2e5))
        emp_cov = np.cov(data.features.T)
        np.testing.assert_allclose(emp_cov, spec.scatter, atol=0.02)

    def test_logistic_labels_follow_balance(self):
        spec = LogisticSpec(dim=2, mean0=np.zeros(2), mean1=np.ones(2), balance=0.25)
        data = generate_dataset(spec, seed=31, n=100_000)
        assert data.labels.mean() == pytest.approx(0.25, abs=0.01)
        assert set(np.unique(data.labels)) <= {0, 1}

    def test_mlp_labels_depend_on_teacher_seed(self):
        a = generate_dataset(MlpSpec(3, 4, 3, teacher_seed=0), seed=1, n=200)
        b = generate_dataset(MlpSpec(3, 4, 3, teacher_seed=1), seed=1, n=200)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.labels, b.labels)

    def test_subset_views(self):
        spec = quadratic_spec()
        data = generate_dataset(spec, seed=4, n=10)
        sub = data.subset([1, 3, 5])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.features, data.features[[1, 3, 5]])

    def test_size_validation(self):
        with pytest.raises(ConfigError):
            generate_dataset(quadratic_spec(), seed=0, n=0)


class TestSpecs:
    def test_scalar_curvature_broadcasts_to_identity_multiple(self):
        spec = QuadraticSpec(curvature=2.0, center=np.zeros(3), scatter=1.0)
        np.testing.assert_allclose(spec.curvature, 2.0 * np.eye(3))
        np.testing.assert_allclose(spec.scatter, np.eye(3))

    def test_vector_scatter_becomes_diagonal(self):
        spec = QuadraticSpec(curvature=1.0, center=np.zeros(2),
                             scatter=np.array([1.0, 4.0]))
        np.testing.assert_allclose(spec.scatter, np.diag([1.0, 4.0]))

    def test_negative_scatter_rejected(self):
        with pytest.raises(ConfigError):
            QuadraticSpec(curvature=1.0, center=np.zeros(2), scatter=-1.0)

    def test_logistic_balance_range(self):
        with pytest.raises(ConfigError):
            LogisticSpec(dim=2, mean0=np.zeros(2), mean1=np.ones(2), balance=1.0)

    def test_mlp_needs_two_classes(self):
        with pytest.raises(ConfigError):
            MlpSpec(in_dim=3, hidden=4, classes=1)

    def test_population_moments_quadratic_only(self):
        with pytest.raises(CapabilityError):
            quadratic_population_moments(logistic_spec(), np.zeros(4))

    def test_population_moments_formulas(self):
        spec = quadratic_spec()
        w = np.array([1.0, -0.5, 0.25])
        grad, gnc, hess = quadratic_population_moments(spec, w)
        a = spec.curvature
        np.testing.assert_allclose(grad, a @ (w - spec.center))
        np.testing.assert_allclose(gnc, a @ spec.scatter @ a)
        np.testing.assert_allclose(hess, a)

    def test_population_moments_match_large_oracle_sample(self):
        spec = QuadraticSpec(curvature=np.diag([0.5, 1.5]), center=np.zeros(2),
                             scatter=np.diag([1.0, 0.5]), pop_oracle_size=400_000)
        problem = build_problem(spec)
        oracle = population_oracle_sample(spec, seed=13)
        w = np.array([0.4, -0.2])
        grad, gnc, _ = quadratic_population_moments(spec, w)
        sample_grads = problem.per_example_grads(w, oracle.features, oracle.labels)
        np.testing.assert_allclose(sample_grads.mean(axis=0), grad, atol=0.01)
        centered = sample_grads - sample_grads.mean(axis=0)
        np.testing.assert_allclose(centered.T @ centered / len(oracle), gnc, atol=0.02)


class TestAccuracyAndPacking:
    def test_quadratic_has_no_accuracy(self):
        problem = build_problem(quadratic_spec())
        assert not problem.has_accuracy

    def test_logistic_accuracy_on_separated_data(self):
        spec = LogisticSpec(dim=2, mean0=np.array([-3.0, 0.0]),
                            mean1=np.array([3.0, 0.0]), cov=0.1)
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=2, n=500)
        assert problem.accuracy(np.array([1.0, 0.0]), data.features, data.labels) > 0.98
        assert problem.accuracy(np.array([-1.0, 0.0]), data.features, data.labels) < 0.02

    def test_mlp_pack_unpack_roundtrip(self):
        problem = build_problem(mlp_spec())
        w = np.arange(problem.dim, dtype=float)
        np.testing.assert_array_equal(problem.pack(*problem.unpack(w)), w)

    def test_mlp_teacher_init_beats_chance(self):
        """Labels are sampled from the teacher's softmax, so even the teacher
        cannot hit 100%; it should still clear chance (1/3) decisively."""
        spec = MlpSpec(in_dim=3, hidden=4, classes=3, teacher_seed=7,
                       teacher_scale=3.0)
        problem = build_problem(spec)
        data = generate_dataset(spec, seed=3, n=2000)
        w = problem.init_from_teacher()
        assert problem.accuracy(w, data.features, data.labels) > 0.5


def mlp_state(classes):
    """An MLP 5/8/classes at a perturbed teacher state, a 400-point training
    set and a 10,000-point oracle."""
    spec = MlpSpec(in_dim=5, hidden=8, classes=classes, teacher_seed=3,
                   pop_oracle_size=10_000)
    problem = build_problem(spec)
    w = problem.init_from_teacher(2.0) + 0.3 * np.random.default_rng(
        classes).standard_normal(problem.dim)
    return (spec, problem, w, generate_dataset(spec, seed=5, n=400),
            population_oracle_sample(spec, seed=6))


def mlp_outputs(problem, w, train, oracle):
    """Every MLP kernel's output at one state, keyed by what it is."""
    rng = np.random.default_rng(0)
    stack = w + 0.1 * rng.standard_normal((8, problem.dim))
    batch = rng.integers(0, len(train), size=(8, 8))
    hess = problem.hessian_operator(w, train.features, train.labels)
    return {
        "per_example_losses": problem.per_example_losses(
            w, oracle.features, oracle.labels),
        "mean_loss": problem.mean_loss(w, oracle.features, oracle.labels),
        "mean_grad (8, 8) stack": problem.mean_grad(
            stack, train.features[batch], train.labels[batch]),
        "mean_grad (1, 8) stack": problem.mean_grad(
            w[None], train.features[batch[:1]], train.labels[batch[:1]]),
        "mean_grad": problem.mean_grad(w, train.features, train.labels),
        "per_example_grads": problem.per_example_grads(
            w, train.features, train.labels),
        "hessian_operator products": np.array(
            [hess(v) for v in rng.standard_normal((4, problem.dim))]),
        "dense_hessian": dense_hessian(problem, w, train.features, train.labels),
    }


def _frozen_forward(self, w, features):
    w1, b1, w2, b2, _, hid, logits = oracles.mlp_forward(self, w, features)
    return w1, b1, w2, b2, hid, logits


class TestMlpKernels:
    """The MLP's class-axis reductions and in-place forward pass."""

    @pytest.mark.parametrize("classes", [2, 3])
    def test_bit_identical_to_numpy_reductions(self, classes, monkeypatch):
        """Every kernel output equals, bit for bit, what the same code gives
        with the frozen forward pass, softmax and losses of tests/oracles.py
        and numpy's own class-axis reductions put back in."""
        spec, problem, w, train, oracle = mlp_state(classes)
        got = mlp_outputs(problem, w, train, oracle)
        monkeypatch.setattr(problems, "_softmax", oracles.softmax)
        monkeypatch.setattr(problems, "_class_reduce", lambda ufunc, x:
                            ufunc.reduce(x, axis=-1, keepdims=True))
        monkeypatch.setattr(MlpProblem, "_forward", _frozen_forward)
        monkeypatch.setattr(MlpProblem, "per_example_losses",
                            oracles.mlp_per_example_losses)
        want = mlp_outputs(problem, w, train, oracle)
        for key in want:
            assert np.array_equal(got[key], want[key]), key
        features, labels = oracles.mlp_sample(
            spec, substream(6, "population-oracle"), spec.pop_oracle_size)
        assert np.array_equal(oracle.features, features)
        assert np.array_equal(oracle.labels, labels)
        assert len(np.unique(labels)) == classes

    @pytest.mark.parametrize("shape", [(10_000,), (400,), (8, 8), (1, 8), ()])
    def test_class_reduce_matches_numpy(self, shape):
        """The max equals numpy's for every width; the sum equals numpy's for
        widths 2 to 7. From width 8 on, numpy's pairwise sum keeps 8 partial
        sums, so sums there may differ from the left-to-right fold in their
        last bits and are not compared."""
        rng = np.random.default_rng(len(shape))
        for k in range(2, 11):
            x = rng.standard_normal(shape + (k,)) * np.exp(
                3.0 * rng.standard_normal(shape + (k,)))
            assert np.array_equal(_class_reduce(np.maximum, x),
                                  x.max(axis=-1, keepdims=True)), k
            if k < 8:
                assert np.array_equal(_class_reduce(np.add, x),
                                      x.sum(axis=-1, keepdims=True)), k

    def test_methods_leave_their_inputs_unchanged(self):
        _, problem, w, train, _ = mlp_state(3)
        rng = np.random.default_rng(1)
        stack = w + 0.1 * rng.standard_normal((4, problem.dim))
        batch = rng.integers(0, len(train), size=(4, 8))
        v = rng.standard_normal(problem.dim)
        args = (w, train.features, train.labels)
        stacked = (stack, train.features[batch], train.labels[batch])
        calls = [
            (args, problem.per_example_losses),
            (args, problem.mean_loss),
            (args, problem.per_example_grads),
            (args, problem.mean_grad),
            (stacked, problem.mean_grad),
            (args, problem.accuracy),
            (args, lambda *a: problem.hessian_operator(*a)(v)),
            (args + (v,), problem.hvp),
        ]
        for inputs, call in calls:
            before = [a.copy() for a in inputs]
            call(*inputs)
            for a, b in zip(inputs, before):
                assert np.array_equal(a, b), call

    def test_losses_are_fresh_arrays(self):
        _, problem, w, train, _ = mlp_state(3)
        first = problem.per_example_losses(w, train.features, train.labels)
        second = problem.per_example_losses(w, train.features, train.labels)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        for a in (w, train.features, train.labels):
            assert not np.shares_memory(first, a)
