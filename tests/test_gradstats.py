"""Gradient-noise covariance tests, built around exhaustive enumeration.

The key oracles: covariance of every size-b batch mean enumerated with
itertools.combinations, and the leave-one-out averaging identities checked by
summing over all n subsets explicitly.
"""

import itertools

import numpy as np
import pytest

from gradnoise.errors import ConfigError
from gradnoise.gradstats import empirical_gnc, minibatch_factor, minibatch_gnc
from gradnoise.problems import QuadraticSpec, build_problem, generate_dataset
from oracles import GradSnapshot, loo_quantities, snapshot


def make_problem(d=3, n=8, seed=0, scatter=None):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d))
    spec = QuadraticSpec(curvature=m @ m.T / d + 0.3 * np.eye(d),
                         center=rng.standard_normal(d),
                         scatter=np.eye(d) if scatter is None else scatter)
    problem = build_problem(spec)
    dataset = generate_dataset(spec, seed=seed + 100, n=n)
    return problem, dataset


class TestBatchCovariance:
    def test_enumerated_batch_means_match_factor(self):
        """Exhaustive oracle: covariance over all C(n, b) equally likely batch
        means equals ((n-b)/(b(n-1))) Sigma, to near machine precision."""
        problem, dataset = make_problem(d=3, n=8)
        w = np.array([0.7, -0.3, 0.1])
        grads = problem.per_example_grads(w, dataset.features, dataset.labels)
        mean = grads.mean(axis=0)
        sigma = empirical_gnc(problem, w, dataset)
        for b in (1, 2, 4):
            batch_means = np.array([
                grads[list(batch)].mean(axis=0)
                for batch in itertools.combinations(range(8), b)
            ])
            centered = batch_means - mean
            enumerated = centered.T @ centered / batch_means.shape[0]
            np.testing.assert_allclose(enumerated, minibatch_gnc(sigma, 8, b),
                                       atol=1e-12)

    def test_full_batch_covariance_is_zero(self):
        problem, dataset = make_problem(n=6)
        sigma = empirical_gnc(problem, np.zeros(3), dataset)
        np.testing.assert_allclose(minibatch_gnc(sigma, 6, 6), np.zeros((3, 3)),
                                   atol=0.0)

    def test_factor_edge_values(self):
        assert minibatch_factor(8, 1) == pytest.approx(1.0)
        assert minibatch_factor(8, 8) == 0.0
        assert minibatch_factor(5, 2) == pytest.approx(3.0 / 8.0)
        with pytest.raises(ConfigError):
            minibatch_factor(1, 1)
        with pytest.raises(ConfigError):
            minibatch_factor(8, 9)
        with pytest.raises(ConfigError):
            minibatch_factor(8, 0)

    def test_single_draw_gnc_is_biased_sample_covariance(self):
        """Sigma divides by n, so it is ((n-1)/n) times the ddof=1 covariance."""
        problem, dataset = make_problem(d=2, n=7)
        w = np.array([0.1, 0.2])
        grads = problem.per_example_grads(w, dataset.features, dataset.labels)
        sigma = empirical_gnc(problem, w, dataset)
        np.testing.assert_allclose(sigma, np.cov(grads.T, ddof=1) * 6.0 / 7.0,
                                   rtol=1e-10, atol=1e-12)

    def test_identical_gradients_give_exact_zero(self):
        spec = QuadraticSpec(curvature=1.0, center=np.zeros(2),
                             scatter=np.zeros((2, 2)))
        problem = build_problem(spec)
        dataset = generate_dataset(spec, seed=0, n=5)
        sigma = empirical_gnc(problem, np.ones(2), dataset)
        assert np.all(sigma == 0.0)


class TestLeaveOneOut:
    """Averaging identities over all n leave-one-out subsets, with C = Sigma/b."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_xi_second_moment_identity(self, n):
        problem, dataset = make_problem(d=3, n=n, seed=n)
        w = np.array([0.2, -0.4, 0.6])
        b = 2
        sigma = empirical_gnc(problem, w, dataset)
        c = sigma / b
        total = np.zeros((3, 3))
        for drop in range(n):
            subset = [i for i in range(n) if i != drop]
            xi = loo_quantities(problem, w, dataset, subset, b).xi
            total += np.outer(xi, xi)
        np.testing.assert_allclose(total / n, (b / (n - 1) ** 2) * c, atol=1e-10)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_subset_covariance_identity(self, n):
        problem, dataset = make_problem(d=3, n=n, seed=n + 50)
        w = np.array([-0.1, 0.3, 0.5])
        b = 2
        c = empirical_gnc(problem, w, dataset) / b
        total = np.zeros((3, 3))
        for drop in range(n):
            subset = [i for i in range(n) if i != drop]
            total += loo_quantities(problem, w, dataset, subset, b).loo_gnc
        expected = (n * (n - 2) / (n - 1) ** 2) * c
        np.testing.assert_allclose(total / n, expected, atol=1e-10)

    def test_xi_vanishes_for_full_subset(self):
        problem, dataset = make_problem(d=2, n=5)
        q = loo_quantities(problem, np.zeros(2), dataset, range(5), b=2)
        np.testing.assert_allclose(q.xi, np.zeros(2), atol=1e-14)

    def test_subset_validation(self):
        problem, dataset = make_problem(d=2, n=5)
        with pytest.raises(ConfigError):
            loo_quantities(problem, np.zeros(2), dataset, [0, 1], b=2)
        with pytest.raises(ConfigError):
            loo_quantities(problem, np.zeros(2), dataset, [0, 0, 1], b=1)
        with pytest.raises(ConfigError):
            loo_quantities(problem, np.zeros(2), dataset, range(6), b=1)

    def test_subset_is_sorted_in_output(self):
        problem, dataset = make_problem(d=2, n=5)
        q = loo_quantities(problem, np.zeros(2), dataset, [4, 0, 2], b=1)
        np.testing.assert_array_equal(q.subset, [0, 2, 4])


class TestSnapshot:
    def test_fields_are_consistent(self):
        problem, dataset = make_problem(d=3, n=9)
        w = np.array([0.5, 0.5, -0.5])
        snap = snapshot(problem, w, dataset, b=3, step=7)
        assert isinstance(snap, GradSnapshot)
        assert snap.step == 7
        np.testing.assert_allclose(
            snap.full_grad, problem.mean_grad(w, dataset.features, dataset.labels))
        assert snap.grad_norm_sq == pytest.approx(snap.full_grad @ snap.full_grad)
        np.testing.assert_allclose(
            snap.minibatch_gnc, minibatch_gnc(snap.single_draw_gnc, 9, 3)
        )
        assert snap.trace_c == pytest.approx(np.trace(snap.minibatch_gnc))
        assert snap.pop_gnc is None

    def test_population_column_uses_oracle_sample(self):
        problem, dataset = make_problem(d=2, n=6)
        snap = snapshot(problem, np.zeros(2), dataset, b=2, oracle_sample=dataset)
        np.testing.assert_allclose(snap.pop_gnc, snap.single_draw_gnc, atol=1e-14)
