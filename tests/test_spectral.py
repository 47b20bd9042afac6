"""Lanczos and Hutchinson probes against dense eigendecompositions, and the
HVP-based solvers' refusal of non-finite products."""

import numpy as np
import pytest

from gradnoise.bounds import influence_estimate
from gradnoise.dynamics import TrainConfig, train_run
from gradnoise.errors import ConfigError, NumericalError, StabilityError
from gradnoise.linalg import solve_stationary_covariance
from gradnoise.problems import (
    LogisticSpec,
    MlpSpec,
    QuadraticSpec,
    build_problem,
    dense_hessian,
    generate_dataset,
)
from gradnoise.seeding import substream
from gradnoise.spectral import stability_gap, top_eigenvalue
from oracles import hessian_trace, spectral_report


def quadratic_problem(a):
    a = np.asarray(a, dtype=float)
    spec = QuadraticSpec(curvature=a, center=np.zeros(a.shape[0]), scatter=1.0,
                         pop_oracle_size=50)
    problem = build_problem(spec)
    dataset = generate_dataset(spec, seed=0, n=4)
    return problem, dataset


class CountingProblem:
    """Wraps a problem and counts applications of its Hessian operator. From
    product ``nan_from`` on (counting from 1), if given, every product is
    NaN; everything else delegates to the problem."""

    def __init__(self, problem, nan_from=None):
        self.problem = problem
        self.nan_from = nan_from
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def hessian_operator(self, w, features, labels):
        hess = self.problem.hessian_operator(w, features, labels)

        def counted(v):
            self.calls += 1
            hv = hess(v)
            if self.nan_from is not None and self.calls >= self.nan_from:
                return hv * np.nan
            return hv

        return counted


def mlp_state():
    """A d = 75 MLP problem, its dataset and a random weight vector."""
    spec = MlpSpec(in_dim=5, hidden=8, classes=3, teacher_seed=1)
    problem = build_problem(spec)
    dataset = generate_dataset(spec, seed=2, n=80)
    w = np.random.default_rng(4).standard_normal(problem.dim) * 0.5
    return problem, dataset, w


@pytest.fixture(scope="module")
def mlp_trajectory():
    """A 1000-step MLP train run (d = 75, log_every 20) with lambda1 and
    weights logged: (problem, config, record)."""
    spec = MlpSpec(in_dim=5, hidden=8, classes=3, teacher_seed=1)
    problem = build_problem(spec)
    config = TrainConfig(spec=spec, n=400, b=8, lr_schedule=((1, 0.5),),
                         steps=1000, log_every=20, seed=3,
                         w0=problem.init_from_teacher(0.5),
                         log_lambda1=True, record_weights=True)
    return problem, config, train_run(config)


class TestTopEigenvalue:
    def test_diagonal_hessian(self):
        problem, dataset = quadratic_problem(np.diag([1.0, 2.0, 3.0]))
        report = top_eigenvalue(problem, np.zeros(3), dataset)
        assert report.converged
        assert report.lambda_1 == pytest.approx(3.0, rel=1e-6)

    def test_coupled_two_by_two(self):
        problem, dataset = quadratic_problem(np.array([[2.0, 1.0], [1.0, 2.0]]))
        report = top_eigenvalue(problem, np.zeros(2), dataset)
        assert report.lambda_1 == pytest.approx(3.0, rel=1e-6)
        # The eigenvector of 3 is (1, 1)/sqrt(2) up to sign.
        assert abs(report.vector @ (np.ones(2) / np.sqrt(2.0))) == pytest.approx(
            1.0, abs=1e-5
        )

    def test_identity_converges_immediately(self):
        """Every start vector is an eigenvector of I, so the Krylov space is
        invariant after one product and Lanczos stops within a few."""
        problem, dataset = quadratic_problem(np.eye(2))
        report = top_eigenvalue(problem, np.zeros(2), dataset)
        assert report.converged
        assert report.iterations_used <= 3
        assert report.lambda_1 == pytest.approx(1.0)

    def test_iterations_used_counts_hessian_vector_products(self):
        problem, dataset, w = mlp_state()
        counted = CountingProblem(problem)
        report = top_eigenvalue(counted, w, dataset)
        assert report.iterations_used == counted.calls > 1

    def test_one_forward_pass_per_call(self, mlp_forward_calls):
        """All of a call's Hessian-vector products share one forward pass."""
        problem, dataset, w = mlp_state()
        assert problem.dim == 75
        report = top_eigenvalue(problem, w, dataset)
        assert report.iterations_used > 1
        assert len(mlp_forward_calls) == 1

    def test_matches_dense_hessian_for_mlp(self):
        """At d = 75 the signed largest-magnitude eigenvalue agrees with the
        dense solver to 1e-12 relative at the default tolerance."""
        problem, dataset, w = mlp_state()
        assert problem.dim >= 50
        h = dense_hessian(problem, w, dataset.features, dataset.labels)
        vals = np.linalg.eigvalsh(h)
        report = top_eigenvalue(problem, w, dataset)
        assert report.converged
        assert report.lambda_1 == pytest.approx(vals[np.argmax(np.abs(vals))],
                                                rel=1e-12)

    def test_matches_dense_hessian_along_an_mlp_trajectory(self, mlp_trajectory):
        """Every logged state of a 1000-step MLP train run (d = 75,
        log_every 20): lambda1 agrees with the dense solver to the same
        1e-12 relative as the single state above."""
        problem, config, record = mlp_trajectory
        assert problem.dim == 75
        assert not record.diverged
        assert len(record.weights) == len(record.lambda1) == 51
        features, labels = record.dataset.features, record.dataset.labels
        for w, lambda1 in zip(record.weights, record.lambda1):
            vals = np.linalg.eigvalsh(dense_hessian(problem, w, features, labels))
            assert lambda1 == pytest.approx(vals[np.argmax(np.abs(vals))],
                                            rel=1e-12)

    def test_warm_start_along_an_mlp_trajectory(self, mlp_trajectory):
        """On the states above, a chain of calls each started from the
        previous state's eigenvector reproduces the run's lambda1 bit for
        bit, agrees with cold calls to 1e-12 and takes fewer products."""
        problem, config, record = mlp_trajectory
        start, warm, cold = None, [], []
        for t, w in zip(record.steps, record.weights):
            labels = ("spectral", int(t))
            report = top_eigenvalue(problem, w, record.dataset, seed=config.seed,
                                    seed_labels=labels, start=start)
            start = report.vector
            warm.append(report)
            cold.append(top_eigenvalue(problem, w, record.dataset,
                                       seed=config.seed, seed_labels=labels))
        assert all(r.converged for r in warm + cold)
        np.testing.assert_array_equal([r.lambda_1 for r in warm], record.lambda1)
        np.testing.assert_allclose([r.lambda_1 for r in warm],
                                   [r.lambda_1 for r in cold], rtol=1e-12)
        assert (sum(r.iterations_used for r in warm)
                < sum(r.iterations_used for r in cold))

    def test_one_dimensional_hessian_takes_one_product(self):
        problem, dataset = quadratic_problem(np.array([[2.5]]))
        counted = CountingProblem(problem)
        report = top_eigenvalue(counted, np.zeros(1), dataset)
        assert report.converged
        assert report.lambda_1 == pytest.approx(2.5, rel=1e-15)
        assert report.iterations_used == counted.calls == 1

    def test_unconverged_reports_start_rayleigh_quotient(self):
        """A clustered spectrum does not converge in one Lanczos pass; the
        report is then the finite Rayleigh quotient of the start vector."""
        vals = np.linspace(0.9, 1.0, 60)
        problem, dataset = quadratic_problem(np.diag(vals))
        report = top_eigenvalue(problem, np.zeros(60), dataset, max_iter=1)
        assert not report.converged
        v0 = substream(0, "spectral").standard_normal(60)
        v0 /= np.linalg.norm(v0)
        assert np.isfinite(report.lambda_1)
        assert report.lambda_1 == pytest.approx(v0 @ (vals * v0), rel=1e-12)
        np.testing.assert_array_equal(report.vector, v0)

    def test_unconverged_reports_rayleigh_quotient_of_a_given_start(self):
        vals = np.linspace(0.9, 1.0, 60)
        problem, dataset = quadratic_problem(np.diag(vals))
        start = np.linspace(-1.0, 2.0, 60)
        report = top_eigenvalue(problem, np.zeros(60), dataset, max_iter=1,
                                start=start)
        assert not report.converged
        unit = start / np.linalg.norm(start)
        assert report.lambda_1 == pytest.approx(unit @ (vals * unit), rel=1e-12)
        np.testing.assert_array_equal(report.vector, unit)

    @pytest.mark.parametrize("vals", [
        [1.0, 2.0, 3.0], [1.0] + [0.1] * 28 + [3.0], [3.0, 1.0, 2.0],
    ], ids=["diag-1-2-3", "fresh-block-below-1", "start-is-top"])
    def test_breakdown_is_not_convergence(self, vals):
        """Started at e1, an eigenvector, the first product spans an
        invariant subspace; the search goes on from a fresh vector and
        reports the top eigenpair. In the second case the fresh vector's
        Rayleigh quotient (~0.2) sits below the exact eigenvalue 1 already
        found, so the fresh block's own Ritz pair must decide convergence;
        in the third the exact eigenvalue 3 at e1 is the top one."""
        vals = np.array(vals)
        problem, dataset = quadratic_problem(np.diag(vals))
        start = np.zeros(len(vals))
        start[0] = 1.0
        report = top_eigenvalue(problem, np.zeros(len(vals)), dataset,
                                start=start)
        top = np.argmax(vals)
        assert report.converged
        assert report.lambda_1 == pytest.approx(vals[top], rel=1e-12)
        assert abs(report.vector[top]) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("start", [
        np.ones(2), np.ones((3, 1)), np.zeros(3), np.array([1.0, np.nan, 0.0]),
        np.array([1.0, np.inf, 0.0]),
    ], ids=["short", "column", "zero", "nan", "inf"])
    def test_start_validation(self, start):
        problem, dataset = quadratic_problem(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(ConfigError):
            top_eigenvalue(problem, np.zeros(3), dataset, start=start)

    def test_negative_dominant_eigenvalue_keeps_sign(self):
        """Curvature diag(-5, 1): the largest-magnitude eigenvalue is -5, and
        it is reported with its sign."""
        problem, dataset = quadratic_problem(np.diag([-5.0, 1.0]))
        report = top_eigenvalue(problem, np.zeros(2), dataset)
        assert report.lambda_1 == pytest.approx(-5.0, rel=1e-6)

    def test_zero_hessian(self):
        spec = QuadraticSpec(curvature=np.zeros((2, 2)), center=np.zeros(2),
                             scatter=1.0, pop_oracle_size=50)
        problem = build_problem(spec)
        dataset = generate_dataset(spec, seed=0, n=4)
        counted = CountingProblem(problem)
        report = top_eigenvalue(counted, np.zeros(2), dataset)
        assert report.converged
        assert report.lambda_1 == 0.0
        assert report.iterations_used == counted.calls >= 1

    def test_matches_dense_solver_on_random_spd(self):
        rng = np.random.default_rng(31)
        for trial in range(3):
            d = 8
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            vals = np.sort(rng.uniform(0.1, 1.0, size=d))
            vals[-1] = 2.0  # enforce a healthy spectral gap
            a = (q * vals) @ q.T
            problem, dataset = quadratic_problem(a)
            report = top_eigenvalue(problem, np.zeros(d), dataset, tol=1e-9)
            assert report.lambda_1 == pytest.approx(
                np.linalg.eigvalsh(a)[-1], rel=1e-8
            )

    def test_matches_dense_hessian_for_logistic(self):
        spec = LogisticSpec(dim=6, mean0=-0.3 * np.ones(6),
                            mean1=0.3 * np.ones(6), l2=0.01, pop_oracle_size=50)
        problem = build_problem(spec)
        dataset = generate_dataset(spec, seed=5, n=60)
        w = 0.1 * np.ones(6)
        h = dense_hessian(problem, w, dataset.features, dataset.labels)
        report = top_eigenvalue(problem, w, dataset, tol=1e-9, max_iter=3000)
        assert report.lambda_1 == pytest.approx(np.linalg.eigvalsh(h)[-1],
                                                rel=1e-6)

    def test_max_iter_validation(self):
        problem, dataset = quadratic_problem(np.eye(2))
        with pytest.raises(ConfigError):
            top_eigenvalue(problem, np.zeros(2), dataset, max_iter=0)


class TestNonFiniteProducts:
    @pytest.mark.parametrize("nan_from", [1, 5])
    def test_top_eigenvalue_raises(self, nan_from):
        problem, dataset, w = mlp_state()
        poisoned = CountingProblem(problem, nan_from)
        with pytest.raises(NumericalError):
            top_eigenvalue(poisoned, w, dataset)
        assert poisoned.calls == nan_from

    @pytest.mark.parametrize("nan_from", [1, 2])
    def test_influence_estimate_raises(self, nan_from):
        problem, dataset = quadratic_problem(np.diag([0.5, 1.0, 2.0]))
        w_star = dataset.features.mean(axis=0)
        poisoned = CountingProblem(problem, nan_from)
        with pytest.raises(NumericalError):
            influence_estimate(poisoned, w_star, dataset, index=0)
        assert poisoned.calls == nan_from


class TestHessianTrace:
    def test_exact_for_diagonal_hessian(self):
        """Rademacher probes satisfy z_i^2 = 1, so a diagonal Hessian gives
        the exact trace from a single probe onward."""
        problem, dataset = quadratic_problem(np.diag([1.0, 2.0, 3.5]))
        estimate = hessian_trace(problem, np.zeros(3), dataset, n_probes=3)
        assert estimate == pytest.approx(6.5, rel=1e-12)

    def test_unbiased_on_nondiagonal_mlp_hessian(self):
        spec = MlpSpec(in_dim=3, hidden=4, classes=3, teacher_seed=1)
        problem = build_problem(spec)
        dataset = generate_dataset(spec, seed=2, n=30)
        w = np.random.default_rng(4).standard_normal(problem.dim) * 0.3
        h = dense_hessian(problem, w, dataset.features, dataset.labels)
        exact = np.trace(h)
        estimate = hessian_trace(problem, w, dataset, n_probes=4096)
        off = h - np.diag(np.diag(h))
        sigma = np.sqrt(2.0 * np.sum(off * off) / 4096)
        assert abs(estimate - exact) < max(5 * sigma, 1e-9)

    def test_probe_count_validated(self):
        problem, dataset = quadratic_problem(np.eye(2))
        with pytest.raises(ConfigError):
            hessian_trace(problem, np.zeros(2), dataset, n_probes=0)


class TestStabilityGap:
    def test_arithmetic(self):
        assert stability_gap(3.0, 0.1) == pytest.approx(17.0)
        assert stability_gap(20.0, 0.1) == pytest.approx(0.0)
        assert stability_gap(3.0, 1.0) == pytest.approx(-1.0)

    def test_eta_must_be_positive(self):
        with pytest.raises(ConfigError):
            stability_gap(1.0, 0.0)

    def test_gap_sign_predicts_stationary_solvability(self):
        """Positive gap: the commuting closed form succeeds. Negative gap:
        the solver refuses with a StabilityError."""
        h = np.diag([0.5, 1.5])
        c = np.eye(2)
        lam1 = 1.5
        eta_ok = 0.5
        assert stability_gap(lam1, eta_ok) > 0
        solve_stationary_covariance(h, c, eta_ok, mode="commuting")
        eta_bad = 1.5
        assert stability_gap(lam1, eta_bad) < 0
        with pytest.raises(StabilityError):
            solve_stationary_covariance(h, c, eta_bad, mode="commuting")


class TestSpectralReport:
    def test_assembles_all_fields(self):
        problem, dataset = quadratic_problem(np.diag([0.5, 2.0]))
        report = spectral_report(problem, np.zeros(2), dataset, eta=0.1)
        assert report.lambda_1 == pytest.approx(2.0, rel=1e-6)
        assert report.trace_estimate == pytest.approx(2.5, rel=1e-10)
        assert report.gap == pytest.approx(20.0 - 2.0, rel=1e-6)
        assert report.converged

    def test_gap_omitted_without_eta(self):
        problem, dataset = quadratic_problem(np.eye(2))
        report = spectral_report(problem, np.zeros(2), dataset)
        assert report.gap is None
