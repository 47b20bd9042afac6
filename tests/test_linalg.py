"""Tests for the SPD/Gaussian/stationary-covariance toolbox.

Oracles used here are independent of the implementation: a permutation-sum
determinant, Monte Carlo KL via scipy's multivariate normal, a discrete
Lyapunov solver from scipy, and a literal AR(1) simulation.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from gradnoise.errors import (
    ConfigError,
    DomainError,
    InvalidInputError,
    StabilityError,
)
from gradnoise.linalg import (
    DEFAULT_FLOOR_ABS,
    STATIONARY_MODES,
    SpdMatrix,
    log_det,
    solve_stationary_covariance,
    spd_sqrt,
    stationary_residual,
    symmetrize,
    trace_log_diag,
)
from oracles import GaussianDist, gaussian_kl, inv_quad


def random_spd(rng, d, scale=1.0, min_eig=0.05):
    """SPD matrix with eigenvalues in [min_eig, min_eig + scale]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    vals = min_eig + scale * rng.random(d)
    return (q * vals) @ q.T


def permutation_det(m):
    """Leibniz determinant: sum over permutations with explicit parity."""
    d = m.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(d)):
        inversions = sum(
            1
            for i in range(d)
            for j in range(i + 1, d)
            if perm[i] > perm[j]
        )
        sign = -1.0 if inversions % 2 else 1.0
        total += sign * np.prod(m[range(d), perm])
    return total


class TestSymmetrize:
    def test_average_of_transpose(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_allclose(symmetrize(m), [[1.0, 1.0], [1.0, 3.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            symmetrize(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            symmetrize(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestSpdMatrix:
    def test_reconstruction_matches_input_when_already_spd(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 5)
        spd = SpdMatrix.from_matrix(m)
        assert not spd.floored
        np.testing.assert_allclose(spd.matrix, m, atol=1e-12)
        np.testing.assert_allclose(np.sum(spd.eigenvalues), np.trace(m), rtol=1e-12)

    def test_flooring_lifts_small_eigenvalues(self):
        m = np.diag([1.0, 1e-15])
        spd = SpdMatrix.from_matrix(m)
        assert spd.floored
        expected_floor = 1e-8 * np.trace(m) / 2.0
        assert spd.floor == pytest.approx(expected_floor)
        assert spd.eigenvalues.min() == pytest.approx(expected_floor)

    def test_absolute_floor_takes_over_for_zero_matrix(self):
        spd = SpdMatrix.from_matrix(np.zeros((3, 3)))
        assert spd.floored
        assert spd.floor == DEFAULT_FLOOR_ABS
        np.testing.assert_allclose(spd.matrix, DEFAULT_FLOOR_ABS * np.eye(3))

    def test_inverse_helpers_agree_with_numpy_solve(self):
        rng = np.random.default_rng(7)
        m = random_spd(rng, 6)
        spd = SpdMatrix.from_matrix(m)
        x = rng.standard_normal(6)
        other = random_spd(rng, 6)
        np.testing.assert_allclose(inv_quad(spd, x), x @ np.linalg.solve(m, x),
                                   rtol=1e-10)
        np.testing.assert_allclose(spd.inv_trace_product(other),
                                   np.trace(np.linalg.solve(m, other)),
                                   rtol=1e-10)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(11)
        m = random_spd(rng, 4)
        root = spd_sqrt(SpdMatrix.from_matrix(m))
        np.testing.assert_allclose(root @ root, m, rtol=1e-10, atol=1e-12)

    def test_lazy_matrix_equals_eager_reconstruction(self):
        """``matrix`` is derived on first access from the floored eigenpairs
        and must equal the reconstruction formerly built in ``from_matrix``."""
        rng = np.random.default_rng(13)
        g = rng.standard_normal((3, 7))
        m = g.T @ g  # rank 3 of 7: the floor lifts four eigenvalues
        spd = SpdMatrix.from_matrix(m)
        assert spd.floored
        assert spd.dim == 7
        assert "matrix" not in vars(spd)
        sym = symmetrize(m)
        vals, vecs = np.linalg.eigh(sym)
        vals = np.maximum(vals, 1e-8 * (np.trace(sym) / 7))
        eager = symmetrize((vecs * vals) @ vecs.T)
        assert np.array_equal(spd.matrix, eager)
        assert spd.matrix is spd.matrix  # cached, not rebuilt

    @pytest.mark.parametrize("scale", [1.0, 10.0, 1e4])
    @pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "zero"])
    def test_refloored_equals_a_fresh_decomposition_bit_for_bit(
            self, monkeypatch, kind, scale):
        """``refloored(s)`` reuses the eigenpairs, yet every derived field is
        the one a new decomposition floored at ``s`` times the floors gives."""
        rng = np.random.default_rng(29)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        g = rng.standard_normal((2, 5))
        m = {"full-rank": (q * [2.0, 1.0, 0.5, 3e-8, 1e-6]) @ q.T,
             "rank-deficient": g.T @ g,
             "zero": np.zeros((5, 5))}[kind]
        spd = SpdMatrix.from_matrix(m)
        fresh = SpdMatrix.from_matrix(m, scale)

        def no_eigh(*args, **kwargs):
            raise AssertionError("refloored ran an eigendecomposition")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        view = spd.refloored(scale)
        assert view.floor == fresh.floor
        assert view.floored == fresh.floored
        assert np.array_equal(view.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(view.matrix, fresh.matrix)

    def test_sqrt_reads_only_the_eigenpairs(self):
        rng = np.random.default_rng(17)
        spd = SpdMatrix.from_matrix(random_spd(rng, 5))
        spd_sqrt(spd)
        log_det(spd)
        assert "matrix" not in vars(spd)


def _mixed_stack(rng, shape=(3, 4), d=5):
    """A stack of asymmetric inputs whose symmetric parts are full rank,
    rank 2, zero and tiny in turn: some floor at the relative floor, some at
    the absolute one, some not at all."""
    mats = np.empty(shape + (d, d))
    for i, idx in enumerate(np.ndindex(shape)):
        g = rng.standard_normal((2, d))
        m = [random_spd(rng, d), g.T @ g, np.zeros((d, d)),
             1e-14 * random_spd(rng, d)][i % 4]
        mats[idx] = m + np.triu(rng.standard_normal((d, d)), 1) * (i % 2)
    return mats


class TestStackedSpdMatrix:
    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_stack_equals_each_matrix_alone_bit_for_bit(self, scale):
        """``from_matrix`` of a (K, R, d, d) stack holds, at every (k, r),
        exactly what ``from_matrix`` of that matrix alone holds."""
        mats = _mixed_stack(np.random.default_rng(37))
        stack = SpdMatrix.from_matrix(mats, scale)
        assert stack.dim == 5
        ld, tld = log_det(stack), trace_log_diag(stack)
        assert ld.shape == tld.shape == (3, 4)
        flags = []
        for idx in np.ndindex(3, 4):
            one = SpdMatrix.from_matrix(mats[idx], scale)
            for field in ("raw_eigenvalues", "eigenvectors", "eigenvalues",
                          "matrix"):
                assert np.array_equal(getattr(stack, field)[idx],
                                      getattr(one, field)), field
            assert stack.floor[idx] == one.floor
            assert ld[idx] == log_det(one)
            assert tld[idx] == trace_log_diag(one)
            flags.append(one.floored)
        assert stack.floored == any(flags)
        assert any(flags) and not all(flags)

    def test_floored_is_any_matrix_of_the_stack(self):
        rng = np.random.default_rng(41)
        full = np.stack([random_spd(rng, 3) for _ in range(4)])
        assert not SpdMatrix.from_matrix(full).floored
        full[2] = np.diag([1.0, 1.0, 0.0])
        assert SpdMatrix.from_matrix(full).floored

    def test_single_matrix_reductions_stay_python_floats(self):
        spd = SpdMatrix.from_matrix(np.diag([0.5, 2.0]))
        assert type(log_det(spd)) is float
        assert type(trace_log_diag(spd)) is float
        assert type(spd.floor) is float


class TestLogDet:
    def test_matches_permutation_expansion_d4(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            m = random_spd(rng, 4)
            spd = SpdMatrix.from_matrix(m)
            np.testing.assert_allclose(np.exp(log_det(spd)),
                                       permutation_det(m), rtol=1e-9)

    def test_diagonal_case_equals_trace_log_diag(self):
        m = np.diag([0.5, 2.0, 3.0])
        spd = SpdMatrix.from_matrix(m)
        assert log_det(spd) == pytest.approx(trace_log_diag(spd), rel=1e-12)
        assert log_det(spd) == pytest.approx(np.log(0.5) + np.log(2.0) + np.log(3.0))

    def test_trace_log_diag_can_exceed_log_det(self):
        # Hadamard's inequality: det <= prod(diag) for SPD matrices.
        m = np.array([[1.0, 0.9], [0.9, 1.0]])
        spd = SpdMatrix.from_matrix(m)
        assert trace_log_diag(spd) > log_det(spd)

    def test_trace_log_diag_rejects_nonpositive_diagonal(self):
        with pytest.raises(DomainError):
            trace_log_diag(np.diag([1.0, -2.0]))


class TestGaussianKl:
    def test_identical_distributions_give_exact_zero(self):
        cov = SpdMatrix.from_matrix(np.diag([1.0, 2.0]))
        p = GaussianDist(np.array([0.3, -0.7]), cov)
        assert gaussian_kl(p, p) == 0.0

    def test_scalar_closed_form(self):
        # KL(N(0,1) || N(1,2)) = (log 2 - 1 + 1/2 + 1/2) / 2 = (log 2) / 2.
        p = GaussianDist(np.zeros(1), SpdMatrix.from_matrix(np.eye(1)))
        q = GaussianDist(np.ones(1), SpdMatrix.from_matrix(2.0 * np.eye(1)))
        assert gaussian_kl(p, q) == pytest.approx(0.5 * np.log(2.0), rel=1e-12)

    def test_monte_carlo_oracle(self):
        """Average of log p(z) - log q(z) over z ~ p estimates the KL."""
        rng = np.random.default_rng(5)
        for d in (1, 3):
            mu_p = rng.standard_normal(d)
            mu_q = rng.standard_normal(d)
            cov_p = random_spd(rng, d, min_eig=0.3)
            cov_q = random_spd(rng, d, min_eig=0.3)
            p = GaussianDist(mu_p, SpdMatrix.from_matrix(cov_p))
            q = GaussianDist(mu_q, SpdMatrix.from_matrix(cov_q))
            z = rng.multivariate_normal(mu_p, cov_p, size=200_000)
            log_ratio = (
                scipy.stats.multivariate_normal.logpdf(z, mu_p, cov_p)
                - scipy.stats.multivariate_normal.logpdf(z, mu_q, cov_q)
            )
            estimate = log_ratio.mean()
            sigma = log_ratio.std(ddof=1) / np.sqrt(z.shape[0])
            assert abs(gaussian_kl(p, q) - estimate) < max(5 * sigma, 1e-3)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        p = GaussianDist(rng.standard_normal(d),
                         SpdMatrix.from_matrix(random_spd(rng, d, min_eig=0.2)))
        q = GaussianDist(rng.standard_normal(d),
                         SpdMatrix.from_matrix(random_spd(rng, d, min_eig=0.2)))
        assert gaussian_kl(p, q) >= 0.0

    def test_dimension_mismatch_rejected(self):
        p = GaussianDist(np.zeros(1), SpdMatrix.from_matrix(np.eye(1)))
        q = GaussianDist(np.zeros(2), SpdMatrix.from_matrix(np.eye(2)))
        with pytest.raises(InvalidInputError):
            gaussian_kl(p, q)


class TestStationaryCovariance:
    """The equation solved is Lambda H + H Lambda - eta H Lambda H = eta C."""

    def test_scalar_closed_form(self):
        # h = c = 1, eta = 0.1: lambda (2 - 0.1) = 0.1.
        lam = solve_stationary_covariance(np.eye(1), np.eye(1), 0.1)
        assert lam[0, 0] == pytest.approx(0.1 / 1.9, rel=1e-12)

    def test_general_matches_discrete_lyapunov(self):
        """One SGD step has transition I - eta H and noise covariance eta^2 C,
        so the stationary covariance solves the standard discrete Lyapunov
        equation Lambda = (I - eta H) Lambda (I - eta H)^T + eta^2 C."""
        rng = np.random.default_rng(13)
        for _ in range(4):
            h = random_spd(rng, 5, scale=1.5, min_eig=0.2)
            c = random_spd(rng, 5)
            eta = 0.15
            lam = solve_stationary_covariance(h, c, eta, mode="general")
            expected = scipy.linalg.solve_discrete_lyapunov(
                np.eye(5) - eta * h, eta * eta * c
            )
            np.testing.assert_allclose(lam, expected, rtol=1e-8, atol=1e-12)
            assert stationary_residual(lam, h, c, eta) < 1e-9

    def test_commuting_mode_agrees_with_general(self):
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        h = (q * np.array([0.3, 0.7, 1.1, 1.9])) @ q.T
        c = (q * np.array([0.5, 0.2, 0.9, 0.4])) @ q.T
        eta = 0.2
        lam_fast = solve_stationary_covariance(h, c, eta, mode="commuting")
        lam_gen = solve_stationary_covariance(h, c, eta, mode="general")
        np.testing.assert_allclose(lam_fast, lam_gen, rtol=1e-9, atol=1e-12)

    def test_hessian_matches_gnc_mode(self):
        rng = np.random.default_rng(19)
        h = random_spd(rng, 4, scale=1.0, min_eig=0.2)
        eta = 0.3
        lam = solve_stationary_covariance(h, None, eta, mode="hessian-matches-gnc")
        lam_gen = solve_stationary_covariance(h, h, eta, mode="general")
        np.testing.assert_allclose(lam, lam_gen, rtol=1e-9, atol=1e-12)
        # c is documented as ignored in this mode.
        lam_other = solve_stationary_covariance(
            h, np.eye(4), eta, mode="hessian-matches-gnc"
        )
        np.testing.assert_allclose(lam, lam_other, rtol=1e-15)

    def test_small_lr_mode_is_isotropic(self):
        h = np.diag([0.5, 1.0])
        lam = solve_stationary_covariance(h, None, 0.08, mode="small-lr", b=4)
        np.testing.assert_allclose(lam, (0.08 / 8.0) * np.eye(2))

    def test_ar1_simulation_oracle(self):
        """Literal AR(1) chain x <- (1 - eta h) x + eta sqrt(c) xi."""
        h, c, eta = 0.8, 0.6, 0.1
        lam = solve_stationary_covariance(h * np.eye(1), c * np.eye(1), eta)[0, 0]
        rng = np.random.default_rng(23)
        noise = rng.standard_normal(2_000_000)
        x = scipy.signal.lfilter([eta * np.sqrt(c)], [1.0, -(1.0 - eta * h)], noise)
        measured = x[100_000:].var()
        assert measured == pytest.approx(lam, rel=0.02)

    def test_edge_of_stability_raises(self):
        h = np.diag([0.5, 2.0])
        with pytest.raises(StabilityError) as exc:
            solve_stationary_covariance(h, np.eye(2), eta=1.0)
        assert exc.value.eigenvalue == pytest.approx(2.0)

    def test_nonpositive_curvature_raises_where_required(self):
        h = np.diag([-0.1, 0.5])
        with pytest.raises(StabilityError):
            solve_stationary_covariance(h, np.eye(2), eta=0.1, mode="general")
        with pytest.raises(StabilityError):
            solve_stationary_covariance(h, np.eye(2), eta=0.1, mode="commuting")
        # The closed forms that never invert H alone tolerate zero curvature.
        flat = np.zeros((2, 2))
        lam = solve_stationary_covariance(flat, None, 0.1, mode="small-lr")
        np.testing.assert_allclose(lam, 0.05 * np.eye(2))
        lam = solve_stationary_covariance(flat, None, 0.1, mode="hessian-matches-gnc")
        np.testing.assert_allclose(lam, 0.05 * np.eye(2))

    def test_unknown_mode_and_bad_eta(self):
        with pytest.raises(ConfigError):
            solve_stationary_covariance(np.eye(1), np.eye(1), 0.1, mode="exotic")
        with pytest.raises(ConfigError):
            solve_stationary_covariance(np.eye(1), np.eye(1), 0.0)
        assert "general" in STATIONARY_MODES

    def test_general_matches_discrete_lyapunov_d30(self):
        rng = np.random.default_rng(29)
        h = random_spd(rng, 30, scale=3.0, min_eig=0.1)
        c = random_spd(rng, 30)
        eta = 0.4
        lam = solve_stationary_covariance(h, c, eta, mode="general")
        expected = scipy.linalg.solve_discrete_lyapunov(
            np.eye(30) - eta * h, eta * eta * c
        )
        np.testing.assert_allclose(lam, expected, rtol=1e-8, atol=0.0)

    def test_general_d200_non_commuting(self):
        """A d^2 x d^2 vectorized solve would need 12.8 GB at d = 200."""
        rng = np.random.default_rng(31)
        h = random_spd(rng, 200, scale=4.0, min_eig=0.1)
        c = random_spd(rng, 200, scale=2.0, min_eig=0.01)
        eta = 0.3
        assert np.linalg.norm(h @ c - c @ h) > 1.0
        lam = solve_stationary_covariance(h, c, eta, mode="general")
        bound = 1e-9 * np.linalg.norm(eta * c)
        assert stationary_residual(lam, h, c, eta) <= bound
        np.testing.assert_array_equal(lam, lam.T)
        assert np.linalg.eigvalsh(lam).min() > 0.0

    def test_general_near_edge_of_stability(self):
        rng = np.random.default_rng(37)
        eta = 0.5
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        vals = np.array([0.2, 0.9, 1.5, 2.4, 3.1, (2.0 / eta) * (1.0 - 1e-6)])
        h = (q * vals) @ q.T
        c = random_spd(rng, 6)
        lam = solve_stationary_covariance(h, c, eta, mode="general")
        assert np.all(np.isfinite(lam))
        assert np.linalg.eigvalsh(lam).min() > 0.0
        expected = scipy.linalg.solve_discrete_lyapunov(
            np.eye(6) - eta * h, eta * eta * c
        )
        np.testing.assert_allclose(lam, expected, rtol=1e-4)
        vals[-1] = 2.0 / eta
        with pytest.raises(StabilityError) as exc:
            solve_stationary_covariance((q * vals) @ q.T, c, eta, mode="general")
        assert exc.value.eigenvalue == pytest.approx(2.0 / eta)

    def test_commuting_mode_on_non_commuting_input(self):
        """The closed form is eta [H (2I - eta H)]^{-1} C, symmetrized, even
        when H and C do not commute."""
        rng = np.random.default_rng(41)
        h = random_spd(rng, 8, scale=1.5, min_eig=0.2)
        c = random_spd(rng, 8)
        eta = 0.35
        assert np.linalg.norm(h @ c - c @ h) > 0.1
        lam = solve_stationary_covariance(h, c, eta, mode="commuting")
        expected = symmetrize(
            np.linalg.solve(h @ (2.0 * np.eye(8) - eta * h), eta * c)
        )
        np.testing.assert_allclose(lam, expected, rtol=1e-10)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_general_solution_is_spd_with_zero_residual(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        h = random_spd(rng, d, scale=1.0, min_eig=0.1)
        c = random_spd(rng, d, scale=1.0, min_eig=0.1)
        eta = float(rng.uniform(0.01, 0.5))
        lam = solve_stationary_covariance(h, c, eta)
        assert stationary_residual(lam, h, c, eta) < 1e-9
        assert np.linalg.eigvalsh(lam).min() > 0.0
