import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jointcov.covariance import (
    DIAG_EIG,
    DIAGONAL,
    EIG,
    UNCONSTRAINED,
    NotPositiveDefiniteError,
    UnboundedProblem,
    WishartPrior,
    _cho_inverse,
    assemble_M,
    cholesky_or_none,
    diagnose_singularity,
    inner_objective,
    jacobi_eigh,
    mode_match_prior,
    numeric_inner_oracle,
    solve_inner,
    solve_inner_diag_eig,
    solve_inner_diagonal,
    solve_inner_eig,
    solve_inner_unconstrained,
    spd_inverse,
    symmetrize,
)


def random_spd(rng, m, lo=0.5, hi=2.5):
    """Random SPD matrix with eigenvalues uniform in [lo, hi]."""
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    eigs = rng.uniform(lo, hi, size=m)
    return (q * eigs) @ q.T


class TestJacobiEigh:
    def test_matches_lapack(self):
        rng = np.random.default_rng(0)
        for m in (2, 3, 5, 6):
            for _ in range(20):
                a = random_spd(rng, m, 0.1, 10.0)
                vals, vecs = jacobi_eigh(a)
                ref = np.linalg.eigvalsh(a)
                np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(
                    (vecs * vals) @ vecs.T, a, atol=1e-11)
                np.testing.assert_allclose(vecs.T @ vecs, np.eye(m), atol=1e-12)

    def test_scale_invariant_tolerance(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 3) * 1e6
        vals, vecs = jacobi_eigh(a)
        np.testing.assert_allclose((vecs * vals) @ vecs.T, a, rtol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 4)
        v1 = jacobi_eigh(a)
        v2 = jacobi_eigh(a)
        np.testing.assert_array_equal(v1[0], v2[0])
        np.testing.assert_array_equal(v1[1], v2[1])


class TestModeMatching:
    def test_identity_example(self):
        prior = mode_match_prior(np.eye(3), 0.1, 100)
        np.testing.assert_allclose(prior.scale, 0.1 * np.eye(3), atol=1e-15)
        assert prior.dof == pytest.approx(14.0)

    def test_pose_graph_scale_example(self):
        prior = mode_match_prior(0.002 * np.eye(3), 0.1, 5598)
        np.testing.assert_allclose(
            prior.scale, np.eye(3) / 1.1196, rtol=1e-12)
        np.testing.assert_allclose(prior.scale[0, 0], 0.8932, rtol=1e-3)
        assert prior.dof == pytest.approx(563.8)

    def test_blend_identity(self):
        # Unconstrained optimum blends prior and sample covariance by w/(w+1).
        rng = np.random.default_rng(3)
        for w in (0.1, 1.0, 10.0):
            sigma0 = random_spd(rng, 3)
            S = random_spd(rng, 3)
            k = 37
            prior = mode_match_prior(sigma0, w, k)
            M = assemble_M(S, k, prior)
            blend = (w / (w + 1.0)) * sigma0 + (1.0 / (w + 1.0)) * S
            np.testing.assert_allclose(M, blend, atol=1e-12)
            sol = solve_inner_unconstrained(M)
            np.testing.assert_allclose(sol.covariance, blend, atol=1e-12)

    def test_rejects_indefinite_sigma0(self):
        with pytest.raises(NotPositiveDefiniteError):
            mode_match_prior(np.diag([1.0, -1.0]), 0.1, 10)

    @pytest.mark.parametrize("w_prior", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_w_prior(self, w_prior):
        with pytest.raises(ValueError, match="^w_prior must be finite and > 0"):
            mode_match_prior(np.eye(3), w_prior, 10)


class TestWishartPrior:
    @pytest.mark.parametrize("scale, dof, message", [
        (np.eye(3), np.nan, "^dof must be finite and >= m"),
        (np.eye(3), np.inf, "^dof must be finite and >= m"),
        (np.eye(3), 3.5, "^dof must be finite and >= m"),
        (np.ones((2, 3)), 5.0, "^scale must be a finite square matrix"),
        (np.ones(3), 5.0, "^scale must be a finite square matrix"),
        (np.diag([1.0, np.nan, 1.0]), 5.0, "^scale must be a finite square matrix"),
    ], ids=["dof-nan", "dof-inf", "dof-small", "non-square", "vector", "scale-nan"])
    def test_bad_prior_fails_at_construction(self, scale, dof, message):
        with pytest.raises(ValueError, match=message):
            WishartPrior.from_scale(scale, dof)
        with pytest.raises(ValueError, match=message):
            WishartPrior(scale, dof)

    def test_scale_inverse_computed_when_not_given(self):
        scale = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(WishartPrior(scale, 3.0).scale_inv @ scale, np.eye(2),
                                   atol=1e-15)


class TestAssembleM:
    def test_hand_example(self):
        # gamma = k + nu - m - 1 = 2, M = (2 * 0.5 I + I) / 2 = I.
        prior = WishartPrior.from_scale(np.eye(2), 3.0)
        M = assemble_M(0.5 * np.eye(2), 2, prior)
        np.testing.assert_allclose(M, np.eye(2), atol=1e-15)

    def test_ml_mode_returns_sample_covariance(self):
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_array_equal(assemble_M(S, 10, None), S)

    def test_unit_weight_blend(self):
        sigma0 = np.diag([2.0, 4.0])
        S = np.diag([1.0, 1.0])
        prior = mode_match_prior(sigma0, 1.0, 8)
        np.testing.assert_allclose(
            assemble_M(S, 8, prior), 0.5 * sigma0 + 0.5 * S, atol=1e-14)

    def test_nonpositive_gamma_rejected(self):
        prior = WishartPrior.from_scale(np.eye(2), 3.0)
        with pytest.raises(ValueError):
            assemble_M(np.eye(2), 0, prior)


class TestInnerSolutions:
    def test_unconstrained_diagonal(self):
        sol = solve_inner_unconstrained(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(sol.information, np.diag([0.5, 0.25]))

    def test_unconstrained_dense(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        sol = solve_inner_unconstrained(M)
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(sol.information, expected, atol=1e-14)

    def test_unconstrained_identity(self):
        sol = solve_inner_unconstrained(np.eye(3))
        np.testing.assert_allclose(sol.information, np.eye(3))
        assert sol.objective == pytest.approx(3.0)

    def test_singular_M_raises(self):
        with pytest.raises(UnboundedProblem):
            solve_inner_unconstrained(np.diag([1.0, 0.0]))

    def test_diagonal_extracts_diagonal(self):
        sol = solve_inner_diagonal(np.array([[2.0, 1.0], [1.0, 4.0]]))
        np.testing.assert_allclose(sol.information, np.diag([0.5, 0.25]))

    def test_diagonal_consistent_with_unconstrained_on_diagonal_M(self):
        M = np.diag([3.0, 0.7, 1.2])
        a = solve_inner_diagonal(M)
        b = solve_inner_unconstrained(M)
        np.testing.assert_allclose(a.information, b.information, atol=1e-14)

    def test_diagonal_nonpositive_entry_raises(self):
        with pytest.raises(UnboundedProblem):
            solve_inner_diagonal(np.diag([1.0, 0.0]))

    def test_trace_identity_unconstrained_and_diagonal(self):
        # <M, P*> = m exactly for both prior-form optima.
        rng = np.random.default_rng(4)
        for m in (2, 3, 5):
            M = random_spd(rng, m)
            for sol in (solve_inner_unconstrained(M), solve_inner_diagonal(M)):
                assert np.sum(M * sol.information) == pytest.approx(m, abs=1e-10)

    def test_eig_clamp_table(self):
        sol = solve_inner_eig(np.diag([0.5, 2.0, 10.0]), 1.0, 3.0)
        np.testing.assert_allclose(
            sol.information, np.diag([1.0, 0.5, 1.0 / 3.0]), atol=1e-14)
        assert list(sol.active_lower) == [True, False, False]
        assert list(sol.active_upper) == [False, False, True]

    def test_eig_inactive_equals_unconstrained(self):
        rng = np.random.default_rng(5)
        M = random_spd(rng, 4, 0.5, 2.0)
        sol = solve_inner_eig(M, 1e-4, 1e4)
        ref = solve_inner_unconstrained(M)
        np.testing.assert_allclose(sol.information, ref.information, atol=1e-11)
        assert not sol.any_bound_active

    def test_eig_rescues_singular_rank_one(self):
        u = np.array([1.0, 2.0]) / np.sqrt(5.0)
        S = np.outer(u, u)  # rank 1 in R^2
        sol = solve_inner_eig(S, 1e-4, 1e4)
        sigma_eigs = np.sort(np.linalg.eigvalsh(np.linalg.inv(sol.information)))
        assert sigma_eigs[0] == pytest.approx(1e-4, rel=1e-9)

    def test_eig_preserves_eigenvectors(self):
        rng = np.random.default_rng(6)
        M = random_spd(rng, 3, 0.1, 10.0)
        sol = solve_inner_eig(M, 0.5, 2.0)
        comm = M @ sol.information - sol.information @ M
        assert np.linalg.norm(comm) <= 1e-9

    def test_diag_eig_entrywise(self):
        sol = solve_inner_diag_eig(np.diag([0.5, 2.0, 5.0]), 1.0, 3.0)
        np.testing.assert_allclose(
            sol.information, np.diag([1.0, 0.5, 1.0 / 3.0]), atol=1e-14)

    def test_diag_eig_inactive(self):
        M = np.array([[2.0, 0.3], [0.3, 1.5]])
        sol = solve_inner_diag_eig(M, 1.0, 3.0)
        np.testing.assert_allclose(sol.information, np.diag([0.5, 1 / 1.5]))

    def test_diag_eig_reduces_to_eig_of_diagonal(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            M = random_spd(rng, 4, 0.2, 6.0)
            a = solve_inner_diag_eig(M, 0.5, 2.0)
            b = solve_inner_eig(np.diag(np.diag(M)), 0.5, 2.0)
            np.testing.assert_allclose(a.information, b.information, atol=1e-12)

    def test_kkt_stationarity(self):
        rng = np.random.default_rng(8)
        for m in (2, 5):
            M = random_spd(rng, m)
            sol = solve_inner_unconstrained(M)
            assert np.linalg.norm(sol.information @ M - np.eye(m)) <= 1e-10

    def test_global_optimality_random_feasible(self):
        rng = np.random.default_rng(9)
        M = random_spd(rng, 3)
        lam = (0.7, 1.6)
        cases = {
            UNCONSTRAINED: solve_inner_unconstrained(M),
            DIAGONAL: solve_inner_diagonal(M),
            EIG: solve_inner_eig(M, *lam),
            DIAG_EIG: solve_inner_diag_eig(M, *lam),
        }
        for variant, sol in cases.items():
            best = inner_objective(M, sol.information)
            for _ in range(1000):
                if variant in (DIAGONAL, DIAG_EIG):
                    q = rng.uniform(0.1, 5.0, size=3)
                    if variant == DIAG_EIG:
                        q = np.clip(q, 1 / lam[1], 1 / lam[0])
                    Q = np.diag(q)
                else:
                    Q = random_spd(rng, 3, 0.05, 8.0)
                    if variant == EIG:
                        w, U = np.linalg.eigh(Q)
                        Q = (U * np.clip(w, 1 / lam[1], 1 / lam[0])) @ U.T
                assert inner_objective(M, Q) >= best - 1e-10


class TestInnerObjective:
    def test_identity(self):
        assert inner_objective(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_at_optimum_logdet_plus_m(self):
        rng = np.random.default_rng(10)
        M = random_spd(rng, 4)
        sol = solve_inner_unconstrained(M)
        expected = np.linalg.slogdet(M)[1] + 4
        assert inner_objective(M, sol.information) == pytest.approx(expected, abs=1e-10)
        assert sol.objective == pytest.approx(expected, abs=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            inner_objective(np.eye(2), np.diag([1.0, -1.0]))

    def test_nullspace_descent_identity(self):
        # Adding c u u^T along a null direction of S lowers the likelihood
        # objective by exactly log(1 + c u^T P0^-1 u).
        rng = np.random.default_rng(11)
        A = rng.normal(size=(2, 4))  # k=2 < m=4 residuals: S singular
        S = A.T @ A / 2.0
        _, _, vt = np.linalg.svd(A, full_matrices=True)
        u = vt[-1]
        np.testing.assert_allclose(S @ u, 0.0, atol=1e-12)
        P0 = random_spd(rng, 4)
        f0 = inner_objective(S, P0)
        for c in (1.0, 10.0, 100.0):
            f = inner_objective(S, P0 + c * np.outer(u, u))
            drop = np.log(1.0 + c * u @ np.linalg.solve(P0, u))
            assert f - f0 == pytest.approx(-drop, abs=1e-9)

    def test_nullspace_descent_identity_P0_eye(self):
        u = np.array([0.0, 0.0, 1.0])
        S = np.diag([1.0, 2.0, 0.0])
        f0 = inner_objective(S, np.eye(3))
        for c in (1.0, 10.0, 100.0):
            f = inner_objective(S, np.eye(3) + c * np.outer(u, u))
            assert f0 - f == pytest.approx(np.log(1.0 + c), abs=1e-12)


class TestDiagnose:
    def test_zero_matrix_flagged(self):
        rep = diagnose_singularity(np.zeros((3, 3)))
        assert rep.is_ill_posed

    def test_identity_well_posed(self):
        rep = diagnose_singularity(np.eye(3))
        assert not rep.is_ill_posed

    def test_too_few_residuals_flagged(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(2, 4))
        S = A.T @ A / 2.0
        rep = diagnose_singularity(S)
        assert rep.is_ill_posed


class TestCertifiedUnconstrainedUpdate:
    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(2, 6), k=st.integers(1, 60), collinear=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_raises_exactly_when_the_diagnosis_does(self, m, k, collinear, seed):
        # sample covariances of k residuals with column scales 1e-2 to 1e2;
        # one draw in five makes a column nearly collinear with another
        rng = np.random.default_rng(seed)
        R = rng.normal(size=(k, m)) * 10.0 ** rng.uniform(-2.0, 2.0, size=m)
        if collinear == 0:
            R[:, 1] = (rng.normal() * R[:, 0]
                       + 10.0 ** rng.uniform(-16.0, -4.0) * rng.normal(size=k))
        M = R.T @ R / k
        report = diagnose_singularity(M)
        chol = cholesky_or_none(symmetrize(M))
        if report.is_ill_posed or chol is None:
            with pytest.raises(UnboundedProblem) as err:
                solve_inner_unconstrained(M)
            assert err.value.min_eigenvalue == report.min_eigenvalue
            return
        sol = solve_inner_unconstrained(M)
        P = symmetrize(scipy.linalg.cho_solve((chol, True), np.eye(m)))
        np.testing.assert_array_equal(sol.information, P)
        assert sol.objective == 2.0 * float(np.sum(np.log(np.diag(chol)))) + m


class TestChoInverse:
    """The Cholesky inverse calls LAPACK ``dpotrs`` as ``cho_solve`` does."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 12), scale=st.floats(-8.0, 8.0),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_scipy_cho_solve(self, m, scale, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, m))
        L = np.linalg.cholesky(10.0 ** scale * (A @ A.T + 1e-3 * np.eye(m)))
        expected = symmetrize(scipy.linalg.cho_solve((L, True), np.eye(m)))
        assert np.array_equal(_cho_inverse(L), expected)

    def test_non_finite_factor_raises(self):
        L = np.eye(3)
        L[2, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            _cho_inverse(L)

    def test_indefinite_matrix_has_no_inverse(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_inverse(np.diag([1.0, -1.0]))


class TestNumericOracle:
    @pytest.mark.parametrize("variant", [UNCONSTRAINED, DIAGONAL, EIG, DIAG_EIG])
    def test_agrees_with_analytic(self, variant):
        rng = np.random.default_rng(13)
        lam = (0.8, 1.8)  # keeps some constraints active for random draws
        for m in (2, 3, 5):
            M = random_spd(rng, m)
            if variant == UNCONSTRAINED:
                sol = solve_inner_unconstrained(M)
                P = numeric_inner_oracle(M, variant)
            elif variant == DIAGONAL:
                sol = solve_inner_diagonal(M)
                P = numeric_inner_oracle(M, variant)
            elif variant == EIG:
                sol = solve_inner_eig(M, *lam)
                P = numeric_inner_oracle(M, variant, *lam)
            else:
                sol = solve_inner_diag_eig(M, *lam)
                P = numeric_inner_oracle(M, variant, *lam)
            err = np.linalg.norm(P - sol.information) / np.linalg.norm(sol.information)
            assert err <= 1e-8

    def test_eig_with_active_constraints(self):
        M = np.diag([0.2, 1.0, 6.0])
        sol = solve_inner_eig(M, 0.5, 2.0)
        P = numeric_inner_oracle(M, EIG, 0.5, 2.0)
        np.testing.assert_allclose(P, sol.information, atol=1e-8)

    @settings(max_examples=80, deadline=None)
    # a rank-deficient M whose rounded Cholesky succeeds
    @example(m=2, rank_deficient=True, variant=UNCONSTRAINED, lam_min=0.1,
             lam_ratio=2.0, seed=5)
    # a diagonal entry of M near the 1e-3 floor, where the oracle needs grad_tol 1e-12
    @example(m=3, rank_deficient=True, variant=DIAGONAL, lam_min=1.0,
             lam_ratio=1.0, seed=15488829)
    @given(m=st.integers(1, 4), rank_deficient=st.booleans(),
           variant=st.sampled_from([UNCONSTRAINED, DIAGONAL, EIG, DIAG_EIG]),
           lam_min=st.floats(0.05, 1.0), lam_ratio=st.floats(1.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_closed_forms_match_oracle(self, m, rank_deficient, variant,
                                       lam_min, lam_ratio, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        eigs = rng.uniform(0.1, 3.0, size=m)
        if rank_deficient:
            eigs[rng.permutation(m)[: rng.integers(1, m + 1)]] = 0.0
        M = (q * eigs) @ q.T
        lam = (lam_min, lam_min * lam_ratio)
        bounded = variant in (EIG, DIAG_EIG)
        if variant == UNCONSTRAINED and rank_deficient:
            # unbounded below, even where Cholesky of the rounded M succeeds
            with pytest.raises(UnboundedProblem):
                solve_inner(M, variant)
            return
        if variant == DIAGONAL and np.diag(M).min() <= 0.0:
            with pytest.raises(UnboundedProblem):
                solve_inner(M, variant)
            return
        # keep the prior-free diagonal optimum 1 / M_ii within the oracle's reach
        assume(variant != DIAGONAL or np.diag(M).min() >= 1e-3)
        sol = solve_inner(M, variant, *(lam if bounded else ()))
        P = numeric_inner_oracle(M, variant, *(lam if bounded else ()), grad_tol=1e-12)
        err = np.linalg.norm(P - sol.information) / np.linalg.norm(sol.information)
        assert err <= 1e-8
