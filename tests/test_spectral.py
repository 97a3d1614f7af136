import json

import numpy as np
import pytest

from shuffle_spectra import (
    MatrixFreeKernel,
    build_kernel,
    interpolate,
    oscillation_stats,
    residual,
    second_eig_b,
    second_eig_sym,
    skew_norm,
    smooth_boundary,
)

from conftest import make_symmetric


class TestSecondEigSym:
    def test_identity_2x2_degenerate(self):
        ident = np.eye(2)
        est = second_eig_sym(lambda v: ident @ v, 2)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.residual <= 1e-12
        assert est.converged

    def test_prescribed_spectrum_oracle(self):
        eigs = np.array([1.0, 0.62, 0.31, 0.11, -0.05] + [0.01] * 45)
        m = make_symmetric(50, eigs, seed=1)
        est = second_eig_sym(lambda v: m @ v, 50, tol=1e-13)
        assert est.value.real == pytest.approx(0.62, abs=1e-8)
        assert est.residual < 1e-6

    @pytest.mark.parametrize("n", [100, 200])
    def test_kernel_matches_dense_eigensolver(self, n):
        k = build_kernel(n)
        s = 0.5 * (k.probs + k.probs.T)
        w = np.linalg.eigvalsh(s)
        by_mod = w[np.argsort(-np.abs(w))]
        est = second_eig_sym(k.sym_matvec, n, tol=1e-13)
        assert est.value.real == pytest.approx(by_mod[1], abs=1e-8)

    def test_certificate_soundness_random_matrices(self):
        # whatever the solver returns, a true eigenvalue lies within the
        # residual (normal operator); dense solve is the referee
        rng = np.random.default_rng(2)
        for trial in range(10):
            a = rng.standard_normal((50, 50))
            m = (a + a.T) / 2
            est = second_eig_sym(lambda v: m @ v, 50, tol=1e-11, maxiter=3000)
            true = np.linalg.eigvalsh(m)
            assert np.min(np.abs(true - est.value.real)) <= est.residual + 1e-10

    def test_rayleigh_monotone_after_burn_in(self, kernel100):
        est = second_eig_sym(kernel100.sym_matvec, 100, tol=1e-12)
        hist = np.asarray(est.rayleigh_history)
        burn = 5
        assert np.all(np.diff(hist[burn:]) >= -1e-9)

    def test_n1_rejected(self):
        # a 1x1 operator has no second eigenvalue
        with pytest.raises(ValueError, match="n >= 2"):
            second_eig_sym(lambda v: v, 1)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1e-10])
    def test_tol_must_be_finite_and_positive(self, tol):
        # an infinite tol stops at the first streak, far from the eigenvalue
        with pytest.raises(ValueError, match="tol"):
            second_eig_sym(lambda v: v, 4, tol=tol)


class TestSkewNorm:
    def test_zero_operator(self):
        est = skew_norm(lambda v: np.zeros_like(v), 8)
        assert est.value == 0
        assert est.residual <= 1e-12

    def test_rotation_block(self):
        c = 0.37
        m = np.array([[0.0, c], [-c, 0.0]])
        est = skew_norm(lambda v: m @ v, 2)
        assert abs(est.value) == pytest.approx(c, abs=1e-10)
        assert est.value.real == pytest.approx(0.0, abs=1e-12)
        assert est.residual <= 1e-8

    def test_random_skew_against_svd(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((50, 50))
        d = (a - a.T) / 2
        est = skew_norm(lambda v: d @ v, 50, tol=1e-13)
        top = np.linalg.svd(d, compute_uv=False)[0]
        assert abs(est.value) == pytest.approx(top, abs=1e-8)

    def test_kernel_skew_eigenpair(self, kernel100):
        est = skew_norm(kernel100.skew_matvec, 100, tol=1e-13)
        dense = 0.5 * (kernel100.probs - kernel100.probs.T)
        top = np.linalg.svd(dense, compute_uv=False)[0]
        assert abs(est.value) == pytest.approx(top, abs=1e-9)
        # the estimate certifies: imaginary eigenvalue within residual
        check = np.linalg.norm(dense @ est.vector - est.value * est.vector)
        assert check == pytest.approx(est.residual, abs=1e-9)
        assert est.residual < 1e-6


class TestSecondEigB:
    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            second_eig_b(lambda v: v, 1)

    @pytest.mark.parametrize("n", [100, 150])
    def test_matches_dense_nonsymmetric_solver(self, n):
        k = build_kernel(n)
        w = np.linalg.eigvals(k.probs)
        by_mod = w[np.argsort(-np.abs(w))]
        est = second_eig_b(k.matvec, n, tol=1e-12)
        assert est.converged
        assert abs(est.value.imag) < 1e-10
        assert est.value.real == pytest.approx(by_mod[1].real, abs=1e-6)
        # the deflated iterate, shifted along the all-ones vector, is B's
        # own eigenvector
        x = est.vector
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(k.probs @ x - est.value.real * x) <= 1e-10
        assert est.residual <= 1e-10

    def test_complex_pair_flagged(self):
        # one eigenvalue 1 (uniform pair) plus a rotation block: the deflated
        # dominant pair is c * exp(+-i theta)
        n = 6
        ones = np.ones(n) / np.sqrt(n)
        rng = np.random.default_rng(4)
        base = rng.standard_normal((n, 2))
        base -= ones[:, None] * (ones @ base)
        q, _ = np.linalg.qr(base)
        c, theta = 0.8, 0.7
        rot = c * np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        m = np.outer(ones, ones) + q @ rot @ q.T
        est = second_eig_b(m.__matmul__, n, maxiter=3000)
        assert not est.converged
        assert "complex" in est.note
        assert abs(est.value) == pytest.approx(c, abs=1e-6)
        assert abs(est.value.imag) > 0.1
        # the vector lies in m's invariant plane of the pair
        x, lam = est.vector, est.value
        plane = m @ (m @ x) - 2 * lam.real * (m @ x) + abs(lam) ** 2 * x
        assert np.linalg.norm(plane) <= 1e-8
        # it is the pair's complex eigenvector, not only a vector in the plane
        assert np.linalg.norm(m @ x - lam * x) <= 1e-10

    def test_repeated_eigenvalue_one(self):
        # two closed classes: B's eigenvalue 1 is double, so the deflated
        # operator keeps a 1 whose eigenvector already has mean zero
        m = np.kron(np.eye(2), np.full((2, 2), 0.5))
        est = second_eig_b(m.__matmul__, 4)
        assert est.converged
        assert np.all(np.isfinite(est.vector))
        assert np.linalg.norm(m @ est.vector - est.vector) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_uniform_chain(self, n):
        # B = 1/n: the deflated operator is zero to rounding, so the shift
        # cancels the Ritz vector, and any mean-zero vector is the answer
        m = np.full((n, n), 1.0 / n)
        est = second_eig_b(m.__matmul__, n)
        x, lam = est.vector, est.value
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)
        assert abs(x.mean()) <= 1e-15
        assert abs(lam) <= 1e-15
        assert np.linalg.norm(m @ x - lam * x) <= 1e-15

    @pytest.mark.parametrize("n", [50, 100, 2000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sign_does_not_follow_the_start(self, n, seed):
        est = second_eig_b(MatrixFreeKernel(n).matvec, n, seed=seed)
        assert est.vector[0] > 0

    def test_periodic_chain_converges(self):
        # a period-2 chain has eigenvalues 1, -1, 0: no stationary solve is
        # needed to deflate it, so its dominant pair -1 converges
        m = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        est = second_eig_b(m.__matmul__, 3)
        assert est.converged
        assert est.note == ""
        assert est.value == pytest.approx(-1.0, abs=1e-12)
        assert est.residual <= 1e-12
        assert np.abs(m @ est.vector + est.vector).max() <= 1e-12


class TestResidual:
    def test_exact_eigenpair(self):
        m = np.diag([3.0, 1.0, 0.5])
        v = np.array([1.0, 0.0, 0.0])
        assert residual(lambda x: m @ x, v, 3.0) <= 1e-12

    def test_conventions(self):
        n = 64
        m = np.eye(n)
        v = np.ones(n)
        raw_vec = residual(lambda x: m @ x, v, 0.5, convention="vector",
                           normalized=False)
        raw_fun = residual(lambda x: m @ x, v, 0.5, convention="function",
                           normalized=False)
        assert raw_vec == pytest.approx(raw_fun * np.sqrt(n), rel=1e-12)
        # normalized residual is convention-independent
        a = residual(lambda x: m @ x, v, 0.5, convention="vector")
        b = residual(lambda x: m @ x, v, 0.5, convention="function")
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            residual(lambda x: x, np.zeros(4), 1.0)

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            residual(lambda x: x, np.ones(4), 1.0, convention="euclidean")


class TestInterpolate:
    def test_identity(self):
        v = np.array([0.3, -1.0, 2.0])
        np.testing.assert_array_equal(interpolate(v, 3), v)

    def test_ramp_stays_linear_with_shared_endpoints(self):
        n, m = 10, 20
        v = np.arange(1, n + 1) / n
        out = interpolate(v, m)
        assert out[0] == pytest.approx(v[0])
        assert out[-1] == pytest.approx(v[-1])
        np.testing.assert_allclose(np.diff(out, 2), 0.0, atol=1e-14)

    def test_smooth_function_error_scales_like_n_minus_2(self):
        def err(n):
            src = np.sin(2 * np.pi * np.linspace(0, 1, n))
            fine = interpolate(src, 20 * n)
            true = np.sin(2 * np.pi * np.linspace(0, 1, 20 * n))
            return np.abs(fine - true).max()

        e100, e200 = err(100), err(200)
        assert e100 <= 6.0 / 99**2  # piecewise-linear bound h^2 max|f''| / 8
        assert e200 <= 6.0 / 199**2
        assert e200 < e100 / 3.2  # observed ~ 1/4

    def test_complex_input(self):
        v = np.array([1 + 1j, 2 + 0j, 3 - 1j])
        out = interpolate(v, 5)
        assert out.dtype.kind == "c"
        assert out[0] == v[0] and out[-1] == v[-1]

    def test_downsample_rejected(self):
        with pytest.raises(ValueError):
            interpolate(np.ones(10), 5)


def loop_boundary_smoothing(v, k):
    """Index-by-index restatement of the extrapolation, as a 1-based loop."""
    u = list(v)
    for i in range(2, k + 1):
        u[k - i] = u[k] - i * (u[k] - u[k - 1])  # u(k+1-i) = u(k+1) - i*(u(k+1)-u(k))
    return np.asarray(u)


class TestSmoothBoundary:
    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(200)
        np.testing.assert_allclose(
            smooth_boundary(v, 25), loop_boundary_smoothing(v, 25), atol=1e-12
        )
        np.testing.assert_allclose(
            smooth_boundary(v, 75), loop_boundary_smoothing(v, 75), atol=1e-12
        )

    def test_linear_input_unchanged(self):
        v = 0.3 * np.arange(50) - 1.0
        np.testing.assert_allclose(smooth_boundary(v, 25), v, atol=1e-12)

    def test_tail_untouched(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(100)
        out = smooth_boundary(v, 25)
        np.testing.assert_array_equal(out[24:], v[24:])

    def test_k_validation(self):
        with pytest.raises(ValueError):
            smooth_boundary(np.ones(10), 10)


class TestOscillationStats:
    def test_constant(self):
        assert oscillation_stats(np.full(30, 2.5)) == (0.0, 0.0)

    def test_ramp(self):
        n = 40
        v = np.arange(n) / n
        span, slope = oscillation_stats(v)
        assert span == pytest.approx((n - 1) / n)
        assert slope == pytest.approx(1.0)

    def test_complex_rejected(self):
        with pytest.raises(TypeError):
            oscillation_stats(np.array([1j, 0]))


class TestReporting:
    def test_estimate_json_schema(self, kernel100):
        est = second_eig_sym(kernel100.sym_matvec, 100)
        payload = json.loads(est.to_json())
        assert set(payload) == {
            "operator", "n", "value_re", "value_im", "residual",
            "norm_convention", "iterations", "converged", "note",
        }
        assert payload["operator"] == "S"
        assert payload["n"] == 100
