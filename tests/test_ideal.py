import math
import struct
import tracemalloc

import numpy as np
import pytest

from shuffle_spectra import (
    MatrixFreeKernel,
    NumericError,
    apply_sym,
    build_kernel,
    g,
    g_inverse,
    g_prime,
    kernel_from_binary,
    kernel_to_binary,
    kernel_to_csv,
    u0,
    y_distribution,
    y_moments,
)
from shuffle_spectra import ideal


def g_piecewise(b, u):
    """Branch-explicit oracle for the min-form implementation."""
    if u <= u0(b):
        return math.exp(1.0 - b) * u
    return math.exp(math.exp(-b) * (1.0 - u)) - (1.0 - u) * math.exp(1.0 - b)


class TestU0:
    def test_endpoints(self):
        assert u0(0.0) == 0.0
        assert u0(1.0) == 1.0

    def test_half(self):
        expected = 1.0 - 0.5 * math.exp(0.5)  # = 0.1756393646499359
        assert u0(0.5) == pytest.approx(expected, abs=1e-15)
        assert u0(0.5) == pytest.approx(0.1756393646499359, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            u0(-0.1)
        with pytest.raises(ValueError):
            u0(1.1)

    def test_vectorized_monotone(self):
        b = np.linspace(0, 1, 101)
        v = u0(b)
        assert np.all(np.diff(v) > 0)
        assert np.all((v >= 0) & (v <= 1))


class TestG:
    def test_endpoints(self):
        for b in (0.0, 0.3, 0.5, 0.9, 1.0):
            assert g(b, 0.0) == pytest.approx(0.0, abs=1e-15)
            assert g(b, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_branches_agree_at_breakpoint(self):
        bp = u0(0.5)
        lin = math.exp(0.5) * bp  # = 0.28958325924344837
        other = math.exp(math.exp(-0.5) * (1 - bp)) - (1 - bp) * math.exp(0.5)
        assert abs(lin - other) < 1e-12
        assert g(0.5, bp) == pytest.approx(lin, abs=1e-12)

    def test_breakpoint_continuity_random(self):
        rng = np.random.default_rng(0)
        for b in rng.uniform(0, 1, 1000):
            bp = u0(b)
            lin = math.exp(1 - b) * bp
            other = math.exp(math.exp(-b) * (1 - bp)) - (1 - bp) * math.exp(1 - b)
            assert abs(lin - other) <= 1e-10

    def test_min_form_matches_piecewise_on_grid(self):
        bs = np.linspace(0, 1, 1000)
        us = np.linspace(0, 1, 1000)
        for b in bs[::7]:  # full 1000x1000 is covered by the vectorized sweep below
            vals = g(b, us)
            oracle = np.array([g_piecewise(b, u) for u in us])
            np.testing.assert_allclose(vals, oracle, atol=1e-12, rtol=0)
        # vectorized full-grid sweep: min form vs explicit branch selection
        bb = bs[:, None]
        uu = us[None, :]
        minform = np.minimum(
            np.exp(1 - bb) * uu,
            np.exp(np.exp(-bb) * (1 - uu)) - (1 - uu) * np.exp(1 - bb),
        )
        low = uu <= (1 - (1 - bb) * np.exp(bb))
        piecewise = np.where(
            low,
            np.exp(1 - bb) * uu,
            np.exp(np.exp(-bb) * (1 - uu)) - (1 - uu) * np.exp(1 - bb),
        )
        assert np.abs(minform - piecewise).max() <= 1e-12

    def test_strictly_increasing(self):
        us = np.linspace(0, 1, 2001)
        for b in (0.05, 0.3, 0.5, 0.9):
            assert np.all(np.diff(g(b, us)) > 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            g(0.5, 1.5)
        with pytest.raises(ValueError):
            g(-0.2, 0.5)


class TestGPrime:
    def test_constant_on_first_branch(self):
        for b in (0.2, 0.5, 0.8):
            for u in (0.0, 0.3 * u0(b), 0.9 * u0(b)):
                assert g_prime(b, u) == pytest.approx(math.exp(1 - b), rel=1e-14)

    def test_at_one(self):
        for b in (0.1, 0.5, 0.9):
            assert g_prime(b, 1.0) == pytest.approx(
                math.exp(1 - b) - math.exp(-b), rel=1e-14
            )

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        checked = 0
        while checked < 200:
            b = rng.uniform(0.05, 0.95)
            u = rng.uniform(h, 1 - h)
            if abs(u - u0(b)) < 10 * h:  # derivative jumps at the breakpoint
                continue
            fd = (g(b, u + h) - g(b, u - h)) / (2 * h)
            assert abs(g_prime(b, u) - fd) <= 10 * h
            checked += 1

    def test_one_sided_at_breakpoint(self):
        b = 0.4
        bp = u0(b)
        assert g_prime(b, bp, side="left") == pytest.approx(math.exp(1 - b), rel=1e-14)
        assert g_prime(b, bp, side="right") == pytest.approx(
            math.exp(1 - b) - math.exp(1 - 2 * b), rel=1e-12
        )

    def test_bad_side(self):
        with pytest.raises(ValueError):
            g_prime(0.5, 0.5, side="middle")


class TestGInverse:
    def test_endpoints(self):
        for b in (0.0, 0.4, 1.0):
            assert g_inverse(b, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert g_inverse(b, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(2)
        b = rng.uniform(0, 1, 1000)
        z = rng.uniform(0, 1, 1000)
        for bi, zi in zip(b, z):
            ui = g_inverse(bi, zi)
            assert abs(g(bi, ui) - zi) <= 1e-12

    def test_vector_form(self):
        z = np.linspace(0, 1, 257)
        u = g_inverse(0.3, z)
        assert np.abs(g(0.3, u) - z).max() <= 1e-12
        assert np.all(np.diff(u) > 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            g_inverse(0.5, 1.2)
        with pytest.raises(ValueError):
            g_inverse(2.0, 0.5)

    def test_root_matches_lambert_w_oracle(self):
        # at depth 0 the inverse is the root s(z) = 1 - X(z) itself; mpmath's
        # Lambert form X = -W0(-e^(-1-z/e)) - z/e at 50 digits is the oracle
        mpmath = pytest.importorskip("mpmath")
        zs = [0.0, 1e-14, 1e-8, 1e-3, 0.5, 0.9, 1.0]
        with mpmath.workdps(50):
            oracle = [
                1 + mpmath.lambertw(-mpmath.exp(-1 - mpmath.mpf(z) / mpmath.e))
                + mpmath.mpf(z) / mpmath.e
                for z in zs
            ]
            errs = [abs(mpmath.mpf(s) - w.real) for s, w in zip(g_inverse(0.0, zs), oracle)]
        assert max(float(e) for e in errs) <= 1e-15

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(ideal, "_NEWTON_CAP", 1)
        with pytest.raises(NumericError):
            g_inverse(0.3, 0.5)


def kernel_row_by_row(n, row_rule):
    """B(n) one row at a time from the per-entry CDF, differenced and clipped."""
    z = np.arange(n + 1) / n
    s = ideal._landing_root(z)
    probs = np.empty((n, n))
    for i in range(n):
        if row_rule == "endpoint":
            cdf = ideal._cdf(np.array([[i + 1]]) / n, z, s)
        else:  # the CDF averaged exactly over the depth cell [i/n, (i+1)/n]
            lo, h, x = np.array([[i]]) / n, 1.0 / n, 1.0 - s
            t = np.clip(1.0 - np.log(np.e * x + z) - lo, 0.0, h)
            elo = np.exp(lo)
            second = t - x * elo * np.expm1(t)
            linear = z * elo * np.exp(t - 1.0) * np.expm1(h - t)
            cdf = (second + linear) / h
        probs[i] = np.clip(cdf[0, 1:] - cdf[0, :-1], 0.0, None)
    return probs


class TestBuildKernel:
    @pytest.mark.parametrize("row_rule", ["endpoint", "cell-average"])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 17, 1000])
    def test_blocks_match_rows_bit_for_bit(self, n, row_rule):
        # sizes straddle the row block; the buffered build keeps every
        # operand and operation of the per-row formula
        probs = build_kernel(n, row_rule).probs
        assert np.array_equal(probs.view(np.int64),
                              kernel_row_by_row(n, row_rule).view(np.int64))

    @pytest.mark.parametrize("row_rule", ["endpoint", "cell-average"])
    def test_build_holds_no_full_matrix_temporary(self, row_rule):
        tracemalloc.start()
        try:
            k = build_kernel(3000, row_rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k.probs.nbytes + 1.5e6

    def test_n1(self):
        k = build_kernel(1)
        np.testing.assert_allclose(k.probs, [[1.0]], atol=1e-12)

    def test_row_sums(self, kernel100):
        np.testing.assert_allclose(kernel100.row_sums(), 1.0, atol=1e-9, rtol=0)
        assert np.all(kernel100.probs >= 0)

    def test_entries_match_cdf_differences(self):
        n = 50
        k = build_kernel(n)
        i = 7
        a = i / n
        cdf = g_inverse(a, np.arange(n + 1) / n)
        np.testing.assert_allclose(k.probs[i - 1], np.diff(cdf), atol=1e-11, rtol=0)

    def test_column_sums_near_one(self, kernel100):
        n = 100
        assert np.abs(kernel100.col_sums() - 1.0).max() <= 30.0 / n
        k400 = build_kernel(400)
        assert np.abs(k400.col_sums() - 1.0).max() <= 30.0 / 400
        # absolute deviation shrinks with n
        assert (
            np.abs(k400.col_sums() - 1.0).max()
            < np.abs(kernel100.col_sums() - 1.0).max()
        )

    def test_cell_average_rule_is_closer_to_doubly_stochastic(self, kernel100):
        k_avg = build_kernel(100, row_rule="cell-average")
        dev_avg = np.abs(k_avg.col_sums() - 1.0).max()
        dev_end = np.abs(kernel100.col_sums() - 1.0).max()
        assert dev_avg < dev_end
        np.testing.assert_allclose(k_avg.row_sums(), 1.0, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("n", [1, 7, 100, 1000])
    def test_cell_average_rule_is_doubly_stochastic(self, n):
        # the integral of ginv(a, z) over a in [0, 1] is z, so the exact
        # cell averages leave every column summing to 1
        k_avg = build_kernel(n, row_rule="cell-average")
        assert np.abs(k_avg.col_sums() - 1.0).max() <= 1e-12
        assert np.abs(k_avg.row_sums() - 1.0).max() <= 1e-12

    def test_rows_match_bisection_cdfs(self):
        # an oracle apart from the root: every row's CDF by bisection on g
        n = 500
        a = (np.arange(n) + 1.0)[:, None] / n
        z = np.arange(n + 1) / n
        lo, hi = np.zeros((n, n + 1)), np.ones((n, n + 1))
        e1a = np.exp(1.0 - a)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            val = np.minimum(e1a * mid, np.exp(np.exp(-a) * (1.0 - mid)) - (1.0 - mid) * e1a)
            below = val < z
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        cdf = 0.5 * (lo + hi)
        probs = build_kernel(n).probs
        assert np.abs(probs - np.diff(cdf, axis=1)).max() <= 1e-14

    def test_adjacent_row_tv(self, kernel100):
        tv = 0.5 * np.abs(np.diff(kernel100.probs, axis=0)).sum(axis=1).max()
        assert tv <= 11.0 / 100

    def test_validate(self, kernel100):
        kernel100.validate()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_kernel(0)
        with pytest.raises(ValueError):
            build_kernel(10, row_rule="midpoint")


class TestBreakpointMaximizer:
    def test_cdf_gap_peaks_near_breakpoint_images(self):
        # |ginv_a - ginv_{a+1/n}| should peak within a cell of one of the two
        # breakpoint images
        n = 500
        xs = np.linspace(0, 1, 20_001)
        rng = np.random.default_rng(3)
        for a in rng.uniform(0.02, 1 - 2 / n, 100):
            b = a + 1.0 / n
            diff = np.abs(g_inverse(a, xs) - g_inverse(b, xs))
            xmax = xs[np.argmax(diff)]
            cand1 = g(b, u0(b))
            cand2 = g(a, u0(a))
            cell = 1.0 / n
            assert min(abs(xmax - cand1), abs(xmax - cand2)) <= cell + 2 * (xs[1] - xs[0])


class TestMatrixFreeApplies:
    @pytest.mark.parametrize("n", [50, 200])
    def test_sym_matches_dense(self, n):
        k = build_kernel(n)
        dense = 0.5 * (k.probs + k.probs.T)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(n)
        np.testing.assert_allclose(apply_sym(n, v), dense @ v, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("n", [50, 200])
    def test_skew_matches_dense(self, n):
        k = build_kernel(n)
        dense = 0.5 * (k.probs - k.probs.T)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(n)
        np.testing.assert_allclose(MatrixFreeKernel(n).skew_matvec(v), dense @ v,
                                   atol=1e-9, rtol=0)

    def test_b_and_bt_match_dense(self, kernel100):
        n = 100
        op = MatrixFreeKernel(n)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(n)
        np.testing.assert_allclose(op.matvec(v), kernel100.probs @ v, atol=1e-9, rtol=0)
        np.testing.assert_allclose(op.rmatvec(v), kernel100.probs.T @ v, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_complex_input_matches_dense(self, n):
        k, op = build_kernel(n), MatrixFreeKernel(n)
        rng = np.random.default_rng(10)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = k.probs
        for name, dense in (("matvec", p), ("rmatvec", p.T),
                            ("sym_matvec", 0.5 * (p + p.T)),
                            ("skew_matvec", 0.5 * (p - p.T))):
            for kernel in (op, k):
                np.testing.assert_allclose(getattr(kernel, name)(v), dense @ v,
                                           atol=1e-14, rtol=0)

    def test_operator_solves_the_root_once(self, monkeypatch):
        calls = []
        root = ideal._landing_root

        def counted(z):
            calls.append(len(z))
            return root(z)

        monkeypatch.setattr(ideal, "_landing_root", counted)
        n = 64
        op = MatrixFreeKernel(n)
        v = np.random.default_rng(12).standard_normal(n)
        for _ in range(3):
            for apply in (op.matvec, op.rmatvec, op.sym_matvec, op.skew_matvec):
                apply(v)
                apply(v + 1j * v)
        assert calls == [n + 1]

    def test_kernel_complex_apply_keeps_the_kernel_real(self):
        # a complex vector must not cast the n x n kernel to complex128
        n = 1000
        k = build_kernel(n)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tracemalloc.start()
        try:
            out = k.skew_matvec(v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k.probs.nbytes
        np.testing.assert_allclose(out, 0.5 * (k.probs @ v - k.probs.T @ v), atol=1e-14)

    def test_all_ones(self):
        n = 250
        ones = np.ones(n)
        out = apply_sym(n, ones)
        assert np.abs(out - 1.0).max() <= 30.0 / n
        skew = MatrixFreeKernel(n).skew_matvec(ones)
        assert np.abs(skew).max() <= 30.0 / n

    def test_zero_vector(self):
        op = MatrixFreeKernel(64)
        assert np.all(op.sym_matvec(np.zeros(64)) == 0)
        assert np.all(op.skew_matvec(np.zeros(64)) == 0)

    def test_skew_orthogonality(self):
        n = 128
        op = MatrixFreeKernel(n)
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.standard_normal(n)
            assert abs(v @ op.skew_matvec(v)) <= 1e-9 * (v @ v)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            apply_sym(10, np.zeros(9))
        with pytest.raises(ValueError):
            MatrixFreeKernel(10).rmatvec(np.zeros(11))
        with pytest.raises(ValueError):
            MatrixFreeKernel(0)


class TestYChain:
    def test_t0(self):
        mean, bound, var = y_moments(100, 0.3, 0)
        assert mean == pytest.approx(0.3)
        assert var == 0.0
        assert bound == 0.0

    def test_t1(self):
        n, a = 50, 0.4
        mean, bound, var = y_moments(n, a, 1)
        assert mean == pytest.approx(a * (1 + 1 / n), rel=1e-14)
        assert var == pytest.approx(a * (1 - a) / n**2, rel=1e-12)
        assert bound >= var - 1e-18

    def test_variance_below_two_fifths_over_n(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 400))
            k0 = int(rng.integers(1, n + 1))
            a = k0 / n
            t = int(rng.integers(0, n - k0 + 1))
            _, bound, var = y_moments(n, a, t)
            assert var < 0.4 / n
            assert var <= bound + 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            y_moments(10, 0.5, 6)  # t > n(1-a)
        with pytest.raises(ValueError):
            y_moments(10, 0.0, 1)

    def test_distribution_t0(self):
        vals, probs = y_distribution(20, 0.5, 0)
        assert vals.tolist() == [0.5]
        assert probs.tolist() == [1.0]

    def test_distribution_single_step_n2(self):
        vals, probs = y_distribution(2, 0.5, 1)
        np.testing.assert_allclose(vals, [0.5, 1.0])
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_distribution_matches_moments(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 500))
            k0 = int(rng.integers(1, n + 1))
            a = k0 / n
            t = int(rng.integers(0, n - k0 + 1))
            vals, probs = y_distribution(n, a, t)
            assert probs.sum() == pytest.approx(1.0, abs=1e-13)
            mean, _, var = y_moments(n, a, t)
            dp_mean = float(vals @ probs)
            dp_var = float(((vals - dp_mean) ** 2) @ probs)
            assert abs(dp_mean - mean) <= 1e-12
            assert abs(dp_var - var) <= 1e-12

    def test_distribution_caps(self):
        with pytest.raises(ValueError):
            y_distribution(600, 0.5, 3)


class TestKernelIO:
    def test_binary_round_trip(self, tmp_path):
        k = build_kernel(17)
        path = tmp_path / "k.bin"
        kernel_to_binary(k, path)
        back = kernel_from_binary(path)
        assert back.n == 17
        assert np.array_equal(back.probs, k.probs)

    def test_binary_io_holds_one_copy(self, tmp_path):
        path = tmp_path / "k.bin"
        tracemalloc.start()
        try:
            k = build_kernel(1000)
            kernel_to_binary(k, path)
            _, write_peak = tracemalloc.get_traced_memory()
            nbytes = k.probs.nbytes
            del k
            tracemalloc.reset_peak()
            back = kernel_from_binary(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert write_peak < 1.1 * nbytes and read_peak < 1.1 * nbytes
        assert path.read_bytes() == (ideal.KERNEL_MAGIC + struct.pack("<Q", 1000)
                                     + back.probs.tobytes())

    @pytest.mark.parametrize("size", [8, 10, 15])
    def test_cut_header(self, tmp_path, size):
        path = tmp_path / "k.bin"
        kernel_to_binary(build_kernel(4), path)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match="truncated"):
            kernel_from_binary(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTAKERN" + b"\0" * 16)
        with pytest.raises(ValueError):
            kernel_from_binary(path)

    @pytest.mark.parametrize("cut, extra, message", [(8, b"", "truncated"),
                                                     (3, b"", "truncated"),
                                                     (0, b"\0" * 8, "too long")])
    def test_wrong_payload_length(self, tmp_path, cut, extra, message):
        path = tmp_path / "k.bin"
        kernel_to_binary(build_kernel(4), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - cut] + extra)
        with pytest.raises(ValueError, match=message):
            kernel_from_binary(path)

    def test_csv_full_precision(self, tmp_path):
        k = build_kernel(9)
        path = tmp_path / "k.csv"
        kernel_to_csv(k, path)
        rows = [
            [float(x) for x in line.split(",")]
            for line in path.read_text().strip().splitlines()
        ]
        np.testing.assert_array_equal(np.array(rows), k.probs)
