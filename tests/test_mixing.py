import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from shuffle_spectra import (
    CapabilityError,
    PermDistribution,
    RngStream,
    build_kernel,
    check_conditional_bands,
    empirical_single_card,
    exact_round_push,
    exact_single_card_kernel,
    round_position_law,
    run_lower_bound_experiment,
    second_eig_b,
    tv_to_uniform,
    uniform_positions,
)
from shuffle_spectra import batch, mixing
from shuffle_spectra.batch import batch_round_positions
from shuffle_spectra.mixing import all_perms, perm_rank, rank_rows

import brute


class TestPermIndexing:
    def test_lexicographic_order(self):
        perms = all_perms(3)
        assert perms.tolist() == [
            [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
        ]

    def test_rank_round_trip(self):
        perms = all_perms(5)
        ranks = rank_rows(perms)
        assert ranks.tolist() == list(range(math.factorial(5)))
        assert perm_rank(perms[77]) == 77


class TestPermDistribution:
    def test_point_mass_tv(self):
        for n in (2, 3, 4):
            dist = PermDistribution.point_mass(n)
            assert tv_to_uniform(dist) == 1 - Fraction(1, math.factorial(n))

    def test_uniform_tv_zero(self):
        assert tv_to_uniform(PermDistribution.uniform(4)) == 0
        assert tv_to_uniform(PermDistribution.uniform(6)) == pytest.approx(0.0, abs=1e-15)

    def test_total_mass(self):
        assert PermDistribution.point_mass(4).total() == 1
        assert PermDistribution.uniform(6).total() == pytest.approx(1.0)

    def test_cap(self):
        with pytest.raises(CapabilityError):
            PermDistribution.point_mass(8)

    @pytest.mark.parametrize("order", [(1, 1, 3), (1, 2), (0, 1, 2), (2, 3, 4)])
    def test_point_mass_rejects_a_non_permutation(self, order):
        with pytest.raises(ValueError, match="permutation"):
            PermDistribution.point_mass(3, order=order)


class TestExactRoundPush:
    def test_ccrr_n2_by_hand(self):
        # four equally likely slot pairs; (1,*) and (2,2) leave [1,2], the
        # rest give [2,1] -- both orders end up equally likely
        dist = exact_round_push(PermDistribution.point_mass(2), "ccrr")
        assert dist.probs.tolist() == [Fraction(1, 2), Fraction(1, 2)]

    @pytest.mark.parametrize("n", [3, 4])
    def test_ccrr_matches_brute_enumerator(self, n):
        dist = PermDistribution.point_mass(n)
        bdist = brute.brute_point_mass(n)
        for _ in range(3):
            dist = exact_round_push(dist, "ccrr")
            bdist = brute.brute_push(bdist, n, "ccrr")
            for order, p in bdist.items():
                assert dist.probs[perm_rank([c - 1 for c in order])] == p

    @pytest.mark.parametrize("kind, n, rounds, start", [
        pytest.param("top", 3, 1, (1, 2, 3), id="top"),
        pytest.param("cyclic", 3, 1, (1, 2, 3), id="cyclic"),
        pytest.param("transpositions", 3, 1, (1, 2, 3), id="transpositions"),
        pytest.param("top", 4, 2, (3, 1, 4, 2), id="top-n4-scrambled-2rounds"),
        pytest.param("cyclic", 4, 2, (3, 1, 4, 2), id="cyclic-n4-scrambled-2rounds"),
        pytest.param("transpositions", 3, 2, (1, 2, 3), id="transpositions-2rounds"),
    ])
    def test_baselines_match_brute_enumerator(self, kind, n, rounds, start):
        dist = PermDistribution.point_mass(n, order=start)
        bdist = {start: Fraction(1)}
        for _ in range(rounds):
            dist = exact_round_push(dist, kind)
            bdist = brute.brute_push(bdist, n, kind)
        for order, p in bdist.items():
            assert dist.probs[perm_rank([c - 1 for c in order])] == p

    @pytest.mark.parametrize("n, rounds, start", [
        pytest.param(3, 2, (1, 2, 3), id="n3-sorted-2rounds"),
        pytest.param(4, 3, (1, 2, 3, 4), id="n4-sorted-3rounds"),
        pytest.param(4, 3, (3, 1, 4, 2), id="n4-scrambled-3rounds"),
    ])
    def test_ccr_matches_brute_enumerator(self, n, rounds, start):
        dist = PermDistribution.point_mass(n, order=start)
        bdist = {start: Fraction(1)}
        for _ in range(rounds):
            dist = exact_round_push(dist, "ccr")
            bdist = brute.brute_push(bdist, n, "ccr")
        for order, p in bdist.items():
            assert dist.probs[perm_rank([c - 1 for c in order])] == p

    def test_uniform_is_stationary(self):
        u = PermDistribution.uniform(4)
        out = exact_round_push(u, "ccrr")
        assert all(p == Fraction(1, 24) for p in out.probs)

    def test_round_kernel_start_state_independent(self):
        # push a point mass at a scrambled order and compare against the
        # literal replay from that same order: the position-map law learned
        # from the sorted deck must transfer verbatim
        n = 4
        start = (3, 1, 4, 2)
        dist = PermDistribution.point_mass(n, order=start)
        pushed = exact_round_push(dist, "ccrr")
        bdist = brute.brute_push({start: Fraction(1)}, n, "ccrr")
        for order, p in bdist.items():
            assert pushed.probs[perm_rank([c - 1 for c in order])] == p

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_ccrr_push_is_the_law_convolution(self, n):
        # q'(o') = sum_F P(F) q(o' o F): the card in start position k lands
        # in position F(k), from any start, not only a point mass
        perms = all_perms(n)
        size = perms.shape[0]
        if n <= 5:
            q = np.full(size, Fraction(0), dtype=object)
            q[7], q[size - 2] = Fraction(1, 3), Fraction(2, 3)
        else:
            q = np.random.default_rng(6).random(size)
            q /= q.sum()
        dist = PermDistribution(n=n, probs=q)
        assert dist.exact == (n <= 5)
        law = round_position_law(n, "ccrr").probs
        direct = sum(law[j] * q[rank_rows(perms[:, perms[j]])] for j in np.flatnonzero(law))
        pushed = exact_round_push(dist, "ccrr").probs
        if n <= 5:
            assert pushed.tolist() == direct.tolist()
        else:
            np.testing.assert_allclose(pushed, direct, rtol=0, atol=1e-15)

    def test_tv_non_increasing(self):
        dist = PermDistribution.point_mass(4)
        prev = tv_to_uniform(dist)
        for _ in range(5):
            dist = exact_round_push(dist, "ccrr")
            cur = tv_to_uniform(dist)
            assert cur <= prev
            prev = cur

    def test_mass_conserved(self):
        dist = PermDistribution.point_mass(5)
        for _ in range(2):
            dist = exact_round_push(dist, "ccrr")
        assert sum(dist.probs) == 1

    def test_float_path_at_n6(self):
        dist = PermDistribution.point_mass(6)
        assert not dist.exact
        out = exact_round_push(dist, "ccrr")
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(tv_to_uniform(out)) < float(tv_to_uniform(dist))

    @pytest.mark.parametrize("kind, n, rounds", [
        *[(kind, 5, 3) for kind in ("ccrr", "ccr", "top", "cyclic", "transpositions")],
        ("ccrr", 6, 2), ("ccr", 6, 2), ("top", 6, 1), ("cyclic", 6, 1),
        ("transpositions", 6, 1),
    ])
    def test_float_path_matches_rational_push(self, kind, n, rounds):
        exact = PermDistribution.point_mass(n, exact=True)
        approx = PermDistribution.point_mass(n, exact=False)
        for _ in range(rounds):
            exact = exact_round_push(exact, kind)
            approx = exact_round_push(approx, kind)
        assert exact.exact and not approx.exact
        np.testing.assert_allclose(approx.probs, exact.as_floats(), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_ccrr_law_matches_batch_round_over_all_slot_vectors(self, n):
        slots = np.indices((n,) * n, dtype=np.int16).reshape(n, -1).T + 1
        positions = batch_round_positions(slots)
        counts = np.bincount(rank_rows(positions - 1), minlength=math.factorial(n))
        law = round_position_law(n, "ccrr")
        if law.exact:
            assert law.probs.tolist() == [Fraction(int(c), n**n) for c in counts]
        else:
            np.testing.assert_allclose(law.probs, counts / n**n, rtol=0, atol=1e-15)

    def test_cold_ccrr_push_at_n7_stays_small(self, monkeypatch):
        # every gather reads one table of n^2 rank arrays, 2 MB at n = 7;
        # a table per state and move would be over 17 MB
        monkeypatch.setattr(mixing, "_PERMS_CACHE", {})
        monkeypatch.setattr(mixing, "_STEPS_CACHE", {})
        start = PermDistribution.point_mass(7)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            exact_round_push(start, "ccrr")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_ccr_capability_cap(self):
        # CCR pushes through n = 7 like every kind; its round 1 from the
        # sorted deck is CCRR's round 1
        for n in (6, 7):
            start = PermDistribution.point_mass(n)
            ccr = exact_round_push(start, "ccr").probs
            ccrr = exact_round_push(start, "ccrr").probs
            assert np.abs(ccr - ccrr).max() <= 1e-15
        too_big = PermDistribution(n=8, probs=np.zeros(math.factorial(8)))
        with pytest.raises(CapabilityError):
            exact_round_push(too_big, "ccr")

    def test_ccr_law_not_exposed(self):
        with pytest.raises(CapabilityError):
            round_position_law(4, "ccr")


class TestExactSingleCardKernel:
    def test_n1(self):
        k = exact_single_card_kernel(1, "ccrr")
        assert k[0][0] == Fraction(1)

    def test_n2_from_four_outcomes(self):
        k = exact_single_card_kernel(2, "ccrr")
        for i in range(2):
            for j in range(2):
                assert k[i][j] == Fraction(1, 2)

    def test_rows_sum_exactly_one(self):
        k = exact_single_card_kernel(4, "ccrr")
        for row in k:
            assert sum(row) == Fraction(1)

    def test_matches_brute_single_card(self):
        n = 4
        k = exact_single_card_kernel(n, "ccrr")
        for card in (1, 3):
            counts = brute.brute_single_card_row(n, card)
            for j in range(n):
                assert k[card - 1][j] == Fraction(int(counts[j]), n**n)

    def test_rows_match_pushforward_marginal_n5(self):
        n = 5
        k = exact_single_card_kernel(n, "ccrr")
        pushed = exact_round_push(PermDistribution.point_mass(n), "ccrr")
        perms = all_perms(n)
        for card in (1, 3, 5):
            marg = [Fraction(0)] * n
            for idx, p in enumerate(pushed.probs):
                if p:
                    pos = perms[idx].tolist().index(card - 1)
                    marg[pos] += p
            for j in range(n):
                assert marg[j] == k[card - 1][j]

    @pytest.mark.parametrize("kind", ["ccrr", "cyclic", "top", "transpositions"])
    def test_equals_the_round_law_marginals(self, kind):
        for n in range(1, 8):  # card k ends in position F(k), F the round's map
            law = round_position_law(n, kind)
            want = np.zeros((n, n), dtype=law.probs.dtype)
            for k in range(n):
                np.add.at(want[k], all_perms(n)[:, k], law.probs)
            got = exact_single_card_kernel(n, kind)
            if law.exact:
                assert got.dtype == object and (got == want).all()
            else:  # summed in another order: 1e-14 is about 45 ulps of 1
                assert np.abs(got - want).max() <= 1e-14

    def test_ccr_alias(self):
        a = exact_single_card_kernel(3, "ccr")
        b = exact_single_card_kernel(3, "ccrr")
        assert all(a[i][j] == b[i][j] for i in range(3) for j in range(3))


class _PerReplicateStreams:
    """Draws as the Monte Carlo layer used to make them: one RngStream per
    replicate."""

    def __init__(self, seed, stream_base, reps):
        self.rngs = [RngStream(seed, stream_base + r) for r in range(reps)]

    def slots(self, n, count):
        return np.array([g.slots(n, count) for g in self.rngs], dtype=np.int32)


def _full_round_column(slots, k):
    return batch_round_positions(slots)[:, k - 1]


class TestEmpiricalSingleCard:
    @pytest.mark.parametrize("n, reps, chunk", [(6, 20_000, 7_000),
                                                (1000, 1500, 600)])
    def test_equals_per_replicate_streams_and_the_full_round(
            self, monkeypatch, n, reps, chunk):
        monkeypatch.setattr(mixing, "CHUNK_ROWS", chunk)
        got = empirical_single_card(n, 0.5, reps, seed=13)
        monkeypatch.setattr(mixing, "ReplicateStreams", _PerReplicateStreams)
        monkeypatch.setattr(mixing, "card_round_positions", _full_round_column)
        want = empirical_single_card(n, 0.5, reps, seed=13)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert np.array_equal(a, b), field.name

    def test_row_converges_to_exact(self):
        n = 6
        exact_row = np.asarray(exact_single_card_kernel(n, "ccrr")[2], dtype=float)
        tvs = []
        for reps in (1000, 10_000, 100_000):
            stats = empirical_single_card(n, 3 / n, reps, seed=4242)
            tvs.append(0.5 * np.abs(stats.row_estimate() - exact_row).sum())
        assert tvs[2] < tvs[0]
        assert tvs[2] < 0.02

    def test_bands_hold_at_moderate_scale(self):
        stats = empirical_single_card(300, 0.5, 20_000, seed=7)
        mean_fail, var_fail = check_conditional_bands(stats)
        assert mean_fail == []
        assert var_fail == []

    def test_grid_point_required(self):
        with pytest.raises(ValueError):
            empirical_single_card(100, 0.5005, 10)

    def test_depth_beyond_the_deck_rejected(self):
        with pytest.raises(ValueError):
            empirical_single_card(10, 2.0, 5)

    @pytest.mark.parametrize("reps", [0, -3])
    def test_reps_checked_before_any_work(self, monkeypatch, reps):
        def draw(*args, **kwargs):
            raise AssertionError("drew before validating reps")

        monkeypatch.setattr(mixing, "ReplicateStreams", draw)
        with pytest.raises(ValueError, match="reps"):
            empirical_single_card(10, 0.5, reps)

    def test_counts_and_histogram_consistent(self):
        stats = empirical_single_card(50, 0.5, 2000, seed=1)
        assert stats.counts.sum() == 2000
        assert stats.row_hist.sum() == 2000


class TestStatisticAndExperiment:
    def test_constant_phi_is_order_blind(self):
        n = 16
        stat = mixing.TestStatistic(np.full(n, 1.0))
        pos = uniform_positions(n, 40, seed=2)
        vals = stat.from_positions(pos)
        # a constant positive profile sums itself regardless of the deck
        expected = np.full(40, stat.phi.sum())
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    def test_s0_on_sorted_deck(self):
        phi = np.array([0.5, -0.5, 0.5, -0.5])
        stat = mixing.TestStatistic(phi)
        assert stat.s0() == pytest.approx(stat.phi[stat.mask].sum())
        assert stat.from_positions(np.arange(1, 5)) == pytest.approx(stat.s0())

    def test_stationary_moments_match_uniform_decks(self):
        # the closed form against its Monte Carlo oracle: 10,000 uniform decks
        n = 200
        k = build_kernel(n)
        est = second_eig_b(k.matvec, n)
        stat = mixing.TestStatistic(np.real(est.vector))
        mean, var = stat.stationary()
        vals = stat.from_positions(uniform_positions(n, 10_000, seed=9))
        size = len(vals)
        se_mean = vals.std(ddof=1) / np.sqrt(size)
        dev = vals - vals.mean()
        se_var = np.sqrt((np.mean(dev**4) - vals.var() ** 2) / size)
        assert abs(vals.mean() - mean) < 4 * se_mean
        assert abs(vals.var(ddof=1) - var) < 4 * se_var

    def test_stationary_moments_by_enumeration(self):
        # every placement of the positive-part cards, weighted equally
        phi = np.array([0.9, -0.3, 0.4, -0.8, 0.2, 0.1])
        stat = mixing.TestStatistic(phi)
        m = int(stat.mask.sum())
        sums = [stat.phi[list(c)].sum() for c in itertools.combinations(range(6), m)]
        mean, var = stat.stationary()
        assert mean == pytest.approx(np.mean(sums), abs=1e-15)
        assert var == pytest.approx(np.var(sums), abs=1e-15)

    def test_zero_rounds_deterministic(self):
        n = 60
        k = build_kernel(n)
        est = second_eig_b(k.matvec, n)
        traj = run_lower_bound_experiment(
            n, 0, 50, np.real(est.vector), abs(est.value), seed=5
        )
        assert traj.var_s[0] == 0.0
        stat = mixing.TestStatistic(np.real(est.vector))
        assert traj.mean_abs[0] == pytest.approx(abs(stat.s0()), rel=1e-12)

    def test_decay_tracks_lambda_at_small_scale(self):
        n = 400
        k = build_kernel(n)
        est = second_eig_b(k.matvec, n, tol=1e-12)
        lam = abs(est.value)
        traj = run_lower_bound_experiment(
            n, 4, 1500, np.real(est.vector), lam, seed=31
        )
        # signed-mean fit over its signal window stays close to |lambda|
        assert traj.signed_window >= 2
        assert traj.r_hat_signed == pytest.approx(lam, abs=0.04)
        # round-1 ratio alone is already close
        assert traj.mean_abs[1] / traj.mean_abs[0] == pytest.approx(lam, abs=0.04)

    def test_summary_and_rows(self):
        n = 50
        k = build_kernel(n)
        est = second_eig_b(k.matvec, n)
        traj = run_lower_bound_experiment(n, 2, 100, np.real(est.vector),
                                          abs(est.value), seed=3)
        rows = traj.to_rows()
        assert len(rows) == 3
        assert rows[0][0] == 0 and rows[0][3] == 100
        summary = traj.summary()
        assert {"r_hat", "tau", "separation_margin", "lambda"} <= set(summary)

    def test_var_inf_is_the_closed_form(self):
        n = 50
        est = second_eig_b(build_kernel(n).matvec, n)
        phi = np.real(est.vector)
        traj = run_lower_bound_experiment(n, 2, 100, phi, abs(est.value), seed=3)
        phi = phi / np.linalg.norm(phi)
        m = np.count_nonzero(phi > 0)
        want = m * (n - m) / (n - 1) * np.mean((phi - phi.mean()) ** 2)
        assert traj.var_inf == pytest.approx(want, rel=1e-13)
        assert traj.separation_margin == pytest.approx(
            traj.mean_abs[traj.tau]
            / (3 * (math.sqrt(traj.var_s[traj.tau]) + math.sqrt(want))), rel=1e-13)

    def test_no_stationary_monte_carlo(self, monkeypatch):
        # the stationary side is exact: no uniform deck, no RngStream
        from shuffle_spectra import batch, deck

        def draw(*args, **kwargs):
            raise AssertionError("drew a uniform deck")

        for mod in (batch, mixing):
            monkeypatch.setattr(mod, "uniform_positions", draw)
        for mod in (batch, deck):
            monkeypatch.setattr(mod, "RngStream", draw)
        traj = run_lower_bound_experiment(30, 2, 20, np.linspace(-1, 1, 30), 0.2,
                                          seed=4)
        assert traj.var_inf > 0

    def test_complex_phi_rejected(self):
        with pytest.raises(ValueError):
            run_lower_bound_experiment(8, 1, 10, np.ones(8) * 1j, 0.2)

    def test_single_replicate_rejected(self):
        # one replicate has no sample variance, so no round could fail the
        # 4-standard-error test of the signed window
        with pytest.raises(ValueError, match="reps"):
            run_lower_bound_experiment(8, 3, 1, np.linspace(-1, 1, 8), 0.2)

    def test_chunks_do_not_change_the_result(self, monkeypatch):
        # replicate r draws from stream base + r whichever pass it is in
        phi = np.linspace(-1, 1, 30)
        whole = run_lower_bound_experiment(30, 3, 50, phi, 0.2, seed=8)
        monkeypatch.setattr(batch, "CHUNK_ROWS", 7)
        chunked = run_lower_bound_experiment(30, 3, 50, phi, 0.2, seed=8)
        for field in dataclasses.fields(whole):
            a, b = getattr(whole, field.name), getattr(chunked, field.name)
            assert np.array_equal(a, b), field.name

    def test_phi_grid_mismatch(self):
        with pytest.raises(ValueError):
            run_lower_bound_experiment(8, 1, 10, np.ones(9), 0.2)

    def test_s0_growth_constant_measured(self):
        # S_0 should grow roughly like a constant times n^{4/9}; the
        # constant is measured, not asserted to any reference value
        cs = {}
        for n in (300, 600, 1200):
            k = build_kernel(n)
            est = second_eig_b(k.matvec, n)
            stat = mixing.TestStatistic(np.real(est.vector))
            cs[n] = abs(stat.s0()) / n ** (4 / 9)
        vals = np.array(list(cs.values()))
        assert np.all(vals > 0.2) and np.all(vals < 1.5)
        assert vals.max() / vals.min() < 1.6  # stable across a 4x range of n
