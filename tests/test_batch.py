import tracemalloc

import numpy as np
import pytest

from shuffle_spectra import (
    BatchCcrr,
    Deck,
    RngStream,
    ShuffleKind,
    batch_round_positions,
    card_round_positions,
    run_round,
    uniform_positions,
)

from brute import literal_round


class TestBatchRoundAgainstLiteralReplay:
    def test_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            slots = rng.integers(1, n + 1, size=(1, n))
            fp = batch_round_positions(slots)[0]
            final = literal_round(tuple(range(1, n + 1)), "ccrr", slots[0].tolist())
            expected = [final.index(k) + 1 for k in range(1, n + 1)]
            assert fp.tolist() == expected

    def test_many_replicates_at_once(self):
        rng = np.random.default_rng(1)
        n, reps = 6, 500
        slots = rng.integers(1, n + 1, size=(reps, n))
        fp = batch_round_positions(slots)
        for r in range(0, reps, 37):
            final = literal_round(tuple(range(1, n + 1)), "ccrr", slots[r].tolist())
            assert fp[r].tolist() == [final.index(k) + 1 for k in range(1, n + 1)]

    def test_rows_are_permutations(self):
        rng = np.random.default_rng(2)
        slots = rng.integers(1, 13, size=(64, 12))
        fp = batch_round_positions(slots)
        assert np.array_equal(np.sort(fp, axis=1), np.tile(np.arange(1, 13), (64, 1)))


def _edge_sizes():
    # the reverse tree's top power of two moves at n = 2^k, the forward
    # tree's (slots 1..n plus the bottom card) at n = 2^k - 1
    sizes = {1, 2, 3}
    for k in range(2, 8):
        sizes.update(range(2**k - 2, 2**k + 2))
    return sorted(sizes)


class TestBatchRoundDescentEdges:
    @pytest.mark.parametrize("n", _edge_sizes())
    def test_matches_literal_replay(self, n):
        rng = np.random.default_rng(n)
        slots = np.stack([rng.integers(1, n + 1, size=n),  # random
                          np.ones(n, dtype=np.int64),      # every card to the top
                          np.full(n, n)])                  # every card to the bottom
        fp = batch_round_positions(slots)
        for row, draws in zip(fp, slots):
            final = literal_round(tuple(range(1, n + 1)), "ccrr", draws.tolist())
            assert row.tolist() == [final.index(k) + 1 for k in range(1, n + 1)]

    @pytest.mark.parametrize("n", _edge_sizes())
    def test_one_card_pass_matches_every_column(self, n):
        rng = np.random.default_rng(1000 + n)
        slots = np.vstack([rng.integers(1, n + 1, size=(5, n)),
                           np.ones((1, n), dtype=np.int64),
                           np.full((1, n), n)])
        fp = batch_round_positions(slots)
        for k in range(1, n + 1):
            got = card_round_positions(slots, k)
            assert got.dtype == np.int32
            assert np.array_equal(got, fp[:, k - 1])

    @pytest.mark.parametrize("k", [0, 6])
    def test_one_card_pass_rejects_a_card_outside_the_deck(self, k):
        with pytest.raises(ValueError):
            card_round_positions(np.ones((2, 5), dtype=np.int32), k)

    def test_peak_memory_below_four_position_arrays(self):
        n, reps = 1000, 100
        slots = np.random.default_rng(3).integers(1, n + 1, size=(reps, n),
                                                  dtype=np.int32)
        tracemalloc.start()
        try:
            batch_round_positions(slots)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * reps * n * np.dtype(np.int32).itemsize


class TestBatchCcrrEquivalence:
    def test_replicates_match_sequential_decks(self):
        # replicate r of the batch is bit-for-bit the Deck simulation driven
        # by RngStream(seed, stream_base + r), n draws per round; an odd n
        # splits a 64-bit word across rounds
        reps, rounds, seed = 5, 3, 99
        for n in (30, 31):
            sim = BatchCcrr(n, reps, seed, stream_base=1)
            decks = [Deck.identity(n) for _ in range(reps)]
            rngs = [RngStream(seed, 1 + r) for r in range(reps)]
            for _ in range(rounds):
                sim.run_round()
                for d, rng in zip(decks, rngs):
                    run_round(d, ShuffleKind.CCRR, rng)
            for r in range(reps):
                assert sim.order[r].tolist() == decks[r].order

    def test_positions_invert_order(self):
        sim = BatchCcrr(12, 8, 5)
        sim.run_round()
        pos = sim.positions()
        for r in range(8):
            for p in range(12):
                card = sim.order[r, p]
                assert pos[r, card - 1] == p + 1

    def test_round_counter(self):
        sim = BatchCcrr(5, 3, 1)
        assert sim.rounds_done == 0
        sim.run_round()
        sim.run_round()
        assert sim.rounds_done == 2


class TestUniformPositions:
    def test_valid_and_deterministic(self):
        a = uniform_positions(9, 20, 77)
        b = uniform_positions(9, 20, 77)
        assert np.array_equal(a, b)
        assert np.array_equal(np.sort(a, axis=1), np.tile(np.arange(1, 10), (20, 1)))

    def test_mean_depth_near_half(self):
        pos = uniform_positions(10, 4000, 3)
        depth = pos[:, 0] / 10
        assert abs(depth.mean() - 0.55) < 3 * depth.std(ddof=1) / np.sqrt(4000)
