import bisect
import itertools
import tracemalloc

import numpy as np
import pytest

from shuffle_spectra import (
    BatchCcrr,
    Deck,
    RngStream,
    ShuffleKind,
    batch,
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

    def test_one_card_pass_builds_no_tree(self, monkeypatch):
        slots = np.random.default_rng(50).integers(1, 51, size=(8, 50))
        fp = batch_round_positions(slots)

        class NoTree:
            def __init__(self, *args):
                raise AssertionError("the one-card pass built a tree")

        monkeypatch.setattr(batch, "_UnitTrees", NoTree)
        for k in (1, 17, 50):
            assert np.array_equal(card_round_positions(slots, k), fp[:, k - 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_card_pass_on_every_slot_vector(self, n):
        slots = np.array(list(itertools.product(range(1, n + 1), repeat=n)))
        fp = batch_round_positions(slots)
        replayed = np.array([_replayed(draws) for draws in slots])
        assert np.array_equal(fp, replayed)
        for k in range(1, n + 1):
            assert np.array_equal(card_round_positions(slots, k), fp[:, k - 1])

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


class TestUnitTreesAgainstWeightLists:
    # the oracle is the definition: per replicate, a list of slot weights,
    # searched by bisection on its prefix sums
    @pytest.mark.parametrize("reps", [1, 5])
    @pytest.mark.parametrize("size, dtype", [
        *((size, dtype) for size in (1, 2, 3, 7, 8, 9, 17, 1000)
          for dtype in (np.int16, np.int32)),
        (8001, np.int16),  # slots 8002..8191 of the top level are sentinels
    ])
    def test_random_descents(self, size, dtype, reps):
        rng = np.random.default_rng(size * 10 + reps)
        tree = batch._UnitTrees(size, reps, np.dtype(dtype))
        weights = [[1] * size for _ in range(reps)]
        for step in range(min(3 * size, 300)):
            totals = [sum(w) for w in weights]
            # a search needs a unit past it, so no lane empties
            delta = +1 if min(totals) == 1 or rng.random() < 0.5 else -1
            # searches at the first and last unit and at random ones
            below = [0 if step % 5 == 0 else t - 1 if step % 5 == 1
                     else int(rng.integers(t)) for t in totals]
            want = []
            for w, b in zip(weights, below):
                row = bisect.bisect_right(list(itertools.accumulate(w)), b)
                w[row] += delta
                want.append(row)
            got = tree.descend(np.array(below, dtype=dtype), delta)
            assert got.tolist() == want, (step, delta)


class TestRejectsSlotsOutsideTheDeck:
    @pytest.mark.parametrize("slots", [[[5, 1, 1]], [[0, 1, 1]], [[1, 2, -3]]])
    def test_full_round(self, slots):
        with pytest.raises(ValueError, match="1..3"):
            batch_round_positions(slots)

    def test_one_card_pass(self):
        with pytest.raises(ValueError, match="1..3"):
            card_round_positions([[7, 1, 1]], 1)

    def test_before_any_descent(self, monkeypatch):
        def descend(*args):
            raise AssertionError("descended before validating the slots")

        monkeypatch.setattr(batch._UnitTrees, "descend", descend)
        with pytest.raises(ValueError):
            batch_round_positions([[1, 2, 4]])
        with pytest.raises(ValueError):
            card_round_positions([[1, 2, 4]], 3)


def _replayed(draws):
    """Every card's final position after one literal CCRR round."""
    n = len(draws)
    final = literal_round(tuple(range(1, n + 1)), "ccrr", draws.tolist())
    pos = np.empty(n, dtype=np.int64)
    pos[np.array(final) - 1] = np.arange(1, n + 1)
    return pos


class TestStorageWidth:
    @staticmethod
    def _check_both_widths(n, random_rows):
        rng = np.random.default_rng(2000 + n)
        slots = np.vstack([rng.integers(1, n + 1, size=(random_rows, n)),
                           np.ones((1, n), dtype=np.int64),   # every card to the top
                           np.full((1, n), n)])               # every card to the bottom
        narrow = batch_round_positions(slots, out=np.empty(slots.shape, np.int16))
        wide = batch_round_positions(slots)
        assert narrow.dtype == np.int16 and wide.dtype == np.int32
        assert np.array_equal(narrow, wide)
        for row, draws in zip(narrow, slots):
            assert np.array_equal(row, _replayed(draws))
        return slots, wide

    @pytest.mark.parametrize("n", _edge_sizes())
    def test_int16_and_int32_give_the_replayed_maps(self, n):
        self._check_both_widths(n, 5)

    @pytest.mark.parametrize("n", [8000, 2**13 - 1])
    def test_widest_int16_decks(self, n):
        # at n = 2^13 - 1 the forward tree's nodes reach 2n + 1 = 2^14 - 1;
        # at n = 8000 the forward tree has sentinel nodes, and the every-
        # card-to-the-bottom row reaches them, unpassed, in each of its n
        # descents, raising them to 2^14 + 8000; the one-card pass of the
        # last card walks its cursor back over every earlier card, in int16
        slots, wide = self._check_both_widths(n, 1)
        assert np.array_equal(card_round_positions(slots, n), wide[:, n - 1])

    def test_one_card_pass_width(self, monkeypatch):
        widths = set()

        class Recording:
            """numpy, but greater_equal notes its operands' dtypes."""

            def __getattr__(self, name):
                return getattr(np, name)

            def greater_equal(self, a, b, **kwargs):
                widths.add((a.dtype, b.dtype))
                return np.greater_equal(a, b, **kwargs)

        monkeypatch.setattr(batch, "np", Recording())
        for n, dtype in ((2**13 - 1, np.int16), (2**13, np.int32)):
            widths.clear()
            # the last card: a cursor step over every earlier card, no later one
            got = card_round_positions(np.ones((2, n), dtype=np.int32), n)
            assert got.tolist() == [1, 1]
            assert widths == {(np.dtype(dtype), np.dtype(dtype))}

    def test_int32_from_2_pow_13(self, monkeypatch):
        with pytest.raises(ValueError, match="int32"):
            batch_round_positions(np.ones((1, 2**13), dtype=np.int32),
                                  out=np.empty((1, 2**13), np.int16))

        class Stop(Exception):
            pass

        widths = []

        def spy(slots, out=None):
            widths.append(out.dtype)
            raise Stop

        monkeypatch.setattr(batch, "batch_round_positions", spy)
        for n in (2**13 - 1, 2**13):
            with pytest.raises(Stop):
                BatchCcrr(n, 2, 0, 1).run_round()
        assert widths == [np.int16, np.int32]

    def test_in_place_on_the_slots(self):
        slots = np.random.default_rng(4).integers(1, 10, size=(6, 9)).astype(np.int16)
        want = batch_round_positions(slots)
        assert batch_round_positions(slots, out=slots) is slots
        assert np.array_equal(slots, want)


class TestBatchCcrrEquivalence:
    # reps = 5 and 3 rounds: a block of 1 round, 2 rounds then a partial
    # last block of 1, every round in one block
    @pytest.mark.parametrize("chunk_rows", [1, 5, 10, 4096])
    def test_replicates_match_sequential_decks(self, monkeypatch, chunk_rows):
        # replicate r of the batch is bit-for-bit the Deck simulation driven
        # by RngStream(seed, stream_base + r), n draws per round; an odd n
        # splits a 64-bit word across rounds
        monkeypatch.setattr(batch, "CHUNK_ROWS", chunk_rows)
        reps, rounds, seed = 5, 3, 99
        for n in (30, 31):
            sim = BatchCcrr(n, reps, seed, rounds, stream_base=1)
            decks = [Deck.identity(n) for _ in range(reps)]
            rngs = [RngStream(seed, 1 + r) for r in range(reps)]
            for _ in range(rounds):
                sim.run_round()
                for d, rng in zip(decks, rngs):
                    run_round(d, ShuffleKind.CCRR, rng)
                pos = sim.positions()
                assert pos.dtype == np.int32
                for r in range(reps):
                    want = [decks[r].position_of(c) for c in range(1, n + 1)]
                    assert pos[r].tolist() == want

    @pytest.mark.parametrize("chunk_rows", [8, 16])
    def test_positions_handed_out_stay_put(self, monkeypatch, chunk_rows):
        # a caller may keep positions() across rounds (the last one is read
        # after the run), so a round must not write into it, within a block
        # or across a block boundary
        monkeypatch.setattr(batch, "CHUNK_ROWS", chunk_rows)
        sim = BatchCcrr(12, 8, 5, 3)
        start = sim.positions()
        assert start.tolist() == [list(range(1, 13))] * 8
        handed = [start]
        for _ in range(3):
            kept = [p.copy() for p in handed]
            sim.run_round()
            assert all(np.array_equal(p, q) for p, q in zip(handed, kept))
            assert not np.array_equal(sim.positions(), kept[-1])
            handed.append(sim.positions())
        for row in sim.positions():
            assert sorted(row.tolist()) == list(range(1, 13))

    def test_round_count_is_checked(self):
        with pytest.raises(ValueError, match="rounds"):
            BatchCcrr(5, 2, 0, -1)
        sim = BatchCcrr(5, 2, 0, 2)
        sim.run_round()
        sim.run_round()
        with pytest.raises(ValueError):
            sim.run_round()
        assert BatchCcrr(5, 2, 0, 0).positions().tolist() == [[1, 2, 3, 4, 5]] * 2


class TestCcrrRounds:
    @pytest.mark.parametrize("chunk_rows", [3, 4096])
    def test_readings_match_sequential_decks(self, monkeypatch, chunk_rows):
        # replicate r on stream 1 + r in every chunk; read after rounds
        # 1..rounds only, once per round per chunk
        monkeypatch.setattr(batch, "CHUNK_ROWS", chunk_rows)
        n, rounds, reps, seed = 9, 3, 7, 21
        calls = []

        def read(pos):
            calls.append(len(pos))
            return pos[:, 4]

        got = batch.ccrr_rounds(n, rounds, reps, seed, read)
        assert got.shape == (rounds, reps) and got.dtype == np.float64
        per_chunk = [min(chunk_rows, reps - d) for d in range(0, reps, chunk_rows)]
        assert calls == [r for r in per_chunk for _ in range(rounds)]
        for r in range(reps):
            deck, rng = Deck.identity(n), RngStream(seed, 1 + r)
            for t in range(rounds):
                run_round(deck, ShuffleKind.CCRR, rng)
                assert got[t, r] == deck.position_of(5)

    def test_no_rounds_reads_nothing(self):
        def read(pos):
            raise AssertionError("read the start deck")

        assert batch.ccrr_rounds(5, 0, 4, 1, read).shape == (0, 4)


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
