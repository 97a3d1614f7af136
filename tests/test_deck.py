import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffle_spectra import (
    Deck,
    FastDeck,
    ReplicateStreams,
    RngStream,
    ShuffleKind,
    run_round,
)
from shuffle_spectra.deck import _VECTOR_WORDS as _V


class TestRemoveInsert:
    def test_reinsert_at_own_position_is_identity(self):
        d = Deck([1, 2, 3])
        d.remove_insert(1, 1)
        assert d.order == [1, 2, 3]

    def test_top_to_bottom(self):
        d = Deck([1, 2, 3])
        d.remove_insert(1, 3)
        assert d.order == [2, 3, 1]

    def test_hand_traced_case(self):
        # [3,1,2]: card 2 sits at position 3; removing it gives [3,1] and
        # inserting at final position 1 gives [2,3,1]
        d = Deck([3, 1, 2])
        d.remove_insert(2, 1)
        assert d.order == [2, 3, 1]

    def test_identity_for_any_card(self):
        for card in (1, 2, 3, 4):
            d = Deck([4, 3, 2, 1])
            p = d.position_of(card)
            d.remove_insert(card, p)
            assert d.order == [4, 3, 2, 1]

    def test_card_absent(self):
        with pytest.raises(ValueError, match="card 7 not in deck"):
            Deck([1, 2, 3]).remove_insert(7, 1)

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            Deck([1, 2, 3]).remove_insert(1, 0)
        with pytest.raises(ValueError):
            Deck([1, 2, 3]).remove_insert(1, 4)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            Deck([1, 1, 3])


ops = st.lists(
    st.tuples(st.integers(1, 8), st.integers(1, 8)), min_size=0, max_size=60
)


class TestBijectionInvariant:
    @given(ops)
    @settings(max_examples=200, deadline=None)
    def test_deck_inverse_consistency(self, moves):
        d = Deck.identity(8)
        for card, slot in moves:
            d.remove_insert(card, slot)
            assert sorted(d.order) == list(range(1, 9))

    @given(ops)
    @settings(max_examples=200, deadline=None)
    def test_fastdeck_tracks_deck(self, moves):
        d = Deck.identity(8)
        f = FastDeck.identity(8, block_size=2)  # tiny blocks force splits
        for card, slot in moves:
            d.remove_insert(card, slot)
            f.remove_insert(card, slot)
            assert f.to_order() == d.order
            for c in range(1, 9):
                assert f.position_of(c) == d.position_of(c)

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10)),
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_fastdeck_swap_and_rank_ops(self, triples):
        # positions 0 and 10 lie off the 9-card deck: both decks must raise
        # before moving a card, so their orders still agree
        d = Deck.identity(9)
        f = FastDeck.identity(9, block_size=2)
        for i, j, slot in triples:
            if 1 <= i <= 9 and 1 <= j <= 9:
                d.swap_positions(i, j)
                f.swap_positions(i, j)
            else:
                for deck in (d, f):
                    with pytest.raises(ValueError):
                        deck.swap_positions(i, j)
            assert f.to_order() == d.order
            if 1 <= slot <= 9:
                assert f.card_at(slot) == d.card_at(slot)
            else:
                for deck in (d, f):
                    with pytest.raises(ValueError):
                        deck.card_at(slot)


class TestFastDeckPrimitives:
    def test_remove_insert_at_rank(self):
        f = FastDeck.identity(6, block_size=2)
        card = f.remove_at_rank(2)
        assert card == 2
        assert f.to_order() == [1, 3, 4, 5, 6]
        f.insert_at_rank(5, 2)
        assert f.to_order() == [1, 3, 4, 5, 2, 6]

    def test_insert_at_end(self):
        f = FastDeck.identity(4, block_size=2)
        c = f.remove_at_rank(1)
        f.insert_at_rank(4, c)
        assert f.to_order() == [2, 3, 4, 1]

    def test_duplicate_insert_rejected(self):
        f = FastDeck.identity(4)
        with pytest.raises(ValueError):
            f.insert_at_rank(1, 3)

    def test_rank_errors(self):
        f = FastDeck.identity(4)
        with pytest.raises(ValueError):
            f.remove_at_rank(0)
        with pytest.raises(ValueError):
            f.card_at(5)
        with pytest.raises(ValueError):
            f.position_of(9)

    def test_equality_with_deck(self):
        f = FastDeck.identity(5)
        d = Deck.identity(5)
        assert f == d
        f.remove_insert(1, 5)
        assert f != d


class TestFullRoundEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fastdeck_matches_deck_over_rounds(self, seed):
        n = 1000
        rng_a = RngStream(seed, 0)
        rng_b = RngStream(seed, 0)
        d = Deck.identity(n)
        f = FastDeck.identity(n)
        for _ in range(2):  # two CCRR rounds
            schedule_d = list(d.order)
            for card in schedule_d:
                d.remove_insert(card, rng_a.slot(n))
            schedule_f = f.to_order()
            assert schedule_f == schedule_d
            for card in schedule_f:
                f.remove_insert(card, rng_b.slot(n))
            assert f.to_order() == d.order


class TestRecut:
    @staticmethod
    def _spy_cuts(monkeypatch):
        calls = []
        cut = FastDeck._cut

        def spy(self, order):
            calls.append(len(order))
            cut(self, order)

        monkeypatch.setattr(FastDeck, "_cut", spy)
        return calls

    @pytest.mark.parametrize("kind", list(ShuffleKind))
    def test_small_blocks_match_deck_over_rounds(self, monkeypatch, kind):
        n = 1000
        calls = self._spy_cuts(monkeypatch)
        d, f = Deck.identity(n), FastDeck.identity(n, block_size=16)
        rng_a, rng_b = RngStream(3, 0), RngStream(3, 0)
        for _ in range(3):
            run_round(d, kind, rng_a)
            run_round(f, kind, rng_b)
            assert f.to_order() == d.order
        assert all(f.position_of(c) == d.position_of(c) for c in range(1, n + 1))
        recuts = len(calls) - 1  # the first cut builds the deck
        if kind in (ShuffleKind.CCR, ShuffleKind.CCRR, ShuffleKind.TOP_TO_RANDOM):
            assert recuts > 0

    @pytest.mark.parametrize("kind", [ShuffleKind.CCRR, ShuffleKind.TOP_TO_RANDOM])
    def test_block_count_stays_at_n_over_block_size(self, kind):
        f = FastDeck.identity(4096, block_size=64)
        rng = RngStream(7, 0)
        for _ in range(12):
            run_round(f, kind, rng)
            assert len(f.blocks) == 64

    def test_emptied_block_is_skipped(self):
        f = FastDeck.identity(6, block_size=2)
        f.remove_card(3)
        f.remove_card(4)
        assert f.blocks[1] == []
        assert [f.card_at(p) for p in range(1, 5)] == [1, 2, 5, 6]
        f.insert_at_rank(3, 4)
        assert f.to_order() == [1, 2, 4, 5, 6]
        assert f.position_of(6) == 5


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 7).slots(100, 50)
        b = RngStream(42, 7).slots(100, 50)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).slots(100, 50)
        b = RngStream(42, 1).slots(100, 50)
        assert not np.array_equal(a, b)

    def test_slot_range(self):
        rng = RngStream(1, 1)
        draws = [rng.slot(6) for _ in range(2000)]
        assert min(draws) == 1
        assert max(draws) == 6
        # loose uniformity: each face within 5 sigma of 1/6
        counts = np.bincount(draws, minlength=7)[1:]
        sigma = np.sqrt(2000 * (1 / 6) * (5 / 6))
        assert np.abs(counts - 2000 / 6).max() < 5 * sigma

    def test_permutation(self):
        p = RngStream(5, 5).permutation(10)
        assert sorted(p.tolist()) == list(range(1, 11))


def _per_stream_draws(seed, base, reps, n, counts):
    """The oracle: one RngStream per replicate, one slots call per count."""
    rngs = [RngStream(seed, base + r) for r in range(reps)]
    return [np.array([g.slots(n, c) for g in rngs], dtype=np.int64).reshape(reps, c)
            for c in counts]


class TestReplicateStreams:
    # rows with odd counts leave a high half-word for the next call; n = 1
    # reads no word; n = 2^32 - 1 rejects one word in 2^32; rows of at most
    # _VECTOR_WORDS draws take the vectorized Philox, longer rows numpy's
    @pytest.mark.parametrize("n, counts, base", [
        (1, [3, 4], 3),
        (6, [6, 5, 6, 6], 3),
        (7, [7, 7, 7], 3),
        (1000, [1000, 999, 1000], 3),
        (2001, [2001, 2001], 3),  # 131 rows per numpy pass: three passes
        (2**32 - 1, [5, 6], 3),
        (2**32, [3, 3], 3),
        (1000, [_V - 1, _V, _V + 1, _V, _V + 1], 3),  # both sides of the switch
        (3 * 2**29, [13, 11, 13], 3),  # starts diverge after rejections
        (61, [61, 61], 2**64 - 25),  # the last 25 stream ids
    ])
    def test_matches_rng_stream_round_after_round(self, n, counts, base):
        reps = 300 if n == 2001 else 25
        streams = ReplicateStreams(11, base, reps)
        for got, want in zip((streams.slots(n, c) for c in counts),
                             _per_stream_draws(11, base, reps, n, counts)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, counts", [
        (3 * 2**29, [6, 5]),  # a quarter of all words rejected
        (3 * 2**30, [5, 9, 5]),  # a quarter again, and draws need int64
        (2**31 + 3, [7, 7, 7]),  # about half rejected
    ])
    def test_rejection_heavy_ranges(self, n, counts):
        streams = ReplicateStreams(5, 40, 30)
        for got, want in zip((streams.slots(n, c) for c in counts),
                             _per_stream_draws(5, 40, 30, n, counts)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("base", [0, 1, 977, 2**64 - 4])
    def test_stream_base_offsets(self, base):
        got = ReplicateStreams(2, base, 4).slots(50, 50)
        (want,) = _per_stream_draws(2, base, 4, 50, [50])
        assert np.array_equal(got, want)

    def test_zero_and_one_replicate(self):
        assert ReplicateStreams(1, 1, 0).slots(6, 6).shape == (0, 6)
        one, oracle = ReplicateStreams(1, 9, 1), RngStream(1, 9)
        for count in (3, 4):
            assert np.array_equal(one.slots(6, count)[0], oracle.slots(6, count))

    def test_int32_below_two_to_the_31(self):
        assert ReplicateStreams(1, 1, 2).slots(2**31 - 1, 3).dtype == np.int32

    @pytest.mark.parametrize("seed, base, reps", [
        (-1, 1, 3), (2**64, 1, 3), (1, -1, 3), (1, 2**64 - 2, 3), (1, 2**64, 0),
        (1, 1, -1),
    ])
    def test_out_of_range_ids_rejected(self, seed, base, reps):
        with pytest.raises(ValueError):
            ReplicateStreams(seed, base, reps)

    @pytest.mark.parametrize("n", [0, 2**32 + 1])
    def test_n_outside_the_32_bit_bound_rejected(self, n):
        with pytest.raises(ValueError):
            ReplicateStreams(1, 1, 2).slots(n, 3)
