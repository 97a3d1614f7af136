import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffle_spectra import (
    Deck,
    FastDeck,
    RngStream,
)


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
        with pytest.raises(ValueError):
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
            for p, c in enumerate(d.order, start=1):
                assert d.inv[c] == p

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

    @given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_fastdeck_swap_and_rank_ops(self, triples):
        d = Deck.identity(9)
        f = FastDeck.identity(9, block_size=2)
        for i, j, slot in triples:
            d.swap_positions(i, j)
            f.swap_positions(i, j)
            assert f.to_order() == d.order
            card = d.card_at(slot)
            assert f.card_at(slot) == card


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
