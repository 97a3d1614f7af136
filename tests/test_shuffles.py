import numpy as np
import pytest

from shuffle_spectra import Deck, RngStream, ShuffleKind, run_round


class FixedRng:
    """Feeds a predetermined sequence of draws to the round drivers."""

    def __init__(self, draws):
        self.draws = list(draws)

    def slot(self, n):
        return self.draws.pop(0)


class TestRoundBasics:
    @pytest.mark.parametrize("kind", list(ShuffleKind))
    def test_n1_is_identity(self, kind):
        deck = run_round(Deck.identity(1), kind, RngStream(0, 0))
        assert deck.order == [1]

    @pytest.mark.parametrize("kind", list(ShuffleKind))
    def test_round_draws_exactly_its_slots(self, kind):
        # n draws per round (2n for transpositions): one draw missing raises,
        # and none is left over
        n = 6
        per_step = 2 if kind is ShuffleKind.RANDOM_TRANSPOSITIONS else 1
        rng = FixedRng([1 + i % n for i in range(per_step * n)])
        deck = Deck.identity(n)
        assert run_round(deck, kind, rng) is deck
        assert rng.draws == []
        with pytest.raises(IndexError):
            run_round(deck, kind, FixedRng([1] * (per_step * n - 1)))

    def test_ccrr_n2_hand_trace(self):
        # slots (2, 1): the starting top card goes to the bottom, then the
        # card that started second (now on top) is reinserted on top
        deck = run_round(Deck.identity(2), ShuffleKind.CCRR, FixedRng([2, 1]))
        assert deck.order == [2, 1]

    def test_trace_has_n_steps_and_positions(self):
        deck = run_round(Deck.identity(7), ShuffleKind.CCRR, RngStream(3, 1))
        assert sorted(deck.order) == list(range(1, 8))

    def test_round1_ccr_equals_ccrr(self):
        for seed in range(5):
            a = run_round(Deck.identity(20), ShuffleKind.CCR, RngStream(seed, 0))
            b = run_round(Deck.identity(20), ShuffleKind.CCRR, RngStream(seed, 0))
            assert a.order == b.order

    def test_ccr_processes_labels_ccrr_processes_positions(self):
        # after one identical first round the schedules diverge
        seed = 11
        a = Deck.identity(30)
        b = Deck.identity(30)
        rng_a, rng_b = RngStream(seed, 0), RngStream(seed, 0)
        run_round(a, ShuffleKind.CCR, rng_a)
        run_round(b, ShuffleKind.CCRR, rng_b)
        assert a.order == b.order
        run_round(a, ShuffleKind.CCR, rng_a)
        run_round(b, ShuffleKind.CCRR, rng_b)
        assert a.order != b.order  # differs with overwhelming probability


class TestRunRounds:
    def test_ccr_vs_ccrr_divergence_n52(self):
        a, b = Deck.identity(52), Deck.identity(52)
        rng_a, rng_b = RngStream(7, 0), RngStream(7, 0)
        for _ in range(2):
            run_round(a, ShuffleKind.CCR, rng_a)
            run_round(b, ShuffleKind.CCRR, rng_b)
        assert a.order != b.order

    def test_long_run_card1_occupancy_uniform(self):
        # occupancy of card 1's position along one long CCRR trajectory;
        # multinomial 3-sigma bands inflated x2 for round-to-round correlation
        n, rounds, burn = 5, 10_000, 100
        deck = Deck.identity(n)
        rng = RngStream(123, 0)
        counts = np.zeros(n + 1)
        for _ in range(burn):
            run_round(deck, ShuffleKind.CCRR, rng)
        for _ in range(rounds):
            run_round(deck, ShuffleKind.CCRR, rng)
            counts[deck.position_of(1)] += 1
        freq = counts[1:] / rounds
        sigma = np.sqrt((1 / n) * (1 - 1 / n) / rounds)
        assert np.abs(freq - 1 / n).max() < 3 * sigma * 2


class TestBaselines:
    def test_top_to_random_moves_top(self):
        deck = run_round(
            Deck.identity(4), ShuffleKind.TOP_TO_RANDOM, FixedRng([4, 4, 4, 4])
        )
        # each step sends the current top card to the bottom
        assert deck.order == [1, 2, 3, 4]

    def test_top_to_random_identity_slots(self):
        deck = run_round(
            Deck.identity(4), ShuffleKind.TOP_TO_RANDOM, FixedRng([1, 1, 1, 1])
        )
        assert deck.order == [1, 2, 3, 4]

    def test_transpositions_record_pairs(self):
        # (1<->3), (2<->2), (3<->1)
        deck = run_round(
            Deck.identity(3), ShuffleKind.RANDOM_TRANSPOSITIONS,
            FixedRng([1, 3, 2, 2, 3, 1]),
        )
        assert deck.order == [1, 2, 3]
        deck = run_round(
            Deck.identity(3), ShuffleKind.RANDOM_TRANSPOSITIONS,
            FixedRng([1, 2, 1, 2, 2, 3]),
        )
        assert deck.order == [1, 3, 2]

    def test_cyclic_swaps_position_k(self):
        deck = run_round(
            Deck.identity(3), ShuffleKind.CYCLIC_TO_RANDOM, FixedRng([2, 3, 1])
        )
        # (1<->2), then (2<->3), then (3<->1)
        assert deck.order == [1, 3, 2]

    def test_parse(self):
        assert ShuffleKind.parse("CCRR") is ShuffleKind.CCRR
        assert ShuffleKind.parse("top") is ShuffleKind.TOP_TO_RANDOM
        with pytest.raises(ValueError):
            ShuffleKind.parse("riffle")
