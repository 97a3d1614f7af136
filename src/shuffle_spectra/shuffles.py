"""Round drivers for the card shuffles under study.

A round is n consecutive single-card moves.  The two headline shuffles:

* CCR: at step k of every round, the card with original label k (the card
  that started the whole process in position k) is removed and reinserted
  at a uniform position.
* CCRR: same as CCR in round 1; at the start of each later round the cards
  are relabeled by their current positions.  Equivalently (and how it is
  implemented here), each CCRR round processes cards in the order of the
  positions they hold when the round starts, so no labels are mutated.

Baselines: top-to-random (move the current top card to a uniform
position), random transpositions (swap two uniformly chosen cards) and
cyclic-to-random (swap the card in position k with a uniformly chosen
card), each grouped into rounds of n steps.
"""

from __future__ import annotations

import enum

__all__ = ["ShuffleKind", "run_round"]


class ShuffleKind(enum.Enum):
    CCR = "ccr"
    CCRR = "ccrr"
    CYCLIC_TO_RANDOM = "cyclic"
    TOP_TO_RANDOM = "top"
    RANDOM_TRANSPOSITIONS = "transpositions"

    @classmethod
    def parse(cls, name: str) -> "ShuffleKind":
        for kind in cls:
            if kind.value == name.lower():
                return kind
        raise ValueError(f"unknown shuffle kind {name!r}")


# One loop per kind: a single loop branching on the kind at every step is
# measurably slower on the sequential decks.


def _round_ccr(deck, rng):
    n = deck.n
    for card in range(1, n + 1):
        deck.remove_insert(card, rng.slot(n))


def _round_ccrr(deck, rng):
    n = deck.n
    for card in deck.to_order():
        deck.remove_insert(card, rng.slot(n))


def _round_top_to_random(deck, rng):
    n = deck.n
    for _ in range(n):
        deck.remove_insert(deck.card_at(1), rng.slot(n))


def _round_random_transpositions(deck, rng):
    n = deck.n
    for _ in range(n):
        deck.swap_positions(rng.slot(n), rng.slot(n))


def _round_cyclic_to_random(deck, rng):
    n = deck.n
    for k in range(1, n + 1):
        deck.swap_positions(k, rng.slot(n))


_ROUNDS = {
    ShuffleKind.CCR: _round_ccr,
    ShuffleKind.CCRR: _round_ccrr,
    ShuffleKind.TOP_TO_RANDOM: _round_top_to_random,
    ShuffleKind.RANDOM_TRANSPOSITIONS: _round_random_transpositions,
    ShuffleKind.CYCLIC_TO_RANDOM: _round_cyclic_to_random,
}


def run_round(deck, kind, rng):
    """Run one round (n single-card moves) on ``deck`` in place; return it.

    CCR processes cards by their fixed original labels; CCRR by the
    positions held at the start of this round, which is the relabeling
    semantics without mutating any labels.  Each step draws one uniform
    slot from ``rng.slot(n)``; a random transposition draws two.
    """
    _ROUNDS[kind](deck, rng)
    return deck
