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

from .deck import Deck

__all__ = ["ShuffleKind", "run_round"]


class ShuffleKind(enum.Enum):
    CCR = "ccr"
    CCRR = "ccrr"
    CYCLIC_TO_RANDOM = "cyclic"
    TOP_TO_RANDOM = "top"
    RANDOM_TRANSPOSITIONS = "transpositions"


# Branch on the kind once per round, not at every step: a per-step branch
# is measurably slower on the sequential decks.


def run_round(deck, kind, rng):
    """Run one round (n single-card moves) on ``deck`` in place; return it.

    CCR processes cards by their fixed original labels; CCRR by the
    positions held at the start of this round, which is the relabeling
    semantics without mutating any labels.  The round's uniform slots come
    from one call, ``rng.slots(n, n)``, and step k uses draw k; a random
    transposition reads ``rng.slots(n, (n, 2))`` as (i, j) pairs.  An
    ``RngStream`` gives the same draws to this call as to n (or 2n) scalar
    ``rng.slot(n)`` calls in turn.

    The draws are checked against 1..n once, before any card moves, so a
    bad draw raises ValueError and leaves the deck as it was.  A ``Deck``
    then runs its moves with no per-step method call or range check (the
    up-front check is what keeps ``insert`` from clamping an index): the
    swap kinds on ``deck.order`` itself, the remove/insert kinds on a
    bytearray copy of it when n < 256 and on the list from n = 256, and
    ``deck.order`` stays the same list of ints.  Any other deck runs them
    through its own ``card_at``, ``remove_insert`` and ``swap_positions``.
    """
    n = deck.n
    pairs = kind is ShuffleKind.RANDOM_TRANSPOSITIONS
    draws = rng.slots(n, (n, 2) if pairs else n)
    if draws.size and not (draws.min() >= 1 and draws.max() <= n):
        raise ValueError(f"slots must lie in 1..{n}")
    draws = draws.tolist()
    if isinstance(deck, Deck):
        _list_round(deck.order, kind, draws)
    elif pairs:
        for i, j in draws:
            deck.swap_positions(i, j)
    elif kind is ShuffleKind.CYCLIC_TO_RANDOM:
        for k, j in enumerate(draws, start=1):
            deck.swap_positions(k, j)
    elif kind is ShuffleKind.TOP_TO_RANDOM:
        for slot in draws:
            deck.remove_insert(deck.card_at(1), slot)
    else:  # CCR and CCRR differ only in their schedule
        schedule = range(1, n + 1) if kind is ShuffleKind.CCR else deck.to_order()
        for card, slot in zip(schedule, draws):
            deck.remove_insert(card, slot)
    return deck


def _list_round(order, kind, draws):
    """The round's moves on a deck's order list; draws lie in 1..n.

    The remove/insert kinds run on a bytearray while the labels fit in a
    byte, where ``remove`` is one memchr rather than n/2 int comparisons.
    A bytearray item swap is slower than a list's, so the swap kinds stay
    on the list.
    """
    if kind is ShuffleKind.RANDOM_TRANSPOSITIONS:
        for i, j in draws:
            order[i - 1], order[j - 1] = order[j - 1], order[i - 1]
        return
    if kind is ShuffleKind.CYCLIC_TO_RANDOM:
        for k, j in enumerate(draws):
            order[k], order[j - 1] = order[j - 1], order[k]
        return
    cards = bytearray(order) if len(order) < 256 else order
    if kind is ShuffleKind.TOP_TO_RANDOM:
        pop, insert = cards.pop, cards.insert
        for slot in draws:
            insert(slot - 1, pop(0))
    else:
        schedule = range(1, len(cards) + 1) if kind is ShuffleKind.CCR else cards[:]
        remove, insert = cards.remove, cards.insert
        for card, slot in zip(schedule, draws):
            remove(card)
            insert(slot - 1, card)
    if cards is not order:
        order[:] = cards
