"""Vectorized simulation of CCRR rounds across many replicate decks.

One CCRR round processes cards in start-of-round position order, so every
replicate executes the same schedule and only the insertion slots differ.
That makes the round vectorizable across replicates with two passes:

Forward pass.  Keep, per replicate, a Fenwick tree over "skeleton" slots
1..n (the cards of the start-of-round deck, in their unchanged relative
order) plus a virtual bottom card at n+1.  Every slot holds 1 for its card
plus the number of already-processed cards parked in the gap directly
above it, so prefix sums count deck positions.  Step k takes skeleton
card k out but leaves its slot as it is: the cards counted in slots 1..k
all sit above card k+1, and slots 1..k hold k units more than those
cards.  So the reinsertion at final rank u is the search for prefix u + k,
and a search that ends in slot 1..k lands in the gap above card k+1.
Either way it yields v_k = number of processed cards above the insertion
point.  Because processed cards never change order relative to each
other except through these insertions, the v_k fully determine the final
arrangement.  The virtual bottom card makes u = n land in the bottom gap
by an ordinary search.

Reverse pass.  The final deck is the pure insertion sequence "card k
enters at rank v_k + 1 among processed cards"; walking k = n..1 and
claiming the (v_k + 1)-th free slot of a fresh Fenwick tree yields every
card's final position in O(n log n) per replicate, all replicates in
lockstep.  A caller that reads one card's final position needs no
reverse pass: its rank among the processed cards moves down one for each
later card inserted at or above it (``card_round_positions``).

Both passes use one fused descent.  A tree is one flat row-major array,
node j of replicate c at j * R + c, so each level reads its R nodes with
one ``take`` at a tracked flat index.  Rows past the last slot hold a
sentinel no search passes, out to the descent's reach (twice the highest
power of two <= size), so no index is clamped or masked.  The nodes a
descent does not pass are exactly the found slot's update chain, so the
descent adds the pass's +1 (forward) or -1 (reverse) to them as it goes.
"""

from __future__ import annotations

import numpy as np

from .deck import ReplicateStreams, RngStream

__all__ = ["batch_round_positions", "card_round_positions", "BatchCcrr",
           "uniform_positions"]

_SENTINEL = 1 << 30  # above every prefix a descent searches for


class _UnitTrees:
    """R Fenwick trees over slots 1..size, every weight 1 at the start."""

    def __init__(self, size, reps):
        self.reps = reps
        self.top = 1 << size.bit_length() >> 1  # highest power of two <= size
        node = np.arange(2 * self.top)
        node = np.where(node <= size, node & -node, _SENTINEL).astype(np.int32)
        self.flat = np.repeat(node, reps)  # node j of replicate c at j * reps + c
        self._cols = np.arange(reps, dtype=np.intp)
        self._nxt = np.empty(reps, dtype=np.intp)
        self._t, self._e, self._skip, self._tmp = np.empty((4, reps), dtype=np.int32)

    def descend(self, below, delta):
        """Row f - 1 of the smallest slot f with prefix(f) > below, per replicate.

        Adds ``delta`` (+1 or -1) to slot f's weight in the same descent.
        ``below`` (int32) is consumed.
        """
        reps, flat, nxt = self.reps, self.flat, self._nxt
        t, e, skip, tmp = self._t, self._e, self._skip, self._tmp
        update = np.subtract if delta > 0 else np.add  # t - skip: +1 where skip
        bit = self.top
        np.add(self._cols, bit * reps, out=nxt)
        while True:
            flat.take(nxt, out=t)
            np.subtract(below, t, out=e)
            np.right_shift(e, 31, out=skip)  # -1 where the node is not passed
            update(t, skip, out=tmp)
            flat[nxt] = tmp  # a node not passed is on slot f's update chain
            np.bitwise_and(t, skip, out=tmp)
            np.add(e, tmp, out=below)  # below - t where passed
            np.bitwise_and(skip, bit * reps, out=tmp)
            np.subtract(nxt, tmp, out=nxt)  # the row reached so far
            bit >>= 1
            if not bit:
                return nxt // reps
            np.add(nxt, bit * reps, out=nxt)


def _forward_pass(slots):
    """Yield v_k for k = 1..n: per replicate, the processed cards above the
    point where card k is reinserted.  The yielded int32 array is reused."""
    reps, n = slots.shape
    below = np.empty(reps, dtype=np.int32)
    v = np.empty(reps, dtype=np.int32)
    tree = _UnitTrees(n + 1, reps)
    for k in range(1, n + 1):
        # insert at final rank u: pass u - 1 cards and the k processed units
        um1 = slots[:, k - 1] - 1
        np.add(um1, k, out=below)
        row = tree.descend(below, +1)
        # v_k = processed cards above: u - 1, less the live skeleton above
        np.minimum(um1, um1 + k - row, out=v)
        yield v


def batch_round_positions(slots):
    """Final positions after one CCRR round, per replicate.

    slots[r, k-1] in 1..n is the final rank drawn for the card processed
    k-th (the card in start-of-round position k) in replicate r.  Returns
    an int32 array of the same shape: entry [r, k-1] is that card's
    position at the end of the round.
    """
    slots = np.asarray(slots, dtype=np.int32)
    reps, n = slots.shape
    out = np.empty((reps, n), dtype=np.int32)
    for k, v in enumerate(_forward_pass(slots)):
        out[:, k] = v

    # reverse pass: card k claims the (v_k + 1)-th free final slot; its
    # final position overwrites v_k in place
    below = np.empty(reps, dtype=np.int32)
    tree = _UnitTrees(n, reps)
    for k in range(n, 0, -1):
        below[:] = out[:, k - 1]
        np.add(tree.descend(below, -1), 1, out=out[:, k - 1])
    return out


def card_round_positions(slots, k):
    """Final position after one CCRR round of the card processed k-th.

    Equals batch_round_positions(slots)[:, k - 1] from the forward pass
    alone: card k enters at rank v_k + 1 among the processed cards, and
    each later card j, entering at rank v_j + 1, pushes it down one when
    v_j < its rank.  Returns an int32 array with one entry per replicate.
    """
    slots = np.asarray(slots, dtype=np.int32)
    if not 1 <= k <= slots.shape[1]:
        raise ValueError(f"card {k} outside 1..{slots.shape[1]}")
    rank = np.empty(len(slots), dtype=np.int32)
    for j, v in enumerate(_forward_pass(slots), start=1):
        if j == k:
            np.add(v, 1, out=rank)
        elif j > k:
            rank += v < rank
    return rank


class BatchCcrr:
    """R replicate decks evolved round by round under CCRR.

    Replicate r draws its slots as RngStream(seed, stream_base + r) would
    (through one ReplicateStreams), n draws per round, so any single
    replicate reproduces exactly the sequential Deck simulation driven by
    that stream.
    """

    def __init__(self, n, reps, seed, stream_base=1):
        self.n = n
        self.reps = reps
        self.seed = seed
        self.stream_base = stream_base
        self._streams = ReplicateStreams(seed, stream_base, reps)
        self.order = np.tile(np.arange(1, n + 1, dtype=np.int32), (reps, 1))
        self.rounds_done = 0

    def draw_slots(self):
        return self._streams.slots(self.n, self.n)

    def run_round(self, slots=None):
        """Advance every replicate one round; returns the slots used."""
        if slots is None:
            slots = self.draw_slots()
        fp = batch_round_positions(slots)
        new_order = np.empty_like(self.order)
        np.put_along_axis(new_order, fp - 1, self.order, axis=1)
        self.order = new_order
        self.rounds_done += 1
        return slots

    def positions(self):
        """pos[r, c-1] = current position of card c in replicate r."""
        pos = np.empty_like(self.order)
        np.put_along_axis(
            pos,
            self.order - 1,
            np.broadcast_to(np.arange(1, self.n + 1, dtype=np.int32), self.order.shape),
            axis=1,
        )
        return pos


def uniform_positions(n, reps, seed, stream_base=1):
    """Positions of cards in ``reps`` independent uniform decks."""
    pos = np.empty((reps, n), dtype=np.int32)
    for r in range(reps):
        stream = RngStream(seed, stream_base + r)
        perm = stream.permutation(n)  # perm[p-1] = card at position p
        inv = np.empty(n, dtype=np.int32)
        inv[perm - 1] = np.arange(1, n + 1, dtype=np.int32)
        pos[r] = inv
    return pos
