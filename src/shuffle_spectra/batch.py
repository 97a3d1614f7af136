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
lockstep.  A caller that reads card k's final position needs no reverse
pass, and no tree after step k (``card_round_positions``).

Both passes use one fused descent.  A tree of R lanes is one flat array
stored level by level, as in a binary heap: level l (bit = top >> l, top
the highest power of two <= size) holds the nodes bit * (2m + 1), each
lane's 2^l of them contiguous.  Behind a pad of R + 1 entries, node
bit * (2m + 1) of lane c sits at g = 2^l (R + c) + m + 1, so a step to the
left child is g -> 2g - 1 and to the right g -> 2g, and each level reads
its R nodes with one ``take``.  The step past the last level lands on
2 top (R + c) + 1 plus the row reached.  Nodes past the last slot hold a
sentinel no search passes, so no index is clamped or masked.  The nodes a
descent does not pass are exactly the found slot's update chain, so the
descent adds the pass's +1 (forward) or -1 (reverse) to them as it goes.

A pass spans rounds x replicates rows.  With relabeling every round maps
start-of-round positions 1..n through its own slots alone, so a run is a
composition of independent round maps, and ``BatchCcrr`` computes several
rounds' maps in one pass over a block of rows, in place: each row's slots
become v_k, then final positions.  The call count of a pass depends on n,
not on its rows, so stacking rounds divides the calls a run makes.

Storage width.  Tree nodes reach 2n + 1 and the searched prefixes stay
below 2n, so a block and its trees are int16 while n < 2^13 and int32
from there on.  The sentinel is 2^(bits - 2): 2^14 for int16, 2^30 for
int32.  A sentinel node is never passed, so each descent through it adds
the forward pass's +1; after n < 2^(bits - 3) descents it is still below
2^(bits - 1) and does not overflow, and after the reverse pass's n
decrements it is still above every prefix searched.  The flat index of a
tree node is kept in intp whatever the storage width.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .deck import ReplicateStreams, RngStream

__all__ = ["batch_round_positions", "card_round_positions", "BatchCcrr",
           "ccrr_rounds", "uniform_positions"]

# Rows per batched pass: replicates, or rounds x replicates in BatchCcrr.
# On 2 CPUs, 2048 to 16,384 rows ran the one-card pass at n = 1000 equally
# fast, and 8192 ran full rounds at n = 2000 10% faster than 4096; but a
# pass's trees and slots grow as rows x n, and at n = 10^4 one of 4096
# rows already peaks near 450 MB.
CHUNK_ROWS = 4096


def _storage(n):
    """The narrowest dtype a round's block and trees fit in (module notes)."""
    return np.dtype(np.int16 if n < 1 << 13 else np.int32)


class _UnitTrees:
    """R Fenwick trees over slots 1..size, every weight 1 at the start."""

    def __init__(self, size, reps, dtype):
        bits = dtype.itemsize * 8
        top = 1 << size.bit_length() >> 1  # highest power of two <= size
        self.levels = top.bit_length()
        # level by level (module notes), filled in place
        self.flat = np.empty(2 * top * reps + 1, dtype=dtype)
        self.flat[: reps + 1] = 0
        for l in range(self.levels):
            bit, width = top >> l, 1 << l
            level = self.flat[reps * width + 1 : 2 * reps * width + 1].reshape(reps, width)
            live = (size // bit + 1) // 2  # nodes bit * (2m + 1) <= size
            level[:, :live] = bit
            level[:, live:] = 1 << bits - 2
        lanes = np.arange(reps, dtype=np.intp)
        self._root = lanes + (reps + 1)
        self._base = 2 * top * (lanes + reps) + 1  # where row 0 would sit
        self._shift = np.array(bits - 1, dtype=dtype)
        self._g, self._row = np.empty((2, reps), dtype=np.intp)
        self._t, self._e, self._skip, self._tmp = np.empty((4, reps), dtype=dtype)

    def descend(self, below, delta):
        """Row f - 1 of the smallest slot f with prefix(f) > below, per replicate.

        Adds ``delta`` (+1 or -1) to slot f's weight in the same descent.
        ``below`` (the trees' dtype) is consumed, and the returned array is
        reused.
        """
        flat, nxt = self.flat, self._g
        t, e, skip, tmp = self._t, self._e, self._skip, self._tmp
        update = np.subtract if delta > 0 else np.add  # t - skip: +1 where skip
        g = self._root
        for _ in range(self.levels):
            flat.take(g, out=t, mode="clip")
            np.subtract(below, t, out=e)
            np.right_shift(e, self._shift, out=skip)  # -1 where the node is not passed
            update(t, skip, out=tmp)
            flat[g] = tmp  # a node not passed is on slot f's update chain
            np.bitwise_and(t, skip, out=tmp)
            np.add(e, tmp, out=below)  # below - t where passed
            np.add(g, g, out=nxt)
            np.add(nxt, skip, out=nxt)  # the left child 2g - 1, or the right 2g
            g = nxt
        return np.subtract(g, self._base, out=self._row)


def _forward_pass(slots):
    """Yield v_k for k = 1..n: per row, the processed cards above the point
    where card k is reinserted.  Runs in slots' dtype; reads column k - 1
    before it yields v_k, and the yielded array is reused."""
    rows, n = slots.shape
    um1, below, v = np.empty((3, rows), dtype=slots.dtype)
    cut = np.empty(rows, dtype=np.intp)
    one = slots.dtype.type(1)
    tree = _UnitTrees(n + 1, rows, slots.dtype)
    for k in range(1, n + 1):
        # insert at final rank u: pass u - 1 cards and the k processed units
        kk = slots.dtype.type(k)
        np.subtract(slots[:, k - 1], one, out=um1)
        np.add(um1, kk, out=below)
        row = tree.descend(below, +1)
        # v_k = processed cards above: u - 1, less the live skeleton above
        np.subtract(kk, row, out=cut)
        np.add(cut, um1, out=cut)
        np.minimum(um1, cut, out=v)
        yield v


def _checked(slots):
    """slots as an array of rows of draws from 1..n, or ValueError."""
    slots = np.asarray(slots)
    if slots.ndim != 2:
        raise ValueError("slots must be a (rows, n) array")
    n = slots.shape[1]
    if slots.size and not (slots.min() >= 1 and slots.max() <= n):
        raise ValueError(f"slots must lie in 1..{n}")
    return slots


def batch_round_positions(slots, out=None):
    """Final positions after one CCRR round, per replicate.

    slots[r, k-1] in 1..n is the final rank drawn for the card processed
    k-th (the card in start-of-round position k) in replicate r.  Returns
    an int32 array of the same shape: entry [r, k-1] is that card's
    position at the end of the round.  With ``out`` (int32, or int16 while
    n < 2^13; it may be slots itself) the positions are written there
    instead, and the pass runs in out's dtype.
    """
    slots = _checked(slots)
    n = slots.shape[1]
    if out is None:
        out = slots.astype(np.int32)
    elif out.dtype not in (np.dtype(np.int32), _storage(n)):
        raise ValueError(f"out must be int32 or {_storage(n)} at n = {n}")
    elif out is not slots:
        np.copyto(out, slots, casting="same_kind")
    for k, v in enumerate(_forward_pass(out)):
        out[:, k] = v  # slot k + 1 has been read

    # reverse pass: card k claims the (v_k + 1)-th free final slot; its
    # final position overwrites v_k in place
    below = np.empty(len(out), dtype=out.dtype)
    tree = _UnitTrees(n, len(out), out.dtype)
    for k in range(n, 0, -1):
        below[:] = out[:, k - 1]
        np.add(tree.descend(below, -1), 1, out=out[:, k - 1])
    return out


def card_round_positions(slots, k):
    """Final position after one CCRR round of the card processed k-th.

    Equals batch_round_positions(slots)[:, k - 1] from k forward steps:
    card k lands at z = u_k, just below skeleton cards k+1..last (last =
    u_k - 1 + k - v_k), and keeps its order with the cards not yet moved.
    So each later card j lowers z by one if it leaves from above (j <=
    last) and raises it by one if it re-enters at u_j <= z.  Returns an
    int32 array with one entry per replicate.
    """
    slots = _checked(slots).astype(np.int32, copy=False)
    n = slots.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"card {k} outside 1..{n}")
    v = next(islice(_forward_pass(slots), k - 1, None))
    z = slots[:, k - 1].copy()
    last = z - 1 + k - v
    for j in range(k + 1, n + 1):
        z -= last >= j
        z += z >= slots[:, j - 1]
    return z


class BatchCcrr:
    """R replicate decks evolved through ``rounds`` CCRR rounds.

    Replicate r draws its slots as RngStream(seed, stream_base + r) would
    (through one ReplicateStreams), n draws per round, so any single
    replicate reproduces exactly the sequential Deck simulation driven by
    that stream.  The state is every card's position: a CCRR round moves
    cards by their start-of-round positions alone.  Round maps are
    computed CHUNK_ROWS // R rounds at a time (at least one) in one
    batched pass, and each run_round composes the next of them.
    """

    def __init__(self, n, reps, seed, rounds, stream_base=1):
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        self.n = n
        self.reps = reps
        self.seed = seed
        self.stream_base = stream_base
        self._left = rounds  # rounds not yet run
        self._maps = []  # computed round maps not yet composed, next last
        self._streams = ReplicateStreams(seed, stream_base, reps)
        self._pos = np.tile(np.arange(1, n + 1, dtype=np.int32), (reps, 1))

    def draw_slots(self):
        return self._streams.slots(self.n, self.n)

    def _next_maps(self):
        """The next rounds' maps from one pass over a rounds x reps block."""
        reps = self.reps
        m = min(self._left, max(1, CHUNK_ROWS // max(reps, 1)))
        block = np.empty((m * reps, self.n), dtype=_storage(self.n))
        for i in range(m):  # round by round, as the streams are read
            block[i * reps : (i + 1) * reps] = self.draw_slots()
        batch_round_positions(block, out=block)
        self._maps = np.split(block, m)[::-1]

    def run_round(self):
        """Advance every replicate one round."""
        if not self._left:
            raise ValueError("every round of this run has been run")
        if not self._maps:
            self._next_maps()
        fp = self._maps.pop()
        self._left -= 1
        # a new array: positions() handed out earlier stay as they were
        self._pos = np.take_along_axis(fp, self._pos - 1, axis=1).astype(np.int32, copy=False)

    def positions(self):
        """pos[r, c-1] = current position of card c in replicate r.

        The caller must not write into it.
        """
        return self._pos


def ccrr_rounds(n, rounds, reps, seed, read):
    """Row t - 1: ``read(positions)`` of every replicate after round t.

    ``read`` maps (R, n) positions to R values and is called after rounds
    1..rounds only.  Replicate r draws from RngStream(seed, 1 + r), in
    BatchCcrr runs of at most CHUNK_ROWS replicates.
    """
    out = np.empty((rounds, reps))
    for done in range(0, reps, CHUNK_ROWS):
        r = min(CHUNK_ROWS, reps - done)
        sim = BatchCcrr(n, r, seed, rounds, 1 + done)
        for t in range(rounds):
            sim.run_round()
            out[t, done : done + r] = read(sim.positions())
    return out


def uniform_positions(n, reps, seed, stream_base=1):
    """Card positions in ``reps`` uniform decks: the stationary moments' oracle."""
    pos = np.empty((reps, n), dtype=np.int32)
    for r in range(reps):
        stream = RngStream(seed, stream_base + r)
        perm = stream.permutation(n)  # perm[p-1] = card at position p
        inv = np.empty(n, dtype=np.int32)
        inv[perm - 1] = np.arange(1, n + 1, dtype=np.int32)
        pos[r] = inv
    return pos
