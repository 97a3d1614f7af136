"""Deck state: naive array deck, blocked order-statistic deck, seeded RNG.

Cards are integers 1..n named after their starting positions (position 1 is
the top of the deck).  A deck moves cards in two ways.  remove_insert takes
a card out and reinserts it so that its final position among all n cards
is ``slot``: the deck transiently holds n-1 cards and n gaps, so a uniform
slot in {1..n} means a uniform final position.  swap_positions exchanges
the cards in two positions.

``Deck`` keeps only the order list (O(n) per operation, the reference
implementation); ``run_round`` moves the cards of a ``Deck`` under 256
cards on a bytearray copy, where finding a card is one memchr, and writes
them back into the list.  ``FastDeck`` cuts the order into list blocks
under a Fenwick tree of block sizes: rank queries, remove- and
insert-at-rank take O(log n) tree steps plus one small-block memmove, and
a block outgrowing twice the block size costs one O(n) re-cut; a swap is
two rank queries and an exchange in place.  Both produce identical orders for identical
operation sequences, and both reject positions outside 1..n.

Deck instances are not thread-safe; use one instance (and one RngStream)
per thread.  Distinct stream ids derived from one seed are independent.
``ReplicateStreams`` gives many streams' slot draws at once, equal to
theirs, without building a generator per stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Deck", "FastDeck", "ReplicateStreams", "RngStream"]

_WORD = 1 << 32  # a bounded draw reads 32-bit words
_CHUNK_WORDS = 1 << 18  # words bounded per numpy pass (2 MB of uint64)
_VECTOR_WORDS = 64  # rows of at most this many draws take the vectorized Philox


def _philox_words(seed, streams, starts, count):
    """Row r: 32-bit words starts[r] .. starts[r] + count - 1 of the stream
    keyed (seed, streams[r]), all rows in one vectorized pass.  Block b of
    a stream is Philox4x64-10 of counter (b + 1, 0, 0, 0), as in numpy."""

    def mulhilo(a, m):  # the 128-bit product a * m from 32-bit halves
        a_lo, a_hi, m_lo, m_hi = a & 0xFFFFFFFF, a >> 32, m & 0xFFFFFFFF, m >> 32
        ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
        mid = (ll >> 32) + (lh & 0xFFFFFFFF) + (hl & 0xFFFFFFFF)
        return a_hi * m_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), a * m

    block, skip = np.divmod(starts, 8)
    blocks = np.arange((int(skip.max()) + count + 7) // 8, dtype=np.uint64)
    c0 = (block + 1).astype(np.uint64)[:, None] + blocks
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = seed, streams[:, None]
    for _ in range(10):
        hi0, lo0 = mulhilo(c0, 0xD2E7470EE14C6C93)
        hi1, lo1 = mulhilo(c2, 0xCA5A826395121157)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) % 2**64, k1 + 0xBB67AE8584CAA73B
    words = np.stack([c0, c1, c2, c3], axis=-1).astype("<u8", copy=False).view("<u4")
    return np.take_along_axis(words.reshape(len(starts), -1),
                              skip[:, None] + np.arange(count), axis=1)


class RngStream:
    """Counter-based random stream: Philox keyed by (seed, stream).

    The same (seed, stream) pair always yields the same draw sequence, and
    distinct stream ids give statistically independent streams, so Monte
    Carlo replicates can each own stream ``base + replica`` and be run in
    any order or in parallel.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def slot(self, n: int) -> int:
        """One uniform draw from {1..n}."""
        return int(self.generator.integers(1, n + 1))

    def slots(self, n: int, size) -> np.ndarray:
        """Uniform draws from {1..n} with the given shape."""
        return self.generator.integers(1, n + 1, size=size)

    def permutation(self, n: int) -> np.ndarray:
        """A uniform permutation of 1..n (Fisher-Yates)."""
        return self.generator.permutation(n) + 1

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"


class ReplicateStreams:
    """The slot draws of RngStream(seed, stream_base + r), r < reps, batched.

    Row r of ``slots(n, count)`` is what RngStream(seed, stream_base +
    r).slots(n, count) returns at the same point of its sequence, call
    after call.  Numpy's Philox, keyed by (seed, stream), emits 64-bit
    words in blocks of four, block b at counter b + 1.  A draw from
    {1..n} reads the next 32-bit word x, low half of a 64-bit word first,
    and keeps Lemire's rule: it gives 1 + (x n >> 32) unless x n mod 2^32
    < 2^32 mod n, which rejects x.  So a stream's state is the number of
    32-bit words it has read.  Rows of more than ``_VECTOR_WORDS`` draws
    reset one reused Philox to each row's block and read it raw; shorter
    rows get every row's blocks from one vectorized Philox pass keyed per
    row, which wins below 64-96 words a row on 2 CPUs (4096 rows of 16
    words: 0.004 against 0.021 s) and is 2.6-3.2x slower at 1000 words.
    The bound runs over many rows in one numpy pass; only a row that met
    a rejection is bounded on its own.
    """

    def __init__(self, seed, stream_base, reps):
        self.seed, self.stream_base, self.reps = int(seed), int(stream_base), int(reps)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} outside 0..2^64-1")
        if self.reps < 0:
            raise ValueError("reps must be >= 0")
        if not 0 <= self.stream_base < 2**64 or self.stream_base + self.reps > 2**64:
            raise ValueError("stream ids must lie in 0..2^64-1")
        self._philox = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        self._counter, self._key = [0, 0, 0, 0], [self.seed, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        self._used = np.zeros(self.reps, dtype=np.int64)  # 32-bit words read

    def _words(self, r, start, out):
        """Stream r's 32-bit words start, start + 1, ... into ``out``."""
        block, skip = divmod(start, 8)
        self._key[1] = self.stream_base + r
        self._counter[0] = block  # the next block is counter block + 1
        self._philox.state = self._state
        raw = self._philox.random_raw((skip + out.size + 1) // 2)
        out[:] = raw.astype("<u8", copy=False).view("<u4")[skip : skip + out.size]

    def _bounded_row(self, r, start, n, count, threshold):
        """Row r's ``count`` draws from word ``start`` on, past every rejected
        word; records the words read."""
        draws = []
        words = np.empty(count, dtype=np.uint64)
        while len(draws) < count:
            w = words[: count - len(draws)]  # each word gives at most one draw
            self._words(r, start, w)
            start += w.size
            w *= n
            keep = (w & 0xFFFFFFFF) >= threshold
            draws.extend((w[keep] >> 32) + 1)
        self._used[r] = start
        return draws

    def slots(self, n: int, count: int) -> np.ndarray:
        """(reps, count) uniform draws from {1..n}; int32 while n < 2^31."""
        if not 1 <= n <= _WORD:
            raise ValueError(f"n {n} outside 1..2^32")
        out = np.ones((self.reps, count), dtype=np.int32 if n < 2**31 else np.int64)
        if n == 1 or count == 0:
            return out  # numpy draws these without reading a word
        threshold = _WORD % n
        # a vectorized pass holds a dozen rows x blocks arrays: cap its rows too
        rows = max(1, min(self.reps, _CHUNK_WORDS // max(count, _VECTOR_WORDS)))
        words = np.empty((rows, count), dtype=np.uint64)
        for lo in range(0, self.reps, rows):
            hi = min(lo + rows, self.reps)
            w = words[: hi - lo]
            starts = self._used[lo:hi].tolist()
            if count <= _VECTOR_WORDS:
                streams = np.arange(lo, hi, dtype=np.uint64) + self.stream_base
                w[:] = _philox_words(self.seed, streams, self._used[lo:hi], count)
            else:
                for i, start in enumerate(starts):
                    self._words(lo + i, start, w[i])
            self._used[lo:hi] += count
            np.multiply(w, n, out=w)
            rejected = np.flatnonzero(((w & 0xFFFFFFFF) < threshold).any(axis=1))
            np.right_shift(w, 32, out=w)
            np.add(w, 1, out=w)
            out[lo:hi] = w
            for i in rejected:
                out[lo + i] = self._bounded_row(lo + i, starts[i], n, count, threshold)
        return out


class Deck:
    """List-backed deck: order[p-1] is the card at position p."""

    __slots__ = ("order",)

    def __init__(self, order):
        order = list(order)
        if sorted(order) != list(range(1, len(order) + 1)):
            raise ValueError("order must be a permutation of 1..n")
        self.order = order

    @classmethod
    def identity(cls, n: int) -> "Deck":
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.order)

    def position_of(self, card: int) -> int:
        try:
            return self.order.index(card) + 1
        except ValueError:
            raise ValueError(f"card {card} not in deck") from None

    def card_at(self, position: int) -> int:
        if not 1 <= position <= self.n:
            raise ValueError("position out of range")
        return self.order[position - 1]

    def remove_insert(self, card: int, slot: int) -> "Deck":
        """Remove ``card`` and reinsert it at final position ``slot``.

        All other cards keep their relative order.
        """
        if not 1 <= slot <= self.n:
            raise ValueError(f"slot {slot} out of range 1..{self.n}")
        try:
            self.order.remove(card)
        except ValueError:
            raise ValueError(f"card {card} not in deck") from None
        self.order.insert(slot - 1, card)
        return self

    def swap_positions(self, i: int, j: int) -> "Deck":
        """Exchange the cards in positions i and j."""
        ci, cj = self.card_at(i), self.card_at(j)
        self.order[i - 1], self.order[j - 1] = cj, ci
        return self

    def to_order(self) -> list:
        return list(self.order)

    def __eq__(self, other):
        return isinstance(other, Deck) and self.order == other.order

    def __repr__(self):
        return f"Deck({self.order})"


class FastDeck:
    """Blocked-sequence deck with a Fenwick tree over block sizes.

    ``blocks`` are plain lists; the tree turns ranks into (block, offset)
    pairs in O(log #blocks), and ``_home`` maps each card to its block's
    index.  A block passing 2 * block_size cards makes ``insert_at_rank``
    re-cut the whole order into block_size-card blocks, in O(n); an emptied
    block stays until then, and a rank descent never lands in it.  Under
    uniform slots (a CCR, CCRR or top-to-random round) that is one or two
    re-cuts a round; if every insert hits one block (the top card moved to
    the bottom n times, which no caller does) it is one per block_size
    inserts.  A swap changes no block's size, so it never re-cuts.
    """

    def __init__(self, order, block_size: int = 512):
        order = list(order)
        if sorted(order) != list(range(1, len(order) + 1)):
            raise ValueError("order must be a permutation of 1..n")
        self.block_size = block_size
        self._home = {}
        self._cut(order)

    @classmethod
    def identity(cls, n: int, block_size: int = 512) -> "FastDeck":
        return cls(range(1, n + 1), block_size)

    @property
    def n(self) -> int:
        return len(self._home)

    def _cut(self, order):
        """Cut ``order`` into block_size-card blocks, home every card to its
        block's index and build the Fenwick tree of block sizes."""
        size = self.block_size
        self.blocks = [order[i : i + size] for i in range(0, len(order), size)] or [[]]
        self._tree = [0] * (len(self.blocks) + 1)
        self._topbit = 1 << len(self.blocks).bit_length()
        for bi, cards in enumerate(self.blocks):
            self._home.update(dict.fromkeys(cards, bi))
            self._tree_add(bi, len(cards))

    # -- Fenwick over block sizes ------------------------------------------

    def _tree_add(self, bi: int, delta: int):
        i = bi + 1
        tree = self._tree
        m = len(tree) - 1
        while i <= m:
            tree[i] += delta
            i += i & -i

    def _prefix(self, bi: int) -> int:
        """Cards in blocks 0..bi-1."""
        s = 0
        tree = self._tree
        i = bi
        while i > 0:
            s += tree[i]
            i -= i & -i
        return s

    def _block_for_rank(self, r: int):
        """Block index and within-block offset of global 0-based rank r."""
        tree = self._tree
        m = len(tree) - 1
        pos = 0
        bit = self._topbit
        rem = r
        while bit:
            nxt = pos + bit
            if nxt <= m and tree[nxt] <= rem:
                rem -= tree[nxt]
                pos = nxt
            bit >>= 1
        return pos, rem  # block index pos (0-based block pos), offset rem

    # -- rank-level primitives ---------------------------------------------

    def position_of(self, card: int) -> int:
        bi = self._home.get(card)
        if bi is None:
            raise ValueError(f"card {card} not in deck")
        return self._prefix(bi) + self.blocks[bi].index(card) + 1

    def _locate(self, position: int):
        """Block index and offset of the card at 1-based ``position``."""
        if not 1 <= position <= self.n:
            raise ValueError("position out of range")
        return self._block_for_rank(position - 1)

    def card_at(self, position: int) -> int:
        bi, off = self._locate(position)
        return self.blocks[bi][off]

    def remove_card(self, card: int):
        """Remove a card wherever it sits (no rank computation needed)."""
        bi = self._home.pop(card, None)
        if bi is None:
            raise ValueError(f"card {card} not in deck")
        self.blocks[bi].remove(card)
        self._tree_add(bi, -1)

    def insert_at_rank(self, position: int, card: int):
        """Insert ``card`` so that its final 1-based position is ``position``."""
        if card in self._home:
            raise ValueError(f"card {card} already in deck")
        if not 1 <= position <= self.n + 1:
            raise ValueError("position out of range")
        r = position - 1
        if r == self.n:
            bi, off = len(self.blocks) - 1, len(self.blocks[-1])
        else:
            bi, off = self._block_for_rank(r)
        cards = self.blocks[bi]
        cards.insert(off, card)
        self._home[card] = bi
        self._tree_add(bi, +1)
        if len(cards) > 2 * self.block_size:
            self._cut(self.to_order())

    def remove_insert(self, card: int, slot: int) -> "FastDeck":
        if not 1 <= slot <= self.n:
            raise ValueError(f"slot {slot} out of range 1..{self.n}")
        self.remove_card(card)
        self.insert_at_rank(slot, card)
        return self

    def swap_positions(self, i: int, j: int) -> "FastDeck":
        """Exchange the cards in positions i and j in place: no block
        changes size, so the tree is untouched."""
        bi, oi = self._locate(i)
        bj, oj = self._locate(j)
        a, b = self.blocks[bi], self.blocks[bj]
        a[oi], b[oj] = b[oj], a[oi]
        self._home[a[oi]], self._home[b[oj]] = bi, bj
        return self

    # -- export --------------------------------------------------------------

    def to_order(self) -> list:
        return [c for cards in self.blocks for c in cards]

    def __eq__(self, other):
        if isinstance(other, FastDeck):
            return self.to_order() == other.to_order()
        if isinstance(other, Deck):
            return self.to_order() == other.order
        return NotImplemented

    def __repr__(self):
        return f"FastDeck(n={self.n}, blocks={len(self.blocks)})"
