"""Independent oracles for the benchmark's checks.

Nothing here imports ``shuffle_spectra``.  Decks are Python lists replayed one
move at a time, one-round laws are counted by enumerating every slot vector,
multi-round tables push whole distributions over S_n, and the landing map is
evaluated from its piecewise definition and inverted by bisection.  The
callers feed the literal replays with the same ``RngStream(seed, base + r)``
draws the program consumes.

``python3 perfbench/oracles.py --write-reference`` regenerates
``reference_tv.json``, the exact TV tables the ``exact`` workload is checked
against (about 10 s on one core).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference_tv.json")

# (kind, n, rounds) of every table in reference_tv.json
REFERENCE_CASES = [
    ("ccr", 5, 2),
    ("ccrr", 5, 6),
    ("ccrr", 7, 6),
    ("transpositions", 6, 6),
]


# -- the idealized landing map -----------------------------------------------


def landing_g(b, u):
    """g(b, u) from its piecewise definition, breakpoint u0 = 1 - (1-b) e^b."""
    b = np.asarray(b, dtype=float)
    u = np.asarray(u, dtype=float)
    e1b = np.exp(1.0 - b)
    low = u <= 1.0 - (1.0 - b) * np.exp(b)
    return np.where(low, e1b * u, np.exp(np.exp(-b) * (1.0 - u)) - (1.0 - u) * e1b)


def landing_cdf(a, z, sweeps=64):
    """u with g(a, u) = z, by bisection on [0, 1] (g is increasing in u)."""
    a, z = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(z, dtype=float))
    lo = np.zeros(a.shape)
    hi = np.ones(a.shape)
    for _ in range(sweeps):
        mid = 0.5 * (lo + hi)
        below = landing_g(a, mid) < z
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def kernel_row(n, i):
    """Row i (1-based, depth i/n) of B(n): CDF increments over the grid."""
    return np.diff(landing_cdf(i / n, np.arange(n + 1) / n))


def kernel_column(n, j):
    """Column j (1-based) of B(n): entry i is F_{i/n}(j/n) - F_{i/n}((j-1)/n)."""
    a = np.arange(1, n + 1) / n
    return landing_cdf(a, j / n) - landing_cdf(a, (j - 1) / n)


def sym_apply_entries(n, x, rows):
    """Selected entries of S x = (B x + B^T x) / 2, one row and column each."""
    x = np.asarray(x, dtype=float)
    return np.array([0.5 * (kernel_row(n, i) @ x + kernel_column(n, i) @ x)
                     for i in rows])


def smooth_then_interpolate(v, k, m):
    """Entries 1..k-1 replaced by the line through entries k, k+1; then
    piecewise-linear resampling onto m points with matched endpoints."""
    v = np.array(v, dtype=float)
    slope = v[k] - v[k - 1]
    for j in range(k - 1):
        v[j] = v[k] - (k - j) * slope
    src = np.arange(v.size) / (v.size - 1)
    dst = np.arange(m) / (m - 1)
    return np.interp(dst, src, v)


# -- literal rounds on list decks ----------------------------------------------
# order[p-1] is the card at position p; a slot u puts the moved card at final
# position u.


def _move(order, card, u):
    order.remove(card)
    order.insert(u - 1, card)


def literal_round(order, kind, slots):
    """One round replayed move by move; returns the new order list."""
    order = list(order)
    if kind == "ccrr":
        for card, u in zip(list(order), slots):
            _move(order, card, u)
    elif kind == "ccr":
        for card, u in zip(range(1, len(order) + 1), slots):
            _move(order, card, u)
    elif kind == "top":
        for u in slots:
            _move(order, order[0], u)
    else:
        raise ValueError(f"no literal replay for kind {kind!r}")
    return order


def positions_of(order):
    """pos[c-1] = position of card c."""
    pos = [0] * len(order)
    for p, card in enumerate(order, start=1):
        pos[card - 1] = p
    return pos


# -- enumerated one-round laws (n <= 6) ------------------------------------------


def _slot_vectors(n):
    return itertools.product(range(1, n + 1), repeat=n)


def round_law(n, kind):
    """Counter: final order tuple -> number of the n^n slot vectors giving it,
    for one round of ``kind`` from the sorted deck."""
    if n > 7:
        raise ValueError("enumeration is capped at n <= 7")
    start = list(range(1, n + 1))
    return Counter(tuple(literal_round(start, kind, s)) for s in _slot_vectors(n))


def single_card_table(n, k0):
    """counts[s-1, z-1]: slot vectors in which card k0 draws slot s and ends
    one CCRR round from the sorted deck at position z."""
    if n > 6:
        raise ValueError("single-card enumeration is capped at n <= 6")
    start = list(range(1, n + 1))
    counts = np.zeros((n, n), dtype=np.int64)
    for s in _slot_vectors(n):
        z = literal_round(start, "ccrr", s).index(k0) + 1
        counts[s[k0 - 1] - 1, z - 1] += 1
    return counts


# -- multi-round TV tables -------------------------------------------------------


def _tv_exact(dist, n):
    """TV to uniform of {order: weight}, weights summing to ``total``."""
    total = sum(dist.values())
    size = math.factorial(n)
    seen = sum(abs(Fraction(w, total) - Fraction(1, size)) for w in dist.values())
    return (seen + (size - len(dist)) * Fraction(1, size)) / 2


def _compose(order, final):
    """Order after a position-driven round mapped the sorted deck to ``final``:
    the card at start position k moves where card k went."""
    return tuple(order[c - 1] for c in final)


def tv_table_exact(kind, n, rounds):
    """Exact TV to uniform after 0..rounds rounds from the sorted deck (n <= 5).

    Weights are integer counts of slot sequences, so every entry is exact.
    CCR is replayed from every support state (its schedule follows the
    original labels); the other kinds are position-driven, so one round is
    the composition with the enumerated law of the sorted deck's round.
    """
    dist = {tuple(range(1, n + 1)): 1}
    table = [_tv_exact(dist, n)]
    if kind == "transpositions":
        for _ in range(rounds):
            for _step in range(n):
                nxt = Counter()
                for order, w in dist.items():
                    for i in range(n):
                        for j in range(n):
                            new = list(order)
                            new[i], new[j] = new[j], new[i]
                            nxt[tuple(new)] += w
                dist = nxt
            table.append(_tv_exact(dist, n))
        return table
    law = None if kind == "ccr" else round_law(n, kind)
    for _ in range(rounds):
        nxt = Counter()
        for order, w in dist.items():
            if law is None:
                for s in _slot_vectors(n):
                    nxt[tuple(literal_round(order, "ccr", s))] += w
            else:
                for final, c in law.items():
                    nxt[_compose(order, final)] += w * c
        dist = nxt
        table.append(_tv_exact(dist, n))
    return table


class _PermIndex:
    """Lexicographic index of permutations of 1..n via sorted base-(n+1) keys."""

    def __init__(self, n):
        self.perms = np.array(list(itertools.permutations(range(1, n + 1))),
                              dtype=np.int64)
        self.weights = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.keys = self.perms @ self.weights  # ascending, as perms are lexicographic

    def index(self, orders):
        return np.searchsorted(self.keys, np.asarray(orders) @ self.weights)


def tv_table_float(kind, n, rounds):
    """TV to uniform after 0..rounds rounds from the sorted deck, float64.

    For n up to 7: CCRR pushes the distribution through the enumerated
    round law; random transpositions apply the n^2 equally likely position
    swaps one step at a time.
    """
    idx = _PermIndex(n)
    size = len(idx.keys)
    dist = np.zeros(size)
    dist[0] = 1.0
    table = [0.5 * float(np.abs(dist - 1.0 / size).sum())]
    if kind == "transpositions":
        swaps = []
        for i in range(n):
            for j in range(n):
                perm = idx.perms.copy()
                perm[:, [i, j]] = perm[:, [j, i]]
                swaps.append(idx.index(perm))
        for _ in range(rounds):
            for _step in range(n):
                nxt = np.zeros(size)
                for dst in swaps:
                    nxt[dst] += dist
                dist = nxt / len(swaps)
            table.append(0.5 * float(np.abs(dist - 1.0 / size).sum()))
        return table
    law = round_law(n, kind)
    total = n**n
    moves = [(idx.index(idx.perms[:, np.array(final) - 1]).astype(np.int16), c / total)
             for final, c in law.items()]
    for _ in range(rounds):
        nxt = np.zeros(size)
        for dst, p in moves:
            nxt[dst] += p * dist
        dist = nxt
        table.append(0.5 * float(np.abs(dist - 1.0 / size).sum()))
    return table


def reference_table(kind, n, rounds):
    if n <= 5:
        return [float(x) for x in tv_table_exact(kind, n, rounds)]
    return tv_table_float(kind, n, rounds)


def load_reference():
    """{"kind/n": [tv at round 0, 1, ...]} from reference_tv.json."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["tv"]


def write_reference(path=REFERENCE_PATH):
    tables = {}
    for kind, n, rounds in REFERENCE_CASES:
        print(f"enumerating {kind} n={n} rounds={rounds}", file=sys.stderr, flush=True)
        tables[f"{kind}/{n}"] = reference_table(kind, n, rounds)
    payload = {
        "regenerate": "python3 perfbench/oracles.py --write-reference",
        "tv": tables,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-reference", action="store_true",
                        help=f"regenerate {REFERENCE_PATH.name}")
    if parser.parse_args().write_reference:
        write_reference()
    else:
        parser.print_help()
