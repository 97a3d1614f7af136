"""Ground-truth mixing computations and the lower-bound experiment.

Exact machinery (tiny n).  Distributions live on S_n as dense vectors
indexed by the lexicographic rank of the deck order.  Every shuffle's
round is n steps, and each step is a fixed set of equally likely moves on
the current order: remove card k (CCR) or the top card and reinsert it at
a uniform slot, swap position k with a uniform position (cyclic-to-random),
or swap a uniform pair of positions (random transpositions).  A CCRR round
processes cards in the order they hold when it starts, so step k moves the
topmost card not yet moved this round; its state also carries the set of
positions that hold moved cards.  One step engine pushes a distribution
through the round by gathers: each move pulls a whole block of n! order
probabilities through a rank array taken from one table of n^2 (the
orders that moving one card, or swapping two, makes from every order), in
integer counts at n <= 5 (one Fraction per order per round), double
precision at n in {6, 7}.  The law of CCRR's one-round position map (the
card in start-of-round position k lands in position F(k)) is one round
from the sorted deck, inverted.  The exact layer shares no code with the
Monte Carlo kernel, so each checks the other.

Monte Carlo machinery (large n).  Replicated CCRR rounds from the sorted
deck give the empirical single-card law conditioned on the card's own
reinsertion slot, and the decay of the eigenvector test statistic

    S_t = sum over cards i with Re phi(i/n) > 0 of phi(position of i / n)

across rounds, where i indexes the original physical cards.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .batch import CHUNK_ROWS, card_round_positions, ccrr_rounds
# perfbench wraps these names here
from .batch import batch_round_positions, uniform_positions  # noqa: F401
from .deck import ReplicateStreams
from .ideal import g
from .shuffles import ShuffleKind

__all__ = [
    "CapabilityError",
    "PermDistribution",
    "exact_round_push",
    "tv_to_uniform",
    "round_position_law",
    "exact_single_card_kernel",
    "SingleCardStats",
    "empirical_single_card",
    "check_conditional_bands",
    "TestStatistic",
    "StatTrajectory",
    "run_lower_bound_experiment",
]

EXACT_N_MAX = 5
ENUM_N_MAX = 7


class CapabilityError(ValueError):
    """The requested exact computation is beyond the enumeration caps."""


# --------------------------------------------------------------------------
# permutation indexing
# --------------------------------------------------------------------------

_PERMS_CACHE: dict = {}


def all_perms(n):
    """All permutations of 0..n-1 in lexicographic order, as an int8 array."""
    if n not in _PERMS_CACHE:
        if n > ENUM_N_MAX:
            raise CapabilityError(f"exact permutation tables capped at n <= {ENUM_N_MAX}")
        _PERMS_CACHE[n] = np.array(
            list(itertools.permutations(range(n))), dtype=np.int8
        )
    return _PERMS_CACHE[n]


def rank_rows(perms):
    """Lexicographic rank of each permutation along the last axis."""
    cols = np.moveaxis(np.asarray(perms), -1, 0)
    n = cols.shape[0]
    r = np.zeros(cols.shape[1:], dtype=np.int64)
    for k in range(n):
        r *= n - k
        for j in range(k + 1, n):
            r += cols[j] < cols[k]
    return r


def perm_rank(perm):
    """Lexicographic rank of a single 0-based permutation."""
    return int(rank_rows(np.asarray(perm, dtype=np.int8)[None, :])[0])


# --------------------------------------------------------------------------
# distributions on S_n
# --------------------------------------------------------------------------


@dataclass
class PermDistribution:
    """Dense distribution over S_n, indexed by lexicographic (Lehmer) rank.

    Probabilities are Fractions (object dtype, ``exact``; the default at
    n <= 5) or float64.  Decks are identified with their order arrays
    (0-based: entry p is the card in position p+1).
    """

    n: int
    probs: np.ndarray

    @property
    def exact(self):
        return self.probs.dtype == object

    @classmethod
    def point_mass(cls, n, order=None, exact=None):
        if order is not None and sorted(order) != list(range(1, n + 1)):
            raise ValueError("order must be a permutation of 1..n")
        if n > ENUM_N_MAX:
            raise CapabilityError(f"exact distributions capped at n <= {ENUM_N_MAX}")
        exact = (n <= EXACT_N_MAX) if exact is None else exact
        size = math.factorial(n)
        idx = 0 if order is None else perm_rank([c - 1 for c in order])
        if exact:
            probs = np.array([Fraction(0)] * size, dtype=object)
            probs[idx] = Fraction(1)
        else:
            probs = np.zeros(size)
            probs[idx] = 1.0
        return cls(n=n, probs=probs)

    @classmethod
    def uniform(cls, n, exact=None):
        if n > ENUM_N_MAX:
            raise CapabilityError(f"exact distributions capped at n <= {ENUM_N_MAX}")
        exact = (n <= EXACT_N_MAX) if exact is None else exact
        size = math.factorial(n)
        if exact:
            probs = np.array([Fraction(1, size)] * size, dtype=object)
        else:
            probs = np.full(size, 1.0 / size)
        return cls(n=n, probs=probs)

    def total(self):
        return sum(self.probs) if self.exact else float(self.probs.sum())

    def as_floats(self):
        if self.exact:
            return np.array([float(p) for p in self.probs])
        return self.probs


def tv_to_uniform(dist):
    """Total variation distance to the uniform distribution on S_n.

    Exact (a Fraction) when the distribution is exact.
    """
    size = math.factorial(dist.n)
    if dist.exact:
        u = Fraction(1, size)
        return sum(abs(p - u) for p in dist.probs) / 2
    return float(np.abs(dist.probs - 1.0 / size).sum() / 2.0)


# --------------------------------------------------------------------------
# exact rounds: one step engine
# --------------------------------------------------------------------------

_STEPS_CACHE: dict = {}


def _moved_ranks(perms, src):
    """Entry [..., r]: rank of the order that a move makes from the order of
    rank r, where src[..., q] is the position whose card the move puts in q."""
    return rank_rows(np.moveaxis(perms.T[src], -2, -1))


def _round_steps(n, kind):
    """Each of a round's n steps as (blocks, moves), each move (tau, sigma, g).

    A distribution is a stack of n!-blocks of order ranks; a step makes a
    stack of ``blocks`` blocks by new[tau] += old[sigma][g] over its moves,
    and every state has the same number of moves.  Each g is built from one
    table of n^2 rank arrays: swap[a][b] swaps positions a and b (cyclic,
    transpositions), move[p][t] moves the card in position p to position t
    and the rest close up.  A swap undoes itself and moving p -> t is undone
    by moving t -> p, so the order q is reached from old[swap[a][b][q]] and
    from old[move[t][p][q]].  Top-to-random gathers move[t][0] over t,
    cyclic step k swap[k][b] over b, transpositions swap[a][b] over all
    pairs.  CCR step k moves card k, and the orders it takes to q are q with
    card k moved from pos_q(k) to each p, so it gathers move[pos_q(k)][p][q]
    per q, over p.  A CCRR round moves cards in their start-of-round order,
    and a move keeps the relative order of the cards not yet moved, so step
    k moves the topmost card not yet moved; its blocks before step k are
    the (k-1)-subsets of positions holding moved cards.
    """
    key = (n, kind)
    if key not in _STEPS_CACHE:
        perms = all_perms(n)
        q = np.arange(n)
        a, b = q[:, None, None], q[None, :, None]
        if kind in (ShuffleKind.CYCLIC_TO_RANDOM, ShuffleKind.RANDOM_TRANSPOSITIONS):
            table = _moved_ranks(perms, np.where(q == a, b, np.where(q == b, a, q)))
        else:
            r = q - (q > b)
            table = _moved_ranks(perms, np.where(q == b, a, r + (r >= a)))
        if kind is ShuffleKind.CCRR:
            steps = _ccrr_steps(n, table)
        else:
            if kind is ShuffleKind.TOP_TO_RANDOM:
                gathers = [table[:, 0]] * n
            elif kind is ShuffleKind.CYCLIC_TO_RANDOM:
                gathers = list(table)
            elif kind is ShuffleKind.RANDOM_TRANSPOSITIONS:
                gathers = [table.reshape(n * n, -1)] * n
            else:  # CCR: card k's position in each order q
                rows = np.arange(perms.shape[0])
                gathers = [table[(perms == k).argmax(axis=1), q[:, None], rows]
                           for k in range(n)]
            steps = [(1, [(0, 0, g) for g in step]) for step in gathers]
        _STEPS_CACHE[key] = steps
    return _STEPS_CACHE[key]


def _ccrr_steps(n, move):
    """CCRR's steps: the block sigma (moved-position set) moves its topmost
    unmoved position p to each t, gathering move[t][p] into the set tau."""
    subsets = [[sum(1 << i for i in c) for c in itertools.combinations(range(n), j)]
               for j in range(n + 1)]
    steps = []
    for j in range(n):  # j cards moved before the step
        index = {mask: i for i, mask in enumerate(subsets[j + 1])}
        moves = []
        for sigma, mask in enumerate(subsets[j]):
            p = next(i for i in range(n) if not mask >> i & 1)
            held = [s - (s > p) for s in range(n) if mask >> s & 1]
            moves += [(index[sum(1 << (s + (s >= t)) for s in held) | 1 << t], sigma,
                       move[t, p]) for t in range(n)]
        steps.append((len(subsets[j + 1]), moves))
    return steps


def _step_round(probs, n, kind):
    """Push order probabilities through one round of n steps.

    Each step spreads every state's mass evenly over its m moves, gathering
    a whole block per move.  Fractions are pushed as integer counts over
    the input's common denominator and divided once at the end, by that
    denominator times m^n; float64 is divided by m at each step.
    """
    exact = probs.dtype == object
    if exact:
        den = math.lcm(*(p.denominator for p in probs))
        probs = np.array([p.numerator * (den // p.denominator) for p in probs], dtype=object)
    probs = probs[None, :]
    for blocks, moves in _round_steps(n, kind):
        new = np.zeros((blocks, probs.shape[1]), dtype=probs.dtype)
        for tau, sigma, g in moves:
            new[tau] += probs[sigma][g]
        m = len(moves) // probs.shape[0]
        probs = new if exact else new / m
    probs = probs[0]
    if exact:
        den *= m**n
        probs = np.array([Fraction(c, den) for c in probs], dtype=object)
    return probs


def round_position_law(n, kind):
    """Exact law of the one-round position map F, as a PermDistribution.

    One round of steps from the sorted deck: the card that starts in
    position k ends in position F(k), so F is the inverse of the order
    reached.  CCR is deliberately absent (its later rounds are not
    position-driven; from a sorted deck its first round coincides with
    CCRR).  Rational at n <= 5, float64 at 6 and 7.
    """
    kind = ShuffleKind(kind)
    if n > ENUM_N_MAX:
        raise CapabilityError(f"exact round laws capped at n <= {ENUM_N_MAX}")
    if kind is ShuffleKind.CCR:
        raise CapabilityError(
            "CCR rounds after the first are not position-driven; "
            "use exact_round_push, or CCRR for round 1"
        )
    start = PermDistribution.point_mass(n)
    orders = _step_round(start.probs, n, kind)
    inverse = rank_rows(np.argsort(all_perms(n), axis=1))
    return PermDistribution(n=n, probs=orders[inverse])


def exact_round_push(dist, kind):
    """Exact one-round pushforward of a distribution on S_n, step by step."""
    kind = ShuffleKind(kind)
    n = dist.n
    if n > ENUM_N_MAX:
        raise CapabilityError(f"exact pushforward capped at n <= {ENUM_N_MAX}")
    return PermDistribution(n=n, probs=_step_round(dist.probs, n, kind))


def exact_single_card_kernel(n, kind):
    """One-round position kernel from the sorted deck, rows exactly summing to 1.

    Row k-1 is the law of the end-of-round position of the card that
    starts in position k.  Returned as a Fraction matrix (object dtype)
    at n <= 5 and float64 at n in {6, 7}.  CCR is accepted and coincides
    with CCRR (round one from the sorted deck).
    """
    kind = ShuffleKind(kind)
    if kind is ShuffleKind.CCR:
        kind = ShuffleKind.CCRR
    orders = _step_round(PermDistribution.point_mass(n).probs, n, kind)
    perms = all_perms(n)
    kernel = np.zeros((n, n), dtype=orders.dtype)  # exact: sums of n! Fractions
    for p in range(n):  # the card in position p of each order ends there
        np.add.at(kernel[:, p], perms[:, p], orders)
    return kernel


# --------------------------------------------------------------------------
# empirical single-card law
# --------------------------------------------------------------------------


@dataclass
class SingleCardStats:
    """Conditional statistics of a tracked card's landing position.

    The card starting at depth a is followed through one CCRR round from
    the sorted deck; its final depth Z is bucketed by its own reinsertion
    slot U (equal-width buckets over (0, 1]).  se_var is the fourth-moment
    standard error of the sample variance.
    """

    n: int
    a: float
    reps: int
    bucket_edges: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    se_means: np.ndarray
    se_vars: np.ndarray
    row_hist: np.ndarray

    def row_estimate(self):
        return self.row_hist / self.reps


def empirical_single_card(n, a, reps, seed=12345):
    """Simulate the tracked card over one CCRR round, reps times.

    Replicate r draws from RngStream(seed, 1 + r).  Returns SingleCardStats
    with the moments of Z given U in 50 buckets and the unconditional
    landing histogram (the empirical kernel row).
    """
    k0 = round(a * n)
    if not 1 <= k0 <= n or abs(k0 / n - a) > 1e-12:
        raise ValueError("a must be a grid point i/n in (0, 1]")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    buckets = 50
    z_all = np.empty(reps)
    u_all = np.empty(reps)
    row_hist = np.zeros(n, dtype=np.int64)
    for done in range(0, reps, CHUNK_ROWS):
        r = min(CHUNK_ROWS, reps - done)
        slots = ReplicateStreams(seed, 1 + done, r).slots(n, n)
        z = card_round_positions(slots, k0)
        z_all[done : done + r] = z / n
        u_all[done : done + r] = slots[:, k0 - 1] / n
        row_hist += np.bincount(z - 1, minlength=n)
    edges = np.arange(buckets + 1) / buckets
    idx = np.ceil(u_all * buckets).astype(int) - 1
    counts = np.zeros(buckets, dtype=np.int64)
    means, variances, se_means, se_vars = np.zeros((4, buckets))
    for b in range(buckets):
        sel = z_all[idx == b]
        counts[b] = sel.size
        if sel.size >= 2:
            m = sel.mean()
            v = sel.var(ddof=1)
            means[b] = m
            variances[b] = v
            se_means[b] = np.sqrt(v / sel.size)
            m4 = np.mean((sel - m) ** 4)
            se_vars[b] = np.sqrt(
                max(m4 - v * v * (sel.size - 3) / (sel.size - 1), 0.0) / sel.size
            )
        elif sel.size == 1:
            means[b] = sel[0]
    return SingleCardStats(
        n=n, a=a, reps=reps, bucket_edges=edges, counts=counts, means=means,
        variances=variances, se_means=se_means, se_vars=se_vars, row_hist=row_hist,
    )


def check_conditional_bands(stats):
    """Check each U-bucket against the idealized landing map.

    The conditional mean must lie in
    [(1 - 2/n) g(a, u_lo) - 3 se, (1 + 2/n) g(a, u_hi) + 3 se]
    (band edges evaluated at the bucket edges since g is increasing), and
    the conditional variance must stay below 9/n + 3 se.
    Returns (mean_failures, var_failures) as lists of bucket indices.
    """
    n, a = stats.n, stats.a
    mean_fail, var_fail = [], []
    for b in range(len(stats.counts)):
        if stats.counts[b] < 2:
            continue
        ulo = max(stats.bucket_edges[b], 1.0 / n)
        uhi = stats.bucket_edges[b + 1]
        lo = (1.0 - 2.0 / n) * g(a, ulo) - 3.0 * stats.se_means[b]
        hi = (1.0 + 2.0 / n) * g(a, uhi) + 3.0 * stats.se_means[b]
        if not lo <= stats.means[b] <= hi:
            mean_fail.append(b)
        if not stats.variances[b] < 9.0 / n + 3.0 * stats.se_vars[b]:
            var_fail.append(b)
    return mean_fail, var_fail


# --------------------------------------------------------------------------
# eigenvector test statistic and the decay experiment
# --------------------------------------------------------------------------


class TestStatistic:
    """S(deck) = sum of phi at the positions of the positive-part cards.

    phi lives on the grid {1/n..1}; card i contributes phi(position_i / n)
    whenever Re phi(i/n) > 0.  Cards are the original physical cards,
    tracked across rounds (relabeling never renames them here).
    """

    def __init__(self, phi):
        phi = np.asarray(phi)
        norm = np.linalg.norm(phi)
        if norm == 0:
            raise ValueError("phi must be nonzero")
        self.phi = phi / norm
        self.mask = np.real(self.phi) > 0
        self.n = phi.shape[0]

    def from_positions(self, pos):
        """Evaluate on an (R, n) or (n,) array of 1-based card positions."""
        pos = np.asarray(pos)
        if pos.ndim == 1:
            return self.phi[pos[self.mask] - 1].sum()
        return self.phi[pos[:, self.mask] - 1].sum(axis=1)

    def s0(self):
        """Value on the sorted deck (cards at their own positions)."""
        return self.phi[self.mask].sum()

    def stationary(self):
        """Exact mean and variance of S on a uniform deck: the m positive-part
        cards hold a uniform m-subset of the grid, so S sums m values of phi
        drawn without replacement (finite-population sampling)."""
        n, m = self.n, int(self.mask.sum())
        return m * self.phi.mean(), m * (n - m) / max(n - 1, 1) * self.phi.var()


@dataclass
class StatTrajectory:
    """Per-round moments of the test statistic over replicated CCRR runs.

    Index t of the arrays is round t (entry 0 is the deterministic start).
    r_hat is the geometric-mean per-round ratio of E|S_t| over the first
    min(5, rounds) rounds; r_hat_signed is the same fit on |mean S_t|
    restricted to the rounds where the signed mean stays above 4 standard
    errors (the signal-dominated window), which is the decay-rate
    diagnostic.
    """

    n: int
    reps: int
    lam: float
    mean_abs: np.ndarray
    mean_signed: np.ndarray
    var_s: np.ndarray
    r_hat: float
    r_hat_signed: float
    signed_window: int
    tau: int
    var_inf: float
    separation_margin: float

    def to_rows(self):
        return [(t, m, v, self.reps)
                for t, (m, v) in enumerate(zip(self.mean_abs, self.var_s))]

    def summary(self):
        return {
            "n": self.n,
            "reps": self.reps,
            "lambda": self.lam,
            "r_hat": self.r_hat,
            "r_hat_signed": self.r_hat_signed,
            "signed_window": self.signed_window,
            "tau": self.tau,
            "separation_margin": self.separation_margin,
            "var_inf": self.var_inf,
        }


def run_lower_bound_experiment(n, rounds, reps, phi, lam, seed=12345):
    """Replicated CCRR runs tracking the test statistic's decay.

    Records E|S_t| and Var(S_t) per round; r_hat, the geometric-mean
    ratio of E|S_t| over rounds 1..5, which estimates |lam| only while
    |lam|^t S_0 >> sd(S_inf); r_hat_signed, the decay-rate estimate,
    fitted on the signed mean E[S_t] = lam^t S_0 over the rounds where it
    stays above 4 standard errors; tau = floor(log n / 9 log(1/|lam|))
    and the separation margin E|S_tau| / (3 (sd(S_tau) + sd(S_inf))).
    Replicate r draws from RngStream(seed, 1 + r); Var(S_inf) is the
    closed form of ``TestStatistic.stationary``.
    """
    if reps < 2:
        raise ValueError("experiment needs reps >= 2 for a sample variance")
    if np.iscomplexobj(np.asarray(phi)) and np.abs(np.imag(phi)).max() > 1e-12:
        raise ValueError("experiment requires a real eigenvector")
    stat = TestStatistic(np.real(phi))
    if stat.n != n:
        raise ValueError("phi must live on the same grid as the experiment")
    lam = abs(complex(lam))

    values = ccrr_rounds(n, rounds, reps, seed, stat.from_positions)
    s0 = stat.s0()  # a deterministic function of the start deck
    mean_abs = np.r_[abs(s0), np.abs(values).mean(axis=1)]
    mean_signed = np.r_[s0, values.mean(axis=1)]
    var_s = np.r_[0.0, values.var(axis=1, ddof=1)]
    var_inf = float(stat.stationary()[1])

    hi = min(5, rounds)
    r_hat = float((mean_abs[hi] / mean_abs[0]) ** (1.0 / hi)) if hi else math.nan

    # signal-dominated window: signed mean above 4 standard errors
    se = np.sqrt(var_s / reps)
    win = 0
    while win < rounds and abs(mean_signed[win + 1]) > 4.0 * se[win + 1]:
        win += 1
    r_hat_signed = (float((abs(mean_signed[win]) / abs(s0)) ** (1.0 / win))
                    if win else math.nan)

    tau = int(math.log(n) / (9.0 * math.log(1.0 / lam))) if 0 < lam < 1 else 0
    tau = min(tau, rounds)
    denom = 3.0 * (math.sqrt(var_s[tau]) + math.sqrt(var_inf))
    separation = float(mean_abs[tau] / denom) if denom > 0 else float("inf")

    return StatTrajectory(
        n=n, reps=reps, lam=lam, mean_abs=mean_abs, mean_signed=mean_signed,
        var_s=var_s, r_hat=r_hat,
        r_hat_signed=r_hat_signed, signed_window=win, tau=tau,
        var_inf=var_inf, separation_margin=separation,
    )
