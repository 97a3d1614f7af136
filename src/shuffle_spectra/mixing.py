"""Ground-truth mixing computations and the lower-bound experiment.

Exact machinery (tiny n).  Distributions live on S_n as dense vectors
indexed by the lexicographic rank of the deck order.  Every shuffle's
round is n steps, and each step is a fixed set of equally likely moves on
the current order: remove card k (CCR) or the top card and reinsert it at
a uniform slot, swap position k with a uniform position (cyclic-to-random),
or swap a uniform pair of positions (random transpositions).  One step
engine tabulates, per step, the order rank every move reaches and pushes a
distribution through the round by scatter-adds: rational arithmetic at
n <= 5, double precision at n in {6, 7}.  A CCRR round processes cards in
the order they hold when it starts, so it is position-driven: the card in
start-of-round position k lands in position F(k) for a random map F whose
law does not depend on the deck.  That law is one round of steps from the
sorted deck (where CCRR's round is CCR's), inverted, and a CCRR push is
the convolution q'(o') = sum_F P(F) q(o' o F), read through the Cayley
table of S_n (row j gathers q at o o p_j for every order o; built once per
n).  The exact layer shares no code with the Monte Carlo kernel, so each
checks the other.

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

from .batch import BatchCcrr, card_round_positions, uniform_positions
from .batch import batch_round_positions  # noqa: F401 (perfbench wraps this name)
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
    """Lexicographic rank of each row of an array of permutations."""
    perms = np.asarray(perms)
    n = perms.shape[1]
    r = np.zeros(perms.shape[0], dtype=np.int64)
    for k in range(n):
        c = (perms[:, k + 1 :] < perms[:, k : k + 1]).sum(axis=1)
        r = r * (n - k) + c
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

    Probabilities are Fractions when ``exact`` (n <= 5) and float64
    otherwise.  Decks are identified with their order arrays (0-based:
    entry p is the card in position p+1).
    """

    n: int
    probs: np.ndarray
    exact: bool

    @classmethod
    def point_mass(cls, n, order=None, exact=None):
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
        return cls(n=n, probs=probs, exact=exact)

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
        return cls(n=n, probs=probs, exact=exact)

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

_TARGETS_CACHE: dict = {}
_LAW_CACHE: dict = {}
_TABLE_CACHE: dict = {}


def _step_targets(n, kind, k):
    """Rank reached by each equally likely move of step k, per order rank.

    Entry (r, c) is the rank of the order that move c makes from the order
    of rank r.  The moves: remove card k (CCR; CCRR from the sorted deck)
    or the top card and reinsert it at slot 1..n; swap position k with
    position 1..n (cyclic); swap positions i and j over all n^2 pairs
    (transpositions).
    """
    if kind is ShuffleKind.CCRR:
        kind = ShuffleKind.CCR
    if kind in (ShuffleKind.TOP_TO_RANDOM, ShuffleKind.RANDOM_TRANSPOSITIONS):
        k = 0  # the same moves at every step
    key = (n, kind, k)
    if key not in _TARGETS_CACHE:
        perms = all_perms(n)
        q = np.arange(n)
        # src[..., c, q]: the position whose card move c puts in position q
        if kind in (ShuffleKind.CYCLIC_TO_RANDOM, ShuffleKind.RANDOM_TRANSPOSITIONS):
            if kind is ShuffleKind.CYCLIC_TO_RANDOM:
                a, b = np.full(n, k - 1), np.arange(n)
            else:
                a, b = np.divmod(np.arange(n * n), n)
            a, b = a[:, None], b[:, None]
            src = np.where(q == a, b, np.where(q == b, a, q))[None]
        else:
            # the card in position p moves to position t; the rest close up
            p, t = q[:, None, None], q[None, :, None]
            r = q - (q > t)
            src = np.where(q == t, p, r + (r >= p))
            if kind is ShuffleKind.CCR:
                src = src[(perms == k - 1).argmax(axis=1)]  # card k's position
            else:
                src = src[:1]  # the top card
        moved = perms[np.arange(perms.shape[0])[:, None, None], src]
        _TARGETS_CACHE[key] = rank_rows(moved.reshape(-1, n)).reshape(perms.shape[0], -1)
    return _TARGETS_CACHE[key]


def _step_round(probs, n, kind):
    """Push order probabilities through one round of n steps.

    Each step spreads every order's mass evenly over its moves' targets:
    np.add.at for Fractions, np.bincount for float64.
    """
    for k in range(1, n + 1):
        targets = _step_targets(n, kind, k)
        m = targets.shape[1]
        if probs.dtype == object:
            out = np.full(probs.size, Fraction(0), dtype=object)
            np.add.at(out, targets.ravel(), np.repeat(probs / m, m))
        else:
            out = np.bincount(targets.ravel(), weights=np.repeat(probs, m),
                              minlength=probs.size) / m
        probs = out
    return probs


def _cayley_table(n):
    """Composition table of S_n: table[j][i] = rank(p_i o p_j), as uint16.

    Row 0 is the identity.  Every other p_j has a descent at some s, and
    p_j o s ranks below j.  With g = rank_rows(perms[:, s]), which sends
    rank(p) to rank(p o s), p_i o p_j = (p_i o (p_j o s)) o s makes row j
    g[table[g[j]]], so the rows fill in rank order.
    """
    if n not in _TABLE_CACHE:
        perms = all_perms(n)
        size = perms.shape[0]
        gathers = []
        for s in range(n - 1):
            swap = np.arange(n)
            swap[[s, s + 1]] = s + 1, s
            gathers.append(rank_rows(perms[:, swap]).astype(np.uint16))
        table = np.empty((size, size), dtype=np.uint16)
        table[0] = np.arange(size)
        for j in range(1, size):
            g_s = gathers[np.argmax(perms[j, :-1] > perms[j, 1:])]  # first descent
            table[j] = g_s[table[g_s[j]]]
        _TABLE_CACHE[n] = table
    return _TABLE_CACHE[n]


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
    key = (n, kind)
    if key not in _LAW_CACHE:
        start = PermDistribution.point_mass(n)
        orders = _step_round(start.probs, n, kind)
        inverse = rank_rows(np.argsort(all_perms(n), axis=1))
        _LAW_CACHE[key] = PermDistribution(n=n, probs=orders[inverse], exact=start.exact)
    return _LAW_CACHE[key]


def exact_round_push(dist, kind):
    """Exact one-round pushforward of a distribution on S_n.

    CCR, top-to-random, cyclic-to-random and random transpositions step the
    distribution move by move.  A CCRR round's schedule is the order at its
    start, so CCRR convolves with the cached position-map law instead:
    q'(o') = sum_F P(F) q(o' o F), one Cayley-table row per map F.
    """
    kind = ShuffleKind(kind)
    n = dist.n
    if n > ENUM_N_MAX:
        raise CapabilityError(f"exact pushforward capped at n <= {ENUM_N_MAX}")
    if kind is not ShuffleKind.CCRR:
        return PermDistribution(n=n, probs=_step_round(dist.probs, n, kind),
                                exact=dist.exact)

    law = round_position_law(n, kind)
    if dist.exact and not law.exact:
        raise CapabilityError("exact distribution with inexact law; lower n")
    law_probs = law.probs if dist.exact else law.as_floats()
    table = _cayley_table(n)
    out = sum(law_probs[j] * dist.probs[table[j]] for j in np.flatnonzero(law_probs))
    return PermDistribution(n=n, probs=out, exact=dist.exact)


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
    law = round_position_law(n, kind)
    perms = all_perms(n)
    kernel = np.full((n, n), Fraction(0) if law.exact else 0.0, dtype=law.probs.dtype)
    for k in range(n):
        np.add.at(kernel[k], perms[:, k], law.probs)
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


def empirical_single_card(n, a, reps, seed=12345, stream_base=1, buckets=50,
                          chunk=25_000):
    """Simulate the tracked card over one CCRR round, reps times.

    Returns SingleCardStats with per-bucket conditional moments of Z given
    U and the unconditional landing histogram (the empirical kernel row).
    """
    k0 = round(a * n)
    if not 1 <= k0 <= n or abs(k0 / n - a) > 1e-12:
        raise ValueError("a must be a grid point i/n in (0, 1]")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    z_all = np.empty(reps)
    u_all = np.empty(reps)
    row_hist = np.zeros(n, dtype=np.int64)
    done = 0
    while done < reps:
        r = min(chunk, reps - done)
        slots = ReplicateStreams(seed, stream_base + done, r).slots(n, n)
        z = card_round_positions(slots, k0)
        z_all[done : done + r] = z / n
        u_all[done : done + r] = slots[:, k0 - 1] / n
        row_hist += np.bincount(z - 1, minlength=n)
        done += r
    edges = np.arange(buckets + 1) / buckets
    idx = np.ceil(u_all * buckets).astype(int) - 1
    counts = np.zeros(buckets, dtype=np.int64)
    means = np.zeros(buckets)
    variances = np.zeros(buckets)
    se_means = np.zeros(buckets)
    se_vars = np.zeros(buckets)
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


def check_conditional_bands(stats, mean_slack=2.0, var_bound=9.0, sigmas=3.0):
    """Check each U-bucket against the idealized landing map.

    The conditional mean must lie in
    [(1 - mean_slack/n) g(a, u_lo) - sigmas * se,
     (1 + mean_slack/n) g(a, u_hi) + sigmas * se]
    (band edges evaluated at the bucket edges since g is increasing), and
    the conditional variance must stay below var_bound/n + sigmas * se.
    Returns (mean_failures, var_failures) as lists of bucket indices.
    """
    n, a = stats.n, stats.a
    mean_fail, var_fail = [], []
    for b in range(len(stats.counts)):
        if stats.counts[b] < 2:
            continue
        ulo = max(stats.bucket_edges[b], 1.0 / n)
        uhi = stats.bucket_edges[b + 1]
        lo = (1.0 - mean_slack / n) * g(a, ulo) - sigmas * stats.se_means[b]
        hi = (1.0 + mean_slack / n) * g(a, uhi) + sigmas * stats.se_means[b]
        if not lo <= stats.means[b] <= hi:
            mean_fail.append(b)
        if not stats.variances[b] < var_bound / n + sigmas * stats.se_vars[b]:
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


@dataclass
class StatTrajectory:
    """Per-round moments of the test statistic over replicated CCRR runs.

    Index t of the arrays is round t (entry 0 is the deterministic start).
    r_hat is the geometric-mean per-round ratio of E|S_t| over the fit
    window; r_hat_signed is the same fit on |mean S_t| restricted to the
    rounds where the signed mean stays above 4 standard errors (the
    signal-dominated window), which is the decay-rate diagnostic.
    """

    n: int
    reps: int
    lam: float
    mean_abs: np.ndarray
    mean_signed: np.ndarray
    var_s: np.ndarray
    fit_window: tuple
    r_hat: float
    r_hat_signed: float
    signed_window: int
    tau: int
    mean_abs_inf: float
    var_inf: float
    separation_margin: float

    def to_rows(self):
        rows = []
        for t in range(len(self.mean_abs)):
            rows.append((t, self.mean_abs[t], self.var_s[t], self.reps))
        return rows

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


def run_lower_bound_experiment(n, rounds, reps, phi, lam, seed=12345,
                               stream_base=1, chunk=4000, fit_window=(1, 5)):
    """Replicated CCRR runs tracking the test statistic's decay.

    Records E|S_t| and Var(S_t) per round; r_hat, the geometric-mean
    ratio of E|S_t| over ``fit_window``, which estimates |lam| only while
    |lam|^t S_0 >> sd(S_inf); r_hat_signed, the decay-rate estimate,
    fitted on the signed mean E[S_t] = lam^t S_0 over the rounds where it
    stays above 4 standard errors; tau = floor(log n / 9 log(1/|lam|))
    and the separation margin E|S_tau| / (3 (sd(S_tau) + sd(S_inf))).
    The stationary reference evaluates the same statistic on uniform
    decks drawn from streams offset by ``reps``.
    """
    if reps < 2:
        raise ValueError("experiment needs reps >= 2 for a sample variance")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    if np.iscomplexobj(np.asarray(phi)) and np.abs(np.imag(phi)).max() > 1e-12:
        raise ValueError("experiment requires a real eigenvector")
    stat = TestStatistic(np.real(phi))
    if stat.n != n:
        raise ValueError("phi must live on the same grid as the experiment")
    lam = abs(complex(lam))

    values = np.empty((rounds + 1, reps))
    done = 0
    while done < reps:
        r = min(chunk, reps - done)
        sim = BatchCcrr(n, r, seed, stream_base + done)
        values[0, done : done + r] = stat.s0()
        for t in range(1, rounds + 1):
            sim.run_round()
            values[t, done : done + r] = stat.from_positions(sim.positions())
        done += r
    mean_abs = np.abs(values).mean(axis=1)
    mean_signed = values.mean(axis=1)
    var_s = values.var(axis=1, ddof=1)
    var_s[0] = 0.0  # S_0 is a deterministic function of the start deck
    mean_abs[0] = abs(stat.s0())
    mean_signed[0] = stat.s0()

    pos_inf = uniform_positions(n, reps, seed, stream_base + reps)
    s_inf = stat.from_positions(pos_inf)
    mean_abs_inf = float(np.abs(s_inf).mean())
    var_inf = float(s_inf.var(ddof=1))

    lo, hi = fit_window
    hi = min(hi, rounds)
    if hi >= lo:
        r_hat = float((mean_abs[hi] / mean_abs[lo - 1]) ** (1.0 / (hi - lo + 1)))
    else:
        r_hat = float("nan")

    # signal-dominated window: signed mean above 4 standard errors
    se = np.sqrt(var_s / reps)
    win = 0
    for t in range(1, rounds + 1):
        if np.abs(mean_signed[t]) > 4.0 * se[t]:
            win = t
        else:
            break
    if win >= 1:
        r_hat_signed = float(
            (abs(mean_signed[win]) / abs(mean_signed[0])) ** (1.0 / win)
        )
    else:
        r_hat_signed = float("nan")

    tau = int(math.log(n) / (9.0 * math.log(1.0 / lam))) if 0 < lam < 1 else 0
    tau = min(tau, rounds)
    denom = 3.0 * (math.sqrt(var_s[tau]) + math.sqrt(var_inf))
    separation = float(mean_abs[tau] / denom) if denom > 0 else float("inf")

    return StatTrajectory(
        n=n, reps=reps, lam=lam, mean_abs=mean_abs, mean_signed=mean_signed,
        var_s=var_s, fit_window=(lo, hi), r_hat=r_hat,
        r_hat_signed=r_hat_signed, signed_window=win, tau=tau,
        mean_abs_inf=mean_abs_inf, var_inf=var_inf, separation_margin=separation,
    )
