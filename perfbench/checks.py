"""Checks of the program's outputs.

Every check compares an output with an oracle from ``oracles.py`` or with a
property the method must have; none compares with a stored copy of the
program's own output.  A check takes plain data (parsed CLI output, arrays
captured at call boundaries, draws) and returns a list of failure messages;
an empty list means the output passed.

Statistical checks allow Z standard errors, set so that a correct program
essentially never fails them at any seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracles

Z = 5.0  # standard errors allowed in every statistical check

# The README's certificate values (n = 10^4) and the band for lambda_2(B).
S_BAND = (0.2293, 0.0015)  # centre, half-width
D_BAND = (0.0793, 0.002)
B_BAND = (0.205, 0.225)  # open interval
SNIPPET_RESIDUAL_BOUND = 0.01  # acceptance criterion 4's bound for this pipeline
DECAY_MODEL_SLACK = 0.02  # share of lambda^t S_0 allowed for the finite-n kernel
TV_FAILURE_PROB = 1e-9  # for the distribution-free landing-row TV bound


# -- parsing -------------------------------------------------------------------


def parse_csv(text):
    """(config, header, rows) from the CLI's CSV: schema line, config line,
    header, then numeric rows."""
    lines = [ln for ln in text.splitlines() if ln]
    if len(lines) < 3 or not lines[1].startswith("# config "):
        raise ValueError("not the CLI's CSV layout")
    config = json.loads(lines[1][len("# config "):])
    header = lines[2].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[3:]]
    return config, header, rows


def column(header, rows, name):
    return np.array([row[header.index(name)] for row in rows])


# -- certificate ---------------------------------------------------------------


def check_kernel(probs, sample_rows):
    """Rows nonnegative and summing to 1; on sampled rows the closed-form g
    maps the row's cumulative sums back onto the grid j/n."""
    fails = []
    n = probs.shape[0]
    if (probs < 0).any():
        fails.append(f"kernel n={n} has negative entries")
    dev = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if dev > 1e-9:
        fails.append(f"kernel n={n} row sums deviate from 1 by {dev:.3g}")
    grid = np.arange(1, n + 1) / n
    for i in sample_rows:
        err = float(np.abs(oracles.landing_g(i / n, np.cumsum(probs[i - 1])) - grid).max())
        if err > 1e-9:
            fails.append(f"kernel n={n} row {i}: g(a, CDF) misses the grid by {err:.3g}")
    return fails


def _sym(probs, v):
    return 0.5 * (probs @ v + probs.T @ v)


def _skew(probs, v):
    """D v for real or complex v without up-casting the kernel."""
    if np.iscomplexobj(v):
        return _skew(probs, v.real) + 1j * _skew(probs, v.imag)
    return 0.5 * (probs @ v - probs.T @ v)


def _certified(name, value, res, band):
    """The interval value +- res (which holds a true eigenvalue, as the
    operator is normal) must lie inside centre +- half-width."""
    centre, half = band
    if abs(value - centre) + res > half:
        return [f"{name} = {value:.6g} +- {res:.3g} is not certified inside "
                f"{centre} +- {half}"]
    return []


def check_eigen(payload, vector, probs, operator):
    """One ``eigen`` command's JSON against a residual recomputed from the
    captured kernel and eigenvector, and against the stated bands."""
    fails = []
    if payload.get("operator") != operator:
        fails.append(f"eigen reports operator {payload.get('operator')!r}, not {operator}")
    if payload.get("converged") is not True:
        fails.append(f"eigen {operator} did not converge")
    re, im = payload["value_re"], payload["value_im"]
    v = np.asarray(vector)
    nv = float(np.linalg.norm(v))
    if operator == "S":
        if im != 0.0:
            fails.append(f"lambda_2(S) has imaginary part {im}")
        res = float(np.linalg.norm(_sym(probs, v) - re * v)) / nv
        fails += _certified("lambda_2(S)", re, res, S_BAND)
    elif operator == "D":
        if re != 0.0:
            fails.append(f"the skew eigenvalue has real part {re}")
        res = float(np.linalg.norm(_skew(probs, v) - 1j * im * v)) / nv
        fails += _certified("|D|", abs(im), res, D_BAND)
    else:
        lo, hi = B_BAND
        if im != 0.0:
            fails.append(f"lambda_2(B) has imaginary part {im}")
        if not lo < re < hi:
            fails.append(f"lambda_2(B) = {re:.6g} outside ({lo}, {hi})")
        res = float(np.linalg.norm(probs @ v - re * v)) / nv
        if res > 1e-6:
            fails.append(f"B v - lambda v = {res:.3g}: not an eigenpair of B")
        mods = np.sort(np.abs(np.linalg.eigvals(probs)))[::-1]
        if abs(mods[1] - abs(re)) > 1e-7:
            fails.append(f"lambda_2(B) = {re:.9g} but the dense spectrum's "
                         f"second modulus is {mods[1]:.9g}")
    if abs(res - payload["residual"]) > 1e-9 + 1e-3 * res:
        fails.append(f"reported residual {payload['residual']:.3g} differs from "
                     f"the recomputed {res:.3g}")
    return fails


def check_snippet(k, value, converged, vector, psi, applied, residual, n2, sample_rows):
    """The README certificate snippet at reduced scale: smoothing and
    interpolation against the oracle's, apply_sym against dense S x entries
    built from the closed-form g, and the residual below its bound."""
    fails = []
    if not converged:
        fails.append("snippet: second_eig_sym did not converge")
    want = oracles.smooth_then_interpolate(vector, k, n2)
    err = float(np.abs(psi - want).max())
    if err > 1e-12:
        fails.append(f"snippet: smoothed, interpolated vector off by {err:.3g}")
    dense = oracles.sym_apply_entries(n2, psi, sample_rows)
    got = np.asarray(applied)[np.asarray(sample_rows) - 1]
    err = float(np.abs(got - dense).max() / np.abs(psi).max())
    if err > 1e-8:
        fails.append(f"snippet: apply_sym differs from dense S x by {err:.3g}")
    mine = float(np.linalg.norm(applied - value * psi) / np.linalg.norm(psi))
    if abs(mine - residual) > 1e-12 + 1e-9 * mine:
        fails.append(f"snippet: residual {residual:.6g} but recomputed {mine:.6g}")
    if not residual < SNIPPET_RESIDUAL_BOUND:
        fails.append(f"snippet: residual {residual:.3g} not below {SNIPPET_RESIDUAL_BOUND}")
    return fails


# -- replays -------------------------------------------------------------------


def check_replay(kind, n, draws, observed, label):
    """Rounds of a literal list replay fed with ``draws`` (one slot array per
    round) equal the ``observed`` orders, round by round."""
    fails = []
    order = list(range(1, n + 1))
    for t, (slots, seen) in enumerate(zip(draws, observed), start=1):
        order = oracles.literal_round(order, kind, [int(s) for s in slots])
        if list(seen) != order:
            fails.append(f"{label}: round {t} differs from the literal replay")
            break
    if len(observed) != len(draws):
        fails.append(f"{label}: {len(observed)} rounds observed, {len(draws)} replayed")
    return fails


def orders_from_positions(rows):
    """Order lists from rows of card positions (pos[c-1] = position of c)."""
    out = []
    for pos in rows:
        order = [0] * len(pos)
        for c, p in enumerate(pos, start=1):
            order[int(p) - 1] = c
        out.append(order)
    return out


def check_permutation_rows(pos, label):
    n = pos.shape[1]
    if not (np.sort(pos, axis=1) == np.arange(1, n + 1)).all():
        return [f"{label}: a row of positions is not a permutation of 1..{n}"]
    return []


# -- decay ---------------------------------------------------------------------


def statistic(phi, pos):
    """S = sum of unit-normalized phi at the positions of the cards c with
    phi(c/n) > 0, per row of ``pos``."""
    phi = np.asarray(phi, dtype=float)
    phi = phi / np.linalg.norm(phi)
    cards = np.flatnonzero(phi > 0)
    return phi[np.asarray(pos)[..., cards] - 1].sum(axis=-1)


def check_decay(header, rows, lam, phi, values, final_pos, replays):
    """``simulate --stat S`` output.

    ``values[t-1]`` holds every replicate's statistic after round t as the
    program computed it, ``final_pos`` every replicate's positions after the
    last round, ``replays`` maps a sampled replicate to (draws, positions
    per round).  The CSV must match the values; the values must match the
    statistic recomputed from positions; positions must match literal
    replays; and the signed mean must follow lambda^t S_0.
    """
    fails = []
    rounds = len(values)
    n = len(phi)
    lo, hi = B_BAND
    if not lo < lam < hi:
        fails.append(f"|lambda_2(B)| = {lam:.6g} outside ({lo}, {hi})")
    if len(rows) != rounds + 1:
        return fails + [f"CSV has {len(rows)} rows for {rounds} rounds"]
    s0 = float(statistic(phi, np.arange(1, n + 1)))
    mean_abs = column(header, rows, "mean_abs_S")
    var_s = column(header, rows, "var_S")
    if abs(mean_abs[0] - abs(s0)) > 1e-12 * abs(s0) or var_s[0] != 0.0:
        fails.append(f"round 0 row {mean_abs[0]!r}, {var_s[0]!r} is not (|S_0|, 0)")
    fails += check_permutation_rows(final_pos, "final positions")
    mine = statistic(phi, final_pos)
    if not np.allclose(mine, values[-1], rtol=1e-12, atol=1e-12):
        fails.append("final-round statistic differs from the recomputation")
    window = 0
    for t in range(1, rounds + 1):
        v = np.asarray(values[t - 1])
        if abs(np.abs(v).mean() - mean_abs[t]) > 1e-12 * max(1.0, mean_abs[t]):
            fails.append(f"round {t}: CSV mean_abs_S {mean_abs[t]!r} is not mean |S_t|")
        if abs(v.var(ddof=1) - var_s[t]) > 1e-12 * max(1.0, var_s[t]):
            fails.append(f"round {t}: CSV var_S {var_s[t]!r} is not Var S_t")
        mean = float(v.mean())
        se = float(v.std(ddof=1) / math.sqrt(v.size))
        want = lam**t * s0
        if abs(mean - want) > Z * se + DECAY_MODEL_SLACK * abs(want):
            fails.append(f"round {t}: signed mean {mean:.4g} is not lambda^t S_0 = "
                         f"{want:.4g} within {Z:g} s.e. ({se:.3g})")
        if window == t - 1 and abs(mean) > 4.0 * se:
            window = t
    if window < 2:
        fails.append(f"signed mean clears 4 s.e. for {window} rounds, fewer than 2")
    for r, (draws, pos_rounds) in replays.items():
        fails += check_replay("ccrr", n, draws, orders_from_positions(pos_rounds),
                              f"replicate {r}")
        for t, pos in enumerate(pos_rounds, start=1):
            if not np.isclose(statistic(phi, pos), values[t - 1][r], rtol=1e-12, atol=1e-12):
                fails.append(f"replicate {r} round {t}: statistic differs")
    return fails


# -- tracked card --------------------------------------------------------------


def check_conditional_bands(header, rows, n, a, reps):
    """singlecard buckets: the conditional mean of Z given U in a bucket lies
    in [(1 - 2/n) g(a, u_lo), (1 + 2/n) g(a, u_hi)] widened by Z s.e., and
    the conditional variance stays below 9/n plus Z s.e."""
    fails = []
    counts = column(header, rows, "count")
    if counts.sum() != reps:
        fails.append(f"bucket counts sum to {counts.sum():g}, not {reps}")
    u_lo, u_hi = column(header, rows, "u_lo"), column(header, rows, "u_hi")
    err = float(np.abs(column(header, rows, "g_at_u_hi") - oracles.landing_g(a, u_hi)).max())
    if err > 1e-12:
        fails.append(f"g_at_u_hi differs from the closed form by {err:.3g}")
    means, variances = column(header, rows, "mean_z"), column(header, rows, "var_z")
    for b in np.flatnonzero(counts >= 2):
        c, m, v = counts[b], means[b], variances[b]
        se = math.sqrt(v / c)
        lo = (1 - 2 / n) * oracles.landing_g(a, max(u_lo[b], 1 / n)) - Z * se
        hi = (1 + 2 / n) * oracles.landing_g(a, u_hi[b]) + Z * se
        if not lo <= m <= hi:
            fails.append(f"bucket {b}: mean {m:.5g} outside [{lo:.5g}, {hi:.5g}]")
        if not v < 9 / n + Z * v * math.sqrt(2 / (c - 1)):
            fails.append(f"bucket {b}: variance {v:.3g} above 9/n")
    return fails


def tv_bound(k, m, delta=TV_FAILURE_PROB):
    """t with P(TV(empirical, true) > t) <= delta for m draws on k cells
    (Bretagnolle-Huber-Carol)."""
    return math.sqrt(math.log((2**k - 2) / delta) / (2 * m))


def check_small_row(header, rows, row_hist, table, k0, reps):
    """singlecard at tiny n against the enumerated table counts[s-1, z-1]:
    the landing histogram within the TV bound, and each bucket's
    conditional mean within Z s.e. of the exact E[Z | U]."""
    fails = []
    n = table.shape[0]
    row_hist = np.asarray(row_hist)
    if row_hist.sum() != reps:
        fails.append(f"landing histogram holds {row_hist.sum()} draws, not {reps}")
    exact = table.sum(axis=0) / table.sum()
    tv = 0.5 * float(np.abs(row_hist / reps - exact).sum())
    bound = tv_bound(n, reps)
    if tv > bound:
        fails.append(f"n={n} landing row is {tv:.4g} in TV from the enumeration "
                     f"(bound {bound:.4g})")
    counts = column(header, rows, "count")
    means, variances = column(header, rows, "mean_z"), column(header, rows, "var_z")
    buckets = len(rows)
    z = np.arange(1, n + 1) / n
    for s in range(1, n + 1):
        b = math.ceil(s / n * buckets) - 1
        if counts[b] < 2:
            continue
        want = float(table[s - 1] @ z / table[s - 1].sum())
        se = math.sqrt(variances[b] / counts[b])
        if abs(means[b] - want) > Z * se + 1e-12:
            fails.append(f"slot {s}: mean depth {means[b]:.5g} is not E[Z|U] = {want:.5g}")
    return fails


def check_uniform_depth(header, rows, n, reps, rounds):
    """simulate --stat positions: round 0 is card 1 on top, and after the
    final round card 1's depth has the uniform mean (n+1)/(2n) and variance
    (n^2-1)/(12 n^2), within Z standard errors."""
    fails = []
    if len(rows) != rounds + 1:
        return [f"CSV has {len(rows)} rows for {rounds} rounds"]
    mean, var = column(header, rows, "mean_pos"), column(header, rows, "var_pos")
    if abs(mean[0] - 1 / n) > 1e-12 or abs(var[0]) > 1e-20:
        fails.append(f"round 0 row ({mean[0]!r}, {var[0]!r}) is not (1/n, 0)")
    depths = np.arange(1, n + 1) / n
    mu = (n + 1) / (2 * n)
    sigma2 = (n * n - 1) / (12 * n * n)
    mu4 = float(((depths - mu) ** 4).mean())
    se_mean = math.sqrt(sigma2 / reps)
    se_var = math.sqrt((mu4 - sigma2**2 * (reps - 3) / (reps - 1)) / reps)
    if abs(mean[-1] - mu) > Z * se_mean:
        fails.append(f"final mean depth {mean[-1]:.5g} is not {mu:.5g} "
                     f"within {Z:g} s.e. ({se_mean:.3g})")
    if abs(var[-1] - sigma2) > Z * se_var:
        fails.append(f"final depth variance {var[-1]:.5g} is not {sigma2:.5g} "
                     f"within {Z:g} s.e. ({se_var:.3g})")
    return fails


# -- exact ---------------------------------------------------------------------


def check_tv_table(header, rows, kind, n, reference):
    """exact: the TV column equals the oracle's table, decreases strictly,
    and round 1 of CCR equals round 1 of CCRR from the sorted deck."""
    fails = []
    ref = reference.get(f"{kind}/{n}")
    if ref is None:
        return [f"no reference table for {kind} n={n}"]
    tv = column(header, rows, "tv")
    if list(column(header, rows, "round")) != list(range(len(rows))):
        fails.append("rounds are not 0, 1, 2, ...")
    if len(tv) > len(ref):
        fails.append(f"{len(tv) - 1} rounds, reference has {len(ref) - 1}")
    for t, (got, want) in enumerate(zip(tv, ref)):
        if abs(got - want) > 1e-12 + 1e-9 * want:
            fails.append(f"round {t}: TV {got!r} differs from the enumeration's {want!r}")
    if not (np.diff(tv) < 0).all():
        fails.append("TV does not decrease strictly over the rounds")
    if kind in ("ccr", "ccrr") and len(tv) > 1:
        other = reference.get(f"{'ccrr' if kind == 'ccr' else 'ccr'}/{n}")
        if other is not None and tv[1] != other[1]:
            fails.append(f"round-1 TV {tv[1]!r} differs from the other kind's {other[1]!r}")
    return fails
