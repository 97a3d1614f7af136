"""The benchmark's four workloads.

Each workload is a tuple of operations.  An operation is one CLI command run
through ``shuffle_spectra.cli.main(argv)`` with ``--seed`` appended, or the
README's certificate snippet (five library calls).  Each operation has a
check that reads its output and what the instrumentation captured.

This module is imported before the child process's set-up clock stops, so
it imports nothing heavy at module level.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple  # CLI arguments without --seed; empty for the snippet
    check: Callable
    calls: int = 1  # operations counted (the snippet makes five library calls)
    replicate_rounds: int = 0  # batched CCRR replicate-rounds (Monte Carlo commands)

    def params(self):
        return dict(zip(self.argv[1::2], self.argv[2::2]))

    def cli_argv(self, seed):
        return [*self.argv, "--seed", str(seed)]


def sample_replicates(seed, reps):
    """Replicates whose rounds are replayed literally: first, last, one drawn."""
    return sorted({0, reps - 1, random.Random(seed).randrange(reps)})


def sample_streams(op, seed):
    """RngStream ids of the sampled replicates (the CLI gives replicate r
    stream 1 + r)."""
    reps = op.params().get("--reps")
    return {1 + r for r in sample_replicates(seed, int(reps))} if reps else set()


def _kernel_rows(seed, n):
    rng = random.Random(seed)
    return sorted({1, n, *(rng.randint(1, n) for _ in range(6))})


# -- checks: captured outputs -> checks.py ---------------------------------------


def _check_eigen(op, seed, out, caps):
    import checks

    kernel, est = caps["kernel"][-1], caps["est"][-1]
    return (checks.check_kernel(kernel.probs, _kernel_rows(seed, kernel.n))
            + checks.check_eigen(json.loads(out), est.vector, kernel.probs,
                                 op.params()["--operator"]))


SNIPPET = {"n1": 1000, "k": 25, "n2": 4000}


def run_snippet(caps):
    """The README's certificate snippet at a scale that finishes in seconds:
    eigenvector at n1, k-point boundary smoothing, interpolation to n2, and a
    matrix-free residual against apply_sym."""
    import shuffle_spectra as ss

    n1, k, n2 = SNIPPET["n1"], SNIPPET["k"], SNIPPET["n2"]
    kernel = ss.build_kernel(n1)
    est = ss.second_eig_sym(kernel.sym_matvec, n1, tol=1e-12)
    psi = ss.interpolate(ss.smooth_boundary(est.vector, k), n2)

    def apply(v):
        y = ss.apply_sym(n2, v)
        caps["applied"].append(y)
        return y

    res = ss.residual(apply, psi, est.value.real, convention="function")
    caps["snippet"].append((kernel, est, psi, res))
    print(res)


def _check_snippet(op, seed, out, caps):
    import checks

    (kernel, est, psi, res), = caps["snippet"]
    n2 = SNIPPET["n2"]
    return (checks.check_kernel(kernel.probs, _kernel_rows(seed, kernel.n))
            + checks.check_snippet(SNIPPET["k"], est.value.real, est.converged,
                                   est.vector, psi, caps["applied"][-1], res, n2,
                                   _kernel_rows(seed + 1, n2)))


def _check_decay(op, seed, out, caps):
    import checks
    from shuffle_spectra.deck import RngStream

    p = op.params()
    n, rounds, reps = int(p["--n"]), int(p["--rounds"]), int(p["--reps"])
    _, header, rows = checks.parse_csv(out)
    (args, _kwargs, _traj), = caps["experiment"]
    phi, lam = args[3], args[4]
    replays = {}
    for r in sample_replicates(seed, reps):
        stream = RngStream(seed, 1 + r)
        draws = [stream.slots(n, n) for _ in range(rounds)]
        replays[r] = (draws, caps[("pos", 1 + r)])
    # from_positions runs once per round, then once on the uniform decks
    return checks.check_decay(header, rows, lam, phi, caps["stat"][:rounds],
                              caps["final_pos"][0], replays)


def _check_bands(op, seed, out, caps):
    import checks

    p = op.params()
    _, header, rows = checks.parse_csv(out)
    return checks.check_conditional_bands(header, rows, int(p["--n"]),
                                          float(p["--a"]), int(p["--reps"]))


def _check_small_row(op, seed, out, caps):
    import checks
    import oracles

    p = op.params()
    n = int(p["--n"])
    k0 = round(float(p["--a"]) * n)
    _, header, rows = checks.parse_csv(out)
    (stats,) = caps["single"]
    return checks.check_small_row(header, rows, stats.row_hist,
                                  oracles.single_card_table(n, k0), k0, int(p["--reps"]))


def _check_sequential(op, seed, out, caps):
    import checks
    from shuffle_spectra.deck import RngStream

    p = op.params()
    kind, n = p["--kind"], int(p["--n"])
    rounds, reps = int(p["--rounds"]), int(p["--reps"])
    _, header, rows = checks.parse_csv(out)
    fails = checks.check_uniform_depth(header, rows, n, reps, rounds)
    for r in sample_replicates(seed, reps):
        stream = RngStream(seed, 1 + r)
        draws = [[stream.slot(n) for _ in range(n)] for _ in range(rounds)]
        fails += checks.check_replay(kind, n, draws, caps[("order", 1 + r)],
                                     f"{kind} replicate {r}")
    return fails


def _check_exact(op, seed, out, caps):
    """Against the enumerator run live where it is cheap (n <= 4), else
    against reference_tv.json, which the same enumerator wrote."""
    import checks
    import oracles

    p = op.params()
    kind, n = p["--kind"], int(p["--n"])
    _, header, rows = checks.parse_csv(out)
    if n <= 4:
        rounds = len(rows) - 1
        reference = {f"{k}/{n}": [float(x) for x in oracles.tv_table_exact(k, n, rounds)]
                     for k in {kind, "ccr", "ccrr"}}
    else:
        reference = oracles.load_reference()
    return checks.check_tv_table(header, rows, kind, n, reference)


WORKLOADS = {
    "certificate": (
        Op("eigen S", ("eigen", "--n", "3000", "--operator", "S"), _check_eigen),
        Op("eigen D", ("eigen", "--n", "3000", "--operator", "D"), _check_eigen),
        Op("eigen B", ("eigen", "--n", "1000", "--operator", "B"), _check_eigen),
        Op("snippet", (), _check_snippet, calls=5),
    ),
    "decay": (
        Op("simulate ccrr S", ("simulate", "--kind", "ccrr", "--n", "2000",
                               "--rounds", "3", "--reps", "300", "--stat", "S"),
           _check_decay, replicate_rounds=3 * 300),
    ),
    "tracked-card": (
        Op("singlecard n=1000", ("singlecard", "--n", "1000", "--a", "0.5",
                                 "--reps", "2000"),
           _check_bands, replicate_rounds=2000),
        Op("singlecard n=6", ("singlecard", "--n", "6", "--a", "0.5",
                              "--reps", "50000"),
           _check_small_row, replicate_rounds=50000),
        Op("simulate top", ("simulate", "--kind", "top", "--n", "100", "--rounds",
                            "20", "--reps", "100", "--stat", "positions"),
           _check_sequential),
        Op("simulate ccr", ("simulate", "--kind", "ccr", "--n", "100", "--rounds",
                            "20", "--reps", "100", "--stat", "positions"),
           _check_sequential),
    ),
    "exact": (
        Op("exact ccr n=4", ("exact", "--kind", "ccr", "--n", "4"), _check_exact),
        Op("exact ccrr n=5", ("exact", "--kind", "ccrr", "--n", "5", "--rounds", "6"),
           _check_exact),
        Op("exact ccrr n=7", ("exact", "--kind", "ccrr", "--n", "7"), _check_exact),
        Op("exact transpositions n=6", ("exact", "--kind", "transpositions", "--n", "6"),
           _check_exact),
    ),
}
