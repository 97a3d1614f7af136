"""Tests of the benchmark's oracles and checks.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q

The oracles must agree with the program where both are cheap, and every
check must pass the program's real output and reject a deliberately wrong
one: a check that cannot fail checks nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import instrument  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from shuffle_spectra import cli  # noqa: E402
from shuffle_spectra.batch import batch_round_positions  # noqa: E402
from shuffle_spectra.deck import RngStream  # noqa: E402
from shuffle_spectra.ideal import g, g_inverse  # noqa: E402
from shuffle_spectra.mixing import exact_single_card_kernel  # noqa: E402

SEED = 7
STREAMS = {1, 2, 3}  # replicates 0, 1, 2 are captured for literal replays


@pytest.fixture(scope="module")
def run_cli():
    """cli.main with the benchmark's capture hooks installed once."""
    caps = instrument.install(instrument.Recorder(timing=False), STREAMS)

    def run(*argv):
        caps.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([*argv, "--seed", str(SEED)]) == 0
        return out.getvalue(), caps

    return run


# -- oracles against the program -------------------------------------------------


def test_landing_map_matches_program():
    b = np.linspace(0, 1, 11)[:, None]
    u = np.linspace(0, 1, 101)[None, :]
    assert np.abs(oracles.landing_g(b, u) - g(b, u)).max() < 1e-15
    z = np.linspace(0, 1, 57)
    assert np.abs(oracles.landing_cdf(0.3, z) - g_inverse(0.3, z)).max() < 1e-10


def test_literal_replay_matches_batch_round():
    rng = np.random.default_rng(1)
    for n in (1, 2, 7, 40):
        slots = rng.integers(1, n + 1, size=(5, n))
        got = batch_round_positions(slots)
        for r in range(5):
            order = oracles.literal_round(range(1, n + 1), "ccrr", list(slots[r]))
            assert oracles.positions_of(order) == list(got[r])


@pytest.mark.parametrize("kind", ["ccr", "ccrr", "top", "transpositions"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_tv_tables_match_cli_at_small_n(run_cli, kind, n):
    out, _ = run_cli("exact", "--kind", kind, "--n", str(n), "--rounds", "3")
    _, header, rows = checks.parse_csv(out)
    want = [float(x) for x in oracles.tv_table_exact(kind, n, 3)]
    assert list(checks.column(header, rows, "tv")) == want


def test_single_card_table_matches_program_kernel():
    table = oracles.single_card_table(5, 2)
    kernel = exact_single_card_kernel(5, "ccrr")
    assert [int(x * 5**5) for x in kernel[1]] == list(table.sum(axis=0))


def test_reference_table_regenerates():
    ref = oracles.load_reference()
    for kind, n, rounds in oracles.REFERENCE_CASES:
        assert np.allclose(oracles.reference_table(kind, n, rounds), ref[f"{kind}/{n}"],
                           rtol=1e-12, atol=0)
    # from the sorted deck, CCR's first round is CCRR's
    assert ref["ccr/5"][1] == ref["ccrr/5"][1]


def test_span_metrics_self_time_and_used_ratio():
    spans = [
        (0, -1, "cli.main", 0.0, 10.0, 0),
        (1, 0, "mixing.single_card", 1.0, 9.0, 0),
        (2, 1, "batch.round_positions", 2.0, 5.0, (4, 100)),
        (3, 0, "spectral.second_eig_b", 9.0, 10.0, 3),
        (4, 3, "ideal.kernel.rmatvec", 9.1, 9.3, 1),
        (5, -1, "batch.round_positions", 11.0, 12.0, (2, 100)),
    ]
    m = instrument.span_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["mixing.single_card_self_s"] == pytest.approx(5.0)
    assert m["spectral.second_eig_b_s"] == pytest.approx(0.8)
    assert m["spectral.stationary_iters"] == 1
    assert m["ideal.complex_applies"] == 1
    assert m["batch.replicate_rounds"] == 6
    pas = instrument.combine([m])
    assert pas["batch.positions_used_ratio"] == pytest.approx((4 + 200) / 600)


# -- every check passes real output and rejects a wrong one ----------------------


def test_kernel_and_eigen_checks(run_cli):
    out, caps = run_cli("eigen", "--n", "1000", "--operator", "B")
    kernel, est = caps["kernel"][-1], caps["est"][-1]
    payload = json.loads(out)
    assert checks.check_kernel(kernel.probs, [1, 17, 500, 1000]) == []
    assert checks.check_eigen(payload, est.vector, kernel.probs, "B") == []

    outside = dict(payload, value_re=0.23)
    assert any("outside" in f for f in
               checks.check_eigen(outside, est.vector, kernel.probs, "B"))
    moved = kernel.probs.copy()
    moved[16, 3] += 1e-6
    moved[16, 4] -= 1e-6  # row still sums to 1
    assert any("row 17" in f for f in checks.check_kernel(moved, [17]))
    negative = kernel.probs.copy()
    negative[0, 0] = -1e-3
    assert checks.check_kernel(negative, [])


@pytest.mark.parametrize("operator, wrong", [("S", 0.2320), ("D", 0.0816)])
def test_certified_band_rejects(run_cli, operator, wrong):
    out, caps = run_cli("eigen", "--n", "1000", "--operator", operator)
    kernel, est = caps["kernel"][-1], caps["est"][-1]
    payload = json.loads(out)
    assert checks.check_eigen(payload, est.vector, kernel.probs, operator) == []
    key = "value_re" if operator == "S" else "value_im"
    bad = checks.check_eigen(dict(payload, **{key: wrong}), est.vector, kernel.probs,
                             operator)
    assert any("not certified" in f for f in bad)


def test_snippet_check():
    caps = {"applied": [], "snippet": []}
    with contextlib.redirect_stdout(io.StringIO()):
        workloads.run_snippet(caps)
    (kernel, est, psi, res), = caps["snippet"]
    applied = caps["applied"][-1]
    args = (workloads.SNIPPET["k"], est.value.real, True, est.vector)
    rows = [1, 2, 3999, 4000, 1234]
    assert checks.check_snippet(*args, psi, applied, res, 4000, rows) == []
    wrong = applied.copy()
    wrong[1233] += 1e-6
    assert any("apply_sym" in f for f in
               checks.check_snippet(*args, psi, wrong, res, 4000, rows))
    assert any("recomputed" in f for f in
               checks.check_snippet(*args, psi, applied, res * 1.01, 4000, rows))


def _replays(caps, n, rounds, key):
    out = {}
    for r in (0, 1, 2):
        stream = RngStream(SEED, 1 + r)
        if key == "pos":
            draws = [stream.slots(n, n) for _ in range(rounds)]
        else:
            draws = [[stream.slot(n) for _ in range(n)] for _ in range(rounds)]
        out[r] = (draws, caps[(key, 1 + r)])
    return out


def test_decay_check(run_cli):
    n, rounds = 500, 3
    out, caps = run_cli("simulate", "--kind", "ccrr", "--n", str(n), "--rounds",
                        str(rounds), "--reps", "300", "--stat", "S")
    _, header, rows = checks.parse_csv(out)
    (args, _, _), = caps["experiment"]
    phi, lam = args[3], args[4]
    values, final = caps["stat"][:rounds], caps["final_pos"][0]
    replays = _replays(caps, n, rounds, "pos")
    assert checks.check_decay(header, rows, lam, phi, values, final, replays) == []

    perturbed = {r: (d, [p.copy() for p in pos]) for r, (d, pos) in replays.items()}
    pos = perturbed[1][1][1]
    pos[[3, 4]] = pos[[4, 3]]  # two cards trade places in round 2
    bad = checks.check_decay(header, rows, lam, phi, values, final, perturbed)
    assert any("literal replay" in f for f in bad)

    dup = final.copy()
    dup[5, 0] = dup[5, 1]
    assert any("not a permutation" in f for f in
               checks.check_decay(header, rows, lam, phi, values, dup, replays))

    assert any("signed mean" in f for f in
               checks.check_decay(header, rows, lam * 1.2, phi, values, final, replays))

    rows_bad = [list(r) for r in rows]
    rows_bad[2][header.index("mean_abs_S")] *= 1.001
    assert any("mean_abs_S" in f for f in
               checks.check_decay(header, rows_bad, lam, phi, values, final, replays))


def test_small_row_check(run_cli):
    out, caps = run_cli("singlecard", "--n", "6", "--a", "0.5", "--reps", "20000")
    _, header, rows = checks.parse_csv(out)
    (stats,) = caps["single"]
    table = oracles.single_card_table(6, 3)
    assert checks.check_small_row(header, rows, stats.row_hist, table, 3, 20000) == []
    shifted = stats.row_hist.copy()
    shifted[0] -= 2000
    shifted[5] += 2000
    assert any("in TV" in f for f in
               checks.check_small_row(header, rows, shifted, table, 3, 20000))
    rows_bad = [list(r) for r in rows]
    b = next(i for i, r in enumerate(rows) if r[header.index("count")] > 100)
    rows_bad[b][header.index("mean_z")] += 0.05
    assert any("E[Z|U]" in f for f in
               checks.check_small_row(header, rows_bad, stats.row_hist, table, 3, 20000))


def test_conditional_band_check(run_cli):
    out, _ = run_cli("singlecard", "--n", "1000", "--a", "0.5", "--reps", "2000")
    _, header, rows = checks.parse_csv(out)
    assert checks.check_conditional_bands(header, rows, 1000, 0.5, 2000) == []
    rows_bad = [list(r) for r in rows]
    rows_bad[20][header.index("mean_z")] += 0.05
    assert any("bucket 20" in f for f in
               checks.check_conditional_bands(header, rows_bad, 1000, 0.5, 2000))


@pytest.mark.parametrize("kind", ["top", "ccr"])
def test_sequential_checks(run_cli, kind):
    n, rounds, reps = 20, 8, 200
    out, caps = run_cli("simulate", "--kind", kind, "--n", str(n), "--rounds",
                        str(rounds), "--reps", str(reps), "--stat", "positions")
    _, header, rows = checks.parse_csv(out)
    assert checks.check_uniform_depth(header, rows, n, reps, rounds) == []
    for r, (draws, orders) in _replays(caps, n, rounds, "order").items():
        assert checks.check_replay(kind, n, draws, orders, "r") == []
    draws, orders = _replays(caps, n, rounds, "order")[2]
    orders = [list(o) for o in orders]
    orders[-1][0], orders[-1][1] = orders[-1][1], orders[-1][0]
    assert checks.check_replay(kind, n, draws, orders, "r")
    rows_bad = [list(r) for r in rows]
    rows_bad[-1][header.index("mean_pos")] += 0.15
    assert any("final mean depth" in f for f in
               checks.check_uniform_depth(header, rows_bad, n, reps, rounds))


def test_tv_table_check(run_cli):
    out, _ = run_cli("exact", "--kind", "ccrr", "--n", "5", "--rounds", "6")
    _, header, rows = checks.parse_csv(out)
    ref = oracles.load_reference()
    assert checks.check_tv_table(header, rows, "ccrr", 5, ref) == []
    swapped = [list(r) for r in rows]
    swapped[2][1], swapped[3][1] = swapped[3][1], swapped[2][1]
    bad = checks.check_tv_table(header, swapped, "ccrr", 5, ref)
    assert any("decrease" in f for f in bad)
    assert any("round 2" in f for f in bad)
