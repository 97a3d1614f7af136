"""Call-boundary wrappers installed from the benchmark's side; ``src/`` is not
touched.

A ``Recorder`` replaces a function at the name its callers reach it through
(``shuffle_spectra.cli.build_kernel``, ``shuffle_spectra.mixing.
batch_round_positions``, a method on its class, ...).  Every wrapper can
capture what the checks need (a return value, a few sampled rows).  With
timing on it also records a span -- id, parent id, name, start, end, and a
work count -- kept in memory until the operation ends.  Per-layer metrics
are derived from the spans alone: totals and counts per span name, self
time as a span's duration minus its direct children's.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict

import numpy as np


class Recorder:
    def __init__(self, timing):
        self.timing = timing
        self.active = True
        self.spans = []  # (id, parent id or -1, name, start, end, work)
        self._stack = []

    def wrap(self, owner, attr, name, work=None, capture=None):
        """Replace ``owner.attr`` by a wrapper recording span ``name``."""
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if not rec.timing:
                out = fn(*args, **kwargs)
            else:
                sid = len(rec.spans)  # a span's id is its index
                parent = rec._stack[-1] if rec._stack else -1
                rec.spans.append(None)  # reserved; children append after it
                rec._stack.append(sid)
                start = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    rec._stack.pop()
                    rec.spans[sid] = (sid, parent, name, start, end, 0)
                if work is not None:
                    rec.spans[sid] = (sid, parent, name, start, end, work(args, kwargs, out))
            if capture is not None:
                capture(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start", "end", "work"])
            out.writerows(self.spans)


def install(rec, sample_streams):
    """Wrap every public entry point the workloads reach; returns the dict
    the captures fill.  ``sample_streams`` are the RngStream ids of the
    replicates whose rounds are kept for the literal replays."""
    import shuffle_spectra as pkg
    from shuffle_spectra import batch, cli, deck, ideal, mixing

    captures = defaultdict(list)

    def keep(key):
        return lambda args, kwargs, out: captures[key].append(out)

    def keep_call(key):
        return lambda args, kwargs, out: captures[key].append((args, kwargs, out))

    def positions(args, kwargs, out):
        # BatchCcrr.positions: sampled rows every round, all rows of the last
        captures["final_pos"] = [out]
        first = args[0].stream_base
        for s in sample_streams:
            if 0 <= s - first < out.shape[0]:
                captures[("pos", s)].append(out[s - first].copy())

    def deck_orders(args, kwargs, out):
        # shuffles.run_round(deck, kind, rng): the order after each round
        deck_, _kind, rng = args[:3]
        if rng.stream in sample_streams:
            captures[("order", rng.stream)].append(list(deck_.order))

    def n_of(args, kwargs, out):
        return out.n

    def iterations(args, kwargs, out):
        return out.iterations

    def shape(args, kwargs, out):
        return out.shape

    def ccr_replays(args, kwargs, out):
        dist, kind = args[:2]
        if getattr(kind, "value", kind) != "ccr":
            return 0
        return int(np.count_nonzero(dist.probs)) * dist.n**dist.n

    def is_complex(args, kwargs, out):
        return int(np.iscomplexobj(args[1]))

    w = rec.wrap
    w(cli, "main", "cli.main")
    for mod in (cli, pkg):  # the CLI's names and the README snippet's
        w(mod, "build_kernel", "ideal.build_kernel", n_of, keep("kernel"))
        w(mod, "second_eig_sym", "spectral.second_eig_sym", iterations, keep("est"))
    w(cli, "skew_norm", "spectral.skew_norm", iterations, keep("est"))
    w(cli, "second_eig_b", "spectral.second_eig_b", iterations, keep("est"))
    w(pkg, "smooth_boundary", "spectral.smooth_boundary")
    w(pkg, "interpolate", "spectral.interpolate")
    w(pkg, "residual", "spectral.residual")
    w(pkg, "apply_sym", "ideal.apply_sym")
    w(cli, "run_lower_bound_experiment", "mixing.experiment",
      capture=keep_call("experiment"))
    w(cli, "empirical_single_card", "mixing.single_card", capture=keep("single"))
    w(cli, "exact_round_push", "mixing.exact_round_push", ccr_replays)
    w(cli, "tv_to_uniform", "mixing.tv_to_uniform")
    w(cli, "run_round", "shuffles.run_round", capture=deck_orders)
    w(mixing, "round_position_law", "mixing.round_position_law")
    w(mixing, "uniform_positions", "batch.uniform_positions")
    for mod in (mixing, batch):
        w(mod, "batch_round_positions", "batch.round_positions", shape)
    w(batch.BatchCcrr, "draw_slots", "batch.draw_slots")
    w(batch.BatchCcrr, "run_round", "batch.run_round")
    w(batch.BatchCcrr, "positions", "batch.positions", capture=positions)
    w(mixing.TestStatistic, "from_positions", "mixing.statistic", capture=keep("stat"))
    w(deck.RngStream, "__init__", "deck.stream_setup")
    w(deck.RngStream, "slots", "deck.draw")
    w(deck.RngStream, "permutation", "deck.draw")
    for method in ("matvec", "rmatvec", "sym_matvec", "skew_matvec"):
        w(ideal.GridKernel, method, f"ideal.kernel.{method}", is_complex)
    return captures


# -- per-layer metrics ---------------------------------------------------------

# name: (unit, how the per-operation values combine over a pass)
LAYER_METRICS = {
    "deck.stream_setup_s": ("s", sum),
    "deck.stream_setups": ("count", sum),
    "deck.draw_s": ("s", sum),
    "shuffles.run_round_s": ("s", sum),
    "shuffles.rounds": ("count", sum),
    "batch.round_positions_s": ("s", sum),
    "batch.replicate_rounds": ("count", sum),
    "batch.draw_slots_s": ("s", sum),
    "batch.positions_s": ("s", sum),
    "batch.uniform_positions_s": ("s", sum),
    "batch.positions_used_ratio": ("ratio", None),  # derived below
    "ideal.build_kernel_s": ("s", sum),
    "ideal.build_kernel_calls": ("count", sum),
    "ideal.kernel_mb": ("MB", max),
    "ideal.apply_sym_s": ("s", sum),
    "ideal.apply_sym_calls": ("count", sum),
    "ideal.kernel_apply_s": ("s", sum),
    "ideal.kernel_applies": ("count", sum),
    "ideal.complex_applies": ("count", sum),
    "spectral.second_eig_sym_s": ("s", sum),
    "spectral.skew_norm_s": ("s", sum),
    "spectral.second_eig_b_s": ("s", sum),
    "spectral.residual_s": ("s", sum),
    "spectral.power_iters": ("count", sum),
    "spectral.stationary_iters": ("count", sum),
    "mixing.experiment_self_s": ("s", sum),
    "mixing.statistic_s": ("s", sum),
    "mixing.single_card_self_s": ("s", sum),
    "mixing.exact_push_s": ("s", sum),
    "mixing.round_law_s": ("s", sum),
    "mixing.tv_s": ("s", sum),
    "mixing.ccr_replays": ("count", sum),
    "cli.self_s": ("s", sum),
}


def span_metrics(spans):
    """Per-layer values of one operation's spans (span id = list index),
    plus the raw position counts behind ``batch.positions_used_ratio``."""
    child = defaultdict(float)
    for sid, parent, name, start, end, work in spans:
        child[parent] += end - start
    total, self_t, count = defaultdict(float), defaultdict(float), defaultdict(int)
    for sid, parent, name, start, end, work in spans:
        total[name] += end - start
        self_t[name] += end - start - child[sid]
        count[name] += 1

    def under(sid, name):
        parent = spans[sid][1]
        while parent != -1:
            if spans[parent][2] == name:
                return True
            parent = spans[parent][1]
        return False

    works = defaultdict(list)
    for s in spans:
        works[s[2]].append(s)
    rows = computed = used = 0
    for sid, _, _, _, _, (r, n) in works["batch.round_positions"]:
        rows += r
        computed += r * n
        # empirical_single_card reads one card's column; other callers all
        used += r if under(sid, "mixing.single_card") else r * n
    kernel_names = [f"ideal.kernel.{m}" for m in
                    ("matvec", "rmatvec", "sym_matvec", "skew_matvec")]
    solves = ("spectral.second_eig_sym", "spectral.skew_norm", "spectral.second_eig_b")
    return {
        "deck.stream_setup_s": total["deck.stream_setup"],
        "deck.stream_setups": count["deck.stream_setup"],
        "deck.draw_s": total["deck.draw"],
        "shuffles.run_round_s": total["shuffles.run_round"],
        "shuffles.rounds": count["shuffles.run_round"],
        "batch.round_positions_s": total["batch.round_positions"],
        "batch.replicate_rounds": rows,
        "batch.draw_slots_s": total["batch.draw_slots"],
        "batch.positions_s": total["batch.positions"],
        "batch.uniform_positions_s": total["batch.uniform_positions"],
        "batch.positions_computed": computed,
        "batch.positions_used": used,
        "ideal.build_kernel_s": total["ideal.build_kernel"],
        "ideal.build_kernel_calls": count["ideal.build_kernel"],
        "ideal.kernel_mb": max([s[5] ** 2 * 8 / 2**20 for s in works["ideal.build_kernel"]],
                               default=0.0),
        "ideal.apply_sym_s": total["ideal.apply_sym"],
        "ideal.apply_sym_calls": count["ideal.apply_sym"],
        "ideal.kernel_apply_s": sum(total[k] for k in kernel_names),
        "ideal.kernel_applies": sum(count[k] for k in kernel_names),
        "ideal.complex_applies": sum(s[5] for k in kernel_names for s in works[k]),
        "spectral.second_eig_sym_s": self_t["spectral.second_eig_sym"],
        "spectral.skew_norm_s": self_t["spectral.skew_norm"],
        "spectral.second_eig_b_s": self_t["spectral.second_eig_b"],
        "spectral.residual_s": self_t["spectral.residual"],
        "spectral.power_iters": sum(s[5] for k in solves for s in works[k]),
        "spectral.stationary_iters": sum(
            1 for s in works["ideal.kernel.rmatvec"]
            if s[1] != -1 and spans[s[1]][2] == "spectral.second_eig_b"),
        "mixing.experiment_self_s": self_t["mixing.experiment"],
        "mixing.statistic_s": total["mixing.statistic"],
        "mixing.single_card_self_s": self_t["mixing.single_card"],
        "mixing.exact_push_s": self_t["mixing.exact_round_push"],
        "mixing.round_law_s": self_t["mixing.round_position_law"],
        "mixing.tv_s": total["mixing.tv_to_uniform"],
        "mixing.ccr_replays": sum(s[5] for s in works["mixing.exact_round_push"]),
        "cli.self_s": self_t["cli.main"],
    }


def combine(per_op):
    """One pass's per-layer metrics from its operations' span_metrics."""
    out = {}
    for name, (_unit, how) in LAYER_METRICS.items():
        if how is not None:
            out[name] = how(op[name] for op in per_op)
    computed = sum(op["batch.positions_computed"] for op in per_op)
    used = sum(op["batch.positions_used"] for op in per_op)
    out["batch.positions_used_ratio"] = used / computed if computed else 0.0
    return out
