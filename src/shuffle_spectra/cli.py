"""Command-line front end.

Every subcommand is a thin validated wrapper over the library with
reproducible seeds and machine-readable output: CSV (header row, LF,
full-precision %.17g floats, schema comment line) or JSON carrying the
fully resolved configuration.  Progress goes to standard error only.

Exit codes: 0 success, 1 numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, mixing
from .batch import ccrr_rounds
from .deck import Deck, RngStream
from .ideal import (
    MatrixFreeKernel,
    NumericError,
    build_kernel,
    g,
    kernel_to_binary,
    kernel_to_csv,
)
from .mixing import (
    PermDistribution,
    empirical_single_card,
    exact_round_push,
    run_lower_bound_experiment,
    tv_to_uniform,
)
from .shuffles import ShuffleKind, run_round
from .spectral import second_eig_b, second_eig_sym, skew_norm

SCHEMA_LINE = f"# shuffle-spectra {__version__} schema=1"
DEFAULT_SEED = 12345


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _write_csv(path, header, rows, config):
    fh, close = _open_out(path)
    try:
        fh.write(SCHEMA_LINE + "\n")
        fh.write("# config " + json.dumps(config, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    finally:
        if close:
            fh.close()


def _strict(x):
    """JSON has no NaN or infinity: an undefined value is written as null."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_strict(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _write_json(path, payload):
    fh, close = _open_out(path)
    try:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    finally:
        if close:
            fh.close()


def _seed(text):
    """--seed: an integer in 0..2^64-1, the range of a Philox key word."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"{seed} outside 0..2^64-1")
    return seed


def _progress(msg):
    print(msg, file=sys.stderr, flush=True)


# -- subcommands -------------------------------------------------------------


def cmd_gcurve(args, parser):
    if not args.b:
        parser.error("at least one --b value is required")
    try:
        bs = [float(x) for x in args.b.split(",") if x.strip() != ""]
    except ValueError:
        parser.error("--b must be a comma-separated list of numbers")
    if not bs:
        parser.error("at least one --b value is required")
    if any(not 0.0 <= b <= 1.0 for b in bs):
        parser.error("--b values must lie in [0, 1]")
    if args.samples < 2:
        parser.error("--samples must be >= 2")
    us = np.linspace(0.0, 1.0, args.samples)
    rows = []
    for b in bs:
        vals = g(b, us)
        rows.extend((b, float(u), float(v)) for u, v in zip(us, vals))
    config = {"cmd": "gcurve", "b": bs, "samples": args.samples}
    _write_csv(args.out, ["b", "u", "g"], rows, config)
    if args.svg:
        _write_svg_curves(args.svg, bs, us, rows)
    return 0


def _write_svg_curves(path, bs, us, rows):
    w, h, pad = 640, 480, 40
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="{pad}" y="{pad}" width="{w-2*pad}" height="{h-2*pad}" '
        'fill="none" stroke="black"/>',
    ]
    per = len(us)
    for ci, b in enumerate(bs):
        pts = rows[ci * per : (ci + 1) * per]
        path_pts = " ".join(
            f"{pad + u * (w - 2*pad):.2f},{h - pad - v * (h - 2*pad):.2f}"
            for _, u, v in pts
        )
        hue = int(360 * ci / max(len(bs), 1))
        lines.append(
            f'<polyline fill="none" stroke="hsl({hue},70%,40%)" points="{path_pts}"/>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_kernel(args, parser):
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.format == "bin" and args.out in (None, "-"):
        parser.error("binary kernel output requires --out PATH")
    _progress(f"building kernel n={args.n} ({args.row_rule})")
    kernel = build_kernel(args.n, row_rule=args.row_rule)
    if args.format == "bin":
        kernel_to_binary(kernel, args.out)
    else:
        kernel_to_csv(kernel, sys.stdout if args.out in (None, "-") else args.out)
    return 0


def cmd_eigen(args, parser):
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.operator in ("S", "B") and args.n < 2:
        parser.error(f"operator {args.operator} needs --n >= 2")
    if args.maxiter < 1 or not 0.0 < args.tol < math.inf:
        parser.error("need --maxiter >= 1 and a finite --tol > 0")
    _progress(f"building kernel n={args.n}")
    kernel = build_kernel(args.n)
    _progress(f"solving {args.operator} on the O(n) operator")
    solver, apply = {"S": (second_eig_sym, "sym_matvec"),
                     "D": (skew_norm, "skew_matvec"),
                     "B": (second_eig_b, "matvec")}[args.operator]
    solve = {"tol": args.tol, "maxiter": args.maxiter, "seed": args.seed}
    est = solver(getattr(MatrixFreeKernel(args.n), apply), args.n, **solve)
    # one apply of B(n), built entry by entry from the closed-form CDF,
    # recomputes the residual: an oracle independent of the prefix sums
    lam = est.value if est.value.imag else est.value.real
    v = est.vector
    est.residual = float(np.linalg.norm(getattr(kernel, apply)(v) - lam * v))
    payload = json.loads(est.to_json())
    payload["config"] = {"cmd": "eigen", "n": args.n, "operator": args.operator,
                         **solve}
    _write_json(args.out, payload)
    if args.vector_out:
        rows = [(i + 1, float(np.real(v)), float(np.imag(v)))
                for i, v in enumerate(est.vector)]
        _write_csv(args.vector_out, ["index", "re", "im"], rows, payload["config"])
    return 0 if est.converged else 1


def cmd_simulate(args, parser):
    kind = _parse_kind(args.kind, parser)
    # every statistic reports a sample variance, undefined for one replicate
    if args.n < 1 or args.rounds < 0 or args.reps < 2:
        parser.error("need --n >= 1, --rounds >= 0, --reps >= 2")
    if args.stat == "S" and kind is not ShuffleKind.CCRR:
        parser.error("--stat S is defined for the ccrr kind")
    if args.stat == "S" and args.n < 2:
        parser.error("--stat S needs --n >= 2")
    if args.stat == "positions" and args.format == "json":
        parser.error("--stat positions writes CSV only")
    config = {
        "cmd": "simulate", "kind": kind.value, "n": args.n,
        "rounds": args.rounds, "reps": args.reps, "seed": args.seed,
        "stat": args.stat,
    }
    if args.stat == "S":
        _progress(f"solving for the eigenvector statistic at n={args.n}")
        est = second_eig_b(MatrixFreeKernel(args.n).matvec, args.n)
        if not est.converged:  # complex or capped: no real eigenvector to use
            raise NumericError(f"--stat S needs a real dominant pair of B; "
                               f"at n={args.n}: {est.note}")
        _progress(f"simulating {args.reps} replicates x {args.rounds} rounds")
        traj = run_lower_bound_experiment(
            args.n, args.rounds, args.reps, est.vector, abs(est.value), seed=args.seed,
        )
        if args.format == "json":
            payload = traj.summary()
            payload["config"] = config
            _write_json(args.out, payload)
        else:
            _write_csv(args.out, ["round", "mean_abs_S", "var_S", "reps"],
                       traj.to_rows(), config)
        return 0
    # positions statistic: mean and variance of card 1's depth per round
    pos = np.empty((args.rounds + 1, args.reps))
    pos[0] = 1  # every run starts from the sorted deck
    if kind is ShuffleKind.CCRR:
        pos[1:] = ccrr_rounds(args.n, args.rounds, args.reps, args.seed,
                              lambda p: p[:, 0])
    else:
        for r in range(args.reps):
            deck, rng = Deck.identity(args.n), RngStream(args.seed, 1 + r)
            for t in range(1, args.rounds + 1):
                run_round(deck, kind, rng)
                pos[t, r] = deck.position_of(1)
    rows = [(t, float(d.mean()), float(d.var(ddof=1)), args.reps)
            for t, d in enumerate(pos / args.n)]
    _write_csv(args.out, ["round", "mean_pos", "var_pos", "reps"], rows, config)
    return 0


def cmd_exact(args, parser):
    kind = _parse_kind(args.kind, parser)
    if not 1 <= args.n <= mixing.ENUM_N_MAX:
        parser.error(f"--n must lie in 1..{mixing.ENUM_N_MAX} for exact computation")
    if args.rounds < 0:
        parser.error("--rounds must be >= 0")
    config = {"cmd": "exact", "kind": kind.value, "n": args.n, "rounds": args.rounds}
    dist = PermDistribution.point_mass(args.n)
    rows = [(0, float(tv_to_uniform(dist)))]
    for t in range(1, args.rounds + 1):
        dist = exact_round_push(dist, kind)
        rows.append((t, float(tv_to_uniform(dist))))
    if args.format == "json":
        _write_json(args.out, {"config": config,
                               "tv": [{"round": t, "tv": v} for t, v in rows]})
    else:
        _write_csv(args.out, ["round", "tv"], rows, config)
    return 0


def cmd_singlecard(args, parser):
    if args.n < 1:
        parser.error("--n must be >= 1")
    k0 = round(args.a * args.n)
    if not 1 <= k0 <= args.n or abs(k0 / args.n - args.a) > 1e-9:
        parser.error("--a must be a grid point i/n in (0, 1]")
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    _progress(f"simulating {args.reps} tracked rounds at n={args.n}")
    stats = empirical_single_card(args.n, k0 / args.n, args.reps, seed=args.seed)
    config = {"cmd": "singlecard", "n": args.n, "a": k0 / args.n,
              "reps": args.reps, "seed": args.seed}
    rows = []
    for b in range(len(stats.counts)):
        rows.append((
            float(stats.bucket_edges[b]), float(stats.bucket_edges[b + 1]),
            int(stats.counts[b]), float(stats.means[b]), float(stats.variances[b]),
            float(g(stats.a, stats.bucket_edges[b + 1])),
        ))
    _write_csv(args.out, ["u_lo", "u_hi", "count", "mean_z", "var_z", "g_at_u_hi"],
               rows, config)
    return 0


def _parse_kind(name, parser):
    try:
        return ShuffleKind.parse(name)
    except ValueError as exc:
        parser.error(str(exc))


# -- parser ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shuffle-spectra",
        description="Card-cyclic-to-random shuffling with relabeling: "
                    "simulators, the idealized single-card kernel, spectral "
                    "certificates, exact mixing tables.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, formats=None, seed="base RNG seed (default %(default)s)"):
        if seed:
            p.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help=seed)
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        if formats:
            p.add_argument("--format", choices=list(formats), default=formats[0])

    p = sub.add_parser("gcurve", help="sample the idealized landing map "
                                      "g(b, u) over the unit interval")
    p.add_argument("--b", required=True,
                   help="comma-separated start depths in [0, 1]")
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--svg", default=None, help="also write an SVG polyline plot")
    common(p, seed=None)
    p.set_defaults(func=cmd_gcurve, parser=p)

    p = sub.add_parser("kernel", help="build and export the single-card "
                                      "round kernel B(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--row-rule", choices=["endpoint", "cell-average"],
                   default="endpoint", dest="row_rule")
    common(p, formats=("csv", "bin"), seed=None)
    p.set_defaults(func=cmd_kernel, parser=p)

    p = sub.add_parser("eigen", help="second eigenvalue of S or B, or the "
                                     "skew-part operator norm, with residual")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--operator", choices=["S", "D", "B"], required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--maxiter", type=int, default=100000)
    p.add_argument("--vector-out", default=None, dest="vector_out",
                   help="also write the eigenvector as CSV")
    common(p, seed="seed of the solver's random start vector (default %(default)s)")
    p.set_defaults(func=cmd_eigen, parser=p)

    p = sub.add_parser("simulate", help="Monte Carlo rounds: eigenvector "
                                        "statistic decay or card-1 depth")
    p.add_argument("--kind", default="ccrr",
                   help="ccrr | ccr | top | transpositions | cyclic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--stat", choices=["S", "positions"], default="positions")
    common(p, formats=("csv", "json"))
    p.set_defaults(func=cmd_simulate, parser=p)

    p = sub.add_parser("exact", help="exact total-variation mixing table "
                                     "at tiny n (enumeration)")
    p.add_argument("--kind", default="ccrr")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rounds", type=int, default=6)
    common(p, formats=("csv", "json"),
           seed="accepted so every run takes --seed; exact tables draw "
                "no random numbers")
    p.set_defaults(func=cmd_exact, parser=p)

    p = sub.add_parser("singlecard", help="empirical conditional law of a "
                                          "tracked card's landing position")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, default=0.5,
                   help="tracked card's start depth (grid point i/n)")
    p.add_argument("--reps", type=int, default=10000)
    common(p)
    p.set_defaults(func=cmd_singlecard, parser=p)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, args.parser)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
