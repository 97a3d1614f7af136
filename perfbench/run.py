"""Benchmark of shuffle-spectra's CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a checkout (the package is imported from ``src/``).  A
pass runs every operation of the workload once, each in a fresh interpreter
(``child.py``); passes repeat while another one fits in ``--seconds`` (the
first always runs).  Every operation's output is checked; a nonzero exit or
a failed check counts the operation as failed and makes this command exit 1.

``--trace 0`` reports the end-to-end metrics: setup_s (median over every
process), wall_s (the sum over operations of each one's median time over
the passes) and peak_rss_mb (median over passes).  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (medians), the tracing overhead, and replicate_rounds_per_s from the
untraced ones.  The last line of standard output is one JSON object; the
per-pass results and the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7  # set-up probes top the passes' own samples up to this
RUN_LIMIT_S = 150.0  # start no further pass that would likely end after this
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("SHUFFLE_SPECTRA_THREADS", None)  # measure the CLI's own default
    return env


def spawn(workload, index, seed, trace, timeout, spans=None, probe=False, check=True):
    """Run child.py once; its JSON line, or a failure record."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--op", str(index), "--seed", str(seed), "--trace", str(trace),
           "--check", str(int(check))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if probe:
        cmd.append("--probe")
    cmd += ["--spawned", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"failures": [f"operation {index} timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"operation {index}: child exited {proc.returncode}: "
                             f"{proc.stderr[-2000:]}"]}
    return json.loads(lines[-1])


def run_pass(workload, seed, trace, deadline, tag, first=None):
    """One pass.  The first pass is checked in full; a later one must print
    byte for byte what the first printed (same seed, same output), which
    leaves more of the run for measuring."""
    ops = WORKLOADS[workload]
    results = []
    for i in range(len(ops)):
        spans = OUT / f"spans-{workload}-seed{seed}-{tag}-op{i}.csv" if trace else None
        r = spawn(workload, i, seed, trace, deadline - time.perf_counter(), spans,
                  check=first is None)
        if first is not None and not r["failures"] and r["digest"] != first[i]:
            r["failures"] = [f"{ops[i].label}: output differs from the first pass's"]
        results.append(r)
    ok = [r for r in results if not r["failures"]]
    return {
        "op_wall_s": [r.get("wall_s") for r in results],  # None where it failed
        "digests": [r.get("digest") for r in results],
        "peak_rss_mb": max((r["peak_rss_mb"] for r in ok), default=0.0),
        "setups": [r["setup_s"] for r in ok],
        "attempted": sum(op.calls for op in ops),
        "failed": sum(op.calls for op, r in zip(ops, results) if r["failures"]),
        "failures": [f for r in results for f in r["failures"]],
        "layers": instrument.combine([r["layers"] for r in ok]) if trace and ok else None,
    }


def op_medians(passes):
    """Each operation's median time over the passes (None if it never passed).

    Per operation rather than per pass, so that one slow stretch on a shared
    machine moves one sample of each operation it overlaps, not a whole sum."""
    out = []
    for walls in zip(*(p["op_wall_s"] for p in passes)):
        ok = [w for w in walls if w is not None]
        out.append(statistics.median(ok) if ok else None)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "shuffle_spectra" / "__init__.py").is_file():
        print(f"no shuffle_spectra package under {ROOT / 'src'}: run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    start = time.perf_counter()
    deadline = start + 170.0
    plain, traced = [], []
    while True:
        t0 = time.perf_counter()
        first = plain[0]["digests"] if plain else None
        plain.append(run_pass(args.workload, args.seed, 0, deadline, f"p{len(plain)}",
                              first))
        if args.trace:
            traced.append(run_pass(args.workload, args.seed, 1, deadline,
                                   f"t{len(traced)}", plain[0]["digests"]))
        now = time.perf_counter()
        # measure whole passes only: stop unless another one fits in --seconds
        if now + (now - t0) > start + min(args.seconds, RUN_LIMIT_S):
            break
    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    setups = [s for p in plain for s in p["setups"]]
    while not failures and len(setups) < SETUP_SAMPLES:
        probe = spawn(args.workload, 0, args.seed, 0, deadline - time.perf_counter(),
                      probe=True)
        failures += probe.get("failures", [])
        setups += [probe["setup_s"]] if "setup_s" in probe else []

    ops = WORKLOADS[args.workload]
    medians = op_medians(plain)
    wall_s = sum(w for w in medians if w is not None)
    if args.trace:
        names = list(instrument.LAYER_METRICS)
        layers = [p["layers"] for p in traced if p["layers"]]
        values = {k: statistics.median(x[k] for x in layers) if layers else 0.0
                  for k in names}
        units = {k: unit for k, (unit, _) in instrument.LAYER_METRICS.items()}
        values["trace.overhead_s"] = sum(w for w in op_medians(traced) if w is not None) - wall_s
        units["trace.overhead_s"] = "s"
        mc = [(op.replicate_rounds, w) for op, w in zip(ops, medians)
              if op.replicate_rounds and w is not None]
        mc_wall = sum(w for _, w in mc)
        values["replicate_rounds_per_s"] = sum(r for r, _ in mc) / mc_wall if mc_wall else 0.0
        units["replicate_rounds_per_s"] = "1/s"
    else:
        values = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "wall_s": wall_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = END_TO_END
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"result": result, "passes": passes, "setups": setups}, fh, indent=1)

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and {len(traced)} "
          f"traced passes, {attempted} operations attempted, {failed} failed")
    for k, v in values.items():
        print(f"  {k:32s} {v:14.6g} {units[k]}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
