"""Run one operation of a workload in a fresh interpreter and report on it.

``run.py`` starts one of these per operation, so every operation meets cold
caches and a fresh process, as a CLI user does.  The child imports the
package, builds the operation's inputs, then runs it through
``shuffle_spectra.cli.main(argv)`` (or the README snippet) with its output
captured, and checks that output only after the clock has stopped.

Prints one JSON line: ``setup_s`` (from the parent's spawn time to inputs
ready), ``wall_s`` (the operation alone), ``peak_rss_mb`` (this process's
high-water mark right after the operation), ``failures``, a digest of the
operation's standard output, and with ``--trace 1`` the operation's
per-layer values.  With ``--check 0`` the checks are skipped (the parent
compares a later pass with the first by digest); with ``--probe`` it stops
after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description="run one benchmark operation")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--op", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="the parent's time.perf_counter() at spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where to write the spans")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--check", type=int, choices=(0, 1), default=1,
                        help="0: skip the checks (the parent compares digests)")
    args = parser.parse_args()

    import numpy  # noqa: F401  (part of the package's import cost)

    import shuffle_spectra
    from shuffle_spectra import cli

    import workloads

    where = Path(shuffle_spectra.__file__).resolve().parent
    if where != ROOT / "src" / "shuffle_spectra":
        print(f"imported shuffle_spectra from {where}, not from this checkout",
              file=sys.stderr)
        return 2
    op = workloads.WORKLOADS[args.workload][args.op]
    argv = op.cli_argv(args.seed) if op.argv else None
    streams = workloads.sample_streams(op, args.seed)
    setup_s = time.perf_counter() - args.spawned  # monotonic clock, shared by processes
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import instrument

    rec = instrument.Recorder(timing=bool(args.trace))
    caps = instrument.install(rec, streams)
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv) if argv else workloads.run_snippet(caps)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:
            rc, error = None, traceback.format_exc()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec.active = False

    if error is not None:
        failures = [f"{op.label} raised:\n{error}"]
    elif rc not in (0, None):
        failures = [f"{op.label} exited {rc}: {err.getvalue()[-2000:]}"]
    elif not args.check:
        failures = []
    else:
        try:
            failures = [f"{op.label}: {f}" for f in op.check(op, args.seed, out.getvalue(), caps)]
        except Exception:
            failures = [f"{op.label}: check raised:\n{traceback.format_exc()}"]
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "digest": digest, "failures": failures}
    if args.trace:
        result["layers"] = instrument.span_metrics(rec.spans)
        if args.spans:
            rec.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
