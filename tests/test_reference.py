"""The CLI's stdout against files pinned in tests/reference/.

Each file holds the stdout of one command.  Comment lines, the header,
integers and every field the program computes with arithmetic alone must
match as text: in ``simulate --stat positions``, ``mean_pos`` and
``var_pos`` are sums and quotients of depths.  The fields computed with
``exp`` and ``log`` (the second entry of each case) may differ in their
last bits between CPUs, as numpy and libm pick SIMD code per machine, so
those are compared within ``ULPS`` units in the last place: in
``singlecard``, ``g_at_u_hi``.

``python tests/test_reference.py --update`` rewrites every file from the
current code through ``cli.main``.  A change that moves a reference lists
the moved fields, and why they moved, in CHANGES.md.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from shuffle_spectra import ShuffleKind
from shuffle_spectra.cli import main

REFERENCE = Path(__file__).parent / "reference"
ULPS = 4


def _positions(kind, n):
    return ["simulate", "--kind", kind, "--n", str(n), "--rounds", "5", "--reps", "20",
            "--stat", "positions"]


# file name -> (argv, fields compared within ULPS)
CASES = {
    "singlecard_n100.csv": (["singlecard", "--n", "100", "--a", "0.5", "--reps", "5000"],
                            {"g_at_u_hi"}),
    "singlecard_n6.csv": (["singlecard", "--n", "6", "--a", "0.5", "--reps", "5000"],
                          {"g_at_u_hi"}),
    **{f"positions_{kind.value}_n50.csv": (_positions(kind.value, 50), set())
       for kind in ShuffleKind},
    # past the byte range of a Deck round's card container
    "positions_ccr_n300.csv": (_positions("ccr", 300), set()),
}


def _within_ulps(got, want):
    return abs(float(got) - float(want)) <= ULPS * np.spacing(abs(float(want)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_the_pinned_file(name, capsys):
    argv, ulp_fields = CASES[name]
    assert main(argv) == 0
    got = capsys.readouterr().out.splitlines()
    want = (REFERENCE / name).read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    head = sum(ln.startswith("#") for ln in want) + 1  # comments, then the header
    assert got[:head] == want[:head]
    loose = {i for i, field in enumerate(want[head - 1].split(",")) if field in ulp_fields}
    for got_row, want_row in zip(got[head:], want[head:]):
        g, w = got_row.split(","), want_row.split(",")
        assert len(g) == len(w)
        for i, (x, y) in enumerate(zip(g, w)):
            assert _within_ulps(x, y) if i in loose else x == y, want_row


def update():
    """Rewrite every CASES file from the current code."""
    for name, (argv, _) in sorted(CASES.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(argv) != 0:
                sys.exit(f"{' '.join(argv)} failed; {name} not written")
        (REFERENCE / name).write_text(out.getvalue(), encoding="utf-8", newline="\n")
        print(f"wrote {REFERENCE / name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_reference.py --update")
    update()
