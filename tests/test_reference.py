"""The CLI's stdout against files pinned in tests/reference/.

Each file holds the stdout of one command; a change that moves one says
which fields moved and why.  Comment lines, the header, integers and every
field the program computes with arithmetic alone must match as text.  The
fields computed with ``exp`` and ``log`` (the second entry of each case)
may differ in their last bits between CPUs, as numpy and libm pick SIMD
code per machine, so those are compared within ``ULPS`` units in the last
place: in ``singlecard``, ``g_at_u_hi``.
"""

from pathlib import Path

import numpy as np
import pytest

from shuffle_spectra.cli import main

REFERENCE = Path(__file__).parent / "reference"
ULPS = 4

# file name -> (argv, fields compared within ULPS)
CASES = {
    "singlecard_n100.csv": (["singlecard", "--n", "100", "--a", "0.5", "--reps", "5000"],
                            {"g_at_u_hi"}),
    "singlecard_n6.csv": (["singlecard", "--n", "6", "--a", "0.5", "--reps", "5000"],
                          {"g_at_u_hi"}),
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
