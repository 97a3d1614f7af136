import argparse
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from shuffle_spectra import GridKernel, batch, build_kernel, cli, kernel_from_binary, mixing
from shuffle_spectra.cli import main
from shuffle_spectra.ideal import KERNEL_MAGIC


def run_cli(args):
    """Invoke the CLI in-process; returns the exit code (SystemExit-aware)."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    header, *rows = [ln for ln in lines if not ln.startswith("#")]
    return comments, header.split(","), [r.split(",") for r in rows]


class TestGcurve:
    def test_three_samples(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli(["gcurve", "--b", "0.5", "--samples", "3",
                        "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert header == ["b", "u", "g"]
        assert len(rows) == 3
        b, u, val = (float(x) for x in rows[0])
        assert (b, u, val) == (0.5, 0.0, 0.0)
        assert [float(x) for x in rows[2]] == [0.5, 1.0, 1.0]
        mid = float(rows[1][2])
        expected = math.exp(math.exp(-0.5) * 0.5) - 0.5 * math.exp(0.5)
        assert mid == pytest.approx(expected, abs=1e-12)

    def test_smaller_b_steeper_at_origin(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli(["gcurve", "--b", "0.3,0.5,0.7,0.9", "--samples", "101",
                        "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        slopes = {}
        per = 101
        for ci in range(4):
            b = float(rows[ci * per][0])
            u1, g1 = float(rows[ci * per + 1][1]), float(rows[ci * per + 1][2])
            slopes[b] = g1 / u1
        assert slopes[0.3] == max(slopes.values())
        assert sorted(slopes, key=slopes.get, reverse=True) == [0.3, 0.5, 0.7, 0.9]
        # near the origin the curve is exactly linear with slope e^(1-b)
        assert slopes[0.3] == pytest.approx(math.exp(0.7), rel=1e-12)

    def test_empty_b_is_usage_error(self, tmp_path):
        assert run_cli(["gcurve", "--b", ",", "--out", str(tmp_path / "x")]) == 2

    def test_bad_b_value(self, tmp_path):
        assert run_cli(["gcurve", "--b", "1.5", "--out", str(tmp_path / "x")]) == 2

    def test_svg_written(self, tmp_path):
        svg = tmp_path / "g.svg"
        assert run_cli(["gcurve", "--b", "0.3,0.9", "--samples", "20",
                        "--out", str(tmp_path / "g.csv"), "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and text.count("<polyline") == 2


class TestKernelCmd:
    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run_cli(["kernel", "--n", "20", "--out", str(out)]) == 0
        rows = [
            [float(x) for x in line.split(",")]
            for line in out.read_text().strip().splitlines()
        ]
        np.testing.assert_array_equal(np.array(rows), build_kernel(20).probs)

    @pytest.mark.parametrize("rule", ["endpoint", "cell-average"])
    def test_stdout_equals_file(self, tmp_path, capsys, rule):
        out = tmp_path / "k.csv"
        args = ["kernel", "--n", "7", "--row-rule", rule]
        assert run_cli(args) == 0
        printed = capsys.readouterr().out
        assert run_cli([*args, "--out", str(out)]) == 0
        assert printed.encode("utf-8") == out.read_bytes()

    def test_binary_round_trip(self, tmp_path):
        out = tmp_path / "k.bin"
        assert run_cli(["kernel", "--n", "15", "--format", "bin",
                        "--out", str(out)]) == 0
        k = kernel_from_binary(out)
        assert k.n == 15
        np.testing.assert_array_equal(k.probs, build_kernel(15).probs)

    def test_cell_average_binary_round_trip(self, tmp_path):
        out = tmp_path / "k.bin"
        assert run_cli(["kernel", "--n", "15", "--row-rule", "cell-average",
                        "--format", "bin", "--out", str(out)]) == 0
        k = kernel_from_binary(out)
        assert k.probs.tobytes() == build_kernel(15, "cell-average").probs.tobytes()

    @pytest.mark.parametrize("rule", ["endpoint", "cell-average"])
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_csv_bytes_are_each_entry_at_17_digits(self, tmp_path, n, rule):
        out = tmp_path / "k.csv"
        assert run_cli(["kernel", "--n", str(n), "--row-rule", rule,
                        "--out", str(out)]) == 0
        want = "".join(",".join(f"{x:.17g}" for x in row) + "\n"
                       for row in build_kernel(n, rule).probs)
        assert out.read_bytes() == want.encode("utf-8")

    def test_binary_to_stdout_rejected(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("built a kernel before validating")

        monkeypatch.setattr(cli, "build_kernel", build)
        assert run_cli(["kernel", "--n", "5", "--format", "bin"]) == 2
        assert run_cli(["kernel", "--n", "5", "--format", "bin", "--out", "-"]) == 2


class TestEigenCmd:
    @pytest.mark.parametrize("op", ["S", "D", "B"])
    def test_json_payload(self, tmp_path, op):
        out = tmp_path / "e.json"
        assert run_cli(["eigen", "--n", "80", "--operator", op,
                        "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["operator"] == op
        assert payload["n"] == 80
        assert payload["converged"] is True
        assert payload["config"]["cmd"] == "eigen"

    def test_matches_dense_oracle(self, tmp_path):
        out = tmp_path / "e.json"
        run_cli(["eigen", "--n", "80", "--operator", "S", "--out", str(out)])
        payload = json.loads(out.read_text())
        k = build_kernel(80)
        s = 0.5 * (k.probs + k.probs.T)
        w = np.linalg.eigvalsh(s)
        second = w[np.argsort(-np.abs(w))][1]
        assert payload["value_re"] == pytest.approx(second, abs=1e-8)

    @pytest.mark.parametrize("op, solver, apply", [
        ("S", "second_eig_sym", "sym_matvec"), ("D", "skew_norm", "skew_matvec"),
        ("B", "second_eig_b", "matvec")])
    def test_operator_solve_matches_the_dense_solve(self, tmp_path, op, solver, apply):
        # eigen solves on the O(n) operator; the same solver on the dense
        # B(n)'s applies must reach the same value, and the JSON residual
        # is ||A v - lambda v|| on the dense B(n) for the written vector
        out, vec = tmp_path / "e.json", tmp_path / "v.csv"
        assert run_cli(["eigen", "--n", "200", "--operator", op, "--out", str(out),
                        "--vector-out", str(vec)]) == 0
        payload = json.loads(out.read_text())
        value = complex(payload["value_re"], payload["value_im"])
        kernel = build_kernel(200)
        dense = getattr(cli, solver)(getattr(kernel, apply), 200, tol=1e-10,
                                     seed=cli.DEFAULT_SEED)
        assert abs(value - dense.value) <= 1e-12
        _, _, rows = read_csv(vec)
        v = np.array([float(re) + 1j * float(im) for _, re, im in rows])
        if op != "D":
            v, value = v.real, value.real
        res = np.linalg.norm(getattr(kernel, apply)(v) - value * v)
        assert payload["residual"] == pytest.approx(res, rel=1e-12, abs=0)

    def test_complex_pair_exits_1_with_its_eigenvector(self, tmp_path):
        # B(8)'s dominant pair is complex: flagged, and the written vector is
        # its complex eigenvector, with the dense residual in the JSON
        out, vec = tmp_path / "e.json", tmp_path / "v.csv"
        assert run_cli(["eigen", "--n", "8", "--operator", "B", "--out", str(out),
                        "--vector-out", str(vec)]) == 1
        payload = json.loads(out.read_text())
        assert "complex dominant pair" in payload["note"]
        value = complex(payload["value_re"], payload["value_im"])
        _, _, rows = read_csv(vec)
        v = np.array([float(re) + 1j * float(im) for _, re, im in rows])
        res = np.linalg.norm(build_kernel(8).probs @ v - value * v)
        assert res <= 1e-10
        assert payload["residual"] == pytest.approx(res, rel=1e-3)

    @pytest.mark.parametrize("op", ["S", "D", "B"])
    def test_one_dense_apply(self, tmp_path, monkeypatch, op):
        # the dense kernel only checks the residual: one apply per run
        calls = []
        for name in ("matvec", "rmatvec", "sym_matvec", "skew_matvec"):
            real = getattr(GridKernel, name)

            def counted(self, v, real=real):
                calls.append(real.__name__)
                return real(self, v)

            monkeypatch.setattr(GridKernel, name, counted)
        assert run_cli(["eigen", "--n", "200", "--operator", op,
                        "--out", str(tmp_path / "e.json")]) == 0
        assert len(calls) == 1

    def test_vector_out(self, tmp_path):
        vec = tmp_path / "v.csv"
        run_cli(["eigen", "--n", "40", "--operator", "D", "--out",
                 str(tmp_path / "e.json"), "--vector-out", str(vec)])
        _, header, rows = read_csv(vec)
        assert header == ["index", "re", "im"]
        assert len(rows) == 40

    def test_bad_operator(self, tmp_path):
        assert run_cli(["eigen", "--n", "10", "--operator", "Q"]) == 2

    @pytest.mark.parametrize("flag", [["--maxiter", "0"], ["--tol", "0"],
                                      ["--tol", "-0.5"], ["--tol", "nan"],
                                      ["--tol", "inf"]])
    def test_solver_limits_checked_before_building(self, monkeypatch, flag):
        def build(*args, **kwargs):
            raise AssertionError("built a kernel before validating")

        monkeypatch.setattr(cli, "build_kernel", build)
        monkeypatch.setattr(cli, "MatrixFreeKernel", build)
        assert run_cli(["eigen", "--n", "50", "--operator", "S", *flag]) == 2

    @pytest.mark.parametrize("op", ["S", "B"])
    def test_second_eigenvalue_needs_two_cards(self, monkeypatch, op, capsys):
        # a 1x1 operator has no second eigenvalue to report
        def build(*args, **kwargs):
            raise AssertionError("built a kernel before validating")

        monkeypatch.setattr(cli, "build_kernel", build)
        monkeypatch.setattr(cli, "MatrixFreeKernel", build)
        assert run_cli(["eigen", "--n", "1", "--operator", op]) == 2
        assert "--n >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("op, solver", [("S", "second_eig_sym"), ("D", "skew_norm"),
                                            ("B", "second_eig_b")])
    def test_seed_reaches_the_solver(self, tmp_path, monkeypatch, op, solver):
        seeds = []
        real = getattr(cli, solver)

        def recording(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, solver, recording)
        out = tmp_path / "e.json"
        assert run_cli(["eigen", "--n", "30", "--operator", op, "--seed", "7",
                        "--out", str(out)]) == 0
        assert seeds == [7]
        assert json.loads(out.read_text())["config"]["seed"] == 7


class TestSimulateCmd:
    def test_rounds_zero_single_row(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["simulate", "--kind", "ccrr", "--n", "30", "--rounds", "0",
                        "--reps", "50", "--stat", "positions",
                        "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["round", "mean_pos", "var_pos", "reps"]
        assert len(rows) == 1
        assert float(rows[0][2]) == 0.0  # identical start decks

    def test_byte_identical_reruns(self, tmp_path):
        a, b, c = (tmp_path / x for x in ("a.csv", "b.csv", "c.csv"))
        args = ["simulate", "--kind", "ccrr", "--n", "25", "--rounds", "3",
                "--reps", "40", "--stat", "positions", "--seed", "9"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        args[-1] = "10"  # different seed
        assert run_cli(args + ["--out", str(c)]) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_positions_chunks_do_not_change_the_csv(self, tmp_path, monkeypatch):
        # replicate r draws from stream 1 + r whichever chunk it is in
        whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
        args = ["simulate", "--kind", "ccrr", "--n", "25", "--rounds", "4",
                "--reps", "40", "--stat", "positions", "--seed", "3"]
        assert run_cli(args + ["--out", str(whole)]) == 0
        # chunks of 12, 12, 12 and 4 replicates; the last runs its rounds
        # in a block of 3 and one of 1
        monkeypatch.setattr(batch, "CHUNK_ROWS", 12)
        assert run_cli(args + ["--out", str(chunked)]) == 0
        assert whole.read_bytes() == chunked.read_bytes()

    def test_stat_s_small(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["simulate", "--kind", "ccrr", "--n", "40", "--rounds", "2",
                        "--reps", "60", "--stat", "S", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["round", "mean_abs_S", "var_S", "reps"]
        assert len(rows) == 3
        assert float(rows[0][2]) == 0.0

    def test_stat_s_json_summary(self, tmp_path):
        out = tmp_path / "s.json"
        assert run_cli(["simulate", "--kind", "ccrr", "--n", "40", "--rounds", "2",
                        "--reps", "60", "--stat", "S", "--format", "json",
                        "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {"r_hat", "tau", "separation_margin", "config"} <= set(payload)

    def test_baseline_kind_positions(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--kind", "top", "--n", "10", "--rounds", "2",
                        "--reps", "30", "--stat", "positions",
                        "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 3

    def test_stat_s_kind_checked_before_solving(self, monkeypatch):
        def solver(*args, **kwargs):
            raise AssertionError("solved before validating --kind")

        monkeypatch.setattr(cli, "second_eig_b", solver)
        monkeypatch.setattr(cli, "second_eig_sym", solver)
        assert run_cli(["simulate", "--kind", "top", "--n", "2000",
                        "--stat", "S"]) == 2

    def test_stat_s_complex_pair_is_a_numeric_failure(self, tmp_path, capsys):
        # B's dominant pair at n = 8 is complex: there is no real eigenvector
        # statistic, so nothing is simulated and nothing is written
        out = tmp_path / "s.json"
        assert run_cli(["simulate", "--n", "8", "--stat", "S", "--rounds", "2",
                        "--reps", "10", "--format", "json", "--out", str(out)]) == 1
        assert not out.exists()
        assert "complex dominant pair" in capsys.readouterr().err

    def test_stat_s_needs_two_cards(self):
        assert run_cli(["simulate", "--n", "1", "--stat", "S", "--rounds", "1",
                        "--reps", "2"]) == 2

    def test_stat_s_needs_two_reps_before_solving(self, monkeypatch):
        def solver(*args, **kwargs):
            raise AssertionError("solved before validating --reps")

        monkeypatch.setattr(cli, "second_eig_b", solver)
        monkeypatch.setattr(cli, "second_eig_sym", solver)
        assert run_cli(["simulate", "--n", "40", "--stat", "S", "--rounds", "3",
                        "--reps", "1", "--format", "json"]) == 2

    @pytest.mark.parametrize("kind", ["ccrr", "top"])
    def test_positions_needs_two_reps(self, kind, monkeypatch):
        # the sample variance of one replicate is undefined, not 0
        def simulate(*args, **kwargs):
            raise AssertionError("simulated before validating --reps")

        monkeypatch.setattr(cli, "ccrr_rounds", simulate)
        monkeypatch.setattr(cli, "run_round", simulate)
        assert run_cli(["simulate", "--kind", kind, "--n", "10", "--rounds", "2",
                        "--reps", "1", "--stat", "positions"]) == 2

    def test_stat_s_json_is_strict_without_a_fit(self, tmp_path):
        # no round to fit: r_hat and r_hat_signed are undefined, written as null
        out = tmp_path / "s.json"
        assert run_cli(["simulate", "--n", "40", "--stat", "S", "--rounds", "0",
                        "--reps", "20", "--format", "json", "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["r_hat"] is None and payload["r_hat_signed"] is None
        assert payload["var_inf"] > 0

    def test_unknown_kind(self):
        assert run_cli(["simulate", "--kind", "riffle", "--n", "10"]) == 2

    @pytest.mark.parametrize("kind", ["ccrr", "top"])
    def test_positions_json_is_a_usage_error(self, kind, monkeypatch, capsys):
        # the positions table is CSV only; it is refused before any work
        def simulate(*args, **kwargs):
            raise AssertionError("simulated before validating --format")

        monkeypatch.setattr(cli, "ccrr_rounds", simulate)
        monkeypatch.setattr(cli, "run_round", simulate)
        assert run_cli(["simulate", "--kind", kind, "--n", "5", "--rounds", "1",
                        "--reps", "3", "--format", "json"]) == 2
        assert "--stat positions writes CSV only" in capsys.readouterr().err


class TestExactCmd:
    def test_tv_table_decreasing_n4(self, tmp_path):
        out = tmp_path / "tv.csv"
        assert run_cli(["exact", "--kind", "ccrr", "--n", "4", "--rounds", "5",
                        "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["round", "tv"]
        tvs = [float(r[1]) for r in rows]
        assert tvs[0] == pytest.approx(1 - 1 / 24)
        assert all(b < a for a, b in zip(tvs[1:], tvs[2:]))

    def test_json_format(self, tmp_path):
        out = tmp_path / "tv.json"
        assert run_cli(["exact", "--n", "3", "--rounds", "2", "--format", "json",
                        "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["tv"]) == 3

    def test_n_cap(self):
        assert run_cli(["exact", "--n", "8", "--rounds", "1"]) == 2

    def test_n_cap_is_the_enumeration_cap(self, monkeypatch, capsys):
        monkeypatch.setattr(mixing, "ENUM_N_MAX", 6)
        assert run_cli(["exact", "--n", "7", "--rounds", "1"]) == 2
        assert "--n must lie in 1..6" in capsys.readouterr().err

    def test_ccr_runs_at_n7(self, tmp_path):
        out = tmp_path / "tv.csv"
        assert run_cli(["exact", "--kind", "ccr", "--n", "7", "--rounds", "2",
                        "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [int(r[0]) for r in rows] == [0, 1, 2]


class TestSingleCardCmd:
    def test_schema_and_counts(self, tmp_path):
        out = tmp_path / "sc.csv"
        assert run_cli(["singlecard", "--n", "100", "--a", "0.5", "--reps", "500",
                        "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["u_lo", "u_hi", "count", "mean_z", "var_z", "g_at_u_hi"]
        assert len(rows) == 50
        assert sum(int(r[2]) for r in rows) == 500

    def test_off_grid_a_rejected(self):
        assert run_cli(["singlecard", "--n", "100", "--a", "0.5005",
                        "--reps", "10"]) == 2

    @pytest.mark.parametrize("a", ["2", "0", "-0.5"])
    def test_a_outside_unit_interval_rejected(self, a):
        assert run_cli(["singlecard", "--n", "10", "--a", a, "--reps", "5"]) == 2


class TestHelp:
    @pytest.mark.parametrize("sub", ["gcurve", "kernel", "eigen", "simulate",
                                     "exact", "singlecard"])
    def test_subcommand_help_exits_zero(self, sub, capsys):
        assert run_cli([sub, "--help"]) == 0
        assert capsys.readouterr().out.strip()

    def test_no_args_usage_error(self):
        assert run_cli([]) == 2

    @pytest.mark.parametrize("args", [
        ["singlecard", "--n", "10", "--a", "2", "--reps", "5"],
        ["simulate", "--n", "1", "--stat", "S"],
        ["eigen", "--n", "50", "--operator", "S", "--maxiter", "0"],
    ])
    def test_usage_error_shows_the_subcommand_usage(self, args, capsys):
        assert run_cli(args) == 2
        assert f"usage: shuffle-spectra {args[0]} " in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["kernel", "--n", "5"],
                                      ["gcurve", "--b", "0.5"]])
    def test_seed_only_where_it_is_used(self, args):
        assert run_cli([*args, "--seed", "1"]) == 2

    @pytest.mark.parametrize("args", [
        ["gcurve", "--b", "0.5", "--format", "json"],
        ["eigen", "--n", "20", "--operator", "S", "--format", "csv"],
        ["singlecard", "--n", "10", "--reps", "5", "--format", "json"],
    ])
    def test_format_only_where_it_is_used(self, args, capsys):
        assert run_cli(args) == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


# tiny runs of every subcommand that takes --format
TINY = {
    "kernel": ["--n", "4"],
    "simulate": ["--n", "40", "--rounds", "1", "--reps", "3", "--stat", "S"],
    "exact": ["--n", "3", "--rounds", "1"],
}


def _format_choices():
    """(subcommand, format) for every --format choice the parser accepts."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, fmt) for name, p in sub.choices.items()
            for a in p._actions if "--format" in a.option_strings
            for fmt in a.choices]


class TestEveryFormatIsWritten:
    def test_walk_finds_the_formats(self):
        assert set(_format_choices()) == {
            ("kernel", "csv"), ("kernel", "bin"), ("simulate", "csv"),
            ("simulate", "json"), ("exact", "csv"), ("exact", "json")}

    @pytest.mark.parametrize("cmd, fmt", _format_choices())
    def test_output_has_the_format(self, tmp_path, cmd, fmt):
        out = tmp_path / "out"
        assert run_cli([cmd, *TINY[cmd], "--format", fmt, "--out", str(out)]) == 0
        data = out.read_bytes()
        if fmt == "bin":
            assert data.startswith(KERNEL_MAGIC)
        elif fmt == "json":
            assert isinstance(json.loads(data), dict)
        elif cmd == "kernel":  # a bare n x n matrix, no comment lines
            lines = data.decode("utf-8").splitlines()
            assert [len(line.split(",")) for line in lines] == [4] * 4
        else:
            assert data.decode("utf-8").splitlines()[0] == cli.SCHEMA_LINE


class TestSeedRange:
    # a seed is one 64-bit word of the Philox key
    @pytest.mark.parametrize("args", [
        ["singlecard", "--n", "10", "--seed", "-1"],
        ["simulate", "--n", "10", "--seed", "-5"],
        ["simulate", "--stat", "S", "--n", "2000", "--seed", "-1"],
        ["singlecard", "--n", "10", "--seed", str(2**64)],
        ["eigen", "--n", "50", "--operator", "S", "--seed", "-1"],
        ["exact", "--n", "3", "--seed", "1.5"],
    ])
    def test_usage_error_before_any_work(self, args, monkeypatch, capsys):
        def work(*a, **k):
            raise AssertionError("worked before validating --seed")

        for name in ("empirical_single_card", "ccrr_rounds", "run_round",
                     "second_eig_b", "second_eig_sym", "build_kernel",
                     "MatrixFreeKernel", "exact_round_push"):
            monkeypatch.setattr(cli, name, work)
        assert run_cli(args) == 2
        assert "argument --seed" in capsys.readouterr().err

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "sc.csv"
        assert run_cli(["singlecard", "--n", "10", "--reps", "5", "--seed",
                        str(2**64 - 1), "--out", str(out)]) == 0
        assert json.loads(read_csv(out)[0][1][len("# config "):])["seed"] == 2**64 - 1


class TestReadmeCommands:
    def test_every_documented_command_parses(self):
        # the README's "Command line" block, parsed and not run: a flag that
        # drifts from the parser fails here
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
        block = block.split("```", 1)[0]
        commands = [shlex.split(line, comments=True)
                    for line in block.splitlines()
                    if line.startswith("shuffle-spectra ")]
        assert commands
        parser = cli.build_parser()
        for argv in commands:
            args = parser.parse_args(argv[1:])
            assert args.cmd == argv[1]
