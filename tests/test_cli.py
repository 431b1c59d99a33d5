"""End-to-end runs of every subcommand with reproducibility checks."""

import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import annular_billiards
from annular_billiards import cli
from annular_billiards.birkhoff import island_sampler
from annular_billiards.cli import JSON_SCHEMA, ScanSpec, _cell, main, parse_values
from annular_billiards.errors import TangencyWarning
from annular_billiards.linear_stability import Classification, classify, trace_closed_form


def run(tmp_path, name, args):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    assert rc == 0
    return out.read_text()


def _former_csv_body(columns):
    """The CSV body as the writer built it before one format served the whole
    table: one ``_cell`` call per cell, one string per row."""
    rows = map(",".join, zip(*[map(_cell, column) for column in columns.values()], strict=True))
    return "".join(row + "\n" for row in rows)


def csv_table(text):
    """Header and rows of a CLI CSV, read as any CSV reader reads them."""
    header, *rows = csv.reader(l for l in text.splitlines() if not l.startswith("#"))
    return header, rows


class TestParsing:
    def test_single_value(self):
        assert parse_values("3", int) == [3]

    def test_comma_list(self):
        assert parse_values("0.1,0.2", float) == [0.1, 0.2]

    def test_linspace_triple(self):
        vals = parse_values("0:1:5", float)
        assert vals == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_ranges_are_numpy_linspace_bit_for_bit(self):
        # one count, a zero span, reversed spans, signed zeros and steps that
        # underflow to 0, against numpy.linspace
        rng = np.random.default_rng(5)
        tiny = [0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.2e-308, -1e-310]
        ends = tiny + (rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-320, 300, 300)).tolist()
        cases = [(a, b, count) for a, b in zip(ends, rng.permutation(ends).tolist())
                 for count in (1, 2, 3, 7, 25, 400)]
        cases += [(a, a, count) for a in ends for count in (1, 5)]
        cases += [(a, -a, 4) for a in ends] + [(0.0, 5e-324, 3), (5e-324, 0.0, 9), (1e-3, 4e-3, 4)]
        for start, stop, count in cases:
            want = np.linspace(start, stop, count).tobytes()
            assert np.array(cli._linspace(start, stop, count)).tobytes() == want, (start, stop, count)

    def test_bad_range(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_values("0:1", float)

    def test_missing_n_errors(self, capsys):
        assert main(["stability"]) == 2

    @pytest.mark.parametrize(
        "flag,text",
        [("--R", "0.1:0.2"), ("--R", "abc"), ("--R", "0.1:0.2:0"), ("--R", "0.1:0.2:-3"),
         ("--k", "1.5"), ("--k", "1:2:3")],
    )
    def test_bad_values_exit_with_usage(self, capsys, flag, text):
        with pytest.raises(SystemExit) as exc:
            main(["stability", "--n", "5", flag, text])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["region", "--n", "5,6"],
            ["orbit", "--n", "5", "--k", "1,2"],
            ["orbit", "--n", "3", "--eps", "0.01:0.02:2"],
            ["section", "--n", "3", "--eps", "0.01,0.02"],
        ],
    )
    def test_single_value_commands_reject_lists(self, tmp_path, capsys, args):
        assert main(args + ["--out", str(tmp_path / "x")]) == 2
        assert "single" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["region", "--n", "7", "--k", "2"],
            ["region", "--n", "7", "--delta", "0.01"],
            ["birkhoff", "--n", "3", "--eps", "0.01", "--R", "0.1"],
            ["stability", "--n", "5", "--eps", "0.1"],
            ["stability", "--n", "5", "--seed", "3"],
            ["section", "--n", "3", "--eps", "0.02", "--k", "2"],
            ["orbit", "--n", "5", "--seed", "3"],
            ["lemma", "--n", "5"],
        ],
    )
    def test_unread_flags_exit_with_usage(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments" in err
        assert f"usage: annular-billiards {args[0]} " in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args,params",
        [
            (["stability", "--n", "5", "--R", "0.1"], {"n", "k", "R", "delta"}),
            (["region", "--n", "5", "--count", "3"], {"n", "count"}),
            (["birkhoff", "--n", "3", "--eps", "0.01"], {"n", "eps"}),
            (["orbit", "--n", "5"], {"n", "k", "R", "delta", "eps"}),
            (["section", "--n", "3", "--eps", "0.02", "--iterations", "2"],
             {"n", "eps", "radius", "iterations", "seeds", "seed"}),
            (["lemma", "--x", "2"], {"x"}),
        ],
    )
    def test_spec_echoes_the_flags_read(self, tmp_path, args, params):
        doc = json.loads(run(tmp_path, "spec.json", args + ["--format", "json"]))
        assert set(doc["spec"]) == {"tool", "version", "command", "params"}
        assert set(doc["spec"]["params"]) == params

    @pytest.mark.parametrize(
        "args,mixed",
        [
            (["--k", "2", "--R", "0.1"], "--k, --R"),
            (["--delta", "0.01"], "--delta"),
        ],
    )
    def test_orbit_refuses_mixed_families(self, tmp_path, capsys, args, mixed):
        assert main(["orbit", "--n", "3", "--eps", "0.01", *args, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: orbit --eps builds the tangent-table orbit, which takes no {mixed}")
        assert not (tmp_path / "x").exists()
        # the default values of the type (a) flags may be given
        assert main(["orbit", "--n", "3", "--eps", "0.01", "--k", "1", "--delta", "0", "--out", str(tmp_path / "y")]) == 0

    def test_birkhoff_needs_eps(self, capsys):
        assert main(["birkhoff", "--n", "3"]) == 2
        assert "--eps" in capsys.readouterr().err

    def test_section_needs_eps(self, capsys):
        assert main(["section", "--n", "3"]) == 2
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["stability", "--n", "5"],
            ["birkhoff", "--n", "3", "--eps", "0.01"],
            ["section", "--n", "3", "--eps", "0.02"],
            ["lemma"],
        ],
    )
    def test_svg_only_where_rendered(self, tmp_path, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--format", "svg", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["region", "--n", "5", "--count", "0", "--format", "svg"],
            ["region", "--n", "5", "--count", "-3"],
            ["section", "--n", "3", "--eps", "0.02", "--seeds", "-2"],
            ["section", "--n", "3", "--eps", "0.02", "--seeds", "0"],
            ["section", "--n", "3", "--eps", "0.02", "--iterations", "-1"],
            ["section", "--n", "3", "--eps", "0.02", "--iterations", "0"],
            ["section", "--n", "3", "--eps", "0.02", "--radius=-1e-4"],
            ["section", "--n", "3", "--eps", "0.02", "--radius", "nan"],
            # the process pool and its flag are gone
            ["stability", "--n", "5", "--jobs", "2"],
            # random.Random would silently take a negative seed's absolute value
            ["section", "--n", "3", "--eps", "0.02", "--iterations", "5", "--seed", "-1"],
        ],
    )
    def test_bad_sizes_exit_with_usage(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["birkhoff", "--n", "3", "--eps", "inf"],
            ["birkhoff", "--n", "3", "--eps", "nan"],
            ["birkhoff", "--n", "3", "--eps", "0.01,-inf"],
            ["stability", "--n", "5", "--delta", "inf"],
            ["stability", "--n", "5", "--R", "0.1:inf:3"],
            ["stability", "--n", "5", "--R", "nan:0.2:3"],
            ["lemma", "--x", "2,nan"],
        ],
    )
    def test_non_finite_values_exit_with_usage(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "finite" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", [
        # beyond the float range, over and under, not a number, empty, and
        # ranges that are malformed, empty or repeat one value
        "1" + "0" * 400, "1e400", "1e-400", "nan", "-inf", "", ",", "1:2", "1:2:0", "1:1:3",
    ])
    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, contract in cli.COMMANDS.items() for flag in contract.flags
    ])
    def test_every_flag_refuses_adversarial_values(self, tmp_path, capsys, command, flag, text):
        # the other required flags take valid values; the flag under test
        # comes last, so its value is the one parsed
        valid = {
            "stability": ["--n", "5"], "region": ["--n", "5"], "birkhoff": ["--n", "3", "--eps", "0.01"],
            "orbit": ["--n", "5"], "section": ["--n", "3", "--eps", "0.02", "--iterations", "5"], "lemma": [],
        }
        argv = [command, *valid[command], f"--{flag}={text}", "--out", str(tmp_path / "x")]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args,reason",
        [
            (["stability", "--n", "5", "--R", "0.1:0.1:3"], "repeats one value 3 times"),
            (["stability", "--n", "5", "--delta", "0:-0.0:2"], "repeats one value 2 times"),
            (["birkhoff", "--n", "3", "--eps", "1e-400"], "'1e-400' underflows the float range to 0.0"),
            (["birkhoff", "--n", "3", "--eps", "0.01,-1e-310"], "'-1e-310' underflows the float range"),
            (["section", "--n", "3", "--eps", "0.02", "--radius", "1e-400"], "underflows"),
            (["stability", "--n", "5", "--R", "1e-400:0.1:3"], "underflows"),
            (["region", "--n", "5", "--count", "1000001"], "must be <= 1000000"),
            (["stability", "--n", "5", "--R", "0.1:0.2:1000001"], "range count must be <= 1000000"),
            (["section", "--n", "3", "--eps", "0.02", "--seed", str(2**64)], "must be <= 18446744073709551615"),
            # a period above the count cap, one finite as a float among them
            *(([command, "--n", n, *rest], "argument --n: must be <= 1000000")
              for n in ("1" + "0" * 300, "1000001")
              for command, rest in (("stability", []), ("region", []), ("birkhoff", ["--eps", "0.01"]),
                                    ("orbit", []), ("section", ["--eps", "0.02"]))),
        ],
    )
    def test_substituted_values_exit_with_usage(self, tmp_path, capsys, args, reason):
        # a value the request would not run as written, or one above a cap
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_zero_written_with_an_exponent_runs(self, tmp_path):
        args = ["section", "--n", "3", "--eps", "0.02", "--radius", "0.000e-400", "--iterations", "2"]
        assert "# summary radius: 0\n" in run(tmp_path, "zero.csv", args)

    def test_section_caps_the_iterates_it_keeps(self, tmp_path, capsys):
        args = ["section", "--n", "3", "--eps", "0.02", "--seeds", "1000", "--iterations", "1001"]
        assert main(args + ["--out", str(tmp_path / "x")]) == 2
        assert "at most 1000000 iterates, got --seeds x --iterations = 1001000" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--version"], ["bogus", "--n", "5"], ["--bogus"], [],
        *([command, "-h"] for command in cli.COMMANDS),
        *([command, "--bogus", "1"] for command in cli.COMMANDS),
        ["stability", "--n", "5,7", "--R", "0.1:0.2:3"], ["section", "--n", "3", "--eps", "0.02", "--format", "svg"],
        ["orbit", "--n", "5", "--k", "2", "--format", "svg"], ["lemma", "stability"],
    ])
    def test_one_subparser_parses_as_all_of_them(self, capsys, argv):
        # the parser of a request holds only its subcommand's subparser
        outcomes = []
        for command in (argv[0] if argv else None, None):
            try:
                parsed = vars(cli.build_parser(command).parse_args(argv))
            except SystemExit as exc:
                parsed = exc.code
            outcomes.append((parsed, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] or outcomes[0][2] or isinstance(outcomes[0][0], dict)

    @pytest.mark.parametrize(
        "args",
        [
            ["birkhoff", "--n", "5", "--eps", "0.001,0.001"],
            ["birkhoff", "--n", "5", "--eps", "0.002,0.001,0.0020"],
            ["birkhoff", "--n", "5,5", "--eps", "0.002,0.001"],
        ],
    )
    def test_birkhoff_refuses_repeated_values(self, tmp_path, capsys, args):
        assert main(args + ["--out", str(tmp_path / "x")]) == 2
        assert "distinct" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args,error",
        [
            (["orbit", "--n", "5", "--k", "2", "--R", "5"], "InvalidTableError"),
            (["orbit", "--n", "5", "--k", "4"], "InvalidTableError"),
            (["region", "--n", "2"], "InvalidTableError"),
            (["section", "--n", "3", "--eps", "2.9"], "InvalidTableError"),
            (["lemma", "--x", "1e200"], "DomainError"),
            # a detuning with no tangent radius in (0, 1) names no table
            (["orbit", "--n", "5", "--eps", "0.3"], "InvalidTableError"),
        ],
    )
    def test_refused_single_result_exits_2(self, tmp_path, capsys, args, error):
        assert main(args + ["--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}: ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("eps", ["0", "-0"])
    def test_orbit_refuses_zero_detuning(self, tmp_path, capsys, eps):
        # eps = 0 at n = 3 is not read as the type (a) table of the same radius
        assert main(["orbit", "--n", "3", "--eps", eps, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr() == ("", f"error: InvalidTableError: need 0 < epsilon < pi - pi/n at n=3, got {float(eps)}\n")
        assert not (tmp_path / "x").exists()


def _skip_reason(tmp_path, args):
    """The ``skip_reason`` of a request's one row."""
    _, rows = csv_table(run(tmp_path, "one.csv", args))
    assert len(rows) == 1
    return rows[0][-1]


def _refusal(capsys, args):
    """The one ``error:`` line of a refused request, without its prefix."""
    assert main(args + ["--out", os.devnull]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    return err[len("error: "):-1]


class TestRouteIndependence:
    """A table that cannot exist is refused with one ``Type: message`` on
    every route: a row's ``skip_reason`` or the ``error:`` line, with or
    without ``--R``, whichever subcommand asks."""

    @pytest.mark.parametrize("n,k,delta,reason", [
        ("6", "2", "0", "need 1 <= k <= n/2 coprime with n, got k=2, n=6"),
        ("2", "1", "0", "need n >= 3, got 2"),
        ("5", "1", "-0.1", f"need 0 <= delta < {math.sin(math.pi / 5)!r} at n=5, k=1, got delta=-0.1"),
    ], ids=["gcd", "n", "delta"])
    def test_chord_mounted_table(self, tmp_path, capsys, n, k, delta, reason):
        table = ["--n", n, "--k", k, "--delta", delta]
        routes = {
            "stability": _skip_reason(tmp_path, ["stability", *table]),
            "stability --R": _skip_reason(tmp_path, ["stability", *table, "--R", "0.01"]),
            "orbit": _refusal(capsys, ["orbit", *table]),
            "orbit --R": _refusal(capsys, ["orbit", *table, "--R", "0.01"]),
        }
        if int(n) < 3:
            routes["region"] = _refusal(capsys, ["region", "--n", n])
        assert routes == dict.fromkeys(routes, f"InvalidTableError: {reason}")

    @pytest.mark.parametrize("n,eps,reason", [
        ("5", "0.3", "tangency radius -7.47052 outside (0, 1) at n=5, epsilon=0.3"),
        ("3", "2.9", "need 0 < epsilon < pi - pi/n at n=3, got 2.9"),
        ("3", "-0.1", "need 0 < epsilon < pi - pi/n at n=3, got -0.1"),
        ("2", "0.1", "need n >= 3, got 2"),
        *((n, eps, f"disk chord {j} of the fixed point meets the scatterer at n={n}, epsilon={eps}")
          for n, eps, j in (("3", "0.11", 0), ("3", "0.5", 0), ("7", "1.2", 0), ("20", "0.3", 6))),
    ], ids=["radius", "past", "negative", "n", "chord-3-0.11", "chord-3-0.5", "chord-7-1.2", "chord-20-0.3"])
    def test_tangent_table(self, tmp_path, capsys, n, eps, reason):
        # the birkhoff row gets no closed form beside its refusal
        table = ["--n", n, "--eps", eps]
        header, rows = csv_table(run(tmp_path, "one.csv", ["birkhoff", *table]))
        assert len(rows) == 1 and rows[0][header.index("A_closed_leading")] == ""
        routes = {
            "birkhoff": rows[0][header.index("skip_reason")],
            "section": _refusal(capsys, ["section", *table, "--iterations", "3"]),
            "orbit --eps": _refusal(capsys, ["orbit", *table]),
        }
        assert routes == dict.fromkeys(routes, f"InvalidTableError: {reason}")


class TestStability:
    def test_sweep_finds_bifurcation(self, tmp_path):
        text = run(
            tmp_path,
            "stab.csv",
            ["stability", "--n", "5", "--k", "1", "--delta", "0.05", "--R", "0.1:0.18:81"],
        )
        rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
        classes = [r[6] for r in rows]
        radii = [float(r[2]) for r in rows]
        assert "hyperbolic" in classes and "elliptic" in classes
        flip = next(i for i, c in enumerate(classes) if c == "elliptic")
        from annular_billiards.linear_stability import bifurcation_radius

        rb = bifurcation_radius(5, 1, 0.05)
        assert radii[flip - 1] <= rb + 1e-12 <= radii[flip] + (radii[1] - radii[0])

    def test_symmetric_sweep_all_parabolic(self, tmp_path):
        text = run(
            tmp_path,
            "stab0.csv",
            ["stability", "--n", "4,6", "--k", "1", "--delta", "0", "--R", "0.05:0.12:4"],
        )
        rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert rows and all(r[6] == "parabolic" for r in rows)

    def test_inadmissible_rows_flagged(self, tmp_path):
        text = run(
            tmp_path,
            "skip.csv",
            ["stability", "--n", "4", "--k", "1", "--delta", "0", "--R", "0.9"],
        )
        rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 1
        assert "InvalidTableError" in rows[0]

    def test_inadmissible_pair_gets_a_row_per_point(self, tmp_path):
        # gcd(6, 2) = 2: each requested point is refused by the table check
        doc = json.loads(run(
            tmp_path,
            "pair.json",
            ["stability", "--n", "6", "--k", "2", "--delta", "0.01", "--R", "0.1,0.2", "--format", "json"],
        ))
        assert [(r["R"], r["delta"]) for r in doc["rows"]] == [(0.1, 0.01), (0.2, 0.01)]
        reason = "InvalidTableError: need 1 <= k <= n/2 coprime with n, got k=2, n=6"
        assert [r["skip_reason"] for r in doc["rows"]] == [reason, reason]
        assert doc["summary"] == {"points": 2, "skipped": 2}

    def test_refused_radius_cap_gets_a_row_per_delta(self, tmp_path):
        # without --R the radii come from max_radius; where it refuses, the
        # delta gets one row with R left empty
        doc = json.loads(run(
            tmp_path,
            "cap.json",
            ["stability", "--n", "6", "--k", "2", "--delta", "0.01,0.02", "--format", "json"],
        ))
        assert [(r["R"], r["delta"]) for r in doc["rows"]] == [("", 0.01), ("", 0.02)]
        assert {r["skip_reason"] for r in doc["rows"]} == {"InvalidTableError: need 1 <= k <= n/2 coprime with n, got k=2, n=6"}
        # k = 1 with one displacement past sin(pi/n): 25 radii, then the refusal
        doc = json.loads(run(
            tmp_path,
            "cap1.json",
            ["stability", "--n", "5", "--k", "1", "--delta", "0.01,0.7", "--format", "json"],
        ))
        rows = doc["rows"]
        assert len(rows) == 26 and not any(r["skip_reason"] for r in rows[:25])
        assert rows[25]["R"] == "" and rows[25]["delta"] == 0.7
        cap = math.sin(math.pi / 5)
        assert rows[25]["skip_reason"] == f"InvalidTableError: need 0 <= delta < {cap!r} at n=5, k=1, got delta=0.7"

    def test_default_grid_refuses_a_scatterer_touching_another_chord(self, tmp_path):
        # the default grid ends at max_radius, where for k >= 2 the scatterer
        # touches another chord of the orbit: a skip row, and no grazing ray
        from annular_billiards.geometry import max_radius

        with warnings.catch_warnings():
            warnings.simplefilter("error", TangencyWarning)
            doc = json.loads(run(tmp_path, "touch.json", ["stability", "--n", "5", "--k", "2", "--delta", "0.01", "--format", "json"]))
        rows = doc["rows"]
        assert len(rows) == 25 and doc["summary"] == {"points": 25, "skipped": 1}
        assert rows[-1]["R"] == max_radius(5, 2, 0.01) == 0.20401492639946961
        assert rows[-1]["skip_reason"].startswith("InvalidTableError: R=0.204015 touches another chord")
        assert rows[-1]["classification"] == "" and not any(r["skip_reason"] for r in rows[:-1])

    def test_json_schema(self, tmp_path):
        text = run(
            tmp_path,
            "stab.json",
            [
                "stability",
                "--n",
                "4",
                "--delta",
                "0.01",
                "--R",
                "0.1,0.2",
                "--format",
                "json",
            ],
        )
        doc = json.loads(text)
        jsonschema.validate(doc, JSON_SCHEMA)
        assert doc["spec"]["command"] == "stability"
        assert len(doc["rows"]) == 2

    def test_nan_trace_row_is_skipped(self, tmp_path, monkeypatch):
        import annular_billiards.cli as cli

        monkeypatch.setattr(cli, "trace_closed_form", lambda *args: float("nan"))
        text = run(tmp_path, "nan.csv", ["stability", "--n", "5", "--delta", "0.02", "--R", "0.15"])
        rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 1
        assert rows[0][6] == "" and rows[0][7].startswith("ClassificationError")


class TestTables:
    @pytest.mark.parametrize(
        "args",
        [
            # the last two rows are refused with messages that hold commas
            ["stability", "--n", "5,6", "--k", "2", "--delta", "0.01", "--R", "0.1,0.2"],
            ["birkhoff", "--n", "3,40", "--eps", "0.001,0.0005"],
            ["region", "--n", "5", "--count", "7"],
            ["section", "--n", "3", "--eps", "0.02", "--iterations", "20", "--seeds", "3"],
            ["lemma", "--x", "1.5,2,1e3"],
        ],
    )
    def test_csv_and_json_carry_the_same_table(self, tmp_path, args):
        header, rows = csv_table(run(tmp_path, "t.csv", args))
        doc = json.loads(run(tmp_path, "t.json", args + ["--format", "json"]))
        assert rows and all(len(row) == len(header) for row in rows)
        cells = [[f"{r[c]:.17g}" if isinstance(r[c], float) else str(r[c]) for c in header] for r in doc["rows"]]
        assert rows == cells
        if args[0] == "stability":
            assert "," in rows[-1][-1]

    @pytest.mark.parametrize(
        "columns",
        [
            {
                "x": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e22, 2.0**-1074 * 3],
                "f64": [np.float64(v) for v in (math.nan, -0.0, 5e-324, 1 / 3, 1e300, 7.0, -2.5, 0.0)],
                "mixed": [1.5, np.float64(0.1), 3, True, False, "", None, 2**70],
                "k": [0, -1, 2**70, 7, 8, 9, 10, 11],
                "text": ["a,b", 'say "hi"', "two\nlines", "100%", "%s %d", "plain", "", ",\""],
            },
            {"empty": [], "also": []},
            "section",
        ],
        ids=["mixed", "empty", "section"],
    )
    def test_csv_body_matches_the_per_cell_writer(self, monkeypatch, columns):
        if columns == "section":
            _, cloud = island_sampler(3, 0.02, 1e-4, 200, seeds=4, seed=1)
            columns = {"s": np.asarray(cloud)[:, 0].tolist(), "r": np.asarray(cloud)[:, 1].tolist()}
        written = []
        monkeypatch.setattr(cli, "_write_text", lambda out, text: written.append(text))
        rows = list(zip(*columns.values()))
        cli.write_csv(ScanSpec("lemma", {}, "csv", None), list(columns), rows, {"note": "a,b"})
        (text,) = written
        assert isinstance(text, str)
        head, body = text.split(",".join(columns) + "\n", 1)
        assert head.count("\n") == 3
        assert body == _former_csv_body(columns)


class TestRegion:
    def test_window_csv(self, tmp_path):
        text = run(tmp_path, "region.csv", ["region", "--n", "5", "--count", "80"])
        assert "# summary delta_star: 0.1100404919738873" in text
        rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
        first = rows[0]
        assert float(first[1]) == pytest.approx(math.sin(math.pi / 5) / 5, abs=1e-12)
        assert float(first[2]) == pytest.approx(1 - math.cos(math.pi / 5), abs=1e-12)
        # at delta = 0 the trace is 2 for every R: no window
        assert first[3] == "False"
        assert rows[1][3] == "True"
        assert rows[-1][3] == "False"

    @pytest.mark.parametrize("n", [*range(3, 61), 100, 400, 1000])
    def test_window_is_where_the_midpoint_radius_is_elliptic(self, tmp_path, n):
        # independent of admissible_interval: between R_min and R_delta the
        # orbit is stable exactly where the midpoint radius is elliptic
        doc = json.loads(run(tmp_path, "region.json", ["region", "--n", str(n), "--format", "json"]))
        assert len(doc["rows"]) == 400
        for row in doc["rows"]:
            lo, hi, delta = row["R_min"], row["R_delta"], row["delta"]
            want = lo < hi and classify(trace_closed_form(n, 1, (lo + hi) / 2, delta)) is Classification.ELLIPTIC
            assert row["stable_window"] is want, row

    def test_window_svg(self, tmp_path):
        text = run(tmp_path, "region.svg", ["region", "--n", "20", "--count", "60", "--format", "svg"])
        assert text.startswith("<svg") and "polygon" in text


class TestBirkhoffCommand:
    def test_ladder_extrapolation(self, tmp_path):
        text = run(
            tmp_path,
            "bk.csv",
            ["birkhoff", "--n", "3", "--eps", "0.001,0.0005,0.00025"],
        )
        for line in text.splitlines():
            if line.startswith("# summary A_tilde_n3:"):
                val = float(line.split(":")[1])
                assert val == pytest.approx(0.0338912, abs=1e-3)
                break
        else:
            pytest.fail("missing extrapolation summary")

    def test_all_skipped_ladder_has_empty_extrapolation(self, tmp_path):
        text = run(tmp_path, "bk3.csv", ["birkhoff", "--n", "40", "--eps", "0.5"])
        assert "# summary A_tilde_n40: \n" in text
        assert "nan" not in text

    def test_a_table_off_the_maps_chart_is_refused(self, tmp_path, capsys):
        # at n = 3, eps = 0.5 a disk chord of the fixed point meets the
        # scatterer: the table is refused at its admission, with no twist
        # and no closed form, and orbit refuses it as section does
        last = run(tmp_path, "bk_off.csv", ["birkhoff", "--n", "3", "--eps", "0.5"]).splitlines()[-1]
        assert last.startswith("3,0.5,,,,,") and '"InvalidTableError: disk chord 0 ' in last
        assert main(["orbit", "--n", "3", "--eps", "0.5", "--out", os.devnull]) == 2
        assert main(["section", "--n", "3", "--eps", "0.11", "--iterations", "5", "--out", os.devnull]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: InvalidTableError: disk chord 0 of the fixed point meets the scatterer at n=3, epsilon=0.5",
            "error: InvalidTableError: disk chord 0 of the fixed point meets the scatterer at n=3, epsilon=0.11",
        ]

    def test_no_closed_form_beside_a_table_that_does_not_exist(self, tmp_path):
        # the closed form is refused with the table, the one whose disk chord
        # meets the scatterer (eps = 0.5) too
        text = run(tmp_path, "bk_none.csv", ["birkhoff", "--n", "3", "--eps", "2.9,-0.1,0.5"])
        header, rows = csv_table(text)
        closed, reason = header.index("A_closed_leading"), header.index("skip_reason")
        assert [r[closed] for r in rows] == ["", "", ""]
        assert all(r[reason].startswith("InvalidTableError: ") for r in rows)
        _, rows = csv_table(run(tmp_path, "bk_none5.csv", ["birkhoff", "--n", "5", "--eps", "0.3"]))
        assert rows[0][closed] == ""

    def test_undefined_twist_limit_leaves_closed_summary_empty(self, tmp_path):
        text = run(tmp_path, "bk_n2.csv", ["birkhoff", "--n", "2", "--eps", "0.01"])
        assert "# summary A_tilde_closed_n2: \n" in text
        assert "# summary A_tilde_n2: \n" in text
        assert '"InvalidTableError: need n >= 3, got 2"' in text.splitlines()[-1]

    def test_off_domain_point_skips_without_ending_the_scan(self, tmp_path):
        # at n = 3, eps >= pi - pi/n puts theta0 = pi/n + eps past pi; that
        # point alone is refused, before any jet push, and gets no closed form
        text = run(tmp_path, "bk_far.csv", ["birkhoff", "--n", "3", "--eps", "0.001,2.9,0.0005"])
        _, rows = csv_table(text)
        assert [r[1] for r in rows] == ["0.001", "2.8999999999999999", "0.00050000000000000001"]
        assert rows[1][6] == "InvalidTableError: need 0 < epsilon < pi - pi/n at n=3, got 2.9"
        assert rows[1][3] == rows[1][4] == ""
        for r in (rows[0], rows[2]):
            assert r[6] == "" and float(r[3]) > 0.0

    def test_underflowing_eps_leaves_closed_form_empty(self, tmp_path):
        # eps^2 is 0 at 1e-170 and twist_limit/eps^2 overflows at 1e-160
        text = run(tmp_path, "bk_tiny.csv", ["birkhoff", "--n", "3", "--eps", "1e-170,1e-160"])
        header, rows = csv_table(text)
        assert len(rows) == 2
        assert [r[header.index("A_closed_leading")] for r in rows] == ["", ""]
        assert "inf" not in text

    def test_resonant_or_hyperbolic_points_flagged(self, tmp_path):
        from annular_billiards.linear_stability import epsilon_star

        eps = 2.0 * epsilon_star(4)
        text = run(tmp_path, "bk2.csv", ["birkhoff", "--n", "4", "--eps", f"{eps}"])
        rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 1
        assert "ClassificationError" in rows[0]
        # closed-form column still populated for flagged rows
        assert rows[0].split(",")[4] != ""


class TestOrbitCommand:
    def test_svg_render(self, tmp_path):
        text = run(tmp_path, "orbit.svg", ["orbit", "--n", "5", "--k", "2", "--format", "svg"])
        assert text.startswith("<svg")
        assert "polyline" in text and "circle" in text

    def test_json_embeds_closure(self, tmp_path):
        text = run(
            tmp_path,
            "orbit.json",
            ["orbit", "--n", "3", "--eps", "0.01", "--format", "json"],
        )
        doc = json.loads(text)
        assert doc["rows"][0]["closure_residual"] < 1e-9
        assert doc["rows"][0]["params"]["config"] == "type_b"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("table,traces", [(["--eps", "0.01"], 0), (["--k", "1", "--R", "0.2"], 1)])
    def test_reports_the_residual_its_builder_measured(self, tmp_path, monkeypatch, fmt, table, traces):
        # build_type_b traces the period as it builds and build_type_a checks
        # closure once; the output reads the recorded residual, no new trace
        from annular_billiards import orbits

        calls = []
        original = orbits.verify_closure

        def counted(orbit):
            calls.append(1)
            return original(orbit)

        monkeypatch.setattr(orbits, "verify_closure", counted)
        text = run(tmp_path, f"orbit.{fmt}", ["orbit", "--n", "4", *table, "--format", fmt])
        assert len(calls) == traces
        assert "closure_residual" in text

    def test_one_admission_per_tangent_table(self, tmp_path, monkeypatch):
        # orbit admits its table once, in TableParams.type_b; a birkhoff row
        # twice, in ReducedMap and then in closed_form_A
        from annular_billiards import billiard_map, birkhoff

        calls = []
        admit = billiard_map.tangency_radius_b
        counted = lambda *table: calls.append(table) or admit(*table)
        monkeypatch.setattr(billiard_map, "tangency_radius_b", counted)
        monkeypatch.setattr(birkhoff, "tangency_radius_b", counted)
        run(tmp_path, "orbit.csv", ["orbit", "--n", "3", "--eps", "0.01"])
        assert calls == [(3, 0.01)]
        run(tmp_path, "bk.csv", ["birkhoff", "--n", "3", "--eps", "0.01"])
        assert calls == [(3, 0.01)] * 3

    def test_csv_polyline(self, tmp_path):
        text = run(
            tmp_path,
            "orbit.csv",
            ["orbit", "--n", "4", "--k", "1", "--delta", "0.02", "--R", "0.2"],
        )
        rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 11  # closed decagon polyline


class TestSectionCommand:
    def test_bounded_cloud(self, tmp_path):
        text = run(
            tmp_path,
            "sec.csv",
            [
                "section",
                "--n",
                "3",
                "--eps",
                "0.02",
                "--iterations",
                "500",
                "--seeds",
                "4",
                "--seed",
                "7",
            ],
        )
        assert "# summary escaped: False" in text
        rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 4 * 500

    def test_deterministic_given_seed(self, tmp_path):
        args = [
            "section",
            "--n",
            "3",
            "--eps",
            "0.02",
            "--iterations",
            "50",
            "--seeds",
            "3",
            "--seed",
            "11",
        ]
        a = run(tmp_path, "sec1.csv", args)
        b = run(tmp_path, "sec2.csv", args)
        assert a == b
        assert "# spec:" in a and '"seed": 11' in a

    def test_escape_recorded_for_unstable_detuning(self, tmp_path):
        from annular_billiards.linear_stability import epsilon_star

        eps = 2.0 * epsilon_star(4)
        text = run(
            tmp_path,
            "sec_esc.csv",
            ["section", "--n", "4", "--eps", f"{eps}", "--iterations", "500", "--seed", "1"],
        )
        assert "# summary escaped: True" in text
        assert "# summary escape_seed: " in text

    def test_every_seed_escaping_at_once_leaves_an_empty_table(self, tmp_path):
        args = ["section", "--n", "3", "--eps", "0.02", "--radius", "2.0", "--seeds", "3", "--seed", "5"]
        text = run(tmp_path, "sec_empty.csv", args)
        assert "# summary escape_iteration: 0" in text
        assert text.endswith("\ns,r\n")
        doc = json.loads(run(tmp_path, "sec_empty.json", args + ["--format", "json"]))
        assert doc["rows"] == [] and doc["summary"]["escaped"] is True


class TestStartUp:
    #: the library modules, each loaded only by a request that runs it
    LIBRARY = {f"annular_billiards.{name}" for name in (
        "billiard_map", "birkhoff", "geometry", "jets", "linear_stability", "orbits",
    )}

    #: what every request leaves unloaded: NumPy and the audit
    NO_NUMPY = {"numpy", "mpmath"}

    #: no record class is a dataclass, so no request pays for importing
    #: ``dataclasses`` and, with it, ``inspect``
    NO_DATACLASSES = {"dataclasses", "inspect"}

    #: the modules the closed forms of ``region`` and ``lemma`` do not need
    NO_ORBITS = {"annular_billiards.orbits", "annular_billiards.billiard_map", "annular_billiards.jets"}

    @pytest.mark.parametrize(
        "argv,loaded,unloaded",
        [
            (
                # the jets hold Python floats
                ["birkhoff", "--n", "3", "--eps", "0.001"],
                {"annular_billiards.birkhoff", "annular_billiards.jets"},
                {"annular_billiards.orbits", "annular_billiards.linear_stability", "annular_billiards.geometry"}
                | NO_NUMPY,
            ),
            (
                # a start:stop:count range is spaced on Python floats
                ["birkhoff", "--n", "3,4", "--eps", "1e-3:4e-3:4"],
                {"annular_billiards.birkhoff", "annular_billiards.jets"},
                {"annular_billiards.orbits", "annular_billiards.linear_stability", "annular_billiards.geometry"}
                | NO_NUMPY,
            ),
            (
                # the seeds are iterated on floats, and the ring is drawn with
                # the standard library's random.Random
                ["section", "--n", "3", "--eps", "0.02", "--iterations", "5"],
                {"annular_billiards.birkhoff"},
                {"annular_billiards.orbits", "annular_billiards.linear_stability", "annular_billiards.jets",
                 "annular_billiards.geometry"}
                | NO_NUMPY,
            ),
            (
                # one orbit at a time on floats: a scalar ray tracer and a
                # 2x2 float monodromy
                ["stability", "--n", "5", "--delta", "0.02", "--R", "0.1"],
                {"annular_billiards.orbits", "annular_billiards.linear_stability"},
                {"annular_billiards.birkhoff", "annular_billiards.jets", "annular_billiards.billiard_map"}
                | NO_NUMPY,
            ),
            (
                # the polyline is a list of float pairs
                ["orbit", "--n", "5", "--k", "2"],
                {"annular_billiards.orbits", "annular_billiards.geometry"},
                {"annular_billiards.birkhoff", "annular_billiards.jets", "annular_billiards.linear_stability"}
                | NO_NUMPY,
            ),
            (
                ["region", "--n", "5", "--count", "5"],
                {"annular_billiards.linear_stability", "annular_billiards.geometry"},
                NO_ORBITS | NO_NUMPY,
            ),
            (["lemma", "--x", "1.5,2"], {"annular_billiards.linear_stability"}, NO_ORBITS | NO_NUMPY),
            (["--version"], {"annular_billiards.errors"}, LIBRARY | NO_NUMPY),
        ],
        ids=["birkhoff", "birkhoff-range", "section", "stability", "orbit", "region", "lemma", "version"],
    )
    def test_request_loads_only_the_modules_it_runs(self, tmp_path, argv, loaded, unloaded):
        # a fresh interpreter that imports cli, as the console script does
        src = Path(annular_billiards.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        version = argv == ["--version"]
        out = [] if version else ["--out", str(tmp_path / "import.csv")]
        code = (
            "import sys\nfrom annular_billiards.cli import main\n"
            f"try:\n    main({argv + out!r})\nfinally:\n    print(sorted(sys.modules))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        modules = set(ast.literal_eval(done.stdout.splitlines()[-1]))
        assert loaded <= modules
        assert not (unloaded | self.NO_DATACLASSES) & modules
        # ``python -m`` runs cli as __main__, which resolves the same names
        out = [] if version else ["--out", str(tmp_path / "main.csv")]
        ran = subprocess.run(
            [sys.executable, "-m", "annular_billiards.cli", *argv, *out], env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if version:
            assert done.stdout.splitlines()[0] == ran.stdout.strip() == annular_billiards.__version__
        else:
            assert (tmp_path / "import.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()
        if argv[0] == "section":
            assert (tmp_path / "main.csv").read_text().count("\n") == 11 + 8 * 5


class TestProcessRoute:
    """``python -m annular_billiards.cli`` and the console script end through
    ``cli.entry``, which flushes the output and then ends the process without
    interpreter teardown."""

    #: one request per subcommand and format, the refusal routes, help, a
    #: grazing contact and a 3.2 MB stdout
    ARGVS = [
        ["--version"],
        ["-h"],
        ["stability", "--n", "5", "--R", "0.1", "--out", "-"],
        ["stability", "--n", "5", "--k", "2", "--delta", "0,0.01", "--R", "0.01:0.05:3", "--format", "json", "--out", "-"],
        # the scatterer grazes another chord of the orbit: a TangencyWarning
        ["stability", "--n", "5", "--k", "2", "--delta", "0.01", "--R", "0.20401492639946942", "--out", "-"],
        ["region", "--n", "5", "--count", "3", "--out", "-"],
        ["region", "--n", "5", "--count", "3", "--format", "json", "--out", "-"],
        ["region", "--n", "5", "--count", "4", "--format", "svg", "--out", "-"],
        ["birkhoff", "--n", "3,4", "--eps", "1e-3:4e-3:4", "--out", "-"],
        ["birkhoff", "--n", "3", "--eps", "0.001", "--format", "json", "--out", "-"],
        ["orbit", "--n", "5", "--k", "2", "--out", "-"],
        ["orbit", "--n", "3", "--eps", "0.01", "--format", "json", "--out", "-"],
        ["orbit", "--n", "5", "--k", "2", "--format", "svg", "--out", "-"],
        ["section", "--n", "3", "--eps", "0.02", "--iterations", "5", "--format", "json", "--out", "-"],
        ["section", "--n", "3", "--eps", "0.02", "--out", "-"],
        ["lemma", "--x", "1.5,2", "--out", "-"],
        ["lemma", "--format", "json", "--out", "-"],
        # a refused single result, and a usage error
        ["orbit", "--n", "5", "--eps", "0.3", "--out", "-"],
        ["stability", "--n", "5", "--bogus", "1"],
    ]

    @staticmethod
    def child(args, **kwargs) -> subprocess.Popen:
        """A fresh interpreter on ``src/`` with block-buffered stdout, so
        that only ``entry``'s flush writes what is left in the buffer, and
        with the default warning filters and help width."""
        src = Path(annular_billiards.__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "PYTHONWARNINGS")}
        env.update(PYTHONPATH=str(src), COLUMNS="80")
        return subprocess.Popen([sys.executable, *args], env=env, **kwargs)

    @staticmethod
    def in_process(argv):
        """stdout bytes, stderr text and status of ``main`` in this process,
        with warnings shown on stderr as a fresh interpreter shows them."""
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.resetwarnings()
            warnings.showwarning = lambda message, category, filename, lineno, file=None, line=None: (
                sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))
            )
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        return out.getvalue().encode(), err.getvalue(), status

    def test_process_route_matches_main(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        children = [
            self.child(["-m", "annular_billiards.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for argv in self.ARGVS
        ]
        outcomes = []
        for argv, proc in zip(self.ARGVS, children):
            expected = self.in_process(argv)
            out, err = proc.communicate(timeout=60)
            outcomes.append((out, err.decode(), proc.returncode))
            assert outcomes[-1] == expected, argv
        assert {status for _, _, status in outcomes} == {0, 2}
        assert any("TangencyWarning" in err for _, err, _ in outcomes)
        assert max(len(out) for out, _, _ in outcomes) > 3_000_000  # the default section, flushed whole

    @pytest.mark.parametrize(
        "argv", [["stability", "--n", "5", "--R", "0.1"], ["section", "--n", "3", "--eps", "0.02"]], ids=["small", "large"]
    )
    def test_a_reader_that_closed_the_pipe_gets_status_0(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.child(["-m", "annular_billiards.cli", *argv, "--out", "-"], stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv", [["stability", "--n", "5", "--R", "0.1"], ["section", "--n", "3", "--eps", "0.02"]], ids=["small", "large"]
    )
    def test_a_full_stdout_ends_with_one_error_line(self, tmp_path, argv):
        # a small output fails in entry's flush, a large one in main's write
        with open("/dev/full", "wb") as full:
            proc = self.child(
                ["-m", "annular_billiards.cli", *argv, "--out", "-"], stdout=full, stderr=subprocess.PIPE, cwd=tmp_path
            )
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err.decode().splitlines()) == (1, ["error: OSError: [Errno 28] No space left on device"])
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "out,error",
        [("missing/x.csv", "FileNotFoundError"), (".", "IsADirectoryError")],
        ids=["missing directory", "a directory"],
    )
    def test_an_unwritable_out_ends_with_one_error_line(self, tmp_path, out, error):
        proc = self.child(
            ["-m", "annular_billiards.cli", "stability", "--n", "5", "--R", "0.1", "--out", out],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        )
        stdout, err = proc.communicate(timeout=60)
        (line,) = err.decode().splitlines()
        assert (proc.returncode, stdout) == (1, b"")
        assert line.startswith(f"error: {error}: "), line
        assert not any(tmp_path.iterdir())

    def test_a_closed_stdout_is_a_usage_error(self):
        proc = self.child(
            ["-m", "annular_billiards.cli", "stability", "--n", "5", "--R", "0.1", "--out", "-"],
            stderr=subprocess.PIPE, preexec_fn=partial(os.close, 1),
        )
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, b"error: stdout is closed; name an output file with --out\n")

    @pytest.mark.parametrize(
        "argv",
        [["section", "--n", "3", "--eps", "0.02", "--iterations", "10"], ["stability", "--n", "5", "--R", "0.1"]],
        ids=["section", "stability"],
    )
    def test_a_runner_that_executes_cli_in_its_own_namespace(self, tmp_path, argv):
        # cProfile runs cli's code as __main__ in a dictionary of its own, and
        # sys.modules["__main__"] is cProfile; the process ends in entry, so
        # it writes no profile
        proc = self.child(
            ["-m", "cProfile", "-o", "p.out", "-m", "annular_billiards.cli", *argv, "--out", "x.csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        )
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (0, b"", b"")
        assert main(argv + ["--out", str(tmp_path / "main.csv")]) == 0
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()

    def test_entry_runs_the_atexit_callbacks(self, tmp_path):
        marker = tmp_path / "marker"
        launcher = (
            "import atexit, pathlib\n"
            f"atexit.register(pathlib.Path({str(marker)!r}).write_text, 'ran')\n"
            "from annular_billiards.cli import entry\n"
            "entry()\n"
        )
        proc = self.child(["-c", launcher, "--version"], stdout=subprocess.PIPE)
        out, _ = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (0, f"{annular_billiards.__version__}\n".encode())
        assert marker.read_text() == "ran"

    @pytest.mark.parametrize("code", [None, 3, "not a number"])
    def test_entry_reads_an_exit_code_as_sys_exit_does(self, code):
        # main replaced by one that exits with ``code``, against sys.exit itself
        exiting = f"import sys\nsys.exit({code!r})\n"
        raising = f"import sys\nfrom annular_billiards import cli\ncli.main = lambda: sys.exit({code!r})\ncli.entry()\n"
        outcomes = []
        for launcher in (raising, exiting):
            proc = self.child(["-c", launcher], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            outcomes.append((*proc.communicate(timeout=60), proc.returncode))
        assert outcomes[0] == outcomes[1]


class TestLemmaCommand:
    def test_table_and_bound(self, tmp_path):
        text = run(tmp_path, "lemma.csv", ["lemma"])
        assert "# summary monotone_on_grid: True" in text
        assert "# summary n_2: 5" in text
        assert "# summary n_6: 53" in text
        assert "# summary n_7: none" in text
        sup = float(next(l.split(":")[1] for l in text.splitlines() if "sup_f_on_grid" in l))
        assert sup < 2 * math.pi
