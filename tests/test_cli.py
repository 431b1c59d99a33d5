"""End-to-end runs of every subcommand with reproducibility checks."""

import json
import math

import jsonschema
import pytest

from annular_billiards.cli import JSON_SCHEMA, main, parse_values


def run(tmp_path, name, args):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    assert rc == 0
    return out.read_text()


class TestParsing:
    def test_single_value(self):
        assert parse_values("3", int) == [3]

    def test_comma_list(self):
        assert parse_values("0.1,0.2", float) == [0.1, 0.2]

    def test_linspace_triple(self):
        vals = parse_values("0:1:5", float)
        assert vals == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

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
        ],
    )
    def test_bad_sizes_exit_with_usage(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args,error",
        [
            (["orbit", "--n", "5", "--k", "2", "--R", "5"], "InvalidTableError"),
            (["orbit", "--n", "5", "--k", "4"], "DomainError"),
            (["region", "--n", "2"], "DomainError"),
        ],
    )
    def test_refused_single_result_exits_2(self, tmp_path, capsys, args, error):
        assert main(args + ["--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}: ")
        assert not (tmp_path / "x").exists()


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


class TestRegion:
    def test_window_csv(self, tmp_path):
        text = run(tmp_path, "region.csv", ["region", "--n", "5", "--count", "80"])
        assert "# summary delta_star: 0.110040" in text
        rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
        first = rows[0]
        assert float(first[1]) == pytest.approx(math.sin(math.pi / 5) / 5, abs=1e-12)
        assert float(first[2]) == pytest.approx(1 - math.cos(math.pi / 5), abs=1e-12)
        assert first[3] == "True"
        assert rows[-1][3] == "False"

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

    def test_undefined_twist_limit_leaves_closed_summary_empty(self, tmp_path):
        text = run(tmp_path, "bk_n2.csv", ["birkhoff", "--n", "2", "--eps", "0.01"])
        assert "# summary A_tilde_closed_n2: \n" in text
        assert "# summary A_tilde_n2: \n" in text
        assert "DomainError" in text.splitlines()[-1]

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


class TestLemmaCommand:
    def test_table_and_bound(self, tmp_path):
        text = run(tmp_path, "lemma.csv", ["lemma"])
        assert "# summary monotone_on_grid: True" in text
        assert "# summary n_2: 5" in text
        assert "# summary n_6: 53" in text
        assert "# summary n_7: none" in text
        sup = float(next(l.split(":")[1] for l in text.splitlines() if "sup_f_on_grid" in l))
        assert sup < 2 * math.pi
