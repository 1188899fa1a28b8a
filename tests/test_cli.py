import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from tiltwall.cli import MAX_SAMPLES, build_parser, main
from tiltwall.exactnum import QuadPoly, QuadraticIrrational as QI, format_rational
from tiltwall.hntree import (
    PiecewiseQuadratic,
    TreeLeaf,
    TreeNode,
    assemble_chd0,
    assemble_chd1,
    tree_from_json,
    tree_to_json,
)
from tiltwall.lattice import ChernClass, class_add
from tiltwall.svgplot import (
    _Frame,
    _hyperbola_polyline,
    function_range,
    rational_grid,
    render_function_svg,
)
from tiltwall.walls import Semicircle, wall_between
import tiltwall
from tiltwall import catalog
from conftest import pointwise_csv, pointwise_function_polyline, pointwise_hyperbola_points

TREE_SCENARIOS = [
    sid for sid in catalog.list_scenarios() if catalog.load_scenario(sid).tree is not None
]

# tree files with irrational breakpoints, which no catalog tree has: sqrt(2)
# for the leaf, and 2 and 4 - sqrt(2) for the one-level tree, where the child
# of negative rank gives the root a negative coefficient
IRRATIONAL_TREES = {
    "leaf-2,0,-2": {"class": [2, 0, "-2"]},
    "negative-rank-child": {
        "class": [2, 0, "-6"],
        "wall": {"kind": "semicircle", "center": "-5/2", "radius_sq": "1/4"},
        "children": [{"class": [4, -8, "8"]}, {"class": [-2, 8, "-14"]}],
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWallsCommand:
    def test_table_three_rows(self, capsys):
        code, out, _ = run(
            capsys, "walls", "--preset", "ppas", "--class", "2,0,-5",
            "--beta", "-2", "--amin", "1/100",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l.strip()]
        assert len(rows) == 4  # header + 3 walls
        assert rows[1].split()[:3] == ["-3", "4", "3/2"]
        assert rows[2].split()[0] == "-5/2"
        assert rows[3].split()[0] == "-7/3"

    def test_disc0_empty_table(self, capsys):
        code, out, _ = run(
            capsys, "walls", "--class", "2,-2,1", "--beta", "-2", "--amin", "1/100",
        )
        assert code == 0
        assert len([l for l in out.splitlines() if l.strip()]) == 1

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "walls", "--class", "2,0,-4", "--beta", "-2",
            "--amin", "1/100", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 1
        assert data[0]["wall"] == {
            "kind": "semicircle", "center": "-5/2", "radius_sq": "9/4",
        }
        assert data[0]["cross_a"] == "1"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "walls", "--class", "2,0,-4", "--beta", "-2",
            "--amin", "1/100", "--format", "csv",
        )
        assert out.splitlines()[0] == "center,radius_sq,cross_a,witness"
        assert out.splitlines()[1].startswith("-5/2,9/4,1,")

    def test_svg_three_arcs_and_deterministic(self, capsys):
        args = ("walls", "--class", "2,0,-5", "--beta", "-2",
                "--amin", "1/100", "--format", "svg")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        assert out1.count('class="wall-arc"') == 3
        assert out1.startswith("<svg ") and out1.rstrip().endswith("</svg>")
        assert 'class="hyperbola"' in out1 and 'class="vertical-wall"' in out1
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_usage_errors_exit_2(self, capsys):
        code, _, err = run(capsys, "walls", "--class", "2,0,-5",
                           "--beta", "1", "--amin", "1/100")
        assert code == 2 and "wrong side" in err
        code, _, err = run(capsys, "walls", "--class", "1,0,0",
                           "--beta", "-1", "--amin", "1/100")
        assert code == 2 and "multiple" in err

    def test_zero_denominators_exit_2(self, capsys):
        for cls, beta in (("2,0,-5", "1/0"), ("2,0,1/0", "-2")):
            code, _, err = run(capsys, "walls", "--class", cls,
                               "--beta", beta, "--amin", "1/100")
            assert code == 2
            assert err.startswith("error: zero denominator") and err.count("\n") == 1

    @pytest.mark.parametrize("config", [
        {"l2": None},
        [1],
        {"l2": 2, "v0_step": 2, "v1_step": 2, "v2_denominator": 2},
        {"l2": 2, "v0_step": 2, "v1_step": 2, "v2_denominator": 2,
         "minimal_discriminant": "4"},
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "walls", "--class", "2,0,-5", "--beta", "-2",
                             "--amin", "1/100", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"l2": 2, "v0_step": 2, "v1_step": 2,
                                    "v2_denominator": 2, "minimal_discriminant": 4}))
        args = ("walls", "--class", "2,0,-5", "--beta", "-2", "--amin", "1/100")
        assert run(capsys, *args, "--config", str(path)) == run(capsys, *args)

    @pytest.mark.parametrize("argv, option, value", [
        (("walls", "--beta", "1", "--amin", "1/100"), "--class", "-2,4,-3"),
        (("hn", "--scenario", "ppas-ideal-4-collinear", "--a", "1/50"), "--beta", "-5/2"),
    ])
    def test_negative_value_as_separate_token(self, capsys, argv, option, value):
        spaced = run(capsys, *argv, option, value)
        assert spaced[0] == 0
        assert spaced == run(capsys, *argv, f"{option}={value}")

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["walls", "--badflag"])
        assert e.value.code == 2

    def test_approx_column(self, capsys):
        args = ("walls", "--class", "2,0,-5", "--beta", "-2", "--amin", "1/100")
        code, out, _ = run(capsys, *args, "--approx")
        _, exact, _ = run(capsys, *args)
        assert code == 0
        rows = out.splitlines()
        assert rows[0].split() == ["center", "radius_sq", "cross_a", "witness", "cross_a~"]
        assert [r.split()[-1] for r in rows[1:]] == ["1.5", "0.5", "0.166667"]
        assert [r.split()[:-1] for r in rows] == [r.split() for r in exact.splitlines()]


class TestChdCommand:
    def test_scenario_table(self, capsys):
        code, out, _ = run(capsys, "chd", "--scenario", "ppas-ideal-4-collinear")
        assert code == 0
        assert len(out.splitlines()) == 4
        assert "5 + -6*x + 2*x^2" in out

    def test_json_matches_module(self, capsys):
        code, out, _ = run(
            capsys, "chd", "--scenario", "ppas-ideal-5-W2", "--format", "json",
        )
        data = json.loads(out)
        assert data == catalog.load_scenario("ppas-ideal-5-W2").expected_chd0.to_json()

    def test_chd1(self, capsys):
        code, out, _ = run(capsys, "chd", "--scenario", "ppas-ideal-2", "--k", "1")
        assert code == 0
        assert "2 + 0*x + -1*x^2" in out  # 0 - (x^2 - 2)

    def test_tree_file_input(self, tmp_path, capsys):
        tree = catalog.load_scenario("ppas-ideal-2").tree
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(tree_to_json(tree)))
        code, out, _ = run(capsys, "chd", "--tree", str(path))
        assert code == 0 and "2 + -4*x + 2*x^2" in out

    def test_missing_input_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["chd"])
        assert e.value.code == 2

    def test_wall_data_scenario_exits_2(self, capsys):
        code, out, err = run(capsys, "chd", "--scenario", "ppas-ideal-5-W1-walls")
        assert (code, out) == (2, "")
        assert err == "error: scenario ppas-ideal-5-W1-walls carries wall data only\n"

    @pytest.mark.parametrize("option", ["--scenario", "--tree"])
    def test_empty_input_exits_2(self, capsys, option):
        code, out, err = run(capsys, "chd", option, "")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["chd"], ["validate"], ["hn", "--a", "1", "--beta", "-3"]])
    def test_scenario_and_tree_exit_2(self, capsys, command):
        with pytest.raises(SystemExit) as e:
            main([*command, "--scenario", "ppas-ideal-2", "--tree", "tree.json"])
        assert e.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exits_2(self, capsys, samples):
        code, out, err = run(capsys, "chd", "--scenario", "ppas-ideal-2",
                             "--format", "csv", "--samples", samples)
        assert code == 2 and out == ""
        assert err.startswith("error: --samples") and err.count("\n") == 1

    @pytest.mark.parametrize("samples", [str(MAX_SAMPLES + 1), "100000000"])
    def test_samples_above_max_exits_2(self, capsys, samples):
        code, out, err = run(capsys, "chd", "--scenario", "ppas-ideal-5-W2",
                             "--format", "csv", "--samples", samples)
        assert code == 2 and out == ""
        assert err == f"error: --samples must be at most {MAX_SAMPLES}, got {samples}\n"

    def test_svg(self, capsys):
        code, out, _ = run(
            capsys, "chd", "--scenario", "ppas-ideal-2", "--format", "svg",
        )
        assert code == 0
        assert out.count('class="breakpoint"') == 2

    # the leaf (2, 0, v2) has the one breakpoint sqrt(-v2): 10**350, 10**20,
    # 10**150, and 2**53 itself
    @pytest.mark.parametrize("v2, breakpoint", [
        ("-1e700", 10**350), ("-1e40", 10**20), ("-1e300", 10**150), (str(-(2**106)), 2**53),
    ])
    def test_breakpoint_past_2_53_exits_2_in_plots_only(self, tmp_path, capsys, v2, breakpoint):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"class": [2, 0, v2]}))
        for fmt in ("svg", "csv"):
            code, out, err = run(capsys, "chd", "--tree", str(path), "--format", fmt)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
        code, out, err = run(capsys, "chd", "--tree", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["breakpoints"] == [str(breakpoint)]
        code, out, err = run(capsys, "chd", "--tree", str(path))
        assert code == 0 and out.startswith(f"[-inf, {breakpoint}]:")

    def test_breakpoint_below_2_53_is_plotted(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"class": [2, 0, str(-(2**53 - 1) ** 2)]}))
        code, out, _ = run(capsys, "chd", "--tree", str(path), "--format", "svg")
        assert code == 0 and out.count('class="breakpoint"') == 1
        code, out, _ = run(capsys, "chd", "--tree", str(path), "--format", "csv", "--samples", "2")
        assert code == 0
        assert out == f"x,value\n{2**53 - 2},0\n{2**53 - 1},0\n{2**53},{2**54 - 1:.6g}\n"

    def test_cancelling_breakpoint_is_plotted_at_its_value(self, tmp_path, capsys):
        # the leaf's breakpoint -34761632124320657 + 24580185800219268*sqrt(2)
        # is about -1.4e-17, whose parts cancel in floats; the window is
        # [-1, 1] around it, the function 0 left of it and 1 + v1*x + x^2 right
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"class": [2, 69523264248641314, "1"]}))
        code, out, _ = run(capsys, "chd", "--tree", str(path), "--format", "csv", "--samples", "4")
        assert (code, out) == (
            0, "x,value\n-1,0\n-1/2,0\n0,1\n1/2,3.47616e+16\n1,6.95233e+16\n"
        )
        code, out, _ = run(capsys, "chd", "--tree", str(path), "--format", "svg")
        assert code == 0
        assert '<polyline class="function" points="40.000,360.000 ' in out
        assert '<circle class="breakpoint" cx="400.000" cy="360.000" r="3" fill="red"/>' in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5400a94d25d97c9c21356b956a4aadee3c6ad987a48061d200b7bb90e9e5920a"
        )

    @pytest.mark.parametrize("k", ["0", "1"])
    @pytest.mark.parametrize("sid", TREE_SCENARIOS + list(IRRATIONAL_TREES))
    def test_svg_and_csv_match_pointwise_evaluation(self, tmp_path, capsys, sid, k):
        if sid in IRRATIONAL_TREES:
            path = tmp_path / "tree.json"
            path.write_text(json.dumps(IRRATIONAL_TREES[sid]))
            source, tree = ("--tree", str(path)), tree_from_json(IRRATIONAL_TREES[sid])
        else:
            source, tree = ("--scenario", sid), catalog.load_scenario(sid).tree
        fn = assemble_chd1(tree) if k == "1" else assemble_chd0(tree)
        code, out, _ = run(capsys, "chd", *source, "--k", k, "--format", "svg")
        assert code == 0 and pointwise_function_polyline(fn) in out.splitlines()
        for n in ("1", "7", "100"):
            code, out, _ = run(capsys, "chd", *source, "--k", k,
                               "--format", "csv", "--samples", n)
            assert code == 0 and out == pointwise_csv(fn, int(n))

    def test_value_beyond_float_range_exits_2_in_plots_only(self, tmp_path, capsys):
        # breakpoint 0, and chd0(1) = 1 + 10**400: exact in table and json only
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"class": [2, "1" + "0" * 400, "0"]}))
        for fmt in ("svg", "csv"):
            code, out, err = run(capsys, "chd", "--tree", str(path), "--format", fmt)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "use --format table or json" in err
        code, out, _ = run(capsys, "chd", "--tree", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["pieces"][1] == ["0", "1" + "0" * 400, "1"]
        code, out, _ = run(capsys, "chd", "--tree", str(path))
        assert code == 0 and out.endswith(f"[0, +inf]:  0 + 1{'0' * 400}*x + 1*x^2\n")

    # the middle piece's value at 1/3 + sqrt(2)/10**9: 10**400, whose rational
    # part overflows, and 15*10**307*sqrt(2), whose parts do not but their sum does
    @pytest.mark.parametrize("middle", [
        QuadPoly(10**400), QuadPoly(-5 * 10**316, 15 * 10**316),
    ])
    def test_breakpoint_dot_beyond_float_range_raises_overflow(self, middle):
        # no grid point lies in (1/3, 1/3 + sqrt(2)/10**9]: only the dot at the
        # second breakpoint takes the middle piece
        fn = PiecewiseQuadratic(
            [QI(Fraction(1, 3)), Fraction(1, 3) + QI.sqrt(2) * Fraction(1, 10**9)],
            [QuadPoly(0), middle, QuadPoly(0)],
        )
        ks = rational_grid(*function_range(fn), 400, 1024)
        assert all(n == 0 for n, _ in fn.sample(ks, 1024))
        with pytest.raises(OverflowError):
            render_function_svg(fn)

    @pytest.mark.parametrize("v", [ChernClass(2, 0, -5), ChernClass(-2, 4, -3), ChernClass(6, 4, -4)])
    @pytest.mark.parametrize("frame", [(-6.5, 3.25, 4.0), (-1.0, 1.0, 1.0), (0.3, 9.7, 0.5)])
    def test_hyperbola_matches_pointwise_twist(self, v, frame):
        fr = _Frame(*frame)
        pts = pointwise_hyperbola_points(v, fr)
        polyline = _hyperbola_polyline(v, fr)
        if pts:
            assert f'points="{" ".join(pts)}"' in polyline
        else:
            assert polyline == "<!-- hyperbola outside viewport -->"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "fn.json"
        code, out, _ = run(
            capsys, "chd", "--scenario", "ppas-ideal-1", "--format", "json",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["breakpoints"] == ["1"]


class TestParserReuse:
    """`main` builds its parser once per process; a reused parser answers each
    call as a fresh process does, after usage errors and --help too."""

    SEQUENCE = [
        ("walls", "--badflag"),
        ("--help",),
        ("chd", "--help"),
        ("walls", "--class", "2,0,-5", "--beta", "-2", "--amin", "1/100"),
        ("chd", "--scenario", "ppas-ideal-2", "--tree", "tree.json"),
        ("chd", "--scenario", "ppas-ideal-2", "--format", "svg"),
        ("hn", "--scenario", "ppas-ideal-4-collinear", "--a", "1/50", "--beta", "-5/2"),
    ]

    def test_reused_parser_matches_fresh_process(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "PYTHONPATH": str(Path(tiltwall.__file__).parents[1])}

        def in_process(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in self.SEQUENCE:
            done = subprocess.run([sys.executable, "-m", "tiltwall.cli", *argv],
                                  capture_output=True, text=True, env=env)
            fresh.append((done.returncode, done.stdout, done.stderr))
        assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 2, 0, 0]
        # twice over, so that every call of the second pass meets a parser
        # that has already answered the whole sequence
        for _ in range(2):
            assert [in_process(argv) for argv in self.SEQUENCE] == fresh
        assert build_parser() is build_parser()


class TestValidateCommand:
    def test_good_scenario(self, capsys):
        code, out, _ = run(capsys, "validate", "--scenario", "ppas-ideal-2")
        assert code == 0 and "valid" in out

    def test_tampered_tree_exits_1(self, tmp_path, capsys):
        data = tree_to_json(catalog.load_scenario("ppas-ideal-2").tree)
        data["children"][0]["class"] = [4, -4, "3"]  # break the child sum
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "validate", "--tree", str(path))
        assert code == 1
        assert "sum" in out


    def test_invalid_tree_exits_1_for_chd_too(self, tmp_path, capsys):
        data = tree_to_json(catalog.load_scenario("ppas-ideal-2").tree)
        data["children"].reverse()  # leaf intercepts no longer non-increasing
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "validate", "--tree", str(path))
        assert code == 1 and "not well-ordered" in out
        for argv in (["chd"], ["hn", "--a", "1/100", "--beta", "-1"]):
            code, out, err = run(capsys, *argv, "--tree", str(path))
            assert code == 1 and out == ""
            assert err.startswith("error: invalid tree: not well-ordered") and err.count("\n") == 1

    def test_rank0_leaf_of_negative_degree_exits_1(self, tmp_path, capsys):
        path = tmp_path / "rank0.json"
        path.write_text(json.dumps({
            "class": [2, 0, "-3"],
            "wall": {"center": "2", "radius_sq": "1"},
            "children": [{"class": [0, -2, "-4"]}, {"class": [2, 2, "1"]}],
        }))
        violation = "root.0: leaf of rank 0 has negative degree -2"
        assert run(capsys, "validate", "--tree", str(path)) == (1, f"violation: {violation}\n", "")
        assert run(capsys, "chd", "--tree", str(path)) == (
            1, "", f"error: invalid tree: {violation}\n"
        )

    @pytest.mark.parametrize("data, violation", [
        # not a ppas class, but `validate` knows no lattice
        ({"class": [0, -1, "1"]}, "root: leaf of rank 0 has negative degree -1"),
        ({"class": [1, -4, "5/2"],
          "wall": {"kind": "semicircle", "center": "-15/22", "radius_sq": "5/484"},
          "children": [{"class": [-2, -3, "5/2"]}, {"class": [3, -1, "0"]}]},
         "root: children discriminants sum to 20, not below 11"),
        # chd0 would end in 2 - x^2, negative for x > sqrt(2)
        ({"class": [-2, 0, "2"]}, "root: root has negative rank -2"),
    ], ids=["rank0-degree-minus-1", "discriminant-sum", "negative-rank-root"])
    def test_one_violation_exits_1_everywhere(self, tmp_path, capsys, data, violation):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(capsys, "validate", "--tree", str(path)) == (1, f"violation: {violation}\n", "")
        for argv in (["chd"], ["hn", "--a", "1/100", "--beta", "-1"]):
            assert run(capsys, *argv, "--tree", str(path)) == (
                1, "", f"error: invalid tree: {violation}\n"
            ), argv

    @pytest.mark.parametrize("data", [
        {"class": 5},
        {"class": [2, None, 1]},
        {"class": [True, 0, "-5"]},  # JSON booleans are no integers
        {"class": [2, False, "-5"]},
        [1, 2, 3],
        {"class": [2, 0, -2], "children": 3},
        {"class": [2, 0, "-2"], "wall": {"center": "1", "radius_sq": "1"}},  # wall, no children
        {"class": [2, 0, "-2"], "label": 7},
        {"class": [2, 0, "-2"], "chlidren": [{"class": [2, 0, "-2"]}]},  # unknown key
        {**tree_to_json(catalog.load_scenario("ppas-ideal-2").tree), "label": "root"},
    ])
    def test_malformed_tree_exits_2(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        for argv in (["validate"], ["chd"], ["hn", "--a", "1/100", "--beta", "-1"]):
            code, out, err = run(capsys, *argv, "--tree", str(path))
            assert code == 2 and out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv

    @pytest.mark.parametrize("wall", [
        {"kind": "vertical", "center": "-3/2", "radius_sq": "1/4"},
        {"center": "-3/2", "radius_sq": "1/4", "colour": "red"},
        {"center": "-3/2"},
    ], ids=["kind-mismatch", "unknown-key", "missing-key"])
    def test_wall_of_neither_form_names_its_node(self, tmp_path, capsys, wall):
        path = tmp_path / "bad.json"
        two_points = tree_to_json(catalog.load_scenario("ppas-ideal-2").tree)
        path.write_text(json.dumps({**two_points, "wall": wall}))
        err = (
            'error: tree node (2,0,-2): a wall has exactly the keys "center" and '
            '"radius_sq" or exactly "beta", and an optional "kind" naming that form\n'
        )
        for argv in (["validate"], ["chd"], ["hn", "--a", "1/100", "--beta", "-1"]):
            assert run(capsys, *argv, "--tree", str(path)) == (2, "", err), argv


class TestDecimalExponent:
    """A decimal exponent beyond the int-digit limit exits 2 before `Fraction`
    expands it; "1e10000000" alone took seconds to expand."""

    @pytest.mark.parametrize("argv", [
        ("walls", "--class", "2,0,-5", "--beta=-1e10000000", "--amin", "1/100"),
        ("hn", "--scenario", "ppas-ideal-2", "--a", "1/100", "--beta=-1e1000000"),
    ], ids=["walls", "hn"])
    def test_argv_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: decimal exponent beyond the int-digit limit")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["validate", "chd"])
    def test_tree_json_v2_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"class": [2, 0, "-1e10000000"]}))
        code, out, err = run(capsys, command, "--tree", str(path))
        assert (code, out) == (2, "")
        assert "decimal exponent beyond the int-digit limit" in err and err.count("\n") == 1


class TestHnCommand:
    def test_factors(self, capsys):
        code, out, _ = run(
            capsys, "hn", "--scenario", "ppas-ideal-4-collinear",
            "--a", "1/50", "--beta", "-5/2",
        )
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 4
        assert rows[1].split() == ["(2,-2,1)", "221/300"]

    def test_point_on_wall_exits_2(self, capsys):
        code, _, err = run(
            capsys, "hn", "--scenario", "ppas-ideal-4-collinear",
            "--a", "9/8", "--beta", "-5/2",
        )
        assert code == 2 and "wall" in err

    def test_unknown_scenario_exits_2(self, capsys):
        code, _, err = run(capsys, "hn", "--scenario", "nope", "--a", "1", "--beta", "0")
        assert code == 2
        assert err.splitlines() == ["error: unknown scenario: 'nope'"]


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert out.split() == catalog.list_scenarios()

    def test_export(self, capsys):
        code, out, _ = run(capsys, "catalog", "--id", "ppas-ideal-2", "--export")
        data = json.loads(out)
        assert data["class"] == [2, 0, "-2"]
        assert data["tree"]["wall"]["center"] == "-3/2"

    def test_out_file(self, tmp_path, capsys):
        for argv in ((), ("--id", "ppas-ideal-2")):
            expected = run(capsys, "catalog", *argv)[1]
            target = tmp_path / "catalog.txt"
            code, out, _ = run(capsys, "catalog", *argv, "--out", str(target))
            assert code == 0 and out == ""
            assert target.read_text() == expected
        assert expected.startswith("ppas-ideal-2: class (2,0,-2) on ppas\n")

    def test_unknown_id_exits_2(self, capsys):
        code, _, err = run(capsys, "catalog", "--id", "nope")
        assert code == 2
        assert err.splitlines() == ["error: unknown scenario: 'nope'"]


class TestCheckCommand:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "check")
        assert code == 0
        assert "FAIL" not in out
        lines = [l for l in out.splitlines() if "PASS" in l]
        assert len(lines) == 55

    def test_failure_exits_1(self, capsys, monkeypatch):
        # a subset of the true jumps: the whole map must match, not a subset
        scenario = catalog.load_scenario("ppas-ideal-2")
        monkeypatch.setattr(scenario, "expected_jumps", {QI(1): QI(0)})
        code, out, _ = run(capsys, "check")
        assert code == 1
        failed = [l for l in out.splitlines() if l.endswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith("ppas-ideal-2: derivative jumps ")
        assert out.endswith("\n54/55 checks passed\n")

    def test_invalid_tree_exits_1(self, capsys, monkeypatch):
        scenario = catalog.load_scenario("ppas-ideal-2")
        tree = scenario.tree
        monkeypatch.setattr(scenario, "tree", TreeNode(tree.cls, tree.wall, tree.children[::-1]))
        code, out, err = run(capsys, "check")
        assert code == 1 and err == ""
        assert out.endswith("\n50/55 checks passed\n")


class TestRemovedOptions:
    """Options a command would not read are usage errors, not silent no-ops."""

    @pytest.mark.parametrize("argv", [
        ("check",),
        ("validate", "--scenario", "ppas-ideal-2"),
        ("chd", "--scenario", "ppas-ideal-2"),
        ("hn", "--scenario", "ppas-ideal-2", "--a", "1", "--beta", "-1"),
        ("catalog",),
    ])
    @pytest.mark.parametrize("option", [("--preset", "ppas"), ("--config", "cfg.json")])
    def test_preset_and_config_exit_2(self, capsys, argv, option):
        with pytest.raises(SystemExit) as e:
            main([*argv, *option])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv", [("check",), ("validate", "--scenario", "ppas-ideal-2")])
    def test_out_exits_2(self, tmp_path, capsys, argv):
        target = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as e:
            main([*argv, "--out", str(target)])
        assert e.value.code == 2
        assert not target.exists()

    def test_strict_exits_2(self, capsys):
        # the sum of the two discriminants is always below disc(v), so a
        # strict test of it selected nothing
        with pytest.raises(SystemExit) as e:
            main(["walls", "--class", "2,0,-25", "--beta", "-6", "--amin", "1/100", "--strict"])
        assert e.value.code == 2


class TestDeepInput:
    """JSON nested beyond the parser's recursion limit is a usage error; a tree
    of depth 450 is still judged."""

    @pytest.mark.parametrize("argv, text", [
        (["validate", "--tree"], "[" * 2000 + "]" * 2000),
        (["walls", "--class", "2,0,-5", "--beta", "-2", "--amin", "1/100", "--config"],
         '{"a": ' * 2000 + "1" + "}" * 2000),
    ], ids=["tree", "config"])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, argv, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tree_of_depth_450_is_judged(self, tmp_path):
        # each level nests the tree so far as the first child, next to a leaf
        node = '{"class": [2, 0, "-5"], "wall": {"center": "-3", "radius_sq": "4"}, "children": ['
        leaf = '{"class": [0, 2, "-1"]}'
        path = tmp_path / "deep.json"
        path.write_text(node * 450 + leaf + f", {leaf}]}}" * 450)
        # a fresh process: the test runner's own frames count against the
        # recursion limit, as a shell's do not
        env = {**os.environ, "PYTHONPATH": str(Path(tiltwall.__file__).parents[1])}

        def cli(*argv):
            done = subprocess.run([sys.executable, "-m", "tiltwall.cli", *argv, "--tree", str(path)],
                                  capture_output=True, text=True, env=env)
            return done.returncode, done.stdout, done.stderr

        code, out, err = cli("validate")
        assert code == 1 and out.startswith("violation: ") and err == ""
        for argv in (["chd"], ["hn", "--a", "1", "--beta", "-3"]):
            code, out, err = cli(*argv)
            assert code == 1 and out == "", argv
            assert err.startswith("error: invalid tree: ") and err.count("\n") == 1, argv


def _ppas_classes():
    """ppas lattice classes of small rank and degree; rank 0 with either sign."""
    even = st.integers(-3, 3).map(lambda k: 2 * k)
    v2 = st.integers(-12, 12).map(lambda k: Fraction(k, 2))
    general = st.builds(ChernClass, even, even, v2)
    rank0 = st.builds(ChernClass, st.just(0), st.sampled_from([-4, -2, 2, 4]), v2)
    return st.one_of(general, rank0)


@st.composite
def _fuzz_trees(draw, depth=2):
    """A tree whose nodes mostly have the sum of their children as class and
    the wall between the node and its first child as wall."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return TreeLeaf(draw(_ppas_classes()))
    children = draw(st.lists(_fuzz_trees(depth - 1), min_size=1, max_size=3))
    cls = children[0].cls
    for child in children[1:]:
        cls = class_add(cls, child.cls)
    if draw(st.integers(0, 5)) == 0:
        cls = draw(_ppas_classes())
    wall = wall_between(cls, children[0].cls)
    if wall is None or draw(st.integers(0, 5)) == 0:
        wall = Semicircle(
            Fraction(draw(st.integers(-12, 12)), 2), Fraction(draw(st.integers(1, 40)), 4)
        )
    return TreeNode(cls, wall, children)


_JUNK_TREES = [
    {"class": [2, "x", 1]},
    {"class": [0, 0, "1/0"]},
    {"class": [2, 0, -2], "wall": {"center": "1"}, "children": [{"class": [2, 0, -2]}]},
    {"class": [2, 0, -2], "wall": {"beta": "0"}, "children": []},
    {"class": [2, 0, -2], "label": 7},
    {"class": [2, 0, -2], "chlidren": [{"class": [2, 0, -2]}]},
    "tree",
]

_FUZZ_TREE_JSON = st.one_of(
    _fuzz_trees().map(tree_to_json),
    st.sampled_from(TREE_SCENARIOS).map(
        lambda sid: tree_to_json(catalog.load_scenario(sid).tree)
    ),
    st.sampled_from(_JUNK_TREES),
)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "tree.json"


class TestTreeFuzz:
    """Every tree file ends in exit 0, 1 or 2 with at most one error line."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=_FUZZ_TREE_JSON,
        a=st.integers(0, 24).map(lambda k: format_rational(Fraction(k, 8))),
        beta=st.integers(-48, 48).map(lambda k: format_rational(Fraction(k, 8))),
    )
    def test_validate_chd_and_hn_exit_cleanly(self, fuzz_path, data, a, beta):
        fuzz_path.write_text(json.dumps(data))
        tree = ["--tree", str(fuzz_path)]
        # an exception escaping main would fail the test: that is the traceback
        code, out, err = _call(["validate", *tree])
        event(f"validate exits {code}")
        if code == 0:
            assert out == "tree is valid\n" and err == ""
        elif code == 1:  # the violations are the report, one per line
            assert err == "" and out
            assert all(line.startswith("violation: ") for line in out.splitlines())
        else:
            assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        runs = [["hn", *tree, "--a", a, "--beta", beta]] + [
            ["chd", *tree, "--k", k, "--format", fmt, "--samples", "7"]
            for k in ("0", "1")
            for fmt in ("table", "json", "csv", "svg")
        ]
        for argv in runs:
            got, out, err = _call(argv)
            assert got in (0, 1, 2), argv
            if got == 0:
                assert err == "" and out, argv
                continue
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
            # an invalid tree exits 1 everywhere, a malformed one 2 everywhere,
            # and a valid tree always has a chd0
            assert (got == 1) is (code == 1), argv
            assert argv[:5] != ["chd", *tree, "--k", "0"] or code != 0, argv
