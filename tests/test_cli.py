import cmath
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import numpy as np

from birange import cli, criteria, forms, nrcore, verify
from birange.cli import main
from birange.linalg import eye
from helpers import (
    bi_special_real_case_ii,
    disguise,
    fig_left_special,
    general_example_matrix,
    random_block,
)


def to_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def raw_doc(matrix) -> dict:
    return {
        "form": "raw",
        "matrix": [[to_pair(matrix[i, j]) for j in range(4)] for i in range(4)],
    }


def special_doc(sf) -> dict:
    return {
        "form": "special",
        "u": sf.u,
        "v": sf.v,
        "b1": to_pair(sf.b1),
        "b2": to_pair(sf.b2),
        "b": sf.b,
    }


# A disguised real case (ii) form with u perturbed by 3.16e-5 * scale; the
# same document is piped into the console script in CI.
NEAR_CASE_II_DOC = (
    '{"form": "block", "alpha": [0.04726862291048647, 0.33577921628712387], '
    '"beta": [0.04725914001232349, 0.33556345121625347], '
    '"C": [[[-0.8291792664207289, 0.21559218351215598], '
    '[1.6265748883770708, -1.1450091519720318]], '
    '[[0.5861496959580683, 0.7554353909295204], '
    '[0.13363212785556827, 0.46480942241832063]]], '
    '"D": [[[1.3971742506624993, -0.651770350663256], '
    '[0.48380919441441317, -1.3811859056206774]], '
    '[[0.4595528232159098, 0.013988725807611936], '
    '[-1.0277425010814882, 0.22953009007308245]]]}'
)

# The paper's zero-diagonal case with b2 = -conj(b1); CI pipes it into
# `birange verify` too.
ZERO_DIAGONAL_DOC = ('{"form": "special", "u": 0, "v": 0, "b1": [0.6, 0.2], '
                     '"b2": [-0.6, 0.2], "b": 1}')


@pytest.fixture
def gen_file(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(raw_doc(general_example_matrix())))
    return str(path)


class TestCheck:
    def test_worked_example_exit_and_values(self, gen_file, capsys):
        code = main(["check", gen_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "BiElliptical" in out
        # Two flat portions of length 5 sqrt(2), the offset between the
        # ellipse centers.
        assert out.count(f"length {5 * math.sqrt(2):.12g}") == 2
        assert "center -2.5+2.5i" in out and "center 2.5-2.5i" in out

    def test_reciprocal_positive(self, tmp_path, capsys):
        a = math.sqrt(3 + 2 * math.sqrt(2))
        doc = {"form": "reciprocal", "a1": a, "a2": 1.0, "a3": a}
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(doc))
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "BiElliptical" in out

    def test_reciprocal_all_ones_negative(self, tmp_path, capsys):
        doc = {"form": "reciprocal", "a1": 1.0, "a2": 1.0, "a3": 1.0}
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(doc))
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "Neither" in out

    def test_round_trip_special_vs_raw(self, tmp_path, capsys):
        sf = fig_left_special()
        p1 = tmp_path / "special.json"
        p1.write_text(json.dumps(special_doc(sf)))
        p2 = tmp_path / "raw.json"
        p2.write_text(json.dumps(raw_doc(sf.to_block().assemble())))

        assert main(["check", str(p1), "--format", "json"]) == 0
        rep1 = json.loads(capsys.readouterr().out)
        assert main(["check", str(p2), "--format", "json"]) == 0
        rep2 = json.loads(capsys.readouterr().out)

        assert rep1["verdict"] == rep2["verdict"] == "BiElliptical"
        for key in ("semi_major", "semi_minor", "tilt"):
            for e1, e2 in zip(rep1["ellipses"], rep2["ellipses"]):
                assert abs(e1[key] - e2[key]) <= 1e-9 * (1 + abs(e1[key]))
        for e1, e2 in zip(rep1["ellipses"], rep2["ellipses"]):
            c1 = complex(*e1["center"])
            c2 = complex(*e2["center"])
            assert abs(c1 - c2) <= 1e-9 * (1 + abs(c1))

    # The shifted case: at |c| / t = 1e11 the diagonal blocks' departure
    # from scalar is far below 1e-10 of the shifted norm, but not of the
    # norm less the trace shift, which is what detection reads.
    @pytest.mark.parametrize("t, c", [(1.0, 0.0), (1e-5, 1e6)],
                             ids=["unshifted", "shifted"])
    def test_unstructured_raw_rejected(self, tmp_path, capsys, t, c):
        doc = {
            "form": "raw",
            "matrix": [[[t * float(i == j) * (i + 1) + c * float(i == j), t * 0.5]
                        for j in range(4)] for i in range(4)],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["check", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "scalar" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        assert main(["check", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_field(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"form": "special", "u": 0.0}))
        assert main(["check", str(path)]) == 2
        assert "missing field" in capsys.readouterr().err

    def test_batch_array(self, tmp_path, capsys):
        a = math.sqrt(3 + 2 * math.sqrt(2))
        docs = [
            {"form": "reciprocal", "a1": a, "a2": 1.0, "a3": a},
            {"form": "reciprocal", "a1": 1.0, "a2": 1.0, "a3": 1.0},
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(docs))
        code = main(["check", str(path), "--format", "json"])
        reports = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [r["verdict"] for r in reports] == ["BiElliptical", "NotBiElliptical"]

    @pytest.mark.parametrize("batch", [False, True], ids=["object", "array"])
    def test_json_output_shape_follows_input(self, batch, tmp_path, capsys):
        # A one-element array is a batch of one: it prints an array.
        doc = raw_doc(general_example_matrix())
        path = tmp_path / "doc.json"
        path.write_text(json.dumps([doc] if batch else doc))
        assert main(["check", str(path), "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert isinstance(out, list if batch else dict)
        assert (out[0] if batch else out)["verdict"] == "BiElliptical"

    def test_json_report_hull_contract(self, gen_file, capsys):
        assert main(["check", gen_file, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hull_hausdorff"] <= 1e-6 * report["diameter"]
        assert "hull_max_pointwise" not in report
        assert report["consistency_failures"] == []
        assert report["factorization_residual"]["total"] <= 1e-9
        assert not any(k.startswith("special_fact") for k in report["diagnostics"])

    @pytest.mark.parametrize("argv, points", [
        (["check"], [False]), (["check", "--format", "json"], [False]),
        (["verify"], [False]), (["boundary", "--format", "svg"], [False, True]),
    ], ids=["check-text", "check-json", "verify", "boundary-svg"])
    def test_boundary_points_only_where_read(self, argv, points, gen_file, capsys,
                                             monkeypatch):
        # Only the exported polygon reads boundary points; the audit that
        # annotates the SVG reads support values, like every other audit.
        asked = []

        def spy(*args, _fn=nrcore.boundary_support, **kwargs):
            result = _fn(*args, **kwargs)
            asked.append(result.points is not None)
            return result

        monkeypatch.setattr(nrcore, "boundary_support", spy)
        assert main([*argv, gen_file]) == 0
        assert asked == points

    def test_too_few_samples_is_usage_error(self, gen_file, capsys):
        assert main(["check", gen_file, "--samples", "256"]) == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "verify", "boundary"])
    def test_odd_samples_is_usage_error(self, command, gen_file, capsys):
        # The oracle pairs direction k with its antipode k + n/2.
        assert main([command, gen_file, "--samples", "2047"]) == 2
        err = capsys.readouterr().err
        assert "--samples must be a multiple of 4 from " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("samples", ["1026", "65540"])
    @pytest.mark.parametrize("command", ["check", "verify", "boundary"])
    def test_samples_off_rule_is_usage_error(self, command, samples, gen_file, capsys):
        # Even but not a multiple of 4: the audit reads its bounding box off
        # the directions 0, pi/2, pi and 3 pi/2.  One multiple of 4 past the
        # ceiling: no count reaches the O(samples) direction grid unbounded.
        assert main([command, gen_file, "--samples", samples]) == 2
        err = capsys.readouterr().err
        assert "--samples must be a multiple of 4 from " in err
        assert "Traceback" not in err


def module_command(*args) -> dict:
    """Popen arguments for ``python -m birange.cli`` with the package this
    suite imports on the child's path, whether it came from PYTHONPATH or
    pytest's pythonpath."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {"args": [sys.executable, "-m", "birange.cli", *args],
            "env": {**os.environ, "PYTHONPATH": path}}


def run_module(*args):
    return subprocess.run(**module_command(*args), capture_output=True, text=True)


class TestExitCodeContract:
    """Bad input exits 2, internal failure exits 3, and no traceback ever
    escapes with exit 1 (which means "not bi-elliptical")."""

    @pytest.mark.parametrize(
        "text",
        [
            # json.loads accepts NaN and Infinity literals.
            '{"form": "block", "alpha": NaN, "beta": 0, '
            '"C": [[1, 0], [0, 1]], "D": [[1, 0], [0, 1]]}',
            # Overflows the quartic normalization.
            '{"form": "special", "u": 0.1, "v": 0, "b1": [0.6, -0.2], '
            '"b2": [0.4, -0.2], "b": 1e308}',
        ],
        ids=["nan_alpha", "huge_b"],
    )
    def test_non_finite_or_overflowing_input_exits_2(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        for command in ("check", "verify"):
            proc = run_module(command, str(path))
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("argv, t", [
        (["check"], 1e-45),
        (["verify"], 1e-80),
        (["boundary", "--format", "svg"], 1e-45),
    ])
    def test_matrix_below_the_scale_floor_exits_2(self, argv, t, tmp_path, capsys):
        # The worked example below forms.MIN_SCALE, where the decision's
        # degree-8 terms underflow: unguarded, check read it as
        # ProductNormal (exit 1) and verify failed its pencil rows (exit 3).
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(raw_doc(t * general_example_matrix())))
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 1e-36" in captured.err
        # The boundary samples need no decision.
        assert main(["boundary", str(path), "--samples", "64"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 65

    def test_reciprocal_entry_out_of_range(self, capsys):
        assert main(["reciprocal", "1e-300", "1", "1"]) == 2

    def test_solve_b_non_finite(self, capsys):
        assert main(["solve-b", "nan", "0", "1", "1"]) == 2
        assert main(["solve-b", "1", "0", "1,inf", "1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["check", "-"], ["boundary", "-"], ["verify", "-"],
        ["solve-b", "0.1", "0", "0.6,-0.2", "0.4,-0.2"],
    ], ids=lambda argv: argv[0])
    def test_removed_tol_criterion_flag_is_usage_error(self, argv, capsys):
        # Every gate reads forms.TOL; no option loosens the criterion.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol-criterion", "1e6"])
        assert exc.value.code == 2
        assert "--tol-criterion" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check"], ["check", "--format", "json"], ["verify"], ["boundary"],
    ], ids=["check-text", "check-json", "verify", "boundary"])
    def test_empty_batch_is_usage_error(self, argv, tmp_path, capsys):
        # An empty batch has no verdict, and exit 0 would claim a positive one.
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert "no matrix documents" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        {"form": "special", "u": True, "v": 0, "b1": [0.6, -0.2],
         "b2": [0.4, -0.2], "b": False},
        {"form": "special", "u": 0.1, "v": 0, "b1": [True, -0.2],
         "b2": [0.4, -0.2], "b": 1.0},
        {"form": "block", "alpha": False, "beta": 0,
         "C": [[1, 0], [0, 1]], "D": [[1, 0], [0, 1]]},
    ], ids=["real", "complex_part", "complex"])
    def test_json_booleans_are_not_numbers(self, doc, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_verify_reads_no_environment_and_draws_nothing(self, gen_file, capsys,
                                                           monkeypatch):
        # The spot checks run at one fixed set of directions: no seed
        # variable is read and no random generator is made.
        assert main(["verify", gen_file]) == 0
        want = capsys.readouterr()

        def no_generator(*args, **kwargs):
            raise AssertionError("verify made a random generator")

        monkeypatch.setenv("BIRANGE_SEED", "abc")
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        assert main(["verify", gen_file]) == 0
        assert capsys.readouterr() == want
        assert want.out.count("[PASS]") == 6 and want.err == ""

    @pytest.mark.parametrize("argv, doc, read, code", [
        (["check", "--format", "json"], "gen", 0, 0),
        (["check"], "neither", 0, 1),
        (["verify"], "gen", 0, 0),
        (["check", "--format", "json"], "batch", 1, 0),
    ], ids=["check-json", "check-text-negative", "verify", "check-json-batch-mid-output"])
    def test_closed_pipe_keeps_exit_code(self, argv, doc, read, code, tmp_path):
        # The reader takes ``read`` characters and closes the pipe: the
        # output ends there, with the command's own exit code and nothing on
        # stderr.  The 200-document report is far larger than a pipe
        # buffer, so there the pipe closes while the command is writing.
        gen = raw_doc(general_example_matrix())
        docs = {"gen": gen, "batch": [gen] * 200,
                "neither": {"form": "reciprocal", "a1": 1.0, "a2": 1.0, "a3": 1.0}}
        path = tmp_path / "docs.json"
        path.write_text(json.dumps(docs[doc]))
        proc = subprocess.Popen(**module_command(*argv, str(path)),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == code
        assert err == ""

    @pytest.mark.parametrize("command", ["check", "verify"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_deeply_nested_json_exits_2(self, command, source, tmp_path, capsys,
                                        monkeypatch):
        # json.loads raises RecursionError, not JSONDecodeError, on nesting
        # deeper than the interpreter's recursion limit.
        text = "[" * 100000
        if source == "file":
            path = tmp_path / "deep.json"
            path.write_text(text)
            arg = str(path)
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            arg = "-"
        assert main([command, arg]) == 2
        assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize("command", ["check", "verify", "boundary"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_input_exits_2(self, command, source, tmp_path, capsys,
                                    monkeypatch):
        # Standard input decoded strictly, as under PYTHONIOENCODING=utf-8:strict.
        data = b"\xff\xfe{}"
        if source == "file":
            path = tmp_path / "bad.json"
            path.write_bytes(data)
            arg = str(path)
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
            arg = "-"
        assert main([command, arg]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {arg!r}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n")

    def test_uncaught_exception_exits_3(self, gen_file, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("oracle exploded")

        monkeypatch.setattr(nrcore, "boundary_support", broken)
        assert main(["check", gen_file]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: internal failure: RuntimeError")


USAGE = "usage: birange [-h] {check,boundary,solve-b,reciprocal,verify} ...\n"


class TestParserText:
    """``main``'s help, usage and error texts and exit codes, as argparse
    renders them on Python 3.11 at 80 columns."""

    @pytest.mark.parametrize("argv, out, err, code", [
        pytest.param(["check", "--help"], (
            "usage: birange check [-h] [--samples SAMPLES] [--format {text,json}] [input]\n"
            "\n"
            "positional arguments:\n"
            "  input                 JSON matrix document (default: stdin)\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --samples SAMPLES     oracle support directions (a multiple of 4)\n"
            "  --format {text,json}\n"), "", 0, id="check --help"),
        pytest.param(["boundary", "--help"], (
            "usage: birange boundary [-h] [--samples SAMPLES] [--format {csv,svg}]\n"
            "                        [--output OUTPUT]\n"
            "                        [input]\n"
            "\n"
            "positional arguments:\n"
            "  input               JSON matrix document (default: stdin)\n"
            "\n"
            "options:\n"
            "  -h, --help          show this help message and exit\n"
            "  --samples SAMPLES   oracle support directions (a multiple of 4)\n"
            "  --format {csv,svg}\n"
            "  --output OUTPUT     output path\n"), "", 0, id="boundary --help"),
        pytest.param(["solve-b", "--help"], (
            "usage: birange solve-b [-h] u v b1 b2\n"
            "\n"
            "positional arguments:\n"
            "  u\n"
            "  v\n"
            "  b1          complex as 're' or 're,im'\n"
            "  b2          complex as 're' or 're,im'\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"), "", 0, id="solve-b --help"),
        pytest.param(["reciprocal", "--help"], (
            "usage: birange reciprocal [-h] a1 a2 a3\n"
            "\n"
            "positional arguments:\n"
            "  a1\n"
            "  a2\n"
            "  a3\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"), "", 0, id="reciprocal --help"),
        pytest.param(["verify", "--help"], (
            "usage: birange verify [-h] [--samples SAMPLES] [input]\n"
            "\n"
            "positional arguments:\n"
            "  input              JSON matrix document (default: stdin)\n"
            "\n"
            "options:\n"
            "  -h, --help         show this help message and exit\n"
            "  --samples SAMPLES  oracle support directions (a multiple of 4)\n"),
            "", 0, id="verify --help"),
        pytest.param(["--help"], (
            USAGE +
            "\n"
            "Decide whether structured 4x4 matrices have a bi-elliptical numerical range;\n"
            "export and verify boundaries.\n"
            "\n"
            "positional arguments:\n"
            "  {check,boundary,solve-b,reciprocal,verify}\n"
            "    check               classify a matrix\n"
            "    boundary            export boundary samples\n"
            "    solve-b             solve for the coupling entry b\n"
            "    reciprocal          classify a reciprocal matrix\n"
            "    verify              run the oracle suite\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"), "", 0, id="--help"),
        pytest.param([], "", (
            USAGE +
            "birange: error: the following arguments are required: command\n"), 2,
            id="no-command"),
        pytest.param(["frobnicate"], "", (
            USAGE +
            "birange: error: argument command: invalid choice: 'frobnicate' (choose from "
            "'check', 'boundary', 'solve-b', 'reciprocal', 'verify')\n"), 2, id="frobnicate"),
        pytest.param(["verify", "--bogus"], "", (
            USAGE +
            "birange: error: unrecognized arguments: --bogus\n"), 2, id="verify --bogus"),
        pytest.param(["solve-b", "1"], "", (
            "usage: birange solve-b [-h] u v b1 b2\n"
            "birange solve-b: error: the following arguments are required: v, b1, b2\n"), 2,
            id="solve-b 1"),
    ])
    def test_same_text_as_full_parser(self, argv, out, err, code, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert capsys.readouterr() == (out, err)
        assert exc.value.code == code

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_dispatch_reads_the_module_attribute(self, gen_file, monkeypatch, capsys):
        # The parser exists before the patch, as under the bench tracer,
        # which replaces ``cli.cmd_check`` after import.
        assert main(["reciprocal", "10", "1.0001", "10"]) == 1
        calls = []
        monkeypatch.setattr(cli, "cmd_check", lambda args: calls.append(args.input) or 0)
        assert main(["check", gen_file]) == 0
        assert calls == [gen_file]


class TestBoundary:
    def test_csv_deterministic(self, gen_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["boundary", gen_file, "--samples", "256",
                     "--output", str(out1)]) == 0
        assert main(["boundary", gen_file, "--samples", "256",
                     "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_columns(self, gen_file, capsys):
        assert main(["boundary", gen_file, "--samples", "64"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "theta,re,im,support_value,gap"
        assert len(lines) == 65
        for line in lines[1:]:
            row = line.split(",")
            assert len(row) == 5
            for field in row:
                float(field)

    def test_svg_structure(self, gen_file, tmp_path):
        out = tmp_path / "plot.svg"
        assert main(["boundary", gen_file, "--format", "svg",
                     "--output", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert "<polygon" in text
        assert "<ellipse" in text  # bi-elliptical verdict overlays both
        assert "<line" in text
        assert "<script" not in text

    # The worked example scaled by 1e-20, and scaled by 1e-3 and shifted by
    # 1e6 i, a range about 1e-8 of its distance from the origin wide.
    @pytest.mark.parametrize("t, c", [(1e-20, 0j), (1e-3, 1e6j)], ids=["tiny", "shifted"])
    def test_svg_view_box_fits_a_tiny_range(self, tmp_path, t, c):
        # The view box pads the drawn range by 5% of its own span, so the
        # range fills the drawing, and every coordinate keeps the digits
        # that put each polygon point inside the box.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(raw_doc(t * general_example_matrix() + c * eye(4))))
        out = tmp_path / "plot.svg"
        assert main(["boundary", str(path), "--format", "svg",
                     "--output", str(out)]) == 0
        text = out.read_text()
        x, y, width, height = map(float, re.search(r'viewBox="(\S+) (\S+) (\S+) (\S+)"',
                                                   text).groups())
        pts = [complex(*map(float, p.split(",")))
               for p in re.search(r'<polygon points="([^"]+)"', text).group(1).split()]
        span = max(np.ptp([p.real for p in pts]), np.ptp([p.imag for p in pts]))
        assert 0.0 < span <= max(width, height) <= 1.2 * span
        assert all(x <= p.real <= x + width and y <= p.imag <= y + height for p in pts)

    def test_refinement_convergence(self, gen_file, capsys):
        assert main(["boundary", gen_file, "--samples", "64"]) == 0
        coarse = capsys.readouterr().out
        assert main(["boundary", gen_file, "--samples", "2048"]) == 0
        fine = capsys.readouterr().out

        def pts(text):
            rows = [line.split(",") for line in text.strip().splitlines()[1:]]
            return [complex(float(r[1]), float(r[2])) for r in rows]

        import numpy as np

        def polygon_distance(points, verts):
            z = np.asarray(points)[:, None]
            v = np.asarray(verts)
            d = (np.roll(v, -1) - v)[None, :]
            v = v[None, :]
            t = np.clip(
                ((z - v) * np.conj(d)).real
                / np.maximum(np.abs(d) ** 2, 1e-300),
                0.0,
                1.0,
            )
            return np.abs(z - (v + t * d)).min(axis=1)

        a, b = pts(coarse), pts(fine)
        diam = max(abs(p - q) for p in b[:256] for q in b[1024:1280])
        h = max(polygon_distance(a, b).max(), polygon_distance(b, a).max())
        assert h <= 2e-3 * diam

    def test_sample_floor(self, gen_file, capsys):
        assert main(["boundary", gen_file, "--samples", "8"]) == 2

    def test_unwritable_output(self, gen_file, capsys):
        code = main(["boundary", gen_file, "--output", "/nonexistent/dir/x.csv"])
        assert code == 2


class TestSolveB:
    def test_first_figure_left(self, capsys):
        code = main(["solve-b", "0.1", "0", "0.6,-0.2", "0.4,-0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "b = 1" in out

    def test_first_figure_right(self, capsys):
        code = main(["solve-b", "0", "0.1", "0.3,0.4", "0.4,0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "b = 1" in out

    def test_first_figure_left_off_the_real_axis(self, capsys):
        code = main(["solve-b", "0.1", "1e-9", "0.6,-0.2", "0.4,-0.2"])
        assert code == 0
        assert capsys.readouterr().out == "b = 1\n"

    def test_no_solution(self, capsys):
        code = main(["solve-b", "1", "0", "0.5", "0.5"])
        assert code == 1
        assert "none" in capsys.readouterr().out

    def test_zero_alpha_guidance(self, capsys):
        code = main(["solve-b", "0", "0", "1,1", "1,-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unconstrained" in err

    def test_bad_complex_literal(self, capsys):
        assert main(["solve-b", "1", "0", "nope", "1"]) == 2


class TestReciprocal:
    def test_positive(self, capsys):
        a = repr(math.sqrt(3 + 2 * math.sqrt(2)))
        assert main(["reciprocal", a, "1.0", a]) == 0
        assert "BiElliptical" in capsys.readouterr().out

    def test_neither(self, capsys):
        assert main(["reciprocal", "1", "1", "1"]) == 1
        assert "Neither" in capsys.readouterr().out

    def test_nonpositive_rejected(self, capsys):
        assert main(["reciprocal", "1", "-1", "1"]) == 2

    # a2 within 1e-4 of 1, and a2 = 3 between outer entries of 1e5: the
    # bi-elliptical test gates a_k - 1/a_k at the resolution of the general
    # check, so neither counts as A2 = 1.
    @pytest.mark.parametrize("a", [(10, 1.0001, 10), (1e5, 3, 1e5)])
    def test_check_and_reciprocal_agree_near_the_line(self, a, tmp_path, capsys):
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(dict(form="reciprocal", a1=a[0], a2=a[1], a3=a[2])))
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "reciprocal classification: Neither" in out
        assert "CONSISTENCY FAILURE" not in out
        assert main(["reciprocal", *map(repr, a)]) == 1
        assert "classification: Neither" in capsys.readouterr().out.splitlines()


class TestVerify:
    def test_worked_example_all_pass(self, gen_file, capsys):
        code = main(["verify", gen_file, "--samples", "512"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "BiElliptical" in out

    def test_negative_still_verifies(self, tmp_path, capsys):
        sf = fig_left_special()
        doc = special_doc(sf)
        doc["b"] = 2.0  # wrong coupling
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", str(path), "--samples", "512"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" not in out

    def test_real_case_ii_is_reducible_and_verifies(self, tmp_path, capsys):
        # Real case (ii) is bi-elliptical and unitarily reducible, so its
        # commutant dimension is 2, not 1.
        rng = np.random.default_rng(7)
        for k in range(3):
            bf, _ = disguise(rng, bi_special_real_case_ii(rng))
            path = tmp_path / f"case_ii_{k}.json"
            path.write_text(json.dumps(raw_doc(bf.assemble())))
            code = main(["verify", str(path), "--samples", "512"])
            out = capsys.readouterr().out
            assert code == 0, out
            assert "[PASS] unitary irreducibility: commutant dimension 2" in out

    def test_zero_diagonal_conjugate_is_reducible_and_verifies(self, tmp_path, capsys):
        # u = v = 0 and b2 = -conj(b1): bi-elliptical for every b and
        # unitarily reducible like real case (ii).  The same document is
        # piped into the console script in CI.
        path = tmp_path / "zero_diagonal.json"
        path.write_text(ZERO_DIAGONAL_DOC)
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert ("[PASS] unitary irreducibility: commutant dimension 2 "
                "(reducible zero-diagonal form: 2 expected)") in out
        assert out.splitlines()[-1] == "verdict: BiElliptical"

    def test_near_real_case_ii_is_decided(self, tmp_path, capsys):
        # Here T on the reduced form exceeds TOL by a small factor while the
        # determinant identity at theta still holds within TOL: verify
        # decides by T alone, so it must not exit 3.
        path = tmp_path / "near_case_ii.json"
        path.write_text(NEAR_CASE_II_DOC)
        code = main(["verify", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code in (0, 1)
        assert not any(ln.startswith("[FAIL]") for ln in lines)
        bf = cli.parse_matrix_spec(json.loads(NEAR_CASE_II_DOC))[1]
        sf, _ = forms.reduce_to_special(bf, criteria.find_theta(bf).theta)
        want = criteria.check_special(sf)
        assert lines[-1] == f"verdict: {want.kind}"
        assert code == (0 if want.bielliptical else 1)

    def test_central_symmetry_allows_shift_roundoff(self, tmp_path, capsys):
        # The worked example scaled by 1e-6 and shifted by 1e6: the audit
        # samples the matrix less its trace shift, an exact translate, so the
        # antipodal mismatch (about 8e-21) is far under the 1e-8 * diameter
        # gate, and verify exits 1 like check, whose verdict reads T nonzero.
        m = 1e-6 * general_example_matrix() + 1e6 * eye(4)
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(raw_doc(m)))
        code = main(["verify", str(path), "--samples", "512"])
        out = capsys.readouterr().out
        assert "[PASS] central symmetry" in out
        assert code == 1
        assert main(["check", str(path), "--samples", "512"]) == 1

    def test_antipodal_support_mismatch_fails(self, tmp_path, capsys, monkeypatch):
        # One support value moved by 1e-6 * diameter breaks h(theta) =
        # h(theta + pi) at one pair, a hundred times the gate, whatever the
        # scale t of the worked example: the gate is relative to the
        # diameter.
        def broken(*args, _fn=verify.audit, **kwargs):
            report = _fn(*args, **kwargs)
            support = report.boundary.support.copy()
            support[100] += 1e-6 * report.diameter
            return dataclasses.replace(
                report, boundary=dataclasses.replace(report.boundary, support=support))

        monkeypatch.setattr(verify, "audit", broken)
        for t in (1.0, 1e-20):
            path = tmp_path / "gen.json"
            path.write_text(json.dumps(raw_doc(t * general_example_matrix())))
            assert main(["verify", str(path), "--samples", "512"]) == 3
            out = capsys.readouterr().out
            assert re.search(r"^\[FAIL\] central symmetry: antipodal mismatch \S+ normal",
                             out, re.MULTILINE)
            assert out.count("[FAIL]") == 1

    @pytest.mark.parametrize("c", [0j, 1e6 + 2e6j], ids=["zero", "scalar"])
    def test_one_point_range_verifies_and_draws(self, c, tmp_path, capsys):
        # The zero matrix and cI: the range is one point and its diameter
        # 0, so no gate has a diameter to scale with.
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(raw_doc(c * eye(4))))
        assert main(["verify", str(path), "--samples", "512"]) == 1
        assert "[FAIL]" not in capsys.readouterr().out
        assert main(["boundary", "--format", "svg", str(path)]) == 0
        box = re.search(r'viewBox="\S+ \S+ (\S+) (\S+)"', capsys.readouterr().out)
        assert [float(x) for x in box.groups()] == [0.1, 0.1]

    @pytest.mark.parametrize("k, t, c", [(0, 1e-5, 1e6), (1, 1e-4, 1e7), (3, 1e-3, 1e8)])
    def test_oracle_gates_blind_to_shift(self, tmp_path, capsys, k, t, c):
        # A random block scaled by t and shifted by c, as a raw document: the
        # oracle gates measure against the norm less the trace shift, so at
        # |c| / t >= 1e10 no direction counts as degenerate and the boundary
        # stays centrally symmetric.
        rng = np.random.default_rng(7)
        bf = [random_block(rng) for _ in range(4)][k]
        m = t * bf.assemble() + c * eye(4)
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(raw_doc(m)))
        code = main(["verify", str(path), "--samples", "512"])
        out = capsys.readouterr().out
        assert "[PASS] central symmetry" in out
        assert code == 1, out

    def test_vectorized_geometry_checks_match_loops(self, gen_file, capsys):
        assert main(["verify", gen_file, "--samples", "512"]) == 0
        out = capsys.readouterr().out
        sym = float(re.search(r"antipodal mismatch (\S+) normal", out).group(1))
        excess = float(re.search(r"worst support excess (\S+)", out).group(1))

        # The per-sample loops the verify checks are defined by.
        bf = forms.detect_block(general_example_matrix())
        boundary = nrcore.boundary_support(bf.assemble(), 512, points=False)
        theta, support = boundary.theta.tolist(), boundary.support.tolist()
        n = len(theta)
        ref_sym = max(
            abs(support[k] - support[k + n // 2]
                - 2 * (cmath.exp(-1j * theta[k]) * bf.shift).real)
            for k in range(n // 2)
        )
        ref_excess = max(
            (cmath.exp(-1j * theta) * (sigma + bf.shift)).real - support
            for sigma in nrcore.spectrum(bf).all_eigenvalues
            for theta, support in zip(boundary.theta.tolist(),
                                      boundary.support.tolist())
        )
        assert sym == pytest.approx(ref_sym, rel=1e-3)
        assert excess == pytest.approx(ref_excess, rel=1e-3)


class TestOracleSafetyNet:
    @pytest.fixture(autouse=True)
    def forced_positive(self, monkeypatch):
        """Zero the criterion value T, so the classifier accepts matrices
        whose range is not bi-elliptical."""
        monkeypatch.setattr(criteria, "criterion_T", lambda sf: 0j)

    @staticmethod
    def forced_doc(tmp_path):
        """The wrong coupling, which the forced classifier accepts."""
        doc = special_doc(fig_left_special())
        doc["b"] = 2.0
        path = tmp_path / "forced.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_one_hull_row_per_document(self, tmp_path, capsys):
        path = self.forced_doc(tmp_path)
        code = main(["verify", path, "--samples", "512"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 3
        hull_fails = [ln for ln in lines if ln.startswith("[FAIL]") and "Hausdorff" in ln]
        assert len(hull_fails) == 1
        # The claimed quadratic factors do not multiply out to the generating
        # polynomial either.
        assert any(ln.startswith("[FAIL] factorization: factorization residual")
                   for ln in lines)

    def test_json_failures_are_failed_consistency_checks(self, tmp_path, capsys):
        path = self.forced_doc(tmp_path)
        code = main(["check", path, "--format", "json", "--samples", "512"])
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        with open(path) as fh:
            bf = cli.parse_matrix_spec(json.load(fh))[1].to_block()
        verdict = criteria.check_general(bf)
        audited = verify.audit(bf, verdict, 512)
        failed = [c.detail for c in audited.checks if not c.passed]
        assert len(failed) >= 2
        assert report["consistency_failures"] == failed
        assert report["factorization_residual"]["total"] > 1e-9
        assert any(msg.startswith("factorization residual") and msg.endswith("exceeds 1e-09")
                   for msg in failed)

    def test_forced_misclassification_exits_3(self, tmp_path, capsys):
        # The forced classifier accepts a matrix whose range is not
        # bi-elliptical; the hull oracle must catch the disagreement and turn
        # it into the internal-failure exit code.
        code = main(["check", self.forced_doc(tmp_path), "--samples", "512"])
        out = capsys.readouterr().out
        assert code == 3
        assert "CONSISTENCY FAILURE" in out


class TestUnstructuredRaw:
    def test_boundary_works_without_block_structure(self, tmp_path, capsys):
        doc = {
            "form": "raw",
            "matrix": [
                [[float(i + 1) if i == j else 0.3, 0.1 * i] for j in range(4)]
                for i in range(4)
            ],
        }
        path = tmp_path / "unstructured.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        capsys.readouterr()
        assert main(["boundary", str(path), "--samples", "64"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 65


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        doc = {"form": "reciprocal", "a1": 1.0, "a2": 1.0, "a3": 1.0}
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(doc))
        proc = run_module("check", str(path))
        assert proc.returncode == 1
        assert "Neither" in proc.stdout
