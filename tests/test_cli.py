import cmath
import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import pytest

import numpy as np

from birange import cli, criteria, nrcore, verify
from birange.cli import main
from birange.linalg import eye
from helpers import (
    bi_special_real_case_ii,
    disguise,
    fig_left_special,
    general_example_matrix,
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
        assert f"{5 * math.sqrt(2):.9g}"[:8] in out
        assert f"{20 * math.sqrt(29):.9g}"[:8] in out
        assert "58" in out

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
        p2.write_text(json.dumps(raw_doc(sf.assemble())))

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

    def test_unstructured_raw_rejected(self, tmp_path, capsys):
        doc = {
            "form": "raw",
            "matrix": [[[float(i == j) * (i + 1), 0.5] for j in range(4)] for i in range(4)],
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

    def test_json_report_hull_contract(self, gen_file, capsys):
        assert main(["check", gen_file, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hull_hausdorff"] <= 1e-6 * report["diameter"]
        assert "hull_max_pointwise" not in report
        assert report["consistency_failures"] == []
        assert report["factorization_residual"]["total"] <= 1e-9
        assert not any(k.startswith("special_fact") for k in report["diagnostics"])

    def test_too_few_samples_is_usage_error(self, gen_file, capsys):
        assert main(["check", gen_file, "--samples", "256"]) == 2
        assert "--samples" in capsys.readouterr().err


def run_module(*args):
    """``python -m birange.cli`` with the package this suite imports on the
    child's path, whether it came from PYTHONPATH or pytest's pythonpath."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "birange.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


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

    def test_uncaught_exception_exits_3(self, gen_file, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("oracle exploded")

        monkeypatch.setattr(nrcore, "boundary_support", broken)
        assert main(["check", gen_file]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: internal failure: RuntimeError")


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
        row = lines[1].split(",")
        assert len(row) == 5
        float(row[0])

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

    def test_central_symmetry_allows_shift_roundoff(self, tmp_path, capsys):
        # The worked example scaled by 1e-6 and shifted by 1e6: the oracle's
        # antipodal mismatch is a few eps * |shift|, which the gate admits,
        # so verify exits 1 like check.
        m = 1e-6 * general_example_matrix() + 1e6 * eye(4)
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(raw_doc(m)))
        code = main(["verify", str(path), "--samples", "512"])
        out = capsys.readouterr().out
        assert "[PASS] central symmetry" in out
        assert code == 1
        assert main(["check", str(path), "--samples", "512"]) == 1

    def test_vectorized_geometry_checks_match_loops(self, gen_file, capsys):
        assert main(["verify", gen_file, "--samples", "512"]) == 0
        out = capsys.readouterr().out
        sym = float(re.search(r"antipodal mismatch (\S+)", out).group(1))
        excess = float(re.search(r"worst support excess (\S+)", out).group(1))

        # The per-sample loops the verify checks are defined by.
        bf = cli.detect_block_structure(general_example_matrix())
        samples = nrcore.boundary_support(bf.assemble(), 512)
        n = len(samples)
        ref_sym = max(
            abs((samples[k].point - bf.shift)
                + (samples[(k + n // 2) % n].point - bf.shift))
            for k in range(n // 2)
        )
        ref_excess = max(
            (cmath.exp(-1j * s.theta) * (sigma + bf.shift)).real
            - s.support_value
            for sigma in nrcore.spectrum(bf).all_eigenvalues
            for s in samples
        )
        assert sym == pytest.approx(ref_sym, rel=1e-3)
        assert excess == pytest.approx(ref_excess, rel=1e-3)


class TestOracleSafetyNet:
    @pytest.fixture(autouse=True)
    def forced_positive(self, monkeypatch):
        """Zero the criterion value T and the determinant-identity residual,
        so the classifier accepts matrices whose range is not bi-elliptical."""
        criterion_t = criteria.criterion_T
        pair_residual = criteria._pair_residual
        monkeypatch.setattr(
            criteria, "criterion_T",
            lambda sf: dataclasses.replace(criterion_t(sf), reT=0.0, imT=0.0),
        )
        monkeypatch.setattr(
            criteria, "_pair_residual", lambda *a: (0.0, pair_residual(*a)[1])
        )

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
