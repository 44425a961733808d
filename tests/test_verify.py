import cmath
import collections
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from birange.criteria import (
    Ellipse,
    check_general,
    check_special,
    criterion_T,
    ellipse_pair_params,
    reciprocal_classify,
    reducible_margin,
)
from birange import cli, nrcore, verify
from birange.forms import TOL, BlockForm, Frame, ReciprocalForm, SpecialForm, as_block, detect_block
from birange.linalg import CMatrix, eye
from birange.nrcore import Boundary, boundary_support, generating_poly
from birange.verify import (
    EmptyInputError,
    audit,
    commutant_dim,
    compare_boundaries,
    factorization_residual,
    hausdorff,
    hull_boundary,
    hull_support_gap,
)
from helpers import (
    SHORT_OFFSET_SHAPES,
    bi_special_any,
    bi_special_general,
    bi_special_imag,
    bi_special_real_case_i,
    bi_special_real_case_ii,
    bi_special_zero_diagonal_conjugate,
    disguise,
    ellipse_support,
    fig_left_special,
    forge_verdict,
    general_example_block,
    general_example_matrix,
    kron_commutant_system,
    load_bench_module,
    loop_factorization_residual,
    random_block,
    random_special,
    random_unitary2,
    realize,
    reciprocal_two_ellipse,
    transformed,
)


def unit_circle(n=256, radius=1.0, center=0j):
    return [center + radius * cmath.exp(2j * math.pi * k / n) for k in range(n)]


class TestHullBoundary:
    def test_coinciding_circles(self):
        e = Ellipse(center=0j, semi_major=1.0, semi_minor=1.0, tilt=0.0)
        pts = hull_boundary(e, e, 128)
        for p in pts:
            assert abs(abs(p) - 1.0) < 1e-12

    def test_stadium(self):
        e1 = Ellipse(center=1 + 0j, semi_major=1.0, semi_minor=1.0, tilt=0.0)
        e2 = Ellipse(center=-1 + 0j, semi_major=1.0, semi_minor=1.0, tilt=0.0)
        pts = hull_boundary(e1, e2, 512)
        # support function of the stadium: |cos t| + 1
        for k, p in enumerate(pts):
            t = 2 * math.pi * k / 512
            h = (cmath.exp(-1j * t) * p).real
            assert abs(h - (abs(math.cos(t)) + 1.0)) < 1e-12
        assert max(p.imag for p in pts) <= 1.0 + 1e-12

    def test_sample_count_guard(self):
        e = Ellipse(center=0j, semi_major=1.0, semi_minor=1.0, tilt=0.0)
        with pytest.raises(ValueError):
            hull_boundary(e, e, 32)


def sampled_boundary(support, points, n=512):
    """A :class:`Boundary` at n equispaced directions from exact support
    values and boundary points (callables of theta), with unit gaps; its
    matrix is the zero matrix, which no caller reads."""
    theta = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return Boundary(
        np.zeros((4, 4), dtype=complex),
        theta,
        np.array([support(t) for t in theta.tolist()]),
        np.ones(n),
        np.array([points(t) for t in theta.tolist()], dtype=complex),
    )


def circle_boundary(n, radius):
    """Exact boundary-oracle samples of a disc centered at the origin."""
    return sampled_boundary(lambda t: radius, lambda t: radius * cmath.exp(1j * t), n)


def boundary_diameter(boundary):
    pts = boundary.points
    return math.hypot(np.ptp(pts.real), np.ptp(pts.imag))


class TestHullSupportGap:
    def test_identical_ellipse_pair(self):
        e = Ellipse(center=0.3 - 0.2j, semi_major=2.0, semi_minor=0.5, tilt=0.7)
        boundary = sampled_boundary(lambda t: ellipse_support(e, t), e.support_point)
        assert hull_support_gap(e, e, boundary) <= 1e-14

    def test_concentric_circles(self):
        e = Ellipse(center=0j, semi_major=1.0, semi_minor=1.0, tilt=0.0)
        gap = hull_support_gap(e, e, circle_boundary(512, radius=1.1))
        assert abs(gap - 0.1) <= 1e-12

    def test_stadium(self):
        e1 = Ellipse(center=1 + 0j, semi_major=1.0, semi_minor=1.0, tilt=0.0)
        e2 = Ellipse(center=-1 + 0j, semi_major=1.0, semi_minor=1.0, tilt=0.0)
        boundary = sampled_boundary(lambda t: abs(math.cos(t)) + 1.0, lambda t: 0j)
        assert hull_support_gap(e1, e2, boundary) <= 1e-14

    def test_empty_raises(self):
        e = Ellipse(center=0j, semi_major=1.0, semi_minor=1.0, tilt=0.0)
        empty = Boundary(np.zeros((4, 4), dtype=complex),
                         *(np.empty(0) for _ in range(4)))
        with pytest.raises(EmptyInputError):
            hull_support_gap(e, e, empty)


class TestSupportGapAgainstPointCloud:
    """The support-function gap against the point-cloud Hausdorff it
    replaced on the audit path."""

    @staticmethod
    def positives(rng, per_family=3):
        for family in (
            bi_special_real_case_i,
            bi_special_real_case_ii,
            bi_special_imag,
            bi_special_general,
        ):
            for _ in range(per_family):
                bf, _ = disguise(rng, family(rng))
                verdict = check_general(bf)
                assert verdict.bielliptical
                samples = boundary_support(bf.assemble(), 2048)
                yield verdict.ellipses, samples, boundary_diameter(samples)

    @staticmethod
    def point_cloud(e1, e2, samples):
        return compare_boundaries(hull_boundary(e1, e2, len(samples)), samples)

    def test_agree_on_disguised_positives(self, rng):
        for (e1, e2), samples, diam in self.positives(rng):
            gap = hull_support_gap(e1, e2, samples)
            old = self.point_cloud(e1, e2, samples).hausdorff
            assert gap <= 1e-6 * diam
            assert old <= 1e-6 * diam
            assert abs(gap - old) <= 1e-9 * diam

    def test_both_flag_perturbed_ellipse(self, rng):
        for (e1, e2), samples, diam in self.positives(rng, per_family=2):
            moved = dataclasses.replace(e1, center=e1.center + 1e-5 * diam)
            stretched = dataclasses.replace(
                e2, semi_major=e2.semi_major * (1 + 1e-5)
            )
            for pair in ((moved, e2), (e1, stretched)):
                assert hull_support_gap(*pair, samples) > 1e-6 * diam
                assert self.point_cloud(*pair, samples).hausdorff > 1e-6 * diam


class TestHausdorff:
    def test_identical(self):
        pts = unit_circle()
        assert hausdorff(pts, pts) == 0.0

    def test_concentric_circles(self):
        assert abs(hausdorff(unit_circle(512), unit_circle(512, 1.1)) - 0.1) < 1e-3

    def test_translation(self, rng):
        for _ in range(10):
            delta = complex(rng.normal(), rng.normal()) * 0.5
            pts = unit_circle(2048)
            moved = [p + delta for p in pts]
            assert abs(hausdorff(pts, moved) - abs(delta)) <= 2e-3 * max(abs(delta), 1e-9)

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            hausdorff([], [1j])

    def test_symmetry(self, rng):
        a = [complex(x, y) for x, y in rng.normal(size=(40, 2))]
        b = [complex(x, y) for x, y in rng.normal(size=(30, 2))]
        assert hausdorff(a, b) == hausdorff(b, a)


class TestFactorizationResidual:
    def test_first_figure_exact(self):
        sf = fig_left_special()
        res = factorization_residual(sf.to_block(), ellipse_pair_params(sf))
        assert res.total <= 1e-10

    def test_perturbed_z_detected(self):
        sf = fig_left_special()
        params = ellipse_pair_params(sf)
        from birange.criteria import EllipsePairParams

        bad = EllipsePairParams(p=params.p, x=params.x, y=params.y, z=params.z + 1e-3)
        res = factorization_residual(sf.to_block(), bad)
        assert res.total >= 1e-4

    def test_normal_degenerate_factors(self):
        # b = 0: both pencil branches coincide pairwise and the linear
        # coefficient condition still fixes the parameters.
        sf = SpecialForm(u=0.0, v=0.0, b1=1.0 + 0j, b2=0.5j, b=0.0)
        res = factorization_residual(sf.to_block(), ellipse_pair_params(sf))
        # the quadratic part need not vanish (T != 0 here), but the linear
        # coefficient identity is structural
        assert res.linear_max <= 1e-12

    def test_agrees_with_criterion_value(self, rng):
        # residual below 1e-9 exactly when the normalized criterion value is
        # below threshold, over clearly separated samples
        for k in range(200):
            sf = bi_special_any(rng) if k % 2 == 0 else random_special(rng)
            res = factorization_residual(sf.to_block(), ellipse_pair_params(sf))
            t_norm = abs(criterion_T(sf)) / sf.scale() ** 4
            if t_norm <= 1e-12:
                assert res.total <= 1e-9
            elif t_norm >= 1e-6:
                assert res.total > 1e-9

    def test_combination_identity(self, rng):
        # 32[(p^2 sin^2 t + Omega)^2 - xi2] is a fixed trigonometric
        # combination of Re T and Im T.
        for _ in range(100):
            sf = random_special(rng)
            bf = sf.to_block()
            gp = generating_poly(bf)
            params = ellipse_pair_params(sf)
            data = criterion_T(sf)
            bound = 1e-9 * (1 + sf.scale() ** 4)
            for t in np.linspace(0.0, 2 * math.pi, 33):
                s2 = (params.p * math.sin(t)) ** 2
                omega = (
                    params.x * math.cos(2 * t)
                    + params.y * math.sin(2 * t)
                    - params.z
                )
                lhs = 32.0 * ((s2 + omega) ** 2 - gp.xi2(t))
                rhs = (
                    3.0 * data.real
                    - 4.0 * data.real * math.cos(2 * t)
                    - 2.0 * data.imag * math.sin(2 * t)
                    + data.real * math.cos(4 * t)
                    + data.imag * math.sin(4 * t)
                )
                assert abs(lhs - rhs) <= 32.0 * bound

    def test_matches_loop_reference(self, rng):
        # The grid is evaluated as arrays; the scalar loop is the reference.
        for k in range(200):
            sf = bi_special_any(rng) if k % 2 == 0 else random_special(rng)
            params = ellipse_pair_params(sf)
            res = factorization_residual(sf.to_block(), params)
            ref = loop_factorization_residual(sf.to_block(), params)
            got = (res.total, res.linear_max, res.quadratic_max)
            for a, b in zip(got, ref):
                assert abs(a - b) <= 1e-15 * max(abs(b), 1.0)


class TestCommutantDim:
    def test_system_matches_kron(self, rng):
        cases = [general_example_matrix(), np.eye(4)]
        cases += [random_block(rng).assemble() for _ in range(50)]
        for m in cases:
            a = nrcore._as_ndarray(m)
            assert (verify._commutant_system(a).tobytes()
                    == kron_commutant_system(a).tobytes())

    def test_distinct_diagonal(self):
        assert commutant_dim(np.diag([1.0, 2.0, 3.0, 4.0])) == 4

    def test_two_jordan_blocks(self):
        j = np.array([[0.0, 1.0], [0.0, 0.0]])
        m = np.block(
            [[j, np.zeros((2, 2))], [np.zeros((2, 2)), j + np.eye(2)]]
        )
        assert commutant_dim(m) == 2

    def test_worked_example_irreducible(self):
        assert commutant_dim(general_example_matrix()) == 1

    def test_scalar_matrix(self):
        assert commutant_dim(np.eye(4)) == 16

    def test_condition_one_implies_irreducible(self, rng):
        for _ in range(50):
            sf = random_special(rng)
            bf, _ = disguise(rng, sf)
            assert commutant_dim(bf.assemble()) == 1

    def test_direct_sums_reducible(self, rng):
        for _ in range(50):
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = np.block(
                [[x, np.zeros((2, 2))], [np.zeros((2, 2)), y]]
            )
            assert commutant_dim(m) >= 2


class TestHullAgainstOracle:
    def test_first_figure_left(self):
        sf = fig_left_special()
        verdict = check_special(sf)
        samples = boundary_support(sf.to_block().assemble(), 2048)
        hull = hull_boundary(*verdict.ellipses, 2048)
        cmp = compare_boundaries(hull, samples)
        pts = [s.point for s in samples]
        diam = max(p.real for p in pts) - min(p.real for p in pts)
        assert cmp.hausdorff <= 1e-6 * diam

    def test_reciprocal_example(self):
        bf = reciprocal_two_ellipse().to_block()
        verdict = check_general(bf)
        assert verdict.bielliptical
        samples = boundary_support(bf.assemble(), 2048)
        hull = hull_boundary(*verdict.ellipses, 2048)
        cmp = compare_boundaries(hull, samples)
        pts = [s.point for s in samples]
        diam = max(p.real for p in pts) - min(p.real for p in pts)
        assert cmp.hausdorff <= 1e-6 * diam


class TestAudit:
    def test_positive_matches_the_oracles(self):
        bf = reciprocal_two_ellipse().to_block()
        verdict = check_general(bf)
        report = audit(reciprocal_two_ellipse(), verdict, 1024)
        samples = boundary_support(bf.assemble(), 1024, points=False)
        assert report.hull_gap == hull_support_gap(*verdict.ellipses, samples)
        sf = verdict.diagnostics["reduced_form"]
        assert report.factorization == factorization_residual(
            sf.to_block(), ellipse_pair_params(sf)
        )
        assert report.commutant_dim == commutant_dim(bf.assemble())
        assert len(report.flats) == 2
        assert report.failures == []
        assert {c.name for c in report.checks} == {
            "reciprocal agreement", "hull comparison", "flat portions",
            "factorization",
        }

    def test_checks_are_a_derived_tuple(self):
        # The report derives its checks from its fields on first read and
        # keeps them: a tuple, the same on every read.
        for document in (reciprocal_two_ellipse(), general_example_block()):
            report = audit(document, samples=512)
            first = report.checks
            assert isinstance(first, tuple) and first
            assert report.checks is first and report.checks == first
            assert report.failures == [c.detail for c in first if not c.passed]
            assert not hasattr(report, "matrix")
            assert report.boundary.matrix.shape == (4, 4)

    @pytest.mark.parametrize("t", [1.0, 1e-12, 1e-20, 1e-30])
    def test_flat_rows_fail_a_doubled_center_offset(self, t):
        # The worked example scaled by t, its second ellipse moved to double
        # the offset between the centers: each flat portion is half the
        # claimed offset, so both flat rows fail at every scale, their
        # tolerance being relative to that offset.
        base = general_example_block()
        bf = BlockForm(t * base.alpha, t * base.C, t * base.D)
        verdict = check_general(bf)
        assert audit(bf, verdict, 512).failures == []
        e1, e2 = verdict.ellipses
        moved = dataclasses.replace(e2, center=2 * e2.center - e1.center)
        report = audit(bf, dataclasses.replace(verdict, ellipses=(e1, moved)), 512)
        flat_rows = [c.passed for c in report.checks if c.name == "flat portions"]
        assert flat_rows == [False, False]

    def test_reciprocal_disagreement_fails(self):
        # The closed form says BiElliptical; a verdict forged negative
        # disagrees with it and meets no other check.
        rf = reciprocal_two_ellipse()
        report = audit(rf, forge_verdict(check_general(rf.to_block()), "negative"), 512)
        assert report.failures == [
            "reciprocal classification disagrees with the general check"
        ]


class TestAuditLapackBudget:
    """No audit check reads boundary points, so the oracle solves for
    eigenvalues only: one batched ``eigvalsh`` over half the circle."""

    @staticmethod
    def calls(monkeypatch, module, where: str, run, names=("eigh", "eigvalsh"), outside=()):
        """``numpy.linalg`` calls among ``names`` made inside ``module.where``
        but not inside any ``(module, name)`` of ``outside`` while ``run()``
        runs, keyed (name, batch shape), and what ``run()`` returned."""
        counts = collections.Counter()
        depth = [0]
        for name in names:
            def counted(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                if depth[0] > 0:
                    counts[_name, np.shape(a)[:-2]] += 1
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)

        def region(owner, name, step):
            def wrapper(*args, _fn=getattr(owner, name), **kwargs):
                depth[0] += step
                try:
                    return _fn(*args, **kwargs)
                finally:
                    depth[0] -= step
            monkeypatch.setattr(owner, name, wrapper)

        region(module, where, 1)
        for owner, name in outside:
            region(owner, name, -1)
        try:
            return counts, run()
        finally:
            monkeypatch.undo()

    def test_points_only_when_asked(self, monkeypatch, rng):
        # The audit never asks for points: one eigvalsh over half the circle
        # and no eigh inside the oracle.  Asked directly, the oracle solves
        # with eigh; the worked example samples degenerate directions, whose
        # segment ends take one more eigh, and the random blocks sample none.
        cases = [(general_example_block(), 2)]
        cases += [(random_block(rng), 1) for _ in range(10)]
        for bf, eigh_with_points in cases:
            verdict = check_general(bf)
            counts, report = self.calls(monkeypatch, nrcore, "boundary_support",
                                        lambda: audit(bf, verdict, 2048))
            assert counts == {("eigvalsh", (1024,)): 1}
            assert not hasattr(report, "points")
            a = bf.assemble()
            counts, full = self.calls(monkeypatch, nrcore, "boundary_support",
                                      lambda: nrcore.boundary_support(a, 2048))
            by_name = collections.Counter()
            for (name, _), k in counts.items():
                by_name[name] += k
            assert by_name == {"eigh": eigh_with_points}
            assert full.points is not None

    def test_same_report_without_points(self, rng):
        # The points-free audit reports what the sampled points give: the
        # box diagonal (4 divides 2048, so the box's directions are
        # sampled), the flat portions and the commutant.
        for bf in [general_example_block()] + [random_block(rng) for _ in range(10)]:
            verdict = check_general(bf)
            report = audit(bf, verdict, 2048)
            a = bf.assemble()
            full = boundary_support(a, 2048)
            span = np.ptp(full.points.real), np.ptp(full.points.imag)
            assert report.diameter == pytest.approx(math.hypot(*span), rel=1e-12)
            assert len(report.flats) == len(nrcore.flat_portions([full])[0])
            assert report.commutant_dim == commutant_dim(a)
            assert report.failures == []

    def test_verify_checks_one_eigh(self, monkeypatch, rng):
        # One eigh of the pencil check's 16 matrices and no eigvalsh; the
        # closed forms come from one array call of the 16 directions, which
        # the pencil check and the generating polynomial share.  A positive
        # report's checks run the flat oracle on first read, which has its
        # own budget test (test_nrcore.py, TestFlatPortionsLapackBudget).
        shapes = []

        def pencil(bf, theta, _fn=nrcore.pencil_eigs):
            shapes.append(np.shape(theta))
            return _fn(bf, theta)

        for bf in [general_example_block()] + [random_block(rng) for _ in range(5)]:
            verdict = check_general(bf)
            report = audit(bf, verdict, 512)
            shapes.clear()
            # ``calls`` undoes every patch when it returns, so this one is
            # put back each time; it always wraps the real function once.
            monkeypatch.setattr(nrcore, "pencil_eigs", pencil)
            counts, checks = self.calls(
                monkeypatch, verify, "verify_checks",
                lambda: verify.verify_checks(report),
                outside=[(nrcore, "flat_portions")])
            assert counts == {("eigh", (16,)): 1}
            assert shapes == [(16,)]
            assert all(c.passed for c in checks)


class TestDefaultSamples:
    """``nrcore.DEFAULT_SAMPLES`` is the one default resolution behind
    ``check``, ``verify``, ``boundary`` and ``audit``;
    ``tests/test_audit_strength.py`` holds it to 2048 samples' strength."""

    def test_constant(self):
        # The flat oracle runs on the default, and with 4 | n the directions
        # 0, pi/2, pi and 3 pi/2 are sampled, which the audit's bounding
        # box relies on.
        assert nrcore.DEFAULT_SAMPLES >= nrcore.FLAT_MIN_SAMPLES
        assert nrcore.DEFAULT_SAMPLES % 4 == 0

    def test_check_document_default(self, monkeypatch, rng):
        # One LAPACK call of any kind the package makes (eigh, eigvalsh,
        # svd): the batched eigvalsh over half the circle, whose support
        # values also give the bounding box.  The flat-portion oracle, run
        # for a positive verdict only, has its own budget test in
        # test_nrcore.py, TestFlatPortionsLapackBudget.
        half = nrcore.DEFAULT_SAMPLES // 2
        payloads = [general_example_matrix()] + [random_block(rng) for _ in range(3)]
        for payload in payloads:
            counts, report = TestAuditLapackBudget.calls(
                monkeypatch, verify, "audit",
                lambda: verify.audit(payload),
                names=("eigh", "eigvalsh", "svd"), outside=[(nrcore, "flat_portions")])
            assert counts == {("eigvalsh", (half,)): 1}
            assert len(report.boundary.support) == nrcore.DEFAULT_SAMPLES

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_2048_samples_on_the_worked_example(self, command, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(TestCheckDocument.cases()["raw"][1]))
        for samples in ([], ["--samples", "2048"]):
            assert cli.main([command, str(path), *samples]) == 0
            assert "verdict: BiElliptical\n" in capsys.readouterr().out


class TestOracleRuns:
    """The flat-portion and commutant oracles run when a report's ``flats``
    (or ``checks``, which read them for a positive verdict) and
    ``commutant_dim`` are first read, and only then: ``birange verify``
    reads neither on a negative verdict."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Calls of each oracle, looked up where the report looks them up."""
        counts = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(nrcore, "flat_portions",
                            counted("flat_portions", nrcore.flat_portions))
        monkeypatch.setattr(verify, "commutant_dim",
                            counted("commutant_dim", verify.commutant_dim))
        return counts

    def test_negative_verdict_runs_neither(self, runs, rng):
        for bf in [random_block(rng) for _ in range(5)]:
            verdict = check_general(bf)
            assert not verdict.bielliptical
            report = audit(bf, verdict, 512)
            checks = verify.verify_checks(report)
            assert all(c.passed for c in checks)
        assert runs == {}

    def test_too_few_samples_rejected_at_call(self, runs, rng):
        # The flat-portion oracle's sample floor holds even where it never
        # runs.
        bf = random_block(rng)
        with pytest.raises(ValueError, match="flat detection needs"):
            audit(bf, check_general(bf), 256)

    def test_samples_not_divisible_by_4_rejected(self, runs, rng):
        # The bounding box is read off theta = 0, pi/2, pi and 3 pi/2, so
        # every audit samples a multiple of 4 directions.
        bf = random_block(rng)
        for samples in (1026, 2047):
            with pytest.raises(ValueError, match="multiple of 4"):
                audit(bf, check_general(bf), samples)

    def test_each_read_runs_once(self, runs, rng):
        bf = random_block(rng)
        report = audit(bf, check_general(bf), 512)
        first = report.flats, report.commutant_dim
        assert (report.flats, report.commutant_dim) == first
        assert runs == {"flat_portions": 1, "commutant_dim": 1}
        a = bf.assemble()
        fresh = nrcore.flat_portions([boundary_support(a, 512, points=False)])[0]
        assert first == (tuple(fresh), commutant_dim(a))

    def test_positive_verdict_runs_each_once(self, runs):
        bf = general_example_block()
        verdict = check_general(bf)
        assert verdict.bielliptical
        report = audit(bf, verdict, 512)
        assert runs == {}
        checks = verify.verify_checks(report)
        assert all(c.passed for c in checks)
        assert runs == {"flat_portions": 1, "commutant_dim": 1}
        assert report.failures == [] and len(report.flats) == 2
        assert runs == {"flat_portions": 1, "commutant_dim": 1}

    def test_check_report_runs_each_once_per_document(self, runs, monkeypatch, tmp_path,
                                                      capsys):
        # A positive and a negative document: the check report prints both
        # oracles' results for each.  One flat oracle call refines both
        # documents' flats; the commutant runs once per document.
        covered = []

        def flat_portions(boundaries, _fn=nrcore.flat_portions):
            covered.append(len(boundaries))
            return _fn(boundaries)

        monkeypatch.setattr(nrcore, "flat_portions", flat_portions)
        docs = []
        for bf in (general_example_block(), random_block(np.random.default_rng(3))):
            m = bf.assemble()
            docs.append({"form": "raw", "matrix": [
                [[m[i, j].real, m[i, j].imag] for j in range(4)] for i in range(4)]})
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(docs))
        assert cli.main(["check", "--format", "json", str(path), "--samples", "512"]) == 1
        reports = json.loads(capsys.readouterr().out)
        assert [r["verdict"] for r in reports] == ["BiElliptical", "NotBiElliptical"]
        assert runs == {"flat_portions": 1, "commutant_dim": 2}
        assert covered == [2]

    def test_documents_share_one_flat_pass(self, runs):
        # Nothing runs until a report's flats are read; the first read, here
        # of a negative's, refines every document's flats in one call.
        payloads = [general_example_block(), random_block(np.random.default_rng(3)),
                    general_example_matrix()]
        reports = verify.check_documents(payloads, 512)
        assert runs == {}
        assert reports[1].flats == ()
        assert runs == {"flat_portions": 1}
        assert [len(r.flats) for r in reports] == [2, 0, 2]
        assert all(r.failures == [] for r in reports)
        assert runs == {"flat_portions": 1}

    def test_boundary_svg_runs_no_commutant(self, runs, tmp_path):
        # The SVG draws the ellipses, flat portions and eigenvalues: the
        # commutant dimension is never read.
        m = general_example_matrix()
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"form": "raw", "matrix": [
            [[m[i, j].real, m[i, j].imag] for j in range(4)] for i in range(4)]}))
        out = tmp_path / "plot.svg"
        assert cli.main(["boundary", "--format", "svg", str(path),
                         "--output", str(out)]) == 0
        assert runs == {"flat_portions": 1}
        text = out.read_text()
        assert text.count("<ellipse") == 2
        assert text.count("<line") == 2
        assert text.count("<circle") == 4


class TestIrreducibilityBand:
    """Moving a reducible zero-diagonal form by delta * scale off its family
    leaves the commutant's extra singular values at c * delta * scale, c
    from about 0.03 to 3 away from the other family, so no one threshold
    matches the oracle's 1e-9 cut: verify requires dimension 2 at a margin
    up to TOL / 100, 1 beyond 100 * TOL, and accepts either in between."""

    DELTAS = [0.0, 1e-11, 1e-10, 2e-9, 1e-8, 1e-7, 1e-6]

    @staticmethod
    def assert_band(rng, make, moves, delta):
        for k in range(8):
            sf = make(rng)
            step = delta * sf.scale()
            sf = dataclasses.replace(sf, **moves(sf, step)[k % 4])
            assert (reducible_margin(sf) <= TOL) == (delta < 1e-9)
            bf, _ = disguise(rng, sf)
            verdict = check_general(bf)
            report = audit(bf, verdict, 512)
            checks = verify.verify_checks(report)
            assert all(c.passed for c in checks), [c.detail for c in checks]
            row = next(c for c in checks if c.name == "unitary irreducibility")
            if delta == 0.0:
                assert row.detail == ("commutant dimension 2 "
                                      "(reducible zero-diagonal form: 2 expected)")
            elif delta == 1e-6:
                assert row.detail == "commutant dimension 1"

    @pytest.mark.parametrize("delta", DELTAS)
    def test_perturbed_real_case_ii(self, delta):
        def moves(sf, step):  # u, v, Re b1 or Re b2 in turn
            return [{"u": step}, {"v": step}, {"b1": sf.b1 + step}, {"b2": sf.b2 - step}]

        self.assert_band(np.random.default_rng(11), bi_special_real_case_ii, moves, delta)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_perturbed_zero_diagonal_conjugate(self, delta):
        def moves(sf, step):  # u, v, Re b1 or Im b2 in turn
            return [{"u": step}, {"v": step}, {"b1": sf.b1 + step}, {"b2": sf.b2 + 1j * step}]

        self.assert_band(np.random.default_rng(12), bi_special_zero_diagonal_conjugate,
                         moves, delta)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5: next to both reducible families at once the extra "
        "singular value is about their product, not the smaller distance"))
    def test_near_both_families(self):
        # 1.2e-5 * scale from real case (ii) and 1.2e-6 * scale from
        # b2 = -conj(b1): the margin is 1.2e-6, past 100 * TOL, while the
        # commutant's extra singular value is near 6e-11 * scale, under the
        # oracle's 1e-9 cut, so the row reads dimension 2 and fails.
        sf = SpecialForm(u=0.0, v=0.0, b1=3e-5 + 0.3j, b2=-3e-5 + 0.300003j, b=1.1)
        assert reducible_margin(sf) > 100 * TOL
        report = audit(sf.to_block(), check_general(sf.to_block()), 512)
        assert all(c.passed for c in verify.verify_checks(report))


class TestCentralSymmetry:
    def test_transverse_mismatch_fails(self, monkeypatch):
        # Turn the top eigenvector of each Im(e^{-i theta} A0) by 1e-3
        # towards the next one: the eigenvalues, and so the pencil check,
        # stay; the field values at theta + pi / 2 and theta - pi / 2 no
        # longer cancel.
        bf = general_example_block()
        verdict = check_general(bf)
        report = audit(bf, verdict, 512)
        assert verify.verify_checks(report)[0].passed
        eigh = np.linalg.eigh

        def turned(a):
            w, v = eigh(a)
            v = v.copy()
            v[..., 3] = math.cos(1e-3) * v[..., 3] + math.sin(1e-3) * v[..., 2]
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", turned)
        checks = {c.name: c for c in verify.verify_checks(report)}
        sym = checks["central symmetry"]
        assert not sym.passed
        normal, transverse = map(float, re.findall(r"(\S+) (?:normal|transverse)",
                                                   sym.detail))
        assert normal <= 1e-12 < 1e-6 * report.diameter <= transverse
        assert checks["pencil eigenvalues"].passed


class TestShiftFreeAudit:
    """The oracles run on A - cI, c = tr A / 4, which is an exact translate of
    A once |c| exceeds a few times the scale, so a far shift leaves no
    eps |c| rounding in any audited number."""

    @staticmethod
    def shifted_example(r):
        return general_example_matrix() + r * cmath.exp(0.7j) * eye(4)

    def test_far_shifted_worked_example(self):
        # The raw worked example shifted by 1e10 e^{0.7i}: its support values
        # and flat gaps would carry about eps * 1e10 = 2e-6 of rounding.
        m = self.shifted_example(1e10)
        report = verify.audit(m)
        assert report.verdict.bielliptical
        assert report.failures == []
        assert len(report.flats) == 2
        assert report.hull_gap < 1e-12 * report.diameter
        checks = verify.verify_checks(report)
        assert all(c.passed for c in checks)
        normal = float(re.search(r"(\S+) normal", checks[0].detail).group(1))
        assert normal < 1e-12 * report.diameter

    @pytest.mark.parametrize("r", [0.0, 1e9, 1e10])
    def test_forged_ellipses_caught_at_far_shift(self, r):
        # A center moved by 1e-5 * diameter away from the other ellipse, or a
        # semi-major axis grown by as much, moves the hull's support by that
        # much at some direction: ten times the hull gate, at every shift.
        m = self.shifted_example(r)
        verdict = check_general(as_block(m))
        report = audit(m, verdict, 512)
        assert report.failures == []
        e1, e2 = verdict.ellipses
        move = 1e-5 * report.diameter
        away = (e1.center - e2.center) / abs(e1.center - e2.center)
        for forged in (dataclasses.replace(e1, center=e1.center + move * away),
                       dataclasses.replace(e1, semi_major=e1.semi_major + move)):
            report = audit(m, dataclasses.replace(verdict, ellipses=(forged, e2)), 512)
            hull = next(c for c in report.checks if c.name == "hull comparison")
            assert not hull.passed

    def test_far_shifted_bench_positives(self):
        # The first 20 block-form positives of bench seed 101, scaled by
        # 1e-3 and shifted by 1e9 * 1e-3 * e^{0.7i}.
        corpus = load_bench_module("corpus")
        t, shift = 1e-3, 1e6 * cmath.exp(0.7j)
        positives = [i for i in corpus.generate(101, 800)
                     if i["label"] and i["form"] == "block"][:20]
        for inst in positives:
            doc = corpus.document(dict(
                inst, alpha=t * inst["alpha"] + shift, beta=t * inst["beta"] + shift,
                C=[[t * x for x in row] for row in inst["C"]],
                D=[[t * x for x in row] for row in inst["D"]]))
            report = verify.audit(cli.parse_matrix_spec(doc)[1])
            assert report.failures == []

    def test_forged_spectrum_fails_containment_at_far_shift(self, monkeypatch):
        # The worked example shifted by 1e10 e^{0.7i}, one eigenvalue pair
        # pushed 1e-6 * scale past the sampled support: a containment gate
        # that grew with the shift (1e-9 * |shift| = 10 here) would pass it.
        m = self.shifted_example(1e10)
        bf = as_block(m)
        report = verify.audit(m)
        true = nrcore.spectrum(bf)
        theta, cos_sin = nrcore._direction_grid(len(report.boundary.support))
        sigma = true.sigma1 + (bf.shift - report.boundary.origin)
        gap = report.boundary.support - cos_sin @ [sigma.real, sigma.imag]
        k = int(np.argmin(gap))
        forged = dataclasses.replace(true, sigma1=true.sigma1 + cmath.exp(1j * theta[k]) * (
            gap[k] + 1e-6 * bf.scale()))
        monkeypatch.setattr(nrcore, "spectrum", lambda _: forged)
        checks = verify.verify_checks(verify.audit(m))
        row = next(c for c in checks if c.name == "eigenvalue containment")
        assert not row.passed


class TestShortCenterOffset:
    """Real-case-(i) positives whose centers lie +-delta a apart, built by
    ``realize``: at delta = 3e-5 and 1e-5 the coupling b is 7e-6 to 3e-5 of
    the scale, far above the coupling gate's TOL sqrt(tr H), so B is
    non-normal and ``check_general`` agrees with ``check_special`` behind a
    disguise."""

    @staticmethod
    def disguised(sf, rng):
        """``transformed`` at a random t, rotation, shift and block unitaries,
        and the frame that maps sf's plane onto the result's."""
        t, rotation = math.exp(rng.uniform(-0.7, 0.7)), rng.uniform(0.0, math.pi)
        c = complex(*rng.normal(size=2))
        bf = transformed(sf, t, c, rotation, random_unitary2(rng), random_unitary2(rng))
        return bf, Frame(scale=t * cmath.exp(1j * rotation), shift=c)

    @pytest.mark.parametrize("delta", [3e-5, 1e-5])
    @pytest.mark.parametrize("shape", SHORT_OFFSET_SHAPES, ids="rho={0[0]},tau={0[1]}".format)
    def test_positive_behind_a_disguise(self, shape, delta, rng):
        sf = realize(*shape, delta)
        bf, frame = self.disguised(sf, rng)
        verdict = check_general(bf)
        assert verdict.bielliptical
        want = check_special(sf, frame).ellipses
        tol = 1e-10 * (abs(want[0].center - want[1].center) + 2.0 * want[0].semi_major)
        for e in want:
            got = min(verdict.ellipses, key=lambda g: abs(g.center - e.center))
            turn = (got.tilt - e.tilt + math.pi / 2) % math.pi - math.pi / 2
            assert abs(got.center - e.center) <= tol
            assert abs(got.semi_major - e.semi_major) <= tol
            assert abs(got.semi_minor - e.semi_minor) <= tol
            assert abs(turn) * (e.semi_major - e.semi_minor) <= tol
        # Both flat rows pass: each flat matches the center offset.
        report = verify.audit(bf)
        assert report.failures == []
        assert [c.name for c in report.checks].count("flat portions") == 2

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5: at delta = 1e-6 the flats are shorter than the flat "
        "rows resolve, so a correct positive fails them and `check` exits 3"))
    def test_shorter_offset_is_audited(self, rng):
        bf, _ = self.disguised(realize(0.5, 0.3, 1e-6), rng)
        report = verify.audit(bf)
        assert report.verdict.bielliptical
        assert report.failures == []


class TestCheckDocument:
    """``verify.audit`` is the one library call per parsed document
    behind ``check``, ``verify`` and ``boundary --format svg``."""

    @staticmethod
    def cases():
        """(payload, the same matrix as a JSON document) per input form."""
        m, bf = general_example_matrix(), general_example_block()

        def grid(a):
            return [[[a[i, j].real, a[i, j].imag] for j in range(a.n)] for i in range(a.n)]

        readme = {"form": "special", "u": 0.1, "v": 0.0, "b1": [0.6, -0.2],
                  "b2": [0.4, -0.2], "b": 1.0}
        a = 1.0 + math.sqrt(2.0)
        return {
            "raw": (m, {"form": "raw", "matrix": grid(m)}),
            "block": (bf, {"form": "block", "alpha": [(bf.shift + bf.alpha).real,
                                                      (bf.shift + bf.alpha).imag],
                           "beta": [(bf.shift - bf.alpha).real, (bf.shift - bf.alpha).imag],
                           "C": grid(bf.C), "D": grid(bf.D)}),
            "special": (SpecialForm(0.1, 0.0, 0.6 - 0.2j, 0.4 - 0.2j, 1.0), readme),
            "reciprocal": (ReciprocalForm(a, 1.0, a),
                           {"form": "reciprocal", "a1": a, "a2": 1.0, "a3": a}),
            "reciprocal-near-line": (ReciprocalForm(10.0, 1.0001, 10.0),
                                     {"form": "reciprocal", "a1": 10.0, "a2": 1.0001,
                                      "a3": 10.0}),
        }

    @pytest.mark.parametrize("kind", ["raw", "block", "special", "reciprocal",
                                      "reciprocal-near-line"])
    def test_same_answer_as_check_json(self, kind, tmp_path, capsys):
        payload, doc = self.cases()[kind]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["check", "--format", "json", str(path), "--samples", "512"])
        printed = json.loads(capsys.readouterr().out)
        report = verify.audit(payload, samples=512)
        verdict = report.verdict
        assert (verdict.kind, verdict.reason.value if verdict.reason else None,
                report.failures) == (printed["verdict"], printed["reason"],
                                     printed["consistency_failures"])
        assert code == (0 if verdict.bielliptical else 1)
        assert report.block == as_block(payload)
        shape = reciprocal_classify(payload) if kind.startswith("reciprocal") else None
        assert report.reciprocal is shape
        assert all(c.passed for c in verify.verify_checks(report))

    def test_documents_in_one_call(self):
        # Every input form in one check_documents call, with a raw matrix
        # lacking scalar blocks in the middle: each report is what
        # audit gives that document alone.
        m = CMatrix([[complex(i + 1 if i == j else 0.3, 0.1 * i) for j in range(4)]
                     for i in range(4)])
        payloads = [payload for payload, _ in self.cases().values()]
        payloads.insert(2, m)
        reports = verify.check_documents(payloads, 512)
        assert len(reports) == len(payloads) and reports[2] is None
        for payload, report in zip(payloads, reports):
            if report is None:
                continue
            alone = verify.audit(payload, samples=512)
            assert report.verdict == alone.verdict
            assert report.failures == alone.failures
            assert report.commutant_dim == alone.commutant_dim
            norm = float(np.linalg.norm(report.boundary.matrix))
            assert len(report.flats) == len(alone.flats)
            for f, g in zip(report.flats, alone.flats):
                assert max(abs(p - q) for p, q in zip(f.endpoints, g.endpoints)) <= 1e-12 * norm
                assert abs(f.length - g.length) <= 1e-12 * norm
        assert verify.check_documents([], 512) == []

    def test_raw_matrix_without_scalar_blocks(self):
        m = CMatrix([[complex(i + 1 if i == j else 0.3, 0.1 * i) for j in range(4)]
                     for i in range(4)])
        assert detect_block(m) is None
        assert verify.audit(m) is None

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5: a positive whose ellipses fall under the 1e-13 * "
        "scale^2 roundoff guard is reported without ellipses and audited by "
        "no hull or flat check"))
    def test_positive_with_degenerate_ellipses_is_audited(self):
        # Real case (ii) at b = 1e-6: z - r = 2.47e-13 is under the guard's
        # 4.68e-13, so the verdict says "ellipse degenerates into the
        # doubleton of its foci" and `check` exits 0 on it unaudited.
        report = verify.audit(SpecialForm(0.0, 0.0, 0.5j, -0.3j, 1e-6), samples=512)
        assert report.verdict.bielliptical
        assert report.hull_gap is not None


class TestOneAuditEntry:
    """``audit(document)`` works out the block form, the verdict, the sampled
    matrix and the reciprocal shape from the document alone, as a
    ``check_documents`` call does."""

    @staticmethod
    def documents():
        no_blocks = CMatrix([[complex(i + 1 if i == j else 0.3, 0.1 * i) for j in range(4)]
                             for i in range(4)])
        return {
            "raw": general_example_matrix(),
            "raw-negative": random_block(np.random.default_rng(3)).assemble(),
            "block": general_example_block(),
            "special": SpecialForm(0.1, 0.0, 0.6 - 0.2j, 0.4 - 0.2j, 1.0),
            "reciprocal": reciprocal_two_ellipse(),
            "reciprocal-near-line": dataclasses.replace(reciprocal_two_ellipse(), a2=1.0001),
            "raw-without-blocks": no_blocks,
        }

    @pytest.mark.parametrize("kind", ["raw", "raw-negative", "block", "special", "reciprocal",
                                      "reciprocal-near-line", "raw-without-blocks"])
    def test_same_report_as_check_documents(self, kind):
        document = self.documents()[kind]
        report, (batch,) = audit(document), verify.check_documents([document])
        if kind == "raw-without-blocks":
            assert report is None and batch is None
            return
        for name in ("verdict", "reciprocal", "eigenvalues", "diameter", "hull_gap",
                     "factorization", "failures", "flats", "commutant_dim"):
            assert getattr(report, name) == getattr(batch, name), name
        assert np.array_equal(report.boundary.support, batch.boundary.support)
        assert np.array_equal(report.boundary.matrix, batch.boundary.matrix)
        # The default verdict is check_general's: passing it changes nothing.
        assert audit(document, report.verdict).failures == report.failures

    def test_raw_document_is_sampled_as_given(self):
        # Off-block entries moved by 1e-12 of the scale stay inside
        # detect_block's tolerance, so the document has a block form, but
        # that form's assembled matrix has zeros there; the audit samples
        # the document itself, less a quarter of its trace.
        m = general_example_matrix()
        a = np.asarray(m.rows, dtype=complex)
        step = 1e-12 * nrcore._oracle_scale(a)
        for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
            a[i, j] += step
        raw = CMatrix(a.tolist())
        assert detect_block(raw) is not None
        report = audit(raw)
        assert np.array_equal(report.boundary.matrix,
                              a - complex(np.trace(a)) / 4 * np.eye(4))
        b = np.asarray(report.block.assemble().rows, dtype=complex)
        assert not np.array_equal(report.boundary.matrix,
                                  b - complex(np.trace(b)) / 4 * np.eye(4))
