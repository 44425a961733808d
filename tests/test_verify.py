import cmath
import dataclasses
import math

import numpy as np
import pytest

from birange.criteria import (
    Ellipse,
    Reason,
    ReciprocalShape,
    Verdict,
    check_general,
    check_special,
    criterion_T,
    ellipse_pair_params,
)
from birange.forms import SpecialForm, from_reciprocal
from birange.linalg import CMatrix
from birange.nrcore import BoundarySample, boundary_support, generating_poly
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
    bi_special_any,
    bi_special_general,
    bi_special_imag,
    bi_special_real_case_i,
    bi_special_real_case_ii,
    disguise,
    fig_left_special,
    general_example_matrix,
    random_special,
    reciprocal_two_ellipse,
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


def circle_samples(n, radius):
    """Exact boundary-oracle samples of a disc centered at the origin."""
    return [
        BoundarySample(t, radius * cmath.exp(1j * t), radius, 1.0)
        for t in np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    ]


def boundary_diameter(samples):
    pts = np.array([s.point for s in samples])
    return math.hypot(np.ptp(pts.real), np.ptp(pts.imag))


class TestHullSupportGap:
    def test_identical_ellipse_pair(self):
        e = Ellipse(center=0.3 - 0.2j, semi_major=2.0, semi_minor=0.5, tilt=0.7)
        samples = []
        for k in range(512):
            t = 2 * math.pi * k / 512
            samples.append(
                BoundarySample(t, e.support_point(t), e.support(t), 1.0)
            )
        assert hull_support_gap(e, e, samples) <= 1e-14

    def test_concentric_circles(self):
        e = Ellipse(center=0j, semi_major=1.0, semi_minor=1.0, tilt=0.0)
        gap = hull_support_gap(e, e, circle_samples(512, radius=1.1))
        assert abs(gap - 0.1) <= 1e-12

    def test_stadium(self):
        e1 = Ellipse(center=1 + 0j, semi_major=1.0, semi_minor=1.0, tilt=0.0)
        e2 = Ellipse(center=-1 + 0j, semi_major=1.0, semi_minor=1.0, tilt=0.0)
        samples = [
            BoundarySample(t, 0j, abs(math.cos(t)) + 1.0, 1.0)
            for t in np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
        ]
        assert hull_support_gap(e1, e2, samples) <= 1e-14

    def test_empty_raises(self):
        e = Ellipse(center=0j, semi_major=1.0, semi_minor=1.0, tilt=0.0)
        with pytest.raises(EmptyInputError):
            hull_support_gap(e, e, [])


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
            t_norm = abs(criterion_T(sf).T) / sf.scale() ** 4
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
                    3.0 * data.reT
                    - 4.0 * data.reT * math.cos(2 * t)
                    - 2.0 * data.imT * math.sin(2 * t)
                    + data.reT * math.cos(4 * t)
                    + data.imT * math.sin(4 * t)
                )
                assert abs(lhs - rhs) <= 32.0 * bound

    def test_grid_guard(self):
        sf = fig_left_special()
        with pytest.raises(ValueError):
            factorization_residual(sf.to_block(), ellipse_pair_params(sf), grid=8)


class TestCommutantDim:
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
        samples = boundary_support(sf.assemble(), 2048)
        hull = hull_boundary(*verdict.ellipses, 2048)
        cmp = compare_boundaries(hull, samples)
        pts = [s.point for s in samples]
        diam = max(p.real for p in pts) - min(p.real for p in pts)
        assert cmp.hausdorff <= 1e-6 * diam

    def test_reciprocal_example(self):
        bf = from_reciprocal(reciprocal_two_ellipse())
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
        bf = from_reciprocal(reciprocal_two_ellipse())
        verdict = check_general(bf)
        report = audit(bf, verdict, 1024, reciprocal=ReciprocalShape.BI_ELLIPTICAL)
        samples = boundary_support(bf.assemble(), 1024)
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
            "factorization", "criterion/reduction agreement",
        }

    def test_reciprocal_disagreement_fails(self):
        bf = from_reciprocal(reciprocal_two_ellipse())
        report = audit(bf, check_general(bf), 512, reciprocal=ReciprocalShape.NEITHER)
        assert report.failures == [
            "reciprocal classification disagrees with the general check"
        ]

    def test_criterion_reduction_mismatch_fails(self):
        # check_general flags a mismatch on a negative verdict, so the audit
        # must look at it for negatives too.
        bf = from_reciprocal(reciprocal_two_ellipse())
        verdict = Verdict(False, Reason.T_NONZERO, None, {"mismatch": True})
        report = audit(bf, verdict, 512)
        assert report.hull_gap is None and report.factorization is None
        assert report.failures == ["criterion/reduction verdict mismatch"]
