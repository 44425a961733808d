import cmath
import dataclasses
import math

import numpy as np
import pytest

from birange import criteria
from birange.criteria import (
    AlphaZeroError,
    DegenerateEllipseError,
    EllipsePairParams,
    NotImagAlphaError,
    NotRealAlphaError,
    Reason,
    ReciprocalShape,
    check_general,
    check_imag,
    check_real,
    check_special,
    criterion_T,
    ellipse_geometry,
    ellipse_pair_params,
    find_theta,
    reciprocal_classify,
    solve_b,
)
from birange.forms import BlockForm, ReciprocalForm, SpecialForm, from_reciprocal
from birange.linalg import CMatrix, zeros
from birange.nrcore import pencil_eigs, spectrum
from helpers import (
    bi_special_any,
    bi_special_general,
    bi_special_imag,
    bi_special_real_case_i,
    bi_special_real_case_ii,
    disguise,
    fig_left_special,
    fig_right_special,
    fit_conic_ellipse,
    general_example_block,
    random_block,
    random_cmat,
    random_special,
    reciprocal_two_ellipse,
    tangent_envelope_points,
)


class TestCriterionT:
    def test_first_figure_left(self):
        data = criterion_T(fig_left_special())
        assert abs(data.p - 0.5) < 1e-15
        # 9/25 - 1/25 - 8/25 = 0
        assert abs(data.reT) < 1e-14
        assert abs(data.imT) < 1e-14

    def test_first_figure_right(self):
        data = criterion_T(fig_right_special())
        assert abs(data.p - 0.5) < 1e-15
        # 0.25 - 0.25 and 0.028 - 0.028
        assert abs(data.reT) < 1e-14
        assert abs(data.imT) < 1e-14

    def test_normal_degenerate_case(self):
        # b = 0 with zero entries: T vanishes but the matrix data is normal,
        # so classification must still reject it.
        sf = SpecialForm(u=1.0, v=0.0, b1=0j, b2=0j, b=0.0)
        data = criterion_T(sf)
        assert abs(data.p) < 1e-15
        assert abs(data.T) < 1e-13
        verdict = check_special(sf)
        assert not verdict.bielliptical
        assert verdict.reason is Reason.B_NORMAL

    def test_entrywise_matches_trace_level(self, rng):
        for _ in range(300):
            sf = random_special(rng)
            data = criterion_T(sf)
            assert data.cross_residual <= 1e-10 * (1 + sf.scale() ** 4)


class TestCheckSpecial:
    def test_first_figure_verdicts(self):
        for sf in (fig_left_special(), fig_right_special()):
            verdict = check_special(sf)
            assert verdict.bielliptical
            assert verdict.ellipses is not None
            e1, e2 = verdict.ellipses
            assert abs(e1.center - 0.5) < 1e-10
            assert abs(e2.center + 0.5) < 1e-10

    def test_normal_rejected(self, rng):
        sf = random_special(rng)
        normal = SpecialForm(u=sf.u, v=sf.v, b1=sf.b1, b2=sf.b2, b=0.0)
        verdict = check_special(normal)
        assert verdict.reason is Reason.B_NORMAL

    def test_wrong_coupling_rejected(self):
        sf = SpecialForm(u=0.1, v=0.0, b1=(3 - 1j) / 5, b2=(2 - 1j) / 5, b=2.0)
        verdict = check_special(sf)
        assert verdict.reason is Reason.T_NONZERO

    def test_centers_match_eigenvalue_pair_sum(self, rng):
        for _ in range(20):
            sf = bi_special_any(rng)
            verdict = check_special(sf)
            assert verdict.bielliptical
            combo = verdict.diagnostics["sigma_combo"]
            e1, e2 = verdict.ellipses
            centers = sorted((e1.center, e2.center), key=lambda z: z.real)
            want = sorted((combo / 2, -combo / 2), key=lambda z: z.real)
            for c, w in zip(centers, want):
                assert abs(c - w) <= 1e-8 * (1 + abs(w))

    def test_direct_spread_identity_agrees(self, rng):
        # T = 0 must coincide with the pre-squared identity; the residual is
        # recorded for every positive verdict.
        for _ in range(20):
            sf = bi_special_any(rng)
            verdict = check_special(sf)
            assert verdict.diagnostics["spread_residual"] <= 1e-9


class TestCheckRealAndImag:
    def test_first_figure_left_case_i(self):
        verdict = check_real(fig_left_special())
        assert verdict.bielliptical
        assert verdict.diagnostics["case"] == "i"

    def test_case_ii_construction(self):
        sf = SpecialForm(u=0.0, v=0.0, b1=0.5j, b2=-1j / 3, b=1.0)
        verdict = check_real(sf)
        assert verdict.bielliptical
        assert verdict.diagnostics["case"] == "ii"

    def test_zero_diagonal_matched_moduli(self, rng):
        # Zero diagonal parameter: equal imaginary parts plus equal moduli
        # suffice for every nonzero coupling.
        for _ in range(20):
            eta = float(rng.normal())
            xi = abs(float(rng.normal())) + 0.3
            sf = SpecialForm(
                u=0.0, v=0.0,
                b1=complex(xi, eta), b2=complex(-xi, eta),
                b=abs(float(rng.normal())) + 0.1,
            )
            assert check_real(sf).bielliptical

    def test_real_requires_real_alpha(self):
        with pytest.raises(NotRealAlphaError):
            check_real(fig_right_special())

    def test_first_figure_right(self):
        verdict = check_imag(fig_right_special())
        assert verdict.bielliptical

    def test_imag_rejects_modulus_mismatch(self):
        sf = SpecialForm(u=0.0, v=0.1, b1=(3 + 4j) / 10, b2=(4 + 3j) / 20, b=1.0)
        assert check_imag(sf).reason is Reason.T_NONZERO

    def test_imag_rejects_coupling_mismatch(self):
        sf = SpecialForm(u=0.0, v=0.1, b1=(3 + 4j) / 10, b2=(4 + 3j) / 10, b=2.0)
        assert check_imag(sf).reason is Reason.T_NONZERO

    def test_imag_requires_imag_alpha(self):
        with pytest.raises(NotImagAlphaError):
            check_imag(fig_left_special())
        with pytest.raises(NotImagAlphaError):
            check_imag(SpecialForm(u=0.0, v=0.0, b1=1j, b2=-1j, b=1.0))

    def test_specialization_agreement_smoke(self, rng):
        for k in range(400):
            if k % 4 == 0:
                sf = bi_special_real_case_i(rng)
            elif k % 4 == 1:
                sf = bi_special_real_case_ii(rng)
            else:
                sf = random_special(rng, v_zero=True)
            assert check_real(sf).bielliptical == check_special(sf).bielliptical
        for k in range(400):
            sf = bi_special_imag(rng) if k % 3 == 0 else random_special(rng, u_zero=True)
            assert check_imag(sf).bielliptical == check_special(sf).bielliptical


class TestSolveB:
    def test_first_figure_left(self):
        b = solve_b(0.1, 0.0, (3 - 1j) / 5, (2 - 1j) / 5)
        assert b is not None and abs(b - 1.0) < 1e-12

    def test_first_figure_right(self):
        b = solve_b(0.0, 0.1, (3 + 4j) / 10, (4 + 3j) / 10)
        assert b is not None and abs(b - 1.0) < 1e-12

    def test_degenerate_real_case_returns_none(self):
        assert solve_b(1.0, 0.0, 0.5 + 0j, 0.5 + 0j) is None

    def test_eta_mismatch_returns_none(self):
        assert solve_b(0.7, 0.0, 0.5 + 0.3j, 0.2 - 0.1j) is None

    def test_alpha_zero_raises(self):
        with pytest.raises(AlphaZeroError):
            solve_b(0.0, 0.0, 1 + 1j, 1 - 1j)

    def test_general_alpha_root_is_bielliptical(self, rng):
        for _ in range(30):
            sf = bi_special_general(rng)
            b = solve_b(sf.u, sf.v, sf.b1, sf.b2)
            assert b is not None
            assert abs(b - sf.b) <= 1e-9 * (1 + sf.b)

    def test_generic_complex_alpha_none(self, rng):
        # With generic entries Im T has no root, so no coupling works.
        for _ in range(50):
            b1 = complex(rng.normal(), rng.normal())
            b2 = complex(rng.normal(), rng.normal())
            out = solve_b(0.8, 1.3, b1, b2)
            if out is not None:
                sf = SpecialForm(u=0.8, v=1.3, b1=b1, b2=b2, b=out)
                assert check_special(sf).bielliptical


class TestFindTheta:
    def test_direction_in_half_open_interval(self):
        # Real-case examples have their direction at 0 mod pi, where a tiny
        # negative search result must not wrap onto pi itself.
        for bf in (fig_left_special().to_block(), fig_right_special().to_block(),
                   from_reciprocal(reciprocal_two_ellipse())):
            found = find_theta(bf)
            assert 0.0 <= found.theta < math.pi

    def test_worked_example(self):
        found = find_theta(general_example_block())
        assert found is not None
        assert abs(found.theta - 3 * math.pi / 4) <= 1e-10
        assert abs(found.mu - 200.0) <= 1e-7
        assert found.extra_thetas == ()

    def test_shifted_adjoint_structure(self, rng):
        d = random_cmat(rng)
        c = d.H + 2.0 * CMatrix(((1, 0), (0, 1)))
        bf = BlockForm(alpha=0.2 + 0.1j, C=c, D=d)
        found = find_theta(bf)
        assert found is not None
        assert min(found.theta, math.pi - found.theta) <= 1e-11
        assert abs(found.mu - 4.0) <= 1e-9

    def test_generic_block_has_none(self, rng):
        misses = 0
        for _ in range(50):
            if find_theta(random_block(rng)) is None:
                misses += 1
        assert misses == 50

    def test_disguised_special_found(self, rng):
        for _ in range(50):
            sf = random_special(rng)
            bf, theta0 = disguise(rng, sf)
            found = find_theta(bf)
            assert found is not None
            dist = abs((found.theta - theta0 + math.pi / 2) % math.pi - math.pi / 2)
            assert dist <= 1e-9
            assert found.extra_thetas == ()


class TestDeterminantIdentityAtSizeTwo:
    """check_general's 2x2 closed forms against LAPACK on the 4x4 matrix."""

    @staticmethod
    def cases(rng, count=100):
        for _ in range(count):
            bf = random_block(rng, scale=10.0 ** rng.uniform(-3.0, 3.0))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            a = np.array(bf.normalized_matrix().rows)
            yield bf, theta, a, bf.scale()

    def test_im_square_pairs_match_eigvalsh(self, rng):
        for bf, theta, a, scale in self.cases(rng):
            rot2 = np.exp(-2j * theta) * (a @ a)
            ref = np.linalg.eigvalsh((rot2 - rot2.conj().T) / 2j)
            got = criteria._im_square_eigenvalues(bf, theta)
            assert np.max(np.abs(np.array(got) - ref)) <= 1e-13 * scale**2

    def test_sqrt_det_is_pencil_product(self, rng):
        for bf, theta, a, scale in self.cases(rng):
            rot = np.exp(-1j * theta) * a
            det = np.linalg.det((rot - rot.conj().T) / 2j).real
            lam1, lam2 = pencil_eigs(bf, theta)
            assert abs(lam1 * lam2 - math.sqrt(det)) <= 1e-12 * scale**2


class TestCheckGeneral:
    def test_verdict_is_frozen(self):
        verdict = check_general(general_example_block())
        with pytest.raises(dataclasses.FrozenInstanceError):
            verdict.bielliptical = False

    def test_worked_example_values(self):
        verdict = check_general(general_example_block())
        assert verdict.bielliptical
        d = verdict.diagnostics
        assert abs(d["theta"] - 3 * math.pi / 4) <= 1e-10
        assert abs(abs(d["sigma_sum_theta"]) - 5 * math.sqrt(2)) <= 1e-9 * 5 * math.sqrt(2)
        assert abs(d["s_diff"] - 20 * math.sqrt(29)) <= 1e-9 * 20 * math.sqrt(29)
        assert abs(d["sqrt_det_im"] - 58.0) <= 1e-9 * 58.0
        assert abs(d["gen_lhs"] - 11600.0) <= 1e-9 * 11600.0
        assert abs(d["gen_rhs"] - 11600.0) <= 1e-9 * 11600.0

    def test_embedded_first_figure(self):
        for sf in (fig_left_special(), fig_right_special()):
            verdict = check_general(sf.to_block())
            assert verdict.bielliptical
            assert abs(verdict.diagnostics["theta"]) <= 1e-9 or \
                abs(verdict.diagnostics["theta"] - math.pi) <= 1e-9
            assert abs(verdict.diagnostics["sqrt_det_im"] - (1 + sf.v**2)) <= 1e-9

    def test_zero_multiple_rejected(self, rng):
        theta0 = 1.1
        d = random_cmat(rng)
        c = cmath.exp(2j * theta0) * d.H
        bf = BlockForm(alpha=0.4 + 0.2j, C=c, D=d)
        verdict = check_general(bf)
        assert not verdict.bielliptical
        assert verdict.reason is Reason.PRODUCT_NORMAL

    def test_generic_rejected_no_theta(self, rng):
        verdict = check_general(random_block(rng))
        assert verdict.reason is Reason.NO_THETA

    def test_normal_b_rejected_product_normal(self, rng):
        sf = SpecialForm(u=0.3, v=0.4, b1=1.2 + 0.1j, b2=-0.5 + 0.8j, b=0.0)
        bf, _ = disguise(rng, sf)
        verdict = check_general(bf)
        assert not verdict.bielliptical
        assert verdict.reason is Reason.PRODUCT_NORMAL

    def test_matches_preimage_smoke(self, rng):
        for k in range(200):
            sf = bi_special_any(rng) if k % 4 == 0 else random_special(rng)
            bf, _ = disguise(rng, sf)
            want = check_special(sf).bielliptical
            got = check_general(bf)
            assert got.bielliptical == want
            if got.bielliptical:
                assert not got.diagnostics.get("mismatch", False)

    def test_ellipses_transform_with_frame(self, rng):
        sf = bi_special_any(rng)
        base = check_special(sf)
        rot = 0.77
        w = cmath.exp(1j * rot)
        shift = 1.5 - 0.25j
        bf_rot = BlockForm(
            alpha=w * sf.alpha,
            C=w * sf.to_block().C,
            D=w * sf.to_block().D,
            shift=shift,
        )
        moved = check_general(bf_rot)
        assert moved.bielliptical
        base_centers = sorted(
            (e.center for e in base.ellipses), key=lambda z: (z.real, z.imag)
        )
        got_centers = sorted(
            ((e.center - shift) / w for e in moved.ellipses),
            key=lambda z: (z.real, z.imag),
        )
        for b, g in zip(base_centers, got_centers):
            assert abs(b - g) <= 1e-8 * (1 + abs(b))
        for be, ge in zip(base.ellipses, moved.ellipses):
            assert abs(be.semi_major - ge.semi_major) <= 1e-8 * (1 + be.semi_major)
            assert abs(be.semi_minor - ge.semi_minor) <= 1e-8 * (1 + be.semi_minor)


class TestReciprocalClassify:
    def test_two_ellipse_example(self):
        assert reciprocal_classify(reciprocal_two_ellipse()) is ReciprocalShape.BI_ELLIPTICAL

    def test_all_ones_neither(self):
        assert reciprocal_classify(ReciprocalForm(1, 1, 1)) is ReciprocalShape.NEITHER

    def test_golden_line_elliptical(self):
        # A1 = 2, A3 = 1 on the golden-ratio line.
        a_from = lambda big: math.sqrt(big + math.sqrt(big * big - 1.0))
        a2_val = (1 + math.sqrt(5)) / 2 * 2 + (1 - math.sqrt(5)) / 2 * 1
        rec = ReciprocalForm(a_from(2.0), a_from(a2_val), 1.0)
        assert reciprocal_classify(rec) is ReciprocalShape.ELLIPTICAL

    def test_agrees_with_general_check(self, rng):
        for _ in range(40):
            rec = ReciprocalForm(*np.exp(rng.uniform(-0.8, 0.8, size=3)))
            shape = reciprocal_classify(rec)
            verdict = check_general(from_reciprocal(rec))
            assert (shape is ReciprocalShape.BI_ELLIPTICAL) == verdict.bielliptical
        # and on the positive family
        for _ in range(20):
            a = math.exp(float(rng.uniform(0.1, 0.8)))
            rec = ReciprocalForm(a, 1.0, a)
            assert reciprocal_classify(rec) is ReciprocalShape.BI_ELLIPTICAL
            assert check_general(from_reciprocal(rec)).bielliptical


class TestEllipseGeometry:
    def test_circle_case(self):
        params = EllipsePairParams(p=0.3, x=0.0, y=0.0, z=2.0)
        e1, e2 = ellipse_geometry(params)
        r = math.sqrt(2.0)
        assert abs(e1.semi_major - r) < 1e-14
        assert abs(e1.semi_minor - r) < 1e-14
        assert e1.center == 0.3 + 0j and e2.center == -0.3 + 0j

    def test_degenerate_flagged(self):
        params = EllipsePairParams(p=0.5, x=0.6, y=0.8, z=1.0)
        with pytest.raises(DegenerateEllipseError) as err:
            ellipse_geometry(params)
        assert err.value.foci is not None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DegenerateEllipseError):
            ellipse_geometry(EllipsePairParams(p=0.1, x=3.0, y=4.0, z=1.0))

    def test_closed_form_matches_envelope_fit(self, rng):
        # The tilt/axis formulas must agree with the tangent-line envelope
        # through a conic fit to 1e-8.
        for _ in range(100):
            x, y = (float(t) for t in rng.normal(size=2))
            r = math.hypot(x, y)
            z = r + abs(float(rng.normal())) + 0.05
            p = abs(float(rng.normal()))
            params = EllipsePairParams(p=p, x=x, y=y, z=z)
            e1, _ = ellipse_geometry(params)
            fit = fit_conic_ellipse(tangent_envelope_points(params, n=96))
            assert abs(fit.center - e1.center) <= 1e-8 * (1 + abs(e1.center))
            assert abs(fit.semi_major - e1.semi_major) <= 1e-8 * (1 + e1.semi_major)
            assert abs(fit.semi_minor - e1.semi_minor) <= 1e-8 * (1 + e1.semi_minor)
            if e1.semi_major - e1.semi_minor > 1e-4:
                d = abs((fit.tilt - e1.tilt + math.pi / 2) % math.pi - math.pi / 2)
                assert d <= 1e-7

    def test_tangent_line_law(self, rng):
        # max over the ellipse of Im(e^{-i t} w) equals the tangent height
        # -p sin t + sqrt(z - x cos 2t - y sin 2t).
        params = EllipsePairParams(p=0.7, x=0.3, y=-0.4, z=1.2)
        e1, _ = ellipse_geometry(params)
        for t in np.linspace(0.0, 2 * math.pi, 37):
            # Im(e^{-it} w) = Re(e^{-i(t + pi/2)} w), so the maximizer is
            # the support point for direction t + pi/2
            w = e1.support_point(t + math.pi / 2)
            lhs = (cmath.exp(-1j * t) * w).imag
            rhs = -params.p * math.sin(t) + math.sqrt(
                params.z - params.x * math.cos(2 * t) - params.y * math.sin(2 * t)
            )
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_z_identity_and_positivity(self, rng):
        for _ in range(300):
            sf = random_special(rng)
            params = ellipse_pair_params(sf)
            scale2 = sf.scale() ** 2
            assert abs((params.z - params.x) - (1 + sf.v**2)) <= 1e-14 * scale2
            lhs = params.z**2 - params.x**2 - params.y**2
            rhs = (
                (1 + sf.v**2) * (sf.xi1**2 + sf.xi2**2) / 2.0
                + (1 + 2 * sf.v**2) * sf.b**2 / 4.0
                + (sf.u - (sf.eta1 + sf.eta2) * sf.v / 2.0) ** 2
                + sf.v**2 * (sf.eta1 - sf.eta2) ** 2 / 4.0
            )
            assert abs(lhs - rhs) <= 1e-11 * (1 + scale2**2)
            assert lhs > 0.0


class TestSpreadIdentity:
    def test_open_question_both_sides_reported(self, rng):
        # T = 0 and the direct pre-squared identity are verified separately;
        # any disagreement would surface in the diagnostics rather than be
        # silently resolved.
        for _ in range(50):
            sf = bi_special_any(rng)
            verdict = check_special(sf)
            assert verdict.bielliptical
            assert verdict.diagnostics["t_norm"] <= 1e-9
            assert verdict.diagnostics["spread_residual"] <= 1e-9
