import ast
import cmath
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from birange import criteria, forms
from birange.criteria import (
    AlphaZeroError,
    DegenerateEllipseError,
    EllipsePairParams,
    Reason,
    ReciprocalShape,
    check_general,
    check_special,
    criterion_T,
    ellipse_geometry,
    ellipse_pair_params,
    find_theta,
    golden_min,
    reciprocal_classify,
    solve_b,
)
from birange.forms import TOL, BlockForm, ReciprocalForm, SpecialForm
from birange.linalg import CMatrix, zeros
from birange.nrcore import pencil_eigs, spectrum
from helpers import (
    _BI_FAMILIES,
    NotImagAlphaError,
    NotRealAlphaError,
    _im_square_eigenvalues,
    bi_special_any,
    bi_special_general,
    bi_special_imag,
    bi_special_real_case_i,
    bi_special_real_case_ii,
    check_imag,
    check_real,
    determinant_identity,
    disguise,
    fig_left_special,
    fig_right_special,
    fit_conic_ellipse,
    general_example_block,
    herm_eig2,
    product_normality_defect,
    random_block,
    random_cmat,
    random_special,
    realize,
    reciprocal_two_ellipse,
    scalar_unitary_deviation,
    shift_free_matrix,
    solve_b_imag,
    solve_b_real,
    spread_residual,
    tangent_envelope_points,
    trace_level_T,
    two_direction_block,
    zero_multiple_band_block,
)


class TestCriterionT:
    def test_first_figure_left(self):
        sf = fig_left_special()
        t = criterion_T(sf)
        assert abs(ellipse_pair_params(sf).p - 0.5) < 1e-15
        # 9/25 - 1/25 - 8/25 = 0
        assert abs(t.real) < 1e-14
        assert abs(t.imag) < 1e-14

    def test_first_figure_right(self):
        sf = fig_right_special()
        t = criterion_T(sf)
        assert abs(ellipse_pair_params(sf).p - 0.5) < 1e-15
        # 0.25 - 0.25 and 0.028 - 0.028
        assert abs(t.real) < 1e-14
        assert abs(t.imag) < 1e-14

    def test_normal_degenerate_case(self):
        # b = 0 with zero entries: T vanishes but the matrix data is normal,
        # so classification must still reject it.
        sf = SpecialForm(u=1.0, v=0.0, b1=0j, b2=0j, b=0.0)
        assert abs(ellipse_pair_params(sf).p) < 1e-15
        assert abs(criterion_T(sf)) < 1e-13
        verdict = check_special(sf)
        assert not verdict.bielliptical
        assert verdict.reason is Reason.B_NORMAL

    def test_entrywise_matches_trace_level(self, rng):
        for _ in range(300):
            sf = random_special(rng)
            assert abs(trace_level_T(sf) - criterion_T(sf)) <= 1e-10 * (1 + sf.scale() ** 4)


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
            _, combo = spread_residual(sf)
            e1, e2 = verdict.ellipses
            centers = sorted((e1.center, e2.center), key=lambda z: z.real)
            want = sorted((combo / 2, -combo / 2), key=lambda z: z.real)
            for c, w in zip(centers, want):
                assert abs(c - w) <= 1e-8 * (1 + abs(w))

    def test_direct_spread_identity_agrees(self, rng):
        # T = 0 must coincide with the pre-squared identity on every
        # positive verdict.
        for _ in range(20):
            sf = bi_special_any(rng)
            verdict = check_special(sf)
            assert verdict.bielliptical
            assert spread_residual(sf)[0] <= 1e-9


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

    @pytest.mark.parametrize("branch", ["v_zero", "u_zero"])
    def test_closed_form_defers_to_check_special(self, branch, rng):
        # Off the entry conditions eta1 = eta2 (v = 0) and |b1| = |b2|
        # (u = 0) by 1e-12..1e-4: every returned b is accepted by
        # check_special, and wherever the paper's closed-form candidate is
        # accepted a b is returned within 1e-2 of it: off the entry
        # condition, Re T's root parts from the candidate.
        outcomes = set()
        for _ in range(300):
            eps = 10.0 ** rng.uniform(-12, -4)
            if branch == "v_zero":
                u, v = float(rng.normal()), 0.0
                eta = float(rng.normal())
                b1 = complex(rng.normal(), eta + eps)
                b2 = complex(rng.normal(), eta)
                candidate = abs(b1.real**2 - b2.real**2) / (2.0 * abs(u))
            else:
                u, v = 0.0, float(rng.normal())
                r = abs(float(rng.normal())) + 0.3
                phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
                b1 = r * (1.0 + eps) * cmath.exp(1j * phases[0])
                b2 = r * cmath.exp(1j * phases[1])
                candidate = abs(b1.imag - b2.imag) / abs(v)
            sf = SpecialForm(u=u, v=v, b1=b1, b2=b2, b=candidate)
            accepted = check_special(sf).bielliptical
            b = solve_b(u, v, b1, b2)
            if b is not None:
                found = SpecialForm(u=u, v=v, b1=b1, b2=b2, b=b)
                assert check_special(found).bielliptical
            if accepted:
                assert b is not None and abs(b - candidate) <= 1e-2 * candidate
            outcomes.add(accepted)
        assert outcomes == {True, False}

    def test_closed_forms_are_its_axis_cases(self, rng):
        # On the paper's real-case (i) and imaginary families, the one
        # quadratic gives the closed forms to rounding.  The real closed
        # form subtracts two squares, so its own rounding, up to
        # eps (xi1^2 + xi2^2) / (2|u|), is allowed on top.
        for _ in range(200):
            sf = bi_special_real_case_i(rng)
            ref = solve_b_real(sf.u, sf.b1, sf.b2)
            b = solve_b(sf.u, 0.0, sf.b1, sf.b2)
            assert ref is not None and b is not None
            own = math.ulp(1.0) * (sf.xi1**2 + sf.xi2**2) / (2.0 * abs(sf.u))
            assert abs(b - ref) <= 2e-15 * ref + own
            sf = bi_special_imag(rng)
            ref = solve_b_imag(sf.v, sf.b1, sf.b2)
            b = solve_b(0.0, sf.v, sf.b1, sf.b2)
            assert ref is not None and b is not None
            assert abs(b - ref) <= 2e-15 * ref

    @pytest.mark.parametrize("v", [1e-15, 1e-13, 1e-11, 1e-9])
    def test_first_figure_left_off_the_real_axis(self, v):
        # Re T's small root b = 1 must not cancel away as v -> 0.
        b = solve_b(0.1, v, (3 - 1j) / 5, (2 - 1j) / 5)
        assert b is not None and abs(b - 1.0) <= 1e-12

    def test_general_root_brackets_re_t(self, rng):
        # k^2 Re T, evaluated exactly from criterion_T's formula with
        # 4p^2 = (g + w) / k, changes sign within 1e-12 relative of b.
        def k2_re_t(sf, w):
            u, v = Fraction(sf.u), Fraction(sf.v)
            k = 1 + v * v
            g = (Fraction(sf.eta1) - Fraction(sf.eta2)) ** 2
            ab1 = Fraction(sf.xi1) ** 2 + Fraction(sf.eta1) ** 2
            ab2 = Fraction(sf.xi2) ** 2 + Fraction(sf.eta2) ** 2
            return (
                (g + w - k * (w + ab1 + ab2)) ** 2
                - 4 * u * u * k * (g + w)
                - 4 * k * k * ab1 * ab2
            )

        eps = Fraction(1, 10**12)
        for _ in range(400):
            sf = bi_special_general(rng)
            b = Fraction(sf.b)
            lo = k2_re_t(sf, (b * (1 - eps)) ** 2)
            hi = k2_re_t(sf, (b * (1 + eps)) ** 2)
            assert lo * hi <= 0

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
                   reciprocal_two_ellipse().to_block()):
            found = find_theta(bf)
            assert 0.0 <= found.theta < math.pi

    def test_worked_example(self):
        found = find_theta(general_example_block())
        assert found is not None
        assert abs(found.theta - 3 * math.pi / 4) <= 1e-10
        assert abs(found.mu - 200.0) <= 1e-7

    def test_shifted_adjoint_structure(self, rng):
        d = random_cmat(rng)
        c = d.H + 2.0 * CMatrix(((1, 0), (0, 1)))
        bf = BlockForm(alpha=0.2 + 0.1j, C=c, D=d)
        found = find_theta(bf)
        assert found is not None
        assert min(found.theta, math.pi - found.theta) <= 1e-11
        assert abs(found.mu - 4.0) <= 1e-9

    def test_generic_block_has_none(self, rng):
        # A generic block has no scalar-unitary direction: the search still
        # returns its best one, whose residual fails the reduction's gate.
        for _ in range(50):
            bf = random_block(rng)
            assert find_theta(bf).residual > TOL
            assert check_general(bf).reason is Reason.NO_THETA

    def test_disguised_special_found(self, rng):
        for _ in range(50):
            sf = random_special(rng)
            bf, theta0 = disguise(rng, sf)
            found = find_theta(bf)
            assert found is not None
            dist = abs((found.theta - theta0 + math.pi / 2) % math.pi - math.pi / 2)
            assert dist <= 1e-9

    @pytest.mark.parametrize(
        "theta0", [math.pi - math.pi / 8192, 4095 * math.pi / 4096, math.pi / 8192]
    )
    def test_direction_near_grid_wrap(self, rng, theta0):
        # Directions beside the grid's ends: the scan compares grid point 0
        # with point 4095, and the result must come back in [0, pi).
        for _ in range(20):
            bf, _ = disguise(rng, random_special(rng), theta0=theta0)
            found = find_theta(bf)
            assert found is not None
            assert 0.0 <= found.theta < math.pi
            dist = abs((found.theta - theta0 + math.pi / 2) % math.pi - math.pi / 2)
            assert dist <= 1e-9

    @pytest.mark.parametrize("k", [0.5, 2.5])
    @pytest.mark.parametrize(
        "u", [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 1j))]
    )
    def test_scalar_unitary_everywhere_counts_one_minimum(self, u, k):
        # C = U, D = kU*: every direction is scalar-unitary, so the sampled
        # deviation is identically 0; the best grid point is refined once
        # and the product with D is normal.
        unitary = CMatrix(u)
        bf = BlockForm(alpha=0.3, C=unitary, D=k * unitary.H)
        found = find_theta(bf)
        assert found is not None
        assert 0.0 <= found.theta < math.pi
        verdict = check_general(bf)
        assert verdict.reason is Reason.PRODUCT_NORMAL

    def test_second_direction_forces_normal_product(self):
        # C = I, D = [[0, 1], [i, 0]]: the traceless residual runs along a
        # segment through 0 and back, so theta + pi/2 is scalar-unitary too,
        # and the product with D is normal at both directions.
        ident = CMatrix(((1, 0), (0, 1)))
        bf = BlockForm(alpha=0.3, C=ident, D=CMatrix(((0, 1), (1j, 0))))
        found = find_theta(bf)
        assert found is not None
        for theta in (found.theta, found.theta + math.pi / 2):
            assert scalar_unitary_deviation(bf, theta) <= 1e-12
            assert product_normality_defect(bf, theta) <= 1e-12
        verdict = check_general(bf)
        assert not verdict.bielliptical
        assert verdict.reason is Reason.PRODUCT_NORMAL


class TestTwoDirections:
    """Two scalar-unitary directions mod pi force a normal product M D, the
    theorem in ``find_theta``'s docstring, on disguised forms built to have
    two."""

    @staticmethod
    def roots(bf, n: int = 1024) -> list[float]:
        """Roots mod pi of the deviation: a dense scan, each local minimum
        refined by golden section."""
        e = np.exp(-1j * math.pi * np.arange(n) / n)[:, None, None]
        m = e * np.array(bf.C.rows) - e.conj() * np.array(bf.D.H.rows)
        g = m.conj().transpose(0, 2, 1) @ m
        tr = np.trace(g, axis1=1, axis2=2)
        d = (np.linalg.norm(g - 0.5 * tr[:, None, None] * np.eye(2), axis=(1, 2))
             / tr.real).tolist()
        step = math.pi / n
        found = []
        for k in range(n):
            if d[k] <= d[k - 1] and d[k] <= d[(k + 1) % n]:
                t = golden_min(lambda x: scalar_unitary_deviation(bf, x),
                               k * step - step, k * step + step)
                if scalar_unitary_deviation(bf, t) <= 1e-10 and all(
                    abs((t - r + math.pi / 2) % math.pi - math.pi / 2) > 1e-6 for r in found
                ):
                    found.append(t % math.pi)
        return found

    def test_two_roots_product_normal(self, rng):
        for _ in range(200):
            bf = disguise(rng, two_direction_block(rng))[0]
            assert check_general(bf).reason is Reason.PRODUCT_NORMAL
            roots = self.roots(bf)
            assert len(roots) == 2
            for theta in roots:
                assert product_normality_defect(bf, theta) <= 1e-12


class TestZeroMultipleBand:
    """Around the reduction's zero-multiple cut, mu <= TOL tr H, a found
    direction gives a negative verdict, ProductNormal exactly where
    ``reduce_to_special`` raises its zero-multiple error, and no exception
    escapes ``check_general``.  Just past the cut the reduction goes on and
    T decides."""

    def test_product_normal_before_the_reduction(self, rng):
        raised = 0
        for _ in range(1000):
            bf = zero_multiple_band_block(rng)
            found = find_theta(bf)
            if found is None:
                continue
            verdict = check_general(bf)
            assert not verdict.bielliptical
            zero = False
            try:
                forms.reduce_to_special(bf, found.theta)
            except forms.ZeroMultipleError:
                zero = True
            except forms.NotScalarUnitaryError:
                pass
            raised += zero
            assert (verdict.reason is Reason.PRODUCT_NORMAL) == zero
        assert raised > 0


class TestOneScalarUnitaryGate:
    """``reduce_to_special`` is the one test of "M is a nonzero scalar
    unitary": ``find_theta`` only searches, and ``check_general`` answers
    NoTheta exactly where the reduction along its direction refuses."""

    @staticmethod
    def forms(rng):
        for _ in range(30):
            yield random_block(rng)
        for _ in range(200):
            yield zero_multiple_band_block(rng)
        # C = U, D = kU*: every multiple zero at k = 1 (the trace gate),
        # every direction scalar-unitary with a normal product otherwise.
        for u in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 1j))):
            unitary = CMatrix(u)
            for k in (0.5, 1.0, 2.5):
                yield BlockForm(alpha=0.3, C=unitary, D=k * unitary.H)
        yield from TestRefineOnce.forms(rng)
        for family in _BI_FAMILIES:
            for _ in range(10):
                yield disguise(rng, family(rng))[0]

    def test_no_theta_exactly_where_the_reduction_refuses(self, rng):
        reasons = set()
        for bf in self.forms(rng):
            verdict = check_general(bf)
            reasons.add(verdict.reason)
            found = find_theta(bf)
            refused = zero = b_normal = False
            if found is None:
                zero = True
            else:
                try:
                    sf, _ = forms.reduce_to_special(bf, found.theta)
                    b_normal = check_special(sf).reason is Reason.B_NORMAL
                except forms.ZeroMultipleError:
                    zero = True
                except forms.NotScalarUnitaryError:
                    refused = True
            assert (verdict.reason is Reason.NO_THETA) == refused
            assert (verdict.reason is Reason.PRODUCT_NORMAL) == (zero or b_normal)
            if refused:
                d = verdict.diagnostics
                assert (d["theta"], d["mu"], d["theta_residual"]) == (
                    found.theta, found.mu, found.residual)
                assert d["theta_residual"] > TOL
        assert {None, Reason.NO_THETA, Reason.PRODUCT_NORMAL, Reason.T_NONZERO} <= reasons


class TestDecisionSideImports:
    def test_no_oracle_module_imported(self):
        # linalg, forms and criteria decide; nrcore, verify and cli sample,
        # audit and format, and the decision side imports none of them.
        src = Path(criteria.__file__).parent
        for name in ("linalg", "forms", "criteria"):
            for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
                if isinstance(node, ast.Import):
                    imported = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    imported = [base] + [f"{base}.{a.name}" for a in node.names]
                else:
                    continue
                for dotted in imported:
                    assert not {"nrcore", "verify", "cli"} & set(dotted.split(".")), \
                        (name, dotted)


class TestRefineOnce:
    """``find_theta`` samples one grid and runs one golden-section search,
    bracketing the grid's best point."""

    @staticmethod
    def forms(rng):
        yield general_example_block()
        # C = U, D = kU*: the grid is one flat run.
        ident = CMatrix(((1, 0), (0, 1)))
        yield BlockForm(alpha=0.3, C=ident, D=2.5 * ident)
        # C = I, D = [[0, b], [c, 0]] with |b| = |c|: the traceless residual
        # runs along a segment through 0 and back, so two directions mod pi
        # are scalar-unitary.
        yield BlockForm(alpha=0.3, C=ident, D=CMatrix(((0, 1), (1j, 0))))
        for k in range(40):
            sf = bi_special_any(rng) if k % 2 else random_special(rng)
            yield disguise(rng, sf)[0]

    @staticmethod
    def spy_golden(monkeypatch) -> list[tuple[float, float]]:
        brackets = []
        golden = criteria.golden_min

        def counted(f, lo, hi):
            brackets.append((lo, hi))
            return golden(f, lo, hi)

        monkeypatch.setattr(criteria, "golden_min", counted)
        return brackets

    def test_no_bracket_searched_twice(self, rng, monkeypatch):
        brackets = self.spy_golden(monkeypatch)
        for bf in self.forms(rng):
            brackets.clear()
            assert find_theta(bf) is not None
            assert brackets
            assert len(set(brackets)) == len(brackets)

    def test_one_search_per_selected_minimum(self, rng, monkeypatch):
        # The grid's argmin is the only selected minimum: one bracket of
        # two grid steps, centred on it.
        brackets = self.spy_golden(monkeypatch)
        grids = []
        argmin = np.argmin

        def recorded(d):
            grids.append(d)
            return argmin(d)

        monkeypatch.setattr(np, "argmin", recorded)
        for bf in self.forms(rng):
            brackets.clear()
            grids.clear()
            assert find_theta(bf) is not None
            (d,) = grids
            ((lo, hi),) = brackets
            step = math.pi / len(d)
            assert round(0.5 * (lo + hi) / step) == int(argmin(d))
            assert math.isclose(hi - lo, 2.0 * step)
        # Failing the trace gate (C = D = I, a zero multiple at theta = 0)
        # samples nothing.
        brackets.clear()
        grids.clear()
        ident = CMatrix(((1, 0), (0, 1)))
        assert find_theta(BlockForm(alpha=0.3, C=ident, D=ident)) is None
        assert brackets == grids == []


class TestReductionBuiltOnce:
    """``check_general`` builds the direction block M once, in the
    reduction, and assembles no 4x4 matrix on either verdict."""

    @staticmethod
    def forms(rng):
        yield general_example_block()
        ident = CMatrix(((1, 0), (0, 1)))
        yield BlockForm(alpha=0.3, C=ident, D=2.5 * ident)
        yield BlockForm(alpha=0.3, C=ident, D=CMatrix(((0, 1), (1j, 0))))
        for k in range(40):
            sf = bi_special_any(rng) if k % 2 else random_special(rng)
            yield disguise(rng, sf)[0]
        for _ in range(5):
            yield random_block(rng)

    @staticmethod
    def spy(monkeypatch, owners, name) -> list[int]:
        calls = [0]
        original = getattr(owners[0], name)

        def counted(*args):
            calls[0] += 1
            return original(*args)

        for owner in owners:
            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_one_direction_block_no_block4(self, rng, monkeypatch):
        blocks = self.spy(monkeypatch, (forms,), "direction_block")
        block4 = self.spy(monkeypatch, (forms,), "_block4")
        verdicts = set()
        for bf in self.forms(rng):
            blocks[0] = block4[0] = 0
            verdict = check_general(bf)
            verdicts.add((verdict.bielliptical, verdict.reason))
            assert blocks[0] == ("theta" in verdict.diagnostics)
            assert block4[0] == 0
        assert {(True, None), (False, Reason.T_NONZERO), (False, Reason.NO_THETA),
                (False, Reason.PRODUCT_NORMAL)} <= verdicts

    def test_similarity_built_when_read(self, rng, monkeypatch):
        block4 = self.spy(monkeypatch, (forms,), "_block4")
        sf = bi_special_any(rng)
        bf, theta0 = disguise(rng, sf, shift=False)
        forms.reduce_to_special(bf, theta0)
        # The reduction assembles no 4x4 matrix.
        assert block4[0] == 0


class TestDeterminantIdentityAtSizeTwo:
    """The determinant identity's 2x2 closed forms against LAPACK on the 4x4
    matrix."""

    @staticmethod
    def cases(rng, count=100):
        for _ in range(count):
            bf = random_block(rng, scale=10.0 ** rng.uniform(-3.0, 3.0))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            a = np.array(shift_free_matrix(bf).rows)
            yield bf, theta, a, bf.scale()

    def test_im_square_pairs_match_eigvalsh(self, rng):
        for bf, theta, a, scale in self.cases(rng):
            rot2 = np.exp(-2j * theta) * (a @ a)
            ref = np.linalg.eigvalsh((rot2 - rot2.conj().T) / 2j)
            got = _im_square_eigenvalues(bf, theta)
            assert np.max(np.abs(np.array(got) - ref)) <= 1e-13 * scale**2

    def test_sqrt_det_is_pencil_product(self, rng):
        for bf, theta, a, scale in self.cases(rng):
            rot = np.exp(-1j * theta) * a
            det = np.linalg.det((rot - rot.conj().T) / 2j).real
            lam1, lam2 = pencil_eigs(bf, theta)
            assert abs(lam1 * lam2 - math.sqrt(det)) <= 1e-12 * scale**2

    def test_herm_eig2(self, rng):
        for _ in range(200):
            m = random_cmat(rng, 2)
            h = 0.5 * (m + m.H)
            lo, hi = herm_eig2(h)
            ref = np.linalg.eigvalsh(np.array(h.rows))
            assert abs(lo - ref[0]) < 1e-12 * (1 + abs(ref[0]))
            assert abs(hi - ref[1]) < 1e-12 * (1 + abs(ref[1]))

    def test_identity_holds_exactly_when_check_general_accepts(self, rng):
        # Away from the band around real case (ii), the identity at the
        # reduction direction and T = 0 on the reduced form are one
        # criterion: a failed eigenvalue pairing counts as a failed identity.
        # These families meet the band nowhere but at real case (ii) itself.
        decided = positives = 0
        for k in range(300):
            sf = bi_special_any(rng) if k % 3 == 0 else random_special(rng)
            bf, _ = disguise(rng, sf)
            verdict = check_general(bf)
            if not (verdict.bielliptical or verdict.reason is Reason.T_NONZERO):
                continue
            try:
                holds = determinant_identity(bf, verdict.diagnostics["theta"]).residual <= TOL
            except ValueError:
                holds = False
            assert holds == verdict.bielliptical
            decided += 1
            positives += verdict.bielliptical
        assert decided >= 250 and 50 <= positives < decided


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
        ident = determinant_identity(general_example_block(), d["theta"])
        assert abs(abs(ident.sigma_sum) - 5 * math.sqrt(2)) <= 1e-9 * 5 * math.sqrt(2)
        assert abs(ident.s_diff - 20 * math.sqrt(29)) <= 1e-9 * 20 * math.sqrt(29)
        assert abs(ident.sqrt_det - 58.0) <= 1e-9 * 58.0
        assert abs(ident.lhs - 11600.0) <= 1e-9 * 11600.0
        assert abs(ident.rhs - 11600.0) <= 1e-9 * 11600.0

    def test_embedded_first_figure(self):
        for sf in (fig_left_special(), fig_right_special()):
            verdict = check_general(sf.to_block())
            assert verdict.bielliptical
            assert abs(verdict.diagnostics["theta"]) <= 1e-9 or \
                abs(verdict.diagnostics["theta"] - math.pi) <= 1e-9
            ident = determinant_identity(sf.to_block(), verdict.diagnostics["theta"])
            assert abs(ident.sqrt_det - (1 + sf.v**2)) <= 1e-9

    def test_zero_multiple_rejected(self, rng):
        theta0 = 1.1
        d = random_cmat(rng)
        c = cmath.exp(2j * theta0) * d.H
        bf = BlockForm(alpha=0.4 + 0.2j, C=c, D=d)
        verdict = check_general(bf)
        assert not verdict.bielliptical
        assert verdict.reason is Reason.PRODUCT_NORMAL

    def test_scale_floor(self):
        # A nonzero shift-free scale below MIN_SCALE raises, whatever the
        # shift; zero and a scale just above the floor are decided.
        base = general_example_block()
        for t in (1e-42 / base.scale(), 0.99 * forms.MIN_SCALE / base.scale()):
            bf = BlockForm(t * base.alpha, t * base.C, t * base.D, shift=1.0)
            with pytest.raises(forms.ScaleRangeError, match="at least 1e-36"):
                check_general(bf)
        t = 1.01 * forms.MIN_SCALE / base.scale()
        assert check_general(BlockForm(t * base.alpha, t * base.C, t * base.D)).bielliptical
        zero = check_general(BlockForm(0j, zeros(2), zeros(2), shift=1.0))
        assert zero.reason is Reason.PRODUCT_NORMAL

    def test_scale_ceiling(self):
        # Above MAX_SCALE the direction solve's degree-8 terms overflow (the
        # worked example at scale 2.2e39 would raise OverflowError), so the
        # range check raises, naming both ends.  Just under it the verdict
        # holds.
        base = general_example_block()
        for t in (1.01 * forms.MAX_SCALE / base.scale(), 1e38):
            bf = BlockForm(t * base.alpha, t * base.C, t * base.D, shift=1.0)
            with pytest.raises(forms.ScaleRangeError,
                               match=r"at least 1e-36 and at most 1e\+37"):
                check_general(bf)
        t = 0.99 * forms.MAX_SCALE / base.scale()
        assert check_general(BlockForm(t * base.alpha, t * base.C, t * base.D)).bielliptical

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
            verdict = check_general(rec.to_block())
            assert (shape is ReciprocalShape.BI_ELLIPTICAL) == verdict.bielliptical
        # and on the positive family
        for _ in range(20):
            a = math.exp(float(rng.uniform(0.1, 0.8)))
            rec = ReciprocalForm(a, 1.0, a)
            assert reciprocal_classify(rec) is ReciprocalShape.BI_ELLIPTICAL
            assert check_general(rec.to_block()).bielliptical


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
        with pytest.raises(DegenerateEllipseError, match="doubleton of its foci"):
            ellipse_geometry(params)

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


class TestRealize:
    """``realize`` inverts real case (i): on every shape of a 360-shape grid
    that the family reaches, ``check_special`` reports the prescribed pair,
    centers +-delta a, semi-axes a and rho a, tilt tau, within 1e-14 a."""

    def test_prescribed_pair_on_the_grid(self):
        feasible = 0
        for rho in (1.0, 0.9, 0.5, 0.1, 0.01):
            for k in range(12):
                tau = k * math.pi / 12
                c2 = math.cos(2.0 * tau)
                a = math.sqrt(2.0 / ((1.0 - c2) + rho * rho * (1.0 + c2)))
                for delta in (0.1, 0.3, 0.6, 1.0, 2.0, 5.0):
                    try:
                        sf = realize(rho, tau, delta)
                    except ValueError:
                        continue
                    feasible += 1
                    verdict = check_special(sf)
                    assert verdict.bielliptical
                    assert abs(criterion_T(sf)) <= 1e-14 * sf.scale() ** 4
                    for e, center in zip(verdict.ellipses, (delta * a, -delta * a)):
                        turn = (e.tilt - tau + math.pi / 2) % math.pi - math.pi / 2
                        assert abs(e.center - center) <= 1e-14 * a
                        assert abs(e.semi_major - a) <= 1e-14 * a
                        assert abs(e.semi_minor - rho * a) <= 1e-14 * a
                        assert abs(turn) * (e.semi_major - e.semi_minor) <= 1e-14 * a
        # No shape with delta >= 1 is reached, and a needle (rho = 0.01)
        # only at tau = 0, with its major axis along the offset.
        assert feasible == 122


class TestSpreadIdentity:
    def test_open_question_both_sides_reported(self, rng):
        # T = 0 decides; the direct pre-squared identity is evaluated here
        # on its own, so a disagreement fails this test rather than being
        # silently resolved.
        for _ in range(50):
            sf = bi_special_any(rng)
            verdict = check_special(sf)
            assert verdict.bielliptical
            assert verdict.diagnostics["t_norm"] <= 1e-9
            assert spread_residual(sf)[0] <= 1e-9
