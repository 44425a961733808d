import cmath
import math

import numpy as np
import pytest

from birange.forms import (
    BlockForm,
    NonPositiveEntryError,
    NotScalarUnitaryError,
    ReciprocalForm,
    SpecialForm,
    ZeroMultipleError,
    normalize_block,
    reduce_to_special,
)
from birange.criteria import ReciprocalShape, reciprocal_classify
from birange.linalg import CMatrix, eye
from helpers import (
    char_poly4,
    disguise,
    frame_similarity,
    general_example_block,
    random_cmat,
    random_special,
    random_unitary2,
    reciprocal_tridiagonal,
    shift_free_matrix,
)

REAL_NON_FINITE = [math.nan, math.inf, -math.inf]
NON_FINITE = REAL_NON_FINITE + [complex(0.0, math.nan), complex(math.inf, 1.0)]


class TestBlockForm:
    def test_normalize_identity_case(self, rng):
        c, d = random_cmat(rng), random_cmat(rng)
        bf = normalize_block(0.7 - 0.2j, -(0.7 - 0.2j), c, d)
        assert bf.alpha == 0.7 - 0.2j
        assert bf.shift == 0j

    def test_normalize_arithmetic(self, rng):
        c, d = random_cmat(rng), random_cmat(rng)
        bf = normalize_block(3, 1, c, d)
        assert bf.alpha == 1 + 0j
        assert bf.shift == 2 + 0j

    def test_assemble_matches_blocks(self, rng):
        bf = normalize_block(1 + 2j, -0.5j, random_cmat(rng), random_cmat(rng))
        a = bf.assemble()
        assert a[0, 0] == bf.alpha + bf.shift
        assert a[2, 2] == -bf.alpha + bf.shift
        assert a[0, 2] == bf.C[0, 0]
        assert a[3, 1] == bf.D[1, 1]

    def test_special_embedding_h(self, rng):
        # For off-diagonal blocks B*+I, B-I the Hermitian block data is
        # 2(BB* + I).
        sf = random_special(rng)
        bf = sf.to_block()
        bmat = sf.B
        expected = 2.0 * (bmat @ bmat.H + eye(2))
        assert (bf.H - expected).frobenius() <= 1e-13 * (1 + expected.frobenius())

    def test_special_embedding_z(self, rng):
        # Z = BB* - I + 2i Im(B) must match the direct product DC.
        for _ in range(100):
            sf = random_special(rng)
            bf = sf.to_block()
            bmat = sf.B
            imb = (1 / 2j) * (bmat - bmat.H)
            expected = bmat @ bmat.H - eye(2) + 2j * imb
            assert (bf.Z - expected).frobenius() <= 1e-13 * (1 + expected.frobenius())


class TestBlockFormValidation:
    @pytest.mark.parametrize("where", ["alpha", "shift", "C", "D"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite(self, where, value):
        params = dict(alpha=0.5, C=eye(2), D=CMatrix(((0, 1), (2j, 0))), shift=0.25)
        if where in ("C", "D"):
            rows = [list(r) for r in params[where].rows]
            rows[1][0] = value
            params[where] = CMatrix(rows)
        else:
            params[where] = value
        with pytest.raises(ValueError, match="finite"):
            BlockForm(**params)


class TestReciprocalForm:
    def test_all_ones_blocks(self):
        bf = ReciprocalForm(1, 1, 1).to_block()
        assert bf.C == CMatrix(((1, 0), (1, 1)))
        assert bf.D == CMatrix(((1, 1), (0, 1)))
        assert bf.alpha == 0j

    def test_product_block_eigenvalues(self):
        # With equal outer entries and unit middle entry, the product block
        # has the golden-ratio pair (3 +- sqrt(5))/2 as eigenvalues.
        a = 1.7
        bf = ReciprocalForm(a, 1.0, a).to_block()
        z = bf.Z
        tr, det = z.trace(), z.det()
        assert abs(tr - 3) < 1e-14
        assert abs(det - 1) < 1e-14
        lo = (3 - math.sqrt(5)) / 2
        hi = (3 + math.sqrt(5)) / 2
        roots = np.roots([1, -tr.real, det.real])
        assert np.allclose(sorted(roots), [lo, hi], atol=1e-13)

    def test_permutation_similarity_spectra(self, rng):
        for _ in range(50):
            rec = ReciprocalForm(*np.exp(rng.uniform(-1, 1, size=3)))
            tri = reciprocal_tridiagonal(rec)
            blk = rec.to_block().assemble()
            c1 = np.array(char_poly4(tri))
            c2 = np.array(char_poly4(blk))
            scale = 1 + np.max(np.abs(c1))
            assert np.max(np.abs(c1 - c2)) <= 1e-12 * scale

    def test_singular_values_preserved(self, rng):
        rec = ReciprocalForm(*np.exp(rng.uniform(-1, 1, size=3)))
        tri = np.array(reciprocal_tridiagonal(rec).rows)
        blk = np.array(rec.to_block().assemble().rows)
        s1 = np.linalg.svd(tri, compute_uv=False)
        s2 = np.linalg.svd(blk, compute_uv=False)
        assert np.max(np.abs(s1 - s2)) <= 1e-12 * (1 + s1[0])

    def test_a_functions(self):
        rec = ReciprocalForm(2.0, 1.0, 0.5)
        assert abs(rec.A1 - 2.125) < 1e-15
        assert abs(rec.A2 - 1.0) < 1e-15
        assert abs(rec.A3 - 2.125) < 1e-15

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveEntryError):
            ReciprocalForm(1.0, 0.0, 1.0)
        with pytest.raises(NonPositiveEntryError):
            ReciprocalForm(1.0, -2.0, 1.0)

    @pytest.mark.parametrize("a", [1e-200, 1e-160, 1e160, 1e200, math.inf, math.nan])
    def test_rejects_entries_whose_square_leaves_double_range(self, a):
        # Below about 1e-154 a*a underflows (1/(a*a) is then infinite or a
        # division by zero); above about 1e154 a*a overflows, so A1 would be
        # infinite and the classification silently wrong.
        with pytest.raises(NonPositiveEntryError):
            ReciprocalForm(a, 1.0, a)

    def test_extreme_entries_inside_range_classify(self):
        for a in (1e-150, 1e150):
            rec = ReciprocalForm(a, 1.0, a)
            assert all(math.isfinite(x) for x in (rec.A1, rec.A2, rec.A3))
            assert reciprocal_classify(rec) is ReciprocalShape.BI_ELLIPTICAL


class TestReduceToSpecial:
    def test_special_form_is_fixed_point(self, rng):
        sf = random_special(rng)
        out, frame = reduce_to_special(sf.to_block(), 0.0)
        assert abs(out.u - sf.u) < 1e-12
        assert abs(out.v - sf.v) < 1e-12
        assert abs(out.b1 - sf.b1) < 1e-12
        assert abs(out.b2 - sf.b2) < 1e-12
        assert abs(out.b - sf.b) < 1e-12
        assert abs(frame.scale - 1) < 1e-12
        assert frame.shift == 0j

    def test_worked_example_direction(self):
        bf = general_example_block()
        sf, frame = reduce_to_special(bf, -math.pi / 4)
        # The scalar multiple of the unitary is 10*sqrt(2), i.e. mu = 200.
        mu = 4.0 * abs(frame.scale) ** 2
        assert abs(mu - 200.0) < 1e-9
        assert sf.b > 0

    def test_round_trip_through_disguise(self, rng):
        for _ in range(200):
            sf = random_special(rng)
            bf, theta0 = disguise(rng, sf)
            out, frame = reduce_to_special(bf, theta0)
            assert abs(out.b - sf.b) <= 1e-10 * (1 + sf.b)
            got = sorted((abs(out.b1), abs(out.b2)))
            want = sorted((abs(sf.b1), abs(sf.b2)))
            assert abs(got[0] - want[0]) <= 1e-10 * (1 + want[0])
            assert abs(got[1] - want[1]) <= 1e-10 * (1 + want[1])
            # alpha comes back up to the sign flip of the mod-pi rotation
            assert min(abs(out.alpha - sf.alpha), abs(out.alpha + sf.alpha)) <= 1e-10

    def test_frame_reconstructs_reduced_matrix(self, rng):
        sf = random_special(rng)
        bf, theta0 = disguise(rng, sf, shift=False)
        out, frame = reduce_to_special(bf, theta0)
        f = 2.0 / (2.0 * abs(frame.scale)) * cmath.exp(-1j * theta0)
        u = frame_similarity(frame)
        lhs = u.H @ (f * shift_free_matrix(bf)) @ u
        assert (lhs - out.to_block().assemble()).frobenius() <= 1e-10 * (1 + lhs.frobenius())

    def test_product_block_trace_det_invariant(self, rng):
        # The product block transforms by similarity (up to the known scalar)
        # under the reduction, so trace and determinant carry over.
        for _ in range(100):
            sf = random_special(rng)
            bf, theta0 = disguise(rng, sf, shift=False)
            out, frame = reduce_to_special(bf, theta0)
            f = (2.0 / (2.0 * abs(frame.scale))) * cmath.exp(-1j * theta0)
            z_in = bf.Z
            z_out = out.to_block().Z
            tr_in = f * f * z_in.trace()
            tr_out = z_out.trace()
            assert abs(tr_in - tr_out) <= 1e-12 * (1 + abs(tr_in))
            det_in = f**4 * z_in.det()
            det_out = z_out.det()
            assert abs(det_in - det_out) <= 1e-12 * (1 + abs(det_in))

    def test_rejects_generic_direction(self, rng):
        sf = random_special(rng)
        bf, theta0 = disguise(rng, sf)
        with pytest.raises(NotScalarUnitaryError):
            reduce_to_special(bf, theta0 + 0.3)

    def test_zero_multiple_detected(self, rng):
        theta0 = 0.6
        d = random_cmat(rng)
        c = cmath.exp(2j * theta0) * d.H
        bf = BlockForm(alpha=0.5, C=c, D=d)
        with pytest.raises(ZeroMultipleError):
            reduce_to_special(bf, theta0)

    def test_normal_b_still_reduces(self, rng):
        # b = 0 keeps the reduction well defined; rejection is the
        # classifier's job, not the reduction's.
        sf = SpecialForm(u=0.3, v=-0.2, b1=1.1 + 0.4j, b2=-0.7 + 0.2j, b=0.0)
        out, _ = reduce_to_special(sf.to_block(), 0.0)
        assert out.b <= 1e-12


class TestSpecialFormValidation:
    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            SpecialForm(u=0.0, v=0.0, b1=0j, b2=0j, b=-0.5)

    @pytest.mark.parametrize("name, value", [
        *((name, x) for name in ("u", "v", "b") for x in REAL_NON_FINITE),
        *((name, x) for name in ("b1", "b2") for x in NON_FINITE),
    ])
    def test_rejects_non_finite(self, name, value):
        # NaN fails every gate's comparison, so an unchecked NaN parameter
        # would pass as a positive verdict.
        params = dict(u=0.1, v=0.0, b1=0.6 - 0.2j, b2=0.4 - 0.2j, b=1.0)
        params[name] = value
        with pytest.raises(ValueError, match="finite"):
            SpecialForm(**params)

    def test_scale_computed_once(self, monkeypatch):
        sf = SpecialForm(u=0.1, v=0.2, b1=3 + 4j, b2=-1 - 2j, b=0.5)
        calls = []
        to_block = SpecialForm.to_block

        def counted(self):
            calls.append(self)
            return to_block(self)

        monkeypatch.setattr(SpecialForm, "to_block", counted)
        # The scale is closed-form, sqrt(4 |alpha|^2 + tr H): no block form
        # is built for it, and it is the block form's within 4 ulps.
        first = sf.scale()
        assert calls == []
        assert abs(first - sf.to_block().scale()) <= 4 * math.ulp(first)

    def test_views(self):
        sf = SpecialForm(u=0.1, v=0.2, b1=3 + 4j, b2=-1 - 2j, b=0.5)
        assert (sf.xi1, sf.eta1) == (3.0, 4.0)
        assert (sf.xi2, sf.eta2) == (-1.0, -2.0)
        assert sf.alpha == 0.1 + 0.2j
        assert sf.B[0, 1] == 0.5 + 0j
