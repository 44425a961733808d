import cmath
import math

import numpy as np
import pytest

from birange.forms import BlockForm, SpecialForm, ReciprocalForm
from birange import nrcore, verify
from birange.criteria import golden_min
from birange.linalg import CMatrix, eig2, eye, zeros
from birange.nrcore import (
    boundary_support,
    flat_portions,
    generating_poly,
    pencil_eigs,
    spectrum,
)
from helpers import (
    _BI_FAMILIES,
    char_poly4,
    disguise,
    general_example_block,
    general_example_matrix,
    golden_flat_portions,
    imag_part_at,
    random_block,
    random_special,
    reciprocal_two_ellipse,
    shift_free_matrix,
)


class TestSpectrum:
    def test_reciprocal_golden_values(self):
        bf = reciprocal_two_ellipse().to_block()
        spec = spectrum(bf)
        values = sorted((abs(spec.sigma1), abs(spec.sigma2)))
        assert abs(values[0] - (math.sqrt(5) - 1) / 2) < 1e-12
        assert abs(values[1] - (math.sqrt(5) + 1) / 2) < 1e-12

    def test_zero_blocks(self):
        bf = BlockForm(alpha=0.3 + 0.7j, C=zeros(2), D=zeros(2))
        spec = spectrum(bf)
        for s in (spec.sigma1, spec.sigma2):
            assert min(abs(s - bf.alpha), abs(s + bf.alpha)) < 1e-14

    def test_matches_characteristic_polynomial(self, rng):
        for _ in range(200):
            bf = random_block(rng)
            spec = spectrum(bf)
            mine = np.sort_complex(np.array(spec.all_eigenvalues))
            ref = np.sort_complex(np.roots(char_poly4(shift_free_matrix(bf))))
            scale = 1 + np.max(np.abs(ref))
            assert np.max(np.abs(mine - ref)) <= 1e-10 * scale

    def test_sigma_squares_z_plus_alpha_sq(self, rng):
        for _ in range(100):
            bf = random_block(rng)
            spec = spectrum(bf)
            a2 = bf.alpha * bf.alpha
            z1, z2 = eig2(bf.Z)
            for s, z in ((spec.sigma1, z1), (spec.sigma2, z2)):
                assert abs(s * s - (z + a2)) <= 1e-12 * (1 + abs(z + a2))


class TestPencilEigs:
    def test_special_form_at_zero(self, rng):
        # M(0) = 2I for every special form, so both pencil eigenvalues
        # collapse to sqrt(1 + v^2).
        sf = random_special(rng)
        lam1, lam2 = pencil_eigs(sf.to_block(), 0.0)
        s = math.sqrt(1 + sf.v**2)
        assert abs(lam1 - s) < 1e-12
        assert abs(lam2 - s) < 1e-12

    def test_zero_blocks(self):
        bf = BlockForm(alpha=0.4 - 0.9j, C=zeros(2), D=zeros(2))
        for theta in (0.0, 0.3, 1.7):
            lam1, lam2 = pencil_eigs(bf, theta)
            want = abs((cmath.exp(-1j * theta) * bf.alpha).imag)
            assert abs(lam1 - want) < 1e-14
            assert abs(lam2 - want) < 1e-14

    def test_matches_hermitian_eigensolve(self, rng):
        for _ in range(100):
            bf = random_block(rng)
            thetas = rng.uniform(0, 2 * math.pi, size=16)
            lam1, lam2 = pencil_eigs(bf, thetas)
            a = np.array(shift_free_matrix(bf).rows)
            e = np.exp(-1j * thetas)[:, None, None]
            vals = np.linalg.eigvalsh((e * a - np.conj(e) * a.conj().T) / 2j)
            scale = 1 + shift_free_matrix(bf).frobenius()
            expect = np.stack((-lam1, -lam2, lam2, lam1), axis=1)
            assert np.abs(vals - expect).max() <= 1e-11 * scale

    def test_near_double_eigenvalue_dense_scan(self, rng):
        # Im(alpha) ~ 4e-9 and |b1| ~ |b2|: at many directions the two
        # eigenvalues of M nearly coincide, and mean - r cancels about half
        # the digits of the smaller one (errors up to 4e-11 * scale).
        sf = SpecialForm(u=0.0, v=4.18e-9, b1=-1.126j, b2=1.118j, b=2.056)
        thetas = np.linspace(0.0, 2 * math.pi, 20001)
        e = np.exp(-1j * thetas)[:, None, None]
        for _ in range(20):
            bf, _ = disguise(rng, sf)
            a = np.array(shift_free_matrix(bf).rows)
            vals = np.linalg.eigvalsh((e * a - np.conj(e) * a.conj().T) / 2j)
            lam1, lam2 = pencil_eigs(bf, thetas)
            expect = np.stack((-lam1, -lam2, lam2, lam1), axis=1)
            assert np.abs(vals - expect).max() <= 1e-13 * bf.scale()

    def test_array_matches_scalar_calls(self, rng):
        # An array of directions gives arrays of its shape that agree, element
        # for element, with one call per direction to roundoff; a lone
        # direction gives floats.
        for _ in range(50):
            bf = random_block(rng)
            thetas = rng.uniform(0, 2 * math.pi, size=(4, 4))
            lam1, lam2 = pencil_eigs(bf, thetas)
            assert lam1.shape == lam2.shape == thetas.shape
            for idx, t in np.ndenumerate(thetas):
                one = pencil_eigs(bf, float(t))
                assert all(isinstance(x, float) for x in one)
                assert max(abs(one[0] - lam1[idx]),
                           abs(one[1] - lam2[idx])) <= 1e-15 * bf.scale()


class TestGeneratingPoly:
    def test_zero_structure_coefficients(self):
        # C = D = 0 with unit imaginary diagonal parameter: xi1 = 1 + cos 2t
        # and 16 xi2 = 6 + 8 cos 2t + 2 cos 4t.
        bf = BlockForm(alpha=1j, C=zeros(2), D=zeros(2))
        gp = generating_poly(bf)
        assert abs(gp.xi1_const - 1) < 1e-15
        assert abs(gp.xi1_cos2 - 1) < 1e-15
        assert abs(gp.xi1_sin2) < 1e-15
        assert abs(gp.xi2_const_x16 - 6) < 1e-15
        assert abs(gp.xi2_cos2_x16 - 8) < 1e-15
        assert abs(gp.xi2_cos4_x16 - 2) < 1e-15
        assert abs(complex(gp.xi2_cos4_x16, gp.xi2_sin4_x16) - 2) < 1e-15
        for t in np.linspace(0, 2 * math.pi, 17):
            assert gp.xi1(t) >= -1e-15

    def test_sum_and_product_of_pencil_squares(self, rng):
        # xi1 = lam1^2 + lam2^2 and xi2 = lam1^2 lam2^2 on a grid.
        thetas = [2 * math.pi * k / 64 for k in range(64)]
        for _ in range(50):
            bf = random_block(rng)
            gp = generating_poly(bf)
            scale4 = 1 + shift_free_matrix(bf).frobenius() ** 4
            for t in thetas:
                lam1, lam2 = pencil_eigs(bf, t)
                s = lam1 * lam1 + lam2 * lam2
                p = lam1 * lam1 * lam2 * lam2
                assert abs(gp.xi1(t) - s) <= 1e-10 * scale4
                assert abs(gp.xi2(t) - p) <= 1e-10 * scale4

    def test_annihilates_pencil_eigenvalues(self, rng):
        for _ in range(100):
            bf = random_block(rng)
            gp = generating_poly(bf)
            bound = 1e-9 * (1 + shift_free_matrix(bf).frobenius() ** 4)
            for t in rng.uniform(0, 2 * math.pi, size=8):
                for lam in pencil_eigs(bf, float(t)):
                    assert abs(gp.evaluate(lam, float(t))) <= bound

    def test_evaluate_on_arrays_matches_scalar_calls(self, rng):
        for _ in range(50):
            bf = random_block(rng)
            gp = generating_poly(bf)
            thetas = rng.uniform(0, 2 * math.pi, size=16)
            lams = np.stack(pencil_eigs(bf, thetas))
            values = gp.evaluate(lams, thetas)
            assert values.shape == (2, 16)
            for (i, k), lam in np.ndenumerate(lams):
                t = float(thetas[k])
                assert values[i, k] == gp.evaluate(float(lam), t)
            assert np.array_equal(gp.xi1(thetas), [gp.xi1(float(t)) for t in thetas])
            assert np.array_equal(gp.xi2(thetas), [gp.xi2(float(t)) for t in thetas])

    def test_worked_example_degenerate_direction(self):
        # Rotating the worked example by pi/4 puts the degenerate direction
        # at zero: equal pencil eigenvalues and xi1^2 = 4 xi2 there.
        bf = general_example_block()
        w = cmath.exp(1j * math.pi / 4)
        rot = BlockForm(alpha=w * bf.alpha, C=w * bf.C, D=w * bf.D)
        lam1, lam2 = pencil_eigs(rot, 0.0)
        assert abs(lam1 - lam2) <= 1e-9 * (1 + lam1)
        gp = generating_poly(rot)
        disc = gp.xi1(0.0) ** 2 - 4 * gp.xi2(0.0)
        assert abs(disc) <= 1e-9 * (1 + gp.xi1(0.0) ** 2)


class TestBoundarySupport:
    def test_identity(self):
        # The oracle samples the shift-free matrix, here 0, and keeps the
        # shift 1 as its origin; the points are the origin's.
        samples = boundary_support(np.eye(4, dtype=complex), 64)
        assert samples.origin == 1 and not samples.matrix.any()
        for s in samples:
            assert abs(s.point - 1) < 1e-12
            # support of the singleton {1} in direction theta, less
            # Re(e^{-i theta} origin)
            shift = (cmath.exp(-1j * s.theta) * samples.origin).real
            assert abs(s.support_value + shift - math.cos(s.theta)) < 1e-12

    def test_normal_square(self):
        m = np.diag([1, 1j, -1, -1j]).astype(complex)
        vertices = [1, 1j, -1, -1j]
        samples = boundary_support(m, 256)
        for s in samples:
            want = max((cmath.exp(-1j * s.theta) * v).real for v in vertices)
            assert abs(s.support_value - want) < 1e-12
            assert min(abs(s.point - v) for v in vertices) < 1e-9

    def test_nilpotent_circle(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        samples = boundary_support(m, 128)
        for s in samples:
            assert abs(abs(s.point) - 0.5) < 1e-10
            assert abs(s.support_value - 0.5) < 1e-12

    def test_support_consistency(self, rng):
        bf = random_block(rng)
        a = bf.assemble()
        scale = 1 + a.frobenius()
        for s in boundary_support(a, 128):
            proj = (cmath.exp(-1j * s.theta) * s.point).real
            assert abs(proj - s.support_value) <= 1e-10 * scale

    def test_central_symmetry(self, rng):
        bf = random_block(rng)
        points = boundary_support(bf.assemble(), 256).points
        diam = np.abs(points).max() * 2
        mismatch = np.abs(points[:128] + points[128:])
        assert mismatch.max() <= 1e-8 * diam

    def test_spectrum_containment(self, rng):
        for _ in range(20):
            bf = random_block(rng)
            spec = spectrum(bf)
            samples = boundary_support(bf.assemble(), 256)
            scale = 1 + bf.assemble().frobenius()
            for sig in spec.all_eigenvalues:
                worst = max(
                    (cmath.exp(-1j * s.theta) * sig).real - s.support_value
                    for s in samples
                )
                assert worst <= 1e-9 * scale

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            boundary_support(np.eye(4, dtype=complex), 4)

    def test_directions_are_read_only(self, rng):
        # The directions are one cached grid per sample count: a caller
        # that writes into them must fail rather than corrupt later calls.
        boundary = boundary_support(random_block(rng).assemble(), 256)
        with pytest.raises(ValueError):
            boundary.theta[1] = 0.0
        assert np.array_equal(boundary.theta, 2.0 * np.pi * np.arange(256) / 256)

    def test_matrix_is_a_copy(self, rng):
        # The Boundary keeps its own matrix: writing into the caller's array
        # afterwards changes neither it nor the flats read off it.
        a = nrcore._as_ndarray(general_example_matrix())
        boundary = boundary_support(a, 1024)
        assert not np.shares_memory(boundary.matrix, a)
        flats = flat_portions([boundary])[0]
        assert len(flats) == 2
        a[:] = rng.normal(size=(4, 4))
        assert flat_portions([boundary])[0] == flats

    def test_second_call_is_equal(self, rng):
        a = random_block(rng).assemble()
        first, second = boundary_support(a, 256), boundary_support(a, 256)
        assert first.theta is second.theta
        for name in ("theta", "support", "gap", "points"):
            assert np.array_equal(getattr(first, name), getattr(second, name))


def full_circle_reference(a: np.ndarray, n: int):
    """Directions, support values, gaps and top-eigenvector field values from
    one batched eigh of Re(e^{-i theta} A) over all n directions."""
    theta = 2.0 * np.pi * np.arange(n) / n
    e = np.exp(-1j * theta)[:, None, None]
    w, v = np.linalg.eigh(0.5 * (e * a + np.conj(e) * a.conj().T))
    top = v[:, :, 3]
    points = np.einsum("ni,ij,nj->n", top.conj(), a, top)
    return theta, w[:, 3], w[:, 3] - w[:, 2], points


class TestHalfCircleOracle:
    """The oracle solves over [0, pi) only and reads theta + pi off the
    bottom eigenpair; it must agree with the full-circle solve."""

    @staticmethod
    def degenerate_directions(m, n: int = 2048) -> int:
        a = np.array(m.rows, dtype=complex)
        scale = float(np.linalg.norm(a))
        got = boundary_support(m, n)
        # The oracle samples M - origin I, origin = tr M / 4, and moves its
        # points by origin; the reference samples that same matrix.
        assert np.array_equal(got.matrix, a - got.origin * np.eye(4))
        theta, support, gap, points = full_circle_reference(got.matrix, n)
        assert np.array_equal(got.theta, theta)
        assert np.abs(got.support - support).max() <= 1e-14 * scale
        assert np.abs(got.gap - gap).max() <= 1e-14 * scale
        tol = nrcore._DEGENERATE_REL * nrcore._oracle_scale(a)
        degenerate = gap <= tol
        assert np.array_equal(got.gap <= tol, degenerate)
        ok = ~degenerate
        assert np.abs(got.points[ok] - (points[ok] + got.origin)).max() <= 1e-13 * scale
        # A degenerate direction returns the flat segment's endpoint with the
        # larger transverse coordinate: on the support line, and no lower
        # than the reference's top-eigenspace point.
        turned = np.exp(-1j * theta[degenerate])
        ends = turned * (got.points[degenerate] - got.origin)
        refs = turned * points[degenerate]
        assert np.all(np.abs(ends.real - support[degenerate]) <= 1e-13 * scale)
        assert np.all(ends.imag >= refs.imag - 1e-13 * scale)
        return int(degenerate.sum())

    def test_random_blocks(self, rng):
        for _ in range(50):
            self.degenerate_directions(random_block(rng).assemble())

    def test_degenerate_general_example(self):
        assert self.degenerate_directions(general_example_matrix()) > 0

    def test_scaled_and_shifted(self, rng):
        m = 1e-3 * random_block(rng).assemble() + (7 - 3j) * eye(4)
        self.degenerate_directions(m)

    def test_tiny_block_far_shifted(self, rng):
        # A block at t = 1e-5 shifted by 1e8: the oracle samples it less its
        # trace shift, so its support values and gaps are held to 1e-14 of
        # the oracle scale with no allowance for eps |c|.
        a = nrcore._as_ndarray(1e-5 * random_block(rng).assemble() + 1e8 * eye(4))
        n = 2048
        got = boundary_support(a, n)
        theta, support, gap, _ = full_circle_reference(got.matrix, n)
        assert np.array_equal(got.theta, theta)
        tol = 1e-14 * nrcore._oracle_scale(a)
        assert np.abs(got.support - support).max() <= tol
        assert np.abs(got.gap - gap).max() <= tol

    @pytest.mark.parametrize("n", [9, 1025, 2047])
    def test_odd_count_rejected(self, n):
        with pytest.raises(ValueError):
            boundary_support(np.eye(4, dtype=complex), n)


class TestPencil:
    """``nrcore._pencil`` is the one place an oracle matrix is built."""

    @staticmethod
    def transverse(theta: np.ndarray) -> np.ndarray:
        """The pencil rows (-sin, cos) of Im(e^{-i theta} A)."""
        return np.stack((-np.sin(theta), np.cos(theta)), axis=1)

    def test_imaginary_part_matches_reference(self, rng):
        # At the transverse rows the pencil is Im(e^{-i theta} A), the
        # complex-exponential form it replaced, to a few eps ||A||_F; each
        # random matrix is also tried shifted by 1e8.
        grid, _ = nrcore._direction_grid(1024)
        eps = np.finfo(float).eps
        for _ in range(200):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for m in (a, a + 1e8 * np.eye(4)):
                herm = nrcore._hermitian_parts(m)
                for theta in (verify._SPOT_THETAS, grid):
                    ref = imag_part_at(m, theta[:, None, None])
                    # One [H1; H2] for every row, and the same one per row.
                    for parts in (herm, np.broadcast_to(herm, (len(theta),) + herm.shape)):
                        got = nrcore._pencil(parts, self.transverse(theta))
                        assert np.abs(got - ref).max() <= 8 * eps * np.linalg.norm(m)

    def test_audit_pencil_is_the_float_view_product(self, rng):
        # The audit's half-circle pencil, bit for bit the real product on
        # the float view of [H1; H2] that boundary_support built inline, so
        # its support values are that product's eigenvalues.
        for n in (512, 1024):
            _, cos_sin = nrcore._direction_grid(n)
            for _ in range(10):
                a = nrcore._as_ndarray(random_block(rng).assemble())
                herm = nrcore._hermitian_parts(a)
                inline = (cos_sin[:n // 2] @ herm.view(float).reshape(2, 32)
                          ).view(complex).reshape(n // 2, 4, 4)
                assert np.array_equal(nrcore._pencil(herm, cos_sin[:n // 2]), inline)
                w = np.linalg.eigvalsh(inline)
                bare = boundary_support(a, n, points=False)
                assert np.array_equal(bare.support, np.concatenate((w[:, 3], -w[:, 0])))
                assert np.array_equal(bare.matrix, a)


@pytest.mark.parametrize("r", [3e7, 1e8, 1e10, 1e12])
def test_far_shifted_points_reach_the_segment_ends(r):
    # The raw worked example (trace 0) shifted by c = r e^{0.7i}: its two
    # degenerate directions at n = 1024, theta = pi / 4 and 5 pi / 4, must be
    # flagged, so that every point is the shift-free point plus c.  A gap
    # sampled with the shift in carries eps |c| of rounding: at 1e8 it reads
    # 1.5e-8 against the 2.2e-10 gate, neither direction is flagged, and the
    # point at 5 pi / 4 lands 4.38 along its 7.07-long flat.
    a0 = nrcore._as_ndarray(general_example_matrix())
    c = r * cmath.exp(0.7j)
    a = a0 + c * np.eye(4)
    got, ref = boundary_support(a, 1024), boundary_support(a0, 1024)
    assert np.all(got.gap[[128, 640]] <= nrcore._DEGENERATE_REL * nrcore._oracle_scale(a))
    diameter = math.hypot(np.ptp(ref.points.real), np.ptp(ref.points.imag))
    assert np.abs(got.points - (ref.points + c)).max() <= 1e-6 * diameter


@pytest.mark.parametrize("m", [eye(2), np.eye(2), np.eye(4)[:3]],
                         ids=["CMatrix-2x2", "ndarray-2x2", "ndarray-3x4"])
def test_oracles_reject_other_shapes(m):
    # flat_portions reads the matrix its Boundary sampled.  The audit takes
    # a document, which an array is not.
    oracles = [
        lambda: boundary_support(m, 64),
        lambda: verify.commutant_dim(m),
    ]
    if isinstance(m, CMatrix):
        oracles.append(lambda: verify.audit(m, samples=512))
    else:
        with pytest.raises(TypeError, match="expected a CMatrix, BlockForm"):
            verify.audit(m, samples=512)
    for oracle in oracles:
        with pytest.raises(ValueError, match="expected a 4x4 matrix"):
            oracle()


class TestPointsFreeOracle:
    """``points=False`` solves for eigenvalues only; everything the audit
    reads must match the solve with eigenvectors."""

    @staticmethod
    def agree(m, n: int = 2048) -> int:
        a = nrcore._as_ndarray(m)
        full = boundary_support(a, n)
        bare = boundary_support(a, n, points=False)
        assert bare.points is None
        assert np.array_equal(bare.theta, full.theta)
        # eigh and eigvalsh round a shifted spectrum differently by a few
        # eps |c|, c = tr A / 4, which the oracle scale leaves out.
        slack = 16 * np.finfo(float).eps * abs(np.trace(a) / 4)
        tol = 1e-14 * nrcore._oracle_scale(a) + slack
        assert np.abs(bare.support - full.support).max() <= tol
        assert np.abs(bare.gap - full.gap).max() <= tol
        flats = flat_portions([full])[0]
        bare_flats = flat_portions([bare])[0]
        assert len(bare_flats) == len(flats)
        for f, g in zip(bare_flats, flats):
            assert abs(f.support_theta - g.support_theta) <= 1e-12
        # With 4 | n the four axis directions are sampled, so the audit's
        # bounding box, read off its support values, is the sampled points'.
        box = math.hypot(np.ptp(full.points.real), np.ptp(full.points.imag))
        report = verify.audit(m, samples=n)
        assert abs(report.diameter - box) <= 1e-14 * box + slack
        return len(flats)

    def test_random_blocks(self, rng):
        for _ in range(50):
            self.agree(random_block(rng).assemble())

    def test_degenerate_general_example(self):
        assert self.agree(general_example_matrix()) == 2

    def test_shifted(self, rng):
        self.agree(random_block(rng).assemble() + 1e6 * eye(4))
        self.agree(1e-5 * random_block(rng).assemble() + 1e8 * eye(4))

    def test_rows_without_points(self, rng):
        bare = boundary_support(random_block(rng).assemble(), 64, points=False)
        rows = list(bare)
        assert len(rows) == len(bare) == 64
        assert all(r.point is None for r in rows)
        assert [r.theta for r in rows] == bare.theta.tolist()
        assert [r.support_value for r in rows] == bare.support.tolist()
        assert [r.multiplicity_gap for r in rows] == bare.gap.tolist()


class TestFlatPortions:
    def test_normal_square_edges(self):
        m = np.diag([1, 1j, -1, -1j]).astype(complex)
        samples = boundary_support(m, 512)
        flats = flat_portions([samples])[0]
        assert len(flats) == 4
        for f in flats:
            assert abs(f.length - math.sqrt(2)) < 1e-9

    def test_worked_example_two_flats(self):
        a = general_example_matrix()
        samples = boundary_support(a, 2048)
        flats = flat_portions([samples])[0]
        assert len(flats) == 2
        want_len = 5 * math.sqrt(2)
        want_dir = cmath.exp(-1j * math.pi / 4)
        for f in flats:
            assert abs(f.length - want_len) <= 1e-6 * want_len
            ang = (cmath.phase(f.direction) - cmath.phase(want_dir)) % math.pi
            assert min(ang, math.pi - ang) <= 1e-6

    def test_single_ellipse_no_flats(self):
        # Normal coupling block: the curve is two concentric ellipses, here
        # nested, so the range is a single ellipse without flat portions.
        sf = SpecialForm(u=0.0, v=0.0, b1=2.0, b2=0.2, b=0.0)
        a = sf.to_block().assemble()
        samples = boundary_support(a, 512)
        assert flat_portions([samples])[0] == ()

    def test_requires_dense_sampling(self):
        m = np.diag([1, 1j, -1, -1j]).astype(complex)
        samples = boundary_support(m, 128)
        with pytest.raises(ValueError):
            flat_portions([samples])[0]

    def test_off_grid_flats_found(self, rng):
        # Rotate the square so edge normals fall between grid directions.
        m = rotated_square()
        samples = boundary_support(m, 512)
        flats = flat_portions([samples])[0]
        assert len(flats) == 4
        for f in flats:
            assert abs(f.length - math.sqrt(2)) < 1e-9


    @pytest.mark.parametrize("r", [0.0, 1.0, 1e3, 1e6])
    def test_shifted_matrix_moves_the_flats(self, rng, r):
        # flat_portions reads the matrix its Boundary sampled, so sampling
        # A + cI moves every flat by c.  The endpoints are shift-free field
        # values plus the Boundary's origin, and that sum rounds by up to
        # eps |c| or so (0.64 eps |c| measured at |c| = 1e3 * scale), above
        # 1e-12 * scale from |c| of about 1e4 * scale on.
        mats = [general_example_matrix()]
        mats += [disguise(rng, family(rng))[0].assemble() for family in _BI_FAMILIES]
        for m in mats:
            a = nrcore._as_ndarray(m)
            a = a - np.trace(a) / 4 * np.eye(4)
            scale = nrcore._oracle_scale(a)
            c = r * scale * cmath.exp(0.7j)
            want = flat_portions([boundary_support(a)])[0]
            got = flat_portions([boundary_support(a + c * np.eye(4))])[0]
            assert len(got) == len(want) == 2
            tol = 1e-12 * scale + 16 * np.finfo(float).eps * abs(c)
            for f, g in zip(got, want):
                assert max(abs(p - (q + c)) for p, q in zip(f.endpoints, g.endpoints)) <= tol


def rotated_square() -> np.ndarray:
    """The normal square with its edge normals off the sampling grid."""
    rot = cmath.exp(1j * 0.1234567)
    return np.diag([rot, 1j * rot, -rot, -1j * rot]).astype(complex)


class TestFlatPortionsAgainstGolden:
    """The batched top-two-eigenspace refinement against one golden-section
    search per candidate on the LAPACK gap."""

    @staticmethod
    def agree(m, exact: bool = True) -> int:
        boundary = boundary_support(nrcore._as_ndarray(m), 2048)
        got = flat_portions([boundary])[0]
        ref = golden_flat_portions(boundary)
        if exact:
            assert_same_flats(got, ref, boundary)
        assert len(got) == len(ref)
        return len(got)

    def test_random_blocks(self, rng):
        for _ in range(50):
            self.agree(random_block(rng).assemble())

    @pytest.mark.parametrize("family", _BI_FAMILIES, ids=lambda f: f.__name__)
    def test_disguised_positive_families(self, rng, family):
        bf, _ = disguise(rng, family(rng))
        assert self.agree(bf.assemble()) == 2

    def test_rotated_square(self):
        assert self.agree(rotated_square()) == 4

    @pytest.mark.parametrize("make, seed, flats", [
        (random_block, 11, 0),
        (lambda rng: disguise(rng, _BI_FAMILIES[1](rng))[0], 0, 2),
    ], ids=["random-block", "real-case-ii"])
    def test_pruned_minima(self, make, seed, flats):
        # Seeded so that the sampled gap has 4 local minima, only 2 of them
        # within flat_portions' bound: the golden reference refines all 4.
        a = nrcore._as_ndarray(make(np.random.default_rng(seed)).assemble())
        minima, kept = local_minima(a)
        assert (minima, kept) == (4, 2)
        assert self.agree(a) == flats

    @pytest.mark.parametrize("factor, edges", [(0.1, 4), (10.0, 3)])
    def test_near_flats(self, factor, edges):
        # Coupling the vertices 1 and i by eps opens the gap of the edge
        # between them to exactly eps at theta = pi / 4.
        m = np.diag([1, 1j, -1, -1j]).astype(complex)
        m[0, 1] = factor * nrcore.FLAT_GAP_TOL * nrcore._oracle_scale(m)
        assert self.agree(m, exact=False) == edges


def assert_same_flats(got, ref, boundary) -> None:
    """As many flats, at the same directions (1e-12), with endpoints and
    lengths within 1e-12 ||M0||_F, M0 the boundary's sampled matrix."""
    norm = float(np.linalg.norm(boundary.matrix))
    assert len(got) == len(ref)
    for f, g in zip(got, ref):
        turn = (f.support_theta - g.support_theta + math.pi) % (2 * math.pi)
        assert abs(turn - math.pi) <= 1e-12
        for p, q in zip(f.endpoints, g.endpoints):
            assert abs(p - q) <= 1e-12 * norm
        assert abs(f.length - g.length) <= 1e-12 * norm


def gaussian_without_candidates() -> np.ndarray:
    """A complex Gaussian 4x4 whose 3 local minima of the sampled gap (at
    2048 samples) all lie above flat_portions' bound."""
    rng = np.random.default_rng(0)
    return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))


class TestFlatPortionsBatch:
    """One call over many boundaries refines all their candidates together
    and gives each boundary what a call on it alone gives."""

    @staticmethod
    def mixed(rng) -> list[np.ndarray]:
        mats = [rotated_square(), gaussian_without_candidates(), np.zeros((4, 4), complex)]
        mats += [disguise(rng, family(rng))[0].assemble() for family in _BI_FAMILIES]
        mats.append(general_example_matrix())
        return [nrcore._as_ndarray(m) for m in mats]

    def test_batch_equals_single(self, rng):
        boundaries = [boundary_support(a, 2048) for a in self.mixed(rng)]
        batch = flat_portions(boundaries)
        assert len(batch) == len(boundaries)
        assert [len(f) for f in batch] == [4, 0, 0] + [2] * (len(_BI_FAMILIES) + 1)
        for boundary, got in zip(boundaries, batch):
            assert isinstance(got, tuple)
            assert_same_flats(got, flat_portions([boundary])[0], boundary)
            assert_same_flats(got, golden_flat_portions(boundary), boundary)

    def test_order_and_repeats(self, rng):
        # Reversing the batch reverses the answer; a boundary given twice
        # gets its flats twice.
        boundaries = [boundary_support(a, 1024) for a in self.mixed(rng)]
        forward = flat_portions(boundaries)
        backward = flat_portions(boundaries[::-1])
        for boundary, f, g in zip(boundaries, forward, backward[::-1]):
            assert_same_flats(f, g, boundary)
        twice = flat_portions([boundaries[0], boundaries[0]])
        assert twice[0] == twice[1] and len(twice[0]) == 4

    def test_empty_batch(self):
        assert flat_portions([]) == []

    def test_any_sparse_boundary_rejected(self):
        dense = boundary_support(rotated_square(), 512)
        sparse = boundary_support(rotated_square(), 128)
        with pytest.raises(ValueError, match="flat detection needs"):
            flat_portions([dense, sparse])


def local_minima(a: np.ndarray, n: int = 2048) -> tuple[int, int]:
    """Local minima of the sampled gap, and how many of them lie within
    flat_portions' bound (FLAT_GAP_TOL + 4 grid steps) times the oracle
    scale."""
    gaps = boundary_support(a, n).gap
    minima = (gaps <= np.roll(gaps, 1)) & (gaps <= np.roll(gaps, -1))
    bound = (nrcore.FLAT_GAP_TOL + 4 * 2 * math.pi / n) * nrcore._oracle_scale(a)
    return int(minima.sum()), int((minima & (gaps <= bound)).sum())


class TestFlatPortionsLapackBudget:
    """No scalar eigensolve: every refinement step is one stacked eigh over
    all candidates, and the segment endpoints one more."""

    @staticmethod
    def calls(monkeypatch, *matrices) -> tuple[dict, list[int]]:
        """LAPACK calls of one flat_portions call over the matrices'
        boundaries, and each boundary's flat count."""
        boundaries = [boundary_support(nrcore._as_ndarray(m), 2048) for m in matrices]
        counts = dict.fromkeys(("eigh", "eigvalsh"), 0)
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        flats = flat_portions(boundaries)
        monkeypatch.undo()
        return counts, [len(f) for f in flats]

    def test_worked_example_and_random_blocks(self, monkeypatch, rng):
        matrices = [general_example_matrix()]
        matrices += [random_block(rng).assemble() for _ in range(20)]
        for m in matrices:
            counts, (flats,) = self.calls(monkeypatch, m)
            assert counts["eigvalsh"] == 0
            assert counts["eigh"] <= nrcore._RITZ_STEPS + 1 + 2 * flats

    def test_twenty_boundaries_one_pass(self, monkeypatch, rng):
        # Every candidate of every boundary goes through the same stacked
        # refinement steps, then one stacked endpoint solve.
        matrices = [general_example_matrix(), rotated_square()]
        matrices += [disguise(rng, family(rng))[0].assemble() for family in _BI_FAMILIES]
        matrices += [random_block(rng).assemble() for _ in range(20 - len(matrices))]
        counts, flats = self.calls(monkeypatch, *matrices)
        assert len(flats) == 20 and flats[:2] == [2, 4]
        assert counts["eigvalsh"] == 0
        assert counts["eigh"] <= nrcore._RITZ_STEPS + 2

    def test_no_candidate_no_eigensolve(self, monkeypatch):
        # A complex Gaussian 4x4 whose 3 local minima of the gap all lie
        # above the bound: nothing is refined.
        a = gaussian_without_candidates()
        assert local_minima(a) == (3, 0)
        counts, flats = self.calls(monkeypatch, a)
        assert counts == {"eigh": 0, "eigvalsh": 0}
        assert flats == [0]

    def test_batch_without_candidates_no_eigensolve(self, monkeypatch):
        # Neither the Gaussian, nor it scaled and shifted, nor the zero
        # matrix has a candidate, so the batch solves nothing.
        a = gaussian_without_candidates()
        counts, flats = self.calls(monkeypatch, a, 1e-3 * a + 1e6 * np.eye(4),
                                   np.zeros((4, 4), complex))
        assert counts == {"eigh": 0, "eigvalsh": 0}
        assert flats == [0, 0, 0]


class TestGoldenMin:
    def test_parabola_minimum(self):
        calls = []

        def f(x):
            calls.append(x)
            return (x - 0.3) ** 2

        x = golden_min(f, 0.0, 1.0)
        assert abs(x - 0.3) <= 1e-7
        assert all(0.0 <= c <= 1.0 for c in calls)
        # 90 steps at most, after the two initial evaluations.
        assert len(calls) <= 92

    def test_bracket_width_stop(self):
        calls = []
        golden_min(lambda x: calls.append(x) or abs(x), -1e-13, 1e-13)
        # A bracket of 2e-13 narrows below 1e-14 within 7 golden steps.
        assert len(calls) <= 2 + 7
