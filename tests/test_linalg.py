import cmath
import math
import operator
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birange.forms import SpecialForm
from birange.linalg import (
    CMatrix,
    NotHermitianError,
    eig2,
    eye,
    hermitian_eig4,
    schur_upper_2x2,
    sqrt_principal,
)
from helpers import (
    ReferenceArithmetic,
    char_poly4,
    inner,
    matvec,
    random_cmat,
    random_hermitian4,
    vec_norm,
)


class TestCMatrix:
    def test_adjoint_involution(self, rng):
        for _ in range(50):
            m = random_cmat(rng, 4)
            assert m.H.H == m

    def test_trace_cyclic(self, rng):
        for _ in range(50):
            a = random_cmat(rng, 4)
            b = random_cmat(rng, 4)
            lhs = (a @ b).trace()
            rhs = (b @ a).trace()
            assert abs(lhs - rhs) <= 1e-14 * (1 + abs(lhs))

    def test_det_2x2(self):
        m = CMatrix(((1 + 1j, 2), (3, 4 - 1j)))
        assert abs(m.det() - ((1 + 1j) * (4 - 1j) - 6)) < 1e-15
        with pytest.raises(ValueError):
            eye(4).det()

    def test_char_poly_matches_numpy_roots(self, rng):
        m = random_cmat(rng, 4)
        coeffs = char_poly4(m)
        mine = np.sort_complex(np.roots(coeffs))
        ref = np.sort_complex(np.linalg.eigvals(np.array(m.rows)))
        assert np.max(np.abs(mine - ref)) < 1e-9

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            CMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 9)))

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.matmul])
    def test_rejects_mismatched_sizes(self, op):
        with pytest.raises(ValueError):
            op(eye(4), eye(2))
        with pytest.raises(ValueError):
            op(eye(2), eye(4))


def bits(m: CMatrix):
    """Size and the IEEE bits of every entry, so that zero signs count."""
    assert all(type(x) is complex for row in m.rows for x in row)
    return m.n, tuple(
        tuple(struct.pack("<2d", x.real, x.imag) for x in row) for row in m.rows
    )


arithmetic = settings(derandomize=True, database=None, deadline=None, max_examples=300)
# Signed zeros, subnormals and entries whose products overflow.
components = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1.7976931348623157e308]
)
entries = st.builds(complex, components, components)


def matrices(n: int):
    row = st.tuples(*[entries] * n)
    return st.tuples(*[row] * n).map(CMatrix)


same_size_pairs = st.sampled_from([2, 4]).flatmap(
    lambda n: st.tuples(matrices(n), matrices(n))
)


class TestTrustedArithmetic:
    """Every operator's result matches the validated reference bit for bit,
    and passes the validating constructor unchanged."""

    @staticmethod
    def assert_same(got: CMatrix, want: CMatrix):
        assert bits(got) == bits(want)
        assert bits(CMatrix(got.rows)) == bits(got)

    @arithmetic
    @given(same_size_pairs)
    def test_binary(self, pair):
        x, y = pair
        self.assert_same(x + y, ReferenceArithmetic.add(x, y))
        self.assert_same(x - y, ReferenceArithmetic.sub(x, y))
        self.assert_same(x @ y, ReferenceArithmetic.matmul(x, y))

    @arithmetic
    @given(same_size_pairs, entries)
    def test_unary(self, pair, scalar):
        x, _ = pair
        self.assert_same(-x, ReferenceArithmetic.neg(x))
        self.assert_same(x.H, ReferenceArithmetic.adjoint(x))
        self.assert_same(x * scalar, ReferenceArithmetic.mul(x, scalar))
        self.assert_same(scalar * x, ReferenceArithmetic.mul(x, scalar))
        self.assert_same(x * 2.0, ReferenceArithmetic.mul(x, 2.0))

    def test_negative_zero_products(self):
        # Products of signed zeros, whose sums are +0 only when summed from 0.
        z = complex(-0.0, -0.0)
        for n in (2, 4):
            x = CMatrix([[z] * n] * n)
            y = CMatrix([[complex(1.0, 0.0)] * n] * n)
            for a, b in ((x, y), (y, x), (x, x)):
                self.assert_same(a @ b, ReferenceArithmetic.matmul(a, b))


class TestHermitianEig4:
    def test_identity(self):
        out = hermitian_eig4(eye(4))
        assert out.values == (1.0, 1.0, 1.0, 1.0)

    def test_diagonal(self):
        out = hermitian_eig4(CMatrix(np.diag([-2, -1, 1, 2])))
        assert out.values == (-2.0, -1.0, 1.0, 2.0)

    def test_imaginary_part_of_special_form(self):
        # The imaginary part of the triangular special embedding depends
        # only on the diagonal parameter: eigenvalues +-sqrt(1+v^2), twice.
        v = 0.37
        sf = SpecialForm(u=0.0, v=v, b1=1.3 - 0.4j, b2=-0.2 + 0.9j, b=0.7)
        a = sf.to_block().assemble()
        im = (1 / 2j) * (a - a.H)
        vals = hermitian_eig4(im).values
        s = math.sqrt(1 + v * v)
        assert np.allclose(vals, (-s, -s, s, s), atol=1e-13)

    def test_eigen_residuals(self, rng):
        for _ in range(200):
            m = random_hermitian4(rng)
            fro = m.frobenius()
            out = hermitian_eig4(m)
            for val, vec in zip(out.values, out.vectors):
                res = [a - val * b for a, b in zip(matvec(m, vec), vec)]
                assert vec_norm(res) <= 1e-11 * fro

    def test_orthonormality(self, rng):
        for _ in range(200):
            out = hermitian_eig4(random_hermitian4(rng))
            for i in range(4):
                for j in range(4):
                    ip = inner(out.vectors[i], out.vectors[j])
                    assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-11

    def test_trace_and_det(self, rng):
        for _ in range(300):
            m = random_hermitian4(rng)
            out = hermitian_eig4(m)
            tr = m.trace().real
            assert abs(sum(out.values) - tr) <= 1e-11 * (1 + abs(tr))
            det = float(np.linalg.det(np.array(m.rows)).real)
            prod = math.prod(out.values)
            assert abs(prod - det) <= 1e-10 * (1 + abs(det))

    def test_deterministic(self, rng):
        m = random_hermitian4(rng)
        first = hermitian_eig4(m)
        second = hermitian_eig4(m)
        assert first.values == second.values
        assert first.vectors == second.vectors

    def test_rejects_non_hermitian(self, rng):
        m = random_cmat(rng, 4)
        with pytest.raises(NotHermitianError):
            hermitian_eig4(m)


class TestSchur2x2:
    def test_upper_triangular_passthrough(self):
        b = CMatrix(((1 + 2j, 0.5), (0, -1j)))
        w, t = schur_upper_2x2(b)
        assert np.allclose(w.rows, eye(2).rows, rtol=0, atol=1e-14)
        assert np.allclose(t.rows, b.rows, rtol=0, atol=1e-14)

    def test_hermitian_becomes_diagonal(self, rng):
        m = random_cmat(rng, 2)
        b = 0.5 * (m + m.H)
        _, t = schur_upper_2x2(b)
        assert abs(t[0, 1]) <= 1e-13 * b.frobenius()

    def test_scalar_matrix(self):
        b = CMatrix(((2 - 1j, 0), (0, 2 - 1j)))
        w, t = schur_upper_2x2(b)
        assert np.allclose(w.rows, eye(2).rows, rtol=0, atol=1e-15)
        assert np.allclose(t.rows, b.rows, rtol=0, atol=1e-15)

    def test_round_trip_many(self, rng):
        for _ in range(10_000):
            b = random_cmat(rng, 2)
            w, t = schur_upper_2x2(b)
            fro = b.frobenius()
            assert (w @ t @ w.H - b).frobenius() <= 1e-12 * fro
            assert abs(t[1, 0]) <= 1e-13 * fro
            assert t[0, 1].imag == 0.0 and t[0, 1].real >= 0.0
            assert (w @ w.H - eye(2)).frobenius() <= 1e-13

    def test_diagonal_entries_are_eigenvalues(self, rng):
        for _ in range(200):
            b = random_cmat(rng, 2)
            _, t = schur_upper_2x2(b)
            lams = sorted(eig2(b), key=lambda z: (z.real, z.imag))
            got = sorted((t[0, 0], t[1, 1]), key=lambda z: (z.real, z.imag))
            for x, y in zip(lams, got):
                assert abs(x - y) <= 1e-12 * (1 + abs(x))

    def test_jordan_like_block(self):
        b = CMatrix(((1, 5), (0, 1)))
        w, t = schur_upper_2x2(b)
        assert (w @ t @ w.H - b).frobenius() <= 1e-13 * b.frobenius()
        assert t[0, 1].real >= 0.0


class TestSqrtPrincipal:
    def test_one(self):
        assert sqrt_principal(1) == 1

    def test_negative_real(self):
        assert sqrt_principal(-4) == 2j

    def test_branch_on_cut_with_signed_zero(self):
        # Both sides of the cut map to the upper half line.
        assert sqrt_principal(complex(-4.0, 0.0)) == 2j
        assert sqrt_principal(complex(-4.0, -0.0)) == 2j

    def test_golden_value(self):
        z = (3 + math.sqrt(5)) / 2
        w = sqrt_principal(z)
        assert abs(w * w - z) <= 1e-14 * abs(z)
        assert abs(w - (1 + math.sqrt(5)) / 2) < 1e-14

    def test_square_and_branch(self, rng):
        for _ in range(2000):
            z = complex(rng.normal(), rng.normal())
            w = sqrt_principal(z)
            assert abs(w * w - z) <= 1e-14 * max(abs(z), 1e-30)
            assert w.real >= 0.0
        # conjugation symmetry off the branch cut
        for _ in range(500):
            z = complex(abs(rng.normal()) + 0.1, rng.normal())
            assert sqrt_principal(z.conjugate()) == sqrt_principal(z).conjugate()


class TestEig2:
    def test_known(self):
        m = CMatrix(((2, 1), (0, 3)))
        assert eig2(m) == (2 + 0j, 3 + 0j)

    def test_versus_numpy(self, rng):
        for _ in range(500):
            m = random_cmat(rng, 2)
            mine = eig2(m)
            ref = sorted(
                np.linalg.eigvals(np.array(m.rows)),
                key=lambda z: (z.real, z.imag),
            )
            for x, y in zip(mine, ref):
                assert abs(x - y) <= 1e-11 * (1 + abs(y))
