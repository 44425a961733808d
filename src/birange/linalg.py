"""Dependency-free complex linear algebra for fixed sizes 2 and 4.

Everything here is built on Python's ``complex`` scalar, so identical inputs
produce bit-identical outputs on every platform: no BLAS, no threading, no
environment dependence.  The rest of the package treats this module as the
deterministic "implementation side"; LAPACK-backed routines appear only in
the independent oracles that cross-check it.

Contents: an immutable square-matrix value type, closed-form 2x2 eigenvalues,
a 2x2 Schur triangularization with a fixed phase convention, the principal
complex square root, and a cyclic Jacobi eigensolver for 4x4 Hermitian
matrices that no decision or audit path calls.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "CMatrix",
    "HermEig4",
    "NotHermitianError",
    "eye",
    "zeros",
    "diag",
    "hermitian_eig4",
    "schur_upper_2x2",
    "sqrt_principal",
    "eig2",
    "herm_eig2",
]


class NotHermitianError(ValueError):
    """Raised when an operation requires a Hermitian matrix and gets none."""


class CMatrix:
    """Immutable row-major complex matrix of size 2x2 or 4x4."""

    __slots__ = ("_rows", "n")

    def __init__(self, rows: Sequence[Sequence[complex]]):
        grid = tuple(tuple(complex(x) for x in row) for row in rows)
        n = len(grid)
        if n not in (2, 4) or any(len(row) != n for row in grid):
            raise ValueError("expected a square 2x2 or 4x4 matrix")
        self._rows = grid
        self.n = n

    @property
    def rows(self) -> tuple[tuple[complex, ...], ...]:
        return self._rows

    def __getitem__(self, ij: tuple[int, int]) -> complex:
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = ",\n         ".join(repr(list(r)) for r in self._rows)
        return f"CMatrix([{body}])"

    def __add__(self, other: "CMatrix") -> "CMatrix":
        return CMatrix(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self._rows, other._rows)
        )

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        return CMatrix(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self._rows, other._rows)
        )

    def __neg__(self) -> "CMatrix":
        return CMatrix(tuple(-a for a in row) for row in self._rows)

    def __mul__(self, scalar: complex) -> "CMatrix":
        s = complex(scalar)
        return CMatrix(tuple(a * s for a in row) for row in self._rows)

    __rmul__ = __mul__

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        n = self.n
        if other.n != n:
            raise ValueError("size mismatch in matrix product")
        a, b = self._rows, other._rows
        return CMatrix(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    @property
    def H(self) -> "CMatrix":
        """Conjugate transpose."""
        n = self.n
        return CMatrix(
            tuple(self._rows[j][i].conjugate() for j in range(n)) for i in range(n)
        )

    def trace(self) -> complex:
        return sum(self._rows[i][i] for i in range(self.n))

    def frobenius(self) -> float:
        return math.sqrt(sum(abs(x) ** 2 for row in self._rows for x in row))

    def max_abs(self) -> float:
        return max(abs(x) for row in self._rows for x in row)

    def det(self) -> complex:
        """Determinant of a 2x2 matrix."""
        if self.n != 2:
            raise ValueError("det expects a 2x2 matrix")
        r = self._rows
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]

    def allclose(self, other: "CMatrix", tol: float) -> bool:
        return (self - other).max_abs() <= tol


def eye(n: int) -> CMatrix:
    return CMatrix(
        tuple((1 + 0j) if i == j else 0j for j in range(n)) for i in range(n)
    )


def zeros(n: int) -> CMatrix:
    return CMatrix(tuple(0j for _ in range(n)) for _ in range(n))


def diag(*entries: complex) -> CMatrix:
    n = len(entries)
    return CMatrix(
        tuple(complex(entries[i]) if i == j else 0j for j in range(n)) for i in range(n)
    )


def sqrt_principal(z: complex) -> complex:
    """Principal square root: Re >= 0, and Im >= 0 on the Re = 0 boundary."""
    w = cmath.sqrt(complex(z))
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def eig2(m: CMatrix) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 complex matrix, ordered by (Re, Im).

    Uses the quadratic formula with the cancellation-free pairing: the root
    of larger magnitude comes from the formula, the other from det/root.
    """
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    sq = sqrt_principal(tr * tr - 4.0 * det)
    if abs(tr + sq) >= abs(tr - sq):
        big = 0.5 * (tr + sq)
    else:
        big = 0.5 * (tr - sq)
    small = det / big if big != 0 else 0.5 * (tr - sq)
    pair = sorted((big, small), key=lambda z: (z.real, z.imag))
    return pair[0], pair[1]


def herm_eig2(m: CMatrix) -> tuple[float, float]:
    """Eigenvalues (ascending) of a 2x2 Hermitian matrix, closed form."""
    mean = 0.5 * (m[0, 0].real + m[1, 1].real)
    half = 0.5 * (m[0, 0].real - m[1, 1].real)
    r = math.hypot(half, abs(m[0, 1]))
    return mean - r, mean + r


@dataclass(frozen=True)
class HermEig4:
    """Spectral decomposition of a 4x4 Hermitian matrix.

    ``values`` are sorted ascending; ``vectors[k]`` is the orthonormal
    eigenvector belonging to ``values[k]``.
    """

    values: tuple[float, float, float, float]
    vectors: tuple[tuple[complex, ...], ...]


# Fixed row-major pivot sequence: determinism requires never reordering it.
_PIVOTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# Jacobi stopping rule: largest off-diagonal magnitude relative to the
# Frobenius norm, and a cap on the number of sweeps.
_OFF_TOL = 1e-14
_MAX_SWEEPS = 60


def hermitian_eig4(m: CMatrix) -> HermEig4:
    """Eigendecomposition of a 4x4 Hermitian matrix by cyclic Jacobi sweeps.

    Pivots are visited in fixed row-major order and the iteration stops when
    the largest off-diagonal magnitude drops below ``_OFF_TOL`` times the
    Frobenius norm of the input, so the result is a deterministic function of
    the input bits.

    Raises :class:`NotHermitianError` when the input deviates from its
    adjoint by more than 1e-12 relative in Frobenius norm.
    """
    if m.n != 4:
        raise ValueError("hermitian_eig4 expects a 4x4 matrix")
    fro = m.frobenius()
    if fro == 0.0:
        return HermEig4(
            (0.0, 0.0, 0.0, 0.0),
            tuple(tuple(1 + 0j if i == j else 0j for j in range(4)) for i in range(4)),
        )
    if (m - m.H).frobenius() > 1e-12 * fro:
        raise NotHermitianError("matrix is not Hermitian to working precision")

    # Work on an explicitly Hermitized copy so roundoff asymmetry in the
    # input cannot leak into the rotations.
    a = [[complex(x) for x in row] for row in m.rows]
    for i in range(4):
        a[i][i] = complex(a[i][i].real, 0.0)
        for j in range(i + 1, 4):
            avg = 0.5 * (a[i][j] + a[j][i].conjugate())
            a[i][j] = avg
            a[j][i] = avg.conjugate()
    v = [[1 + 0j if i == j else 0j for j in range(4)] for i in range(4)]

    threshold = _OFF_TOL * fro
    for _ in range(_MAX_SWEEPS):
        off = max(
            abs(a[0][1]), abs(a[0][2]), abs(a[0][3]),
            abs(a[1][2]), abs(a[1][3]), abs(a[2][3]),
        )
        if off <= threshold:
            break
        for p, q in _PIVOTS:
            apq = a[p][q]
            mag = abs(apq)
            if mag <= 1e-300:
                continue
            phase = apq / mag
            phc = phase.conjugate()
            tau = (a[q][q].real - a[p][p].real) / (2.0 * mag)
            if tau >= 0.0:
                t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            # G differs from the identity only at (p,p)=c, (p,q)=s,
            # (q,p)=-s*conj(phase), (q,q)=c*conj(phase); apply A <- G* A G.
            gqp = -s * phc
            gqq = c * phc
            for i in range(4):
                aip, aiq = a[i][p], a[i][q]
                a[i][p] = aip * c + aiq * gqp
                a[i][q] = aip * s + aiq * gqq
            for j in range(4):
                apj, aqj = a[p][j], a[q][j]
                a[p][j] = c * apj - (s * phase) * aqj
                a[q][j] = s * apj + (c * phase) * aqj
            for i in range(4):
                vip, viq = v[i][p], v[i][q]
                v[i][p] = vip * c + viq * gqp
                v[i][q] = vip * s + viq * gqq
            # The rotation annihilates the pivot; pin it to keep the
            # iterate exactly Hermitian.
            a[p][q] = 0j
            a[q][p] = 0j
            a[p][p] = complex(a[p][p].real, 0.0)
            a[q][q] = complex(a[q][q].real, 0.0)

    vals = [a[i][i].real for i in range(4)]
    order = sorted(range(4), key=lambda k: (vals[k], k))
    values = tuple(vals[k] for k in order)
    vectors = tuple(tuple(v[i][k] for i in range(4)) for k in order)
    return HermEig4(values, vectors)  # type: ignore[arg-type]


def schur_upper_2x2(b: CMatrix) -> tuple[CMatrix, CMatrix]:
    """Unitary W and upper-triangular T with W* B W = T and T[0,1] real >= 0.

    The first diagonal entry of T belongs to the eigenvalue whose eigenvector
    has the larger first component, so matrices that are already upper
    triangular pass through unchanged (up to a diagonal phase).
    """
    if b.n != 2:
        raise ValueError("schur_upper_2x2 expects a 2x2 matrix")
    scale = b.frobenius()
    if scale == 0.0:
        return eye(2), zeros(2)

    lam_a, lam_b = eig2(b)

    def kernel_vector(lam: complex) -> tuple[complex, complex, float]:
        m00 = b[0, 0] - lam
        m01 = b[0, 1]
        m10 = b[1, 0]
        m11 = b[1, 1] - lam
        cand1 = (m01, -m00)
        cand2 = (m11, -m10)
        n1 = abs(cand1[0]) ** 2 + abs(cand1[1]) ** 2
        n2 = abs(cand2[0]) ** 2 + abs(cand2[1]) ** 2
        vec, nn = (cand1, n1) if n1 >= n2 else (cand2, n2)
        if nn == 0.0:
            return (0j, 0j, 0.0)
        nv = math.sqrt(nn)
        v0, v1 = vec[0] / nv, vec[1] / nv
        # Canonical phase: rotate the dominant component onto the positive
        # real axis, so structured inputs yield structured W.
        dom = v0 if abs(v0) >= abs(v1) else v1
        phase = dom.conjugate() / abs(dom)
        return (v0 * phase, v1 * phase, nv)

    va = kernel_vector(lam_a)
    vb = kernel_vector(lam_b)
    if max(va[2], vb[2]) <= 1e-14 * scale:
        # b is (numerically) a scalar multiple of the identity.
        return eye(2), b

    # Prefer the eigenvector closest to e1; ties resolved by the (Re, Im)
    # order already fixed by eig2.
    if abs(va[0]) >= abs(vb[0]):
        v0, v1 = va[0], va[1]
    else:
        v0, v1 = vb[0], vb[1]
    w0, w1 = -v1.conjugate(), v0.conjugate()
    w = CMatrix(((v0, w0), (v1, w1)))
    t = w.H @ b @ w
    t01 = t[0, 1]
    if abs(t01) > 0.0:
        gamma = t01 / abs(t01)
        # Right-multiply by diag(1, conj(gamma)) to rotate T[0,1] onto the
        # positive real axis.
        w = CMatrix(
            ((w[0, 0], w[0, 1] * gamma.conjugate()),
             (w[1, 0], w[1, 1] * gamma.conjugate()))
        )
        t = CMatrix(
            ((t[0, 0], complex(abs(t01), 0.0)),
             (0j, t[1, 1]))
        )
    else:
        t = CMatrix(((t[0, 0], 0j), (0j, t[1, 1])))
    return w, t
