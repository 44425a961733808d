"""Structured 4x4 matrix forms and the reductions between them.

Three views of the same family of matrices:

* :class:`BlockForm` -- ``[[a*I, C], [D, -a*I]]`` with scalar 2x2 diagonal
  blocks, after splitting off the trace shift.
* :class:`SpecialForm` -- the triangularized special case whose off-diagonal
  blocks are ``B* + I`` and ``B - I`` for an upper-triangular ``B`` with
  nonnegative coupling entry.
* :class:`ReciprocalForm` -- tridiagonal matrices whose off-diagonal entry
  pairs are mutual inverses, embedded into block form by an odd/even
  permutation of the basis.

:func:`reduce_to_special` performs the rotation / rescaling / block-unitary
similarity that collapses a block form onto a special form whenever the
direction-dependent block combination is a scalar multiple of a unitary, and
records the affine frame needed to map geometry back to the original
coordinates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

from .linalg import CMatrix, eye, schur_upper_2x2, zeros

__all__ = [
    "BlockForm",
    "SpecialForm",
    "ReciprocalForm",
    "Frame",
    "NonPositiveEntryError",
    "NotScalarUnitaryError",
    "ZeroMultipleError",
    "normalize_block",
    "from_reciprocal",
    "reduce_to_special",
]

# The one decision tolerance: a quantity q of degree k counts as zero when
# |q| <= TOL * s**k, with s the Frobenius norm of the data q is computed
# from.  For q built from the coupling blocks C, D alone (the trace gate,
# mu, the product commutator, the coupling entry b) s**2 is tr H =
# ||C||^2 + ||D||^2; for q involving alpha, s is :meth:`BlockForm.scale`.
# Both are free of the trace shift and of degree one, so a gate decides A
# and tA + c alike, and neither grows with |alpha| where alpha is absent.
TOL = 1e-9


class NonPositiveEntryError(ValueError):
    """A reciprocal form needs strictly positive off-diagonal entries whose
    squares and inverse squares are finite and nonzero (about 1e-154 to
    1e154), so that the symmetrized entries A1, A2, A3 are finite."""


class NotScalarUnitaryError(ValueError):
    """The requested direction does not make C, D combine to a scalar unitary."""


class ZeroMultipleError(ValueError):
    """The scalar multiple of the unitary vanishes; no reduction exists."""


def _block4(tl: CMatrix, tr: CMatrix, bl: CMatrix, br: CMatrix) -> CMatrix:
    rows = []
    for i in range(2):
        rows.append(tuple(tl[i, j] for j in range(2)) + tuple(tr[i, j] for j in range(2)))
    for i in range(2):
        rows.append(tuple(bl[i, j] for j in range(2)) + tuple(br[i, j] for j in range(2)))
    return CMatrix(rows)


def block_diag(tl: CMatrix, br: CMatrix) -> CMatrix:
    return _block4(tl, zeros(2), zeros(2), br)


@dataclass(frozen=True)
class Frame:
    """Affine map from reduced coordinates back to the original plane.

    Points transform as ``w -> shift + scale * w``; the recorded unitary
    similarity does not move numerical-range points but is kept so callers
    can reconstruct the reduced matrix exactly.
    """

    scale: complex = 1 + 0j
    shift: complex = 0j
    similarity: CMatrix | None = None

    def map_point(self, w: complex) -> complex:
        return self.shift + self.scale * w

    @property
    def rotation(self) -> float:
        return cmath.phase(self.scale)

    @property
    def magnification(self) -> float:
        return abs(self.scale)


@dataclass(frozen=True)
class BlockForm:
    """Normalized block matrix ``[[a*I, C], [D, -a*I]]`` plus trace shift."""

    alpha: complex
    C: CMatrix
    D: CMatrix
    shift: complex = 0j

    def __post_init__(self):
        if self.C.n != 2 or self.D.n != 2:
            raise ValueError("blocks C and D must be 2x2")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "shift", complex(self.shift))

    @cached_property
    def H(self) -> CMatrix:
        """C*C + DD*, the Hermitian part of the block data."""
        return self.C.H @ self.C + self.D @ self.D.H

    @cached_property
    def Z(self) -> CMatrix:
        """The product DC."""
        return self.D @ self.C

    def assemble(self) -> CMatrix:
        """The full 4x4 matrix, trace shift included."""
        a = self.alpha + self.shift
        b = -self.alpha + self.shift
        return _block4(
            CMatrix(((a, 0j), (0j, a))),
            self.C,
            self.D,
            CMatrix(((b, 0j), (0j, b))),
        )

    def normalized_matrix(self) -> CMatrix:
        """The 4x4 matrix with the shift removed (diagonal blocks +-alpha)."""
        return _block4(
            CMatrix(((self.alpha, 0j), (0j, self.alpha))),
            self.C,
            self.D,
            CMatrix(((-self.alpha, 0j), (0j, -self.alpha))),
        )

    def scale(self) -> float:
        """Frobenius norm of the shift-free matrix, the decision gates' yardstick.

        It is homogeneous of degree one and ignores the trace shift, so a
        gate ``|q| <= TOL * scale**deg(q)`` decides A and tA + c alike.
        """
        return math.hypot(2.0 * abs(self.alpha), self.C.frobenius(), self.D.frobenius())


def normalize_block(alpha: complex, beta: complex, C: CMatrix, D: CMatrix) -> BlockForm:
    """Split off the mean of the diagonal so the blocks become +-alpha'."""
    alpha = complex(alpha)
    beta = complex(beta)
    return BlockForm(alpha=(alpha - beta) / 2, C=C, D=D, shift=(alpha + beta) / 2)


@dataclass(frozen=True)
class SpecialForm:
    """Triangularized special case: off-diagonal blocks B*+I and B-I.

    ``b1``, ``b2`` are the diagonal of the upper-triangular B and ``b >= 0``
    its coupling entry.  ``u + iv`` is the scalar diagonal parameter.
    """

    u: float
    v: float
    b1: complex
    b2: complex
    b: float

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("coupling entry b must be nonnegative")
        object.__setattr__(self, "b1", complex(self.b1))
        object.__setattr__(self, "b2", complex(self.b2))
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "b", float(self.b))

    @property
    def alpha(self) -> complex:
        return complex(self.u, self.v)

    @property
    def xi1(self) -> float:
        return self.b1.real

    @property
    def xi2(self) -> float:
        return self.b2.real

    @property
    def eta1(self) -> float:
        return self.b1.imag

    @property
    def eta2(self) -> float:
        return self.b2.imag

    @property
    def B(self) -> CMatrix:
        return CMatrix(((self.b1, complex(self.b)), (0j, self.b2)))

    def to_block(self) -> BlockForm:
        bmat = self.B
        return BlockForm(
            alpha=self.alpha, C=bmat.H + eye(2), D=bmat - eye(2), shift=0j
        )

    def assemble(self) -> CMatrix:
        return self.to_block().assemble()

    def scale(self) -> float:
        return self.to_block().scale()


@dataclass(frozen=True)
class ReciprocalForm:
    """Tridiagonal matrix with mutually inverse off-diagonal entry pairs."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        for name in ("a1", "a2", "a3"):
            val = float(getattr(self, name))
            sq = val * val
            if not (val > 0.0 and 0.0 < sq < math.inf and 1.0 / sq < math.inf):
                raise NonPositiveEntryError(
                    f"{name} must be a positive real number between about "
                    "1e-154 and 1e154"
                )
            object.__setattr__(self, name, val)

    @property
    def A1(self) -> float:
        return 0.5 * (self.a1 * self.a1 + 1.0 / (self.a1 * self.a1))

    @property
    def A2(self) -> float:
        return 0.5 * (self.a2 * self.a2 + 1.0 / (self.a2 * self.a2))

    @property
    def A3(self) -> float:
        return 0.5 * (self.a3 * self.a3 + 1.0 / (self.a3 * self.a3))

    def tridiagonal(self) -> CMatrix:
        a1, a2, a3 = self.a1, self.a2, self.a3
        return CMatrix(
            (
                (0j, complex(a1), 0j, 0j),
                (complex(1 / a1), 0j, complex(a2), 0j),
                (0j, complex(1 / a2), 0j, complex(a3)),
                (0j, 0j, complex(1 / a3), 0j),
            )
        )

    def to_block(self) -> BlockForm:
        return from_reciprocal(self)


def from_reciprocal(r: ReciprocalForm) -> BlockForm:
    """Embed a reciprocal tridiagonal matrix into block form.

    Reordering the basis as (e1, e3, e2, e4) turns the tridiagonal matrix
    into ``[[0, C], [D, 0]]`` with the C, D below; the two matrices are
    permutation-similar, hence co-spectral.
    """
    c = CMatrix(((complex(r.a1), 0j), (complex(1 / r.a2), complex(r.a3))))
    d = CMatrix(((complex(1 / r.a1), complex(r.a2)), (0j, complex(1 / r.a3))))
    return BlockForm(alpha=0j, C=c, D=d, shift=0j)


def direction_block(bf: BlockForm, theta: float) -> CMatrix:
    """The 2x2 combination exp(-i theta) C - exp(i theta) D*."""
    e = cmath.exp(-1j * theta)
    return e * bf.C - e.conjugate() * bf.D.H


def reduce_to_special(bf: BlockForm, theta: float) -> tuple[SpecialForm, Frame]:
    """Collapse a block form onto a special form along direction ``theta``.

    Requires M = exp(-i theta) C - exp(i theta) D* to satisfy M*M = mu*I with
    mu > 0.  The returned frame maps reduced-plane geometry back to the
    original coordinates via ``w -> shift + exp(i theta) (sqrt(mu)/2) w``.
    """
    m = direction_block(bf, theta)
    s = m.H @ m
    mu = 0.5 * (s[0, 0].real + s[1, 1].real)
    m_norm2 = m.frobenius() ** 2
    # A vanishing M is a zero multiple of a unitary; test that before the
    # deviation, which is noise against noise there.
    if mu <= TOL * bf.H.trace().real:
        raise ZeroMultipleError("scalar multiple of the unitary is zero")
    dev = (s - mu * eye(2)).frobenius()
    if dev > TOL * m_norm2:
        raise NotScalarUnitaryError(
            f"M*M deviates from a scalar by {dev:.3e} "
            f"(relative {dev / m_norm2:.3e})"
        )

    rmu = math.sqrt(mu)
    w = (1.0 / rmu) * m.H
    f = (2.0 / rmu) * cmath.exp(-1j * theta)
    alpha_red = f * bf.alpha
    c1 = (f * bf.C) @ w
    d1 = w.H @ (f * bf.D)
    bmat = d1 + eye(2)

    q, t = schur_upper_2x2(bmat)
    boff = t[0, 1].real
    if boff < 0.0:
        boff = 0.0
    sf = SpecialForm(
        u=alpha_red.real, v=alpha_red.imag, b1=t[0, 0], b2=t[1, 1], b=boff
    )
    similarity = block_diag(q, w @ q)
    frame = Frame(
        scale=cmath.exp(1j * theta) * (rmu / 2.0),
        shift=bf.shift,
        similarity=similarity,
    )
    return sf, frame
