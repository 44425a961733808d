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
coordinates.  :func:`detect_block` finds the block form of a raw matrix.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .linalg import CMatrix, eye, schur_upper_2x2

__all__ = [
    "BlockForm",
    "SpecialForm",
    "ReciprocalForm",
    "Frame",
    "NonPositiveEntryError",
    "NotScalarUnitaryError",
    "ScaleRangeError",
    "ZeroMultipleError",
    "as_block",
    "detect_block",
    "normalize_block",
    "reduce_to_special",
]

# The one decision tolerance: a quantity q of degree k counts as zero when
# |q| <= TOL * s**k, with s the Frobenius norm of the data q is computed
# from.  For q built from the coupling blocks C, D alone (the trace gate,
# mu, the coupling entry b) s**2 is tr H = ||C||^2 + ||D||^2; for q
# involving alpha, s is :meth:`BlockForm.scale`.
# Both are free of the trace shift and of degree one, so a gate decides A
# and tA + c alike, and neither grows with |alpha| where alpha is absent.
TOL = 1e-9

# The range of nonzero shift-free scales the decision accepts: its degree-8
# intermediate, the direction solve's squared Gram trace, underflows below
# about 1e-41 and overflows above about 1e38.  Entries at the CLI's ceiling
# of 1e36 give scales below 6e36.
MIN_SCALE = 1e-36
MAX_SCALE = 1e37

_BLOCK_DETECT_REL = 1e-10  # the scalar-block tolerance of detect_block


class NonPositiveEntryError(ValueError):
    """A reciprocal form needs strictly positive off-diagonal entries whose
    squares and inverse squares are finite and nonzero (about 1e-154 to
    1e154), so that the symmetrized entries A1, A2, A3 are finite."""


class NotScalarUnitaryError(ValueError):
    """The requested direction does not make C, D combine to a scalar unitary."""


class ZeroMultipleError(ValueError):
    """The scalar multiple of the unitary vanishes; no reduction exists."""


class ScaleRangeError(ValueError):
    """A nonzero shift-free scale outside [:data:`MIN_SCALE`, :data:`MAX_SCALE`]."""


def _block4(tl: CMatrix, tr: CMatrix, bl: CMatrix, br: CMatrix) -> CMatrix:
    rows = []
    for i in range(2):
        rows.append(tuple(tl[i, j] for j in range(2)) + tuple(tr[i, j] for j in range(2)))
    for i in range(2):
        rows.append(tuple(bl[i, j] for j in range(2)) + tuple(br[i, j] for j in range(2)))
    return CMatrix(rows)


@dataclass(frozen=True)
class Frame:
    """Affine map from reduced coordinates back to the original plane.

    Points transform as ``w -> shift + scale * w``.  A frame made by
    :func:`reduce_to_special` also keeps the reduction's 2x2 unitaries
    ``(Q, W)``, which do not move numerical-range points: with
    U = diag(Q, WQ), f = exp(-i theta) / |scale| and A the shift-free input,
    U* (f A) U is the reduced matrix.
    """

    scale: complex = 1 + 0j
    shift: complex = 0j
    unitaries: tuple[CMatrix, CMatrix] | None = None

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
        entries = (self.alpha, self.shift, *self.C.rows[0], *self.C.rows[1],
                   *self.D.rows[0], *self.D.rows[1])
        if not all(map(cmath.isfinite, entries)):
            raise ValueError("block form entries must be finite")

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


def detect_block(m: CMatrix) -> BlockForm | None:
    """Split a raw 4x4 matrix into block form if its diagonal blocks are
    scalar within 1e-10 of the norm of M - cI, c = tr M / 4, plus the
    64 eps |c| roundoff that the shift leaves in the diagonal means; so
    M and tM + c get the same answer."""
    shift = m.trace() / 4
    tol = (_BLOCK_DETECT_REL * max((m - shift * eye(4)).frobenius(), 1e-300)
           + 64 * sys.float_info.epsilon * abs(shift))
    alpha = 0.5 * (m[0, 0] + m[1, 1])
    beta = 0.5 * (m[2, 2] + m[3, 3])
    devs = (
        abs(m[0, 0] - alpha), abs(m[1, 1] - alpha), abs(m[0, 1]), abs(m[1, 0]),
        abs(m[2, 2] - beta), abs(m[3, 3] - beta), abs(m[2, 3]), abs(m[3, 2]),
    )
    if max(devs) > tol:
        return None
    c = CMatrix(((m[0, 2], m[0, 3]), (m[1, 2], m[1, 3])))
    d = CMatrix(((m[2, 0], m[2, 1]), (m[3, 0], m[3, 1])))
    return normalize_block(alpha, beta, c, d)


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
        object.__setattr__(self, "b1", complex(self.b1))
        object.__setattr__(self, "b2", complex(self.b2))
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "b", float(self.b))
        if not all(map(cmath.isfinite, (self.u, self.v, self.b1, self.b2, self.b))):
            raise ValueError("special form parameters must be finite")
        if self.b < 0:
            raise ValueError("coupling entry b must be nonnegative")

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

    @property
    def tr_h(self) -> float:
        """tr H = ||B* + I||^2 + ||B - I||^2 = 2 ||B||_F^2 + 4 of the block form."""
        return 2.0 * (abs(self.b1) ** 2 + abs(self.b2) ** 2 + self.b**2) + 4.0

    def scale(self) -> float:
        """The block form's scale, sqrt(4 |alpha|^2 + tr H), in closed form."""
        return math.hypot(2.0 * abs(self.alpha), math.sqrt(self.tr_h))


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

    def to_block(self) -> BlockForm:
        """Block form of the tridiagonal matrix: the basis order (e1, e3, e2,
        e4) turns it into the permutation-similar ``[[0, C], [D, 0]]``."""
        c = CMatrix(((complex(self.a1), 0j), (complex(1 / self.a2), complex(self.a3))))
        d = CMatrix(((complex(1 / self.a1), complex(self.a2)), (0j, complex(1 / self.a3))))
        return BlockForm(alpha=0j, C=c, D=d, shift=0j)


def as_block(payload) -> BlockForm | None:
    """The block form of a parsed document: :func:`detect_block` of a raw
    4x4 ``CMatrix``, else the form itself or its ``to_block()``."""
    if isinstance(payload, CMatrix):
        if payload.n != 4:
            raise ValueError("expected a 4x4 matrix")
        return detect_block(payload)
    if isinstance(payload, BlockForm):
        return payload
    if isinstance(payload, (SpecialForm, ReciprocalForm)):
        return payload.to_block()
    raise TypeError("expected a CMatrix, BlockForm, SpecialForm or ReciprocalForm "
                    f"document, got {type(payload).__name__}")


def direction_block(bf: BlockForm, theta: float) -> CMatrix:
    """The 2x2 combination exp(-i theta) C - exp(i theta) D*."""
    e = cmath.exp(-1j * theta)
    return e * bf.C - e.conjugate() * bf.D.H


def reduce_to_special(bf: BlockForm, theta: float) -> tuple[SpecialForm, Frame]:
    """Collapse a block form onto a special form along direction ``theta``.

    Requires M = exp(-i theta) C - exp(i theta) D* to satisfy M*M = mu*I with
    mu > TOL tr H, the one rule's degree-2 cut: M is formed with a rounding
    of about eps sqrt(tr H), so past the cut, where ||M||_F^2 = 2 mu, it
    carries a relative rounding under eps / sqrt(TOL), about 7e-12, which
    the reduction's 2 / sqrt(mu) keeps, and T on the reduced form (degree 4)
    stays about 30 times inside TOL.  The one test of "M is a nonzero scalar
    unitary" raises :class:`ZeroMultipleError` below the cut and
    :class:`NotScalarUnitaryError` where ||M*M - mu I||_F > TOL * 2 mu.  The
    returned frame maps reduced-plane geometry back via
    ``w -> shift + exp(i theta) (sqrt(mu)/2) w``.
    """
    m = direction_block(bf, theta)
    s = m.H @ m
    mu = 0.5 * (s[0, 0].real + s[1, 1].real)
    # A vanishing M is a zero multiple of a unitary; test that before the
    # deviation, which is noise against noise there.
    if mu <= TOL * bf.H.trace().real:
        raise ZeroMultipleError("scalar multiple of the unitary is zero")
    dev = (s - mu * eye(2)).frobenius()
    if dev > TOL * 2.0 * mu:
        raise NotScalarUnitaryError(
            f"M*M deviates from a scalar by {dev:.3e} "
            f"(relative {dev / (2.0 * mu):.3e})"
        )

    rmu = math.sqrt(mu)
    w = (1.0 / rmu) * m.H
    f = (2.0 / rmu) * cmath.exp(-1j * theta)
    alpha_red = f * bf.alpha
    d1 = w.H @ (f * bf.D)
    bmat = d1 + eye(2)

    q, t = schur_upper_2x2(bmat)
    boff = t[0, 1].real
    if boff < 0.0:
        boff = 0.0
    sf = SpecialForm(
        u=alpha_red.real, v=alpha_red.imag, b1=t[0, 0], b2=t[1, 1], b=boff
    )
    frame = Frame(
        scale=cmath.exp(1j * theta) * (rmu / 2.0),
        shift=bf.shift,
        unitaries=(q, w),
    )
    return sf, frame
