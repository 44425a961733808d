"""Numerical range core: spectra, pencil eigenvalues, boundary oracle.

The closed-form side (spectra via the 2x2 product block, pencil eigenvalues,
the quartic generating polynomial of the boundary curve) is computed from
the deterministic fixed-size arithmetic of :mod:`birange.linalg`, with
elementwise numpy where it takes many directions at once.  The
support-function boundary oracle and the flat-portion detector are oracles:
they see only the assembled 4x4 matrix and use LAPACK (``numpy.linalg``)
underneath, so agreement between the two sides is a genuine cross-check.
Every Hermitian matrix an oracle solves is built in one place,
:func:`_pencil`, and the trace shift is removed in one, :func:`boundary_support`.
:func:`flat_portions` takes a sequence of boundaries and refines the
candidates of all of them in one stacked pass, so one ``birange check``
call refines all its documents' flats together.  The decision modules
(``linalg``, ``forms``, ``criteria``) import nothing from this one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .forms import BlockForm
from .linalg import CMatrix, eig2, sqrt_principal

__all__ = [
    "Spectrum",
    "GeneratingPoly",
    "BoundarySample",
    "Boundary",
    "FlatPortion",
    "spectrum",
    "pencil_eigs",
    "generating_poly",
    "boundary_support",
    "flat_portions",
]

# Default resolution of the support-function oracle; the flat-portion
# detector's gap tolerance, sample floor, length cutoff and cap on its
# refinement steps; and the eigenvalue-gap tolerance below which a support
# direction counts as degenerate.  Tolerances are relative to the oracle
# scale, ||boundary.matrix||_F (:func:`_oracle_scale` of the input).
DEFAULT_SAMPLES = 1024
FLAT_GAP_TOL = 1e-7
FLAT_MIN_SAMPLES = 512
_FLAT_MIN_LENGTH_REL = 1e-8
_RITZ_STEPS = 8
_DEGENERATE_REL = 1e-11


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue data of a block form: one representative per +- pair."""

    sigma1: complex
    sigma2: complex

    @property
    def all_eigenvalues(self) -> tuple[complex, complex, complex, complex]:
        return (self.sigma1, -self.sigma1, self.sigma2, -self.sigma2)


def spectrum(bf: BlockForm) -> Spectrum:
    """Eigenvalues of the (shift-removed) block form.

    They come in pairs +-sigma_j with sigma_j the principal square root of
    z_j + alpha^2, where z_1, z_2 are the eigenvalues of Z = DC.
    """
    z1, z2 = eig2(bf.Z)
    a2 = bf.alpha * bf.alpha
    return Spectrum(sigma1=sqrt_principal(z1 + a2), sigma2=sqrt_principal(z2 + a2))


def pencil_eigs(bf: BlockForm, theta):
    """Nonnegative eigenvalues of Im(e^{-i theta} A), largest first.

    The four eigenvalues are +-lambda_j with
    lambda_j = sqrt(Im(e^{-i theta} alpha)^2 + mu_j / 4) and mu_j the
    (nonnegative) eigenvalues of M = H - e^{-2i theta} Z - e^{2i theta} Z*,
    a 2x2 Hermitian matrix.  The larger is mean + r, from M's diagonal mean
    and the radius r of its closed-form eigenvalues.  M = N*N for
    N = e^{-i theta} C - e^{i theta} D*, so the smaller is
    |det N|^2 / (mean + r), which keeps the digits that mean - r cancels
    away when the two are close.  ``theta`` is one direction, giving two
    floats, or an array of directions, giving two arrays of its shape; the
    two agree to roundoff, not to the bit.
    """
    e1 = np.exp(-1j * np.asarray(theta, dtype=float))
    e2 = e1 * e1
    (h00, h01), (_, h11) = bf.H.rows
    (z00, z01), (z10, z11) = bf.Z.rows
    m00 = h00.real - 2.0 * (e2 * z00).real
    m11 = h11.real - 2.0 * (e2 * z11).real
    m01 = np.abs(h01 - e2 * z01 - np.conj(e2 * z10))
    top = np.maximum(0.5 * (m00 + m11) + np.hypot(0.5 * (m00 - m11), m01), 0.0)

    # Entry (i, j) of N is e^{-i theta} C_ij - conj(e^{-i theta} D_ji).
    (c00, c01), (c10, c11) = bf.C.rows
    (d00, d01), (d10, d11) = bf.D.rows
    det_n = ((e1 * c00 - np.conj(e1 * d00)) * (e1 * c11 - np.conj(e1 * d11))
             - (e1 * c01 - np.conj(e1 * d10)) * (e1 * c10 - np.conj(e1 * d01)))
    low = np.divide(np.abs(det_n) ** 2, top, out=np.zeros_like(top), where=top > 0.0)

    base = (e1 * bf.alpha).imag ** 2
    return np.sqrt(base + top / 4.0), np.sqrt(base + low / 4.0)


@dataclass(frozen=True)
class GeneratingPoly:
    """Coefficients of the boundary generating polynomial.

    The characteristic polynomial of Im(e^{-i theta} A) is
    ``lam^4 - xi1(theta) lam^2 + xi2(theta)``; xi1 is a degree-2 and 16*xi2
    a degree-4 trigonometric polynomial whose coefficients are stored here.
    ``xi1``, ``xi2`` and ``evaluate`` take floats or arrays, elementwise.
    """

    xi1_const: float
    xi1_cos2: float
    xi1_sin2: float
    xi2_const_x16: float
    xi2_cos2_x16: float
    xi2_sin2_x16: float
    xi2_cos4_x16: float
    xi2_sin4_x16: float

    def xi1(self, theta):
        return (
            self.xi1_const
            + self.xi1_cos2 * np.cos(2 * theta)
            + self.xi1_sin2 * np.sin(2 * theta)
        )

    def xi2(self, theta):
        return (
            self.xi2_const_x16
            + self.xi2_cos2_x16 * np.cos(2 * theta)
            + self.xi2_sin2_x16 * np.sin(2 * theta)
            + self.xi2_cos4_x16 * np.cos(4 * theta)
            + self.xi2_sin4_x16 * np.sin(4 * theta)
        ) / 16.0

    def evaluate(self, lam, theta):
        l2 = lam * lam
        return l2 * l2 - self.xi1(theta) * l2 + self.xi2(theta)


def generating_poly(bf: BlockForm) -> GeneratingPoly:
    """Trigonometric coefficients of the generating polynomial of ``bf``.

    Everything is expressed through traces of H, Z and the scalar diagonal
    parameter, so no eigenvalue computation is involved.
    """
    h, z = bf.H, bf.Z
    alpha = bf.alpha
    tr_h = h.trace().real
    tr_z = z.trace()
    tr_h2 = (h @ h).trace().real
    tr_zzs = (z @ z.H).trace().real
    tr_zh = (z @ h).trace()
    det_z = z.det()
    a2 = alpha * alpha
    aa = abs(alpha) ** 2

    zeta1 = 8 * aa * a2 + 2 * a2 * tr_h + 4 * aa * tr_z + 2 * tr_z * tr_h - 2 * tr_zh
    zeta2 = 2 * det_z + 2 * a2 * tr_z + 2 * a2 * a2

    return GeneratingPoly(
        xi1_const=0.25 * tr_h + aa,
        xi1_cos2=-(0.5 * tr_z.real + a2.real),
        xi1_sin2=-(0.5 * tr_z.imag + a2.imag),
        xi2_const_x16=(
            6 * aa * aa
            + 2 * aa * tr_h
            + 2 * (a2.conjugate() * tr_z).real
            + 0.5 * tr_h * tr_h
            - 0.5 * tr_h2
            + abs(tr_z) ** 2
            - tr_zzs
        ),
        xi2_cos2_x16=-zeta1.real,
        xi2_sin2_x16=-zeta1.imag,
        xi2_cos4_x16=zeta2.real,
        xi2_sin4_x16=zeta2.imag,
    )


@dataclass(frozen=True)
class BoundarySample:
    """One support-function sample of the numerical range boundary; ``point``
    is None when the boundary was sampled without points."""

    theta: float
    point: complex | None
    support_value: float
    multiplicity_gap: float


@dataclass(frozen=True, eq=False)
class Boundary:
    """Support-function samples of the numerical range boundary, as arrays.

    ``matrix`` is the sampled 4x4 ndarray M0 = M - cI (its own copy), with
    c = tr M / 4 the ``origin`` of the M given; ``theta`` the n directions
    2 pi k / n (read-only: one array per n serves every call); ``support``
    and ``gap`` W(M0)'s support values and top eigenvalue gaps; ``points``
    the boundary points of W(M) = c + W(M0), or None when not asked for.
    Iterating yields one :class:`BoundarySample` per direction either way.
    """

    matrix: np.ndarray
    theta: np.ndarray
    support: np.ndarray
    gap: np.ndarray
    points: np.ndarray | None
    origin: complex = 0j

    def __len__(self) -> int:
        return len(self.theta)

    def __iter__(self):
        points = [None] * len(self) if self.points is None else self.points.tolist()
        rows = zip(self.theta.tolist(), points, self.support.tolist(),
                   self.gap.tolist())
        return (BoundarySample(*r) for r in rows)


def _as_ndarray(m) -> np.ndarray:
    a = np.asarray(m.rows if isinstance(m, CMatrix) else m, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    return a


def _oracle_scale(a: np.ndarray) -> float:
    """Yardstick of the oracle gates: ||A - cI||_F with c = tr A / 4.

    The shift comes from the matrix alone, so a raw input and its block form
    get the same yardstick, and A and tA + c get gates that scale with t.
    """
    c = complex(np.trace(a)) / 4.0
    return float(np.linalg.norm(a - c * np.eye(4)))


@functools.cache
def _direction_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n support directions theta_k = 2 pi k / n, and as an (n, 2)
    array their cosines and sines, read-only so that no caller can write
    into the cache; built on first use for each n."""
    theta = 2.0 * np.pi * np.arange(n) / n
    cos_sin = np.stack((np.cos(theta), np.sin(theta)), axis=1)
    theta.flags.writeable = cos_sin.flags.writeable = False
    return theta, cos_sin


def _hermitian_parts(a: np.ndarray) -> np.ndarray:
    """H1 = (A + A*) / 2 and H2 = (A - A*) / 2i stacked, so that
    Re(e^{-i theta} A) = cos(theta) H1 + sin(theta) H2; a (k x 4 x 4)
    stack of matrices gives one (2 x 4 x 4) pair per matrix."""
    ah = a.conj().swapaxes(-1, -2)
    return np.stack((0.5 * (a + ah), (a - ah) / 2j), axis=-3)


def _pencil(herm: np.ndarray, cos_sin: np.ndarray) -> np.ndarray:
    """cos(phi) H1 + sin(phi) H2 per row (cos(phi), sin(phi)) of ``cos_sin``
    on the float view of ``herm``: one [H1; H2] for every row, as one real
    (k x 2) @ (2 x 32) product, or a (k x 2 x 4 x 4) stack of them, one per
    row.  The row (-sin(theta), cos(theta)) gives Im(e^{-i theta} A)."""
    parts = herm.view(float).reshape(-1, 2, 32)
    out = cos_sin @ parts[0] if herm.ndim == 3 else cos_sin[:, None] @ parts
    return out.view(complex).reshape(-1, 4, 4)


def _segment_ends(
    a: np.ndarray, herm: np.ndarray, cos_sin: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Extreme field values over a top eigenspace, one per row.

    Row j holds a matrix ``a[j]`` = A, its :func:`_hermitian_parts`
    ``herm[j]``, ``cos_sin[j]`` = (cos(theta_j), sin(theta_j)) and
    ``basis[j]`` (4 x 2), which spans the top 2-dim eigenspace of
    Re(e^{-i theta_j} A).  At a degenerate support direction the field
    values attainable there form a segment on the support line; its
    endpoints are read off the compression of Im(e^{-i theta_j} A) (the
    :func:`_pencil` row (-sin, cos)) onto that space, all rows in one
    stacked ``eigh``.  Returns the endpoints with the larger and with the
    smaller transverse coordinate.
    """
    basis_h = basis.conj().transpose(0, 2, 1)
    comp = basis_h @ _pencil(herm, cos_sin[:, ::-1] * [-1.0, 1.0]) @ basis
    _, y = np.linalg.eigh(0.5 * (comp + comp.conj().transpose(0, 2, 1)))
    ends = basis @ y
    vals = np.einsum("nic,nij,njc->nc", ends.conj(), a, ends)
    return vals[:, 1], vals[:, 0]


def boundary_support(m, n: int = DEFAULT_SAMPLES, points: bool = True) -> Boundary:
    """Sample the numerical range boundary at n equispaced support directions.

    Samples are taken on a fresh M0 = M - cI, c = tr M / 4 (``origin``), an
    exact translate once |c| is a few times the scale (Sterbenz's lemma).
    For each direction theta the support value is the top eigenvalue of
    Re(e^{-i theta} M0) and the boundary point c plus the field value of a
    top eigenvector.  Since Re(e^{-i (theta + pi)} M0) = -Re(e^{-i theta}
    M0), one batched eigensolve over the n/2 directions in [0, pi) gives
    both halves: the top eigenpair for theta and the negated bottom one for
    theta + pi.  The directions and their cosines and sines are built once
    per n and shared between calls, so ``theta`` is read-only.  When the top
    eigenvalue is degenerate (gap at most ``_DEGENERATE_REL`` ||M0||_F) the
    point is the end of the flat segment with the larger transverse
    coordinate, which keeps the sampling deterministic and lets hull
    comparisons use matched directions even across flats.  With
    ``points=False`` the solve is eigenvalues only (``eigvalsh``, no
    eigenvectors and no segment endpoints) and ``points`` is None.
    """
    if n < 8 or n % 2:
        raise ValueError("need an even number of at least 8 support directions")
    a = _as_ndarray(m)
    origin = complex(np.trace(a)) / 4
    a = a - origin * np.eye(4)
    half = n // 2
    theta, cos_sin = _direction_grid(n)
    herm = _hermitian_parts(a)
    herms = _pencil(herm, cos_sin[:half])
    w, v = np.linalg.eigh(herms) if points else (np.linalg.eigvalsh(herms), None)
    support = np.concatenate((w[:, 3], -w[:, 0]))
    gap = np.concatenate((w[:, 3] - w[:, 2], w[:, 1] - w[:, 0]))
    if v is None:
        return Boundary(a, theta, support, gap, None, origin)
    vecs = np.concatenate((v[:, :, 3], v[:, :, 0]))
    pts = np.einsum("ni,ij,nj->n", vecs.conj(), a, vecs)
    deg = np.flatnonzero(gap <= _DEGENERATE_REL * max(float(np.linalg.norm(a)), 1e-300))
    if deg.size:
        # The top eigenspace at theta + pi is the bottom one at theta.
        pairs = v[deg % half]
        tops = np.where((deg < half)[:, None, None], pairs[:, :, 2:], pairs[:, :, :2])
        rows = (deg.size,)
        pts[deg] = _segment_ends(np.broadcast_to(a, rows + a.shape),
                                 np.broadcast_to(herm, rows + herm.shape),
                                 cos_sin[deg], tops)[0]
    return Boundary(a, theta, support, gap, pts + origin, origin)


@dataclass(frozen=True)
class FlatPortion:
    """A line segment on the numerical range boundary."""

    direction: complex
    endpoints: tuple[complex, complex]
    length: float
    support_theta: float


def _ritz_theta(herm: np.ndarray, theta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """One Rayleigh-Ritz step towards the direction of a flat portion, per row.

    Row j holds ``herm[j]``, H1 = (M + M*) / 2 and H2 = (M - M*) / 2i of its
    own matrix M, its direction ``theta[j]`` and ``basis[j]`` U.  With
    P = U* H1 U and Q = U* H2 U the compressions onto U, the eigenvalue gap
    of cos(phi) P + sin(phi) Q is 2 |cos(phi) p + sin(phi) q|, p and q being
    the traceless 3-vectors ((X00 - X11) / 2, Re X01, Im X01) of P and Q.
    It is smallest at phi = atan2(2 p.q, p.p - q.q) / 2 + pi / 2, taken
    mod pi nearest theta.
    """
    comp = basis.conj().transpose(0, 2, 1)[:, None] @ herm @ basis[:, None]
    d = 0.5 * (comp[..., 0, 0].real - comp[..., 1, 1].real)
    off = comp[..., 0, 1]
    dot = d[:, 0] * d[:, 1] + (off[:, 0] * off[:, 1].conj()).real
    diff = d[:, 0] ** 2 - d[:, 1] ** 2 + np.abs(off[:, 0]) ** 2 - np.abs(off[:, 1]) ** 2
    phi = 0.5 * np.arctan2(2.0 * dot, diff) + 0.5 * np.pi
    return phi + np.pi * np.round((theta - phi) / np.pi)


def flat_portions(boundaries: Sequence[Boundary]) -> list[tuple[FlatPortion, ...]]:
    """Locate flat portions of each boundary from its support samples.

    Returns one tuple of flat portions per boundary, in order; a single
    boundary is a batch of one.  Each boundary's sampled matrix M0 is read
    off ``boundary.matrix`` and its oracle scale is ||M0||_F.  Every local
    minimum of a boundary's sampled multiplicity gap that is low enough to
    pass (at most ``FLAT_GAP_TOL`` + 4 grid steps times the scale; the gap
    is 2 scale-Lipschitz in the direction) is a candidate, and the
    candidates of all boundaries are refined together: each step is one
    stacked eigensolve of Re(e^{-i theta} M0), the :func:`_pencil` rows
    (cos(theta), sin(theta)) over each candidate's own M0, and a
    Rayleigh-Ritz step on its top-two eigenspace (:func:`_ritz_theta`).  A
    candidate leaves once its direction moves by at most 1e-15 relative,
    and none takes more than ``_RITZ_STEPS`` steps, so its refinement is
    the same whatever else the call holds.  A refined direction within one
    grid step of its sample whose gap is at most ``FLAT_GAP_TOL`` times the
    scale contributes a segment, unless it lies within 0.75 grid steps of
    one already taken on its boundary; the endpoints of all of them come
    from one :func:`_segment_ends` solve, plus their ``boundary.origin``.
    Degeneracies that do not open up a segment (repeated eigenvalues of a
    normal matrix, say) are discarded by the ``_FLAT_MIN_LENGTH_REL``
    cutoff.  So one call makes at most ``_RITZ_STEPS`` + 2 ``eigh`` calls,
    and none when no boundary has a candidate.
    """
    scales, steps, owners, starts = [], [], [], []
    for i, boundary in enumerate(boundaries):
        n = len(boundary.theta)
        if n < FLAT_MIN_SAMPLES:
            raise ValueError(f"flat detection needs at least {FLAT_MIN_SAMPLES} support samples")
        scale = float(np.linalg.norm(boundary.matrix))
        step = 2.0 * math.pi / n
        scales.append(scale)
        steps.append(step)
        if scale == 0.0:
            continue
        gaps = boundary.gap
        # A local minimum whose sampled gap exceeds (FLAT_GAP_TOL + 4 step)
        # scale cannot pass.  ||Re(e^{-i theta} M0) - Re(e^{-i theta0} M0)||_2
        # <= |theta - theta0| ||M0||_2.  By Weyl each eigenvalue moves by at
        # most as much, so |gap(theta) - gap(theta0)| <= 2 |theta - theta0|
        # scale.  A refined direction is accepted within one step of its
        # sample with gap <= FLAT_GAP_TOL scale, so its sample's gap was at
        # most (FLAT_GAP_TOL + 2 step) scale; the factor 4 leaves as much
        # again for LAPACK's rounding of the sampled and the refined gaps.
        low = np.flatnonzero(gaps <= (FLAT_GAP_TOL + 4.0 * step) * scale)
        low = low[(gaps[low] <= gaps[low - 1]) & (gaps[low] <= gaps[(low + 1) % n])]
        owners += [i] * low.size
        starts.append(boundary.theta[low])
    empty: list[tuple[FlatPortion, ...]] = [() for _ in scales]
    if not owners:
        return empty
    # One row per candidate: its boundary, its sample and that one's matrix.
    owner, theta0 = np.array(owners), np.concatenate(starts)
    mats = np.stack([boundary.matrix for boundary in boundaries])[owner]
    herm = _hermitian_parts(mats)
    # A row leaves once its direction settles, or after the last step, with
    # the gap and top-two eigenvectors solved at that direction.
    theta, gap, top = theta0.copy(), np.empty(owner.size), np.empty((owner.size, 4, 2), complex)
    rows, h, at = np.arange(owner.size), herm, theta0
    for k in range(_RITZ_STEPS + 1):
        w, v = np.linalg.eigh(_pencil(h, np.array((np.cos(at), np.sin(at))).T))
        refined = at if k == _RITZ_STEPS else _ritz_theta(h, at, v[:, :, 2:])
        moving = np.abs(refined - at) > 1e-15 * np.maximum(1.0, np.abs(at))
        if not moving.all():
            left = ~moving
            done = rows[left]
            theta[done], gap[done], top[done] = at[left], w[left, 3] - w[left, 2], v[left, :, 2:]
            rows, h, refined = rows[moving], h[moving], refined[moving]
            if not rows.size:
                break
        at = refined
    ok = ((gap <= FLAT_GAP_TOL * np.asarray(scales)[owner])
          & (np.abs(theta - theta0) <= np.asarray(steps)[owner]))
    if not ok.any():
        return empty
    cos_sin = np.array((np.cos(theta[ok]), np.sin(theta[ok]))).T
    hi, lo = _segment_ends(mats[ok], herm[ok], cos_sin, top[ok])

    found: list[list[FlatPortion]] = [[] for _ in scales]
    used: list[list[float]] = [[] for _ in scales]
    segments = zip(owner[ok].tolist(), theta[ok].tolist(), hi.tolist(), lo.tolist())
    for i, theta_star, p_hi, p_lo in segments:
        if any(
            abs((theta_star - t + math.pi) % (2 * math.pi) - math.pi) < 0.75 * steps[i]
            for t in used[i]
        ):
            continue
        length = abs(p_hi - p_lo)
        if length <= _FLAT_MIN_LENGTH_REL * scales[i]:
            continue
        used[i].append(theta_star)
        direction = (p_hi - p_lo) / length
        if direction.imag < 0 or (direction.imag == 0 and direction.real < 0):
            direction = -direction
        origin = boundaries[i].origin
        found[i].append(
            FlatPortion(
                direction=direction,
                endpoints=(p_hi + origin, p_lo + origin),
                length=length,
                support_theta=theta_star % (2 * math.pi),
            )
        )
    return [tuple(sorted(flats, key=lambda f: f.support_theta)) for flats in found]
