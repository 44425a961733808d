"""Numerical range core: spectra, pencil eigenvalues, boundary oracle.

The closed-form side (spectra via the 2x2 product block, pencil eigenvalues,
the quartic generating polynomial of the boundary curve) is computed with
the deterministic fixed-size arithmetic from :mod:`birange.linalg`.  The
support-function boundary oracle and the flat-portion detector are oracles:
they see only the assembled 4x4 matrix and use LAPACK (``numpy.linalg``)
underneath, so agreement between the two sides is a genuine cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .forms import BlockForm
from .linalg import CMatrix, eig2, herm_eig2, sqrt_principal

__all__ = [
    "Spectrum",
    "GeneratingPoly",
    "BoundarySample",
    "FlatPortion",
    "spectrum",
    "pencil_eigs",
    "generating_poly",
    "boundary_support",
    "flat_portions",
    "golden_min",
]

# Default resolution of the support-function oracle; the flat-portion
# detector's gap tolerance, sample floor and length cutoff; and the
# eigenvalue-gap tolerance below which a support direction counts as
# degenerate.  Tolerances are relative to the matrix norm.
DEFAULT_SAMPLES = 2048
FLAT_GAP_TOL = 1e-7
FLAT_MIN_SAMPLES = 512
_FLAT_MIN_LENGTH_REL = 1e-8
_DEGENERATE_REL = 1e-11
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo: float, hi: float) -> float:
    """Golden-section minimizer of a unimodal ``f`` over [lo, hi].

    Stops after 90 steps or once the bracket is narrower than 1e-14, and
    returns the bracket's midpoint.
    """
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(90):
        if hi - lo < 1e-14:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue data of a block form: one representative per +- pair."""

    sigma1: complex
    sigma2: complex
    z1: complex
    z2: complex

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
    return Spectrum(
        sigma1=sqrt_principal(z1 + a2),
        sigma2=sqrt_principal(z2 + a2),
        z1=z1,
        z2=z2,
    )


def pencil_eigs(bf: BlockForm, theta: float) -> tuple[float, float]:
    """Nonnegative eigenvalues of Im(e^{-i theta} A), largest first.

    The four eigenvalues are +-lambda_j with
    lambda_j = sqrt(Im(e^{-i theta} alpha)^2 + mu_j / 4) and mu_j the
    (nonnegative) eigenvalues of H - e^{-2i theta} Z - e^{2i theta} Z*.
    """
    e2 = cmath.exp(-2j * theta)
    mu_lo, mu_hi = herm_eig2(bf.H - e2 * bf.Z - e2.conjugate() * bf.Z.H)
    base = (cmath.exp(-1j * theta) * bf.alpha).imag ** 2
    lam1 = math.sqrt(base + max(mu_hi, 0.0) / 4.0)
    lam2 = math.sqrt(base + max(mu_lo, 0.0) / 4.0)
    return lam1, lam2


@dataclass(frozen=True)
class GeneratingPoly:
    """Coefficients of the boundary generating polynomial.

    The characteristic polynomial of Im(e^{-i theta} A) is
    ``lam^4 - xi1(theta) lam^2 + xi2(theta)``; xi1 is a degree-2 and 16*xi2
    a degree-4 trigonometric polynomial whose coefficients are stored here.
    """

    xi1_const: float
    xi1_cos2: float
    xi1_sin2: float
    xi2_const_x16: float
    xi2_cos2_x16: float
    xi2_sin2_x16: float
    xi2_cos4_x16: float
    xi2_sin4_x16: float
    zeta1: complex
    zeta2: complex

    def xi1(self, theta: float) -> float:
        return (
            self.xi1_const
            + self.xi1_cos2 * math.cos(2 * theta)
            + self.xi1_sin2 * math.sin(2 * theta)
        )

    def xi2(self, theta: float) -> float:
        return (
            self.xi2_const_x16
            + self.xi2_cos2_x16 * math.cos(2 * theta)
            + self.xi2_sin2_x16 * math.sin(2 * theta)
            + self.xi2_cos4_x16 * math.cos(4 * theta)
            + self.xi2_sin4_x16 * math.sin(4 * theta)
        ) / 16.0

    def evaluate(self, lam: float, theta: float) -> float:
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
        zeta1=zeta1,
        zeta2=zeta2,
    )


@dataclass(frozen=True)
class BoundarySample:
    """One support-function sample of the numerical range boundary."""

    theta: float
    point: complex
    support_value: float
    multiplicity_gap: float


def _as_ndarray(m) -> np.ndarray:
    if isinstance(m, CMatrix):
        return np.array(m.rows, dtype=complex)
    a = np.asarray(m, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    return a


def _real_part_at(a: np.ndarray, theta: float) -> np.ndarray:
    e = np.exp(-1j * theta)
    return 0.5 * (e * a + np.conj(e) * a.conj().T)


def _imag_part_at(a: np.ndarray, theta: float) -> np.ndarray:
    e = np.exp(-1j * theta)
    return (e * a - np.conj(e) * a.conj().T) / 2j


def _field_value(a: np.ndarray, x: np.ndarray) -> complex:
    return complex(np.vdot(x, a @ x))


def _top_space_endpoints(
    a: np.ndarray, theta: float
) -> tuple[float, complex, complex]:
    """Support value and extreme field values over the top 2-dim eigenspace.

    At a degenerate support direction the set of attainable field values is
    a segment; its endpoints are read off the compression of the transverse
    (imaginary) part onto the top eigenspace of the directional real part.
    """
    re_mat = _real_part_at(a, theta)
    w, v = np.linalg.eigh(re_mat)
    basis = v[:, 2:4]
    h = 0.5 * (w[3] + w[2])
    im_mat = _imag_part_at(a, theta)
    comp = basis.conj().T @ im_mat @ basis
    comp = 0.5 * (comp + comp.conj().T)
    nu, y = np.linalg.eigh(comp)
    hi = basis @ y[:, 1]
    lo = basis @ y[:, 0]
    return h, _field_value(a, hi), _field_value(a, lo)


def boundary_support(m, n: int = DEFAULT_SAMPLES) -> list[BoundarySample]:
    """Sample the numerical range boundary at n equispaced support directions.

    For each direction theta the support value is the top eigenvalue of
    Re(e^{-i theta} M) and the boundary point is the field value of a top
    eigenvector.  When the top eigenvalue is (numerically) degenerate the
    point returned is the endpoint of the flat segment with the larger
    transverse coordinate, which keeps the sampling deterministic and lets
    hull comparisons use matched directions even across flats.
    """
    if n < 8:
        raise ValueError("need at least 8 support directions")
    a = _as_ndarray(m)
    scale = float(np.linalg.norm(a))
    thetas = 2.0 * np.pi * np.arange(n) / n
    e = np.exp(-1j * thetas)
    herms = 0.5 * (e[:, None, None] * a + np.conj(e)[:, None, None] * a.conj().T)
    w, v = np.linalg.eigh(herms)
    supports = w[:, 3]
    gaps = w[:, 3] - w[:, 2]
    tops = v[:, :, 3]
    points = np.einsum("ni,ij,nj->n", tops.conj(), a, tops)

    out: list[BoundarySample] = []
    deg_tol = _DEGENERATE_REL * max(scale, 1e-300)
    for k in range(n):
        theta = float(thetas[k])
        if gaps[k] <= deg_tol:
            _, hi, _ = _top_space_endpoints(a, theta)
            point = hi
        else:
            point = complex(points[k])
        out.append(
            BoundarySample(
                theta=theta,
                point=point,
                support_value=float(supports[k]),
                multiplicity_gap=float(gaps[k]),
            )
        )
    return out


@dataclass(frozen=True)
class FlatPortion:
    """A line segment on the numerical range boundary."""

    direction: complex
    endpoints: tuple[complex, complex]
    length: float
    support_theta: float


def _support_gap(a: np.ndarray, theta: float) -> float:
    w = np.linalg.eigvalsh(_real_part_at(a, theta))
    return float(w[3] - w[2])


def flat_portions(m, samples: list[BoundarySample]) -> list[FlatPortion]:
    """Locate flat portions of the boundary from support samples.

    Local minima of the multiplicity gap are refined by golden-section
    search; directions whose refined gap stays below ``FLAT_GAP_TOL`` times
    the matrix norm contribute a segment, whose endpoints come from the
    compression of the transverse part onto the degenerate top eigenspace.
    Degeneracies that do not open up a segment (repeated eigenvalues of a
    normal matrix, say) are discarded by the ``_FLAT_MIN_LENGTH_REL`` cutoff.
    """
    n = len(samples)
    if n < FLAT_MIN_SAMPLES:
        raise ValueError(
            f"flat detection needs at least {FLAT_MIN_SAMPLES} support samples"
        )
    a = _as_ndarray(m)
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return []
    gaps = np.array([s.multiplicity_gap for s in samples])
    step = 2.0 * math.pi / n

    # Refining every local minimum is cheap (a handful per matrix) and
    # avoids guessing how deep an unrefined grid gap can be.
    candidates = []
    for k in range(n):
        g = gaps[k]
        if g <= gaps[(k - 1) % n] and g <= gaps[(k + 1) % n]:
            candidates.append(k)

    found: list[FlatPortion] = []
    used_thetas: list[float] = []
    for k in candidates:
        theta0 = samples[k].theta
        theta_star = golden_min(
            lambda t: _support_gap(a, t), theta0 - step, theta0 + step
        )
        if _support_gap(a, theta_star) > FLAT_GAP_TOL * scale:
            continue
        if any(
            abs((theta_star - t + math.pi) % (2 * math.pi) - math.pi) < 0.75 * step
            for t in used_thetas
        ):
            continue
        h, hi, lo = _top_space_endpoints(a, theta_star)
        length = abs(hi - lo)
        if length <= _FLAT_MIN_LENGTH_REL * scale:
            continue
        used_thetas.append(theta_star)
        direction = (hi - lo) / length
        if direction.imag < 0 or (direction.imag == 0 and direction.real < 0):
            direction = -direction
        found.append(
            FlatPortion(
                direction=direction,
                endpoints=(hi, lo),
                length=length,
                support_theta=theta_star % (2 * math.pi),
            )
        )
    found.sort(key=lambda f: f.support_theta)
    return found
