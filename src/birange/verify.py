"""Independent oracles: hull geometry, factorization residual, commutant.

Nothing here trusts the classification formulas.  The hull comparison sees
only ellipse geometry and boundary samples, the factorization residual only
the generating-polynomial coefficients and the factor parameters, and the
commutant test only the assembled matrix, so each one can falsify the
criteria module on its own.

The hull oracle is a support-function distance.  The support function of
conv(E1 u E2) is max(h_E1, h_E2), and for compact convex sets the Hausdorff
distance is max over theta of |h_K(theta) - h_L(theta)| (Schneider, *Convex
Bodies: The Brunn-Minkowski Theory*, section 1.8).  The boundary oracle
already returns h_W(theta_k) at every sampled direction (Johnson 1978, SIAM
J. Numer. Anal. 15), so :func:`hull_support_gap` compares the two in O(n)
with no discretization floor.  :func:`hull_boundary`, :func:`hausdorff` and
:func:`compare_boundaries` (the earlier O(n^2) point-cloud comparison) are
kept for one more change as cross-check oracles in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criteria import Ellipse, EllipsePairParams
from .forms import BlockForm
from .linalg import CMatrix
from .nrcore import BoundarySample, generating_poly

__all__ = [
    "EmptyInputError",
    "HullComparison",
    "FactorizationResidual",
    "hull_support_gap",
    "hull_boundary",
    "hausdorff",
    "compare_boundaries",
    "factorization_residual",
    "commutant_dim",
]


class EmptyInputError(ValueError):
    """Hausdorff distance of an empty point set is undefined."""


@dataclass(frozen=True)
class HullComparison:
    """Distance data between a candidate hull and oracle boundary samples."""

    hausdorff: float
    max_pointwise: float
    samples: int


def _support_values(e: Ellipse, theta: np.ndarray) -> np.ndarray:
    """:meth:`Ellipse.support` at every angle of ``theta``."""
    psi = e.tilt - theta
    radial = np.hypot(e.semi_major * np.cos(psi), e.semi_minor * np.sin(psi))
    return e.center.real * np.cos(theta) + e.center.imag * np.sin(theta) + radial


def hull_support_gap(
    e1: Ellipse, e2: Ellipse, samples: Sequence[BoundarySample]
) -> float:
    """Hausdorff distance between conv(E1 u E2) and the sampled range.

    The largest |max(h_E1, h_E2) - support_value| over the samples'
    directions, i.e. the support-function form of the Hausdorff distance
    restricted to the sampled directions.
    """
    if not samples:
        raise EmptyInputError("need at least one boundary sample")
    theta = np.fromiter((s.theta for s in samples), float, len(samples))
    oracle = np.fromiter((s.support_value for s in samples), float, len(samples))
    hull = np.maximum(_support_values(e1, theta), _support_values(e2, theta))
    return float(np.abs(hull - oracle).max())


def hull_boundary(e1: Ellipse, e2: Ellipse, n: int = 2048) -> list[complex]:
    """Boundary of conv(E1 u E2) sampled at n support directions.

    For each direction the support point of the winning ellipse is returned;
    on (near-)ties the point with the larger transverse coordinate is taken,
    matching the convention of the boundary-support oracle so the two
    samplings stay comparable across flat portions.
    """
    if n < 64:
        raise ValueError("need at least 64 support directions")
    sizes = [
        abs(e1.center), abs(e2.center), e1.semi_major, e2.semi_major, 1.0
    ]
    tie_tol = 1e-12 * max(sizes)
    pts: list[complex] = []
    for k in range(n):
        theta = 2.0 * math.pi * k / n
        h1 = e1.support(theta)
        h2 = e2.support(theta)
        if abs(h1 - h2) <= tie_tol:
            p1 = e1.support_point(theta)
            p2 = e2.support_point(theta)
            rotate = complex(math.cos(theta), -math.sin(theta))
            pts.append(p1 if (rotate * p1).imag >= (rotate * p2).imag else p2)
        elif h1 > h2:
            pts.append(e1.support_point(theta))
        else:
            pts.append(e2.support_point(theta))
    return pts


def _one_sided(a: np.ndarray, b: np.ndarray) -> float:
    worst = 0.0
    chunk = max(1, (1 << 20) // max(len(b), 1))
    for start in range(0, len(a), chunk):
        block = a[start : start + chunk]
        d = np.abs(block[:, None] - b[None, :]).min(axis=1)
        worst = max(worst, float(d.max()))
    return worst


def hausdorff(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    pa = np.asarray(list(a), dtype=complex)
    pb = np.asarray(list(b), dtype=complex)
    if pa.size == 0 or pb.size == 0:
        raise EmptyInputError("both point sets must be non-empty")
    return max(_one_sided(pa, pb), _one_sided(pb, pa))


def compare_boundaries(
    hull_pts: Sequence[complex], samples: Sequence[BoundarySample]
) -> HullComparison:
    """Hausdorff and matched-direction distances between hull and oracle."""
    oracle = [s.point for s in samples]
    h = hausdorff(hull_pts, oracle)
    if len(hull_pts) == len(oracle):
        max_pt = max(abs(p - q) for p, q in zip(hull_pts, oracle))
    else:
        max_pt = h
    return HullComparison(hausdorff=h, max_pointwise=max_pt, samples=len(oracle))


@dataclass(frozen=True)
class FactorizationResidual:
    """Coefficient mismatch between the generating polynomial and the
    claimed product of two quadratic factors, maximized over a theta grid.

    ``linear_max`` is the worst mismatch in the lambda^2 coefficient,
    ``quadratic_max`` the worst mismatch in the constant coefficient; both
    are normalized at their own degree and summed into ``total``.
    """

    total: float
    linear_max: float
    quadratic_max: float


def factorization_residual(
    bf: BlockForm, params: EllipsePairParams, grid: int = 64
) -> FactorizationResidual:
    """How far the generating polynomial is from the two-factor product.

    The product ((lam + p sin t)^2 + Omega)((lam - p sin t)^2 + Omega) with
    Omega = x cos 2t + y sin 2t - z matches the generating polynomial iff
    its lambda^2 coefficient equals -xi1 and its constant term equals xi2.
    """
    if grid < 16:
        raise ValueError("need at least 16 grid points")
    gp = generating_poly(bf)
    p, x, y, z = params.p, params.x, params.y, params.z
    fro = bf.assemble().frobenius()
    norm2 = 1.0 + fro * fro
    norm4 = 1.0 + fro**4
    worst_lin = 0.0
    worst_quad = 0.0
    worst_total = 0.0
    for k in range(grid):
        t = 2.0 * math.pi * k / grid
        s2 = (p * math.sin(t)) ** 2
        omega = x * math.cos(2 * t) + y * math.sin(2 * t) - z
        lin = abs(2.0 * (s2 - omega) - gp.xi1(t))
        quad = abs((s2 + omega) ** 2 - gp.xi2(t))
        worst_lin = max(worst_lin, lin)
        worst_quad = max(worst_quad, quad)
        worst_total = max(worst_total, lin / norm2 + quad / norm4)
    return FactorizationResidual(
        total=worst_total,
        linear_max=worst_lin / norm2,
        quadratic_max=worst_quad / norm4,
    )


def commutant_dim(m, tol: float = 1e-9) -> int:
    """Dimension of {X : XM = MX and XM* = M*X}; 1 means unitarily irreducible.

    The two commutation constraints stack into a 32x16 linear system over
    the vectorized X; its null-space dimension is counted by singular values
    below ``tol`` times the matrix norm.
    """
    if isinstance(m, CMatrix):
        a = np.array(m.rows, dtype=complex)
    else:
        a = np.asarray(m, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    ident = np.eye(4, dtype=complex)
    top = np.kron(ident, a) - np.kron(a.T, ident)
    bot = np.kron(ident, a.conj().T) - np.kron(a.conj(), ident)
    stacked = np.vstack([top, bot])
    svals = np.linalg.svd(stacked, compute_uv=False)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    dim = int(np.sum(svals < tol * scale))
    return max(dim, 0)
