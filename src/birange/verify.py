"""Independent oracles and the audit of a verdict against them.

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

:func:`audit` runs the oracles once per matrix and turns their agreement
with a verdict into consistency :class:`Check` values; :func:`verify_checks`
adds the spot checks that only ``birange verify`` runs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nrcore
from .criteria import (
    Ellipse,
    EllipsePairParams,
    ReciprocalShape,
    Verdict,
    ellipse_pair_params,
    real_case_ii,
)
from .forms import TOL, BlockForm
from .linalg import CMatrix

__all__ = [
    "EmptyInputError",
    "Check",
    "AuditReport",
    "HullComparison",
    "FactorizationResidual",
    "audit",
    "verify_checks",
    "hull_support_gap",
    "hull_boundary",
    "hausdorff",
    "compare_boundaries",
    "factorization_residual",
    "commutant_dim",
]

# Largest hull/oracle support gap accepted, relative to the sampled diameter.
_HULL_REL = 1e-6
_HULL = "hull comparison"
# Singular values below this times the matrix norm span the commutant.
_COMMUTANT_TOL = 1e-9


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


def _sample_arrays(
    samples: Sequence[nrcore.BoundarySample],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directions, support values and boundary points of the samples."""
    n = len(samples)
    return (
        np.fromiter((s.theta for s in samples), float, n),
        np.fromiter((s.support_value for s in samples), float, n),
        np.fromiter((s.point for s in samples), complex, n),
    )


def _hull_gap(
    e1: Ellipse, e2: Ellipse, theta: np.ndarray, support: np.ndarray
) -> float:
    hull = np.maximum(_support_values(e1, theta), _support_values(e2, theta))
    return float(np.abs(hull - support).max())


def hull_support_gap(
    e1: Ellipse, e2: Ellipse, samples: Sequence[nrcore.BoundarySample]
) -> float:
    """Hausdorff distance between conv(E1 u E2) and the sampled range.

    The largest |max(h_E1, h_E2) - support_value| over the samples'
    directions, i.e. the support-function form of the Hausdorff distance
    restricted to the sampled directions.
    """
    if not samples:
        raise EmptyInputError("need at least one boundary sample")
    theta, support, _ = _sample_arrays(samples)
    return _hull_gap(e1, e2, theta, support)


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
    hull_pts: Sequence[complex], samples: Sequence[nrcore.BoundarySample]
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
    are normalized by ``bf.scale()`` at their own degree (2 and 4) and
    summed into ``total``.
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
    gp = nrcore.generating_poly(bf)
    p, x, y, z = params.p, params.x, params.y, params.z
    norm2 = bf.scale() ** 2
    norm4 = norm2 * norm2
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


def commutant_dim(m) -> int:
    """Dimension of {X : XM = MX and XM* = M*X}; 1 means unitarily irreducible.

    The two commutation constraints stack into a 32x16 linear system over
    the vectorized X; its null-space dimension is counted by singular values
    below ``_COMMUTANT_TOL`` times the matrix norm.
    """
    a = nrcore._as_ndarray(m)
    if a.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    ident = np.eye(4, dtype=complex)
    top = np.kron(ident, a) - np.kron(a.T, ident)
    bot = np.kron(ident, a.conj().T) - np.kron(a.conj(), ident)
    stacked = np.vstack([top, bot])
    svals = np.linalg.svd(stacked, compute_uv=False)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    dim = int(np.sum(svals < _COMMUTANT_TOL * scale))
    return max(dim, 0)


@dataclass(frozen=True)
class Check:
    """One audit gate: what it tests, whether it held, and what it measured."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Oracle results for one matrix and the consistency checks of a verdict.

    ``eigenvalues`` include the trace shift; ``theta``, ``support`` and
    ``points`` are the boundary samples; ``hull_gap`` is None unless the
    verdict is positive with ellipses, ``factorization`` None unless the
    verdict carries a reduced form.
    """

    eigenvalues: tuple[complex, ...]
    theta: np.ndarray
    support: np.ndarray
    points: np.ndarray
    flats: tuple[nrcore.FlatPortion, ...]
    commutant_dim: int
    diameter: float
    hull_gap: float | None
    factorization: FactorizationResidual | None
    checks: tuple[Check, ...]

    @property
    def failures(self) -> list[str]:
        """Details of the failed consistency checks."""
        return [c.detail for c in self.checks if not c.passed]


def _flat_checks(verdict: Verdict, flats) -> list[Check]:
    """A bi-elliptical boundary has exactly two flat portions, whose length
    and direction match the eigenvalue pair sum singled out by the criterion."""
    combo = verdict.diagnostics.get("sigma_sum_theta")
    if combo is None:
        return []
    expected = cmath.exp(1j * verdict.diagnostics.get("theta", 0.0)) * combo
    if len(flats) != 2:
        return [Check("flat portions", False,
                      f"expected 2 flat portions, found {len(flats)}")]
    checks = []
    for f in flats:
        turn = cmath.phase(f.direction) - cmath.phase(expected)
        ok = (abs(f.length - abs(expected)) <= 1e-6 * max(abs(expected), 1e-12)
              and abs((turn + math.pi / 2) % math.pi - math.pi / 2) <= 1e-6)
        checks.append(Check("flat portions", ok, (
            f"flat portion (length {f.length:.9g}) "
            f"{'matches' if ok else 'does not match'} "
            f"sigma pair sum {abs(expected):.9g}")))
    return checks


def audit(
    bf: BlockForm,
    verdict: Verdict,
    samples: int = nrcore.DEFAULT_SAMPLES,
    matrix: CMatrix | None = None,
    reciprocal: ReciprocalShape | None = None,
) -> AuditReport:
    """Run the oracles once on ``bf`` and check its ``check_general`` verdict.

    The oracles sample ``matrix`` (default ``bf.assemble()``; a raw input
    passes itself) in ``samples`` directions.  ``reciprocal`` is the
    reciprocal classification when ``bf`` came from a reciprocal form and
    must agree with the verdict.  A positive verdict must have its hull of
    ellipses within ``1e-6 * diameter`` of the sampled range and flat
    portions that match the eigenvalue pair sum.  Whenever the verdict
    carries a reduced form, the generating polynomial must factor into the
    two claimed quadratics up to a factorization residual of ``TOL``.  Every
    verdict must be free of a criterion/reduction mismatch.
    """
    if matrix is None:
        matrix = bf.assemble()
    eigenvalues = tuple(e + bf.shift for e in nrcore.spectrum(bf).all_eigenvalues)
    boundary = nrcore.boundary_support(matrix, samples)
    flats = tuple(nrcore.flat_portions(matrix, boundary))
    dim = commutant_dim(matrix)
    theta, support, points = _sample_arrays(boundary)
    diameter = math.hypot(float(np.ptp(points.real)), float(np.ptp(points.imag)))

    checks = []
    if reciprocal is not None:
        ok = (reciprocal is ReciprocalShape.BI_ELLIPTICAL) == verdict.bielliptical
        checks.append(Check("reciprocal agreement", ok, (
            f"reciprocal classification {'agrees' if ok else 'disagrees'} "
            "with the general check")))
    hull_gap = fact = None
    if verdict.bielliptical and verdict.ellipses is not None:
        hull_gap = _hull_gap(*verdict.ellipses, theta, support)
        ok = hull_gap <= _HULL_REL * diameter
        checks.append(Check(_HULL, ok, f"Hausdorff {hull_gap:.3e}" if ok else (
            f"hull/oracle Hausdorff {hull_gap:.3e} exceeds 1e-6 * diameter")))
        checks += _flat_checks(verdict, flats)
    sf = verdict.diagnostics.get("reduced_form")
    if sf is not None:
        fact = factorization_residual(sf.to_block(), ellipse_pair_params(sf))
        ok = fact.total <= TOL
        checks.append(Check("factorization", ok, (
            f"factorization residual {fact.total:.3e}"
            + ("" if ok else f" exceeds {TOL:g}"))))
    ok = not verdict.diagnostics.get("mismatch")
    checks.append(Check("criterion/reduction agreement", ok, "no mismatch" if ok
                        else "criterion/reduction verdict mismatch"))
    return AuditReport(eigenvalues, theta, support, points, flats, dim, diameter,
                       hull_gap, fact, tuple(checks))


def verify_checks(
    bf: BlockForm, verdict: Verdict, report: AuditReport, seed: int
) -> list[Check]:
    """The checks ``birange verify`` reports, in order.

    Spot checks on the audit's samples: central symmetry about the shift,
    eigenvalue containment in the sampled support polytope, and pencil
    eigenvalues (the closed form against LAPACK ``eigvalsh`` of the 4x4
    imaginary part) and the generating polynomial at 16 random directions
    each, drawn from ``seed``.  A positive verdict adds the audit's hull
    check and unitary irreducibility: commutant dimension 1, or 2 in the
    paper's real case (ii), whose matrices are reducible.  Every other
    failed consistency check comes last.
    """
    rng = np.random.default_rng(seed)
    scale = bf.scale()

    # Sample k against its antipode k + n // 2.
    centered = report.points - bf.shift
    half = len(centered) // 2
    sym = float(np.abs(centered[:half] + centered[half : 2 * half]).max())
    eig = np.asarray(report.eigenvalues, dtype=complex)
    excess = (np.exp(-1j * report.theta)[None, :] * eig[:, None]).real - report.support
    worst_out = float(excess.max())

    thetas = rng.uniform(0.0, 2.0 * math.pi, size=16)
    a4 = nrcore._as_ndarray(bf.normalized_matrix())
    vals = np.linalg.eigvalsh(nrcore._imag_part_at(a4, thetas[:, None, None]))
    expect = np.array([
        sorted((-lam1, -lam2, lam2, lam1))
        for lam1, lam2 in (nrcore.pencil_eigs(bf, float(t)) for t in thetas)
    ])
    worst_pencil = float(np.abs(vals - expect).max())
    gp = nrcore.generating_poly(bf)
    worst_gen = 0.0
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=16):
        for lam in nrcore.pencil_eigs(bf, float(theta)):
            worst_gen = max(worst_gen, abs(gp.evaluate(lam, float(theta))))

    # The sampled points carry the trace shift, so subtracting it leaves a
    # roundoff of a few eps * |shift|: at most 14 eps * |shift| above the
    # diameter term on 8 matrices at t = 1e-6..1e3, |shift| = 1..1e8, while
    # |shift| / t <= 1e10.
    sym_bound = (1e-8 * max(report.diameter, 1e-12)
                 + 64 * np.finfo(float).eps * abs(bf.shift))
    checks = [
        Check("central symmetry", sym <= sym_bound, f"antipodal mismatch {sym:.3e}"),
        Check("eigenvalue containment", worst_out <= 1e-9 * (scale + abs(bf.shift)),
              f"worst support excess {worst_out:.3e}"),
        Check("pencil eigenvalues", worst_pencil <= 1e-11 * scale,
              f"worst deviation {worst_pencil:.3e}"),
        Check("generating polynomial", worst_gen <= 1e-9 * scale**4,
              f"worst residual {worst_gen:.3e}"),
    ]
    if verdict.bielliptical:
        checks += [c for c in report.checks if c.name == _HULL]
        sf = verdict.diagnostics.get("reduced_form")
        reducible = sf is not None and real_case_ii(sf)
        checks.append(Check(
            "unitary irreducibility", report.commutant_dim == (2 if reducible else 1),
            f"commutant dimension {report.commutant_dim}"
            + (" (real case ii, reducible: 2 expected)" if reducible else "")))
    return checks + [c for c in report.checks if not c.passed and c.name != _HULL]
