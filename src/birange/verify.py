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
cross-check oracles in the tests; they stay until the benchmark's tracer
(``bench/tracing.py`` ``LAYERS``) stops looking them up (ROADMAP item 1).

:func:`audit` is the one audit of a parsed document: it finds the block
form, takes ``check_general``'s verdict unless given one, and samples the
boundary once; its report derives the consistency :class:`Check` values
of the verdict from the oracles, and the flat-portion and commutant
oracles run only when their results are read.  :func:`check_documents`
audits a sequence of documents, whose reports share one flat-portion
pass, which refines every document's flats together on the first read of
any; the commutant stays per document.
:func:`verify_checks` adds the spot checks that only ``birange verify``
runs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import nrcore
from .criteria import (
    Ellipse,
    EllipsePairParams,
    ReciprocalShape,
    Verdict,
    check_general,
    ellipse_pair_params,
    reciprocal_classify,
    reducible_margin,
)
from .forms import TOL, BlockForm, ReciprocalForm, as_block
from .linalg import CMatrix

__all__ = [
    "EmptyInputError",
    "Check",
    "AuditReport",
    "HullComparison",
    "FactorizationResidual",
    "audit",
    "check_documents",
    "verify_checks",
    "hull_support_gap",
    "hull_boundary",
    "hausdorff",
    "compare_boundaries",
    "factorization_residual",
    "commutant_dim",
]

# The audit's geometric resolution: the largest hull/oracle support gap
# accepted, relative to the range's diameter (the diagonal of its bounding
# box, ``AuditReport.diameter``), and the flat portions' largest relative
# length error and turn (radians) against the center offset.
_HULL_REL = 1e-6
_HULL = "hull comparison"
# Singular values below this times the oracle scale span the commutant.
_COMMUTANT_TOL = 1e-9
# Commutant dimensions accepted up to each ``criteria.reducible_margin``:
# the extra singular values shrink with it at a form-dependent rate.
_IRREDUCIBILITY = ((TOL / 100, (2,), " (reducible zero-diagonal form: 2 expected)"),
                   (100 * TOL, (1, 2), " (near a reducible form: 1 or 2 accepted)"),
                   (math.inf, (1,), ""))
# The 16 directions of ``birange verify``'s spot checks, 2 pi frac(k / phi)
# for k = 1..16 with phi the golden ratio, none within 1e-3 of a multiple of
# pi / 16; and their ``nrcore._pencil`` rows (-sin, cos), Im(e^{-i theta} A).
_SPOT_THETAS = 2.0 * np.pi * (np.arange(1, 17) * 2.0 / (1.0 + math.sqrt(5.0)) % 1.0)
_SPOT_IMAG = np.stack((-np.sin(_SPOT_THETAS), np.cos(_SPOT_THETAS)), axis=1)


class EmptyInputError(ValueError):
    """Hausdorff distance of an empty point set is undefined."""


@dataclass(frozen=True)
class HullComparison:
    """Distance data between a candidate hull and oracle boundary samples."""

    hausdorff: float
    max_pointwise: float
    samples: int


def _support_values(e: Ellipse, cos_sin: np.ndarray) -> np.ndarray:
    """The support function of ``e``, the max of Re(e^{-i theta} w) over
    the ellipse, at the directions whose cosine and sine are the rows of
    ``cos_sin``; those of tilt - theta follow by angle addition."""
    c, s = math.cos(e.tilt), math.sin(e.tilt)
    radial = np.hypot(e.semi_major * (cos_sin @ [c, s]), e.semi_minor * (cos_sin @ [s, -c]))
    return cos_sin @ [e.center.real, e.center.imag] + radial


def hull_support_gap(e1: Ellipse, e2: Ellipse, boundary: nrcore.Boundary) -> float:
    """Hausdorff distance between conv(E1 u E2) and the sampled range.

    The largest |max(h_E1, h_E2) - support| over the boundary's directions,
    with the ellipses moved by -``boundary.origin`` into the plane of the
    shift-free samples (exact, by Sterbenz's lemma): the support-function
    form of the Hausdorff distance restricted to the sampled directions.
    """
    n = len(boundary.theta)
    if n == 0:
        raise EmptyInputError("need at least one boundary sample")
    _, cos_sin = nrcore._direction_grid(n)
    e1, e2 = (replace(e, center=e.center - boundary.origin) for e in (e1, e2))
    hull = np.maximum(_support_values(e1, cos_sin), _support_values(e2, cos_sin))
    return float(np.abs(hull - boundary.support).max())


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
    thetas, cos_sin = nrcore._direction_grid(n)
    pts: list[complex] = []
    for theta, h1, h2 in zip(thetas.tolist(), _support_values(e1, cos_sin).tolist(),
                             _support_values(e2, cos_sin).tolist()):
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
    hull_pts: Sequence[complex], boundary: nrcore.Boundary
) -> HullComparison:
    """Hausdorff and matched-direction distances between hull and oracle."""
    oracle = boundary.points
    h = hausdorff(hull_pts, oracle)
    if len(hull_pts) == len(oracle):
        max_pt = float(np.abs(np.asarray(hull_pts) - oracle).max())
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


def factorization_residual(bf: BlockForm, params: EllipsePairParams) -> FactorizationResidual:
    """How far the generating polynomial is from the two-factor product.

    The product ((lam + p sin t)^2 + Omega)((lam - p sin t)^2 + Omega) with
    Omega = x cos 2t + y sin 2t - z matches the generating polynomial iff
    its lambda^2 coefficient equals -xi1 and its constant term equals xi2.
    Both are compared at 64 equispaced directions at once.
    """
    gp = nrcore.generating_poly(bf)
    p, x, y, z = params.p, params.x, params.y, params.z
    norm2 = bf.scale() ** 2
    norm4 = norm2 * norm2
    t = 2.0 * np.pi * np.arange(64) / 64
    s2 = (p * np.sin(t)) ** 2
    omega = x * np.cos(2 * t) + y * np.sin(2 * t) - z
    lin = np.abs(2.0 * (s2 - omega) - gp.xi1(t))
    quad = np.abs((s2 + omega) ** 2 - gp.xi2(t))
    return FactorizationResidual(
        total=float((lin / norm2 + quad / norm4).max()),
        linear_max=float(lin.max()) / norm2,
        quadratic_max=float(quad.max()) / norm4,
    )


def commutant_dim(m) -> int:
    """Dimension of {X : XM = MX and XM* = M*X}; 1 means unitarily irreducible.

    The two commutation constraints stack into a 32x16 linear system over
    the vectorized X; its null-space dimension is counted by singular values
    below ``_COMMUTANT_TOL`` times the oracle scale (the norm of the matrix
    less its trace shift, which the commutant does not see).
    """
    a = nrcore._as_ndarray(m)
    svals = np.linalg.svd(_commutant_system(a), compute_uv=False)
    scale = max(nrcore._oracle_scale(a), 1e-300)
    return int(np.sum(svals < _COMMUTANT_TOL * scale))


def _commutant_system(a: np.ndarray) -> np.ndarray:
    """The 32x16 matrix of X -> (XA - AX, XA* - A*X) on row-major vec(X).

    Row block k is kron(I, M_k) - kron(M_k^T, I) for M_k = A, A*, built as
    broadcast products indexed (k, i, p, j, q): the same products as
    ``np.kron``, so the same entries, without its overhead.
    """
    ident = np.eye(4, dtype=complex)
    mats = np.stack((a, a.conj().T))
    left = ident[:, None, :, None] * mats[:, None, :, None, :]
    right = mats.transpose(0, 2, 1)[:, :, None, :, None] * ident[:, None, :]
    return (left - right).reshape(32, 16)


@dataclass(frozen=True)
class Check:
    """One audit gate: what it tests, whether it held, and what it measured."""

    name: str
    passed: bool
    detail: str


class _FlatPass:
    """The boundaries of one :func:`check_documents` call, whose flat
    portions one :func:`nrcore.flat_portions` call refines together when
    any report first reads them; a single :func:`audit` is a pass of one."""

    def __init__(self, boundaries: Sequence[nrcore.Boundary]):
        self._boundaries = boundaries
        self._flats: dict[nrcore.Boundary, tuple[nrcore.FlatPortion, ...]] | None = None

    def flats(self, boundary: nrcore.Boundary) -> tuple[nrcore.FlatPortion, ...]:
        """The flat portions of ``boundary``, one of this pass's."""
        if self._flats is None:
            self._flats = dict(zip(self._boundaries, nrcore.flat_portions(self._boundaries)))
        return self._flats[boundary]


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Oracle results for one matrix and the consistency checks of a verdict.

    ``block``, ``verdict`` and ``reciprocal`` are what :func:`audit`
    audited.  ``eigenvalues`` include the trace shift; ``boundary`` samples
    the shift-free ``boundary.matrix``, the audited matrix less a quarter
    of its trace, ``boundary.origin``, times I: the support function and
    the top eigenvalue gap at :func:`audit`'s ``samples`` equispaced
    directions, which set what the hull gate resolves; ``diameter`` is the
    diagonal of the range's bounding box, h(0) + h(pi) wide and
    h(pi / 2) + h(3 pi / 2) high in those support values h; ``hull_gap``
    is None unless the verdict is positive with ellipses, ``factorization``
    None unless the verdict carries a reduced form; ``flat_pass`` the
    :class:`_FlatPass` the report shares with the other reports of its call.
    ``checks``, ``flats`` and ``commutant_dim`` are derived when first read
    and kept: ``checks`` reads ``flats`` for a positive verdict only, never
    ``commutant_dim``.
    """

    block: BlockForm
    verdict: Verdict
    reciprocal: ReciprocalShape | None
    eigenvalues: tuple[complex, ...]
    boundary: nrcore.Boundary
    diameter: float
    hull_gap: float | None
    factorization: FactorizationResidual | None
    flat_pass: _FlatPass = field(repr=False)

    @property
    def flats(self) -> tuple[nrcore.FlatPortion, ...]:
        """The boundary's flat portions (:func:`nrcore.flat_portions`), in
        the audited plane.  The first read on any report sharing this one's
        :class:`_FlatPass` refines the flats of all of them."""
        return self.flat_pass.flats(self.boundary)

    @cached_property
    def commutant_dim(self) -> int:
        """The dimension of the commutant (:func:`commutant_dim`)."""
        return commutant_dim(self.boundary.matrix)

    @cached_property
    def checks(self) -> tuple[Check, ...]:
        """The consistency checks of :func:`audit`, in its order: reciprocal
        agreement, hull comparison, flat portions, factorization."""
        checks = []
        if self.reciprocal is not None:
            ok = (self.reciprocal is ReciprocalShape.BI_ELLIPTICAL) == self.verdict.bielliptical
            checks.append(Check("reciprocal agreement", ok, (
                f"reciprocal classification {'agrees' if ok else 'disagrees'} "
                "with the general check")))
        if self.hull_gap is not None:
            ok = self.hull_gap <= _HULL_REL * self.diameter
            checks.append(Check(_HULL, ok, f"Hausdorff {self.hull_gap:.3e}" if ok else (
                f"hull/oracle Hausdorff {self.hull_gap:.3e} exceeds {_HULL_REL:g} * diameter")))
            checks += _flat_checks(self)
        if self.factorization is not None:
            ok = self.factorization.total <= TOL
            checks.append(Check("factorization", ok, (
                f"factorization residual {self.factorization.total:.3e}"
                + ("" if ok else f" exceeds {TOL:g}"))))
        return tuple(checks)

    @property
    def failures(self) -> list[str]:
        """Details of the failed consistency checks."""
        return [c.detail for c in self.checks if not c.passed]


def _flat_checks(report: AuditReport) -> list[Check]:
    """A bi-elliptical boundary has exactly two flat portions.  The hull of
    two translated congruent ellipses meets each of its flat edges at a pair
    of points the translation maps onto each other, so every flat portion
    has the length and direction of the offset between the two centers."""
    e1, e2 = report.verdict.ellipses
    expected = e1.center - e2.center
    flats = report.flats
    if len(flats) != 2:
        return [Check("flat portions", False,
                      f"expected 2 flat portions, found {len(flats)}")]
    checks = []
    for f in flats:
        turn = cmath.phase(f.direction) - cmath.phase(expected)
        ok = (abs(f.length - abs(expected)) <= _HULL_REL * abs(expected)
              and abs((turn + math.pi / 2) % math.pi - math.pi / 2) <= _HULL_REL)
        checks.append(Check("flat portions", ok, (
            f"flat portion (length {f.length:.9g}) "
            f"{'matches' if ok else 'does not match'} "
            f"center offset {abs(expected):.9g}")))
    return checks


def audit(
    document,
    verdict: Verdict | None = None,
    samples: int = nrcore.DEFAULT_SAMPLES,
) -> AuditReport | None:
    """Sample a parsed document's boundary once and report on a verdict.

    The document is a raw 4x4 ``CMatrix`` (None without scalar diagonal
    blocks), a ``BlockForm``, a ``SpecialForm`` or a ``ReciprocalForm``,
    ``bf`` its ``forms.as_block``, and the verdict by default
    ``check_general(bf)``.  The oracles sample a raw matrix as given, any
    other document as ``bf.assemble()``, less ``boundary.origin`` I
    in ``samples`` directions, at least ``nrcore.FLAT_MIN_SAMPLES`` so that
    the flat-portion oracle can run on them, at the cost of one batched
    ``eigvalsh`` of ``samples / 2`` matrices, the audit's one LAPACK call
    besides the flat oracle's.  As ``samples`` is a multiple of 4,
    theta = 0, pi / 2, pi and 3 pi / 2 are among them, and their support
    values give ``diameter``, which scales the gates.  The hull gap is a
    maximum over those directions, so an error peaking between two of them
    reads smaller by a relative (pi / samples)^2 or so;
    ``tests/test_audit_strength.py`` holds the default,
    ``nrcore.DEFAULT_SAMPLES``, to what 2048 samples catch.  Every check
    here and in :func:`verify_checks` reads support values only, so the
    boundary oracle runs without points (eigenvalues only).  A reciprocal
    form's closed-form classification must agree with the verdict.  A
    positive verdict must have its hull of ellipses within
    ``1e-6 * diameter`` of the sampled range and two flat portions that
    match the offset between the ellipse centers.  Whenever the verdict
    carries a reduced form, the generating polynomial must factor into the
    two claimed quadratics up to a factorization residual of ``TOL``.  The
    report derives these ``checks``; the flat oracle runs on first read of
    them, ``failures`` or ``flats``.
    """
    if samples < nrcore.FLAT_MIN_SAMPLES or samples % 4:
        raise ValueError(f"flat detection needs at least {nrcore.FLAT_MIN_SAMPLES} support "
                         "samples, and the bounding box a multiple of 4")
    bf = as_block(document)
    if bf is None:
        return None
    reciprocal = reciprocal_classify(document) if isinstance(document, ReciprocalForm) else None
    verdict = check_general(bf) if verdict is None else verdict
    eigenvalues = tuple(e + bf.shift for e in nrcore.spectrum(bf).all_eigenvalues)
    boundary = nrcore.boundary_support(
        document if isinstance(document, CMatrix) else bf.assemble(), samples, points=False)
    h = boundary.support[::samples // 4].tolist()
    diameter = math.hypot(h[0] + h[2], h[1] + h[3])
    positive = verdict.bielliptical and verdict.ellipses is not None
    hull_gap = None if not positive else hull_support_gap(*verdict.ellipses, boundary)
    sf = verdict.diagnostics.get("reduced_form")
    fact = None if sf is None else factorization_residual(
        sf.to_block(), ellipse_pair_params(sf))
    return AuditReport(bf, verdict, reciprocal, eigenvalues, boundary,
                       diameter, hull_gap, fact, _FlatPass([boundary]))


def check_documents(payloads: Sequence, samples: int = nrcore.DEFAULT_SAMPLES
                    ) -> list[AuditReport | None]:
    """:func:`audit` of each document with its ``check_general`` verdict,
    in order.  The reports share one :class:`_FlatPass`, so the flat
    portions of every document are refined in one
    :func:`nrcore.flat_portions` call, on the first read of any report's
    ``flats`` (or of a positive's ``checks``); the commutant stays per
    document."""
    reports = [audit(payload, samples=samples) for payload in payloads]
    shared = _FlatPass([r.boundary for r in reports if r is not None])
    return [None if r is None else replace(r, flat_pass=shared) for r in reports]


def verify_checks(report: AuditReport) -> list[Check]:
    """The checks ``birange verify`` reports, in order.

    Central symmetry about the center, in two parts: normal, the audit's
    support value at every sampled direction against its antipode's, and
    transverse, the field values of the top and bottom eigenvectors of
    Im(e^{-i theta} A0) (A0 the shift-free matrix) at the 16 fixed
    directions of ``_SPOT_THETAS``.  Then containment of the shift-free
    spectrum in the sampled support polytope, and at those same directions
    the pencil eigenvalues (the closed form against the eigenvalues of that
    same LAPACK ``eigh``) and the generating polynomial, which must
    annihilate them: one closed-form pencil solve over all 16 as an array
    serves both.  The last three gates are relative to the oracle scale
    ||``boundary.matrix``||_F, like the flat-portion oracle's.
    These four never read the verdict, so no forged verdict can fail them:
    the first two hold LAPACK's support values to the block structure (a
    range symmetric about its center that holds the closed-form spectrum),
    the last two hold the closed-form side to LAPACK's ``eigh`` and itself.
    A positive verdict adds the audit's hull check and unitary
    irreducibility: commutant dimension 1, or 2 in the two reducible
    zero-diagonal families, the paper's real case (ii) and b2 = -conj(b1),
    and either near them (``_IRREDUCIBILITY``).  Every other failed
    consistency check comes last.
    """
    bf, verdict = report.block, report.verdict
    scale = float(np.linalg.norm(report.boundary.matrix))
    support = report.boundary.support
    # Re(e^{-i theta} z) = cos(theta) Re z + sin(theta) Im z, on the
    # oracle's own directions.
    _, cos_sin = nrcore._direction_grid(len(support))

    # W = 2 c - W, c = tr(matrix) / 4, iff h(theta) - h(theta + pi) =
    # 2 Re(e^{-i theta} c) for every theta (Schneider, section 1.7).
    half = len(support) // 2
    center = complex(np.trace(report.boundary.matrix)) / 4
    antipodal = support[:half] - support[half:]
    sym = float(np.abs(
        antipodal - 2.0 * (cos_sin[:half] @ [center.real, center.imag])).max())
    # Shift-free eigenvalues moved by a difference of two nearby shifts.
    eig = np.asarray(nrcore.spectrum(bf).all_eigenvalues) + (bf.shift - report.boundary.origin)
    excess = np.stack((eig.real, eig.imag), axis=1) @ cos_sin.T - support
    worst_out = float(excess.max())

    a4 = nrcore._as_ndarray(replace(bf, shift=0j).assemble())
    vals, vecs = np.linalg.eigh(nrcore._pencil(nrcore._hermitian_parts(a4), _SPOT_IMAG))
    lam1, lam2 = nrcore.pencil_eigs(bf, _SPOT_THETAS)
    # lam1 >= lam2 >= 0, so this is eigh's ascending order.
    expect = np.stack((-lam1, -lam2, lam2, lam1), axis=1)
    worst_pencil = float(np.abs(vals - expect).max())
    # Im(e^{-i theta} A0) = Re(e^{-i (theta + pi/2)} A0): its top and bottom
    # eigenvectors have the support points of W(A0) at theta +- pi / 2 as
    # field values, and those cancel when W(A0) = -W(A0).
    ends = vecs[:, :, ::3]
    transverse = float(np.abs(
        np.einsum("nic,ij,njc->n", ends.conj(), a4, ends)).max())
    gen = nrcore.generating_poly(bf).evaluate(np.stack((lam1, lam2)), _SPOT_THETAS)
    worst_gen = float(np.abs(gen).max())

    checks = [
        Check("central symmetry", max(sym, transverse) <= 1e-8 * report.diameter,
              f"antipodal mismatch {sym:.3e} normal, {transverse:.3e} transverse"),
        Check("eigenvalue containment", worst_out <= 1e-9 * scale,
              f"worst support excess {worst_out:.3e}"),
        Check("pencil eigenvalues", worst_pencil <= 1e-11 * scale,
              f"worst deviation {worst_pencil:.3e}"),
        Check("generating polynomial", worst_gen <= 1e-9 * scale**4,
              f"worst residual {worst_gen:.3e}"),
    ]
    if verdict.bielliptical:
        checks += [c for c in report.checks if c.name == _HULL]
        sf = verdict.diagnostics.get("reduced_form")
        margin = math.inf if sf is None else reducible_margin(sf)
        expected, note = next((dims, text) for bound, dims, text in _IRREDUCIBILITY
                              if margin <= bound)
        checks.append(Check(
            "unitary irreducibility", report.commutant_dim in expected,
            f"commutant dimension {report.commutant_dim}{note}"))
    return checks + [c for c in report.checks if not c.passed and c.name != _HULL]
