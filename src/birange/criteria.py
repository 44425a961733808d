"""Bi-elliptical classification criteria and ellipse extraction.

The decision chain, in increasing generality:

* ``check_special`` -- the triangularized special case.  The boundary curve
  splits into two congruent ellipses exactly when the coupling entry is
  nonzero (non-normal B) and a single quartic expression T in the entries
  vanishes.
* ``check_real`` / ``check_imag`` -- closed-form specializations for real
  and purely imaginary diagonal parameter; they must agree with
  ``check_special``.
* ``check_general`` -- arbitrary block forms: search for the direction that
  turns the off-diagonal block combination into a scalar multiple of a
  unitary, test the determinant identity there, then reduce to the special
  case for the geometry.
* ``reciprocal_classify`` -- the tridiagonal reciprocal family, where the
  criteria collapse to equalities between the symmetrized entry functions.

Every verdict carries diagnostics (direction used, normalized criterion
value, residuals) so oracle modules can audit it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .forms import (
    TOL,
    BlockForm,
    Frame,
    NotScalarUnitaryError,
    ReciprocalForm,
    SpecialForm,
    ZeroMultipleError,
    direction_block,
    eye,
    from_reciprocal,
    reduce_to_special,
)
from .linalg import CMatrix, herm_eig2, sqrt_principal
from .nrcore import golden_min, pencil_eigs, spectrum

__all__ = [
    "Reason",
    "Verdict",
    "CriterionData",
    "EllipsePairParams",
    "Ellipse",
    "ThetaSearch",
    "ReciprocalShape",
    "AlphaZeroError",
    "DegenerateEllipseError",
    "NotRealAlphaError",
    "NotImagAlphaError",
    "criterion_T",
    "ellipse_pair_params",
    "ellipse_geometry",
    "check_special",
    "check_real",
    "check_imag",
    "real_case_ii",
    "solve_b",
    "find_theta",
    "check_general",
    "reciprocal_classify",
]

# Every decision gate follows the rule stated at ``forms.TOL``, the quartic
# criterion equalities (T = 0, the determinant identity and their real and
# imaginary specializations) included; no parameter sets it.
# Tolerance for entrywise equalities (eta1 = eta2 and the like).
_EQ_TOL = 1e-7
# Directions sampled over [0, pi) before the golden-section refinement.
_THETA_GRID = 4096


class NotRealAlphaError(ValueError):
    """check_real requires a real diagonal parameter."""


class NotImagAlphaError(ValueError):
    """check_imag requires a purely imaginary, nonzero diagonal parameter."""


class AlphaZeroError(ValueError):
    """solve_b is indeterminate for zero diagonal parameter."""


class DegenerateEllipseError(ValueError):
    """The quadratic factor does not describe a non-degenerate ellipse."""

    def __init__(self, message: str, foci: tuple[complex, complex] | None = None):
        super().__init__(message)
        self.foci = foci


class Reason(str, Enum):
    B_NORMAL = "BNormal"
    T_NONZERO = "TNonzero"
    NO_THETA = "NoTheta"
    PRODUCT_NORMAL = "ProductNormal"
    ZERO_MULTIPLE = "ZeroMultiple"


@dataclass(frozen=True)
class Ellipse:
    """Ellipse given by center, semi-axes and major-axis direction."""

    center: complex
    semi_major: float
    semi_minor: float
    tilt: float

    def point(self, t: float) -> complex:
        return self.center + cmath.exp(1j * self.tilt) * complex(
            self.semi_major * math.cos(t), self.semi_minor * math.sin(t)
        )

    def support(self, theta: float) -> float:
        """Max of Re(e^{-i theta} w) over the ellipse."""
        psi = self.tilt - theta
        radial = math.hypot(
            self.semi_major * math.cos(psi), self.semi_minor * math.sin(psi)
        )
        return (cmath.exp(-1j * theta) * self.center).real + radial

    def support_point(self, theta: float) -> complex:
        """The boundary point attaining :meth:`support`."""
        psi = self.tilt - theta
        t_star = math.atan2(
            -self.semi_minor * math.sin(psi), self.semi_major * math.cos(psi)
        )
        return self.point(t_star)


@dataclass(frozen=True)
class EllipsePairParams:
    """Center offset and quadratic-factor parameters of the ellipse pair."""

    p: float
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class CriterionData:
    """Criterion value T = reT + i imT together with the half-spread p.

    ``cross_residual`` is the absolute difference between the entrywise
    evaluation of T and its trace-level form, a self-test of the formulas.
    """

    p: float
    reT: float
    imT: float
    cross_residual: float

    @property
    def T(self) -> complex:
        return complex(self.reT, self.imT)


@dataclass(frozen=True)
class Verdict:
    """Classification outcome with audit data."""

    bielliptical: bool
    reason: Reason | None
    ellipses: tuple[Ellipse, Ellipse] | None
    diagnostics: dict

    @property
    def kind(self) -> str:
        return "BiElliptical" if self.bielliptical else "NotBiElliptical"


def _four_p_squared(sf: SpecialForm) -> float:
    d_eta = sf.eta1 - sf.eta2
    return (d_eta * d_eta + sf.b * sf.b) / (1.0 + sf.v * sf.v)


def criterion_T(sf: SpecialForm) -> CriterionData:
    """Half-spread p and criterion value T for a special form.

    T vanishes exactly when the boundary curve splits into two congruent
    non-concentric ellipses (given a nonzero coupling entry).
    """
    u, v, b = sf.u, sf.v, sf.b
    xi1, xi2, eta1, eta2 = sf.xi1, sf.xi2, sf.eta1, sf.eta2
    ab1 = abs(sf.b1) ** 2
    ab2 = abs(sf.b2) ** 2
    four_p2 = _four_p_squared(sf)
    p2 = four_p2 / 4.0

    re_t = (four_p2 - (b * b + ab1 + ab2)) ** 2 - 16.0 * u * u * p2 - 4.0 * ab1 * ab2
    im_t = 16.0 * v * (v * (eta1 + eta2) - 2.0 * u) * p2 + 4.0 * (
        xi1 * xi1 - xi2 * xi2
    ) * (eta1 - eta2)

    # Trace-level evaluation of the same quantity: quartic in p, trace and
    # determinant of Z, and the squared diagonal parameter.
    zmat = sf.to_block().Z
    tr_z = zmat.trace()
    det_z = zmat.det()
    a2 = sf.alpha * sf.alpha
    t_mat = (
        16.0 * p2 * p2
        - (8.0 * tr_z + 16.0 * a2) * p2
        + tr_z * tr_z
        - 4.0 * det_z
    )
    cross = abs(t_mat - complex(re_t, im_t))
    return CriterionData(p=math.sqrt(p2), reT=re_t, imT=im_t, cross_residual=cross)


def ellipse_pair_params(sf: SpecialForm) -> EllipsePairParams:
    """Quadratic-factor parameters (p, x, y, z) of the ellipse pair."""
    u, v, b = sf.u, sf.v, sf.b
    eta1, eta2 = sf.eta1, sf.eta2
    ab1 = abs(sf.b1) ** 2
    ab2 = abs(sf.b2) ** 2
    a2 = sf.alpha * sf.alpha
    k = 1.0 + v * v
    common = 0.125 * (b * b + (eta1 - eta2) ** 2) / k
    x = 0.25 * (b * b + ab1 + ab2 - 2.0) + 0.5 * a2.real - common
    y = 0.5 * (eta1 + eta2) + 0.5 * a2.imag
    z = 0.25 * (b * b + ab1 + ab2 + 2.0) + 0.5 * (u * u + v * v) - common
    return EllipsePairParams(p=0.5 * math.sqrt(_four_p_squared(sf)), x=x, y=y, z=z)


def _normalize_tilt(t: float) -> float:
    t = math.fmod(t, math.pi)
    if t > math.pi / 2:
        t -= math.pi
    elif t <= -math.pi / 2:
        t += math.pi
    return t


def ellipse_geometry(
    params: EllipsePairParams, frame: Frame | None = None, tol: float = TOL
) -> tuple[Ellipse, Ellipse]:
    """Convert factor parameters into the two congruent ellipses.

    In the reduced frame the ellipses are centered at +-p on the real axis
    with semi-axes sqrt(z +- r), r = hypot(x, y), and major-axis direction
    atan2(y, x) / 2; the tilt formula is validated against the tangent-line
    envelope in the test suite.  Frames map centers affinely, scale the axes
    and rotate the tilt.
    """
    p, x, y, z = params.p, params.x, params.y, params.z
    r = math.hypot(x, y)
    if z - r < -tol:
        raise DegenerateEllipseError("factor parameters admit no real ellipse")
    if z - r <= tol:
        phi = 0.5 * math.atan2(y, x)
        c = math.sqrt(max(2.0 * r, 0.0))
        foci = (
            complex(p, 0) + c * cmath.exp(1j * phi),
            complex(p, 0) - c * cmath.exp(1j * phi),
        )
        raise DegenerateEllipseError(
            "ellipse degenerates into the doubleton of its foci", foci=foci
        )
    a_len = math.sqrt(z + r)
    b_len = math.sqrt(z - r)
    tilt = _normalize_tilt(0.5 * math.atan2(y, x))
    first = Ellipse(center=complex(p, 0.0), semi_major=a_len, semi_minor=b_len, tilt=tilt)
    second = Ellipse(center=complex(-p, 0.0), semi_major=a_len, semi_minor=b_len, tilt=tilt)
    if frame is None:
        return first, second

    def mapped(e: Ellipse) -> Ellipse:
        return Ellipse(
            center=frame.map_point(e.center),
            semi_major=e.semi_major * frame.magnification,
            semi_minor=e.semi_minor * frame.magnification,
            tilt=_normalize_tilt(e.tilt + frame.rotation),
        )

    return mapped(first), mapped(second)


def _beta_values(sf: SpecialForm) -> tuple[float, float]:
    bmat = sf.B
    imb = (1 / 2j) * (bmat - bmat.H)
    return herm_eig2(imb)


def _pair_residual(
    sig1: complex, sig2: complex, weight: float, rhs: float, scale_k: float
) -> tuple[float, complex]:
    """Best of sigma1 +- sigma2: the smallest |weight c^2 - rhs| / scale_k
    over c = sigma1 + sigma2 and sigma1 - sigma2, and the c attaining it."""
    return min(
        ((abs(weight * c * c - rhs) / scale_k, c) for c in (sig1 + sig2, sig1 - sig2)),
        key=lambda res_c: res_c[0],
    )


def _spread_residual(sf: SpecialForm) -> tuple[float, complex]:
    """Residual of the pre-squared criterion (1+v^2)(sigma1 +- sigma2)^2 =
    (beta1 - beta2)^2, a quadratic identity, at the best sign combination."""
    spec = spectrum(sf.to_block())
    beta1, beta2 = _beta_values(sf)
    return _pair_residual(
        spec.sigma1, spec.sigma2, 1.0 + sf.v * sf.v, (beta1 - beta2) ** 2,
        sf.scale() ** 2,
    )


def _positive_verdict(
    sf: SpecialForm, frame: Frame | None, diagnostics: dict
) -> Verdict:
    params = ellipse_pair_params(sf)
    # A nonzero coupling makes the factor strictly non-degenerate, so only a
    # roundoff-level guard is appropriate here, far below the criterion
    # tolerance TOL.
    try:
        ellipses = ellipse_geometry(params, frame, tol=1e-13 * sf.scale() ** 2)
    except DegenerateEllipseError as exc:
        diagnostics["degenerate_geometry"] = str(exc)
        return Verdict(
            bielliptical=True, reason=None, ellipses=None, diagnostics=diagnostics
        )
    spco_res, combo = _spread_residual(sf)
    diagnostics.update(
        {
            "p": params.p,
            "x": params.x,
            "y": params.y,
            "z": params.z,
            "spread_residual": spco_res,
            "sigma_combo": combo,
        }
    )
    return Verdict(
        bielliptical=True, reason=None, ellipses=ellipses, diagnostics=diagnostics
    )


def _b_normal(sf: SpecialForm) -> bool:
    """Coupling normality b = 0, a linear gate on the coupling blocks
    B* + I and B - I, whose tr H is 2 ||B||^2 + 4."""
    norm_b2 = abs(sf.b1) ** 2 + abs(sf.b2) ** 2 + sf.b**2
    return sf.b <= TOL * math.sqrt(2.0 * norm_b2 + 4.0)


def check_special(sf: SpecialForm, frame: Frame | None = None) -> Verdict:
    """Classify a special form: non-normal B and vanishing criterion value."""
    scale = sf.scale()
    diagnostics: dict = {
        "theta_used": frame.rotation if frame is not None else 0.0,
        "b": sf.b,
    }
    if _b_normal(sf):
        diagnostics["t_norm"] = math.nan
        return Verdict(False, Reason.B_NORMAL, None, diagnostics)
    data = criterion_T(sf)
    t_norm = abs(data.T) / scale**4
    diagnostics["t_norm"] = t_norm
    diagnostics["t_abs"] = abs(data.T)
    diagnostics["t_cross_residual"] = data.cross_residual
    if t_norm > TOL:
        return Verdict(False, Reason.T_NONZERO, None, diagnostics)
    return _positive_verdict(sf, frame, diagnostics)


def real_case_ii(sf: SpecialForm) -> bool:
    """The paper's real case (ii): u, v and the real parts of b1, b2 vanish.

    Such a form is bi-elliptical whenever b != 0, and its matrix is
    unitarily reducible (commutant dimension 2).
    """
    eq_tol = _EQ_TOL * sf.scale()
    return max(abs(sf.u), abs(sf.v), abs(sf.xi1), abs(sf.xi2)) <= eq_tol


def check_real(sf: SpecialForm, frame: Frame | None = None) -> Verdict:
    """Real diagonal parameter: coupling plus one of two entry conditions.

    Either the diagonal imaginary parts agree and ``4 b^2 u^2`` matches the
    squared difference of the squared real parts, or u and both real parts
    vanish.
    """
    if abs(sf.v) > 1e-14:
        raise NotRealAlphaError("check_real needs Im(alpha) = 0")
    scale = sf.scale()
    diagnostics: dict = {"theta_used": 0.0, "b": sf.b}
    if _b_normal(sf):
        return Verdict(False, Reason.B_NORMAL, None, diagnostics)
    eq_tol = _EQ_TOL * scale
    xi_sq_diff = sf.xi1**2 - sf.xi2**2
    case_i = (
        abs(sf.eta1 - sf.eta2) <= eq_tol
        and abs(4.0 * sf.b**2 * sf.u**2 - xi_sq_diff**2) <= TOL * scale**4
    )
    case_ii = real_case_ii(sf)
    diagnostics["case"] = "i" if case_i else ("ii" if case_ii else None)
    if not (case_i or case_ii):
        return Verdict(False, Reason.T_NONZERO, None, diagnostics)
    return _positive_verdict(sf, frame, diagnostics)


def check_imag(sf: SpecialForm, frame: Frame | None = None) -> Verdict:
    """Purely imaginary diagonal parameter: equal moduli and v^2 b^2 match."""
    if abs(sf.u) > 1e-14:
        raise NotImagAlphaError("check_imag needs Re(alpha) = 0")
    if abs(sf.v) <= 1e-14:
        raise NotImagAlphaError("check_imag needs Im(alpha) != 0")
    scale = sf.scale()
    diagnostics: dict = {"theta_used": 0.0, "b": sf.b}
    if _b_normal(sf):
        return Verdict(False, Reason.B_NORMAL, None, diagnostics)
    eq_tol = _EQ_TOL * scale
    moduli_ok = abs(abs(sf.b1) - abs(sf.b2)) <= eq_tol
    match_ok = (
        abs(sf.v**2 * sf.b**2 - (sf.eta1 - sf.eta2) ** 2) <= TOL * scale**4
    )
    if not (moduli_ok and match_ok):
        return Verdict(False, Reason.T_NONZERO, None, diagnostics)
    return _positive_verdict(sf, frame, diagnostics)


def solve_b(u: float, v: float, b1: complex, b2: complex) -> float | None:
    """The unique coupling entry b > 0 yielding a bi-elliptical range, if any.

    For nonzero diagonal parameter there is at most one such b.  Real case:
    b = |xi1^2 - xi2^2| / (2|u|) provided the diagonal imaginary parts agree.
    Otherwise the vanishing of Re T is a quadratic in b^2 whose positive root
    is kept only when the full criterion value vanishes there.
    """
    b1, b2 = complex(b1), complex(b2)
    if abs(u) <= 1e-14 and abs(v) <= 1e-14:
        raise AlphaZeroError(
            "b is unconstrained for zero diagonal parameter; "
            "test the zero-diagonal entry conditions instead"
        )
    eta1, eta2 = b1.imag, b2.imag
    xi1, xi2 = b1.real, b2.real
    mag = 1.0 + abs(b1) + abs(b2) + abs(u) + abs(v)

    def validated(b: float) -> float | None:
        if not (b > 1e-12 * mag) or not math.isfinite(b):
            return None
        sf = SpecialForm(u=u, v=v, b1=b1, b2=b2, b=b)
        if check_special(sf).bielliptical:
            return b
        return None

    if abs(v) <= 1e-14:
        if abs(eta1 - eta2) > _EQ_TOL * mag:
            return None
        return validated(abs(xi1**2 - xi2**2) / (2.0 * abs(u)))

    if abs(u) <= 1e-14:
        if abs(abs(b1) - abs(b2)) > _EQ_TOL * mag:
            return None
        return validated(abs(eta1 - eta2) / abs(v))

    k = 1.0 + v * v
    g = (eta1 - eta2) ** 2
    mm = abs(b1) ** 2 + abs(b2) ** 2
    q = (abs(b1) * abs(b2)) ** 2
    qa = v**4
    qb = -(2.0 * v * v * (g - k * mm) + 4.0 * u * u * k)
    qc = (g - k * mm) ** 2 - 4.0 * u * u * k * g - 4.0 * q * k * k
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    candidates = sorted(
        w for w in ((-qb + root) / (2.0 * qa), (-qb - root) / (2.0 * qa)) if w > 0.0
    )
    for w in candidates:
        b = validated(math.sqrt(w))
        if b is not None:
            return b
    return None


@dataclass(frozen=True)
class ThetaSearch:
    """Accepted direction for the scalar-unitary condition."""

    theta: float
    mu: float
    residual: float
    extra_thetas: tuple[float, ...] = ()


def _polish_theta(h0: CMatrix, z0: CMatrix, theta_guess: float) -> float | None:
    """Solve the scalar-unitary condition as a linear system in cos/sin.

    The traceless equation H0 = w Z0 + conj(w) Z0* with w = e^{-2i theta} is
    linear in (cos 2 theta, sin 2 theta); solving it in least squares pins
    theta to machine precision where golden-section stalls on the roundoff
    floor of the deviation function.  Returns None when the system is rank
    deficient (every direction works, or none does cleanly).
    """
    s = z0[0, 1] + z0[1, 0].conjugate()
    t = 1j * (z0[1, 0].conjugate() - z0[0, 1])
    rows = (
        (2.0 * z0[0, 0].real, 2.0 * z0[0, 0].imag, h0[0, 0].real),
        (s.real, t.real, h0[0, 1].real),
        (s.imag, t.imag, h0[0, 1].imag),
    )
    g00 = sum(r[0] * r[0] for r in rows)
    g01 = sum(r[0] * r[1] for r in rows)
    g11 = sum(r[1] * r[1] for r in rows)
    r0 = sum(r[0] * r[2] for r in rows)
    r1 = sum(r[1] * r[2] for r in rows)
    det = g00 * g11 - g01 * g01
    if det <= 1e-24 * max(g00 + g11, 1e-300) ** 2:
        return None
    a = (g11 * r0 - g01 * r1) / det
    b = (g00 * r1 - g01 * r0) / det
    norm = math.hypot(a, b)
    if norm <= 0.0 or abs(norm - 1.0) > 0.1:
        return None
    phi = math.atan2(b / norm, a / norm)
    theta = 0.5 * phi
    # Move onto the representative mod pi nearest the bracketing guess.
    shift = round((theta_guess - theta) / math.pi)
    return theta + shift * math.pi


def _zero_multiples_only(bf: BlockForm) -> bool:
    """The trace gate: min over theta of trace(M* M) is tr H - 2 |tr Z|, a
    quadratic quantity; if it vanishes the only scalar-unitary candidates
    have scalar zero."""
    tr_h = bf.H.trace().real
    return tr_h - 2.0 * abs(bf.Z.trace()) <= TOL * tr_h


def find_theta(bf: BlockForm) -> ThetaSearch | None:
    """Direction theta in [0, pi) making e^{-i t}C - e^{i t}D* scalar-unitary.

    The deviation d(theta) is a smooth trigonometric expression (entries of
    M*M are degree one in cos 2 theta, sin 2 theta), so a dense grid plus
    golden-section refinement cannot miss an exact root; an algebraic
    least-squares polish then removes the roundoff floor of the search.
    Directions where the scalar multiple vanishes are excluded; additional
    accepted minima mod pi are reported for the per-instance uniqueness
    audit.
    """
    if _zero_multiples_only(bf):
        return None
    h, z = bf.H, bf.Z
    tr_h = h.trace().real
    tr_z = z.trace()
    ident = eye(2)
    h0 = h - (tr_h / 2.0) * ident
    z0 = z - (tr_z / 2.0) * ident
    c0 = (h0 @ h0).trace().real + 2.0 * (z0 @ z0.H).trace().real
    cz2 = (z0 @ z0).trace()
    chz = (h0 @ z0).trace()
    h000 = h0[0, 0].real
    h001 = h0[0, 1]
    z000, z001, z010 = z0[0, 0], z0[0, 1], z0[1, 0]

    def dval(theta: float) -> float:
        # Entrywise evaluation of the traceless residual: the expanded
        # coefficient form cancels catastrophically near a root.
        e1 = cmath.exp(-2j * theta)
        n00 = h000 - 2.0 * (e1 * z000).real
        n01 = h001 - e1 * z001 - (e1 * z010).conjugate()
        num = math.sqrt(2.0 * n00 * n00 + 2.0 * abs(n01) ** 2)
        den = tr_h - 2.0 * (e1 * tr_z).real
        return num / den

    grid = _THETA_GRID
    thetas = math.pi * np.arange(grid) / grid
    e1 = np.exp(-2j * thetas)
    num2 = c0 + 2.0 * np.real(e1 * e1 * cz2) - 4.0 * np.real(e1 * chz)
    dens = tr_h - 2.0 * np.real(e1 * tr_z)
    dgrid = np.sqrt(np.maximum(num2, 0.0)) / dens

    step = math.pi / grid

    def refine(k: int) -> tuple[float, float]:
        t0 = float(thetas[k])
        t_star = golden_min(dval, t0 - step, t0 + step)
        polished = _polish_theta(h0, z0, t_star)
        if polished is not None and dval(polished) <= dval(t_star):
            t_star = polished
        theta = t_star % math.pi
        # A tiny negative t_star wraps onto pi itself in floating point.
        return (0.0 if theta == math.pi else theta), dval(t_star)

    k_best = int(np.argmin(dgrid))
    theta_star, d_min = refine(k_best)
    if d_min > TOL:
        return None
    e_star = cmath.exp(-2j * theta_star)
    mu = 0.5 * (tr_h - 2.0 * (e_star * tr_z).real)

    extras: list[float] = []
    coarse = max(TOL * 10.0, float(dgrid[k_best]) * 10.0)
    for k in range(grid):
        if dgrid[k] <= dgrid[(k - 1) % grid] and dgrid[k] <= dgrid[(k + 1) % grid]:
            if dgrid[k] > coarse:
                continue
            t_k, d_k = refine(k)
            sep = abs((t_k - theta_star + math.pi / 2) % math.pi - math.pi / 2)
            if d_k <= TOL and sep > 1e-6:
                if all(
                    abs((t_k - t + math.pi / 2) % math.pi - math.pi / 2) > 1e-6
                    for t in extras
                ):
                    extras.append(t_k)
    return ThetaSearch(
        theta=theta_star, mu=mu, residual=d_min, extra_thetas=tuple(sorted(extras))
    )


def _im_square_eigenvalues(
    bf: BlockForm, theta: float
) -> tuple[float, float, float, float]:
    """Eigenvalues (ascending) of Im(e^{-2i theta} A^2), A the shift-free matrix.

    A^2 = diag(alpha^2 I + CD, alpha^2 I + DC) exactly, so they are the two
    eigenvalue pairs of the imaginary parts of its diagonal blocks.
    """
    e2 = cmath.exp(-2j * theta)
    a2 = (bf.alpha * bf.alpha) * eye(2)
    values: list[float] = []
    for prod in (bf.C @ bf.D, bf.Z):
        rot = e2 * (prod + a2)
        values += herm_eig2((1 / 2j) * (rot - rot.H))
    return tuple(sorted(values))


def _paired_eigenvalues(
    values: tuple[float, float, float, float], spread_tol: float
) -> tuple[float, float]:
    """Cluster four nearly-coinciding-in-pairs eigenvalues into two values."""
    lo_spread = values[1] - values[0]
    hi_spread = values[3] - values[2]
    if max(lo_spread, hi_spread) > spread_tol:
        raise ValueError(
            f"eigenvalues do not pair up (spreads {lo_spread:.3e}, {hi_spread:.3e})"
        )
    return 0.5 * (values[0] + values[1]), 0.5 * (values[2] + values[3])


def check_general(bf: BlockForm) -> Verdict:
    """Classify an arbitrary block form.

    Needs (a) a direction theta at which the block combination is a nonzero
    scalar multiple of a unitary with a non-normal product against D, and
    (b) the determinant identity
    ``4 sqrt(det Im(e^{-i theta}A)) (sigma1 + sigma2)^2 = (s1 - s2)^2``
    at that direction.  On success the geometry is delegated to the special
    case through the reduction, and the two verdicts are required to agree.
    """
    scale = bf.scale()
    diagnostics: dict = {}

    if _zero_multiples_only(bf):
        # The product with D of a zero multiple is zero, hence normal.
        diagnostics["mu"] = 0.0
        return Verdict(False, Reason.PRODUCT_NORMAL, None, diagnostics)

    found = find_theta(bf)
    if found is None:
        return Verdict(False, Reason.NO_THETA, None, diagnostics)
    theta = found.theta
    diagnostics["theta"] = theta
    diagnostics["mu"] = found.mu
    diagnostics["theta_residual"] = found.residual
    diagnostics["theta_extra"] = found.extra_thetas

    m = direction_block(bf, theta)
    product = m @ bf.D
    comm = product @ product.H - product.H @ product
    diagnostics["product_commutator"] = comm.frobenius()
    if comm.frobenius() <= TOL * bf.H.trace().real ** 2:
        return Verdict(False, Reason.PRODUCT_NORMAL, None, diagnostics)

    # Determinant identity at theta, from 2x2 closed forms.  Im(e^{-i theta}A)
    # has eigenvalues +-lambda_j, so sqrt(det Im(e^{-i theta}A)) = lambda1 lambda2.
    lam1, lam2 = pencil_eigs(bf, theta)
    sqrt_det = lam1 * lam2
    diagnostics["sqrt_det_im"] = sqrt_det

    values = _im_square_eigenvalues(bf, theta)
    try:
        s_lo, s_hi = _paired_eigenvalues(values, TOL * scale**2)
    except ValueError as exc:
        diagnostics["pairing_error"] = str(exc)
        return Verdict(False, Reason.T_NONZERO, None, diagnostics)
    s_diff = s_hi - s_lo
    diagnostics["s_diff"] = s_diff

    spec = spectrum(bf)
    e2 = cmath.exp(-2j * theta)
    sig1 = sqrt_principal(e2 * (spec.z1 + bf.alpha * bf.alpha))
    sig2 = sqrt_principal(e2 * (spec.z2 + bf.alpha * bf.alpha))
    rhs = s_diff * s_diff
    best_res, best_combo = _pair_residual(sig1, sig2, 4.0 * sqrt_det, rhs, scale**4)
    diagnostics["sigma_sum_theta"] = best_combo
    diagnostics["gen_lhs"] = 4.0 * sqrt_det * best_combo * best_combo
    diagnostics["gen_rhs"] = rhs
    diagnostics["gen_residual"] = best_res
    if best_res > TOL:
        return Verdict(False, Reason.T_NONZERO, None, diagnostics)

    try:
        sf, frame = reduce_to_special(bf, theta)
    except ZeroMultipleError:
        return Verdict(False, Reason.ZERO_MULTIPLE, None, diagnostics)
    except NotScalarUnitaryError:
        return Verdict(False, Reason.NO_THETA, None, diagnostics)
    special = check_special(sf, frame)
    diagnostics.update(
        {f"special_{k}": val for k, val in special.diagnostics.items()}
    )
    diagnostics["reduced_form"] = sf
    if not special.bielliptical:
        # The determinant identity held but the reduced criterion did not:
        # surfaced as a verification mismatch rather than silently decided.
        diagnostics["mismatch"] = True
        return Verdict(False, special.reason, None, diagnostics)
    return Verdict(True, None, special.ellipses, diagnostics)


class ReciprocalShape(str, Enum):
    BI_ELLIPTICAL = "BiElliptical"
    ELLIPTICAL = "Elliptical"
    NEITHER = "Neither"


def reciprocal_classify(r: ReciprocalForm) -> ReciprocalShape:
    """Shape of the numerical range of a reciprocal tridiagonal matrix.

    Bi-elliptical requires the outer symmetrized entries to agree and exceed
    one while the middle one equals one; a single elliptical disk happens on
    the golden-ratio line through the symmetrized entries.
    """
    a1, a2, a3 = r.A1, r.A2, r.A3
    t = TOL * max(1.0, a1, a2, a3)
    if abs(a1 - a3) <= t and a1 > 1.0 + t and abs(a2 - 1.0) <= t:
        return ReciprocalShape.BI_ELLIPTICAL
    phi_plus = (1.0 + math.sqrt(5.0)) / 2.0
    phi_minus = (1.0 - math.sqrt(5.0)) / 2.0
    on_line = (
        abs(a2 - (phi_plus * a1 + phi_minus * a3)) <= t
        or abs(a2 - (phi_plus * a3 + phi_minus * a1)) <= t
    )
    strict = max(a1, a2, a3) > 1.0 + t
    if on_line and strict:
        return ReciprocalShape.ELLIPTICAL
    return ReciprocalShape.NEITHER
