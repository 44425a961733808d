"""Bi-elliptical classification criteria and ellipse extraction.

The decision chain, in increasing generality:

* ``check_special`` -- the triangularized special case.  The boundary curve
  splits into two congruent ellipses exactly when the coupling entry is
  nonzero (non-normal B) and a single quartic expression T in the entries
  vanishes.
* ``check_general`` -- arbitrary block forms: search for the direction that
  best turns the off-diagonal block combination into a scalar multiple of a
  unitary (``find_theta``), then reduce to the special case along it
  (``reduce_to_special``, the one test that it does), whose criterion
  T = 0 decides and whose ellipses are mapped back.
* ``reciprocal_classify`` -- the tridiagonal reciprocal family, where the
  criteria collapse to equalities between the symmetrized entry functions.

Every verdict carries diagnostics (direction used, normalized criterion
value, residuals) so oracle modules can audit it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .forms import (
    MAX_SCALE,
    MIN_SCALE,
    TOL,
    BlockForm,
    Frame,
    NotScalarUnitaryError,
    ReciprocalForm,
    ScaleRangeError,
    SpecialForm,
    ZeroMultipleError,
    eye,
    reduce_to_special,
)
from .linalg import CMatrix

__all__ = [
    "Reason",
    "Verdict",
    "EllipsePairParams",
    "Ellipse",
    "ThetaSearch",
    "ReciprocalShape",
    "AlphaZeroError",
    "DegenerateEllipseError",
    "criterion_T",
    "ellipse_pair_params",
    "ellipse_geometry",
    "check_special",
    "reducible_margin",
    "solve_b",
    "golden_min",
    "find_theta",
    "check_general",
    "reciprocal_classify",
]

# Every decision gate follows the rule stated at ``forms.TOL``, the quartic
# criterion T = 0 included; no parameter sets it.
# Directions sampled over [0, pi) before the golden-section refinement.
_THETA_GRID = 4096
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class AlphaZeroError(ValueError):
    """solve_b is indeterminate for zero diagonal parameter."""


class DegenerateEllipseError(ValueError):
    """The quadratic factor does not describe a non-degenerate ellipse."""


class Reason(str, Enum):
    B_NORMAL = "BNormal"
    T_NONZERO = "TNonzero"
    NO_THETA = "NoTheta"
    PRODUCT_NORMAL = "ProductNormal"


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

    def support_point(self, theta: float) -> complex:
        """The boundary point where Re(e^{-i theta} w) is largest."""
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


def criterion_T(sf: SpecialForm) -> complex:
    """Criterion value T for a special form, evaluated entrywise.

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
    return complex(re_t, im_t)


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
        raise DegenerateEllipseError("ellipse degenerates into the doubleton of its foci")
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
    diagnostics.update({"p": params.p, "x": params.x, "y": params.y, "z": params.z})
    return Verdict(
        bielliptical=True, reason=None, ellipses=ellipses, diagnostics=diagnostics
    )


def _b_normal(sf: SpecialForm) -> bool:
    """Coupling normality b = 0, a linear gate on the coupling blocks
    B* + I and B - I, measured against their ``SpecialForm.tr_h``."""
    return sf.b <= TOL * math.sqrt(sf.tr_h)


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
    t_abs = abs(criterion_T(sf))
    t_norm = t_abs / scale**4
    diagnostics["t_norm"] = t_norm
    diagnostics["t_abs"] = t_abs
    if t_norm > TOL:
        return Verdict(False, Reason.T_NONZERO, None, diagnostics)
    return _positive_verdict(sf, frame, diagnostics)


def reducible_margin(sf: SpecialForm) -> float:
    """Distance from real case (ii) and from b2 = -conj(b1), the reducible
    zero-diagonal families that are bi-elliptical for every b:
    max(|u|, |v|, min(max(|Re b1|, |Re b2|), |b1 + conj(b2)|)) / scale."""
    off = min(max(abs(sf.xi1), abs(sf.xi2)), abs(sf.b1 + sf.b2.conjugate()))
    return max(abs(sf.u), abs(sf.v), off) / sf.scale()


def solve_b(u: float, v: float, b1: complex, b2: complex) -> float | None:
    """The unique coupling entry b > 0 yielding a bi-elliptical range, if any.

    For nonzero diagonal parameter there is at most one such b.  Candidates:
    |xi1^2 - xi2^2| / (2|u|) for real alpha, |eta1 - eta2| / |v| for purely
    imaginary alpha, otherwise the positive roots of Re T = 0, a quadratic
    in b^2.  A candidate is returned exactly when ``check_special`` accepts
    it; the 1e-14 and 1e-12 guards are roundoff guards, not decision gates.
    """
    b1, b2 = complex(b1), complex(b2)
    if abs(u) <= 1e-14 and abs(v) <= 1e-14:
        raise AlphaZeroError(
            "b is unconstrained for zero diagonal parameter; "
            "test the zero-diagonal entry conditions instead"
        )
    eta1, eta2 = b1.imag, b2.imag
    xi1, xi2 = b1.real, b2.real
    floor = 1e-12 * SpecialForm(u=u, v=v, b1=b1, b2=b2, b=0.0).scale()

    def validated(b: float) -> float | None:
        if not (b > floor) or not math.isfinite(b):
            return None
        sf = SpecialForm(u=u, v=v, b1=b1, b2=b2, b=b)
        if check_special(sf).bielliptical:
            return b
        return None

    if abs(v) <= 1e-14:
        return validated(abs(xi1**2 - xi2**2) / (2.0 * abs(u)))

    if abs(u) <= 1e-14:
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
class ThetaSearch:
    """``find_theta``'s best direction, its multiple mu and its residual."""

    theta: float
    mu: float
    residual: float


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


def find_theta(bf: BlockForm) -> ThetaSearch | None:
    """Direction theta in [0, pi) nearest to M = e^{-i t}C - e^{i t}D* scalar-unitary.

    Its ``residual`` d(theta) = ||M*M - mu I||_F / ||M||_F^2, ||M||_F^2 = 2 mu,
    is a smooth trigonometric expression (entries of M*M are degree one
    in cos 2 theta, sin 2 theta), so a dense grid plus
    golden-section refinement of its best point cannot miss an exact root;
    an algebraic least-squares polish then removes the roundoff floor of the
    search.  One grid, one refinement.

    It only searches: ``reduce_to_special`` is the one gate on "M is a
    nonzero scalar unitary".  Returns None only where the trace gate finds
    every multiple zero, since d's denominator 2 mu then vanishes somewhere.

    Which root is taken does not matter: where two directions mod pi work,
    M D is normal, and ``check_general`` answers ProductNormal.  Rotate so
    that theta = 0 and put V = C - D*, V*V = mu I, and P = DV = pI + Y with
    Y = Y_h + i Y_a traceless, Pauli vectors y_h, y_a.  Then DD* = PP*/mu,
    and the traceless part of Z = DC has anti-Hermitian part y_a and
    Hermitian part z_h = (1 + 2 Re p/mu) y_h + (2 Im p/mu) y_a -+ (2/mu)
    y_a x y_h.  A second root needs ``_polish_theta``'s system to have rank
    at most 1: z_h parallel to y_a, or y_a = 0.  The cross term is
    orthogonal to y_a and vanishes only if y_h is parallel to y_a, so Y is
    a complex multiple of a Hermitian matrix and P is normal; M D = V D is
    unitarily similar to DV = P, hence normal.
    """
    h, z = bf.H, bf.Z
    tr_h = h.trace().real
    tr_z = z.trace()
    # The trace gate: min over theta of tr(M*M) is tr H - 2 |tr Z|, a
    # quadratic quantity; where it vanishes every multiple is zero.
    if tr_h - 2.0 * abs(tr_z) <= TOL * tr_h:
        return None
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

    t0 = float(thetas[int(np.argmin(dgrid))])
    step = math.pi / grid
    t_star = golden_min(dval, t0 - step, t0 + step)
    polished = _polish_theta(h0, z0, t_star)
    if polished is not None and dval(polished) <= dval(t_star):
        t_star = polished
    d_min = dval(t_star)
    theta = t_star % math.pi
    # A tiny negative t_star wraps onto pi itself in floating point.
    if theta == math.pi:
        theta = 0.0
    e_star = cmath.exp(-2j * theta)
    mu = 0.5 * (tr_h - 2.0 * (e_star * tr_z).real)
    return ThetaSearch(theta=theta, mu=mu, residual=d_min)


def check_general(bf: BlockForm) -> Verdict:
    """Classify an arbitrary block form by reduction to the special case.

    Needs a direction theta at which the block combination M is a nonzero
    scalar multiple of a unitary with a non-normal product M D.
    ``find_theta`` picks theta and ``reduce_to_special`` tests it; where M
    is no scalar unitary the answer is NoTheta, whose diagnostics keep the
    failed theta, mu and ``theta_residual``.  Otherwise ``check_special``
    decides on the reduced form, T = 0, and gives the reason and geometry.
    Its B - I is unitarily similar to (2 / mu) e^{-i theta} M D, so its
    coupling gate, b = 0, is the one test of "M D is normal", and its
    BNormal is reported as ProductNormal, as is a zero multiple.  Raises
    :class:`ScaleRangeError` on a nonzero shift-free scale outside
    [``MIN_SCALE``, ``MAX_SCALE``], where the decision's intermediates
    underflow or overflow.
    """
    if not (MIN_SCALE <= (scale := bf.scale()) <= MAX_SCALE or scale == 0.0):
        raise ScaleRangeError(f"shift-free matrix scale {scale:.3e} is out of range: it must "
                              f"be 0 or at least {MIN_SCALE:g} and at most {MAX_SCALE:g}")
    found = find_theta(bf)
    if found is None:
        # The product with D of a zero multiple is zero, hence normal.
        return Verdict(False, Reason.PRODUCT_NORMAL, None, {"mu": 0.0})
    diagnostics = {"theta": found.theta, "mu": found.mu, "theta_residual": found.residual}
    try:
        sf, frame = reduce_to_special(bf, found.theta)
    except ZeroMultipleError:
        return Verdict(False, Reason.PRODUCT_NORMAL, None, diagnostics)
    except NotScalarUnitaryError:
        return Verdict(False, Reason.NO_THETA, None, diagnostics)
    special = check_special(sf, frame)
    if not special.bielliptical:
        normal = special.reason is Reason.B_NORMAL
        return Verdict(False, Reason.PRODUCT_NORMAL if normal else special.reason,
                       None, diagnostics)
    diagnostics.update(
        {f"special_{k}": val for k, val in special.diagnostics.items()}
    )
    diagnostics["reduced_form"] = sf
    return Verdict(True, None, special.ellipses, diagnostics)


class ReciprocalShape(str, Enum):
    BI_ELLIPTICAL = "BiElliptical"
    ELLIPTICAL = "Elliptical"
    NEITHER = "Neither"


def reciprocal_classify(r: ReciprocalForm) -> ReciprocalShape:
    """Shape of the numerical range of a reciprocal tridiagonal matrix.

    Bi-elliptical requires the outer symmetrized entries to agree and exceed
    one while the middle one equals one: |g1| = |g3| > 0 = g2 for the g_k =
    a_k - 1/a_k (A_k = 1 + g_k^2 / 2), linear gates at ``TOL`` times the
    Frobenius norm sqrt(2 (A1 + A2 + A3)), as in ``check_general``.  A single
    elliptical disk happens on the golden-ratio line through the symmetrized
    entries.
    """
    a1, a2, a3 = r.A1, r.A2, r.A3
    g1, g2, g3 = (abs(a - 1.0 / a) for a in (r.a1, r.a2, r.a3))
    gate = TOL * math.sqrt(2.0 * (a1 + a2 + a3))
    if abs(g1 - g3) <= gate and g2 <= gate and g1 > gate:
        return ReciprocalShape.BI_ELLIPTICAL
    t = TOL * max(1.0, a1, a2, a3)
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
